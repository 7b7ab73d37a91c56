//! The sharded LRU cache of prepared localizers — the heart of the service.
//!
//! Building a [`Localizer`] is the expensive part of serving a request:
//! parse → typecheck → unroll/inline → bit-blast, then one pass over the
//! grouped CNF to build the selector-relaxed template formula. All of it is
//! input-independent, so a long-lived daemon should pay it **once per
//! distinct (program, options) pair**, not once per request. This cache
//! stores prepared localizers behind `Arc`, keyed by the stable
//! content hash of [`crate::protocol::Job::cache_key`]: concurrent requests
//! for the same program share one prepared instance and skip straight to
//! MAX-SAT solving.
//!
//! Two properties matter under real load:
//!
//! * **Sharding** — the cache is split into independently locked shards
//!   (key → shard by the avalanche-mixed hash) so the worker pool doesn't
//!   serialize on one mutex. Each shard holds at most
//!   `floor(capacity / shards)` entries and evicts its least-recently-used
//!   entry when full; recency is a global atomic tick, so LRU order is
//!   consistent across threads at the cost of one `fetch_add`. Eviction
//!   only drops the shard's reference — requests still holding the evicted
//!   `Arc` finish undisturbed.
//! * **Single-flight builds** — a cache slot is inserted *before* the
//!   expensive build runs, holding a [`OnceLock`] that the first caller
//!   fills while later callers for the same key block on it. A burst of
//!   first requests for one program (the thundering herd that killed the
//!   LocFaults-style per-test rebuild approach) does exactly one parse +
//!   bit-blast, and the shard lock is **not** held while building, so other
//!   keys in the shard stay unaffected.
//!
//! Failed builds (parse/type/encode errors) are *not* negatively cached:
//! the pending slot is removed so the error doesn't occupy capacity, and
//! every waiter receives a clone of the error.
//!
//! Since the `revise` op landed, the cache stores **segment-level entries**
//! ([`PreparedEntry`]) rather than bare localizers: each entry keeps the
//! parsed AST and its per-function structural segments
//! ([`minic::ProgramSegments`]) next to the prepared [`Localizer`], plus the
//! last report's per-rank costs. That is what makes an edited program's
//! request cheap — the server diffs the new AST against the cached segments
//! ([`minic::classify_edit`]) and reuses every segment the edit provably
//! left alone, instead of treating the entry as an all-or-nothing blob.

use crate::protocol::{Job, JobOptions, JobSpec};
use bugassist::{LocalizationReport, Localizer};
use minic::{segment_program, Program, ProgramSegments};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One cached preparation: the program's AST and diffable segments, the
/// job parameters it was prepared under, the localizer, and the
/// reports served from it.
#[derive(Debug)]
pub struct PreparedEntry {
    /// The MinC source text the entry's job carried — kept verbatim so the
    /// persistent store can serialize the entry without a pretty-printer
    /// (the AST has none) and re-parse it on restore.
    pub source: String,
    /// The parsed program this entry was built from.
    pub program: Program,
    /// Per-function fingerprints + line traces of [`PreparedEntry::program`],
    /// precomputed so a `revise` diff costs no re-segmentation of the old
    /// side.
    pub segments: ProgramSegments,
    /// Entry function the localizer was prepared for.
    pub entry: String,
    /// Specification the localizer was prepared for.
    pub spec: JobSpec,
    /// Encoding/solver options the localizer was prepared with.
    pub options: JobOptions,
    /// The prepared localizer itself.
    pub localizer: Arc<Localizer>,
    /// Reports served from this entry, keyed by failing input. The solver
    /// is deterministic, so a repeat of (entry, input) reproduces the same
    /// report — which lets the `revise` op serve relabel-class edits (and
    /// reverts to an already-seen version) by *remapping* a cached report
    /// instead of re-solving. Bounded FIFO.
    reports: Mutex<Vec<(Vec<i64>, LocalizationReport)>>,
}

/// Reports remembered per entry; edit loops revisit few distinct inputs,
/// so a small bound suffices and caps memory.
const REPORT_CACHE_CAP: usize = 32;

impl PreparedEntry {
    /// Packages a freshly built localizer with the job
    /// parameters and the program's segmentation.
    pub fn new(program: Program, job: &Job, localizer: Arc<Localizer>) -> PreparedEntry {
        let segments = segment_program(&program);
        PreparedEntry::with_segments(program, segments, job, localizer)
    }

    /// [`PreparedEntry::new`] with the program's segmentation already in
    /// hand — the revise path computes it for the edit diff and must not
    /// pay the hashing pass a second time.
    pub fn with_segments(
        program: Program,
        segments: ProgramSegments,
        job: &Job,
        localizer: Arc<Localizer>,
    ) -> PreparedEntry {
        PreparedEntry {
            source: job.program.clone(),
            segments,
            program,
            entry: job.entry.clone(),
            spec: job.spec,
            options: job.options.clone(),
            localizer,
            reports: Mutex::new(Vec::new()),
        }
    }

    /// Records a single-input report served from this entry, remembering it
    /// for solve-skipping reuse.
    pub fn record_report(&self, input: &[i64], report: &LocalizationReport) {
        let mut reports = self.reports.lock().expect("reports poisoned");
        if let Some(slot) = reports.iter_mut().find(|(i, _)| i == input) {
            slot.1 = report.clone();
            return;
        }
        if reports.len() >= REPORT_CACHE_CAP {
            reports.remove(0);
        }
        reports.push((input.to_vec(), report.clone()));
    }

    /// The report previously served from this entry for exactly this
    /// failing input, if remembered.
    pub fn cached_report(&self, input: &[i64]) -> Option<LocalizationReport> {
        self.reports
            .lock()
            .expect("reports poisoned")
            .iter()
            .find(|(i, _)| i == input)
            .map(|(_, report)| report.clone())
    }
}

/// Monotonic counters describing cache behaviour since startup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests that found a slot (completed, or pending — in which case
    /// they waited for the builder instead of duplicating its work).
    pub hits: u64,
    /// Requests that had to build.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Builds that panicked (the poisoned slot is evicted and the panic is
    /// converted into an error response; the worker survives).
    pub poisoned: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A slot holding a build that is either in flight or finished.
type Slot = Arc<OnceLock<Result<Arc<PreparedEntry>, String>>>;

#[derive(Debug)]
struct Entry {
    key: u64,
    last_used: u64,
    slot: Slot,
}

/// A sharded least-recently-used cache of [`PreparedEntry`]s (prepared
/// localizers plus their diffable program segments) with single-flight
/// builds.
#[derive(Debug)]
pub struct PreparedCache {
    shards: Vec<Mutex<Vec<Entry>>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poisoned: AtomicU64,
}

impl PreparedCache {
    /// Creates a cache of at most `capacity` entries spread over `shards`
    /// independently locked shards (both clamped to at least 1; shard count
    /// never exceeds capacity). `capacity` is an upper bound on resident
    /// prepared localizers — a memory promise — so the per-shard share
    /// rounds *down*; a capacity not divisible by the shard count wastes
    /// the remainder rather than overshooting (check [`PreparedCache::capacity`]
    /// for the effective total).
    pub fn new(capacity: usize, shards: usize) -> PreparedCache {
        let shards = shards.clamp(1, capacity.max(1));
        let per_shard_capacity = (capacity.max(1) / shards).max(1);
        PreparedCache {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            per_shard_capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
        }
    }

    /// Number of shards (for the stats endpoint).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entry capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    fn shard(&self, key: u64) -> &Mutex<Vec<Entry>> {
        // The key went through an avalanche finalizer, so the low bits are
        // uniformly distributed over the shards.
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Peeks at a *completed* entry without building anything: the `revise`
    /// op uses this to fetch the pre-edit preparation its delta is computed
    /// against. Touches the entry's recency (a revision is a use of the old
    /// program's entry) but does not count as a hit or miss — the
    /// stats-visible event is the one on the revision's own key. A slot
    /// whose build is still in flight reads as absent (revise then falls
    /// back to a cold build rather than blocking on an unrelated builder).
    pub fn lookup(&self, key: u64) -> Option<Arc<PreparedEntry>> {
        let tick = self.next_tick();
        let mut entries = self.shard(key).lock().expect("cache shard poisoned");
        let entry = entries.iter_mut().find(|e| e.key == key)?;
        entry.last_used = tick;
        entry
            .slot
            .get()
            .and_then(|result| result.as_ref().ok())
            .map(Arc::clone)
    }

    /// Returns the prepared entry for `key`, running `build` if (and
    /// only if) no other request has built or is building it. The boolean
    /// is `true` for a cache hit — including the "waited for a concurrent
    /// builder" case, where this call did no build work of its own.
    ///
    /// # Errors
    ///
    /// A failing build propagates its error to every waiter and leaves no
    /// cache entry behind.
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<PreparedEntry, String>,
    ) -> (Result<Arc<PreparedEntry>, String>, bool) {
        // Phase 1 (shard locked, O(shard size)): find or insert the slot.
        let (slot, hit) = {
            let tick = self.next_tick();
            let mut entries = self.shard(key).lock().expect("cache shard poisoned");
            if let Some(entry) = entries.iter_mut().find(|e| e.key == key) {
                entry.last_used = tick;
                (Arc::clone(&entry.slot), true)
            } else {
                if entries.len() >= self.per_shard_capacity {
                    let lru = entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                        .expect("full shard is non-empty");
                    entries.swap_remove(lru);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                let slot: Slot = Arc::new(OnceLock::new());
                entries.push(Entry {
                    key,
                    last_used: tick,
                    slot: Arc::clone(&slot),
                });
                (slot, false)
            }
        };
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }

        // Phase 2 (shard unlocked): build, or block on the builder. Only
        // the thread that inserted the slot can be first into get_or_init
        // with actual work — but any waiter may run the closure if it wins
        // the OnceLock race, so pass the same builder through for safety:
        // whoever runs it, it runs at most once per slot.
        //
        // A *panicking* build poisons the std `Once` under the slot, which
        // makes every waiter's `get_or_init` unwind as well. Catch that
        // here: convert it into an ordinary build error (so workers answer
        // their clients and live on) and fall through to the eviction below
        // — a poisoned slot must never squat in the cache, or the key would
        // panic every caller forever.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.get_or_init(|| build().map(Arc::new)).clone()
        }))
        .unwrap_or_else(|_| {
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            Err("internal error: prepared-formula build panicked".to_string())
        });

        // A failed build must not squat in the cache: drop the slot (only
        // if it is still ours — a later rebuild may have replaced it).
        if result.is_err() {
            let mut entries = self.shard(key).lock().expect("cache shard poisoned");
            entries.retain(|e| e.key != key || !Arc::ptr_eq(&e.slot, &slot));
        }
        (result, hit)
    }

    /// Inserts an already-built entry under `key` — the restore-on-boot
    /// path, which decodes warm entries from the persistent store before any
    /// request arrives. Counts neither a hit nor a miss (no request asked),
    /// but does evict LRU entries when the shard is full, exactly like a
    /// built insert. A key that is already resident is left untouched: a
    /// live entry (possibly serving requests) always beats a restored one.
    pub fn insert(&self, key: u64, entry: Arc<PreparedEntry>) {
        let tick = self.next_tick();
        let mut entries = self.shard(key).lock().expect("cache shard poisoned");
        if entries.iter().any(|e| e.key == key) {
            return;
        }
        if entries.len() >= self.per_shard_capacity {
            let lru = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("full shard is non-empty");
            entries.swap_remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let slot: Slot = Arc::new(OnceLock::new());
        let _ = slot.set(Ok(entry));
        entries.push(Entry {
            key,
            last_used: tick,
            slot,
        });
    }

    /// Snapshots every *completed, successful* entry — the
    /// snapshot-on-shutdown path. Pending builds and failed slots are
    /// skipped (an in-flight build at shutdown has no one left to wait for
    /// it; errors are never persisted). Sorted by key so snapshot order is
    /// deterministic.
    pub fn entries(&self) -> Vec<(u64, Arc<PreparedEntry>)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let entries = shard.lock().expect("cache shard poisoned");
            for entry in entries.iter() {
                if let Some(Ok(prepared)) = entry.slot.get() {
                    all.push((entry.key, Arc::clone(prepared)));
                }
            }
        }
        all.sort_by_key(|&(key, _)| key);
        all
    }

    /// Hit/miss/eviction/occupancy counters since startup.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmc::Spec;
    use bugassist::LocalizerConfig;
    use std::sync::atomic::AtomicUsize;

    fn build_localizer(expr: &str) -> Result<PreparedEntry, String> {
        let source = format!("int main(int x) {{\nint y = {expr};\nreturn y;\n}}");
        let program = minic::parse_program(&source).map_err(|e| e.to_string())?;
        let config = LocalizerConfig {
            encode: bmc::EncodeConfig {
                width: 8,
                ..bmc::EncodeConfig::default()
            },
            ..LocalizerConfig::default()
        };
        let localizer = Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config)
            .map_err(|e| e.to_string())?;
        let job = Job::new(source, "main", JobSpec::ReturnEquals(4), vec![vec![3]]);
        Ok(PreparedEntry::new(program, &job, Arc::new(localizer)))
    }

    #[test]
    fn second_request_hits_and_shares_the_instance() {
        let cache = PreparedCache::new(4, 2);
        let builds = AtomicUsize::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::Relaxed);
            build_localizer("x + 1")
        };
        let (first, hit1) = cache.get_or_build(1, build);
        let (second, hit2) = cache.get_or_build(1, || build_localizer("x + 1"));
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first.unwrap(), &second.unwrap()));
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_one_evicts_lru() {
        let cache = PreparedCache::new(1, 1);
        assert_eq!(cache.capacity(), 1);
        cache
            .get_or_build(1, || build_localizer("x + 1"))
            .0
            .unwrap();
        cache
            .get_or_build(2, || build_localizer("x + 2"))
            .0
            .unwrap();
        // 1 was evicted by 2, so requesting it again is a miss + rebuild.
        let (_, hit) = cache.get_or_build(1, || build_localizer("x + 1"));
        assert!(!hit);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn recency_protects_the_hot_entry() {
        // Shard count 1 so all three keys compete for the same two slots.
        let cache = PreparedCache::new(2, 1);
        cache
            .get_or_build(1, || build_localizer("x + 1"))
            .0
            .unwrap();
        cache
            .get_or_build(2, || build_localizer("x + 2"))
            .0
            .unwrap();
        // Touch 1 so 2 becomes LRU, then insert 3.
        assert!(cache.get_or_build(1, || unreachable!("cached")).1);
        cache
            .get_or_build(3, || build_localizer("x + 3"))
            .0
            .unwrap();
        assert!(cache.get_or_build(1, || unreachable!("cached")).1);
        let (_, hit2) = cache.get_or_build(2, || build_localizer("x + 2"));
        assert!(!hit2, "LRU entry was evicted");
    }

    #[test]
    fn concurrent_first_requests_build_exactly_once() {
        let cache = Arc::new(PreparedCache::new(4, 2));
        let builds = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                std::thread::spawn(move || {
                    let (result, _) = cache.get_or_build(7, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window: the herd must block on the
                        // slot, not start rival builds.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        build_localizer("x + 1")
                    });
                    result.unwrap()
                })
            })
            .collect();
        let instances: Vec<Arc<PreparedEntry>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::Relaxed), 1, "single-flight");
        for other in &instances[1..] {
            assert!(Arc::ptr_eq(&instances[0], other));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn eviction_while_in_use_keeps_the_instance_alive_and_rebuilds_later() {
        let cache = PreparedCache::new(1, 1);
        let (first, _) = cache.get_or_build(1, || build_localizer("x + 1"));
        let first = first.unwrap();
        // Key 2 evicts key 1 (capacity 1) while we still hold the Arc.
        cache
            .get_or_build(2, || build_localizer("x + 2"))
            .0
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 1);
        // The evicted entry keeps working for its holder: localize through
        // it after the cache dropped its reference.
        let report = first.localizer.localize(&[7]).expect("still usable");
        assert!(!report.suspect_lines.is_empty());
        // Re-requesting the evicted key is a miss that builds a *fresh*
        // instance; the old Arc is not resurrected.
        let (rebuilt, hit) = cache.get_or_build(1, || build_localizer("x + 1"));
        assert!(!hit);
        assert!(!Arc::ptr_eq(&first, &rebuilt.unwrap()));
    }

    #[test]
    fn failing_build_propagates_to_every_waiter_without_poisoning_the_slot() {
        // A thundering herd on a key whose build fails: single-flight must
        // still hold (one build attempt), every waiter must receive the
        // error, and the slot must be neither poisoned nor negatively
        // cached — the next request for the key builds again and succeeds.
        let cache = Arc::new(PreparedCache::new(4, 1));
        let attempts = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let attempts = Arc::clone(&attempts);
                std::thread::spawn(move || {
                    let (result, _) = cache.get_or_build(9, || {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        // Widen the window so the herd really waits on the
                        // pending slot rather than racing past it.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Err("kaboom".to_string())
                    });
                    result
                })
            })
            .collect();
        for handle in handles {
            let result = handle.join().expect("waiter panicked");
            assert_eq!(result.unwrap_err(), "kaboom", "every waiter sees the error");
        }
        assert_eq!(
            attempts.load(Ordering::Relaxed),
            1,
            "failures are single-flight too"
        );
        assert_eq!(cache.stats().entries, 0, "no negative caching");
        // The key is immediately buildable again — and this time it works.
        let (result, hit) = cache.get_or_build(9, || build_localizer("x + 1"));
        assert!(!hit);
        assert!(result.is_ok());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn lookup_peeks_without_building_and_touches_recency() {
        let cache = PreparedCache::new(2, 1);
        assert!(cache.lookup(1).is_none(), "empty cache has nothing to peek");
        cache
            .get_or_build(1, || build_localizer("x + 1"))
            .0
            .unwrap();
        cache
            .get_or_build(2, || build_localizer("x + 2"))
            .0
            .unwrap();
        let peeked = cache.lookup(1).expect("present");
        assert_eq!(peeked.entry, "main");
        // The peek was a use: key 2 is now the LRU victim when 3 arrives.
        cache
            .get_or_build(3, || build_localizer("x + 3"))
            .0
            .unwrap();
        assert!(cache.lookup(1).is_some(), "recently peeked entry survives");
        assert!(cache.lookup(2).is_none(), "LRU entry was evicted");
        // Peeks never count as hits or misses.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 3));
    }

    #[test]
    fn panicking_build_poisons_nothing_and_the_key_recovers() {
        // A build that panics must not take the worker (caller) down, must
        // not leave a poisoned slot behind (which would panic every future
        // caller of the key), and must leave the key rebuildable. A herd is
        // the hard case: the waiters block on the slot whose builder
        // panics, so std's Once poisoning unwinds them too — all of them
        // must come back with errors, not aborts.
        let cache = Arc::new(PreparedCache::new(4, 1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let (result, _) = cache.get_or_build(11, || {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        panic!("injected build fault");
                    });
                    result
                })
            })
            .collect();
        for handle in handles {
            let result = handle.join().expect("caller must survive the panic");
            assert!(result.unwrap_err().contains("panicked"));
        }
        assert_eq!(cache.stats().entries, 0, "poisoned slot was evicted");
        assert!(cache.stats().poisoned >= 1);
        // The key is immediately buildable again — and this time it works.
        let (result, hit) = cache.get_or_build(11, || build_localizer("x + 1"));
        assert!(!hit);
        assert!(result.is_ok());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cache = PreparedCache::new(4, 1);
        let (result, hit) = cache.get_or_build(1, || Err("boom".to_string()));
        assert!(!hit);
        assert_eq!(result.unwrap_err(), "boom");
        assert_eq!(cache.stats().entries, 0, "error slot was removed");
        // The key is buildable again afterwards.
        let (result, hit) = cache.get_or_build(1, || build_localizer("x + 1"));
        assert!(!hit);
        assert!(result.is_ok());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn insert_preloads_and_the_first_request_hits() {
        let cache = PreparedCache::new(4, 2);
        let entry = Arc::new(build_localizer("x + 1").unwrap());
        cache.insert(5, Arc::clone(&entry));
        // Preloading is invisible in hit/miss counters…
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 1));
        // …but the first request finds it warm and never builds.
        let (result, hit) = cache.get_or_build(5, || unreachable!("preloaded"));
        assert!(hit);
        assert!(Arc::ptr_eq(&entry, &result.unwrap()));
    }

    #[test]
    fn insert_never_replaces_a_live_entry() {
        let cache = PreparedCache::new(4, 1);
        let (live, _) = cache.get_or_build(5, || build_localizer("x + 1"));
        let live = live.unwrap();
        cache.insert(5, Arc::new(build_localizer("x + 2").unwrap()));
        let (after, hit) = cache.get_or_build(5, || unreachable!("cached"));
        assert!(hit);
        assert!(Arc::ptr_eq(&live, &after.unwrap()), "live entry wins");
    }

    #[test]
    fn entries_snapshots_only_successful_completions() {
        let cache = PreparedCache::new(4, 2);
        cache
            .get_or_build(2, || build_localizer("x + 2"))
            .0
            .unwrap();
        cache
            .get_or_build(1, || build_localizer("x + 1"))
            .0
            .unwrap();
        let _ = cache.get_or_build(3, || Err("boom".to_string()));
        let snapshot = cache.entries();
        let keys: Vec<u64> = snapshot.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2], "sorted, failures excluded");
    }

    #[test]
    fn shards_do_not_exceed_capacity() {
        let cache = PreparedCache::new(4, 8);
        // More shards than capacity: clamped so capacity still holds.
        assert!(cache.shard_count() <= 4);
        assert_eq!(cache.capacity(), cache.shard_count());
    }
}
