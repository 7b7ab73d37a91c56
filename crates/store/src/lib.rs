//! # store — the persistent prepared-formula store
//!
//! The localization service's in-memory cache (PR 3–7) makes repeat requests
//! 4.4x faster than cold builds, but dies with the process: every daemon
//! restart pays the full parse → typecheck → bit-blast → simplify pipeline
//! again for each known program. This crate is the disk tier underneath that
//! cache — a flat directory of versioned, CRC-checked records keyed by the
//! program's AST hash and fingerprinted by the job options that shaped the
//! prepared formula.
//!
//! The store is payload-agnostic: it moves opaque byte strings. The service
//! layer owns the codec that turns a prepared entry (simplified CNF
//! template, selector map, symbolic trace) into those
//! bytes — see `service`'s codec module and `bugassist::PreparedTemplate`.
//!
//! # Record format
//!
//! One record per file, named `<key as 16 lowercase hex digits>.rec`, laid
//! out flat so a future reader can `mmap` it and read the payload in place:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "bgastore"
//! 8       4     format version (little-endian u32, currently 1)
//! 12      8     key   — program AST hash (little-endian u64)
//! 20      8     fingerprint — job options fingerprint (little-endian u64)
//! 28      8     payload length n (little-endian u64)
//! 36      n     payload (opaque to the store)
//! 36+n    4     CRC-32 (IEEE) of bytes [0, 36+n)
//! ```
//!
//! # Invariants
//!
//! * **Corruption ⇒ miss, never a crash.** Every load re-validates magic,
//!   version, key, fingerprint, length and CRC; any mismatch (torn write,
//!   truncation, bit rot, format bump, stale options) counts into
//!   `corrupt_records` and behaves exactly like an absent record.
//! * **Writes are atomic.** Records are written to a dot-prefixed temp file
//!   and `rename`d into place, so a reader never observes a half-written
//!   record under the final name; a crash mid-write leaves only temp
//!   litter, which `scan` ignores.
//! * **The store never blocks correctness.** Callers treat every operation
//!   as best-effort: a failed write loses warmth, not answers.
//! * **One live owner per directory.** Two daemons pointed at one store
//!   directory could race each other's temp-file+rename writes (same
//!   pid ⇒ same temp name) and double-restore, so [`Store::open`] takes an
//!   exclusive dot-prefixed lock file recording the owner's PID. A second
//!   opener gets a structured [`std::io::ErrorKind::AddrInUse`] error
//!   naming the live owner; a lock left behind by a **dead** process
//!   (crash without cleanup) is detected via `/proc/<pid>` and broken
//!   automatically. [`Store::unlock`] (idempotent, also run on drop)
//!   releases the directory for a successor.
//!
//! # Examples
//!
//! ```
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let store = store::Store::open(&dir).unwrap();
//! store.save(0xfeed, 42, b"payload").unwrap();
//! assert_eq!(store.load(0xfeed, 42).as_deref(), Some(&b"payload"[..]));
//! assert_eq!(store.load(0xfeed, 43), None); // options changed: miss
//! assert_eq!(store.stats().corrupt_records, 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Record file magic ("bgastore").
const MAGIC: [u8; 8] = *b"bgastore";

/// Current record format version. Bump on any layout change; old records
/// then load as misses and are rewritten on the next write-through.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header size: magic + version + key + fingerprint + payload length.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// Suffix of record files.
const RECORD_EXT: &str = "rec";

/// Name of the per-directory ownership lock file (dot-prefixed so `scan`
/// ignores it like any temp litter). Contains the owner's PID in ASCII.
const LOCK_FILE: &str = ".lock";

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) lookup table, built at compile
/// time — the workspace is std-only, so the checksum is hand-rolled.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Counter snapshot of one [`Store`], mirrored into the service's `stats`
/// and `metrics` ops as the `store.*` family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that returned a valid record.
    pub hits: u64,
    /// Loads that found no record (or only a corrupt one).
    pub misses: u64,
    /// Records successfully written.
    pub writes: u64,
    /// Bytes of those records, framing included: `bytes_written / writes`
    /// is the mean record size.
    pub bytes_written: u64,
    /// Write attempts that failed (disk full, permissions, rename races).
    pub write_errors: u64,
    /// Records rejected by validation: bad magic, wrong format version,
    /// truncation, CRC mismatch, key/fingerprint mismatch, or a payload the
    /// caller's codec could not decode ([`Store::note_corrupt`]).
    pub corrupt_records: u64,
    /// Milliseconds the last restore-on-boot scan took ([`Store::note_restore`]).
    pub restore_ms: u64,
    /// Entries the last restore-on-boot scan recovered.
    pub restored_entries: u64,
}

/// A flat directory of CRC-checked prepared-formula records. All methods
/// take `&self`; counters are atomic, so one instance can be shared across
/// worker threads and an async write-through thread.
pub struct Store {
    dir: PathBuf,
    /// `true` while this instance owns the directory's lock file. Cleared
    /// by the first [`Store::unlock`] so a late second call (or the drop)
    /// can never delete a successor's lock.
    locked: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    bytes_written: AtomicU64,
    write_errors: AtomicU64,
    corrupt_records: AtomicU64,
    restore_ms: AtomicU64,
    restored_entries: AtomicU64,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Store {
    /// Opens (creating if necessary) the store directory and takes its
    /// exclusive ownership lock.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created, or a structured [`io::ErrorKind::AddrInUse`] error naming
    /// the live owner when another process (or another replica in this
    /// process) already holds the directory. A lock file left behind by a
    /// dead PID is broken automatically, not reported.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Store::acquire_lock(&dir)?;
        Ok(Store {
            dir,
            locked: AtomicBool::new(true),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            corrupt_records: AtomicU64::new(0),
            restore_ms: AtomicU64::new(0),
            restored_entries: AtomicU64::new(0),
        })
    }

    /// The directory records live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `true` while `pid` names a running process. Uses `/proc/<pid>` on
    /// Linux; on systems without procfs the answer degrades to "alive"
    /// (conservative: an unbreakable stale lock beats two live owners).
    fn pid_alive(pid: u32) -> bool {
        let proc_root = Path::new("/proc");
        !proc_root.exists() || proc_root.join(pid.to_string()).exists()
    }

    /// Creates the lock file exclusively, breaking at most one stale lock
    /// (a lock whose recorded PID is dead, or whose content is garbage —
    /// e.g. a torn write from a crash).
    fn acquire_lock(dir: &Path) -> io::Result<()> {
        let path = dir.join(LOCK_FILE);
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    file.write_all(std::process::id().to_string().as_bytes())?;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists && attempt == 0 => {
                    let owner = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match owner {
                        Some(pid) if Store::pid_alive(pid) => {
                            return Err(io::Error::new(
                                io::ErrorKind::AddrInUse,
                                format!(
                                    "store directory {} is locked by live process {pid}; \
                                     each replica needs its own --store-dir",
                                    dir.display()
                                ),
                            ));
                        }
                        // Dead owner or unreadable lock: break it and retry
                        // the exclusive create once. The retry (not a plain
                        // write) keeps the break race-safe: if another
                        // opener breaks and re-creates first, this one
                        // loses the create_new and errors out above.
                        _ => {
                            let _ = fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("second create_new attempt returns either way")
    }

    /// Releases the directory's ownership lock so a successor daemon can
    /// open it. Idempotent — the first call wins, later calls (including
    /// the implicit one on drop) are no-ops, so a lingering handle can
    /// never delete the lock a restarted replica just took.
    pub fn unlock(&self) {
        if self.locked.swap(false, Ordering::SeqCst) {
            let _ = fs::remove_file(self.dir.join(LOCK_FILE));
        }
    }

    fn record_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{RECORD_EXT}"))
    }

    /// Serializes a record into its on-disk byte layout.
    fn encode_record(key: u64, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Validates raw record bytes and returns `(key, fingerprint, payload)`.
    fn decode_record(bytes: &[u8]) -> Result<(u64, u64, Vec<u8>), &'static str> {
        if bytes.len() < HEADER_LEN + 4 {
            return Err("truncated record");
        }
        if bytes[0..8] != MAGIC {
            return Err("bad magic");
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        if u32_at(8) != FORMAT_VERSION {
            return Err("unsupported format version");
        }
        let key = u64_at(12);
        let fingerprint = u64_at(20);
        let payload_len = u64_at(28);
        let expected_len = (HEADER_LEN as u64)
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(4));
        if expected_len != Some(bytes.len() as u64) {
            return Err("payload length mismatch");
        }
        let body_end = bytes.len() - 4;
        if u32_at(body_end) != crc32(&bytes[..body_end]) {
            return Err("CRC mismatch");
        }
        Ok((key, fingerprint, bytes[HEADER_LEN..body_end].to_vec()))
    }

    /// Loads the payload stored under `key`, provided it was written with
    /// the same options `fingerprint`. Absent, unreadable, corrupt and
    /// fingerprint-mismatched records all return `None` (a miss); only the
    /// invalid ones additionally count into `corrupt_records`.
    pub fn load(&self, key: u64, fingerprint: u64) -> Option<Vec<u8>> {
        let path = self.record_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Store::decode_record(&bytes) {
            Ok((record_key, record_fp, payload))
                if record_key == key && record_fp == fingerprint =>
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            _ => {
                // Wrong key under this filename, stale fingerprint, or a
                // validation failure: all are "this record is not usable".
                self.corrupt_records.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Writes `payload` under `key`, atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; `write_errors` is already
    /// incremented, so best-effort callers may simply drop it.
    pub fn save(&self, key: u64, fingerprint: u64, payload: &[u8]) -> io::Result<()> {
        match self.try_save(key, fingerprint, payload) {
            Ok(bytes) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Writes one record and returns its size in bytes.
    fn try_save(&self, key: u64, fingerprint: u64, payload: &[u8]) -> io::Result<u64> {
        let bytes = Store::encode_record(key, fingerprint, payload);
        // Dot-prefixed temp name: scan() skips it, and the pid+key suffix
        // keeps concurrent writers of different keys from colliding.
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{key:016x}", std::process::id()));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        match fs::rename(&tmp, self.record_path(key)) {
            Ok(()) => Ok(bytes.len() as u64),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Reads every valid record in the directory — the restore-on-boot path.
    /// Invalid records count into `corrupt_records` and are skipped; temp
    /// files and foreign files are ignored silently. Neither hits nor misses
    /// are counted. Returns `(key, fingerprint, payload)` triples sorted by
    /// key for deterministic restore order.
    pub fn scan(&self) -> Vec<(u64, u64, Vec<u8>)> {
        let mut records = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(_) => return records,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(name) => name,
                None => continue,
            };
            let stem = match name.strip_suffix(&format!(".{RECORD_EXT}")) {
                Some(stem) if !name.starts_with('.') => stem,
                _ => continue,
            };
            let file_key = match u64::from_str_radix(stem, 16) {
                Ok(key) if stem.len() == 16 => key,
                _ => {
                    self.corrupt_records.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            let mut bytes = Vec::new();
            let read = fs::File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes));
            if read.is_err() {
                self.corrupt_records.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match Store::decode_record(&bytes) {
                Ok((key, fingerprint, payload)) if key == file_key => {
                    records.push((key, fingerprint, payload));
                }
                _ => {
                    self.corrupt_records.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        records.sort_by_key(|&(key, _, _)| key);
        records
    }

    /// Records a payload-level decode failure: the record's framing was
    /// valid but the caller's codec rejected the payload (e.g. written by a
    /// build with a different internal layout). The record is deleted so the
    /// cost is paid once, not on every boot.
    pub fn note_corrupt(&self, key: u64) {
        self.corrupt_records.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(self.record_path(key));
    }

    /// Records the outcome of a restore-on-boot scan for `stats`/`metrics`.
    pub fn note_restore(&self, ms: u64, entries: u64) {
        self.restore_ms.store(ms, Ordering::Relaxed);
        self.restored_entries.store(entries, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            corrupt_records: self.corrupt_records.load(Ordering::Relaxed),
            restore_ms: self.restore_ms.load(Ordering::Relaxed),
            restored_entries: self.restored_entries.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "store-test-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn save_load_roundtrip() {
        let tmp = TempDir::new("roundtrip");
        let store = Store::open(&tmp.0).unwrap();
        store.save(0xabc, 7, b"hello world").unwrap();
        assert_eq!(store.load(0xabc, 7).as_deref(), Some(&b"hello world"[..]));
        let stats = store.stats();
        assert_eq!((stats.writes, stats.hits, stats.misses), (1, 1, 0));
        assert_eq!(stats.corrupt_records, 0);
        // The byte counter counts the whole record: header, payload, CRC.
        let on_disk = fs::metadata(store.record_path(0xabc)).unwrap().len();
        assert_eq!(stats.bytes_written, (HEADER_LEN + 11 + 4) as u64);
        assert_eq!(stats.bytes_written, on_disk);
    }

    #[test]
    fn absent_record_is_a_clean_miss() {
        let tmp = TempDir::new("absent");
        let store = Store::open(&tmp.0).unwrap();
        assert_eq!(store.load(0x123, 0), None);
        let stats = store.stats();
        assert_eq!((stats.misses, stats.corrupt_records), (1, 0));
    }

    #[test]
    fn truncated_record_is_a_corrupt_miss() {
        let tmp = TempDir::new("truncated");
        let store = Store::open(&tmp.0).unwrap();
        store.save(1, 2, b"some payload bytes").unwrap();
        let path = store.record_path(1);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(store.load(1, 2), None);
        let stats = store.stats();
        assert_eq!((stats.misses, stats.corrupt_records), (1, 1));
    }

    #[test]
    fn flipped_byte_fails_crc() {
        let tmp = TempDir::new("crcflip");
        let store = Store::open(&tmp.0).unwrap();
        store.save(1, 2, b"payload under test").unwrap();
        let path = store.record_path(1);
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_LEN + 3; // flip a payload byte
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(1, 2), None);
        assert_eq!(store.stats().corrupt_records, 1);
    }

    #[test]
    fn wrong_format_version_is_a_corrupt_miss() {
        let tmp = TempDir::new("version");
        let store = Store::open(&tmp.0).unwrap();
        store.save(1, 2, b"versioned").unwrap();
        let path = store.record_path(1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        // Re-seal the CRC so only the version is wrong.
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(1, 2), None);
        assert_eq!(store.stats().corrupt_records, 1);
    }

    #[test]
    fn wrong_fingerprint_is_a_corrupt_miss() {
        let tmp = TempDir::new("fingerprint");
        let store = Store::open(&tmp.0).unwrap();
        store.save(1, 2, b"fingerprinted").unwrap();
        assert_eq!(store.load(1, 3), None);
        let stats = store.stats();
        assert_eq!((stats.misses, stats.corrupt_records), (1, 1));
        // The right fingerprint still loads: the record itself is intact.
        assert_eq!(store.load(1, 2).as_deref(), Some(&b"fingerprinted"[..]));
    }

    #[test]
    fn renamed_record_key_mismatch_is_corrupt() {
        let tmp = TempDir::new("rename");
        let store = Store::open(&tmp.0).unwrap();
        store.save(1, 2, b"moved").unwrap();
        fs::rename(store.record_path(1), store.record_path(9)).unwrap();
        assert_eq!(store.load(9, 2), None);
        assert_eq!(store.stats().corrupt_records, 1);
    }

    #[test]
    fn scan_recovers_valid_and_skips_corrupt() {
        let tmp = TempDir::new("scan");
        let store = Store::open(&tmp.0).unwrap();
        store.save(5, 50, b"five").unwrap();
        store.save(3, 30, b"three").unwrap();
        store.save(7, 70, b"seven").unwrap();
        // Corrupt one record and drop unrelated litter.
        let path = store.record_path(5);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..10]).unwrap();
        fs::write(tmp.0.join(".tmp-999-junk"), b"partial").unwrap();
        fs::write(tmp.0.join("README"), b"not a record").unwrap();

        let records = store.scan();
        assert_eq!(
            records,
            vec![(3, 30, b"three".to_vec()), (7, 70, b"seven".to_vec()),]
        );
        assert_eq!(store.stats().corrupt_records, 1);
    }

    #[test]
    fn note_corrupt_deletes_the_record() {
        let tmp = TempDir::new("notecorrupt");
        let store = Store::open(&tmp.0).unwrap();
        store.save(4, 40, b"bad payload").unwrap();
        store.note_corrupt(4);
        assert!(!store.record_path(4).exists());
        assert_eq!(store.stats().corrupt_records, 1);
    }

    #[test]
    fn second_open_of_a_locked_dir_is_a_structured_error() {
        // The shared---store-dir hazard: two replicas pointed at one
        // directory would race temp-file+rename writes (same PID, same
        // temp name). The second opener must fail up front, with an error
        // that names the live owner — not corrupt records later.
        let tmp = TempDir::new("lock");
        let first = Store::open(&tmp.0).unwrap();
        let second = Store::open(&tmp.0).expect_err("second owner must be rejected");
        assert_eq!(second.kind(), io::ErrorKind::AddrInUse);
        let message = second.to_string();
        assert!(message.contains("locked by live process"), "{message}");
        assert!(
            message.contains(&std::process::id().to_string()),
            "{message}"
        );
        // Releasing the lock (here via drop) frees the directory.
        drop(first);
        Store::open(&tmp.0).expect("released directory reopens");
    }

    #[test]
    fn stale_lock_of_a_dead_process_is_broken() {
        let tmp = TempDir::new("stalelock");
        fs::create_dir_all(&tmp.0).unwrap();
        // A PID nobody can be running under (far beyond Linux's pid_max),
        // as a crashed former owner would leave behind.
        fs::write(tmp.0.join(LOCK_FILE), b"3999999999").unwrap();
        let store = Store::open(&tmp.0).expect("stale lock must be broken");
        drop(store);
        // Garbage lock content (a torn write) is also stale.
        fs::write(tmp.0.join(LOCK_FILE), b"not a pid").unwrap();
        Store::open(&tmp.0).expect("garbage lock must be broken");
    }

    #[test]
    fn unlock_is_idempotent_and_never_steals_a_successors_lock() {
        let tmp = TempDir::new("unlock");
        let first = Store::open(&tmp.0).unwrap();
        first.unlock();
        first.unlock(); // no-op
        let successor = Store::open(&tmp.0).expect("unlocked directory reopens");
        // The lingering first handle (drop included) must not delete the
        // successor's lock out from under it.
        drop(first);
        assert!(tmp.0.join(LOCK_FILE).exists(), "successor keeps its lock");
        drop(successor);
        assert!(!tmp.0.join(LOCK_FILE).exists(), "owner's drop releases");
    }

    #[test]
    fn overwrite_replaces_payload() {
        let tmp = TempDir::new("overwrite");
        let store = Store::open(&tmp.0).unwrap();
        store.save(8, 80, b"old").unwrap();
        store.save(8, 80, b"new").unwrap();
        assert_eq!(store.load(8, 80).as_deref(), Some(&b"new"[..]));
        assert_eq!(store.stats().writes, 2);
    }
}
