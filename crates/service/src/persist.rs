//! The prepared-entry codec for the persistent store.
//!
//! `crates/store` moves opaque CRC-checked byte strings; this module owns
//! what those bytes *mean* for the localization service: a complete
//! [`PreparedEntry`] — the job's source text, entry, spec and options, the
//! [`bmc::SymbolicTrace`] without its grouped CNF (which the localizer
//! consumed while preparing) and the [`bugassist::PreparedTemplate`]
//! (simplified CNF template, selector map, model reconstruction, analysis
//! results). A decoded record rebuilds a localizer without touching the
//! encoder, the simplifier or the static analyses, which is the entire
//! point: restore-on-boot pays the parse only (~100x cheaper than a cold
//! build) and the first post-restart request solves immediately.
//!
//! Determinism note: [`encode_entry`] of a freshly built entry and of its
//! own decoded image produce identical bytes (everything serialized is
//! either input data or deterministic derived data), so write-through after
//! a store-served build is a harmless idempotent rewrite.
//!
//! Payload integrity beyond the store's CRC: [`decode_entry`] re-derives
//! the cache key and options fingerprint from the decoded fields and hands
//! them back, so the server can cross-check them against the record's
//! header — a payload pasted under the wrong filename decodes but then
//! fails that comparison and is treated as corrupt.

use crate::cache::PreparedEntry;
use crate::protocol::{Job, JobOptions, JobSpec};
use bugassist::{Granularity, Localizer, PreparedTemplate};
use sat::bytes::{ByteReader, ByteWriter, DecodeError};
use std::sync::Arc;

/// Version byte of the payload layout inside a store record. Bumping
/// [`store::FORMAT_VERSION`] invalidates records wholesale at the framing
/// layer; this byte exists so a payload-only layout change can do the same
/// without a store format bump. Version 2 added the static pruning and
/// static prior option bytes; version 3 dropped the racing-strategy flag
/// byte; version 4 dropped the `gate_cache` option byte and the trace's
/// `gates_cached` counter; version 5 dropped the MAX-SAT strategy byte;
/// version 6 dropped five option bytes: the base weight, the static prior,
/// and the word-pass, simplify and static-prune switches; version 7 added
/// the build's analysis results (pruned lines, lint-warning count, analysis
/// milliseconds) to the template; version 8 dropped the trace's grouped
/// CNF, which only the template build reads.
pub const PAYLOAD_VERSION: u8 = 8;

/// Serializes a prepared entry into a store payload. Always `Some`, since
/// every localizer is born prepared; the `Option` stays because the
/// repository benchmark (`perfbench/`) unwraps it.
pub fn encode_entry(entry: &PreparedEntry) -> Option<Vec<u8>> {
    let template = entry.localizer.export_prepared()?;
    let mut w = ByteWriter::new();
    w.write_u8(PAYLOAD_VERSION);
    w.write_str(&entry.source);
    w.write_str(&entry.entry);
    match entry.spec {
        JobSpec::Assertions => w.write_u8(1),
        JobSpec::ReturnEquals(v) => {
            w.write_u8(2);
            w.write_u64(v as u64);
        }
    }
    let o = &entry.options;
    w.write_usize(o.width);
    w.write_usize(o.unwind);
    w.write_usize(o.max_inline_depth);
    w.write_u8(match o.granularity {
        Granularity::Line => 1,
        Granularity::StatementInstance => 2,
    });
    w.write_u8(u8::from(o.loop_weighting));
    w.write_usize(o.max_suspect_sets);
    w.write_usize(o.trusted_lines.len());
    for line in &o.trusted_lines {
        w.write_u32(*line);
    }
    entry.localizer.trace().encode_bytes(&mut w);
    template.encode(&mut w);
    Some(w.into_bytes())
}

/// The options fingerprint a store record for this entry must carry:
/// [`Job::options_fingerprint`] recomputed from the entry's own job fields.
pub fn entry_fingerprint(entry: &PreparedEntry) -> u64 {
    let mut job = Job::new(
        entry.source.clone(),
        entry.entry.clone(),
        entry.spec,
        Vec::new(),
    );
    job.options = entry.options.clone();
    job.options_fingerprint()
}

fn decode_bool(r: &mut ByteReader<'_>, field: &str) -> Result<bool, DecodeError> {
    match r.read_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(DecodeError::new(format!("bad {field} byte {b}"))),
    }
}

/// Deserializes a store payload back into a prepared entry, returning
/// it together with the cache key and options fingerprint re-derived from
/// the decoded fields (for the caller to check against the record header).
///
/// # Errors
///
/// Returns a [`DecodeError`] on any truncation, malformed field, or a
/// source text that no longer parses — the caller treats all of these as a
/// corrupt record (count + delete), never as a failure.
pub fn decode_entry(payload: &[u8]) -> Result<(u64, u64, PreparedEntry), DecodeError> {
    let mut r = ByteReader::new(payload);
    let version = r.read_u8()?;
    if version != PAYLOAD_VERSION {
        return Err(DecodeError::new(format!(
            "unsupported payload version {version}"
        )));
    }
    let source = r.read_str()?.to_string();
    let entry_fn = r.read_str()?.to_string();
    let spec = match r.read_u8()? {
        1 => JobSpec::Assertions,
        2 => JobSpec::ReturnEquals(r.read_u64()? as i64),
        t => return Err(DecodeError::new(format!("bad spec tag {t}"))),
    };
    let width = r.read_usize()?;
    let unwind = r.read_usize()?;
    let max_inline_depth = r.read_usize()?;
    let granularity = match r.read_u8()? {
        1 => Granularity::Line,
        2 => Granularity::StatementInstance,
        t => return Err(DecodeError::new(format!("bad granularity tag {t}"))),
    };
    let loop_weighting = decode_bool(&mut r, "loop_weighting")?;
    let max_suspect_sets = r.read_usize()?;
    let num_trusted = r.read_len(4)?;
    let mut trusted_lines = Vec::with_capacity(num_trusted);
    for _ in 0..num_trusted {
        trusted_lines.push(r.read_u32()?);
    }
    let options = JobOptions {
        width,
        unwind,
        max_inline_depth,
        granularity,
        loop_weighting,
        max_suspect_sets,
        trusted_lines,
    };
    let trace = bmc::SymbolicTrace::decode_bytes(&mut r)?;
    let template = PreparedTemplate::decode(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::new(format!(
            "{} trailing bytes after payload",
            r.remaining()
        )));
    }

    let program = minic::parse_program(&source)
        .map_err(|e| DecodeError::new(format!("stored source no longer parses: {e}")))?;
    let mut job = Job::new(source, entry_fn, spec, Vec::new());
    job.options = options;
    let key = job.cache_key(&program);
    let fingerprint = job.options_fingerprint();
    let localizer = Localizer::from_restored(
        trace,
        template,
        &job.entry,
        &job.bmc_spec(),
        &job.localizer_config(),
        &program,
    );
    let entry = PreparedEntry::new(program, &job, Arc::new(localizer));
    Ok((key, fingerprint, entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmc::Spec;

    fn warm_entry(source: &str, spec: JobSpec) -> PreparedEntry {
        let job = Job::new(source, "main", spec, vec![vec![5]]);
        let program = minic::parse_program(source).unwrap();
        let bmc_spec = match spec {
            JobSpec::Assertions => Spec::Assertions,
            JobSpec::ReturnEquals(v) => Spec::ReturnEquals(v),
        };
        let localizer =
            Localizer::new(&program, "main", &bmc_spec, &job.localizer_config()).unwrap();
        PreparedEntry::new(program, &job, Arc::new(localizer))
    }

    #[test]
    fn roundtrip_restores_a_warm_equivalent_entry() {
        let source = "int main(int x) {\nint y = x + 2;\nreturn y;\n}";
        let entry = warm_entry(source, JobSpec::ReturnEquals(4));
        let payload = encode_entry(&entry).expect("every entry encodes");
        let (key, fingerprint, restored) = decode_entry(&payload).expect("decodes");

        // Key and fingerprint match what the original job would compute.
        let job = Job::new(source, "main", JobSpec::ReturnEquals(4), vec![]);
        assert_eq!(key, job.cache_key(&entry.program));
        assert_eq!(fingerprint, job.options_fingerprint());

        // The restored localizer produces a byte-identical canonical report.
        let fresh = entry.localizer.localize(&[5]).unwrap();
        let back = restored.localizer.localize(&[5]).unwrap();
        let canonical = |r: &bugassist::LocalizationReport| {
            crate::protocol::canonicalize(&crate::protocol::report_to_json(r)).to_string()
        };
        assert_eq!(canonical(&fresh), canonical(&back));
    }

    /// Line 3 is a dead store (a lint warning) and, like line 4, cannot
    /// influence the return value (pruned).
    const ANALYZED: &str =
        "int main(int x) {\nint y = x + 2;\nint junk = x * 3;\nint junk2 = 1;\nreturn y;\n}";

    #[test]
    fn restore_keeps_the_builds_analysis_results() {
        let entry = warm_entry(ANALYZED, JobSpec::ReturnEquals(4));
        let fresh = entry.localizer.localize(&[5]).unwrap().stats;
        assert!(fresh.lines_pruned >= 2, "{fresh:?}");
        assert!(fresh.lint_warnings >= 1, "{fresh:?}");
        let mut payload = encode_entry(&entry).unwrap();
        let (_, _, restored) = decode_entry(&payload).unwrap();
        let back = restored.localizer.localize(&[5]).unwrap().stats;
        assert_eq!(
            (back.lines_pruned, back.lint_warnings, back.prune_ms),
            (fresh.lines_pruned, fresh.lint_warnings, fresh.prune_ms)
        );

        // The record ends with the warning count and the analysis
        // milliseconds: patched values come back verbatim, so the restore
        // read them rather than re-running the analyses.
        let tail = payload.len() - 16;
        payload[tail..tail + 8].copy_from_slice(&7u64.to_le_bytes());
        payload[tail + 8..].copy_from_slice(&1234u64.to_le_bytes());
        let (_, _, patched) = decode_entry(&payload).unwrap();
        let stats = patched.localizer.localize(&[5]).unwrap().stats;
        assert_eq!((stats.lint_warnings, stats.prune_ms), (7, 1234));
    }

    #[test]
    fn unsorted_pruned_lines_are_a_decode_error() {
        let entry = warm_entry(ANALYZED, JobSpec::ReturnEquals(4));
        let pruned =
            analysis::prunable_lines(&entry.program, "main", analysis::Criterion::ReturnValue);
        assert!(pruned.len() >= 2, "{pruned:?}");
        let mut payload = encode_entry(&entry).unwrap();
        // The pruned lines (one u32 each) sit just before the two trailing
        // u64 counters; swap the first two.
        let start = payload.len() - 16 - 4 * pruned.len();
        payload[start..start + 4].copy_from_slice(&pruned[1].0.to_le_bytes());
        payload[start + 4..start + 8].copy_from_slice(&pruned[0].0.to_le_bytes());
        let err = decode_entry(&payload).expect_err("unsorted list rejected");
        assert!(err.to_string().contains("pruned lines"), "{err}");
    }

    #[test]
    fn reencode_of_a_decoded_entry_is_byte_identical() {
        let source = "int main(int x) {\nint y = x * 3;\nassert(y != 9);\nreturn y;\n}";
        let entry = warm_entry(source, JobSpec::Assertions);
        let payload = encode_entry(&entry).unwrap();
        let (_, _, restored) = decode_entry(&payload).unwrap();
        let payload_again = encode_entry(&restored).unwrap();
        assert_eq!(payload, payload_again);
    }

    #[test]
    fn truncated_and_garbled_payloads_error_cleanly() {
        let source = "int main(int x) {\nint y = x + 2;\nreturn y;\n}";
        let entry = warm_entry(source, JobSpec::ReturnEquals(4));
        let payload = encode_entry(&entry).unwrap();
        for cut in [0, 1, 5, payload.len() / 2, payload.len() - 1] {
            assert!(decode_entry(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut garbled = payload.clone();
        garbled[0] = 99; // unknown payload version
        assert!(decode_entry(&garbled).is_err());
        // A record of the previous layout, which carried the trace's
        // grouped CNF, is a miss rather than a misread.
        let mut previous = payload.clone();
        previous[0] = PAYLOAD_VERSION - 1;
        assert!(decode_entry(&previous).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_entry(&trailing).is_err());
    }
}
