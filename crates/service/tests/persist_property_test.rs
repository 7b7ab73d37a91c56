//! Seeded property test of the store payload codec: random programs
//! prepared under varying widths, granularities and loop weightings must
//! survive an encode → decode → re-encode round trip byte-identically, and
//! the restored localizer must produce byte-identical localization reports.

use bugassist::Granularity;
use prng::SplitMix64;
use service::persist::{decode_entry, encode_entry};
use service::protocol::{canonicalize, report_to_json};
use service::{Job, JobSpec, PreparedEntry};
use std::sync::Arc;

/// A random `main(x)` with `stmts` chained assignments over
/// bitwise/arithmetic operators, then a loop of 1–3 iterations on the last
/// one (so per-iteration selectors carry distinct loop weights) — total by
/// construction, so the concrete interpreter always yields a return value
/// to aim the failing spec at.
fn random_program(rng: &mut SplitMix64, stmts: usize) -> String {
    let ops = ["+", "-", "*", "&", "|", "^"];
    let mut source = String::from("int main(int x) {\nint v0 = x + 1;\n");
    for i in 1..stmts {
        let op = ops[rng.gen_range(0..ops.len() as u64) as usize];
        let prev = rng.gen_range(0..i as u64);
        let constant = 1 + rng.gen_range(0..9);
        source.push_str(&format!("int v{i} = v{prev} {op} {constant};\n"));
    }
    let last = stmts - 1;
    let trips = 1 + rng.gen_range(0..3);
    let constant = 1 + rng.gen_range(0..9);
    source.push_str(&format!(
        "int i = 0;\nwhile (i < {trips}) {{\nv{last} = v{last} + {constant};\ni = i + 1;\n}}\n"
    ));
    source.push_str(&format!("return v{last};\n}}"));
    source
}

#[test]
fn random_prepared_templates_roundtrip_byte_identically() {
    let widths = [6usize, 8, 10, 13];
    let mut rng = SplitMix64::seed_from_u64(0xB06A_5517);
    let mut weighted_cases = 0;
    for case in 0..12 {
        let width = widths[(case % widths.len() as u64) as usize];
        let granularity = if rng.gen_range(0..2) == 1 {
            Granularity::StatementInstance
        } else {
            Granularity::Line
        };
        let loop_weighting = rng.gen_range(0..2) == 1;
        let stmts = 2 + rng.gen_range(0..4) as usize;
        let source = random_program(&mut rng, stmts);
        let input = rng.gen_range(0..16) as i64;

        let program = minic::parse_program(&source).expect("generated source parses");
        // Aim the spec at a value the program provably does not return, so
        // the input is a genuine failing test.
        let outcome = bmc::run_program(
            &program,
            "main",
            &[input],
            &[],
            bmc::InterpConfig {
                width,
                ..bmc::InterpConfig::default()
            },
        );
        let actual = outcome.result.expect("generated program returns");
        let golden = actual + 1;

        let mut job = Job::new(
            source.clone(),
            "main",
            JobSpec::ReturnEquals(golden),
            vec![vec![input]],
        );
        job.options.width = width;
        job.options.granularity = granularity;
        job.options.loop_weighting = loop_weighting;
        let localizer =
            bugassist::Localizer::new(&program, "main", &job.bmc_spec(), &job.localizer_config())
                .expect("generated program encodes");
        let entry = PreparedEntry::new(program, &job, Arc::new(localizer));

        let context = format!(
            "case {case}: width={width} granularity={granularity:?} \
             loop_weighting={loop_weighting}\n{source}"
        );
        let payload = encode_entry(&entry).expect("every entry encodes");
        let (key, fingerprint, restored) =
            decode_entry(&payload).unwrap_or_else(|e| panic!("{context}\ndecode: {e}"));
        assert_eq!(key, job.cache_key(&entry.program), "{context}");
        assert_eq!(fingerprint, job.options_fingerprint(), "{context}");
        assert_eq!(
            encode_entry(&restored).expect("restored entry re-encodes"),
            payload,
            "re-encode must be byte-identical: {context}"
        );

        let fresh = entry.localizer.localize(&[input]).expect("fresh localize");
        let back = restored
            .localizer
            .localize(&[input])
            .expect("restored localize");
        assert_eq!(
            canonicalize(&report_to_json(&fresh)).to_string(),
            canonicalize(&report_to_json(&back)).to_string(),
            "restored-vs-fresh reports must be byte-identical: {context}"
        );
        // A suspect costing more than one per blamed instance was priced by
        // the restored template's loop weights.
        if back.suspects.iter().any(|s| s.cost > s.lines.len() as u64) {
            weighted_cases += 1;
        }
    }
    assert!(
        weighted_cases >= 4,
        "too few cases exercised non-uniform weights: {weighted_cases}"
    );
}
