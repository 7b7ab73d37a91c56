//! The anytime contract of budgeted localization, pinned on the paper's
//! TCAS workload: a wall-clock deadline that expires mid-enumeration must
//! come back with a report — never an error, never a hang — whose ranks
//! are a proven prefix of the exact enumeration. And the expiry must leave
//! no residue: re-running unbudgeted on the same (shared, prepared)
//! localizer reproduces the exact report.

use bmc::Spec;
use bugassist::{Budget, Localizer, LocalizerConfig};
use std::time::{Duration, Instant};

/// TCAS v1 plus one failing vector and its golden output.
fn tcas_failing_case() -> (minic::Program, i64, Vec<i64>) {
    let version = siemens::tcas_versions()
        .into_iter()
        .find(|v| v.name == "v1")
        .expect("v1 exists");
    let faulty = version.build(siemens::TCAS_SOURCE);
    let pool = siemens::tcas_test_vectors(120, 2011);
    let interp = siemens::tcas_interp_config();
    let failing = pool
        .iter()
        .find(|input| {
            let golden = siemens::tcas_golden_output(input);
            let outcome = bmc::run_program(&faulty, siemens::TCAS_ENTRY, input, &[], interp);
            outcome.result != Some(golden) || !outcome.is_ok()
        })
        .expect("v1 has a failing vector");
    (
        faulty,
        siemens::tcas_golden_output(failing),
        failing.clone(),
    )
}

fn config() -> LocalizerConfig {
    LocalizerConfig {
        encode: bmc::EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            ..bmc::EncodeConfig::default()
        },
        max_suspect_sets: 4,
        trusted_lines: siemens::tcas_trusted_lines(),
        ..LocalizerConfig::default()
    }
}

#[test]
fn tcas_mid_solve_deadline_yields_a_proven_prefix_or_exact() {
    let (faulty, golden, input) = tcas_failing_case();
    let localizer = Localizer::new(
        &faulty,
        siemens::TCAS_ENTRY,
        &Spec::ReturnEquals(golden),
        &config(),
    )
    .expect("TCAS encodes");

    // `new` prepared the formula, so both runs below are solve-only and the
    // deadline lands inside the enumeration, not the bit-blast.
    let started = Instant::now();
    let exact = localizer.localize(&input).expect("exact run");
    let exact_wall = started.elapsed();
    assert!(exact.complete, "unbudgeted runs are always complete");
    assert!(!exact.suspects.is_empty(), "TCAS v1 has suspects");

    // A deadline at a fifth of the exact solve time: almost certainly cuts
    // the enumeration mid-flight. (If this machine races through anyway,
    // the contract demands the exact report — both arms are pinned.)
    let deadline = (exact_wall / 5).max(Duration::from_millis(1));
    let budgeted = localizer
        .localize_budgeted(&input, Budget::with_timeout(deadline))
        .expect("budget expiry is never an error");

    if budgeted.complete {
        assert_eq!(budgeted.suspects, exact.suspects);
        assert_eq!(budgeted.suspect_lines, exact.suspect_lines);
    } else {
        // A cut run reports a prefix: never more ranks than the exact run.
        assert!(
            budgeted.suspects.len() <= exact.suspects.len(),
            "cut run found {} ranks, exact run {}",
            budgeted.suspects.len(),
            exact.suspects.len()
        );
        // Every reported rank is a proven canonical optimum, so the cut
        // run's ranks equal the exact run's, rank for rank.
        assert_eq!(
            budgeted.suspects,
            exact.suspects[..budgeted.suspects.len()],
            "reported ranks must be prefix-identical to the exact run"
        );
    }

    // No residue: the cut enumeration shares its prepared formula with
    // every later call on this localizer, and an unbudgeted re-run must
    // reproduce the exact report in full.
    let again = localizer
        .localize_budgeted(&input, Budget::UNLIMITED)
        .expect("re-run");
    assert!(again.complete);
    assert_eq!(again.suspects, exact.suspects);
    assert_eq!(again.suspect_lines, exact.suspect_lines);
}
