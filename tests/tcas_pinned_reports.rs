//! Pinned TCAS reports: the full suspect list (rank, cost, lines) of the
//! first failing vector of TCAS v1, v10 and v20, at the Table 1
//! configuration (pool of 300 vectors from seed 2011, 24 suspect sets,
//! 16-bit words, 6 unwindings).
//!
//! The other TCAS regressions compare paths that share the canonical
//! refinement, so a refinement that is consistently wrong would pass them.
//! These expectations are absolute: any change to the canonical CoMSS, the
//! enumeration order or the costs shows up here.

use bmc::{EncodeConfig, Spec};
use bugassist::{LocalizationReport, Localizer, LocalizerConfig};

fn table1_config() -> LocalizerConfig {
    LocalizerConfig {
        encode: EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            concretize: Vec::new(),
            ..EncodeConfig::default()
        },
        max_suspect_sets: 24,
        trusted_lines: siemens::tcas_trusted_lines(),
        ..LocalizerConfig::default()
    }
}

/// One line per suspect: `rank cost: line line ...`.
fn render(report: &LocalizationReport) -> String {
    report
        .suspects
        .iter()
        .map(|s| {
            let lines: Vec<String> = s.lines.iter().map(|l| l.0.to_string()).collect();
            format!("{} {}: {}\n", s.rank, s.cost, lines.join(" "))
        })
        .collect()
}

/// Localizes the first failing vector of `version` in the Table 1 pool.
fn localize_first_failing(version: &str) -> String {
    let version = siemens::tcas_versions()
        .into_iter()
        .find(|v| v.name == version)
        .expect("version exists");
    let faulty = version.build(siemens::TCAS_SOURCE);
    let interp = siemens::tcas_interp_config();
    let failing = siemens::tcas_test_vectors(300, 2011)
        .into_iter()
        .find(|input| {
            let golden = siemens::tcas_golden_output(input);
            let outcome = bmc::run_program(&faulty, siemens::TCAS_ENTRY, input, &[], interp);
            !outcome.is_ok() || outcome.result != Some(golden)
        })
        .expect("version has a failing vector");
    let spec = Spec::ReturnEquals(siemens::tcas_golden_output(&failing));
    let localizer = Localizer::new(&faulty, siemens::TCAS_ENTRY, &spec, &table1_config())
        .expect("TCAS encodes");
    render(&localizer.localize(&failing).expect("localization succeeds"))
}

fn check(version: &str, expected: &str) {
    let got = localize_first_failing(version);
    assert_eq!(got, expected, "{version}:\n{got}");
}

#[test]
fn tcas_v1_report_is_pinned() {
    check("v1", V1);
}

#[test]
fn tcas_v10_report_is_pinned() {
    check("v10", V10);
}

#[test]
fn tcas_v20_report_is_pinned() {
    check("v20", V20);
}

const V1: &str = "\
0 1: 77
1 1: 72
2 1: 70
3 1: 67
4 1: 66
5 1: 63
6 1: 62
7 1: 61
8 1: 60
9 1: 56
10 1: 54
11 1: 41
12 1: 39
13 1: 37
14 1: 36
15 1: 34
16 1: 28
17 1: 25
18 1: 22
19 1: 18
20 1: 17
21 1: 16
22 1: 15
23 2: 31 51
";

const V10: &str = "\
0 1: 77
1 1: 72
2 1: 70
3 1: 67
4 1: 64
5 1: 60
6 1: 57
7 1: 54
";

const V20: &str = "\
0 1: 77
1 1: 72
2 1: 66
3 1: 61
4 1: 54
5 1: 41
6 1: 39
7 1: 37
8 1: 28
9 1: 22
10 1: 18
11 1: 17
12 1: 16
13 1: 15
14 2: 69 70
15 1: 63
16 1: 62
17 1: 60
18 1: 31
19 2: 55 56
";
