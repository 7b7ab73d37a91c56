//! End-to-end integration test of experiment E1: the paper's motivating
//! example (Program 1, Sec. 2), from source text through BMC counterexample
//! generation, MAX-SAT localization, baseline comparison and repair.

use bmc::{EncodeConfig, SliceCriterion, Spec};
use bugassist::{Granularity, Localizer, LocalizerConfig, RepairConfig, RepairKind};
use minic::ast::Line;

const SOURCE: &str = "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}";

fn encode_config() -> EncodeConfig {
    EncodeConfig {
        width: 8,
        ..EncodeConfig::default()
    }
}

#[test]
fn bmc_finds_the_paper_failing_input() {
    let program = minic::parse_program(SOURCE).unwrap();
    let failing = bmc::find_failing_input(&program, "testme", &Spec::Assertions, &encode_config())
        .unwrap()
        .expect("the motivating example has a bug");
    // The only failing input is index = 1 (every other value takes the safe
    // branch).
    assert_eq!(failing, vec![1]);
}

/// Line and statement-instance selectors agree on this loop-free program.
#[test]
fn localization_reports_the_papers_two_fix_points() {
    let program = minic::parse_program(SOURCE).unwrap();
    for granularity in [Granularity::Line, Granularity::StatementInstance] {
        let config = LocalizerConfig {
            encode: encode_config(),
            granularity,
            ..LocalizerConfig::default()
        };
        let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config).unwrap();
        let report = localizer.localize(&[1]).unwrap();
        // The paper reports the faulty constant (our line 6) and the branch
        // condition (our line 3) as the two repair points.
        assert!(report.blames_line(Line(6)), "{granularity:?}");
        assert!(report.blames_line(Line(3)), "{granularity:?}");
        // Every reported CoMSS here is a single statement.
        assert!(report.suspects.iter().all(|s| s.lines.len() == 1));
        // And the first (minimum-cost) one has cost 1.
        assert_eq!(report.suspects[0].cost, 1);
    }
}

#[test]
fn localization_is_finer_than_the_backward_slice() {
    let program = minic::parse_program(SOURCE).unwrap();
    let config = LocalizerConfig {
        encode: encode_config(),
        ..LocalizerConfig::default()
    };
    let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config).unwrap();
    let report = localizer.localize(&[1]).unwrap();
    let slice = baselines::slice_localizer(&program, "testme", SliceCriterion::Assertions);
    // The paper's Sec. 2 claim: the CoMSS view separates individual repair
    // points, while the slice lumps the whole dependence cone together; the
    // suspect set is never larger than the slice on this example.
    assert!(report.suspect_lines.len() <= slice.len());
    // Each enumerated CoMSS is a strict subset of the slice-sized blob.
    assert!(report.suspects.iter().all(|s| s.lines.len() < slice.len()));
}

#[test]
fn off_by_one_repair_fixes_the_faulty_constant() {
    let program = minic::parse_program(SOURCE).unwrap();
    let config = RepairConfig {
        localizer: LocalizerConfig {
            encode: encode_config(),
            ..LocalizerConfig::default()
        },
        kinds: vec![RepairKind::OffByOne],
        validate_with_bmc: false,
        max_repairs: 0,
    };
    let repairs =
        bugassist::suggest_repairs(&program, "testme", &Spec::Assertions, &[vec![1]], &config)
            .unwrap();
    // `index = index + 2` can be repaired to `index + 1` (the paper suggests
    // any constant in (-2, 2); ±1 both keep the access in bounds for the
    // failing test).
    assert!(
        repairs.iter().any(|r| r.line == Line(6)),
        "repairs: {:?}",
        repairs.iter().map(|r| r.to_string()).collect::<Vec<_>>()
    );
}
