//! Pruning-soundness property test: over a seeded corpus of random
//! straight-line programs, localizing with `static_prune` on and off must
//! produce *identical* reports (suspects, suspect lines, costs,
//! completeness) while the pruned instance carries strictly fewer soft
//! clauses whenever any line is statically irrelevant — across encoding
//! widths and with the word-level passes on and off. This is the
//! workspace-level pin of the invariant documented on
//! [`bugassist::LocalizerConfig::static_prune`]: a pruned line can never
//! appear in any CoMSS, so pruning may shrink the MAX-SAT instance but
//! never change its answer.

use bmc::{EncodeConfig, InterpConfig, Spec};
use bugassist::{LocalizationReport, Localizer, LocalizerConfig};

/// A random straight-line program over a few variables. Only some of the
/// variables feed the returned one, so most programs have statically
/// irrelevant lines for the prune to find.
fn random_straight_line(rng: &mut prng::SplitMix64, stmts: usize) -> String {
    let vars = ["a", "b", "c", "d"];
    let mut src = String::from("int main(int x, int y) {\n");
    for v in &vars {
        src.push_str(&format!("int {v} = {};\n", rng.gen_range(0i64..8)));
    }
    for _ in 0..stmts {
        let target = vars[rng.gen_range(0usize..vars.len())];
        let pick = |rng: &mut prng::SplitMix64| match rng.gen_range(0usize..6) {
            0 => "x".to_string(),
            1 => "y".to_string(),
            n => vars[n - 2].to_string(),
        };
        let lhs = pick(rng);
        let rhs = pick(rng);
        let op = ["+", "-", "*"][rng.gen_range(0usize..3)];
        src.push_str(&format!("{target} = {lhs} {op} {rhs};\n"));
    }
    let returned = vars[rng.gen_range(0usize..vars.len())];
    src.push_str(&format!("return {returned};\n}}\n"));
    src
}

/// The semantic content of a report: everything except the stats block.
fn semantics(report: &LocalizationReport) -> (Vec<bugassist::Suspect>, Vec<minic::Line>, bool) {
    (
        report.suspects.clone(),
        report.suspect_lines.clone(),
        report.complete,
    )
}

#[test]
fn reports_are_identical_with_pruning_on_and_off() {
    let mut rng = prng::SplitMix64::seed_from_u64(0x9121_03E5);
    let mut total_pruned = 0u64;
    let mut cases = 0usize;
    for round in 0..6 {
        let src = random_straight_line(&mut rng, 5 + (round % 4));
        let program = minic::parse_program(&src).expect("generated program parses");
        let input = vec![rng.gen_range(0i64..16), rng.gen_range(0i64..16)];
        for width in [8usize, 16] {
            // The concrete return value at this width; demanding one more
            // makes `input` a failing test with a real localization answer.
            let outcome = bmc::run_program(
                &program,
                "main",
                &input,
                &[],
                InterpConfig {
                    width,
                    ..InterpConfig::default()
                },
            );
            let Some(actual) = outcome.result else {
                continue;
            };
            let spec = Spec::ReturnEquals(actual + 1);
            for word_passes in [true, false] {
                let config = |static_prune: bool| LocalizerConfig {
                    encode: EncodeConfig {
                        width,
                        word_passes,
                        ..EncodeConfig::default()
                    },
                    static_prune,
                    ..LocalizerConfig::default()
                };
                let on = Localizer::new(&program, "main", &spec, &config(true))
                    .expect("encodes with pruning")
                    .localize(&input)
                    .expect("localizes with pruning");
                let off = Localizer::new(&program, "main", &spec, &config(false))
                    .expect("encodes without pruning")
                    .localize(&input)
                    .expect("localizes without pruning");
                assert_eq!(
                    semantics(&on),
                    semantics(&off),
                    "round {round} width {width} word_passes {word_passes} \
                     diverged on:\n{src}"
                );
                // The instance-size identity: every pruned line was a soft
                // selector the unpruned run still carried.
                assert_eq!(
                    on.stats.soft_clauses + on.stats.lines_pruned as usize,
                    off.stats.soft_clauses,
                    "prune arithmetic broke on:\n{src}"
                );
                assert_eq!(off.stats.lines_pruned, 0, "pruning was off");
                total_pruned += on.stats.lines_pruned;
                cases += 1;
            }
        }
    }
    assert!(cases >= 16, "corpus too small: {cases} cases ran");
    assert!(
        total_pruned > 0,
        "the corpus never exercised the prune: no irrelevant lines found"
    );
}

/// The prune on a real program at the Table 1 configuration (TCAS v1,
/// width 16, unwind 6, trusted input-copy lines, first failing vector): it
/// must harden at least one selector, the instance-size identity must
/// balance, and the report must not change.
#[test]
fn tcas_prune_hardens_selectors_without_changing_the_report() {
    let version = siemens::tcas_versions().into_iter().next().expect("v1");
    let faulty = version.build(siemens::TCAS_SOURCE);
    let interp = siemens::tcas_interp_config();
    let (input, golden) = siemens::tcas_test_vectors(300, 2011)
        .into_iter()
        .find_map(|input| {
            let golden = siemens::tcas_golden_output(&input);
            let outcome = bmc::run_program(&faulty, siemens::TCAS_ENTRY, &input, &[], interp);
            (outcome.result != Some(golden) || !outcome.is_ok()).then_some((input, golden))
        })
        .expect("TCAS v1 has a failing vector");
    let spec = Spec::ReturnEquals(golden);
    let localize = |static_prune: bool| {
        let config = LocalizerConfig {
            encode: EncodeConfig {
                width: 16,
                unwind: 6,
                max_inline_depth: 8,
                ..EncodeConfig::default()
            },
            max_suspect_sets: 4,
            trusted_lines: siemens::tcas_trusted_lines(),
            static_prune,
            ..LocalizerConfig::default()
        };
        Localizer::new(&faulty, siemens::TCAS_ENTRY, &spec, &config)
            .expect("TCAS encodes")
            .localize(&input)
            .expect("TCAS localizes")
    };
    let on = localize(true);
    let off = localize(false);
    assert!(
        on.stats.lines_pruned > 0,
        "static prune hardened no TCAS selectors: {:?}",
        on.stats
    );
    assert_eq!(
        on.stats.soft_clauses + on.stats.lines_pruned as usize,
        off.stats.soft_clauses,
        "prune arithmetic does not balance on TCAS"
    );
    assert_eq!(
        on.suspects, off.suspects,
        "pruning changed the TCAS suspects"
    );
    assert_eq!(on.suspect_lines, off.suspect_lines);
}
