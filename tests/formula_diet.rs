//! Formula-diet equivalence and shrinkage tests: the selector-aware CNF
//! preprocessor must be *semantically invisible* — localization reports
//! pinned identical with it on vs. off — and *measurably effective* — the
//! TCAS trace formula must lose at least a quarter of its hard clauses.

use bmc::{EncodeConfig, Spec};
use bugassist::{Localizer, LocalizerConfig};
use minic::ast::Line;
use sat::{SatResult, Solver};

/// TCAS v1 localizer config with the simplify knob set explicitly.
fn tcas_config(simplify: bool) -> LocalizerConfig {
    LocalizerConfig {
        encode: EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            ..EncodeConfig::default()
        },
        max_suspect_sets: 4,
        trusted_lines: siemens::tcas_trusted_lines(),
        simplify,
        ..LocalizerConfig::default()
    }
}

/// One failing TCAS v1 vector together with its golden output.
fn tcas_failing_case() -> (minic::Program, Vec<i64>, i64) {
    let version = siemens::tcas_versions().into_iter().next().expect("v1");
    let faulty = version.build(siemens::TCAS_SOURCE);
    let interp = siemens::tcas_interp_config();
    for input in siemens::tcas_test_vectors(120, 2011) {
        let golden = siemens::tcas_golden_output(&input);
        let outcome = bmc::run_program(&faulty, siemens::TCAS_ENTRY, &input, &[], interp);
        if outcome.result != Some(golden) || !outcome.is_ok() {
            return (faulty, input, golden);
        }
    }
    panic!("TCAS v1 has failing vectors in the first 120");
}

#[test]
fn tcas_reports_identical_with_and_without_simplification() {
    let (faulty, input, golden) = tcas_failing_case();
    let spec = Spec::ReturnEquals(golden);
    let on = Localizer::new(&faulty, siemens::TCAS_ENTRY, &spec, &tcas_config(true))
        .expect("TCAS encodes");
    let off = Localizer::new(&faulty, siemens::TCAS_ENTRY, &spec, &tcas_config(false))
        .expect("TCAS encodes");
    let simplified = on.localize(&input).expect("localizes");
    let raw = off.localize(&input).expect("localizes");

    // Semantic content byte-identical (stats legitimately differ — that is
    // the whole point of the diet).
    assert_eq!(
        format!("{:?}", simplified.suspects),
        format!("{:?}", raw.suspects)
    );
    assert_eq!(simplified.suspect_lines, raw.suspect_lines);
    assert!(!simplified.suspects.is_empty());

    // Acceptance criterion: >= 25% fewer hard clauses on the TCAS trace
    // formula, and the counters prove the pipeline actually ran.
    let stats = simplified.stats;
    assert!(stats.hard_clauses_pre_simplify > 0);
    assert!(
        stats.hard_clauses * 4 <= stats.hard_clauses_pre_simplify * 3,
        "expected >= 25% hard-clause reduction, got {} -> {}",
        stats.hard_clauses_pre_simplify,
        stats.hard_clauses
    );
    assert!(stats.vars_eliminated > 0);
    // The unsimplified run reports the raw formula and zeroed diet counters
    // (`hard_clauses` additionally counts the per-test units appended on top
    // of the template, so it sits slightly above the template count).
    assert_eq!(raw.stats.vars_eliminated, 0);
    assert_eq!(raw.stats.clauses_subsumed, 0);
    assert!(raw.stats.hard_clauses >= raw.stats.hard_clauses_pre_simplify);
}

/// The encoder folds gates on the TCAS v1 trace formula whichever spec it
/// carries, and the simplifier still eliminates variables from the
/// Assertions-spec encode with only the inputs and the property frozen.
#[test]
fn tcas_encode_folds_gates_under_both_specs() {
    let (faulty, _, golden) = tcas_failing_case();
    for spec in [Spec::ReturnEquals(golden), Spec::Assertions] {
        // Encoded directly: a localizer consumes its trace's grouped CNF.
        let trace = bmc::encode_program(
            &faulty,
            siemens::TCAS_ENTRY,
            &spec,
            &tcas_config(true).encode,
        )
        .expect("TCAS encodes");
        assert!(
            trace.stats.gates_folded > 0,
            "encoder folded no gates on TCAS under {spec:?}"
        );
        if spec == Spec::Assertions {
            let mut frozen: Vec<sat::Var> = vec![trace.property.var()];
            for (_, bv) in &trace.inputs {
                frozen.extend(bv.bits().iter().map(|b| b.var()));
            }
            let simplified = sat::simplify(
                trace.cnf.formula(),
                &frozen,
                &sat::SimplifyConfig::default(),
            );
            assert!(simplified.stats.vars_eliminated > 0);
        }
    }
}

/// The Siemens fault programs (worked examples included): simplification on
/// vs. off must pin byte-identical suspect sets on a real failing input.
#[test]
fn siemens_fault_programs_pin_simplified_reports() {
    // tot_info is deliberately absent: its unreduced encode is ~1.2M clauses
    // (the simplifier degrades to unit propagation there by design, see
    // `SimplifyConfig::max_clauses`) and a debug-mode localization of it
    // would dominate the whole suite.
    for benchmark in [
        siemens::printtokens(),
        siemens::schedule_small(),
        siemens::schedule2(),
    ] {
        let failing = benchmark.failing_inputs();
        let Some(input) = failing.first() else {
            panic!("{} has no failing inputs", benchmark.name);
        };
        let golden = benchmark
            .golden_output(input)
            .expect("failing input has a golden output");
        let faulty = benchmark.faulty_program();
        let base = LocalizerConfig {
            encode: EncodeConfig {
                width: benchmark.width,
                unwind: benchmark.unwind,
                max_inline_depth: 8,
                concretize: benchmark.concretize.clone(),
                ..EncodeConfig::default()
            },
            max_suspect_sets: 4,
            trusted_lines: benchmark.trusted_lines.clone(),
            ..LocalizerConfig::default()
        };
        let mut raw_config = base.clone();
        raw_config.simplify = false;
        let spec = Spec::ReturnEquals(golden);
        let on = Localizer::new(&faulty, benchmark.entry, &spec, &base).expect("encodes");
        let off = Localizer::new(&faulty, benchmark.entry, &spec, &raw_config).expect("encodes");
        let simplified = on.localize(input).expect("localizes");
        let plain = off.localize(input).expect("localizes");
        assert_eq!(
            format!("{:?}", simplified.suspects),
            format!("{:?}", plain.suspects),
            "suspects diverged on {}",
            benchmark.name
        );
        assert_eq!(
            simplified.suspect_lines, plain.suspect_lines,
            "suspect lines diverged on {}",
            benchmark.name
        );
        assert!(
            simplified.stats.hard_clauses < plain.stats.hard_clauses,
            "no shrinkage on {}",
            benchmark.name
        );
    }
}

/// Counterexample decoding through the reconstruction map: simplify a trace
/// formula with only the inputs and the property frozen, find a violating
/// model of the *simplified* formula, extend it, and check that the decoded
/// input (a) satisfies the original formula's model semantics and (b) really
/// fails when executed concretely.
#[test]
fn counterexamples_decode_through_the_reconstruction_map() {
    let program = minic::parse_program(
        "int main(int x) {\nint y = x * 3 + 1;\nassert(y != 22);\nreturn y;\n}",
    )
    .unwrap();
    let encode = EncodeConfig {
        width: 8,
        ..EncodeConfig::default()
    };
    let trace = bmc::encode_program(&program, "main", &Spec::Assertions, &encode).unwrap();
    let mut frozen: Vec<sat::Var> = vec![trace.property.var()];
    for (_, bv) in &trace.inputs {
        frozen.extend(bv.bits().iter().map(|b| b.var()));
    }
    let simplified = sat::simplify(
        trace.cnf.formula(),
        &frozen,
        &sat::SimplifyConfig::default(),
    );
    assert!(!simplified.unsat);
    assert!(simplified.stats.vars_eliminated > 0);

    let mut solver = Solver::from_formula(&simplified.cnf);
    assert_eq!(solver.solve_assuming(&[!trace.property]), SatResult::Sat);
    let mut model = solver.model();
    model.resize(trace.cnf.num_vars(), false);
    simplified.reconstruction.extend(&mut model);
    // The extended model satisfies the *original* bit-blasted formula.
    assert!(trace.cnf.formula().eval(&model));
    // And the decoded counterexample is real: x = 7 makes y = 22.
    let inputs = trace.inputs_from_model(&model);
    assert_eq!(inputs, vec![7]);
    let outcome = bmc::run_program(
        &program,
        "main",
        &inputs,
        &[],
        bmc::InterpConfig {
            width: 8,
            ..bmc::InterpConfig::default()
        },
    );
    assert!(!outcome.is_ok(), "decoded input must violate the assertion");
}

/// The motivating example still blames the paper's two fix points through
/// the full diet (cache + preprocessing), and the revise
/// (relabel) path carries the diet counters over unchanged.
#[test]
fn motivating_example_survives_the_full_diet() {
    let src = "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}";
    let program = minic::parse_program(src).unwrap();
    let config = LocalizerConfig {
        encode: EncodeConfig {
            width: 8,
            ..EncodeConfig::default()
        },
        ..LocalizerConfig::default()
    };
    let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config).unwrap();
    let report = localizer.localize(&[1]).unwrap();
    assert!(report.blames_line(Line(6)));
    assert!(report.blames_line(Line(3)));
    assert!(report.stats.vars_eliminated > 0);

    // A pure line shift reuses the prepared (already simplified) formula:
    // same diet counters, shifted blame.
    let shifted_src = "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\n\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}";
    let shifted = minic::parse_program(shifted_src).unwrap();
    let (revised, delta) = localizer
        .reprepare(&program, &shifted, "testme", &Spec::Assertions, &config)
        .unwrap();
    assert!(delta.reused());
    let after = revised.localize(&[1]).unwrap();
    assert!(after.blames_line(Line(7)));
    assert_eq!(after.stats.vars_eliminated, report.stats.vars_eliminated);
    assert_eq!(after.stats.clauses_subsumed, report.stats.clauses_subsumed);
    assert_eq!(after.stats.hard_clauses, report.stats.hard_clauses);
}

/// FNV-1a over the simplifier's whole output except its timing: the
/// simplified clause list, the `ModelReconstruction::encode` bytes and the
/// `SimplifyStats` counters.
fn simplify_fingerprint(simplified: &sat::Simplified) -> u64 {
    let mut w = sat::bytes::ByteWriter::new();
    simplified.cnf.encode(&mut w);
    simplified.reconstruction.encode(&mut w);
    simplified.stats.encode(&mut w);
    w.into_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Runs `sat::simplify` on the unsimplified template of `program`, freezing
/// what the localizer freezes (selectors, input bits, property), and
/// returns `(clauses after, vars eliminated, fingerprint)`.
fn pinned_simplify(
    program: &minic::Program,
    entry: &str,
    golden: i64,
    config: LocalizerConfig,
) -> (usize, u64, u64) {
    let raw = Localizer::new(
        program,
        entry,
        &Spec::ReturnEquals(golden),
        &LocalizerConfig {
            simplify: false,
            ..config
        },
    )
    .expect("encodes");
    let template = raw.export_prepared().expect("warm");
    let mut frozen: Vec<sat::Var> = template.selector_lits().map(|l| l.var()).collect();
    for (_, bits) in &raw.trace().inputs {
        frozen.extend(bits.bits().iter().map(|b| b.var()));
    }
    frozen.push(raw.trace().property.var());
    let simplified = sat::simplify(template.hard(), &frozen, &sat::SimplifyConfig::default());
    (
        simplified.stats.clauses_after,
        simplified.stats.vars_eliminated,
        simplify_fingerprint(&simplified),
    )
}

/// The simplifier's output is pinned bit for bit on real trace formulas:
/// reports, the warm solve path and persisted store records all depend on
/// it, so a faster simplifier must reproduce it exactly.
#[test]
fn simplified_trace_formulas_are_pinned() {
    let mut seen = Vec::new();
    let interp = siemens::tcas_interp_config();
    let vectors = siemens::tcas_test_vectors(400, 2011);
    for version in siemens::tcas_versions() {
        if !["v1", "v10", "v20"].contains(&version.name) {
            continue;
        }
        let faulty = version.build(siemens::TCAS_SOURCE);
        let golden = vectors
            .iter()
            .find_map(|input| {
                let golden = siemens::tcas_golden_output(input);
                let outcome = bmc::run_program(&faulty, siemens::TCAS_ENTRY, input, &[], interp);
                (outcome.result != Some(golden) || !outcome.is_ok()).then_some(golden)
            })
            .expect("failing vector");
        let pinned = pinned_simplify(&faulty, siemens::TCAS_ENTRY, golden, tcas_config(false));
        seen.push((version.name, pinned));
    }
    for benchmark in [
        siemens::printtokens(),
        siemens::schedule_small(),
        siemens::schedule2(),
    ] {
        let input = benchmark
            .failing_inputs()
            .into_iter()
            .next()
            .expect("fails");
        let golden = benchmark.golden_output(&input).expect("golden");
        let config = LocalizerConfig {
            encode: EncodeConfig {
                width: benchmark.width,
                unwind: benchmark.unwind,
                max_inline_depth: 16,
                concretize: benchmark.concretize.clone(),
                ..EncodeConfig::default()
            },
            trusted_lines: benchmark.trusted_lines.clone(),
            ..LocalizerConfig::default()
        };
        let pinned = pinned_simplify(&benchmark.faulty_program(), benchmark.entry, golden, config);
        seen.push((benchmark.name, pinned));
    }
    // (name, (clauses after, vars eliminated, fingerprint))
    let expected: &[(&str, (usize, u64, u64))] = &[
        ("v1", (2148, 2335, 0xa6b0d48c2fceff71)),
        ("v10", (2139, 2327, 0x64e53e1ced003e6b)),
        ("v20", (2202, 2363, 0x7c52668b64a427a2)),
        ("print_tokens", (19348, 8313, 0x9ec025a1cd0b56ef)),
        ("schedule", (13816, 3712, 0xa852828c1ea56d46)),
        ("schedule2", (61078, 22047, 0xb4386adb8da31e2f)),
    ];
    assert_eq!(seen, expected);
}
