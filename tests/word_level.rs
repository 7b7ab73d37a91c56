//! Word-level IR equivalence and shrinkage tests: the pre-bit-blast passes
//! (constant folding, ite flattening, cross-frame CSE, interval narrowing)
//! must be *semantically invisible* — localization reports pinned identical
//! with the passes on vs. off, randomized circuits bit-identical to the
//! concrete word-level evaluator — and *measurably effective* — the TCAS
//! trace formula must emit at least a quarter fewer gates before any CNF
//! machinery runs.

use bitblast::word::{NodeId, WordBuilder, WordConfig};
use bmc::{EncodeConfig, Spec};
use bugassist::{Localizer, LocalizerConfig};
use minic::ast::Line;
use prng::SplitMix64;
use sat::{SatResult, Solver};

/// TCAS v1 localizer config with the word-level knob set explicitly.
fn tcas_config(word_passes: bool) -> LocalizerConfig {
    LocalizerConfig {
        encode: EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            word_passes,
            ..EncodeConfig::default()
        },
        max_suspect_sets: 4,
        trusted_lines: siemens::tcas_trusted_lines(),
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
fn tcas_reports_identical_with_and_without_word_passes() {
    let (faulty, input, golden) = tcas_failing_case();
    let spec = Spec::ReturnEquals(golden);
    let on = Localizer::new(&faulty, siemens::TCAS_ENTRY, &spec, &tcas_config(true))
        .expect("TCAS encodes");
    let off = Localizer::new(&faulty, siemens::TCAS_ENTRY, &spec, &tcas_config(false))
        .expect("TCAS encodes");
    let with_passes = on.localize(&input).expect("localizes");
    let without = off.localize(&input).expect("localizes");

    // Semantic content byte-identical (stats legitimately differ — that is
    // the whole point of the word-level diet).
    assert_eq!(
        format!("{:?}", with_passes.suspects),
        format!("{:?}", without.suspects)
    );
    assert_eq!(with_passes.suspect_lines, without.suspect_lines);
    assert!(!with_passes.suspects.is_empty());

    // Acceptance criterion: >= 25% fewer gates emitted *before* any CNF
    // machinery runs, and the counters prove the passes actually fired.
    let on_stats = on.trace().stats;
    let off_stats = off.trace().stats;
    assert!(
        on_stats.gates_emitted * 4 <= off_stats.gates_emitted * 3,
        "expected >= 25% fewer gates with the word-level passes, got {} -> {}",
        off_stats.gates_emitted,
        on_stats.gates_emitted
    );
    assert!(on_stats.word_nodes > 0);
    assert!(on_stats.word_nodes_folded > 0);
    assert!(on_stats.word_cse_hits > 0);
    assert!(on_stats.bits_narrowed > 0);
    // The reference encoding reports dead pass counters.
    assert_eq!(off_stats.word_nodes_folded, 0);
    assert_eq!(off_stats.word_cse_hits, 0);
    assert_eq!(off_stats.bits_narrowed, 0);
    // And the reports surface the counters for the service/bench layers.
    assert_eq!(
        with_passes.stats.word_nodes_folded,
        on_stats.word_nodes_folded
    );
    assert_eq!(with_passes.stats.bits_narrowed, on_stats.bits_narrowed);
}

/// The Siemens fault programs (worked examples included): word passes on vs.
/// off must pin byte-identical suspect sets on a real failing input.
#[test]
fn siemens_fault_programs_pin_word_level_reports() {
    // tot_info is deliberately absent for the same reason as in
    // tests/formula_diet.rs: its unreduced encode would dominate the suite.
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
        let mut off_config = base.clone();
        off_config.encode.word_passes = false;
        let spec = Spec::ReturnEquals(golden);
        let on = Localizer::new(&faulty, benchmark.entry, &spec, &base).expect("encodes");
        let off = Localizer::new(&faulty, benchmark.entry, &spec, &off_config).expect("encodes");
        let with_passes = on.localize(input).expect("localizes");
        let without = off.localize(input).expect("localizes");
        assert_eq!(
            format!("{:?}", with_passes.suspects),
            format!("{:?}", without.suspects),
            "suspects diverged on {}",
            benchmark.name
        );
        assert_eq!(
            with_passes.suspect_lines, without.suspect_lines,
            "suspect lines diverged on {}",
            benchmark.name
        );
        assert!(
            on.trace().stats.gates_emitted < off.trace().stats.gates_emitted,
            "no pre-bit-blast shrinkage on {}",
            benchmark.name
        );
    }
}

/// The motivating example blames the paper's two fix points with the passes
/// on, and the revise (relabel) path carries the word counters unchanged —
/// this is the same reuse machinery the service's `revise` op drives.
#[test]
fn motivating_example_and_revise_path_with_word_passes() {
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
    assert!(report.stats.word_nodes > 0);

    // The word-pass-off oracle agrees on the blame set.
    let mut off_config = config.clone();
    off_config.encode.word_passes = false;
    let oracle = Localizer::new(&program, "testme", &Spec::Assertions, &off_config).unwrap();
    let off_report = oracle.localize(&[1]).unwrap();
    assert_eq!(
        format!("{:?}", report.suspects),
        format!("{:?}", off_report.suspects)
    );

    // A pure line shift reuses the prepared word-level encoding: same
    // counters, shifted blame.
    let shifted_src = "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\n\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}";
    let shifted = minic::parse_program(shifted_src).unwrap();
    let (revised, delta) = localizer
        .reprepare(&program, &shifted, "testme", &Spec::Assertions, &config)
        .unwrap();
    assert!(delta.reused());
    let after = revised.localize(&[1]).unwrap();
    assert!(after.blames_line(Line(7)));
    assert_eq!(after.stats.word_nodes, report.stats.word_nodes);
    assert_eq!(
        after.stats.word_nodes_folded,
        report.stats.word_nodes_folded
    );
    assert_eq!(after.stats.word_cse_hits, report.stats.word_cse_hits);
    assert_eq!(after.stats.bits_narrowed, report.stats.bits_narrowed);
}

const RAND_WIDTH: usize = 7;

/// Grows a random boolean node. Mirrors [`gen_bv`]; both must consume the
/// same randomness for every configuration so that each [`WordConfig`]
/// builds the *same* tree.
fn gen_bool(b: &mut WordBuilder, rng: &mut SplitMix64, inputs: &[NodeId], depth: usize) -> NodeId {
    if depth == 0 {
        return if rng.gen_range(0..2usize) == 0 {
            b.tru()
        } else {
            b.fls()
        };
    }
    match rng.gen_range(0..6usize) {
        0 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.eq(x, y)
        }
        1 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.slt(x, y)
        }
        2 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.ult(x, y)
        }
        3 => {
            let x = gen_bool(b, rng, inputs, depth - 1);
            b.not(x)
        }
        4 => {
            let x = gen_bool(b, rng, inputs, depth - 1);
            let y = gen_bool(b, rng, inputs, depth - 1);
            b.and(x, y)
        }
        _ => {
            let x = gen_bool(b, rng, inputs, depth - 1);
            let y = gen_bool(b, rng, inputs, depth - 1);
            b.or(x, y)
        }
    }
}

/// Grows a random bit-vector node, deliberately biased toward the shapes the
/// passes rewrite: constant subtrees (folding), ite chains with constant
/// arms (flattening + narrowing), repeated subtrees (CSE).
fn gen_bv(b: &mut WordBuilder, rng: &mut SplitMix64, inputs: &[NodeId], depth: usize) -> NodeId {
    if depth == 0 || rng.gen_range(0..10usize) < 2 {
        return if rng.gen_range(0..3usize) == 0 {
            let v: i64 = rng.gen_range(-40..=40);
            b.const_bv(v)
        } else {
            inputs[rng.gen_range(0..inputs.len())]
        };
    }
    match rng.gen_range(0..13usize) {
        0 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.add(x, y)
        }
        1 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.sub(x, y)
        }
        2 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.mul(x, y)
        }
        3 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.bitand(x, y)
        }
        4 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.bitxor(x, y)
        }
        5 => {
            let c = gen_bool(b, rng, inputs, depth - 1);
            let t = gen_bv(b, rng, inputs, depth - 1);
            let e = gen_bv(b, rng, inputs, depth - 1);
            b.ite(c, t, e)
        }
        6 => {
            // Constant-armed selection: interval-narrowing fodder.
            let c = gen_bool(b, rng, inputs, depth - 1);
            let tv: i64 = rng.gen_range(0..=5);
            let ev: i64 = rng.gen_range(0..=5);
            let t = b.const_bv(tv);
            let e = b.const_bv(ev);
            b.ite(c, t, e)
        }
        7 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            b.neg(x)
        }
        8 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            b.bitnot(x)
        }
        9 => {
            // Repeated subtree: CSE fodder.
            let x = gen_bv(b, rng, inputs, depth - 1);
            b.add(x, x)
        }
        10 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.sdiv(x, y)
        }
        11 => {
            let x = gen_bv(b, rng, inputs, depth - 1);
            let y = gen_bv(b, rng, inputs, depth - 1);
            b.udiv(x, y)
        }
        _ => {
            let c = gen_bool(b, rng, inputs, depth - 1);
            let v = b.bool_to_bv(c);
            let x = gen_bv(b, rng, inputs, depth - 1);
            b.add(x, v)
        }
    }
}

/// Seeded randomized equivalence, one configuration per pass: for each pass
/// enabled in isolation (plus all-on and all-off), the same random word tree
/// must bit-blast to a circuit whose solver-computed outputs agree with the
/// pass-independent concrete evaluator on sampled inputs.
#[test]
fn randomized_circuits_agree_with_the_evaluator_under_every_pass() {
    let configs: [(&str, WordConfig); 6] = [
        ("off", WordConfig::off()),
        (
            "fold",
            WordConfig {
                fold: true,
                ..WordConfig::off()
            },
        ),
        (
            "flatten",
            WordConfig {
                flatten: true,
                ..WordConfig::off()
            },
        ),
        (
            "cse",
            WordConfig {
                cse: true,
                ..WordConfig::off()
            },
        ),
        (
            "narrow",
            WordConfig {
                narrow: true,
                ..WordConfig::off()
            },
        ),
        ("all", WordConfig::all()),
    ];
    for tree_seed in 0..24u64 {
        for (label, config) in &configs {
            // Re-seed per configuration: every config grows the same tree.
            let mut rng = SplitMix64::seed_from_u64(0xB06_A551 + tree_seed);
            let mut b = WordBuilder::new(RAND_WIDTH, *config);
            let inputs: Vec<NodeId> = (0..2).map(|_| b.input()).collect();
            let root = gen_bv(&mut b, &mut rng, &inputs, 4);
            let dag = b.into_dag();

            let mut enc = bitblast::Encoder::new(RAND_WIDTH);
            let mut roots = inputs.clone();
            roots.push(root);
            let lowered = dag.lower(&mut enc, &roots, true, config.narrow);
            let root_bv = lowered.bv(root).clone();
            let input_bvs: Vec<bitblast::BitVec> =
                inputs.iter().map(|&i| lowered.bv(i).clone()).collect();
            let mut solver = Solver::from_formula(enc.cnf().formula());

            for sample in 0..4 {
                let values: Vec<i64> = (0..2)
                    .map(|k| {
                        let mut vrng =
                            SplitMix64::seed_from_u64(tree_seed * 1000 + sample * 10 + k);
                        vrng.gen_range(-40..=40)
                    })
                    .collect();
                let expected = dag.eval(root, &values);
                let mut assumptions = Vec::new();
                for (bv, &value) in input_bvs.iter().zip(&values) {
                    for (i, &bit) in bv.bits().iter().enumerate() {
                        assumptions.push(bit.apply_sign(value >> i & 1 == 1));
                    }
                }
                assert_eq!(
                    solver.solve_assuming(&assumptions),
                    SatResult::Sat,
                    "tree {tree_seed} under {label} unsatisfiable"
                );
                let got = bitblast::Encoder::bv_value(&solver.model(), &root_bv);
                assert_eq!(
                    got, expected,
                    "tree {tree_seed} under {label} diverges on {values:?}"
                );
            }
        }
    }
}

/// Interval narrowing must survive CNF preprocessing and model
/// reconstruction: find a counterexample on the simplified formula of a
/// narrowing-heavy program, extend the model, and check it decodes to a real
/// failing input of the original program.
#[test]
fn narrowed_encodings_decode_through_extend_model() {
    let program = minic::parse_program(
        "int main(int x) {\nint r = 0;\nif (x > 0) {\nr = 1;\n} else {\nr = 2;\n}\nint s = (x < 5 ? 3 : 4) + r;\nassert(s != 5);\nreturn s;\n}",
    )
    .unwrap();
    let encode = EncodeConfig {
        width: 8,
        ..EncodeConfig::default()
    };
    let trace = bmc::encode_program(&program, "main", &Spec::Assertions, &encode).unwrap();
    assert!(
        trace.stats.bits_narrowed > 0,
        "the constant-armed selections must narrow: {:?}",
        trace.stats
    );

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

    let mut solver = Solver::from_formula(&simplified.cnf);
    assert_eq!(solver.solve_assuming(&[!trace.property]), SatResult::Sat);
    let mut model = solver.model();
    model.resize(trace.cnf.num_vars(), false);
    simplified.reconstruction.extend(&mut model);
    // The extended model satisfies the original bit-blasted formula, and the
    // decoded input really fails concretely (x <= 0 gives s = 3 + 2 = 5;
    // x >= 5 gives s = 4 + 1 = 5).
    assert!(trace.cnf.formula().eval(&model));
    let inputs = trace.inputs_from_model(&model);
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
    assert!(
        !outcome.is_ok(),
        "decoded input {inputs:?} must violate the assertion"
    );
}

/// The word-level trace formula of the paper's running example evaluates
/// its bounds-check property to false exactly on the paper's failing input.
#[test]
fn trace_formula_property_fails_exactly_at_the_papers_input() {
    let src = "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}";
    let program = minic::parse_program(src).unwrap();
    let config = EncodeConfig {
        width: 8,
        ..EncodeConfig::default()
    };
    let wt = bmc::word_trace(&program, "testme", &Spec::Assertions, &config).unwrap();
    for index in [-3i64, 0, 1, 2, 5] {
        let holds = wt.dag.eval(wt.property, &[index]) != 0;
        assert_eq!(holds, index != 1, "property wrong at {index}");
    }
}
