//! Seeded property sweep of `sat::simplify` on Tseitin-shaped formulas:
//! AND/XOR/ITE/wide-OR gate chains over frozen "input" variables, with
//! every gate's clauses relaxed by a frozen "selector" the way the
//! localizer relaxes statement clauses. Under random assumptions on frozen
//! variables the simplified formula must agree with the original on
//! satisfiability, and its models, extended through the reconstruction
//! map, must satisfy the original. The formulas are big enough (40–300
//! variables) to reach later passes, the occurrence bound and the
//! resolvent-length bound, which the sweep checks it does.

use prng::SplitMix64;
use sat::{simplify, CnfFormula, Lit, SatResult, SimplifyConfig, Solver, Var};

/// Seed of both sweeps (the long one covers the short one's formulas).
const SEED: u64 = 0x5EED_51F7;

/// One generated trace-shaped formula and the variables the caller would
/// freeze (inputs, selectors, the property output).
struct Trace {
    cnf: CnfFormula,
    frozen: Vec<Var>,
}

/// Builds a gate chain over 4–16 inputs with 36–140 gates. Operands favour
/// recent nodes (chains) but sometimes reach back to old ones, so a few
/// nodes get the high fan-out that trips the occurrence bound; rare wide
/// ORs produce resolvents longer than the resolvent-length bound.
fn trace_formula(rng: &mut SplitMix64) -> Trace {
    let num_inputs = rng.gen_range(4..=16);
    let num_gates = rng.gen_range(36..=140);
    let mut cnf = CnfFormula::with_vars(num_inputs);
    let mut frozen: Vec<Var> = (0..num_inputs).map(Var::from_index).collect();
    let mut nodes: Vec<Lit> = frozen.iter().map(|v| v.positive()).collect();
    for _ in 0..num_gates {
        let operand = |rng: &mut SplitMix64| {
            let index = if rng.gen_bool(0.7) {
                nodes.len() - 1 - rng.gen_range(0..nodes.len().min(6))
            } else {
                rng.gen_range(0..nodes.len())
            };
            nodes[index].apply_sign(rng.gen_bool(0.5))
        };
        let (a, b, c) = (operand(rng), operand(rng), operand(rng));
        // Wide gates read distinct nodes, like an n-ary AND/OR over bits.
        let mut wide: Vec<Lit> = Vec::new();
        for _ in 0..rng.gen_range(8..=40) {
            let lit = nodes[rng.gen_range(0..nodes.len())];
            if !wide.iter().any(|l| l.var() == lit.var()) {
                wide.push(lit.apply_sign(rng.gen_bool(0.5)));
            }
        }
        let out = cnf.new_var().positive();
        let mut clauses: Vec<Vec<Lit>> = match rng.gen_range(0..20) {
            0..=6 => vec![vec![!out, a], vec![!out, b], vec![out, !a, !b]],
            7..=11 => vec![
                vec![!out, a, b],
                vec![!out, !a, !b],
                vec![out, !a, b],
                vec![out, a, !b],
            ],
            12..=17 => vec![
                vec![!out, !a, b],
                vec![!out, a, c],
                vec![out, !a, !b],
                vec![out, a, !c],
            ],
            _ => {
                let mut any = wide.clone();
                any.push(!out);
                let mut clauses: Vec<Vec<Lit>> = wide.iter().map(|&l| vec![out, !l]).collect();
                clauses.push(any);
                clauses
            }
        };
        // Half the gates are "statements": relaxed by a fresh selector.
        if rng.gen_bool(0.5) {
            let selector = cnf.new_var();
            frozen.push(selector);
            for clause in &mut clauses {
                clause.push(selector.negative());
            }
        }
        let dangling = clauses.len() > 4 && rng.gen_bool(0.5);
        for clause in clauses {
            cnf.add_clause(clause);
        }
        if !dangling {
            nodes.push(out);
        }
    }
    frozen.push(nodes[nodes.len() - 1].var());
    Trace { cnf, frozen }
}

/// Checks one formula under `rounds` random assumption sets.
fn check(trace: &Trace, rng: &mut SplitMix64, rounds: usize) {
    let simplified = simplify(&trace.cnf, &trace.frozen, &SimplifyConfig::default());
    let mut original = Solver::from_formula(&trace.cnf);
    let mut shrunk = Solver::from_formula(&simplified.cnf);
    for _ in 0..rounds {
        let mut assumptions = Vec::new();
        for var in &trace.frozen {
            if rng.gen_bool(0.3) {
                assumptions.push(var.lit(rng.gen_bool(0.5)));
            }
        }
        let expected = original.solve_assuming(&assumptions);
        let got = shrunk.solve_assuming(&assumptions);
        assert_eq!(
            got, expected,
            "satisfiability changed under {assumptions:?}"
        );
        if got != SatResult::Sat {
            continue;
        }
        let mut model = shrunk.model();
        model.resize(trace.cnf.num_vars(), false);
        simplified.reconstruction.extend(&mut model);
        assert!(
            trace.cnf.eval(&model),
            "extended model violates the original formula"
        );
        for lit in &assumptions {
            assert_eq!(model[lit.var().index()], lit.is_positive(), "{lit:?}");
        }
    }
}

/// Whether `config` simplifies `trace` differently from the defaults.
fn differs(trace: &Trace, config: SimplifyConfig) -> bool {
    let default = simplify(&trace.cnf, &trace.frozen, &SimplifyConfig::default());
    simplify(&trace.cnf, &trace.frozen, &config).cnf != default.cnf
}

/// Runs the sweep over `formulas` seeded formulas; returns how many of them
/// reached a second pass, the occurrence bound and the resolvent-length
/// bound (each detected as a change of output when that limit is lifted).
fn sweep(seed: u64, formulas: usize) -> [usize; 3] {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut reached = [0; 3];
    for _ in 0..formulas {
        let trace = trace_formula(&mut rng);
        let vars = trace.cnf.num_vars();
        assert!((40..=300).contains(&vars), "{vars} vars");
        check(&trace, &mut rng, 6);
        let limits = [
            SimplifyConfig {
                max_passes: 1,
                ..SimplifyConfig::default()
            },
            SimplifyConfig {
                max_var_occurrences: usize::MAX,
                ..SimplifyConfig::default()
            },
            SimplifyConfig {
                max_resolvent_len: usize::MAX,
                ..SimplifyConfig::default()
            },
        ];
        for (count, config) in reached.iter_mut().zip(limits) {
            *count += usize::from(differs(&trace, config));
        }
    }
    reached
}

#[test]
fn simplify_preserves_trace_formulas() {
    let [later_passes, occurrence_bound, resolvent_bound] = sweep(SEED, 30);
    assert!(later_passes > 0, "no formula needed a second pass");
    assert!(occurrence_bound > 0, "no formula hit the occurrence bound");
    assert!(resolvent_bound > 0, "no formula hit the resolvent bound");
}

/// The same sweep over twenty times as many formulas; run with
/// `cargo test --release -p sat -- --ignored`.
#[test]
#[ignore]
fn simplify_preserves_trace_formulas_long() {
    sweep(SEED, 600);
}
