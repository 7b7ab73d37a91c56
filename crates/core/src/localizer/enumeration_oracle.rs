//! Differential test of the warm suspect enumeration: `localize` (one SAT
//! solver per call, blocking clauses added incrementally) against a
//! rebuild-every-rank oracle that clones the instance, re-adds every
//! blocking clause and solves each rank on a fresh solver. The canonical
//! optimum makes every rank a function of the instance alone, so both must
//! report the same suspects byte for byte, for both strategies.

use super::*;
use minic::ast::BinOp;
use minic::mutate::{apply_mutation, constant_sites, operator_sites, Mutation};
use minic::parse_program;

/// How the oracle's enumeration ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exit {
    /// A blocking clause made the hard part unsatisfiable.
    HardUnsat,
    /// Anything else: the rank limit, no soft left, or nothing falsified.
    Other,
}

/// Algorithm 1 rebuilt from scratch on every rank, unbudgeted: a fresh
/// instance (base, then every earlier blocking clause, then the active
/// selectors as soft units) solved by [`MaxSatSolver::solve`] on a fresh SAT
/// solver.
fn localize_rebuilding(localizer: &Localizer, input: &[i64]) -> (Vec<Suspect>, Exit) {
    let (prepared, _) = localizer.prepared_timed();
    let selectors = &prepared.selectors;
    let base = localizer.base_instance(prepared, input);
    let mut active: Vec<usize> = (0..selectors.len())
        .filter(|&i| !selectors[i].trusted && !selectors[i].pruned)
        .collect();
    let mut blocking: Vec<Vec<Lit>> = Vec::new();
    let mut suspects = Vec::new();
    for rank in 0..localizer.config.max_suspect_sets {
        let mut instance = base.clone();
        for clause in &blocking {
            instance.add_hard(clause.clone());
        }
        for &i in &active {
            instance.add_soft_unit(selectors[i].lit, selectors[i].weight);
        }
        let solution = match MaxSatSolver::new(localizer.config.strategy).solve(&instance) {
            MaxSatResult::Optimum(solution) => solution,
            MaxSatResult::HardUnsat => return (suspects, Exit::HardUnsat),
            other => unreachable!("an unbudgeted solve ended {other:?}"),
        };
        if solution.falsified.is_empty() {
            break;
        }
        let blamed: Vec<usize> = solution
            .falsified
            .iter()
            .map(|id| active[id.index()])
            .collect();
        suspects.push(Suspect {
            lines: blamed
                .iter()
                .flat_map(|&i| selectors[i].lines.iter().copied())
                .collect(),
            unwindings: blamed
                .iter()
                .flat_map(|&i| selectors[i].unwindings.iter().copied())
                .collect(),
            rank,
            cost: solution.cost,
        });
        blocking.push(blamed.iter().map(|&i| selectors[i].lit).collect());
        active.retain(|i| !blamed.contains(i));
        if active.is_empty() {
            break;
        }
    }
    (suspects, Exit::Other)
}

/// Localizes `input` both ways and asserts equal suspects and a complete
/// report. Returns the oracle's exit.
fn assert_warm_matches_oracle(localizer: &Localizer, input: &[i64], what: &str) -> Exit {
    let report = localizer.localize(input).expect("localizes");
    let (suspects, exit) = localize_rebuilding(localizer, input);
    assert_eq!(report.suspects, suspects, "{what} {input:?}");
    assert!(report.complete, "{what} {input:?}");
    exit
}

fn tcas_config(strategy: Strategy) -> LocalizerConfig {
    LocalizerConfig {
        encode: EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            concretize: Vec::new(),
            ..EncodeConfig::default()
        },
        strategy,
        max_suspect_sets: 24,
        trusted_lines: siemens::tcas_trusted_lines(),
        ..LocalizerConfig::default()
    }
}

/// The first failing vector of a TCAS version in a fixed seeded pool, with
/// the faulty program and its spec.
fn tcas_failing(name: &str) -> (Program, Spec, Vec<i64>) {
    let version = siemens::tcas_versions()
        .into_iter()
        .find(|v| v.name == name)
        .expect("version exists");
    let faulty = version.build(siemens::TCAS_SOURCE);
    let interp = siemens::tcas_interp_config();
    let input = siemens::tcas_test_vectors(400, 2011)
        .into_iter()
        .find(|input| {
            let golden = siemens::tcas_golden_output(input);
            let outcome = bmc::run_program(&faulty, siemens::TCAS_ENTRY, input, &[], interp);
            outcome.result != Some(golden) || !outcome.is_ok()
        })
        .expect("the version has a failing vector");
    let spec = Spec::ReturnEquals(siemens::tcas_golden_output(&input));
    (faulty, spec, input)
}

#[test]
fn warm_enumeration_matches_the_rebuilding_oracle_on_tcas() {
    for name in ["v1", "v10", "v20"] {
        let (faulty, spec, input) = tcas_failing(name);
        for strategy in [Strategy::FuMalik, Strategy::LinearSatUnsat] {
            let localizer =
                Localizer::new(&faulty, siemens::TCAS_ENTRY, &spec, &tcas_config(strategy))
                    .expect("TCAS encodes");
            assert_warm_matches_oracle(&localizer, &input, &format!("{name} {strategy:?}"));
        }
    }
}

#[test]
fn a_per_rank_conflict_cap_above_every_rank_keeps_the_full_report() {
    // The cap is measured from each rank's start, not across the warm
    // solver's life: a cap above every single rank's conflicts must return
    // the unbudgeted report, complete, even though the ranks together spend
    // more than the cap.
    let (faulty, spec, input) = tcas_failing("v1");
    let localizer = Localizer::new(
        &faulty,
        siemens::TCAS_ENTRY,
        &spec,
        &tcas_config(Strategy::FuMalik),
    )
    .expect("TCAS encodes");
    let full = localizer.localize(&input).expect("localizes");
    assert!(full.complete);
    // Conflicts of every rank on the warm solver, replayed the way
    // `localize_with` runs them.
    let (prepared, _) = localizer.prepared_timed();
    let mut base = localizer.base_instance(prepared, &input);
    let mut sat = Solver::from_formula(base.hard());
    let mut solver = MaxSatSolver::new(Strategy::FuMalik);
    let mut active: Vec<usize> = (0..prepared.selectors.len())
        .filter(|&i| !prepared.selectors[i].trusted && !prepared.selectors[i].pruned)
        .collect();
    let mut per_rank = Vec::new();
    for _ in &full.suspects {
        base.clear_soft();
        for &i in &active {
            base.add_soft_unit(prepared.selectors[i].lit, prepared.selectors[i].weight);
        }
        let solution = solver
            .solve_loaded(&mut sat, &base)
            .into_optimum()
            .expect("rank");
        per_rank.push(solver.stats().conflicts);
        let blamed: Vec<usize> = solution
            .falsified
            .iter()
            .map(|id| active[id.index()])
            .collect();
        let blocking: Vec<Lit> = blamed.iter().map(|&i| prepared.selectors[i].lit).collect();
        sat.add_clause(blocking.iter().copied());
        base.add_hard(blocking);
        active.retain(|i| !blamed.contains(i));
    }
    let cap = per_rank.iter().max().expect("ranks") + 1;
    assert!(
        cap < per_rank.iter().sum::<u64>(),
        "ranks {per_rank:?} would fit a cumulative cap"
    );
    let budget = Budget {
        deadline: None,
        conflict_cap: Some(cap),
    };
    let capped = localizer
        .localize_budgeted(&input, budget)
        .expect("localizes");
    assert!(capped.complete, "cap {cap}, ranks {per_rank:?}");
    assert_eq!(capped.suspects, full.suspects);
}

/// A small program with arithmetic and a branch, the seed for mutants.
const SEED_PROGRAM: &str = "int main(int x, int y) {
int a = x + 1;
int b = y * 2;
if (a > b) {
a = a - b;
} else {
b = b - a;
}
int c = a + b;
return c;
}";

/// A seeded random mutation of `program`: bump a constant or swap an
/// arithmetic operator.
fn random_mutation(program: &Program, rng: &mut prng::SplitMix64) -> Mutation {
    let constants = constant_sites(program);
    let operators: Vec<_> = operator_sites(program)
        .into_iter()
        .filter(|site| matches!(site.op, BinOp::Add | BinOp::Sub | BinOp::Mul))
        .collect();
    if rng.gen_bool(0.5) {
        let site = constants[rng.gen_range(0..constants.len())];
        Mutation::BumpConstant {
            line: site.line,
            occurrence: site.occurrence,
            delta: if rng.gen_bool(0.5) { 1 } else { -1 },
        }
    } else {
        let site = operators[rng.gen_range(0..operators.len())];
        let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul];
        let others: Vec<BinOp> = ops.into_iter().filter(|&op| op != site.op).collect();
        Mutation::ReplaceOperator {
            line: site.line,
            occurrence: site.occurrence,
            new_op: others[rng.gen_range(0..others.len())],
        }
    }
}

#[test]
fn warm_enumeration_matches_the_rebuilding_oracle_on_seeded_mutants() {
    let original = parse_program(SEED_PROGRAM).expect("seed program parses");
    let interp = bmc::InterpConfig {
        width: 8,
        ..bmc::InterpConfig::default()
    };
    let mut rng = prng::SplitMix64::seed_from_u64(0x0C0F_FEE5);
    let (mut cases, mut hard_unsat_exits) = (0, 0);
    for _ in 0..12 {
        let mutant = apply_mutation(&original, &random_mutation(&original, &mut rng))
            .expect("mutation applies");
        // A failing test: an input where the mutant's return value differs
        // from the seed program's, which becomes the spec.
        let failing = (0..16).find_map(|_| {
            let input = vec![rng.gen_range(0i64..16), rng.gen_range(0i64..16)];
            let expected = bmc::run_program(&original, "main", &input, &[], interp).result?;
            let actual = bmc::run_program(&mutant, "main", &input, &[], interp).result;
            (actual != Some(expected)).then_some((input, expected))
        });
        let Some((input, expected)) = failing else {
            continue; // An equivalent mutant on every sampled input.
        };
        for strategy in [Strategy::FuMalik, Strategy::LinearSatUnsat] {
            let config = LocalizerConfig {
                strategy,
                max_suspect_sets: 16,
                ..config8()
            };
            let localizer = Localizer::new(&mutant, "main", &Spec::ReturnEquals(expected), &config)
                .expect("mutant encodes");
            let exit = assert_warm_matches_oracle(&localizer, &input, &format!("{strategy:?}"));
            hard_unsat_exits += usize::from(exit == Exit::HardUnsat);
            cases += 1;
        }
    }
    assert!(cases >= 12, "only {cases} failing mutants");
    assert!(
        hard_unsat_exits >= 4,
        "only {hard_unsat_exits} of {cases} enumerations ended on an unsat hard part"
    );
}

fn config8() -> LocalizerConfig {
    LocalizerConfig {
        encode: EncodeConfig {
            width: 8,
            ..EncodeConfig::default()
        },
        ..LocalizerConfig::default()
    }
}
