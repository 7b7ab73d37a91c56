//! Shared benchmark workloads and CLI plumbing, so the bench binaries and
//! `benches/` harnesses measure exactly the same instances instead of
//! drifting through copy-pasted generators.

use prng::SplitMix64;
use sat::{CnfFormula, Lit, Solver, Var};

/// Parses the common perf-binary CLI: `[output.json] [--samples N]`.
/// Returns the output path and sample count (`--samples 1` is CI quick mode).
pub fn parse_output_and_samples(default_output: &str, default_samples: usize) -> (String, usize) {
    let mut output = default_output.to_string();
    let mut samples = default_samples;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--samples" {
            samples = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .expect("--samples needs a positive integer");
        } else if arg.starts_with("--") {
            panic!("unknown flag {arg:?}; usage: [output.json] [--samples N]");
        } else {
            output = arg;
        }
    }
    (output, samples)
}

/// Hardware threads available to this process, recorded in every BENCH file
/// so a timing names the parallelism it ran with.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The code a BENCH file measured: `git describe --always --dirty` of the
/// working directory (a `-dirty` suffix marks uncommitted edits on top of
/// that revision), or `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// A solver pre-loaded with the pigeonhole principle instance: `pigeons`
/// pigeons into `holes` holes (UNSAT iff `pigeons > holes`) — the classic
/// analysis-heavy CDCL workload.
pub fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut solver = Solver::new();
    let vars: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for row in &vars {
        solver.add_clause(row.iter().map(|v| v.positive()));
    }
    for (i, row_i) in vars.iter().enumerate() {
        for row_j in &vars[i + 1..] {
            for (a, b) in row_i.iter().zip(row_j) {
                solver.add_clause([a.negative(), b.negative()]);
            }
        }
    }
    solver
}

/// A batch of seeded random 3-SAT formulas near the phase transition
/// (clause/variable ratio 4.2; literals are drawn independently, so clauses
/// with repeated variables are possible) — heavy on propagation *and*
/// conflict analysis.
pub fn random_3sat_batch(instances: usize, num_vars: usize, seed: u64) -> Vec<CnfFormula> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let num_clauses = num_vars * 42 / 10;
    (0..instances)
        .map(|_| {
            let mut cnf = CnfFormula::with_vars(num_vars);
            for _ in 0..num_clauses {
                let lits: Vec<Lit> = (0..3)
                    .map(|_| Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(lits);
            }
            cnf
        })
        .collect()
}

/// The BugAssist-shaped chain instance: `statements` selector-guarded
/// implications `x_i -> x_{i+1}` between hard `x_0` and hard `!x_n`, each
/// selector a unit-weight soft clause. Exactly one selector must be dropped
/// (optimum cost 1); FuMalik on it mirrors the localization inner loop.
pub fn selector_chain(statements: usize) -> maxsat::MaxSatInstance {
    let mut inst = maxsat::MaxSatInstance::new();
    inst.ensure_vars(statements + 1);
    let val = |i: usize| Var::from_index(i).positive();
    inst.add_hard(vec![val(0)]);
    inst.add_hard(vec![!val(statements)]);
    for i in 0..statements {
        let selector = inst.new_var().positive();
        inst.add_hard(vec![!selector, !val(i), val(i + 1)]);
        inst.add_soft(vec![selector], 1);
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::SatResult;

    #[test]
    fn pigeonhole_polarity() {
        assert_eq!(pigeonhole(3, 2).solve(), SatResult::Unsat);
        assert_eq!(pigeonhole(3, 3).solve(), SatResult::Sat);
    }

    #[test]
    fn selector_chain_costs_one() {
        let solution = maxsat::solve(&selector_chain(12), maxsat::Strategy::FuMalik)
            .into_optimum()
            .expect("satisfiable");
        assert_eq!(solution.cost, 1);
    }
}
