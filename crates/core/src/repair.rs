//! Automated repair suggestions (Sec. 5.1, Algorithm 2).
//!
//! After localization has produced a handful of suspect lines, BugAssist
//! tries small syntactic repairs at those lines: adding ±1 to a constant
//! (the classic off-by-one fix) and swapping an operator for a plausible
//! confusion (`<` ↔ `<=`, `+` ↔ `-`, …). A candidate is accepted when the
//! previously failing tests now pass and — optionally — bounded model
//! checking can no longer find any counterexample.

use crate::localizer::{LocalizeError, Localizer, LocalizerConfig};
use bmc::{find_failing_input, run_program, InterpConfig, Spec};
use minic::ast::Line;
use minic::{apply_mutation, constant_sites, operator_sites, Mutation, Program};
use std::fmt;

/// Which classes of repairs to attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RepairKind {
    /// Bump an integer constant by ±1 (off-by-one errors, Sec. 6.3).
    OffByOne,
    /// Replace a comparison/arithmetic/logical operator by a near miss
    /// (e.g. `<` by `<=`).
    OperatorReplacement,
}

/// Repair-search configuration.
#[derive(Clone, Debug)]
pub struct RepairConfig {
    /// Localization options (encoding, granularity, trusted lines…).
    pub localizer: LocalizerConfig,
    /// Which repair classes to try.
    pub kinds: Vec<RepairKind>,
    /// Additionally require that bounded model checking finds no
    /// counterexample in the repaired program (Algorithm 2's
    /// `GenerateCounterExample(P', p) = ∅` check).
    pub validate_with_bmc: bool,
    /// Stop after this many validated repairs (0 = collect all).
    pub max_repairs: usize,
}

impl Default for RepairConfig {
    fn default() -> RepairConfig {
        RepairConfig {
            localizer: LocalizerConfig::default(),
            kinds: vec![RepairKind::OffByOne, RepairKind::OperatorReplacement],
            validate_with_bmc: true,
            max_repairs: 0,
        }
    }
}

/// A validated repair suggestion.
#[derive(Clone, Debug)]
pub struct Repair {
    /// The syntactic change.
    pub mutation: Mutation,
    /// The line it applies to (a localization suspect).
    pub line: Line,
    /// The repaired program.
    pub program: Program,
    /// Whether BMC verified the absence of counterexamples (within the
    /// configured unwinding bound).
    pub bmc_verified: bool,
}

impl fmt::Display for Repair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at {})", self.mutation, self.line)
    }
}

/// Runs localization and then searches for small repairs at the suspect
/// lines.
///
/// `failing_inputs` must be non-empty; the first input drives localization
/// and all of them are used to validate candidates.
///
/// # Errors
///
/// Propagates encoding/localization errors.
///
/// # Examples
///
/// ```
/// use bugassist::{suggest_repairs, RepairConfig, LocalizerConfig};
/// use bmc::{EncodeConfig, Spec};
/// use minic::parse_program;
///
/// // `limit` should be 3 (the array has 3 elements): classic off-by-one.
/// let program = parse_program("\
/// int buf[3];
/// int fill(int n) {
/// assume(n >= 0);
/// int limit = 4;
/// int i = 0;
/// if (n < limit) { i = n; }
/// buf[i] = 1;
/// return buf[i];
/// }").unwrap();
/// let config = RepairConfig {
///     localizer: LocalizerConfig {
///         encode: EncodeConfig { width: 8, ..EncodeConfig::default() },
///         ..LocalizerConfig::default()
///     },
///     ..RepairConfig::default()
/// };
/// let repairs = suggest_repairs(&program, "fill", &Spec::Assertions, &[vec![3]], &config).unwrap();
/// assert!(repairs.iter().any(|r| r.to_string().contains("line 4")));
/// ```
pub fn suggest_repairs(
    program: &Program,
    entry: &str,
    spec: &Spec,
    failing_inputs: &[Vec<i64>],
    config: &RepairConfig,
) -> Result<Vec<Repair>, LocalizeError> {
    assert!(
        !failing_inputs.is_empty(),
        "repair needs at least one failing test input"
    );
    let localizer = Localizer::new(program, entry, spec, &config.localizer)?;
    let report = localizer.localize(&failing_inputs[0])?;

    let interp_config = InterpConfig {
        width: config.localizer.encode.width,
        ..InterpConfig::default()
    };

    let mut repairs = Vec::new();
    for line in &report.suspect_lines {
        for kind in &config.kinds {
            for mutation in candidate_mutations(program, *line, *kind) {
                let Ok(candidate) = apply_mutation(program, &mutation) else {
                    continue;
                };
                // 1. Every previously failing test must now pass.
                let all_pass = failing_inputs.iter().all(|input| {
                    let outcome = run_program(&candidate, entry, input, &[], interp_config);
                    match spec {
                        Spec::Assertions => outcome.is_ok(),
                        Spec::ReturnEquals(expected) => {
                            outcome.is_ok() && outcome.result == Some(*expected)
                        }
                    }
                });
                if !all_pass {
                    continue;
                }
                // 2. Optionally, BMC must find no counterexample at all.
                let bmc_verified = if config.validate_with_bmc {
                    matches!(
                        find_failing_input(&candidate, entry, spec, &config.localizer.encode),
                        Ok(None)
                    )
                } else {
                    false
                };
                if config.validate_with_bmc && !bmc_verified {
                    continue;
                }
                repairs.push(Repair {
                    mutation,
                    line: *line,
                    program: candidate,
                    bmc_verified,
                });
                if config.max_repairs > 0 && repairs.len() >= config.max_repairs {
                    return Ok(repairs);
                }
            }
        }
    }
    Ok(repairs)
}

fn candidate_mutations(program: &Program, line: Line, kind: RepairKind) -> Vec<Mutation> {
    match kind {
        RepairKind::OffByOne => constant_sites(program)
            .into_iter()
            .filter(|site| site.line == line)
            .flat_map(|site| {
                [1i64, -1]
                    .into_iter()
                    .map(move |delta| Mutation::BumpConstant {
                        line: site.line,
                        occurrence: site.occurrence,
                        delta,
                    })
            })
            .collect(),
        RepairKind::OperatorReplacement => operator_sites(program)
            .into_iter()
            .filter(|site| site.line == line)
            .flat_map(|site| {
                site.op
                    .mutation_neighbours()
                    .into_iter()
                    .map(move |new_op| Mutation::ReplaceOperator {
                        line: site.line,
                        occurrence: site.occurrence,
                        new_op,
                    })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmc::EncodeConfig;
    use minic::parse_program;
    use minic::pretty_program;

    fn repair_config() -> RepairConfig {
        RepairConfig {
            localizer: LocalizerConfig {
                encode: EncodeConfig {
                    width: 8,
                    ..EncodeConfig::default()
                },
                ..LocalizerConfig::default()
            },
            ..RepairConfig::default()
        }
    }

    #[test]
    fn off_by_one_constant_is_fixed() {
        // The guard should be `i < 3`; using `i < 4` lets index 3 through.
        let program = parse_program(
            "int buf[3];\nint get(int i) {\nassume(i >= 0);\nif (i < 4) {\nreturn buf[i];\n}\nreturn 0;\n}",
        )
        .unwrap();
        let repairs = suggest_repairs(
            &program,
            "get",
            &Spec::Assertions,
            &[vec![3]],
            &repair_config(),
        )
        .unwrap();
        assert!(!repairs.is_empty(), "an off-by-one repair exists");
        let fixed = repairs
            .iter()
            .find(|r| matches!(r.mutation, Mutation::BumpConstant { delta: -1, .. }))
            .expect("the -1 bump of the bound is a valid repair");
        assert!(fixed.bmc_verified);
        assert!(pretty_program(&fixed.program).contains("i < 3"));
    }

    #[test]
    fn operator_confusion_is_fixed() {
        // `<=` should be `<`: equality lets the index reach the array size.
        let program = parse_program(
            "int buf[4];\nint get(int i) {\nassume(i >= 0);\nif (i <= 4) {\nreturn buf[i];\n}\nreturn 0;\n}",
        )
        .unwrap();
        let mut config = repair_config();
        config.kinds = vec![RepairKind::OperatorReplacement];
        let repairs =
            suggest_repairs(&program, "get", &Spec::Assertions, &[vec![4]], &config).unwrap();
        assert!(
            repairs.iter().any(|r| matches!(
                r.mutation,
                Mutation::ReplaceOperator {
                    new_op: minic::BinOp::Lt,
                    ..
                }
            )),
            "{repairs:?}"
        );
    }

    #[test]
    fn unfixable_bug_yields_no_repair() {
        // The fault is a completely wrong expression; ±1 and operator swaps
        // cannot repair it for the given failing tests.
        let program = parse_program("int main(int x) {\nint y = 0;\nreturn y;\n}").unwrap();
        let mut config = repair_config();
        config.validate_with_bmc = false;
        let repairs = suggest_repairs(
            &program,
            "main",
            &Spec::ReturnEquals(41),
            &[vec![40]],
            &config,
        )
        .unwrap();
        assert!(repairs.is_empty());
    }

    #[test]
    fn max_repairs_caps_the_search() {
        let program = parse_program("int main(int x) {\nint y = x + 2;\nreturn y;\n}").unwrap();
        let mut config = repair_config();
        config.max_repairs = 1;
        config.validate_with_bmc = false;
        let repairs = suggest_repairs(
            &program,
            "main",
            &Spec::ReturnEquals(4),
            &[vec![1]],
            &config,
        )
        .unwrap();
        assert_eq!(repairs.len(), 1);
    }
}
