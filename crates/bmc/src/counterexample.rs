//! Counterexample generation (`GenerateCounterexample` in Algorithm 1).
//!
//! The paper obtains failing executions either from an existing test suite or
//! from bounded model checking. This module is the BMC half:
//! [`find_failing_input`] solves for inputs that violate the specification.
//! Test pools are classified against a golden output by running the concrete
//! [interpreter](crate::interp), as `siemens::FaultyVersion::failing_inputs`
//! does for the Table 1 versions.

use crate::symbolic::{encode_program, EncodeConfig, EncodeError, Spec};
use minic::Program;
use sat::{SatResult, Solver};

/// Searches for a test input that violates the specification using the
/// symbolic encoding (bounded model checking).
///
/// Returns `Ok(Some(inputs))` with one value per entry-function parameter if
/// a violation exists within the unwinding bound, `Ok(None)` if the bounded
/// search proves there is none.
///
/// # Errors
///
/// Returns [`EncodeError`] if the program cannot be encoded (unknown entry
/// function, unknown callee, ...).
///
/// # Examples
///
/// ```
/// use bmc::{find_failing_input, EncodeConfig, Spec};
/// use minic::parse_program;
/// let program = parse_program(
///     "int main(int x) { int y = x * 2; assert(y != 6); return y; }"
/// ).unwrap();
/// let failing = find_failing_input(&program, "main", &Spec::Assertions, &EncodeConfig::default())
///     .unwrap()
///     .expect("some input violates the assertion");
/// // Any reported input must indeed make 2 * x wrap to 6 at the 16-bit default width.
/// assert_eq!((failing[0] as i16).wrapping_mul(2), 6);
/// ```
pub fn find_failing_input(
    program: &Program,
    entry: &str,
    spec: &Spec,
    config: &EncodeConfig,
) -> Result<Option<Vec<i64>>, EncodeError> {
    let trace = encode_program(program, entry, spec, config)?;
    let mut solver = Solver::from_formula(trace.cnf.formula());
    match solver.solve_assuming(&[!trace.property]) {
        SatResult::Sat => Ok(Some(trace.inputs_from_model(&solver.model()))),
        SatResult::Unsat => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse_program;

    fn cfg() -> EncodeConfig {
        EncodeConfig {
            width: 8,
            ..EncodeConfig::default()
        }
    }

    #[test]
    fn bmc_finds_a_violation_when_one_exists() {
        let program =
            parse_program("int main(int a, int b) { int s = a + b; assert(s != 13); return s; }")
                .unwrap();
        let failing = find_failing_input(&program, "main", &Spec::Assertions, &cfg())
            .unwrap()
            .expect("a + b == 13 is reachable");
        assert_eq!(failing.len(), 2);
        assert_eq!((failing[0] as i8).wrapping_add(failing[1] as i8), 13);
    }

    #[test]
    fn bmc_proves_absence_within_bound() {
        let program =
            parse_program("int main(int x) { int y = x & 3; assert(y >= 0 && y < 4); return y; }")
                .unwrap();
        let result = find_failing_input(&program, "main", &Spec::Assertions, &cfg()).unwrap();
        assert_eq!(result, None);
    }
}
