//! Solve budgets: wall-clock deadlines and conflict caps.
//!
//! BugAssist-style whole-program MAX-SAT has unbounded worst-case solve
//! time, so every solve in this crate can be bounded by a [`Budget`]: an
//! absolute wall-clock deadline and/or a cap on the number of SAT-solver
//! conflicts one MAX-SAT solve may spend. [`crate::MaxSatSolver::set_budget`]
//! installs it, and every SAT call of the solve polls it at the SAT solver's
//! restart boundaries via [`sat::Solver::solve_assuming_budgeted`].
//!
//! A budgeted solve never turns expiry into an error: if an incumbent model
//! exists when the budget runs out, the solver returns it as an **anytime
//! result** ([`crate::MaxSatResult::Anytime`]) whose cost is an upper bound
//! on the true optimum; with no incumbent it returns
//! [`crate::MaxSatResult::Expired`].

use std::time::{Duration, Instant};

/// Resource limits for one MAX-SAT solve (and everything stacked on top of
/// it — the localizer threads one budget through its whole suspect
/// enumeration). The default budget is unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Absolute wall-clock deadline; the solve gives up at the next restart
    /// boundary once it has passed.
    pub deadline: Option<Instant>,
    /// Maximum number of SAT conflicts one MAX-SAT solve may accumulate
    /// over its run. The cap is per solve (one rank of a localization), not
    /// per localization: it is counted from the solve's start, even when
    /// several solves share one SAT solver whose conflict counter keeps
    /// growing across them.
    pub conflict_cap: Option<u64>,
}

impl Budget {
    /// The unlimited budget: no deadline, no conflict cap.
    pub const UNLIMITED: Budget = Budget {
        deadline: None,
        conflict_cap: None,
    };

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Instant) -> Budget {
        Budget {
            deadline: Some(deadline),
            conflict_cap: None,
        }
    }

    /// A budget whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget::with_deadline(Instant::now() + timeout)
    }

    /// `true` if neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.conflict_cap.is_none()
    }

    /// `true` once the wall-clock deadline (if any) has passed.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let budget = Budget::default();
        assert!(budget.is_unlimited());
        assert!(!budget.deadline_expired());
        assert_eq!(budget, Budget::UNLIMITED);
    }

    #[test]
    fn deadline_expiry_tracks_the_clock() {
        let expired = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.deadline_expired());
        assert!(!expired.is_unlimited());
        let generous = Budget::with_timeout(Duration::from_secs(3600));
        assert!(!generous.deadline_expired());
    }

    #[test]
    fn conflict_cap_alone_is_a_limit() {
        let capped = Budget {
            deadline: None,
            conflict_cap: Some(1000),
        };
        assert!(!capped.is_unlimited());
        assert!(!capped.deadline_expired());
    }
}
