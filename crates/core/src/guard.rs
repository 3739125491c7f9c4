//! Execution budgets and cooperative cancellation for the solver.
//!
//! §7 of the paper ("Safety") observes that a FLIX programmer "may
//! inadvertently violate one or more of the required properties" of a
//! lattice or function — and a lattice of unbounded height or a
//! non-monotone function turns the fixed-point iteration into an infinite
//! loop. A [`Budget`] bounds a solve by wall-clock time, database size,
//! gross derivations, or an external [`CancelToken`], so a production
//! caller can always get control back together with the partial solution
//! computed so far (see `SolveFailure` in the solver).

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one [`crate::Solver::solve`] call.
///
/// All limits are off by default; compose them with the builder methods.
///
/// # Example
///
/// ```
/// use flix_core::{Budget, CancelToken};
/// use std::time::Duration;
///
/// let cancel = CancelToken::new();
/// let budget = Budget::new()
///     .deadline(Duration::from_millis(250))
///     .max_facts(1_000_000)
///     .max_derivations(10_000_000)
///     .cancel_token(cancel.clone());
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    pub(crate) deadline: Option<Duration>,
    pub(crate) max_facts: Option<u64>,
    pub(crate) max_derivations: Option<u64>,
    pub(crate) cancel: Option<CancelToken>,
}

impl Budget {
    /// An unlimited budget.
    pub fn new() -> Budget {
        Budget::default()
    }

    /// Bounds the wall-clock time of the solve. The deadline is checked
    /// at rule-evaluation granularity and periodically *within* long rule
    /// evaluations, so the solver returns shortly after the deadline even
    /// when a single rule produces a huge cross product.
    pub fn deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the total number of stored facts (tuples plus non-bottom
    /// lattice cells), checked once per fixed-point round.
    pub fn max_facts(mut self, limit: u64) -> Budget {
        self.max_facts = Some(limit);
        self
    }

    /// Bounds the gross number of derived head tuples (before
    /// deduplication), checked once per fixed-point round.
    pub fn max_derivations(mut self, limit: u64) -> Budget {
        self.max_derivations = Some(limit);
        self
    }

    /// Attaches a cooperative cancellation token; flipping the token from
    /// another thread stops the solve at the next budget check.
    pub fn cancel_token(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Returns `true` when no limit is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_facts.is_none()
            && self.max_derivations.is_none()
            && self.cancel.is_none()
    }
}

/// A shared flag for cooperatively cancelling a running solve.
///
/// Clone the token, hand one clone to [`Budget::cancel_token`], keep the
/// other, and call [`CancelToken::cancel`] from any thread.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Returns `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which budget limit stopped a solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured deadline.
        configured: Duration,
    },
    /// The database grew past the fact limit.
    MaxFacts {
        /// The configured limit.
        limit: u64,
    },
    /// Rule evaluation produced more head tuples than allowed.
    MaxDerivations {
        /// The configured limit.
        limit: u64,
    },
    /// The [`CancelToken`] was flipped.
    Cancelled,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Deadline { configured } => {
                write!(f, "wall-clock budget of {configured:?} exceeded")
            }
            BudgetKind::MaxFacts { limit } => {
                write!(f, "fact budget of {limit} stored facts exceeded")
            }
            BudgetKind::MaxDerivations { limit } => {
                write!(f, "derivation budget of {limit} derived tuples exceeded")
            }
            BudgetKind::Cancelled => write!(f, "solve cancelled via CancelToken"),
        }
    }
}

/// Per-solve budget state: the budget plus the solve's start instant.
pub(crate) struct Guard<'a> {
    budget: &'a Budget,
    start: Instant,
}

impl<'a> Guard<'a> {
    pub(crate) fn new(budget: &'a Budget) -> Guard<'a> {
        Guard {
            budget,
            start: Instant::now(),
        }
    }

    /// Round-granularity check: every configured limit.
    pub(crate) fn exceeded(&self, facts_derived: u64, total_facts: u64) -> Option<BudgetKind> {
        if let Some(token) = &self.budget.cancel {
            if token.is_cancelled() {
                return Some(BudgetKind::Cancelled);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if self.start.elapsed() > deadline {
                return Some(BudgetKind::Deadline {
                    configured: deadline,
                });
            }
        }
        if let Some(limit) = self.budget.max_facts {
            if total_facts > limit {
                return Some(BudgetKind::MaxFacts { limit });
            }
        }
        if let Some(limit) = self.budget.max_derivations {
            if facts_derived > limit {
                return Some(BudgetKind::MaxDerivations { limit });
            }
        }
        None
    }

    /// A per-thread guard for checks *inside* rule evaluation.
    pub(crate) fn eval_guard(&self) -> EvalGuard<'_> {
        self.eval_guard_scaled(1)
    }

    /// A per-thread guard whose amortised poll period is divided by the
    /// worker-thread count. Each parallel worker owns its own counter, so
    /// without scaling, `threads` workers would collectively let up to
    /// `PERIOD × threads` evaluation steps elapse between wall-clock
    /// checks — stretching the documented deadline-response bound.
    /// Dividing the period keeps the *aggregate* steps-between-checks
    /// constant regardless of thread count.
    pub(crate) fn eval_guard_scaled(&self, threads: usize) -> EvalGuard<'_> {
        EvalGuard {
            deadline: self.budget.deadline.map(|d| (self.start + d, d)),
            cancel: self.budget.cancel.as_ref().map(|t| &*t.0),
            counter: Cell::new(0),
            period: (EvalGuard::PERIOD / threads.max(1) as u32).max(1),
        }
    }
}

/// Deadline/cancellation checks cheap enough for the evaluation inner
/// loop: a counter amortises the `Instant::now` call.
pub(crate) struct EvalGuard<'a> {
    deadline: Option<(Instant, Duration)>,
    cancel: Option<&'a AtomicBool>,
    counter: Cell<u32>,
    /// How many `poll` calls elapse between real clock checks on *this*
    /// guard (the base [`EvalGuard::PERIOD`] divided by the worker count).
    period: u32,
}

impl EvalGuard<'_> {
    /// How many `poll` calls elapse between real clock checks across all
    /// workers of a solve combined.
    const PERIOD: u32 = 256;

    /// Amortised check; call on every evaluation step.
    pub(crate) fn poll(&self) -> Result<(), BudgetKind> {
        if self.deadline.is_none() && self.cancel.is_none() {
            return Ok(());
        }
        let n = self.counter.get().wrapping_add(1);
        self.counter.set(n);
        if !n.is_multiple_of(self.period) {
            return Ok(());
        }
        self.check_now()
    }

    /// Unamortised check; call at task boundaries.
    pub(crate) fn check_now(&self) -> Result<(), BudgetKind> {
        if let Some(cancel) = self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Err(BudgetKind::Cancelled);
            }
        }
        if let Some((instant, configured)) = self.deadline {
            if Instant::now() > instant {
                return Err(BudgetKind::Deadline { configured });
            }
        }
        Ok(())
    }
}

/// Renders a caught panic payload for diagnostics.
pub(crate) fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = Budget::new();
        assert!(budget.is_unlimited());
        let guard = Guard::new(&budget);
        assert_eq!(guard.exceeded(u64::MAX, u64::MAX), None);
        assert!(guard.eval_guard().check_now().is_ok());
    }

    #[test]
    fn limits_trip_in_priority_order() {
        let budget = Budget::new().max_facts(10).max_derivations(20);
        let guard = Guard::new(&budget);
        assert_eq!(guard.exceeded(0, 0), None);
        assert_eq!(
            guard.exceeded(0, 11),
            Some(BudgetKind::MaxFacts { limit: 10 })
        );
        assert_eq!(
            guard.exceeded(21, 0),
            Some(BudgetKind::MaxDerivations { limit: 20 })
        );
    }

    #[test]
    fn deadline_trips_after_elapse() {
        let budget = Budget::new().deadline(Duration::from_millis(0));
        let guard = Guard::new(&budget);
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            guard.exceeded(0, 0),
            Some(BudgetKind::Deadline { .. })
        ));
        let eval = guard.eval_guard();
        assert!(eval.check_now().is_err());
        // poll trips within one period.
        let tripped = (0..=EvalGuard::PERIOD).any(|_| eval.poll().is_err());
        assert!(tripped);
    }

    #[test]
    fn scaled_guard_shrinks_the_poll_period() {
        let budget = Budget::new().deadline(Duration::from_millis(0));
        let guard = Guard::new(&budget);
        std::thread::sleep(Duration::from_millis(2));
        // With 8 workers the per-worker period is 256 / 8 = 32 polls, so
        // the deadline is observed within 32 steps instead of 256.
        let eval = guard.eval_guard_scaled(8);
        let tripped = (0..32).any(|_| eval.poll().is_err());
        assert!(tripped);
        // Extreme thread counts clamp to a period of 1, never 0.
        let eval = guard.eval_guard_scaled(100_000);
        assert!(eval.poll().is_err());
    }

    #[test]
    fn payload_rendering() {
        assert_eq!(panic_payload(Box::new("boom")), "boom");
        assert_eq!(panic_payload(Box::new(String::from("ow"))), "ow");
        assert_eq!(panic_payload(Box::new(17u32)), "non-string panic payload");
    }
}
