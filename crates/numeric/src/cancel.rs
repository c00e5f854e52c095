//! Cooperative deadline checks for long-running kernels.
//!
//! The durable-execution layer (`ssn-core::durable`) gives a run a
//! wall-clock budget; chunk boundaries check it between work items, but a
//! single RKF45 integration or MNA transient can run long past the deadline
//! on its own. This module is the hook those *inner loops* poll: a
//! per-thread deadline slot, armed by the layer that owns the budget and
//! checked with one thread-local load per iteration.
//!
//! The slot belongs to the run, not the process. [`arm`] sets it on the
//! calling thread only, and the parallel engine hands it to its workers
//! ([`current`] on the spawning thread, [`Deadline::enter`] on each
//! worker), so concurrent runs each see their own budget and nothing else.
//!
//! Determinism contract: with no deadline armed, [`deadline_exceeded`]
//! returns `false` without reading the clock — kernels behave bit-for-bit
//! as before. With a deadline armed and not yet reached, kernels are also
//! unchanged; only the *cut itself* depends on wall time, and callers are
//! required to discard (never partially use) the work of a cancelled
//! kernel, which keeps results a function of the inputs alone.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// "No deadline" in the slot.
const UNARMED: u64 = u64::MAX;

thread_local! {
    /// This thread's deadline, in nanoseconds since the process anchor.
    static SLOT: Cell<u64> = const { Cell::new(UNARMED) };
}

/// The fixed time origin deadlines are encoded against.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// A thread's deadline, captured by [`current`] so it can be handed to
/// another thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(u64);

impl Deadline {
    /// Installs this deadline on the calling thread until the returned
    /// guard drops.
    pub fn enter(self) -> DeadlineGuard {
        DeadlineGuard {
            prev: SLOT.with(|s| s.replace(self.0)),
        }
    }
}

/// Restores the thread's previous deadline when dropped.
#[derive(Debug)]
pub struct DeadlineGuard {
    prev: u64,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        SLOT.with(|s| s.set(self.prev));
    }
}

/// Arms a deadline `budget` from now on the calling thread; its inner loops
/// observe it through [`deadline_exceeded`] until the returned guard drops.
///
/// `None` arms "no deadline" explicitly (useful to mask an outer deadline
/// for a sub-computation that must run to completion).
pub fn arm(budget: Option<Duration>) -> DeadlineGuard {
    let ns = budget.map_or(UNARMED, |budget| {
        anchor()
            .elapsed()
            .checked_add(budget)
            .map_or(UNARMED, |t| u64::try_from(t.as_nanos()).unwrap_or(UNARMED))
    });
    Deadline(ns).enter()
}

/// The calling thread's deadline, for handing to worker threads.
pub fn current() -> Deadline {
    Deadline(SLOT.with(Cell::get))
}

/// `true` once the calling thread's deadline has passed. Unarmed: always
/// `false`, and the clock is never read.
#[inline]
pub fn deadline_exceeded() -> bool {
    let deadline = SLOT.with(Cell::get);
    if deadline == UNARMED {
        return false;
    }
    u64::try_from(anchor().elapsed().as_nanos()).unwrap_or(UNARMED) >= deadline
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_never_exceeds() {
        assert!(!deadline_exceeded());
    }

    #[test]
    fn zero_budget_exceeds_immediately_and_guard_restores() {
        {
            let _g = arm(Some(Duration::ZERO));
            assert!(deadline_exceeded());
        }
        assert!(!deadline_exceeded());
    }

    #[test]
    fn generous_budget_does_not_fire() {
        let _g = arm(Some(Duration::from_secs(3600)));
        assert!(!deadline_exceeded());
    }

    #[test]
    fn nested_arms_restore_the_outer_deadline() {
        let _outer = arm(Some(Duration::ZERO));
        assert!(deadline_exceeded());
        {
            let _inner = arm(None);
            assert!(!deadline_exceeded(), "inner mask must hide the deadline");
        }
        assert!(deadline_exceeded(), "outer deadline restored");
    }

    #[test]
    fn a_deadline_reaches_only_the_threads_it_is_handed_to() {
        let _g = arm(Some(Duration::ZERO));
        let handed = current();
        std::thread::scope(|s| {
            s.spawn(|| assert!(!deadline_exceeded(), "other threads are unaffected"));
            s.spawn(move || {
                let _worker = handed.enter();
                assert!(deadline_exceeded(), "the handed-off deadline applies");
            });
        });
        assert!(deadline_exceeded());
    }
}
