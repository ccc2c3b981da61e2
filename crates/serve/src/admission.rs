//! Admission control: a global memory budget shared by every running job.
//!
//! Each admitted job holds an RAII [`Reservation`] for its configured
//! memory for its whole lifetime; jobs whose reservation does not fit the
//! free budget wait (FIFO at the worker pool) until running jobs release
//! memory. Dropping the reservation — on success, failure, *or* an
//! injected crash unwinding the job — returns the bytes and wakes the
//! waiters, so a dead job can never strand budget.
//!
//! The state is two counters (reserved bytes, blocked waiters) under a
//! poison-free lock with a [`Condvar`] to wait on: the payload is valid at
//! every instruction, so a poisoned lock is simply recovered.

use std::sync::{Condvar, PoisonError};

use mlvc_ssd::sync::Mutex;

use crate::protocol::RejectReason;

/// Smallest budget the engine accepts (`EngineConfig::validate` requires
/// `memory_bytes >= 4096`); admission rejects anything smaller before it
/// reserves a byte.
pub const MIN_JOB_BYTES: usize = 1 << 12;

/// Global memory budget with blocking reservations.
pub struct Budget {
    total: usize,
    state: Mutex<Ledger>,
    freed: Condvar,
}

#[derive(Default)]
struct Ledger {
    /// Bytes reserved.
    reserved: usize,
    /// Threads blocked in [`Budget::reserve_blocking`].
    waiting: usize,
}

/// RAII hold on budget bytes; dropping it releases them and wakes waiters.
pub struct Reservation<'a> {
    budget: &'a Budget,
    bytes: usize,
}

impl Budget {
    pub fn new(total: usize) -> Self {
        Budget { total, state: Mutex::new(Ledger::default()), freed: Condvar::new() }
    }

    /// Bytes the daemon may hand out in total.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Bytes currently reserved by running jobs.
    pub fn reserved(&self) -> usize {
        self.state.lock().reserved
    }

    /// Threads currently blocked in [`Budget::reserve_blocking`] — the
    /// daemon's "queued jobs" gauge, and the handle tests use to observe
    /// that a job is parked rather than running.
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting
    }

    /// Admission check: can this request *ever* be scheduled? Rejects
    /// requests larger than the total (they would queue forever) and
    /// requests below the engine minimum (they would panic the engine).
    /// Does not reserve anything.
    pub fn check(&self, bytes: usize) -> Result<(), RejectReason> {
        if bytes < MIN_JOB_BYTES {
            return Err(RejectReason::BudgetTooSmall { requested: bytes });
        }
        if bytes > self.total {
            return Err(RejectReason::BudgetExceedsTotal { requested: bytes, total: self.total });
        }
        Ok(())
    }

    /// Reserve without waiting; `None` when the free budget is too small
    /// right now (the caller reports the job as queued, then blocks).
    pub fn try_reserve(&self, bytes: usize) -> Option<Reservation<'_>> {
        let mut g = self.state.lock();
        if g.reserved.saturating_add(bytes) > self.total {
            return None;
        }
        g.reserved += bytes;
        Some(Reservation { budget: self, bytes })
    }

    /// Reserve, waiting for running jobs to release budget if needed. A
    /// request larger than the total would wait forever, so it is clamped
    /// to the total (a job passed [`Budget::check`] first; a mutation
    /// batch's footprint is only clamped).
    pub fn reserve_blocking(&self, bytes: usize) -> Reservation<'_> {
        let bytes = bytes.min(self.total);
        let mut g = self.state.lock();
        g.waiting += 1;
        while g.reserved.saturating_add(bytes) > self.total {
            g = self.freed.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        g.waiting -= 1;
        g.reserved += bytes;
        Reservation { budget: self, bytes }
    }
}

impl Reservation<'_> {
    /// Bytes held by this reservation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        let mut g = self.budget.state.lock();
        g.reserved = g.reserved.saturating_sub(self.bytes);
        drop(g);
        self.budget.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_impossible_and_undersized_requests() {
        let b = Budget::new(1 << 20);
        assert!(b.check(1 << 16).is_ok());
        let Err(small) = b.check(MIN_JOB_BYTES - 1) else {
            unreachable!("undersized request accepted");
        };
        assert_eq!(small.code(), "budget-too-small");
        let Err(big) = b.check((1 << 20) + 1) else {
            unreachable!("impossible request accepted");
        };
        assert_eq!(big.code(), "budget-exceeds-total");
    }

    #[test]
    fn reservations_release_on_drop() {
        let b = Budget::new(100 << 10);
        let r1 = b.try_reserve(60 << 10);
        assert!(r1.is_some());
        assert_eq!(b.reserved(), 60 << 10);
        assert!(b.try_reserve(60 << 10).is_none(), "over-commit must fail");
        drop(r1);
        assert_eq!(b.reserved(), 0);
        assert!(b.try_reserve(60 << 10).is_some());
    }

    #[test]
    fn blocking_reservation_proceeds_after_release() {
        let b = Budget::new(64 << 10);
        let first = b.try_reserve(64 << 10);
        assert!(first.is_some());
        let mut got = 0usize;
        mlvc_par::scope(|s| {
            let waiter = s.spawn(|| b.reserve_blocking(48 << 10).bytes());
            // Release the whole budget from this thread; the waiter can
            // only complete once the drop's notify lands.
            drop(first);
            if let Ok(bytes) = waiter.join() {
                got = bytes;
            }
        });
        assert_eq!(got, 48 << 10);
        assert_eq!(b.reserved(), 0, "waiter's reservation also dropped");
    }
}
