//! Seeded violations for `no-relaxed-ordering-outside-obs`: relaxed
//! atomics belong only in `RelaxedCounter`.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

pub fn read(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

pub fn seq_cst_is_fine(c: &AtomicU64) {
    c.fetch_add(1, Ordering::SeqCst);
}

pub fn waived(c: &AtomicU64) -> u64 {
    // mlvc-lint: allow(no-relaxed-ordering-outside-obs) -- fixture shows a reasoned waiver
    c.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn relaxed_in_tests_is_exempt() {
        bump(&AtomicU64::new(0));
        let x = std::sync::atomic::AtomicU64::new(0);
        x.store(1, std::sync::atomic::Ordering::Relaxed);
    }
}
