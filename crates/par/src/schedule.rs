//! Seeded spawn-order permutation (DESIGN.md §14): with a seed set, each
//! fan-out spawns its jobs in a reproducible shuffled order, so one test
//! replays interleavings that program order alone never produces. With no
//! seed — every production run — spawning stays in job order and nothing
//! here allocates.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static SCHEDULE_ON: AtomicBool = AtomicBool::new(false);
static SCHEDULE_SEED: AtomicU64 = AtomicU64::new(0);
static SPAWN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Seed the spawn-order permutation (`None` restores program order).
/// Each fan-out site draws a fresh permutation from `seed` and a
/// per-process spawn sequence number, so one seed exercises different
/// orders at every join point while staying reproducible. Process-global,
/// like the thread-count override.
pub fn set_schedule_seed(seed: Option<u64>) {
    match seed {
        Some(s) => {
            SCHEDULE_SEED.store(s, Ordering::SeqCst);
            SPAWN_SEQ.store(0, Ordering::SeqCst);
            SCHEDULE_ON.store(true, Ordering::SeqCst);
        }
        None => SCHEDULE_ON.store(false, Ordering::SeqCst),
    }
}

fn splitmix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which a fan-out of `n` jobs should spawn: `None` (job
/// order) unless a schedule seed is set and there is something to permute,
/// else a seeded Fisher–Yates shuffle of `0..n`.
pub(crate) fn spawn_order(n: usize) -> Option<Vec<usize>> {
    if n < 2 || !SCHEDULE_ON.load(Ordering::SeqCst) {
        return None;
    }
    let seed = SCHEDULE_SEED.load(Ordering::SeqCst);
    let seq = SPAWN_SEQ.fetch_add(1, Ordering::SeqCst);
    let mut s = splitmix(seed ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        s = splitmix(s);
        let j = (s % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_seed_permutes_deterministically() {
        set_schedule_seed(Some(42));
        let a = spawn_order(8);
        set_schedule_seed(Some(42));
        let b = spawn_order(8);
        set_schedule_seed(None);
        assert_eq!(a, b, "same seed, same first permutation");
        let mut sorted = a.unwrap_or_default();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "must be a permutation");
        assert_eq!(spawn_order(8), None, "off means job order");
    }
}
