//! Table I's stand-in datasets pinned as literals: every graph is a pure
//! function of `(params, seed)`, whatever the thread count that drew it.
//!
//! R-MAT draws its samples in contiguous chunks, one per worker, each from
//! the seed's one stream jumped to the chunk's first draw; below a fork
//! threshold it draws them all on the calling thread. Each pin below was
//! recorded from the serial generator and is asserted at 1, 2 and 8
//! threads; (14, 42) — Table I's scale — crosses the threshold at 2 and 8.

use std::sync::{Mutex, MutexGuard};

use mlvc_gen::{cf_mini, yws_mini};
use mlvc_graph::Csr;

/// The thread override and the spawn counter are process-wide: the tests of
/// this binary take turns.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// FNV-1a (64-bit) over `row_ptr` then `col_idx`, little-endian: written
/// out here because `std`'s `DefaultHasher` promises no output across
/// releases.
fn fnv1a(g: &Csr) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let bytes = g.row_ptr().iter().flat_map(|p| p.to_le_bytes());
    for b in bytes.chain(g.col_idx().iter().flat_map(|c| c.to_le_bytes())) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `(dataset, scale, seed, vertices, stored edges, fnv1a)`.
const PINS: [(&str, u32, u64, usize, usize, u64); 6] = [
    ("CF", 9, 42, 512, 9_442, 0x09d0_2296_b71e_e968),
    ("YWS", 9, 42, 1_024, 9_292, 0x7112_202e_17a7_ec05),
    ("CF", 12, 7, 4_096, 96_876, 0xe3c5_9f7d_ed19_0a43),
    ("YWS", 12, 7, 8_192, 88_668, 0xc025_f90e_0d8c_dbcc),
    ("CF", 14, 42, 16_384, 425_652, 0xb2db_7ebf_6c06_86f0),
    ("YWS", 14, 42, 32_768, 382_870, 0x5f64_02e2_c9fc_4720),
];

#[test]
fn datasets_are_pinned_at_every_thread_count() {
    let _turn = turn();
    for threads in [1, 2, 8] {
        mlvc_par::set_thread_override(Some(threads));
        for (name, scale, seed, vertices, edges, hash) in PINS {
            let g = match name {
                "CF" => cf_mini(scale, seed).graph,
                _ => yws_mini(scale, seed).graph,
            };
            let got = (g.num_vertices(), g.num_edges(), fnv1a(&g));
            assert_eq!(
                got,
                (vertices, edges, hash),
                "{name} scale {scale} seed {seed} at {threads} threads"
            );
        }
    }
    mlvc_par::set_thread_override(None);
}

#[test]
fn a_graph_below_the_fork_threshold_spawns_no_thread() {
    let _turn = turn();
    mlvc_par::set_thread_override(Some(8));
    // 2^12 vertices × 16 edges = 2^16 samples: one worker's worth.
    let before = mlvc_par::spawn_count();
    cf_mini(12, 7);
    let small = mlvc_par::spawn_count() - before;
    let before = mlvc_par::spawn_count();
    cf_mini(14, 42);
    let large = mlvc_par::spawn_count() - before;
    mlvc_par::set_thread_override(None);
    assert_eq!(small, 0, "cf_mini(12) spawned");
    assert_eq!(large, 3, "cf_mini(14) at 8 threads: four workers of 2^16 samples");
}
