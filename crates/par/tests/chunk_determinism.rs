//! Chunk-boundary determinism property tests (DESIGN.md §14): `par_chunk_map`
//! must agree with its serial oracles at every thread count, because chunk boundaries move with `MLVC_THREADS` and any
//! boundary-condition bug (dropped element, double-visited seam, reordered
//! chunk) shows up as a divergence.
//!
//! One `#[test]` function: the thread-count override is process-global.

use mlvc_par::{par_chunk_map, set_thread_override};

#[test]
fn par_chunk_map_matches_serial_oracles_at_all_thread_counts() {
    // Lengths straddle every interesting boundary: empty, singleton, just
    // below/at/above each thread count, and chunk-size seams.
    let lens: [u64; 12] = [0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 100, 1000];
    for &n in &lens {
        let a: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();

        // Serial oracles, computed once per length.
        let map_oracle: Vec<u64> = a.iter().map(|x| x.wrapping_mul(31)).collect();
        let sum_oracle: u64 = a.iter().fold(0u64, |acc, x| acc.wrapping_add(*x));

        for threads in [1usize, 2, 7, 8] {
            set_thread_override(Some(threads));

            // Per-chunk buffers must concatenate back to the serial map:
            // chunk boundaries may move, element order may not.
            let chunks: Vec<Vec<u64>> =
                par_chunk_map(&a, |c| c.iter().map(|x| x.wrapping_mul(31)).collect());
            assert_eq!(
                chunks.concat(),
                map_oracle,
                "par_chunk_map concat diverged at n={n} threads={threads}"
            );
            if n == 0 {
                assert!(chunks.is_empty(), "empty input must produce no chunks");
            }

            // Chunking-invariant reduction: per-chunk sums total the same.
            let sums: Vec<u64> =
                par_chunk_map(&a, |c| c.iter().fold(0u64, |acc, x| acc.wrapping_add(*x)));
            assert_eq!(
                sums.iter().fold(0u64, |acc, x| acc.wrapping_add(*x)),
                sum_oracle,
                "par_chunk_map sums diverged at n={n} threads={threads}"
            );
        }
        set_thread_override(None);
    }
}
