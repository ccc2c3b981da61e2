use crate::rng::SeededRng;
use mlvc_graph::{Csr, EdgeListBuilder, VertexId};

/// Erdős–Rényi G(n, m): `m` undirected edges drawn uniformly at random
/// (self-loops and duplicates removed, so the result may have slightly
/// fewer than `m` distinct edges). Deterministic in `seed`. Serial: a
/// draw in `0..n` may be rejected and redrawn, so a sample's draw count
/// varies and the stream cannot be split by jumping (`rng` module doc).
/// Panics where [`check_erdos_renyi`] fails.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    crate::require(check_erdos_renyi(n));
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut b = EdgeListBuilder::new(n)
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true);
    b.reserve(m);
    for _ in 0..m {
        let src = rng.gen_range(0..n) as VertexId;
        let dst = rng.gen_range(0..n) as VertexId;
        b.push(src, dst);
    }
    b.build()
}

/// [`erdos_renyi`]'s precondition, as an error instead of a panic: at
/// least two vertices (and fewer than 2³², vertex ids being `u32`).
pub fn check_erdos_renyi(n: usize) -> Result<(), String> {
    if n < 2 || u32::try_from(n).is_err() {
        return Err(format!("Erdős–Rényi needs 2..2^32 vertices, got {n}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roughly_m_edges_both_directions() {
        let g = erdos_renyi(1000, 5000, 11);
        // Stored edges ≈ 2m minus collisions/self-loops.
        assert!(g.num_edges() > 9000 && g.num_edges() <= 10000);
    }

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(100, 300, 5), erdos_renyi(100, 300, 5));
    }

    #[test]
    fn degrees_are_balanced() {
        let g = erdos_renyi(2000, 20000, 2);
        let max = (0..2000u32).map(|v| g.degree(v)).max().unwrap();
        // ER has no heavy tail: max degree stays within a small factor of mean.
        let mean = g.num_edges() as f64 / 2000.0;
        assert!((max as f64) < mean * 3.0, "max {max} vs mean {mean}");
    }
}
