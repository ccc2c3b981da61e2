use crate::rng::SeededRng;
use mlvc_graph::{Csr, EdgeListBuilder, VertexId};

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m_per_vertex` existing vertices chosen proportionally to degree.
/// Produces a scale-free graph with an exact power-law tail — useful for
/// stressing page-utilization behaviour with extreme hubs. Panics where
/// [`check_barabasi_albert`] fails.
pub fn barabasi_albert(n: usize, m_per_vertex: usize, seed: u64) -> Csr {
    crate::require(check_barabasi_albert(n, m_per_vertex));
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut b = EdgeListBuilder::new(n)
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true);
    // Endpoint pool: each edge contributes both endpoints, so sampling
    // uniformly from the pool is degree-proportional sampling.
    let mut pool: Vec<VertexId> = Vec::with_capacity(2 * n * m_per_vertex);
    // Seed clique over the first m_per_vertex + 1 vertices.
    for i in 0..=m_per_vertex {
        for j in 0..i {
            b.push(i as VertexId, j as VertexId);
            pool.push(i as VertexId);
            pool.push(j as VertexId);
        }
    }
    for v in (m_per_vertex + 1)..n {
        let mut targets = Vec::with_capacity(m_per_vertex);
        let mut guard = 0;
        while targets.len() < m_per_vertex && guard < 100 * m_per_vertex {
            let t = pool[rng.gen_range(0..pool.len())];
            if t != v as VertexId && !targets.contains(&t) {
                targets.push(t);
            }
            guard += 1;
        }
        for &t in &targets {
            b.push(v as VertexId, t);
            pool.push(v as VertexId);
            pool.push(t);
        }
    }
    b.build()
}

/// [`barabasi_albert`]'s precondition, as an error instead of a panic: at
/// least one attachment per vertex, more vertices than attachments (the
/// seed clique has `m_per_vertex + 1`), and fewer than 2³² vertices.
pub fn check_barabasi_albert(n: usize, m_per_vertex: usize) -> Result<(), String> {
    if m_per_vertex == 0 {
        return Err("Barabási–Albert needs at least one edge per vertex".into());
    }
    if n <= m_per_vertex || u32::try_from(n).is_err() {
        return Err(format!(
            "Barabási–Albert needs more vertices than edges per vertex ({m_per_vertex}) and \
             fewer than 2^32, got {n}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_late_vertex_attaches() {
        let g = barabasi_albert(500, 3, 9);
        for v in 4..500u32 {
            assert!(g.degree(v) >= 3, "vertex {v} degree {}", g.degree(v));
        }
    }

    #[test]
    fn has_hubs() {
        let g = barabasi_albert(2000, 2, 1);
        let max = (0..2000u32).map(|v| g.degree(v)).max().unwrap();
        assert!(max > 40, "preferential attachment should grow hubs, max={max}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(barabasi_albert(300, 2, 4), barabasi_albert(300, 2, 4));
    }
}
