use crate::rng::SeededRng;
use mlvc_graph::{Csr, EdgeListBuilder, VertexId};

/// Parameters of the recursive-matrix (R-MAT) generator.
///
/// `2^scale` vertices, `edge_factor * 2^scale` undirected edges before
/// dedup/self-loop removal. The (a, b, c, d) quadrant probabilities control
/// skew; `noise` perturbs them per level so degree distributions smooth out
/// (standard Graph500 practice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    pub scale: u32,
    pub edge_factor: usize,
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
    pub noise: f64,
}

impl RmatParams {
    /// Graph500-style social-network skew (stands in for com-friendster).
    pub fn social(scale: u32, edge_factor: usize) -> Self {
        RmatParams { scale, edge_factor, a: 0.57, b: 0.19, c: 0.19, d: 0.05, noise: 0.05 }
    }

    /// More skewed, sparser quadrants typical of web crawls (stands in for
    /// the Yahoo WebScope hyperlink graph).
    pub fn web(scale: u32, edge_factor: usize) -> Self {
        RmatParams { scale, edge_factor, a: 0.65, b: 0.15, c: 0.15, d: 0.05, noise: 0.10 }
    }

    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    pub fn num_edges_target(&self) -> usize {
        self.edge_factor << self.scale
    }

    /// The generator's precondition, as an error instead of a panic: `scale`
    /// in `1..=30` (vertex ids are `u32`), at least one edge per vertex,
    /// quadrant probabilities in `[0, 1]` summing to 1, and `noise` in
    /// `[0, 2]`, so no per-level probability goes negative. [`rmat`]
    /// asserts through it; a caller holding untrusted parameters (`mlvc
    /// gen`) calls it first.
    pub fn check(&self) -> Result<(), String> {
        if !(1..=30).contains(&self.scale) {
            return Err(format!("R-MAT scale must be in 1..=30, got {}", self.scale));
        }
        if self.edge_factor == 0 {
            return Err("R-MAT needs at least one edge per vertex".into());
        }
        let quadrants = [self.a, self.b, self.c, self.d];
        let sum = self.a + self.b + self.c + self.d;
        if quadrants.iter().any(|q| !(0.0..=1.0).contains(q)) || (sum - 1.0).abs() >= 1e-9 {
            return Err(format!(
                "R-MAT quadrant probabilities must be in [0, 1] and sum to 1, got {quadrants:?}"
            ));
        }
        if !(0.0..=2.0).contains(&self.noise) {
            return Err(format!("R-MAT noise must be in [0, 2], got {}", self.noise));
        }
        Ok(())
    }
}

/// Samples each worker must draw before [`rmat`] splits the stream; below
/// twice this the calling thread draws them all, with no jump and no spawn.
/// A sample is `5 · scale` draws, ≈ 0.3 µs at scale 17; a worker's jump to
/// its chunk's first draw is ≈ 30 squarings of a 256×256 bit matrix,
/// ≈ 2 ms, and its spawn tens of µs. At 2¹⁶ samples (≈ 20 ms of drawing)
/// the two stay under a tenth of a chunk, and a graph of scale ≤ 13 at 8
/// edges a vertex (≤ 12 at 16) stays serial. Results do not depend on it:
/// the stream is the same one at any split.
const FORK_MIN_SAMPLES: usize = 1 << 16;

/// Generate an undirected R-MAT graph (both directions stored, self-loops
/// dropped, duplicates removed), deterministically from `seed` — the same
/// graph at any thread count. The samples split into contiguous chunks, one
/// a worker, each drawn from the seed's one stream jumped to its first
/// draw ([`SeededRng::jumped`]: a sample is exactly `5 · scale` draws), and
/// the chunks join in order. Panics where [`RmatParams::check`] fails.
pub fn rmat(params: RmatParams, seed: u64) -> Csr {
    crate::require(params.check());
    let m = params.num_edges_target();
    let rng = SeededRng::seed_from_u64(seed);
    let workers = mlvc_par::max_threads().min(m / FORK_MIN_SAMPLES).max(1);
    let chunk = m.div_ceil(workers);
    let starts: Vec<usize> = (0..m).step_by(chunk).collect();
    let draws_per_sample = 5 * u64::from(params.scale);
    let chunks = mlvc_par::par_map(&starts, |&lo| {
        let mut rng = rng.jumped(lo as u64 * draws_per_sample);
        (lo..m.min(lo + chunk))
            .map(|_| sample_edge(&params, &mut rng))
            .collect::<Vec<_>>()
    });
    let mut b = EdgeListBuilder::new(params.num_vertices())
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true);
    b.reserve(m);
    for (src, dst) in chunks.into_iter().flatten() {
        b.push(src, dst);
    }
    b.build()
}

/// One edge: per level, four noisy quadrant weights and one draw to pick
/// a quadrant — exactly `5 · scale` draws, the count [`rmat`]'s chunk
/// jumps rest on. The quadrant is how many of the three cumulative
/// thresholds the draw reaches (the weights are non-negative, so the
/// thresholds ascend): 0 top-left, 1 top-right (destination bit), 2
/// bottom-left (source bit), 3 bottom-right (both).
fn sample_edge(p: &RmatParams, rng: &mut SeededRng) -> (VertexId, VertexId) {
    let mut src = 0u64;
    let mut dst = 0u64;
    for _ in 0..p.scale {
        // Per-level noisy quadrant probabilities.
        let na = p.a * (1.0 + p.noise * (rng.gen_f64() - 0.5));
        let nb = p.b * (1.0 + p.noise * (rng.gen_f64() - 0.5));
        let nc = p.c * (1.0 + p.noise * (rng.gen_f64() - 0.5));
        let nd = p.d * (1.0 + p.noise * (rng.gen_f64() - 0.5));
        let total = na + nb + nc + nd;
        let r: f64 = rng.gen_f64() * total;
        let q = u64::from(r >= na) + u64::from(r >= na + nb) + u64::from(r >= na + nb + nc);
        src = (src << 1) | (q >> 1);
        dst = (dst << 1) | (q & 1);
    }
    (src as VertexId, dst as VertexId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let p = RmatParams::social(8, 4);
        let a = rmat(p, 7);
        let b = rmat(p, 7);
        assert_eq!(a, b);
        let c = rmat(p, 8);
        assert_ne!(a, c, "different seed, different graph");
    }

    #[test]
    fn undirected_and_clean() {
        let g = rmat(RmatParams::social(8, 4), 1);
        let n = g.num_vertices();
        assert_eq!(n, 256);
        // No self loops, every edge has its reverse.
        for (s, d) in g.edges() {
            assert_ne!(s, d);
            assert!(g.out_edges(d).contains(&s), "missing reverse of {s}->{d}");
        }
        // In-degree == out-degree (undirected, both directions stored).
        let ind = g.in_degrees();
        for v in 0..n as u32 {
            assert_eq!(ind[v as usize] as usize, g.degree(v));
        }
    }

    #[test]
    fn power_law_skew() {
        let g = rmat(RmatParams::social(12, 8), 3);
        let n = g.num_vertices();
        let mut degs: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: usize = degs[..n / 100].iter().sum();
        let total: usize = degs.iter().sum();
        // Heavy tail: top 1% of vertices should hold well above 1% of edges.
        assert!(
            top1pct as f64 > 0.08 * total as f64,
            "top 1% holds {} of {} edges",
            top1pct,
            total
        );
        // And some vertices should be isolated or near-isolated (skew).
        assert!(degs.last().copied().unwrap() <= 1);
    }

    #[test]
    fn web_params_are_more_skewed_than_social() {
        // Higher `a` concentrates edges into a smaller vertex core, leaving
        // more of the id space untouched — a robust skew indicator.
        let gs = rmat(RmatParams::social(11, 8), 5);
        let gw = rmat(RmatParams::web(11, 8), 5);
        let iso = |g: &Csr| (0..g.num_vertices() as u32).filter(|&v| g.degree(v) == 0).count();
        let (is, iw) = (iso(&gs), iso(&gw));
        assert!(iw > is, "web isolated {iw} vs social {is}");
    }

    #[test]
    fn a_sample_is_five_draws_a_level() {
        for p in [RmatParams::social(9, 1), RmatParams::web(17, 1)] {
            let mut rng = SeededRng::seed_from_u64(3);
            for _ in 0..50 {
                let mut stepped = rng.clone();
                for _ in 0..5 * p.scale {
                    stepped.next_u64();
                }
                sample_edge(&p, &mut rng);
                assert_eq!(rng, stepped, "scale {}", p.scale);
            }
        }
    }

    #[test]
    fn check_names_each_bad_parameter() {
        assert!(RmatParams::social(14, 16).check().is_ok());
        for (bad, says) in [
            (RmatParams::social(0, 8), "scale"),
            (RmatParams::social(31, 8), "scale"),
            (RmatParams::web(10, 0), "edge per vertex"),
            (RmatParams { a: 0.9, ..RmatParams::social(10, 8) }, "sum to 1"),
            (RmatParams { a: 0.81, d: -0.19, ..RmatParams::social(10, 8) }, "[0, 1]"),
            (RmatParams { noise: 2.5, ..RmatParams::social(10, 8) }, "noise"),
        ] {
            let err = bad.check().expect_err("a bad parameter passes");
            assert!(err.contains(says), "{err:?} does not say {says:?}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_bad_probabilities() {
        let p = RmatParams { a: 0.5, b: 0.5, c: 0.5, d: 0.5, scale: 4, edge_factor: 2, noise: 0.0 };
        rmat(p, 0);
    }
}
