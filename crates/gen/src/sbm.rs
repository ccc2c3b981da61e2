use crate::rng::SeededRng;
use mlvc_graph::{Csr, EdgeListBuilder, VertexId};

/// Stochastic block model parameters: `communities` equal-size blocks over
/// `n` vertices; expected `intra_degree` neighbors inside the block and
/// `inter_degree` outside. Planted community structure gives the CDLP
/// application (paper §VII) a ground truth to converge toward.
#[derive(Debug, Clone, Copy)]
pub struct SbmParams {
    pub n: usize,
    pub communities: usize,
    pub intra_degree: f64,
    pub inter_degree: f64,
}

impl SbmParams {
    /// [`sbm`]'s precondition, as an error instead of a panic: at least one
    /// community, no more communities than vertices, and fewer than 2³²
    /// vertices.
    pub fn check(&self) -> Result<(), String> {
        if self.communities == 0 || self.n < self.communities || u32::try_from(self.n).is_err() {
            return Err(format!(
                "SBM needs 1..=n communities over fewer than 2^32 vertices, got {} over {}",
                self.communities, self.n
            ));
        }
        Ok(())
    }
}

/// Generate an SBM graph, deterministic in `seed`. Serial, as ER is.
/// Panics where [`SbmParams::check`] fails.
pub fn sbm(p: SbmParams, seed: u64) -> Csr {
    crate::require(p.check());
    let mut rng = SeededRng::seed_from_u64(seed);
    let block = p.n / p.communities;
    let mut b = EdgeListBuilder::new(p.n)
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true);
    let m_intra = (p.n as f64 * p.intra_degree / 2.0) as usize;
    let m_inter = (p.n as f64 * p.inter_degree / 2.0) as usize;
    for _ in 0..m_intra {
        let c = rng.gen_range(0..p.communities);
        let lo = c * block;
        let hi = if c == p.communities - 1 { p.n } else { lo + block };
        let s = rng.gen_range(lo..hi) as VertexId;
        let d = rng.gen_range(lo..hi) as VertexId;
        b.push(s, d);
    }
    for _ in 0..m_inter {
        let s = rng.gen_range(0..p.n) as VertexId;
        let d = rng.gen_range(0..p.n) as VertexId;
        b.push(s, d);
    }
    b.build()
}

/// Ground-truth community of a vertex under the equal-block layout.
pub fn sbm_community(p: &SbmParams, v: VertexId) -> usize {
    ((v as usize) / (p.n / p.communities)).min(p.communities - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_edges_dominate() {
        let p = SbmParams { n: 1000, communities: 4, intra_degree: 10.0, inter_degree: 1.0 };
        let g = sbm(p, 3);
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (s, d) in g.edges() {
            if sbm_community(&p, s) == sbm_community(&p, d) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 5 * inter, "intra {intra} inter {inter}");
    }

    #[test]
    fn deterministic() {
        let p = SbmParams { n: 200, communities: 2, intra_degree: 6.0, inter_degree: 0.5 };
        assert_eq!(sbm(p, 9), sbm(p, 9));
    }

    #[test]
    fn community_assignment_covers_all() {
        let p = SbmParams { n: 103, communities: 4, intra_degree: 4.0, inter_degree: 0.4 };
        for v in 0..103u32 {
            assert!(sbm_community(&p, v) < 4);
        }
    }
}
