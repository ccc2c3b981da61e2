use mlvc_core::{InitActive, VertexCtx, VertexProgram};
use mlvc_graph::VertexId;

/// Decision state of a vertex in [`Mis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisState {
    Unknown,
    InSet,
    Excluded,
}

// State word layout: low 2 bits = decision tag; upper 62 bits = the
// priority drawn in the select phase, carried to the decide phase.
const TAG_UNKNOWN: u64 = 0;
const TAG_IN_SET: u64 = 1;
const TAG_EXCLUDED: u64 = 2;

/// Message payload announcing set membership. Priorities are 62-bit, so
/// `u64::MAX` is unambiguous.
const IN_SET_MSG: u64 = u64::MAX;

/// Luby's maximal independent set (MIS; the paper cites the Pregel-style
/// formulation of Salihoglu & Widom \[26\]).
///
/// Rounds of two supersteps over the *undecided* subgraph:
///
/// * **select** (odd supersteps): an undecided vertex first handles
///   pending `InSet` notifications (→ `Excluded`); otherwise it draws a
///   62-bit random priority, stashes it in its state word, announces it to
///   its neighbors, and stays active;
/// * **decide** (even supersteps): a vertex whose `(priority, id)` is
///   smaller than every announcement it received joins the set and
///   notifies its neighbors; beaten vertices stay undecided for the next
///   round.
///
/// Every announcement is consumed individually alongside exclusion
/// notifications, so MIS sits in the paper's "merging updates not
/// possible" class (GraphChi and MultiLogVC only). Priorities come from
/// the deterministic per-(run, vertex, superstep) stream, so results are
/// identical across engines.
///
/// "As vertices are selected with a probability, fewer active vertices are
/// in a superstep" (§VIII) — the shrinking-activity shape of Fig. 6d.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mis;

impl Mis {
    pub fn state(state: u64) -> MisState {
        match state & 3 {
            TAG_IN_SET => MisState::InSet,
            TAG_EXCLUDED => MisState::Excluded,
            _ => MisState::Unknown,
        }
    }
}

impl VertexProgram for Mis {
    fn name(&self) -> &'static str {
        "mis"
    }

    fn init_state(&self, _v: VertexId) -> u64 {
        TAG_UNKNOWN
    }

    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::All
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        if ctx.state() & 3 != TAG_UNKNOWN {
            return;
        }
        let select_phase = ctx.superstep() % 2 == 1;
        if select_phase {
            if ctx.msgs().iter().any(|m| m.data == IN_SET_MSG) {
                ctx.set_state(TAG_EXCLUDED);
                return;
            }
            let p = ctx.rand_u64() >> 2;
            ctx.set_state(p << 2 | TAG_UNKNOWN);
            ctx.send_all(p);
            ctx.keep_active();
        } else {
            let me = (ctx.state() >> 2, ctx.vertex());
            let beaten = ctx
                .msgs()
                .iter()
                .filter(|m| m.data != IN_SET_MSG)
                .any(|m| (m.data, m.src) < me);
            if beaten {
                ctx.set_state(TAG_UNKNOWN);
                ctx.keep_active();
            } else {
                ctx.set_state(TAG_IN_SET);
                ctx.send_all(IN_SET_MSG);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_maximal_independent_set;
    use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
    use mlvc_graph::{StoredGraph, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    fn run_mis(csr: &mlvc_graph::Csr, steps: usize) -> (Vec<MisState>, bool) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(csr.num_vertices(), 4);
        let sg = StoredGraph::store_with(&ssd, csr, "m", iv).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&Mis, steps);
        (
            eng.states().iter().map(|&s| Mis::state(s)).collect(),
            r.converged,
        )
    }

    #[test]
    fn mis_on_cycle_is_valid_and_maximal() {
        let g = mlvc_gen::cycle(20);
        let (states, converged) = run_mis(&g, 100);
        assert!(converged);
        let in_set: Vec<bool> = states.iter().map(|&s| s == MisState::InSet).collect();
        assert!(is_maximal_independent_set(&g, &in_set));
        assert!(states.iter().all(|&s| s != MisState::Unknown));
    }

    #[test]
    fn mis_on_complete_graph_selects_exactly_one() {
        let g = mlvc_gen::complete(12);
        let (states, converged) = run_mis(&g, 200);
        assert!(converged);
        let count = states.iter().filter(|&&s| s == MisState::InSet).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn mis_on_rmat_is_valid_and_maximal() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(9, 4), 5);
        let (states, converged) = run_mis(&g, 400);
        assert!(converged);
        let in_set: Vec<bool> = states.iter().map(|&s| s == MisState::InSet).collect();
        assert!(is_maximal_independent_set(&g, &in_set));
    }

    #[test]
    fn isolated_vertices_always_join() {
        let mut b = mlvc_graph::EdgeListBuilder::new(4).symmetrize(true);
        b.push(0, 1);
        let (states, _) = run_mis(&b.build(), 50);
        assert_eq!(states[2], MisState::InSet);
        assert_eq!(states[3], MisState::InSet);
    }

    #[test]
    fn runs_are_deterministic() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(8, 4), 6);
        let (a, _) = run_mis(&g, 200);
        let (b, _) = run_mis(&g, 200);
        assert_eq!(a, b);
    }
}
