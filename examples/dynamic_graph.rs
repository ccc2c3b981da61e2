//! Graph structural updates (paper §V-E): a program that *mutates* the
//! graph while running — new edges are buffered per vertex interval,
//! visible to the loader immediately, and merged into the on-SSD CSR after
//! a threshold, through the same crash-consistent commit live mutation
//! batches take (DESIGN.md §17). `add_edge` is *ensure present*: a shortcut
//! to a vertex that is already a neighbor changes nothing.
//!
//! The scenario: a contact network grows by "introductions" while gossip
//! (min-flood) spreads from vertex 0. Every message announces one of its
//! sender's contacts; a vertex meets the contact announced by the message
//! that first reached it (triadic closure: me – introducer – contact
//! becomes me – contact) and passes the gossip on one superstep later,
//! over its *new* adjacency list — so the shortcuts carry messages while
//! they are still pending in the buffer, and after they were merged.
//!
//! ```sh
//! cargo run --release --example dynamic_graph
//! ```

use std::sync::Arc;

use multilogvc::core::{Engine, InitActive, Update, VertexCtx, VertexProgram};
use multilogvc::prelude::*;

/// State of a vertex that added a shortcut and gossips next superstep.
const PENDING: u64 = 1 << 63;
/// A message is `hop | contact << 32`.
const HOP_MASK: u64 = 0xFFFF_FFFF;

struct GrowAndGossip;

impl GrowAndGossip {
    /// Pass the gossip on, announcing a pseudo-random contact of mine.
    fn gossip(ctx: &mut VertexCtx<'_>, hop: u64) {
        ctx.set_state(hop);
        let pick = ctx.rand_u64() as usize;
        let edges = ctx.edges();
        let mine = edges.get(pick % edges.len().max(1)).unwrap_or(ctx.vertex());
        ctx.send_all((hop + 1) | (mine as u64) << 32);
    }
}

impl VertexProgram for GrowAndGossip {
    fn name(&self) -> &'static str {
        "grow-and-gossip"
    }

    fn init_state(&self, _v: u32) -> u64 {
        u64::MAX // unreached
    }

    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::Seeds(vec![Update::new(0, 0, 0)])
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let state = ctx.state();
        if state == u64::MAX {
            let first = ctx.msgs()[0];
            let (hop, contact) = (first.data & HOP_MASK, (first.data >> 32) as u32);
            if contact != ctx.vertex() {
                // My new shortcut (a no-op if we already know each other);
                // it is part of my list from the next superstep on.
                ctx.add_edge(contact);
                ctx.set_state(hop | PENDING);
                ctx.keep_active();
            } else {
                Self::gossip(ctx, hop);
            }
        } else if state & PENDING != 0 {
            Self::gossip(ctx, state & !PENDING);
        }
    }
}

fn main() {
    // A sparse ring-of-cliques so shortcuts matter.
    let mut b = multilogvc::graph::EdgeListBuilder::new(4096).symmetrize(true);
    for v in 0..4096u32 {
        b.push(v, (v + 1) % 4096);
        if v % 8 == 0 {
            b.push(v, (v + 17) % 4096);
        }
    }
    let graph = b.build();
    println!(
        "initial graph: {} vertices, {} stored edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Same program with the edge-log optimizer on and off: where adjacency
    // is read from must not change what the gossip computes or what the
    // stored graph becomes.
    let run = |edge_log: bool| {
        let ssd = Arc::new(Ssd::new(SsdConfig::default()));
        let stored = StoredGraph::store(&ssd, &graph, "dyn").expect("fresh device");
        ssd.stats().reset();
        let cfg = EngineConfig::default().with_edge_log(edge_log);
        let mut engine = MultiLogEngine::new(Arc::clone(&ssd), stored, cfg);
        let report = engine.run(&GrowAndGossip, 4096);
        assert!(report.converged);
        let final_graph = engine.graph().to_csr().expect("read back stored graph");
        (engine.states().to_vec(), final_graph, report)
    };
    let (states, final_graph, report) = run(true);

    let reached = states.iter().filter(|&&s| s != u64::MAX).count();
    let max_hop = states.iter().filter(|&&s| s != u64::MAX).max().unwrap();
    println!(
        "gossip reached {reached} vertices in {} supersteps (max hop {max_hop})",
        report.supersteps.len()
    );

    // The structural updates really landed in the stored CSR: it grew by
    // exactly the edges the merges report as effective.
    let merged = report.mutations.expect("the program mutated the graph");
    let in_run = report.supersteps.iter().filter(|s| s.mutations.merges > 0).count();
    println!(
        "final graph: {} stored edges ({} added by triadic closure in {} merges, {in_run} of \
         them while the gossip was still running)",
        final_graph.num_edges(),
        merged.edges_added,
        merged.merges
    );
    assert!(merged.edges_added > 0 && in_run > 0);
    assert_eq!(
        final_graph.num_edges() as u64 - graph.num_edges() as u64,
        merged.edges_added - merged.edges_removed
    );

    let (states_off, final_off, _) = run(false);
    assert_eq!(states, states_off, "gossip result depends on the edge log");
    assert!(final_graph == final_off, "stored graph depends on the edge log");
}
