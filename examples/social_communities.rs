//! Community detection on a social network with planted structure — the
//! CDLP workload of the paper (§VII), which *requires* individually
//! preserved messages and therefore cannot run on merge-based systems.
//!
//! Runs the same program on MultiLogVC and the GraphChi baseline, checks
//! the engines agree, scores recovery of the planted communities, and
//! compares the page traffic of the two engines.
//!
//! ```sh
//! cargo run --release --example social_communities
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use multilogvc::core::Engine;
use multilogvc::graph::{VertexIntervals, UPDATE_BYTES};
use multilogvc::prelude::*;

fn main() {
    // A 4-community stochastic block model.
    let params = mlvc_gen::SbmParams {
        n: 4000,
        communities: 4,
        intra_degree: 14.0,
        inter_degree: 1.0,
    };
    let graph = mlvc_gen::sbm(params, 9);
    println!(
        "SBM: {} vertices, {} stored edges, 4 planted communities",
        graph.num_vertices(),
        graph.num_edges()
    );

    let intervals = VertexIntervals::for_graph(&graph, UPDATE_BYTES, 256 << 10);

    // MultiLogVC.
    let ssd_m = Arc::new(Ssd::new(SsdConfig::default()));
    let sg = StoredGraph::store_with(&ssd_m, &graph, "sbm", intervals.clone())
        .expect("fresh device");
    ssd_m.stats().reset();
    let mut mlvc = MultiLogEngine::new(ssd_m, sg, EngineConfig::default());
    let rm = mlvc.run(&Cdlp, 15);

    // GraphChi baseline.
    let ssd_g = Arc::new(Ssd::new(SsdConfig::default()));
    let mut gchi = GraphChiEngine::new(ssd_g, &graph, intervals, EngineConfig::default())
        .expect("fresh device");
    let rg = gchi.run(&Cdlp, 15);

    assert_eq!(mlvc.states(), gchi.states(), "engines must agree exactly");

    // Score: within each planted block, how dominant is the top label?
    let block = params.n / params.communities;
    println!("\nplanted block -> dominant detected label coverage");
    for b in 0..params.communities {
        let mut freq: HashMap<u64, usize> = HashMap::new();
        for v in b * block..(b + 1) * block {
            *freq.entry(mlvc.states()[v]).or_insert(0) += 1;
        }
        let (label, count) = freq.into_iter().max_by_key(|&(_, c)| c).unwrap();
        println!(
            "  block {b}: label {label} covers {count}/{block} ({:.0}%)",
            100.0 * count as f64 / block as f64
        );
    }

    println!(
        "\nI/O: MultiLogVC {} pages, GraphChi {} pages ({:.2}x), \
         sim-time speedup {:.2}x",
        rm.total_pages(),
        rg.total_pages(),
        rg.total_pages() as f64 / rm.total_pages().max(1) as f64,
        rm.speedup_over(&rg)
    );
    println!(
        "activity: superstep 1 processed {} vertices; superstep {} processed {}",
        rm.supersteps.first().map(|s| s.active_vertices).unwrap_or(0),
        rm.supersteps.len(),
        rm.supersteps.last().map(|s| s.active_vertices).unwrap_or(0),
    );
}
