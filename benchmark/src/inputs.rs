//! Everything a workload consumes, generated from `--seed`: input sizes,
//! the serve request sequence and the mutation batches. The program under
//! test receives only the generated inputs, never the seed's meaning.

use multilogvc::gen::rng::SeededRng;
use multilogvc::graph::Csr;
use multilogvc::mutate::EdgeMutation;

/// Input sizes of one pass. `full` is what `BENCHMARK.json` runs; `smoke`
/// is the compile-and-run check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `cf_mini` scale of `pr-cf`, `rw-cf`, `pr-cf-tiered`.
    pub batch_scale: u32,
    /// Engine memory budget of the batch workloads, bytes.
    pub batch_budget: usize,
    /// Page-cache and pinned-tier budgets of `pr-cf-tiered`, bytes.
    pub tier_cache: usize,
    pub tier_pin: usize,
    /// Scale of both `serve-mix` datasets.
    pub serve_scale: u32,
    /// `memory_kb` of every `serve-mix` run line.
    pub serve_job_kb: usize,
    /// `cf_mini` scale and engine budget of `wcc-mutate`.
    pub mutate_scale: u32,
    pub mutate_budget: usize,
    /// Mutations per `wcc-mutate` round.
    pub mutate_batch: usize,
    /// `cf_mini` scale of the drills' graph, and elements the sort drill
    /// sorts.
    pub drill_scale: u32,
    pub drill_sort_elems: usize,
}

impl Sizes {
    /// One scale below the sizes ISSUE 11 was drafted with (CF-18, 8 MiB):
    /// the acceptance driver makes 114 runs in 57 minutes, which leaves a
    /// run about 20 s for set-up, goldens and measuring. The graph:budget
    /// ratio — 20 intervals — is kept.
    pub const fn full() -> Sizes {
        Sizes {
            batch_scale: 17,
            batch_budget: 4 << 20,
            tier_cache: 2 << 20,
            tier_pin: 14 << 20,
            serve_scale: 15,
            serve_job_kb: 2048,
            mutate_scale: 16,
            mutate_budget: 2 << 20,
            mutate_batch: 2048,
            drill_scale: 16,
            drill_sort_elems: 4 << 20,
        }
    }

    pub const fn smoke() -> Sizes {
        Sizes {
            batch_scale: 10,
            batch_budget: 256 << 10,
            tier_cache: 128 << 10,
            tier_pin: 896 << 10,
            serve_scale: 10,
            serve_job_kb: 256,
            mutate_scale: 10,
            mutate_budget: 256 << 10,
            mutate_batch: 64,
            drill_scale: 10,
            drill_sort_elems: 1 << 16,
        }
    }
}

/// Independent random streams off one seed.
pub fn stream(seed: u64, purpose: &str) -> SeededRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in purpose.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SeededRng::seed_from_u64(seed ^ h)
}

fn vertex(rng: &mut SeededRng, g: &Csr) -> u32 {
    u32::try_from(rng.gen_range(0..g.num_vertices())).expect("vertex id fits u32")
}

/// A stored edge picked uniformly by slot.
fn existing_edge(rng: &mut SeededRng, g: &Csr) -> (u32, u32) {
    let slot = rng.gen_range(0..g.col_idx().len());
    let owner = g.row_ptr().partition_point(|&p| p <= slot as u64) - 1;
    (
        u32::try_from(owner).expect("vertex id fits u32"),
        g.col_idx()[slot],
    )
}

/// One `wcc-mutate` round: ¾ adds of random pairs, ¼ removes aimed at
/// edges the base graph stores, so the removals are effective.
pub fn mutation_batch(g: &Csr, seed: u64, round: usize, len: usize) -> Vec<EdgeMutation> {
    let mut rng = stream(seed, &format!("mutation-batch-{round}"));
    (0..len)
        .map(|_| {
            if g.num_edges() > 0 && rng.gen_bool(0.25) {
                let (s, d) = existing_edge(&mut rng, g);
                EdgeMutation::remove(s, d)
            } else {
                EdgeMutation::add(vertex(&mut rng, g), vertex(&mut rng, g))
            }
        })
        .collect()
}

pub const SERVE_DATASETS: [&str; 2] = ["cf", "yws"];
pub const SERVE_APPS: [&str; 3] = ["bfs", "wcc", "pagerank"];
/// Requests per block of the serve sequence: 8 bfs, 6 wcc, 6 pagerank,
/// each app split evenly over the two datasets, in seeded order. Whole
/// blocks keep the mix exact however long a session runs.
pub const SERVE_BLOCK: usize = 20;
/// BFS sources drawn per dataset; a request picks one of them, so the
/// goldens are a fixed small set.
pub const SERVE_BFS_SOURCES: usize = 4;
/// Edges in the `mutate` line that follows every tenth run line.
pub const SERVE_MUTATE_EDGES: usize = 64;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ServeJob {
    pub app: &'static str,
    pub dataset: &'static str,
    /// BFS source; 0 for the other apps.
    pub source: u32,
}

/// Vertices with out-edges, so a BFS from them has work to do.
pub fn bfs_sources(g: &Csr, seed: u64, dataset: &str) -> Vec<u32> {
    let mut rng = stream(seed, &format!("bfs-sources-{dataset}"));
    let mut out = Vec::new();
    while out.len() < SERVE_BFS_SOURCES {
        let v = vertex(&mut rng, g);
        if g.degree(v) > 0 && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Block `block` of the request sequence (see [`SERVE_BLOCK`]).
pub fn serve_block(seed: u64, block: usize, sources: &[Vec<u32>; 2]) -> Vec<ServeJob> {
    let mut rng = stream(seed, &format!("serve-block-{block}"));
    let mut jobs = Vec::with_capacity(SERVE_BLOCK);
    for (app, per_dataset) in [("bfs", 4), ("wcc", 3), ("pagerank", 3)] {
        for (d, dataset) in SERVE_DATASETS.into_iter().enumerate() {
            for _ in 0..per_dataset {
                let source = match app {
                    "bfs" => sources[d][rng.gen_range(0..sources[d].len())],
                    _ => 0,
                };
                jobs.push(ServeJob {
                    app,
                    dataset,
                    source,
                });
            }
        }
    }
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.gen_range(0..i + 1));
    }
    jobs
}

#[derive(Debug, PartialEq, Eq)]
pub struct ServeMutation {
    pub dataset: &'static str,
    pub add: Vec<(u32, u32)>,
    pub remove: Vec<(u32, u32)>,
}

/// The `index`-th mutate line's edges: half adds, half removes of stored
/// edges, on the dataset the index alternates over.
pub fn serve_mutation(graphs: &[Csr; 2], seed: u64, index: usize) -> ServeMutation {
    let d = index % 2;
    let g = &graphs[d];
    let mut rng = stream(seed, &format!("serve-mutation-{index}"));
    let add = (0..SERVE_MUTATE_EDGES / 2)
        .map(|_| (vertex(&mut rng, g), vertex(&mut rng, g)))
        .collect();
    let remove = (0..SERVE_MUTATE_EDGES / 2)
        .map(|_| existing_edge(&mut rng, g))
        .collect();
    ServeMutation {
        dataset: SERVE_DATASETS[d],
        add,
        remove,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multilogvc::mutate::MutationOp;

    fn graph(seed: u64) -> Csr {
        multilogvc::gen::cf_mini(8, seed).graph
    }

    #[test]
    fn mutation_batches_repeat_for_a_seed_and_differ_across_rounds() {
        let g = graph(1);
        let a = mutation_batch(&g, 7, 0, 256);
        assert_eq!(a, mutation_batch(&g, 7, 0, 256));
        assert_ne!(a, mutation_batch(&g, 7, 1, 256));
        assert_ne!(a, mutation_batch(&g, 8, 0, 256));
        let removes: Vec<_> = a.iter().filter(|m| m.op == MutationOp::Remove).collect();
        assert!(
            (32..=96).contains(&removes.len()),
            "about a quarter: {}",
            removes.len()
        );
        for m in removes {
            assert!(
                g.out_edges(m.src).contains(&m.dst),
                "removes aim at stored edges"
            );
        }
    }

    #[test]
    fn serve_blocks_repeat_for_a_seed_and_keep_the_mix_exact() {
        let graphs = [graph(1), graph(2)];
        let sources = [
            bfs_sources(&graphs[0], 3, "cf"),
            bfs_sources(&graphs[1], 3, "yws"),
        ];
        assert_eq!(sources[0], bfs_sources(&graphs[0], 3, "cf"));
        assert!(sources[0].iter().all(|&v| graphs[0].degree(v) > 0));
        let a = serve_block(3, 0, &sources);
        assert_eq!(a, serve_block(3, 0, &sources));
        assert_ne!(a, serve_block(3, 1, &sources));
        assert_eq!(a.len(), SERVE_BLOCK);
        for (app, want) in [("bfs", 8), ("wcc", 6), ("pagerank", 6)] {
            assert_eq!(a.iter().filter(|j| j.app == app).count(), want);
        }
        for dataset in SERVE_DATASETS {
            assert_eq!(
                a.iter().filter(|j| j.dataset == dataset).count(),
                SERVE_BLOCK / 2
            );
        }
        let mut other = serve_block(3, 1, &sources);
        let mut same = a.clone();
        other
            .iter_mut()
            .chain(same.iter_mut())
            .for_each(|j| j.source = 0);
        other.sort();
        same.sort();
        assert_eq!(
            other, same,
            "only order and BFS sources vary between blocks"
        );
    }

    #[test]
    fn serve_mutations_repeat_and_stay_in_range() {
        let graphs = [graph(1), graph(2)];
        let m = serve_mutation(&graphs, 5, 3);
        assert_eq!(m.dataset, "yws");
        assert_eq!(m, serve_mutation(&graphs, 5, 3));
        assert_eq!(m.add.len() + m.remove.len(), SERVE_MUTATE_EDGES);
        let n = u32::try_from(graphs[1].num_vertices()).expect("fits");
        assert!(m.add.iter().chain(&m.remove).all(|&(s, d)| s < n && d < n));
    }
}
