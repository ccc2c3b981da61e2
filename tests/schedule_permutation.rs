//! Deterministic schedule-permutation harness (DESIGN.md §14): replay the
//! same engine run and the same fan-out primitives under seeded
//! spawn-order shuffles at join points, exercising interleavings a single
//! natural-order run would miss. Every permutation must produce
//! bit-identical results.
//!
//! One `#[test]` function: the schedule seed and the thread override are
//! process-global, and so is the spawn counter each engine run reads.

use std::sync::Arc;

use mlvc_gen::rng::SeededRng;
use multilogvc::apps::{Bfs, PageRank, Wcc};
use multilogvc::core::{Engine, EngineConfig, MultiLogEngine, RunReport, VertexProgram};
use multilogvc::graph::{StoredGraph, VertexIntervals};
use multilogvc::mutate::{EdgeMutation, MutationConfig, MutationLog};
use multilogvc::par;
use multilogvc::prelude::RmatParams;
use multilogvc::ssd::{Ssd, SsdConfig};

/// Per-superstep fingerprint: (messages consumed, messages sent, actives).
type StepCounts = Vec<(u64, u64, u64)>;

/// R-MAT scale, interval count, engine memory and superstep cap of every
/// engine leg: four intervals of 4096 vertices, so an all-active superstep
/// brings each over the process stage's fork threshold and the permuted
/// spawns reach the vertex fan-out, and memory tight enough that such a
/// superstep splits into several fused batches, so more than one
/// look-ahead worker decodes at once.
const SCALE: u32 = 14;
const INTERVALS: usize = 4;
const MEMORY: usize = 1 << 20;
const STEPS: usize = 6;

/// Run `run` and check what it cost in threads: past one thread, the
/// engine's spawns must outnumber the look-ahead workers it handed batches
/// to — the rest are the process stage's fan-out, which the permutation
/// reorders.
fn counting_spawns(run: impl FnOnce() -> RunReport) -> RunReport {
    let before = par::spawn_count();
    let r = run();
    assert!(r.interrupted.is_none());
    if par::max_threads() > 1 {
        let spawned = par::spawn_count() - before;
        let [_, handed_off] = r.batch_totals();
        assert!(handed_off > 0, "no fused batch was handed to a look-ahead worker");
        assert!(spawned > handed_off, "{spawned} spawns for {handed_off} handed-off batches");
    }
    r
}

fn run_engine(prog: &dyn VertexProgram) -> (Vec<u64>, StepCounts) {
    let g = mlvc_gen::rmat(RmatParams::social(SCALE, 8), 0xD7);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(g.num_vertices(), INTERVALS);
    let sg = StoredGraph::store_with(&ssd, &g, "perm", iv).unwrap();
    let cfg = EngineConfig::default().with_memory(MEMORY);
    let mut eng = MultiLogEngine::new(ssd, sg, cfg);
    let r = counting_spawns(|| eng.run(prog, STEPS));
    let steps = r
        .supersteps
        .iter()
        .map(|s| (s.messages_processed, s.messages_sent, s.active_vertices))
        .collect();
    (eng.states().to_vec(), steps)
}

/// The same engine workload with live mutations on: base run, then an
/// edge batch is ingested, merged at the re-convergence boundary, and
/// incrementally re-converged — the mutation log's lock discipline, the
/// merge's queued I/O, and the reseeded scatter all run under permuted
/// schedules. Fingerprints the final states plus both reports' counts.
fn run_engine_mutated(prog: &dyn VertexProgram) -> (Vec<u64>, StepCounts) {
    let g = mlvc_gen::rmat(RmatParams::social(SCALE, 8), 0xD7);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(g.num_vertices(), INTERVALS);
    let sg = StoredGraph::store_with(&ssd, &g, "perm", iv).unwrap();
    let cfg = EngineConfig::default().with_memory(MEMORY);
    let mut eng = MultiLogEngine::new(Arc::clone(&ssd), sg, cfg);
    let base = counting_spawns(|| eng.run(prog, STEPS));
    let mut mlog = MutationLog::new(
        Arc::clone(&ssd),
        VertexIntervals::uniform(g.num_vertices(), INTERVALS),
        MutationConfig::default(),
        "perm",
    )
    .unwrap();
    let n = g.num_vertices() as u32;
    let muts: Vec<EdgeMutation> = (0..24u32)
        .map(|i| {
            let (s, d) = (i.wrapping_mul(97) % n, i.wrapping_mul(193 + i) % n);
            if i % 3 == 0 { EdgeMutation::remove(s, d) } else { EdgeMutation::add(s, d) }
        })
        .collect();
    mlog.ingest(&muts).unwrap();
    eng.attach_mutations(Arc::new(multilogvc::ssd::sync::Mutex::new(mlog))).unwrap();
    let inc = eng.reconverge(prog, STEPS);
    assert!(inc.interrupted.is_none());
    let steps = base
        .supersteps
        .iter()
        .chain(inc.supersteps.iter())
        .map(|s| (s.messages_processed, s.messages_sent, s.active_vertices))
        .collect();
    (eng.states().to_vec(), steps)
}

/// Exercise every fan-out primitive directly and fingerprint the combined
/// output.
fn run_primitives() -> (Vec<u64>, Vec<u64>, Vec<u32>) {
    let xs: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(2654435761) % 997).collect();
    let mapped = par::par_map(&xs, |x| x.wrapping_mul(31).rotate_left(7));
    let chunked = par::par_chunk_map(&xs, |c| c.iter().copied().sum::<u64>());
    let mut sorted: Vec<u32> = xs.iter().map(|&x| u32::try_from(x).unwrap()).collect();
    par::par_sort_by_u32_key(&mut sorted, |&x| x);
    (mapped, chunked, sorted)
}

#[test]
fn permuted_schedules_are_bit_identical() {
    par::set_schedule_seed(None);

    // Baseline under the natural spawn order on one thread, where the owner
    // decodes every fused batch in place and nothing forks; the permuted
    // runs below take eight, where look-ahead workers decode the batches
    // read ahead. Who decodes changes only scheduling, never results, so
    // natural-order runs at two and eight threads must already agree.
    par::set_thread_override(Some(1));
    let base_bfs = run_engine(&Bfs::new(0));
    let base_pr = run_engine(&PageRank::new(0.85, 1e-4));
    // Mutations-on leg of the cross-product: WCC takes the incremental
    // Seed path, PageRank the full-restart path.
    let base_wcc_mut = run_engine_mutated(&Wcc);
    let base_pr_mut = run_engine_mutated(&PageRank::new(0.85, 1e-4));
    for threads in [2, 8] {
        par::set_thread_override(Some(threads));
        let ctx = format!("diverged at {threads} threads");
        assert_eq!(base_bfs, run_engine(&Bfs::new(0)), "BFS {ctx}");
        assert_eq!(base_pr, run_engine(&PageRank::new(0.85, 1e-4)), "PageRank {ctx}");
        assert_eq!(base_wcc_mut, run_engine_mutated(&Wcc), "mutated WCC {ctx}");
    }
    let base_prim = run_primitives();

    // Seeds come from the repo's deterministic RNG, same as every
    // generator fixture: the harness replays identically on every run.
    let mut rng = SeededRng::seed_from_u64(0x5EED_0006);
    for round in 0..4 {
        let seed = rng.next_u64();
        par::set_schedule_seed(Some(seed));
        assert_eq!(
            base_bfs,
            run_engine(&Bfs::new(0)),
            "round {round}: BFS diverged under schedule seed {seed:#x}"
        );
        assert_eq!(
            base_pr,
            run_engine(&PageRank::new(0.85, 1e-4)),
            "round {round}: PageRank diverged under schedule seed {seed:#x}"
        );
        assert_eq!(
            base_prim,
            run_primitives(),
            "round {round}: a par primitive diverged under schedule seed {seed:#x}"
        );
        assert_eq!(
            base_wcc_mut,
            run_engine_mutated(&Wcc),
            "round {round}: mutated WCC diverged under schedule seed {seed:#x}"
        );
        assert_eq!(
            base_pr_mut,
            run_engine_mutated(&PageRank::new(0.85, 1e-4)),
            "round {round}: mutated PageRank diverged under schedule seed {seed:#x}"
        );
    }
    par::set_schedule_seed(None);
    par::set_thread_override(None);
}
