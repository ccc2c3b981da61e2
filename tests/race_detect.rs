//! Deterministic schedule-permutation harness (DESIGN.md §14): replay the
//! same engine run and the same fan-out primitives under seeded
//! spawn-order shuffles at join points, exercising interleavings a single
//! natural-order run would miss. Every permutation must produce
//! bit-identical results AND come back race-clean — panic-on-race stays on
//! for the whole harness, so any happens-before violation aborts the test
//! at the exact pair of sites.
//!
//! One `#[test]` function: the schedule seed, thread override, and report
//! buffer are process-global.
#![cfg(feature = "race-detect")]

use std::sync::Arc;

use mlvc_gen::rng::SeededRng;
use multilogvc::apps::{Bfs, PageRank, Wcc};
use multilogvc::core::{Engine, EngineConfig, MultiLogEngine, VertexProgram};
use multilogvc::graph::{StoredGraph, VertexIntervals};
use multilogvc::mutate::{EdgeMutation, MutationConfig, MutationLog};
use multilogvc::par;
use multilogvc::prelude::RmatParams;
use multilogvc::ssd::{Ssd, SsdConfig};

/// Per-superstep fingerprint: (messages consumed, messages sent, actives).
type StepCounts = Vec<(u64, u64, u64)>;

fn run_engine(prog: &dyn VertexProgram) -> (Vec<u64>, StepCounts) {
    let g = mlvc_gen::rmat(RmatParams::social(9, 8), 0xD7);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(g.num_vertices(), 16);
    let sg = StoredGraph::store_with(&ssd, &g, "perm", iv).unwrap();
    // Tight memory so supersteps split into several fused batches: the
    // batch handoffs and parallel scatter both run under the detector, with
    // several reads in flight (several look-ahead workers live at once when
    // the engine has more than one thread) under every permuted schedule.
    let cfg = EngineConfig::default().with_memory(64 << 10);
    let mut eng = MultiLogEngine::new(ssd, sg, cfg);
    let r = eng.run(prog, 20);
    assert!(r.interrupted.is_none());
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
/// merge's queued I/O, and the reseeded scatter all run under the
/// detector. Fingerprints the final states plus both reports' counts.
fn run_engine_mutated(prog: &dyn VertexProgram) -> (Vec<u64>, StepCounts) {
    let g = mlvc_gen::rmat(RmatParams::social(9, 8), 0xD7);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(g.num_vertices(), 16);
    let sg = StoredGraph::store_with(&ssd, &g, "perm", iv).unwrap();
    let cfg = EngineConfig::default().with_memory(64 << 10);
    let mut eng = MultiLogEngine::new(Arc::clone(&ssd), sg, cfg);
    let base = eng.run(prog, 20);
    assert!(base.interrupted.is_none());
    let mut mlog = MutationLog::new(
        Arc::clone(&ssd),
        VertexIntervals::uniform(g.num_vertices(), 16),
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
    let inc = eng.reconverge(prog, 20);
    assert!(inc.interrupted.is_none());
    let steps = base
        .supersteps
        .iter()
        .chain(inc.supersteps.iter())
        .map(|s| (s.messages_processed, s.messages_sent, s.active_vertices))
        .collect();
    (eng.states().to_vec(), steps)
}

/// Exercise every instrumented primitive directly and fingerprint the
/// combined output.
fn run_primitives() -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u32>) {
    let xs: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(2654435761) % 997).collect();
    let ys: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(40503) % 991).collect();
    let mapped = par::par_map(&xs, |x| x.wrapping_mul(31).rotate_left(7));
    let zipped = par::par_map2(&xs, &ys, |x, y| x ^ (y << 1));
    let chunked = par::par_chunk_map(&xs, |c| c.iter().copied().sum::<u64>());
    let mut sorted: Vec<u32> = xs.iter().map(|&x| u32::try_from(x).unwrap()).collect();
    par::par_sort_by_u32_key(&mut sorted, |&x| x);
    (mapped, zipped, chunked, sorted)
}

#[test]
fn permuted_schedules_are_bit_identical_and_race_clean() {
    par::set_panic_on_race(true);
    par::set_schedule_seed(None);

    // Baseline under the natural spawn order on one thread, where the owner
    // decodes every fused batch in place and nothing forks; the permuted
    // runs below take eight, where look-ahead workers decode the batches
    // read ahead. Who decodes changes only scheduling, never results, so
    // an eight-thread natural-order run must already agree.
    par::set_thread_override(Some(1));
    let base_bfs = run_engine(&Bfs::new(0));
    let base_pr = run_engine(&PageRank::new(0.85, 1e-4));
    // Mutations-on leg of the cross-product: WCC takes the incremental
    // Seed path, PageRank the full-restart path.
    let base_wcc_mut = run_engine_mutated(&Wcc);
    let base_pr_mut = run_engine_mutated(&PageRank::new(0.85, 1e-4));
    par::set_thread_override(Some(8));
    assert_eq!(base_bfs, run_engine(&Bfs::new(0)), "BFS diverged across threads");
    assert_eq!(base_pr, run_engine(&PageRank::new(0.85, 1e-4)), "PageRank diverged across threads");
    assert_eq!(base_wcc_mut, run_engine_mutated(&Wcc), "mutated WCC diverged across threads");
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

    // panic-on-race was on throughout, so reaching here already means no
    // race fired; the drained buffer double-checks nothing was deferred.
    assert!(par::take_reports().is_empty());
}
