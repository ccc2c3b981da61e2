//! Incremental re-convergence equivalence (DESIGN.md §17): for PageRank,
//! WCC, and BFS, running the base graph, merging a mutation batch, and
//! incrementally re-converging from the previous states must land on
//! states **bit-identical** to a cold run over the mutated graph — across
//! worker thread counts — and the merged on-device
//! CSR must equal the in-memory golden `apply_to_csr` result exactly.
//!
//! The thread-count override is process-global, so the full
//! thread sweep lives in one `#[test]`; the edge-case batteries
//! (duplicates, self-loops, removing absent edges, empty batches) run at
//! the default configuration.

use std::sync::Arc;

use multilogvc::apps::{Bfs, PageRank, Wcc};
use multilogvc::core::{Engine, EngineConfig, MultiLogEngine, VertexProgram};
use multilogvc::graph::{Csr, StoredGraph, VertexIntervals};
use multilogvc::mutate::{apply_to_csr, EdgeMutation, MutationConfig, MutationLog};
use multilogvc::ssd::{Ssd, SsdConfig};

const STEPS: usize = 80;

fn base_graph(seed: u64) -> Csr {
    mlvc_gen::rmat(mlvc_gen::RmatParams::social(8, 6), seed)
}

/// A random batch: adds over random pairs, removes over *existing* edges
/// (so removals are usually effective), plus random no-op removes.
fn random_batch(g: &Csr, seed: u64, len: usize) -> Vec<EdgeMutation> {
    let mut rng = mlvc_gen::rng::SeededRng::seed_from_u64(seed);
    let n = g.num_vertices() as u32;
    let edges = g.col_idx().len();
    (0..len)
        .map(|_| {
            let src = rng.gen_range(0..n);
            if rng.gen_bool(0.6) {
                EdgeMutation::add(src, rng.gen_range(0..n))
            } else if edges > 0 && rng.gen_bool(0.7) {
                // Remove a real edge: pick a random colidx slot.
                let slot = rng.gen_range(0..edges as u64) as usize;
                let owner = match g.row_ptr().partition_point(|&p| p as usize <= slot) {
                    0 => 0,
                    i => (i - 1) as u32,
                };
                EdgeMutation::remove(owner, g.col_idx()[slot])
            } else {
                EdgeMutation::remove(src, rng.gen_range(0..n))
            }
        })
        .collect()
}

fn store(g: &Csr, tag: &str) -> (Arc<Ssd>, Arc<StoredGraph>) {
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(g.num_vertices(), 8);
    let sg = Arc::new(StoredGraph::store_with(&ssd, g, tag, iv).unwrap());
    (ssd, sg)
}

fn cold_states(prog: &dyn VertexProgram, g: &Csr, cfg: &EngineConfig) -> Vec<u64> {
    let (ssd, sg) = store(g, "cold");
    let mut eng = MultiLogEngine::with_shared_graph(ssd, sg, cfg.clone());
    let r = eng.run(prog, STEPS);
    assert!(r.converged, "{}: cold run must converge within {STEPS}", prog.name());
    eng.states().to_vec()
}

/// Base run → ingest → attach → reconverge. Returns the re-converged
/// states and the post-merge on-device CSR.
fn incremental_states(
    prog: &dyn VertexProgram,
    g: &Csr,
    muts: &[EdgeMutation],
    cfg: &EngineConfig,
) -> (Vec<u64>, Csr) {
    let (ssd, sg) = store(g, "inc");
    let mut eng = MultiLogEngine::with_shared_graph(Arc::clone(&ssd), Arc::clone(&sg), cfg.clone());
    let base = eng.run(prog, STEPS);
    assert!(base.converged, "{}: base run must converge", prog.name());
    let mut mlog = MutationLog::new(
        Arc::clone(&ssd),
        sg.intervals().clone(),
        MutationConfig::default(),
        "inc",
    )
    .unwrap();
    mlog.ingest(muts).unwrap();
    eng.attach_mutations(Arc::new(multilogvc::ssd::sync::Mutex::new(mlog))).unwrap();
    let inc = eng.reconverge(prog, STEPS);
    assert!(inc.interrupted.is_none(), "{}: {:?}", prog.name(), inc.interrupted);
    assert!(inc.converged, "{}: re-convergence must converge", prog.name());
    assert_eq!(
        inc.mutations.is_some(),
        !muts.is_empty(),
        "{}: merge stats reported iff something was pending",
        prog.name()
    );
    (eng.states().to_vec(), sg.to_csr().unwrap())
}

fn check(prog: &dyn VertexProgram, g: &Csr, muts: &[EdgeMutation], cfg: &EngineConfig, ctx: &str) {
    let (mutated, _delta) = apply_to_csr(g, muts).unwrap();
    let cold = cold_states(prog, &mutated, cfg);
    let (inc, merged) = incremental_states(prog, g, muts, cfg);
    assert_eq!(merged, mutated, "{}: {ctx}: merged CSR != golden apply_to_csr", prog.name());
    assert_eq!(inc, cold, "{}: {ctx}: incremental states != cold recompute", prog.name());
}

fn progs() -> Vec<Box<dyn VertexProgram>> {
    vec![
        Box::new(PageRank::default()),
        Box::new(Wcc),
        Box::new(Bfs::new(0)),
    ]
}

/// The headline sweep: random batches, every app, bit-for-bit across
/// MLVC_THREADS {1, 2, 8}.
#[test]
fn incremental_equals_cold_across_threads() {
    let g = base_graph(0xA11CE);
    let adds_only: Vec<EdgeMutation> = random_batch(&g, 11, 24)
        .into_iter()
        .map(|m| EdgeMutation::add(m.src, m.dst))
        .collect();
    let mixed = random_batch(&g, 12, 32);
    let cfg = EngineConfig::default().with_memory(96 << 10);
    for threads in [1usize, 2, 8] {
        multilogvc::par::set_thread_override(Some(threads));
        for prog in &progs() {
            // Adds-only exercises the Seed fast path of WCC/BFS; mixed
            // batches force their removal Restart path.
            check(prog.as_ref(), &g, &adds_only, &cfg, &format!("adds t{threads}"));
            check(prog.as_ref(), &g, &mixed, &cfg, &format!("mixed t{threads}"));
        }
        multilogvc::par::set_thread_override(None);
    }
}

/// More random batches at the default configuration — a cheap property
/// sweep over generator seeds.
#[test]
fn random_batches_are_equivalent_across_seeds() {
    let cfg = EngineConfig::default().with_memory(96 << 10);
    for graph_seed in [1u64, 0xD7] {
        let g = base_graph(graph_seed);
        for batch_seed in [3u64, 4, 5] {
            let muts = random_batch(&g, batch_seed, 40);
            for prog in &progs() {
                check(prog.as_ref(), &g, &muts, &cfg, &format!("g{graph_seed} b{batch_seed}"));
            }
        }
    }
}

#[test]
fn duplicate_self_loop_and_absent_edge_cases() {
    let cfg = EngineConfig::default().with_memory(96 << 10);
    let g = base_graph(0xED6E);
    let (s, d) = (3u32, 200u32);
    let cases: Vec<(&str, Vec<EdgeMutation>)> = vec![
        ("dup-adds", vec![EdgeMutation::add(s, d); 4]),
        (
            "add-remove-add",
            vec![EdgeMutation::add(s, d), EdgeMutation::remove(s, d), EdgeMutation::add(s, d)],
        ),
        (
            "add-then-remove",
            vec![EdgeMutation::add(s, d), EdgeMutation::remove(s, d)],
        ),
        ("self-loops", vec![EdgeMutation::add(7, 7), EdgeMutation::add(9, 9)]),
        ("remove-absent", vec![EdgeMutation::remove(200, 201), EdgeMutation::remove(0, 0)]),
        ("empty", Vec::new()),
    ];
    for (name, muts) in &cases {
        for prog in &progs() {
            check(prog.as_ref(), &g, muts, &cfg, name);
        }
    }
}

/// Client batches merge only where a caller asks: a batch pending on an
/// attached log stays pending through `run()` — the stored CSR, the report
/// and the log untouched — and the next `reconverge()` merges it, landing
/// on the states of a cold run over the mutated graph.
#[test]
fn run_leaves_client_batches_for_reconverge() {
    let g = base_graph(0xBA7C);
    let cfg = EngineConfig::default().with_memory(96 << 10);
    let adds_only: Vec<EdgeMutation> = random_batch(&g, 21, 24)
        .into_iter()
        .map(|m| EdgeMutation::add(m.src, m.dst))
        .collect();
    for muts in [adds_only, random_batch(&g, 22, 32)] {
        let (mutated, _delta) = apply_to_csr(&g, &muts).unwrap();
        for prog in &progs() {
            let prog = prog.as_ref();
            let (ssd, sg) = store(&g, "waits");
            let mut eng =
                MultiLogEngine::with_shared_graph(Arc::clone(&ssd), Arc::clone(&sg), cfg.clone());
            let mut mlog =
                MutationLog::new(ssd, sg.intervals().clone(), MutationConfig::default(), "waits")
                    .unwrap();
            mlog.ingest(&muts).unwrap();
            let pending = mlog.pending();
            assert!(pending > 0);
            let mlog = Arc::new(multilogvc::ssd::sync::Mutex::new(mlog));
            eng.attach_mutations(Arc::clone(&mlog)).unwrap();

            let ran = eng.run(prog, STEPS);
            assert!(ran.converged && ran.interrupted.is_none(), "{}", prog.name());
            assert!(ran.mutations.is_none(), "{}: a client batch merged mid-run", prog.name());
            assert_eq!(sg.to_csr().unwrap(), g, "{}: the stored CSR changed", prog.name());
            assert_eq!(mlog.lock().pending(), pending, "{}", prog.name());

            let inc = eng.reconverge(prog, STEPS);
            assert!(inc.converged && inc.interrupted.is_none(), "{}", prog.name());
            assert!(inc.mutations.is_some_and(|m| m.merges == 1), "{}", prog.name());
            assert_eq!(mlog.lock().pending(), 0, "{}", prog.name());
            assert_eq!(sg.to_csr().unwrap(), mutated, "{}", prog.name());
            assert_eq!(eng.states(), cold_states(prog, &mutated, &cfg), "{}", prog.name());
        }
    }
}

/// An empty batch leaves the graph byte-identical and `reconverge` with
/// nothing pending is a converged no-op.
#[test]
fn reconverge_without_pending_mutations_is_a_no_op() {
    let g = base_graph(5);
    let (ssd, sg) = store(&g, "idle");
    let cfg = EngineConfig::default().with_memory(96 << 10);
    let mut eng = MultiLogEngine::with_shared_graph(Arc::clone(&ssd), Arc::clone(&sg), cfg);
    eng.run(&Wcc, STEPS);
    let before: Vec<u64> = eng.states().to_vec();

    // No log attached at all.
    let r = eng.reconverge(&Wcc, STEPS);
    assert!(r.converged && r.supersteps.is_empty() && r.mutations.is_none());

    // Attached but empty.
    let mlog = MutationLog::new(
        Arc::clone(&ssd),
        sg.intervals().clone(),
        MutationConfig::default(),
        "idle",
    )
    .unwrap();
    eng.attach_mutations(Arc::new(multilogvc::ssd::sync::Mutex::new(mlog))).unwrap();
    let r = eng.reconverge(&Wcc, STEPS);
    assert!(r.converged && r.supersteps.is_empty() && r.mutations.is_none());
    assert_eq!(eng.states(), before.as_slice());
    assert_eq!(sg.to_csr().unwrap(), g);
}

/// Attaching a log whose interval partition disagrees with the stored
/// graph is refused up front.
#[test]
fn attach_rejects_mismatched_interval_partitions() {
    let g = base_graph(6);
    let (ssd, sg) = store(&g, "mm");
    let mut eng = MultiLogEngine::with_shared_graph(
        Arc::clone(&ssd),
        Arc::clone(&sg),
        EngineConfig::default().with_memory(96 << 10),
    );
    let other = VertexIntervals::uniform(g.num_vertices(), 4);
    assert_ne!(&other, sg.intervals());
    let mlog =
        MutationLog::new(Arc::clone(&ssd), other, MutationConfig::default(), "mm2").unwrap();
    assert!(eng
        .attach_mutations(Arc::new(multilogvc::ssd::sync::Mutex::new(mlog)))
        .is_err());
}
