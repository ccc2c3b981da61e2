//! Cross-crate randomized property tests of the invariants listed in
//! DESIGN.md §7, on seeded randomly generated graphs and access patterns.
//!
//! Each test draws its cases from the in-repo deterministic RNG
//! (`mlvc_gen::rng::SeededRng`), so failures reproduce exactly from the
//! seed embedded in the test.

use std::sync::Arc;

use multilogvc::apps::{Bfs, Coloring, Mis, MisState};
use multilogvc::core::{Engine, EngineConfig, InitActive, MultiLogEngine, VertexCtx, VertexProgram};
use multilogvc::graph::{
    Adjacency, Csr, EdgeListBuilder, Entry, GraphLoader, ListView, Segment, StoredGraph,
    StructuralUpdateBuffer, VertexId, VertexIntervals, Weights,
};
use multilogvc::mutate::{apply_to_csr, EdgeMutation, MutationConfig, MutationLog};
use multilogvc::log::{BitSet, EdgeLogOptimizer};
use multilogvc::ssd::{DeviceError, FileId, Ssd, SsdConfig};

use mlvc_gen::rng::SeededRng;

const CASES: usize = 32;

/// A random graph as (vertex count, edge list).
fn arb_graph(rng: &mut SeededRng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.gen_range(2usize..80);
    let m = rng.gen_range(0usize..300);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0u32..n as u32), rng.gen_range(0u32..n as u32)))
        .collect();
    (n, edges)
}

fn build(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut b = EdgeListBuilder::new(n)
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true);
    for &(s, d) in edges {
        b.push(s, d);
    }
    b.build()
}

/// `plain` with a weight on every edge.
fn with_weights(plain: &Csr, weight: impl Fn(VertexId, VertexId) -> f32) -> Csr {
    let mut b = EdgeListBuilder::new(plain.num_vertices());
    for v in 0..plain.num_vertices() as VertexId {
        for &d in plain.out_edges(v) {
            b.push_weighted(v, d, weight(v, d));
        }
    }
    b.build()
}

fn store(csr: &Csr, k: usize) -> (Arc<Ssd>, StoredGraph) {
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(csr.num_vertices(), k);
    let sg = StoredGraph::store_with(&ssd, csr, "p", iv).unwrap();
    (ssd, sg)
}

/// CSR → SSD → CSR is the identity for any graph and partition.
#[test]
fn stored_graph_roundtrip() {
    let mut rng = SeededRng::seed_from_u64(101);
    for _ in 0..CASES {
        let (n, edges) = arb_graph(&mut rng);
        let k = rng.gen_range(1usize..9);
        let csr = build(n, &edges);
        let (_ssd, sg) = store(&csr, k);
        assert_eq!(sg.to_csr().unwrap(), csr);
    }
}

/// Put what `buf` holds for intervals with at least `min` updates through
/// the one CSR rewriter, as the engine does at a superstep boundary.
fn commit_pending(mlog: &mut MutationLog, sg: &StoredGraph, buf: &mut StructuralUpdateBuffer, min: usize) {
    let due = buf.take(min);
    if due.iter().any(|l| !l.is_empty()) {
        mlog.commit(sg, &due).unwrap();
    }
}

fn committer(ssd: &Arc<Ssd>, sg: &StoredGraph) -> MutationLog {
    MutationLog::new(Arc::clone(ssd), sg.intervals().clone(), MutationConfig::default(), "p")
        .unwrap()
}

/// The selective loader returns one arena holding exactly the current
/// adjacency — the CSR's, patched by whatever the structural buffer has
/// pending — for any sorted active subset of any interval, weighted or
/// not, at page sizes that make a hub's list straddle many, one or no page
/// boundary, with the column-index page span the row pointers imply. And
/// the patched view *is* the merge: what the loader shows before the
/// pending updates are committed is, per vertex and in order, what the
/// stored CSR holds after (DESIGN.md §7) — both equal to the in-memory
/// golden `apply_to_csr`. Weighted graphs refuse structural updates, so
/// they are loaded unpatched only.
#[test]
fn loader_arena_matches_csr() {
    let mut rng = SeededRng::seed_from_u64(102);
    for case in 0..CASES {
        let (n, mut edges) = arb_graph(&mut rng);
        // A hub, so some list is longer than a small page.
        edges.extend((1..n as u32).map(|d| (0, d)));
        let k = rng.gen_range(1usize..6);
        let page_size = [64usize, 256, 4096][case % 3];
        let weighted = (case / 3) % 2 == 1;
        let plain = build(n, &edges);
        let csr = if weighted {
            with_weights(&plain, |v, d| 0.5 + (v * 31 + d) as f32)
        } else {
            plain.clone()
        };
        let ssd = Arc::new(Ssd::new(SsdConfig::default().with_page_size(page_size)));
        let iv = VertexIntervals::uniform(n, k);
        let sg = StoredGraph::store_with(&ssd, &csr, "p", iv.clone()).unwrap();

        // Pending structural updates: adds (of new and of stored edges),
        // removes of stored edges, and removes of edges that are not there.
        let mut buf = StructuralUpdateBuffer::new(iv.clone(), 1 << 20);
        let mut ups = Vec::new();
        for _ in 0..rng.gen_range(1usize..12) {
            let src = rng.gen_range(0u32..n as u32);
            let stored = csr.out_edges(src);
            let u = if !stored.is_empty() && rng.gen_range(0u32..2) == 0 {
                EdgeMutation::remove(src, stored[rng.gen_range(0..stored.len())])
            } else if rng.gen_range(0u32..4) == 0 {
                EdgeMutation::remove(src, rng.gen_range(0u32..n as u32))
            } else {
                EdgeMutation::add(src, rng.gen_range(0u32..n as u32))
            };
            buf.push(u);
            ups.push(u);
        }
        let (golden, _) = apply_to_csr(&plain, &ups).unwrap();

        let mut loader = GraphLoader::new();
        let pick = rng.next_u64();
        for patch in [None, Some(&buf)] {
            if weighted && patch.is_some() {
                continue;
            }
            for i in iv.iter_ids() {
                let active: Vec<VertexId> =
                    iv.range(i).filter(|v| (pick >> (v % 61)) & 1 == 1).collect();
                let adj = loader.load_active(&sg, i, &active, weighted, patch).unwrap();
                assert_eq!(adj.len(), active.len());
                let base = csr.row_ptr()[iv.start(i) as usize];
                for (j, (a, &v)) in adj.vertices().iter().zip(&active).enumerate() {
                    assert_eq!(a.v, v);
                    let want = if patch.is_some() { golden.out_edges(v) } else { csr.out_edges(v) };
                    assert_eq!(adj.edges(j), want, "case {case} vertex {v}");
                    assert_eq!(
                        adj.weights(j),
                        csr.out_weights(v).map(Weights::from),
                        "case {case} vertex {v}"
                    );
                    let (lo, hi) = (
                        csr.row_ptr()[v as usize] - base,
                        csr.row_ptr()[v as usize + 1] - base,
                    );
                    let span = if hi > lo {
                        (lo * 4 / page_size as u64, (hi * 4 - 1) / page_size as u64)
                    } else {
                        (1, 0)
                    };
                    assert_eq!((a.page_lo, a.page_hi), span, "case {case} vertex {v}");
                }
            }
        }
        if !weighted {
            commit_pending(&mut committer(&ssd, &sg), &sg, &mut buf, 1);
            assert_eq!(sg.to_csr().unwrap(), golden, "case {case}: merged CSR is not the view");
            assert_eq!(sg.num_edges(), golden.num_edges() as u64);
        }
    }
}

/// Damage one page of `file` the way a flash fault would: flip one to three
/// bits, or cut the page short (the device zero-fills what a short write
/// leaves). Returns whether there was a page to damage.
fn damage_a_page(ssd: &Ssd, file: FileId, rng: &mut SeededRng) -> bool {
    let pages = ssd.num_pages(file).unwrap();
    if pages == 0 {
        return false;
    }
    let page = rng.gen_range(0..pages);
    let mut data = ssd.read_page(file, page, 0).unwrap().to_vec();
    if rng.gen_range(0u32..3) == 0 {
        data.truncate(rng.gen_range(0..data.len()));
    } else {
        for _ in 0..rng.gen_range(1usize..4) {
            let bit = rng.gen_range(0..data.len() * 8);
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }
    ssd.write_page(file, page, &data).unwrap();
    true
}

/// Walk one view through every way in — `len`, `get`, `iter`, the segment
/// walk — and return what it holds. A view over damaged pages must still be
/// walkable: whatever the bytes are, no index may leave a page.
fn walked<T: Entry>(view: ListView<'_, T>) -> Vec<T> {
    let by_get: Vec<T> = (0..view.len()).map(|k| view.get(k).expect("an entry below len")).collect();
    assert_eq!(view.get(view.len()), None);
    assert_eq!(view.iter().collect::<Vec<T>>(), by_get);
    let mut by_segment: Vec<T> = Vec::new();
    for seg in view.segments() {
        match seg {
            Segment::Decoded(s) => by_segment.extend_from_slice(s),
            Segment::Le(b) => by_segment.extend(b.iter().map(|&e| T::decode(e))),
        }
    }
    assert_eq!(by_segment, by_get);
    by_get
}

/// Seeded fuzz of the two adjacency read paths (ROADMAP 3b, CSR slice): with
/// a damaged `rowptr.*`, `colidx.*`, `val.*` or edge-log page under them,
/// `GraphLoader::load_active` and `EdgeLogOptimizer::fetch` return a typed
/// `Corrupt` error or an adjacency with one entry per requested vertex whose
/// every view — edges and weights — can be walked end to end: they never
/// panic, at load time or at any later read, and never reach past what the
/// extent holds. Damage the loader can see (a row pointer out of order or
/// out of the extent, a record header that is not the one indexed) must be
/// rejected; damage in bytes the call did not use must leave the result
/// untouched. A flipped neighbour id is neither: these extents carry no
/// checksum, so it comes back as data. The three counts are printed
/// (`--nocapture`); the silently-wrong one is ROADMAP 3b's to bring to zero
/// and must not grow meanwhile.
#[test]
fn damaged_adjacency_pages_are_an_error_or_walkable_views_never_a_panic() {
    let mut rng = SeededRng::seed_from_u64(113);
    let (mut rejected, mut intact, mut silent) = (0usize, 0usize, 0usize);
    for case in 0..8 * CASES {
        let (n, mut edges) = arb_graph(&mut rng);
        edges.extend((1..n as u32).map(|d| (0, d)));
        let csr = with_weights(&build(n, &edges), |_, _| 1.0);
        let ssd = Arc::new(Ssd::new(SsdConfig::default().with_page_size(64)));
        let iv = VertexIntervals::uniform(n, rng.gen_range(1usize..4));
        let sg = StoredGraph::store_with(&ssd, &csr, "fz", iv.clone()).unwrap();
        let i = rng.gen_range(0..iv.num_intervals() as u32);
        let pick = rng.next_u64();
        let active: Vec<VertexId> =
            iv.range(i).filter(|v| (pick >> (v % 61)) & 1 == 1).collect();
        let clean = GraphLoader::new().load_active(&sg, i, &active, true, None).unwrap();

        // The edge log holds the clean adjacency of the low-degree actives.
        let mut elog = EdgeLogOptimizer::new(Arc::clone(&ssd), n, 4 << 20, "fz").unwrap();
        let logged: Vec<VertexId> = (0..clean.len())
            .filter(|&k| clean.edges(k).len() + 2 <= 16)
            .map(|k| {
                elog.log_edges(active[k], clean.edges(k)).unwrap();
                active[k]
            })
            .collect();
        elog.end_superstep(&BitSet::new(n), &[]).unwrap();
        let mut clean_log = Adjacency::default();
        elog.fetch(&logged, &mut clean_log).unwrap();

        let target = match case % 4 {
            0 => sg.rowptr_file(i),
            1 => sg.colidx_file(i),
            2 => ssd.lookup(&format!("fz.val.{i}")).unwrap(),
            _ => ssd.lookup("fz.edgelog.a").unwrap(),
        };
        if !damage_a_page(&ssd, target, &mut rng) {
            continue;
        }
        let (got, want, what) = if case % 4 == 3 {
            let mut adj = Adjacency::default();
            (elog.fetch(&logged, &mut adj).map(|()| adj), &clean_log, "edgelog")
        } else {
            (GraphLoader::new().load_active(&sg, i, &active, true, None), &clean, "csr")
        };
        match got {
            Ok(adj) => {
                assert_eq!(adj.len(), want.len(), "case {case}");
                let mut same = true;
                for (k, (a, w)) in adj.vertices().iter().zip(want.vertices()).enumerate() {
                    assert_eq!(a.v, w.v, "case {case}");
                    same &= walked(adj.edges(k)) == walked(want.edges(k));
                    same &= adj.weights(k).map(walked) == want.weights(k).map(walked);
                }
                assert_eq!(same, adj == *want, "case {case}: the walk and `==` disagree");
                if same {
                    intact += 1;
                } else {
                    silent += 1;
                }
            }
            Err(DeviceError::Corrupt { what: w, .. }) => {
                assert_eq!(w, what, "case {case}");
                rejected += 1;
            }
            Err(e) => panic!("case {case}: not a corruption error: {e}"),
        }
    }
    println!("{rejected} rejected, {intact} intact, {silent} silently wrong");
    assert!(rejected >= 62 && intact > 20, "{rejected} rejected, {intact} intact, {silent} silent");
    assert!(silent <= 114, "{silent} damages came back as data; 114 before this test walked views");
}

/// Interval partitions cover every vertex exactly once, whatever the
/// in-degree profile and budget.
#[test]
fn intervals_partition_vertex_space() {
    let mut rng = SeededRng::seed_from_u64(103);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..200);
        let in_deg: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..50)).collect();
        let budget = rng.gen_range(64usize..4096);
        let iv = VertexIntervals::by_inbound_budget(&in_deg, 16, budget);
        assert_eq!(iv.num_vertices(), in_deg.len());
        let mut seen = vec![false; in_deg.len()];
        for i in iv.iter_ids() {
            for v in iv.range(i) {
                assert!(!seen[v as usize], "vertex {} covered twice", v);
                seen[v as usize] = true;
                assert_eq!(iv.interval_of(v), i);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

/// Batched structural merging equals eager merging for any update
/// sequence, per vertex as sets (DESIGN.md §7): the last op on an edge
/// decides whether it is there, however the sequence was cut into merges.
/// (Order and multiplicity may differ — an `Add` that a batch collapses
/// onto a stored edge leaves it where it was; merged eagerly after a
/// `Remove` it lands at the tail.)
#[test]
fn structural_batched_equals_eager() {
    let mut rng = SeededRng::seed_from_u64(104);
    for _ in 0..CASES {
        let (n, edges) = arb_graph(&mut rng);
        let csr = build(n, &edges);
        let n_ups = rng.gen_range(0usize..40);
        let ups: Vec<EdgeMutation> = (0..n_ups)
            .map(|_| {
                (
                    rng.gen_bool(0.5),
                    rng.gen_range(0u32..80),
                    rng.gen_range(0u32..80),
                )
            })
            .filter(|&(_, s, d)| (s as usize) < n && (d as usize) < n)
            .map(|(add, src, dst)| {
                if add {
                    EdgeMutation::add(src, dst)
                } else {
                    EdgeMutation::remove(src, dst)
                }
            })
            .collect();

        let (s1, sg_batched) = store(&csr, 4);
        let mut mlog = committer(&s1, &sg_batched);
        let mut buf = StructuralUpdateBuffer::new(sg_batched.intervals().clone(), 8);
        for &u in &ups {
            buf.push(u);
            commit_pending(&mut mlog, &sg_batched, &mut buf, 8);
        }
        commit_pending(&mut mlog, &sg_batched, &mut buf, 1);

        let (s2, sg_eager) = store(&csr, 4);
        let mut mlog = committer(&s2, &sg_eager);
        let mut eager = StructuralUpdateBuffer::new(sg_eager.intervals().clone(), 1);
        for &u in &ups {
            eager.push(u);
            commit_pending(&mut mlog, &sg_eager, &mut eager, 1);
        }

        let (golden, _) = apply_to_csr(&csr, &ups).unwrap();
        let (batched, eager) = (sg_batched.to_csr().unwrap(), sg_eager.to_csr().unwrap());
        let set = |g: &Csr, v: VertexId| {
            let mut e = g.out_edges(v).to_vec();
            e.sort_unstable();
            e.dedup();
            e
        };
        for v in 0..n as VertexId {
            assert_eq!(set(&batched, v), set(&eager, v), "vertex {v}");
            assert_eq!(set(&batched, v), set(&golden, v), "vertex {v}");
        }
    }
}

/// Flood (max-id propagation) on any graph converges to the component
/// maximum — checked against union-find ground truth.
#[test]
fn flood_matches_union_find() {
    struct Flood;
    impl VertexProgram for Flood {
        fn name(&self) -> &'static str {
            "flood"
        }
        fn init_state(&self, v: VertexId) -> u64 {
            v as u64
        }
        fn init_active(&self, _n: usize) -> InitActive {
            InitActive::All
        }
        fn process(&self, ctx: &mut VertexCtx<'_>) {
            let best = ctx.msgs().iter().map(|m| m.data).fold(ctx.state(), u64::max);
            if best > ctx.state() || ctx.superstep() == 1 {
                ctx.set_state(best);
                ctx.send_all(best);
            }
        }
    }
    let mut rng = SeededRng::seed_from_u64(105);
    for _ in 0..CASES {
        let (n, edges) = arb_graph(&mut rng);
        let csr = build(n, &edges);
        let (ssd, sg) = store(&csr, 4);
        let mut eng = MultiLogEngine::with_shared_graph(
            ssd,
            Arc::new(sg),
            EngineConfig::default().with_memory(64 << 10),
        );
        let r = eng.run(&Flood, 4 * n + 4);
        assert!(r.converged);

        // Union-find ground truth.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (s, d) in csr.edges() {
            let (a, b) = (find(&mut parent, s as usize), find(&mut parent, d as usize));
            parent[a.min(b)] = a.max(b);
        }
        for v in 0..n {
            let root = find(&mut parent, v);
            let comp_max = (0..n).filter(|&u| find(&mut parent, u) == root).max().unwrap();
            assert_eq!(eng.state_of(v as u32), comp_max as u64, "vertex {}", v);
        }
    }
}

/// BFS levels equal the queue-based reference on any graph and source.
#[test]
fn bfs_matches_reference_any_graph() {
    let mut rng = SeededRng::seed_from_u64(106);
    for _ in 0..CASES {
        let (n, edges) = arb_graph(&mut rng);
        let csr = build(n, &edges);
        let src = rng.gen_range(0u32..n as u32);
        let (ssd, sg) = store(&csr, 3);
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default().with_memory(64 << 10));
        let r = eng.run(&Bfs::new(src), 2 * n + 2);
        assert!(r.converged);
        let expect = mlvc_apps::bfs_reference(&csr, src);
        for (v, e) in expect.iter().enumerate() {
            assert_eq!(Bfs::level(eng.state_of(v as u32)), *e);
        }
    }
}

/// MIS output is a valid maximal independent set on any graph.
#[test]
fn mis_valid_any_graph() {
    let mut rng = SeededRng::seed_from_u64(107);
    for _ in 0..CASES {
        let (n, edges) = arb_graph(&mut rng);
        let csr = build(n, &edges);
        let (ssd, sg) = store(&csr, 3);
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default().with_memory(64 << 10));
        let r = eng.run(&Mis, 8 * n + 8);
        assert!(r.converged);
        let in_set: Vec<bool> = eng
            .states()
            .iter()
            .map(|&s| Mis::state(s) == MisState::InSet)
            .collect();
        assert!(mlvc_apps::is_maximal_independent_set(&csr, &in_set));
    }
}

/// The parallel radix sort equals a naive stable sort — same order,
/// including the relative order of equal keys — at every size class
/// (empty, tiny, just under/over the parallel threshold, large) and
/// thread count, with duplicate-heavy and already-sorted keys.
#[test]
fn par_sorts_match_naive_stable_sort() {
    use multilogvc::par::{par_sort_by_u32_key, set_thread_override};

    // (key, tag): the tag records input position so stability is visible
    // even among equal keys.
    fn cases(rng: &mut SeededRng) -> Vec<Vec<(u32, u32)>> {
        let mut out: Vec<Vec<(u32, u32)>> = Vec::new();
        for n in [0usize, 1, 2, 37, 4095, 4096, 4097, 20_000] {
            // Duplicate-heavy keys (range 0..8) stress stability hardest;
            // the wide range stresses every radix digit.
            for key_range in [8u32, u32::MAX] {
                out.push(
                    (0..n)
                        .map(|i| (rng.gen_range(0u32..key_range.max(1)), i as u32))
                        .collect(),
                );
            }
        }
        // Already sorted and reverse sorted, above the parallel threshold.
        out.push((0..8192u32).map(|i| (i / 4, i)).collect());
        out.push((0..8192u32).map(|i| (2048 - i / 4, i)).collect());
        out
    }

    let mut rng = SeededRng::seed_from_u64(109);
    let inputs = cases(&mut rng);
    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        for input in &inputs {
            let mut expect = input.clone();
            expect.sort_by_key(|&(k, _)| k); // std stable sort = ground truth

            let mut a = input.clone();
            par_sort_by_u32_key(&mut a, |&(k, _)| k);
            assert_eq!(a, expect, "radix, n={} threads={threads}", input.len());
        }
    }
    set_thread_override(None);
}

/// The radix sort agrees with the std stable sort on random data for any
/// thread count — and its output is identical across thread counts (the
/// determinism contract the engine's trace guarantee rests on).
#[test]
fn par_sorts_thread_count_invariant() {
    use multilogvc::par::{par_sort_by_u32_key, set_thread_override};

    let mut rng = SeededRng::seed_from_u64(110);
    for _ in 0..8 {
        let n = rng.gen_range(1usize..30_000);
        let keys: Vec<(u32, u32)> =
            (0..n).map(|i| (rng.gen_range(0u32..997), i as u32)).collect();

        let mut base: Option<Vec<(u32, u32)>> = None;
        for threads in [1usize, 2, 8] {
            set_thread_override(Some(threads));
            let mut a = keys.clone();
            par_sort_by_u32_key(&mut a, |&(k, _)| k);
            let mut b = keys.clone();
            b.sort_by_key(|&(k, _)| k);
            assert_eq!(a, b, "differs from the std stable sort at n={n} threads={threads}");
            match &base {
                None => base = Some(a),
                Some(want) => assert_eq!(&a, want, "thread-count variance at n={n}"),
            }
        }
    }
    set_thread_override(None);
}

/// Sort-reduce folding oracle (DESIGN.md §12): for any update stream and
/// any buffer pressure, draining the page-bucketed multi-log equals a
/// stable sort by destination (`slice::sort_by_key`) of the stream that was
/// sent — bit-exactly, at every thread count. Each update's payload carries
/// its send index, so a stability violation among equal destinations is
/// visible, not masked.
#[test]
fn folded_log_drain_matches_stable_sort_oracle() {
    use multilogvc::log::{MultiLog, MultiLogConfig, Update};
    use multilogvc::par::set_thread_override;

    let mut rng = SeededRng::seed_from_u64(111);
    for case in 0..CASES {
        let n = rng.gen_range(2usize..120);
        let k = rng.gen_range(1usize..6);
        let m = rng.gen_range(0usize..2500);
        // Small enough to evict mid-superstep on the bigger cases.
        let buffer = rng.gen_range(1usize..9) << 10;
        let ups: Vec<Update> = (0..m)
            .map(|i| {
                Update::new(rng.gen_range(0u32..n as u32), rng.gen_range(0u32..999), i as u64)
            })
            .collect();
        // Random mix of the per-record and pre-routed batch append paths:
        // split the stream into chunks, each sent via `send` or
        // `send_batch`.
        let chunks: Vec<(usize, bool)> = {
            let mut out = Vec::new();
            let mut at = 0;
            while at < m {
                let len = rng.gen_range(1usize..40).min(m - at);
                out.push((len, rng.gen_bool(0.5)));
                at += len;
            }
            out
        };
        let iv = VertexIntervals::uniform(n, k);

        for threads in [1usize, 2, 8] {
            set_thread_override(Some(threads));
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let cfg = MultiLogConfig { buffer_bytes: buffer, ..Default::default() };
            let mut ml = MultiLog::new(Arc::clone(&ssd), iv.clone(), cfg, "prop").unwrap();
            let mut at = 0;
            for &(len, batched) in &chunks {
                let chunk = &ups[at..at + len];
                if batched {
                    for i in iv.iter_ids() {
                        let routed: Vec<Update> = chunk
                            .iter()
                            .copied()
                            .filter(|u| iv.interval_of(u.dest) == i)
                            .collect();
                        ml.send_batch(i, &routed).unwrap();
                    }
                } else {
                    for &u in chunk {
                        ml.send(u).unwrap();
                    }
                }
                at += len;
            }
            ml.finish_superstep().unwrap();
            let reader = ml.reader();
            for i in iv.iter_ids() {
                let mut want: Vec<Update> =
                    ups.iter().copied().filter(|u| iv.interval_of(u.dest) == i).collect();
                want.sort_by_key(|u| u.dest);
                let plan = reader.plan_reads(i..i + 1).unwrap();
                let pages = ssd.read_batch(&plan.reqs).unwrap();
                let got = reader.decode(&plan, &pages).unwrap();
                reader.consume(&plan, &got).unwrap();
                assert_eq!(
                    got.updates, want,
                    "case {case} interval {i} threads={threads}: drain diverges from \
                     the stable-sort oracle"
                );
            }
        }
        set_thread_override(None);
    }
}

/// Compact-page oracle (DESIGN.md §19): whatever record shape a page ends
/// up with — narrow or absolute destinations, source kept or dropped,
/// re-based tail pages, the wide fallback — a log drains exactly the
/// records that were sent, in per-destination send order, with `src`
/// masked to `VertexId::MAX` when the program does not read it. Interval
/// widths sit on both sides of the 65 536-vertex narrow span, sends mix
/// `send` and `send_batch`, buffers are small enough to evict
/// mid-superstep, and every interval is drained at every thread count.
///
/// The logs are opened with a `combine`, so the same pages also go through
/// the folding decode, which must equal the sorted drain grouped by
/// destination and reduced left to right — under an operator that is
/// neither commutative nor associative, so a fold that visits a
/// destination's records in any other order fails — while still counting
/// every record.
#[test]
fn compact_pages_drain_exactly_what_was_sent() {
    use multilogvc::log::{group_by_dest, LogPage, MultiLog, MultiLogConfig, Update};
    use multilogvc::par::set_thread_override;

    fn fold(a: u64, b: u64) -> u64 {
        a.wrapping_mul(31) ^ b.rotate_left(7)
    }

    let mut rng = SeededRng::seed_from_u64(113);
    // Page shapes met on the device, as (wide_dest, has_src): the cases
    // below must produce all four, or the test stopped testing the format.
    let mut shapes_seen = std::collections::BTreeSet::new();
    for case in 0..CASES {
        // (vertices, intervals): tiny, one interval just under / just over
        // the narrow span, and intervals far wider than it.
        let (n, k) = match case % 4 {
            0 => (rng.gen_range(2usize..120), rng.gen_range(1usize..6)),
            1 => (rng.gen_range(65_000usize..65_537), 1),
            2 => (rng.gen_range(65_537usize..66_000), 1),
            _ => (rng.gen_range(150_000usize..200_000), rng.gen_range(1usize..3)),
        };
        // From a handful of records (sparse tails: packed pages span more
        // than the narrow form addresses) to thousands (full buckets).
        let m = if rng.gen_bool(0.3) { rng.gen_range(0usize..60) } else { rng.gen_range(60usize..2500) };
        let buffer = rng.gen_range(1usize..9) << 10;
        let clustered = rng.gen_bool(0.5);
        let hot = rng.gen_range(0u32..n as u32);
        let ups: Vec<Update> = (0..m)
            .map(|i| {
                let dest = if clustered && rng.gen_bool(0.7) {
                    (hot + rng.gen_range(0u32..40)) % n as u32
                } else {
                    rng.gen_range(0u32..n as u32)
                };
                Update::new(dest, rng.gen_range(0u32..999), i as u64)
            })
            .collect();
        let chunks: Vec<(usize, bool)> = {
            let mut out = Vec::new();
            let mut at = 0;
            while at < m {
                let len = rng.gen_range(1usize..40).min(m - at);
                out.push((len, rng.gen_bool(0.5)));
                at += len;
            }
            out
        };
        let iv = VertexIntervals::uniform(n, k);

        for threads in [1usize, 2, 8] {
            set_thread_override(Some(threads));
            for reads_src in [false, true] {
                let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
                let mut ml = MultiLog::new(
                    Arc::clone(&ssd),
                    iv.clone(),
                    MultiLogConfig { buffer_bytes: buffer, reads_src, combine: Some(fold) },
                    "prop",
                )
                .unwrap();
                let mut at = 0;
                for &(len, batched) in &chunks {
                    let chunk = &ups[at..at + len];
                    if batched {
                        for i in iv.iter_ids() {
                            let routed: Vec<Update> = chunk
                                .iter()
                                .copied()
                                .filter(|u| iv.interval_of(u.dest) == i)
                                .collect();
                            ml.send_batch(i, &routed).unwrap();
                        }
                    } else {
                        for &u in chunk {
                            ml.send(u).unwrap();
                        }
                    }
                    at += len;
                }
                let counts = ml.finish_superstep().unwrap();
                assert_eq!(counts.iter().sum::<u64>(), m as u64);
                let reader = ml.reader();
                for i in iv.iter_ids() {
                    let file = ssd.lookup(&format!("prop.mlog.{i}.a")).unwrap();
                    for page in ssd.read_all(file, |_| 0).unwrap() {
                        let shape = LogPage::parse(&page).unwrap().shape();
                        assert_eq!(shape.has_src, reads_src);
                        shapes_seen.insert((shape.wide_dest, shape.has_src));
                    }
                    // Oracle: this interval's sends, stable by destination.
                    let mut want: Vec<Update> = ups
                        .iter()
                        .filter(|u| iv.interval_of(u.dest) == i)
                        .map(|&u| Update { src: if reads_src { u.src } else { VertexId::MAX }, ..u })
                        .collect();
                    want.sort_by_key(|u| u.dest);
                    let plan = reader.plan_reads(i..i + 1).unwrap();
                    let pages = ssd.read_batch(&plan.reqs).unwrap();
                    let ctx = format!(
                        "case {case} n={n} k={k} m={m} interval {i} threads={threads} \
                         src={reads_src}"
                    );
                    assert_eq!(reader.decode_sorted(&plan, &pages).unwrap().updates, want, "{ctx}");
                    let want_folded: Vec<Update> = group_by_dest(&want)
                        .map(|(dest, group)| {
                            let data = group.iter().map(|u| u.data).reduce(fold).unwrap();
                            Update::new(dest, VertexId::MAX, data)
                        })
                        .collect();
                    let folded = reader.decode(&plan, &pages).unwrap();
                    reader.consume(&plan, &folded).unwrap();
                    assert_eq!(folded.updates, want_folded, "{ctx}");
                    assert_eq!(folded.records, want.len() as u64, "{ctx}");
                }
            }
        }
        set_thread_override(None);
    }
    assert_eq!(shapes_seen.len(), 4, "shapes exercised: {shapes_seen:?}");
}

/// Who decodes a fused batch never changes results: for any graph, flood
/// under a budget that splits supersteps into several fused batches is
/// bit-identical at one thread (the owner decodes every batch in place) and
/// two (look-ahead workers decode the batches read ahead).
#[test]
fn flood_invariant_across_threads_any_graph() {
    use multilogvc::par::set_thread_override;

    struct Flood;
    impl VertexProgram for Flood {
        fn name(&self) -> &'static str {
            "flood"
        }
        fn init_state(&self, v: VertexId) -> u64 {
            v as u64
        }
        fn init_active(&self, _n: usize) -> InitActive {
            InitActive::All
        }
        fn process(&self, ctx: &mut VertexCtx<'_>) {
            let best = ctx.msgs().iter().map(|m| m.data).fold(ctx.state(), u64::max);
            if best > ctx.state() || ctx.superstep() == 1 {
                ctx.set_state(best);
                ctx.send_all(best);
            }
        }
    }
    let mut rng = SeededRng::seed_from_u64(112);
    let mut split = false;
    for case in 0..CASES {
        let (n, edges) = arb_graph(&mut rng);
        let csr = build(n, &edges);
        let run = |threads: usize| {
            set_thread_override(Some(threads));
            let (ssd, sg) = store(&csr, 8);
            let cfg = EngineConfig::default().with_memory(6 << 10);
            let mut eng = MultiLogEngine::new(ssd, sg, cfg);
            let r = eng.run(&Flood, 4 * n + 4);
            set_thread_override(None);
            assert!(r.converged);
            (eng.states().to_vec(), r.supersteps)
        };
        let (one, steps) = run(1);
        let (two, _) = run(2);
        assert_eq!(one, two, "case {case}: two threads changed flood results");
        split |= steps.iter().any(|s| s.batches_inline + s.batches_handed_off > 1);
    }
    assert!(split, "no case split a superstep into several fused batches");
}

/// Coloring output is proper on any graph.
#[test]
fn coloring_proper_any_graph() {
    let mut rng = SeededRng::seed_from_u64(108);
    for _ in 0..CASES {
        let (n, edges) = arb_graph(&mut rng);
        let csr = build(n, &edges);
        let (ssd, sg) = store(&csr, 3);
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default().with_memory(64 << 10));
        let r = eng.run(&Coloring::new(), 40 * n + 40);
        assert!(r.converged);
        let colors: Vec<u32> = eng.states().iter().map(|&s| s as u32).collect();
        assert!(mlvc_apps::is_proper_coloring(&csr, &colors));
    }
}
