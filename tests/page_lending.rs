//! The device lends its pages (DESIGN.md §3, §12): a read returns handles
//! on shared, immutable buffers — never copies — and a write replaces the
//! buffer in the slot, so a lent page keeps the bytes it was read with.
//! These tests pin the sharing (so nobody re-adds a copy), the snapshot
//! semantics the copy used to give, and the two consumers that were
//! rewritten on top of it: the run-merging CSR decoder and the
//! allocation-free `RandomWalk` / `Sssp`.

use std::sync::{Arc, Barrier};

use multilogvc::apps::{RandomWalk, Sssp};
use multilogvc::core::{Engine, EngineConfig, MultiLogEngine, ReferenceEngine, VertexProgram};
use multilogvc::graph::{
    Csr, EdgeListBuilder, GraphLoader, HeldPages, StoredGraph, VertexId, VertexIntervals,
};
use multilogvc::ssd::{DeviceError, FaultPlan, FileId, Page, PageCache, Reads, Ssd, SsdConfig};

const PAGE: usize = 256; // `SsdConfig::test_small`

fn mem() -> Ssd {
    Ssd::new(SsdConfig::test_small())
}

/// Both backends, the file-backed one under a fresh directory of its own.
fn backends(dir: &std::path::Path) -> [(&'static str, Ssd); 2] {
    let _ = std::fs::remove_dir_all(dir);
    let disk = Ssd::new_on_disk(SsdConfig::test_small(), dir.to_path_buf()).unwrap();
    [("Mem", mem()), ("Dir", disk)]
}

fn filled(ssd: &Ssd, name: &str, pages: u8) -> FileId {
    let f = ssd.open_or_create(name).unwrap();
    for i in 0..pages {
        ssd.append_page(f, &[i + 1; PAGE]).unwrap();
    }
    f
}

// ---- (i) one allocation -------------------------------------------------

#[test]
fn mem_reads_and_cache_hits_share_the_stores_allocation() {
    let ssd = mem();
    let f = filled(&ssd, "a", 4);
    let first = ssd.read_page(f, 2, 0).unwrap();
    let again = ssd.read_batch(&[(f, 0, 0), (f, 2, 0)]).unwrap();
    assert!(Page::ptr_eq(&first, &again[1]), "two reads of one page copied it");
    assert!(!Page::ptr_eq(&first, &again[0]));

    // A miss fill inserts the very page it returns; a hit hands it out
    // again — and on `Mem` that page is still the store's.
    ssd.attach_cache(Arc::new(PageCache::new(8)));
    let fill = ssd.read_page(f, 2, 0).unwrap();
    let hit = ssd.read_page(f, 2, 0).unwrap();
    assert_eq!(ssd.cache().unwrap().snapshot().tenant(0).hits, 1);
    assert!(Page::ptr_eq(&fill, &hit), "a cache hit copied the frame");
    assert!(Page::ptr_eq(&first, &hit), "the frame does not alias the store");

    // So does a held topology page — the tiered engine's loader keeps the
    // handle its own read was lent, and answers the next request with it
    // — and a clone of any handle.
    let mut held = HeldPages::default();
    held.mark(f);
    let mut reads = Reads::Device(&ssd);
    held.read(&mut reads, &[(f, 0, 0)], None).unwrap();
    let (_, kept) = held.read(&mut reads, &[(f, 0, 0)], None).unwrap();
    assert_eq!((held.hits(), held.pages()), (1, 1));
    assert!(Page::ptr_eq(&again[0], &kept[0]), "a held page copied the store's");
    assert!(Page::ptr_eq(&first, &first.clone()));
    assert_eq!(first, Page::from(&[3u8; PAGE][..]), "equality is by bytes");
}

// ---- (ii) a lent page is a snapshot ---------------------------------------

#[test]
fn a_lent_page_keeps_its_bytes_across_overwrite_truncate_and_delete() {
    let dir = std::env::temp_dir().join(format!("mlvc-page-lending-{}", std::process::id()));
    for cached in [false, true] {
        for (backend, ssd) in backends(&dir) {
            if cached {
                ssd.attach_cache(Arc::new(PageCache::new(16)));
            }
            let ctx = format!("{backend}, cache {cached}");
            let f = filled(&ssd, "data", 4);
            let old: Vec<Page> = ssd.read_all(f, |_| 0).unwrap();
            let was = |p: usize| [p as u8 + 1; PAGE];

            ssd.write_page(f, 0, &[0xA0; 16]).unwrap();
            assert_eq!(&old[0][..], &was(0), "{ctx}: write_page reached a lent page");
            let new = ssd.read_page(f, 0, 0).unwrap();
            assert_eq!((&new[..16], &new[16..]), (&[0xA0; 16][..], &[0u8; PAGE - 16][..]), "{ctx}");

            ssd.write_batch(&[(f, 1, &[0xB1; PAGE]), (f, 2, &[0xB2; PAGE])]).unwrap();
            assert_eq!((&old[1][..], &old[2][..]), (&was(1)[..], &was(2)[..]), "{ctx}: write_batch");
            let new = ssd.read_batch(&[(f, 1, 0), (f, 2, 0)]).unwrap();
            assert_eq!((&new[0][..], &new[1][..]), (&[0xB1; PAGE][..], &[0xB2; PAGE][..]), "{ctx}");

            // A torn write: the crash page holds a strict prefix of the new
            // payload, the lent page all of the old one.
            ssd.install_fault_plan(FaultPlan::crash_after(1, 0xFEED));
            assert_eq!(ssd.write_page(f, 3, &[0xC3; PAGE]), Err(DeviceError::Crashed), "{ctx}");
            ssd.revive();
            assert_eq!(&old[3][..], &was(3), "{ctx}: torn write reached a lent page");
            let torn = ssd.read_page(f, 3, 0).unwrap();
            let keep = torn.iter().take_while(|&&b| b == 0xC3).count();
            assert!(keep < PAGE && torn[keep..].iter().all(|&b| b == 0), "{ctx}: {keep}");

            let lent = ssd.read_all(f, |_| 0).unwrap();
            let bytes: Vec<Vec<u8>> = lent.iter().map(|p| p.to_vec()).collect();
            ssd.truncate(f).unwrap();
            assert_eq!(ssd.read_page(f, 0, 0), Err(DeviceError::OutOfBounds { file: f, page: 0 }));
            ssd.append_page(f, &[0xD0; PAGE]).unwrap();
            assert_eq!(&ssd.read_page(f, 0, 0).unwrap()[..], &[0xD0; PAGE], "{ctx}");
            ssd.delete(f).unwrap();
            assert_eq!(ssd.read_page(f, 0, 0), Err(DeviceError::Deleted { file: f }), "{ctx}");
            for (p, b) in lent.iter().zip(&bytes) {
                assert_eq!(&p[..], &b[..], "{ctx}: truncate / delete reached a lent page");
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

// ---- (iii) a write that races a fill --------------------------------------

/// A reader faulting a page through the cache and a writer overwriting it
/// start together, round after round. However the two interleave, the
/// reader sees one whole version, a read after both returns the new one —
/// so a fill the write raced never became resident — and every request
/// was either a hit or exactly one charged device read. (The interleaving
/// itself — write between the fill's device read and its landing — cannot
/// be forced through the public API and falls in about one round in a
/// thousand here; `mlvc_ssd`'s own
/// `a_write_or_truncate_racing_a_fill_keeps_it_out_of_the_cache` steps
/// through it deterministically.)
#[test]
fn a_write_racing_a_fill_never_leaves_the_stale_page_resident() {
    const ROUNDS: u8 = 200;
    const SPAN: u64 = 16;
    let ssd = Arc::new(mem());
    ssd.attach_cache(Arc::new(PageCache::new(4 * SPAN as usize)));
    let f = filled(&ssd, "raced", SPAN as u8);
    let reqs: Vec<(FileId, u64, usize)> = (0..SPAN).map(|p| (f, p, 0)).collect();
    let target = SPAN as usize - 1;
    ssd.stats().reset();
    let mut requests = 0u64;
    for round in 1..=ROUNDS {
        // Rewriting the span drops it from the cache: every round's batch
        // is one fill of all of it, the raced page (the last) included.
        for p in 0..SPAN {
            ssd.write_page(f, p, &[round - 1; PAGE]).unwrap();
        }
        let start = Barrier::new(2);
        let seen = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                ssd.read_batch(&reqs).unwrap()
            });
            start.wait();
            ssd.write_page(f, SPAN - 1, &[round; PAGE]).unwrap();
            reader.join().unwrap()
        });
        let raced = &seen[target];
        assert!(
            raced.iter().all(|&b| b == round) || raced.iter().all(|&b| b == round - 1),
            "round {round}: the reader saw a mixed page"
        );
        let after = ssd.read_batch(&reqs).unwrap();
        assert_eq!(&after[target][..], &[round; PAGE], "round {round}: stale fill resident");
        requests += 2 * SPAN;
    }
    let hits = ssd.cache().unwrap().snapshot().tenant(0).hits;
    assert_eq!(hits + ssd.stats().snapshot().pages_read, requests, "hits + device reads");
}

// ---- (iv) programs that hold their inbox while they send ------------------

fn weighted(g: &Csr) -> Csr {
    let mut b = EdgeListBuilder::new(g.num_vertices());
    for v in 0..g.num_vertices() as VertexId {
        for &d in g.out_edges(v) {
            b.push_weighted(v, d, 1.0 + ((v ^ d) % 7) as f32);
        }
    }
    b.build()
}

#[test]
fn random_walk_and_sssp_match_the_reference_engine_at_one_and_two_threads() {
    let g = mlvc_gen::cf_mini(10, 11).graph;
    let wg = weighted(&g);
    let cases: [(&Csr, Box<dyn VertexProgram>, usize); 2] = [
        (&g, Box::new(RandomWalk::new(4, 2, 12)), 20),
        (&wg, Box::new(Sssp::new(1)), 80),
    ];
    for (graph, prog, steps) in &cases {
        let seed = 0x5EED;
        let mut reference = ReferenceEngine::new((*graph).clone(), seed);
        reference.run(prog.as_ref(), *steps);
        assert!(reference.states().iter().any(|&s| s != reference.states()[0]));
        for threads in [1usize, 2] {
            multilogvc::par::set_thread_override(Some(threads));
            let ssd = Arc::new(mem());
            let iv = VertexIntervals::uniform(graph.num_vertices(), 5);
            let sg = StoredGraph::store_with(&ssd, graph, "m", iv).unwrap();
            let cfg = EngineConfig::default().with_memory(512 << 10).with_seed(seed);
            let mut m = MultiLogEngine::new(ssd, sg, cfg);
            let r = m.run(prog.as_ref(), *steps);
            multilogvc::par::set_thread_override(None);
            assert!(r.interrupted.is_none());
            assert_eq!(m.states(), reference.states(), "{} at {threads} threads", prog.name());
        }
    }
}

// ---- (v) the run-merging decoder -------------------------------------------

/// 300 vertices in one interval on 256-byte pages (64 entries a page):
/// degrees cycle 0, 0, 5, 1, 70, 0, 3 — zero-degree vertices between
/// neighbours, lists that straddle pages, and one longer than a page.
fn ragged() -> Csr {
    let mut b = EdgeListBuilder::new(300);
    for v in 0..300u32 {
        let degree = [0u32, 0, 5, 1, 70, 0, 3][v as usize % 7];
        for k in 0..degree {
            b.push_weighted(v, (v * 31 + k * 7) % 300, (v + k) as f32);
        }
    }
    b.build()
}

#[test]
fn dense_sparse_and_zero_degree_runs_decode_equal_to_the_csr() {
    let g = ragged();
    let ssd = Arc::new(mem());
    let sg = StoredGraph::store_with(&ssd, &g, "rag", VertexIntervals::uniform(300, 1)).unwrap();
    let all: Vec<VertexId> = (0..300).collect();
    let actives: [(&str, Vec<VertexId>); 5] = [
        ("dense", all.clone()),
        ("sparse", all.iter().copied().step_by(13).collect()),
        // 2, 3, 4 are contiguous; 5 has no edges; 6 follows it: one run.
        ("zero-degree between neighbours", vec![2, 3, 4, 5, 6, 9, 11, 13]),
        ("only zero-degree", vec![0, 1, 5, 7]),
        ("non-zero skipped between", vec![2, 4, 6, 298, 299]),
    ];
    for (name, active) in &actives {
        let adj = GraphLoader::new().load_active(&sg, 0, active, true, None).unwrap();
        assert_eq!(adj.len(), active.len(), "{name}");
        for (k, &v) in active.iter().enumerate() {
            assert_eq!(adj.vertices()[k].v, v, "{name}");
            assert_eq!(adj.edges(k), g.out_edges(v), "{name}: edges of {v}");
            assert_eq!(adj.weights(k).unwrap(), g.out_weights(v).unwrap(), "{name}: weights of {v}");
        }
    }
}
