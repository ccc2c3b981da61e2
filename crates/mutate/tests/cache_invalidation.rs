//! Property: a mutation merge invalidates exactly the dirty partitions'
//! cached pages (DESIGN.md §18).
//!
//! The merge rewrites each dirty interval's CSR extents with
//! truncate+append, and the device drops every cached copy
//! of a truncated file — so a stale read is impossible by construction.
//! Clean intervals' pages are untouched and must stay resident: their
//! re-reads are served entirely from the cache, with zero device reads
//! and bytes identical to the pre-merge content.

use std::sync::Arc;

use mlvc_graph::{Csr, EdgeListBuilder, StoredGraph, VertexIntervals};
use mlvc_mutate::{EdgeMutation, MutationConfig, MutationLog};
use mlvc_ssd::{FileId, Page, PageCache, Ssd, SsdConfig};

const NUM_INTERVALS: u32 = 8;

fn ring(n: usize) -> Csr {
    let mut b = EdgeListBuilder::new(n).symmetrize(true);
    for v in 0..n as u32 {
        b.push(v, (v + 1) % n as u32);
    }
    b.build()
}

fn lcg(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s
}

/// Every (file, page, bytes) request covering one interval's extents.
fn interval_reqs(ssd: &Ssd, sg: &StoredGraph, iv: u32) -> Vec<(FileId, u64, usize)> {
    let mut reqs = Vec::new();
    for f in [sg.rowptr_file(iv), sg.colidx_file(iv)] {
        for p in 0..ssd.num_pages(f).unwrap() {
            reqs.push((f, p, ssd.page_size()));
        }
    }
    reqs
}

#[test]
fn merge_invalidates_exactly_the_dirty_partitions_cached_pages() {
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    // Cache far larger than the graph: nothing is ever evicted, so any
    // device read after warming can only come from invalidation.
    ssd.attach_cache(Arc::new(PageCache::new(512)));
    let g = ring(64);
    let iv = VertexIntervals::uniform(g.num_vertices(), NUM_INTERVALS as usize);
    let sg = StoredGraph::store_with(&ssd, &g, "inv", iv.clone()).unwrap();
    let mut mlog = MutationLog::new(Arc::clone(&ssd), iv.clone(), MutationConfig::default(), "inv").unwrap();

    // Warm every interval's extents into the cache and keep the bytes.
    let mut warm: Vec<Vec<Page>> = Vec::new();
    for i in 0..NUM_INTERVALS {
        warm.push(ssd.read_batch(&interval_reqs(&ssd, &sg, i)).unwrap());
    }

    // A random batch of brand-new edges from a seeded LCG, clustered on
    // the low vertices so some intervals stay clean.
    let mut seed = 0x1EE7u64;
    let mut batch = Vec::new();
    for _ in 0..12 {
        let s = (lcg(&mut seed) % 16) as u32;
        let d = 32 + (lcg(&mut seed) % 16) as u32;
        batch.push(EdgeMutation::add(s, d));
    }
    mlog.ingest(&batch).unwrap();
    let outcome = mlog.merge(&sg).unwrap();
    assert!(!outcome.delta.dirty.is_empty(), "the batch must dirty something");

    // Rewritten partitions are those holding a mutated edge's *source*
    // (out-edge owner); `delta.dirty` also lists destination endpoints
    // for re-convergence seeding, but their partitions are not touched.
    let mut dirty_ivs = vec![false; NUM_INTERVALS as usize];
    for &(s, _) in outcome.delta.added.iter().chain(&outcome.delta.removed) {
        dirty_ivs[iv.interval_of(s) as usize] = true;
    }
    assert!(dirty_ivs.iter().any(|d| !d), "some intervals must stay clean");
    assert!(dirty_ivs.iter().any(|d| *d), "some intervals must be dirty");

    for (i, &dirty) in dirty_ivs.iter().enumerate() {
        let reqs = interval_reqs(&ssd, &sg, i as u32);
        let before = ssd.stats().snapshot();
        let data = ssd.read_batch(&reqs).unwrap();
        let read = ssd.stats().snapshot().since(&before).pages_read;
        if dirty {
            assert!(
                read > 0,
                "interval {i} was rewritten; its pages must come from the device"
            );
        } else {
            assert_eq!(read, 0, "clean interval {i} must be served from the cache");
            assert_eq!(data, warm[i], "clean interval {i} content must be unchanged");
        }
    }

    // Stale reads are impossible: every accepted edge is visible through
    // the cached device immediately after the merge, and was absent from
    // the pre-merge cache (so serving a stale page would fail here).
    for m in &batch {
        let src_iv = iv.interval_of(m.src);
        let (rowptr, colidx, _) = sg.read_interval(src_iv).unwrap();
        let k = (m.src - iv.start(src_iv)) as usize;
        let adj = &colidx[rowptr[k] as usize..rowptr[k + 1] as usize];
        assert!(adj.contains(&m.dst), "edge {}->{} missing after merge", m.src, m.dst);
    }
}
