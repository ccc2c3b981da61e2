use mlvc_ssd::{DeviceError, FileId, Page, Ssd};

use crate::checked::{idx, mem_idx, to_u32, to_u64};
use crate::view::{Edges, ListView, Weights};
use crate::{
    IntervalId, StoredGraph, StructuralUpdateBuffer, VertexId, COL_IDX_BYTES, ROW_PTR_BYTES,
};

/// Where one vertex's list is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListAt {
    /// Stored bytes: `len` entries from entry `off` of lent page `first`,
    /// running on through the lent pages that follow it.
    Stored { first: usize, off: usize, len: usize },
    /// Entries `[lo, hi)` of the owned buffer.
    Owned { lo: usize, hi: usize },
}

/// One active vertex of an [`Adjacency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjVertex {
    pub v: VertexId,
    at: ListAt,
    /// Column-index pages of the interval extent holding this vertex's
    /// edges; `page_lo > page_hi` when none were read for it (a zero-degree
    /// vertex, or one the edge log served). The edge-log optimizer keys its
    /// page-efficiency decision on this span.
    pub page_lo: u64,
    pub page_hi: u64,
}

impl AdjVertex {
    /// The column-index page span, `None` when it is empty.
    pub fn csr_pages(&self) -> Option<(u64, u64)> {
        (self.page_lo <= self.page_hi).then_some((self.page_lo, self.page_hi))
    }
}

/// Adjacency of one interval's active vertices, as views: the column-index
/// (and, when weights were asked for, `val`) pages the device lent to
/// [`GraphLoader::load_active`], kept as the handles they arrived as, and
/// per vertex where its list starts in them — a list's pages are
/// consecutive in the request list, and an entry never straddles a page.
/// Nothing stored is decoded or copied here; [`Self::edges`] and
/// [`Self::weights`] hand out [`ListView`]s that decode an entry where a
/// program asks for it. The one owned buffer holds the lists that never
/// were stored bytes: those the edge log served ([`Self::push`]) and those a
/// pending structural update rewrote.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    vertices: Vec<AdjVertex>,
    /// The pages lent for the column-index requests, in request order.
    colidx: Vec<Page>,
    /// The pages lent for the `val` requests — the same pages of the
    /// parallel extent — when `weighted`, empty otherwise.
    val: Vec<Page>,
    owned: Vec<VertexId>,
    weighted: bool,
    /// Entries in a page.
    per_page: usize,
}

impl Adjacency {
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The vertices in the order they were added (ascending once
    /// [`Self::sort_by_vertex`] ran).
    pub fn vertices(&self) -> &[AdjVertex] {
        &self.vertices
    }

    /// Out-edges of the `k`-th vertex.
    pub fn edges(&self, k: usize) -> Edges<'_> {
        match self.vertices[k].at {
            ListAt::Stored { first, off, len } => {
                ListView::stored(&self.colidx[first..], off, len, self.per_page)
            }
            ListAt::Owned { lo, hi } => Edges::from(&self.owned[lo..hi]),
        }
    }

    /// Out-edge weights of the `k`-th vertex, when weights were loaded.
    pub fn weights(&self, k: usize) -> Option<Weights<'_>> {
        self.weighted.then(|| match self.vertices[k].at {
            ListAt::Stored { first, off, len } => {
                ListView::stored(&self.val[first..], off, len, self.per_page)
            }
            // `push` and `replace_edges` refuse a weighted adjacency.
            ListAt::Owned { .. } => Weights::from(&[]),
        })
    }

    /// Append a vertex whose edges come from somewhere other than the CSR
    /// pages (the edge log, which stores no weights): an empty page span.
    pub fn push(&mut self, v: VertexId, edges: impl IntoIterator<Item = VertexId>) {
        assert!(!self.weighted, "an edge-log list in a weighted adjacency");
        let lo = self.owned.len();
        self.owned.extend(edges);
        let at = ListAt::Owned { lo, hi: self.owned.len() };
        self.vertices.push(AdjVertex { v, at, page_lo: 1, page_hi: 0 });
    }

    /// Bring the vertices into ascending order after sorted runs from
    /// several sources were appended (the stable sort merges runs in linear
    /// time; the lists stay where they are).
    pub fn sort_by_vertex(&mut self) {
        self.vertices.sort_by_key(|a| a.v);
    }

    /// Replace the `k`-th vertex's edge list (a structural patch); the new
    /// list goes to the owned buffer. Weighted graphs refuse structural
    /// updates, so an adjacency being patched carries no weights.
    pub(crate) fn replace_edges(&mut self, k: usize, edges: &[VertexId]) {
        assert!(!self.weighted, "structural patch of a weighted adjacency");
        let lo = self.owned.len();
        self.owned.extend_from_slice(edges);
        self.vertices[k].at = ListAt::Owned { lo, hi: self.owned.len() };
    }
}

/// The same vertices with the same lists, wherever each side keeps them.
impl PartialEq for Adjacency {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &AdjVertex, b: &AdjVertex| {
            (a.v, a.page_lo, a.page_hi) == (b.v, b.page_lo, b.page_hi)
        };
        self.len() == other.len()
            && self.vertices.iter().zip(&other.vertices).all(|(a, b)| same(a, b))
            && (0..self.len())
                .all(|k| self.edges(k) == other.edges(k) && self.weights(k) == other.weights(k))
    }
}

/// Utilization of one column-index page accessed during a superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageUsage {
    pub file: FileId,
    pub page: u64,
    /// Useful adjacency bytes consumed from this page.
    pub useful_bytes: u32,
    /// Page capacity in bytes.
    pub page_bytes: u32,
}

impl PageUsage {
    /// Fraction of the page that was actually needed.
    pub fn utilization(&self) -> f64 {
        self.useful_bytes as f64 / self.page_bytes as f64
    }
}

/// The Graph Loader Unit (paper §V-B2).
///
/// "The graph data unit loops over the row pointer array for the range of
/// vertices in the active vertex list ... For the vertices active in the row
/// pointer buffer, vertex data required by the application, such as
/// out-edges or in-edges, are fetched from the colIdx or val vectors stored
/// in the SSD, accessing **only the pages in SSD that have active vertex
/// data**."
///
/// The loader also accumulates per-page utilization of the column-index
/// extents it touches. That record serves two consumers:
/// * the paper's Fig. 3 measurement (fraction of accessed pages with <10%
///   utilization), and
/// * the edge-log optimizer's page-efficiency predictor (§V-C), which uses
///   the *current* superstep's utilization to predict the next one's.
pub struct GraphLoader {
    /// `(file, page, useful bytes)` per column-index page per call, in call
    /// order; [`Self::take_page_usage`] sorts and sums it once a superstep.
    colidx_usage: Vec<(FileId, u64, u32)>,
    rowptr_pages_read: u64,
    colidx_pages_read: u64,
    vertices_loaded: u64,
    edges_loaded: u64,
    /// Every request list handed to the device, for the test that pins them.
    #[cfg(test)]
    issued: Vec<Vec<(FileId, u64, usize)>>,
}

fn corrupt(detail: String) -> DeviceError {
    DeviceError::Corrupt { what: "csr", detail }
}

/// Count `bytes` useful bytes on `page` in a request list that is being
/// built in ascending page order.
fn note_useful(reqs: &mut Vec<(FileId, u64, usize)>, file: FileId, page: u64, bytes: usize) {
    match reqs.last_mut() {
        Some(r) if r.1 == page => r.2 += bytes,
        _ => reqs.push((file, page, bytes)),
    }
}

/// The bounds proof of every view over `pages`: the device lent one page a
/// request, and each is at least as long as the last byte a list takes from
/// it (`ends`, parallel to `reqs`).
fn check_lent(
    pages: &[Page],
    reqs: &[(FileId, u64, usize)],
    ends: &[usize],
) -> Result<(), DeviceError> {
    if pages.len() != reqs.len() {
        return Err(corrupt(format!("{} pages lent for {} requests", pages.len(), reqs.len())));
    }
    for ((page, req), &end) in pages.iter().zip(reqs).zip(ends) {
        if page.len() < end {
            return Err(corrupt(format!(
                "page {} of file {} holds {} bytes, {end} taken from it",
                req.1,
                req.0,
                page.len()
            )));
        }
    }
    Ok(())
}

impl GraphLoader {
    pub fn new() -> Self {
        GraphLoader {
            colidx_usage: Vec::new(),
            rowptr_pages_read: 0,
            colidx_pages_read: 0,
            vertices_loaded: 0,
            edges_loaded: 0,
            #[cfg(test)]
            issued: Vec::new(),
        }
    }

    fn read(
        &mut self,
        ssd: &Ssd,
        reqs: &[(FileId, u64, usize)],
    ) -> Result<Vec<Page>, DeviceError> {
        #[cfg(test)]
        self.issued.push(reqs.to_vec());
        ssd.read_batch(reqs)
    }

    /// Load the out-adjacency of the given **sorted** active vertices of
    /// interval `i`, as views over the pages read. Only pages overlapping
    /// active vertex data are read, each exactly once per call, and no
    /// stored list is decoded or copied. `patch` applies pending (un-merged)
    /// structural updates so callers always observe the current graph. The
    /// views are validated here, once: row pointers that cannot be a CSR's,
    /// or a lent page shorter than what a list takes from it, come back as
    /// [`DeviceError::Corrupt`] — never as a panic, now or when a view is
    /// walked.
    pub fn load_active(
        &mut self,
        graph: &StoredGraph,
        i: IntervalId,
        active: &[VertexId],
        want_weights: bool,
        patch: Option<&StructuralUpdateBuffer>,
    ) -> Result<Adjacency, DeviceError> {
        let mut adj = Adjacency::default();
        if active.is_empty() {
            return Ok(adj);
        }
        let ssd = graph.ssd();
        let page_size = ssd.page_size();
        let start = graph.intervals().start(i);
        let end = graph.intervals().end(i);
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]), "active must be sorted+unique");
        assert!(
            active[0] >= start && active.last().is_some_and(|&v| v < end),
            "vertex outside interval"
        );

        // --- Row pointers: entries (v-start) and (v-start+1) per vertex. ---
        // The actives ascend, so their entries' pages do: the request list
        // comes out sorted and each page's useful bytes sum in place.
        let rp_file = graph.rowptr_file(i);
        let rp_per_page = page_size / ROW_PTR_BYTES;
        let mut rp_reqs: Vec<(FileId, u64, usize)> = Vec::new();
        for &v in active {
            let j = idx(v - start);
            for e in [j, j + 1] {
                note_useful(&mut rp_reqs, rp_file, to_u64(e / rp_per_page), ROW_PTR_BYTES);
            }
        }
        for r in &mut rp_reqs {
            r.2 = r.2.min(page_size);
        }
        let rp_data = self.read(ssd, &rp_reqs)?;
        self.rowptr_pages_read += to_u64(rp_reqs.len());
        let mut rk = 0usize;
        let mut rp_entry = |e: usize| -> Result<u64, DeviceError> {
            while rp_reqs[rk].1 < to_u64(e / rp_per_page) {
                rk += 1;
            }
            let off = (e % rp_per_page) * ROW_PTR_BYTES;
            rp_data[rk]
                .get(off..off + ROW_PTR_BYTES)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_le_bytes)
                .ok_or_else(|| {
                    corrupt(format!(
                        "row-pointer page {} of interval {i} holds {} bytes, entry ends at {}",
                        rp_reqs[rk].1,
                        rp_data[rk].len(),
                        off + ROW_PTR_BYTES
                    ))
                })
        };

        // --- Column indices: byte range [lo*4, hi*4) per vertex. ---
        // Row pointers must ascend and stay inside the extent, so every list
        // lies in pages the device really holds. A list's pages are the last
        // `span` requests once they are noted — consecutive, the first one
        // shared with whatever list ended on it.
        let ci_file = graph.colidx_file(i);
        let cib = to_u64(COL_IDX_BYTES);
        let psz = to_u64(page_size);
        let extent = ssd.num_pages(ci_file)? * (psz / cib);
        let mut ci_reqs: Vec<(FileId, u64, usize)> = Vec::new();
        // Per request, the last byte of the page any list takes: the lists
        // ascend, so the last one to touch a page reaches furthest into it.
        let mut ends: Vec<usize> = Vec::new();
        adj.vertices.reserve_exact(active.len());
        let mut prev_hi = 0u64;
        for &v in active {
            let j = idx(v - start);
            let lo = rp_entry(j)?;
            let hi = rp_entry(j + 1)?;
            if lo < prev_hi || hi < lo || hi > extent {
                return Err(corrupt(format!(
                    "row pointers of vertex {v} are [{lo}, {hi}) after {prev_hi}, \
                     in a column-index extent of {extent} entries"
                )));
            }
            prev_hi = hi;
            let (mut page_lo, mut page_hi) = (1, 0);
            let mut at = ListAt::Stored { first: 0, off: 0, len: 0 };
            if hi > lo {
                let byte_lo = lo * cib;
                let byte_hi = hi * cib;
                (page_lo, page_hi) = (byte_lo / psz, (byte_hi - 1) / psz);
                for p in page_lo..=page_hi {
                    let pg_start = p * psz;
                    // Offsets within one page: they fit usize.
                    let from = mem_idx(byte_lo.max(pg_start) - pg_start);
                    let to = mem_idx(byte_hi.min(pg_start + psz) - pg_start);
                    note_useful(&mut ci_reqs, ci_file, p, to - from);
                    ends.resize(ci_reqs.len(), 0);
                    ends[ci_reqs.len() - 1] = to;
                }
                at = ListAt::Stored {
                    first: ci_reqs.len() - 1 - mem_idx(page_hi - page_lo),
                    off: mem_idx(byte_lo % psz) / COL_IDX_BYTES,
                    len: mem_idx(hi - lo),
                };
            }
            adj.vertices.push(AdjVertex { v, at, page_lo, page_hi });
        }
        for r in &mut ci_reqs {
            // Per-page useful bytes saturate at the u32 the predictor uses.
            let useful = to_u32("page useful bytes", r.2).unwrap_or(u32::MAX);
            self.colidx_usage.push((ci_file, r.1, useful));
            r.2 = r.2.min(page_size);
        }
        adj.colidx = self.read(ssd, &ci_reqs)?;
        self.colidx_pages_read += to_u64(ci_reqs.len());
        check_lent(&adj.colidx, &ci_reqs, &ends)?;
        adj.per_page = page_size / COL_IDX_BYTES;

        // Weights ride on a parallel extent with identical offsets.
        if let Some(vf) = graph.val_file(i).filter(|_| want_weights) {
            let reqs: Vec<(FileId, u64, usize)> =
                ci_reqs.iter().map(|&(_, p, u)| (vf, p, u)).collect();
            adj.val = self.read(ssd, &reqs)?;
            check_lent(&adj.val, &reqs, &ends)?;
            adj.weighted = true;
        }

        if let Some(buf) = patch {
            buf.patch(i, &mut adj);
        }
        self.edges_loaded += (0..adj.len()).map(|k| to_u64(adj.edges(k).len())).sum::<u64>();
        self.vertices_loaded += to_u64(adj.len());
        Ok(adj)
    }

    /// Per-page utilization of column-index pages accessed since the last
    /// call; clears the record (call once per superstep).
    pub fn take_page_usage(&mut self, page_size: usize) -> Vec<PageUsage> {
        let cap = to_u32("page size", page_size).unwrap_or(u32::MAX);
        self.colidx_usage.sort_unstable_by_key(|&(file, page, _)| (file, page));
        let mut out: Vec<PageUsage> = Vec::new();
        for (file, page, useful) in self.colidx_usage.drain(..) {
            match out.last_mut() {
                Some(u) if (u.file, u.page) == (file, page) => {
                    u.useful_bytes = u.useful_bytes.saturating_add(useful).min(cap);
                }
                _ => out.push(PageUsage { file, page, useful_bytes: useful.min(cap), page_bytes: cap }),
            }
        }
        out
    }

    pub fn rowptr_pages_read(&self) -> u64 {
        self.rowptr_pages_read
    }

    pub fn colidx_pages_read(&self) -> u64 {
        self.colidx_pages_read
    }

    pub fn vertices_loaded(&self) -> u64 {
        self.vertices_loaded
    }

    pub fn edges_loaded(&self) -> u64 {
        self.edges_loaded
    }
}

impl Default for GraphLoader {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeListBuilder, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    /// 64 vertices in a ring plus some chords; 256-byte pages hold 64
    /// adjacency entries, so the colidx extents span multiple pages.
    fn stored() -> (Arc<Ssd>, StoredGraph) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(64);
        for v in 0..64u32 {
            b.push(v, (v + 1) % 64);
            b.push(v, (v + 7) % 64);
            b.push(v, (v + 31) % 64);
        }
        let g = b.build();
        let sg = StoredGraph::store_with(&ssd, &g, "ring", VertexIntervals::uniform(64, 4)).unwrap();
        (ssd, sg)
    }

    #[test]
    fn loads_exactly_the_requested_vertices() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        let got = loader.load_active(&sg, 0, &[0, 3, 9], false, None).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got.vertices()[0].v, 0);
        assert_eq!(got.edges(0), &[1, 7, 31]);
        assert_eq!(got.edges(2), &[10, 16, 40]);
        assert!(got.weights(0).is_none());
    }

    #[test]
    fn sparse_active_set_reads_fewer_pages_than_full_interval() {
        // One big interval: 64 vertices × 3 edges = 192 entries = 3 colidx
        // pages at 64 entries/page; 65 rowptr entries = 3 pages.
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(64);
        for v in 0..64u32 {
            b.push(v, (v + 1) % 64);
            b.push(v, (v + 7) % 64);
            b.push(v, (v + 31) % 64);
        }
        let g = b.build();
        let sg = StoredGraph::store_with(&ssd, &g, "one", VertexIntervals::uniform(64, 1)).unwrap();

        let mut l1 = GraphLoader::new();
        ssd.stats().reset();
        l1.load_active(&sg, 0, &[0], false, None).unwrap();
        let sparse = ssd.stats().snapshot().pages_read;

        ssd.stats().reset();
        let all: Vec<u32> = (0..64).collect();
        let mut l2 = GraphLoader::new();
        l2.load_active(&sg, 0, &all, false, None).unwrap();
        let full = ssd.stats().snapshot().pages_read;
        assert!(sparse < full, "sparse {sparse} vs full {full}");
        assert_eq!(sparse, 2, "one rowptr page + one colidx page");
        assert_eq!(full, 6);
    }

    /// The `(file, page, useful)` lists the device is asked for are part
    /// of the simulated clock: `pages_read` and `useful_bytes_read` are
    /// sums over them. Pinned literally on a fixed input.
    #[test]
    fn request_lists_are_pinned() {
        // One interval, 256-byte pages: 65 row pointers on 3 pages (32 a
        // page), 192 column indices on 3 pages (64 a page), 3 per vertex —
        // vertex 21's list straddles pages 0 and 1.
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(64);
        for v in 0..64u32 {
            for d in [1, 7, 31] {
                b.push_weighted(v, (v + d) % 64, d as f32);
            }
        }
        let sg =
            StoredGraph::store_with(&ssd, &b.build(), "pin", VertexIntervals::uniform(64, 1))
                .unwrap();
        let (rp, ci, val) = (sg.rowptr_file(0), sg.colidx_file(0), sg.val_file(0).unwrap());
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 0, &[0, 20, 21, 31, 32, 63], true, None).unwrap();
        assert_eq!(
            loader.issued,
            vec![
                vec![(rp, 0, 56), (rp, 1, 32), (rp, 2, 8)],
                vec![(ci, 0, 28), (ci, 1, 32), (ci, 2, 12)],
                vec![(val, 0, 28), (val, 1, 32), (val, 2, 12)],
            ]
        );
        // Dense: every page whole (the row-pointer sum saturates at the page).
        loader.issued.clear();
        let all: Vec<u32> = (0..64).collect();
        loader.load_active(&sg, 0, &all, false, None).unwrap();
        assert_eq!(
            loader.issued,
            vec![
                vec![(rp, 0, 256), (rp, 1, 256), (rp, 2, 8)],
                vec![(ci, 0, 256), (ci, 1, 256), (ci, 2, 256)],
            ]
        );
    }

    #[test]
    fn page_usage_reflects_useful_bytes() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 0, &[0], false, None).unwrap();
        let usage = loader.take_page_usage(256);
        // Vertex 0 has 3 edges = 12 bytes on one page.
        assert_eq!(usage.len(), 1);
        assert_eq!(usage[0].useful_bytes, 12);
        assert!(usage[0].utilization() < 0.10, "inefficient page detected");
        // Record cleared after take.
        assert!(loader.take_page_usage(256).is_empty());
    }

    #[test]
    fn usage_accumulates_across_calls_within_a_superstep() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 0, &[0], false, None).unwrap();
        loader.load_active(&sg, 0, &[1], false, None).unwrap();
        let usage = loader.take_page_usage(256);
        assert_eq!(usage.len(), 1, "both vertices live on the same page");
        assert_eq!(usage[0].useful_bytes, 24);
    }

    #[test]
    fn counters_track_activity() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 1, &[16, 17, 18], false, None).unwrap();
        assert_eq!(loader.vertices_loaded(), 3);
        assert_eq!(loader.edges_loaded(), 9);
        assert!(loader.rowptr_pages_read() >= 1);
        assert!(loader.colidx_pages_read() >= 1);
    }

    #[test]
    fn empty_active_set_is_free() {
        let (ssd, sg) = stored();
        ssd.stats().reset();
        let mut loader = GraphLoader::new();
        let got = loader.load_active(&sg, 0, &[], false, None).unwrap();
        assert!(got.is_empty());
        assert_eq!(ssd.stats().snapshot().pages_read, 0);
    }

    #[test]
    fn weighted_load() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(8);
        b.push_weighted(0, 1, 1.5);
        b.push_weighted(0, 2, 2.5);
        b.push_weighted(4, 5, 4.5);
        let g = b.build();
        let sg = StoredGraph::store_with(&ssd, &g, "w", VertexIntervals::uniform(8, 2)).unwrap();
        let mut loader = GraphLoader::new();
        let got = loader.load_active(&sg, 0, &[0], true, None).unwrap();
        assert_eq!(got.weights(0).unwrap(), &[1.5, 2.5]);
        let got = loader.load_active(&sg, 1, &[4], true, None).unwrap();
        assert_eq!(got.weights(0).unwrap(), &[4.5]);
    }

    /// What `load_active` hands back is the device's own pages: the handles
    /// `read_batch` lends for the same requests are the very allocations the
    /// adjacency holds, and beside them there is one entry per active vertex
    /// and nothing per edge — the owned buffer was never touched.
    #[test]
    fn a_loaded_adjacency_holds_the_lent_pages_and_nothing_per_edge() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(64);
        for v in 0..64u32 {
            for d in 1..=20 {
                b.push_weighted(v, (v + d) % 64, d as f32);
            }
        }
        let sg =
            StoredGraph::store_with(&ssd, &b.build(), "zc", VertexIntervals::uniform(64, 1))
                .unwrap();
        let mut loader = GraphLoader::new();
        let active: Vec<u32> = (0..64).step_by(3).collect();
        let adj = loader.load_active(&sg, 0, &active, true, None).unwrap();
        let [_rowptr, colidx, val] = &loader.issued[..] else {
            panic!("three request lists: rowptr, colidx, val");
        };
        for (held, reqs) in [(&adj.colidx, colidx), (&adj.val, val)] {
            let lent = ssd.read_batch(reqs).unwrap();
            assert_eq!(held.len(), lent.len());
            assert!(held.iter().zip(&lent).all(|(a, b)| Page::ptr_eq(a, b)));
        }
        assert!(adj.colidx.len() >= 10, "20 of 64 entries a page: the lists span pages");
        assert_eq!(adj.vertices.len(), active.len());
        assert_eq!(adj.owned.capacity(), 0);
    }

    /// xorshift64*: this crate sits below `mlvc-gen`, so the seeded cases
    /// draw from their own generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One view against the list it must be, through every way in.
    fn walk<T: crate::Entry>(view: ListView<'_, T>, want: &[T], what: &str) {
        assert_eq!(view.len(), want.len(), "{what}");
        assert_eq!(view.is_empty(), want.is_empty(), "{what}");
        for (k, w) in want.iter().enumerate() {
            assert_eq!(view.get(k), Some(*w), "{what}: entry {k}");
        }
        assert_eq!(view.get(want.len()), None, "{what}");
        assert_eq!(view.iter().len(), want.len(), "{what}");
        assert_eq!(view.iter().collect::<Vec<T>>(), want, "{what}");
        let mut walked: Vec<T> = Vec::new();
        for seg in view.segments() {
            let before = walked.len();
            match seg {
                crate::Segment::Decoded(s) => walked.extend_from_slice(s),
                crate::Segment::Le(b) => walked.extend(b.iter().map(|&e| T::decode(e))),
            }
            assert!(walked.len() > before, "{what}: an empty segment");
        }
        assert_eq!(walked, want, "{what}");
    }

    /// Seeded: random graphs with a hub whose list spans at least three
    /// pages, 256 B and 16 KiB pages, weighted and not, random sorted active
    /// sets that always hold the first and last vertex of the interval and
    /// some zero-degree ones. Every view equals the CSR; then, unweighted,
    /// the same holds for an adjacency that mixes stored lists, lists pushed
    /// the way the edge log serves them, and structurally patched ones.
    #[test]
    fn every_view_equals_the_csr_through_len_get_iter_and_segments() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut zero_degree = 0usize;
        for case in 0..48 {
            let page_size = [256usize, 16 << 10][case % 2];
            let weighted = (case / 2) % 2 == 1;
            let n = 60 + rng.below(100);
            let hub = (rng.below(n)) as u32;
            let mut b = EdgeListBuilder::new(n);
            let push = |b: &mut EdgeListBuilder, s: u32, d: u32| {
                if weighted {
                    b.push_weighted(s, d, (s * 31 + d) as f32 + 0.5);
                } else {
                    b.push(s, d);
                }
            };
            for _ in 0..rng.below(400) {
                // A third of the vertices keep no out-edge.
                let s = rng.below(n) as u32;
                if s % 3 != 1 {
                    push(&mut b, s, rng.below(n) as u32);
                }
            }
            let entries_per_page = page_size / COL_IDX_BYTES;
            for k in 0..2 * entries_per_page + 1 + rng.below(entries_per_page) {
                push(&mut b, hub, (k % n) as u32);
            }
            let csr = b.build();
            let ssd = Arc::new(Ssd::new(SsdConfig::default().with_page_size(page_size)));
            let iv = VertexIntervals::uniform(n, 1 + rng.below(4));
            let sg = StoredGraph::store_with(&ssd, &csr, "pv", iv.clone()).unwrap();
            let mut loader = GraphLoader::new();
            for i in iv.iter_ids() {
                let (lo, hi) = (iv.start(i), iv.end(i));
                let pick = rng.next();
                let active: Vec<u32> = (lo..hi)
                    .filter(|&v| v == lo || v == hi - 1 || v == hub || (pick >> (v % 64)) & 1 == 1)
                    .collect();
                let what = |v: u32| format!("case {case}, {page_size} B pages, vertex {v}");
                let adj = loader.load_active(&sg, i, &active, weighted, None).unwrap();
                assert_eq!(adj.len(), active.len());
                for (k, &v) in active.iter().enumerate() {
                    let a = adj.vertices()[k];
                    assert_eq!(a.v, v);
                    assert!(v != hub || a.page_hi - a.page_lo >= 2, "{}: the hub's pages", what(v));
                    zero_degree += usize::from(csr.out_edges(v).is_empty());
                    walk(adj.edges(k), csr.out_edges(v), &what(v));
                    match (adj.weights(k), csr.out_weights(v)) {
                        (Some(view), Some(want)) => walk(view, want, &what(v)),
                        (None, None) => {}
                        _ => panic!("{}: weights on one side only", what(v)),
                    }
                }
                if weighted {
                    continue;
                }
                // Every other active from the CSR pages, the rest pushed; a
                // pending update of the interval's first vertex and the hub.
                let (stored, pushed): (Vec<u32>, Vec<u32>) =
                    active.iter().partition(|&&v| v % 2 == 0);
                let mut mixed = loader.load_active(&sg, i, &stored, false, None).unwrap();
                for &v in &pushed {
                    mixed.push(v, csr.out_edges(v).iter().copied());
                }
                mixed.sort_by_vertex();
                let mut buf = StructuralUpdateBuffer::new(iv.clone(), 1 << 20);
                let mut golden: Vec<Vec<u32>> = active.iter().map(|&v| csr.out_edges(v).to_vec()).collect();
                for v in [lo, hub] {
                    if let Ok(k) = active.binary_search(&v) {
                        let gone = golden[k].first().copied();
                        let fresh = (0..n as u32).find(|d| !golden[k].contains(d));
                        gone.iter().for_each(|&d| buf.push(crate::EdgeMutation::remove(v, d)));
                        fresh.iter().for_each(|&d| buf.push(crate::EdgeMutation::add(v, d)));
                        golden[k].retain(|d| Some(*d) != gone);
                        golden[k].extend(fresh);
                    }
                }
                buf.patch(i, &mut mixed);
                assert_eq!(mixed.len(), active.len());
                for (k, &v) in active.iter().enumerate() {
                    assert_eq!(mixed.vertices()[k].v, v);
                    walk(mixed.edges(k), &golden[k], &what(v));
                }
            }
        }
        assert!(zero_degree > 100, "{zero_degree} zero-degree vertices walked");
    }

    #[test]
    #[should_panic]
    fn vertex_outside_interval_panics() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        let _ = loader.load_active(&sg, 0, &[60], false, None);
    }
}
