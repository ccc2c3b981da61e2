use mlvc_ssd::{DeviceError, FileId, Page, Ssd};

use crate::checked::{idx, mem_idx, to_u32, to_u64};
use crate::{
    IntervalId, StoredGraph, StructuralUpdateBuffer, VertexId, COL_IDX_BYTES, ROW_PTR_BYTES,
};

/// One active vertex of an [`Adjacency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjVertex {
    pub v: VertexId,
    /// This vertex's out-edges, as a range of the arena.
    lo: usize,
    hi: usize,
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

/// Adjacency of one interval's active vertices: one flat edge array (and
/// one parallel weight array when weights were asked for) that every
/// vertex's out-edges are a range of, whichever source they came from —
/// the CSR pages via [`GraphLoader::load_active`] or the edge log via
/// [`Adjacency::push`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Adjacency {
    vertices: Vec<AdjVertex>,
    edges: Vec<VertexId>,
    /// Parallel to `edges` when `weighted`, empty otherwise.
    weights: Vec<f32>,
    weighted: bool,
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
    pub fn edges(&self, k: usize) -> &[VertexId] {
        let a = &self.vertices[k];
        &self.edges[a.lo..a.hi]
    }

    /// Out-edge weights of the `k`-th vertex, when weights were loaded.
    pub fn weights(&self, k: usize) -> Option<&[f32]> {
        let a = &self.vertices[k];
        self.weighted.then(|| &self.weights[a.lo..a.hi])
    }

    /// Append a vertex whose edges come from somewhere other than the CSR
    /// pages (the edge log): an empty page span, weights zero.
    pub fn push(&mut self, v: VertexId, edges: impl IntoIterator<Item = VertexId>) {
        let lo = self.edges.len();
        self.edges.extend(edges);
        if self.weighted {
            self.weights.resize(self.edges.len(), 0.0);
        }
        self.vertices.push(AdjVertex { v, lo, hi: self.edges.len(), page_lo: 1, page_hi: 0 });
    }

    /// Bring the vertices into ascending order after sorted runs from
    /// several sources were appended (the stable sort merges runs in linear
    /// time; the edges stay where they are).
    pub fn sort_by_vertex(&mut self) {
        self.vertices.sort_by_key(|a| a.v);
    }

    /// Replace the `k`-th vertex's edge list (a structural patch); the new
    /// list goes to the end of the arena. Weighted graphs refuse structural
    /// updates, so an arena being patched carries no weights.
    pub(crate) fn replace_edges(&mut self, k: usize, edges: &[VertexId]) {
        assert!(!self.weighted, "structural patch of a weighted adjacency");
        let new_lo = self.edges.len();
        self.edges.extend_from_slice(edges);
        let a = &mut self.vertices[k];
        (a.lo, a.hi) = (new_lo, self.edges.len());
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

/// Decode the entry ranges `[lo, hi)` of a 4-byte-entry extent out of the
/// pages lent for `reqs`, appending to `out`. Ranges ascend, and neighbours
/// in the extent are usually neighbours in the list (`ranges[k].1 ==
/// ranges[k + 1].0`: consecutive active vertices, or ones with only
/// zero-degree vertices between them), so they are merged into runs and
/// decoded one page segment per run — a dense interval is one segment a
/// page, not one per vertex. Every page a range overlaps was requested, so
/// one cursor walks the request list. (`COL_IDX_BYTES` divides the page
/// size, so entries never straddle a page boundary.)
fn decode_u32s<T>(
    out: &mut Vec<T>,
    ranges: &[(u64, u64)],
    reqs: &[(FileId, u64, usize)],
    pages: &[Page],
    page_size: usize,
    conv: impl Fn(u32) -> T,
) -> Result<(), DeviceError> {
    let (cib, psz) = (to_u64(COL_IDX_BYTES), to_u64(page_size));
    let mut k = 0usize;
    let mut nonempty = ranges.iter().filter(|r| r.0 < r.1).peekable();
    while let Some(&(lo, mut hi)) = nonempty.next() {
        while let Some(&(_, next_hi)) = nonempty.next_if(|r| r.0 == hi) {
            hi = next_hi;
        }
        let (mut byte, byte_hi) = (lo * cib, hi * cib);
        while byte < byte_hi {
            while reqs[k].1 < byte / psz {
                k += 1;
            }
            let pg_start = reqs[k].1 * psz;
            let seg_end = byte_hi.min(pg_start + psz);
            let seg = pages[k]
                .get(mem_idx(byte - pg_start)..mem_idx(seg_end - pg_start))
                .ok_or_else(|| {
                    corrupt(format!(
                        "page {} of file {} holds {} bytes, {} taken from it",
                        reqs[k].1,
                        reqs[k].0,
                        pages[k].len(),
                        seg_end - pg_start
                    ))
                })?;
            out.extend(
                seg.chunks_exact(COL_IDX_BYTES)
                    .map(|c| conv(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))),
            );
            byte = seg_end;
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
    /// interval `i` into one arena. Only pages overlapping active vertex
    /// data are read, each exactly once per call. `patch` applies pending
    /// (un-merged) structural updates so callers always observe the current
    /// graph. What is decoded is validated: stored bytes that cannot be a
    /// CSR come back as [`DeviceError::Corrupt`], never as a panic.
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
        // Row pointers must ascend and stay inside the extent; that also
        // bounds the arena by what the device really holds.
        let ci_file = graph.colidx_file(i);
        let cib = to_u64(COL_IDX_BYTES);
        let psz = to_u64(page_size);
        let extent = ssd.num_pages(ci_file)? * (psz / cib);
        let mut ranges: Vec<(u64, u64)> = Vec::with_capacity(active.len());
        let mut ci_reqs: Vec<(FileId, u64, usize)> = Vec::new();
        adj.vertices.reserve_exact(active.len());
        let (mut prev_hi, mut total) = (0u64, 0usize);
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
            ranges.push((lo, hi));
            let (mut page_lo, mut page_hi) = (1, 0);
            if hi > lo {
                let byte_lo = lo * cib;
                let byte_hi = hi * cib;
                (page_lo, page_hi) = (byte_lo / psz, (byte_hi - 1) / psz);
                for p in page_lo..=page_hi {
                    let pg_start = p * psz;
                    let overlap = byte_hi.min(pg_start + psz) - byte_lo.max(pg_start);
                    // Overlap is bounded by the page size, so it fits usize.
                    note_useful(&mut ci_reqs, ci_file, p, mem_idx(overlap));
                }
            }
            let len = mem_idx(hi - lo);
            adj.vertices.push(AdjVertex { v, lo: total, hi: total + len, page_lo, page_hi });
            total += len;
        }
        for r in &mut ci_reqs {
            // Per-page useful bytes saturate at the u32 the predictor uses.
            let useful = to_u32("page useful bytes", r.2).unwrap_or(u32::MAX);
            self.colidx_usage.push((ci_file, r.1, useful));
            r.2 = r.2.min(page_size);
        }
        let ci_data = self.read(ssd, &ci_reqs)?;
        self.colidx_pages_read += to_u64(ci_reqs.len());
        adj.edges.reserve_exact(total);
        decode_u32s(&mut adj.edges, &ranges, &ci_reqs, &ci_data, page_size, |e| e)?;

        // Weights ride on a parallel extent with identical offsets.
        if let Some(vf) = graph.val_file(i).filter(|_| want_weights) {
            let reqs: Vec<(FileId, u64, usize)> =
                ci_reqs.iter().map(|&(_, p, u)| (vf, p, u)).collect();
            let val_data = self.read(ssd, &reqs)?;
            adj.weighted = true;
            adj.weights.reserve_exact(total);
            decode_u32s(&mut adj.weights, &ranges, &reqs, &val_data, page_size, f32::from_bits)?;
        }

        if let Some(buf) = patch {
            buf.patch(i, &mut adj);
        }
        self.edges_loaded += adj.vertices.iter().map(|a| to_u64(a.hi - a.lo)).sum::<u64>();
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

    #[test]
    #[should_panic]
    fn vertex_outside_interval_panics() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        let _ = loader.load_active(&sg, 0, &[60], false, None);
    }
}
