use std::collections::HashMap;

use mlvc_ssd::{DeviceError, FileId, Page, Reads, Ticket};

use crate::checked::{idx, mem_idx, to_u32, to_u64};
use crate::page::{corrupt, Layout, Partition, HEADER_BYTES};
use crate::view::{Edges, ListView, Weights};
use crate::{IntervalId, StoredGraph, StructuralUpdateBuffer, VertexId};

/// Where a stored list starts in one extent's lent pages: the index of its
/// first page among them, and its first entry on that page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct At {
    first: usize,
    off: usize,
}

/// Where one vertex's list is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListAt {
    /// Stored entries: `len` of them from `colidx` in the lent column-index
    /// pages (and from `val` in the lent `val` pages of a weighted
    /// adjacency), running on through the pages that follow.
    Stored { colidx: At, val: At, len: usize },
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
/// consecutive in its extent's request list, and an entry never straddles a
/// page. Nothing stored is decoded or copied here; [`Self::edges`] and
/// [`Self::weights`] hand out [`ListView`]s that decode an entry where a
/// program asks for it. The one owned buffer holds the lists that never
/// were stored bytes: those the edge log served ([`Self::push`]) and those a
/// pending structural update rewrote.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    vertices: Vec<AdjVertex>,
    /// The pages lent for the column-index requests, in request order.
    colidx: Vec<Page>,
    /// The pages lent for the `val` requests when `weighted`, empty
    /// otherwise: its own request list, since a `val` page holds fewer
    /// entries than a column-index page.
    val: Vec<Page>,
    owned: Vec<VertexId>,
    weighted: bool,
    /// How entries lie on the column-index and `val` pages.
    colidx_lay: Layout,
    val_lay: Layout,
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
            ListAt::Stored { colidx: at, len, .. } => {
                ListView::stored(&self.colidx[at.first..], at.off, len, self.colidx_lay)
            }
            ListAt::Owned { lo, hi } => Edges::from(&self.owned[lo..hi]),
        }
    }

    /// Out-edge weights of the `k`-th vertex, when weights were loaded.
    pub fn weights(&self, k: usize) -> Option<Weights<'_>> {
        self.weighted.then(|| match self.vertices[k].at {
            ListAt::Stored { val: at, len, .. } => {
                ListView::stored(&self.val[at.first..], at.off, len, self.val_lay)
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
    /// The topology pages a tiered engine holds: every read passes through.
    pub held: HeldPages,
    /// `(file, page, useful bytes)` per column-index page per call, in call
    /// order; [`Self::take_page_usage`] sorts and sums it once a superstep.
    colidx_usage: Vec<(FileId, u64, u32)>,
    rowptr_pages_read: u64,
    colidx_pages_read: u64,
    /// Every request list handed to the device, for the test that pins them.
    #[cfg(test)]
    issued: Vec<Vec<(FileId, u64, usize)>>,
}

/// The tiered engine's hot topology pages (DESIGN.md §18), held as the
/// [`Page`] handles the loader's own reads were lent. A *marked* file keeps
/// every page a read returns, and a request for a kept page is answered
/// here, never reaching the device; [`Self::release`] drops a file's pages
/// and mark. One owner, no lock: nothing else reads through it.
#[derive(Debug, Default)]
pub struct HeldPages {
    /// The marked files, each with its kept pages by page index.
    files: HashMap<FileId, HashMap<u64, Page>>,
    /// Requests answered from kept pages, over the map's life.
    hits: u64,
}

impl HeldPages {
    pub fn mark(&mut self, file: FileId) {
        self.files.entry(file).or_default();
    }

    pub fn release(&mut self, file: FileId) {
        self.files.remove(&file);
    }

    /// Pages kept right now.
    pub fn pages(&self) -> usize {
        self.files.values().map(HashMap::len).sum()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Read `reqs` through `reads`, one page a request in request order:
    /// kept pages from here, the rest as one read — submitted even when
    /// empty, so tickets, queue depth and a crashed device's refusal do not
    /// depend on what is kept — whose pages of a marked file are kept. A
    /// short lend gives a short list, which the loader's page check refuses.
    pub fn read(
        &mut self,
        reads: &mut Reads<'_>,
        reqs: &[(FileId, u64, usize)],
        after: Option<Ticket>,
    ) -> Result<(Option<Ticket>, Vec<Page>), DeviceError> {
        if self.files.is_empty() {
            return reads.read(reqs, after);
        }
        let kept: Vec<Option<Page>> =
            reqs.iter().map(|r| self.files.get(&r.0)?.get(&r.1).cloned()).collect();
        let misses: Vec<_> =
            reqs.iter().zip(&kept).filter(|k| k.1.is_none()).map(|k| *k.0).collect();
        let (ticket, lent) = reads.read(&misses, after)?;
        let mut lent = lent.into_iter();
        let mut out = Vec::with_capacity(reqs.len());
        for (&(f, p, _), k) in reqs.iter().zip(kept) {
            self.hits += u64::from(k.is_some());
            let Some(page) = k.or_else(|| lent.next()) else {
                break;
            };
            if let Some(pages) = self.files.get_mut(&f) {
                pages.entry(p).or_insert_with(|| page.clone());
            }
            out.push(page);
        }
        Ok((ticket, out))
    }
}

/// One extent's request list, built in ascending page order: per page the
/// useful bits, summed in place, and the entries the lists take from it.
struct Requests {
    lay: Layout,
    file: FileId,
    /// `(file, page, useful bits)`; [`Self::finish`] turns the bits into
    /// the bytes the device is asked for.
    reqs: Vec<(FileId, u64, usize)>,
    /// Per request, how many of the page's entries it must hold.
    need: Vec<usize>,
}

impl Requests {
    fn new(file: FileId, lay: Layout) -> Self {
        Requests { lay, file, reqs: Vec::new(), need: Vec::new() }
    }

    /// Note entries `[lo, hi)`, `lo < hi`, no lower than any noted before:
    /// their pages are then the last requests, the first shared with
    /// whatever run ended on it. Returns where the run starts among them,
    /// and its first and last page.
    fn note(&mut self, lo: u64, hi: u64) -> (At, u64, u64) {
        let (first, off) = self.lay.locate(lo);
        // Most runs end on the page they start on: no second division.
        let n = mem_idx(hi - lo);
        let (last, end) = if off + n <= self.lay.per_page {
            (first, off + n - 1)
        } else {
            self.lay.locate(hi - 1)
        };
        for p in first..=last {
            let from = if p == first { off } else { 0 };
            let to = if p == last { end + 1 } else { self.lay.per_page };
            let bits = (to - from) * idx(self.lay.width);
            match self.reqs.last_mut() {
                Some(r) if r.1 == p => r.2 += bits,
                _ => {
                    self.reqs.push((self.file, p, bits));
                    self.need.push(0);
                }
            }
            if let Some(n) = self.need.last_mut() {
                *n = (*n).max(to);
            }
        }
        (At { first: self.reqs.len() - 1 - mem_idx(last - first), off }, first, last)
    }

    /// The requests as the device takes them: useful bytes are what the
    /// packed entries occupy, at most a page.
    fn finish(&mut self, page_size: usize) -> &[(FileId, u64, usize)] {
        for r in &mut self.reqs {
            r.2 = r.2.div_ceil(8).min(page_size);
        }
        &self.reqs
    }

    /// The bounds proof of every view over `pages`: the device lent one
    /// page a request, and each page's header is its extent's and holds
    /// every entry taken from it.
    fn check_lent(&self, pages: &[Page]) -> Result<(), DeviceError> {
        if pages.len() != self.reqs.len() {
            return Err(corrupt(format!(
                "{} pages lent for {} requests",
                pages.len(),
                self.reqs.len()
            )));
        }
        for ((page, req), &need) in pages.iter().zip(&self.reqs).zip(&self.need) {
            self.lay
                .check(page, need)
                .map_err(|e| corrupt(format!("page {} of file {}: {e}", req.1, req.0)))?;
        }
        Ok(())
    }
}

/// The row pointers of some sorted active vertices of one interval, read
/// ahead of their column indices ([`GraphLoader::read_row_ptrs`]): the
/// vertices, each page lent with its index, ascending, and the read's
/// ticket when it went through a queue — the one the column-index read is
/// linked behind.
#[derive(Debug)]
pub struct RowPtrs {
    i: IntervalId,
    /// The interval's extents' layout, from metadata alone.
    lay: Partition,
    vs: Vec<VertexId>,
    pages: Vec<(u64, Page)>,
    ticket: Option<Ticket>,
}

impl GraphLoader {
    pub fn new() -> Self {
        GraphLoader {
            held: HeldPages::default(),
            colidx_usage: Vec::new(),
            rowptr_pages_read: 0,
            colidx_pages_read: 0,
            #[cfg(test)]
            issued: Vec::new(),
        }
    }

    fn read(
        &mut self,
        reads: &mut Reads<'_>,
        reqs: &[(FileId, u64, usize)],
        after: Option<Ticket>,
    ) -> Result<(Option<Ticket>, Vec<Page>), DeviceError> {
        #[cfg(test)]
        self.issued.push(reqs.to_vec());
        self.held.read(reads, reqs, after)
    }

    /// Load the out-adjacency of the given **sorted** active vertices of
    /// interval `i`, as views over the pages read from the device. `patch`
    /// applies pending (un-merged) structural updates so callers always
    /// observe the current graph. See [`Self::load_active_with`].
    pub fn load_active(
        &mut self,
        graph: &StoredGraph,
        i: IntervalId,
        active: &[VertexId],
        want_weights: bool,
        patch: Option<&StructuralUpdateBuffer>,
    ) -> Result<Adjacency, DeviceError> {
        let mut reads = Reads::Device(graph.ssd());
        let rows = self.read_row_ptrs(&mut reads, graph, i, active.to_vec())?;
        let mut adj = self.load_active_with(&mut reads, graph, rows, want_weights)?;
        if let Some(buf) = patch {
            buf.patch(i, &mut adj);
        }
        Ok(adj)
    }

    /// Read the row pointers of the given **sorted** active vertices of
    /// interval `i` through `reads` — entries `v − start` and the one after
    /// it per vertex, each page once. The pages are checked here:
    /// one lent a request, each holding every entry taken from it. The
    /// engine reads a fused batch's row pointers, one read an interval,
    /// when the batch retires (DESIGN.md §12).
    pub fn read_row_ptrs(
        &mut self,
        reads: &mut Reads<'_>,
        graph: &StoredGraph,
        i: IntervalId,
        active: Vec<VertexId>,
    ) -> Result<RowPtrs, DeviceError> {
        let ssd = graph.ssd();
        // Every extent's layout from metadata alone, so the page of each
        // entry is known before any page is read.
        let ci_pages = ssd.num_pages(graph.colidx_file(i))?;
        let lay = Partition::new(ssd.page_size(), graph.num_vertices(), ci_pages);
        let mut rows = RowPtrs { i, lay, vs: active, pages: Vec::new(), ticket: None };
        let Some(&last) = rows.vs.last() else {
            return Ok(rows);
        };
        let start = graph.intervals().start(i);
        debug_assert!(rows.vs.windows(2).all(|w| w[0] < w[1]), "active must be sorted+unique");
        assert!(rows.vs[0] >= start && last < graph.intervals().end(i), "vertex outside interval");
        // The actives ascend, so their entries' pages do: the request list
        // comes out sorted and each page's useful bits sum in place.
        let mut rp = Requests::new(graph.rowptr_file(i), lay.rowptr);
        for &v in &rows.vs {
            let j = to_u64(idx(v - start));
            rp.note(j, j + 2);
        }
        let (ticket, pages) = self.read(reads, rp.finish(ssd.page_size()), None)?;
        self.rowptr_pages_read += to_u64(rp.reqs.len());
        rp.check_lent(&pages)?;
        rows.pages = rp.reqs.iter().map(|r| r.1).zip(pages).collect();
        rows.ticket = ticket;
        Ok(rows)
    }

    /// Load the out-adjacency of the vertices whose row pointers `rows`
    /// holds through `reads`, as views over the pages read, the lists as
    /// stored. Only pages overlapping active vertex data are read, each
    /// exactly once per call, and no stored list is decoded or copied. The
    /// column-index and `val` requests are computed from the row pointers'
    /// pages, so their reads are linked behind that read. The views are
    /// validated here, once: row pointers that cannot be a CSR's, or a lent
    /// page whose header is not its extent's or that holds fewer entries
    /// than a list takes from it, come back as [`DeviceError::Corrupt`] —
    /// never as a panic, now or when a view is walked.
    pub fn load_active_with(
        &mut self,
        reads: &mut Reads<'_>,
        graph: &StoredGraph,
        rows: RowPtrs,
        want_weights: bool,
    ) -> Result<Adjacency, DeviceError> {
        let mut adj = Adjacency::default();
        if rows.vs.is_empty() {
            return Ok(adj);
        }
        let (i, lay, page_size) = (rows.i, rows.lay, graph.ssd().page_size());
        let start = graph.intervals().start(i);
        let mut rk = 0usize;
        let mut rp_entry = |(p, k): (u64, usize)| -> u64 {
            while rows.pages[rk].0 < p {
                rk += 1;
            }
            crate::page::entry(&rows.pages[rk].1[HEADER_BYTES..], k, lay.rowptr.width)
        };
        // Where entry `j` and the one after it are: one division for both.
        let pair = |j: u64| {
            let (p, k) = lay.rowptr.locate(j);
            let next = if k + 1 < lay.rowptr.per_page { (p, k + 1) } else { (p + 1, 0) };
            ((p, k), next)
        };

        // --- Column indices (and weights): entries [lo, hi) per vertex. ---
        // Row pointers must ascend and stay inside the extent, so every list
        // lies in pages the device really holds.
        let ci_file = graph.colidx_file(i);
        let mut ci = Requests::new(ci_file, lay.colidx);
        let mut val =
            graph.val_file(i).filter(|_| want_weights).map(|f| Requests::new(f, lay.val));
        adj.vertices.reserve_exact(rows.vs.len());
        let mut prev_hi = 0u64;
        for &v in &rows.vs {
            let (at_lo, at_hi) = pair(to_u64(idx(v - start)));
            let (lo, hi) = (rp_entry(at_lo), rp_entry(at_hi));
            if lo < prev_hi || hi < lo || hi > lay.capacity {
                return Err(corrupt(format!(
                    "row pointers of vertex {v} are [{lo}, {hi}) after {prev_hi}, \
                     in a column-index extent of {} entries",
                    lay.capacity
                )));
            }
            prev_hi = hi;
            let (mut page_lo, mut page_hi) = (1, 0);
            let mut at = ListAt::Stored { colidx: At::default(), val: At::default(), len: 0 };
            if hi > lo {
                let (colidx, first, last) = ci.note(lo, hi);
                (page_lo, page_hi) = (first, last);
                let val = val.as_mut().map_or(At::default(), |r| r.note(lo, hi).0);
                at = ListAt::Stored { colidx, val, len: mem_idx(hi - lo) };
            }
            adj.vertices.push(AdjVertex { v, at, page_lo, page_hi });
        }
        for r in ci.finish(page_size) {
            // Per-page useful bytes saturate at the u32 the predictor uses.
            let useful = to_u32("page useful bytes", r.2).unwrap_or(u32::MAX);
            self.colidx_usage.push((ci_file, r.1, useful));
        }
        adj.colidx = self.read(reads, &ci.reqs, rows.ticket)?.1;
        self.colidx_pages_read += to_u64(ci.reqs.len());
        ci.check_lent(&adj.colidx)?;
        adj.colidx_lay = lay.colidx;

        if let Some(mut val) = val {
            adj.val = self.read(reads, val.finish(page_size), rows.ticket)?.1;
            val.check_lent(&adj.val)?;
            adj.val_lay = lay.val;
            adj.weighted = true;
        }
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
}

impl Default for GraphLoader {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeListBuilder, Rng, VertexIntervals};
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
        // One big interval: 64 vertices × 20 edges = 1 280 entries = 4
        // colidx pages at 330 six-bit entries a page; 65 row pointers of
        // 11 bits (the extent holds 1 320 entries) = 1 page.
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(64);
        for v in 0..64u32 {
            for d in 1..=20 {
                b.push(v, (v + d) % 64);
            }
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
        assert_eq!(full, 5);
    }

    /// The `(file, page, useful)` lists the device is asked for are part
    /// of the simulated clock: `pages_read` and `useful_bytes_read` are
    /// sums over them. Pinned literally on a fixed input.
    #[test]
    fn request_lists_are_pinned() {
        // One interval of 64 vertices, 8 edges each, 256-byte pages. Ids
        // take 6 bits: 512 column indices on 2 pages of 330, vertex 41's
        // list straddling them. Row pointers take 10 bits (the extent holds
        // 660 entries): 65 on one page. Weights take 32 bits, 62 a page: 9
        // pages of their own. Useful bytes are the packed bits, rounded up
        // per page — a list of 8 ids is 6 bytes, of 8 weights 32.
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(64);
        for v in 0..64u32 {
            for d in 1..=8 {
                b.push_weighted(v, (v + d) % 64, d as f32);
            }
        }
        let sg =
            StoredGraph::store_with(&ssd, &b.build(), "pin", VertexIntervals::uniform(64, 1))
                .unwrap();
        let (rp, ci, val) = (sg.rowptr_file(0), sg.colidx_file(0), sg.val_file(0).unwrap());
        let mut loader = GraphLoader::new();
        let adj = loader.load_active(&sg, 0, &[0, 20, 40, 41, 42, 63], true, None).unwrap();
        assert_eq!(
            loader.issued,
            vec![
                vec![(rp, 0, 15)],
                vec![(ci, 0, 20), (ci, 1, 17)],
                vec![(val, 0, 32), (val, 2, 32), (val, 5, 96), (val, 8, 32)],
            ]
        );
        assert_eq!(adj.edges(3), [42, 43, 44, 45, 46, 47, 48, 49]);
        assert_eq!(adj.weights(3).unwrap(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        // Dense: every column-index page whole (the last one's 182 entries).
        loader.issued.clear();
        let all: Vec<u32> = (0..64).collect();
        loader.load_active(&sg, 0, &all, false, None).unwrap();
        assert_eq!(loader.issued, vec![vec![(rp, 0, 160)], vec![(ci, 0, 248), (ci, 1, 137)]]);
    }

    #[test]
    fn page_usage_reflects_useful_bytes() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 0, &[0], false, None).unwrap();
        let usage = loader.take_page_usage(256);
        // Vertex 0 has 3 edges of 6 bits = 3 bytes on one page.
        assert_eq!(usage.len(), 1);
        assert_eq!(usage[0].useful_bytes, 3);
        assert!(usage[0].useful_bytes * 10 < usage[0].page_bytes, "inefficient page detected");
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
        // 3 bytes each, one call after the other.
        assert_eq!(usage[0].useful_bytes, 6);
    }

    #[test]
    fn counters_track_activity() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 1, &[16, 17, 18], false, None).unwrap();
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
        assert_eq!(adj.colidx.len(), 4, "1 280 entries at 330 a page: the lists span pages");
        assert_eq!(adj.val.len(), 21, "62 weights a page");
        assert_eq!(adj.vertices.len(), active.len());
        assert_eq!(adj.owned.capacity(), 0);
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
                crate::Segment::Packed(p) => walked.extend_from_slice(p.decode(&mut Vec::new())),
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
            let entries_per_page = crate::page::per_page(page_size, crate::page::colidx_width(n));
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
