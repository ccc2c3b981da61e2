use std::sync::Arc;

use mlvc_ssd::{DeviceError, FileId, Ssd};

use crate::checked::{idx, mem_idx, to_u64};
use crate::page::{self, Kind, Layout, Partition};
use crate::{Csr, IntervalId, VertexIntervals, VertexId};

/// One interval read back into memory: (local row pointers, out-neighbor
/// ids, edge weights when the graph is weighted).
pub type IntervalCsr = (Vec<u64>, Vec<VertexId>, Option<Vec<f32>>);

/// Default memory allocated to the sort & group unit when callers do not
/// specify one; used to size vertex intervals. 1 MiB keeps interval counts
/// in the paper's "few thousands" regime for million-vertex graphs.
pub const DEFAULT_SORT_BUDGET: usize = 1 << 20;

/// Byte size of one logged update (dest u32 + src u32 + payload u64), used
/// for the conservative one-update-per-in-edge interval sizing.
pub const UPDATE_BYTES: usize = 16;

/// A CSR graph laid out on the simulated SSD, partitioned by vertex
/// interval (paper §V-E: "we partition the CSR format graph based on the
/// vertex intervals. Each vertex interval's graph data is stored separately
/// in the CSR format").
///
/// Per interval `i` of graph `name`, three extents exist on the device:
///
/// * `name.rowptr.<i>` — `len(i) + 1` *local* offsets (first entry 0) into
///   the interval's column-index extent;
/// * `name.colidx.<i>` — out-neighbor ids;
/// * `name.val.<i>` — f32 edge weights (only for weighted graphs).
///
/// Every page is in the CSR page format ([`crate::page`]): a header, then
/// entries bit-packed at a width observed from the graph, never straddling
/// a page.
pub struct StoredGraph {
    ssd: Arc<Ssd>,
    name: String,
    intervals: VertexIntervals,
    rowptr_files: Vec<FileId>,
    colidx_files: Vec<FileId>,
    val_files: Option<Vec<FileId>>,
    /// A shared counter so merges can run behind a shared reference — the
    /// file set never changes after construction, only extent contents.
    num_edges: mlvc_ssd::RelaxedCounter,
    /// [`Csr::fingerprint`] of the graph as stored (merges do not move it).
    fingerprint: u64,
}

impl StoredGraph {
    /// Store `graph` with intervals sized by the default sort budget.
    pub fn store(ssd: &Arc<Ssd>, graph: &Csr, name: &str) -> Result<Self, DeviceError> {
        let intervals = VertexIntervals::for_graph(graph, UPDATE_BYTES, DEFAULT_SORT_BUDGET);
        Self::store_with(ssd, graph, name, intervals)
    }

    /// Store `graph` under an explicit interval partition.
    pub fn store_with(
        ssd: &Arc<Ssd>,
        graph: &Csr,
        name: &str,
        intervals: VertexIntervals,
    ) -> Result<Self, DeviceError> {
        assert_eq!(intervals.num_vertices(), graph.num_vertices());
        let n = graph.num_vertices();
        let mut rowptr_files = Vec::with_capacity(intervals.num_intervals());
        let mut colidx_files = Vec::with_capacity(intervals.num_intervals());
        let mut val_files = graph.has_weights().then(Vec::new);

        // Local row pointers: offsets relative to each interval's extent.
        let locals: Vec<Vec<u64>> = intervals
            .iter_ids()
            .map(|i| {
                let range = intervals.range(i);
                let base = graph.row_ptr()[idx(range.start)];
                (range.start..=range.end).map(|v| graph.row_ptr()[idx(v)] - base).collect()
            })
            .collect();
        let mut parts = Vec::with_capacity(intervals.num_intervals());
        for (i, local) in intervals.iter_ids().zip(&locals) {
            let range = intervals.range(i);
            let lo = mem_idx(graph.row_ptr()[idx(range.start)]);
            let hi = mem_idx(graph.row_ptr()[idx(range.end)]);
            // `open_or_create` preserves existing contents (so a resumed run
            // can reattach to its extents); a fresh store starts clean.
            let rp = ssd.open_or_create(&format!("{name}.rowptr.{i}"))?;
            let ci = ssd.open_or_create(&format!("{name}.colidx.{i}"))?;
            rowptr_files.push(rp);
            colidx_files.push(ci);
            // The weights vector is parallel to `col_idx`.
            let val = match (val_files.as_mut(), graph.weights_all()) {
                (Some(vf), Some(wall)) => {
                    vf.push(ssd.open_or_create(&format!("{name}.val.{i}"))?);
                    vf.last().map(|&f| (f, &wall[lo..hi]))
                }
                _ => None,
            };
            parts.push(PartitionWrite {
                rowptr_file: rp,
                colidx_file: ci,
                rowptr: local,
                colidx: &graph.col_idx()[lo..hi],
                val,
            });
        }
        write_partitions(ssd, n, &parts)?;

        Ok(StoredGraph {
            ssd: Arc::clone(ssd),
            name: name.to_string(),
            intervals,
            rowptr_files,
            colidx_files,
            val_files,
            num_edges: mlvc_ssd::RelaxedCounter::new(to_u64(graph.num_edges())),
            fingerprint: graph.fingerprint(),
        })
    }

    pub fn ssd(&self) -> &Arc<Ssd> {
        &self.ssd
    }

    /// Rebind this stored graph onto another view of the *same* device
    /// (see [`Ssd::tenant_view`]): file ids stay valid because views share
    /// the namespace, so the extents are reused without any I/O. The
    /// serving daemon uses this to give each job a handle whose reads are
    /// charged to that job's counters and cache tenant.
    pub fn with_device(&self, ssd: Arc<Ssd>) -> StoredGraph {
        StoredGraph {
            ssd,
            name: self.name.clone(),
            intervals: self.intervals.clone(),
            rowptr_files: self.rowptr_files.clone(),
            colidx_files: self.colidx_files.clone(),
            val_files: self.val_files.clone(),
            num_edges: mlvc_ssd::RelaxedCounter::new(self.num_edges.get()),
            fingerprint: self.fingerprint,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn intervals(&self) -> &VertexIntervals {
        &self.intervals
    }

    pub fn num_vertices(&self) -> usize {
        self.intervals.num_vertices()
    }

    pub fn num_edges(&self) -> u64 {
        self.num_edges.get()
    }

    /// Overwrite the edge-count statistic. The mutation merge sets the
    /// manifest's absolute total here so a replayed install (crash
    /// recovery) lands on the same value instead of double-counting.
    pub fn set_num_edges(&self, n: u64) {
        self.num_edges.set(n);
    }

    pub fn has_weights(&self) -> bool {
        self.val_files.is_some()
    }

    /// The [`Csr::fingerprint`] of the graph this was stored from: what a
    /// checkpoint records to know the graph it was taken on. A merge
    /// rewrites extents but does not move it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Row-pointer extent of interval `i` (public so the mutation merge
    /// can install partitions through its crash-consistent protocol).
    pub fn rowptr_file(&self, i: IntervalId) -> FileId {
        self.rowptr_files[idx(i)]
    }

    /// Column-index extent of interval `i` (public so the edge-log
    /// optimizer can key page-efficiency predictions on it).
    pub fn colidx_file(&self, i: IntervalId) -> FileId {
        self.colidx_files[idx(i)]
    }

    pub(crate) fn val_file(&self, i: IntervalId) -> Option<FileId> {
        self.val_files.as_ref().map(|v| v[idx(i)])
    }

    /// Read the whole interval back into memory (row pointers + adjacency)
    /// through [`read_partition`]: sequential batch reads declaring every
    /// packed byte useful, and a partition that is not a CSR's is
    /// [`DeviceError::Corrupt`].
    pub fn read_interval(&self, i: IntervalId) -> Result<IntervalCsr, DeviceError> {
        let (rp, ci, val) = (self.rowptr_file(i), self.colidx_file(i), self.val_file(i));
        read_partition(&self.ssd, rp, ci, val, self.intervals.len_of(i), self.num_vertices())
    }

    /// Reconstruct the full in-memory CSR (test/verification path; charges
    /// a full sequential scan).
    pub fn to_csr(&self) -> Result<Csr, DeviceError> {
        let mut row_ptr = vec![0u64];
        let mut col_idx = Vec::new();
        let mut weights: Option<Vec<f32>> = self.has_weights().then(Vec::new);
        for i in self.intervals.iter_ids() {
            let (rp, ci, w) = self.read_interval(i)?;
            let base = to_u64(col_idx.len());
            for &off in &rp[1..] {
                row_ptr.push(base + off);
            }
            col_idx.extend(ci);
            if let (Some(acc), Some(wv)) = (weights.as_mut(), w) {
                acc.extend(wv);
            }
        }
        Ok(Csr::from_parts(row_ptr, col_idx, weights))
    }
}

/// One CSR partition to write: its row-pointer and column-index extents,
/// what goes in them, and — on a cold store of a weighted graph — its `val`
/// extent with the weights, parallel to `colidx`.
pub struct PartitionWrite<'a> {
    pub rowptr_file: FileId,
    pub colidx_file: FileId,
    pub rowptr: &'a [u64],
    pub colidx: &'a [VertexId],
    pub val: Option<(FileId, &'a [f32])>,
}

/// Replace a set of CSR partitions in one write dispatch (DESIGN.md §5,
/// rule 4): every extent is truncated, then all their pages are appended
/// with one [`Ssd::append_scattered`], so the write keeps every channel
/// busy. Pages are in the format everything here reads back
/// ([`crate::page`]): `colidx` at the width of the largest id of a graph of
/// `num_vertices` vertices, `rowptr` at the width of the largest offset the
/// `colidx` pages written can hold, `val` at 32 bits. The one place an
/// extent of any kind is written: a cold store, the mutation merge's shadow
/// copies, its install over the primaries and its crash recovery all come
/// through here, so a merged partition is bit-identical to a cold re-store
/// of the mutated graph.
pub fn write_partitions(
    ssd: &Ssd,
    num_vertices: usize,
    parts: &[PartitionWrite<'_>],
) -> Result<(), DeviceError> {
    let ps = ssd.page_size();
    let ci_width = page::colidx_width(num_vertices);
    let mut extents: Vec<(FileId, Vec<Vec<u8>>)> = Vec::with_capacity(3 * parts.len());
    for p in parts {
        let ci_pages = page::encode_pages(Kind::ColIdx, ci_width, ps, p.colidx)?;
        let lay = Partition::new(ps, num_vertices, to_u64(ci_pages.len()));
        let rp_pages = page::encode_pages(Kind::RowPtr, lay.rowptr.width, ps, p.rowptr)?;
        extents.push((p.rowptr_file, rp_pages));
        extents.push((p.colidx_file, ci_pages));
        if let Some((f, weights)) = p.val {
            let bits: Vec<u32> = weights.iter().map(|w| w.to_bits()).collect();
            extents.push((f, page::encode_pages(Kind::Val, page::VAL_WIDTH, ps, &bits)?));
        }
    }
    for (f, _) in &extents {
        ssd.truncate(*f)?;
    }
    let writes: Vec<(FileId, &[u8])> = extents
        .iter()
        .flat_map(|(f, pages)| pages.iter().map(move |page| (*f, page.as_slice())))
        .collect();
    ssd.append_scattered(&writes)?;
    Ok(())
}

/// Read one interval's partition back — `n_local + 1` row pointers, the
/// adjacency they delimit and, when `val_file` is given, its weights — each
/// extent in one device batch whose requests declare the packed bytes they
/// use. The widths are derived as [`write_partitions`] derived them, and
/// everything a CSR must be is checked before it is returned: each page's
/// header (kind, width, entry count), row pointers that start at 0, ascend
/// and end inside the `colidx` extent, and every id below `num_vertices`.
/// A partition that fails any of it is [`DeviceError::Corrupt`].
pub fn read_partition(
    ssd: &Ssd,
    rowptr_file: FileId,
    colidx_file: FileId,
    val_file: Option<FileId>,
    n_local: usize,
    num_vertices: usize,
) -> Result<IntervalCsr, DeviceError> {
    let lay = Partition::new(ssd.page_size(), num_vertices, ssd.num_pages(colidx_file)?);
    let rowptr = read_extent(ssd, rowptr_file, lay.rowptr, n_local + 1)?;
    let ends_inside = rowptr.last().is_some_and(|&e| e <= lay.capacity);
    if rowptr.first() != Some(&0) || !ends_inside || rowptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(page::corrupt(format!(
            "row pointers {}..{} of file {rowptr_file} do not delimit a colidx extent \
             of {} entries",
            rowptr.first().unwrap_or(&0),
            rowptr.last().unwrap_or(&0),
            lay.capacity
        )));
    }
    let n_edges = rowptr.last().map_or(0, |&e| mem_idx(e));
    let mut colidx = Vec::with_capacity(n_edges);
    for id in read_extent(ssd, colidx_file, lay.colidx, n_edges)? {
        match u32::try_from(id).ok().filter(|&v| idx(v) < num_vertices) {
            Some(v) => colidx.push(v),
            None => {
                return Err(page::corrupt(format!(
                    "colidx file {colidx_file} names vertex {id} of {num_vertices}"
                )))
            }
        }
    }
    let weights = match val_file {
        Some(f) => Some(
            read_extent(ssd, f, lay.val, n_edges)?
                .into_iter()
                .map(|b| f32::from_bits(u32::try_from(b).unwrap_or(0)))
                .collect(),
        ),
        None => None,
    };
    Ok((rowptr, colidx, weights))
}

/// The first `n` entries of `file` under `lay`, each page's header checked
/// and its count the one a whole extent of `n` entries puts there.
fn read_extent(ssd: &Ssd, file: FileId, lay: Layout, n: usize) -> Result<Vec<u64>, DeviceError> {
    let pages = lay.pages(n);
    if ssd.num_pages(file)? < to_u64(pages) {
        return Err(page::corrupt(format!(
            "file {file} holds {} pages, {pages} needed for {n} entries",
            ssd.num_pages(file)?
        )));
    }
    let reqs: Vec<(FileId, u64, usize)> =
        (0..pages).map(|p| (file, to_u64(p), lay.bytes(lay.count_on(p, n)))).collect();
    let mut out = Vec::with_capacity(n);
    for (p, lent) in ssd.read_batch(&reqs)?.iter().enumerate() {
        let entries = page::decode_page(lent, lay.kind, lay.width)?;
        if entries.len() != lay.count_on(p, n) {
            return Err(page::corrupt(format!(
                "page {p} of file {file} holds {} entries, {} expected",
                entries.len(),
                lay.count_on(p, n)
            )));
        }
        out.extend(entries);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeListBuilder;
    use mlvc_ssd::SsdConfig;

    fn small_graph(weighted: bool) -> Csr {
        let mut b = EdgeListBuilder::new(8);
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (3, 7)];
        for (s, d) in edges {
            if weighted {
                b.push_weighted(s, d, (s * 10 + d) as f32);
            } else {
                b.push(s, d);
            }
        }
        b.build()
    }

    fn ssd() -> Arc<Ssd> {
        Arc::new(Ssd::new(SsdConfig::test_small()))
    }

    #[test]
    fn store_and_read_back_roundtrip() {
        let ssd = ssd();
        let g = small_graph(false);
        let iv = VertexIntervals::uniform(8, 3);
        let sg = StoredGraph::store_with(&ssd, &g, "g", iv).unwrap();
        assert_eq!(sg.num_vertices(), 8);
        assert_eq!(sg.num_edges(), 10);
        assert_eq!(sg.to_csr().unwrap(), g);
    }

    #[test]
    fn weighted_roundtrip() {
        let ssd = ssd();
        let g = small_graph(true);
        let sg = StoredGraph::store_with(&ssd, &g, "gw", VertexIntervals::uniform(8, 2)).unwrap();
        assert!(sg.has_weights());
        let back = sg.to_csr().unwrap();
        assert_eq!(back.weights_all().unwrap(), g.weights_all().unwrap());
    }

    #[test]
    fn read_interval_local_offsets_start_at_zero() {
        let ssd = ssd();
        let g = small_graph(false);
        let sg = StoredGraph::store_with(&ssd, &g, "g2", VertexIntervals::uniform(8, 4)).unwrap();
        for i in sg.intervals().iter_ids() {
            let (rp, ci, _) = sg.read_interval(i).unwrap();
            assert_eq!(rp[0], 0);
            assert_eq!(*rp.last().unwrap() as usize, ci.len());
            assert_eq!(rp.len(), sg.intervals().len_of(i) + 1);
        }
    }

    #[test]
    fn default_store_uses_inbound_budget_partition() {
        let ssd = ssd();
        let g = small_graph(false);
        let sg = StoredGraph::store(&ssd, &g, "g4").unwrap();
        assert!(sg.intervals().num_intervals() >= 1);
        assert_eq!(sg.to_csr().unwrap(), g);
    }

    /// A torn write leaves a page's tail zeroed. Behind an intact header
    /// that turns row pointers `[0, 2, 3, 4, 6]` into `[0, 2, 3, 0, 0]`,
    /// which no CSR has: the read is `Corrupt`, where it once reached
    /// `Csr::from_parts`' asserts.
    #[test]
    fn a_zeroed_rowptr_tail_is_corrupt_not_a_panic() {
        let ssd = ssd();
        let iv = VertexIntervals::uniform(8, 2);
        let sg = StoredGraph::store_with(&ssd, &small_graph(false), "z", iv).unwrap();
        let f = sg.rowptr_file(0);
        let mut bytes = ssd.read_page(f, 0, 0).unwrap().to_vec();
        bytes[page::HEADER_BYTES + 4..].fill(0);
        ssd.write_page(f, 0, &bytes).unwrap();
        for err in [sg.to_csr().unwrap_err(), sg.read_interval(0).unwrap_err()] {
            assert!(matches!(err, DeviceError::Corrupt { what: "csr", .. }), "{err}");
        }
        // The other interval is untouched.
        assert_eq!(sg.read_interval(1).unwrap().0, [0, 1, 2, 3, 4]);
    }

    /// Each extent's width is the one observed from the graph: ids of an
    /// 8-vertex graph take 3 bits; its row pointers the bits of what one
    /// `colidx` page can hold; weights 32.
    #[test]
    fn widths_are_read_from_the_headers_the_writer_derived() {
        let ssd = ssd();
        let iv = VertexIntervals::uniform(8, 2);
        let sg = StoredGraph::store_with(&ssd, &small_graph(true), "h", iv).unwrap();
        let width = |f| ssd.read_page(f, 0, 0).unwrap()[page::WIDTH_AT];
        let per = page::per_page(256, 3) as u64;
        assert_eq!(width(sg.colidx_file(0)), 3);
        assert_eq!(u32::from(width(sg.rowptr_file(0))), page::bits(per));
        assert_eq!(width(sg.val_file(0).unwrap()), 32);
        // A header that names another width is refused.
        let f = sg.colidx_file(1);
        let mut bytes = ssd.read_page(f, 0, 0).unwrap().to_vec();
        bytes[page::WIDTH_AT] = 4;
        ssd.write_page(f, 0, &bytes).unwrap();
        assert!(matches!(sg.read_interval(1), Err(DeviceError::Corrupt { .. })));
        assert!(sg.read_interval(0).is_ok());
    }
}
