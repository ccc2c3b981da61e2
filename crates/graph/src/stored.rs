use std::sync::Arc;

use mlvc_ssd::{DeviceError, FileId, Page, Ssd};

use crate::checked::{idx, mem_idx, to_u64};
use crate::{Csr, IntervalId, VertexIntervals, VertexId, COL_IDX_BYTES, ROW_PTR_BYTES};

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
/// * `name.rowptr.<i>` — `len(i) + 1` little-endian u64 *local* offsets
///   (first entry 0) into the interval's column-index extent;
/// * `name.colidx.<i>` — u32 out-neighbor ids;
/// * `name.val.<i>` — f32 edge weights (only for weighted graphs).
///
/// Entries never straddle pages (the page size must be a multiple of 8).
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
        assert_eq!(
            ssd.page_size() % ROW_PTR_BYTES,
            0,
            "page size must be a multiple of the row-pointer entry size"
        );
        let mut rowptr_files = Vec::with_capacity(intervals.num_intervals());
        let mut colidx_files = Vec::with_capacity(intervals.num_intervals());
        let mut val_files = graph.has_weights().then(Vec::new);

        for i in intervals.iter_ids() {
            let range = intervals.range(i);
            let base = graph.row_ptr()[idx(range.start)];
            // Local row pointers: offsets relative to this interval's extent.
            let local: Vec<u64> = (range.start..=range.end)
                .map(|v| graph.row_ptr()[idx(v)] - base)
                .collect();
            let lo = mem_idx(graph.row_ptr()[idx(range.start)]);
            let hi = mem_idx(graph.row_ptr()[idx(range.end)]);

            // `open_or_create` preserves existing contents (so a resumed run
            // can reattach to its extents); a fresh store starts clean.
            let rp = ssd.open_or_create(&format!("{name}.rowptr.{i}"))?;
            let ci = ssd.open_or_create(&format!("{name}.colidx.{i}"))?;
            write_partition(ssd, rp, ci, &local, &graph.col_idx()[lo..hi])?;
            rowptr_files.push(rp);
            colidx_files.push(ci);

            if let (Some(vf), Some(wall)) = (val_files.as_mut(), graph.weights_all()) {
                let f = ssd.open_or_create(&format!("{name}.val.{i}"))?;
                ssd.truncate(f)?;
                // Weights vector is parallel to col_idx.
                let w: Vec<u32> = wall[lo..hi].iter().map(|&x| f32::to_bits(x)).collect();
                append_u32s(ssd, f, &w)?;
                vf.push(f);
            }
        }

        Ok(StoredGraph {
            ssd: Arc::clone(ssd),
            name: name.to_string(),
            intervals,
            rowptr_files,
            colidx_files,
            val_files,
            num_edges: mlvc_ssd::RelaxedCounter::new(to_u64(graph.num_edges())),
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

    /// Read the whole interval back into memory (row pointers + adjacency).
    /// Charged as sequential batch reads with 100% declared utilization.
    pub fn read_interval(&self, i: IntervalId) -> Result<IntervalCsr, DeviceError> {
        let n_local = self.intervals.len_of(i) + 1;
        let (psz, read) = (self.ssd.page_size(), |reqs: PageReqs| self.ssd.read_batch(&reqs));
        let rowptr = read_u64s(psz, self.rowptr_file(i), n_local, read)?;
        let n_edges = rowptr.last().map_or(0, |&e| mem_idx(e));
        let colidx = read_u32s(psz, self.colidx_file(i), n_edges, read)?;
        let weights = match self.val_file(i) {
            Some(f) => Some(
                read_u32s(psz, f, n_edges, read)?
                    .into_iter()
                    .map(f32::from_bits)
                    .collect(),
            ),
            None => None,
        };
        Ok((rowptr, colidx, weights))
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

/// Replace one CSR partition — a row-pointer extent and its column-index
/// extent — with `rowptr` / `colidx`, in the layout everything here reads
/// back. The one place an extent of either kind is written: a cold store,
/// the mutation merge's shadow copies, its install over the primaries and
/// its crash recovery all come through here, so a merged partition is
/// bit-identical to a cold re-store of the mutated graph.
pub fn write_partition(
    ssd: &Ssd,
    rowptr_file: FileId,
    colidx_file: FileId,
    rowptr: &[u64],
    colidx: &[VertexId],
) -> Result<(), DeviceError> {
    ssd.truncate(rowptr_file)?;
    append_u64s(ssd, rowptr_file, rowptr)?;
    ssd.truncate(colidx_file)?;
    append_u32s(ssd, colidx_file, colidx)
}

/// Append a u64 slice to `file` as little-endian pages (batched).
fn append_u64s(ssd: &Ssd, file: FileId, data: &[u64]) -> Result<(), DeviceError> {
    let per_page = ssd.page_size() / ROW_PTR_BYTES;
    let mut pages: Vec<Vec<u8>> = Vec::with_capacity(data.len().div_ceil(per_page));
    for chunk in data.chunks(per_page) {
        let mut buf = Vec::with_capacity(chunk.len() * ROW_PTR_BYTES);
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        pages.push(buf);
    }
    let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
    if !refs.is_empty() {
        ssd.append_pages(file, &refs)?;
    }
    Ok(())
}

/// Append a u32 slice to `file` as little-endian pages (batched).
fn append_u32s(ssd: &Ssd, file: FileId, data: &[u32]) -> Result<(), DeviceError> {
    let per_page = ssd.page_size() / COL_IDX_BYTES;
    let mut pages: Vec<Vec<u8>> = Vec::with_capacity(data.len().div_ceil(per_page));
    for chunk in data.chunks(per_page) {
        let mut buf = Vec::with_capacity(chunk.len() * COL_IDX_BYTES);
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        pages.push(buf);
    }
    let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
    if !refs.is_empty() {
        ssd.append_pages(file, &refs)?;
    }
    Ok(())
}

/// A read request list: (file, page, useful bytes) per page.
type PageReqs = Vec<(FileId, u64, usize)>;

/// Read back the first `n` `W`-byte little-endian entries of `file`:
/// build the request list, hand it to `read` — the device's batch read, or
/// a submission queue in front of it — and decode the pages it returns.
fn read_entries<const W: usize, T>(
    page_size: usize,
    file: FileId,
    n: usize,
    read: impl FnOnce(PageReqs) -> Result<Vec<Page>, DeviceError>,
    from_le: fn([u8; W]) -> T,
) -> Result<Vec<T>, DeviceError> {
    let per_page = page_size / W;
    let reqs: PageReqs = (0..n.div_ceil(per_page))
        .map(|p| (file, to_u64(p), per_page.min(n - p * per_page) * W))
        .collect();
    let pages = read(reqs)?;
    let mut out = Vec::with_capacity(n);
    for (k, page) in pages.iter().enumerate() {
        let entries = per_page.min(n - k * per_page);
        for chunk in page.chunks_exact(W).take(entries) {
            // chunks_exact guarantees the width; the Err arm is unreachable.
            if let Ok(b) = chunk.try_into() {
                out.push(from_le(b));
            }
        }
    }
    Ok(out)
}

/// Read back `n` u64 entries of a row-pointer extent through `read`.
pub fn read_u64s(
    page_size: usize,
    file: FileId,
    n: usize,
    read: impl FnOnce(PageReqs) -> Result<Vec<Page>, DeviceError>,
) -> Result<Vec<u64>, DeviceError> {
    read_entries::<ROW_PTR_BYTES, _>(page_size, file, n, read, u64::from_le_bytes)
}

/// Read back `n` u32 entries of a column-index (or weight) extent through
/// `read`.
pub fn read_u32s(
    page_size: usize,
    file: FileId,
    n: usize,
    read: impl FnOnce(PageReqs) -> Result<Vec<Page>, DeviceError>,
) -> Result<Vec<u32>, DeviceError> {
    read_entries::<COL_IDX_BYTES, _>(page_size, file, n, read, u32::from_le_bytes)
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

    #[test]
    fn u64_u32_pack_roundtrip_across_pages() {
        let ssd = ssd();
        let f = ssd.open_or_create("u64s").unwrap();
        // 256-byte pages hold 32 u64s; cross several page boundaries.
        let data: Vec<u64> = (0..100).map(|i| i * 1_000_000_007).collect();
        append_u64s(&ssd, f, &data).unwrap();
        let read = |reqs: PageReqs| ssd.read_batch(&reqs);
        assert_eq!(read_u64s(256, f, 100, read).unwrap(), data);

        let f2 = ssd.open_or_create("u32s").unwrap();
        let data2: Vec<u32> = (0..200u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        append_u32s(&ssd, f2, &data2).unwrap();
        assert_eq!(read_u32s(256, f2, 200, read).unwrap(), data2);
    }

    #[test]
    fn weight_bytes_constant_is_coherent() {
        // The on-SSD weight encoding is f32 bits in u32 cells.
        assert_eq!(crate::WEIGHT_BYTES, COL_IDX_BYTES);
    }
}
