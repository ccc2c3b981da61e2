use crate::checked::{idx, to_u32, to_u64};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use mlvc_graph::{Adjacency, Edges, PageUsage, VertexId};
use mlvc_ssd::{DeviceError, FileId, Ssd};

use crate::BitSet;

/// Configuration of the edge-log optimizer (paper §V-C).
#[derive(Debug, Clone)]
pub struct EdgeLogConfig {
    /// Host-memory cap for edge-log page buffers — the paper's "B%" of
    /// total memory (default 5%).
    pub buffer_bytes: usize,
    /// A column-index page whose utilization is in (0, threshold) counts as
    /// inefficiently used. Paper: "we chose a threshold of 10%".
    pub inefficiency_threshold: f64,
    /// History window N for the activity predictor. Paper: "this simple
    /// history-based prediction with N equal to one proved effective".
    pub history_supersteps: usize,
}

impl Default for EdgeLogConfig {
    fn default() -> Self {
        EdgeLogConfig {
            buffer_bytes: 4 << 20,
            inefficiency_threshold: 0.10,
            history_supersteps: 1,
        }
    }
}

/// Counters of edge-log behaviour — including the Fig. 9 prediction-
/// accuracy inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeLogStats {
    /// Vertices whose out-edges were copied into the edge log.
    pub vertices_logged: u64,
    /// Edge-log pages appended to the SSD.
    pub pages_written: u64,
    /// Active vertices served from the edge log (CSR pages avoided).
    pub hits: u64,
    /// Inefficient pages observed (actual, per superstep, accumulated).
    pub actual_inefficient_pages: u64,
    /// Of the actual inefficient pages, how many the previous superstep's
    /// predictor had flagged (Fig. 9 numerator).
    pub correctly_predicted_pages: u64,
}

impl EdgeLogStats {
    /// Fig. 9 metric: fraction of inefficiently used pages that were
    /// predicted correctly.
    pub fn prediction_accuracy(&self) -> Option<f64> {
        if self.actual_inefficient_pages == 0 {
            None
        } else {
            Some(self.correctly_predicted_pages as f64 / self.actual_inefficient_pages as f64)
        }
    }
}

/// Location of one logged adjacency record on the edge log (entry units of
/// 4 bytes within a page).
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    page: u64,
    offset_entries: u32,
    len: u32,
}

/// The Edge-Log Optimizer (paper §V-C).
///
/// While a superstep processes vertex `v` (whose out-edges are in hand),
/// the optimizer decides whether to *copy* those edges into a dense
/// sequential log so the **next** superstep can read them without touching
/// the underutilized CSR pages they came from. The decision requires all of:
///
/// 1. `v` is predicted active next superstep — *known* if a message for
///    `v` was already logged this superstep, else predicted from the last
///    N supersteps' activity bit vectors;
/// 2. `v`'s edges live on a page predicted to be inefficiently used —
///    pages under the utilization threshold in the current superstep are
///    predicted inefficient for the next;
/// 3. the record fits in one edge-log page (high-degree vertices already
///    use their pages efficiently and are never logged).
///
/// Two files alternate between write and read roles across supersteps, so
/// the log written during superstep `t` is consumed during `t + 1` while
/// `t + 1` writes the other file.
pub struct EdgeLogOptimizer {
    ssd: Arc<Ssd>,
    cfg: EdgeLogConfig,
    files: [FileId; 2],
    /// Index of the file currently being *written*.
    write_side: usize,

    // Write side (filled during the current superstep).
    write_index: HashMap<VertexId, RecordLoc>,
    top: Vec<u32>,
    staged: Vec<Vec<u8>>,
    sealed_pages: u64,
    flushed_pages: u64,

    // Read side (filled during the previous superstep).
    read_index: HashMap<VertexId, RecordLoc>,

    // Predictors.
    history: VecDeque<BitSet>,
    predicted_inefficient: HashSet<(FileId, u64)>,

    num_vertices: usize,
    stats: EdgeLogStats,
    /// Every request list handed to the device, for the test that pins them.
    #[cfg(test)]
    issued: Vec<Vec<(FileId, u64, usize)>>,
}

impl EdgeLogOptimizer {
    pub fn new(
        ssd: Arc<Ssd>,
        num_vertices: usize,
        cfg: EdgeLogConfig,
        tag: &str,
    ) -> Result<Self, DeviceError> {
        assert!(cfg.history_supersteps >= 1);
        assert!(cfg.inefficiency_threshold > 0.0 && cfg.inefficiency_threshold < 1.0);
        let files = [
            ssd.open_or_create(&format!("{tag}.edgelog.a"))?,
            ssd.open_or_create(&format!("{tag}.edgelog.b"))?,
        ];
        ssd.truncate(files[0])?;
        ssd.truncate(files[1])?;
        Ok(EdgeLogOptimizer {
            ssd,
            cfg,
            files,
            write_side: 0,
            write_index: HashMap::new(),
            top: Vec::new(),
            staged: Vec::new(),
            sealed_pages: 0,
            flushed_pages: 0,
            read_index: HashMap::new(),
            history: VecDeque::new(),
            predicted_inefficient: HashSet::new(),
            num_vertices,
            stats: EdgeLogStats::default(),
            #[cfg(test)]
            issued: Vec::new(),
        })
    }

    pub fn stats(&self) -> EdgeLogStats {
        self.stats
    }

    pub fn config(&self) -> &EdgeLogConfig {
        &self.cfg
    }

    fn entries_per_page(&self) -> usize {
        self.ssd.page_size() / 4
    }

    /// Was `v` active within the last N supersteps? (The history-bit-vector
    /// predictor.)
    pub fn predicted_active(&self, v: VertexId) -> bool {
        self.history.iter().any(|h| h.get(idx(v)))
    }

    /// Is any of the given column-index pages predicted inefficient for the
    /// next superstep?
    pub fn page_predicted_inefficient(&self, file: FileId, pages: std::ops::RangeInclusive<u64>) -> bool {
        pages.into_iter().any(|p| self.predicted_inefficient.contains(&(file, p)))
    }

    /// Full logging decision for vertex `v` (see type-level docs).
    /// `known_active` is the multi-log's seen-destination bit.
    pub fn should_log(
        &self,
        v: VertexId,
        degree: usize,
        known_active: bool,
        colidx_file: FileId,
        pages: std::ops::RangeInclusive<u64>,
    ) -> bool {
        if degree == 0 || degree + 2 > self.entries_per_page() {
            return false;
        }
        if !(known_active || self.predicted_active(v)) {
            return false;
        }
        self.page_predicted_inefficient(colidx_file, pages)
    }

    /// Copy `v`'s out-edges into the edge log, from wherever the view has
    /// them. Record layout (u32 entries): `[v][len][edges…]`, never
    /// straddling a page.
    pub fn log_edges<'e>(
        &mut self,
        v: VertexId,
        edges: impl Into<Edges<'e>>,
    ) -> Result<(), DeviceError> {
        let edges = edges.into();
        let rec_len = edges.len() + 2;
        let cap = self.entries_per_page();
        assert!(rec_len <= cap, "record exceeds a page; should_log must gate this");
        if self.top.len() + rec_len > cap {
            self.seal_top()?;
        }
        // Both fields are bounded by entries_per_page via the assert
        // above, so the saturating fallbacks are unreachable.
        let len32 = to_u32("edge-log record length", edges.len()).unwrap_or(u32::MAX);
        let loc = RecordLoc {
            page: self.sealed_pages,
            offset_entries: to_u32("edge-log record offset", self.top.len()).unwrap_or(u32::MAX),
            len: len32,
        };
        self.top.push(v);
        self.top.push(len32);
        self.top.extend(edges);
        self.write_index.insert(v, loc);
        self.stats.vertices_logged += 1;
        Ok(())
    }

    fn seal_top(&mut self) -> Result<(), DeviceError> {
        if self.top.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(self.top.len() * 4);
        for &e in &self.top {
            buf.extend_from_slice(&e.to_le_bytes());
        }
        self.top.clear();
        self.staged.push(buf);
        self.sealed_pages += 1;
        let page_size = self.ssd.page_size();
        if self.staged.len() * page_size > self.cfg.buffer_bytes {
            self.flush_staged()?;
        }
        Ok(())
    }

    fn flush_staged(&mut self) -> Result<(), DeviceError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let file = self.files[self.write_side];
        let refs: Vec<&[u8]> = self.staged.iter().map(|p| p.as_slice()).collect();
        let first = self.ssd.append_pages(file, &refs)?;
        debug_assert_eq!(first, self.flushed_pages);
        self.flushed_pages += to_u64(refs.len());
        self.stats.pages_written += to_u64(refs.len());
        self.staged.clear();
        Ok(())
    }

    /// Does the *read* side hold `v`'s edges (logged last superstep)?
    pub fn contains(&self, v: VertexId) -> bool {
        self.read_index.contains_key(&v)
    }

    /// Drop the given vertices from both log sides. A structural merge
    /// rewrote their adjacency on the device, so any logged copy is stale;
    /// subsequent loads must go back to the CSR pages (cache invalidation
    /// only — results never depend on the edge log holding a vertex).
    ///
    /// The history-bit predictor is *patched*, not reset: a merged vertex's
    /// recorded activity described the pre-merge graph, so its bits are
    /// cleared in every window, while untouched vertices keep their full
    /// history and keep predicting across the merge.
    pub fn invalidate(&mut self, vs: &[VertexId]) {
        for v in vs {
            self.read_index.remove(v);
            self.write_index.remove(v);
            for h in &mut self.history {
                h.clear_bit(idx(*v));
            }
        }
    }

    /// Whether the read side holds nothing at all — most supersteps of most
    /// runs — so callers can skip probing it per vertex.
    pub fn read_side_is_empty(&self) -> bool {
        self.read_index.is_empty()
    }

    /// Fetch logged adjacencies for the given vertices (all must satisfy
    /// [`Self::contains`]), appending them to `adj` in `vs` order. Pages
    /// are read once per batch; utilization of edge-log pages is high by
    /// construction — that is the optimization. A page whose bytes are not
    /// the record the index points at is [`DeviceError::Corrupt`].
    pub fn fetch(&mut self, vs: &[VertexId], adj: &mut Adjacency) -> Result<(), DeviceError> {
        if vs.is_empty() {
            return Ok(());
        }
        let file = self.files[1 - self.write_side];
        let page_size = self.ssd.page_size();
        let locs: Vec<RecordLoc> = vs.iter().map(|v| self.read_index[v]).collect();
        // One request per distinct page, ascending, its useful bytes the
        // records fetched from it. Records are logged in vertex order, so
        // the sort has nothing to move when `vs` ascends.
        let mut touched: Vec<(u64, usize)> =
            locs.iter().map(|l| (l.page, (idx(l.len) + 2) * 4)).collect();
        touched.sort_by_key(|t| t.0);
        let mut reqs: Vec<(FileId, u64, usize)> = Vec::new();
        for (page, bytes) in touched {
            match reqs.last_mut() {
                Some(r) if r.1 == page => r.2 = (r.2 + bytes).min(page_size),
                _ => reqs.push((file, page, bytes.min(page_size))),
            }
        }
        #[cfg(test)]
        self.issued.push(reqs.clone());
        let data = self.ssd.read_batch(&reqs)?;
        // Callers pass exactly four bytes.
        let le_u32 = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let mut k = 0usize;
        for (&v, loc) in vs.iter().zip(&locs) {
            if reqs[k].1 != loc.page {
                k = reqs.partition_point(|r| r.1 < loc.page);
            }
            let base = idx(loc.offset_entries) * 4;
            let rec = data[k]
                .get(base..base + (idx(loc.len) + 2) * 4)
                .ok_or_else(|| DeviceError::Corrupt {
                    what: "edgelog",
                    detail: format!(
                        "page {} holds {} bytes, vertex {v}'s record ends at {}",
                        loc.page,
                        data[k].len(),
                        base + (idx(loc.len) + 2) * 4
                    ),
                })?;
            let (stored_v, stored_len) = (le_u32(&rec[..4]), le_u32(&rec[4..8]));
            if (stored_v, stored_len) != (v, loc.len) {
                return Err(DeviceError::Corrupt {
                    what: "edgelog",
                    detail: format!(
                        "record of vertex {v} with {} edges reads back as vertex {stored_v} \
                         with {stored_len}",
                        loc.len
                    ),
                });
            }
            adj.push(v, rec[8..].chunks_exact(4).map(le_u32));
        }
        self.stats.hits += to_u64(vs.len());
        Ok(())
    }

    /// End-of-superstep bookkeeping:
    /// * update Fig. 9 accuracy from the superstep's actual page usage
    ///   versus the predictions made a superstep ago;
    /// * predict next superstep's inefficient pages from current usage;
    /// * push the superstep's *actual* active set into the history window;
    /// * flush the write side and swap read/write files.
    pub fn end_superstep(&mut self, active: &BitSet, usage: &[PageUsage]) -> Result<(), DeviceError> {
        assert_eq!(active.len(), self.num_vertices);
        // Actual inefficient pages this superstep.
        let actual: HashSet<(FileId, u64)> = usage
            .iter()
            .filter(|u| u.useful_bytes > 0 && u.utilization() < self.cfg.inefficiency_threshold)
            .map(|u| (u.file, u.page))
            .collect();
        self.stats.actual_inefficient_pages += to_u64(actual.len());
        let correct = actual
            .iter()
            .filter(|p| self.predicted_inefficient.contains(p))
            .count();
        self.stats.correctly_predicted_pages += to_u64(correct);
        self.predicted_inefficient = actual;

        self.history.push_back(active.clone());
        while self.history.len() > self.cfg.history_supersteps {
            self.history.pop_front();
        }

        // Flush & swap.
        self.seal_top()?;
        self.flush_staged()?;
        self.read_index = std::mem::take(&mut self.write_index);
        self.write_side = 1 - self.write_side;
        self.ssd.truncate(self.files[self.write_side])?;
        self.sealed_pages = 0;
        self.flushed_pages = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_ssd::SsdConfig;

    fn setup() -> (Arc<Ssd>, EdgeLogOptimizer) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let opt = EdgeLogOptimizer::new(Arc::clone(&ssd), 128, EdgeLogConfig::default(), "t").unwrap();
        (ssd, opt)
    }

    /// What `fetch` appends for `vs`, as `(vertex, edges)` pairs.
    fn fetched(opt: &mut EdgeLogOptimizer, vs: &[u32]) -> Vec<(u32, Vec<u32>)> {
        let mut adj = Adjacency::default();
        opt.fetch(vs, &mut adj).unwrap();
        (0..adj.len()).map(|k| (adj.vertices()[k].v, adj.edges(k).to_vec())).collect()
    }

    fn active_set(vs: &[u32]) -> BitSet {
        let mut b = BitSet::new(128);
        for &v in vs {
            b.set(v as usize);
        }
        b
    }

    #[test]
    fn log_then_fetch_roundtrip() {
        let (_ssd, mut opt) = setup();
        opt.log_edges(3, &[10, 11, 12]).unwrap();
        opt.log_edges(90, &[1]).unwrap();
        opt.end_superstep(&active_set(&[3, 90]), &[]).unwrap();
        assert!(opt.contains(3) && opt.contains(90));
        assert!(!opt.contains(4));
        let got = fetched(&mut opt, &[3, 90]);
        assert_eq!(got, vec![(3, vec![10, 11, 12]), (90, vec![1])]);
        assert_eq!(opt.stats().hits, 2);
    }

    /// The request list of a fetch is part of the simulated clock
    /// (`pages_read`, `useful_bytes_read`); pinned literally.
    #[test]
    fn fetch_request_list_is_pinned() {
        let (_ssd, mut opt) = setup();
        // 64 entries a page, a record is its edges + 2: vertices 1, 2, 3
        // fill 5 + 22 + 32 = 59 entries of page 0, vertices 4 and 5 open
        // page 1 with 12 + 3.
        for (v, deg) in [(1u32, 3u32), (2, 20), (3, 30), (4, 10), (5, 1)] {
            opt.log_edges(v, &(0..deg).collect::<Vec<_>>()).unwrap();
        }
        opt.end_superstep(&active_set(&[1, 2, 3, 4, 5]), &[]).unwrap();
        let file = opt.files[1 - opt.write_side];
        fetched(&mut opt, &[1, 3, 4, 5]);
        // Any order of `vs` asks for the same pages in ascending order.
        fetched(&mut opt, &[5, 1]);
        assert_eq!(
            opt.issued,
            vec![vec![(file, 0, 148), (file, 1, 60)], vec![(file, 0, 20), (file, 1, 12)]]
        );
    }

    #[test]
    fn records_never_straddle_pages() {
        let (_ssd, mut opt) = setup();
        // 256-byte pages = 64 entries. Records of 20 edges = 22 entries;
        // 3 fit per page (66 > 64, so actually 2 per page).
        for v in 0..10u32 {
            let edges: Vec<u32> = (0..20).map(|k| v * 100 + k).collect();
            opt.log_edges(v, &edges).unwrap();
        }
        opt.end_superstep(&active_set(&(0..10).collect::<Vec<_>>()), &[]).unwrap();
        for v in 0..10u32 {
            let got = fetched(&mut opt, &[v]);
            assert_eq!(got[0].1.len(), 20);
            assert_eq!(got[0].1[0], v * 100);
        }
    }

    #[test]
    fn read_side_survives_next_superstep_writes() {
        let (_ssd, mut opt) = setup();
        opt.log_edges(5, &[50, 51]).unwrap();
        opt.end_superstep(&active_set(&[5]), &[]).unwrap();
        // Next superstep logs new data while the old is being read.
        opt.log_edges(6, &[60]).unwrap();
        assert_eq!(fetched(&mut opt, &[5]), vec![(5, vec![50, 51])]);
        opt.end_superstep(&active_set(&[6]), &[]).unwrap();
        assert!(!opt.contains(5), "old log rotated out");
        assert_eq!(fetched(&mut opt, &[6]), vec![(6, vec![60])]);
    }

    #[test]
    fn history_window_predicts_activity() {
        let (_ssd, mut opt) = setup();
        assert!(!opt.predicted_active(7));
        opt.end_superstep(&active_set(&[7]), &[]).unwrap();
        assert!(opt.predicted_active(7), "active last superstep => predicted");
        // N = 1: one more superstep without activity forgets vertex 7.
        opt.end_superstep(&active_set(&[]), &[]).unwrap();
        assert!(!opt.predicted_active(7));
    }

    #[test]
    fn longer_history_window() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let cfg = EdgeLogConfig { history_supersteps: 3, ..Default::default() };
        let mut opt = EdgeLogOptimizer::new(ssd, 128, cfg, "h").unwrap();
        opt.end_superstep(&active_set(&[9]), &[]).unwrap();
        opt.end_superstep(&active_set(&[]), &[]).unwrap();
        opt.end_superstep(&active_set(&[]), &[]).unwrap();
        assert!(opt.predicted_active(9), "still within N=3 window");
        opt.end_superstep(&active_set(&[]), &[]).unwrap();
        assert!(!opt.predicted_active(9));
    }

    #[test]
    fn invalidate_patches_history_bits_for_dirty_vertices_only() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let cfg = EdgeLogConfig { history_supersteps: 3, ..Default::default() };
        let mut opt = EdgeLogOptimizer::new(ssd, 128, cfg, "hp").unwrap();
        // Vertices 7 and 9 active in every window of the N=3 history.
        for _ in 0..3 {
            opt.end_superstep(&active_set(&[7, 9]), &[]).unwrap();
        }
        assert!(opt.predicted_active(7) && opt.predicted_active(9));
        // A mutation merge dirtied vertex 7 only: its history is patched
        // out of every window, while vertex 9 keeps its full history.
        opt.invalidate(&[7]);
        assert!(!opt.predicted_active(7), "dirty vertex cleared in all windows");
        assert!(opt.predicted_active(9), "untouched vertex keeps its history");
        // The patch survives window rotation exactly like real inactivity.
        opt.end_superstep(&active_set(&[]), &[]).unwrap();
        assert!(!opt.predicted_active(7));
        assert!(opt.predicted_active(9), "two live windows remain for 9");
    }

    #[test]
    fn inefficient_page_prediction_and_accuracy() {
        let (_ssd, mut opt) = setup();
        let usage = |useful: u32| PageUsage { file: 42, page: 7, useful_bytes: useful, page_bytes: 256 };
        // Superstep 1: page (42,7) used at 5% -> predicted inefficient.
        opt.end_superstep(&active_set(&[]), &[usage(12)]).unwrap();
        assert!(opt.page_predicted_inefficient(42, 7..=7));
        assert!(!opt.page_predicted_inefficient(42, 8..=8));
        // Superstep 2: same page inefficient again -> correct prediction.
        opt.end_superstep(&active_set(&[]), &[usage(12)]).unwrap();
        let s = opt.stats();
        assert_eq!(s.actual_inefficient_pages, 2);
        assert_eq!(s.correctly_predicted_pages, 1);
        assert_eq!(s.prediction_accuracy(), Some(0.5));
    }

    #[test]
    fn fully_used_and_untouched_pages_are_not_inefficient() {
        let (_ssd, mut opt) = setup();
        let full = PageUsage { file: 1, page: 0, useful_bytes: 256, page_bytes: 256 };
        let untouched = PageUsage { file: 1, page: 1, useful_bytes: 0, page_bytes: 256 };
        opt.end_superstep(&active_set(&[]), &[full, untouched]).unwrap();
        assert_eq!(opt.stats().actual_inefficient_pages, 0);
        assert!(!opt.page_predicted_inefficient(1, 0..=1));
    }

    #[test]
    fn should_log_requires_all_three_conditions() {
        let (_ssd, mut opt) = setup();
        let usage = PageUsage { file: 9, page: 3, useful_bytes: 8, page_bytes: 256 };
        opt.end_superstep(&active_set(&[4]), &[usage]).unwrap();
        // All conditions met: low degree, active history, inefficient page.
        assert!(opt.should_log(4, 2, false, 9, 3..=3));
        // Not predicted active and not known active.
        assert!(!opt.should_log(5, 2, false, 9, 3..=3));
        // Known active overrides history.
        assert!(opt.should_log(5, 2, true, 9, 3..=3));
        // Page efficient.
        assert!(!opt.should_log(4, 2, false, 9, 4..=4));
        // Degree too large to fit a 64-entry page.
        assert!(!opt.should_log(4, 63, false, 9, 3..=3));
        // Zero degree never logs.
        assert!(!opt.should_log(4, 0, false, 9, 3..=3));
    }

    #[test]
    fn empty_superstep_predicts_and_logs_nothing() {
        let (_ssd, mut opt) = setup();
        // An interval with no active vertices and no page usage: the
        // predictors must stay empty and the swap must be a no-op.
        opt.end_superstep(&active_set(&[]), &[]).unwrap();
        for v in 0..128u32 {
            assert!(!opt.predicted_active(v));
            assert!(!opt.contains(v));
        }
        assert!(!opt.page_predicted_inefficient(0, 0..=1024));
        assert_eq!(fetched(&mut opt, &[]), vec![]);
        let s = opt.stats();
        assert_eq!((s.vertices_logged, s.pages_written, s.hits), (0, 0, 0));
        assert_eq!(s.prediction_accuracy(), None, "no inefficient pages yet");
    }

    #[test]
    fn all_pages_hot_suppresses_every_copy() {
        let (_ssd, mut opt) = setup();
        // Every column-index page well-utilized (>= 10%): condition 2 of
        // should_log fails for every vertex, however active.
        let hot: Vec<PageUsage> = (0..8)
            .map(|p| PageUsage { file: 5, page: p, useful_bytes: 26, page_bytes: 256 })
            .collect();
        opt.end_superstep(&active_set(&(0..128).collect::<Vec<_>>()), &hot).unwrap();
        for v in 0..128u32 {
            assert!(opt.predicted_active(v), "history says active");
            assert!(!opt.should_log(v, 3, true, 5, 0..=7), "hot pages: never log");
        }
        assert_eq!(opt.stats().vertices_logged, 0);
    }

    #[test]
    fn single_vertex_spanning_many_pages_is_never_logged() {
        let (_ssd, mut opt) = setup();
        // One cold page makes condition 2 true for everything on it.
        let cold = PageUsage { file: 5, page: 0, useful_bytes: 4, page_bytes: 256 };
        opt.end_superstep(&active_set(&[1, 2]), &[cold]).unwrap();
        // 256-byte pages hold 64 u32 entries; the [v][len][edges…] record
        // fits iff degree + 2 <= 64. Degree 62 is the last loggable degree;
        // a vertex whose adjacency spans pages (63, 64, 1000 edges) is
        // already an efficient consumer of its pages and must not be copied.
        assert!(opt.should_log(1, 62, false, 5, 0..=0));
        assert!(!opt.should_log(1, 63, false, 5, 0..=0));
        assert!(!opt.should_log(1, 64, false, 5, 0..=0));
        assert!(!opt.should_log(1, 1000, false, 5, 0..=3), "multi-page adjacency");
        // And the loggable boundary case round-trips through the log.
        let edges: Vec<u32> = (100..162).collect();
        opt.log_edges(1, &edges).unwrap();
        opt.end_superstep(&active_set(&[1]), &[]).unwrap();
        assert_eq!(fetched(&mut opt, &[1]), vec![(1, edges)]);
    }

    #[test]
    fn exactly_the_eligible_edge_lists_are_copied() {
        let (_ssd, mut opt) = setup();
        // Superstep t: vertices 1, 2, 3 were active; page (7,0) was cold,
        // page (7,1) hot.
        let usage = [
            PageUsage { file: 7, page: 0, useful_bytes: 4, page_bytes: 256 },
            PageUsage { file: 7, page: 1, useful_bytes: 200, page_bytes: 256 },
        ];
        opt.end_superstep(&active_set(&[1, 2, 3]), &usage).unwrap();

        // Superstep t+1: run the decision for a mixed population and copy
        // exactly what should_log admits.
        //               (v, degree, known_active, page)
        let candidates = [
            (1u32, 3usize, false, 0u64), // active history + cold page  -> log
            (2, 62, false, 0),           // boundary degree, still fits -> log
            (3, 63, false, 0),           // record would straddle       -> no
            (4, 3, false, 0),            // never active                -> no
            (5, 3, true, 0),             // known active + cold page    -> log
            (1, 3, false, 1),            // hot page                    -> no
            (6, 0, true, 0),             // zero degree                 -> no
        ];
        let mut logged = Vec::new();
        for &(v, deg, known, page) in &candidates {
            if opt.should_log(v, deg, known, 7, page..=page) {
                let edges: Vec<u32> = (0..deg as u32).map(|k| v * 1000 + k).collect();
                opt.log_edges(v, &edges).unwrap();
                logged.push(v);
            }
        }
        assert_eq!(logged, vec![1, 2, 5], "exactly the eligible edge lists");
        assert_eq!(opt.stats().vertices_logged, 3);
        opt.end_superstep(&active_set(&[1, 2, 5]), &[]).unwrap();
        for v in [1u32, 2, 5] {
            assert!(opt.contains(v), "vertex {v} readable next superstep");
        }
        for v in [3u32, 4, 6] {
            assert!(!opt.contains(v), "vertex {v} must not be in the log");
        }
        let got = fetched(&mut opt, &[2]);
        assert_eq!(got[0].1.len(), 62);
        assert_eq!(got[0].1[0], 2000);
    }

    #[test]
    fn buffer_pressure_flushes_incrementally() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let cfg = EdgeLogConfig { buffer_bytes: 2 * 256, ..Default::default() };
        let mut opt = EdgeLogOptimizer::new(Arc::clone(&ssd), 4096, cfg, "b").unwrap();
        for v in 0..200u32 {
            opt.log_edges(v, &[v + 1, v + 2, v + 3]).unwrap();
        }
        assert!(opt.stats().pages_written > 0, "pressure flushed mid-superstep");
        opt.end_superstep(&BitSet::new(4096), &[]).unwrap();
        let got = fetched(&mut opt, &[0, 99, 199]);
        assert_eq!(got[1], (99, vec![100, 101, 102]));
    }
}
