use crate::checked::{idx, mem_idx, to_u32, to_u64};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use mlvc_graph::{Adjacency, Edges, PageUsage, VertexId};
use mlvc_ssd::{DeviceError, FileId, Reads, Ssd, Writes};

use crate::pagelist::{write, Budget, Log, Source};
use crate::BitSet;

/// A column-index page whose utilization, in percent, is in (0, threshold)
/// counts as inefficiently used. Paper §V-C: "we chose a threshold of 10%".
pub const INEFFICIENCY_THRESHOLD_PCT: u64 = 10;

/// Whether a page a superstep read was inefficiently used: some of it was
/// needed, and less than [`INEFFICIENCY_THRESHOLD_PCT`] percent of it. The
/// one definition behind the engine's `colidx_pages_inefficient` and the
/// edge log's page predictor (Figs. 3 and 9).
pub fn is_inefficient(u: &PageUsage) -> bool {
    let (useful, page) = (u64::from(u.useful_bytes), u64::from(u.page_bytes));
    useful > 0 && useful * 100 < INEFFICIENCY_THRESHOLD_PCT * page
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

/// Location of one logged adjacency record on the edge log: the index of
/// its page in its log's list, and where in that page it sits (entry units
/// of 4 bytes).
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
///    `v` was already logged this superstep, else predicted from the
///    previous superstep's activity bit vector (the paper's history window
///    with N = 1: "this simple history-based prediction with N equal to one
///    proved effective", §V-C);
/// 2. `v`'s edges live on a page predicted to be inefficiently used —
///    pages under the utilization threshold in the current superstep are
///    predicted inefficient for the next;
/// 3. the record fits in one edge-log page (high-degree vertices already
///    use their pages efficiently and are never logged).
///
/// The log is two lists of pages like a multi-log log (DESIGN.md §10),
/// alternating write and read roles: what superstep `t` writes, `t + 1`
/// reads. A sealed page joins the write side buffered in host memory, and
/// the write side's buffered pages are written when those of both sides
/// outgrow the buffer; none is held. The boundary is a flip: the pages
/// still buffered are the read side's *carried* pages, served with no
/// device request and counted against the buffer while `t + 1` seals.
pub struct EdgeLogOptimizer {
    ssd: Arc<Ssd>,
    /// Host-memory cap for edge-log page buffers — the paper's "B%" of
    /// total memory.
    buffer_bytes: usize,
    logs: [Log; 2],
    /// Index of the log currently being *written*.
    write_side: usize,
    /// Buffered pages of both logs together, against `buffer_bytes`.
    buffered: usize,
    /// The encoded bytes of the page being filled.
    top: Vec<u8>,
    /// Where each vertex's record is: on the write side (logged this
    /// superstep) and on the read side (logged the previous one).
    write_index: HashMap<VertexId, RecordLoc>,
    read_index: HashMap<VertexId, RecordLoc>,

    // Predictors: the previous superstep's active set, and the pages it
    // used inefficiently.
    previous: BitSet,
    predicted_inefficient: HashSet<(FileId, u64)>,

    stats: EdgeLogStats,
    /// Every request list handed to the device, for the test that pins them.
    #[cfg(test)]
    issued: Vec<Vec<(FileId, u64, usize)>>,
}

impl EdgeLogOptimizer {
    /// An optimizer for `num_vertices` vertices buffering at most
    /// `buffer_bytes` of edge-log pages in memory, its two files named after
    /// `tag`.
    pub fn new(
        ssd: Arc<Ssd>,
        num_vertices: usize,
        buffer_bytes: usize,
        tag: &str,
    ) -> Result<Self, DeviceError> {
        let open = |side: &str| Log::open(&ssd, &format!("{tag}.edgelog.{side}"));
        Ok(EdgeLogOptimizer {
            logs: [open("a")?, open("b")?],
            ssd,
            buffer_bytes,
            write_side: 0,
            buffered: 0,
            top: Vec::new(),
            write_index: HashMap::new(),
            read_index: HashMap::new(),
            previous: BitSet::new(num_vertices),
            predicted_inefficient: HashSet::new(),
            stats: EdgeLogStats::default(),
            #[cfg(test)]
            issued: Vec::new(),
        })
    }

    pub fn stats(&self) -> EdgeLogStats {
        self.stats
    }

    /// Was `v` active in the previous superstep? (The history-bit-vector
    /// predictor, N = 1.)
    pub fn predicted_active(&self, v: VertexId) -> bool {
        self.previous.get(idx(v))
    }

    /// Is any of the given column-index pages predicted inefficient for the
    /// next superstep?
    fn page_predicted_inefficient(&self, file: FileId, pages: std::ops::RangeInclusive<u64>) -> bool {
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
        if degree == 0 || (degree + 2) * 4 > self.ssd.page_size() {
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
        let rec_bytes = (edges.len() + 2) * 4;
        assert!(rec_bytes <= self.ssd.page_size(), "record exceeds a page; should_log must gate this");
        if self.top.len() + rec_bytes > self.ssd.page_size() {
            self.seal_top()?;
        }
        // Both fields are bounded by the page size via the assert above,
        // so the saturating fallbacks are unreachable.
        let len32 = to_u32("edge-log record length", edges.len()).unwrap_or(u32::MAX);
        let loc = RecordLoc {
            page: to_u64(self.logs[self.write_side].pages.len()),
            offset_entries: to_u32("edge-log record offset", self.top.len() / 4).unwrap_or(u32::MAX),
            len: len32,
        };
        self.top.extend([v, len32].into_iter().chain(edges).flat_map(u32::to_le_bytes));
        self.write_index.insert(v, loc);
        self.stats.vertices_logged += 1;
        Ok(())
    }

    /// Seal the top page onto the write side's list, and write the write
    /// side's buffered pages — synchronously, off the superstep's queue —
    /// when the buffered pages of both sides outgrow the buffer.
    fn seal_top(&mut self) -> Result<(), DeviceError> {
        if self.top.is_empty() {
            return Ok(());
        }
        let log = &mut self.logs[self.write_side];
        log.push(std::mem::take(&mut self.top));
        self.buffered += 1;
        if self.buffered * self.ssd.page_size() > self.buffer_bytes {
            let mut out = Vec::new();
            let page_bytes = to_u64(self.ssd.page_size());
            let written = log.settle(page_bytes, &mut Budget::default(), &mut out).pages;
            write(&Writes::Device(&self.ssd), &out)?;
            self.buffered -= written;
            self.stats.pages_written += to_u64(written);
        }
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
    /// recorded activity described the pre-merge graph, so its bit is
    /// cleared, while untouched vertices keep theirs and keep predicting
    /// across the merge.
    pub fn invalidate(&mut self, vs: &[VertexId]) {
        for v in vs {
            self.read_index.remove(v);
            self.write_index.remove(v);
            self.previous.clear_bit(idx(*v));
        }
    }

    /// Whether the read side holds nothing at all — most supersteps of most
    /// runs — so callers can skip probing it per vertex.
    pub fn read_side_is_empty(&self) -> bool {
        self.read_index.is_empty()
    }

    /// Fetch logged adjacencies for the given vertices (all must satisfy
    /// [`Self::contains`]) through `reads`, appending them to `adj` in `vs`
    /// order. Device pages are read once per batch, and a record on a
    /// carried page costs no request at all; utilization of edge-log pages
    /// is high by construction — that is the optimization. A page whose
    /// bytes are not the record the index points at is
    /// [`DeviceError::Corrupt`].
    ///
    /// A record's page is the read side's list entry it names. Only a
    /// write side is ever written, so the list's `Device` entries are a
    /// prefix of it, and an entry's index is also its device page number.
    pub fn fetch(
        &mut self,
        reads: &mut Reads<'_>,
        vs: &[VertexId],
        adj: &mut Adjacency,
    ) -> Result<(), DeviceError> {
        if vs.is_empty() {
            return Ok(());
        }
        let log = &self.logs[1 - self.write_side];
        let is_device = |s: &Source| matches!(s, Source::Device);
        debug_assert!(!log.pages.iter().skip(log.device_pages()).any(is_device), "written pages lead");
        let locs: Vec<RecordLoc> = vs.iter().map(|v| self.read_index[v]).collect();
        // One request per distinct page, ascending, its useful bytes the
        // records fetched from it.
        let mut touched = BTreeMap::new();
        for l in locs.iter().filter(|l| is_device(&log.pages[mem_idx(l.page)])) {
            *touched.entry(l.page).or_insert(0) += (idx(l.len) + 2) * 4;
        }
        let page_size = self.ssd.page_size();
        let reqs: Vec<(FileId, u64, usize)> =
            touched.into_iter().map(|(page, bytes)| (log.file, page, bytes.min(page_size))).collect();
        let data = if reqs.is_empty() {
            Vec::new()
        } else {
            #[cfg(test)]
            self.issued.push(reqs.clone());
            reads.read(&reqs, None)?.1
        };
        // Callers pass exactly four bytes.
        let le_u32 = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        for (&v, loc) in vs.iter().zip(&locs) {
            let page: &[u8] = match &log.pages[mem_idx(loc.page)] {
                Source::Device => &data[reqs.partition_point(|r| r.1 < loc.page)],
                Source::Held(page) | Source::Buffered(page) => page,
            };
            let base = idx(loc.offset_entries) * 4;
            let rec = page
                .get(base..base + (idx(loc.len) + 2) * 4)
                .ok_or_else(|| DeviceError::Corrupt {
                    what: "edgelog",
                    detail: format!(
                        "page {} holds {} bytes, vertex {v}'s record ends at {}",
                        loc.page,
                        page.len(),
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
    /// * keep the superstep's *actual* active set as the next one's history;
    /// * drop the read side, seal the write side's top page and flip: the
    ///   write side's pages still buffered are the new read side's carried
    ///   pages, unwritten.
    pub fn end_superstep(&mut self, active: &BitSet, usage: &[PageUsage]) -> Result<(), DeviceError> {
        assert_eq!(active.len(), self.previous.len());
        // Actual inefficient pages this superstep.
        let actual: HashSet<(FileId, u64)> = usage
            .iter()
            .filter(|u| is_inefficient(u))
            .map(|u| (u.file, u.page))
            .collect();
        self.stats.actual_inefficient_pages += to_u64(actual.len());
        let correct = actual
            .iter()
            .filter(|p| self.predicted_inefficient.contains(p))
            .count();
        self.stats.correctly_predicted_pages += to_u64(correct);
        self.predicted_inefficient = actual;

        self.previous.clone_from(active);

        // The read side is done with, so its carried pages no longer count
        // against what the seal may buffer; its file is dropped after the
        // seal's write.
        let read = self.logs[1 - self.write_side].take();
        self.buffered -= read.buffered_pages();
        self.seal_top()?;
        read.discard(&self.ssd, &mut Budget::default())?;
        self.read_index = std::mem::take(&mut self.write_index);
        self.write_side = 1 - self.write_side;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_ssd::SsdConfig;

    fn setup() -> (Arc<Ssd>, EdgeLogOptimizer) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let opt = EdgeLogOptimizer::new(Arc::clone(&ssd), 128, 4 << 20, "t").unwrap();
        (ssd, opt)
    }

    /// What `fetch` appends for `vs`, as `(vertex, edges)` pairs.
    fn fetched(opt: &mut EdgeLogOptimizer, vs: &[u32]) -> Vec<(u32, Vec<u32>)> {
        let (ssd, mut adj) = (Arc::clone(&opt.ssd), Adjacency::default());
        opt.fetch(&mut Reads::Device(&ssd), vs, &mut adj).unwrap();
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
    /// (`pages_read`, `useful_bytes_read`); pinned literally. A buffer under
    /// one page writes every page, so all of them are fetched.
    #[test]
    fn fetch_request_list_is_pinned() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut opt = EdgeLogOptimizer::new(ssd, 128, 255, "t").unwrap();
        // 64 entries a page, a record is its edges + 2: vertices 1, 2, 3
        // fill 5 + 22 + 32 = 59 entries of page 0, vertices 4 and 5 open
        // page 1 with 12 + 3.
        for (v, deg) in [(1u32, 3u32), (2, 20), (3, 30), (4, 10), (5, 1)] {
            opt.log_edges(v, &(0..deg).collect::<Vec<_>>()).unwrap();
        }
        opt.end_superstep(&active_set(&[1, 2, 3, 4, 5]), &[]).unwrap();
        let file = opt.logs[1 - opt.write_side].file;
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
    fn invalidate_patches_history_bits_for_dirty_vertices_only() {
        let (_ssd, mut opt) = setup();
        // Vertices 7 and 9 were active in the previous superstep.
        opt.end_superstep(&active_set(&[7, 9]), &[]).unwrap();
        assert!(opt.predicted_active(7) && opt.predicted_active(9));
        // A mutation merge dirtied vertex 7 only: its history bit is
        // patched out, while vertex 9 keeps its own.
        opt.invalidate(&[7]);
        assert!(!opt.predicted_active(7), "dirty vertex cleared");
        assert!(opt.predicted_active(9), "untouched vertex keeps its history");
        // The next superstep's activity replaces the patched history
        // exactly like any other: 7 back when active again, 9 gone when not.
        opt.end_superstep(&active_set(&[7]), &[]).unwrap();
        assert!(opt.predicted_active(7));
        assert!(!opt.predicted_active(9));
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

    /// Pages still buffered when a superstep ends stay in host memory: a
    /// record on one is served with no request and no device read, and
    /// the next superstep's sealed pages count them against the buffer.
    #[test]
    fn a_record_on_a_carried_page_is_fetched_with_no_request() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        // Room for two pages.
        let mut opt = EdgeLogOptimizer::new(Arc::clone(&ssd), 128, 2 * 256, "c").unwrap();
        // 64 entries a page: records of 22 entries, two a page.
        let edges = |v: u32| (0..20).map(|k| v * 100 + k).collect::<Vec<_>>();
        for v in 0..4u32 {
            opt.log_edges(v, &edges(v)).unwrap();
        }
        opt.end_superstep(&active_set(&[0, 1, 2, 3]), &[]).unwrap();
        assert_eq!(ssd.stats().snapshot().pages_written, 0, "both pages carried");
        ssd.stats().reset();
        assert_eq!(fetched(&mut opt, &[3, 0]), vec![(3, edges(3)), (0, edges(0))]);
        assert!(opt.issued.is_empty(), "no request for a carried page");
        assert_eq!(ssd.stats().snapshot().pages_read, 0);
        assert_eq!(opt.stats().hits, 2);
        // The two carried pages fill the buffer: the next page sealed while
        // they are held is written at once.
        for v in 4..8u32 {
            opt.log_edges(v, &edges(v)).unwrap();
        }
        assert_eq!(opt.stats().pages_written, 1, "staging counts the carried pages");
    }

    #[test]
    fn buffer_pressure_flushes_incrementally() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut opt = EdgeLogOptimizer::new(Arc::clone(&ssd), 4096, 2 * 256, "b").unwrap();
        for v in 0..200u32 {
            opt.log_edges(v, &[v + 1, v + 2, v + 3]).unwrap();
        }
        assert!(opt.stats().pages_written > 0, "pressure flushed mid-superstep");
        opt.end_superstep(&BitSet::new(4096), &[]).unwrap();
        let got = fetched(&mut opt, &[0, 99, 199]);
        assert_eq!(got[1], (99, vec![100, 101, 102]));
    }
}
