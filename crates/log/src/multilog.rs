use crate::checked::{idx, to_u32, to_u64};
use std::sync::Arc;
use std::time::Instant;

use mlvc_graph::{IntervalId, VertexIntervals, VertexId};
use mlvc_ssd::{DeviceError, FileId, Page, Ssd, Writes};

use crate::page::{
    decode_log_page, pack_pages, push_record, seal_page, LogPage, PageShape,
};
use crate::pagelist::{write, Budget, Log, Source};
use crate::{BitSet, FusedBatch, Update};

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Configuration of the Multi-Log Update Unit.
#[derive(Debug, Clone)]
pub struct MultiLogConfig {
    /// Host-memory cap for multi-log page buffers — the paper's "A%" of
    /// total memory (§V-A3, default 5% of 1 GB). At least one page per
    /// vertex interval is always retained, as the paper requires.
    pub buffer_bytes: usize,
    /// Whether the program consuming this log reads `Update::src`
    /// (`VertexProgram::reads_src`, set by the engine). When it does not,
    /// records are logged without their source and drain with
    /// `src = VertexId::MAX`.
    pub reads_src: bool,
    /// The consuming program's message reduction
    /// (`VertexProgram::combine`, set by the engine). With one, the read
    /// side folds each destination's records into a single update as it
    /// decodes them ([`BatchPlan::decode`]); what is logged does not change.
    pub combine: Option<fn(u64, u64) -> u64>,
}

impl Default for MultiLogConfig {
    fn default() -> Self {
        // 5% of the paper's default 1 GB budget, scaled: engines override.
        MultiLogConfig { buffer_bytes: 4 << 20, reads_src: true, combine: None }
    }
}

/// Activity counters of the multi-log unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiLogStats {
    pub updates_logged: u64,
    /// Sealed pages that joined their log by a flush to the device.
    pub pages_flushed: u64,
    /// Sealed pages that joined their log in host memory at a superstep's
    /// end ([`MultiLog::finish_superstep`]). Each sealed page is counted
    /// once, flushed or carried; a carried page a later eviction writes out
    /// is in the device's `pages_written` (or in `pages_retained`), not
    /// here again.
    pub pages_carried: u64,
    /// Pages a flush or a checkpoint restore held in host memory under the
    /// log-tail retention budget instead of writing them (DESIGN.md §18):
    /// the device never saw them.
    pub pages_retained: u64,
    /// Memory-pressure eviction events (buffer exceeded its cap).
    pub evictions: u64,
    pub updates_read: u64,
    /// Encoded bytes appended across every interval log (page header +
    /// records per sealed page that joined a log, flushed or carried — the
    /// observability layer's "log bytes appended" source).
    pub bytes_appended: u64,
}

/// The Multi-Log Update Unit (paper §V-A).
///
/// One append-only log per vertex interval and side. `SendUpdate` maps the
/// destination vertex to its interval (`vId2IntervalMap`) and encodes the
/// record straight into a **top page** of that interval in host memory
/// (the page format is [`crate::page`]'s). Each interval keeps one top page
/// per destination-page *bucket*, one narrow page's worth of consecutive
/// destinations (sort-reduce folding, BigSparse). The buckets buy two
/// things: every bucket page takes the narrow record form whatever its
/// interval's width, and since an eviction writes sealed pages only, each
/// bucket's partial top stays in host memory across it. They do not save
/// the read side a pass: its decode is a per-interval counting sort
/// whatever order a page's records are in. Per-destination insertion
/// order is preserved. A full page is sealed onto its log — one list of
/// `Source`s in log order — buffered in host memory; under memory
/// pressure an eviction writes the buffered pages of every log not yet
/// planned in one scattered batch, so the writes pipeline across all SSD
/// channels, or holds them under the log-tail retention budget (DESIGN.md
/// §18). At the superstep boundary the sides flip: the write side's
/// buffered pages are the next superstep's read side in host memory
/// (*carried* pages, DESIGN.md §10), within the same buffer budget. Either
/// side drains one way, plan → decode → consume: the read side in fused
/// batches, the write side interval by interval in the asynchronous model.
///
/// The unit also maintains:
/// * per-interval message counters — "a first-order approximation of the
///   log size in that interval" used by the sort & group unit to fuse
///   intervals (§V-A2);
/// * a seen-destination bit vector — whether a message bound for `v` has
///   already been logged this superstep, which the edge-log optimizer uses
///   as its *known* (not predicted) next-superstep activity signal (§V-C).
pub struct MultiLog {
    ssd: Arc<Ssd>,
    intervals: VertexIntervals,
    /// Two log extents per interval, alternating write/read roles across
    /// supersteps: messages logged during superstep `s` land on the write
    /// side and are consumed from the read side during `s + 1`. Without the
    /// separation, a log page flushed mid-superstep (memory pressure) could
    /// be consumed by a later fused batch of the *same* superstep —
    /// breaking BSP delivery.
    logs: Vec<[Log; 2]>,
    write_side: usize,
    /// Top buffers: the encoded bytes of the page each slot is filling
    /// (empty until its first record). One slot per destination-page
    /// *bucket*, `bucket_base[i]..bucket_base[i+1]` covering interval `i`;
    /// each bucket spans one narrow page's worth of consecutive destination
    /// vertices, so a sealed full bucket is a destination-clustered page.
    tops: Vec<Vec<u8>>,
    /// Slot ranges into `tops` per interval (`n + 1` prefix offsets).
    bucket_base: Vec<usize>,
    /// Destination vertex → `tops` slot, precomputed so the scatter hot
    /// loop is two array reads instead of an interval lookup plus a
    /// division per record.
    slot_lut: Vec<u32>,
    /// First destination vertex of each slot — the `dest_base` its narrow
    /// pages count offsets from.
    slot_dest_base: Vec<VertexId>,
    /// Record shape of every top buffer: narrow destinations (a bucket
    /// never spans more than one narrow page's offsets), source kept or
    /// dropped as the program asked.
    shape: PageShape,
    /// Records on, and byte length of, a full page of `shape`.
    page_cap: usize,
    full_bytes: usize,
    /// Records currently sitting in interval `i`'s top buffers (all its
    /// slots together). Keeps [`Self::buffered_pages`] O(intervals) and —
    /// counted in page units per interval — makes memory pressure a
    /// function of per-interval record counts alone, independent of the
    /// bucket layout and of how the scatter interleaves intervals.
    top_records: Vec<usize>,
    /// [`Source::Buffered`] entries across every log, for
    /// [`Self::buffered_pages`].
    buffered: usize,
    /// Records appended since the last pressure flush, against
    /// `evict_every`. Pressure is measured in appended records — a global
    /// count, so eviction points (and with them the `evictions` stat) are
    /// identical however the scatter interleaves intervals or buckets
    /// (per-slot fill state is not). A superstep starts it at its carried
    /// pages' worth of records, so those count against the budget too.
    pressure_records: usize,
    /// Pressure-flush period: the buffer budget headroom above the
    /// per-interval floor, in records — so the bytes appended between two
    /// flushes never exceed that headroom.
    evict_every: usize,
    counts: Vec<u64>,
    dest_seen: BitSet,
    cap_pages: usize,
    stats: MultiLogStats,
    /// Handed to every [`BatchPlan`]; the write side never looks at it.
    combine: Option<fn(u64, u64) -> u64>,
    /// Log-tail retention (DESIGN.md §18): what the budget has left, and
    /// the bytes the logs' [`Source::Held`] pages took from it — one whole
    /// page each, booked until their log is consumed.
    retention: Budget,
}

/// The page reads that drain a fused interval range, the pages the range
/// holds in host memory, and what their decode needs — the read half of
/// the sort & group unit. [`MultiLog::plan_reads`] builds it over the read
/// side, and [`MultiLog::plan_current`] over one interval's write side for
/// the asynchronous model, on the owning engine thread (so the submission
/// order is deterministic); the pages are fetched through an [`mlvc_ssd::IoQueue`]
/// or a plain `read_batch`, decoded by [`Self::decode`] on whichever thread
/// holds them, and the logs consumed by [`MultiLog::consume`] back on the
/// owner.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    pub range: std::ops::Range<IntervalId>,
    /// `(file, page, useful=0)` requests, interval-major then page order.
    pub reqs: Vec<(FileId, u64, usize)>,
    /// Per interval of `range`, aligned with it: its log, taken from the
    /// multi-log, and its vertex span.
    intervals: Vec<(Log, std::ops::Range<VertexId>)>,
    /// The consuming program's reduction ([`MultiLogConfig::combine`]).
    combine: Option<fn(u64, u64) -> u64>,
}

/// Interval index → id. Interval counts are bounded by the (u32) vertex
/// count, so the conversion cannot saturate in practice.
fn interval_id(ii: usize) -> IntervalId {
    to_u32("interval id", ii).unwrap_or(IntervalId::MAX)
}

impl BatchPlan {
    /// Decode the pages fetched for this plan (one lent [`Page`] per request,
    /// in plan order) into inbox order, the way the consuming program asked
    /// for: folded to one update per destination when it declared a
    /// `combine` ([`MultiLogConfig::combine`]), every record kept
    /// ([`Self::decode_sorted`]) when it did not. Either way a pure
    /// function of the plan and the page bytes — it touches neither the
    /// device nor any counter, so it may run on any thread without moving a
    /// deterministic number; [`MultiLog::consume`] does the rest.
    pub fn decode(&self, pages: &[Page]) -> Result<FusedBatch, DeviceError> {
        match self.combine {
            Some(f) => self.decode_folded(pages, f),
            None => self.decode_sorted(pages),
        }
    }

    /// One fetched page a request: any other count is corrupt, since the
    /// decode could not tell the plan's logs apart.
    fn check_fetched(&self, pages: &[Page]) -> Result<(), DeviceError> {
        if pages.len() == self.reqs.len() {
            return Ok(());
        }
        let detail = format!("{} pages fetched for {} requests", pages.len(), self.reqs.len());
        Err(DeviceError::Corrupt { what: "log page", detail })
    }

    /// Each interval's vertex span and its pages in log order — those
    /// fetched for it (from `pages`, in plan order) and those it held or
    /// carried in host memory — each paired with whether its bytes are
    /// useful ([`Source::bytes`]).
    fn logs<'p>(
        &'p self,
        pages: &'p [Page],
    ) -> impl Iterator<Item = (std::ops::Range<VertexId>, impl Iterator<Item = (&'p [u8], bool)>)> + 'p
    {
        let mut cursor = 0usize;
        self.intervals.iter().map(move |(log, span)| {
            let n = log.device_pages();
            let mut mine = pages[cursor..cursor + n].iter();
            cursor += n;
            (span.clone(), log.pages.iter().filter_map(move |s| s.bytes(&mut mine)))
        })
    }

    /// Sort-reduce at decode (BigSparse): one pass over each interval's
    /// pages folding every record into its destination's accumulator, then
    /// one ascending sweep emitting an update per destination that received
    /// anything — the sorted, un-reduced inbox never exists. Pages are
    /// walked in log order and records in page order, which is the
    /// per-destination order [`Self::decode_sorted`] produces, so each
    /// accumulator is the left fold `reduce(f)` over that destination's
    /// group would give, to the bit, for any `f`. Folded updates carry
    /// `src = VertexId::MAX`. There is no sort to time: `sort_ns` is zero.
    fn decode_folded(&self, pages: &[Page], f: fn(u64, u64) -> u64) -> Result<FusedBatch, DeviceError> {
        self.check_fetched(pages)?;
        let t_load = Instant::now();
        let mut out = Vec::new();
        let mut acc: Vec<u64> = Vec::new();
        let (mut records, mut useful_bytes) = (0usize, 0u64);
        for (span, log) in self.logs(pages) {
            let lo = span.start;
            // The decoder bounds every destination against `span`, so the
            // `dest - lo` indexing below cannot leave the scratch.
            let width = idx(span.end - lo);
            acc.clear();
            acc.resize(width, 0);
            let mut present = BitSet::new(width);
            for (raw, fetched) in log {
                let p = LogPage::parse(raw)?;
                p.for_each(&span, |u| {
                    let slot = idx(u.dest - lo);
                    acc[slot] = if present.get(slot) {
                        f(acc[slot], u.data)
                    } else {
                        present.set(slot);
                        u.data
                    };
                })?;
                records += p.len();
                if fetched {
                    useful_bytes += to_u64(p.encoded_bytes());
                }
            }
            out.reserve(present.count());
            out.extend(present.iter_ones().map(|slot| {
                let dest = lo + to_u32("vertex offset", slot).unwrap_or(VertexId::MAX);
                Update::new(dest, VertexId::MAX, acc[slot])
            }));
        }
        Ok(FusedBatch {
            range: self.range.clone(),
            updates: out,
            records: to_u64(records),
            load_ns: elapsed_ns(t_load),
            sort_ns: 0,
            useful_bytes,
        })
    }

    /// The decoder for programs that consume every message individually:
    /// stable counting-sort each interval by destination in one pass pair —
    /// a histogram pass straight off the page bytes, then a decode pass
    /// that places every record at its final slot. Interval spans are
    /// disjoint and ascending, so the interval-major output is the fused
    /// batch sorted by destination, per-destination log order preserved.
    /// `load_ns` / `sort_ns` of the result split the wall time between the
    /// decode/place work and the histogram/prefix work for stage reporting.
    /// Only the bytes of fetched and held pages are `useful_bytes`: a
    /// carried page was never read.
    pub fn decode_sorted(&self, pages: &[Page]) -> Result<FusedBatch, DeviceError> {
        self.check_fetched(pages)?;
        let t_load = Instant::now();
        let mut parsed: Vec<(LogPage<'_>, bool)> = Vec::with_capacity(pages.len());
        let mut logs = Vec::with_capacity(self.intervals.len());
        for (span, log) in self.logs(pages) {
            let first = parsed.len();
            for (raw, fetched) in log {
                parsed.push((LogPage::parse(raw)?, fetched));
            }
            logs.push((first..parsed.len(), span));
        }
        let total: usize = parsed.iter().map(|(p, _)| p.len()).sum();
        let mut out = vec![Update::new(0, 0, 0); total];
        let mut counts: Vec<usize> = Vec::new();
        let mut useful_bytes = 0u64;
        let mut sort_ns = 0u64;
        let mut base = 0usize;
        for (at, span) in logs {
            let ival_pages = &parsed[at];
            let lo = span.start;
            // Histogram + prefix: the "sort" half of the fused pass. The
            // decoder bounds every destination against `span`, so the
            // `dest - lo` indexing below cannot leave `counts`.
            let t_sort = Instant::now();
            counts.clear();
            counts.resize(idx(span.end - lo) + 1, 0);
            let mut recs = 0usize;
            for (p, fetched) in ival_pages {
                p.for_each(&span, |u| counts[idx(u.dest - lo) + 1] += 1)?;
                recs += p.len();
                if *fetched {
                    useful_bytes += to_u64(p.encoded_bytes());
                }
            }
            for w in 1..counts.len() {
                counts[w] += counts[w - 1];
            }
            sort_ns += elapsed_ns(t_sort);
            // Decode + place: each record lands at its final sorted slot.
            let slice = &mut out[base..base + recs];
            for (p, _) in ival_pages {
                p.for_each(&span, |u| {
                    let slot = &mut counts[idx(u.dest - lo)];
                    slice[*slot] = u;
                    *slot += 1;
                })?;
            }
            base += recs;
        }
        let load_ns = elapsed_ns(t_load).saturating_sub(sort_ns);
        Ok(FusedBatch {
            range: self.range.clone(),
            records: to_u64(out.len()),
            updates: out,
            load_ns,
            sort_ns,
            useful_bytes,
        })
    }
}

impl MultiLog {
    pub fn new(
        ssd: Arc<Ssd>,
        intervals: VertexIntervals,
        cfg: MultiLogConfig,
        tag: &str,
    ) -> Result<Self, DeviceError> {
        let n = intervals.num_intervals();
        let page_size = ssd.page_size();
        // Empty logs, whatever a previous run under the same tag left (e.g.
        // a non-converged run's last superstep).
        let mut logs = Vec::with_capacity(n);
        for i in 0..n {
            let open = |side: &str| Log::open(&ssd, &format!("{tag}.mlog.{i}.{side}"));
            logs.push([open("a")?, open("b")?]);
        }
        // "at least one log buffer is allocated for each vertex interval in
        // the entire graph" (§V-A3) — that floor is interval-count driven,
        // independent of A%. We additionally keep room for one eviction
        // batch (a few pages per channel) so that evictions always dispatch
        // channel-parallel batches, as the paper's eviction path assumes
        // ("multiple log page evictions may occur concurrently ... most of
        // the SSD bandwidth can be utilized"). At paper scale (A% of 1 GB ≈
        // thousands of pages) these floors are far below A%; they only bind
        // in scaled-down runs.
        let eviction_batch = 8 * ssd.config().channels.max(8);
        let cap_pages = (cfg.buffer_bytes / page_size).max(n + eviction_batch);
        let num_vertices = intervals.num_vertices();
        let shape = PageShape { wide_dest: false, has_src: cfg.reads_src };
        let page_cap = shape.capacity(page_size).max(1);
        // One bucket per narrow page's worth of destination vertices (so
        // every bucket's offsets fit the narrow form), at least one per
        // interval.
        let mut bucket_base = Vec::with_capacity(n + 1);
        bucket_base.push(0usize);
        let mut slot_lut = Vec::with_capacity(num_vertices);
        let mut slot_dest_base = Vec::new();
        for i in 0..n {
            let iv = interval_id(i);
            let slots = intervals.len_of(iv).div_ceil(page_cap).max(1);
            let base = bucket_base[i];
            let lo = intervals.start(iv);
            for d in intervals.range(iv) {
                let bucket = idx(d - lo) / page_cap;
                if base + bucket == slot_dest_base.len() {
                    slot_dest_base.push(d);
                }
                slot_lut.push(to_u32("slot", base + bucket).unwrap_or(u32::MAX));
            }
            // An empty interval still owns its slot.
            slot_dest_base.resize(base + slots, lo);
            bucket_base.push(base + slots);
        }
        Ok(MultiLog {
            ssd,
            intervals,
            logs,
            write_side: 0,
            tops: vec![Vec::new(); bucket_base[n]],
            bucket_base,
            slot_lut,
            slot_dest_base,
            shape,
            page_cap,
            full_bytes: shape.full_page_bytes(page_size),
            top_records: vec![0; n],
            buffered: 0,
            pressure_records: 0,
            evict_every: cap_pages.saturating_sub(n).max(1) * page_cap,
            counts: vec![0; n],
            dest_seen: BitSet::new(num_vertices),
            cap_pages,
            stats: MultiLogStats::default(),
            combine: cfg.combine,
            retention: Budget::default(),
        })
    }

    /// Arm log-tail retention (DESIGN.md §18): from now on, pages this
    /// unit would write to its logs — evicted log pages and restored
    /// checkpoint pages alike — are held in host memory instead, while
    /// `budget_bytes` covers them: never written, decoded where they are.
    /// Consuming a log returns its held bytes to the budget, so the same
    /// bytes can be held again. Re-arming replaces what is left of the
    /// budget; pages already held stay, and counted in
    /// [`Self::retained_bytes`], until their log is consumed.
    pub fn arm_retention(&mut self, budget_bytes: u64) {
        self.retention.left = budget_bytes;
    }

    /// Bytes this unit's logs hold under the retention budget right now.
    pub fn retained_bytes(&self) -> u64 {
        self.retention.held
    }

    /// Take interval `ii`'s log on `side` out of the unit, whole.
    fn take_log(&mut self, ii: usize, side: usize) -> Log {
        let log = self.logs[ii][side].take();
        self.buffered -= log.buffered_pages();
        log
    }

    pub fn stats(&self) -> MultiLogStats {
        self.stats
    }

    /// Enumerate the page reads that draining every interval in `range` of
    /// the read side — this superstep's inbox — will need, and take those
    /// intervals' logs into the plan, the pages they hold or carried in
    /// host memory with them, so no eviction can write those out any more.
    /// The request order is deterministic (interval-major, page order),
    /// independent of which thread later decodes the pages. The sides flip
    /// at [`Self::finish_superstep`], so a plan is only good for the
    /// superstep it was made in.
    pub fn plan_reads(&mut self, range: std::ops::Range<IntervalId>) -> BatchPlan {
        self.plan(range, 1 - self.write_side, self.combine)
    }

    /// Asynchronous-model drain (paper §V-F: "the latest updates from the
    /// source vertices will be delivered to the target vertices, either
    /// from the current superstep or the previous one"): plan interval
    /// `i`'s write-side log — every update logged for it during the current
    /// superstep, its top records sealed onto it first — for read, decode
    /// and consume like [`Self::plan_reads`]'s. The decode keeps every
    /// record (no `combine`), stable by destination, so a caller's merge
    /// folds each destination's records in log order. Its pending count is
    /// zeroed: the drained updates are not scheduled for the next
    /// superstep again.
    pub fn plan_current(&mut self, i: IntervalId) -> Result<BatchPlan, DeviceError> {
        self.seal_tops(idx(i))?;
        self.counts[idx(i)] = 0;
        Ok(self.plan(i..i + 1, self.write_side, None))
    }

    /// Take the logs of `range` on `side` into a plan decoding with
    /// `combine`: its device pages' requests, interval-major.
    fn plan(
        &mut self,
        range: std::ops::Range<IntervalId>,
        side: usize,
        combine: Option<fn(u64, u64) -> u64>,
    ) -> BatchPlan {
        let mut reqs = Vec::new();
        let mut intervals = Vec::with_capacity(range.len());
        for i in range.clone() {
            let log = self.take_log(idx(i), side);
            reqs.extend((0..to_u64(log.device_pages())).map(|p| (log.file, p, 0usize)));
            intervals.push((log, self.intervals.range(i)));
        }
        BatchPlan { range, reqs, intervals, combine }
    }

    /// Consume the logs `batch` was decoded from, of either side: the
    /// truncate of every drained file the device holds pages of (and with
    /// it cache invalidation and FTL trims), the held bytes back in the
    /// retention budget, the useful-byte declaration — of the bytes read
    /// from the device or held, not buffered — and the `updates_read` count.
    /// Everything here moves device, cache or unit state, so it runs where
    /// the unit lives — on the engine's owner thread, in plan order, where
    /// the batch's ticket is retired — which keeps every counter identical
    /// at any worker-thread count (DESIGN.md §12).
    pub fn consume(&mut self, plan: &BatchPlan, batch: &FusedBatch) -> Result<(), DeviceError> {
        for (log, _) in &plan.intervals {
            log.discard(&self.ssd, &mut self.retention)?;
        }
        self.ssd.declare_useful(batch.useful_bytes);
        self.stats.updates_read += batch.records;
        Ok(())
    }

    pub fn intervals(&self) -> &VertexIntervals {
        &self.intervals
    }

    /// Encode `run` (all bound for interval `ii`) onto the top pages of
    /// their slots — the one place a logged record is serialized — sealing
    /// every page a record fills onto the interval's write-side log. The
    /// loop works on borrowed parts of `self` so nothing it reads can alias
    /// the page bytes it writes.
    fn append_run(&mut self, ii: usize, run: &[Update]) {
        let (shape, page_cap, full_bytes) = (self.shape, self.page_cap, self.full_bytes);
        let (lut, bases) = (&self.slot_lut[..], &self.slot_dest_base[..]);
        let (tops, seen) = (&mut self.tops[..], &mut self.dest_seen);
        let log = &mut self.logs[ii][self.write_side];
        let sealed_before = log.pages.len();
        for u in run {
            seen.set(idx(u.dest));
            let s = idx(lut[idx(u.dest)]);
            let top = &mut tops[s];
            push_record(top, shape, bases[s], u);
            if top.len() == full_bytes {
                // Hand back a buffer with one page of capacity so the next
                // fill never reallocates.
                let mut full = std::mem::replace(top, Vec::with_capacity(full_bytes));
                seal_page(&mut full);
                log.push(full);
            }
        }
        let sealed = log.pages.len() - sealed_before;
        self.buffered += sealed;
        self.top_records[ii] += run.len();
        self.top_records[ii] -= sealed * page_cap;
    }

    /// The paper's `SendUpdate(v_dest, m)` tail half: append to the top
    /// page of the destination's bucket within its interval log. Fallible:
    /// memory pressure may force an eviction flush to the device.
    pub fn send(&mut self, u: Update) -> Result<(), DeviceError> {
        self.send_batch(self.intervals.interval_of(u.dest), std::slice::from_ref(&u))
    }

    /// Advance the pressure counter by `k` freshly appended records and
    /// flush through `writes` when a budget's worth accumulated.
    /// Subtracting the period (rather than zeroing) keeps the flush points
    /// exact multiples of the period, so per-record and per-slice appenders
    /// agree on the count.
    fn note_appended(&mut self, k: usize, writes: &Writes) -> Result<(), DeviceError> {
        self.pressure_records += k;
        while self.pressure_records >= self.evict_every {
            self.pressure_records -= self.evict_every;
            self.evict(writes)?;
        }
        Ok(())
    }

    /// [`Self::send_batch_with`] whose eviction flushes go straight to the
    /// device.
    pub fn send_batch(&mut self, i: IntervalId, ups: &[Update]) -> Result<(), DeviceError> {
        let ssd = Arc::clone(&self.ssd);
        self.send_batch_with(&Writes::Device(&ssd), i, ups)
    }

    /// Buffered-send tail for the engine's parallel update scatter: append
    /// a slice of updates already routed to interval `i`, preserving slice
    /// order, any eviction flush going through `writes` — the superstep's
    /// I/O queue in the engine's scatter stage. Equivalent to calling
    /// [`Self::send`] on each update — same page boundaries, same eviction
    /// trigger points — minus the per-update interval lookup and pressure
    /// check: the slice is appended in runs that each end exactly where the
    /// next eviction is due. Full buckets seal as destination-clustered,
    /// narrow pages.
    pub fn send_batch_with(
        &mut self,
        writes: &Writes,
        i: IntervalId,
        ups: &[Update],
    ) -> Result<(), DeviceError> {
        debug_assert!(
            ups.iter().all(|u| self.intervals.interval_of(u.dest) == i),
            "send_batch: updates must be pre-routed to interval {i}"
        );
        let ii = idx(i);
        self.counts[ii] += to_u64(ups.len());
        self.stats.updates_logged += to_u64(ups.len());
        let mut rest = ups;
        while !rest.is_empty() {
            let room = self.evict_every - self.pressure_records;
            let (now, later) = rest.split_at(room.min(rest.len()));
            self.append_run(ii, now);
            self.note_appended(now.len(), writes)?;
            rest = later;
        }
        Ok(())
    }

    /// Whether a message bound for `v` has been logged this superstep
    /// (known next-superstep activity, §V-C).
    pub fn dest_seen(&self, v: VertexId) -> bool {
        self.dest_seen.get(idx(v))
    }

    /// Pages currently buffered in host memory: every log's buffered pages
    /// — sealed on the write side, carried and not yet planned on the read
    /// side — and each interval's top records rounded up to page units.
    /// Sealed pages hold exactly one page of records, so the sum per
    /// interval telescopes to `ceil(buffered records / page capacity)` —
    /// the same value whatever bucket layout the records sit in.
    fn buffered_pages(&self) -> usize {
        self.buffered + self.top_records.iter().map(|r| r.div_ceil(self.page_cap)).sum::<usize>()
    }

    /// Seal every buffered top record onto its write-side log, interval by
    /// interval ([`Self::seal_tops`]).
    fn seal_all_tops(&mut self) -> Result<(), DeviceError> {
        (0..self.logs.len()).try_for_each(|ii| self.seal_tops(ii))
    }

    /// Seal interval `ii`'s top records onto its write-side log. A single
    /// partial top seals as is. Otherwise the partial buckets are packed —
    /// in bucket order, so records stay destination-clustered — into full
    /// pages before a final partial one: offsets are re-based on each
    /// packed page's own smallest destination, and a page whose
    /// destinations span more than the narrow form addresses falls back to
    /// absolute ones.
    fn seal_tops(&mut self, ii: usize) -> Result<(), DeviceError> {
        if self.top_records[ii] == 0 {
            return Ok(());
        }
        let slots = self.bucket_base[ii]..self.bucket_base[ii + 1];
        let mut live = slots.clone().filter(|&s| !self.tops[s].is_empty());
        let pages = if let (Some(s), None) = (live.next(), live.next()) {
            let mut page = std::mem::take(&mut self.tops[s]);
            seal_page(&mut page);
            vec![page]
        } else {
            let span = self.intervals.range(interval_id(ii));
            let mut pending = Vec::with_capacity(self.top_records[ii]);
            for top in &mut self.tops[slots] {
                seal_page(top);
                decode_log_page(top, &span, &mut pending)?;
                top.clear();
            }
            pack_pages(&pending, self.ssd.page_size(), self.shape.has_src, true)
        };
        self.top_records[ii] = 0;
        self.buffered += pages.len();
        self.logs[ii][self.write_side].pages.extend(pages.into_iter().map(Source::Buffered));
        Ok(())
    }

    fn evict(&mut self, writes: &Writes) -> Result<(), DeviceError> {
        self.stats.evictions += 1;
        self.flush_buffered(writes)?;
        if self.buffered_pages() > self.cap_pages {
            // Still over: flush every non-empty top page too.
            self.seal_all_tops()?;
            self.flush_buffered(writes)?;
        }
        Ok(())
    }

    /// Settle every buffered page of every log not yet planned — the write
    /// side's logs, then the read side's, each ascending by interval, so
    /// the retention budget holds the logs drained first ([`Log::settle`])
    /// — the written ones handed to `writes` in one scattered batch. A sealed
    /// page goes to its write-side file, a carried one to its read-side
    /// file after the pages the last superstep evicted there. The pages
    /// were encoded when their records were appended; nothing is touched
    /// per record here.
    fn flush_buffered(&mut self, writes: &Writes) -> Result<(), DeviceError> {
        if self.buffered == 0 {
            return Ok(());
        }
        let (page_bytes, w) = (to_u64(self.ssd.page_size()), self.write_side);
        let mut out = Vec::with_capacity(self.buffered);
        for side in [w, 1 - w] {
            for l in &mut self.logs {
                let done = l[side].settle(page_bytes, &mut self.retention, &mut out);
                self.stats.pages_retained += to_u64(done.held);
                if side == w {
                    self.stats.pages_flushed += to_u64(done.pages);
                    self.stats.bytes_appended += done.bytes;
                }
            }
        }
        // Every log not yet planned is in `self.logs`: none buffers a page now.
        self.buffered = 0;
        write(writes, &out)
    }

    /// End of superstep: seal every top page and flip the sides — no page
    /// is written or moved. The write side's logs become the read side,
    /// their buffered pages *carried* in host memory, each counted against
    /// the next superstep's budget as a full page (the pressure counter
    /// starts at their records' worth, at most one eviction period) until a
    /// plan takes it or an eviction writes or holds it. Every read-side log
    /// must have been planned: one left would join the new write side.
    /// Returns the per-interval pending message counts (the fusing input
    /// for the next superstep) and resets counters and the seen bit vector.
    pub fn finish_superstep(&mut self) -> Result<Vec<u64>, DeviceError> {
        debug_assert!(self.logs.iter().all(|l| l[1 - self.write_side].pages.is_empty()), "unplanned read side");
        self.seal_all_tops()?;
        let (mut carried, mut bytes) = (0, 0);
        for s in self.logs.iter().flat_map(|l| &l[self.write_side].pages) {
            if let Source::Buffered(page) = s {
                (carried, bytes) = (carried + 1, bytes + to_u64(page.len()));
            }
        }
        self.stats.bytes_appended += bytes;
        self.stats.pages_carried += to_u64(carried);
        self.pressure_records = (carried * self.page_cap).min(self.evict_every);
        self.dest_seen.clear();
        // Flip roles: what was written becomes readable next superstep.
        self.write_side = 1 - self.write_side;
        Ok(std::mem::replace(&mut self.counts, vec![0; self.logs.len()]))
    }

    /// Raw read-side log pages per interval, *without* consuming them —
    /// the checkpoint path: each interval's log in order, its device pages
    /// read, its held and carried pages zero-padded. Pages are returned
    /// exactly as a device read returns them (log-encoded, zero-padded), so
    /// restoring them preserves page boundaries and, with them, record
    /// order. The whole of a device page is checkpoint payload, so each
    /// counts as fully useful; a held or carried page is not read at all.
    pub fn snapshot_pending(&self) -> Result<Vec<Vec<Page>>, DeviceError> {
        let side = 1 - self.write_side;
        let page_size = self.ssd.page_size();
        let mut out = Vec::with_capacity(self.logs.len());
        for l in &self.logs {
            let mut device = self.ssd.read_all(l[side].file, |_| page_size)?.into_iter();
            out.push(
                l[side]
                    .pages
                    .iter()
                    .filter_map(|s| match s {
                        Source::Device => device.next(),
                        Source::Held(page) | Source::Buffered(page) => {
                            Some(Page::zero_padded(page, page_size))
                        }
                    })
                    .collect(),
            );
        }
        Ok(out)
    }

    /// Inverse of [`Self::snapshot_pending`]: make the checkpointed log
    /// pages the read side's logs — settled like an eviction's
    /// (`flush_buffered`): held while the armed budget covers them,
    /// written to the device otherwise, all in one dispatch, carried ones
    /// too, as the snapshot does not say which were — and return the
    /// per-interval pending record counts (what
    /// [`Self::finish_superstep`] returned when the snapshot was taken).
    /// The read side's logs are dropped first. Every page goes through the
    /// decoder first, so a snapshot whose pages are not this format's (or
    /// carry destinations outside their interval), or that holds logs for
    /// a different number of intervals, is refused before anything is
    /// written.
    pub fn restore_pending(&mut self, snapshot: &[Vec<Page>]) -> Result<Vec<u64>, DeviceError> {
        if snapshot.len() != self.logs.len() {
            return Err(DeviceError::Corrupt {
                what: "checkpoint",
                detail: format!(
                    "snapshot holds logs of {} intervals, the multi-log has {}",
                    snapshot.len(),
                    self.logs.len()
                ),
            });
        }
        let side = 1 - self.write_side;
        let mut counts = vec![0u64; self.logs.len()];
        let mut decoded = Vec::new();
        for ((pages, count), i) in snapshot.iter().zip(&mut counts).zip(self.intervals.iter_ids()) {
            let span = self.intervals.range(i);
            decoded.clear();
            for p in pages {
                decode_log_page(p, &span, &mut decoded)?;
            }
            *count = to_u64(decoded.len());
        }
        debug_assert!(self.logs.iter().all(|l| l[self.write_side].pages.is_empty()), "restore over a write side");
        for (ii, pages) in snapshot.iter().enumerate() {
            self.take_log(ii, side).discard(&self.ssd, &mut self.retention)?;
            self.logs[ii][side].pages = pages.iter().map(|p| Source::Buffered(p.to_vec())).collect();
            self.buffered += pages.len();
        }
        let ssd = Arc::clone(&self.ssd);
        self.flush_buffered(&Writes::Device(&ssd))?;
        Ok(counts)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::checked::to_usize;
    use crate::page::PAGE_HEADER_BYTES;
    use mlvc_ssd::SsdConfig;

    fn setup(buffer_bytes: usize) -> MultiLog {
        setup_on(Arc::new(Ssd::new(SsdConfig::test_small())), buffer_bytes, true)
    }

    fn setup_on(ssd: Arc<Ssd>, buffer_bytes: usize, reads_src: bool) -> MultiLog {
        // 256-byte pages, intervals of 25 vertices: narrow pages of 17
        // records with a source, 24 without.
        let iv = VertexIntervals::uniform(100, 4);
        let cfg = MultiLogConfig { buffer_bytes, reads_src, ..Default::default() };
        MultiLog::new(ssd, iv, cfg, "t").unwrap()
    }

    /// A plan decoded with one page fewer than it requests — a splice that
    /// lost a page — is refused as corrupt by both decoders, not a panic.
    #[test]
    fn a_plan_decoded_with_a_page_missing_is_corrupt() {
        let mut ml = setup(4 * 256);
        for k in 0..3000u32 {
            ml.send(Update::new(k % 100, k, u64::from(k))).unwrap();
        }
        ml.finish_superstep().unwrap();
        let mut plan = ml.plan_reads(0..4);
        let mut pages = ml.ssd.read_batch(&plan.reqs).unwrap();
        assert!(pages.pop().is_some(), "no log page reached the device");
        let sum: fn(u64, u64) -> u64 = |a, b| a + b;
        for combine in [None, Some(sum)] {
            plan.combine = combine;
            let err = plan.decode(&pages).unwrap_err();
            assert!(matches!(err, DeviceError::Corrupt { what: "log page", .. }), "{err}");
        }
    }

    /// Drain `range` of the read side the way the engine does: plan, read,
    /// decode, consume. Each planned log lists exactly the pages its file
    /// holds: the list, not the device, says what to read.
    pub(crate) fn drain_range(
        ml: &mut MultiLog,
        range: std::ops::Range<IntervalId>,
    ) -> Result<FusedBatch, DeviceError> {
        let plan = ml.plan_reads(range);
        for (i, (log, _)) in plan.range.clone().zip(&plan.intervals) {
            assert_eq!(to_u64(log.device_pages()), ml.ssd.num_pages(log.file)?, "interval {i}");
        }
        let pages = ml.ssd.read_batch(&plan.reqs)?;
        let batch = plan.decode(&pages)?;
        ml.consume(&plan, &batch)?;
        Ok(batch)
    }

    /// Bytes `ml` buffers in host memory (each buffered page at the page
    /// size it counts against the budget as, every top buffer) — what
    /// `MultiLogConfig::buffer_bytes` caps: after any append it is at most
    /// the cap (with its floors) plus one eviction period's worth of
    /// records.
    fn buffered_bytes(ml: &MultiLog) -> usize {
        ml.buffered * ml.ssd.page_size() + ml.tops.iter().map(Vec::len).sum::<usize>()
    }

    /// Consume interval `i`'s read side.
    fn drain(ml: &mut MultiLog, i: IntervalId) -> Result<Vec<Update>, DeviceError> {
        Ok(drain_range(ml, i..i + 1)?.updates)
    }

    /// Consume interval `i`'s write side the way the engine's asynchronous
    /// inbox does: plan, read, decode, consume.
    fn drain_current(ml: &mut MultiLog, i: IntervalId) -> Result<Vec<Update>, DeviceError> {
        let plan = ml.plan_current(i)?;
        let pages = ml.ssd.read_batch(&plan.reqs)?;
        let batch = plan.decode(&pages)?;
        ml.consume(&plan, &batch)?;
        Ok(batch.updates)
    }

    /// What a drain must return for `sent`: stable by destination.
    fn sorted(mut sent: Vec<Update>) -> Vec<Update> {
        sent.sort_by_key(|u| u.dest);
        sent
    }

    #[test]
    fn messages_route_to_destination_interval() {
        let mut ml = setup(1 << 20);
        // Intervals of 25 vertices each: dest 60 -> interval 2.
        ml.send(Update::new(60, 1, 7)).unwrap();
        ml.send(Update::new(0, 2, 8)).unwrap();
        ml.send(Update::new(99, 3, 9)).unwrap();
        ml.finish_superstep().unwrap();
        assert_eq!(drain(&mut ml, 2).unwrap(), vec![Update::new(60, 1, 7)]);
        assert_eq!(drain(&mut ml, 0).unwrap(), vec![Update::new(0, 2, 8)]);
        assert_eq!(drain(&mut ml, 3).unwrap(), vec![Update::new(99, 3, 9)]);
        assert!(drain(&mut ml, 1).unwrap().is_empty());
    }

    #[test]
    fn log_preserves_insertion_order_per_destination() {
        let mut ml = setup(1 << 20);
        // 40 messages to interval 0, spanning several pages (17/page).
        let sent: Vec<Update> = (0..40).map(|k| Update::new(k % 25, k, k as u64)).collect();
        for &u in &sent {
            ml.send(u).unwrap();
        }
        ml.finish_superstep().unwrap();
        assert_eq!(drain(&mut ml, 0).unwrap(), sorted(sent));
    }

    /// Under eviction pressure the drain is still exactly the sent stream,
    /// stable by destination (the oracle is `slice::sort_by_key`), with
    /// identical counters whatever the pressure.
    #[test]
    fn drain_matches_stable_sort_of_sent_stream_under_eviction_pressure() {
        // Tiny buffer (the cap floor of intervals + one eviction batch
        // still applies): enough traffic to overflow it repeatedly.
        let mut tight = setup(4 * 256);
        let mut roomy = setup(1 << 20);
        let mut sent_per_interval = vec![Vec::new(); 4];
        for k in 0..3000u32 {
            let u = Update::new((k * 7) % 100, k, (k as u64) << 2);
            sent_per_interval[(u.dest / 25) as usize].push(u);
            tight.send(u).unwrap();
            roomy.send(u).unwrap();
        }
        let counts = tight.finish_superstep().unwrap();
        assert_eq!(counts, roomy.finish_superstep().unwrap());
        assert_eq!(counts.iter().sum::<u64>(), 3000);
        assert!(tight.stats().evictions > 0, "pressure must trigger evictions");
        assert_eq!(roomy.stats().evictions, 0);
        for i in 0..4u32 {
            let want = sorted(std::mem::take(&mut sent_per_interval[i as usize]));
            assert_eq!(drain(&mut tight, i).unwrap(), want, "interval {i}");
            assert_eq!(drain(&mut roomy, i).unwrap(), want, "interval {i}");
        }
        assert_eq!(tight.stats().updates_read, 3000);
        assert_eq!(roomy.stats().updates_read, 3000);
    }

    #[test]
    fn dest_seen_tracks_current_superstep() {
        let mut ml = setup(1 << 20);
        assert!(!ml.dest_seen(42));
        ml.send(Update::new(42, 0, 1)).unwrap();
        assert!(ml.dest_seen(42));
        ml.finish_superstep().unwrap();
        assert!(!ml.dest_seen(42), "cleared at superstep end");
    }

    #[test]
    fn counts_reset_after_finish() {
        let mut ml = setup(1 << 20);
        ml.send(Update::new(1, 0, 0)).unwrap();
        ml.send(Update::new(2, 0, 0)).unwrap();
        assert_eq!(ml.finish_superstep().unwrap()[0], 2);
        assert_eq!(drain(&mut ml, 0).unwrap().len(), 2);
        assert_eq!(ml.finish_superstep().unwrap()[0], 0);
    }

    #[test]
    fn consume_truncates_and_counts_into_owner_stats() {
        let mut ml = setup(1 << 20);
        ml.send(Update::new(60, 1, 7)).unwrap();
        ml.finish_superstep().unwrap();
        assert_eq!(drain(&mut ml, 2).unwrap().len(), 1);
        assert!(drain(&mut ml, 2).unwrap().is_empty(), "second drain finds nothing");
        assert!(drain(&mut ml, 0).unwrap().is_empty());
        assert_eq!(ml.stats().updates_read, 1, "reads flow into owner stats");
    }

    /// A plan resolves the read side when it is made: plans of two
    /// consecutive supersteps each drain their own superstep's messages,
    /// exactly once, however much the superstep they run in has flushed to
    /// its write side — and the drains of both sides count into one
    /// `updates_read`.
    #[test]
    fn plans_of_consecutive_supersteps_drain_their_own_messages_once() {
        let mut ml = setup(4 * 256);
        let first: Vec<Update> = (0..3).map(|k| Update::new(30 * k, k, u64::from(k))).collect();
        for &u in &first {
            ml.send(u).unwrap();
        }
        ml.finish_superstep().unwrap();
        // Enough for interval 0 to flush mid-superstep (the floors put the
        // eviction period at 64 pages of 17 records), plus one message the
        // asynchronous drain takes back before the superstep ends.
        let second: Vec<Update> = (0..1200).map(|k| Update::new(k % 25, k, u64::from(k))).collect();
        for &u in &second {
            ml.send(u).unwrap();
        }
        ml.send(Update::new(40, 9, 9)).unwrap();
        assert!(ml.stats().pages_flushed > 0, "the write side was flushed to");
        assert_eq!(drain_current(&mut ml, 1).unwrap(), vec![Update::new(40, 9, 9)]);
        assert_eq!(drain_range(&mut ml, 0..4).unwrap().updates, sorted(first));
        assert!(drain_range(&mut ml, 0..4).unwrap().updates.is_empty(), "drained once");
        ml.finish_superstep().unwrap();
        assert_eq!(drain_range(&mut ml, 0..4).unwrap().updates, sorted(second));
        assert!(drain_range(&mut ml, 0..4).unwrap().updates.is_empty(), "drained once");
        assert_eq!(ml.stats().updates_read, 3 + 1 + 1200);
    }

    /// Decoding is a pure function of the page bytes, folding or not: until
    /// `consume` runs, the device, its counters and the log files are
    /// untouched.
    #[test]
    fn decode_sorted_alone_moves_no_device_state() {
        for fold in [false, true] {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            // Past one eviction period, so most of the log is on the device.
            let mut ml = setup_on(Arc::clone(&ssd), 4 * 256, true);
            for k in 0..1200u32 {
                ml.send(Update::new(k % 100, k, u64::from(k))).unwrap();
            }
            ml.finish_superstep().unwrap();
            let plan = ml.plan_reads(0..4);
            let pages = ssd.read_batch(&plan.reqs).unwrap();
            let before = ssd.stats().snapshot();
            let batch = if fold {
                plan.decode_folded(&pages, u64::wrapping_add).unwrap()
            } else {
                plan.decode_sorted(&pages).unwrap()
            };
            // Twelve records per destination: k, k + 100, ..., k + 1100.
            assert_eq!(batch.records, 1200);
            assert_eq!(batch.updates.len(), if fold { 100 } else { 1200 });
            assert_eq!(ssd.stats().snapshot(), before, "decode charged the device");
            assert_eq!(ml.stats().updates_read, 0);
            let file = ssd.lookup("t.mlog.0.a").unwrap();
            assert!(ssd.num_pages(file).unwrap() > 0, "decode truncated the log");
            ml.consume(&plan, &batch).unwrap();
            assert_eq!(ssd.num_pages(file).unwrap(), 0);
            assert_eq!(ml.stats().updates_read, 1200, "fold={fold}: records, not updates");
            assert_eq!(
                ssd.stats().snapshot().useful_bytes_read - before.useful_bytes_read,
                batch.useful_bytes
            );
        }
    }

    #[test]
    fn the_asynchronous_drain_takes_this_superstep_only() {
        let mut ml = setup(4 * 256);
        // Previous superstep's messages for interval 0.
        ml.send(Update::new(1, 0, 11)).unwrap();
        ml.finish_superstep().unwrap();
        // Current superstep: more messages to interval 0, enough to flush
        // pages plus leave a partial top.
        let current: Vec<Update> = (0..40).map(|k| Update::new(k % 25, k, k as u64)).collect();
        for &u in &current {
            ml.send(u).unwrap();
        }
        // Async drain returns exactly the current superstep's messages,
        // stable by destination, without touching the read side.
        let got = drain_current(&mut ml, 0).unwrap();
        assert_eq!(got, sorted(current));
        assert_eq!(drain(&mut ml, 0).unwrap(), vec![Update::new(1, 0, 11)], "read side intact");
        // Nothing left on either side for interval 0.
        assert!(drain_current(&mut ml, 0).unwrap().is_empty());
        assert_eq!(ml.finish_superstep().unwrap()[0], 0, "counter rolled back");
        assert!(drain(&mut ml, 0).unwrap().is_empty());
    }

    /// Log-tail retention holds: an armed unit keeps the leading pages it
    /// flushes in host memory while the budget lasts — never written, on no
    /// log file —, the drain decodes them where they are, to the same
    /// updates and useful bytes an unarmed twin reads from the device, and
    /// its consume returns exactly their bytes, so the next superstep's
    /// flush is held again. A restore under a fresh arming holds what it
    /// restores.
    #[test]
    fn retention_pins_the_log_tail_within_budget() {
        let (ssd, twin) = (Arc::new(Ssd::new(SsdConfig::test_small())), Arc::new(Ssd::new(SsdConfig::test_small())));
        let page = to_u64(ssd.page_size());
        // 1200 records overflow the floor's eviction period (64 pages of 17
        // records) once: the flush is what retention sees, the tail is
        // carried.
        let mut ml = setup_on(Arc::clone(&ssd), 4 * 256, true);
        let mut plain = setup_on(Arc::clone(&twin), 4 * 256, true);
        let send = |ml: &mut MultiLog, records: u32| {
            for k in 0..records {
                ml.send(Update::new(k % 25, k, u64::from(k))).unwrap();
            }
            ml.finish_superstep().unwrap();
        };
        let on_files = |ml: &MultiLog| (0..4).map(|i| ssd.num_pages(read_file(ml, i)).unwrap()).sum::<u64>();

        ml.arm_retention(2 * page);
        let mut flushed = 0;
        for superstep in 0..2 {
            ssd.stats().reset();
            twin.stats().reset();
            send(&mut ml, 1200);
            send(&mut plain, 1200);
            let now = ml.stats().pages_flushed - flushed;
            assert!(now >= 3, "{now} pages flushed");
            assert_eq!(ml.retained_bytes(), 2 * page, "superstep {superstep}");
            assert_eq!(ml.stats().pages_retained, 2 * (superstep + 1));
            assert_eq!(ssd.stats().snapshot().pages_written, now - 2, "a held page was written");
            assert_eq!(on_files(&ml), now - 2, "a held page is on a log file");
            assert_eq!(twin.stats().snapshot().pages_written, now);

            ssd.stats().reset();
            twin.stats().reset();
            let batch = drain_range(&mut ml, 0..4).unwrap();
            let read = drain_range(&mut plain, 0..4).unwrap();
            assert_eq!((batch.records, &batch.updates), (1200, &read.updates));
            assert_eq!(batch.useful_bytes, read.useful_bytes, "held bytes are useful as read ones");
            assert_eq!(ssd.stats().snapshot().pages_read, now - 2, "two pages decoded in DRAM");
            assert_eq!(twin.stats().snapshot().pages_read, now);
            assert_eq!(ml.retained_bytes(), 0, "consume returns the held bytes");
            flushed += now;
        }
        // A tail small enough to be carried whole: the snapshot holds it,
        // and the restore holds it again, writing none of it.
        send(&mut ml, 60);
        let snapshot = ml.snapshot_pending().unwrap();
        let restored = to_u64(snapshot.iter().map(Vec::len).sum::<usize>());
        ml.arm_retention(8 * page);
        ssd.stats().reset();
        ml.restore_pending(&snapshot).unwrap();
        assert_eq!(ml.retained_bytes(), restored * page);
        assert_eq!(on_files(&ml), 0);
        assert_eq!(drain_range(&mut ml, 0..4).unwrap().records, 60);

        send(&mut ml, 60);
        ml.restore_pending(&ml.snapshot_pending().unwrap()).unwrap();
        assert_eq!(ml.retained_bytes(), restored * page, "a restore returned and retook the bytes");
        assert_eq!(ssd.stats().snapshot().pages_written, 0, "a restore wrote a held page");
    }

    /// The retention ledger is live, so the topology's pins plus what the
    /// multi-log holds never exceed the budget: a run of supersteps under
    /// eviction pressure, draining in two fused batches, re-arming at each
    /// boundary with what the topology and the live tail leave, as the
    /// engine's retier does. Checked after every append (a flush may
    /// follow) and every consume; the topology is held where the engine
    /// holds it, in a loader's [`mlvc_graph::HeldPages`], the held log
    /// pages are never written, and every page a flush hands over —
    /// sealed, or carried and not yet planned — is either written or held.
    #[test]
    fn pinned_bytes_stay_within_the_budget_at_every_flush_and_consume() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let page = to_u64(ssd.page_size());
        let topology = ssd.open_or_create("topology").unwrap();
        ssd.append_pages(topology, &[&[1u8; 8][..]; 3]).unwrap();
        let mut topo = mlvc_graph::HeldPages::default();
        topo.mark(topology);
        let reqs: Vec<_> = (0..3).map(|p| (topology, p, 0)).collect();
        topo.read(&mut mlvc_ssd::Reads::Device(&ssd), &reqs, None).unwrap();
        let budget = 12 * page;
        let mut ml = setup_on(Arc::clone(&ssd), 4 * 256, true);
        let within = |ml: &MultiLog| {
            let (pinned, held) = (to_u64(topo.pages()) * page, ml.retained_bytes());
            assert!(pinned + held <= budget, "{pinned} pinned + {held} held over {budget}");
            assert_eq!(pinned, 3 * page, "the pinned bytes are the topology's");
        };
        let mut armed = budget - 3 * page;
        ml.arm_retention(armed);
        let mut regained = false;
        for superstep in 0..6u32 {
            ssd.stats().reset();
            let (flushed, retained) = (ml.stats().pages_flushed, ml.stats().pages_retained);
            // The first fused batch drains before the scatter, the second
            // after it: its tail is still held while the new one grows.
            let first = ml.plan_reads(0..2);
            let pages = ssd.read_batch(&first.reqs).unwrap();
            ml.consume(&first, &first.decode(&pages).unwrap()).unwrap();
            within(&ml);
            let unplanned = carried_count(&ml);
            for k in 0..2400 + 300 * superstep {
                ml.send(Update::new((k * 37) % 100, k, u64::from(k))).unwrap();
                within(&ml);
            }
            // An eviction wrote out the carried pages not yet planned.
            let evicted = to_u64(unplanned - carried_count(&ml));
            _ = drain_range(&mut ml, 2..4).unwrap();
            within(&ml);
            ml.finish_superstep().unwrap();
            let (flushed, retained) =
                (ml.stats().pages_flushed - flushed, ml.stats().pages_retained - retained);
            assert!(retained > 0, "superstep {superstep} retained nothing");
            assert_eq!(ssd.stats().snapshot().pages_written, flushed + evicted - retained);
            // More than the arming covered: bytes a consume returned.
            regained |= retained * page > armed;
            armed = budget - 3 * page - ml.retained_bytes();
            ml.arm_retention(armed);
        }
        assert!(regained, "a consume's returned bytes were never retained again");
    }

    /// Retention re-armed between two flushes leaves a log whose pages are
    /// held, written, held, written: it drains in log order through both
    /// sides' plans (`plan_current` on the write side, `plan_reads` on the
    /// read side), and it round-trips through `snapshot_pending` →
    /// `restore_pending`.
    #[test]
    fn a_held_written_held_log_drains_and_round_trips_in_log_order() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let page = to_u64(ssd.page_size());
        let mut ml = setup_on(Arc::clone(&ssd), 4 * 256, true);
        // Two eviction periods (64 pages of 17 records) into interval 0,
        // the budget re-armed to one page before each.
        let sent: Vec<Update> =
            (0..2 * 64 * 17).map(|k| Update::new(k % 25, k, u64::from(k))).collect();
        let fill = |ml: &mut MultiLog| {
            for period in sent.chunks(64 * 17) {
                ml.arm_retention(page);
                period.iter().for_each(|&u| ml.send(u).unwrap());
            }
            assert_eq!(ml.retained_bytes(), 2 * page);
        };
        // Each held page's place: how many written pages come before it.
        let held_between_written = |ml: &MultiLog, side: usize| {
            let log = &ml.logs[0][side].pages;
            let written = |k: usize| log[..k].iter().filter(|s| matches!(s, Source::Device)).count();
            let at: Vec<usize> =
                (0..log.len()).filter(|&k| matches!(log[k], Source::Held(_))).map(written).collect();
            let n = to_usize("pages", ssd.num_pages(ml.logs[0][side].file).unwrap()).unwrap();
            assert!(at.len() == 2 && at[0] == 0 && 0 < at[1] && at[1] < n, "{at:?} of {n}");
        };

        fill(&mut ml);
        held_between_written(&ml, ml.write_side);
        assert_eq!(drain_current(&mut ml, 0).unwrap(), sorted(sent.clone()));
        assert_eq!(ml.retained_bytes(), 0);

        fill(&mut ml);
        ml.finish_superstep().unwrap();
        held_between_written(&ml, 1 - ml.write_side);
        let snapshot = ml.snapshot_pending().unwrap();
        assert_eq!(drain(&mut ml, 0).unwrap(), sorted(sent.clone()));
        assert_eq!(ml.retained_bytes(), 0);

        ml.arm_retention(page);
        assert_eq!(ml.restore_pending(&snapshot).unwrap()[0], to_u64(sent.len()));
        assert_eq!(ml.retained_bytes(), page);
        assert_eq!(ml.snapshot_pending().unwrap(), snapshot);
        assert_eq!(drain(&mut ml, 0).unwrap(), sorted(sent));
    }

    /// Retention holds in interval order, the log drained first, not in
    /// seal order: interval 1 seals a page before interval 0 does, and the
    /// one page of budget holds interval 0's while interval 1's is written.
    #[test]
    fn an_eviction_holds_the_lowest_intervals_pages_first() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut ml = setup_on(Arc::clone(&ssd), 1 << 20, true);
        // 17 records fill one narrow page of a bucket.
        let sent = |dest| (0..17).map(|k| Update::new(dest, k, u64::from(k))).collect::<Vec<_>>();
        for dest in [25, 0] {
            sent(dest).into_iter().for_each(|u| ml.send(u).unwrap());
        }
        assert_eq!(ml.buffered_pages(), 2, "two sealed pages, no top records");
        ml.arm_retention(to_u64(ssd.page_size()));
        ml.evict(&Writes::Device(&ssd)).unwrap();
        let w = ml.write_side;
        assert!(matches!(ml.logs[0][w].pages[..], [Source::Held(_)]), "interval 0's page is held");
        assert!(matches!(ml.logs[1][w].pages[..], [Source::Device]), "interval 1's page is written");
        assert_eq!(ssd.num_pages(ml.logs[0][w].file).unwrap(), 0);
        assert_eq!(ssd.num_pages(ml.logs[1][w].file).unwrap(), 1);
        assert_eq!(drain_current(&mut ml, 0).unwrap(), sent(0));
        assert_eq!(drain_current(&mut ml, 1).unwrap(), sent(25));
        assert_eq!(ml.retained_bytes(), 0);
    }

    /// Records that fit the buffer cross the boundary in host memory: the
    /// drain costs the device nothing — no page written or read, no byte
    /// declared useful — and still returns every record, per destination
    /// in send order.
    #[test]
    fn records_that_fit_the_buffer_drain_with_no_device_io() {
        for fold in [false, true] {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let mut ml = setup_on(Arc::clone(&ssd), 1 << 20, true);
            let sent: Vec<Update> =
                (0..300u32).map(|k| Update::new((k * 7) % 100, k, u64::from(k))).collect();
            for &u in &sent {
                ml.send(u).unwrap();
            }
            assert_eq!(ml.finish_superstep().unwrap().iter().sum::<u64>(), 300);
            assert_eq!(ml.stats().pages_flushed, 0);
            assert!(ml.stats().pages_carried > 0);
            let plan = ml.plan_reads(0..4);
            assert!(plan.reqs.is_empty(), "nothing to read");
            let batch = if fold {
                plan.decode_folded(&[], u64::wrapping_add).unwrap()
            } else {
                plan.decode_sorted(&[]).unwrap()
            };
            ml.consume(&plan, &batch).unwrap();
            assert_eq!(batch.records, 300);
            assert_eq!(batch.useful_bytes, 0);
            if !fold {
                assert_eq!(batch.updates, sorted(sent));
            }
            let s = ssd.stats().snapshot();
            assert_eq!((s.pages_written, s.pages_read, s.useful_bytes_read), (0, 0, 0));
        }
    }

    /// The read-side file of interval `i`.
    fn read_file(ml: &MultiLog, i: usize) -> FileId {
        ml.logs[i][1 - ml.write_side].file
    }

    /// Each interval's carried pages not yet planned — its read-side log's
    /// buffered ones — zero-padded as a device read returns them.
    fn carried(ml: &MultiLog) -> Vec<Vec<Page>> {
        let pad = |s: &Source| match s {
            Source::Buffered(page) => Some(Page::zero_padded(page, ml.ssd.page_size())),
            _ => None,
        };
        ml.logs.iter().map(|l| l[1 - ml.write_side].pages.iter().filter_map(pad).collect()).collect()
    }

    fn carried_count(ml: &MultiLog) -> usize {
        carried(ml).iter().map(Vec::len).sum()
    }

    /// Under the next superstep's pressure, the carried pages of every
    /// interval not yet planned are written in the eviction's one dispatch
    /// beside the write side's sealed pages, after the pages their interval
    /// evicted the superstep before; a planned interval's are not. The
    /// drain is the same as without the pressure.
    #[test]
    fn pressure_writes_unplanned_carried_pages_in_the_evictions_dispatch() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut ml = setup_on(Arc::clone(&ssd), 4 * 256, true);
        // Past one eviction period (64 pages of 17) into interval 0, then a
        // tail into the other three.
        let mut sent: Vec<Update> =
            (0..1200u32).map(|k| Update::new(k % 25, k, u64::from(k))).collect();
        sent.extend((0..90u32).map(|k| Update::new(25 + k % 75, k, u64::from(k))));
        for &u in &sent {
            ml.send(u).unwrap();
        }
        ml.finish_superstep().unwrap();
        let evicted = ssd.num_pages(read_file(&ml, 0)).unwrap();
        assert!(evicted > 0, "interval 0 evicted before the boundary");
        let carried = carried(&ml);
        assert!(carried.iter().all(|c| !c.is_empty()), "{:?}", carried.iter().map(Vec::len));
        let planned = ml.plan_reads(3..4);

        // Superstep two: the carried pages start the pressure counter, so
        // its eviction comes that much sooner.
        let head = carried.iter().map(Vec::len).sum::<usize>() * 17;
        for k in 0..(64 * 17 - head - 1) as u32 {
            ml.send(Update::new(k % 25, k, 0)).unwrap();
        }
        assert_eq!(ml.stats().evictions, 1);
        let flushed = ml.stats().pages_flushed;
        ssd.stats().reset();
        ml.send(Update::new(0, 0, 0)).unwrap();
        assert_eq!(ml.stats().evictions, 2, "the period's last record evicts");
        let s = ssd.stats().snapshot();
        let unplanned = to_u64(carried[..3].iter().map(Vec::len).sum::<usize>());
        assert_eq!(s.write_batches, 1, "one dispatch");
        assert_eq!(s.pages_written, ml.stats().pages_flushed - flushed + unplanned);
        for (i, pages) in carried[..3].iter().enumerate() {
            let on_device = ssd.read_all(read_file(&ml, i), |_| 0).unwrap();
            let before = if i == 0 { evicted } else { 0 };
            assert_eq!(to_u64(on_device.len()), before + to_u64(pages.len()), "interval {i}");
            assert_eq!(&on_device[to_usize("pages", before).unwrap()..], &pages[..], "interval {i}");
        }
        assert_eq!(ssd.num_pages(read_file(&ml, 3)).unwrap(), 0, "a planned interval's stay");

        let last = planned.decode(&[]).unwrap();
        ml.consume(&planned, &last).unwrap();
        let mut drained = drain_range(&mut ml, 0..3).unwrap().updates;
        drained.extend(last.updates);
        assert_eq!(drained, sorted(sent));
    }

    /// Once planned, an interval's carried pages belong to the plan: no
    /// eviction writes them, however many the superstep makes.
    #[test]
    fn a_planned_intervals_carried_pages_are_never_written() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut ml = setup_on(Arc::clone(&ssd), 4 * 256, true);
        let sent: Vec<Update> = (0..500u32).map(|k| Update::new(k % 100, k, 1)).collect();
        for &u in &sent {
            ml.send(u).unwrap();
        }
        ml.finish_superstep().unwrap();
        let plan = ml.plan_reads(0..4);
        for k in 0..5000u32 {
            ml.send(Update::new(k % 100, k, 2)).unwrap();
        }
        assert!(ml.stats().evictions > 3);
        for i in 0..4 {
            assert_eq!(ssd.num_pages(read_file(&ml, i)).unwrap(), 0, "interval {i}");
        }
        assert_eq!(plan.decode(&[]).unwrap().updates, sorted(sent));
    }

    #[test]
    fn send_batch_matches_per_update_send() {
        // Same traffic through both APIs on identical units: identical
        // stats (page seals, evictions) and identical log contents.
        let mut a = setup(4 * 256);
        let mut b = setup(4 * 256);
        let ups: Vec<Update> =
            (0..1000u32).map(|k| Update::new(k % 25, k, (k as u64) * 3)).collect();
        for &u in &ups {
            a.send(u).unwrap();
        }
        b.send_batch(0, &ups).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.buffered_pages(), b.buffered_pages());
        assert!(b.dest_seen(7));
        assert_eq!(a.finish_superstep().unwrap(), b.finish_superstep().unwrap());
        assert_eq!(drain(&mut a, 0).unwrap(), drain(&mut b, 0).unwrap());
    }

    #[test]
    fn flush_batches_across_channels() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(100, 4);
        let mut ml = MultiLog::new(
            Arc::clone(&ssd),
            iv,
            MultiLogConfig { buffer_bytes: 0, ..MultiLogConfig::default() },
            "t",
        )
        .unwrap();
        // The floors put the eviction period at 64 pages of 17 records:
        // the last record of the period sets off the flush.
        for k in 0..64 * 17 - 1 {
            ml.send(Update::new(k % 100, 0, 0)).unwrap();
        }
        ssd.stats().reset();
        ml.send(Update::new(99, 0, 0)).unwrap();
        assert_eq!(ml.stats().evictions, 1);
        let s = ssd.stats().snapshot();
        assert!(s.pages_written >= 4, "one page per touched interval");
        assert_eq!(s.write_batches, 1, "single scattered dispatch");
    }

    /// Every sealed page that joins a log counts, flushed or — as here,
    /// where everything fits the buffer — carried.
    #[test]
    fn bytes_appended_counts_each_flushed_page() {
        // 100 vertices over 4 intervals of 25 — interval i is [25i, 25i+25).
        let mut ml = setup(1 << 20);
        assert_eq!(ml.stats().bytes_appended, 0);
        // 3 updates into interval 0, 1 into interval 2: two pages.
        for dest in [0u32, 5, 24, 70] {
            ml.send(Update::new(dest, 1, 0)).unwrap();
        }
        ml.finish_superstep().unwrap();
        // Was 4 + 3 * 16 and 4 + 16 with the fixed-width layout.
        let rec = PageShape { wide_dest: false, has_src: true }.record_bytes();
        let first = to_u64(2 * PAGE_HEADER_BYTES + 4 * rec);
        assert_eq!(ml.stats().bytes_appended, first, "two headers + 4 records");
        drain_range(&mut ml, 0..4).unwrap();
        // Accounting is cumulative across supersteps.
        ml.send(Update::new(99, 9, 9)).unwrap();
        ml.finish_superstep().unwrap();
        assert_eq!(ml.stats().bytes_appended, first + to_u64(PAGE_HEADER_BYTES + rec));
    }

    #[test]
    fn dropped_src_drains_as_the_sentinel_and_packs_more_per_page() {
        let ssds: Vec<Arc<Ssd>> =
            (0..2).map(|_| Arc::new(Ssd::new(SsdConfig::test_small()))).collect();
        // Past one eviction period (64 pages) in either shape.
        let mut with = setup_on(Arc::clone(&ssds[0]), 4 * 256, true);
        let mut without = setup_on(Arc::clone(&ssds[1]), 4 * 256, false);
        let sent: Vec<Update> =
            (0..2000u32).map(|k| Update::new((k * 13) % 100, k, u64::from(k))).collect();
        for &u in &sent {
            with.send(u).unwrap();
            without.send(u).unwrap();
        }
        assert_eq!(with.finish_superstep().unwrap(), without.finish_superstep().unwrap());
        for i in 0..4u32 {
            let want: Vec<Update> = drain(&mut with, i)
                .unwrap()
                .into_iter()
                .map(|u| Update { src: VertexId::MAX, ..u })
                .collect();
            assert_eq!(drain(&mut without, i).unwrap(), want, "interval {i}");
        }
        assert!(ssds.iter().all(|s| s.stats().snapshot().pages_written > 0), "evicted");
        let pages = |ml: &MultiLog| ml.stats().pages_flushed + ml.stats().pages_carried;
        // 2000 records at 17 vs 24 per page, one partial page per interval.
        assert_eq!((pages(&with), pages(&without)), (120, 84));
        assert!(without.stats().bytes_appended < with.stats().bytes_appended);
    }

    /// `buffer_bytes` caps encoded bytes: whatever the record shape, what
    /// sits in host memory after any append is at most the cap (with its
    /// interval + eviction-batch floors) plus one eviction period — the
    /// pages carried across a superstep boundary included, counted at
    /// their padded page size, whether their interval is planned early or
    /// late in the superstep.
    #[test]
    fn buffered_bytes_stay_under_the_cap_plus_one_eviction_batch() {
        for reads_src in [true, false] {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let page_size = ssd.page_size();
            let cap_pages = 4 + 8 * ssd.config().channels.max(8);
            let mut ml = setup_on(ssd, page_size, reads_src);
            let cap_bytes = cap_pages * page_size;
            let batch_bytes = (cap_pages - 4) * page_size;
            let (mut evictions, mut peak) = (0, 0);
            for k in 0..20_000u32 {
                match k % 5000 {
                    1000 => _ = drain_range(&mut ml, 0..2).unwrap(),
                    3000 => _ = drain_range(&mut ml, 2..4).unwrap(),
                    4999 => _ = ml.finish_superstep().unwrap(),
                    _ => {}
                }
                ml.send(Update::new((k * 37) % 100, k, u64::from(k))).unwrap();
                let now = ml.stats().evictions;
                if now > evictions {
                    evictions = now;
                    assert!(buffered_bytes(&ml) <= cap_bytes, "over cap after evicting");
                }
                peak = peak.max(buffered_bytes(&ml));
            }
            assert!(evictions > 3, "pressure must evict repeatedly");
            assert!(ml.stats().pages_carried > 0, "pages crossed a boundary in memory");
            assert!(peak > cap_bytes / 2, "the budget is actually used (peak {peak})");
            assert!(
                peak <= cap_bytes + batch_bytes,
                "src={reads_src}: peak {peak} over {cap_bytes} + {batch_bytes}"
            );
        }
    }

    /// One flipped destination bit in a flushed page is a typed error on
    /// every read path, never a panic or an out-of-bounds index.
    #[test]
    fn flipped_destination_bit_is_an_error_on_every_read_path() {
        // Rewrite page 0 of interval 1's log (vertices 25..50) with the top
        // bit of its first record's destination offset flipped.
        fn corrupt(ssd: &Ssd, name: &str) {
            let f = ssd.lookup(name).unwrap();
            let mut pages: Vec<Vec<u8>> =
                ssd.read_all(f, |_| 0).unwrap().iter().map(|p| p.to_vec()).collect();
            pages[0][PAGE_HEADER_BYTES + 1] ^= 0x80;
            ssd.truncate(f).unwrap();
            let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
            ssd.append_pages(f, &refs).unwrap();
        }
        fn assert_corrupt<T: std::fmt::Debug>(r: Result<T, DeviceError>, path: &str) {
            match r {
                Err(DeviceError::Corrupt { what: "log page", .. }) => {}
                other => panic!("{path}: expected a corrupt-page error, got {other:?}"),
            }
        }
        let fill = |ml: &mut MultiLog| {
            for k in 0..200u32 {
                ml.send(Update::new(25 + k % 25, k, u64::from(k))).unwrap();
            }
        };
        // Twenty fills overflow the buffer, so interval 1's log is on the
        // device before the superstep ends.
        let fresh = || {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let mut ml = setup_on(Arc::clone(&ssd), 4 * 256, true);
            for _ in 0..20 {
                fill(&mut ml);
            }
            ml.finish_superstep().unwrap();
            corrupt(&ssd, "t.mlog.1.a");
            (ssd, ml)
        };
        let (_, mut ml) = fresh();
        assert_corrupt(drain(&mut ml, 1), "decode");
        let (ssd, mut ml) = fresh();
        let plan = ml.plan_reads(0..4);
        let pages = ssd.read_batch(&plan.reqs).unwrap();
        assert_corrupt(plan.decode_sorted(&pages), "decode_sorted");
        assert_corrupt(plan.decode_folded(&pages, u64::wrapping_add), "decode_folded");
        // The engine's retire path when nobody was handed the batch: the
        // thread that submitted the read fetches the ticket and decodes.
        let ioq = mlvc_ssd::IoQueue::new(Arc::clone(&ssd), 4);
        let pages = ioq.fetch(ioq.submit_read(plan.reqs.clone())).unwrap();
        assert_corrupt(plan.decode(&pages), "submit, fetch and decode in place");
        // Checkpoint restore: the snapshot carries the corrupt page.
        let (ssd, ml) = fresh();
        let snapshot = ml.snapshot_pending().unwrap();
        let mut other = setup_on(ssd, 1 << 20, true);
        assert_corrupt(other.restore_pending(&snapshot), "restore_pending");
        // Async drain: the corrupt page is on the current write side.
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut ml = setup_on(Arc::clone(&ssd), 4 * 256, true);
        for _ in 0..20 {
            fill(&mut ml);
        }
        assert!(ssd.num_pages(ssd.lookup("t.mlog.1.a").unwrap()).unwrap() > 0);
        corrupt(&ssd, "t.mlog.1.a");
        assert_corrupt(drain_current(&mut ml, 1), "plan_current");
    }

    /// A restore settles the snapshot like an eviction: the pages of every
    /// interval that the budget does not hold go out in one dispatch.
    #[test]
    fn a_restore_writes_every_interval_in_one_dispatch() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut ml = setup_on(Arc::clone(&ssd), 1 << 20, true);
        let sent: Vec<Update> = (0..300u32).map(|k| Update::new((k * 7) % 100, k, u64::from(k))).collect();
        sent.iter().for_each(|&u| ml.send(u).unwrap());
        ml.finish_superstep().unwrap();
        let snapshot = ml.snapshot_pending().unwrap();
        assert!(snapshot.iter().all(|pages| !pages.is_empty()), "every interval restores a page");
        ssd.stats().reset();
        assert_eq!(ml.restore_pending(&snapshot).unwrap().iter().sum::<u64>(), 300);
        let s = ssd.stats().snapshot();
        assert_eq!(s.pages_written, to_u64(snapshot.iter().map(Vec::len).sum::<usize>()));
        assert_eq!(s.write_batches, 1, "one dispatch");
        assert_eq!(drain_range(&mut ml, 0..4).unwrap().updates, sorted(sent));
    }

    /// A snapshot of a differently partitioned run is refused with a typed
    /// error before anything is written, not a panic.
    #[test]
    fn restore_refuses_a_snapshot_of_another_interval_count() {
        let mut ml = setup(1 << 20);
        ml.send(Update::new(3, 0, 7)).unwrap();
        ml.finish_superstep().unwrap();
        let snapshot = ml.snapshot_pending().unwrap();
        let err = ml.restore_pending(&snapshot[..3]).unwrap_err();
        assert!(matches!(err, DeviceError::Corrupt { what: "checkpoint", .. }), "{err}");
        assert_eq!(ml.snapshot_pending().unwrap(), snapshot, "nothing was written");
    }
}
