use crate::checked::{idx, to_u32, to_u64, to_usize};
use std::sync::Arc;
use std::time::Instant;

use mlvc_par::Tracked;
use mlvc_ssd::RelaxedCounter;

use mlvc_graph::{IntervalId, VertexIntervals, VertexId};
use mlvc_ssd::{DeviceError, FileId, Page, Ssd};

use crate::page::{
    decode_log_page, pack_pages, push_record, seal_page, LogPage, PageShape,
};
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
    /// decodes them ([`LogReader::decode`]); what is logged does not change.
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
    pub pages_flushed: u64,
    /// Memory-pressure eviction events (buffer exceeded its cap).
    pub evictions: u64,
    pub updates_read: u64,
    /// Encoded bytes appended across every interval log (page header +
    /// records per flushed page — the observability layer's "log bytes
    /// appended" source).
    pub bytes_appended: u64,
}

/// The Multi-Log Update Unit (paper §V-A).
///
/// One append-only log per vertex interval. `SendUpdate` maps the
/// destination vertex to its interval (`vId2IntervalMap`) and encodes the
/// record straight into a **top page** of that interval in host memory
/// (the page format is [`crate::page`]'s). Each interval keeps one top page
/// per destination-page *bucket* (sort-reduce folding, BigSparse): records
/// are bucketed by destination at append time, so sealed pages are
/// destination-clustered and the read side needs only a per-interval
/// counting pass, never a whole-inbox sort. Per-destination insertion
/// order is preserved. Full pages are sealed; under memory pressure sealed
/// pages (and, if needed, top pages) are flushed to the interval's log
/// file in one scattered batch so the writes pipeline across all SSD
/// channels.
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
    files: Vec<[FileId; 2]>,
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
    /// Records appended since the last pressure flush, against
    /// `evict_every`. Pressure is measured in appended records — a global
    /// count, so eviction points (and with them the `evictions` stat) are
    /// identical however the scatter interleaves intervals or buckets
    /// (per-slot fill state is not).
    pressure_records: usize,
    /// Pressure-flush period: the buffer budget headroom above the
    /// per-interval floor, in records — so the bytes appended between two
    /// flushes never exceed that headroom.
    evict_every: usize,
    /// Finished pages awaiting the next flush, in seal order.
    sealed: Vec<(IntervalId, Vec<u8>)>,
    counts: Vec<u64>,
    dest_seen: BitSet,
    cap_pages: usize,
    /// `updates_read` lives outside `stats` in a shared atomic so that a
    /// [`LogReader`] consuming the read side counts into the same total as
    /// the owner's `take_log_current`.
    stats: MultiLogStats,
    updates_read: Arc<RelaxedCounter>,
    /// Per-interval share of `stats.bytes_appended` (same counting).
    bytes_per_interval: Vec<u64>,
    /// Handed to every [`LogReader`]; the write side never looks at it.
    combine: Option<fn(u64, u64) -> u64>,
}

/// Shared-nothing handle onto the **read side** of the multi-log — the
/// superstep's inbox, what the sort & group unit consumes. It holds its own
/// device handle and the read-side file ids captured at creation, so fetch
/// workers can decode the next fused batches while the owning [`MultiLog`]
/// keeps appending to the write side (the two sides are disjoint files,
/// and every [`Ssd`] method takes `&self`).
///
/// Draining a fused batch is three steps: [`Self::plan_reads`] on the
/// owner, [`Self::decode`] on whichever thread holds the fetched page
/// bytes, and [`Self::consume`] back on the owner — the only step that
/// touches the device or any counter.
///
/// The sides flip at [`MultiLog::finish_superstep`], so a reader is only
/// valid for the superstep it was created in: create one per superstep via
/// [`MultiLog::reader`].
pub struct LogReader {
    ssd: Arc<Ssd>,
    files: Vec<FileId>,
    intervals: VertexIntervals,
    combine: Option<fn(u64, u64) -> u64>,
    updates_read: Arc<RelaxedCounter>,
    /// One shadow cell per interval auditing the take-once protocol:
    /// [`Self::consume`] truncates interval `i`'s log, so two unordered
    /// consumes of the same interval are a protocol violation the race
    /// detector reports with both call sites (DESIGN.md §14).
    take_audit: Vec<Tracked<()>>,
}

/// The page reads needed to drain a fused interval range — the submission
/// half of the read path. Built on the owning engine thread (so the
/// submission order is deterministic), fetched through an
/// [`mlvc_ssd::IoQueue`] or a plain `read_batch`, and decoded via
/// [`LogReader::decode`].
#[derive(Debug, Clone)]
pub struct BatchPlan {
    pub range: std::ops::Range<IntervalId>,
    /// `(file, page, useful=0)` requests, interval-major then page order.
    pub reqs: Vec<(FileId, u64, usize)>,
    /// Page count per interval of `range`, aligned with it.
    pages_per_interval: Vec<u64>,
}

impl BatchPlan {
    /// Pages the `k`-th interval of the plan contributes to a fetch.
    fn interval_page_count(&self, k: usize) -> Result<usize, DeviceError> {
        to_usize("log page count", self.pages_per_interval[k])
            .map_err(|e| DeviceError::Io(e.to_string()))
    }
}

/// Interval index → id. Interval counts are bounded by the (u32) vertex
/// count, so the conversion cannot saturate in practice.
fn interval_id(ii: usize) -> IntervalId {
    to_u32("interval id", ii).unwrap_or(IntervalId::MAX)
}

impl LogReader {
    /// Enumerate the page reads that draining every interval in `range`
    /// will need. Owner-thread half of the read path: the returned plan's
    /// request order is deterministic (interval-major, page order),
    /// independent of which worker later decodes the completion.
    pub fn plan_reads(
        &self,
        range: std::ops::Range<IntervalId>,
    ) -> Result<BatchPlan, DeviceError> {
        let mut reqs = Vec::new();
        let mut pages_per_interval = Vec::with_capacity(range.len());
        for i in range.clone() {
            let f = self.files[idx(i)];
            let n = self.ssd.num_pages(f)?;
            for p in 0..n {
                reqs.push((f, p, 0usize));
            }
            pages_per_interval.push(n);
        }
        Ok(BatchPlan { range, reqs, pages_per_interval })
    }

    /// Decode the pages fetched for `plan` (one lent [`Page`] per request, in
    /// plan order) into inbox order, the way the consuming program asked
    /// for: folded to one update per destination when it declared a
    /// `combine` ([`MultiLogConfig::combine`]), every record kept
    /// ([`Self::decode_sorted`]) when it did not. Either way a pure
    /// function of `plan` and `pages` — it touches neither the device nor
    /// any counter, so it may run on any thread without moving a
    /// deterministic number; [`Self::consume`] does the rest.
    pub fn decode(&self, plan: &BatchPlan, pages: &[Page]) -> Result<FusedBatch, DeviceError> {
        match self.combine {
            Some(f) => self.decode_folded(plan, pages, f),
            None => self.decode_sorted(plan, pages),
        }
    }

    /// Sort-reduce at decode (BigSparse): one pass over each interval's
    /// pages folding every record into its destination's accumulator, then
    /// one ascending sweep emitting an update per destination that received
    /// anything — the sorted, un-reduced inbox never exists. Pages are
    /// walked in plan order and records in page order, which is the
    /// per-destination order [`Self::decode_sorted`] produces, so each
    /// accumulator is the left fold `reduce(f)` over that destination's
    /// group would give, to the bit, for any `f`. Folded updates carry
    /// `src = VertexId::MAX`. There is no sort to time: `sort_ns` is zero.
    fn decode_folded(
        &self,
        plan: &BatchPlan,
        pages: &[Page],
        f: fn(u64, u64) -> u64,
    ) -> Result<FusedBatch, DeviceError> {
        assert_eq!(pages.len(), plan.reqs.len(), "fetched pages must match the plan");
        let t_load = Instant::now();
        let mut out = Vec::new();
        let mut acc: Vec<u64> = Vec::new();
        let (mut records, mut useful_bytes) = (0usize, 0u64);
        let mut cursor = 0usize;
        for (k, i) in plan.range.clone().enumerate() {
            let n = plan.interval_page_count(k)?;
            let span = self.intervals.range(i);
            let lo = span.start;
            // The decoder bounds every destination against `span`, so the
            // `dest - lo` indexing below cannot leave the scratch.
            let width = idx(span.end - lo);
            acc.clear();
            acc.resize(width, 0);
            let mut present = BitSet::new(width);
            for raw in &pages[cursor..cursor + n] {
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
                useful_bytes += to_u64(p.encoded_bytes());
            }
            out.reserve(present.count());
            out.extend(present.iter_ones().map(|slot| {
                let dest = lo + to_u32("vertex offset", slot).unwrap_or(VertexId::MAX);
                Update::new(dest, VertexId::MAX, acc[slot])
            }));
            cursor += n;
        }
        Ok(FusedBatch {
            range: plan.range.clone(),
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
    pub fn decode_sorted(
        &self,
        plan: &BatchPlan,
        pages: &[Page],
    ) -> Result<FusedBatch, DeviceError> {
        assert_eq!(pages.len(), plan.reqs.len(), "fetched pages must match the plan");
        let t_load = Instant::now();
        let parsed: Vec<LogPage<'_>> =
            pages.iter().map(|p| LogPage::parse(p)).collect::<Result<_, _>>()?;
        let total: usize = parsed.iter().map(LogPage::len).sum();
        let mut out = vec![Update::new(0, 0, 0); total];
        let mut counts: Vec<usize> = Vec::new();
        let mut useful_bytes = 0u64;
        let mut sort_ns = 0u64;
        let mut cursor = 0usize;
        let mut base = 0usize;
        for (k, i) in plan.range.clone().enumerate() {
            let n = plan.interval_page_count(k)?;
            let ival_pages = &parsed[cursor..cursor + n];
            let span = self.intervals.range(i);
            let lo = span.start;
            // Histogram + prefix: the "sort" half of the fused pass. The
            // decoder bounds every destination against `span`, so the
            // `dest - lo` indexing below cannot leave `counts`.
            let t_sort = Instant::now();
            counts.clear();
            counts.resize(idx(span.end - lo) + 1, 0);
            let mut recs = 0usize;
            for p in ival_pages {
                p.for_each(&span, |u| counts[idx(u.dest - lo) + 1] += 1)?;
                recs += p.len();
                useful_bytes += to_u64(p.encoded_bytes());
            }
            for w in 1..counts.len() {
                counts[w] += counts[w - 1];
            }
            sort_ns += elapsed_ns(t_sort);
            // Decode + place: each record lands at its final sorted slot.
            let slice = &mut out[base..base + recs];
            for p in ival_pages {
                p.for_each(&span, |u| {
                    let slot = &mut counts[idx(u.dest - lo)];
                    slice[*slot] = u;
                    *slot += 1;
                })?;
            }
            base += recs;
            cursor += n;
        }
        let load_ns = elapsed_ns(t_load).saturating_sub(sort_ns);
        Ok(FusedBatch {
            range: plan.range.clone(),
            records: to_u64(out.len()),
            updates: out,
            load_ns,
            sort_ns,
            useful_bytes,
        })
    }

    /// Consume the logs `batch` was decoded from: the take-once audit per
    /// interval, the truncate of every drained file (and with it cache
    /// invalidation, pin drops and FTL trims), the useful-byte declaration
    /// and the `updates_read` count. Owner thread, plan order — everything
    /// here moves device or cache state, so running it where the batch's
    /// ticket is retired is what keeps every counter identical at any
    /// worker-thread count (DESIGN.md §12).
    #[track_caller]
    pub fn consume(&self, plan: &BatchPlan, batch: &FusedBatch) -> Result<(), DeviceError> {
        for (k, i) in plan.range.clone().enumerate() {
            self.take_audit[idx(i)].audit_write();
            if plan.pages_per_interval[k] > 0 {
                self.ssd.truncate(self.files[idx(i)])?;
            }
        }
        self.ssd.declare_useful(batch.useful_bytes);
        self.updates_read.add(batch.records);
        Ok(())
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
        let mut files: Vec<[FileId; 2]> = Vec::with_capacity(n);
        for i in 0..n {
            files.push([
                ssd.open_or_create(&format!("{tag}.mlog.{i}.a"))?,
                ssd.open_or_create(&format!("{tag}.mlog.{i}.b"))?,
            ]);
        }
        // A fresh unit starts with empty logs even if a previous run under
        // the same tag left residue (e.g. a non-converged run's last
        // superstep).
        for f in &files {
            ssd.truncate(f[0])?;
            ssd.truncate(f[1])?;
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
            files,
            write_side: 0,
            tops: vec![Vec::new(); bucket_base[n]],
            bucket_base,
            slot_lut,
            slot_dest_base,
            shape,
            page_cap,
            full_bytes: shape.full_page_bytes(page_size),
            top_records: vec![0; n],
            pressure_records: 0,
            evict_every: cap_pages.saturating_sub(n).max(1) * page_cap,
            sealed: Vec::new(),
            counts: vec![0; n],
            dest_seen: BitSet::new(num_vertices),
            cap_pages,
            stats: MultiLogStats::default(),
            updates_read: Arc::new(RelaxedCounter::new(0)),
            bytes_per_interval: vec![0; n],
            combine: cfg.combine,
        })
    }

    pub fn stats(&self) -> MultiLogStats {
        MultiLogStats {
            updates_read: self.updates_read.get(),
            ..self.stats
        }
    }

    /// Cumulative encoded bytes appended to each interval's log (indexed
    /// by interval id; same counting as `stats().bytes_appended`).
    pub fn bytes_appended_per_interval(&self) -> &[u64] {
        &self.bytes_per_interval
    }

    /// A read-side handle for this superstep (see [`LogReader`]).
    pub fn reader(&self) -> LogReader {
        let side = 1 - self.write_side;
        LogReader {
            ssd: Arc::clone(&self.ssd),
            files: self.files.iter().map(|f| f[side]).collect(),
            intervals: self.intervals.clone(),
            combine: self.combine,
            updates_read: Arc::clone(&self.updates_read),
            take_audit: (0..self.files.len())
                .map(|_| Tracked::new("LogReader::take_log interval", ()))
                .collect(),
        }
    }

    pub fn intervals(&self) -> &VertexIntervals {
        &self.intervals
    }

    /// Encode `run` (all bound for interval `ii`) onto the top pages of
    /// their slots — the one place a logged record is serialized — sealing
    /// every page a record fills. The loop works on borrowed parts of
    /// `self` so nothing it reads can alias the page bytes it writes.
    fn append_run(&mut self, ii: usize, run: &[Update]) {
        let (shape, page_cap, full_bytes) = (self.shape, self.page_cap, self.full_bytes);
        let i = interval_id(ii);
        let (lut, bases) = (&self.slot_lut[..], &self.slot_dest_base[..]);
        let (tops, seen, sealed) = (&mut self.tops[..], &mut self.dest_seen, &mut self.sealed);
        let sealed_before = sealed.len();
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
                sealed.push((i, full));
            }
        }
        self.top_records[ii] += run.len();
        self.top_records[ii] -= (sealed.len() - sealed_before) * page_cap;
    }

    /// The paper's `SendUpdate(v_dest, m)` tail half: append to the top
    /// page of the destination's bucket within its interval log. Fallible:
    /// memory pressure may
    /// force an eviction flush to the device.
    pub fn send(&mut self, u: Update) -> Result<(), DeviceError> {
        let i = idx(self.intervals.interval_of(u.dest));
        self.counts[i] += 1;
        self.stats.updates_logged += 1;
        self.append_run(i, std::slice::from_ref(&u));
        self.note_appended(1)
    }

    /// Advance the pressure counter by `k` freshly appended records and
    /// flush when a budget's worth accumulated. Subtracting the period
    /// (rather than zeroing) keeps the flush points exact multiples of the
    /// period, so per-record and per-slice appenders agree on the count.
    fn note_appended(&mut self, k: usize) -> Result<(), DeviceError> {
        self.pressure_records += k;
        while self.pressure_records >= self.evict_every {
            self.pressure_records -= self.evict_every;
            self.evict()?;
        }
        Ok(())
    }

    /// Buffered-send tail for the engine's parallel update scatter: append
    /// a slice of updates already routed to interval `i`, preserving slice
    /// order. Equivalent to calling [`Self::send`] on each update — same
    /// page boundaries, same eviction trigger points — minus the per-update
    /// interval lookup and pressure check: the slice is appended in runs
    /// that each end exactly where the next eviction is due. The per-record
    /// bucketing is the sort — full buckets seal as destination-clustered
    /// pages, and the read side only needs a per-interval counting pass.
    pub fn send_batch(&mut self, i: IntervalId, ups: &[Update]) -> Result<(), DeviceError> {
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
            self.note_appended(now.len())?;
            rest = later;
        }
        Ok(())
    }

    /// Whether a message bound for `v` has been logged this superstep
    /// (known next-superstep activity, §V-C).
    pub fn dest_seen(&self, v: VertexId) -> bool {
        self.dest_seen.get(idx(v))
    }

    /// Pages currently buffered in host memory: sealed full pages plus each
    /// interval's top records rounded up to page units. Sealed pages hold
    /// exactly one page of records, so the sum per interval telescopes to
    /// `ceil(buffered records / page capacity)` — the same value whatever
    /// bucket layout the records sit in.
    pub fn buffered_pages(&self) -> usize {
        self.sealed.len()
            + self.top_records.iter().map(|r| r.div_ceil(self.page_cap)).sum::<usize>()
    }

    /// Encoded bytes currently buffered in host memory (sealed pages plus
    /// every top buffer) — what `MultiLogConfig::buffer_bytes` caps: after
    /// any append it is at most the cap (with its floors) plus one
    /// eviction period's worth of records.
    pub fn buffered_bytes(&self) -> usize {
        self.sealed.iter().map(|(_, p)| p.len()).sum::<usize>()
            + self.tops.iter().map(Vec::len).sum::<usize>()
    }

    /// Messages logged (pending) per interval this superstep.
    pub fn pending_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The current *write-side* log extent of every interval: this
    /// superstep's append targets, consumed (and truncated) during the
    /// next superstep. The engine arms the device's append retention on
    /// exactly these files (DESIGN.md §18), so a budget-bounded tail of
    /// freshly flushed log pages stays in the pinned tier until it is
    /// read back.
    pub fn write_side_files(&self) -> Vec<FileId> {
        self.files.iter().map(|f| f[self.write_side]).collect()
    }

    /// Every log extent of every interval, both sides — the drive-entry
    /// cleanup set for pinned-tier bookkeeping.
    pub fn all_log_files(&self) -> Vec<FileId> {
        self.files.iter().flat_map(|f| [f[0], f[1]]).collect()
    }

    /// Seal and decode interval `ii`'s top buffers in bucket order onto
    /// `out`, leaving them empty (capacity kept).
    fn drain_tops(&mut self, ii: usize, out: &mut Vec<Update>) -> Result<(), DeviceError> {
        let span = self.intervals.range(interval_id(ii));
        for top in &mut self.tops[self.bucket_base[ii]..self.bucket_base[ii + 1]] {
            seal_page(top);
            decode_log_page(top, &span, out)?;
            top.clear();
        }
        self.top_records[ii] = 0;
        Ok(())
    }

    /// Move every buffered top record into `sealed`, interval by interval.
    /// An interval with a single partial top seals it as is. Otherwise its
    /// partial buckets are packed — in bucket order, so records stay
    /// destination-clustered — into full pages
    /// before a final partial one: offsets are re-based on each packed
    /// page's own smallest destination, and a page whose destinations span
    /// more than the narrow form addresses falls back to absolute ones.
    fn seal_all_tops(&mut self) -> Result<(), DeviceError> {
        let page_size = self.ssd.page_size();
        for ii in 0..self.files.len() {
            if self.top_records[ii] == 0 {
                continue;
            }
            let i = interval_id(ii);
            let slots = self.bucket_base[ii]..self.bucket_base[ii + 1];
            let mut live = slots.filter(|&s| !self.tops[s].is_empty());
            if let (Some(s), None) = (live.next(), live.next()) {
                let mut page = std::mem::take(&mut self.tops[s]);
                seal_page(&mut page);
                self.sealed.push((i, page));
                self.top_records[ii] = 0;
                continue;
            }
            let mut pending = Vec::with_capacity(self.top_records[ii]);
            self.drain_tops(ii, &mut pending)?;
            for page in pack_pages(&pending, page_size, self.shape.has_src, true) {
                self.sealed.push((i, page));
            }
        }
        Ok(())
    }

    fn evict(&mut self) -> Result<(), DeviceError> {
        self.stats.evictions += 1;
        self.flush_sealed()?;
        if self.buffered_pages() > self.cap_pages {
            // Still over: flush every non-empty top page too.
            self.seal_all_tops()?;
            self.flush_sealed()?;
        }
        Ok(())
    }

    /// Hand every sealed page to the device in one scattered batch. The
    /// pages were encoded when their records were appended; nothing is
    /// touched per record here.
    fn flush_sealed(&mut self) -> Result<(), DeviceError> {
        if self.sealed.is_empty() {
            return Ok(());
        }
        let side = self.write_side;
        let writes: Vec<(FileId, &[u8])> = self
            .sealed
            .iter()
            .map(|(i, page)| (self.files[idx(*i)][side], page.as_slice()))
            .collect();
        self.ssd.append_scattered(&writes)?;
        self.stats.pages_flushed += to_u64(writes.len());
        for (i, page) in self.sealed.drain(..) {
            let appended = to_u64(page.len());
            self.stats.bytes_appended += appended;
            self.bytes_per_interval[idx(i)] += appended;
        }
        Ok(())
    }

    /// End-of-superstep flush: every buffered page goes to its log file.
    /// Returns the per-interval pending message counts (the fusing input
    /// for the next superstep) and resets counters and the seen bit vector.
    pub fn finish_superstep(&mut self) -> Result<Vec<u64>, DeviceError> {
        self.seal_all_tops()?;
        self.flush_sealed()?;
        self.pressure_records = 0;
        self.dest_seen.clear();
        // Flip roles: what was written becomes readable next superstep.
        self.write_side = 1 - self.write_side;
        Ok(std::mem::replace(&mut self.counts, vec![0; self.files.len()]))
    }

    /// Raw read-side log pages per interval, *without* consuming them —
    /// the checkpoint path. Pages are returned exactly as stored
    /// (log-encoded), so restoring them preserves page boundaries and,
    /// with them, record order and post-resume I/O shape. The whole page
    /// is checkpoint payload, so each page counts as fully useful.
    pub fn snapshot_pending(&self) -> Result<Vec<Vec<Page>>, DeviceError> {
        let side = 1 - self.write_side;
        let page_size = self.ssd.page_size();
        let mut out = Vec::with_capacity(self.files.len());
        for f in &self.files {
            out.push(self.ssd.read_all(f[side], |_| page_size)?);
        }
        Ok(out)
    }

    /// Inverse of [`Self::snapshot_pending`]: place checkpointed log pages
    /// back on the read side and return the per-interval pending record
    /// counts (what [`Self::finish_superstep`] returned when the snapshot
    /// was taken). Every page goes through the decoder first, so a
    /// snapshot whose pages are not this format's (or carry destinations
    /// outside their interval), or that holds logs for a different number
    /// of intervals, is refused before anything is written.
    pub fn restore_pending(&mut self, snapshot: &[Vec<Page>]) -> Result<Vec<u64>, DeviceError> {
        if snapshot.len() != self.files.len() {
            return Err(DeviceError::Corrupt {
                what: "checkpoint",
                detail: format!(
                    "snapshot holds logs of {} intervals, the multi-log has {}",
                    snapshot.len(),
                    self.files.len()
                ),
            });
        }
        let side = 1 - self.write_side;
        let mut counts = vec![0u64; self.files.len()];
        let mut decoded = Vec::new();
        for ((pages, count), i) in snapshot.iter().zip(&mut counts).zip(self.intervals.iter_ids()) {
            let span = self.intervals.range(i);
            decoded.clear();
            for p in pages {
                decode_log_page(p, &span, &mut decoded)?;
            }
            *count = to_u64(decoded.len());
        }
        for (pages, f) in snapshot.iter().zip(&self.files) {
            self.ssd.truncate(f[side])?;
            if !pages.is_empty() {
                let refs: Vec<&[u8]> = pages.iter().map(|p| &p[..]).collect();
                self.ssd.append_pages(f[side], &refs)?;
            }
        }
        Ok(counts)
    }

    /// Asynchronous-model drain (paper §V-F: "the latest updates from the
    /// source vertices will be delivered to the target vertices, either
    /// from the current superstep or the previous one"): consume every
    /// update logged for interval `i` *during the current superstep* —
    /// flushed write-side pages, sealed pages, and the top pages — in log
    /// order. Pending counters are rolled back so the consumed updates are
    /// not double-scheduled for the next superstep.
    pub fn take_log_current(&mut self, i: IntervalId) -> Result<Vec<Update>, DeviceError> {
        let span = self.intervals.range(i);
        let file = self.files[idx(i)][self.write_side];
        let mut out = Vec::new();
        if self.ssd.num_pages(file)? > 0 {
            let mut useful = 0u64;
            for p in &self.ssd.read_all(file, |_| 0)? {
                useful += to_u64(decode_log_page(p, &span, &mut out)?);
            }
            self.ssd.declare_useful(useful);
            self.ssd.truncate(file)?;
        }
        let (mine, others): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.sealed).into_iter().partition(|(j, _)| *j == i);
        self.sealed = others;
        for (_, page) in &mine {
            decode_log_page(page, &span, &mut out)?;
        }
        self.drain_tops(idx(i), &mut out)?;
        self.counts[idx(i)] -= to_u64(out.len());
        self.updates_read.add(to_u64(out.len()));
        Ok(out)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
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

    /// Drain `range` of the read side the way the engine does: plan, read,
    /// decode, consume.
    pub(crate) fn drain_range(
        reader: &LogReader,
        range: std::ops::Range<IntervalId>,
    ) -> Result<FusedBatch, DeviceError> {
        let plan = reader.plan_reads(range)?;
        let pages = reader.ssd.read_batch(&plan.reqs)?;
        let batch = reader.decode(&plan, &pages)?;
        reader.consume(&plan, &batch)?;
        Ok(batch)
    }

    /// Consume interval `i`'s read side.
    fn drain(ml: &MultiLog, i: IntervalId) -> Result<Vec<Update>, DeviceError> {
        Ok(drain_range(&ml.reader(), i..i + 1)?.updates)
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
        assert_eq!(drain(&ml, 2).unwrap(), vec![Update::new(60, 1, 7)]);
        assert_eq!(drain(&ml, 0).unwrap(), vec![Update::new(0, 2, 8)]);
        assert_eq!(drain(&ml, 3).unwrap(), vec![Update::new(99, 3, 9)]);
        assert!(drain(&ml, 1).unwrap().is_empty());
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
        assert_eq!(drain(&ml, 0).unwrap(), sorted(sent));
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
            assert_eq!(drain(&tight, i).unwrap(), want, "interval {i}");
            assert_eq!(drain(&roomy, i).unwrap(), want, "interval {i}");
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
        assert_eq!(ml.pending_counts()[0], 2);
        let counts = ml.finish_superstep().unwrap();
        assert_eq!(counts[0], 2);
        assert_eq!(ml.pending_counts()[0], 0);
    }

    #[test]
    fn consume_truncates_and_counts_into_owner_stats() {
        let mut ml = setup(1 << 20);
        ml.send(Update::new(60, 1, 7)).unwrap();
        ml.finish_superstep().unwrap();
        assert_eq!(drain(&ml, 2).unwrap().len(), 1);
        assert!(drain(&ml, 2).unwrap().is_empty(), "second drain finds nothing");
        assert!(drain(&ml, 0).unwrap().is_empty());
        assert_eq!(ml.stats().updates_read, 1, "reads flow into owner stats");
    }

    /// Decoding is a pure function of the page bytes, folding or not: until
    /// `consume` runs, the device, its counters and the log files are
    /// untouched.
    #[test]
    fn decode_sorted_alone_moves_no_device_state() {
        for fold in [false, true] {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let mut ml = setup_on(Arc::clone(&ssd), 1 << 20, true);
            for k in 0..200u32 {
                ml.send(Update::new(k % 100, k, u64::from(k))).unwrap();
            }
            ml.finish_superstep().unwrap();
            let reader = ml.reader();
            let plan = reader.plan_reads(0..4).unwrap();
            let pages = ssd.read_batch(&plan.reqs).unwrap();
            let before = ssd.stats().snapshot();
            let batch = if fold {
                reader.decode_folded(&plan, &pages, u64::wrapping_add).unwrap()
            } else {
                reader.decode_sorted(&plan, &pages).unwrap()
            };
            // Two records per destination: k and k + 100.
            assert_eq!(batch.records, 200);
            assert_eq!(batch.updates.len(), if fold { 100 } else { 200 });
            assert_eq!(ssd.stats().snapshot(), before, "decode charged the device");
            assert_eq!(ml.stats().updates_read, 0);
            let file = ssd.lookup("t.mlog.0.a").unwrap();
            assert!(ssd.num_pages(file).unwrap() > 0, "decode truncated the log");
            reader.consume(&plan, &batch).unwrap();
            assert_eq!(ssd.num_pages(file).unwrap(), 0);
            assert_eq!(ml.stats().updates_read, 200, "fold={fold}: records, not updates");
            assert_eq!(
                ssd.stats().snapshot().useful_bytes_read - before.useful_bytes_read,
                batch.useful_bytes
            );
        }
    }

    #[test]
    fn take_log_current_drains_this_superstep_only() {
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
        // per-destination order kept, without touching the read side.
        let got = ml.take_log_current(0).unwrap();
        assert_eq!(sorted(got), sorted(current));
        assert_eq!(ml.pending_counts()[0], 0, "counter rolled back");
        assert_eq!(drain(&ml, 0).unwrap(), vec![Update::new(1, 0, 11)], "read side intact");
        // Nothing left on either side for interval 0.
        assert!(ml.take_log_current(0).unwrap().is_empty());
        ml.finish_superstep().unwrap();
        assert!(drain(&ml, 0).unwrap().is_empty());
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
        assert_eq!(a.pending_counts(), b.pending_counts());
        assert_eq!(a.buffered_pages(), b.buffered_pages());
        assert!(b.dest_seen(7));
        a.finish_superstep().unwrap();
        b.finish_superstep().unwrap();
        assert_eq!(drain(&a, 0).unwrap(), drain(&b, 0).unwrap());
    }

    #[test]
    fn flush_batches_across_channels() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(100, 4);
        let mut ml = MultiLog::new(
            Arc::clone(&ssd),
            iv,
            MultiLogConfig { buffer_bytes: 1 << 20, ..MultiLogConfig::default() },
            "t",
        )
        .unwrap();
        for k in 0..100u32 {
            ml.send(Update::new(k, 0, 0)).unwrap();
        }
        ssd.stats().reset();
        ml.finish_superstep().unwrap();
        let s = ssd.stats().snapshot();
        assert!(s.pages_written >= 4, "one page per touched interval");
        assert_eq!(s.write_batches, 1, "single scattered dispatch");
    }

    #[test]
    fn bytes_appended_accounting_per_interval() {
        // 100 vertices over 4 intervals of 25 — interval i is [25i, 25i+25).
        let mut ml = setup(1 << 20);
        assert_eq!(ml.stats().bytes_appended, 0);
        assert_eq!(ml.bytes_appended_per_interval(), &[0, 0, 0, 0]);
        // 3 updates into interval 0, 1 into interval 2.
        for dest in [0u32, 5, 24, 70] {
            ml.send(Update::new(dest, 1, 0)).unwrap();
        }
        ml.finish_superstep().unwrap();
        let per = ml.bytes_appended_per_interval().to_vec();
        // Was 4 + 3 * 16 and 4 + 16 with the fixed-width layout.
        let rec = PageShape { wide_dest: false, has_src: true }.record_bytes();
        assert_eq!(per[0], to_u64(PAGE_HEADER_BYTES + 3 * rec), "header + 3 records");
        assert_eq!(per[1], 0);
        assert_eq!(per[2], to_u64(PAGE_HEADER_BYTES + rec));
        assert_eq!(per[3], 0);
        assert_eq!(ml.stats().bytes_appended, per.iter().sum::<u64>());
        // Accounting is cumulative across supersteps and agrees between
        // the per-interval view and the total.
        ml.send(Update::new(99, 9, 9)).unwrap();
        ml.finish_superstep().unwrap();
        assert_eq!(
            ml.stats().bytes_appended,
            ml.bytes_appended_per_interval().iter().sum::<u64>()
        );
        assert_eq!(ml.bytes_appended_per_interval()[3], to_u64(PAGE_HEADER_BYTES + rec));
    }

    #[test]
    fn dropped_src_drains_as_the_sentinel_and_packs_more_per_page() {
        let ssds: Vec<Arc<Ssd>> =
            (0..2).map(|_| Arc::new(Ssd::new(SsdConfig::test_small()))).collect();
        let mut with = setup_on(Arc::clone(&ssds[0]), 1 << 20, true);
        let mut without = setup_on(Arc::clone(&ssds[1]), 1 << 20, false);
        let sent: Vec<Update> =
            (0..2000u32).map(|k| Update::new((k * 13) % 100, k, u64::from(k))).collect();
        for &u in &sent {
            with.send(u).unwrap();
            without.send(u).unwrap();
        }
        assert_eq!(with.finish_superstep().unwrap(), without.finish_superstep().unwrap());
        for i in 0..4u32 {
            let want: Vec<Update> = drain(&with, i)
                .unwrap()
                .into_iter()
                .map(|u| Update { src: VertexId::MAX, ..u })
                .collect();
            assert_eq!(drain(&without, i).unwrap(), want, "interval {i}");
        }
        let pages = |s: &Ssd| s.stats().snapshot().pages_written;
        // 2000 records at 17 vs 24 per page, one partial page per interval.
        assert_eq!((pages(&ssds[0]), pages(&ssds[1])), (120, 84));
        assert!(without.stats().bytes_appended < with.stats().bytes_appended);
    }

    /// `buffer_bytes` caps encoded bytes: whatever the record shape, what
    /// sits in host memory after any append is at most the cap (with its
    /// interval + eviction-batch floors) plus one eviction period.
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
                ml.send(Update::new((k * 37) % 100, k, u64::from(k))).unwrap();
                let now = ml.stats().evictions;
                if now > evictions {
                    evictions = now;
                    assert!(ml.buffered_bytes() <= cap_bytes, "over cap after evicting");
                }
                peak = peak.max(ml.buffered_bytes());
            }
            assert!(evictions > 3, "pressure must evict repeatedly");
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
        let fresh = || {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let mut ml = setup_on(Arc::clone(&ssd), 1 << 20, true);
            fill(&mut ml);
            ml.finish_superstep().unwrap();
            corrupt(&ssd, "t.mlog.1.a");
            (ssd, ml)
        };
        let (_, ml) = fresh();
        assert_corrupt(drain(&ml, 1), "decode");
        let (ssd, ml) = fresh();
        let reader = ml.reader();
        let plan = reader.plan_reads(0..4).unwrap();
        let pages = ssd.read_batch(&plan.reqs).unwrap();
        assert_corrupt(reader.decode_sorted(&plan, &pages), "decode_sorted");
        assert_corrupt(reader.decode_folded(&plan, &pages, u64::wrapping_add), "decode_folded");
        // The engine's retire path when nobody was handed the batch: the
        // thread that submitted the read fetches the ticket and decodes.
        let ioq = mlvc_ssd::IoQueue::new(Arc::clone(&ssd), 4);
        let pages = ioq.fetch(ioq.submit_read(plan.reqs.clone())).unwrap();
        assert_corrupt(reader.decode(&plan, &pages), "submit, fetch and decode in place");
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
        assert_corrupt(ml.take_log_current(1), "take_log_current");
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
