//! Submission/completion queues over the simulated device (io_uring shape),
//! and the one scheduler that puts a page's service time on a flash channel.
//!
//! DESIGN.md §5 lists the clock's rules; this file holds them. Every page
//! any call charges time for is priced by `QueueState::schedule`: a
//! [`Ticket`]'s reads and a written-behind flush on the queue's channel
//! clocks, and a synchronous [`Ssd`] call as one dispatch on idle channels
//! ([`dispatch_ns`]). The queue moves the data at *submit* — counts
//! charged, no service time — so every device read and write it makes is
//! an owner-thread, plan-order call: the fault schedule's counters, the
//! cache's request sequence and every charge see the same calls in the
//! same order at any worker-thread count. [`IoQueue::fetch`] only hands a
//! ticket's pages over (lent [`Page`] handles). The engine fetches right
//! after each submit and moves the pages — or the read's error — to
//! whoever decodes the batch; whoever receives them must not touch the
//! device (a truncate from a worker would invalidate cache frames while the
//! owner is inserting), so the engine decodes on the workers and consumes
//! (truncates) on the owner, where it retires the ticket (DESIGN.md §12).
//!
//! Determinism contract (DESIGN.md §12): every call is the engine owner
//! thread's, in plan order — the completion-drain rule — so every virtual
//! timestamp and every device read is a pure function of the plan,
//! independent of worker-thread count and wall-clock scheduling. The type
//! holds that rule: the queue keeps its state in a `RefCell`, so it is not
//! `Sync` and a worker closure that captured `&IoQueue` would not compile.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::checked::to_u64;
use crate::cost::{channel_of, PageAddr, READ_NS, SEQ_DISCOUNT, WRITE_NS};
use crate::device::{FileId, Ssd};
use crate::fault::DeviceError;
use crate::page::Page;

/// Per-channel depth of the engine's superstep queue, the one place in the
/// tree that keeps I/O in flight: reads (fused log batches and the load
/// stage's adjacency reads) and the multi-log's eviction writes; every
/// other reader calls [`Ssd::read_batch`], every other writer writes
/// synchronously. Depth moves only *when* submission returns, never a
/// result or a page count (DESIGN.md §5), so nothing sets it but the
/// simulator's own tests.
pub const QUEUE_DEPTH: usize = 16;

/// Handle of one submitted read batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Per-superstep queue observability, drained by
/// [`IoQueue::take_wait_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWaitStats {
    /// Virtual nanoseconds the owner spent blocked on reads: read
    /// submission stalls plus residual completion waits. A write's stall
    /// and drain are write time, not counted here.
    pub io_wait_ns: u64,
    /// High-water mark of tickets submitted but not yet completed.
    pub max_inflight: u64,
    /// Virtual nanoseconds of compute reported through
    /// [`IoQueue::advance`]: the engine holds it equal to the superstep's
    /// simulated compute.
    pub advanced_ns: u64,
    /// Virtual nanoseconds the owner spent blocked on writes: write
    /// submission stalls plus [`IoQueue::drain_writes`] waits, all charged
    /// to the device's `write_time_ns`.
    pub write_wait_ns: u64,
}

struct TicketState {
    /// Virtual completion time of the last page of this ticket.
    completion: f64,
    /// What the read at submit returned (`None` once fetched).
    pages: Option<Result<Vec<Page>, DeviceError>>,
}

struct QueueState {
    /// The owner's virtual clock.
    now: f64,
    /// When each channel finishes its last scheduled request.
    chan_free: Vec<f64>,
    /// Completion times of requests still queued per channel, oldest first
    /// (lazily pruned against the owner clock) — the depth gate.
    chan_q: Vec<VecDeque<f64>>,
    tickets: HashMap<u64, TicketState>,
    next_id: u64,
    inflight: u64,
    /// Virtual completion time of the last write submitted.
    writes_done: f64,
    wait: QueueWaitStats,
}

/// Price of page `a` on its channel, given the page that channel served
/// before it in the same dispatch: a page continuing a sequential run (same
/// file, at most `channels` pages past the previous one) costs
/// `per_page_ns * SEQ_DISCOUNT`, a run head full price. Striding by
/// `channels` pages within one file keeps hitting the same channel with
/// (nearly) consecutive physical pages — that is what a sequential stream
/// striped across channels looks like per channel — hence the
/// `<= channels` run test.
fn page_cost_ns(prev: Option<PageAddr>, a: PageAddr, channels: usize, per_page_ns: u64) -> f64 {
    let seq = matches!(
        prev,
        Some(p) if p.file == a.file && a.page > p.page && a.page - p.page <= to_u64(channels)
    );
    if seq {
        per_page_ns as f64 * SEQ_DISCOUNT
    } else {
        per_page_ns as f64
    }
}

/// The service time of the pages one synchronous call touched, in any
/// order: one dispatch on idle channels with no depth bound.
pub(crate) fn dispatch_ns(channels: usize, addrs: &mut [PageAddr], per_page_ns: u64) -> u64 {
    addrs.sort_unstable();
    ns(QueueState::idle(channels).schedule(addrs, 0.0, usize::MAX, per_page_ns).1)
}

impl QueueState {
    /// Nothing scheduled, the owner clock at 0.
    fn idle(channels: usize) -> Self {
        QueueState {
            now: 0.0,
            chan_free: vec![0.0; channels],
            chan_q: vec![VecDeque::new(); channels],
            tickets: HashMap::new(),
            next_id: 0,
            inflight: 0,
            writes_done: 0.0,
            wait: QueueWaitStats::default(),
        }
    }

    /// Schedule `addrs` — sorted; each dispatch re-pays its run heads — on
    /// their channels behind whatever is queued there, none starting
    /// before `after`, at `per_page_ns` a page. A channel already holding
    /// `depth` requests stalls the owner until its oldest one completes.
    /// Returns the stall, already on the owner clock, and the batch's
    /// completion.
    fn schedule(
        &mut self,
        addrs: &[PageAddr],
        after: f64,
        depth: usize,
        per_page_ns: u64,
    ) -> (u64, f64) {
        let channels = self.chan_free.len();
        let mut cursor = self.now;
        let mut chan_prev: Vec<Option<PageAddr>> = vec![None; channels];
        let mut completion = cursor.max(after);
        for &a in addrs {
            let ch = channel_of(a, channels);
            // Depth gate: drop retired requests, then wait for the oldest
            // queued one whenever the channel is full.
            loop {
                while self.chan_q[ch].front().is_some_and(|&fin| fin <= cursor) {
                    self.chan_q[ch].pop_front();
                }
                if self.chan_q[ch].len() < depth {
                    break;
                }
                if let Some(fin) = self.chan_q[ch].pop_front() {
                    cursor = cursor.max(fin);
                }
            }
            let start = self.chan_free[ch].max(cursor).max(after);
            let fin = start + page_cost_ns(chan_prev[ch], a, channels, per_page_ns);
            self.chan_free[ch] = fin;
            self.chan_q[ch].push_back(fin);
            chan_prev[ch] = Some(a);
            completion = completion.max(fin);
        }
        let stall = ns(cursor - self.now);
        if stall > 0 {
            self.now = cursor;
        }
        (stall, completion)
    }
}

/// Whole virtual nanoseconds of a clock difference, 0 when negative.
fn ns(t: f64) -> u64 {
    // mlvc-lint: allow(no-truncating-cast) -- f64 has no TryFrom; virtual nanoseconds stay far below 2^53
    t.max(0.0).round() as u64
}

/// A submission/completion queue over one [`Ssd`] view. See the module docs
/// for the model; an instance is used on the thread that owns it — it is
/// not `Sync`:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<mlvc_ssd::IoQueue>();
/// ```
pub struct IoQueue {
    ssd: Arc<Ssd>,
    depth: usize,
    state: RefCell<QueueState>,
}

impl IoQueue {
    /// A queue of per-channel depth `depth` (clamped to at least 1) over
    /// `ssd`'s channels and cost model.
    pub fn new(ssd: Arc<Ssd>, depth: usize) -> Self {
        let state = RefCell::new(QueueState::idle(ssd.config().channels));
        IoQueue { ssd, depth: depth.max(1), state }
    }

    /// [`Self::submit_read_after`] linked behind nothing: the channels are
    /// the batch's only constraint.
    pub fn submit_read(&self, reqs: Vec<(FileId, u64, usize)>) -> Ticket {
        self.submit_read_after(reqs, None)
    }

    /// Read a batch (counts charged, no service time), schedule the pages
    /// the device read onto the channel clocks — a cache hit takes no
    /// channel time — and return its ticket; a failed read is returned by
    /// [`Self::fetch`].
    ///
    /// A *linked* batch names the ticket `after` whose pages its request
    /// list was computed from: none of its pages starts service before that
    /// ticket completes. Linking behind a ticket already retired (or one
    /// that completes before the owner clock) changes nothing.
    ///
    /// Plan order only (see the module docs). Any submission stall is
    /// charged to the device's `read_time_ns` here.
    pub fn submit_read_after(
        &self,
        reqs: Vec<(FileId, u64, usize)>,
        after: Option<Ticket>,
    ) -> Ticket {
        let mut read = Vec::new();
        let pages = self.ssd.read(&reqs, self.ssd.cache().as_deref(), &mut read);
        read.sort_unstable();

        let mut st = self.state.borrow_mut();
        let linked = after.and_then(|t| st.tickets.get(&t.0)).map_or(0.0, |t| t.completion);
        let (stall, completion) = st.schedule(&read, linked, self.depth, READ_NS);
        st.wait.io_wait_ns += stall;
        st.inflight += 1;
        st.wait.max_inflight = st.wait.max_inflight.max(st.inflight);
        let id = st.next_id;
        st.next_id += 1;
        st.tickets.insert(id, TicketState { completion, pages: Some(pages) });
        drop(st);
        self.ssd.charge_wait(stall, false);
        Ticket(id)
    }

    /// Append `writes` as [`Ssd::append_scattered`] does — pages, bytes,
    /// one `write_batches`, FTL writes and cache invalidation charged, but
    /// no service time — schedule every page that reached the media onto
    /// its channel at [`WRITE_NS`] behind whatever is queued there, and
    /// return at once with the page indices: the write goes on behind the
    /// owner. A submission stall is charged to the device's
    /// `write_time_ns`; [`Self::drain_writes`] waits for the rest. Plan
    /// order only.
    pub fn submit_append(&self, writes: &[(FileId, &[u8])]) -> Result<Vec<u64>, DeviceError> {
        let mut placed = Vec::with_capacity(writes.len());
        let pages = self.ssd.append(writes, &mut placed);
        placed.sort_unstable();
        let mut st = self.state.borrow_mut();
        let (stall, completion) = st.schedule(&placed, 0.0, self.depth, WRITE_NS);
        st.writes_done = st.writes_done.max(completion);
        st.wait.write_wait_ns += stall;
        drop(st);
        self.ssd.charge_wait(stall, true);
        pages
    }

    /// Wait for the last write submitted to complete, charging the
    /// remaining `max(0, completion − now)` to the device's
    /// `write_time_ns`, and return it. Plan order only.
    pub fn drain_writes(&self) -> u64 {
        let mut st = self.state.borrow_mut();
        let wait = ns(st.writes_done - st.now);
        st.now = st.now.max(st.writes_done);
        st.wait.write_wait_ns += wait;
        drop(st);
        self.ssd.charge_wait(wait, true);
        wait
    }

    /// Hand over the pages a submitted ticket read (or its read error).
    /// Touches neither the device nor a clock; fetching a ticket twice (or
    /// one this queue never issued) is an error.
    pub fn fetch(&self, ticket: Ticket) -> Result<Vec<Page>, DeviceError> {
        let pages = self.state.borrow_mut().tickets.get_mut(&ticket.0).and_then(|t| t.pages.take());
        pages.unwrap_or_else(|| {
            Err(DeviceError::Io(format!(
                "ticket {} was never submitted or already fetched",
                ticket.0
            )))
        })
    }

    /// The virtual time, in whole nanoseconds, at which a ticket not yet
    /// retired completes; `None` for one retired or never issued. Touches
    /// no clock.
    pub fn completion_ns(&self, ticket: Ticket) -> Option<u64> {
        self.state.borrow().tickets.get(&ticket.0).map(|t| ns(t.completion))
    }

    /// Retire a ticket on the owner clock, charging the residual wait
    /// `max(0, completion − now)` and returning it. Plan order only.
    /// Completing an unknown ticket is a no-op returning 0.
    pub fn complete(&self, ticket: Ticket) -> u64 {
        let mut st = self.state.borrow_mut();
        let Some(t) = st.tickets.remove(&ticket.0) else {
            return 0;
        };
        let wait = ns(t.completion - st.now);
        st.now = st.now.max(t.completion);
        st.inflight = st.inflight.saturating_sub(1);
        st.wait.io_wait_ns += wait;
        drop(st);
        self.ssd.charge_wait(wait, false);
        wait
    }

    /// Advance the owner clock by compute time spent since the last queue
    /// call — this is what lets in-flight tickets overlap compute.
    pub fn advance(&self, compute_ns: u64) {
        let mut st = self.state.borrow_mut();
        st.now += compute_ns as f64;
        st.wait.advanced_ns += compute_ns;
    }

    /// Drain the wait statistics accumulated since the last call (one
    /// superstep's worth in the engine).
    pub fn take_wait_stats(&self) -> QueueWaitStats {
        let mut st = self.state.borrow_mut();
        let out = st.wait;
        st.wait = QueueWaitStats::default();
        st.wait.max_inflight = st.inflight;
        out
    }
}

/// Where a stage's page reads go (DESIGN.md §12): straight to the device,
/// each read charged as one dispatch when it returns ([`Ssd::read_batch`]),
/// or onto an [`IoQueue`] as tickets that stay in flight — their service
/// overlapping whatever the owner does — until [`Self::retire`]. Either
/// way the pages come back at once: the queue reads at submit.
pub enum Reads<'q> {
    Device(&'q Ssd),
    Queue(&'q IoQueue, Vec<Ticket>),
}

impl Reads<'_> {
    /// Read `reqs` and return the pages with the read's ticket (`None` on
    /// the device). A request list computed from the pages of an earlier
    /// read names that read's ticket as `after`: on a queue it is linked
    /// behind it ([`IoQueue::submit_read_after`]); device reads are serial
    /// anyway.
    pub fn read(
        &mut self,
        reqs: &[(FileId, u64, usize)],
        after: Option<Ticket>,
    ) -> Result<(Option<Ticket>, Vec<Page>), DeviceError> {
        match self {
            Reads::Device(ssd) => Ok((None, ssd.read_batch(reqs)?)),
            Reads::Queue(queue, tickets) => {
                let t = queue.submit_read_after(reqs.to_vec(), after);
                tickets.push(t);
                Ok((Some(t), queue.fetch(t)?))
            }
        }
    }

    /// Retire the queued tickets in submission order on the owner clock
    /// (nothing to do for device reads).
    pub fn retire(self) {
        if let Reads::Queue(queue, tickets) = self {
            for t in tickets {
                queue.complete(t);
            }
        }
    }
}

/// Where the multi-log's flushes go (DESIGN.md §12): straight to the
/// device, each flush charged as one dispatch when it returns
/// ([`Ssd::append_scattered`]), or onto an [`IoQueue`], written behind the
/// owner ([`IoQueue::submit_append`]). Either way the pages land at once.
pub enum Writes<'q> {
    Device(&'q Ssd),
    Queue(&'q IoQueue),
}

impl Writes<'_> {
    /// Append `writes` as one dispatch and return each page's index.
    pub fn append(&self, writes: &[(FileId, &[u8])]) -> Result<Vec<u64>, DeviceError> {
        match self {
            Writes::Device(ssd) => ssd.append_scattered(writes),
            Writes::Queue(queue) => queue.submit_append(writes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::PageCache;

    fn dev_with_file(pages: u64) -> (Arc<Ssd>, FileId) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let f = ssd.open_or_create("q").unwrap();
        for i in 0..pages {
            ssd.append_page(f, &[i as u8; 16]).unwrap();
        }
        ssd.stats().reset();
        (ssd, f)
    }

    fn reqs(f: FileId, pages: std::ops::Range<u64>) -> Vec<(FileId, u64, usize)> {
        pages.map(|p| (f, p, 8)).collect()
    }

    /// The read time `read_batch` charges for pages `read` of the file of
    /// a twin of `dev_with_file(pages)`: the synchronous call a ticket is
    /// held to.
    fn sync_read_ns(pages: u64, read: std::ops::Range<u64>) -> u64 {
        let (ssd, f) = dev_with_file(pages);
        ssd.read_batch(&reqs(f, read)).unwrap();
        ssd.stats().snapshot().read_time_ns
    }

    /// The write time `append_scattered` charges for `n` pages appended to
    /// the file of a twin of `dev_with_file(0)`.
    fn sync_append_ns(n: usize) -> u64 {
        let (ssd, f) = dev_with_file(0);
        ssd.append_scattered(&vec![(f, &[0u8; 16][..]); n]).unwrap();
        ssd.stats().snapshot().write_time_ns
    }

    fn dispatch(channels: usize, addrs: &[PageAddr], per_page_ns: u64) -> u64 {
        dispatch_ns(channels, &mut addrs.to_vec(), per_page_ns)
    }

    #[test]
    fn an_empty_dispatch_is_free() {
        assert_eq!(dispatch(8, &[], 100), 0);
    }

    #[test]
    fn a_single_page_costs_full_service_time() {
        assert_eq!(dispatch(8, &[PageAddr::new(0, 0)], 100_000), 100_000);
    }

    #[test]
    fn channel_parallelism_caps_dispatch_time() {
        // 8 pages striped over 8 channels take ~1 service time, not 8.
        let addrs: Vec<_> = (0..8).map(|i| PageAddr::new(0, i)).collect();
        let t = dispatch(8, &addrs, 100_000);
        assert!(t <= 100_000, "parallel channels should overlap: {t}");
    }

    #[test]
    fn one_channel_serializes() {
        let addrs: Vec<_> = (0..8).map(|i| PageAddr::new(0, i)).collect();
        // One head at full price + 7 sequential continuations discounted.
        let expect = (100_000.0 + 7.0 * 100_000.0 * SEQ_DISCOUNT).round() as u64;
        assert_eq!(dispatch(1, &addrs, 100_000), expect);
    }

    #[test]
    fn random_pages_cost_more_than_sequential() {
        let seq: Vec<_> = (0..64).map(|i| PageAddr::new(3, i)).collect();
        // Same page count, scattered across distant offsets of many files.
        let rnd: Vec<_> = (0..64)
            .map(|i| PageAddr::new((i % 7) as u32, (i as u64 * 977) % 10_000))
            .collect();
        let (ts, tr) = (dispatch(4, &seq, 100_000), dispatch(4, &rnd, 100_000));
        assert!(ts < tr, "sequential {ts} should beat random {tr}");
    }

    #[test]
    fn order_of_requests_does_not_matter() {
        let mut addrs: Vec<_> = (0..32).map(|i| PageAddr::new(1, i)).collect();
        let t1 = dispatch(4, &addrs, 100_000);
        addrs.reverse();
        assert_eq!(t1, dispatch(4, &addrs, 100_000));
    }

    /// The pricing rule written out plainly (DESIGN.md §5): each channel
    /// serves its pages in address order, a run head at full price and a
    /// run continuation discounted; a dispatch lasts as long as its busiest
    /// channel.
    fn reference_ns(channels: usize, addrs: &[PageAddr], per_page_ns: u64) -> u64 {
        let mut sorted = addrs.to_vec();
        sorted.sort_unstable();
        let (mut busy, mut prev) = (vec![0.0f64; channels], vec![None::<PageAddr>; channels]);
        for a in sorted {
            let ch = channel_of(a, channels);
            let run = prev[ch].is_some_and(|p| {
                p.file == a.file && a.page > p.page && a.page - p.page <= channels as u64
            });
            busy[ch] += per_page_ns as f64 * if run { SEQ_DISCOUNT } else { 1.0 };
            prev[ch] = Some(a);
        }
        busy.iter().fold(0.0f64, |m, &b| m.max(b)).round() as u64
    }

    /// One batch priced three ways — the synchronous call's charge, an idle
    /// ticket's wait (or an idle queue's write drain) and the reference
    /// above — to the same nanosecond, over 1–8 channels, three files and
    /// repeated pages.
    #[test]
    fn a_synchronous_call_and_an_idle_ticket_price_a_batch_as_the_reference() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let data = [7u8; 16];
        for case in 0..200 {
            let channels = 1 + next(8) as usize;
            let device = || {
                let ssd = Arc::new(Ssd::new(SsdConfig::test_small().with_channels(channels)));
                for name in ["a", "b", "c"] {
                    let f = ssd.open_or_create(name).unwrap();
                    ssd.append_pages(f, &[&data[..]; 24]).unwrap();
                }
                ssd.stats().reset();
                ssd
            };
            // At most `QUEUE_DEPTH` pages: no channel fills, nothing stalls.
            let n = 1 + next(QUEUE_DEPTH as u64);
            let reads: Vec<_> = (0..n).map(|_| (next(3) as FileId, next(24), 8)).collect();
            let addrs: Vec<_> = reads.iter().map(|&(f, p, _)| PageAddr::new(f, p)).collect();
            let want = reference_ns(channels, &addrs, READ_NS);
            let (sync, queued) = (device(), device());
            sync.read_batch(&reads).unwrap();
            assert_eq!(sync.stats().snapshot().read_time_ns, want, "case {case}: read_batch");
            let q = IoQueue::new(Arc::clone(&queued), QUEUE_DEPTH);
            let t = q.submit_read(reads);
            assert_eq!(q.complete(t), want, "case {case}: ticket");
            assert_eq!(queued.stats().snapshot().read_time_ns, want, "case {case}: ticket");

            let n = 1 + next(QUEUE_DEPTH as u64);
            let writes: Vec<(FileId, &[u8])> =
                (0..n).map(|_| (next(3) as FileId, &data[..])).collect();
            let (sync, queued) = (device(), device());
            let pages = sync.append_scattered(&writes).unwrap();
            let addrs: Vec<_> =
                writes.iter().zip(&pages).map(|(&(f, _), &p)| PageAddr::new(f, p)).collect();
            let want = reference_ns(channels, &addrs, WRITE_NS);
            assert_eq!(sync.stats().snapshot().write_time_ns, want, "case {case}: append");
            let q = IoQueue::new(Arc::clone(&queued), QUEUE_DEPTH);
            assert_eq!(q.submit_append(&writes).unwrap(), pages);
            assert_eq!(q.drain_writes(), want, "case {case}: drain");
        }
    }

    /// A cache hit takes no channel time, as it costs `read_batch` nothing:
    /// a ticket the cache serves whole completes with no wait and charges
    /// no read time, and on an idle queue a ticket of hits and misses
    /// charges what `read_batch` charges on a twin cache — the time of its
    /// misses alone.
    #[test]
    fn cache_hits_take_no_channel_time() {
        let warmed = || {
            let (ssd, f) = dev_with_file(16);
            ssd.attach_cache(Arc::new(PageCache::new(32)));
            let warm = IoQueue::new(Arc::clone(&ssd), 16);
            warm.complete(warm.submit_read(reqs(f, 0..8)));
            ssd.stats().reset();
            (ssd, f)
        };
        let (twin, f) = warmed();
        twin.read_batch(&reqs(f, 4..12)).unwrap();
        let misses = twin.stats().snapshot().read_time_ns;
        assert_eq!(misses, sync_read_ns(16, 8..12), "read_batch prices its misses only");

        let (ssd, f) = warmed();
        let q = IoQueue::new(Arc::clone(&ssd), 16);
        let hits = q.submit_read(reqs(f, 0..8));
        assert_eq!(q.complete(hits), 0, "a ticket of hits waits for nothing");
        assert_eq!(ssd.stats().snapshot().read_time_ns, 0);
        let mixed = q.submit_read(reqs(f, 4..12));
        assert_eq!(q.complete(mixed), misses, "four hits, four misses");
        let s = ssd.stats().snapshot();
        assert_eq!((s.read_time_ns, s.pages_read), (misses, 4));
    }

    /// A ticket linked behind another starts no page before that one
    /// completes: on an idle queue the two complete at the sum of what
    /// `read_batch` charges for each; with the owner clock already at the first one's
    /// completion the link changes nothing; and linked or not, the same
    /// pages and batches are charged.
    #[test]
    fn a_linked_ticket_starts_when_the_ticket_it_follows_completes() {
        let (ssd, f) = dev_with_file(16);
        let (ta, tb) = (sync_read_ns(16, 0..4), sync_read_ns(16, 8..16));
        let run = |advance: u64, linked: bool| {
            ssd.stats().reset();
            let q = IoQueue::new(Arc::clone(&ssd), 16);
            let a = q.submit_read(reqs(f, 0..4));
            q.advance(advance);
            let b = q.submit_read_after(reqs(f, 8..16), linked.then_some(a));
            let wait = q.complete(a) + q.complete(b);
            let s = ssd.stats().snapshot();
            (wait, s.pages_read, s.read_batches)
        };
        assert_eq!(run(0, true), (ta + tb, 12, 2), "linked on an idle queue");
        assert_eq!(run(ta, true), run(ta, false), "linked behind a completed ticket");
        let counts = |(_, pages, batches): (u64, u64, u64)| (pages, batches);
        assert_eq!(counts(run(0, true)), counts(run(0, false)), "linked or not");
    }

    #[test]
    fn an_idle_ticket_waits_what_read_batch_charges() {
        let (ssd, f) = dev_with_file(16);
        let q = IoQueue::new(Arc::clone(&ssd), 16);
        let expect = sync_read_ns(16, 0..16);
        let t = q.submit_read(reqs(f, 0..16));
        assert_eq!(q.complete(t), expect, "an idle queue degenerates to read_batch");
        assert_eq!(ssd.stats().snapshot().read_time_ns, expect);
    }

    #[test]
    fn fetch_charges_counts_once_per_ticket_and_no_time() {
        let (ssd, f) = dev_with_file(8);
        let q = IoQueue::new(Arc::clone(&ssd), 16);
        let t = q.submit_read(reqs(f, 0..8));
        let data = q.fetch(t).unwrap();
        assert_eq!(data.len(), 8);
        assert_eq!(&data[3][..16], &[3u8; 16]);
        let s = ssd.stats().snapshot();
        assert_eq!(s.pages_read, 8);
        assert_eq!(s.read_batches, 1, "one ticket = one read batch");
        assert_eq!(s.read_time_ns, 0, "moving the data charges no service time");
        assert!(q.complete(t) > 0, "time lands at completion");
    }

    /// The data moves at submit, cache or not: the read is charged before
    /// any fetch, and a fetch touches no device — a ticket submitted before
    /// its file was truncated still hands over the pages it read.
    #[test]
    fn submit_moves_the_data_and_fetch_only_hands_it_over() {
        let (ssd, f) = dev_with_file(4);
        let q = IoQueue::new(Arc::clone(&ssd), 16);
        let t = q.submit_read(reqs(f, 0..4));
        let s = ssd.stats().snapshot();
        assert_eq!((s.pages_read, s.read_batches, s.read_time_ns), (4, 1, 0));
        ssd.truncate(f).unwrap();
        let reads = ssd.fault_counters().page_reads;
        assert_eq!(&q.fetch(t).unwrap()[2][..16], &[2u8; 16]);
        assert_eq!(ssd.fault_counters().page_reads, reads, "fetch read the device");
        // A read that fails at submit is handed over as its error.
        let bad = q.submit_read(vec![(f, 0, 257)]);
        assert_eq!(q.fetch(bad), Err(DeviceError::PayloadTooLarge { len: 257, page_size: 256 }));
    }

    #[test]
    fn double_fetch_is_a_typed_error() {
        let (ssd, f) = dev_with_file(2);
        let q = IoQueue::new(ssd, 16);
        let t = q.submit_read(reqs(f, 0..2));
        q.fetch(t).unwrap();
        assert!(matches!(q.fetch(t), Err(DeviceError::Io(_))));
    }

    #[test]
    fn compute_between_completions_overlaps_io() {
        let (ssd, f) = dev_with_file(16);
        // Serial charging: two batches back to back.
        let (t1, t2) = (sync_read_ns(16, 0..8), sync_read_ns(16, 8..16));

        let q = IoQueue::new(Arc::clone(&ssd), 16);
        let a = q.submit_read(reqs(f, 0..8));
        let b = q.submit_read(reqs(f, 8..16));
        let w1 = q.complete(a);
        q.advance(t2 * 2); // long compute while b is still in flight
        let w2 = q.complete(b);
        assert_eq!(w2, 0, "b finished during compute — fully hidden");
        assert_eq!(q.take_wait_stats().advanced_ns, t2 * 2, "the compute reported");
        assert!(
            w1 + w2 < t1 + t2,
            "queue wait {w1}+{w2} must undercut serial {t1}+{t2}"
        );
        assert_eq!(ssd.stats().snapshot().read_time_ns, w1 + w2);
    }

    /// Total drain time with no compute is depth-invariant, for reads and
    /// writes alike: stalls only shift wait from completion time to
    /// submission time, and a write's stall lands in `write_time_ns`.
    #[test]
    fn shallow_queue_stalls_submission_but_keeps_completions() {
        let (ssd, f) = dev_with_file(64);
        let mut totals = Vec::new();
        for depth in [1usize, 4, 16] {
            ssd.stats().reset();
            let q = IoQueue::new(Arc::clone(&ssd), depth);
            let tickets: Vec<Ticket> =
                (0..4).map(|i| q.submit_read(reqs(f, i * 16..(i + 1) * 16))).collect();
            for t in tickets {
                q.complete(t);
            }
            totals.push(ssd.stats().snapshot().read_time_ns);
        }
        assert_eq!(totals[0], totals[1], "depth must not change total drain time");
        assert_eq!(totals[1], totals[2], "depth must not change total drain time");

        // The same for four flushes of 16 pages, each depth on a fresh
        // device so every flush lands on the same pages.
        let data = [9u8; 16];
        let flush = vec![(1, &data[..]); 16];
        let mut totals = Vec::new();
        for depth in [1usize, 4, 16] {
            let (ssd, _) = dev_with_file(0);
            assert_eq!(ssd.open_or_create("w").unwrap(), 1);
            let q = IoQueue::new(Arc::clone(&ssd), depth);
            for _ in 0..4 {
                q.submit_append(&flush).unwrap();
            }
            let stalled = ssd.stats().snapshot().write_time_ns;
            assert_eq!(stalled > 0, depth < 16, "depth {depth}: a flush past the depth stalls");
            q.drain_writes();
            let s = ssd.stats().snapshot();
            assert_eq!((s.read_time_ns, s.write_batches), (0, 4), "depth {depth}");
            assert_eq!(q.take_wait_stats().io_wait_ns, 0, "a write stall is not read wait");
            totals.push(s.write_time_ns);
        }
        assert_eq!(totals[0], totals[1], "depth must not change total write drain time");
        assert_eq!(totals[1], totals[2], "depth must not change total write drain time");

        // And depth 1 does stall at submit: time is charged before any
        // completion once the channels are saturated.
        ssd.stats().reset();
        let q = IoQueue::new(Arc::clone(&ssd), 1);
        let _a = q.submit_read(reqs(f, 0..16));
        let _b = q.submit_read(reqs(f, 16..32));
        assert!(
            ssd.stats().snapshot().read_time_ns > 0,
            "submission past depth 1 must stall"
        );
    }

    /// On an idle queue a write drains in exactly the time
    /// `append_scattered` charges, and charges what it does: the same
    /// pages, bytes and write batches — none of its time before the drain —
    /// and the same FTL writes and cache state.
    #[test]
    fn an_idle_queue_write_drains_and_charges_as_append_scattered() {
        let data = [3u8; 16];
        let device = || {
            let (ssd, f) = dev_with_file(4);
            ssd.enable_ftl(crate::FtlConfig::default());
            ssd.attach_cache(Arc::new(PageCache::new(32)));
            ssd.read_batch(&reqs(f, 0..4)).unwrap();
            let g = ssd.open_or_create("g").unwrap();
            ssd.stats().reset();
            let writes: Vec<(FileId, &[u8])> =
                (0..12).map(|i| (if i % 3 == 0 { g } else { f }, &data[..])).collect();
            (ssd, writes)
        };
        let (direct, writes) = device();
        let pages = direct.append_scattered(&writes).unwrap();
        let (queued, _) = device();
        let q = IoQueue::new(Arc::clone(&queued), 16);
        assert_eq!(q.submit_append(&writes).unwrap(), pages);
        assert_eq!(queued.stats().snapshot().write_time_ns, 0, "no time before the drain");
        let expect = direct.stats().snapshot().write_time_ns;
        assert_eq!(q.drain_writes(), expect, "an idle queue degenerates to append_scattered");
        assert_eq!(queued.stats().snapshot(), direct.stats().snapshot());
        assert_eq!(queued.ftl_stats(), direct.ftl_stats());
        let (qc, dc) = (queued.cache().unwrap(), direct.cache().unwrap());
        assert_eq!(qc.snapshot(), dc.snapshot());
    }

    /// Reads and writes share the channel clocks and a page's channel is
    /// fixed, so a read of a page submitted after its write completes after
    /// it; and the write is then done — the drain charges nothing.
    #[test]
    fn a_read_after_a_write_to_its_page_completes_after_the_write() {
        let (ssd, f) = dev_with_file(0);
        let data = [5u8; 16];
        let q = IoQueue::new(Arc::clone(&ssd), 16);
        let pages = q.submit_append(&[(f, &data[..]); 8]).unwrap();
        let written = sync_append_ns(8);
        let t = q.submit_read(vec![(f, pages[7], 16)]);
        assert_eq!(&q.fetch(t).unwrap()[0][..16], &data, "the data moved at submit");
        assert!(q.complete(t) > written, "the read waited for the write");
        assert_eq!(q.drain_writes(), 0, "the write completed first");
    }

    /// Compute advanced past a write's service hides it: the drain charges
    /// nothing, and no write time is charged at all.
    #[test]
    fn compute_past_a_write_hides_it() {
        let (ssd, f) = dev_with_file(0);
        let q = IoQueue::new(Arc::clone(&ssd), 16);
        q.submit_append(&[(f, &[1u8; 16][..]); 8]).unwrap();
        q.advance(sync_append_ns(8));
        assert_eq!(q.drain_writes(), 0);
        let s = ssd.stats().snapshot();
        assert_eq!((s.pages_written, s.write_time_ns), (8, 0));
    }

    /// The engine's fetch loop in miniature (DESIGN.md §12): four tickets
    /// kept in flight, retired in order, compute advanced between
    /// completions. A deeper per-channel queue never makes the owner wait
    /// longer, and no depth changes the pages or batches charged.
    #[test]
    fn deeper_queues_never_wait_longer_and_charge_the_same_reads() {
        const BATCHES: u64 = 12;
        const AHEAD: u64 = 4;
        let (ssd, f) = dev_with_file(16 * BATCHES);
        let mut seen = Vec::new();
        for depth in [1usize, 4, 16] {
            ssd.stats().reset();
            let q = IoQueue::new(Arc::clone(&ssd), depth);
            let mut inflight = VecDeque::new();
            let mut submitted = 0u64;
            for bi in 0..BATCHES {
                while submitted < BATCHES && submitted < bi + AHEAD {
                    let pages = submitted * 16..(submitted + 1) * 16;
                    inflight.push_back(q.submit_read(reqs(f, pages)));
                    submitted += 1;
                }
                let t = inflight.pop_front().unwrap();
                q.fetch(t).unwrap();
                q.complete(t);
                q.advance(READ_NS * (bi % 3 + 1));
            }
            let dev = ssd.stats().snapshot();
            seen.push((q.take_wait_stats().io_wait_ns, dev.pages_read, dev.read_batches));
        }
        let wait: Vec<u64> = seen.iter().map(|s| s.0).collect();
        assert!(wait[0] >= wait[1] && wait[1] >= wait[2], "io_wait_ns by depth 1, 4, 16: {wait:?}");
        assert!(wait[0] > wait[2], "depth 1 must stall where 16 does not: {wait:?}");
        for s in &seen {
            assert_eq!((s.1, s.2), (16 * BATCHES, BATCHES), "pages and batches charged: {seen:?}");
        }
    }

    #[test]
    fn wait_stats_track_inflight_high_water() {
        let (ssd, f) = dev_with_file(8);
        let q = IoQueue::new(ssd, 16);
        let a = q.submit_read(reqs(f, 0..4));
        let b = q.submit_read(reqs(f, 4..8));
        q.complete(a);
        q.complete(b);
        let w = q.take_wait_stats();
        assert_eq!(w.max_inflight, 2);
        assert!(w.io_wait_ns > 0);
        let w2 = q.take_wait_stats();
        assert_eq!(w2, QueueWaitStats::default(), "stats drain");
    }

    #[test]
    fn cached_fetch_keeps_serve_identity_per_ticket() {
        let (ssd, f) = dev_with_file(8);
        ssd.attach_cache(Arc::new(PageCache::new(32)));
        let q = IoQueue::new(Arc::clone(&ssd), 16);
        let a = q.submit_read(reqs(f, 0..8));
        q.fetch(a).unwrap();
        q.complete(a);
        let cold = ssd.stats().snapshot();
        assert_eq!(cold.read_batches, 1, "one fill batch for the whole ticket");
        assert_eq!(cold.pages_read, 8);
        // Second ticket over the same pages: all hits, no device reads, and
        // the cache identity hits + cached reads == uncached reads holds.
        let b = q.submit_read(reqs(f, 0..8));
        q.fetch(b).unwrap();
        q.complete(b);
        let warm = ssd.stats().snapshot();
        assert_eq!(warm.pages_read, 8, "hits charge no device pages");
        let snap = ssd.cache().unwrap().snapshot();
        assert_eq!(snap.tenant(0).hits + warm.pages_read, 16, "serve identity");
    }
}
