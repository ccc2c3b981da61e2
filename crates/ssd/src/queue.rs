//! Submission/completion queues over the simulated device (io_uring shape).
//!
//! The paper's multi-log exists to exploit SSD internal parallelism, but the
//! plain [`Ssd`] read path is synchronous: each `read_batch` charges its full
//! channel-parallel service time to the caller at dispatch, so two batches
//! issued back-to-back serialize on the virtual clock even though a real
//! device would pipeline them across channels. `IoQueue` fixes that with an
//! explicit submission/completion model:
//!
//! * [`IoQueue::submit_read`] schedules every page of a batch onto its flash
//!   channel's virtual clock (same placement and sequential-run price as
//!   [`batch_time_ns`]: both charge each page through one rule) and returns
//!   a [`Ticket`]. Channels keep servicing
//!   earlier tickets while later ones queue behind them — the overlap.
//! * Each channel holds at most `depth` outstanding page requests. A submit
//!   that would exceed the depth *stalls*: the submitter's clock advances to
//!   the completion of the oldest queued request, and the stall is charged
//!   as read wait. `depth` therefore never changes *when* a request
//!   completes, only when submission returns — queue depth 1 degenerates to
//!   the old synchronous charging.
//! * [`IoQueue::fetch`] hands over the pages (lent [`Page`] handles: a
//!   ticket's pages cross to the fetching thread without a copy) with
//!   counts charged but **no** service time — the queue's clocks own time.
//!   Exactly one `read_batches` is charged per ticket, however many
//!   channels or cache passes serve it.
//!   `fetch` may run on any thread; the engine runs it on the fetch
//!   workers. When a page cache is attached, the data is actually moved at
//!   *submit* time (plan order, owner thread) and `fetch` just hands it
//!   over — so the queue's own cache traffic is in plan order. That alone
//!   does not make the cache's eviction sequence thread-invariant: whoever
//!   receives the pages must not touch the device either. A truncate from
//!   a fetch worker invalidates frames while the owner is inserting, and
//!   the frames freed first decide who is evicted next. The engine
//!   therefore decodes on the workers and consumes (truncates) on the
//!   owner, where it retires the ticket (DESIGN.md §12).
//! * [`IoQueue::complete`] retires a ticket on the owner's clock, charging
//!   only the *remaining* wait `max(0, completion − now)`. Compute time the
//!   owner spends between completions is reported via [`IoQueue::advance`],
//!   which moves `now` forward so later completions overlap it.
//!
//! Determinism contract (DESIGN.md §12): `submit_read`, `complete` and
//! `advance` are called by the engine owner thread in plan order — the
//! completion-drain rule — so every virtual timestamp is a pure function of
//! the plan, independent of worker-thread count and wall-clock scheduling.
//!
//! [`batch_time_ns`]: crate::batch_time_ns

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::cost::{channel_of, page_cost_ns, PageAddr, READ_NS};
use crate::device::{FileId, Ssd};
use crate::fault::DeviceError;
use crate::page::Page;
use crate::sync::Mutex;

/// Per-channel depth of the queue every reader in the tree opens — the
/// engine's fused-batch fetch and the mutation commit's drain and install.
/// Depth moves only *when* submission returns, never a result or a page
/// count (see the module docs), so nothing sets it but the simulator's own
/// tests.
pub const QUEUE_DEPTH: usize = 16;

/// Handle of one submitted read batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Per-superstep queue observability, drained by
/// [`IoQueue::take_wait_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWaitStats {
    /// Virtual nanoseconds the owner spent blocked on the queue: submission
    /// stalls plus residual completion waits.
    pub io_wait_ns: u64,
    /// High-water mark of tickets submitted but not yet completed.
    pub max_inflight: u64,
}

struct TicketState {
    /// Virtual completion time of the last page of this ticket.
    completion: f64,
    /// Requests not yet fetched (`None` once [`IoQueue::fetch`] ran, or
    /// when the data was prefetched at submit).
    reqs: Option<Vec<(FileId, u64, usize)>>,
    /// Data eagerly moved at submit time when a page cache is attached
    /// (`None` otherwise, or once fetched). Keeping cache traffic on the
    /// plan-order submit path makes the cache's request sequence
    /// independent of which fetch worker later calls [`IoQueue::fetch`].
    prefetched: Option<Result<Vec<Page>, DeviceError>>,
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
    wait: QueueWaitStats,
}

/// A submission/completion queue over one [`Ssd`] view. See the module docs
/// for the model; one instance serves one engine run.
pub struct IoQueue {
    ssd: Arc<Ssd>,
    depth: usize,
    state: Mutex<QueueState>,
}

impl IoQueue {
    /// A queue of per-channel depth `depth` (clamped to at least 1) over
    /// `ssd`'s channels and cost model.
    pub fn new(ssd: Arc<Ssd>, depth: usize) -> Self {
        let channels = ssd.config().channels;
        IoQueue {
            ssd,
            depth: depth.max(1),
            state: Mutex::new(QueueState {
                now: 0.0,
                chan_free: vec![0.0; channels],
                chan_q: vec![VecDeque::new(); channels],
                tickets: HashMap::new(),
                next_id: 0,
                inflight: 0,
                wait: QueueWaitStats::default(),
            }),
        }
    }

    /// Schedule a read batch onto the channel clocks and return its ticket.
    ///
    /// Owner-thread, plan-order only (see the module docs). Any submission
    /// stall is charged to the device's `read_time_ns` here.
    pub fn submit_read(&self, reqs: Vec<(FileId, u64, usize)>) -> Ticket {
        // With a cache attached, move the data *now*, on the plan-order
        // submit path, so the cache observes an identical request sequence
        // for any worker-thread count (counts charged, no service time —
        // same as a deferred fetch). No queue lock is held here.
        let prefetched = if self.ssd.cache().is_some() {
            Some(self.ssd.read_batch_deferred(&reqs))
        } else {
            None
        };
        let channels = self.ssd.config().channels;
        let mut sorted: Vec<PageAddr> =
            reqs.iter().map(|&(f, p, _)| PageAddr::new(f, p)).collect();
        sorted.sort_unstable();

        let mut st = self.state.lock();
        let mut cursor = st.now;
        // Sequential-run state is per ticket, mirroring `batch_time_ns`
        // (each dispatch re-pays the run head).
        let mut chan_prev: Vec<Option<PageAddr>> = vec![None; channels];
        let mut completion = cursor;
        for &a in &sorted {
            let ch = channel_of(a, channels);
            // Depth gate: drop retired requests, then wait for the oldest
            // queued one whenever the channel is full.
            loop {
                while st.chan_q[ch].front().is_some_and(|&fin| fin <= cursor) {
                    st.chan_q[ch].pop_front();
                }
                if st.chan_q[ch].len() < self.depth {
                    break;
                }
                if let Some(fin) = st.chan_q[ch].pop_front() {
                    cursor = cursor.max(fin);
                }
            }
            let start = st.chan_free[ch].max(cursor);
            let fin = start + page_cost_ns(chan_prev[ch], a, channels, READ_NS);
            st.chan_free[ch] = fin;
            st.chan_q[ch].push_back(fin);
            chan_prev[ch] = Some(a);
            completion = completion.max(fin);
        }
        // mlvc-lint: allow(no-truncating-cast) -- f64 has no TryFrom; virtual nanoseconds stay far below 2^53
        let stall = (cursor - st.now).round() as u64;
        if stall > 0 {
            st.now = cursor;
            st.wait.io_wait_ns += stall;
        }
        st.inflight += 1;
        st.wait.max_inflight = st.wait.max_inflight.max(st.inflight);
        let id = st.next_id;
        st.next_id += 1;
        let reqs = if prefetched.is_none() { Some(reqs) } else { None };
        st.tickets.insert(id, TicketState { completion, reqs, prefetched });
        drop(st);
        if stall > 0 {
            self.ssd.charge_read_wait(stall);
        }
        Ticket(id)
    }

    /// Move the data of a submitted ticket: counts are charged (one
    /// `read_batches` for the whole ticket), service time is not — the
    /// queue's clocks own it. Runs on any thread; fetching a ticket twice
    /// (or one this queue never issued) is an error.
    pub fn fetch(&self, ticket: Ticket) -> Result<Vec<Page>, DeviceError> {
        let (reqs, prefetched) = {
            let mut st = self.state.lock();
            match st.tickets.get_mut(&ticket.0) {
                Some(t) => (t.reqs.take(), t.prefetched.take()),
                None => (None, None),
            }
        };
        if let Some(res) = prefetched {
            return res;
        }
        let Some(reqs) = reqs else {
            return Err(DeviceError::Io(format!(
                "ticket {} was never submitted or already fetched",
                ticket.0
            )));
        };
        self.ssd.read_batch_deferred(&reqs)
    }

    /// Retire a ticket on the owner clock, charging the residual wait
    /// `max(0, completion − now)` and returning it. Owner-thread, plan-order
    /// only. Completing an unknown ticket is a no-op returning 0.
    pub fn complete(&self, ticket: Ticket) -> u64 {
        let mut st = self.state.lock();
        let Some(t) = st.tickets.remove(&ticket.0) else {
            return 0;
        };
        // mlvc-lint: allow(no-truncating-cast) -- f64 has no TryFrom; virtual nanoseconds stay far below 2^53
        let wait = (t.completion - st.now).max(0.0).round() as u64;
        st.now = st.now.max(t.completion);
        st.inflight = st.inflight.saturating_sub(1);
        st.wait.io_wait_ns += wait;
        drop(st);
        self.ssd.charge_read_wait(wait);
        wait
    }

    /// Advance the owner clock by compute time spent since the last queue
    /// call — this is what lets in-flight tickets overlap compute.
    pub fn advance(&self, compute_ns: u64) {
        self.state.lock().now += compute_ns as f64;
    }

    /// Drain the wait statistics accumulated since the last call (one
    /// superstep's worth in the engine).
    pub fn take_wait_stats(&self) -> QueueWaitStats {
        let mut st = self.state.lock();
        let out = st.wait;
        st.wait = QueueWaitStats::default();
        st.wait.max_inflight = st.inflight;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::cost::batch_time_ns;
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

    #[test]
    fn idle_queue_completion_equals_batch_time() {
        let (ssd, f) = dev_with_file(16);
        let q = IoQueue::new(Arc::clone(&ssd), 16);
        let r = reqs(f, 0..16);
        let addrs: Vec<PageAddr> = r.iter().map(|&(f, p, _)| PageAddr::new(f, p)).collect();
        let expect = batch_time_ns(ssd.config(), &addrs, READ_NS);
        let t = q.submit_read(r);
        assert_eq!(q.complete(t), expect, "idle queue degenerates to batch_time_ns");
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
        assert_eq!(s.read_time_ns, 0, "fetch charges no service time");
        assert!(q.complete(t) > 0, "time lands at completion");
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
        let addrs =
            |r: std::ops::Range<u64>| r.map(|p| PageAddr::new(f, p)).collect::<Vec<_>>();
        let t1 = batch_time_ns(ssd.config(), &addrs(0..8), READ_NS);
        let t2 = batch_time_ns(ssd.config(), &addrs(8..16), READ_NS);

        let q = IoQueue::new(Arc::clone(&ssd), 16);
        let a = q.submit_read(reqs(f, 0..8));
        let b = q.submit_read(reqs(f, 8..16));
        let w1 = q.complete(a);
        q.advance(t2 * 2); // long compute while b is still in flight
        let w2 = q.complete(b);
        assert_eq!(w2, 0, "b finished during compute — fully hidden");
        assert!(
            w1 + w2 < t1 + t2,
            "queue wait {w1}+{w2} must undercut serial {t1}+{t2}"
        );
        assert_eq!(ssd.stats().snapshot().read_time_ns, w1 + w2);
    }

    #[test]
    fn shallow_queue_stalls_submission_but_keeps_completions() {
        let (ssd, f) = dev_with_file(64);
        // Total drain time with no compute is depth-invariant: stalls only
        // shift wait from completion time to submission time.
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
