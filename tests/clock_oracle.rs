//! The simulated clock against a reference model (DESIGN.md §5).
//!
//! `Model` below is an event list of one device, written from the rule list
//! in DESIGN.md §5 and in integer nanoseconds: every page any call gives a
//! channel is one entry on that channel's lane, in service order. Seeded
//! random sessions drive an `IoQueue` and the model side by side — several
//! files, runs and scattered pages, tickets linked behind tickets still in
//! flight or long retired, cache-hit subsets, written-behind appends with
//! reads queued behind them, `advance`, tickets retired in any order, depths
//! 1 and 16, and synchronous reads and multi-file appends between queue
//! calls — and every ticket's completion time and charged wait, every drain
//! and every synchronous charge must be the queue's to the nanosecond.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use multilogvc::ssd::{
    FileId, IoQueue, PageCache, Ssd, SsdConfig, Ticket, QUEUE_DEPTH, READ_NS, SEQ_DISCOUNT,
    WRITE_NS,
};

/// Rule 1: a page read and a page write, in nanoseconds.
const READ: u64 = 120_000;
const WRITE: u64 = 240_000;

/// Rule 3: a page that continues a run on its channel costs 70 % of the
/// full price.
fn run_price(full: u64) -> u64 {
    full * 7 / 10
}

/// Rule 2: page `p` of file `f` is served by channel `(31·f + p) mod
/// channels`.
fn channel(f: FileId, p: u64, channels: usize) -> usize {
    ((31 * u64::from(f) + p) % channels as u64) as usize
}

/// Rule 3: the price of each page of one dispatch, `pages` sorted by
/// address: per channel, a page in the same file at most `channels` pages
/// past the page that channel served before it in this dispatch continues
/// a run; any other page is a run head.
fn prices(pages: &[(FileId, u64)], channels: usize, full: u64) -> Vec<u64> {
    let mut before: Vec<Option<(FileId, u64)>> = vec![None; channels];
    pages
        .iter()
        .map(|&(f, p)| {
            let ch = channel(f, p, channels);
            let run =
                before[ch].is_some_and(|(bf, bp)| bf == f && p > bp && p - bp <= channels as u64);
            before[ch] = Some((f, p));
            if run {
                run_price(full)
            } else {
                full
            }
        })
        .collect()
}

/// Rule 4: a synchronous call is one dispatch on idle channels with no
/// depth bound — it lasts as long as its busiest channel's summed prices.
fn synchronous(pages: &[(FileId, u64)], channels: usize, full: u64) -> u64 {
    let mut pages = pages.to_vec();
    pages.sort_unstable();
    let mut busy = vec![0u64; channels];
    for (&(f, p), price) in pages.iter().zip(prices(&pages, channels, full)) {
        busy[channel(f, p, channels)] += price;
    }
    busy.into_iter().max().unwrap_or(0)
}

/// Rules 5–7 over one device: the owner clock, one lane of page services
/// per channel, and every ticket's completion (retired ones kept: a link
/// behind one of them changes nothing, as its completion is in the past).
struct Model {
    channels: usize,
    depth: usize,
    now: u64,
    /// Per channel, the end of every page it was given, in service order.
    lanes: Vec<Vec<u64>>,
    completion: Vec<u64>,
    open: BTreeMap<usize, ()>,
    writes_done: u64,
    read_wait: u64,
    write_wait: u64,
    advanced: u64,
    max_inflight: u64,
    /// Pages the device's cache holds (a cache large enough never evicts).
    cached: Option<HashSet<(FileId, u64)>>,
    file_pages: Vec<u64>,
    /// What the session exercised: depth stalls, cache hits, and links
    /// behind a ticket still completing after the owner clock.
    seen: Seen,
}

#[derive(Default, Clone, Copy)]
struct Seen {
    stalls: u64,
    hits: u64,
    live_links: u64,
}

impl Model {
    /// Put one dispatch on the lanes, none of its pages starting before
    /// `after`: a channel already holding `depth` pages that end after the
    /// owner clock first moves the clock to the end of the oldest of them,
    /// as often as it takes (the depth stall). Returns the stall, already
    /// on the clock, and the dispatch's completion: its last page's end, and
    /// never before it was submitted or before `after`.
    fn queue(&mut self, pages: &[(FileId, u64)], after: u64, full: u64) -> (u64, u64) {
        let mut pages = pages.to_vec();
        pages.sort_unstable();
        let mut clock = self.now;
        let mut completion = self.now.max(after);
        for (&(f, p), price) in pages.iter().zip(prices(&pages, self.channels, full)) {
            let lane = &mut self.lanes[channel(f, p, self.channels)];
            let outstanding: Vec<u64> = lane.iter().copied().filter(|&end| end > clock).collect();
            if outstanding.len() >= self.depth {
                clock = outstanding[outstanding.len() - self.depth];
            }
            let start = lane.last().copied().unwrap_or(0).max(clock).max(after);
            lane.push(start + price);
            completion = completion.max(start + price);
        }
        let stall = clock - self.now;
        self.seen.stalls += u64::from(stall > 0);
        self.seen.live_links += u64::from(after > self.now);
        self.now = clock;
        (stall, completion)
    }

    /// Which of `pages` the device reads: all of them without a cache; with
    /// one, those it does not hold yet, which it holds from then on.
    fn misses(&mut self, pages: &[(FileId, u64)]) -> Vec<(FileId, u64)> {
        match &mut self.cached {
            None => pages.to_vec(),
            Some(held) => pages.iter().copied().filter(|&a| held.insert(a)).collect(),
        }
    }

    fn submit_read(&mut self, pages: &[(FileId, u64)], after: Option<usize>) -> usize {
        let misses = self.misses(pages);
        self.seen.hits += (pages.len() - misses.len()) as u64;
        let linked = after.map_or(0, |t| self.completion[t]);
        let (stall, completion) = self.queue(&misses, linked, READ);
        self.read_wait += stall;
        self.completion.push(completion);
        let id = self.completion.len() - 1;
        self.open.insert(id, ());
        self.max_inflight = self.max_inflight.max(self.open.len() as u64);
        id
    }

    /// Rule 5, the residual wait.
    fn complete(&mut self, t: usize) -> u64 {
        self.open.remove(&t);
        let wait = self.completion[t].saturating_sub(self.now);
        self.now = self.now.max(self.completion[t]);
        self.read_wait += wait;
        wait
    }

    /// Rule 6: appended pages land at the end of their files.
    fn place(&mut self, files: &[FileId]) -> Vec<(FileId, u64)> {
        files
            .iter()
            .map(|&f| {
                let p = self.file_pages[f as usize];
                self.file_pages[f as usize] += 1;
                (f, p)
            })
            .collect()
    }

    fn submit_append(&mut self, files: &[FileId]) -> Vec<u64> {
        let placed = self.place(files);
        let (stall, completion) = self.queue(&placed, 0, WRITE);
        self.write_wait += stall;
        self.writes_done = self.writes_done.max(completion);
        placed.iter().map(|&(_, p)| p).collect()
    }

    fn drain(&mut self) -> u64 {
        let wait = self.writes_done.saturating_sub(self.now);
        self.now = self.now.max(self.writes_done);
        self.write_wait += wait;
        wait
    }
}

/// A small xorshift stream: the sessions are a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const FILES: u32 = 4;
const FILE_PAGES: u64 = 40;

/// A read's page list: a run of one file or pages scattered over several,
/// repeated pages allowed only where no cache merges them.
fn page_list(rng: &mut Rng, m: &Model) -> Vec<(FileId, u64)> {
    let mut pages = Vec::new();
    if rng.chance(50) {
        let f = rng.below(u64::from(FILES)) as FileId;
        let len = 1 + rng.below(12);
        let start = rng.below(m.file_pages[f as usize].saturating_sub(len).max(1));
        pages.extend(
            (start..start + len)
                .filter(|&p| p < m.file_pages[f as usize])
                .map(|p| (f, p)),
        );
    } else {
        for _ in 0..1 + rng.below(10) {
            let f = rng.below(u64::from(FILES)) as FileId;
            pages.push((f, rng.below(m.file_pages[f as usize])));
        }
    }
    if m.cached.is_some() {
        let mut seen = HashSet::new();
        pages.retain(|&a| seen.insert(a));
    }
    pages
}

fn reqs(pages: &[(FileId, u64)]) -> Vec<(FileId, u64, usize)> {
    pages.iter().map(|&(f, p)| (f, p, 16)).collect()
}

/// One seeded session; `what` names it in every failure.
fn session(seed: u64) -> Seen {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let channels = [1usize, 2, 3, 4, 8][rng.below(5) as usize];
    let depth = if rng.chance(50) { 1 } else { QUEUE_DEPTH };
    let cache = rng.chance(40);
    let what = format!("session {seed}: {channels} channels, depth {depth}, cache {cache}");

    let ssd = Arc::new(Ssd::new(SsdConfig::test_small().with_channels(channels)));
    let data = [5u8; 16];
    for f in 0..FILES {
        assert_eq!(ssd.open_or_create(&format!("f{f}")).unwrap(), f);
        ssd.append_pages(f, &[&data[..]; FILE_PAGES as usize])
            .unwrap();
    }
    if cache {
        ssd.attach_cache(Arc::new(PageCache::new(4096)));
    }
    ssd.stats().reset();
    let q = IoQueue::new(Arc::clone(&ssd), depth);
    let mut m = Model {
        channels,
        depth,
        now: 0,
        lanes: vec![Vec::new(); channels],
        completion: Vec::new(),
        open: BTreeMap::new(),
        writes_done: 0,
        read_wait: 0,
        write_wait: 0,
        advanced: 0,
        max_inflight: 0,
        cached: cache.then(HashSet::new),
        file_pages: vec![FILE_PAGES; FILES as usize],
        seen: Seen::default(),
    };
    let mut tickets: Vec<Ticket> = Vec::new();
    let (mut sync_read, mut sync_write) = (0u64, 0u64);

    let check_open = |q: &IoQueue, m: &Model, tickets: &[Ticket]| {
        for &t in m.open.keys() {
            assert_eq!(
                q.completion_ns(tickets[t]),
                Some(m.completion[t]),
                "{what}: ticket {t}"
            );
        }
    };
    for step in 0..80 {
        match rng.below(100) {
            0..=34 => {
                let pages = page_list(&mut rng, &m);
                // Behind any earlier ticket: in flight, submitted a whole
                // batch earlier, or long retired.
                let after = (!tickets.is_empty() && rng.chance(45))
                    .then(|| rng.below(tickets.len() as u64) as usize);
                let t = q.submit_read_after(reqs(&pages), after.map(|a| tickets[a]));
                assert_eq!(
                    q.fetch(t).unwrap().len(),
                    pages.len(),
                    "{what}, step {step}"
                );
                assert_eq!(m.submit_read(&pages, after), tickets.len());
                tickets.push(t);
            }
            35..=49 => {
                let files: Vec<FileId> = (0..1 + rng.below(10))
                    .map(|_| rng.below(u64::from(FILES)) as FileId)
                    .collect();
                let writes: Vec<(FileId, &[u8])> = files.iter().map(|&f| (f, &data[..])).collect();
                let want = m.submit_append(&files);
                assert_eq!(
                    q.submit_append(&writes).unwrap(),
                    want,
                    "{what}, step {step}"
                );
            }
            50..=64 => {
                let c = rng.below(400_000);
                q.advance(c);
                m.now += c;
                m.advanced += c;
            }
            65..=89 if !m.open.is_empty() => {
                let k = rng.below(m.open.len() as u64) as usize;
                let t = *m.open.keys().nth(k).unwrap();
                let want = m.complete(t);
                assert_eq!(
                    q.complete(tickets[t]),
                    want,
                    "{what}, step {step}: wait of {t}"
                );
            }
            90..=93 => {
                assert_eq!(q.drain_writes(), m.drain(), "{what}, step {step}: drain");
            }
            _ => {
                // A synchronous call between queue calls: one dispatch on
                // idle channels, on no queue clock.
                let before = ssd.stats().snapshot();
                if rng.chance(50) {
                    let pages = page_list(&mut rng, &m);
                    let misses = m.misses(&pages);
                    ssd.read_batch(&reqs(&pages)).unwrap();
                    let want = synchronous(&misses, channels, READ);
                    let got = ssd.stats().snapshot().read_time_ns - before.read_time_ns;
                    assert_eq!(got, want, "{what}, step {step}: read_batch");
                    sync_read += want;
                } else {
                    let files: Vec<FileId> = (0..1 + rng.below(24))
                        .map(|_| rng.below(u64::from(FILES)) as FileId)
                        .collect();
                    let placed = m.place(&files);
                    let writes: Vec<(FileId, &[u8])> =
                        files.iter().map(|&f| (f, &data[..])).collect();
                    let pages = ssd.append_scattered(&writes).unwrap();
                    assert_eq!(pages, placed.iter().map(|&(_, p)| p).collect::<Vec<_>>());
                    let want = synchronous(&placed, channels, WRITE);
                    let got = ssd.stats().snapshot().write_time_ns - before.write_time_ns;
                    assert_eq!(got, want, "{what}, step {step}: append_scattered");
                    sync_write += want;
                }
            }
        }
        check_open(&q, &m, &tickets);
    }
    while !m.open.is_empty() {
        let k = rng.below(m.open.len() as u64) as usize;
        let Some(t) = m.open.keys().nth(k).copied() else {
            break;
        };
        let want = m.complete(t);
        assert_eq!(q.complete(tickets[t]), want, "{what}: final wait of {t}");
    }
    assert_eq!(q.drain_writes(), m.drain(), "{what}: final drain");
    let w = q.take_wait_stats();
    assert_eq!(
        (w.io_wait_ns, w.write_wait_ns, w.advanced_ns, w.max_inflight),
        (m.read_wait, m.write_wait, m.advanced, m.max_inflight),
        "{what}: wait statistics"
    );
    let s = ssd.stats().snapshot();
    assert_eq!(s.read_time_ns, m.read_wait + sync_read, "{what}: read time");
    assert_eq!(
        s.write_time_ns,
        m.write_wait + sync_write,
        "{what}: write time"
    );
    m.seen
}

/// The model's constants are the ones the device uses.
#[test]
fn the_model_prices_pages_as_the_device_does() {
    assert_eq!((READ_NS, WRITE_NS), (READ, WRITE));
    assert_eq!(SEQ_DISCOUNT, 0.7);
    assert_eq!((run_price(READ), run_price(WRITE)), (84_000, 168_000));
}

/// Every ticket, wait, drain and synchronous charge of 400 seeded sessions
/// is the model's to the nanosecond.
#[test]
fn the_queue_prices_every_session_as_the_model() {
    let mut total = Seen::default();
    for seed in 0..400 {
        let s = session(seed);
        total = Seen {
            stalls: total.stalls + s.stalls,
            hits: total.hits + s.hits,
            live_links: total.live_links + s.live_links,
        };
    }
    assert!(
        total.stalls > 100 && total.hits > 100 && total.live_links > 100,
        "{:?}",
        (total.stalls, total.hits, total.live_links)
    );
}

/// The engine's load-stage shape, written out: a batch's row-pointer
/// tickets all submitted at once, then each interval's column-index ticket
/// linked behind its own row-pointer ticket, submitted after the compute of
/// the interval before. A ticket linked behind one submitted a whole batch
/// earlier starts no page before that one completes, and never later than
/// its channels allow.
#[test]
fn tickets_linked_behind_a_batch_of_earlier_tickets_price_as_the_model() {
    for (channels, depth) in [(1usize, 1usize), (4, 1), (4, QUEUE_DEPTH), (8, QUEUE_DEPTH)] {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small().with_channels(channels)));
        let data = [1u8; 16];
        for f in 0..FILES {
            ssd.open_or_create(&format!("f{f}")).unwrap();
            ssd.append_pages(f, &[&data[..]; FILE_PAGES as usize])
                .unwrap();
        }
        let q = IoQueue::new(Arc::clone(&ssd), depth);
        let mut m = Model {
            channels,
            depth,
            now: 0,
            lanes: vec![Vec::new(); channels],
            completion: Vec::new(),
            open: BTreeMap::new(),
            writes_done: 0,
            read_wait: 0,
            write_wait: 0,
            advanced: 0,
            max_inflight: 0,
            cached: None,
            file_pages: vec![FILE_PAGES; FILES as usize],
            seen: Seen::default(),
        };
        let mut tickets = Vec::new();
        // Row pointers of intervals 0..4 live in file 0, two pages each;
        // column indices of interval i in file 1 + i % 3.
        let rows: Vec<Vec<(FileId, u64)>> =
            (0..4).map(|i| vec![(0, 2 * i), (0, 2 * i + 1)]).collect();
        let row_tickets: Vec<usize> = rows
            .iter()
            .map(|pages| {
                tickets.push(q.submit_read(reqs(pages)));
                m.submit_read(pages, None)
            })
            .collect();
        for (i, &rt) in row_tickets.iter().enumerate() {
            let f = 1 + (i as FileId) % 3;
            let pages: Vec<(FileId, u64)> = (0..6).map(|k| (f, 6 * i as u64 + k)).collect();
            tickets.push(q.submit_read_after(reqs(&pages), Some(tickets[rt])));
            let ct = m.submit_read(&pages, Some(rt));
            assert_eq!(
                q.completion_ns(tickets[ct]),
                Some(m.completion[ct]),
                "{channels} ch"
            );
            assert!(m.completion[ct] > m.completion[rt]);
            for t in [rt, ct] {
                assert_eq!(
                    q.complete(tickets[t]),
                    m.complete(t),
                    "{channels} ch, ticket {t}"
                );
            }
            q.advance(150_000);
            m.now += 150_000;
        }
        assert_eq!(q.take_wait_stats().io_wait_ns, m.read_wait);
    }
}
