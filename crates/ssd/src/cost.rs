use crate::checked::{mem_idx, to_u64, wide};
use crate::config::SsdConfig;
use crate::device::FileId;

/// Service time to read one page on one channel, nanoseconds: a SATA TLC
/// drive in the class of the paper's Samsung 860 EVO (~530 MB/s over the
/// default four channels).
pub const READ_NS: u64 = 120_000;

/// Service time to program (write) one page on one channel, nanoseconds
/// (~270 MB/s sustained over four channels).
pub const WRITE_NS: u64 = 240_000;
const _: () = assert!(READ_NS < WRITE_NS, "flash programs are slower than reads");

/// Price multiplier of a page that continues a sequential run on its
/// channel: sequential access amortizes command setup and read-ahead.
pub const SEQ_DISCOUNT: f64 = 0.7;

/// Address of one page: a file and a page index within it.
///
/// Channel placement is a pure function of the address (see [`channel_of`]),
/// which stripes consecutive pages of a file across all channels — the
/// paper's log layout ("each log is interspersed across multiple channels to
/// maximize the read bandwidth", §V-A3) and the natural layout for large
/// sequential CSR vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    pub file: FileId,
    pub page: u64,
}

impl PageAddr {
    pub fn new(file: FileId, page: u64) -> Self {
        PageAddr { file, page }
    }
}

/// Flash channel servicing a given page.
pub fn channel_of(addr: PageAddr, channels: usize) -> usize {
    debug_assert!(channels >= 1);
    // The modulo result is below `channels`, itself a usize, so the
    // narrowing back is lossless by construction.
    mem_idx(wide(addr.file).wrapping_mul(31).wrapping_add(addr.page) % to_u64(channels))
}

/// Price of page `a` on its channel, given the page that channel served
/// before it in the same dispatch: a page continuing a sequential run (same
/// file, at most `channels` pages past the previous one) costs
/// `per_page_ns * SEQ_DISCOUNT`, a run head full price. Striding by
/// `channels` pages within one file keeps hitting the same channel with
/// (nearly) consecutive physical pages — that is what a sequential stream
/// striped across channels looks like per channel — hence the
/// `<= channels` run test.
pub(crate) fn page_cost_ns(
    prev: Option<PageAddr>,
    a: PageAddr,
    channels: usize,
    per_page_ns: u64,
) -> f64 {
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

/// Simulated service time for a *batch* of page requests issued together.
///
/// Model: each page is serviced by its channel; channels operate in
/// parallel, so batch time is the maximum per-channel time. Within one
/// channel each page is priced by the rule [`IoQueue`] charges too:
/// sequential-run continuations at [`SEQ_DISCOUNT`], run heads at full
/// price.
///
/// The batch is sorted internally, so callers may pass addresses in any
/// order — an I/O scheduler would do the same reordering.
///
/// [`IoQueue`]: crate::IoQueue
pub fn batch_time_ns(cfg: &SsdConfig, addrs: &[PageAddr], per_page_ns: u64) -> u64 {
    if addrs.is_empty() {
        return 0;
    }
    let channels = cfg.channels;
    let mut sorted: Vec<PageAddr> = addrs.to_vec();
    sorted.sort_unstable();

    // Per-channel accumulated time in femto-ish fixed point: use f64 and
    // round once at the end; batch sizes are bounded by available memory so
    // precision is ample.
    let mut chan_time = vec![0.0f64; channels];
    let mut chan_prev: Vec<Option<PageAddr>> = vec![None; channels];
    for &a in &sorted {
        let ch = channel_of(a, channels);
        chan_time[ch] += page_cost_ns(chan_prev[ch], a, channels, per_page_ns);
        chan_prev[ch] = Some(a);
    }
    // mlvc-lint: allow(no-truncating-cast) -- f64 has no TryFrom<u64>; nanosecond totals stay far below 2^53
    chan_time.iter().cloned().fold(0.0, f64::max).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(channels: usize) -> SsdConfig {
        SsdConfig::default().with_channels(channels)
    }

    #[test]
    fn empty_batch_is_free() {
        assert_eq!(batch_time_ns(&cfg(8), &[], 100), 0);
    }

    #[test]
    fn single_page_costs_full_service_time() {
        let t = batch_time_ns(&cfg(8), &[PageAddr::new(0, 0)], 100_000);
        assert_eq!(t, 100_000);
    }

    #[test]
    fn channel_parallelism_caps_batch_time() {
        // 8 pages striped over 8 channels take ~1 service time, not 8.
        let c = cfg(8);
        let addrs: Vec<_> = (0..8).map(|i| PageAddr::new(0, i)).collect();
        let t = batch_time_ns(&c, &addrs, 100_000);
        assert!(t <= 100_000, "parallel channels should overlap: {t}");
    }

    #[test]
    fn one_channel_serializes() {
        let c = cfg(1);
        let addrs: Vec<_> = (0..8).map(|i| PageAddr::new(0, i)).collect();
        let t = batch_time_ns(&c, &addrs, 100_000);
        // One head at full price + 7 sequential continuations discounted.
        let expect = (100_000.0 + 7.0 * 100_000.0 * SEQ_DISCOUNT).round() as u64;
        assert_eq!(t, expect);
    }

    #[test]
    fn random_pages_cost_more_than_sequential() {
        let c = cfg(4);
        let seq: Vec<_> = (0..64).map(|i| PageAddr::new(3, i)).collect();
        // Same page count, scattered across distant offsets of many files.
        let rnd: Vec<_> = (0..64)
            .map(|i| PageAddr::new((i % 7) as u32, (i as u64 * 977) % 10_000))
            .collect();
        let ts = batch_time_ns(&c, &seq, 100_000);
        let tr = batch_time_ns(&c, &rnd, 100_000);
        assert!(ts < tr, "sequential {ts} should beat random {tr}");
    }

    #[test]
    fn order_of_requests_does_not_matter() {
        let c = cfg(4);
        let mut addrs: Vec<_> = (0..32).map(|i| PageAddr::new(1, i)).collect();
        let t1 = batch_time_ns(&c, &addrs, 100_000);
        addrs.reverse();
        let t2 = batch_time_ns(&c, &addrs, 100_000);
        assert_eq!(t1, t2);
    }

    #[test]
    fn channel_of_is_stable_and_in_range() {
        for f in 0..20u32 {
            for p in 0..100u64 {
                let ch = channel_of(PageAddr::new(f, p), 8);
                assert!(ch < 8);
                assert_eq!(ch, channel_of(PageAddr::new(f, p), 8));
            }
        }
    }

    #[test]
    fn consecutive_pages_cover_all_channels() {
        // Striping: a long run of consecutive pages should touch every channel.
        let mut seen = [false; 8];
        for p in 0..64u64 {
            seen[channel_of(PageAddr::new(5, p), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "stripe must spread across channels");
    }
}
