use crate::checked::{mem_idx, to_u64, wide};
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

#[cfg(test)]
mod tests {
    use super::*;

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
