use std::collections::BinaryHeap;

use mlvc_core::Combine;
use mlvc_log::{decode_log_page, pack_pages, PageShape, Update, ANY_DEST};
use mlvc_ssd::{DeviceError, FileId, Ssd};

/// What an external sort did — the fig. 8 diagnostic: once the log exceeds
/// the sort memory, run generation + merge passes dominate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtSortStats {
    /// True when the whole log fit in the sort budget (no run files).
    pub in_memory: bool,
    /// Sorted runs written in the partition phase.
    pub runs: usize,
    /// Multi-way merge passes performed.
    pub merge_passes: usize,
    /// Updates that went in (the log records sorted — charged sort cost).
    pub updates_in: u64,
    /// Updates that came out (post-reduce when a combine is installed).
    pub updates_out: u64,
}

/// Result of sorting a log by destination.
pub enum Sorted {
    /// Fit in memory: the sorted (and possibly reduced) updates.
    InMemory(Vec<Update>),
    /// On disk: a log-page file holding the sorted stream.
    OnDisk { file: FileId },
}

/// Sort the update log `input` by destination, GraFBoost-style.
///
/// * If the log fits in `sort_budget` bytes it is sorted in memory (the
///   lucky case — the paper's point is that big graphs blow past this).
/// * Otherwise: chunk the log into `sort_budget`-sized sorted **runs**
///   (written back to the SSD), then repeatedly **k-way merge** groups of
///   runs until one remains. Every byte of every pass is charged.
/// * With a `combine`, equal-destination updates are reduced at every
///   stage — GraFBoost's *sort-reduce*, which shortens runs and is exactly
///   what non-combinable algorithms cannot use.
///
/// The input file is consumed (truncated). `has_src` is the record shape
/// of the log and of every run file written here (see [`write_log_pages`]).
pub fn external_sort(
    ssd: &Ssd,
    input: FileId,
    sort_budget: usize,
    combine: Option<Combine>,
    has_src: bool,
    tag: &str,
) -> Result<(Sorted, ExtSortStats), DeviceError> {
    let page_size = ssd.page_size();
    let cap = page_capacity(page_size, has_src);
    let budget_updates = (sort_budget / mlvc_log::UPDATE_BYTES).max(cap);
    let total_pages = ssd.num_pages(input)?;
    let mut stats = ExtSortStats::default();

    // --- Fast path: whole log fits in the sort budget. ---
    if total_pages as usize * cap <= budget_updates {
        let mut updates = read_log_pages(ssd, input, 0, total_pages)?;
        ssd.truncate(input)?;
        stats.updates_in = updates.len() as u64;
        updates.sort_by_key(|u| u.dest);
        if let Some(f) = combine {
            updates = reduce_sorted(updates, f);
        }
        stats.in_memory = true;
        stats.updates_out = updates.len() as u64;
        return Ok((Sorted::InMemory(updates), stats));
    }

    // --- Partition phase: budget-sized sorted runs. ---
    let chunk_pages = (budget_updates / cap).max(1) as u64;
    let mut runs: Vec<FileId> = Vec::new();
    let mut next_run = 0usize;
    let mut p = 0u64;
    while p < total_pages {
        let hi = (p + chunk_pages).min(total_pages);
        let mut chunk = read_log_pages(ssd, input, p, hi)?;
        stats.updates_in += chunk.len() as u64;
        chunk.sort_by_key(|u| u.dest);
        if let Some(f) = combine {
            chunk = reduce_sorted(chunk, f);
        }
        let run = ssd.open_or_create(&format!("{tag}.run.{next_run}"))?;
        next_run += 1;
        ssd.truncate(run)?;
        write_log_pages(ssd, run, &chunk, has_src)?;
        runs.push(run);
        p = hi;
    }
    ssd.truncate(input)?;
    stats.runs = runs.len();

    // --- Merge phase: fan-in bounded by the budget (one input buffer per
    //     run plus one output buffer). ---
    let fan_in = ((sort_budget / page_size).saturating_sub(1)).clamp(2, 64);
    while runs.len() > 1 {
        stats.merge_passes += 1;
        let mut merged: Vec<FileId> = Vec::new();
        for (g, group) in runs.chunks(fan_in).enumerate() {
            if group.len() == 1 {
                merged.push(group[0]);
                continue;
            }
            let out = ssd.open_or_create(&format!("{tag}.merge.{}.{}", stats.merge_passes, g))?;
            ssd.truncate(out)?;
            let buf_pages = chunk_pages.max(1) / group.len() as u64 + 1;
            merge_runs(ssd, group, out, combine, has_src, buf_pages)?;
            for &r in group {
                ssd.truncate(r)?;
            }
            merged.push(out);
        }
        runs = merged;
    }
    let file = match runs.pop() {
        Some(f) => f,
        // Unreachable: the fast path returns on an empty log, so the
        // partition phase always produces at least one run.
        None => return Ok((Sorted::InMemory(Vec::new()), stats)),
    };
    Ok((Sorted::OnDisk { file }, stats))
}

/// Records per page of GraFBoost's log and run files: key-value pairs
/// `{u32 dest, u64 data}`, plus the source vertex for programs that read
/// it — the shared page codec's wide-destination shapes.
fn page_capacity(page_size: usize, has_src: bool) -> usize {
    PageShape { wide_dest: true, has_src }.capacity(page_size).max(1)
}

/// Read log pages `[lo, hi)` of `file` as one charged batch.
pub fn read_log_pages(
    ssd: &Ssd,
    file: FileId,
    lo: u64,
    hi: u64,
) -> Result<Vec<Update>, DeviceError> {
    if lo >= hi {
        return Ok(Vec::new());
    }
    let reqs: Vec<(FileId, u64, usize)> = (lo..hi).map(|p| (file, p, 0)).collect();
    let pages = ssd.read_batch(&reqs)?;
    let mut out = Vec::new();
    let mut useful = 0u64;
    for page in &pages {
        useful += decode_log_page(page, &ANY_DEST, &mut out)? as u64;
    }
    ssd.declare_useful(useful);
    Ok(out)
}

/// Append `updates` to `file` as full log pages (one charged batch) of
/// absolute-destination records, with the source only when `has_src`.
pub fn write_log_pages(
    ssd: &Ssd,
    file: FileId,
    updates: &[Update],
    has_src: bool,
) -> Result<(), DeviceError> {
    if updates.is_empty() {
        return Ok(());
    }
    let pages = pack_pages(updates, ssd.page_size(), has_src, false);
    let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
    ssd.append_pages(file, &refs)?;
    Ok(())
}

/// Reduce a dest-sorted vector with `combine`, one update per destination.
fn reduce_sorted(updates: Vec<Update>, f: Combine) -> Vec<Update> {
    let mut out: Vec<Update> = Vec::with_capacity(updates.len());
    for u in updates {
        match out.last_mut() {
            Some(last) if last.dest == u.dest => {
                last.data = f(last.data, u.data);
                last.src = u32::MAX;
            }
            _ => out.push(u),
        }
    }
    out
}

/// Streaming k-way merge of sorted run files into `out`, stable by
/// (dest, run index). `buf_pages` = pages fetched per refill per run.
fn merge_runs(
    ssd: &Ssd,
    runs: &[FileId],
    out: FileId,
    combine: Option<Combine>,
    has_src: bool,
    buf_pages: u64,
) -> Result<(), DeviceError> {
    struct Cursor {
        file: FileId,
        next_page: u64,
        total_pages: u64,
        buf: Vec<Update>,
        pos: usize,
    }
    impl Cursor {
        fn refill(&mut self, ssd: &Ssd, buf_pages: u64) -> Result<(), DeviceError> {
            if self.pos < self.buf.len() || self.next_page >= self.total_pages {
                return Ok(());
            }
            let hi = (self.next_page + buf_pages).min(self.total_pages);
            self.buf = read_log_pages(ssd, self.file, self.next_page, hi)?;
            self.pos = 0;
            self.next_page = hi;
            Ok(())
        }
        fn peek(&self) -> Option<Update> {
            self.buf.get(self.pos).copied()
        }
    }

    let mut cursors: Vec<Cursor> = Vec::with_capacity(runs.len());
    for &f in runs {
        cursors.push(Cursor {
            file: f,
            next_page: 0,
            total_pages: ssd.num_pages(f)?,
            buf: Vec::new(),
            pos: 0,
        });
    }
    for c in cursors.iter_mut() {
        c.refill(ssd, buf_pages)?;
    }

    // Min-heap keyed by (dest, run index) — Reverse for BinaryHeap.
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, usize)>> = cursors
        .iter()
        .enumerate()
        .filter_map(|(k, c)| c.peek().map(|u| std::cmp::Reverse((u.dest, k))))
        .collect();

    let flush_at = (buf_pages as usize).max(1) * page_capacity(ssd.page_size(), has_src);
    let mut outbuf: Vec<Update> = Vec::with_capacity(flush_at);
    while let Some(std::cmp::Reverse((_, k))) = heap.pop() {
        // The heap only holds cursors whose peek succeeded.
        let Some(u) = cursors[k].peek() else { continue };
        cursors[k].pos += 1;
        cursors[k].refill(ssd, buf_pages)?;
        if let Some(next) = cursors[k].peek() {
            heap.push(std::cmp::Reverse((next.dest, k)));
        }
        match (combine, outbuf.last_mut()) {
            (Some(f), Some(last)) if last.dest == u.dest => {
                last.data = f(last.data, u.data);
                last.src = u32::MAX;
            }
            _ => {
                // Never split a destination group across a flush when
                // reducing; without combine, groups may span pages freely.
                if outbuf.len() >= flush_at
                    && outbuf.last().map(|l| l.dest) != Some(u.dest)
                {
                    write_log_pages(ssd, out, &outbuf, has_src)?;
                    outbuf.clear();
                }
                outbuf.push(u);
            }
        }
    }
    write_log_pages(ssd, out, &outbuf, has_src)
}

/// Streaming group iterator over a [`Sorted`] log: yields ascending
/// `(dest, updates)` groups while holding only a bounded window in memory.
pub struct SortedGroups<'a> {
    ssd: &'a Ssd,
    source: Source,
    buf: Vec<Update>,
    pos: usize,
    buf_pages: u64,
}

enum Source {
    Mem,
    Disk { file: FileId, next_page: u64, total_pages: u64 },
}

impl<'a> SortedGroups<'a> {
    pub fn new(ssd: &'a Ssd, sorted: Sorted, buf_pages: u64) -> Result<Self, DeviceError> {
        Ok(match sorted {
            Sorted::InMemory(buf) => SortedGroups {
                ssd,
                source: Source::Mem,
                buf,
                pos: 0,
                buf_pages,
            },
            Sorted::OnDisk { file, .. } => SortedGroups {
                ssd,
                source: Source::Disk { file, next_page: 0, total_pages: ssd.num_pages(file)? },
                buf: Vec::new(),
                pos: 0,
                buf_pages: buf_pages.max(1),
            },
        })
    }

    fn refill(&mut self) -> Result<(), DeviceError> {
        if let Source::Disk { file, next_page, total_pages } = &mut self.source {
            while self.buf.len() - self.pos < 2 && *next_page < *total_pages {
                let hi = (*next_page + self.buf_pages).min(*total_pages);
                self.buf.drain(..self.pos);
                self.pos = 0;
                let mut more = read_log_pages(self.ssd, *file, *next_page, hi)?;
                self.buf.append(&mut more);
                *next_page = hi;
            }
        }
        Ok(())
    }

    /// Next `(dest, updates)` group, ascending by destination.
    pub fn next_group(&mut self) -> Result<Option<(u32, Vec<Update>)>, DeviceError> {
        self.refill()?;
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        let dest = self.buf[self.pos].dest;
        let mut group = Vec::new();
        loop {
            while self.pos < self.buf.len() && self.buf[self.pos].dest == dest {
                group.push(self.buf[self.pos]);
                self.pos += 1;
            }
            if self.pos >= self.buf.len() {
                // Group may continue in the next disk chunk.
                let before = self.buf.len() - self.pos;
                self.refill()?;
                if self.buf.len() - self.pos == before {
                    break;
                }
            } else {
                break;
            }
        }
        Ok(Some((dest, group)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_ssd::SsdConfig;

    fn ssd() -> Ssd {
        Ssd::new(SsdConfig::test_small())
    }

    fn write_updates(ssd: &Ssd, name: &str, ups: &[Update]) -> FileId {
        let f = ssd.open_or_create(name).unwrap();
        write_log_pages(ssd, f, ups, true).unwrap();
        f
    }

    fn gen_updates(n: usize, spread: u32) -> Vec<Update> {
        (0..n)
            .map(|k| Update::new((k as u32).wrapping_mul(2_654_435_761) % spread, k as u32, k as u64))
            .collect()
    }

    #[test]
    fn small_log_sorts_in_memory() {
        let ssd = ssd();
        let ups = gen_updates(30, 8);
        let f = write_updates(&ssd, "log", &ups);
        let (sorted, stats) = external_sort(&ssd, f, 1 << 20, None, true, "t").unwrap();
        assert!(stats.in_memory);
        match sorted {
            Sorted::InMemory(v) => {
                assert_eq!(v.len(), 30);
                assert!(v.windows(2).all(|w| w[0].dest <= w[1].dest));
            }
            _ => panic!("expected in-memory"),
        }
        assert_eq!(ssd.num_pages(f).unwrap(), 0, "input consumed");
    }

    #[test]
    fn large_log_goes_external_and_stays_sorted() {
        let ssd = ssd();
        // 1500 updates; budget of 4 pages (15 records each) forces runs.
        let ups = gen_updates(1500, 64);
        let f = write_updates(&ssd, "log", &ups);
        let (sorted, stats) = external_sort(&ssd, f, 4 * 256, None, true, "t").unwrap();
        assert!(!stats.in_memory);
        assert!(stats.runs > 1, "runs {}", stats.runs);
        assert!(stats.merge_passes >= 1);
        let mut groups = SortedGroups::new(&ssd, sorted, 2).unwrap();
        let mut count = 0;
        let mut last = None;
        while let Some((d, g)) = groups.next_group().unwrap() {
            if let Some(l) = last {
                assert!(d > l, "ascending groups");
            }
            last = Some(d);
            count += g.len();
        }
        assert_eq!(count, 1500, "no update lost");
    }

    #[test]
    fn external_sort_is_stable_within_destination() {
        let ssd = ssd();
        // All to one destination: order must equal insertion order.
        let ups: Vec<Update> = (0..200).map(|k| Update::new(7, k, k as u64)).collect();
        let f = write_updates(&ssd, "log", &ups);
        let (sorted, _) = external_sort(&ssd, f, 4 * 256, None, true, "t").unwrap();
        let mut groups = SortedGroups::new(&ssd, sorted, 2).unwrap();
        let (d, g) = groups.next_group().unwrap().unwrap();
        assert_eq!(d, 7);
        assert_eq!(g, ups);
        assert!(groups.next_group().unwrap().is_none());
    }

    #[test]
    fn sort_reduce_merges_with_combine() {
        let ssd = ssd();
        let ups: Vec<Update> = (0..500).map(|k| Update::new(k % 10, k, 1)).collect();
        let f = write_updates(&ssd, "log", &ups);
        let (sorted, _) = external_sort(&ssd, f, 4 * 256, Some(u64::wrapping_add as _), true, "t").unwrap();
        let mut groups = SortedGroups::new(&ssd, sorted, 2).unwrap();
        let mut seen = 0;
        while let Some((_, g)) = groups.next_group().unwrap() {
            assert_eq!(g.len(), 1, "sort-reduce leaves one update per dest");
            assert_eq!(g[0].data, 50);
            seen += 1;
        }
        assert_eq!(seen, 10);
    }

    #[test]
    fn external_sort_charges_more_io_than_in_memory() {
        let cfg = SsdConfig::test_small();
        let ups = gen_updates(3000, 128);

        let ssd1 = Ssd::new(cfg.clone());
        let f1 = write_updates(&ssd1, "log", &ups);
        ssd1.stats().reset();
        let (s1, _) = external_sort(&ssd1, f1, 1 << 20, None, true, "t").unwrap();
        let mut g1 = SortedGroups::new(&ssd1, s1, 4).unwrap();
        while g1.next_group().unwrap().is_some() {}
        let cheap = ssd1.stats().snapshot().io_time_ns();

        let ssd2 = Ssd::new(cfg);
        let f2 = write_updates(&ssd2, "log", &ups);
        ssd2.stats().reset();
        let (s2, _) = external_sort(&ssd2, f2, 4 * 256, None, true, "t").unwrap();
        let mut g2 = SortedGroups::new(&ssd2, s2, 4).unwrap();
        while g2.next_group().unwrap().is_some() {}
        let expensive = ssd2.stats().snapshot().io_time_ns();

        assert!(
            expensive > 2 * cheap,
            "external {expensive} vs in-memory {cheap}"
        );
    }

    #[test]
    fn empty_log_sorts_to_nothing() {
        let ssd = ssd();
        let f = ssd.open_or_create("log").unwrap();
        let (sorted, stats) = external_sort(&ssd, f, 1 << 20, None, true, "t").unwrap();
        assert!(stats.in_memory);
        let mut groups = SortedGroups::new(&ssd, sorted, 2).unwrap();
        assert!(groups.next_group().unwrap().is_none());
    }
}
