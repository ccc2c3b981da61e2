use std::ops::Range;
use std::time::Instant;

use mlvc_graph::{IntervalId, VertexId};
use mlvc_par::par_sort_by_key;

use crate::checked::{idx, to_u32, to_u64};
use crate::multilog::{BatchPlan, LogReader};
use crate::{Update, UPDATE_BYTES};
use mlvc_ssd::DeviceError;

/// One fused group of consecutive interval logs, loaded and sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedBatch {
    pub range: Range<IntervalId>,
    /// Updates sorted by destination; insertion order preserved within a
    /// destination (stable sort) — required by algorithms that consume
    /// every message individually.
    pub updates: Vec<Update>,
    /// Wall-clock nanoseconds spent reading + decoding the fused logs, and
    /// sorting them in memory. Reference timings surfaced through
    /// `SuperstepStats`; experiment claims use simulated device time, never
    /// these.
    pub load_ns: u64,
    pub sort_ns: u64,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Stable counting sort by destination over one interval's span
/// `[lo, hi)`. The span is a dense, narrow vertex range, so one counting
/// pass replaces the whole-inbox radix sort — the read half of sort-reduce
/// folding. Per-destination order is untouched (the sort is stable), so the
/// result is bit-identical to a stable comparison sort by `dest`.
pub fn counting_sort_by_dest(ups: &mut Vec<Update>, lo: VertexId, hi: VertexId) {
    if ups.len() <= 1 {
        return;
    }
    debug_assert!(ups.iter().all(|u| u.dest >= lo && u.dest < hi));
    let width = idx(hi - lo);
    // counts[d+1] accumulates dest d's multiplicity; the prefix sum turns
    // it into each destination's first output slot.
    let mut counts = vec![0usize; width + 1];
    for u in ups.iter() {
        counts[idx(u.dest - lo) + 1] += 1;
    }
    for k in 1..counts.len() {
        counts[k] += counts[k - 1];
    }
    let mut out = vec![ups[0]; ups.len()];
    for &u in ups.iter() {
        let slot = &mut counts[idx(u.dest - lo)];
        out[*slot] = u;
        *slot += 1;
    }
    *ups = out;
}

/// Plan interval fusing (paper §V-A2, §V-B): walk intervals in order and
/// fuse consecutive ones while the estimated log volume (`count ×
/// UPDATE_BYTES`, from the per-interval message counters) fits in the sort
/// budget. Every interval lands in exactly one contiguous range; an
/// interval whose own log exceeds the budget gets a range of its own.
pub fn plan_fusion(counts: &[u64], sort_budget_bytes: usize) -> Vec<Range<IntervalId>> {
    assert!(sort_budget_bytes >= UPDATE_BYTES);
    // Interval counts are bounded by the (u32) vertex count, so the id
    // conversion cannot saturate in practice.
    let interval_id = |n: usize| to_u32("interval id", n).unwrap_or(IntervalId::MAX);
    let budget = to_u64(sort_budget_bytes);
    let ub = to_u64(UPDATE_BYTES);
    let mut plan = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        let bytes = c * ub;
        if i > start && acc + bytes > budget {
            plan.push(interval_id(start)..interval_id(i));
            start = i;
            acc = 0;
        }
        acc += bytes;
    }
    if start < counts.len() {
        plan.push(interval_id(start)..interval_id(counts.len()));
    }
    plan
}

/// The Sort & Group Unit (paper §V-B): loads fused interval logs and sorts
/// them **in host memory** — the step that replaces GraFBoost's external
/// sort.
pub struct SortGroup {
    sort_budget_bytes: usize,
    reference_sort: bool,
    fold_merge: bool,
}

impl SortGroup {
    pub fn new(sort_budget_bytes: usize) -> Self {
        assert!(sort_budget_bytes >= UPDATE_BYTES);
        SortGroup { sort_budget_bytes, reference_sort: false, fold_merge: false }
    }

    /// Sort batches with the comparison merge sort instead of the radix
    /// sort. Both are stable by destination, so the output is bit-identical
    /// — the switch exists so the engine's pre-pipeline reference mode
    /// (`bench_engine` baseline) measures the sort the old engine ran.
    pub fn set_reference_sort(&mut self, yes: bool) {
        self.reference_sort = yes;
    }

    /// Fold-merge read side (sort-reduce folding): sort each interval's
    /// log with [`counting_sort_by_dest`] over its own narrow span, then
    /// merge. Interval destination spans are disjoint and ascending, so
    /// the stable multi-way merge degenerates to concatenation — the
    /// whole-inbox `par_sort_by_u32_key` disappears. Output is
    /// bit-identical to the global stable sort (per-destination order is
    /// preserved by both), so this composes with any multi-log layout;
    /// it is cheapest when the logs were page-bucketed at append time
    /// (`MultiLogConfig::fold_scatter`).
    pub fn set_fold_merge(&mut self, yes: bool) {
        self.fold_merge = yes;
    }

    pub fn sort_budget_bytes(&self) -> usize {
        self.sort_budget_bytes
    }

    /// Plan fusion for the given pending counts.
    pub fn plan(&self, counts: &[u64]) -> Vec<Range<IntervalId>> {
        plan_fusion(counts, self.sort_budget_bytes)
    }

    /// Load every log in `range` (the paper's `LoadLog`), concatenate in
    /// interval order, and stable-sort by destination in parallel.
    ///
    /// Takes a [`LogReader`] rather than the `MultiLog` itself so the
    /// engine's prefetch thread can load batch *k+1* while the owner is
    /// still scattering batch *k*'s updates into the write side.
    pub fn load_batch(
        &self,
        reader: &LogReader,
        range: Range<IntervalId>,
    ) -> Result<FusedBatch, DeviceError> {
        let t_load = Instant::now();
        let mut per: Vec<Vec<Update>> = Vec::with_capacity(range.len());
        for i in range.clone() {
            per.push(reader.take_log(i)?);
        }
        let load_ns = elapsed_ns(t_load);
        let t_sort = Instant::now();
        let updates = self.sort_fused(reader, range.start, per);
        Ok(FusedBatch { range, updates, load_ns, sort_ns: elapsed_ns(t_sort) })
    }

    /// [`Self::load_batch`] over pages already fetched through an
    /// [`mlvc_ssd::IoQueue`]: decode, truncate, and account via
    /// [`LogReader::take_prefetched`], then sort exactly as `load_batch`
    /// would. Runs on whichever worker joins the completion — the device
    /// read itself already happened (and was charged) at submission.
    pub fn load_batch_prefetched(
        &self,
        reader: &LogReader,
        plan: &BatchPlan,
        pages: &[Vec<u8>],
    ) -> Result<FusedBatch, DeviceError> {
        if self.fold_merge {
            // Fused decode + counting sort straight off the page bytes:
            // bit-identical to the decode-then-sort path below, but each
            // record is touched twice (histogram, place) instead of four
            // times (decode-append, histogram, permute, concatenate).
            let (updates, load_ns, sort_ns) = reader.take_prefetched_sorted(plan, pages)?;
            return Ok(FusedBatch { range: plan.range.clone(), updates, load_ns, sort_ns });
        }
        let t_load = Instant::now();
        let per = reader.take_prefetched(plan, pages)?;
        let load_ns = elapsed_ns(t_load);
        let t_sort = Instant::now();
        let updates = self.sort_fused(reader, plan.range.start, per);
        Ok(FusedBatch {
            range: plan.range.clone(),
            updates,
            load_ns,
            sort_ns: elapsed_ns(t_sort),
        })
    }

    /// Shared sort tail over per-interval record vectors (in log order,
    /// starting at interval `first`). Stable by destination either way:
    /// messages to one vertex keep their log order, so non-combinable
    /// algorithms see a deterministic message sequence. Fold-merge sorts
    /// per interval and concatenates (spans are disjoint, ascending);
    /// otherwise destinations are dense vertex ids, so the radix sort
    /// wins, with the comparison merge sort as the bit-identical
    /// reference path.
    fn sort_fused(
        &self,
        reader: &LogReader,
        first: IntervalId,
        per: Vec<Vec<Update>>,
    ) -> Vec<Update> {
        let total = per.iter().map(Vec::len).sum();
        let mut updates = Vec::with_capacity(total);
        if self.fold_merge {
            // Counting-sort each interval directly into its slice of the
            // fused output (spans are disjoint and ascending, so the merge
            // is just placement) — one permute pass over the records, no
            // per-interval scratch vector. The counts buffer is reused
            // across intervals.
            updates.resize(total, Update::new(0, 0, 0));
            let mut counts: Vec<usize> = Vec::new();
            let mut base = 0usize;
            for (k, ups) in per.iter().enumerate() {
                let i = first + to_u32("interval id", k).unwrap_or(IntervalId::MAX);
                let span = reader.intervals().range(i);
                let lo = span.start;
                let width = idx(span.end - lo);
                counts.clear();
                counts.resize(width + 1, 0);
                for u in ups {
                    counts[idx(u.dest - lo) + 1] += 1;
                }
                for w in 1..counts.len() {
                    counts[w] += counts[w - 1];
                }
                let out = &mut updates[base..base + ups.len()];
                for &u in ups {
                    let slot = &mut counts[idx(u.dest - lo)];
                    out[*slot] = u;
                    *slot += 1;
                }
                base += ups.len();
            }
            return updates;
        }
        for ups in per {
            updates.extend(ups);
        }
        if self.reference_sort {
            par_sort_by_key(&mut updates, |u| u.dest);
        } else {
            mlvc_par::par_sort_by_u32_key(&mut updates, |u| u.dest);
        }
        updates
    }
}

/// Iterate `(dest, messages)` groups over a dest-sorted update slice — the
/// "group" half of the sort & group unit. Each group is the full set of
/// messages bound for one vertex, preserved individually (§V-D).
pub fn group_by_dest(sorted: &[Update]) -> impl Iterator<Item = (VertexId, &[Update])> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos >= sorted.len() {
            return None;
        }
        let dest = sorted[pos].dest;
        let start = pos;
        while pos < sorted.len() && sorted[pos].dest == dest {
            pos += 1;
        }
        Some((dest, &sorted[start..pos]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultiLog, MultiLogConfig};
    use mlvc_graph::VertexIntervals;
    use mlvc_ssd::{Ssd, SsdConfig};
    use mlvc_gen::rng::SeededRng;
    use std::sync::Arc;

    #[test]
    fn fusion_respects_budget() {
        // counts in updates; budget of 10 updates = 160 bytes.
        let counts = vec![4, 4, 4, 20, 1, 1, 1, 1];
        let plan = plan_fusion(&counts, 160);
        // 4+4 fits (8), adding third 4 = 12 > 10 -> split; 20 alone; rest fuse.
        assert_eq!(plan, vec![0..2, 2..3, 3..4, 4..8]);
        // Coverage: every interval exactly once, in order.
        let flat: Vec<u32> = plan.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(flat, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn oversized_interval_gets_own_range() {
        let plan = plan_fusion(&[1000, 1], 160);
        assert_eq!(plan, vec![0..1, 1..2]);
    }

    #[test]
    fn empty_counts_plan_nothing_extra() {
        let plan = plan_fusion(&[0, 0, 0], 160);
        assert_eq!(plan, vec![0..3], "idle intervals all fuse into one batch");
    }

    #[test]
    fn group_by_dest_partitions_exactly() {
        let sorted = vec![
            Update::new(1, 9, 0),
            Update::new(1, 8, 1),
            Update::new(3, 7, 2),
            Update::new(9, 6, 3),
            Update::new(9, 5, 4),
        ];
        let groups: Vec<(u32, usize)> = group_by_dest(&sorted).map(|(d, g)| (d, g.len())).collect();
        assert_eq!(groups, vec![(1, 2), (3, 1), (9, 2)]);
    }

    #[test]
    fn load_batch_sorts_stably() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(100, 4);
        let mut ml = MultiLog::new(ssd, iv, MultiLogConfig::default(), "sg").unwrap();
        // Interleaved sends to two destinations in interval 0.
        ml.send(Update::new(5, 100, 0)).unwrap();
        ml.send(Update::new(3, 200, 1)).unwrap();
        ml.send(Update::new(5, 101, 2)).unwrap();
        ml.send(Update::new(3, 201, 3)).unwrap();
        ml.finish_superstep().unwrap();
        let sg = SortGroup::new(1 << 20);
        let batch = sg.load_batch(&ml.reader(), 0..1).unwrap();
        assert_eq!(
            batch.updates,
            vec![
                Update::new(3, 200, 1),
                Update::new(3, 201, 3),
                Update::new(5, 100, 0),
                Update::new(5, 101, 2),
            ]
        );
    }

    /// DESIGN.md invariant: messages inserted == messages retrieved
    /// (multiset), grouped exactly by destination, insertion order
    /// preserved within each destination — for any send pattern, any
    /// (tiny) buffer pressure, and every (append layout × read side)
    /// combination: unfolded/folded scatter × global-sort/fold-merge.
    /// All four produce bit-identical sorted inboxes. Randomized over 64
    /// seeded cases.
    #[test]
    fn multilog_sort_group_roundtrip() {
        let mut rng = SeededRng::seed_from_u64(0x4D4C_0006);
        for _case in 0..64 {
            let n_sends = rng.gen_range(0usize..300);
            let sends: Vec<(u32, u32, u64)> = (0..n_sends)
                .map(|_| (rng.gen_range(0u32..64), rng.gen_range(0u32..64), rng.next_u64()))
                .collect();
            let buffer_pages = rng.gen_range(4usize..16);

            let mut inboxes: Vec<Vec<Update>> = Vec::new();
            for (fold_scatter, fold_merge) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
                let iv = VertexIntervals::uniform(64, 4);
                let mut ml = MultiLog::new(
                    ssd,
                    iv,
                    MultiLogConfig { buffer_bytes: buffer_pages * 256, fold_scatter, reads_src: true },
                    "p",
                )
                .unwrap();
                for &(d, s, x) in &sends {
                    ml.send(Update::new(d, s, x)).unwrap();
                }
                let counts = ml.finish_superstep().unwrap();
                assert_eq!(counts.iter().sum::<u64>() as usize, sends.len());

                let mut sg = SortGroup::new(1 << 20);
                sg.set_fold_merge(fold_merge);
                let reader = ml.reader();
                let mut collected = Vec::new();
                for r in sg.plan(&counts) {
                    let batch = sg.load_batch(&reader, r).unwrap();
                    for (dest, group) in group_by_dest(&batch.updates) {
                        // Group order must equal insertion order for that
                        // dest, regardless of append-time bucketing.
                        let expect: Vec<Update> = sends
                            .iter()
                            .filter(|&&(d, _, _)| d == dest)
                            .map(|&(d, s, x)| Update::new(d, s, x))
                            .collect();
                        assert_eq!(group, expect.as_slice());
                        collected.extend_from_slice(group);
                    }
                }
                assert_eq!(collected.len(), sends.len());
                inboxes.push(collected);
            }
            for later in &inboxes[1..] {
                assert_eq!(&inboxes[0], later, "inbox differs across fold layouts");
            }
        }
    }

    #[test]
    fn counting_sort_matches_stable_sort_oracle() {
        let mut rng = SeededRng::seed_from_u64(0xC0_0817);
        for _case in 0..64 {
            let lo = rng.gen_range(0u32..50);
            let hi = lo + rng.gen_range(1u32..40);
            let n = rng.gen_range(0usize..400);
            // src doubles as an insertion-order tag for the stability check.
            let mut ups: Vec<Update> = (0..n)
                .map(|k| Update::new(rng.gen_range(lo..hi), to_u32("tag", k).unwrap(), rng.next_u64()))
                .collect();
            let mut oracle = ups.clone();
            oracle.sort_by_key(|u| u.dest); // std stable sort
            counting_sort_by_dest(&mut ups, lo, hi);
            assert_eq!(ups, oracle);
        }
    }

    /// The queue read path (plan on the owner, fetch through the device,
    /// decode via `take_prefetched`) yields the same batch as the direct
    /// `load_batch`, and the plan enumerates exactly the pages the direct
    /// path reads.
    #[test]
    fn prefetched_load_matches_direct_load() {
        for fold in [false, true] {
            let ssds: Vec<Arc<Ssd>> =
                (0..2).map(|_| Arc::new(Ssd::new(SsdConfig::test_small()))).collect();
            let mut mls: Vec<MultiLog> = ssds
                .iter()
                .enumerate()
                .map(|(k, ssd)| {
                    let iv = VertexIntervals::uniform(100, 4);
                    MultiLog::new(
                        Arc::clone(ssd),
                        iv,
                        MultiLogConfig { buffer_bytes: 8 * 256, fold_scatter: fold, reads_src: true },
                        &format!("tw{k}"),
                    )
                    .unwrap()
                })
                .collect();
            let mut rng = SeededRng::seed_from_u64(0x9E7C_0008);
            let sends: Vec<Update> = (0..500)
                .map(|_| Update::new(rng.gen_range(0u32..100), rng.gen_range(0u32..100), rng.next_u64()))
                .collect();
            let mut counts = Vec::new();
            for ml in mls.iter_mut() {
                for &u in &sends {
                    ml.send(u).unwrap();
                }
                counts = ml.finish_superstep().unwrap();
            }
            let mut sg = SortGroup::new(4 * 256);
            sg.set_fold_merge(fold);
            let (direct, queued) = (mls[0].reader(), mls[1].reader());
            for r in sg.plan(&counts) {
                let want = sg.load_batch(&direct, r.clone()).unwrap();
                let plan = queued.plan_reads(r).unwrap();
                let before = ssds[1].stats().snapshot().pages_read;
                let pages = ssds[1].read_batch(&plan.reqs).unwrap();
                assert_eq!(
                    ssds[1].stats().snapshot().pages_read - before,
                    to_u64(plan.reqs.len()),
                    "plan covers exactly the log's pages"
                );
                let got = sg.load_batch_prefetched(&queued, &plan, &pages).unwrap();
                assert_eq!(got.range, want.range);
                assert_eq!(got.updates, want.updates, "fold={fold}");
            }
            // Both drains truncated the read side identically.
            assert_eq!(mls[0].stats().updates_read, mls[1].stats().updates_read);
        }
    }
}
