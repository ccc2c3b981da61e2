//! Interval fusion (paper §V-B): which consecutive interval logs one
//! fused batch drains ([`plan_fusion`]), the batch they decode to
//! ([`FusedBatch`]) and its per-destination groups ([`group_by_dest`]).
//! Reading and decoding are `MultiLog::plan_reads` and `BatchPlan::decode`'s
//! (DESIGN.md §12).

use std::ops::Range;

use mlvc_graph::{IntervalId, VertexId};

use crate::checked::{to_u32, to_u64};
use crate::{Update, UPDATE_BYTES};

/// One fused group of consecutive interval logs, loaded and sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedBatch {
    pub range: Range<IntervalId>,
    /// Updates sorted by destination; insertion order preserved within a
    /// destination (stable sort) — required by algorithms that consume
    /// every message individually. Under a `combine` the decode folded them:
    /// at most one per destination, holding the reduction of its records in
    /// that same order.
    pub updates: Vec<Update>,
    /// Log records the batch was decoded from — `updates.len()` unless they
    /// were folded. What the engine counts as consumed and charges the sort
    /// cost for.
    pub records: u64,
    /// Wall-clock nanoseconds spent reading + decoding the fused logs, and
    /// sorting them in memory. Reference timings surfaced through
    /// `SuperstepStats`; experiment claims use simulated device time, never
    /// these.
    pub load_ns: u64,
    pub sort_ns: u64,
    /// Header + record bytes of the pages the batch was decoded from —
    /// what [`MultiLog::consume`](crate::MultiLog::consume) declares as useful.
    pub useful_bytes: u64,
}

/// Plan interval fusing (paper §V-A2, §V-B): walk intervals in order and
/// fuse consecutive ones while the estimated log volume (`count ×
/// UPDATE_BYTES`, from the per-interval message counters) fits in the sort
/// budget. Every interval lands in exactly one contiguous range; an
/// interval whose own log exceeds the budget gets a range of its own — so a
/// budget below one record leaves every interval alone.
pub fn plan_fusion(counts: &[u64], sort_budget_bytes: usize) -> Vec<Range<IntervalId>> {
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
    use crate::multilog::tests::drain_range;
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
    fn drain_sorts_stably() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(100, 4);
        let mut ml = MultiLog::new(ssd, iv, MultiLogConfig::default(), "sg").unwrap();
        // Interleaved sends to two destinations in interval 0.
        ml.send(Update::new(5, 100, 0)).unwrap();
        ml.send(Update::new(3, 200, 1)).unwrap();
        ml.send(Update::new(5, 101, 2)).unwrap();
        ml.send(Update::new(3, 201, 3)).unwrap();
        ml.finish_superstep().unwrap();
        let batch = drain_range(&mut ml, 0..1).unwrap();
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
    /// preserved within each destination — for any send pattern and any
    /// (tiny) buffer pressure. Randomized over 64 seeded cases.
    #[test]
    fn multilog_sort_group_roundtrip() {
        let mut rng = SeededRng::seed_from_u64(0x4D4C_0006);
        for _case in 0..64 {
            let n_sends = rng.gen_range(0usize..300);
            let sends: Vec<(u32, u32, u64)> = (0..n_sends)
                .map(|_| (rng.gen_range(0u32..64), rng.gen_range(0u32..64), rng.next_u64()))
                .collect();
            let buffer_pages = rng.gen_range(4usize..16);

            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let iv = VertexIntervals::uniform(64, 4);
            let mut ml = MultiLog::new(
                ssd,
                iv,
                MultiLogConfig { buffer_bytes: buffer_pages * 256, ..Default::default() },
                "p",
            )
            .unwrap();
            for &(d, s, x) in &sends {
                ml.send(Update::new(d, s, x)).unwrap();
            }
            let counts = ml.finish_superstep().unwrap();
            assert_eq!(counts.iter().sum::<u64>() as usize, sends.len());

            let mut collected = 0usize;
            for r in plan_fusion(&counts, 1 << 20) {
                let batch = drain_range(&mut ml, r).unwrap();
                for (dest, group) in group_by_dest(&batch.updates) {
                    // Group order must equal insertion order for that
                    // dest, regardless of append-time bucketing.
                    let expect: Vec<Update> = sends
                        .iter()
                        .filter(|&&(d, _, _)| d == dest)
                        .map(|&(d, s, x)| Update::new(d, s, x))
                        .collect();
                    assert_eq!(group, expect.as_slice());
                    collected += group.len();
                }
            }
            assert_eq!(collected, sends.len());
        }
    }
}
