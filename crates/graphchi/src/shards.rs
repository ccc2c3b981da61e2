use std::sync::Arc;

use mlvc_graph::{Csr, IntervalId, VertexIntervals, VertexId};
use mlvc_ssd::{DeviceError, FileId, Ssd};

/// One edge record in a shard: source, destination, the message value
/// riding on the edge, and the superstep that wrote it (0 = never).
///
/// 20 bytes on storage — comparable to GraphChi's `(src, dst, edge value)`
/// triples (Fig. 1b shows exactly this layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    pub src: VertexId,
    pub dst: VertexId,
    pub data: u64,
    pub tag: u32,
}

/// Encoded size of one shard record.
pub const SHARD_RECORD_BYTES: usize = 20;

impl ShardRecord {
    pub fn encode(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.src.to_le_bytes());
        out[4..8].copy_from_slice(&self.dst.to_le_bytes());
        out[8..16].copy_from_slice(&self.data.to_le_bytes());
        out[16..20].copy_from_slice(&self.tag.to_le_bytes());
    }

    /// Decode from a fixed-layout page slice. A short buffer decodes to
    /// zeroed fields rather than panicking mid-superstep.
    pub fn decode(buf: &[u8]) -> Self {
        ShardRecord {
            src: le_u32(buf, 0),
            dst: le_u32(buf, 4),
            data: le_u64(buf, 8),
            tag: le_u32(buf, 16),
        }
    }
}

fn le_u32(buf: &[u8], off: usize) -> u32 {
    buf.get(off..off + 4)
        .and_then(|s| s.try_into().ok())
        .map_or(0, u32::from_le_bytes)
}

fn le_u64(buf: &[u8], off: usize) -> u64 {
    buf.get(off..off + 8)
        .and_then(|s| s.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// Records per page (records never straddle pages).
pub fn records_per_page(page_size: usize) -> usize {
    page_size / SHARD_RECORD_BYTES
}

/// The shard layout of a graph (paper Fig. 1b): `shards[i]` holds every
/// in-edge of vertex interval `i`, sorted by `(src, dst)`, plus the block
/// index `blocks[i][j]` = record range within shard `i` whose sources lie
/// in interval `j` (the sliding-window ranges).
pub struct ShardSet {
    ssd: Arc<Ssd>,
    intervals: VertexIntervals,
    files: Vec<FileId>,
    record_counts: Vec<usize>,
    /// `blocks[shard][src_interval]` = (first, last+1) record index.
    blocks: Vec<Vec<(usize, usize)>>,
}

impl ShardSet {
    /// Shard `graph` under the given interval partition.
    pub fn build(
        ssd: &Arc<Ssd>,
        graph: &Csr,
        intervals: VertexIntervals,
        tag: &str,
    ) -> Result<Self, DeviceError> {
        assert_eq!(intervals.num_vertices(), graph.num_vertices());
        let ni = intervals.num_intervals();
        // Bucket in-edges by destination interval.
        let mut buckets: Vec<Vec<ShardRecord>> = vec![Vec::new(); ni];
        for (src, dst) in graph.edges() {
            buckets[intervals.interval_of(dst) as usize].push(ShardRecord {
                src,
                dst,
                data: 0,
                tag: 0,
            });
        }
        let mut files = Vec::with_capacity(ni);
        let mut record_counts = Vec::with_capacity(ni);
        let mut blocks = Vec::with_capacity(ni);
        let per_page = records_per_page(ssd.page_size());
        for (i, mut records) in buckets.into_iter().enumerate() {
            records.sort_unstable_by_key(|r| (r.src, r.dst));
            // Block index per source interval.
            let mut b = Vec::with_capacity(ni);
            for j in intervals.iter_ids() {
                let lo = records.partition_point(|r| r.src < intervals.start(j));
                let hi = records.partition_point(|r| r.src < intervals.end(j));
                b.push((lo, hi));
            }
            let file = ssd.open_or_create(&format!("{tag}.shard.{i}"))?;
            ssd.truncate(file)?;
            let mut pages: Vec<Vec<u8>> = Vec::with_capacity(records.len().div_ceil(per_page));
            for chunk in records.chunks(per_page) {
                let mut buf = vec![0u8; chunk.len() * SHARD_RECORD_BYTES];
                for (k, r) in chunk.iter().enumerate() {
                    r.encode(&mut buf[k * SHARD_RECORD_BYTES..(k + 1) * SHARD_RECORD_BYTES]);
                }
                pages.push(buf);
            }
            let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
            if !refs.is_empty() {
                ssd.append_pages(file, &refs)?;
            }
            files.push(file);
            record_counts.push(records.len());
            blocks.push(b);
        }
        Ok(ShardSet { ssd: Arc::clone(ssd), intervals, files, record_counts, blocks })
    }

    pub fn ssd(&self) -> &Arc<Ssd> {
        &self.ssd
    }

    pub fn intervals(&self) -> &VertexIntervals {
        &self.intervals
    }

    /// Record range in `shard` whose sources lie in `src_interval`.
    pub fn block(&self, shard: IntervalId, src_interval: IntervalId) -> (usize, usize) {
        self.blocks[shard as usize][src_interval as usize]
    }

    fn per_page(&self) -> usize {
        records_per_page(self.ssd.page_size())
    }

    /// Record range of `shard` that processing `interval` loads: the whole
    /// shard when it is the interval's own (the in-edge load; utilization
    /// is complete by construction — that is the GraphChi design point),
    /// else the block of the interval's out-edges (a sliding window).
    pub(crate) fn window(&self, shard: IntervalId, interval: IntervalId) -> (usize, usize) {
        if shard == interval {
            (0, self.record_counts[shard as usize])
        } else {
            self.block(shard, interval)
        }
    }

    /// Load the records of `shard` covering record range `[lo, hi)` —
    /// page-aligned, so boundary records outside the range are included
    /// (and must be written back unchanged). Returns `(records, first_page)`
    /// where `records` covers the whole page span.
    pub fn load_range(
        &self,
        shard: IntervalId,
        lo: usize,
        hi: usize,
    ) -> Result<(Vec<ShardRecord>, u64), DeviceError> {
        if lo >= hi {
            return Ok((Vec::new(), 0));
        }
        let per_page = self.per_page();
        let p_lo = (lo / per_page) as u64;
        let p_hi = ((hi - 1) / per_page) as u64;
        let file = self.files[shard as usize];
        let total = self.record_counts[shard as usize];
        let reqs: Vec<(FileId, u64, usize)> = (p_lo..=p_hi)
            .map(|p| {
                let recs = per_page.min(total - (p as usize) * per_page);
                (file, p, recs * SHARD_RECORD_BYTES)
            })
            .collect();
        let pages = self.ssd.read_batch(&reqs)?;
        let mut out = Vec::with_capacity(pages.len() * per_page);
        for (k, page) in pages.iter().enumerate() {
            let base = (p_lo as usize + k) * per_page;
            let recs = per_page.min(total - base);
            for e in 0..recs {
                out.push(ShardRecord::decode(
                    &page[e * SHARD_RECORD_BYTES..(e + 1) * SHARD_RECORD_BYTES],
                ));
            }
        }
        Ok((out, p_lo))
    }

    /// Write back the dirty pages of a loaded span, page-aligned: `records`
    /// must cover complete pages starting at `first_page` (as returned by
    /// [`Self::load_range`]), and `dirty[k]` refers to page
    /// `first_page + k`. One batched dispatch. Real GraphChi deployments
    /// track modified blocks; the paper "maximized GraphChi performance",
    /// so the baseline gets the same courtesy.
    pub fn write_back_dirty(
        &self,
        shard: IntervalId,
        first_page: u64,
        records: &[ShardRecord],
        dirty: &[bool],
    ) -> Result<(), DeviceError> {
        if records.is_empty() {
            return Ok(());
        }
        let per_page = self.per_page();
        assert_eq!(dirty.len(), records.len().div_ceil(per_page));
        let file = self.files[shard as usize];
        let mut bufs: Vec<(u64, Vec<u8>)> = Vec::new();
        for (k, chunk) in records.chunks(per_page).enumerate() {
            if !dirty[k] {
                continue;
            }
            let mut buf = vec![0u8; chunk.len() * SHARD_RECORD_BYTES];
            for (e, r) in chunk.iter().enumerate() {
                r.encode(&mut buf[e * SHARD_RECORD_BYTES..(e + 1) * SHARD_RECORD_BYTES]);
            }
            bufs.push((first_page + k as u64, buf));
        }
        if bufs.is_empty() {
            return Ok(());
        }
        let writes: Vec<(FileId, u64, &[u8])> =
            bufs.iter().map(|(p, b)| (file, *p, b.as_slice())).collect();
        self.ssd.write_batch(&writes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_graph::EdgeListBuilder;
    use mlvc_ssd::SsdConfig;

    fn fig1_graph() -> Csr {
        // The paper's example: (1→2,4), (3→1,2), (6→1,2,3,4,5), 7 vertices.
        let mut b = EdgeListBuilder::new(7);
        for (s, d) in [(1, 2), (1, 4), (3, 1), (3, 2), (6, 1), (6, 2), (6, 3), (6, 4), (6, 5)] {
            b.push(s, d);
        }
        b.build()
    }

    fn build() -> ShardSet {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        // Paper Fig. 1b intervals: {1}, {2}, {3..6} — we add vertex 0 to
        // the first interval to keep 0-based ids.
        let iv = VertexIntervals::from_starts(vec![0, 2, 3, 7]);
        ShardSet::build(&ssd, &fig1_graph(), iv, "t").unwrap()
    }

    /// Every record of `shard`: the window of its own interval.
    fn whole(s: &ShardSet, shard: IntervalId) -> Vec<ShardRecord> {
        let (lo, hi) = s.window(shard, shard);
        s.load_range(shard, lo, hi).unwrap().0
    }

    #[test]
    fn record_roundtrip() {
        let r = ShardRecord { src: 3, dst: 9, data: 0xABCD, tag: 7 };
        let mut buf = [0u8; SHARD_RECORD_BYTES];
        r.encode(&mut buf);
        assert_eq!(ShardRecord::decode(&buf), r);
    }

    #[test]
    fn shards_match_paper_fig1b() {
        let s = build();
        assert_eq!(s.intervals().num_intervals(), 3);
        // Shard 1 (interval {2}): in-edges of 2 from 1, 3, 6 sorted by src.
        let shard1 = whole(&s, 1);
        let srcs: Vec<u32> = shard1.iter().map(|r| r.src).collect();
        assert_eq!(srcs, vec![1, 3, 6]);
        assert!(shard1.iter().all(|r| r.dst == 2));
        // Shard 2 (interval 3..6): in-edges of 3, 4, 5 — from 1 and 6.
        let shard2 = whole(&s, 2);
        assert_eq!(shard2.len(), 4);
        assert!(shard2.windows(2).all(|w| (w[0].src, w[0].dst) <= (w[1].src, w[1].dst)));
    }

    #[test]
    fn blocks_partition_each_shard_by_source_interval() {
        let s = build();
        for i in 0..3u32 {
            let mut total = 0;
            let mut expected_start = 0;
            for j in 0..3u32 {
                let (lo, hi) = s.block(i, j);
                assert_eq!(lo, expected_start, "blocks must tile shard {i}");
                expected_start = hi;
                total += hi - lo;
            }
            assert_eq!((0, total), s.window(i, i));
        }
        // V6's out-edges are dispersed across all three shards (paper §II-A).
        let out6: usize = (0..3u32)
            .map(|i| {
                let (lo, hi) = s.block(i, 2);
                whole(&s, i)[lo..hi].iter().filter(|r| r.src == 6).count()
            })
            .sum();
        assert_eq!(out6, 5);
    }

    #[test]
    fn load_range_and_write_back_roundtrip() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        // 60 edges into one interval -> several pages (12 records/page).
        let mut b = EdgeListBuilder::new(64);
        for v in 1..61u32 {
            b.push(v, 0);
        }
        let s = ShardSet::build(&ssd, &b.build(), VertexIntervals::uniform(64, 2), "t").unwrap();
        assert_eq!(s.window(0, 0), (0, 60));
        let (mut recs, first) = s.load_range(0, 13, 27).unwrap();
        assert_eq!(first, 1, "record 13 lives on page 1");
        assert_eq!(recs.len(), 24, "pages 1-2 hold records 12..36");
        for r in recs.iter_mut() {
            r.data = r.src as u64 * 10;
            r.tag = 5;
        }
        s.write_back_dirty(0, first, &recs, &[true, true]).unwrap();
        let (back, _) = s.load_range(0, 12, 36).unwrap();
        assert_eq!(back, recs);
        // Outside the span untouched.
        let (head, _) = s.load_range(0, 0, 12).unwrap();
        assert!(head.iter().all(|r| r.tag == 0));
    }

    #[test]
    fn empty_shard_is_fine() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(8);
        b.push(4, 5); // no in-edges for interval 0
        let s = ShardSet::build(&ssd, &b.build(), VertexIntervals::uniform(8, 2), "t").unwrap();
        assert_eq!(s.window(0, 0), (0, 0));
        assert!(whole(&s, 0).is_empty());
    }
}
