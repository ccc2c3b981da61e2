//! Shadow-slot checkpoint manager.
//!
//! Two slots (A/B), each a `(manifest, data)` file pair, alternate across
//! checkpoints. A write goes entirely to the slot *not* holding the latest
//! valid checkpoint: data segments first, the one-page manifest last. Only
//! when the manifest page lands intact does the new checkpoint become the
//! recovery candidate — a crash anywhere before that (including a torn
//! manifest page) leaves the other slot's checkpoint untouched and fully
//! valid.
//!
//! Recovery ([`CheckpointManager::load_latest`]) considers both slots,
//! prefers the higher sequence number, and falls back to the other slot if
//! the preferred one fails any CRC — the case where a crash destroyed the
//! in-flight slot's old contents before the new manifest landed.

use std::sync::Arc;

use mlvc_ssd::checked::{mem_idx, to_u64};
use mlvc_ssd::{DeviceError, FileId, Page, Ssd};

use crate::crc::crc32;
use crate::manifest::{
    Manifest, SegmentDesc, NUM_SEGMENTS, SEG_ACTIVE, SEG_MSGS, SEG_STATES,
};

/// Everything a checkpoint captures about a run, in engine-neutral form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointState {
    /// Superstep whose close-out was captured; resume at `superstep + 1`.
    pub superstep: u64,
    /// Whether the next superstep processes every vertex.
    pub all_active: bool,
    /// Per-vertex state words.
    pub states: Vec<u64>,
    /// Self-activated-vertex bitset, bit `v` = byte `v / 8`, bit `v % 8`.
    pub active_bits: Vec<u8>,
    /// Pending multi-log pages per vertex interval, verbatim as read from
    /// the log's read side (page-encoded update records) — the lent pages
    /// themselves, not copies.
    pub msgs: Vec<Vec<Page>>,
}

impl CheckpointState {
    /// Build the active bitset from a sorted self-active vertex list.
    pub fn bits_from_vertices(num_vertices: usize, vs: &[u32]) -> Vec<u8> {
        let mut bits = vec![0u8; num_vertices.div_ceil(8)];
        for &v in vs {
            let i = mem_idx(u64::from(v));
            bits[i / 8] |= 1 << (i % 8);
        }
        bits
    }

    /// Decode the active bitset back to a sorted vertex list.
    pub fn vertices_from_bits(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (byte_idx, &b) in self.active_bits.iter().enumerate() {
            if b == 0 {
                continue;
            }
            for bit in 0..8 {
                if b & (1 << bit) != 0 {
                    if let Ok(v) = u32::try_from(byte_idx * 8 + bit) {
                        out.push(v);
                    }
                }
            }
        }
        out
    }
}

/// See the module docs. One manager per run tag; the device files are
/// `<tag>.ckpt.manifest.{a,b}` and `<tag>.ckpt.data.{a,b}`.
pub struct CheckpointManager {
    ssd: Arc<Ssd>,
    manifest_files: [FileId; 2],
    data_files: [FileId; 2],
    next_slot: usize,
    next_seq: u64,
}

impl CheckpointManager {
    /// Open (or create) the slot files under `tag` and scan for existing
    /// checkpoints so the next write targets the non-latest slot.
    pub fn open(ssd: &Arc<Ssd>, tag: &str) -> Result<Self, DeviceError> {
        let manifest_files = [
            ssd.open_or_create(&format!("{tag}.ckpt.manifest.a"))?,
            ssd.open_or_create(&format!("{tag}.ckpt.manifest.b"))?,
        ];
        let data_files = [
            ssd.open_or_create(&format!("{tag}.ckpt.data.a"))?,
            ssd.open_or_create(&format!("{tag}.ckpt.data.b"))?,
        ];
        let mut mgr = CheckpointManager {
            ssd: Arc::clone(ssd),
            manifest_files,
            data_files,
            next_slot: 0,
            next_seq: 1,
        };
        if let Some((slot, manifest)) = mgr.latest_valid_slot()? {
            mgr.next_slot = 1 - slot;
            mgr.next_seq = manifest.seq + 1;
        }
        Ok(mgr)
    }

    /// Sequence number the next [`Self::write`] will stamp.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Write `state` as a new checkpoint. Returns its sequence number.
    /// Ordering: data segments first, manifest page last — the commit
    /// point is the final (manifest) page write.
    pub fn write(&mut self, state: &CheckpointState) -> Result<u64, DeviceError> {
        let slot = self.next_slot;
        let seq = self.next_seq;

        let seg_bytes: [Vec<u8>; NUM_SEGMENTS] = [
            encode_states(&state.states),
            state.active_bits.clone(),
            encode_msgs(&state.msgs),
        ];
        let mut segments = [SegmentDesc::default(); NUM_SEGMENTS];
        for (desc, bytes) in segments.iter_mut().zip(&seg_bytes) {
            desc.len = to_u64(bytes.len());
            desc.crc = crc32(bytes);
        }

        let data = self.data_files[slot];
        self.ssd.truncate(data)?;
        let page_size = self.ssd.page_size();
        for bytes in &seg_bytes {
            if bytes.is_empty() {
                continue;
            }
            let pages: Vec<&[u8]> = bytes.chunks(page_size).collect();
            self.ssd.append_pages(data, &pages)?;
        }

        let manifest = Manifest {
            seq,
            superstep: state.superstep,
            num_vertices: to_u64(state.states.len()),
            all_active: state.all_active,
            segments,
        };
        let mf = self.manifest_files[slot];
        self.ssd.truncate(mf)?;
        self.ssd.append_page(mf, &manifest.encode())?;

        self.next_slot = 1 - slot;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Load the latest fully valid checkpoint, or `None` when no slot
    /// holds one. Header *and* every segment CRC must check out; a slot
    /// failing either is skipped in favour of the other.
    pub fn load_latest(&self) -> Result<Option<(u64, CheckpointState)>, DeviceError> {
        match self.latest_valid_slot()? {
            None => Ok(None),
            Some((slot, manifest)) => {
                let state = self.read_state(slot, &manifest)?;
                Ok(Some((manifest.seq, state)))
            }
        }
    }

    /// Best valid slot: decodable manifest, all segment CRCs pass, highest
    /// sequence number wins.
    fn latest_valid_slot(&self) -> Result<Option<(usize, Manifest)>, DeviceError> {
        let mut best: Option<(usize, Manifest)> = None;
        for slot in 0..2 {
            let Some(manifest) = self.read_manifest(slot)? else {
                continue;
            };
            if !self.segments_valid(slot, &manifest)? {
                continue;
            }
            if best.as_ref().is_none_or(|(_, b)| manifest.seq > b.seq) {
                best = Some((slot, manifest));
            }
        }
        Ok(best)
    }

    fn read_manifest(&self, slot: usize) -> Result<Option<Manifest>, DeviceError> {
        let f = self.manifest_files[slot];
        if self.ssd.num_pages(f)? == 0 {
            return Ok(None);
        }
        let page = self.ssd.read_page(f, 0, self.ssd.page_size())?;
        Manifest::decode(&page)
            .map_err(|e| DeviceError::Corrupt { what: "checkpoint", detail: e.to_string() })
    }

    fn segments_valid(&self, slot: usize, manifest: &Manifest) -> Result<bool, DeviceError> {
        let mut start_page = 0u64;
        for desc in &manifest.segments {
            let bytes = match self.read_segment(slot, start_page, desc.len) {
                Ok(b) => b,
                // A crash mid-write can leave the data file shorter than
                // the stale manifest claims; that is invalidity, not a
                // device failure.
                Err(DeviceError::OutOfBounds { .. }) => return Ok(false),
                Err(e) => return Err(e),
            };
            if crc32(&bytes) != desc.crc {
                return Ok(false);
            }
            start_page += desc.len.div_ceil(to_u64(self.ssd.page_size()));
        }
        Ok(true)
    }

    fn read_segment(&self, slot: usize, start_page: u64, len: u64) -> Result<Vec<u8>, DeviceError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let page_size = to_u64(self.ssd.page_size());
        let n_pages = len.div_ceil(page_size);
        let file = self.data_files[slot];
        let reqs: Vec<(FileId, u64, usize)> = (0..n_pages)
            .map(|p| {
                let useful = page_size.min(len - p * page_size);
                (file, start_page + p, mem_idx(useful))
            })
            .collect();
        let pages = self.ssd.read_batch(&reqs)?;
        let mut out = Vec::with_capacity(mem_idx(len));
        for page in &pages {
            out.extend_from_slice(page);
        }
        out.truncate(mem_idx(len));
        Ok(out)
    }

    fn read_state(&self, slot: usize, manifest: &Manifest) -> Result<CheckpointState, DeviceError> {
        let page_size = to_u64(self.ssd.page_size());
        let mut start_page = 0u64;
        let mut segs: Vec<Vec<u8>> = Vec::with_capacity(NUM_SEGMENTS);
        for desc in &manifest.segments {
            segs.push(self.read_segment(slot, start_page, desc.len)?);
            start_page += desc.len.div_ceil(page_size);
        }
        let msgs = decode_msgs(&segs[SEG_MSGS], mem_idx(page_size));
        Ok(CheckpointState {
            superstep: manifest.superstep,
            all_active: manifest.all_active,
            states: decode_states(&segs[SEG_STATES]),
            active_bits: segs[SEG_ACTIVE].clone(),
            msgs,
        })
    }
}

fn encode_states(states: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(states.len() * 8);
    for &s in states {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

fn decode_states(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .filter_map(|c| c.try_into().ok().map(u64::from_le_bytes))
        .collect()
}

/// Segment layout: `[u64 interval count][u64 page count per interval…]`
/// followed by every page verbatim (each exactly one device page long), in
/// interval order.
fn encode_msgs(msgs: &[Vec<Page>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&to_u64(msgs.len()).to_le_bytes());
    for pages in msgs {
        out.extend_from_slice(&to_u64(pages.len()).to_le_bytes());
    }
    for pages in msgs {
        for page in pages {
            out.extend_from_slice(page);
        }
    }
    out
}

fn decode_msgs(bytes: &[u8], page_size: usize) -> Vec<Vec<Page>> {
    let Some(n) = read_u64_at(bytes, 0) else {
        return Vec::new();
    };
    let n = mem_idx(n);
    let mut counts = Vec::with_capacity(n);
    for k in 0..n {
        match read_u64_at(bytes, (k + 1) * 8) {
            Some(c) => counts.push(mem_idx(c)),
            None => return Vec::new(),
        }
    }
    let mut off = (n + 1) * 8;
    let mut out = Vec::with_capacity(n);
    for count in counts {
        let mut pages = Vec::with_capacity(count);
        for _ in 0..count {
            match bytes.get(off..off + page_size) {
                Some(p) => pages.push(Page::from(p)),
                None => return Vec::new(),
            }
            off += page_size;
        }
        out.push(pages);
    }
    out
}

fn read_u64_at(buf: &[u8], off: usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(off..off + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_ssd::{FaultPlan, SsdConfig};

    fn ssd() -> Arc<Ssd> {
        Arc::new(Ssd::new(SsdConfig::test_small()))
    }

    fn sample_state(superstep: u64) -> CheckpointState {
        let n = 100usize;
        let states: Vec<u64> = (0..n).map(|v| to_u64(v) * 31 + superstep).collect();
        let active_bits = CheckpointState::bits_from_vertices(n, &[3, 17, 64]);
        // Two intervals: one with a fake log page, one empty.
        let msgs = vec![vec![Page::from(&[0xABu8; 256][..])], vec![]];
        CheckpointState { superstep, all_active: false, states, active_bits, msgs }
    }

    #[test]
    fn write_then_load_roundtrip() {
        let ssd = ssd();
        let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
        let state = sample_state(4);
        let seq = mgr.write(&state).unwrap();
        let (got_seq, got) = mgr.load_latest().unwrap().unwrap();
        assert_eq!(got_seq, seq);
        assert_eq!(got, state);
        assert_eq!(got.vertices_from_bits(), vec![3, 17, 64]);
    }

    #[test]
    fn empty_device_has_no_checkpoint() {
        let ssd = ssd();
        let mgr = CheckpointManager::open(&ssd, "t").unwrap();
        assert!(mgr.load_latest().unwrap().is_none());
    }

    #[test]
    fn slots_alternate_and_latest_wins() {
        let ssd = ssd();
        let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
        mgr.write(&sample_state(2)).unwrap();
        mgr.write(&sample_state(4)).unwrap();
        mgr.write(&sample_state(6)).unwrap();
        let (seq, got) = mgr.load_latest().unwrap().unwrap();
        assert_eq!(seq, 3);
        assert_eq!(got.superstep, 6);
    }

    #[test]
    fn reopen_resumes_sequence_numbers() {
        let ssd = ssd();
        let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
        mgr.write(&sample_state(2)).unwrap();
        mgr.write(&sample_state(4)).unwrap();
        let mgr2 = CheckpointManager::open(&ssd, "t").unwrap();
        assert_eq!(mgr2.next_seq(), 3);
        assert_eq!(mgr2.load_latest().unwrap().unwrap().1.superstep, 4);
    }

    #[test]
    fn crash_at_every_page_of_a_checkpoint_preserves_the_previous_one() {
        // Count the pages a checkpoint write takes, then replay with a
        // crash at each one. Whatever page the crash hits, recovery must
        // still see checkpoint #1 intact.
        let ssd = ssd();
        let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
        mgr.write(&sample_state(2)).unwrap();
        let writes_before = ssd.fault_counters().page_writes;
        mgr.write(&sample_state(4)).unwrap();
        let ckpt_pages = ssd.fault_counters().page_writes - writes_before;
        assert!(ckpt_pages >= 3, "states + active + msgs + manifest");

        for crash_at in 1..=ckpt_pages {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
            mgr.write(&sample_state(2)).unwrap();
            ssd.install_fault_plan(FaultPlan::crash_after(crash_at, 99));
            let err = mgr.write(&sample_state(4)).unwrap_err();
            assert_eq!(err, DeviceError::Crashed);
            ssd.revive();
            let mgr = CheckpointManager::open(&ssd, "t").unwrap();
            let (seq, got) = mgr.load_latest().unwrap().unwrap_or_else(|| {
                panic!("crash at page {crash_at} destroyed the previous checkpoint")
            });
            if crash_at < ckpt_pages {
                // Crash before the manifest write: checkpoint #2 cannot
                // have committed.
                assert_eq!(seq, 1, "crash at page {crash_at}");
                assert_eq!(got, sample_state(2));
            } else {
                // The manifest page itself was torn. If the torn prefix
                // happened to keep the whole header, checkpoint #2
                // legitimately committed; either way the recovered state
                // must be bit-exact.
                match seq {
                    1 => assert_eq!(got, sample_state(2)),
                    2 => assert_eq!(got, sample_state(4)),
                    other => panic!("impossible recovered seq {other}"),
                }
            }
            // And the next write after recovery still succeeds.
            let mut mgr = mgr;
            mgr.write(&sample_state(6)).unwrap();
            assert_eq!(mgr.load_latest().unwrap().unwrap().1.superstep, 6);
        }
    }

    #[test]
    fn corrupt_segment_falls_back_to_other_slot() {
        let ssd = ssd();
        let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
        mgr.write(&sample_state(2)).unwrap(); // slot A, seq 1
        mgr.write(&sample_state(4)).unwrap(); // slot B, seq 2
        // Corrupt slot B's data file (first page of the states segment).
        let f = ssd.open_or_create("t.ckpt.data.b").unwrap();
        ssd.write_page(f, 0, &vec![0xFFu8; 256]).unwrap();
        let (seq, got) = mgr.load_latest().unwrap().unwrap();
        assert_eq!(seq, 1, "must fall back to the intact slot");
        assert_eq!(got.superstep, 2);
    }

    #[test]
    fn previous_format_checkpoint_is_refused_with_a_typed_error() {
        use crate::manifest::{MAGIC_BYTES, MANIFEST_CRC_BYTES, MANIFEST_HEADER_BYTES};
        let ssd = ssd();
        let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
        mgr.write(&sample_state(2)).unwrap();
        // Re-stamp the manifest as version 1 (valid CRC): its pending
        // messages would be fixed-width pages this build cannot decode.
        let f = ssd.open_or_create("t.ckpt.manifest.a").unwrap();
        let mut page = ssd.read_page(f, 0, 0).unwrap().to_vec();
        page.truncate(MANIFEST_HEADER_BYTES - MANIFEST_CRC_BYTES);
        page[MAGIC_BYTES..MAGIC_BYTES + 4].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&page);
        page.extend_from_slice(&crc.to_le_bytes());
        ssd.write_page(f, 0, &page).unwrap();
        for err in [mgr.load_latest().unwrap_err(), CheckpointManager::open(&ssd, "t").err().unwrap()] {
            assert!(
                matches!(&err, DeviceError::Corrupt { what: "checkpoint", detail } if detail.contains("version 1")),
                "{err}"
            );
        }
    }

    #[test]
    fn empty_msgs_and_states_roundtrip() {
        let ssd = ssd();
        let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
        let state = CheckpointState {
            superstep: 1,
            all_active: true,
            states: Vec::new(),
            active_bits: Vec::new(),
            msgs: Vec::new(),
        };
        mgr.write(&state).unwrap();
        assert_eq!(mgr.load_latest().unwrap().unwrap().1, state);
    }
}
