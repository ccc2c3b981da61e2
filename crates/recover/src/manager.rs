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
//! Recovery ([`CheckpointManager::open`]) considers both slots, prefers
//! the higher sequence number, and falls back to the other slot if the
//! preferred one fails any CRC — the case where a crash destroyed the
//! in-flight slot's old contents before the new manifest landed. The scan
//! reads each slot once and keeps the state it accepts, which
//! [`CheckpointManager::load_latest`] hands out.

use std::sync::Arc;

use mlvc_ssd::checked::{mem_idx, to_u64};
use mlvc_ssd::{DeviceError, FileId, Page, Ssd};

use crate::commit::{read_u64, CommitSlots};
use crate::crc::crc32;
use crate::manifest::{
    Manifest, RunIdentity, SegmentDesc, CKPT_RECORD, NUM_SEGMENTS, SEG_ACTIVE, SEG_MSGS,
    SEG_STATES,
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
/// `<tag>.ckpt.manifest.{a,b}` (the commit record's two slots) and
/// `<tag>.ckpt.data.{a,b}`.
pub struct CheckpointManager {
    ssd: Arc<Ssd>,
    manifests: CommitSlots,
    data_files: [FileId; 2],
    /// The newest valid checkpoint, its sequence number and identity: the
    /// one the opening scan accepted, then each one written.
    latest: Option<(u64, CheckpointState, RunIdentity)>,
    /// The identity each checkpoint written records.
    identity: RunIdentity,
}

impl CheckpointManager {
    /// Open (or create) the slot files under `tag` and scan for existing
    /// checkpoints — reading every slot page once and decoding the newest
    /// valid one — so the next write targets the non-latest slot.
    pub fn open(ssd: &Arc<Ssd>, tag: &str) -> Result<Self, DeviceError> {
        let names = [format!("{tag}.ckpt.manifest.a"), format!("{tag}.ckpt.manifest.b")];
        let mut manifests = CommitSlots::open(ssd, names, CKPT_RECORD)?;
        let data_files = [
            ssd.open_or_create(&format!("{tag}.ckpt.data.a"))?,
            ssd.open_or_create(&format!("{tag}.ckpt.data.b"))?,
        ];
        let latest = manifests
            .scan(|slot, seq, body| accept(ssd, data_files[slot], seq, body))?
            .map(|(_, seq, (state, identity))| (seq, state, identity));
        let identity = RunIdentity::default();
        Ok(CheckpointManager { ssd: Arc::clone(ssd), manifests, data_files, latest, identity })
    }

    /// Record `identity` in every checkpoint written from now on (a manager
    /// opened and never identified records the default: no program, graph
    /// 0).
    pub fn identify(&mut self, identity: RunIdentity) {
        self.identity = identity;
    }

    /// What the latest valid checkpoint is of.
    pub fn latest_identity(&self) -> Option<&RunIdentity> {
        self.latest.as_ref().map(|(_, _, identity)| identity)
    }

    /// Sequence number the next [`Self::write`] will stamp.
    pub fn next_seq(&self) -> u64 {
        self.manifests.next_seq()
    }

    /// Write `state` as a new checkpoint. Returns its sequence number.
    /// Ordering: data segments first, manifest page last — the commit
    /// point is the final (manifest) page write.
    pub fn write(&mut self, state: &CheckpointState) -> Result<u64, DeviceError> {
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

        let data = self.data_files[self.manifests.next_slot()];
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
            seq: self.manifests.next_seq(),
            superstep: state.superstep,
            num_vertices: to_u64(state.states.len()),
            all_active: state.all_active,
            identity: self.identity.clone(),
            segments,
        };
        let seq = self.manifests.commit(&manifest.body())?;
        self.latest = Some((seq, state.clone(), manifest.identity));
        Ok(seq)
    }

    /// The latest fully valid checkpoint, or `None` when no slot holds
    /// one: what [`Self::open`]'s scan accepted — header *and* every
    /// segment CRC checked out, a slot failing either skipped in favour of
    /// the other — or the last one this manager wrote. No device I/O.
    pub fn load_latest(&self) -> Result<Option<(u64, CheckpointState)>, DeviceError> {
        Ok(self.latest.as_ref().map(|(seq, state, _)| (*seq, state.clone())))
    }
}

/// The state a slot's commit record describes, and its identity, if every
/// segment checks out in the slot's data file `data`.
fn accept(
    ssd: &Ssd,
    data: FileId,
    seq: u64,
    body: &[u8],
) -> Result<Option<(CheckpointState, RunIdentity)>, DeviceError> {
    let Some(manifest) = Manifest::from_body(seq, body) else {
        return Ok(None);
    };
    let page_size = ssd.page_size();
    let mut start_page = 0u64;
    let mut segs: Vec<Vec<u8>> = Vec::with_capacity(NUM_SEGMENTS);
    for desc in &manifest.segments {
        let bytes = match read_segment(ssd, data, start_page, desc.len) {
            Ok(b) => b,
            // A crash mid-write can leave the data file shorter than the
            // stale manifest claims; that is invalidity, not a device
            // failure.
            Err(DeviceError::OutOfBounds { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        if crc32(&bytes) != desc.crc {
            return Ok(None);
        }
        start_page += desc.len.div_ceil(to_u64(page_size));
        segs.push(bytes);
    }
    let state = CheckpointState {
        superstep: manifest.superstep,
        all_active: manifest.all_active,
        states: decode_states(&segs[SEG_STATES]),
        active_bits: std::mem::take(&mut segs[SEG_ACTIVE]),
        msgs: decode_msgs(&segs[SEG_MSGS], page_size),
    };
    Ok(Some((state, manifest.identity)))
}

fn read_segment(
    ssd: &Ssd,
    data: FileId,
    start_page: u64,
    len: u64,
) -> Result<Vec<u8>, DeviceError> {
    if len == 0 {
        return Ok(Vec::new());
    }
    let page_size = to_u64(ssd.page_size());
    let n_pages = len.div_ceil(page_size);
    let reqs: Vec<(FileId, u64, usize)> = (0..n_pages)
        .map(|p| {
            let useful = page_size.min(len - p * page_size);
            (data, start_page + p, mem_idx(useful))
        })
        .collect();
    let pages = ssd.read_batch(&reqs)?;
    let mut out = Vec::with_capacity(mem_idx(len));
    for page in &pages {
        out.extend_from_slice(page);
    }
    out.truncate(mem_idx(len));
    Ok(out)
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
    let Some(n) = read_u64(bytes, 0) else {
        return Vec::new();
    };
    let n = mem_idx(n);
    let mut counts = Vec::with_capacity(n);
    for k in 0..n {
        match read_u64(bytes, (k + 1) * 8) {
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

    /// A checkpoint keeps the identity its manager was given, across a
    /// reopen; an unidentified manager records the default.
    #[test]
    fn a_checkpoint_records_its_run_identity() {
        let ssd = ssd();
        let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
        mgr.write(&sample_state(2)).unwrap();
        assert_eq!(mgr.latest_identity(), Some(&RunIdentity::default()));
        let id = RunIdentity::new("randomwalk", 0xFEED_F00D_0000_0001);
        mgr.identify(id.clone());
        mgr.write(&sample_state(4)).unwrap();
        let reopened = CheckpointManager::open(&ssd, "t").unwrap();
        assert_eq!(reopened.latest_identity(), Some(&id));
        assert_eq!(reopened.load_latest().unwrap().unwrap().1, sample_state(4));
        // A name longer than the field is cut at a character boundary.
        let long = "ä".repeat(20);
        assert_eq!(RunIdentity::new(&long, 1).program(), "ä".repeat(16));
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
        let mgr = CheckpointManager::open(&ssd, "t").unwrap();
        let (seq, got) = mgr.load_latest().unwrap().unwrap();
        assert_eq!(seq, 1, "must fall back to the intact slot");
        assert_eq!(got.superstep, 2);
    }

    /// A resume reads the checkpoint once: over two valid slots, `open`
    /// plus `load_latest` read each manifest and data page exactly once.
    #[test]
    fn open_and_load_read_each_slot_page_once() {
        let ssd = ssd();
        let mut mgr = CheckpointManager::open(&ssd, "t").unwrap();
        mgr.write(&sample_state(2)).unwrap();
        mgr.write(&sample_state(4)).unwrap();
        let slot_pages: u64 = ["manifest.a", "manifest.b", "data.a", "data.b"]
            .iter()
            .map(|f| ssd.num_pages(ssd.lookup(&format!("t.ckpt.{f}")).unwrap()).unwrap())
            .sum();
        ssd.stats().reset();
        let mgr = CheckpointManager::open(&ssd, "t").unwrap();
        let (seq, got) = mgr.load_latest().unwrap().unwrap();
        assert_eq!((seq, got), (2, sample_state(4)));
        assert_eq!(ssd.stats().snapshot().pages_read, slot_pages);
    }

    #[test]
    fn previous_format_checkpoint_is_refused_with_a_typed_error() {
        use crate::manifest::{MAGIC_BYTES, MANIFEST_CRC_BYTES, MANIFEST_HEADER_BYTES};
        let ssd = ssd();
        CheckpointManager::open(&ssd, "t").unwrap().write(&sample_state(2)).unwrap();
        // Re-stamp the manifest as version 1 (valid CRC): its pending
        // messages would be fixed-width pages this build cannot decode.
        let f = ssd.open_or_create("t.ckpt.manifest.a").unwrap();
        let mut page = ssd.read_page(f, 0, 0).unwrap().to_vec();
        page.truncate(MANIFEST_HEADER_BYTES - MANIFEST_CRC_BYTES);
        page[MAGIC_BYTES..MAGIC_BYTES + 4].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&page);
        page.extend_from_slice(&crc.to_le_bytes());
        ssd.write_page(f, 0, &page).unwrap();
        let err = CheckpointManager::open(&ssd, "t").err().unwrap();
        assert!(
            matches!(&err, DeviceError::Corrupt { what: "checkpoint", detail } if detail.contains("version 1")),
            "{err}"
        );
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
