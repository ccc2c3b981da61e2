//! Checkpoint manifest: the single page that makes a checkpoint durable.
//!
//! A checkpoint consists of a **data file** holding page-aligned segments
//! (vertex states, active bitset, pending multi-log pages) and a one-page
//! **manifest** describing and checksumming them. The manifest is written
//! *last*: until it lands intact, the checkpoint does not exist. Two
//! manifest/data slot pairs (A/B) alternate so the previous checkpoint is
//! never overwritten while the next one is being written — a crash at any
//! page of the new checkpoint leaves the old slot untouched and its
//! manifest still valid.
//!
//! Layout of the manifest page (all little-endian, total
//! [`MANIFEST_HEADER_BYTES`]; the rest of the page is zero):
//!
//! | field          | width                     |
//! |----------------|---------------------------|
//! | magic          | [`MAGIC_BYTES`]           |
//! | version        | [`VERSION_BYTES`]         |
//! | seq            | [`SEQ_BYTES`]             |
//! | superstep      | [`SUPERSTEP_BYTES`]       |
//! | num_vertices   | [`NUM_VERTICES_BYTES`]    |
//! | flags          | [`FLAGS_BYTES`]           |
//! | segment descs  | [`NUM_SEGMENTS`] × [`SEGMENT_DESC_BYTES`] |
//! | manifest crc   | [`MANIFEST_CRC_BYTES`]    |
//!
//! The manifest CRC covers every preceding header byte, so a torn manifest
//! page (fault injection tears at a seed-derived byte) is detected and the
//! slot is simply skipped during recovery.

use crate::crc::crc32;

/// Magic number opening every checkpoint manifest: `"MLVCCKPT"` as
/// big-endian ASCII.
pub const CKPT_MAGIC: u64 = 0x4D4C_5643_434B_5054;

/// On-disk checkpoint format version. Version 2 is version 1 with the
/// pending-messages segment holding `mlvc_log::page` pages (8-byte header,
/// 10–16-byte records) instead of fixed 16-byte-record pages; the manifest
/// itself is unchanged.
pub const CKPT_VERSION: u32 = 2;

/// An intact manifest written in a checkpoint format this build does not
/// read (its segments cannot be interpreted, so it is refused rather than
/// skipped like a torn one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedVersion(pub u32);

impl std::fmt::Display for UnsupportedVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "format version {}, this build reads version {CKPT_VERSION}", self.0)
    }
}

impl std::error::Error for UnsupportedVersion {}

/// Width of the magic field.
pub const MAGIC_BYTES: usize = 8;
/// Width of the version field.
pub const VERSION_BYTES: usize = 4;
/// Width of the checkpoint sequence number.
pub const SEQ_BYTES: usize = 8;
/// Width of the superstep field.
pub const SUPERSTEP_BYTES: usize = 8;
/// Width of the vertex-count field.
pub const NUM_VERTICES_BYTES: usize = 8;
/// Width of the flags field (bit 0: all-active superstep pending).
pub const FLAGS_BYTES: usize = 4;
/// Width of one segment descriptor: byte length (u64) + CRC-32 (u32).
pub const SEGMENT_DESC_BYTES: usize = 12;
/// Segments per checkpoint: vertex states | active bitset | pending
/// multi-log pages.
pub const NUM_SEGMENTS: usize = 3;
/// Width of the trailing manifest CRC.
pub const MANIFEST_CRC_BYTES: usize = 4;

/// Total manifest header size; must fit in one device page.
pub const MANIFEST_HEADER_BYTES: usize = MAGIC_BYTES
    + VERSION_BYTES
    + SEQ_BYTES
    + SUPERSTEP_BYTES
    + NUM_VERTICES_BYTES
    + FLAGS_BYTES
    + NUM_SEGMENTS * SEGMENT_DESC_BYTES
    + MANIFEST_CRC_BYTES;

/// Index of the vertex-state segment.
pub const SEG_STATES: usize = 0;
/// Index of the active-bitset segment.
pub const SEG_ACTIVE: usize = 1;
/// Index of the pending-multi-log segment.
pub const SEG_MSGS: usize = 2;

const FLAG_ALL_ACTIVE: u32 = 1;

/// One segment of the checkpoint data file: its exact byte length and the
/// CRC-32 of those bytes. Segments are stored back to back, each starting
/// on a page boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentDesc {
    pub len: u64,
    pub crc: u32,
}

/// Decoded manifest header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonically increasing checkpoint number; the valid slot with the
    /// larger `seq` is the recovery candidate.
    pub seq: u64,
    /// Superstep whose close-out this checkpoint captured; execution
    /// resumes at `superstep + 1`.
    pub superstep: u64,
    pub num_vertices: u64,
    /// Whether the *next* superstep is an all-active one.
    pub all_active: bool,
    pub segments: [SegmentDesc; NUM_SEGMENTS],
}

impl Manifest {
    /// Serialize to exactly [`MANIFEST_HEADER_BYTES`] bytes, trailing CRC
    /// included.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(MANIFEST_HEADER_BYTES);
        buf.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.superstep.to_le_bytes());
        buf.extend_from_slice(&self.num_vertices.to_le_bytes());
        let flags: u32 = if self.all_active { FLAG_ALL_ACTIVE } else { 0 };
        buf.extend_from_slice(&flags.to_le_bytes());
        for seg in &self.segments {
            buf.extend_from_slice(&seg.len.to_le_bytes());
            buf.extend_from_slice(&seg.crc.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(buf.len(), MANIFEST_HEADER_BYTES);
        buf
    }

    /// Parse a manifest page. `Ok(None)` for anything that is not an
    /// intact manifest — short pages, bad magic, or CRC failure (the
    /// torn-write case); an error for an intact manifest of another format
    /// version.
    pub fn decode(page: &[u8]) -> Result<Option<Manifest>, UnsupportedVersion> {
        let Some(body) = intact_body(page) else {
            return Ok(None);
        };
        match read_u32(body, MAGIC_BYTES) {
            Some(CKPT_VERSION) => Ok(Self::decode_body(body)),
            Some(other) => Err(UnsupportedVersion(other)),
            None => Ok(None),
        }
    }

    fn decode_body(body: &[u8]) -> Option<Manifest> {
        let mut off = MAGIC_BYTES + VERSION_BYTES;
        let seq = read_u64(body, off)?;
        off += SEQ_BYTES;
        let superstep = read_u64(body, off)?;
        off += SUPERSTEP_BYTES;
        let num_vertices = read_u64(body, off)?;
        off += NUM_VERTICES_BYTES;
        let flags = read_u32(body, off)?;
        off += FLAGS_BYTES;
        let mut segments = [SegmentDesc::default(); NUM_SEGMENTS];
        for seg in &mut segments {
            seg.len = read_u64(body, off)?;
            seg.crc = read_u32(body, off + 8)?;
            off += SEGMENT_DESC_BYTES;
        }
        Some(Manifest {
            seq,
            superstep,
            num_vertices,
            all_active: flags & FLAG_ALL_ACTIVE != 0,
            segments,
        })
    }
}

/// The CRC-covered header bytes of `page`, when the CRC checks out and the
/// magic is ours.
fn intact_body(page: &[u8]) -> Option<&[u8]> {
    let header = page.get(..MANIFEST_HEADER_BYTES)?;
    let (body, crc_bytes) = header.split_at(MANIFEST_HEADER_BYTES - MANIFEST_CRC_BYTES);
    (crc32(body) == read_u32(crc_bytes, 0)? && read_u64(body, 0)? == CKPT_MAGIC).then_some(body)
}

fn read_u64(buf: &[u8], off: usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(off..off + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

fn read_u32(buf: &[u8], off: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(off..off + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            seq: 7,
            superstep: 21,
            num_vertices: 1000,
            all_active: true,
            segments: [
                SegmentDesc { len: 8000, crc: 0xDEAD_BEEF },
                SegmentDesc { len: 125, crc: 0x1234_5678 },
                SegmentDesc { len: 0, crc: 0 },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        let buf = m.encode();
        assert_eq!(buf.len(), MANIFEST_HEADER_BYTES);
        assert_eq!(Manifest::decode(&buf), Ok(Some(m)));
    }

    #[test]
    fn decode_accepts_zero_padded_page() {
        let mut page = sample().encode();
        page.resize(256, 0);
        assert_eq!(Manifest::decode(&page), Ok(Some(sample())));
    }

    #[test]
    fn any_corruption_is_rejected() {
        let buf = sample().encode();
        for k in 0..buf.len() {
            let mut bad = buf.clone();
            bad[k] ^= 0x40;
            assert_eq!(Manifest::decode(&bad), Ok(None), "flip at byte {k}");
        }
    }

    #[test]
    fn short_and_empty_pages_rejected() {
        assert_eq!(Manifest::decode(&[]), Ok(None));
        let buf = sample().encode();
        assert_eq!(Manifest::decode(&buf[..buf.len() - 1]), Ok(None));
    }

    #[test]
    fn other_versions_are_a_typed_error() {
        // Re-encode with another version and a freshly valid CRC: the
        // previous format (whose pending-message pages this build cannot
        // read) and a future one.
        for version in [CKPT_VERSION - 1, CKPT_VERSION + 1] {
            let mut body = sample().encode();
            body.truncate(MANIFEST_HEADER_BYTES - MANIFEST_CRC_BYTES);
            body[MAGIC_BYTES..MAGIC_BYTES + VERSION_BYTES].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(Manifest::decode(&body), Err(UnsupportedVersion(version)));
        }
    }
}
