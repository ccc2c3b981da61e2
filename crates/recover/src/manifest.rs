//! Checkpoint manifest: the commit record (`crate::commit`) that makes a
//! checkpoint durable.
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
//! [`MANIFEST_HEADER_BYTES`]; the rest of the page is zero) — the commit
//! record's header, a fixed body, its CRC:
//!
//! | field          | width                     |
//! |----------------|---------------------------|
//! | magic          | [`MAGIC_BYTES`]           |
//! | version        | [`VERSION_BYTES`]         |
//! | seq            | [`SEQ_BYTES`]             |
//! | superstep      | [`SUPERSTEP_BYTES`]       |
//! | num_vertices   | [`NUM_VERTICES_BYTES`]    |
//! | flags          | [`FLAGS_BYTES`]           |
//! | graph          | [`GRAPH_BYTES`]           |
//! | program        | [`PROGRAM_BYTES`]         |
//! | segment descs  | [`NUM_SEGMENTS`] × [`SEGMENT_DESC_BYTES`] |
//! | manifest crc   | [`MANIFEST_CRC_BYTES`]    |
//!
//! The manifest CRC covers every preceding header byte, so a torn manifest
//! page (fault injection tears at a seed-derived byte) is detected and the
//! slot is simply skipped during recovery.

use crate::commit::{read_u32, read_u64, RecordFormat, UnsupportedVersion, CRC_BYTES};
pub use crate::commit::{MAGIC_BYTES, SEQ_BYTES, VERSION_BYTES};

/// Magic number opening every checkpoint manifest: `"MLVCCKPT"` as
/// big-endian ASCII.
pub const CKPT_MAGIC: u64 = 0x4D4C_5643_434B_5054;

/// On-disk checkpoint format version. Version 2 is version 1 with the
/// pending-messages segment holding `mlvc_log::page` pages (8-byte header,
/// 10–16-byte records) instead of fixed 16-byte-record pages; version 3
/// adds the run's identity to the manifest — the graph's fingerprint and
/// the program's name ([`RunIdentity`]) — so a resume can tell another
/// run's checkpoint from its own.
pub const CKPT_VERSION: u32 = 3;

/// Width of the superstep field.
pub const SUPERSTEP_BYTES: usize = 8;
/// Width of the vertex-count field.
pub const NUM_VERTICES_BYTES: usize = 8;
/// Width of the flags field (bit 0: all-active superstep pending).
pub const FLAGS_BYTES: usize = 4;
/// Width of the graph-fingerprint field.
pub const GRAPH_BYTES: usize = 8;
/// Width of the program-name field: the name's UTF-8 bytes, zero-padded.
pub const PROGRAM_BYTES: usize = 32;
/// Width of one segment descriptor: byte length (u64) + CRC-32 (u32).
pub const SEGMENT_DESC_BYTES: usize = 12;
/// Segments per checkpoint: vertex states | active bitset | pending
/// multi-log pages.
pub const NUM_SEGMENTS: usize = 3;
/// Width of the trailing manifest CRC.
pub const MANIFEST_CRC_BYTES: usize = CRC_BYTES;

/// The commit-record body: everything between `seq` and the CRC.
const BODY_BYTES: usize = SUPERSTEP_BYTES
    + NUM_VERTICES_BYTES
    + FLAGS_BYTES
    + GRAPH_BYTES
    + PROGRAM_BYTES
    + NUM_SEGMENTS * SEGMENT_DESC_BYTES;

/// Total manifest header size; must fit in one device page.
pub const MANIFEST_HEADER_BYTES: usize =
    MAGIC_BYTES + VERSION_BYTES + SEQ_BYTES + BODY_BYTES + MANIFEST_CRC_BYTES;

/// The checkpoint's commit-record format: a fixed body, no legacy layout.
pub const CKPT_RECORD: RecordFormat = RecordFormat {
    what: "checkpoint",
    magic: CKPT_MAGIC,
    version: CKPT_VERSION,
    fixed_bytes: BODY_BYTES,
    entry_bytes: 0,
    legacy_magic: None,
};

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

/// What a checkpoint is of: the name of the program that ran
/// (`VertexProgram::name`) and the fingerprint of the graph it ran on
/// (`Csr::fingerprint`, taken when the graph was stored). A resume takes
/// only a checkpoint of its own identity (DESIGN.md §11).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunIdentity {
    program: String,
    graph: u64,
}

impl RunIdentity {
    /// The identity of `program` on the graph of fingerprint `graph`; a
    /// name longer than [`PROGRAM_BYTES`] is cut at a character boundary
    /// to what the manifest holds.
    pub fn new(program: &str, graph: u64) -> Self {
        let mut end = program.len().min(PROGRAM_BYTES);
        while !program.is_char_boundary(end) {
            end -= 1;
        }
        RunIdentity { program: program[..end].to_string(), graph }
    }

    pub fn program(&self) -> &str {
        &self.program
    }
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
    pub identity: RunIdentity,
    pub segments: [SegmentDesc; NUM_SEGMENTS],
}

impl Manifest {
    /// Serialize to exactly [`MANIFEST_HEADER_BYTES`] bytes, trailing CRC
    /// included.
    pub fn encode(&self) -> Vec<u8> {
        CKPT_RECORD.encode(self.seq, &self.body())
    }

    /// The commit-record body: every field but `seq`.
    pub(crate) fn body(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(BODY_BYTES);
        buf.extend_from_slice(&self.superstep.to_le_bytes());
        buf.extend_from_slice(&self.num_vertices.to_le_bytes());
        let flags: u32 = if self.all_active { FLAG_ALL_ACTIVE } else { 0 };
        buf.extend_from_slice(&flags.to_le_bytes());
        buf.extend_from_slice(&self.identity.graph.to_le_bytes());
        let mut program = [0u8; PROGRAM_BYTES];
        let name = self.identity.program.as_bytes();
        program[..name.len()].copy_from_slice(name);
        buf.extend_from_slice(&program);
        for seg in &self.segments {
            buf.extend_from_slice(&seg.len.to_le_bytes());
            buf.extend_from_slice(&seg.crc.to_le_bytes());
        }
        buf
    }

    /// Parse a manifest page. `Ok(None)` for anything that is not an
    /// intact manifest — short pages, bad magic, or CRC failure (the
    /// torn-write case); an error for an intact manifest of another format
    /// version.
    pub fn decode(page: &[u8]) -> Result<Option<Manifest>, UnsupportedVersion> {
        Ok(CKPT_RECORD.decode(page)?.and_then(|(seq, body)| Self::from_body(seq, body)))
    }

    /// The manifest a commit record of sequence number `seq` carries.
    pub(crate) fn from_body(seq: u64, body: &[u8]) -> Option<Manifest> {
        let mut off = 0;
        let superstep = read_u64(body, off)?;
        off += SUPERSTEP_BYTES;
        let num_vertices = read_u64(body, off)?;
        off += NUM_VERTICES_BYTES;
        let flags = read_u32(body, off)?;
        off += FLAGS_BYTES;
        let graph = read_u64(body, off)?;
        off += GRAPH_BYTES;
        let name = body.get(off..off + PROGRAM_BYTES)?;
        let len = name.iter().position(|&b| b == 0).unwrap_or(PROGRAM_BYTES);
        let program = std::str::from_utf8(&name[..len]).ok()?;
        off += PROGRAM_BYTES;
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
            identity: RunIdentity::new(program, graph),
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;

    fn sample() -> Manifest {
        Manifest {
            seq: 7,
            superstep: 21,
            num_vertices: 1000,
            all_active: true,
            identity: RunIdentity::new("pagerank", 0x0123_4567_89AB_CDEF),
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
            let refused = UnsupportedVersion { found: version, reads: CKPT_VERSION };
            assert_eq!(Manifest::decode(&body), Err(refused));
        }
    }
}
