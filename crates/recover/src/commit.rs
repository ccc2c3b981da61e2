//! The crash-consistent commit record: one page whose single write commits
//! a larger update, kept in two slot files that alternate so the newest
//! accepted record is never the one being overwritten. Checkpoints
//! ([`crate::Manifest`], DESIGN.md §11) and CSR merges ([`MERGE_RECORD`],
//! §17) both commit through it.
//!
//! A record is `magic u64 | version u32 | seq u64 | body | crc32`,
//! little-endian, the CRC over every byte before it; the rest of the page
//! is zero. A torn record (fault injection tears at a seed-derived byte)
//! is no record, so its slot reads as empty. An intact record of another
//! version is refused with a typed error instead: skipping it would drop
//! whatever it committed.

use std::sync::Arc;

use mlvc_ssd::checked::idx;
use mlvc_ssd::{DeviceError, FileId, Ssd};

use crate::crc::crc32;

/// Width of the magic field.
pub const MAGIC_BYTES: usize = 8;
/// Width of the version field.
pub const VERSION_BYTES: usize = 4;
/// Width of the sequence number.
pub const SEQ_BYTES: usize = 8;
/// Width of the trailing CRC-32.
pub const CRC_BYTES: usize = 4;
/// Width of a body's entry count, and of a legacy layout's magic.
const U32_BYTES: usize = 4;

/// `mlvc-mutate`'s merge manifest: magic `"MLVCMRGE"` (big-endian ASCII);
/// the body is the new edge total (u64) and an entry count (u32), then per
/// rewritten interval its id (u32) and new `colidx` entry count (u64).
/// Version 2 widened version 1's 4-byte `"MLMT"` magic to 8 bytes.
pub const MERGE_RECORD: RecordFormat = RecordFormat {
    what: "merge manifest",
    magic: 0x4D4C_5643_4D52_4745,
    version: 2,
    fixed_bytes: 8 + U32_BYTES,
    entry_bytes: 4 + 8,
    legacy_magic: Some(0x4D4C_4D54),
};

/// An intact record of a format version this build does not read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedVersion {
    pub found: u32,
    pub reads: u32,
}

impl std::fmt::Display for UnsupportedVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "format version {}, this build reads version {}", self.found, self.reads)
    }
}

impl std::error::Error for UnsupportedVersion {}

/// One kind of commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordFormat {
    /// What the record commits (`DeviceError::Corrupt::what`).
    pub what: &'static str,
    pub magic: u64,
    /// The one version this build writes and reads.
    pub version: u32,
    /// Body bytes before its entries; when `entry_bytes` is not zero, the
    /// last four of them count the entries (u32).
    pub fixed_bytes: usize,
    pub entry_bytes: usize,
    /// Magic of a retired layout with a 4-byte magic (`magic u32 |
    /// version u32 | seq u64 | body | crc32`), refused when intact.
    pub legacy_magic: Option<u32>,
}

impl RecordFormat {
    /// Most entries the record holds on a `page_size`-byte page.
    pub fn max_entries(&self, page_size: usize) -> usize {
        let overhead = MAGIC_BYTES + VERSION_BYTES + SEQ_BYTES + self.fixed_bytes + CRC_BYTES;
        page_size.saturating_sub(overhead).checked_div(self.entry_bytes).unwrap_or(0)
    }

    /// The record of `body` at sequence number `seq`.
    pub fn encode(&self, seq: u64, body: &[u8]) -> Vec<u8> {
        let mut buf =
            [&self.magic.to_le_bytes()[..], &self.version.to_le_bytes(), &seq.to_le_bytes(), body]
                .concat();
        buf.extend_from_slice(&crc32(&buf).to_le_bytes());
        buf
    }

    /// `(seq, body)` of a record page; `Ok(None)` for anything that is not
    /// an intact record of this format (short page, other magic, torn),
    /// an error for an intact record of another version or the legacy
    /// layout.
    pub fn decode<'p>(
        &self,
        page: &'p [u8],
    ) -> Result<Option<(u64, &'p [u8])>, UnsupportedVersion> {
        let (magic_bytes, current) = match read_u64(page, 0) {
            Some(m) if m == self.magic => (MAGIC_BYTES, true),
            _ if self.legacy_magic.is_some() && read_u32(page, 0) == self.legacy_magic => {
                (U32_BYTES, false)
            }
            _ => return Ok(None),
        };
        match self.intact(page, magic_bytes) {
            Some((version, seq, body)) if current && version == self.version => {
                Ok(Some((seq, body)))
            }
            Some((found, ..)) => Err(UnsupportedVersion { found, reads: self.version }),
            None => Ok(None),
        }
    }

    /// `(version, seq, body)` of `page` if its CRC checks out, the header
    /// following a magic `magic_bytes` wide.
    fn intact<'p>(&self, page: &'p [u8], magic_bytes: usize) -> Option<(u32, u64, &'p [u8])> {
        let start = magic_bytes + VERSION_BYTES + SEQ_BYTES;
        let entries = match self.entry_bytes {
            0 => 0,
            width => {
                idx(read_u32(page, start + self.fixed_bytes - U32_BYTES)?).checked_mul(width)?
            }
        };
        let end = start.checked_add(self.fixed_bytes + entries)?;
        let body = page.get(start..end)?;
        let (version, seq) = (read_u32(page, magic_bytes)?, read_u64(page, start - SEQ_BYTES)?);
        let crc_ok = crc32(&page[..end]) == read_u32(page, end)?;
        crc_ok.then_some((version, seq, body))
    }
}

/// The two slot files of one record format, and the *head*: the slot and
/// `seq` of the newest record a scan accepted or this value committed.
pub struct CommitSlots {
    ssd: Arc<Ssd>,
    files: [FileId; 2],
    format: RecordFormat,
    head: Option<(usize, u64)>,
}

impl CommitSlots {
    /// Open (or create) the slot files, in order; [`Self::scan`] finds the
    /// head.
    pub fn open(
        ssd: &Arc<Ssd>,
        names: [String; 2],
        format: RecordFormat,
    ) -> Result<Self, DeviceError> {
        let files = [ssd.open_or_create(&names[0])?, ssd.open_or_create(&names[1])?];
        Ok(CommitSlots { ssd: Arc::clone(ssd), files, format, head: None })
    }

    /// Find the head: the newest record `accept(slot, seq, body)` takes,
    /// returned as `(slot, seq, accepted)`, reading each slot once, in
    /// order. An empty slot or a torn record is skipped; an intact record
    /// of another version is [`DeviceError::Corrupt`].
    pub fn scan<T>(
        &mut self,
        mut accept: impl FnMut(usize, u64, &[u8]) -> Result<Option<T>, DeviceError>,
    ) -> Result<Option<(usize, u64, T)>, DeviceError> {
        let refused = |e: UnsupportedVersion| DeviceError::Corrupt {
            what: self.format.what,
            detail: e.to_string(),
        };
        let mut best: Option<(usize, u64, T)> = None;
        for (slot, &file) in self.files.iter().enumerate() {
            if self.ssd.num_pages(file)? == 0 {
                continue;
            }
            let page = self.ssd.read_page(file, 0, self.ssd.page_size())?;
            let Some((seq, body)) = self.format.decode(&page).map_err(refused)? else {
                continue;
            };
            if let Some(accepted) = accept(slot, seq, body)? {
                if best.as_ref().is_none_or(|b| seq > b.1) {
                    best = Some((slot, seq, accepted));
                }
            }
        }
        self.head = best.as_ref().map(|&(slot, seq, _)| (slot, seq));
        Ok(best)
    }

    /// The slot the next commit writes: the one not holding the head.
    pub fn next_slot(&self) -> usize {
        self.head.map_or(0, |(slot, _)| 1 - slot)
    }

    /// The sequence number the next commit stamps.
    pub fn next_seq(&self) -> u64 {
        self.head.map_or(1, |(_, seq)| seq + 1)
    }

    /// Commit `body`: truncate the next slot and append its record as one
    /// page — the write that is the commit point — making it the head.
    pub fn commit(&mut self, body: &[u8]) -> Result<u64, DeviceError> {
        let (slot, seq) = (self.next_slot(), self.next_seq());
        self.ssd.truncate(self.files[slot])?;
        self.ssd.append_page(self.files[slot], &self.format.encode(seq, body))?;
        self.head = Some((slot, seq));
        Ok(seq)
    }
}

pub(crate) fn read_u64(buf: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(off..off + 8)?.try_into().ok()?))
}

pub(crate) fn read_u32(buf: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(off..off + 4)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_ssd::{FaultPlan, SsdConfig};

    fn merge_body(entries: u32) -> Vec<u8> {
        let mut body = 500u64.to_le_bytes().to_vec();
        body.extend_from_slice(&entries.to_le_bytes());
        for i in 0..entries {
            body.extend_from_slice(&i.to_le_bytes());
            body.extend_from_slice(&u64::from(i * 10).to_le_bytes());
        }
        body
    }

    #[test]
    fn counted_bodies_round_trip_and_any_flip_is_no_record() {
        for n in [0, 1, 5] {
            let body = merge_body(n);
            let rec = MERGE_RECORD.encode(9, &body);
            let mut page = rec.clone();
            page.resize(256, 0);
            assert_eq!(MERGE_RECORD.decode(&page), Ok(Some((9, &body[..]))));
            for k in 0..rec.len() {
                let mut bad = page.clone();
                bad[k] ^= 0x40;
                assert_eq!(MERGE_RECORD.decode(&bad), Ok(None), "{n} entries, flip at byte {k}");
            }
        }
        assert_eq!(MERGE_RECORD.decode(&[]), Ok(None));
        assert_eq!(MERGE_RECORD.max_entries(256), (256 - 20 - 12 - 4) / 12);
    }

    #[test]
    fn another_version_and_the_legacy_layout_are_refused() {
        let body = merge_body(2);
        let future = RecordFormat { version: 3, ..MERGE_RECORD }.encode(3, &body);
        let refused = |found| Err(UnsupportedVersion { found, reads: 2 });
        assert_eq!(MERGE_RECORD.decode(&future), refused(3));
        // Version 1: a 4-byte magic, the same body, a CRC over both.
        let mut legacy = 0x4D4C_4D54u32.to_le_bytes().to_vec();
        legacy.extend_from_slice(&1u32.to_le_bytes());
        legacy.extend_from_slice(&3u64.to_le_bytes());
        legacy.extend_from_slice(&body);
        let crc = crc32(&legacy);
        legacy.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(MERGE_RECORD.decode(&legacy), refused(1));
        // Torn, it is no record.
        legacy[6] ^= 1;
        assert_eq!(MERGE_RECORD.decode(&legacy), Ok(None));
    }

    /// The slot rule: every commit goes to the slot not holding the head,
    /// so a crash at any commit leaves the previous record readable.
    #[test]
    fn commits_alternate_and_a_torn_commit_keeps_the_previous_head() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let names = || ["r.0".to_string(), "r.1".to_string()];
        let accept_all = |_: usize, _: u64, body: &[u8]| Ok(Some(body.to_vec()));
        let mut slots = CommitSlots::open(&ssd, names(), MERGE_RECORD).unwrap();
        assert_eq!((slots.next_slot(), slots.next_seq()), (0, 1));
        for seq in 1..=3 {
            assert_eq!(slots.commit(&merge_body(0)).unwrap(), seq);
        }
        assert_eq!(slots.scan(accept_all).unwrap().map(|(s, q, _)| (s, q)), Some((0, 3)));

        ssd.install_fault_plan(FaultPlan::crash_after(1, 7));
        assert_eq!(slots.commit(&merge_body(1)), Err(DeviceError::Crashed));
        ssd.revive();
        let mut reopened = CommitSlots::open(&ssd, names(), MERGE_RECORD).unwrap();
        let head = reopened.scan(accept_all).unwrap().map(|(s, q, _)| (s, q));
        assert_eq!(head, Some((0, 3)), "the torn slot-1 commit is no record");
        assert_eq!((reopened.next_slot(), reopened.next_seq()), (1, 4));
    }
}
