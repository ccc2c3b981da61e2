//! The CSR page format (DESIGN.md §20). Every page of a `rowptr`, `colidx`
//! or `val` extent is an 8-byte self-describing header, then fixed-width,
//! bit-packed, little-endian entries. This module holds the one encoder
//! ([`encode_pages`]) and the decoders: [`decode_page`] for a whole page,
//! and, for the views over lent pages, `entry` (one entry, O(1)) and
//! `unpack` (a run of entries, eight at a time).
//!
//! An entry's width is *observed*, never configured, and derived from
//! metadata a reader already holds, so the page of an entry is known before
//! the page is read:
//! * `colidx`: the bits of the largest vertex id, `num_vertices − 1`;
//! * `rowptr`: the bits of the largest local offset the interval's `colidx`
//!   extent can hold, from that extent's page count;
//! * `val`: 32, an `f32`'s bits.
//!
//! The header repeats the width, so a page that disagrees with what its
//! reader derived is [`DeviceError::Corrupt`].

use mlvc_ssd::DeviceError;

use crate::checked::{idx, mem_idx, to_u32, to_u64};
use crate::view::Entry;

/// Header bytes: `kind: u8 | width: u8 | zero: u16 | count: u32`,
/// little-endian.
pub const HEADER_BYTES: usize = 8;
/// Offset of the header's kind byte ([`Kind::tag`]).
pub const KIND_AT: usize = 0;
/// Offset of the header's entry width in bits.
pub const WIDTH_AT: usize = 1;
/// Offset of the header's two zero bytes.
pub const ZERO_AT: usize = 2;
/// Offset of the header's `u32` entry count.
pub const COUNT_AT: usize = 4;

/// The widest entry: a row pointer is at most a `u64`.
pub const MAX_WIDTH: u32 = u64::BITS;
/// Width of a `val` entry: an `f32`'s bits, as the `u32` they are.
pub const VAL_WIDTH: u32 = u32::BITS;

/// Bytes a page needs past its header, so that `entry`'s one 8-byte load
/// always lies inside the page.
const MIN_PAYLOAD: usize = size_of::<u64>();

/// What an extent holds: the first byte of each of its pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Kind {
    RowPtr,
    #[default]
    ColIdx,
    Val,
}

impl Kind {
    /// The header's kind byte.
    pub const fn tag(self) -> u8 {
        match self {
            Kind::RowPtr => b'R',
            Kind::ColIdx => b'C',
            Kind::Val => b'V',
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::RowPtr => "rowptr",
            Kind::ColIdx => "colidx",
            Kind::Val => "val",
        }
    }
}

pub(crate) fn corrupt(detail: String) -> DeviceError {
    DeviceError::Corrupt { what: "csr", detail }
}

/// Bits needed to write `max`: at least one.
pub fn bits(max: u64) -> u32 {
    (u64::BITS - max.leading_zeros()).max(1)
}

/// Width of a `colidx` entry in a graph of `num_vertices` vertices.
pub fn colidx_width(num_vertices: usize) -> u32 {
    bits(to_u64(num_vertices).saturating_sub(1))
}

/// Entries of `width` bits a page of `page_size` bytes holds (0 when the
/// page cannot hold the header and an 8-byte load).
pub fn per_page(page_size: usize, width: u32) -> usize {
    match page_size.checked_sub(HEADER_BYTES) {
        Some(payload) if payload >= MIN_PAYLOAD && (1..=MAX_WIDTH).contains(&width) => {
            payload * 8 / idx(width)
        }
        _ => 0,
    }
}

/// The low `width` bits set, `width` in `1..=64` (any other width wraps
/// to some mask rather than panic).
#[inline]
fn mask(width: u32) -> u64 {
    u64::MAX.wrapping_shr(u64::BITS.wrapping_sub(width))
}

/// The low 32 bits of `x`: callers mask to at most 32 bits first.
#[inline]
pub(crate) fn low_u32(x: u64) -> u32 {
    let [a, b, c, d, ..] = x.to_le_bytes();
    u32::from_le_bytes([a, b, c, d])
}

/// Where one extent's entries lie: `per_page` entries of `width` bits on
/// every page but the last.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Layout {
    pub kind: Kind,
    pub width: u32,
    pub per_page: usize,
}

impl Layout {
    pub fn new(kind: Kind, width: u32, page_size: usize) -> Layout {
        Layout { kind, width, per_page: per_page(page_size, width) }
    }

    /// The page entry `e` is on, and its position there.
    #[inline]
    pub fn locate(&self, e: u64) -> (u64, usize) {
        let pp = to_u64(self.per_page.max(1));
        (e / pp, mem_idx(e % pp))
    }

    /// Bytes `n` entries occupy, rounded up: what a reader uses of a page.
    pub fn bytes(&self, n: usize) -> usize {
        n.saturating_mul(idx(self.width)).div_ceil(8)
    }

    /// Pages an extent of `n` entries takes.
    pub fn pages(&self, n: usize) -> usize {
        n.div_ceil(self.per_page.max(1))
    }

    /// Entries page `p` of an extent of `n` entries holds.
    pub fn count_on(&self, p: usize, n: usize) -> usize {
        n.saturating_sub(p * self.per_page).min(self.per_page)
    }

    /// Check a lent page's header against this layout and that it holds at
    /// least `need` entries; returns its entry count. A page that passes
    /// holds every one of those entries inside its bytes, so [`entry`] and
    /// [`unpack`] read only inside it.
    pub fn check(&self, page: &[u8], need: usize) -> Result<usize, String> {
        let count = parse_header(page, self.kind, self.width)?;
        if count < need {
            let kind = self.kind.name();
            return Err(format!("{kind} page holds {count} entries, {need} taken from it"));
        }
        Ok(count)
    }
}

/// The three layouts of one interval's partition, from metadata alone: the
/// graph's vertex count and the page count of the interval's `colidx`
/// extent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partition {
    pub rowptr: Layout,
    pub colidx: Layout,
    pub val: Layout,
    /// Entries the `colidx` extent can hold: no row pointer lies past it.
    pub capacity: u64,
}

impl Partition {
    pub fn new(page_size: usize, num_vertices: usize, colidx_pages: u64) -> Partition {
        let colidx = Layout::new(Kind::ColIdx, colidx_width(num_vertices), page_size);
        let capacity = colidx_pages.saturating_mul(to_u64(colidx.per_page));
        Partition {
            rowptr: Layout::new(Kind::RowPtr, bits(capacity), page_size),
            colidx,
            val: Layout::new(Kind::Val, VAL_WIDTH, page_size),
            capacity,
        }
    }
}

/// The entry count of `page` once its header is checked: the kind and
/// width its reader derived, zero reserved bytes, and a count its bytes
/// can hold.
fn parse_header(page: &[u8], kind: Kind, width: u32) -> Result<usize, String> {
    let Some(header) = page.first_chunk::<HEADER_BYTES>() else {
        return Err(format!("{}-byte {} page has no header", page.len(), kind.name()));
    };
    let [tag, w, z0, z1, c0, c1, c2, c3] = *header;
    if tag != kind.tag() || u32::from(w) != width || [z0, z1] != [0, 0] {
        return Err(format!(
            "{} page of {width}-bit entries has header {:02x?}",
            kind.name(),
            &header[..COUNT_AT]
        ));
    }
    let count = idx(u32::from_le_bytes([c0, c1, c2, c3]));
    let cap = per_page(page.len(), width);
    if count > cap {
        return Err(format!(
            "{} page of {} bytes claims {count} {width}-bit entries, holds at most {cap}",
            kind.name(),
            page.len()
        ));
    }
    Ok(count)
}

/// Encode `values` as the pages of one extent: full pages of
/// [`per_page`] entries, then the rest; an empty extent has no page. A
/// value wider than `width` is refused — packing would keep only its low
/// bits — and so is a width no page of `page_size` bytes holds.
pub fn encode_pages<T: Copy + Into<u64>>(
    kind: Kind,
    width: u32,
    page_size: usize,
    values: &[T],
) -> Result<Vec<Vec<u8>>, DeviceError> {
    let per_page = per_page(page_size, width);
    let name = kind.name();
    if per_page == 0 {
        let why = format!("no {name} page of {page_size} bytes holds a {width}-bit entry");
        return Err(corrupt(why));
    }
    let mut pages: Vec<Vec<u8>> = Vec::with_capacity(values.len().div_ceil(per_page));
    for chunk in values.chunks(per_page) {
        let count =
            to_u32("csr page entry count", chunk.len()).map_err(|e| corrupt(e.to_string()))?;
        let [c0, c1, c2, c3] = count.to_le_bytes();
        // `per_page` is 0 for widths outside 1..=64.
        let header = [kind.tag(), u8::try_from(width).unwrap_or(0), 0, 0, c0, c1, c2, c3];
        let mut page = Vec::with_capacity(page_size);
        page.extend_from_slice(&header);
        // Bits not yet written, low first: locals, not fields beside the
        // page, so they stay in registers while the page grows.
        let (mut acc, mut have, mut all) = (0u64, 0u32, 0u64);
        if width <= u32::BITS {
            for &v in chunk {
                all |= v.into();
                put(&mut page, &mut acc, &mut have, v.into(), width);
            }
        } else {
            // An entry wider than 32 bits goes in halves.
            for &v in chunk {
                let v: u64 = v.into();
                all |= v;
                put(&mut page, &mut acc, &mut have, v & mask(u32::BITS), u32::BITS);
                put(&mut page, &mut acc, &mut have, v >> u32::BITS, width - u32::BITS);
            }
        }
        if all.checked_shr(width).unwrap_or(0) != 0 {
            return Err(corrupt(format!("a {name} entry of {} bits at width {width}", bits(all))));
        }
        page.extend_from_slice(&acc.to_le_bytes()[..idx(have).div_ceil(8)]);
        pages.push(page);
    }
    Ok(pages)
}

/// Append the low `w` bits of `bits` (`w` at most 32, nothing above them
/// set) behind the `have` bits waiting in `acc` — fewer than 32 between two
/// calls; 32 go out to `page` at a time.
#[inline]
fn put(page: &mut Vec<u8>, acc: &mut u64, have: &mut u32, bits: u64, w: u32) {
    *acc |= bits << *have;
    *have += w;
    if *have >= u32::BITS {
        page.extend_from_slice(&low_u32(*acc).to_le_bytes());
        *acc >>= u32::BITS;
        *have -= u32::BITS;
    }
}

/// Every entry of one page, once its header is checked against the kind
/// and width its reader derived.
pub fn decode_page(page: &[u8], kind: Kind, width: u32) -> Result<Vec<u64>, DeviceError> {
    let count = parse_header(page, kind, width).map_err(corrupt)?;
    let payload = &page[HEADER_BYTES..];
    Ok(if width <= u32::BITS {
        let mut out = vec![0u32; count.next_multiple_of(8)];
        unpack(payload, 0, width, &mut out);
        out.into_iter().take(count).map(u64::from).collect()
    } else {
        (0..count).map(|k| entry(payload, k, width)).collect()
    })
}

/// Entry `k` of a page's payload: one unaligned little-endian 8-byte load,
/// a shift and a mask. The load is pulled back from the payload's end when
/// it would run past it; the entry still lies inside it, as a checked
/// header promises, so the shifted-out bits are the entry's own.
#[inline]
pub(crate) fn entry(payload: &[u8], k: usize, width: u32) -> u64 {
    let bit = k * idx(width);
    if width > MAX_WIDTH - 7 {
        // Too wide to come out of one load at any bit offset: two halves.
        let lo = entry_bits(payload, bit, u32::BITS);
        return lo | entry_bits(payload, bit + idx(u32::BITS), width - u32::BITS) << u32::BITS;
    }
    entry_bits(payload, bit, width)
}

/// [`entry`] of at most 32 bits — a column index or a weight — as the
/// `u32` it is.
#[inline]
pub(crate) fn narrow_entry(payload: &[u8], k: usize, width: u32) -> u32 {
    low_u32(entry_bits(payload, k * idx(width), width))
}

#[inline]
fn entry_bits(payload: &[u8], bit: usize, width: u32) -> u64 {
    let at = (bit / 8).min(payload.len().saturating_sub(MIN_PAYLOAD));
    let word = payload[at..].first_chunk::<MIN_PAYLOAD>().map_or(0, |b| u64::from_le_bytes(*b));
    // Below 64 for an entry inside the payload; past it, any bits but no panic.
    let shift = low_u32(to_u64(bit - at * 8));
    word.wrapping_shr(shift) & mask(width)
}

/// Whole groups of eight entries of a page's payload, from group
/// `first_group` on, `width` bits each (1 to 32), into `out` — as many
/// groups as `out` holds whole. Entries past the page's count decode as
/// whatever bits are there; the caller keeps only the ones it asked for.
pub(crate) fn unpack<T: Entry>(payload: &[u8], first_group: usize, width: u32, out: &mut [T]) {
    macro_rules! by_width {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_at::<T, $w>(payload, first_group, out),)*
                _ => unpack_at::<T, { u32::BITS }>(payload, first_group, out),
            }
        };
    }
    by_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31)
}

/// Bytes eight entries are read from: the widest eight's 32, and the 8 the
/// last one's load runs on.
const WINDOW: usize = 40;

/// [`unpack`] at a width fixed when it is compiled: eight entries of `W`
/// bits take exactly `W` bytes, so each group is read from one window at
/// offsets and shifts that are constants — eight loads no entry waits on
/// another for, where a bit buffer would chain them. Only a group whose
/// window would run past the payload goes one entry at a time.
fn unpack_at<T: Entry, const W: u32>(payload: &[u8], first_group: usize, out: &mut [T]) {
    let (groups, _) = out.as_chunks_mut::<8>();
    for (g, slots) in (first_group..).zip(groups) {
        match payload.get(g * idx(W)..).and_then(<[u8]>::first_chunk::<WINDOW>) {
            Some(window) => group::<T, W>(window, slots),
            None => {
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = T::from_bits(narrow_entry(payload, g * 8 + j, W));
                }
            }
        }
    }
}

/// The eight entries of `W` bits at the start of `window`.
#[inline(always)]
fn group<T: Entry, const W: u32>(window: &[u8; WINDOW], out: &mut [T; 8]) {
    let w = idx(W);
    for (j, slot) in out.iter_mut().enumerate() {
        let (at, shift) = (j * w / 8, j * w % 8);
        let word = window[at..].first_chunk::<8>().map_or(0, |b| u64::from_le_bytes(*b));
        *slot = T::from_bits(low_u32((word >> shift) & mask(W)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    /// Every width a CSR entry can have, on the smallest page the tests use
    /// and on the device's default: values at both ends of the width's range
    /// and between, over several pages — each page decodes to its slice,
    /// through the whole-page decoder, the O(1) entry and the group decoder
    /// from the first, second, middle and last group on.
    #[test]
    fn every_width_round_trips_on_small_and_default_pages() {
        let mut rng = Rng(0x5EED_0032);
        for page_size in [256usize, 16 << 10] {
            for width in 1..=MAX_WIDTH {
                let per = per_page(page_size, width);
                let n = 2 * per + 1 + (rng.next() % 7) as usize;
                let values: Vec<u64> = (0..n)
                    .map(|k| match k % 3 {
                        0 => mask(width),
                        1 => 0,
                        _ => rng.next() & mask(width),
                    })
                    .collect();
                let pages = encode_pages(Kind::RowPtr, width, page_size, &values).unwrap();
                assert_eq!(pages.len(), 3, "{width} bits at {page_size} B");
                for (p, page) in pages.iter().enumerate() {
                    assert!(page.len() <= page_size);
                    let want = &values[p * per..n.min((p + 1) * per)];
                    // What the device stores: the page zero-padded.
                    let mut full = page.clone();
                    full.resize(page_size, 0);
                    assert_eq!(decode_page(&full, Kind::RowPtr, width).unwrap(), want);
                    let payload = &full[HEADER_BYTES..];
                    for (k, &w) in want.iter().enumerate() {
                        assert_eq!(entry(payload, k, width), w, "{width} bits, entry {k}");
                    }
                    if width <= u32::BITS {
                        let groups = want.len().div_ceil(8);
                        let firsts = [0, 1, groups / 2, groups - 1];
                        for g in firsts.into_iter().filter(|&g| g < groups) {
                            let mut got = vec![0u32; want.len().next_multiple_of(8) - 8 * g];
                            unpack(payload, g, width, &mut got);
                            let got: Vec<u64> = got.into_iter().map(u64::from).collect();
                            let n = want.len() - 8 * g;
                            assert_eq!(got[..n], want[8 * g..], "{width} bits, group {g}");
                        }
                    }
                }
            }
        }
    }

    /// Seeded fuzz of the page decoder: valid pages of random kind and
    /// width, then pure noise, a truncation, flipped bits, or a header that
    /// names another width or kind. Each case ends in a typed error or in
    /// entries that fit the width the reader asked for — never a panic.
    #[test]
    fn decoder_fuzz_ends_in_a_typed_error_or_a_value() {
        let mut rng = Rng(0xC52F_0032);
        let kinds = [Kind::RowPtr, Kind::ColIdx, Kind::Val];
        let (mut refused, mut decoded) = (0usize, 0usize);
        for case in 0..4000 {
            let kind = kinds[case % 3];
            let width = 1 + (rng.next() % u64::from(MAX_WIDTH)) as u32;
            let page_size = [64usize, 256][case % 2];
            let n = 1 + (rng.next() % per_page(page_size, width) as u64) as usize;
            let values: Vec<u64> = (0..n).map(|_| rng.next() & mask(width)).collect();
            let mut page = encode_pages(kind, width, page_size, &values).unwrap().remove(0);
            page.resize(page_size, 0);
            let (mut read_kind, mut read_width) = (kind, width);
            match (case / 2) % 5 {
                0 => page = (0..rng.next() % 300).map(|_| rng.next().to_le_bytes()[0]).collect(),
                1 => page.truncate((rng.next() % (page.len() as u64 + 1)) as usize),
                2 => {
                    for _ in 0..1 + rng.next() % 4 {
                        let at = (rng.next() % page.len() as u64) as usize;
                        page[at] ^= 1 << (rng.next() % 8);
                    }
                }
                3 => read_width = 1 + (width + (rng.next() % 63) as u32) % MAX_WIDTH,
                _ => read_kind = kinds[(case + 1 + (rng.next() % 2) as usize) % 3],
            }
            match decode_page(&page, read_kind, read_width) {
                Ok(got) => {
                    assert!(got.len() <= per_page(page.len(), read_width), "case {case}");
                    assert!(got.iter().all(|&v| v & !mask(read_width) == 0), "case {case}");
                    decoded += 1;
                }
                Err(e) => {
                    assert!(matches!(e, DeviceError::Corrupt { what: "csr", .. }), "{e}");
                    refused += 1;
                }
            }
        }
        println!("{refused} refused, {decoded} decoded");
        assert!(refused > 1500 && decoded > 800, "{refused} refused, {decoded} decoded");
    }

    #[test]
    fn widths_are_observed_from_metadata() {
        assert_eq!((bits(0), bits(1), bits(2), bits(255), bits(256)), (1, 1, 2, 8, 9));
        assert_eq!(bits(u64::MAX), 64);
        // CF-17: ids fit 17 bits; the paper's 124.8 M vertices need 27.
        assert_eq!(colidx_width(1 << 17), 17);
        assert_eq!(colidx_width(124_800_000), 27);
        assert_eq!((colidx_width(0), colidx_width(1), colidx_width(2)), (1, 1, 1));
        // A rowptr extent's width is its colidx extent's capacity's.
        let p = Partition::new(256, 64, 2);
        assert_eq!((p.colidx.width, p.colidx.per_page), (6, 330));
        assert_eq!((p.capacity, p.rowptr.width), (660, 10));
        assert_eq!(Partition::new(256, 64, 0).rowptr.width, 1);
        assert_eq!(p.val.width, 32);
        assert_eq!((per_page(15, 1), per_page(16, 64), per_page(64, 0)), (0, 1, 0));
    }

    #[test]
    fn a_value_wider_than_its_page_is_refused_not_cut() {
        let e = encode_pages(Kind::ColIdx, 4, 256, &[3u64, 16]).unwrap_err();
        assert!(matches!(e, DeviceError::Corrupt { what: "csr", .. }), "{e}");
        assert!(encode_pages(Kind::Val, 32, 12, &[1u32]).is_err());
        assert_eq!(encode_pages::<u32>(Kind::Val, 32, 256, &[]).unwrap(), Vec::<Vec<u8>>::new());
    }
}
