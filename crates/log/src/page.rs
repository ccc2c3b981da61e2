//! The log page format — the one place that knows how a logged message is
//! laid out on a device page (DESIGN.md §19).
//!
//! A page is an 8-byte header followed by `count` fixed-width records:
//!
//! | header field | width                | meaning                              |
//! |--------------|----------------------|--------------------------------------|
//! | `count`      | [`COUNT_BYTES`]      | records on the page                  |
//! | `flags`      | [`FLAGS_BYTES`]      | record shape ([`FLAG_WIDE_DEST`], [`FLAG_HAS_SRC`]); other bits zero |
//! | `dest_base`  | [`DEST_BASE_BYTES`]  | vertex the narrow offsets count from (zero on a wide page) |
//!
//! A record is `{dest}{src}{data}`: `dest` is a [`DEST_OFFSET_BYTES`]
//! offset from `dest_base` or, with [`FLAG_WIDE_DEST`], an absolute
//! [`DEST_ABS_BYTES`] vertex id; `src` ([`SRC_BYTES`]) is present only with
//! [`FLAG_HAS_SRC`]; `data` is the [`DATA_BYTES`] payload. The shape is a
//! property of the page, chosen by whoever fills it from what it can see —
//! whether the page's destinations span at most [`NARROW_DEST_SPAN`]
//! vertices, and whether the running program reads `src` at all — and
//! written into the header, so every reader decodes any page without being
//! told how it was written. All fields are little-endian.
//!
//! [`push_record`] is the only record encoder and [`LogPage::for_each`]
//! the only record decoder in the workspace; the multi-log's top buffers,
//! the mutation log and the GraFBoost baseline's run files all go through
//! them.

use std::fmt;
use std::ops::Range;

use mlvc_graph::VertexId;
use mlvc_ssd::DeviceError;

use crate::checked::idx;
use crate::Update;

/// Width of the header's record count.
pub const COUNT_BYTES: usize = 2;
/// Width of the header's shape flags.
pub const FLAGS_BYTES: usize = 2;
/// Width of the header's destination base.
pub const DEST_BASE_BYTES: usize = 4;
/// Bytes before the first record of a page.
pub const PAGE_HEADER_BYTES: usize = COUNT_BYTES + FLAGS_BYTES + DEST_BASE_BYTES;

/// Width of a narrow destination: an offset from the page's `dest_base`.
pub const DEST_OFFSET_BYTES: usize = 2;
/// Width of a wide destination: an absolute vertex id.
pub const DEST_ABS_BYTES: usize = 4;
/// Width of the optional source vertex id.
pub const SRC_BYTES: usize = 4;
/// Width of the message payload.
pub const DATA_BYTES: usize = 8;

/// Header flag: destinations are absolute vertex ids, not offsets.
pub const FLAG_WIDE_DEST: u16 = 1 << 0;
/// Header flag: every record carries its source vertex id.
pub const FLAG_HAS_SRC: u16 = 1 << 1;

/// Destination vertices a narrow page can address from its `dest_base`.
pub const NARROW_DEST_SPAN: usize = 1 << (8 * DEST_OFFSET_BYTES);

/// Destination span that accepts any vertex id a record can hold, for
/// readers whose caller validates destinations itself.
pub const ANY_DEST: Range<VertexId> = 0..VertexId::MAX;

/// Widest record any shape produces.
const MAX_RECORD_BYTES: usize = DEST_ABS_BYTES + SRC_BYTES + DATA_BYTES;

/// Record layout of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageShape {
    /// Absolute `u32` destinations instead of `u16` offsets.
    pub wide_dest: bool,
    /// Records carry the sending vertex.
    pub has_src: bool,
}

impl PageShape {
    /// Encoded width of one record in this shape.
    pub const fn record_bytes(self) -> usize {
        (if self.wide_dest {
            DEST_ABS_BYTES
        } else {
            DEST_OFFSET_BYTES
        }) + (if self.has_src { SRC_BYTES } else { 0 })
            + DATA_BYTES
    }

    /// Records of this shape that fit on one page (the header's count
    /// field bounds it on absurdly large pages).
    pub fn capacity(self, page_size: usize) -> usize {
        (page_size.saturating_sub(PAGE_HEADER_BYTES) / self.record_bytes())
            .min(usize::from(u16::MAX))
    }

    /// Byte length of a full page of this shape.
    pub fn full_page_bytes(self, page_size: usize) -> usize {
        PAGE_HEADER_BYTES + self.capacity(page_size) * self.record_bytes()
    }

    /// The header's flag word for this shape.
    pub const fn flags(self) -> u16 {
        (if self.wide_dest { FLAG_WIDE_DEST } else { 0 })
            | (if self.has_src { FLAG_HAS_SRC } else { 0 })
    }

    /// Inverse of [`Self::flags`]; `None` when a bit no writer sets is set.
    pub const fn from_flags(flags: u16) -> Option<PageShape> {
        if flags & !(FLAG_WIDE_DEST | FLAG_HAS_SRC) != 0 {
            return None;
        }
        Some(PageShape {
            wide_dest: flags & FLAG_WIDE_DEST != 0,
            has_src: flags & FLAG_HAS_SRC != 0,
        })
    }
}

/// A page that no writer of this format can have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageError {
    /// The header's flag word has a bit outside the defined shape flags.
    UnknownFlags { flags: u16 },
    /// A wide page (absolute destinations) with a non-zero `dest_base`.
    BaseOnWidePage { dest_base: VertexId },
    /// A record's destination lies outside the span its log belongs to.
    DestOutOfSpan {
        dest: VertexId,
        span_start: VertexId,
        span_end: VertexId,
    },
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::UnknownFlags { flags } => write!(f, "unknown shape flags {flags:#06x}"),
            PageError::BaseOnWidePage { dest_base } => {
                write!(f, "wide-destination page with destination base {dest_base}")
            }
            PageError::DestOutOfSpan {
                dest,
                span_start,
                span_end,
            } => write!(
                f,
                "record destination {dest} outside its log's span {span_start}..{span_end}"
            ),
        }
    }
}

impl std::error::Error for PageError {}

impl From<PageError> for DeviceError {
    fn from(e: PageError) -> Self {
        DeviceError::Corrupt {
            what: "log page",
            detail: e.to_string(),
        }
    }
}

/// Append `u` to the page under construction in `page`, opening the page
/// (header with a zero count) first when the buffer is empty. The caller
/// keeps `shape` and `dest_base` fixed for the page's lifetime and, on a
/// narrow page, only sends destinations within [`NARROW_DEST_SPAN`] of
/// `dest_base`; [`seal_page`] finishes the page.
#[inline]
pub fn push_record(page: &mut Vec<u8>, shape: PageShape, dest_base: VertexId, u: &Update) {
    // One body per shape, so each writes a record of constant width (a
    // caller whose shape is a constant keeps only its arm).
    match (shape.wide_dest, shape.has_src) {
        (false, false) => push::<false, false>(page, dest_base, u),
        (false, true) => push::<false, true>(page, dest_base, u),
        (true, false) => push::<true, false>(page, dest_base, u),
        (true, true) => push::<true, true>(page, dest_base, u),
    }
}

#[inline(always)]
fn push<const WIDE: bool, const SRC: bool>(page: &mut Vec<u8>, dest_base: VertexId, u: &Update) {
    let shape = PageShape {
        wide_dest: WIDE,
        has_src: SRC,
    };
    if page.is_empty() {
        page.extend_from_slice(&[0; COUNT_BYTES]);
        page.extend_from_slice(&shape.flags().to_le_bytes());
        let base = if WIDE { 0 } else { dest_base };
        page.extend_from_slice(&base.to_le_bytes());
    }
    let mut rec = [0u8; MAX_RECORD_BYTES];
    let dest_bytes = if WIDE {
        rec[..DEST_ABS_BYTES].copy_from_slice(&u.dest.to_le_bytes());
        DEST_ABS_BYTES
    } else {
        let off = u.dest.wrapping_sub(dest_base);
        debug_assert!(
            idx(off) < NARROW_DEST_SPAN,
            "destination outside the narrow page's span"
        );
        rec[..DEST_OFFSET_BYTES].copy_from_slice(&off.to_le_bytes()[..DEST_OFFSET_BYTES]);
        DEST_OFFSET_BYTES
    };
    let src_bytes = if SRC {
        rec[dest_bytes..dest_bytes + SRC_BYTES].copy_from_slice(&u.src.to_le_bytes());
        SRC_BYTES
    } else {
        0
    };
    let data_at = dest_bytes + src_bytes;
    rec[data_at..data_at + DATA_BYTES].copy_from_slice(&u.data.to_le_bytes());
    page.extend_from_slice(&rec[..shape.record_bytes()]);
}

/// Finish a page built by [`push_record`]: write the record count its
/// length implies into the header. A buffer that was never opened stays
/// empty.
pub fn seal_page(page: &mut [u8]) {
    let Some((header, body)) = page.split_first_chunk_mut::<PAGE_HEADER_BYTES>() else {
        return;
    };
    let flags = u16::from_le_bytes([header[COUNT_BYTES], header[COUNT_BYTES + 1]]);
    let Some(shape) = PageShape::from_flags(flags) else {
        return;
    };
    // A page never holds more than `PageShape::capacity` records, which
    // the count field bounds.
    let count = u16::try_from(body.len() / shape.record_bytes()).unwrap_or(u16::MAX);
    header[..COUNT_BYTES].copy_from_slice(&count.to_le_bytes());
}

/// Pack `updates`, in order, into finished pages. With `narrow_ok` each
/// page takes the narrow destination form when the destinations it would
/// hold span at most [`NARROW_DEST_SPAN`] vertices (re-based on the
/// smallest of them) and falls back to absolute destinations otherwise;
/// without it every page is wide. Every page but the last is full.
pub fn pack_pages(
    updates: &[Update],
    page_size: usize,
    has_src: bool,
    narrow_ok: bool,
) -> Vec<Vec<u8>> {
    let narrow = PageShape {
        wide_dest: false,
        has_src,
    };
    let wide = PageShape {
        wide_dest: true,
        has_src,
    };
    let mut pages = Vec::new();
    let mut rest = updates;
    while !rest.is_empty() {
        let fits = narrow.capacity(page_size).clamp(1, rest.len());
        let lo = rest[..fits].iter().map(|u| u.dest).min().unwrap_or(0);
        let hi = rest[..fits].iter().map(|u| u.dest).max().unwrap_or(0);
        let (shape, n) = if narrow_ok && idx(hi - lo) < NARROW_DEST_SPAN {
            (narrow, fits)
        } else {
            (wide, wide.capacity(page_size).clamp(1, rest.len()))
        };
        let (now, later) = rest.split_at(n);
        let mut page = Vec::with_capacity(PAGE_HEADER_BYTES + n * shape.record_bytes());
        for u in now {
            push_record(&mut page, shape, lo, u);
        }
        seal_page(&mut page);
        pages.push(page);
        rest = later;
    }
    pages
}

/// A parsed page header over the page's record bytes.
#[derive(Debug, Clone, Copy)]
pub struct LogPage<'a> {
    shape: PageShape,
    dest_base: VertexId,
    /// Whole records present, never more than the header claims.
    count: usize,
    body: &'a [u8],
}

impl<'a> LogPage<'a> {
    /// Validate a page's header. A page too short for its header, or for
    /// the records its header counts, is *torn* (the write that produced
    /// it was cut short): it parses to its well-formed prefix. A header no
    /// writer produces is corruption and a typed error.
    pub fn parse(page: &'a [u8]) -> Result<LogPage<'a>, PageError> {
        let Some((header, body)) = page.split_first_chunk::<PAGE_HEADER_BYTES>() else {
            let shape = PageShape {
                wide_dest: false,
                has_src: false,
            };
            return Ok(LogPage {
                shape,
                dest_base: 0,
                count: 0,
                body: &[],
            });
        };
        let [c0, c1, f0, f1, b0, b1, b2, b3] = *header;
        let flags = u16::from_le_bytes([f0, f1]);
        let shape = PageShape::from_flags(flags).ok_or(PageError::UnknownFlags { flags })?;
        let dest_base = u32::from_le_bytes([b0, b1, b2, b3]);
        if shape.wide_dest && dest_base != 0 {
            return Err(PageError::BaseOnWidePage { dest_base });
        }
        let count =
            usize::from(u16::from_le_bytes([c0, c1])).min(body.len() / shape.record_bytes());
        Ok(LogPage {
            shape,
            dest_base,
            count,
            body,
        })
    }

    /// Well-formed records on the page.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn shape(&self) -> PageShape {
        self.shape
    }

    /// Bytes of the page its header and well-formed records occupy — what
    /// a reader declares as useful.
    pub fn encoded_bytes(&self) -> usize {
        PAGE_HEADER_BYTES + self.count * self.shape.record_bytes()
    }

    /// Decode every record in page order, handing each to `f`. Every
    /// destination is checked against `span` (the vertex range of the log
    /// the page was read from) before `f` sees it, so a caller may index
    /// by `dest - span.start` without a check of its own. Records without
    /// a stored source decode with `src = VertexId::MAX`.
    #[inline]
    pub fn for_each(&self, span: &Range<VertexId>, f: impl FnMut(Update)) -> Result<(), PageError> {
        match (self.shape.wide_dest, self.shape.has_src) {
            (false, false) => self.walk::<false, false>(span, f),
            (false, true) => self.walk::<false, true>(span, f),
            (true, false) => self.walk::<true, false>(span, f),
            (true, true) => self.walk::<true, true>(span, f),
        }
    }

    #[inline]
    fn walk<const WIDE: bool, const SRC: bool>(
        &self,
        span: &Range<VertexId>,
        mut f: impl FnMut(Update),
    ) -> Result<(), PageError> {
        let shape = PageShape {
            wide_dest: WIDE,
            has_src: SRC,
        };
        let width = span.end.saturating_sub(span.start);
        for rec in self
            .body
            .chunks_exact(shape.record_bytes())
            .take(self.count)
        {
            let (dest, rest) = if WIDE {
                let Some((d, rest)) = rec.split_first_chunk::<DEST_ABS_BYTES>() else {
                    break;
                };
                (u32::from_le_bytes(*d), rest)
            } else {
                let Some((d, rest)) = rec.split_first_chunk::<DEST_OFFSET_BYTES>() else {
                    break;
                };
                (
                    self.dest_base
                        .wrapping_add(u32::from(u16::from_le_bytes(*d))),
                    rest,
                )
            };
            if dest.wrapping_sub(span.start) >= width {
                return Err(PageError::DestOutOfSpan {
                    dest,
                    span_start: span.start,
                    span_end: span.end,
                });
            }
            let (src, rest) = if SRC {
                let Some((s, rest)) = rest.split_first_chunk::<SRC_BYTES>() else {
                    break;
                };
                (u32::from_le_bytes(*s), rest)
            } else {
                (VertexId::MAX, rest)
            };
            let Some(data) = rest.first_chunk::<DATA_BYTES>() else {
                break;
            };
            f(Update {
                dest,
                src,
                data: u64::from_le_bytes(*data),
            });
        }
        Ok(())
    }
}

/// Decode one page onto the end of `out`, checking every destination
/// against `span`; returns the bytes of the page that were useful. On an
/// error `out` keeps the records decoded before the offending one.
pub fn decode_log_page(
    page: &[u8],
    span: &Range<VertexId>,
    out: &mut Vec<Update>,
) -> Result<usize, DeviceError> {
    let parsed = LogPage::parse(page)?;
    out.reserve(parsed.len());
    parsed.for_each(span, |u| out.push(u))?;
    Ok(parsed.encoded_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_gen::rng::SeededRng;

    const SHAPES: [PageShape; 4] = [
        PageShape {
            wide_dest: false,
            has_src: false,
        },
        PageShape {
            wide_dest: true,
            has_src: false,
        },
        PageShape {
            wide_dest: false,
            has_src: true,
        },
        PageShape {
            wide_dest: true,
            has_src: true,
        },
    ];

    fn masked(u: Update, shape: PageShape) -> Update {
        Update {
            src: if shape.has_src { u.src } else { VertexId::MAX },
            ..u
        }
    }

    #[test]
    fn record_widths_and_capacities() {
        let widths: Vec<usize> = SHAPES.iter().map(|s| s.record_bytes()).collect();
        assert_eq!(widths, vec![10, 12, 14, 16]);
        let caps: Vec<usize> = SHAPES.iter().map(|s| s.capacity(16 << 10)).collect();
        assert_eq!(caps, vec![1637, 1364, 1169, 1023]);
        let small: Vec<usize> = SHAPES.iter().map(|s| s.capacity(256)).collect();
        assert_eq!(small, vec![24, 20, 17, 15]);
        // Pages smaller than a header hold nothing; huge ones stop at the
        // count field's range.
        assert_eq!(SHAPES[0].capacity(4), 0);
        assert_eq!(SHAPES[0].capacity(1 << 24), usize::from(u16::MAX));
        for s in SHAPES {
            assert_eq!(PageShape::from_flags(s.flags()), Some(s));
        }
        assert_eq!(PageShape::from_flags(4), None);
    }

    #[test]
    fn every_shape_round_trips() {
        let base = 70_000u32;
        let ups: Vec<Update> = (0..20u32)
            .map(|k| Update::new(base + k * 3, k + 1, u64::from(k) * 99))
            .collect();
        for shape in SHAPES {
            let mut page = Vec::new();
            for u in &ups {
                push_record(&mut page, shape, base, u);
            }
            seal_page(&mut page);
            assert_eq!(page.len(), PAGE_HEADER_BYTES + 20 * shape.record_bytes());
            let parsed = LogPage::parse(&page).unwrap();
            assert_eq!((parsed.len(), parsed.shape()), (20, shape));
            let mut out = Vec::new();
            let useful = decode_log_page(&page, &(base..base + 100), &mut out).unwrap();
            assert_eq!(useful, page.len());
            let want: Vec<Update> = ups.iter().map(|&u| masked(u, shape)).collect();
            assert_eq!(out, want, "{shape:?}");
        }
    }

    #[test]
    fn pack_picks_narrow_where_the_span_allows_and_wide_elsewhere() {
        let cap = |s: PageShape| s.capacity(256);
        // 30 clustered destinations, then 30 spread over 2^20 vertices.
        let mut ups: Vec<Update> = (0..30u32).map(|k| Update::new(5000 + k, k, 1)).collect();
        ups.extend((0..30u32).map(|k| Update::new(k << 15, k, 2)));
        let pages = pack_pages(&ups, 256, false, true);
        let shapes: Vec<(bool, usize)> = pages
            .iter()
            .map(|p| {
                LogPage::parse(p)
                    .map(|p| (p.shape().wide_dest, p.len()))
                    .unwrap()
            })
            .collect();
        // One full narrow page (24), then the clustered tail shares a page
        // with spread destinations and falls back to wide (20 each).
        assert_eq!(shapes[0], (false, cap(SHAPES[0])));
        assert!(shapes[1..].iter().all(|&(wide, _)| wide));
        assert!(shapes[1..shapes.len() - 1]
            .iter()
            .all(|&(_, n)| n == cap(SHAPES[1])));
        let mut out = Vec::new();
        for p in &pages {
            decode_log_page(p, &ANY_DEST, &mut out).unwrap();
        }
        let want: Vec<Update> = ups.iter().map(|&u| masked(u, SHAPES[0])).collect();
        assert_eq!(out, want);
        // Forced wide: no narrow page at all.
        assert!(pack_pages(&ups, 256, true, false)
            .iter()
            .all(|p| LogPage::parse(p).unwrap().shape() == SHAPES[3]));
    }

    #[test]
    fn corrupt_headers_and_destinations_are_typed_errors() {
        let mut page = Vec::new();
        push_record(&mut page, SHAPES[0], 100, &Update::new(130, 0, 7));
        seal_page(&mut page);
        let span = 100..200;
        assert!(decode_log_page(&page, &span, &mut Vec::new()).is_ok());
        // Undefined flag bit.
        let mut bad = page.clone();
        bad[COUNT_BYTES] |= 0x80;
        assert_eq!(
            LogPage::parse(&bad).unwrap_err(),
            PageError::UnknownFlags { flags: 0x80 }
        );
        // Wide page with a base.
        let mut bad = page.clone();
        bad[COUNT_BYTES] |= 1;
        assert!(matches!(
            LogPage::parse(&bad),
            Err(PageError::BaseOnWidePage { dest_base: 100 })
        ));
        // Destination bit flipped out of the span: above and (by base) below.
        let mut bad = page.clone();
        bad[PAGE_HEADER_BYTES + 1] ^= 0x80;
        let err = decode_log_page(&bad, &span, &mut Vec::new()).unwrap_err();
        assert!(
            matches!(
                err,
                DeviceError::Corrupt {
                    what: "log page",
                    ..
                }
            ),
            "{err}"
        );
        let mut bad = page.clone();
        bad[COUNT_BYTES + FLAGS_BYTES] = 0;
        assert!(decode_log_page(&bad, &span, &mut Vec::new()).is_err());
    }

    #[test]
    fn torn_pages_decode_their_well_formed_prefix() {
        let ups: Vec<Update> = (0..10u32)
            .map(|k| Update::new(k, k, u64::from(k)))
            .collect();
        let page = pack_pages(&ups, 256, true, true).remove(0);
        for cut in 0..page.len() {
            let mut out = Vec::new();
            decode_log_page(&page[..cut], &(0..10), &mut out).unwrap();
            let whole = cut.saturating_sub(PAGE_HEADER_BYTES) / SHAPES[2].record_bytes();
            let whole = if cut < PAGE_HEADER_BYTES { 0 } else { whole };
            assert_eq!(out, ups[..whole], "cut at {cut}");
        }
    }

    /// Seeded fuzz (ROADMAP 4b, first slice): random bytes, truncations and
    /// bit flips of valid pages either decode to a well-formed prefix whose
    /// destinations all lie in the span, or fail with a typed error. The
    /// decoder never panics and never reports more useful bytes than the
    /// page has.
    #[test]
    fn decoder_fuzz_never_panics() {
        let mut rng = SeededRng::seed_from_u64(0x4D4C_0013);
        let span = 1000u32..1000 + 70_000;
        let check = |bytes: &[u8]| {
            let mut out = Vec::new();
            match decode_log_page(bytes, &span, &mut out) {
                Ok(useful) => {
                    assert!(useful <= bytes.len().max(PAGE_HEADER_BYTES));
                    assert!(out.iter().all(|u| span.contains(&u.dest)));
                }
                Err(e) => assert!(matches!(e, DeviceError::Corrupt { .. }), "{e}"),
            }
        };
        for case in 0..2000 {
            let has_src = rng.gen_bool(0.5);
            let n = rng.gen_range(0usize..40);
            let spread = if rng.gen_bool(0.5) { 50 } else { 70_000 };
            let ups: Vec<Update> = (0..n)
                .map(|_| {
                    Update::new(
                        span.start + rng.gen_range(0u32..spread),
                        rng.gen_range(0u32..1 << 20),
                        rng.next_u64(),
                    )
                })
                .collect();
            let mut bytes: Vec<u8> = pack_pages(&ups, 256, has_src, true).concat();
            match case % 4 {
                // Pure noise of a random length.
                0 => {
                    let len = rng.gen_range(0usize..300);
                    bytes = (0..len).map(|_| rng.next_u64().to_le_bytes()[0]).collect();
                }
                // Truncation at a random byte.
                1 => bytes.truncate(rng.gen_range(0usize..bytes.len() + 1)),
                // One to four flipped bits.
                2 if !bytes.is_empty() => {
                    for _ in 0..rng.gen_range(1usize..5) {
                        let at = rng.gen_range(0usize..bytes.len());
                        bytes[at] ^= 1 << rng.gen_range(0u32..8);
                    }
                }
                // Untouched (possibly several pages back to back: only the
                // first header counts, the rest is body).
                _ => {}
            }
            check(&bytes);
        }
    }
}
