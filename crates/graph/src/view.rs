use std::fmt;
use std::marker::PhantomData;

use mlvc_ssd::Page;

use crate::page::{self, Layout, HEADER_BYTES};
use crate::VertexId;

/// An entry of a stored extent, at most 32 bits wide: a column index or an
/// edge weight.
pub trait Entry: Copy + PartialEq + fmt::Debug {
    /// The entry whose bits these are.
    fn from_bits(bits: u32) -> Self;
}

impl Entry for VertexId {
    fn from_bits(bits: u32) -> Self {
        bits
    }
}

impl Entry for f32 {
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

/// A vertex's out-neighbours, read where they are.
pub type Edges<'a> = ListView<'a, VertexId>;

/// A vertex's out-edge weights, parallel to its [`Edges`].
pub type Weights<'a> = ListView<'a, f32>;

/// One vertex's list of entries, viewed in place: the bit-packed entries of
/// the CSR pages the device lent (decoded entry by entry, where asked for),
/// or a slice for a list that never was stored bytes — one the edge log
/// served, a structurally patched one, an in-memory engine's. A handle, not
/// a container: `Copy`, and as cheap to pass as a slice.
#[derive(Clone, Copy)]
pub struct ListView<'a, T> {
    repr: Repr<'a, T>,
}

#[derive(Clone, Copy)]
enum Repr<'a, T> {
    Slice(&'a [T]),
    /// `len` entries of `width` bits starting at entry `off` of `pages[0]`
    /// and running on through the following pages, `per_page` entries each.
    Stored { pages: &'a [Page], off: usize, len: usize, per_page: usize, width: u32 },
}

/// The part of a list that lies in one page (a slice-backed list is one
/// segment), for loops that want to run over a page at a time.
#[derive(Clone, Copy, Debug)]
pub enum Segment<'a, T> {
    Decoded(&'a [T]),
    /// Stored entries, still bit-packed.
    Packed(Packed<'a, T>),
}

/// Bit-packed entries of one lent page: `len` entries of `width` bits from
/// entry `first` of the page's payload.
#[derive(Clone, Copy, Debug)]
pub struct Packed<'a, T> {
    payload: &'a [u8],
    first: usize,
    len: usize,
    width: u32,
    entry: PhantomData<T>,
}

impl<T: Entry> Packed<'_, T> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries, decoded into `buf` and returned from it. `buf` is grown
    /// as needed and kept by the caller, so a segment costs no allocation;
    /// the whole groups of eight the entries lie in are decoded, eight at a
    /// time from one window of the page (`page::unpack`), so `buf` may also
    /// hold their neighbours on either side of the returned slice.
    #[inline]
    pub fn decode<'b>(&self, buf: &'b mut Vec<T>) -> &'b [T] {
        let (group, skip) = (self.first / 8, self.first % 8);
        let need = (skip + self.len).next_multiple_of(8);
        if buf.len() < need {
            buf.resize(need, T::from_bits(0));
        }
        page::unpack(self.payload, group, self.width, &mut buf[..need]);
        &buf[skip..skip + self.len]
    }
}

impl<'a, T: Entry> ListView<'a, T> {
    /// A view of stored entries laid out as `lay` says. The caller has
    /// checked every page the list touches against `lay` and that it holds
    /// the entries taken from it (`GraphLoader::load_active`'s per-page
    /// header check), so no read below can fall outside a page.
    pub(crate) fn stored(pages: &'a [Page], off: usize, len: usize, lay: Layout) -> Self {
        let (per_page, width) = (lay.per_page, lay.width);
        ListView { repr: Repr::Stored { pages, off, len, per_page, width } }
    }

    pub fn len(&self) -> usize {
        match self.repr {
            Repr::Slice(s) => s.len(),
            Repr::Stored { len, .. } => len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th entry, `None` past the end.
    #[inline]
    pub fn get(&self, k: usize) -> Option<T> {
        match self.repr {
            Repr::Slice(s) => s.get(k).copied(),
            Repr::Stored { pages, off, len, per_page, width } => (k < len).then(|| {
                let e = off + k;
                let payload = &pages[e / per_page][HEADER_BYTES..];
                T::from_bits(page::narrow_entry(payload, e % per_page, width))
            }),
        }
    }

    pub fn iter(&self) -> Iter<'a, T> {
        Iter { list: *self, next: 0 }
    }

    /// The list page by page, in order; no segment is empty.
    pub fn segments(&self) -> Segments<'a, T> {
        Segments { rest: *self }
    }

    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }
}

impl<'a, T> From<&'a [T]> for ListView<'a, T> {
    fn from(s: &'a [T]) -> Self {
        ListView { repr: Repr::Slice(s) }
    }
}

impl<'a, T, const N: usize> From<&'a [T; N]> for ListView<'a, T> {
    fn from(s: &'a [T; N]) -> Self {
        ListView::from(s.as_slice())
    }
}

impl<'a, T> From<&'a Vec<T>> for ListView<'a, T> {
    fn from(s: &'a Vec<T>) -> Self {
        ListView::from(s.as_slice())
    }
}

/// Entries of a [`ListView`], decoded as they are yielded.
pub struct Iter<'a, T> {
    list: ListView<'a, T>,
    next: usize,
}

impl<T: Entry> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let e = self.list.get(self.next)?;
        self.next += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.next;
        (left, Some(left))
    }
}

impl<T: Entry> ExactSizeIterator for Iter<'_, T> {}

impl<'a, T: Entry> IntoIterator for ListView<'a, T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Page-contiguous runs of a [`ListView`].
pub struct Segments<'a, T> {
    rest: ListView<'a, T>,
}

impl<'a, T: Entry> Iterator for Segments<'a, T> {
    type Item = Segment<'a, T>;

    fn next(&mut self) -> Option<Segment<'a, T>> {
        match self.rest.repr {
            Repr::Slice([]) | Repr::Stored { len: 0, .. } => None,
            Repr::Slice(s) => {
                self.rest = ListView::from(&s[s.len()..]);
                Some(Segment::Decoded(s))
            }
            Repr::Stored { pages, off, len, per_page, width } => {
                let (at, first) = (off / per_page, off % per_page);
                let take = len.min(per_page - first);
                let rest = Repr::Stored { pages: &pages[at + 1..], off: 0, len: len - take, per_page, width };
                self.rest = ListView { repr: rest };
                let payload = &pages[at][HEADER_BYTES..];
                Some(Segment::Packed(Packed { payload, first, len: take, width, entry: PhantomData }))
            }
        }
    }
}

impl<T: Entry> fmt::Debug for ListView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Entry by entry, whatever either side is backed by.
impl<T: Entry> PartialEq for ListView<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Entry> PartialEq<[T]> for ListView<'_, T> {
    fn eq(&self, other: &[T]) -> bool {
        *self == ListView::from(other)
    }
}

impl<T: Entry> PartialEq<&[T]> for ListView<'_, T> {
    fn eq(&self, other: &&[T]) -> bool {
        *self == **other
    }
}

impl<T: Entry, const N: usize> PartialEq<[T; N]> for ListView<'_, T> {
    fn eq(&self, other: &[T; N]) -> bool {
        *self == other[..]
    }
}

impl<T: Entry, const N: usize> PartialEq<&[T; N]> for ListView<'_, T> {
    fn eq(&self, other: &&[T; N]) -> bool {
        *self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Kind;

    /// 16-byte pages of 16-bit entries: 4 a page.
    const LAY: Layout = Layout { kind: Kind::ColIdx, width: 16, per_page: 4 };

    fn packed_pages(entries: &[u32]) -> Vec<Page> {
        let pages = page::encode_pages(LAY.kind, LAY.width, 16, entries).unwrap();
        pages.iter().map(|p| Page::from(p.as_slice())).collect()
    }

    fn decoded(seg: Segment<'_, u32>) -> Vec<u32> {
        match seg {
            Segment::Decoded(s) => s.to_vec(),
            Segment::Packed(p) => p.decode(&mut Vec::new()).to_vec(),
        }
    }

    #[test]
    fn a_stored_view_reads_across_page_boundaries() {
        let all: Vec<u32> = (100..120).collect();
        let pages = packed_pages(&all);
        assert_eq!(LAY, Layout::new(Kind::ColIdx, 16, 16));
        // Entries 3..17: the tail of page 0, pages 1-3 whole, one of page 4.
        let view: Edges = ListView::stored(&pages, 3, 14, LAY);
        assert_eq!(view.len(), 14);
        assert_eq!(view, all[3..17]);
        assert_eq!(view.get(0), Some(103));
        assert_eq!(view.get(13), Some(116));
        assert_eq!(view.get(14), None);
        assert_eq!(view.iter().len(), 14);
        let segs: Vec<Vec<u32>> = view.segments().map(decoded).collect();
        assert_eq!(segs.iter().map(Vec::len).collect::<Vec<_>>(), [1, 4, 4, 4, 1]);
        assert_eq!(segs.concat(), all[3..17]);
        assert_eq!(format!("{:?}", ListView::<u32>::stored(&pages, 3, 2, LAY)), "[103, 104]");
    }

    /// A long segment at 17 bits, starting and ending off a group of eight,
    /// decodes whole and in order, into a buffer that is grown, never shrunk.
    #[test]
    fn a_packed_segment_decodes_into_a_kept_buffer() {
        let lay = Layout::new(Kind::ColIdx, 17, 16 << 10);
        let all: Vec<u32> = (0..1000u32).map(|k| k.wrapping_mul(2_654_435_761) >> 15).collect();
        let pages: Vec<Page> = page::encode_pages(lay.kind, lay.width, 16 << 10, &all)
            .unwrap()
            .iter()
            .map(|p| Page::from(p.as_slice()))
            .collect();
        let view: Edges = ListView::stored(&pages, 7, 900, lay);
        let Some(Segment::Packed(p)) = view.segments().next() else {
            panic!("a stored list is packed")
        };
        assert_eq!(p.len(), 900);
        let mut buf = vec![u32::MAX; 1000];
        assert_eq!(p.decode(&mut buf), &all[7..907]);
        assert_eq!((buf.len(), buf[999]), (1000, u32::MAX));
        let mut buf = Vec::new();
        assert_eq!(p.decode(&mut buf), &all[7..907]);
        assert_eq!(buf.len(), 912, "the 114 groups of eight entries 7..907 lie in");
        assert_eq!(view.to_vec(), all[7..907]);
    }

    #[test]
    fn a_slice_view_is_one_segment_and_an_empty_view_none() {
        let ids = [7u32, 8, 9];
        let view = Edges::from(&ids);
        assert_eq!(view, ids);
        assert_eq!((view.get(2), view.get(3)), (Some(9), None));
        assert_eq!(view.segments().map(decoded).collect::<Vec<_>>(), [ids.to_vec()]);
        assert_eq!(Edges::from(&[]).segments().count(), 0);
        assert_eq!(Edges::stored(&[], 0, 0, LAY).segments().count(), 0);
        assert!(Edges::stored(&[], 0, 0, LAY).is_empty());
        // A list that ends exactly at a page boundary walks no further page.
        let pages = packed_pages(&[1, 2, 3, 4]);
        assert_eq!(Edges::stored(&pages, 2, 2, LAY).segments().count(), 1);
        let w = [0.5f32, 1.5];
        assert_eq!(Weights::from(&w).to_vec(), w);
    }
}
