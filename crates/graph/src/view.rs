use std::fmt;

use mlvc_ssd::Page;

use crate::VertexId;

/// A 4-byte little-endian entry of a stored extent: a column index or an
/// edge weight.
pub trait Entry: Copy + PartialEq + fmt::Debug {
    fn decode(bytes: [u8; 4]) -> Self;
}

impl Entry for VertexId {
    fn decode(bytes: [u8; 4]) -> Self {
        VertexId::from_le_bytes(bytes)
    }
}

impl Entry for f32 {
    fn decode(bytes: [u8; 4]) -> Self {
        f32::from_le_bytes(bytes)
    }
}

/// A vertex's out-neighbours, read where they are.
pub type Edges<'a> = ListView<'a, VertexId>;

/// A vertex's out-edge weights, parallel to its [`Edges`].
pub type Weights<'a> = ListView<'a, f32>;

/// One vertex's list of 4-byte entries, viewed in place: the stored bytes of
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
    /// `len` entries starting at entry `off` of `pages[0]` and running on
    /// through the following pages, `per_page` entries each.
    Stored { pages: &'a [Page], off: usize, len: usize, per_page: usize },
}

/// The part of a list that lies in one page (a slice-backed list is one
/// segment): contiguous memory, for loops that want a slice to run over.
#[derive(Clone, Copy, Debug)]
pub enum Segment<'a, T> {
    Decoded(&'a [T]),
    /// Stored entries, each still little-endian bytes ([`Entry::decode`]).
    Le(&'a [[u8; 4]]),
}

impl<'a, T: Entry> ListView<'a, T> {
    /// A view of stored entries. The caller has checked that every page the
    /// list touches is long enough for the entries taken from it
    /// (`GraphLoader::load_active`'s per-page length check), so no index
    /// below can fall outside a page.
    pub(crate) fn stored(pages: &'a [Page], off: usize, len: usize, per_page: usize) -> Self {
        ListView { repr: Repr::Stored { pages, off, len, per_page } }
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
    pub fn get(&self, k: usize) -> Option<T> {
        match self.repr {
            Repr::Slice(s) => s.get(k).copied(),
            Repr::Stored { pages, off, len, per_page } => (k < len).then(|| {
                let e = off + k;
                T::decode(pages[e / per_page].as_chunks::<4>().0[e % per_page])
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
            Repr::Stored { pages, off, len, per_page } => {
                let (page, within) = (off / per_page, off % per_page);
                let take = len.min(per_page - within);
                self.rest = ListView::stored(&pages[page + 1..], 0, len - take, per_page);
                Some(Segment::Le(&pages[page].as_chunks::<4>().0[within..within + take]))
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

    fn le_pages(entries: &[u32], per_page: usize) -> Vec<Page> {
        entries
            .chunks(per_page)
            .map(|c| {
                let bytes: Vec<u8> = c.iter().flat_map(|e| e.to_le_bytes()).collect();
                Page::from(bytes.as_slice())
            })
            .collect()
    }

    fn decoded(seg: Segment<'_, u32>) -> Vec<u32> {
        match seg {
            Segment::Decoded(s) => s.to_vec(),
            Segment::Le(b) => b.iter().map(|&e| u32::decode(e)).collect(),
        }
    }

    #[test]
    fn a_stored_view_reads_across_page_boundaries() {
        let all: Vec<u32> = (100..120).collect();
        let pages = le_pages(&all, 4);
        // Entries 3..17: the tail of page 0, pages 1-3 whole, one of page 4.
        let view: Edges = ListView::stored(&pages, 3, 14, 4);
        assert_eq!(view.len(), 14);
        assert_eq!(view, all[3..17]);
        assert_eq!(view.get(0), Some(103));
        assert_eq!(view.get(13), Some(116));
        assert_eq!(view.get(14), None);
        assert_eq!(view.iter().len(), 14);
        let segs: Vec<Vec<u32>> = view.segments().map(decoded).collect();
        assert_eq!(segs.iter().map(Vec::len).collect::<Vec<_>>(), [1, 4, 4, 4, 1]);
        assert_eq!(segs.concat(), all[3..17]);
        assert_eq!(format!("{:?}", ListView::<u32>::stored(&pages, 3, 2, 4)), "[103, 104]");
    }

    #[test]
    fn a_slice_view_is_one_segment_and_an_empty_view_none() {
        let ids = [7u32, 8, 9];
        let view = Edges::from(&ids);
        assert_eq!(view, ids);
        assert_eq!((view.get(2), view.get(3)), (Some(9), None));
        assert_eq!(view.segments().map(decoded).collect::<Vec<_>>(), [ids.to_vec()]);
        assert_eq!(Edges::from(&[]).segments().count(), 0);
        assert_eq!(Edges::stored(&[], 0, 0, 4).segments().count(), 0);
        assert!(Edges::stored(&[], 0, 0, 4).is_empty());
        // A list that ends exactly at a page boundary walks no further page.
        let pages = le_pages(&[1, 2, 3, 4], 4);
        assert_eq!(Edges::stored(&pages, 2, 2, 4).segments().count(), 1);
        let w = [0.5f32, 1.5];
        assert_eq!(Weights::from(&w).to_vec(), w);
    }
}
