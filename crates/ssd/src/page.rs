//! The one page buffer type of the read path.

use std::io;
use std::ops::Deref;
use std::sync::Arc;

/// One device page, lent: an immutable handle on a shared buffer. Cloning
/// copies the handle, never the bytes, so the store, the cache, a queue
/// ticket and any number of decoders (on any thread) hold the same
/// allocation. Nothing can write through a `Page`; a device write installs
/// a *new* `Page` in the slot, so a handle keeps exactly the bytes it was
/// read with across overwrite, truncate and delete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Page(Arc<[u8]>);

impl Page {
    /// `page_size` zero bytes in the allocation every handle will share;
    /// unique until the constructor returns, so `Arc::make_mut` below hands
    /// out the buffer itself and never clones it.
    fn zeroed(page_size: usize) -> Arc<[u8]> {
        std::iter::repeat_n(0u8, page_size).collect()
    }

    /// A page of `page_size` bytes: `payload` (cut to the page), then
    /// zeroes — what the device stores for a short write. Built once, in
    /// its final allocation.
    pub(crate) fn zero_padded(payload: &[u8], page_size: usize) -> Page {
        // A payload that fills the page needs no zeroes under it.
        if let Some(full) = payload.get(..page_size) {
            return Page(Arc::from(full));
        }
        let mut buf = Page::zeroed(page_size);
        Arc::make_mut(&mut buf)[..payload.len()].copy_from_slice(payload);
        Page(buf)
    }

    /// A page filled in place by the one read that produces it (the
    /// file-backed store's `read_at`).
    pub(crate) fn read_into(
        page_size: usize,
        fill: impl FnOnce(&mut [u8]) -> io::Result<()>,
    ) -> io::Result<Page> {
        let mut buf = Page::zeroed(page_size);
        fill(Arc::make_mut(&mut buf))?;
        Ok(Page(buf))
    }

    /// Whether two handles share one allocation (not merely equal bytes).
    pub fn ptr_eq(a: &Page, b: &Page) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

/// A page holding exactly `bytes` — for bytes that did not come from a
/// device read (a checkpointed log page being restored, a test fixture).
impl From<&[u8]> for Page {
    fn from(bytes: &[u8]) -> Page {
        Page(Arc::from(bytes))
    }
}

impl Deref for Page {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Page {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}
