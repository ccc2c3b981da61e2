//! One log of pages, the shape of the multi-log's per-interval logs (§V-A)
//! and the edge log (§V-C): its file and its pages in log order, each on
//! the file, held or buffered in host memory. An owner that alternates two
//! carries its buffered tail across a superstep boundary by a flip.

use crate::checked::to_u64;
use mlvc_ssd::{DeviceError, FileId, Page, Ssd, Writes};

/// One log: its file and its pages in log order — the k-th `Device` is page k.
#[derive(Debug, Clone)]
pub(crate) struct Log {
    pub(crate) file: FileId,
    pub(crate) pages: Vec<Source>,
}

/// Where one page of a log is. A page keeps the bytes it was sealed with
/// while it stays in host memory; it is zero-padded only where it leaves
/// its owner — a device write, or a checkpoint snapshot.
#[derive(Debug, Clone)]
pub(crate) enum Source {
    /// The next page of the log's file.
    Device,
    /// Held in host memory under the log-tail retention budget.
    Held(Vec<u8>),
    /// In host memory under the buffer budget: sealed this superstep on
    /// the write side, carried across the boundary on the read side.
    Buffered(Vec<u8>),
}

impl Source {
    /// This page's bytes — a `Device` page's the next of `device` — and
    /// whether they count as useful: a read or held page's do, a buffered
    /// page was never written nor read.
    pub(crate) fn bytes<'p>(&'p self, device: &mut impl Iterator<Item = &'p Page>) -> Option<(&'p [u8], bool)> {
        match self {
            Source::Device => device.next().map(|p| (&p[..], true)),
            Source::Held(page) => Some((page, true)),
            Source::Buffered(page) => Some((page, false)),
        }
    }
}

/// What [`Log::settle`] may hold instead of writing, the owner's choice:
/// the bytes left, and the bytes its logs hold. An empty one holds nothing.
#[derive(Debug, Default)]
pub(crate) struct Budget {
    pub(crate) left: u64,
    pub(crate) held: u64,
}

/// What one [`Log::settle`] did: pages settled, their bytes, pages held.
pub(crate) struct Settled {
    pub(crate) pages: usize,
    pub(crate) bytes: u64,
    pub(crate) held: usize,
}

impl Log {
    /// The empty log on file `name`, created if need be, a previous run's
    /// residue under the name dropped.
    pub(crate) fn open(ssd: &Ssd, name: &str) -> Result<Log, DeviceError> {
        let file = ssd.open_or_create(name)?;
        ssd.truncate(file)?;
        Ok(Log { file, pages: Vec::new() })
    }

    fn count(&self, of: fn(&Source) -> bool) -> usize {
        self.pages.iter().filter(|s| of(s)).count()
    }

    pub(crate) fn device_pages(&self) -> usize {
        self.count(|s| matches!(s, Source::Device))
    }

    pub(crate) fn buffered_pages(&self) -> usize {
        self.count(|s| matches!(s, Source::Buffered(_)))
    }

    /// Append a sealed page, buffered.
    pub(crate) fn push(&mut self, page: Vec<u8>) {
        self.pages.push(Source::Buffered(page));
    }

    /// This log, whole, leaving it empty on the same file.
    pub(crate) fn take(&mut self) -> Log {
        Log { file: self.file, pages: std::mem::take(&mut self.pages) }
    }

    /// Drop this log, taken from its owner: its file's pages when it has
    /// any, and the held pages' bytes back in `budget`.
    pub(crate) fn discard(&self, ssd: &Ssd, budget: &mut Budget) -> Result<(), DeviceError> {
        if self.device_pages() > 0 {
            ssd.truncate(self.file)?;
        }
        let bytes = to_u64(self.count(|s| matches!(s, Source::Held(_))) * ssd.page_size());
        budget.held -= bytes;
        budget.left += bytes;
        Ok(())
    }

    /// Turn each buffered page, in place, into a held one while `budget`
    /// covers a whole `page_bytes` page, and into the file's next page —
    /// queued on `out` for the caller's one dispatch ([`write`]) — otherwise.
    pub(crate) fn settle(&mut self, page_bytes: u64, budget: &mut Budget, out: &mut Vec<(FileId, Vec<u8>)>) -> Settled {
        let mut done = Settled { pages: 0, bytes: 0, held: 0 };
        for s in &mut self.pages {
            let Source::Buffered(page) = s else { continue };
            let page = std::mem::take(page);
            (done.pages, done.bytes) = (done.pages + 1, done.bytes + to_u64(page.len()));
            if budget.left >= page_bytes {
                budget.left -= page_bytes;
                budget.held += page_bytes;
                done.held += 1;
                *s = Source::Held(page);
            } else {
                out.push((self.file, page));
                *s = Source::Device;
            }
        }
        done
    }
}

/// Write the pages [`Log::settle`] queued on `out` as one dispatch.
pub(crate) fn write(writes: &Writes, out: &[(FileId, Vec<u8>)]) -> Result<(), DeviceError> {
    let out: Vec<(FileId, &[u8])> = out.iter().map(|(f, page)| (*f, &page[..])).collect();
    writes.append(&out).map(drop)
}
