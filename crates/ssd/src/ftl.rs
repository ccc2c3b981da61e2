//! Flash translation layer model: logical-to-physical mapping, erase
//! blocks, and greedy garbage collection.
//!
//! The paper's multi-log design is friendly to flash precisely because it
//! writes *sequentially within append-only logs* and frees whole extents
//! at once (logs are truncated after each superstep). In-place designs
//! (GraphChi writes back shard pages in place) force the FTL to relocate
//! still-live pages when reclaiming blocks — device-level write
//! amplification on top of the host traffic.
//!
//! [`FtlModel`] takes host-level page writes, overwrites and trims against
//! a device of configurable geometry and reports physical program counts,
//! erase counts, the resulting write-amplification factor and the peak
//! live footprint. A device feeds it live: [`crate::Ssd::enable_ftl`]
//! attaches one, and from then on every page write and trim reaches it as
//! it happens. Unattached, the I/O path pays nothing for it.

use std::collections::HashMap;
use std::fmt;

use crate::checked::to_u64;

/// Logical page address the FTL maps: (file, page index).
pub type Lpa = (u32, u64);

/// Device geometry and GC policy of the model.
#[derive(Debug, Clone)]
pub struct FtlConfig {
    /// Pages per erase block (flash blocks hold 64–256 pages; default 128).
    pub pages_per_block: usize,
    /// Total blocks in the device.
    pub blocks: usize,
    /// GC kicks in when free blocks fall to this count (default 2).
    pub gc_low_watermark: usize,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig { pages_per_block: 128, blocks: 256, gc_low_watermark: 2 }
    }
}

/// What the model has seen so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host-issued page programs.
    pub host_writes: u64,
    /// Physical page programs (host + GC relocations).
    pub physical_writes: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Live pages relocated by garbage collection.
    pub gc_relocations: u64,
    /// High-water mark of live logical pages: the smallest capacity, in
    /// pages, that held everything the host kept at once.
    pub peak_live: u64,
}

impl FtlStats {
    /// Device write amplification: physical programs per host program.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.physical_writes as f64 / self.host_writes as f64
        }
    }
}

/// Why a page could not be programmed: the device is sized below what the
/// host keeps live. The model stays consistent — a host that trims can go
/// on — but the write that hit this did not land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The host write frontier is full, no block is free, and garbage
    /// collection can reclaim none.
    NoFreeBlock { lpa: Lpa },
    /// A victim block's survivors must move before it is erased, and the GC
    /// frontier plus the free blocks have `room` pages for `survivors`.
    NoGcRoom { survivors: usize, room: usize },
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::NoFreeBlock { lpa: (file, page) } => write!(
                f,
                "no free block for page {page} of file {file}: \
                 the live data exceeds physical capacity + over-provisioning"
            ),
            FtlError::NoGcRoom { survivors, room } => write!(
                f,
                "garbage collection has {room} free pages for {survivors} relocations"
            ),
        }
    }
}

impl std::error::Error for FtlError {}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PageState {
    Free,
    Valid(Lpa),
    Invalid,
}

/// Greedy-GC page-mapping FTL with hot/cold separation: host writes and
/// GC relocations fill *separate* open blocks, the standard defense
/// against re-mixing cold survivors with hot traffic.
pub struct FtlModel {
    cfg: FtlConfig,
    /// Physical pages, indexed `block * pages_per_block + offset`.
    pages: Vec<PageState>,
    /// Valid-page count per block.
    live: Vec<usize>,
    /// Logical → physical map.
    map: HashMap<Lpa, usize>,
    /// Host write frontier: block being filled and its next free offset.
    open_block: usize,
    write_ptr: usize,
    /// GC relocation frontier (`None` until the first relocation).
    gc_block: Option<usize>,
    gc_ptr: usize,
    free_blocks: Vec<usize>,
    stats: FtlStats,
}

impl FtlModel {
    pub fn new(cfg: FtlConfig) -> Self {
        assert!(cfg.blocks > cfg.gc_low_watermark + 1);
        assert!(cfg.pages_per_block >= 1);
        let free_blocks: Vec<usize> = (1..cfg.blocks).rev().collect();
        FtlModel {
            pages: vec![PageState::Free; cfg.blocks * cfg.pages_per_block],
            live: vec![0; cfg.blocks],
            cfg,
            map: HashMap::new(),
            open_block: 0,
            write_ptr: 0,
            gc_block: None,
            gc_ptr: 0,
            free_blocks,
            stats: FtlStats::default(),
        }
    }

    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Host write: invalidate the old physical copy (if any) and program
    /// the next page of the open block.
    pub fn write(&mut self, lpa: Lpa) -> Result<(), FtlError> {
        self.stats.host_writes += 1;
        self.invalidate(lpa);
        self.program(lpa)
    }

    /// Host trim: drop the logical page without programming anything.
    pub fn trim(&mut self, lpa: Lpa) {
        self.invalidate(lpa);
    }

    fn invalidate(&mut self, lpa: Lpa) {
        if let Some(ppa) = self.map.remove(&lpa) {
            self.pages[ppa] = PageState::Invalid;
            self.live[ppa / self.cfg.pages_per_block] -= 1;
        }
    }

    fn program(&mut self, lpa: Lpa) -> Result<(), FtlError> {
        if self.write_ptr == self.cfg.pages_per_block {
            self.advance_open_block(lpa)?;
        }
        let ppa = self.open_block * self.cfg.pages_per_block + self.write_ptr;
        self.write_ptr += 1;
        debug_assert!(matches!(self.pages[ppa], PageState::Free));
        self.pages[ppa] = PageState::Valid(lpa);
        self.live[self.open_block] += 1;
        self.map.insert(lpa, ppa);
        self.stats.physical_writes += 1;
        self.stats.peak_live = self.stats.peak_live.max(to_u64(self.map.len()));
        Ok(())
    }

    /// Pages the GC frontier and the free blocks can still take.
    fn gc_room(&self) -> usize {
        let ppb = self.cfg.pages_per_block;
        self.gc_block.map_or(0, |_| ppb - self.gc_ptr) + self.free_blocks.len() * ppb
    }

    fn program_gc(&mut self, lpa: Lpa) -> Result<(), FtlError> {
        let ppb = self.cfg.pages_per_block;
        let b = match self.gc_block {
            Some(b) if self.gc_ptr < ppb => b,
            _ => {
                let Some(b) = self.free_blocks.pop() else {
                    return Err(FtlError::NoGcRoom { survivors: 1, room: 0 });
                };
                self.gc_block = Some(b);
                self.gc_ptr = 0;
                b
            }
        };
        let ppa = b * ppb + self.gc_ptr;
        self.gc_ptr += 1;
        debug_assert!(matches!(self.pages[ppa], PageState::Free));
        self.pages[ppa] = PageState::Valid(lpa);
        self.live[b] += 1;
        self.map.insert(lpa, ppa);
        self.stats.physical_writes += 1;
        self.stats.gc_relocations += 1;
        Ok(())
    }

    /// Open a fresh block for the host frontier, which `lpa` is waiting at.
    fn advance_open_block(&mut self, lpa: Lpa) -> Result<(), FtlError> {
        while self.free_blocks.len() <= self.cfg.gc_low_watermark {
            if !self.collect_garbage()? {
                break; // no block would yield free space
            }
        }
        self.open_block = self.free_blocks.pop().ok_or(FtlError::NoFreeBlock { lpa })?;
        self.write_ptr = 0;
        Ok(())
    }

    /// Greedy GC: relocate the survivors of the closed block with the
    /// fewest valid pages through the GC frontier, then erase it — in that
    /// order, as on flash, so the survivors need room before their block is
    /// free. Returns false when no candidate would yield space (all closed
    /// blocks fully live).
    fn collect_garbage(&mut self) -> Result<bool, FtlError> {
        let ppb = self.cfg.pages_per_block;
        let victim = (0..self.cfg.blocks)
            .filter(|&b| {
                b != self.open_block
                    && Some(b) != self.gc_block
                    && !self.free_blocks.contains(&b)
                    && self.block_programmed(b)
            })
            .min_by_key(|&b| self.live[b]);
        let Some(victim) = victim else { return Ok(false) };
        if self.live[victim] == ppb {
            return Ok(false); // erasing a fully live block gains nothing
        }
        let survivors: Vec<Lpa> = (0..ppb)
            .filter_map(|k| match self.pages[victim * ppb + k] {
                PageState::Valid(lpa) => Some(lpa),
                _ => None,
            })
            .collect();
        let room = self.gc_room();
        if survivors.len() > room {
            return Err(FtlError::NoGcRoom { survivors: survivors.len(), room });
        }
        for lpa in survivors {
            self.map.remove(&lpa);
            self.program_gc(lpa)?;
        }
        for k in 0..ppb {
            self.pages[victim * ppb + k] = PageState::Free;
        }
        self.live[victim] = 0;
        self.stats.erases += 1;
        self.free_blocks.insert(0, victim);
        Ok(true)
    }

    fn block_programmed(&self, b: usize) -> bool {
        let ppb = self.cfg.pages_per_block;
        let full = (0..ppb).all(|k| !matches!(self.pages[b * ppb + k], PageState::Free));
        // The GC frontier counts as closed once full.
        full || (Some(b) == self.gc_block && self.gc_ptr == ppb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FtlModel {
        FtlModel::new(FtlConfig { pages_per_block: 4, blocks: 8, gc_low_watermark: 2 })
    }

    #[test]
    fn sequential_append_and_trim_has_no_amplification() {
        // The multi-log pattern: append a log, consume it, trim it, repeat.
        let mut ftl = small();
        for round in 0..20u64 {
            for p in 0..8u64 {
                ftl.write((0, round * 8 + p)).unwrap();
            }
            for p in 0..8u64 {
                ftl.trim((0, round * 8 + p));
            }
        }
        let s = ftl.stats();
        assert_eq!(s.host_writes, 160);
        assert_eq!(
            s.gc_relocations, 0,
            "trimmed extents leave nothing to relocate"
        );
        assert!((s.write_amplification() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn in_place_overwrites_of_hot_pages_amplify() {
        // The in-place pattern: a working set that fits the device but is
        // rewritten repeatedly, with a cold resident set pinning blocks.
        let mut ftl = small();
        // Cold data filling half the device.
        for p in 0..16u64 {
            ftl.write((1, p)).unwrap();
        }
        // Hot overwrites.
        for round in 0..50u64 {
            for p in 0..6u64 {
                ftl.write((2, p)).unwrap();
            }
            let _ = round;
        }
        let s = ftl.stats();
        assert!(s.erases > 0, "GC must have run");
        assert!(
            s.gc_relocations > 0,
            "cold pages must have been relocated"
        );
        assert!(
            s.write_amplification() > 1.05,
            "WA {}",
            s.write_amplification()
        );
    }

    #[test]
    fn map_always_points_at_latest_version() {
        let mut ftl = small();
        for round in 0..30u64 {
            ftl.write((3, 7)).unwrap();
            let _ = round;
        }
        // Exactly one valid copy lives on the device.
        let valid = ftl
            .pages
            .iter()
            .filter(|p| matches!(p, PageState::Valid(lpa) if *lpa == (3, 7)))
            .count();
        assert_eq!(valid, 1);
        assert_eq!(ftl.stats().host_writes, 30);
    }

    /// `peak_live` is the most logical pages live at once: an overwrite
    /// adds none, a trim frees one, and GC relocations move pages without
    /// adding any.
    #[test]
    fn peak_live_is_the_most_pages_live_at_once() {
        let mut ftl = small();
        assert_eq!(ftl.stats().peak_live, 0);
        for p in 0..8u64 {
            ftl.write((0, p)).unwrap(); // live 1..=8
        }
        for p in 0..8u64 {
            ftl.write((0, p)).unwrap(); // overwrites: live stays 8
        }
        for p in 0..5u64 {
            ftl.trim((0, p)); // live 3
        }
        for p in 0..6u64 {
            ftl.write((1, p)).unwrap(); // live 4..=9
        }
        ftl.trim((1, 0)); // live 8
        ftl.trim((9, 9)); // never written: live stays 8
        for _ in 0..40 {
            ftl.write((1, 1)).unwrap(); // hot overwrites force GC; live stays 8
        }
        let s = ftl.stats();
        assert!(s.erases > 0, "GC ran");
        assert_eq!(s.peak_live, 9);
    }

    /// More live pages than the device has: the write that finds no free
    /// block says so, and nothing panics. Trimming makes room again.
    #[test]
    fn overfilling_the_device_is_a_typed_error() {
        let mut ftl = small();
        for p in 0..32u64 {
            ftl.write((0, p)).unwrap();
        }
        assert_eq!(ftl.write((0, 32)), Err(FtlError::NoFreeBlock { lpa: (0, 32) }));
        assert_eq!(ftl.write((0, 33)), Err(FtlError::NoFreeBlock { lpa: (0, 33) }));
        for p in 0..8u64 {
            ftl.trim((0, p));
        }
        ftl.write((0, 32)).unwrap();
    }

    /// Survivors move before their block is erased, so a full device whose
    /// GC frontier has no page left cannot collect a block that still holds
    /// live pages.
    #[test]
    fn gc_without_room_for_the_survivors_is_a_typed_error() {
        let mut ftl = FtlModel::new(FtlConfig { pages_per_block: 4, blocks: 3, gc_low_watermark: 0 });
        // Block 0: pages 0-3. Block 1: 0 and 1 again (two of block 0's
        // pages die), 4, 5. Block 2: 6-9. No block is free, none is empty.
        for p in [0, 1, 2, 3, 0, 1, 4, 5, 6, 7, 8, 9] {
            ftl.write((0, p)).unwrap();
        }
        assert_eq!(ftl.write((0, 10)), Err(FtlError::NoGcRoom { survivors: 2, room: 0 }));
        assert_eq!(ftl.stats().erases, 0, "the victim keeps its survivors");
    }
}
