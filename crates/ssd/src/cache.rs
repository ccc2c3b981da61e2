//! Shared page cache with single-flight request merging and a pinned tier.
//!
//! The serving daemon (`mlvc-serve`) runs many tenants against one
//! simulated device; hot graph pages (interval row pointers, column
//! indices) are identical across tenants, so a shared cache in front of
//! the device turns N concurrent faults on the same page into one device
//! read (FlashGraph's request-merging insight, PAPERS.md).
//!
//! Design:
//!
//! * **Replacement policy** — the classic scan-resistant 2Q: new pages
//!   enter a probationary FIFO (*A1in*); a page evicted from A1in leaves
//!   only its key behind in a ghost queue (*A1out*); a fault on a ghosted
//!   key proves re-reference and admits the page to the hot LRU (*Am*).
//!   Hits inside A1in do *not* promote — a one-pass scan flows through
//!   A1in and the ghosts without ever displacing Am (FlashGraph's SAFS
//!   insight: partial caching only pays off if sequential scans can't
//!   flush the hot set). Queue order is maintained lazily: entries carry a
//!   stamp and are validated against the owning frame on pop, so an Am
//!   hit is O(1) (push a fresh stamped entry) instead of an unlink.
//! * **Pinned tier** — [`PageCache::pin_pages`] puts an extent's pages in a
//!   separate map that is exempt from eviction and checked before the
//!   frame pool. The engine uses this for GraphMP-style hot-interval
//!   topology pinning (DESIGN.md §18). Pinned copies are dropped by the
//!   same write/truncate invalidation as frames; callers must not race a
//!   writer against `pin_pages` itself.
//! * **Lent pages** — frames and pins hold [`Page`] handles, not copies: a
//!   hit clones the handle, a miss fill inserts the very page it returns,
//!   and on the in-memory backend that page is the store's own allocation.
//!   A write never touches a lent page (the store installs a new one), so
//!   invalidation only has to drop handles.
//! * **Single-flight merging** — the first tenant to fault a page marks it
//!   in-flight and reads it from the device; concurrent tenants faulting
//!   the same page block on a condvar and are served from the filled
//!   frame, counted as (cross-tenant) hits.
//! * **Write coherence** — the device invalidates cached frames (and
//!   pinned copies, and ghost keys) on every page write and whole files on
//!   truncate/delete. A write racing an in-flight fill marks the fill
//!   *dirty*: the fetched data is still returned to its requester (the
//!   read linearizes before the write) but is never inserted, so no stale
//!   frame can outlive the write.
//! * **Accounting identity** — a hit (frame or pinned) charges *nothing*
//!   to [`SsdStats`]; every non-hit request ends as exactly one charged
//!   device page read. Therefore, per tenant: `cache hits + cached-run
//!   pages_read == uncached-run pages_read`, exactly, under eviction,
//!   merging, pinning and dirty skips (pinned by `crates/serve` tests and
//!   the identity tests below).
//!
//! The interior lock is a raw `std::sync::Mutex` (poison-recovered, the
//! `mlvc_obs` precedent) because `Condvar` cannot wait on the workspace's
//! custom `mlvc_ssd::sync` guards.
//!
//! [`SsdStats`]: crate::SsdStats

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::checked::{to_u64, to_usize};
use crate::cost::PageAddr;
use crate::device::{FileId, Ssd};
use crate::fault::DeviceError;
use crate::page::Page;

/// Identity of a cache client. The base device reads as tenant 0; the
/// serving daemon assigns each admitted job a fresh id from 1.
pub type TenantId = u32;

type PageKey = (FileId, u64);

/// Which 2Q queue a resident frame currently belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueKind {
    A1in,
    Am,
}

/// One frame: the replacement state of a resident page (the page itself
/// sits in [`CacheInner::map`]) and the tenant that inserted it (for
/// cross-tenant hit attribution).
struct Frame {
    key: Option<PageKey>,
    inserter: TenantId,
    queue: QueueKind,
    /// Matches the live queue entry for this frame; stale entries with an
    /// older stamp are skipped on pop.
    stamp: u64,
}

/// A page held in the pinned tier: exempt from eviction, checked before
/// the frame pool, dropped only by invalidation or [`PageCache::unpin_file`].
struct PinnedPage {
    page: Page,
    inserter: TenantId,
}

/// A page currently being fetched from the device by one owner tenant.
/// `dirty` is set by write invalidation racing the fill; a dirty fill is
/// returned to its requester but never inserted.
struct InFlight {
    dirty: bool,
}

/// Per-tenant cache counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// Requests served from a resident frame or a pinned page (including
    /// merged waits on an in-flight fill that landed).
    pub hits: u64,
    /// Requests this tenant had to read from the device itself.
    pub misses: u64,
    /// Device bytes avoided: one full page per hit.
    pub bytes_saved: u64,
}

/// Point-in-time view of the whole cache (per-tenant + global counters).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    pub capacity_pages: usize,
    /// Frames currently holding a page (pinned pages not counted).
    pub resident_pages: usize,
    /// Frames reclaimed by the replacement policy (invalidations and pin
    /// take-overs not counted).
    pub evictions: u64,
    /// Hits on frames or pins inserted by a *different* tenant — the
    /// shared-cache win the serving daemon exists to produce.
    pub cross_tenant_hits: u64,
    /// Pages in the pinned tier.
    pub pinned_pages: usize,
    /// Bytes held by the pinned tier (the budget-ledger charge).
    pub pinned_bytes: u64,
    /// Hits served from the pinned tier (also counted in tenant hits).
    pub pinned_hits: u64,
    pub tenants: BTreeMap<TenantId, TenantCacheStats>,
}

impl CacheSnapshot {
    /// Total hits across tenants.
    pub fn total_hits(&self) -> u64 {
        self.tenants.values().map(|t| t.hits).sum()
    }

    /// Total misses across tenants.
    pub fn total_misses(&self) -> u64 {
        self.tenants.values().map(|t| t.misses).sum()
    }

    /// Stats for one tenant (zeroes if it never issued a request).
    pub fn tenant(&self, id: TenantId) -> TenantCacheStats {
        self.tenants.get(&id).copied().unwrap_or_default()
    }
}

struct CacheInner {
    frames: Vec<Frame>,
    /// Resident pages: key -> (frame index, the page). Holding the page
    /// here means a resident key always has its bytes.
    map: HashMap<PageKey, (usize, Page)>,
    /// Pages being fetched right now, each by exactly one owner.
    in_flight: HashMap<PageKey, InFlight>,
    /// Unoccupied frame indices.
    free: Vec<usize>,
    /// Probationary FIFO: stamped entries, validated lazily on pop.
    a1in: VecDeque<(PageKey, u64)>,
    /// Hot LRU: stamped entries; an Am hit pushes a fresh entry and the
    /// stale one is skipped on pop.
    am: VecDeque<(PageKey, u64)>,
    /// Frames currently in A1in / Am (deque lengths overcount).
    a1in_live: usize,
    am_live: usize,
    /// A1out ghost keys in FIFO order (`ghost_set` is the membership
    /// truth; deque entries absent from the set are stale).
    ghost: VecDeque<PageKey>,
    ghost_set: HashSet<PageKey>,
    stamp: u64,
    pinned: HashMap<PageKey, PinnedPage>,
    pinned_bytes: u64,
    pinned_hits: u64,
    evictions: u64,
    cross_tenant_hits: u64,
    tenants: BTreeMap<TenantId, TenantCacheStats>,
}

impl CacheInner {
    /// A1in capacity target: once the probationary queue holds this many
    /// frames, new insertions evict from A1in (2Q's Kin, ~¼ of frames).
    fn kin(&self) -> usize {
        (self.frames.len() / 4).max(1)
    }

    /// Ghost-queue capacity (2Q's Kout, ~½ of frames' worth of keys).
    fn kout(&self) -> usize {
        (self.frames.len() / 2).max(1)
    }
}

/// The shared page cache. Attach to a device with [`Ssd::attach_cache`];
/// every subsequent `read_batch` on the device (or any tenant view of it)
/// is served through the cache.
pub struct PageCache {
    state: Mutex<CacheInner>,
    filled: Condvar,
}

/// Poison recovery for the raw mutex: a panicked holder aborts its own
/// job, not the daemon, so the guard is always usable.
fn locked(m: &Mutex<CacheInner>) -> MutexGuard<'_, CacheInner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PageCache {
    /// A cache holding at most `capacity_pages` resident pages (clamped to
    /// at least one frame).
    pub fn new(capacity_pages: usize) -> Self {
        let cap = capacity_pages.max(1);
        let mut frames = Vec::with_capacity(cap);
        for _ in 0..cap {
            frames.push(Frame {
                key: None,
                inserter: 0,
                queue: QueueKind::A1in,
                stamp: 0,
            });
        }
        PageCache {
            state: Mutex::new(CacheInner {
                frames,
                map: HashMap::new(),
                in_flight: HashMap::new(),
                // Reverse order so `pop()` hands out frame 0 first — keeps
                // frame assignment deterministic.
                free: (0..cap).rev().collect(),
                a1in: VecDeque::new(),
                am: VecDeque::new(),
                a1in_live: 0,
                am_live: 0,
                ghost: VecDeque::new(),
                ghost_set: HashSet::new(),
                stamp: 0,
                pinned: HashMap::new(),
                pinned_bytes: 0,
                pinned_hits: 0,
                evictions: 0,
                cross_tenant_hits: 0,
                tenants: BTreeMap::new(),
            }),
            filled: Condvar::new(),
        }
    }

    /// Size the cache from a byte budget and the device page size.
    pub fn for_budget(budget_bytes: u64, page_size: usize) -> Self {
        let per = to_u64(page_size).max(1);
        let pages = to_usize("cache frame count", budget_bytes / per).unwrap_or(usize::MAX / 2);
        PageCache::new(pages)
    }

    /// Number of frames.
    pub fn capacity_pages(&self) -> usize {
        locked(&self.state).frames.len()
    }

    /// Bytes currently held by the pinned tier.
    pub fn pinned_bytes(&self) -> u64 {
        locked(&self.state).pinned_bytes
    }

    /// Pages currently held by the pinned tier.
    pub fn pinned_pages(&self) -> usize {
        locked(&self.state).pinned.len()
    }

    /// Counters + occupancy right now.
    pub fn snapshot(&self) -> CacheSnapshot {
        let inner = locked(&self.state);
        CacheSnapshot {
            capacity_pages: inner.frames.len(),
            resident_pages: inner.map.len(),
            evictions: inner.evictions,
            cross_tenant_hits: inner.cross_tenant_hits,
            pinned_pages: inner.pinned.len(),
            pinned_bytes: inner.pinned_bytes,
            pinned_hits: inner.pinned_hits,
            tenants: inner.tenants.clone(),
        }
    }

    /// Put `pages` of `file` into the pinned tier, reading any absent
    /// pages through the cache (charged to `dev`'s tenant like any other
    /// read). Already-pinned pages are skipped, so re-pinning a hot extent
    /// is idempotent and free. Returns the number of *newly* pinned pages.
    ///
    /// A resident frame's page is handed over to the pinned tier (the frame
    /// is released, not counted as an eviction). Callers must not run a
    /// writer against `file` concurrently with the pin itself; after the
    /// pin, write/truncate invalidation drops pinned copies like frames.
    pub fn pin_pages(&self, dev: &Ssd, file: FileId, pages: Range<u64>) -> Result<u64, DeviceError> {
        let useful = dev.page_size();
        let reqs: Vec<(FileId, u64, usize)> = pages.map(|p| (file, p, useful)).collect();
        if reqs.is_empty() {
            return Ok(0);
        }
        let tenant = dev.tenant();
        let read = self.read_through(dev, &reqs, tenant, true)?;
        let mut guard = locked(&self.state);
        let inner = &mut *guard;
        let mut newly = 0u64;
        for (page, &(f, p, _)) in read.into_iter().zip(&reqs) {
            let key = (f, p);
            if inner.pinned.contains_key(&key) {
                continue;
            }
            if let Some((fi, _)) = inner.map.remove(&key) {
                release_frame(inner, fi);
            }
            inner.ghost_set.remove(&key);
            inner.pinned_bytes += to_u64(page.len());
            inner.pinned.insert(key, PinnedPage { page, inserter: tenant });
            newly += 1;
        }
        Ok(newly)
    }

    /// Pin every current page of `file` (see [`PageCache::pin_pages`]).
    pub fn pin_file(&self, dev: &Ssd, file: FileId) -> Result<u64, DeviceError> {
        let n = dev.num_pages(file)?;
        self.pin_pages(dev, file, 0..n)
    }

    /// Write-allocate into the pinned tier (DESIGN.md §18): copy a page
    /// whose bytes the writer is holding *right now* into the pinned map,
    /// with no device read at all. The payload is zero-padded to the page
    /// size so a later hit returns exactly what an uncached device read of
    /// the page would. Returns `false` (and pins nothing) if a pinned copy
    /// already exists. Called by the device's append-retention hook after
    /// the write landed and its invalidation ran, so the copy can never go
    /// stale out of order; a subsequent write or truncate drops it like
    /// any other pin.
    pub(crate) fn pin_written(
        &self,
        file: FileId,
        page: u64,
        payload: &[u8],
        page_size: usize,
        tenant: TenantId,
    ) -> bool {
        let mut guard = locked(&self.state);
        let inner = &mut *guard;
        let key = (file, page);
        if inner.pinned.contains_key(&key) {
            return false;
        }
        if let Some((fi, _)) = inner.map.remove(&key) {
            release_frame(inner, fi);
        }
        inner.ghost_set.remove(&key);
        let page = Page::zero_padded(payload, page_size);
        inner.pinned_bytes += to_u64(page.len());
        inner.pinned.insert(key, PinnedPage { page, inserter: tenant });
        true
    }

    /// Drop every pinned page of `file`, returning the count dropped.
    pub fn unpin_file(&self, file: FileId) -> u64 {
        let mut guard = locked(&self.state);
        let inner = &mut *guard;
        let mut dropped = 0u64;
        let mut freed = 0u64;
        inner.pinned.retain(|key, p| {
            if key.0 == file {
                freed += to_u64(p.page.len());
                dropped += 1;
                false
            } else {
                true
            }
        });
        inner.pinned_bytes = inner.pinned_bytes.saturating_sub(freed);
        dropped
    }

    /// Serve a read batch through the cache on behalf of `tenant`.
    ///
    /// Pinned pages and resident frames are lent out as hits (a handle
    /// clone, no bytes copied); pages in flight under another owner are
    /// waited for; everything else is
    /// marked in flight and read from `dev` as one uncached device batch.
    /// The device lock is never held while the cache lock is (and vice
    /// versa).
    pub(crate) fn read_through(
        &self,
        dev: &Ssd,
        reqs: &[(FileId, u64, usize)],
        tenant: TenantId,
        charge_time: bool,
    ) -> Result<Vec<Page>, DeviceError> {
        let mut out: Vec<Option<Page>> = Vec::new();
        out.resize_with(reqs.len(), || None);
        let mut guard = locked(&self.state);
        loop {
            // Pass 1 (under the lock): hits from the pinned tier and
            // resident frames, claim ownership of unclaimed absent pages,
            // note any foreign fills to wait on.
            let mut owned: Vec<usize> = Vec::new();
            let mut wait_key: Option<PageKey> = None;
            for (i, &(file, page, _)) in reqs.iter().enumerate() {
                if out[i].is_some() {
                    continue;
                }
                let key = (file, page);
                if let Some(p) = guard.pinned.get(&key) {
                    let (inserter, page) = (p.inserter, p.page.clone());
                    if inserter != tenant {
                        guard.cross_tenant_hits += 1;
                    }
                    guard.pinned_hits += 1;
                    let t = guard.tenants.entry(tenant).or_default();
                    t.hits += 1;
                    t.bytes_saved += to_u64(page.len());
                    out[i] = Some(page);
                } else if let Some((fi, page)) = guard.map.get(&key).cloned() {
                    touch_frame(&mut guard, fi);
                    if guard.frames[fi].inserter != tenant {
                        guard.cross_tenant_hits += 1;
                    }
                    let t = guard.tenants.entry(tenant).or_default();
                    t.hits += 1;
                    t.bytes_saved += to_u64(page.len());
                    out[i] = Some(page);
                } else if let Entry::Vacant(slot) = guard.in_flight.entry(key) {
                    slot.insert(InFlight { dirty: false });
                    owned.push(i);
                } else if wait_key.is_none() {
                    wait_key = Some(key);
                }
            }
            if owned.is_empty() {
                let Some(key) = wait_key else {
                    break; // every request resolved
                };
                // Wait for the owner to land (or abandon) this fill, then
                // re-run pass 1: the page is either resident now (hit) or
                // absent again (we become the owner).
                while guard.in_flight.contains_key(&key) {
                    guard = self.filled.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
                continue;
            }
            // Fetch owned pages as one device batch, cache lock released.
            let fetch: Vec<(FileId, u64, usize)> = owned.iter().map(|&i| reqs[i]).collect();
            drop(guard);
            let fetched = dev.read_batch_uncached_inner(&fetch, charge_time);
            guard = locked(&self.state);
            match fetched {
                Err(e) => {
                    for &i in &owned {
                        let (file, page, _) = reqs[i];
                        guard.in_flight.remove(&(file, page));
                    }
                    self.filled.notify_all();
                    return Err(e);
                }
                Ok(pages) => {
                    for (lent, &i) in pages.into_iter().zip(&owned) {
                        let (file, page, _) = reqs[i];
                        land_fill(&mut guard, (file, page), &lent, tenant);
                        out[i] = Some(lent);
                    }
                    self.filled.notify_all();
                }
            }
            // Loop again: duplicates of our own keys and foreign fills are
            // resolved by the next pass.
        }
        drop(guard);
        // The loop only breaks once every slot is filled; a hole would be
        // a bug here, and is an error rather than an empty page.
        out.into_iter()
            .zip(reqs)
            .map(|(page, &(file, page_no, _))| {
                page.ok_or_else(|| {
                    DeviceError::Io(format!(
                        "page cache resolved no page for ({file}, {page_no})"
                    ))
                })
            })
            .collect()
    }

    /// Drop resident and pinned copies of the given pages and dirty any
    /// racing fills (called by the device on every page write).
    pub(crate) fn invalidate_addrs(&self, addrs: &[PageAddr]) {
        let mut guard = locked(&self.state);
        let inner = &mut *guard;
        for a in addrs {
            let key = (a.file, a.page);
            if let Some((fi, _)) = inner.map.remove(&key) {
                release_frame(inner, fi);
            }
            if let Some(p) = inner.pinned.remove(&key) {
                inner.pinned_bytes = inner.pinned_bytes.saturating_sub(to_u64(p.page.len()));
            }
            inner.ghost_set.remove(&key);
            if let Some(f) = inner.in_flight.get_mut(&key) {
                f.dirty = true;
            }
        }
    }

    /// Drop every resident and pinned page of `file` and dirty its racing
    /// fills (called by the device on truncate/delete).
    pub(crate) fn invalidate_file(&self, file: FileId) {
        let mut guard = locked(&self.state);
        let inner = &mut *guard;
        let mut dropped: Vec<usize> = Vec::new();
        inner.map.retain(|key, (fi, _)| {
            if key.0 == file {
                dropped.push(*fi);
                false
            } else {
                true
            }
        });
        for fi in dropped {
            release_frame(inner, fi);
        }
        let mut freed = 0u64;
        inner.pinned.retain(|key, p| {
            if key.0 == file {
                freed += to_u64(p.page.len());
                false
            } else {
                true
            }
        });
        inner.pinned_bytes = inner.pinned_bytes.saturating_sub(freed);
        inner.ghost_set.retain(|k| k.0 != file);
        for (key, f) in inner.in_flight.iter_mut() {
            if key.0 == file {
                f.dirty = true;
            }
        }
    }
}

/// Land a fill its owner fetched: retire the in-flight mark, count the
/// miss, and make the page resident — unless a write raced the fill and
/// marked it dirty. The page is still valid for the read that fetched it
/// (it linearizes before the write) but must not outlive it in the cache.
fn land_fill(inner: &mut CacheInner, key: PageKey, page: &Page, tenant: TenantId) {
    let dirty = inner.in_flight.remove(&key).is_none_or(|f| f.dirty);
    if !dirty {
        insert_frame(inner, key, page.clone(), tenant);
    }
    inner.tenants.entry(tenant).or_default().misses += 1;
}

/// Record a hit on frame `fi`: refresh Am recency (stale-stamp trick) and
/// deliberately ignore A1in hits — that non-promotion is the scan
/// resistance.
fn touch_frame(inner: &mut CacheInner, fi: usize) {
    if inner.frames[fi].queue == QueueKind::Am {
        let Some(key) = inner.frames[fi].key else { return };
        inner.stamp += 1;
        let stamp = inner.stamp;
        inner.frames[fi].stamp = stamp;
        inner.am.push_back((key, stamp));
        prune_stale(inner);
    }
}

/// Insert a fetched page into the frame pool — the one frame-replacement
/// routine. Already resident or pinned pages are left alone; a key with a
/// ghost entry proved re-reference and goes straight to Am; everything
/// else enters probationary A1in.
fn insert_frame(inner: &mut CacheInner, key: PageKey, page: Page, tenant: TenantId) {
    if inner.map.contains_key(&key) || inner.pinned.contains_key(&key) {
        return;
    }
    let hot = inner.ghost_set.remove(&key);
    let Some(fi) = reclaim_frame(inner) else {
        return;
    };
    inner.stamp += 1;
    let stamp = inner.stamp;
    let f = &mut inner.frames[fi];
    f.key = Some(key);
    f.inserter = tenant;
    f.stamp = stamp;
    if hot {
        f.queue = QueueKind::Am;
        inner.am.push_back((key, stamp));
        inner.am_live += 1;
    } else {
        f.queue = QueueKind::A1in;
        inner.a1in.push_back((key, stamp));
        inner.a1in_live += 1;
    }
    inner.map.insert(key, (fi, page));
    prune_stale(inner);
}

/// Find a frame for a new insertion: a free frame if any, else evict —
/// from A1in while it is over its Kin target (or Am is empty), else from
/// Am. An A1in victim leaves its key in the ghost queue; an Am victim is
/// simply forgotten.
fn reclaim_frame(inner: &mut CacheInner) -> Option<usize> {
    if let Some(fi) = inner.free.pop() {
        return Some(fi);
    }
    let from_a1in = inner.am_live == 0 || inner.a1in_live >= inner.kin();
    let fi = if from_a1in {
        pop_valid(inner, QueueKind::A1in).or_else(|| pop_valid(inner, QueueKind::Am))
    } else {
        pop_valid(inner, QueueKind::Am).or_else(|| pop_valid(inner, QueueKind::A1in))
    }?;
    let kout = inner.kout();
    if let Some(old) = inner.frames[fi].key.take() {
        inner.map.remove(&old);
        if inner.frames[fi].queue == QueueKind::A1in {
            ghost_push(inner, old, kout);
        }
        inner.evictions += 1;
    }
    match inner.frames[fi].queue {
        QueueKind::A1in => inner.a1in_live = inner.a1in_live.saturating_sub(1),
        QueueKind::Am => inner.am_live = inner.am_live.saturating_sub(1),
    }
    Some(fi)
}

/// Pop the first *valid* entry of `want`'s queue: the key must still be
/// resident, on the same frame, with the entry's stamp, in the same queue.
/// Everything else is a stale leftover from a lazy refresh or release.
fn pop_valid(inner: &mut CacheInner, want: QueueKind) -> Option<usize> {
    let q = match want {
        QueueKind::A1in => &mut inner.a1in,
        QueueKind::Am => &mut inner.am,
    };
    while let Some((key, stamp)) = q.pop_front() {
        if let Some(&(fi, _)) = inner.map.get(&key) {
            if inner.frames[fi].stamp == stamp && inner.frames[fi].queue == want {
                return Some(fi);
            }
        }
    }
    None
}

/// Remember an evicted A1in key in the ghost queue, bounded by `kout`.
fn ghost_push(inner: &mut CacheInner, key: PageKey, kout: usize) {
    if inner.ghost_set.insert(key) {
        inner.ghost.push_back(key);
    }
    while inner.ghost_set.len() > kout {
        let Some(old) = inner.ghost.pop_front() else {
            break;
        };
        inner.ghost_set.remove(&old);
    }
}

/// Compact the lazily-maintained queues once stale entries dominate. The
/// bound keeps queue memory O(capacity) while amortizing the retain.
fn prune_stale(inner: &mut CacheInner) {
    let limit = 4 * inner.frames.len() + 16;
    if inner.a1in.len() > limit {
        let map = &inner.map;
        let frames = &inner.frames;
        inner.a1in.retain(|&(key, stamp)| {
            map.get(&key)
                .is_some_and(|&(fi, _)| frames[fi].stamp == stamp && frames[fi].queue == QueueKind::A1in)
        });
    }
    if inner.am.len() > limit {
        let map = &inner.map;
        let frames = &inner.frames;
        inner.am.retain(|&(key, stamp)| {
            map.get(&key)
                .is_some_and(|&(fi, _)| frames[fi].stamp == stamp && frames[fi].queue == QueueKind::Am)
        });
    }
    if inner.ghost.len() > limit {
        let set = &inner.ghost_set;
        inner.ghost.retain(|k| set.contains(k));
    }
}

/// Clear a frame whose map entry was already removed (invalidation or pin
/// take-over — *not* a policy eviction). The frame returns to the free
/// list and leaves its queue entries stale.
fn release_frame(inner: &mut CacheInner, fi: usize) {
    if inner.frames[fi].key.take().is_none() {
        return;
    }
    match inner.frames[fi].queue {
        QueueKind::A1in => inner.a1in_live = inner.a1in_live.saturating_sub(1),
        QueueKind::Am => inner.am_live = inner.am_live.saturating_sub(1),
    }
    inner.free.push(fi);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use std::sync::Arc;

    fn dev_with_pages(n: u8) -> (Arc<Ssd>, FileId) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let f = ssd.open_or_create("data").unwrap();
        for i in 0..n {
            ssd.append_page(f, &[i; 32]).unwrap();
        }
        (ssd, f)
    }

    #[test]
    fn hit_serves_identical_bytes_and_charges_nothing() {
        let (ssd, f) = dev_with_pages(4);
        ssd.attach_cache(Arc::new(PageCache::new(8)));
        ssd.stats().reset();
        let first = ssd.read_page(f, 2, 10).unwrap();
        let cold = ssd.stats().snapshot();
        assert_eq!(cold.pages_read, 1);
        let second = ssd.read_page(f, 2, 10).unwrap();
        assert_eq!(first, second, "hit must return the exact device bytes");
        let warm = ssd.stats().snapshot();
        assert_eq!(warm.pages_read, 1, "a hit charges no device read");
        assert_eq!(warm.read_time_ns, cold.read_time_ns, "a hit costs no device time");
        let snap = ssd.cache().unwrap().snapshot();
        assert_eq!(snap.tenant(0).hits, 1);
        assert_eq!(snap.tenant(0).misses, 1);
        assert_eq!(snap.tenant(0).bytes_saved, 256);
    }

    #[test]
    fn duplicate_requests_in_one_batch_read_the_device_once() {
        let (ssd, f) = dev_with_pages(2);
        ssd.attach_cache(Arc::new(PageCache::new(8)));
        ssd.stats().reset();
        let out = ssd.read_batch(&[(f, 0, 4), (f, 0, 4), (f, 1, 4), (f, 0, 4)]).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0], out[3]);
        assert_eq!(ssd.stats().snapshot().pages_read, 2, "two distinct pages");
        let snap = ssd.cache().unwrap().snapshot();
        assert_eq!(snap.tenant(0).hits, 2);
        assert_eq!(snap.tenant(0).misses, 2);
    }

    #[test]
    fn accounting_identity_hits_plus_device_reads() {
        let (ssd, f) = dev_with_pages(8);
        // Uncached baseline.
        let reqs: Vec<(FileId, u64, usize)> =
            (0..32u64).map(|i| (f, i % 8, 8)).collect();
        ssd.stats().reset();
        ssd.read_batch(&reqs).unwrap();
        let uncached = ssd.stats().snapshot().pages_read;

        let (ssd2, f2) = dev_with_pages(8);
        ssd2.attach_cache(Arc::new(PageCache::new(4))); // smaller than the file: churn
        let reqs2: Vec<(FileId, u64, usize)> =
            (0..32u64).map(|i| (f2, i % 8, 8)).collect();
        ssd2.stats().reset();
        ssd2.read_batch(&reqs2).unwrap();
        let snap = ssd2.cache().unwrap().snapshot();
        let cached = ssd2.stats().snapshot().pages_read;
        assert_eq!(snap.tenant(0).hits + cached, uncached, "identity under eviction");
        assert!(snap.evictions > 0, "a 4-frame cache over 8 pages must churn");
    }

    /// The accounting identity holds under a seeded random trace with
    /// heavy eviction pressure.
    #[test]
    fn accounting_identity_under_random_eviction_pressure() {
        // Uncached baseline: 300 requests = 300 device page reads.
        let reqs_for = |f: FileId| -> Vec<(FileId, u64, usize)> {
            let mut s: u64 = 0x5eed_cafe;
            (0..300)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (f, (s >> 33) % 16, 8)
                })
                .collect()
        };
        let (base, fb) = dev_with_pages(16);
        base.stats().reset();
        for r in reqs_for(fb) {
            base.read_batch(&[r]).unwrap();
        }
        let uncached = base.stats().snapshot().pages_read;
        assert_eq!(uncached, 300);

        let (ssd, f) = dev_with_pages(16);
        ssd.attach_cache(Arc::new(PageCache::new(4)));
        ssd.stats().reset();
        for r in reqs_for(f) {
            ssd.read_batch(&[r]).unwrap();
        }
        let snap = ssd.cache().unwrap().snapshot();
        let cached = ssd.stats().snapshot().pages_read;
        assert_eq!(snap.tenant(0).hits + cached, uncached, "identity must hold under churn");
        assert!(snap.evictions > 0, "4 frames over 16 pages must churn");
    }

    #[test]
    fn write_invalidates_resident_page() {
        let (ssd, f) = dev_with_pages(2);
        ssd.attach_cache(Arc::new(PageCache::new(8)));
        let before = ssd.read_page(f, 0, 4).unwrap();
        ssd.write_page(f, 0, b"fresh").unwrap();
        let after = ssd.read_page(f, 0, 5).unwrap();
        assert_ne!(before, after, "stale frame must not survive the write");
        assert_eq!(&after[..5], b"fresh");
    }

    /// The race `read_through` cannot be paused in from outside: an owner
    /// has claimed a page and fetched it, and a write (or a truncate)
    /// lands before the fill does. The fetched page must not become
    /// resident; an unraced fill of the same page does.
    #[test]
    fn a_write_or_truncate_racing_a_fill_keeps_it_out_of_the_cache() {
        let (ssd, f) = dev_with_pages(2);
        let cache = Arc::new(PageCache::new(8));
        ssd.attach_cache(Arc::clone(&cache));
        let key = (f, 0);
        let claim = || locked(&cache.state).in_flight.insert(key, InFlight { dirty: false });
        let racing: [&dyn Fn(); 2] = [
            &|| ssd.write_page(f, 0, b"fresh").unwrap(),
            &|| {
                ssd.truncate(f).unwrap();
                ssd.append_page(f, b"fresh").unwrap();
            },
        ];
        for race in racing {
            // The owner's pass 1 and device read …
            claim();
            let fetched = ssd.read_batch_uncached(&[(f, 0, 0)]).unwrap().remove(0);
            // … the write that races them, and the landing.
            race();
            land_fill(&mut locked(&cache.state), key, &fetched, 0);
            let snap = cache.snapshot();
            assert_eq!(snap.resident_pages, 0, "a raced fill became resident");
            assert!(locked(&cache.state).in_flight.is_empty());
            assert_eq!(&ssd.read_page(f, 0, 0).unwrap()[..5], b"fresh");
            ssd.write_page(f, 0, &[0; 32]).unwrap();
        }
        claim();
        let fetched = ssd.read_batch_uncached(&[(f, 0, 0)]).unwrap().remove(0);
        land_fill(&mut locked(&cache.state), key, &fetched, 0);
        assert_eq!(cache.snapshot().resident_pages, 1, "an unraced fill lands");
        assert!(Page::ptr_eq(&fetched, &ssd.read_page(f, 0, 0).unwrap()));
    }

    #[test]
    fn truncate_invalidates_whole_file() {
        let (ssd, f) = dev_with_pages(3);
        ssd.attach_cache(Arc::new(PageCache::new(8)));
        ssd.read_batch(&[(f, 0, 4), (f, 1, 4), (f, 2, 4)]).unwrap();
        ssd.truncate(f).unwrap();
        assert_eq!(ssd.cache().unwrap().snapshot().resident_pages, 0);
        // A read past the new bound must fail: the cache cannot resurrect
        // truncated pages.
        assert!(ssd.read_page(f, 0, 0).is_err());
    }

    #[test]
    fn cross_tenant_hits_are_attributed() {
        let (ssd, f) = dev_with_pages(4);
        ssd.attach_cache(Arc::new(PageCache::new(8)));
        let a = Arc::new(ssd.tenant_view(1));
        let b = Arc::new(ssd.tenant_view(2));
        a.read_page(f, 0, 8).unwrap();
        b.read_page(f, 0, 8).unwrap();
        let snap = ssd.cache().unwrap().snapshot();
        assert_eq!(snap.cross_tenant_hits, 1);
        assert_eq!(snap.tenant(1).misses, 1);
        assert_eq!(snap.tenant(2).hits, 1);
        assert_eq!(snap.tenant(2).misses, 0);
    }

    /// The 2Q scan-resistance claim: a page that proved re-reference (Am)
    /// survives a long one-pass cold scan.
    #[test]
    fn twoq_hot_page_survives_cold_scan() {
        let (ssd, f) = dev_with_pages(32);
        ssd.attach_cache(Arc::new(PageCache::new(4)));
        // Fill A1in, push page 0 out into the ghost queue, then re-fault
        // it: the ghost hit admits page 0 to Am.
        for p in 0..5u64 {
            ssd.read_page(f, p, 4).unwrap();
        }
        ssd.read_page(f, 0, 4).unwrap();
        // A 16-page cold scan churns through A1in but must not touch Am.
        for p in 10..26u64 {
            ssd.read_page(f, p, 4).unwrap();
        }
        ssd.stats().reset();
        ssd.read_page(f, 0, 4).unwrap();
        assert_eq!(ssd.stats().snapshot().pages_read, 0, "hot page must survive the scan");
    }

    /// Hits inside the probationary A1in FIFO must not promote: the page
    /// is still evicted in arrival order (that non-promotion is what makes
    /// a one-pass scan harmless).
    #[test]
    fn twoq_probationary_hit_does_not_promote() {
        let (ssd, f) = dev_with_pages(8);
        ssd.attach_cache(Arc::new(PageCache::new(4)));
        ssd.read_page(f, 0, 4).unwrap();
        ssd.read_page(f, 0, 4).unwrap(); // A1in hit — must NOT promote
        for p in 1..5u64 {
            ssd.read_page(f, p, 4).unwrap(); // fills the pool; page 4 evicts the FIFO head
        }
        ssd.stats().reset();
        ssd.read_page(f, 0, 4).unwrap();
        assert_eq!(
            ssd.stats().snapshot().pages_read,
            1,
            "page 0 must be evicted in FIFO order despite its A1in hit"
        );
    }

    /// Pinned pages are exempt from eviction: an arbitrarily long scan
    /// cannot displace them, and hits on them charge nothing.
    #[test]
    fn pinned_pages_survive_eviction_and_serve_hits() {
        let (ssd, f) = dev_with_pages(16);
        let cache = Arc::new(PageCache::new(2));
        ssd.attach_cache(Arc::clone(&cache));
        assert_eq!(cache.pin_pages(&ssd, f, 0..2).unwrap(), 2);
        assert_eq!(cache.pinned_bytes(), 512, "two full 256-byte pages held");
        assert_eq!(cache.pin_pages(&ssd, f, 0..2).unwrap(), 0, "re-pin is idempotent");
        ssd.stats().reset();
        for p in 2..16u64 {
            ssd.read_page(f, p, 4).unwrap(); // scan far beyond the 2 frames
        }
        ssd.read_page(f, 0, 4).unwrap();
        ssd.read_page(f, 1, 4).unwrap();
        assert_eq!(ssd.stats().snapshot().pages_read, 14, "pinned pages charged nothing");
        let snap = cache.snapshot();
        assert_eq!(snap.pinned_pages, 2);
        // 2 hits from the idempotent re-pin probe + 2 from the reads.
        assert_eq!(snap.pinned_hits, 4);
    }

    /// Write and truncate coherence extends to the pinned tier: no stale
    /// pinned copy survives a mutation of its file.
    #[test]
    fn write_and_truncate_drop_pinned_copies() {
        let (ssd, f) = dev_with_pages(4);
        let cache = Arc::new(PageCache::new(8));
        ssd.attach_cache(Arc::clone(&cache));
        cache.pin_file(&ssd, f).unwrap();
        assert_eq!(cache.pinned_pages(), 4);
        ssd.write_page(f, 1, b"fresh").unwrap();
        assert_eq!(cache.pinned_pages(), 3, "the written page's pin is dropped");
        let after = ssd.read_page(f, 1, 5).unwrap();
        assert_eq!(&after[..5], b"fresh");
        ssd.truncate(f).unwrap();
        let snap = cache.snapshot();
        assert_eq!(snap.pinned_pages, 0);
        assert_eq!(snap.pinned_bytes, 0);
        assert_eq!(snap.resident_pages, 0);
    }

    /// The accounting identity is preserved by pin fills: pinning charges
    /// its own device reads like any other request, so `hits +
    /// cached_reads == uncached_reads` still balances when the uncached
    /// baseline reads the pinned extent once.
    #[test]
    fn pin_fill_preserves_accounting_identity() {
        let reqs_for = |f: FileId| -> Vec<(FileId, u64, usize)> {
            (0..24u64).map(|i| (f, i % 8, 8)).collect()
        };
        // Uncached baseline: the pin extent once, then the workload.
        let (base, fb) = dev_with_pages(8);
        base.stats().reset();
        base.read_batch(&[(fb, 0, 256), (fb, 1, 256)]).unwrap();
        for r in reqs_for(fb) {
            base.read_batch(&[r]).unwrap();
        }
        let uncached = base.stats().snapshot().pages_read;

        let (ssd, f) = dev_with_pages(8);
        let cache = Arc::new(PageCache::new(2));
        ssd.attach_cache(Arc::clone(&cache));
        ssd.stats().reset();
        cache.pin_pages(&ssd, f, 0..2).unwrap();
        for r in reqs_for(f) {
            ssd.read_batch(&[r]).unwrap();
        }
        let snap = cache.snapshot();
        let cached = ssd.stats().snapshot().pages_read;
        assert_eq!(snap.tenant(0).hits + cached, uncached, "identity holds under pinning");
        assert!(snap.pinned_hits >= 6, "the pinned extent served the workload's hot pages");
    }

    #[test]
    fn budget_sizing_clamps_to_one_frame() {
        let c = PageCache::for_budget(0, 4096);
        assert_eq!(c.capacity_pages(), 1);
        let c = PageCache::for_budget(10 * 4096, 4096);
        assert_eq!(c.capacity_pages(), 10);
    }
}
