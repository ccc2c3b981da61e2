//! Shared page cache with single-flight request merging.
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
//!   flush the hot set). A1in and Am are each one map from stamp to frame
//!   — the insert stamp in A1in, the last-hit stamp in Am — so a queue's
//!   victim is its first entry and an Am hit re-keys one entry.
//! * **No pinned tier** — the serving daemon's cache is this frame pool
//!   alone. A tiered engine run holds its hot-interval topology pages itself
//!   (`mlvc_graph::HeldPages`, DESIGN.md §18) and its log tails in the
//!   multi-log, and attaches no cache.
//! * **Lent pages** — frames hold [`Page`] handles, not copies: a
//!   hit clones the handle, a miss fill inserts the very page it returns,
//!   and on the in-memory backend that page is the store's own allocation.
//!   A write never touches a lent page (the store installs a new one), so
//!   invalidation only has to drop handles.
//! * **Single-flight merging** — the first tenant to fault a page marks it
//!   in-flight and reads it from the device; concurrent tenants faulting
//!   the same page block on a condvar and are served from the filled
//!   frame, counted as (cross-tenant) hits.
//! * **Write coherence** — the device invalidates cached frames (and ghost
//!   keys) on every page write and whole files on
//!   truncate/delete. A write racing an in-flight fill marks the fill
//!   *dirty*: the fetched data is still returned to its requester (the
//!   read linearizes before the write) but is never inserted, so no stale
//!   frame can outlive the write.
//! * **Accounting identity** — a hit charges *nothing* to [`SsdStats`];
//!   every non-hit request ends as exactly one charged device page read.
//!   Therefore, per tenant: `cache hits + cached-run pages_read ==
//!   uncached-run pages_read`, exactly, under eviction, merging and dirty
//!   skips (pinned by `crates/serve` tests and the identity tests below).
//!
//! [`SsdStats`]: crate::SsdStats

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::{Condvar, PoisonError};

use crate::checked::to_u64;
use crate::cost::PageAddr;
use crate::device::{FileId, Ssd};
use crate::fault::DeviceError;
use crate::page::Page;
use crate::sync::Mutex;

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
#[derive(Clone)]
struct Frame {
    key: Option<PageKey>,
    inserter: TenantId,
    queue: QueueKind,
    /// This frame's key in its queue's map.
    stamp: u64,
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
    /// Requests served from a resident frame (including merged waits on an
    /// in-flight fill that landed).
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
    /// Frames currently holding a page.
    pub resident_pages: usize,
    /// Frames reclaimed by the replacement policy (invalidations not
    /// counted).
    pub evictions: u64,
    /// Hits on frames inserted by a *different* tenant — the shared-cache
    /// win the serving daemon exists to produce.
    pub cross_tenant_hits: u64,
    /// Always 0: the cache has no pinned tier (a tiered engine run holds
    /// its topology pages itself and reports them in its trace). Kept
    /// because the standalone `benchmark/` package (`harness.rs`) still
    /// reads them; ROADMAP item 6 deletes them.
    pub pinned_pages: usize,
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
    /// Probationary FIFO: frame by insert stamp, oldest first.
    a1in: BTreeMap<u64, usize>,
    /// Hot LRU: frame by last-hit stamp, least recent first.
    am: BTreeMap<u64, usize>,
    /// A1out ghost keys in FIFO order (`ghost_set` is the membership
    /// truth; deque entries absent from the set are stale).
    ghost: VecDeque<PageKey>,
    ghost_set: HashSet<PageKey>,
    stamp: u64,
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

    fn queue_mut(&mut self, queue: QueueKind) -> &mut BTreeMap<u64, usize> {
        match queue {
            QueueKind::A1in => &mut self.a1in,
            QueueKind::Am => &mut self.am,
        }
    }
}

/// The shared page cache. Attach to a device with [`Ssd::attach_cache`];
/// every subsequent `read_batch` on the device (or any tenant view of it)
/// is served through the cache.
pub struct PageCache {
    state: Mutex<CacheInner>,
    filled: Condvar,
}

impl PageCache {
    /// A cache holding at most `capacity_pages` resident pages; with none a
    /// fill lands nowhere.
    pub fn new(capacity_pages: usize) -> Self {
        let frame = Frame { key: None, inserter: 0, queue: QueueKind::A1in, stamp: 0 };
        PageCache {
            state: Mutex::new(CacheInner {
                frames: vec![frame; capacity_pages],
                map: HashMap::new(),
                in_flight: HashMap::new(),
                // Reverse order so `pop()` hands out frame 0 first — keeps
                // frame assignment deterministic.
                free: (0..capacity_pages).rev().collect(),
                a1in: BTreeMap::new(),
                am: BTreeMap::new(),
                ghost: VecDeque::new(),
                ghost_set: HashSet::new(),
                stamp: 0,
                evictions: 0,
                cross_tenant_hits: 0,
                tenants: BTreeMap::new(),
            }),
            filled: Condvar::new(),
        }
    }

    /// Counters + occupancy right now.
    pub fn snapshot(&self) -> CacheSnapshot {
        let inner = self.state.lock();
        CacheSnapshot {
            capacity_pages: inner.frames.len(),
            resident_pages: inner.map.len(),
            evictions: inner.evictions,
            cross_tenant_hits: inner.cross_tenant_hits,
            pinned_pages: 0,
            pinned_hits: 0,
            tenants: inner.tenants.clone(),
        }
    }

    /// Serve a read batch through the cache on behalf of `dev`'s tenant —
    /// the cached half of [`Ssd`]'s one read routine.
    ///
    /// Resident frames are lent out as hits (a handle clone, no bytes
    /// copied); pages in flight under another owner are waited for;
    /// everything else is
    /// marked in flight and read from `dev` as one uncached device batch,
    /// whose addresses `read` gains. The device lock is never held while
    /// the cache lock is (and vice versa).
    pub(crate) fn read_through(
        &self,
        dev: &Ssd,
        reqs: &[(FileId, u64, usize)],
        read: &mut Vec<PageAddr>,
    ) -> Result<Vec<Page>, DeviceError> {
        let tenant = dev.tenant();
        let mut out: Vec<Option<Page>> = Vec::new();
        out.resize_with(reqs.len(), || None);
        let mut guard = self.state.lock();
        loop {
            // Pass 1 (under the lock): hits from resident frames, ownership
            // of absent pages no one is fetching, any foreign fills to wait
            // on.
            let mut owned: Vec<usize> = Vec::new();
            let mut wait_key: Option<PageKey> = None;
            for (i, &(file, page, _)) in reqs.iter().enumerate() {
                if out[i].is_some() {
                    continue;
                }
                let key = (file, page);
                if let Some((fi, page)) = guard.map.get(&key).cloned() {
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
            let fetched = dev.read(&fetch, None, read);
            guard = self.state.lock();
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

    /// Drop resident copies of the given pages and dirty any racing fills
    /// (called by the device on every page write).
    pub(crate) fn invalidate_addrs(&self, addrs: &[PageAddr]) {
        let mut guard = self.state.lock();
        let inner = &mut *guard;
        for a in addrs {
            let key = (a.file, a.page);
            if let Some((fi, _)) = inner.map.remove(&key) {
                release_frame(inner, fi);
            }
            inner.ghost_set.remove(&key);
            if let Some(f) = inner.in_flight.get_mut(&key) {
                f.dirty = true;
            }
        }
    }

    /// Drop every resident page of `file` and dirty its racing fills
    /// (called by the device on truncate/delete).
    pub(crate) fn invalidate_file(&self, file: FileId) {
        let mut guard = self.state.lock();
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
        inner.ghost_set.retain(|k| k.0 != file);
        for (key, f) in inner.in_flight.iter_mut() {
            if key.0 == file {
                f.dirty = true;
            }
        }
    }
}

/// Land a fill its owner fetched: retire the in-flight mark, count the
/// miss, and keep the page in a frame unless a write raced the fill and
/// marked it dirty. The page is still valid for the read that fetched it
/// (it linearizes before the write) but must not outlive it in the cache.
fn land_fill(inner: &mut CacheInner, key: PageKey, page: &Page, tenant: TenantId) {
    let dirty = inner.in_flight.remove(&key).is_none_or(|f| f.dirty);
    if !dirty {
        insert_frame(inner, key, page.clone(), tenant);
    }
    inner.tenants.entry(tenant).or_default().misses += 1;
}

/// Record a hit on frame `fi`: move it to the recent end of Am, and
/// deliberately ignore A1in hits — that non-promotion is the scan
/// resistance.
fn touch_frame(inner: &mut CacheInner, fi: usize) {
    if inner.frames[fi].queue == QueueKind::Am {
        inner.am.remove(&inner.frames[fi].stamp);
        inner.stamp += 1;
        inner.frames[fi].stamp = inner.stamp;
        inner.am.insert(inner.stamp, fi);
    }
}

/// Insert a fetched page into the frame pool — the one frame-replacement
/// routine. Already resident pages are left alone; a key with a ghost
/// entry proved re-reference and goes straight to Am; everything else
/// enters probationary A1in.
fn insert_frame(inner: &mut CacheInner, key: PageKey, page: Page, tenant: TenantId) {
    if inner.map.contains_key(&key) {
        return;
    }
    let hot = inner.ghost_set.remove(&key);
    let Some(fi) = reclaim_frame(inner) else {
        return;
    };
    inner.stamp += 1;
    let (stamp, queue) = (inner.stamp, if hot { QueueKind::Am } else { QueueKind::A1in });
    inner.frames[fi] = Frame { key: Some(key), inserter: tenant, queue, stamp };
    inner.queue_mut(queue).insert(stamp, fi);
    inner.map.insert(key, (fi, page));
    compact_ghosts(inner);
}

/// Find a frame for a new insertion: a free frame if any, else evict the
/// oldest entry of A1in while it is at its Kin target (or Am is empty),
/// else of Am. Every frame not free is in one of the two queues, so the
/// chosen one is never empty. An A1in victim leaves its key in the ghost
/// queue; an Am victim is simply forgotten.
fn reclaim_frame(inner: &mut CacheInner) -> Option<usize> {
    if let Some(fi) = inner.free.pop() {
        return Some(fi);
    }
    let from_a1in = inner.am.is_empty() || inner.a1in.len() >= inner.kin();
    let queue = if from_a1in { &mut inner.a1in } else { &mut inner.am };
    let (_, fi) = queue.pop_first()?;
    let kout = inner.kout();
    if let Some(old) = inner.frames[fi].key.take() {
        inner.map.remove(&old);
        if from_a1in {
            ghost_push(inner, old, kout);
        }
        inner.evictions += 1;
    }
    Some(fi)
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

/// Compact the ghost deque once stale keys dominate it. Runs at the end of
/// every insert, the only place the deque grows; the bound keeps it
/// O(capacity) while amortizing the retain. The deque stays lazy on
/// purpose: popping a stale duplicate can forget a re-ghosted key early,
/// and that is part of the victim order.
fn compact_ghosts(inner: &mut CacheInner) {
    if inner.ghost.len() > 4 * inner.frames.len() + 16 {
        let set = &inner.ghost_set;
        inner.ghost.retain(|k| set.contains(k));
    }
}

/// Clear a frame whose map entry was already removed (invalidation — *not*
/// a policy eviction): it leaves its queue and returns to the free list.
fn release_frame(inner: &mut CacheInner, fi: usize) {
    if inner.frames[fi].key.take().is_none() {
        return;
    }
    let (queue, stamp) = (inner.frames[fi].queue, inner.frames[fi].stamp);
    inner.queue_mut(queue).remove(&stamp);
    inner.free.push(fi);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use std::sync::Arc;

    fn dev_with_pages(n: u8) -> (Arc<Ssd>, FileId) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let f = add_file(&ssd, "data", n);
        (ssd, f)
    }

    fn add_file(ssd: &Ssd, name: &str, n: u8) -> FileId {
        let f = ssd.open_or_create(name).unwrap();
        for i in 0..n {
            ssd.append_page(f, &[i; 32]).unwrap();
        }
        f
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
        let claim = || cache.state.lock().in_flight.insert(key, InFlight { dirty: false });
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
            let fetched = ssd.read(&[(f, 0, 0)], None, &mut Vec::new()).unwrap().remove(0);
            // … the write that races them, and the landing.
            race();
            land_fill(&mut cache.state.lock(), key, &fetched, 0);
            let snap = cache.snapshot();
            assert_eq!(snap.resident_pages, 0, "a raced fill became resident");
            assert!(cache.state.lock().in_flight.is_empty());
            assert_eq!(&ssd.read_page(f, 0, 0).unwrap()[..5], b"fresh");
            ssd.write_page(f, 0, &[0; 32]).unwrap();
        }
        claim();
        let fetched = ssd.read(&[(f, 0, 0)], None, &mut Vec::new()).unwrap().remove(0);
        land_fill(&mut cache.state.lock(), key, &fetched, 0);
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

    /// The accounting identity holds per tenant with writes in the mix: a
    /// seeded sequence of two tenants' batched reads (duplicates included)
    /// and writes on a cache a fraction of the files' size, and on a cache
    /// of no frames, where every read is a miss. Every request is one
    /// device read uncached, so each tenant's `hits + device reads` equals
    /// the pages it requested.
    #[test]
    fn accounting_identity_holds_per_tenant_under_writes() {
        for frames in [6, 0] {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let files: Vec<FileId> =
                (0..2).map(|k| ssd.open_or_create(&format!("c{k}")).unwrap()).collect();
            for &f in &files {
                for i in 0..16u8 {
                    ssd.append_page(f, &[i; 8]).unwrap();
                }
            }
            let cache = Arc::new(PageCache::new(frames));
            ssd.attach_cache(Arc::clone(&cache));
            let views = [ssd.tenant_view(1), ssd.tenant_view(2)];
            let mut requested = [0u64; 2];
            let mut s: u64 = 0xc1a1_3ed5;
            let mut next = |m: u64| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) % m
            };
            for _ in 0..600 {
                let (t, f) = (next(2) as usize, files[next(2) as usize]);
                match next(10) {
                    0 => views[t].write_page(f, next(16), &[0xEE; 8]).unwrap(),
                    _ => {
                        let reqs: Vec<_> = (0..1 + next(4)).map(|_| (f, next(16), 8)).collect();
                        requested[t] += reqs.len() as u64;
                        views[t].read_batch(&reqs).unwrap();
                    }
                }
                assert_queues_consistent(&cache);
            }
            let snap = cache.snapshot();
            for (t, view) in (1..).zip(&views) {
                let device = view.stats().snapshot().pages_read;
                assert_eq!(snap.tenant(t).hits + device, requested[t as usize - 1], "tenant {t}");
            }
            if frames > 0 {
                assert!(snap.evictions > 0 && snap.total_hits() > 0, "{snap:?}");
            } else {
                let none = (snap.evictions, snap.resident_pages, snap.total_hits());
                assert_eq!(none, (0, 0, 0), "a cache of no frames hit: {snap:?}");
            }
        }
    }

    /// 2Q queue consistency: every resident frame holds its key and sits in
    /// exactly one of A1in / Am, under its own stamp; no stamp is used
    /// twice; and every queue entry and every frame not free is a resident
    /// page.
    fn assert_queues_consistent(cache: &PageCache) {
        let inner = cache.state.lock();
        let mut stamps = HashSet::new();
        for (key, &(fi, _)) in &inner.map {
            let f = &inner.frames[fi];
            assert_eq!(f.key, Some(*key), "frame {fi} does not hold its key");
            let (own, other) = match f.queue {
                QueueKind::A1in => (&inner.a1in, &inner.am),
                QueueKind::Am => (&inner.am, &inner.a1in),
            };
            let stamp = f.stamp;
            assert_eq!(own.get(&stamp), Some(&fi), "frame {fi} not queued under stamp {stamp}");
            assert!(!other.values().any(|&o| o == fi), "frame {fi} in both queues");
            assert!(stamps.insert(f.stamp), "stamp {} used twice", f.stamp);
        }
        assert_eq!(inner.a1in.len() + inner.am.len(), inner.map.len(), "a queue entry of no frame");
        assert_eq!(inner.free.len() + inner.map.len(), inner.frames.len(), "a frame lost");
    }

    /// Two tenants fill overlapping windows of one file at the same moment,
    /// round after round, on a cache a fraction of the file's size — fills,
    /// merged waits, landings and evictions of both interleave — and the
    /// queues are consistent after every round.
    #[test]
    fn twoq_queues_stay_consistent_under_a_concurrent_two_tenant_fill() {
        let (ssd, f) = dev_with_pages(64);
        let cache = Arc::new(PageCache::new(16));
        ssd.attach_cache(Arc::clone(&cache));
        let views = [ssd.tenant_view(1), ssd.tenant_view(2)];
        for round in 0..300u64 {
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for (t, view) in (0u64..).zip(&views) {
                    let start = &start;
                    s.spawn(move || {
                        let lo = (round * 7 + t * 5) % 52;
                        let reqs: Vec<_> = (lo..lo + 12).map(|p| (f, p, 8)).collect();
                        start.wait();
                        view.read_batch(&reqs).unwrap();
                    });
                }
            });
            assert_queues_consistent(&cache);
        }
        let snap = cache.snapshot();
        assert!(snap.evictions > 100 && snap.cross_tenant_hits > 0, "{snap:?}");
    }

    /// The 2Q victim order, pinned to a digest: a seeded mix of batched
    /// reads (duplicate pages included), overwrites and truncates on a
    /// 16-frame cache, folding `evictions` and the sorted resident keys in
    /// after every operation. Any change to which frame a queue gives up
    /// moves the digest. The digest was taken from this mix on the 2Q code
    /// as it stood beside the pinned tier, before that tier was removed.
    #[test]
    fn twoq_victim_order_is_pinned() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let files: Vec<FileId> =
            (0..3).map(|k| ssd.open_or_create(&format!("f{k}")).unwrap()).collect();
        let fill = |f: FileId| {
            for i in 0..24u8 {
                ssd.append_page(f, &[i; 8]).unwrap();
            }
        };
        files.iter().for_each(|&f| fill(f));
        let cache = Arc::new(PageCache::new(16));
        ssd.attach_cache(Arc::clone(&cache));
        let mut s: u64 = 0x2_0051_ca5e;
        let mut next = |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        let (mut digest, mut am_peak) = (0xcbf2_9ce4_8422_2325u64, 0usize);
        for _ in 0..2000 {
            let f = files[next(3) as usize];
            // Skewed toward low pages, so some keys come back as ghosts.
            let page = |next: &mut dyn FnMut(u64) -> u64| next(24).min(next(24));
            match next(17) {
                0..=13 => {
                    let reqs: Vec<_> = (0..1 + next(6)).map(|_| (f, page(&mut next), 8)).collect();
                    ssd.read_batch(&reqs).unwrap();
                }
                14 | 15 => ssd.write_page(f, page(&mut next), &[0xEE; 8]).unwrap(),
                _ => {
                    ssd.truncate(f).unwrap();
                    fill(f);
                }
            }
            let inner = cache.state.lock();
            let mut keys: Vec<PageKey> = inner.map.keys().copied().collect();
            keys.sort_unstable();
            for x in std::iter::once(inner.evictions)
                .chain(keys.iter().map(|&(f, p)| u64::from(f) << 32 | p))
            {
                digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
            }
            let am = inner.frames.iter().filter(|f| f.key.is_some() && f.queue == QueueKind::Am);
            am_peak = am_peak.max(am.count());
        }
        let evictions = cache.snapshot().evictions;
        assert!(evictions > 500 && am_peak > 4, "the mix must churn both queues");
        assert_eq!(digest, 0xa37e_11d8_352a_ed6a, "{evictions} evictions");
    }
}
