use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use crate::sync::Mutex;

use crate::cache::{PageCache, TenantId};
use crate::checked::{idx, mem_idx, page_byte_offset, to_u32, to_u64};

use crate::config::SsdConfig;
use crate::cost::{batch_time_ns, PageAddr};
use crate::fault::{DeviceError, FaultCounters, FaultPlan, FaultState, WriteFate};
use crate::ftl::{FtlConfig, FtlModel, FtlOp, FtlStats};
use crate::page::Page;
use crate::stats::SsdStats;

/// Identifier of a file on the simulated device.
pub type FileId = u32;

/// Where page payloads live.
///
/// * `Mem` — pages are kept in heap buffers. Deterministic and fast; the
///   default for tests and benches. Accounting (the experiment currency) is
///   identical to the disk backend.
/// * `Dir` — each simulated file is an ordinary file under the given
///   directory and pages are read/written with positional I/O. Use for
///   out-of-core realism on large runs.
#[derive(Debug, Clone)]
pub enum Backend {
    Mem,
    Dir(PathBuf),
}

/// `Mem` holds the very [`Page`]s it lends: a read clones the handle in a
/// slot, a write replaces the slot's handle (never the bytes behind it).
enum Store {
    Mem(Vec<Page>),
    Disk { file: fs::File, pages: u64 },
}

struct FileEntry {
    name: String,
    store: Store,
}

/// The simulated SSD: a set of named page files plus the cost model and
/// activity counters shared by every engine in the reproduction.
///
/// All operations are page-granular. Reads *lend* pages: every read returns
/// immutable [`Page`] handles — on the in-memory backend the same
/// allocations the store holds, on the file backend the buffers the one
/// `read_at` filled — so callers never hold locks while processing and no
/// page is copied on its way to a decoder, through the cache or across
/// threads. A write installs a new page in the slot, so a lent handle
/// keeps the bytes it was read with. The simulated service time is charged
/// at dispatch.
///
/// Every operation is fallible: besides genuine caller bugs (deleted files,
/// out-of-bounds pages, oversized payloads) the device can be armed with a
/// deterministic [`FaultPlan`] that tears a page mid-write and crashes the
/// device, or injects transient read faults — the substrate the
/// `mlvc-recover` crash-point sweep drives.
///
/// An `Ssd` value is a *view* over shared device internals. The value
/// returned by the constructors is the base view; [`Ssd::tenant_view`]
/// derives additional views that share the media, namespace, trace/FTL
/// models and the attached [`PageCache`], but carry their own activity
/// counters (also charged to the base, so daemon-wide totals stay exact)
/// and their own fault state — a crash injected into one tenant's view
/// must not take down its neighbours.
pub struct Ssd {
    shared: Arc<Shared>,
    /// This view's activity counters.
    stats: Arc<SsdStats>,
    /// The base view's counters, double-charged from tenant views so the
    /// device-wide totals remain the sum over tenants; `None` on the base.
    base_stats: Option<Arc<SsdStats>>,
    /// Per-view fault state: plans installed on a tenant view crash only
    /// that tenant.
    fault: Mutex<FaultState>,
    /// Per-view append-retention arming (DESIGN.md §18): while armed, the
    /// first `remaining` bytes appended to the listed files through this
    /// view are write-allocated into the attached cache's pinned tier.
    retention: Mutex<Option<AppendRetention>>,
    /// Cache-accounting identity of this view (base = 0).
    tenant: TenantId,
}

/// State of [`Ssd::arm_append_retention`]: which files retain their
/// appends and how much pinned-tier budget is left, charged one whole
/// page per retained append (the pinned copy is zero-padded to a page).
struct AppendRetention {
    files: std::collections::HashSet<FileId>,
    remaining: u64,
}

/// Device internals common to every view.
struct Shared {
    cfg: SsdConfig,
    backend: Backend,
    files: Mutex<Files>,
    /// Optional host-level write/trim trace for FTL replay (see
    /// [`crate::FtlModel`]); `None` keeps the hot path allocation-free.
    trace: Mutex<Option<Vec<FtlOp>>>,
    /// Optional *live* FTL model fed by every page write and trim as it
    /// happens (the observability layer's flash write-amplification
    /// source); `None` keeps the hot path to one lock + branch per batch.
    ftl: Mutex<Option<FtlModel>>,
    /// Optional shared page cache in front of the read path (the serving
    /// daemon attaches one; `None` keeps single-run behaviour unchanged).
    cache: Mutex<Option<Arc<PageCache>>>,
    /// Shadow cell auditing the attach/consume protocol of the live FTL:
    /// [`Ssd::enable_ftl`] must be ordered before every write that feeds
    /// the model and every [`Ssd::ftl_stats`] read (DESIGN.md §14).
    ftl_audit: mlvc_par::Tracked<()>,
}

#[derive(Default)]
struct Files {
    entries: Vec<Option<FileEntry>>,
    by_name: HashMap<String, FileId>,
}

/// Outcome of a store-level append: how many pages actually reached the
/// media before the batch (possibly) failed.
struct Placed {
    first: u64,
    written: u64,
    err: Option<DeviceError>,
}

fn io_err(op: &str, e: &io::Error) -> DeviceError {
    DeviceError::Io(format!("{op}: {e}"))
}

impl Ssd {
    fn from_shared(shared: Shared) -> Self {
        Ssd {
            shared: Arc::new(shared),
            stats: Arc::new(SsdStats::default()),
            base_stats: None,
            fault: Mutex::new(FaultState::default()),
            retention: Mutex::new(None),
            tenant: 0,
        }
    }

    /// Create a device with the in-memory backend.
    pub fn new(cfg: SsdConfig) -> Self {
        Ssd::from_shared(Shared {
            cfg,
            backend: Backend::Mem,
            files: Mutex::new(Files::default()),
            trace: Mutex::new(None),
            ftl: Mutex::new(None),
            cache: Mutex::new(None),
            ftl_audit: mlvc_par::Tracked::new("Ssd::ftl attach", ()),
        })
    }

    /// Create a device whose files live under `dir` on the host filesystem.
    pub fn new_on_disk(cfg: SsdConfig, dir: PathBuf) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(Ssd::from_shared(Shared {
            cfg,
            backend: Backend::Dir(dir),
            files: Mutex::new(Files::default()),
            trace: Mutex::new(None),
            ftl: Mutex::new(None),
            cache: Mutex::new(None),
            ftl_audit: mlvc_par::Tracked::new("Ssd::ftl attach", ()),
        }))
    }

    /// Derive a tenant view: same media, namespace, FTL/trace models and
    /// cache, but fresh activity counters (double-charged to the root
    /// view) and independent fault state. `tenant` attributes this view's
    /// cache traffic in [`PageCache`] accounting.
    pub fn tenant_view(&self, tenant: TenantId) -> Ssd {
        let root = self.base_stats.clone().unwrap_or_else(|| Arc::clone(&self.stats));
        Ssd {
            shared: Arc::clone(&self.shared),
            stats: Arc::new(SsdStats::default()),
            base_stats: Some(root),
            fault: Mutex::new(FaultState::default()),
            retention: Mutex::new(None),
            tenant,
        }
    }

    /// Put a shared page cache in front of the read path of this device
    /// and every view of it.
    pub fn attach_cache(&self, cache: Arc<PageCache>) {
        *self.shared.cache.lock() = Some(cache);
    }

    /// The attached page cache, if any.
    pub fn cache(&self) -> Option<Arc<PageCache>> {
        self.shared.cache.lock().clone()
    }

    /// This view's tenant id (0 on the base view).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    pub fn config(&self) -> &SsdConfig {
        &self.shared.cfg
    }

    pub fn page_size(&self) -> usize {
        self.shared.cfg.page_size
    }

    /// Byte offset of `page` in a backing file. A page number that
    /// overflows 64-bit byte addressing cannot name a real page, so the
    /// saturated offset makes the positional I/O below fail loudly.
    fn byte_offset(&self, page: u64) -> u64 {
        page_byte_offset(page, self.shared.cfg.page_size).unwrap_or(u64::MAX)
    }

    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// Counter sinks for this view: its own stats plus (on tenant views)
    /// the root's, so device-wide totals equal the sum over tenants.
    fn charge_sinks(&self) -> impl Iterator<Item = &SsdStats> {
        std::iter::once(&*self.stats).chain(self.base_stats.as_deref())
    }

    // ---- fault injection -------------------------------------------------

    /// Arm a deterministic fault schedule. Fault counters restart from the
    /// moment of installation, so a plan's crash/read-fault points are
    /// relative to the workload that follows.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.fault.lock().install(plan);
    }

    /// The currently armed plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault.lock().plan()
    }

    /// Whether the device is in the crashed state (every operation fails
    /// with [`DeviceError::Crashed`]).
    pub fn is_crashed(&self) -> bool {
        self.fault.lock().is_crashed()
    }

    /// Clear the crashed state *and* the armed plan, returning the device
    /// to fault-free operation. Durable contents — including the torn page
    /// written at the crash point — are left exactly as the crash left
    /// them; this is the recovery entry point.
    pub fn revive(&self) {
        self.fault.lock().revive();
    }

    /// Cumulative fault-activity counters (survive install/revive).
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault.lock().counters()
    }

    // ---- tracing ---------------------------------------------------------

    /// Start recording a host-level write/trim trace for FTL replay.
    /// Discards any previous trace.
    pub fn enable_trace(&self) {
        *self.shared.trace.lock() = Some(Vec::new());
    }

    /// Stop recording and return the trace (empty if tracing was off).
    pub fn take_trace(&self) -> Vec<FtlOp> {
        self.shared.trace.lock().take().unwrap_or_default()
    }

    fn trace_writes(&self, addrs: &[PageAddr]) {
        if let Some(t) = self.shared.trace.lock().as_mut() {
            t.extend(addrs.iter().map(|a| FtlOp::Write((a.file, a.page))));
        }
    }

    fn trace_trims(&self, file: FileId, pages: u64) {
        if let Some(t) = self.shared.trace.lock().as_mut() {
            t.extend((0..pages).map(|p| FtlOp::Trim((file, p))));
        }
    }

    // ---- live FTL --------------------------------------------------------

    /// Attach a live [`FtlModel`] fed by every subsequent page write and
    /// trim (the observability layer's write-amplification source, as
    /// opposed to the record-then-[`FtlModel::replay`] flow of
    /// `enable_trace`). Idempotent: a model that is already attached keeps
    /// its state so re-enabling cannot reset amplification counters.
    pub fn enable_ftl(&self, cfg: FtlConfig) {
        let mut g = self.shared.ftl.lock();
        if g.is_none() {
            // Only the installing call is the protocol's "attach" write;
            // an idempotent re-attach merely observes that the model is
            // already there. Concurrent tenants re-attaching (the serving
            // daemon attaches once at construction, then every job calls
            // this) are ordered readers, not racing writers.
            self.shared.ftl_audit.audit_write();
            *g = Some(FtlModel::new(cfg));
        } else {
            self.shared.ftl_audit.audit_read();
        }
    }

    /// Whether a live FTL model is attached.
    pub fn ftl_enabled(&self) -> bool {
        self.shared.ftl.lock().is_some()
    }

    /// Snapshot of the live FTL's counters (`None` when not enabled).
    pub fn ftl_stats(&self) -> Option<FtlStats> {
        self.shared.ftl_audit.audit_read();
        self.shared.ftl.lock().as_ref().map(FtlModel::stats)
    }

    /// Feed the batch to the live model, all of it — the pages are on the
    /// media — and report the first page it had no block for.
    fn ftl_writes(&self, addrs: &[PageAddr]) -> Result<(), DeviceError> {
        self.shared.ftl_audit.audit_read();
        let mut first = Ok(());
        if let Some(f) = self.shared.ftl.lock().as_mut() {
            for a in addrs {
                first = first.and(f.write((a.file, a.page)).map_err(DeviceError::Full));
            }
        }
        first
    }

    fn ftl_trims(&self, file: FileId, pages: u64) {
        if let Some(f) = self.shared.ftl.lock().as_mut() {
            for p in 0..pages {
                f.trim((file, p));
            }
        }
    }

    // ---- namespace -------------------------------------------------------

    /// Create a file, or return the existing id if the name is taken.
    ///
    /// On the `Dir` backend an existing backing file's contents are
    /// **preserved** (its page count is recomputed from its length) so that
    /// a restarted process can find the previous run's checkpoints;
    /// construction sites that need a fresh file truncate explicitly.
    pub fn open_or_create(&self, name: &str) -> Result<FileId, DeviceError> {
        self.fault.lock().check_alive()?;
        let mut files = self.shared.files.lock();
        if let Some(&id) = files.by_name.get(name) {
            return Ok(id);
        }
        let store = match &self.shared.backend {
            Backend::Mem => Store::Mem(Vec::new()),
            Backend::Dir(dir) => {
                let path = dir.join(sanitize(name));
                let file = fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(path)
                    .map_err(|e| io_err("open backing file", &e))?;
                let len = file
                    .metadata()
                    .map_err(|e| io_err("stat backing file", &e))?
                    .len();
                let pages = len / to_u64(self.shared.cfg.page_size).max(1);
                Store::Disk { file, pages }
            }
        };
        let id = to_u32("file id", files.entries.len())
            .map_err(|e| DeviceError::Io(e.to_string()))?;
        files.entries.push(Some(FileEntry {
            name: name.to_string(),
            store,
        }));
        files.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Look up a file by name.
    pub fn lookup(&self, name: &str) -> Option<FileId> {
        self.shared.files.lock().by_name.get(name).copied()
    }

    /// Number of pages currently in `file`.
    pub fn num_pages(&self, file: FileId) -> Result<u64, DeviceError> {
        let files = self.shared.files.lock();
        match files.entries.get(idx(file)).and_then(Option::as_ref) {
            Some(e) => Ok(match &e.store {
                Store::Mem(pages) => to_u64(pages.len()),
                Store::Disk { pages, .. } => *pages,
            }),
            None => Err(DeviceError::Deleted { file }),
        }
    }

    /// Drop all pages of `file` (the file itself stays; logs are truncated
    /// at the start of each superstep after their updates are consumed).
    ///
    /// Truncation is a metadata operation (FTL trim); it is not charged.
    pub fn truncate(&self, file: FileId) -> Result<(), DeviceError> {
        self.fault.lock().check_alive()?;
        let dropped;
        {
            let mut files = self.shared.files.lock();
            let entry = files
                .entries
                .get_mut(idx(file))
                .and_then(Option::as_mut)
                .ok_or(DeviceError::Deleted { file })?;
            match &mut entry.store {
                Store::Mem(pages) => {
                    dropped = to_u64(pages.len());
                    pages.clear();
                }
                Store::Disk { file, pages } => {
                    dropped = *pages;
                    file.set_len(0).map_err(|e| io_err("truncate backing file", &e))?;
                    *pages = 0;
                }
            }
        }
        self.trace_trims(file, dropped);
        self.ftl_trims(file, dropped);
        // Dropped pages must not be served from the shared cache.
        let cache = self.shared.cache.lock().clone();
        if let Some(c) = cache {
            c.invalidate_file(file);
        }
        Ok(())
    }

    /// Remove a file entirely. Uncharged (metadata operation). Deleting an
    /// already-deleted file is a no-op.
    pub fn delete(&self, file: FileId) -> Result<(), DeviceError> {
        self.fault.lock().check_alive()?;
        let dropped;
        {
            let mut files = self.shared.files.lock();
            let Some(slot) = files.entries.get_mut(idx(file)) else {
                return Ok(());
            };
            let Some(entry) = slot.take() else {
                return Ok(());
            };
            dropped = match &entry.store {
                Store::Mem(pages) => to_u64(pages.len()),
                Store::Disk { pages, .. } => *pages,
            };
            files.by_name.remove(&entry.name);
            if let Backend::Dir(dir) = &self.shared.backend {
                let _ = fs::remove_file(dir.join(sanitize(&entry.name)));
            }
        }
        self.trace_trims(file, dropped);
        self.ftl_trims(file, dropped);
        // Dropped pages must not be served from the shared cache.
        let cache = self.shared.cache.lock().clone();
        if let Some(c) = cache {
            c.invalidate_file(file);
        }
        Ok(())
    }

    // ---- writes ----------------------------------------------------------

    /// Arm append retention on this view (DESIGN.md §18): until re-armed
    /// or disarmed, the first `budget_bytes` worth of pages appended to
    /// `files` are write-allocated into the attached cache's pinned tier —
    /// the bytes are in host memory at append time, so the copy costs no
    /// device read, and a consumer re-reading the tail next superstep hits
    /// DRAM instead of flash. Each retained page charges one whole page of
    /// budget. Truncating or deleting a file drops its retained copies
    /// like any other pinned page (the budget is not re-credited; arming
    /// is per-superstep). A no-op while no cache is attached.
    pub fn arm_append_retention(&self, files: &[FileId], budget_bytes: u64) {
        *self.retention.lock() = Some(AppendRetention {
            files: files.iter().copied().collect(),
            remaining: budget_bytes,
        });
    }

    /// Disarm append retention on this view. Already-retained pages stay
    /// pinned until their file is truncated, deleted or overwritten.
    pub fn disarm_append_retention(&self) {
        *self.retention.lock() = None;
    }

    /// Unspent budget of the current arming (`None` while disarmed). The
    /// engine's retier subtracts `armed - unspent` — the bytes a still-
    /// draining retained tail holds — from the topology pin budget, so
    /// total pinned bytes never exceed the configured budget.
    pub fn append_retention_unspent(&self) -> Option<u64> {
        self.retention.lock().as_ref().map(|r| r.remaining)
    }

    /// The append-retention hook: write-allocate freshly appended pages
    /// into the pinned tier while the armed budget lasts. Runs after
    /// `charge_write`, whose invalidation already dropped any stale copy
    /// of these page slots.
    fn retain_appends(&self, writes: &[(FileId, u64, &[u8])]) {
        let mut guard = self.retention.lock();
        let Some(r) = guard.as_mut() else {
            return;
        };
        let page_bytes = to_u64(self.shared.cfg.page_size);
        if r.remaining < page_bytes {
            return;
        }
        let cache = self.shared.cache.lock().clone();
        let Some(c) = cache else {
            return;
        };
        for &(file, page, data) in writes {
            if r.remaining < page_bytes {
                break;
            }
            if !r.files.contains(&file) {
                continue;
            }
            if c.pin_written(file, page, data, self.shared.cfg.page_size, self.tenant) {
                r.remaining -= page_bytes;
            }
        }
    }

    /// Append one page (payload may be shorter than a page; it is
    /// zero-padded). Returns the page index. Charged as a 1-page write batch.
    pub fn append_page(&self, file: FileId, data: &[u8]) -> Result<u64, DeviceError> {
        self.append_pages(file, std::slice::from_ref(&data))
    }

    /// Append several pages in one batch (e.g. multi-log eviction flushing
    /// many interval logs at once). Returns the index of the first page.
    ///
    /// A crash point inside the batch leaves the pages before it durable
    /// and the crash page torn; the operation then fails with `Crashed`.
    pub fn append_pages(&self, file: FileId, pages: &[&[u8]]) -> Result<u64, DeviceError> {
        let placed = self.store_append(file, pages);
        let addrs: Vec<PageAddr> = (0..placed.written)
            .map(|i| PageAddr::new(file, placed.first + i))
            .collect();
        let fit = self.charge_write(&addrs);
        match placed.err {
            Some(e) => Err(e),
            None => {
                fit?;
                let writes: Vec<(FileId, u64, &[u8])> = pages
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| (file, placed.first + to_u64(i), d))
                    .collect();
                self.retain_appends(&writes);
                Ok(placed.first)
            }
        }
    }

    /// Append pages to *multiple* files as one dispatch — the multi-log
    /// eviction path: several interval logs flush their top pages together
    /// and the writes pipeline across channels (paper §V-A3).
    pub fn append_scattered(&self, writes: &[(FileId, &[u8])]) -> Result<Vec<u64>, DeviceError> {
        let mut addrs = Vec::with_capacity(writes.len());
        let mut out = Vec::with_capacity(writes.len());
        let mut failed = None;
        for &(fid, data) in writes {
            let placed = self.store_append(fid, &[data]);
            if placed.written == 1 {
                addrs.push(PageAddr::new(fid, placed.first));
                out.push(placed.first);
            }
            if let Some(e) = placed.err {
                failed = Some(e);
                break;
            }
        }
        let fit = self.charge_write(&addrs);
        match failed {
            Some(e) => Err(e),
            None => {
                fit?;
                let placed: Vec<(FileId, u64, &[u8])> = writes
                    .iter()
                    .zip(&out)
                    .map(|(&(fid, data), &page)| (fid, page, data))
                    .collect();
                self.retain_appends(&placed);
                Ok(out)
            }
        }
    }

    /// Overwrite an existing page in place. Charged as a 1-page write.
    pub fn write_page(&self, file: FileId, page: u64, data: &[u8]) -> Result<(), DeviceError> {
        self.write_batch(&[(file, page, data)])
    }

    /// Overwrite many pages (possibly across files) as one dispatch —
    /// the shard write-back path of the GraphChi baseline, where a whole
    /// shard plus its sliding windows go back to disk together.
    pub fn write_batch(&self, writes: &[(FileId, u64, &[u8])]) -> Result<(), DeviceError> {
        let mut done: Vec<PageAddr> = Vec::with_capacity(writes.len());
        let mut failed: Option<DeviceError> = None;
        {
            let mut files = self.shared.files.lock();
            for &(fid, page, data) in writes {
                let Some(entry) = files.entries.get_mut(idx(fid)).and_then(Option::as_mut)
                else {
                    failed = Some(DeviceError::Deleted { file: fid });
                    break;
                };
                let n = match &entry.store {
                    Store::Mem(pages) => to_u64(pages.len()),
                    Store::Disk { pages, .. } => *pages,
                };
                if page >= n {
                    failed = Some(DeviceError::OutOfBounds { file: fid, page });
                    break;
                }
                let (placed, went_on) = self.place_page(&mut entry.store, Some(page), data);
                if placed {
                    done.push(PageAddr::new(fid, page));
                }
                if let Err(e) = went_on {
                    failed = Some(e);
                    break;
                }
            }
        }
        let fit = self.charge_write(&done);
        match failed {
            Some(e) => Err(e),
            None => fit,
        }
    }

    // ---- reads -----------------------------------------------------------

    /// Read one page, declaring how many of its bytes the caller will
    /// actually use (for read-amplification accounting).
    pub fn read_page(&self, file: FileId, page: u64, useful: usize) -> Result<Page, DeviceError> {
        // read_batch returns exactly one page per request.
        self.read_batch(&[(file, page, useful)])?
            .pop()
            .ok_or(DeviceError::OutOfBounds { file, page })
    }

    /// Read a batch of pages dispatched together: `(file, page, useful)`.
    /// The whole batch is charged as one parallel dispatch across channels.
    ///
    /// When a [`PageCache`] is attached the batch is served through it:
    /// resident pages are hits (charged nothing), concurrent fetches of the
    /// same page are merged, and only genuine misses reach the device.
    ///
    /// Transient read faults within the device's retry bound are absorbed
    /// here, charging one extra page-read service time per retry on the
    /// virtual clock; a fault streak beyond the bound fails the batch with
    /// [`DeviceError::ReadUnavailable`].
    pub fn read_batch(&self, reqs: &[(FileId, u64, usize)]) -> Result<Vec<Page>, DeviceError> {
        let cache = self.shared.cache.lock().clone();
        match cache {
            Some(c) => {
                // A crashed view must not be served from the cache either.
                self.fault.lock().check_alive()?;
                c.read_through(self, reqs, self.tenant, true)
            }
            None => self.read_batch_uncached(reqs),
        }
    }

    /// Read a batch whose simulated service time has already been accounted
    /// for elsewhere — the data path of [`crate::IoQueue`], whose virtual
    /// clocks charge queueing/service time at submit and completion. Pages,
    /// bytes and exactly one `read_batches` are charged here (once per
    /// ticket, regardless of how many channels or cache passes serve it);
    /// `read_time_ns` is not. Fault-retry penalties are real extra service
    /// time and are still charged at fetch.
    pub fn read_batch_deferred(
        &self,
        reqs: &[(FileId, u64, usize)],
    ) -> Result<Vec<Page>, DeviceError> {
        let cache = self.shared.cache.lock().clone();
        match cache {
            Some(c) => {
                self.fault.lock().check_alive()?;
                c.read_through(self, reqs, self.tenant, false)
            }
            None => self.read_batch_uncached_inner(reqs, false),
        }
    }

    /// Add already-computed read wait/service time to this view's clock —
    /// the [`crate::IoQueue`] charges submission stalls and completion waits
    /// through this, keeping `read_time_ns` the single total the
    /// observability layer mirrors.
    pub fn charge_read_wait(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        for s in self.charge_sinks() {
            s.read_time_ns.add(ns);
        }
    }

    /// The raw device read path, bypassing any attached cache — the cache's
    /// own fill path, and the whole story when no cache is attached.
    pub(crate) fn read_batch_uncached(
        &self,
        reqs: &[(FileId, u64, usize)],
    ) -> Result<Vec<Page>, DeviceError> {
        self.read_batch_uncached_inner(reqs, true)
    }

    /// `read_batch_uncached` with the service-time charge made optional:
    /// `charge_time: false` is the deferred path, where the queue's virtual
    /// clocks own the time accounting but counts must still be exact.
    pub(crate) fn read_batch_uncached_inner(
        &self,
        reqs: &[(FileId, u64, usize)],
        charge_time: bool,
    ) -> Result<Vec<Page>, DeviceError> {
        self.fault.lock().check_alive()?;
        let mut out = Vec::with_capacity(reqs.len());
        let mut addrs = Vec::with_capacity(reqs.len());
        let mut useful_total = 0u64;
        let mut extra_retries = 0u64;
        let mut failed: Option<DeviceError> = None;
        {
            let files = self.shared.files.lock();
            for &(fid, page, useful) in reqs {
                assert!(
                    useful <= self.shared.cfg.page_size,
                    "useful bytes cannot exceed the page size"
                );
                match self.lend(&files, fid, page) {
                    Ok((lent, retries)) => {
                        extra_retries += u64::from(retries);
                        useful_total += to_u64(useful);
                        addrs.push(PageAddr::new(fid, page));
                        out.push(lent);
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
        }
        self.charge_read(&addrs, useful_total, charge_time);
        if extra_retries > 0 {
            let t = extra_retries.saturating_mul(self.shared.cfg.read_ns);
            for s in self.charge_sinks() {
                s.read_time_ns.add(t);
            }
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// One page of a read batch: existence and bounds first, then the fault
    /// schedule (a read that cannot happen must not consume a fault slot),
    /// then the page itself and the retries it cost. `Mem` clones the
    /// slot's handle; `Disk` does its one `read_at` into the buffer that
    /// becomes the page.
    fn lend(&self, files: &Files, fid: FileId, page: u64) -> Result<(Page, u32), DeviceError> {
        let entry = files
            .entries
            .get(idx(fid))
            .and_then(Option::as_ref)
            .ok_or(DeviceError::Deleted { file: fid })?;
        let out_of_bounds = DeviceError::OutOfBounds { file: fid, page };
        let note_read = || {
            self.fault
                .lock()
                .note_page_read()
                .map_err(|retries| DeviceError::ReadUnavailable { file: fid, page, retries })
        };
        match &entry.store {
            Store::Mem(pages) => {
                let slot = pages.get(mem_idx(page)).ok_or(out_of_bounds)?;
                Ok((slot.clone(), note_read()?))
            }
            Store::Disk { file, pages } => {
                if page >= *pages {
                    return Err(out_of_bounds);
                }
                let retries = note_read()?;
                let lent = Page::read_into(self.shared.cfg.page_size, |buf| {
                    read_at(file, buf, self.byte_offset(page))
                })
                .map_err(|e| io_err("read_at", &e))?;
                Ok((lent, retries))
            }
        }
    }

    /// Retroactively declare useful bytes for data already read. Intended
    /// for log readers whose per-page payload size lives *inside* the page
    /// (a count header) and is unknown at dispatch time.
    pub fn declare_useful(&self, bytes: u64) {
        for s in self.charge_sinks() {
            s.useful_bytes_read.add(bytes);
        }
    }

    /// Read every page of a file as one sequential batch (whole-log load).
    pub fn read_all(
        &self,
        file: FileId,
        useful_per_page: impl Fn(u64) -> usize,
    ) -> Result<Vec<Page>, DeviceError> {
        let n = self.num_pages(file)?;
        let reqs: Vec<(FileId, u64, usize)> =
            (0..n).map(|p| (file, p, useful_per_page(p))).collect();
        self.read_batch(&reqs)
    }

    fn store_append(&self, file: FileId, pages: &[&[u8]]) -> Placed {
        let mut files = self.shared.files.lock();
        let Some(entry) = files.entries.get_mut(idx(file)).and_then(Option::as_mut) else {
            return Placed { first: 0, written: 0, err: Some(DeviceError::Deleted { file }) };
        };
        let first = match &entry.store {
            Store::Mem(existing) => to_u64(existing.len()),
            Store::Disk { pages: n, .. } => *n,
        };
        let mut written = 0u64;
        let mut err = None;
        for data in pages {
            let (placed, went_on) = self.place_page(&mut entry.store, None, data);
            written += u64::from(placed);
            if let Err(e) = went_on {
                err = Some(e);
                break;
            }
        }
        Placed { first, written, err }
    }

    /// Place one page's payload in `store` — over page `at`, which the
    /// caller has bounds-checked, or appended when `at` is `None`: the
    /// payload-size check, the fault schedule's fate for the write, the tear,
    /// the zero padding and the store write. Returns whether the page reached
    /// the media (the caller charges it) and whether the batch goes on: a
    /// torn page is on the media and fails the batch with `Crashed`.
    fn place_page(
        &self,
        store: &mut Store,
        at: Option<u64>,
        data: &[u8],
    ) -> (bool, Result<(), DeviceError>) {
        let page_size = self.shared.cfg.page_size;
        if data.len() > page_size {
            return (false, Err(DeviceError::PayloadTooLarge { len: data.len(), page_size }));
        }
        let fate = match self.fault.lock().note_page_write(page_size) {
            Ok(f) => f,
            Err(e) => return (false, Err(e)),
        };
        let keep = match &fate {
            WriteFate::Proceed => data.len(),
            WriteFate::Torn { keep } => (*keep).min(data.len()),
        };
        let buf = Page::zero_padded(&data[..keep], page_size);
        match store {
            Store::Mem(pages) => match at {
                Some(page) => pages[mem_idx(page)] = buf,
                None => pages.push(buf),
            },
            Store::Disk { file, pages } => {
                if let Err(e) = write_at(file, &buf, self.byte_offset(at.unwrap_or(*pages))) {
                    return (false, Err(io_err("write_at", &e)));
                }
                if at.is_none() {
                    *pages += 1;
                }
            }
        }
        match fate {
            WriteFate::Proceed => (true, Ok(())),
            WriteFate::Torn { .. } => (true, Err(DeviceError::Crashed)),
        }
    }

    fn charge_read(&self, addrs: &[PageAddr], useful: u64, charge_time: bool) {
        if addrs.is_empty() {
            return;
        }
        let t = if charge_time {
            batch_time_ns(&self.shared.cfg, addrs, self.shared.cfg.read_ns)
        } else {
            0
        };
        for s in self.charge_sinks() {
            s.pages_read.add(to_u64(addrs.len()));
            s.bytes_read.add(to_u64(addrs.len()) * to_u64(self.shared.cfg.page_size));
            s.useful_bytes_read.add(useful);
            s.read_time_ns.add(t);
            s.read_batches.add(1);
        }
    }

    /// Account for pages that reached the media. The error is the live FTL
    /// model's: the device is sized below what these writes keep live.
    fn charge_write(&self, addrs: &[PageAddr]) -> Result<(), DeviceError> {
        if addrs.is_empty() {
            return Ok(());
        }
        self.trace_writes(addrs);
        let fit = self.ftl_writes(addrs);
        // Overwritten pages must not be served stale from the shared cache.
        let cache = self.shared.cache.lock().clone();
        if let Some(c) = cache {
            c.invalidate_addrs(addrs);
        }
        let t = batch_time_ns(&self.shared.cfg, addrs, self.shared.cfg.write_ns);
        for s in self.charge_sinks() {
            s.pages_written.add(to_u64(addrs.len()));
            s.bytes_written.add(to_u64(addrs.len()) * to_u64(self.shared.cfg.page_size));
            s.write_time_ns.add(t);
            s.write_batches.add(1);
        }
        fit
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
        .collect()
}

#[cfg(unix)]
fn read_at(file: &fs::File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(unix)]
fn write_at(file: &fs::File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(not(unix))]
fn read_at(_file: &fs::File, _buf: &mut [u8], _offset: u64) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "disk backend requires unix positional I/O",
    ))
}

#[cfg(not(unix))]
fn write_at(_file: &fs::File, _buf: &[u8], _offset: u64) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "disk backend requires unix positional I/O",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Ssd {
        Ssd::new(SsdConfig::test_small())
    }

    #[test]
    fn roundtrip_single_page() {
        let ssd = dev();
        let f = ssd.open_or_create("a").unwrap();
        let idx = ssd.append_page(f, b"hello").unwrap();
        assert_eq!(idx, 0);
        let page = ssd.read_page(f, 0, 5).unwrap();
        assert_eq!(&page[..5], b"hello");
        assert!(page[5..].iter().all(|&b| b == 0), "zero padded");
    }

    #[test]
    fn open_or_create_is_idempotent() {
        let ssd = dev();
        let a = ssd.open_or_create("x").unwrap();
        let b = ssd.open_or_create("x").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, ssd.open_or_create("y").unwrap());
    }

    #[test]
    fn append_grows_and_truncate_clears() {
        let ssd = dev();
        let f = ssd.open_or_create("log").unwrap();
        for i in 0..5u8 {
            ssd.append_page(f, &[i; 16]).unwrap();
        }
        assert_eq!(ssd.num_pages(f).unwrap(), 5);
        let p3 = ssd.read_page(f, 3, 16).unwrap();
        assert_eq!(&p3[..16], &[3u8; 16]);
        ssd.truncate(f).unwrap();
        assert_eq!(ssd.num_pages(f).unwrap(), 0);
    }

    #[test]
    fn write_page_overwrites_in_place() {
        let ssd = dev();
        let f = ssd.open_or_create("v").unwrap();
        ssd.append_page(f, b"old").unwrap();
        ssd.write_page(f, 0, b"new!").unwrap();
        assert_eq!(&ssd.read_page(f, 0, 4).unwrap()[..4], b"new!");
    }

    #[test]
    fn append_retention_pins_the_log_tail_within_budget() {
        let ssd = dev();
        let cache = Arc::new(crate::PageCache::new(1));
        ssd.attach_cache(Arc::clone(&cache));
        let log = ssd.open_or_create("log").unwrap();
        let cold = ssd.open_or_create("cold").unwrap();
        let page = u64::try_from(ssd.page_size()).unwrap();

        // Budget for two pages, armed on `log` only.
        ssd.arm_append_retention(&[log], 2 * page);
        for i in 0..3u8 {
            ssd.append_page(log, &[i; 64]).unwrap();
            ssd.append_page(cold, &[i; 64]).unwrap();
        }
        assert_eq!(ssd.append_retention_unspent(), Some(0), "two pages spent the arming");
        assert_eq!(cache.pinned_pages(), 2, "first two log appends retained, cold file not");

        // Reading the log back hits the retained tail; the third page and
        // the cold file still pay the device.
        ssd.stats().reset();
        let got = ssd
            .read_batch(&[(log, 0, 64), (log, 1, 64), (log, 2, 64), (cold, 0, 64)])
            .unwrap();
        assert_eq!(&got[0][..64], &[0u8; 64]);
        assert_eq!(&got[1][..64], &[1u8; 64]);
        assert!(got[0][64..].iter().all(|&b| b == 0), "retained copy is zero padded");
        assert_eq!(ssd.stats().snapshot().pages_read, 2, "only page 2 and cold hit flash");
        assert_eq!(cache.snapshot().pinned_hits, 2);

        // Truncate-on-consume drops the retained copies with the file.
        ssd.truncate(log).unwrap();
        assert_eq!(cache.pinned_pages(), 0, "truncation drops retained pins");
        ssd.disarm_append_retention();
        assert_eq!(ssd.append_retention_unspent(), None);
    }

    #[test]
    fn stats_account_pages_and_useful_bytes() {
        let ssd = dev();
        let f = ssd.open_or_create("s").unwrap();
        ssd.append_page(f, &[1; 100]).unwrap();
        ssd.append_page(f, &[2; 100]).unwrap();
        let before = ssd.stats().snapshot();
        assert_eq!(before.pages_written, 2);
        ssd.read_batch(&[(f, 0, 10), (f, 1, 20)]).unwrap();
        let after = ssd.stats().snapshot().since(&before);
        assert_eq!(after.pages_read, 2);
        assert_eq!(after.useful_bytes_read, 30);
        assert_eq!(after.bytes_read, 2 * 256);
        assert!(after.read_amplification().unwrap() > 1.0);
        assert_eq!(after.read_batches, 1);
    }

    #[test]
    fn batched_read_is_cheaper_than_serial_reads() {
        let cfg = SsdConfig::test_small();
        let ssd1 = Ssd::new(cfg.clone());
        let f1 = ssd1.open_or_create("a").unwrap();
        for _ in 0..16 {
            ssd1.append_page(f1, &[0; 8]).unwrap();
        }
        ssd1.stats().reset();
        ssd1.read_batch(&(0..16).map(|p| (f1, p, 8)).collect::<Vec<_>>()).unwrap();
        let batched = ssd1.stats().snapshot().read_time_ns;

        let ssd2 = Ssd::new(cfg);
        let f2 = ssd2.open_or_create("a").unwrap();
        for _ in 0..16 {
            ssd2.append_page(f2, &[0; 8]).unwrap();
        }
        ssd2.stats().reset();
        for p in 0..16 {
            ssd2.read_page(f2, p, 8).unwrap();
        }
        let serial = ssd2.stats().snapshot().read_time_ns;
        assert!(
            batched < serial,
            "channel-parallel batch ({batched}) must beat serial ({serial})"
        );
    }

    #[test]
    fn scattered_append_hits_multiple_files() {
        let ssd = dev();
        let a = ssd.open_or_create("a").unwrap();
        let b = ssd.open_or_create("b").unwrap();
        let pa = [7u8; 4];
        let pb = [9u8; 4];
        let idx = ssd.append_scattered(&[(a, &pa), (b, &pb), (a, &pa)]).unwrap();
        assert_eq!(idx, vec![0, 0, 1]);
        assert_eq!(ssd.num_pages(a).unwrap(), 2);
        assert_eq!(ssd.num_pages(b).unwrap(), 1);
        assert_eq!(ssd.stats().snapshot().write_batches, 1);
    }

    #[test]
    fn delete_frees_name_and_types_later_access() {
        let ssd = dev();
        let f = ssd.open_or_create("tmp").unwrap();
        ssd.delete(f).unwrap();
        assert!(ssd.lookup("tmp").is_none());
        assert_eq!(ssd.num_pages(f), Err(DeviceError::Deleted { file: f }));
        assert_eq!(ssd.append_page(f, b"x"), Err(DeviceError::Deleted { file: f }));
        assert_eq!(ssd.read_page(f, 0, 0), Err(DeviceError::Deleted { file: f }));
        let g = ssd.open_or_create("tmp").unwrap();
        assert_ne!(f, g);
    }

    #[test]
    fn disk_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mlvc-ssd-test-{}", std::process::id()));
        let ssd = Ssd::new_on_disk(SsdConfig::test_small(), dir.clone()).unwrap();
        let f = ssd.open_or_create("durable").unwrap();
        ssd.append_page(f, b"on real disk").unwrap();
        ssd.append_page(f, b"second page").unwrap();
        let p = ssd.read_page(f, 1, 11).unwrap();
        assert_eq!(&p[..11], b"second page");
        ssd.write_page(f, 0, b"rewritten").unwrap();
        assert_eq!(&ssd.read_page(f, 0, 9).unwrap()[..9], b"rewritten");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn disk_backend_reopen_preserves_contents() {
        let dir = std::env::temp_dir()
            .join(format!("mlvc-ssd-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let ssd = Ssd::new_on_disk(SsdConfig::test_small(), dir.clone()).unwrap();
            let f = ssd.open_or_create("state").unwrap();
            ssd.append_page(f, b"survives restart").unwrap();
            ssd.append_page(f, b"page two").unwrap();
        }
        // A new process (new Ssd over the same directory) must see the
        // previous contents — the property `mlvc resume` depends on.
        let ssd = Ssd::new_on_disk(SsdConfig::test_small(), dir.clone()).unwrap();
        let f = ssd.open_or_create("state").unwrap();
        assert_eq!(ssd.num_pages(f).unwrap(), 2);
        let p = ssd.read_page(f, 0, 16).unwrap();
        assert_eq!(&p[..16], b"survives restart");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let ssd = dev();
        let f = ssd.open_or_create("big").unwrap();
        assert_eq!(
            ssd.append_page(f, &vec![0u8; 257]),
            Err(DeviceError::PayloadTooLarge { len: 257, page_size: 256 })
        );
        ssd.append_page(f, &[1u8; 256]).unwrap();
        assert_eq!(
            ssd.write_page(f, 0, &vec![0u8; 300]),
            Err(DeviceError::PayloadTooLarge { len: 300, page_size: 256 })
        );
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let ssd = dev();
        let f = ssd.open_or_create("a").unwrap();
        assert_eq!(ssd.read_page(f, 0, 0), Err(DeviceError::OutOfBounds { file: f, page: 0 }));
        assert_eq!(
            ssd.write_page(f, 3, b"x"),
            Err(DeviceError::OutOfBounds { file: f, page: 3 })
        );
    }

    #[test]
    fn crash_point_tears_page_and_blocks_device() {
        let ssd = dev();
        let f = ssd.open_or_create("wal").unwrap();
        ssd.install_fault_plan(FaultPlan::crash_after(3, 0xFEED));
        ssd.append_page(f, &[1u8; 256]).unwrap();
        ssd.append_page(f, &[2u8; 256]).unwrap();
        assert_eq!(ssd.append_page(f, &[3u8; 256]), Err(DeviceError::Crashed));
        assert!(ssd.is_crashed());
        // Everything fails until revive — including reads and metadata ops.
        assert_eq!(ssd.read_page(f, 0, 0), Err(DeviceError::Crashed));
        assert_eq!(ssd.truncate(f), Err(DeviceError::Crashed));
        assert_eq!(ssd.open_or_create("other"), Err(DeviceError::Crashed));
        ssd.revive();
        // Durable state: pages 0 and 1 intact, page 2 torn (a strict
        // prefix of the payload, then zeroes).
        assert_eq!(ssd.num_pages(f).unwrap(), 3);
        assert_eq!(&ssd.read_page(f, 0, 0).unwrap()[..], &[1u8; 256]);
        assert_eq!(&ssd.read_page(f, 1, 0).unwrap()[..], &[2u8; 256]);
        let torn = ssd.read_page(f, 2, 0).unwrap();
        let keep = torn.iter().take_while(|&&b| b == 3).count();
        assert!(keep < 256, "crash page must not be fully programmed");
        assert!(torn[keep..].iter().all(|&b| b == 0), "tail reads back as zeroes");
        let c = ssd.fault_counters();
        assert_eq!((c.torn_writes, c.crashes), (1, 1));
    }

    #[test]
    fn crash_is_deterministic_across_replays() {
        let run = || {
            let ssd = dev();
            let f = ssd.open_or_create("wal").unwrap();
            ssd.install_fault_plan(FaultPlan::crash_after(2, 99));
            ssd.append_page(f, &[0xAB; 256]).unwrap();
            let _ = ssd.append_page(f, &[0xCD; 256]);
            ssd.revive();
            ssd.read_all(f, |_| 0).unwrap()
        };
        assert_eq!(run(), run(), "same plan, same torn bytes");
    }

    #[test]
    fn transient_read_fault_retries_and_charges_time() {
        let ssd = dev();
        let f = ssd.open_or_create("a").unwrap();
        ssd.append_page(f, &[5u8; 256]).unwrap();
        ssd.stats().reset();
        ssd.read_page(f, 0, 0).unwrap();
        let clean = ssd.stats().snapshot().read_time_ns;
        ssd.install_fault_plan(FaultPlan::default().with_read_faults(1, 2));
        ssd.stats().reset();
        let page = ssd.read_page(f, 0, 0).unwrap();
        assert_eq!(&page[..], &[5u8; 256], "retried read returns good data");
        let faulted = ssd.stats().snapshot().read_time_ns;
        assert!(faulted > clean, "retries must cost virtual time ({faulted} vs {clean})");
        assert_eq!(ssd.fault_counters().retries_charged, 2);
    }

    #[test]
    fn unrecoverable_read_fault_surfaces_typed_error() {
        let ssd = dev();
        let f = ssd.open_or_create("a").unwrap();
        ssd.append_page(f, &[5u8; 256]).unwrap();
        ssd.install_fault_plan(
            FaultPlan::default().with_read_faults(1, 9).with_max_read_retries(2),
        );
        assert_eq!(
            ssd.read_page(f, 0, 0),
            Err(DeviceError::ReadUnavailable { file: f, page: 0, retries: 2 })
        );
        assert!(!ssd.is_crashed(), "read faults are transient, not crashes");
        ssd.revive();
        ssd.read_page(f, 0, 0).unwrap();
    }

    #[test]
    fn live_ftl_matches_trace_replay() {
        use crate::ftl::{FtlConfig, FtlError};
        let run_writes = |ssd: &Ssd| {
            let f = ssd.open_or_create("log").unwrap();
            for i in 0..10u8 {
                ssd.append_page(f, &[i; 16]).unwrap();
            }
            ssd.truncate(f).unwrap();
            for i in 0..4u8 {
                ssd.append_page(f, &[i; 16]).unwrap();
            }
        };

        // Live model, fed as operations happen.
        let live = dev();
        assert!(!live.ftl_enabled());
        assert!(live.ftl_stats().is_none());
        live.enable_ftl(FtlConfig::default());
        assert!(live.ftl_enabled());
        run_writes(&live);

        // Recorded trace replayed after the fact (the pre-existing flow).
        let rec = dev();
        rec.enable_trace();
        run_writes(&rec);
        let mut model = FtlModel::new(FtlConfig::default());
        model.replay(&rec.take_trace()).unwrap();

        let live_stats = live.ftl_stats().unwrap();
        assert_eq!(live_stats, model.stats(), "live feed must equal replay");
        assert_eq!(live_stats.host_writes, 14);
        // enable_ftl is idempotent: re-enabling keeps accumulated state.
        live.enable_ftl(FtlConfig::default());
        assert_eq!(live.ftl_stats().unwrap().host_writes, 14);

        // An undersized device, 3 blocks of 4 pages: the page write that
        // overflows the live model fails with the error the replay stops
        // at. Appends alone run out of free blocks after 12 pages; with two
        // pages overwritten the 11th page finds a block worth collecting
        // and nowhere to move its survivors.
        let undersized = FtlConfig { pages_per_block: 4, blocks: 3, gc_low_watermark: 0 };
        let overflow = |ssd: &Ssd, overwrite: bool| -> Result<(), DeviceError> {
            let f = ssd.open_or_create("small")?;
            for i in 0..4u8 {
                ssd.append_page(f, &[i; 16])?;
            }
            let appends = if overwrite {
                ssd.write_batch(&[(f, 0, &[9; 16]), (f, 1, &[9; 16])])?;
                7
            } else {
                9
            };
            (0..appends).try_for_each(|_| ssd.append_page(f, &[7; 16]).map(drop))
        };
        for (overwrite, want) in [
            (false, FtlError::NoFreeBlock { lpa: (0, 12) }),
            (true, FtlError::NoGcRoom { survivors: 2, room: 0 }),
        ] {
            let live = dev();
            live.enable_ftl(undersized.clone());
            assert_eq!(overflow(&live, overwrite), Err(DeviceError::Full(want)));
            let rec = dev();
            rec.enable_trace();
            overflow(&rec, overwrite).unwrap();
            let mut model = FtlModel::new(undersized.clone());
            assert_eq!(model.replay(&rec.take_trace()), Err(want));
            assert_eq!(live.ftl_stats().unwrap(), model.stats());
        }
    }

    #[test]
    fn crash_mid_scattered_append_keeps_earlier_pages() {
        let ssd = dev();
        let a = ssd.open_or_create("a").unwrap();
        let b = ssd.open_or_create("b").unwrap();
        ssd.install_fault_plan(FaultPlan::crash_after(2, 1));
        let pa = [1u8; 8];
        let pb = [2u8; 8];
        assert_eq!(
            ssd.append_scattered(&[(a, &pa), (b, &pb), (a, &pa)]),
            Err(DeviceError::Crashed)
        );
        ssd.revive();
        assert_eq!(ssd.num_pages(a).unwrap(), 1, "first write durable");
        assert_eq!(ssd.num_pages(b).unwrap(), 1, "second write torn but placed");
        assert_eq!(&ssd.read_page(a, 0, 0).unwrap()[..8], &pa);
    }
}
