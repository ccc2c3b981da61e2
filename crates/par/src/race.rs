//! Vector-clock happens-before race detection (the dynamic prong of
//! `mlvc-check`, DESIGN.md §14).
//!
//! Everything here is gated on the `race-detect` cargo feature. With the
//! feature off the only item that exists is [`Tracked`], reduced to a
//! transparent newtype whose audit hooks compile to nothing — the engines
//! keep their `Tracked` cells in place at zero cost.
//!
//! With the feature on, every thread spawned through [`crate::scope`]
//! carries a vector clock:
//!
//! * **fork** — the child starts with a copy of the parent's clock (so all
//!   pre-fork writes happen-before the child) and the parent bumps its own
//!   epoch (post-fork parent work is unordered with the child);
//! * **join** — the parent max-merges the child's exit clock (child work
//!   happens-before everything after the join);
//! * **lock acquire/release** — `mlvc_ssd::sync` primitives release their
//!   holder's clock into a per-lock clock and acquirers merge it back, so
//!   critical sections on one lock are totally ordered. `RwLock` readers
//!   are treated like writers: conservative, which can only *add*
//!   happens-before edges (missed races, never false positives).
//!
//! [`Tracked<T>`] cells audit shared state against those clocks: each cell
//! remembers the last write and the current read set, every access checks
//! the clock of the previous conflicting access, and a violation is
//! reported with **both** source locations (via `#[track_caller]`). A race
//! report panics by default (`set_panic_on_race`) so CI fails loudly;
//! fixtures flip the toggle and drain `take_reports`.
//!
//! Thread slots are reused only after the owning thread has been joined, so
//! a recycled slot's epochs keep increasing monotonically; an access
//! attributed to a dead slot therefore orders *before* any later user of
//! the slot — sound for scoped parallelism, where join is the only way a
//! slot gets freed.

#[cfg(feature = "race-detect")]
use std::panic::Location;

#[cfg(feature = "race-detect")]
use std::cell::RefCell;
#[cfg(feature = "race-detect")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(feature = "race-detect")]
use std::sync::{Mutex, MutexGuard};

/// A shadow-state cell for auditing shared engine state.
///
/// Wrap state that crosses a thread boundary (prefetch handoffs, log
/// read-side buffers, lazily attached models) and call the audit hooks at
/// the protocol's read/write points. With `race-detect` off the cell is a
/// transparent newtype; with it on, every access is checked against the
/// vector clocks and unordered conflicting accesses are reported with both
/// sites.
#[derive(Debug)]
pub struct Tracked<T> {
    value: T,
    #[cfg(feature = "race-detect")]
    shadow: Shadow,
}

impl<T> Tracked<T> {
    /// Wrap `value`; `label` names the cell in race reports.
    pub fn new(label: &'static str, value: T) -> Self {
        #[cfg(not(feature = "race-detect"))]
        let _ = label;
        Tracked {
            value,
            #[cfg(feature = "race-detect")]
            shadow: Shadow::new(label),
        }
    }

    /// Shared access, audited as a read of the cell.
    #[track_caller]
    pub fn get(&self) -> &T {
        self.audit_read();
        &self.value
    }

    /// Exclusive access, audited as a write of the cell.
    #[track_caller]
    pub fn get_mut(&mut self) -> &mut T {
        self.audit_write();
        &mut self.value
    }

    /// Record a read of the protocol state this cell stands for, without
    /// touching the value (for `Tracked<()>` marker cells).
    #[track_caller]
    pub fn audit_read(&self) {
        #[cfg(feature = "race-detect")]
        self.shadow.on_access(Location::caller(), AccessKind::Read);
    }

    /// Record a logical write — a mutation of the protocol state this cell
    /// stands for, even one performed through `&self` behind a lock (e.g.
    /// a take-once handoff).
    #[track_caller]
    pub fn audit_write(&self) {
        #[cfg(feature = "race-detect")]
        self.shadow.on_access(Location::caller(), AccessKind::Write);
    }

    pub fn into_inner(self) -> T {
        self.value
    }
}

/// One detected happens-before violation.
#[cfg(feature = "race-detect")]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The `Tracked` cell's label.
    pub label: &'static str,
    /// `"write-write"`, `"read-write"` or `"write-read"` (prior kind
    /// first).
    pub kind: &'static str,
    /// `file:line:col` of the earlier conflicting access.
    pub prior_site: String,
    /// `file:line:col` of the access that exposed the race.
    pub current_site: String,
}

#[cfg(feature = "race-detect")]
impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data race on `{}` ({}): {} is unordered with {}",
            self.label, self.kind, self.prior_site, self.current_site
        )
    }
}

#[cfg(feature = "race-detect")]
pub use detect::{
    fork, join_merge, lock_acquire, lock_release, new_lock_id, register_child, set_panic_on_race,
    set_schedule_seed, spawn_order, take_exit_clock, take_reports, ChildClock, ExitClock,
};

#[cfg(feature = "race-detect")]
use detect::{AccessKind, Shadow};

#[cfg(feature = "race-detect")]
mod detect {
    use super::*;

    /// Poison-free lock: the detector must keep working while a race
    /// panic unwinds through other threads' guards.
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Elementwise max-merge of `src` into `dst`.
    fn merge(dst: &mut Vec<u64>, src: &[u64]) {
        if dst.len() < src.len() {
            dst.resize(src.len(), 0);
        }
        for (d, &s) in dst.iter_mut().zip(src) {
            if *d < s {
                *d = s;
            }
        }
    }

    struct Registry {
        /// Slots whose owner has been joined; safe to reuse.
        free: Vec<usize>,
        /// Highest epoch ever used per slot — reuse starts above it.
        last_epoch: Vec<u64>,
        /// Per-lock vector clocks, indexed by lock id.
        lock_clocks: Vec<Vec<u64>>,
    }

    static REGISTRY: Mutex<Registry> =
        Mutex::new(Registry { free: Vec::new(), last_epoch: Vec::new(), lock_clocks: Vec::new() });

    struct ThreadState {
        slot: usize,
        clock: Vec<u64>,
    }

    thread_local! {
        static CUR: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
    }

    /// Allocate a slot with a starting epoch above every prior use.
    fn alloc_slot(reg: &mut Registry) -> (usize, u64) {
        let slot = match reg.free.pop() {
            Some(s) => s,
            None => {
                reg.last_epoch.push(0);
                reg.last_epoch.len() - 1
            }
        };
        let epoch = reg.last_epoch[slot] + 1;
        reg.last_epoch[slot] = epoch;
        (slot, epoch)
    }

    /// Run `f` on the calling thread's clock state, registering the thread
    /// as a root (fresh slot, empty history) on first use.
    fn with_thread<R>(f: impl FnOnce(&mut ThreadState) -> R) -> R {
        CUR.with(|c| {
            let mut cur = c.borrow_mut();
            let t = cur.get_or_insert_with(|| {
                let (slot, epoch) = alloc_slot(&mut lock(&REGISTRY));
                let mut clock = vec![0; slot + 1];
                clock[slot] = epoch;
                ThreadState { slot, clock }
            });
            f(t)
        })
    }

    /// The clock a child thread starts from; produced by [`fork`] on the
    /// parent, consumed by [`register_child`] on the child.
    pub struct ChildClock {
        slot: usize,
        clock: Vec<u64>,
    }

    /// The clock a child thread ends with; produced by [`take_exit_clock`]
    /// on the child, consumed by [`join_merge`] on the joiner.
    pub struct ExitClock {
        slot: usize,
        clock: Vec<u64>,
    }

    /// Parent half of a spawn: derive the child's starting clock (all
    /// parent work so far happens-before the child) and bump the parent's
    /// epoch (later parent work is unordered with the child).
    pub fn fork() -> ChildClock {
        with_thread(|t| {
            let (slot, epoch) = alloc_slot(&mut lock(&REGISTRY));
            let mut clock = t.clock.clone();
            if clock.len() <= slot {
                clock.resize(slot + 1, 0);
            }
            clock[slot] = epoch;
            t.clock[t.slot] += 1;
            ChildClock { slot, clock }
        })
    }

    /// Child half of a spawn: adopt the forked clock. Must be the first
    /// detector call on the new thread.
    pub fn register_child(c: ChildClock) {
        CUR.with(|cur| {
            *cur.borrow_mut() = Some(ThreadState { slot: c.slot, clock: c.clock });
        });
    }

    /// Child half of a join: snapshot the final clock as the thread's last
    /// detector action.
    pub fn take_exit_clock() -> ExitClock {
        let t = CUR.with(|c| c.borrow_mut().take());
        match t {
            Some(t) => ExitClock { slot: t.slot, clock: t.clock },
            // A worker that never touched the detector (impossible through
            // `crate::scope`, which registers before running the closure);
            // merging an empty clock is a no-op.
            None => ExitClock { slot: usize::MAX, clock: Vec::new() },
        }
    }

    /// Joiner half of a join: everything the child did happens-before
    /// everything after this call; the child's slot becomes reusable.
    pub fn join_merge(e: ExitClock) {
        if e.slot == usize::MAX {
            return;
        }
        with_thread(|t| merge(&mut t.clock, &e.clock));
        let mut reg = lock(&REGISTRY);
        reg.last_epoch[e.slot] = e.clock.get(e.slot).copied().unwrap_or(reg.last_epoch[e.slot]);
        reg.free.push(e.slot);
    }

    /// Allocate an id for one `mlvc_ssd::sync` lock instance.
    pub fn new_lock_id() -> usize {
        let mut reg = lock(&REGISTRY);
        reg.lock_clocks.push(Vec::new());
        reg.lock_clocks.len() - 1
    }

    /// Acquire edge: merge the lock's release clock into the acquirer.
    pub fn lock_acquire(id: usize) {
        with_thread(|t| {
            let reg = lock(&REGISTRY);
            merge(&mut t.clock, &reg.lock_clocks[id]);
        });
    }

    /// Release edge: publish the holder's clock on the lock, then bump the
    /// holder's epoch so post-release work is unordered with the next
    /// critical section.
    pub fn lock_release(id: usize) {
        with_thread(|t| {
            let mut reg = lock(&REGISTRY);
            let snapshot = t.clock.clone();
            merge(&mut reg.lock_clocks[id], &snapshot);
            t.clock[t.slot] += 1;
        });
    }

    // ---- shadow cells ---------------------------------------------------

    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(super) enum AccessKind {
        Read,
        Write,
    }

    #[derive(Clone, Copy)]
    struct Access {
        slot: usize,
        epoch: u64,
        loc: &'static Location<'static>,
    }

    /// Did `a` happen-before the current state of thread `t`?
    fn ordered(a: &Access, t: &ThreadState) -> bool {
        a.slot == t.slot || t.clock.get(a.slot).copied().unwrap_or(0) >= a.epoch
    }

    #[derive(Debug)]
    pub(super) struct Shadow {
        label: &'static str,
        state: Mutex<ShadowState>,
    }

    #[derive(Default)]
    struct ShadowState {
        last_write: Option<Access>,
        /// Reads since the last write, at most one per slot.
        reads: Vec<Access>,
    }

    impl std::fmt::Debug for ShadowState {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ShadowState").finish_non_exhaustive()
        }
    }

    impl Shadow {
        pub(super) fn new(label: &'static str) -> Self {
            Shadow { label, state: Mutex::new(ShadowState::default()) }
        }

        pub(super) fn on_access(&self, loc: &'static Location<'static>, kind: AccessKind) {
            with_thread(|t| {
                let mut st = lock(&self.state);
                let mut found: Option<RaceReport> = None;
                if let Some(w) = st.last_write {
                    if !ordered(&w, t) {
                        found = Some(report(
                            self.label,
                            if kind == AccessKind::Write { "write-write" } else { "write-read" },
                            &w,
                            loc,
                        ));
                    }
                }
                match kind {
                    AccessKind::Read => {
                        let me = Access { slot: t.slot, epoch: t.clock[t.slot], loc };
                        match st.reads.iter_mut().find(|r| r.slot == me.slot) {
                            Some(r) => *r = me,
                            None => st.reads.push(me),
                        }
                    }
                    AccessKind::Write => {
                        for r in &st.reads {
                            if r.slot != t.slot && !ordered(r, t) {
                                found = Some(report(self.label, "read-write", r, loc));
                            }
                        }
                        st.reads.clear();
                        st.last_write = Some(Access { slot: t.slot, epoch: t.clock[t.slot], loc });
                    }
                }
                drop(st);
                if let Some(r) = found {
                    deliver(r);
                }
            });
        }
    }

    // ---- reporting ------------------------------------------------------

    static PANIC_ON_RACE: AtomicBool = AtomicBool::new(true);
    static REPORTS: Mutex<Vec<RaceReport>> = Mutex::new(Vec::new());

    fn report(
        label: &'static str,
        kind: &'static str,
        prior: &Access,
        cur: &'static Location<'static>,
    ) -> RaceReport {
        RaceReport {
            label,
            kind,
            prior_site: prior.loc.to_string(),
            current_site: cur.to_string(),
        }
    }

    fn deliver(r: RaceReport) {
        lock(&REPORTS).push(r.clone());
        if PANIC_ON_RACE.load(Ordering::SeqCst) {
            // Fatal by design: a race report must fail the run loudly.
            // mlvc-lint: allow(no-panic-in-lib) -- race reports are fatal unless a fixture opts out via set_panic_on_race
            panic!("mlvc race-detect: {r}");
        }
    }

    /// Whether a detected race panics (default) or is only recorded for
    /// [`take_reports`]. Fixture tests flip this off.
    pub fn set_panic_on_race(yes: bool) {
        PANIC_ON_RACE.store(yes, Ordering::SeqCst);
    }

    /// Drain every race recorded so far.
    pub fn take_reports() -> Vec<RaceReport> {
        std::mem::take(&mut lock(&REPORTS))
    }

    // ---- schedule permutation -------------------------------------------

    static SCHEDULE_ON: AtomicBool = AtomicBool::new(false);
    static SCHEDULE_SEED: AtomicU64 = AtomicU64::new(0);
    static SPAWN_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Seed the spawn-order permutation (`None` restores program order).
    /// Each fan-out site draws a fresh permutation from `seed` and a
    /// per-process spawn sequence number, so one seed exercises different
    /// orders at every join point while staying reproducible.
    pub fn set_schedule_seed(seed: Option<u64>) {
        match seed {
            Some(s) => {
                SCHEDULE_SEED.store(s, Ordering::SeqCst);
                SPAWN_SEQ.store(0, Ordering::SeqCst);
                SCHEDULE_ON.store(true, Ordering::SeqCst);
            }
            None => SCHEDULE_ON.store(false, Ordering::SeqCst),
        }
    }

    fn splitmix(z: u64) -> u64 {
        let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The order in which a fan-out of `n` jobs should spawn: identity
    /// unless a schedule seed is set, else a seeded Fisher–Yates shuffle.
    pub fn spawn_order(n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        if n < 2 || !SCHEDULE_ON.load(Ordering::SeqCst) {
            return order;
        }
        let seed = SCHEDULE_SEED.load(Ordering::SeqCst);
        let seq = SPAWN_SEQ.fetch_add(1, Ordering::SeqCst);
        let mut s = splitmix(seed ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03));
        for i in (1..n).rev() {
            s = splitmix(s);
            let j = (s % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(all(test, feature = "race-detect"))]
mod tests {
    use super::*;

    /// The detector's own tests share process-global state (reports); keep
    /// them serialized and non-panicking.
    fn with_quiet_detector(f: impl FnOnce()) {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = match GATE.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        set_panic_on_race(false);
        let _ = take_reports();
        f();
        set_panic_on_race(true);
    }

    #[test]
    fn fork_join_orders_accesses() {
        with_quiet_detector(|| {
            let mut cell = Tracked::new("fj", 0u64);
            *cell.get_mut() = 1;
            crate::scope(|s| {
                let h = s.spawn(|| cell.get() + 1);
                assert_eq!(h.join().map_err(|_| "panic"), Ok(2));
            });
            *cell.get_mut() = 2;
            assert!(take_reports().is_empty(), "fork/join edges must order the accesses");
        });
    }

    #[test]
    fn unordered_writes_are_reported_with_both_sites() {
        with_quiet_detector(|| {
            let cell = Tracked::new("ww", ());
            crate::scope(|s| {
                let a = s.spawn(|| cell.audit_write());
                let b = s.spawn(|| cell.audit_write());
                let _ = a.join();
                let _ = b.join();
            });
            let reports = take_reports();
            assert_eq!(reports.len(), 1, "exactly one conflicting pair");
            let r = &reports[0];
            assert_eq!(r.label, "ww");
            assert_eq!(r.kind, "write-write");
            assert!(r.prior_site.contains("race.rs"), "prior site: {}", r.prior_site);
            assert!(r.current_site.contains("race.rs"), "current site: {}", r.current_site);
            assert_ne!(r.prior_site, r.current_site, "both distinct sites must be named");
        });
    }

    #[test]
    fn lock_edges_order_critical_sections() {
        with_quiet_detector(|| {
            let cell = Tracked::new("lk", ());
            let id = new_lock_id();
            crate::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            lock_acquire(id);
                            cell.audit_write();
                            lock_release(id);
                        })
                    })
                    .collect();
                for h in handles {
                    let _ = h.join();
                }
            });
            assert!(take_reports().is_empty(), "lock-ordered writes are not a race");
        });
    }

    #[test]
    fn schedule_seed_permutes_deterministically() {
        set_schedule_seed(Some(42));
        let a = spawn_order(8);
        set_schedule_seed(Some(42));
        let b = spawn_order(8);
        set_schedule_seed(None);
        assert_eq!(a, b, "same seed, same first permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "must be a permutation");
        assert_eq!(spawn_order(8), (0..8).collect::<Vec<_>>(), "off means identity");
    }
}
