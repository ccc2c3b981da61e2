//! Deterministic, seeded fault injection for the simulated device.
//!
//! The recovery subsystem (`mlvc-recover`) needs crashes it can replay: a
//! crash point must be a pure function of the fault plan, never of host
//! time or scheduling. A [`FaultPlan`] therefore describes faults in terms
//! of the device's own operation counters:
//!
//! * **Crash after N page writes** — the Nth successful page write is
//!   *torn*: only a seed-derived prefix of the payload reaches the media
//!   (the rest of the page reads back as zeroes), after which the device
//!   enters a crashed state where every operation fails with
//!   [`DeviceError::Crashed`] until [`crate::Ssd::revive`] is called. This
//!   models power loss mid-program: flash pages are not atomically
//!   written, so the page being programmed at the instant of the crash is
//!   garbage while everything before it is durable.
//! * **Transient read faults** — every `period`-th page read raises a
//!   streak of read failures. The device retries internally up to a
//!   bounded retry count, charging one extra page-read service time per
//!   retry on the virtual clock; a streak that outlasts the bound surfaces
//!   as [`DeviceError::ReadUnavailable`]. This models the recoverable
//!   (ECC retry / read-retry voltage shift) and unrecoverable flavors of
//!   flash read errors.
//!
//! Everything is driven by counters and a splitmix64 hash of the plan
//! seed, so replaying the same plan against the same workload produces the
//! same torn byte count at the same page — the property the crash-point
//! sweep in `tests/crash_recovery.rs` is built on.

use crate::checked::mem_idx;
use crate::device::FileId;
use crate::ftl::FtlError;

/// Typed failure of a simulated-device operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The device crashed (fault-plan trigger). Every subsequent operation
    /// fails with this error until [`crate::Ssd::revive`].
    Crashed,
    /// A transient read fault outlasted the device's internal retry bound.
    ReadUnavailable { file: FileId, page: u64, retries: u32 },
    /// Page index beyond the end of the file.
    OutOfBounds { file: FileId, page: u64 },
    /// Operation on a deleted file id.
    Deleted { file: FileId },
    /// A write's payload, or the useful bytes a read declares, longer than
    /// the device page size.
    PayloadTooLarge { len: usize, page_size: usize },
    /// Host filesystem failure in the file-backed store.
    Io(String),
    /// Stored bytes failed validation when decoded: a log page whose
    /// header or records cannot be what the writer produced (a flipped
    /// bit), or an intact checkpoint of a format version this build does
    /// not read. `what` names the format, `detail` the failed check.
    Corrupt { what: &'static str, detail: String },
    /// The live FTL model ran out of physical blocks under this page write:
    /// the device is sized below what the workload keeps live.
    Full(FtlError),
    /// A run was refused where it starts, before any I/O: the program and
    /// the engine's configuration or graph cannot go together. `code` is
    /// the refusing error's stable code (`mlvc_core::ConfigError::code`).
    Config { code: &'static str, detail: String },
}

impl DeviceError {
    /// Stable machine-readable code of the failure, for replies a client
    /// branches on (`mlvc serve`'s `failed` line).
    pub fn code(&self) -> &'static str {
        match self {
            DeviceError::Crashed => "device-crashed",
            DeviceError::ReadUnavailable { .. } => "read-unavailable",
            DeviceError::OutOfBounds { .. } => "out-of-bounds",
            DeviceError::Deleted { .. } => "file-deleted",
            DeviceError::PayloadTooLarge { .. } => "payload-too-large",
            DeviceError::Io(_) => "io",
            DeviceError::Corrupt { .. } => "corrupt",
            DeviceError::Full(_) => "device-full",
            DeviceError::Config { code, .. } => code,
        }
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Crashed => write!(f, "device crashed (fault injection)"),
            DeviceError::ReadUnavailable { file, page, retries } => write!(
                f,
                "page {page} of file {file} unreadable after {retries} retries"
            ),
            DeviceError::OutOfBounds { file, page } => {
                write!(f, "page {page} out of bounds in file {file}")
            }
            DeviceError::Deleted { file } => write!(f, "file {file} is deleted"),
            DeviceError::PayloadTooLarge { len, page_size } => {
                write!(f, "payload of {len} bytes exceeds the {page_size}-byte page")
            }
            DeviceError::Io(msg) => write!(f, "host I/O failure: {msg}"),
            DeviceError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            DeviceError::Full(e) => write!(f, "device full: {e}"),
            DeviceError::Config { detail, .. } => write!(f, "run refused: {detail}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A deterministic fault schedule. Install with
/// [`crate::Ssd::install_fault_plan`]; clear with [`crate::Ssd::revive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the torn-page split point (and any future randomized
    /// fault parameters). Same seed + same workload = same damage.
    pub seed: u64,
    /// Crash on the Nth page write counted from plan installation
    /// (1-based): that write is torn, later operations fail. `None`
    /// disables crashing.
    pub crash_after_writes: Option<u64>,
    /// Every Nth page read (counted from installation) raises a streak of
    /// transient faults. `None` disables read faults.
    pub read_fault_period: Option<u64>,
    /// Consecutive failures at each read-fault point.
    pub read_fault_streak: u32,
    /// Device-internal retry bound. A streak within the bound succeeds
    /// after charging that many extra page-read times; a longer streak
    /// surfaces as [`DeviceError::ReadUnavailable`].
    pub max_read_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            crash_after_writes: None,
            read_fault_period: None,
            read_fault_streak: 1,
            max_read_retries: 3,
        }
    }
}

impl FaultPlan {
    /// A plan that crashes the device on its `n`-th page write (1-based),
    /// tearing that page at a `seed`-derived byte offset.
    pub fn crash_after(n: u64, seed: u64) -> Self {
        FaultPlan { seed, crash_after_writes: Some(n), ..FaultPlan::default() }
    }

    /// Add transient read faults: every `period`-th page read fails
    /// `streak` consecutive times before (possibly) succeeding.
    pub fn with_read_faults(mut self, period: u64, streak: u32) -> Self {
        assert!(period >= 1, "read fault period must be at least 1");
        self.read_fault_period = Some(period);
        self.read_fault_streak = streak;
        self
    }

    /// Override the device-internal read retry bound.
    pub fn with_max_read_retries(mut self, n: u32) -> Self {
        self.max_read_retries = n;
        self
    }
}

/// Cumulative fault-activity counters (survive plan install/revive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Page writes observed by the fault layer (viable writes only:
    /// precondition failures are not counted).
    pub page_writes: u64,
    /// Page reads observed by the fault layer.
    pub page_reads: u64,
    /// Torn pages written at crash points.
    pub torn_writes: u64,
    /// Crashes triggered.
    pub crashes: u64,
    /// Transient read-fault points hit.
    pub transient_read_faults: u64,
    /// Extra page-read retries charged to the virtual clock.
    pub retries_charged: u64,
}

/// splitmix64: a tiny, high-quality mixer for deriving the torn-page
/// split point from (seed, write index) with no RNG state.
fn mix(v: u64) -> u64 {
    let mut x = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What the fault layer decided about one page write.
#[derive(Debug)]
pub(crate) enum WriteFate {
    /// Write the full payload.
    Proceed,
    /// Crash point: write only the first `keep` payload bytes (rest of the
    /// page is zeroes), then fail the operation with `Crashed`.
    Torn { keep: usize },
}

/// Per-device fault state, guarded by a mutex inside [`crate::Ssd`].
#[derive(Default)]
pub(crate) struct FaultState {
    plan: Option<FaultPlan>,
    crashed: bool,
    /// Page writes/reads since the current plan was installed.
    writes_since_install: u64,
    reads_since_install: u64,
    counters: FaultCounters,
}

impl FaultState {
    pub(crate) fn install(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
        self.writes_since_install = 0;
        self.reads_since_install = 0;
    }

    /// Clear the crashed flag *and* the plan, returning the device to
    /// fault-free operation (recovery entry point).
    pub(crate) fn revive(&mut self) {
        self.crashed = false;
        self.plan = None;
    }

    pub(crate) fn is_crashed(&self) -> bool {
        self.crashed
    }

    pub(crate) fn counters(&self) -> FaultCounters {
        self.counters
    }

    pub(crate) fn check_alive(&self) -> Result<(), DeviceError> {
        if self.crashed {
            Err(DeviceError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Account one viable page write and decide its fate.
    pub(crate) fn note_page_write(&mut self, page_size: usize) -> Result<WriteFate, DeviceError> {
        self.check_alive()?;
        self.counters.page_writes += 1;
        let Some(plan) = &self.plan else {
            return Ok(WriteFate::Proceed);
        };
        self.writes_since_install += 1;
        if plan.crash_after_writes == Some(self.writes_since_install) {
            self.crashed = true;
            self.counters.torn_writes += 1;
            self.counters.crashes += 1;
            let span = crate::checked::to_u64(page_size).max(1);
            let keep = mem_idx(mix(plan.seed ^ self.writes_since_install) % span);
            return Ok(WriteFate::Torn { keep });
        }
        Ok(WriteFate::Proceed)
    }

    /// Account one viable page read. `Ok(retries)` is the number of extra
    /// page-read service times to charge; `Err(retries)` means the fault
    /// streak outlasted the retry bound.
    pub(crate) fn note_page_read(&mut self) -> Result<u32, u32> {
        self.counters.page_reads += 1;
        let Some(plan) = &self.plan else {
            return Ok(0);
        };
        self.reads_since_install += 1;
        let Some(period) = plan.read_fault_period else {
            return Ok(0);
        };
        if period > 0 && self.reads_since_install.is_multiple_of(period) {
            self.counters.transient_read_faults += 1;
            if plan.read_fault_streak > plan.max_read_retries {
                return Err(plan.max_read_retries);
            }
            self.counters.retries_charged += u64::from(plan.read_fault_streak);
            return Ok(plan.read_fault_streak);
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_split_is_deterministic_and_in_range() {
        for n in 1..200u64 {
            let mut a = FaultState::default();
            a.install(FaultPlan::crash_after(n, 42));
            let mut b = FaultState::default();
            b.install(FaultPlan::crash_after(n, 42));
            for w in 1..=n {
                let fa = a.note_page_write(256).unwrap();
                let fb = b.note_page_write(256).unwrap();
                match (fa, fb) {
                    (WriteFate::Proceed, WriteFate::Proceed) => assert!(w < n),
                    (WriteFate::Torn { keep: ka }, WriteFate::Torn { keep: kb }) => {
                        assert_eq!(w, n);
                        assert_eq!(ka, kb, "same plan, same damage");
                        assert!(ka < 256);
                    }
                    _ => panic!("fates diverged at write {w}"),
                }
            }
            assert!(a.is_crashed());
            assert_eq!(a.note_page_write(256).unwrap_err(), DeviceError::Crashed);
        }
    }

    #[test]
    fn different_seeds_tear_differently_somewhere() {
        let keeps: Vec<usize> = (0..32u64)
            .map(|seed| {
                let mut s = FaultState::default();
                s.install(FaultPlan::crash_after(1, seed));
                match s.note_page_write(4096).unwrap() {
                    WriteFate::Torn { keep } => keep,
                    WriteFate::Proceed => panic!("expected crash"),
                }
            })
            .collect();
        assert!(keeps.windows(2).any(|w| w[0] != w[1]), "seed must matter");
    }

    #[test]
    fn read_faults_within_bound_charge_retries() {
        let mut s = FaultState::default();
        s.install(FaultPlan::default().with_read_faults(3, 2));
        assert_eq!(s.note_page_read(), Ok(0));
        assert_eq!(s.note_page_read(), Ok(0));
        assert_eq!(s.note_page_read(), Ok(2), "every 3rd read faults");
        assert_eq!(s.note_page_read(), Ok(0));
        assert_eq!(s.counters().transient_read_faults, 1);
        assert_eq!(s.counters().retries_charged, 2);
    }

    #[test]
    fn read_streak_beyond_bound_is_fatal() {
        let mut s = FaultState::default();
        s.install(FaultPlan::default().with_read_faults(1, 9).with_max_read_retries(3));
        assert_eq!(s.note_page_read(), Err(3));
    }

    #[test]
    fn revive_clears_crash_and_plan() {
        let mut s = FaultState::default();
        s.install(FaultPlan::crash_after(1, 7));
        let _ = s.note_page_write(128);
        assert!(s.is_crashed());
        s.revive();
        assert!(!s.is_crashed());
        assert!(s.plan.is_none());
        assert!(matches!(s.note_page_write(128), Ok(WriteFate::Proceed)));
    }
}
