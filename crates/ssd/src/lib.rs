//! # mlvc-ssd — page-granular SSD simulator
//!
//! Substrate used by every engine in the MultiLogVC reproduction. The paper
//! (Matam et al., IPDPS'21) runs on a real Samsung 860 EVO and performs all
//! I/O in 16 KB page units across multiple flash channels. Every performance
//! claim in the paper is, at its core, a statement about *how many SSD pages*
//! each engine touches and *how well those accesses parallelize across
//! channels*. This crate models exactly that:
//!
//! * storage is a set of named **files**, each a growable sequence of
//!   fixed-size **pages** (default 16 KB, the paper's access granularity);
//! * every page read/write is charged against a **cost model** — a per-page
//!   service time, pipelined across a configurable number of channels, with a
//!   discount for sequential runs on the same channel;
//! * **statistics** record pages/bytes moved and the caller-declared *useful*
//!   bytes of each read, from which read amplification (paper Fig. 3) is
//!   derived.
//!
//! Two backends are provided: an in-memory backend (default; deterministic
//! and fast for tests/benches) and a real file-backed backend (pages live in
//! ordinary files on disk) for out-of-core realism. The accounting is
//! identical for both, so experiment *shapes* do not depend on the backend.
//!
//! ```
//! use mlvc_ssd::{Page, Ssd, SsdConfig};
//!
//! let ssd = Ssd::new(SsdConfig::default());
//! let log = ssd.open_or_create("my.log").unwrap();
//! ssd.append_page(log, b"hello flash").unwrap();
//!
//! // Read it back, declaring how many bytes we actually need — the gap is
//! // the read amplification the paper's edge-log optimizer attacks. The
//! // read lends the page: an immutable `Page` handle that derefs to its
//! // bytes, and a second read of the same page is the same allocation.
//! let page = ssd.read_page(log, 0, 11).unwrap();
//! assert_eq!(&page[..11], b"hello flash");
//! assert!(Page::ptr_eq(&page, &ssd.read_page(log, 0, 11).unwrap()));
//! let stats = ssd.stats().snapshot();
//! assert_eq!(stats.pages_read, 2);
//! assert!(stats.read_amplification().unwrap() > 1000.0); // 11 B of 16 KiB
//! ```
//!
//! Every device operation returns a typed [`DeviceError`] `Result`; a
//! seeded [`FaultPlan`] can deterministically crash the device after N
//! page writes (tearing the in-flight page) or inject transient read
//! faults — the substrate of the `mlvc-recover` crash-point sweep.

mod cache;
pub mod checked;
mod config;
mod cost;
mod device;
mod fault;
mod ftl;
mod page;
mod queue;
mod stats;
pub mod sync;

pub use cache::{CacheSnapshot, PageCache, TenantCacheStats, TenantId};
pub use config::SsdConfig;
pub use cost::{batch_time_ns, channel_of, PageAddr};
pub use device::{Backend, FileId, Ssd};
pub use fault::{DeviceError, FaultCounters, FaultPlan};
pub use ftl::{FtlConfig, FtlError, FtlModel, FtlOp, FtlStats, Lpa};
pub use page::Page;
pub use queue::{IoQueue, QueueWaitStats, Ticket};
pub use stats::{RelaxedCounter, SsdStats, SsdStatsSnapshot};

/// Default SSD page size used throughout the reproduction (bytes).
///
/// The paper performs all accesses in 16 KB granularity: "we perform all the
/// IO accesses in granularities of 16KB, typical SSD page size" (§VI).
pub const DEFAULT_PAGE_SIZE: usize = 16 * 1024;

/// Default number of flash channels the device exposes.
///
/// The paper exploits "SSD's capability for providing parallel writes to
/// multiple channels" (§I) and stripes each log across all channels (§V-A3).
/// Four channels at the default service times give ~530 MB/s reads and
/// ~270 MB/s sustained writes — the SATA-class envelope of the paper's
/// Samsung 860 EVO.
pub const DEFAULT_CHANNELS: usize = 4;
