//! # mlvc-log — the multi-log machinery of MultiLogVC
//!
//! This crate implements the paper's central contribution (§IV, §V):
//!
//! * [`Update`] — the logged message `<v_dest, m>` (destination, source,
//!   payload), and [`page`] — the one codec that lays such messages out
//!   on device pages in 10 to 16 bytes each;
//! * [`MultiLog`] — the **Multi-Log Update Unit** (§V-A): one log per
//!   vertex interval, page-sized top buffers in host memory, batched
//!   page-granular eviction striped across all SSD channels, and
//!   per-interval message counters used for interval fusing;
//! * [`plan_fusion`], [`BatchPlan`], [`group_by_dest`] — the **Sort & Group
//!   Unit** (§V-B): fuse consecutive interval logs while they fit in the
//!   sort budget, load them with full channel parallelism, sort **in
//!   memory** (the whole point: no external sort), and yield per-destination
//!   message groups; when the algorithm declares a `combine` reduction
//!   (§V-D) the groups are folded as the pages are decoded instead, one
//!   update per destination, and nothing is sorted at all;
//! * [`EdgeLogOptimizer`] — the **Edge-Log Optimizer** (§V-C): predicts
//!   next-superstep active vertices from the previous superstep's activity
//!   bit vector (the paper's N = 1), predicts inefficiently used
//!   column-index pages ([`is_inefficient`]) from the current superstep's
//!   page utilization, and copies the out-edges of
//!   predicted-active vertices on inefficient pages into a dense,
//!   sequential edge log that the next superstep reads instead of the CSR.
//!
//! Both units keep their logs as one crate-private type: a log is its file
//! and its pages in log order — on the device, held or buffered in host
//! memory — written during one superstep and read during the next, its
//! buffered tail carried across the boundary by a flip, unwritten.
//!
//! ```
//! use std::sync::Arc;
//! use mlvc_graph::VertexIntervals;
//! use mlvc_log::{group_by_dest, plan_fusion, MultiLog, MultiLogConfig, Update};
//! use mlvc_ssd::{Ssd, SsdConfig};
//!
//! let ssd = Arc::new(Ssd::new(SsdConfig::default()));
//! let intervals = VertexIntervals::uniform(1000, 8);
//! let mut mlog =
//!     MultiLog::new(Arc::clone(&ssd), intervals, MultiLogConfig::default(), "doc").unwrap();
//!
//! // SendUpdate(v_dest, m): messages route to the destination's interval log.
//! mlog.send(Update::new(17, 3, 42)).unwrap();
//! mlog.send(Update::new(900, 3, 7)).unwrap();
//! let counts = mlog.finish_superstep().unwrap();
//! assert_eq!(counts.iter().sum::<u64>(), 2);
//!
//! // Next superstep: fuse, then drain each fused range in three steps —
//! // plan the page reads (here none: both pages were carried in host
//! // memory, and the plan holds them), decode the fetched pages and the
//! // carried ones (sorted in memory; a
//! // pure function of plan and bytes, so the engine runs it on a worker
//! // while the owner keeps sending), consume the drained logs.
//! let mut seen = 0;
//! for range in plan_fusion(&counts, 1 << 20) {
//!     let plan = mlog.plan_reads(range);
//!     let pages = ssd.read_batch(&plan.reqs).unwrap();
//!     let batch = plan.decode(&pages).unwrap();
//!     mlog.consume(&plan, &batch).unwrap();
//!     for (dest, msgs) in group_by_dest(&batch.updates) {
//!         assert!(dest == 17 || dest == 900);
//!         seen += msgs.len();
//!     }
//! }
//! assert_eq!(seen, 2);
//! ```

mod bitset;
mod edgelog;
mod fusion;
mod multilog;
pub mod page;
mod pagelist;
mod update;

/// Checked width conversions shared across the format crates.
pub use mlvc_ssd::checked;

pub use bitset::BitSet;
pub use edgelog::{is_inefficient, EdgeLogOptimizer, EdgeLogStats, INEFFICIENCY_THRESHOLD_PCT};
pub use fusion::{group_by_dest, plan_fusion, FusedBatch};
pub use multilog::{BatchPlan, MultiLog, MultiLogConfig, MultiLogStats};
pub use page::{decode_log_page, pack_pages, LogPage, PageError, PageShape, ANY_DEST};
pub use update::{Update, UPDATE_BYTES};
