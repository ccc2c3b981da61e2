//! # mlvc-log — the multi-log machinery of MultiLogVC
//!
//! This crate implements the paper's central contribution (§IV, §V):
//!
//! * [`Update`] — the logged message `<v_dest, m>` (destination, source,
//!   payload), and [`page`] — the one codec that lays such messages out
//!   on device pages in 10 to 16 bytes each;
//! * [`MultiLog`] — the **Multi-Log Update Unit** (§V-A): one log per
//!   vertex interval, page-sized top buffers in host memory, batched
//!   page-granular eviction striped across all SSD channels, and per-
//!   interval message counters used for interval fusing;
//! * [`SortGroup`] — the **Sort & Group Unit** (§V-B): fuses consecutive
//!   interval logs while they fit in the sort budget, loads them with full
//!   channel parallelism, sorts **in memory** (the whole point: no external
//!   sort), and yields per-destination message groups; when the algorithm
//!   declares a `combine` reduction (§V-D) the groups are folded as the
//!   pages are decoded instead, one update per destination, and nothing is
//!   sorted at all;
//! * [`EdgeLogOptimizer`] — the **Edge-Log Optimizer** (§V-C): predicts
//!   next-superstep active vertices from N supersteps of history bit
//!   vectors, predicts inefficiently used column-index pages from the
//!   current superstep's page utilization, and copies the out-edges of
//!   predicted-active vertices on inefficient pages into a dense,
//!   sequential edge log that the next superstep reads instead of the CSR.
//!
//! ```
//! use std::sync::Arc;
//! use mlvc_graph::VertexIntervals;
//! use mlvc_log::{group_by_dest, MultiLog, MultiLogConfig, SortGroup, Update};
//! use mlvc_ssd::{Ssd, SsdConfig};
//!
//! let ssd = Arc::new(Ssd::new(SsdConfig::default()));
//! let intervals = VertexIntervals::uniform(1000, 8);
//! let mut mlog = MultiLog::new(ssd, intervals, MultiLogConfig::default(), "doc").unwrap();
//!
//! // SendUpdate(v_dest, m): messages route to the destination's interval log.
//! mlog.send(Update::new(17, 3, 42)).unwrap();
//! mlog.send(Update::new(900, 3, 7)).unwrap();
//! let counts = mlog.finish_superstep().unwrap();
//! assert_eq!(counts.iter().sum::<u64>(), 2);
//!
//! // Next superstep: fuse, load, sort in memory, group by destination.
//! // The reader is a shared-nothing read-side handle, so workers can
//! // decode fetched batches while the owner keeps sending.
//! let sg = SortGroup::new(1 << 20);
//! let reader = mlog.reader();
//! let mut seen = 0;
//! for range in sg.plan(&counts) {
//!     let batch = sg.load_batch(&reader, range).unwrap();
//!     for (dest, msgs) in group_by_dest(&batch.updates) {
//!         assert!(dest == 17 || dest == 900);
//!         seen += msgs.len();
//!     }
//! }
//! assert_eq!(seen, 2);
//! ```

mod bitset;
mod edgelog;
mod multilog;
pub mod page;
mod sortgroup;
mod update;

/// Checked width conversions shared across the format crates.
pub use mlvc_ssd::checked;

pub use bitset::BitSet;
pub use edgelog::{EdgeLogConfig, EdgeLogOptimizer, EdgeLogStats};
pub use multilog::{BatchPlan, LogReader, MultiLog, MultiLogConfig, MultiLogStats};
pub use page::{decode_log_page, pack_pages, LogPage, PageError, PageShape, ANY_DEST};
pub use sortgroup::{group_by_dest, plan_fusion, FusedBatch, SortGroup};
pub use update::{Update, UPDATE_BYTES};
