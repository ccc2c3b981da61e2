//! # mlvc-recover — crash-consistent checkpoint/recovery
//!
//! Superstep checkpointing for the MultiLogVC engine. Every `k` supersteps
//! the engine hands a [`CheckpointState`] (vertex states, active-vertex
//! bitset, pending multi-log pages) to a [`CheckpointManager`], which
//! persists it through a shadow A/B slot protocol:
//!
//! 1. the data file of the *inactive* slot is truncated and rewritten with
//!    the page-aligned segments, then
//! 2. a single [`Manifest`] page — lengths, per-segment CRC-32s, and a
//!    header CRC — is written last as the commit point.
//!
//! A crash at any page write (including a torn final page, as produced by
//! `mlvc_ssd`'s deterministic fault injection) leaves the previous
//! checkpoint's slot untouched; recovery validates every CRC and falls
//! back to the older slot when the newer one is incomplete.
//!
//! The manifest is one format of the crate's crash-consistent commit
//! record ([`commit`]: magic, version, seq, body, CRC-32, written into two
//! alternating [`CommitSlots`]); `mlvc-mutate`'s merge manifest
//! ([`MERGE_RECORD`]) is the other.
//!
//! ```
//! use std::sync::Arc;
//! use mlvc_ssd::{Ssd, SsdConfig};
//! use mlvc_recover::{CheckpointManager, CheckpointState};
//!
//! let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
//! let mut mgr = CheckpointManager::open(&ssd, "run").unwrap();
//! let state = CheckpointState {
//!     superstep: 4,
//!     all_active: false,
//!     states: vec![1, 2, 3],
//!     active_bits: CheckpointState::bits_from_vertices(3, &[0, 2]),
//!     msgs: vec![],
//! };
//! let seq = mgr.write(&state).unwrap();
//! let (got_seq, got) = mgr.load_latest().unwrap().unwrap();
//! assert_eq!((got_seq, &got), (seq, &state));
//! ```

pub mod commit;
pub mod crc;
pub mod manager;
pub mod manifest;

pub use commit::{CommitSlots, RecordFormat, UnsupportedVersion, MERGE_RECORD};
pub use crc::{crc32, crc32_update};
pub use manager::{CheckpointManager, CheckpointState};
pub use manifest::{
    Manifest, RunIdentity, SegmentDesc, CKPT_MAGIC, CKPT_VERSION, MANIFEST_HEADER_BYTES,
    NUM_SEGMENTS, SEG_ACTIVE, SEG_MSGS, SEG_STATES,
};
