//! # mlvc-io — graph ingestion and serialization
//!
//! The paper's datasets arrive as SNAP-style edge-list text files; this
//! crate provides the ingestion path a user of the framework needs:
//!
//! * [`read_edge_list`] / [`write_edge_list`] — whitespace-separated
//!   `src dst [weight]` text, `#`-comment lines tolerated (the SNAP
//!   convention), with configurable symmetrization/dedup on ingest;
//! * [`read_csr_binary`] / [`write_csr_binary`] — a compact versioned
//!   binary snapshot of a built [`Csr`](mlvc_graph::Csr) (magic, version, counts, raw
//!   little-endian vectors) for fast reload of preprocessed graphs.

mod edgelist;
mod snapshot;

pub use edgelist::{read_edge_list, write_edge_list, EdgeListOptions};
pub use snapshot::{read_csr_binary, write_csr_binary, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

use std::fmt;

/// Ingestion / serialization errors.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    /// Malformed content, with a line number when applicable.
    Parse { line: usize, msg: String },
    /// Binary snapshot problems (bad magic, version, truncation).
    Format(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IoError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}
