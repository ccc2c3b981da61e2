use std::fmt;

use mlvc_graph::VertexId;
use mlvc_ssd::checked::WidthError;
use mlvc_ssd::DeviceError;

/// Typed failures of the mutation pipeline. Ingest validation errors
/// (`OutOfRange`, `WeightedUnsupported`) are client mistakes and leave the
/// log untouched; `Device` and `Corrupt` surface storage trouble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// The underlying device failed (including injected crash faults).
    Device(DeviceError),
    /// An index exceeded the platform's addressable width.
    Width(WidthError),
    /// An edge endpoint is outside the stored graph's vertex range.
    OutOfRange { v: VertexId, num_vertices: usize },
    /// The stored graph carries edge weights; a mutation names no weight
    /// for an edge it adds and the merge rewrites no `val` extent, so
    /// weighted graphs are rejected up front — by `ingest`'s merge and by
    /// the engine for a program's own `add_edge` / `remove_edge`.
    WeightedUnsupported,
    /// On-device mutation state failed validation (bad opcode, interval
    /// mismatch, malformed manifest payload).
    Corrupt(String),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::Device(e) => write!(f, "device error: {e}"),
            MutationError::Width(e) => write!(f, "width error: {e}"),
            MutationError::OutOfRange { v, num_vertices } => {
                write!(f, "vertex {v} out of range (graph has {num_vertices} vertices)")
            }
            MutationError::WeightedUnsupported => {
                write!(f, "structural mutation of weighted graphs is unsupported")
            }
            MutationError::Corrupt(msg) => write!(f, "corrupt mutation state: {msg}"),
        }
    }
}

impl std::error::Error for MutationError {}

impl From<DeviceError> for MutationError {
    fn from(e: DeviceError) -> Self {
        MutationError::Device(e)
    }
}

impl From<WidthError> for MutationError {
    fn from(e: WidthError) -> Self {
        MutationError::Width(e)
    }
}

impl MutationError {
    /// Collapse into the engine's error type: device faults pass through
    /// (so crash recovery sees `DeviceError::Crashed` unchanged), the rest
    /// become descriptive I/O errors.
    pub fn into_device_error(self) -> DeviceError {
        match self {
            MutationError::Device(e) => e,
            other => DeviceError::Io(other.to_string()),
        }
    }
}
