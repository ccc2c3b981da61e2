//! Crash-consistency checkpointing of one drive (DESIGN.md §11): the
//! checkpoint manager, its cadence, and the resume-point lookup.

use std::sync::Arc;

use mlvc_graph::VertexId;
use mlvc_log::MultiLog;
use mlvc_recover::{CheckpointManager, CheckpointState};
use mlvc_ssd::{DeviceError, Ssd};

pub(crate) struct Checkpointer {
    mgr: CheckpointManager,
    every: usize,
}

impl Checkpointer {
    /// `None` when the run does not checkpoint.
    pub(crate) fn open(
        ssd: &Arc<Ssd>,
        tag: &str,
        every: Option<usize>,
    ) -> Result<Option<Checkpointer>, DeviceError> {
        every
            .map(|every| Ok(Checkpointer { mgr: CheckpointManager::open(ssd, tag)?, every }))
            .transpose()
    }

    /// Write a checkpoint if `superstep` is on the cadence; returns whether
    /// one was written. Called after the log sides flipped, so the snapshot
    /// is exactly the pending input of `superstep + 1`.
    pub(crate) fn write_if_due(
        &mut self,
        superstep: usize,
        states: &[u64],
        all_active: bool,
        self_active: &[VertexId],
        multilog: &MultiLog,
    ) -> Result<bool, DeviceError> {
        if !superstep.is_multiple_of(self.every) {
            return Ok(false);
        }
        self.mgr.write(&CheckpointState {
            superstep: superstep as u64,
            all_active,
            states: states.to_vec(),
            active_bits: CheckpointState::bits_from_vertices(states.len(), self_active),
            msgs: multilog.snapshot_pending()?,
        })?;
        Ok(true)
    }
}

/// Latest checkpoint usable for a graph of `num_vertices`, if any. A
/// checkpoint whose vertex count does not match is ignored (it belongs to a
/// different run), not treated as corruption.
pub(crate) fn load_resume_point(
    ssd: &Arc<Ssd>,
    tag: &str,
    num_vertices: usize,
) -> Result<Option<CheckpointState>, DeviceError> {
    let mgr = CheckpointManager::open(ssd, tag)?;
    Ok(mgr
        .load_latest()?
        .map(|(_, cp)| cp)
        .filter(|cp| cp.states.len() == num_vertices))
}
