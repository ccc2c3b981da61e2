//! Crash-consistency checkpointing of one drive (DESIGN.md §11): the
//! checkpoint manager, its cadence, and the resume-point lookup.

use std::sync::Arc;

use mlvc_graph::{StoredGraph, VertexId};
use mlvc_log::MultiLog;
use mlvc_recover::{CheckpointManager, CheckpointState};
use mlvc_ssd::{DeviceError, Ssd};

pub(crate) struct Checkpointer {
    mgr: CheckpointManager,
    every: usize,
}

impl Checkpointer {
    /// `None` when the run does not checkpoint. Writes through `opened`,
    /// the manager a resume already opened, or else opens one.
    pub(crate) fn open(
        ssd: &Arc<Ssd>,
        tag: &str,
        every: Option<usize>,
        opened: Option<CheckpointManager>,
    ) -> Result<Option<Checkpointer>, DeviceError> {
        let Some(every) = every else {
            return Ok(None);
        };
        let mgr = match opened {
            Some(mgr) => mgr,
            None => CheckpointManager::open(ssd, tag)?,
        };
        Ok(Some(Checkpointer { mgr, every }))
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

/// Open the checkpoint slots under `tag` and return the manager with the
/// latest checkpoint usable for `graph`, if any — the slots are read once,
/// by the opening scan. A checkpoint whose vertex count or interval count
/// does not match is ignored (it belongs to a different run — the
/// intervals follow the sort budget, so a resume at another memory size
/// partitions the same graph differently), not treated as corruption.
pub(crate) fn load_resume_point(
    ssd: &Arc<Ssd>,
    tag: &str,
    graph: &StoredGraph,
) -> Result<(CheckpointManager, Option<CheckpointState>), DeviceError> {
    let mgr = CheckpointManager::open(ssd, tag)?;
    let resume = mgr.load_latest()?.map(|(_, cp)| cp).filter(|cp| {
        cp.states.len() == graph.num_vertices()
            && cp.msgs.len() == graph.intervals().num_intervals()
    });
    Ok((mgr, resume))
}
