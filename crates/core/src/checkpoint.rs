//! Crash-consistency checkpointing of one drive (DESIGN.md §11): the
//! checkpoint manager, its cadence, and the resume-point lookup.

use std::sync::Arc;

use mlvc_graph::{StoredGraph, VertexId};
use mlvc_log::MultiLog;
use mlvc_recover::{CheckpointManager, CheckpointState, RunIdentity};
use mlvc_ssd::{DeviceError, Ssd};

use crate::{ConfigError, VertexProgram};

/// What a checkpoint of a run of `prog` on `graph` records it is of.
pub(crate) fn identity(prog: &dyn VertexProgram, graph: &StoredGraph) -> RunIdentity {
    RunIdentity::new(prog.name(), graph.fingerprint())
}

pub(crate) struct Checkpointer {
    mgr: CheckpointManager,
    every: usize,
}

impl Checkpointer {
    /// `None` when the run does not checkpoint. Writes through `opened`,
    /// the manager a resume already opened, or else opens one; every
    /// checkpoint records `identity`.
    pub(crate) fn open(
        ssd: &Arc<Ssd>,
        tag: &str,
        every: Option<usize>,
        opened: Option<CheckpointManager>,
        identity: RunIdentity,
    ) -> Result<Option<Checkpointer>, DeviceError> {
        let Some(every) = every else {
            return Ok(None);
        };
        let mut mgr = match opened {
            Some(mgr) => mgr,
            None => CheckpointManager::open(ssd, tag)?,
        };
        mgr.identify(identity);
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

/// What the latest checkpoint under a tag is to a run.
pub(crate) enum ResumePoint {
    /// None usable: no checkpoint, or one of another partition of the same
    /// graph (the intervals follow the sort budget, so a run at another
    /// memory size partitions it differently). The run starts fresh.
    Fresh,
    /// The run's own: resume from it.
    Own(CheckpointState),
    /// Another run's: taken of another program or another graph.
    Foreign(ConfigError),
}

/// Open the checkpoint slots under `tag` — they are read once, by the
/// opening scan — and return the manager with what the latest checkpoint
/// is to a run of `prog` on `graph`: one of another identity is
/// [`ResumePoint::Foreign`]; one of this identity whose vertex or interval
/// count does not match is another partition's, and not treated as
/// corruption.
pub(crate) fn load_resume_point(
    ssd: &Arc<Ssd>,
    tag: &str,
    graph: &StoredGraph,
    prog: &dyn VertexProgram,
) -> Result<(CheckpointManager, ResumePoint), DeviceError> {
    let mgr = CheckpointManager::open(ssd, tag)?;
    let wanted = identity(prog, graph);
    let point = match (mgr.load_latest()?, mgr.latest_identity()) {
        (Some(_), Some(of)) if *of != wanted => {
            let differs = if of.program() != wanted.program() { "program" } else { "graph" };
            ResumePoint::Foreign(ConfigError::ForeignCheckpoint { app: prog.name(), differs })
        }
        (Some((_, cp)), _)
            if cp.states.len() == graph.num_vertices()
                && cp.msgs.len() == graph.intervals().num_intervals() =>
        {
            ResumePoint::Own(cp)
        }
        _ => ResumePoint::Fresh,
    };
    Ok((mgr, point))
}
