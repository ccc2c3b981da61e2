//! CSR merges into a running engine, all through `mlvc-mutate`'s one
//! commit (DESIGN.md §17): the attached mutation log's pending client
//! batches, the running program's own structural updates (paper §V-E), and
//! what either means for the drive in flight.

use std::sync::Arc;

use mlvc_graph::StoredGraph;
use mlvc_mutate::{MergeOutcome, MutationConfig, MutationError, MutationLog, MutationStats};
use mlvc_ssd::sync::Mutex;
use mlvc_ssd::DeviceError;

use crate::engine::Drive;
use crate::{Reconverge, RunReport, SuperstepStats};

/// Pending structural updates per interval that make it due for a merge at
/// the superstep boundary (§V-E); below it they wait in the buffer, where
/// the loader sees them all the same.
pub(crate) const STRUCTURAL_MERGE_THRESHOLD: usize = 1024;

/// Merge whatever is pending on `mlog` into the stored CSR; `None` when
/// nothing was pending.
pub(crate) fn merge_pending(
    mlog: &Mutex<MutationLog>,
    graph: &StoredGraph,
    queue_depth: usize,
) -> Result<Option<MergeOutcome>, DeviceError> {
    let mut guard = mlog.lock();
    if guard.pending() == 0 {
        return Ok(None);
    }
    guard.merge(graph, queue_depth).map(Some).map_err(MutationError::into_device_error)
}

impl Drive<'_> {
    /// Superstep-boundary merge: any edge batch pending on the attached
    /// mutation log lands here — after this superstep's processing read its
    /// adjacency, before the log sides flip. The program's reconverge
    /// policy decides what happens to the in-flight computation: `Seed`
    /// injects the delta's messages into the next superstep's inbox;
    /// `Restart` (returned as `true`) abandons this drive so the caller
    /// recomputes from scratch on the mutated graph. Merge I/O is charged
    /// to this superstep.
    pub(crate) fn merge_mutations(
        &mut self,
        st: &mut SuperstepStats,
        report: &mut RunReport,
    ) -> Result<bool, DeviceError> {
        let Some(mlog) = self.mutations.as_deref() else {
            return Ok(false);
        };
        let Some(outcome) = merge_pending(mlog, self.graph, self.cfg.queue_depth)? else {
            return Ok(false);
        };
        st.mutations.absorb(&self.landed(&outcome, report));
        match self.prog.reconverge(self.states, &outcome.delta) {
            Reconverge::Restart => Ok(true),
            Reconverge::Seed(seeds) => {
                for u in seeds {
                    self.multilog.send(u)?;
                }
                Ok(false)
            }
        }
    }

    /// Commit the structural updates of every interval holding at least
    /// `min_pending` of them (the threshold at a superstep boundary, 1 when
    /// the drive ends) through the attached log's committer, under its lock
    /// and beside whatever clients have batched on it — or through one
    /// opened under the run's tag on the first merge, so a program that
    /// never mutates creates no `<tag>.mut.*` extent. The program made
    /// these edits itself and already computes on them (the loader showed
    /// them from the moment they were pending), so there is nothing to
    /// reconverge. Returns the merge's counters, zero when nothing was due.
    pub(crate) fn merge_structural(
        &mut self,
        min_pending: usize,
        report: &mut RunReport,
    ) -> Result<MutationStats, DeviceError> {
        let due = self.structural.take(min_pending);
        if due.iter().all(Vec::is_empty) {
            return Ok(MutationStats::default());
        }
        let mlog = match &mut *self.mutations {
            Some(mlog) => mlog,
            unattached => unattached.insert(Arc::new(Mutex::new(
                MutationLog::new(
                    Arc::clone(self.ssd),
                    self.graph.intervals().clone(),
                    MutationConfig::default(),
                    &self.cfg.tag,
                )
                .map_err(MutationError::into_device_error)?,
            ))),
        };
        let outcome = mlog
            .lock()
            .commit(self.graph, self.cfg.queue_depth, &due)
            .map_err(MutationError::into_device_error)?;
        Ok(self.landed(&outcome, report))
    }

    /// The one route every merge outcome takes: counted into the report,
    /// and what just changed on the device dropped from the edge log (it
    /// caches pre-merge adjacency) and the pinned tier (the pre-merge CSR
    /// extents).
    fn landed(&mut self, outcome: &MergeOutcome, report: &mut RunReport) -> MutationStats {
        report.mutations.get_or_insert_with(Default::default).absorb(&outcome.stats);
        self.edgelog.invalidate(&outcome.delta.dirty);
        self.tiering.unmark_dirty(self.graph, &outcome.delta.dirty);
        outcome.stats
    }
}
