//! CSR merges into a running engine, all through `mlvc-mutate`'s one
//! commit (DESIGN.md §17): the attached mutation log's pending client
//! batches, merged by `MultiLogEngine::reconverge` before its drive, and
//! the running program's own structural updates (paper §V-E), merged at
//! superstep close-out and drive end.

use std::sync::Arc;

use mlvc_graph::StoredGraph;
use mlvc_mutate::{MergeOutcome, MutationConfig, MutationError, MutationLog, MutationStats};
use mlvc_ssd::sync::Mutex;
use mlvc_ssd::DeviceError;

use crate::engine::Drive;
use crate::RunReport;

/// Pending structural updates per interval that make it due for a merge at
/// the superstep boundary (§V-E); below it they wait in the buffer, where
/// the loader sees them all the same.
pub(crate) const STRUCTURAL_MERGE_THRESHOLD: usize = 1024;

/// Merge whatever is pending on `mlog` into the stored CSR; `None` when
/// nothing was pending.
pub(crate) fn merge_pending(
    mlog: &Mutex<MutationLog>,
    graph: &StoredGraph,
) -> Result<Option<MergeOutcome>, DeviceError> {
    let mut guard = mlog.lock();
    if guard.pending() == 0 {
        return Ok(None);
    }
    guard.merge(graph).map(Some).map_err(MutationError::into_device_error)
}

impl Drive<'_> {
    /// Commit the structural updates of every interval holding at least
    /// `min_pending` of them (the threshold at a superstep boundary, 1 when
    /// the drive ends) through the attached log's committer, under its lock
    /// and beside whatever clients have batched on it — or through one
    /// opened under the run's tag on the first merge, so a program that
    /// never mutates creates no `<tag>.mut.*` extent. The program made
    /// these edits itself and already computes on them (the loader showed
    /// them from the moment they were pending), so there is nothing to
    /// reconverge. Counts the merge into `report`, drops what it changed
    /// from the edge log (it caches pre-merge adjacency) and the pinned
    /// tier (the pre-merge CSR extents), and returns its counters, zero
    /// when nothing was due.
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
            .commit(self.graph, &due)
            .map_err(MutationError::into_device_error)?;
        report.mutations.get_or_insert_with(Default::default).absorb(&outcome.stats);
        self.edgelog.invalidate(&outcome.delta.dirty);
        self.tiering.unmark_dirty(self.graph, &outcome.delta.dirty);
        Ok(outcome.stats)
    }
}
