//! Live-mutation merges into a running engine (DESIGN.md §17): the merge
//! of an attached mutation log's pending batches, and what a merge at a
//! superstep boundary means for the drive in flight.

use mlvc_graph::StoredGraph;
use mlvc_mutate::{MergeOutcome, MutationError, MutationLog};
use mlvc_ssd::sync::Mutex;
use mlvc_ssd::DeviceError;

use crate::engine::Drive;
use crate::{Reconverge, RunReport, SuperstepStats};

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
        let Some(mlog) = self.mutations else {
            return Ok(false);
        };
        let Some(outcome) = merge_pending(mlog, self.graph, self.cfg.queue_depth)? else {
            return Ok(false);
        };
        st.mutations = outcome.stats;
        report.mutations.get_or_insert_with(Default::default).absorb(&outcome.stats);
        // The edge log caches pre-merge adjacency, and the pinned tier the
        // pre-merge CSR extents: drop what just changed.
        self.edgelog.invalidate(&outcome.delta.dirty);
        self.tiering.unmark_dirty(self.graph, &outcome.delta.dirty);
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
}
