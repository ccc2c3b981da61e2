//! Adaptive memory tiering state of one drive (DESIGN.md §18): the
//! hot-interval pinned set — files whose pages the loader keeps as its own
//! reads return them ([`HeldPages`]) — and the one budget's split that arms
//! the multi-log's log-tail retention. One rule splits the budget,
//! [`Tiering::retier`], applied at every boundary: drive entry, with
//! nothing held and no heat, and the end of every superstep. The superstep
//! loop calls in at fixed points — heat after the loader's page-usage
//! report, unmarks after a CSR rewrite, one retier per boundary — and
//! every input is plan-order data, so the pinned set (and with it every
//! held-page counter) is identical for any thread count.

use std::collections::HashMap;

use mlvc_graph::{HeldPages, IntervalId, PageUsage, StoredGraph, VertexId};
use mlvc_log::MultiLog;
use mlvc_ssd::{DeviceError, FileId, Ssd};

use crate::TieringConfig;

/// Hot-interval pinning state: per-interval topology heat accumulated from
/// the loader's page-usage reports, re-ranked at every superstep boundary
/// into a pinned set under the byte budget. The pinned intervals' pages
/// are held by the loader ([`HeldPages`]); this state only says which.
pub(crate) struct Tiering {
    /// The one byte budget; 0 turns tiering off, and every method below is
    /// then a no-op.
    budget_bytes: u64,
    heat: Vec<u64>,
    pinned_ivs: Vec<bool>,
    colidx_iv: HashMap<FileId, usize>,
}

impl Tiering {
    /// Drive entry is a tiering boundary with nothing held and no heat (the
    /// drive's loader starts empty), so it applies [`Self::retier`]'s
    /// split. With no heat the ranking pins nothing, so the whole budget
    /// arms the multi-log's retention for the seed messages and superstep
    /// 1's log tail. A held log page saves a write and a read, a pinned
    /// topology page at most one read a superstep, so the budget goes to
    /// held pages while the log outgrows it; pins come in at the boundary
    /// where the held tail shrinks.
    pub(crate) fn enter(
        ssd: &Ssd,
        graph: &StoredGraph,
        cfg: &TieringConfig,
        multilog: &mut MultiLog,
        held: &mut HeldPages,
    ) -> Result<Tiering, DeviceError> {
        let num_iv = graph.intervals().num_intervals();
        let colidx_iv = (0..num_iv).map(|i| (graph.colidx_file(i as IntervalId), i)).collect();
        let mut tiering = Tiering {
            budget_bytes: cfg.budget_bytes() as u64,
            heat: vec![0; num_iv],
            pinned_ivs: vec![false; num_iv],
            colidx_iv,
        };
        tiering.retier(ssd, graph, multilog, held)?;
        Ok(tiering)
    }

    /// Topology heat: one unit per column-index page the loader actually
    /// touched this superstep, attributed to the page's interval.
    pub(crate) fn note_usage(&mut self, usage: &[PageUsage]) {
        if self.budget_bytes == 0 {
            return;
        }
        for u in usage {
            if let Some(&iv) = self.colidx_iv.get(&u.file) {
                self.heat[iv] += 1;
            }
        }
    }

    /// A merge of the program's own structural updates rewrote CSR files
    /// only in intervals holding a dirty vertex: drop those intervals'
    /// held pages and marks, and let the next retier re-mark whatever
    /// still ranks.
    pub(crate) fn unmark_dirty(
        &mut self,
        graph: &StoredGraph,
        dirty: &[VertexId],
        held: &mut HeldPages,
    ) {
        for &v in dirty {
            let i = graph.intervals().interval_of(v);
            if let Some(p) = self.pinned_ivs.get_mut(i as usize) {
                held.release(graph.rowptr_file(i));
                held.release(graph.colidx_file(i));
                *p = false;
            }
        }
    }

    /// Boundary retier — at drive entry and after every superstep: adjust
    /// the pinned set to the accumulated heat ranking, then re-arm the
    /// multi-log's retention (for what the next superstep appends) with
    /// what the ranking left unspent.
    ///
    /// The ranking greedily fits the hottest intervals' whole topology
    /// extents (row-pointer and column-index files) into the byte budget,
    /// hotter first, interval id as the deterministic tie-break. Intervals
    /// staying pinned are left alone; ones falling out of the ranking are
    /// released; newly ranked ones are *marked* ([`HeldPages::mark`]): the
    /// mark reads nothing at the boundary, and the loader keeps the pages as
    /// the load stage reads them, on the superstep's I/O queue. A ranked
    /// extent's bytes are reserved whole whether or not its pages have been
    /// read yet, so held topology bytes never exceed what the ranking spent.
    ///
    /// `retained_bytes` is what the multi-log holds in host memory under
    /// its retention budget right now — the tail the next superstep
    /// consumes — so the ranking only gets what that tail leaves free, and
    /// the new arming what the ranking leaves. Each consume returns the
    /// bytes its logs held to the multi-log's budget, so topology pins plus
    /// held log pages never exceed the budget at any instant, while the
    /// bytes the tail gives back as it drains can be held again in the same
    /// superstep. Flushes are plan-order deterministic, so the held set is
    /// too.
    pub(crate) fn retier(
        &mut self,
        ssd: &Ssd,
        graph: &StoredGraph,
        multilog: &mut MultiLog,
        held: &mut HeldPages,
    ) -> Result<(), DeviceError> {
        if self.budget_bytes == 0 {
            return Ok(());
        }
        let files =
            |i: usize| (graph.rowptr_file(i as IntervalId), graph.colidx_file(i as IntervalId));
        let mut left = self.budget_bytes.saturating_sub(multilog.retained_bytes());
        let mut order: Vec<usize> = (0..self.heat.len()).filter(|&i| self.heat[i] > 0).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.heat[i]), i));
        let mut want = vec![false; self.heat.len()];
        for &i in &order {
            let (rp, ci) = files(i);
            let bytes = (ssd.num_pages(rp)? + ssd.num_pages(ci)?) * ssd.page_size() as u64;
            if bytes > 0 && bytes <= left {
                want[i] = true;
                left -= bytes;
            }
        }
        for (i, pinned) in self.pinned_ivs.iter_mut().enumerate() {
            if want[i] == *pinned {
                continue;
            }
            let (rp, ci) = files(i);
            for f in [rp, ci] {
                if want[i] {
                    held.mark(f);
                } else {
                    held.release(f);
                }
            }
            *pinned = want[i];
        }
        multilog.arm_retention(left);
        Ok(())
    }
}
