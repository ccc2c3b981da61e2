//! Adaptive memory tiering state of one drive (DESIGN.md §18): the page
//! cache attach, the hot-interval pinned set — claims the load stage's own
//! reads fill — and the one budget's split that arms the multi-log's
//! log-tail retention. One rule splits the budget,
//! [`Tiering::retier`], applied at every boundary: drive entry, with
//! nothing held and no heat, and the end of every superstep. The superstep
//! loop calls in at fixed points — heat after the loader's page-usage
//! report, unmarks after a CSR rewrite, one retier per boundary — and
//! every input is plan-order data, so the pinned set (and with it every
//! cache counter) is identical for any thread count.

use std::collections::HashMap;
use std::sync::Arc;

use mlvc_graph::{IntervalId, PageUsage, StoredGraph, VertexId};
use mlvc_log::MultiLog;
use mlvc_ssd::{DeviceError, FileId, PageCache, Ssd};

use crate::TieringConfig;

/// Attach a cache of no frames, the pinned tier alone, before any I/O: the
/// claims need a cache to land in, not frames, so the whole budget goes to
/// [`Tiering`] and the tier's host DRAM is exactly its budget. A cache
/// already attached (the serving daemon's) always wins — the engine never
/// replaces or resizes an existing cache.
pub(crate) fn attach_cache(ssd: &Ssd, cfg: &TieringConfig) {
    if cfg.budget_bytes() > 0 && ssd.cache().is_none() {
        ssd.attach_cache(Arc::new(PageCache::new(0)));
    }
}

/// Hot-interval pinning state: per-interval topology heat accumulated from
/// the loader's page-usage reports, re-ranked at every superstep boundary
/// into a pinned set under the byte budget.
pub(crate) struct Tiering {
    /// The attached cache, `Some` only while pinning is on (a cache is
    /// attached and the budget is non-zero); every method below is a no-op
    /// otherwise.
    cache: Option<Arc<PageCache>>,
    budget_bytes: u64,
    heat: Vec<u64>,
    pinned_ivs: Vec<bool>,
    colidx_iv: HashMap<FileId, usize>,
}

impl Tiering {
    /// Drive entry is a tiering boundary with nothing held and no heat:
    /// drop any topology pins and claims an earlier drive on the same cache
    /// left behind, so cache state and bookkeeping start in lockstep, then
    /// apply [`Self::retier`]'s split. With no heat the ranking pins
    /// nothing, so the whole budget arms the multi-log's retention for
    /// the seed messages and superstep 1's log tail. A held log page saves
    /// a write and a read, a pinned topology page at most one read a
    /// superstep, so the budget goes to held pages while the log outgrows
    /// it; pins come in at the boundary where the held tail shrinks. (The
    /// multi-log holds its log pages itself, never in the cache, so they
    /// need no reset here.)
    pub(crate) fn enter(
        ssd: &Ssd,
        graph: &StoredGraph,
        cfg: &TieringConfig,
        multilog: &mut MultiLog,
    ) -> Result<Tiering, DeviceError> {
        let num_iv = graph.intervals().num_intervals();
        let budget_bytes = cfg.budget_bytes() as u64;
        let cache = ssd.cache().filter(|_| budget_bytes > 0);
        let mut colidx_iv = HashMap::new();
        if let Some(c) = &cache {
            for i in 0..num_iv {
                c.unclaim_file(graph.rowptr_file(i as IntervalId));
                c.unclaim_file(graph.colidx_file(i as IntervalId));
                colidx_iv.insert(graph.colidx_file(i as IntervalId), i);
            }
        }
        let mut tiering = Tiering {
            cache,
            budget_bytes,
            heat: vec![0; num_iv],
            pinned_ivs: vec![false; num_iv],
            colidx_iv,
        };
        tiering.retier(ssd, graph, multilog)?;
        Ok(tiering)
    }

    /// Topology heat: one unit per column-index page the loader actually
    /// touched this superstep, attributed to the page's interval.
    pub(crate) fn note_usage(&mut self, usage: &[PageUsage]) {
        if self.cache.is_none() {
            return;
        }
        for u in usage {
            if let Some(&iv) = self.colidx_iv.get(&u.file) {
                self.heat[iv] += 1;
            }
        }
    }

    /// A merge of the program's own structural updates rewrote CSR files
    /// only in intervals holding a dirty vertex — the rewrite's truncate
    /// already dropped their pinned copies and claims, so unmark them and
    /// let the next retier re-claim whatever still ranks.
    pub(crate) fn unmark_dirty(&mut self, graph: &StoredGraph, dirty: &[VertexId]) {
        if self.cache.is_none() {
            return;
        }
        for &v in dirty {
            if let Some(p) = self.pinned_ivs.get_mut(graph.intervals().interval_of(v) as usize) {
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
    /// unpinned; newly ranked ones are *claimed*
    /// ([`PageCache::claim_file`]): the claim reads nothing at the boundary,
    /// and the pages land pinned as the load stage reads them, on the
    /// superstep's I/O queue. A ranked extent's bytes are reserved whole
    /// whether or not its pages have landed yet, so pinned bytes never
    /// exceed what the ranking spent.
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
    ) -> Result<(), DeviceError> {
        let Some(cache) = self.cache.as_deref() else {
            return Ok(());
        };
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
            if want[i] {
                cache.claim_file(rp);
                cache.claim_file(ci);
            } else {
                cache.unclaim_file(rp);
                cache.unclaim_file(ci);
            }
            *pinned = want[i];
        }
        multilog.arm_retention(left);
        Ok(())
    }
}
