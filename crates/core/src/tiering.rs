//! Adaptive memory tiering state of one drive (DESIGN.md §18): the page
//! cache attach, the hot-interval pinned set and the log-tail retention
//! ledger. The superstep loop calls in at fixed points — heat after the
//! loader's page-usage report, unmarks after a CSR rewrite, one retier per
//! boundary — and every input is plan-order data, so the pinned set (and
//! with it every cache counter) is identical for any thread count.

use std::collections::HashMap;
use std::sync::Arc;

use mlvc_graph::{IntervalId, PageUsage, StoredGraph, VertexId};
use mlvc_log::MultiLog;
use mlvc_ssd::{DeviceError, FileId, PageCache, Ssd};

use crate::TieringConfig;

/// Attach the configured page cache before any I/O so the whole run reads
/// through it. A cache already attached (the serving daemon's) always
/// wins — the engine never replaces or resizes an existing cache.
pub(crate) fn attach_cache(ssd: &Ssd, cfg: &TieringConfig) {
    if cfg.enabled() && ssd.cache().is_none() {
        ssd.attach_cache(Arc::new(PageCache::new(cfg.cache_pages(ssd.page_size()))));
    }
}

/// Hot-interval pinning state: per-interval topology heat accumulated from
/// the loader's page-usage reports, re-ranked at every superstep boundary
/// into a pinned set under the byte budget.
pub(crate) struct Tiering {
    /// The attached cache, `Some` only while pinning is on (a cache is
    /// attached and the pin budget is non-zero); every method below is a
    /// no-op otherwise.
    cache: Option<Arc<PageCache>>,
    budget_bytes: u64,
    heat: Vec<u64>,
    pinned_ivs: Vec<bool>,
    colidx_iv: HashMap<FileId, usize>,
    /// Bytes of pin budget handed to log-tail retention by the last arming
    /// (the drive-entry arm, then each retier); the difference against the
    /// device's unspent counter is the retained tail still pinned, which
    /// the next topology ranking must leave room for.
    log_armed: u64,
}

impl Tiering {
    /// Drive-entry reset: drop any pins an abandoned drive (mutation
    /// restart) left behind so cache state and bookkeeping start in
    /// lockstep — every drive ranks from scratch — then arm append
    /// retention with half the pin budget across both log sides. Nothing is
    /// pinned yet, so the seed messages and the first superstep's log tail
    /// can be retained without overdrawing the ledger; every boundary
    /// re-arms against what the topology ranking leaves unspent.
    pub(crate) fn enter(
        ssd: &Ssd,
        graph: &StoredGraph,
        cfg: &TieringConfig,
        multilog: &MultiLog,
    ) -> Tiering {
        let num_iv = graph.intervals().num_intervals();
        let budget_bytes = cfg.pin_budget_bytes as u64;
        let cache = ssd.cache().filter(|_| budget_bytes > 0);
        let mut colidx_iv = HashMap::new();
        match &cache {
            Some(c) => {
                for i in 0..num_iv {
                    c.unpin_file(graph.rowptr_file(i as IntervalId));
                    c.unpin_file(graph.colidx_file(i as IntervalId));
                    colidx_iv.insert(graph.colidx_file(i as IntervalId), i);
                }
                let log_files = multilog.all_log_files();
                for &f in &log_files {
                    c.unpin_file(f);
                }
                ssd.arm_append_retention(&log_files, budget_bytes / 2);
            }
            None => ssd.disarm_append_retention(),
        }
        Tiering {
            log_armed: if cache.is_some() { budget_bytes / 2 } else { 0 },
            cache,
            budget_bytes,
            heat: vec![0; num_iv],
            pinned_ivs: vec![false; num_iv],
            colidx_iv,
        }
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

    /// A merge (of client batches or of the program's own structural
    /// updates) rewrote CSR files only in intervals holding a dirty
    /// vertex — the device already dropped their pinned copies, so
    /// unmark them and let the next retier re-pin whatever still ranks.
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

    /// Superstep-boundary retier: adjust the pinned set to the accumulated
    /// heat ranking, then re-arm log-tail retention on the multi-log's
    /// write side (what the next superstep appends to) with what the
    /// ranking left unspent.
    ///
    /// The ranking greedily fits the hottest intervals' whole topology
    /// extents (row-pointer and column-index files) into the byte budget,
    /// hotter first, interval id as the deterministic tie-break. Intervals
    /// staying pinned are *not* re-pinned (no probe traffic, no counter
    /// inflation); ones falling out of the ranking are unpinned; newly
    /// ranked ones are pinned, their fills charged through the cache like
    /// any other read.
    ///
    /// The tail retained during this superstep is consumed (and its pins
    /// dropped) during the next one, so the ranking only gets what that
    /// tail leaves free; `left` then excludes both the still-draining tail
    /// and the pinned topology, so even at the worst instant — tail
    /// undrained, new side full — pinned bytes total exactly the budget.
    /// Appends are plan-order deterministic, so the retained set is too.
    pub(crate) fn retier(
        &mut self,
        ssd: &Ssd,
        graph: &StoredGraph,
        multilog: &MultiLog,
    ) -> Result<(), DeviceError> {
        let Some(cache) = self.cache.as_deref() else {
            return Ok(());
        };
        let files =
            |i: usize| (graph.rowptr_file(i as IntervalId), graph.colidx_file(i as IntervalId));
        let retained = self.log_armed.saturating_sub(ssd.append_retention_unspent().unwrap_or(0));
        let mut left = self.budget_bytes.saturating_sub(retained);
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
                cache.pin_file(ssd, rp)?;
                cache.pin_file(ssd, ci)?;
            } else {
                cache.unpin_file(rp);
                cache.unpin_file(ci);
            }
            *pinned = want[i];
        }
        ssd.arm_append_retention(&multilog.write_side_files(), left);
        self.log_armed = left;
        Ok(())
    }
}
