//! The on-device mutation log and its crash-consistent CSR merge.
//!
//! Ingested batches are deduplicated, bucketed by the *source* vertex's
//! interval (the merge rewrites the source's CSR partition), and buffered
//! in memory as multi-log records — `dest = dst`, `src = src`, `data =
//! opcode`, laid out by the shared page codec (`mlvc_log::page`) with the
//! source kept — spilling whole interval buffers to `<tag>.mut.<i>` extents under memory
//! pressure with multi-log-style eviction accounting; a merge reads the rest in place.
//!
//! The merge follows the PR-2 data-before-manifest protocol (DESIGN.md
//! §11, §17): new interval extents are written to shadow files first, then
//! a manifest naming them commits the merge — one `mlvc_recover` commit
//! record ([`mlvc_recover::MERGE_RECORD`]) in two alternating slots — then
//! the primaries are rewritten and the consumed logs retired with an empty
//! manifest. A crash at any page write recovers to either
//! the pre-merge or the post-merge CSR — never a torn one — by replaying
//! the newest valid manifest. Batches are durable only once merged;
//! recovery discards unmerged log records and clients replay the batch,
//! which is safe because the upsert rule is idempotent.

use std::sync::Arc;

use mlvc_graph::checked::{idx, to_u32, to_u64, to_usize};
use mlvc_graph::{
    read_partition, write_partitions, IntervalId, PartitionWrite, StoredGraph, VertexId,
    VertexIntervals,
};
use mlvc_log::{decode_log_page, pack_pages, LogPage, PageShape, Update};
use mlvc_recover::{CommitSlots, MERGE_RECORD};
use mlvc_ssd::{DeviceError, FileId, Ssd};

use crate::batch::{dedup_last_wins, finish_dirty, upsert_adjacency, validate_range};
use crate::{EdgeMutation, MutationDelta, MutationError, MutationOp};

/// Opcode stored in an update record's payload.
const OP_ADD: u64 = 0;
const OP_REMOVE: u64 = 1;

/// Memory budget for buffered, not-yet-flushed mutation records.
#[derive(Debug, Clone, Copy)]
pub struct MutationConfig {
    pub buffer_bytes: usize,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig { buffer_bytes: 1 << 20 }
    }
}

/// Cumulative mutation-pipeline counters (per-merge snapshots ride along
/// in [`MergeOutcome`]; the engine folds them into `SuperstepStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Raw mutation requests accepted by `ingest`.
    pub ingested: u64,
    /// Requests dropped by last-op-wins deduplication within their batch.
    pub deduped: u64,
    /// Log pages flushed to the device (evictions and [`MutationLog::flush`]).
    pub log_pages_flushed: u64,
    /// Memory-pressure evictions (a whole interval buffer spilled).
    pub evictions: u64,
    /// Completed merges.
    pub merges: u64,
    /// Edges that actually appeared (effective additions).
    pub edges_added: u64,
    /// Edge pairs that actually disappeared (effective removals).
    pub edges_removed: u64,
    /// CSR interval partitions rewritten by merges.
    pub intervals_merged: u64,
    /// Distinct endpoints of effective changes.
    pub dirty_vertices: u64,
}

impl MutationStats {
    /// Fold another stats snapshot into this one (field-wise sum).
    pub fn absorb(&mut self, o: &MutationStats) {
        self.ingested += o.ingested;
        self.deduped += o.deduped;
        self.log_pages_flushed += o.log_pages_flushed;
        self.evictions += o.evictions;
        self.merges += o.merges;
        self.edges_added += o.edges_added;
        self.edges_removed += o.edges_removed;
        self.intervals_merged += o.intervals_merged;
        self.dirty_vertices += o.dirty_vertices;
    }
}

/// What one `ingest` call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records admitted to the log after in-batch deduplication.
    pub accepted: u64,
    /// Records the in-batch deduplication collapsed away.
    pub deduped: u64,
    /// Log pages spilled to the device by this call's evictions.
    pub pages_flushed: u64,
}

/// What one merge changed, plus its counter snapshot.
#[derive(Debug, Clone, Default)]
pub struct MergeOutcome {
    pub delta: MutationDelta,
    pub stats: MutationStats,
}

/// A merge manifest's body (layout: [`MERGE_RECORD`]): the new edge total
/// and (interval, new colidx entry count) per rewritten partition.
fn decode_manifest(body: &[u8]) -> Option<(u64, Vec<(IntervalId, u64)>)> {
    let total = u64::from_le_bytes(*body.first_chunk()?);
    let entries = body.get(MERGE_RECORD.fixed_bytes..)?.chunks_exact(MERGE_RECORD.entry_bytes);
    let entry = |e: &[u8]| {
        Some((u32::from_le_bytes(*e.first_chunk()?), u64::from_le_bytes(*e.last_chunk()?)))
    };
    Some((total, entries.map(entry).collect::<Option<_>>()?))
}

/// A commit-record error as the mutation pipeline reports it: an intact
/// manifest this build does not read — another version, or version 1's
/// layout — is corrupt mutation state, never a slot to skip (skipping a
/// committed, unretired merge would leave a half-installed CSR).
fn refused(e: DeviceError) -> MutationError {
    match e {
        DeviceError::Corrupt { what, detail } => {
            MutationError::Corrupt(format!("{what}: {detail}"))
        }
        other => MutationError::Device(other),
    }
}

/// A partition a merge rewrites: its interval, new row pointers and column
/// indices, and the edge count it replaces.
type Rewrite = (IntervalId, Vec<u64>, Vec<VertexId>, u64);

/// Write `rewrites` over the extents `files` names for each interval, in
/// one dispatch.
fn write_rewrites(
    ssd: &Ssd,
    num_vertices: usize,
    rewrites: &[Rewrite],
    files: impl Fn(IntervalId) -> (FileId, FileId),
) -> Result<(), DeviceError> {
    let parts: Vec<PartitionWrite> = rewrites
        .iter()
        .map(|(i, rowptr, colidx, _)| {
            let (rowptr_file, colidx_file) = files(*i);
            PartitionWrite { rowptr_file, colidx_file, rowptr, colidx, val: None }
        })
        .collect();
    write_partitions(ssd, num_vertices, &parts)
}

/// The per-interval mutation log over one device. Methods take `&mut
/// self`; concurrent front ends (the serving daemon, the engine hook)
/// share one behind `mlvc_ssd::sync::Mutex` with tight guard scopes.
pub struct MutationLog {
    ssd: Arc<Ssd>,
    intervals: VertexIntervals,
    /// In-memory per-interval record buffers (append order preserved).
    buffers: Vec<Vec<Update>>,
    /// Records already spilled to each interval's device log.
    device_records: Vec<u64>,
    buffered: usize,
    /// Flush threshold in records, derived from the config budget but at
    /// least one page so eviction always makes progress.
    cap_records: usize,
    log_files: Vec<FileId>,
    shadow_rowptr: Vec<FileId>,
    shadow_colidx: Vec<FileId>,
    /// The merge manifest's two commit slots.
    manifests: CommitSlots,
    stats: MutationStats,
}

impl MutationLog {
    /// Open (or create) the mutation log `tag` over `ssd`, scanning any
    /// surviving on-device state — pending log records from a previous
    /// process and the newest manifest sequence. Fresh tags scan nothing.
    ///
    /// `intervals` must be the partition of the graph the log will merge
    /// into; `merge` re-validates this against the graph it is handed.
    pub fn new(
        ssd: Arc<Ssd>,
        intervals: VertexIntervals,
        cfg: MutationConfig,
        tag: &str,
    ) -> Result<Self, MutationError> {
        // One page of the widest record shape the log writes.
        let page_cap = PageShape { wide_dest: true, has_src: true }.capacity(ssd.page_size());
        let cap_records = (cfg.buffer_bytes / mlvc_log::UPDATE_BYTES).max(page_cap);
        let n_iv = intervals.num_intervals();
        let mut log_files = Vec::with_capacity(n_iv);
        let mut shadow_rowptr = Vec::with_capacity(n_iv);
        let mut shadow_colidx = Vec::with_capacity(n_iv);
        for i in intervals.iter_ids() {
            log_files.push(ssd.open_or_create(&format!("{tag}.mut.{i}"))?);
            shadow_rowptr.push(ssd.open_or_create(&format!("{tag}.mut.shadow.rowptr.{i}"))?);
            shadow_colidx.push(ssd.open_or_create(&format!("{tag}.mut.shadow.colidx.{i}"))?);
        }
        let names = [format!("{tag}.mut.manifest.0"), format!("{tag}.mut.manifest.1")];
        let mut manifests = CommitSlots::open(&ssd, names, MERGE_RECORD)?;

        // Surviving log pages are only counted here, from their headers,
        // each file read in one batch; `merge` decodes (and validates)
        // them, `recover` discards them.
        let mut device_records = vec![0u64; n_iv];
        for (k, &f) in log_files.iter().enumerate() {
            for page in ssd.read_all(f, |_| ssd.page_size())? {
                device_records[k] += to_u64(LogPage::parse(&page).map_or(0, |p| p.len()));
            }
        }
        manifests.scan(|_, _, _| Ok(Some(()))).map_err(refused)?;

        Ok(MutationLog {
            ssd,
            buffers: vec![Vec::new(); n_iv],
            device_records,
            buffered: 0,
            cap_records,
            log_files,
            shadow_rowptr,
            shadow_colidx,
            manifests,
            intervals,
            stats: MutationStats::default(),
        })
    }

    /// The interval partition this log buckets by.
    pub fn intervals(&self) -> &VertexIntervals {
        &self.intervals
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> MutationStats {
        self.stats
    }

    /// Mutation records awaiting a merge (buffered + spilled).
    pub fn pending(&self) -> u64 {
        to_u64(self.buffered) + self.device_records.iter().sum::<u64>()
    }

    /// Admit a batch: validate endpoints, collapse it to one op per edge
    /// (last request wins), bucket the survivors by source interval, and
    /// spill the fullest buffers if the memory budget is exceeded.
    pub fn ingest(&mut self, batch: &[EdgeMutation]) -> Result<IngestStats, MutationError> {
        validate_range(batch, self.intervals.num_vertices())?;
        let deduped = dedup_last_wins(batch);
        let accepted = to_u64(deduped.len());
        let dropped = to_u64(batch.len() - deduped.len());
        self.stats.ingested += to_u64(batch.len());
        self.stats.deduped += dropped;
        for m in &deduped {
            let op = match m.op {
                MutationOp::Add => OP_ADD,
                MutationOp::Remove => OP_REMOVE,
            };
            let i = self.intervals.interval_of(m.src);
            self.buffers[idx(i)].push(Update::new(m.dst, m.src, op));
        }
        self.buffered += deduped.len();

        let mut pages_flushed = 0u64;
        while self.buffered > self.cap_records {
            // Fullest buffer first (ties: lowest interval id), spilled
            // whole: each spill frees the most records it can and packs
            // them into the fewest partial pages.
            let Some(i) = (0..self.buffers.len()).max_by_key(|&i| (self.buffers[i].len(), usize::MAX - i))
            else {
                break;
            };
            if self.buffers[i].is_empty() {
                break;
            }
            pages_flushed += self.flush_buffer(i)?;
            self.stats.evictions += 1;
        }
        Ok(IngestStats { accepted, deduped: dropped, pages_flushed })
    }

    /// Spill every buffered record to the device logs (no merge), for
    /// handing the device to another process: a merge reads its buffered
    /// records in place. Returns the page count written.
    pub fn flush(&mut self) -> Result<u64, MutationError> {
        let mut pages = 0u64;
        for i in 0..self.buffers.len() {
            pages += self.flush_buffer(i)?;
        }
        Ok(pages)
    }

    /// Spill interval `i`'s whole buffer to its device log, preserving
    /// append order. Returns the page count written.
    fn flush_buffer(&mut self, i: usize) -> Result<u64, MutationError> {
        if self.buffers[i].is_empty() {
            return Ok(0);
        }
        let records = std::mem::take(&mut self.buffers[i]);
        let pages = pack_pages(&records, self.ssd.page_size(), true, true);
        let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
        self.ssd.append_pages(self.log_files[i], &refs)?;
        self.buffered -= records.len();
        self.device_records[i] += to_u64(records.len());
        let flushed = to_u64(pages.len());
        self.stats.log_pages_flushed += flushed;
        Ok(flushed)
    }

    /// Merge every pending mutation into `graph`'s CSR partitions under
    /// the data-before-manifest protocol. Returns the effective delta.
    pub fn merge(&mut self, graph: &StoredGraph) -> Result<MergeOutcome, MutationError> {
        self.check_target(graph)?;
        if self.pending() == 0 {
            return Ok(MergeOutcome::default());
        }
        // Stage 1: each interval's records in ingest order — its spilled
        // pages read back and decoded, then its buffer read in place — so
        // last-op-wins over them reproduces the client's intent.
        let per_interval = self.drain_logs()?;
        let (delta, rewritten) = self.install(graph, &per_interval)?;
        // Stage 6: retire the consumed logs and seal.
        self.retire()?;
        self.seal(graph, delta, rewritten)
    }

    /// Commit mutations that never went through this log — the structural
    /// updates a running program made (paper §V-E) — into `graph` under the
    /// same protocol as [`Self::merge`]: `per_interval[i]` holds interval
    /// `i`'s mutations in the order they were made (last op per edge wins),
    /// each with its source inside the interval. Batches buffered or
    /// spilled by `ingest` are left exactly where they are.
    pub fn commit(
        &mut self,
        graph: &StoredGraph,
        per_interval: &[Vec<EdgeMutation>],
    ) -> Result<MergeOutcome, MutationError> {
        self.check_target(graph)?;
        if per_interval.len() != self.intervals.num_intervals() {
            return Err(MutationError::Corrupt(format!(
                "{} mutation lists for {} intervals",
                per_interval.len(),
                self.intervals.num_intervals()
            )));
        }
        for (i, muts) in self.intervals.iter_ids().zip(per_interval) {
            validate_range(muts, self.intervals.num_vertices())?;
            if let Some(m) = muts.iter().find(|m| !self.intervals.range(i).contains(&m.src)) {
                return Err(MutationError::Corrupt(format!(
                    "mutation of vertex {} handed to interval {i}",
                    m.src
                )));
            }
        }
        let (delta, rewritten) = self.install(graph, per_interval)?;
        self.seal(graph, delta, rewritten)
    }

    /// A merge target must be unweighted and partitioned like this log.
    fn check_target(&self, graph: &StoredGraph) -> Result<(), MutationError> {
        if graph.has_weights() {
            return Err(MutationError::WeightedUnsupported);
        }
        self.check_partition(graph)
    }

    fn check_partition(&self, graph: &StoredGraph) -> Result<(), MutationError> {
        if graph.intervals() != &self.intervals {
            return Err(MutationError::Corrupt(
                "graph interval partition does not match the mutation log".to_string(),
            ));
        }
        Ok(())
    }

    /// Every interval's pending records in ingest order: its spilled pages
    /// decoded, then its buffer (a spill takes a whole buffer).
    fn drain_logs(&self) -> Result<Vec<Vec<EdgeMutation>>, MutationError> {
        let page_size = self.ssd.page_size();
        let num_vertices = to_u32("vertex count", self.intervals.num_vertices())?;
        let mut per_interval: Vec<Vec<EdgeMutation>> = Vec::with_capacity(self.log_files.len());
        for (k, &f) in self.log_files.iter().enumerate() {
            let mut records = Vec::new();
            if self.device_records[k] > 0 {
                for page in &self.ssd.read_all(f, |_| page_size)? {
                    decode_log_page(page, &(0..num_vertices), &mut records)?;
                }
            }
            records.extend_from_slice(&self.buffers[k]);
            let mut muts = Vec::with_capacity(records.len());
            for u in records {
                let op = match u.data {
                    OP_ADD => MutationOp::Add,
                    OP_REMOVE => MutationOp::Remove,
                    other => {
                        return Err(MutationError::Corrupt(format!(
                            "bad mutation opcode {other} in interval {k} log"
                        )))
                    }
                };
                muts.push(EdgeMutation { src: u.src, dst: u.dest, op });
            }
            per_interval.push(muts);
        }
        Ok(per_interval)
    }

    /// Stages 2–5 of a merge — the only code that rewrites a stored CSR
    /// partition. Returns the effective delta and the number of partitions
    /// rewritten; [`Self::seal`] finishes the merge.
    fn install(
        &mut self,
        graph: &StoredGraph,
        per_interval: &[Vec<EdgeMutation>],
    ) -> Result<(MutationDelta, usize), MutationError> {
        // Stage 2: per affected interval (ascending), collapse to one op
        // per edge, read the partition, apply the upsert, and collect
        // rewrites. Intervals whose requests were all already satisfied
        // are skipped entirely.
        let mut delta = MutationDelta::default();
        let mut rewrites: Vec<Rewrite> = Vec::new();
        let n = self.intervals.num_vertices();
        for i in self.intervals.iter_ids() {
            let muts = dedup_last_wins(&per_interval[idx(i)]);
            if muts.is_empty() {
                continue;
            }
            let range = self.intervals.range(i);
            let n_local = self.intervals.len_of(i);
            let (rp, ci) = (graph.rowptr_file(i), graph.colidx_file(i));
            let (rowptr, colidx, _) = read_partition(&self.ssd, rp, ci, None, n_local, n)?;
            let old_edges = to_u64(colidx.len());

            let mut new_rowptr: Vec<u64> = Vec::with_capacity(n_local + 1);
            let mut new_colidx: Vec<VertexId> = Vec::with_capacity(colidx.len());
            new_rowptr.push(0);
            let mut changed = false;
            let mut k = 0usize;
            for v in range.clone() {
                let local = idx(v - range.start);
                let lo = to_usize("rowptr offset", rowptr[local])?;
                let hi = to_usize("rowptr offset", rowptr[local + 1])?;
                let old = &colidx[lo..hi];
                let ops_lo = k;
                while k < muts.len() && muts[k].src == v {
                    k += 1;
                }
                let ops = &muts[ops_lo..k];
                if ops.is_empty() {
                    new_colidx.extend_from_slice(old);
                } else {
                    let adds: Vec<VertexId> = ops
                        .iter()
                        .filter(|m| m.op == MutationOp::Add)
                        .map(|m| m.dst)
                        .collect();
                    let removes: Vec<VertexId> = ops
                        .iter()
                        .filter(|m| m.op == MutationOp::Remove)
                        .map(|m| m.dst)
                        .collect();
                    let (new_adj, eff_added, eff_removed) =
                        upsert_adjacency(old, &adds, &removes);
                    changed |= !eff_added.is_empty() || !eff_removed.is_empty();
                    delta.added.extend(eff_added.iter().map(|&d| (v, d)));
                    delta.removed.extend(eff_removed.iter().map(|&d| (v, d)));
                    new_colidx.extend_from_slice(&new_adj);
                }
                new_rowptr.push(to_u64(new_colidx.len()));
            }
            if changed {
                rewrites.push((i, new_rowptr, new_colidx, old_edges));
            }
        }
        finish_dirty(&mut delta);

        // Stages 3–5, chunked so each commit's manifest fits one page:
        // shadow extents first, then the manifest commit, then the
        // primary install from the in-memory copies (recovery re-reads
        // the shadows instead). Each stage is one write dispatch.
        let per_manifest = MERGE_RECORD.max_entries(self.ssd.page_size());
        let mut new_total = graph.num_edges();
        for chunk in rewrites.chunks(per_manifest.max(1)) {
            let shadows = |i: IntervalId| (self.shadow_rowptr[idx(i)], self.shadow_colidx[idx(i)]);
            write_rewrites(&self.ssd, n, chunk, shadows)?;
            let mut entries = Vec::with_capacity(chunk.len());
            for (i, _, new_colidx, old_edges) in chunk {
                new_total = new_total + to_u64(new_colidx.len()) - old_edges;
                entries.push((*i, to_u64(new_colidx.len())));
            }
            self.write_manifest(new_total, &entries)?;
            write_rewrites(&self.ssd, n, chunk, |i| (graph.rowptr_file(i), graph.colidx_file(i)))?;
            graph.set_num_edges(new_total);
        }
        Ok((delta, rewrites.len()))
    }

    /// Seal a merge with an empty manifest, so recovery knows it fully
    /// landed, and account it.
    fn seal(
        &mut self,
        graph: &StoredGraph,
        delta: MutationDelta,
        rewritten: usize,
    ) -> Result<MergeOutcome, MutationError> {
        self.write_manifest(graph.num_edges(), &[])?;
        let stats = MutationStats {
            merges: 1,
            edges_added: to_u64(delta.added.len()),
            edges_removed: to_u64(delta.removed.len()),
            intervals_merged: to_u64(rewritten),
            dirty_vertices: to_u64(delta.dirty.len()),
            ..MutationStats::default()
        };
        self.stats.absorb(&stats);
        Ok(MergeOutcome { delta, stats })
    }

    /// Bring the device back to a merge boundary after a crash: replay
    /// the newest CRC-valid manifest (re-installing its shadow extents —
    /// idempotent if the install already ran) and discard unmerged log
    /// records. Returns whether a committed merge was re-installed.
    ///
    /// Batches whose merge had not committed are dropped here by design;
    /// clients replay them, which the upsert rule makes a no-op for any
    /// part that did land.
    pub fn recover(&mut self, graph: &StoredGraph) -> Result<bool, MutationError> {
        self.check_partition(graph)?;
        let newest = self.manifests.scan(|_, _, body| Ok(decode_manifest(body)));
        let reinstalled = match newest.map_err(refused)? {
            Some((_, _, (new_num_edges, entries))) if !entries.is_empty() => {
                // Every shadow is read and checked before the one install
                // dispatch writes them over the primaries.
                let n = self.intervals.num_vertices();
                let mut shadows = Vec::with_capacity(entries.len());
                for &(i, n_colidx) in &entries {
                    if idx(i) >= self.intervals.num_intervals() {
                        return Err(MutationError::Corrupt(format!(
                            "manifest names interval {i} outside the partition"
                        )));
                    }
                    let (srp, sci) = (self.shadow_rowptr[idx(i)], self.shadow_colidx[idx(i)]);
                    let (rowptr, colidx, _) =
                        read_partition(&self.ssd, srp, sci, None, self.intervals.len_of(i), n)?;
                    if to_u64(colidx.len()) != n_colidx {
                        return Err(MutationError::Corrupt(format!(
                            "shadow of interval {i} holds {} edges, its manifest {n_colidx}",
                            colidx.len()
                        )));
                    }
                    shadows.push((i, rowptr, colidx, 0));
                }
                let primaries = |i| (graph.rowptr_file(i), graph.colidx_file(i));
                write_rewrites(&self.ssd, n, &shadows, primaries)?;
                graph.set_num_edges(new_num_edges);
                true
            }
            _ => false,
        };
        self.retire()?;
        if reinstalled {
            // Seal, so a second recovery does not replay the install.
            self.write_manifest(graph.num_edges(), &[])?;
        }
        Ok(reinstalled)
    }

    /// Drop every pending record, spilled or buffered.
    fn retire(&mut self) -> Result<(), MutationError> {
        for &f in &self.log_files {
            self.ssd.truncate(f)?;
        }
        self.device_records.fill(0);
        self.buffers.iter_mut().for_each(Vec::clear);
        self.buffered = 0;
        Ok(())
    }

    /// Encode a manifest body and commit it into the slot not holding the
    /// newest manifest.
    fn write_manifest(
        &mut self,
        new_num_edges: u64,
        entries: &[(IntervalId, u64)],
    ) -> Result<(), MutationError> {
        let mut body = Vec::with_capacity(
            MERGE_RECORD.fixed_bytes + entries.len() * MERGE_RECORD.entry_bytes,
        );
        body.extend_from_slice(&new_num_edges.to_le_bytes());
        body.extend_from_slice(&to_u32("manifest entry count", entries.len())?.to_le_bytes());
        for &(i, n) in entries {
            body.extend_from_slice(&i.to_le_bytes());
            body.extend_from_slice(&n.to_le_bytes());
        }
        self.manifests.commit(&body)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_to_csr;
    use mlvc_ssd::SsdConfig;

    fn setup(scale: u32) -> (Arc<Ssd>, StoredGraph) {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(scale, 4), 11);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(g.num_vertices(), 4);
        let sg = StoredGraph::store_with(&ssd, &g, "m", iv).unwrap();
        (ssd, sg)
    }

    fn log_for(sg: &StoredGraph) -> MutationLog {
        MutationLog::new(
            Arc::clone(sg.ssd()),
            sg.intervals().clone(),
            MutationConfig::default(),
            "m",
        )
        .unwrap()
    }

    #[test]
    fn merge_matches_in_memory_golden() {
        let (_ssd, sg) = setup(7);
        let base = sg.to_csr().unwrap();
        let batch = vec![
            EdgeMutation::add(1, 100),
            EdgeMutation::add(100, 1),
            EdgeMutation::remove(0, base.out_edges(0).first().copied().unwrap_or(0)),
            EdgeMutation::add(5, 5),
            EdgeMutation::remove(5, 5),
            EdgeMutation::add(5, 5),
        ];
        let (golden, golden_delta) = apply_to_csr(&base, &batch).unwrap();

        let mut log = log_for(&sg);
        log.ingest(&batch).unwrap();
        assert!(log.pending() > 0);
        let out = log.merge(&sg).unwrap();
        assert_eq!(log.pending(), 0);
        assert_eq!(out.delta, golden_delta);
        let merged = sg.to_csr().unwrap();
        assert_eq!(merged.row_ptr(), golden.row_ptr());
        assert_eq!(merged.col_idx(), golden.col_idx());
        assert_eq!(sg.num_edges(), to_u64(golden.num_edges()));
        // Replaying the same batch is a no-op merge.
        log.ingest(&batch).unwrap();
        let again = log.merge(&sg).unwrap();
        assert!(again.delta.is_empty());
        assert_eq!(again.stats.intervals_merged, 0);
        let replayed = sg.to_csr().unwrap();
        assert_eq!(replayed.col_idx(), golden.col_idx());
    }

    /// A batch that fits the buffer merges from host memory: no log page
    /// is written, before the merge or during it.
    #[test]
    fn a_buffered_batch_merges_without_writing_a_log_page() {
        let (ssd, sg) = setup(7);
        let base = sg.to_csr().unwrap();
        let batch = vec![EdgeMutation::add(2, 90), EdgeMutation::add(90, 2), EdgeMutation::remove(2, 90)];
        let (golden, _) = apply_to_csr(&base, &batch).unwrap();
        let mut log = log_for(&sg);
        let on_logs = |log: &MutationLog| log.log_files.iter().map(|&f| ssd.num_pages(f).unwrap()).sum::<u64>();
        log.ingest(&batch).unwrap();
        assert_eq!(on_logs(&log), 0);
        log.merge(&sg).unwrap();
        assert_eq!((log.stats().log_pages_flushed, on_logs(&log), log.pending()), (0, 0, 0));
        assert_eq!(sg.to_csr().unwrap(), golden);
    }

    #[test]
    fn eviction_spills_pages_and_merge_reads_them_back() {
        let (_ssd, sg) = setup(6);
        let base = sg.to_csr().unwrap();
        let mut log = MutationLog::new(
            Arc::clone(sg.ssd()),
            sg.intervals().clone(),
            MutationConfig { buffer_bytes: 1 }, // floor: one page of records
            "m",
        )
        .unwrap();
        let n = to_u32("n", base.num_vertices()).unwrap();
        let batch: Vec<EdgeMutation> =
            (0..n).map(|v| EdgeMutation::add(v, (v + 7) % n)).collect();
        let st = log.ingest(&batch).unwrap();
        assert!(st.pages_flushed > 0, "tiny budget must spill");
        assert!(log.stats().evictions > 0);
        let (golden, _) = apply_to_csr(&base, &batch).unwrap();
        log.merge(&sg).unwrap();
        assert_eq!(sg.to_csr().unwrap().col_idx(), golden.col_idx());
    }

    #[test]
    fn log_state_survives_reopen() {
        let (ssd, sg) = setup(6);
        let batch = vec![EdgeMutation::add(0, 3), EdgeMutation::add(1, 2)];
        {
            let mut log = MutationLog::new(
                Arc::clone(&ssd),
                sg.intervals().clone(),
                MutationConfig { buffer_bytes: 1 },
                "m",
            )
            .unwrap();
            log.ingest(&batch).unwrap();
            log.flush().unwrap();
            assert_eq!(log.buffered, 0, "flush spilled everything");
        }
        let mut reopened = log_for(&sg);
        assert_eq!(reopened.pending(), 2, "device records rediscovered");
        let base = sg.to_csr().unwrap();
        let (golden, _) = apply_to_csr(&base, &batch).unwrap();
        reopened.merge(&sg).unwrap();
        assert_eq!(sg.to_csr().unwrap().col_idx(), golden.col_idx());
    }

    #[test]
    fn commit_goes_beside_batched_client_mutations() {
        let (_ssd, sg) = setup(6);
        let base = sg.to_csr().unwrap();
        let n = to_u32("n", base.num_vertices()).unwrap();
        let mut log = log_for(&sg);
        // A client batch waits in the log...
        let batch = vec![EdgeMutation::add(0, 9), EdgeMutation::add(n - 1, 2)];
        log.ingest(&batch).unwrap();
        // ...while a program's own updates of interval 1 commit: made in
        // this order, so the last op on (src, 3) wins.
        let src = sg.intervals().start(1);
        let mut due = vec![Vec::new(); sg.intervals().num_intervals()];
        due[1] = vec![
            EdgeMutation::remove(src, 3),
            EdgeMutation::add(src, 3),
            EdgeMutation::add(src, 5),
        ];
        let out = log.commit(&sg, &due).unwrap();
        assert_eq!(log.pending(), 2, "the client batch is still pending");
        let (golden, golden_delta) = apply_to_csr(&base, &due[1]).unwrap();
        assert_eq!(out.delta, golden_delta);
        assert_eq!(sg.to_csr().unwrap().col_idx(), golden.col_idx());
        assert_eq!(sg.num_edges(), to_u64(golden.num_edges()));
        // The batch then merges as if nothing had happened in between.
        log.merge(&sg).unwrap();
        let (both, _) = apply_to_csr(&golden, &batch).unwrap();
        assert_eq!(sg.to_csr().unwrap().col_idx(), both.col_idx());

        // A list in the wrong interval's slot, or an endpoint outside the
        // graph, is refused before anything is read or written.
        due.swap(0, 1);
        assert!(matches!(log.commit(&sg, &due), Err(MutationError::Corrupt(_))));
        due[0] = vec![EdgeMutation::add(0, n)];
        assert!(matches!(log.commit(&sg, &due), Err(MutationError::OutOfRange { .. })));
        assert_eq!(sg.to_csr().unwrap().col_idx(), both.col_idx());
    }

    /// A symmetric ring of `n` vertices: every list holds two ids.
    fn ring(n: u32) -> mlvc_graph::Csr {
        let mut b = mlvc_graph::EdgeListBuilder::new(n as usize).symmetrize(true);
        (0..n).for_each(|v| b.push(v, (v + 1) % n));
        b.build()
    }

    /// A torn write zeroes a row-pointer page's tail behind its intact
    /// header: `[0, 2, 4, 6, 0, 0, …]`. The merge reads it through
    /// `read_partition` and refuses it as corrupt, where it once sliced
    /// `colidx[lo..hi]` with `lo > hi` and panicked.
    #[test]
    fn a_zeroed_rowptr_tail_fails_the_merge_not_the_process() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(64, 4);
        let sg = StoredGraph::store_with(&ssd, &ring(64), "m", iv).unwrap();
        let f = sg.rowptr_file(0);
        let mut bytes = ssd.read_page(f, 0, 0).unwrap().to_vec();
        bytes[mlvc_graph::page::HEADER_BYTES + 4..].fill(0);
        ssd.write_page(f, 0, &bytes).unwrap();
        let mut log = log_for(&sg);
        log.ingest(&[EdgeMutation::add(1, 40)]).unwrap();
        let err = log.merge(&sg).unwrap_err();
        assert!(matches!(err, MutationError::Device(DeviceError::Corrupt { .. })), "{err}");
    }

    /// A merge that grows interval 0's column-index extent from one page to
    /// two doubles the offsets it can hold, so its row pointers widen from 9
    /// bits to 10. Reads and `to_csr` equal the golden, and both merged
    /// extents are byte for byte what a cold store of the mutated graph
    /// writes — the promise of `write_partitions`' one layout.
    #[test]
    fn a_merge_that_widens_row_pointers_equals_a_cold_store() {
        use mlvc_graph::page::WIDTH_AT;
        let (base, iv) = (ring(64), VertexIntervals::uniform(64, 2));
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &base, "m", iv.clone()).unwrap();
        // Interval 0's colidx pages, and its row pointers' width.
        let shape = |sg: &StoredGraph| {
            let width = ssd.read_page(sg.rowptr_file(0), 0, 0).unwrap()[WIDTH_AT];
            (ssd.num_pages(sg.colidx_file(0)).unwrap(), width)
        };
        assert_eq!(shape(&sg), (1, 9));
        let batch: Vec<EdgeMutation> = (0..32)
            .flat_map(|v| (2..14).map(move |d| EdgeMutation::add(v, (v + d) % 64)))
            .collect();
        let (golden, _) = apply_to_csr(&base, &batch).unwrap();
        let mut log = log_for(&sg);
        log.ingest(&batch).unwrap();
        log.merge(&sg).unwrap();
        assert_eq!(shape(&sg), (2, 10));
        assert_eq!(sg.to_csr().unwrap(), golden);
        let all: Vec<VertexId> = (0..32).collect();
        let adj = mlvc_graph::GraphLoader::new().load_active(&sg, 0, &all, false, None).unwrap();
        for (k, &v) in all.iter().enumerate() {
            assert_eq!(adj.edges(k), golden.out_edges(v), "vertex {v}");
        }
        let cold_ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let cold = StoredGraph::store_with(&cold_ssd, &golden, "cold", iv.clone()).unwrap();
        for i in iv.iter_ids() {
            for (merged, fresh) in
                [(sg.rowptr_file(i), cold.rowptr_file(i)), (sg.colidx_file(i), cold.colidx_file(i))]
            {
                let pages = |ssd: &Ssd, f| ssd.read_all(f, |_| 0).unwrap();
                assert_eq!(pages(&ssd, merged), pages(&cold_ssd, fresh), "interval {i}");
            }
        }
    }

    #[test]
    fn weighted_graphs_are_rejected() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = mlvc_graph::EdgeListBuilder::new(4);
        b.push_weighted(0, 1, 2.0);
        b.push_weighted(1, 2, 3.0);
        let g = b.build();
        let iv = VertexIntervals::uniform(4, 2);
        let sg = StoredGraph::store_with(&ssd, &g, "w", iv).unwrap();
        let mut log = log_for(&sg);
        log.ingest(&[EdgeMutation::add(2, 3)]).unwrap();
        assert_eq!(log.merge(&sg).unwrap_err(), MutationError::WeightedUnsupported);
    }

    #[test]
    fn out_of_range_batch_is_rejected_before_logging() {
        let (_ssd, sg) = setup(6);
        let mut log = log_for(&sg);
        let err = log.ingest(&[EdgeMutation::add(0, u32::MAX)]).unwrap_err();
        assert!(matches!(err, MutationError::OutOfRange { .. }));
        assert_eq!(log.pending(), 0);
    }
}
