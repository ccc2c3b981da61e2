//! The one experiment rig: settings → graph, intervals, device config and
//! engine config → a fresh simulated device with one of the three engines
//! on it.

use std::sync::Arc;

use mlvc_core::{EngineConfig, MultiLogEngine};
use mlvc_gen::Dataset;
use mlvc_grafboost::GrafBoostEngine;
use mlvc_graph::{Csr, StoredGraph, VertexIntervals};
use mlvc_graphchi::GraphChiEngine;
use mlvc_log::UPDATE_BYTES;
use mlvc_ssd::{Ssd, SsdConfig};

/// Experiment scaling knobs (see crate docs for the environment variables).
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub scale: u32,
    pub memory_bytes: usize,
    pub supersteps: usize,
    pub seed: u64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings { scale: 14, memory_bytes: 2 << 20, supersteps: 15, seed: 42 }
    }
}

impl Settings {
    pub fn from_env() -> Self {
        fn var<T: std::str::FromStr>(name: &str, default: T) -> T {
            match std::env::var(name) {
                Ok(v) => v.parse().unwrap_or_else(|_| panic!("{name}={v} is not a number")),
                Err(_) => default,
            }
        }
        let d = Settings::default();
        Settings {
            scale: var("MLVC_SCALE", d.scale),
            memory_bytes: var("MLVC_MEM_KB", d.memory_bytes >> 10) << 10,
            supersteps: var("MLVC_STEPS", d.supersteps),
            seed: var("MLVC_SEED", d.seed),
        }
    }

    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::default().with_memory(self.memory_bytes).with_seed(self.seed)
    }

    /// The com-friendster stand-in, the dataset of every single-graph section.
    pub fn cf(&self) -> Dataset {
        mlvc_gen::cf_mini(self.scale, self.seed)
    }

    /// The two evaluation datasets (Table I stand-ins).
    pub fn datasets(&self) -> Vec<Dataset> {
        vec![self.cf(), mlvc_gen::yws_mini(self.scale, self.seed)]
    }

    /// Interval partition shared by every engine (paper §V-A1 sizing).
    pub fn intervals(&self, graph: &Csr) -> VertexIntervals {
        VertexIntervals::for_graph(graph, UPDATE_BYTES, self.engine_config().sort_budget())
    }

    /// The rig at these settings: §V-A1 intervals, the default device.
    /// A section that varies one input overrides that field.
    pub fn rig<'g>(&self, graph: &'g Csr) -> Rig<'g> {
        Rig::new(graph, self.intervals(graph), SsdConfig::default(), self.engine_config())
    }
}

/// Everything an experiment run is a function of. Each terminal —
/// [`mlvc`](Rig::mlvc), [`graphchi`](Rig::graphchi),
/// [`grafboost`](Rig::grafboost) — ingests the graph onto a fresh device of
/// its own, zeroes the device statistics (setup I/O is not part of any
/// experiment) and returns the device with the engine on it.
#[derive(Debug, Clone)]
pub struct Rig<'g> {
    pub graph: &'g Csr,
    pub intervals: VertexIntervals,
    pub ssd: SsdConfig,
    pub engine: EngineConfig,
    /// Record the device's write/trim trace from the ingest on (the FTL
    /// replay's input).
    pub trace: bool,
}

impl<'g> Rig<'g> {
    pub fn new(
        graph: &'g Csr,
        intervals: VertexIntervals,
        ssd: SsdConfig,
        engine: EngineConfig,
    ) -> Rig<'g> {
        Rig { graph, intervals, ssd, engine, trace: false }
    }

    fn device(&self) -> Arc<Ssd> {
        let ssd = Arc::new(Ssd::new(self.ssd.clone()));
        if self.trace {
            ssd.enable_trace();
        }
        ssd
    }

    fn stored(&self) -> (Arc<Ssd>, StoredGraph) {
        let ssd = self.device();
        let sg = StoredGraph::store_with(&ssd, self.graph, "g", self.intervals.clone())
            .expect("CSR ingest on a fresh device");
        ssd.stats().reset();
        (ssd, sg)
    }

    pub fn mlvc(&self) -> (Arc<Ssd>, MultiLogEngine) {
        let (ssd, sg) = self.stored();
        (Arc::clone(&ssd), MultiLogEngine::new(ssd, sg, self.engine.clone()))
    }

    pub fn grafboost(&self) -> (Arc<Ssd>, GrafBoostEngine) {
        let (ssd, sg) = self.stored();
        (Arc::clone(&ssd), GrafBoostEngine::new(ssd, sg, self.engine.clone()))
    }

    pub fn graphchi(&self) -> (Arc<Ssd>, GraphChiEngine) {
        let ssd = self.device();
        let engine = GraphChiEngine::new(
            Arc::clone(&ssd),
            self.graph,
            self.intervals.clone(),
            self.engine.clone(),
        )
        .expect("shard ingest on a fresh device");
        ssd.stats().reset();
        (ssd, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_core::Engine;

    #[test]
    fn defaults_are_the_recorded_settings() {
        let s = Settings::default();
        assert_eq!((s.scale, s.supersteps, s.seed), (14, 15, 42));
        assert_eq!(s.engine_config().memory_bytes, 2 << 20);
    }

    #[test]
    fn the_three_terminals_agree_on_bfs_and_start_from_zeroed_stats() {
        let s = Settings { scale: 9, memory_bytes: 256 << 10, ..Default::default() };
        let g = mlvc_gen::cf_mini(9, 3).graph;
        let rig = s.rig(&g);
        let app = mlvc_apps::Bfs::new(0);
        let (da, mut a) = rig.mlvc();
        let (db, mut b) = rig.graphchi();
        let (dc, mut c) = rig.grafboost();
        for d in [&da, &db, &dc] {
            assert_eq!(d.stats().snapshot().pages_written, 0, "ingest is not measured");
        }
        a.run(&app, 50);
        b.run(&app, 50);
        c.run(&app, 50);
        assert_eq!(a.states(), b.states());
        assert_eq!(a.states(), c.states());
        assert!(da.stats().snapshot().pages_read > 0, "the returned device is the engine's");
    }
}
