use std::fmt;

use mlvc_ssd::DeviceError;

/// Adaptive memory-tiering configuration (DESIGN.md §18): extra DRAM on
/// top of [`EngineConfig::memory_bytes`], spent as one budget on the
/// hottest intervals' pinned topology extents and on the log pages the
/// multi-log holds in host memory instead of writing them. Disabled by
/// default (both fields zero): the engine then holds nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TieringConfig {
    /// Part of the one budget: the engine spends the two fields' sum.
    pub cache_bytes: usize,
    /// Part of the one budget: the engine spends the two fields' sum. Drive
    /// entry arms retention with the whole budget; every superstep boundary
    /// pins what the held log tail leaves and re-arms retention with the
    /// rest.
    pub pin_budget_bytes: usize,
}

impl TieringConfig {
    /// The one budget the engine spends: the sum of the two fields (0 = no
    /// tiering).
    pub fn budget_bytes(&self) -> usize {
        self.cache_bytes.saturating_add(self.pin_budget_bytes)
    }
}

/// Simulated cost to apply one incoming message in `process`, nanoseconds.
pub const MSG_PROCESS_NS: u64 = 30;
/// Simulated cost to scan one adjacency entry, nanoseconds.
pub const EDGE_SCAN_NS: u64 = 2;
/// Simulated per-record cost of the in-memory sort & group pass,
/// nanoseconds.
pub const SORT_NS: u64 = 10;

/// Simulated compute time of `processed` sorted records, `delivered`
/// messages handed to `process`, and `scanned` adjacency entries — the one
/// compute model every engine charges. Storage access dominates in every
/// experiment of the paper (75–95% of execution time, Fig. 5c); these
/// constants put compute in that regime while keeping it non-zero so the
/// storage/compute split (Fig. 5c) is measurable.
pub fn compute_ns(processed: u64, delivered: u64, scanned: u64) -> u64 {
    processed * SORT_NS + delivered * MSG_PROCESS_NS + scanned * EDGE_SCAN_NS
}

/// Percent of [`EngineConfig::memory_bytes`] for the sort & group unit
/// (paper Fig. 4, X% = 75%).
pub const SORT_PCT: usize = 75;
/// Percent of the budget for multi-log page buffers (paper Fig. 4, A% = 5%).
pub const MULTILOG_PCT: usize = 5;
/// Percent of the budget for edge-log page buffers (paper Fig. 4, B% = 5%).
pub const EDGELOG_PCT: usize = 5;

/// Engine configuration: what a caller chooses about a run. The paper's
/// memory layout (Fig. 4) is fixed — the budget splits into the sort &
/// group area ([`SORT_PCT`]), the multi-log buffer ([`MULTILOG_PCT`]) and
/// the edge-log buffer ([`EDGELOG_PCT`]) — and so are the compute model
/// ([`compute_ns`]) and the I/O queue's shape (DESIGN.md §12).
///
/// The paper's default budget is 1 GB against ≤100 GB graphs; the
/// reproduction default is 16 MiB against the scaled-down datasets,
/// preserving the graph:memory ratio (DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Total host memory budget in bytes.
    pub memory_bytes: usize,
    /// Enable the edge-log optimizer (§V-C). Off = ablation baseline.
    pub enable_edge_log: bool,
    /// Asynchronous computation model (§V-F): updates logged earlier in
    /// the *current* superstep are delivered to intervals processed later
    /// in the same superstep. Valid for monotone / accumulative algorithms
    /// (BFS, WCC, SSSP, delta-PageRank); phase-structured ones (MIS,
    /// coloring rounds) require the default synchronous model.
    pub async_mode: bool,
    /// Write a crash-consistent checkpoint every `k` supersteps (`None`
    /// disables checkpointing). See `mlvc-recover` and DESIGN.md §11.
    pub checkpoint_every: Option<usize>,
    /// Seed for deterministic per-vertex randomness.
    pub seed: u64,
    /// Job tag naming this run's on-device artifacts (multi-log extents,
    /// edge logs, checkpoint slots) and stamped into
    /// `RunReport::job_id`. The default `"mlvc"` preserves the historical
    /// file names (`mlvc resume` finds old checkpoints); the serving
    /// daemon gives each concurrent job a unique tag so runs sharing one
    /// device never collide.
    pub tag: String,
    /// Adaptive memory tiering (DESIGN.md §18): hot-interval pinning and
    /// log-tail retention under one budget. Disabled by default.
    pub tiering: TieringConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            memory_bytes: 16 << 20,
            enable_edge_log: true,
            async_mode: false,
            checkpoint_every: None,
            seed: 0xC0FFEE,
            tag: "mlvc".to_string(),
            tiering: TieringConfig::default(),
        }
    }
}

impl EngineConfig {
    pub fn with_memory(mut self, bytes: usize) -> Self {
        self.memory_bytes = bytes;
        self
    }

    pub fn with_edge_log(mut self, enabled: bool) -> Self {
        self.enable_edge_log = enabled;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable the asynchronous computation model (§V-F).
    pub fn with_async(mut self, yes: bool) -> Self {
        self.async_mode = yes;
        self
    }

    /// Checkpoint every `k` supersteps (crash recovery, DESIGN.md §11).
    pub fn with_checkpoint_every(mut self, k: usize) -> Self {
        self.checkpoint_every = Some(k);
        self
    }

    /// Changes nothing: every run fills its trace and its metrics snapshot
    /// (`RunReport::obs`), and a caller that wants the `ftl_*` counters
    /// attaches an FTL to the device itself (`Ssd::enable_ftl`; DESIGN.md
    /// §13). Kept because the standalone `benchmark/` package, from when
    /// this toggled observability, still calls it.
    pub fn with_obs(self, _yes: bool) -> Self {
        self
    }

    /// Tag this run's on-device artifacts and its `RunReport::job_id`.
    pub fn with_tag(mut self, tag: &str) -> Self {
        self.tag = tag.to_string();
        self
    }

    /// Configure adaptive memory tiering (DESIGN.md §18).
    pub fn with_tiering(mut self, tiering: TieringConfig) -> Self {
        self.tiering = tiering;
        self
    }

    /// Bytes allocated to the sort & group unit.
    pub fn sort_budget(&self) -> usize {
        self.share(SORT_PCT)
    }

    /// Bytes allocated to multi-log page buffers.
    pub fn multilog_budget(&self) -> usize {
        self.share(MULTILOG_PCT)
    }

    /// Bytes allocated to edge-log page buffers.
    pub fn edgelog_budget(&self) -> usize {
        self.share(EDGELOG_PCT)
    }

    /// `⌊memory_bytes · pct / 100⌋`, with no product that can overflow.
    fn share(&self, pct: usize) -> usize {
        self.memory_bytes / 100 * pct + self.memory_bytes % 100 * pct / 100
    }

    /// Check every sizing rule the engines rely on. Every engine checks it
    /// where its run starts and ends an invalid one in
    /// `RunReport::interrupted`; a caller holding outside input may check
    /// first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.memory_bytes < 1 << 12 {
            return Err(ConfigError::BudgetTooSmall { memory_bytes: self.memory_bytes });
        }
        if self.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointCadence);
        }
        Ok(())
    }
}

/// A sizing rule [`EngineConfig::validate`] found broken, or a program the
/// engine cannot run on the graph it holds — refused where the run starts —
/// or a program output the engine's model cannot carry, which ends the run
/// in the superstep that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `memory_bytes` is below one 4 KiB page.
    BudgetTooSmall { memory_bytes: usize },
    /// `checkpoint_every` is `Some(0)`.
    ZeroCheckpointCadence,
    /// The program reads edge weights (`needs_weights()`) and the graph the
    /// engine runs on stores none.
    NeedsWeights { app: &'static str },
    /// The program asked `engine` for what its model cannot carry: a
    /// structural update on a baseline, or a GraphChi message sent to a
    /// vertex that is not an out-neighbour (its messages ride on edges).
    Unsupported { engine: &'static str, what: &'static str },
    /// A strict resume ([`crate::MultiLogEngine::resume`]) found the latest
    /// checkpoint under its tag taken of another `differs` — `"program"`
    /// or `"graph"` — than the run of `app` it was asked to continue.
    ForeignCheckpoint { app: &'static str, differs: &'static str },
}

impl ConfigError {
    /// Stable machine-readable code, carried into
    /// [`DeviceError::Config`] and from there onto `mlvc serve`'s `failed`
    /// line.
    pub fn code(&self) -> &'static str {
        match self {
            ConfigError::BudgetTooSmall { .. } => "budget-too-small",
            ConfigError::ZeroCheckpointCadence => "zero-checkpoint-cadence",
            ConfigError::NeedsWeights { .. } => "needs-weights",
            ConfigError::Unsupported { .. } => "unsupported",
            ConfigError::ForeignCheckpoint { .. } => "foreign-checkpoint",
        }
    }
}

/// How a refusal travels in [`crate::RunReport::interrupted`].
impl From<ConfigError> for DeviceError {
    fn from(e: ConfigError) -> Self {
        DeviceError::Config { code: e.code(), detail: e.to_string() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BudgetTooSmall { memory_bytes } => {
                write!(f, "budget unrealistically small ({memory_bytes} bytes, minimum 4096)")
            }
            ConfigError::ZeroCheckpointCadence => {
                f.write_str("checkpoint cadence must be at least 1 superstep")
            }
            ConfigError::NeedsWeights { app } => {
                write!(f, "{app} reads edge weights and the graph stores none")
            }
            ConfigError::Unsupported { engine, what } => {
                write!(f, "the {engine} engine does not support {what}")
            }
            ConfigError::ForeignCheckpoint { app, differs } => write!(
                f,
                "the latest checkpoint on this device was taken of another {differs}; \
                 a run of {app} on this graph does not resume it"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_split_matches_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.sort_budget(), (16 << 20) * 3 / 4);
        assert_eq!(c.multilog_budget(), (16 << 20) / 20);
        assert_eq!(c.edgelog_budget(), c.multilog_budget());
        // Each share is ⌊m · P / 100⌋ at any budget, the largest included.
        for m in [4096, 4099, 2_000_003, usize::MAX] {
            let c = EngineConfig::default().with_memory(m);
            let share = |pct: u128| usize::try_from(m as u128 * pct / 100).unwrap();
            let split = [c.sort_budget(), c.multilog_budget(), c.edgelog_budget()];
            assert_eq!(split, [share(75), share(5), share(5)], "{m}");
        }
    }

    #[test]
    fn budget_too_small_rejected() {
        let c = EngineConfig::default().with_memory(1 << 10);
        assert_eq!(c.validate(), Err(ConfigError::BudgetTooSmall { memory_bytes: 1 << 10 }));
        assert!(c.validate().unwrap_err().to_string().starts_with("budget unrealistically small"));
    }

    #[test]
    fn zero_checkpoint_cadence_rejected() {
        let c = EngineConfig::default().with_checkpoint_every(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroCheckpointCadence));
    }
}
