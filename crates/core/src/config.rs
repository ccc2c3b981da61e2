use std::fmt;

use mlvc_ssd::DeviceError;

/// Adaptive memory-tiering configuration (DESIGN.md §18): a device-level
/// page cache plus a GraphMP-style pinned tier for topology-hot interval
/// extents. Disabled by default (both budgets zero) — the engine then
/// touches no cache at all and the historical I/O accounting is
/// unchanged. The two budgets are *additional* DRAM on top of
/// [`EngineConfig::memory_bytes`]: the tiering question is what to do
/// with spare memory beyond the paper's working-set budget.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TieringConfig {
    /// Byte budget of the shared page cache attached to the device
    /// (0 = no cache).
    pub cache_bytes: usize,
    /// Byte budget for pinning the hottest interval topology extents
    /// (0 = no pinning; requires `cache_bytes > 0` to take effect).
    pub pin_budget_bytes: usize,
}

impl TieringConfig {
    /// Whether the engine should attach a cache at all.
    pub fn enabled(&self) -> bool {
        self.cache_bytes > 0
    }

    /// Frame count for the configured cache budget (at least one frame).
    pub fn cache_pages(&self, page_size: usize) -> usize {
        (self.cache_bytes / page_size.max(1)).max(1)
    }
}

/// Simulated compute-time model. Storage access dominates in every
/// experiment of the paper (75–95% of execution time, Fig. 5c); these
/// constants put compute in that regime while keeping it non-zero so the
/// storage/compute split (Fig. 5c) is measurable.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost to apply one incoming message in `process`, nanoseconds.
    pub msg_process_ns: u64,
    /// Cost to scan one adjacency entry, nanoseconds.
    pub edge_scan_ns: u64,
    /// Per-record cost of the in-memory sort & group pass, nanoseconds.
    pub sort_ns: u64,
}

impl CostModel {
    /// Simulated compute time of `processed` sorted records, `delivered`
    /// messages handed to `process`, and `scanned` adjacency entries.
    pub fn compute_ns(&self, processed: u64, delivered: u64, scanned: u64) -> u64 {
        processed * self.sort_ns + delivered * self.msg_process_ns + scanned * self.edge_scan_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { msg_process_ns: 30, edge_scan_ns: 2, sort_ns: 10 }
    }
}

/// Engine configuration mirroring the paper's memory layout (Fig. 4):
/// a total host-memory budget split into the sort & group area (X%,
/// default 75%), the multi-log buffer (A%, default 5%), and the edge-log
/// buffer (B%, default 5%).
///
/// The paper's default budget is 1 GB against ≤100 GB graphs; the
/// reproduction default is 16 MiB against the scaled-down datasets,
/// preserving the graph:memory ratio (DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Total host memory budget in bytes.
    pub memory_bytes: usize,
    /// Fraction for the sort & group unit (paper X% = 0.75).
    pub sort_frac: f64,
    /// Fraction for multi-log page buffers (paper A% = 0.05).
    pub multilog_frac: f64,
    /// Fraction for edge-log page buffers (paper B% = 0.05).
    pub edgelog_frac: f64,
    /// Enable the edge-log optimizer (§V-C). Off = ablation baseline.
    pub enable_edge_log: bool,
    /// Asynchronous computation model (§V-F): updates logged earlier in
    /// the *current* superstep are delivered to intervals processed later
    /// in the same superstep. Valid for monotone / accumulative algorithms
    /// (BFS, WCC, SSSP, delta-PageRank); phase-structured ones (MIS,
    /// coloring rounds) require the default synchronous model.
    pub async_mode: bool,
    /// Per-channel depth of the submission/completion I/O queue the engine
    /// reads fused log batches through (DESIGN.md §12). Depth never changes
    /// *when* a request completes on the simulated channels, only when
    /// submission stalls — results are bit-identical at any depth; only
    /// `sim_time_ns` / `io_wait_ns` shift.
    pub queue_depth: usize,
    /// Fused log batches kept in flight on the I/O queue (K). The engine
    /// submits up to K batch reads ahead and drains completions strictly
    /// in plan order, so results are bit-identical at any K.
    pub inflight_batches: usize,
    /// Write a crash-consistent checkpoint every `k` supersteps (`None`
    /// disables checkpointing). See `mlvc-recover` and DESIGN.md §11.
    pub checkpoint_every: Option<usize>,
    /// Observability layer (DESIGN.md §13): attach a live FTL model to the
    /// device, record a deterministic per-superstep [`mlvc_obs::TraceRecord`]
    /// into `RunReport::trace`, and snapshot a
    /// metrics registry into `RunReport::obs`. Off by default — the
    /// disabled path costs nothing beyond one branch per superstep.
    pub obs: bool,
    /// Seed for deterministic per-vertex randomness.
    pub seed: u64,
    /// Job tag naming this run's on-device artifacts (multi-log extents,
    /// edge logs, checkpoint slots) and stamped into
    /// `RunReport::job_id`. The default `"mlvc"` preserves the historical
    /// file names (`mlvc resume` finds old checkpoints); the serving
    /// daemon gives each concurrent job a unique tag so runs sharing one
    /// device never collide.
    pub tag: String,
    /// Adaptive memory tiering (DESIGN.md §18): page cache + hot-interval
    /// pinning. Disabled by default.
    pub tiering: TieringConfig,
    pub cost: CostModel,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            memory_bytes: 16 << 20,
            sort_frac: 0.75,
            multilog_frac: 0.05,
            edgelog_frac: 0.05,
            enable_edge_log: true,
            async_mode: false,
            queue_depth: 16,
            inflight_batches: 4,
            checkpoint_every: None,
            obs: false,
            seed: 0xC0FFEE,
            tag: "mlvc".to_string(),
            tiering: TieringConfig::default(),
            cost: CostModel::default(),
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

    /// Per-channel I/O queue depth for batch reads (DESIGN.md §12).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Number of fused batches kept in flight on the I/O queue (K).
    pub fn with_inflight_batches(mut self, k: usize) -> Self {
        self.inflight_batches = k;
        self
    }

    /// Checkpoint every `k` supersteps (crash recovery, DESIGN.md §11).
    pub fn with_checkpoint_every(mut self, k: usize) -> Self {
        self.checkpoint_every = Some(k);
        self
    }

    /// Toggle the observability layer (DESIGN.md §13).
    pub fn with_obs(mut self, yes: bool) -> Self {
        self.obs = yes;
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
        ((self.memory_bytes as f64) * self.sort_frac) as usize
    }

    /// Bytes allocated to multi-log page buffers.
    pub fn multilog_budget(&self) -> usize {
        ((self.memory_bytes as f64) * self.multilog_frac) as usize
    }

    /// Bytes allocated to edge-log page buffers.
    pub fn edgelog_budget(&self) -> usize {
        ((self.memory_bytes as f64) * self.edgelog_frac) as usize
    }

    /// Check every sizing rule the engines rely on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.memory_bytes < 1 << 12 {
            return Err(ConfigError::BudgetTooSmall { memory_bytes: self.memory_bytes });
        }
        if !(self.sort_frac > 0.0 && self.multilog_frac > 0.0 && self.edgelog_frac > 0.0) {
            return Err(ConfigError::NonPositiveFraction);
        }
        let sum = self.sort_frac + self.multilog_frac + self.edgelog_frac;
        if sum > 1.0 + 1e-9 {
            return Err(ConfigError::FractionsExceedBudget { sum });
        }
        if self.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointCadence);
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.inflight_batches == 0 {
            return Err(ConfigError::ZeroInflightBatches);
        }
        Ok(())
    }

    /// Validate and return self (builder terminal). Panics with the
    /// [`ConfigError`] text; callers holding outside input use
    /// [`Self::validate`].
    pub fn validated(self) -> Self {
        let error = self.validate().err();
        assert!(
            error.is_none(),
            "invalid engine configuration: {}",
            error.map_or(String::new(), |e| e.to_string())
        );
        self
    }
}

/// A sizing rule [`EngineConfig::validate`] found broken, or a program the
/// engine cannot run on the graph it holds — refused where the run starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `memory_bytes` is below one 4 KiB page.
    BudgetTooSmall { memory_bytes: usize },
    /// A memory fraction is zero, negative or NaN.
    NonPositiveFraction,
    /// The three memory fractions sum past 1.
    FractionsExceedBudget { sum: f64 },
    /// `checkpoint_every` is `Some(0)`.
    ZeroCheckpointCadence,
    /// `queue_depth` is 0.
    ZeroQueueDepth,
    /// `inflight_batches` is 0.
    ZeroInflightBatches,
    /// The program reads edge weights (`needs_weights()`) and the graph the
    /// engine runs on stores none.
    NeedsWeights { app: &'static str },
}

impl ConfigError {
    /// Stable machine-readable code, carried into
    /// [`DeviceError::Config`] and from there onto `mlvc serve`'s `failed`
    /// line.
    pub fn code(&self) -> &'static str {
        match self {
            ConfigError::BudgetTooSmall { .. } => "budget-too-small",
            ConfigError::NonPositiveFraction => "non-positive-fraction",
            ConfigError::FractionsExceedBudget { .. } => "fractions-exceed-budget",
            ConfigError::ZeroCheckpointCadence => "zero-checkpoint-cadence",
            ConfigError::ZeroQueueDepth => "zero-queue-depth",
            ConfigError::ZeroInflightBatches => "zero-inflight-batches",
            ConfigError::NeedsWeights { .. } => "needs-weights",
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
            ConfigError::NonPositiveFraction => f.write_str("memory fractions must be positive"),
            ConfigError::FractionsExceedBudget { sum } => {
                write!(f, "memory fractions exceed the budget (sum {sum})")
            }
            ConfigError::ZeroCheckpointCadence => {
                f.write_str("checkpoint cadence must be at least 1 superstep")
            }
            ConfigError::ZeroQueueDepth => f.write_str("queue depth must be at least 1"),
            ConfigError::ZeroInflightBatches => {
                f.write_str("at least one batch must be in flight")
            }
            ConfigError::NeedsWeights { app } => {
                write!(f, "{app} reads edge weights and the graph stores none")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_split_matches_paper() {
        let c = EngineConfig::default().validated();
        assert_eq!(c.sort_budget(), (16 << 20) * 3 / 4);
        assert_eq!(c.multilog_budget(), ((16 << 20) as f64 * 0.05) as usize);
        assert_eq!(c.edgelog_budget(), c.multilog_budget());
    }

    #[test]
    fn budget_too_small_rejected() {
        let c = EngineConfig::default().with_memory(1 << 10);
        assert_eq!(c.validate(), Err(ConfigError::BudgetTooSmall { memory_bytes: 1 << 10 }));
        assert!(c.validate().unwrap_err().to_string().starts_with("budget unrealistically small"));
    }

    #[test]
    fn non_positive_fraction_rejected() {
        for bad in [0.0, -0.1, f64::NAN] {
            let c = EngineConfig { edgelog_frac: bad, ..Default::default() };
            assert_eq!(c.validate(), Err(ConfigError::NonPositiveFraction));
        }
    }

    #[test]
    fn over_allocated_fractions_rejected() {
        let c = EngineConfig { sort_frac: 0.9, multilog_frac: 0.1, edgelog_frac: 0.1, ..Default::default() };
        assert!(matches!(c.validate(), Err(ConfigError::FractionsExceedBudget { .. })));
    }

    #[test]
    fn zero_checkpoint_cadence_rejected() {
        let c = EngineConfig::default().with_checkpoint_every(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroCheckpointCadence));
    }

    #[test]
    fn zero_queue_depth_rejected() {
        let c = EngineConfig::default().with_queue_depth(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroQueueDepth));
    }

    #[test]
    fn zero_inflight_batches_rejected() {
        let c = EngineConfig::default().with_inflight_batches(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroInflightBatches));
    }

    #[test]
    #[should_panic(expected = "budget unrealistically small")]
    fn validated_panics_with_the_error_text() {
        EngineConfig::default().with_memory(1).validated();
    }
}
