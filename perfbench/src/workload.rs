//! The benchmark's workloads and the simulation configuration each one
//! builds from a seed.

use msvs_core::SchemeConfig;
use msvs_mobility::CampusMap;
use msvs_sim::SimulationConfig;
use msvs_types::{Position, Result};

/// One workload: a simulation shape plus how the benchmark drives it.
///
/// Everything not listed here is the program's default scenario (5-min
/// interval, 5-s tick, K 2–12, 2 warm-up intervals, scalar backend, exact
/// pipeline), so a change that deletes a default-only axis runs the
/// benchmark unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Streaming users.
    pub users: usize,
    /// Base-station shards.
    pub shards: usize,
    /// Worker threads.
    pub threads: usize,
    /// Fraction of users replaced at the start of every scored interval.
    pub churn: f64,
    /// DDQN pretraining constructions at the end of warm-up.
    pub pretrain_rounds: usize,
    /// Scored intervals every run plays, whatever `--seconds` says:
    /// interval cost grows with the interval index (twin histories
    /// lengthen), so a time-bounded run would average a different mix of
    /// intervals on a faster build. Sized so the steady state takes about
    /// `run_seconds` on the reference machine.
    pub scored_intervals: usize,
    /// Leading scored intervals the traced run plays, twice (untraced
    /// reference, then traced). Fewer than `scored_intervals` where both
    /// passes would not fit the per-run time limit.
    pub traced_intervals: usize,
}

/// Samples that must lie beyond the reported tail percentile.
const TAIL_SAMPLES: usize = 10;

/// The workloads, by name. See `perfbench/PLAN.md` for why each exists
/// and which layer metrics it is meant to move.
pub const WORKLOADS: [Workload; 2] = [
    // Below the 4,096-point silhouette cap, so grouping (full O(n²)
    // silhouette) dominates both set-up and the per-interval decision;
    // one shard, no churn, serial: the shard plane and the pool idle.
    Workload {
        name: "steady-2k",
        users: 2_000,
        shards: 1,
        threads: 1,
        churn: 0.0,
        pretrain_rounds: 250,
        scored_intervals: 60,
        traced_intervals: 60,
    },
    // Above the silhouette cap (sampled, fixed cost), so the per-user
    // layers carry more of each interval: collection, playback, shard
    // gather and handover, re-encoding churned twins, per-group demand
    // over 5x the members. Pretraining is cut to 25 rounds: at 250 its
    // ~47 s of silhouette would not fit the benchmark's time budget.
    Workload {
        name: "churn-10k",
        users: 10_000,
        shards: 4,
        threads: 2,
        churn: 0.02,
        pretrain_rounds: 25,
        scored_intervals: 24,
        traced_intervals: 12,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Quantile reported as `decision_ms.tail`: the highest one with at
    /// least ten of the `scored_intervals` samples beyond it.
    pub fn tail_quantile(&self) -> f64 {
        1.0 - TAIL_SAMPLES as f64 / self.scored_intervals as f64
    }

    /// The simulation configuration for `seed`.
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    pub fn config(&self, seed: u64) -> Result<SimulationConfig> {
        SimulationConfig::builder()
            .users(self.users)
            .shards(self.shards)
            .threads(self.threads)
            .churn_rate(self.churn)
            .pretrain_rounds(self.pretrain_rounds)
            .intervals(self.scored_intervals)
            .seed(seed)
            .build()
    }
}

/// The scheme configuration `Simulation::new` would hand its own
/// predictor for `config`. A predictor installed through
/// `Simulation::with_predictor` is built before the simulator resolves
/// the scenario, so the benchmark resolves it the same way; the traced
/// run's bit-identity check fails if this ever drifts from the runner.
pub fn resolved_scheme(config: &SimulationConfig) -> SchemeConfig {
    let map = CampusMap::waterloo();
    let mut scheme = config.scheme.clone();
    scheme.bs_positions = bs_grid(&map, config.n_bs);
    scheme.per_bs_accounting = config.per_bs_accounting;
    scheme.map_width = map.width();
    scheme.map_height = map.height();
    scheme.degradation.enabled = config.faults.as_ref().is_some_and(|p| !p.is_noop());
    scheme.threads = config.threads;
    scheme.compressor.backend = config.backend;
    scheme.incremental = config.incremental;
    scheme
}

/// The simulator's centred base-station grid.
fn bs_grid(map: &CampusMap, n: usize) -> Vec<Position> {
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    (0..n)
        .map(|i| {
            Position::new(
                map.width() * ((i % cols) as f64 + 0.5) / cols as f64,
                map.height() * ((i / cols) as f64 + 0.5) / rows as f64,
            )
        })
        .collect()
}
