//! Multicast group construction: DDQN-selected `K`, K-means++ clustering.
//!
//! The paper's two-step method: "a double deep Q-network (DDQN) is first
//! adopted to determine the grouping number by mining users' similarities.
//! Then, the K-means++ algorithm is utilized to perform fast user
//! clustering based on the determined grouping number."
//!
//! The DDQN sees a fixed-size summary of the embedded user population (a
//! pairwise-distance histogram plus population size and the previous
//! decision) and picks `K`. The reward trades clustering quality
//! (silhouette) against the signalling/channel overhead of more groups.

use msvs_cluster::{silhouette_sampled, KMeans, KMeansConfig};
use msvs_rl::{DdqnAgent, DdqnConfig, EpsilonSchedule, Transition};
use msvs_types::{Error, Result};

/// Number of histogram bins in the DDQN state.
const HIST_BINS: usize = 16;

/// Population-size normaliser for the state (users / this, clamped to 1).
const POP_NORM: f64 = 400.0;

/// Maps a flat index `t` into the `i < j` pair sequence (row-major: (0,1),
/// (0,2), …, (0,n-1), (1,2), …) back to `(i, j)`, in O(1): row `i` starts
/// at flat index `i·n − i·(i+1)/2`, so `i` comes from the quadratic root
/// (float guess, then exact integer adjustment) and `j` from the offset
/// within the row.
///
/// # Panics
/// Debug-asserts `t` addresses a valid pair (`t < n·(n−1)/2`).
fn pair_from_flat(t: usize, n: usize) -> (usize, usize) {
    debug_assert!(t < n * (n - 1) / 2, "flat index {t} out of range for n={n}");
    let row_start = |i: usize| i * n - i * (i + 1) / 2;
    let nf = n as f64 - 0.5;
    let guess = (nf - (nf * nf - 2.0 * t as f64).max(0.0).sqrt()).floor();
    let mut i = (guess.max(0.0) as usize).min(n - 2);
    while i + 2 < n && row_start(i + 1) <= t {
        i += 1;
    }
    while i > 0 && row_start(i) > t {
        i -= 1;
    }
    (i, i + 1 + (t - row_start(i)))
}

/// How the group count is chosen (the DDQN scheme or a baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStrategy {
    /// The paper's scheme: DDQN picks `K`, learning online.
    Ddqn,
    /// Always use a fixed `K`.
    FixedK(usize),
    /// Exhaustive silhouette scan over the whole `K` range (slow oracle).
    SilhouetteScan,
    /// Elbow rule on inertia.
    Elbow,
    /// Uniform-random `K` in range (sanity floor).
    RandomK,
}

/// Configuration for the [`GroupingEngine`].
#[derive(Debug, Clone)]
pub struct GroupingConfig {
    /// Smallest admissible group count.
    pub k_min: usize,
    /// Largest admissible group count.
    pub k_max: usize,
    /// Reward penalty per extra group beyond `k_min`, spread over the
    /// range (models per-group multicast channel/signalling overhead).
    pub group_cost: f64,
    /// Strategy for picking `K`.
    pub strategy: GroupingStrategy,
    /// DDQN hidden widths.
    pub hidden: Vec<usize>,
    /// DDQN learning rate.
    pub learning_rate: f32,
    /// DDQN exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// RNG seed (agent weights, K-means seeding, random baseline).
    pub seed: u64,
    /// Worker threads for the K-means assignment step (`1` = serial,
    /// `0` = all available cores). Assignment results are identical at any
    /// thread count.
    pub threads: usize,
    /// Silhouette evaluation budget: populations larger than this score an
    /// evenly strided subsample (deterministic, no RNG) instead of the full
    /// O(n²) scan. `0` disables sampling. Populations at or below the cap
    /// — every committed experiment and test — are bit-identical either
    /// way; the cap only makes 100k-user benches tractable.
    pub silhouette_sample_cap: usize,
    /// Incremental interval pipeline: warm-start K-means from the previous
    /// interval's centroids and gate DDQN `K` re-selection on a drift
    /// score. Off by default; when off the engine is bit-identical to the
    /// classic path.
    pub incremental: bool,
    /// Drift threshold on the scale-free centroid displacement (mean
    /// centroid movement of the last warm fit over the mean centroid
    /// norm). At or above this the population has drifted.
    pub drift_displacement_threshold: f64,
    /// Drift threshold on the fraction of users re-encoded this interval
    /// (churned/restored slots). At or above this the population has
    /// drifted.
    pub drift_dirty_threshold: f64,
    /// Drift threshold on the absolute silhouette change between the last
    /// two fits. At or above this the clustering quality has drifted.
    pub drift_silhouette_threshold: f64,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        Self {
            k_min: 2,
            k_max: 12,
            group_cost: 0.15,
            strategy: GroupingStrategy::Ddqn,
            hidden: vec![64, 32],
            learning_rate: 1e-3,
            epsilon: EpsilonSchedule::linear(0.6, 0.05, 400).expect("static schedule is valid"),
            seed: 0,
            threads: 1,
            silhouette_sample_cap: 4096,
            incremental: false,
            drift_displacement_threshold: 0.05,
            drift_dirty_threshold: 0.1,
            drift_silhouette_threshold: 0.05,
        }
    }
}

impl GroupingConfig {
    fn validate(&self) -> Result<()> {
        if self.k_min < 1 || self.k_max < self.k_min {
            return Err(Error::invalid_config(
                "k range",
                format!(
                    "need 1 <= k_min <= k_max, got {}..={}",
                    self.k_min, self.k_max
                ),
            ));
        }
        if self.k_max == self.k_min {
            return Err(Error::invalid_config(
                "k range",
                "need at least two candidate group counts",
            ));
        }
        if self.group_cost < 0.0 {
            return Err(Error::invalid_config("group_cost", "must be non-negative"));
        }
        if self.incremental {
            for (name, v) in [
                (
                    "drift_displacement_threshold",
                    self.drift_displacement_threshold,
                ),
                ("drift_dirty_threshold", self.drift_dirty_threshold),
                (
                    "drift_silhouette_threshold",
                    self.drift_silhouette_threshold,
                ),
            ] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(Error::invalid_config(name, "must be finite and positive"));
                }
            }
        }
        Ok(())
    }
}

/// Result of one group construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouping {
    /// Chosen group count.
    pub k: usize,
    /// Group index per user (aligned with the input feature order).
    pub assignments: Vec<usize>,
    /// Silhouette score of the clustering.
    pub silhouette: f64,
    /// Reward fed to the DDQN (quality minus group cost).
    pub reward: f64,
}

impl Grouping {
    /// Members of each group, as indices into the clustered feature set.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut m = vec![Vec::new(); self.k];
        for (i, &a) in self.assignments.iter().enumerate() {
            m[a].push(i);
        }
        m
    }
}

/// Cached outcome of the last fit for one `(k, dim)` shape, used by the
/// incremental pipeline to warm-start the next fit of the same shape.
#[derive(Debug, Clone)]
struct WarmState {
    /// Converged centroids of the last fit.
    centroids: Vec<Vec<f64>>,
    /// Lloyd rounds the last *cold* fit of this shape took — the baseline
    /// the `kmeans_warm_rounds_saved` counter is measured against.
    cold_iterations: usize,
}

/// The learning group constructor.
pub struct GroupingEngine {
    config: GroupingConfig,
    agent: DdqnAgent,
    prev_k: Option<usize>,
    prev_reward: f64,
    calls: u64,
    telemetry: Option<msvs_telemetry::Telemetry>,
    /// Warm-start cache keyed by `(k, feature dim)`; only populated in
    /// incremental mode.
    warm: std::collections::HashMap<(usize, usize), WarmState>,
    /// Scale-free centroid displacement of the last warm fit (`None`
    /// until a warm fit has run). Lagged drift input.
    last_displacement: Option<f64>,
    /// Silhouette of the previous fit, and the delta between the last two
    /// fits. Lagged drift inputs.
    last_silhouette: Option<f64>,
    silhouette_delta: Option<f64>,
    /// Fraction of users re-encoded this interval, set by the predictor
    /// before each construction. Starts at full drift so the gate never
    /// engages before the encode layer has reported.
    dirty_fraction: f64,
    /// Per-`K` groupings of the current [`GroupingEngine::pretrain`] call;
    /// `Some` exactly while pretraining. Pretraining bypasses the drift
    /// gate (a stationary pretrain population would otherwise gate every
    /// episode after the first and the DDQN would never learn) and fits
    /// cold, so each `K` has one outcome over the frozen feature set.
    pretrain_memo: Option<std::collections::HashMap<usize, Grouping>>,
    /// Set when the drift gate observed established signals *above*
    /// threshold: the population moved, so the encode layer should do a
    /// full (exact) re-encode next interval instead of serving stale
    /// embeddings. Bounds the incremental approximation under heavy
    /// churn. Consumed by [`GroupingEngine::take_refresh_hint`].
    refresh_hint: bool,
}

impl std::fmt::Debug for GroupingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupingEngine")
            .field("strategy", &self.config.strategy)
            .field("k_range", &(self.config.k_min, self.config.k_max))
            .field("calls", &self.calls)
            .finish()
    }
}

impl GroupingEngine {
    /// Builds an engine.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] for an invalid `K` range or DDQN
    /// hyperparameters.
    pub fn new(config: GroupingConfig) -> Result<Self> {
        config.validate()?;
        let action_count = config.k_max - config.k_min + 1;
        let agent = DdqnAgent::new(DdqnConfig {
            state_dim: HIST_BINS + 3,
            action_count,
            hidden: config.hidden.clone(),
            learning_rate: config.learning_rate,
            gamma: 0.0, // one-step decisions: pure contextual bandit
            batch_size: 32,
            replay_capacity: 4096,
            min_replay: 64,
            target_sync_every: 50,
            epsilon: config.epsilon,
            seed: config.seed,
        })?;
        Ok(Self {
            config,
            agent,
            prev_k: None,
            prev_reward: 0.0,
            calls: 0,
            telemetry: None,
            warm: std::collections::HashMap::new(),
            last_displacement: None,
            last_silhouette: None,
            silhouette_delta: None,
            dirty_fraction: 1.0,
            pretrain_memo: None,
            refresh_hint: false,
        })
    }

    /// Wires the engine (and its DDQN agent) into an observability
    /// pipeline: `K` selection and clustering are timed, and each
    /// construction emits a [`msvs_telemetry::Event::GroupsFormed`] event.
    pub fn attach_telemetry(&mut self, telemetry: msvs_telemetry::Telemetry) {
        self.agent.attach_telemetry(telemetry.clone());
        self.telemetry = Some(telemetry);
    }

    /// The configuration in use.
    pub fn config(&self) -> &GroupingConfig {
        &self.config
    }

    /// Number of constructions performed.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Reports the fraction of users re-encoded this interval (a drift
    /// input for the incremental DDQN gate). Clamped to `[0, 1]`. No-op
    /// effect outside incremental mode.
    pub fn set_dirty_fraction(&mut self, fraction: f64) {
        self.dirty_fraction = fraction.clamp(0.0, 1.0);
    }

    /// Consumes the drift detector's refresh recommendation. `true` means
    /// the last construction saw established drift signals above
    /// threshold, and the caller should run a full (exact) encode pass
    /// next interval rather than an incremental one. Resets on read.
    pub fn take_refresh_hint(&mut self) -> bool {
        std::mem::take(&mut self.refresh_hint)
    }

    /// Combined drift score: the largest of the three drift signals, each
    /// normalised by its threshold so `>= 1.0` means "drifted". Missing
    /// lagged inputs (no warm fit or no silhouette history yet) count as
    /// full drift via a large finite sentinel — finite so the telemetry
    /// gauge stays JSON-representable.
    fn drift_score(&self) -> f64 {
        const FULL_DRIFT: f64 = 1e3;
        let c = &self.config;
        let displacement = self
            .last_displacement
            .map_or(FULL_DRIFT, |d| d / c.drift_displacement_threshold);
        let dirty = self.dirty_fraction / c.drift_dirty_threshold;
        let silhouette = self
            .silhouette_delta
            .map_or(FULL_DRIFT, |d| d.abs() / c.drift_silhouette_threshold);
        displacement.max(dirty).max(silhouette)
    }

    /// Incremental drift gate: `Some(previous K)` when every lagged drift
    /// signal sits below its threshold, meaning the DDQN re-selection can
    /// be skipped this interval. Always `None` outside incremental mode
    /// and during pretraining. Emits the `drift_score` gauge whenever it
    /// evaluates, gated or not. When established signals sit *above*
    /// threshold the refresh hint is raised so the encode layer bounds
    /// embedding staleness with a full re-encode.
    fn drift_gate(&mut self) -> Option<usize> {
        if !self.config.incremental || self.pretrain_memo.is_some() {
            return None;
        }
        let prev_k = self.prev_k?;
        let score = self.drift_score();
        if let Some(t) = &self.telemetry {
            t.gauge("drift_score", "all").set(score);
        }
        if score < 1.0 {
            Some(prev_k)
        } else {
            // Only established signals schedule a refresh: the cold-start
            // FULL_DRIFT sentinel means the cache is young, not stale.
            self.refresh_hint = self.last_displacement.is_some() && self.silhouette_delta.is_some();
            None
        }
    }

    /// DDQN state: normalised pairwise-distance histogram + population
    /// size + previous `K` + previous reward. Pair sampling is
    /// O(samples), not O(n²): see `pair_from_flat`.
    pub fn state_of(&self, features: &[Vec<f64>]) -> Vec<f32> {
        let mut state = vec![0f32; HIST_BINS + 3];
        let n = features.len();
        if n >= 2 {
            // Sample up to ~2000 pairs to bound cost on large populations.
            // Jump straight to the sampled flat pair indices — walking the
            // full i<j loop to skip-count them is itself O(n²) and was the
            // wall-time ceiling at 100k users. The indices (and therefore
            // the state bits) are identical to the skip-counting loop's.
            let mut dists = Vec::new();
            let total_pairs = n * (n - 1) / 2;
            let stride = (total_pairs / 2000).max(1);
            let mut t = 0usize;
            while t < total_pairs {
                let (i, j) = pair_from_flat(t, n);
                let d: f64 = features[i]
                    .iter()
                    .zip(&features[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                dists.push(d);
                t += stride;
            }
            let max = dists.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
            for &d in &dists {
                let bin = ((d / max) * (HIST_BINS as f64 - 1e-9)) as usize;
                state[bin.min(HIST_BINS - 1)] += 1.0;
            }
            let total: f32 = state[..HIST_BINS].iter().sum();
            if total > 0.0 {
                for s in &mut state[..HIST_BINS] {
                    *s /= total;
                }
            }
        }
        state[HIST_BINS] = ((n as f64) / POP_NORM).min(1.0) as f32;
        state[HIST_BINS + 1] = self
            .prev_k
            .map(|k| {
                (k - self.config.k_min) as f32 / (self.config.k_max - self.config.k_min) as f32
            })
            .unwrap_or(0.5);
        state[HIST_BINS + 2] = self.prev_reward as f32;
        state
    }

    fn reward_of(&self, sil: f64, k: usize) -> f64 {
        let span = (self.config.k_max - self.config.k_min) as f64;
        sil - self.config.group_cost * (k - self.config.k_min) as f64 / span
    }

    /// Constructs multicast groups for the given clustering features.
    ///
    /// With [`GroupingStrategy::Ddqn`] the agent picks `K`, the clustering
    /// runs, and the observed reward is fed back as a one-step transition
    /// (learning continues across reservation intervals).
    ///
    /// # Errors
    /// Returns [`Error::InsufficientData`] when there are fewer users than
    /// `k_min`, and propagates K-means errors.
    pub fn construct(&mut self, features: &[Vec<f64>]) -> Result<Grouping> {
        if features.len() < self.config.k_min {
            return Err(Error::insufficient(format!(
                "need at least k_min={} users, got {}",
                self.config.k_min,
                features.len()
            )));
        }
        self.calls += 1;
        let k_cap = features.len().min(self.config.k_max);
        let grouping = match self.config.strategy {
            GroupingStrategy::Ddqn => {
                if let Some(k) = self.drift_gate() {
                    // Low drift: keep the previous K and leave the agent
                    // untouched (no act, no observe — the ε schedule does
                    // not advance, so a gated interval is deterministic).
                    if let Some(t) = &self.telemetry {
                        t.counter("ddqn_selections_skipped_total", "all").add(1);
                    }
                    self.cluster(features, k.min(k_cap).max(self.config.k_min))?
                } else {
                    let state = self.state_of(features);
                    let select_scope = self
                        .telemetry
                        .as_ref()
                        .map(|t| t.stage_scope(msvs_telemetry::stages::DDQN_SELECT_K));
                    let action = self.agent.act(&state);
                    drop(select_scope);
                    let k = (self.config.k_min + action).min(k_cap);
                    let g = self.cluster(features, k)?;
                    self.agent.observe(Transition {
                        state,
                        action,
                        reward: g.reward as f32,
                        next_state: vec![0.0; HIST_BINS + 3],
                        done: true,
                    });
                    g
                }
            }
            GroupingStrategy::FixedK(k) => {
                let k = k.clamp(self.config.k_min, k_cap);
                self.cluster(features, k)?
            }
            GroupingStrategy::SilhouetteScan => {
                let (k, _) = msvs_cluster::silhouette_scan_k(
                    features,
                    self.config.k_min.max(2),
                    k_cap,
                    self.config.seed,
                )?;
                self.cluster(features, k)?
            }
            GroupingStrategy::Elbow => {
                let k = msvs_cluster::elbow_k(
                    features,
                    self.config.k_min,
                    k_cap,
                    0.15,
                    self.config.seed,
                )?;
                self.cluster(features, k)?
            }
            GroupingStrategy::RandomK => {
                use rand::Rng as _;
                use rand::SeedableRng as _;
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(self.config.seed.wrapping_add(self.calls));
                let k = rng.gen_range(self.config.k_min..=k_cap);
                self.cluster(features, k)?
            }
        };
        self.prev_k = Some(grouping.k);
        self.prev_reward = grouping.reward;
        if let Some(t) = &self.telemetry {
            t.emit(msvs_telemetry::Event::GroupsFormed {
                k: grouping.k as u64,
                silhouette: grouping.silhouette,
                reward: grouping.reward,
            });
        }
        Ok(grouping)
    }

    /// Greedy (no-exploration) choice of `K` for the given features; does
    /// not learn. Useful for inspecting a trained agent.
    pub fn greedy_k(&mut self, features: &[Vec<f64>]) -> usize {
        let state = self.state_of(features);
        let k_cap = features.len().min(self.config.k_max);
        (self.config.k_min + self.agent.act_greedy(&state)).min(k_cap.max(self.config.k_min))
    }

    /// Pretrains the DDQN by constructing groups over one frozen feature
    /// set for `episodes` iterations.
    ///
    /// The K-means seed is fixed and pretraining fits cold, so the
    /// clustering outcome depends on `K` alone: the first episode to draw
    /// a `K` fits and scores it, and later episodes reuse that grouping.
    /// Everything else runs every episode, so the agent sees the same
    /// state, action and reward sequence as unmemoised construction.
    ///
    /// # Errors
    /// Propagates construction errors.
    pub fn pretrain(&mut self, features: &[Vec<f64>], episodes: usize) -> Result<()> {
        self.pretrain_memo = Some(std::collections::HashMap::new());
        let outcome = (0..episodes).try_for_each(|_| self.construct(features).map(drop));
        self.pretrain_memo = None;
        outcome
    }

    /// Clusters into `k` groups and scores the result, serving pretraining
    /// repeats from the memo. The drift bookkeeping runs on every call.
    fn cluster(&mut self, features: &[Vec<f64>], k: usize) -> Result<Grouping> {
        let memoised = self.pretrain_memo.as_ref().and_then(|m| m.get(&k)).cloned();
        let hit = memoised.is_some();
        let grouping = match memoised {
            Some(g) => g,
            None => {
                let g = self.fit_and_score(features, k)?;
                if let Some(memo) = &mut self.pretrain_memo {
                    memo.insert(k, g.clone());
                }
                g
            }
        };
        if self.config.incremental {
            if hit {
                // A repeat over the frozen pretraining set refits unchanged
                // data: its centroids would not move.
                self.last_displacement = Some(0.0);
            }
            self.silhouette_delta = self.last_silhouette.map(|prev| grouping.silhouette - prev);
            self.last_silhouette = Some(grouping.silhouette);
        }
        Ok(grouping)
    }

    /// Runs the K-means fit (warm-started in incremental mode outside
    /// pretraining) and scores it by silhouette and reward.
    fn fit_and_score(&mut self, features: &[Vec<f64>], k: usize) -> Result<Grouping> {
        let dim = features.first().map_or(0, Vec::len);
        let shape = (k, dim);
        // Warm-start from the last converged centroids of the same shape.
        // A shape change (different K or feature dim) misses the cache and
        // the fit seeds cold via k-means++, exactly as in classic mode.
        // Pretraining always fits cold.
        let init = if self.config.incremental && self.pretrain_memo.is_none() {
            self.warm
                .get(&shape)
                .map(|w| msvs_cluster::Init::Warm(w.centroids.clone()))
                .unwrap_or_default()
        } else {
            msvs_cluster::Init::default()
        };
        let scope = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_scope(msvs_telemetry::stages::KMEANS_FIT));
        let fit_start = self.telemetry.as_ref().map(|t| t.span_collector().now_us());
        let fit = KMeans::new(KMeansConfig {
            k,
            seed: self.config.seed ^ 0x5EED,
            threads: self.config.threads,
            init,
            ..Default::default()
        })
        .fit(features)?;
        // Materialise one assign/update child span per Lloyd round from
        // the timings the cluster crate returns (it has no telemetry
        // dependency). The round count is seed-deterministic, so the
        // span structure stays thread-count invariant.
        if let (Some(t), Some(scope), Some(start)) = (&self.telemetry, &scope, fit_start) {
            let collector = t.span_collector();
            let parent = Some(scope.span_id());
            let mut cursor = start;
            for (round, timing) in fit.rounds.iter().enumerate() {
                let attrs = msvs_telemetry::SpanAttrs {
                    batch: Some(round as u64),
                    ..Default::default()
                };
                collector.record_manual(
                    parent,
                    msvs_telemetry::stages::KMEANS_ASSIGN,
                    cursor,
                    timing.assign_us,
                    attrs,
                );
                cursor += timing.assign_us;
                collector.record_manual(
                    parent,
                    msvs_telemetry::stages::KMEANS_UPDATE,
                    cursor,
                    timing.update_us,
                    attrs,
                );
                cursor += timing.update_us;
            }
        }
        if let Some(t) = &self.telemetry {
            t.counter("kmeans_distance_evals_skipped", "all")
                .add(fit.distance_evals_skipped);
        }
        if self.config.incremental {
            if fit.warm_started {
                let seeds = &self.warm[&shape];
                self.last_displacement =
                    Some(centroid_displacement(&seeds.centroids, &fit.centroids));
                // Rounds saved = what the last cold fit of this shape
                // cost, minus what the warm fit actually took.
                let saved = seeds.cold_iterations.saturating_sub(fit.iterations);
                if let Some(t) = &self.telemetry {
                    t.counter("kmeans_warm_rounds_saved", "all")
                        .add(saved as u64);
                }
                let entry = self.warm.get_mut(&shape).expect("warm entry just read");
                entry.centroids = fit.centroids.clone();
            } else {
                // Cold fit: record the baseline round count and reset the
                // displacement signal — there is no previous-centroid
                // frame to measure movement against.
                self.last_displacement = None;
                self.warm.insert(
                    shape,
                    WarmState {
                        centroids: fit.centroids.clone(),
                        cold_iterations: fit.iterations,
                    },
                );
            }
        }
        // Silhouette is O(n²·d) — often heavier than the fit itself — so
        // it gets its own stage instead of inflating `kmeans_fit`.
        drop(scope);
        let sil_scope = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_scope(msvs_telemetry::stages::SILHOUETTE));
        let sil = silhouette_sampled(
            features,
            &fit.assignments,
            self.config.silhouette_sample_cap,
        );
        drop(sil_scope);
        Ok(Grouping {
            k,
            assignments: fit.assignments,
            silhouette: sil,
            reward: self.reward_of(sil, k),
        })
    }
}

/// Scale-free centroid displacement: mean L2 movement per centroid,
/// normalised by the mean centroid norm of the previous frame (so the
/// signal is comparable across feature scalings). A zero-norm previous
/// frame falls back to the raw movement.
fn centroid_displacement(prev: &[Vec<f64>], curr: &[Vec<f64>]) -> f64 {
    let n = prev.len().min(curr.len());
    if n == 0 {
        return 0.0;
    }
    let l2 = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    let moved: f64 = prev.iter().zip(curr).map(|(a, b)| l2(a, b)).sum::<f64>() / n as f64;
    let scale: f64 = prev
        .iter()
        .map(|c| c.iter().map(|x| x * x).sum::<f64>().sqrt())
        .sum::<f64>()
        / n as f64;
    if scale > 0.0 {
        moved / scale
    } else {
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pair_from_flat_matches_the_row_major_enumeration() {
        for n in 2..=60usize {
            let mut t = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(pair_from_flat(t, n), (i, j), "t={t} n={n}");
                    t += 1;
                }
            }
        }
    }

    /// The O(samples) jump sampling must reproduce the retired
    /// skip-counting loop bit for bit — same pairs, same order.
    #[test]
    fn state_sampling_matches_the_skip_counting_reference() {
        let features = blobs(3, 70, 9); // n = 210 > 2000 pairs → stride > 1
        let n = features.len();
        let stride = ((n * (n - 1) / 2) / 2000).max(1);
        assert!(stride > 1, "population large enough to engage sampling");
        let mut reference = Vec::new();
        let mut pair = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if pair.is_multiple_of(stride) {
                    reference.push((i, j));
                }
                pair += 1;
            }
        }
        let total_pairs = n * (n - 1) / 2;
        let sampled: Vec<(usize, usize)> = (0..total_pairs)
            .step_by(stride)
            .map(|t| pair_from_flat(t, n))
            .collect();
        assert_eq!(sampled, reference);
    }

    /// `k` well-separated blobs in 4-D.
    fn blobs(k: usize, per: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for c in 0..k {
            let center: Vec<f64> = (0..4)
                .map(|d| ((c * 7 + d * 3) % 10) as f64 * 2.0)
                .collect();
            for _ in 0..per {
                out.push(
                    center
                        .iter()
                        .map(|&x| x + msvs_types::stats::normal(&mut rng, 0.0, 0.15))
                        .collect(),
                );
            }
        }
        out
    }

    #[test]
    fn rejects_bad_config() {
        assert!(GroupingEngine::new(GroupingConfig {
            k_min: 0,
            ..Default::default()
        })
        .is_err());
        assert!(GroupingEngine::new(GroupingConfig {
            k_min: 5,
            k_max: 5,
            ..Default::default()
        })
        .is_err());
        assert!(GroupingEngine::new(GroupingConfig {
            group_cost: -1.0,
            ..Default::default()
        })
        .is_err());
        assert!(GroupingEngine::new(GroupingConfig {
            incremental: true,
            drift_dirty_threshold: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(GroupingEngine::new(GroupingConfig {
            incremental: true,
            drift_displacement_threshold: f64::NAN,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn fixed_k_clusters_exactly() {
        let mut engine = GroupingEngine::new(GroupingConfig {
            strategy: GroupingStrategy::FixedK(3),
            ..Default::default()
        })
        .unwrap();
        let g = engine.construct(&blobs(3, 20, 1)).unwrap();
        assert_eq!(g.k, 3);
        assert!(g.silhouette > 0.8, "separated blobs: sil {}", g.silhouette);
        let sizes: Vec<usize> = g.members().iter().map(|m| m.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 60);
    }

    #[test]
    fn state_is_fixed_size_and_normalised() {
        let engine = GroupingEngine::new(GroupingConfig::default()).unwrap();
        for n in [2, 10, 100] {
            let s = engine.state_of(&blobs(2, n, 2));
            assert_eq!(s.len(), HIST_BINS + 3);
            let hist_sum: f32 = s[..HIST_BINS].iter().sum();
            assert!((hist_sum - 1.0).abs() < 1e-5, "histogram sums to 1");
        }
        // Degenerate single-user population.
        let s = engine.state_of(&[vec![0.0; 4]]);
        assert_eq!(s.len(), HIST_BINS + 3);
    }

    #[test]
    fn ddqn_converges_to_good_k_on_stationary_population() {
        let features = blobs(4, 15, 3);
        let mut engine = GroupingEngine::new(GroupingConfig {
            k_min: 2,
            k_max: 8,
            group_cost: 0.1,
            epsilon: EpsilonSchedule::linear(1.0, 0.02, 250).unwrap(),
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        engine.pretrain(&features, 400).unwrap();
        let k = engine.greedy_k(&features);
        // True structure is 4 blobs; accept 3–5 (reward is cost-penalised).
        assert!(
            (3..=5).contains(&k),
            "agent should land near k=4, chose {k}"
        );
    }

    #[test]
    fn ddqn_reward_beats_random_after_training() {
        let features = blobs(3, 20, 4);
        let mut ddqn = GroupingEngine::new(GroupingConfig {
            epsilon: EpsilonSchedule::linear(1.0, 0.02, 250).unwrap(),
            seed: 9,
            ..Default::default()
        })
        .unwrap();
        ddqn.pretrain(&features, 350).unwrap();
        let mut random = GroupingEngine::new(GroupingConfig {
            strategy: GroupingStrategy::RandomK,
            seed: 9,
            ..Default::default()
        })
        .unwrap();
        let ddqn_reward: f64 = (0..20)
            .map(|_| ddqn.construct(&features).unwrap().reward)
            .sum::<f64>()
            / 20.0;
        let random_reward: f64 = (0..20)
            .map(|_| random.construct(&features).unwrap().reward)
            .sum::<f64>()
            / 20.0;
        assert!(
            ddqn_reward > random_reward,
            "trained DDQN {ddqn_reward:.3} should beat random {random_reward:.3}"
        );
    }

    #[test]
    fn oracle_strategies_find_true_k() {
        let features = blobs(4, 20, 5);
        for strategy in [GroupingStrategy::SilhouetteScan, GroupingStrategy::Elbow] {
            let mut engine = GroupingEngine::new(GroupingConfig {
                strategy,
                ..Default::default()
            })
            .unwrap();
            let g = engine.construct(&features).unwrap();
            assert!(
                (3..=5).contains(&g.k),
                "{strategy:?} chose k={} for 4 blobs",
                g.k
            );
        }
    }

    #[test]
    fn too_few_users_is_an_error() {
        let mut engine = GroupingEngine::new(GroupingConfig::default()).unwrap();
        assert!(engine.construct(&blobs(1, 1, 6)).is_err());
    }

    #[test]
    fn incremental_warm_start_reproduces_the_cold_grouping() {
        let features = blobs(3, 20, 11);
        let mut cold = GroupingEngine::new(GroupingConfig {
            strategy: GroupingStrategy::FixedK(3),
            ..Default::default()
        })
        .unwrap();
        let baseline = cold.construct(&features).unwrap();
        let mut warm = GroupingEngine::new(GroupingConfig {
            strategy: GroupingStrategy::FixedK(3),
            incremental: true,
            ..Default::default()
        })
        .unwrap();
        let t = msvs_telemetry::Telemetry::new();
        warm.attach_telemetry(t.clone());
        // First incremental fit has no cached centroids: seeds cold and
        // reproduces the classic grouping bit for bit.
        let first = warm.construct(&features).unwrap();
        assert_eq!(first, baseline);
        // Second fit on unchanged points warm-starts from the converged
        // centroids: same assignments, fewer Lloyd rounds.
        let second = warm.construct(&features).unwrap();
        assert_eq!(second.assignments, baseline.assignments);
        assert!(
            t.counter("kmeans_warm_rounds_saved", "all").get() >= 1,
            "warm start should save at least one Lloyd round"
        );
    }

    #[test]
    fn incremental_drift_gate_reuses_previous_k_until_drift() {
        let features = blobs(4, 15, 13);
        let mut engine = GroupingEngine::new(GroupingConfig {
            incremental: true,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let t = msvs_telemetry::Telemetry::new();
        engine.attach_telemetry(t.clone());
        engine.set_dirty_fraction(0.0);
        let skipped = || t.counter("ddqn_selections_skipped_total", "all").get();
        // The gate needs lagged signals: a repeat fit of the same shape
        // (for displacement) plus a silhouette delta. Construct until it
        // engages; exploration can change K, which re-cools the cache.
        let mut prev = engine.construct(&features).unwrap();
        let mut gated = None;
        for _ in 0..12 {
            let g = engine.construct(&features).unwrap();
            if skipped() > 0 {
                gated = Some((prev.k, g.k));
                break;
            }
            prev = g;
        }
        let (prev_k, gated_k) = gated.expect("gate engages on a stationary population");
        assert_eq!(gated_k, prev_k, "gated interval reuses the previous K");
        // The quiet stretch never recommended a refresh.
        assert!(
            !engine.take_refresh_hint(),
            "gated intervals must not schedule a full re-encode"
        );
        // A churn burst re-opens the gate: re-selection runs again, and the
        // detector tells the encode layer to bound staleness with a full
        // refresh. The hint resets on read.
        engine.set_dirty_fraction(1.0);
        let before = skipped();
        engine.construct(&features).unwrap();
        assert_eq!(skipped(), before, "high dirty fraction forces re-selection");
        assert!(
            engine.take_refresh_hint(),
            "detected drift must recommend a full re-encode"
        );
        assert!(!engine.take_refresh_hint(), "hint is consumed on read");
    }

    #[test]
    fn pretrain_bypasses_the_drift_gate() {
        let features = blobs(3, 15, 17);
        let mut engine = GroupingEngine::new(GroupingConfig {
            incremental: true,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let t = msvs_telemetry::Telemetry::new();
        engine.attach_telemetry(t.clone());
        engine.set_dirty_fraction(0.0);
        engine.pretrain(&features, 30).unwrap();
        assert_eq!(
            t.counter("ddqn_selections_skipped_total", "all").get(),
            0,
            "every pretrain episode must reach the agent"
        );
    }

    /// Samples the `stage` latency histogram holds.
    fn stage_count(t: &msvs_telemetry::Telemetry, stage: &str) -> u64 {
        t.summary()
            .stages
            .iter()
            .find(|s| s.stage == stage)
            .map_or(0, |s| s.count)
    }

    /// Memoised pretraining replays unmemoised construction exactly: the
    /// agent ends in the same place, but each `K` is fit and scored once.
    #[test]
    fn memoised_pretrain_matches_repeated_construction() {
        let features = blobs(4, 15, 19);
        let config = GroupingConfig {
            epsilon: EpsilonSchedule::linear(1.0, 0.02, 60).unwrap(),
            seed: 5,
            ..Default::default()
        };
        let episodes = 80;
        let (tm, tl) = (
            msvs_telemetry::Telemetry::new(),
            msvs_telemetry::Telemetry::new(),
        );
        let mut memoised = GroupingEngine::new(config.clone()).unwrap();
        memoised.attach_telemetry(tm.clone());
        memoised.pretrain(&features, episodes).unwrap();
        let mut looped = GroupingEngine::new(config.clone()).unwrap();
        looped.attach_telemetry(tl.clone());
        for _ in 0..episodes {
            looped.construct(&features).unwrap();
        }
        let distinct_k = (config.k_max - config.k_min + 1) as u64;
        let silhouettes = stage_count(&tm, msvs_telemetry::stages::SILHOUETTE);
        assert!(
            silhouettes <= distinct_k,
            "{silhouettes} silhouette scores for {distinct_k} distinct K"
        );
        assert_eq!(
            stage_count(&tl, msvs_telemetry::stages::SILHOUETTE),
            episodes as u64
        );
        assert_eq!(memoised.calls(), looped.calls());
        assert_eq!(
            memoised.construct(&features).unwrap(),
            looped.construct(&features).unwrap()
        );
        assert_eq!(memoised.greedy_k(&features), looped.greedy_k(&features));
        // The memo is gone once pretraining returns: scored constructions
        // fit and score afresh.
        assert_eq!(
            stage_count(&tm, msvs_telemetry::stages::SILHOUETTE),
            silhouettes + 1
        );
    }

    /// Pretraining fits cold, yet leaves established, quiet drift signals:
    /// its population never moved, so the first construction on it may
    /// keep the pretrained K.
    #[test]
    fn incremental_pretrain_fits_cold_and_leaves_quiet_drift_signals() {
        let features = blobs(3, 15, 23);
        let mut engine = GroupingEngine::new(GroupingConfig {
            incremental: true,
            epsilon: EpsilonSchedule::linear(1.0, 0.0, 20).unwrap(),
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let t = msvs_telemetry::Telemetry::new();
        engine.attach_telemetry(t.clone());
        engine.set_dirty_fraction(0.0);
        engine.pretrain(&features, 60).unwrap();
        assert_eq!(t.counter("kmeans_warm_rounds_saved", "all").get(), 0);
        engine.construct(&features).unwrap();
        assert_eq!(
            t.counter("ddqn_selections_skipped_total", "all").get(),
            1,
            "the drift gate engages right after pretraining"
        );
    }

    #[test]
    fn k_is_capped_by_population() {
        let mut engine = GroupingEngine::new(GroupingConfig {
            strategy: GroupingStrategy::FixedK(12),
            ..Default::default()
        })
        .unwrap();
        let g = engine.construct(&blobs(1, 5, 7)).unwrap();
        assert!(g.k <= 5);
    }
}
