//! Probes: timed calls into the clustering and per-group layers on inputs
//! captured from the run (the features `complete` returned and the groups
//! the scheme formed). The scheme calls these layers without a public
//! seam to wrap, so the benchmark re-runs each one on the same inputs with
//! the virtual clock stopped.
//!
//! The per-group probes rebuild each group's inputs the way the scheme
//! does under the default scenario: `SnrEstimator::RecentMean` and
//! `per_bs_accounting` off. Any other configuration is refused, and every
//! probed group's demand must equal the scheme's own prediction for it,
//! so a probe that drifts from the program fails the run.

use std::time::Instant;

use msvs_cluster::{silhouette_sampled, KMeans, KMeansConfig};
use msvs_core::recommend::aggregate_preference;
use msvs_core::{
    predict_group_demand, recommend_for_group, MemberState, PredictionContext, PredictionOutcome,
    SchemeConfig, SnrEstimator, SwipingAbstraction,
};
use msvs_types::{Error, GroupId, Result};

/// SNR the scheme assumes for a twin without channel samples, dB.
const DEFAULT_SNR_DB: f64 = 10.0;

/// Probe timings for one scored prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// `KMeans::fit` at the K the scheme chose, ms.
    pub kmeans_fit_ms: f64,
    /// Lloyd rounds that fit took.
    pub kmeans_rounds: usize,
    /// `silhouette_sampled` at the configured cap, ms.
    pub silhouette_ms: f64,
    /// Points the silhouette scored (population or the cap).
    pub silhouette_points: usize,
    /// `SwipingAbstraction::from_records`, summed over groups, ms.
    pub swiping_ms: f64,
    /// Preference aggregation + `recommend_for_group`, summed, ms.
    pub recommend_ms: f64,
    /// `predict_group_demand`, summed over groups, ms.
    pub demand_ms: f64,
}

/// Scored predictions per probe: probing every one would double the
/// grouping work of a traced run and push it past the per-run time limit.
pub const PROBE_EVERY: usize = 3;

/// Holds the probe-side state: the scheme configuration and how many
/// scored predictions it has seen.
pub struct Prober {
    scheme: SchemeConfig,
    seen: usize,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

impl Prober {
    /// A prober for a predictor built from `scheme`.
    pub fn new(scheme: &SchemeConfig) -> Self {
        let mut scheme = scheme.clone();
        // The predictor resolves its engine's threads the same way.
        scheme.grouping.threads = scheme.threads;
        Self { scheme, seen: 0 }
    }

    /// Whether the next scored prediction is probed (the first, then
    /// every [`PROBE_EVERY`]th).
    pub fn due(&mut self) -> bool {
        self.seen += 1;
        (self.seen - 1).is_multiple_of(PROBE_EVERY)
    }

    /// Times every probe on one scored prediction's inputs.
    ///
    /// # Errors
    /// Propagates errors from the probed layers.
    pub fn probe(
        &mut self,
        ctx: &PredictionContext<'_>,
        outcome: &PredictionOutcome,
        features: &[Vec<f64>],
    ) -> Result<ProbeSample> {
        let grouping = &self.scheme.grouping;
        let start = Instant::now();
        let fit = KMeans::new(KMeansConfig {
            k: outcome.grouping.k,
            seed: grouping.seed ^ 0x5EED,
            threads: grouping.threads,
            ..Default::default()
        })
        .fit(features)?;
        let kmeans_fit_ms = ms_since(start);

        let start = Instant::now();
        let sil = silhouette_sampled(
            features,
            &outcome.grouping.assignments,
            grouping.silhouette_sample_cap,
        );
        let silhouette_ms = ms_since(start);
        std::hint::black_box(sil);
        let cap = grouping.silhouette_sample_cap;
        let silhouette_points = if cap == 0 {
            features.len()
        } else {
            features.len().min(cap)
        };

        let twins = ctx.store.snapshot();
        if twins.len() != outcome.user_order.len() {
            return Err(Error::shape(
                format!("{} twins", outcome.user_order.len()),
                format!("{}", twins.len()),
            ));
        }
        let SnrEstimator::RecentMean { window: snr_window } = self.scheme.snr_estimator else {
            return Err(Error::invalid_config(
                "snr_estimator",
                "the per-group probes support only RecentMean",
            ));
        };
        if self.scheme.per_bs_accounting {
            return Err(Error::invalid_config(
                "per_bs_accounting",
                "the per-group probes support only whole-population accounting",
            ));
        }
        let (mut swiping_ms, mut recommend_ms, mut demand_ms) = (0.0, 0.0, 0.0);
        // The scheme predicts demand for non-empty groups only, in order.
        let mut predicted = outcome.groups.iter();
        for (gid, member_idx) in outcome.grouping.members().into_iter().enumerate() {
            if member_idx.is_empty() {
                continue;
            }
            let members: Vec<_> = member_idx.iter().map(|&i| &twins[i]).collect();

            let start = Instant::now();
            let swiping = SwipingAbstraction::from_records(
                members
                    .iter()
                    .flat_map(|t| t.watch_series().iter().map(|(_, r)| r)),
            );
            swiping_ms += ms_since(start);

            let start = Instant::now();
            let prefs: Vec<&[f64]> = members.iter().map(|t| t.preference()).collect();
            let recommendation = recommend_for_group(
                ctx.catalog,
                &aggregate_preference(&prefs),
                &self.scheme.recommender,
            )?;
            recommend_ms += ms_since(start);

            let states: Vec<MemberState> = members
                .iter()
                .map(|t| MemberState {
                    user: t.user(),
                    snr_db: t.mean_recent_snr_db(snr_window).unwrap_or(DEFAULT_SNR_DB),
                    bs: 0,
                })
                .collect();
            let start = Instant::now();
            let demand = predict_group_demand(
                GroupId(gid as u32),
                &states,
                &swiping,
                &recommendation,
                ctx.catalog,
                ctx.cache,
                ctx.transcode,
                ctx.link,
                &self.scheme.demand,
            )?;
            demand_ms += ms_since(start);
            if predicted.next() != Some(&demand) {
                return Err(Error::shape(
                    format!("the scheme's demand for group {gid}"),
                    "a different probe result",
                ));
            }
        }
        Ok(ProbeSample {
            kmeans_fit_ms,
            kmeans_rounds: fit.iterations,
            silhouette_ms,
            silhouette_points,
            swiping_ms,
            recommend_ms,
            demand_ms,
        })
    }
}
