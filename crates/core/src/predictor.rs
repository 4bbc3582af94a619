//! The pluggable demand-predictor API.
//!
//! Every predictor the simulator can score — the paper's DT-assisted
//! scheme, the naive full-watch ablation, the historical-mean EWMA — sits
//! behind the [`DemandPredictor`] trait, so the simulation runner holds a
//! `Box<dyn DemandPredictor>` and new predictors plug in without touching
//! the runner at all.

use msvs_channel::Link;
use msvs_edge::{TranscodeModel, VideoCache};
use msvs_types::{CpuCycles, ResourceBlocks, Result, SimTime};
use msvs_udt::TwinView;
use msvs_video::Catalog;

use crate::baselines::HistoricalMeanPredictor;
use crate::scheme::{DtAssistedPredictor, PredictionOutcome};

/// Everything a predictor may consult when forecasting the next
/// reservation interval. Borrowed from the simulator each pass.
pub struct PredictionContext<'a> {
    /// The user digital twin population (channel, location, watch
    /// histories) — a single [`msvs_udt::UdtStore`] or a merged view over
    /// several per-BS shards.
    pub store: &'a dyn TwinView,
    /// The video catalog.
    pub catalog: &'a Catalog,
    /// The edge video cache (hit/miss state drives transcode demand).
    pub cache: &'a VideoCache,
    /// The transcoding cost model.
    pub transcode: &'a TranscodeModel,
    /// The radio link model.
    pub link: &'a Link,
    /// Simulation time of the prediction pass (degradation gates twin
    /// freshness against this instant).
    pub now: SimTime,
}

/// How the degradation ladder resolved for one prediction pass. Present
/// only when [`crate::DegradationConfig::enabled`] is set, so fault-free
/// runs carry no signal and stay bit-identical to historical behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationSignal {
    /// Fraction of twins with fresh fast attributes at prediction time.
    pub coverage: f64,
    /// Whether coverage fell below the configured threshold (totals fell
    /// back to the historical mean when it had observations).
    pub degraded: bool,
    /// Reservation margin multiplier the caller should apply:
    /// `1 + max_extra_margin * (1 - coverage)`.
    pub margin: f64,
}

/// A predictor's forecast for the coming interval.
#[derive(Debug)]
pub struct Prediction {
    /// Predicted multicast radio demand.
    pub radio: ResourceBlocks,
    /// Predicted edge computing demand.
    pub computing: CpuCycles,
    /// The full pipeline outcome (grouping, swiping abstractions,
    /// recommendations) when the predictor runs the DT pipeline; `None`
    /// for scalar predictors like the historical mean.
    pub outcome: Option<PredictionOutcome>,
    /// Degradation-ladder outcome; `None` when degradation is disabled or
    /// the predictor does not track twin freshness.
    pub degradation: Option<DegradationSignal>,
}

/// A resource-demand predictor the simulator can score.
///
/// Implementations must be [`Send`] so a simulation owning one can move
/// across threads.
pub trait DemandPredictor: Send {
    /// Stable human-readable name (run manifests, journals, reports).
    fn name(&self) -> &'static str;

    /// Forecasts the next interval's resource demand.
    ///
    /// # Errors
    /// Propagates pipeline errors (insufficient twins, shape mismatches).
    fn predict(&mut self, ctx: &PredictionContext<'_>) -> Result<Prediction>;

    /// Wires the predictor into an observability pipeline. Default: no-op.
    fn attach_telemetry(&mut self, _telemetry: msvs_telemetry::Telemetry) {}

    /// Feeds back the interval's *actual* measured demand after playback
    /// (learning predictors fold it into their state). Default: no-op.
    fn observe_actual(&mut self, _radio: ResourceBlocks, _computing: CpuCycles) {}

    /// Pretrains internal models on the current twin population before
    /// scored intervals begin. Default: no-op.
    ///
    /// # Errors
    /// Propagates training errors.
    fn pretrain(&mut self, _store: &dyn TwinView, _rounds: usize) -> Result<()> {
        Ok(())
    }

    /// Installs an embedding-cache backend (the simulator's shards route
    /// each twin's cached encoding to its owning shard). Default: no-op —
    /// scalar predictors run no compressor.
    fn set_embedding_backend(&mut self, _backend: Box<dyn crate::cache::EmbeddingBackend>) {}

    /// Flags users whose cached state must be rebuilt on the next pass
    /// (churned slots, shard restores). Consumed by the incremental
    /// pipeline; exact predictors re-validate everything anyway. Default:
    /// no-op.
    fn note_interval_dirty(&mut self, _users: &[msvs_types::UserId]) {}
}

impl DemandPredictor for DtAssistedPredictor {
    fn name(&self) -> &'static str {
        if self.config().demand.assume_full_watch {
            "naive-full-watch"
        } else {
            "dt-assisted"
        }
    }

    fn predict(&mut self, ctx: &PredictionContext<'_>) -> Result<Prediction> {
        let outcome = DtAssistedPredictor::predict(
            self,
            ctx.store,
            ctx.catalog,
            ctx.cache,
            ctx.transcode,
            ctx.link,
        )?;
        let mut radio = outcome.total_radio();
        let mut computing = outcome.total_computing();
        let deg = self.config().degradation;
        let degradation = if deg.enabled {
            let coverage = ctx.store.fresh_fraction(ctx.now, deg.staleness_horizon);
            let degraded = coverage < deg.coverage_threshold;
            let margin = 1.0 + deg.max_extra_margin * (1.0 - coverage);
            if degraded {
                // Bottom rung: the pipeline ran on stale/imputed twins, so
                // trust the historical mean once it has observations.
                if let Some((rb, cy)) = self.fallback_totals() {
                    radio = rb;
                    computing = cy;
                }
            }
            Some(DegradationSignal {
                coverage,
                degraded,
                margin,
            })
        } else {
            None
        };
        Ok(Prediction {
            radio,
            computing,
            outcome: Some(outcome),
            degradation,
        })
    }

    fn attach_telemetry(&mut self, telemetry: msvs_telemetry::Telemetry) {
        DtAssistedPredictor::attach_telemetry(self, telemetry);
    }

    fn observe_actual(&mut self, radio: ResourceBlocks, computing: CpuCycles) {
        // Keep the fallback EWMA warm so the ladder has somewhere to land.
        self.observe_fallback(radio, computing);
    }

    fn pretrain(&mut self, store: &dyn TwinView, rounds: usize) -> Result<()> {
        self.pretrain_grouping(store, rounds)
    }

    fn set_embedding_backend(&mut self, backend: Box<dyn crate::cache::EmbeddingBackend>) {
        DtAssistedPredictor::set_embedding_backend(self, backend);
    }

    fn note_interval_dirty(&mut self, users: &[msvs_types::UserId]) {
        DtAssistedPredictor::note_interval_dirty(self, users);
    }
}

impl DemandPredictor for HistoricalMeanPredictor {
    fn name(&self) -> &'static str {
        "historical-mean"
    }

    fn predict(&mut self, _ctx: &PredictionContext<'_>) -> Result<Prediction> {
        let (radio, computing) = HistoricalMeanPredictor::predict(self)
            .unwrap_or((ResourceBlocks::ZERO, CpuCycles::ZERO));
        Ok(Prediction {
            radio,
            computing,
            outcome: None,
            degradation: None,
        })
    }

    fn observe_actual(&mut self, radio: ResourceBlocks, computing: CpuCycles) {
        self.observe(radio, computing);
    }
}

/// Scores one predictor while the DT pipeline still produces the grouping
/// the simulator needs to play intervals out.
///
/// The simulation requires a [`PredictionOutcome`] (groups, recommended
/// feeds) every interval regardless of which predictor's *totals* are
/// being scored. `PipelineBacked` runs the full DT pipeline for the
/// outcome, then reports the wrapped predictor's totals — exactly how the
/// historical-mean baseline is evaluated in the paper's experiments.
pub struct PipelineBacked<P> {
    pipeline: DtAssistedPredictor,
    scored: P,
}

impl<P: DemandPredictor> PipelineBacked<P> {
    /// Wraps `scored` around the pipeline that produces groupings.
    pub fn new(pipeline: DtAssistedPredictor, scored: P) -> Self {
        Self { pipeline, scored }
    }

    /// The wrapped scored predictor.
    pub fn scored(&self) -> &P {
        &self.scored
    }
}

impl<P: DemandPredictor> DemandPredictor for PipelineBacked<P> {
    fn name(&self) -> &'static str {
        self.scored.name()
    }

    fn predict(&mut self, ctx: &PredictionContext<'_>) -> Result<Prediction> {
        let outcome = DtAssistedPredictor::predict(
            &mut self.pipeline,
            ctx.store,
            ctx.catalog,
            ctx.cache,
            ctx.transcode,
            ctx.link,
        )?;
        let scored = self.scored.predict(ctx)?;
        Ok(Prediction {
            radio: scored.radio,
            computing: scored.computing,
            outcome: Some(outcome),
            degradation: scored.degradation,
        })
    }

    fn attach_telemetry(&mut self, telemetry: msvs_telemetry::Telemetry) {
        DtAssistedPredictor::attach_telemetry(&mut self.pipeline, telemetry.clone());
        self.scored.attach_telemetry(telemetry);
    }

    fn observe_actual(&mut self, radio: ResourceBlocks, computing: CpuCycles) {
        self.scored.observe_actual(radio, computing);
    }

    fn pretrain(&mut self, store: &dyn TwinView, rounds: usize) -> Result<()> {
        self.pipeline.pretrain_grouping(store, rounds)
    }

    fn set_embedding_backend(&mut self, backend: Box<dyn crate::cache::EmbeddingBackend>) {
        self.pipeline.set_embedding_backend(backend);
    }

    fn note_interval_dirty(&mut self, users: &[msvs_types::UserId]) {
        self.pipeline.note_interval_dirty(users);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn historical_mean_predicts_zero_before_observations() {
        let mut p = HistoricalMeanPredictor::new(0.5).unwrap();
        assert_eq!(DemandPredictor::name(&p), "historical-mean");
        // A context is unused by the EWMA; exercise via observe + the
        // inherent predict to keep the test self-contained.
        DemandPredictor::observe_actual(&mut p, ResourceBlocks(12.0), CpuCycles(3e9));
        let (rb, cy) = HistoricalMeanPredictor::predict(&p).unwrap();
        assert_eq!(rb.value(), 12.0);
        assert_eq!(cy.value(), 3e9);
    }

    #[test]
    fn dt_assisted_name_tracks_full_watch_flag() {
        let dt = DtAssistedPredictor::new(crate::SchemeConfig::default()).unwrap();
        assert_eq!(DemandPredictor::name(&dt), "dt-assisted");
        let mut cfg = crate::SchemeConfig::default();
        cfg.demand.assume_full_watch = true;
        let naive = DtAssistedPredictor::new(cfg).unwrap();
        assert_eq!(DemandPredictor::name(&naive), "naive-full-watch");
    }
}
