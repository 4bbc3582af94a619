//! Spans recorded from the benchmark's own code around calls into the
//! program's public layer interfaces, plus the wrappers that record them.
//!
//! The clock is virtual: time spent copying probe inputs and running
//! probes is subtracted from it, so no span (and no closure sum) pays
//! for the benchmark's own bookkeeping.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use msvs_core::{
    CachePlan, DemandPredictor, DtAssistedPredictor, EmbeddingBackend, EmbeddingCache, Prediction,
    PredictionContext,
};
use msvs_telemetry::{stages, Telemetry, STAGE_MS};
use msvs_types::{CpuCycles, ResourceBlocks, Result, SimDuration, SimTime, UserId};
use msvs_udt::{TwinView, UserDigitalTwin};

use crate::probe::{ProbeSample, Prober};

/// Span names. Each wraps exactly one kind of call.
pub mod name {
    /// `Simulation::with_predictor`.
    pub const SIM_NEW: &str = "sim.new";
    /// `Simulation::warm_up`.
    pub const WARM_UP: &str = "sim.warm_up";
    /// `Simulation::run_interval`.
    pub const INTERVAL: &str = "sim.run_interval";
    /// `DemandPredictor::predict`.
    pub const PREDICT: &str = "scheme.predict";
    /// `DemandPredictor::pretrain`.
    pub const PRETRAIN: &str = "scheme.pretrain";
    /// `TwinView::snapshot`.
    pub const SNAPSHOT: &str = "twins.snapshot";
    /// `EmbeddingBackend::plan` / `plan_incremental`.
    pub const PLAN: &str = "cache.plan";
    /// `EmbeddingBackend::complete`.
    pub const COMPLETE: &str = "cache.complete";
}

/// One closed span, in virtual microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (one of [`name`]).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Virtual start time, µs.
    pub start_us: f64,
    /// Virtual end time, µs.
    pub end_us: f64,
    /// Whether the call belonged to a scored interval.
    pub scored: bool,
}

impl Span {
    /// Duration, µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One scored `predict` call, beside its span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictCall {
    /// What the program's own `stage_ms` timers recorded for the grouping
    /// stages (DDQN pick, K-means fit, silhouette, DDQN training step)
    /// during the call, ms: `GroupingEngine::construct` as the scheme ran
    /// it, at the K its agent picked.
    pub grouping_ms: f64,
    /// Whether the probes ran after it. They run inside the program's own
    /// predict timer, so `IntervalRecord::predict_wall_ms` includes them.
    pub probed: bool,
}

/// Hit/miss split of one `plan` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCount {
    /// Twins handed to `plan`.
    pub twins: usize,
    /// Served from the cache.
    pub hits: usize,
    /// Sent to the CNN.
    pub misses: usize,
    /// Whether the call belonged to a scored interval.
    pub scored: bool,
}

#[derive(Debug)]
struct State {
    origin: Instant,
    excluded: Duration,
    spans: Vec<Span>,
    open: Vec<usize>,
    scored: bool,
    plans: Vec<PlanCount>,
    probing: bool,
    features: Option<Vec<Vec<f64>>>,
    probes: Vec<ProbeSample>,
    predicts: Vec<PredictCall>,
}

impl State {
    fn now_us(&self) -> f64 {
        (self.origin.elapsed() - self.excluded).as_secs_f64() * 1e6
    }
}

/// Shared span recorder (cheap to clone; every wrapper holds one).
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Mutex<State>>);

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose virtual clock starts now.
    pub fn new() -> Self {
        Tracer(Arc::new(Mutex::new(State {
            origin: Instant::now(),
            excluded: Duration::ZERO,
            spans: Vec::new(),
            open: Vec::new(),
            scored: false,
            plans: Vec::new(),
            probing: false,
            features: None,
            probes: Vec::new(),
            predicts: Vec::new(),
        })))
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.0
            .lock()
            .expect("tracer lock poisoned by a panicking benchmark thread")
    }

    /// Virtual time, µs: wall time since start minus excluded time.
    pub fn now_us(&self) -> f64 {
        self.state().now_us()
    }

    /// Marks the calls that follow as part of a scored interval (or not).
    pub fn set_scored(&self, scored: bool) {
        self.state().scored = scored;
    }

    /// Whether the calls in flight belong to a scored interval.
    pub fn scored(&self) -> bool {
        self.state().scored
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut s = self.state();
            let now = s.now_us();
            let span = Span {
                name,
                parent: s.open.last().copied(),
                start_us: now,
                end_us: now,
                scored: s.scored,
            };
            s.spans.push(span);
            let idx = s.spans.len() - 1;
            s.open.push(idx);
            idx
        };
        let out = f();
        let mut s = self.state();
        s.spans[idx].end_us = s.now_us();
        let top = s.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in stack order");
        out
    }

    /// Runs `f` with the virtual clock stopped: its time shows in no span.
    pub fn excluded<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.state().excluded += start.elapsed();
        out
    }

    fn record_plan(&self, count: PlanCount) {
        self.state().plans.push(count);
    }

    fn set_probing(&self, probing: bool) {
        self.state().probing = probing;
    }

    fn keep_features(&self, features: &[Vec<f64>]) {
        if !self.state().probing {
            return;
        }
        self.excluded(|| {
            let copy = features.to_vec();
            self.state().features = Some(copy);
        });
    }

    fn take_features(&self) -> Option<Vec<Vec<f64>>> {
        self.state().features.take()
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Every `plan` call's hit/miss split, in call order.
    pub fn plans(&self) -> Vec<PlanCount> {
        self.state().plans.clone()
    }

    fn record_probe(&self, sample: ProbeSample) {
        self.state().probes.push(sample);
    }

    /// Probe timings, one per probed scored prediction.
    pub fn probes(&self) -> Vec<ProbeSample> {
        self.state().probes.clone()
    }

    fn record_predict(&self, call: PredictCall) {
        self.state().predicts.push(call);
    }

    /// Every scored `predict` call, in call order.
    pub fn predicts(&self) -> Vec<PredictCall> {
        self.state().predicts.clone()
    }
}

/// [`TwinView`] wrapper timing `snapshot`.
struct TracedView<'a> {
    inner: &'a dyn TwinView,
    tracer: &'a Tracer,
}

impl TwinView for TracedView<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fresh_fraction(&self, now: SimTime, horizon: SimDuration) -> f64 {
        self.inner.fresh_fraction(now, horizon)
    }

    fn snapshot(&self) -> Vec<UserDigitalTwin> {
        self.tracer.span(name::SNAPSHOT, || self.inner.snapshot())
    }
}

/// [`EmbeddingBackend`] wrapper timing `plan` and `complete`, counting
/// hits and misses, and keeping the feature matrix of probed predictions.
#[derive(Debug)]
struct TracedBackend {
    inner: Box<dyn EmbeddingBackend>,
    tracer: Tracer,
}

impl TracedBackend {
    fn counted(&self, twins: usize, plan: CachePlan) -> CachePlan {
        self.tracer.record_plan(PlanCount {
            twins,
            hits: plan.hits,
            misses: plan.miss_indices.len(),
            scored: self.tracer.scored(),
        });
        plan
    }
}

impl EmbeddingBackend for TracedBackend {
    fn plan(&mut self, generation: u64, twins: &[UserDigitalTwin]) -> CachePlan {
        let plan = self
            .tracer
            .span(name::PLAN, || self.inner.plan(generation, twins));
        self.counted(twins.len(), plan)
    }

    fn plan_incremental(
        &mut self,
        generation: u64,
        twins: &[UserDigitalTwin],
        dirty: &std::collections::HashSet<UserId>,
    ) -> CachePlan {
        let plan = self.tracer.span(name::PLAN, || {
            self.inner.plan_incremental(generation, twins, dirty)
        });
        self.counted(twins.len(), plan)
    }

    fn complete(
        &mut self,
        twins: &[UserDigitalTwin],
        plan: &CachePlan,
        fresh: Vec<Vec<f64>>,
    ) -> Vec<Vec<f64>> {
        let features = self
            .tracer
            .span(name::COMPLETE, || self.inner.complete(twins, plan, fresh));
        self.tracer.keep_features(&features);
        features
    }
}

/// Grouping stages whose `stage_ms` timers together time one
/// `GroupingEngine::construct`.
const GROUPING_STAGES: [&str; 4] = [
    stages::DDQN_SELECT_K,
    stages::KMEANS_FIT,
    stages::SILHOUETTE,
    stages::DDQN_TRAIN,
];

/// Total the program's `stage_ms` timers have recorded for the grouping
/// stages so far, ms; NaN without telemetry.
fn grouping_stage_ms(telemetry: Option<&Telemetry>) -> f64 {
    telemetry.map_or(f64::NAN, |t| {
        GROUPING_STAGES
            .iter()
            .map(|&stage| {
                let h = t.registry().histogram(STAGE_MS, stage);
                h.mean() * h.count() as f64
            })
            .sum()
    })
}

/// [`DemandPredictor`] wrapper around the paper's scheme: spans around
/// `predict` and `pretrain`, a traced twin view in the context it passes
/// on, a traced embedding backend installed underneath, and the probes
/// run (clock stopped) after the first scored prediction and every
/// [`crate::probe::PROBE_EVERY`]th one after it.
pub struct TracedPredictor {
    inner: DtAssistedPredictor,
    tracer: Tracer,
    prober: Prober,
    telemetry: Option<Telemetry>,
}

impl TracedPredictor {
    /// Wraps `inner`, installing a traced single-store embedding cache;
    /// a sharded simulator replaces it through `set_embedding_backend`,
    /// which wraps the sharded backend the same way.
    pub fn new(mut inner: DtAssistedPredictor, tracer: Tracer) -> Self {
        inner.set_embedding_backend(Box::new(TracedBackend {
            inner: Box::new(EmbeddingCache::new()),
            tracer: tracer.clone(),
        }));
        let prober = Prober::new(inner.config());
        Self {
            inner,
            tracer,
            prober,
            telemetry: None,
        }
    }
}

impl DemandPredictor for TracedPredictor {
    fn name(&self) -> &'static str {
        DemandPredictor::name(&self.inner)
    }

    fn predict(&mut self, ctx: &PredictionContext<'_>) -> Result<Prediction> {
        let view = TracedView {
            inner: ctx.store,
            tracer: &self.tracer,
        };
        let traced = PredictionContext {
            store: &view,
            catalog: ctx.catalog,
            cache: ctx.cache,
            transcode: ctx.transcode,
            link: ctx.link,
            now: ctx.now,
        };
        let inner = &mut self.inner;
        let scored = self.tracer.scored();
        let probed = scored && self.prober.due();
        self.tracer.set_probing(probed);
        let telemetry = self.telemetry.as_ref();
        let before = self.tracer.excluded(|| grouping_stage_ms(telemetry));
        let prediction = self
            .tracer
            .span(name::PREDICT, || DemandPredictor::predict(inner, &traced))?;
        let grouping_ms = self.tracer.excluded(|| grouping_stage_ms(telemetry)) - before;
        self.tracer.set_probing(false);
        if scored {
            self.tracer.record_predict(PredictCall {
                grouping_ms,
                probed,
            });
        }
        if let (Some(outcome), Some(features)) =
            (prediction.outcome.as_ref(), self.tracer.take_features())
        {
            let prober = &mut self.prober;
            let sample = self
                .tracer
                .excluded(|| prober.probe(ctx, outcome, &features))?;
            self.tracer.record_probe(sample);
        }
        Ok(prediction)
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry.clone());
        DemandPredictor::attach_telemetry(&mut self.inner, telemetry);
    }

    fn observe_actual(&mut self, radio: ResourceBlocks, computing: CpuCycles) {
        DemandPredictor::observe_actual(&mut self.inner, radio, computing);
    }

    fn pretrain(&mut self, store: &dyn TwinView, rounds: usize) -> Result<()> {
        let view = TracedView {
            inner: store,
            tracer: &self.tracer,
        };
        let inner = &mut self.inner;
        self.tracer.span(name::PRETRAIN, || {
            DemandPredictor::pretrain(inner, &view, rounds)
        })
    }

    fn set_embedding_backend(&mut self, backend: Box<dyn EmbeddingBackend>) {
        DemandPredictor::set_embedding_backend(
            &mut self.inner,
            Box::new(TracedBackend {
                inner: backend,
                tracer: self.tracer.clone(),
            }),
        );
    }

    fn note_interval_dirty(&mut self, users: &[UserId]) {
        DemandPredictor::note_interval_dirty(&mut self.inner, users);
    }
}
