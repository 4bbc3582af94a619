//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics, accounting closure, bit-identity against the untraced run).

use std::time::Instant;

use msvs_core::DtAssistedPredictor;
use msvs_sim::{IntervalRecord, Simulation};
use msvs_types::Result;

use crate::gate::{self, Limits, Observation};
use crate::probe::ProbeSample;
use crate::tracer::{name, PredictCall, Span, TracedPredictor, Tracer};
use crate::workload::{resolved_scheme, Workload};

/// Largest share of the wall time (or of one interval) the span sums may
/// leave unaccounted before the closure check fails.
pub const CLOSURE_TOLERANCE: f64 = 0.01;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (NaN if empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Demand-weighted accuracy over the scored intervals:
/// `1 - Σ|predicted - actual| / Σ actual`, clamped to `[0, 1]`.
///
/// The plain mean of per-interval accuracies degenerates once the edge
/// cache holds every popular video: actual computing demand falls to 0
/// and that interval's accuracy reads 0 whatever was predicted, so the
/// mean mostly counts how early a seed's cache saturates.
fn accuracy(observations: &[Observation], demand: fn(&Observation) -> (f64, f64)) -> f64 {
    let (error, actual) = observations
        .iter()
        .map(demand)
        .fold((0.0, 0.0), |(e, a), (p, x)| (e + (p - x).abs(), a + x));
    (1.0 - error / actual).clamp(0.0, 1.0)
}

/// What a driven stretch of scored intervals produced.
#[derive(Debug, Default)]
pub struct Steady {
    /// Gate observations, one per completed interval.
    pub observations: Vec<Observation>,
    /// `predict_wall_ms` of every completed interval.
    pub decision_ms: Vec<f64>,
    /// Wall time of every `run_interval` call, s.
    pub interval_s: Vec<f64>,
    /// Intervals attempted.
    pub attempted: usize,
    /// Intervals that returned an error or failed the gate.
    pub failed: usize,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

fn cache_lookups(sim: &Simulation) -> u64 {
    let t = sim.telemetry();
    t.counter("cnn_cache_hits", "all").get() + t.counter("cnn_cache_misses", "all").get()
}

/// Plays `intervals` scored intervals, gating every one and stopping at
/// the first error. With a tracer, gate bookkeeping runs with its clock
/// stopped.
fn drive(
    sim: &mut Simulation,
    w: &Workload,
    limits: Limits,
    intervals: usize,
    tracer: Option<&Tracer>,
    mut step: impl FnMut(&mut Simulation, usize) -> Result<IntervalRecord>,
) -> Steady {
    let mut out = Steady::default();
    for i in 0..intervals {
        let before = cache_lookups(sim);
        let t = Instant::now();
        let result = step(sim, i);
        let wall = t.elapsed().as_secs_f64();
        out.attempted += 1;
        let record = match result {
            Ok(record) => record,
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("interval {i}: {e}"));
                break;
            }
        };
        let mut observe = || {
            let obs = Observation::capture(&record, sim, w.users, cache_lookups(sim) - before);
            let failures = gate::check(&obs, limits);
            if !failures.is_empty() {
                out.failed += 1;
                out.failures.extend(failures);
            }
            out.observations.push(obs);
        };
        match tracer {
            Some(tracer) => tracer.excluded(observe),
            None => observe(),
        }
        out.decision_ms.push(record.predict_wall_ms);
        out.interval_s.push(wall);
    }
    out
}

fn limits_of(sim_config: &msvs_sim::SimulationConfig) -> Limits {
    Limits {
        k_min: sim_config.scheme.grouping.k_min,
        k_max: sim_config.scheme.grouping.k_max,
    }
}

/// The untraced run's outcome.
#[derive(Debug)]
pub struct Untraced {
    /// Wall time of `Simulation::new` + `warm_up`, s.
    pub setup_s: f64,
    /// The steady state.
    pub steady: Steady,
    /// Resolved worker threads.
    pub threads: usize,
}

impl Untraced {
    /// The end-to-end metrics.
    pub fn metrics(&self, w: &Workload) -> Vec<Metric> {
        let s = &self.steady;
        let steady_s: f64 = s.interval_s.iter().sum();
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("decision_ms.p50", median(&s.decision_ms), "ms"),
            metric(
                "decision_ms.tail",
                quantile(&s.decision_ms, w.tail_quantile()),
                "ms",
            ),
            metric(
                "throughput_user_intervals_per_s",
                (w.users * s.interval_s.len()) as f64 / steady_s,
                "1/s",
            ),
            metric(
                "radio_accuracy",
                accuracy(&s.observations, |o| (o.predicted_radio, o.actual_radio)),
                "ratio",
            ),
            metric(
                "computing_accuracy",
                accuracy(&s.observations, |o| {
                    (o.predicted_computing, o.actual_computing)
                }),
                "ratio",
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric(
                "intervals_ok_frac",
                1.0 - s.failed as f64 / s.attempted.max(1) as f64,
                "ratio",
            ),
        ]
    }
}

/// Sets the workload up once through the public API, then drives it
/// through the scored intervals.
///
/// # Errors
/// Propagates set-up errors (interval errors are counted, not returned).
pub fn untraced(w: &Workload, seed: u64) -> Result<Untraced> {
    let config = w.config(seed)?;
    let limits = limits_of(&config);
    let start = Instant::now();
    let mut sim = Simulation::new(config)?;
    sim.warm_up()?;
    let setup_s = start.elapsed().as_secs_f64();
    let steady = drive(&mut sim, w, limits, w.scored_intervals, None, |sim, i| {
        sim.run_interval(i)
    });
    Ok(Untraced {
        setup_s,
        steady,
        threads: sim.threads(),
    })
}

/// The traced run's outcome.
#[derive(Debug)]
pub struct Traced {
    /// The untraced reference (one set-up, `traced_intervals`).
    pub reference: Steady,
    /// The traced steady state (the same intervals).
    pub steady: Steady,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
    /// Every `plan` call's hit/miss split.
    pub plans: Vec<crate::tracer::PlanCount>,
    /// Probe timings per probed scored prediction.
    pub probes: Vec<ProbeSample>,
    /// Every scored `predict` call, in order.
    pub predicts: Vec<PredictCall>,
    /// Virtual wall time from before `Simulation::with_predictor` to after
    /// the last `run_interval`, µs.
    pub wall_us: f64,
    /// Cross-shard handovers over the run.
    pub handovers: u64,
    /// Resolved worker threads.
    pub threads: usize,
}

/// Runs the untraced reference, then the same seed through the traced
/// wrappers, over the workload's leading `traced_intervals`.
///
/// # Errors
/// Propagates set-up errors.
pub fn traced(w: &Workload, seed: u64) -> Result<Traced> {
    let config = w.config(seed)?;
    let limits = limits_of(&config);
    let reference = {
        let mut sim = Simulation::new(config.clone())?;
        sim.warm_up()?;
        drive(&mut sim, w, limits, w.traced_intervals, None, |sim, i| {
            sim.run_interval(i)
        })
    };

    let tracer = Tracer::new();
    let predictor = TracedPredictor::new(
        DtAssistedPredictor::new(resolved_scheme(&config))?,
        tracer.clone(),
    );
    let start_us = tracer.now_us();
    let mut sim = tracer.span(name::SIM_NEW, || {
        Simulation::with_predictor(config.clone(), Box::new(predictor))
    })?;
    tracer.span(name::WARM_UP, || sim.warm_up())?;
    let steady = drive(
        &mut sim,
        w,
        limits,
        w.traced_intervals,
        Some(&tracer),
        |sim, i| {
            tracer.set_scored(true);
            let record = tracer.span(name::INTERVAL, || sim.run_interval(i));
            tracer.set_scored(false);
            record
        },
    );
    let wall_us = tracer.now_us() - start_us;
    Ok(Traced {
        reference,
        steady,
        spans: tracer.spans(),
        plans: tracer.plans(),
        probes: tracer.probes(),
        predicts: tracer.predicts(),
        wall_us,
        handovers: sim.store().summary().handovers_total,
        threads: sim.threads(),
    })
}

/// One prediction pass split at the boundaries the wrappers observe.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PredictSegments {
    /// The `predict` span, µs.
    total_us: f64,
    /// `snapshot`, µs.
    snapshot_us: f64,
    /// End of `snapshot` to start of `plan` (window extraction, and CNN
    /// training on the first pass), µs.
    prep_us: f64,
    /// `plan`, µs.
    plan_us: f64,
    /// End of `plan` to start of `complete` (CNN encode of the misses), µs.
    encode_us: f64,
    /// `complete`, µs.
    complete_us: f64,
    /// End of `complete` to end of `predict` (grouping and per-group
    /// work), µs.
    post_encode_us: f64,
}

impl PredictSegments {
    /// Sum of the named segments (everything but the call prelude).
    fn named_us(&self) -> f64 {
        self.snapshot_us
            + self.prep_us
            + self.plan_us
            + self.encode_us
            + self.complete_us
            + self.post_encode_us
    }
}

/// Indexes the span tree.
struct Tree<'a> {
    spans: &'a [Span],
    children: Vec<Vec<usize>>,
}

impl<'a> Tree<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        Self { spans, children }
    }

    fn named(&self, name: &'static str) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    fn child(&self, of: usize, name: &str) -> Option<&'a Span> {
        let spans = self.spans;
        self.children[of]
            .iter()
            .map(|&c| &spans[c])
            .find(|s| s.name == name)
    }

    fn child_us(&self, of: usize, names: &[&str]) -> f64 {
        self.children[of]
            .iter()
            .map(|&c| &self.spans[c])
            .filter(|s| names.contains(&s.name))
            .map(Span::dur_us)
            .sum()
    }

    /// Splits the `predict` span `at` into its segments; `None` unless it
    /// holds exactly one snapshot, plan and complete, in that order.
    fn segments(&self, at: usize) -> Option<PredictSegments> {
        let count = |name: &str| {
            self.children[at]
                .iter()
                .filter(|&&c| self.spans[c].name == name)
                .count()
        };
        if [name::SNAPSHOT, name::PLAN, name::COMPLETE]
            .iter()
            .any(|n| count(n) != 1)
        {
            return None;
        }
        let p = &self.spans[at];
        let snap = self.child(at, name::SNAPSHOT)?;
        let plan = self.child(at, name::PLAN)?;
        let done = self.child(at, name::COMPLETE)?;
        let ordered = p.start_us <= snap.start_us
            && snap.end_us <= plan.start_us
            && plan.end_us <= done.start_us
            && done.end_us <= p.end_us;
        ordered.then(|| PredictSegments {
            total_us: p.dur_us(),
            snapshot_us: snap.dur_us(),
            prep_us: plan.start_us - snap.end_us,
            plan_us: plan.dur_us(),
            encode_us: done.start_us - plan.end_us,
            complete_us: done.dur_us(),
            post_encode_us: p.end_us - done.end_us,
        })
    }
}

/// The accounting checks over a traced run, as failure lines.
///
/// 1. Set-up spans plus interval root spans sum to the run's wall time.
/// 2. Per scored interval, world self time (`run_interval` minus its
///    predictor calls) plus the predictor's named segments sums to the
///    interval span.
/// 3. Per unprobed scored interval, the `predict` span agrees with the
///    program's own clock, `IntervalRecord::predict_wall_ms`.
///
/// All within [`CLOSURE_TOLERANCE`]. The first two catch a malformed span
/// tree: world time is defined as the interval minus its predictor calls,
/// so on a well-formed tree they hold by construction. The third compares
/// the spans with a clock the benchmark does not own.
pub fn closure_failures(t: &Traced) -> Vec<String> {
    let tree = Tree::new(&t.spans);
    let mut failures = Vec::new();
    let roots: f64 = t
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_us)
        .sum();
    let gap = (t.wall_us - roots).abs() / t.wall_us;
    if gap.is_nan() || gap > CLOSURE_TOLERANCE {
        failures.push(format!(
            "root spans cover {roots:.0} of {:.0} us ({:.3}% unaccounted)",
            t.wall_us,
            gap * 100.0
        ));
    }
    for (n, iv) in tree.named(name::INTERVAL).enumerate() {
        let root = t.spans[iv].dur_us();
        let predicts: Vec<usize> = tree.children[iv]
            .iter()
            .copied()
            .filter(|&c| t.spans[c].name == name::PREDICT)
            .collect();
        let Some(segments) = predicts
            .iter()
            .map(|&p| tree.segments(p))
            .collect::<Option<Vec<_>>>()
            .filter(|s| s.len() == 1)
        else {
            failures.push(format!("interval {n}: predict spans are malformed"));
            continue;
        };
        let world = root - tree.child_us(iv, &[name::PREDICT]);
        let named: f64 = segments.iter().map(PredictSegments::named_us).sum();
        let gap = (root - world - named).abs() / root;
        if world < 0.0 || gap.is_nan() || gap > CLOSURE_TOLERANCE {
            failures.push(format!(
                "interval {n}: world {world:.0} + predictor {named:.0} vs {root:.0} us"
            ));
        }
    }
    let predict_us: Vec<f64> = tree
        .named(name::PREDICT)
        .filter(|&i| t.spans[i].scored)
        .map(|i| t.spans[i].dur_us())
        .collect();
    if predict_us.len() != t.predicts.len() || predict_us.len() != t.steady.decision_ms.len() {
        failures.push(format!(
            "{} scored predict spans, {} predict calls, {} interval records",
            predict_us.len(),
            t.predicts.len(),
            t.steady.decision_ms.len()
        ));
        return failures;
    }
    let unprobed = predict_us
        .iter()
        .zip(&t.predicts)
        .zip(&t.steady.decision_ms)
        .enumerate()
        .filter(|(_, ((_, call), _))| !call.probed);
    for (n, ((span_us, _), &wall_ms)) in unprobed {
        let gap = (span_us / 1e3 - wall_ms).abs() / wall_ms;
        if gap.is_nan() || gap > CLOSURE_TOLERANCE {
            failures.push(format!(
                "interval {n}: predict span {span_us:.0} us vs the program's {wall_ms:.3} ms"
            ));
        }
    }
    failures
}

impl Traced {
    /// The per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let tree = Tree::new(&self.spans);
        let spans = &self.spans;
        let ms = |us: f64| us / 1e3;
        let s = |us: f64| us / 1e6;
        let first = |n: &'static str| tree.named(n).next();

        let sim_new = first(name::SIM_NEW).map_or(f64::NAN, |i| spans[i].dur_us());
        let warm_world = first(name::WARM_UP).map_or(f64::NAN, |i| {
            spans[i].dur_us() - tree.child_us(i, &[name::PREDICT, name::PRETRAIN])
        });
        let world: Vec<f64> = tree
            .named(name::INTERVAL)
            .map(|i| ms(spans[i].dur_us() - tree.child_us(i, &[name::PREDICT])))
            .collect();
        let cnn_train = first(name::PREDICT)
            .and_then(|i| tree.segments(i))
            .map_or(f64::NAN, |seg| seg.prep_us);
        let (pretrain, pretrain_grouping) =
            first(name::PRETRAIN).map_or((f64::NAN, f64::NAN), |i| {
                let grouping = tree
                    .child(i, name::COMPLETE)
                    .map_or(f64::NAN, |c| spans[i].end_us - c.end_us);
                (spans[i].dur_us(), grouping)
            });
        let scored: Vec<PredictSegments> = tree
            .named(name::PREDICT)
            .filter(|&i| spans[i].scored)
            .filter_map(|i| tree.segments(i))
            .collect();
        let seg = |f: fn(&PredictSegments) -> f64| -> Vec<f64> {
            scored.iter().map(|x| ms(f(x))).collect()
        };
        let plans: Vec<_> = self.plans.iter().filter(|p| p.scored).collect();
        let hits: usize = plans.iter().map(|p| p.hits).sum();
        let misses: usize = plans.iter().map(|p| p.misses).sum();
        let encode_us: f64 = scored.iter().map(|x| x.encode_us).sum();
        let probe = |f: fn(&ProbeSample) -> f64| -> f64 {
            median(&self.probes.iter().map(f).collect::<Vec<_>>())
        };
        let construct: Vec<f64> = self.predicts.iter().map(|p| p.grouping_ms).collect();
        let traced_steady: f64 = tree
            .named(name::INTERVAL)
            .map(|i| s(spans[i].dur_us()))
            .sum();
        let reference_steady: f64 = self.reference.interval_s.iter().sum();

        vec![
            metric("sim.new_s", s(sim_new), "s"),
            metric("sim.warmup_world_s", s(warm_world), "s"),
            metric("sim.world_ms.p50", median(&world), "ms"),
            metric("scheme.cnn_train_s", s(cnn_train), "s"),
            metric("scheme.pretrain_s", s(pretrain), "s"),
            metric("scheme.pretrain_grouping_s", s(pretrain_grouping), "s"),
            metric("scheme.predict_ms.p50", median(&seg(|x| x.total_us)), "ms"),
            metric(
                "scheme.post_encode_ms.p50",
                median(&seg(|x| x.post_encode_us)),
                "ms",
            ),
            metric(
                "twins.snapshot_ms.p50",
                median(&seg(|x| x.snapshot_us)),
                "ms",
            ),
            metric("shard.handovers", self.handovers as f64, "count"),
            metric("cache.plan_ms.p50", median(&seg(|x| x.plan_us)), "ms"),
            metric(
                "cache.complete_ms.p50",
                median(&seg(|x| x.complete_us)),
                "ms",
            ),
            metric("cache.hits", hits as f64, "count"),
            metric("cache.misses", misses as f64, "count"),
            metric(
                "cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
            metric("cnn.encode_ms.p50", median(&seg(|x| x.encode_us)), "ms"),
            metric(
                "cnn.encode_us_per_user",
                if misses == 0 {
                    0.0
                } else {
                    encode_us / misses as f64
                },
                "us",
            ),
            metric("kmeans.fit_ms.p50", probe(|p| p.kmeans_fit_ms), "ms"),
            metric("kmeans.rounds", probe(|p| p.kmeans_rounds as f64), "count"),
            metric("silhouette.ms.p50", probe(|p| p.silhouette_ms), "ms"),
            metric(
                "silhouette.points",
                probe(|p| p.silhouette_points as f64),
                "count",
            ),
            metric("grouping.construct_ms.p50", median(&construct), "ms"),
            metric("swiping.ms", probe(|p| p.swiping_ms), "ms"),
            metric("recommend.ms", probe(|p| p.recommend_ms), "ms"),
            metric("demand.ms", probe(|p| p.demand_ms), "ms"),
            metric(
                "trace.overhead_frac",
                traced_steady / reference_steady - 1.0,
                "ratio",
            ),
        ]
    }
}

/// Peak resident set of this process (`VmHWM`), MB; NaN where unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
