//! Telemetry-plane guarantees: the Prometheus exposition of a real run
//! conforms to the text format, the SLO watchdog's breach stream is
//! deterministic across worker-pool and shard-deployment sizes, and the
//! whole plane is observer-effect free — scraping a live run or arming
//! an empty policy leaves the `SimulationReport` bit-identical.

use std::collections::BTreeMap;

use msvs::core::{CompressorConfig, GroupingConfig, SchemeConfig};
use msvs::faults::FaultPlan;
use msvs::sim::{Simulation, SimulationConfig, SimulationReport};
use msvs::telemetry::{expo, flame, Event, MetricsServer, SloPolicy};
use msvs::types::SimDuration;

fn small_scheme() -> SchemeConfig {
    let mut scheme = SchemeConfig {
        compressor: CompressorConfig {
            window: 16,
            epochs: 10,
            ..Default::default()
        },
        grouping: GroupingConfig {
            k_min: 2,
            k_max: 5,
            ..Default::default()
        },
        ..Default::default()
    };
    scheme.demand.interval = SimDuration::from_mins(2);
    scheme
}

fn seeded_config(seed: u64, shards: usize, threads: usize, intervals: usize) -> SimulationConfig {
    SimulationConfig::builder()
        .users(24)
        .base_stations(4)
        .intervals(intervals)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(small_scheme())
        .threads(threads)
        .shards(shards)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

/// A policy over sim-time signals only (no wall-clock stage ceilings), so
/// breach streams are exactly reproducible.
fn sim_time_policy() -> SloPolicy {
    SloPolicy {
        availability_floor: Some(0.9),
        coverage_floor: Some(0.9),
        degraded_budget: Some(0),
        breach_budget: 0,
        ..SloPolicy::none()
    }
}

/// Wall-clock timings differ run to run; everything else must match.
fn strip_wall(mut r: SimulationReport) -> SimulationReport {
    for i in &mut r.intervals {
        i.predict_wall_ms = 0.0;
    }
    r.telemetry = r.telemetry.with_zeroed_timings();
    r
}

/// The `(interval, slo, value, threshold, edge)` stream of a run's
/// journal, with wall-clock-derived rules excluded by construction
/// (the policy has none).
fn slo_stream(sim: &Simulation) -> Vec<(u64, String, f64, f64, &'static str)> {
    sim.telemetry()
        .journal()
        .entries()
        .iter()
        .filter_map(|e| match &e.event {
            Event::SloBreached {
                interval,
                slo,
                value,
                threshold,
            } => Some((*interval, slo.clone(), *value, *threshold, "breached")),
            Event::SloRecovered {
                interval,
                slo,
                value,
                threshold,
            } => Some((*interval, slo.clone(), *value, *threshold, "recovered")),
            _ => None,
        })
        .collect()
}

fn run_with_slo(seed: u64, shards: usize, threads: usize) -> Simulation {
    let mut cfg = seeded_config(seed, shards, threads, 4);
    cfg.faults = Some(FaultPlan::builtin("bs-crash").expect("builtin profile"));
    cfg.slo = Some(sim_time_policy());
    cfg.validate().expect("config with faults and slo is valid");
    let mut sim = Simulation::new(cfg).expect("sim builds");
    sim.warm_up().expect("warm-up runs");
    for i in 0..4 {
        sim.run_interval(i).expect("interval runs");
    }
    sim
}

/// Prometheus text-format conformance over a real run's registry: every
/// line is a `# HELP`, `# TYPE`, or sample line; metric names are legal;
/// every sample belongs to a family announced by a preceding `# TYPE`;
/// sample values parse as floats.
#[test]
fn exposition_of_a_real_run_conforms_to_the_text_format() {
    let sim = run_with_slo(33, 4, 1);
    let body = expo::render_prometheus(sim.telemetry().registry());
    assert!(!body.is_empty(), "a finished run must expose metrics");
    assert!(body.ends_with('\n'), "exposition must end with a newline");
    let legal_name = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = 0usize;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap();
            let kind = it.next().expect("TYPE line names a kind");
            assert!(legal_name(name), "illegal family name `{name}`");
            assert!(
                ["counter", "gauge", "summary"].contains(&kind),
                "unexpected metric kind `{kind}`"
            );
            typed.insert(name.to_string(), kind.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap();
            assert!(legal_name(name), "illegal family name `{name}`");
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment line `{line}`");
        // Sample line: `name{label="v"} value` or `name value`.
        let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value `{value}` must parse as f64"
        );
        let name = name_part.split('{').next().unwrap();
        assert!(legal_name(name), "illegal metric name `{name}`");
        let family = name
            .strip_suffix("_count")
            .or_else(|| name.strip_suffix("_sum"))
            .unwrap_or(name);
        assert!(
            typed.contains_key(family),
            "sample `{name}` has no preceding # TYPE for `{family}`"
        );
        if let Some(labels) = name_part.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "malformed label block `{labels}`"
                );
            }
        }
        samples += 1;
    }
    assert!(samples > 10, "a run exposes many samples, got {samples}");
    // The run's own instruments are all present.
    for family in ["events_total", "stage_ms", "slo_breaches_total"] {
        assert!(typed.contains_key(family), "missing family `{family}`");
    }
}

/// The crash of shard 1 must breach the 0.9 availability floor, and the
/// full breach stream must be bit-identical at 1 vs 4 worker threads.
/// (Availability is cumulative, so a 2-of-4-intervals outage stays
/// breached through the end — no recovery edge is expected here.)
#[test]
fn slo_breach_stream_is_identical_across_thread_counts() {
    let serial = run_with_slo(33, 4, 1);
    let parallel = run_with_slo(33, 4, 4);
    let stream = slo_stream(&serial);
    assert_eq!(
        stream,
        slo_stream(&parallel),
        "breach stream must not depend on the worker-pool size"
    );
    assert!(
        stream
            .iter()
            .any(|(_, slo, _, _, edge)| slo == "availability" && *edge == "breached"),
        "bs-crash must breach the availability floor, got {stream:?}"
    );
}

/// Availability is a shard-plane signal, so the comparison across shard
/// counts covers the deployment-independent rules: the coverage and
/// degraded-budget breach streams must be bit-identical on 1 vs 4 shards
/// under the same `bs-crash` plan (its outage cannot down the only shard
/// of a 1-shard run, which stays at availability 1.0; its 5% uplink loss
/// hits both).
#[test]
fn slo_breach_stream_is_identical_across_shard_counts() {
    let single = run_with_slo(33, 1, 1);
    let sharded = run_with_slo(33, 4, 1);
    let deployment_free = |sim: &Simulation| {
        slo_stream(sim)
            .into_iter()
            .filter(|(_, slo, _, _, _)| slo != "availability")
            .collect::<Vec<_>>()
    };
    assert_eq!(
        deployment_free(&single),
        deployment_free(&sharded),
        "coverage/degraded breach stream must not depend on the shard count"
    );
    assert!(
        slo_stream(&single)
            .iter()
            .all(|(_, slo, _, _, _)| slo != "availability"),
        "the only shard of a 1-shard run is never down"
    );
}

/// Scraping `/metrics` and `/healthz` between every interval must not
/// perturb the run: the report stays bit-identical to an unserved run.
#[test]
fn metrics_server_has_zero_observer_effect() {
    let quiet = strip_wall(Simulation::run(seeded_config(52, 4, 2, 3)).expect("quiet run"));
    let scraped = {
        let mut sim = Simulation::new(seeded_config(52, 4, 2, 3)).expect("sim builds");
        let server = MetricsServer::bind(
            "127.0.0.1:0",
            sim.telemetry().registry().clone(),
            sim.health_board().clone(),
        )
        .expect("server binds an ephemeral port");
        let addr = server.addr();
        sim.warm_up().expect("warm-up runs");
        let mut intervals = Vec::new();
        for i in 0..3 {
            intervals.push(sim.run_interval(i).expect("interval"));
            let metrics = expo::http_get(addr, "/metrics").expect("mid-run scrape");
            assert!(metrics.contains("# TYPE events_total counter"));
            let health = expo::http_get(addr, "/healthz").expect("mid-run health scrape");
            assert!(health.contains("\"state\":\"running\""));
        }
        let report = sim.finish(intervals);
        let health = expo::http_get(addr, "/healthz").expect("final health scrape");
        assert!(health.contains("\"state\":\"finished\""));
        strip_wall(report)
    };
    assert_eq!(
        quiet, scraped,
        "a scraped run must produce a bit-identical report"
    );
}

/// An empty policy builds no watchdog: the report (including its `slo`
/// section) is bit-identical to running with no policy at all — the same
/// noop guarantee the fault plane gives.
#[test]
fn empty_slo_policy_is_bit_identical_to_no_policy() {
    for shards in [1, 4] {
        let clean =
            strip_wall(Simulation::run(seeded_config(61, shards, 1, 2)).expect("clean run"));
        assert!(clean.slo.is_none(), "no policy attaches no slo section");
        let mut cfg = seeded_config(61, shards, 1, 2);
        cfg.slo = Some(SloPolicy::none());
        cfg.validate().expect("empty policy is valid");
        let noop = strip_wall(Simulation::run(cfg).expect("noop-policy run"));
        assert_eq!(
            clean, noop,
            "{shards} shard(s): an empty policy must not perturb the report"
        );
    }
}

/// A live run's span tree collapses into non-empty inferno-style folded
/// stacks whose every line is `stack self_us`.
#[test]
fn run_spans_collapse_into_folded_stacks() {
    let sim = run_with_slo(47, 4, 1);
    let folded = flame::folded_stacks(&flame::from_spans(&sim.telemetry().spans()));
    assert!(!folded.is_empty(), "a run must produce folded stacks");
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("line is `stack count`");
        assert!(!stack.is_empty());
        assert!(
            count.parse::<u64>().is_ok(),
            "self time `{count}` must be integer microseconds"
        );
    }
    assert!(
        folded.lines().any(|l| l.starts_with("interval;")),
        "interval children must appear as stacked frames"
    );
}
