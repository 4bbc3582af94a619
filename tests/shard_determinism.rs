//! Sharded-deployment guarantees: partitioning the pipeline across
//! base-station shards must not change what the simulation computes. A
//! seeded run must produce a bit-identical `SimulationReport` at 1, 2 and
//! 4 shards (after stripping the shard plane's own observability), a
//! sharded run must stay bit-identical across worker-pool sizes, and
//! cross-shard handover under churn storms and a lossy uplink must
//! conserve twins — a mid-handover lost report degrades the cached
//! embedding, never duplicates or drops a twin.

use msvs::core::{CompressorConfig, GroupingConfig, SchemeConfig};
use msvs::shard::ShardSummary;
use msvs::sim::{Simulation, SimulationConfig, SimulationReport};
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

fn sharded_config(seed: u64, shards: usize, threads: usize) -> SimulationConfig {
    SimulationConfig::builder()
        .users(24)
        .base_stations(4)
        .intervals(2)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(small_scheme())
        .threads(threads)
        .shards(shards)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

/// Wall-clock timings differ run to run; everything else must match.
fn strip_wall(mut r: SimulationReport) -> SimulationReport {
    for i in &mut r.intervals {
        i.predict_wall_ms = 0.0;
    }
    r.telemetry = r.telemetry.with_zeroed_timings();
    r
}

/// Removes everything the shard plane itself adds — its summary, its
/// stages, its handover counters, and the embedding-cache hit/miss split
/// (a migrated entry hits where a single cache would too, but a dropped
/// one re-encodes) — leaving only what the pipeline computed. After this,
/// reports at any shard count must be bit-identical.
fn strip_shard_plane(mut r: SimulationReport) -> SimulationReport {
    r.shards = ShardSummary::default();
    r.telemetry
        .counters
        .retain(|(name, _, _)| !name.starts_with("cnn_cache") && !name.starts_with("handover"));
    r.telemetry
        .stages
        .retain(|s| !s.stage.starts_with("shard_"));
    strip_wall(r)
}

#[test]
fn seeded_report_is_bit_identical_across_shard_counts() {
    let baseline = strip_shard_plane(Simulation::run(sharded_config(33, 1, 1)).expect("1 shard"));
    for shards in [2, 4] {
        let partitioned =
            strip_shard_plane(Simulation::run(sharded_config(33, shards, 1)).expect("sharded run"));
        assert_eq!(
            baseline, partitioned,
            "{shards} shards must compute the same report as 1 shard"
        );
    }
}

#[test]
fn sharded_report_is_bit_identical_across_thread_counts() {
    // No shard-plane stripping here: the handover sweep is serial and the
    // snapshot gather is index-ordered, so even the shard counters and
    // per-shard demand rows must match across pool sizes.
    let serial = strip_wall(Simulation::run(sharded_config(47, 4, 1)).expect("serial run"));
    let parallel = strip_wall(Simulation::run(sharded_config(47, 4, 4)).expect("parallel run"));
    assert_eq!(
        serial, parallel,
        "a sharded seeded run must not depend on the worker-pool size"
    );
}

/// Every run attaches a shard summary, one row per shard, at 1 shard as
/// at 4: the rows partition the population and sum back to the globally
/// predicted radio and computing totals.
#[test]
fn shard_summary_reports_per_bs_demand() {
    for shards in [1, 4] {
        let report = Simulation::run(sharded_config(21, shards, 1)).expect("run");
        let summary = &report.shards;
        assert_eq!(summary.shards, shards);
        assert_eq!(summary.demand.len(), shards, "one demand row per shard");
        let users: usize = summary.demand.iter().map(|row| row.users).sum();
        assert_eq!(users, 24, "every user owned by exactly one shard");
        assert!(summary.peak_imbalance >= 1.0);
        let rows = [
            summary.demand.iter().map(|r| r.radio).sum::<f64>(),
            summary.demand.iter().map(|r| r.computing).sum(),
        ];
        let global = [
            report
                .intervals
                .iter()
                .map(|i| i.predicted_radio.value())
                .sum::<f64>(),
            report
                .intervals
                .iter()
                .map(|i| i.predicted_computing.value())
                .sum(),
        ];
        for (row, global) in rows.into_iter().zip(global) {
            assert!(
                (row - global).abs() <= 1e-6 * global.max(1.0),
                "{shards} shard(s): rows ({row}) must sum to the global reservation ({global})"
            );
        }
    }
}

#[test]
fn boundary_crossing_mobility_triggers_conserving_handovers() {
    // All-waypoint mobility keeps everyone walking across cell boundaries.
    let mut cfg = sharded_config(5, 4, 1);
    cfg.mobility = msvs::sim::MobilityMix::all_waypoint();
    cfg.n_intervals = 3;
    let mut sim = Simulation::new(cfg).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    for i in 0..3 {
        sim.run_interval(i).expect("interval runs");
    }
    assert_eq!(sim.store().len(), 24, "handover conserves twins");
    let summary = sim.store().summary();
    assert!(
        summary.handovers_total > 0,
        "walking users must cross cell boundaries"
    );
    let users: usize = summary.demand.iter().map(|row| row.users).sum();
    assert_eq!(users, 24, "no twin duplicated or dropped by migration");
}

/// Churn storm + lossy uplink on a 4-shard deployment: the interaction of
/// mass user replacement, lost uplink reports (including mid-handover
/// ones) and twin migration must conserve the twin population and stay
/// bit-identical across worker-pool sizes.
#[test]
fn handover_under_churn_storm_and_lossy_uplink_conserves_twins() {
    let run = |profile: &str, threads: usize| {
        let mut cfg = sharded_config(91, 4, threads);
        cfg.mobility = msvs::sim::MobilityMix::all_waypoint();
        cfg.faults = Some(msvs::faults::FaultPlan::builtin(profile).expect("builtin"));
        cfg.validate().expect("config with faults is valid");
        Simulation::run(cfg).expect("fault run")
    };
    for profile in ["churn-storm", "lossy-uplink"] {
        let serial = run(profile, 1);
        let summary = &serial.shards;
        let users: usize = summary.demand.iter().map(|row| row.users).sum();
        assert_eq!(
            users, 24,
            "{profile}: churn + lost reports must never duplicate or drop a twin"
        );
        let parallel = run(profile, 4);
        assert_eq!(
            strip_wall(serial),
            strip_wall(parallel),
            "{profile}: sharded fault run must match the single-thread run exactly"
        );
    }
}
