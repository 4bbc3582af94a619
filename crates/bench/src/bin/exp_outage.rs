//! E14 (extension): control-plane fault tolerance — availability vs
//! prediction accuracy when base-station shards go dark.
//!
//! Runs the E13 sharded scenario clean, under `bs-flap` (two one-interval
//! partitions of shard 1 — users pinned in place with a severed uplink,
//! falling into the degradation ladder) and under `bs-crash` (shard 1
//! killed for two intervals — users failed over to live neighbours, the
//! shard restored from its boundary checkpoint). The twin population is
//! conserved through every kill/failover/restore cycle
//! (`tests/shard_outage.rs`); what this harness measures is the *price*
//! of each outage mode: accuracy and coverage lost per point of
//! availability given up.
//!
//! ```text
//! cargo run --release -p msvs-bench --bin exp_outage
//! ```

use msvs_bench::paper_scenario;
use msvs_faults::FaultPlan;
use msvs_sim::{MobilityMix, Simulation, SimulationConfig};

fn main() {
    println!("# E14 — shard outages: availability vs accuracy");
    println!(
        "{:>10} {:>14} {:>13} {:>10} {:>10} {:>10} {:>12}",
        "profile", "radio acc (%)", "coverage (%)", "degraded", "outages", "failover", "avail (%)"
    );
    for profile in ["clean", "bs-flap", "bs-crash"] {
        let mut cfg = SimulationConfig {
            n_bs: 8,
            shards: 4,
            mobility: MobilityMix::all_waypoint(),
            ..paper_scenario(120, 10, 42)
        };
        if profile != "clean" {
            cfg.faults = Some(FaultPlan::builtin(profile).expect("builtin profile"));
            cfg.validate().expect("config with faults is valid");
        }
        let report = Simulation::run(cfg).expect("simulation runs");
        let acc = 100.0 * report.mean_radio_accuracy();
        let coverage = report
            .mean_twin_coverage()
            .map_or("-".to_string(), |c| format!("{:.1}", 100.0 * c));
        let degraded = format!("{}/{}", report.degraded_intervals(), report.intervals.len());
        let summary = &report.shards;
        let worst_avail = summary
            .demand
            .iter()
            .map(|r| r.availability)
            .fold(1.0f64, f64::min);
        println!(
            "{profile:>10} {acc:>14.1} {coverage:>13} {degraded:>10} {:>10} {:>10} {:>12.1}",
            summary.outages_total,
            summary.failover_handovers_total,
            100.0 * worst_avail,
        );
    }
    println!(
        "\n# expectation: bs-crash trades handover churn for continuity —\n\
         # failed-over users keep reporting, so coverage and accuracy hold\n\
         # near the clean run. bs-flap keeps users pinned behind a severed\n\
         # uplink: coverage dips while the degradation ladder (stale -> \n\
         # historical mean, widened margins) bounds the accuracy loss.\n\
         # Availability is per-shard down-time over scored intervals; the\n\
         # twin population is conserved in every mode."
    );
}
