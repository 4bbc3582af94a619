//! E13 (extension): multi-BS sharded deployment — per-BS demand
//! attribution, handover volume, and load imbalance as the pipeline is
//! partitioned across 1/2/4/8 base-station shards.
//!
//! Successor to E8's accounting comparison: the shard plane attributes
//! the predicted reservation to the shard that owns each user's twin, so
//! the tables below are the per-BS view an operator provisions from.
//! Seeded reports are bit-identical at any shard count (see
//! `tests/shard_determinism.rs`); only the attribution and the handover
//! counters change.
//!
//! ```text
//! cargo run --release -p msvs-bench --bin exp_shards
//! ```

use msvs_bench::paper_scenario;
use msvs_sim::{MobilityMix, Simulation, SimulationConfig};

fn main() {
    println!("# E13 — sharded deployment: per-BS demand attribution");
    println!(
        "{:>7} {:>14} {:>11} {:>10} {:>15}",
        "shards", "radio acc (%)", "handovers", "emb drops", "peak imbalance"
    );
    let mut tables = String::new();
    for shards in [1usize, 2, 4, 8] {
        let cfg = SimulationConfig {
            n_bs: 8,
            shards,
            mobility: MobilityMix::all_waypoint(),
            ..paper_scenario(120, 10, 42)
        };
        let report = Simulation::run(cfg).expect("simulation runs");
        let acc = 100.0 * report.mean_radio_accuracy();
        let s = &report.shards;
        println!(
            "{shards:>7} {acc:>14.1} {:>11} {:>10} {:>15.2}",
            s.handovers_total, s.embeddings_dropped_total, s.peak_imbalance
        );
        tables.push_str(&format!(
            "\n# per-BS demand, {shards} shards (summed over scored intervals)\n"
        ));
        tables.push_str(&format!(
            "{:>7} {:>7} {:>14} {:>18} {:>11} {:>11}\n",
            "shard", "users", "radio (RB)", "computing (Gcyc)", "cache hits", "misses"
        ));
        for row in &s.demand {
            tables.push_str(&format!(
                "{:>7} {:>7} {:>14.1} {:>18.2} {:>11} {:>11}\n",
                row.shard,
                row.users,
                row.radio,
                row.computing / 1e9,
                row.video_cache_hits,
                row.video_cache_misses,
            ));
        }
    }
    print!("{tables}");
    println!(
        "\n# expectation: accuracy is identical at every shard count (the\n\
         # report is bit-identical; only attribution changes). Handover\n\
         # volume grows with the shard count as waypoint mobility crosses\n\
         # more cell boundaries, and the per-shard rows always sum to the\n\
         # global reservation."
    );
}
