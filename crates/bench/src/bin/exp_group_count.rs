//! E2 (extension): "accurate and timely" group construction — the DDQN's
//! chosen K, clustering quality, and decision latency vs the classical
//! group-count selectors, over growing populations.
//!
//! ```text
//! cargo run --release -p msvs-bench --bin exp_group_count
//! ```

use std::time::Instant;

use msvs_bench::archetype_features;
use msvs_core::{GroupingConfig, GroupingEngine, GroupingStrategy};
use msvs_rl::EpsilonSchedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("# E2 — group-count selection: quality and decision latency");
    println!(
        "{:>7} {:<17} {:>4} {:>12} {:>13}",
        "users", "strategy", "K", "silhouette", "decide (ms)"
    );
    for &(k_true, per) in &[(4usize, 15usize), (5, 40), (6, 67)] {
        let features = archetype_features(k_true, per, 0.4, 3);
        let n = features.len();
        // Train the DDQN once per population.
        let mut ddqn = GroupingEngine::new(GroupingConfig {
            k_min: 2,
            k_max: 10,
            epsilon: EpsilonSchedule::linear(1.0, 0.02, 300)?,
            seed: 5,
            ..Default::default()
        })?;
        ddqn.pretrain(&features, 350)?;

        for (name, strategy) in [
            ("DDQN (scheme)", None),
            ("silhouette scan", Some(GroupingStrategy::SilhouetteScan)),
            ("elbow", Some(GroupingStrategy::Elbow)),
            ("random K", Some(GroupingStrategy::RandomK)),
        ] {
            let mut engine = match strategy {
                None => {
                    std::mem::replace(&mut ddqn, GroupingEngine::new(GroupingConfig::default())?)
                }
                Some(s) => GroupingEngine::new(GroupingConfig {
                    k_min: 2,
                    k_max: 10,
                    strategy: s,
                    seed: 5,
                    ..Default::default()
                })?,
            };
            // Median of 5 timed constructions.
            let mut times = Vec::new();
            let mut last = None;
            for _ in 0..5 {
                let t0 = Instant::now();
                last = Some(engine.construct(&features)?);
                times.push(t0.elapsed().as_secs_f64() * 1000.0);
            }
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            let g = last.expect("constructed");
            println!(
                "{n:>7} {name:<17} {:>4} {:>12.3} {:>13.2}",
                g.k, g.silhouette, times[2]
            );
            if strategy.is_none() {
                ddqn = engine; // put the trained agent back
            }
        }
        println!();
    }
    println!(
        "# expectation: DDQN tracks the scan's silhouette at near-elbow\n\
         # latency; the gap widens with population size (the scan re-runs\n\
         # K-means plus an O(n^2) silhouette for every candidate K)."
    );
    Ok(())
}
