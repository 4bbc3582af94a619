//! Group explorer: drive the DDQN + K-means++ group constructor directly
//! on synthetic user embeddings and compare it against the classical
//! group-count baselines (fixed K, elbow, exhaustive silhouette scan,
//! random).
//!
//! ```text
//! cargo run --release --example group_explorer
//! ```

use std::time::Instant;

use msvs::core::{GroupingConfig, GroupingEngine, GroupingStrategy};
use msvs::rl::EpsilonSchedule;
use msvs::types::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Synthesises `k_true` user archetypes in a 12-dim feature space.
fn population(k_true: usize, per: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for c in 0..k_true {
        let center: Vec<f64> = (0..12)
            .map(|d| (((c * 13 + d * 7) % 11) as f64) * 1.5)
            .collect();
        for _ in 0..per {
            out.push(
                center
                    .iter()
                    .map(|&x| x + stats::normal(&mut rng, 0.0, spread))
                    .collect(),
            );
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k_true = 5;
    let features = population(k_true, 30, 0.4, 11);
    println!(
        "population: {} users in {k_true} latent archetypes\n",
        features.len()
    );

    // Train the DDQN online on this population.
    let mut ddqn = GroupingEngine::new(GroupingConfig {
        k_min: 2,
        k_max: 10,
        epsilon: EpsilonSchedule::linear(1.0, 0.02, 300)?,
        seed: 3,
        ..Default::default()
    })?;
    let t_train = Instant::now();
    ddqn.pretrain(&features, 400)?;
    let train_ms = t_train.elapsed().as_secs_f64() * 1000.0;
    println!("DDQN trained online over 400 constructions in {train_ms:.0} ms\n");

    println!(
        "{:<18} {:>3} {:>12} {:>12}",
        "strategy", "K", "silhouette", "decide (ms)"
    );
    println!("{}", "-".repeat(48));
    for (name, strategy) in [
        ("DDQN (scheme)", GroupingStrategy::Ddqn),
        ("silhouette scan", GroupingStrategy::SilhouetteScan),
        ("elbow", GroupingStrategy::Elbow),
        ("fixed K=4", GroupingStrategy::FixedK(4)),
        ("random K", GroupingStrategy::RandomK),
    ] {
        let mut engine = match strategy {
            // Reuse the trained agent for the DDQN row.
            GroupingStrategy::Ddqn => {
                std::mem::replace(&mut ddqn, GroupingEngine::new(GroupingConfig::default())?)
            }
            _ => GroupingEngine::new(GroupingConfig {
                k_min: 2,
                k_max: 10,
                strategy,
                seed: 3,
                ..Default::default()
            })?,
        };
        let t0 = Instant::now();
        let g = engine.construct(&features)?;
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        println!("{name:<18} {:>3} {:>12.3} {:>12.2}", g.k, g.silhouette, ms);
    }
    println!(
        "\nThe DDQN matches the exhaustive scan's quality at a fraction of\n\
         its decision latency — the paper's \"accurate and timely\" claim."
    );
    Ok(())
}
