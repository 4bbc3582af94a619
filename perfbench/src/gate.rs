//! The correctness gate: what every scored interval must satisfy, and the
//! digest that pins its prediction and accuracy fields.

use msvs_sim::{IntervalRecord, Simulation};

/// What the gate checks about one scored interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Scored interval index.
    pub index: usize,
    /// Group count the scheme chose.
    pub k: usize,
    /// Silhouette of the grouping.
    pub silhouette: f64,
    /// Predicted total radio demand, RBs.
    pub predicted_radio: f64,
    /// Predicted total computing demand, cycles.
    pub predicted_computing: f64,
    /// Measured total radio demand, RBs.
    pub actual_radio: f64,
    /// Measured total computing demand, cycles.
    pub actual_computing: f64,
    /// Radio accuracy.
    pub radio_accuracy: f64,
    /// Computing accuracy.
    pub computing_accuracy: f64,
    /// Users the simulator holds (after churn).
    pub users: usize,
    /// Twins the store holds.
    pub twins: usize,
    /// Distinct users the grouping assigned, each to a group below `k`.
    pub assigned: usize,
    /// Embedding-cache hits + misses for the interval's encode pass.
    pub cache_lookups: u64,
}

impl Observation {
    /// Reads the interval's fields from its record and the simulator.
    /// `users` is the configured population (churn replaces users one for
    /// one); `cache_lookups` is the growth of the `cnn_cache_hits` +
    /// `cnn_cache_misses` counters over the interval.
    pub fn capture(
        record: &IntervalRecord,
        sim: &Simulation,
        users: usize,
        cache_lookups: u64,
    ) -> Self {
        let assigned = sim.last_outcome().map_or(0, |o| {
            let in_range = o.grouping.assignments.iter().all(|&a| a < o.grouping.k);
            let mut order = o.user_order.clone();
            order.sort_unstable();
            order.dedup();
            if in_range && o.grouping.assignments.len() == o.user_order.len() {
                order.len()
            } else {
                0
            }
        });
        Self {
            index: record.index,
            k: record.k,
            silhouette: record.silhouette,
            predicted_radio: record.predicted_radio.value(),
            predicted_computing: record.predicted_computing.value(),
            actual_radio: record.actual_radio.value(),
            actual_computing: record.actual_computing.value(),
            radio_accuracy: record.radio_accuracy,
            computing_accuracy: record.computing_accuracy,
            users,
            twins: sim.store().len(),
            assigned,
            cache_lookups,
        }
    }

    /// The fields the traced and untraced runs must agree on, as bits.
    pub fn fingerprint(&self) -> [u64; 9] {
        [
            self.k as u64,
            self.silhouette.to_bits(),
            self.predicted_radio.to_bits(),
            self.predicted_computing.to_bits(),
            self.actual_radio.to_bits(),
            self.actual_computing.to_bits(),
            self.radio_accuracy.to_bits(),
            self.computing_accuracy.to_bits(),
            self.assigned as u64,
        ]
    }
}

/// Admissible group-count range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Smallest K.
    pub k_min: usize,
    /// Largest K.
    pub k_max: usize,
}

/// Every violated condition of one interval (empty = passes).
pub fn check(obs: &Observation, limits: Limits) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |what: String| failures.push(format!("interval {}: {what}", obs.index));
    // Every group multicasts, so radio demand is positive. Computing
    // demand is transcoding of uncached videos: once the edge cache holds
    // every recommended video it is exactly 0, and so is the actual.
    if !(obs.predicted_radio.is_finite() && obs.predicted_radio > 0.0) {
        fail(format!(
            "predicted_radio = {} is not finite and positive",
            obs.predicted_radio
        ));
    }
    if !(obs.predicted_computing.is_finite() && obs.predicted_computing >= 0.0) {
        fail(format!(
            "predicted_computing = {} is not finite and non-negative",
            obs.predicted_computing
        ));
    }
    for (field, v) in [
        ("radio_accuracy", obs.radio_accuracy),
        ("computing_accuracy", obs.computing_accuracy),
    ] {
        if !(0.0..=1.0).contains(&v) {
            fail(format!("{field} = {v} is outside [0, 1]"));
        }
    }
    if !(limits.k_min..=limits.k_max).contains(&obs.k) {
        fail(format!(
            "k = {} is outside [{}, {}]",
            obs.k, limits.k_min, limits.k_max
        ));
    }
    if obs.assigned != obs.users {
        fail(format!(
            "grouping assigns {} of {} users",
            obs.assigned, obs.users
        ));
    }
    if obs.twins != obs.users {
        fail(format!("{} twins for {} users", obs.twins, obs.users));
    }
    if obs.cache_lookups != obs.twins as u64 {
        fail(format!(
            "cache hits + misses = {} for {} twins",
            obs.cache_lookups, obs.twins
        ));
    }
    failures
}

/// Intervals whose fingerprints differ between two runs of one seed
/// (missing intervals on either side count as differing).
pub fn mismatches(a: &[Observation], b: &[Observation]) -> Vec<usize> {
    (0..a.len().max(b.len()))
        .filter(|&i| match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) => x.fingerprint() != y.fingerprint(),
            _ => true,
        })
        .collect()
}

/// FNV-1a digest over every observation's fingerprint, as hex.
pub fn digest(observations: &[Observation]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in observations.iter().flat_map(Observation::fingerprint) {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
