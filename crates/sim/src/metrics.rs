//! Per-interval measurements and the aggregated report.

use msvs_core::ReservationOutcome;
use msvs_types::{CpuCycles, ResourceBlocks};
use serde::{Deserialize, Serialize};

/// Everything measured for one scored reservation interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalRecord {
    /// Interval index (0 = first scored interval).
    pub index: usize,
    /// Group count the scheme chose.
    pub k: usize,
    /// Silhouette of the grouping.
    pub silhouette: f64,
    /// Predicted total radio demand.
    pub predicted_radio: ResourceBlocks,
    /// Measured total radio demand.
    pub actual_radio: ResourceBlocks,
    /// `1 - |pred - actual| / actual` for radio, clamped to `[0, 1]`.
    pub radio_accuracy: f64,
    /// Predicted transcoding demand.
    pub predicted_computing: CpuCycles,
    /// Measured transcoding demand.
    pub actual_computing: CpuCycles,
    /// Computing-demand accuracy.
    pub computing_accuracy: f64,
    /// What unicast delivery of the same sessions would have cost.
    pub actual_unicast_radio: ResourceBlocks,
    /// Multicast traffic actually transmitted, megabits.
    pub actual_traffic_mb: f64,
    /// Prefetched-but-unplayed traffic predicted by the scheme, megabits.
    pub predicted_waste_mb: f64,
    /// Prefetched-but-unplayed traffic actually transmitted, megabits.
    pub actual_waste_mb: f64,
    /// Wall-clock cost of the prediction pass, milliseconds.
    pub predict_wall_ms: f64,
    /// Twin updates sent during the interval (signalling cost).
    pub updates_sent: u64,
    /// Users whose serving BS changed during the interval (handovers).
    pub handovers: u64,
    /// Adjusted Rand index between this interval's grouping and the
    /// previous prediction pass over the surviving users (`None` when no
    /// prior pass exists). Low values mean multicast channels were
    /// re-signalled.
    pub grouping_stability: Option<f64>,
    /// Member-weighted mean representation level delivered (0 = 240p,
    /// 1 = 1080p): the QoE side of the radio/quality trade-off.
    pub mean_level: f64,
    /// Whether the prediction degraded to the historical-mean fallback
    /// because fresh-twin coverage fell below the configured threshold
    /// (always `false` outside fault-injection runs).
    pub degraded: bool,
    /// Fresh-twin coverage at prediction time, when the degradation
    /// ladder was armed (`None` outside fault-injection runs).
    pub twin_coverage: Option<f64>,
    /// Reservation scoring when a [`msvs_core::ReservationPolicy`] is
    /// configured.
    pub reservation: Option<ReservationOutcome>,
}

/// Aggregated simulation outcome.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// One record per scored interval.
    pub intervals: Vec<IntervalRecord>,
    /// Stage-latency percentiles and event counters collected by
    /// `msvs-telemetry` over the whole run (warm-up included).
    pub telemetry: msvs_telemetry::TelemetrySummary,
    /// Shard-plane summary: per-BS demand rows (one per shard) and
    /// handover and outage totals.
    pub shards: msvs_shard::ShardSummary,
    /// SLO watchdog accounting (per-rule breach intervals, burn rates,
    /// hard-breach verdict) when the run carried a live policy; `None`
    /// without one — an empty policy builds no watchdog and leaves the
    /// report bit-identical to an unwatched run.
    pub slo: Option<msvs_telemetry::SloReport>,
}

impl SimulationReport {
    /// Mean radio-demand prediction accuracy over scored intervals.
    pub fn mean_radio_accuracy(&self) -> f64 {
        mean(self.intervals.iter().map(|r| r.radio_accuracy))
    }

    /// Mean computing-demand prediction accuracy.
    pub fn mean_computing_accuracy(&self) -> f64 {
        mean(self.intervals.iter().map(|r| r.computing_accuracy))
    }

    /// Mean chosen group count.
    pub fn mean_k(&self) -> f64 {
        mean(self.intervals.iter().map(|r| r.k as f64))
    }

    /// Mean silhouette of the constructed groupings.
    pub fn mean_silhouette(&self) -> f64 {
        mean(self.intervals.iter().map(|r| r.silhouette))
    }

    /// Mean prediction wall-clock, milliseconds.
    pub fn mean_predict_wall_ms(&self) -> f64 {
        mean(self.intervals.iter().map(|r| r.predict_wall_ms))
    }

    /// Multicast saving vs unicast: `1 - multicast / unicast` demand.
    pub fn mean_multicast_saving(&self) -> f64 {
        let m: f64 = self.intervals.iter().map(|r| r.actual_radio.value()).sum();
        let u: f64 = self
            .intervals
            .iter()
            .map(|r| r.actual_unicast_radio.value())
            .sum();
        if u <= 0.0 {
            0.0
        } else {
            1.0 - m / u
        }
    }

    /// Mean signalling updates per interval.
    pub fn mean_updates_sent(&self) -> f64 {
        mean(self.intervals.iter().map(|r| r.updates_sent as f64))
    }

    /// Mean grouping stability (ARI between consecutive intervals) over
    /// the intervals where it is defined; `None` when never defined.
    pub fn mean_grouping_stability(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .intervals
            .iter()
            .filter_map(|r| r.grouping_stability)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(msvs_types::stats::mean(&vals))
        }
    }

    /// Mean delivered representation level (0 = lowest, 1 = top).
    pub fn mean_delivered_level(&self) -> f64 {
        mean(self.intervals.iter().map(|r| r.mean_level))
    }

    /// Mean handovers per interval.
    pub fn mean_handovers(&self) -> f64 {
        mean(self.intervals.iter().map(|r| r.handovers as f64))
    }

    /// Fraction of transmitted traffic that was prefetched but never
    /// played (the paper's over-provisioning measure).
    pub fn waste_fraction(&self) -> f64 {
        let waste: f64 = self.intervals.iter().map(|r| r.actual_waste_mb).sum();
        let traffic: f64 = self.intervals.iter().map(|r| r.actual_traffic_mb).sum();
        if traffic <= 0.0 {
            0.0
        } else {
            waste / traffic
        }
    }

    /// Number of scored intervals that degraded to the historical-mean
    /// fallback.
    pub fn degraded_intervals(&self) -> usize {
        self.intervals.iter().filter(|r| r.degraded).count()
    }

    /// Mean radio accuracy over the intervals matching `degraded`, or
    /// `None` when no interval matches.
    pub fn mean_radio_accuracy_where(&self, degraded: bool) -> Option<f64> {
        let vals: Vec<f64> = self
            .intervals
            .iter()
            .filter(|r| r.degraded == degraded)
            .map(|r| r.radio_accuracy)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(msvs_types::stats::mean(&vals))
        }
    }

    /// Prediction-error delta of degraded intervals vs clean ones:
    /// `clean accuracy - degraded accuracy` (positive = degradation cost
    /// accuracy). `None` unless the run has both kinds of interval.
    pub fn degraded_accuracy_delta(&self) -> Option<f64> {
        Some(self.mean_radio_accuracy_where(false)? - self.mean_radio_accuracy_where(true)?)
    }

    /// Mean fresh-twin coverage over intervals where the degradation
    /// ladder was armed; `None` outside fault-injection runs.
    pub fn mean_twin_coverage(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .intervals
            .iter()
            .filter_map(|r| r.twin_coverage)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(msvs_types::stats::mean(&vals))
        }
    }

    /// Fraction of intervals whose radio reservation covered the actual
    /// demand (`None` when no reservation policy was configured).
    pub fn reservation_coverage(&self) -> Option<f64> {
        let scored: Vec<&ReservationOutcome> = self
            .intervals
            .iter()
            .filter_map(|r| r.reservation.as_ref())
            .collect();
        if scored.is_empty() {
            return None;
        }
        Some(scored.iter().filter(|o| o.radio_covered).count() as f64 / scored.len() as f64)
    }

    /// Mean idle fraction of covered radio reservations (`None` when no
    /// reservation policy was configured).
    pub fn reservation_idle(&self) -> Option<f64> {
        let idle: Vec<f64> = self
            .intervals
            .iter()
            .filter_map(|r| r.reservation.as_ref())
            .filter(|o| o.radio_covered)
            .map(|o| o.radio_idle_fraction)
            .collect();
        if idle.is_empty() {
            None
        } else {
            Some(msvs_types::stats::mean(&idle))
        }
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    msvs_types::stats::mean(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(idx: usize, pred: f64, actual: f64) -> IntervalRecord {
        IntervalRecord {
            index: idx,
            k: 4,
            silhouette: 0.5,
            predicted_radio: ResourceBlocks(pred),
            actual_radio: ResourceBlocks(actual),
            radio_accuracy: 1.0 - (pred - actual).abs() / actual,
            predicted_computing: CpuCycles(1e9),
            actual_computing: CpuCycles(1e9),
            computing_accuracy: 1.0,
            actual_unicast_radio: ResourceBlocks(actual * 5.0),
            actual_traffic_mb: 100.0,
            predicted_waste_mb: 9.0,
            actual_waste_mb: 10.0,
            predict_wall_ms: 10.0,
            updates_sent: 500,
            handovers: 3,
            grouping_stability: Some(0.8),
            mean_level: 0.75,
            degraded: false,
            twin_coverage: None,
            reservation: None,
        }
    }

    #[test]
    fn aggregates_are_means() {
        let report = SimulationReport {
            intervals: vec![record(0, 95.0, 100.0), record(1, 105.0, 100.0)],
            ..Default::default()
        };
        assert!((report.mean_radio_accuracy() - 0.95).abs() < 1e-12);
        assert_eq!(report.mean_computing_accuracy(), 1.0);
        assert_eq!(report.mean_k(), 4.0);
        assert!((report.mean_multicast_saving() - 0.8).abs() < 1e-12);
        assert_eq!(report.mean_updates_sent(), 500.0);
        assert!((report.waste_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(report.mean_grouping_stability(), Some(0.8));
        assert!((report.mean_delivered_level() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zeroes() {
        let report = SimulationReport::default();
        assert_eq!(report.mean_radio_accuracy(), 0.0);
        assert_eq!(report.mean_multicast_saving(), 0.0);
        assert_eq!(report.degraded_intervals(), 0);
        assert_eq!(report.degraded_accuracy_delta(), None);
        assert_eq!(report.mean_twin_coverage(), None);
    }

    #[test]
    fn degraded_metrics_split_by_flag() {
        let mut degraded = record(1, 80.0, 100.0);
        degraded.degraded = true;
        degraded.twin_coverage = Some(0.4);
        let mut clean = record(0, 95.0, 100.0);
        clean.twin_coverage = Some(1.0);
        let report = SimulationReport {
            intervals: vec![clean, degraded],
            ..Default::default()
        };
        assert_eq!(report.degraded_intervals(), 1);
        assert!((report.mean_radio_accuracy_where(true).unwrap() - 0.8).abs() < 1e-12);
        assert!((report.mean_radio_accuracy_where(false).unwrap() - 0.95).abs() < 1e-12);
        let delta = report.degraded_accuracy_delta().unwrap();
        assert!((delta - 0.15).abs() < 1e-12);
        assert!((report.mean_twin_coverage().unwrap() - 0.7).abs() < 1e-12);
    }
}
