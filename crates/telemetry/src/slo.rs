//! Declarative service-level objectives and the deterministic watchdog
//! that judges a run against them.
//!
//! An [`SloPolicy`] mirrors the fault-profile pattern (JSON profiles +
//! named builtins): a small set of optional rules over signals the
//! simulation produces at every interval boundary. The
//! [`SloWatchdog`] evaluates the policy once per interval and returns
//! [`SloTransition`]s — breach/recovery edges — that the caller turns
//! into journal events and counters. Evaluation is a pure function of
//! the sim-time [`SloSignals`], so the breach stream is bit-identical
//! across thread and shard counts.
//!
//! One rule family is intentionally *not* deterministic: stage-p99
//! latency ceilings judge **wall-clock** histograms, so their breach
//! edges vary run to run. They are still evaluated at interval
//! boundaries (latency regressions should page like any other
//! objective), but determinism tests use policies without them.

use std::collections::BTreeMap;

use crate::json::Json;

/// Rule identity for the per-shard availability floor.
pub const RULE_AVAILABILITY: &str = "availability";
/// Rule identity for the twin-coverage floor.
pub const RULE_COVERAGE: &str = "coverage";
/// Rule identity for the degraded-interval budget.
pub const RULE_DEGRADED: &str = "degraded_budget";
/// Rule-identity prefix for stage-p99 latency ceilings.
pub const RULE_STAGE_P99_PREFIX: &str = "stage_p99:";

/// Counter family bumped once per rule breach edge.
pub const SLO_BREACHES_TOTAL: &str = "slo_breaches_total";

/// A declarative SLO policy over per-interval simulation signals.
///
/// Every rule is optional; [`SloPolicy::none`] (all rules absent) is
/// the noop policy and is guaranteed not to change a run in any
/// observable way. Policies are loaded from JSON profiles or named
/// builtins, mirroring `msvs-faults::FaultPlan`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// Minimum per-shard availability (worst shard is judged). Breached
    /// on any interval where some shard's cumulative availability drops
    /// below the floor. A single-shard run always reports `1.0`, since
    /// its only shard is never downed.
    pub availability_floor: Option<f64>,
    /// Minimum fresh-twin coverage entering prediction.
    pub coverage_floor: Option<f64>,
    /// Maximum cumulative degraded (fallback-path) intervals.
    pub degraded_budget: Option<u64>,
    /// Wall-clock p99 ceilings, milliseconds, per stage name. Judged
    /// against the live `stage_ms` histograms — **not deterministic**.
    pub stage_p99_ms: BTreeMap<String, f64>,
    /// Burn budget: how many rule-breach intervals the run may accrue
    /// before the policy is considered hard-breached (per rule).
    pub breach_budget: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self::none()
    }
}

impl SloPolicy {
    /// The empty policy: no rules, bit-identical to no policy at all.
    pub fn none() -> Self {
        SloPolicy {
            availability_floor: None,
            coverage_floor: None,
            degraded_budget: None,
            stage_p99_ms: BTreeMap::new(),
            breach_budget: 0,
        }
    }

    /// Whether the policy holds no rules and can be dropped outright.
    pub fn is_noop(&self) -> bool {
        self.availability_floor.is_none()
            && self.coverage_floor.is_none()
            && self.degraded_budget.is_none()
            && self.stage_p99_ms.is_empty()
    }

    /// Validates every rule bound.
    ///
    /// # Errors
    /// Returns `(field, reason)` for the first out-of-range bound.
    pub fn validate(&self) -> Result<(), (String, String)> {
        let unit = |field: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err((format!("slo.{field}"), "must be in [0, 1]".to_string()))
            }
        };
        if let Some(v) = self.availability_floor {
            unit("availability_floor", v)?;
        }
        if let Some(v) = self.coverage_floor {
            unit("coverage_floor", v)?;
        }
        for (stage, ceiling) in &self.stage_p99_ms {
            if stage.is_empty() {
                return Err((
                    "slo.stage_p99_ms".to_string(),
                    "stage name must be non-empty".to_string(),
                ));
            }
            if !ceiling.is_finite() || *ceiling <= 0.0 {
                return Err((
                    format!("slo.stage_p99_ms.{stage}"),
                    "ceiling must be finite and positive".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Names of the built-in policies accepted by [`SloPolicy::builtin`].
    pub const BUILTINS: [&'static str; 2] = ["strict", "lenient"];

    /// A named built-in policy, or `None` for an unknown name.
    pub fn builtin(name: &str) -> Option<Self> {
        match name {
            // Zero tolerance: any shard dip, coverage loss, or degraded
            // interval is an immediate hard breach.
            "strict" => Some(SloPolicy {
                availability_floor: Some(0.999),
                coverage_floor: Some(0.95),
                degraded_budget: Some(0),
                breach_budget: 0,
                ..Self::none()
            }),
            // Tolerates transient outages and fallback predictions but
            // still catches sustained erosion.
            "lenient" => Some(SloPolicy {
                availability_floor: Some(0.90),
                coverage_floor: Some(0.50),
                degraded_budget: Some(2),
                breach_budget: 4,
                ..Self::none()
            }),
            _ => None,
        }
    }

    /// Serialises the policy as a JSON profile.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> =
            vec![("breach_budget", Json::Num(self.breach_budget as f64))];
        if let Some(v) = self.availability_floor {
            pairs.push(("availability_floor", Json::Num(v)));
        }
        if let Some(v) = self.coverage_floor {
            pairs.push(("coverage_floor", Json::Num(v)));
        }
        if let Some(v) = self.degraded_budget {
            pairs.push(("degraded_budget", Json::Num(v as f64)));
        }
        if !self.stage_p99_ms.is_empty() {
            pairs.push((
                "stage_p99_ms",
                Json::Obj(
                    self.stage_p99_ms
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }

    /// Builds a policy from a parsed JSON profile. Absent fields keep
    /// their [`SloPolicy::none`] defaults, so `{}` is the empty policy.
    ///
    /// # Errors
    /// Returns a message naming the malformed or unknown key.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        const KNOWN_KEYS: [&str; 5] = [
            "availability_floor",
            "coverage_floor",
            "degraded_budget",
            "stage_p99_ms",
            "breach_budget",
        ];
        let map = match json {
            Json::Obj(map) => map,
            _ => return Err("SLO profile must be a JSON object".to_string()),
        };
        for key in map.keys() {
            if !KNOWN_KEYS.contains(&key.as_str()) {
                return Err(format!("unknown key `{key}` in profile"));
            }
        }
        let bad = |key: &str, reason: &str| format!("`{key}` {reason}");
        let mut policy = SloPolicy::none();
        if let Some(v) = map.get("availability_floor") {
            policy.availability_floor = Some(
                v.as_f64()
                    .ok_or_else(|| bad("availability_floor", "must be a number"))?,
            );
        }
        if let Some(v) = map.get("coverage_floor") {
            policy.coverage_floor = Some(
                v.as_f64()
                    .ok_or_else(|| bad("coverage_floor", "must be a number"))?,
            );
        }
        if let Some(v) = map.get("degraded_budget") {
            policy.degraded_budget = Some(
                v.as_u64()
                    .ok_or_else(|| bad("degraded_budget", "must be a non-negative integer"))?,
            );
        }
        if let Some(v) = map.get("stage_p99_ms") {
            let obj = match v {
                Json::Obj(obj) => obj,
                _ => return Err(bad("stage_p99_ms", "must be an object of stage -> ms")),
            };
            for (stage, ceiling) in obj {
                let ms = ceiling
                    .as_f64()
                    .ok_or_else(|| bad("stage_p99_ms", "ceilings must be numbers"))?;
                policy.stage_p99_ms.insert(stage.clone(), ms);
            }
        }
        if let Some(v) = map.get("breach_budget") {
            policy.breach_budget = v
                .as_u64()
                .ok_or_else(|| bad("breach_budget", "must be a non-negative integer"))?;
        }
        policy
            .validate()
            .map_err(|(field, reason)| format!("{field} {reason}"))?;
        Ok(policy)
    }

    /// Parses a JSON profile document.
    ///
    /// # Errors
    /// Returns a message for malformed JSON or an invalid profile.
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = Json::parse(text).map_err(|e| format!("invalid JSON profile: {e}"))?;
        Self::from_json(&json)
    }
}

/// The per-interval signals an [`SloWatchdog`] judges.
///
/// All fields except `stage_p99_ms` are pure functions of the seeded
/// simulation state, so the resulting breach stream is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSignals {
    /// The interval just completed.
    pub interval: u64,
    /// Worst per-shard cumulative availability (always `1.0` on one
    /// shard: the last live shard is never downed).
    pub min_shard_availability: f64,
    /// Fresh-twin coverage entering this interval's prediction.
    pub twin_coverage: Option<f64>,
    /// Cumulative degraded (fallback-path) intervals so far.
    pub degraded_intervals: u64,
    /// Observed wall-clock p99 per stage, milliseconds. Only stages
    /// with a configured ceiling need to be present.
    pub stage_p99_ms: BTreeMap<String, f64>,
}

/// Direction of an SLO edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloEdge {
    /// The rule crossed from meeting to violating its objective.
    Breached,
    /// The rule returned within its objective.
    Recovered,
}

/// One breach or recovery edge produced by [`SloWatchdog::observe`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloTransition {
    /// The interval the edge was observed at.
    pub interval: u64,
    /// Rule identity (`availability`, `coverage`, `degraded_budget`,
    /// or `stage_p99:<stage>`).
    pub slo: String,
    /// The observed signal value.
    pub value: f64,
    /// The policy bound it was judged against.
    pub threshold: f64,
    pub edge: SloEdge,
}

#[derive(Debug, Clone, Default)]
struct RuleState {
    breached: bool,
    breach_intervals: u64,
    worst_value: Option<f64>,
}

/// Stateful evaluator: feeds interval signals through an
/// [`SloPolicy`], tracking breach edges and burn accounting.
#[derive(Debug, Clone)]
pub struct SloWatchdog {
    policy: SloPolicy,
    rules: BTreeMap<String, RuleState>,
    intervals_evaluated: u64,
}

impl SloWatchdog {
    /// Builds a watchdog for `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        SloWatchdog {
            policy,
            rules: BTreeMap::new(),
            intervals_evaluated: 0,
        }
    }

    /// The policy under evaluation.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Evaluates every configured rule against `signals`, returning the
    /// breach/recovery edges in a fixed rule order (availability,
    /// coverage, degraded budget, then stage ceilings sorted by stage).
    pub fn observe(&mut self, signals: &SloSignals) -> Vec<SloTransition> {
        self.intervals_evaluated += 1;
        let mut edges = Vec::new();
        // (identity, observed value, threshold, violated; lower-is-bad
        // rules pass `value < floor`, budget rules `value > ceiling`).
        let mut checks: Vec<(String, f64, f64, bool)> = Vec::new();
        if let Some(floor) = self.policy.availability_floor {
            let avail = signals.min_shard_availability;
            checks.push((RULE_AVAILABILITY.to_string(), avail, floor, avail < floor));
        }
        if let Some(floor) = self.policy.coverage_floor {
            if let Some(coverage) = signals.twin_coverage {
                checks.push((RULE_COVERAGE.to_string(), coverage, floor, coverage < floor));
            }
        }
        if let Some(budget) = self.policy.degraded_budget {
            let used = signals.degraded_intervals as f64;
            checks.push((
                RULE_DEGRADED.to_string(),
                used,
                budget as f64,
                signals.degraded_intervals > budget,
            ));
        }
        for (stage, ceiling) in &self.policy.stage_p99_ms {
            if let Some(p99) = signals.stage_p99_ms.get(stage) {
                checks.push((
                    format!("{RULE_STAGE_P99_PREFIX}{stage}"),
                    *p99,
                    *ceiling,
                    *p99 > *ceiling,
                ));
            }
        }
        for (slo, value, threshold, violated) in checks {
            let state = self.rules.entry(slo.clone()).or_default();
            if violated {
                state.breach_intervals += 1;
                // "Worst" tracks the most violating observation seen.
                let worse = match (
                    state.worst_value,
                    slo.starts_with(RULE_STAGE_P99_PREFIX) || slo == RULE_DEGRADED,
                ) {
                    (None, _) => true,
                    (Some(w), true) => value > w, // ceilings: higher is worse
                    (Some(w), false) => value < w, // floors: lower is worse
                };
                if worse {
                    state.worst_value = Some(value);
                }
            }
            if violated != state.breached {
                state.breached = violated;
                edges.push(SloTransition {
                    interval: signals.interval,
                    slo,
                    value,
                    threshold,
                    edge: if violated {
                        SloEdge::Breached
                    } else {
                        SloEdge::Recovered
                    },
                });
            }
        }
        edges
    }

    /// Whether any rule has burned past the policy's breach budget.
    pub fn hard_breached(&self) -> bool {
        self.rules
            .values()
            .any(|s| s.breach_intervals > self.policy.breach_budget)
    }

    /// End-of-run accounting for the report.
    pub fn report(&self) -> SloReport {
        SloReport {
            breach_budget: self.policy.breach_budget,
            intervals_evaluated: self.intervals_evaluated,
            hard_breached: self.hard_breached(),
            rules: self
                .rules
                .iter()
                .map(|(slo, s)| SloRuleReport {
                    slo: slo.clone(),
                    breach_intervals: s.breach_intervals,
                    burn_rate: s.breach_intervals as f64
                        / (self.policy.breach_budget.max(1)) as f64,
                    worst_value: s.worst_value,
                    breached_at_end: s.breached,
                })
                .collect(),
        }
    }
}

/// Per-rule accounting in an [`SloReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloRuleReport {
    /// Rule identity.
    pub slo: String,
    /// Intervals this rule spent in violation.
    pub breach_intervals: u64,
    /// `breach_intervals / max(breach_budget, 1)` — ≥ 1.0 means the
    /// budget is exhausted.
    pub burn_rate: f64,
    /// Most violating observation, or `None` if the rule never fired.
    pub worst_value: Option<f64>,
    /// Whether the rule was still in violation at the final interval.
    pub breached_at_end: bool,
}

/// End-of-run SLO accounting attached to the simulation report.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Allowed breach intervals per rule before a hard breach.
    pub breach_budget: u64,
    /// Intervals the watchdog judged.
    pub intervals_evaluated: u64,
    /// Whether any rule burned past the budget.
    pub hard_breached: bool,
    /// Per-rule accounting for every rule that was ever evaluated.
    pub rules: Vec<SloRuleReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(interval: u64, avail: f64, coverage: f64, degraded: u64) -> SloSignals {
        SloSignals {
            interval,
            min_shard_availability: avail,
            twin_coverage: Some(coverage),
            degraded_intervals: degraded,
            stage_p99_ms: BTreeMap::new(),
        }
    }

    #[test]
    fn empty_policy_is_noop_and_round_trips() {
        let policy = SloPolicy::none();
        assert!(policy.is_noop());
        assert_eq!(SloPolicy::parse("{}").unwrap(), policy);
        let text = policy.to_json().to_string();
        assert_eq!(SloPolicy::parse(&text).unwrap(), policy);
    }

    #[test]
    fn builtins_resolve_validate_and_round_trip() {
        for name in SloPolicy::BUILTINS {
            let policy = SloPolicy::builtin(name).unwrap();
            assert!(!policy.is_noop(), "{name} must hold rules");
            policy.validate().unwrap();
            let text = policy.to_json().to_string();
            assert_eq!(SloPolicy::parse(&text).unwrap(), policy, "{name}");
        }
        assert!(SloPolicy::builtin("nope").is_none());
    }

    #[test]
    fn profiles_reject_unknown_keys_and_bad_bounds() {
        let err = SloPolicy::parse(r#"{"availability_flor":0.9}"#).unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        let err = SloPolicy::parse(r#"{"coverage_floor":1.5}"#).unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
        let err = SloPolicy::parse(r#"{"stage_p99_ms":{"kmeans_fit":-1}}"#).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert!(SloPolicy::parse("not json").is_err());
    }

    #[test]
    fn watchdog_emits_breach_and_recovery_edges_once() {
        let policy = SloPolicy {
            availability_floor: Some(0.95),
            ..SloPolicy::none()
        };
        let mut dog = SloWatchdog::new(policy);
        assert!(dog.observe(&signals(0, 1.0, 1.0, 0)).is_empty());
        let edges = dog.observe(&signals(1, 0.5, 1.0, 0));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].slo, RULE_AVAILABILITY);
        assert_eq!(edges[0].edge, SloEdge::Breached);
        assert_eq!(edges[0].value, 0.5);
        assert_eq!(edges[0].threshold, 0.95);
        // Still breached: no new edge, but burn keeps accruing.
        assert!(dog.observe(&signals(2, 0.6, 1.0, 0)).is_empty());
        let edges = dog.observe(&signals(3, 1.0, 1.0, 0));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].edge, SloEdge::Recovered);
        let report = dog.report();
        assert_eq!(report.rules.len(), 1);
        assert_eq!(report.rules[0].breach_intervals, 2);
        assert_eq!(report.rules[0].worst_value, Some(0.5));
        assert!(!report.rules[0].breached_at_end);
    }

    #[test]
    fn burn_budget_gates_hard_breach() {
        let policy = SloPolicy {
            coverage_floor: Some(0.9),
            breach_budget: 1,
            ..SloPolicy::none()
        };
        let mut dog = SloWatchdog::new(policy);
        dog.observe(&signals(0, 1.0, 0.5, 0));
        assert!(!dog.hard_breached(), "one breach interval is within budget");
        dog.observe(&signals(1, 1.0, 0.5, 0));
        assert!(dog.hard_breached(), "second breach interval burns past it");
        let report = dog.report();
        assert!(report.hard_breached);
        assert_eq!(report.rules[0].burn_rate, 2.0);
    }

    #[test]
    fn degraded_budget_judges_cumulative_count() {
        let policy = SloPolicy {
            degraded_budget: Some(1),
            ..SloPolicy::none()
        };
        let mut dog = SloWatchdog::new(policy);
        assert!(dog.observe(&signals(0, 1.0, 1.0, 1)).is_empty());
        let edges = dog.observe(&signals(1, 1.0, 1.0, 2));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].slo, RULE_DEGRADED);
        assert_eq!(edges[0].edge, SloEdge::Breached);
    }

    #[test]
    fn full_availability_is_judged_and_never_breaches() {
        // A single-shard run reports 1.0 every interval: the rule is
        // evaluated like any other, and no floor in [0, 1] trips it.
        let policy = SloPolicy {
            availability_floor: Some(1.0),
            ..SloPolicy::none()
        };
        let mut dog = SloWatchdog::new(policy);
        assert!(dog.observe(&signals(0, 1.0, 1.0, 0)).is_empty());
        let report = dog.report();
        assert_eq!(report.rules.len(), 1, "the rule was evaluated");
        assert_eq!(report.rules[0].breach_intervals, 0);
    }

    #[test]
    fn stage_ceilings_fire_on_observed_p99() {
        let mut policy = SloPolicy::none();
        policy.stage_p99_ms.insert("kmeans_fit".into(), 5.0);
        let mut dog = SloWatchdog::new(policy);
        let mut s = signals(0, 1.0, 1.0, 0);
        s.stage_p99_ms.insert("kmeans_fit".into(), 9.0);
        let edges = dog.observe(&s);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].slo, "stage_p99:kmeans_fit");
        assert_eq!(edges[0].edge, SloEdge::Breached);
        assert_eq!(dog.report().rules[0].worst_value, Some(9.0));
    }
}
