//! Command line: argument parsing, environment pinning, the machine
//! fingerprint, and the result lines.

use std::collections::BTreeMap;
use std::process::Command;

use msvs_telemetry::Json;

use crate::gate;
use crate::run::{self, Metric};
use crate::workload::{self, Workload};

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <steady-2k|churn-10k> --seed <n> \
     --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time. Recorded only: each workload plays a
    /// fixed number of intervals (see `Workload::scored_intervals`).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Parses `--workload`, `--seed`, `--seconds` and `--trace` (all required).
///
/// # Errors
/// Names the missing, unknown or malformed flag.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        if flags.insert(key, value.as_str()).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let get = |key: &str| flags.get(key).copied().ok_or(format!("{key} is required"));
    let name = get("--workload")?;
    let workload = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be finite and non-negative".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Names of set `MSVS_*` variables: the program reads its defaults from
/// these, so a run with any of them set would not be the workload.
pub fn pinned_vars(vars: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
    let mut names: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MSVS_"))
        .collect();
    names.sort();
    names
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Machine and build fingerprint stamped into every result.
pub fn fingerprint(args: &Args, threads: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git repository has a sha; never
    // report an enclosing repository's.
    let sha = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj([
        ("cores", Json::Num(cores as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("git_sha", Json::Str(sha)),
        ("profile", Json::Str(profile.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("threads", Json::Num(threads as f64)),
        ("shards", Json::Num(args.workload.shards as f64)),
    ])
}

/// What one invocation measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Every output passed the gate (and, traced, matched the untraced
    /// run and closed the accounting).
    pub correct: bool,
    /// Scored intervals attempted.
    pub attempted: usize,
    /// Scored intervals that errored or failed the gate.
    pub failed: usize,
    /// The metrics of the requested kind.
    pub metrics: Vec<Metric>,
    /// Fingerprint, digest and failure details.
    pub info: Json,
}

fn failures_json(failures: &[String]) -> Json {
    Json::Arr(failures.iter().cloned().map(Json::Str).collect())
}

/// Runs the workload and checks it.
///
/// # Errors
/// Propagates set-up errors (no result can be reported).
pub fn execute(args: &Args) -> msvs_types::Result<Outcome> {
    let w = &args.workload;
    if args.trace {
        let t = run::traced(w, args.seed)?;
        let mut failures = t.reference.failures.clone();
        failures.extend(t.steady.failures.iter().cloned());
        for i in gate::mismatches(&t.reference.observations, &t.steady.observations) {
            failures.push(format!(
                "interval {i}: traced run differs from untraced run"
            ));
        }
        for p in t.plans.iter().filter(|p| p.hits + p.misses != p.twins) {
            failures.push(format!(
                "plan: {} hits + {} misses for {} twins",
                p.hits, p.misses, p.twins
            ));
        }
        let closure = run::closure_failures(&t);
        failures.extend(closure.iter().cloned());
        let metrics = t.metrics();
        for m in metrics.iter().filter(|m| !m.value.is_finite()) {
            failures.push(format!("{} is not finite", m.name));
        }
        let info = Json::obj([
            ("workload", Json::Str(w.name.into())),
            ("mode", Json::Str("traced".into())),
            ("fingerprint", fingerprint(args, t.threads)),
            ("digest", Json::Str(gate::digest(&t.steady.observations))),
            (
                "reference_digest",
                Json::Str(gate::digest(&t.reference.observations)),
            ),
            ("closure_tolerance", Json::Num(run::CLOSURE_TOLERANCE)),
            ("closure_ok", Json::Bool(closure.is_empty())),
            ("failures", failures_json(&failures)),
        ]);
        Ok(Outcome {
            correct: failures.is_empty(),
            attempted: t.reference.attempted + t.steady.attempted,
            failed: t.reference.failed + t.steady.failed,
            metrics,
            info,
        })
    } else {
        let u = run::untraced(w, args.seed)?;
        let metrics = u.metrics(w);
        let mut failures = u.steady.failures.clone();
        for m in metrics.iter().filter(|m| !m.value.is_finite()) {
            failures.push(format!("{} is not finite", m.name));
        }
        let info = Json::obj([
            ("workload", Json::Str(w.name.into())),
            ("mode", Json::Str("untraced".into())),
            ("seconds_requested", Json::Num(args.seconds)),
            ("fingerprint", fingerprint(args, u.threads)),
            ("digest", Json::Str(gate::digest(&u.steady.observations))),
            ("tail_quantile", Json::Num(w.tail_quantile())),
            (
                "decision_samples",
                Json::Num(u.steady.decision_ms.len() as f64),
            ),
            (
                "decision_ms",
                Json::Arr(u.steady.decision_ms.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "k",
                Json::Arr(
                    u.steady
                        .observations
                        .iter()
                        .map(|o| Json::Num(o.k as f64))
                        .collect(),
                ),
            ),
            ("failures", failures_json(&failures)),
        ]);
        Ok(Outcome {
            correct: failures.is_empty(),
            attempted: u.steady.attempted,
            failed: u.steady.failed,
            metrics,
            info,
        })
    }
}

/// The final stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// The whole command: returns the process exit code.
pub fn main_with(argv: &[String], env: impl IntoIterator<Item = (String, String)>) -> i32 {
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let pinned = pinned_vars(env);
    if !pinned.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it so the workload \
             does not depend on the environment",
            pinned.join(", ")
        );
        return 2;
    }
    match execute(&args) {
        Ok(outcome) => {
            println!("{}", outcome.info);
            println!("{}", result_line(&outcome));
            if outcome.correct {
                0
            } else {
                eprintln!("perfbench: correctness gate failed");
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            1
        }
    }
}
