//! The benchmark's own checks, on a tiny shape that runs in seconds.

use msvs_perfbench::cli::{self, Args};
use msvs_perfbench::gate::{self, Limits};
use msvs_perfbench::run;
use msvs_perfbench::workload::Workload;
use msvs_telemetry::Json;

/// Two shards and some churn, so the sharded backend, handovers and
/// churned twins all pass through the wrappers.
const TINY: Workload = Workload {
    name: "tiny",
    users: 40,
    shards: 2,
    threads: 1,
    churn: 0.05,
    pretrain_rounds: 3,
    scored_intervals: 4,
    traced_intervals: 4,
};

/// A named way to break an otherwise passing observation.
type Corruption = (&'static str, fn(&mut gate::Observation));

const LIMITS: Limits = Limits {
    k_min: 2,
    k_max: 12,
};

fn args(trace: bool) -> Args {
    Args {
        workload: TINY,
        seed: 5,
        seconds: 0.0,
        trace,
    }
}

/// `(name, unit)` of every metric of one kind listed in `BENCHMARK.json`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(kind) else {
        panic!("BENCHMARK.json lists {kind}");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(outcome: &cli::Outcome) -> Vec<(String, String)> {
    let line = Json::parse(&cli::result_line(outcome)).expect("result line is JSON");
    let Json::Obj(top) = &line else {
        panic!("result line is an object");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} = {value:?} is not finite"
            );
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            assert!(!unit.is_empty(), "{name} has no unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let outcome = cli::execute(&args(false)).expect("tiny run sets up");
    assert!(outcome.correct, "{}", outcome.info);
    assert_eq!((outcome.attempted, outcome.failed), (4, 0));
    assert_eq!(sorted(printed(&outcome)), sorted(declared("end_to_end")));
}

#[test]
fn traced_run_prints_every_layer_metric_and_matches_untraced() {
    let outcome = cli::execute(&args(true)).expect("tiny run sets up");
    assert!(outcome.correct, "{}", outcome.info);
    assert_eq!(sorted(printed(&outcome)), sorted(declared("per_layer")));
}

#[test]
fn traced_run_closes_its_accounting() {
    let t = run::traced(&TINY, 5).expect("tiny run sets up");
    assert_eq!(run::closure_failures(&t), Vec::<String>::new());
    // The closure is not vacuous: the roots cover the run and every
    // scored interval held one prediction pass.
    let intervals = t
        .spans
        .iter()
        .filter(|s| s.name == msvs_perfbench::tracer::name::INTERVAL)
        .count();
    assert_eq!(intervals, TINY.traced_intervals);
    // Scored predictions 1 and 4 are probed.
    assert_eq!(t.probes.len(), 2);
    // The predict spans agree with the program's own clock: skewing one
    // unprobed interval's record breaks that check and no other.
    let mut broken = t;
    broken.steady.decision_ms[1] *= 2.0;
    let failures = run::closure_failures(&broken);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("the program's"), "{failures:?}");
    broken.steady.decision_ms[1] /= 2.0;
    // Dropping a span breaks it.
    let predict = broken
        .spans
        .iter()
        .position(|s| s.scored && s.name == msvs_perfbench::tracer::name::PREDICT)
        .expect("a scored predict span");
    broken.spans[predict].name = "renamed";
    assert!(!run::closure_failures(&broken).is_empty());
    broken.wall_us *= 1.5;
    assert!(run::closure_failures(&broken).len() >= 2);
}

#[test]
fn gate_fires_on_a_corrupted_report() {
    let u = run::untraced(&TINY, 5).expect("tiny run sets up");
    let good = u.steady.observations[0].clone();
    assert_eq!(gate::check(&good, LIMITS), Vec::<String>::new());

    let corruptions: [Corruption; 9] = [
        ("non-finite prediction", |o| o.predicted_radio = f64::NAN),
        ("zero radio prediction", |o| o.predicted_radio = 0.0),
        ("negative computing prediction", |o| {
            o.predicted_computing = -1.0
        }),
        ("accuracy above 1", |o| o.radio_accuracy = 1.5),
        ("negative accuracy", |o| o.computing_accuracy = -0.1),
        ("k out of range", |o| o.k = 13),
        ("unassigned user", |o| o.assigned -= 1),
        ("lost twin", |o| o.twins -= 1),
        ("cache miscount", |o| o.cache_lookups += 1),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = good.clone();
        corrupt(&mut bad);
        assert!(!gate::check(&bad, LIMITS).is_empty(), "gate missed: {what}");
    }

    let mut flipped = u.steady.observations.clone();
    flipped[1].computing_accuracy = f64::from_bits(flipped[1].computing_accuracy.to_bits() ^ 1);
    assert_eq!(gate::mismatches(&u.steady.observations, &flipped), [1]);
    assert_ne!(gate::digest(&u.steady.observations), gate::digest(&flipped));
    assert_eq!(
        gate::mismatches(&u.steady.observations, &flipped[..2]),
        [1, 2, 3]
    );
}

#[test]
fn refuses_to_run_with_msvs_variables_set() {
    let env = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    assert_eq!(
        cli::pinned_vars(env(&[
            ("PATH", "/bin"),
            ("MSVS_THREADS", "4"),
            ("MSVS_BACKEND", "simd")
        ])),
        ["MSVS_BACKEND", "MSVS_THREADS"]
    );
    let argv: Vec<String> = [
        "--workload",
        "steady-2k",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Refused before anything runs (a real steady-2k run takes a minute).
    assert_eq!(cli::main_with(&argv, env(&[("MSVS_SHARDS", "4")])), 2);
}

#[test]
fn rejects_malformed_arguments() {
    let parse = |argv: &[&str]| cli::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let ok = [
        "--workload",
        "churn-10k",
        "--seed",
        "7",
        "--seconds",
        "10",
        "--trace",
        "1",
    ];
    let parsed = parse(&ok).expect("well-formed");
    assert_eq!(
        (parsed.workload.name, parsed.seed, parsed.trace),
        ("churn-10k", 7, true)
    );
    for bad in [
        &ok[..6],
        &[
            "--workload",
            "nope",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ][..],
        &[
            "--workload",
            "churn-10k",
            "--seed",
            "-7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ],
        &[
            "--workload",
            "churn-10k",
            "--seed",
            "7",
            "--seconds",
            "inf",
            "--trace",
            "1",
        ],
        &[
            "--workload",
            "churn-10k",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "2",
        ],
        &[
            "--workload",
            "churn-10k",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
        ],
        &[
            "--workload",
            "churn-10k",
            "--seed",
            "7",
            "--seed",
            "8",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &["--bogus", "1"],
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}
