//! Report-level compute-backend guarantees: a seeded run routed through
//! the SIMD backend must produce a bit-identical `SimulationReport` to
//! the scalar reference, and the CLI must refuse a backend name it does
//! not know, whether it comes from `--backend` or `MSVS_BACKEND`.

use msvs::core::{BackendKind, CompressorConfig, GroupingConfig, SchemeConfig};
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

/// Explicit `.backend(...)` override so these tests pin the backend even
/// when CI exports `MSVS_BACKEND` (the env var only sets the default).
fn seeded_config(seed: u64, users: usize, backend: BackendKind) -> SimulationConfig {
    SimulationConfig::builder()
        .users(users)
        .intervals(2)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(small_scheme())
        .threads(1)
        .backend(backend)
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

#[test]
fn simd_backend_report_is_bit_identical_to_scalar() {
    let scalar = strip_wall(
        Simulation::run(seeded_config(33, 24, BackendKind::Scalar)).expect("scalar run"),
    );
    let simd =
        strip_wall(Simulation::run(seeded_config(33, 24, BackendKind::Simd)).expect("simd run"));
    assert_eq!(
        scalar, simd,
        "the SIMD backend reorders no per-element arithmetic, so a seeded \
         report must match the scalar reference bit for bit"
    );
}

/// Runs the `msvs` binary with `MSVS_BACKEND` cleared except for `env`.
fn msvs(args: &[&str], env: Option<&str>) -> std::process::Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_msvs"));
    cmd.args(args).env_remove("MSVS_BACKEND");
    if let Some(value) = env {
        cmd.env("MSVS_BACKEND", value);
    }
    cmd.output().expect("msvs binary runs")
}

#[test]
fn cli_rejects_an_unknown_backend_from_flag_or_env() {
    let run = ["run", "--users", "24", "--intervals", "1"];
    let out = msvs(&run, Some("int8"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "MSVS_BACKEND=int8 must fail");
    assert!(stderr.contains("MSVS_BACKEND"), "stderr: {stderr}");
    assert!(stderr.contains("scalar or simd"), "stderr: {stderr}");

    let out = msvs(&[&run[..], &["--backend", "int8"]].concat(), None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--backend int8 must fail");
    assert!(stderr.contains("int8"), "stderr: {stderr}");
}
