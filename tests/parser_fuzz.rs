//! Seeded mutation fuzzing of every hand-rolled parser of outside input:
//! the JSON reader and the typed layers on it (shard checkpoints, fault
//! and SLO profiles). Byte flips, truncations and splices of committed or
//! captured documents must each give `Ok` or `Err`, never a panic.

use msvs::core::CachedEmbedding;
use msvs::faults::FaultPlan;
use msvs::shard::{Shard, ShardCheckpoint};
use msvs::telemetry::{Json, SloPolicy};
use msvs::types::{Position, RepresentationLevel, SimDuration, SimTime, UserId};
use msvs::types::{VideoCategory, VideoId};
use msvs::udt::{RetryPolicy, SyncTracker, UserDigitalTwin, WatchRecord};

/// splitmix64: a dependency-free, well-mixed seeded generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mutant `case` of one of `seeds`: 1-4 byte flips (half of them to
/// bytes that steer a JSON parser into its structural branches), a
/// truncation, or a splice with a suffix of another seed, in rotation.
fn mutate(seeds: &[String], case: usize, state: &mut u64) -> String {
    const SPICE: &[u8] = b"[]{}\",:\\u0-+.eE tfn\n\xff";
    let mut below = |n: usize| (splitmix64(state) % n.max(1) as u64) as usize;
    let mut bytes = seeds[case % seeds.len()].as_bytes().to_vec();
    match case % 3 {
        0 => {
            for _ in 0..1 + below(4) {
                let at = below(bytes.len());
                bytes[at] = match below(2) {
                    0 => SPICE[below(SPICE.len())],
                    _ => below(256) as u8,
                };
            }
        }
        1 => bytes.truncate(below(bytes.len())),
        _ => {
            let other = seeds[below(seeds.len())].as_bytes();
            bytes.truncate(below(bytes.len()));
            bytes.extend_from_slice(&other[below(other.len())..]);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The committed `results/<dir>/*.json` documents, in name order.
fn committed(dir: &str) -> Vec<String> {
    let dir = format!("{}/results/{dir}", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("committed profile directory")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

/// A checkpoint captured from a shard holding every section the codec
/// writes: channel, location, a watch, a preference update, a tracker
/// with a pending retry, and a cached-embedding key.
fn captured_checkpoint() -> String {
    let (shard, user, t) = (Shard::new(2, 100.0), UserId(3), SimTime::from_secs);
    let store = shard.store();
    store.insert(UserDigitalTwin::new(user));
    store.update_channel(user, t(1), 7.5).unwrap();
    store
        .update_location(user, t(2), Position::new(12.5, -3.0))
        .unwrap();
    let watch = WatchRecord {
        video: VideoId(40),
        category: VideoCategory::News,
        level: RepresentationLevel::P720,
        watched: SimDuration::from_secs(4),
        video_duration: SimDuration::from_secs(9),
        completed: false,
    };
    store.record_watch(user, t(3), watch).unwrap();
    let refresh = |twin: &mut UserDigitalTwin| twin.refresh_preference_from_watches(t(5), 0.4);
    store.with_twin_mut(user, refresh).unwrap();
    let revision = store.with_twin(user, |twin| twin.revision()).unwrap();
    let features = vec![0.25];
    let entry = CachedEmbedding { revision, features };
    shard.embeddings().lock().unwrap().put(1, user, entry);
    let mut tracker = SyncTracker::default();
    tracker.mark_location_lost(t(2), &RetryPolicy::default());
    let ckpt = ShardCheckpoint::capture(&shard, 6, |_| tracker.clone());
    ckpt.to_json().to_string()
}

/// Whether a parser accepted a text (`Ok`) or rejected it (`Err`).
type Accepts = fn(&str) -> bool;

#[test]
fn mutated_inputs_never_panic_any_parser() {
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_7.json");
    let bench = std::fs::read_to_string(bench).expect("committed bench baseline");
    let faults = committed("fault_profiles");
    let targets: [(&str, Vec<String>, Accepts); 4] = [
        ("Json::parse", vec![bench, faults[0].clone()], |t| {
            Json::parse(t).is_ok()
        }),
        ("ShardCheckpoint::parse", vec![captured_checkpoint()], |t| {
            ShardCheckpoint::parse(t).is_ok()
        }),
        ("FaultPlan::parse", faults, |t| FaultPlan::parse(t).is_ok()),
        ("SloPolicy::parse", committed("slo_profiles"), |t| {
            SloPolicy::parse(t).is_ok()
        }),
    ];
    for (name, seeds, accepts) in targets {
        assert!(
            seeds.iter().all(|s| accepts(s)),
            "{name}: every seed parses"
        );
        let (mut state, mut rejected) = (0x5EED_u64, 0);
        for case in 0..10_000 {
            let text = mutate(&seeds, case, &mut state);
            let outcome = std::panic::catch_unwind(|| accepts(&text));
            let accepted = outcome.unwrap_or_else(|_| panic!("{name}: case {case} on {text:?}"));
            rejected += usize::from(!accepted);
        }
        assert!(rejected > 0, "{name}: no mutant was rejected");
    }
}
