//! **Recovery latency** — crash-to-rejoin outage and log-replay volume
//! when a federate is killed mid-run and restarted from its durable
//! event log.
//!
//! The brake assistant runs under centralized coordination with a
//! durable log attached to the Computer Vision federate. The CV node is
//! killed after half the frames; the recovery driver waits `dead_for`,
//! rebuilds the identical program, replays the log (suppressing sends
//! the dead incarnation already drained) and rejoins the RTI. The sweep
//! varies the outage length and the snapshot cadence; longer runs
//! replay more tags, denser snapshots cost more log records.
//!
//! Every point asserts the determinism claims: all frames decided
//! exactly once, zero replay mismatches, zero STP violations, and the
//! decision fingerprint byte-identical to a never-crashed baseline of
//! the same seed.
//!
//! Run with `cargo bench -p dear-bench --bench recovery_latency`; pass
//! `-- --test` for the CI smoke configuration (fewer frames). The
//! results are also written to `BENCH_recovery_latency.json`.
//! `DEAR_FRAMES` (default 400) controls the per-point scale.

use dear_apd::{run_det, DetParams, RecoveryParams};
use dear_bench::{env_u64, header};
use dear_time::Duration;
use dear_transactors::Coordination;

const SEED: u64 = 42;

struct Point {
    label: &'static str,
    dead_for: Duration,
    snapshot_every: u64,
}

fn params(frames: u64, recovery: Option<RecoveryParams>) -> DetParams {
    DetParams {
        frames,
        coordination: Coordination::Centralized,
        recovery,
        ..DetParams::default()
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let frames = if test_mode {
        60
    } else {
        env_u64("DEAR_FRAMES", 400)
    };
    header(&format!(
        "Recovery latency: crash -> replay -> rejoin ({frames} frames/point)"
    ));
    println!(
        "durable log on the CV federate, node killed after frame {}",
        frames / 2
    );
    println!();
    println!("  scenario                 | outage  | replayed tags/inputs | suppressed | run wall   | identical");
    println!("---------------------------+---------+----------------------+------------+------------+----------");

    let points = [
        Point {
            label: "5 ms outage, snap 16",
            dead_for: Duration::from_millis(5),
            snapshot_every: 16,
        },
        Point {
            label: "10 ms outage, snap 16",
            dead_for: Duration::from_millis(10),
            snapshot_every: 16,
        },
        Point {
            label: "20 ms outage, snap 16",
            dead_for: Duration::from_millis(20),
            snapshot_every: 16,
        },
        Point {
            label: "10 ms outage, snap 1",
            dead_for: Duration::from_millis(10),
            snapshot_every: 1,
        },
        Point {
            label: "10 ms outage, snap 64",
            dead_for: Duration::from_millis(10),
            snapshot_every: 64,
        },
    ];

    let started = std::time::Instant::now();
    let baseline = run_det(SEED, &params(frames, None));
    let mut json_rows = String::new();
    for point in &points {
        let p = params(
            frames,
            Some(RecoveryParams {
                crash_after_frame: frames / 2,
                dead_for: point.dead_for,
                snapshot_every: point.snapshot_every,
            }),
        );
        // Wall time of the whole crash-and-recover run, not of the log
        // replay alone. It stays out of the deterministic report.
        let run_started = std::time::Instant::now();
        let report = run_det(SEED, &p);
        let run_wall = run_started.elapsed();
        let rec = report.recovery.expect("recovery report");
        assert_eq!(
            report.decisions.len() as u64,
            frames,
            "{}: every frame decided",
            point.label
        );
        assert_eq!(rec.replay_mismatches, 0, "{}", point.label);
        assert_eq!(report.stp_violations, 0, "{}", point.label);
        let identical = report.decision_fingerprint() == baseline.decision_fingerprint();
        assert!(
            identical,
            "{}: must match the never-crashed run",
            point.label
        );
        println!(
            " {:25} | {:>7} | {:10} / {:7} | {:10} | {:7.1}ms | {}",
            point.label,
            rec.outage.to_string(),
            rec.replayed_tags,
            rec.replayed_inputs,
            rec.suppressed_sends,
            run_wall.as_secs_f64() * 1e3,
            if identical { "YES" } else { "NO" },
        );
        json_rows.push_str(&format!(
            "    {{\"label\": \"{}\", \"dead_for_ms\": {}, \"snapshot_every\": {}, \"outage_ns\": {}, \"replayed_tags\": {}, \"replayed_inputs\": {}, \"suppressed_sends\": {}, \"resent_sends\": {}, \"run_wall_ns\": {}, \"identical\": {}}},\n",
            point.label,
            point.dead_for.as_millis(),
            point.snapshot_every,
            rec.outage.as_nanos(),
            rec.replayed_tags,
            rec.replayed_inputs,
            rec.suppressed_sends,
            rec.resent_sends,
            run_wall.as_nanos(),
            identical,
        ));
    }

    let rows = json_rows.trim_end().trim_end_matches(',');
    let body = format!(
        "{{\n  \"bench\": \"recovery_latency\",\n  \"seed\": {SEED},\n  \"frames\": {frames},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
    );
    let path = "BENCH_recovery_latency.json";
    match std::fs::write(path, body) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    println!();
    println!("expected shape: the outage is exactly dead_for (the restart is");
    println!("scheduled, not detected); replay volume scales with the crash");
    println!("point; snapshot cadence changes log size only, never the outcome.");
    println!();
    println!("sweep in {:.1}s", started.elapsed().as_secs_f64());
}
