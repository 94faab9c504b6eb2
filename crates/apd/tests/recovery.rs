//! Crash-recovery on the brake-assistant pipeline: the Computer Vision
//! federate is killed mid-run, restarted from its durable event log,
//! and rejoins the RTI — and the result is byte-identical to a run
//! that never crashed.
//!
//! The low-level recovery machinery (log replay, suppression
//! watermarks, rejoin retreats, hierarchy fan-out) is covered by
//! `dear-federation`'s `tests/recovery.rs` proptests; these tests hold
//! the end-to-end scenario plumbing in `dear-apd` to the same bar.

use dear_apd::{run_det, DetParams, RecoveryParams};
use dear_time::Duration;
use dear_transactors::Coordination;

const FRAMES: u64 = 100;
const KILL_AFTER: u64 = 50;

fn params(diet: bool, recovery: Option<RecoveryParams>) -> DetParams {
    DetParams {
        frames: FRAMES,
        coordination: Coordination::Centralized,
        control_diet: diet,
        record_traces: true,
        recovery,
        ..DetParams::default()
    }
}

fn recovery(dead_for: Duration, snapshot_every: u64) -> RecoveryParams {
    RecoveryParams {
        crash_after_frame: KILL_AFTER,
        dead_for,
        snapshot_every,
    }
}

#[test]
fn recovered_run_is_byte_identical_across_seeds_and_diet() {
    for diet in [false, true] {
        for seed in [0, 3, 42] {
            let baseline = run_det(seed, &params(diet, None));
            let r = run_det(
                seed,
                &params(diet, Some(recovery(Duration::from_millis(10), 16))),
            );
            let rec = r.recovery.expect("recovery report");
            assert_eq!(
                r.decision_fingerprint(),
                baseline.decision_fingerprint(),
                "diet={diet} seed {seed}: decisions must match the never-crashed run"
            );
            assert_eq!(
                r.stage_traces, baseline.stage_traces,
                "diet={diet} seed {seed}: per-stage event traces must be byte-identical"
            );
            assert_eq!(r.decisions.len() as u64, FRAMES);
            assert_eq!(rec.replay_mismatches, 0);
            assert!(rec.replayed_tags > 0, "the log replay must do real work");
            assert!(rec.replayed_inputs > 0);
            assert_eq!(rec.incarnation, 1);
            assert_eq!(r.stp_violations, 0);
            assert_eq!(r.mismatches_cv, 0);
            assert_eq!(r.wrong_decisions, 0);
        }
    }
}

#[test]
fn snapshot_cadence_is_invisible_in_the_outcome() {
    let baseline = run_det(7, &params(false, None));
    let dense = run_det(
        7,
        &params(false, Some(recovery(Duration::from_millis(10), 1))),
    );
    let sparse = run_det(
        7,
        &params(false, Some(recovery(Duration::from_millis(10), 64))),
    );
    for r in [&dense, &sparse] {
        assert_eq!(r.decision_fingerprint(), baseline.decision_fingerprint());
        assert_eq!(r.stage_traces, baseline.stage_traces);
        assert_eq!(r.stp_violations, 0);
        assert_eq!(r.recovery.expect("recovery report").replay_mismatches, 0);
    }
    assert_eq!(dense.recovery, sparse.recovery);
}

#[test]
fn longer_outages_replay_identically_within_the_stp_budget() {
    let baseline = run_det(11, &params(false, None));
    // dead_for must stay inside D_cv + L = 30 ms; sweep up to 25 ms.
    for dead_ms in [5i64, 10, 15, 20, 25] {
        let r = run_det(
            11,
            &params(false, Some(recovery(Duration::from_millis(dead_ms), 16))),
        );
        let rec = r.recovery.expect("recovery report");
        assert_eq!(
            r.decision_fingerprint(),
            baseline.decision_fingerprint(),
            "dead_for={dead_ms}ms"
        );
        assert_eq!(
            r.stage_traces, baseline.stage_traces,
            "dead_for={dead_ms}ms"
        );
        assert_eq!(rec.outage, Duration::from_millis(dead_ms));
        assert_eq!(rec.replay_mismatches, 0);
        assert_eq!(r.stp_violations, 0, "dead_for={dead_ms}ms");
    }
}

#[test]
#[should_panic(expected = "requires Coordination::Centralized")]
fn recovery_rejects_decentralized_coordination() {
    let p = DetParams {
        frames: 10,
        coordination: Coordination::Decentralized,
        recovery: Some(RecoveryParams {
            crash_after_frame: 5,
            ..RecoveryParams::default()
        }),
        ..DetParams::default()
    };
    let _ = run_det(0, &p);
}

#[test]
fn an_outage_past_the_cv_budget_costs_deadlines_not_determinism() {
    // A 60 ms outage is twice the CV deadline plus L (30 ms): the
    // rebuilt incarnation catches up so late that two reactions miss
    // their deadlines, and the stage traces diverge from a
    // never-crashed run. Release tags are logical, though: no
    // safe-to-process violation, no tag misalignment, and the same
    // decisions at the same constant 70 ms logical latency.
    let baseline = run_det(1, &params(false, None));
    let r = run_det(
        1,
        &params(
            false,
            Some(RecoveryParams {
                crash_after_frame: 30,
                dead_for: Duration::from_millis(60),
                snapshot_every: 16,
            }),
        ),
    );
    let rec = r.recovery.expect("recovery report");
    assert_eq!(rec.outage, Duration::from_millis(60));
    assert_eq!(rec.replay_mismatches, 0);
    assert_eq!(r.deadline_misses, 2);
    assert_eq!(r.stp_violations, 0);
    assert_eq!(r.mismatches_cv, 0);
    assert_eq!(r.wrong_decisions, 0);
    assert_eq!(r.decision_fingerprint(), baseline.decision_fingerprint());
    assert_eq!(r.decisions.len() as u64, FRAMES);
    assert!(r.end_to_end.iter().all(|&l| l == Duration::from_millis(70)));
    assert_ne!(
        r.stage_traces, baseline.stage_traces,
        "the late catch-up is visible in the stage traces"
    );
}

#[test]
#[should_panic(expected = "recovery requires the CV federate to restart within the horizon")]
fn recovery_rejects_a_restart_after_the_horizon() {
    // Crash at 525 ms, restart at 2525 ms, horizon at 2 s (20 frames
    // of 50 ms plus 1 s of drain).
    let p = DetParams {
        frames: 20,
        coordination: Coordination::Centralized,
        recovery: Some(RecoveryParams {
            crash_after_frame: 10,
            dead_for: Duration::from_secs(2),
            ..RecoveryParams::default()
        }),
        ..DetParams::default()
    };
    let _ = run_det(0, &p);
}
