//! Pinned brake-assistant scenarios: exact per-stage trace
//! fingerprints, decision fingerprint, coordination / failover /
//! recovery reports and a hash of the metrics snapshot, for nine
//! fixed scenarios covering PTIDES and the RTI, telemetry, the control
//! diet, crash and graceful failover, crash recovery, and failover
//! plus recovery in one run.
//!
//! The other brake-assistant tests compare two runs with each other
//! (PTIDES vs RTI, crashed vs never crashed, seed vs seed), so a
//! change that moved both sides the same way would pass them. These
//! values pin the absolute behaviour; only a change that deliberately
//! alters what the pipeline does may update them.

use dear_apd::{
    run_det, CoordReport, DetParams, FailoverReport, RecoveryParams, RecoveryReport,
    RedundancyParams,
};
use dear_time::{Duration, Instant};
use dear_transactors::Coordination::{self, Centralized as Rti, Decentralized as Ptides};

const FRAMES: u64 = 200;
/// The decision sequence is the same in every scenario: 200 frames,
/// each decided once, whatever the coordination or the faults.
const DECISIONS: u64 = 0x4cbe_f151_bd09_3555;
const STAGES: [&str; 4] = ["adapter", "preprocessing", "computer_vision", "eba"];
/// FNV-1a of the empty string: the metrics snapshot with telemetry off.
const NO_METRICS: u64 = 0xcbf2_9ce4_8422_2325;

/// What one scenario must reproduce exactly.
struct Pin {
    traces: [u64; 4],
    coordination: CoordReport,
    failover: Option<FailoverReport>,
    recovery: Option<RecoveryReport>,
    metrics: u64,
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(NO_METRICS, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn params(coordination: Coordination, diet: bool, telemetry: bool) -> DetParams {
    DetParams {
        frames: FRAMES,
        record_traces: true,
        coordination,
        control_diet: diet,
        observability: telemetry,
        ..DetParams::default()
    }
}

fn redundancy(dies_after: u64, graceful: bool, heartbeat: Option<Duration>) -> RedundancyParams {
    RedundancyParams {
        primary_dies_after: dies_after,
        graceful,
        heartbeat_timeout: heartbeat,
        ..RedundancyParams::default()
    }
}

fn recovery(crash_after_frame: u64) -> RecoveryParams {
    RecoveryParams {
        crash_after_frame,
        ..RecoveryParams::default()
    }
}

/// A coordination report with no PTAGs, breaches, grant waits or
/// windowed grants, every stage within its bound.
fn coord(
    nets_sent: u64,
    ltcs_sent: u64,
    grants_received: u64,
    nets_suppressed: u64,
) -> CoordReport {
    CoordReport {
        nets_sent,
        ltcs_sent,
        grants_received,
        nets_suppressed,
        within_bound: true,
        ..CoordReport::default()
    }
}

/// A failover report with exactly one re-binding.
fn failover(died: u64, rebound: u64, first_backup: u64, latency: i64) -> Option<FailoverReport> {
    Some(FailoverReport {
        primary_died_at: Instant::from_nanos(died),
        rebound_at: Some(Instant::from_nanos(rebound)),
        first_backup_frame_at: Some(Instant::from_nanos(first_backup)),
        failover_latency: Some(Duration::from_nanos(latency)),
        failovers: 1,
    })
}

/// A recovery report of a 10 ms outage: first incarnation, nothing
/// re-sent, no replay mismatch.
fn recovered(crashed: u64, tags: u64, inputs: u64, suppressed: u64) -> Option<RecoveryReport> {
    Some(RecoveryReport {
        crashed_at: Instant::from_nanos(crashed),
        rejoined_at: Instant::from_nanos(crashed + 10_000_000),
        outage: Duration::from_millis(10),
        replayed_tags: tags,
        replayed_inputs: inputs,
        suppressed_sends: suppressed,
        resent_sends: 0,
        replay_mismatches: 0,
        incarnation: 1,
    })
}

fn check(seed: u64, params: &DetParams, pin: &Pin) {
    let r = run_det(seed, params);
    let traces: Vec<(String, u64)> = STAGES
        .iter()
        .zip(pin.traces)
        .map(|(name, fp)| ((*name).to_owned(), fp))
        .collect();
    assert_eq!(r.stage_traces, traces, "stage traces");
    assert_eq!(r.decisions.len() as u64, FRAMES);
    assert_eq!(r.decision_fingerprint(), DECISIONS, "decisions");
    assert_eq!(r.coordination, pin.coordination, "coordination");
    assert_eq!(r.failover, pin.failover, "failover");
    assert_eq!(r.recovery, pin.recovery, "recovery");
    assert_eq!(fnv(&r.metrics_snapshot), pin.metrics, "metrics snapshot");
    let errors = [
        r.mismatches_cv,
        r.stp_violations,
        r.deadline_misses,
        r.untagged_dropped,
        r.wrong_decisions,
    ];
    assert_eq!(errors, [0; 5], "errors");
}

const PTIDES_SEED_3: [u64; 4] = [
    5_887_868_332_905_565_872,
    11_235_888_056_939_024_765,
    15_793_499_439_352_136_685,
    9_273_209_483_169_004_489,
];

#[test]
fn ptides_seed_3() {
    let pin = Pin {
        traces: PTIDES_SEED_3,
        coordination: coord(0, 0, 0, 0),
        failover: None,
        recovery: None,
        metrics: NO_METRICS,
    };
    check(3, &params(Ptides, false, false), &pin);
}

#[test]
fn ptides_seed_3_with_telemetry() {
    let pin = Pin {
        traces: PTIDES_SEED_3,
        coordination: coord(0, 0, 0, 0),
        failover: None,
        recovery: None,
        metrics: 0xf42f_c3b3_c1ff_b11f,
    };
    check(3, &params(Ptides, false, true), &pin);
}

#[test]
fn rti_with_diet_and_telemetry_seed_3() {
    let pin = Pin {
        traces: PTIDES_SEED_3,
        coordination: coord(1204, 600, 1206, 800),
        failover: None,
        recovery: None,
        metrics: 0xbd56_e4b8_8d0d_d7e9,
    };
    check(3, &params(Rti, true, true), &pin);
}

#[test]
fn rti_plain_seed_5() {
    let pin = Pin {
        traces: [
            11_050_397_354_589_544_580,
            953_297_126_319_208_459,
            17_854_042_209_353_222_395,
            4_463_609_023_192_635_293,
        ],
        coordination: coord(1604, 800, 1206, 200),
        failover: None,
        recovery: None,
        metrics: NO_METRICS,
    };
    check(5, &params(Rti, false, false), &pin);
}

#[test]
fn crash_failover_under_ptides_seed_4() {
    let p = DetParams {
        redundancy: Some(redundancy(79, false, Some(Duration::from_millis(150)))),
        ..params(Ptides, false, false)
    };
    let pin = Pin {
        traces: [
            1_555_438_188_373_424_938,
            451_156_390_457_763_749,
            13_843_438_227_088_579_665,
            197_920_020_737_375_707,
        ],
        coordination: coord(0, 0, 0, 0),
        failover: failover(3_952_081_663, 4_103_166_836, 4_154_244_810, 202_163_147),
        recovery: None,
        metrics: NO_METRICS,
    };
    check(4, &p, &pin);
}

#[test]
fn graceful_failover_under_rti_with_telemetry_seed_4() {
    let p = DetParams {
        redundancy: Some(redundancy(79, true, None)),
        ..params(Rti, false, true)
    };
    let pin = Pin {
        traces: [
            4_325_594_704_164_150_654,
            6_433_228_769_068_551_905,
            11_830_961_134_245_076_877,
            4_862_533_443_022_467_841,
        ],
        coordination: coord(1604, 800, 1206, 200),
        failover: failover(3_952_081_663, 3_952_081_663, 4_002_926_736, 50_845_073),
        recovery: None,
        metrics: 0xe43b_0a84_3698_7c84,
    };
    check(4, &p, &pin);
}

#[test]
fn recovery_under_rti_with_diet_and_telemetry_seed_6() {
    let p = DetParams {
        recovery: Some(recovery(100)),
        ..params(Rti, true, true)
    };
    let pin = Pin {
        traces: [
            15_718_617_219_382_905_055,
            1_113_951_484_316_013_479,
            10_781_726_782_740_673_455,
            10_351_349_878_201_971_637,
        ],
        coordination: coord(1205, 600, 1207, 800),
        failover: None,
        recovery: recovered(5_012_500_000, 100, 200, 100),
        metrics: 0xf4cb_487b_6a6c_7867,
    };
    check(6, &p, &pin);
}

#[test]
fn recovery_under_rti_with_provider_jitter_seed_8() {
    let p = DetParams {
        provider_jitter: Duration::from_millis(2),
        recovery: Some(recovery(100)),
        ..params(Rti, false, false)
    };
    let pin = Pin {
        traces: [
            10_653_538_090_272_407_765,
            12_824_368_271_106_698_235,
            2_187_526_102_357_607_785,
            16_728_715_782_964_094_749,
        ],
        coordination: coord(1604, 800, 1207, 199),
        failover: None,
        recovery: recovered(5_012_500_000, 100, 202, 100),
        metrics: NO_METRICS,
    };
    check(8, &p, &pin);
}

#[test]
fn failover_and_recovery_under_rti_seed_1() {
    let p = DetParams {
        redundancy: Some(redundancy(49, false, None)),
        recovery: Some(recovery(120)),
        ..params(Rti, false, false)
    };
    let pin = Pin {
        traces: [
            3_684_512_818_414_949_476,
            15_902_325_233_647_297_495,
            4_485_828_446_212_738_427,
            18_198_660_125_859_245_365,
        ],
        coordination: coord(1605, 800, 1207, 200),
        failover: failover(2_447_648_355, 2_800_000_001, 2_851_138_475, 403_490_120),
        recovery: recovered(6_012_500_000, 113, 226, 113),
        metrics: NO_METRICS,
    };
    check(1, &p, &pin);
}
