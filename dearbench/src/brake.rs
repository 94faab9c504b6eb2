//! The brake-assistant workloads: the paper's §IV.B deterministic
//! pipeline (Video Provider → Adapter → Preprocessing → Computer Vision
//! → EBA) with the `DetParams` defaults — 50 ms period, 5/25/25/5 ms
//! deadlines, L = 5 ms — run as independent 2000-frame instances.
//!
//! * `brake_ptides`: decentralized (PTIDES) coordination. The data plane
//!   does nearly all the work; coordination, durable and telemetry idle.
//! * `brake_rti`: the same inputs under the flat RTI with the control
//!   diet and telemetry on, a durable log on Computer Vision, and one
//!   crash and rejoin per instance.

use crate::calibrate;
use crate::trace::Tracer;
use dear_apd::{run_det, DetParams, DetReport, RecoveryParams};
use dear_time::Duration;
use dear_transactors::Coordination;

/// Frames per instance.
pub const FRAMES: u64 = 2000;
/// Decision fingerprint every deterministic instance must reproduce.
pub const FINGERPRINT: u64 = 0xf3e5_22a0_b4ee_1cff;
/// Logical end-to-end latency of every decision: the stage deadlines
/// (5 + 25 + 25 ms) plus L = 5 ms on each of the three hops.
pub const LATENCY: Duration = Duration::from_millis(70);
/// Frames of a set-up sample.
pub const SETUP_FRAMES: u64 = 20;
/// Timed instances per set-up sample.
pub const SETUP_EVERY: u64 = 10;

/// Which coordination the pipeline runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Decentralized PTIDES.
    Ptides,
    /// Flat RTI, diet on, telemetry on, durable log + crash on CV.
    Rti,
}

/// The parameters of a `frames`-frame instance (under `brake_rti` the
/// crash comes after half the frames). `traced` turns program telemetry
/// on for `brake_ptides` too, so its counts can be read.
#[must_use]
pub fn params(kind: Kind, frames: u64, traced: bool) -> DetParams {
    match kind {
        Kind::Ptides => DetParams {
            frames,
            observability: traced,
            ..DetParams::default()
        },
        Kind::Rti => DetParams {
            frames,
            coordination: Coordination::Centralized,
            control_diet: true,
            observability: true,
            recovery: Some(RecoveryParams {
                crash_after_frame: frames / 2,
                dead_for: Duration::from_millis(10),
                snapshot_every: 16,
            }),
            ..DetParams::default()
        },
    }
}

/// Seed of instance `i` of a run seeded `seed`.
#[must_use]
pub fn instance_seed(seed: u64, i: u64) -> u64 {
    crate::mix(seed ^ crate::mix(i))
}

/// Checks one `frames`-frame instance against the determinism contract.
///
/// # Errors
///
/// Returns what went wrong.
pub fn check(kind: Kind, r: &DetReport, frames: u64) -> Result<(), String> {
    let fingerprint = r.decision_fingerprint();
    let mut problems = Vec::new();
    if r.decisions.len() as u64 != frames || r.frames_sent != frames {
        problems.push(format!("{} of {frames} frames decided", r.decisions.len()));
    }
    let expected = if frames == FRAMES {
        FINGERPRINT
    } else {
        expected_fingerprint(frames)
    };
    if fingerprint != expected {
        problems.push(format!("fingerprint {fingerprint:016x}"));
    }
    if let Some(bad) = r.end_to_end.iter().find(|&&l| l != LATENCY) {
        problems.push(format!("logical latency {bad}"));
    }
    for (what, n) in [
        ("STP violations", r.stp_violations),
        ("CV mismatches", r.mismatches_cv),
        ("untagged drops", r.untagged_dropped),
        ("wrong decisions", r.wrong_decisions),
        ("bound breaches", r.coordination.bound_breaches),
    ] {
        if n != 0 {
            problems.push(format!("{n} {what}"));
        }
    }
    if !r.coordination.within_bound {
        problems.push("processed beyond a grant".into());
    }
    if kind == Kind::Rti {
        match &r.recovery {
            Some(rec) if rec.replay_mismatches == 0 && rec.replayed_tags > 0 => {}
            Some(rec) => problems.push(format!(
                "{} replay mismatches, {} replayed tags",
                rec.replay_mismatches, rec.replayed_tags
            )),
            None => problems.push("no recovery happened".into()),
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join(", "))
    }
}

/// Per-instance counts, from `DetReport` and (when telemetry is on) its
/// metrics snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Decided frames.
    pub frames: u64,
    /// Reactions executed (telemetry).
    pub reactions: u64,
    /// NET + LTC reports sent.
    pub reports: u64,
    /// Reports suppressed by the diet.
    pub suppressed: u64,
    /// Grants received: the granted tags (brake stages declare no
    /// lattice, so no grant-ahead windows).
    pub granted: u64,
    /// Windowed grants received.
    pub windowed: u64,
    /// Virtual time stages spent blocked on grants (ns).
    pub grant_wait_ns: u64,
    /// Flat-RTI LBTS fixpoints (telemetry).
    pub fixpoints: u64,
    /// Telemetry recording calls: counter totals plus histogram samples.
    pub observe_calls: u64,
}

impl Counts {
    /// Reads one instance's counts.
    #[must_use]
    pub fn of(r: &DetReport) -> Counts {
        let mut c = Counts {
            frames: r.decisions.len() as u64,
            reports: r.coordination.nets_sent + r.coordination.ltcs_sent,
            suppressed: r.coordination.nets_suppressed,
            granted: r.coordination.grants_received,
            windowed: r.coordination.windowed_grants,
            grant_wait_ns: r.coordination.grant_wait.as_nanos().unsigned_abs(),
            ..Counts::default()
        };
        for line in r.metrics_snapshot.lines() {
            if let Some(rest) = line.strip_prefix("counter ") {
                let Some((key, value)) = rest.split_once(" = ") else {
                    continue;
                };
                let value: u64 = value.trim().parse().unwrap_or(0);
                c.observe_calls += value;
                match key {
                    "runtime/reactions" => c.reactions = value,
                    "coord/fixpoint/flat" => c.fixpoints = value,
                    _ => {}
                }
            } else if let Some(rest) = line.strip_prefix("hist ") {
                let count = rest
                    .split_whitespace()
                    .find_map(|f| f.strip_prefix("count="))
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
                c.observe_calls += count;
            }
        }
        c
    }

    /// Control frames: reports sent plus grants received.
    #[must_use]
    pub fn ctrl_frames(&self) -> u64 {
        self.reports + self.granted
    }
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.frames += o.frames;
        self.reactions += o.reactions;
        self.reports += o.reports;
        self.suppressed += o.suppressed;
        self.granted += o.granted;
        self.windowed += o.windowed;
        self.grant_wait_ns += o.grant_wait_ns;
        self.fixpoints += o.fixpoints;
        self.observe_calls += o.observe_calls;
    }
}

/// The decision fingerprint of a correct `frames`-frame instance: FNV-1a
/// over each frame id and the reference logic's decision for it, the
/// same digest as [`DetReport::decision_fingerprint`].
#[must_use]
pub fn expected_fingerprint(frames: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for id in 0..frames {
        let brake = dear_apd::reference_decision(id);
        for b in id.to_le_bytes().iter().chain(&[u8::from(brake)]) {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// What one phase of instances measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of each timed instance (ms).
    pub instance_ms: Vec<f64>,
    /// The same, calibrated to the nominal machine speed (ms).
    pub instance_cal_ms: Vec<f64>,
    /// Wall time of each set-up sample (s): a [`SETUP_FRAMES`]-frame
    /// instance, which builds, starts and tears down the whole pipeline
    /// but decides only a few frames.
    pub setup_s: Vec<f64>,
    /// The same, calibrated (s).
    pub setup_cal_s: Vec<f64>,
    /// The reference's wall time before each instance (ms).
    pub reference_ms: Vec<f64>,
    /// Counts summed over the timed instances.
    pub counts: Counts,
    /// Allocations during the timed instances.
    pub allocs: u64,
    /// Instances run, set-up samples included.
    pub attempted: u64,
    /// Instances failing [`check`].
    pub failed: u64,
    /// Failure messages (the first few).
    pub failures: Vec<String>,
}

impl Phase {
    fn checked(&mut self, kind: Kind, instance: u64, report: &DetReport, frames: u64) {
        self.attempted += 1;
        if let Err(e) = check(kind, report, frames) {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("instance seed {instance}: {e}"));
            }
        }
    }
}

/// Runs `instances` timed instances numbered from `first`, with one
/// set-up sample before every [`SETUP_EVERY`]-th and the calibration
/// reference before each. With an enabled tracer,
/// program telemetry is on and each `run_det` and its verification get a
/// span.
pub fn run_phase(kind: Kind, seed: u64, first: u64, instances: u64, tracer: &mut Tracer) -> Phase {
    let p = params(kind, FRAMES, tracer.enabled());
    let setup = params(kind, SETUP_FRAMES, tracer.enabled());
    let mut phase = Phase::default();
    for i in first..first + instances {
        let instance = instance_seed(seed, i);
        let reference = tracer.span("reference", calibrate::reference_ms);
        phase.reference_ms.push(reference);
        if (i - first).is_multiple_of(SETUP_EVERY) {
            let t = std::time::Instant::now();
            let report = tracer.span("setup", || run_det(instance ^ 1, &setup));
            let wall = t.elapsed().as_secs_f64();
            phase.setup_s.push(wall);
            phase
                .setup_cal_s
                .push(calibrate::calibrated(wall, reference));
            tracer.span("verify", || {
                phase.checked(kind, instance ^ 1, &report, SETUP_FRAMES)
            });
        }
        let allocs = crate::alloc::allocations();
        let t = std::time::Instant::now();
        let report = tracer.span("run_det", || run_det(instance, &p));
        let wall = t.elapsed().as_secs_f64() * 1e3;
        phase.instance_ms.push(wall);
        phase
            .instance_cal_ms
            .push(calibrate::calibrated(wall, reference));
        phase.allocs += crate::alloc::allocations() - allocs;
        tracer.span("verify", || phase.checked(kind, instance, &report, FRAMES));
        phase.counts += Counts::of(&report);
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_fingerprint_is_the_reference_logic() {
        assert_eq!(expected_fingerprint(FRAMES), FINGERPRINT);
    }

    #[test]
    fn a_setup_instance_passes_the_checks() {
        for kind in [Kind::Ptides, Kind::Rti] {
            let r = run_det(7, &params(kind, SETUP_FRAMES, false));
            assert_eq!(check(kind, &r, SETUP_FRAMES), Ok(()));
        }
    }
}
