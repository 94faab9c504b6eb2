//! The centralized-coordination acceptance test: the RTI-driven and the
//! decentralized PTIDES-style drivers must be *observably identical* on
//! the brake-assistant topology — byte-identical per-stage event traces
//! across multiple seeds and latency bounds, with and without the RTI's
//! control-plane diet — and the centralized driver must provably never
//! process a tag beyond its last granted bound.

use dear::apd::{run_det, DetParams};
use dear::time::Duration;
use dear::transactors::Coordination;

fn params(coordination: Coordination) -> DetParams {
    DetParams {
        frames: 200,
        coordination,
        record_traces: true,
        ..DetParams::default()
    }
}

#[test]
fn centralized_and_decentralized_traces_are_byte_identical() {
    // The paper's L = 5 ms over four seeds, then L in {1, 2, 10} ms.
    for (seed, l_ms) in [
        (0u64, 5),
        (1, 5),
        (2, 5),
        (42, 5),
        (42, 1),
        (42, 2),
        (42, 10),
    ] {
        let at = |coordination, diet| {
            let p = DetParams {
                latency_bound: Duration::from_millis(l_ms),
                control_diet: diet,
                ..params(coordination)
            };
            run_det(seed, &p)
        };
        let dec = at(Coordination::Decentralized, false);
        let cen = at(Coordination::Centralized, false);
        let diet = at(Coordination::Centralized, true);
        let case = format!("seed {seed}, L = {l_ms} ms");

        for (label, r) in [("centralized", &cen), ("diet", &diet)] {
            // Same decisions, same latency profile.
            assert_eq!(
                dec.decision_fingerprint(),
                r.decision_fingerprint(),
                "{case} {label}: decision sequences diverged"
            );
            assert_eq!(dec.end_to_end, r.end_to_end, "{case} {label}");

            // The strong claim: every stage's runtime event trace
            // (reactions, deadline misses, STP violations, with tags) is
            // byte-identical.
            assert_eq!(dec.stage_traces.len(), 4);
            assert_eq!(
                dec.stage_traces, r.stage_traces,
                "{case} {label}: stage event traces diverged"
            );
            let c = &r.coordination;
            assert!(c.within_bound && c.bound_breaches == 0, "{case} {label}");
        }

        // All three builds stay error-free.
        for (label, r) in [
            ("decentralized", &dec),
            ("centralized", &cen),
            ("diet", &diet),
        ] {
            assert_eq!(r.decisions.len(), 200, "{case} {label}");
            assert_eq!(r.mismatches_cv, 0, "{case} {label}");
            assert_eq!(r.stp_violations, 0, "{case} {label}");
            assert_eq!(r.deadline_misses, 0, "{case} {label}");
            assert_eq!(r.wrong_decisions, 0, "{case} {label}");
        }

        // The diet shrinks the control plane: the sink stage stops
        // reporting, so fewer NET + LTC frames reach the RTI.
        let reports =
            |r: &dear::apd::DetReport| r.coordination.nets_sent + r.coordination.ltcs_sent;
        assert!(
            diet.coordination.nets_suppressed > 0,
            "{case}: nothing suppressed"
        );
        assert!(
            reports(&diet) < reports(&cen),
            "{case}: the diet cut no reports"
        );
    }
}

#[test]
fn centralized_driver_respects_granted_bounds() {
    let report = run_det(7, &params(Coordination::Centralized));
    let coord = &report.coordination;

    // The coordination layer was genuinely exercised...
    assert!(coord.grants_received > 0, "no grants flowed: {coord:?}");
    assert!(coord.nets_sent > 0);
    assert!(coord.ltcs_sent > 0);

    // ...and never let a stage run past its bound.
    assert_eq!(coord.bound_breaches, 0, "{coord:?}");
    assert!(coord.within_bound, "{coord:?}");
}

#[test]
fn decentralized_runs_report_zero_coordination_traffic() {
    let report = run_det(7, &params(Coordination::Decentralized));
    let coord = &report.coordination;
    assert_eq!(coord.grants_received, 0);
    assert_eq!(coord.nets_sent, 0);
    assert_eq!(coord.ltcs_sent, 0);
    assert!(coord.within_bound);
}
