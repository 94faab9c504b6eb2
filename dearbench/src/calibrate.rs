//! Calibration against the machine's speed of the moment.
//!
//! On a shared 2-vCPU x86-64 VM, stretches of seconds to minutes run up
//! to twice as slow as others, and raw wall times move with them. The reference is a
//! fixed amount of allocator- and cache-bound work that never calls into
//! the program under test. The benchmark times it just before every
//! sample and set-up, and reports each of those as
//! `wall × (NOMINAL_MS / reference)^SENSITIVITY`: the time the sample
//! would have taken where the reference takes [`NOMINAL_MS`].
//!
//! The stack slows more than the small reference does (its working set is
//! larger), by the power [`SENSITIVITY`]. That power was fitted over 16
//! alternating 10-second runs of `brake_ptides` and `fleet_1000` on such
//! a VM: the
//! run-to-run spread of median samples (IQR over median) was 29% and 38%
//! raw, 10% and 9% at power 1, and 3.7% and 3.5% at 1.5; powers from 1.4
//! to 1.6 did about as well on both. The reference and the power must
//! stay as they are: changing either rescales every calibrated figure.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference's wall time on a quiet 2-vCPU x86-64 VM, in ms: the
/// scale of calibrated figures.
pub const NOMINAL_MS: f64 = 2.0;

/// How much faster than the reference the stack's samples slow down.
pub const SENSITIVITY: f64 = 1.5;

/// Runs the reference work once and returns its wall time in ms.
#[must_use]
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 1;
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x % 5_000, vec![i; 4]);
    }
    black_box(&map);
    drop(map);
    t.elapsed().as_secs_f64() * 1e3
}

/// A wall time scaled to the nominal machine speed, given the reference
/// time measured next to it.
#[must_use]
pub fn calibrated(wall: f64, reference_ms: f64) -> f64 {
    wall * (NOMINAL_MS / reference_ms).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_reference() {
        assert_eq!(calibrated(10.0, NOMINAL_MS), 10.0);
        assert!((calibrated(8.0, 4.0 * NOMINAL_MS) - 1.0).abs() < 1e-12);
        assert!(reference_ms() > 0.0);
    }
}
