//! Keyed service discovery against a linear-scan reference.
//!
//! `SdRegistry::find` resolves an exact instance with one map lookup and
//! `ANY_INSTANCE` with a range over the service's keys. This property
//! test drives random offers, renewals and StopOffers over several
//! services and instances, with random priorities and TTLs, and checks
//! every lookup — before, at and after each expiry — against a model
//! registry resolved by scanning every offer, as the registry itself did
//! before it was keyed. Watchers must fire with the offer the scan picks,
//! and active expiry must leave them on the scan's best at all times.

use dear_sim::{NodeId, Simulation};
use dear_someip::{Offer, SdRegistry, ServiceInstance, ANY_INSTANCE};
use dear_time::{Duration, Instant};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

type Model = Rc<RefCell<BTreeMap<ServiceInstance, Offer>>>;
type Failures = Rc<RefCell<Vec<String>>>;

/// Services 0..=2 are offered; 3 never is.
const SERVICES: u16 = 4;
/// Instances 0..=3 are offered; 4 never is.
const PATTERNS: [u16; 6] = [ANY_INSTANCE, 0, 1, 2, 3, 4];
/// Watched `(service, pattern)`s: they switch services 0 and 1 to active
/// expiry; service 2 stays passive.
const WATCHES: [(u16, u16); 3] = [(0, ANY_INSTANCE), (1, 2), (1, ANY_INSTANCE)];

/// The linear scan `find` used to do: lowest `(priority, instance)`
/// among the valid offers matching `(service, pattern)`.
fn reference_best(
    offers: &BTreeMap<ServiceInstance, Offer>,
    now: Instant,
    service: u16,
    pattern: u16,
) -> Option<Offer> {
    offers
        .values()
        .filter(|o| {
            o.instance.service == service
                && (pattern == ANY_INSTANCE || o.instance.instance == pattern)
                && o.valid_until >= now
        })
        .min_by_key(|o| (o.priority, o.instance.instance))
        .copied()
}

/// The same offer from the same provider (a renewal only moves
/// `valid_until`, so watchers stay quiet on it).
fn same_provider(a: Option<Offer>, b: Option<Offer>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.instance == b.instance && a.node == b.node && a.priority == b.priority
        }
        _ => false,
    }
}

/// Compares every lookup, every `offers_of` listing and every watcher's
/// last-reported offer with the model at the current instant.
fn check(
    sim: &Simulation,
    sd: &SdRegistry,
    model: &Model,
    watched: &[Rc<RefCell<Option<Offer>>>],
    failures: &Failures,
) {
    let now = sim.now();
    let offers = model.borrow();
    let mut failures = failures.borrow_mut();
    for service in 0..SERVICES {
        for pattern in PATTERNS {
            let keyed = sd.find(sim, service, pattern);
            let scanned = reference_best(&offers, now, service, pattern);
            if keyed != scanned {
                failures.push(format!(
                    "{now}: find({service}, {pattern:#x}) = {keyed:?}, scan = {scanned:?}"
                ));
            }
        }
        let mut scanned: Vec<Offer> = offers
            .values()
            .filter(|o| o.instance.service == service && o.valid_until >= now)
            .copied()
            .collect();
        scanned.sort_by_key(|o| (o.priority, o.instance.instance));
        if sd.offers_of(sim, service) != scanned {
            failures.push(format!("{now}: offers_of({service}) differs"));
        }
    }
    for (&(service, pattern), last) in WATCHES.iter().zip(watched) {
        let scanned = reference_best(&offers, now, service, pattern);
        if !same_provider(*last.borrow(), scanned) {
            failures.push(format!(
                "{now}: watcher ({service}, {pattern:#x}) holds {:?}, scan = {scanned:?}",
                last.borrow()
            ));
        }
    }
}

/// One generated operation: at `at_us`, offer (`kind` 0..=2) or stop
/// (`kind` 3) `(service, instance)`; an offer has a priority, a TTL in
/// milliseconds and a provider node.
type Op = (u64, u8, (u16, u16), u8, i64, u16);

fn run(ops: &[Op], queries: &[u64]) -> Vec<String> {
    let mut sim = Simulation::new(0);
    let sd = SdRegistry::new();
    let model: Model = Rc::default();
    let failures: Failures = Rc::default();
    let mut watched = Vec::new();
    for (service, pattern) in WATCHES {
        let last: Rc<RefCell<Option<Offer>>> = Rc::default();
        watched.push(last.clone());
        let (model, failures) = (model.clone(), failures.clone());
        sd.watch(&mut sim, service, pattern, move |sim, best| {
            let scanned = reference_best(&model.borrow(), sim.now(), service, pattern);
            if best != scanned {
                failures.borrow_mut().push(format!(
                    "{}: watcher ({service}, {pattern:#x}) fired {best:?}, scan = {scanned:?}",
                    sim.now()
                ));
            }
            *last.borrow_mut() = best;
        });
    }
    let watched = Rc::new(watched);
    let checker = {
        let (sd, model, failures, watched) =
            (sd.clone(), model.clone(), failures.clone(), watched.clone());
        move |sim: &mut Simulation| check(sim, &sd, &model, &watched, &failures)
    };

    for &(at_us, kind, (service, instance), priority, ttl_ms, node) in ops {
        let (sd, model, checker) = (sd.clone(), model.clone(), checker.clone());
        sim.schedule_at(Instant::from_micros(at_us), move |sim| {
            let instance = ServiceInstance::new(service, instance);
            if kind == 3 {
                model.borrow_mut().remove(&instance);
                sd.stop_offer(sim, instance);
            } else {
                let ttl = Duration::from_millis(ttl_ms);
                let node = NodeId(node);
                let offer = Offer {
                    instance,
                    node,
                    valid_until: sim.now().saturating_add(ttl),
                    priority,
                };
                model.borrow_mut().insert(instance, offer);
                sd.offer_prioritized(sim, instance, node, ttl, priority);
                // Look again on the last valid instant and the first
                // expired one (after the registry's own expiry event).
                let deadline = offer.valid_until;
                sim.schedule_at(deadline, checker.clone());
                sim.schedule_at(deadline + Duration::from_nanos(1), checker.clone());
            }
            checker(sim);
        });
    }
    for &at_us in queries {
        sim.schedule_at(Instant::from_micros(at_us), checker.clone());
    }
    sim.run_to_completion();
    let failures = failures.borrow().clone();
    failures
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn keyed_find_matches_linear_scan(
        ops in proptest::collection::vec(
            (0u64..40_000, 0u8..4, (0u16..3, 0u16..4), 0u8..3, 1i64..20, 1u16..3),
            1..40,
        ),
        queries in proptest::collection::vec(0u64..70_000, 1..20),
    ) {
        let failures = run(&ops, &queries);
        prop_assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
