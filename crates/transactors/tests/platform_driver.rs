//! Behaviour of the decentralized platform driver at its edges: a runtime
//! that stops, and wire tags whose release `t + L + E` would overflow the
//! time range.

use dear_core::{ProgramBuilder, Runtime, Tag};
use dear_sim::{LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear_someip::{Binding, FrameBuf, ReturnCode, SdRegistry, ServiceInstance, WireTag};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientEventTransactor, DearConfig, EventSpec, FederatedPlatform, MethodSpec, Outbox,
    ServerEventTransactor, ServerMethodTransactor, TransactorStats,
};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

const SERVICE: u16 = 0x1001;
const INSTANCE: u16 = 1;
const EVENTGROUP: u16 = 1;
const EVENT: u16 = 0x8001;
const METHOD: u16 = 0x01;

const SPEC: EventSpec = EventSpec {
    service: SERVICE,
    instance: INSTANCE,
    eventgroup: EVENTGROUP,
    event: EVENT,
};

/// The `(tag, value)` pairs a subscriber collected.
type Seen = Arc<Mutex<Vec<(Tag, u8)>>>;

/// A wire tag whose release `t + L + E` lies past the end of time.
const EDGE_OF_TIME: WireTag = WireTag::new(u64::MAX - 1, 0);

fn network(sim: &mut Simulation) -> (NetworkHandle, SdRegistry) {
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    (net, SdRegistry::new())
}

/// A platform whose only logic collects the payloads of event `SPEC` with
/// their tags, and the binding it receives through: no route of a pure
/// subscriber owns that binding, so the caller holds it.
fn subscriber(
    sim: &mut Simulation,
    net: &NetworkHandle,
    sd: &SdRegistry,
    cfg: DearConfig,
) -> (FederatedPlatform, Binding, Seen, TransactorStats) {
    let mut b = ProgramBuilder::new();
    let input = ClientEventTransactor::declare(&mut b, "ping");
    let seen: Seen = Arc::new(Mutex::new(Vec::new()));
    {
        let mut logic = b.reactor("consumer", ());
        let sink = seen.clone();
        logic
            .reaction("collect")
            .triggered_by(input.event)
            .body(move |_, ctx| {
                let v = ctx.get(input.event).unwrap()[0];
                sink.lock().unwrap().push((ctx.tag(), v));
            });
        logic.finish();
    }
    let platform = FederatedPlatform::new(
        "consumer",
        Runtime::new(b.build().unwrap()),
        VirtualClock::ideal(),
        Outbox::new(),
        sim.fork_rng("consumer-costs"),
    );
    let binding = Binding::new(net, sd, NodeId(2), 0x22);
    let stats = input.bind(&platform, &binding, SPEC, cfg);
    (platform, binding, seen, stats)
}

/// The decentralized twin of the coordinated stop test: a producer that
/// sends on every 10 ms tick is stopped at local 55 ms. The consumer sees
/// the five ticks before the stop, the producer's runtime shuts down, and
/// no wake-up stays pending.
#[test]
fn stopped_producer_leaves_nothing_pending() {
    let deadline = Duration::from_millis(2);
    let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
    let mut sim = Simulation::new(3);
    let (net, sd) = network(&mut sim);

    let outbox = Outbox::new();
    let mut b = ProgramBuilder::new();
    let publish = ServerEventTransactor::declare(&mut b, &outbox, "ping", deadline);
    {
        let mut logic = b.reactor("producer", 0u8);
        let out = logic.output::<FrameBuf>("out");
        let period = Duration::from_millis(10);
        let t = logic.timer("emit", period, Some(period));
        logic
            .reaction("emit")
            .triggered_by(t)
            .effects(out)
            .body(move |n: &mut u8, ctx| {
                *n += 1;
                ctx.set(out, vec![*n].into());
            });
        logic.finish();
        b.connect(out, publish.event).unwrap();
    }
    let producer = FederatedPlatform::new(
        "producer",
        Runtime::new(b.build().unwrap()),
        VirtualClock::ideal(),
        outbox,
        sim.fork_rng("producer-costs"),
    );
    let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
    binding.offer(
        &mut sim,
        ServiceInstance::new(SERVICE, INSTANCE),
        Duration::from_secs(1 << 20),
    );
    publish.bind(&producer, &binding, SPEC);
    let (consumer, _binding, seen, stats) = subscriber(&mut sim, &net, &sd, cfg);

    producer.start(&mut sim);
    consumer.start(&mut sim);
    producer.stop_at_local(&mut sim, Instant::from_millis(55));
    sim.run_to_completion();

    let edge_delay = deadline + cfg.stp_offset();
    let expected: Vec<(Tag, u8)> = (1..=5u8)
        .map(|n| {
            (
                Tag::at(Instant::from_millis(10 * u64::from(n)) + edge_delay),
                n,
            )
        })
        .collect();
    assert_eq!(*seen.lock().unwrap(), expected);
    assert_eq!(stats.stp_violations(), 0);
    assert!(!producer.with_runtime(|rt| rt.is_running()));
    // Ticks at 10..50 ms plus the shutdown tag at 55 ms.
    assert_eq!(producer.stats().processed_tags, 6);
    assert_eq!(sim.stats().pending_events, 0, "{}", sim.stats());
}

/// An event whose wire tag lies within `L + E` of the end of time has no
/// release tag: it is dropped and counted as an STP violation instead of
/// panicking the simulation.
#[test]
fn event_with_unreleasable_tag_is_an_stp_violation() {
    let cfg = DearConfig::new(Duration::from_millis(5), Duration::from_millis(1));
    let mut sim = Simulation::new(1);
    let (net, sd) = network(&mut sim);
    let (consumer, _binding, seen, stats) = subscriber(&mut sim, &net, &sd, cfg);
    consumer.start(&mut sim);

    let publisher = Binding::new(&net, &sd, NodeId(1), 0x11);
    let instance = ServiceInstance::new(SERVICE, INSTANCE);
    publisher.offer(&mut sim, instance, Duration::from_secs(3600));
    publisher.set_outgoing_tag(EDGE_OF_TIME);
    publisher.notify(&mut sim, instance, EVENTGROUP, EVENT, vec![1]);
    sim.run_until(Instant::from_millis(100));

    assert!(seen.lock().unwrap().is_empty());
    assert_eq!(stats.stp_violations(), 1);
}

/// A request whose wire tag lies within `L + E` of the end of time is
/// refused: the method server counts an STP violation and replies
/// `NotOk`.
#[test]
fn request_with_unreleasable_tag_is_refused() {
    let cfg = DearConfig::new(Duration::from_millis(5), Duration::from_millis(1));
    let mut sim = Simulation::new(1);
    let (net, sd) = network(&mut sim);

    let outbox = Outbox::new();
    let mut b = ProgramBuilder::new();
    let smt = ServerMethodTransactor::declare(&mut b, &outbox, "calc", Duration::ZERO);
    {
        let mut logic = b.reactor("server_logic", ());
        let resp = logic.output::<FrameBuf>("response");
        logic
            .reaction("serve")
            .triggered_by(smt.request)
            .effects(resp)
            .body(move |_, ctx| ctx.set(resp, vec![0].into()));
        logic.finish();
        b.connect(resp, smt.response).unwrap();
    }
    let server = FederatedPlatform::new(
        "server",
        Runtime::new(b.build().unwrap()),
        VirtualClock::ideal(),
        outbox,
        sim.fork_rng("server-costs"),
    );
    let server_binding = Binding::new(&net, &sd, NodeId(2), 0x22);
    server_binding.offer(
        &mut sim,
        ServiceInstance::new(SERVICE, INSTANCE),
        Duration::from_secs(3600),
    );
    let spec = MethodSpec {
        service: SERVICE,
        instance: INSTANCE,
        method: METHOD,
    };
    let stats = smt.bind(&server, &server_binding, spec, cfg);
    server.start(&mut sim);

    let client = Binding::new(&net, &sd, NodeId(1), 0x11);
    client.set_outgoing_tag(EDGE_OF_TIME);
    let reply: Rc<Cell<Option<ReturnCode>>> = Rc::new(Cell::new(None));
    let reply_in = reply.clone();
    client
        .call(
            &mut sim,
            SERVICE,
            INSTANCE,
            METHOD,
            vec![7],
            move |_, msg| {
                reply_in.set(Some(msg.return_code));
            },
        )
        .unwrap();
    sim.run_until(Instant::from_millis(100));

    assert_eq!(reply.get(), Some(ReturnCode::NotOk));
    assert_eq!(stats.stp_violations(), 1);
    assert_eq!(server.stats().processed_tags, 0);
}
