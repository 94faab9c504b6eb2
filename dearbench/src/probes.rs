//! Microprobes: each layer timed from outside, by calling its public
//! functions in a loop. Each probe calibrates a batch to about 2 ms,
//! runs [`BATCHES`] batches, and reports the median ns per operation.
//! The ledger multiplies these by the workloads' operation counts.

use dear_apd::Frame;
use dear_core::{ProgramBuilder, Runtime, Tag};
use dear_federation::{EventLog, LbtsGraph, LbtsSolver, LogRecord, NodeView};
use dear_observe::Observe;
use dear_sim::{Frame as NetFrame, LinkConfig, NetworkHandle, NodeId, Simulation};
use dear_someip::{CoordMsg, FramePool, MessageId, SomeIpMessage, WireTag};
use dear_time::{Duration, Instant};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant as Wall;

/// Timed batches per probe.
pub const BATCHES: usize = 21;
const BATCH_TARGET: std::time::Duration = std::time::Duration::from_millis(2);

/// Median ns/op of `batch(ops)`, which runs `ops` operations and returns
/// the wall time it measured itself (so per-batch set-up stays out).
fn probe(mut batch: impl FnMut(u64) -> std::time::Duration) -> f64 {
    let mut ops = 16u64;
    while batch(ops) < BATCH_TARGET && ops < 1 << 24 {
        ops *= 2;
    }
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| batch(ops).as_secs_f64() * 1e9 / ops as f64)
        .collect();
    crate::stats::Samples::new(per_op)
        .median()
        .expect("probe ran batches")
}

/// Times `ops` calls of `f` on consecutive indices.
fn timed(ops: u64, mut f: impl FnMut(u64)) -> std::time::Duration {
    let t = Wall::now();
    for i in 0..ops {
        f(i);
    }
    t.elapsed()
}

/// The microprobe results (ns per operation unless noted).
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `Runtime::run_fast` per tag on a fleet-member program (1 reaction).
    pub step_member: f64,
    /// `Runtime::run_fast` per tag on a 4-reaction chain.
    pub step_chain4: f64,
    /// apd `Frame` payload → tagged notification → `into_frame` →
    /// `decode_frame` → `Frame::from_payload`.
    pub data_msg: f64,
    /// Allocations per data message on that path.
    pub data_allocs_per_msg: f64,
    /// `CoordMsg::encode_into` + `CoordMsg::decode`.
    pub coord_msg: f64,
    /// `NetworkHandle::send` on an ideal link, then `Simulation::step`
    /// delivering the frame.
    pub deliver: f64,
    /// `Simulation::schedule_in` of an empty event, then `step`.
    pub event: f64,
    /// `LbtsSolver::solve` on a 10-node chain (one zone).
    pub zone_solve: f64,
    /// `LbtsSolver::solve` on a 100-node star (the root over 100 zones).
    pub root_solve: f64,
    /// `EventLog::append` of a `Processed` record.
    pub append: f64,
    /// `Observe::count` on an enabled registry.
    pub count: f64,
}

/// A timer-driven four-stage chain: timer → a → b → c → d, one reaction
/// per stage, values passed on ports.
fn chain4() -> Runtime {
    let mut b = ProgramBuilder::new();
    let mut src = b.reactor("src", 0u64);
    let t = src.timer(
        "tick",
        Duration::from_millis(1),
        Some(Duration::from_millis(1)),
    );
    let mut prev = src.output::<u64>("out");
    let out = prev;
    src.reaction("emit")
        .triggered_by(t)
        .effects(out)
        .body(move |n: &mut u64, ctx| {
            *n += 1;
            ctx.set(out, *n);
        });
    src.finish();
    for stage in ["b", "c", "d"] {
        let mut r = b.reactor(stage, 0u64);
        let input = r.input::<u64>("in");
        let output = r.output::<u64>("out");
        r.reaction("pass")
            .triggered_by(input)
            .effects(output)
            .body(move |acc: &mut u64, ctx| {
                let v = ctx.get(input).copied().unwrap_or(0);
                *acc = acc.wrapping_add(v);
                ctx.set(output, v + 1);
            });
        r.finish();
        b.connect(prev, input).expect("chain connects");
        prev = output;
    }
    Runtime::new(b.build().expect("chain builds"))
}

fn step_probe(mut rt: Runtime) -> f64 {
    rt.start(Instant::EPOCH);
    probe(|ops| {
        let t = Wall::now();
        let n = rt.run_fast(ops);
        let e = t.elapsed();
        assert_eq!(n, ops, "periodic programs never idle");
        e
    })
}

/// A solver graph: fixed node views plus upstream edge lists.
struct Graph {
    nodes: Vec<NodeView>,
    upstream: Vec<Vec<(u16, Duration)>>,
}

impl LbtsGraph for Graph {
    fn len(&self) -> usize {
        self.nodes.len()
    }
    fn node(&self, i: usize) -> NodeView {
        self.nodes[i]
    }
    fn upstream(&self, i: usize) -> &[(u16, Duration)] {
        &self.upstream[i]
    }
}

/// `n` lattice nodes in steady state (each completed tag 10 ms, head
/// 20 ms); `edges` lists `(upstream, downstream)` pairs with 1 ms delay.
fn graph(n: usize, edges: impl Iterator<Item = (usize, usize)>) -> Graph {
    let view = NodeView {
        released: false,
        external: false,
        completed: Some(Tag::at(Instant::from_millis(10))),
        head: Tag::at(Instant::from_millis(20)),
        fence: Tag::ORIGIN,
        period: Some(Duration::from_millis(10)),
    };
    let mut upstream = vec![Vec::new(); n];
    for (u, d) in edges {
        upstream[d].push((u16::try_from(u).expect("node"), Duration::from_millis(1)));
    }
    Graph {
        nodes: vec![view; n],
        upstream,
    }
}

fn solve_probe(g: &Graph) -> f64 {
    let mut solver = LbtsSolver::new();
    probe(|ops| {
        timed(ops, |_| {
            black_box(solver.solve(black_box(g)));
        })
    })
}

/// Runs every microprobe.
#[must_use]
pub fn run() -> Probes {
    let mut p = Probes {
        step_member: step_probe(crate::fleet::fleet_member("member")),
        step_chain4: step_probe(chain4()),
        ..Probes::default()
    };

    let pool = FramePool::new();
    let data_op = |i: u64| {
        let payload = Frame::new(i, i * 50_000_000).to_payload();
        let msg = SomeIpMessage::notification(MessageId::new(0x0100, 0x8001), payload)
            .with_tag(WireTag::new(i * 50_000_000, 0));
        let frame = msg.into_frame(&pool);
        let decoded = SomeIpMessage::decode_frame(&frame).expect("data message decodes");
        let back = Frame::from_payload(&decoded.payload).expect("frame payload parses");
        assert_eq!(back.id, i);
    };
    p.data_msg = probe(|ops| timed(ops, data_op));
    let allocs = crate::alloc::allocations();
    timed(10_000, data_op);
    p.data_allocs_per_msg = (crate::alloc::allocations() - allocs) as f64 / 10_000.0;

    p.coord_msg = probe(|ops| {
        timed(ops, |i| {
            let tag = WireTag::new(i * 10_000_000, 0);
            let frame = CoordMsg::net(7, tag, tag).encode_into(&pool);
            let back = CoordMsg::decode(&frame).expect("coordination message decodes");
            assert_eq!(back.tag, tag);
        })
    });

    let mut sim = Simulation::new(1);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(50)),
        sim.fork_rng("net"),
    );
    let received = Rc::new(Cell::new(0u64));
    let sink = received.clone();
    net.set_receiver(NodeId(2), move |_, f: NetFrame| {
        sink.set(sink.get() + f.payload.len() as u64);
    });
    let payload = Frame::new(1, 2).to_payload();
    p.deliver = probe(|ops| {
        timed(ops, |_| {
            net.send(
                &mut sim,
                NetFrame {
                    src: NodeId(1),
                    dst: NodeId(2),
                    payload: payload.clone(),
                },
            );
            assert!(sim.step(), "the frame is delivered");
        })
    });
    assert!(received.get() > 0, "frames reached the receiver");
    p.event = probe(|ops| {
        timed(ops, |_| {
            sim.schedule_in(Duration::from_micros(1), |_| {});
            assert!(sim.step(), "the event runs");
        })
    });

    p.zone_solve = solve_probe(&graph(10, (0..9).map(|i| (i, i + 1))));
    p.root_solve = solve_probe(&graph(100, (1..100).map(|i| (0, i))));

    p.append = probe(|ops| {
        let log = EventLog::in_memory();
        timed(ops, |i| {
            let tag = Tag::at(Instant::from_nanos(i * 10_000_000));
            log.append(&LogRecord::Processed {
                tag,
                local: i * 10_000_000,
            });
        })
    });

    let observe = Observe::enabled();
    p.count = probe(|ops| timed(ops, |_| observe.count("coord/sent/net", 1)));
    p
}

/// Replay cost per record of a synthetic log shaped like the brake
/// assistant's Computer Vision log (start anchor, then per frame two
/// inputs, a grant, a processed tag and a drain watermark, with a
/// snapshot every 16 tags). Used where the benchmark cannot reach the
/// real log: `run_det` owns it.
#[must_use]
pub fn synthetic_replay_ns_per_record() -> f64 {
    let log = EventLog::in_memory();
    log.append(&LogRecord::Started { anchor: 0 });
    for f in 0..crate::brake::FRAMES {
        let at = f * 50_000_000;
        let tag = Tag::at(Instant::from_nanos(at));
        for key in 0..2 {
            log.append(&LogRecord::Input {
                key,
                tag,
                bytes: Frame::new(f, at).to_payload().to_vec(),
            });
        }
        log.append(&LogRecord::Granted { bound: tag });
        log.append(&LogRecord::Processed { tag, local: at });
        log.append(&LogRecord::Drained { tag });
        if f % 16 == 15 {
            log.append(&LogRecord::Snapshot {
                seq: 0,
                last_processed: Some(tag),
                granted: Some(tag),
            });
        }
    }
    let per_record: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Wall::now();
            let records = black_box(log.replay()).len();
            t.elapsed().as_secs_f64() * 1e9 / records as f64
        })
        .collect();
    crate::stats::Samples::new(per_record)
        .median()
        .expect("replays ran")
}
