//! The LBTS solver: the Chandy–Misra-style fixpoint shared by every
//! coordination level.
//!
//! Every coordinator node runs the **same** computation over its own
//! table — the flat [`Rti`](crate::Rti) over its federates, each zone
//! over its members (plus proxies standing in for upstream zones), the
//! root over zone summaries — so the fixpoint lives here, behind a small
//! graph abstraction.
//!
//! A node's **floor** (the earliest tag it may still process or send at)
//! is `max(succ(completed), min(head, arrival_floor))`, where the arrival
//! floor is the node's own LBTS (plus, for nodes with physical inputs
//! from outside the federation, the reported fence). Floors propagate
//! along edges shifted by the edge delay until stable; values start at
//! [`TAG_MAX`] and only decrease, and simple paths bound the result, so
//! `n` rounds suffice.

use dear_core::Tag;
use dear_time::{Duration, Instant};

/// The greatest representable tag, used as the "no constraint" sentinel.
/// Round-trips through the wire encoding as `dear_someip::TAG_NEVER`.
pub const TAG_MAX: Tag = Tag::new(Instant::MAX, u32::MAX);

/// The strict successor of a tag (saturating at [`TAG_MAX`]).
#[must_use]
pub fn tag_succ(tag: Tag) -> Tag {
    if tag >= TAG_MAX {
        TAG_MAX
    } else {
        tag.delay(Duration::ZERO)
    }
}

/// The earliest tag a message processed at `tag` can carry after an edge
/// with minimum delay `delay` (a DEAR edge preserves the microstep and
/// adds `D + L + E` to the time point; a zero-delay edge is the identity).
#[must_use]
pub fn edge_add(tag: Tag, delay: Duration) -> Tag {
    if delay.is_zero() || tag >= TAG_MAX {
        tag
    } else {
        Tag::new(tag.time.saturating_add(delay), tag.microstep)
    }
}

/// The earliest tag on the periodic lattice `g` **strictly after**
/// `completed`: the next whole multiple of `g` at microstep zero. A node
/// whose every local event source is a static timer with offsets and
/// periods that are multiples of `g` cannot originate events off this
/// lattice, so its stale head (≤ `completed`) may be leapt forward to it
/// wholesale instead of one microstep at a time.
#[must_use]
pub fn lattice_next(completed: Tag, g: Duration) -> Tag {
    let g_ns = g.as_nanos();
    if g_ns <= 0 || completed >= TAG_MAX {
        return tag_succ(completed);
    }
    let g_ns = g_ns.unsigned_abs();
    let now_ns = completed.time.as_nanos();
    // Next strict multiple of g: completing exactly on a lattice point
    // still advances a full period (the event at that point is done).
    // Overflow *or* landing exactly on `Instant::MAX` both clamp to the
    // sentinel: a tag with time `u64::MAX` but microstep zero would sit
    // between every real tag and [`TAG_MAX`], in wire-sentinel territory
    // (`dear_someip::TAG_NEVER` reserves that time point).
    match now_ns.checked_add(g_ns - now_ns % g_ns) {
        Some(next) if next < Instant::MAX.as_nanos() => Tag::at(Instant::from_nanos(next)),
        _ => TAG_MAX,
    }
}

/// The floor-relevant state of one node, as seen by the solver. A node is
/// a federate at zone level and a whole zone at root level.
#[derive(Debug, Clone, Copy)]
pub struct NodeView {
    /// The node no longer constrains anyone (resigned or declared dead):
    /// its floor is [`TAG_MAX`].
    pub released: bool,
    /// Whether the node takes physical inputs from outside the
    /// federation; such nodes bound future tags by the reported fence.
    pub external: bool,
    /// Last completed tag, if any (LTC high-water mark).
    pub completed: Option<Tag>,
    /// Earliest pending event tag ([`TAG_MAX`] when idle; the origin
    /// means "unknown, assume anything").
    pub head: Tag,
    /// Physical-time fence (meaningful only when `external`).
    pub fence: Tag,
    /// The node's declared **periodic event lattice**, if any: every
    /// locally originated event lands on a whole multiple of this
    /// duration at microstep zero. Lets [`node_floor`] leap a stale head
    /// (≤ `completed`) to [`lattice_next`] instead of waiting for the
    /// next NET — the periodic fast path of the control-plane diet.
    pub period: Option<Duration>,
}

/// A coordination graph the solver can run over: indexed nodes plus
/// per-node upstream edge lists `(upstream index, minimum tag delay)`.
pub trait LbtsGraph {
    /// Number of nodes.
    fn len(&self) -> usize;
    /// Whether the graph has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The floor-relevant state of node `i`.
    fn node(&self, i: usize) -> NodeView;
    /// Incoming edges of node `i`.
    fn upstream(&self, i: usize) -> &[(u16, Duration)];
}

/// The non-transitive part of a node's floor: what its own reports
/// promise about its future processing, with `arrival` (the transitive
/// bound on its future message arrivals) plugged in.
#[must_use]
pub fn node_floor(view: &NodeView, arrival: Tag) -> Tag {
    if view.released {
        return TAG_MAX;
    }
    let arrival_floor = if view.external {
        arrival.min(view.fence)
    } else {
        arrival
    };
    // Periodic fast path: a lattice-declared node whose reported head is
    // stale (already completed past it) cannot originate anything before
    // the next lattice point, so the solver refreshes the head itself
    // instead of stalling until the node's next NET arrives.
    let head = match (view.period, view.completed) {
        (Some(g), Some(c)) if view.head <= c => lattice_next(c, g),
        _ => view.head,
    };
    let reported = head.min(arrival_floor);
    view.completed
        .map_or(reported, |c| tag_succ(c).max(reported))
}

/// The reusable LBTS fixpoint. Owns its scratch buffer so repeated
/// recomputes on a steady topology allocate nothing.
#[derive(Debug, Default)]
pub struct LbtsSolver {
    lbts: Vec<Tag>,
}

impl LbtsSolver {
    /// Creates a solver with an empty scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        LbtsSolver::default()
    }

    /// Runs the fixpoint: `lbts[f] = min` over upstream edges `(u, d)` of
    /// `edge_add(floor(u), d)`, where `floor(u)` itself uses `lbts[u]`.
    /// Nodes without upstream edges keep the unconstrained [`TAG_MAX`].
    /// Returns the per-node LBTS slice (valid until the next call).
    pub fn solve(&mut self, graph: &impl LbtsGraph) -> &[Tag] {
        let n = graph.len();
        self.lbts.clear();
        self.lbts.resize(n, TAG_MAX);
        for _ in 0..=n {
            let mut changed = false;
            for f in 0..n {
                if graph.upstream(f).is_empty() {
                    continue;
                }
                let mut new = TAG_MAX;
                for &(u, d) in graph.upstream(f) {
                    let u = usize::from(u);
                    let uf = node_floor(&graph.node(u), self.lbts[u]);
                    new = new.min(edge_add(uf, d));
                }
                if new != self.lbts[f] {
                    self.lbts[f] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        &self.lbts
    }

    /// The LBTS values of the latest [`LbtsSolver::solve`] call.
    #[must_use]
    pub fn lbts(&self) -> &[Tag] {
        &self.lbts
    }

    /// The floor of node `i` under the latest solve.
    #[must_use]
    pub fn floor(&self, graph: &impl LbtsGraph, i: usize) -> Tag {
        node_floor(&graph.node(i), self.lbts[i])
    }

    /// Picks the provisional-grant candidate that breaks a zero-delay
    /// stall, if any. A node whose own pending head *equals* its LBTS can
    /// never be released by a strict bound; if every binding upstream
    /// edge is zero-delay and stuck at or beyond the same tag, processing
    /// exactly the head is safe, so it may be granted provisionally. One
    /// grant per round keeps ties deterministic (minimal `(tag, index)`
    /// wins); the resulting LTC advances the rest.
    ///
    /// `eligible` supplies the caller-side conditions the solver cannot
    /// see (connected, not already granted this head, ...).
    #[must_use]
    pub fn ptag_candidate(
        &self,
        graph: &impl LbtsGraph,
        eligible: impl Fn(usize) -> bool,
    ) -> Option<(Tag, usize)> {
        let mut candidate: Option<(Tag, usize)> = None;
        for f in 0..graph.len() {
            let view = graph.node(f);
            if view.released
                || graph.upstream(f).is_empty()
                || view.head >= TAG_MAX
                || view.head != self.lbts[f]
                || !eligible(f)
            {
                continue;
            }
            let justified = graph.upstream(f).iter().all(|&(u, d)| {
                let u = usize::from(u);
                let up = graph.node(u);
                let uf = node_floor(&up, self.lbts[u]);
                edge_add(uf, d) > view.head || (d.is_zero() && up.head >= view.head)
            });
            if justified && candidate.is_none_or(|(t, i)| (view.head, f) < (t, i)) {
                candidate = Some((view.head, f));
            }
        }
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestGraph {
        nodes: Vec<NodeView>,
        edges: Vec<Vec<(u16, Duration)>>,
    }

    impl LbtsGraph for TestGraph {
        fn len(&self) -> usize {
            self.nodes.len()
        }
        fn node(&self, i: usize) -> NodeView {
            self.nodes[i]
        }
        fn upstream(&self, i: usize) -> &[(u16, Duration)] {
            &self.edges[i]
        }
    }

    fn node(head_ms: u64) -> NodeView {
        NodeView {
            released: false,
            external: false,
            completed: None,
            head: Tag::at(Instant::from_millis(head_ms)),
            fence: Tag::ORIGIN,
            period: None,
        }
    }

    #[test]
    fn chain_propagates_shifted_floors() {
        // 0 --1ms--> 1 --1ms--> 2; node 0 pending at 10ms, the others
        // later, so the chain's floors are arrival-bounded.
        let mut g = TestGraph {
            nodes: vec![node(10), node(30), node(50)],
            edges: vec![
                vec![],
                vec![(0, Duration::from_millis(1))],
                vec![(1, Duration::from_millis(1))],
            ],
        };
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g);
        assert_eq!(lbts[0], TAG_MAX);
        assert_eq!(lbts[1], Tag::at(Instant::from_millis(11)));
        assert_eq!(lbts[2], Tag::at(Instant::from_millis(12)));

        // Node 0 completes 10ms: its floor rises past the head.
        g.nodes[0].completed = Some(Tag::at(Instant::from_millis(10)));
        g.nodes[0].head = TAG_MAX;
        let lbts = solver.solve(&g);
        assert!(lbts[1] > Tag::at(Instant::from_millis(10)));
    }

    #[test]
    fn released_nodes_stop_constraining() {
        let mut g = TestGraph {
            nodes: vec![node(10), node(10)],
            edges: vec![vec![], vec![(0, Duration::from_millis(1))]],
        };
        g.nodes[0].released = true;
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g);
        assert_eq!(lbts[1], TAG_MAX);
    }

    #[test]
    fn external_fence_bounds_the_floor() {
        let mut g = TestGraph {
            nodes: vec![node(10), node(10)],
            edges: vec![vec![], vec![(0, Duration::from_millis(1))]],
        };
        g.nodes[0].external = true;
        g.nodes[0].head = TAG_MAX; // idle...
        g.nodes[0].fence = Tag::at(Instant::from_millis(3)); // ...but fenced at 3ms
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g);
        assert_eq!(lbts[1], Tag::at(Instant::from_millis(4)));
    }

    #[test]
    fn zero_delay_cycle_needs_a_ptag() {
        // 0 <--0--> 1, both pending at the same tag: no strict bound can
        // advance, but the provisional candidate is justified.
        let g = TestGraph {
            nodes: vec![node(5), node(5)],
            edges: vec![vec![(1, Duration::ZERO)], vec![(0, Duration::ZERO)]],
        };
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g).to_vec();
        assert_eq!(lbts[0], Tag::at(Instant::from_millis(5)));
        let cand = solver.ptag_candidate(&g, |_| true);
        // Deterministic tie-break: minimal (tag, index).
        assert_eq!(cand, Some((Tag::at(Instant::from_millis(5)), 0)));
        // Caller-side eligibility is honoured.
        assert_eq!(
            solver.ptag_candidate(&g, |f| f != 0),
            Some((Tag::at(Instant::from_millis(5)), 1))
        );
    }

    #[test]
    fn lattice_next_leaps_to_the_next_strict_multiple() {
        let g = Duration::from_millis(10);
        // Mid-period completion snaps up to the next lattice point.
        assert_eq!(
            lattice_next(Tag::at(Instant::from_millis(13)), g),
            Tag::at(Instant::from_millis(20))
        );
        // Completing exactly on a point still advances a full period.
        assert_eq!(
            lattice_next(Tag::at(Instant::from_millis(20)), g),
            Tag::at(Instant::from_millis(30))
        );
        // Microsteps collapse: the next lattice tag is at microstep zero.
        assert_eq!(
            lattice_next(Tag::new(Instant::from_millis(20), 3), g),
            Tag::at(Instant::from_millis(30))
        );
        // Degenerate lattice falls back to the plain successor.
        assert_eq!(
            lattice_next(Tag::at(Instant::from_millis(7)), Duration::ZERO),
            tag_succ(Tag::at(Instant::from_millis(7)))
        );
        assert_eq!(lattice_next(TAG_MAX, g), TAG_MAX);
    }

    #[test]
    fn lattice_next_clamps_at_the_sentinel_boundary() {
        let g = Duration::from_nanos(1 << 30);
        // A completion whose next lattice point would overflow u64 nanos
        // clamps to the sentinel instead of wrapping.
        let near_max = Tag::at(Instant::from_nanos(u64::MAX - 1));
        assert_eq!(lattice_next(near_max, g), TAG_MAX);
        // A next point that lands *exactly* on `Instant::MAX` is also the
        // sentinel: `(u64::MAX, 0)` would be a tag below `TAG_MAX` but in
        // TAG_NEVER's reserved time point. 5 divides `u64::MAX`, so the
        // lattice point after `u64::MAX - 5` is exactly `u64::MAX`.
        let g2 = Duration::from_nanos(5);
        let completed = Tag::at(Instant::from_nanos(u64::MAX - 5));
        assert_eq!(lattice_next(completed, g2), TAG_MAX);
        // Just below the boundary the arithmetic is untouched.
        let safe = Tag::at(Instant::from_nanos((1 << 30) + 5));
        assert_eq!(lattice_next(safe, g), Tag::at(Instant::from_nanos(2 << 30)));
    }

    #[test]
    fn periodic_lattice_refreshes_a_stale_head() {
        // Node 0 completed 20ms but its reported head is stale at 10ms.
        // Without a lattice the floor only clears succ(completed); with a
        // declared 10ms lattice the solver leaps the head to 30ms itself.
        let mut g = TestGraph {
            nodes: vec![node(10), node(50)],
            edges: vec![vec![], vec![(0, Duration::from_millis(1))]],
        };
        g.nodes[0].completed = Some(Tag::at(Instant::from_millis(20)));
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g).to_vec();
        assert_eq!(lbts[1], Tag::new(Instant::from_millis(21), 1));

        g.nodes[0].period = Some(Duration::from_millis(10));
        let lbts = solver.solve(&g).to_vec();
        assert_eq!(lbts[1], Tag::at(Instant::from_millis(31)));

        // A genuinely fresh head (beyond completed) is never overridden:
        // the node may know about an aperiodic message arrival.
        g.nodes[0].head = Tag::at(Instant::from_millis(25));
        let lbts = solver.solve(&g).to_vec();
        assert_eq!(lbts[1], Tag::at(Instant::from_millis(26)));
    }

    #[test]
    fn solver_reuses_its_scratch_buffer() {
        let g = TestGraph {
            nodes: vec![node(1), node(2)],
            edges: vec![vec![], vec![(0, Duration::from_millis(1))]],
        };
        let mut solver = LbtsSolver::new();
        let first = solver.solve(&g).as_ptr();
        for _ in 0..10 {
            let again = solver.solve(&g).as_ptr();
            assert_eq!(first, again, "steady-state solves must not reallocate");
        }
    }
}
