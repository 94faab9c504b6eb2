//! The coordinator: one node type for every level of centralized
//! logical-time coordination.
//!
//! A node tracks, per child, the last completed tag (LTC), the earliest
//! pending event tag plus a physical-time fence (NET), and the declared
//! topology with per-edge minimum tag delays (`D + L + E` for a DEAR
//! transactor edge). From these the shared
//! [`LbtsSolver`](crate::LbtsSolver) computes each child's **LBTS** (least
//! bound on incoming tags) — a tag below which no further message can
//! possibly arrive — and the node grants tag advances:
//!
//! * **TAG(b)** — the federate may process all tags *strictly before* `b`;
//! * **PTAG(g)** — provisional grant for exactly tag `g`, issued to break
//!   zero-delay cycles where no strict bound can advance.
//!
//! A node's table holds children of three kinds: **federates**, which get
//! TAG, PTAG and DNET grants; **child nodes**, whose head is the floor they
//! rolled up; and **proxies**, whose head is the floor the parent relayed
//! for an upstream zone. To the solver all three are plain nodes, so one
//! fixpoint serves every level.
//!
//! The flat [`Rti`] is a parentless node with federate children (depth 1).
//! The [`HierarchicalRti`] is a parentless root whose children are zone
//! nodes, each holding its federates plus one proxy per upstream zone
//! (depth 2):
//!
//! ```text
//!                         ┌──────┐
//!            floor Z0..Zn │ root │ relayed upstream floors
//!               ┌────────►│      ├─────────┐
//!               │         └──▲───┘         ▼
//!          ┌────┴───┐        │         ┌────────┐
//!          │ zone 0 │   ┌────┴───┐     │ zone n │
//!          └─▲────┬─┘   │ zone 1 │     └─▲────┬─┘
//!   NET/LTC  │    │TAG  └────────┘       │    │
//!        ┌───┴────▼──┐ ...           ┌───┴────▼──┐
//!        │ federates │               │ federates │
//!        └───────────┘               └───────────┘
//! ```
//!
//! The root sees one child per zone (head = the zone's rolled-up floor,
//! `min` over its member floors) and the zone-level edge skeleton (the
//! `min` delay over all federate edges crossing each zone pair). Its
//! fixpoint yields, per zone, the least bound on tags that can still
//! arrive from each upstream zone; those **relayed floors** fan back down
//! to the zones' proxies.
//!
//! The node's position picks the wire shape. A parentless node sends one
//! single-record frame per grant on each federate's own eventgroup. A
//! zone sends all grants of one recompute as one batch on its shared
//! member eventgroup (members filter by federate id) and rolls its floor
//! up to the root as one record when it changed; the root relays changed
//! floors down as one batch per zone. Every hop is change-driven and
//! monotone: floors only rise, except through a `Rejoin`-kind record,
//! the one legitimate *retreat* — a crashed member replayed its durable
//! log and rejoined below the bound its death had released.
//!
//! Zero-delay cycles must stay zone-local: the root issues no provisional
//! grants, so a zero-delay cycle crossing zones would stall (assign such
//! federates to one zone, exactly like Lingua Franca keeps them in one
//! enclave).
//!
//! Liveness and the control diet are node configuration that a child
//! node inherits when it is created. Each node watches its own children —
//! federates through their reports, zones through their roll-ups and the
//! uplink heartbeat — and releases a silent child's bound, so a dead
//! member raises its zone's floor and a dead zone is released without
//! stalling its siblings.
//!
//! All control traffic rides the SOME/IP coordination service defined in
//! `dear-someip::coord`; a node is itself just a binding on a simulated
//! network node, so grant latency is governed by the simulated network
//! like any other message.

use crate::solver::{node_floor, tag_succ, LbtsGraph, LbtsSolver, NodeView, TAG_MAX};
use dear_core::Tag;
use dear_observe::Lane;
use dear_sim::{NetworkHandle, NodeId, Simulation};
use dear_someip::{
    coord_eventgroup, Binding, CoordBatch, CoordKind, CoordMsg, FrameBuf, FramePool, SdRegistry,
    ServiceInstance, WireTag, COORD_BATCH_MARKER, COORD_EVENT, COORD_EVENTGROUP_BASE,
    COORD_INSTANCE, COORD_METHOD, COORD_SERVICE, DNET_NET_LATTICE, DNET_SINK, TAG_NEVER,
};
use dear_time::Duration;
use dear_transactors::{tag_to_wire, wire_to_tag};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::AddAssign;
use std::rc::Rc;

/// The most federates one federation (flat or hierarchical) can
/// register: per-federate grant eventgroups start at
/// `COORD_EVENTGROUP_BASE`, so ids beyond this would wrap the u16
/// eventgroup space.
pub const MAX_FEDERATES: usize = (u16::MAX - COORD_EVENTGROUP_BASE) as usize;

/// How many declared periods a grant-ahead window runs past the strict
/// fixpoint bound. Large enough to amortize the TAG round-trip over a
/// burst of periodic steps, small enough that a topology change (a new
/// fault, a late joiner) is picked up within a handful of periods.
const GRANT_WINDOW_PERIODS: u32 = 8;

/// The SOME/IP instance on which the hierarchy root offers the
/// coordination service (zones roll floors up to it).
const COORD_ROOT_INSTANCE: u16 = 0x00FE;

/// First SOME/IP instance used by zones: zone `z` offers the
/// coordination service at `ZONE_INSTANCE_BASE + z`.
const ZONE_INSTANCE_BASE: u16 = 0x0100;

/// Eventgroup (on the zone's instance) carrying batched member grants.
/// Shared by all members of the zone: the batch fans out once and every
/// member filters it by federate id.
pub(crate) const ZONE_MEMBER_EVENTGROUP: u16 = 0x3F00;

/// First eventgroup (on the root's instance) carrying relayed floors:
/// zone `z` subscribes to `ZONE_UPLINK_EVENTGROUP_BASE + z`.
const ZONE_UPLINK_EVENTGROUP_BASE: u16 = 0x2000;

/// The most zones one hierarchy can hold (bounded by the instance and
/// eventgroup ranges carved out above).
const MAX_ZONES: usize = 0x1000;

/// The SOME/IP instance on which zone `zone` offers the coordination
/// service to its members.
pub(crate) fn zone_instance(zone: ZoneId) -> u16 {
    ZONE_INSTANCE_BASE + zone.0
}

/// The eventgroup (on the root's instance) over which the root relays
/// upstream-zone floors to `zone`.
fn zone_uplink_eventgroup(zone: ZoneId) -> u16 {
    ZONE_UPLINK_EVENTGROUP_BASE + zone.0
}

/// Identifies one federate within a federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FederateId(pub u16);

impl fmt::Display for FederateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fed{}", self.0)
    }
}

/// Identifies one zone within a hierarchical federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub u16);

impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone{}", self.0)
    }
}

/// Errors reported by the federation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FederationError {
    /// The coordinator's federate table is full (see [`MAX_FEDERATES`]).
    Full {
        /// The capacity that the registration would have exceeded.
        limit: usize,
    },
    /// The referenced zone was never added to the hierarchy.
    UnknownZone(ZoneId),
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::Full { limit } => {
                write!(f, "federation full: at most {limit} federates can register")
            }
            FederationError::UnknownZone(zone) => {
                write!(f, "unknown zone {zone}")
            }
        }
    }
}

impl std::error::Error for FederationError {}

/// Counters describing a coordinator's activity (the flat RTI, one zone,
/// or the hierarchy root — levels that don't handle a message class
/// leave its counter at zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RtiStats {
    /// Registered federates.
    pub federates: u64,
    /// NET reports received.
    pub nets_received: u64,
    /// LTC reports received.
    pub ltcs_received: u64,
    /// TAG grants issued.
    pub tags_issued: u64,
    /// PTAG (provisional) grants issued.
    pub ptags_issued: u64,
    /// Federates declared dead by the liveness watchdog (NET/LTC silence
    /// past the configured deadline).
    pub deaths: u64,
    /// Floor records exchanged with the other hierarchy level (zone
    /// roll-ups sent / received at the root, relayed floors fanned back
    /// down). Always zero for a flat RTI.
    pub floor_records: u64,
    /// Batched coordination frames sent (grant fan-outs, roll-ups,
    /// floor broadcasts). Always zero for a flat RTI, which sends one
    /// record per frame.
    pub batches_sent: u64,
    /// Extra future tags covered by grant-ahead windows, beyond the
    /// windowed TAG's own strict bound. Zero unless the control diet is
    /// enabled (see [`Rti::enable_control_diet`]).
    pub window_tags: u64,
    /// DNET suppression-state records pushed to federates. Zero unless
    /// the control diet is enabled.
    pub dnets_sent: u64,
    /// Rejoin records accepted: dead federates (or zones) revived after
    /// replaying their durable log. Stale rejoins rejected by the
    /// incarnation guard are not counted.
    pub rejoins: u64,
}

impl AddAssign for RtiStats {
    fn add_assign(&mut self, other: Self) {
        self.federates += other.federates;
        self.nets_received += other.nets_received;
        self.ltcs_received += other.ltcs_received;
        self.tags_issued += other.tags_issued;
        self.ptags_issued += other.ptags_issued;
        self.deaths += other.deaths;
        self.floor_records += other.floor_records;
        self.batches_sent += other.batches_sent;
        self.window_tags += other.window_tags;
        self.dnets_sent += other.dnets_sent;
        self.rejoins += other.rejoins;
    }
}

impl fmt::Display for RtiStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "federates={} nets={} ltcs={} tags={} ptags={} deaths={} floors={} batches={} \
             windows={} dnets={} rejoins={}",
            self.federates,
            self.nets_received,
            self.ltcs_received,
            self.tags_issued,
            self.ptags_issued,
            self.deaths,
            self.floor_records,
            self.batches_sent,
            self.window_tags,
            self.dnets_sent,
            self.rejoins
        )
    }
}

/// Decodes one coordination frame — a single record or a batch — and
/// calls `apply` on each record in frame order. Returns the record count
/// of a batch frame, and `None` for a single record or a frame that does
/// not decode.
pub(crate) fn for_each_record(payload: &[u8], mut apply: impl FnMut(&CoordMsg)) -> Option<usize> {
    if payload.first() == Some(&COORD_BATCH_MARKER) {
        let batch = CoordBatch::decode(payload).ok()?;
        for msg in batch.iter() {
            apply(&msg);
        }
        Some(batch.len())
    } else {
        if let Ok(msg) = CoordMsg::decode(payload) {
            apply(&msg);
        }
        None
    }
}

/// A `Floor` record (a rise) or, for a `retreat`, a `Rejoin`-kind record
/// — the one floor record a receiver applies non-monotonically.
fn floor_record(id: u16, floor: Tag, retreat: bool) -> CoordMsg {
    let kind = if retreat {
        CoordKind::Rejoin
    } else {
        CoordKind::Floor
    };
    CoordMsg::new(kind, id, tag_to_wire(floor))
}

fn batch(pool: &FramePool, records: &[CoordMsg]) -> FrameBuf {
    let mut batch = CoordBatch::pooled(pool);
    for record in records {
        batch.push(record);
    }
    batch.freeze()
}

/// What a table entry stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Kind {
    /// A federate: reports NET/LTC, receives grants.
    #[default]
    Federate,
    /// A child node (a zone under the root): reports its floor.
    Child,
    /// An upstream zone as seen from a zone: its head is the floor the
    /// parent relayed. Never connects, so it is never granted or watched.
    Proxy,
}

#[derive(Default)]
struct FederateEntry {
    kind: Kind,
    /// The id that records to and from this child carry: the global
    /// federate id, the zone id of a child node, or the upstream zone id
    /// of a proxy.
    id: u16,
    /// The federate's name, for traces (empty for nodes and proxies).
    name: String,
    /// Whether the federate takes physical inputs from outside the
    /// federation (sensors, legacy AP components). Such federates bound
    /// their future event tags by the reported fence; pure federates are
    /// bounded transitively through their upstream LBTS.
    external: bool,
    connected: bool,
    resigned: bool,
    /// Declared dead by the liveness watchdog: treated like a resigned
    /// federate for LBTS purposes so survivors keep advancing, but
    /// counted and traced separately.
    dead: bool,
    /// Generation guard for liveness wake-ups: every received sign of
    /// life bumps it, superseding the previously armed check.
    liveness_gen: u64,
    /// Last completed tag (monotone max over LTC reports).
    completed: Option<Tag>,
    /// Earliest pending event tag from the latest NET ([`TAG_MAX`] when
    /// idle), or the floor of a child node or proxy. Starts at origin =
    /// "unknown, assume anything".
    head: Tag,
    /// Physical-time fence from NET reports (monotone max).
    fence: Tag,
    /// Exclusive bound of the last TAG grant.
    last_granted: Option<Tag>,
    /// Tag of the last PTAG grant.
    last_ptag: Option<Tag>,
    /// Incoming edges: (upstream table index, minimum tag delay).
    upstream: Vec<(u16, Duration)>,
    /// Declared periodic event lattice (from a `Period` record): every
    /// locally originated event tag is a whole multiple of this duration
    /// at microstep zero. Only sent by platforms under the control diet.
    period: Option<Duration>,
    /// Some report of this federate can move another LBTS: it has a
    /// downstream edge at this node, or its zone's floor is consumed by
    /// another zone (the floor is the `min` over all members, so then
    /// every member counts). A federate without is a DNET sink.
    has_downstream: bool,
    /// The DNET flag word last pushed to the federate, so suppression
    /// state is re-sent only when it changes.
    last_dnet: Option<u32>,
    /// Incarnation high-water mark: every accepted `Rejoin` carries an
    /// incarnation (in the record's fence microstep slot) that must
    /// exceed this, so a duplicated or stale rejoin can neither revive a
    /// federate twice nor rewind its completed tag.
    incarnation: u32,
    /// Child nodes only: the floor last relayed to this child per
    /// upstream child id (relays are change-driven).
    last_relay: BTreeMap<u16, Tag>,
}

impl FederateEntry {
    fn new(kind: Kind, id: u16, name: &str) -> Self {
        FederateEntry {
            kind,
            id,
            name: name.into(),
            // A child node is live from creation; proxies never connect.
            connected: kind == Kind::Child,
            ..FederateEntry::default()
        }
    }

    fn released(&self) -> bool {
        self.resigned || self.dead
    }

    /// A connected, live federate: the only kind of child that is granted.
    fn grantable(&self) -> bool {
        self.kind == Kind::Federate && self.connected && !self.released()
    }

    fn view(&self) -> NodeView {
        NodeView {
            released: self.released(),
            external: self.external,
            completed: self.completed,
            head: self.head,
            fence: self.fence,
            // Only ever `Some` under the control diet (platforms declare
            // their lattice only when the diet is on), so the solver's
            // periodic fast path stays inert by default.
            period: self.period,
        }
    }

    /// Applies one record addressed to this child and bumps the matching
    /// counters. Returns whether it is a sign of life that re-arms the
    /// watchdog and triggers a recompute.
    fn apply(&mut self, msg: &CoordMsg, stats: &mut RtiStats) -> bool {
        if self.kind == Kind::Federate {
            return self.apply_report(msg, stats);
        }
        let retreat = msg.kind == CoordKind::Rejoin;
        if msg.kind != CoordKind::Floor && !retreat {
            return false;
        }
        if self.kind == Kind::Proxy {
            let changed = self.apply_floor(msg);
            stats.floor_records += u64::from(changed);
            return changed;
        }
        // Dead zones stay dead: a zombie's late roll-up must not resurrect
        // a released floor. The one exception is a Rejoin-kind roll-up —
        // the zone actively reporting a revived member is also proof of
        // life for the zone itself. The zone→root link delivers in order,
        // so a pre-death Floor echo can never overtake it.
        if self.dead && !retreat {
            return false;
        }
        self.liveness_gen += 1;
        if retreat {
            self.dead = false;
            stats.rejoins += 1;
        }
        self.apply_floor(msg);
        stats.floor_records += 1;
        true
    }

    /// Moves the head of a child node or proxy to a reported floor: a
    /// `Floor` record only raises it, a `Rejoin`-kind record sets it even
    /// below the current head. Returns whether the head changed.
    fn apply_floor(&mut self, msg: &CoordMsg) -> bool {
        let floor = wire_to_tag(msg.tag);
        let head = if msg.kind == CoordKind::Rejoin {
            floor
        } else {
            self.head.max(floor)
        };
        std::mem::replace(&mut self.head, head) != head
    }

    /// Applies one federate → coordinator report. Returns `false` when
    /// the record must not count as a sign of life (grant/floor echoes,
    /// messages to the dead) — the liveness generation is bumped only for
    /// genuine reports, so an echo can neither disarm the armed watchdog
    /// nor revive a zombie.
    fn apply_report(&mut self, msg: &CoordMsg, stats: &mut RtiStats) -> bool {
        // Rejoin is the one record the dead may send: it must be looked at
        // *before* the zombie filter below, and it alone may clear `dead`.
        if msg.kind == CoordKind::Rejoin {
            return self.apply_rejoin(msg, stats);
        }
        if self.dead {
            return false;
        }
        match msg.kind {
            CoordKind::Join => self.connected = true,
            CoordKind::Net => {
                self.head = wire_to_tag(msg.tag);
                self.fence = self.fence.max(wire_to_tag(msg.fence));
                stats.nets_received += 1;
            }
            CoordKind::Ltc => {
                let tag = wire_to_tag(msg.tag);
                self.completed = Some(self.completed.map_or(tag, |c| c.max(tag)));
                stats.ltcs_received += 1;
            }
            CoordKind::Resign => self.resigned = true,
            CoordKind::Period => {
                let nanos = i64::try_from(msg.tag.nanos).unwrap_or(i64::MAX);
                self.period = (nanos > 0).then(|| Duration::from_nanos(nanos));
            }
            // Grants and DNET pushes are coordinator → federate only, and
            // floor records are coordinator ↔ coordinator only.
            CoordKind::Tag
            | CoordKind::Ptag
            | CoordKind::Floor
            | CoordKind::Dnet
            | CoordKind::Rejoin => return false,
        }
        self.liveness_gen += 1;
        true
    }

    /// Applies a `Rejoin` record: revives a dead federate at its replayed
    /// completed tag. The incarnation carried in the record's fence
    /// microstep must strictly exceed the stored high-water mark —
    /// duplicates and stale pre-crash echoes fall through as dead letters.
    /// Resignation stays final: a resigned federate has declared it
    /// imposes no further constraints, and nothing downstream waits on it.
    fn apply_rejoin(&mut self, msg: &CoordMsg, stats: &mut RtiStats) -> bool {
        let incarnation = msg.fence.microstep;
        if incarnation <= self.incarnation || self.resigned {
            return false;
        }
        self.incarnation = incarnation;
        self.dead = false;
        self.connected = true;
        self.liveness_gen += 1;
        // The replayed LTC high-water mark: the federate is exactly where
        // it was. The head floors back from the released TAG_MAX to the
        // conservative successor until a fresh NET report lands. The wire
        // sentinel means the federate crashed before completing any tag —
        // that is the fresh-join state, not a completed `TAG_MAX`.
        if msg.tag == TAG_NEVER {
            self.completed = None;
            self.head = Tag::ORIGIN;
        } else {
            let completed = wire_to_tag(msg.tag);
            self.completed = Some(completed);
            self.head = tag_succ(completed);
        }
        // Forget grant/suppression high-water marks so the next recompute
        // re-sends the current bound and DNET state: the recovered
        // platform restored its logged bound, and over-granting is
        // harmless (a lower re-sent bound is ignored monotonically).
        self.last_granted = None;
        self.last_ptag = None;
        self.last_dnet = None;
        stats.rejoins += 1;
        true
    }
}

/// A node's table as an [`LbtsGraph`]: graph index = table index.
struct Table<'a>(&'a [FederateEntry]);

impl LbtsGraph for Table<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn node(&self, i: usize) -> NodeView {
        self.0[i].view()
    }
    fn upstream(&self, i: usize) -> &[(u16, Duration)] {
        &self.0[i].upstream
    }
}

/// The grant-ahead window for federate `f` under the control diet, if one
/// is justified: the strict bound pushed out by [`GRANT_WINDOW_PERIODS`]
/// lattice periods. Requires the federate *and every direct upstream* to
/// be lattice-declared (or released) — then every tag the federate can
/// receive or originate inside the window rides the periodic lattice the
/// solver already leaps over, and the platform's own clock gate (a tag is
/// never processed before physical time reaches it, the PTIDES `D+L+E`
/// argument from the paper) keeps the free-run safe.
fn grant_horizon(table: &[FederateEntry], f: usize, bound: Tag) -> Option<Tag> {
    let entry = &table[f];
    let g = entry.period?;
    if bound >= TAG_MAX {
        return None; // already unconstrained; a window adds nothing
    }
    let lattice_ok = entry.upstream.iter().all(|&(u, _)| {
        let up = &table[usize::from(u)];
        up.released() || up.period.is_some()
    });
    if !lattice_ok {
        return None;
    }
    let span = g.as_nanos().checked_mul(i64::from(GRANT_WINDOW_PERIODS))?;
    // Checked, clamped tag math: near the end of the timeline the horizon
    // must stay *strictly below* `TAG_MAX` — saturating into
    // `Instant::MAX` would produce a tag in the wire sentinel's reserved
    // time point (`dear_someip::TAG_NEVER`), which a platform would then
    // echo back as an LTC and corrupt the fixpoint. No window is issued
    // instead; the strict bound alone already covers such a federate.
    let horizon_ns = bound.time.as_nanos().checked_add(span.unsigned_abs())?;
    if horizon_ns >= dear_time::Instant::MAX.as_nanos() {
        return None;
    }
    Some(Tag::new(
        dear_time::Instant::from_nanos(horizon_ns),
        bound.microstep,
    ))
}

/// Runs the solver over `table` and returns the grant records it
/// justifies, in deterministic order: the TAG pass (strict bounds that
/// advanced) followed by at most one PTAG (zero-delay stall breaker,
/// minimal `(tag, index)` tie-break), followed — under the control diet —
/// by the DNET suppression records whose flag word changed. Only
/// federates are granted. Updates per-entry grant high-water marks and
/// the grant counters.
///
/// The fence slot of a record carries the window horizon on a TAG and the
/// flag word on a DNET, and stays zero otherwise.
fn solve_grants(
    solver: &mut LbtsSolver,
    table: &mut [FederateEntry],
    stats: &mut RtiStats,
    diet: bool,
) -> Vec<CoordMsg> {
    solver.solve(&Table(table));
    let lbts = solver.lbts();
    let mut grants = Vec::new();
    let record = |kind, federate, tag, fence| CoordMsg {
        kind,
        federate,
        tag: tag_to_wire(tag),
        fence,
    };
    // TAG pass: strict bounds that advanced.
    for (f, &bound) in lbts.iter().enumerate() {
        if !table[f].grantable() || table[f].last_granted.is_some_and(|g| bound <= g) {
            continue;
        }
        let window = if diet {
            grant_horizon(table, f, bound)
        } else {
            None
        };
        let fence = window.map_or(WireTag::new(0, 0), tag_to_wire);
        grants.push(record(CoordKind::Tag, table[f].id, bound, fence));
        // A window's horizon is the new high-water mark: intermediate
        // bounds inside the window never echo back as TAGs.
        table[f].last_granted = Some(window.unwrap_or(bound));
        if window.is_some() {
            stats.window_tags += u64::from(GRANT_WINDOW_PERIODS);
        }
        stats.tags_issued += 1;
    }
    // PTAG pass: break a zero-delay stall (see LbtsSolver::ptag_candidate).
    let candidate = solver.ptag_candidate(&Table(table), |f| {
        let entry = &table[f];
        entry.kind == Kind::Federate
            && entry.connected
            && entry.last_ptag.is_none_or(|p| entry.head > p)
    });
    if let Some((tag, f)) = candidate {
        grants.push(record(
            CoordKind::Ptag,
            table[f].id,
            tag,
            WireTag::new(0, 0),
        ));
        table[f].last_ptag = Some(tag);
        stats.ptags_issued += 1;
    }
    // DNET pass: push each federate's suppression state when it changes.
    // Flags only ever *add* report traffic here to *remove* much more on
    // the federate side; a dead or resigned federate is skipped (its
    // state is moot — release already unblocks everyone downstream).
    if diet {
        for (entry, &bound) in table.iter_mut().zip(lbts) {
            if !entry.grantable() {
                continue;
            }
            let mut flags = 0u32;
            if entry.period.is_some() {
                flags |= DNET_NET_LATTICE;
            }
            if !entry.has_downstream {
                flags |= DNET_SINK;
            }
            if flags != 0 && entry.last_dnet != Some(flags) {
                // The horizon slot: "no report before this tag can move a
                // downstream LBTS". A sink's reports never can.
                let horizon = if entry.has_downstream { bound } else { TAG_MAX };
                let fence = WireTag::new(0, flags);
                grants.push(record(CoordKind::Dnet, entry.id, horizon, fence));
                entry.last_dnet = Some(flags);
                stats.dnets_sent += 1;
            }
        }
    }
    grants
}

/// Where a node sits. Its position fixes the node's service instance,
/// its telemetry lane and the wire shape of its grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Position {
    /// The flat RTI: no parent, federate children.
    Flat,
    /// The hierarchy root: no parent, zone children.
    Root,
    /// A zone: the root is its parent.
    Zone(ZoneId),
}

struct Node {
    position: Position,
    /// The SOME/IP instance the node offers the coordination service at.
    instance: u16,
    lane: Lane,
    binding: Binding,
    /// Federates, child nodes and proxies, in creation order.
    table: Vec<FederateEntry>,
    /// `(addressed by the parent, wire id)` → table index. Records from
    /// below address federates and child nodes; relayed records from the
    /// parent address proxies.
    index: BTreeMap<(bool, u16), usize>,
    solver: LbtsSolver,
    stats: RtiStats,
    /// Liveness deadline: a connected child silent for longer than this
    /// is declared dead. `None` disables the watchdog (the default —
    /// death detection is opt-in so that fault-free scenarios schedule
    /// zero extra events).
    liveness: Option<Duration>,
    /// Control-plane diet (DNET suppression, grant-ahead windows, the
    /// periodic fast path). Opt-in so existing deployments keep their
    /// control traffic — and traces — bit for bit.
    diet: bool,
    /// Another zone imports from this one: every member's reports move
    /// the rolled-up floor consumed elsewhere, so none is a DNET sink.
    exported: bool,
    /// Last floor rolled up to the parent (roll-ups are change-driven,
    /// plus the unconditional uplink heartbeat).
    last_rollup: Option<Tag>,
    /// Child nodes, in zone order.
    children: Vec<Coordinator>,
    /// Zone of every federate registered through this node's children,
    /// by global federate id.
    zone_of: Vec<ZoneId>,
    /// Scratch list of the entries one frame touched, kept for reuse.
    touched: Vec<usize>,
}

impl Node {
    fn push(&mut self, mut entry: FederateEntry) -> usize {
        let index = self.table.len();
        entry.has_downstream = self.exported && entry.kind == Kind::Federate;
        self.index
            .insert((entry.kind == Kind::Proxy, entry.id), index);
        self.table.push(entry);
        index
    }

    fn find(&self, federate: FederateId) -> usize {
        self.index[&(false, federate.0)]
    }
}

/// One coordination node (see the module docs). Cheap to clone; clones
/// share the node.
#[derive(Clone)]
struct Coordinator(Rc<RefCell<Node>>);

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = self.0.borrow();
        f.debug_struct("Coordinator")
            .field("position", &node.position)
            .field("node", &node.binding.node())
            .field("entries", &node.table.len())
            .field("stats", &node.stats)
            .finish()
    }
}

impl Coordinator {
    /// Creates a node on `node`, offers the coordination service at its
    /// position's instance and starts listening for control frames from
    /// below and, in a zone, for relayed floors from the root.
    fn new(
        sim: &mut Simulation,
        net: &NetworkHandle,
        sd: &SdRegistry,
        node: NodeId,
        position: Position,
    ) -> Self {
        let (instance, lane, lane_name, client) = match position {
            Position::Flat => (COORD_INSTANCE, Lane::Root, "rti".to_string(), 0x0052),
            Position::Root => (COORD_ROOT_INSTANCE, Lane::Root, "root".to_string(), 0x0053),
            Position::Zone(zone) => (
                zone_instance(zone),
                Lane::Zone(zone.0),
                zone.to_string(),
                0x0060_u16.wrapping_add(zone.0),
            ),
        };
        sim.observe().set_lane_name(lane, &lane_name);
        let binding = Binding::new(net, sd, node, client);
        binding.offer(
            sim,
            ServiceInstance::new(COORD_SERVICE, instance),
            Duration::from_secs(1 << 30),
        );
        if let Position::Zone(zone) = position {
            binding.subscribe(
                ServiceInstance::new(COORD_SERVICE, COORD_ROOT_INSTANCE),
                zone_uplink_eventgroup(zone),
            );
        }
        let coordinator = Coordinator(Rc::new(RefCell::new(Node {
            position,
            instance,
            lane,
            binding: binding.clone(),
            table: Vec::new(),
            index: BTreeMap::new(),
            solver: LbtsSolver::new(),
            stats: RtiStats::default(),
            liveness: None,
            diet: false,
            exported: false,
            last_rollup: None,
            children: Vec::new(),
            zone_of: Vec::new(),
            touched: Vec::new(),
        })));
        let hook = coordinator.clone();
        binding.register_method(COORD_SERVICE, COORD_METHOD, move |sim, req, _responder| {
            hook.ingest(sim, &req.payload, false);
        });
        let hook = coordinator.clone();
        binding.on_event(COORD_SERVICE, COORD_EVENT, move |sim, msg| {
            hook.ingest(sim, &msg.payload, true);
        });
        coordinator
    }

    /// Adds a zone node on `node` as a child. The zone inherits this
    /// node's diet and liveness configuration.
    fn add_child(
        &self,
        sim: &mut Simulation,
        net: &NetworkHandle,
        sd: &SdRegistry,
        node: NodeId,
    ) -> ZoneId {
        let (zone, diet, liveness) = {
            let parent = self.0.borrow();
            assert!(parent.children.len() < MAX_ZONES, "zone capacity exhausted");
            let zone = ZoneId(parent.children.len() as u16);
            (zone, parent.diet, parent.liveness)
        };
        let child = Coordinator::new(sim, net, sd, node, Position::Zone(zone));
        child.0.borrow_mut().diet = diet;
        if let Some(deadline) = liveness {
            child.enable_liveness(sim, deadline);
        }
        let mut parent = self.0.borrow_mut();
        parent.push(FederateEntry::new(Kind::Child, zone.0, ""));
        parent.children.push(child);
        zone
    }

    /// Registers a federate with this node, or with child `zone`, under
    /// the next global federate id.
    fn register(
        &self,
        zone: Option<ZoneId>,
        name: &str,
        external: bool,
    ) -> Result<FederateId, FederationError> {
        let mut node = self.0.borrow_mut();
        if let Some(zone) = zone.filter(|z| usize::from(z.0) >= node.children.len()) {
            return Err(FederationError::UnknownZone(zone));
        }
        if node.stats.federates >= MAX_FEDERATES as u64 {
            return Err(FederationError::Full {
                limit: MAX_FEDERATES,
            });
        }
        let id = node.stats.federates as u16;
        let mut entry = FederateEntry::new(Kind::Federate, id, name);
        entry.external = external;
        node.stats.federates += 1;
        let Some(zone) = zone else {
            node.push(entry);
            return Ok(FederateId(id));
        };
        node.zone_of.push(zone);
        let mut child = node.children[usize::from(zone.0)].0.borrow_mut();
        child.stats.federates += 1;
        child.push(entry);
        Ok(FederateId(id))
    }

    /// Declares a coordination edge. Federates registered here are linked
    /// directly; at the root, an edge inside one zone is that zone's, and
    /// a cross-zone edge gives the downstream zone a proxy for the
    /// upstream one and widens the zone-level skeleton (keeping the `min`
    /// delay per zone pair).
    fn connect(&self, upstream: FederateId, downstream: FederateId, min_delay: Duration) {
        assert!(!min_delay.is_negative(), "edge delays must be non-negative");
        let mut node = self.0.borrow_mut();
        if node.children.is_empty() {
            let (up, down) = (node.find(upstream), node.find(downstream));
            node.table[down].upstream.push((up as u16, min_delay));
            node.table[up].has_downstream = true;
            return;
        }
        let up_zone = node.zone_of[usize::from(upstream.0)];
        let down_zone = node.zone_of[usize::from(downstream.0)];
        let down_child = node.children[usize::from(down_zone.0)].clone();
        if up_zone == down_zone {
            drop(node);
            down_child.connect(upstream, downstream, min_delay);
            return;
        }
        let skeleton = &mut node.table[usize::from(down_zone.0)].upstream;
        match skeleton.iter_mut().find(|(z, _)| *z == up_zone.0) {
            Some((_, d)) => *d = (*d).min(min_delay),
            None => skeleton.push((up_zone.0, min_delay)),
        }
        let up_child = node.children[usize::from(up_zone.0)].clone();
        drop(node);
        {
            let mut down = down_child.0.borrow_mut();
            let proxy = match down.index.get(&(true, up_zone.0)) {
                Some(&p) => p,
                // A proxy's head is the floor the root most recently
                // relayed for that zone; origin until the first relay
                // ("unknown, assume anything"), exactly like a federate
                // that has not reported yet.
                None => down.push(FederateEntry::new(Kind::Proxy, up_zone.0, "")),
            };
            let member = down.find(downstream);
            down.table[member].upstream.push((proxy as u16, min_delay));
        }
        // The upstream zone's floor is now consumed elsewhere: none of its
        // members may be DNET-classified as a sink (a silent member would
        // hold the shared floor down and wedge the importing zone).
        let mut up = up_child.0.borrow_mut();
        up.exported = true;
        for entry in &mut up.table {
            entry.has_downstream |= entry.kind == Kind::Federate;
        }
    }

    fn enable_control_diet(&self) {
        self.0.borrow_mut().diet = true;
        for child in &self.0.borrow().children {
            child.enable_control_diet();
        }
    }

    /// Sets the liveness deadline; returns whether liveness was off.
    fn set_liveness(&self, deadline: Duration) -> bool {
        assert!(deadline > Duration::ZERO, "deadline must be positive");
        self.0.borrow_mut().liveness.replace(deadline).is_none()
    }

    /// Enables liveness on this node and every child node. A zone that
    /// turns liveness on also starts its uplink heartbeat; enabling it
    /// again only updates the deadline.
    fn enable_liveness(&self, sim: &mut Simulation, deadline: Duration) {
        let position = self.0.borrow().position;
        if let (true, Position::Zone(zone)) = (self.set_liveness(deadline), position) {
            self.schedule_heartbeat(sim, zone);
        }
        for child in &self.0.borrow().children {
            child.enable_liveness(sim, deadline);
        }
    }

    /// The uplink heartbeat: every half deadline the zone re-sends its
    /// current floor to the root, change or not. This is what the root's
    /// watchdog for the zone listens for.
    fn schedule_heartbeat(&self, sim: &mut Simulation, zone: ZoneId) {
        let Some(deadline) = self.0.borrow().liveness else {
            return;
        };
        let interval = Duration::from_nanos((deadline.as_nanos() / 2).max(1));
        let node = self.clone();
        sim.schedule_in(interval, move |sim| {
            let floor = node.0.borrow().last_rollup;
            if let Some(floor) = floor {
                node.send_rollup(sim, zone, floor, false);
            }
            node.schedule_heartbeat(sim, zone);
        });
    }

    /// Handles one control frame — a single record or a batch (a
    /// platform's LTC + NET, a zone's roll-up, the root's relays). The
    /// node recomputes once per *frame*, so N records do not trigger N
    /// fixpoints and N grant fan-outs.
    fn ingest(&self, sim: &mut Simulation, payload: &[u8], from_parent: bool) {
        let mut touched = std::mem::take(&mut self.0.borrow_mut().touched);
        {
            let mut node = self.0.borrow_mut();
            let Node {
                table,
                index,
                stats,
                ..
            } = &mut *node;
            for_each_record(payload, |msg| {
                if let Some(&i) = index.get(&(from_parent, msg.federate)) {
                    if table[i].apply(msg, stats) && !touched.contains(&i) {
                        touched.push(i);
                    }
                }
            });
        }
        for &i in &touched {
            self.arm_liveness(sim, i);
        }
        if !touched.is_empty() {
            self.recompute(sim);
        }
        touched.clear();
        self.0.borrow_mut().touched = touched;
    }

    /// Arms (or supersedes) the liveness check for one child: if no
    /// further sign of life arrives within the deadline, it is declared
    /// dead at exactly `now + deadline` — a well-defined tag.
    fn arm_liveness(&self, sim: &mut Simulation, i: usize) {
        let armed = {
            let node = self.0.borrow();
            let entry = &node.table[i];
            node.liveness
                .filter(|_| entry.connected && !entry.released())
                .map(|deadline| (deadline, entry.liveness_gen))
        };
        let Some((deadline, generation)) = armed else {
            return;
        };
        let node = self.clone();
        sim.schedule_in(deadline, move |sim| {
            node.on_liveness_check(sim, i, generation);
        });
    }

    fn on_liveness_check(&self, sim: &mut Simulation, i: usize, generation: u64) {
        {
            let mut node = self.0.borrow_mut();
            let entry = &mut node.table[i];
            if entry.liveness_gen != generation || entry.released() {
                return; // superseded, or no longer eligible
            }
            entry.dead = true;
            node.stats.deaths += 1;
        }
        sim.trace_with("rti", || {
            let node = self.0.borrow();
            let entry = &node.table[i];
            let federate = format!(
                "federate fed{} ({}) declared dead; releasing its LBTS bound",
                entry.id, entry.name
            );
            match (entry.kind, node.position) {
                (Kind::Child, _) => format!(
                    "{} declared dead (uplink silence); releasing its floor for sibling zones",
                    ZoneId(entry.id)
                ),
                (_, Position::Zone(zone)) => format!("{zone}: {federate}"),
                _ => federate,
            }
        });
        // Children downstream of the dead one get their bound released
        // right here.
        self.recompute(sim);
    }

    /// Solves, sends the grants it justifies, relays changed upstream
    /// floors to child nodes (one batch per child) and, in a zone, rolls
    /// the zone floor up to the root when it changed.
    fn recompute(&self, sim: &mut Simulation) {
        let mut node = self.0.borrow_mut();
        let (position, instance, lane) = (node.position, node.instance, node.lane);
        let Node {
            binding,
            table,
            solver,
            stats,
            diet,
            last_rollup,
            ..
        } = &mut *node;
        let grants = solve_grants(solver, table, stats, *diet);
        let lbts = solver.lbts();
        let mut relays: Vec<(ZoneId, Vec<CoordMsg>)> = Vec::new();
        for z in 0..table.len() {
            if table[z].kind != Kind::Child {
                continue;
            }
            let mut records = Vec::new();
            for e in 0..table[z].upstream.len() {
                let up = usize::from(table[z].upstream[e].0);
                // What the downstream zone may assume about `up`: its
                // floor under this node's fixpoint, so a zone's optimistic
                // self-report never leaks past its own upstream
                // constraints.
                let relayed = node_floor(&table[up].view(), lbts[up]);
                let id = table[up].id;
                let prev = table[z].last_relay.insert(id, relayed);
                if prev != Some(relayed) {
                    records.push(floor_record(id, relayed, prev.is_some_and(|p| relayed < p)));
                }
            }
            if !records.is_empty() {
                stats.floor_records += records.len() as u64;
                stats.batches_sent += 1;
                relays.push((ZoneId(table[z].id), records));
            }
        }
        // The zone floor: what this zone as a whole promises the rest of
        // the federation, `min` over member floors. Roll-ups are
        // change-driven in *both* directions: a floor that fell back
        // means a dead member rejoined, and travels as a retreat.
        let rollup = match position {
            Position::Zone(_) => table
                .iter()
                .zip(lbts)
                .filter(|(entry, _)| entry.kind == Kind::Federate)
                .map(|(entry, &bound)| node_floor(&entry.view(), bound))
                .min()
                .filter(|&floor| *last_rollup != Some(floor))
                .map(|floor| {
                    let retreat = last_rollup.is_some_and(|prev| floor < prev);
                    *last_rollup = Some(floor);
                    (floor, retreat)
                }),
            Position::Flat | Position::Root => None,
        };
        let binding = binding.clone();
        drop(node);

        let observe = sim.observe().clone();
        if observe.is_enabled() {
            let now = sim.now();
            let fixpoint = match position {
                Position::Flat => "coord/fixpoint/flat",
                Position::Root => "coord/fixpoint/root",
                Position::Zone(_) => "coord/fixpoint/zone",
            };
            observe.count(fixpoint, 1);
            if position != Position::Root {
                observe.record_value("coord/grants_per_round", grants.len() as u64);
            }
            observe.instant(lane, "fixpoint", now);
            // Coordination lag: how far a floor promised to the other
            // level trails the true time at which it was computed.
            if let Some((floor, _)) = rollup.filter(|(floor, _)| *floor < TAG_MAX) {
                observe.record_duration("coord/zone_floor_lag_ns", now - floor.time);
            }
            for (_, records) in &relays {
                observe.record_value("coord/batch_size", records.len() as u64);
                for floor in records.iter().map(|r| wire_to_tag(r.tag)) {
                    if floor < TAG_MAX {
                        observe.record_duration("coord/root_relay_lag_ns", now - floor.time);
                    }
                }
            }
        }

        let pool = binding.pool();
        let instance = ServiceInstance::new(COORD_SERVICE, instance);
        if let Position::Zone(_) = position {
            if !grants.is_empty() {
                observe.record_value("coord/batch_size", grants.len() as u64);
                let frame = batch(&pool, &grants);
                binding.notify(sim, instance, ZONE_MEMBER_EVENTGROUP, COORD_EVENT, frame);
                self.0.borrow_mut().stats.batches_sent += 1;
            }
        } else {
            for grant in grants {
                let eventgroup = coord_eventgroup(grant.federate);
                let frame = grant.encode_into(&pool);
                binding.notify(sim, instance, eventgroup, COORD_EVENT, frame);
            }
        }
        for (zone, records) in relays {
            let frame = batch(&pool, &records);
            let eventgroup = zone_uplink_eventgroup(zone);
            binding.notify(sim, instance, eventgroup, COORD_EVENT, frame);
        }
        if let (Some((floor, retreat)), Position::Zone(zone)) = (rollup, position) {
            self.send_rollup(sim, zone, floor, retreat);
        }
    }

    /// Sends the zone floor to the root as a one-record batch frame.
    fn send_rollup(&self, sim: &mut Simulation, zone: ZoneId, floor: Tag, retreat: bool) {
        let binding = self.0.borrow().binding.clone();
        let frame = batch(&binding.pool(), &[floor_record(zone.0, floor, retreat)]);
        if binding
            .call_no_return(sim, COORD_SERVICE, COORD_ROOT_INSTANCE, COORD_METHOD, frame)
            .is_ok()
        {
            let mut node = self.0.borrow_mut();
            node.stats.floor_records += 1;
            node.stats.batches_sent += 1;
        }
    }
}

/// A shared handle to the flat centralized coordinator (the RTI).
///
/// Cheap to clone; clones share the coordinator.
#[derive(Clone, Debug)]
pub struct Rti(Coordinator);

impl Rti {
    /// Creates the RTI on `node`, offers the coordination service and
    /// starts listening for control messages.
    ///
    /// The coordination channel must deliver messages **in order** per
    /// link (the default for every [`LinkConfig`](dear_sim::LinkConfig)
    /// constructor; the analogue of Lingua Franca's TCP connections to
    /// its RTI). NET reports carry no sequence numbers, so a link
    /// configured with `.reordering()` could deliver a stale head last
    /// and stall grants until the next report.
    #[must_use]
    pub fn new(sim: &mut Simulation, net: &NetworkHandle, sd: &SdRegistry, node: NodeId) -> Self {
        Rti(Coordinator::new(sim, net, sd, node, Position::Flat))
    }

    /// Registers a federate. The coordinator addresses federates by id
    /// only, so it needs no network node.
    ///
    /// `external` declares whether the federate receives physical inputs
    /// from outside the federation (see the module docs); when in doubt,
    /// `true` is always sound, merely more conservative.
    ///
    /// # Errors
    ///
    /// [`FederationError::Full`] once [`MAX_FEDERATES`] federates are
    /// registered — at fleet scale an over-subscribed coordinator is a
    /// reportable deployment error, not a crash.
    pub fn register(&self, name: &str, external: bool) -> Result<FederateId, FederationError> {
        self.0.register(None, name, external)
    }

    /// Declares a coordination edge: messages caused by `upstream`
    /// processing tag `t` reach `downstream` with a tag of at least
    /// `edge_add(t, min_delay)`. For a DEAR transactor edge the delay is
    /// the sender deadline plus the network and clock bounds, `D + L + E`.
    pub fn connect(&self, upstream: FederateId, downstream: FederateId, min_delay: Duration) {
        self.0.connect(upstream, downstream, min_delay);
    }

    /// Enables the coordination **control-plane diet**: DNET suppression
    /// pushes, grant-ahead windows, and the solver's periodic fast path.
    /// Must be called before the platforms are constructed (they query it
    /// once, at build time, to decide whether to declare their lattice
    /// and honour suppression). Opt-in: without this call the RTI's
    /// control traffic — and therefore every trace — is unchanged.
    pub fn enable_control_diet(&self) {
        self.0.enable_control_diet();
    }

    /// Whether [`Rti::enable_control_diet`] has been called.
    #[must_use]
    pub fn control_diet_enabled(&self) -> bool {
        self.0 .0.borrow().diet
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> RtiStats {
        self.0 .0.borrow().stats
    }

    /// Enables the liveness watchdog: a connected federate that sends no
    /// control message (NET/LTC) for longer than `deadline` is declared
    /// **dead** — its LBTS contribution is released (like a resignation)
    /// so surviving federates keep advancing, the death is counted in
    /// [`RtiStats::deaths`] and recorded in the simulation trace under
    /// `"rti"`.
    ///
    /// The deadline should cover the federate's longest legitimate
    /// silence: its heartbeat period (see
    /// [`CoordinatedPlatform::enable_heartbeat`]) plus the coordination
    /// link's worst-case latency — a federate blocked on a grant reports
    /// nothing on the normal path, so pair liveness with heartbeats or
    /// blocked survivors will be declared dead too. Control messages from
    /// a dead federate are ignored, with one exception: a `Rejoin` record
    /// from a federate that replayed its durable log revives the entry at
    /// its replayed completed tag (see
    /// [`CoordinatedPlatform::recover`](crate::CoordinatedPlatform::recover)).
    ///
    /// [`CoordinatedPlatform::enable_heartbeat`]:
    ///     crate::CoordinatedPlatform::enable_heartbeat
    ///
    /// Detection is opt-in: without this call the RTI schedules no
    /// watchdog events, so fault-free scenarios keep their calendars —
    /// and therefore their traces — exactly as before.
    pub fn enable_liveness(&self, deadline: Duration) {
        // The flat RTI has no parent to heartbeat and no child nodes to
        // configure: setting the deadline is all there is to it.
        self.0.set_liveness(deadline);
    }
}

/// A shared handle to the two-level coordinator (root + zones).
///
/// Cheap to clone; clones share the coordinator. See the module docs for
/// the topology; the federate-facing API mirrors [`Rti`] — register,
/// connect, enable liveness — with a [`ZoneId`] picking the shard a
/// federate lives in. [`CoordinatedPlatform::new_in_zone`] builds
/// platforms against it.
///
/// [`CoordinatedPlatform::new_in_zone`]:
///     crate::CoordinatedPlatform::new_in_zone
#[derive(Clone, Debug)]
pub struct HierarchicalRti(Coordinator);

impl HierarchicalRti {
    /// Creates the root coordinator on `node` and offers the coordination
    /// service on the root's instance. Zones are added with
    /// [`HierarchicalRti::add_zone`].
    ///
    /// Like the flat RTI, every coordination link must deliver in order
    /// (the default for all link configs).
    #[must_use]
    pub fn new(sim: &mut Simulation, net: &NetworkHandle, sd: &SdRegistry, node: NodeId) -> Self {
        HierarchicalRti(Coordinator::new(sim, net, sd, node, Position::Root))
    }

    /// Adds a zone coordinator hosted on `node` and returns its id. The
    /// zone takes over the hierarchy's control diet and liveness settings,
    /// whether they were enabled before or after it was added.
    ///
    /// # Panics
    ///
    /// Panics if 4096 zones already exist.
    pub fn add_zone(
        &self,
        sim: &mut Simulation,
        net: &NetworkHandle,
        sd: &SdRegistry,
        node: NodeId,
    ) -> ZoneId {
        self.0.add_child(sim, net, sd, node)
    }

    /// Registers a federate with zone `zone`. The returned id is global to the federation (grants are
    /// addressed by it), while all of the federate's control traffic
    /// stays within its zone.
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownZone`] for a zone never added;
    /// [`FederationError::Full`] once [`MAX_FEDERATES`] federates are
    /// registered.
    pub fn register(
        &self,
        zone: ZoneId,
        name: &str,
        external: bool,
    ) -> Result<FederateId, FederationError> {
        self.0.register(Some(zone), name, external)
    }

    /// Declares a coordination edge (see [`Rti::connect`]). Intra-zone
    /// edges stay inside the member's zone; a cross-zone edge
    /// materializes a proxy in the downstream zone and widens the
    /// zone-level skeleton the root solves over (keeping the `min` delay
    /// per zone pair).
    pub fn connect(&self, upstream: FederateId, downstream: FederateId, min_delay: Duration) {
        self.0.connect(upstream, downstream, min_delay);
    }

    /// Number of zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.0 .0.borrow().children.len()
    }

    /// Number of registered federates across all zones.
    #[must_use]
    pub fn federate_count(&self) -> usize {
        self.0 .0.borrow().zone_of.len()
    }

    /// Root-level counters (floor records exchanged, zone deaths,
    /// relay batches).
    #[must_use]
    pub fn root_stats(&self) -> RtiStats {
        self.0 .0.borrow().stats
    }

    /// One zone's counters (member NET/LTC traffic, grants, deaths).
    #[must_use]
    pub fn zone_stats(&self, zone: ZoneId) -> RtiStats {
        let root = self.0 .0.borrow();
        let stats = root.children[usize::from(zone.0)].0.borrow().stats;
        stats
    }

    /// Federation-wide counters: the field-wise sum of the root's and
    /// every zone's [`RtiStats`] (except `federates`, which is the
    /// global registration count).
    #[must_use]
    pub fn stats(&self) -> RtiStats {
        let root = self.0 .0.borrow();
        let mut total = root.stats;
        for zone in &root.children {
            total += zone.0.borrow().stats;
        }
        total.federates = root.stats.federates;
        total
    }

    /// Enables the coordination control-plane diet across the hierarchy:
    /// every zone (already added or added later) issues DNET suppression
    /// pushes and grant-ahead windows, and solves with the periodic fast
    /// path. Must be called before the platforms are constructed (they
    /// query it once, at build time). Opt-in, like
    /// [`Rti::enable_control_diet`].
    pub fn enable_control_diet(&self) {
        self.0.enable_control_diet();
    }

    /// Whether [`HierarchicalRti::enable_control_diet`] has been called.
    #[must_use]
    pub fn control_diet_enabled(&self) -> bool {
        self.0 .0.borrow().diet
    }

    /// Enables liveness end to end, scoped per shard: every zone (already
    /// added or added later) watches its members with `deadline`
    /// (identical semantics to [`Rti::enable_liveness`]) and sends an
    /// unconditional floor heartbeat to the root every `deadline / 2`,
    /// and the root declares a zone dead after `deadline` of uplink
    /// silence — releasing its floor so sibling zones keep advancing,
    /// counting it in [`RtiStats::deaths`] and tracing it under `"rti"`.
    /// Calling it again only updates the deadline.
    pub fn enable_liveness(&self, sim: &mut Simulation, deadline: Duration) {
        self.0.enable_liveness(sim, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_time::Instant;

    fn lattice_entry(period_ms: i64) -> FederateEntry {
        let mut entry = FederateEntry::new(Kind::Federate, 0, "f");
        entry.period = Some(Duration::from_millis(period_ms));
        entry
    }

    #[test]
    fn grant_horizon_pushes_the_bound_by_the_window() {
        let feds = vec![lattice_entry(10)];
        let bound = Tag::at(Instant::from_millis(100));
        assert_eq!(
            grant_horizon(&feds, 0, bound),
            Some(Tag::at(Instant::from_millis(
                100 + 10 * u64::from(GRANT_WINDOW_PERIODS)
            )))
        );
    }

    #[test]
    fn grant_horizon_clamps_instead_of_saturating_into_the_sentinel() {
        let feds = vec![lattice_entry(10)];
        // A bound so late that `bound + 8g` overflows u64 nanoseconds: no
        // window, rather than a saturated tag at `Instant::MAX` (the wire
        // sentinel's reserved time point).
        let bound = Tag::new(Instant::from_nanos(u64::MAX - 1), 2);
        assert_eq!(grant_horizon(&feds, 0, bound), None);
        // A bound that lands *exactly* on `Instant::MAX` clamps too.
        let window_ns =
            Duration::from_millis(10).as_nanos().unsigned_abs() * u64::from(GRANT_WINDOW_PERIODS);
        let exact = Tag::new(Instant::from_nanos(u64::MAX - window_ns), 0);
        assert_eq!(grant_horizon(&feds, 0, exact), None);
        // One nanosecond earlier the window is intact and keeps the
        // bound's microstep.
        let safe = Tag::new(Instant::from_nanos(u64::MAX - window_ns - 1), 7);
        assert_eq!(
            grant_horizon(&feds, 0, safe),
            Some(Tag::new(Instant::from_nanos(u64::MAX - 1), 7))
        );
        // The unconstrained sentinel itself never gets a window.
        assert_eq!(grant_horizon(&feds, 0, TAG_MAX), None);
    }
}
