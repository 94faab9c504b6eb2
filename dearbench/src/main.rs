//! `dearbench`: one benchmark for the DEAR stack.
//!
//! Three seeded workloads, one per process, single-threaded:
//!
//! * `brake_ptides` — the paper's deterministic brake assistant under
//!   decentralized PTIDES coordination (data plane only);
//! * `brake_rti` — the same inputs under the flat RTI with the control
//!   diet, telemetry, a durable log and one crash + rejoin per instance;
//! * `fleet_1000` — 1000 timer-only federates under the hierarchical
//!   RTI (coordination only), with timed crash recoveries.
//!
//! ```text
//! dearbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--workload all` runs the three in turn, each in a process of its own.
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is a separate run: an untraced phase, a traced phase
//! (program telemetry on, spans around every call into the stack), the
//! microprobes and the cost ledger; it prints the per-layer metrics and
//! writes spans, probes and ledger to one file under `out/`. The last
//! line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod brake;
mod calibrate;
mod fleet;
mod probes;
mod stats;
mod trace;

use stats::Samples;
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage: dearbench --workload <brake_ptides|brake_rti|fleet_1000|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Data-plane hops per brake frame: provider → adapter → preprocessing,
/// preprocessing → computer vision twice (lane + frame), → EBA.
const DATA_HOPS: f64 = 5.0;

/// The splitmix64 finalizer: derives independent seeds from one.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BrakePtides,
    BrakeRti,
    Fleet,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::BrakePtides => "brake_ptides",
            Workload::BrakeRti => "brake_rti",
            Workload::Fleet => "fleet_1000",
        }
    }

    fn brake_kind(self) -> Option<brake::Kind> {
        match self {
            Workload::BrakePtides => Some(brake::Kind::Ptides),
            Workload::BrakeRti => Some(brake::Kind::Rti),
            Workload::Fleet => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "brake_ptides" => Workload::BrakePtides,
                    "brake_rti" => Workload::BrakeRti,
                    "fleet_1000" => Workload::Fleet,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run prints.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Human-readable lines printed before the JSON line.
    lines: Vec<String>,
    /// The metrics of the JSON line.
    metrics: Vec<Metric>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn line(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.lines
            .push(format!("  {name:<32} {value:>14.4} {unit:<8} {note}"));
    }

    fn count(&mut self, attempted: u64, failed: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.failures.extend(
            failures
                .iter()
                .take(8 - self.failures.len().min(8))
                .cloned(),
        );
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(0.0)
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The p90 of samples the workloads collect at least 100 of.
fn p90(samples: &Samples) -> f64 {
    samples
        .percentile(90)
        .expect("every workload times at least 100 samples")
}

/// The work of one run, fixed by `--seconds` so both sides of a
/// comparison do the same work: calibrated so a run takes about that
/// long on a 2-vCPU x86-64 VM. Every run times at least 100 samples
/// (the p90 needs ten beyond it): 100 brake instances, or 4 fleet rounds
/// of 32 samples.
fn work(workload: Workload, seconds: f64) -> u64 {
    let (per_second, min) = match workload {
        Workload::BrakePtides => (50.0, 100),
        Workload::BrakeRti => (10.0, 100),
        Workload::Fleet => (0.6, 4),
    };
    ((seconds * per_second).ceil() as u64).max(min)
}

fn brake_e2e(kind: brake::Kind, args: &Args, report: &mut Report) {
    let instances = work(args.workload, args.seconds as f64);
    let phase = brake::run_phase(kind, args.seed, 0, instances, &mut Tracer::new(false));
    report.count(phase.attempted, phase.failed, &phase.failures);
    let instances = Samples::new(phase.instance_ms.clone());
    let median_ms = instances.median().unwrap_or(0.0);
    let frames_per_s = ratio(brake::FRAMES as f64, median_ms / 1e3);
    let summary = format!("(instances: {})", instances.summary());
    report.line("frames_per_s", frames_per_s, "1/s", &summary);
    report.line("instance_ms_p90", p90(&instances), "ms", "");
    if kind == brake::Kind::Rti {
        let c = phase.counts;
        let per_tag = ratio(c.ctrl_frames() as f64, c.granted as f64);
        let note = format!(
            "({} control frames / {} granted tags)",
            c.ctrl_frames(),
            c.granted
        );
        report.line("ctrl_frames_per_tag", per_tag, "count", &note);
    }
    finish_e2e(
        report,
        &phase.instance_cal_ms,
        &phase.setup_s,
        &phase.setup_cal_s,
        &phase.reference_ms,
    );
}

fn fleet_e2e(args: &Args, report: &mut Report) {
    let rounds = work(args.workload, args.seconds as f64);
    let phase = fleet::run_phase(args.seed, 0, rounds, &mut Tracer::new(false));
    report.count(phase.attempted, phase.failed, &phase.failures);
    let ticks = Samples::new(phase.tick_ms.clone());
    let c = phase.counts;
    let grants_per_tick = ratio(c.granted as f64, ticks.len() as f64);
    let grants_per_s = ratio(grants_per_tick, ticks.median().unwrap_or(0.0) / 1e3);
    let summary = format!("(ticks: {}, {} rounds)", ticks.summary(), phase.rounds);
    report.line("grants_per_s", grants_per_s, "1/s", &summary);
    report.line("tick_ms_p90", p90(&ticks), "ms", "");
    let recovers = Samples::new(phase.recover_ms.clone());
    let note = format!("(recoveries: {})", recovers.summary());
    let recover_p50 = recovers.median().unwrap_or(0.0);
    report.line("recover_ms_p50", recover_p50, "ms", &note);
    let note = format!(
        "({} control frames / {} granted tags)",
        c.ctrl_frames, c.granted
    );
    let per_tag = ratio(c.ctrl_frames as f64, c.granted as f64);
    report.line("ctrl_frames_per_tag", per_tag, "count", &note);
    finish_e2e(
        report,
        &phase.window_cal_ms,
        &phase.setup_s,
        &phase.setup_cal_s,
        &phase.reference_ms,
    );
}

/// The end-to-end lines every workload shares, and the JSON metrics.
///
/// The JSON carries what is defined, non-zero and steady on every
/// workload: the calibrated median wall time of one sample (a brake
/// instance, or 8 fleet ticks), the calibrated set-up time and the peak
/// memory. Raw wall times swing with the shared machine's speed (see
/// [`calibrate`]); they are printed above, not gated.
fn finish_e2e(
    report: &mut Report,
    samples_cal: &[f64],
    setups: &[f64],
    setups_cal: &[f64],
    references: &[f64],
) {
    let samples = Samples::new(samples_cal.to_vec());
    let sample_ms = samples.median().unwrap_or(0.0);
    let note = format!("(calibrated samples: {})", samples.summary());
    report.line("sample_ms", sample_ms, "ms", &note);
    let setups_cal = Samples::new(setups_cal.to_vec());
    let setup_s = setups_cal.median().unwrap_or(0.0);
    let note = format!(
        "(calibrated set-ups: {}; raw median {:.6} s)",
        setups_cal.summary(),
        median(setups)
    );
    report.line("setup_s", setup_s, "s", &note);
    let references = Samples::new(references.to_vec());
    let note = format!(
        "(machine speed: nominal {} ms; {})",
        calibrate::NOMINAL_MS,
        references.summary()
    );
    let reference_median = references.median().unwrap_or(0.0);
    report.line("reference_ms", reference_median, "ms", &note);
    let rss = alloc::peak_rss_mb().unwrap_or(0.0);
    report.line("peak_rss_mb", rss, "MiB", "");
    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    let note = format!(
        "({} failed / {} attempted)",
        report.failed, report.attempted
    );
    report.line("failed_frac", failed_frac, "ratio", &note);
    report.metric("sample_ms", sample_ms, "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss, "MiB");
}

/// One layer's share of a workload unit in the cost ledger.
struct LedgerRow {
    layer: &'static str,
    ops_per_unit: f64,
    ns_per_op: f64,
}

/// Per-layer metrics of a traced run, by name.
#[derive(Default)]
struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }
}

/// The per-layer metric names, in report order: every traced run prints
/// all of them, with 0 where a layer does no work on the workload.
const LAYER_METRICS: [(&str, &str); 31] = [
    ("core.reactions_per_frame", "count"),
    ("core.reactions_per_grant", "count"),
    ("core.step_ns.member", "ns"),
    ("core.step_ns.chain4", "ns"),
    ("alloc.per_frame", "count"),
    ("alloc.per_grant", "count"),
    ("someip.data_msg_ns", "ns"),
    ("someip.data_allocs_per_msg", "count"),
    ("someip.coord_msg_ns", "ns"),
    ("sim.events_per_grant", "count"),
    ("sim.net_frames_per_grant", "count"),
    ("sim.deliver_ns", "ns"),
    ("sim.event_ns", "ns"),
    ("federation.fixpoints_per_grant", "count"),
    ("federation.zone_solve_ns", "ns"),
    ("federation.root_solve_ns", "ns"),
    ("federation.batches_per_grant", "count"),
    ("federation.dnets_per_grant", "count"),
    ("federation.window_tag_frac", "ratio"),
    ("federation.grant_wait_us", "us"),
    ("federation.ctrl_frames_per_tag", "count"),
    ("transactors.reports_per_frame", "count"),
    ("transactors.suppressed_frac", "ratio"),
    ("durable.records_per_tag", "count"),
    ("durable.bytes_per_tag", "bytes"),
    ("durable.append_ns", "ns"),
    ("durable.replay_ns_per_record", "ns"),
    ("durable.recover_ms_p50", "ms"),
    ("observe.count_ns", "ns"),
    ("bench.explained_frac", "ratio"),
    ("bench.tracing_overhead_frac", "ratio"),
];

/// What a workload's traced run hands to the shared ledger and report.
struct Traced {
    /// The ledger rows, per unit.
    ledger: Vec<LedgerRow>,
    /// What one ledger unit is.
    unit: &'static str,
    /// Raw wall time of each untraced unit (ms): the ledger's base.
    untraced_unit_ms: Vec<f64>,
    /// Calibrated samples of the untraced phase (ms).
    untraced_cal_ms: Vec<f64>,
    /// Calibrated samples of the traced phase (ms).
    traced_cal_ms: Vec<f64>,
}

fn row(layer: &'static str, ops_per_unit: f64, ns_per_op: f64) -> LedgerRow {
    LedgerRow {
        layer,
        ops_per_unit,
        ns_per_op,
    }
}

fn brake_traced(
    kind: brake::Kind,
    args: &Args,
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) -> Traced {
    let half = work(args.workload, args.seconds as f64 / 2.0);
    let plain = brake::run_phase(kind, args.seed, 0, half, &mut Tracer::new(false));
    let traced = brake::run_phase(kind, args.seed, half, half, tracer);
    report.count(plain.attempted, plain.failed, &plain.failures);
    report.count(traced.attempted, traced.failed, &traced.failures);
    let p = tracer.span("probes", probes::run);
    let replay = tracer.span("probes", probes::synthetic_replay_ns_per_record);

    let c = traced.counts;
    let frames = c.frames as f64;
    let granted = c.granted as f64;
    let reactions = c.reactions as f64;
    layers.set("core.reactions_per_frame", ratio(reactions, frames));
    layers.set("core.reactions_per_grant", ratio(reactions, granted));
    let allocs = plain.allocs as f64;
    layers.set("alloc.per_frame", ratio(allocs, plain.counts.frames as f64));
    layers.set(
        "alloc.per_grant",
        ratio(allocs, plain.counts.granted as f64),
    );
    layers.set(
        "federation.fixpoints_per_grant",
        ratio(c.fixpoints as f64, granted),
    );
    layers.set(
        "federation.window_tag_frac",
        ratio(c.windowed as f64, granted),
    );
    layers.set(
        "federation.grant_wait_us",
        ratio(c.grant_wait_ns as f64 / 1e3, granted),
    );
    layers.set(
        "federation.ctrl_frames_per_tag",
        ratio(c.ctrl_frames() as f64, granted),
    );
    layers.set(
        "transactors.reports_per_frame",
        ratio(c.reports as f64, frames),
    );
    let sent_or_suppressed = (c.reports + c.suppressed) as f64;
    layers.set(
        "transactors.suppressed_frac",
        ratio(c.suppressed as f64, sent_or_suppressed),
    );
    layers.set("durable.replay_ns_per_record", replay);
    set_probe_layers(layers, &p);

    // Per instance. Telemetry calls count only where the untraced run has
    // telemetry on (brake_rti).
    let per = |v: u64| ratio(v as f64, traced.instance_ms.len() as f64);
    let calls = ratio(
        plain.counts.observe_calls as f64,
        plain.instance_ms.len() as f64,
    );
    let hops = per(c.frames) * DATA_HOPS;
    Traced {
        ledger: vec![
            row(
                "core step (reactions)",
                per(c.reactions),
                p.step_chain4 / 4.0,
            ),
            row("someip data codec", hops, p.data_msg),
            row("sim data delivery", hops, p.deliver),
            row("someip coord codec", per(c.ctrl_frames()), p.coord_msg),
            row("sim control delivery", per(c.ctrl_frames()), p.deliver),
            row("federation solver", per(c.fixpoints), p.zone_solve),
            row("observe", calls, p.count),
        ],
        unit: "instance",
        untraced_unit_ms: plain.instance_ms,
        untraced_cal_ms: plain.instance_cal_ms,
        traced_cal_ms: traced.instance_cal_ms,
    }
}

fn fleet_traced(
    args: &Args,
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) -> Traced {
    let half = work(args.workload, args.seconds as f64 / 2.0);
    let plain = fleet::run_phase(args.seed, 0, half, &mut Tracer::new(false));
    let traced = fleet::run_phase(args.seed, plain.rounds, half, tracer);
    report.count(plain.attempted, plain.failed, &plain.failures);
    report.count(traced.attempted, traced.failed, &traced.failures);
    let p = tracer.span("probes", probes::run);

    let c = traced.counts;
    let g = c.granted as f64;
    let fixpoints = (c.fixpoints_zone + c.fixpoints_root) as f64;
    let allocs = plain.allocs as f64;
    layers.set("core.reactions_per_grant", ratio(c.reactions as f64, g));
    layers.set(
        "alloc.per_grant",
        ratio(allocs, plain.counts.granted as f64),
    );
    layers.set("sim.events_per_grant", ratio(c.events as f64, g));
    layers.set("sim.net_frames_per_grant", ratio(c.net_frames as f64, g));
    layers.set("federation.fixpoints_per_grant", ratio(fixpoints, g));
    layers.set("federation.batches_per_grant", ratio(c.batches as f64, g));
    layers.set("federation.dnets_per_grant", ratio(c.dnets as f64, g));
    layers.set("federation.window_tag_frac", ratio(c.window_tags as f64, g));
    let wait_us = c.grant_wait_ns as f64 / 1e3;
    layers.set(
        "federation.grant_wait_us",
        ratio(wait_us, c.grants_received as f64),
    );
    layers.set(
        "federation.ctrl_frames_per_tag",
        ratio(c.ctrl_frames as f64, g),
    );
    let logged_tags = c.logged_tags as f64;
    layers.set(
        "durable.records_per_tag",
        ratio(c.log_records as f64, logged_tags),
    );
    layers.set(
        "durable.bytes_per_tag",
        ratio(c.log_bytes as f64, logged_tags),
    );
    layers.set(
        "durable.replay_ns_per_record",
        median(&traced.replay_ns_per_record),
    );
    layers.set("durable.recover_ms_p50", median(&plain.recover_ms));
    set_probe_layers(layers, &p);

    // Per steady tick.
    let per = |v: u64| ratio(v as f64, traced.tick_ms.len() as f64);
    let other_events = per(c.events.saturating_sub(c.net_frames));
    Traced {
        ledger: vec![
            row("core step (tags)", per(c.tags), p.step_member),
            row("someip coord codec", per(c.net_frames), p.coord_msg),
            row("sim control delivery", per(c.net_frames), p.deliver),
            row("sim other events", other_events, p.event),
            row(
                "federation zone solver",
                per(c.fixpoints_zone),
                p.zone_solve,
            ),
            row(
                "federation root solver",
                per(c.fixpoints_root),
                p.root_solve,
            ),
            row("durable append", per(c.log_records), p.append),
        ],
        unit: "tick",
        untraced_unit_ms: plain.tick_ms,
        untraced_cal_ms: plain.window_cal_ms,
        traced_cal_ms: traced.window_cal_ms,
    }
}

fn traced_run(args: &Args, report: &mut Report) {
    let mut tracer = Tracer::new(true);
    let mut layers = Layers::default();
    let t = match args.workload.brake_kind() {
        Some(kind) => brake_traced(kind, args, &mut tracer, &mut layers, report),
        None => fleet_traced(args, &mut tracer, &mut layers, report),
    };

    let unit_ns = mean(&t.untraced_unit_ms) * 1e6;
    let explained_ns: f64 = t.ledger.iter().map(|r| r.ops_per_unit * r.ns_per_op).sum();
    let explained = ratio(explained_ns, unit_ns);
    let overhead = ratio(median(&t.traced_cal_ms), median(&t.untraced_cal_ms)) - 1.0;
    layers.set("bench.explained_frac", explained);
    layers.set("bench.tracing_overhead_frac", overhead);

    report.lines.push(format!(
        "  cost ledger per {} (untraced mean {:.4} ms):",
        t.unit,
        unit_ns / 1e6
    ));
    for r in &t.ledger {
        report.lines.push(format!(
            "    {:<24} {:>12.1} ops x {:>9.1} ns = {:>6.2}%",
            r.layer,
            r.ops_per_unit,
            r.ns_per_op,
            100.0 * ratio(r.ops_per_unit * r.ns_per_op, unit_ns)
        ));
    }
    report.lines.push(format!(
        "    {:<24} {:>43.2}%",
        "unexplained",
        100.0 * (1.0 - explained)
    ));
    for (name, unit) in LAYER_METRICS {
        let value = layers
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |v| v.1);
        report.line(name, value, unit, "");
        report.metric(name, value, unit);
    }
    match write_trace(args, &tracer, &t.ledger, unit_ns, &layers) {
        Ok(path) => report
            .lines
            .push(format!("  spans, probes and ledger written to {path}")),
        Err(e) => {
            report.failed += 1;
            report
                .failures
                .push(format!("could not write the trace file: {e}"));
        }
    }
}

fn set_probe_layers(layers: &mut Layers, p: &probes::Probes) {
    layers.set("core.step_ns.member", p.step_member);
    layers.set("core.step_ns.chain4", p.step_chain4);
    layers.set("someip.data_msg_ns", p.data_msg);
    layers.set("someip.data_allocs_per_msg", p.data_allocs_per_msg);
    layers.set("someip.coord_msg_ns", p.coord_msg);
    layers.set("sim.deliver_ns", p.deliver);
    layers.set("sim.event_ns", p.event);
    layers.set("federation.zone_solve_ns", p.zone_solve);
    layers.set("federation.root_solve_ns", p.root_solve);
    layers.set("durable.append_ns", p.append);
    layers.set("observe.count_ns", p.count);
}

/// Writes spans (Chrome `trace_event` format), per-span self times, the
/// per-layer metrics and the ledger to `out/trace_<workload>.json` in
/// the benchmark's directory. Returns the path.
fn write_trace(
    args: &Args,
    tracer: &Tracer,
    ledger: &[LedgerRow],
    unit_ns: f64,
    layers: &Layers,
) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{}.json", args.workload.name()));
    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(&tracer.chrome_events());
    let _ = write!(
        out,
        "\n],\n\"workload\": \"{}\", \"seed\": {}, \"seconds\": {},\n\"self_time\": [",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for (i, (name, n, total, own)) in tracer.self_times().into_iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  {{\"span\": \"{name}\", \"count\": {n}, \"total_ms\": {}, \"self_ms\": {}}}",
            if i > 0 { "," } else { "" },
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let _ = write!(out, "],\n\"ledger\": {{\"unit_ns\": {unit_ns}, \"rows\": [");
    for (i, r) in ledger.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  {{\"layer\": \"{}\", \"ops_per_unit\": {}, \"ns_per_op\": {}}}",
            if i > 0 { "," } else { "" },
            r.layer,
            r.ops_per_unit,
            r.ns_per_op
        );
    }
    out.push_str("]},\n\"metrics\": {");
    for (i, (name, value)) in layers.values.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  \"{name}\": {}",
            if i > 0 { "," } else { "" },
            if value.is_finite() { *value } else { 0.0 }
        );
    }
    out.push_str("}}\n");
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

/// `--workload all`: runs every workload, one after another, each in a
/// child process of its own (so each reports its own peak memory), with
/// the same seed, seconds and trace flag. Fails if any child does.
fn run_all(argv: &[String], at: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dearbench: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in [Workload::BrakePtides, Workload::BrakeRti, Workload::Fleet] {
        let mut child = argv.to_vec();
        child[at] = workload.name().to_string();
        match std::process::Command::new(&exe).args(&child).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("dearbench: could not run {}: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = argv.iter().position(|a| a == "--workload").map(|i| i + 1) {
        if argv.get(at).is_some_and(|w| w == "all") {
            return run_all(&argv, at);
        }
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dearbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    println!(
        "dearbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        traced_run(&args, &mut report);
    } else {
        match args.workload.brake_kind() {
            Some(kind) => brake_e2e(kind, &args, &mut report),
            None => fleet_e2e(&args, &mut report),
        }
    }
    for line in &report.lines {
        println!("{line}");
    }
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "fleet_1000",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "brake_rti", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "brake_rti", "--seed"]).is_err());
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        r.count(3, 0, &[]);
        r.metric("setup_s", 0.25, "s");
        r.metric("x", f64::NAN, "ms");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn seeds_are_derived_deterministically() {
        assert_eq!(brake::instance_seed(1, 2), brake::instance_seed(1, 2));
        assert_ne!(brake::instance_seed(1, 2), brake::instance_seed(1, 3));
        assert_ne!(fleet::round_seed(1, 0), fleet::round_seed(2, 0));
    }
}
