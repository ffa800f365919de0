//! `serve_hotkey`: Firewall behind the serving `Reactor`, with 64
//! in-process clients sending an update-heavy op mix over Zipf(1.2) keys
//! (the serving campaign's hotkey phase) while packets read and write the
//! same session map at a fixed rate below line rate. The load is open-loop
//! in simulated time: every packet and op has a due cycle drawn from the
//! seed, and the reactor admits what is due at the start of each turn.
//!
//! Op latency runs from the cycle an op was *due* to the end of the turn
//! at which its ack is observed, so generator lateness (an op waits for
//! the next turn boundary) and client queueing both count. It is not
//! `Ack::latency_cycles`, which starts at device submit and is quantized
//! to the turn.
//!
//! The same drive loop, with a stats read/write op mix and no packets, is the
//! control-path probe that gives `line_rate` and `churn_sharded` their op
//! metrics (see `README.md`).

use std::time::Instant;

use ehdl_core::PipelineDesign;
use ehdl_ebpf::elf;
use ehdl_ebpf::maps::{MapError, MapKind};
use ehdl_ebpf::Program;
use ehdl_hwsim::diff::apply_host_op_to_store;
use ehdl_hwsim::{HostOp, HostOpResult, SimOutcome};
use ehdl_programs::{simple_firewall, App};
use ehdl_rng::Rng;
use ehdl_runtime::{to_host_op, RuntimeOptions};
use ehdl_serve::{Ack, ClientId, Reactor, ReactorOptions};
use ehdl_traffic::{ClientWorkload, FlowSet, OpMix, Popularity, Workload};

use crate::common::{self, build, sim_options, Built, Digest};
use crate::measure::{self, Yardstick};
use crate::trace::Tracer;
use crate::{oracle, Args, EndToEnd, Layers, Measured};

/// In-process control clients.
pub const CLIENTS: usize = 64;
/// Simulated cycles per reactor turn (as in the serving campaign).
pub const TURN_CYCLES: u64 = 32;
/// Cycles between packet arrivals (0.25 pkts/cycle, 42% of 64 B line rate).
pub const PKT_GAP_CYCLES: u64 = 4;
/// Length of the measured run's arrival schedule (200k packets, about
/// 20k ops).
pub const RUN_CYCLES: u64 = 800_000;
/// Length of the control-path probe's schedule (about 2.5k ops).
pub const PROBE_CYCLES: u64 = 100_000;
/// Op rate of the measured run, in ops per 1k cycles (below the hotkey
/// load's capacity, so the run measures latency, not a growing queue).
pub const OP_RATE: f64 = 25.0;
/// Op latency bound the capacity ladder applies to the p99 (the bound
/// `scripts/check.sh` gates the serving campaign's op latency against).
pub const SLO_P99_CYCLES: u64 = 512;
/// Each capacity-ladder rung schedules `RUNG_OPS` ops, over at least
/// `RUNG_MIN_CYCLES` and at most `RUNG_MAX_CYCLES` cycles (so the bottom
/// rungs, far below any limit, stay short).
pub const RUNG_OPS: f64 = 16_000.0;
pub const RUNG_MIN_CYCLES: u64 = 32_000;
pub const RUNG_MAX_CYCLES: u64 = 400_000;
/// The fixed op-rate ladder, ops per 1k cycles: 16 to 2048 in steps of
/// 2^(1/16) (4.4 percent), wide enough to bracket both the hotkey load's
/// limit and the packet-free probe's.
pub const LADDER: [f64; 113] = [
    16.0, 16.7, 17.4, 18.2, 19.0, 19.9, 20.7, 21.7, 22.6, 23.6, 24.7, 25.8, 26.9, 28.1, 29.3, 30.6,
    32.0, 33.4, 34.9, 36.4, 38.1, 39.7, 41.5, 43.3, 45.3, 47.3, 49.4, 51.5, 53.8, 56.2, 58.7, 61.3,
    64.0, 66.8, 69.8, 72.9, 76.1, 79.5, 83.0, 86.7, 90.5, 94.5, 98.7, 103.1, 107.6, 112.4, 117.4,
    122.6, 128.0, 133.7, 139.6, 145.8, 152.2, 159.0, 166.0, 173.3, 181.0, 189.0, 197.4, 206.1,
    215.3, 224.8, 234.8, 245.1, 256.0, 267.3, 279.2, 291.5, 304.4, 317.9, 332.0, 346.7, 362.0,
    378.1, 394.8, 412.3, 430.5, 449.6, 469.5, 490.3, 512.0, 534.7, 558.3, 583.1, 608.9, 635.8,
    664.0, 693.4, 724.1, 756.1, 789.6, 824.6, 861.1, 899.2, 939.0, 980.6, 1024.0, 1069.3, 1116.7,
    1166.1, 1217.7, 1271.7, 1328.0, 1386.8, 1448.2, 1512.3, 1579.2, 1649.1, 1722.2, 1798.4, 1878.0,
    1961.2, 2048.0,
];
/// Distinct session keys the hotkey clients write.
const HOT_KEYS: usize = 8;
/// Flows the hotkey packets draw from.
const HOT_FLOWS: usize = 256;

/// One op source: what the clients send and over which keys.
#[derive(Clone)]
struct OpSource {
    map: u32,
    keys: Vec<Vec<u8>>,
    value_size: usize,
    mix: OpMix,
    pop: Popularity,
    seed: u64,
}

/// A generated load: packets with due cycles, ops with due cycles, over
/// `horizon` cycles.
struct Load {
    packets: Vec<Vec<u8>>,
    ops: Vec<(u64, usize, HostOp)>,
    horizon: u64,
}

/// Ops at `rate` per 1k cycles over `horizon` cycles, as a Poisson
/// process (independent users: an open loop).
fn op_schedule(src: &OpSource, rate: f64, horizon: u64, seed: u64) -> Vec<(u64, usize, HostOp)> {
    let mut gen = ClientWorkload::try_new(
        CLIENTS,
        src.map,
        src.keys.clone(),
        src.value_size,
        src.mix,
        src.pop,
        src.pop,
        src.seed,
    )
    .expect("the op mix is valid");
    let mut rng = Rng::seed_from_u64(seed);
    let mean_gap = 1000.0 / rate;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.gen_f64()).ln() * mean_gap;
        if t >= horizon as f64 {
            return out;
        }
        let (client, op) = gen.next_op();
        out.push((t as u64, client as usize, to_host_op(&op)));
    }
}

/// One admitted op.
struct Ticket {
    due: u64,
    admit: u64,
    op: usize,
    acks: u32,
}

/// Everything one drive of a reactor produced.
#[derive(Default)]
pub struct Drive {
    op_lat: Vec<u64>,
    gen_late: Vec<u64>,
    queue_wait: Vec<u64>,
    pkt_lat: Vec<u64>,
    offered_pkts: u64,
    served_pkts: u64,
    dropped_pkts: u64,
    attempted_ops: u64,
    shed: u64,
    admitted: u64,
    acked: u64,
    /// Mean unacked-op backlog over the first and second half of the
    /// schedule.
    backlog: (f64, f64),
    cycles: u64,
    setup_s: f64,
    wall_s: f64,
    digest: Digest,
    builds: Layers,
    device_ops: u64,
    ctrl: ehdl_hwsim::CtrlStats,
    host_op_flushes: u64,
    flushes: u64,
    replays: u64,
    completed: u64,
}

impl measure::Round for Drive {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn run_s(&self) -> f64 {
        self.wall_s
    }

    fn digest(&self) -> Digest {
        self.digest
    }
}

/// The record the oracle replays: accepted packets with the cycle they
/// were offered, acks with the cycle they were observed. Timed repeat
/// rounds only digest their outputs (`keep` off), so they neither hold a
/// second copy of every outcome nor pay for it.
struct Record {
    keep: bool,
    offered: Vec<(u64, usize)>,
    acks: Vec<(u64, Ack)>,
    tickets: Vec<Vec<Ticket>>,
    outcomes: Vec<SimOutcome>,
}

/// Set up one reactor: ELF → design → `Reactor` with `CLIENTS` clients.
/// The reactor owns its maps and takes writes only over the modeled
/// channel, so its maps start cold (Firewall's `setup_app` installs
/// nothing).
fn setup(elf_bytes: &[u8], tr: &mut Tracer, req: u64) -> (Built, Reactor, Vec<ClientId>) {
    tr.span("setup", req, |tr| {
        let b = build(elf_bytes, tr, req);
        let mut reactor = tr.span("hwsim.build", req, |_| {
            Reactor::new(
                &b.design,
                ReactorOptions {
                    runtime: RuntimeOptions { sim: sim_options(), ..Default::default() },
                    ..Default::default()
                },
            )
        });
        let clients = (0..CLIENTS).map(|_| reactor.connect()).collect();
        (b, reactor, clients)
    })
}

/// Turns per traced loop span.
const LOOP_CHUNK: usize = 64;
/// Loop spans between yardstick readings (about 25 ms of host time).
const YARD_EVERY: usize = 8;

/// Drive `load` through `reactor` turn by turn, then until every admitted
/// op is acked and the pipeline has drained. The yardstick is read every
/// `YARD_EVERY` loop spans; its readings are not part of `wall_s`.
fn drive(
    reactor: &mut Reactor,
    clients: &[ClientId],
    load: &Load,
    keep: bool,
    tr: &mut Tracer,
    yard: &mut Yardstick,
    req: u64,
) -> Result<(Drive, Record), String> {
    let horizon = load.horizon;
    let mut d = Drive::default();
    let mut rec = Record {
        keep,
        offered: Vec::new(),
        acks: Vec::new(),
        tickets: (0..clients.len()).map(|_| Vec::new()).collect(),
        outcomes: Vec::new(),
    };
    let start = reactor.runtime().total_cycles();
    let (mut pi, mut oi) = (0usize, 0usize);
    let mut halves = [(0.0f64, 0u64); 2];
    let t0 = Instant::now();
    let yard0 = yard.spent_s();
    let mut busy = true;
    let mut spans = 0usize;
    while busy {
        spans += 1;
        if spans.is_multiple_of(YARD_EVERY) {
            yard.read();
        }
        tr.span("serve.loop", req, |tr| -> Result<(), String> {
            for _ in 0..LOOP_CHUNK {
                let now = reactor.runtime().total_cycles();
                let rel = now - start;
                if pi >= load.packets.len() && oi >= load.ops.len() && reactor.idle() {
                    busy = false;
                    return Ok(());
                }
                while pi < load.packets.len() && pi as u64 * PKT_GAP_CYCLES <= rel {
                    let p = load.packets[pi].clone();
                    d.offered_pkts += 1;
                    if tr.call("hwsim.enqueue", req, || reactor.offer_packet(p)) {
                        if keep {
                            rec.offered.push((now, pi));
                        }
                    } else {
                        d.dropped_pkts += 1;
                    }
                    pi += 1;
                }
                while oi < load.ops.len() && load.ops[oi].0 <= rel {
                    let (due, c, op) = &load.ops[oi];
                    let op = op.clone();
                    d.attempted_ops += 1;
                    match tr.call("serve.submit", req, || reactor.submit(clients[*c], op)) {
                        Ok(t) => {
                            let tickets = &mut rec.tickets[t.client.index()];
                            if t.seq as usize != tickets.len() {
                                return Err(format!(
                                    "ticket {} of {} out of order",
                                    t.seq, t.client
                                ));
                            }
                            tickets.push(Ticket { due: start + due, admit: now, op: oi, acks: 0 });
                            d.admitted += 1;
                        }
                        Err(ehdl_serve::ServeError::Overloaded { .. }) => d.shed += 1,
                        Err(e) => return Err(format!("op {oi} refused: {e}")),
                    }
                    oi += 1;
                }
                tr.call("serve.turn", req, || reactor.turn(TURN_CYCLES));
                let seen = reactor.runtime().total_cycles();
                let acks = tr.call("serve.take_acks", req, || reactor.take_acks());
                collect_acks(&mut d, &mut rec, seen, acks)?;
                let outs = tr.call("serve.outcomes", req, || reactor.last_outcomes());
                absorb(&mut d, &mut rec, outs);
                if rel < horizon {
                    let h = &mut halves[usize::from(rel >= horizon / 2)];
                    h.0 += (d.admitted - d.acked) as f64;
                    h.1 += 1;
                }
            }
            Ok(())
        })?;
    }
    tr.span("serve.drain", req, |_| reactor.drain());
    let seen = reactor.runtime().total_cycles();
    collect_acks(&mut d, &mut rec, seen, reactor.take_acks())?;
    absorb(&mut d, &mut rec, reactor.last_outcomes());
    d.wall_s = t0.elapsed().as_secs_f64() - (yard.spent_s() - yard0);
    d.cycles = reactor.runtime().total_cycles() - start;
    d.backlog = (halves[0].0 / halves[0].1.max(1) as f64, halves[1].0 / halves[1].1.max(1) as f64);
    let stats = reactor.runtime_stats();
    d.device_ops = reactor.stats().device_ops;
    d.ctrl = stats.ctrl;
    d.host_op_flushes = stats.counters.host_op_flushes;
    d.flushes = stats.counters.flushes;
    d.replays = stats.counters.flush_replays;
    d.completed = stats.counters.completed;
    d.digest.counters(&stats.counters);
    account(reactor, &d, &rec)?;
    Ok((d, rec))
}

/// Digest a turn's packet outcomes (and keep them for the oracle).
fn absorb(d: &mut Drive, rec: &mut Record, outs: Vec<SimOutcome>) {
    d.served_pkts += outs.len() as u64;
    for o in &outs {
        d.digest.outcome(o);
    }
    if rec.keep {
        d.pkt_lat.extend(outs.iter().map(|o| o.latency_cycles));
        rec.outcomes.extend(outs);
    }
}

fn collect_acks(d: &mut Drive, rec: &mut Record, seen: u64, acks: Vec<Ack>) -> Result<(), String> {
    for a in acks {
        let t = rec
            .tickets
            .get_mut(a.client.index())
            .and_then(|ts| ts.get_mut(a.seq as usize))
            .ok_or_else(|| format!("ack for unknown ticket {}#{}", a.client, a.seq))?;
        t.acks += 1;
        if t.acks > 1 {
            return Err(format!("ticket {}#{} acked twice", a.client, a.seq));
        }
        d.acked += 1;
        d.op_lat.push(seen - t.due);
        d.gen_late.push(t.admit - t.due);
        d.queue_wait.push((seen - a.latency_cycles).saturating_sub(t.admit));
        d.digest.u64(seen);
        d.digest.u64(u64::from(a.client.index() as u32) << 32 | a.seq);
        if rec.keep {
            rec.acks.push((seen, a));
        }
    }
    Ok(())
}

/// Accounting closure: every admitted ticket acked exactly once, and
/// offered = served + failed + shed in the reactor's own SLO counters.
fn account(reactor: &Reactor, d: &Drive, rec: &Record) -> Result<(), String> {
    if let Some((c, t)) = rec
        .tickets
        .iter()
        .enumerate()
        .flat_map(|(c, ts)| ts.iter().map(move |t| (c, t)))
        .find(|(_, t)| t.acks != 1)
    {
        return Err(format!("client {c} op {} acked {} times", t.op, t.acks));
    }
    if d.attempted_ops != d.admitted + d.shed || d.admitted != d.acked {
        return Err(format!(
            "ops: {} attempted, {} admitted, {} shed, {} acked",
            d.attempted_ops, d.admitted, d.shed, d.acked
        ));
    }
    let s = reactor.stats();
    if (s.admitted_ops, s.acked_ops, s.shed_ops) != (d.admitted, d.acked, d.shed) {
        return Err(format!("reactor counts {s:?} disagree with the clients' view"));
    }
    // The tracker counts served and failed requests as offered and sheds
    // apart; every request the clients made must land in one of the three.
    let slo = reactor.slo();
    let served_pkts = d.served_pkts;
    let offered = d.offered_pkts + d.attempted_ops;
    if offered != slo.served() + slo.failures() + slo.shed_count()
        || slo.served() != served_pkts + d.acked
        || slo.failures() != d.dropped_pkts
        || served_pkts + d.dropped_pkts != d.offered_pkts
    {
        return Err(format!(
            "accounting: offered {} pkts + {} ops; tracker served {} failed {} shed {}; \
             drained {served_pkts} pkts, acked {} ops",
            d.offered_pkts,
            d.attempted_ops,
            slo.served(),
            slo.failures(),
            slo.shed_count(),
            d.acked
        ));
    }
    Ok(())
}

/// Replay the run on the VM in the order the device saw it: packets by
/// the cycle they were offered, each op at the turn it was submitted
/// (ack cycle − device latency), in ack order, after the packets offered
/// at or before that cycle. Verdicts, bytes, op results and final maps
/// must all match.
fn check(
    app: App,
    program: &Program,
    load: &Load,
    rec: &Record,
    acks: &[(u64, Ack)],
    hw_maps: &ehdl_ebpf::maps::MapStore,
) -> Result<(), String> {
    let mut vm = oracle::vm_for(program, |_| {});
    let mut by_seq: Vec<Option<&SimOutcome>> = vec![None; rec.offered.len()];
    for o in &rec.outcomes {
        let slot = by_seq
            .get_mut(o.seq as usize)
            .ok_or_else(|| format!("outcome seq {} unknown", o.seq))?;
        if slot.replace(o).is_some() {
            return Err(format!("packet {} completed twice", o.seq));
        }
    }
    let mut pc = oracle::PacketCheck::new(app);
    let mut next = 0usize;
    let mut run_packets = |upto: u64, vm: &mut ehdl_ebpf::vm::Vm| -> Result<(), String> {
        while next < rec.offered.len() && rec.offered[next].0 <= upto {
            let input = &load.packets[rec.offered[next].1];
            let out = by_seq[next].ok_or_else(|| format!("packet {next} never completed"))?;
            pc.check(next, input, &oracle::vm_packet(vm, input), out)?;
            next += 1;
        }
        Ok(())
    };
    for (seen, a) in acks {
        run_packets(seen - a.latency_cycles, &mut vm)?;
        let t = &rec.tickets[a.client.index()][a.seq as usize];
        let want = apply_host_op_to_store(vm.maps_mut(), &load.ops[t.op].2);
        if a.result != want {
            return Err(format!("op {} from {}: {:?}, VM {:?}", a.seq, a.client, a.result, want));
        }
    }
    run_packets(u64::MAX, &mut vm)?;
    oracle::check_maps(app, program, &vm, hw_maps)
}

/// Check a drive against the VM, then plant one wrong op result and
/// confirm the check refuses it.
fn check_and_self_test(
    app: App,
    program: &Program,
    load: &Load,
    rec: &Record,
    hw_maps: &ehdl_ebpf::maps::MapStore,
) -> Result<(), String> {
    check(app, program, load, rec, &rec.acks, hw_maps)?;
    let mut planted = rec.acks.clone();
    let (_, a) = planted.first_mut().ok_or("self-test: no acked op to corrupt")?;
    a.result = match a.result {
        Ok(HostOpResult::Value(None)) => Ok(HostOpResult::Value(Some(vec![0; 8]))),
        _ => Err(MapError::NoSuchKey),
    };
    match check(app, program, load, rec, &planted, hw_maps) {
        Err(_) => Ok(()),
        Ok(()) => Err("self-test: a wrong op result passed the oracle".into()),
    }
}

/// Whether one ladder rung meets the SLO: p99 op latency within
/// `SLO_P99_CYCLES`, nothing shed, and no backlog growth between the
/// schedule's halves.
fn rung_meets(
    app: App,
    elf_bytes: &[u8],
    source: &OpSource,
    packets: &[Vec<u8>],
    rate: f64,
    seed: u64,
) -> Result<bool, String> {
    let horizon = ((RUNG_OPS * 1000.0 / rate) as u64).clamp(RUNG_MIN_CYCLES, RUNG_MAX_CYCLES);
    let load = Load {
        packets: packets[..packets.len().min((horizon / PKT_GAP_CYCLES) as usize)].to_vec(),
        ops: op_schedule(source, rate, horizon, seed),
        horizon,
    };
    let mut off = Tracer::new(false);
    let (b, mut reactor, clients) = setup(elf_bytes, &mut off, 0);
    let (d, rec) = drive(&mut reactor, &clients, &load, true, &mut off, &mut Yardstick::off(), 0)?;
    check(app, &b.program, &load, &rec, &rec.acks, reactor.runtime().maps())?;
    let mut lat = d.op_lat;
    lat.sort_unstable();
    let grew = d.backlog.1 > 1.25 * d.backlog.0 + 4.0;
    let meets = d.shed == 0 && !grew && common::percentile(&lat, 0.99) <= SLO_P99_CYCLES;
    Ok(meets)
}

/// The highest rung of the fixed ladder that meets the SLO, found by
/// bisection between a bottom rung that must meet it and a top rung that
/// must not (the ladder brackets the limit).
fn capacity(
    app: App,
    elf_bytes: &[u8],
    source: &OpSource,
    packets: &[Vec<u8>],
    seed: u64,
) -> Result<f64, String> {
    let meets = |r: usize| {
        rung_meets(
            app,
            elf_bytes,
            source,
            packets,
            LADDER[r],
            common::subseed(seed, 100 + r as u64),
        )
    };
    let (mut lo, mut hi) = (0, LADDER.len() - 1);
    if !meets(lo)? || meets(hi)? {
        return Err(format!(
            "{}: the ladder {}..{} ops/kcycle does not bracket the capacity",
            app.name(),
            LADDER[lo],
            LADDER[hi]
        ));
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if meets(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(LADDER[lo])
}

/// Op-side metrics of one or more drives, pooled.
#[derive(Default)]
struct OpMetrics {
    op_lat: Vec<u64>,
    gen_late: Vec<u64>,
    queue_wait: Vec<u64>,
    capacity: f64,
    attempted: u64,
    failed: u64,
    admitted: u64,
    device_ops: u64,
    shed: u64,
    ctrl_lat_total: u64,
    ctrl_applied: u64,
    ctrl_lat_max: u64,
    ctrl_flushes: u64,
    host_op_flushes: u64,
}

impl OpMetrics {
    fn add(&mut self, d: &Drive) {
        self.op_lat.extend(&d.op_lat);
        self.gen_late.extend(&d.gen_late);
        self.queue_wait.extend(&d.queue_wait);
        self.attempted += d.attempted_ops + d.offered_pkts;
        self.failed += d.shed + d.dropped_pkts + (d.admitted - d.acked);
        self.admitted += d.admitted;
        self.device_ops += d.device_ops;
        self.shed += d.shed;
        self.ctrl_lat_total += d.ctrl.latency_cycles_total;
        self.ctrl_applied += d.ctrl.completed + d.ctrl.failed;
        self.ctrl_lat_max = self.ctrl_lat_max.max(d.ctrl.latency_cycles_max);
        self.ctrl_flushes += d.ctrl.flushes;
        self.host_op_flushes += d.host_op_flushes;
    }

    fn e2e(&mut self) -> Result<EndToEnd, String> {
        self.op_lat.sort_unstable();
        common::check_varies("hw_op_lat_cycles", &self.op_lat)?;
        Ok(EndToEnd {
            hw_op_lat_p50_cycles: common::percentile(&self.op_lat, 0.5) as f64,
            hw_op_lat_p99_cycles: common::percentile(&self.op_lat, 0.99) as f64,
            hw_op_capacity_per_kcycle: self.capacity,
            ..Default::default()
        })
    }

    fn layers(&mut self, l: &mut Layers) {
        self.gen_late.sort_unstable();
        self.queue_wait.sort_unstable();
        l.set("ctrl.lat_mean_cycles", self.ctrl_lat_total as f64 / self.ctrl_applied.max(1) as f64);
        l.set("ctrl.lat_max_cycles", self.ctrl_lat_max as f64);
        l.set("ctrl.flushes", self.ctrl_flushes as f64);
        l.set("hwsim.host_op_flushes", self.host_op_flushes as f64);
        l.set("serve.queue_wait_p99_cycles", common::percentile(&self.queue_wait, 0.99) as f64);
        l.set("serve.gen_late_p99_cycles", common::percentile(&self.gen_late, 0.99) as f64);
        l.set("serve.coalesce_ratio", self.device_ops as f64 / self.admitted.max(1) as f64);
        l.set("serve.shed_ops", self.shed as f64);
    }
}

/// The readout source for `design`: every client reads and writes entries
/// of the design's stats array (the counters a management agent polls and
/// resets).
fn readout_source(design: &PipelineDesign, seed: u64) -> Result<OpSource, String> {
    let stats = design
        .maps
        .iter()
        .rev()
        .find(|m| m.kind == MapKind::Array && m.name.ends_with("stats"))
        .ok_or_else(|| format!("{}: no stats array to read", design.name))?;
    Ok(OpSource {
        map: stats.id,
        keys: (0..stats.max_entries.min(4)).map(|k| k.to_le_bytes().to_vec()).collect(),
        value_size: stats.value_size as usize,
        mix: OpMix { lookup: 0.5, update: 0.5, delete: 0.0, dump: 0.0 },
        pop: Popularity::Uniform,
        seed,
    })
}

/// The control-path probe for workloads whose datapath carries no host
/// ops: per app, a packet-free reactor serving the readout mix at
/// `OP_RATE`, plus the capacity ladder. Latencies pool over the apps;
/// capacity is the lowest app's.
fn probe_ops(apps: &[App], seed: u64) -> Result<OpMetrics, String> {
    let mut m = OpMetrics { capacity: f64::INFINITY, ..Default::default() };
    let mut off = Tracer::new(false);
    for (k, &app) in apps.iter().enumerate() {
        let k = k as u64;
        let elf_bytes = elf::write(&app.program());
        let (b, mut reactor, clients) = setup(&elf_bytes, &mut off, k);
        let source = readout_source(&b.design, common::subseed(seed, 200 + k))?;
        let load = Load {
            packets: Vec::new(),
            ops: op_schedule(&source, OP_RATE, PROBE_CYCLES, common::subseed(seed, 300 + k)),
            horizon: PROBE_CYCLES,
        };
        let (d, rec) =
            drive(&mut reactor, &clients, &load, true, &mut off, &mut Yardstick::off(), k)?;
        check_and_self_test(app, &b.program, &load, &rec, reactor.runtime().maps())?;
        m.add(&d);
        m.capacity = m.capacity.min(capacity(app, &elf_bytes, &source, &[], seed)?);
    }
    Ok(m)
}

/// Op metrics of the control-path probe (`line_rate`, `churn_sharded`).
pub struct Probe {
    pub e2e: EndToEnd,
    pub attempted: u64,
    pub failed: u64,
}

pub fn probe(apps: &[App], seed: u64) -> Result<Probe, String> {
    let mut m = probe_ops(apps, seed)?;
    Ok(Probe { e2e: m.e2e()?, attempted: m.attempted, failed: m.failed })
}

pub fn probe_layers(apps: &[App], seed: u64, l: &mut Layers) -> Result<(), String> {
    probe_ops(apps, seed)?.layers(l);
    Ok(())
}

fn hotkey_inputs(seed: u64) -> (Vec<u8>, OpSource, Vec<Vec<u8>>) {
    let flows = FlowSet::udp(HOT_FLOWS, common::subseed(seed, 0));
    let packets =
        Workload::new(flows.clone(), Popularity::Zipf { alpha: 1.2 }, 64, common::subseed(seed, 1))
            .packets((RUN_CYCLES / PKT_GAP_CYCLES) as usize);
    let source = OpSource {
        map: simple_firewall::SESSIONS_MAP,
        keys: flows.flows().iter().take(HOT_KEYS).map(|f| f.to_key().to_vec()).collect(),
        value_size: 8,
        mix: OpMix { lookup: 0.25, update: 0.65, delete: 0.05, dump: 0.05 },
        pop: Popularity::Zipf { alpha: 1.2 },
        seed: common::subseed(seed, 2),
    };
    (elf::write(&App::Firewall.program()), source, packets)
}

pub fn run(args: &Args) -> Result<Measured, String> {
    let app = App::Firewall;
    let (elf_bytes, source, packets) = hotkey_inputs(args.seed);
    let load = Load {
        packets: packets.clone(),
        ops: op_schedule(&source, OP_RATE, RUN_CYCLES, common::subseed(args.seed, 3)),
        horizon: RUN_CYCLES,
    };
    let setup_and_drive = |keep: bool, tr: &mut Tracer, yard: &mut Yardstick| {
        yard.read();
        let t = Instant::now();
        let (b, mut reactor, clients) = setup(&elf_bytes, tr, 0);
        let setup_s = t.elapsed().as_secs_f64();
        let (mut d, rec) = drive(&mut reactor, &clients, &load, keep, tr, yard, 0)?;
        d.setup_s = setup_s;
        d.builds.add_build(&b);
        Ok::<_, String>((d, rec, b, reactor))
    };
    let (first, rec, b, reactor) =
        setup_and_drive(true, &mut Tracer::new(false), &mut Yardstick::off())?;
    check_and_self_test(app, &b.program, &load, &rec, reactor.runtime().maps())?;
    // Peak memory over the first round: build, run and VM check of the
    // workload once (later rounds only repeat it).
    let peak_rss_mb = common::peak_rss_mb();
    let mut ops = OpMetrics::default();
    ops.add(&first);
    let round =
        |tr: &mut Tracer, yard: &mut Yardstick| setup_and_drive(false, tr, yard).map(|(d, ..)| d);

    if args.trace {
        let mut layers = Layers::default();
        let (d, tr) = measure::traced(args, first.digest, round, &mut layers)?;
        layers.merge(&d.builds);
        layers.set("ebpf.elf_load_s", tr.busy_s("ebpf.elf_load"));
        layers.set("core.lower_s", tr.busy_s("core.lower"));
        layers.set("hwsim.build_s", tr.busy_s("hwsim.build"));
        layers.set(
            "hwsim.enqueue_ns_per_pkt",
            tr.busy_s("hwsim.enqueue") * 1e9 / d.offered_pkts as f64,
        );
        layers.set(
            "serve.submit_ns_per_op",
            tr.busy_s("serve.submit") * 1e9 / tr.calls("serve.submit").max(1) as f64,
        );
        layers.set(
            "serve.turn_ns_per_cycle",
            (tr.busy_s("serve.turn") + tr.busy_s("serve.drain")) * 1e9 / d.cycles as f64,
        );
        ops.layers(&mut layers);
        layers.set("hwsim.flushes_per_kpkt", d.flushes as f64 * 1000.0 / d.completed as f64);
        layers.set("hwsim.replay_frac", d.replays as f64 / d.completed as f64);
        layers.set("hwsim.rx_dropped", d.dropped_pkts as f64);
        return Ok(Measured {
            attempted: ops.attempted,
            failed: ops.failed,
            e2e: EndToEnd::default(),
            layers,
        });
    }

    let rounds = measure::rounds(args, first.digest, round)?;
    ops.capacity = capacity(app, &elf_bytes, &source, &packets, args.seed)?;
    let mut pkt_lat = first.pkt_lat.clone();
    pkt_lat.sort_unstable();
    common::check_varies("hw_pkt_lat_cycles", &pkt_lat)?;
    let e2e = EndToEnd {
        setup_s: measure::median(&rounds, |t| t.setup_s()),
        host_cycles_per_s: measure::median(&rounds, |t| t.round.cycles as f64 / t.run_s()),
        peak_rss_mb,
        host_pkts_per_s: measure::median(&rounds, |t| t.round.completed as f64 / t.run_s()),
        hw_pkts_per_cycle: first.completed as f64 / first.cycles as f64,
        hw_pkt_lat_p50_cycles: common::percentile(&pkt_lat, 0.5) as f64,
        hw_pkt_lat_p999_cycles: common::percentile(&pkt_lat, 0.999) as f64,
        delivered_frac: 1.0 - ops.failed as f64 / ops.attempted as f64,
        ..ops.e2e()?
    };
    Ok(Measured { attempted: ops.attempted, failed: ops.failed, e2e, layers: Layers::default() })
}
