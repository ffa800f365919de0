//! `line_rate`: all five apps at 100 Gbps with 64 B frames over 10k
//! uniform flows (§5.1), each through `NicShell` on one pipeline. The
//! cycle walk and stage execution do nearly all the host work; flushes
//! are rare and the fabric, ctrl and serve layers carry no packets.

use std::time::Instant;

use ehdl_ebpf::elf;
use ehdl_hwsim::sim::CLOCK_NS;
use ehdl_hwsim::{NicShell, PipelineSim, ShellOptions, SimCounters, SimOutcome};
use ehdl_programs::App;
use ehdl_traffic::FlowSet;

use crate::common::{self, build, install, sim_options, Digest};
use crate::measure::{self, Yardstick};
use crate::trace::Tracer;
use crate::{oracle, serve, Args, EndToEnd, Layers, Measured};

/// Packets per app per round (200k per round over the five apps).
pub const PACKETS_PER_APP: usize = 40_000;
/// Port speed of the shell (the paper's 100 Gbps testbed).
const PORT_BPS: f64 = 100e9;
/// Settle budget `NicShell::run` uses after the last arrival.
const SETTLE_CYCLES: u64 = 10_000_000;
/// Packets per traced feed span.
const FEED_CHUNK: usize = 1000;
/// Packets between yardstick readings in an untraced round (about 25 ms of
/// host time).
const YARD_EVERY: usize = 8000;

struct Input {
    app: App,
    elf: Vec<u8>,
    flows: FlowSet,
    packets: Vec<Vec<u8>>,
}

fn inputs(seed: u64) -> Vec<Input> {
    App::ALL
        .iter()
        .enumerate()
        .map(|(k, &app)| {
            let k = k as u64;
            let flows = common::flows_of(app, common::FLOWS, common::subseed(seed, 2 * k));
            let packets =
                common::uniform_packets(&flows, PACKETS_PER_APP, common::subseed(seed, 2 * k + 1));
            Input { app, elf: elf::write(&app.program()), flows, packets }
        })
        .collect()
}

/// What one round over the five apps produced.
#[derive(Default)]
struct Round {
    setup_s: f64,
    run_s: f64,
    cycles: u64,
    offered: u64,
    completed: u64,
    counters: Vec<SimCounters>,
    latencies: Vec<u64>,
    digest: Digest,
    builds: Layers,
}

impl measure::Round for Round {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn run_s(&self) -> f64 {
        self.run_s
    }

    fn digest(&self) -> Digest {
        self.digest
    }
}

impl Round {
    fn add(&mut self, cycles: u64, offered: usize, c: SimCounters, outs: &[SimOutcome]) {
        self.cycles += cycles;
        self.offered += offered as u64;
        self.completed += c.completed;
        self.digest.u64(cycles);
        self.digest.counters(&c);
        for o in outs {
            self.digest.outcome(o);
            self.latencies.push(o.latency_cycles);
        }
        self.counters.push(c);
    }
}

/// The untraced round: each app through `NicShell::run`, the yardstick
/// read before each and every `YARD_EVERY` packets within it. With
/// `check`, every output is compared against the VM.
fn round(inputs: &[Input], check: bool, yard: &mut Yardstick) -> Result<Round, String> {
    let mut r = Round::default();
    let mut off = Tracer::new(false);
    for (k, inp) in inputs.iter().enumerate() {
        yard.read();
        let t = Instant::now();
        let b = build(&inp.elf, &mut off, k as u64);
        let mut shell =
            NicShell::new(&b.design, ShellOptions { sim: sim_options(), ..Default::default() });
        install(inp.app, &inp.flows, shell.sim_mut().maps_mut());
        r.setup_s += t.elapsed().as_secs_f64();

        let packets = inp.packets.clone();
        let yard0 = yard.spent_s();
        let t = Instant::now();
        // The shell pulls packets as their arrival cycles come up, so the
        // yardstick can be read between them.
        shell.run(packets.into_iter().enumerate().map(|(i, p)| {
            if i % YARD_EVERY == YARD_EVERY - 1 {
                yard.read();
            }
            p
        }));
        let outs = shell.drain();
        r.run_s += t.elapsed().as_secs_f64() - (yard.spent_s() - yard0);

        r.add(shell.cycles(), inp.packets.len(), shell.counters(), &outs);
        r.builds.add_build(&b);
        if check {
            let refs: Vec<&SimOutcome> = outs.iter().collect();
            let maps = shell.sim_mut().maps();
            let verify = |o: &[&SimOutcome]| {
                oracle::check_single(
                    inp.app,
                    &b.program,
                    |m| install(inp.app, &inp.flows, m),
                    &inp.packets,
                    o,
                    maps,
                )
            };
            verify(&refs)?;
            if k == 0 {
                oracle::planted_divergence_caught(&refs, verify)?;
            }
        }
    }
    Ok(r)
}

/// The traced round: each app's `PipelineSim` driven directly on the
/// shell's arrival schedule, with spans around every call.
fn traced_round(inputs: &[Input], tr: &mut Tracer) -> Round {
    let mut r = Round::default();
    for (k, inp) in inputs.iter().enumerate() {
        let req = k as u64;
        let packets = inp.packets.clone();
        let t = Instant::now();
        let mut sim = tr.span("setup", req, |tr| {
            let b = build(&inp.elf, tr, req);
            let mut sim = tr
                .span("hwsim.build", req, |_| PipelineSim::with_options(&b.design, sim_options()));
            tr.span("setup.maps", req, |_| install(inp.app, &inp.flows, sim.maps_mut()));
            r.builds.add_build(&b);
            sim
        });
        r.setup_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let outs = tr.span("run", req, |tr| {
            // `NicShell::run`'s schedule: packet i arrives at its wire time
            // (frame + 20 B preamble/IFG at the port speed), the clock runs
            // up to each arrival, then the pipeline settles.
            let mut t_ns = 0.0f64;
            let mut it = packets.into_iter().peekable();
            while it.peek().is_some() {
                tr.span("hwsim.feed", req, |tr| {
                    for pkt in it.by_ref().take(FEED_CHUNK) {
                        let target_cycle = (t_ns / CLOCK_NS) as u64;
                        while sim.cycle() < target_cycle {
                            tr.call("hwsim.step", req, || sim.step());
                        }
                        // The shell's float expression at load 1.0, so the
                        // arrival cycles match it bit for bit.
                        t_ns += ((pkt.len() + 20) * 8) as f64 / PORT_BPS * 1e9 / 1.0;
                        tr.call("hwsim.enqueue", req, || sim.enqueue(pkt));
                    }
                });
            }
            tr.span("hwsim.settle", req, |_| sim.settle(SETTLE_CYCLES));
            tr.span("hwsim.drain", req, |_| sim.drain())
        });
        r.run_s += t.elapsed().as_secs_f64();
        r.add(sim.cycle(), inp.packets.len(), *sim.counters(), &outs);
    }
    r
}

pub fn run(args: &Args) -> Result<Measured, String> {
    let inputs = inputs(args.seed);
    let first = round(&inputs, true, &mut Yardstick::off())?;
    // Peak memory over the first round: build, run and VM check of the
    // workload once (later rounds only repeat it).
    let peak_rss_mb = common::peak_rss_mb();
    if first.completed != first.offered {
        return Err(format!(
            "{} of {} packets dropped",
            first.offered - first.completed,
            first.offered
        ));
    }
    // Traced rounds drive the simulator directly; untraced ones go
    // through the shell. Both must reproduce the first round exactly.
    let round = |tr: &mut Tracer, yard: &mut Yardstick| {
        if tr.enabled() {
            Ok(traced_round(&inputs, tr))
        } else {
            round(&inputs, false, yard)
        }
    };

    if args.trace {
        let mut layers = Layers::default();
        let (r, tr) = measure::traced(args, first.digest, round, &mut layers)?;
        layers.merge(&r.builds);
        layers.set("ebpf.elf_load_s", tr.busy_s("ebpf.elf_load"));
        layers.set("core.lower_s", tr.busy_s("core.lower"));
        layers.set("hwsim.build_s", tr.busy_s("hwsim.build"));
        let steps = tr.busy_s("hwsim.step") + tr.busy_s("hwsim.settle");
        layers.set("hwsim.step_ns_per_cycle", steps * 1e9 / r.cycles as f64);
        layers.set("hwsim.enqueue_ns_per_pkt", tr.busy_s("hwsim.enqueue") * 1e9 / r.offered as f64);
        layers.set("hwsim.drain_ns_per_pkt", tr.busy_s("hwsim.drain") * 1e9 / r.completed as f64);
        let flushes: u64 = r.counters.iter().map(|c| c.flushes).sum();
        let replays: u64 = r.counters.iter().map(|c| c.flush_replays).sum();
        layers.set("hwsim.flushes_per_kpkt", flushes as f64 * 1000.0 / r.completed as f64);
        layers.set("hwsim.replay_frac", replays as f64 / r.completed as f64);
        layers.set("hwsim.rx_dropped", r.counters.iter().map(|c| c.rx_dropped).sum::<u64>() as f64);
        serve::probe_layers(&App::ALL, args.seed, &mut layers)?;
        return Ok(Measured {
            attempted: first.offered,
            failed: 0,
            e2e: EndToEnd::default(),
            layers,
        });
    }

    let rounds = measure::rounds(args, first.digest, round)?;
    let mut lat = first.latencies.clone();
    lat.sort_unstable();
    common::check_varies("hw_pkt_lat_cycles", &lat)?;
    let ops = serve::probe(&App::ALL, args.seed)?;
    let attempted = first.offered + ops.attempted;
    let failed = (first.offered - first.completed) + ops.failed;
    let e2e = EndToEnd {
        setup_s: measure::median(&rounds, |t| t.setup_s()),
        host_cycles_per_s: measure::median(&rounds, |t| t.round.cycles as f64 / t.run_s()),
        peak_rss_mb,
        host_pkts_per_s: measure::median(&rounds, |t| t.round.completed as f64 / t.run_s()),
        hw_pkts_per_cycle: first.completed as f64 / first.cycles as f64,
        hw_pkt_lat_p50_cycles: common::percentile(&lat, 0.5) as f64,
        hw_pkt_lat_p999_cycles: common::percentile(&lat, 0.999) as f64,
        delivered_frac: 1.0 - failed as f64 / attempted as f64,
        ..ops.e2e
    };
    Ok(Measured { attempted, failed, e2e, layers: Layers::default() })
}
