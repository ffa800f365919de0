//! `churn_sharded`: Firewall and DNAT on new-flow churn bursts (10k flows,
//! Zipf α = 1.0, each draw a back-to-back burst against cold tables)
//! through `ShardedNic::from_shard_plan` at 2 replicas, in four
//! independent segments per app. The flush/replay
//! path dominates; DNAT's shared port allocator adds fabric contention.

use std::time::Instant;

use ehdl_ebpf::elf;
use ehdl_hwsim::{ShardedNic, SimOutcome};
use ehdl_programs::App;
use ehdl_traffic::FlowSet;

use crate::common::{self, build, install, sim_options, Digest};
use crate::measure::{self, Yardstick};
use crate::trace::Tracer;
use crate::{oracle, serve, Args, EndToEnd, Layers, Measured};

/// The two apps: one flow-keyed (all maps private), one with a shared
/// allocator behind the fabric.
pub const APPS: [App; 2] = [App::Firewall, App::Dnat];
/// Replicas: no more than the host's two cores, so a thread-per-replica
/// engine would stay within them.
pub const REPLICAS: usize = 2;
/// Independent segments per app per round, each with its own flow set
/// and RSS seed, on its own engine. Which flows are hot and which replica
/// they hash to decides a segment's tail latency and balance; pooling
/// several segments keeps one seed's luck out of the workload's figures.
pub const SEGMENTS: u64 = 4;
/// Packets per segment (80k per app per round).
pub const PACKETS_PER_SEGMENT: usize = 20_000;
/// Zipf skew of the flow draws.
pub const ALPHA: f64 = 1.0;

struct Input {
    app: App,
    elf: Vec<u8>,
    flows: FlowSet,
    packets: Vec<Vec<u8>>,
    rss_seed: u64,
}

fn inputs(seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for (k, &app) in APPS.iter().enumerate() {
        for seg in 0..SEGMENTS {
            let tag = 10 + 3 * (k as u64 * SEGMENTS + seg);
            let flows = common::flows_of(app, common::FLOWS, common::subseed(seed, tag));
            let packets = common::churn_packets(
                &flows,
                ALPHA,
                PACKETS_PER_SEGMENT,
                common::subseed(seed, tag + 1),
            );
            // RSS seeds must be non-zero (`Steering::validate`).
            let rss_seed = common::subseed(seed, tag + 2) | 1;
            out.push(Input { app, elf: elf::write(&app.program()), flows, packets, rss_seed });
        }
    }
    out
}

#[derive(Default)]
struct Round {
    setup_s: f64,
    run_s: f64,
    cycles: u64,
    offered: u64,
    completed: u64,
    dropped: u64,
    latencies: Vec<u64>,
    digest: Digest,
    flushes: u64,
    replays: u64,
    fabric_accesses: u64,
    conflicts: u64,
    stall_cycles: u64,
    imbalance: f64,
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

/// One round over both apps, the yardstick read before each segment
/// (`ShardedNic::run` collects its packets before it starts, so no reading
/// fits within one). With `check`, every output is compared against the VM.
fn round(
    inputs: &[Input],
    tr: &mut Tracer,
    yard: &mut Yardstick,
    check: bool,
) -> Result<Round, String> {
    let mut r = Round::default();
    for (k, inp) in inputs.iter().enumerate() {
        let req = k as u64;
        yard.read();
        let t = Instant::now();
        let (b, mut nic) = tr.span("setup", req, |tr| -> Result<_, String> {
            let b = build(&inp.elf, tr, req);
            let mut nic = tr
                .span("hwsim.build", req, |_| {
                    ShardedNic::from_shard_plan(&b.design, REPLICAS, inp.rss_seed, sim_options())
                })
                .map_err(|e| format!("{}: shard plan unsound: {e:?}", inp.app.name()))?;
            tr.span("setup.maps", req, |_| nic.setup_maps(|m| install(inp.app, &inp.flows, m)));
            Ok((b, nic))
        })?;
        r.setup_s += t.elapsed().as_secs_f64();

        let packets = inp.packets.clone();
        let t = Instant::now();
        let report = tr.span("shared.run", req, |_| nic.run(packets));
        r.run_s += t.elapsed().as_secs_f64();

        let mut outs: Vec<Option<&SimOutcome>> = vec![None; inp.packets.len()];
        for (_, g, o) in &report.outcomes {
            let slot = outs
                .get_mut(*g as usize)
                .ok_or_else(|| format!("outcome for unknown packet {g}"))?;
            if slot.replace(o).is_some() {
                return Err(format!("{}: packet {g} completed twice", inp.app.name()));
            }
        }
        let dropped: u64 = report.dropped.iter().sum();
        if dropped > 0 {
            return Err(format!("{}: {dropped} frames dropped at ingress", inp.app.name()));
        }
        let outs: Vec<&SimOutcome> = outs
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.ok_or_else(|| format!("{}: packet {i} never completed", inp.app.name()))
            })
            .collect::<Result<_, _>>()?;

        r.cycles += report.cycles;
        r.offered += inp.packets.len() as u64;
        r.completed += report.completed.iter().sum::<u64>();
        r.dropped += dropped;
        r.digest.u64(report.cycles);
        for o in &outs {
            r.digest.outcome(o);
            r.latencies.push(o.latency_cycles);
        }
        for rep in 0..nic.replicas() {
            let c = nic.sim(rep).counters();
            r.digest.counters(c);
            r.flushes += c.flushes;
            r.replays += c.flush_replays;
        }
        r.fabric_accesses += report.fabric.fabric_accesses;
        r.conflicts += report.fabric.conflicts;
        r.stall_cycles += report.fabric.stall_cycles.iter().sum::<u64>();
        r.imbalance = r.imbalance.max(report.imbalance());
        r.digest.u64(r.conflicts);
        r.digest.u64(r.stall_cycles);

        r.builds.add_build(&b);
        if check {
            let verify = |o: &[&SimOutcome]| {
                oracle::check_sharded(
                    inp.app,
                    &b.program,
                    &b.design,
                    |m| install(inp.app, &inp.flows, m),
                    &inp.packets,
                    o,
                    &nic,
                )
            };
            verify(&outs)?;
            if k == 0 {
                oracle::planted_divergence_caught(&outs, verify)?;
            }
        }
    }
    Ok(r)
}

pub fn run(args: &Args) -> Result<Measured, String> {
    let inputs = inputs(args.seed);
    let first = round(&inputs, &mut Tracer::new(false), &mut Yardstick::off(), true)?;
    // Peak memory over the first round: build, run and VM check of the
    // workload once (later rounds only repeat it).
    let peak_rss_mb = common::peak_rss_mb();
    let round = |tr: &mut Tracer, yard: &mut Yardstick| round(&inputs, tr, yard, false);

    if args.trace {
        let mut layers = Layers::default();
        let (r, tr) = measure::traced(args, first.digest, round, &mut layers)?;
        layers.merge(&r.builds);
        layers.set("ebpf.elf_load_s", tr.busy_s("ebpf.elf_load"));
        layers.set("core.lower_s", tr.busy_s("core.lower"));
        layers.set("hwsim.build_s", tr.busy_s("hwsim.build"));
        layers.set("shared.run_s", tr.busy_s("shared.run"));
        layers.set("hwsim.flushes_per_kpkt", r.flushes as f64 * 1000.0 / r.completed as f64);
        layers.set("hwsim.replay_frac", r.replays as f64 / r.completed as f64);
        layers.set("hwsim.rx_dropped", r.dropped as f64);
        layers.set("shared.conflict_rate", r.conflicts as f64 / r.fabric_accesses.max(1) as f64);
        layers.set("shared.stall_cycles", r.stall_cycles as f64);
        layers.set("shared.imbalance", r.imbalance);
        serve::probe_layers(&APPS, args.seed, &mut layers)?;
        return Ok(Measured {
            attempted: first.offered,
            failed: first.dropped,
            e2e: EndToEnd::default(),
            layers,
        });
    }

    let rounds = measure::rounds(args, first.digest, round)?;
    let mut lat = first.latencies.clone();
    lat.sort_unstable();
    common::check_varies("hw_pkt_lat_cycles", &lat)?;
    let ops = serve::probe(&APPS, args.seed)?;
    let attempted = first.offered + ops.attempted;
    let failed = first.dropped + ops.failed;
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
