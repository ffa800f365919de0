//! Determinism and parallel-equivalence tests for the evaluation harness.
//!
//! The simulator's hot loop recycles checkpoint boxes, scratch write sets
//! and key buffers, and the evaluation paths fan out across threads
//! (`MultiNic::run`, `diff::check`). None of that may change a
//! single observable bit: repeated runs must produce identical
//! [`SimOutcome`]s, [`SimCounters`] and map contents, and the threaded
//! paths must match their sequential lockstep reference exactly.

use ehdl::core::Compiler;
use ehdl::ebpf::maps::MapStore;
use ehdl::ebpf::vm::XdpAction;
use ehdl::hwsim::diff::{check, Scenario};
use ehdl::hwsim::{
    rss_flow_hash, MultiNic, PipelineSim, ShardedNic, SharedMapOptions, SimCounters, SimOptions,
    Steering,
};
use ehdl::net::{IPPROTO_TCP, IPPROTO_UDP};
use ehdl::programs::App;
use ehdl_bench::{eval_packets, setup_app};

const TRACE_PACKETS: usize = 1_000;

fn opts() -> SimOptions {
    SimOptions { freeze_time_ns: Some(1000), ..Default::default() }
}

/// One retired packet: (seq, action, redirect ifindex, bytes, latency).
type OutcomeRow = (u64, XdpAction, Option<u32>, Vec<u8>, u64);
/// Sorted (key, value) entries of one map.
type MapEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// Every observable of one simulated run, in comparable form.
#[derive(Debug, PartialEq)]
struct RunRecord {
    outcomes: Vec<OutcomeRow>,
    counters: SimCounters,
    cycles: u64,
    maps: Vec<(u32, MapEntries)>,
}

fn run_once(app: App, packets: &[Vec<u8>]) -> RunRecord {
    run_once_on(app, packets, true)
}

/// One run of `app` on the fused (`fuse`) or unfused plan.
fn run_once_on(app: App, packets: &[Vec<u8>], fuse: bool) -> RunRecord {
    let design = Compiler::new().compile(&app.program()).expect("app compiles");
    let mut sim = PipelineSim::with_options(&design, SimOptions { fuse, ..opts() });
    setup_app(app, sim.maps_mut());
    for p in packets {
        sim.enqueue(p.clone());
    }
    sim.settle(50_000_000);
    let outcomes = sim
        .drain()
        .into_iter()
        .map(|o| (o.seq, o.action, o.redirect_ifindex, o.packet, o.latency_cycles))
        .collect();
    RunRecord {
        outcomes,
        counters: *sim.counters(),
        cycles: sim.cycle(),
        maps: sorted_maps(sim.maps()),
    }
}

/// Every map of `store` with its entries in sorted key order, so the
/// record (and its digest) does not depend on hash-table layout.
fn sorted_maps(store: &MapStore) -> Vec<(u32, MapEntries)> {
    store
        .iter()
        .map(|m| {
            let mut entries: Vec<_> = m.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
            entries.sort();
            (m.def().id, entries)
        })
        .collect()
}

/// Two runs of the same app over the same 1k-packet trace — including the
/// flush/replay machinery with its recycled checkpoints — agree on every
/// outcome byte, every counter, every map entry and the final cycle count.
#[test]
fn repeated_runs_are_bit_identical() {
    for app in App::ALL {
        let packets = eval_packets(app, TRACE_PACKETS);
        let first = run_once(app, &packets);
        let second = run_once(app, &packets);
        assert_eq!(first, second, "{} runs must be bit-identical", app.name());
    }
}

/// The threaded differential harness sees no divergence from the
/// sequential reference interpreter on the evaluation traces. (DNAT is
/// excluded here: its port-allocator skew under racing flows is expected
/// and covered by its own dedicated test.)
#[test]
fn diff_harness_clean_on_eval_traces() {
    for app in [App::Firewall, App::Router, App::Tunnel, App::Suricata] {
        let program = app.program();
        let design = Compiler::new().compile(&program).expect("app compiles");
        let packets = eval_packets(app, TRACE_PACKETS);
        let setup = |m: &mut MapStore| setup_app(app, m);
        let divs = check(&Scenario { setup: &setup, ..Scenario::new(&program, &design, &packets) })
            .divergences;
        assert!(divs.is_empty(), "{}: {} divergences, first: {}", app.name(), divs.len(), divs[0]);
    }
}

/// `MultiNic::run` executes each pipeline on its own thread by replaying
/// the global arrival schedule; the result must equal stepping all
/// pipelines in lockstep on one thread.
#[test]
fn parallel_multinic_matches_lockstep_reference() {
    let designs = vec![
        Compiler::new().compile(&App::Firewall.program()).unwrap(),
        Compiler::new().compile(&App::Suricata.program()).unwrap(),
    ];
    let steering =
        Steering::ByIpProto { rules: vec![(IPPROTO_UDP, 0), (IPPROTO_TCP, 1)], default: 0 };
    let mut packets = eval_packets(App::Firewall, 400);
    packets.extend(eval_packets(App::Suricata, 400));

    // Threaded run.
    let mut nic = MultiNic::new(&designs, steering.clone(), opts());
    setup_app(App::Firewall, nic.sim_mut(0).maps_mut());
    setup_app(App::Suricata, nic.sim_mut(1).maps_mut());
    let report = nic.run(packets.clone());

    // Sequential lockstep reference.
    let mut sims: Vec<PipelineSim> =
        designs.iter().map(|d| PipelineSim::with_options(d, opts())).collect();
    setup_app(App::Firewall, sims[0].maps_mut());
    setup_app(App::Suricata, sims[1].maps_mut());
    let compiled = steering.compile();
    let mut steered = vec![0u64; 2];
    for pkt in &packets {
        let t = compiled.steer(pkt);
        steered[t] += 1;
        sims[t].enqueue(pkt.clone());
        for sim in &mut sims {
            sim.step();
        }
    }
    for sim in &mut sims {
        sim.settle(10_000_000);
    }

    assert_eq!(report.steered, steered);
    let mut reference = Vec::new();
    for (i, sim) in sims.iter_mut().enumerate() {
        for o in sim.drain() {
            reference.push((i, o.seq, o.action, o.packet, o.latency_cycles));
        }
    }
    let threaded: Vec<_> = report
        .outcomes
        .into_iter()
        .map(|(i, o)| (i, o.seq, o.action, o.packet, o.latency_cycles))
        .collect();
    assert_eq!(threaded, reference);
}

/// The compiled steering structures agree with a straight rule scan for
/// every byte value, including first-match priority on duplicate rules.
#[test]
fn compiled_steering_matches_rule_scan() {
    let by_proto =
        Steering::ByIpProto { rules: vec![(17, 1), (6, 2), (17, 3), (1, 0)], default: 4 };
    let compiled = by_proto.compile();
    for proto in 0..=255u8 {
        let mut pkt = vec![0u8; 64];
        pkt[23] = proto;
        let expected = match proto {
            17 => 1, // first rule wins, not (17, 3)
            6 => 2,
            1 => 0,
            _ => 4,
        };
        assert_eq!(compiled.steer(&pkt), expected, "proto {proto}");
    }

    let by_ether = Steering::ByEtherType {
        rules: vec![(0x0800, 0), (0x86dd, 1), (0x0800, 2), (0x0806, 3)],
        default: 5,
    };
    let compiled = by_ether.compile();
    for ty in [0x0800u16, 0x0806, 0x86dd, 0x1234, 0x0000, 0xffff] {
        let mut pkt = vec![0u8; 64];
        pkt[12..14].copy_from_slice(&ty.to_be_bytes());
        let expected = match ty {
            0x0800 => 0, // first rule wins, not (0x0800, 2)
            0x86dd => 1,
            0x0806 => 3,
            _ => 5,
        };
        assert_eq!(compiled.steer(&pkt), expected, "ethertype {ty:#06x}");
    }
    // Short packets steer to the default-equivalent entry (type 0).
    assert_eq!(compiled.steer(&[0u8; 4]), 5);
}

/// Swap an IPv4 packet's direction in place: source/destination address
/// and L4 ports exchange, everything else stays (Ether + option-less
/// IPv4 + UDP/TCP layout, as the evaluation traces use).
fn reverse_direction(pkt: &[u8]) -> Vec<u8> {
    let mut rev = pkt.to_vec();
    for i in 0..4 {
        rev.swap(26 + i, 30 + i);
    }
    for i in 0..2 {
        rev.swap(34 + i, 36 + i);
    }
    rev
}

/// RSS flow steering is a pure function of `(packet, seed)`: the same
/// seed and trace give the identical shard assignment on every compile
/// and every run, the symmetric hash maps both directions of a flow to
/// the same replica, and the seed actually matters.
#[test]
fn rss_assignment_is_seeded_symmetric_and_replayable() {
    let packets = eval_packets(App::Firewall, TRACE_PACKETS);
    let steering = Steering::RssFlowHash { replicas: (0..4).collect(), seed: 99 };
    let a = steering.compile();
    let b = steering.compile();
    let mut reseeded_differs = false;
    let reseeded = Steering::RssFlowHash { replicas: (0..4).collect(), seed: 100 }.compile();
    for pkt in &packets {
        let shard = a.steer(pkt);
        assert_eq!(shard, b.steer(pkt), "assignment must survive recompilation");
        assert_eq!(
            shard,
            (rss_flow_hash(pkt, 99) % 4) as usize,
            "compiled steering must equal the raw hash"
        );
        assert_eq!(
            shard,
            a.steer(&reverse_direction(pkt)),
            "both directions of a flow must land on the same replica"
        );
        reseeded_differs |= reseeded.steer(pkt) != shard;
    }
    assert!(reseeded_differs, "a different seed must move at least one flow");
}

/// A full sharded run — RSS steering, four replicas, the banked fabric
/// with a shared map and event logging — replays bit-identically: same
/// per-replica steering, same outcome bytes in the same global order,
/// same cycle count, fabric telemetry, event history and canonical
/// shared-map state. The realized per-packet assignment also matches the
/// raw hash prediction.
#[test]
fn sharded_runs_replay_bit_identically() {
    use ehdl::programs::simple_firewall;

    let design = Compiler::new().compile(&App::Firewall.program()).expect("compiles");
    let packets = eval_packets(App::Firewall, TRACE_PACKETS);
    let seed = 7;
    let run = || {
        let mut nic = ShardedNic::new(
            &design,
            4,
            seed,
            opts(),
            SharedMapOptions {
                shared_maps: vec![simple_firewall::STATS_MAP],
                log_events: true,
                ..Default::default()
            },
        );
        nic.setup_maps(|m| setup_app(App::Firewall, m));
        let report = nic.run(packets.clone());
        let outcomes: Vec<(usize, u64, OutcomeRow)> = report
            .outcomes
            .iter()
            .map(|(r, g, o)| {
                (*r, *g, (o.seq, o.action, o.redirect_ifindex, o.packet.clone(), o.latency_cycles))
            })
            .collect();
        let mut stats: MapEntries = nic
            .shared_store()
            .get(simple_firewall::STATS_MAP)
            .expect("stats map")
            .iter()
            .map(|(_, k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        stats.sort();
        (
            report.steered.clone(),
            report.completed.clone(),
            report.dropped.clone(),
            report.cycles,
            outcomes,
            report.fabric.clone(),
            report.events.clone(),
            stats,
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "sharded runs must be bit-identical");

    // The realized assignment is exactly the hash prediction.
    let compiled = Steering::RssFlowHash { replicas: (0..4).collect(), seed }.compile();
    assert_eq!(first.4.len(), packets.len(), "every packet completes");
    for (replica, global, _) in &first.4 {
        assert_eq!(
            *replica,
            compiled.steer(&packets[*global as usize]),
            "packet {global} must run on its RSS-assigned replica"
        );
    }
}

/// One seeded host-op/packet interleaving through the runtime, on the
/// fused or unfused plan, in comparable form.
fn host_ops_run(
    fuse: bool,
) -> (Vec<OutcomeRow>, Vec<ehdl::hwsim::HostCompletion>, SimCounters, u64, MapEntries) {
    use ehdl::hwsim::CtrlOptions;
    use ehdl::programs::simple_firewall;
    use ehdl::runtime::{Runtime, RuntimeOptions};
    use ehdl::traffic::{interleave_ops, ControlOpGen, FlowSet, OpMix, Popularity, Workload};

    let flows = FlowSet::udp(32, 81);
    let packets =
        Workload::new(flows.clone(), Popularity::Hot { p_hot: 0.6 }, 64, 82).packets(TRACE_PACKETS);
    let keys = flows.flows().iter().map(|f| f.to_key().to_vec()).collect();
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        keys,
        8,
        OpMix::default(),
        Popularity::Hot { p_hot: 0.7 },
        83,
    );
    let schedule = interleave_ops(packets, &mut gen, 0.1, 84);

    let design = Compiler::new().compile(&simple_firewall::program()).expect("compiles");
    let mut rt = Runtime::new(
        &design,
        RuntimeOptions {
            sim: SimOptions { fuse, ..opts() },
            ctrl: CtrlOptions { latency_cycles: 2, queue_depth: 1024 },
            ..Default::default()
        },
    );
    let report = rt.run_schedule(&schedule);
    let outcomes: Vec<OutcomeRow> = report
        .outcomes
        .into_iter()
        .map(|o| (o.seq, o.action, o.redirect_ifindex, o.packet, o.latency_cycles))
        .collect();
    let mut sessions: MapEntries = rt
        .maps()
        .get(simple_firewall::SESSIONS_MAP)
        .expect("sessions map")
        .iter()
        .map(|(_, k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    sessions.sort();
    (outcomes, report.completions, *rt.sim_mut().counters(), rt.total_cycles(), sessions)
}

/// A seeded interleaving of host control ops and packets through the
/// runtime — flushes from writes inside RAW windows included — replays
/// bit-identically: same outcomes, same completions (ids, payloads,
/// apply cycles), same counters, same final map state.
#[test]
fn interleaved_host_ops_are_bit_identical() {
    let first = host_ops_run(true);
    let second = host_ops_run(true);
    assert!(
        first.1.iter().any(|c| c.flushed_readers > 0) || first.2.host_op_flushes > 0,
        "trace should exercise host-write flushes to make the check meaningful"
    );
    assert_eq!(first, second, "host-op interleaving must replay bit-identically");
}

/// The fused plan locksteps with the unfused one on every evaluation
/// app: same outcome bytes, same counters, same final map state, same
/// cycle count, over the full 1k-packet traces with their flush/replay
/// traffic.
#[test]
fn compiled_backend_locksteps_with_interpreter_on_all_apps() {
    for app in App::ALL {
        let packets = eval_packets(app, TRACE_PACKETS);
        let unfused = run_once_on(app, &packets, false);
        let fused = run_once_on(app, &packets, true);
        assert_eq!(unfused, fused, "{}: plans must be bit-identical", app.name());
    }
}

/// The same seeded host-op interleaving — control-channel fences, forced
/// checkpoints, host-write flushes — is bit-identical across the fused
/// and unfused plans, completions and apply cycles included.
#[test]
fn host_op_interleaving_locksteps_across_backends() {
    let unfused = host_ops_run(false);
    let fused = host_ops_run(true);
    assert_eq!(unfused, fused, "host-op schedule must be plan-independent");
}

/// One seeded fault campaign (transients, stuck-ats, hangs, watchdog
/// recoveries) over the firewall trace, on the fused or unfused plan.
fn fault_run(
    fuse: bool,
) -> (Vec<OutcomeRow>, SimCounters, u64, ehdl::hwsim::FaultStats, Vec<(u32, MapEntries)>) {
    use ehdl::hwsim::FaultConfig;

    let app = App::Firewall;
    let design = Compiler::new().compile(&app.program()).expect("app compiles");
    let mut sim = PipelineSim::with_options(&design, SimOptions { fuse, ..opts() });
    setup_app(app, sim.maps_mut());
    sim.attach_faults(FaultConfig {
        seed: 7,
        rate: 0.01,
        stuck_fraction: 0.2,
        hang_fraction: 0.1,
        watchdog_timeout: 256,
        ..Default::default()
    });
    for p in eval_packets(app, TRACE_PACKETS) {
        sim.enqueue(p);
    }
    sim.settle(50_000_000);
    let outcomes: Vec<OutcomeRow> = sim
        .drain()
        .into_iter()
        .map(|o| (o.seq, o.action, o.redirect_ifindex, o.packet, o.latency_cycles))
        .collect();
    let stats = *sim.fault_engine().expect("engine attached").stats();
    (outcomes, *sim.counters(), sim.cycle(), stats, sorted_maps(sim.maps()))
}

/// A seeded fault campaign resolves identically under the fused and
/// unfused plans: same packet outcomes, same counters and map state,
/// same fault statistics.
#[test]
fn fault_campaign_locksteps_across_backends() {
    let unfused = fault_run(false);
    let fused = fault_run(true);
    assert!(unfused.3.injected > 0, "campaign must actually inject faults");
    assert_eq!(unfused, fused, "fault campaign must be plan-independent");
}

/// One RSS-sharded run of `app` on two replicas, with the shared-map set,
/// banks and merges taken from the design's verified shard plan: the
/// full report plus every replica's counters, cycle and private maps, and
/// the canonical shared store.
fn sharded_run(app: App) -> String {
    let design = Compiler::new().compile(&app.program()).expect("app compiles");
    let mut nic = ShardedNic::from_shard_plan(&design, 2, 7, opts()).expect("shard plan is sound");
    nic.setup_maps(|m| setup_app(app, m));
    let report = nic.run(eval_packets(app, TRACE_PACKETS));
    let replicas: Vec<_> = (0..nic.replicas())
        .map(|r| {
            let sim = nic.sim(r);
            (*sim.counters(), sim.cycle(), sorted_maps(sim.maps()))
        })
        .collect();
    format!("{report:?} {replicas:?} {:?}", sorted_maps(nic.shared_store()))
}

/// 64-bit FNV-1a over the `Debug` rendering of a run record. Every
/// record sorts its map entries by key, so the digest is a pure function
/// of the simulated behavior.
fn digest(record: &impl std::fmt::Debug) -> u64 {
    format!("{record:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Golden corpus: the default (fused) plan reproduces, bit for bit, the
/// outcomes, counters, final cycle and final maps recorded for the five
/// evaluation apps, the host-op interleaving, the fault campaign and the
/// sharded Firewall/DNAT runs. A change that is meant to preserve
/// simulated behavior must leave every digest untouched.
#[test]
fn golden_digests_reproduce() {
    const APPS: [u64; 5] = [
        0x2163_a110_5c5a_aa69, // Firewall
        0xceaa_2bf3_62a9_91e2, // Router
        0x2072_c138_fc4d_ec4c, // Tunnel
        0x6dfa_748b_ba5f_5854, // DNAT
        0x5064_654c_a6e6_1089, // Suricata
    ];
    const HOST_OPS: u64 = 0xc61d_ff31_2165_6a01;
    const FAULTS: u64 = 0xd40b_f0d6_8e8e_bd30;
    const SHARDED: [u64; 2] = [
        0x6ff1_b750_1e17_fa7a, // Firewall
        0x1df4_3e46_f228_401b, // DNAT
    ];
    let mut got = Vec::new();
    for (app, want) in App::ALL.into_iter().zip(APPS) {
        let run = run_once(app, &eval_packets(app, TRACE_PACKETS));
        got.push((app.name(), digest(&run), want));
    }
    got.push(("host ops", digest(&host_ops_run(true)), HOST_OPS));
    got.push(("fault campaign", digest(&fault_run(true)), FAULTS));
    for (app, want) in [App::Firewall, App::Dnat].into_iter().zip(SHARDED) {
        got.push((app.name(), digest(&sharded_run(app)), want));
    }
    let diverged: Vec<_> = got.iter().filter(|(_, have, want)| have != want).collect();
    assert!(diverged.is_empty(), "golden digests diverged (name, got, want): {diverged:#x?}");
}

/// Lowering is total: a helper with no specialization, spliced into a
/// compiled firewall (the verifier rejects unknown helpers at load time,
/// so this models a future compiler feature), lowers to
/// [`FusedOp::Interp`] in a delta stage, and the fused run matches the
/// unfused one bit for bit.
#[test]
fn unspecialized_helper_runs_through_the_generic_path() {
    use ehdl::core::ir::HwInsn;
    use ehdl::core::{FusedOp, LoweredPlan};
    use ehdl::ebpf::helpers::BPF_FIB_LOOKUP;
    use ehdl::ebpf::insn::Instruction;

    let mut design = Compiler::new().compile(&App::Firewall.program()).expect("compiles");
    design.stages[0].ops[0].insn = HwInsn::Simple(Instruction::Call { helper: BPF_FIB_LOOKUP });
    let Ok(lowered) = LoweredPlan::try_lower(&design);
    assert_eq!(lowered.stage_fused(0)[0], FusedOp::Interp);
    assert!(lowered.stage(0).delta, "an Interp op demotes its stage to delta");

    let run = |fuse: bool| {
        let mut sim = PipelineSim::with_options(&design, SimOptions { fuse, ..opts() });
        setup_app(App::Firewall, sim.maps_mut());
        for p in eval_packets(App::Firewall, 200) {
            sim.enqueue(p);
        }
        sim.settle(10_000_000);
        let outcomes: Vec<OutcomeRow> = sim
            .drain()
            .into_iter()
            .map(|o| (o.seq, o.action, o.redirect_ifindex, o.packet, o.latency_cycles))
            .collect();
        (outcomes, *sim.counters(), sim.cycle())
    };
    let fused = run(true);
    assert_eq!(fused.0.len(), 200, "every packet retires");
    assert_eq!(fused, run(false), "fused run must match the unfused plan bit for bit");
}
