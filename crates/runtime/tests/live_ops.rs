//! Acceptance differentials: the evaluation applications stay
//! bit-equivalent to the sequential reference while the host mutates
//! their maps mid-stream — including writes landing inside open RAW
//! hazard windows (back-to-back same-flow packets with a 1-cycle
//! control channel).

use ehdl_core::Compiler;
use ehdl_ebpf::maps::MapStore;
use ehdl_ebpf::Program;
use ehdl_hwsim::{check, CtrlOps, CtrlOptions, Engine, HostOp, MergeStrategy, Scenario};
use ehdl_net::FiveTuple;
use ehdl_programs::{dnat, simple_firewall, suricata};
use ehdl_runtime::Runtime;
use ehdl_traffic::{
    build_flow_packet, interleave_ops, ControlOpGen, FlowSet, OpMix, Popularity, ScheduleItem,
};

const SRC_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x01];
const DST_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x02];

fn packets_for(flows: &FlowSet, n: usize, pop: Popularity, seed: u64) -> Vec<Vec<u8>> {
    let mut wl = ehdl_traffic::Workload::new(flows.clone(), pop, 64, seed);
    wl.packets(n)
}

fn key_pool(flows: &FlowSet, take: usize) -> Vec<Vec<u8>> {
    flows.flows().iter().take(take).map(|f| f.to_key().to_vec()).collect()
}

/// A packet trace plus `(at, op)` host ops: each op is submitted once
/// `at` packets have arrived.
type Schedule = (Vec<Vec<u8>>, Vec<(usize, HostOp)>);

fn to_schedule(items: Vec<ScheduleItem>) -> Schedule {
    let (mut packets, mut ops) = (Vec::new(), Vec::new());
    for item in items {
        match item {
            ScheduleItem::Packet(p) => packets.push(p),
            ScheduleItem::Op(op) => ops.push((packets.len(), ehdl_runtime::to_host_op(&op))),
        }
    }
    (packets, ops)
}

/// Compile `program` and check it against the sequential reference while
/// the schedule's ops run live over a control channel (their coalesced
/// rewrite if `coalesce`), panicking on any divergence.
fn assert_clean_live(
    program: &Program,
    (packets, ops): &Schedule,
    setup: &dyn Fn(&mut MapStore),
    merges: &[(u32, MergeStrategy)],
    options: CtrlOptions,
    coalesce: bool,
) {
    let design = Compiler::new().compile(program).expect("app compiles");
    let ctrl = CtrlOps { ops, options, coalesce };
    check(&Scenario {
        setup,
        merges,
        engine: Engine::Pipeline { ctrl: Some(ctrl), faults: None },
        ..Scenario::new(program, &design, packets)
    })
    .assert_clean();
}

#[test]
fn firewall_equivalent_under_live_ops() {
    // Full op mix (installs, expiries, reads, dumps) on the session table
    // the packets themselves are opening sessions in. Hot keys make host
    // writes collide with in-flight same-key packets.
    let flows = FlowSet::udp(64, 21);
    let packets = packets_for(&flows, 400, Popularity::Hot { p_hot: 0.6 }, 22);
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        key_pool(&flows, 16),
        8,
        OpMix::default(),
        Popularity::Hot { p_hot: 0.7 },
        23,
    );
    let schedule = to_schedule(interleave_ops(packets, &mut gen, 0.2, 24));
    assert_clean_live(
        &simple_firewall::program(),
        &schedule,
        &|_| {},
        &[],
        CtrlOptions { latency_cycles: 1, queue_depth: 256 },
        false,
    );
}

#[test]
fn firewall_equivalent_with_slow_channel() {
    // Realistic PCIe latency: ops arrive hundreds of cycles after
    // submission but must still take effect exactly at their barrier.
    let flows = FlowSet::udp(32, 31);
    let packets = packets_for(&flows, 300, Popularity::Uniform, 32);
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        key_pool(&flows, 32),
        8,
        OpMix::default(),
        Popularity::Uniform,
        33,
    );
    let schedule = to_schedule(interleave_ops(packets, &mut gen, 0.1, 34));
    assert_clean_live(
        &simple_firewall::program(),
        &schedule,
        &|_| {},
        &[],
        CtrlOptions { latency_cycles: 300, queue_depth: 256 },
        false,
    );
}

#[test]
fn dnat_equivalent_under_live_ops() {
    // Every flow gets a pre-installed binding so translation never
    // consults the (legitimately divergent) port allocator; host ops
    // then rewrite and read those live bindings mid-stream. No deletes:
    // unbinding would re-enter the allocator path.
    let flows = FlowSet::udp(48, 41);
    let packets = packets_for(&flows, 400, Popularity::Hot { p_hot: 0.5 }, 42);
    let mut gen = ControlOpGen::new(
        dnat::CONN_MAP,
        key_pool(&flows, 12),
        8,
        OpMix { lookup: 0.4, update: 0.5, delete: 0.0, dump: 0.1 },
        Popularity::Hot { p_hot: 0.7 },
        43,
    );
    let schedule = to_schedule(interleave_ops(packets, &mut gen, 0.2, 44));
    assert_clean_live(
        &dnat::program(),
        &schedule,
        &|maps| {
            let conn = maps.get_mut(dnat::CONN_MAP).expect("conn map");
            for (i, f) in flows.flows().iter().enumerate() {
                let mut v = [0u8; 8];
                v[..4].copy_from_slice(&dnat::NAT_ADDR);
                v[4..6].copy_from_slice(&(dnat::PORT_BASE + i as u16).to_be_bytes());
                conn.update(&f.to_key(), &v, Default::default()).expect("binding install");
            }
        },
        &[(dnat::PORT_ALLOC_MAP, MergeStrategy::Ignore)],
        CtrlOptions { latency_cycles: 1, queue_depth: 256 },
        false,
    );
}

#[test]
fn suricata_equivalent_under_live_ops() {
    // Rule installs and removals race the IDS's own per-rule hit
    // counting (an in-pipeline read-modify-write on the same map).
    let flows = FlowSet::tcp(64, 51);
    let packets = packets_for(&flows, 400, Popularity::Hot { p_hot: 0.6 }, 52);
    let mut gen = ControlOpGen::new(
        suricata::ACL_MAP,
        key_pool(&flows, 16),
        8,
        OpMix::default(),
        Popularity::Hot { p_hot: 0.7 },
        53,
    );
    let schedule = to_schedule(interleave_ops(packets, &mut gen, 0.2, 54));
    assert_clean_live(
        &suricata::program(),
        &schedule,
        &|maps| {
            for f in flows.flows().iter().take(24) {
                suricata::install_rule(maps, f);
            }
        },
        &[],
        CtrlOptions { latency_cycles: 1, queue_depth: 256 },
        false,
    );
}

#[test]
fn runtime_schedule_matches_direct_differential_state() {
    // Drive the same schedule through the Runtime facade and check the
    // per-map hit telemetry and completion accounting line up.
    let flows = FlowSet::udp(16, 61);
    let packets = packets_for(&flows, 200, Popularity::Uniform, 62);
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        key_pool(&flows, 16),
        8,
        OpMix::default(),
        Popularity::Uniform,
        63,
    );
    let schedule = interleave_ops(packets, &mut gen, 0.15, 64);
    let nops = schedule.iter().filter(|i| matches!(i, ScheduleItem::Op(_))).count() as u64;

    let design =
        ehdl_core::Compiler::new().compile(&simple_firewall::program()).expect("firewall compiles");
    let mut rt = Runtime::new(
        &design,
        ehdl_runtime::RuntimeOptions {
            ctrl: CtrlOptions { latency_cycles: 8, queue_depth: 1024 },
            ..Default::default()
        },
    );
    let report = rt.run_schedule(&schedule);
    assert_eq!(report.packets, 200);
    assert_eq!(report.lost, 0);
    assert_eq!(report.ops_submitted, nops);
    assert!(report.ops_rejected.is_empty());
    assert_eq!(report.outcomes.len(), 200);
    assert_eq!(report.completions.len(), nops as usize);

    let stats = rt.stats();
    assert_eq!(stats.counters.completed, 200);
    assert_eq!(stats.counters.host_ops, nops);
    assert_eq!(stats.ctrl.submitted, nops);
    assert!(stats.maps[0].lookups > 0, "sessions map saw traffic");
    assert!(stats.stages.iter().any(|s| s.utilization > 0.0));
    // The differential for this flow already ran above; here we only
    // check the facade preserved basic conservation.
    let tuple = FiveTuple::parse(&build_flow_packet(&flows.flows()[0], SRC_MAC, DST_MAC, 64));
    assert!(tuple.is_some(), "generated packets stay parseable");
}

#[test]
fn firewall_coalesced_schedule_matches_sequential_oracle() {
    // The serving layer's batching rewrite (same-key update collapse +
    // lookup sharing over one dump) must be invisible: the pipeline runs
    // the coalesced schedule, the VM oracle runs the original, and every
    // packet outcome, per-op result and final map byte must agree.
    let flows = FlowSet::udp(64, 71);
    let packets = packets_for(&flows, 300, Popularity::Hot { p_hot: 0.6 }, 72);
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        key_pool(&flows, 8), // tiny hot key pool => real adjacent same-key ops
        8,
        OpMix { lookup: 0.45, update: 0.45, delete: 0.05, dump: 0.05 },
        Popularity::Hot { p_hot: 0.8 },
        73,
    );
    let schedule = to_schedule(interleave_ops(packets, &mut gen, 0.5, 74));
    assert_clean_live(
        &simple_firewall::program(),
        &schedule,
        &|_| {},
        &[],
        CtrlOptions { latency_cycles: 1, queue_depth: 256 },
        true,
    );
}

#[test]
fn coalesced_trains_actually_collapse_and_stay_equivalent() {
    // Hand-built hot-key storm: long op trains of same-key updates and
    // repeated lookups between packet bursts. The rewrite must shrink the
    // schedule (this is what the reactor ships to the device) and the
    // differential must still be clean.
    use ehdl_hwsim::{coalesce_ops, MapShape};

    let flows = FlowSet::udp(8, 81);
    let packets = packets_for(&flows, 60, Popularity::Uniform, 82);
    let keys = key_pool(&flows, 4);
    let mut ops = Vec::new();
    for i in (0..packets.len()).step_by(3) {
        for r in 0..4u64 {
            let op = HostOp::Update {
                map: simple_firewall::SESSIONS_MAP,
                key: keys[i / 3 % keys.len()].clone(),
                value: (i as u64 * 10 + r).to_le_bytes().to_vec(),
                flags: Default::default(),
            };
            ops.push((i, op));
        }
        for r in 0..4usize {
            let k = keys[(i / 3 + r) % keys.len()].clone();
            ops.push((i, HostOp::Lookup { map: simple_firewall::SESSIONS_MAP, key: k }));
        }
    }

    // The rewrite itself must buy something on this shape.
    let first_train: Vec<HostOp> = ops.iter().take(8).map(|(_, op)| op.clone()).collect();
    let (_, stats) = coalesce_ops(&first_train, |_| Some(MapShape { key_size: 13, value_size: 8 }));
    assert!(stats.ops_out < stats.ops_in, "hot-key train must coalesce: {stats:?}");
    assert!(stats.updates_collapsed > 0 || stats.lookups_shared > 0);

    assert_clean_live(
        &simple_firewall::program(),
        &(packets, ops),
        &|_| {},
        &[],
        CtrlOptions { latency_cycles: 16, queue_depth: 256 },
        true,
    );
}
