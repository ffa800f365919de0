//! Differential tests: every evaluation program's compiled pipeline must
//! behave exactly like the reference VM on realistic traffic — including
//! under data hazards (same-flow bursts) where the Flush Evaluation Blocks
//! and write buffers do their work.

use ehdl::core::{Compiler, CompilerOptions};
use ehdl::ebpf::maps::MapStore;
use ehdl::ebpf::vm::XdpAction;
use ehdl::ebpf::Program;
use ehdl::hwsim::diff::{check, Scenario};
use ehdl::hwsim::{PipelineSim, SimOptions};
use ehdl::net::{FiveTuple, IPPROTO_UDP};
use ehdl::programs::{dnat, leaky_bucket, router, simple_firewall, suricata, toy_counter, tunnel};
use ehdl::traffic::{build_flow_packet, FlowSet, Popularity, Workload};

/// Compile `program` with `options` and check it on `packets` after
/// `setup`, panicking on any divergence from the reference VM.
fn assert_clean(
    program: &Program,
    options: CompilerOptions,
    packets: &[Vec<u8>],
    setup: impl Fn(&mut MapStore),
) {
    let design = Compiler::with_options(options)
        .compile(program)
        .unwrap_or_else(|e| panic!("compile {}: {e}", program.name));
    check(&Scenario { setup: &setup, ..Scenario::new(program, &design, packets) }).assert_clean();
}

fn mixed_traffic(n: usize, seed: u64) -> Vec<Vec<u8>> {
    // Mostly UDP flows, plus a sprinkle of short/odd packets.
    let mut wl = Workload::new(FlowSet::udp(32, seed), Popularity::Zipf { alpha: 1.0 }, 64, seed);
    let mut out: Vec<Vec<u8>> = wl.packets(n);
    out.push(vec![0; 12]); // runt
    let mut arp = vec![0u8; 64];
    arp[12] = 0x08;
    arp[13] = 0x06;
    out.push(arp);
    out
}

#[test]
fn toy_counter_equivalent() {
    assert_clean(
        &toy_counter::program(),
        CompilerOptions::default(),
        &mixed_traffic(200, 11),
        |_| {},
    );
}

#[test]
fn firewall_equivalent_including_same_flow_bursts() {
    // Zipf over few flows maximizes same-flow adjacency → FEB flushes.
    let mut packets = mixed_traffic(300, 22);
    // A burst of one flow back-to-back: the worst case for the session
    // table's lookup→update window.
    let f = FiveTuple {
        saddr: [10, 0, 0, 9],
        daddr: [192, 168, 1, 1],
        sport: 777,
        dport: 53,
        proto: IPPROTO_UDP,
    };
    for _ in 0..24 {
        packets.push(build_flow_packet(&f, [2; 6], [3; 6], 64));
    }
    assert_clean(&simple_firewall::program(), CompilerOptions::default(), &packets, |_| {});
}

#[test]
fn router_equivalent_with_host_routes() {
    let packets = mixed_traffic(250, 33);
    assert_clean(&router::program(), CompilerOptions::default(), &packets, |maps| {
        router::install_route(maps, [0, 0, 0, 0], 0, 1, [0xaa; 6], [0x02; 6]);
        router::install_route(maps, [192, 168, 0, 0], 16, 2, [0xbb; 6], [0x02; 6]);
        router::install_route(maps, [192, 168, 7, 0], 24, 3, [0xcc; 6], [0x02; 6]);
    });
}

#[test]
fn tunnel_equivalent_with_endpoints() {
    let flows = FlowSet::udp(16, 44);
    let mut packets: Vec<Vec<u8>> =
        Workload::new(flows.clone(), Popularity::Uniform, 96, 44).packets(200);
    packets.extend(mixed_traffic(20, 45));
    let endpoints: Vec<[u8; 4]> = flows.flows().iter().take(8).map(|f| f.daddr).collect();
    assert_clean(&tunnel::program(), CompilerOptions::default(), &packets, move |maps| {
        for (i, daddr) in endpoints.iter().enumerate() {
            tunnel::install_endpoint(
                maps,
                *daddr,
                [172, 16, 0, 1],
                [172, 16, (i as u8) + 1, 2],
                [0xaa, 0, 0, 0, 0, i as u8],
                [0xbb; 6],
            );
        }
    });
}

#[test]
fn dnat_equivalent_including_binding_races() {
    // New flows arriving back-to-back race on the connection table: the
    // second packet of a flow must not allocate a second binding. This is
    // exactly the DNAT hazard of Table 3 (L = 51).
    let mut packets = Vec::new();
    for flow_idx in 0..12u16 {
        let f = FiveTuple {
            saddr: [10, 0, 1, flow_idx as u8],
            daddr: [8, 8, 8, 8],
            sport: 1000 + flow_idx,
            dport: 53,
            proto: IPPROTO_UDP,
        };
        // Back-to-back packets of the same brand-new flow.
        for _ in 0..4 {
            packets.push(build_flow_packet(&f, [2; 6], [3; 6], 64));
        }
    }
    packets.extend(mixed_traffic(100, 55));

    // Under racing new flows, a discarded first attempt's fetch-and-add on
    // the port allocator is not replayed — the hardware simply skips a
    // port, exactly as the paper's design would. Absolute port numbers may
    // therefore differ from the sequential reference; what must hold is
    // the NAT *invariant*: same flow → same stable port, distinct flows →
    // distinct ports, all in range, all other bytes identical.
    let program = dnat::program();
    let design = Compiler::new().compile(&program).unwrap();

    let mut vm = ehdl::ebpf::vm::Vm::new(&program);
    vm.set_time_ns(1000);
    let mut vm_actions = Vec::new();
    let mut vm_bytes = Vec::new();
    for p in &packets {
        let mut b = p.clone();
        let out = vm.run(&mut b, 0).expect("vm runs dnat");
        vm_actions.push(out.action);
        vm_bytes.push(b);
    }

    let mut sim = PipelineSim::with_options(
        &design,
        SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
    );
    for p in &packets {
        sim.enqueue(p.clone());
    }
    sim.settle(10_000_000);
    let outs = sim.drain();
    assert_eq!(outs.len(), packets.len());

    let mut flow_port: std::collections::HashMap<FiveTuple, u16> = Default::default();
    for (i, o) in outs.iter().enumerate() {
        assert_eq!(o.action, vm_actions[i], "packet {i}");
        if o.action != XdpAction::Tx {
            continue;
        }
        // Everything but the translated source port (bytes 34-35) matches
        // the sequential reference byte-for-byte.
        assert_eq!(o.packet.len(), vm_bytes[i].len(), "packet {i}");
        for (off, (a, b)) in o.packet.iter().zip(&vm_bytes[i]).enumerate() {
            if off == 34 || off == 35 {
                continue;
            }
            assert_eq!(a, b, "packet {i} byte {off}");
        }
        let orig = FiveTuple::parse(&packets[i]).expect("udp traffic");
        let port = u16::from_be_bytes([o.packet[34], o.packet[35]]);
        assert!(
            (dnat::PORT_BASE..dnat::PORT_BASE + dnat::PORT_RANGE).contains(&port),
            "packet {i}: port {port} out of range"
        );
        match flow_port.entry(orig) {
            std::collections::hash_map::Entry::Occupied(e) => {
                assert_eq!(*e.get(), port, "packet {i}: flow changed port");
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(port);
            }
        }
    }
    // Distinct flows must hold distinct ports.
    let mut ports: Vec<u16> = flow_port.values().copied().collect();
    ports.sort_unstable();
    ports.dedup();
    assert_eq!(ports.len(), flow_port.len(), "port collision across flows");
    // Statistics must agree exactly (bindings happen once per flow in both).
    assert_eq!(dnat::read_stats(vm.maps()), dnat::read_stats(sim.maps()));
}

#[test]
fn suricata_equivalent_with_rules() {
    let flows = FlowSet::tcp(24, 66);
    let blocked: Vec<FiveTuple> = flows.flows().iter().take(6).copied().collect();
    let mut packets: Vec<Vec<u8>> =
        Workload::new(flows, Popularity::Zipf { alpha: 1.0 }, 64, 66).packets(300);
    packets.extend(mixed_traffic(30, 67));
    assert_clean(&suricata::program(), CompilerOptions::default(), &packets, move |maps| {
        for f in &blocked {
            suricata::install_rule(maps, f);
        }
    });
}

#[test]
fn leaky_bucket_equivalent_under_flush_pressure() {
    // All packets from a handful of flows: constant RAW hazards.
    let mut packets = Vec::new();
    for i in 0..150 {
        let f = FiveTuple {
            saddr: [10, 0, 0, (i % 3) as u8],
            daddr: [192, 168, 1, 1],
            sport: 5000 + (i % 3) as u16,
            dport: 443,
            proto: IPPROTO_UDP,
        };
        packets.push(build_flow_packet(&f, [2; 6], [3; 6], 64));
    }
    assert_clean(&leaky_bucket::program(), CompilerOptions::default(), &packets, |_| {});
}

#[test]
fn flushes_actually_happen_and_stay_transparent() {
    // Sanity: the leaky-bucket run above must actually exercise flushing.
    let program = leaky_bucket::program();
    let design = Compiler::new().compile(&program).unwrap();
    let mut sim = PipelineSim::with_options(
        &design,
        SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
    );
    let f = FiveTuple {
        saddr: [10, 0, 0, 1],
        daddr: [192, 168, 1, 1],
        sport: 5000,
        dport: 443,
        proto: IPPROTO_UDP,
    };
    for _ in 0..50 {
        sim.enqueue(build_flow_packet(&f, [2; 6], [3; 6], 64));
    }
    sim.settle(1_000_000);
    assert!(sim.counters().flushes > 0, "single-flow burst must flush");
    assert_eq!(sim.counters().completed, 50);
}

#[test]
fn ablation_options_stay_equivalent() {
    // Every ablation configuration must preserve semantics.
    let program = simple_firewall::program();
    let packets = mixed_traffic(120, 77);
    for opts in [
        CompilerOptions { fusion: false, ..Default::default() },
        CompilerOptions { parallelize: false, ..Default::default() },
        CompilerOptions { prune: false, ..Default::default() },
        CompilerOptions { elide_bounds_checks: false, ..Default::default() },
        CompilerOptions { dce: false, ..Default::default() },
        CompilerOptions { hazard_opt: false, ..Default::default() },
        CompilerOptions { frame_size: 32, ..Default::default() },
        CompilerOptions { frame_size: 128, ..Default::default() },
    ] {
        assert_clean(&program, opts, &packets, |_| {});
    }
}

#[test]
fn actions_distribute_as_expected() {
    // Cross-check a run's verdict mix against the VM, in aggregate.
    let program = simple_firewall::program();
    let design = Compiler::new().compile(&program).unwrap();
    let packets = mixed_traffic(200, 88);
    check(&Scenario::new(&program, &design, &packets)).assert_clean();
    let mut sim = PipelineSim::with_options(
        &design,
        SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
    );
    for p in &packets {
        sim.enqueue(p.clone());
    }
    sim.settle(10_000_000);
    let outs = sim.drain();
    let tx = outs.iter().filter(|o| o.action == XdpAction::Tx).count();
    let drop = outs.iter().filter(|o| o.action == XdpAction::Drop).count();
    assert!(tx > 0 && drop > 0, "traffic should exercise both verdicts");
}

#[test]
fn pruning_is_dynamically_sound_under_poisoning() {
    // Clobber every register and stack byte the pruning analysis declares
    // dead, at every stage boundary — the hardware equivalent of not
    // wiring them. Behaviour must be unchanged for every application.
    use ehdl::programs::{leaky_bucket, App};

    let poison =
        SimOptions { freeze_time_ns: Some(1000), poison_dead_state: true, ..Default::default() };
    for app in App::ALL {
        if app == App::Dnat {
            continue; // port numbers legitimately diverge under races
        }
        let program = app.program();
        let design = Compiler::new().compile(&program).unwrap();
        let packets = mixed_traffic(150, 99);
        let setup = |maps: &mut MapStore| {
            if app == App::Router {
                router::install_route(maps, [0, 0, 0, 0], 0, 1, [0xaa; 6], [0x02; 6]);
            }
            if app == App::Tunnel {
                tunnel::install_endpoint(maps, [192, 168, 0, 1], [1; 4], [2; 4], [3; 6], [4; 6]);
            }
            if app == App::Suricata {
                suricata::install_rule(
                    maps,
                    &FiveTuple { saddr: [9; 4], daddr: [8; 4], sport: 1, dport: 2, proto: 17 },
                );
            }
        };
        let divs = check(&Scenario {
            setup: &setup,
            options: poison,
            ..Scenario::new(&program, &design, &packets)
        })
        .divergences;
        assert!(divs.is_empty(), "{app} diverges under dead-state poisoning: {divs:?}");
    }
    // The leaky bucket exercises poisoning under flush replays as well.
    let program = leaky_bucket::program();
    let design = Compiler::new().compile(&program).unwrap();
    let mut packets = Vec::new();
    for i in 0..120 {
        let f = FiveTuple {
            saddr: [10, 0, 0, (i % 2) as u8],
            daddr: [192, 168, 1, 1],
            sport: 7000,
            dport: 443,
            proto: IPPROTO_UDP,
        };
        packets.push(build_flow_packet(&f, [2; 6], [3; 6], 64));
    }
    let divs = check(&Scenario { options: poison, ..Scenario::new(&program, &design, &packets) })
        .divergences;
    assert!(divs.is_empty(), "leaky bucket diverges under poisoning: {divs:?}");
}

#[test]
fn exotic_atomics_equivalent() {
    // xchg, cmpxchg and fetching and/or/xor/add on a map value, across
    // many packets — the atomic block must match the VM bit-for-bit.
    use ehdl::ebpf::asm::Asm;
    use ehdl::ebpf::helpers::BPF_MAP_LOOKUP_ELEM;
    use ehdl::ebpf::maps::{MapDef, MapKind};
    use ehdl::ebpf::opcode::{AluOp, AtomicOp, JmpOp, MemSize};

    let ops: [AtomicOp; 6] = [
        AtomicOp::Add { fetch: true },
        AtomicOp::Or { fetch: true },
        AtomicOp::And { fetch: true },
        AtomicOp::Xor { fetch: true },
        AtomicOp::Xchg,
        AtomicOp::Cmpxchg,
    ];
    for op in ops {
        let mut a = Asm::new();
        let miss = a.new_label();
        a.mov64_reg(6, 1);
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(1, 7);
        a.alu64_imm(AluOp::Add, 1, 16);
        a.jmp_reg(JmpOp::Jgt, 1, 8, miss);
        // key 0 -> counter cell
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -4, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, miss);
        a.mov64_reg(9, 0);
        // operand derived from the packet so packets differ
        a.load(MemSize::B, 2, 7, 5);
        a.alu64_imm(AluOp::Or, 2, 1);
        if op == AtomicOp::Cmpxchg {
            // r0 is the expected value for cmpxchg; vary it too.
            a.mov64_imm(0, 0);
        }
        a.atomic(op, MemSize::Dw, 9, 0, 2);
        // Fold the fetched old value into the verdict.
        let fetched = if op == AtomicOp::Cmpxchg { 0 } else { 2 };
        a.mov64_reg(0, fetched);
        a.alu64_imm(AluOp::And, 0, 1);
        a.alu64_imm(AluOp::Add, 0, 2);
        a.exit();
        a.bind(miss);
        a.mov64_imm(0, 1);
        a.exit();
        let program = Program::new(
            "atomics",
            a.into_insns(),
            vec![MapDef::new(0, "cell", MapKind::Array, 4, 8, 1)],
        );
        let packets: Vec<Vec<u8>> = (0..40u8)
            .map(|i| {
                let mut p = vec![0u8; 64];
                p[5] = i.wrapping_mul(37);
                p
            })
            .collect();
        assert_clean(&program, CompilerOptions::default(), &packets, |_| {});
    }
}
