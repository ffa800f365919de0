//! Output check against the sequential VM (`ehdl_ebpf::vm`), the one
//! semantic oracle.
//!
//! Only the equivalence rules the repository already has are applied:
//!
//! - DNAT: a flushed packet's committed fetch-and-add on the port
//!   allocator is not replayed, so absolute ports may differ from the
//!   sequential reference. As in `ehdl_bench::flush_opt::outcomes_identical`,
//!   DNAT must match every other byte, keep one stable in-range port per
//!   flow and distinct ports across flows, and match the stats map
//!   exactly; its connection and allocator maps are not compared.
//! - Sharded runs: final private maps are merged across replicas with the
//!   strategy the design's shard plan proves sound (`Union`, `SumDelta`),
//!   shared maps are compared in canonical storage, as `diff::compare_sharded`
//!   does.

use std::collections::{BTreeMap, HashMap};

use ehdl_core::PipelineDesign;
use ehdl_ebpf::maps::{Map, MapStore};
use ehdl_ebpf::vm::{Vm, XdpAction};
use ehdl_ebpf::Program;
use ehdl_hwsim::{merges_from_plan, MergeStrategy, ShardedNic, SimOutcome};
use ehdl_net::FiveTuple;
use ehdl_programs::{dnat, App};

use crate::common::FREEZE_NS;

/// A VM with the same clock and initial maps as the engine under test.
pub fn vm_for(program: &Program, setup: impl Fn(&mut MapStore)) -> Vm {
    let mut vm = Vm::new(program);
    vm.set_time_ns(FREEZE_NS);
    setup(vm.maps_mut());
    vm
}

/// Run one packet on the VM. A VM access fault is a drop in hardware.
pub fn vm_packet(vm: &mut Vm, input: &[u8]) -> (XdpAction, Vec<u8>) {
    let mut bytes = input.to_vec();
    match vm.run(&mut bytes, 0) {
        Ok(out) => (out.action, bytes),
        Err(_) => (XdpAction::Drop, input.to_vec()),
    }
}

/// Per-packet comparison, carrying DNAT's port bookkeeping.
pub struct PacketCheck {
    dnat: bool,
    flow_port: HashMap<FiveTuple, u16>,
    port_flow: HashMap<u16, FiveTuple>,
}

impl PacketCheck {
    pub fn new(app: App) -> PacketCheck {
        PacketCheck { dnat: app == App::Dnat, flow_port: HashMap::new(), port_flow: HashMap::new() }
    }

    /// Check packet `i` (input `input`) against the VM's verdict and bytes.
    pub fn check(
        &mut self,
        i: usize,
        input: &[u8],
        vm: &(XdpAction, Vec<u8>),
        out: &SimOutcome,
    ) -> Result<(), String> {
        let (action, bytes) = vm;
        if out.action != *action {
            return Err(format!("packet {i}: verdict {} vs VM {}", out.action, action));
        }
        if !out.action.forwards() {
            return Ok(());
        }
        if out.packet.len() != bytes.len() {
            return Err(format!(
                "packet {i}: {} output bytes vs VM {}",
                out.packet.len(),
                bytes.len()
            ));
        }
        // DNAT's translated source port sits at bytes 34..36.
        let differs = |off: usize| !(self.dnat && (off == 34 || off == 35));
        if let Some(at) = (0..bytes.len()).find(|&at| differs(at) && out.packet[at] != bytes[at]) {
            return Err(format!("packet {i}: output byte {at} differs from the VM"));
        }
        if self.dnat {
            let flow = FiveTuple::parse(input).ok_or_else(|| format!("packet {i}: not a flow"))?;
            let port = u16::from_be_bytes([out.packet[34], out.packet[35]]);
            if !(dnat::PORT_BASE..dnat::PORT_BASE + dnat::PORT_RANGE).contains(&port) {
                return Err(format!("packet {i}: NAT port {port} out of range"));
            }
            if *self.flow_port.entry(flow).or_insert(port) != port {
                return Err(format!("packet {i}: flow changed NAT port to {port}"));
            }
            if *self.port_flow.entry(port).or_insert(flow) != flow {
                return Err(format!("packet {i}: NAT port {port} bound to two flows"));
            }
        }
        Ok(())
    }
}

/// Maps compared at the end of a run (all but DNAT's connection and
/// allocator maps).
fn compared(app: App, map: u32) -> bool {
    !(app == App::Dnat && (map == dnat::CONN_MAP || map == dnat::PORT_ALLOC_MAP))
}

fn entries(m: &Map) -> BTreeMap<Vec<u8>, Vec<u8>> {
    m.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect()
}

/// Compare `packets` (in arrival order) and their outcomes, then the
/// final maps, against the VM. `outs[i]` is packet `i`'s outcome.
pub fn check_single(
    app: App,
    program: &Program,
    setup: impl Fn(&mut MapStore),
    packets: &[Vec<u8>],
    outs: &[&SimOutcome],
    hw_maps: &MapStore,
) -> Result<(), String> {
    let mut vm = vm_for(program, setup);
    check_stream(app, &mut vm, packets, outs)?;
    check_maps(app, program, &vm, hw_maps)
}

/// Compare a single pipeline's final maps against the VM's.
pub fn check_maps(app: App, program: &Program, vm: &Vm, hw_maps: &MapStore) -> Result<(), String> {
    for def in &program.maps {
        if !compared(app, def.id) {
            continue;
        }
        let a = vm.maps().get(def.id).ok_or("VM map missing")?;
        let b = hw_maps.get(def.id).ok_or("pipeline map missing")?;
        if entries(a) != entries(b) {
            return Err(format!(
                "{}: map {} ({}) differs from the VM",
                app.name(),
                def.id,
                def.name
            ));
        }
    }
    Ok(())
}

fn check_stream(
    app: App,
    vm: &mut Vm,
    packets: &[Vec<u8>],
    outs: &[&SimOutcome],
) -> Result<(), String> {
    if outs.len() != packets.len() {
        return Err(format!(
            "{}: {} outcomes for {} packets",
            app.name(),
            outs.len(),
            packets.len()
        ));
    }
    let mut pc = PacketCheck::new(app);
    for (i, (p, o)) in packets.iter().zip(outs).enumerate() {
        pc.check(i, p, &vm_packet(vm, p), o).map_err(|e| format!("{}: {e}", app.name()))?;
    }
    Ok(())
}

fn value_word(v: &[u8], w: usize) -> u64 {
    let mut b = [0u8; 8];
    let at = w * 8;
    if at < v.len() {
        let n = (v.len() - at).min(8);
        b[..n].copy_from_slice(&v[at..at + n]);
    }
    u64::from_le_bytes(b)
}

/// Like [`check_single`] for a sharded run: final maps are merged across
/// replicas per the design's shard plan.
pub fn check_sharded(
    app: App,
    program: &Program,
    design: &PipelineDesign,
    setup: impl Fn(&mut MapStore),
    packets: &[Vec<u8>],
    outs: &[&SimOutcome],
    nic: &ShardedNic,
) -> Result<(), String> {
    let mut initial = MapStore::new(&design.maps);
    setup(&mut initial);
    let mut vm = vm_for(program, setup);
    check_stream(app, &mut vm, packets, outs)?;
    let merges = merges_from_plan(&design.shard);
    for def in &design.maps {
        if !compared(app, def.id) {
            continue;
        }
        let strategy = merges
            .iter()
            .find(|(m, _)| *m == def.id)
            .map(|&(_, s)| s)
            .ok_or_else(|| format!("map {} has no merge strategy in the shard plan", def.id))?;
        let want = entries(vm.maps().get(def.id).ok_or("VM map missing")?);
        let replica = |r: usize| nic.sim(r).maps().get(def.id).expect("replica map");
        let ok = match strategy {
            MergeStrategy::Ignore => true,
            MergeStrategy::Direct => {
                entries(nic.shared_store().get(def.id).ok_or("shared map missing")?) == want
            }
            MergeStrategy::Union => {
                let mut merged = BTreeMap::new();
                let mut conflict = false;
                for r in 0..nic.replicas() {
                    for (_, k, v) in replica(r).iter() {
                        if let Some(old) = merged.insert(k.to_vec(), v.to_vec()) {
                            conflict |= old != v;
                        }
                    }
                }
                !conflict && merged == want
            }
            MergeStrategy::SumDelta => {
                let init = initial.get(def.id).ok_or("initial map missing")?;
                let words = def.value_size.div_ceil(8) as usize;
                init.iter().all(|(slot, key, iv)| {
                    let Some(vm_v) = want.get(key) else { return false };
                    (0..words).all(|w| {
                        let acc = (0..nic.replicas()).fold(value_word(iv, w), |acc, r| {
                            let rv = value_word(replica(r).value(slot), w);
                            acc.wrapping_add(rv.wrapping_sub(value_word(iv, w)))
                        });
                        acc == value_word(vm_v, w)
                    })
                })
            }
        };
        if !ok {
            return Err(format!(
                "{}: merged map {} ({}) differs from the VM",
                app.name(),
                def.id,
                def.name
            ));
        }
    }
    Ok(())
}

/// Plant one divergence in a copy of checked outputs and confirm the
/// check refuses it. `check` must accept `outs` as given.
pub fn planted_divergence_caught(
    outs: &[&SimOutcome],
    check: impl Fn(&[&SimOutcome]) -> Result<(), String>,
) -> Result<(), String> {
    let i = outs
        .iter()
        .position(|o| o.action.forwards() && o.packet.len() > 12)
        .ok_or("self-test: no forwarded packet to corrupt")?;
    let mut bad = outs[i].clone();
    // Byte 12 (the EtherType) is never a DNAT port byte.
    bad.packet[12] ^= 0x5a;
    let mut planted: Vec<&SimOutcome> = outs.to_vec();
    planted[i] = &bad;
    match check(&planted) {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("self-test: a corrupted byte in packet {i} passed the oracle")),
    }
}
