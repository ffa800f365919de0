//! Differential oracle: the generated hardware must behave exactly like
//! the reference interpreter.
//!
//! For a packet sequence, the pipeline (with all its parallelism, flushes
//! and buffered writes) must produce, per packet, the same XDP action and
//! the same output bytes as running the program *sequentially* on the VM —
//! and the final map contents must agree. This is the central correctness
//! property of eHDL's consistency machinery (§4.1): hazards may cost
//! cycles, never correctness.
//!
//! One entry point states that property for every engine: a [`Scenario`]
//! names the program, its compiled design, the trace and the [`Engine`]
//! that runs it, and [`check`] returns a [`Report`] with every
//! [`Divergence`] it found. The VM reference runs once per check, on the
//! calling thread, while each engine run replays the same trace on a
//! thread of its own.

use crate::batch::{coalesce_ops, expand_results, CoalescedOp, MapShape};
use crate::ctrl::{CtrlOptions, HostOp, HostOpResult};
use crate::fault::{FaultConfig, ReplicaFaultConfig};
use crate::shared::{check_linearizable, ShardReport, ShardedNic, SharedMapOptions};
use crate::sim::{PipelineSim, SimError, SimOptions, SimOutcome};
use ehdl_core::PipelineDesign;
use ehdl_ebpf::maps::{Map, MapError, MapKind, MapStore};
use ehdl_ebpf::vm::{Vm, XdpAction};
use ehdl_ebpf::Program;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A per-packet divergence between the VM and the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Actions differ.
    Action {
        /// Packet sequence number.
        seq: usize,
        /// VM verdict.
        vm: XdpAction,
        /// Pipeline verdict.
        hw: XdpAction,
    },
    /// Output bytes differ.
    Packet {
        /// Packet sequence number.
        seq: usize,
        /// First differing byte offset.
        at: usize,
    },
    /// Final contents of a map differ.
    Map {
        /// Map id.
        map: u32,
    },
    /// The pipeline completed a different number of packets than the
    /// reference ran (fault-affected packets excluded on both sides).
    Count {
        /// VM packet count.
        vm: usize,
        /// Pipeline packet count.
        hw: usize,
    },
    /// A compile-time proof (packet-bounds fact or statically-decided
    /// branch from `ehdl_ebpf::absint`) contradicted by a concrete
    /// execution in either engine — an analysis-soundness bug.
    Proof {
        /// Human-readable description of the violated proof.
        detail: String,
    },
    /// A host control-channel op returned a different result than the
    /// same op applied at the same position of the sequential reference.
    HostOp {
        /// Submission id (op order in the schedule).
        id: u64,
        /// Human-readable mismatch description.
        detail: String,
    },
    /// The shared-map access history of a sharded run is not per-key
    /// linearizable — a replica observed a value canonical storage never
    /// held at that point (fabric or swap-discipline bug).
    Coherence {
        /// Human-readable violation description.
        detail: String,
    },
    /// A packet went missing without being accounted: the RX queue never
    /// drained, a completion arrived twice or for no packet, a packet was
    /// lost outside the affected flows, or a replica failure went
    /// undetected or blew its detection budget.
    Loss {
        /// Human-readable violation description.
        detail: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Action { seq, vm, hw } => {
                write!(f, "packet {seq}: vm={vm} hw={hw}")
            }
            Divergence::Packet { seq, at } => {
                write!(f, "packet {seq}: output bytes differ at offset {at}")
            }
            Divergence::Map { map } => write!(f, "map {map}: final contents differ"),
            Divergence::Count { vm, hw } => write!(f, "packet counts differ: vm={vm} hw={hw}"),
            Divergence::Proof { detail } => write!(f, "violated proof: {detail}"),
            Divergence::HostOp { id, detail } => write!(f, "host op {id}: {detail}"),
            Divergence::Coherence { detail } => write!(f, "coherence: {detail}"),
            Divergence::Loss { detail } => write!(f, "loss: {detail}"),
        }
    }
}

/// Apply `op` directly to a map store, returning the result the hardware
/// control channel is required to produce for the same op at the same
/// position — the sequential-reference semantics of a host op.
pub fn apply_host_op_to_store(maps: &mut MapStore, op: &HostOp) -> Result<HostOpResult, MapError> {
    match op {
        HostOp::Lookup { map, key } => {
            let m = maps.get_mut(*map).expect("host op targets a known map");
            match m.lookup(key)? {
                Some(slot) => Ok(HostOpResult::Value(Some(m.value(slot).to_vec()))),
                None => Ok(HostOpResult::Value(None)),
            }
        }
        HostOp::Update { map, key, value, flags } => maps
            .get_mut(*map)
            .expect("host op targets a known map")
            .update(key, value, *flags)
            .map(|_| HostOpResult::Updated),
        HostOp::Delete { map, key } => maps
            .get_mut(*map)
            .expect("host op targets a known map")
            .delete(key)
            .map(|()| HostOpResult::Deleted),
        HostOp::Dump { map } => {
            let m = maps.get(*map).expect("host op targets a known map");
            Ok(HostOpResult::Entries(m.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect()))
        }
    }
}

/// How a map's final contents are reconstructed from the engine's copies
/// for comparison against the sequential reference ([`check`]). A single
/// pipeline is one replica whose store is also canonical, so every
/// strategy but [`MergeStrategy::Ignore`] is an exact comparison there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Union of all replicas' entries, with exact duplicates collapsed.
    /// Correct for flow-partitioned hash-like maps: RSS guarantees each
    /// key is only ever *written* by one replica, so two replicas holding
    /// the same key with different values is itself a divergence.
    Union,
    /// Per-key, per-64-bit-word delta sum: `initial + Σ (replica −
    /// initial)`. Correct for private counter arrays updated with
    /// commutative atomic adds.
    SumDelta,
    /// Compare the canonical shared copy directly (maps listed in
    /// [`SharedMapOptions::shared_maps`] have exactly one storage copy).
    Direct,
    /// Skip the map: pure allocator state whose assignments are
    /// order-dependent by design. DNAT's port counter is one: a flushed
    /// packet's already-committed fetch-and-add is not replayed, so the
    /// counter legitimately runs ahead of the sequential reference while
    /// every observable translation stays identical.
    Ignore,
}

/// What `bpf_ktime_get_ns` returns in both engines during a check. The
/// harness owns the clock: a live clock follows each engine's own
/// timing, which legitimately differs, so time-driven programs (the
/// leaky bucket's refill) would diverge for reasons that are not bugs.
const FROZEN_NS: u64 = 1000;

/// Per-op results as the host sees them, in submission order.
type OpResults = Vec<Result<HostOpResult, MapError>>;

/// Host ops submitted live through one pipeline's control channel.
#[derive(Debug, Clone, Copy)]
pub struct CtrlOps<'a> {
    /// `(at, op)`: `op` is submitted once `at` packets have arrived, so it
    /// must behave as if it executed after every earlier packet and
    /// before every later one. Ops at one position keep their order.
    pub ops: &'a [(usize, HostOp)],
    /// Channel latency and queue depth. The whole schedule is submitted
    /// while the packets are fed, before the pipeline drains, so the
    /// depth is raised to hold it.
    pub options: CtrlOptions,
    /// Submit the coalesced rewrite of each op train ([`coalesce_ops`])
    /// while the reference still executes the original ops one by one.
    /// Carrier results are expanded back per original op, so a clean
    /// check proves the serving layer's batching is invisible.
    pub coalesce: bool,
}

/// What runs the trace against the reference. Each variant carries only
/// what that engine supports.
#[derive(Debug, Clone)]
pub enum Engine<'a> {
    /// One pipeline.
    Pipeline {
        /// Live host ops and the channel that carries them. The ops race
        /// the hazard machinery for real, including writes landing inside
        /// open RAW windows.
        ctrl: Option<CtrlOps<'a>>,
        /// Seeded bit-flip campaign. Packets the fault engine reports as
        /// corrupted or killed are exempt from the per-packet comparison;
        /// final maps are still compared, and reported, because a fault
        /// that reached map state should show.
        faults: Option<FaultConfig>,
    },
    /// `replicas` copies of the design behind RSS steering and the
    /// shared-map fabric. Host ops apply fenced to canonical storage.
    Sharded {
        /// Replica count.
        replicas: usize,
        /// RSS hash seed.
        seed: u64,
        /// Fabric shape and the maps it shares.
        fabric: SharedMapOptions,
        /// `(at, op)` host ops, positioned as in [`CtrlOps::ops`].
        ops: &'a [(usize, HostOp)],
    },
    /// Sharded replicas under a replica-failure schedule, checked against
    /// the fault-free reference. Packets of flows homed on a failed
    /// replica are exempt from the per-packet comparison: losing part of
    /// a session legitimately changes stateful verdicts downstream. Final
    /// maps are not compared, since a failure legitimately loses private
    /// state no [`MergeStrategy`] can reconstruct; the scenario's merges
    /// are the fail-over reconciliation policy instead.
    Failover {
        /// Replica count.
        replicas: usize,
        /// RSS hash seed.
        seed: u64,
        /// Fabric shape and the maps it shares.
        fabric: SharedMapOptions,
        /// Failures to inject and the watchdog budget they must meet.
        failures: ReplicaFaultConfig,
    },
}

impl<'a> Engine<'a> {
    /// The host-op schedule as the reference executes it.
    fn ops(&self) -> &'a [(usize, HostOp)] {
        match *self {
            Engine::Pipeline { ctrl: Some(c), .. } => c.ops,
            Engine::Sharded { ops, .. } => ops,
            _ => &[],
        }
    }
}

/// One differential check: the program, its design, the trace and the
/// engine that runs it.
pub struct Scenario<'a> {
    /// The reference program.
    pub program: &'a Program,
    /// The design under test.
    pub design: &'a PipelineDesign,
    /// The packet trace, in arrival order.
    pub packets: &'a [Vec<u8>],
    /// Host-side map writes (routes, rules, bindings) applied to every
    /// store before any packet runs.
    pub setup: &'a dyn Fn(&mut MapStore),
    /// Per-map merge overrides. Unlisted maps use
    /// [`MergeStrategy::Direct`] when shared, [`MergeStrategy::SumDelta`]
    /// for arrays and [`MergeStrategy::Union`] otherwise.
    pub merges: &'a [(u32, MergeStrategy)],
    /// Simulator options. The harness owns three of them: [`check`]
    /// freezes the clock whatever `freeze_time_ns` says, and picks the
    /// plans itself, so it rejects a caller's `fuse: false` or
    /// `check_proofs: true` as misuse.
    pub options: SimOptions,
    /// The engine under test.
    pub engine: Engine<'a>,
}

fn no_setup(_: &mut MapStore) {}

impl<'a> Scenario<'a> {
    /// One plain pipeline running `packets` from empty maps.
    pub fn new(program: &'a Program, design: &'a PipelineDesign, packets: &'a [Vec<u8>]) -> Self {
        Scenario {
            program,
            design,
            packets,
            setup: &no_setup,
            merges: &[],
            options: SimOptions::default(),
            engine: Engine::Pipeline { ctrl: None, faults: None },
        }
    }
}

/// What a [`check`] found.
#[derive(Debug)]
pub struct Report {
    /// Every finding; empty means the engine matched the reference.
    pub divergences: Vec<Divergence>,
    /// Packet indices exempt from the per-packet comparison because a
    /// fault touched them. Sorted.
    pub affected: Vec<u64>,
    /// The pipeline after the run ([`Engine::Pipeline`]): its counters,
    /// fault engine and availability.
    pub pipeline: Option<PipelineSim>,
    /// The sharded run's report ([`Engine::Sharded`],
    /// [`Engine::Failover`]): fail-over stats, fabric telemetry, cycles.
    pub shards: Option<ShardReport>,
}

impl Report {
    /// Panic with the divergences unless there are none.
    pub fn assert_clean(&self) {
        let shown: Vec<String> = self.divergences.iter().take(8).map(|d| d.to_string()).collect();
        assert!(
            self.divergences.is_empty(),
            "engine diverges from the sequential reference ({} issues):\n  {}",
            self.divergences.len(),
            shown.join("\n  ")
        );
    }
}

/// Run the scenario's engine and the sequential VM reference over the same
/// trace and compare everything observable: per-packet actions and bytes,
/// host-op results, final maps (merged per [`MergeStrategy`]), per-key
/// linearizability and fail-over accounting of sharded runs, and the
/// compile-time proofs in both engines.
///
/// Every scenario runs on the fused plan, the one production uses. A
/// scenario without bit flips also runs on the unfused plan with proof
/// checking on, since only the unfused plan rechecks proofs; each plan is
/// compared against the one reference, and a finding both plans make is
/// reported once. [`Report::pipeline`] and [`Report::shards`] describe
/// the fused run.
///
/// # Panics
///
/// Only on misuse of the harness: options that pick a plan
/// ([`SimOptions::fuse`], [`SimOptions::check_proofs`]), a host op naming
/// a map the program does not have, or a panicking simulator thread.
/// Everything the simulator does wrong is a [`Divergence`].
pub fn check(s: &Scenario) -> Report {
    assert!(
        s.options.fuse && !s.options.check_proofs,
        "check picks the plans: leave `fuse` and `check_proofs` at their defaults"
    );
    let fused = SimOptions { freeze_time_ns: Some(FROZEN_NS), ..s.options };
    // A flipped bit can legitimately break a proof.
    let bitflips = matches!(s.engine, Engine::Pipeline { faults: Some(_), .. });
    let unfused = (!bitflips).then_some(SimOptions { fuse: false, check_proofs: true, ..fused });
    let mut ops = s.engine.ops().to_vec();
    ops.sort_by_key(|&(at, _)| at);
    let coalesced = match s.engine {
        Engine::Pipeline { ctrl: Some(CtrlOps { coalesce: true, .. }), .. } => {
            Some(Coalesced::new(s.program, &ops))
        }
        _ => None,
    };
    let hw_ops = coalesced.as_ref().map_or(&ops[..], |c| &c.ops[..]);

    let mut hw = Hw::new(s, fused, hw_ops.len());
    let mut unfused_hw = unfused.map(|options| Hw::new(s, options, hw_ops.len()));
    let packets = s.packets;
    let (reference, run, unfused_run) = std::thread::scope(|scope| {
        let hw = &mut hw;
        let run = scope.spawn(move || hw.run(packets, hw_ops));
        let unfused_run =
            unfused_hw.as_mut().map(|hw| scope.spawn(move || hw.run(packets, hw_ops)));
        let reference = Reference::run(s.program, packets, &ops, s.setup);
        let join = |h: std::thread::ScopedJoinHandle<'_, Run>| {
            h.join().expect("simulator thread panicked")
        };
        (reference, join(run), unfused_run.map(join))
    });

    let mut initial = MapStore::new(&s.design.maps);
    (s.setup)(&mut initial);
    let mut divergences = findings(s, &reference, &initial, &hw, &run, coalesced.as_ref());
    if let (Some(hw), Some(run)) = (&unfused_hw, &unfused_run) {
        for d in findings(s, &reference, &initial, hw, run, coalesced.as_ref()) {
            if !divergences.contains(&d) {
                divergences.push(d);
            }
        }
    }
    Report {
        divergences,
        affected: run.affected,
        pipeline: match hw {
            Hw::Pipeline(sim) => Some(sim),
            Hw::Sharded(_) => None,
        },
        shards: run.shards,
    }
}

/// Everything one engine run got wrong against the reference.
fn findings(
    s: &Scenario,
    reference: &Reference,
    initial: &MapStore,
    hw: &Hw,
    run: &Run,
    coalesced: Option<&Coalesced>,
) -> Vec<Divergence> {
    let mut divergences = run.divergences.clone();
    divergences.extend(compare_packets(&reference.outcomes, &run.outcomes, &run.affected));
    divergences.extend(compare_ops(&reference.ops, &run.ops, coalesced));
    let shared = match &s.engine {
        Engine::Sharded { fabric, .. } | Engine::Failover { fabric, .. } => &fabric.shared_maps[..],
        Engine::Pipeline { .. } => &[],
    };
    if let Some(report) = &run.shards {
        let failures = match &s.engine {
            Engine::Failover { failures, .. } => Some(failures),
            _ => None,
        };
        divergences.extend(failover_accounting(report, s.packets.len(), failures));
        if let Err(v) = check_linearizable(initial, shared, &report.events) {
            divergences.push(Divergence::Coherence { detail: v.to_string() });
        }
    }
    if !matches!(s.engine, Engine::Failover { .. }) {
        divergences.extend(compare_maps(
            s.program,
            reference.vm.maps(),
            initial,
            &hw.replica_stores(),
            hw.canonical_store(),
            shared,
            s.merges,
        ));
    }
    divergences.extend(compare_proofs(&reference.vm, &hw.proof_violations()));
    divergences
}

/// The sequential reference: packets in arrival order on the VM, each
/// host op applied once the packets before its position have run.
struct Reference {
    vm: Vm,
    /// Per packet: the verdict and the output bytes.
    outcomes: Vec<(XdpAction, Vec<u8>)>,
    ops: OpResults,
}

impl Reference {
    fn run(
        program: &Program,
        packets: &[Vec<u8>],
        ops: &[(usize, HostOp)],
        setup: &dyn Fn(&mut MapStore),
    ) -> Reference {
        let mut vm = Vm::new(program);
        vm.set_time_ns(FROZEN_NS);
        // Soundness gate: every fact the abstract interpreter claims about
        // the program is rechecked against the reference execution.
        if let Ok(decoded) = program.decode() {
            vm.check_facts(ehdl_ebpf::absint::analyze(&decoded));
        }
        setup(vm.maps_mut());
        let mut pending = ops.iter().peekable();
        let mut results = Vec::with_capacity(ops.len());
        let mut outcomes = Vec::with_capacity(packets.len());
        for (i, p) in packets.iter().enumerate() {
            while let Some((_, op)) = pending.next_if(|&&(at, _)| at <= i) {
                results.push(apply_host_op_to_store(vm.maps_mut(), op));
            }
            let mut bytes = p.clone();
            outcomes.push(match vm.run(&mut bytes, 0) {
                Ok(out) => (out.action, bytes),
                // The hardware drops on access faults.
                Err(_) => (XdpAction::Drop, p.clone()),
            });
        }
        for (_, op) in pending {
            results.push(apply_host_op_to_store(vm.maps_mut(), op));
        }
        Reference { vm, outcomes, ops: results }
    }
}

/// The engine under test, configured and set up, before or after its run.
enum Hw {
    Pipeline(PipelineSim),
    Sharded(ShardedNic),
}

/// What an engine run produced, in reference numbering.
struct Run {
    /// Findings made while feeding the trace.
    divergences: Vec<Divergence>,
    /// `(packet index, outcome)` in completion order.
    outcomes: Vec<(u64, SimOutcome)>,
    /// Host-op completions in submission order.
    ops: OpResults,
    /// Packet indices a fault touched. Sorted.
    affected: Vec<u64>,
    shards: Option<ShardReport>,
}

impl Hw {
    fn new(s: &Scenario, options: SimOptions, hw_ops: usize) -> Hw {
        match &s.engine {
            Engine::Pipeline { ctrl, faults } => {
                let mut sim = PipelineSim::with_options(s.design, options);
                (s.setup)(sim.maps_mut());
                if let Some(c) = ctrl {
                    let queue_depth = c.options.queue_depth.max(hw_ops);
                    sim.attach_ctrl(CtrlOptions { queue_depth, ..c.options });
                }
                if let Some(f) = faults {
                    sim.attach_faults(*f);
                }
                Hw::Pipeline(sim)
            }
            Engine::Sharded { replicas, seed, fabric, .. }
            | Engine::Failover { replicas, seed, fabric, .. } => {
                let fabric = SharedMapOptions { log_events: true, ..fabric.clone() };
                let mut nic = ShardedNic::new(s.design, *replicas, *seed, options, fabric);
                if let Engine::Failover { failures, .. } = &s.engine {
                    nic.attach_replica_faults(failures.clone(), s.merges.to_vec());
                }
                nic.setup_maps(s.setup);
                Hw::Sharded(nic)
            }
        }
    }

    fn run(&mut self, packets: &[Vec<u8>], ops: &[(usize, HostOp)]) -> Run {
        match self {
            Hw::Pipeline(sim) => run_pipeline(sim, packets, ops),
            Hw::Sharded(nic) => {
                let report = nic.run_with_ops(packets.iter().cloned(), ops);
                Run {
                    divergences: Vec::new(),
                    outcomes: report.outcomes.iter().map(|(_, g, o)| (*g, o.clone())).collect(),
                    ops: report.host_completions.iter().map(|c| c.result.clone()).collect(),
                    affected: report.affected.clone(),
                    shards: Some(report),
                }
            }
        }
    }

    fn replica_stores(&self) -> Vec<&MapStore> {
        match self {
            Hw::Pipeline(sim) => vec![sim.maps()],
            Hw::Sharded(nic) => (0..nic.replicas()).map(|r| nic.sim(r).maps()).collect(),
        }
    }

    /// The one storage copy of shared maps (a lone pipeline's own store).
    fn canonical_store(&self) -> &MapStore {
        match self {
            Hw::Pipeline(sim) => sim.maps(),
            Hw::Sharded(nic) => nic.shared_store(),
        }
    }

    /// `(engine part, unguarded accesses that left proven bounds)`.
    fn proof_violations(&self) -> Vec<(String, u64)> {
        match self {
            Hw::Pipeline(sim) => vec![("pipeline".into(), sim.counters().proof_violations)],
            Hw::Sharded(nic) => (0..nic.replicas())
                .map(|r| (format!("replica {r}"), nic.sim(r).counters().proof_violations))
                .collect(),
        }
    }
}

/// Feed the trace to one pipeline — packets enqueue, each op is submitted
/// just before the packet at its position — then let everything drain.
fn run_pipeline(sim: &mut PipelineSim, packets: &[Vec<u8>], ops: &[(usize, HostOp)]) -> Run {
    let mut divergences = Vec::new();
    let mut submit = |sim: &mut PipelineSim, op: &HostOp| {
        if let Err(e) = sim.submit_host_op(op.clone()) {
            divergences.push(Divergence::HostOp {
                id: u64::MAX,
                detail: format!("submission rejected: {e}"),
            });
        }
    };
    // Hardware sequence numbers count accepted arrivals only.
    let mut index_of_seq: Vec<u64> = Vec::with_capacity(packets.len());
    let mut pending = ops.iter().peekable();
    let mut stalled = None;
    'feed: for (i, p) in packets.iter().enumerate() {
        while let Some((_, op)) = pending.next_if(|&&(at, _)| at <= i) {
            submit(sim, op);
        }
        let mut drains = 0u32;
        loop {
            match sim.try_enqueue(p.clone()) {
                Ok(()) => break,
                // Dropped at ingress: shows up as a missing completion.
                Err(SimError::FrameTooLarge { .. }) => continue 'feed,
                Err(SimError::QueueFull { .. }) if drains < 64 => {
                    sim.settle(1_000_000);
                    drains += 1;
                }
                Err(e) => {
                    stalled = Some(Divergence::Loss {
                        detail: format!("packet {i} refused after {drains} queue drains: {e}"),
                    });
                    break 'feed;
                }
            }
        }
        index_of_seq.push(i as u64);
    }
    for (_, op) in pending {
        submit(sim, op);
    }
    divergences.extend(stalled);
    sim.settle(50_000_000);
    sim.finalize_faults();
    let index = |seq: u64| index_of_seq.get(seq as usize).copied().unwrap_or(u64::MAX);
    Run {
        divergences,
        outcomes: sim.drain().into_iter().map(|o| (index(o.seq), o)).collect(),
        ops: sim.host_completions().into_iter().map(|c| c.result).collect(),
        affected: sim
            .fault_engine()
            .map(|e| e.affected_seqs().iter().map(|&seq| index(seq)).collect())
            .unwrap_or_default(),
        shards: None,
    }
}

/// Per packet, the engine must render the reference's verdict and, for
/// forwarded packets, its output bytes. Packets in `affected` are exempt;
/// every other packet must complete exactly once.
fn compare_packets(
    expected: &[(XdpAction, Vec<u8>)],
    outcomes: &[(u64, SimOutcome)],
    affected: &[u64],
) -> Vec<Divergence> {
    let mut divs = Vec::new();
    let mut hw: Vec<Option<&SimOutcome>> = vec![None; expected.len()];
    for (i, out) in outcomes {
        match hw.get_mut(*i as usize) {
            Some(slot @ None) => *slot = Some(out),
            Some(Some(_)) => {
                divs.push(Divergence::Loss { detail: format!("packet {i} completed twice") });
            }
            None => divs.push(Divergence::Loss {
                detail: format!("completion (hw seq {}) matches no offered packet", out.seq),
            }),
        }
    }
    let (mut offered, mut completed) = (0, 0);
    for (i, ((action, bytes), out)) in expected.iter().zip(&hw).enumerate() {
        if affected.binary_search(&(i as u64)).is_ok() {
            continue;
        }
        offered += 1;
        let Some(out) = out else { continue };
        completed += 1;
        if out.action != *action {
            divs.push(Divergence::Action { seq: i, vm: *action, hw: out.action });
        } else if out.action.forwards() && out.packet != *bytes {
            let at = out
                .packet
                .iter()
                .zip(bytes)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| out.packet.len().min(bytes.len()));
            divs.push(Divergence::Packet { seq: i, at });
        }
    }
    if completed != offered {
        divs.insert(0, Divergence::Count { vm: offered, hw: completed });
    }
    divs
}

/// Host ops complete in submission order (the channel is a FIFO), so
/// completion `i` answers submitted op `i`; a coalesced schedule's
/// carrier results are first expanded back onto the original ops.
fn compare_ops(
    expected: &[Result<HostOpResult, MapError>],
    completions: &[Result<HostOpResult, MapError>],
    coalesced: Option<&Coalesced>,
) -> Vec<Divergence> {
    let submitted = coalesced.map_or(expected.len(), |c| c.carriers.len());
    if completions.len() != submitted {
        return vec![Divergence::HostOp {
            id: u64::MAX,
            detail: format!("{} of {submitted} submitted ops completed", completions.len()),
        }];
    }
    let results = match coalesced {
        Some(c) => c.expand(completions),
        None => completions.to_vec(),
    };
    results
        .iter()
        .zip(expected)
        .enumerate()
        .filter(|(_, (hw, vm))| hw != vm)
        .map(|(i, (hw, vm))| Divergence::HostOp {
            id: i as u64,
            detail: format!("hw={hw:?} vm={vm:?}"),
        })
        .collect()
}

/// Fail-over accounting of a sharded run: every offered packet is
/// completed, drained, discarded or an accounted ingress drop; losses
/// stay inside the affected flows; and every injected failure (when a
/// schedule is attached) is detected within the watchdog budget.
fn failover_accounting(
    report: &ShardReport,
    offered: usize,
    failures: Option<&ReplicaFaultConfig>,
) -> Vec<Divergence> {
    let mut divs = Vec::new();
    let offered = offered as u64;
    let completed: u64 = report.completed.iter().sum();
    let drained = report.drained.len() as u64;
    let discarded = report.discarded.len() as u64;
    let dropped: u64 = report.dropped.iter().sum();
    if offered != completed + drained + discarded + dropped {
        divs.push(Divergence::Loss {
            detail: format!(
                "accounting leak: offered {offered} != completed {completed} + drained {drained} \
                 + discarded {discarded} + dropped {dropped}"
            ),
        });
    }
    for g in report.drained.iter().chain(&report.discarded) {
        if report.affected.binary_search(g).is_err() {
            divs.push(Divergence::Loss {
                detail: format!("packet {g} lost outside the affected flow set"),
            });
        }
    }
    let Some(failures) = failures else { return divs };
    let f = report.failover;
    if f.detected + f.masked_brownouts < f.injected {
        divs.push(Divergence::Loss {
            detail: format!(
                "undetected failures: injected {}, detected {}, masked {}",
                f.injected, f.detected, f.masked_brownouts
            ),
        });
    }
    if f.detection_latency_max > failures.watchdog_budget {
        divs.push(Divergence::Loss {
            detail: format!(
                "detection latency {} blew the watchdog budget {}",
                f.detection_latency_max, failures.watchdog_budget
            ),
        });
    }
    divs
}

fn entries(m: &Map) -> BTreeMap<Vec<u8>, Vec<u8>> {
    m.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect()
}

/// Little-endian u64 word `w` of a value, zero-padded at the tail.
fn value_word(v: &[u8], w: usize) -> u64 {
    let mut b = [0u8; 8];
    let at = w * 8;
    if at < v.len() {
        let n = (v.len() - at).min(8);
        b[..n].copy_from_slice(&v[at..at + n]);
    }
    u64::from_le_bytes(b)
}

/// Compare every map's final contents against the reference, rebuilt
/// from the engine's `replicas` (and the `canonical` copy of `shared`
/// maps) per [`MergeStrategy`].
fn compare_maps(
    program: &Program,
    vm: &MapStore,
    initial: &MapStore,
    replicas: &[&MapStore],
    canonical: &MapStore,
    shared: &[u32],
    merges: &[(u32, MergeStrategy)],
) -> Vec<Divergence> {
    let mut divs = Vec::new();
    for def in &program.maps {
        let strategy = merges.iter().find(|(m, _)| *m == def.id).map(|&(_, s)| s).unwrap_or(
            if shared.contains(&def.id) {
                MergeStrategy::Direct
            } else {
                match def.kind {
                    MapKind::Array | MapKind::PerCpuArray => MergeStrategy::SumDelta,
                    _ => MergeStrategy::Union,
                }
            },
        );
        let vm_map = vm.get(def.id).expect("vm map");
        let copies: Option<Vec<&Map>> = replicas.iter().map(|r| r.get(def.id)).collect();
        let matches = match (strategy, copies) {
            (MergeStrategy::Ignore, _) => true,
            (MergeStrategy::Direct, _) => {
                canonical.get(def.id).map(entries) == Some(entries(vm_map))
            }
            (_, None) => false,
            (MergeStrategy::Union, Some(copies)) => {
                let mut merged = BTreeMap::new();
                let mut conflict = false;
                for (_, k, v) in copies.iter().flat_map(|m| m.iter()) {
                    match merged.entry(k.to_vec()) {
                        Entry::Occupied(e) => conflict |= e.get() != v,
                        Entry::Vacant(e) => {
                            e.insert(v.to_vec());
                        }
                    }
                }
                !conflict && merged == entries(vm_map)
            }
            (MergeStrategy::SumDelta, Some(copies)) => {
                let init = initial.get(def.id).expect("initial map");
                let words = def.value_size.div_ceil(8) as usize;
                init.iter().all(|(slot, key, iv)| {
                    let Some((_, _, vm_v)) = vm_map.iter().find(|(_, k, _)| *k == key) else {
                        return false;
                    };
                    (0..words).all(|w| {
                        let base = value_word(iv, w);
                        let sum = copies.iter().fold(base, |acc, m| {
                            acc.wrapping_add(value_word(m.value(slot), w).wrapping_sub(base))
                        });
                        sum == value_word(vm_v, w)
                    })
                })
            }
        };
        if !matches {
            divs.push(Divergence::Map { map: def.id });
        }
    }
    divs
}

/// Every proof the reference contradicted, plus every engine part that
/// counted unguarded accesses leaving proven bounds.
fn compare_proofs(vm: &Vm, hw: &[(String, u64)]) -> Vec<Divergence> {
    let vm_violations =
        vm.proof_violations().iter().map(|v| Divergence::Proof { detail: format!("vm: {v}") });
    let hw_violations = hw.iter().filter(|(_, n)| *n > 0).map(|(part, n)| Divergence::Proof {
        detail: format!("{part}: {n} unguarded accesses left proven bounds"),
    });
    vm_violations.chain(hw_violations).collect()
}

/// The coalesced rewrite of an op schedule: each train (the ops at one
/// position) is rewritten by [`coalesce_ops`], and its carriers keep the
/// train's position.
struct Coalesced {
    ops: Vec<(usize, HostOp)>,
    carriers: Vec<CoalescedOp>,
    /// Carrier index one past each train's last carrier.
    ends: Vec<usize>,
}

impl Coalesced {
    fn new(program: &Program, ops: &[(usize, HostOp)]) -> Coalesced {
        let shapes: BTreeMap<u32, MapShape> = program
            .maps
            .iter()
            .map(|d| {
                (
                    d.id,
                    MapShape { key_size: d.key_size as usize, value_size: d.value_size as usize },
                )
            })
            .collect();
        let mut c = Coalesced { ops: Vec::new(), carriers: Vec::new(), ends: Vec::new() };
        for train in ops.chunk_by(|a, b| a.0 == b.0) {
            let originals: Vec<HostOp> = train.iter().map(|(_, op)| op.clone()).collect();
            let (carriers, _) = coalesce_ops(&originals, |id| shapes.get(&id).copied());
            c.ops.extend(carriers.iter().map(|k| (train[0].0, k.op.clone())));
            c.carriers.extend(carriers);
            c.ends.push(c.carriers.len());
        }
        c
    }

    /// Per-original-op results from per-carrier completions.
    fn expand(&self, results: &[Result<HostOpResult, MapError>]) -> OpResults {
        let mut out = Vec::new();
        let mut start = 0;
        for &end in &self.ends {
            out.extend(expand_results(&self.carriers[start..end], &results[start..end]));
            start = end;
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_core::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};

    fn assert_clean(program: &Program, packets: &[Vec<u8>]) {
        let design = Compiler::new().compile(program).unwrap();
        check(&Scenario::new(program, &design, packets)).assert_clean();
    }

    #[test]
    fn branching_program_equivalent() {
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(AluOp::Add, 2, 14);
        a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
        a.load(MemSize::B, 3, 7, 12);
        a.jmp_imm(JmpOp::Jeq, 3, 8, drop);
        a.mov64_imm(0, 3);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let mut packets: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 64]).collect();
        packets.push(vec![0; 10]); // short packet exercises the elided check
        assert_clean(&p, &packets);
    }

    #[test]
    fn packet_rewrite_equivalent() {
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::H, 2, 7, 0);
        a.load(MemSize::H, 3, 7, 6);
        a.store_reg(MemSize::H, 7, 0, 3);
        a.store_reg(MemSize::H, 7, 6, 2);
        a.mov64_imm(0, 3);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let packets: Vec<Vec<u8>> = (0..16)
            .map(|i| {
                let mut v = vec![0u8; 64];
                v[0] = i;
                v[6] = 0xf0 | i;
                v
            })
            .collect();
        assert_clean(&p, &packets);
    }

    /// A program that returns `action` for every packet.
    fn constant(action: i32) -> Program {
        let mut a = Asm::new();
        a.mov64_imm(0, action);
        a.exit();
        Program::from_insns(a.into_insns())
    }

    #[test]
    fn wrong_exit_action_diverges_under_every_engine() {
        let reference = constant(3); // XDP_TX
        let design = Compiler::new().compile(&constant(2)).unwrap(); // XDP_PASS
        let packets: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 64]).collect();
        let ctrl = |coalesce| CtrlOps { ops: &[], options: CtrlOptions::default(), coalesce };
        let engines = [
            Engine::Pipeline { ctrl: None, faults: None },
            Engine::Pipeline { ctrl: Some(ctrl(false)), faults: None },
            Engine::Pipeline { ctrl: Some(ctrl(true)), faults: None },
            Engine::Pipeline {
                ctrl: None,
                faults: Some(FaultConfig { rate: 0.0, ..Default::default() }),
            },
            Engine::Sharded { replicas: 2, seed: 1, fabric: SharedMapOptions::default(), ops: &[] },
            Engine::Failover {
                replicas: 2,
                seed: 1,
                fabric: SharedMapOptions::default(),
                failures: ReplicaFaultConfig::default(),
            },
        ];
        for engine in engines {
            let shape = format!("{engine:?}");
            let report =
                check(&Scenario { engine, ..Scenario::new(&reference, &design, &packets) });
            assert!(
                report.divergences.iter().any(|d| matches!(
                    d,
                    Divergence::Action { vm: XdpAction::Tx, hw: XdpAction::Pass, .. }
                )),
                "{shape}: wrong verdicts must surface, got {:?}",
                report.divergences
            );
        }
    }

    mod live_ops {
        use super::*;
        use crate::sim::hazard_timing_tests::{pkt, rmw_program};
        use ehdl_ebpf::maps::UpdateFlags;

        fn key(flow: u8) -> Vec<u8> {
            vec![flow, 0, 0, 0]
        }

        fn update(flow: u8, v: u64) -> HostOp {
            HostOp::Update {
                map: 0,
                key: key(flow),
                value: v.to_le_bytes().to_vec(),
                flags: UpdateFlags::Any,
            }
        }

        fn assert_clean_ops(packets: &[Vec<u8>], ops: &[(usize, HostOp)], options: CtrlOptions) {
            let program = rmw_program();
            let design = Compiler::new().compile(&program).unwrap();
            let ctrl = CtrlOps { ops, options, coalesce: false };
            check(&Scenario {
                engine: Engine::Pipeline { ctrl: Some(ctrl), faults: None },
                ..Scenario::new(&program, &design, packets)
            })
            .assert_clean();
        }

        #[test]
        fn interleaved_ops_match_sequential_reference() {
            // Ops hammer the same hot key the packets are incrementing,
            // at several barrier positions — including back-to-back with
            // same-flow packets so writes land inside open RAW windows.
            let mut packets = Vec::new();
            let mut ops = Vec::new();
            for round in 0..4u64 {
                for _ in 0..3 {
                    packets.push(pkt(1));
                }
                ops.push((packets.len(), update(1, round * 1000)));
                ops.push((packets.len(), HostOp::Lookup { map: 0, key: key(1) }));
                packets.push(pkt(1));
                ops.push((packets.len(), HostOp::Delete { map: 0, key: key(2) }));
                packets.push(pkt(2));
                ops.push((packets.len(), HostOp::Dump { map: 0 }));
            }
            assert_clean_ops(&packets, &ops, CtrlOptions { latency_cycles: 1, queue_depth: 64 });
        }

        #[test]
        fn op_results_cover_errors_and_misses() {
            let ops = [
                (0, HostOp::Lookup { map: 0, key: key(9) }), // miss
                (0, HostOp::Delete { map: 0, key: key(9) }), // NoSuchKey
                (
                    1,
                    HostOp::Update {
                        map: 0,
                        key: key(9),
                        value: 7u64.to_le_bytes().to_vec(),
                        flags: UpdateFlags::NoExist, // KeyExists
                    },
                ),
                (1, HostOp::Lookup { map: 0, key: key(9) }), // hit
            ];
            assert_clean_ops(&[pkt(9)], &ops, CtrlOptions::default());
        }

        #[test]
        fn high_latency_channel_still_barrier_ordered() {
            let mut packets = Vec::new();
            let mut ops = Vec::new();
            for i in 0..12u8 {
                packets.push(pkt(i % 2));
                if i % 3 == 0 {
                    ops.push((packets.len(), update(i % 2, u64::from(i) * 11)));
                }
            }
            assert_clean_ops(&packets, &ops, CtrlOptions { latency_cycles: 400, queue_depth: 8 });
        }

        #[test]
        fn mismatched_op_result_is_reported() {
            // Sanity-check the harness actually compares op results: an
            // op on a key only the *setup* of one side has must diverge.
            let program = rmw_program();
            let design = Compiler::new().compile(&program).unwrap();
            let op = HostOp::Lookup { map: 0, key: key(3) };
            // Divergence is manufactured by mutating the sim store only —
            // run compare manually with asymmetric setup.
            let mut vm = Vm::new(&program);
            vm.set_time_ns(1000);
            let mut sim = crate::sim::PipelineSim::with_options(
                &design,
                SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
            );
            sim.maps_mut()
                .get_mut(0)
                .unwrap()
                .update(&key(3), &5u64.to_le_bytes(), UpdateFlags::Any)
                .unwrap();
            sim.attach_ctrl(CtrlOptions::default());
            sim.submit_host_op(op.clone()).unwrap();
            sim.settle(10_000);
            let hw = sim.host_completions()[0].result.clone();
            let vmr = apply_host_op_to_store(vm.maps_mut(), &op);
            assert_ne!(hw, vmr, "asymmetric state must surface in op results");
            assert_eq!(compare_ops(&[vmr], &[hw], None).len(), 1);
        }

        #[test]
        fn truncated_completions_are_a_host_op_divergence() {
            // A missing completion must not pass as a shorter zip.
            let done = Ok(HostOpResult::Updated);
            let divs = compare_ops(&[done.clone(), done.clone()], &[done], None);
            assert!(
                matches!(divs.as_slice(), [Divergence::HostOp { id: u64::MAX, .. }]),
                "{divs:?}"
            );
        }
    }

    mod sharded {
        use super::*;
        use crate::fault::{ReplicaFault, ReplicaFaultKind};
        use crate::shared::Arbitration;
        use ehdl_ebpf::maps::UpdateFlags;
        use ehdl_net::{FiveTuple, IPPROTO_UDP};
        use ehdl_programs::{dnat, simple_firewall};
        use ehdl_traffic::build_flow_packet;

        fn flow(i: usize) -> FiveTuple {
            FiveTuple {
                saddr: [10, 1, (i >> 8) as u8, i as u8],
                daddr: [203, 0, 113, 9],
                sport: 40000 + i as u16,
                dport: 53,
                proto: IPPROTO_UDP,
            }
        }

        /// Bidirectional trace: each flow opens from inside, then the
        /// peer answers, then both directions keep talking — the
        /// symmetric RSS hash must keep every packet of a flow on one
        /// replica or the session state tears apart.
        fn bidirectional_trace(flows: usize, rounds: usize) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            for i in 0..flows {
                out.push(build_flow_packet(&flow(i), [1; 6], [2; 6], 64));
            }
            for _ in 0..rounds {
                for i in 0..flows {
                    out.push(build_flow_packet(&flow(i).reversed(), [2; 6], [1; 6], 64));
                    out.push(build_flow_packet(&flow(i), [1; 6], [2; 6], 64));
                }
            }
            out
        }

        fn sharded(replicas: usize, seed: u64, fabric: SharedMapOptions) -> Engine<'static> {
            Engine::Sharded { replicas, seed, fabric, ops: &[] }
        }

        #[test]
        fn firewall_bit_equivalent_across_replicas_and_seeds() {
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(48, 2);
            for replicas in [1, 2, 4] {
                for seed in [1, 7] {
                    check(&Scenario {
                        engine: sharded(replicas, seed, SharedMapOptions::default()),
                        ..Scenario::new(&program, &design, &packets)
                    })
                    .assert_clean();
                }
            }
        }

        #[test]
        fn firewall_shared_stats_with_host_ops() {
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(32, 2);
            // Host traffic against the *shared* stats array mid-trace:
            // a fenced read must observe the exact sequential-reference
            // count, and a fenced write must serialize into the shared
            // history ahead of all later packets.
            let ops = vec![
                (
                    30usize,
                    HostOp::Lookup {
                        map: simple_firewall::STATS_MAP,
                        key: 0u32.to_le_bytes().to_vec(),
                    },
                ),
                (
                    60usize,
                    HostOp::Update {
                        map: simple_firewall::STATS_MAP,
                        key: 3u32.to_le_bytes().to_vec(),
                        value: 7u64.to_le_bytes().to_vec(),
                        flags: UpdateFlags::Any,
                    },
                ),
            ];
            let fabric = SharedMapOptions {
                shared_maps: vec![simple_firewall::STATS_MAP],
                ..Default::default()
            };
            check(&Scenario {
                engine: Engine::Sharded { replicas: 4, seed: 9, fabric, ops: &ops },
                ..Scenario::new(&program, &design, &packets)
            })
            .assert_clean();
        }

        #[test]
        fn contended_fabric_and_caches_never_change_results() {
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(24, 3);
            // Worst-case timing pressure: one bank, multi-cycle latency,
            // fixed priority (replica 3 starves), read caches on. Timing
            // may crawl; results may not move.
            let fabric = SharedMapOptions {
                banks: 1,
                latency: 4,
                arbitration: Arbitration::FixedPriority,
                read_cache: true,
                cache_lines: 64,
                shared_maps: vec![simple_firewall::STATS_MAP],
                ..Default::default()
            };
            check(&Scenario {
                engine: sharded(4, 5, fabric),
                ..Scenario::new(&program, &design, &packets)
            })
            .assert_clean();
        }

        #[test]
        fn dnat_prebound_bit_equivalent() {
            let program = dnat::program();
            let design = Compiler::new().compile(&program).unwrap();
            let flows = 40;
            let mut packets = Vec::new();
            for r in 0..3 {
                for i in 0..flows {
                    packets.push(build_flow_packet(&flow(i), [1; 6], [2; 6], 64 + r * 16));
                }
            }
            // Pre-bind every flow so the order-dependent port allocator
            // never runs: with static bindings the conn table is pure
            // flow-partitioned state and must merge bit-exactly.
            let setup = move |maps: &mut MapStore| {
                let conn = maps.get_mut(dnat::CONN_MAP).expect("conn map");
                for i in 0..flows {
                    let port = dnat::PORT_BASE + i as u16;
                    let mut val = [0u8; 8];
                    val[..4].copy_from_slice(&dnat::NAT_ADDR);
                    val[4..6].copy_from_slice(&port.to_be_bytes());
                    conn.update(&flow(i).to_key(), &val, UpdateFlags::Any).expect("bind");
                }
            };
            check(&Scenario {
                setup: &setup,
                engine: sharded(4, 11, SharedMapOptions::default()),
                ..Scenario::new(&program, &design, &packets)
            })
            .assert_clean();
        }

        #[test]
        fn firewall_survivors_bit_equivalent_under_replica_kill() {
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(48, 3);
            let report = check(&Scenario {
                merges: &[(simple_firewall::SESSIONS_MAP, MergeStrategy::Union)],
                engine: Engine::Failover {
                    replicas: 4,
                    seed: 7,
                    fabric: SharedMapOptions {
                        shared_maps: vec![simple_firewall::STATS_MAP],
                        ..Default::default()
                    },
                    failures: ReplicaFaultConfig {
                        schedule: vec![ReplicaFault {
                            at: 80,
                            replica: 2,
                            kind: ReplicaFaultKind::Kill,
                        }],
                        watchdog_budget: 64,
                        reset_cycles: 0,
                    },
                },
                ..Scenario::new(&program, &design, &packets)
            });
            report.assert_clean();
            let shards = report.shards.unwrap();
            let f = shards.failover;
            assert_eq!(f.detected, 1, "the kill must be caught");
            assert!(
                !shards.affected.is_empty(),
                "a mid-trace kill on a uniform workload must affect some flows"
            );
            assert!(
                f.availability(4, shards.cycles) >= 0.75 - 0.05,
                "availability below the (N-1)/N - 5% floor"
            );
        }

        #[test]
        fn failover_harness_flags_fabricated_silent_loss() {
            // Negative control: a hang that never fires keeps all
            // replicas healthy, so the harness must find zero losses and
            // zero detections — then a fabricated undetected injection
            // must be representable as a Loss divergence.
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(16, 1);
            let report = check(&Scenario {
                engine: Engine::Failover {
                    replicas: 2,
                    seed: 3,
                    fabric: SharedMapOptions::default(),
                    failures: ReplicaFaultConfig {
                        schedule: vec![ReplicaFault {
                            at: 10_000_000, // far past the trace
                            replica: 0,
                            kind: ReplicaFaultKind::Hang,
                        }],
                        watchdog_budget: 32,
                        reset_cycles: 64,
                    },
                },
                ..Scenario::new(&program, &design, &packets)
            });
            report.assert_clean();
            assert_eq!(report.shards.unwrap().failover.injected, 0, "the fault never fired");
            let loss = Divergence::Loss { detail: "packet 3 lost outside the affected set".into() };
            assert!(loss.to_string().contains("loss:"), "Loss divergences render distinctly");
        }
    }
}
