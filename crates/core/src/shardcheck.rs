//! Static sharding-soundness analysis (the shard-check pass).
//!
//! PRs 7–8 scaled one compiled pipeline across N replicas behind symmetric
//! RSS steering, but *which* maps survive that scale-out — private
//! per-replica copies, a merged counter, or a serialized shared block —
//! was asserted by hand in `SharedMapOptions` and only caught dynamically
//! by the sharded differential and linearizability checkers. This pass
//! lifts those properties into the compiler, consuming the byte-source
//! facts of [`absint`](ehdl_ebpf::absint):
//!
//! 1. **Key provenance** — a map whose every data-plane key is provably
//!    built from the RSS-symmetric 5-tuple bytes (under the steering
//!    parser's guards, with the L4 proto pinned by a key byte or a
//!    single-value guard — the hash mixes the proto byte too) partitions
//!    cleanly per replica: RSS already routes every packet that can touch
//!    a given key to one replica, so a private copy is exact
//!    ([`MapClass::FlowKeyed`]).
//! 2. **Commutativity** — writes that are blind constant atomic adds form
//!    a per-replica delta sum ([`MapClass::SumDelta`]); maps touched only
//!    through single atomic operations serialize soundly in the shared
//!    fabric ([`MapClass::SharedAtomic`]); anything else is an unfenced
//!    read-modify-write whose cross-replica interleavings cannot be
//!    linearized ([`MapClass::OpaqueRmw`]) and is rejected with a typed,
//!    per-instruction [`ShardError`] when replicas > 1.
//! 3. **Replay windows** — atomics commit to map memory in place, so one
//!    caught between an unconfirmed lookup of a hazard-prone map and that
//!    map's pending write commit can re-execute when an FEB flush rolls
//!    the packet back past its stale read (the DNAT port allocator:
//!    `conn lookup < fetch-add < conn update`). Such maps stay sound but
//!    lose the bit-exactness claim ([`MapPlan::replay_risk_pc`]).
//! 4. **Bank pressure** — shared maps addressed only by constant keys hit
//!    one bank no matter how many exist (the measured ~50% conflict rate
//!    of the DNAT port allocator), so the plan pre-assigns a single bank
//!    instead of wasting area on unusable ones.
//!
//! The emitted [`ShardPlan`] rides on every [`PipelineDesign`](crate::PipelineDesign)
//! (`design.shard`); sharded consumers derive fabric/merge configuration
//! from it ([`ShardPlan::shared_map_ids`], [`MapPlan::merge`]) or have
//! hand-written configs rejected by [`ShardPlan::validate_config`].
//!
//! Soundness contract: like the abstract interpreter it builds on, the
//! pass only ever *downgrades* — an unprovable property degrades the map
//! toward [`MapClass::OpaqueRmw`], never the other way — and every
//! verdict is re-checked dynamically by the sharded `diff::check` (which
//! includes `check_linearizable`) in the hwsim cross-validation suite.

use ehdl_ebpf::absint::{Analysis, ByteSrc, MapKeyFact, MapValAccessKind};
use ehdl_ebpf::helpers::{BPF_MAP_DELETE_ELEM, BPF_MAP_UPDATE_ELEM};
use ehdl_ebpf::maps::MapDef;
use std::fmt;

/// First packet byte of the RSS-hashed 5-tuple (IPv4 source address).
const TUPLE_LO: u16 = 26;
/// One past the last hashed tuple byte (end of the L4 destination port).
const TUPLE_HI: u16 = 38;
/// The IPv4 protocol byte — also mixed into the RSS hash, but sitting
/// outside the contiguous address/port range.
const IP_PROTO: u16 = 23;

/// The symmetric-RSS byte involution: source↔destination address bytes
/// and source↔destination port bytes swap; everything else is fixed.
fn sigma(o: u16) -> u16 {
    match o {
        26..=29 => o + 4,
        30..=33 => o - 4,
        34 | 35 => o + 2,
        36 | 37 => o - 2,
        _ => o,
    }
}

/// How the data plane uses a map, in decreasing order of freedom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapClass {
    /// Never written from the data plane: replicate freely.
    ReadOnly,
    /// Every key is a guarded function of the symmetric 5-tuple: RSS
    /// already partitions the keyspace per replica, so private copies
    /// merge by conflict-free union.
    FlowKeyed,
    /// Only blind constant atomic adds: private copies merge by per-word
    /// delta sum regardless of how keys are formed.
    SumDelta,
    /// Arbitrarily keyed, but every mutation is a single atomic
    /// operation: sound when serialized through the shared fabric.
    SharedAtomic,
    /// Unfenced read-modify-write on cross-replica state: no placement
    /// is sound beyond one replica.
    OpaqueRmw,
}

impl MapClass {
    /// Short lowercase name (bench reports, diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            MapClass::ReadOnly => "read-only",
            MapClass::FlowKeyed => "flow-keyed",
            MapClass::SumDelta => "sum-delta",
            MapClass::SharedAtomic => "shared-atomic",
            MapClass::OpaqueRmw => "opaque-rmw",
        }
    }
}

/// Where the plan places a map's storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One copy per replica.
    Private,
    /// One canonical copy behind the shared-map fabric.
    Shared,
}

/// How private copies reconstruct the sequential-reference contents —
/// the compiler-level mirror of the simulator's merge strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Conflict-free union of per-replica entries.
    Union,
    /// `initial + Σ (replica − initial)` per 64-bit word.
    SumDelta,
    /// Compare the single shared copy directly.
    Direct,
    /// No sound reconstruction exists.
    Ignore,
}

impl MergePolicy {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            MergePolicy::Union => "union",
            MergePolicy::SumDelta => "sum-delta",
            MergePolicy::Direct => "direct",
            MergePolicy::Ignore => "ignore",
        }
    }
}

/// The verified sharding verdict for one map.
#[derive(Debug, Clone, PartialEq)]
pub struct MapPlan {
    /// Map id.
    pub map: u32,
    /// Map name (diagnostics and reports).
    pub name: String,
    /// Usage class the analysis proved.
    pub class: MapClass,
    /// Derived storage placement.
    pub placement: Placement,
    /// Derived merge policy for private copies.
    pub merge: MergePolicy,
    /// True when the merged/shared contents provably equal the sequential
    /// reference VM's final map state on any trace (the differential
    /// checker must find zero divergences on this map).
    pub vm_exact: bool,
    /// First atomic site inside a hazard-replay window, if any: the
    /// atomic commits to map memory immediately, but sits between an
    /// unconfirmed lookup of a hazard-prone map and that map's pending
    /// write commit, so an FEB flush can roll the packet back past its
    /// stale read and re-execute the already-committed atomic. Such a
    /// map can over-count relative to the sequential reference even on
    /// a single pipeline, so it is never [`vm_exact`](Self::vm_exact).
    pub replay_risk_pc: Option<usize>,
    /// Pre-assigned bank count when shared: constant-keyed maps get one
    /// bank (a single hot key cannot be spread), others the fabric
    /// default.
    pub banks: u32,
    /// Data-plane read sites (lookups + value loads).
    pub reads: usize,
    /// Data-plane write sites (updates, deletes, value stores, atomics).
    pub writes: usize,
    /// Static bank-pressure estimate: map access sites reachable per
    /// packet (an upper bound — predication may disable some).
    pub accesses_per_packet: usize,
    /// First key site that defeats flow partitioning, if any.
    pub non_flow_pc: Option<usize>,
    /// First write that does not commute as a delta, if any.
    pub non_commutative_pc: Option<usize>,
    /// First data-plane read site (race-diagnostic anchor).
    pub first_read_pc: Option<usize>,
    /// First data-plane write site (race-diagnostic anchor).
    pub first_write_pc: Option<usize>,
}

/// The derived, verified sharding plan of a design.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardPlan {
    /// True when the pass ran (absint enabled); false leaves every map
    /// unclassified and makes [`ShardPlan::require_sound`] reject any
    /// multi-replica deployment.
    pub analyzed: bool,
    /// One verdict per map, in map-definition order.
    pub maps: Vec<MapPlan>,
}

/// A statically-detected sharding-soundness violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// A map key is not a guarded function of the symmetric 5-tuple, so
    /// per-replica partitioning (a `Union` merge) is unsound.
    NonSymmetricKey {
        /// Offending map.
        map: u32,
        /// Slot of the first key site that breaks the proof.
        pc: usize,
    },
    /// A write does not commute as a per-word delta, so a `SumDelta`
    /// merge is unsound.
    NonCommutativeWrite {
        /// Offending map.
        map: u32,
        /// Slot of the first non-commuting write.
        pc: usize,
    },
    /// An unfenced read-modify-write sequence on cross-replica state:
    /// interleavings across replicas cannot be linearized.
    CrossReplicaRace {
        /// Offending map.
        map: u32,
        /// Slot of the first data-plane read of the sequence.
        read_pc: usize,
        /// Slot of the first dependent write.
        write_pc: usize,
    },
    /// The design was compiled without the value analysis; no sharding
    /// property is proven.
    Unanalyzed,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NonSymmetricKey { map, pc } => write!(
                f,
                "map {map}: key built at slot {pc} is not a guarded symmetric 5-tuple \
                 function; per-replica partitioning is unsound"
            ),
            ShardError::NonCommutativeWrite { map, pc } => write!(
                f,
                "map {map}: write at slot {pc} does not commute as a delta; \
                 sum-delta merging is unsound"
            ),
            ShardError::CrossReplicaRace { map, read_pc, write_pc } => write!(
                f,
                "map {map}: unfenced read-modify-write (read at slot {read_pc}, \
                 write at slot {write_pc}) races across replicas"
            ),
            ShardError::Unanalyzed => {
                write!(f, "design compiled without value analysis; sharding unproven")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Is this byte source packet- and map-state-independent, or a stable
/// function of original packet bytes? (The set of sources a deterministic
/// per-packet value may be built from.)
fn pure_per_packet(b: ByteSrc) -> bool {
    matches!(b, ByteSrc::Zero | ByteSrc::Const | ByteSrc::Pkt(_))
}

/// Per-site flow-key verdict: `Ok((signature, guard_proto))` with the
/// key's byte sources when the site can partition, `Err(())` otherwise.
/// `guard_proto` is `Some(v)` when the proto is pinned only by the path
/// guard (not by a key byte), `None` when a `Pkt(23)` key byte pins it.
fn flow_key_signature(
    fact: &MapKeyFact,
    key_size: usize,
) -> Result<(Vec<ByteSrc>, Option<u8>), ()> {
    // The steering parser's preconditions must hold on every path to the
    // access, or a packet it refuses to hash could still form this key.
    if !fact.tuple_guarded || fact.min_len < i64::from(TUPLE_HI) {
        return Err(());
    }
    let key = fact.key.as_ref().ok_or(())?;
    if key.len() < key_size {
        return Err(());
    }
    let key = &key[..key_size];
    let mut covered = [false; (TUPLE_HI - TUPLE_LO) as usize];
    let mut proto_in_key = false;
    for b in key {
        match *b {
            ByteSrc::Zero | ByteSrc::Const => {}
            ByteSrc::Pkt(o) => {
                if (TUPLE_LO..TUPLE_HI).contains(&o) {
                    covered[(o - TUPLE_LO) as usize] = true;
                }
                if o == IP_PROTO {
                    proto_in_key = true;
                }
            }
            ByteSrc::MapVal | ByteSrc::Other => return Err(()),
        }
    }
    // Equal keys must imply equal RSS hashes, so the key has to pin the
    // whole hashed tuple.
    if !covered.iter().all(|&c| c) {
        return Err(());
    }
    // The hash mixes the proto byte too: under the two-value TCP/UDP
    // guard, a TCP and a UDP flow with identical addresses and ports
    // form the same key yet steer to different replicas. The proto must
    // be pinned — by a key byte, or by a single-value path guard.
    let guard_proto = if proto_in_key { None } else { Some(fact.proto.ok_or(())?) };
    Ok((key.to_vec(), guard_proto))
}

/// Can keys from sites `a` and `b` ever collide across replicas? Sound
/// when some uniform mode (identity or the symmetric swap σ) relates
/// every packet-sourced byte pair — then key equality forces the two
/// packets' hashed tuples equal (identity) or mirrored (σ), and the
/// symmetric hash steers both to the same replica.
fn sites_compatible(a: &[ByteSrc], b: &[ByteSrc]) -> bool {
    let mode_ok = |swap: bool| {
        a.iter().zip(b).all(|(x, y)| match (*x, *y) {
            (ByteSrc::Pkt(p), ByteSrc::Pkt(q)) => q == if swap { sigma(p) } else { p },
            (ByteSrc::Pkt(_), _) | (_, ByteSrc::Pkt(_)) => false,
            _ => true,
        })
    };
    a.len() == b.len() && (mode_ok(false) || mode_ok(true))
}

/// Run the sharding-soundness analysis over a design's maps.
///
/// `analysis` is the abstract interpretation of the same (unrolled)
/// instruction stream the design was compiled from; `None` (analysis
/// disabled) yields an unanalyzed plan.
pub fn analyze(maps: &[MapDef], analysis: Option<&Analysis>) -> ShardPlan {
    let Some(an) = analysis else {
        return ShardPlan { analyzed: false, maps: Vec::new() };
    };
    let windows = hazard_windows(an);
    let mut plan = ShardPlan { analyzed: true, maps: Vec::with_capacity(maps.len()) };
    for def in maps {
        plan.maps.push(classify(def, an, &windows));
    }
    plan
}

/// Per-map FEB hazard window: `(earliest lookup pc, latest helper
/// update/delete pc)` for every map that has both, i.e. every map whose
/// pending write can trigger a stale-read flush. An atomic executed at a
/// pc strictly inside such a window may be rolled back past the stale
/// read and re-executed on replay — but its in-place commit to map
/// memory cannot be undone.
fn hazard_windows(an: &Analysis) -> Vec<(usize, usize)> {
    use std::collections::BTreeMap;
    let mut lookups: BTreeMap<u32, usize> = BTreeMap::new();
    let mut writes: BTreeMap<u32, usize> = BTreeMap::new();
    for f in &an.map_keys {
        if f.helper == BPF_MAP_UPDATE_ELEM || f.helper == BPF_MAP_DELETE_ELEM {
            let e = writes.entry(f.map).or_insert(f.pc);
            *e = (*e).max(f.pc);
        } else {
            let e = lookups.entry(f.map).or_insert(f.pc);
            *e = (*e).min(f.pc);
        }
    }
    lookups
        .iter()
        .filter_map(|(m, &l)| writes.get(m).map(|&w| (l, w)))
        .filter(|(l, w)| l < w)
        .collect()
}

fn classify(def: &MapDef, an: &Analysis, windows: &[(usize, usize)]) -> MapPlan {
    let key_facts: Vec<&MapKeyFact> = an.map_keys.iter().filter(|f| f.map == def.id).collect();
    let val_facts: Vec<_> = an.map_val_accesses.iter().filter(|f| f.map == def.id).collect();

    let mut reads = 0usize;
    let mut writes = 0usize;
    let mut first_read_pc = None;
    let mut first_write_pc = None;
    let mut non_commutative_pc = None;
    // Write-shape summary.
    let mut helper_writes: Vec<&MapKeyFact> = Vec::new();
    let mut all_writes_blind_pure_adds = true;
    let mut all_writes_atomic = true;
    let mut all_atomics_pure_adds = true;

    let mut note_read = |pc: usize, reads: &mut usize| {
        *reads += 1;
        first_read_pc.get_or_insert(pc);
    };
    for f in &key_facts {
        if f.helper == BPF_MAP_UPDATE_ELEM || f.helper == BPF_MAP_DELETE_ELEM {
            writes += 1;
            first_write_pc.get_or_insert(f.pc);
            non_commutative_pc.get_or_insert(f.pc);
            helper_writes.push(f);
            all_writes_blind_pure_adds = false;
            all_writes_atomic = false;
        } else {
            note_read(f.pc, &mut reads);
        }
    }
    for f in &val_facts {
        match f.kind {
            MapValAccessKind::Load => note_read(f.pc, &mut reads),
            MapValAccessKind::Store => {
                writes += 1;
                first_write_pc.get_or_insert(f.pc);
                non_commutative_pc.get_or_insert(f.pc);
                all_writes_blind_pure_adds = false;
                all_writes_atomic = false;
            }
            MapValAccessKind::AtomicAdd { fetch, pure_operand } => {
                writes += 1;
                first_write_pc.get_or_insert(f.pc);
                if fetch || !pure_operand {
                    all_writes_blind_pure_adds = false;
                }
                if !pure_operand {
                    all_atomics_pure_adds = false;
                }
            }
            MapValAccessKind::AtomicOther => {
                writes += 1;
                first_write_pc.get_or_insert(f.pc);
                non_commutative_pc.get_or_insert(f.pc);
                all_writes_blind_pure_adds = false;
                all_atomics_pure_adds = false;
            }
        }
    }

    // Atomics caught inside another map's hazard-replay window: the
    // in-place commit may re-execute when a stale-read flush rolls the
    // packet back past a lookup that precedes it.
    let replay_risk_pc = val_facts
        .iter()
        .filter(|f| {
            matches!(f.kind, MapValAccessKind::AtomicAdd { .. } | MapValAccessKind::AtomicOther)
        })
        .find(|f| windows.iter().any(|&(l, w)| l < f.pc && f.pc < w))
        .map(|f| f.pc);

    // Key-provenance proof: every helper key site must partition, and
    // every pair of sites must be identity- or σ-related.
    let key_size = def.key_size as usize;
    let mut non_flow_pc = None;
    let mut signatures = Vec::with_capacity(key_facts.len());
    for f in &key_facts {
        match flow_key_signature(f, key_size) {
            Ok((sig, guard_proto)) => signatures.push((f.pc, sig, guard_proto)),
            Err(()) => {
                non_flow_pc.get_or_insert(f.pc);
            }
        }
    }
    if non_flow_pc.is_none() {
        'pairs: for (i, (_, a, pa)) in signatures.iter().enumerate() {
            for (pc, b, pb) in &signatures[i + 1..] {
                // Guard-pinned protos must agree across sites (key-pinned
                // sites carry the proto in the signature itself, which
                // `sites_compatible` already forces to match).
                let protos_agree = match (pa, pb) {
                    (None, None) => true,
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                };
                if !protos_agree || !sites_compatible(a, b) {
                    non_flow_pc = Some(*pc);
                    break 'pairs;
                }
            }
        }
    }
    let flow_ok = non_flow_pc.is_none() && !key_facts.is_empty();

    let class = if writes == 0 {
        MapClass::ReadOnly
    } else if flow_ok {
        MapClass::FlowKeyed
    } else if all_writes_blind_pure_adds {
        MapClass::SumDelta
    } else if all_writes_atomic {
        MapClass::SharedAtomic
    } else {
        MapClass::OpaqueRmw
    };

    // Exactness of the merged contents against the sequential reference.
    let vm_exact = match class {
        MapClass::ReadOnly | MapClass::SumDelta => true,
        // Per-key access order is preserved (one replica owns each key),
        // so contents are exact unless a written value depends on
        // cross-map or fetched state.
        MapClass::FlowKeyed => {
            helper_writes.iter().all(|f| {
                f.helper != BPF_MAP_UPDATE_ELEM
                    || f.value.as_ref().is_some_and(|v| {
                        v.len() >= def.value_size as usize
                            && v[..def.value_size as usize].iter().copied().all(pure_per_packet)
                    })
            }) && val_facts.iter().all(|f| match f.kind {
                MapValAccessKind::Load => true,
                MapValAccessKind::AtomicAdd { fetch: false, pure_operand } => pure_operand,
                _ => false,
            })
        }
        // The serialized counter ends at `initial + Σ deltas` whenever
        // every mutation is a pure add — same sum in any order.
        MapClass::SharedAtomic => all_atomics_pure_adds,
        MapClass::OpaqueRmw => false,
    } && replay_risk_pc.is_none();

    let placement = match class {
        MapClass::SharedAtomic | MapClass::OpaqueRmw => Placement::Shared,
        _ => Placement::Private,
    };
    let merge = match class {
        MapClass::ReadOnly | MapClass::FlowKeyed => MergePolicy::Union,
        MapClass::SumDelta => MergePolicy::SumDelta,
        MapClass::SharedAtomic => MergePolicy::Direct,
        MapClass::OpaqueRmw => MergePolicy::Ignore,
    };
    // Bank pressure: keys that are path constants address a fixed entry
    // set; with a single site there is exactly one hot entry, so extra
    // banks cannot reduce conflicts (PR 7 measured ~50% conflicts on the
    // 1-entry DNAT port allocator regardless of banking).
    let const_keys_only = !key_facts.is_empty()
        && key_facts.iter().all(|f| {
            f.key.as_ref().is_some_and(|k| {
                k.len() >= key_size
                    && k[..key_size].iter().all(|b| matches!(b, ByteSrc::Zero | ByteSrc::Const))
            })
        });
    let banks = if placement == Placement::Shared && (const_keys_only || def.max_entries == 1) {
        1
    } else {
        8
    };

    MapPlan {
        map: def.id,
        name: def.name.clone(),
        class,
        placement,
        merge,
        vm_exact,
        replay_risk_pc,
        banks,
        reads,
        writes,
        accesses_per_packet: key_facts.len() + val_facts.len(),
        non_flow_pc,
        non_commutative_pc,
        first_read_pc,
        first_write_pc,
    }
}

impl ShardPlan {
    /// The plan's verdict for map `id`.
    pub fn map(&self, id: u32) -> Option<&MapPlan> {
        self.maps.iter().find(|m| m.map == id)
    }

    /// Ids the plan places behind the shared fabric.
    pub fn shared_map_ids(&self) -> Vec<u32> {
        self.maps.iter().filter(|m| m.placement == Placement::Shared).map(|m| m.map).collect()
    }

    /// Derived per-map merge policies (private maps only need them, but
    /// listing all is harmless).
    pub fn merge_policies(&self) -> Vec<(u32, MergePolicy)> {
        self.maps.iter().map(|m| (m.map, m.merge)).collect()
    }

    /// Bank count the shared fabric should instantiate: the largest
    /// pre-assignment over shared maps (1 when every shared map is
    /// constant-keyed).
    pub fn fabric_banks(&self) -> u32 {
        self.maps
            .iter()
            .filter(|m| m.placement == Placement::Shared)
            .map(|m| m.banks)
            .max()
            .unwrap_or(8)
    }

    /// Do all maps merge exactly — i.e. must a sharded differential run
    /// against the sequential reference be divergence-free?
    pub fn all_exact(&self) -> bool {
        self.analyzed && self.maps.iter().all(|m| m.vm_exact)
    }

    /// Reject deployments the plan cannot prove sound at `replicas`.
    ///
    /// # Errors
    ///
    /// One [`ShardError`] per offending map; single-replica deployments
    /// are always sound.
    pub fn require_sound(&self, replicas: usize) -> Result<(), Vec<ShardError>> {
        if replicas <= 1 {
            return Ok(());
        }
        if !self.analyzed {
            return Err(vec![ShardError::Unanalyzed]);
        }
        let errs: Vec<ShardError> = self
            .maps
            .iter()
            .filter(|m| m.class == MapClass::OpaqueRmw)
            .map(|m| ShardError::CrossReplicaRace {
                map: m.map,
                read_pc: m.first_read_pc.or(m.first_write_pc).unwrap_or(0),
                write_pc: m.first_write_pc.unwrap_or(0),
            })
            .collect();
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Validate a hand-written sharding configuration against the proof:
    /// every map left private with a `Union` merge must be flow-keyed,
    /// every `SumDelta` merge needs commutative writes, and written maps
    /// that are neither must be serialized behind the fabric (listed in
    /// `shared`) *and* touched only through single atomic operations —
    /// the fabric linearizes individual accesses, not lookup→store
    /// sequences, so an unfenced RMW races in any placement (exactly as
    /// [`ShardPlan::require_sound`] rules). Otherwise the config is
    /// rejected with the offending instruction.
    ///
    /// # Errors
    ///
    /// One [`ShardError`] per unsound map config.
    pub fn validate_config(
        &self,
        replicas: usize,
        shared: &[u32],
        merge: &[(u32, MergePolicy)],
    ) -> Result<(), Vec<ShardError>> {
        if replicas <= 1 {
            return Ok(());
        }
        if !self.analyzed {
            return Err(vec![ShardError::Unanalyzed]);
        }
        let race = |m: &MapPlan| ShardError::CrossReplicaRace {
            map: m.map,
            read_pc: m.first_read_pc.or(m.first_write_pc).unwrap_or(0),
            write_pc: m.first_write_pc.unwrap_or(0),
        };
        let mut errs = Vec::new();
        for m in &self.maps {
            if m.writes == 0 {
                continue;
            }
            if shared.contains(&m.map) {
                // The fabric serializes single accesses, not read→write
                // sequences: an unfenced RMW races even when shared, so
                // listing it in `shared` must not approve what
                // `require_sound` rejects.
                if m.class == MapClass::OpaqueRmw {
                    errs.push(race(m));
                }
                continue;
            }
            let chosen = merge.iter().find(|(id, _)| *id == m.map).map(|&(_, p)| p).unwrap_or(
                match m.merge {
                    // An explicit default a caller would pick.
                    MergePolicy::Ignore => MergePolicy::Union,
                    p => p,
                },
            );
            match chosen {
                MergePolicy::Union => {
                    if m.class != MapClass::FlowKeyed {
                        errs.push(ShardError::NonSymmetricKey {
                            map: m.map,
                            pc: m.non_flow_pc.or(m.first_write_pc).unwrap_or(0),
                        });
                    }
                }
                MergePolicy::SumDelta => {
                    if let Some(pc) = m.non_commutative_pc {
                        errs.push(ShardError::NonCommutativeWrite { map: m.map, pc });
                    }
                }
                MergePolicy::Direct | MergePolicy::Ignore => {
                    // A private map cannot be compared directly; ignoring
                    // is only sound when nothing is at stake — an
                    // unfenced RMW left private is still a race.
                    if m.class == MapClass::OpaqueRmw {
                        errs.push(race(m));
                    }
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::helpers::{BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM};
    use ehdl_ebpf::insn::Instruction;
    use ehdl_ebpf::maps::{MapDef, MapKind};
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
    use ehdl_ebpf::Program;

    fn plan_of(p: &Program) -> ShardPlan {
        Compiler::new().compile(p).unwrap().shard
    }

    /// Slots of every `call helper` in the (loop-free) program.
    fn call_pcs(p: &Program, helper: u32) -> Vec<usize> {
        p.decode()
            .unwrap()
            .iter()
            .filter(|d| matches!(d.insn, Instruction::Call { helper: h } if h == helper))
            .map(|d| d.pc)
            .collect()
    }

    /// Shared preamble: r7 = data, r8 = data_end, bounds check to 42,
    /// EtherType == 0x0800 and proto == UDP guards (jump to `out` else).
    fn guarded_preamble(a: &mut Asm, out: ehdl_ebpf::asm::Label) {
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(1, 7);
        a.alu64_imm(AluOp::Add, 1, 42);
        a.jmp_reg(JmpOp::Jgt, 1, 8, out);
        a.load(MemSize::B, 2, 7, 12);
        a.load(MemSize::B, 1, 7, 13);
        a.alu64_imm(AluOp::Lsh, 2, 8);
        a.alu64_reg(AluOp::Or, 2, 1);
        a.jmp_imm(JmpOp::Jne, 2, 0x0800, out);
        a.load(MemSize::B, 2, 7, 23);
        a.jmp_imm(JmpOp::Jne, 2, 17, out);
    }

    /// Store the canonical 13-byte tuple key at `fp+base`.
    fn build_tuple_key(a: &mut Asm, base: i16) {
        a.load(MemSize::W, 1, 7, 26);
        a.store_reg(MemSize::W, 10, base, 1);
        a.load(MemSize::W, 1, 7, 30);
        a.store_reg(MemSize::W, 10, base + 4, 1);
        a.load(MemSize::W, 1, 7, 34);
        a.store_reg(MemSize::W, 10, base + 8, 1);
        a.load(MemSize::B, 1, 7, 23);
        a.store_reg(MemSize::B, 10, base + 12, 1);
    }

    fn finish(a: &mut Asm, out: ehdl_ebpf::asm::Label) {
        a.bind(out);
        a.mov64_imm(0, 2);
        a.exit();
    }

    fn hash_map(id: u32) -> MapDef {
        MapDef::new(id, "m", MapKind::Hash, 13, 8, 1024)
    }

    /// A blind counter bump whose atomic sits between another map's
    /// lookup and pending update commit can re-execute on an FEB replay;
    /// the same bump after the update commit cannot.
    #[test]
    fn atomic_in_replay_window_loses_exactness() {
        use ehdl_ebpf::opcode::AtomicOp;
        let build = |bump_before_update: bool| {
            let mut a = Asm::new();
            let out = a.new_label();
            guarded_preamble(&mut a, out);
            build_tuple_key(&mut a, -16);
            a.ld_map_fd(1, 0);
            a.mov64_reg(2, 10);
            a.alu64_imm(AluOp::Add, 2, -16);
            a.call(BPF_MAP_LOOKUP_ELEM);
            let bump = |a: &mut Asm| {
                a.mov64_imm(1, 0);
                a.store_reg(MemSize::W, 10, -20, 1);
                a.ld_map_fd(1, 1);
                a.mov64_reg(2, 10);
                a.alu64_imm(AluOp::Add, 2, -20);
                a.call(BPF_MAP_LOOKUP_ELEM);
                a.jmp_imm(JmpOp::Jeq, 0, 0, out);
                a.mov64_imm(2, 1);
                a.atomic(AtomicOp::Add { fetch: false }, MemSize::Dw, 0, 0, 2);
            };
            let update = |a: &mut Asm| {
                a.mov64_imm(1, 7);
                a.store_reg(MemSize::Dw, 10, -32, 1);
                a.ld_map_fd(1, 0);
                a.mov64_reg(2, 10);
                a.alu64_imm(AluOp::Add, 2, -16);
                a.mov64_reg(3, 10);
                a.alu64_imm(AluOp::Add, 3, -32);
                a.mov64_imm(4, 0);
                a.call(BPF_MAP_UPDATE_ELEM);
            };
            if bump_before_update {
                bump(&mut a);
                update(&mut a);
            } else {
                update(&mut a);
                bump(&mut a);
            }
            finish(&mut a, out);
            Program::new(
                "t",
                a.into_insns(),
                vec![hash_map(0), MapDef::new(1, "ctr", MapKind::Array, 4, 8, 1)],
            )
        };

        let risky = build(true);
        let plan = plan_of(&risky);
        let ctr = plan.map(1).unwrap();
        assert_eq!(ctr.class, MapClass::SumDelta);
        let atomic_pc = risky
            .decode()
            .unwrap()
            .iter()
            .find(|d| matches!(d.insn, Instruction::Atomic { .. }))
            .map(|d| d.pc)
            .unwrap();
        assert_eq!(ctr.replay_risk_pc, Some(atomic_pc));
        assert!(!ctr.vm_exact, "a replayable atomic can over-count");
        // The flow-keyed map itself only has pending-write sites, which
        // flushes discard — it keeps its exactness.
        assert!(plan.map(0).unwrap().vm_exact);

        let safe = build(false);
        let ctr = plan_of(&safe).map(1).cloned().unwrap();
        assert_eq!(ctr.replay_risk_pc, None);
        assert!(ctr.vm_exact, "past the update commit the atomic cannot replay");
    }

    #[test]
    fn tuple_keyed_update_is_flow_keyed_union_exact() {
        let mut a = Asm::new();
        let out = a.new_label();
        guarded_preamble(&mut a, out);
        build_tuple_key(&mut a, -16);
        a.mov64_imm(1, 1);
        a.store_reg(MemSize::Dw, 10, -48, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -16);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -48);
        a.mov64_imm(4, 0);
        a.call(BPF_MAP_UPDATE_ELEM);
        finish(&mut a, out);
        let p = Program::new("t", a.into_insns(), vec![hash_map(0)]);
        let plan = plan_of(&p);
        let m = plan.map(0).unwrap();
        assert_eq!(m.class, MapClass::FlowKeyed);
        assert_eq!(m.placement, Placement::Private);
        assert_eq!(m.merge, MergePolicy::Union);
        assert!(m.vm_exact);
        assert!(plan.require_sound(4).is_ok());
        assert!(plan.validate_config(4, &[], &[(0, MergePolicy::Union)]).is_ok());
    }

    #[test]
    fn non_symmetric_key_rejected_under_union() {
        // Key = source address only: two replicas can both hold flows of
        // the same saddr (different dport), so Union is unsound.
        let mut a = Asm::new();
        let out = a.new_label();
        guarded_preamble(&mut a, out);
        a.load(MemSize::W, 1, 7, 26);
        a.store_reg(MemSize::W, 10, -16, 1);
        a.mov64_imm(1, 1);
        a.store_reg(MemSize::Dw, 10, -48, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -16);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -48);
        a.mov64_imm(4, 0);
        a.call(BPF_MAP_UPDATE_ELEM);
        finish(&mut a, out);
        let p =
            Program::new("t", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Hash, 4, 8, 64)]);
        let update_pc = call_pcs(&p, BPF_MAP_UPDATE_ELEM)[0];
        let plan = plan_of(&p);
        let errs = plan.validate_config(2, &[], &[(0, MergePolicy::Union)]).unwrap_err();
        assert_eq!(errs, vec![ShardError::NonSymmetricKey { map: 0, pc: update_pc }]);
        // Single replica: any config is trivially sound.
        assert!(plan.validate_config(1, &[], &[(0, MergePolicy::Union)]).is_ok());
    }

    /// A key covering the addresses and ports but not the proto byte is
    /// only flow-partitionable when the path guard pins a single L4
    /// protocol: the RSS hash mixes the proto byte, so under the
    /// two-value TCP/UDP guard a TCP and a UDP flow with identical
    /// addresses and ports form the same key yet steer to different
    /// replicas.
    #[test]
    fn protoless_key_needs_single_proto_guard() {
        let build = |two_proto_guard: bool| {
            let mut a = Asm::new();
            let out = a.new_label();
            a.load(MemSize::W, 7, 1, 0);
            a.load(MemSize::W, 8, 1, 4);
            a.mov64_reg(1, 7);
            a.alu64_imm(AluOp::Add, 1, 42);
            a.jmp_reg(JmpOp::Jgt, 1, 8, out);
            a.load(MemSize::B, 2, 7, 12);
            a.load(MemSize::B, 1, 7, 13);
            a.alu64_imm(AluOp::Lsh, 2, 8);
            a.alu64_reg(AluOp::Or, 2, 1);
            a.jmp_imm(JmpOp::Jne, 2, 0x0800, out);
            a.load(MemSize::B, 2, 7, 23);
            if two_proto_guard {
                let l4 = a.new_label();
                a.jmp_imm(JmpOp::Jeq, 2, 6, l4);
                a.jmp_imm(JmpOp::Jne, 2, 17, out);
                a.bind(l4);
            } else {
                a.jmp_imm(JmpOp::Jne, 2, 17, out);
            }
            // 12-byte key: addresses + ports only, no proto byte.
            a.load(MemSize::W, 1, 7, 26);
            a.store_reg(MemSize::W, 10, -16, 1);
            a.load(MemSize::W, 1, 7, 30);
            a.store_reg(MemSize::W, 10, -12, 1);
            a.load(MemSize::W, 1, 7, 34);
            a.store_reg(MemSize::W, 10, -8, 1);
            a.mov64_imm(1, 1);
            a.store_reg(MemSize::Dw, 10, -48, 1);
            a.ld_map_fd(1, 0);
            a.mov64_reg(2, 10);
            a.alu64_imm(AluOp::Add, 2, -16);
            a.mov64_reg(3, 10);
            a.alu64_imm(AluOp::Add, 3, -48);
            a.mov64_imm(4, 0);
            a.call(BPF_MAP_UPDATE_ELEM);
            finish(&mut a, out);
            Program::new("t", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Hash, 12, 8, 1024)])
        };

        // Single-proto guard: the guard pins the proto byte the key
        // omits, so the key still partitions.
        let plan = plan_of(&build(false));
        assert_eq!(plan.map(0).unwrap().class, MapClass::FlowKeyed);
        assert!(plan.require_sound(4).is_ok());

        // proto ∈ {TCP, UDP}: the same key can be formed on two replicas,
        // and the whole-value update leaves no other sound class.
        let p = build(true);
        let update_pc = call_pcs(&p, BPF_MAP_UPDATE_ELEM)[0];
        let plan = plan_of(&p);
        let m = plan.map(0).unwrap();
        assert_eq!(m.class, MapClass::OpaqueRmw);
        assert_eq!(m.non_flow_pc, Some(update_pc));
        assert!(plan.require_sound(4).is_err());
        let errs = plan.validate_config(4, &[], &[(0, MergePolicy::Union)]).unwrap_err();
        assert_eq!(errs, vec![ShardError::NonSymmetricKey { map: 0, pc: update_pc }]);
    }

    #[test]
    fn non_commutative_write_rejected_under_sum_delta() {
        // A whole-value helper update does not commute as a delta.
        let mut a = Asm::new();
        let out = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -4, 1);
        a.mov64_imm(1, 7);
        a.store_reg(MemSize::Dw, 10, -16, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -16);
        a.mov64_imm(4, 0);
        a.call(BPF_MAP_UPDATE_ELEM);
        finish(&mut a, out);
        let p =
            Program::new("t", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Array, 4, 8, 4)]);
        let update_pc = call_pcs(&p, BPF_MAP_UPDATE_ELEM)[0];
        let plan = plan_of(&p);
        let errs = plan.validate_config(2, &[], &[(0, MergePolicy::SumDelta)]).unwrap_err();
        assert_eq!(errs, vec![ShardError::NonCommutativeWrite { map: 0, pc: update_pc }]);
    }

    #[test]
    fn unfenced_rmw_race_detected() {
        // lookup(const key) → load value → store value+1: a lost update
        // across replicas. Sound at one replica, a typed race beyond.
        let mut a = Asm::new();
        let out = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -4, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, out);
        a.load(MemSize::Dw, 1, 0, 0);
        a.alu64_imm(AluOp::Add, 1, 1);
        a.store_reg(MemSize::Dw, 0, 0, 1);
        finish(&mut a, out);
        let p =
            Program::new("t", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Array, 4, 8, 1)]);
        let lookup_pc = call_pcs(&p, BPF_MAP_LOOKUP_ELEM)[0];
        let plan = plan_of(&p);
        let m = plan.map(0).unwrap();
        assert_eq!(m.class, MapClass::OpaqueRmw);
        assert!(!m.vm_exact);
        assert!(plan.require_sound(1).is_ok());
        let errs = plan.require_sound(2).unwrap_err();
        assert_eq!(errs.len(), 1);
        let ShardError::CrossReplicaRace { map, read_pc, write_pc } = errs[0] else {
            panic!("expected CrossReplicaRace, got {:?}", errs[0]);
        };
        assert_eq!(map, 0);
        assert_eq!(read_pc, lookup_pc);
        // The dependent write is the value store after the null check.
        let decoded = p.decode().unwrap();
        assert!(write_pc > read_pc);
        assert!(matches!(
            decoded.iter().find(|d| d.pc == write_pc).unwrap().insn,
            Instruction::Store { size: MemSize::Dw, .. }
        ));
        // Leaving the map private + Ignore does not silence the race.
        let errs = plan.validate_config(2, &[], &[(0, MergePolicy::Ignore)]).unwrap_err();
        assert!(matches!(errs[0], ShardError::CrossReplicaRace { map: 0, .. }));
        // Neither does serializing it behind the fabric: the fabric
        // linearizes single accesses, not the lookup→store sequence, so
        // the hand config is rejected exactly like `require_sound` does.
        let errs = plan.validate_config(2, &[0], &[]).unwrap_err();
        assert!(matches!(errs[0], ShardError::CrossReplicaRace { map: 0, .. }));
    }

    #[test]
    fn blind_atomic_adds_are_sum_delta() {
        let mut a = Asm::new();
        let out = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -4, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, out);
        a.mov64_reg(1, 0);
        a.mov64_imm(2, 1);
        a.atomic_add64(1, 0, 2);
        finish(&mut a, out);
        let p =
            Program::new("t", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Array, 4, 8, 4)]);
        let plan = plan_of(&p);
        let m = plan.map(0).unwrap();
        assert_eq!(m.class, MapClass::SumDelta);
        assert_eq!(m.placement, Placement::Private);
        assert_eq!(m.merge, MergePolicy::SumDelta);
        assert!(m.vm_exact);
        assert!(plan.require_sound(8).is_ok());
        assert!(plan.all_exact());
    }

    #[test]
    fn fetch_add_counter_is_shared_atomic_single_bank() {
        use ehdl_ebpf::opcode::AtomicOp;
        let mut a = Asm::new();
        let out = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -4, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, out);
        a.mov64_imm(2, 1);
        a.atomic(AtomicOp::Add { fetch: true }, MemSize::Dw, 0, 0, 2);
        finish(&mut a, out);
        let p =
            Program::new("t", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Array, 4, 8, 1)]);
        let plan = plan_of(&p);
        let m = plan.map(0).unwrap();
        assert_eq!(m.class, MapClass::SharedAtomic);
        assert_eq!(m.placement, Placement::Shared);
        assert_eq!(m.merge, MergePolicy::Direct);
        assert!(m.vm_exact, "pure fetch-adds sum to the same final counter");
        assert_eq!(m.banks, 1, "a constant-keyed shared map gets one bank");
        assert_eq!(plan.fabric_banks(), 1);
        assert_eq!(plan.shared_map_ids(), vec![0]);
        assert!(plan.require_sound(4).is_ok());
    }

    #[test]
    fn lookup_only_map_is_read_only() {
        let mut a = Asm::new();
        let out = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -4, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(BPF_MAP_LOOKUP_ELEM);
        finish(&mut a, out);
        let p =
            Program::new("t", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Hash, 4, 8, 64)]);
        let plan = plan_of(&p);
        let m = plan.map(0).unwrap();
        assert_eq!(m.class, MapClass::ReadOnly);
        assert!(m.vm_exact);
        assert_eq!(m.writes, 0);
        assert!(plan.require_sound(16).is_ok());
    }

    #[test]
    fn unanalyzed_plan_rejects_multi_replica() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let opts = crate::CompilerOptions { absint: false, ..Default::default() };
        let d = Compiler::with_options(opts).compile(&Program::from_insns(a.into_insns())).unwrap();
        assert!(!d.shard.analyzed);
        assert!(d.shard.require_sound(1).is_ok());
        assert_eq!(d.shard.require_sound(2).unwrap_err(), vec![ShardError::Unanalyzed]);
    }
}
