//! Sharding-soundness effectiveness tracker: how much of the evaluation
//! app zoo the `ehdl_core::shardcheck` pass classifies with zero manual
//! hints, how many maps it proves merge-exact, and whether its static
//! verdicts agree with the dynamic differential checker. Tracked as a
//! first-class number (`BENCH_shardcheck.json`) so a precision regression
//! — a key-provenance proof accidentally lost, a commutativity class
//! widened to `OpaqueRmw` — fails `scripts/check.sh` instead of silently
//! forcing hand-written sharding configs back in.

use ehdl_core::shardcheck::{MergePolicy, ShardError};
use ehdl_core::{Compiler, CompilerOptions};
use ehdl_hwsim::{check, fabric_from_plan, merges_from_plan, Divergence, Engine, Scenario};
use ehdl_programs::App;

/// Where the recorded baseline lives, relative to the workspace root.
pub const REPORT_PATH: &str = "BENCH_shardcheck.json";

/// Packets per dynamic agreement run. Small: the point is exercising
/// every map's merge path against the sequential reference, not steady
/// state.
const AGREE_PACKETS: usize = 256;

/// Per-app verdict summary of the sharding-soundness pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// Application name.
    pub app: String,
    /// Maps in the compiled design.
    pub maps: usize,
    /// Maps classified into a multi-replica-deployable class (anything
    /// but `OpaqueRmw`) with zero manual hints.
    pub sound_maps: usize,
    /// Maps proven `vm_exact` — merged/shared contents must bit-match
    /// the sequential reference on any trace.
    pub exact_maps: usize,
    /// Maps the plan places behind the shared fabric.
    pub shared_maps: usize,
    /// Statically pre-assigned fabric bank count (fabric default when
    /// nothing is shared).
    pub fabric_banks: u32,
    /// Exactness claims checked against the differential harness
    /// (maps × replica counts).
    pub agreement_checks: usize,
    /// Claims the dynamic run contradicted (must stay zero).
    pub agreement_failures: usize,
}

impl ShardRow {
    /// Fraction of maps auto-classified as multi-replica deployable
    /// (1.0 when the app has no maps).
    pub fn sound_fraction(&self) -> f64 {
        if self.maps == 0 {
            1.0
        } else {
            self.sound_maps as f64 / self.maps as f64
        }
    }
}

/// Compile every evaluation app, tabulate its verified `ShardPlan`, and
/// replay a short trace through the sharded differential harness at 2
/// and 4 replicas to count verdict/checker disagreements.
///
/// # Panics
///
/// Panics if an app fails to compile, arrives unanalyzed, or cannot be
/// proven sound at multiple replicas — the zero-hint contract over the
/// app zoo is a hard property, not measurement noise.
pub fn measure() -> Vec<ShardRow> {
    crate::par_map(&App::ALL, |&app| row_for(app))
}

fn row_for(app: App) -> ShardRow {
    let program = app.program();
    let design = crate::design_of(app);
    let plan = design.shard.clone();
    assert!(plan.analyzed, "{}: design must carry an analyzed shard plan", app.name());
    let fabric = fabric_from_plan(&plan);
    let merges = merges_from_plan(&plan);
    let packets = crate::eval_packets(app, AGREE_PACKETS);
    let mut agreement_checks = 0;
    let mut agreement_failures = 0;
    for replicas in [2usize, 4] {
        plan.require_sound(replicas)
            .unwrap_or_else(|e| panic!("{} must shard zero-hint: {e:?}", app.name()));
        let setup = |maps: &mut ehdl_ebpf::maps::MapStore| crate::setup_app(app, maps);
        let div = check(&Scenario {
            setup: &setup,
            merges: &merges,
            engine: Engine::Sharded { replicas, seed: 7, fabric: fabric.clone(), ops: &[] },
            ..Scenario::new(&program, &design, &packets)
        })
        .divergences;
        agreement_checks += plan.maps.len();
        for d in &div {
            let contradicted = match d {
                // A divergence on a map proven exact is a broken proof.
                Divergence::Map { map } => plan.map(*map).is_none_or(|m| m.vm_exact),
                // Packet rewrites may differ only when some map is
                // allowed to hold different (still-sound) contents.
                Divergence::Packet { .. } => plan.all_exact(),
                // Action/count/coherence divergences mean placement or
                // serialization is wrong, never mere inexactness.
                _ => true,
            };
            if contradicted {
                agreement_failures += 1;
            }
        }
    }
    ShardRow {
        app: app.name().to_string(),
        maps: plan.maps.len(),
        sound_maps: plan
            .maps
            .iter()
            .filter(|m| m.class != ehdl_core::shardcheck::MapClass::OpaqueRmw)
            .count(),
        exact_maps: plan.maps.iter().filter(|m| m.vm_exact).count(),
        shared_maps: plan.shared_map_ids().len(),
        fabric_banks: plan.fabric_banks(),
        agreement_checks,
        agreement_failures,
    }
}

/// A minimal unfenced read-modify-write program: const-keyed counter
/// bumped with a plain load/add/store. The one shape `shardcheck` must
/// reject outright at any replica count above one.
fn opaque_program() -> ehdl_ebpf::Program {
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::helpers::BPF_MAP_LOOKUP_ELEM;
    use ehdl_ebpf::maps::{MapDef, MapKind};
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
    let mut a = Asm::new();
    let out = a.new_label();
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::W, 8, 1, 4);
    a.mov64_reg(1, 7);
    a.alu64_imm(AluOp::Add, 1, 42);
    a.jmp_reg(JmpOp::Jgt, 1, 8, out);
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
    a.bind(out);
    a.mov64_imm(0, 2);
    a.exit();
    ehdl_ebpf::Program::new(
        "opaque_rmw",
        a.into_insns(),
        vec![MapDef::new(0, "rmw", MapKind::Array, 4, 8, 1)],
    )
}

fn variant_name(e: &ShardError) -> &'static str {
    match e {
        ShardError::NonSymmetricKey { .. } => "non_symmetric_key",
        ShardError::NonCommutativeWrite { .. } => "non_commutative_write",
        ShardError::CrossReplicaRace { .. } => "cross_replica_race",
        ShardError::Unanalyzed => "unanalyzed",
    }
}

/// Drive the pass's rejection diagnostics: deliberately unsound hand
/// configs over the app zoo (everything private-`Union`, everything
/// `SumDelta`), an analysis-disabled compile, and an unfenced RMW
/// program. Returns how many distinct [`ShardError`] variants fired —
/// the gate pins this at all four.
pub fn diagnostics_exercised() -> usize {
    let mut seen = std::collections::BTreeSet::new();
    let mut record = |errs: Vec<ShardError>| {
        for e in &errs {
            seen.insert(variant_name(e));
        }
    };
    for &app in &App::ALL {
        let plan = crate::design_of(app).shard;
        for policy in [MergePolicy::Union, MergePolicy::SumDelta] {
            let merge: Vec<(u32, MergePolicy)> =
                plan.maps.iter().map(|m| (m.map, policy)).collect();
            if let Err(errs) = plan.validate_config(2, &[], &merge) {
                record(errs);
            }
        }
    }
    let unanalyzed =
        Compiler::with_options(CompilerOptions { absint: false, ..Default::default() })
            .compile(&App::Dnat.program())
            .expect("dnat compiles without absint")
            .shard;
    if let Err(errs) = unanalyzed.require_sound(2) {
        record(errs);
    }
    let opaque = Compiler::new().compile(&opaque_program()).expect("opaque program compiles").shard;
    if let Err(errs) = opaque.require_sound(2) {
        record(errs);
    }
    seen.len()
}

/// The workspace-root path of the recorded baseline.
pub fn report_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(REPORT_PATH)
}

/// Serialize the rows to the tracked JSON file. Keys are flattened to
/// `"<app>_<field>"` (plus the campaign-wide `diagnostics_exercised`)
/// so [`read_recorded`] can reuse the same hand-rolled field scanner as
/// the other bench baselines (no serde in the tree).
pub fn write_report(rows: &[ShardRow], diagnostics: usize) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut json = String::from("{\n");
    for r in rows {
        let _ = write!(
            json,
            "  \"{app}_maps\": {},\n  \"{app}_sound_maps\": {},\n  \
             \"{app}_exact_maps\": {},\n  \"{app}_shared_maps\": {},\n  \
             \"{app}_fabric_banks\": {},\n  \"{app}_agreement_checks\": {},\n  \
             \"{app}_agreement_failures\": {},\n",
            r.maps,
            r.sound_maps,
            r.exact_maps,
            r.shared_maps,
            r.fabric_banks,
            r.agreement_checks,
            r.agreement_failures,
            app = r.app,
        );
    }
    let _ = writeln!(json, "  \"diagnostics_exercised\": {diagnostics}");
    json.push_str("}\n");
    std::fs::write(report_path(), json)
}

/// Read the recorded `(sound_maps, exact_maps, agreement_failures)` for
/// `app`.
pub fn read_recorded(app: &str) -> Option<(usize, usize, usize)> {
    let text = std::fs::read_to_string(report_path()).ok()?;
    let sound = parse_field(&text, &format!("{app}_sound_maps"))? as usize;
    let exact = parse_field(&text, &format!("{app}_exact_maps"))? as usize;
    let failures = parse_field(&text, &format!("{app}_agreement_failures"))? as usize;
    Some((sound, exact, failures))
}

/// Read the recorded campaign-wide diagnostics-coverage count.
pub fn read_recorded_diagnostics() -> Option<usize> {
    let text = std::fs::read_to_string(report_path()).ok()?;
    Some(parse_field(&text, "diagnostics_exercised")? as usize)
}

fn parse_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\"");
    let rest = &json[json.find(&key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// The zero-hint contract: every app-zoo map classifies as
    /// multi-replica deployable and no static verdict is contradicted
    /// dynamically.
    #[test]
    fn app_zoo_classifies_zero_hint_and_agrees() {
        for r in measure() {
            assert_eq!(
                r.sound_maps, r.maps,
                "{}: only {}/{} maps auto-classified",
                r.app, r.sound_maps, r.maps
            );
            assert_eq!(
                r.agreement_failures, 0,
                "{}: {} of {} static verdicts contradicted dynamically",
                r.app, r.agreement_failures, r.agreement_checks
            );
            assert!(r.agreement_checks >= 2 * r.maps, "{}: agreement runs missing", r.app);
        }
    }

    /// The derived plan must reproduce what the scale-out and chaos
    /// benches used to hand-configure: DNAT's port allocator (and
    /// nothing else in the zoo) behind a single-bank fabric, flow
    /// tables union-merged, stats counters delta-merged.
    #[test]
    fn plan_reproduces_hand_written_bench_configs() {
        use ehdl_hwsim::MergeStrategy;
        use ehdl_programs::dnat;
        for &app in &App::ALL {
            let plan = crate::design_of(app).shard;
            assert_eq!(
                plan.shared_map_ids(),
                crate::scale_out::shared_maps(app),
                "{}: derived shared set diverges from the hand config",
                app.name()
            );
            let (shared, merges) = crate::chaos::fabric_plan(app);
            if shared.is_empty() {
                continue;
            }
            assert_eq!(plan.shared_map_ids(), shared);
            let derived = merges_from_plan(&plan);
            for (map, want) in merges {
                let got = derived.iter().find(|(m, _)| *m == map).map(|&(_, s)| s);
                assert_eq!(got, Some(want), "{}: map {map} merge", app.name());
            }
        }
        let plan = crate::design_of(App::Dnat).shard;
        assert_eq!(plan.shared_map_ids(), vec![dnat::PORT_ALLOC_MAP]);
        assert_eq!(plan.fabric_banks(), 1);
        let derived = merges_from_plan(&plan);
        assert!(derived.contains(&(dnat::PORT_ALLOC_MAP, MergeStrategy::Direct)));
    }

    #[test]
    fn all_four_diagnostics_fire() {
        assert_eq!(diagnostics_exercised(), 4);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let json = "{\n  \"DNAT_sound_maps\": 3,\n  \"DNAT_exact_maps\": 1,\n  \
                    \"DNAT_agreement_failures\": 0,\n  \"diagnostics_exercised\": 4\n}\n";
        assert_eq!(parse_field(json, "DNAT_sound_maps"), Some(3.0));
        assert_eq!(parse_field(json, "DNAT_exact_maps"), Some(1.0));
        assert_eq!(parse_field(json, "diagnostics_exercised"), Some(4.0));
        assert_eq!(parse_field(json, "DNAT_missing"), None);
    }
}
