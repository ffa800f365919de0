//! Fault-injection campaign: protection level vs fault rate over the
//! stateful evaluation apps.
//!
//! Each point attaches a seeded [`ehdl_hwsim::fault`] engine to the
//! pipeline and differentially checks it against the fault-free
//! sequential reference: packets no fault touched must stay
//! bit-identical, fault-affected packets are tallied, and the engine's
//! outcome log yields detection/correction coverage. A separate hang
//! sweep wedges a stage on purpose and measures availability with and
//! without the watchdog. Campaigns are bit-reproducible: the same seed
//! replays the same injection schedule, cycle for cycle.

use ehdl_core::{Compiler, CompilerOptions, Protection};
use ehdl_hwsim::{
    check, Divergence, Engine, FaultConfig, FaultEngine, MergeStrategy, PipelineSim, Report,
    Scenario, SimOptions,
};
use ehdl_programs::{dnat, App};

use crate::{eval_packets, setup_app};

/// Where the recorded campaign lives, relative to the workspace root.
pub const REPORT_PATH: &str = "BENCH_fault_campaign.json";

/// Master seed of the recorded campaign.
pub const CAMPAIGN_SEED: u64 = 7;

/// Packets per swept point (well under the default RX queue depth, so
/// the whole trace can be enqueued up front).
pub const POINT_PACKETS: usize = 2_000;

/// Per-cycle injection probabilities swept for the transient/stuck-at
/// campaign.
pub fn fault_rates() -> Vec<f64> {
    vec![5e-4, 5e-3]
}

/// The swept protection levels.
pub const PROTECTIONS: [Protection; 3] =
    [Protection::None, Protection::Parity, Protection::EccWatchdog];

/// One app × protection × rate measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignRow {
    /// Application under test.
    pub app: String,
    /// Protection level compiled into the design.
    pub protect: String,
    /// Per-cycle fault injection probability.
    pub rate: f64,
    /// `true` for the hang/watchdog availability sweep rows.
    pub hang: bool,
    /// Faults injected.
    pub injected: u64,
    /// Faults that hit live state (injected − masked).
    pub effective: u64,
    /// Faults that silently corrupted state.
    pub silent: u64,
    /// Detected-but-uncorrectable faults (double upsets under ECC).
    pub uncorrectable: u64,
    /// Fraction of effective faults detected, corrected or recovered.
    pub coverage: f64,
    /// Recovery replays (counted separately from hazard flushes).
    pub fault_replays: u64,
    /// Watchdog drain/reinit events.
    pub watchdog_resets: u64,
    /// Packets sacrificed by watchdog recovery.
    pub pkts_lost: u64,
    /// Non-affected packets that never completed (wedged pipeline).
    pub missing: u64,
    /// Packets completed out of [`POINT_PACKETS`] offered.
    pub completed: u64,
    /// Fraction of cycles the pipeline was not wedged.
    pub availability: f64,
    /// Every packet no fault touched matched the reference exactly.
    pub clean: bool,
    /// Final map contents matched the reference (only expected when no
    /// fault reached map state).
    pub map_clean: bool,
    /// Map backing storage took an unrecovered upset.
    pub map_corrupted: bool,
}

/// The campaigned apps: the three stateful designs the hardening
/// machinery actually exercises end to end.
pub const APPS: [App; 3] = [App::Firewall, App::Dnat, App::Suricata];

fn protect_name(p: Protection) -> &'static str {
    match p {
        Protection::None => "none",
        Protection::Parity => "parity",
        Protection::EccWatchdog => "ecc+watchdog",
    }
}

fn design_for(app: App, protect: Protection) -> ehdl_core::PipelineDesign {
    Compiler::with_options(CompilerOptions { protect, ..Default::default() })
        .compile(&app.program())
        .expect("campaign app compiles")
}

/// Maps whose final contents legitimately drift from the sequential
/// reference even fault-free (DNAT's port allocator runs ahead on
/// discarded replays, and the connection table stores those ports).
fn ignored_maps(app: App) -> Vec<(u32, MergeStrategy)> {
    match app {
        App::Dnat => vec![
            (dnat::CONN_MAP, MergeStrategy::Ignore),
            (dnat::PORT_ALLOC_MAP, MergeStrategy::Ignore),
        ],
        _ => Vec::new(),
    }
}

/// Whether every packet no fault touched matched the reference. Map
/// contents and missing packets are tallied separately; DNAT may also
/// differ in its translated source port (bytes 34–35) when a flush
/// discards an allocation attempt, even without faults.
fn packets_clean(app: App, divs: &[Divergence]) -> bool {
    divs.iter().all(|d| match d {
        Divergence::Map { .. } | Divergence::Count { .. } => true,
        Divergence::Packet { at: 34 | 35, .. } => app == App::Dnat,
        _ => false,
    })
}

/// Non-affected packets that never completed (pipeline wedged without a
/// watchdog).
fn missing(r: &Report) -> u64 {
    r.divergences
        .iter()
        .map(|d| match d {
            Divergence::Count { vm, hw } => vm.saturating_sub(*hw) as u64,
            _ => 0,
        })
        .sum()
}

/// The pipeline and its fault engine after a [`run_point`].
fn fault_run(r: &Report) -> (&PipelineSim, &FaultEngine) {
    let sim = r.pipeline.as_ref().expect("campaign points run one pipeline");
    (sim, sim.fault_engine().expect("campaign points attach a fault engine"))
}

/// Run one transient/stuck-at campaign point through the differential
/// harness.
pub fn run_point(app: App, protect: Protection, rate: f64) -> Report {
    let program = app.program();
    let design = design_for(app, protect);
    let packets = eval_packets(app, POINT_PACKETS);
    let cfg = FaultConfig {
        seed: CAMPAIGN_SEED ^ (rate.to_bits().rotate_left(protect as u32)),
        rate,
        // Hangs are measured by the dedicated sweep below: an unwatched
        // hang wedges the pipeline for the rest of the run, which is an
        // availability result, not an equivalence one.
        hang_fraction: 0.0,
        ..Default::default()
    };
    let setup = |m: &mut ehdl_ebpf::maps::MapStore| setup_app(app, m);
    check(&Scenario {
        setup: &setup,
        merges: &ignored_maps(app),
        engine: Engine::Pipeline { ctrl: None, faults: Some(cfg) },
        ..Scenario::new(&program, &design, &packets)
    })
}

fn row_from_report(
    app: App,
    protect: Protection,
    rate: f64,
    hang: bool,
    r: &Report,
) -> FaultCampaignRow {
    let (sim, engine) = fault_run(r);
    let (stats, c) = (engine.stats(), sim.counters());
    FaultCampaignRow {
        app: app.name().to_string(),
        protect: protect_name(protect).to_string(),
        rate,
        hang,
        injected: stats.injected,
        effective: stats.effective(),
        silent: stats.silent,
        uncorrectable: stats.uncorrectable,
        coverage: stats.coverage(),
        fault_replays: c.fault_replays,
        watchdog_resets: c.watchdog_resets,
        pkts_lost: c.pkts_lost_to_faults,
        missing: missing(r),
        completed: c.completed,
        availability: sim.availability(),
        clean: packets_clean(app, &r.divergences),
        map_clean: !r.divergences.iter().any(|d| matches!(d, Divergence::Map { .. })),
        map_corrupted: engine.map_storage_corrupted(),
    }
}

/// Hang sweep: inject only hung-stage faults and measure availability.
///
/// The pipeline is driven directly (not through the differential
/// harness) with a bounded settle budget, because an unwatched hang
/// never drains — that is the measurement.
pub fn run_hang_point(app: App, protect: Protection) -> FaultCampaignRow {
    const HANG_PACKETS: usize = 400;
    const SETTLE_BUDGET: u64 = 200_000;
    let design = design_for(app, protect);
    let mut sim = PipelineSim::with_options(
        &design,
        SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
    );
    setup_app(app, sim.maps_mut());
    // Hangs only, frequent enough that several land while traffic is in
    // flight (~450 cycles for 400 packets): at 0.02/cycle the first one
    // wedges the pipeline within ~50 cycles.
    sim.attach_faults(FaultConfig {
        seed: CAMPAIGN_SEED,
        rate: 2e-2,
        hang_fraction: 1.0,
        stuck_fraction: 0.0,
        map_bias: 0.0,
        watchdog_timeout: 128,
        ..Default::default()
    });
    for p in eval_packets(app, HANG_PACKETS) {
        sim.enqueue(p);
        sim.step();
    }
    sim.settle(SETTLE_BUDGET);
    sim.finalize_faults();
    let outs = sim.drain();
    let c = *sim.counters();
    let stats = sim.fault_engine().map(|e| *e.stats()).unwrap_or_default();
    FaultCampaignRow {
        app: app.name().to_string(),
        protect: protect_name(protect).to_string(),
        rate: 2e-2,
        hang: true,
        injected: stats.injected,
        effective: stats.effective(),
        silent: stats.silent,
        uncorrectable: stats.uncorrectable,
        coverage: stats.coverage(),
        fault_replays: c.fault_replays,
        watchdog_resets: c.watchdog_resets,
        pkts_lost: c.pkts_lost_to_faults,
        missing: (HANG_PACKETS as u64).saturating_sub(outs.len() as u64),
        completed: c.completed,
        availability: sim.availability(),
        clean: true,
        map_clean: true,
        map_corrupted: false,
    }
}

/// Run the full campaign: transient sweep plus the hang sweep.
pub fn run() -> Vec<FaultCampaignRow> {
    let mut points: Vec<(App, Protection, f64)> = Vec::new();
    for app in APPS {
        for protect in PROTECTIONS {
            for rate in fault_rates() {
                points.push((app, protect, rate));
            }
        }
    }
    let mut rows: Vec<FaultCampaignRow> = crate::par_map(&points, |&(app, protect, rate)| {
        let r = run_point(app, protect, rate);
        row_from_report(app, protect, rate, false, &r)
    });
    let hang_points: Vec<(App, Protection)> = APPS
        .iter()
        .flat_map(|&app| [Protection::None, Protection::EccWatchdog].map(|p| (app, p)))
        .collect();
    rows.extend(crate::par_map(&hang_points, |&(app, protect)| run_hang_point(app, protect)));
    rows
}

/// Reproducibility gate: the same seed must replay the identical
/// campaign — every event, counter and tally.
pub fn reproducible() -> bool {
    let a = run_point(App::Firewall, Protection::EccWatchdog, 5e-3);
    let b = run_point(App::Firewall, Protection::EccWatchdog, 5e-3);
    let ((sa, ea), (sb, eb)) = (fault_run(&a), fault_run(&b));
    ea.log() == eb.log()
        && ea.stats() == eb.stats()
        && sa.counters() == sb.counters()
        && a.affected == b.affected
        && sa.availability() == sb.availability()
}

/// The workspace-root path of the recorded campaign.
pub fn report_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(REPORT_PATH)
}

/// Serialize the campaign to the tracked JSON file.
pub fn write_report(rows: &[FaultCampaignRow]) -> std::io::Result<()> {
    std::fs::write(report_path(), render_report(rows))
}

/// The campaign as the tracked JSON text (no serde in the tree, so the
/// format is written by hand). Every field is simulated, so a re-run
/// renders byte-identical text.
pub fn render_report(rows: &[FaultCampaignRow]) -> String {
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"app\": \"{}\", \"protect\": \"{}\", \"rate\": {}, \"hang\": {}, \"injected\": {}, \"effective\": {}, \"silent\": {}, \"uncorrectable\": {}, \"coverage\": {:.4}, \"fault_replays\": {}, \"watchdog_resets\": {}, \"pkts_lost\": {}, \"missing\": {}, \"completed\": {}, \"availability\": {:.4}, \"clean\": {}, \"map_clean\": {}, \"map_corrupted\": {}}}{}\n",
            r.app,
            r.protect,
            r.rate,
            r.hang,
            r.injected,
            r.effective,
            r.silent,
            r.uncorrectable,
            r.coverage,
            r.fault_replays,
            r.watchdog_resets,
            r.pkts_lost,
            r.missing,
            r.completed,
            r.availability,
            r.clean,
            r.map_clean,
            r.map_corrupted,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("]\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_map_faults_break_equivalence() {
        // The negative control of the whole campaign: without ECC the
        // same injections that the hardened designs absorb corrupt the
        // final map state.
        let r = run_point(App::Firewall, Protection::None, 5e-3);
        let (_, engine) = fault_run(&r);
        assert!(engine.stats().silent > 0, "unprotected faults corrupt silently");
        let map_divergences = r.divergences.iter().any(|d| matches!(d, Divergence::Map { .. }));
        assert!(
            engine.map_storage_corrupted() || map_divergences || !r.affected.is_empty(),
            "corruption must be observable"
        );
    }

    #[test]
    fn protected_point_is_clean_and_covered() {
        let r = run_point(App::Firewall, Protection::EccWatchdog, 5e-3);
        assert!(packets_clean(App::Firewall, &r.divergences), "{:?}", r.divergences);
        let stats = fault_run(&r).1.stats();
        assert!(stats.silent == 0, "nothing slips past parity+ECC");
        assert!(stats.coverage() >= 0.99, "coverage {}", stats.coverage());
        assert_eq!(missing(&r), 0);
    }

    #[test]
    fn watchdog_restores_availability() {
        let none = run_hang_point(App::Firewall, Protection::None);
        let wd = run_hang_point(App::Firewall, Protection::EccWatchdog);
        assert!(none.availability < wd.availability);
        assert!(wd.watchdog_resets > 0);
        assert_eq!(wd.completed, 400);
    }

    #[test]
    fn campaign_is_reproducible() {
        assert!(reproducible());
    }
}
