//! Simulated-cycles-per-second measurement: the wall-clock cost of the
//! cycle-level simulator itself, tracked as a first-class number so hot-loop
//! regressions show up in CI (`scripts/check.sh`) instead of as mysteriously
//! slow figure regeneration.
//!
//! The sweep covers every evaluation app under both plans the simulator
//! can run — unfused (every op through the generic per-op path, reported
//! as `"interpreter"`) and fused (reported as `"compiled"`) — and the
//! recorded baseline keeps one entry per `(app, backend)` pair.

use crate::{eval_packets, setup_app};
use ehdl_core::Compiler;
use ehdl_hwsim::{NicShell, ShellOptions};
use ehdl_programs::App;
use std::time::Instant;

/// Where the recorded baseline lives, relative to the workspace root.
pub const REPORT_PATH: &str = "BENCH_sim_speed.json";

/// One measured simulator-speed run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpeedReport {
    /// Application under simulation.
    pub app: String,
    /// Plan run: `"interpreter"` (unfused) or `"compiled"` (fused).
    pub backend: String,
    /// Packets pushed through the shell.
    pub packets: usize,
    /// Pipeline cycles simulated.
    pub cycles: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Packets simulated per wall-clock second.
    pub packets_per_sec: f64,
    /// Pipeline flush events during the run (workload-deterministic).
    pub flushes: u64,
    /// Packets re-executed by those flushes.
    pub flush_replays: u64,
}

/// The recorded name of the fused (`"compiled"`) or unfused
/// (`"interpreter"`) plan.
pub fn backend_name(fuse: bool) -> &'static str {
    if fuse {
        "compiled"
    } else {
        "interpreter"
    }
}

/// Run the Figure-9a-style workload for `app` (`packets` packets, 64 B,
/// 100 Gbps arrivals) on the fused or unfused plan and time the simulator.
pub fn measure(app: App, fuse: bool, packets: usize) -> SimSpeedReport {
    let design = Compiler::new().compile(&app.program()).expect("app compiles");
    let stream = eval_packets(app, packets);
    let mut options = ShellOptions::default();
    options.sim.fuse = fuse;
    let mut shell = NicShell::new(&design, options);
    setup_app(app, shell.sim_mut().maps_mut());
    let start = Instant::now();
    let report = shell.run(stream);
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(report.completed + report.lost, packets as u64, "all packets accounted for");
    let cycles = shell.cycles();
    let counters = shell.counters();
    SimSpeedReport {
        app: app.name().to_string(),
        backend: backend_name(fuse).to_string(),
        packets,
        cycles,
        wall_secs,
        cycles_per_sec: cycles as f64 / wall_secs,
        packets_per_sec: report.completed as f64 / wall_secs,
        flushes: counters.flushes,
        flush_replays: counters.flush_replays,
    }
}

/// Sweep every evaluation app under both plans, unfused first.
pub fn measure_all(packets: usize) -> Vec<SimSpeedReport> {
    let mut out = Vec::new();
    for app in App::ALL {
        for fuse in [false, true] {
            out.push(measure(app, fuse, packets));
        }
    }
    out
}

/// The workspace-root path of the recorded baseline.
pub fn report_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(REPORT_PATH)
}

/// Serialize the sweep to the tracked JSON file (no serde in the tree, so
/// the format is written by hand — one entry object per line — and parsed
/// with [`read_recorded`]).
pub fn write_report(reports: &[SimSpeedReport]) -> std::io::Result<()> {
    let mut json = String::from("{\n  \"entries\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let sep = if i + 1 == reports.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"app\": \"{}\", \"backend\": \"{}\", \"packets\": {}, \"cycles\": {}, \
             \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.1}, \"packets_per_sec\": {:.1}, \
             \"flushes\": {}, \"flush_replays\": {}}}{sep}\n",
            r.app,
            r.backend,
            r.packets,
            r.cycles,
            r.wall_secs,
            r.cycles_per_sec,
            r.packets_per_sec,
            r.flushes,
            r.flush_replays,
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(report_path(), json)
}

/// Read one recorded field for an `(app, backend)` entry, if present.
/// Older single-run recordings have no per-backend entries and return
/// `None`, which skips the corresponding gate.
pub fn read_recorded(app: &str, backend: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(report_path()).ok()?;
    let line = text.lines().find(|l| {
        l.contains(&format!("\"app\": \"{app}\""))
            && l.contains(&format!("\"backend\": \"{backend}\""))
    })?;
    parse_field(line, field)
}

fn parse_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\"");
    let rest = &json[json.find(&key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_field_reads_numbers() {
        let json = "{\"cycles_per_sec\": 123456.7, \"packets\": 40000}";
        assert_eq!(parse_field(json, "cycles_per_sec"), Some(123456.7));
        assert_eq!(parse_field(json, "packets"), Some(40000.0));
        assert_eq!(parse_field(json, "missing"), None);
    }

    #[test]
    fn report_round_trips_per_backend_entries() {
        let r = |app: &str, backend: &str, pps: f64| SimSpeedReport {
            app: app.to_string(),
            backend: backend.to_string(),
            packets: 64,
            cycles: 100,
            wall_secs: 0.5,
            cycles_per_sec: 200.0,
            packets_per_sec: pps,
            flushes: 3,
            flush_replays: 7,
        };
        let entries = [r("firewall", "interpreter", 128.0), r("firewall", "compiled", 1280.0)];
        let mut json = String::from("{\n  \"entries\": [\n");
        for (i, e) in entries.iter().enumerate() {
            let sep = if i + 1 == entries.len() { "" } else { "," };
            json.push_str(&format!(
                "    {{\"app\": \"{}\", \"backend\": \"{}\", \"packets_per_sec\": {:.1}, \"flushes\": {}}}{sep}\n",
                e.app, e.backend, e.packets_per_sec, e.flushes,
            ));
        }
        json.push_str("  ]\n}\n");
        let line = json
            .lines()
            .find(|l| l.contains("\"backend\": \"compiled\""))
            .expect("compiled entry present");
        assert_eq!(parse_field(line, "packets_per_sec"), Some(1280.0));
        assert_eq!(parse_field(line, "flushes"), Some(3.0));
    }

    #[test]
    fn measure_small_run_reports_consistent_rates() {
        for fuse in [false, true] {
            let r = measure(App::Firewall, fuse, 512);
            assert_eq!(r.packets, 512);
            assert_eq!(r.backend, backend_name(fuse));
            assert!(r.cycles > 0);
            assert!(r.cycles_per_sec > 0.0);
            assert!((r.cycles as f64 / r.wall_secs - r.cycles_per_sec).abs() < 1.0);
        }
    }

    #[test]
    fn backends_agree_on_deterministic_workload_counters() {
        let interp = measure(App::Firewall, false, 2_000);
        let compiled = measure(App::Firewall, true, 2_000);
        assert_eq!(interp.cycles, compiled.cycles, "cycle-exact across plans");
        assert_eq!(interp.flushes, compiled.flushes);
        assert_eq!(interp.flush_replays, compiled.flush_replays);
    }
}
