//! Simulated-cycles-per-second measurement: the wall-clock cost of the
//! cycle-level simulator itself, tracked as a first-class number so hot-loop
//! regressions show up in CI (`scripts/check.sh`) instead of as mysteriously
//! slow figure regeneration.
//!
//! The sweep covers every evaluation app under both plans the simulator
//! can run — `"unfused"` (every op through the generic per-op path) and
//! `"fused"` — and the recorded baseline keeps one row per `(app, plan)`
//! pair.

use crate::{eval_packets, setup_app};
use ehdl_core::Compiler;
use ehdl_hwsim::{NicShell, ShellOptions};
use ehdl_programs::App;
use ehdl_runtime::{json_obj, Json};
use std::time::Instant;

/// One measured simulator-speed run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpeedReport {
    /// Application under simulation.
    pub app: String,
    /// Plan run: `"unfused"` or `"fused"`.
    pub plan: String,
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

impl SimSpeedReport {
    /// The run's row of `BENCH_sim_speed.json`.
    pub fn row(&self) -> Json {
        json_obj!(self; app, plan, packets, cycles, wall_secs, cycles_per_sec, packets_per_sec,
            flushes, flush_replays)
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
        plan: if fuse { "fused" } else { "unfused" }.to_string(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_small_run_reports_consistent_rates() {
        for fuse in [false, true] {
            let r = measure(App::Firewall, fuse, 512);
            assert_eq!(r.packets, 512);
            assert_eq!(r.plan, if fuse { "fused" } else { "unfused" });
            assert!(r.cycles > 0);
            assert!(r.cycles_per_sec > 0.0);
            assert!((r.cycles as f64 / r.wall_secs - r.cycles_per_sec).abs() < 1.0);
        }
    }

    #[test]
    fn plans_agree_on_deterministic_workload_counters() {
        let unfused = measure(App::Firewall, false, 2_000);
        let fused = measure(App::Firewall, true, 2_000);
        assert_eq!(unfused.cycles, fused.cycles, "cycle-exact across plans");
        assert_eq!(unfused.flushes, fused.flushes);
        assert_eq!(unfused.flush_replays, fused.flush_replays);
    }
}
