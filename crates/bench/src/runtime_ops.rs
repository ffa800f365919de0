//! Control-plane benchmark: host-op throughput and latency under
//! increasing packet-interleave rates, drain-and-swap downtime, and the
//! wall-clock overhead of telemetry polling on the Figure-9a firewall
//! workload. Recorded as `BENCH_runtime.json` and gated in
//! `scripts/check.sh` (telemetry overhead must stay under 1%).

use crate::{eval_packets, setup_app};
use ehdl_core::Compiler;
use ehdl_hwsim::sim::CLOCK_NS;
use ehdl_hwsim::CtrlOptions;
use ehdl_programs::{simple_firewall, App};
use ehdl_runtime::{json_obj, Json, PeriodicExporter, Runtime, RuntimeOptions};
use ehdl_traffic::{interleave_ops, ControlOpGen, FlowSet, OpMix, Popularity};
use std::time::{Duration, Instant};

/// Host-op behaviour at one packet-interleave rate.
#[derive(Debug, Clone, PartialEq)]
pub struct OpScenario {
    /// Host ops per packet in the arrival schedule.
    pub op_rate: f64,
    /// Packets in the schedule.
    pub packets: usize,
    /// Host ops applied.
    pub ops: u64,
    /// Mean submit→apply latency in pipeline cycles.
    pub mean_latency_cycles: f64,
    /// Worst-case submit→apply latency in pipeline cycles.
    pub max_latency_cycles: u64,
    /// Host writes that flushed in-flight readers.
    pub host_op_flushes: u64,
    /// Applied ops per second of *simulated* time.
    pub ops_per_sec_sim: f64,
}

/// One full control-plane measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOpsReport {
    /// Op throughput/latency at increasing interleave rates.
    pub scenarios: Vec<OpScenario>,
    /// Mean op latency on an idle pipeline (pure channel latency).
    pub idle_mean_latency_cycles: f64,
    /// Drain phase of the measured reload, in cycles.
    pub swap_drain_cycles: u64,
    /// Modeled reconfiguration phase, in cycles.
    pub swap_config_cycles: u64,
    /// Total ingress downtime of the reload, in cycles.
    pub swap_downtime_cycles: u64,
    /// The same downtime in nanoseconds at the 250 MHz clock.
    pub swap_downtime_ns: f64,
    /// Map entries carried across the swap.
    pub swap_migrated_entries: u64,
    /// Telemetry polling cost on the fig9a firewall run.
    pub telemetry: TelemetryCost,
}

/// The wall-clock cost of telemetry polling on one fig9a firewall run,
/// each figure the minimum over interleaved repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryCost {
    /// Packets polled between snapshots.
    pub poll_every: usize,
    /// Wall seconds for the run without telemetry.
    pub base_secs: f64,
    /// Wall seconds for the same run polling stats + JSON export.
    pub polled_secs: f64,
    /// Seconds spent inside the `stats()` + exporter `poll` calls.
    pub poll_secs: f64,
    /// `poll_secs / base_secs`: the polling cost over the unpolled run.
    pub overhead_frac: f64,
    /// Snapshots the exporter emitted during the polled run.
    pub exports: usize,
}

impl OpScenario {
    /// The scenario's row of `BENCH_runtime.json`.
    pub fn row(&self) -> Json {
        json_obj!(self; op_rate, packets, ops, mean_latency_cycles, max_latency_cycles,
            host_op_flushes, ops_per_sec_sim)
    }
}

impl RuntimeOpsReport {
    /// The rows of `BENCH_runtime.json`: one per op scenario (keyed by
    /// `op_rate`), then the `idle`, `swap` and `telemetry` rows.
    pub fn rows(&self) -> Vec<Json> {
        let mut rows: Vec<Json> = self.scenarios.iter().map(OpScenario::row).collect();
        rows.push(json_obj!(self; scenario = "idle",
            mean_latency_cycles = self.idle_mean_latency_cycles));
        rows.push(json_obj!(self; scenario = "swap", drain_cycles = self.swap_drain_cycles,
            config_cycles = self.swap_config_cycles, downtime_cycles = self.swap_downtime_cycles,
            downtime_ns = self.swap_downtime_ns, migrated_entries = self.swap_migrated_entries));
        let t = &self.telemetry;
        rows.push(json_obj!(t; scenario = "telemetry", poll_every, base_secs, polled_secs,
            poll_secs, overhead_frac, exports));
        rows
    }
}

fn firewall_runtime() -> Runtime {
    let design = Compiler::new().compile(&simple_firewall::program()).expect("firewall compiles");
    let mut rt = Runtime::new(
        &design,
        RuntimeOptions {
            ctrl: CtrlOptions { latency_cycles: 64, queue_depth: 4096 },
            ..Default::default()
        },
    );
    setup_app(App::Firewall, rt.maps_mut());
    rt
}

fn run_scenario(op_rate: f64, packets: usize) -> OpScenario {
    let flows = FlowSet::udp(256, 91);
    let keys = flows.flows().iter().map(|f| f.to_key().to_vec()).collect();
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        keys,
        8,
        OpMix::default(),
        Popularity::Hot { p_hot: 0.5 },
        92,
    );
    let stream = eval_packets(App::Firewall, packets);
    let schedule = interleave_ops(stream, &mut gen, op_rate, 93);
    let mut rt = firewall_runtime();
    let report = rt.run_schedule(&schedule);
    assert!(report.ops_rejected.is_empty(), "queue sized for the schedule");
    let stats = rt.stats();
    let applied = stats.ctrl.completed + stats.ctrl.failed;
    let sim_secs = (stats.cycle as f64 * CLOCK_NS / 1e9).max(1e-12);
    OpScenario {
        op_rate,
        packets,
        ops: applied,
        mean_latency_cycles: stats.ctrl.mean_latency_cycles(),
        max_latency_cycles: stats.ctrl.latency_cycles_max,
        host_op_flushes: stats.counters.host_op_flushes,
        ops_per_sec_sim: applied as f64 / sim_secs,
    }
}

fn measure_idle_latency() -> f64 {
    let mut rt = firewall_runtime();
    let flows = FlowSet::udp(64, 94);
    for f in flows.flows() {
        rt.submit(ehdl_hwsim::HostOp::Lookup {
            map: simple_firewall::SESSIONS_MAP,
            key: f.to_key().to_vec(),
        })
        .expect("idle channel accepts");
    }
    rt.settle();
    rt.stats().ctrl.mean_latency_cycles()
}

fn measure_swap(packets: usize) -> (u64, u64, u64, f64, u64) {
    let mut rt = firewall_runtime();
    // Leave the tail of the workload in flight so the drain is real.
    for p in eval_packets(App::Firewall, packets) {
        while !rt.enqueue(p.clone()) {
            rt.step();
        }
    }
    let design = rt.design().clone();
    let swap = rt.reload(&design);
    (
        swap.drain_cycles,
        swap.config_cycles,
        swap.downtime_cycles,
        swap.downtime_ns,
        swap.migrated_entries,
    )
}

/// Drive the fig9a firewall stream through a [`Runtime`], optionally
/// polling a stats snapshot + JSON export every `poll_every` packets.
/// Returns (wall seconds, seconds inside the polls, exports emitted).
fn timed_run(packets: &[Vec<u8>], poll_every: Option<usize>) -> (f64, f64, usize) {
    let mut rt = firewall_runtime();
    let mut exporter = PeriodicExporter::new(8_192);
    let mut polling = Duration::ZERO;
    let start = Instant::now();
    for (i, p) in packets.iter().enumerate() {
        while !rt.enqueue(p.clone()) {
            rt.step();
        }
        if poll_every.is_some_and(|every| i % every == 0) {
            let t = Instant::now();
            let stats = rt.stats();
            exporter.poll(&stats);
            polling += t.elapsed();
        }
    }
    rt.settle();
    (start.elapsed().as_secs_f64(), polling.as_secs_f64(), exporter.exports().len())
}

/// Time telemetry polling every `poll_every` packets on a fig9a firewall
/// run of `packets` packets. Each of `repeats` rounds runs the unpolled
/// and the polled variant back to back and every figure keeps its
/// minimum, so a load spike on a shared core inflates neither. The
/// overhead is the time spent in the polls themselves over the unpolled
/// run: subtracting two noisy run times would bury a µs-scale snapshot.
pub fn telemetry_cost(packets: usize, poll_every: usize, repeats: usize) -> TelemetryCost {
    let stream = eval_packets(App::Firewall, packets);
    let (mut base_secs, mut polled_secs, mut poll_secs) = (f64::MAX, f64::MAX, f64::MAX);
    let mut exports = 0;
    for _ in 0..repeats.max(1) {
        base_secs = base_secs.min(timed_run(&stream, None).0);
        let (wall, polls, n) = timed_run(&stream, Some(poll_every));
        polled_secs = polled_secs.min(wall);
        poll_secs = poll_secs.min(polls);
        exports = n;
    }
    TelemetryCost {
        poll_every,
        base_secs,
        polled_secs,
        poll_secs,
        overhead_frac: poll_secs / base_secs,
        exports,
    }
}

/// Measure everything: op scenarios on `op_packets`-packet schedules, a
/// swap on the same workload, and telemetry overhead on a
/// `telemetry_packets`-packet fig9a run (best of `repeats` to suppress
/// wall-clock noise).
pub fn measure(op_packets: usize, telemetry_packets: usize, repeats: usize) -> RuntimeOpsReport {
    let scenarios =
        [0.02, 0.1, 0.5].iter().map(|&r| run_scenario(r, op_packets)).collect::<Vec<_>>();
    let idle_mean_latency_cycles = measure_idle_latency();
    let (swap_drain_cycles, swap_config_cycles, swap_downtime_cycles, swap_downtime_ns, migrated) =
        measure_swap(op_packets);
    RuntimeOpsReport {
        scenarios,
        idle_mean_latency_cycles,
        swap_drain_cycles,
        swap_config_cycles,
        swap_downtime_cycles,
        swap_downtime_ns,
        swap_migrated_entries: migrated,
        // Poll every 2048 packets: ~20 snapshots over the 40k-packet
        // run, matching a host daemon on a few-hundred-µs timer.
        telemetry: telemetry_cost(telemetry_packets, 2048, repeats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_measurement_is_internally_consistent() {
        let r = measure(512, 512, 1);
        assert_eq!(r.scenarios.len(), 3);
        for sc in &r.scenarios {
            assert!(sc.ops > 0, "rate {} produced ops", sc.op_rate);
            assert!(sc.mean_latency_cycles >= 64.0, "latency at least the channel's");
            assert!(sc.max_latency_cycles as f64 >= sc.mean_latency_cycles);
        }
        // More interleaved ops per packet → more applied ops.
        assert!(r.scenarios[2].ops > r.scenarios[0].ops);
        assert!(r.idle_mean_latency_cycles >= 64.0);
        assert!(r.swap_downtime_cycles >= r.swap_config_cycles);
        assert_eq!(r.swap_downtime_cycles, r.swap_drain_cycles + r.swap_config_cycles);
        assert!(r.telemetry.base_secs > 0.0);
    }

    #[test]
    fn telemetry_overhead_is_measured_and_grows_with_polling() {
        // The fraction is measured, never clamped: polling costs
        // something, and polling every packet costs more than polling
        // every 2048.
        let sparse = telemetry_cost(1_000, 2048, 1);
        let dense = telemetry_cost(1_000, 1, 1);
        assert!(sparse.overhead_frac > 0.0, "{sparse:?}");
        assert!(dense.overhead_frac > sparse.overhead_frac, "{dense:?} vs {sparse:?}");
    }
}
