//! Control-plane tracker: host-op throughput/latency while packets
//! stream, drain-and-swap downtime, and the telemetry polling overhead
//! on the Figure-9a firewall run.
//!
//! Writes `BENCH_runtime.json` at the workspace root so
//! `scripts/check.sh` can gate regressions. Usage:
//!
//! ```sh
//! cargo bench --bench runtime_ops            # measure and print
//! EHDL_WRITE_BENCH=1 cargo bench --bench runtime_ops   # also record JSON
//! EHDL_CHECK_BENCH=1 cargo bench --bench runtime_ops   # also check against it
//! ```

use ehdl_bench::record::{Bench, Dir, Gate};
use ehdl_bench::runtime_ops::measure;

/// Op-scenario rows keyed by `op_rate`; the `idle`, `swap` and
/// `telemetry` rows by `scenario`.
const BENCH: Bench = Bench {
    name: "runtime",
    keys: &["op_rate", "scenario"],
    gates: &[
        // Telemetry polling costs less than 1% of the firewall run.
        Gate::ceiling("overhead_frac", 0.01),
        // A reload has real downtime (zero means it was not measured).
        Gate::floor("downtime_cycles", 1.0),
        // Simulated-cycle quantities: deterministic up to intentional
        // model changes, so a 2x jump is a regression.
        Gate::drift("mean_latency_cycles", Dir::Up, 1.0, 0.0).when(&[("op_rate", "0.5")]),
        Gate::drift("downtime_cycles", Dir::Up, 1.0, 0.0),
    ],
};

fn main() {
    // Warm-up run (page-in, map setup), then the measured one.
    let _ = measure(1_000, 2_000, 1);
    let report = measure(20_000, ehdl_bench::EVAL_PACKETS, 5);
    BENCH.finish(&report.rows(), Vec::new());
}
