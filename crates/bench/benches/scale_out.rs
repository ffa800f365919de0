//! Many-pipeline scale-out sweep: replicas {1, 2, 4, 8} × flow
//! popularity {uniform, Zipf 0.9/1.0/1.2} on the stateful apps
//! (Firewall, DNAT), through RSS steering and the banked shared-map
//! fabric. Writes `BENCH_scale_out.json` at the workspace root so
//! `scripts/check.sh` can fail on regressions. Usage:
//!
//! ```sh
//! cargo bench --bench scale_out              # measure and print
//! EHDL_WRITE_BENCH=1 cargo bench --bench scale_out   # also record JSON
//! EHDL_CHECK_BENCH=1 cargo bench --bench scale_out   # also check against it
//! ```
//!
//! Besides the [`BENCH`] gate table, 4 uniform-workload firewall
//! replicas must deliver >= [`MIN_SCALE_4`]x the aggregate pkts/cycle of a
//! single replica (the scale-out headroom the fabric exists to buy),
//! measured live so the sweep rows can't mask it.

use ehdl_bench::record::{Bench, Dir, Gate};
use ehdl_bench::scale_out::{measure, measure_all};
use ehdl_programs::App;
use ehdl_traffic::Popularity;

/// Minimum aggregate speedup of 4 uniform firewall replicas over 1.
const MIN_SCALE_4: f64 = 2.5;

/// One row per `app`/`workload`/`replicas` sweep point.
const BENCH: Bench = Bench {
    name: "scale_out",
    keys: &["app", "workload", "replicas"],
    gates: &[
        // Uniform runs are lossless: RX overflow on a balanced load is a
        // feeding or drain bug, not a workload property.
        Gate::ceiling("dropped", 0.0).when(&[("workload", "uniform")]),
        // The metric is simulated-deterministic, so drift past 25% means
        // the timing model changed.
        Gate::drift("pkts_per_cycle", Dir::Both, 0.25, 0.0),
    ],
};
fn main() {
    let rows = measure_all();
    let mut failures = Vec::new();
    let one = measure(App::Firewall, "uniform", Popularity::Uniform, 1);
    let four = measure(App::Firewall, "uniform", Popularity::Uniform, 4);
    let speedup = four.pkts_per_cycle / one.pkts_per_cycle;
    println!("scale_out: uniform firewall 4-replica speedup {speedup:.2}x (bar {MIN_SCALE_4}x)");
    if speedup < MIN_SCALE_4 {
        failures.push(format!(
            "uniform firewall 4-replica speedup {speedup:.2}x below the {MIN_SCALE_4}x bar \
             ({:.4} -> {:.4} pkts/cycle)",
            one.pkts_per_cycle, four.pkts_per_cycle,
        ));
    }
    BENCH.finish(&rows.iter().map(|r| r.row()).collect::<Vec<_>>(), failures);
}
