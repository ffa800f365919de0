//! Long-haul serving campaign: multi-client reactor over the simulated
//! NIC through churn, hot-key storms, SYN floods, live reloads, a
//! replica kill storm, and a lossy control channel, scored by the
//! continuous SLO layer. Writes `BENCH_slo.json` at the workspace root
//! so `scripts/check.sh` can fail on serving regressions. Usage:
//!
//! ```sh
//! cargo bench --bench slo                       # measure and print
//! EHDL_WRITE_BENCH=1 cargo bench --bench slo    # also record JSON
//! EHDL_CHECK_BENCH=1 cargo bench --bench slo    # also check against it
//! ```
//!
//! The campaign is simulated-deterministic. Its bounds are the [`BENCH`]
//! gate table plus two checks in `main`: the coalescer shrinks the device
//! schedule, and the kill storm loses no packet silently.

use ehdl_bench::record::{Bench, Dir, Gate};
use ehdl_bench::slo::measure;

/// Phase rows and the whole-run `summary` row, keyed by `name`.
const BENCH: Bench = Bench {
    name: "slo",
    keys: &["name"],
    gates: &[
        // Whole-run availability across the lossless serving phases meets
        // the 99.9% target and stays within 0.5 points of the recording.
        Gate::floor("availability", 0.999).when(SUMMARY),
        Gate::drift("availability", Dir::Both, 0.0, 0.005).when(SUMMARY),
        // p999 admission-to-ack op latency: measured at 96 cycles (one
        // ctrl round trip plus the turn cadence), ~5x headroom, and
        // within 50% of the recording.
        Gate::ceiling("op_p999_cycles", 512.0),
        Gate::drift("op_p999_cycles", Dir::Both, 0.5, 0.0),
        // The reload phase completes a live swap.
        Gate::floor("swaps", 1.0),
        // The kill storm is detected exactly once, every punted frame is
        // recovered by the host retry pass, and request-level
        // availability under the kill stays >= 99%.
        Gate::floor("kill_detected", 1.0),
        Gate::ceiling("kill_detected", 1.0),
        Gate::ceiling("kill_unrecovered", 0.0),
        Gate::floor("kill_availability", 0.99),
        // At 10% channel loss every admitted op acks exactly once, and
        // the loss forces retransmissions.
        Gate::ceiling("lossy_gave_up", 0.0),
        Gate::ceiling("lossy_lost_acked", 0.0),
        Gate::floor("lossy_retries", 1.0),
    ],
};

/// The whole-run row.
const SUMMARY: &[(&str, &str)] = &[("name", "summary")];

fn main() {
    let (phases, s) = measure();
    let mut failures = Vec::new();
    if s.ops_out >= s.ops_in || s.updates_collapsed + s.lookups_shared == 0 {
        failures.push(format!(
            "coalescing ineffective: {} ops in -> {} out ({} collapsed, {} shared)",
            s.ops_in, s.ops_out, s.updates_collapsed, s.lookups_shared,
        ));
    }
    if s.kill_offered != s.kill_completed + s.kill_unrecovered + s.kill_discarded {
        failures.push(format!(
            "kill storm: silent loss — offered {} != completed {} + unrecovered {} + discarded {}",
            s.kill_offered, s.kill_completed, s.kill_unrecovered, s.kill_discarded,
        ));
    }
    let mut rows: Vec<_> = phases.iter().map(|p| p.row()).collect();
    rows.push(s.row());
    BENCH.finish(&rows, failures);
}
