//! Chaos campaign: replica kill/hang/brown-out storms × control-channel
//! loss on the stateful apps (Firewall, DNAT), through the sharded
//! fail-over machinery and the reliable host protocol. Writes
//! `BENCH_chaos.json` at the workspace root so `scripts/check.sh` can
//! fail on robustness regressions. Usage:
//!
//! ```sh
//! cargo bench --bench chaos                       # measure and print
//! EHDL_WRITE_BENCH=1 cargo bench --bench chaos    # also record JSON
//! EHDL_CHECK_BENCH=1 cargo bench --bench chaos    # also check against it
//! ```
//!
//! The campaign is simulated-deterministic. Its bounds are the [`BENCH`]
//! gate table plus the accounting identities checked in `main`: every
//! injected failure is detected or masked, every offered packet is
//! completed, drained, discarded or rejected in every scenario, and every
//! host op at 10% channel loss completes.

use ehdl_bench::chaos::{measure_all_faults, measure_ctrl, CHAOS_REPLICAS, WATCHDOG_BUDGET};
use ehdl_bench::record::{Bench, Dir, Gate};

/// Fault rows keyed by `app`/`scenario`, control-loss rows by `loss_rate`.
const BENCH: Bench = Bench {
    name: "chaos",
    keys: &["app", "scenario", "loss_rate"],
    gates: &[
        // Detection within the watchdog budget.
        Gate::ceiling("detection_latency_max", WATCHDOG_BUDGET as f64),
        // Availability under a single kill stays >= (N-1)/N - 5%.
        Gate::floor("availability", (CHAOS_REPLICAS as f64 - 1.0) / CHAOS_REPLICAS as f64 - 0.05)
            .when(&[("scenario", "kill1")]),
        // Availability stays within 5 points of the recording.
        Gate::drift("availability", Dir::Both, 0.0, 0.05),
        // At 10% channel loss no op is abandoned and the retried
        // sequence is bit-identical to the lossless reference.
        Gate::ceiling("gave_up", 0.0),
        Gate::floor("reference_identical", 1.0),
    ],
};

fn main() {
    let rows = measure_all_faults();
    let ctrl = measure_ctrl();
    let mut failures = Vec::new();
    for r in &rows {
        if r.detected + r.masked != r.injected {
            failures.push(format!(
                "{}/{}: {} of {} injected failures unaccounted (detected {}, masked {})",
                r.app,
                r.scenario,
                r.injected - r.detected - r.masked,
                r.injected,
                r.detected,
                r.masked,
            ));
        }
        if r.packets as u64 != r.completed + r.lost + r.dropped {
            failures.push(format!(
                "{}/{}: silent loss — offered {} != completed {} + lost {} + dropped {}",
                r.app, r.scenario, r.packets, r.completed, r.lost, r.dropped,
            ));
        }
    }
    for c in &ctrl {
        if c.completed_ops != c.ops {
            failures.push(format!(
                "ctrl loss {:.0}%: {} of {} ops never completed",
                c.loss_rate * 100.0,
                c.ops - c.completed_ops,
                c.ops,
            ));
        }
    }
    let mut recorded: Vec<_> = rows.iter().map(|r| r.row()).collect();
    recorded.extend(ctrl.iter().map(|c| c.row()));
    BENCH.finish(&recorded, failures);
}
