//! Flush-cost sweep (App. A.1): sustained pkts/cycle of the generated
//! pipelines before and after hazard-window minimization + partial
//! flushes, over a new-flow-churn workload swept across flow counts and
//! Zipf α on Firewall / DNAT / Suricata.
//!
//! Writes `BENCH_flush_opt.json` at the workspace root. Usage:
//!
//! ```sh
//! cargo bench --bench flush_opt            # measure, print, self-check
//! EHDL_WRITE_BENCH=1 cargo bench --bench flush_opt   # also record JSON
//! EHDL_CHECK_BENCH=1 cargo bench --bench flush_opt   # fail unless the JSON matches exactly
//! ```
//!
//! Every run checks the acceptance bars of the [`BENCH`] gate table:
//! every point is reference-identical and within 10 % of
//! `analytical::throughput`, and the DNAT Zipf α = 1 / 10 k-flow point
//! gains ≥ 20 %. Every recorded field is simulated, so the check against
//! the recording is exact on every field.

use ehdl_bench::flush_opt::run;
use ehdl_bench::record::{Bench, Gate, EVERY_FIELD};

/// One row per `app`/`flows`/`alpha` sweep point.
const BENCH: Bench = Bench {
    name: "flush_opt",
    keys: &["app", "flows", "alpha"],
    gates: &[
        Gate::floor("identical", 1.0),
        Gate::ceiling("base_dev_pct", 10.0),
        Gate::ceiling("opt_dev_pct", 10.0),
        Gate::floor("gain_pct", 20.0).when(&[
            ("app", "DNAT"),
            ("flows", "10000"),
            ("alpha", "1.0"),
        ]),
        Gate::exact(EVERY_FIELD),
    ],
};

fn main() {
    let rows = run();
    BENCH.finish(&rows.iter().map(|r| r.row()).collect::<Vec<_>>(), Vec::new());
}
