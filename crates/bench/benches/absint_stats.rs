//! Value-analysis effectiveness tracker: packet accesses proven in-bounds
//! per evaluation app, statically-decided branches, and the LUT/FF savings
//! the proofs buy (unguarded load/store lanes + narrowed carried state).
//!
//! Writes `BENCH_absint.json` at the workspace root so `scripts/check.sh`
//! can fail on precision regressions. Usage:
//!
//! ```sh
//! cargo bench --bench absint_stats            # measure and print
//! EHDL_WRITE_BENCH=1 cargo bench --bench absint_stats   # also record JSON
//! EHDL_CHECK_BENCH=1 cargo bench --bench absint_stats   # also check against it
//! ```

use ehdl_bench::absint::{measure, AbsintRow};
use ehdl_bench::record::{Bench, Dir, Gate};

/// One row per app, keyed by `app`.
const BENCH: Bench = Bench {
    name: "absint",
    keys: &["app"],
    gates: &[
        // The evaluation's hard floor: at least 80% of packet accesses
        // proven on every app.
        Gate::floor("proven_fraction", 0.8),
        // No app proves fewer accesses than recorded, and the access
        // count itself does not move.
        Gate::drift("proven_accesses", Dir::Down, 0.0, 0.0),
        Gate::exact("packet_accesses"),
    ],
};

fn main() {
    let rows = measure();
    BENCH.finish(&rows.iter().map(AbsintRow::row).collect::<Vec<_>>(), Vec::new());
}
