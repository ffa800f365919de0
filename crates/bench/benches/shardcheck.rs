//! Sharding-soundness effectiveness tracker: per-app map classification
//! of the `ehdl_core::shardcheck` pass, exactness proofs, derived fabric
//! shape, verdict agreement with the dynamic differential checker, and
//! diagnostics coverage of the rejection paths.
//!
//! Writes `BENCH_shardcheck.json` at the workspace root so
//! `scripts/check.sh` can fail on precision regressions. Usage:
//!
//! ```sh
//! cargo bench --bench shardcheck            # measure and print
//! EHDL_WRITE_BENCH=1 cargo bench --bench shardcheck   # also record JSON
//! EHDL_CHECK_BENCH=1 cargo bench --bench shardcheck   # also check against it
//! ```

use ehdl_bench::record::{Bench, Dir, Gate};
use ehdl_bench::shardcheck::{diagnostics_exercised, measure};
use ehdl_runtime::Json;

/// One row per app, plus the campaign-wide `diagnostics` row.
const BENCH: Bench = Bench {
    name: "shardcheck",
    keys: &["app", "campaign"],
    gates: &[
        // Every app-zoo map classifies zero-hint, and no static verdict
        // is contradicted by the dynamic checker.
        Gate::floor("sound_fraction", 1.0),
        Gate::ceiling("agreement_failures", 0.0),
        // No per-app regression against the recording.
        Gate::drift("sound_maps", Dir::Down, 0.0, 0.0),
        Gate::drift("exact_maps", Dir::Down, 0.0, 0.0),
        Gate::drift("agreement_failures", Dir::Up, 0.0, 0.0),
        // All four ShardError variants fire on the unsound configs.
        Gate::floor("diagnostics_exercised", 4.0),
        Gate::ceiling("diagnostics_exercised", 4.0),
        Gate::drift("diagnostics_exercised", Dir::Down, 0.0, 0.0),
    ],
};

fn main() {
    let rows = measure();
    let diagnostics = diagnostics_exercised();
    let mut recorded: Vec<_> = rows.iter().map(|r| r.row()).collect();
    recorded.push(Json::obj([
        ("campaign", Json::from("diagnostics")),
        ("diagnostics_exercised", diagnostics.into()),
    ]));
    BENCH.finish(&recorded, Vec::new());
}
