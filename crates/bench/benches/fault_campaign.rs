//! Fault-injection campaign: detection/correction coverage, packet loss
//! and availability of the hardened designs under a seeded bit-flip /
//! stuck-at / hung-stage storm, vs the unprotected baselines, on
//! Firewall / DNAT / Suricata.
//!
//! Writes `BENCH_fault_campaign.json` at the workspace root. Usage:
//!
//! ```sh
//! cargo bench --bench fault_campaign            # measure, print, self-check
//! EHDL_WRITE_BENCH=1 cargo bench --bench fault_campaign   # also record JSON
//! EHDL_CHECK_BENCH=1 cargo bench --bench fault_campaign   # fail unless the JSON matches exactly
//! ```
//!
//! Every run checks the acceptance bars: protected designs are
//! reference-identical on every packet the faults never touched, and
//! ECC+watchdog designs detect/correct/recover ≥ 99 % of effective faults
//! with nothing silent or missing (the [`BENCH`] gate table); the
//! unprotected designs visibly corrupt, the watchdog restores the
//! availability an unprotected hang destroys, and the whole campaign
//! replays bit-identically from its seed (checked in `main`). Every
//! recorded field is simulated, so the check against the recording is
//! exact on every field.

use ehdl_bench::fault_campaign::{reproducible, run};
use ehdl_bench::record::{Bench, Gate, EVERY_FIELD};

/// One row per `app`/`protect`/`rate`/`hang` point.
const BENCH: Bench = Bench {
    name: "fault_campaign",
    keys: &["app", "protect", "rate", "hang"],
    gates: &[
        Gate::floor("clean", 1.0).when(&[("protect", "parity"), ("hang", "false")]),
        Gate::floor("clean", 1.0).when(ECC),
        // `coverage` reads 1.0 when no fault was effective.
        Gate::floor("coverage", 0.99).when(ECC),
        Gate::ceiling("silent", 0.0).when(ECC),
        Gate::ceiling("missing", 0.0).when(ECC),
        Gate::exact(EVERY_FIELD),
    ],
};

/// The ECC+watchdog transient-fault points.
const ECC: &[(&str, &str)] = &[("protect", "ecc+watchdog"), ("hang", "false")];

fn main() {
    let rows = run();
    let mut failures = Vec::new();
    // Negative control: the unprotected designs must visibly corrupt at
    // the high fault rate — otherwise the campaign is not biting.
    if !rows.iter().any(|r| {
        !r.hang
            && r.protect == "none"
            && r.silent > 0
            && (r.map_corrupted || !r.clean || !r.map_clean)
    }) {
        failures.push("no unprotected run shows observable corruption".to_string());
    }
    // Availability: the watchdog must recover what an unwatched hang
    // destroys, on every app.
    for app in ["Firewall", "DNAT", "Suricata"] {
        let none = rows.iter().find(|r| r.hang && r.app == app && r.protect == "none");
        let wd = rows.iter().find(|r| r.hang && r.app == app && r.protect == "ecc+watchdog");
        match (none, wd) {
            (Some(n), Some(w)) if w.availability > n.availability && w.watchdog_resets > 0 => {}
            _ => {
                failures.push(format!("watchdog does not restore {app} availability"));
            }
        }
    }
    if !reproducible() {
        failures.push("campaign is not bit-reproducible from its seed".to_string());
    }
    BENCH.finish(&rows.iter().map(|r| r.row()).collect::<Vec<_>>(), failures);
}
