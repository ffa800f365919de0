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
//! The run always asserts the PR's acceptance criteria: protected
//! designs are reference-identical on every packet the faults never
//! touched, ECC+watchdog designs detect/correct/recover ≥ 99 % of
//! effective faults, the watchdog restores availability an unprotected
//! hang destroys, and the whole campaign replays bit-identically from
//! its seed.

use ehdl_bench::fault_campaign::{
    render_report, report_path, reproducible, run, write_report, REPORT_PATH,
};

fn main() {
    let rows = run();
    println!(
        "{:<10} {:<13} {:>7} {:>5} {:>5} {:>5} {:>6} {:>6} {:>8} {:>7} {:>5} {:>5} {:>7} {:>6} {:>6}",
        "app", "protect", "rate", "hang", "inj", "eff", "silent", "uncorr", "coverage", "replays",
        "wdres", "lost", "avail", "clean", "maps",
    );
    for r in &rows {
        println!(
            "{:<10} {:<13} {:>7} {:>5} {:>5} {:>5} {:>6} {:>6} {:>7.1}% {:>7} {:>5} {:>5} {:>6.1}% {:>6} {:>6}",
            r.app,
            r.protect,
            r.rate,
            r.hang,
            r.injected,
            r.effective,
            r.silent,
            r.uncorrectable,
            r.coverage * 100.0,
            r.fault_replays,
            r.watchdog_resets,
            r.pkts_lost,
            r.availability * 100.0,
            r.clean,
            r.map_clean,
        );
    }

    // Acceptance gates (always on: this bench *is* the claim).
    let mut failed = false;
    for r in rows.iter().filter(|r| !r.hang) {
        if r.protect != "none" && !r.clean {
            eprintln!(
                "fault_campaign FAIL: {} {} rate={} diverges on non-fault packets",
                r.app, r.protect, r.rate
            );
            failed = true;
        }
        if r.protect == "ecc+watchdog" {
            if r.coverage < 0.99 && r.effective > 0 {
                eprintln!(
                    "fault_campaign FAIL: {} {} rate={} coverage {:.3} < 0.99",
                    r.app, r.protect, r.rate, r.coverage
                );
                failed = true;
            }
            if r.silent > 0 {
                eprintln!(
                    "fault_campaign FAIL: {} {} rate={} lets {} faults corrupt silently",
                    r.app, r.protect, r.rate, r.silent
                );
                failed = true;
            }
            if r.missing > 0 {
                eprintln!(
                    "fault_campaign FAIL: {} {} rate={} loses {} packets without recovery",
                    r.app, r.protect, r.rate, r.missing
                );
                failed = true;
            }
        }
    }
    // Negative control: the unprotected designs must visibly corrupt at
    // the high fault rate — otherwise the campaign is not biting.
    if !rows.iter().any(|r| {
        !r.hang
            && r.protect == "none"
            && r.silent > 0
            && (r.map_corrupted || !r.clean || !r.map_clean)
    }) {
        eprintln!("fault_campaign FAIL: no unprotected run shows observable corruption");
        failed = true;
    }
    // Availability: the watchdog must recover what an unwatched hang
    // destroys, on every app.
    for app in ["Firewall", "DNAT", "Suricata"] {
        let none = rows.iter().find(|r| r.hang && r.app == app && r.protect == "none");
        let wd = rows.iter().find(|r| r.hang && r.app == app && r.protect == "ecc+watchdog");
        match (none, wd) {
            (Some(n), Some(w)) if w.availability > n.availability && w.watchdog_resets > 0 => {}
            _ => {
                eprintln!("fault_campaign FAIL: watchdog does not restore {app} availability");
                failed = true;
            }
        }
    }
    if !reproducible() {
        eprintln!("fault_campaign FAIL: campaign is not bit-reproducible from its seed");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "fault_campaign OK: protected designs clean on non-fault packets, \
         ecc+watchdog coverage >= 99%, watchdog restores availability, campaign reproducible"
    );

    if std::env::var_os("EHDL_WRITE_BENCH").is_some() {
        write_report(&rows).expect("write BENCH_fault_campaign.json");
        println!("recorded {REPORT_PATH}");
    }

    // Every recorded field is simulated, so the seeded campaign must
    // reproduce the recording byte for byte.
    if std::env::var_os("EHDL_CHECK_BENCH").is_some() {
        let recorded =
            std::fs::read_to_string(report_path()).expect("read BENCH_fault_campaign.json");
        if recorded != render_report(&rows) {
            eprintln!(
                "fault_campaign REGRESSION: campaign differs from {REPORT_PATH}\n\
                 re-record with EHDL_WRITE_BENCH=1 and `git diff` it to see where"
            );
            std::process::exit(1);
        }
        println!("fault_campaign matches {REPORT_PATH} exactly");
    }
}
