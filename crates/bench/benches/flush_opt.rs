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
//! The run always asserts the PR's acceptance criteria: every point is
//! reference-identical and within 10 % of `analytical::throughput`, and
//! the DNAT Zipf α = 1 / 10 k-flow point gains ≥ 20 %.

use ehdl_bench::flush_opt::{render_report, report_path, run, write_report, REPORT_PATH};

fn main() {
    let rows = run();
    println!(
        "{:<10} {:>6} {:>5} {:>9} {:>9} {:>7} {:>8} {:>8} {:>5} {:>5} {:>8} {:>8} {:>5}",
        "app",
        "flows",
        "alpha",
        "base_ppc",
        "opt_ppc",
        "gain%",
        "base_fl",
        "opt_fl",
        "K",
        "Kp",
        "base_dev",
        "opt_dev",
        "ident",
    );
    for r in &rows {
        println!(
            "{:<10} {:>6} {:>5} {:>9.4} {:>9.4} {:>6.1}% {:>8} {:>8} {:>5} {:>5} {:>7.1}% {:>7.1}% {:>5}",
            r.app,
            r.flows,
            r.alpha,
            r.base_ppc,
            r.opt_ppc,
            r.gain_pct,
            r.base_flushes,
            r.opt_flushes,
            r.k_full,
            r.k_partial,
            r.base_dev_pct,
            r.opt_dev_pct,
            r.identical,
        );
    }

    // Acceptance gates (always on: this bench *is* the claim).
    let mut failed = false;
    for r in &rows {
        if !r.identical {
            eprintln!(
                "flush_opt FAIL: {} flows={} alpha={} diverges from the VM",
                r.app, r.flows, r.alpha
            );
            failed = true;
        }
        for (which, dev) in [("base", r.base_dev_pct), ("opt", r.opt_dev_pct)] {
            if dev > 10.0 {
                eprintln!(
                    "flush_opt FAIL: {} flows={} alpha={} {which} run {dev:.1}% off the analytical model",
                    r.app, r.flows, r.alpha,
                );
                failed = true;
            }
        }
    }
    let headline = rows
        .iter()
        .find(|r| r.app == "DNAT" && r.flows == 10_000 && r.alpha == 1.0)
        .expect("headline DNAT point present");
    if headline.gain_pct < 20.0 {
        eprintln!(
            "flush_opt FAIL: headline DNAT gain {:.1}% < 20% (base {:.4} -> opt {:.4})",
            headline.gain_pct, headline.base_ppc, headline.opt_ppc,
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "flush_opt OK: headline DNAT gain {:.1}%, all points identical and within 10% of the model",
        headline.gain_pct,
    );

    if std::env::var_os("EHDL_WRITE_BENCH").is_some() {
        write_report(&rows).expect("write BENCH_flush_opt.json");
        println!("recorded {REPORT_PATH}");
    }

    // Every recorded field is simulated, so the sweep must reproduce the
    // recording byte for byte.
    if std::env::var_os("EHDL_CHECK_BENCH").is_some() {
        let recorded = std::fs::read_to_string(report_path()).expect("read BENCH_flush_opt.json");
        if recorded != render_report(&rows) {
            eprintln!(
                "flush_opt REGRESSION: sweep differs from {REPORT_PATH}\n\
                 re-record with EHDL_WRITE_BENCH=1 and `git diff` it to see where"
            );
            std::process::exit(1);
        }
        println!("flush_opt matches {REPORT_PATH} exactly");
    }
}
