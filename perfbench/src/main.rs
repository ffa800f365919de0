//! The repository benchmark: drives the whole eHDL path through the public
//! API — ELF bytes through the loader/verifier, compiler, lowering, the
//! cycle simulator, the sharded fabric, the control channel, the runtime
//! and the serving reactor — checks every output against the VM, and
//! prints one JSON result line.
//!
//! ```text
//! perfbench --workload <line_rate|churn_sharded|serve_hotkey> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant and prints the per-layer metrics. See `README.md` for the
//! workloads and every metric's definition.

mod churn;
mod common;
mod line_rate;
mod measure;
mod oracle;
mod serve;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// End-to-end metrics (host clock: `setup_s`, `host_*`, `peak_rss_mb`;
/// modeled 250 MHz clock: `hw_*`).
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub host_cycles_per_s: f64,
    pub host_pkts_per_s: f64,
    pub peak_rss_mb: f64,
    pub hw_pkts_per_cycle: f64,
    pub hw_pkt_lat_p50_cycles: f64,
    pub hw_pkt_lat_p999_cycles: f64,
    pub hw_op_lat_p50_cycles: f64,
    pub hw_op_lat_p99_cycles: f64,
    pub hw_op_capacity_per_kcycle: f64,
    pub delivered_frac: f64,
}

/// Every per-layer metric with its unit, in report order.
pub const LAYER_METRICS: [(&str, &str); 34] = [
    ("ebpf.elf_load_s", "s"),
    ("ebpf.verify_s", "s"),
    ("ebpf.absint_s", "s"),
    ("core.unroll_s", "s"),
    ("core.analyze_s", "s"),
    ("core.fuse_s", "s"),
    ("core.schedule_s", "s"),
    ("core.backend_s", "s"),
    ("core.lower_s", "s"),
    ("hwsim.build_s", "s"),
    ("core.stages", "count"),
    ("core.hw_insns", "count"),
    ("hwsim.step_ns_per_cycle", "ns/cycle"),
    ("hwsim.enqueue_ns_per_pkt", "ns/pkt"),
    ("hwsim.drain_ns_per_pkt", "ns/pkt"),
    ("hwsim.flushes_per_kpkt", "flushes/kpkt"),
    ("hwsim.replay_frac", "ratio"),
    ("hwsim.rx_dropped", "count"),
    ("hwsim.host_op_flushes", "count"),
    ("shared.run_s", "s"),
    ("shared.conflict_rate", "ratio"),
    ("shared.stall_cycles", "cycles"),
    ("shared.imbalance", "ratio"),
    ("ctrl.lat_mean_cycles", "cycles"),
    ("ctrl.lat_max_cycles", "cycles"),
    ("ctrl.flushes", "count"),
    ("serve.submit_ns_per_op", "ns/op"),
    ("serve.turn_ns_per_cycle", "ns/cycle"),
    ("serve.queue_wait_p99_cycles", "cycles"),
    ("serve.gen_late_p99_cycles", "cycles"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.shed_ops", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.reconcile_err_frac", "ratio"),
];

/// Per-layer metrics by name. A metric a workload cannot observe from
/// outside the layer's public functions reads 0 (see `README.md`).
#[derive(Debug, Default, Clone)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    fn key(name: &str) -> &'static str {
        LAYER_METRICS
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(Self::key(name), v);
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(Self::key(name)).or_default() += v;
    }

    /// Add the compile-time breakdown and design size of one design.
    pub fn add_build(&mut self, b: &common::Built) {
        let t = &b.timings;
        for (name, d) in [
            ("ebpf.verify_s", t.verify),
            ("ebpf.absint_s", t.absint),
            ("core.unroll_s", t.unroll),
            ("core.analyze_s", t.analyze),
            ("core.fuse_s", t.fuse),
            ("core.schedule_s", t.schedule),
            ("core.backend_s", t.backend),
        ] {
            self.add(name, d.as_secs_f64());
        }
        self.add("core.stages", b.design.stage_count() as f64);
        self.add("core.hw_insns", b.design.stats.hw_insns as f64);
    }

    /// Copy every metric `other` has.
    pub fn merge(&mut self, other: &Layers) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }

    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        LAYER_METRICS.iter().map(|&(n, u)| (n, self.0.get(n).copied().unwrap_or(0.0), u)).collect()
    }
}

/// What one workload run measured.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: EndToEnd,
    pub layers: Layers,
}

fn end_to_end_metrics(e: &EndToEnd) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", e.setup_s, "s"),
        ("host_cycles_per_s", e.host_cycles_per_s, "cycles/s"),
        ("host_pkts_per_s", e.host_pkts_per_s, "pkts/s"),
        ("peak_rss_mb", e.peak_rss_mb, "MiB"),
        ("hw_pkts_per_cycle", e.hw_pkts_per_cycle, "pkts/cycle"),
        ("hw_pkt_lat_p50_cycles", e.hw_pkt_lat_p50_cycles, "cycles"),
        ("hw_pkt_lat_p999_cycles", e.hw_pkt_lat_p999_cycles, "cycles"),
        ("hw_op_lat_p50_cycles", e.hw_op_lat_p50_cycles, "cycles"),
        ("hw_op_lat_p99_cycles", e.hw_op_lat_p99_cycles, "cycles"),
        ("hw_op_capacity_per_kcycle", e.hw_op_capacity_per_kcycle, "ops/kcycle"),
        ("delivered_frac", e.delivered_frac, "ratio"),
    ]
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let measured = match args.workload.as_str() {
        "line_rate" => line_rate::run(&args),
        "churn_sharded" => churn::run(&args),
        "serve_hotkey" => serve::run(&args),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    match measured {
        Ok(m) => {
            let metrics = if args.trace { m.layers.metrics() } else { end_to_end_metrics(&m.e2e) };
            if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
                eprintln!("perfbench: metric {name} is not a number ({v})");
                return ExitCode::FAILURE;
            }
            println!("{}", result_json(true, m.attempted, m.failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            println!("{}", result_json(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

/// Host fingerprint: core count, CPU model and the compiler that built
/// this binary (passed in by `run.py` as `PERFBENCH_RUSTC`).
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    format!(
        "\"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\"}}",
        cpu.replace('"', "'"),
        rustc.replace('"', "'")
    )
}
