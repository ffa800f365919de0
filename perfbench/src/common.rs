//! Inputs, set-up and statistics shared by the workloads.

use crate::trace::Tracer;
use ehdl_core::{Compiler, LoweredPlan, PassTimings, PipelineDesign};
use ehdl_ebpf::maps::MapStore;
use ehdl_ebpf::{elf, Program};
use ehdl_hwsim::{SimCounters, SimOptions, SimOutcome};
use ehdl_programs::App;
use ehdl_traffic::{FlowSet, Popularity, Workload};

/// Value every engine and the VM read from `bpf_ktime_get_ns`, so the
/// oracle sees the same clock as the pipeline.
pub const FREEZE_NS: u64 = 1000;
/// Flow population of the packet workloads (§5.1 uses 10k flows).
pub const FLOWS: usize = 10_000;

pub fn sim_options() -> SimOptions {
    SimOptions { freeze_time_ns: Some(FREEZE_NS), ..Default::default() }
}

/// A design built from ELF bytes, with what the oracle and the per-layer
/// metrics need from the build.
pub struct Built {
    pub program: Program,
    pub design: PipelineDesign,
    pub timings: PassTimings,
}

/// ELF bytes → loaded program → compiled design whose plan lowers (so the
/// engine runs the compiled backend). The engine lowers the plan again
/// when it is built; the explicit call here times lowering on its own.
pub fn build(elf_bytes: &[u8], tr: &mut Tracer, req: u64) -> Built {
    let program =
        tr.span("ebpf.elf_load", req, |_| elf::load(elf_bytes)).expect("the app's ELF loads");
    let (design, timings) = tr
        .span("core.compile", req, |_| Compiler::new().compile_with_report(&program))
        .expect("the app compiles");
    tr.span("core.lower", req, |_| LoweredPlan::try_lower(&design))
        .expect("the app's plan lowers to the compiled backend");
    Built { program, design, timings }
}

/// An independent stream seed for input `tag` of a run seeded `seed`.
pub fn subseed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The flows a workload draws from (TCP for Suricata, whose rules match
/// TCP sessions; UDP otherwise).
pub fn flows_of(app: App, n: usize, seed: u64) -> FlowSet {
    match app {
        App::Suricata => FlowSet::tcp(n, seed),
        _ => FlowSet::udp(n, seed),
    }
}

/// Host-side map set-up: `ehdl_bench::setup_app`, except that Suricata's
/// rules match the first 64 flows of this run's seeded flow set.
pub fn install(app: App, flows: &FlowSet, maps: &mut MapStore) {
    match app {
        App::Suricata => {
            for f in flows.flows().iter().take(64) {
                ehdl_programs::suricata::install_rule(maps, f);
            }
        }
        _ => ehdl_bench::setup_app(app, maps),
    }
}

/// §5.1 traffic: 64 B frames over uniformly drawn flows
/// (`ehdl_bench::eval_packets` with a seed).
pub fn uniform_packets(flows: &FlowSet, n: usize, seed: u64) -> Vec<Vec<u8>> {
    Workload::new(flows.clone(), Popularity::Uniform, 64, seed).packets(n)
}

/// New-flow churn: Zipf flow draws, each sent as a back-to-back burst
/// (`ehdl_bench::flush_opt::churn_packets` with a seed).
pub fn churn_packets(flows: &FlowSet, alpha: f64, n: usize, seed: u64) -> Vec<Vec<u8>> {
    use ehdl_bench::flush_opt::CHURN_BURST;
    let draws =
        Workload::new(flows.clone(), Popularity::Zipf { alpha }, 64, seed).packets(n / CHURN_BURST);
    draws.iter().flat_map(|p| std::iter::repeat_n(p.clone(), CHURN_BURST)).collect()
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency metric that reads the same for every sample measures a
/// constant, not a latency: refuse it.
pub fn check_varies(name: &str, samples: &[u64]) -> Result<(), String> {
    match (samples.iter().min(), samples.iter().max()) {
        (Some(lo), Some(hi)) if lo < hi => Ok(()),
        (Some(lo), Some(_)) => Err(format!(
            "{name}: all {} samples read {lo}; the metric is a constant",
            samples.len()
        )),
        _ => Err(format!("{name}: no samples")),
    }
}

/// Running FNV-1a digest of everything a run produced, so repeated
/// rounds on the same inputs can be shown to produce identical outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn outcome(&mut self, o: &SimOutcome) {
        self.u64(o.seq);
        self.u64(o.action.code());
        self.u64(o.latency_cycles);
        self.bytes(&o.packet);
    }

    pub fn counters(&mut self, c: &SimCounters) {
        for v in [
            c.injected,
            c.completed,
            c.rx_dropped,
            c.flushes,
            c.flush_replays,
            c.host_ops,
            c.host_op_flushes,
            c.mem_stall_cycles,
        ] {
            self.u64(v);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_latency_is_refused() {
        assert!(check_varies("lat", &[96, 96, 96]).is_err());
        assert!(check_varies("lat", &[]).is_err());
        assert!(check_varies("lat", &[96, 97]).is_ok());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
