//! Telemetry: structured snapshots of a running pipeline and a periodic
//! JSON exporter.

use crate::json_obj;
use crate::retry::ReliableSnapshot;
use crate::Json;
use ehdl_hwsim::{CtrlStats, SimCounters, SteeringStats};

/// Per-stage occupancy telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTelemetry {
    /// Stage index in flow order.
    pub stage: usize,
    /// Cycles the stage held a packet.
    pub occupied_cycles: u64,
    /// `occupied_cycles / total cycles` (0 when the clock has not run).
    pub utilization: f64,
}

/// Per-map access telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct MapTelemetry {
    /// Map id.
    pub id: u32,
    /// Map name.
    pub name: String,
    /// Datapath lookups issued.
    pub lookups: u64,
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl MapTelemetry {
    /// Hit fraction (0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// One full telemetry snapshot of a [`crate::Runtime`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Name of the loaded program.
    pub program: String,
    /// Reload epoch (number of completed swaps).
    pub epoch: u64,
    /// Cycles on the current design's clock.
    pub cycle: u64,
    /// Cycles across all designs ever loaded.
    pub total_cycles: u64,
    /// Datapath event counters.
    pub counters: SimCounters,
    /// Control-channel counters.
    pub ctrl: CtrlStats,
    /// Per-stage occupancy.
    pub stages: Vec<StageTelemetry>,
    /// Per-map access statistics.
    pub maps: Vec<MapTelemetry>,
    /// Achieved throughput in packets per second of simulated time.
    pub throughput_pps: f64,
    /// Multi-pipeline steering statistics (`None` when the runtime
    /// drives a single pipeline).
    pub steering: Option<SteeringStats>,
    /// Reliable-submission statistics (`None` on a lossless channel,
    /// which bypasses the retry layer).
    pub reliability: Option<ReliableSnapshot>,
    /// Serving-level SLO accounting (`None` outside a serving reactor).
    pub slo: Option<SloSnapshot>,
}

/// Serving-level SLO figures, filled in by `ehdl-serve`'s reactor: the
/// request-grained view (how many packets/ops were served, how fast, and
/// what fraction of the error budget the failures burned) that rides
/// along with the device-grained counters above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSnapshot {
    /// Requests offered (packets + accepted ops).
    pub offered: u64,
    /// Requests served successfully.
    pub served: u64,
    /// Requests that failed (lost packets, errored/abandoned ops).
    pub failed: u64,
    /// Ops refused at admission (`ServeError::Overloaded`); backpressure,
    /// not failure — counted separately from the SLI.
    pub shed: u64,
    /// `served / offered` (1.0 with nothing offered).
    pub availability: f64,
    /// Cycles the datapath was unavailable (reload swaps, watchdog
    /// recovery windows).
    pub downtime_cycles: u64,
    /// Fraction of the error budget consumed (1.0 = budget exhausted;
    /// may exceed 1.0).
    pub error_budget_consumed: f64,
    /// Observed failure rate over the *unavailability* budget: 1.0 means
    /// failures arrive exactly at the sustainable rate.
    pub burn_rate: f64,
    /// p50 packet latency in cycles.
    pub pkt_p50_cycles: u64,
    /// p99 packet latency in cycles.
    pub pkt_p99_cycles: u64,
    /// p999 packet latency in cycles.
    pub pkt_p999_cycles: u64,
    /// p50 op latency (client submit to ack) in cycles.
    pub op_p50_cycles: u64,
    /// p99 op latency in cycles.
    pub op_p99_cycles: u64,
    /// p999 op latency in cycles.
    pub op_p999_cycles: u64,
}

impl RuntimeStats {
    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("program", Json::from(&self.program)),
            ("epoch", self.epoch.into()),
            ("cycle", self.cycle.into()),
            ("total_cycles", self.total_cycles.into()),
            ("throughput_pps", self.throughput_pps.into()),
            (
                "counters",
                json_obj!(self.counters; injected, completed, rx_dropped, flushes, flush_replays,
                    bounds_faults, fault_replays, watchdog_resets, host_ops, host_op_flushes,
                    mem_stall_cycles),
            ),
            (
                "ctrl",
                json_obj!(self.ctrl; submitted, completed, failed, rejected, flushes,
                    flushed_readers, mean_latency_cycles = self.ctrl.mean_latency_cycles(),
                    max_latency_cycles = self.ctrl.latency_cycles_max),
            ),
        ];
        if let Some(r) = &self.reliability {
            fields.push((
                "reliability",
                json_obj!(r; ops, completed, retries, dup_completions_suppressed, gave_up,
                    p99_latency_cycles),
            ));
        }
        if let Some(o) = &self.slo {
            fields.push((
                "slo",
                json_obj!(o; offered, served, failed, shed, availability, downtime_cycles,
                    error_budget_consumed, burn_rate,
                    pkt_latency_cycles = json_obj!(o; p50 = o.pkt_p50_cycles,
                        p99 = o.pkt_p99_cycles, p999 = o.pkt_p999_cycles),
                    op_latency_cycles = json_obj!(o; p50 = o.op_p50_cycles,
                        p99 = o.op_p99_cycles, p999 = o.op_p999_cycles)),
            ));
        }
        if let Some(st) = &self.steering {
            let pipelines = (0..st.steered.len()).map(|i| {
                json_obj!(st; steered = st.steered[i],
                    dropped = st.dropped.get(i).copied().unwrap_or(0),
                    pkts_per_cycle = st.pkts_per_cycle.get(i).copied().unwrap_or(0.0))
            });
            fields.push((
                "steering",
                json_obj!(st; imbalance, pipelines = pipelines.collect::<Vec<_>>()),
            ));
        }
        let stages =
            self.stages.iter().map(|st| json_obj!(st; stage, occupied_cycles, utilization));
        fields.push(("stages", stages.collect::<Vec<_>>().into()));
        let maps = self.maps.iter().map(
            |m| json_obj!(m; id, name, lookups, hits, hit_rate = m.hit_rate(), entries, capacity),
        );
        fields.push(("maps", maps.collect::<Vec<_>>().into()));
        Json::obj(fields)
    }
}

/// The 32-bit CSR file a host driver would actually read over AXI-Lite:
/// hardware counter registers are 32 bits wide, so the snapshot
/// *saturates* rather than wrapping — a long campaign must never make a
/// counter appear to go backwards or restart from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrSnapshot {
    /// Completed packets (saturating).
    pub completed: u32,
    /// RX drops (saturating).
    pub rx_dropped: u32,
    /// Hazard flushes (saturating).
    pub flushes: u32,
    /// Flush replays (saturating).
    pub flush_replays: u32,
    /// Host ops applied (saturating).
    pub host_ops: u32,
    /// Host-write RAW repairs (saturating).
    pub host_op_flushes: u32,
    /// Watchdog resets (saturating).
    pub watchdog_resets: u32,
}

impl CsrSnapshot {
    /// Project the 64-bit counters onto the 32-bit CSR registers.
    pub fn of(c: &SimCounters) -> CsrSnapshot {
        CsrSnapshot {
            completed: sat32(c.completed),
            rx_dropped: sat32(c.rx_dropped),
            flushes: sat32(c.flushes),
            flush_replays: sat32(c.flush_replays),
            host_ops: sat32(c.host_ops),
            host_op_flushes: sat32(c.host_op_flushes),
            watchdog_resets: sat32(c.watchdog_resets),
        }
    }
}

/// Saturating 64→32-bit projection for CSR reads.
fn sat32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Periodic telemetry export: emits a JSON snapshot every
/// `interval_cycles` of runtime clock, mirroring a host daemon polling
/// the NIC's CSRs on a timer.
#[derive(Debug, Clone)]
pub struct PeriodicExporter {
    interval_cycles: u64,
    next_cycle: u64,
    exports: Vec<Json>,
}

impl PeriodicExporter {
    /// Export every `interval_cycles` (panics if zero).
    pub fn new(interval_cycles: u64) -> PeriodicExporter {
        assert!(interval_cycles > 0, "export interval must be positive");
        PeriodicExporter { interval_cycles, next_cycle: interval_cycles, exports: Vec::new() }
    }

    /// Offer a snapshot; exports (and returns) its JSON if the interval
    /// elapsed since the last export. Call as often as convenient — the
    /// cadence is governed by `stats.total_cycles`, not by call count.
    pub fn poll(&mut self, stats: &RuntimeStats) -> Option<&Json> {
        if stats.total_cycles < self.next_cycle {
            return None;
        }
        // Catch up so a long gap yields one export, not a burst.
        let intervals = (stats.total_cycles - self.next_cycle) / self.interval_cycles + 1;
        self.next_cycle += intervals * self.interval_cycles;
        self.exports.push(stats.to_json());
        self.exports.last()
    }

    /// Every snapshot exported so far.
    pub fn exports(&self) -> &[Json] {
        &self.exports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_snapshot_saturates_instead_of_wrapping() {
        // A campaign long enough to exceed 2^32 completions must pin the
        // 32-bit CSR at its maximum, not wrap to a small number.
        let c = SimCounters {
            completed: u64::from(u32::MAX) + 12_345,
            flushes: u64::MAX,
            host_ops: 7,
            ..Default::default()
        };
        let csr = CsrSnapshot::of(&c);
        assert_eq!(csr.completed, u32::MAX);
        assert_eq!(csr.flushes, u32::MAX);
        assert_eq!(csr.host_ops, 7);
        // The wrapped interpretation would have been small — make the
        // regression explicit.
        assert_ne!(u64::from(csr.completed), (u64::from(u32::MAX) + 12_345) & 0xffff_ffff);
    }

    #[test]
    fn exporter_cadence_follows_cycles() {
        let mut stats = RuntimeStats {
            program: "t".into(),
            epoch: 0,
            cycle: 0,
            total_cycles: 0,
            counters: SimCounters::default(),
            ctrl: CtrlStats::default(),
            stages: vec![],
            maps: vec![],
            throughput_pps: 0.0,
            steering: None,
            reliability: None,
            slo: None,
        };
        let mut exp = PeriodicExporter::new(1000);
        assert!(exp.poll(&stats).is_none());
        stats.total_cycles = 999;
        assert!(exp.poll(&stats).is_none());
        stats.total_cycles = 1000;
        assert!(exp.poll(&stats).is_some());
        assert!(exp.poll(&stats).is_none(), "same cycle exports once");
        // A long gap emits one catch-up export, not a burst.
        stats.total_cycles = 10_500;
        assert!(exp.poll(&stats).is_some());
        assert!(exp.poll(&stats).is_none());
        stats.total_cycles = 11_000;
        assert!(exp.poll(&stats).is_some());
        assert_eq!(exp.exports().len(), 3);
    }

    #[test]
    fn json_contains_every_section() {
        let stats = RuntimeStats {
            program: "fw".into(),
            epoch: 2,
            cycle: 10,
            total_cycles: 30,
            counters: SimCounters { completed: 5, ..Default::default() },
            ctrl: CtrlStats { submitted: 3, completed: 3, ..Default::default() },
            stages: vec![StageTelemetry { stage: 0, occupied_cycles: 7, utilization: 0.7 }],
            maps: vec![MapTelemetry {
                id: 0,
                name: "sessions".into(),
                lookups: 10,
                hits: 4,
                entries: 2,
                capacity: 64,
            }],
            throughput_pps: 1.0e6,
            steering: None,
            reliability: None,
            slo: None,
        };
        let json = stats.to_json();
        for key in ["program", "epoch", "counters", "ctrl", "stages", "maps"] {
            assert!(json.get(key).is_some(), "missing {key} in {json:?}");
        }
        let field = |section: &str, key: &str| {
            let v = json.get(section).expect("section present");
            let v = v.as_array().map_or(v, |items| &items[0]);
            v.get(key).cloned()
        };
        assert_eq!(field("maps", "hit_rate"), Some(Json::Float(0.4)));
        assert_eq!(field("stages", "utilization"), Some(Json::Float(0.7)));
        assert!(field("ctrl", "mean_latency_cycles").is_some());
        assert!(field("counters", "mem_stall_cycles").is_some());
        assert!(json.get("steering").is_none(), "single-pipeline snapshots omit steering");
    }

    fn full_stats() -> RuntimeStats {
        // Every optional section populated: steering, reliability, slo.
        RuntimeStats {
            program: "fw".into(),
            epoch: 2,
            cycle: 10,
            total_cycles: 30,
            counters: SimCounters { completed: 5, ..Default::default() },
            ctrl: CtrlStats { submitted: 3, completed: 3, ..Default::default() },
            stages: vec![StageTelemetry { stage: 0, occupied_cycles: 7, utilization: 0.7 }],
            maps: vec![MapTelemetry {
                id: 0,
                name: "sessions".into(),
                lookups: 10,
                hits: 4,
                entries: 2,
                capacity: 64,
            }],
            throughput_pps: 1.0e6,
            steering: Some(SteeringStats {
                steered: vec![30, 10],
                dropped: vec![0, 2],
                pkts_per_cycle: vec![0.25, 0.125],
                imbalance: 1.5,
            }),
            reliability: Some(ReliableSnapshot {
                ops: 9,
                completed: 9,
                retries: 2,
                dup_completions_suppressed: 1,
                gave_up: 0,
                p99_latency_cycles: 640,
            }),
            slo: Some(SloSnapshot {
                offered: 1000,
                served: 995,
                failed: 5,
                shed: 3,
                availability: 0.995,
                downtime_cycles: 4096,
                error_budget_consumed: 0.5,
                burn_rate: 1.25,
                pkt_p50_cycles: 40,
                pkt_p99_cycles: 90,
                pkt_p999_cycles: 130,
                op_p50_cycles: 70,
                op_p99_cycles: 700,
                op_p999_cycles: 1400,
            }),
        }
    }

    /// Write then parse, checking the text is valid JSON that reads back
    /// the same value.
    fn round_trip(json: &Json) -> String {
        let text = json.write().expect("finite telemetry writes");
        assert_eq!(Json::parse(&text).as_ref(), Ok(json), "{text}");
        text
    }

    #[test]
    fn every_snapshot_shape_serializes_to_valid_json() {
        // Every exported shape parses back: bare, partially-populated,
        // and fully populated (incl. the SLO section), and the exporter
        // stream too.
        let mut stats = full_stats();
        round_trip(&stats.to_json());
        stats.slo = None;
        round_trip(&stats.to_json());
        stats.reliability = None;
        round_trip(&stats.to_json());
        stats.steering = None;
        round_trip(&stats.to_json());
        stats.stages.clear();
        stats.maps.clear();
        round_trip(&stats.to_json());

        let mut exp = PeriodicExporter::new(10);
        stats.total_cycles = 30;
        assert!(exp.poll(&stats).is_some());
        for json in exp.exports() {
            round_trip(json);
        }
    }

    #[test]
    fn hostile_names_are_escaped() {
        // Program and map names come from ELF strings; quotes, backslashes
        // and control characters in them must not break the JSON.
        let mut stats = full_stats();
        stats.program = "fw\"1.0\"\\prod\n".into();
        stats.maps[0].name = "tab\tle\u{1}".into();
        let json = round_trip(&stats.to_json());
        assert!(json.contains("fw\\\"1.0\\\"\\\\prod\\n"));
        assert!(json.contains("tab\\tle\\u0001"));
    }

    #[test]
    fn json_exports_steering_section() {
        let mut stats = RuntimeStats {
            program: "fw".into(),
            epoch: 0,
            cycle: 0,
            total_cycles: 0,
            counters: SimCounters::default(),
            ctrl: CtrlStats::default(),
            stages: vec![],
            maps: vec![],
            throughput_pps: 0.0,
            steering: None,
            reliability: None,
            slo: None,
        };
        stats.steering = Some(SteeringStats {
            steered: vec![30, 10],
            dropped: vec![0, 2],
            pkts_per_cycle: vec![0.25, 0.125],
            imbalance: 1.5,
        });
        let st = stats.to_json();
        let st = st.get("steering").expect("steering section");
        assert_eq!(st.get("imbalance"), Some(&Json::Float(1.5)));
        let pipes = st.get("pipelines").and_then(Json::as_array).expect("pipelines");
        assert_eq!(pipes[0].get("steered"), Some(&Json::Int(30)));
        assert_eq!(pipes[1].get("dropped"), Some(&Json::Int(2)));
        assert_eq!(pipes[0].get("pkts_per_cycle"), Some(&Json::Float(0.25)));
    }
}
