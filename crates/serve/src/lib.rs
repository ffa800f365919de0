//! Async-style multi-client serving layer for the simulated eHDL NIC.
//!
//! The paper stops at one host process driving one control channel; real
//! deployments put an *agent* in front — many tenants and daemons
//! mutating maps concurrently while packets stream at line rate. This
//! crate models that serving layer, dependency-free and single-threaded
//! (a reactor, not a thread pool — determinism is what makes the SLO
//! numbers exact):
//!
//! * [`Reactor`] — multiplexes thousands of clients over one modeled
//!   PCIe/AXI-Lite channel: bounded per-client queues, round-robin fair
//!   batch collection, device-backpressure-gated submission, and typed
//!   admission control ([`ServeError::Overloaded`]);
//! * op **coalescing** — adjacent same-key updates collapse to the last
//!   write, compatible lookup runs share one dump frame; acks are
//!   reconstructed per original op, and the coalesced schedule is pinned
//!   bit-equivalent to the sequential oracle by [`ehdl_hwsim::check`]
//!   with [`ehdl_hwsim::CtrlOps::coalesce`] set;
//! * [`SloTracker`] — continuous request-grained SLO accounting: shared
//!   log2-bucket latency histograms for packets and ops (p50/p99/p999),
//!   availability, downtime, error-budget burn — exported through
//!   [`ehdl_runtime::RuntimeStats::slo`];
//! * [`run_campaign`] — the long-haul driver: flow churn, Zipf hot-key
//!   storms, SYN floods, live reload swaps, replica kill storms, and
//!   lossy-channel exactly-once delivery, in one deterministic run
//!   (`BENCH_slo.json` gates its numbers in CI).

#![deny(clippy::unwrap_used)]

mod campaign;
mod client;
mod reactor;
mod slo;

pub use campaign::{
    kill_storm, lossy_ops, run_campaign, CampaignConfig, CampaignReport, KillReport, LossyReport,
    PhaseReport,
};
pub use client::{Ack, AdmissionConfig, ClientId, ServeError, Ticket};
pub use reactor::{Reactor, ReactorOptions, ReactorStats};
pub use slo::{SloConfig, SloTracker};
