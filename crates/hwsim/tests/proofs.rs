//! `SimOptions::check_proofs`: a compile-time packet-bounds proof that a
//! concrete access contradicts is counted, and the verdicts stay exactly
//! those of the unchecked run.

#![allow(clippy::unwrap_used)]

use ehdl_core::Compiler;
use ehdl_hwsim::{PipelineSim, SimCounters, SimOptions};
use ehdl_net::{PacketBuilder, IPPROTO_UDP};
use ehdl_programs::simple_firewall;

#[test]
fn narrowed_proof_is_counted_without_changing_verdicts() {
    let mut design = Compiler::new().compile(&simple_firewall::program()).unwrap();
    // Narrow the first proven packet access to an empty offset range, so
    // every execution of it contradicts the proof.
    let proof = design
        .stages
        .iter_mut()
        .flat_map(|s| s.ops.iter_mut())
        .find_map(|op| op.proof.as_mut())
        .expect("the firewall has a proven packet access");
    proof.hi = proof.lo - 1;

    let packets: Vec<Vec<u8>> = (0..64u16)
        .map(|i| {
            PacketBuilder::new()
                .eth([2; 6], [3; 6])
                .ipv4([10, 0, 0, (i % 7) as u8], [10, 0, 1, 1], IPPROTO_UDP)
                .udp(4000 + i, 53)
                .build()
        })
        .collect();
    let run = |check_proofs: bool| {
        let options = SimOptions { freeze_time_ns: Some(1000), check_proofs, ..Default::default() };
        let mut sim = PipelineSim::with_options(&design, options);
        for p in &packets {
            sim.enqueue(p.clone());
        }
        sim.settle(1_000_000);
        let verdicts: Vec<_> = sim
            .drain()
            .into_iter()
            .map(|o| (o.seq, o.action, o.redirect_ifindex, o.packet, o.latency_cycles))
            .collect();
        (verdicts, *sim.counters(), sim.cycle())
    };

    let (checked, checked_counters, checked_cycle) = run(true);
    let (plain, plain_counters, plain_cycle) = run(false);
    assert_eq!(checked.len(), packets.len(), "every packet retires");
    assert!(checked_counters.proof_violations > 0, "the narrowed proof must be caught");
    assert_eq!(plain_counters.proof_violations, 0, "unchecked runs count nothing");
    assert_eq!(checked, plain, "checking proofs must not change a verdict");
    assert_eq!(checked_cycle, plain_cycle);
    assert_eq!(
        SimCounters { proof_violations: 0, ..checked_counters },
        plain_counters,
        "only the violation count may differ"
    );
}
