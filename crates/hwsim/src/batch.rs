//! Host-op batching/coalescing for the serving layer.
//!
//! The serving reactor collects ops from many clients into a batch that is
//! submitted at one barrier position (an "op train": consecutive ops with
//! no packet between them). Within a train the ctrl channel charges per
//! op, so collapsing redundant ops buys real latency under hot-key storms
//! — the classic control-plane write-combining move. Two rewrites apply:
//!
//! * **Update collapse**: an `Update { flags: Any }` followed (with no
//!   intervening op on the same map) by another `Any` update to the *same
//!   key* collapses last-write-wins into the earlier slot. Both originals
//!   are answered with the surviving update's completion, which is
//!   bit-equivalent to sequential execution: the slot taken, the final
//!   value, and the success/`Full` outcome are identical in every case.
//! * **Lookup sharing**: consecutive lookups on the same map (again with
//!   no intervening same-map op) are served by one `Dump` of that map;
//!   each lookup's answer is reconstructed from the dump's entries.
//!   A client-issued `Dump` also absorbs following lookups.
//!
//! Anything else — deletes, flag-constrained updates (`NoExist`/`Exist`,
//! whose per-op success depends on position), and ops whose key/value
//! sizes don't match the map definition (their individual *errors* are
//! the required result) — passes through untouched and acts as a barrier
//! on its map. Ops on *different* maps never interact, so the rewrites
//! only ever reorder ops across maps, which commutes.
//!
//! Soundness is not argued only here: [`crate::diff::check`] with
//! [`crate::diff::CtrlOps::coalesce`] set replays coalesced schedules
//! against the sequential VM oracle, and the
//! check.sh SLO gate pins bit-equivalence on every campaign.

use crate::ctrl::{HostOp, HostOpResult};
use ehdl_ebpf::maps::{MapError, UpdateFlags};
use std::collections::BTreeMap;

/// Key/value geometry of a map, used to pre-validate ops: only ops that
/// would be *accepted* by the map may be coalesced (rejected ops must
/// keep their individual error results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapShape {
    /// Key size in bytes.
    pub key_size: usize,
    /// Value size in bytes.
    pub value_size: usize,
}

/// How one original op's result is recovered from its coalesced carrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpAnswer {
    /// The carrier's completion is the answer verbatim.
    Direct {
        /// Index of the original op in the input slice.
        orig: usize,
    },
    /// The original was a `Lookup { key }`; the carrier is a `Dump` and
    /// the answer is `Value(entries[key])`.
    FromDump {
        /// Index of the original op in the input slice.
        orig: usize,
        /// The lookup key to resolve against the dump.
        key: Vec<u8>,
    },
}

impl OpAnswer {
    /// Index of the original op this answer serves.
    pub fn orig(&self) -> usize {
        match self {
            OpAnswer::Direct { orig } | OpAnswer::FromDump { orig, .. } => *orig,
        }
    }
}

/// One op actually submitted to the device, carrying the answers for
/// every original op it stands in for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescedOp {
    /// The op to submit.
    pub op: HostOp,
    /// Original ops answered by this op's completion.
    pub answers: Vec<OpAnswer>,
}

/// Rewrite statistics for one train.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Original ops in.
    pub ops_in: u64,
    /// Device ops out.
    pub ops_out: u64,
    /// Updates absorbed into an earlier same-key update.
    pub updates_collapsed: u64,
    /// Lookups served from a shared dump.
    pub lookups_shared: u64,
}

fn op_is_valid(op: &HostOp, shape: &impl Fn(u32) -> Option<MapShape>) -> bool {
    let Some(s) = shape(op.map()) else { return false };
    let key_ok = op.key().is_none_or(|k| k.len() == s.key_size);
    let value_ok = match op {
        HostOp::Update { value, .. } => value.len() == s.value_size,
        _ => true,
    };
    key_ok && value_ok
}

/// Coalesce one op train. `shape` resolves a map id to its geometry
/// (`None` for unknown maps, which pass through untouched).
///
/// The input must be a *train*: every op at the same barrier position
/// (no packets interleaved). Results preserve per-map program order;
/// every original index appears in exactly one answer.
pub fn coalesce_ops(
    ops: &[HostOp],
    shape: impl Fn(u32) -> Option<MapShape>,
) -> (Vec<CoalescedOp>, CoalesceStats) {
    let mut out: Vec<CoalescedOp> = Vec::with_capacity(ops.len());
    let mut last_on_map: BTreeMap<u32, usize> = BTreeMap::new();
    let mut stats = CoalesceStats { ops_in: ops.len() as u64, ..Default::default() };

    for (i, op) in ops.iter().enumerate() {
        if op_is_valid(op, &shape) {
            // The carrier must itself be a valid op: an invalid one keeps
            // its individual error result and can absorb nothing.
            if let Some(&j) =
                last_on_map.get(&op.map()).filter(|&&j| op_is_valid(&out[j].op, &shape))
            {
                let absorbed = match (&mut out[j].op, op) {
                    (
                        HostOp::Update { key: k0, value: v0, flags: UpdateFlags::Any, .. },
                        HostOp::Update { key, value, flags: UpdateFlags::Any, .. },
                    ) if k0 == key => {
                        // Last-write-wins collapse into the earlier slot.
                        *v0 = value.clone();
                        out[j].answers.push(OpAnswer::Direct { orig: i });
                        stats.updates_collapsed += 1;
                        true
                    }
                    (HostOp::Lookup { .. }, HostOp::Lookup { key, .. }) => {
                        // Promote the pending lookup to a shared dump and
                        // serve both from it.
                        let (prev_orig, prev_key) = match (&out[j].op, &out[j].answers[..]) {
                            (HostOp::Lookup { key: k0, .. }, [OpAnswer::Direct { orig }]) => {
                                (*orig, k0.clone())
                            }
                            _ => unreachable!("a pending lookup has exactly one direct answer"),
                        };
                        out[j].op = HostOp::Dump { map: op.map() };
                        out[j].answers =
                            vec![OpAnswer::FromDump { orig: prev_orig, key: prev_key }];
                        out[j].answers.push(OpAnswer::FromDump { orig: i, key: key.clone() });
                        stats.lookups_shared += 2;
                        true
                    }
                    (HostOp::Dump { .. }, HostOp::Lookup { key, .. }) => {
                        out[j].answers.push(OpAnswer::FromDump { orig: i, key: key.clone() });
                        stats.lookups_shared += 1;
                        true
                    }
                    _ => false,
                };
                if absorbed {
                    continue;
                }
            }
        }
        let idx = out.len();
        out.push(CoalescedOp { op: op.clone(), answers: vec![OpAnswer::Direct { orig: i }] });
        last_on_map.insert(op.map(), idx);
    }
    stats.ops_out = out.len() as u64;
    (out, stats)
}

/// Expand per-carrier completions back to per-original results, in the
/// original submission order. `results[i]` must be the completion of
/// `coalesced[i]`.
pub fn expand_results(
    coalesced: &[CoalescedOp],
    results: &[Result<HostOpResult, MapError>],
) -> Vec<Result<HostOpResult, MapError>> {
    let n: usize = coalesced.iter().map(|c| c.answers.len()).sum();
    let mut out: Vec<Option<Result<HostOpResult, MapError>>> = vec![None; n];
    for (c, r) in coalesced.iter().zip(results.iter()) {
        for a in &c.answers {
            let answer = match a {
                OpAnswer::Direct { .. } => r.clone(),
                OpAnswer::FromDump { key, .. } => match r {
                    Ok(HostOpResult::Entries(entries)) => Ok(HostOpResult::Value(
                        entries.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
                    )),
                    Ok(_) => unreachable!("a FromDump answer's carrier completes with Entries"),
                    Err(e) => Err(e.clone()),
                },
            };
            out[a.orig()] = Some(answer);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every original op is answered by exactly one carrier"))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn shape_8_8(_: u32) -> Option<MapShape> {
        Some(MapShape { key_size: 8, value_size: 8 })
    }

    fn upd(map: u32, k: u64, v: u64) -> HostOp {
        HostOp::Update {
            map,
            key: k.to_le_bytes().to_vec(),
            value: v.to_le_bytes().to_vec(),
            flags: UpdateFlags::Any,
        }
    }

    fn look(map: u32, k: u64) -> HostOp {
        HostOp::Lookup { map, key: k.to_le_bytes().to_vec() }
    }

    #[test]
    fn adjacent_same_key_updates_collapse_last_write_wins() {
        let ops = [upd(0, 7, 1), upd(0, 7, 2), upd(0, 7, 3)];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].op, upd(0, 7, 3));
        assert_eq!(out[0].answers.len(), 3);
        assert_eq!(stats.updates_collapsed, 2);
        let expanded = expand_results(&out, &[Ok(HostOpResult::Updated)]);
        assert_eq!(expanded.len(), 3);
        assert!(expanded.iter().all(|r| r == &Ok(HostOpResult::Updated)));
    }

    #[test]
    fn different_keys_and_intervening_ops_block_collapse() {
        // Different key: no collapse.
        let (out, _) = coalesce_ops(&[upd(0, 1, 1), upd(0, 2, 2)], shape_8_8);
        assert_eq!(out.len(), 2);
        // Same key separated by a same-map delete: no collapse.
        let del = HostOp::Delete { map: 0, key: 1u64.to_le_bytes().to_vec() };
        let (out, _) = coalesce_ops(&[upd(0, 1, 1), del, upd(0, 1, 2)], shape_8_8);
        assert_eq!(out.len(), 3);
        // Same key separated only by an op on ANOTHER map: still collapses
        // (different maps commute).
        let (out, stats) = coalesce_ops(&[upd(0, 1, 1), upd(9, 5, 5), upd(0, 1, 2)], shape_8_8);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.updates_collapsed, 1);
        assert_eq!(out[0].op, upd(0, 1, 2));
    }

    #[test]
    fn flag_constrained_updates_never_collapse() {
        let mut a = upd(0, 1, 1);
        if let HostOp::Update { flags, .. } = &mut a {
            *flags = UpdateFlags::NoExist;
        }
        let (out, stats) = coalesce_ops(&[a.clone(), upd(0, 1, 2)], shape_8_8);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.updates_collapsed, 0);
        let (out, _) = coalesce_ops(&[upd(0, 1, 2), a], shape_8_8);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn consecutive_lookups_share_one_dump() {
        let ops = [look(0, 1), look(0, 2), look(0, 1)];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].op, HostOp::Dump { map: 0 });
        assert_eq!(stats.lookups_shared, 3);
        let entries = vec![(1u64.to_le_bytes().to_vec(), 11u64.to_le_bytes().to_vec())];
        let expanded = expand_results(&out, &[Ok(HostOpResult::Entries(entries))]);
        assert_eq!(expanded[0], Ok(HostOpResult::Value(Some(11u64.to_le_bytes().to_vec()))));
        assert_eq!(expanded[1], Ok(HostOpResult::Value(None)));
        assert_eq!(expanded[2], expanded[0]);
    }

    #[test]
    fn client_dump_absorbs_following_lookups() {
        let ops = [HostOp::Dump { map: 0 }, look(0, 3)];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        assert_eq!(out.len(), 1);
        assert_eq!(stats.lookups_shared, 1);
        assert!(matches!(out[0].answers[0], OpAnswer::Direct { orig: 0 }));
    }

    #[test]
    fn invalid_ops_pass_through_and_act_as_barriers() {
        // A bad-key-size lookup must keep its individual error, and a
        // bad-size update between two good ones must block their collapse.
        let bad = HostOp::Lookup { map: 0, key: vec![1, 2, 3] };
        let (out, _) = coalesce_ops(&[look(0, 1), bad.clone(), look(0, 2)], shape_8_8);
        assert_eq!(out.len(), 3, "bad-size lookup neither shares nor is shared");
        let bad_upd =
            HostOp::Update { map: 0, key: vec![0; 8], value: vec![1], flags: UpdateFlags::Any };
        let (out, stats) = coalesce_ops(&[upd(0, 1, 1), bad_upd, upd(0, 1, 2)], shape_8_8);
        assert_eq!(out.len(), 3);
        assert_eq!(stats.updates_collapsed, 0);
        // Unknown map: untouched.
        let (out, _) = coalesce_ops(&[look(0, 1), look(0, 2)], |_| None);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn every_original_is_answered_exactly_once() {
        let ops = [
            upd(0, 1, 1),
            look(1, 2),
            upd(0, 1, 2),
            look(1, 3),
            HostOp::Delete { map: 0, key: 9u64.to_le_bytes().to_vec() },
            upd(0, 1, 3),
        ];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        assert_eq!(stats.ops_in, 6);
        let mut origs: Vec<usize> =
            out.iter().flat_map(|c| c.answers.iter().map(|a| a.orig())).collect();
        origs.sort_unstable();
        assert_eq!(origs, vec![0, 1, 2, 3, 4, 5]);
    }
}
