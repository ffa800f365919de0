//! The stage-execution engine.
//!
//! At attach time [`LoweredPlan::try_lower`] monomorphizes every
//! [`ehdl_core::StageOp`] it can into a [`FusedOp`] with its plan constants
//! baked in (immediates pre-extended, map handles resolved, key/value
//! geometry, WAR delays and FEB schedules inlined, block guards
//! flattened); [`LoweredPlan::unfused`] leaves every op to the generic
//! per-op path. This module executes either plan.
//!
//! Stages come in two flavors:
//!
//! - **Direct** stages mutate the packet state in place, op by op — no
//!   scratch write set, no per-stage `Delta` push/apply/clear, no plan
//!   indirection. The lowerer only marks a stage direct when it proved no
//!   op observes an earlier op's write within the stage, which makes
//!   in-place execution bit-identical to the two-phase semantics by
//!   construction.
//! - **Delta** stages run through [`PipelineSim::exec_stage_two_phase`] —
//!   the generic op loop, every op through [`PipelineSim::exec_op`] — so
//!   anything the lowerer could not prove safe (intra-stage dependences,
//!   geometry-moving helpers, ops without a specialization) and every
//!   stage of the unfused plan stays on the reference path.
//!
//! Every specialized op re-validates the compile-time memory label with a
//! cheap range guard; a guard miss falls back to the generic per-op path
//! ([`PipelineSim::exec_op_cold`]) at the same op index, which the 1:1
//! `FusedOp`↔`StageOp` correspondence makes exact. The one deliberate
//! elision is the packet bounds compare for accesses the abstract
//! interpreter proved in range (`proven`), per the §4.4 hardware semantics
//! of dropping the check entirely.

use super::*;
use ehdl_core::{FusedOp, RegOrImm};
use ehdl_ebpf::vm::{MAP_VALUE_BASE, MAP_WINDOW_BITS};

/// Direct-stage control outputs accumulated across ops (the fields of
/// `Delta` that are not packet state).
struct DirectCtl {
    side_effect: bool,
    flush: Option<(u32, Vec<u8>, usize)>,
}

/// Decode `addr` as a value address of the *baked* map, mirroring
/// [`decode_map_value_addr`] specialized to one `(map, stride)` pair:
/// `Some((slot, offset))` only when the address lands in that map's
/// window, so a label mismatch routes to the generic path instead.
#[inline]
fn map_slot_of(addr: u64, map: u32, stride: u32) -> Option<(usize, usize)> {
    if !(MAP_VALUE_BASE..MAP_HANDLE_BASE).contains(&addr) {
        return None;
    }
    let rel = addr - MAP_VALUE_BASE;
    if (rel >> MAP_WINDOW_BITS) as u32 != map {
        return None;
    }
    let within = (rel & ((1 << MAP_WINDOW_BITS) - 1)) as usize;
    let stride = stride as usize;
    Some((within / stride, within % stride))
}

/// The helper-call epilogue: `r0` takes the result, `r1`–`r5` are
/// clobbered (caller-saved), exactly as the generic path's delta commit.
#[inline]
fn helper_epilogue(state: &mut PacketState, r0: u64) {
    state.regs[0] = r0;
    state.regs[1] = 0;
    state.regs[2] = 0;
    state.regs[3] = 0;
    state.regs[4] = 0;
    state.regs[5] = 0;
}

impl PipelineSim {
    /// Execute stage `s` for one packet: the prologue (resume fast path,
    /// empty-stage forward, predication, implicit length guard — all
    /// against baked constants), then either the in-place direct loop or
    /// the two-phase body.
    pub(super) fn exec_stage(
        &mut self,
        s: usize,
        pkt: &mut InFlight,
        lp: &LoweredPlan,
        plan: &ExecPlan,
    ) -> StageResult {
        // Flush-replay fast path: skip until the checkpointed stage.
        if let Some((resume_stage, _)) = pkt.resume {
            if s < resume_stage {
                return StageResult::Ok;
            }
            let (_, mut snap) = pkt.resume.take().expect("resume checked above");
            std::mem::swap(&mut pkt.state, &mut *snap);
            self.pool.recycle(snap);
        }

        let st = *lp.stage(s);
        let ops = lp.stage_fused(s);
        if ops.is_empty() {
            // Frame-wait / helper-latency stages forward state.
            return StageResult::Ok;
        }
        let block = st.block as usize;
        if pkt.state.faulted || !self.block_enabled(&mut pkt.state, block) {
            self.stage_disabled[s] = self.stage_disabled[s].saturating_add(1);
            return StageResult::Ok;
        }
        self.stage_enabled[s] = self.stage_enabled[s].saturating_add(1);
        let pkt_len = (pkt.state.end_off - pkt.state.data_off) as i64;
        if pkt_len < st.guard_min_len {
            pkt.state.faulted = true;
            return StageResult::Ok;
        }

        if st.delta {
            return self.exec_stage_two_phase(s, block, pkt, plan);
        }

        // Direct mode: ops commit into the packet state as they execute.
        let seq = pkt.seq;
        let mut ctl = DirectCtl { side_effect: false, flush: None };
        let mut fault = false;
        for (i, &op) in ops.iter().enumerate() {
            match self.exec_fused(s, i, block, op, seq, &mut pkt.state, &mut ctl, plan) {
                Ok(()) => {}
                Err(OpAbort::Fault) => {
                    fault = true;
                    break;
                }
                // Only reachable from op index 0 (the lowerer demotes any
                // later flush-capable op to delta mode), so there are no
                // earlier in-place writes to unwind.
                Err(OpAbort::FlushSelf) => return StageResult::FlushSelf,
            }
        }
        if fault {
            pkt.state.faulted = true;
        }
        let result = match ctl.flush.take() {
            Some((map, key, read_stage)) => {
                StageResult::FlushBelow { boundary: s, read_stage, map, key }
            }
            None => StageResult::Ok,
        };
        if ctl.side_effect {
            let snap = self.pool.snapshot(&pkt.state);
            pkt.checkpoints.push((s + 1, snap));
        }
        result
    }

    /// Execute one fused op in place. `Err` aborts the stage with the
    /// two-phase semantics: `Fault` keeps earlier writes and
    /// poisons the packet, `FlushSelf` re-executes it from a checkpoint.
    ///
    /// Always inlined into the direct-stage loop: the ALU/memory arms
    /// below compile to a few instructions each, and keeping them in the
    /// loop body spares a 9-argument call per op. The map/helper arms are
    /// out-of-line methods so they don't bloat the dispatch table.
    #[inline(always)]
    #[allow(clippy::too_many_arguments, clippy::too_many_lines, clippy::inline_always)]
    fn exec_fused(
        &mut self,
        s: usize,
        i: usize,
        block: usize,
        op: FusedOp,
        seq: u64,
        state: &mut PacketState,
        ctl: &mut DirectCtl,
        plan: &ExecPlan,
    ) -> Result<(), OpAbort> {
        match op {
            FusedOp::AluRR { op, width, dst, src } => {
                let r = &mut state.regs;
                r[dst as usize] = alu_eval(op, width, r[dst as usize], r[src as usize]);
            }
            FusedOp::AluRI { op, width, dst, imm } => {
                let r = &mut state.regs;
                r[dst as usize] = alu_eval(op, width, r[dst as usize], imm);
            }
            FusedOp::Alu3RR { op, width, dst, a, b } => {
                let r = &mut state.regs;
                r[dst as usize] = alu_eval(op, width, r[a as usize], r[b as usize]);
            }
            FusedOp::Alu3RI { op, width, dst, a, imm } => {
                let r = &mut state.regs;
                r[dst as usize] = alu_eval(op, width, r[a as usize], imm);
            }
            FusedOp::MovImm { dst, imm } => state.regs[dst as usize] = imm,
            FusedOp::Endian { dst, bits, to_be } => {
                let r = &mut state.regs;
                r[dst as usize] = endian_eval(r[dst as usize], bits, to_be);
            }
            FusedOp::JmpAlways => state.taken.set(block, true),
            FusedOp::JmpRR { op, width, lhs, rhs } => {
                let t = cond_eval(op, width, state.regs[lhs as usize], state.regs[rhs as usize]);
                state.taken.set(block, t);
            }
            FusedOp::JmpRI { op, width, lhs, imm } => {
                let t = cond_eval(op, width, state.regs[lhs as usize], imm);
                state.taken.set(block, t);
            }
            FusedOp::Exit => state.action = Some(XdpAction::from_r0(state.regs[0])),
            FusedOp::LdCtx { size, dst, src, off } => {
                let addr = state.regs[src as usize].wrapping_add(off as i64 as u64);
                if (CTX_BASE..CTX_BASE + xdp_md::SIZE as u64).contains(&addr) {
                    let v = match (addr - CTX_BASE) as i64 {
                        xdp_md::DATA | xdp_md::DATA_META => PACKET_BASE + state.data_off as u64,
                        xdp_md::DATA_END => PACKET_BASE + state.end_off as u64,
                        _ => 0,
                    };
                    state.regs[dst as usize] = v & mask_for(size);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                }
            }
            FusedOp::LdStk { size, dst, src, off } => {
                let addr = state.regs[src as usize].wrapping_add(off as i64 as u64);
                if (STACK_BASE..STACK_TOP).contains(&addr) {
                    let o = (addr - STACK_BASE) as usize;
                    let n = size.bytes();
                    let Some(bytes) = state.stack.get(o..o + n) else {
                        return Err(OpAbort::Fault);
                    };
                    let mut v = [0u8; 8];
                    v[..n].copy_from_slice(bytes);
                    state.regs[dst as usize] = u64::from_le_bytes(v);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                }
            }
            FusedOp::LdPkt { size, dst, src, off, proven } => {
                let addr = state.regs[src as usize].wrapping_add(off as i64 as u64);
                if (PACKET_BASE..STACK_BASE).contains(&addr) {
                    let o = (addr - PACKET_BASE) as usize;
                    let n = size.bytes();
                    // The §4.4 elision: a proof from the abstract
                    // interpreter stands in for the dynamic bounds compare.
                    if !(proven || o >= state.data_off && o + n <= state.end_off) {
                        return Err(OpAbort::Fault);
                    }
                    let Some(bytes) = state.buf.get(o..o + n) else {
                        return Err(OpAbort::Fault);
                    };
                    let mut v = [0u8; 8];
                    v[..n].copy_from_slice(bytes);
                    state.regs[dst as usize] = u64::from_le_bytes(v);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                }
            }
            FusedOp::StStk { size, base, off, src } => {
                let addr = state.regs[base as usize].wrapping_add(off as i64 as u64);
                if (STACK_BASE..STACK_TOP).contains(&addr) {
                    let o = (addr - STACK_BASE) as usize;
                    let n = size.bytes();
                    let value = reg_or_imm_value(state, src);
                    let Some(bytes) = state.stack.get_mut(o..o + n) else {
                        return Err(OpAbort::Fault);
                    };
                    bytes.copy_from_slice(&value.to_le_bytes()[..n]);
                    state.stack_lo = state.stack_lo.min(o);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                }
            }
            FusedOp::StPkt { size, base, off, src, proven } => {
                let addr = state.regs[base as usize].wrapping_add(off as i64 as u64);
                if (PACKET_BASE..STACK_BASE).contains(&addr) {
                    let o = (addr - PACKET_BASE) as usize;
                    let n = size.bytes();
                    if !(proven || o >= state.data_off && o + n <= state.end_off) {
                        return Err(OpAbort::Fault);
                    }
                    let value = reg_or_imm_value(state, src);
                    let Some(bytes) = state.buf.get_mut(o..o + n) else {
                        return Err(OpAbort::Fault);
                    };
                    bytes.copy_from_slice(&value.to_le_bytes()[..n]);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                }
            }
            FusedOp::LdMap { .. }
            | FusedOp::StMap { .. }
            | FusedOp::AtomicMap { .. }
            | FusedOp::Lookup { .. }
            | FusedOp::MapUpdate { .. }
            | FusedOp::MapDelete { .. } => {
                return self.exec_fused_map(s, i, block, op, seq, state, ctl, plan);
            }
            FusedOp::Ktime => {
                let v = self.time_ns();
                helper_epilogue(state, v);
            }
            FusedOp::Prandom => {
                let v = self.prandom();
                helper_epilogue(state, v);
            }
            FusedOp::SmpId => helper_epilogue(state, 0),
            FusedOp::Redirect => {
                state.redirect = Some(state.regs[1] as u32);
                helper_epilogue(state, XdpAction::Redirect.code());
            }
            // Never lowered into a direct stage (any Interp op demotes the
            // stage to delta mode), but route it correctly regardless.
            FusedOp::Interp => {
                return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
            }
        }
        Ok(())
    }

    /// The map-op arms of [`PipelineSim::exec_fused`], out of line: each
    /// body is tens of instructions of shared-state machinery (hazard
    /// interlocks, delay buffers, hash lookups), so keeping them off the
    /// inlined dispatch path keeps the hot ALU/memory loop tight.
    #[inline(never)]
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn exec_fused_map(
        &mut self,
        s: usize,
        i: usize,
        block: usize,
        op: FusedOp,
        seq: u64,
        state: &mut PacketState,
        ctl: &mut DirectCtl,
        plan: &ExecPlan,
    ) -> Result<(), OpAbort> {
        match op {
            FusedOp::LdMap { size, dst, src, off, map, stride, value_size } => {
                let addr = state.regs[src as usize].wrapping_add(off as i64 as u64);
                let Some((slot, o)) = map_slot_of(addr, map, stride) else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                };
                self.forward_own_writes(map, seq);
                if self.fault.is_some() {
                    self.fault_map_read(map, slot as u32);
                }
                let n = size.bytes();
                let m = self.maps.get(map).ok_or(OpAbort::Fault)?;
                // Generic-path read order: bounds fault before stale risk.
                if o + n > value_size as usize {
                    return Err(OpAbort::Fault);
                }
                if self.stale_risk(map, seq, m.key_of(slot)) {
                    return Err(OpAbort::FlushSelf);
                }
                let mut v = [0u8; 8];
                v[..n].copy_from_slice(&m.value(slot)[o..o + n]);
                state.regs[dst as usize] = u64::from_le_bytes(v);
            }
            FusedOp::StMap {
                size,
                base,
                off,
                src,
                map,
                stride,
                value_size,
                delay,
                feb_read_stage,
            } => {
                let addr = state.regs[base as usize].wrapping_add(off as i64 as u64);
                let Some((slot, o)) = map_slot_of(addr, map, stride) else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                };
                let n = size.bytes();
                let value = reg_or_imm_value(state, src);
                let m = self.maps.get(map).ok_or(OpAbort::Fault)?;
                if o + n > value_size as usize {
                    return Err(OpAbort::Fault);
                }
                // Only a fired hazard needs an owned copy of the key.
                let flush_key = self
                    .younger_read_matches(s, map, m.key_of(slot))
                    .then(|| m.key_of(slot).to_vec());
                let w = PendingWrite {
                    commit_cycle: self.cycle + u64::from(delay),
                    map,
                    seq,
                    kind: WriteKind::StoreValue { slot, off: o, size, value },
                };
                if delay == 0 {
                    self.apply_write(&w);
                } else {
                    self.pending_writes.push(w);
                }
                ctl.side_effect = true;
                if let Some(key) = flush_key {
                    ctl.flush = Some((map, key, feb_read_stage as usize));
                }
            }
            FusedOp::AtomicMap { op, size, dst, src, off, map, stride, value_size } => {
                let addr = state.regs[dst as usize].wrapping_add(off as i64 as u64);
                let Some((slot, o)) = map_slot_of(addr, map, stride) else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                };
                self.forward_own_writes(map, seq);
                if self.fault.is_some() {
                    self.fault_map_read(map, slot as u32);
                }
                let n = size.bytes();
                {
                    let m = self.maps.get(map).ok_or(OpAbort::Fault)?;
                    // Generic-path atomic order: stale risk before bounds.
                    if self.stale_risk(map, seq, m.key_of(slot)) {
                        return Err(OpAbort::FlushSelf);
                    }
                    if o + n > value_size as usize {
                        return Err(OpAbort::Fault);
                    }
                }
                let m = self.maps.get_mut(map).expect("map checked above");
                let mut cur = [0u8; 8];
                cur[..n].copy_from_slice(&m.value(slot)[o..o + n]);
                let old = u64::from_le_bytes(cur);
                let new = atomic_new_value(
                    op,
                    old,
                    state.regs[src as usize],
                    state.regs[0] & mask_for(size),
                );
                let bytes = new.to_le_bytes();
                m.value_mut(slot)[o..o + n].copy_from_slice(&bytes[..n]);
                if self.shared.is_some() {
                    self.note_map_atomic(map, slot);
                }
                ctl.side_effect = true;
                if self.debug_trace {
                    eprintln!("[sim {}] atomic map{map} slot{slot} seq{seq} old={old}", self.cycle);
                }
                match op {
                    AtomicOp::Cmpxchg => state.regs[0] = old,
                    _ if op.fetches() => state.regs[src as usize] = old,
                    _ => {}
                }
            }
            FusedOp::Lookup { map, key_size, stride } => {
                if map_handle(state.regs[1]) != Some(map) {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                }
                let mut key = std::mem::take(&mut self.scratch_key);
                key.clear();
                key.resize(key_size as usize, 0);
                let r = self.compiled_lookup(s, map, stride, seq, state, &mut key);
                key.clear();
                self.scratch_key = key;
                helper_epilogue(state, r?);
            }
            FusedOp::MapUpdate { map, key_size, value_size, delay, feb_read_stage } => {
                if map_handle(state.regs[1]) != Some(map) {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                }
                let mut key = std::mem::take(&mut self.scratch_key);
                key.clear();
                key.resize(key_size as usize, 0);
                let r = self.compiled_map_update(
                    s,
                    map,
                    value_size,
                    delay,
                    feb_read_stage,
                    seq,
                    state,
                    &mut key,
                    ctl,
                );
                key.clear();
                self.scratch_key = key;
                r?;
                helper_epilogue(state, 0);
            }
            FusedOp::MapDelete { map, key_size, delay, feb_read_stage } => {
                if map_handle(state.regs[1]) != Some(map) {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, plan);
                }
                let mut key = std::mem::take(&mut self.scratch_key);
                key.clear();
                key.resize(key_size as usize, 0);
                let r = self.compiled_map_delete(
                    s,
                    map,
                    delay,
                    feb_read_stage,
                    seq,
                    state,
                    &mut key,
                    ctl,
                );
                key.clear();
                self.scratch_key = key;
                r?;
                helper_epilogue(state, 0);
            }
            // Routed here only for the map-op variants.
            _ => unreachable!("exec_fused_map handles map ops only"),
        }
        Ok(())
    }

    /// Per-op generic fallback for a direct stage: run the original
    /// [`ehdl_core::StageOp`] at the same index through [`PipelineSim::exec_op`]
    /// with the scratch write set, then commit immediately. Exact because
    /// a direct stage's ops are proven order-independent, so "reads
    /// stage-entry state" and "reads current state" coincide.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn exec_op_cold(
        &mut self,
        s: usize,
        i: usize,
        block: usize,
        seq: u64,
        state: &mut PacketState,
        ctl: &mut DirectCtl,
        plan: &ExecPlan,
    ) -> Result<(), OpAbort> {
        let mut delta = self.scratch.take().expect("scratch delta available");
        let res = self.exec_op(s, &plan.stage_ops(s)[i], seq, state, &mut delta);
        if matches!(res, Err(OpAbort::FlushSelf)) {
            delta.clear();
            self.scratch = Some(delta);
            return Err(OpAbort::FlushSelf);
        }
        if let Some(f) = delta.flush_below.take() {
            ctl.flush = Some(f);
        }
        ctl.side_effect |= delta.side_effect;
        if res.is_err() {
            delta.fault = true;
        }
        delta.apply(state, block);
        delta.clear();
        self.scratch = Some(delta);
        res
    }

    /// [`PipelineSim::lookup_with_key`] with baked geometry and a pooled
    /// unconfirmed-read record (the generic path allocates one per lookup;
    /// this path must not).
    fn compiled_lookup(
        &mut self,
        stage_idx: usize,
        map_id: u32,
        stride: u32,
        seq: u64,
        state: &mut PacketState,
        key: &mut [u8],
    ) -> Result<u64, OpAbort> {
        let key_addr = state.regs[2];
        self.read_into(state, seq, key_addr, key)?;
        self.forward_own_writes(map_id, seq);
        if self.stale_risk(map_id, seq, key) {
            return Err(OpAbort::FlushSelf);
        }
        let mut k = self.pool.take_key();
        k.clear();
        k.extend_from_slice(key);
        state.read_filter |= read_key_bit(map_id, &k);
        state.map_reads.push((map_id, stage_idx as u32, k));
        let map = self.maps.get_mut(map_id).expect("map exists");
        let slot = map.lookup(key).ok().flatten();
        if let Some(c) = self.map_lookups.get_mut(map_id as usize) {
            *c = c.saturating_add(1);
        }
        if slot.is_some() {
            if let Some(c) = self.map_hits.get_mut(map_id as usize) {
                *c = c.saturating_add(1);
            }
        }
        if self.shared.is_some() {
            self.note_map_read(map_id, key, slot);
        }
        Ok(match slot {
            Some(slot) => {
                if self.fault.is_some() {
                    self.fault_map_read(map_id, slot as u32);
                }
                map_value_addr(map_id, slot, stride)
            }
            None => 0,
        })
    }

    /// `bpf_map_update_elem` body with baked geometry and hazard schedule;
    /// mirrors [`PipelineSim::map_write_with_key`]'s update arm exactly
    /// (value-read failure restores the scratch buffer, commits nothing,
    /// raises no hazard, and propagates the fault).
    #[allow(clippy::too_many_arguments)]
    fn compiled_map_update(
        &mut self,
        stage_idx: usize,
        map_id: u32,
        value_size: u32,
        delay: u32,
        feb_read_stage: u32,
        seq: u64,
        state: &PacketState,
        key: &mut [u8],
        ctl: &mut DirectCtl,
    ) -> Result<(), OpAbort> {
        self.read_into(state, seq, state.regs[2], key)?;
        let hazard = self.younger_read_matches(stage_idx, map_id, key);
        let flags = UpdateFlags::from_raw(state.regs[4]).unwrap_or(UpdateFlags::Any);
        let mut value = std::mem::take(&mut self.scratch_val);
        value.clear();
        value.resize(value_size as usize, 0);
        let read = self.read_into(state, seq, state.regs[3], &mut value);
        if read.is_ok() {
            if delay == 0 {
                if let Some(map) = self.maps.get_mut(map_id) {
                    let _ = map.update(key, &value, flags);
                }
                if self.shared.is_some() {
                    self.note_map_update(map_id, key, &value);
                }
            } else {
                let k = self.pooled_copy(key);
                let v = self.pooled_copy(&value);
                self.pending_writes.push(PendingWrite {
                    commit_cycle: self.cycle + u64::from(delay),
                    map: map_id,
                    seq,
                    kind: WriteKind::Update { key: k, value: v, flags },
                });
            }
        }
        value.clear();
        self.scratch_val = value;
        read?;
        ctl.side_effect = true;
        if hazard {
            ctl.flush = Some((map_id, key.to_vec(), feb_read_stage as usize));
        }
        Ok(())
    }

    /// `bpf_map_delete_elem` body with baked geometry and hazard schedule.
    #[allow(clippy::too_many_arguments)]
    fn compiled_map_delete(
        &mut self,
        stage_idx: usize,
        map_id: u32,
        delay: u32,
        feb_read_stage: u32,
        seq: u64,
        state: &PacketState,
        key: &mut [u8],
        ctl: &mut DirectCtl,
    ) -> Result<(), OpAbort> {
        self.read_into(state, seq, state.regs[2], key)?;
        let hazard = self.younger_read_matches(stage_idx, map_id, key);
        if delay == 0 {
            if let Some(map) = self.maps.get_mut(map_id) {
                let _ = map.delete(key);
            }
            if self.shared.is_some() {
                self.note_map_delete(map_id, key);
            }
        } else {
            let k = self.pooled_copy(key);
            self.pending_writes.push(PendingWrite {
                commit_cycle: self.cycle + u64::from(delay),
                map: map_id,
                seq,
                kind: WriteKind::Delete { key: k },
            });
        }
        ctl.side_effect = true;
        if hazard {
            ctl.flush = Some((map_id, key.to_vec(), feb_read_stage as usize));
        }
        Ok(())
    }
}

/// Resolve a pre-lowered register-or-immediate operand.
#[inline]
fn reg_or_imm_value(state: &PacketState, v: RegOrImm) -> u64 {
    match v {
        RegOrImm::Reg(r) => state.regs[r as usize],
        RegOrImm::Imm(i) => i,
    }
}
