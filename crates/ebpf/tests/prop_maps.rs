//! Randomized tests: map semantics against reference models, and
//! instruction encode/decode roundtrips.
//!
//! Formerly proptest-based; rewritten as deterministic seeded campaigns so
//! the workspace builds without crates.io access. Each campaign draws its
//! cases from a fixed seed, so failures reproduce exactly.

use ehdl_ebpf::asm::Asm;
use ehdl_ebpf::insn::{decode, Insn};
use ehdl_ebpf::maps::{Map, MapDef, MapError, MapKind, UpdateFlags};
use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl_rng::Rng;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum MapOp {
    Update(u64, u64, u8),
    Delete(u64),
    Lookup(u64),
}

fn rand_map_op(rng: &mut Rng) -> MapOp {
    match rng.gen_index(3) {
        0 => MapOp::Update(rng.gen_range_u64(0, 31), rng.next_u64(), rng.gen_index(3) as u8),
        1 => MapOp::Delete(rng.gen_range_u64(0, 31)),
        _ => MapOp::Lookup(rng.gen_range_u64(0, 31)),
    }
}

/// The hash map behaves exactly like a capacity-bounded BTreeMap.
#[test]
fn hash_map_matches_model() {
    let mut rng = Rng::seed_from_u64(0x4a51);
    for _ in 0..256 {
        let nops = rng.gen_range_u64(1, 119) as usize;
        let cap = 16u32;
        let mut map = Map::new(MapDef::new(0, "m", MapKind::Hash, 8, 8, cap));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..nops {
            match rand_map_op(&mut rng) {
                MapOp::Update(k, v, f) => {
                    let flags = UpdateFlags::from_raw(u64::from(f)).unwrap();
                    let r = map.update(&k.to_le_bytes(), &v.to_le_bytes(), flags);
                    let exists = model.contains_key(&k);
                    match flags {
                        UpdateFlags::NoExist if exists => {
                            assert_eq!(r, Err(MapError::KeyExists));
                        }
                        UpdateFlags::Exist if !exists => {
                            assert_eq!(r, Err(MapError::NoSuchKey));
                        }
                        _ if !exists && model.len() == cap as usize => {
                            assert_eq!(r, Err(MapError::Full));
                        }
                        _ => {
                            assert!(r.is_ok());
                            model.insert(k, v);
                        }
                    }
                }
                MapOp::Delete(k) => {
                    let r = map.delete(&k.to_le_bytes());
                    assert_eq!(r.is_ok(), model.remove(&k).is_some());
                }
                MapOp::Lookup(k) => {
                    let slot = map.lookup(&k.to_le_bytes()).unwrap();
                    match model.get(&k) {
                        None => assert!(slot.is_none()),
                        Some(v) => {
                            let got =
                                u64::from_le_bytes(map.value(slot.unwrap()).try_into().unwrap());
                            assert_eq!(got, *v);
                        }
                    }
                }
            }
            assert_eq!(map.len(), model.len(), "live-entry count tracks the model");
        }
        // Final contents identical.
        let mut contents: Vec<(u64, u64)> = map
            .iter()
            .map(|(_, k, v)| {
                (
                    u64::from_le_bytes(k.try_into().unwrap()),
                    u64::from_le_bytes(v.try_into().unwrap()),
                )
            })
            .collect();
        contents.sort_unstable();
        let model_contents: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(contents, model_contents);
    }
}

/// LRU maps never exceed capacity and always accept inserts.
#[test]
fn lru_never_full() {
    let mut rng = Rng::seed_from_u64(0x17c0);
    for _ in 0..256 {
        let nkeys = rng.gen_range_u64(1, 199) as usize;
        let cap = 8u32;
        let mut map = Map::new(MapDef::new(0, "m", MapKind::LruHash, 8, 8, cap));
        for _ in 0..nkeys {
            let k = rng.gen_range_u64(0, 999);
            map.update(&k.to_le_bytes(), &k.to_le_bytes(), UpdateFlags::Any).unwrap();
            assert!(map.len() <= cap as usize);
            assert_eq!(map.len(), map.iter().count());
            // The just-inserted key is always present.
            assert!(map.lookup(&k.to_le_bytes()).unwrap().is_some());
        }
    }
}

/// LPM lookup returns the longest matching stored prefix.
#[test]
fn lpm_longest_prefix() {
    let mut rng = Rng::seed_from_u64(0x1934);
    for _ in 0..256 {
        let nprefixes = rng.gen_range_u64(1, 11) as usize;
        let mut prefixes: std::collections::BTreeSet<(u32, u32)> =
            std::collections::BTreeSet::new();
        while prefixes.len() < nprefixes {
            prefixes.insert((rng.gen_range_u64(0, 24) as u32, rng.next_u32()));
        }
        let probe = rng.next_u32();

        let mut map = Map::new(MapDef::new(0, "m", MapKind::LpmTrie, 8, 4, 64));
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for (i, (plen, addr)) in prefixes.iter().enumerate() {
            let masked = if *plen == 0 { 0 } else { addr & (!0u32 << (32 - plen)) };
            let mut key = plen.to_le_bytes().to_vec();
            key.extend_from_slice(&masked.to_be_bytes());
            map.update(&key, &(i as u32).to_le_bytes(), UpdateFlags::Any).unwrap();
            entries.push((*plen, masked));
        }
        let mut probe_key = 32u32.to_le_bytes().to_vec();
        probe_key.extend_from_slice(&probe.to_be_bytes());
        let got = map.lookup(&probe_key).unwrap();

        // Reference: best matching prefix by hand.
        let best = entries
            .iter()
            .enumerate()
            .filter(|(_, (plen, net))| *plen == 0 || (probe & (!0u32 << (32 - plen))) == *net)
            .max_by_key(|(i, (plen, _))| (*plen, usize::MAX - i));
        match best {
            None => assert!(got.is_none()),
            Some((_, (plen, _))) => {
                assert!(got.is_some());
                let slot = got.unwrap();
                let idx = u32::from_le_bytes(map.value(slot).try_into().unwrap()) as usize;
                assert_eq!(entries[idx].0, *plen, "matched prefix length");
            }
        }
    }
}

/// Raw instruction words roundtrip through the wire format.
#[test]
fn insn_bytes_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x1c5b);
    for _ in 0..256 {
        let i = Insn {
            opcode: rng.gen_u8(),
            dst: rng.gen_index(16) as u8,
            src: rng.gen_index(16) as u8,
            off: rng.gen_u16() as i16,
            imm: rng.gen_i32(),
        };
        assert_eq!(Insn::from_bytes(i.to_bytes()), i);
    }
}

/// Assembled ALU/branch streams always decode, and every decoded
/// instruction covers exactly its slots.
#[test]
fn assembled_streams_decode() {
    let mut rng = Rng::seed_from_u64(0xa55e);
    for _ in 0..256 {
        let nops = rng.gen_range_u64(1, 39) as usize;
        let mut a = Asm::new();
        let end = a.new_label();
        for _ in 0..nops {
            let kind = rng.gen_index(5) as u8;
            let reg = rng.gen_index(6) as u8;
            let imm = rng.gen_i32();
            match kind {
                0 => {
                    a.mov64_imm(reg, imm);
                }
                1 => {
                    a.alu64_imm(AluOp::Add, reg, imm);
                }
                2 => {
                    a.alu64_imm(AluOp::Xor, reg, imm);
                }
                3 => {
                    a.jmp_imm(JmpOp::Jeq, reg, imm, end);
                }
                _ => {
                    a.ld_imm64(reg, imm as u64);
                }
            }
        }
        a.bind(end);
        a.mov64_imm(0, 2);
        a.exit();
        let insns = a.into_insns();
        let decoded = decode(&insns).unwrap();
        let covered: usize = decoded.iter().map(|d| d.slots).sum();
        assert_eq!(covered, insns.len());
    }
}

/// Store/load roundtrip through stack memory in the VM for every size.
#[test]
fn vm_stack_roundtrip() {
    use ehdl_ebpf::vm::Vm;
    use ehdl_ebpf::Program;
    let mut rng = Rng::seed_from_u64(0x57ac);
    for _ in 0..256 {
        let v = rng.next_u64();
        let size = [MemSize::B, MemSize::H, MemSize::W, MemSize::Dw][rng.gen_index(4)];
        let mut a = Asm::new();
        a.ld_imm64(2, v);
        a.store_reg(size, 10, -16, 2);
        a.load(size, 0, 10, -16);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let out = Vm::new(&p).run(&mut vec![0; 64], 0).unwrap();
        let mask = match size {
            MemSize::B => 0xff,
            MemSize::H => 0xffff,
            MemSize::W => 0xffff_ffff,
            MemSize::Dw => u64::MAX,
        };
        assert_eq!(out.r0, v & mask);
    }
}

/// The text parser never panics on arbitrary input.
#[test]
fn text_parser_never_panics() {
    let mut rng = Rng::seed_from_u64(0x7e87);
    for _ in 0..512 {
        let len = rng.gen_index(121);
        let input: String = (0..len)
            .map(|_| {
                // Mostly printable ASCII with occasional arbitrary chars.
                if rng.gen_index(8) == 0 {
                    char::from_u32(rng.next_u32() % 0xD800).unwrap_or('\u{fffd}')
                } else {
                    (0x20 + rng.gen_index(0x5f) as u8) as char
                }
            })
            .collect();
        let _ = ehdl_ebpf::text::parse_program(&input);
    }
}

/// ... and on near-miss statement-shaped strings.
#[test]
fn text_parser_survives_statement_soup() {
    const PARTS: [&str; 13] = [
        "r1", "w3", "=", "+=", "*(u32 *)", "(r1 +4)", "goto", "+2", "if", "lock", "ll", "-17",
        "exit",
    ];
    let mut rng = Rng::seed_from_u64(0x50f7);
    for _ in 0..512 {
        let n = rng.gen_index(8);
        let line = (0..n).map(|_| PARTS[rng.gen_index(PARTS.len())]).collect::<Vec<_>>().join(" ");
        let _ = ehdl_ebpf::text::parse_program(&line);
    }
}

/// `decode(encode(i))` is the identity on every decodable stream the
/// assembler can produce.
#[test]
fn encode_decode_roundtrip() {
    use ehdl_ebpf::insn::encode_all;
    let mut rng = Rng::seed_from_u64(0xe2cd);
    for _ in 0..512 {
        let nops = rng.gen_range_u64(1, 29) as usize;
        let mut a = Asm::new();
        let end = a.new_label();
        for _ in 0..nops {
            let kind = rng.gen_index(6) as u8;
            let reg = rng.gen_index(10) as u8;
            let off = rng.gen_u16() as i16;
            let imm = rng.gen_i32();
            match kind {
                0 => {
                    a.mov64_imm(reg, imm);
                }
                1 => {
                    a.alu64_reg(AluOp::Add, reg, (reg + 1) % 10);
                }
                2 => {
                    a.load(MemSize::W, reg, (reg + 1) % 10, off);
                }
                3 => {
                    a.store_reg(MemSize::H, (reg + 1) % 10, off, reg);
                }
                4 => {
                    a.jmp_imm(JmpOp::Jlt, reg, imm, end);
                }
                _ => {
                    a.ld_imm64(reg, imm as u64);
                }
            }
        }
        a.bind(end);
        a.mov64_imm(0, 2);
        a.exit();
        let insns = a.into_insns();
        let decoded = decode(&insns).unwrap();
        assert_eq!(encode_all(&decoded).unwrap(), insns);
    }
}

/// 32-bit ALU semantics match plain `u32` arithmetic (zero-extended).
#[test]
fn alu32_matches_u32_arithmetic() {
    use ehdl_ebpf::opcode::Width;
    use ehdl_ebpf::vm::alu_eval;
    let ops = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Lsh,
        AluOp::Rsh,
    ];
    let mut rng = Rng::seed_from_u64(0xa132);
    for _ in 0..512 {
        let d = rng.next_u64();
        let s = rng.next_u64();
        let op = ops[rng.gen_index(ops.len())];
        let got = alu_eval(op, Width::W32, d, s);
        let d32 = d as u32;
        let s32 = s as u32;
        let want = match op {
            AluOp::Add => d32.wrapping_add(s32),
            AluOp::Sub => d32.wrapping_sub(s32),
            AluOp::Mul => d32.wrapping_mul(s32),
            AluOp::And => d32 & s32,
            AluOp::Or => d32 | s32,
            AluOp::Xor => d32 ^ s32,
            AluOp::Lsh => d32.wrapping_shl(s32 & 31),
            AluOp::Rsh => d32.wrapping_shr(s32 & 31),
            _ => unreachable!(),
        };
        assert_eq!(got, u64::from(want), "no sign/garbage in the high half");
    }
}
