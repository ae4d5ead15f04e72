//! Execute-phase microroutines: semantics plus cycle emission.
//!
//! Each opcode group shares a control-store *layout* (which offsets are
//! compute/read/write µops); each opcode owns its region with that layout.
//! Loops re-execute offsets, exactly as the 780's microcode loops re-execute
//! microinstructions — so histogram counts at loop addresses measure
//! data-dependent costs (the paper's "average character string is 36–44
//! characters" inference comes from such counts).

use upc_monitor::{MicroOp, Region};
use vax_arch::opcode::OPCODE_TABLE;
use vax_arch::psl::AccessMode;
use vax_arch::{Instruction, Opcode, OpcodeGroup, Psl};
use vax_mem::trace::TraceEvent;
use vax_mem::VirtAddr;

use crate::ebox::{mask, Cpu, VEC_CHMK};
use crate::ipr::IprNum;
use crate::operand::EvaldOperand;

use MicroOp::{Compute as C, Read as R, Write as W};

/// Control-flow result of the execute phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next instruction.
    Normal,
    /// Take the embedded branch displacement.
    TakenDisp,
    /// Jump to a computed target.
    Jump(u32),
    /// HALT executed.
    Halt,
}

/// Layout offsets for the SIMPLE group: `[entry, redirect, read, extra, write]`.
pub mod simple_off {
    /// The (single) execute cycle.
    pub const ENTRY: u16 = 0;
    /// IB-redirect cycle on taken branches.
    pub const REDIRECT: u16 = 1;
    /// Data read (case tables, RSB return address).
    pub const READ: u16 = 2;
    /// Additional computation.
    pub const EXTRA: u16 = 3;
    /// Data write (BSB/JSB return push, PUSHL).
    pub const WRITE: u16 = 4;
}

/// Layout offsets for the FIELD group.
pub mod field_off {
    /// First execute cycle.
    pub const ENTRY: u16 = 0;
    /// Field position/size arithmetic.
    pub const CALC1: u16 = 1;
    /// Field position/size arithmetic.
    pub const CALC2: u16 = 2;
    /// Extract/merge computation.
    pub const MERGE: u16 = 3;
    /// Field longword read.
    pub const READ: u16 = 4;
    /// Post-read computation.
    pub const POST: u16 = 5;
    /// Field longword write (INSV, BBSS and friends).
    pub const WRITE: u16 = 6;
    /// IB-redirect cycle for taken bit branches.
    pub const REDIRECT: u16 = 7;
}

/// Layout offsets for the CALL/RET group.
pub mod callret_off {
    /// Setup cycles 0..8.
    pub const SETUP: u16 = 0;
    /// Register/frame push.
    pub const PUSH: u16 = 8;
    /// Inter-push gap cycle (the microcode spaces pushes to soften write
    /// stalls).
    pub const PUSH_GAP: u16 = 9;
    /// Frame pop / entry-mask read.
    pub const POP: u16 = 10;
    /// Inter-pop gap cycle.
    pub const POP_GAP: u16 = 11;
    /// Finish cycles 12..16.
    pub const FINISH: u16 = 12;
}

/// Layout offsets for the SYSTEM group.
pub mod system_off {
    /// Setup cycles 0..10.
    pub const SETUP: u16 = 0;
    /// Data read.
    pub const READ: u16 = 10;
    /// Data write.
    pub const WRITE: u16 = 11;
    /// Finish cycles 12..14.
    pub const FINISH: u16 = 12;
}

/// Layout offsets for the CHARACTER group.
pub mod char_off {
    /// Setup cycles 0..8.
    pub const SETUP: u16 = 0;
    /// Source longword read.
    pub const READ: u16 = 8;
    /// Loop computation.
    pub const LOOP1: u16 = 9;
    /// Loop computation.
    pub const LOOP2: u16 = 10;
    /// Destination longword write.
    pub const WRITE: u16 = 11;
    /// Loop computation (the microcode writes only every sixth cycle to
    /// avoid write stalls — paper §4.3).
    pub const LOOP3: u16 = 12;
    /// Loop computation.
    pub const LOOP4: u16 = 13;
    /// Finish cycle.
    pub const FINISH: u16 = 14;
}

/// Layout offsets for the DECIMAL group.
pub mod decimal_off {
    /// Setup cycles 0..10.
    pub const SETUP: u16 = 0;
    /// Packed-operand longword read.
    pub const READ: u16 = 10;
    /// Digit-loop computation.
    pub const DIGIT1: u16 = 11;
    /// Digit-loop computation.
    pub const DIGIT2: u16 = 12;
    /// Digit-loop computation.
    pub const DIGIT3: u16 = 13;
    /// Result longword write.
    pub const WRITE: u16 = 14;
    /// Finish cycle.
    pub const FINISH: u16 = 15;
}

static SIMPLE_LAYOUT: &[MicroOp] = &[C, C, R, C, W];
static FIELD_LAYOUT: &[MicroOp] = &[C, C, C, C, R, C, W, C];
static FLOAT_LAYOUT: &[MicroOp] = &[C; FLOAT_MAX_CYCLES as usize];
static CALLRET_LAYOUT: &[MicroOp] = &[C, C, C, C, C, C, C, C, W, C, R, C, C, C, C, C];
static SYSTEM_LAYOUT: &[MicroOp] = &[C, C, C, C, C, C, C, C, C, C, R, W, C, C];
static CHAR_LAYOUT: &[MicroOp] = &[C, C, C, C, C, C, C, C, R, C, C, W, C, C, C];
static DECIMAL_LAYOUT: &[MicroOp] = &[C, C, C, C, C, C, C, C, C, C, R, C, C, C, W, C];

/// The shared execute-region layout of an opcode group.
pub fn group_layout(group: OpcodeGroup) -> &'static [MicroOp] {
    match group {
        OpcodeGroup::Simple => SIMPLE_LAYOUT,
        OpcodeGroup::Field => FIELD_LAYOUT,
        OpcodeGroup::Float => FLOAT_LAYOUT,
        OpcodeGroup::CallRet => CALLRET_LAYOUT,
        OpcodeGroup::System => SYSTEM_LAYOUT,
        OpcodeGroup::Character => CHAR_LAYOUT,
        OpcodeGroup::Decimal => DECIMAL_LAYOUT,
    }
}

/// Run the execute phase of `insn`. `ops` holds the evaluated operands;
/// results are stored back into `ops[i].value` for deferred write-back.
pub(crate) fn execute(
    cpu: &mut Cpu,
    insn: &Instruction,
    ops: &mut [EvaldOperand],
    fused: bool,
) -> Flow {
    let r = cpu.cs.exec_region(insn.opcode);
    match insn.opcode.group() {
        OpcodeGroup::Simple => exec_simple(cpu, r, insn, ops, fused),
        OpcodeGroup::Field => exec_field(cpu, r, insn, ops),
        OpcodeGroup::Float => exec_float(cpu, r, insn, ops),
        OpcodeGroup::CallRet => exec_callret(cpu, r, insn, ops),
        OpcodeGroup::System => exec_system(cpu, r, insn, ops),
        OpcodeGroup::Character => exec_character(cpu, r, insn, ops),
        OpcodeGroup::Decimal => exec_decimal(cpu, r, insn, ops),
    }
}

// ---- condition-code helpers ----

fn sign(v: u64, size: u32) -> bool {
    v & (1 << (8 * size - 1)) != 0
}

fn sext(v: u64, size: u32) -> i64 {
    let shift = 64 - 8 * size;
    ((v << shift) as i64) >> shift
}

fn cc_nz(psl: &mut Psl, v: u64, size: u32) {
    psl.n = sign(v & mask(size), size);
    psl.z = v & mask(size) == 0;
    psl.v = false;
}

fn cc_add(psl: &mut Psl, a: u64, b: u64, r: u64, size: u32) {
    let m = mask(size);
    psl.n = sign(r & m, size);
    psl.z = r & m == 0;
    psl.v = sign(a, size) == sign(b, size) && sign(r & m, size) != sign(a, size);
    psl.c = (a & m) as u128 + (b & m) as u128 > m as u128;
}

fn cc_sub(psl: &mut Psl, a: u64, b: u64, r: u64, size: u32) {
    // r = b - a (VAX SUBx subtracts operand 1 from operand 2).
    let m = mask(size);
    psl.n = sign(r & m, size);
    psl.z = r & m == 0;
    psl.v = sign(a, size) != sign(b, size) && sign(r & m, size) == sign(a, size);
    psl.c = (b & m) < (a & m);
}

fn cc_cmp(psl: &mut Psl, a: u64, b: u64, size: u32) {
    // CMP a, b: condition codes reflect a - b.
    let sa = sext(a, size);
    let sb = sext(b, size);
    psl.n = sa < sb;
    psl.z = sa == sb;
    psl.v = false;
    psl.c = (a & mask(size)) < (b & mask(size));
}

fn branch_condition(psl: &Psl, op: Opcode) -> bool {
    match op {
        Opcode::Bneq => !psl.z,
        Opcode::Beql => psl.z,
        Opcode::Bgtr => !(psl.n || psl.z),
        Opcode::Bleq => psl.n || psl.z,
        Opcode::Bgeq => !psl.n,
        Opcode::Blss => psl.n,
        Opcode::Bgtru => !(psl.c || psl.z),
        Opcode::Blequ => psl.c || psl.z,
        Opcode::Bvc => !psl.v,
        Opcode::Bvs => psl.v,
        Opcode::Bcc => !psl.c,
        Opcode::Bcs => psl.c,
        Opcode::Brb | Opcode::Brw => true,
        _ => unreachable!("not a condition branch: {op}"),
    }
}

// ---- SIMPLE ----

fn exec_simple(
    cpu: &mut Cpu,
    r: Region,
    insn: &Instruction,
    ops: &mut [EvaldOperand],
    fused: bool,
) -> Flow {
    use simple_off::*;
    let op = insn.opcode;
    // The one execute cycle (unless fused into the final specifier cycle —
    // the 780's literal/register operand optimization).
    let entry = |cpu: &mut Cpu| {
        if !fused {
            cpu.c(r.at(ENTRY));
        }
    };
    match op {
        // Moves.
        Opcode::Movb | Opcode::Movw | Opcode::Movl | Opcode::Movq => {
            entry(cpu);
            let v = ops[0].value;
            cc_nz(&mut cpu.psl, v, ops[0].size);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Movab | Opcode::Movaw | Opcode::Moval | Opcode::Movaq => {
            entry(cpu);
            let v = ops[0].value;
            cc_nz(&mut cpu.psl, v, 4);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Pushl | Opcode::Pushab | Opcode::Pushaw | Opcode::Pushal | Opcode::Pushaq => {
            entry(cpu);
            let v = ops[0].value as u32;
            cc_nz(&mut cpu.psl, v as u64, 4);
            let sp = cpu.regs[14].wrapping_sub(4);
            cpu.regs[14] = sp;
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, v as u64);
            Flow::Normal
        }
        Opcode::Clrb | Opcode::Clrw | Opcode::Clrl | Opcode::Clrq => {
            entry(cpu);
            cc_nz(&mut cpu.psl, 0, ops[0].size);
            cpu.psl.z = true;
            ops[0].value = 0;
            Flow::Normal
        }
        Opcode::Mnegb | Opcode::Mnegw | Opcode::Mnegl => {
            entry(cpu);
            let size = ops[0].size;
            let v = (ops[0].value as i64).wrapping_neg() as u64 & mask(size);
            cc_sub(&mut cpu.psl, ops[0].value, 0, v, size);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Mcomb | Opcode::Mcomw | Opcode::Mcoml => {
            entry(cpu);
            let size = ops[0].size;
            let v = !ops[0].value & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Movzbw | Opcode::Movzbl | Opcode::Movzwl => {
            entry(cpu);
            let v = ops[0].value & mask(ops[0].size);
            cc_nz(&mut cpu.psl, v, ops[1].size);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Cvtbw
        | Opcode::Cvtbl
        | Opcode::Cvtwb
        | Opcode::Cvtwl
        | Opcode::Cvtlb
        | Opcode::Cvtlw => {
            entry(cpu);
            let v = sext(ops[0].value, ops[0].size) as u64 & mask(ops[1].size);
            cc_nz(&mut cpu.psl, v, ops[1].size);
            ops[1].value = v;
            Flow::Normal
        }
        // Integer add/sub.
        Opcode::Addb2 | Opcode::Addw2 | Opcode::Addl2 => {
            entry(cpu);
            let size = ops[0].size;
            let v = ops[0].value.wrapping_add(ops[1].value) & mask(size);
            cc_add(&mut cpu.psl, ops[0].value, ops[1].value, v, size);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Addb3 | Opcode::Addw3 | Opcode::Addl3 => {
            entry(cpu);
            let size = ops[0].size;
            let v = ops[0].value.wrapping_add(ops[1].value) & mask(size);
            cc_add(&mut cpu.psl, ops[0].value, ops[1].value, v, size);
            ops[2].value = v;
            Flow::Normal
        }
        Opcode::Subb2 | Opcode::Subw2 | Opcode::Subl2 => {
            entry(cpu);
            let size = ops[0].size;
            let v = ops[1].value.wrapping_sub(ops[0].value) & mask(size);
            cc_sub(&mut cpu.psl, ops[0].value, ops[1].value, v, size);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Subb3 | Opcode::Subw3 | Opcode::Subl3 => {
            entry(cpu);
            let size = ops[0].size;
            let v = ops[1].value.wrapping_sub(ops[0].value) & mask(size);
            cc_sub(&mut cpu.psl, ops[0].value, ops[1].value, v, size);
            ops[2].value = v;
            Flow::Normal
        }
        Opcode::Incb | Opcode::Incw | Opcode::Incl => {
            entry(cpu);
            let size = ops[0].size;
            let v = ops[0].value.wrapping_add(1) & mask(size);
            cc_add(&mut cpu.psl, 1, ops[0].value, v, size);
            ops[0].value = v;
            Flow::Normal
        }
        Opcode::Decb | Opcode::Decw | Opcode::Decl => {
            entry(cpu);
            let size = ops[0].size;
            let v = ops[0].value.wrapping_sub(1) & mask(size);
            cc_sub(&mut cpu.psl, 1, ops[0].value, v, size);
            ops[0].value = v;
            Flow::Normal
        }
        Opcode::Ashl | Opcode::Ashq => {
            entry(cpu);
            cpu.c(r.at(EXTRA));
            let cnt = sext(ops[0].value, 1);
            let size = ops[1].size;
            let src = sext(ops[1].value, size);
            let v = if cnt >= 0 {
                (src as u64).wrapping_shl(cnt.min(63) as u32)
            } else {
                (src >> (-cnt).min(63)) as u64
            } & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[2].value = v;
            Flow::Normal
        }
        Opcode::Rotl => {
            entry(cpu);
            cpu.c(r.at(EXTRA));
            let cnt = (sext(ops[0].value, 1).rem_euclid(32)) as u32;
            let v = (ops[1].value as u32).rotate_left(cnt) as u64;
            cc_nz(&mut cpu.psl, v, 4);
            ops[2].value = v;
            Flow::Normal
        }
        // Boolean.
        Opcode::Bicb2 | Opcode::Bicw2 | Opcode::Bicl2 => {
            entry(cpu);
            let size = ops[0].size;
            let v = ops[1].value & !ops[0].value & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Bicb3 | Opcode::Bicw3 | Opcode::Bicl3 => {
            entry(cpu);
            let size = ops[0].size;
            let v = ops[1].value & !ops[0].value & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[2].value = v;
            Flow::Normal
        }
        Opcode::Bisb2 | Opcode::Bisw2 | Opcode::Bisl2 => {
            entry(cpu);
            let size = ops[0].size;
            let v = (ops[1].value | ops[0].value) & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Bisb3 | Opcode::Bisw3 | Opcode::Bisl3 => {
            entry(cpu);
            let size = ops[0].size;
            let v = (ops[1].value | ops[0].value) & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[2].value = v;
            Flow::Normal
        }
        Opcode::Xorb2 | Opcode::Xorw2 | Opcode::Xorl2 => {
            entry(cpu);
            let size = ops[0].size;
            let v = (ops[1].value ^ ops[0].value) & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[1].value = v;
            Flow::Normal
        }
        Opcode::Xorb3 | Opcode::Xorw3 | Opcode::Xorl3 => {
            entry(cpu);
            let size = ops[0].size;
            let v = (ops[1].value ^ ops[0].value) & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[2].value = v;
            Flow::Normal
        }
        // Test / compare / bit test.
        Opcode::Tstb | Opcode::Tstw | Opcode::Tstl => {
            entry(cpu);
            cc_nz(&mut cpu.psl, ops[0].value, ops[0].size);
            cpu.psl.c = false;
            Flow::Normal
        }
        Opcode::Cmpb | Opcode::Cmpw | Opcode::Cmpl => {
            entry(cpu);
            cc_cmp(&mut cpu.psl, ops[0].value, ops[1].value, ops[0].size);
            Flow::Normal
        }
        Opcode::Bitb | Opcode::Bitw | Opcode::Bitl => {
            entry(cpu);
            let v = ops[0].value & ops[1].value;
            cc_nz(&mut cpu.psl, v, ops[0].size);
            Flow::Normal
        }
        // Conditional and unconditional displacement branches.
        Opcode::Bneq
        | Opcode::Beql
        | Opcode::Bgtr
        | Opcode::Bleq
        | Opcode::Bgeq
        | Opcode::Blss
        | Opcode::Bgtru
        | Opcode::Blequ
        | Opcode::Bvc
        | Opcode::Bvs
        | Opcode::Bcc
        | Opcode::Bcs
        | Opcode::Brb
        | Opcode::Brw => {
            cpu.c(r.at(ENTRY));
            if branch_condition(&cpu.psl, op) {
                cpu.c(r.at(REDIRECT));
                Flow::TakenDisp
            } else {
                Flow::Normal
            }
        }
        Opcode::Jmp => {
            cpu.c(r.at(ENTRY));
            cpu.c(r.at(REDIRECT));
            Flow::Jump(ops[0].value as u32)
        }
        // Low-bit tests.
        Opcode::Blbs | Opcode::Blbc => {
            cpu.c(r.at(ENTRY));
            let bit = ops[0].value & 1 != 0;
            let taken = if op == Opcode::Blbs { bit } else { !bit };
            if taken {
                cpu.c(r.at(REDIRECT));
                Flow::TakenDisp
            } else {
                Flow::Normal
            }
        }
        // Loop branches.
        Opcode::Sobgeq | Opcode::Sobgtr => {
            cpu.c(r.at(ENTRY));
            cpu.c(r.at(EXTRA));
            let v = (ops[0].as_i32()).wrapping_sub(1);
            ops[0].value = v as u32 as u64;
            cc_nz(&mut cpu.psl, v as u32 as u64, 4);
            let taken = if op == Opcode::Sobgeq { v >= 0 } else { v > 0 };
            if taken {
                cpu.c(r.at(REDIRECT));
                Flow::TakenDisp
            } else {
                Flow::Normal
            }
        }
        Opcode::Aoblss | Opcode::Aobleq => {
            cpu.c(r.at(ENTRY));
            cpu.c(r.at(EXTRA));
            let limit = ops[0].as_i32();
            let v = ops[1].as_i32().wrapping_add(1);
            ops[1].value = v as u32 as u64;
            cc_nz(&mut cpu.psl, v as u32 as u64, 4);
            let taken = if op == Opcode::Aoblss {
                v < limit
            } else {
                v <= limit
            };
            if taken {
                cpu.c(r.at(REDIRECT));
                Flow::TakenDisp
            } else {
                Flow::Normal
            }
        }
        Opcode::Acbb | Opcode::Acbw | Opcode::Acbl => {
            cpu.c(r.at(ENTRY));
            cpu.c(r.at(EXTRA));
            let size = ops[0].size;
            let limit = sext(ops[0].value, size);
            let add = sext(ops[1].value, size);
            let v = sext(ops[2].value, size).wrapping_add(add);
            ops[2].value = v as u64 & mask(size);
            cc_nz(&mut cpu.psl, v as u64, size);
            let taken = if add >= 0 { v <= limit } else { v >= limit };
            if taken {
                cpu.c(r.at(REDIRECT));
                Flow::TakenDisp
            } else {
                Flow::Normal
            }
        }
        // Case branches. The word displacement table follows the
        // instruction in the I-stream.
        Opcode::Caseb | Opcode::Casew | Opcode::Casel => {
            cpu.c(r.at(ENTRY));
            let size = ops[0].size;
            let sel = ops[0].value & mask(size);
            let base = ops[1].value & mask(size);
            let limit = ops[2].value & mask(size);
            let table = cpu.regs[15]; // instruction end
            let i = sel.wrapping_sub(base) & mask(size);
            let target = if i <= limit {
                let disp = cpu.read_data(r.at(READ), VirtAddr(table.wrapping_add(2 * i as u32)), 2);
                table.wrapping_add(sext(disp, 2) as u32)
            } else {
                table.wrapping_add(2 * (limit as u32 + 1))
            };
            cpu.c(r.at(REDIRECT));
            Flow::Jump(target)
        }
        // Subroutine linkage (simple: just push/pop the PC).
        Opcode::Bsbb | Opcode::Bsbw => {
            cpu.c(r.at(ENTRY));
            let sp = cpu.regs[14].wrapping_sub(4);
            cpu.regs[14] = sp;
            let ret = cpu.regs[15];
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, ret as u64);
            cpu.c(r.at(REDIRECT));
            Flow::TakenDisp
        }
        Opcode::Jsb => {
            cpu.c(r.at(ENTRY));
            let sp = cpu.regs[14].wrapping_sub(4);
            cpu.regs[14] = sp;
            let ret = cpu.regs[15];
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, ret as u64);
            cpu.c(r.at(REDIRECT));
            Flow::Jump(ops[0].value as u32)
        }
        Opcode::Rsb => {
            cpu.c(r.at(ENTRY));
            let sp = cpu.regs[14];
            let ret = cpu.read_data(r.at(READ), VirtAddr(sp), 4) as u32;
            cpu.regs[14] = sp.wrapping_add(4);
            cpu.c(r.at(REDIRECT));
            Flow::Jump(ret)
        }
        other => unreachable!("{other} is not SIMPLE"),
    }
}

// ---- FIELD ----

/// Fetch a bit field of `size` bits at bit `pos` relative to `base`.
fn field_fetch(
    cpu: &mut Cpu,
    r: Region,
    pos: i64,
    size: u32,
    base: &EvaldOperand,
) -> (u64, Option<VirtAddr>) {
    use field_off::*;
    if size == 0 {
        return (0, None);
    }
    match base.loc {
        crate::operand::Loc::Reg(reg) => {
            cpu.c(r.at(CALC1));
            let v = cpu.get_reg(reg, 4) >> (pos & 31);
            (v & mask_bits(size), None)
        }
        _ => {
            cpu.c(r.at(CALC1));
            cpu.c(r.at(CALC2));
            let byte = VirtAddr((base.value as u32).wrapping_add((pos >> 3) as u32));
            let lw = VirtAddr(byte.0 & !3);
            let word = cpu.read_data(r.at(READ), lw, 4);
            let bit_in_lw = ((base.value as u32 as u64 * 8).wrapping_add(pos as u64) & 31) as u32;
            // Fields crossing the longword need the next one too.
            let v = if bit_in_lw + size > 32 {
                let hi = cpu.read_data(r.at(READ), lw.add(4), 4);
                (word | (hi << 32)) >> bit_in_lw
            } else {
                word >> bit_in_lw
            };
            (v & mask_bits(size), Some(lw))
        }
    }
}

fn mask_bits(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

fn exec_field(cpu: &mut Cpu, r: Region, insn: &Instruction, ops: &mut [EvaldOperand]) -> Flow {
    use field_off::*;
    let op = insn.opcode;
    cpu.c(r.at(ENTRY));
    match op {
        Opcode::Extv | Opcode::Extzv => {
            let pos = sext(ops[0].value, 4);
            let size = (ops[1].value & 0xFF) as u32;
            let (raw, _) = field_fetch(cpu, r, pos, size, &ops[2]);
            cpu.c_span(r, CALC1, 3);
            cpu.c(r.at(POST));
            cpu.c(r.at(POST));
            let v = if op == Opcode::Extv && size > 0 {
                sext(raw, 4).wrapping_shl(32 - size.min(32)) as u64 >> (32 - size.min(32))
                    | if raw & (1 << (size.saturating_sub(1))) != 0 && size < 32 {
                        !mask_bits(size) & mask(4)
                    } else {
                        0
                    }
            } else {
                raw
            };
            cc_nz(&mut cpu.psl, v, 4);
            ops[3].value = v & mask(4);
            Flow::Normal
        }
        Opcode::Cmpv | Opcode::Cmpzv => {
            let pos = sext(ops[0].value, 4);
            let size = (ops[1].value & 0xFF) as u32;
            let (raw, _) = field_fetch(cpu, r, pos, size, &ops[2]);
            cpu.c_span(r, CALC1, 3);
            cpu.c(r.at(POST));
            cc_cmp(&mut cpu.psl, raw, ops[3].value, 4);
            Flow::Normal
        }
        Opcode::Ffs | Opcode::Ffc => {
            let pos = sext(ops[0].value, 4);
            let size = (ops[1].value & 0xFF) as u32;
            let (raw, _) = field_fetch(cpu, r, pos, size, &ops[2]);
            cpu.c_span(r, CALC1, 3);
            cpu.c(r.at(POST));
            cpu.c(r.at(MERGE));
            let scan = if op == Opcode::Ffs {
                raw
            } else {
                !raw & mask_bits(size)
            };
            let found = scan.trailing_zeros().min(size);
            cpu.psl.z = found == size;
            ops[3].value = (pos as u64).wrapping_add(found as u64) & mask(4);
            Flow::Normal
        }
        Opcode::Insv => {
            let src = ops[0].value;
            let pos = sext(ops[1].value, 4);
            let size = (ops[2].value & 0xFF) as u32;
            if size == 0 {
                return Flow::Normal;
            }
            match ops[3].loc {
                crate::operand::Loc::Reg(reg) => {
                    cpu.c_span(r, CALC1, 3);
                    cpu.c(r.at(MERGE));
                    let shift = (pos & 31) as u32;
                    let old = cpu.get_reg(reg, 4);
                    let m = mask_bits(size) << shift;
                    let v = (old & !m) | ((src << shift) & m);
                    cpu.set_reg(reg, 4, v & mask(4));
                }
                _ => {
                    cpu.c_span(r, CALC1, 3);
                    let byte = VirtAddr((ops[3].value as u32).wrapping_add((pos >> 3) as u32));
                    let lw = VirtAddr(byte.0 & !3);
                    let old = cpu.read_data(r.at(READ), lw, 4);
                    cpu.c(r.at(MERGE));
                    cpu.c(r.at(MERGE));
                    let shift = ((ops[3].value * 8).wrapping_add(pos as u64) & 31) as u32;
                    if shift + size <= 32 {
                        let m = mask_bits(size) << shift;
                        let v = (old & !m) | ((src << shift) & m);
                        cpu.write_data(r.at(WRITE), lw, 4, v & mask(4));
                    } else {
                        let hi_old = cpu.read_data(r.at(READ), lw.add(4), 4);
                        let both = old | (hi_old << 32);
                        let m = mask_bits(size) << shift;
                        let v = (both & !m) | ((src << shift) & m);
                        cpu.write_data(r.at(WRITE), lw, 4, v & mask(4));
                        cpu.write_data(r.at(WRITE), lw.add(4), 4, (v >> 32) & mask(4));
                    }
                }
            }
            Flow::Normal
        }
        // Bit branches (single-bit fields).
        Opcode::Bbs
        | Opcode::Bbc
        | Opcode::Bbss
        | Opcode::Bbcs
        | Opcode::Bbsc
        | Opcode::Bbcc
        | Opcode::Bbssi
        | Opcode::Bbcci => {
            let pos = sext(ops[0].value, 4);
            cpu.c(r.at(CALC2));
            let (bitval, written) = match ops[1].loc {
                crate::operand::Loc::Reg(reg) => {
                    cpu.c(r.at(CALC1));
                    let old = cpu.get_reg(reg, 4);
                    let bit = (old >> (pos & 31)) & 1;
                    let newbit = match op {
                        Opcode::Bbss | Opcode::Bbcs | Opcode::Bbssi => Some(1u64),
                        Opcode::Bbsc | Opcode::Bbcc | Opcode::Bbcci => Some(0),
                        _ => None,
                    };
                    if let Some(nb) = newbit {
                        cpu.c(r.at(MERGE));
                        let m = 1u64 << (pos & 31);
                        let v = (old & !m) | (nb << (pos & 31));
                        cpu.set_reg(reg, 4, v & mask(4));
                    }
                    (bit, false)
                }
                _ => {
                    cpu.c(r.at(CALC1));
                    let byte = VirtAddr((ops[1].value as u32).wrapping_add((pos >> 3) as u32));
                    let old = cpu.read_data(r.at(READ), byte, 1);
                    let bit = (old >> (pos & 7)) & 1;
                    let newbit = match op {
                        Opcode::Bbss | Opcode::Bbcs | Opcode::Bbssi => Some(1u64),
                        Opcode::Bbsc | Opcode::Bbcc | Opcode::Bbcci => Some(0),
                        _ => None,
                    };
                    if let Some(nb) = newbit {
                        cpu.c(r.at(MERGE));
                        let m = 1u64 << (pos & 7);
                        let v = (old & !m) | (nb << (pos & 7));
                        cpu.write_data(r.at(WRITE), byte, 1, v);
                        (bit, true)
                    } else {
                        (bit, false)
                    }
                }
            };
            let _ = written;
            let on_set = matches!(
                op,
                Opcode::Bbs | Opcode::Bbss | Opcode::Bbsc | Opcode::Bbssi
            );
            let taken = (bitval != 0) == on_set;
            if taken {
                cpu.c(r.at(REDIRECT));
                Flow::TakenDisp
            } else {
                Flow::Normal
            }
        }
        other => unreachable!("{other} is not FIELD"),
    }
}

// ---- FLOAT ----

fn f32_of(v: u64) -> f32 {
    f32::from_bits(v as u32)
}
fn f64_of(v: u64) -> f64 {
    f64::from_bits(v)
}

/// Execute cycles of the costliest FLOAT-group routine: the FLOAT layout
/// is exactly this long, so no routine's [`float_cycles`] can run past
/// the end of its control-store region.
const FLOAT_MAX_CYCLES: u16 = {
    let mut max = 0;
    let mut i = 0;
    while i < OPCODE_TABLE.len() {
        let info = &OPCODE_TABLE[i];
        if matches!(info.group, OpcodeGroup::Float) && float_cycles(info.opcode) > max {
            max = float_cycles(info.opcode);
        }
        i += 1;
    }
    max
};

const fn float_cycles(op: Opcode) -> u16 {
    match op {
        Opcode::Movf | Opcode::Tstf | Opcode::Mnegf | Opcode::Movd | Opcode::Tstd => 2,
        Opcode::Cmpf | Opcode::Cmpd => 4,
        Opcode::Addf2 | Opcode::Addf3 | Opcode::Subf2 | Opcode::Subf3 => 6,
        Opcode::Addd2 | Opcode::Addd3 | Opcode::Subd2 | Opcode::Subd3 => 8,
        Opcode::Mulf2 | Opcode::Mulf3 => 8,
        Opcode::Muld2 | Opcode::Muld3 => 13,
        Opcode::Divf2 | Opcode::Divf3 => 15,
        Opcode::Divd2 | Opcode::Divd3 => 23,
        Opcode::Cvtfl | Opcode::Cvtlf | Opcode::Cvtfd | Opcode::Cvtdl | Opcode::Cvtld => 5,
        Opcode::Mulb2 | Opcode::Mulb3 | Opcode::Mulw2 | Opcode::Mulw3 => 10,
        Opcode::Mull2 | Opcode::Mull3 => 13,
        Opcode::Divb2 | Opcode::Divb3 | Opcode::Divw2 | Opcode::Divw3 => 20,
        Opcode::Divl2 | Opcode::Divl3 => 24,
        Opcode::Emul => 14,
        Opcode::Ediv => 26,
        _ => 5,
    }
}

fn exec_float(cpu: &mut Cpu, r: Region, insn: &Instruction, ops: &mut [EvaldOperand]) -> Flow {
    let op = insn.opcode;
    cpu.c_span(r, 0, float_cycles(op));
    let dst = ops.len() - 1;
    match op {
        // F_floating arithmetic (2- and 3-operand forms share shape: the
        // destination is the last operand).
        Opcode::Addf2 | Opcode::Addf3 => {
            let v = f32_of(ops[0].value) + f32_of(ops[1].value);
            ops[dst].value = v.to_bits() as u64;
            set_float_cc(&mut cpu.psl, v as f64);
        }
        Opcode::Subf2 | Opcode::Subf3 => {
            let v = f32_of(ops[1].value) - f32_of(ops[0].value);
            ops[dst].value = v.to_bits() as u64;
            set_float_cc(&mut cpu.psl, v as f64);
        }
        Opcode::Mulf2 | Opcode::Mulf3 => {
            let v = f32_of(ops[0].value) * f32_of(ops[1].value);
            ops[dst].value = v.to_bits() as u64;
            set_float_cc(&mut cpu.psl, v as f64);
        }
        Opcode::Divf2 | Opcode::Divf3 => {
            let d = f32_of(ops[0].value);
            let v = if d == 0.0 {
                0.0
            } else {
                f32_of(ops[1].value) / d
            };
            ops[dst].value = v.to_bits() as u64;
            set_float_cc(&mut cpu.psl, v as f64);
        }
        Opcode::Addd2 | Opcode::Addd3 => {
            let v = f64_of(ops[0].value) + f64_of(ops[1].value);
            ops[dst].value = v.to_bits();
            set_float_cc(&mut cpu.psl, v);
        }
        Opcode::Subd2 | Opcode::Subd3 => {
            let v = f64_of(ops[1].value) - f64_of(ops[0].value);
            ops[dst].value = v.to_bits();
            set_float_cc(&mut cpu.psl, v);
        }
        Opcode::Muld2 | Opcode::Muld3 => {
            let v = f64_of(ops[0].value) * f64_of(ops[1].value);
            ops[dst].value = v.to_bits();
            set_float_cc(&mut cpu.psl, v);
        }
        Opcode::Divd2 | Opcode::Divd3 => {
            let d = f64_of(ops[0].value);
            let v = if d == 0.0 {
                0.0
            } else {
                f64_of(ops[1].value) / d
            };
            ops[dst].value = v.to_bits();
            set_float_cc(&mut cpu.psl, v);
        }
        Opcode::Movf | Opcode::Movd => {
            ops[dst].value = ops[0].value;
            set_float_cc(&mut cpu.psl, f64_of(ops[0].value));
        }
        Opcode::Mnegf => {
            let v = -f32_of(ops[0].value);
            ops[dst].value = v.to_bits() as u64;
            set_float_cc(&mut cpu.psl, v as f64);
        }
        Opcode::Tstf => set_float_cc(&mut cpu.psl, f32_of(ops[0].value) as f64),
        Opcode::Tstd => set_float_cc(&mut cpu.psl, f64_of(ops[0].value)),
        Opcode::Cmpf => {
            let (a, b) = (f32_of(ops[0].value), f32_of(ops[1].value));
            cpu.psl.n = a < b;
            cpu.psl.z = a == b;
            cpu.psl.v = false;
            cpu.psl.c = false;
        }
        Opcode::Cmpd => {
            let (a, b) = (f64_of(ops[0].value), f64_of(ops[1].value));
            cpu.psl.n = a < b;
            cpu.psl.z = a == b;
            cpu.psl.v = false;
            cpu.psl.c = false;
        }
        Opcode::Cvtfl => {
            let v = f32_of(ops[0].value) as i64 as u64 & mask(4);
            cc_nz(&mut cpu.psl, v, 4);
            ops[dst].value = v;
        }
        Opcode::Cvtdl => {
            let v = f64_of(ops[0].value) as i64 as u64 & mask(4);
            cc_nz(&mut cpu.psl, v, 4);
            ops[dst].value = v;
        }
        Opcode::Cvtlf => {
            let v = sext(ops[0].value, 4) as f32;
            set_float_cc(&mut cpu.psl, v as f64);
            ops[dst].value = v.to_bits() as u64;
        }
        Opcode::Cvtld => {
            let v = sext(ops[0].value, 4) as f64;
            set_float_cc(&mut cpu.psl, v);
            ops[dst].value = v.to_bits();
        }
        Opcode::Cvtfd => {
            let v = f32_of(ops[0].value) as f64;
            set_float_cc(&mut cpu.psl, v);
            ops[dst].value = v.to_bits();
        }
        // Integer multiply/divide (FLOAT group per Table 1).
        Opcode::Mulb2 | Opcode::Mulw2 | Opcode::Mull2 => {
            let size = ops[0].size;
            let v = (sext(ops[0].value, size).wrapping_mul(sext(ops[1].value, size))) as u64
                & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[dst].value = v;
        }
        Opcode::Mulb3 | Opcode::Mulw3 | Opcode::Mull3 => {
            let size = ops[0].size;
            let v = (sext(ops[0].value, size).wrapping_mul(sext(ops[1].value, size))) as u64
                & mask(size);
            cc_nz(&mut cpu.psl, v, size);
            ops[dst].value = v;
        }
        Opcode::Divb2
        | Opcode::Divw2
        | Opcode::Divl2
        | Opcode::Divb3
        | Opcode::Divw3
        | Opcode::Divl3 => {
            let size = ops[0].size;
            let d = sext(ops[0].value, size);
            let v = if d == 0 {
                cpu.psl.v = true;
                ops[1].value
            } else {
                (sext(ops[1].value, size).wrapping_div(d)) as u64 & mask(size)
            };
            cc_nz(&mut cpu.psl, v, size);
            ops[dst].value = v;
        }
        Opcode::Emul => {
            let v = (sext(ops[0].value, 4) as i128 * sext(ops[1].value, 4) as i128
                + sext(ops[2].value, 4) as i128) as u64;
            cc_nz(&mut cpu.psl, v, 8);
            ops[dst].value = v;
        }
        Opcode::Ediv => {
            let d = sext(ops[0].value, 4);
            let dividend = ops[1].value as i64;
            let (q, rem) = if d == 0 {
                cpu.psl.v = true;
                (0i64, 0i64)
            } else {
                (dividend.wrapping_div(d), dividend.wrapping_rem(d))
            };
            ops[2].value = q as u64 & mask(4);
            ops[3].value = rem as u64 & mask(4);
            cc_nz(&mut cpu.psl, q as u64 & mask(4), 4);
        }
        other => unreachable!("{other} is not FLOAT"),
    }
    Flow::Normal
}

fn set_float_cc(psl: &mut Psl, v: f64) {
    psl.n = v < 0.0;
    psl.z = v == 0.0;
    psl.v = false;
    psl.c = false;
}

// ---- CALL/RET ----

/// The CALLS flag bit in our saved mask/PSW longword.
const FRAME_CALLS: u32 = 1 << 29;

fn push32(cpu: &mut Cpu, r: Region, gaps: u16, value: u32) {
    use callret_off::*;
    let sp = cpu.regs[14].wrapping_sub(4);
    cpu.regs[14] = sp;
    cpu.write_data(r.at(PUSH), VirtAddr(sp), 4, value as u64);
    for _ in 0..gaps {
        cpu.c(r.at(PUSH_GAP));
    }
}

fn pop32(cpu: &mut Cpu, r: Region, gaps: u16) -> u32 {
    use callret_off::*;
    let sp = cpu.regs[14];
    let v = cpu.read_data(r.at(POP), VirtAddr(sp), 4) as u32;
    cpu.regs[14] = sp.wrapping_add(4);
    for _ in 0..gaps {
        cpu.c(r.at(POP_GAP));
    }
    v
}

fn exec_callret(cpu: &mut Cpu, r: Region, insn: &Instruction, ops: &mut [EvaldOperand]) -> Flow {
    use callret_off::*;
    match insn.opcode {
        Opcode::Calls | Opcode::Callg => {
            // Frame (ascending from the new FP, as on the real VAX):
            //   [handler=0][mask|flags][AP][FP][PC][saved regs r_lo..r_hi]
            //   [numarg][args...]           (numarg/args for CALLS only)
            let is_calls = insn.opcode == Opcode::Calls;
            let dst = ops[1].value as u32;
            cpu.c_span(r, SETUP, 8);
            let entry_mask = cpu.read_data(r.at(POP), VirtAddr(dst), 2) as u32 & 0x0FFF;
            let numarg = if is_calls {
                ops[0].value as u32 & 0xFF
            } else {
                0
            };
            if is_calls {
                push32(cpu, r, 3, numarg);
            }
            let ap_val = if is_calls {
                cpu.regs[14]
            } else {
                ops[0].value as u32
            };
            // Saved registers, highest first so they end up ascending.
            for reg in (0..12u8).rev() {
                if entry_mask & (1 << reg) != 0 {
                    let v = cpu.regs[reg as usize];
                    push32(cpu, r, 3, v);
                }
            }
            let ret_pc = cpu.regs[15];
            push32(cpu, r, 3, ret_pc);
            push32(cpu, r, 3, cpu.regs[13]);
            push32(cpu, r, 3, cpu.regs[12]);
            let mask_word = entry_mask | if is_calls { FRAME_CALLS } else { 0 };
            push32(cpu, r, 3, mask_word);
            push32(cpu, r, 2, 0); // condition handler
            cpu.regs[13] = cpu.regs[14]; // FP
            cpu.regs[12] = ap_val; // AP
            cpu.c_span(r, FINISH, 4);
            Flow::Jump(dst.wrapping_add(2))
        }
        Opcode::Ret => {
            cpu.c_span(r, SETUP, 5);
            cpu.regs[14] = cpu.regs[13]; // SP <- FP
            let _handler = pop32(cpu, r, 2);
            let mask_word = pop32(cpu, r, 2);
            let entry_mask = mask_word & 0x0FFF;
            cpu.regs[12] = pop32(cpu, r, 2); // AP
            cpu.regs[13] = pop32(cpu, r, 2); // FP
            let ret_pc = pop32(cpu, r, 2);
            for reg in 0..12u8 {
                if entry_mask & (1 << reg) != 0 {
                    let v = pop32(cpu, r, 2);
                    cpu.regs[reg as usize] = v;
                }
            }
            if mask_word & FRAME_CALLS != 0 {
                let numarg = cpu.read_data(r.at(POP), VirtAddr(cpu.regs[14]), 4) as u32 & 0xFF;
                cpu.regs[14] = cpu.regs[14].wrapping_add(4 + 4 * numarg);
            }
            cpu.c_span(r, FINISH, 3);
            Flow::Jump(ret_pc)
        }
        Opcode::Pushr => {
            cpu.c_span(r, SETUP, 2);
            let m = ops[0].value as u32 & 0x7FFF;
            for reg in (0..15u8).rev() {
                if m & (1 << reg) != 0 {
                    let v = cpu.regs[reg as usize];
                    push32(cpu, r, 1, v);
                }
            }
            Flow::Normal
        }
        Opcode::Popr => {
            cpu.c_span(r, SETUP, 2);
            let m = ops[0].value as u32 & 0x7FFF;
            for reg in 0..15u8 {
                if m & (1 << reg) != 0 {
                    let v = pop32(cpu, r, 1);
                    cpu.regs[reg as usize] = v;
                }
            }
            Flow::Normal
        }
        other => unreachable!("{other} is not CALL/RET"),
    }
}

// ---- SYSTEM ----

fn exec_system(cpu: &mut Cpu, r: Region, insn: &Instruction, ops: &mut [EvaldOperand]) -> Flow {
    use system_off::*;
    match insn.opcode {
        Opcode::Nop => {
            cpu.c(r.at(SETUP));
            Flow::Normal
        }
        Opcode::Halt => {
            cpu.c(r.at(SETUP));
            Flow::Halt
        }
        Opcode::Bpt => {
            cpu.c_span(r, SETUP, 4);
            cpu.stats.exceptions += 1;
            let (pc, cycle) = (cpu.regs[15], cpu.cycle);
            cpu.mem.trace.emit_with(|| TraceEvent::Exception {
                pc,
                kind: "bpt",
                cycle,
            });
            // A breakpoint is the debugging entry point: dump the flight
            // recorder so the trap site comes with its instruction history.
            cpu.flight.dump_stderr();
            Flow::Normal
        }
        Opcode::Chmk | Opcode::Chme | Opcode::Chms | Opcode::Chmu => {
            let kind = match insn.opcode {
                Opcode::Chmk => "chmk",
                Opcode::Chme => "chme",
                Opcode::Chms => "chms",
                _ => "chmu",
            };
            let (pc, cycle) = (cpu.regs[15], cpu.cycle);
            cpu.mem
                .trace
                .emit_with(|| TraceEvent::Exception { pc, kind, cycle });
            cpu.c_span(r, SETUP, 10);
            let code = ops[0].value as u32;
            // Push PSL, PC, then the change-mode code.
            let psl_word = cpu.psl.to_u32();
            let pc = cpu.regs[15];
            let mut sp = cpu.regs[14];
            sp = sp.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, psl_word as u64);
            sp = sp.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, pc as u64);
            sp = sp.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, code as u64);
            cpu.regs[14] = sp;
            let vec_va = cpu.config.scb_base.add(VEC_CHMK * 4);
            let target = cpu.read_data(r.at(READ), vec_va, 4) as u32;
            cpu.psl.cur_mode = AccessMode::Kernel;
            cpu.c_span(r, FINISH, 2);
            Flow::Jump(target)
        }
        Opcode::Rei => {
            cpu.c_span(r, SETUP, 6);
            let mut sp = cpu.regs[14];
            let pc = cpu.read_data(r.at(READ), VirtAddr(sp), 4) as u32;
            sp = sp.wrapping_add(4);
            let psl_word = cpu.read_data(r.at(READ), VirtAddr(sp), 4) as u32;
            sp = sp.wrapping_add(4);
            cpu.regs[14] = sp;
            cpu.psl = Psl::from_u32(psl_word);
            cpu.c_span(r, FINISH, 2);
            Flow::Jump(pc)
        }
        Opcode::Svpctx => {
            cpu.c_span(r, SETUP, 2);
            // Pop the PC/PSL the interrupt pushed, then save state to PCB.
            let mut sp = cpu.regs[14];
            let pc = cpu.read_data(r.at(READ), VirtAddr(sp), 4) as u32;
            sp = sp.wrapping_add(4);
            let psl_word = cpu.read_data(r.at(READ), VirtAddr(sp), 4) as u32;
            sp = sp.wrapping_add(4);
            cpu.regs[14] = sp;
            let pcb = VirtAddr(cpu.iprs.pcbb);
            for i in 0..14u32 {
                let v = cpu.regs[i as usize];
                cpu.write_data(r.at(WRITE), pcb.add(i * 4), 4, v as u64);
                cpu.c(r.at(FINISH));
            }
            let sp_now = cpu.regs[14];
            cpu.write_data(r.at(WRITE), pcb.add(56), 4, sp_now as u64);
            cpu.write_data(r.at(WRITE), pcb.add(60), 4, pc as u64);
            cpu.write_data(r.at(WRITE), pcb.add(64), 4, psl_word as u64);
            cpu.c_span(r, FINISH, 2);
            Flow::Normal
        }
        Opcode::Ldpctx => {
            cpu.c_span(r, SETUP, 2);
            let pcb = VirtAddr(cpu.iprs.pcbb);
            for i in 0..14u32 {
                let v = cpu.read_data(r.at(READ), pcb.add(i * 4), 4) as u32;
                cpu.regs[i as usize] = v;
                cpu.c(r.at(FINISH));
            }
            let sp = cpu.read_data(r.at(READ), pcb.add(56), 4) as u32;
            let pc = cpu.read_data(r.at(READ), pcb.add(60), 4) as u32;
            let psl_word = cpu.read_data(r.at(READ), pcb.add(64), 4) as u32;
            let p0br = cpu.read_data(r.at(READ), pcb.add(68), 4) as u32;
            let p0lr = cpu.read_data(r.at(READ), pcb.add(72), 4) as u32;
            let p1br = cpu.read_data(r.at(READ), pcb.add(76), 4) as u32;
            let p1lr = cpu.read_data(r.at(READ), pcb.add(80), 4) as u32;
            cpu.mem.tables.p0br = VirtAddr(p0br);
            cpu.mem.tables.p0lr = p0lr;
            cpu.mem.tables.p1br = VirtAddr(p1br);
            cpu.mem.tables.p1lr = p1lr;
            cpu.mem.tb_mut().invalidate_process();
            // The decode cache needs no invalidate here: its entries are
            // keyed by the page-table tuple just loaded, and PTE rewrites
            // made while this process slept are caught by the code watch
            // (cached code's PTE bytes are watched).
            // Switch to the new process's stack, then push its PC/PSL so
            // the following REI resumes it with a balanced stack.
            let s1 = sp.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(s1), 4, psl_word as u64);
            let s2 = s1.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(s2), 4, pc as u64);
            cpu.regs[14] = s2;
            cpu.c_span(r, FINISH, 2);
            Flow::Normal
        }
        Opcode::Mtpr => {
            cpu.c_span(r, SETUP, 3);
            let v = ops[0].value as u32;
            let which = ops[1].value as u32;
            match IprNum::from_u32(which) {
                Some(IprNum::Sirr) => {
                    cpu.iprs.request_soft(v as u8);
                    cpu.stats.sw_interrupt_requests += 1;
                }
                Some(IprNum::Ipl) => cpu.psl.ipl = (v & 0x1F) as u8,
                Some(IprNum::Pcbb) => cpu.iprs.pcbb = v,
                Some(IprNum::Scbb) => cpu.iprs.scbb = v,
                Some(IprNum::Ksp) => cpu.iprs.ksp = v,
                Some(IprNum::Iccs) => cpu.iprs.iccs = v,
                Some(IprNum::P0br) => cpu.mem.tables.p0br = VirtAddr(v),
                Some(IprNum::P0lr) => cpu.mem.tables.p0lr = v,
                Some(IprNum::P1br) => cpu.mem.tables.p1br = VirtAddr(v),
                Some(IprNum::P1lr) => cpu.mem.tables.p1lr = v,
                Some(IprNum::Sbr) => cpu.mem.tables.sbr = vax_mem::PhysAddr(v),
                Some(IprNum::Slr) => cpu.mem.tables.slr = v,
                Some(IprNum::Tbia) => cpu.mem.tb_mut().invalidate_all(),
                Some(IprNum::Tbis) => cpu.mem.tb_mut().invalidate_page(VirtAddr(v)),
                Some(IprNum::Sisr) => cpu.iprs.sisr = v as u16,
                None => {}
            }
            // A TB invalidate is how the guest announces PTE rewrites for
            // the running context; cached decodes made under the old
            // translations must go too. (Base/length register writes need
            // nothing here: they change the page-table tuple, which is part
            // of the decode cache's key.)
            if matches!(IprNum::from_u32(which), Some(IprNum::Tbia | IprNum::Tbis)) {
                cpu.flush_decode_cache();
            }
            Flow::Normal
        }
        Opcode::Mfpr => {
            cpu.c_span(r, SETUP, 3);
            let which = ops[0].value as u32;
            let v = match IprNum::from_u32(which) {
                Some(IprNum::Ipl) => cpu.psl.ipl as u32,
                Some(IprNum::Pcbb) => cpu.iprs.pcbb,
                Some(IprNum::Scbb) => cpu.iprs.scbb,
                Some(IprNum::Ksp) => cpu.iprs.ksp,
                Some(IprNum::Sisr) => cpu.iprs.sisr as u32,
                Some(IprNum::Iccs) => cpu.iprs.iccs,
                Some(IprNum::P0br) => cpu.mem.tables.p0br.0,
                Some(IprNum::P0lr) => cpu.mem.tables.p0lr,
                Some(IprNum::P1br) => cpu.mem.tables.p1br.0,
                Some(IprNum::P1lr) => cpu.mem.tables.p1lr,
                Some(IprNum::Sbr) => cpu.mem.tables.sbr.0,
                Some(IprNum::Slr) => cpu.mem.tables.slr,
                _ => 0,
            };
            ops[1].value = v as u64;
            Flow::Normal
        }
        Opcode::Insque => {
            cpu.c_span(r, SETUP, 4);
            let entry = ops[0].value as u32;
            let pred = ops[1].value as u32;
            let succ = cpu.read_data(r.at(READ), VirtAddr(pred), 4) as u32;
            let _pred_blink = cpu.read_data(r.at(READ), VirtAddr(pred.wrapping_add(4)), 4);
            cpu.write_data(r.at(WRITE), VirtAddr(entry), 4, succ as u64);
            cpu.write_data(r.at(WRITE), VirtAddr(entry.wrapping_add(4)), 4, pred as u64);
            cpu.write_data(r.at(WRITE), VirtAddr(pred), 4, entry as u64);
            cpu.write_data(r.at(WRITE), VirtAddr(succ.wrapping_add(4)), 4, entry as u64);
            cpu.psl.z = succ == pred; // queue was empty
            cpu.c_span(r, FINISH, 2);
            Flow::Normal
        }
        Opcode::Remque => {
            cpu.c_span(r, SETUP, 4);
            let entry = ops[0].value as u32;
            let flink = cpu.read_data(r.at(READ), VirtAddr(entry), 4) as u32;
            let blink = cpu.read_data(r.at(READ), VirtAddr(entry.wrapping_add(4)), 4) as u32;
            cpu.write_data(r.at(WRITE), VirtAddr(blink), 4, flink as u64);
            cpu.write_data(
                r.at(WRITE),
                VirtAddr(flink.wrapping_add(4)),
                4,
                blink as u64,
            );
            ops[1].value = entry as u64;
            cpu.psl.z = flink == blink; // queue now empty
            cpu.c_span(r, FINISH, 2);
            Flow::Normal
        }
        Opcode::Prober | Opcode::Probew => {
            cpu.c_span(r, SETUP, 4);
            cpu.psl.z = false; // accessible
            Flow::Normal
        }
        Opcode::Bispsw => {
            cpu.c_span(r, SETUP, 2);
            let m = ops[0].value as u32;
            let cur = cpu.psl.to_u32() | (m & 0xF);
            cpu.psl = Psl::from_u32(cur);
            Flow::Normal
        }
        Opcode::Bicpsw => {
            cpu.c_span(r, SETUP, 2);
            let m = ops[0].value as u32;
            let cur = cpu.psl.to_u32() & !(m & 0xF);
            cpu.psl = Psl::from_u32(cur);
            Flow::Normal
        }
        other => unreachable!("{other} is not SYSTEM"),
    }
}

// ---- CHARACTER ----

/// One string-loop iteration: read a source longword and two bookkeeping
/// cycles (the read-only string ops).
fn char_read_iter(cpu: &mut Cpu, r: Region, va: VirtAddr) -> u64 {
    use char_off::*;
    let v = cpu.read_data(r.at(READ), VirtAddr(va.0 & !3), 4);
    cpu.c(r.at(LOOP1));
    cpu.c(r.at(LOOP2));
    v
}

fn exec_character(cpu: &mut Cpu, r: Region, insn: &Instruction, ops: &mut [EvaldOperand]) -> Flow {
    use char_off::*;
    cpu.c_span(r, SETUP, 8);
    match insn.opcode {
        Opcode::Movc3 | Opcode::Movc5 => {
            let (srclen, srcaddr, fill, dstlen, dstaddr) = if insn.opcode == Opcode::Movc3 {
                let len = ops[0].value as u32 & 0xFFFF;
                (len, ops[1].as_va(), 0u8, len, ops[2].as_va())
            } else {
                (
                    ops[0].value as u32 & 0xFFFF,
                    ops[1].as_va(),
                    ops[2].value as u8,
                    ops[3].value as u32 & 0xFFFF,
                    ops[4].as_va(),
                )
            };
            // Timing: longword loop; the microcode writes only every sixth
            // cycle to avoid write stalls (paper §4.3).
            let lws = dstlen.div_ceil(4);
            for i in 0..lws {
                let _ = cpu.read_data(r.at(READ), VirtAddr((srcaddr.0 + i * 4) & !3), 4);
                cpu.c(r.at(LOOP1));
                cpu.c(r.at(LOOP2));
                cpu.c(r.at(LOOP1));
                cpu.write_data(r.at(WRITE), VirtAddr((dstaddr.0 + i * 4) & !3), 4, 0);
                cpu.c(r.at(LOOP3));
                cpu.c(r.at(LOOP4));
                cpu.c(r.at(LOOP3));
            }
            cpu.c(r.at(FINISH));
            // Semantics: byte-accurate copy + fill (after the timed loop so
            // its placeholder writes don't clobber the data).
            let n = srclen.min(dstlen);
            for i in 0..n {
                let b = cpu.read_value(srcaddr.add(i), 1);
                cpu.write_value(dstaddr.add(i), 1, b);
            }
            for i in n..dstlen {
                cpu.write_value(dstaddr.add(i), 1, fill as u64);
            }
            cpu.regs[0] = srclen.saturating_sub(dstlen);
            cpu.regs[1] = srcaddr.add(n).0;
            cpu.regs[2] = 0;
            cpu.regs[3] = dstaddr.add(dstlen).0;
            cpu.regs[4] = 0;
            cpu.regs[5] = 0;
            cpu.psl.z = srclen == dstlen;
            Flow::Normal
        }
        Opcode::Cmpc3 | Opcode::Cmpc5 => {
            let (len1, a1, len2, a2) = if insn.opcode == Opcode::Cmpc3 {
                let len = ops[0].value as u32 & 0xFFFF;
                (len, ops[1].as_va(), len, ops[2].as_va())
            } else {
                (
                    ops[0].value as u32 & 0xFFFF,
                    ops[1].as_va(),
                    ops[3].value as u32 & 0xFFFF,
                    ops[4].as_va(),
                )
            };
            let n = len1.min(len2);
            let mut diff_at = n;
            let mut ca = 0u64;
            let mut cb = 0u64;
            for i in 0..n {
                ca = cpu.read_value(a1.add(i), 1);
                cb = cpu.read_value(a2.add(i), 1);
                if ca != cb {
                    diff_at = i;
                    break;
                }
            }
            let scanned = if diff_at == n { n } else { diff_at + 1 };
            let lws = scanned.div_ceil(4).max(1);
            for i in 0..lws {
                let _ = cpu.read_data(r.at(READ), VirtAddr((a1.0 + i * 4) & !3), 4);
                let _ = cpu.read_data(r.at(READ), VirtAddr((a2.0 + i * 4) & !3), 4);
                cpu.c(r.at(LOOP1));
                cpu.c(r.at(LOOP2));
            }
            cpu.c(r.at(FINISH));
            cc_cmp(&mut cpu.psl, ca, cb, 1);
            if diff_at == n {
                cpu.psl.z = len1 == len2;
            }
            cpu.regs[0] = len1 - diff_at.min(len1);
            cpu.regs[1] = a1.add(diff_at).0;
            cpu.regs[2] = len2 - diff_at.min(len2);
            cpu.regs[3] = a2.add(diff_at).0;
            Flow::Normal
        }
        Opcode::Locc | Opcode::Skpc => {
            let ch = ops[0].value as u8;
            let len = ops[1].value as u32 & 0xFFFF;
            let addr = ops[2].as_va();
            let mut found = len;
            for i in 0..len {
                let b = cpu.read_value(addr.add(i), 1) as u8;
                let hit = if insn.opcode == Opcode::Locc {
                    b == ch
                } else {
                    b != ch
                };
                if hit {
                    found = i;
                    break;
                }
            }
            let scanned = if found == len { len } else { found + 1 };
            let lws = scanned.div_ceil(4).max(1);
            for i in 0..lws {
                let _ = char_read_iter(cpu, r, addr.add(i * 4));
            }
            cpu.c(r.at(FINISH));
            cpu.psl.z = found == len;
            cpu.regs[0] = len - found.min(len);
            cpu.regs[1] = addr.add(found.min(len)).0;
            Flow::Normal
        }
        Opcode::Scanc | Opcode::Spanc => {
            let len = ops[0].value as u32 & 0xFFFF;
            let addr = ops[1].as_va();
            let table = ops[2].as_va();
            let m = ops[3].value as u8;
            let mut found = len;
            for i in 0..len {
                let b = cpu.read_value(addr.add(i), 1) as u8;
                let t = cpu.read_value(table.add(b as u32), 1) as u8;
                let hit = if insn.opcode == Opcode::Scanc {
                    t & m != 0
                } else {
                    t & m == 0
                };
                if hit {
                    found = i;
                    break;
                }
            }
            let scanned = if found == len { len } else { found + 1 };
            let lws = scanned.div_ceil(4).max(1);
            for i in 0..lws {
                let _ = char_read_iter(cpu, r, addr.add(i * 4));
                // Table lookups: one reference per longword of string, a
                // coarse model of the per-byte table probes.
                let _ = cpu.read_data(r.at(READ), VirtAddr(table.0 & !3), 4);
            }
            cpu.c(r.at(FINISH));
            cpu.psl.z = found == len;
            cpu.regs[0] = len - found.min(len);
            cpu.regs[1] = addr.add(found.min(len)).0;
            cpu.regs[2] = 0;
            cpu.regs[3] = table.0;
            Flow::Normal
        }
        Opcode::Matchc => {
            let len1 = ops[0].value as u32 & 0xFFFF;
            let a1 = ops[1].as_va();
            let len2 = ops[2].value as u32 & 0xFFFF;
            let a2 = ops[3].as_va();
            // Naive substring search (pattern a1 within a2).
            let mut at = None;
            if len1 <= len2 {
                'outer: for s in 0..=(len2 - len1) {
                    for i in 0..len1 {
                        let p = cpu.read_value(a1.add(i), 1);
                        let t = cpu.read_value(a2.add(s + i), 1);
                        if p != t {
                            continue 'outer;
                        }
                    }
                    at = Some(s);
                    break;
                }
            }
            let scanned = at.map(|s| s + len1).unwrap_or(len2);
            let lws = scanned.div_ceil(4).max(1);
            for i in 0..lws {
                let _ = char_read_iter(cpu, r, a2.add(i * 4));
            }
            cpu.c(r.at(FINISH));
            cpu.psl.z = at.is_some();
            cpu.regs[0] = if at.is_some() { 0 } else { len1 };
            cpu.regs[3] = a2.add(at.map(|s| s + len1).unwrap_or(len2)).0;
            Flow::Normal
        }
        other => unreachable!("{other} is not CHARACTER"),
    }
}

// ---- DECIMAL ----

/// Packed-decimal byte length for a digit count.
fn packed_bytes(digits: u32) -> u32 {
    digits / 2 + 1
}

fn read_packed(cpu: &Cpu, addr: VirtAddr, digits: u32) -> i128 {
    let bytes = packed_bytes(digits.min(31));
    let mut v: i128 = 0;
    for i in 0..bytes {
        let b = cpu.read_value(addr.add(i), 1) as u8;
        if i == bytes - 1 {
            v = v * 10 + (b >> 4) as i128;
            if b & 0x0F == 0x0D {
                v = -v;
            }
        } else {
            v = v * 100 + ((b >> 4) * 10 + (b & 0x0F)) as i128;
        }
    }
    v
}

fn write_packed(cpu: &mut Cpu, addr: VirtAddr, digits: u32, value: i128) {
    let digits = digits.min(31);
    let bytes = packed_bytes(digits);
    let neg = value < 0;
    let mut mag = value.unsigned_abs();
    // Build digits least-significant first.
    let mut ds = [0u8; 32];
    for d in ds.iter_mut().take(digits as usize) {
        *d = (mag % 10) as u8;
        mag /= 10;
    }
    // Pack: last byte holds the lowest digit + sign nibble.
    for i in 0..bytes {
        let byte = if i == bytes - 1 {
            (ds[0] << 4) | if neg { 0x0D } else { 0x0C }
        } else {
            let hi_idx = (2 * (bytes - 1 - i) - 1) as usize;
            let lo_idx = (2 * (bytes - 1 - i)) as usize;
            (ds[lo_idx.min(31)] << 4) | ds[hi_idx.min(31)]
        };
        cpu.write_value(addr.add(i), 1, byte as u64);
    }
}

/// Timed packed-operand read: longword references plus digit cycles.
fn dec_read_timed(cpu: &mut Cpu, r: Region, addr: VirtAddr, digits: u32) {
    use decimal_off::*;
    let lws = packed_bytes(digits).div_ceil(4);
    for i in 0..lws {
        let _ = cpu.read_data(r.at(READ), VirtAddr((addr.0 + i * 4) & !3), 4);
        cpu.c(r.at(DIGIT1));
    }
}

fn dec_write_timed(cpu: &mut Cpu, r: Region, addr: VirtAddr, digits: u32) {
    use decimal_off::*;
    let lws = packed_bytes(digits).div_ceil(4);
    for i in 0..lws {
        cpu.write_data(r.at(WRITE), VirtAddr((addr.0 + i * 4) & !3), 4, 0);
        cpu.c(r.at(FINISH));
        cpu.c(r.at(DIGIT2));
    }
}

fn dec_digit_loop(cpu: &mut Cpu, r: Region, digits: u32, heavy: bool) {
    use decimal_off::*;
    for _ in 0..digits {
        cpu.c(r.at(DIGIT1));
        cpu.c(r.at(DIGIT2));
        cpu.c(r.at(DIGIT3));
        if heavy {
            cpu.c(r.at(DIGIT1));
            cpu.c(r.at(DIGIT2));
            cpu.c(r.at(DIGIT3));
        }
    }
}

fn ten_pow(digits: u32) -> i128 {
    10i128.saturating_pow(digits.min(31))
}

fn exec_decimal(cpu: &mut Cpu, r: Region, insn: &Instruction, ops: &mut [EvaldOperand]) -> Flow {
    use decimal_off::*;
    cpu.c_span(r, SETUP, 10);
    let op = insn.opcode;
    match op {
        Opcode::Addp4 | Opcode::Subp4 => {
            let srclen = ops[0].value as u32 & 0x1F;
            let src = ops[1].as_va();
            let dstlen = ops[2].value as u32 & 0x1F;
            let dst = ops[3].as_va();
            dec_read_timed(cpu, r, src, srclen);
            dec_read_timed(cpu, r, dst, dstlen);
            dec_digit_loop(cpu, r, dstlen.max(srclen), false);
            let a = read_packed(cpu, src, srclen);
            let b = read_packed(cpu, dst, dstlen);
            let v = if op == Opcode::Addp4 { b + a } else { b - a } % ten_pow(dstlen);
            dec_write_timed(cpu, r, dst, dstlen);
            write_packed(cpu, dst, dstlen, v);
            cpu.psl.n = v < 0;
            cpu.psl.z = v == 0;
            Flow::Normal
        }
        Opcode::Addp6 | Opcode::Subp6 => {
            let l1 = ops[0].value as u32 & 0x1F;
            let a1 = ops[1].as_va();
            let l2 = ops[2].value as u32 & 0x1F;
            let a2 = ops[3].as_va();
            let l3 = ops[4].value as u32 & 0x1F;
            let a3 = ops[5].as_va();
            dec_read_timed(cpu, r, a1, l1);
            dec_read_timed(cpu, r, a2, l2);
            dec_digit_loop(cpu, r, l3.max(l1).max(l2), false);
            let x = read_packed(cpu, a1, l1);
            let y = read_packed(cpu, a2, l2);
            let v = if op == Opcode::Addp6 { y + x } else { y - x } % ten_pow(l3);
            dec_write_timed(cpu, r, a3, l3);
            write_packed(cpu, a3, l3, v);
            cpu.psl.n = v < 0;
            cpu.psl.z = v == 0;
            Flow::Normal
        }
        Opcode::Mulp | Opcode::Divp => {
            let l1 = ops[0].value as u32 & 0x1F;
            let a1 = ops[1].as_va();
            let l2 = ops[2].value as u32 & 0x1F;
            let a2 = ops[3].as_va();
            let l3 = ops[4].value as u32 & 0x1F;
            let a3 = ops[5].as_va();
            dec_read_timed(cpu, r, a1, l1);
            dec_read_timed(cpu, r, a2, l2);
            dec_digit_loop(cpu, r, l3.max(l1).max(l2), true);
            let x = read_packed(cpu, a1, l1);
            let y = read_packed(cpu, a2, l2);
            let v = if op == Opcode::Mulp {
                (y.saturating_mul(x)) % ten_pow(l3)
            } else if x == 0 {
                cpu.psl.v = true;
                0
            } else {
                (y / x) % ten_pow(l3)
            };
            dec_write_timed(cpu, r, a3, l3);
            write_packed(cpu, a3, l3, v);
            cpu.psl.n = v < 0;
            cpu.psl.z = v == 0;
            Flow::Normal
        }
        Opcode::Movp => {
            let len = ops[0].value as u32 & 0x1F;
            let src = ops[1].as_va();
            let dst = ops[2].as_va();
            dec_read_timed(cpu, r, src, len);
            let v = read_packed(cpu, src, len);
            dec_write_timed(cpu, r, dst, len);
            write_packed(cpu, dst, len, v);
            cpu.psl.n = v < 0;
            cpu.psl.z = v == 0;
            Flow::Normal
        }
        Opcode::Cmpp3 | Opcode::Cmpp4 => {
            let (l1, a1, l2, a2) = if op == Opcode::Cmpp3 {
                let len = ops[0].value as u32 & 0x1F;
                (len, ops[1].as_va(), len, ops[2].as_va())
            } else {
                (
                    ops[0].value as u32 & 0x1F,
                    ops[1].as_va(),
                    ops[2].value as u32 & 0x1F,
                    ops[3].as_va(),
                )
            };
            dec_read_timed(cpu, r, a1, l1);
            dec_read_timed(cpu, r, a2, l2);
            dec_digit_loop(cpu, r, l1.max(l2) / 2, false);
            let x = read_packed(cpu, a1, l1);
            let y = read_packed(cpu, a2, l2);
            cpu.psl.n = x < y;
            cpu.psl.z = x == y;
            Flow::Normal
        }
        Opcode::Cvtlp => {
            let v = sext(ops[0].value, 4) as i128;
            let len = ops[1].value as u32 & 0x1F;
            let dst = ops[2].as_va();
            dec_digit_loop(cpu, r, len, false);
            dec_write_timed(cpu, r, dst, len);
            write_packed(cpu, dst, len, v % ten_pow(len));
            cpu.psl.n = v < 0;
            cpu.psl.z = v == 0;
            Flow::Normal
        }
        Opcode::Cvtpl => {
            let len = ops[0].value as u32 & 0x1F;
            let src = ops[1].as_va();
            dec_read_timed(cpu, r, src, len);
            dec_digit_loop(cpu, r, len, false);
            let v = read_packed(cpu, src, len);
            ops[2].value = v as i64 as u64 & mask(4);
            cpu.psl.n = v < 0;
            cpu.psl.z = v == 0;
            Flow::Normal
        }
        Opcode::Ashp => {
            let shift = sext(ops[0].value, 1);
            let srclen = ops[1].value as u32 & 0x1F;
            let src = ops[2].as_va();
            let _round = ops[3].value;
            let dstlen = ops[4].value as u32 & 0x1F;
            let dst = ops[5].as_va();
            dec_read_timed(cpu, r, src, srclen);
            dec_digit_loop(cpu, r, dstlen, false);
            let x = read_packed(cpu, src, srclen);
            let v = if shift >= 0 {
                x.saturating_mul(ten_pow(shift as u32))
            } else {
                x / ten_pow((-shift) as u32)
            } % ten_pow(dstlen);
            dec_write_timed(cpu, r, dst, dstlen);
            write_packed(cpu, dst, dstlen, v);
            cpu.psl.n = v < 0;
            cpu.psl.z = v == 0;
            Flow::Normal
        }
        other => unreachable!("{other} is not DECIMAL"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_match_offsets() {
        assert_eq!(SIMPLE_LAYOUT[simple_off::READ as usize], R);
        assert_eq!(SIMPLE_LAYOUT[simple_off::WRITE as usize], W);
        assert_eq!(FIELD_LAYOUT[field_off::READ as usize], R);
        assert_eq!(FIELD_LAYOUT[field_off::WRITE as usize], W);
        assert_eq!(CALLRET_LAYOUT[callret_off::PUSH as usize], W);
        assert_eq!(CALLRET_LAYOUT[callret_off::POP as usize], R);
        assert_eq!(SYSTEM_LAYOUT[system_off::READ as usize], R);
        assert_eq!(SYSTEM_LAYOUT[system_off::WRITE as usize], W);
        assert_eq!(CHAR_LAYOUT[char_off::READ as usize], R);
        assert_eq!(CHAR_LAYOUT[char_off::WRITE as usize], W);
        assert_eq!(DECIMAL_LAYOUT[decimal_off::READ as usize], R);
        assert_eq!(DECIMAL_LAYOUT[decimal_off::WRITE as usize], W);
    }

    #[test]
    fn every_float_routine_fits_its_layout() {
        // `c_span` past a region's end panics mid-run, so the layout must
        // cover the costliest FLOAT routine (EDIV), and need be no longer.
        let costliest = OPCODE_TABLE
            .iter()
            .filter(|info| info.group == OpcodeGroup::Float)
            .map(|info| usize::from(float_cycles(info.opcode)))
            .max();
        assert_eq!(costliest, Some(FLOAT_LAYOUT.len()));
        assert_eq!(usize::from(float_cycles(Opcode::Ediv)), FLOAT_LAYOUT.len());
    }

    #[test]
    fn packed_decimal_roundtrip_helpers() {
        // Pure helpers (no CPU needed).
        assert_eq!(packed_bytes(5), 3);
        assert_eq!(packed_bytes(0), 1);
        assert_eq!(ten_pow(3), 1000);
        assert_eq!(mask_bits(4), 0xF);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sext(0xFF, 1), -1);
        assert_eq!(sext(0x7F, 1), 127);
        assert_eq!(sext(0xFFFF_FFFF, 4), -1);
    }
}
