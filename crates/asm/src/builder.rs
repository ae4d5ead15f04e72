//! The programmatic assembler.

use std::collections::HashMap;
use std::fmt;
use vax_arch::encode::encode_into;
use vax_arch::{Instruction, Opcode, OperandKind, Reg, Specifier};

/// An assembler-level operand: like [`Specifier`] but may reference labels.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Short literal 0–63.
    Lit(u8),
    /// Immediate `#value` (I-stream constant).
    Imm(u32),
    /// Register mode.
    Reg(Reg),
    /// Register deferred `(Rn)`.
    Deferred(Reg),
    /// Autoincrement `(Rn)+`.
    AutoInc(Reg),
    /// Autodecrement `-(Rn)`.
    AutoDec(Reg),
    /// Autoincrement deferred `@(Rn)+`.
    AutoIncDef(Reg),
    /// Displacement `disp(Rn)`.
    Disp(i32, Reg),
    /// Displacement deferred `@disp(Rn)`.
    DispDef(i32, Reg),
    /// Absolute `@#addr`.
    Abs(u32),
    /// PC-relative reference to a label.
    Label(String),
    /// PC-relative *deferred* reference to a label: the longword at the
    /// label holds the operand's address (`@disp(PC)`). This is how the
    /// probe generator reaches mode F/PC without hand-computed
    /// displacements.
    LabelDef(String),
    /// Indexed: base operand plus `[Rx]`.
    Indexed(Box<Operand>, Reg),
}

impl Operand {
    /// Encoded length in bytes for an operand of `size` data bytes.
    fn encoded_len(&self, size: u32) -> u32 {
        match self {
            Operand::Lit(_) | Operand::Reg(_) => 1,
            Operand::Deferred(_)
            | Operand::AutoInc(_)
            | Operand::AutoDec(_)
            | Operand::AutoIncDef(_) => 1,
            Operand::Imm(_) => 1 + size,
            Operand::Disp(d, _) | Operand::DispDef(d, _) => {
                1 + if (-128..=127).contains(d) {
                    1
                } else if (-32768..=32767).contains(d) {
                    2
                } else {
                    4
                }
            }
            Operand::Abs(_) => 5,
            Operand::Label(_) | Operand::LabelDef(_) => 5, // always long PC-relative
            Operand::Indexed(base, _) => 1 + base.encoded_len(size),
        }
    }

    /// Resolve to a [`Specifier`], with `pc_after` the address just past
    /// this specifier's encoding (for PC-relative forms).
    fn resolve(&self, labels: &HashMap<String, u32>, pc_after: u32) -> Result<Specifier, AsmError> {
        Ok(match self {
            Operand::Lit(v) => Specifier::literal(*v),
            Operand::Imm(v) => Specifier::immediate(*v),
            Operand::Reg(r) => Specifier::register(*r),
            Operand::Deferred(r) => Specifier::deferred(*r),
            Operand::AutoInc(r) => Specifier {
                mode: vax_arch::AddressingMode::Autoincrement,
                reg: *r,
                value: 0,
                index: None,
            },
            Operand::AutoDec(r) => Specifier {
                mode: vax_arch::AddressingMode::Autodecrement,
                reg: *r,
                value: 0,
                index: None,
            },
            Operand::AutoIncDef(r) => Specifier {
                mode: vax_arch::AddressingMode::AutoincrementDeferred,
                reg: *r,
                value: 0,
                index: None,
            },
            Operand::Disp(d, r) => Specifier::displacement(*d, *r),
            Operand::DispDef(d, r) => {
                let mut s = Specifier::displacement(*d, *r);
                s.mode = match s.mode {
                    vax_arch::AddressingMode::ByteDisp => {
                        vax_arch::AddressingMode::ByteDispDeferred
                    }
                    vax_arch::AddressingMode::WordDisp => {
                        vax_arch::AddressingMode::WordDispDeferred
                    }
                    _ => vax_arch::AddressingMode::LongDispDeferred,
                };
                s
            }
            Operand::Abs(a) => Specifier::absolute(*a),
            Operand::Label(name) => {
                let target = *labels
                    .get(name)
                    .ok_or_else(|| AsmError::UndefinedLabel(name.clone()))?;
                Specifier {
                    mode: vax_arch::AddressingMode::PcRelative,
                    reg: Reg::PC,
                    value: target.wrapping_sub(pc_after) as i32 as i64,
                    index: None,
                }
            }
            Operand::LabelDef(name) => {
                let target = *labels
                    .get(name)
                    .ok_or_else(|| AsmError::UndefinedLabel(name.clone()))?;
                Specifier {
                    mode: vax_arch::AddressingMode::PcRelativeDeferred,
                    reg: Reg::PC,
                    value: target.wrapping_sub(pc_after) as i32 as i64,
                    index: None,
                }
            }
            Operand::Indexed(base, ix) => base.resolve(labels, pc_after)?.indexed(*ix),
        })
    }
}

/// Assembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch displacement did not fit the opcode's width.
    BranchOutOfRange {
        /// The opcode.
        opcode: &'static str,
        /// The displacement that did not fit.
        disp: i64,
    },
    /// Operand count does not match the opcode signature.
    OperandCount {
        /// The opcode.
        opcode: &'static str,
        /// Expected specifier count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// A branch opcode without a target, or a target on a non-branch.
    BranchTarget(&'static str),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::BranchOutOfRange { opcode, disp } => {
                write!(f, "{opcode}: branch displacement {disp} out of range")
            }
            AsmError::OperandCount {
                opcode,
                expected,
                got,
            } => write!(f, "{opcode}: expected {expected} operands, got {got}"),
            AsmError::BranchTarget(op) => write!(f, "{op}: branch target mismatch"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
enum Item {
    Insn {
        opcode: Opcode,
        operands: Vec<Operand>,
        target: Option<String>,
    },
    Bytes(Vec<u8>),
    Align(u32),
    /// Reserve n zero bytes.
    Block(u32),
    /// A CASEx displacement table: one word per target, each relative to
    /// the table's own start address (VAX CASE semantics).
    CaseTable(Vec<String>),
}

/// An assembled image.
#[derive(Debug, Clone)]
pub struct Image {
    /// Base virtual address.
    pub origin: u32,
    /// The machine code / data bytes.
    pub bytes: Vec<u8>,
    /// Label addresses.
    pub labels: HashMap<String, u32>,
}

impl Image {
    /// Address of a label.
    ///
    /// # Panics
    /// Panics if the label does not exist.
    pub fn addr_of(&self, label: &str) -> u32 {
        *self
            .labels
            .get(label)
            .unwrap_or_else(|| panic!("no such label `{label}`"))
    }

    /// End address (origin + length).
    pub fn end(&self) -> u32 {
        self.origin + self.bytes.len() as u32
    }
}

/// The result of pass 1.
struct Layout {
    labels: HashMap<String, u32>,
    /// Start address of each item.
    addrs: Vec<u32>,
    /// Address just past the last item.
    end: u32,
}

/// The two-pass assembler.
#[derive(Debug, Clone)]
pub struct Asm {
    origin: u32,
    items: Vec<Item>,
    /// Label name → item index at which it is defined.
    label_defs: Vec<(String, usize)>,
}

impl Asm {
    /// Start assembling at virtual address `origin`.
    pub fn new(origin: u32) -> Asm {
        Asm {
            origin,
            items: Vec::new(),
            label_defs: Vec::new(),
        }
    }

    /// Define a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        self.label_defs.push((name.to_string(), self.items.len()));
        self
    }

    /// Append an instruction. `target` supplies the branch-displacement
    /// label for opcodes that have one.
    pub fn insn(
        &mut self,
        opcode: Opcode,
        operands: &[Operand],
        target: Option<&str>,
    ) -> &mut Self {
        self.items.push(Item::Insn {
            opcode,
            operands: operands.to_vec(),
            target: target.map(str::to_string),
        });
        self
    }

    /// Append raw data bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.items.push(Item::Bytes(data.to_vec()));
        self
    }

    /// Append a longword constant.
    pub fn long(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Append a word constant.
    pub fn word(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Reserve `n` zero bytes.
    pub fn block(&mut self, n: u32) -> &mut Self {
        self.items.push(Item::Block(n));
        self
    }

    /// Align to a power-of-two boundary.
    pub fn align(&mut self, to: u32) -> &mut Self {
        assert!(to.is_power_of_two());
        self.items.push(Item::Align(to));
        self
    }

    /// Emit a CASEx displacement table (place immediately after the CASEx
    /// instruction). Each entry is a word displacement from the table start
    /// to the target label.
    pub fn case_table(&mut self, targets: &[&str]) -> &mut Self {
        self.items.push(Item::CaseTable(
            targets.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    fn item_len(item: &Item, at: u32) -> u32 {
        match item {
            Item::Insn {
                opcode, operands, ..
            } => {
                let mut len = 1u32;
                let mut oi = 0;
                for kind in opcode.operands() {
                    match kind {
                        OperandKind::Spec(_, dt) => {
                            // A count mismatch is reported in pass 2; size
                            // the missing operand as one byte meanwhile.
                            len += operands.get(oi).map_or(1, |o| o.encoded_len(dt.size()));
                            oi += 1;
                        }
                        OperandKind::Branch(w) => len += w.size(),
                    }
                }
                len
            }
            Item::Bytes(b) => b.len() as u32,
            Item::Block(n) => *n,
            Item::Align(to) => (to - (at % to)) % to,
            Item::CaseTable(targets) => 2 * targets.len() as u32,
        }
    }

    /// Pass 1: the address of every item, the label table, and the end
    /// address. Operand values play no part in item lengths, so this is
    /// the whole layout; pass 2 only encodes into it.
    fn layout(&self) -> Result<Layout, AsmError> {
        let mut labels: HashMap<String, u32> = HashMap::new();
        let mut addrs = Vec::with_capacity(self.items.len());
        let mut at = self.origin;
        let mut def_iter = self.label_defs.iter().peekable();
        for (i, item) in self.items.iter().enumerate() {
            while let Some((name, idx)) = def_iter.peek() {
                if *idx == i {
                    if labels.insert(name.clone(), at).is_some() {
                        return Err(AsmError::DuplicateLabel(name.clone()));
                    }
                    def_iter.next();
                } else {
                    break;
                }
            }
            addrs.push(at);
            at += Self::item_len(item, at);
        }
        // Labels at the very end.
        for (name, idx) in def_iter {
            if *idx == self.items.len() {
                if labels.insert(name.clone(), at).is_some() {
                    return Err(AsmError::DuplicateLabel(name.clone()));
                }
            } else {
                return Err(AsmError::DuplicateLabel(name.clone()));
            }
        }
        Ok(Layout {
            labels,
            addrs,
            end: at,
        })
    }

    /// The byte size [`Asm::assemble`] would produce, from pass 1 alone.
    /// Only layout errors (duplicate labels) are reported; everything pass
    /// 2 checks is left to `assemble`.
    ///
    /// # Errors
    /// [`AsmError::DuplicateLabel`].
    pub fn assembled_size(&self) -> Result<u32, AsmError> {
        Ok(self.layout()?.end - self.origin)
    }

    /// Run both passes and produce the image.
    ///
    /// # Errors
    /// Any [`AsmError`]: undefined/duplicate labels, operand count
    /// mismatches, out-of-range branch displacements.
    pub fn assemble(&self) -> Result<Image, AsmError> {
        let Layout { labels, addrs, .. } = self.layout()?;
        // Pass 2: encode.
        let mut bytes = Vec::new();
        for (i, item) in self.items.iter().enumerate() {
            let at = addrs[i];
            match item {
                Item::Bytes(b) => bytes.extend_from_slice(b),
                Item::Block(n) => bytes.extend(std::iter::repeat_n(0u8, *n as usize)),
                Item::Align(to) => {
                    let pad = (to - (at % to)) % to;
                    bytes.extend(std::iter::repeat_n(0u8, pad as usize));
                }
                Item::CaseTable(targets) => {
                    for name in targets {
                        let t = *labels
                            .get(name)
                            .ok_or_else(|| AsmError::UndefinedLabel(name.clone()))?;
                        let d = t as i64 - at as i64;
                        if !(-32768..=32767).contains(&d) {
                            return Err(AsmError::BranchOutOfRange {
                                opcode: "CASE table",
                                disp: d,
                            });
                        }
                        bytes.extend_from_slice(&(d as i16).to_le_bytes());
                    }
                }
                Item::Insn {
                    opcode,
                    operands,
                    target,
                } => {
                    let expected = opcode.specifier_count();
                    if operands.len() != expected {
                        return Err(AsmError::OperandCount {
                            opcode: opcode.mnemonic(),
                            expected,
                            got: operands.len(),
                        });
                    }
                    if target.is_some() != opcode.has_branch_disp() {
                        return Err(AsmError::BranchTarget(opcode.mnemonic()));
                    }
                    // Resolve specifiers with running PC.
                    let mut cursor = at + 1;
                    let mut specs = Vec::with_capacity(expected);
                    let mut oi = 0;
                    for kind in opcode.operands() {
                        match kind {
                            OperandKind::Spec(_, dt) => {
                                let enc = operands[oi].encoded_len(dt.size());
                                cursor += enc;
                                specs.push(operands[oi].resolve(&labels, cursor)?);
                                oi += 1;
                            }
                            OperandKind::Branch(w) => cursor += w.size(),
                        }
                    }
                    let disp = match target {
                        Some(name) => {
                            let t = *labels
                                .get(name)
                                .ok_or_else(|| AsmError::UndefinedLabel(name.clone()))?;
                            let insn_len = Self::item_len(item, at);
                            let d = t as i64 - (at + insn_len) as i64;
                            let ok = match opcode.operands().iter().find(|k| k.is_branch_disp()) {
                                Some(OperandKind::Branch(w)) if w.size() == 1 => {
                                    (-128..=127).contains(&d)
                                }
                                _ => (-32768..=32767).contains(&d),
                            };
                            if !ok {
                                return Err(AsmError::BranchOutOfRange {
                                    opcode: opcode.mnemonic(),
                                    disp: d,
                                });
                            }
                            Some(d as i32)
                        }
                        None => None,
                    };
                    let insn = Instruction::new(*opcode, specs, disp);
                    encode_into(&insn, &mut bytes);
                }
            }
        }
        Ok(Image {
            origin: self.origin,
            bytes,
            labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::decode;

    #[test]
    fn simple_program() {
        let mut asm = Asm::new(0x1000);
        asm.insn(
            Opcode::Movl,
            &[Operand::Imm(10), Operand::Reg(Reg::new(2))],
            None,
        );
        asm.label("loop");
        asm.insn(
            Opcode::Addl2,
            &[Operand::Lit(1), Operand::Reg(Reg::new(3))],
            None,
        );
        asm.insn(Opcode::Sobgtr, &[Operand::Reg(Reg::new(2))], Some("loop"));
        let img = asm.assemble().unwrap();
        assert_eq!(img.addr_of("loop"), 0x1000 + 7);
        // First instruction decodes back.
        let insn = decode(&img.bytes).unwrap();
        assert_eq!(insn.opcode, Opcode::Movl);
        // The SOB branch displacement points back at `loop`.
        let sob_off = 7 + 3;
        let sob = decode(&img.bytes[sob_off..]).unwrap();
        assert_eq!(sob.opcode, Opcode::Sobgtr);
        let sob_addr = 0x1000 + sob_off as u32;
        let target = (sob_addr + sob.len).wrapping_add(sob.branch_disp.unwrap() as u32);
        assert_eq!(target, img.addr_of("loop"));
    }

    #[test]
    fn forward_label_pc_relative() {
        let mut asm = Asm::new(0x2000);
        asm.insn(
            Opcode::Movl,
            &[Operand::Label("data".into()), Operand::Reg(Reg::new(1))],
            None,
        );
        asm.insn(Opcode::Halt, &[], None);
        asm.label("data");
        asm.long(0xDEADBEEF);
        let img = asm.assemble().unwrap();
        let insn = decode(&img.bytes).unwrap();
        // PC after first specifier = origin + 1 + 5; value + that = data.
        let pc_after: u32 = 0x2000 + 6;
        assert_eq!(
            pc_after.wrapping_add(insn.specifiers[0].value as u32),
            img.addr_of("data")
        );
    }

    #[test]
    fn alignment_and_blocks() {
        let mut asm = Asm::new(0x100);
        asm.bytes(&[1, 2, 3]);
        asm.align(4);
        asm.label("here");
        asm.block(8);
        let img = asm.assemble().unwrap();
        assert_eq!(img.addr_of("here"), 0x104);
        assert_eq!(img.bytes.len(), 12);
        assert_eq!(asm.assembled_size(), Ok(12));
    }

    #[test]
    fn errors() {
        let mut asm = Asm::new(0);
        asm.insn(Opcode::Brb, &[], Some("nowhere"));
        assert_eq!(
            asm.assemble().unwrap_err(),
            AsmError::UndefinedLabel("nowhere".into())
        );

        let mut asm2 = Asm::new(0);
        asm2.label("x").label("x");
        assert!(matches!(asm2.assemble(), Err(AsmError::DuplicateLabel(_))));

        let mut asm3 = Asm::new(0);
        asm3.insn(Opcode::Movl, &[Operand::Lit(1)], None);
        assert!(matches!(
            asm3.assemble(),
            Err(AsmError::OperandCount { .. })
        ));

        let mut asm4 = Asm::new(0);
        asm4.label("far");
        asm4.block(300);
        asm4.insn(Opcode::Brb, &[], Some("far"));
        assert!(matches!(
            asm4.assemble(),
            Err(AsmError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn indexed_operand() {
        let mut asm = Asm::new(0);
        asm.insn(
            Opcode::Movl,
            &[
                Operand::Indexed(Box::new(Operand::Deferred(Reg::new(1))), Reg::new(4)),
                Operand::Reg(Reg::new(0)),
            ],
            None,
        );
        let img = asm.assemble().unwrap();
        assert_eq!(img.bytes, vec![0xD0, 0x44, 0x61, 0x50]);
    }
}
