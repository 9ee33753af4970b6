//! Program container and the mini-assembler used by kernel generators.

use crate::encode::{encode, EncodeError};
use crate::instr::Instruction;
use crate::reg::XReg;
use std::collections::HashMap;
use std::fmt;

/// An opaque handle to a not-yet-resolved branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An executable program: a flat sequence of instructions, with branch
/// offsets expressed in instruction slots.
///
/// Programs are produced by [`ProgramBuilder`] and consumed directly by
/// the functional simulator (no encode/decode round trip on the hot
/// path). [`Program::encode`] lowers to machine words where possible.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    instrs: Vec<Instruction>,
    /// Source-level comments keyed by instruction index (debugging aid).
    comments: HashMap<usize, String>,
}

impl Program {
    /// Number of (static) instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at slot `pc`.
    pub fn fetch(&self, pc: usize) -> Option<&Instruction> {
        self.instrs.get(pc)
    }

    /// All instructions in order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Consumes the program, returning its instruction stream (comments
    /// are dropped).
    pub fn into_instructions(self) -> Vec<Instruction> {
        self.instrs
    }

    /// The comment attached at slot `pc`, if any.
    pub fn comment(&self, pc: usize) -> Option<&str> {
        self.comments.get(&pc).map(String::as_str)
    }

    /// Lowers the program to 32-bit machine words.
    ///
    /// # Errors
    ///
    /// Propagates [`EncodeError`] from the first non-encodable
    /// instruction (e.g. an `li` with a 64-bit constant).
    pub fn encode(&self) -> Result<Vec<u32>, EncodeError> {
        self.instrs.iter().map(encode).collect()
    }

    /// Counts instructions matching a predicate — handy in tests and
    /// reports ("how many vector loads does this kernel issue?").
    pub fn count<F: Fn(&Instruction) -> bool>(&self, pred: F) -> usize {
        self.instrs.iter().filter(|i| pred(i)).count()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, i) in self.instrs.iter().enumerate() {
            if let Some(c) = self.comment(pc) {
                writeln!(f, "                    # {c}")?;
            }
            writeln!(f, "{pc:6}:  {i}")?;
        }
        Ok(())
    }
}

/// Incremental program builder with label resolution.
///
/// # Example
///
/// ```
/// use indexmac_isa::{Instruction, ProgramBuilder, XReg};
///
/// let mut b = ProgramBuilder::new();
/// b.li(XReg::T0, 3);
/// let top = b.bind_label();           // loop head
/// b.push(Instruction::Addi { rd: XReg::T0, rs1: XReg::T0, imm: -1 });
/// b.bne(XReg::T0, XReg::ZERO, top);   // backward branch
/// b.halt();
/// let p = b.build();
/// assert_eq!(p.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instruction>,
    comments: HashMap<usize, String>,
    /// label -> bound slot (usize::MAX while unbound)
    labels: Vec<usize>,
    /// (slot of branch, label) fix-ups to patch at build time
    fixups: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instruction count (the slot the next `push` will use).
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: Instruction) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// Attaches a comment to the *next* pushed instruction.
    pub fn comment(&mut self, text: impl Into<String>) -> &mut Self {
        self.comments.insert(self.instrs.len(), text.into());
        self
    }

    /// Creates a fresh unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(usize::MAX);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert_eq!(self.labels[label.0], usize::MAX, "label bound twice");
        self.labels[label.0] = self.instrs.len();
    }

    /// Creates a label bound to the current position.
    pub fn bind_label(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    // ---- convenience emitters used throughout the kernel builders ----

    /// `li rd, imm`.
    pub fn li(&mut self, rd: XReg, imm: i64) -> &mut Self {
        self.push(Instruction::Li { rd, imm })
    }

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: XReg, rs1: XReg, imm: i32) -> &mut Self {
        self.push(Instruction::Addi { rd, rs1, imm })
    }

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.push(Instruction::Add { rd, rs1, rs2 })
    }

    /// `mv rd, rs`.
    pub fn mv(&mut self, rd: XReg, rs: XReg) -> &mut Self {
        self.push(Instruction::Mv { rd, rs })
    }

    /// `bne rs1, rs2, label` (offset patched at build time).
    pub fn bne(&mut self, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), target));
        self.push(Instruction::Bne {
            rs1,
            rs2,
            offset: 0,
        })
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), target));
        self.push(Instruction::Beq {
            rs1,
            rs2,
            offset: 0,
        })
    }

    /// `blt rs1, rs2, label`.
    pub fn blt(&mut self, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), target));
        self.push(Instruction::Blt {
            rs1,
            rs2,
            offset: 0,
        })
    }

    /// `ebreak` — terminate simulation.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instruction::Halt)
    }

    /// Finalises the program, resolving label fix-ups.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound (a builder bug in
    /// the caller, not a data-dependent condition).
    pub fn build(mut self) -> Program {
        for (slot, label) in &self.fixups {
            let bound = self.labels[label.0];
            assert_ne!(bound, usize::MAX, "branch references unbound label");
            let off = bound as i64 - *slot as i64;
            let patched = match self.instrs[*slot] {
                Instruction::Beq { rs1, rs2, .. } => Instruction::Beq {
                    rs1,
                    rs2,
                    offset: off as i32,
                },
                Instruction::Bne { rs1, rs2, .. } => Instruction::Bne {
                    rs1,
                    rs2,
                    offset: off as i32,
                },
                Instruction::Blt { rs1, rs2, .. } => Instruction::Blt {
                    rs1,
                    rs2,
                    offset: off as i32,
                },
                Instruction::Bge { rs1, rs2, .. } => Instruction::Bge {
                    rs1,
                    rs2,
                    offset: off as i32,
                },
                other => unreachable!("fixup on non-branch {other}"),
            };
            self.instrs[*slot] = patched;
        }
        Program {
            instrs: self.instrs,
            comments: self.comments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instruction;
    use crate::reg::VReg;

    #[test]
    fn builder_basic_flow() {
        let mut b = ProgramBuilder::new();
        b.li(XReg::T0, 10).addi(XReg::T0, XReg::T0, -1).halt();
        let p = b.build();
        assert_eq!(p.len(), 3);
        assert_eq!(p.fetch(2), Some(&Instruction::Halt));
        assert_eq!(p.fetch(3), None);
        assert!(!p.is_empty());
    }

    #[test]
    fn backward_branch_resolution() {
        let mut b = ProgramBuilder::new();
        b.li(XReg::T0, 3);
        let top = b.bind_label();
        b.addi(XReg::T0, XReg::T0, -1);
        b.bne(XReg::T0, XReg::ZERO, top);
        b.halt();
        let p = b.build();
        // Branch at slot 2 targets slot 1 -> offset -1.
        assert_eq!(
            p.fetch(2),
            Some(&Instruction::Bne {
                rs1: XReg::T0,
                rs2: XReg::ZERO,
                offset: -1
            })
        );
    }

    #[test]
    fn forward_branch_resolution() {
        let mut b = ProgramBuilder::new();
        let done = b.new_label();
        b.beq(XReg::T0, XReg::ZERO, done);
        b.li(XReg::T1, 42);
        b.bind(done);
        b.halt();
        let p = b.build();
        assert_eq!(
            p.fetch(0),
            Some(&Instruction::Beq {
                rs1: XReg::T0,
                rs2: XReg::ZERO,
                offset: 2
            })
        );
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bne(XReg::T0, XReg::ZERO, l);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn comments_attach_to_next_instruction() {
        let mut b = ProgramBuilder::new();
        b.comment("preload B tile");
        b.push(Instruction::Vle32 {
            vd: VReg::V16,
            rs1: XReg::A0,
        });
        b.halt();
        let p = b.build();
        assert_eq!(p.comment(0), Some("preload B tile"));
        assert_eq!(p.comment(1), None);
        let listing = p.to_string();
        assert!(listing.contains("# preload B tile"));
        assert!(listing.contains("vle32.v v16, (a0)"));
    }

    #[test]
    fn count_helper() {
        let mut b = ProgramBuilder::new();
        b.push(Instruction::Vle32 {
            vd: VReg::V1,
            rs1: XReg::A0,
        });
        b.push(Instruction::Vle32 {
            vd: VReg::V2,
            rs1: XReg::A0,
        });
        b.halt();
        let p = b.build();
        assert_eq!(p.count(|i| matches!(i, Instruction::Vle32 { .. })), 2);
    }

    #[test]
    fn encode_whole_program() {
        let mut b = ProgramBuilder::new();
        b.li(XReg::T0, 5); // fits addi
        b.push(Instruction::VindexmacVx {
            vd: VReg::V1,
            vs2: VReg::V2,
            rs: XReg::T0,
        });
        b.halt();
        let words = b.build().encode().unwrap();
        assert_eq!(words.len(), 3);
    }
}
