//! Static analyzer: prove µop programs fault-free before running them.
//!
//! [`analyze`] abstractly interprets an instruction stream and decides,
//! per instruction, whether any dynamic fault rule in [`crate::checks`]
//! could fire at run time: vtype dataflow (every vector µop dominated by
//! a `vsetvli` establishing a legal SEW/LMUL), register-group range and
//! widening-window alignment, `vindexmac` slot immediates vs VLMAX,
//! vector memory alignment, branch-target validity, and use-before-def.
//! Given an [`AnalysisContract`] describing a kernel's memory layout it
//! additionally bounds every unit-stride access to the layout's regions
//! and tracks *metadata classes* through registers (column-offset tables
//! and tile-register indices), which is what lets the fully dynamic
//! `vindexmac` kernels analyze clean.
//!
//! The result is a [`Vec<Diagnostic>`] (severity, confidence, pc, rule
//! id, fix hint). A program with **zero error-class diagnostics** earns
//! a [`Verified`] token, the record that it analyzed clean. The analyzer
//! runs off the simulation path: it backs the CLI `lint` subcommand, the
//! kernel builders' debug self-check after emission, and CI. The engine
//! keeps every dynamic check, so nothing it executes depends on a
//! verdict.
//!
//! # Soundness
//!
//! The analyzer is sound with respect to the interpreter: if it reports
//! no error-class diagnostic, the stepwise oracle cannot fault on the
//! program (it may still hit an instruction-count limit, which is a
//! resource bound rather than a fault). The converse is deliberately
//! approximate: some diagnostics are [`Confidence::Unprovable`] — the
//! analyzer could not rule the fault out but also cannot prove it fires.
//! Contract-derived facts (tables hold the values the contract claims)
//! are trusted, not re-derived from memory contents; the kernel layout
//! code is responsible for honouring its own contract.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use crate::checks::{
    check_branch_target, check_group, check_slot, check_widening_dst, group_aware, group_regs,
    widen_factor,
};
use crate::engine::DecodedProgram;
use indexmac_isa::{Instruction, Sew, VReg, VType, XReg};

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// Whether a diagnostic blocks the [`Verified`] token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A fault (or contract violation) the analyzer could not exclude;
    /// any error-class diagnostic denies verification.
    Error,
    /// A lint that cannot fault the interpreter (e.g. use-before-def of
    /// an architecturally-zero register); does not block verification.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// How certain the analyzer is that the reported condition occurs on
/// some execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Confidence {
    /// The condition definitely occurs if the instruction is reached
    /// (derived from exact constants).
    Proven,
    /// The analyzer lost precision (joined values, unknown registers)
    /// and must assume the worst; the concrete program may be fine.
    Unprovable,
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Confidence::Proven => "proven",
            Confidence::Unprovable => "unprovable",
        })
    }
}

/// Stable rule identifiers, one per legality condition the analyzer
/// checks. The `VAxxx` ids are what `indexmac-cli lint` prints and what
/// the README documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A vector µop is reachable with no dominating `vsetvli` pinning
    /// its SEW/LMUL.
    UnknownVtype,
    /// `vsetvli` selects an element width the datapath does not execute.
    UnsupportedSew,
    /// An operation's element width disagrees with the active SEW.
    IllegalSewForOp,
    /// `vl` may exceed the single-register VLMAX at an op without
    /// register-grouping semantics.
    GroupingUnsupported,
    /// A register group may run past `v31`.
    GroupOutOfRange,
    /// A widening accumulator group is misaligned or wider than `m4`.
    IllegalWidening,
    /// A `vindexmac.vvi` slot immediate may index beyond VLMAX.
    SlotOutOfRange,
    /// A vector memory access may be element-misaligned.
    UnalignedAccess,
    /// A branch target may be negative.
    PcOutOfRange,
    /// Execution may run past the last instruction without `ebreak`.
    FallsOffEnd,
    /// A unit-stride access may leave the contract's memory regions.
    OutOfBoundsAccess,
    /// A widening accumulator window may alias one of its sources.
    WideningOverlap,
    /// A register is read before any instruction defines it.
    UseBeforeDef,
}

impl Rule {
    /// Every rule, in id order (for documentation and tests).
    pub const ALL: [Rule; 13] = [
        Rule::UnknownVtype,
        Rule::UnsupportedSew,
        Rule::IllegalSewForOp,
        Rule::GroupingUnsupported,
        Rule::GroupOutOfRange,
        Rule::IllegalWidening,
        Rule::SlotOutOfRange,
        Rule::UnalignedAccess,
        Rule::PcOutOfRange,
        Rule::FallsOffEnd,
        Rule::OutOfBoundsAccess,
        Rule::WideningOverlap,
        Rule::UseBeforeDef,
    ];

    /// The stable `VAxxx` identifier.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnknownVtype => "VA001",
            Rule::UnsupportedSew => "VA002",
            Rule::IllegalSewForOp => "VA003",
            Rule::GroupingUnsupported => "VA004",
            Rule::GroupOutOfRange => "VA005",
            Rule::IllegalWidening => "VA006",
            Rule::SlotOutOfRange => "VA007",
            Rule::UnalignedAccess => "VA008",
            Rule::PcOutOfRange => "VA009",
            Rule::FallsOffEnd => "VA010",
            Rule::OutOfBoundsAccess => "VA011",
            Rule::WideningOverlap => "VA012",
            Rule::UseBeforeDef => "VA013",
        }
    }

    /// A one-line fix suggestion attached to every diagnostic.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::UnknownVtype => {
                "insert a vsetvli with explicit SEW/LMUL on every path to this instruction"
            }
            Rule::UnsupportedSew => "the datapath executes e8/e16/e32 only; pick a narrower SEW",
            Rule::IllegalSewForOp => {
                "re-issue vsetvli so the active SEW matches this operation's element width"
            }
            Rule::GroupingUnsupported => {
                "this op has single-register semantics; keep vl <= VLMAX or use a group-aware op"
            }
            Rule::GroupOutOfRange => {
                "choose a base register so the LMUL group fits at or below v31 \
                 (an AnalysisContract can bound indirect sources)"
            }
            Rule::IllegalWidening => {
                "align the widening accumulator base to 32/SEW and keep the group within m4"
            }
            Rule::SlotOutOfRange => {
                "slot immediates index a single metadata register; keep slot < VLMAX"
            }
            Rule::UnalignedAccess => {
                "vector accesses must be SEW-aligned; fix the base address or table stride"
            }
            Rule::PcOutOfRange => "branch targets must stay inside the program",
            Rule::FallsOffEnd => "end every path with ebreak",
            Rule::OutOfBoundsAccess => {
                "keep unit-stride accesses inside the contract's readable/writable regions"
            }
            Rule::WideningOverlap => {
                "widening accumulator windows must not alias their sources; move the destination"
            }
            Rule::UseBeforeDef => "initialize the register before its first use",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error (blocks [`Verified`]) or warning (lint only).
    pub severity: Severity,
    /// Whether the condition is proven to occur or merely not excluded.
    pub confidence: Confidence,
    /// Instruction slot the finding is anchored to.
    pub pc: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description with the concrete operands.
    pub message: String,
    /// Static fix suggestion for the rule.
    pub hint: &'static str,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {}] pc {}: {} (hint: {})",
            self.rule.id(),
            self.severity,
            self.confidence,
            self.pc,
            self.message,
            self.hint
        )
    }
}

// ---------------------------------------------------------------------------
// Contract
// ---------------------------------------------------------------------------

/// A table of byte offsets `{ k * stride | k < count }` living in
/// `region`, e.g. a kernel layout's column-offset array. Loading from
/// inside `region` at e32 classes the destination lanes as members of
/// this set, which is how dynamically computed B-row addresses get
/// bounded statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetTable {
    /// Byte range holding the table (including any padding entries).
    pub region: Range<u64>,
    /// Distance in bytes between consecutive offset values.
    pub stride: u64,
    /// Number of distinct offset values (`k < count`).
    pub count: u64,
}

/// A table of vector-register indices in `[min, max]` stored at element
/// width `elem` inside `region` — the layout's column-register array.
/// Loading from it bounds the indirect source of `vindexmac`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VregTable {
    /// Byte range holding the table (including any padding entries).
    pub region: Range<u64>,
    /// Element width the indices are stored at.
    pub elem: Sew,
    /// Smallest index the table can contain.
    pub min: u8,
    /// Largest index the table can contain (inclusive).
    pub max: u8,
}

/// Layout facts a kernel builder asserts about its program's memory
/// traffic. The analyzer *trusts* these (it cannot read memory); the
/// layout code that writes the operand arrays is responsible for making
/// them true.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisContract {
    /// Bytes any vector load may touch.
    pub readable: Range<u64>,
    /// Bytes vector stores must stay within.
    pub writable: Range<u64>,
    /// Loads entirely below this address read architectural zeros (the
    /// slide-padding convention: address 0 is a legal "no data" source).
    pub zero_page: u64,
    /// The column-offset table, if the layout has one.
    pub offset_table: Option<OffsetTable>,
    /// The column-vreg-index table, if the layout has one.
    pub vreg_table: Option<VregTable>,
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Proof that a specific program (by length) analyzed with zero
/// error-class diagnostics at a specific VLEN. Only this module can
/// mint one. It records a clean verdict; it does not change how the
/// engine runs the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verified {
    program_len: usize,
    vlen_bits: usize,
}

impl Verified {
    /// Length of the instruction stream the proof covers.
    pub fn program_len(self) -> usize {
        self.program_len
    }

    /// VLEN the proof was established at (group bounds depend on it).
    pub fn vlen_bits(self) -> usize {
        self.vlen_bits
    }
}

/// The full analyzer output for one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    diagnostics: Vec<Diagnostic>,
    program_len: usize,
    vlen_bits: usize,
}

impl Analysis {
    /// All findings, ordered by pc.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Whether no error-class diagnostic was reported (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-class findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-class findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// The clean-verdict token, minted only for clean programs.
    pub fn verified(&self) -> Option<Verified> {
        if self.is_clean() {
            Some(Verified {
                program_len: self.program_len,
                vlen_bits: self.vlen_bits,
            })
        } else {
            None
        }
    }
}

/// Analyze a decoded program without layout knowledge (contract-free:
/// memory-bounds rules are skipped, metadata classes never form).
pub fn analyze(program: &DecodedProgram, vlen_bits: usize) -> Analysis {
    analyze_instructions(program.instructions(), vlen_bits, None)
}

/// Analyze a decoded program against a kernel layout contract.
pub fn analyze_with_contract(
    program: &DecodedProgram,
    vlen_bits: usize,
    contract: Option<&AnalysisContract>,
) -> Analysis {
    analyze_instructions(program.instructions(), vlen_bits, contract)
}

/// Analyze a raw instruction stream (what kernel builders call post-emit,
/// before decoding).
pub fn analyze_instructions(
    instrs: &[Instruction],
    vlen_bits: usize,
    contract: Option<&AnalysisContract>,
) -> Analysis {
    let mut az = Analyzer {
        instrs,
        vlen_bits,
        contract,
        join_pc: Vec::new(),
        states: HashMap::new(),
    };
    let diagnostics = az.run();
    Analysis {
        diagnostics,
        program_len: instrs.len(),
        vlen_bits,
    }
}

// ---------------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------------

/// Abstract scalar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AVal {
    /// Exactly this 64-bit value.
    Const(u64),
    /// A member of `{ add + k * stride | k < count }` for the contract's
    /// offset table (plus 0 if `or_zero` — the slide-padding value).
    Offset { add: u64, or_zero: bool },
    /// A member of `[min, max]` of the contract's vreg table (plus 0 if
    /// `or_zero`).
    VregIdx { or_zero: bool },
    /// Anything.
    Any,
}

/// Abstract per-lane class of a vector register. `lanes` is how many
/// leading lanes (at the class's element width) the claim covers;
/// beyond that the content is unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VClass {
    /// Lanes hold offset-table members (`add` added on top), each
    /// possibly 0 when `or_zero`.
    Offsets {
        add: u64,
        or_zero: bool,
        lanes: usize,
    },
    /// Lanes hold vreg-table indices at width `sew`, each possibly 0.
    VregIdxs {
        sew: Sew,
        or_zero: bool,
        lanes: usize,
    },
    /// Anything.
    Any,
}

/// Abstract vtype: either exactly the given configuration or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVtype {
    Known(VType),
    Unknown,
}

/// Abstract vl. The bound is always finite because `vsetvli` clamps to
/// VLMAX and nothing else writes vl.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVl {
    Const(usize),
    AtMost(usize),
}

impl AbsVl {
    fn bound(self) -> usize {
        match self {
            AbsVl::Const(c) | AbsVl::AtMost(c) => c,
        }
    }

    fn as_const(self) -> Option<usize> {
        match self {
            AbsVl::Const(c) => Some(c),
            AbsVl::AtMost(_) => None,
        }
    }
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq)]
struct AbsState {
    x: [AVal; 32],
    v: [VClass; 32],
    x_def: u32,
    f_def: u32,
    v_def: u32,
    vtype: AbsVtype,
    vl: AbsVl,
}

impl AbsState {
    /// The interpreter's reset state: all registers architecturally
    /// zero (so `x` is exactly `Const(0)`), vtype e32/m1, vl = VLMAX.
    fn entry(vlen_bits: usize) -> Self {
        AbsState {
            x: [AVal::Const(0); 32],
            v: [VClass::Any; 32],
            x_def: 1, // x0 is always defined
            f_def: 0,
            v_def: 0,
            vtype: AbsVtype::Known(VType {
                sew: Sew::E32,
                lmul: indexmac_isa::Lmul::M1,
            }),
            vl: AbsVl::Const(vlen_bits / 32),
        }
    }

    /// In-place join; returns whether `self` changed. Monotone with
    /// finite chains, so fixpoint iteration terminates.
    fn join(&mut self, other: &AbsState) -> bool {
        let mut changed = false;
        for i in 0..32 {
            let j = join_aval(self.x[i], other.x[i]);
            if j != self.x[i] {
                self.x[i] = j;
                changed = true;
            }
            let j = join_vclass(self.v[i], other.v[i]);
            if j != self.v[i] {
                self.v[i] = j;
                changed = true;
            }
        }
        let masks = [
            (&mut self.x_def, other.x_def),
            (&mut self.f_def, other.f_def),
            (&mut self.v_def, other.v_def),
        ];
        for (m, o) in masks {
            let j = *m & o;
            if j != *m {
                *m = j;
                changed = true;
            }
        }
        let jt = match (self.vtype, other.vtype) {
            (AbsVtype::Known(a), AbsVtype::Known(b)) if a == b => self.vtype,
            _ => AbsVtype::Unknown,
        };
        if jt != self.vtype {
            self.vtype = jt;
            changed = true;
        }
        let jv = match (self.vl, other.vl) {
            (AbsVl::Const(a), AbsVl::Const(b)) if a == b => self.vl,
            (a, b) => AbsVl::AtMost(a.bound().max(b.bound())),
        };
        if jv != self.vl {
            self.vl = jv;
            changed = true;
        }
        changed
    }
}

fn join_aval(a: AVal, b: AVal) -> AVal {
    match (a, b) {
        (AVal::Const(x), AVal::Const(y)) if x == y => a,
        (
            AVal::Offset {
                add: x,
                or_zero: za,
            },
            AVal::Offset {
                add: y,
                or_zero: zb,
            },
        ) if x == y => AVal::Offset {
            add: x,
            or_zero: za | zb,
        },
        (AVal::VregIdx { or_zero: za }, AVal::VregIdx { or_zero: zb }) => {
            AVal::VregIdx { or_zero: za | zb }
        }
        _ => AVal::Any,
    }
}

fn join_vclass(a: VClass, b: VClass) -> VClass {
    match (a, b) {
        (
            VClass::Offsets {
                add: x,
                or_zero: za,
                lanes: la,
            },
            VClass::Offsets {
                add: y,
                or_zero: zb,
                lanes: lb,
            },
        ) if x == y => VClass::Offsets {
            add: x,
            or_zero: za | zb,
            lanes: la.min(lb),
        },
        (
            VClass::VregIdxs {
                sew: sa,
                or_zero: za,
                lanes: la,
            },
            VClass::VregIdxs {
                sew: sb,
                or_zero: zb,
                lanes: lb,
            },
        ) if sa == sb => VClass::VregIdxs {
            sew: sa,
            or_zero: za | zb,
            lanes: la.min(lb),
        },
        _ => VClass::Any,
    }
}

/// How many registers a grouped operand spans: exact when vl and vtype
/// are exact, otherwise an upper bound (capped by the architectural
/// invariant `vl <= VLMAX * LMUL`, hence at most 4 registers).
#[derive(Debug, Clone, Copy)]
struct Groups {
    exact: Option<usize>,
    max: usize,
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Diagnostic collector for one pc. The fixpoint pass runs with a
/// disabled sink (no allocation); the report pass enables it. The first
/// error at a pc kills later findings there, so the leading diagnostic
/// names the same rule the interpreter would fault with.
struct Sink<'a> {
    out: Option<&'a mut Vec<Diagnostic>>,
    pc: usize,
    dead: bool,
}

impl<'a> Sink<'a> {
    fn disabled() -> Sink<'a> {
        Sink {
            out: None,
            pc: 0,
            dead: false,
        }
    }

    fn enabled(pc: usize, out: &'a mut Vec<Diagnostic>) -> Sink<'a> {
        Sink {
            out: Some(out),
            pc,
            dead: false,
        }
    }

    fn is_enabled(&self) -> bool {
        self.out.is_some()
    }

    fn emit(
        &mut self,
        severity: Severity,
        confidence: Confidence,
        rule: Rule,
        msg: impl FnOnce() -> String,
    ) {
        if self.dead {
            return;
        }
        if severity == Severity::Error {
            self.dead = true;
        }
        let pc = self.pc;
        if let Some(out) = self.out.as_deref_mut() {
            out.push(Diagnostic {
                severity,
                confidence,
                pc,
                rule,
                message: msg(),
                hint: rule.hint(),
            });
        }
    }
}

/// One outgoing control edge; `sure` means the edge is taken whenever
/// the instruction executes (unconditional, or a folded branch).
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: i64,
    sure: bool,
}

struct Analyzer<'a> {
    instrs: &'a [Instruction],
    vlen_bits: usize,
    contract: Option<&'a AnalysisContract>,
    /// Pcs where incoming paths merge (>= 2 static predecessors or the
    /// target of a backward edge); only these store a state.
    join_pc: Vec<bool>,
    states: HashMap<usize, AbsState>,
}

impl<'a> Analyzer<'a> {
    fn run(&mut self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if self.instrs.is_empty() {
            out.push(Diagnostic {
                severity: Severity::Error,
                confidence: Confidence::Proven,
                pc: 0,
                rule: Rule::FallsOffEnd,
                message: "empty program: the first fetch already falls off the end".into(),
                hint: Rule::FallsOffEnd.hint(),
            });
            return out;
        }
        self.find_joins();
        self.fixpoint();
        self.report(&mut out);
        out.sort_by_key(|d| d.pc);
        out
    }

    /// Mark merge points from the *static* edge set (no folding): a pc
    /// with two or more predecessors, or the target of any backward
    /// edge (which is what makes fixpoint iteration terminate on
    /// loops). The entry pc counts one implicit predecessor.
    fn find_joins(&mut self) {
        let len = self.instrs.len();
        self.join_pc = vec![false; len];
        let mut preds = vec![0u32; len];
        preds[0] = 1;
        for (pc, instr) in self.instrs.iter().enumerate() {
            for e in self.static_edges(pc, instr).into_iter().flatten() {
                if (0..len as i64).contains(&e.target) {
                    let t = e.target as usize;
                    preds[t] = preds[t].saturating_add(1);
                    if e.target <= pc as i64 {
                        self.join_pc[t] = true;
                    }
                }
            }
        }
        for (pc, p) in preds.iter().enumerate() {
            if *p >= 2 {
                self.join_pc[pc] = true;
            }
        }
    }

    /// Outgoing edges ignoring operand values (used only for join
    /// detection, so folding would merely add storage, never miss a
    /// merge). Equal branch targets are deduplicated — the kernels'
    /// timing-only `bne` to the next instruction must not force a join
    /// at every loop step.
    fn static_edges(&self, pc: usize, instr: &Instruction) -> [Option<Edge>; 2] {
        match instr.branch_offset() {
            _ if matches!(instr, Instruction::Halt) => [None, None],
            Some(offset) => {
                let taken = Edge {
                    target: pc as i64 + offset as i64,
                    sure: false,
                };
                // A jump is unconditional; a branch whose taken target
                // *is* the fall-through has only one successor too.
                if matches!(instr, Instruction::Jal { .. }) || taken.target == pc as i64 + 1 {
                    [
                        Some(Edge {
                            sure: true,
                            ..taken
                        }),
                        None,
                    ]
                } else {
                    [
                        Some(taken),
                        Some(Edge {
                            target: pc as i64 + 1,
                            sure: false,
                        }),
                    ]
                }
            }
            None => [
                Some(Edge {
                    target: pc as i64 + 1,
                    sure: true,
                }),
                None,
            ],
        }
    }

    /// Outgoing edges with constant branch operands folded.
    fn dyn_edges(&self, pc: usize, instr: &Instruction, st: &AbsState) -> [Option<Edge>; 2] {
        use Instruction as I;
        let cond = |taken: Option<bool>, offset: i32| -> [Option<Edge>; 2] {
            let t = pc as i64 + offset as i64;
            let fall = pc as i64 + 1;
            match taken {
                Some(true) => [
                    Some(Edge {
                        target: t,
                        sure: true,
                    }),
                    None,
                ],
                Some(false) => [
                    Some(Edge {
                        target: fall,
                        sure: true,
                    }),
                    None,
                ],
                None if t == fall => [
                    Some(Edge {
                        target: fall,
                        sure: true,
                    }),
                    None,
                ],
                None => [
                    Some(Edge {
                        target: t,
                        sure: false,
                    }),
                    Some(Edge {
                        target: fall,
                        sure: false,
                    }),
                ],
            }
        };
        let fold = |rs1: XReg, rs2: XReg, f: fn(u64, u64) -> bool| -> Option<bool> {
            match (get_x(st, rs1), get_x(st, rs2)) {
                (AVal::Const(a), AVal::Const(b)) => Some(f(a, b)),
                _ => None,
            }
        };
        match *instr {
            I::Halt => [None, None],
            I::Jal { offset, .. } => [
                Some(Edge {
                    target: pc as i64 + offset as i64,
                    sure: true,
                }),
                None,
            ],
            I::Beq { rs1, rs2, offset } => cond(fold(rs1, rs2, |a, b| a == b), offset),
            I::Bne { rs1, rs2, offset } => cond(fold(rs1, rs2, |a, b| a != b), offset),
            I::Blt { rs1, rs2, offset } => {
                cond(fold(rs1, rs2, |a, b| (a as i64) < (b as i64)), offset)
            }
            I::Bge { rs1, rs2, offset } => {
                cond(fold(rs1, rs2, |a, b| (a as i64) >= (b as i64)), offset)
            }
            _ => [
                Some(Edge {
                    target: pc as i64 + 1,
                    sure: true,
                }),
                None,
            ],
        }
    }

    /// Pass 1: propagate abstract states to a fixpoint. Only join pcs
    /// store a state; straight-line runs are walked in place, so the
    /// fully unrolled kernels (no real merges) store nothing at all.
    fn fixpoint(&mut self) {
        let len = self.instrs.len();
        let mut work: Vec<(usize, AbsState)> = vec![(0, AbsState::entry(self.vlen_bits))];
        let mut sink = Sink::disabled();
        while let Some((start, start_st)) = work.pop() {
            let mut pc = start;
            let mut st = start_st;
            loop {
                if self.join_pc[pc] {
                    match self.states.get_mut(&pc) {
                        Some(stored) => {
                            if !stored.join(&st) {
                                break;
                            }
                            st = stored.clone();
                        }
                        None => {
                            self.states.insert(pc, st.clone());
                        }
                    }
                }
                let instr = self.instrs[pc];
                self.transfer(pc, &instr, &mut st, &mut sink);
                let mut next = None;
                for e in self.dyn_edges(pc, &instr, &st).into_iter().flatten() {
                    if !(0..len as i64).contains(&e.target) {
                        continue;
                    }
                    let t = e.target as usize;
                    if next.is_none() {
                        next = Some(t);
                    } else {
                        work.push((t, st.clone()));
                    }
                }
                match next {
                    Some(t) => pc = t,
                    None => break,
                }
            }
        }
    }

    /// Pass 2: re-walk every reachable pc exactly once with its
    /// fixpoint state and emit diagnostics (including edge diagnostics:
    /// negative targets and falling off the end).
    fn report(&mut self, out: &mut Vec<Diagnostic>) {
        let len = self.instrs.len();
        let mut visited = vec![false; len];
        let mut work: Vec<(usize, AbsState)> = vec![(0, AbsState::entry(self.vlen_bits))];
        while let Some((start, start_st)) = work.pop() {
            let mut pc = start;
            let mut st = start_st;
            loop {
                if visited[pc] {
                    break;
                }
                visited[pc] = true;
                if self.join_pc[pc] {
                    if let Some(stored) = self.states.get(&pc) {
                        st = stored.clone();
                    }
                }
                let instr = self.instrs[pc];
                let mut sink = Sink::enabled(pc, out);
                self.transfer(pc, &instr, &mut st, &mut sink);
                let mut next = None;
                for e in self.dyn_edges(pc, &instr, &st).into_iter().flatten() {
                    let conf = if e.sure {
                        Confidence::Proven
                    } else {
                        Confidence::Unprovable
                    };
                    if check_branch_target(e.target).is_err() {
                        let t = e.target;
                        sink.emit(Severity::Error, conf, Rule::PcOutOfRange, || {
                            format!("control transfer to negative slot {t}")
                        });
                    } else if e.target as usize >= len {
                        let t = e.target;
                        sink.emit(Severity::Error, conf, Rule::FallsOffEnd, || {
                            format!("control reaches slot {t} past the last instruction")
                        });
                    } else {
                        let t = e.target as usize;
                        if next.is_none() {
                            next = Some(t);
                        } else if !visited[t] {
                            work.push((t, st.clone()));
                        }
                    }
                }
                match next {
                    Some(t) => pc = t,
                    None => break,
                }
            }
        }
    }

    /// Single-register VLMAX lower bound for the current abstract vtype
    /// (the tightest capacity any possible SEW could have).
    fn vlmax_single_min(&self, st: &AbsState) -> usize {
        match st.vtype {
            AbsVtype::Known(vt) => self.vlen_bits / vt.sew.bits(),
            AbsVtype::Unknown => self.vlen_bits / 32,
        }
    }

    fn cur_sew(&self, st: &AbsState) -> Option<Sew> {
        match st.vtype {
            AbsVtype::Known(vt) => Some(vt.sew),
            AbsVtype::Unknown => None,
        }
    }

    /// Abstract register-group width for group-aware operands.
    fn groups(&self, st: &AbsState) -> Groups {
        match (st.vtype, st.vl) {
            (AbsVtype::Known(vt), AbsVl::Const(c)) => {
                let r = group_regs(c, self.vlen_bits / vt.sew.bits());
                Groups {
                    exact: Some(r),
                    max: r,
                }
            }
            (AbsVtype::Known(vt), AbsVl::AtMost(b)) => {
                // vl <= VLMAX*LMUL always holds concretely for the
                // current vtype, so LMUL also bounds the group.
                let m = group_regs(b, self.vlen_bits / vt.sew.bits()).min(vt.lmul.factor());
                Groups {
                    exact: (m == 1).then_some(1),
                    max: m,
                }
            }
            (AbsVtype::Unknown, vl) => {
                let m = group_regs(vl.bound(), self.vlen_bits / 32).min(4);
                Groups {
                    exact: (m == 1).then_some(1),
                    max: m,
                }
            }
        }
    }
}

fn get_x(st: &AbsState, r: XReg) -> AVal {
    if r.is_zero() {
        AVal::Const(0)
    } else {
        st.x[r.index() as usize]
    }
}

fn set_x(st: &mut AbsState, r: XReg, v: AVal) {
    if !r.is_zero() {
        st.x[r.index() as usize] = v;
        st.x_def |= 1 << r.index();
    }
}

fn aval_add(a: AVal, b: AVal) -> AVal {
    match (a, b) {
        (AVal::Const(x), AVal::Const(y)) => AVal::Const(x.wrapping_add(y)),
        (
            AVal::Offset {
                add,
                or_zero: false,
            },
            AVal::Const(c),
        )
        | (
            AVal::Const(c),
            AVal::Offset {
                add,
                or_zero: false,
            },
        ) => AVal::Offset {
            add: add.wrapping_add(c),
            or_zero: false,
        },
        _ => AVal::Any,
    }
}

fn aval_sub(a: AVal, b: AVal) -> AVal {
    match (a, b) {
        (AVal::Const(x), AVal::Const(y)) => AVal::Const(x.wrapping_sub(y)),
        (
            AVal::Offset {
                add,
                or_zero: false,
            },
            AVal::Const(c),
        ) => AVal::Offset {
            add: add.wrapping_sub(c),
            or_zero: false,
        },
        _ => AVal::Any,
    }
}

fn aval_mul(a: AVal, b: AVal) -> AVal {
    match (a, b) {
        (AVal::Const(x), AVal::Const(y)) => AVal::Const(x.wrapping_mul(y)),
        _ => AVal::Any,
    }
}

// ---------------------------------------------------------------------------
// Transfer functions
// ---------------------------------------------------------------------------

impl<'a> Analyzer<'a> {
    /// Abstractly execute one instruction, mirroring the check order of
    /// [`crate::exec::step`] so the first diagnostic at a pc names the
    /// rule the interpreter would fault with.
    fn transfer(&self, pc: usize, instr: &Instruction, st: &mut AbsState, sink: &mut Sink) {
        use Instruction as I;
        if sink.is_enabled() {
            self.use_before_def(instr, st, sink);
        }
        // The grouping gate fires first for every vector op without
        // register-grouping semantics, exactly as in the interpreter.
        if instr.is_vector() && !group_aware(instr) {
            let vlmax = self.vlmax_single_min(st);
            let bound = st.vl.bound();
            if crate::checks::check_grouping_supported(pc, bound, vlmax).is_err() {
                let conf =
                    if matches!(st.vl, AbsVl::Const(_)) && matches!(st.vtype, AbsVtype::Known(_)) {
                        Confidence::Proven
                    } else {
                        Confidence::Unprovable
                    };
                sink.emit(
                    Severity::Error,
                    conf,
                    Rule::GroupingUnsupported,
                    move || {
                        format!(
                            "vl may reach {bound} > single-register VLMAX {vlmax} \
                         at an op without grouping semantics"
                        )
                    },
                );
            }
        }
        match *instr {
            I::Li { rd, imm } => set_x(st, rd, AVal::Const(imm as u64)),
            I::Mv { rd, rs } => {
                let v = get_x(st, rs);
                set_x(st, rd, v);
            }
            I::Addi { rd, rs1, imm } => {
                let v = aval_add(get_x(st, rs1), AVal::Const(imm as i64 as u64));
                set_x(st, rd, v);
            }
            I::Add { rd, rs1, rs2 } => {
                let v = aval_add(get_x(st, rs1), get_x(st, rs2));
                set_x(st, rd, v);
            }
            I::Sub { rd, rs1, rs2 } => {
                let v = aval_sub(get_x(st, rs1), get_x(st, rs2));
                set_x(st, rd, v);
            }
            I::Mul { rd, rs1, rs2 } => {
                let v = aval_mul(get_x(st, rs1), get_x(st, rs2));
                set_x(st, rd, v);
            }
            I::Slli { rd, rs1, shamt } => {
                let v = match get_x(st, rs1) {
                    AVal::Const(c) => AVal::Const(c << (shamt & 63)),
                    _ => AVal::Any,
                };
                set_x(st, rd, v);
            }
            I::Srli { rd, rs1, shamt } => {
                let v = match get_x(st, rs1) {
                    AVal::Const(c) => AVal::Const(c >> (shamt & 63)),
                    _ => AVal::Any,
                };
                set_x(st, rd, v);
            }
            I::Lw { rd, .. } | I::Lwu { rd, .. } | I::Ld { rd, .. } => set_x(st, rd, AVal::Any),
            I::Flw { fd, .. } => st.f_def |= 1 << fd.index(),
            I::Sw { .. } | I::Sd { .. } | I::Nop | I::Halt => {}
            I::Beq { .. } | I::Bne { .. } | I::Blt { .. } | I::Bge { .. } => {}
            I::Jal { rd, .. } => set_x(st, rd, AVal::Const((pc + 1) as u64)),
            I::Vsetvli { rd, rs1, sew, lmul } => self.vsetvli(pc, st, sink, rd, rs1, sew, lmul),
            I::Vle8 { vd, rs1 } => self.vload(pc, st, sink, vd, rs1, Sew::E8),
            I::Vle16 { vd, rs1 } => self.vload(pc, st, sink, vd, rs1, Sew::E16),
            I::Vle32 { vd, rs1 } => self.vload(pc, st, sink, vd, rs1, Sew::E32),
            I::Vse8 { vs3, rs1 } => self.vstore(pc, st, sink, vs3, rs1, Sew::E8),
            I::Vse16 { vs3, rs1 } => self.vstore(pc, st, sink, vs3, rs1, Sew::E16),
            I::Vse32 { vs3, rs1 } => self.vstore(pc, st, sink, vs3, rs1, Sew::E32),
            I::VaddVx { vd, vs2, rs1 } => {
                let cls = self.offset_add_class(st, vd, vs2, get_x(st, rs1));
                self.write_v1(st, vd, cls);
            }
            I::VaddVi { vd, vs2, imm } => {
                let cls = self.offset_add_class(st, vd, vs2, AVal::Const(imm as i64 as u64));
                self.write_v1(st, vd, cls);
            }
            I::VaddVv { vd, .. }
            | I::VmulVv { vd, .. }
            | I::VmulVx { vd, .. }
            | I::VmaccVx { vd, .. }
            | I::VmvVx { vd, .. } => self.write_v1(st, vd, VClass::Any),
            I::VmvVv { vd, vs1 } => {
                let cls = self.copy_class(st, vd, vs1);
                self.write_v1(st, vd, cls);
            }
            I::VfaddVv { vd, .. }
            | I::VfmulVv { vd, .. }
            | I::VfmaccVf { vd, .. }
            | I::VfmaccVv { vd, .. } => {
                self.check_e32(pc, st, sink);
                self.write_v1(st, vd, VClass::Any);
            }
            I::VfmvFs { fd, .. } => {
                self.check_e32(pc, st, sink);
                st.f_def |= 1 << fd.index();
            }
            I::VmvSx { vd, rs1 } => {
                let cls = if get_x(st, rs1) == AVal::Const(0) {
                    // Writing a zero at lane 0 keeps a class intact iff
                    // the write granularity covers the class granularity
                    // (a partial zero write would corrupt lane 0).
                    match (st.v[vd.index() as usize], self.cur_sew(st)) {
                        (VClass::Offsets { add, lanes, .. }, Some(Sew::E32)) => VClass::Offsets {
                            add,
                            or_zero: true,
                            lanes,
                        },
                        (VClass::VregIdxs { sew, lanes, .. }, Some(cur))
                            if cur.bits() >= sew.bits() =>
                        {
                            VClass::VregIdxs {
                                sew,
                                or_zero: true,
                                lanes,
                            }
                        }
                        _ => VClass::Any,
                    }
                } else {
                    VClass::Any
                };
                self.write_v1(st, vd, cls);
            }
            I::VmvXs { rd, vs2 } => {
                let v = match st.v[vs2.index() as usize] {
                    // Sign extension at the read SEW must be a no-op for
                    // the extracted value to stay a set member.
                    VClass::Offsets {
                        add,
                        or_zero,
                        lanes,
                    } if lanes >= 1
                        && self.cur_sew(st) == Some(Sew::E32)
                        && self.offset_max(add) < (1 << 31) =>
                    {
                        AVal::Offset { add, or_zero }
                    }
                    VClass::VregIdxs {
                        sew,
                        or_zero,
                        lanes,
                    } if lanes >= 1
                        && self.cur_sew(st) == Some(sew)
                        && u32::from(self.vreg_max()) < (1u32 << (sew.bits() - 1)) =>
                    {
                        AVal::VregIdx { or_zero }
                    }
                    _ => AVal::Any,
                };
                set_x(st, rd, v);
            }
            I::Vslide1downVx { vd, vs2, rs1 } => {
                let cls = if get_x(st, rs1) == AVal::Const(0) {
                    self.slide_class(st, vd, vs2)
                } else {
                    VClass::Any
                };
                self.write_v1(st, vd, cls);
            }
            I::VslidedownVi { vd, vs2, imm } => {
                let cls = self.slidedown_class(st, vd, vs2, imm as usize);
                self.write_v1(st, vd, cls);
            }
            I::VindexmacVx { vd, vs2, rs } => self.vindexmac_vx(pc, st, sink, vd, vs2, rs),
            I::VindexmacVvi { vd, vs2, vs1, slot } => {
                self.vindexmac_vvi(pc, st, sink, vd, vs2, vs1, slot);
            }
        }
    }

    fn use_before_def(&self, instr: &Instruction, st: &AbsState, sink: &mut Sink) {
        for r in instr.x_srcs().into_iter().flatten() {
            if st.x_def & (1u32 << r.index()) == 0 {
                sink.emit(
                    Severity::Warning,
                    Confidence::Unprovable,
                    Rule::UseBeforeDef,
                    move || format!("{r} read before any definition"),
                );
            }
        }
        if let Some(f) = instr.f_src() {
            if st.f_def & (1u32 << f.index()) == 0 {
                sink.emit(
                    Severity::Warning,
                    Confidence::Unprovable,
                    Rule::UseBeforeDef,
                    move || format!("f{} read before any definition", f.index()),
                );
            }
        }
        for v in instr.v_srcs().into_iter().flatten() {
            if st.v_def & (1u32 << v.index()) == 0 {
                sink.emit(
                    Severity::Warning,
                    Confidence::Unprovable,
                    Rule::UseBeforeDef,
                    move || format!("{v} read before any definition"),
                );
            }
        }
    }

    fn check_e32(&self, pc: usize, st: &AbsState, sink: &mut Sink) {
        match self.cur_sew(st) {
            Some(s) => {
                if crate::checks::check_e32_only(pc, s).is_err() {
                    sink.emit(
                        Severity::Error,
                        Confidence::Proven,
                        Rule::IllegalSewForOp,
                        move || format!("float op at sew e{}; e32 required", s.bits()),
                    );
                }
            }
            None => sink.emit(
                Severity::Error,
                Confidence::Unprovable,
                Rule::UnknownVtype,
                || "float op with no dominating vsetvli".into(),
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn vsetvli(
        &self,
        pc: usize,
        st: &mut AbsState,
        sink: &mut Sink,
        rd: XReg,
        rs1: XReg,
        sew: Sew,
        lmul: indexmac_isa::Lmul,
    ) {
        if crate::checks::check_sew_supported(pc, sew).is_err() {
            sink.emit(
                Severity::Error,
                Confidence::Proven,
                Rule::UnsupportedSew,
                || "vsetvli selects e64, which the datapath does not execute".into(),
            );
            st.vtype = AbsVtype::Unknown;
            return;
        }
        let vlmax_g = lmul.factor() * self.vlen_bits / sew.bits();
        let vl = if rs1.is_zero() {
            if rd.is_zero() {
                // Keep vl, clamped to the new VLMAX (the oracle's rule).
                match st.vl {
                    AbsVl::Const(c) => AbsVl::Const(c.min(vlmax_g)),
                    AbsVl::AtMost(b) => AbsVl::AtMost(b.min(vlmax_g)),
                }
            } else {
                AbsVl::Const(vlmax_g)
            }
        } else {
            match get_x(st, rs1) {
                AVal::Const(c) => AbsVl::Const(c.min(vlmax_g as u64) as usize),
                _ => AbsVl::AtMost(vlmax_g),
            }
        };
        st.vtype = AbsVtype::Known(VType { sew, lmul });
        st.vl = vl;
        let out = match vl {
            AbsVl::Const(c) => AVal::Const(c as u64),
            AbsVl::AtMost(_) => AVal::Any,
        };
        set_x(st, rd, out);
    }

    fn vload(&self, pc: usize, st: &mut AbsState, sink: &mut Sink, vd: VReg, rs1: XReg, ew: Sew) {
        let g = self.groups(st);
        let Some(sew) = self.cur_sew(st) else {
            sink.emit(
                Severity::Error,
                Confidence::Unprovable,
                Rule::UnknownVtype,
                || "vector load with no dominating vsetvli".into(),
            );
            self.write_v_window(st, vd, g.max, VClass::Any);
            return;
        };
        if crate::checks::check_element_width(pc, sew, ew).is_err() {
            sink.emit(
                Severity::Error,
                Confidence::Proven,
                Rule::IllegalSewForOp,
                move || format!("e{} element load while sew is e{}", ew.bits(), sew.bits()),
            );
        }
        let addr = get_x(st, rs1);
        self.check_valign(sink, addr, ew);
        self.check_vgroup(pc, sink, vd, &g);
        self.check_vbounds(sink, st, addr, ew, false);
        let cls = self.load_class(st, addr, ew, &g);
        self.write_v_window(st, vd, g.max, VClass::Any);
        st.v[vd.index() as usize] = cls;
    }

    fn vstore(&self, pc: usize, st: &mut AbsState, sink: &mut Sink, vs3: VReg, rs1: XReg, ew: Sew) {
        let g = self.groups(st);
        let Some(sew) = self.cur_sew(st) else {
            sink.emit(
                Severity::Error,
                Confidence::Unprovable,
                Rule::UnknownVtype,
                || "vector store with no dominating vsetvli".into(),
            );
            return;
        };
        if crate::checks::check_element_width(pc, sew, ew).is_err() {
            sink.emit(
                Severity::Error,
                Confidence::Proven,
                Rule::IllegalSewForOp,
                move || format!("e{} element store while sew is e{}", ew.bits(), sew.bits()),
            );
        }
        let addr = get_x(st, rs1);
        self.check_valign(sink, addr, ew);
        self.check_vgroup(pc, sink, vs3, &g);
        self.check_vbounds(sink, st, addr, ew, true);
    }

    fn check_vgroup(&self, pc: usize, sink: &mut Sink, base: VReg, g: &Groups) {
        if let Some(r) = g.exact {
            if check_group(pc, base, r).is_err() {
                sink.emit(
                    Severity::Error,
                    Confidence::Proven,
                    Rule::GroupOutOfRange,
                    move || format!("group v{}+{} exceeds v31", base.index(), r),
                );
            }
        } else {
            let max = g.max;
            if base.index() as usize + max > 32 {
                sink.emit(
                    Severity::Error,
                    Confidence::Unprovable,
                    Rule::GroupOutOfRange,
                    move || {
                        format!(
                            "group at v{} may span {max} registers past v31",
                            base.index()
                        )
                    },
                );
            }
        }
    }

    fn check_valign(&self, sink: &mut Sink, addr: AVal, ew: Sew) {
        let eb = ew.bytes() as u64;
        if eb == 1 {
            return;
        }
        match addr {
            AVal::Const(a) => {
                if !a.is_multiple_of(eb) {
                    sink.emit(
                        Severity::Error,
                        Confidence::Proven,
                        Rule::UnalignedAccess,
                        move || format!("address {a:#x} is not {eb}-byte aligned"),
                    );
                }
            }
            AVal::Offset { add, or_zero } => {
                let stride = self
                    .contract
                    .and_then(|c| c.offset_table.as_ref())
                    .map(|t| t.stride);
                match stride {
                    Some(s) if add.is_multiple_of(eb) && s.is_multiple_of(eb) => {}
                    Some(s) if s.is_multiple_of(eb) && !or_zero => sink.emit(
                        Severity::Error,
                        Confidence::Proven,
                        Rule::UnalignedAccess,
                        move || {
                            format!("offset-table address base {add:#x} is never {eb}-byte aligned")
                        },
                    ),
                    _ => sink.emit(
                        Severity::Error,
                        Confidence::Unprovable,
                        Rule::UnalignedAccess,
                        move || {
                            format!("cannot prove {eb}-byte alignment of table-derived address")
                        },
                    ),
                }
            }
            AVal::VregIdx { .. } | AVal::Any => sink.emit(
                Severity::Error,
                Confidence::Unprovable,
                Rule::UnalignedAccess,
                move || format!("address unknown; cannot prove {eb}-byte alignment"),
            ),
        }
    }

    /// Memory-bounds lint (needs a contract). Loads may touch `readable`
    /// or lie entirely below `zero_page` (the architectural-zero pad the
    /// slide convention reads); stores must stay inside `writable`.
    fn check_vbounds(&self, sink: &mut Sink, st: &AbsState, addr: AVal, ew: Sew, is_store: bool) {
        let Some(c) = self.contract else { return };
        let eb = ew.bytes() as u64;
        let span = (st.vl.bound() as u64).saturating_mul(eb);
        let mut proven = false;
        let ok = match addr {
            AVal::Const(a) => {
                proven = st.vl.as_const().is_some();
                match a.checked_add(span) {
                    Some(end) if is_store => a >= c.writable.start && end <= c.writable.end,
                    Some(end) => {
                        (a >= c.readable.start && end <= c.readable.end) || end <= c.zero_page
                    }
                    None => false,
                }
            }
            AVal::Offset { add, or_zero } => {
                match self.contract.and_then(|c| c.offset_table.as_ref()) {
                    Some(t) => {
                        let reach = t
                            .count
                            .saturating_sub(1)
                            .checked_mul(t.stride)
                            .and_then(|m| add.checked_add(m))
                            .and_then(|m| m.checked_add(span));
                        match reach {
                            Some(end) if is_store => {
                                !or_zero && add >= c.writable.start && end <= c.writable.end
                            }
                            Some(end) => {
                                add >= c.readable.start
                                    && end <= c.readable.end
                                    && (!or_zero || span <= c.zero_page)
                            }
                            None => false,
                        }
                    }
                    None => false,
                }
            }
            AVal::VregIdx { .. } => {
                !is_store && u64::from(self.vreg_max()).saturating_add(span) <= c.zero_page
            }
            AVal::Any => false,
        };
        if !ok {
            let conf = if proven {
                Confidence::Proven
            } else {
                Confidence::Unprovable
            };
            let kind = if is_store { "store" } else { "load" };
            sink.emit(Severity::Error, conf, Rule::OutOfBoundsAccess, move || {
                format!("vector {kind} of {span} bytes may leave the contract regions")
            });
        }
    }

    /// Class a freshly loaded register: reading entirely inside a
    /// contract table at the table's element width yields its class.
    fn load_class(&self, st: &AbsState, addr: AVal, ew: Sew, g: &Groups) -> VClass {
        let Some(c) = self.contract else {
            return VClass::Any;
        };
        let Some(vc) = st.vl.as_const() else {
            return VClass::Any;
        };
        let AVal::Const(a) = addr else {
            return VClass::Any;
        };
        if vc == 0 {
            return VClass::Any;
        }
        let span = vc as u64 * ew.bytes() as u64;
        let Some(end) = a.checked_add(span) else {
            return VClass::Any;
        };
        if let Some(t) = &c.offset_table {
            if ew == Sew::E32 && g.exact == Some(1) && a >= t.region.start && end <= t.region.end {
                return VClass::Offsets {
                    add: 0,
                    or_zero: false,
                    lanes: vc,
                };
            }
        }
        if let Some(t) = &c.vreg_table {
            if ew == t.elem && g.exact.is_some() && a >= t.region.start && end <= t.region.end {
                // Only the first register of a group is ever indexed by
                // slot immediates, so the class covers its lanes.
                return VClass::VregIdxs {
                    sew: ew,
                    or_zero: false,
                    lanes: vc.min(self.vlen_bits / ew.bits()),
                };
            }
        }
        VClass::Any
    }

    /// `vadd.vx` / `vadd.vi` over an offset-table class: adding a
    /// constant shifts the whole set, as long as no lane wraps at the
    /// 32-bit lane width (so the abstract shift stays exact).
    fn offset_add_class(&self, st: &AbsState, vd: VReg, vs2: VReg, cval: AVal) -> VClass {
        let AVal::Const(cv) = cval else {
            return VClass::Any;
        };
        if self.cur_sew(st) != Some(Sew::E32) {
            return VClass::Any;
        }
        let VClass::Offsets {
            add,
            or_zero: false,
            lanes,
        } = st.v[vs2.index() as usize]
        else {
            return VClass::Any;
        };
        let Some(vc) = st.vl.as_const() else {
            return VClass::Any;
        };
        if vc == 0 || vc > lanes {
            return VClass::Any;
        }
        let Some(t) = self.contract.and_then(|c| c.offset_table.as_ref()) else {
            return VClass::Any;
        };
        let c32 = cv & 0xFFFF_FFFF;
        let max_off = t.count.saturating_sub(1).saturating_mul(t.stride);
        let Some(add2) = add.checked_add(c32) else {
            return VClass::Any;
        };
        match add2.checked_add(max_off) {
            Some(top) if top <= u64::from(u32::MAX) => VClass::Offsets {
                add: add2,
                or_zero: false,
                lanes: if vd == vs2 { lanes } else { vc },
            },
            _ => VClass::Any,
        }
    }

    /// `vmv.v.v`: lanes 0..vl copy the source class; beyond vl the
    /// destination keeps stale content (classed only when vd == vs1).
    fn copy_class(&self, st: &AbsState, vd: VReg, vs1: VReg) -> VClass {
        let Some(vc) = st.vl.as_const() else {
            return VClass::Any;
        };
        if vc == 0 {
            return VClass::Any;
        }
        match st.v[vs1.index() as usize] {
            VClass::Offsets {
                add,
                or_zero,
                lanes,
            } if self.cur_sew(st) == Some(Sew::E32) && vc <= lanes => VClass::Offsets {
                add,
                or_zero,
                lanes: if vd == vs1 { lanes } else { vc },
            },
            VClass::VregIdxs {
                sew,
                or_zero,
                lanes,
            } if self.cur_sew(st) == Some(sew) && vc <= lanes => VClass::VregIdxs {
                sew,
                or_zero,
                lanes: if vd == vs1 { lanes } else { vc },
            },
            _ => VClass::Any,
        }
    }

    /// `vslide1down.vx` with a zero insert: every result lane is a set
    /// member or the inserted 0, so the class survives with `or_zero`.
    fn slide_class(&self, st: &AbsState, vd: VReg, vs2: VReg) -> VClass {
        let Some(vc) = st.vl.as_const() else {
            return VClass::Any;
        };
        if vc == 0 {
            return VClass::Any;
        }
        match st.v[vs2.index() as usize] {
            VClass::Offsets { add, lanes, .. }
                if self.cur_sew(st) == Some(Sew::E32) && vc <= lanes =>
            {
                VClass::Offsets {
                    add,
                    or_zero: true,
                    lanes: if vd == vs2 { lanes } else { vc },
                }
            }
            VClass::VregIdxs { sew, lanes, .. } if self.cur_sew(st) == Some(sew) && vc <= lanes => {
                VClass::VregIdxs {
                    sew,
                    or_zero: true,
                    lanes: if vd == vs2 { lanes } else { vc },
                }
            }
            _ => VClass::Any,
        }
    }

    /// `vslidedown.vi`: reads lanes `off..off+vl`, which must either
    /// stay inside the classed extent or run past VLMAX (where the
    /// datapath reads architectural zeros, folded in via `or_zero`).
    fn slidedown_class(&self, st: &AbsState, vd: VReg, vs2: VReg, off: usize) -> VClass {
        let Some(vc) = st.vl.as_const() else {
            return VClass::Any;
        };
        if vc == 0 {
            return VClass::Any;
        }
        let ext = |lanes: usize| if vd == vs2 { lanes } else { vc };
        match st.v[vs2.index() as usize] {
            VClass::Offsets {
                add,
                or_zero,
                lanes,
            } if self.cur_sew(st) == Some(Sew::E32) => {
                let vlmax = self.vlen_bits / 32;
                if off == 0 && vc <= lanes {
                    VClass::Offsets {
                        add,
                        or_zero,
                        lanes: ext(lanes),
                    }
                } else if off + vc <= lanes || lanes == vlmax {
                    VClass::Offsets {
                        add,
                        or_zero: true,
                        lanes: ext(lanes),
                    }
                } else {
                    VClass::Any
                }
            }
            VClass::VregIdxs {
                sew,
                or_zero,
                lanes,
            } if self.cur_sew(st) == Some(sew) => {
                let vlmax = self.vlen_bits / sew.bits();
                if off == 0 && vc <= lanes {
                    VClass::VregIdxs {
                        sew,
                        or_zero,
                        lanes: ext(lanes),
                    }
                } else if off + vc <= lanes || lanes == vlmax {
                    VClass::VregIdxs {
                        sew,
                        or_zero: true,
                        lanes: ext(lanes),
                    }
                } else {
                    VClass::Any
                }
            }
            _ => VClass::Any,
        }
    }

    /// Largest value the offset-table class can reach above `add`.
    fn offset_max(&self, add: u64) -> u64 {
        match self.contract.and_then(|c| c.offset_table.as_ref()) {
            Some(t) => add.saturating_add(t.count.saturating_sub(1).saturating_mul(t.stride)),
            None => u64::MAX,
        }
    }

    /// Largest index the vreg-table class can contain (31 without a
    /// contract, which is still a sound bound for a 5-bit index).
    fn vreg_max(&self) -> u8 {
        match self.contract.and_then(|c| c.vreg_table.as_ref()) {
            Some(t) => t.max,
            None => 31,
        }
    }

    /// `vindexmac.vx`: the grouping gate has already run, so on any
    /// continuing execution `vl <= VLMAX` and the source group is a
    /// single register (trivially in range for any 5-bit index).
    fn vindexmac_vx(
        &self,
        pc: usize,
        st: &mut AbsState,
        sink: &mut Sink,
        vd: VReg,
        vs2: VReg,
        rs: XReg,
    ) {
        let Some(s) = self.cur_sew(st) else {
            sink.emit(
                Severity::Error,
                Confidence::Unprovable,
                Rule::UnknownVtype,
                || "vindexmac.vx with no dominating vsetvli".into(),
            );
            self.write_v_window(st, vd, 4, VClass::Any);
            return;
        };
        if s == Sew::E32 {
            self.write_v1(st, vd, VClass::Any);
            return;
        }
        let widen = widen_factor(s);
        match check_widening_dst(pc, s, vd, 1) {
            Err(_) => sink.emit(
                Severity::Error,
                Confidence::Proven,
                Rule::IllegalWidening,
                move || {
                    format!(
                        "widening accumulator v{} misaligned for e{} (needs {}-register alignment)",
                        vd.index(),
                        s.bits(),
                        widen
                    )
                },
            ),
            Ok(dst_regs) => {
                if check_group(pc, vd, dst_regs).is_err() {
                    sink.emit(
                        Severity::Error,
                        Confidence::Proven,
                        Rule::GroupOutOfRange,
                        move || format!("accumulator group v{}+{dst_regs} exceeds v31", vd.index()),
                    );
                }
            }
        }
        let win = vd.index() as usize..vd.index() as usize + widen;
        if win.contains(&(vs2.index() as usize)) {
            sink.emit(
                Severity::Error,
                Confidence::Proven,
                Rule::WideningOverlap,
                move || {
                    format!(
                        "multiplier source v{} aliases the accumulator window",
                        vs2.index()
                    )
                },
            );
        } else {
            match get_x(st, rs) {
                AVal::Const(c) => {
                    let src = (c & 0x1F) as usize;
                    if win.contains(&src) {
                        sink.emit(
                            Severity::Error,
                            Confidence::Proven,
                            Rule::WideningOverlap,
                            move || format!("indexed source v{src} aliases the accumulator window"),
                        );
                    }
                }
                AVal::VregIdx { .. } => {
                    let lo = self
                        .contract
                        .and_then(|c| c.vreg_table.as_ref())
                        .map_or(0, |t| t.min) as usize;
                    let hi = self.vreg_max() as usize + 1;
                    if lo < win.end && win.start < hi {
                        sink.emit(
                            Severity::Error,
                            Confidence::Unprovable,
                            Rule::WideningOverlap,
                            move || {
                                "indexed source range may alias the accumulator window".to_string()
                            },
                        );
                    }
                }
                // An unknown index is a soundness question for the
                // group-range rule, not this lint; make no overlap claim.
                _ => {}
            }
        }
        self.write_v_window(st, vd, widen, VClass::Any);
    }

    /// `vindexmac.vvi`: group-aware; mirrors the interpreter's order of
    /// slot check, indirect-source group check, then destination rules.
    #[allow(clippy::too_many_arguments)]
    fn vindexmac_vvi(
        &self,
        pc: usize,
        st: &mut AbsState,
        sink: &mut Sink,
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
        slot: u8,
    ) {
        let g = self.groups(st);
        let Some(s) = self.cur_sew(st) else {
            sink.emit(
                Severity::Error,
                Confidence::Unprovable,
                Rule::UnknownVtype,
                || "vindexmac.vvi with no dominating vsetvli".into(),
            );
            self.write_v_window(st, vd, 4, VClass::Any);
            return;
        };
        let vlmax1 = self.vlen_bits / s.bits();
        if check_slot(pc, slot, vlmax1).is_err() {
            sink.emit(
                Severity::Error,
                Confidence::Proven,
                Rule::SlotOutOfRange,
                move || format!("slot {slot} >= VLMAX {vlmax1}"),
            );
        }
        // Indirect source: bounded only through the vreg-table class.
        let idx = match st.v[vs1.index() as usize] {
            VClass::VregIdxs { sew, lanes, .. } if sew == s && (slot as usize) < lanes => self
                .contract
                .and_then(|c| c.vreg_table.as_ref())
                .map(|t| (t.min, t.max)),
            _ => None,
        };
        match idx {
            Some((_, max)) => {
                let gmax = g.max;
                if max as usize + gmax > 32 {
                    sink.emit(
                        Severity::Error,
                        Confidence::Unprovable,
                        Rule::GroupOutOfRange,
                        move || format!("indirect source group v{max}+{gmax} may exceed v31"),
                    );
                }
            }
            None => {
                if g.max > 1 {
                    let gmax = g.max;
                    sink.emit(
                        Severity::Error,
                        Confidence::Unprovable,
                        Rule::GroupOutOfRange,
                        move || {
                            format!(
                                "indirect source of a {gmax}-register vindexmac is unbounded \
                                 (no vreg-table class on v{})",
                                vs1.index()
                            )
                        },
                    );
                }
            }
        }
        // Destination rules.
        let dst_max = if s == Sew::E32 {
            self.check_vgroup(pc, sink, vd, &g);
            g.max
        } else {
            let widen = widen_factor(s);
            match g.exact {
                Some(r) => match check_widening_dst(pc, s, vd, r) {
                    Err(_) => sink.emit(
                        Severity::Error,
                        Confidence::Proven,
                        Rule::IllegalWidening,
                        move || {
                            format!(
                                "widening accumulator v{} illegal at e{} with {r} source registers",
                                vd.index(),
                                s.bits()
                            )
                        },
                    ),
                    Ok(dst_regs) => {
                        if check_group(pc, vd, dst_regs).is_err() {
                            sink.emit(
                                Severity::Error,
                                Confidence::Proven,
                                Rule::GroupOutOfRange,
                                move || {
                                    format!(
                                        "accumulator group v{}+{dst_regs} exceeds v31",
                                        vd.index()
                                    )
                                },
                            );
                        }
                    }
                },
                None => {
                    let dst_bound = g.max * widen;
                    if !(vd.index() as usize).is_multiple_of(widen) {
                        sink.emit(
                            Severity::Error,
                            Confidence::Proven,
                            Rule::IllegalWidening,
                            move || {
                                format!(
                                    "widening accumulator v{} misaligned for e{}",
                                    vd.index(),
                                    s.bits()
                                )
                            },
                        );
                    } else if dst_bound > 4 {
                        sink.emit(
                            Severity::Error,
                            Confidence::Unprovable,
                            Rule::IllegalWidening,
                            move || {
                                format!("widening accumulator may span {dst_bound} registers > m4")
                            },
                        );
                    }
                    if vd.index() as usize + dst_bound > 32 {
                        sink.emit(
                            Severity::Error,
                            Confidence::Unprovable,
                            Rule::GroupOutOfRange,
                            move || {
                                format!(
                                    "accumulator group v{}+{dst_bound} may exceed v31",
                                    vd.index()
                                )
                            },
                        );
                    }
                }
            }
            g.max * widen
        };
        // Overlap lint: the accumulator window must not alias the
        // metadata registers or the indirect source window. A class
        // carrying only the slide-padding zero is exempt by convention.
        if dst_max > 1 {
            let win = vd.index() as usize..vd.index() as usize + dst_max;
            if win.contains(&(vs2.index() as usize)) || win.contains(&(vs1.index() as usize)) {
                sink.emit(
                    Severity::Error,
                    Confidence::Proven,
                    Rule::WideningOverlap,
                    move || {
                        format!(
                            "metadata register v{}/v{} aliases the accumulator window",
                            vs2.index(),
                            vs1.index()
                        )
                    },
                );
            } else if let Some((min, max)) = idx {
                let lo = min as usize;
                let hi = max as usize + g.max;
                if lo < win.end && win.start < hi {
                    sink.emit(
                        Severity::Error,
                        Confidence::Unprovable,
                        Rule::WideningOverlap,
                        move || "indexed source range may alias the accumulator window".to_string(),
                    );
                }
            }
        }
        self.write_v_window(st, vd, dst_max, VClass::Any);
    }

    fn write_v1(&self, st: &mut AbsState, vd: VReg, cls: VClass) {
        st.v[vd.index() as usize] = cls;
        st.v_def |= 1 << vd.index();
    }

    fn write_v_window(&self, st: &mut AbsState, vd: VReg, n: usize, cls: VClass) {
        let b = vd.index() as usize;
        for i in b..(b + n).min(32) {
            st.v[i] = cls;
            st.v_def |= 1 << i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexmac_isa::{Lmul, ProgramBuilder};

    const VLEN: usize = 512;

    fn run(build: impl FnOnce(&mut ProgramBuilder)) -> Analysis {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        analyze_instructions(b.build().instructions(), VLEN, None)
    }

    fn rules(a: &Analysis) -> Vec<Rule> {
        a.diagnostics().iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_straight_line_program_mints_verified() {
        let a = run(|b| {
            b.li(XReg::T0, 21);
            b.push(Instruction::Add {
                rd: XReg::T1,
                rs1: XReg::T0,
                rs2: XReg::T0,
            });
            b.halt();
        });
        assert!(a.is_clean(), "{:?}", a.diagnostics());
        assert!(a.diagnostics().is_empty());
        let v = a.verified().expect("clean program earns a token");
        assert_eq!(v.program_len(), 3);
        assert_eq!(v.vlen_bits(), VLEN);
    }

    #[test]
    fn missing_halt_falls_off_end() {
        let a = run(|b| {
            b.li(XReg::T0, 1);
        });
        assert_eq!(rules(&a), vec![Rule::FallsOffEnd]);
        assert_eq!(a.diagnostics()[0].confidence, Confidence::Proven);
        assert!(a.verified().is_none());
    }

    #[test]
    fn empty_program_falls_off_end() {
        let a = analyze_instructions(&[], VLEN, None);
        assert_eq!(rules(&a), vec![Rule::FallsOffEnd]);
    }

    #[test]
    fn e64_vsetvli_is_proven_unsupported() {
        let a = run(|b| {
            b.push(Instruction::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::ZERO,
                sew: Sew::E64,
                lmul: Lmul::M1,
            });
            b.halt();
        });
        assert_eq!(rules(&a), vec![Rule::UnsupportedSew]);
        assert_eq!(a.diagnostics()[0].confidence, Confidence::Proven);
    }

    #[test]
    fn grouping_gate_fires_on_grouped_slide() {
        // vl = 32 at e32/m2 (VLMAX 16): slides have no grouping
        // semantics, so the gate must flag them.
        let a = run(|b| {
            b.li(XReg::T0, 32);
            b.push(Instruction::Vsetvli {
                rd: XReg::T1,
                rs1: XReg::T0,
                sew: Sew::E32,
                lmul: Lmul::M2,
            });
            b.push(Instruction::VslidedownVi {
                vd: VReg::V1,
                vs2: VReg::V1,
                imm: 1,
            });
            b.halt();
        });
        assert!(rules(&a).contains(&Rule::GroupingUnsupported));
        assert_eq!(
            a.diagnostics()
                .iter()
                .find(|d| d.rule == Rule::GroupingUnsupported)
                .unwrap()
                .confidence,
            Confidence::Proven
        );
    }

    #[test]
    fn negative_branch_target_flagged() {
        let a = run(|b| {
            b.push(Instruction::Jal {
                rd: XReg::ZERO,
                offset: -5,
            });
            b.halt();
        });
        assert_eq!(rules(&a), vec![Rule::PcOutOfRange]);
        assert_eq!(a.diagnostics()[0].confidence, Confidence::Proven);
    }

    #[test]
    fn slot_out_of_range_flagged() {
        // VLMAX at e32 is 16; slot 16 is out of range.
        let a = run(|b| {
            b.push(Instruction::VindexmacVvi {
                vd: VReg::V0,
                vs2: VReg::V4,
                vs1: VReg::V8,
                slot: 16,
            });
            b.halt();
        });
        assert!(rules(&a).contains(&Rule::SlotOutOfRange));
    }

    #[test]
    fn widening_misalignment_is_proven() {
        // e8 widening needs a 4-aligned accumulator; v1 is not.
        let a = run(|b| {
            b.li(XReg::T0, 16);
            b.push(Instruction::Vsetvli {
                rd: XReg::ZERO,
                rs1: XReg::T0,
                sew: Sew::E8,
                lmul: Lmul::M1,
            });
            b.push(Instruction::VindexmacVx {
                vd: VReg::V1,
                vs2: VReg::V8,
                rs: XReg::T1,
            });
            b.halt();
        });
        let d = a
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::IllegalWidening)
            .expect("misaligned widening accumulator flagged");
        assert_eq!(d.confidence, Confidence::Proven);
    }

    #[test]
    fn use_before_def_is_warning_only() {
        let a = run(|b| {
            b.push(Instruction::Add {
                rd: XReg::T1,
                rs1: XReg::T2, // never written
                rs2: XReg::ZERO,
            });
            b.halt();
        });
        assert_eq!(rules(&a), vec![Rule::UseBeforeDef]);
        assert_eq!(a.diagnostics()[0].severity, Severity::Warning);
        assert_eq!(a.warning_count(), 1);
        // Warnings do not block verification.
        assert!(a.verified().is_some());
    }

    #[test]
    fn loop_with_constant_trip_count_converges_clean() {
        let a = run(|b| {
            b.li(XReg::T0, 8);
            let top = b.bind_label();
            b.push(Instruction::Addi {
                rd: XReg::T0,
                rs1: XReg::T0,
                imm: -1,
            });
            b.bne(XReg::T0, XReg::ZERO, top);
            b.halt();
        });
        assert!(a.is_clean(), "{:?}", a.diagnostics());
        assert!(a.diagnostics().is_empty());
    }

    #[test]
    fn store_width_mismatch_is_proven() {
        let a = run(|b| {
            b.li(XReg::T0, 0x1000);
            b.push(Instruction::Vse16 {
                vs3: VReg::V0,
                rs1: XReg::T0,
            });
            b.halt();
        });
        // Default vtype is e32: an e16 store disagrees.
        let d = a
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::IllegalSewForOp)
            .expect("width mismatch flagged");
        assert_eq!(d.confidence, Confidence::Proven);
    }

    #[test]
    fn unaligned_constant_address_is_proven() {
        let a = run(|b| {
            b.li(XReg::T0, 0x1002);
            b.push(Instruction::Vle32 {
                vd: VReg::V1,
                rs1: XReg::T0,
            });
            b.halt();
        });
        let d = a
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::UnalignedAccess)
            .expect("misaligned vle32 flagged");
        assert_eq!(d.confidence, Confidence::Proven);
    }

    #[test]
    fn float_op_at_narrow_sew_is_proven_illegal() {
        let a = run(|b| {
            b.li(XReg::T0, 16);
            b.push(Instruction::Vsetvli {
                rd: XReg::ZERO,
                rs1: XReg::T0,
                sew: Sew::E16,
                lmul: Lmul::M1,
            });
            b.push(Instruction::VfaddVv {
                vd: VReg::V1,
                vs2: VReg::V2,
                vs1: VReg::V3,
            });
            b.halt();
        });
        let d = a
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::IllegalSewForOp)
            .expect("float op at e16 flagged");
        assert_eq!(d.confidence, Confidence::Proven);
    }

    #[test]
    fn rule_ids_are_stable_and_unique() {
        let mut ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Rule::ALL.len());
        assert_eq!(Rule::UnknownVtype.id(), "VA001");
        assert_eq!(Rule::UseBeforeDef.id(), "VA013");
    }
}
