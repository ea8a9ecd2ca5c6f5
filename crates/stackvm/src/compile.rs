//! The compiled tier: a flattened threaded-code backend, and the tracer's
//! only engine.
//!
//! Recognition re-runs every suspect copy (Section 4.3), so the tracer's
//! dispatch loop bounds serial copies/s. `Compiled::build` decodes a
//! [`Program`] straight into one program-wide instruction array, in one
//! walk per function, and then fuses it with three peephole passes:
//!
//! * all functions are concatenated into one `Vec<COp>` with a
//!   `COp::EndGuard` sentinel slot after each function, so "fell off
//!   the end" and out-of-range branch targets (clamped to the guard) are
//!   ordinary fetches of a guard op — the hot loop has no per-function
//!   slices to re-hoist;
//! * call sites carry the callee's pre-resolved absolute entry offset,
//!   arity, and frame size, so a call is a frame push plus a jump;
//! * an operand that names a missing local, static or function compiles
//!   to one `COp::BadOperand` fault op, so the loop indexes without
//!   checks and an unverified program gets [`VmError::BadOperand`], not
//!   a panic;
//! * what a run records is a compile-time const (`MODE`: `OFF`,
//!   `BRANCHES` or `FULL`), not a runtime flag, so the recognition
//!   loops carry no block or snapshot code, and branch events stream into
//!   the caller's [`TraceSink`] — with the packed-bits sink the bit lands
//!   straight in the builder's accumulator word;
//! * `fuse_pairs` fuses 21 two- to four-op superinstructions that stay
//!   inside a basic block; `fuse_compiled` then fuses longer sequences
//!   and runs across leaders — most importantly `COp::FusedExpr`, the
//!   watermark decoder's whole `t = (x >> (i - 1)) & 1` loop body
//!   (eight original ops) as a single stack-free dispatch, plus
//!   `COp::BinIf` (the opaque-predicate tail) and `COp::IincLoadSwitch`
//!   (the switch-controlled loop back edge the embedder emits); and
//!   `fuse_kernels` collapses whole loop iterations.
//!
//! Every fused op charges the instruction count the originals would
//! have cost and reports error pcs / branch sites at their original
//! offsets, so outcomes, traces, and faults are bit-identical to the
//! reference interpreter — the equivalence property test in `interp.rs`
//! holds the two engines to that under every trace mode.
//!
//! Under `FULL` the loop emits block and snapshot events when it
//! dispatches a block leader, so no fused op may swallow one: the
//! program is compiled with the mode in hand, and that compile skips
//! the fusions that cross a leader (the jump-threaded back edges, the
//! kernels, and an increment fused into a leader loop header).

use crate::insn::{BinOp, Cond, Insn};
use crate::interp::{
    array, array_mut, bad_operand, heap_charge, locals_charge, RunResult, MAX_CALL_DEPTH,
};
use crate::program::{FuncId, Program};
use crate::trace::{Site, TraceConfig, TraceSink};
use crate::VmError;

/// Trace mode: record nothing.
pub(crate) const OFF: u8 = 0;
/// Trace mode: record branch events only (the recognition config).
pub(crate) const BRANCHES: u8 = 1;
/// Trace mode: record block and snapshot events too, as `TraceConfig`
/// asks (the embedder's config).
pub(crate) const FULL: u8 = 2;

/// The trace mode a configuration needs.
pub(crate) fn trace_mode(config: &TraceConfig) -> u8 {
    if config.blocks || config.snapshots {
        FULL
    } else if config.branches {
        BRANCHES
    } else {
        OFF
    }
}

/// A flattened, pre-resolved instruction. Branch targets stay
/// *function-relative* (trace sites and error offsets are relative, and
/// `abs = frame base + rel` is one add); call entries are *absolute*
/// offsets into the flattened array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum COp {
    Const(i64),
    Load(u32),
    Store(u32),
    Iinc(u32, i32),
    Bin(BinOp),
    Neg,
    Dup,
    Pop,
    Swap,
    GetStatic(u32),
    PutStatic(u32),
    NewArray,
    ALoad,
    AStore,
    ArrayLen,
    Goto(u32),
    If(Cond, u32),
    IfCmp(Cond, u32),
    /// Index into [`Compiled::switches`] (program-wide table).
    Switch(u32),
    /// Pre-resolved call: absolute entry offset, callee id, arity,
    /// frame size.
    Call {
        entry: u32,
        callee: u32,
        argc: u16,
        num_locals: u16,
    },
    /// An instruction whose operand names a missing local, static or
    /// function (or a callee whose parameters exceed its frame): fetching
    /// it is [`VmError::BadOperand`] at this pc.
    BadOperand,
    Return(bool),
    Print,
    ReadInput,
    Nop,
    /// Sentinel slot after each function's code: fetching it is the
    /// clamped-target / fell-off-the-end fault for that function.
    EndGuard(u32),

    // ---- in-block superinstructions (see `fuse_pairs`) ----
    // Each replaces the op at its own pc and consumes the following
    // one to three; the consumed slots keep their 1:1 ops but become
    // unreachable, so pc numbering is untouched. A fused op reports a
    // consumed branch's site at its *original* pc.
    /// `Load a; Load b`.
    Load2(u32, u32),
    /// `Load n; Const v`.
    LoadConst(u32, i64),
    /// `Store a; Load b` (an assignment whose value is used next).
    StoreLoad(u32, u32),
    /// `Store n; Goto t` (a loop-body tail).
    StoreGoto(u32, u32),
    /// `Load n; If(c, t)`.
    LoadIf(u32, Cond, u32),
    /// `Load n; IfCmp(c, t)` — the loaded value is the *second* operand.
    LoadIfCmp(u32, Cond, u32),
    /// `Const v; IfCmp(c, t)` — the constant is the *second* operand.
    ConstIfCmp(i64, Cond, u32),
    /// `Iinc(n, d); Goto t` — a counted loop's back edge.
    IincGoto(u32, i32, u32),
    /// `Load a; Load b; IfCmp(c, t)` — the canonical `i < limit` loop
    /// head, compressed to one stack-free dispatch.
    Load2IfCmp(u16, u16, Cond, u16),
    /// `Load n; Const v; IfCmp(c, t)` — `i < 10`, likewise stack-free.
    LoadConstIfCmp(u16, Cond, u16, i64),
    /// `Const v; Bin op` — the constant is the *right* operand.
    ConstBin(i64, BinOp),
    /// `Load n; Bin op` — the loaded value is the *right* operand.
    LoadBin(u32, BinOp),
    /// `Bin op; Const v`.
    BinConst(BinOp, i64),
    /// `Bin op1; Bin op2` — `op1`'s result is `op2`'s *right* operand.
    Bin2(BinOp, BinOp),
    /// `Bin op; Store n`.
    BinStore(BinOp, u32),
    /// `Store n; Iinc(m, d)`.
    StoreIinc(u32, u32, i32),
    /// `Iinc(n, d); Load m`.
    IincLoad(u32, i32, u32),
    /// `Load a; Load b; Bin op` — push `locals[a] op locals[b]`.
    Load2Bin(u16, u16, BinOp),
    /// `Load n; Const v; Bin op` — push `locals[n] op v`.
    LoadConstBin(u16, BinOp, i64),
    /// `Load a; Load b; Bin op; Store dst` — the whole statement
    /// `dst = a op b` in one stack-free dispatch.
    Load2BinStore(u16, u16, BinOp, u16),
    /// `Load src; Const v; Bin op; Store dst` — `dst = src op v`,
    /// likewise stack-free.
    LoadConstBinStore(u16, BinOp, u16, i64),

    // ---- compile-tier fusions (see `fuse_compiled`) ----
    /// `Load a; Load b; Const c1; Bin o1; Bin o2; Const c2; Bin o3;
    /// Store d` — i.e. `locals[d] = (locals[a] o2 (locals[b] o1 c1)) o3
    /// c2`, the watermark loop's bit-extract body, in one stack-free
    /// dispatch. Fused only when no `oN` can fault (no `Div`/`Rem`), so
    /// the op is pure and charges all eight instructions up front.
    FusedExpr {
        a: u16,
        b: u16,
        d: u16,
        c1: i16,
        c2: i16,
        o1: BinOp,
        o2: BinOp,
        o3: BinOp,
    },
    /// `Bin op; If(cond, t)` — an expression tail feeding a branch (the
    /// opaque-predicate shape). Reports a division fault at the `Bin`'s
    /// pc and the branch site at `pc + 1`.
    BinIf(BinOp, Cond, u32),
    /// `Iinc(n, d); Load m; Switch(table)` — the embedder's
    /// switch-controlled loop back edge (`i += 1; switch i`), untraced
    /// by construction.
    IincLoadSwitch {
        n: u16,
        d: i16,
        m: u16,
        table: u32,
    },
    /// `Load2 a b; LoadBin c o1; ConstBin v o2; BinStore o3 d` — the
    /// host compute kernels' reduction body, `locals[d] = locals[a] o3
    /// ((locals[b] o1 locals[c]) o2 v)`, eight original ops in one
    /// stack-free dispatch. Fused only when no `oN` can fault.
    FusedExpr2 {
        a: u16,
        b: u16,
        c: u16,
        d: u16,
        o1: BinOp,
        o2: BinOp,
        o3: BinOp,
        v: i32,
    },
    /// `Iinc(n, d); LoadConstIfCmp(m, cond, t, v)` — a do-while
    /// counting loop's entire back edge (`i += d; if (m cmp v) goto t`)
    /// in one dispatch. The branch site stays the original `IfCmp`'s.
    IincLoadConstIfCmp {
        n: u16,
        d: i16,
        m: u16,
        cond: Cond,
        t: u16,
        v: i32,
    },
    /// A jump-threaded back edge: `Goto t` whose target is a
    /// `LoadConstIfCmp(m, cond, tt, v)` loop header. The header's copy
    /// runs inline — its slot at `t` stays live for every other
    /// predecessor — so the back edge costs one dispatch instead of
    /// two, and the hot taken-goto round trip disappears.
    GotoLoadConstIfCmp {
        m: u16,
        cond: Cond,
        /// The header's own offset (branch site `t + 2`, fall-through
        /// `t + 3`).
        t: u16,
        /// The header's taken target.
        tt: u16,
        v: i32,
    },
    /// The threaded form of `IincGoto(n, d, t)` whose target is a
    /// `Load2IfCmp(a, b, cond, tt)` loop header — the dominant compute
    /// kernel back edge (`i += d; goto header; if (a cmp b) ...`).
    IincGotoLoad2IfCmp {
        n: u16,
        d: i16,
        a: u16,
        b: u16,
        cond: Cond,
        t: u16,
        tt: u16,
    },
    /// A whole compute-kernel loop iteration — [`COp::FusedExpr2`]
    /// followed by its [`COp::IincGotoLoad2IfCmp`] back edge — as one
    /// dispatch. Too wide for an inline op, so the operands live in
    /// [`Compiled::kernels`]; the handful of hot loops keep their
    /// entries resident in cache.
    Kernel(u32),
    /// [`COp::IincLoadConstIfCmp`] whose compare constant needs the
    /// full 64 bits (watermark piece values): operands spill to
    /// [`Compiled::wides`].
    IincLoadConstIfCmpW(u32),
    /// [`COp::GotoLoadConstIfCmp`] with a 64-bit compare constant,
    /// operands in [`Compiled::wides`].
    GotoLoadConstIfCmpW(u32),
    /// `Load m; Switch(table)` — the piece-dispatch hop at the top of
    /// the watermark decoder loop.
    LoadSwitch(u16, u32),
    /// A watermark-decoder piece body and its exit test —
    /// [`COp::FusedExpr`] followed by [`COp::LoadIf`] — as one
    /// dispatch over [`Compiled::expr_ifs`].
    KernelExprIf(u32),
}

/// The operand block of one [`COp::KernelExprIf`]: the decoder's
/// bit-extract body plus the piece-done test, ten original ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExprIf {
    pub(crate) a: u16,
    pub(crate) b: u16,
    pub(crate) d: u16,
    pub(crate) c1: i16,
    pub(crate) c2: i16,
    pub(crate) o1: BinOp,
    pub(crate) o2: BinOp,
    pub(crate) o3: BinOp,
    /// The trailing `LoadIf`: `if locals[n] cond 0 goto t`.
    pub(crate) n: u16,
    pub(crate) cond: Cond,
    pub(crate) t: u16,
}

/// Operand block for the compare-branch fusions whose constant does
/// not fit the inline `i32` (the `n`/`d` increment fields are unused
/// by the `Goto` form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WideCmp {
    pub(crate) n: u16,
    pub(crate) d: i16,
    pub(crate) m: u16,
    pub(crate) cond: Cond,
    pub(crate) t: u16,
    pub(crate) tt: u16,
    pub(crate) v: i64,
}

/// The operand block of one [`COp::Kernel`]: reduction body plus
/// threaded back edge, thirteen original ops per iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KernelLoop {
    pub(crate) a: u16,
    pub(crate) b: u16,
    pub(crate) c: u16,
    pub(crate) d: u16,
    pub(crate) o1: BinOp,
    pub(crate) o2: BinOp,
    pub(crate) o3: BinOp,
    pub(crate) v: i32,
    /// The `Iinc` of the back edge.
    pub(crate) n: u16,
    pub(crate) dd: i16,
    /// The threaded header compare: `locals[ca] cond locals[cb]`.
    pub(crate) ca: u16,
    pub(crate) cb: u16,
    pub(crate) cond: Cond,
    /// The header's own offset (branch site `t + 2`, fall-through
    /// `t + 3`).
    pub(crate) t: u16,
    pub(crate) tt: u16,
}

/// One switch's dispatch table, targets function-relative (clamped, like
/// every other target).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CSwitch {
    pub(crate) cases: Vec<(i64, u32)>,
    pub(crate) default: u32,
    /// Direct-index form, built when the case keys span a small dense
    /// range: `dense[v - lo]` replaces the linear scan. The embedder's
    /// piece-dispatch switches (keys `0..k`) always qualify.
    pub(crate) lo: i64,
    pub(crate) dense: Vec<u32>,
}

impl CSwitch {
    /// Bound on how sparse a dense table may be: the embedder's
    /// switches are perfectly dense, so anything past a 4x blowup
    /// falls back to the scan.
    const DENSE_LIMIT: usize = 4096;

    fn new(cases: Vec<(i64, u32)>, default: u32) -> CSwitch {
        let mut lo = 0i64;
        let mut dense = Vec::new();
        if let (Some(&min), Some(&max)) = (
            cases.iter().map(|(k, _)| k).min(),
            cases.iter().map(|(k, _)| k).max(),
        ) {
            let span = (max as i128 - min as i128 + 1) as u128;
            if span <= Self::DENSE_LIMIT as u128 && span <= 4 * cases.len() as u128 + 16 {
                lo = min;
                dense = vec![default; span as usize];
                // First match wins in the scan, so later duplicate
                // keys must not overwrite earlier ones.
                for &(k, t) in cases.iter().rev() {
                    dense[(k - min) as usize] = t;
                }
            }
        }
        CSwitch {
            cases,
            default,
            lo,
            dense,
        }
    }

    #[inline]
    fn target_for(&self, v: i64) -> u32 {
        if !self.dense.is_empty() {
            let idx = v.wrapping_sub(self.lo);
            if (0..self.dense.len() as i64).contains(&idx) {
                return self.dense[idx as usize];
            }
            return self.default;
        }
        self.cases
            .iter()
            .find(|&&(k, _)| k == v)
            .map(|&(_, t)| t)
            .unwrap_or(self.default)
    }
}

/// A suspended caller: everything needed to resume it after `Return`.
struct CFrame {
    ret_pc: usize,
    base: usize,
    func: u32,
    locals_base: usize,
    stack_base: usize,
}

/// A whole program decoded into the flattened compiled form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Compiled {
    code: Vec<COp>,
    switches: Vec<CSwitch>,
    kernels: Vec<KernelLoop>,
    expr_ifs: Vec<ExprIf>,
    wides: Vec<WideCmp>,
    /// Absolute start offset of each function's region (its `EndGuard`
    /// sits at `starts[f] + code_len(f)`).
    starts: Vec<u32>,
    /// `leaders[pc]` per flattened slot, kept for [`FULL`] only (guard
    /// slots are never leaders).
    leaders: Vec<bool>,
}

impl Compiled {
    /// Decodes `program` for trace mode `mode` ([`FULL`] keeps every
    /// block leader a dispatch head). One walk per function marks its
    /// block leaders (the definition of [`crate::cfg::Cfg::is_leader`])
    /// and writes each instruction's 1:1 op; the peephole passes then
    /// fuse that function's region in place. Linear in code size.
    pub(crate) fn build(program: &Program, mode: u8) -> Compiled {
        let full = mode == FULL;
        let mut starts = Vec::with_capacity(program.functions.len());
        let mut total = 0usize;
        for f in &program.functions {
            starts.push(u32::try_from(total).expect("program fits a u32 pc"));
            total += f.code.len() + 1;
        }

        let mut code = Vec::with_capacity(total);
        let mut leaders = vec![false; total];
        let mut switches = Vec::new();
        let mut kernels = Vec::new();
        let mut expr_ifs = Vec::new();
        let mut wides = Vec::new();
        for (fid, func) in program.functions.iter().enumerate() {
            let (lo, n) = (code.len(), func.code.len());
            let is_leader = &mut leaders[lo..lo + n];
            if n > 0 {
                is_leader[0] = true;
            }
            // A target past the end faults as FellOffEnd at the next
            // fetch; clamped to `n` it lands on the guard slot instead.
            let clamp = |t: usize| t.min(n) as u32;
            for (pc, insn) in func.code.iter().enumerate() {
                insn.for_each_target(|t| {
                    if t < n {
                        is_leader[t] = true;
                    }
                });
                if (insn.is_branch() || matches!(insn, Insn::Return(_))) && pc + 1 < n {
                    is_leader[pc + 1] = true;
                }
                if bad_operand(program, func, insn) {
                    code.push(COp::BadOperand);
                    continue;
                }
                code.push(match insn {
                    Insn::Const(v) => COp::Const(*v),
                    Insn::Load(i) => COp::Load(u32::from(*i)),
                    Insn::Store(i) => COp::Store(u32::from(*i)),
                    Insn::Iinc(i, d) => COp::Iinc(u32::from(*i), *d),
                    Insn::Bin(op) => COp::Bin(*op),
                    Insn::Neg => COp::Neg,
                    Insn::Dup => COp::Dup,
                    Insn::Pop => COp::Pop,
                    Insn::Swap => COp::Swap,
                    Insn::GetStatic(s) => COp::GetStatic(*s),
                    Insn::PutStatic(s) => COp::PutStatic(*s),
                    Insn::NewArray => COp::NewArray,
                    Insn::ALoad => COp::ALoad,
                    Insn::AStore => COp::AStore,
                    Insn::ArrayLen => COp::ArrayLen,
                    Insn::Goto(t) => COp::Goto(clamp(*t)),
                    Insn::If(c, t) => COp::If(*c, clamp(*t)),
                    Insn::IfCmp(c, t) => COp::IfCmp(*c, clamp(*t)),
                    Insn::Switch { cases, default } => {
                        let cases = cases.iter().map(|&(k, t)| (k, clamp(t))).collect();
                        switches.push(CSwitch::new(cases, clamp(*default)));
                        COp::Switch(switches.len() as u32 - 1)
                    }
                    Insn::Call(f) => {
                        let callee = &program.functions[*f as usize];
                        COp::Call {
                            entry: starts[*f as usize],
                            callee: *f,
                            argc: callee.num_params,
                            num_locals: callee.num_locals,
                        }
                    }
                    Insn::Return(v) => COp::Return(*v),
                    Insn::Print => COp::Print,
                    Insn::ReadInput => COp::ReadInput,
                    Insn::Nop => COp::Nop,
                });
            }
            let is_leader = &leaders[lo..lo + n];
            fuse_pairs(&mut code[lo..], is_leader);
            fuse_compiled(&mut code[lo..], is_leader, &mut wides, full);
            if !full {
                fuse_kernels(&mut code[lo..], &mut kernels, &mut expr_ifs);
            }
            code.push(COp::EndGuard(fid as u32));
        }

        Compiled {
            code,
            switches,
            kernels,
            expr_ifs,
            wides,
            starts,
            leaders: if full { leaders } else { Vec::new() },
        }
    }
}

/// Number of original instruction slots an op stands for when
/// `fuse_compiled` reaches it: 1 for a plain op, 2 to 4 for a
/// `fuse_pairs` superinstruction. Stepping a function's code by these
/// widths visits exactly the reachable op heads (consumed slots are
/// never leaders, so no control flow lands between a head and the
/// next).
fn width(op: COp) -> usize {
    match op {
        COp::Load2(..)
        | COp::LoadConst(..)
        | COp::StoreLoad(..)
        | COp::StoreGoto(..)
        | COp::LoadIf(..)
        | COp::LoadIfCmp(..)
        | COp::ConstIfCmp(..)
        | COp::IincGoto(..)
        | COp::ConstBin(..)
        | COp::LoadBin(..)
        | COp::BinConst(..)
        | COp::Bin2(..)
        | COp::BinStore(..)
        | COp::StoreIinc(..)
        | COp::IincLoad(..) => 2,
        COp::Load2IfCmp(..)
        | COp::LoadConstIfCmp(..)
        | COp::Load2Bin(..)
        | COp::LoadConstBin(..) => 3,
        COp::Load2BinStore(..) | COp::LoadConstBinStore(..) => 4,
        _ => 1,
    }
}

/// First peephole pass over one function's decoded code: fuses hot
/// adjacent op sequences into one dispatch when no control flow can
/// land between them (the consumed slots are not block leaders, so no
/// branch, switch, or call-return resume targets them — returns resume
/// at `call_pc + 1`, and `Call` is never a fusion head). The consumed
/// slots keep their 1:1 ops but become unreachable; pc numbering is
/// untouched, so branch targets, leader flags, and trace sites stay
/// valid. Each fused op charges the instruction count the originals
/// would have cost, keeping budget semantics identical.
fn fuse_pairs(code: &mut [COp], leaders: &[bool]) {
    let mut pc = 0;
    while pc + 1 < code.len() {
        if leaders[pc + 1] {
            pc += 1;
            continue;
        }
        // Longest first. Quads: whole `dst = a op b` statements.
        // Operands of the multi-word forms must fit u16 to keep every
        // fused op at two words; longer functions simply fall back to
        // the shorter forms.
        if pc + 3 < code.len() && !leaders[pc + 2] && !leaders[pc + 3] {
            let fused = match (code[pc], code[pc + 1], code[pc + 2], code[pc + 3]) {
                (COp::Load(a), COp::Load(b), COp::Bin(op), COp::Store(d)) => {
                    match (u16::try_from(a), u16::try_from(b), u16::try_from(d)) {
                        (Ok(a), Ok(b), Ok(d)) => Some(COp::Load2BinStore(a, b, op, d)),
                        _ => None,
                    }
                }
                (COp::Load(n), COp::Const(v), COp::Bin(op), COp::Store(d)) => {
                    match (u16::try_from(n), u16::try_from(d)) {
                        (Ok(n), Ok(d)) => Some(COp::LoadConstBinStore(n, op, d, v)),
                        _ => None,
                    }
                }
                _ => None,
            };
            if let Some(op) = fused {
                code[pc] = op;
                pc += 4;
                continue;
            }
        }
        // Triples: loop heads and two-operand expressions.
        if pc + 2 < code.len() && !leaders[pc + 2] {
            let fused = match (code[pc], code[pc + 1], code[pc + 2]) {
                (COp::Load(a), COp::Load(b), COp::IfCmp(c, t)) => {
                    match (u16::try_from(a), u16::try_from(b), u16::try_from(t)) {
                        (Ok(a), Ok(b), Ok(t)) => Some(COp::Load2IfCmp(a, b, c, t)),
                        _ => None,
                    }
                }
                (COp::Load(n), COp::Const(v), COp::IfCmp(c, t)) => {
                    match (u16::try_from(n), u16::try_from(t)) {
                        (Ok(n), Ok(t)) => Some(COp::LoadConstIfCmp(n, c, t, v)),
                        _ => None,
                    }
                }
                (COp::Load(a), COp::Load(b), COp::Bin(op)) => {
                    match (u16::try_from(a), u16::try_from(b)) {
                        (Ok(a), Ok(b)) => Some(COp::Load2Bin(a, b, op)),
                        _ => None,
                    }
                }
                (COp::Load(n), COp::Const(v), COp::Bin(op)) => match u16::try_from(n) {
                    Ok(n) => Some(COp::LoadConstBin(n, op, v)),
                    _ => None,
                },
                _ => None,
            };
            if let Some(op) = fused {
                code[pc] = op;
                pc += 3;
                continue;
            }
        }
        let fused = match (code[pc], code[pc + 1]) {
            (COp::Load(a), COp::Load(b)) => Some(COp::Load2(a, b)),
            (COp::Load(n), COp::Const(v)) => Some(COp::LoadConst(n, v)),
            (COp::Store(a), COp::Load(b)) => Some(COp::StoreLoad(a, b)),
            (COp::Store(n), COp::Goto(t)) => Some(COp::StoreGoto(n, t)),
            (COp::Load(n), COp::If(c, t)) => Some(COp::LoadIf(n, c, t)),
            (COp::Load(n), COp::IfCmp(c, t)) => Some(COp::LoadIfCmp(n, c, t)),
            (COp::Const(v), COp::IfCmp(c, t)) => Some(COp::ConstIfCmp(v, c, t)),
            (COp::Iinc(n, d), COp::Goto(t)) => Some(COp::IincGoto(n, d, t)),
            (COp::Const(v), COp::Bin(op)) => Some(COp::ConstBin(v, op)),
            (COp::Load(n), COp::Bin(op)) => Some(COp::LoadBin(n, op)),
            (COp::Bin(op), COp::Const(v)) => Some(COp::BinConst(op, v)),
            (COp::Bin(op1), COp::Bin(op2)) => Some(COp::Bin2(op1, op2)),
            (COp::Bin(op), COp::Store(n)) => Some(COp::BinStore(op, n)),
            (COp::Store(n), COp::Iinc(m, d)) => Some(COp::StoreIinc(n, m, d)),
            (COp::Iinc(n, d), COp::Load(m)) => Some(COp::IincLoad(n, d, m)),
            _ => None,
        };
        match fused {
            Some(op) => {
                code[pc] = op;
                pc += 2;
            }
            None => pc += 1,
        }
    }
}

fn no_fault(op: BinOp) -> bool {
    !matches!(op, BinOp::Div | BinOp::Rem)
}

/// Second peephole pass over one function's code: fuses head sequences
/// too long or too wide for `fuse_pairs`, and runs that cross leaders.
/// The walk steps by [`width`], which visits exactly the reachable
/// heads, and dispatches on the head op (each pattern has its own);
/// a fusion additionally requires every interior head to be a
/// non-leader so no branch can land inside the group. Consumed slots
/// keep the ops `fuse_pairs` left them but become unreachable — pc
/// numbering, branch targets, and trace sites are untouched. Under
/// `full` (block and snapshot recording) no fusion may run through a
/// leader at all, so the two that do — an increment fused into its
/// loop header and the jump-threaded back edges — are skipped.
fn fuse_compiled(code: &mut [COp], leaders: &[bool], wides: &mut Vec<WideCmp>, full: bool) {
    let n = code.len();
    let mut wide = |w: WideCmp| {
        let idx = u32::try_from(wides.len()).expect("fits the code");
        wides.push(w);
        idx
    };
    let mut pc = 0;
    while pc < n {
        let fused: Option<(COp, usize)> = match code[pc] {
            // The watermark-decoder loop body (Load2 + ConstBin +
            // BinConst + BinStore) and the compute kernels' reduction
            // body (Load2 + LoadBin + ConstBin + BinStore): eight
            // original ops, pure, stack-free in one dispatch.
            COp::Load2(a, b)
                if pc + 8 <= n && !leaders[pc + 2] && !leaders[pc + 4] && !leaders[pc + 6] =>
            {
                match (code[pc + 2], code[pc + 4], code[pc + 6]) {
                    (COp::ConstBin(c1, o1), COp::BinConst(o2, c2), COp::BinStore(o3, d)) => {
                        let pure = no_fault(o1) && no_fault(o2) && no_fault(o3);
                        match (
                            pure,
                            u16::try_from(a),
                            u16::try_from(b),
                            u16::try_from(d),
                            i16::try_from(c1),
                            i16::try_from(c2),
                        ) {
                            (true, Ok(a), Ok(b), Ok(d), Ok(c1), Ok(c2)) => Some((
                                COp::FusedExpr {
                                    a,
                                    b,
                                    d,
                                    c1,
                                    c2,
                                    o1,
                                    o2,
                                    o3,
                                },
                                8,
                            )),
                            _ => None,
                        }
                    }
                    (COp::LoadBin(c, o1), COp::ConstBin(v, o2), COp::BinStore(o3, d)) => {
                        let pure = no_fault(o1) && no_fault(o2) && no_fault(o3);
                        match (
                            pure,
                            u16::try_from(a),
                            u16::try_from(b),
                            u16::try_from(c),
                            u16::try_from(d),
                            i32::try_from(v),
                        ) {
                            (true, Ok(a), Ok(b), Ok(c), Ok(d), Ok(v)) => Some((
                                COp::FusedExpr2 {
                                    a,
                                    b,
                                    c,
                                    d,
                                    o1,
                                    o2,
                                    o3,
                                    v,
                                },
                                8,
                            )),
                            _ => None,
                        }
                    }
                    _ => None,
                }
            }
            // The decoder loop's piece dispatch: Load + Switch.
            COp::Load(m) if pc + 2 <= n && !leaders[pc + 1] => {
                match (code[pc + 1], u16::try_from(m)) {
                    (COp::Switch(table), Ok(m)) => Some((COp::LoadSwitch(m, table), 2)),
                    _ => None,
                }
            }
            // The switch-controlled loop back edge: Iinc + Load + Switch.
            COp::IincLoad(iinc_n, d, m) if pc + 3 <= n && !leaders[pc + 2] => {
                match (code[pc + 2], u16::try_from(iinc_n), u16::try_from(m), i16::try_from(d)) {
                    (COp::Switch(table), Ok(iinc_n), Ok(m), Ok(d)) => Some((
                        COp::IincLoadSwitch {
                            n: iinc_n,
                            d,
                            m,
                            table,
                        },
                        3,
                    )),
                    _ => None,
                }
            }
            // An expression tail feeding a branch: Bin + If.
            COp::Bin(o) if pc + 2 <= n && !leaders[pc + 1] => match code[pc + 1] {
                COp::If(c, t) => Some((COp::BinIf(o, c, t), 2)),
                _ => None,
            },
            // A counting loop's increment feeding its compare-branch
            // header: Iinc + LoadConstIfCmp. The header may be a leader
            // (except under `full`) — its slot keeps the header op, so
            // branches landing on it execute that op; only the
            // fall-through edge takes the fused
            // path, which emits the identical branch event.
            COp::Iinc(iinc_n, d) if pc + 4 <= n && !(full && leaders[pc + 1]) => {
                match (code[pc + 1], u16::try_from(iinc_n), i16::try_from(d)) {
                    (COp::LoadConstIfCmp(m, cond, t, v), Ok(iinc_n), Ok(d)) => {
                        let op = match i32::try_from(v) {
                            Ok(v) => COp::IincLoadConstIfCmp {
                                n: iinc_n,
                                d,
                                m,
                                cond,
                                t,
                                v,
                            },
                            Err(_) => COp::IincLoadConstIfCmpW(wide(WideCmp {
                                n: iinc_n,
                                d,
                                m,
                                cond,
                                t,
                                tt: 0,
                                v,
                            })),
                        };
                        Some((op, 4))
                    }
                    _ => None,
                }
            }
            // Jump-threaded back edges: a `Goto`/`IincGoto` whose target
            // is a compare-branch loop header gets a copy of the header
            // inlined into the back-edge slot. The header itself stays
            // live at its own offset for every other predecessor, so pc
            // numbering, branch sites, and targets are untouched — the
            // back edge just stops costing a separate dispatch. The
            // header patterns are never fusion heads in any pass, so the
            // target slot always still holds the header op `fuse_pairs`
            // formed, whichever order the walk visits the two.
            COp::Goto(t) if !full && (t as usize) < n => {
                match (code[t as usize], u16::try_from(t)) {
                    (COp::LoadConstIfCmp(m, cond, tt, v), Ok(t)) => {
                        let op = match i32::try_from(v) {
                            Ok(v) => COp::GotoLoadConstIfCmp { m, cond, t, tt, v },
                            Err(_) => COp::GotoLoadConstIfCmpW(wide(WideCmp {
                                n: 0,
                                d: 0,
                                m,
                                cond,
                                t,
                                tt,
                                v,
                            })),
                        };
                        Some((op, 1))
                    }
                    _ => None,
                }
            }
            COp::IincGoto(iinc_n, d, t) if !full && (t as usize) < n => {
                match (
                    code[t as usize],
                    u16::try_from(iinc_n),
                    i16::try_from(d),
                    u16::try_from(t),
                ) {
                    (COp::Load2IfCmp(a, b, cond, tt), Ok(iinc_n), Ok(d), Ok(t)) => Some((
                        COp::IincGotoLoad2IfCmp {
                            n: iinc_n,
                            d,
                            a,
                            b,
                            cond,
                            t,
                            tt,
                        },
                        2,
                    )),
                    _ => None,
                }
            }
            _ => None,
        };
        match fused {
            Some((op, width)) => {
                code[pc] = op;
                pc += width;
            }
            None => pc += width(code[pc]),
        }
    }
}

/// Third pass: collapses a whole compute-kernel loop iteration — a
/// [`COp::FusedExpr2`] body immediately followed by its
/// [`COp::IincGotoLoad2IfCmp`] back edge — into one [`COp::Kernel`]
/// dispatch over a side-table operand block. Both constituent ops were
/// built by `fuse_compiled`, so the pattern is only ever present where
/// their own preconditions already held; the back-edge slot keeps its
/// threaded form for branches that land on it directly.
fn fuse_kernels(code: &mut [COp], kernels: &mut Vec<KernelLoop>, expr_ifs: &mut Vec<ExprIf>) {
    let n = code.len();
    for pc in 0..n.saturating_sub(8) {
        if let (
            COp::FusedExpr {
                a,
                b,
                d,
                c1,
                c2,
                o1,
                o2,
                o3,
            },
            COp::LoadIf(lif_n, cond, t),
        ) = (code[pc], code[pc + 8])
        {
            if let (Ok(lif_n), Ok(t)) = (u16::try_from(lif_n), u16::try_from(t)) {
                let idx = u32::try_from(expr_ifs.len()).expect("fits the code");
                expr_ifs.push(ExprIf {
                    a,
                    b,
                    d,
                    c1,
                    c2,
                    o1,
                    o2,
                    o3,
                    n: lif_n,
                    cond,
                    t,
                });
                code[pc] = COp::KernelExprIf(idx);
                continue;
            }
        }
        if let (
            COp::FusedExpr2 {
                a,
                b,
                c,
                d,
                o1,
                o2,
                o3,
                v,
            },
            COp::IincGotoLoad2IfCmp {
                n: iinc_n,
                d: dd,
                a: ca,
                b: cb,
                cond,
                t,
                tt,
            },
        ) = (code[pc], code[pc + 8])
        {
            let idx = u32::try_from(kernels.len()).expect("fits the code");
            kernels.push(KernelLoop {
                a,
                b,
                c,
                d,
                o1,
                o2,
                o3,
                v,
                n: iinc_n,
                dd,
                ca,
                cb,
                cond,
                t,
                tt,
            });
            code[pc] = COp::Kernel(idx);
        }
    }
}

/// Runs a compiled program. `MODE` selects what is recorded at
/// monomorphization time: the recognition configs are [`BRANCHES`] and
/// [`OFF`], whose loops carry no block or snapshot code; [`FULL`] also
/// emits the block and snapshot events `config` asks for at each block
/// leader it dispatches, and needs `compiled` built for [`FULL`].
pub(crate) fn run_compiled<S: TraceSink, const MODE: u8>(
    compiled: &Compiled,
    program: &Program,
    input: &[i64],
    budget: u64,
    config: &TraceConfig,
    sink: &mut S,
) -> Result<RunResult, VmError> {
    let code = compiled.code.as_slice();
    let mut statics = vec![0i64; program.statics.len()];
    let mut heap: Vec<Vec<i64>> = Vec::new();
    let mut heap_cells: usize = 0;
    let mut output = Vec::new();
    let mut input_pos = 0usize;
    let mut executed: u64 = 0;
    let record_branches = config.branches;
    // Per flattened slot, the snapshots taken so far (`FULL` only).
    let mut snapshot_counts = if MODE == FULL && config.snapshots {
        vec![0u32; code.len()]
    } else {
        Vec::new()
    };

    let mut stack: Vec<i64> = Vec::with_capacity(64);
    let mut locals: Vec<i64> = Vec::with_capacity(64);
    let mut frames: Vec<CFrame> = Vec::new();

    let entry = program.entry.0;
    let Some(entry_fn) = program.functions.get(entry as usize) else {
        return Err(VmError::BadEntry {
            func: program.entry,
        });
    };
    locals.resize(entry_fn.num_locals as usize, 0);
    let mut func: u32 = entry;
    let mut base: usize = compiled.starts[entry as usize] as usize;
    let mut pc: usize = base;
    let mut locals_base: usize = 0;
    let mut stack_base: usize = 0;

    loop {
        let op = code[pc];
        executed += 1;
        if executed > budget {
            // The guard fetch *is* the fell-off-the-end fault, and —
            // like the reference engine's `pc >= code.len()` test — it
            // precedes the instruction charge, so a guard fetched
            // exactly at budget exhaustion still reports `FellOffEnd`.
            // Testing for it only on this cold path keeps the guard
            // comparison out of the dispatch loop entirely; the warm
            // path handles guards in their own match arm below.
            if let COp::EndGuard(f) = op {
                return Err(VmError::FellOffEnd { func: FuncId(f) });
            }
            return Err(VmError::BudgetExhausted { budget });
        }
        if MODE == FULL && compiled.leaders[pc] {
            let site = Site {
                func: FuncId(func),
                pc: pc - base,
            };
            if config.blocks {
                sink.enter_block(site);
            }
            if config.snapshots {
                let seen = &mut snapshot_counts[pc];
                if config.snapshot_limit == 0 || *seen < config.snapshot_limit {
                    *seen += 1;
                    sink.snapshot(site, &locals[locals_base..], &statics);
                }
            }
        }

        // Errors and trace sites report *function-relative* offsets —
        // one subtraction recovers them from the flat pc.
        macro_rules! pop {
            () => {
                pop!(pc - base)
            };
            ($err_pc:expr) => {{
                if stack.len() <= stack_base {
                    return Err(VmError::StackUnderflow {
                        func: FuncId(func),
                        pc: $err_pc,
                    });
                }
                stack.pop().expect("stack is above the frame base")
            }};
        }

        macro_rules! binop {
            ($op:expr, $a:expr, $b:expr, $err_pc:expr) => {{
                let a: i64 = $a;
                let b: i64 = $b;
                match $op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(VmError::DivisionByZero {
                                func: FuncId(func),
                                pc: $err_pc,
                            });
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return Err(VmError::DivisionByZero {
                                func: FuncId(func),
                                pc: $err_pc,
                            });
                        }
                        a.wrapping_rem(b)
                    }
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => a.wrapping_shl(b as u32 & 63),
                    BinOp::Shr => a.wrapping_shr(b as u32 & 63),
                    BinOp::UShr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
                }
            }};
        }

        // A fused op charges the instructions the originals would have
        // cost; the earlier ops' work is unobservable once the budget
        // error returns, so one combined check is equivalent to the
        // reference engine's per-op checks.
        macro_rules! charge {
            ($extra:expr) => {
                executed += $extra;
                if executed > budget {
                    return Err(VmError::BudgetExhausted { budget });
                }
            };
        }

        macro_rules! branch_event {
            ($site_rel:expr, $next_rel:expr) => {
                if MODE == BRANCHES || (MODE == FULL && record_branches) {
                    sink.branch(
                        Site {
                            func: FuncId(func),
                            pc: $site_rel,
                        },
                        $next_rel,
                    );
                }
            };
        }

        match op {
            COp::Const(v) => {
                stack.push(v);
                pc += 1;
            }
            COp::Load(n) => {
                stack.push(locals[locals_base + n as usize]);
                pc += 1;
            }
            COp::Store(n) => {
                let v = pop!();
                locals[locals_base + n as usize] = v;
                pc += 1;
            }
            COp::Iinc(n, d) => {
                let slot = &mut locals[locals_base + n as usize];
                *slot = slot.wrapping_add(d as i64);
                pc += 1;
            }
            COp::Bin(o) => {
                let b = pop!();
                let a = pop!();
                let v = binop!(o, a, b, pc - base);
                stack.push(v);
                pc += 1;
            }
            COp::Neg => {
                let v = pop!();
                stack.push(v.wrapping_neg());
                pc += 1;
            }
            COp::Dup => {
                if stack.len() <= stack_base {
                    return Err(VmError::StackUnderflow {
                        func: FuncId(func),
                        pc: pc - base,
                    });
                }
                let v = *stack.last().expect("stack is above the frame base");
                stack.push(v);
                pc += 1;
            }
            COp::Pop => {
                pop!();
                pc += 1;
            }
            COp::Swap => {
                let b = pop!();
                let a = pop!();
                stack.push(b);
                stack.push(a);
                pc += 1;
            }
            COp::GetStatic(s) => {
                stack.push(statics[s as usize]);
                pc += 1;
            }
            COp::PutStatic(s) => {
                let v = pop!();
                statics[s as usize] = v;
                pc += 1;
            }
            COp::NewArray => {
                let len = pop!();
                if len < 0 {
                    return Err(VmError::NegativeArrayLength {
                        func: FuncId(func),
                        pc: pc - base,
                        len,
                    });
                }
                heap_cells = heap_charge(heap_cells, len, FuncId(func), pc - base)?;
                heap.push(vec![0i64; len as usize]);
                stack.push(heap.len() as i64 - 1);
                pc += 1;
            }
            COp::ALoad => {
                let idx = pop!();
                let handle = pop!();
                let v = *array(&heap, handle, FuncId(func), pc - base)?
                    .get(idx as usize)
                    .ok_or(VmError::BadArrayAccess {
                        func: FuncId(func),
                        pc: pc - base,
                        value: idx,
                    })?;
                stack.push(v);
                pc += 1;
            }
            COp::AStore => {
                let v = pop!();
                let idx = pop!();
                let handle = pop!();
                let arr = array_mut(&mut heap, handle, FuncId(func), pc - base)?;
                let slot = arr.get_mut(idx as usize).ok_or(VmError::BadArrayAccess {
                    func: FuncId(func),
                    pc: pc - base,
                    value: idx,
                })?;
                *slot = v;
                pc += 1;
            }
            COp::ArrayLen => {
                let handle = pop!();
                let len = array(&heap, handle, FuncId(func), pc - base)?.len() as i64;
                stack.push(len);
                pc += 1;
            }
            COp::Goto(t) => pc = base + t as usize,
            COp::If(cond, t) => {
                let rel = pc - base;
                let v = pop!();
                let next = if cond.eval(v, 0) { t as usize } else { rel + 1 };
                branch_event!(rel, next);
                pc = base + next;
            }
            COp::IfCmp(cond, t) => {
                let rel = pc - base;
                let b = pop!();
                let a = pop!();
                let next = if cond.eval(a, b) { t as usize } else { rel + 1 };
                branch_event!(rel, next);
                pc = base + next;
            }
            COp::Switch(idx) => {
                let v = pop!();
                let t = compiled.switches[idx as usize].target_for(v);
                pc = base + t as usize;
            }
            COp::Call {
                entry,
                callee,
                argc,
                num_locals,
            } => {
                if frames.len() + 1 >= MAX_CALL_DEPTH {
                    return Err(VmError::CallStackOverflow);
                }
                let argc = argc as usize;
                if stack.len() - stack_base < argc {
                    return Err(VmError::StackUnderflow {
                        func: FuncId(func),
                        pc: pc - base,
                    });
                }
                locals_charge(locals.len(), num_locals as usize, FuncId(func), pc - base)?;
                let new_locals_base = locals.len();
                let split = stack.len() - argc;
                locals.extend_from_slice(&stack[split..]);
                locals.resize(new_locals_base + num_locals as usize, 0);
                stack.truncate(split);
                frames.push(CFrame {
                    ret_pc: pc + 1,
                    base,
                    func,
                    locals_base,
                    stack_base,
                });
                func = callee;
                base = entry as usize;
                pc = base;
                locals_base = new_locals_base;
                stack_base = split;
            }
            COp::BadOperand => {
                return Err(VmError::BadOperand {
                    func: FuncId(func),
                    pc: pc - base,
                })
            }
            COp::Return(with_value) => {
                let ret = if with_value { Some(pop!()) } else { None };
                stack.truncate(stack_base);
                locals.truncate(locals_base);
                match frames.pop() {
                    Some(caller) => {
                        pc = caller.ret_pc;
                        base = caller.base;
                        func = caller.func;
                        locals_base = caller.locals_base;
                        stack_base = caller.stack_base;
                        if let Some(v) = ret {
                            stack.push(v);
                        }
                    }
                    None => {
                        return Ok(RunResult {
                            output,
                            instructions: executed,
                            statics,
                        });
                    }
                }
            }
            COp::Print => {
                let v = pop!();
                output.push(v);
                pc += 1;
            }
            COp::ReadInput => {
                let v = input.get(input_pos).copied().unwrap_or(0);
                input_pos += 1;
                stack.push(v);
                pc += 1;
            }
            COp::Nop => pc += 1,
            COp::EndGuard(f) => return Err(VmError::FellOffEnd { func: FuncId(f) }),

            COp::Load2(a, b) => {
                charge!(1);
                stack.push(locals[locals_base + a as usize]);
                stack.push(locals[locals_base + b as usize]);
                pc += 2;
            }
            COp::LoadConst(n, v) => {
                charge!(1);
                stack.push(locals[locals_base + n as usize]);
                stack.push(v);
                pc += 2;
            }
            COp::StoreLoad(a, b) => {
                charge!(1);
                let v = pop!();
                locals[locals_base + a as usize] = v;
                stack.push(locals[locals_base + b as usize]);
                pc += 2;
            }
            COp::StoreGoto(n, t) => {
                charge!(1);
                let v = pop!();
                locals[locals_base + n as usize] = v;
                pc = base + t as usize;
            }
            COp::LoadIf(n, cond, t) => {
                charge!(1);
                let rel = pc - base;
                let v = locals[locals_base + n as usize];
                let next = if cond.eval(v, 0) { t as usize } else { rel + 2 };
                branch_event!(rel + 1, next);
                pc = base + next;
            }
            COp::LoadIfCmp(n, cond, t) => {
                charge!(1);
                let rel = pc - base;
                // The load pushed the *second* operand; the first comes
                // from beneath it on the stack.
                let b = locals[locals_base + n as usize];
                let a = pop!(rel + 1);
                let next = if cond.eval(a, b) { t as usize } else { rel + 2 };
                branch_event!(rel + 1, next);
                pc = base + next;
            }
            COp::ConstIfCmp(v, cond, t) => {
                charge!(1);
                let rel = pc - base;
                let a = pop!(rel + 1);
                let next = if cond.eval(a, v) { t as usize } else { rel + 2 };
                branch_event!(rel + 1, next);
                pc = base + next;
            }
            COp::IincGoto(n, d, t) => {
                charge!(1);
                let slot = &mut locals[locals_base + n as usize];
                *slot = slot.wrapping_add(d as i64);
                pc = base + t as usize;
            }
            COp::Load2IfCmp(a, b, cond, t) => {
                charge!(2);
                let rel = pc - base;
                let x = locals[locals_base + a as usize];
                let y = locals[locals_base + b as usize];
                let next = if cond.eval(x, y) { t as usize } else { rel + 3 };
                branch_event!(rel + 2, next);
                pc = base + next;
            }
            COp::LoadConstIfCmp(n, cond, t, v) => {
                charge!(2);
                let rel = pc - base;
                let x = locals[locals_base + n as usize];
                let next = if cond.eval(x, v) { t as usize } else { rel + 3 };
                branch_event!(rel + 2, next);
                pc = base + next;
            }
            COp::ConstBin(v, o) => {
                charge!(1);
                let rel = pc - base;
                let a = pop!(rel + 1);
                let r = binop!(o, a, v, rel + 1);
                stack.push(r);
                pc += 2;
            }
            COp::LoadBin(n, o) => {
                charge!(1);
                let rel = pc - base;
                let b = locals[locals_base + n as usize];
                let a = pop!(rel + 1);
                let r = binop!(o, a, b, rel + 1);
                stack.push(r);
                pc += 2;
            }
            COp::BinConst(o, v) => {
                charge!(1);
                let b = pop!();
                let a = pop!();
                let r = binop!(o, a, b, pc - base);
                stack.push(r);
                stack.push(v);
                pc += 2;
            }
            COp::Bin2(o1, o2) => {
                charge!(1);
                let rel = pc - base;
                let b = pop!();
                let a = pop!();
                let r1 = binop!(o1, a, b, rel);
                let c = pop!(rel + 1);
                let r2 = binop!(o2, c, r1, rel + 1);
                stack.push(r2);
                pc += 2;
            }
            COp::BinStore(o, n) => {
                charge!(1);
                let b = pop!();
                let a = pop!();
                let r = binop!(o, a, b, pc - base);
                locals[locals_base + n as usize] = r;
                pc += 2;
            }
            COp::StoreIinc(n, m, d) => {
                charge!(1);
                let v = pop!();
                locals[locals_base + n as usize] = v;
                let slot = &mut locals[locals_base + m as usize];
                *slot = slot.wrapping_add(d as i64);
                pc += 2;
            }
            COp::IincLoad(n, d, m) => {
                charge!(1);
                let slot = &mut locals[locals_base + n as usize];
                *slot = slot.wrapping_add(d as i64);
                stack.push(locals[locals_base + m as usize]);
                pc += 2;
            }
            COp::Load2Bin(a, b, o) => {
                charge!(2);
                let x = locals[locals_base + a as usize];
                let y = locals[locals_base + b as usize];
                let r = binop!(o, x, y, pc - base + 2);
                stack.push(r);
                pc += 3;
            }
            COp::LoadConstBin(n, o, v) => {
                charge!(2);
                let x = locals[locals_base + n as usize];
                let r = binop!(o, x, v, pc - base + 2);
                stack.push(r);
                pc += 3;
            }
            COp::Load2BinStore(a, b, o, d) => {
                charge!(3);
                let x = locals[locals_base + a as usize];
                let y = locals[locals_base + b as usize];
                let r = binop!(o, x, y, pc - base + 2);
                locals[locals_base + d as usize] = r;
                pc += 4;
            }
            COp::LoadConstBinStore(n, o, d, v) => {
                charge!(3);
                let x = locals[locals_base + n as usize];
                let r = binop!(o, x, v, pc - base + 2);
                locals[locals_base + d as usize] = r;
                pc += 4;
            }

            COp::FusedExpr {
                a,
                b,
                d,
                c1,
                c2,
                o1,
                o2,
                o3,
            } => {
                // Eight original ops; pure by construction (no Div/Rem,
                // all operands produced within the group).
                charge!(7);
                let rel = pc - base;
                let x = locals[locals_base + a as usize];
                let y = locals[locals_base + b as usize];
                let r1 = binop!(o1, y, c1 as i64, rel + 3);
                let r2 = binop!(o2, x, r1, rel + 4);
                let r3 = binop!(o3, r2, c2 as i64, rel + 6);
                locals[locals_base + d as usize] = r3;
                pc += 8;
            }
            COp::BinIf(o, cond, t) => {
                let rel = pc - base;
                let b = pop!();
                let a = pop!();
                // Charge the `If` only after the `Bin` executed: a
                // division fault exactly at budget exhaustion must
                // report the fault, as the unfused sequence would.
                let r = binop!(o, a, b, rel);
                charge!(1);
                let next = if cond.eval(r, 0) { t as usize } else { rel + 2 };
                branch_event!(rel + 1, next);
                pc = base + next;
            }
            COp::IincLoadSwitch { n, d, m, table } => {
                charge!(2);
                let slot = &mut locals[locals_base + n as usize];
                *slot = slot.wrapping_add(d as i64);
                let v = locals[locals_base + m as usize];
                let t = compiled.switches[table as usize].target_for(v);
                pc = base + t as usize;
            }
            COp::FusedExpr2 {
                a,
                b,
                c,
                d,
                o1,
                o2,
                o3,
                v,
            } => {
                // Eight original ops; pure by construction (no
                // Div/Rem, all intermediates produced in-group).
                charge!(7);
                let rel = pc - base;
                let x = locals[locals_base + a as usize];
                let y = locals[locals_base + b as usize];
                let z = locals[locals_base + c as usize];
                let r1 = binop!(o1, y, z, rel + 3);
                let r2 = binop!(o2, r1, v as i64, rel + 5);
                let r3 = binop!(o3, x, r2, rel + 6);
                locals[locals_base + d as usize] = r3;
                pc += 8;
            }
            COp::IincLoadConstIfCmp {
                n,
                d,
                m,
                cond,
                t,
                v,
            } => {
                charge!(3);
                let rel = pc - base;
                let slot = &mut locals[locals_base + n as usize];
                *slot = slot.wrapping_add(d as i64);
                let x = locals[locals_base + m as usize];
                let next = if cond.eval(x, v as i64) {
                    t as usize
                } else {
                    rel + 4
                };
                branch_event!(rel + 3, next);
                pc = base + next;
            }
            COp::GotoLoadConstIfCmp { m, cond, t, tt, v } => {
                charge!(3);
                let hdr = t as usize;
                let x = locals[locals_base + m as usize];
                let next = if cond.eval(x, v as i64) {
                    tt as usize
                } else {
                    hdr + 3
                };
                branch_event!(hdr + 2, next);
                pc = base + next;
            }
            COp::IincGotoLoad2IfCmp {
                n,
                d,
                a,
                b,
                cond,
                t,
                tt,
            } => {
                charge!(4);
                let hdr = t as usize;
                let slot = &mut locals[locals_base + n as usize];
                *slot = slot.wrapping_add(d as i64);
                let x = locals[locals_base + a as usize];
                let y = locals[locals_base + b as usize];
                let next = if cond.eval(x, y) {
                    tt as usize
                } else {
                    hdr + 3
                };
                branch_event!(hdr + 2, next);
                pc = base + next;
            }
            COp::LoadSwitch(m, table) => {
                charge!(1);
                let v = locals[locals_base + m as usize];
                let t = compiled.switches[table as usize].target_for(v);
                pc = base + t as usize;
            }
            COp::IincLoadConstIfCmpW(idx) => {
                charge!(3);
                let rel = pc - base;
                let w = &compiled.wides[idx as usize];
                let slot = &mut locals[locals_base + w.n as usize];
                *slot = slot.wrapping_add(w.d as i64);
                let x = locals[locals_base + w.m as usize];
                let next = if w.cond.eval(x, w.v) {
                    w.t as usize
                } else {
                    rel + 4
                };
                branch_event!(rel + 3, next);
                pc = base + next;
            }
            COp::GotoLoadConstIfCmpW(idx) => {
                charge!(3);
                let w = &compiled.wides[idx as usize];
                let hdr = w.t as usize;
                let x = locals[locals_base + w.m as usize];
                let next = if w.cond.eval(x, w.v) {
                    w.tt as usize
                } else {
                    hdr + 3
                };
                branch_event!(hdr + 2, next);
                pc = base + next;
            }
            COp::KernelExprIf(idx) => {
                // Ten original ops: the pure bit-extract body plus the
                // `Load` + `If` exit test; the branch event at the end
                // is the only observable effect.
                charge!(9);
                let rel = pc - base;
                let k = &compiled.expr_ifs[idx as usize];
                let x = locals[locals_base + k.a as usize];
                let y = locals[locals_base + k.b as usize];
                let r1 = binop!(k.o1, y, k.c1 as i64, rel + 3);
                let r2 = binop!(k.o2, x, r1, rel + 4);
                let r3 = binop!(k.o3, r2, k.c2 as i64, rel + 6);
                locals[locals_base + k.d as usize] = r3;
                let v = locals[locals_base + k.n as usize];
                let next = if k.cond.eval(v, 0) {
                    k.t as usize
                } else {
                    rel + 10
                };
                branch_event!(rel + 9, next);
                pc = base + next;
            }
            COp::Kernel(idx) => {
                // Thirteen original ops: the pure reduction body plus
                // the threaded back edge; one combined charge is
                // equivalent because nothing observable happens before
                // the single branch event at the end.
                charge!(12);
                let rel = pc - base;
                let k = &compiled.kernels[idx as usize];
                let x = locals[locals_base + k.a as usize];
                let y = locals[locals_base + k.b as usize];
                let z = locals[locals_base + k.c as usize];
                let r1 = binop!(k.o1, y, z, rel + 3);
                let r2 = binop!(k.o2, r1, k.v as i64, rel + 5);
                let r3 = binop!(k.o3, x, r2, rel + 6);
                locals[locals_base + k.d as usize] = r3;
                let slot = &mut locals[locals_base + k.n as usize];
                *slot = slot.wrapping_add(k.dd as i64);
                let cx = locals[locals_base + k.ca as usize];
                let cy = locals[locals_base + k.cb as usize];
                let hdr = k.t as usize;
                let next = if k.cond.eval(cx, cy) {
                    k.tt as usize
                } else {
                    hdr + 3
                };
                branch_event!(hdr + 2, next);
                pc = base + next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::cfg::Cfg;
    use crate::interp::Vm;

    #[test]
    fn compiled_ops_stay_16_bytes() {
        // `Insn` is heap-headed and ~40 bytes; the flattened array's
        // cache traffic is the dispatch loop's memory bound.
        assert!(std::mem::size_of::<COp>() <= 16);
    }

    /// A two-function program: `main` calls `callee` once.
    fn call_program() -> (Program, FuncId, FuncId) {
        let mut pb = ProgramBuilder::new();
        let mut callee = FunctionBuilder::new("sub", 2, 1);
        callee.load(0).load(1).sub().ret();
        let callee_id = pb.add_function(callee.finish().unwrap());
        let mut main = FunctionBuilder::new("main", 0, 0);
        main.push(1).push(2).call(callee_id).print().ret_void();
        let main_id = pb.add_function(main.finish().unwrap());
        (pb.finish(main_id).unwrap(), callee_id, main_id)
    }

    #[test]
    fn full_mode_leaders_match_cfg_is_leader_per_function() {
        use crate::insn::Cond;
        let mut pb = ProgramBuilder::new();
        let mut sub = FunctionBuilder::new("abs", 1, 1);
        let neg = sub.new_label();
        sub.load(0).if_zero(Cond::Lt, neg);
        sub.load(0).ret();
        sub.bind(neg);
        sub.load(0).raw(Insn::Neg).ret();
        let sub_id = pb.add_function(sub.finish().unwrap());
        let mut f = FunctionBuilder::new("main", 0, 1);
        let head = f.new_label();
        let out = f.new_label();
        f.bind(head);
        f.load(0).push(10).if_cmp(Cond::Ge, out);
        f.load(0).call(sub_id).print().iinc(0, 1).goto(head);
        f.bind(out);
        f.ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        let compiled = Compiled::build(&p, FULL);
        for (id, func) in p.iter_functions() {
            let lo = compiled.starts[id.0 as usize] as usize;
            let n = func.code.len();
            let cfg = Cfg::build(func);
            assert_eq!(
                compiled.leaders[lo..lo + n],
                cfg.is_leader[..],
                "{}",
                func.name
            );
            assert!(!compiled.leaders[lo + n], "a guard slot is no leader");
        }
        // The recognition modes keep no leader table.
        assert!(Compiled::build(&p, BRANCHES).leaders.is_empty());
    }

    #[test]
    fn a_call_carries_its_callees_entry_arity_and_frame_size() {
        let (p, callee_id, main_id) = call_program();
        let compiled = Compiled::build(&p, BRANCHES);
        let main_start = compiled.starts[main_id.0 as usize] as usize;
        assert_eq!(
            compiled.code[main_start + 2],
            COp::Call {
                entry: compiled.starts[callee_id.0 as usize],
                callee: callee_id.0,
                argc: 2,
                num_locals: 3,
            }
        );
    }

    #[test]
    fn out_of_range_targets_clamp_to_the_guard_and_fall_off_the_end() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        f.ret_void();
        let id = pb.add_function(f.finish().unwrap());
        let mut p = pb.finish_unverified(id);
        p.function_mut(id).code.insert(0, Insn::Goto(usize::MAX));
        let compiled = Compiled::build(&p, BRANCHES);
        // code.len() == 2: the clamped target is the guard slot.
        assert_eq!(compiled.code[0], COp::Goto(2));
        assert_eq!(compiled.code[2], COp::EndGuard(id.0));
        let want = Err(VmError::FellOffEnd { func: id });
        let vm = Vm::new(&p);
        assert_eq!(vm.run(), want);
        assert_eq!(vm.run_reference(), want);
    }

    #[test]
    fn switch_tables_move_out_of_line_with_clamped_targets() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        let a = f.new_label();
        let d = f.new_label();
        f.push(1);
        f.switch(&[(1, a), (2, a)], d);
        f.bind(a);
        f.ret_void();
        f.bind(d);
        f.ret_void();
        let id = pb.add_function(f.finish().unwrap());
        let mut p = pb.finish(id).unwrap();
        let compiled = Compiled::build(&p, BRANCHES);
        assert_eq!(compiled.code[1], COp::Switch(0));
        assert_eq!(compiled.switches.len(), 1);
        assert_eq!(compiled.switches[0].cases, vec![(1, 2), (2, 2)]);
        assert_eq!(compiled.switches[0].default, 3);

        // A case past the end lands on the guard slot (index 4).
        p.function_mut(id).code[1] = Insn::Switch {
            cases: vec![(1, 99)],
            default: 3,
        };
        let compiled = Compiled::build(&p, BRANCHES);
        assert_eq!(compiled.switches[0].cases, vec![(1, 4)]);
        assert_eq!(Vm::new(&p).run(), Err(VmError::FellOffEnd { func: id }));
    }

    #[test]
    fn fused_expr_matches_the_embedder_bit_extract_shape() {
        // t = (x >> (i - 1)) & 1 — the loop_snippet body shape. The
        // body head is a branch target (as in the embedder's loop), so
        // the preceding store can't fuse across into the first load.
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 3); // x, i, t
        f.push(0b1010).store(0).push(2).store(1);
        let body = f.new_label();
        f.goto(body);
        f.bind(body);
        f.load(0).load(1);
        f.push(1).sub();
        f.bin(BinOp::UShr);
        f.push(1).bin(BinOp::And);
        f.store(2);
        f.load(2).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        let compiled = Compiled::build(&p, BRANCHES);
        assert!(
            compiled
                .code
                .iter()
                .any(|op| matches!(op, COp::FusedExpr { .. })),
            "the bit-extract body fused: {:?}",
            compiled.code
        );
        let mut sink = crate::trace::Trace::new();
        let config = TraceConfig::off();
        let r = run_compiled::<_, OFF>(&compiled, &p, &[], 1000, &config, &mut sink).unwrap();
        assert_eq!(r.output, vec![(0b1010 >> 1) & 1]);
    }
}
