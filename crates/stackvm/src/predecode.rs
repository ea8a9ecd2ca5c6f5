//! Decode-once program representation for the interpreter hot loop.
//!
//! Recognition re-traces every suspect copy (Section 4.3: recognition
//! cost is dominated by running the program), so per-dynamic-step work in
//! [`crate::interp::Vm`] is the throughput limit of the whole recognizer.
//! [`Predecoded`] flattens a [`Program`] into a dense internal form once,
//! so the dispatch loop never touches the source enum again:
//!
//! * ops are a fixed 16 bytes (switch case tables are stored out of
//!   line), halving the cache traffic of the 40-byte [`Insn`] vector;
//! * call arity and callee frame size are resolved into the call site,
//!   removing the per-call function-table lookup;
//! * operand indices (locals, statics, callees) and branch targets are
//!   validated while building — out-of-range branch targets are clamped
//!   to the function length (any such target means [`VmError::FellOffEnd`]
//!   at the next fetch, exactly as the reference interpreter behaves),
//!   and a call site that cannot be resolved falls back to [`Op::BadCall`]
//!   so the slow path reproduces reference semantics faithfully;
//! * block-leader flags are precomputed per pc, so the embedding-phase
//!   block/snapshot recording needs no CFG lookup either.
//!
//! [`VmError::FellOffEnd`]: crate::VmError::FellOffEnd

use crate::insn::{BinOp, Cond, Insn};
use crate::program::{Function, Program};

/// A dense, pre-validated instruction. Branch targets are absolute
/// instruction indices (already clamped into `0..=code.len()`), and the
/// call variant carries the callee's resolved arity and frame size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
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
    /// Index into [`PreFunction::switches`].
    Switch(u32),
    Call {
        callee: u32,
        argc: u32,
        num_locals: u32,
    },
    /// A call whose callee could not be resolved while predecoding (bad
    /// function id, or arity exceeding the callee frame). Executed on the
    /// slow path so hand-built broken programs keep reference behavior.
    BadCall(u32),
    Return(bool),
    Print,
    ReadInput,
    Nop,

    // ---- fused superinstructions (peephole, see `fuse_pairs`) ----
    // Each replaces the op at its own pc and consumes the following
    // one (or two); the consumed slots keep their original ops but
    // become unreachable, so pc numbering — branch targets, trace
    // sites, leader flags — is untouched. A fused op reports the
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
}

/// Number of original instruction slots a dense op occupies: 1 for a
/// plain op, 2/3/4 for fused superinstructions. Stepping a function's
/// code by these widths visits exactly the reachable op heads (consumed
/// slots are never leaders, so no control flow lands between a head and
/// the next) — the compile tier's translator walks heads this way.
pub(crate) fn op_width(op: Op) -> usize {
    match op {
        Op::Load2(..)
        | Op::LoadConst(..)
        | Op::StoreLoad(..)
        | Op::StoreGoto(..)
        | Op::LoadIf(..)
        | Op::LoadIfCmp(..)
        | Op::ConstIfCmp(..)
        | Op::IincGoto(..)
        | Op::ConstBin(..)
        | Op::LoadBin(..)
        | Op::BinConst(..)
        | Op::Bin2(..)
        | Op::BinStore(..)
        | Op::StoreIinc(..)
        | Op::IincLoad(..) => 2,
        Op::Load2IfCmp(..) | Op::LoadConstIfCmp(..) | Op::Load2Bin(..) | Op::LoadConstBin(..) => 3,
        Op::Load2BinStore(..) | Op::LoadConstBinStore(..) => 4,
        _ => 1,
    }
}

/// One switch's out-of-line dispatch table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SwitchTable {
    pub(crate) cases: Vec<(i64, u32)>,
    pub(crate) default: u32,
}

/// One function in dense form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PreFunction {
    pub(crate) num_locals: u32,
    pub(crate) code: Vec<Op>,
    /// `leaders[pc]` — whether `pc` starts a basic block (same defini-
    /// tion as [`crate::cfg::Cfg::is_leader`], computed without building
    /// blocks or successor lists).
    pub(crate) leaders: Vec<bool>,
    pub(crate) switches: Vec<SwitchTable>,
}

/// A whole program in dense form, built once per [`Program`] and
/// dispatched over by [`crate::interp::Vm::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predecoded {
    pub(crate) funcs: Vec<PreFunction>,
}

impl Predecoded {
    /// Flattens every function of `program`. Linear in static code size.
    pub fn build(program: &Program) -> Predecoded {
        Predecoded {
            funcs: program
                .functions
                .iter()
                .map(|f| predecode_function(f, program))
                .collect(),
        }
    }
}

fn predecode_function(func: &Function, program: &Program) -> PreFunction {
    let n = func.code.len();
    // Any target >= n faults with FellOffEnd at the next fetch; clamping
    // to n keeps that behavior while letting targets live in a u32.
    let clamp = |t: usize| -> u32 { t.min(n) as u32 };

    // One pass marks block leaders (same definition as
    // [`crate::cfg::Cfg::is_leader`]) and translates the ops; fusion
    // below needs the finished leader flags.
    let mut leaders = vec![false; n];
    if n > 0 {
        leaders[0] = true;
    }
    let mut switches = Vec::new();
    let mut code: Vec<Op> = Vec::with_capacity(n);
    for (pc, insn) in func.code.iter().enumerate() {
        insn.for_each_target(|t| {
            if t < n {
                leaders[t] = true;
            }
        });
        let ends_block = insn.is_branch() || matches!(insn, Insn::Return(_));
        if ends_block && pc + 1 < n {
            leaders[pc + 1] = true;
        }
        code.push(match insn {
            Insn::Const(v) => Op::Const(*v),
            Insn::Load(i) => Op::Load(u32::from(*i)),
            Insn::Store(i) => Op::Store(u32::from(*i)),
            Insn::Iinc(i, d) => Op::Iinc(u32::from(*i), *d),
            Insn::Bin(op) => Op::Bin(*op),
            Insn::Neg => Op::Neg,
            Insn::Dup => Op::Dup,
            Insn::Pop => Op::Pop,
            Insn::Swap => Op::Swap,
            Insn::GetStatic(s) => Op::GetStatic(*s),
            Insn::PutStatic(s) => Op::PutStatic(*s),
            Insn::NewArray => Op::NewArray,
            Insn::ALoad => Op::ALoad,
            Insn::AStore => Op::AStore,
            Insn::ArrayLen => Op::ArrayLen,
            Insn::Goto(t) => Op::Goto(clamp(*t)),
            Insn::If(c, t) => Op::If(*c, clamp(*t)),
            Insn::IfCmp(c, t) => Op::IfCmp(*c, clamp(*t)),
            Insn::Switch { cases, default } => {
                switches.push(SwitchTable {
                    cases: cases.iter().map(|&(k, t)| (k, clamp(t))).collect(),
                    default: clamp(*default),
                });
                Op::Switch(switches.len() as u32 - 1)
            }
            Insn::Call(f) => match program.functions.get(*f as usize) {
                Some(callee) if callee.num_params <= callee.num_locals => Op::Call {
                    callee: *f,
                    argc: u32::from(callee.num_params),
                    num_locals: u32::from(callee.num_locals),
                },
                _ => Op::BadCall(*f),
            },
            Insn::Return(v) => Op::Return(*v),
            Insn::Print => Op::Print,
            Insn::ReadInput => Op::ReadInput,
            Insn::Nop => Op::Nop,
        });
    }
    fuse_pairs(&mut code, &leaders);

    PreFunction {
        num_locals: u32::from(func.num_locals),
        code,
        leaders,
        switches,
    }
}

/// Peephole superinstruction pass: fuses hot adjacent op sequences into
/// one dispatch when no control flow can land between them (the
/// consumed slots are not block leaders, so no branch, switch, or
/// call-return resume targets them — returns resume at `call_pc + 1`,
/// and `Call` is never a fusion head). The consumed slots keep their
/// original ops but become unreachable; pc numbering is untouched, so
/// branch targets, leader flags, and trace sites stay valid. The
/// interpreter charges a fused op the same instruction count the
/// originals would have cost, keeping budget semantics identical.
fn fuse_pairs(code: &mut [Op], leaders: &[bool]) {
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
                (Op::Load(a), Op::Load(b), Op::Bin(op), Op::Store(d)) => {
                    match (u16::try_from(a), u16::try_from(b), u16::try_from(d)) {
                        (Ok(a), Ok(b), Ok(d)) => Some(Op::Load2BinStore(a, b, op, d)),
                        _ => None,
                    }
                }
                (Op::Load(n), Op::Const(v), Op::Bin(op), Op::Store(d)) => {
                    match (u16::try_from(n), u16::try_from(d)) {
                        (Ok(n), Ok(d)) => Some(Op::LoadConstBinStore(n, op, d, v)),
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
                (Op::Load(a), Op::Load(b), Op::IfCmp(c, t)) => {
                    match (u16::try_from(a), u16::try_from(b), u16::try_from(t)) {
                        (Ok(a), Ok(b), Ok(t)) => Some(Op::Load2IfCmp(a, b, c, t)),
                        _ => None,
                    }
                }
                (Op::Load(n), Op::Const(v), Op::IfCmp(c, t)) => {
                    match (u16::try_from(n), u16::try_from(t)) {
                        (Ok(n), Ok(t)) => Some(Op::LoadConstIfCmp(n, c, t, v)),
                        _ => None,
                    }
                }
                (Op::Load(a), Op::Load(b), Op::Bin(op)) => {
                    match (u16::try_from(a), u16::try_from(b)) {
                        (Ok(a), Ok(b)) => Some(Op::Load2Bin(a, b, op)),
                        _ => None,
                    }
                }
                (Op::Load(n), Op::Const(v), Op::Bin(op)) => match u16::try_from(n) {
                    Ok(n) => Some(Op::LoadConstBin(n, op, v)),
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
            (Op::Load(a), Op::Load(b)) => Some(Op::Load2(a, b)),
            (Op::Load(n), Op::Const(v)) => Some(Op::LoadConst(n, v)),
            (Op::Store(a), Op::Load(b)) => Some(Op::StoreLoad(a, b)),
            (Op::Store(n), Op::Goto(t)) => Some(Op::StoreGoto(n, t)),
            (Op::Load(n), Op::If(c, t)) => Some(Op::LoadIf(n, c, t)),
            (Op::Load(n), Op::IfCmp(c, t)) => Some(Op::LoadIfCmp(n, c, t)),
            (Op::Const(v), Op::IfCmp(c, t)) => Some(Op::ConstIfCmp(v, c, t)),
            (Op::Iinc(n, d), Op::Goto(t)) => Some(Op::IincGoto(n, d, t)),
            (Op::Const(v), Op::Bin(op)) => Some(Op::ConstBin(v, op)),
            (Op::Load(n), Op::Bin(op)) => Some(Op::LoadBin(n, op)),
            (Op::Bin(op), Op::Const(v)) => Some(Op::BinConst(op, v)),
            (Op::Bin(op1), Op::Bin(op2)) => Some(Op::Bin2(op1, op2)),
            (Op::Bin(op), Op::Store(n)) => Some(Op::BinStore(op, n)),
            (Op::Store(n), Op::Iinc(m, d)) => Some(Op::StoreIinc(n, m, d)),
            (Op::Iinc(n, d), Op::Load(m)) => Some(Op::IincLoad(n, d, m)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::cfg::Cfg;

    #[test]
    fn dense_ops_stay_16_bytes() {
        // The whole point of the flattening: Insn is heap-headed and
        // ~40 bytes; the dense form must stay at two words.
        assert!(std::mem::size_of::<Op>() <= 16);
    }

    #[test]
    fn leaders_match_cfg_is_leader() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 1);
        let head = f.new_label();
        let out = f.new_label();
        f.bind(head);
        f.load(0).push(10).if_cmp(crate::insn::Cond::Ge, out);
        f.load(0).print().iinc(0, 1).goto(head);
        f.bind(out);
        f.ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        let pre = Predecoded::build(&p);
        let cfg = Cfg::build(p.function(p.entry));
        assert_eq!(pre.funcs[p.entry.0 as usize].leaders, cfg.is_leader);
    }

    #[test]
    fn calls_resolve_arity_and_bad_ids_fall_back() {
        let mut pb = ProgramBuilder::new();
        let mut callee = FunctionBuilder::new("sub", 2, 1);
        callee.load(0).load(1).sub().ret();
        let callee_id = pb.add_function(callee.finish().unwrap());
        let mut main = FunctionBuilder::new("main", 0, 0);
        main.push(1).push(2).call(callee_id).print().ret_void();
        let main_id = pb.add_function(main.finish().unwrap());
        let mut p = pb.finish(main_id).unwrap();
        let pre = Predecoded::build(&p);
        let main_code = &pre.funcs[main_id.0 as usize].code;
        assert!(main_code.contains(&Op::Call {
            callee: callee_id.0,
            argc: 2,
            num_locals: 3,
        }));

        // Point the call at a nonexistent function: predecode must keep
        // it executable (as the panicking slow path), not reject it.
        p.function_mut(main_id).code[2] = Insn::Call(99);
        let pre = Predecoded::build(&p);
        assert!(pre.funcs[main_id.0 as usize]
            .code
            .contains(&Op::BadCall(99)));
    }

    #[test]
    fn out_of_range_targets_clamp_to_function_length() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        f.ret_void();
        let id = pb.add_function(f.finish().unwrap());
        let mut p = pb.finish_unverified(id);
        p.function_mut(id).code.insert(0, Insn::Goto(usize::MAX));
        let pre = Predecoded::build(&p);
        // code.len() == 2, so the clamped target (2) still faults as
        // FellOffEnd on fetch, like the unclamped original.
        assert_eq!(pre.funcs[0].code[0], Op::Goto(2));
    }

    #[test]
    fn switch_tables_move_out_of_line() {
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
        let p = pb.finish(id).unwrap();
        let pre = Predecoded::build(&p);
        let pf = &pre.funcs[0];
        assert_eq!(pf.code[1], Op::Switch(0));
        assert_eq!(pf.switches.len(), 1);
        assert_eq!(pf.switches[0].cases, vec![(1, 2), (2, 2)]);
        assert_eq!(pf.switches[0].default, 3);
    }
}
