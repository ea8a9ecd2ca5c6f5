//! Structural bytecode verification.
//!
//! Stands in for the JVM bytecode verifier: the paper notes that its
//! embedding must produce verifiable classfiles (e.g. Java's `jsr`/`ret`
//! restrictions are why the branch-function scheme of Section 4 cannot be
//! ported to bytecode). Our verifier enforces the invariants the
//! interpreter and the editing layer rely on: in-range branch targets and
//! indices, consistent operand-stack depths at join points, and no path
//! that falls off the end of a function.

use crate::insn::Insn;
use crate::program::{Function, Program};
use crate::VmError;

/// Verifies a whole program.
///
/// # Errors
///
/// Returns the first [`VmError::Verify`] violation found.
pub fn verify(program: &Program) -> Result<(), VmError> {
    if program.functions.is_empty() {
        return Err(VmError::Verify {
            func_name: "<program>".into(),
            pc: None,
            reason: "program has no functions".into(),
        });
    }
    if program.entry.0 as usize >= program.functions.len() {
        return Err(VmError::Verify {
            func_name: "<program>".into(),
            pc: None,
            reason: format!("entry {} out of range", program.entry),
        });
    }
    let entry = program.function(program.entry);
    if entry.num_params != 0 {
        return Err(VmError::Verify {
            func_name: entry.name.clone(),
            pc: None,
            reason: "entry function must take no parameters".into(),
        });
    }
    // One depth table and one worklist serve every function.
    let longest = program
        .functions
        .iter()
        .map(|f| f.code.len())
        .max()
        .unwrap_or(0);
    let mut scratch = Scratch::with_capacity(longest);
    for func in &program.functions {
        check_function(program, func, &mut scratch)?;
    }
    Ok(())
}

/// Verifies a single function against its program context.
///
/// # Errors
///
/// Returns the first [`VmError::Verify`] violation found.
pub fn verify_function(program: &Program, func: &Function) -> Result<(), VmError> {
    check_function(program, func, &mut Scratch::with_capacity(func.code.len()))
}

/// Marks a pc whose entry depth is not known yet.
const UNSEEN: u32 = u32::MAX;

/// The dataflow's working memory, reused across functions.
struct Scratch {
    /// Entry stack depth per pc, [`UNSEEN`] until first reached.
    depth_at: Vec<u32>,
    /// Branch targets still to walk, with their entry depths.
    work: Vec<(usize, u32)>,
}

impl Scratch {
    fn with_capacity(n: usize) -> Scratch {
        Scratch {
            depth_at: Vec::with_capacity(n),
            work: Vec::new(),
        }
    }
}

fn check_function(
    program: &Program,
    func: &Function,
    scratch: &mut Scratch,
) -> Result<(), VmError> {
    let fail = |pc: Option<usize>, reason: String| VmError::Verify {
        func_name: func.name.clone(),
        pc,
        reason,
    };
    if func.code.is_empty() {
        return Err(fail(None, "function has no code".into()));
    }
    if func.num_locals < func.num_params {
        return Err(fail(
            None,
            format!(
                "num_locals {} < num_params {}",
                func.num_locals, func.num_params
            ),
        ));
    }
    let n = func.code.len();
    for (pc, insn) in func.code.iter().enumerate() {
        let mut bad_target = None;
        insn.for_each_target(|t| {
            if t >= n && bad_target.is_none() {
                bad_target = Some(t);
            }
        });
        if let Some(t) = bad_target {
            return Err(fail(Some(pc), format!("branch target {t} out of range")));
        }
        match insn {
            Insn::Load(l) | Insn::Store(l) | Insn::Iinc(l, _)
                if *l >= func.num_locals => {
                    return Err(fail(Some(pc), format!("local {l} out of range")));
                }
            Insn::GetStatic(s) | Insn::PutStatic(s)
                if *s as usize >= program.statics.len() => {
                    return Err(fail(Some(pc), format!("static {s} out of range")));
                }
            Insn::Call(f)
                if *f as usize >= program.functions.len() => {
                    return Err(fail(Some(pc), format!("call target fn#{f} out of range")));
                }
            Insn::Return(with_value)
                if *with_value != func.returns_value => {
                    return Err(fail(
                        Some(pc),
                        "return arity disagrees with function signature".into(),
                    ));
                }
            _ => {}
        }
    }
    // Stack-depth dataflow: every pc has a single consistent entry
    // depth. Straight-line code is walked in place and only the other
    // successors of a branch wait on the worklist, so pcs are reached in
    // the order a LIFO worklist of every successor would pop them: the
    // successor pushed last (fall-through, a `Goto`'s target, a
    // `Switch`'s default) is walked next. Depths grow by at most two per
    // instruction, so a `u32` holds any depth of a function that fits
    // in memory.
    let Scratch { depth_at, work } = scratch;
    depth_at.clear();
    depth_at.resize(n, UNSEEN);
    work.clear();
    let mut next = Some((0usize, 0u32));
    loop {
        let Some((pc, depth)) = next.take().or_else(|| work.pop()) else {
            return Ok(());
        };
        match depth_at[pc] {
            UNSEEN => depth_at[pc] = depth,
            existing if existing != depth => {
                return Err(fail(
                    Some(pc),
                    format!("inconsistent stack depth at join: {existing} vs {depth}"),
                ));
            }
            _ => continue,
        }
        let insn = &func.code[pc];
        let (pops, pushes) = match insn {
            Insn::Call(f) => {
                let callee = &program.functions[*f as usize];
                (
                    callee.num_params as usize,
                    usize::from(callee.returns_value),
                )
            }
            other => other.stack_effect(),
        };
        if (depth as usize) < pops {
            return Err(fail(
                Some(pc),
                format!("stack underflow: depth {depth}, needs {pops}"),
            ));
        }
        let next_depth = depth - pops as u32 + pushes as u32;
        match insn {
            Insn::Return(_) => {}
            Insn::Goto(t) => next = Some((*t, next_depth)),
            Insn::Switch { cases, default } => {
                work.extend(cases.iter().map(|&(_, t)| (t, next_depth)));
                next = Some((*default, next_depth));
            }
            Insn::If(_, t) | Insn::IfCmp(_, t) => {
                work.push((*t, next_depth));
                if pc + 1 >= n {
                    return Err(fail(Some(pc), "conditional branch falls off end".into()));
                }
                next = Some((pc + 1, next_depth));
            }
            _ => {
                if pc + 1 >= n {
                    return Err(fail(Some(pc), "execution falls off end".into()));
                }
                next = Some((pc + 1, next_depth));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::insn::{Cond, Insn};
    use crate::program::FuncId;

    fn wrap(func: Function) -> Program {
        Program {
            functions: vec![func],
            statics: vec![],
            entry: FuncId(0),
        }
    }

    fn assert_verify_err(program: &Program, needle: &str) {
        match verify(program) {
            Err(VmError::Verify { reason, .. }) => {
                assert!(
                    reason.contains(needle),
                    "expected reason containing {needle:?}, got {reason:?}"
                );
            }
            other => panic!("expected verify error {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn accepts_well_formed_program() {
        let mut f = FunctionBuilder::new("main", 0, 1);
        let out = f.new_label();
        f.load(0).if_zero(Cond::Ne, out);
        f.push(1).print();
        f.bind(out);
        f.ret_void();
        let p = wrap(f.finish().unwrap());
        verify(&p).expect("program is well-formed");
    }

    #[test]
    fn rejects_empty_program_and_bad_entry() {
        let p = Program {
            functions: vec![],
            statics: vec![],
            entry: FuncId(0),
        };
        assert_verify_err(&p, "no functions");
        let mut f = FunctionBuilder::new("main", 0, 0);
        f.ret_void();
        let mut p = wrap(f.finish().unwrap());
        p.entry = FuncId(9);
        assert_verify_err(&p, "out of range");
    }

    #[test]
    fn rejects_entry_with_params() {
        let mut f = FunctionBuilder::new("main", 2, 0);
        f.ret_void();
        assert_verify_err(&wrap(f.finish().unwrap()), "no parameters");
    }

    #[test]
    fn rejects_out_of_range_target() {
        let f = Function {
            name: "bad".into(),
            num_params: 0,
            num_locals: 0,
            returns_value: false,
            code: vec![Insn::Goto(5), Insn::Return(false)],
        };
        assert_verify_err(&wrap(f), "target 5 out of range");
    }

    #[test]
    fn rejects_bad_local_static_call_indices() {
        let f = Function {
            name: "bad".into(),
            num_params: 0,
            num_locals: 1,
            returns_value: false,
            code: vec![Insn::Load(3), Insn::Pop, Insn::Return(false)],
        };
        assert_verify_err(&wrap(f), "local 3 out of range");

        let f = Function {
            name: "bad".into(),
            num_params: 0,
            num_locals: 0,
            returns_value: false,
            code: vec![Insn::GetStatic(0), Insn::Pop, Insn::Return(false)],
        };
        assert_verify_err(&wrap(f), "static 0 out of range");

        let f = Function {
            name: "bad".into(),
            num_params: 0,
            num_locals: 0,
            returns_value: false,
            code: vec![Insn::Call(4), Insn::Return(false)],
        };
        assert_verify_err(&wrap(f), "call target fn#4 out of range");
    }

    #[test]
    fn rejects_stack_underflow() {
        let f = Function {
            name: "bad".into(),
            num_params: 0,
            num_locals: 0,
            returns_value: false,
            code: vec![Insn::Pop, Insn::Return(false)],
        };
        assert_verify_err(&wrap(f), "underflow");
    }

    #[test]
    fn rejects_inconsistent_join_depth() {
        // Path A pushes 1 value before the join; path B pushes none.
        let f = Function {
            name: "bad".into(),
            num_params: 0,
            num_locals: 1,
            returns_value: false,
            code: vec![
                Insn::Load(0),          // 0
                Insn::If(Cond::Eq, 3),  // 1: taken -> depth 0 at pc 3
                Insn::Const(7),         // 2: fallthrough -> depth 1 at pc 3
                Insn::Nop,              // 3: join
                Insn::Return(false),    // 4
            ],
        };
        assert_verify_err(&wrap(f), "inconsistent stack depth");
    }

    #[test]
    fn rejects_fall_off_end() {
        let f = Function {
            name: "bad".into(),
            num_params: 0,
            num_locals: 0,
            returns_value: false,
            code: vec![Insn::Nop],
        };
        assert_verify_err(&wrap(f), "falls off end");
    }

    #[test]
    fn rejects_return_arity_mismatch() {
        let f = Function {
            name: "bad".into(),
            num_params: 0,
            num_locals: 0,
            returns_value: false,
            code: vec![Insn::Const(1), Insn::Return(true)],
        };
        assert_verify_err(&wrap(f), "return arity");
    }

    #[test]
    fn call_effects_use_callee_signature() {
        let mut p = ProgramBuilder::new();
        let mut callee = FunctionBuilder::new("add3", 1, 0);
        callee.load(0).push(3).add().ret();
        let callee_id = p.add_function(callee.finish().unwrap());
        let mut main = FunctionBuilder::new("main", 0, 0);
        main.push(39).call(callee_id).print().ret_void();
        let main_id = p.add_function(main.finish().unwrap());
        p.finish(main_id).expect("call arity flows through verifier");
    }
}
