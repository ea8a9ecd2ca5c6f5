//! The allocation-free verifier against its predecessor, kept here as a
//! test-only reference: on every workload host, marked copy and attacked
//! copy (all of which must verify), and on seeded hostile mutations of
//! them (targets past the end; out-of-range locals, statics and callees;
//! return-arity flips; stack-depth changes that break joins; empty
//! functions; random instructions). Both verifiers must return the same
//! `Result`, the first error's function, pc and reason included, and
//! neither may panic.

use pathmark::attacks::java as jattacks;
use pathmark::core::java::{Embedder, JavaConfig};
use pathmark::core::key::{Watermark, WatermarkKey};
use pathmark::crypto::Prng;
use pathmark::vm::insn::{BinOp, Cond, Insn};
use pathmark::vm::{FuncId, Program, VmError};

/// Mutants per small program, and per program of over 10k instructions:
/// a few in debug builds (tier-1), many in release.
const MUTANTS: (usize, usize) = if cfg!(debug_assertions) {
    (48, 3)
} else {
    (1500, 60)
};

/// The verifier as it was before it walked straight-line code in place:
/// a LIFO worklist of every successor and a 16-byte depth per pc.
mod reference {
    use pathmark::vm::insn::Insn;
    use pathmark::vm::program::{Function, Program};
    use pathmark::vm::VmError;

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
        for func in &program.functions {
            verify_function(program, func)?;
        }
        Ok(())
    }

    /// Verifies a single function against its program context.
    ///
    /// # Errors
    ///
    /// Returns the first [`VmError::Verify`] violation found.
    pub fn verify_function(program: &Program, func: &Function) -> Result<(), VmError> {
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
            for t in insn.targets() {
                if t >= n {
                    return Err(fail(Some(pc), format!("branch target {t} out of range")));
                }
            }
            match insn {
                Insn::Load(l) | Insn::Store(l) | Insn::Iinc(l, _) if *l >= func.num_locals => {
                    return Err(fail(Some(pc), format!("local {l} out of range")));
                }
                Insn::GetStatic(s) | Insn::PutStatic(s) if *s as usize >= program.statics.len() => {
                    return Err(fail(Some(pc), format!("static {s} out of range")));
                }
                Insn::Call(f) if *f as usize >= program.functions.len() => {
                    return Err(fail(Some(pc), format!("call target fn#{f} out of range")));
                }
                Insn::Return(with_value) if *with_value != func.returns_value => {
                    return Err(fail(
                        Some(pc),
                        "return arity disagrees with function signature".into(),
                    ));
                }
                _ => {}
            }
        }
        // Stack-depth dataflow: every pc has a single consistent entry depth.
        let mut depth_at: Vec<Option<usize>> = vec![None; n];
        let mut work = vec![(0usize, 0usize)];
        while let Some((pc, depth)) = work.pop() {
            match depth_at[pc] {
                Some(existing) if existing != depth => {
                    return Err(fail(
                        Some(pc),
                        format!("inconsistent stack depth at join: {existing} vs {depth}"),
                    ));
                }
                Some(_) => continue,
                None => depth_at[pc] = Some(depth),
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
            if depth < pops {
                return Err(fail(
                    Some(pc),
                    format!("stack underflow: depth {depth}, needs {pops}"),
                ));
            }
            let next_depth = depth - pops + pushes;
            match insn {
                Insn::Return(_) => {}
                Insn::Goto(t) => work.push((*t, next_depth)),
                Insn::Switch { cases, default } => {
                    for &(_, t) in cases {
                        work.push((t, next_depth));
                    }
                    work.push((*default, next_depth));
                }
                Insn::If(_, t) | Insn::IfCmp(_, t) => {
                    work.push((*t, next_depth));
                    if pc + 1 >= n {
                        return Err(fail(Some(pc), "conditional branch falls off end".into()));
                    }
                    work.push((pc + 1, next_depth));
                }
                _ => {
                    if pc + 1 >= n {
                        return Err(fail(Some(pc), "execution falls off end".into()));
                    }
                    work.push((pc + 1, next_depth));
                }
            }
        }
        Ok(())
    }
}

/// Both verifiers on the whole program and on each function.
fn assert_agree(program: &Program, what: &str) -> Result<(), VmError> {
    let got = pathmark::vm::verify::verify(program);
    assert_eq!(got, reference::verify(program), "{what}: whole program");
    for func in &program.functions {
        assert_eq!(
            pathmark::vm::verify::verify_function(program, func),
            reference::verify_function(program, func),
            "{what}: function {}",
            func.name
        );
    }
    got
}

/// A Section 5.1.2 attack at a fixed seed.
type Attack = fn(&mut Program);

/// The valid programs: both workload hosts, marked copies of each under
/// every codegen policy, and attacked copies of those.
fn valid_programs() -> Vec<(String, Program)> {
    use pathmark::core::java::CodegenPolicy;
    let mut out = Vec::new();
    for w in pathmark::workloads::java::all() {
        out.push((w.name.to_string(), w.program.clone()));
        let config = JavaConfig::for_watermark_bits(128).with_pieces(24);
        let base = WatermarkKey::new(1, w.secret_input.clone());
        let trace = Embedder::builder(base, config.clone())
            .build()
            .unwrap()
            .trace(&w.program)
            .unwrap();
        for (i, policy) in [
            CodegenPolicy::Mixed,
            CodegenPolicy::LoopOnly,
            CodegenPolicy::PreferCondition,
        ]
        .into_iter()
        .enumerate()
        {
            let config = config.clone().with_codegen(policy);
            let key = WatermarkKey::new(40 + i as u64, w.secret_input.clone());
            let watermark = Watermark::random_for(&config, &key);
            let marked = Embedder::builder(key, config)
                .build()
                .unwrap()
                .embed_with_trace(&w.program, &watermark, &trace)
                .unwrap()
                .program;
            out.push((format!("{} marked {policy:?}", w.name), marked));
        }
        let marked = out.last().unwrap().1.clone();
        let attacks: [(&str, Attack); 9] = [
            ("branches", |p| jattacks::insert_random_branches(p, 40, 7)),
            ("nops", |p| jattacks::insert_nops(p, 40, 7)),
            ("invert", |p| jattacks::invert_branch_senses(p, 0.5, 7)),
            ("reorder", |p| jattacks::reorder_blocks(p, 7)),
            ("split blocks", |p| jattacks::split_blocks(p, 20, 7)),
            ("copy blocks", |p| {
                jattacks::copy_blocks(p, 10, 7);
            }),
            ("merge methods", |p| {
                jattacks::merge_methods(p, 7);
            }),
            ("split method", |p| {
                jattacks::split_method(p, 7);
            }),
            ("diversify", |p| jattacks::diversify(p, 7)),
        ];
        for (name, attack) in attacks {
            let mut attacked = marked.clone();
            attack(&mut attacked);
            out.push((format!("{} attacked by {name}", w.name), attacked));
        }
    }
    out
}

#[test]
fn workload_marked_and_attacked_programs_verify_under_both() {
    for (what, program) in valid_programs() {
        assert_agree(&program, &what).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

/// A random instruction whose operands reach just past their ranges.
fn random_insn(rng: &mut Prng, program: &Program, func: usize) -> Insn {
    let f = &program.functions[func];
    let (n, locals) = (f.code.len() as u64, u64::from(f.num_locals));
    let target = |rng: &mut Prng| rng.range(n + 3) as usize;
    match rng.range(14) {
        0 => Insn::Const(rng.next_u64() as i64),
        1 => Insn::Load(rng.range(locals + 2) as u16),
        2 => Insn::Store(rng.range(locals + 2) as u16),
        3 => Insn::Iinc(rng.range(locals + 2) as u16, 1),
        4 => Insn::Bin(BinOp::Add),
        5 => Insn::Pop,
        6 => Insn::Dup,
        7 => Insn::GetStatic(rng.range(program.statics.len() as u64 + 2) as u32),
        8 => Insn::Call(rng.range(program.functions.len() as u64 + 2) as u32),
        9 => Insn::Goto(target(rng)),
        10 => Insn::If(Cond::Ne, target(rng)),
        11 => Insn::IfCmp(Cond::Lt, target(rng)),
        12 => Insn::Switch {
            cases: vec![(0, target(rng)), (1, target(rng))],
            default: target(rng),
        },
        _ => Insn::Return(rng.chance(0.5)),
    }
}

/// Applies one seeded hostile edit to `program`.
fn mutate(rng: &mut Prng, program: &mut Program) {
    let func = rng.index(program.functions.len());
    let (n, statics, functions) = (
        program.functions[func].code.len(),
        program.statics.len() as u32,
        program.functions.len() as u32,
    );
    if n == 0 {
        return;
    }
    let pc = rng.index(n);
    let insn = random_insn(rng, program, func);
    let f = &mut program.functions[func];
    match rng.range(9) {
        // A branch target at or past the end.
        0 => {
            let past = n + rng.index(3);
            match &mut f.code[pc] {
                Insn::Goto(t) | Insn::If(_, t) | Insn::IfCmp(_, t) => *t = past,
                Insn::Switch { default, .. } => *default = past,
                other => *other = Insn::Goto(past),
            }
        }
        // Out-of-range locals, statics and callees.
        1 => f.code[pc] = Insn::Load(f.num_locals + rng.range(2) as u16),
        2 => f.code[pc] = Insn::PutStatic(statics + rng.range(2) as u32),
        3 => f.code[pc] = Insn::Call(functions + rng.range(2) as u32),
        // Return arity flips, of one return or of the signature.
        4 => match &mut f.code[pc] {
            Insn::Return(v) => *v = !*v,
            _ => f.returns_value = !f.returns_value,
        },
        // A depth change: paths that met at one depth now differ.
        5 => {
            let changed = match f.code[pc] {
                Insn::Const(_) | Insn::Load(_) => Insn::Nop,
                _ => Insn::Const(1),
            };
            f.code[pc] = changed;
        }
        6 => f.code.insert(pc, Insn::Pop),
        // An empty function.
        7 if rng.chance(0.2) => f.code.clear(),
        _ => f.code[pc] = insn,
    }
}

#[test]
fn hostile_mutations_get_the_same_verdict_from_both_verifiers() {
    let mut rng = Prng::from_seed(0x7E51F1E5);
    let mut reasons = std::collections::BTreeSet::new();
    let (mut ok, mut rejected) = (0usize, 0usize);
    for (what, program) in valid_programs() {
        let size: usize = program.functions.iter().map(|f| f.code.len()).sum();
        let mutants = if size > 10_000 { MUTANTS.1 } else { MUTANTS.0 };
        for m in 0..mutants {
            let mut mutant = program.clone();
            for _ in 0..1 + rng.index(3) {
                mutate(&mut rng, &mut mutant);
            }
            let func = rng.index(mutant.functions.len());
            match rng.range(40) {
                0 => mutant.functions[func].num_params = u16::MAX,
                1 => mutant.entry = FuncId(mutant.functions.len() as u32),
                2 => mutant.functions.clear(),
                _ => {}
            }
            match assert_agree(&mutant, &format!("{what} mutant {m}")) {
                Ok(()) => ok += 1,
                Err(VmError::Verify { reason, .. }) => {
                    rejected += 1;
                    // The reason's kind, without its numbers.
                    let kind: String = reason.chars().filter(|c| !c.is_ascii_digit()).collect();
                    reasons.insert(kind);
                }
                Err(other) => panic!("{what} mutant {m}: not a verify error: {other:?}"),
            }
        }
    }
    assert!(ok > 0 && rejected > 0, "{ok} accepted, {rejected} rejected");
    for needle in [
        "branch target",
        "local",
        "static",
        "call target",
        "return arity",
        "inconsistent stack depth",
        "stack underflow",
        "falls off end",
        "function has no code",
    ] {
        assert!(
            reasons.iter().any(|r| r.contains(needle)),
            "no mutant was rejected for {needle:?}: {reasons:?}"
        );
    }
}
