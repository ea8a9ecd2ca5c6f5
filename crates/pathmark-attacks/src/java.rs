//! Distortive bytecode attacks (Section 5.1.2).

use pathmark_crypto::Prng;
use stackvm::cfg::Cfg;
use stackvm::edit::{insert_snippet, reserve_locals};
use stackvm::insn::{BinOp, Cond, Insn};
use stackvm::interp::{Outcome, Vm};
use stackvm::{Program, VmError};

/// Inserts `count` copies of the paper's branch-insertion attack code —
/// `if (x*(x-1) % 2 != 0) x++;` over a random existing local — at random
/// program points.
///
/// This is the attack of Figures 8(c) and 8(d): each inserted branch
/// executes (emitting bits) wherever control passes it, corrupting any
/// watermark piece whose 64-bit window it lands inside.
pub fn insert_random_branches(program: &mut Program, count: usize, seed: u64) {
    let mut rng = Prng::from_seed(seed ^ 0xA77A_C4B2);
    for _ in 0..count {
        let func_idx = rng.index(program.functions.len());
        let func = &mut program.functions[func_idx];
        let x = if func.num_locals == 0 {
            reserve_locals(func, 1).expect("a function without locals has room for one")
        } else {
            rng.index(func.num_locals as usize) as u16
        };
        // Not past the end: the snippet's skip target must stay in range.
        let at = rng.index(func.code.len());
        // if (x*(x-1) % 2 != 0) x++;
        let snippet = vec![
            Insn::Load(x),
            Insn::Load(x),
            Insn::Const(1),
            Insn::Bin(BinOp::Sub),
            Insn::Bin(BinOp::Mul),
            Insn::Const(2),
            Insn::Bin(BinOp::Rem),
            Insn::If(Cond::Ne, 9),
            Insn::Goto(10),
            Insn::Iinc(x, 1),
        ];
        insert_snippet(func, at, snippet);
    }
}

/// Inserts `count` no-ops at random program points. Harmless to
/// path-based watermarks by design (no-ops are not conditional
/// branches).
pub fn insert_nops(program: &mut Program, count: usize, seed: u64) {
    let mut rng = Prng::from_seed(seed ^ 0x0909_0909);
    for _ in 0..count {
        let func_idx = rng.index(program.functions.len());
        let func = &mut program.functions[func_idx];
        let at = rng.index(func.code.len() + 1);
        insert_snippet(func, at, vec![Insn::Nop]);
    }
}

/// Inverts the sense of (approximately) `fraction` of all conditional
/// branches, exchanging the branch and fall-through roles:
///
/// ```text
/// if c goto T            if !c goto F
/// F: …          ==>      goto T
///                        F: …
/// ```
///
/// Semantics are preserved; the static branch structure changes
/// completely. The trace bit-string is *invariant* (the defining
/// property of Section 3.1's decoding rule).
pub fn invert_branch_senses(program: &mut Program, fraction: f64, seed: u64) {
    let mut rng = Prng::from_seed(seed ^ 0x1A5E_17ED);
    for func in &mut program.functions {
        // Descending pc so earlier rewrites keep later pcs valid.
        let sites: Vec<usize> = (0..func.code.len())
            .rev()
            .filter(|&pc| func.code[pc].is_conditional_branch())
            .collect();
        for pc in sites {
            if !rng.chance(fraction) {
                continue;
            }
            let target = func.code[pc].targets()[0];
            if target == pc + 1 {
                continue; // degenerate branch-to-fallthrough
            }
            // Make room for the `goto T` after the branch; the edit
            // fixes up every target (including this branch's own).
            insert_snippet(func, pc + 1, vec![Insn::Nop]);
            let adjusted_target = func.code[pc].targets()[0];
            func.code[pc + 1] = Insn::Goto(adjusted_target);
            match &mut func.code[pc] {
                Insn::If(c, t) => {
                    *c = c.negate();
                    *t = pc + 2;
                }
                Insn::IfCmp(c, t) => {
                    *c = c.negate();
                    *t = pc + 2;
                }
                other => unreachable!("site list holds branches, found {other:?}"),
            }
        }
    }
}

/// Randomly reorders the basic blocks of every function (keeping the
/// entry block first), inserting explicit `goto`s where fall-through
/// edges are broken — SandMark's statement/block reordering attack.
pub fn reorder_blocks(program: &mut Program, seed: u64) {
    let mut rng = Prng::from_seed(seed ^ 0x02E0_2DE2);
    for func in &mut program.functions {
        let cfg = Cfg::build(func);
        if cfg.len() < 3 {
            continue;
        }
        let mut order: Vec<usize> = (1..cfg.len()).collect();
        rng.shuffle(&mut order);
        order.insert(0, 0);
        // Lay out blocks in the new order, recording the new start pc of
        // each old block.
        let mut new_code: Vec<Insn> = Vec::with_capacity(func.code.len() + cfg.len());
        let mut new_start = vec![usize::MAX; cfg.len()];
        for &b in &order {
            new_start[b] = new_code.len();
            let block = &cfg.blocks[b];
            for pc in block.start..block.end {
                new_code.push(func.code[pc].clone());
            }
            // Restore broken fall-through edges.
            let last = new_code.last().expect("blocks are non-empty");
            let falls_through = !last.is_terminator();
            if falls_through {
                // Fall-through successor is the old next block.
                let next_leader = block.end;
                if next_leader < func.code.len() {
                    // Temporarily encode the OLD pc; remapped below. The
                    // goto is marked by pointing at old pcs like every
                    // other pre-remap target.
                    new_code.push(Insn::Goto(next_leader));
                }
            }
        }
        // Remap every target from old leader pc to new pc.
        for insn in &mut new_code {
            insn.map_targets(|old| new_start[cfg.block_of[old]]);
        }
        func.code = new_code;
    }
}

/// Splits roughly `count` basic blocks by inserting a `goto` to the next
/// instruction at random points — SandMark's block-splitting attack
/// (changes static block structure, not dynamic branch behavior).
pub fn split_blocks(program: &mut Program, count: usize, seed: u64) {
    let mut rng = Prng::from_seed(seed ^ 0x5B11_7B10);
    for _ in 0..count {
        let func_idx = rng.index(program.functions.len());
        let func = &mut program.functions[func_idx];
        let at = rng.index(func.code.len());
        // goto (next instruction): relative target 1 == end of snippet.
        insert_snippet(func, at, vec![Insn::Goto(1)]);
    }
}

/// Copies one randomly chosen multi-instruction basic block to the end
/// of a function and retargets one branch edge to the copy — SandMark's
/// block-copying attack. Returns how many copies were made.
pub fn copy_blocks(program: &mut Program, count: usize, seed: u64) -> usize {
    let mut rng = Prng::from_seed(seed ^ 0x00C0_B1E5);
    let mut made = 0;
    for _ in 0..count {
        let func_idx = rng.index(program.functions.len());
        let func = &mut program.functions[func_idx];
        let cfg = Cfg::build(func);
        // The pcs some branch jumps to, in one pass over the code rather
        // than one per block.
        let mut targeted = vec![false; func.code.len()];
        for insn in &func.code {
            for target in insn.targets() {
                if let Some(flag) = targeted.get_mut(target) {
                    *flag = true;
                }
            }
        }
        // Candidate: a block that is a branch target and ends in a
        // terminator (so the copy needs no fall-through repair).
        let candidates: Vec<usize> = (0..cfg.len())
            .filter(|&b| {
                let block = &cfg.blocks[b];
                block.start > 0
                    && func.code[block.end - 1].is_terminator()
                    && targeted[block.start]
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let b = candidates[rng.index(candidates.len())];
        let block = cfg.blocks[b].clone();
        let copy_start = func.code.len();
        let copied: Vec<Insn> = func.code[block.start..block.end].to_vec();
        func.code.extend(copied);
        // Retarget one referencing branch to the copy.
        let refs: Vec<usize> = (0..copy_start)
            .filter(|&pc| func.code[pc].targets().contains(&block.start))
            .collect();
        let chosen = refs[rng.index(refs.len())];
        func.code[chosen].map_targets(|t| if t == block.start { copy_start } else { t });
        made += 1;
    }
    made
}

/// Merges two functions with identical signatures into one selector-
/// dispatched body (SandMark's *method merging* attack). The originals
/// become thin forwarders, so no call site needs rewriting. Returns the
/// ids of the merged pair, or `None` if no mergeable pair exists.
///
/// The merged body dispatches on a trailing selector parameter via
/// `switch`, which is not a conditional branch — the dynamic branch
/// pattern of both bodies is preserved, which is exactly why this attack
/// fails against path-based watermarks.
pub fn merge_methods(program: &mut Program, seed: u64) -> Option<(stackvm::FuncId, stackvm::FuncId)> {
    use stackvm::insn::Insn as I;
    let mut rng = Prng::from_seed(seed ^ 0x3E26E);
    // Candidate pairs: same arity and return kind, neither is the entry.
    let mut pairs = Vec::new();
    for a in 0..program.functions.len() {
        for b in (a + 1)..program.functions.len() {
            let (fa, fb) = (&program.functions[a], &program.functions[b]);
            if stackvm::FuncId(a as u32) == program.entry
                || stackvm::FuncId(b as u32) == program.entry
            {
                continue;
            }
            if fa.num_params == fb.num_params && fa.returns_value == fb.returns_value {
                pairs.push((a, b));
            }
        }
    }
    if pairs.is_empty() {
        return None;
    }
    let (a, b) = pairs[rng.index(pairs.len())];
    let params = program.functions[a].num_params;
    let returns = program.functions[a].returns_value;

    // Shift every local index >= params by one: the selector takes slot
    // `params`, scratch locals move up.
    let shift_locals = |code: &[I]| -> Vec<I> {
        code.iter()
            .map(|insn| match insn {
                I::Load(n) if *n >= params => I::Load(n + 1),
                I::Store(n) if *n >= params => I::Store(n + 1),
                I::Iinc(n, d) if *n >= params => I::Iinc(n + 1, *d),
                other => other.clone(),
            })
            .collect()
    };
    let body_a = shift_locals(&program.functions[a].code);
    let body_b = shift_locals(&program.functions[b].code);
    let a_start = 2usize;
    let b_start = a_start + body_a.len();
    let mut code = vec![
        I::Load(params),
        I::Switch {
            cases: vec![(0, a_start)],
            default: b_start,
        },
    ];
    code.extend(body_a.into_iter().map(|mut i| {
        i.map_targets(|t| t + a_start);
        i
    }));
    code.extend(body_b.into_iter().map(|mut i| {
        i.map_targets(|t| t + b_start);
        i
    }));
    let num_locals = program.functions[a]
        .num_locals
        .max(program.functions[b].num_locals)
        + 1;
    let merged = stackvm::Function {
        name: format!(
            "{}${}",
            program.functions[a].name, program.functions[b].name
        ),
        num_params: params + 1,
        num_locals,
        returns_value: returns,
        code,
    };
    program.functions.push(merged);
    let merged_id = stackvm::FuncId(program.functions.len() as u32 - 1);

    // Originals become forwarders.
    for (idx, selector) in [(a, 0i64), (b, 1i64)] {
        let mut code = Vec::new();
        for p in 0..params {
            code.push(I::Load(p));
        }
        code.push(I::Const(selector));
        code.push(I::Call(merged_id.0));
        code.push(I::Return(returns));
        let f = &mut program.functions[idx];
        f.code = code;
        f.num_locals = f.num_locals.max(f.num_params);
    }
    Some((stackvm::FuncId(a as u32), stackvm::FuncId(b as u32)))
}

/// Splits a function at a "linear cut" — a stack-empty block boundary
/// crossed only by fall-through — moving the tail into a fresh function
/// that receives every local as a parameter (SandMark's *method
/// splitting* attack). Returns the id of the outlined tail, or `None`
/// if no function has a usable cut.
pub fn split_method(program: &mut Program, seed: u64) -> Option<stackvm::FuncId> {
    use stackvm::insn::Insn as I;
    let mut rng = Prng::from_seed(seed ^ 0x5B117u64);
    let mut candidates: Vec<(usize, usize)> = Vec::new(); // (func idx, cut pc)
    for (fi, f) in program.functions.iter().enumerate() {
        for cut in linear_cuts(f) {
            candidates.push((fi, cut));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (fi, cut) = candidates[rng.index(candidates.len())];
    let (locals, returns) = {
        let f = &program.functions[fi];
        (f.num_locals, f.returns_value)
    };
    let tail: Vec<I> = program.functions[fi].code[cut..]
        .iter()
        .map(|insn| {
            let mut i = insn.clone();
            i.map_targets(|t| t - cut);
            i
        })
        .collect();
    let tail_fn = stackvm::Function {
        name: format!("{}$tail", program.functions[fi].name),
        num_params: locals,
        num_locals: locals,
        returns_value: returns,
        code: tail,
    };
    program.functions.push(tail_fn);
    let tail_id = stackvm::FuncId(program.functions.len() as u32 - 1);
    let f = &mut program.functions[fi];
    f.code.truncate(cut);
    for l in 0..locals {
        f.code.push(I::Load(l));
    }
    f.code.push(I::Call(tail_id.0));
    f.code.push(I::Return(returns));
    Some(tail_id)
}

/// Finds pcs where a function can be linearly cut: stack depth zero, no
/// branch crossing the boundary in either direction, strictly inside the
/// body.
fn linear_cuts(f: &stackvm::Function) -> Vec<usize> {
    use stackvm::insn::Insn as I;
    let n = f.code.len();
    if n < 4 {
        return Vec::new();
    }
    // Entry stack depth per pc (None = unreachable / unknown).
    let mut depth: Vec<Option<usize>> = vec![None; n];
    let mut work = vec![(0usize, 0usize)];
    while let Some((pc, d)) = work.pop() {
        if pc >= n || depth[pc].is_some() {
            continue;
        }
        depth[pc] = Some(d);
        let insn = &f.code[pc];
        let (pops, pushes) = match insn {
            I::Call(_) => continue, // callee arity unknown here: bail on
            // cut analysis past calls by treating the path as opaque
            // (conservative: fewer cuts).
            other => other.stack_effect(),
        };
        if d < pops {
            continue;
        }
        let nd = d - pops + pushes;
        match insn {
            I::Return(_) => {}
            I::Goto(t) => work.push((*t, nd)),
            I::Switch { cases, default } => {
                for &(_, t) in cases {
                    work.push((t, nd));
                }
                work.push((*default, nd));
            }
            I::If(_, t) | I::IfCmp(_, t) => {
                work.push((*t, nd));
                work.push((pc + 1, nd));
            }
            _ => work.push((pc + 1, nd)),
        }
    }
    (2..n - 1)
        .filter(|&cut| {
            depth[cut] == Some(0)
                && !matches!(f.code[cut - 1], I::Return(_)) // reachable by fall-through
                && f.code.iter().enumerate().all(|(pc, insn)| {
                    insn.targets().iter().all(|&t| (pc < cut) == (t < cut))
                })
        })
        .collect()
}

/// Code diversification — the paper's *defense* against collusive
/// attacks (Section 5.1.2): "collusive attacks can be prevented by
/// obfuscating the program before it is watermarked, and thus producing
/// a highly diverse program population. Any attempt to find the
/// watermark code through comparison of multiple watermarked copies …
/// will be thwarted … because the differences between any two copies of
/// the program will contain much more than just the watermark code."
///
/// Applies a seed-dependent cocktail of semantics-preserving transforms;
/// run it with a fresh seed per licensee *before* embedding.
pub fn diversify(program: &mut Program, seed: u64) {
    let mut rng = Prng::from_seed(seed ^ 0xD1BE_25E5);
    insert_random_branches(program, 10 + rng.index(30), rng.next_u64());
    invert_branch_senses(program, 0.3 + 0.4 * (rng.index(100) as f64 / 100.0), rng.next_u64());
    reorder_blocks(program, rng.next_u64());
    split_blocks(program, 20 + rng.index(60), rng.next_u64());
    copy_blocks(program, 5 + rng.index(15), rng.next_u64());
    insert_nops(program, 30 + rng.index(100), rng.next_u64());
}

/// How different two programs are: the fraction of functions whose code
/// differs (used to quantify population diversity).
pub fn diversity(a: &Program, b: &Program) -> f64 {
    let n = a.functions.len().max(b.functions.len());
    if n == 0 {
        return 0.0;
    }
    let differing = (0..n)
        .filter(|&i| match (a.functions.get(i), b.functions.get(i)) {
            (Some(fa), Some(fb)) => fa.code != fb.code,
            _ => true,
        })
        .count();
    differing as f64 / n as f64
}

/// The "class encryption" attack (Section 5.1.2): every class is stored
/// encrypted and decrypted only at load time, denying bytecode
/// instrumentation any access.
///
/// The wrapper still *runs* (semantics preserved), but a bytecode-level
/// recognizer only sees the opaque [`EncryptedProgram::stub`]. The paper
/// notes the counter-move: trace through the JVM's profiling interface
/// instead, which sees the decrypted code — modeled by
/// [`EncryptedProgram::decrypt_for_runtime_tracing`].
#[derive(Debug, Clone)]
pub struct EncryptedProgram {
    payload: Vec<u8>,
    key: u64,
    stub: Program,
}

impl EncryptedProgram {
    /// Encrypts a program under `key`.
    pub fn encrypt(program: &Program, key: u64) -> EncryptedProgram {
        let mut payload = stackvm::codec::encode_program(program);
        let mut rng = Prng::from_seed(key);
        for byte in &mut payload {
            *byte ^= rng.next_u64() as u8;
        }
        // The loader stub is all static analysis can see.
        let mut pb = stackvm::builder::ProgramBuilder::new();
        let mut f = stackvm::builder::FunctionBuilder::new("decrypt_and_run", 0, 0);
        f.push(0).pop().ret_void();
        let main = pb.add_function(f.finish().expect("stub builds"));
        let stub = pb.finish(main).expect("stub verifies");
        EncryptedProgram {
            payload,
            key,
            stub,
        }
    }

    /// What static bytecode tooling (including the watermark
    /// instrumenter) can observe.
    pub fn stub(&self) -> &Program {
        &self.stub
    }

    /// Runs the encrypted application: decrypt, then execute — the
    /// program behaves exactly as before the attack.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] from the decrypted program.
    pub fn run(&self, input: Vec<i64>) -> Result<Outcome, VmError> {
        let program = self
            .decrypt_for_runtime_tracing()
            .expect("payload was produced by encrypt");
        Vm::new(&program).with_input(input).run()
    }

    /// Models tracing through the runtime's profiling/debugging
    /// interface, which necessarily sees decoded bytecode ("the JVM
    /// necessarily has access to the unencoded form").
    pub fn decrypt_for_runtime_tracing(&self) -> Option<Program> {
        let mut bytes = self.payload.clone();
        let mut rng = Prng::from_seed(self.key);
        for byte in &mut bytes {
            *byte ^= rng.next_u64() as u8;
        }
        stackvm::codec::decode_program(&bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stackvm::builder::{FunctionBuilder, ProgramBuilder};

    /// gcd-flavored test program with loops, calls, and branching.
    fn subject() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut gcd = FunctionBuilder::new("gcd", 2, 0);
        let head = gcd.new_label();
        let done = gcd.new_label();
        gcd.bind(head);
        gcd.load(1).if_zero(Cond::Eq, done);
        gcd.load(1).load(0).load(1).rem().store(1).store(0);
        gcd.goto(head);
        gcd.bind(done);
        gcd.load(0).ret();
        let gcd_id = pb.add_function(gcd.finish().unwrap());
        // A second two-parameter function (same signature as gcd) so the
        // method-merging attack has a candidate pair.
        let mut mix = FunctionBuilder::new("mix", 2, 1);
        let skip = mix.new_label();
        mix.load(0).load(1).mul().store(2);
        mix.load(2).push(100).if_cmp(Cond::Lt, skip);
        mix.load(2).push(97).rem().store(2);
        mix.bind(skip);
        mix.load(2).load(0).add().ret();
        let mix_id = pb.add_function(mix.finish().unwrap());
        let mut f = FunctionBuilder::new("main", 0, 1);
        let top = f.new_label();
        let out = f.new_label();
        f.push(0).store(0);
        f.bind(top);
        f.load(0).push(6).if_cmp(Cond::Ge, out);
        f.push(252).load(0).push(7).mul().push(5).add().call(gcd_id).print();
        f.load(0).push(11).add().load(0).push(3).add().call(mix_id).print();
        f.iinc(0, 1).goto(top);
        f.bind(out);
        f.ret_void();
        let main = pb.add_function(f.finish().unwrap());
        pb.finish(main).unwrap()
    }

    fn run(p: &Program) -> Vec<i64> {
        Vm::new(p).run().expect("program runs").output
    }

    fn assert_semantics_preserved(attack: impl FnOnce(&mut Program)) {
        let original = subject();
        let baseline = run(&original);
        let mut attacked = original;
        attack(&mut attacked);
        stackvm::verify::verify(&attacked).expect("attacked program verifies");
        assert_eq!(run(&attacked), baseline);
    }

    #[test]
    fn branch_insertion_preserves_semantics() {
        for seed in 0..5 {
            assert_semantics_preserved(|p| insert_random_branches(p, 40, seed));
        }
    }

    #[test]
    fn branch_insertion_adds_conditional_branches() {
        let mut p = subject();
        let before = p.conditional_branch_count();
        insert_random_branches(&mut p, 25, 3);
        assert_eq!(p.conditional_branch_count(), before + 25);
    }

    #[test]
    fn nop_insertion_preserves_semantics() {
        assert_semantics_preserved(|p| insert_nops(p, 100, 1));
    }

    #[test]
    fn sense_inversion_preserves_semantics() {
        for seed in 0..5 {
            assert_semantics_preserved(|p| invert_branch_senses(p, 1.0, seed));
            assert_semantics_preserved(|p| invert_branch_senses(p, 0.5, seed));
        }
    }

    #[test]
    fn sense_inversion_flips_conditions() {
        let mut p = subject();
        let before: Vec<_> = p.functions[0]
            .code
            .iter()
            .filter(|i| i.is_conditional_branch())
            .cloned()
            .collect();
        invert_branch_senses(&mut p, 1.0, 9);
        let after: Vec<_> = p.functions[0]
            .code
            .iter()
            .filter(|i| i.is_conditional_branch())
            .cloned()
            .collect();
        assert_eq!(before.len(), after.len());
        assert_ne!(before, after, "conditions must change");
    }

    #[test]
    fn block_reordering_preserves_semantics() {
        for seed in 0..8 {
            assert_semantics_preserved(|p| reorder_blocks(p, seed));
        }
    }

    #[test]
    fn block_reordering_changes_layout() {
        let mut p = subject();
        let before = p.functions[1].code.clone();
        reorder_blocks(&mut p, 4);
        assert_ne!(p.functions[1].code, before);
    }

    #[test]
    fn block_splitting_preserves_semantics() {
        assert_semantics_preserved(|p| split_blocks(p, 30, 2));
    }

    #[test]
    fn block_copying_preserves_semantics() {
        for seed in 0..5 {
            assert_semantics_preserved(|p| {
                copy_blocks(p, 10, seed);
            });
        }
    }

    #[test]
    fn stacked_attacks_preserve_semantics() {
        assert_semantics_preserved(|p| {
            insert_random_branches(p, 20, 1);
            invert_branch_senses(p, 0.7, 2);
            reorder_blocks(p, 3);
            split_blocks(p, 10, 4);
            insert_nops(p, 50, 5);
        });
    }

    #[test]
    fn method_merging_preserves_semantics() {
        for seed in 0..6 {
            let original = subject();
            let baseline = run(&original);
            let mut attacked = original.clone();
            let merged = merge_methods(&mut attacked, seed);
            assert!(merged.is_some(), "subject has a mergeable pair");
            stackvm::verify::verify(&attacked).expect("merged program verifies");
            assert_eq!(run(&attacked), baseline, "seed {seed}");
            assert_eq!(
                attacked.functions.len(),
                original.functions.len() + 1,
                "one merged body appended"
            );
        }
    }

    #[test]
    fn method_splitting_preserves_semantics() {
        let mut found_any = false;
        for seed in 0..8 {
            let original = subject();
            let baseline = run(&original);
            let mut attacked = original.clone();
            if split_method(&mut attacked, seed).is_none() {
                continue;
            }
            found_any = true;
            stackvm::verify::verify(&attacked).expect("split program verifies");
            assert_eq!(run(&attacked), baseline, "seed {seed}");
        }
        assert!(found_any, "at least one linear cut exists in the subject");
    }

    #[test]
    fn merge_then_split_round_trips_semantics() {
        let original = subject();
        let baseline = run(&original);
        let mut attacked = original.clone();
        merge_methods(&mut attacked, 3);
        split_method(&mut attacked, 4);
        insert_nops(&mut attacked, 40, 5);
        stackvm::verify::verify(&attacked).expect("verifies");
        assert_eq!(run(&attacked), baseline);
    }

    #[test]
    fn diversify_preserves_semantics_and_produces_diverse_population() {
        let original = subject();
        let baseline = run(&original);
        let mut copy_a = original.clone();
        let mut copy_b = original.clone();
        diversify(&mut copy_a, 1);
        diversify(&mut copy_b, 2);
        stackvm::verify::verify(&copy_a).unwrap();
        stackvm::verify::verify(&copy_b).unwrap();
        assert_eq!(run(&copy_a), baseline);
        assert_eq!(run(&copy_b), baseline);
        // The two copies differ in (nearly) every function, so a
        // colluding diff sees far more than watermark code.
        assert!(
            diversity(&copy_a, &copy_b) >= 0.99,
            "population is diverse: {}",
            diversity(&copy_a, &copy_b)
        );
        // Determinism per seed.
        let mut copy_a2 = original.clone();
        diversify(&mut copy_a2, 1);
        assert_eq!(copy_a, copy_a2);
        assert_eq!(diversity(&copy_a, &copy_a2), 0.0);
    }

    #[test]
    fn class_encryption_runs_but_hides_bytecode() {
        let p = subject();
        let baseline = run(&p);
        let enc = EncryptedProgram::encrypt(&p, 0xBEEF);
        assert_eq!(enc.run(vec![]).unwrap().output, baseline);
        assert_ne!(enc.stub(), &p, "the stub must not reveal the program");
        assert_eq!(enc.stub().functions.len(), 1);
        let recovered = enc.decrypt_for_runtime_tracing().unwrap();
        assert_eq!(recovered, p, "runtime tracing sees the real bytecode");
    }
}
