//! Randomized-property tests over generated (but well-formed by
//! construction) programs: verification, execution, codec round-trips,
//! and editing invariants. Randomness comes from the same hand-rolled
//! deterministic generator that builds the programs, so every run tests
//! the identical case set (no external property-testing crates).

use stackvm::builder::{FunctionBuilder, ProgramBuilder};
use stackvm::insn::{BinOp, Cond, Insn};
use stackvm::interp::Vm;
use stackvm::Program;

/// A small deterministic generator state (verification-friendly: all
/// branches are forward, so every generated program terminates).
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Generates a random straight-line-with-forward-branches program:
/// several leaf functions plus a main that calls them.
fn generate(seed: u64) -> Program {
    let mut g = Gen::new(seed);
    let mut pb = ProgramBuilder::new();
    let statics = (0..1 + g.below(3))
        .map(|i| pb.add_static(format!("s{i}")))
        .collect::<Vec<_>>();

    let nfuncs = 1 + g.below(4) as usize;
    let mut funcs: Vec<(stackvm::FuncId, u16)> = Vec::new();
    for fi in 0..nfuncs {
        let params = g.below(3) as u16;
        let mut f = FunctionBuilder::new(format!("f{fi}"), params, 3);
        let locals = params + 3;
        // Random forward-branching body.
        let segments = 2 + g.below(6);
        for _ in 0..segments {
            // A little arithmetic on random locals.
            let a = (g.below(locals as u64)) as u16;
            let b = (g.below(locals as u64)) as u16;
            let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor];
            let op = ops[g.below(ops.len() as u64) as usize];
            f.load(a).load(b).bin(op).store(a);
            // Sometimes touch a static.
            if g.below(3) == 0 {
                let s = statics[g.below(statics.len() as u64) as usize];
                f.get_static(s).push(g.next() as i32 as i64).add().put_static(s);
            }
            // A forward conditional skip.
            if g.below(2) == 0 {
                let skip = f.new_label();
                let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge];
                let c = conds[g.below(4) as usize];
                f.load(a).push(g.below(16) as i64).if_cmp(c, skip);
                f.iinc(b, 1);
                f.bind(skip);
            }
        }
        f.load((g.below(locals as u64)) as u16).ret();
        let id = pb.add_function(f.finish().expect("generated function builds"));
        funcs.push((id, params));
    }
    // main calls each function with constants and prints the results.
    let mut main = FunctionBuilder::new("main", 0, 1);
    for &(id, params) in &funcs {
        for p in 0..params {
            main.push((p as i64 + 1) * (g.below(9) as i64 + 1));
        }
        main.call(id).print();
    }
    main.ret_void();
    let main_id = pb.add_function(main.finish().expect("generated main builds"));
    pb.finish(main_id).expect("generated program verifies")
}


const CASES: u64 = 48;

#[test]
fn generated_programs_verify_and_terminate() {
    for seed in 0..CASES {
        let seed = Gen::new(seed).next();
        let p = generate(seed);
        stackvm::verify::verify(&p).expect("verifies");
        let out = Vm::new(&p).with_budget(5_000_000).run().expect("terminates");
        // Deterministic re-run.
        let out2 = Vm::new(&p).with_budget(5_000_000).run().expect("terminates");
        assert_eq!(out.output, out2.output, "seed {seed}");
        assert_eq!(out.instructions, out2.instructions, "seed {seed}");
    }
}

#[test]
fn codec_round_trips_generated_programs() {
    for seed in 0..CASES {
        let seed = Gen::new(seed ^ 0xC0DEC).next();
        let p = generate(seed);
        let bytes = stackvm::codec::encode_program(&p);
        let q = stackvm::codec::decode_program(&bytes).expect("decodes");
        assert_eq!(p, q, "seed {seed}");
        // And the decoded program behaves identically.
        let a = Vm::new(&p).with_budget(5_000_000).run().expect("runs");
        let b = Vm::new(&q).with_budget(5_000_000).run().expect("runs");
        assert_eq!(a.output, b.output, "seed {seed}");
    }
}

#[test]
fn nop_splices_never_change_behavior() {
    for seed in 0..CASES {
        let seed = Gen::new(seed ^ 0x5EED).next();
        let p = generate(seed);
        let baseline = Vm::new(&p).with_budget(5_000_000).run().expect("runs").output;
        let mut edited = p.clone();
        let mut g = Gen::new(seed ^ 0x1);
        let splices = 1 + g.below(19) as usize;
        for k in 0..splices {
            let pos = g.next();
            let fidx = (pos as usize) % edited.functions.len();
            let func = &mut edited.functions[fidx];
            let at = (pos as usize / 7 + k) % (func.code.len() + 1);
            stackvm::edit::insert_snippet(func, at, vec![Insn::Nop]);
        }
        stackvm::verify::verify(&edited).expect("edited program verifies");
        let out = Vm::new(&edited).with_budget(5_000_000).run().expect("runs");
        assert_eq!(out.output, baseline, "seed {seed}");
    }
}

#[test]
fn disassembly_never_panics() {
    for seed in 0..CASES {
        let seed = Gen::new(seed ^ 0xD15A).next();
        let p = generate(seed);
        let text = stackvm::pretty::disassemble(&p);
        assert!(text.contains("fn main"), "seed {seed}");
    }
}

/// A random snippet of `len` instructions whose branches aim anywhere in
/// it, its start (0) and its end (`len`) included.
fn random_snippet(g: &mut Gen, len: usize) -> Vec<Insn> {
    (0..len)
        .map(|_| {
            let t = g.below(len as u64 + 1) as usize;
            match g.below(4) {
                0 => Insn::Goto(t),
                1 => Insn::If(Cond::Ne, t),
                2 => Insn::Switch {
                    cases: vec![(1, t), (2, g.below(len as u64 + 1) as usize)],
                    default: 0,
                },
                _ => Insn::Nop,
            }
        })
        .collect()
}

#[test]
fn one_splice_equals_inserting_each_snippet_in_descending_order() {
    for seed in 0..CASES {
        let seed = Gen::new(seed ^ 0x5911CE).next();
        let p = generate(seed);
        let mut g = Gen::new(seed ^ 0x2);
        for func in &p.functions {
            let mut code = func.code.clone();
            let n = code.len();
            // Targets at and past the end must move as they always did.
            code.push(Insn::Goto(n + 1));
            code.push(Insn::If(Cond::Eq, n + 2 + g.below(3) as usize));
            let n = code.len();
            // Few points for many snippets, so several share a point,
            // the end included.
            let points: Vec<usize> = (0..1 + g.below(4))
                .map(|_| g.below(n as u64 + 1) as usize)
                .collect();
            let snippets: Vec<(usize, Vec<Insn>)> = (0..g.below(12))
                .map(|_| {
                    let at = points[g.below(points.len() as u64) as usize];
                    let len = g.below(5) as usize;
                    (at, random_snippet(&mut g, len))
                })
                .collect();

            let mut one_by_one = stackvm::Function {
                code: code.clone(),
                ..func.clone()
            };
            let mut order: Vec<usize> = (0..snippets.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(snippets[i].0));
            for i in order {
                let (at, snippet) = snippets[i].clone();
                stackvm::edit::insert_snippet(&mut one_by_one, at, snippet);
            }
            let spliced = stackvm::edit::splice_snippets(&code, snippets);
            assert_eq!(spliced, one_by_one.code, "seed {seed}, {}", func.name);
        }
    }
}
