//! Randomized-property suite for the shipped recognition path: across
//! 150 generated programs (the same deterministic xorshift generator the
//! stackvm suite uses — no external property-testing crates), the
//! compiled tracer plus the streaming scan must reproduce the two-phase
//! reference path **bit for bit** — the reference interpreter's trace,
//! decoded to a bit-string, scanned by rolling a window over every
//! offset: the same trace bit-string, the same survivor table (values,
//! multiplicities, first offsets), and the same recognition. Under full
//! tracing the compiled tracer's block, branch and snapshot events must
//! equal the reference interpreter's too. A slice of the programs is
//! watermarked first so the suite also covers survivor-dense traces
//! where the periodic pre-reject engages.

use pathmark_core::bitstring::BitString;
use pathmark_core::java::{Embedder, JavaConfig, Recognizer};
use pathmark_core::key::{Watermark, WatermarkKey};
use pathmark_core::Survivors;
use stackvm::builder::{FunctionBuilder, ProgramBuilder};
use stackvm::insn::{BinOp, Cond};
use stackvm::interp::Vm;
use stackvm::trace::TraceConfig;
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
        let segments = 2 + g.below(6);
        for _ in 0..segments {
            let a = (g.below(locals as u64)) as u16;
            let b = (g.below(locals as u64)) as u16;
            let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor];
            let op = ops[g.below(ops.len() as u64) as usize];
            f.load(a).load(b).bin(op).store(a);
            if g.below(3) == 0 {
                let s = statics[g.below(statics.len() as u64) as usize];
                f.get_static(s).push(g.next() as i32 as i64).add().put_static(s);
            }
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

const CASES: u64 = 150;

/// The naive scan: roll a window over every offset, drop constants,
/// tally multiplicities and first offsets.
fn reference_survivors(bits: &BitString) -> Survivors {
    let entries = (0..bits.num_windows())
        .map(|offset| (bits.window_u64(offset).unwrap(), 1, offset as u64))
        .filter(|&(window, _, _)| window != 0 && window != u64::MAX)
        .collect();
    Survivors::from_entries(entries)
}

#[test]
fn fused_scan_matches_two_phase_on_generated_programs() {
    let key = WatermarkKey::new(0x5CA7, vec![2, 1, 3]);
    let config = JavaConfig::for_watermark_bits(64).with_pieces(10);
    let embedder = Embedder::builder(key.clone(), config.clone())
        .build()
        .unwrap();
    // One warm session shared across all programs, so the key-derived
    // crypto is not re-derived per program.
    let session = Recognizer::builder(key.clone(), config.clone())
        .build()
        .unwrap();
    let full_configs = [
        TraceConfig::full(),
        TraceConfig {
            snapshot_limit: 1,
            ..TraceConfig::full()
        },
        TraceConfig {
            snapshot_limit: 0,
            branches: false,
            ..TraceConfig::full()
        },
    ];

    let mut marked_cases = 0usize;
    for case in 0..CASES {
        let seed = Gen::new(case).next();
        let mut program = generate(seed);
        // Watermark every fifth program: marked traces are where the
        // periodic pre-reject actually engages, so the scan's
        // run-extension machinery gets exercised, not just its
        // random-window fall-through.
        let mut expected = None;
        if case % 5 == 0 {
            let watermark = Watermark::random_for(&config, &key);
            let marked = embedder.embed(&program, &watermark).expect("embed");
            program = marked.program;
            expected = Some(watermark);
            marked_cases += 1;
        }
        let vm = |trace: TraceConfig| {
            Vm::new(&program)
                .with_input(key.input.clone())
                .with_budget(config.trace_budget)
                .with_trace(trace)
        };

        // The shipped path against the two-phase reference path: the
        // trace bit-string and the survivor table must be bit-identical.
        let scan = session.trace_survivors(&program).expect("fused trace");
        let traced = vm(TraceConfig::branches_only())
            .run_reference()
            .expect("reference trace");
        let bits = BitString::from_trace(&traced.trace);
        let survivors = reference_survivors(&bits);
        assert_eq!(scan.bits, bits, "seed {seed}: trace bits");
        assert_eq!(scan.survivors, survivors, "seed {seed}: survivor table");
        assert_eq!(scan.scanned, bits.num_windows() as u64, "seed {seed}");
        assert!(scan.skipped <= scan.scanned, "seed {seed}");

        // And so must the recognition built on top of them.
        let shipped = session.recognize(&program).expect("recognize");
        let counts = session
            .candidates_from_survivors(&survivors)
            .expect("decrypt");
        let reference = session.recognize_from_candidates(counts).expect("combine");
        assert_eq!(shipped, reference, "seed {seed}: recognition");
        if let Some(watermark) = &expected {
            assert_eq!(shipped.watermark.as_ref(), Some(watermark.value()), "seed {seed}");
        }

        // Full tracing: blocks, branches and capped snapshots.
        for trace in full_configs {
            assert_eq!(
                vm(trace).run(),
                vm(trace).run_reference(),
                "seed {seed}: {trace:?}"
            );
        }
    }
    assert_eq!(marked_cases, 30, "every fifth case is watermarked");
}
