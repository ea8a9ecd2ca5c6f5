//! The embedding phase (Section 3.2).
//!
//! The watermark `W` is split into statements `W ≡ x (mod p_i·p_j)`
//! (step A of Figure 3), each statement is enumerated into a 64-bit
//! integer and encrypted with the key's block cipher (step B), and for
//! each resulting piece a code snippet is inserted (step C) whose
//! dynamic conditional-branch behavior on the secret input spells the
//! piece's 64 bits *contiguously* into the trace bit-string.
//!
//! Two code generators are provided:
//!
//! * **loop codegen** (Section 3.2.1): a fresh loop whose single inner
//!   conditional succeeds/fails in the pattern of the piece bits. Loop
//!   control uses `switch` — which is not a conditional branch and so
//!   contributes no bits — keeping the piece contiguous in the window.
//! * **condition codegen** (Section 3.2.2): a straight-line run of 64
//!   predicates over *existing program variables*, chosen from the trace
//!   snapshots so that the first execution primes the decoder and the
//!   second spells the piece.
//!
//! Pieces are placed at trace-visited block entries chosen randomly with
//! probability inversely proportional to the block's execution frequency
//! ("code is less likely to be inserted in program hotspots").

use std::collections::HashMap;

use pathmark_crypto::Prng;
use pathmark_math::crt::Statement;
use pathmark_telemetry::{Counter, Stage};
use stackvm::edit::{reserve_locals, splice_snippets};
use stackvm::insn::{BinOp, Cond, Insn};
use stackvm::program::encoded_size;
use stackvm::trace::{Site, Trace, TraceConfig, TraceEvent};
use stackvm::Program;

use super::{CodegenPolicy, Embedder};
use crate::hash::FxBuildHasher;
use crate::key::Watermark;
use crate::WatermarkError;

#[cfg(test)]
mod reference;

/// How one piece was inserted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PieceRecord {
    /// The statement this piece encodes.
    pub statement: Statement,
    /// The block (in the *original* program) it was inserted at.
    pub site: Site,
    /// Which generator produced the code.
    pub used_condition_codegen: bool,
}

/// Everything the embedder did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbedReport {
    /// One record per inserted piece.
    pub pieces: Vec<PieceRecord>,
    /// Emulated byte size before embedding.
    pub bytes_before: usize,
    /// Emulated byte size after embedding.
    pub bytes_after: usize,
}

/// A watermarked program plus its embedding report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkedProgram {
    /// The watermarked program.
    pub program: Program,
    /// What was embedded where.
    pub report: EmbedReport,
}

impl Embedder {
    /// Runs the tracing phase on the session's secret input, recording
    /// everything embedding needs ([`TraceConfig::full`]). Reported to
    /// telemetry as [`Stage::Trace`].
    ///
    /// # Errors
    ///
    /// [`WatermarkError::TraceFailed`] if the program faults or exceeds
    /// the budget.
    pub fn trace(&self, program: &Program) -> Result<Trace, WatermarkError> {
        self.telemetry.time(Stage::Trace, || {
            super::trace_program(program, &self.key, &self.config, TraceConfig::full())
        })
    }

    /// Embeds `watermark` into `program`: trace, then
    /// [`Embedder::embed_with_trace`].
    ///
    /// # Errors
    ///
    /// * [`WatermarkError::TraceFailed`] if the program cannot be traced
    ///   on the secret input;
    /// * the errors of [`Embedder::embed_with_trace`].
    pub fn embed(
        &self,
        program: &Program,
        watermark: &Watermark,
    ) -> Result<MarkedProgram, WatermarkError> {
        let trace = self.trace(program)?;
        self.embed_with_trace(program, watermark, &trace)
    }

    /// Embeds `watermark` into `program` using a precomputed full trace
    /// of the *unmarked* program on the key's secret input.
    ///
    /// This is the batch-fingerprinting entry point: tracing is the only
    /// embedding step that executes the program, so a fleet embedding N
    /// distinct watermarks into the same program can trace it once (with
    /// [`TraceConfig::full`]) and share the immutable trace across all N
    /// jobs. [`Embedder::embed`] is exactly `embed_with_trace(program, …,
    /// &self.trace(program)?)`, so the two paths produce byte-identical
    /// marked programs.
    ///
    /// Telemetry: one [`Stage::Split`] span for step A, one
    /// [`Stage::Encrypt`] and one [`Stage::Codegen`] span per piece, a
    /// [`Stage::Verify`] span for splice + verification, and a
    /// [`Counter::PiecesEmbedded`] increment per piece.
    ///
    /// # Errors
    ///
    /// * [`WatermarkError::WatermarkTooLarge`] if `W ≥ Π p_k`;
    /// * [`WatermarkError::NoInsertionPoint`] if the trace visited no
    ///   blocks;
    /// * [`WatermarkError::TooManyLocals`] if a piece's fresh locals do
    ///   not fit in the function chosen to host it;
    /// * [`WatermarkError::Math`] for prime-configuration errors;
    /// * [`WatermarkError::TraceFailed`] with a [`stackvm::VmError::Verify`]
    ///   if the marked program does not verify (a host that did not).
    pub fn embed_with_trace(
        &self,
        program: &Program,
        watermark: &Watermark,
        trace: &Trace,
    ) -> Result<MarkedProgram, WatermarkError> {
        let (key, config) = (&self.key, &self.config);
        let crypto = self.crypto()?;
        let (enumeration, cipher) = (&crypto.enumeration, &crypto.cipher);
        let bound = enumeration.watermark_bound();
        if watermark.value() >= &bound {
            return Err(WatermarkError::WatermarkTooLarge {
                got_bits: watermark.value().bits(),
                max_bits: bound.bits() - 1,
            });
        }
        let mut rng = key.prng();

        // Step A: split into all distinct statements, shuffled; cycle to
        // the requested redundancy.
        let pieces: Vec<Statement> = self.telemetry.time(Stage::Split, || {
            let mut statements = enumeration.split(watermark.value());
            rng.shuffle(&mut statements);
            statements
                .iter()
                .cycle()
                .take(config.num_pieces)
                .copied()
                .collect()
        });

        // Candidate insertion points: visited blocks, weighted by 1/freq.
        // Condition codegen (Section 3.2.2) additionally needs "locations
        // that are executed multiple times on the secret input sequence",
        // so keep a second pool restricted to multi-visit blocks.
        let blocks = VisitedBlocks::new(trace);
        if blocks.0.is_empty() && !pieces.is_empty() {
            return Err(WatermarkError::NoInsertionPoint);
        }
        let all = Pool::new(&blocks, |_| true);
        // Multi-visit yet still infrequent (the hotspot-avoidance policy
        // applies to both generators).
        let multi = Pool::new(&blocks, |visits| (2..=16).contains(&visits));

        // Plan all insertions against the ORIGINAL program, then rebuild
        // each touched function once from its plans.
        let mut marked = program.clone();
        let mut plans: Vec<(Site, Vec<Insn>)> = Vec::with_capacity(pieces.len());
        let mut records = Vec::with_capacity(pieces.len());
        for statement in pieces {
            // Step B: enumerate + encrypt into one 64-bit block.
            let block = self.telemetry.time(Stage::Encrypt, || {
                let encoded = enumeration
                    .encode(&statement)
                    .expect("split statements always encode");
                cipher.encrypt(encoded)
            });

            let (site, snippet, used_condition) = self.telemetry.time(Stage::Codegen, || {
                let want_condition = match config.codegen {
                    CodegenPolicy::LoopOnly => false,
                    CodegenPolicy::PreferCondition => true,
                    CodegenPolicy::Mixed => rng.chance(0.5),
                };
                let pool = if want_condition { &multi } else { &all };
                let chosen = &blocks.0[pool
                    .draw(&mut rng)
                    .or_else(|| all.draw(&mut rng))
                    .expect("visited set is non-empty")];
                let site = chosen.site;
                let func = marked.function_mut(site.func);
                let snippet = match (want_condition, chosen.snapshots) {
                    (true, [Some(v1), Some(v2)]) => {
                        condition_snippet(func, v1, v2, block, &mut rng)
                    }
                    _ => None,
                };
                match snippet {
                    Some(s) => Ok((site, s, true)),
                    None => {
                        let Some(scratch) = reserve_locals(func, 4) else {
                            return Err(WatermarkError::TooManyLocals {
                                func_name: func.name.clone(),
                                num_locals: func.num_locals,
                                extra: 4,
                            });
                        };
                        let live = pick_live_local(func, &mut rng);
                        Ok((site, loop_snippet(block, scratch, live, &mut rng), false))
                    }
                }
            })?;
            plans.push((site, snippet));
            records.push(PieceRecord {
                statement,
                site,
                used_condition_codegen: used_condition,
            });
        }
        self.telemetry
            .count(Counter::PiecesEmbedded, records.len() as u64);

        let bytes_before = program.byte_size();
        // Branch targets do not change an instruction's encoded size.
        let bytes_after = bytes_before
            + plans
                .iter()
                .flat_map(|(_, snippet)| snippet.iter().map(encoded_size))
                .sum::<usize>();
        // Apply: one splice per touched function, its plans in piece
        // order, which equals inserting them one by one in descending pc
        // order; then verify the whole marked program.
        self.telemetry.time(Stage::Verify, || {
            plans.sort_by_key(|(site, _)| site.func);
            let mut plans = plans.into_iter().peekable();
            while let Some((site, snippet)) = plans.next() {
                let mut here = vec![(site.pc, snippet)];
                while let Some((next, snippet)) = plans.next_if(|(s, _)| s.func == site.func) {
                    here.push((next.pc, snippet));
                }
                marked.function_mut(site.func).code =
                    splice_snippets(&program.function(site.func).code, here);
            }
            stackvm::verify::verify(&marked)
        })?;

        Ok(MarkedProgram {
            report: EmbedReport {
                pieces: records,
                bytes_before,
                bytes_after,
            },
            program: marked,
        })
    }
}

/// The trace's visited block leaders with their visit counts, sorted by
/// site (the order of [`Trace::visited_blocks`]), plus the locals of each
/// leader's first two snapshots: everything embedding reads from the
/// trace, gathered in one pass over it.
struct VisitedBlocks<'t>(Vec<VisitedBlock<'t>>);

struct VisitedBlock<'t> {
    site: Site,
    visits: u64,
    /// Locals of the first two snapshots at the leader, in trace order.
    snapshots: [Option<&'t [i64]>; 2],
}

impl<'t> VisitedBlocks<'t> {
    fn new(trace: &'t Trace) -> VisitedBlocks<'t> {
        let mut blocks: Vec<VisitedBlock<'t>> = Vec::new();
        let mut slots: HashMap<Site, usize, FxBuildHasher> = HashMap::default();
        for event in &trace.events {
            let (site, locals) = match event {
                TraceEvent::EnterBlock { site } => (*site, None),
                TraceEvent::Snapshot { site, data } => (*site, Some(data.locals.as_slice())),
                TraceEvent::Branch { .. } => continue,
            };
            let slot = *slots.entry(site).or_insert_with(|| {
                blocks.push(VisitedBlock {
                    site,
                    visits: 0,
                    snapshots: [None, None],
                });
                blocks.len() - 1
            });
            let block = &mut blocks[slot];
            match locals {
                None => block.visits += 1,
                Some(locals) => {
                    if let Some(free) = block.snapshots.iter_mut().find(|s| s.is_none()) {
                        *free = Some(locals);
                    }
                }
            }
        }
        blocks.retain(|b| b.visits > 0);
        blocks.sort_unstable_by_key(|b| b.site);
        VisitedBlocks(blocks)
    }
}

/// One weighted pool of insertion points: the positive weights in site
/// order with the block each belongs to, and their total, summed once.
/// [`Prng::weighted_index`] skips weights that are not positive, so
/// drawing from these alone picks the same block, bit for bit, as
/// drawing from a weight per visited block, zeros included.
struct Pool {
    blocks: Vec<usize>,
    weights: Vec<f64>,
    total: f64,
}

impl Pool {
    /// Blocks whose visit count passes `admit`, weighted by 1/visits
    /// (positive: every block was visited).
    fn new(blocks: &VisitedBlocks, admit: impl Fn(u64) -> bool) -> Pool {
        let (blocks, weights): (Vec<usize>, Vec<f64>) = blocks
            .0
            .iter()
            .enumerate()
            .filter(|(_, b)| admit(b.visits))
            .map(|(i, b)| (i, 1.0 / b.visits as f64))
            .unzip();
        let total = Prng::weight_total(&weights);
        Pool {
            blocks,
            weights,
            total,
        }
    }

    /// A block index drawn with probability proportional to its weight;
    /// `None` (drawing nothing) when the pool is empty.
    fn draw(&self, rng: &mut Prng) -> Option<usize> {
        rng.weighted_index_with_total(&self.weights, self.total)
            .map(|i| self.blocks[i])
    }
}

/// Picks an existing local to play the "live variable" in the opaquely
/// false guard (falls back to local 0 of the snippet scratch area).
fn pick_live_local(func: &stackvm::Function, rng: &mut Prng) -> u16 {
    if func.num_locals == 0 {
        0
    } else {
        rng.index(func.num_locals as usize) as u16
    }
}

/// Section 3.2.1 loop code generation.
///
/// Generates (with `x, i, t, j` fresh locals starting at `scratch`):
///
/// ```text
/// x = <block>; i = 0; j = 0;
/// head: switch i { 0 => t = 0, _ => t = (x >>> (i-1)) & 1 }
///       if (t != 0) j++;            // the piece-spelling branch
///       i++;
///       switch i { 65 => done, _ => head }
/// done: if (OPAQUELY_FALSE(x)) live += j;
/// ```
///
/// The inner `if` executes 65 times: once to prime the decoder's
/// first-followed-by reference (iteration 0 always falls through) and 64
/// times spelling the block bits. Both pieces of loop control are
/// `switch` instructions, which the bit-string decoder ignores, so the
/// 64 bits land contiguously in the trace.
fn loop_snippet(block: u64, scratch: u16, live_local: u16, rng: &mut Prng) -> Vec<Insn> {
    let (x, i, t, j) = (scratch, scratch + 1, scratch + 2, scratch + 3);
    let mut code = vec![
        Insn::Const(block as i64),
        Insn::Store(x),
        Insn::Const(0),
        Insn::Store(i),
        Insn::Const(0),
        Insn::Store(j),
    ];
    let head = code.len(); // 6
    code.push(Insn::Load(i)); // 6
    let switch_at = code.len(); // 7; patched below
    code.push(Insn::Nop);
    let zero_case = code.len(); // 8
    code.push(Insn::Const(0)); // 8
    code.push(Insn::Store(t)); // 9
    let goto_test_at = code.len(); // 10; patched below
    code.push(Insn::Nop);
    let extract = code.len(); // 11
    code.push(Insn::Load(x));
    code.push(Insn::Load(i));
    code.push(Insn::Const(1));
    code.push(Insn::Bin(BinOp::Sub));
    code.push(Insn::Bin(BinOp::UShr));
    code.push(Insn::Const(1));
    code.push(Insn::Bin(BinOp::And));
    code.push(Insn::Store(t));
    let test = code.len(); // 19
    code[switch_at] = Insn::Switch {
        cases: vec![(0, zero_case)],
        default: extract,
    };
    code[goto_test_at] = Insn::Goto(test);
    code.push(Insn::Load(t)); // 19
    let if_at = code.len(); // 20
    code.push(Insn::Nop); // placeholder for If
    let goto_cont_at = code.len(); // 21
    code.push(Insn::Nop); // placeholder for Goto
    let taken = code.len(); // 22
    code.push(Insn::Iinc(j, 1));
    let cont = code.len(); // 23
    code[if_at] = Insn::If(Cond::Ne, taken);
    code[goto_cont_at] = Insn::Goto(cont);
    code.push(Insn::Iinc(i, 1));
    code.push(Insn::Load(i));
    let exit_switch_at = code.len();
    code.push(Insn::Nop);
    let done = code.len();
    code[exit_switch_at] = Insn::Switch {
        cases: vec![(65, done)],
        default: head,
    };
    // Opaque tail: if (false) live += j.
    let predicate = super::OpaquePredicate::choose(rng);
    let body = vec![
        Insn::Load(live_local),
        Insn::Load(j),
        Insn::Bin(BinOp::Add),
        Insn::Store(live_local),
    ];
    let tail = predicate.guard(x, body);
    // Rebase the tail's relative targets onto the snippet.
    let base = code.len();
    for mut insn in tail {
        insn.map_targets(|t| t + base);
        code.push(insn);
    }
    code
}

/// Section 3.2.2 condition code generation, from the locals `v1` and
/// `v2` of the site's first two visits on the secret input.
///
/// Bits of value 1 require some local variable to differ between the two
/// visits. Returns `None` when the site cannot host the piece, or when
/// its one fresh local would pass `u16::MAX` (the caller falls back to
/// loop codegen).
fn condition_snippet(
    func: &mut stackvm::Function,
    v1: &[i64],
    v2: &[i64],
    block: u64,
    rng: &mut Prng,
) -> Option<Vec<Insn>> {
    // Locals whose value changes between the first two visits can encode
    // a 1; any local can encode a 0.
    let changing: Vec<usize> = (0..v1.len().min(v2.len()))
        .filter(|&l| v1[l] != v2[l])
        .collect();
    if changing.is_empty() || v1.is_empty() {
        return None;
    }
    let t = reserve_locals(func, 1)?;
    let live = pick_live_local(func, rng);
    let mut code = vec![Insn::Const(0), Insn::Store(t)];
    for k in 0..64 {
        let bit = block >> k & 1 == 1;
        let (local, constant, cond) = if bit {
            // True at visit 1, false at visit 2: the branch direction
            // flips, decoding as 1.
            let l = changing[rng.index(changing.len())];
            (l, v1[l], Cond::Eq)
        } else {
            // Same truth value at both visits, decoding as 0.
            let l = rng.index(v1.len());
            if v1[l] == v2[l] {
                (l, v1[l], Cond::Eq)
            } else {
                // A constant different from both values keeps `!=` true
                // at both visits.
                let mut c = v1[l] ^ v2[l] ^ (rng.next_u64() as i64 | 1);
                while c == v1[l] || c == v2[l] {
                    c = c.wrapping_add(1);
                }
                (l, c, Cond::Ne)
            }
        };
        code.push(Insn::Load(local as u16));
        code.push(Insn::Const(constant));
        let if_at = code.len();
        code.push(Insn::Nop);
        let goto_at = code.len();
        code.push(Insn::Nop);
        let taken = code.len();
        code.push(Insn::Iinc(t, 1));
        let cont = code.len();
        code[if_at] = Insn::IfCmp(cond, taken);
        code[goto_at] = Insn::Goto(cont);
    }
    // Opaque tail keeps `t` live.
    let predicate = super::OpaquePredicate::choose(rng);
    let body = vec![
        Insn::Load(live),
        Insn::Load(t),
        Insn::Bin(BinOp::Add),
        Insn::Store(live),
    ];
    let tail = predicate.guard(t, body);
    let base = code.len();
    for mut insn in tail {
        insn.map_targets(|tt| tt + base);
        code.push(insn);
    }
    Some(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::java::JavaConfig;
    use crate::key::WatermarkKey;
    use crate::bitstring::BitString;
    use stackvm::builder::{FunctionBuilder, ProgramBuilder};
    use stackvm::edit::insert_snippet;
    use stackvm::interp::Vm;

    fn looping_program() -> Program {
        looping_program_with_locals(2)
    }

    fn looping_program_with_locals(num_locals: u16) -> Program {
        // Visits its loop head 11 times with a changing counter local.
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, num_locals);
        let head = f.new_label();
        let out = f.new_label();
        f.push(0).store(0);
        f.bind(head);
        f.load(0).push(10).if_cmp(Cond::Ge, out);
        f.load(0).load(1).add().store(1);
        f.iinc(0, 1).goto(head);
        f.bind(out);
        f.load(1).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        pb.finish(main).unwrap()
    }

    fn key() -> WatermarkKey {
        WatermarkKey::new(0xABCDEF, vec![5, 6, 7])
    }

    #[test]
    fn loop_snippet_spells_the_block() {
        // Insert one loop snippet into a trivial program and check that
        // the trace bit-string contains the block bits contiguously.
        let block = 0xDEAD_BEEF_1234_5678u64;
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 4);
        f.push(1).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let mut program = pb.finish(main).unwrap();
        let mut rng = Prng::from_seed(1);
        let snippet = loop_snippet(block, 0, 0, &mut rng);
        insert_snippet(program.function_mut(main), 0, snippet);
        stackvm::verify::verify(&program).unwrap();
        let out = Vm::new(&program)
            .with_trace(TraceConfig::branches_only())
            .run()
            .unwrap();
        assert_eq!(out.output, vec![1], "snippet must not change semantics");
        let bits = BitString::from_trace(&out.trace);
        // Expected: primer 0, then the 64 block bits, then the opaque
        // guard's single 0.
        let window = bits.window_u64(1).expect("at least 65 bits");
        assert_eq!(window, block);
        assert!(!bits.bit(0), "primer bit is 0");
    }

    #[test]
    fn loop_snippet_repeats_on_every_visit() {
        let block = 0x0F0F_0F0F_0F0F_0F0Fu64;
        let mut program = looping_program();
        let mut rng = Prng::from_seed(2);
        // The loop head block of `main` starts at pc 2 (after the two
        // init instructions); reserve scratch locals first.
        let scratch = reserve_locals(program.function_mut(stackvm::FuncId(0)), 4).unwrap();
        let snippet = loop_snippet(block, scratch, 0, &mut rng);
        insert_snippet(program.function_mut(stackvm::FuncId(0)), 2, snippet);
        stackvm::verify::verify(&program).unwrap();
        let out = Vm::new(&program)
            .with_trace(TraceConfig::branches_only())
            .run()
            .unwrap();
        let bits = BitString::from_trace(&out.trace);
        // The head is visited 11 times; each visit spells the block.
        let windows: Vec<u64> = bits.windows().collect();
        let hits = windows.iter().filter(|&&w| w == block).count();
        assert!(hits >= 11, "expected >= 11 copies, got {hits}");
    }

    #[test]
    fn embed_preserves_semantics_and_grows_code() {
        let program = looping_program();
        let config = JavaConfig::for_watermark_bits(64).with_pieces(12);
        let watermark = Watermark::random_for(&config, &key());
        let marked = Embedder::builder(key(), config)
            .build()
            .unwrap()
            .embed(&program, &watermark)
            .unwrap();
        assert_eq!(marked.report.pieces.len(), 12);
        assert!(marked.report.bytes_after > marked.report.bytes_before);
        let orig = Vm::new(&program).with_input(key().input).run().unwrap();
        let new = Vm::new(&marked.program)
            .with_input(key().input)
            .run()
            .unwrap();
        assert_eq!(orig.output, new.output);
        // And on a DIFFERENT input too (semantics preserved everywhere).
        let orig2 = Vm::new(&program).with_input(vec![9, 9]).run().unwrap();
        let new2 = Vm::new(&marked.program)
            .with_input(vec![9, 9])
            .run()
            .unwrap();
        assert_eq!(orig2.output, new2.output);
    }

    #[test]
    fn embed_rejects_oversized_watermark() {
        let program = looping_program();
        let config = JavaConfig::for_watermark_bits(64);
        // A watermark far wider than the prime product.
        let wide = Watermark::from_value(
            &pathmark_math::bigint::BigUint::one() << 300,
            300,
        );
        let session = Embedder::builder(key(), config).build().unwrap();
        assert!(matches!(
            session.embed(&program, &wide),
            Err(WatermarkError::WatermarkTooLarge { .. })
        ));
    }

    #[test]
    fn condition_codegen_is_used_when_possible() {
        let program = looping_program();
        let config = JavaConfig::for_watermark_bits(64)
            .with_pieces(20)
            .with_codegen(CodegenPolicy::PreferCondition);
        let watermark = Watermark::random_for(&config, &key());
        let marked = Embedder::builder(key(), config)
            .build()
            .unwrap()
            .embed(&program, &watermark)
            .unwrap();
        assert!(
            marked
                .report
                .pieces
                .iter()
                .any(|p| p.used_condition_codegen),
            "at least one piece should use condition codegen"
        );
        // Semantics preserved.
        let orig = Vm::new(&program).with_input(key().input).run().unwrap();
        let new = Vm::new(&marked.program)
            .with_input(key().input)
            .run()
            .unwrap();
        assert_eq!(orig.output, new.output);
    }

    #[test]
    fn a_host_without_room_for_fresh_locals_gets_a_typed_error() {
        let config = JavaConfig::for_watermark_bits(64).with_pieces(8);
        let watermark = Watermark::random_for(&config, &key());
        let session = Embedder::builder(key(), config).build().unwrap();
        // Eight pieces take at most 32 fresh locals: 65,500 has room.
        let roomy = looping_program_with_locals(65_500);
        let marked = session.embed(&roomy, &watermark).unwrap();
        assert_eq!(marked.report.pieces.len(), 8);
        assert!(marked.program.functions[0].num_locals > 65_500);
        // 65,534 leaves one: the second piece at the latest runs out.
        match session.embed(&looping_program_with_locals(65_534), &watermark) {
            Err(WatermarkError::TooManyLocals {
                func_name,
                num_locals,
                extra,
            }) => {
                assert_eq!(func_name, "main");
                assert!(num_locals >= 65_534, "{num_locals}");
                assert_eq!(extra, 4);
            }
            other => panic!("expected TooManyLocals, got {other:?}"),
        }
    }

    #[test]
    fn zero_pieces_is_identity_modulo_clone() {
        let program = looping_program();
        let config = JavaConfig::for_watermark_bits(64).with_pieces(0);
        let watermark = Watermark::random_for(&config, &key());
        let marked = Embedder::builder(key(), config)
            .build()
            .unwrap()
            .embed(&program, &watermark)
            .unwrap();
        assert_eq!(marked.program, program);
    }
}
