//! Baseline watermarking schemes from the paper's related-work
//! comparison (Section 6), implemented so the resilience contrast can be
//! *measured* rather than asserted.
//!
//! * [`davidson_myhrvold`] — "Davidson and Myhrvold \[9\] embed the
//!   watermark by reordering basic blocks. It is easily subverted by
//!   permuting the order of the blocks." A *static* scheme: the mark is
//!   the permutation in which a function's basic blocks are laid out.
//! * [`stern_frequency`] — "Stern et al. \[19\] embed the watermark in the
//!   relative frequencies of instructions using a spread spectrum
//!   technique. The data-rate is low and the scheme is easily subverted
//!   by inserting redundant instructions." Modeled as a sign vector over
//!   instruction-frequency deviations.
//!
//! Both are deliberately faithful to their *failure modes*: the
//! comparison bench (`pathmark-bench`, `tables` target) shows them dying
//! under exactly the transformations path-based watermarks shrug off.

pub mod davidson_myhrvold {
    //! Basic-block-order watermarking (US Patent 5,559,884).
    //!
    //! The watermark is an integer `W < (n-1)!` encoded as the
    //! permutation of the non-entry basic blocks of a chosen function,
    //! in the factorial number system. Embedding reorders the blocks
    //! (inserting gotos to preserve semantics); recognition reads the
    //! layout order back and decodes the permutation index.

    use pathmark_math::bigint::BigUint;
    use stackvm::cfg::Cfg;
    use stackvm::insn::Insn;
    use stackvm::{FuncId, Program};

    use crate::WatermarkError;

    /// Capacity in watermark values of a function with `blocks` basic
    /// blocks: `(blocks - 1)!` (entry block stays first).
    pub fn capacity(blocks: usize) -> BigUint {
        let movable = blocks.saturating_sub(1) as u64;
        (1..=movable).fold(BigUint::one(), |acc, k| &acc * &BigUint::from(k))
    }

    /// Block fingerprint: the instruction sequence with branch targets
    /// normalized away (relocation rewrites them).
    fn block_fingerprint(f: &stackvm::Function, block: &stackvm::cfg::Block) -> Vec<String> {
        f.code[block.start..block.end]
            .iter()
            .map(|i| {
                let mut j = i.clone();
                j.map_targets(|_| 0);
                format!("{j:?}")
            })
            .collect()
    }

    /// Whether a function's blocks are pairwise distinguishable by
    /// content — a precondition for the scheme's recognizer, which
    /// identifies blocks by fingerprint.
    pub fn blocks_distinct(f: &stackvm::Function) -> bool {
        let cfg = Cfg::build(f);
        let mut prints: Vec<Vec<String>> = cfg
            .blocks
            .iter()
            .map(|b| block_fingerprint(f, b))
            .collect();
        let n = prints.len();
        prints.sort();
        prints.dedup();
        prints.len() == n
    }

    /// Picks the usable function with the largest capacity (≥ 3 blocks,
    /// all distinguishable by content).
    pub fn best_function(program: &Program) -> Option<(FuncId, usize)> {
        program
            .iter_functions()
            .filter(|(_, f)| blocks_distinct(f))
            .map(|(id, f)| (id, Cfg::build(f).len()))
            .filter(|&(_, blocks)| blocks >= 3)
            .max_by_key(|&(_, blocks)| blocks)
    }

    /// Embeds `w` into the block order of `func`.
    ///
    /// # Errors
    ///
    /// [`WatermarkError::WatermarkTooLarge`] if `w >= (blocks-1)!`.
    pub fn embed(
        program: &mut Program,
        func: FuncId,
        w: &BigUint,
    ) -> Result<(), WatermarkError> {
        let f = program.function_mut(func);
        let cfg = Cfg::build(f);
        let movable = cfg.len().saturating_sub(1);
        if *w >= capacity(cfg.len()) {
            return Err(WatermarkError::WatermarkTooLarge {
                got_bits: w.bits(),
                max_bits: capacity(cfg.len()).bits().saturating_sub(1),
            });
        }
        // Factorial-number-system digits of w: digit i in 0..=movable-1-i.
        let mut digits = Vec::with_capacity(movable);
        let mut rest = w.clone();
        for i in 0..movable {
            let base = (movable - i) as u64;
            let (q, r) = rest.divrem_u64(base).expect("base >= 1");
            digits.push(r as usize);
            rest = q;
        }
        // Lehmer decode: digits -> permutation of 1..=movable.
        let mut pool: Vec<usize> = (1..=movable).collect();
        let order: Vec<usize> = digits.iter().map(|&d| pool.remove(d)).collect();

        // Lay out: entry block, then blocks in `order`, patching broken
        // fall-throughs with gotos (old-leader targets remapped at end).
        let mut sequence = vec![0usize];
        sequence.extend(order);
        let mut new_code: Vec<Insn> = Vec::new();
        let mut new_start = vec![usize::MAX; cfg.len()];
        for (pos, &b) in sequence.iter().enumerate() {
            new_start[b] = new_code.len();
            let block = &cfg.blocks[b];
            for pc in block.start..block.end {
                new_code.push(f.code[pc].clone());
            }
            let last = new_code.last().expect("non-empty block");
            if !last.is_terminator() && block.end < f.code.len() {
                // Patch the fall-through edge only when the layout broke
                // it.
                let old_next = cfg.block_of[block.end];
                if sequence.get(pos + 1) != Some(&old_next) {
                    new_code.push(Insn::Goto(block.end)); // old pc; remapped below
                }
            }
        }
        for insn in &mut new_code {
            insn.map_targets(|old| new_start[cfg.block_of[old]]);
        }
        f.code = new_code;
        stackvm::verify::verify_function(program, program.function(func))?;
        Ok(())
    }

    /// Reads the watermark back from the block layout: the permutation
    /// of blocks (identified by their *content*) relative to the
    /// canonical order recorded at embed time is not available to a
    /// blind recognizer, so — as in the original scheme — recognition
    /// compares against the original program.
    ///
    /// Returns the recovered `w`, assuming `original` is the pre-embed
    /// program (the scheme is *informed*, one of its weaknesses).
    pub fn recognize(
        original: &Program,
        marked: &Program,
        func: FuncId,
    ) -> Option<BigUint> {
        let canon = Cfg::build(original.function(func));
        let laid = Cfg::build(marked.function(func));
        if canon.len() < 3 {
            return None;
        }
        // Identify blocks by instruction content (excluding targets,
        // which relocation rewrites).
        let fingerprint = block_fingerprint;
        let canon_prints: Vec<Vec<String>> = canon
            .blocks
            .iter()
            .map(|b| fingerprint(original.function(func), b))
            .collect();
        // For each laid-out block (in order, skipping the entry), find
        // its canonical index.
        let mut order = Vec::new();
        for lb in laid.blocks.iter() {
            let print = {
                let f = marked.function(func);
                // Trailing patch-gotos may have been appended; compare on
                // the canonical block length prefix.
                let mut p = fingerprint(f, lb);
                if p.last().map(|s| s.starts_with("Goto")) == Some(true) {
                    p.pop();
                }
                p
            };
            if print.is_empty() {
                continue; // a pure fall-through-patch goto block
            }
            let matched = canon_prints.iter().position(|cp| {
                cp == &print || {
                    let mut cp2 = cp.clone();
                    if cp2.last().map(|s| s.starts_with("Goto")) == Some(true) {
                        cp2.pop();
                    }
                    cp2 == print
                }
            })?;
            order.push(matched);
        }
        if order.len() != canon.len() || order.first() != Some(&0) {
            return None;
        }
        // Lehmer encode the non-entry order back into w.
        let movable = order.len() - 1;
        let mut pool: Vec<usize> = (1..=movable).collect();
        let mut w = BigUint::zero();
        let mut place = BigUint::one();
        let mut digits = Vec::new();
        for &b in &order[1..] {
            let d = pool.iter().position(|&x| x == b)?;
            pool.remove(d);
            digits.push(d);
        }
        for (i, &d) in digits.iter().enumerate() {
            w = &w + &(&place * &BigUint::from(d as u64));
            place = &place * &BigUint::from((movable - i) as u64);
        }
        Some(w)
    }
}

pub mod stern_frequency {
    //! Spread-spectrum instruction-frequency watermarking (Stern et
    //! al., IH 1999), in miniature: the mark is a ±1 chip sequence added
    //! to the frequencies of selected instruction kinds.

    use stackvm::insn::{BinOp, Insn};
    use stackvm::Program;

    /// The instruction kinds whose frequencies carry chips.
    pub const CARRIERS: [BinOp; 4] = [BinOp::Add, BinOp::Xor, BinOp::And, BinOp::Or];

    fn frequencies(program: &Program) -> [i64; 4] {
        let mut freq = [0i64; 4];
        for f in &program.functions {
            for insn in &f.code {
                if let Insn::Bin(op) = insn {
                    if let Some(i) = CARRIERS.iter().position(|c| c == op) {
                        freq[i] += 1;
                    }
                }
            }
        }
        freq
    }

    /// Embeds a 4-chip sign vector by padding carrier frequencies with
    /// dead (opaque) occurrences: chip +1 bumps the carrier count by
    /// `strength`, chip −1 leaves it.
    pub fn embed(program: &mut Program, chips: [bool; 4], strength: usize) {
        let main = program.entry;
        let f = program.function_mut(main);
        let scratch =
            stackvm::edit::reserve_locals(f, 1).expect("the entry function has a free local");
        let mut snippet = Vec::new();
        for (i, &chip) in chips.iter().enumerate() {
            if !chip {
                continue;
            }
            for _ in 0..strength {
                snippet.push(Insn::Load(scratch));
                snippet.push(Insn::Const(0));
                snippet.push(Insn::Bin(CARRIERS[i]));
                snippet.push(Insn::Store(scratch));
            }
        }
        stackvm::edit::insert_snippet(f, 0, snippet);
    }

    /// Recognizes by comparing frequencies against the original
    /// (informed, like the original scheme): chip i is +1 when the
    /// carrier count grew by at least `strength / 2`.
    pub fn recognize(original: &Program, marked: &Program, strength: usize) -> [bool; 4] {
        let base = frequencies(original);
        let now = frequencies(marked);
        let mut chips = [false; 4];
        for i in 0..4 {
            chips[i] = now[i] - base[i] >= strength as i64 / 2;
        }
        chips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathmark_math::bigint::BigUint;
    use stackvm::builder::{FunctionBuilder, ProgramBuilder};
    use stackvm::insn::Cond;
    use stackvm::interp::Vm;
    use stackvm::Program;

    fn subject() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 2);
        let a = f.new_label();
        let b = f.new_label();
        let c = f.new_label();
        let out = f.new_label();
        f.push(0).store(0);
        f.load(0).if_zero(Cond::Ne, a);
        f.iinc(1, 1).goto(b);
        f.bind(a);
        f.iinc(1, 2).goto(c);
        f.bind(b);
        f.iinc(1, 4).goto(c);
        f.bind(c);
        f.load(1).push(3).if_cmp(Cond::Gt, out);
        f.iinc(1, 8);
        f.bind(out);
        f.load(1).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        pb.finish(main).unwrap()
    }

    #[test]
    fn dm_round_trips_and_preserves_semantics() {
        let original = subject();
        let baseline = Vm::new(&original).run().unwrap().output;
        let (func, blocks) = davidson_myhrvold::best_function(&original).unwrap();
        let cap = davidson_myhrvold::capacity(blocks);
        assert!(cap > BigUint::from(1u64), "enough blocks to encode");
        for w in [0u64, 1, 3] {
            let w = BigUint::from(w);
            if w >= cap {
                continue;
            }
            let mut marked = original.clone();
            davidson_myhrvold::embed(&mut marked, func, &w).unwrap();
            assert_eq!(Vm::new(&marked).run().unwrap().output, baseline);
            let got = davidson_myhrvold::recognize(&original, &marked, func);
            assert_eq!(got, Some(w));
        }
    }

    #[test]
    fn dm_dies_under_block_reordering() {
        // The attack Section 6 names: "easily subverted by permuting the
        // order of the blocks."
        let original = subject();
        let (func, _) = davidson_myhrvold::best_function(&original).unwrap();
        let w = BigUint::from(2u64);
        let mut marked = original.clone();
        davidson_myhrvold::embed(&mut marked, func, &w).unwrap();
        pathmark_attacks_reorder(&mut marked);
        let got = davidson_myhrvold::recognize(&original, &marked, func);
        assert_ne!(got, Some(w), "block reordering must destroy DM");
    }

    /// Local stand-in for the attacks crate (which depends on this
    /// crate; no circular dev-dependency): a fixed block rotation.
    fn pathmark_attacks_reorder(program: &mut Program) {
        use stackvm::cfg::Cfg;
        use stackvm::insn::Insn;
        for f in &mut program.functions {
            let cfg = Cfg::build(f);
            if cfg.len() < 4 {
                continue;
            }
            // Rotate the non-entry blocks by two.
            let mut sequence: Vec<usize> = (1..cfg.len()).collect();
            let rot = 2 % sequence.len().max(1);
            sequence.rotate_left(rot);
            sequence.insert(0, 0);
            let mut new_code = Vec::new();
            let mut new_start = vec![usize::MAX; cfg.len()];
            for &b in &sequence {
                new_start[b] = new_code.len();
                let block = &cfg.blocks[b];
                for pc in block.start..block.end {
                    new_code.push(f.code[pc].clone());
                }
                let last: &Insn = new_code.last().expect("non-empty");
                if !last.is_terminator() && block.end < f.code.len() {
                    new_code.push(Insn::Goto(block.end));
                }
            }
            for insn in &mut new_code {
                insn.map_targets(|old| new_start[cfg.block_of[old]]);
            }
            f.code = new_code;
        }
    }

    #[test]
    fn stern_round_trips_and_dies_under_redundant_insertion() {
        let original = subject();
        let chips = [true, false, true, true];
        let mut marked = original.clone();
        stern_frequency::embed(&mut marked, chips, 8);
        assert_eq!(
            Vm::new(&marked).run().unwrap().output,
            Vm::new(&original).run().unwrap().output
        );
        assert_eq!(stern_frequency::recognize(&original, &marked, 8), chips);
        // Attack: insert redundant carrier instructions (Section 6:
        // "easily subverted by inserting redundant instructions").
        let f = marked.function_mut(marked.entry);
        let scratch = stackvm::edit::reserve_locals(f, 1).unwrap();
        let mut flood = Vec::new();
        for _ in 0..40 {
            for op in stern_frequency::CARRIERS {
                flood.push(stackvm::insn::Insn::Load(scratch));
                flood.push(stackvm::insn::Insn::Const(0));
                flood.push(stackvm::insn::Insn::Bin(op));
                flood.push(stackvm::insn::Insn::Store(scratch));
            }
        }
        stackvm::edit::insert_snippet(f, 0, flood);
        let got = stern_frequency::recognize(&original, &marked, 8);
        assert_ne!(got, chips, "redundant insertion must destroy Stern");
    }
}
