//! The trace bit-string of Section 3.1, stored packed.
//!
//! > "For each conditional branch instruction *i* that occurs in the
//! > trace, we find its first occurrence, and find the block *j* that
//! > immediately follows that occurrence in the trace. Then we decode the
//! > trace into a string of bits by scanning the trace from beginning to
//! > end and writing down a 0 whenever a conditional branch is
//! > immediately followed by the same instruction by which it was first
//! > followed, and a 1 otherwise."
//!
//! The resulting string is invariant under code reordering, branch-sense
//! inversion, and insertion/deletion of non-branch instructions; adding
//! or removing branches has only local effect — the properties the
//! paper's resilience argument rests on.
//!
//! # Packed layout
//!
//! Bits are stored in `u64` words, bit `i` at `words[i / 64]`, position
//! `i % 64` (LSB-first). Unused high bits of the last word are always
//! zero. Recognition's hot loop (Section 3.3 decrypts *every* sliding
//! 64-bit window) reads this layout directly:
//!
//! * [`BitString::window_u64`] is a constant-time two-word extract, so
//!   the scan no longer gathers 64 `bool`s per offset;
//! * [`BitString::windows`] rolls the window one bit per offset;
//! * [`BitString::next_set_bit`] / [`BitString::next_clear_bit`] find
//!   run boundaries a word at a time, letting the scan skip constant
//!   all-zero/all-one stretches without touching the cipher.
//!
//! The words live behind an `Arc`, so cloning a `BitString` shares the
//! storage instead of copying the whole string.

use std::collections::HashMap;
use std::sync::Arc;

use stackvm::trace::{Site, Trace, TraceSink};

use crate::hash::FxBuildHasher;

/// The decoded bit-string of a trace, packed 64 bits to a word.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitString {
    /// Bit `i` lives at `words[i / 64] >> (i % 64) & 1`; bits past
    /// `len` in the last word are zero.
    words: Arc<[u64]>,
    len: usize,
}

/// Incremental builder: packs bits into words as they are appended, so
/// decoding a trace never materializes a `Vec<bool>`.
#[derive(Debug, Clone, Default)]
pub struct BitStringBuilder {
    words: Vec<u64>,
    /// Accumulator for the word in progress; flushed to `words` every
    /// 64th push so the hot path never touches the vector.
    cur: u64,
    len: usize,
}

impl BitStringBuilder {
    /// An empty builder.
    pub fn new() -> BitStringBuilder {
        BitStringBuilder::default()
    }

    /// A builder expecting about `bits` bits.
    pub fn with_capacity(bits: usize) -> BitStringBuilder {
        BitStringBuilder {
            words: Vec::with_capacity(bits.div_ceil(64)),
            cur: 0,
            len: 0,
        }
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.cur |= (bit as u64) << (self.len % 64);
        self.len += 1;
        if self.len.is_multiple_of(64) {
            self.words.push(self.cur);
            self.cur = 0;
        }
    }

    /// Number of bits appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bit has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Freezes the builder into an immutable, sharable [`BitString`].
    pub fn finish(mut self) -> BitString {
        if !self.len.is_multiple_of(64) {
            self.words.push(self.cur);
        }
        BitString {
            words: self.words.into(),
            len: self.len,
        }
    }

    /// The fully packed words so far (the word in progress excluded):
    /// exactly `len() / 64` words, each one final. The streaming scan
    /// reads its lookback windows out of these while the trace is still
    /// being written.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The 64-bit window starting at bit `offset` of a packed word slice
/// holding `len` bits (LSB-first, unused high bits of the last word
/// zero); `None` past the end. The shared kernel behind
/// [`BitString::window_u64`] and the streaming scanner's lookback reads
/// over a [`BitStringBuilder`]'s completed words.
#[inline]
pub fn window_from_words(words: &[u64], len: usize, offset: usize) -> Option<u64> {
    if offset + 64 > len {
        return None;
    }
    let (w, s) = (offset / 64, (offset % 64) as u32);
    let lo = words[w] >> s;
    // When the window is word-aligned (s == 0) the high word may not
    // exist (offset + 64 == len at a word boundary) and contributes
    // nothing; otherwise offset + 64 > 64·(w + 1) guarantees it does.
    let hi = if s == 0 { 0 } else { words[w + 1] << (64 - s) };
    Some(lo | hi)
}

/// The first bit at or after `from` violating `period` in a packed word
/// slice holding `len` bits: the smallest `q >= max(from, period)` with
/// `bit(q) != bit(q - period)`, or `len` when the bits are
/// `period`-periodic to the end. The word-parallel kernel behind the
/// streaming scanner's constant-run jump (`period == 1`) and periodic
/// run extension — each packed word is XORed against the word `period`
/// bits back (two shifted reads), and the difference words are
/// classified **four at a time** with a single OR-reduction, so
/// skipping a megabit periodic stretch costs a few thousand word
/// operations rather than a million bit reads.
///
/// # Panics
///
/// Panics if `period == 0`.
pub fn period_mismatch_in_words(words: &[u64], len: usize, from: usize, period: usize) -> usize {
    assert!(period > 0, "period must be at least 1");
    let bit = |i: usize| (words[i / 64] >> (i % 64)) & 1;
    let mut q = from.max(period);
    // Scalar prologue: advance to a word boundary so the word loop
    // below never reads a packed word below index 0.
    while q < len && !q.is_multiple_of(64) {
        if bit(q) != bit(q - period) {
            return q;
        }
        q += 1;
    }
    if q >= len {
        return len;
    }
    let (dw, db) = (period / 64, (period % 64) as u32);
    // diff(k) = words[k] XOR (the 64 bits starting `period` bits
    // before word k), nonzero iff word k contains a violation. With
    // q word-aligned and q >= period, `k > dw` whenever `db > 0`,
    // so both source words exist.
    let diff = |k: usize| {
        let prev = if db == 0 {
            words[k - dw]
        } else {
            (words[k - dw] << db) | (words[k - dw - 1] >> (64 - db))
        };
        words[k] ^ prev
    };
    let hit = |k: usize, d: u64| k * 64 + d.trailing_zeros() as usize;
    let mut k = q / 64;
    // Classify four words (256 bits) per step: one OR-reduction
    // decides "any violation here?", and only a hit pays for the
    // per-word inspection.
    while k + 4 <= words.len() {
        let (d0, d1, d2, d3) = (diff(k), diff(k + 1), diff(k + 2), diff(k + 3));
        if d0 | d1 | d2 | d3 != 0 {
            let (j, d) = [d0, d1, d2, d3]
                .into_iter()
                .enumerate()
                .find(|&(_, d)| d != 0)
                .expect("the OR-reduction saw a set bit");
            // Zero padding past `len` in the last word XORs against
            // real earlier bits; a hit landing there is phantom.
            return hit(k + j, d).min(len);
        }
        k += 4;
    }
    while k < words.len() {
        let d = diff(k);
        if d != 0 {
            return hit(k, d).min(len);
        }
        k += 1;
    }
    len
}

impl Extend<bool> for BitStringBuilder {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

/// A [`TraceSink`] that folds the first-followed-by rule inline: every
/// dynamic branch becomes a packed bit the moment the interpreter reports
/// it, so the recognize path never materializes a `Vec<TraceEvent>`
/// (32 bytes/event) only to re-walk it through [`BitString::from_trace`].
///
/// Must observe the same branch sequence [`BitString::from_trace`] would
/// read from a collected trace — the `packed_sink_matches_from_trace`
/// property tests (here and in `java::recognize`) gate that equivalence
/// in CI.
#[derive(Debug, Clone, Default)]
pub struct PackedTraceSink {
    follow: FirstFollow,
    bits: BitStringBuilder,
}

/// The first-followed-by classifier shared by every streaming trace
/// sink ([`PackedTraceSink`] and the fused
/// [`crate::scanner::StreamingScanSink`]): per branch site, remembers
/// the first follower ever observed and classifies each subsequent
/// occurrence against it.
///
/// When built [`for_program`](FirstFollow::for_program), branch site
/// `(func, pc)` maps to slot `offsets[func] + pc` of a dense table,
/// whose value is the recorded reference follower plus one (`0` = site
/// unseen) — a flat-array read instead of a hash, which is most of the
/// per-event cost on the recognition hot path. Sites outside the
/// program's shape (or follower indices too big for the table) spill
/// to the hash map; a site's state lives in exactly one place — the
/// dense table if it is in range, the spill map otherwise — so mixing
/// lookups never double-records a site.
#[derive(Debug, Clone, Default)]
pub struct FirstFollow {
    offsets: Vec<usize>,
    dense: Vec<u32>,
    spill: HashMap<Site, usize, FxBuildHasher>,
}

impl FirstFollow {
    /// An empty classifier; every branch site goes through the hash map.
    pub fn new() -> FirstFollow {
        FirstFollow::default()
    }

    /// A classifier with a dense first-follow table sized for
    /// `program`'s code layout.
    pub fn for_program(program: &stackvm::Program) -> FirstFollow {
        let mut offsets = Vec::with_capacity(program.functions.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for f in &program.functions {
            total += f.code.len();
            offsets.push(total);
        }
        FirstFollow {
            offsets,
            dense: vec![0; total],
            ..FirstFollow::default()
        }
    }

    /// The trace bit of one dynamic branch — the from_trace rule: first
    /// occurrence fixes the reference follower and reads as `false`,
    /// deviations read as `true`.
    #[inline]
    pub fn classify(&mut self, site: Site, next: usize) -> bool {
        let f = site.func.0 as usize;
        if f + 1 < self.offsets.len() && next < u32::MAX as usize {
            let (base, end) = (self.offsets[f], self.offsets[f + 1]);
            if site.pc < end - base {
                let slot = &mut self.dense[base + site.pc];
                let follower = next as u32 + 1;
                if *slot == 0 {
                    *slot = follower;
                    return false;
                }
                return *slot != follower;
            }
        }
        match self.spill.get(&site) {
            None => {
                self.spill.insert(site, next);
                false
            }
            Some(&reference) => next != reference,
        }
    }
}

impl PackedTraceSink {
    /// An empty sink; every branch site goes through the hash map.
    pub fn new() -> PackedTraceSink {
        PackedTraceSink::default()
    }

    /// A sink with a dense first-follow table sized for `program` (see
    /// [`FirstFollow::for_program`]); the observable bit-sequence is
    /// identical to [`PackedTraceSink::new`].
    pub fn for_program(program: &stackvm::Program) -> PackedTraceSink {
        PackedTraceSink {
            follow: FirstFollow::for_program(program),
            bits: BitStringBuilder::new(),
        }
    }

    /// Freezes the accumulated bits into a [`BitString`].
    pub fn finish(self) -> BitString {
        self.bits.finish()
    }
}

impl TraceSink for PackedTraceSink {
    fn enter_block(&mut self, _site: Site) {}

    #[inline]
    fn branch(&mut self, site: Site, next: usize) {
        let bit = self.follow.classify(site, next);
        self.bits.push(bit);
    }

    fn snapshot(&mut self, _site: Site, _locals: &[i64], _statics: &[i64]) {}
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> BitString {
        let mut b = BitStringBuilder::new();
        b.extend(iter);
        b.finish()
    }
}

impl BitString {
    /// Decodes a trace (its dynamic conditional-branch sequence) into
    /// bits by the first-followed-by rule.
    pub fn from_trace(trace: &Trace) -> BitString {
        // One lookup per dynamic branch — the FxHash state keeps this
        // linear pass from being dominated by SipHash (see [`crate::hash`]).
        let mut first_follow: HashMap<Site, usize, FxBuildHasher> = HashMap::default();
        let mut bits = BitStringBuilder::new();
        for (site, next) in trace.branch_sequence() {
            match first_follow.get(&site) {
                None => {
                    first_follow.insert(site, next);
                    bits.push(false); // first occurrence: followed by its own reference
                }
                Some(&reference) => bits.push(next != reference),
            }
        }
        bits.finish()
    }

    /// Builds a bit-string directly from bits (tests and experiments).
    pub fn from_bits(bits: Vec<bool>) -> BitString {
        bits.into_iter().collect()
    }

    /// The bit at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The bits unpacked into a `Vec<bool>`, in trace order (tests and
    /// experiments that perturb individual bits).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.bit(i)).collect()
    }

    /// The packed words, bit `i` at `words[i / 64]`, LSB-first; unused
    /// high bits of the last word are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of sliding 64-bit windows, `max(len - 63, 0)`.
    pub fn num_windows(&self) -> usize {
        self.len.saturating_sub(63)
    }

    /// The 64-bit word starting at `offset`, first bit least
    /// significant; `None` past the end. Constant-time: one or two word
    /// reads, never a per-bit gather.
    pub fn window_u64(&self, offset: usize) -> Option<u64> {
        window_from_words(&self.words, self.len, offset)
    }

    /// Index of the first **1** bit at or after `from`, if any.
    ///
    /// Scans a word at a time over the packed storage, so skipping a
    /// megabit all-zero run costs a few thousand word reads, not a
    /// million bit reads.
    pub fn next_set_bit(&self, from: usize) -> Option<usize> {
        self.next_matching_bit(from, |w| w)
    }

    /// Index of the first **0** bit at or after `from`, if any.
    pub fn next_clear_bit(&self, from: usize) -> Option<usize> {
        self.next_matching_bit(from, |w| !w)
    }

    /// Shared word-at-a-time search: `lens` maps a raw word so that the
    /// sought bit value reads as 1.
    fn next_matching_bit(&self, from: usize, lens: impl Fn(u64) -> u64) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut w = from / 64;
        // Mask off bits before `from` in the first word.
        let mut word = lens(self.words[w]) & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                // `lens = !w` turns the zero padding past `len` into
                // phantom set bits; reject hits beyond the string.
                return (i < self.len).then_some(i);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = lens(self.words[w]);
        }
    }

    /// Iterates over every sliding 64-bit window `B_0 = b_0…b_63`,
    /// `B_1 = b_1…b_64`, … (Section 3.3, step one of recognition) by
    /// rolling: each step shifts the previous window right one bit and
    /// inserts the next bit at the top.
    pub fn windows(&self) -> Windows<'_> {
        Windows {
            bits: self,
            offset: 0,
            window: self.window_u64(0).unwrap_or(0),
        }
    }
}

/// Rolling iterator over sliding 64-bit windows; see
/// [`BitString::windows`].
#[derive(Debug, Clone)]
pub struct Windows<'a> {
    bits: &'a BitString,
    offset: usize,
    window: u64,
}

impl Iterator for Windows<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.offset >= self.bits.num_windows() {
            return None;
        }
        let current = self.window;
        let incoming = self.offset + 64;
        if incoming < self.bits.len {
            let bit = (self.bits.words[incoming / 64] >> (incoming % 64)) & 1;
            self.window = (current >> 1) | (bit << 63);
        }
        self.offset += 1;
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.bits.num_windows() - self.offset.min(self.bits.num_windows());
        (left, Some(left))
    }
}

impl ExactSizeIterator for Windows<'_> {}

impl std::fmt::Display for BitString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.bit(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stackvm::program::FuncId;
    use stackvm::trace::TraceEvent;

    fn branch(func: u32, pc: usize, next: usize) -> TraceEvent {
        TraceEvent::Branch {
            site: Site {
                func: FuncId(func),
                pc,
            },
            next,
        }
    }

    #[test]
    fn first_occurrence_is_zero() {
        let t = Trace {
            events: vec![branch(0, 5, 10)],
        };
        let bs = BitString::from_trace(&t);
        assert_eq!(bs.to_bools(), &[false]);
    }

    #[test]
    fn deviation_from_reference_is_one() {
        let t = Trace {
            events: vec![
                branch(0, 5, 10), // reference: next = 10
                branch(0, 5, 10), // same -> 0
                branch(0, 5, 6),  // different -> 1
                branch(0, 5, 10), // same -> 0
            ],
        };
        let bs = BitString::from_trace(&t);
        assert_eq!(bs.to_string(), "0010");
    }

    #[test]
    fn branches_are_tracked_per_site() {
        let t = Trace {
            events: vec![
                branch(0, 5, 10),
                branch(1, 5, 99), // same pc, different function: own reference
                branch(0, 5, 99), // differs from ITS reference (10) -> 1
                branch(1, 5, 99), // matches its reference -> 0
            ],
        };
        let bs = BitString::from_trace(&t);
        assert_eq!(bs.to_string(), "0010");
    }

    #[test]
    fn branch_sense_inversion_invariance() {
        // The defining property: if an attacker negates the predicate and
        // swaps the targets, the *following block* per occurrence is
        // unchanged, so the bit-string is unchanged. Simulate by keeping
        // the next-block sequence identical.
        let original = Trace {
            events: vec![branch(0, 5, 10), branch(0, 5, 6), branch(0, 5, 10)],
        };
        // After inversion the branch instruction still sits at pc 5 and
        // the executed successor blocks are the same blocks.
        let inverted = original.clone();
        assert_eq!(
            BitString::from_trace(&original),
            BitString::from_trace(&inverted)
        );
    }

    #[test]
    fn windows_slide_one_bit() {
        let mut bits = vec![false; 70];
        bits[0] = true; // window 0 = 1, window 1 = 0
        bits[65] = true; // appears in windows 2..=6
        let bs = BitString::from_bits(bits);
        let ws: Vec<u64> = bs.windows().collect();
        assert_eq!(ws.len(), 70 - 63);
        assert_eq!(ws[0], 1);
        assert_eq!(ws[1], 0);
        assert_eq!(ws[2], 1u64 << 63);
        assert_eq!(bs.window_u64(7), None);
    }

    #[test]
    fn short_strings_have_no_windows() {
        let bs = BitString::from_bits(vec![true; 63]);
        assert_eq!(bs.windows().count(), 0);
        assert!(!bs.is_empty());
        assert_eq!(bs.len(), 63);
        assert_eq!(bs.num_windows(), 0);
    }

    #[test]
    fn display_renders_bits() {
        let bs = BitString::from_bits(vec![false, true, true, false]);
        assert_eq!(bs.to_string(), "0110");
    }

    /// Reference implementation of `window_u64` over unpacked bools.
    fn naive_window(bits: &[bool], offset: usize) -> Option<u64> {
        if offset + 64 > bits.len() {
            return None;
        }
        let mut w = 0u64;
        for (k, &b) in bits[offset..offset + 64].iter().enumerate() {
            if b {
                w |= 1u64 << k;
            }
        }
        Some(w)
    }

    #[test]
    fn packed_windows_match_naive_reference() {
        use pathmark_crypto::Prng;
        let mut rng = Prng::from_seed(0xB17);
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 1000] {
            let bools: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
            let bs = BitString::from_bits(bools.clone());
            assert_eq!(bs.len(), len);
            for off in 0..=len {
                assert_eq!(bs.window_u64(off), naive_window(&bools, off), "len {len} off {off}");
            }
            let rolled: Vec<u64> = bs.windows().collect();
            let naive: Vec<u64> = (0..len.saturating_sub(63))
                .map(|off| naive_window(&bools, off).unwrap())
                .collect();
            assert_eq!(rolled, naive, "len {len}");
            assert_eq!(bs.to_bools(), bools);
        }
    }

    #[test]
    fn packed_sink_matches_from_trace_reference() {
        use pathmark_crypto::Prng;
        use stackvm::trace::TraceSink;
        let mut rng = Prng::from_seed(0x51CC);
        for round in 0..50 {
            // A handful of sites, revisited often enough that both the
            // first-occurrence and the deviation arms get exercised.
            let events: Vec<TraceEvent> = (0..rng.range(400))
                .map(|_| {
                    branch(rng.range(3) as u32, rng.index(5), rng.index(4))
                })
                .collect();
            let trace = Trace { events };
            let mut sink = PackedTraceSink::new();
            // A dense-table sink whose program shape covers only part
            // of the random site space (func 0 pcs 0..4, func 1 pcs
            // 0..2 of funcs 0..3 × pcs 0..5), so every event stream
            // exercises both the flat-array path and the spill map.
            let mut dense = PackedTraceSink::for_program(&tiny_program());
            for (site, next) in trace.branch_sequence() {
                sink.branch(site, next);
                dense.branch(site, next);
            }
            let reference = BitString::from_trace(&trace);
            assert_eq!(sink.finish(), reference, "round {round}");
            assert_eq!(dense.finish(), reference, "dense, round {round}");
        }
    }

    fn tiny_program() -> stackvm::Program {
        use stackvm::builder::{FunctionBuilder, ProgramBuilder};
        let mut pb = ProgramBuilder::new();
        let mut f0 = FunctionBuilder::new("f0", 0, 1);
        f0.push(1).store(0).load(0).pop().ret_void(); // pcs 0..=4
        let mut f1 = FunctionBuilder::new("f1", 0, 0);
        f1.push(0).pop().ret_void(); // pcs 0..=2
        let main = pb.add_function(f0.finish().unwrap());
        pb.add_function(f1.finish().unwrap());
        pb.finish_unverified(main)
    }

    #[test]
    fn next_set_and_clear_bit_find_run_boundaries() {
        let mut bools = vec![false; 300];
        bools[0] = true;
        bools[130] = true;
        bools[131] = true;
        let bs = BitString::from_bits(bools);
        assert_eq!(bs.next_set_bit(0), Some(0));
        assert_eq!(bs.next_set_bit(1), Some(130));
        assert_eq!(bs.next_set_bit(131), Some(131));
        assert_eq!(bs.next_set_bit(132), None);
        assert_eq!(bs.next_set_bit(10_000), None);
        assert_eq!(bs.next_clear_bit(0), Some(1));
        assert_eq!(bs.next_clear_bit(130), Some(132));

        let ones = BitString::from_bits(vec![true; 70]);
        assert_eq!(ones.next_clear_bit(0), None, "padding is not a phantom 0");
        assert_eq!(ones.next_set_bit(69), Some(69));
        assert_eq!(BitString::default().next_set_bit(0), None);
    }

    /// Reference implementation of `period_mismatch_in_words`: a plain
    /// bit-at-a-time walk.
    fn naive_period_mismatch(bits: &[bool], from: usize, period: usize) -> usize {
        let mut q = from.max(period);
        while q < bits.len() {
            if bits[q] != bits[q - period] {
                return q;
            }
            q += 1;
        }
        bits.len()
    }

    #[test]
    fn period_mismatch_matches_naive_reference() {
        use pathmark_crypto::Prng;
        let mut rng = Prng::from_seed(0x9E12);
        for len in [0usize, 1, 63, 64, 65, 120, 128, 129, 257, 700] {
            // Random strings exercise dense violations; periodic tilings
            // with planted flips exercise long violation-free stretches
            // crossing word boundaries.
            let random: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
            let mut tiled: Vec<bool> = (0..len).map(|i| (i % 5) < 2).collect();
            if len > 10 {
                let flip = rng.index(len);
                tiled[flip] = !tiled[flip];
            }
            for bools in [random, tiled] {
                let bs = BitString::from_bits(bools.clone());
                for period in [1usize, 2, 3, 7, 63, 64, 65, 100, 128, 130, 1000] {
                    for from in [0usize, 1, period, period + 1, 64, 65, 128, len / 2, len] {
                        assert_eq!(
                            period_mismatch_in_words(bs.words(), bs.len(), from, period),
                            naive_period_mismatch(&bools, from, period),
                            "len {len} period {period} from {from}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn period_mismatch_constant_runs_agree_with_flip_search() {
        // period == 1 is the constant-run case: on an all-constant
        // stretch the first mismatch is the first flipped bit.
        let mut bools = vec![false; 300];
        bools[130] = true;
        bools[131] = true;
        let bs = BitString::from_bits(bools);
        let mismatch = |bs: &BitString, from| period_mismatch_in_words(bs.words(), bs.len(), from, 1);
        assert_eq!(mismatch(&bs, 1), 130);
        assert_eq!(mismatch(&bs, 131), 132, "1->0 edge");
        assert_eq!(mismatch(&bs, 133), 300, "constant to the end");
        let ones = BitString::from_bits(vec![true; 70]);
        assert_eq!(mismatch(&ones, 0), 70, "padding is not a phantom flip");
    }

    #[test]
    fn builder_matches_from_bits_and_clones_share_storage() {
        let bools: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let mut builder = BitStringBuilder::with_capacity(200);
        builder.extend(bools.iter().copied());
        assert_eq!(builder.len(), 200);
        assert!(!builder.is_empty());
        let a = builder.finish();
        let b = BitString::from_bits(bools);
        assert_eq!(a, b);

        let clone = a.clone();
        assert!(
            Arc::ptr_eq(&a.words, &clone.words),
            "clone shares the packed words"
        );
    }

    #[test]
    fn trailing_word_bits_are_zero() {
        // Eq relies on padding being deterministic.
        let bs = BitString::from_bits(vec![true; 65]);
        assert_eq!(bs.words().len(), 2);
        assert_eq!(bs.words()[1], 1, "only bit 64 set in the second word");
    }
}
