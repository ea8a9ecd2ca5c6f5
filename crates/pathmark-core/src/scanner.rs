//! The window-scan engine: one scanner for traces in flight and stored.
//!
//! Recognition rolls a 64-bit window over every offset of the trace
//! bit-string. [`StreamingScanSink`] runs that scan *while tracing*: it
//! is a [`TraceSink`], and as each branch bit lands in the builder it
//! advances an incremental [`StreamScanner`] over the completed words,
//! so by the time the traced program halts the survivor table is
//! already built and the bit-string is never re-read. [`scan_range`]
//! feeds the words of an already stored [`BitString`] through the same
//! scanner in one call (`Recognizer::window_survivors`).
//!
//! The scanner is a small state machine whose every decision is exact,
//! so its [`Survivors`] table is bit-identical to the naive scan that
//! rolls a window over every offset (the `streamed_*` property tests and
//! the CI gate assert this):
//!
//! * **Rolling** — classify window offsets while `offset + 64` bits are
//!   available. Constant windows jump to the next flipped bit (possibly
//!   in installments when the run reaches the frontier of written
//!   bits); surviving windows feed the [`PeriodDetector`] and the
//!   dedup-at-source survivor accumulator; a verified probe hit
//!   transitions to:
//! * **Extending** — count streamed period matches until the first
//!   mismatch, resuming the word-parallel [`period_mismatch_in_words`]
//!   kernel at the frontier each time more words land. Lookback — the
//!   bulk-accounted representatives one period before the run — is
//!   free, because those words were written long before the run ended.
//!
//! Equivalence argument, briefly (DESIGN.md §15 has the full version):
//! a decision at offset `o` reads only bits `≤ mismatch(o)`, and the
//! scanner defers that decision until those bits exist, so the
//! classification of every offset — and hence the survivor multiset —
//! is the same however the bits arrive, one drain at a time or all at
//! once.
//!
//! Survivors dedup at source instead of accumulating a per-offset
//! entry vector: the bench corpus produces ~12k surviving offsets but
//! only ~4.5k distinct values per copy, and `from_entries`' bucket
//! sort costs tens of nanoseconds per entry, so folding repeats before
//! the sort is a large win. The fold lives in a direct-mapped slot
//! cache rather than a hash map — a map's dependent control-word-then-
//! bucket chain per push measured ~3x the cost of the whole rest of
//! the scan loop — and slot conflicts just spill the evicted entry for
//! [`Survivors::from_entries`]' duplicate fold to merge, which keeps
//! the table bit-identical no matter how the entries were grouped.

use std::time::Instant;

use stackvm::trace::{Site, TraceSink};

use crate::bitstring::{
    period_mismatch_in_words, window_from_words, BitString, BitStringBuilder, FirstFollow,
};
use crate::scan::Survivors;

/// Largest repeat distance the periodic pre-reject votes on. Trace
/// bit-strings repeat at the host program's loop-body period (around a
/// thousand bits on the bench corpus); distances past a few thousand
/// bits buy nothing and bloat the vote table.
const MAX_PERIOD: usize = 4096;

/// How many candidate periods the detector probes concurrently.
const PERIOD_CANDIDATES: usize = 4;

/// Votes a repeat distance needs before it can contend for a candidate
/// seat.
const PERIOD_PROMOTE_VOTES: u16 = 4;

/// Candidate periods are probed every this many pushes; a probe is one
/// O(1) window comparison per candidate.
const PERIOD_PROBE_STRIDE: usize = 4;

/// Direct-mapped last-seen slots (a power of two). The detector runs
/// once per surviving window, so it must cost nanoseconds: a fixed
/// table that collisions simply overwrite beats a growable map by an
/// order of magnitude, and a lost slot only costs one vote. Sized so
/// the whole table (16 KiB) stays L1-resident — the dominant loop-body
/// period needs only [`PERIOD_PROMOTE_VOTES`] surviving votes to seat,
/// so the extra collisions of a small table are noise, while a cache
/// miss per surviving window is the single largest per-push cost.
const PERIOD_TABLE_SLOTS: usize = 1024;

/// Direct-mapped dedup slots for survivor accumulation (a power of
/// two). 4096 x 16 B = 64 KiB: small enough to stay cache-hot next to
/// the detector tables, large enough that the ~4.5k distinct values a
/// bench-corpus copy produces mostly dedup in place instead of
/// spilling. A conflict only costs one spilled entry for
/// [`Survivors::from_entries`]' duplicate fold to merge later.
const ACCUM_SLOTS: usize = 4096;

/// The streaming scanner drains once per this many freshly pushed bits
/// (16 completed words). Coarse enough that the per-drain clock reads
/// and state checks vanish from the per-branch cost; fine enough that
/// the words scanned are still warm in L1 from being written.
const DRAIN_STRIDE_BITS: usize = 1024;

/// Online repeat-distance detector behind the periodic-run pre-reject.
///
/// Every surviving window votes on the distance to the previous
/// occurrence of the same value; the top-voted distances become
/// candidate periods. A candidate is *probed* with one O(1) window
/// comparison (`window(o - p) == window(o)`); a probe hit is then
/// extended with the [`period_mismatch_in_words`] kernel and, if the
/// periodic run covers meaningfully more than one window, the whole
/// run is bulk-accounted without rolling through it (see
/// [`StreamScanner`]).
pub(crate) struct PeriodDetector {
    /// Direct-mapped `(window value, offset + 1)` slots; a zero stamp
    /// marks a vacant slot, and hash collisions simply overwrite.
    last_seen: Vec<(u64, u64)>,
    /// `votes[d]`: votes for repeat distance `d` (index 0 unused, so a
    /// vacant candidate seat reads zero votes without a branch).
    /// Saturating `u16` counts keep the table at 8 KiB; vote totals
    /// only steer which runs get bulk-treated (the survivor table is
    /// the same either way), so capping at 65535 is harmless.
    votes: Vec<u16>,
    /// Candidate periods probed against the scan head; 0 = vacant seat.
    candidates: [usize; PERIOD_CANDIDATES],
    /// Windows pushed so far (bulk-accounted windows excluded).
    pushes: usize,
}

impl PeriodDetector {
    pub(crate) fn new() -> PeriodDetector {
        PeriodDetector {
            last_seen: vec![(0, 0); PERIOD_TABLE_SLOTS],
            votes: vec![0; MAX_PERIOD + 1],
            candidates: [0; PERIOD_CANDIDATES],
            pushes: 0,
        }
    }

    /// Records a surviving window pushed at `offset`, voting on the
    /// distance to the value's previous occurrence.
    pub(crate) fn push(&mut self, window: u64, offset: usize) {
        self.pushes += 1;
        let slot = (window.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (64 - PERIOD_TABLE_SLOTS.trailing_zeros())) as usize;
        let (value, stamp) = self.last_seen[slot];
        self.last_seen[slot] = (window, offset as u64 + 1);
        if stamp == 0 || value != window {
            return;
        }
        let distance = offset - (stamp - 1) as usize;
        if distance <= MAX_PERIOD {
            self.votes[distance] = self.votes[distance].saturating_add(1);
            if self.votes[distance] >= PERIOD_PROMOTE_VOTES {
                self.consider(distance);
            }
        }
    }

    /// Seats `distance` if it out-votes the weakest current candidate
    /// (vacant seats hold period 0, which always reads zero votes).
    /// Re-seating on every promoted vote is what lets the dominant
    /// loop-body period displace small noise distances that happened to
    /// reach the threshold earlier.
    fn consider(&mut self, distance: usize) {
        if self.candidates.contains(&distance) {
            return;
        }
        let weakest = (0..PERIOD_CANDIDATES)
            .min_by_key(|&i| self.votes[self.candidates[i]])
            .expect("PERIOD_CANDIDATES > 0");
        if self.votes[distance] > self.votes[self.candidates[weakest]] {
            self.candidates[weakest] = distance;
        }
    }

    /// Returns a seated candidate period `p` other than `hot` verified
    /// at the scan head — `window(offset - p)` exists within the `len`
    /// bits of `words` and equals `window` — or `None`. Only every
    /// [`PERIOD_PROBE_STRIDE`]-th push probes; the `hot` period (the
    /// one the scan last bulk-skipped on) is the scanner's own check,
    /// made on every push against a rolled lag window (a register
    /// compare) instead of re-reading the packed words.
    pub(crate) fn probe_candidates(
        &self,
        words: &[u64],
        len: usize,
        offset: usize,
        window: u64,
        hot: usize,
    ) -> Option<usize> {
        if !self.pushes.is_multiple_of(PERIOD_PROBE_STRIDE) {
            return None;
        }
        self.candidates.iter().copied().find(|&p| {
            p != 0 && p != hot && offset >= p && window_from_words(words, len, offset - p) == Some(window)
        })
    }
}

/// What the scanner is doing at its current offset.
enum ScanState {
    /// Classifying offsets one at a time (constant jump / probe / push).
    Rolling,
    /// A probe verified `period` at the current offset; the scanner is
    /// counting streamed matches from bit `q` until the first mismatch
    /// before deciding whether the run engages the bulk account.
    Extending { period: usize, q: usize },
}

/// The incremental survivor scan: makes progress from whatever prefix
/// of the bit-string exists, deferring any decision whose bits have not
/// been written yet.
struct StreamScanner {
    detector: PeriodDetector,
    /// The period the scan last bulk-skipped on; probed eagerly.
    hot: usize,
    /// The next window offset to classify.
    offset: usize,
    /// One past the last window offset to classify (`usize::MAX`: to
    /// the end of the string).
    end: usize,
    /// The 64-bit window at `offset`, when `window_valid`; rolled
    /// bit-by-bit on the normal path, recomputed from the words after a
    /// jump or a drain boundary.
    window: u64,
    window_valid: bool,
    state: ScanState,
    skipped: u64,
    /// Dedup-at-source survivor accumulation: a direct-mapped cache of
    /// `(value, multiplicity, first offset)` slots (`multiplicity` 0 =
    /// vacant). A push hitting its slot's value folds in place — one
    /// predictable cache-hot access, where a hash map pays a dependent
    /// control-word-then-bucket chain per push — and a conflict spills
    /// the evicted entry to `spilled`.
    accum: Vec<(u64, u32, u32)>,
    /// Entries evicted from `accum` (plus bulk-accounted entries, whose
    /// multiplicities exceed the slots' u32), merged by
    /// [`Survivors::from_entries`]' duplicate fold at finish.
    spilled: Vec<(u64, u64, u64)>,
}

impl StreamScanner {
    /// A scanner over the window offsets `[start, end)`.
    fn new(start: usize, end: usize) -> StreamScanner {
        StreamScanner {
            detector: PeriodDetector::new(),
            hot: 0,
            offset: start,
            end,
            window: 0,
            window_valid: false,
            state: ScanState::Rolling,
            skipped: 0,
            accum: vec![(0, 0, 0); ACCUM_SLOTS],
            spilled: Vec::new(),
        }
    }

    /// Accounts a surviving value outside the rolling fast path (bulk
    /// runs, short-run fall-through). Bulk multiplicities can exceed
    /// the accumulator slots' u32, so these spill directly; the
    /// duplicate fold merges them with the slot entries at finish.
    fn account(&mut self, value: u64, multiplicity: u64, first_offset: u64) {
        self.spilled.push((value, multiplicity, first_offset));
    }

    /// Folds the surviving `window` at `offset` into its accumulator
    /// slot, spilling whatever conflicting value held the slot.
    #[inline]
    fn accumulate(
        accum: &mut [(u64, u32, u32)],
        spilled: &mut Vec<(u64, u64, u64)>,
        window: u64,
        offset: usize,
    ) {
        let slot = (window.wrapping_mul(0xD1B5_4A32_D192_ED03)
            >> (64 - ACCUM_SLOTS.trailing_zeros())) as usize;
        let entry = &mut accum[slot];
        if entry.0 == window && entry.1 != 0 {
            // Offsets only ascend, so the first offset stands. The
            // u32 multiplicity cannot wrap: a copy would need 2^32
            // surviving windows of one value first.
            entry.1 += 1;
        } else {
            if entry.1 != 0 {
                spilled.push((entry.0, entry.1 as u64, entry.2 as u64));
            }
            *entry = (window, 1, offset as u32);
        }
    }

    /// The normal-path classification of the (valid) window at
    /// `offset`: feed the detector, account the survivor, advance one
    /// offset, and roll the window when the incoming bit exists.
    #[inline]
    fn push_survivor(&mut self, words: &[u64], avail: usize) {
        self.detector.push(self.window, self.offset);
        Self::accumulate(&mut self.accum, &mut self.spilled, self.window, self.offset);
        self.offset += 1;
        let incoming = self.offset + 63;
        if incoming < avail {
            let bit = (words[incoming / 64] >> (incoming % 64)) & 1;
            self.window = (self.window >> 1) | (bit << 63);
        } else {
            self.window_valid = false;
        }
    }

    /// Advances the scan as far as `avail` bits of `words` allow.
    /// `finished` marks the final call: `avail` is then the bit-string's
    /// true length, so frontier waits become end-of-string decisions and
    /// the scan runs to the last window offset.
    ///
    /// Structured as an outer loop handling the (rare) extension
    /// decision plus a tight inner rolling loop whose scan cursor lives
    /// in locals — the per-window path must not round-trip `offset` /
    /// `window` through memory, since it runs a few hundred thousand
    /// times per recognized copy.
    fn advance(&mut self, words: &[u64], avail: usize, finished: bool) {
        // Window offsets past `avail - 63` never exist; unknowable
        // mid-stream.
        let end = if finished {
            avail.saturating_sub(63).min(self.end)
        } else {
            self.end
        };
        loop {
            if let ScanState::Extending { period, q } = self.state {
                let mismatch = period_mismatch_in_words(words, avail, q, period);
                if mismatch >= avail && !finished {
                    // Period-clean to the frontier: remember how far
                    // the kernel got and resume there next drain.
                    self.state = ScanState::Extending { period, q: mismatch };
                    return;
                }
                let origin = self.offset;
                if mismatch >= origin + 64 + period / 2 {
                    // Engage: bulk-account [origin, stop]. Each
                    // window there equals its representative r one-
                    // to-few periods back; representatives at
                    // [origin - period, origin) were already scanned
                    // normally, and their words sit far behind the
                    // frontier, so the lookback reads are free.
                    // Constant representatives are dropped — their
                    // copies are equally constant.
                    let stop = (mismatch - 64).min(end - 1);
                    for r in origin - period..origin {
                        let value = window_from_words(words, avail, r)
                            .expect("r + 64 <= origin + 64 <= avail");
                        if value == 0 || value == u64::MAX {
                            continue;
                        }
                        let count = ((stop - r) / period) as u64;
                        if count > 0 {
                            self.account(value, count, (r + period) as u64);
                        }
                    }
                    self.skipped += (stop - origin + 1) as u64;
                    self.hot = period;
                    self.offset = stop + 1;
                    self.window_valid = false;
                } else {
                    // The run is too short to engage; the origin
                    // window survives normally (one candidate tried
                    // per offset).
                    self.push_survivor(words, avail);
                }
                self.state = ScanState::Rolling;
            }

            // The rolling fast path. `engaged` carries a verified probe
            // hit out of the loop, back to the extension arm above.
            let mut offset = self.offset;
            let mut window = self.window;
            let mut window_valid = self.window_valid;
            let mut skipped = self.skipped;
            let hot = self.hot;
            let mut engaged = None;
            // The lag window `window(offset - hot)`: the hot-period
            // probe as one register compare per push instead of two
            // packed-word reads. Recomputed lazily after any jump.
            let mut lag = 0u64;
            let mut lag_valid = false;
            while offset < end && offset + 64 <= avail {
                if !window_valid {
                    window = window_from_words(words, avail, offset)
                        .expect("offset + 64 <= avail");
                    window_valid = true;
                }
                if window == 0 || window == u64::MAX {
                    // Constant run: every window up to (just past)
                    // the next flipped bit is equally constant.
                    let flip = period_mismatch_in_words(words, avail, offset + 64, 1);
                    if flip >= avail && !finished {
                        // The run reaches the frontier: skip every
                        // window already fully inside it and wait.
                        // Re-checking the (still constant) window on
                        // resume re-joins the whole-string jump exactly.
                        let next = (avail - 63).max(offset + 1);
                        skipped += (next - offset) as u64;
                        self.offset = next;
                        self.window = window;
                        self.window_valid = false;
                        self.skipped = skipped;
                        return;
                    }
                    let next = if flip >= avail {
                        end
                    } else {
                        // The first offset whose window sees the flip.
                        (flip - 63).min(end)
                    }
                    .max(offset + 1);
                    skipped += (next - offset) as u64;
                    offset = next;
                    window_valid = false;
                    lag_valid = false;
                    continue;
                }
                if hot != 0 && offset >= hot {
                    if !lag_valid {
                        lag = window_from_words(words, avail, offset - hot)
                            .expect("offset - hot + 64 <= avail");
                        lag_valid = true;
                    }
                    if lag == window {
                        // window(offset) == window(offset - hot):
                        // the hot period verified; extend forward.
                        engaged = Some(hot);
                        break;
                    }
                }
                if let Some(period) =
                    self.detector.probe_candidates(words, avail, offset, window, hot)
                {
                    // The probe verified window(offset) ==
                    // window(offset - period); extend forward.
                    engaged = Some(period);
                    break;
                }
                self.detector.push(window, offset);
                Self::accumulate(&mut self.accum, &mut self.spilled, window, offset);
                offset += 1;
                // Roll: shift the leaving bit out, the incoming bit in
                // (the lag window likewise, `hot` bits behind).
                let incoming = offset + 63;
                if incoming < avail {
                    let bit = (words[incoming / 64] >> (incoming % 64)) & 1;
                    window = (window >> 1) | (bit << 63);
                } else {
                    window_valid = false;
                }
                if lag_valid {
                    let behind = incoming - hot;
                    let bit = (words[behind / 64] >> (behind % 64)) & 1;
                    lag = (lag >> 1) | (bit << 63);
                }
            }
            self.offset = offset;
            self.window = window;
            self.window_valid = window_valid;
            self.skipped = skipped;
            match engaged {
                Some(period) => self.state = ScanState::Extending { period, q: offset + 64 },
                None => return,
            }
        }
    }

    /// Freezes the accumulator into the columnar table: live slots
    /// plus spilled entries, merged by [`Survivors::from_entries`]'
    /// duplicate fold. Near-complete dedup-at-source means the sort
    /// covers a little over the ~4.5k distinct values instead of every
    /// surviving offset.
    fn into_survivors(self) -> Survivors {
        let mut entries = self.spilled;
        entries.extend(
            self.accum
                .into_iter()
                .filter(|&(_, mult, _)| mult != 0)
                .map(|(value, mult, first)| (value, mult as u64, first as u64)),
        );
        Survivors::from_entries(entries)
    }
}

/// The result of one fused trace+scan pass.
pub struct FusedScan {
    /// The full trace bit-string (identical to what
    /// [`crate::bitstring::PackedTraceSink`] would have produced).
    pub bits: BitString,
    /// The survivor table (bit-identical to `window_survivors` over
    /// the full range of `bits`).
    pub survivors: Survivors,
    /// Windows the scan covered (`num_windows`).
    pub scanned: u64,
    /// Windows the pre-rejects accounted without rolling through.
    pub skipped: u64,
    /// Nanoseconds spent inside scanner drains (0 unless the sink was
    /// built with timing on): the scan-roll share of the fused pass.
    pub roll_nanos: u64,
}

/// A [`TraceSink`] that runs the full survivor scan *while tracing*.
/// See the module docs for the design and the equivalence argument.
pub struct StreamingScanSink {
    follow: FirstFollow,
    bits: BitStringBuilder,
    scanner: StreamScanner,
    /// When set, each drain is bracketed by clock reads so the roll
    /// share of the fused pass can be attributed to `Stage::ScanRoll`.
    timed: bool,
    roll_nanos: u64,
}

impl StreamingScanSink {
    /// A sink with a dense first-follow table sized for `program` (see
    /// [`FirstFollow::for_program`]). `timed` turns on per-drain clock
    /// reads for telemetry attribution; pass `false` when no telemetry
    /// sink is attached.
    pub fn for_program(program: &stackvm::Program, timed: bool) -> StreamingScanSink {
        StreamingScanSink {
            follow: FirstFollow::for_program(program),
            bits: BitStringBuilder::new(),
            scanner: StreamScanner::new(0, usize::MAX),
            timed,
            roll_nanos: 0,
        }
    }

    /// An empty sink with no dense table (tests and experiments that
    /// feed raw bits through [`StreamingScanSink::push_bit`]).
    pub fn new(timed: bool) -> StreamingScanSink {
        StreamingScanSink {
            follow: FirstFollow::new(),
            bits: BitStringBuilder::new(),
            scanner: StreamScanner::new(0, usize::MAX),
            timed,
            roll_nanos: 0,
        }
    }

    /// Appends one already-classified trace bit, driving the scanner
    /// exactly as a branch event would.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        self.bits.push(bit);
        if self.bits.len().is_multiple_of(DRAIN_STRIDE_BITS) {
            self.drain();
        }
    }

    fn drain(&mut self) {
        let started = self.timed.then(Instant::now);
        let words = self.bits.words();
        self.scanner.advance(words, words.len() * 64, false);
        if let Some(started) = started {
            self.roll_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Finishes the trace: freezes the bit-string, runs the scanner to
    /// the final window offset, and returns bits + survivors + scan
    /// accounting in one [`FusedScan`].
    pub fn finish(self) -> FusedScan {
        let StreamingScanSink { bits, mut scanner, timed, mut roll_nanos, .. } = self;
        let bits = bits.finish();
        let started = timed.then(Instant::now);
        scanner.advance(bits.words(), bits.len(), true);
        let scanned = bits.num_windows() as u64;
        let skipped = scanner.skipped;
        let survivors = scanner.into_survivors();
        if let Some(started) = started {
            roll_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        FusedScan { bits, survivors, scanned, skipped, roll_nanos }
    }
}

/// Scans the windows at offsets `[start, end)` of a stored bit-string
/// (`start <= end <= bits.num_windows()`) by feeding its words through
/// the streaming scanner in one final drain. Returns the survivor table
/// and the windows the pre-rejects accounted without rolling.
pub(crate) fn scan_range(bits: &BitString, start: usize, end: usize) -> (Survivors, u64) {
    let mut scanner = StreamScanner::new(start, end);
    scanner.advance(bits.words(), bits.len(), true);
    let skipped = scanner.skipped;
    (scanner.into_survivors(), skipped)
}

impl TraceSink for StreamingScanSink {
    fn enter_block(&mut self, _site: Site) {}

    #[inline]
    fn branch(&mut self, site: Site, next: usize) {
        let bit = self.follow.classify(site, next);
        self.push_bit(bit);
    }

    fn snapshot(&mut self, _site: Site, _locals: &[i64], _statics: &[i64]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathmark_crypto::Prng;

    /// The oracle: roll a window over every offset, drop constants,
    /// tally multiplicities and first offsets.
    fn reference_survivors(bits: &BitString) -> Survivors {
        let mut entries = Vec::new();
        for offset in 0..bits.num_windows() {
            let window = bits.window_u64(offset).unwrap();
            if window != 0 && window != u64::MAX {
                entries.push((window, 1, offset as u64));
            }
        }
        Survivors::from_entries(entries)
    }

    fn stream(bools: &[bool]) -> FusedScan {
        let mut sink = StreamingScanSink::new(false);
        for &b in bools {
            sink.push_bit(b);
        }
        sink.finish()
    }

    #[test]
    fn streamed_scan_matches_reference_on_adversarial_bitstrings() {
        let mut rng = Prng::from_seed(0xF05ED);
        let mut cases: Vec<Vec<bool>> = Vec::new();
        // Degenerate sizes around the window width and drain stride.
        for len in [0usize, 1, 63, 64, 65, 127, 128, 1023, 1024, 1025] {
            cases.push((0..len).map(|_| rng.chance(0.5)).collect());
        }
        // All-constant strings: the jump runs to the end of the string,
        // in frontier installments.
        cases.push(vec![false; 5000]);
        cases.push(vec![true; 5000]);
        // Exactly periodic (no flips at all), periods straddling and
        // landing exactly on word edges.
        for period in [1usize, 7, 63, 64, 65, 128, 911] {
            let tile: Vec<bool> = (0..period).map(|_| rng.chance(0.5)).collect();
            cases.push((0..6000).map(|i| tile[i % period]).collect());
        }
        // Periodic with planted flips: period boundary at a word edge
        // plus awkward strides.
        for period in [64usize, 65, 127, 1041] {
            let tile: Vec<bool> = (0..period).map(|_| rng.chance(0.5)).collect();
            let mut tiled: Vec<bool> = (0..6000).map(|i| tile[i % period]).collect();
            for _ in 0..3 {
                let i = rng.index(tiled.len());
                tiled[i] = !tiled[i];
            }
            cases.push(tiled);
        }
        // Constant runs stitched with noise bursts.
        let mut runs = Vec::new();
        for _ in 0..12 {
            let constant = rng.chance(0.5);
            runs.extend(std::iter::repeat_n(constant, 100 + rng.index(300)));
            runs.extend((0..rng.index(40)).map(|_| rng.chance(0.5)));
        }
        cases.push(runs);
        for (case, bools) in cases.into_iter().enumerate() {
            let scan = stream(&bools);
            let bits = BitString::from_bits(bools);
            assert_eq!(scan.bits, bits, "case {case}: bit-string");
            assert_eq!(
                scan.survivors,
                reference_survivors(&bits),
                "case {case}: survivors"
            );
            assert_eq!(scan.scanned, bits.num_windows() as u64, "case {case}");
            assert!(
                scan.skipped <= scan.scanned,
                "case {case}: skipped windows are a subset of the range"
            );
        }
    }

    #[test]
    fn timed_sink_accumulates_roll_nanos() {
        let mut sink = StreamingScanSink::new(true);
        let mut rng = Prng::from_seed(7);
        for _ in 0..4096 {
            sink.push_bit(rng.chance(0.5));
        }
        let scan = sink.finish();
        assert!(scan.roll_nanos > 0, "timed drains read the clock");
        assert_eq!(scan.scanned, 4096 - 63);
    }
}
