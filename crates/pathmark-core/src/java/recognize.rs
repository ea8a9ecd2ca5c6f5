//! The recognition phase (Section 3.3, Figure 4).
//!
//! The marked program is re-traced on the secret input; the trace
//! bit-string is split into sliding 64-bit windows `B_0 = b_0…b_63`,
//! `B_1 = b_1…b_64`, …; every window is decrypted and un-enumerated into
//! a candidate statement `W ≡ x (mod p_i·p_j)` (garbage windows fail to
//! decode and are dropped). Candidates then pass through:
//!
//! 1. **voting** — for each prime `p_i`, if one residue's vote count
//!    strictly exceeds twice the runner-up's, statements contradicting
//!    the winner are discarded;
//! 2. the **consistency graphs** `G` (inconsistent pairs) and `H`
//!    (pairs agreeing mod some shared prime): repeatedly take the
//!    highest-H-degree unprocessed vertex as presumed-true and delete its
//!    `G`-neighbors, until `G` is edge-free;
//! 3. **Generalized CRT** recombination of the surviving statements.
//!
//! Recognition succeeds when the survivors pin down `W mod p_i` for
//! every prime.

use std::collections::HashMap;

use pathmark_crypto::BATCH_LANES;
use pathmark_math::bigint::BigUint;
use pathmark_math::crt::{combine_statements, Statement};
use pathmark_telemetry::{Counter, Stage};
use stackvm::interp::Vm;
use stackvm::trace::{Trace, TraceConfig};
use stackvm::Program;

use super::session::DecodeEntry;
use super::{trace_program, Recognizer};
use crate::bitstring::{BitString, PackedTraceSink};
use crate::scan::Survivors;
use crate::scanner::{scan_range, FusedScan, StreamingScanSink};
use crate::WatermarkError;

/// Cap on distinct candidate statements fed to the quadratic graph
/// stage; candidates are kept by descending multiplicity.
const MAX_GRAPH_VERTICES: usize = 3000;

/// Cap on one statement's weight in the `W mod p_i` vote. Long runs of
/// identical trace bits (e.g. a hot never-taken attack branch emitting
/// thousands of 0s) repeat one window — and hence one garbage statement
/// — at enormous multiplicity; uncapped, that single decoding could
/// out-vote the true residue.
const MAX_VOTE_WEIGHT: u64 = 8;

/// The outcome of recognition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recognition {
    /// The recovered watermark, if every prime residue was pinned down.
    pub watermark: Option<BigUint>,
    /// The recovered value modulo [`Recognition::modulus`] (meaningful
    /// even on partial recovery).
    pub partial: BigUint,
    /// Product of the primes covered by the surviving statements.
    pub modulus: BigUint,
    /// Number of primes whose residue was recovered.
    pub primes_covered: usize,
    /// Total primes in the configuration.
    pub primes_total: usize,
    /// Distinct candidate statements decoded from the trace.
    pub candidates: usize,
    /// Candidates surviving the vote filter.
    pub after_vote: usize,
    /// Statements surviving the consistency-graph stage.
    pub survivors: usize,
}

impl Recognizer {
    /// Runs the tracing phase on the session's secret input, recording
    /// only what recognition needs ([`TraceConfig::branches_only`]).
    /// Reported to telemetry as [`Stage::Trace`].
    ///
    /// # Errors
    ///
    /// [`WatermarkError::TraceFailed`] if the program faults or exceeds
    /// the budget.
    pub fn trace(&self, program: &Program) -> Result<Trace, WatermarkError> {
        self.telemetry.time(Stage::Trace, || {
            trace_program(program, &self.key, &self.config, TraceConfig::branches_only())
        })
    }

    /// Runs the tracing phase straight to the packed bit-string via the
    /// streaming sink (see [`super::trace_program_bits`]): no
    /// `Vec<TraceEvent>` is materialized and no separate decode pass
    /// runs. Bit-identical to [`Recognizer::trace`] +
    /// [`BitString::from_trace`].
    ///
    /// The compile step is reported to telemetry as [`Stage::Compile`]
    /// and the execution as [`Stage::Trace`].
    ///
    /// # Errors
    ///
    /// [`WatermarkError::TraceFailed`] if the program faults or exceeds
    /// the budget.
    pub fn trace_bits(&self, program: &Program) -> Result<BitString, WatermarkError> {
        let vm = Vm::new(program)
            .with_input(self.key.input.clone())
            .with_budget(self.config.trace_budget)
            .with_trace(TraceConfig::branches_only());
        self.telemetry.time(Stage::Compile, || vm.prepare());
        self.telemetry.time(Stage::Trace, || {
            let mut sink = PackedTraceSink::for_program(program);
            vm.run_with_sink(&mut sink)?;
            Ok(sink.finish())
        })
    }

    /// Runs recognition on a (possibly attacked) program: traces it
    /// through the streaming scan sink ([`Recognizer::trace_survivors`]),
    /// so trace and window scan are one pass over the program's
    /// execution, then decrypts the survivors and recombines.
    ///
    /// # Errors
    ///
    /// * [`WatermarkError::TraceFailed`] if the program faults on the
    ///   secret input (e.g. after a destructive attack);
    /// * [`WatermarkError::Math`] for prime-configuration errors.
    pub fn recognize(&self, program: &Program) -> Result<Recognition, WatermarkError> {
        let scan = self.trace_survivors(program)?;
        let counts = self.candidates_from_survivors(&scan.survivors)?;
        self.recognize_from_candidates(counts)
    }

    /// The fused trace→scan pass: traces the program through a
    /// [`StreamingScanSink`], which maintains the rolling 64-bit window
    /// and both pre-rejects online over the packed words as the sink
    /// writes them — the survivor table exists the moment the traced
    /// program halts, and the bit-string is never re-walked. The
    /// returned table is bit-identical to
    /// [`Recognizer::window_survivors`] over the full range of
    /// [`Recognizer::trace_bits`]' string (see [`crate::scanner`] for
    /// the equivalence argument).
    ///
    /// The compile step is a [`Stage::Compile`] span, as in
    /// [`Recognizer::trace_bits`]. The fused pass is reported as a [`Stage::Trace`]
    /// span plus a [`Stage::ScanRoll`] span — the scanner's share is
    /// measured inside the sink and subtracted from the trace total, so
    /// the two spans sum to the pass without double counting — plus the
    /// usual [`Counter::WindowsScanned`] / [`Counter::WindowsSkipped`].
    ///
    /// # Errors
    ///
    /// [`WatermarkError::TraceFailed`] if the program faults or exceeds
    /// the budget.
    pub fn trace_survivors(&self, program: &Program) -> Result<FusedScan, WatermarkError> {
        let vm = Vm::new(program)
            .with_input(self.key.input.clone())
            .with_budget(self.config.trace_budget)
            .with_trace(TraceConfig::branches_only());
        self.telemetry.time(Stage::Compile, || vm.prepare());
        let timed = self.telemetry.enabled();
        let started = timed.then(std::time::Instant::now);
        let mut sink = StreamingScanSink::for_program(program, timed);
        vm.run_with_sink(&mut sink)?;
        let scan = sink.finish();
        if let Some(started) = started {
            let total = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let roll = scan.roll_nanos.min(total);
            self.telemetry.record(Stage::Trace, total - roll);
            self.telemetry.record(Stage::ScanRoll, roll);
        }
        self.telemetry.count(Counter::WindowsScanned, scan.scanned);
        self.telemetry.count(Counter::WindowsSkipped, scan.skipped);
        Ok(scan)
    }

    /// Recognition from an already-decoded bit-string (used by
    /// experiments that model attacks as direct bit perturbations).
    ///
    /// # Errors
    ///
    /// [`WatermarkError::Math`] for prime-configuration errors.
    pub fn recognize_bits(&self, bits: &BitString) -> Result<Recognition, WatermarkError> {
        let counts = self.window_candidates(bits, 0, usize::MAX)?;
        self.recognize_from_candidates(counts)
    }

    /// Phase one of the window scan over a stored bit-string: collect
    /// the *surviving window values* of offsets `[start, end)` as a
    /// columnar [`Survivors`] table, without touching the cipher.
    ///
    /// Degenerate all-zero/all-one windows are skipped: a constant 64-bit
    /// run cannot be watermark ciphertext except with probability
    /// `2^-63`, but arises constantly from monotone branches. The stored
    /// words run through the same streaming scanner the fused
    /// [`Recognizer::trace_survivors`] drives while tracing (see
    /// [`crate::scanner`] for its constant-run and periodic-run
    /// pre-rejects), so over the full range the table is bit-identical
    /// to the fused pass's.
    ///
    /// Telemetry: one [`Stage::ScanRoll`] span, plus
    /// [`Counter::WindowsScanned`] (windows the range covers, skipped
    /// ones included) and [`Counter::WindowsSkipped`] (windows the
    /// pre-rejects accounted without rolling).
    pub fn window_survivors(&self, bits: &BitString, start: usize, end: usize) -> Survivors {
        let end = end.min(bits.num_windows());
        let start = start.min(end);
        let (table, skipped) = self
            .telemetry
            .time(Stage::ScanRoll, || scan_range(bits, start, end));
        self.telemetry
            .count(Counter::WindowsScanned, (end - start) as u64);
        self.telemetry.count(Counter::WindowsSkipped, skipped);
        table
    }

    /// Phase two of the window scan: decrypt each distinct surviving
    /// window value once and decode it into a candidate statement,
    /// summing the value's multiplicity into the statement's count —
    /// exactly the multiset a decrypt-per-offset scan produces.
    ///
    /// `survivors` is the columnar table [`Recognizer::trace_survivors`]
    /// or [`Recognizer::window_survivors`] produced. Its rows are
    /// distinct by construction, so cache misses stream
    /// straight into [`BATCH_LANES`]-wide lanes and through
    /// [`pathmark_crypto::Xtea::decrypt_batch`] — the 32-round loop
    /// runs once per lane batch instead of once per value.
    ///
    /// A value's decode is a pure function of the session key, so the
    /// session memoizes it (see `SessionCrypto::decode_cache`): a warm
    /// session recognizing many copies of one host program pays XTEA
    /// once per distinct value per *key*, not per copy — the host's own
    /// loop windows repeat across fingerprinted copies. The memo is kept
    /// sorted by value like the rows, so the lookups are one merge over
    /// it, and the misses merge in after decryption.
    ///
    /// Telemetry: one [`Stage::ScanDecrypt`] span (the scan's
    /// decryption half), plus [`Counter::WindowsDecrypted`] (window values that actually
    /// reached the cipher), [`Counter::DecodeCacheHit`] /
    /// [`Counter::DecodeCacheMiss`] / [`Counter::DecodeCacheEvict`]
    /// (cache behavior, also folded into the session's
    /// [`super::DecodeCacheStats`]), and [`Counter::CandidatesDecoded`]
    /// (candidate decodings, with multiplicity).
    ///
    /// # Errors
    ///
    /// [`WatermarkError::Math`] for prime-configuration errors.
    pub fn candidates_from_survivors(
        &self,
        survivors: &Survivors,
    ) -> Result<HashMap<Statement, u64>, WatermarkError> {
        let crypto = self.crypto()?;
        let (enumeration, cipher) = (&crypto.enumeration, &crypto.cipher);
        let mut decrypted = 0u64;
        let mut evicted = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let counts = self.telemetry.time(Stage::ScanDecrypt, || {
            let mut counts: HashMap<Statement, u64> = HashMap::new();
            let mut cache = crypto
                .decode_cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Cache misses accumulate into cipher lanes; table rows are
            // distinct, so a batch never holds the same value twice.
            let mut lane_values = [0u64; BATCH_LANES];
            let mut lane_mults = [0u64; BATCH_LANES];
            let mut lanes = 0usize;
            // The misses' decodes, ascending like the rows they came
            // from, for the memo to merge in once the scan is done.
            let mut fresh: Vec<DecodeEntry> = Vec::new();
            let flush = |values: &[u64],
                             mults: &[u64],
                             fresh: &mut Vec<DecodeEntry>,
                             counts: &mut HashMap<Statement, u64>,
                             decrypted: &mut u64| {
                let mut blocks = [0u64; BATCH_LANES];
                blocks[..values.len()].copy_from_slice(values);
                cipher.decrypt_batch(&mut blocks[..values.len()]);
                *decrypted += values.len() as u64;
                for (lane, &value) in values.iter().enumerate() {
                    let decoded = enumeration.decode(blocks[lane]).ok();
                    fresh.push((value, decoded));
                    if let Some(statement) = decoded {
                        *counts.entry(statement).or_insert(0) += mults[lane];
                    }
                }
            };
            // Rows ascend by value, as the memo does: one cursor walks
            // it once for the whole table.
            let mut cursor = 0usize;
            for (value, multiplicity, _first_offset) in survivors.iter() {
                if let Some(decoded) = cache.get(&mut cursor, value) {
                    hits += 1;
                    if let Some(statement) = decoded {
                        *counts.entry(statement).or_insert(0) += multiplicity;
                    }
                    continue;
                }
                misses += 1;
                lane_values[lanes] = value;
                lane_mults[lanes] = multiplicity;
                lanes += 1;
                if lanes == BATCH_LANES {
                    flush(
                        &lane_values,
                        &lane_mults,
                        &mut fresh,
                        &mut counts,
                        &mut decrypted,
                    );
                    lanes = 0;
                }
            }
            if lanes > 0 {
                flush(
                    &lane_values[..lanes],
                    &lane_mults[..lanes],
                    &mut fresh,
                    &mut counts,
                    &mut decrypted,
                );
            }
            // Below its cap the memo is exact; at the cap it drops
            // decodes and memory stays bounded.
            evicted = cache.admit(fresh);
            counts
        });
        self.telemetry.count(Counter::WindowsDecrypted, decrypted);
        self.telemetry.count(Counter::DecodeCacheHit, hits);
        self.telemetry.count(Counter::DecodeCacheMiss, misses);
        self.telemetry.count(Counter::DecodeCacheEvict, evicted);
        self.telemetry
            .count(Counter::CandidatesDecoded, counts.values().sum());
        crypto.record_cache_activity(hits, misses, evicted);
        Ok(counts)
    }

    /// The sliding-window candidate scan: step one of recognition over
    /// the windows whose *start offsets* fall in `[start, end)` — both
    /// halves, [`Recognizer::window_survivors`] then
    /// [`Recognizer::candidates_from_survivors`] — collecting the
    /// decodable candidate statements with multiplicity.
    ///
    /// # Errors
    ///
    /// [`WatermarkError::Math`] for prime-configuration errors.
    pub fn window_candidates(
        &self,
        bits: &BitString,
        start: usize,
        end: usize,
    ) -> Result<HashMap<Statement, u64>, WatermarkError> {
        let survivors = self.window_survivors(bits, start, end);
        self.candidates_from_survivors(&survivors)
    }
}

impl Recognizer {
    /// Steps two onward of recognition, from an already-collected
    /// candidate multiset (see [`Recognizer::window_candidates`]): the
    /// `W mod p_i` vote prefilter, the G/H consistency graphs, and
    /// Generalized CRT recombination. Entirely deterministic in
    /// `counts`' *contents* (map iteration order never leaks into the
    /// result).
    ///
    /// Telemetry: one span each for [`Stage::Vote`], [`Stage::Graph`],
    /// and [`Stage::Crt`].
    ///
    /// # Errors
    ///
    /// [`WatermarkError::Math`] for prime-configuration errors.
    pub fn recognize_from_candidates(
        &self,
        counts: HashMap<Statement, u64>,
    ) -> Result<Recognition, WatermarkError> {
        let config = &self.config;
        let crypto = self.crypto()?;
        let primes = &crypto.primes;
        let candidates = counts.len();

        // --- Vote on W mod p_i for each prime (clear winner = more than
        // twice the second place). One pass over the candidates tallies
        // both of each statement's residues at once, instead of one
        // full candidate pass per prime. Skipped entirely when the
        // configuration disables the prefilter (ablation studies).
        let mut filtered: Vec<(Statement, u64)> = self.telemetry.time(Stage::Vote, || {
            let mut winners: Vec<Option<u64>> = vec![None; primes.len()];
            if config.vote_prefilter {
                let mut tallies: Vec<HashMap<u64, u64>> = vec![HashMap::new(); primes.len()];
                for (s, &c) in &counts {
                    let weight = c.min(MAX_VOTE_WEIGHT);
                    for idx in [s.i, s.j] {
                        *tallies[idx].entry(s.x % primes[idx]).or_insert(0) += weight;
                    }
                }
                for (idx, tally) in tallies.iter().enumerate() {
                    // Winner selection is order-independent: a residue
                    // wins only with strictly more than twice the
                    // runner-up's votes, and ties at the top never win.
                    let mut best: Option<(u64, u64)> = None;
                    let mut second = 0u64;
                    for (&r, &c) in tally {
                        match best {
                            None => best = Some((r, c)),
                            Some((_, bc)) if c > bc => {
                                second = bc;
                                best = Some((r, c));
                            }
                            Some(_) => second = second.max(c),
                        }
                    }
                    if let Some((r, c)) = best {
                        if c > 2 * second {
                            winners[idx] = Some(r);
                        }
                    }
                }
            }
            counts
                .into_iter()
                .filter(|(s, _)| {
                    [s.i, s.j].iter().all(|&idx| match winners[idx] {
                        Some(w) => s
                            .residue_mod_prime(idx, primes)
                            .expect("statement mentions idx")
                            == w,
                        None => true,
                    })
                })
                .collect()
        });
        let after_vote = filtered.len();

        // --- Consistency graphs G (inconsistent) and H (agree mod a
        // shared prime).
        let survivors: Vec<Statement> = self.telemetry.time(Stage::Graph, || {
            // Deterministic order; cap the quadratic stage.
            filtered.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            filtered.truncate(MAX_GRAPH_VERTICES);

            let statements: Vec<Statement> = filtered.iter().map(|&(s, _)| s).collect();
            let n = statements.len();

            // Pair generation is bucketed by prime: only statements
            // sharing a prime can be G- or H-adjacent (disjoint pairs
            // have no shared residue to compare), so instead of testing
            // all n² pairs we test pairs within each prime's bucket. A
            // pair sharing *both* primes appears in two buckets; it is
            // processed only in the bucket of its smaller shared prime.
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); primes.len()];
            for (v, s) in statements.iter().enumerate() {
                buckets[s.i].push(v);
                buckets[s.j].push(v);
            }
            let mut g: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut h_degree: Vec<usize> = vec![0; n];
            for (k, bucket) in buckets.iter().enumerate() {
                for (pos, &a) in bucket.iter().enumerate() {
                    let (sa, sb_range) = (statements[a], &bucket[pos + 1..]);
                    for &b in sb_range {
                        let sb = statements[b];
                        let min_shared = [sa.i, sa.j]
                            .iter()
                            .filter(|&&p| p == sb.i || p == sb.j)
                            .min()
                            .copied()
                            .expect("bucket mates share prime k");
                        if min_shared != k {
                            continue; // handled in the other bucket
                        }
                        if sa.inconsistent_with(&sb, primes) {
                            g[a].push(b);
                            g[b].push(a);
                        } else if sa.agrees_with(&sb, primes) {
                            h_degree[a] += 1;
                            h_degree[b] += 1;
                        }
                    }
                }
            }
            // The pre-bucketing implementation emitted adjacency lists
            // in ascending vertex order; restore that so the degenerate
            // edge-pick below stays bit-identical.
            let mut live_edges = 0usize;
            for adj in &mut g {
                adj.sort_unstable();
                live_edges += adj.len();
            }
            live_edges /= 2;

            // Peeling loop, with the edge count maintained
            // incrementally: killing a vertex subtracts its live degree
            // instead of rescanning the whole graph per iteration.
            let mut alive = vec![true; n];
            let mut in_u = vec![false; n];
            let kill = |w: usize, alive: &mut [bool], live_edges: &mut usize| {
                if alive[w] {
                    alive[w] = false;
                    *live_edges -= g[w].iter().filter(|&&u| alive[u]).count();
                }
            };
            while live_edges > 0 {
                // Highest H-degree vertex not yet processed.
                let pick = (0..n)
                    .filter(|&v| alive[v] && !in_u[v])
                    .max_by_key(|&v| (h_degree[v], std::cmp::Reverse(v)));
                match pick {
                    Some(v) => {
                        in_u[v] = true;
                        for &w in &g[v] {
                            kill(w, &mut alive, &mut live_edges);
                        }
                    }
                    None => {
                        // Degenerate: every remaining vertex processed
                        // but edges remain (possible under heavy noise).
                        // Drop the lowest-H-degree endpoint of some
                        // remaining edge.
                        let (a, b) = alive
                            .iter()
                            .enumerate()
                            .filter(|&(_, &al)| al)
                            .flat_map(|(v, _)| {
                                g[v].iter()
                                    .filter(|&&w| alive[w])
                                    .map(move |&w| (v, w))
                            })
                            .next()
                            .expect("live_edges > 0 implies an edge exists");
                        let drop = if h_degree[a] <= h_degree[b] { a } else { b };
                        kill(drop, &mut alive, &mut live_edges);
                    }
                }
            }
            (0..n)
                .filter(|&v| alive[v])
                .map(|v| statements[v])
                .collect()
        });

        // --- Generalized CRT recombination.
        let (partial, modulus) = self.telemetry.time(Stage::Crt, || {
            if survivors.is_empty() || primes.len() < 2 {
                Ok((BigUint::zero(), BigUint::one()))
            } else {
                combine_statements(&survivors, primes)
            }
        })?;
        let covered: Vec<bool> = (0..primes.len())
            .map(|idx| survivors.iter().any(|s| s.i == idx || s.j == idx))
            .collect();
        let primes_covered = covered.iter().filter(|&&c| c).count();
        let watermark = (primes_covered == primes.len()).then(|| partial.clone());

        Ok(Recognition {
            watermark,
            partial,
            modulus,
            primes_covered,
            primes_total: primes.len(),
            candidates,
            after_vote,
            survivors: survivors.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::java::{CodegenPolicy, Embedder, JavaConfig};
    use crate::key::{Watermark, WatermarkKey};
    use pathmark_crypto::Prng;
    use stackvm::builder::{FunctionBuilder, ProgramBuilder};
    use stackvm::insn::Cond;

    fn host_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 2);
        let head = f.new_label();
        let out = f.new_label();
        f.push(0).store(0);
        f.bind(head);
        f.load(0).push(8).if_cmp(Cond::Ge, out);
        f.load(0).load(1).add().store(1);
        f.iinc(0, 1).goto(head);
        f.bind(out);
        f.load(1).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        pb.finish(main).unwrap()
    }

    fn key() -> WatermarkKey {
        WatermarkKey::new(0x5EC2E7, vec![3, 1, 4])
    }

    fn embedder(config: &JavaConfig) -> Embedder {
        Embedder::builder(key(), config.clone()).build().unwrap()
    }

    fn recognizer(config: &JavaConfig) -> Recognizer {
        Recognizer::builder(key(), config.clone()).build().unwrap()
    }

    /// The scan `window_survivors` must match: roll a window over every
    /// offset of `[start, end)`, drop constants, tally multiplicities
    /// and first offsets. No pre-reject, no skipping — the oracle the
    /// periodic bulk-accounting is gated against.
    fn reference_survivors(bits: &BitString, start: usize, end: usize) -> Survivors {
        let end = end.min(bits.num_windows());
        let start = start.min(end);
        let mut entries = Vec::new();
        for offset in start..end {
            let window = bits.window_u64(offset).unwrap();
            if window != 0 && window != u64::MAX {
                entries.push((window, 1, offset as u64));
            }
        }
        Survivors::from_entries(entries)
    }

    #[test]
    fn embed_then_recognize_round_trip() {
        for (bits, pieces) in [(64usize, 10usize), (128, 30), (256, 60)] {
            let config = JavaConfig::for_watermark_bits(bits).with_pieces(pieces);
            let watermark = Watermark::random_for(&config, &key());
            let marked = embedder(&config).embed(&host_program(), &watermark).unwrap();
            let rec = recognizer(&config).recognize(&marked.program).unwrap();
            assert_eq!(
                rec.watermark.as_ref(),
                Some(watermark.value()),
                "{bits}-bit watermark with {pieces} pieces"
            );
            assert_eq!(rec.primes_covered, rec.primes_total);
        }
    }

    #[test]
    fn periodic_prereject_matches_reference_scan_on_marked_traces() {
        // CI equivalence gate: the production scan (constant-run and
        // periodic-run pre-rejects engaged) must produce the exact
        // survivor table of the naive roll-every-offset reference, on
        // real marked traces — the near-periodic inputs the pre-reject
        // actually fires on.
        for pieces in [10usize, 30] {
            let config = JavaConfig::for_watermark_bits(128).with_pieces(pieces);
            let watermark = Watermark::random_for(&config, &key());
            let marked = embedder(&config).embed(&host_program(), &watermark).unwrap();
            let session = recognizer(&config);
            let bits = session.trace_bits(&marked.program).unwrap();
            let scanned = session.window_survivors(&bits, 0, usize::MAX);
            let reference = reference_survivors(&bits, 0, usize::MAX);
            assert_eq!(scanned, reference, "{pieces} pieces");
        }
    }

    #[test]
    fn fused_scan_matches_two_phase_on_marked_traces() {
        // CI equivalence gate: the fused trace+scan pass must reproduce
        // the two-phase pipeline bit for bit — the trace bit-string of
        // the reference interpreter, the naive survivor table (values,
        // multiplicities, first offsets) of that string, and the
        // recognition of the stored string — on real marked traces.
        for pieces in [10usize, 30] {
            let config = JavaConfig::for_watermark_bits(128).with_pieces(pieces);
            let watermark = Watermark::random_for(&config, &key());
            let marked = embedder(&config).embed(&host_program(), &watermark).unwrap();
            let session = recognizer(&config);

            let scan = session.trace_survivors(&marked.program).unwrap();
            let reference = Vm::new(&marked.program)
                .with_input(key().input)
                .with_budget(config.trace_budget)
                .with_trace(TraceConfig::branches_only())
                .run_reference()
                .unwrap();
            let bits = BitString::from_trace(&reference.trace);
            assert_eq!(scan.bits, bits, "{pieces} pieces: trace bits");
            assert_eq!(
                scan.survivors,
                reference_survivors(&bits, 0, usize::MAX),
                "{pieces} pieces: survivor table"
            );
            assert_eq!(scan.scanned, bits.num_windows() as u64);
            assert!(scan.skipped <= scan.scanned);

            let a = session.recognize(&marked.program).unwrap();
            let b = session.recognize_bits(&bits).unwrap();
            assert_eq!(a, b, "{pieces} pieces: recognition");
            assert_eq!(a.watermark.as_ref(), Some(watermark.value()));
        }
    }

    #[test]
    fn periodic_prereject_matches_reference_scan_on_adversarial_bitstrings() {
        // Random strings (pre-reject mostly idle), all-constant runs,
        // and exactly-periodic strings at awkward periods (the
        // pre-reject engages constantly) — plus sub-ranges, whose tables
        // must equal the naive scan of the same range.
        let config = JavaConfig::for_watermark_bits(64).with_pieces(10);
        let session = recognizer(&config);
        let mut rng = Prng::from_seed(0xADE5A1);
        let mut cases: Vec<Vec<bool>> = Vec::new();
        // Pure random.
        cases.push((0..4000).map(|_| rng.chance(0.5)).collect());
        // Long constant runs stitched with noise bursts.
        let mut runs = Vec::new();
        for _ in 0..12 {
            let constant = rng.chance(0.5);
            runs.extend(std::iter::repeat_n(constant, 100 + rng.index(300)));
            runs.extend((0..rng.index(40)).map(|_| rng.chance(0.5)));
        }
        cases.push(runs);
        // Exactly periodic at awkward periods (word-straddling), with a
        // few planted flips.
        for period in [1usize, 7, 63, 64, 65, 127, 911, 1041] {
            let tile: Vec<bool> = (0..period).map(|_| rng.chance(0.5)).collect();
            let mut tiled: Vec<bool> = (0..6000).map(|i| tile[i % period]).collect();
            for _ in 0..3 {
                let i = rng.index(tiled.len());
                tiled[i] = !tiled[i];
            }
            cases.push(tiled);
        }
        for (case, bools) in cases.into_iter().enumerate() {
            let bits = BitString::from_bits(bools);
            let full = session.window_survivors(&bits, 0, usize::MAX);
            let reference = reference_survivors(&bits, 0, usize::MAX);
            assert_eq!(full, reference, "case {case}");
            let n = bits.num_windows();
            for parts in [2usize, 3, 5] {
                let chunk = n.div_ceil(parts).max(1);
                for p in 0..parts {
                    let (start, end) = (p * chunk, ((p + 1) * chunk).min(n));
                    assert_eq!(
                        session.window_survivors(&bits, start, end),
                        reference_survivors(&bits, start, end),
                        "case {case}, range {start}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    fn recognition_round_trip_all_codegens() {
        for policy in [
            CodegenPolicy::LoopOnly,
            CodegenPolicy::PreferCondition,
            CodegenPolicy::Mixed,
        ] {
            let config = JavaConfig::for_watermark_bits(64)
                .with_pieces(15)
                .with_codegen(policy);
            let watermark = Watermark::random_for(&config, &key());
            let marked = embedder(&config).embed(&host_program(), &watermark).unwrap();
            let rec = recognizer(&config).recognize(&marked.program).unwrap();
            assert_eq!(rec.watermark.as_ref(), Some(watermark.value()), "{policy:?}");
        }
    }

    #[test]
    fn tiny_decode_cache_evicts_but_stays_correct() {
        use pathmark_telemetry::{Counter, Telemetry};
        use std::sync::Arc;

        let config = JavaConfig::for_watermark_bits(64).with_pieces(12);
        // Many distinct window values, far more than the capped cache
        // admits at once.
        let mut rng = Prng::from_seed(4242);
        let survivors = Survivors::from_entries(
            (0..512)
                .map(|i| (rng.next_u64(), 1 + rng.next_u64() % 3, i))
                .collect(),
        );

        let sink = Arc::new(pathmark_telemetry::MemorySink::new());
        let capped = Recognizer::builder(key(), config.clone())
            .telemetry(Telemetry::new(sink.clone()))
            .decode_cache_cap(16)
            .build()
            .unwrap();
        let uncapped = Recognizer::builder(key(), config.clone()).build().unwrap();
        let disabled = Recognizer::builder(key(), config)
            .decode_cache_cap(0)
            .build()
            .unwrap();

        let a = capped.candidates_from_survivors(&survivors).unwrap();
        let b = uncapped.candidates_from_survivors(&survivors).unwrap();
        let c = disabled.candidates_from_survivors(&survivors).unwrap();
        assert_eq!(a, b, "a capped cache never changes the candidate multiset");
        assert_eq!(a, c, "cap 0 (no memoization) is equally correct");

        assert!(
            sink.counter(Counter::DecodeCacheEvict) > 0,
            "overflowing a 16-entry cache with 512 distinct values must evict"
        );
        let cache_len = capped
            .crypto()
            .unwrap()
            .decode_cache
            .lock()
            .unwrap()
            .len();
        assert!(cache_len <= 16, "cache bounded by its cap, got {cache_len}");
        // The session's cache statistics agree with the sink: 512
        // distinct values through an empty cache all miss.
        let stats = capped.decode_cache_stats();
        assert_eq!(stats.misses, 512);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, sink.counter(Counter::DecodeCacheEvict));
        assert_eq!(stats.entries, cache_len as u64);
        assert_eq!(sink.counter(Counter::DecodeCacheMiss), 512);
        assert_eq!(sink.counter(Counter::DecodeCacheHit), 0);
        // Repeats of a resident value still hit: re-running the tail of
        // the survivor table decrypts no more values than it has rows.
        let tail =
            Survivors::from_entries(survivors.iter().skip(survivors.len() - 8).collect());
        let before = sink.counter(Counter::WindowsDecrypted);
        capped.candidates_from_survivors(&tail).unwrap();
        let after = sink.counter(Counter::WindowsDecrypted);
        assert!(after - before <= 8);
    }

    #[test]
    fn decode_memo_agrees_across_caps_on_random_scan_sequences() {
        use std::collections::BTreeSet;

        let config = JavaConfig::for_watermark_bits(64).with_pieces(12);
        let mut rng = Prng::from_seed(0xDEC0DE);
        for round in 0..4 {
            let cap = 8 + rng.index(120);
            // `usize::MAX` also checks that nothing is sized from the cap.
            let sessions = [cap, usize::MAX, 0].map(|cap| {
                let session = Recognizer::builder(key(), config.clone())
                    .decode_cache_cap(cap)
                    .build()
                    .unwrap();
                (session, cap)
            });
            // Scans draw their rows from one pool, so they overlap.
            let pool: Vec<u64> = (0..400).map(|_| rng.next_u64()).collect();
            // Every window value decoded so far, ascending.
            let mut seen: BTreeSet<u64> = BTreeSet::new();
            let mut previous = Survivors::new();
            for scan in 0..12 {
                let rescan = scan > 0 && rng.chance(0.3);
                let table = if rescan {
                    previous.clone()
                } else {
                    Survivors::from_entries(
                        (0..rng.index(200))
                            .map(|i| (pool[rng.index(pool.len())], 1 + rng.range(4), i as u64))
                            .collect(),
                    )
                };
                let rows = table.len() as u64;

                let mut multisets = Vec::new();
                for (session, cap) in &sessions {
                    let before = session.decode_cache_stats();
                    multisets.push(session.candidates_from_survivors(&table).unwrap());
                    let after = session.decode_cache_stats();
                    let hits = after.hits - before.hits;
                    let misses = after.misses - before.misses;
                    let at = format!("round {round}, scan {scan}, cap {cap}");
                    assert_eq!(hits + misses, rows, "{at}: one lookup per row");
                    assert!(after.entries <= *cap as u64, "{at}: bounded by the cap");
                    // The memo holds the `cap` smallest values decoded so
                    // far, so exactly the rows among them hit.
                    let resident: BTreeSet<u64> = seen.iter().take(*cap).copied().collect();
                    let expected = table.values().iter().filter(|v| resident.contains(v));
                    assert_eq!(hits, expected.count() as u64, "{at}: the smallest values stay");
                    if *cap == 0 {
                        assert_eq!((after.entries, after.evictions), (0, 0), "{at}: no memo");
                        continue;
                    }
                    assert_eq!(
                        after.entries + after.evictions,
                        after.misses,
                        "{at}: every decode is kept or counted as dropped"
                    );
                    if rescan && before.evictions == 0 {
                        assert_eq!(misses, 0, "{at}: an exact re-scan below the cap");
                    }
                }
                assert_eq!(multisets[0], multisets[1], "round {round}, scan {scan}");
                assert_eq!(multisets[0], multisets[2], "round {round}, scan {scan}");
                seen.extend(table.values());
                if seen.len() > cap {
                    assert!(sessions[0].0.decode_cache_stats().evictions > 0);
                }
                previous = table;
            }
        }
    }

    #[test]
    fn unmarked_program_recognizes_nothing() {
        let config = JavaConfig::for_watermark_bits(64);
        let rec = recognizer(&config).recognize(&host_program()).unwrap();
        assert_eq!(rec.watermark, None);
        assert_eq!(rec.survivors, 0);
    }

    #[test]
    fn wrong_key_recognizes_nothing() {
        let config = JavaConfig::for_watermark_bits(64).with_pieces(12);
        let watermark = Watermark::random_for(&config, &key());
        let marked = embedder(&config).embed(&host_program(), &watermark).unwrap();
        // Different numeric secret: different primes, cipher, and trace
        // input.
        let wrong = WatermarkKey::new(0xBAD_5EED, vec![3, 1, 4]);
        let rec = Recognizer::builder(wrong, config)
            .build()
            .unwrap()
            .recognize(&marked.program)
            .unwrap();
        assert_eq!(rec.watermark, None, "wrong key must not recover the mark");
    }

    #[test]
    fn survives_random_bit_noise_between_pieces() {
        // Corrupt the trace bits with scattered noise bursts; redundancy
        // should still recover the mark. This models the branch-insertion
        // attack's effect directly at the bit level.
        let config = JavaConfig::for_watermark_bits(64).with_pieces(24);
        let watermark = Watermark::random_for(&config, &key());
        let marked = embedder(&config).embed(&host_program(), &watermark).unwrap();
        let trace = super::super::trace_program(
            &marked.program,
            &key(),
            &config,
            TraceConfig::branches_only(),
        )
        .unwrap();
        let mut bits: Vec<bool> = BitString::from_trace(&trace).to_bools();
        // Flip 2% of bits pseudo-randomly.
        let mut rng = Prng::from_seed(77);
        let flips = bits.len() / 50;
        for _ in 0..flips {
            let i = rng.index(bits.len());
            bits[i] = !bits[i];
        }
        let rec = recognizer(&config)
            .recognize_bits(&BitString::from_bits(bits))
            .unwrap();
        assert_eq!(rec.watermark.as_ref(), Some(watermark.value()));
    }

    #[test]
    fn packed_sink_traces_match_vec_collector_on_random_keys() {
        // The CI equivalence gate for the streaming recognize path:
        // trace_program_bits (interpreter → PackedTraceSink, no event
        // vector) must be bit-identical to the legacy collector pipeline
        // (trace_program → BitString::from_trace) on real marked
        // programs over randomized keys and piece counts.
        let mut rng = Prng::from_seed(0x9AC4ED);
        for round in 0..8 {
            let k = WatermarkKey::new(
                rng.next_u64(),
                (0..3).map(|_| rng.range(16) as i64).collect(),
            );
            let config =
                JavaConfig::for_watermark_bits(64).with_pieces(8 + rng.index(16));
            let watermark = Watermark::random_for(&config, &k);
            let marked = Embedder::builder(k.clone(), config.clone())
                .build()
                .unwrap()
                .embed(&host_program(), &watermark)
                .unwrap();
            for program in [&host_program(), &marked.program] {
                let trace = super::super::trace_program(
                    program,
                    &k,
                    &config,
                    TraceConfig::branches_only(),
                )
                .unwrap();
                let reference = BitString::from_trace(&trace);
                let packed =
                    super::super::trace_program_bits(program, &k, &config).unwrap();
                assert_eq!(packed, reference, "round {round}");
            }
        }
    }

    #[test]
    fn empty_bitstring_yields_empty_recognition() {
        let config = JavaConfig::for_watermark_bits(64);
        let rec = recognizer(&config)
            .recognize_bits(&BitString::from_bits(vec![]))
            .unwrap();
        assert_eq!(rec.candidates, 0);
        assert_eq!(rec.watermark, None);
        assert_eq!(rec.modulus, BigUint::one());
    }
}
