//! Native watermark extraction (Section 4.2.3).
//!
//! A single-stepping tracer runs the marked executable on the secret
//! input and observes the instructions executed between the `begin` and
//! `end` addresses that bracket the watermark. The branch function is
//! identified as the function that *returns somewhere other than the
//! instruction after its call site*; each such mis-return is one
//! watermark hop `(a_i, b_i)`, and comparing the addresses yields the
//! bit (`b_i > a_i` ⇒ forward ⇒ 1).
//!
//! Two tracer variants are implemented, matching the paper's discussion
//! of the call-rerouting attack (Section 5.2.2, attack 5):
//!
//! * [`TracerKind::Simple`] identifies call sites by *which instruction
//!   transferred control to the branch function*. Rerouting a call
//!   through a thunk `Y: jmp f` makes this tracer attribute the hop to
//!   `Y` and fail.
//! * [`TracerKind::Smart`] tracks the branch function's *hash input* —
//!   the return address found on the stack — which rerouting cannot
//!   disturb (the tamper-proofing requires the hash input to stay
//!   intact), so the chain is recovered even from rerouted binaries.

use nativesim::cpu::{Machine, Observer, Step};
use nativesim::shadow::ShadowStack;
use nativesim::Image;

use crate::WatermarkError;

/// The `begin`/`end` bracket of the watermark (the paper supplies these
/// manually; the embedder's [`super::NativeMark`] records them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractionSpec {
    /// Address of the first watermark call.
    pub begin: u32,
    /// Address control reaches after the chain.
    pub end: u32,
}

/// Which tracer to extract with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracerKind {
    /// Attribute hops to the instruction that jumped into the branch
    /// function (defeated by call rerouting).
    Simple,
    /// Attribute hops to the branch function's hash input (robust).
    Smart,
}

/// Hands `on_step` every step between the first time `begin` is about
/// to execute and the first time after it that `end` is.
struct Bracket<F> {
    spec: ExtractionSpec,
    recording: bool,
    reached_end: bool,
    on_step: F,
}

impl<F: FnMut(&Step)> Observer for Bracket<F> {
    #[inline]
    fn before(&mut self, eip: u32) -> bool {
        self.recording |= eip == self.spec.begin;
        self.reached_end = self.recording && eip == self.spec.end;
        !self.reached_end
    }

    #[inline]
    fn after(&mut self, step: &Step) {
        if self.recording {
            (self.on_step)(step);
        }
    }
}

/// Runs `image` on `input` from its entry, feeding `on_step` the
/// bracketed steps; returns whether `end` was reached.
fn trace_bracket(
    image: &Image,
    input: &[u32],
    spec: ExtractionSpec,
    budget: u64,
    on_step: impl FnMut(&Step),
) -> Result<bool, WatermarkError> {
    let mut bracket = Bracket {
        spec,
        recording: false,
        reached_end: false,
        on_step,
    };
    Machine::load(image)
        .with_input(input.to_vec())
        .run_with(budget, &mut bracket)?;
    Ok(bracket.reached_end)
}

/// Extracts the watermark bits from a marked image.
///
/// The shadow stack is walked as the steps land, so memory holds the
/// live call frames and the hops, never the steps. The simple tracer
/// runs the bracket twice: once to find the branch function's entry
/// (the immediate target of the first mis-returning call) and the hop
/// landings, once to see which instructions transferred control there.
///
/// # Errors
///
/// * [`WatermarkError::Sim`] if the program faults (e.g. after a
///   destructive attack) — any fault between start and `end` counts as
///   a broken program;
/// * [`WatermarkError::EndNotReached`] if `begin` or `end` never
///   executes within the budget;
/// * [`WatermarkError::NoBranchFunction`] if no mis-returning function
///   is observed between `begin` and `end`.
pub fn extract(
    image: &Image,
    input: &[u32],
    spec: ExtractionSpec,
    tracer: TracerKind,
    budget: u64,
) -> Result<Vec<bool>, WatermarkError> {
    // Hop i lands on call site i+1; the hop that lands on `end`
    // terminates the chain and carries no bit. It is always the last
    // hop, since reaching `end` stops the trace.
    let mut shadow = ShadowStack::default();
    let mut f_entry = None;
    let mut chain_done = false;
    let mut bits = Vec::new();
    let mut landings = Vec::new();
    let reached_end = trace_bracket(image, input, spec, budget, |step| {
        let Some((frame, landing)) = shadow.observe(step) else {
            return;
        };
        f_entry.get_or_insert(frame.target);
        chain_done |= landing == spec.end;
        if chain_done {
            return;
        }
        match tracer {
            // a_i = hash input - call length; the hash input is the
            // expected (original) return address of the mis-returning
            // frame, which rerouting cannot change.
            TracerKind::Smart => bits.push(landing > frame.ret_addr.wrapping_sub(5)),
            TracerKind::Simple => landings.push(landing),
        }
    })?;
    if !reached_end {
        return Err(WatermarkError::EndNotReached);
    }
    let Some(f_entry) = f_entry else {
        return Err(WatermarkError::NoBranchFunction);
    };
    if tracer == TracerKind::Simple {
        // The branch function's entry is taken to be the immediate
        // target of the first mis-returning frame's call; hop i is
        // attributed to the i-th instruction that transferred control
        // there.
        trace_bracket(image, input, spec, budget, |step| {
            if step.next_pc == f_entry {
                if let Some(&landing) = landings.get(bits.len()) {
                    bits.push(landing > step.pc);
                }
            }
        })?;
    }
    Ok(bits)
}

/// Automatic-framing extraction — the paper's stated next step
/// ("we expect to augment the implementation … to use a framing scheme
/// that would allow these addresses to be identified automatically",
/// Section 4.2.3). No `begin`/`end` bracket is supplied: the tracer runs
/// the whole program, detects every branch-function hop by shadow-stack
/// mis-returns, and recognizes the watermark chain *structurally* — a
/// maximal run of hops in which each hop lands exactly on the next hop's
/// call site. Attribution uses the hash input (the [`TracerKind::Smart`]
/// rule), so this also works on rerouted binaries.
///
/// Returns the bits together with the discovered bracket.
///
/// # Errors
///
/// * [`WatermarkError::Sim`] on simulator faults;
/// * [`WatermarkError::NoBranchFunction`] if no chain of at least two
///   hops is observed.
pub fn extract_auto(
    image: &Image,
    input: &[u32],
    budget: u64,
) -> Result<(Vec<bool>, ExtractionSpec), WatermarkError> {
    let mut shadow = ShadowStack::default();
    // (hash-input call site, landing), in execution order.
    let mut hops: Vec<(u32, u32)> = Vec::new();
    Machine::load(image)
        .with_input(input.to_vec())
        .run_with(budget, &mut |step: &Step| {
            if let Some((frame, landing)) = shadow.observe(step) {
                hops.push((frame.ret_addr.wrapping_sub(5), landing));
            }
        })?;
    // Find the LONGEST maximal chain: hop i is chained to hop i+1 when
    // it lands exactly on hop i+1's call site. Decoy hops (ordinary
    // jumps obfuscated through the branch function) form chains of
    // length one and are skipped; the watermark is the long chain.
    let mut best: Option<(usize, usize)> = None;
    let mut start = 0usize;
    while start < hops.len() {
        let mut end = start;
        while end + 1 < hops.len() && hops[end].1 == hops[end + 1].0 {
            end += 1;
        }
        if end > start && best.is_none_or(|(s, e)| end - start > e - s) {
            best = Some((start, end));
        }
        start = end + 1;
    }
    match best {
        Some((start, end)) => {
            // Chain of end-start+1 hops: the last hop's landing is the
            // `end` bracket; every earlier hop carries one bit.
            let bits = hops[start..end]
                .iter()
                .map(|&(a, b)| b > a)
                .collect::<Vec<bool>>();
            let spec = ExtractionSpec {
                begin: hops[start].0,
                end: hops[end].1,
            };
            Ok((bits, spec))
        }
        None => Err(WatermarkError::NoBranchFunction),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::WatermarkKey;
    use crate::native::embed::tests::host_image;
    use crate::native::{embed_native, NativeConfig};

    fn key() -> WatermarkKey {
        WatermarkKey::new(0xFACE, vec![5])
    }

    fn round_trip(bits: &[bool], tracer: TracerKind) -> Vec<bool> {
        let image = host_image();
        let mark = embed_native(&image, bits, &key(), &NativeConfig::default()).unwrap();
        extract(
            &mark.image,
            &key().native_input(),
            ExtractionSpec {
                begin: mark.begin,
                end: mark.end,
            },
            tracer,
            10_000_000,
        )
        .unwrap()
    }

    #[test]
    fn embed_extract_round_trip_both_tracers() {
        let patterns: Vec<Vec<bool>> = vec![
            vec![true],
            vec![false],
            vec![true, false, true, true],
            vec![false, false, false, false, true, true, true, true],
            {
                let mut rng = pathmark_crypto::Prng::from_seed(8);
                (0..32).map(|_| rng.chance(0.5)).collect()
            },
        ];
        for bits in patterns {
            assert_eq!(round_trip(&bits, TracerKind::Simple), bits);
            assert_eq!(round_trip(&bits, TracerKind::Smart), bits);
        }
    }

    #[test]
    fn unmarked_image_has_no_branch_function() {
        let image = host_image();
        // Find some addresses to bracket: entry and entry+1 will never
        // both be instruction starts in the path; just use text range.
        let err = extract(
            &image,
            &[5],
            ExtractionSpec {
                begin: image.entry,
                end: image.entry + 7, // the mov after `in`
            },
            TracerKind::Smart,
            1_000_000,
        )
        .unwrap_err();
        assert!(matches!(err, WatermarkError::NoBranchFunction));
    }

    #[test]
    fn auto_framing_matches_manual_extraction() {
        let image = host_image();
        let bits = vec![true, false, false, true, true, false, true, false];
        let mark = embed_native(&image, &bits, &key(), &NativeConfig::default()).unwrap();
        let (auto_bits, spec) =
            extract_auto(&mark.image, &key().native_input(), 10_000_000).unwrap();
        assert_eq!(auto_bits, bits);
        assert_eq!(spec.begin, mark.begin, "discovered begin matches");
        assert_eq!(spec.end, mark.end, "discovered end matches");
    }

    #[test]
    fn decoy_jumps_hide_the_chain_without_breaking_extraction() {
        let image = host_image();
        let bits = vec![true, true, false, false, true, false];
        let config = NativeConfig {
            decoy_jumps: 4,
            ..NativeConfig::default()
        };
        let mark = embed_native(&image, &bits, &key(), &config).unwrap();
        assert!(mark.decoys >= 2, "decoys were installed: {}", mark.decoys);
        // Program behavior intact despite decoys on hot paths.
        let baseline = nativesim::cpu::Machine::load(&image)
            .with_input(vec![5])
            .run(10_000_000)
            .unwrap();
        let marked_run = nativesim::cpu::Machine::load(&mark.image)
            .with_input(vec![5])
            .run(100_000_000)
            .unwrap();
        assert_eq!(baseline.output, marked_run.output);
        // Manual extraction with the bracket is exact.
        let manual = extract(
            &mark.image,
            &key().native_input(),
            ExtractionSpec {
                begin: mark.begin,
                end: mark.end,
            },
            TracerKind::Smart,
            100_000_000,
        )
        .unwrap();
        assert_eq!(manual, bits);
        // Auto-framing skips the decoy hops and finds the long chain.
        let (auto_bits, spec) =
            extract_auto(&mark.image, &key().native_input(), 100_000_000).unwrap();
        assert_eq!(auto_bits, bits);
        assert_eq!(spec.begin, mark.begin);
    }

    #[test]
    fn auto_framing_finds_nothing_in_unmarked_binaries() {
        let image = host_image();
        let err = extract_auto(&image, &[5], 10_000_000).unwrap_err();
        assert!(matches!(err, WatermarkError::NoBranchFunction));
    }

    #[test]
    fn wrong_bracket_reports_end_not_reached() {
        let image = host_image();
        let err = extract(
            &image,
            &[5],
            ExtractionSpec {
                begin: image.entry,
                end: 0x0700_0000, // never executed
            },
            TracerKind::Smart,
            100_000,
        )
        .unwrap_err();
        assert!(matches!(err, WatermarkError::EndNotReached));
    }
}
