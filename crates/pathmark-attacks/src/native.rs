//! Binary-rewriting attacks on native executables (Section 5.2.2).
//!
//! The first three attacks model "a standard binary manipulation tool":
//! they lift the image with [`Unit::from_image`], transform, and
//! re-encode — fixing up all the *direct* control transfers they can
//! see, exactly as a real rewriter would, and necessarily leaving the
//! branch function's hashed absolute addresses stale. The last two
//! attacks are surgical, byte-level edits aimed specifically at the
//! branch function.

use nativesim::cpu::{Machine, Step};
use nativesim::encode::{decode, encode};
use nativesim::insn::Insn;
use nativesim::rewrite::{Item, Unit};
use nativesim::shadow::ShadowStack;
use nativesim::{Image, SimError};
use pathmark_crypto::Prng;

/// Attack 1: insert `count` no-ops at random instruction boundaries and
/// re-link. Every address after each no-op shifts.
///
/// # Errors
///
/// Propagates lift/encode failures from the rewriter.
pub fn insert_nops(image: &Image, count: usize, seed: u64) -> Result<Image, SimError> {
    let mut unit = Unit::from_image(image)?;
    let mut rng = Prng::from_seed(seed ^ 0x4E0F);
    for _ in 0..count {
        let at = rng.index(unit.items.len() + 1);
        unit.insert(at, Item::plain(Insn::Nop));
    }
    unit.encode()
}

/// Attack 2: invert the sense of every conditional branch, exchanging
/// taken/fall-through:
///
/// ```text
/// jcc T            j!cc F
/// F: …    ==>      jmp T
///                  F: …
/// ```
///
/// # Errors
///
/// Propagates lift/encode failures from the rewriter.
pub fn invert_branch_senses(image: &Image, seed: u64) -> Result<Image, SimError> {
    let mut unit = Unit::from_image(image)?;
    let mut rng = Prng::from_seed(seed ^ 0x1177);
    let mut k = 0;
    while k < unit.items.len() {
        if let Insn::Jcc(cc, _) = unit.items[k].insn {
            if rng.chance(0.99) {
                let taken = unit.items[k].target.expect("jcc has an index target");
                if taken != k + 1 {
                    // jmp to the original taken target, placed after the
                    // inverted jcc; the jcc now skips over it.
                    unit.insert(
                        k + 1,
                        Item {
                            insn: Insn::Jmp(0),
                            target: Some(if taken > k + 1 { taken + 1 } else { taken }),
                            imm_fix: nativesim::rewrite::ImmFix::None,
                        },
                    );
                    unit.items[k].insn = Insn::Jcc(cc.negate(), 0);
                    unit.items[k].target = Some(k + 2);
                    k += 1; // skip the inserted jmp
                }
            }
        }
        k += 1;
    }
    unit.encode()
}

/// Attack 3: double watermarking — run the embedder again over an
/// already-marked image with a fresh key, hoping to obscure the original
/// mark.
///
/// # Errors
///
/// Whatever the second embedding reports.
pub fn double_watermark(
    image: &Image,
    bits: &[bool],
    key: &pathmark_core::key::WatermarkKey,
    config: &pathmark_core::native::NativeConfig,
) -> Result<Image, pathmark_core::WatermarkError> {
    Ok(pathmark_core::native::embed_native(image, bits, key, config)?.image)
}

/// A branch-function call site an attacker discovered by tracing:
/// the call's address and the address the branch function actually
/// routed it to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedHop {
    /// Address of the `call` instruction.
    pub call_site: u32,
    /// Where control continued after the branch function returned.
    pub landing: u32,
}

/// Traces the program like an attacker would (shadow-stack mis-return
/// detection) and reports every observed branch-function hop, in order.
///
/// # Errors
///
/// Propagates simulator faults.
pub fn discover_hops(
    image: &Image,
    input: &[u32],
    budget: u64,
) -> Result<Vec<ObservedHop>, SimError> {
    let mut shadow = ShadowStack::default();
    let mut hops = Vec::new();
    Machine::load(image)
        .with_input(input.to_vec())
        .run_with(budget, &mut |step: &Step| {
            if let Some((frame, landing)) = shadow.observe(step) {
                hops.push(ObservedHop {
                    call_site: frame.call_pc,
                    landing,
                });
            }
        })?;
    Ok(hops)
}

/// Attack 4: bypass the branch function by overwriting each observed
/// `call f` with a direct `jmp landing` **of exactly the same size**, so
/// no address in the binary changes (Section 5.2.2, attack 4).
///
/// # Errors
///
/// [`SimError::BadOpcode`] if a hop's call site does not hold a direct
/// 5-byte call (the observation was bogus).
pub fn bypass_branch_function(image: &Image, hops: &[ObservedHop]) -> Result<Image, SimError> {
    let mut attacked = image.clone();
    for hop in hops {
        let off = (hop.call_site - image.text_base) as usize;
        let (insn, len) = decode(&attacked.text[off..], hop.call_site)?;
        if !matches!(insn, Insn::Call(_)) {
            return Err(SimError::BadOpcode {
                addr: hop.call_site,
                byte: attacked.text[off],
            });
        }
        debug_assert_eq!(len, 5);
        let disp = hop.landing.wrapping_sub(hop.call_site + 5) as i32;
        let mut patch = Vec::with_capacity(5);
        encode(&Insn::Jmp(disp), &mut patch);
        attacked.text[off..off + 5].copy_from_slice(&patch);
    }
    Ok(attacked)
}

/// Attack 5: reroute each branch-function call through a fresh thunk at
/// the end of the text section:
///
/// ```text
/// X: call f     ==>    X: call Y      …      Y: jmp f
/// ```
///
/// Call displacements are patched in place (same size) and thunks are
/// *appended*, so no existing address changes — the program keeps
/// working, but a tracer that attributes hops to the instruction jumping
/// into `f` now sees the thunks (Section 5.2.2, attack 5).
///
/// # Errors
///
/// [`SimError::BadOpcode`] if a call site does not hold a direct call;
/// [`SimError::BadImage`] if the text cannot grow.
pub fn reroute_calls(image: &Image, call_sites: &[u32]) -> Result<Image, SimError> {
    let mut attacked = image.clone();
    for &site in call_sites {
        let off = (site - image.text_base) as usize;
        let (insn, _) = decode(&attacked.text[off..], site)?;
        let Insn::Call(disp) = insn else {
            return Err(SimError::BadOpcode {
                addr: site,
                byte: attacked.text[off],
            });
        };
        let f = site.wrapping_add(5).wrapping_add(disp as u32);
        // Thunk at the current end of text: jmp f.
        let thunk_addr = attacked.text_base + attacked.text.len() as u32;
        let jmp_disp = f.wrapping_sub(thunk_addr + 5) as i32;
        encode(&Insn::Jmp(jmp_disp), &mut attacked.text);
        // Patch the call to target the thunk.
        let new_disp = thunk_addr.wrapping_sub(site + 5) as i32;
        let mut patch = Vec::with_capacity(5);
        encode(&Insn::Call(new_disp), &mut patch);
        attacked.text[off..off + 5].copy_from_slice(&patch);
    }
    attacked.validate()?;
    Ok(attacked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nativesim::asm::ImageBuilder;
    use nativesim::reg::{AluOp, Cc, Operand, Reg};

    /// A plain (unmarked) program: sums 1..=n from input.
    fn plain_image() -> Image {
        let mut b = ImageBuilder::new();
        let a = b.text();
        let top = a.label();
        let done = a.label();
        a.in_(Reg::Eax);
        a.mov_ri(Reg::Edx, 0);
        a.bind(top);
        a.cmp(Operand::Reg(Reg::Eax), Operand::Imm(0));
        a.jcc(Cc::Le, done);
        a.alu_rr(AluOp::Add, Reg::Edx, Reg::Eax);
        a.alu_ri(AluOp::Sub, Reg::Eax, 1);
        a.jmp(top);
        a.bind(done);
        a.out(Operand::Reg(Reg::Edx));
        a.halt();
        b.finish().unwrap()
    }

    fn run(image: &Image, input: Vec<u32>) -> Vec<u32> {
        Machine::load(image)
            .with_input(input)
            .run(1_000_000)
            .expect("program runs")
            .output
    }

    #[test]
    fn nop_insertion_preserves_plain_programs() {
        let image = plain_image();
        let attacked = insert_nops(&image, 50, 7).unwrap();
        assert!(attacked.text.len() > image.text.len());
        assert_eq!(run(&attacked, vec![10]), run(&image, vec![10]));
    }

    #[test]
    fn sense_inversion_preserves_plain_programs() {
        let image = plain_image();
        let attacked = invert_branch_senses(&image, 3).unwrap();
        assert_ne!(attacked.text, image.text);
        for n in [0u32, 1, 9] {
            assert_eq!(run(&attacked, vec![n]), run(&image, vec![n]));
        }
    }

    #[test]
    fn discover_hops_sees_nothing_in_plain_programs() {
        let image = plain_image();
        let hops = discover_hops(&image, &[5], 100_000).unwrap();
        assert!(hops.is_empty());
    }

    #[test]
    fn bypass_rejects_non_call_sites() {
        let image = plain_image();
        let bogus = [ObservedHop {
            call_site: image.text_base,
            landing: image.text_base + 10,
        }];
        assert!(bypass_branch_function(&image, &bogus).is_err());
    }
}
