//! Execution profiles of native images.
//!
//! The embedder needs to know, per instruction address: how often it
//! executes and *when it first executes* — the anchor edge must run on
//! the secret input, insertion prefers cold code, and tamper-proofed
//! indirect jumps must first execute only after the branch-function
//! chain has initialized their target cells (the paper's "begin
//! dominates ℓ" condition, which we check dynamically against every
//! input of interest, just as PLTO validated against the SPEC training
//! inputs).

use std::collections::HashMap;

use nativesim::cpu::{Machine, Step};
use nativesim::{Image, SimError};

use crate::hash::FxBuildHasher;
use crate::WatermarkError;

/// A per-address execution profile of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per executed address: how many times it executed, and the step
    /// index at which it first executed. Keys are the owner's own
    /// program addresses, so the fast hasher is safe here.
    executed: HashMap<u32, (u64, u64), FxBuildHasher>,
    /// Total instructions executed.
    pub total: u64,
}

impl Profile {
    /// Execution count of an address (0 if never executed).
    pub fn count(&self, addr: u32) -> u64 {
        self.executed.get(&addr).map_or(0, |&(count, _)| count)
    }

    /// First execution step of an address, if it ever executed.
    pub fn first(&self, addr: u32) -> Option<u64> {
        self.executed.get(&addr).map(|&(_, first)| first)
    }
}

/// Single-steps `image` on `input`, recording the profile.
///
/// # Errors
///
/// [`WatermarkError::Sim`] if the program faults or exhausts `budget`.
pub fn profile_image(
    image: &Image,
    input: &[u32],
    budget: u64,
) -> Result<Profile, WatermarkError> {
    let mut machine = Machine::load(image).with_input(input.to_vec());
    let mut profile = Profile::default();
    let halted = machine.run_with(budget, &mut |step: &Step| {
        profile
            .executed
            .entry(step.pc)
            .or_insert((0, profile.total))
            .0 += 1;
        profile.total += 1;
    })?;
    match halted {
        Some(_) => Ok(profile),
        None => Err(WatermarkError::Sim(SimError::BudgetExhausted { budget })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nativesim::asm::ImageBuilder;
    use nativesim::reg::{AluOp, Cc, Operand, Reg};

    #[test]
    fn counts_and_first_steps() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        let top = a.label();
        a.mov_ri(Reg::Ecx, 4); // step 0
        a.bind(top);
        a.alu_ri(AluOp::Sub, Reg::Ecx, 1); // 4 times
        a.cmp(Operand::Reg(Reg::Ecx), Operand::Imm(0));
        a.jcc(Cc::G, top);
        a.halt();
        let img = b.finish().unwrap();
        let p = profile_image(&img, &[], 1000).unwrap();
        let base = img.text_base;
        assert_eq!(p.count(base), 1);
        assert_eq!(p.first(base), Some(0));
        // The loop body address (after the 8-byte mov) ran 4 times.
        assert_eq!(p.count(base + 8), 4);
        assert_eq!(p.first(base + 8), Some(1));
        assert_eq!(p.count(0xDEAD), 0);
        assert_eq!(p.first(0xDEAD), None);
        assert_eq!(p.total, 1 + 4 * 3 + 1);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        let top = a.label();
        a.bind(top);
        a.jmp(top);
        let img = b.finish().unwrap();
        assert!(matches!(
            profile_image(&img, &[], 50),
            Err(WatermarkError::Sim(_))
        ));
    }
}
