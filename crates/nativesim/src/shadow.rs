//! Shadow-stack mis-return detection over single-stepped execution.
//!
//! A branch function (Section 4.1) returns somewhere other than the
//! instruction after its call site. A tracer sees this by keeping its
//! own stack of the calls it has observed: each `call` pushes the
//! address it should return to, each `ret` pops one, and a `ret` that
//! lands elsewhere is a *mis-return* — one branch-function hop. The
//! watermark extractor and the attacker's hop discovery both walk this
//! stack as the steps land, so a trace keeps only its live frames.

use crate::cpu::Step;
use crate::insn::Insn;

/// One call the [`ShadowStack`] has seen and not yet seen return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Where the call should return: the address after the call.
    pub ret_addr: u32,
    /// Address of the call instruction.
    pub call_pc: u32,
    /// Where the call transferred control (the callee, or a thunk).
    pub target: u32,
}

/// The live calls of a single-stepped run, innermost last.
#[derive(Debug, Clone, Default)]
pub struct ShadowStack {
    frames: Vec<Frame>,
}

impl ShadowStack {
    /// Feeds one executed step. Returns the frame a `ret` popped and the
    /// address it landed on when that is not the frame's return address.
    /// A `ret` with no live frame is ignored.
    #[inline]
    pub fn observe(&mut self, step: &Step) -> Option<(Frame, u32)> {
        match step.insn {
            Insn::Call(_) | Insn::CallInd(_) => {
                self.frames.push(Frame {
                    ret_addr: step.pc.wrapping_add(step.insn.len() as u32),
                    call_pc: step.pc,
                    target: step.next_pc,
                });
                None
            }
            Insn::Ret => {
                let frame = self.frames.pop()?;
                (step.next_pc != frame.ret_addr).then_some((frame, step.next_pc))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ImageBuilder;
    use crate::cpu::Machine;
    use crate::reg::Reg;

    #[test]
    fn reports_only_returns_that_land_elsewhere() {
        // f returns normally; g adds 1 to its return address, skipping
        // the one-byte `nop` after its call site.
        let mut b = ImageBuilder::new();
        let a = b.text();
        let f = a.label();
        let g = a.label();
        let after_g = a.label();
        let landing = a.label();
        a.call(f);
        a.call(g);
        a.bind(after_g);
        a.nop();
        a.bind(landing);
        a.halt();
        a.bind(f);
        a.ret();
        a.bind(g);
        a.alu_label_diff(Reg::Esp, 0, landing, after_g);
        a.ret();
        let image = b.finish().unwrap();

        let mut shadow = ShadowStack::default();
        let mut seen = Vec::new();
        let mut machine = Machine::load(&image);
        machine
            .run_with(100, &mut |step: &Step| seen.extend(shadow.observe(step)))
            .unwrap();
        // call f (5 bytes), call g (5), nop, halt, f: ret, g: …
        let base = image.text_base;
        let frame = Frame {
            ret_addr: base + 10,
            call_pc: base + 5,
            target: base + 13,
        };
        assert_eq!(seen, vec![(frame, base + 11)]);
        assert!(shadow.frames.is_empty());
    }
}
