//! The CPU: registers, flags, segmented memory, and single-step
//! execution.
//!
//! [`Machine::step`] executes exactly one instruction and reports what
//! happened — this is the "hardware single-stepping" interface the
//! watermark extraction tracer of Section 4.2.3 is built on.
//! [`Machine::run_with`] is the one loop that single-steps a whole run:
//! profiling, extraction and hop discovery pass it an [`Observer`] that
//! sees every step, and callers that only want program behavior use
//! [`Machine::run`].

use crate::encode::decode;
use crate::image::{Image, STACK_SIZE, STACK_TOP};
use crate::insn::Insn;
use crate::reg::{AluOp, Cc, Mem, Operand, Reg};
use crate::SimError;

/// Arithmetic flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag (unsigned borrow/carry).
    pub cf: bool,
    /// Overflow flag (signed overflow).
    pub of: bool,
}

impl Flags {
    /// Packs the flags into a word for `pushf`.
    pub fn to_word(self) -> u32 {
        u32::from(self.zf)
            | u32::from(self.sf) << 1
            | u32::from(self.cf) << 2
            | u32::from(self.of) << 3
    }

    /// Unpacks a `popf` word.
    pub fn from_word(w: u32) -> Flags {
        Flags {
            zf: w & 1 != 0,
            sf: w & 2 != 0,
            cf: w & 4 != 0,
            of: w & 8 != 0,
        }
    }

    /// Evaluates a condition code against the flags.
    #[inline]
    pub fn cond(self, cc: Cc) -> bool {
        match cc {
            Cc::E => self.zf,
            Cc::Ne => !self.zf,
            Cc::L => self.sf != self.of,
            Cc::Le => self.zf || self.sf != self.of,
            Cc::G => !self.zf && self.sf == self.of,
            Cc::Ge => self.sf == self.of,
            Cc::B => self.cf,
            Cc::Ae => !self.cf,
        }
    }
}

enum Seg {
    Text,
    Data,
    Stack,
}

/// Segmented memory: read-only text, writable data, writable stack.
#[derive(Debug, Clone)]
pub struct Memory {
    text_base: u32,
    text: Vec<u8>,
    data_base: u32,
    data: Vec<u8>,
    stack: Vec<u8>,
}

impl Memory {
    /// Builds memory from an image, with a zeroed stack segment.
    pub fn from_image(image: &Image) -> Memory {
        Memory {
            text_base: image.text_base,
            text: image.text.clone(),
            data_base: image.data_base,
            data: image.data.clone(),
            stack: vec![0u8; STACK_SIZE as usize],
        }
    }

    /// Offset of `addr` inside the text section, if it maps there (the
    /// decode memo of [`Machine::step`] is indexed by this).
    #[inline]
    fn text_offset(&self, addr: u32) -> Option<usize> {
        if addr >= self.text_base {
            let off = (addr - self.text_base) as usize;
            if off < self.text.len() {
                return Some(off);
            }
        }
        None
    }

    #[inline]
    fn locate(&self, addr: u32) -> Result<(Seg, usize), SimError> {
        if addr >= self.text_base {
            let off = (addr - self.text_base) as usize;
            if off < self.text.len() {
                return Ok((Seg::Text, off));
            }
        }
        if addr >= self.data_base {
            let off = (addr - self.data_base) as usize;
            if off < self.data.len() {
                return Ok((Seg::Data, off));
            }
        }
        let stack_lo = STACK_TOP - STACK_SIZE;
        if addr >= stack_lo && addr < STACK_TOP {
            return Ok((Seg::Stack, (addr - stack_lo) as usize));
        }
        Err(SimError::MemFault { addr })
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SimError::MemFault`] on unmapped addresses.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Result<u8, SimError> {
        let (seg, off) = self.locate(addr)?;
        Ok(match seg {
            Seg::Text => self.text[off],
            Seg::Data => self.data[off],
            Seg::Stack => self.stack[off],
        })
    }

    /// Reads a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// [`SimError::MemFault`] on unmapped addresses.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, SimError> {
        // Fast path: the whole word lives in one segment (the
        // overwhelmingly common case for stack and data traffic), so one
        // locate and one 4-byte slice read replace four byte reads.
        let (seg, off) = self.locate(addr)?;
        let seg_bytes = match seg {
            Seg::Text => &self.text,
            Seg::Data => &self.data,
            Seg::Stack => &self.stack,
        };
        if let Some(word) = seg_bytes.get(off..off + 4) {
            return Ok(u32::from_le_bytes(word.try_into().expect("4-byte slice")));
        }
        // Segment boundary: fall back to byte-at-a-time, which preserves
        // the semantics of words straddling adjacently-mapped segments
        // (and of partial faults).
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32))?;
        }
        Ok(u32::from_le_bytes(bytes))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`SimError::TextWrite`] for text addresses (the text section is
    /// read-only at runtime); [`SimError::MemFault`] when unmapped.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), SimError> {
        let (seg, off) = self.locate(addr)?;
        match seg {
            Seg::Text => return Err(SimError::TextWrite { addr }),
            Seg::Data => self.data[off] = value,
            Seg::Stack => self.stack[off] = value,
        }
        Ok(())
    }

    /// Writes a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// As for [`Memory::write_u8`].
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        // Fast path mirror of `read_u32`: one locate, one 4-byte copy.
        let (seg, off) = self.locate(addr)?;
        let seg_bytes = match seg {
            Seg::Text => return Err(SimError::TextWrite { addr }),
            Seg::Data => &mut self.data,
            Seg::Stack => &mut self.stack,
        };
        if let Some(word) = seg_bytes.get_mut(off..off + 4) {
            word.copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        // Segment boundary: byte-at-a-time keeps the partial-write
        // semantics (bytes before the faulting one land).
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b)?;
        }
        Ok(())
    }

    /// Borrows up to `max` contiguous bytes starting at `addr`, for
    /// instruction fetch.
    ///
    /// # Errors
    ///
    /// [`SimError::MemFault`] when `addr` is unmapped.
    #[inline]
    pub fn fetch_slice(&self, addr: u32, max: usize) -> Result<&[u8], SimError> {
        let (seg, off) = self.locate(addr)?;
        let seg_bytes = match seg {
            Seg::Text => &self.text,
            Seg::Data => &self.data,
            Seg::Stack => &self.stack,
        };
        let end = (off + max).min(seg_bytes.len());
        Ok(&seg_bytes[off..end])
    }
}

/// What one [`Machine::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Address of the executed instruction.
    pub pc: u32,
    /// The executed instruction.
    pub insn: Insn,
    /// Address of the next instruction to execute.
    pub next_pc: u32,
    /// Whether the instruction was `halt`.
    pub halted: bool,
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Values written by `out`, in order — the observable output.
    pub output: Vec<u32>,
    /// Number of instructions executed — the deterministic cost metric
    /// for the slowdown experiments (Figure 9(b)).
    pub instructions: u64,
}

/// Watches the steps of [`Machine::run_with`].
///
/// Any `FnMut(&Step)` closure is an observer that sees every step and
/// never stops the run.
pub trait Observer {
    /// Called before each instruction executes, with `eip` the address
    /// about to run; returning `false` stops the run there.
    #[inline]
    fn before(&mut self, eip: u32) -> bool {
        let _ = eip;
        true
    }

    /// Called after each instruction executes, `halt` included.
    fn after(&mut self, step: &Step);
}

impl<F: FnMut(&Step)> Observer for F {
    #[inline]
    fn after(&mut self, step: &Step) {
        self(step)
    }
}

/// A CPU wired to a memory: the unit of execution.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Machine {
    /// General-purpose registers, indexed by [`Reg`] encoding.
    pub regs: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// Arithmetic flags.
    pub flags: Flags,
    /// The memory.
    pub mem: Memory,
    /// Remaining input values for `in`.
    pub input: Vec<u32>,
    input_pos: usize,
    /// Accumulated `out` values.
    pub output: Vec<u32>,
    /// Decode memo over the text section, one slot per text byte: 0
    /// until the instruction at that offset first decodes, then one
    /// more than its index in `decoded`. Each pc decodes at most once
    /// per load. Sound because the text section is read-only at runtime
    /// ([`SimError::TextWrite`]), so a memoized decode can never go
    /// stale. Decode *errors* are not memoized — they propagate, and a
    /// faulted machine is dead anyway.
    slots: Vec<u32>,
    /// The instructions decoded so far, with their lengths.
    decoded: Vec<(Insn, u8)>,
}

impl Machine {
    /// Loads an image: memory initialized, `esp` at the stack top, `eip`
    /// at the entry point.
    pub fn load(image: &Image) -> Machine {
        let mut m = Machine {
            regs: [0; 8],
            eip: image.entry,
            flags: Flags::default(),
            mem: Memory::from_image(image),
            input: Vec::new(),
            input_pos: 0,
            output: Vec::new(),
            slots: vec![0; image.text.len()],
            decoded: Vec::new(),
        };
        m.regs[Reg::Esp as usize] = STACK_TOP - 16;
        m
    }

    /// Sets the input sequence consumed by `in` (the secret watermark
    /// input for native programs).
    pub fn with_input(mut self, input: Vec<u32>) -> Machine {
        self.input = input;
        self
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r as usize]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.regs[r as usize] = v;
    }

    /// Effective address of a memory operand.
    #[inline]
    pub fn effective_addr(&self, m: &Mem) -> u32 {
        let mut addr = m.disp as u32;
        if let Some(b) = m.base {
            addr = addr.wrapping_add(self.reg(b));
        }
        if let Some((i, scale)) = m.index {
            addr = addr.wrapping_add(self.reg(i).wrapping_mul(scale as u32));
        }
        addr
    }

    #[inline]
    fn read_operand(&self, op: &Operand) -> Result<u32, SimError> {
        match op {
            Operand::Reg(r) => Ok(self.reg(*r)),
            Operand::Imm(v) => Ok(*v as u32),
            Operand::Mem(m) => self.mem.read_u32(self.effective_addr(m)),
        }
    }

    #[inline]
    fn write_operand(&mut self, op: &Operand, value: u32, pc: u32) -> Result<(), SimError> {
        match op {
            Operand::Reg(r) => {
                self.set_reg(*r, value);
                Ok(())
            }
            Operand::Mem(m) => self.mem.write_u32(self.effective_addr(m), value),
            Operand::Imm(_) => Err(SimError::BadDestination { addr: pc }),
        }
    }

    #[inline]
    fn push(&mut self, value: u32) -> Result<(), SimError> {
        let esp = self.reg(Reg::Esp).wrapping_sub(4);
        self.mem.write_u32(esp, value)?;
        self.set_reg(Reg::Esp, esp);
        Ok(())
    }

    #[inline]
    fn pop(&mut self) -> Result<u32, SimError> {
        let esp = self.reg(Reg::Esp);
        let v = self.mem.read_u32(esp)?;
        self.set_reg(Reg::Esp, esp.wrapping_add(4));
        Ok(v)
    }

    #[inline]
    fn set_zf_sf(&mut self, r: u32) {
        self.flags.zf = r == 0;
        self.flags.sf = (r as i32) < 0;
    }

    #[inline]
    fn sub_flags(&mut self, a: u32, b: u32) -> u32 {
        let r = a.wrapping_sub(b);
        self.set_zf_sf(r);
        self.flags.cf = a < b;
        self.flags.of = ((a ^ b) & (a ^ r)) & 0x8000_0000 != 0;
        r
    }

    /// Executes exactly one instruction.
    ///
    /// # Errors
    ///
    /// Decode and memory faults propagate; a faulted machine should be
    /// considered dead (the resilience experiments treat any fault as
    /// "the program broke").
    pub fn step(&mut self) -> Result<Step, SimError> {
        self.exec()
    }

    /// [`Machine::step`], inlined into every [`Machine::run_with`] loop,
    /// including those instantiated in other crates.
    #[inline(always)]
    fn exec(&mut self) -> Result<Step, SimError> {
        let pc = self.eip;
        let (insn, len) = self.fetch_decode(pc)?;
        let fall = pc.wrapping_add(len as u32);
        let mut next = fall;
        let mut halted = false;
        match &insn {
            Insn::Nop => {}
            Insn::Halt => {
                halted = true;
                next = pc;
            }
            Insn::Mov(d, s) => {
                let v = self.read_operand(s)?;
                self.write_operand(d, v, pc)?;
            }
            Insn::Lea(r, m) => {
                let addr = self.effective_addr(m);
                self.set_reg(*r, addr);
            }
            Insn::Alu(op, d, s) => {
                let a = self.read_operand(d)?;
                let b = self.read_operand(s)?;
                let r = match op {
                    AluOp::Add => {
                        let (r, carry) = a.overflowing_add(b);
                        self.flags.cf = carry;
                        self.flags.of = ((a ^ r) & (b ^ r)) & 0x8000_0000 != 0;
                        self.set_zf_sf(r);
                        r
                    }
                    AluOp::Sub => self.sub_flags(a, b),
                    AluOp::And => {
                        let r = a & b;
                        self.flags.cf = false;
                        self.flags.of = false;
                        self.set_zf_sf(r);
                        r
                    }
                    AluOp::Or => {
                        let r = a | b;
                        self.flags.cf = false;
                        self.flags.of = false;
                        self.set_zf_sf(r);
                        r
                    }
                    AluOp::Xor => {
                        let r = a ^ b;
                        self.flags.cf = false;
                        self.flags.of = false;
                        self.set_zf_sf(r);
                        r
                    }
                    AluOp::Shl => {
                        let r = a.wrapping_shl(b & 31);
                        self.flags.cf = false;
                        self.flags.of = false;
                        self.set_zf_sf(r);
                        r
                    }
                    AluOp::Shr => {
                        let r = a.wrapping_shr(b & 31);
                        self.flags.cf = false;
                        self.flags.of = false;
                        self.set_zf_sf(r);
                        r
                    }
                    AluOp::Sar => {
                        let r = ((a as i32).wrapping_shr(b & 31)) as u32;
                        self.flags.cf = false;
                        self.flags.of = false;
                        self.set_zf_sf(r);
                        r
                    }
                    AluOp::Imul => {
                        let wide = (a as i32 as i64).wrapping_mul(b as i32 as i64);
                        let r = wide as u32;
                        let overflow = wide != (r as i32 as i64);
                        self.flags.cf = overflow;
                        self.flags.of = overflow;
                        self.set_zf_sf(r);
                        r
                    }
                };
                self.write_operand(d, r, pc)?;
            }
            Insn::Cmp(a, b) => {
                let av = self.read_operand(a)?;
                let bv = self.read_operand(b)?;
                self.sub_flags(av, bv);
            }
            Insn::Test(a, b) => {
                let r = self.read_operand(a)? & self.read_operand(b)?;
                self.flags.cf = false;
                self.flags.of = false;
                self.set_zf_sf(r);
            }
            Insn::Jmp(d) => next = fall.wrapping_add(*d as u32),
            Insn::Jcc(cc, d) => {
                if self.flags.cond(*cc) {
                    next = fall.wrapping_add(*d as u32);
                }
            }
            Insn::Call(d) => {
                self.push(fall)?;
                next = fall.wrapping_add(*d as u32);
            }
            Insn::JmpInd(op) => next = self.read_operand(op)?,
            Insn::CallInd(op) => {
                let target = self.read_operand(op)?;
                self.push(fall)?;
                next = target;
            }
            Insn::Ret => next = self.pop()?,
            Insn::Push(op) => {
                let v = self.read_operand(op)?;
                self.push(v)?;
            }
            Insn::Pop(r) => {
                let v = self.pop()?;
                self.set_reg(*r, v);
            }
            Insn::Pushf => {
                let w = self.flags.to_word();
                self.push(w)?;
            }
            Insn::Popf => {
                let w = self.pop()?;
                self.flags = Flags::from_word(w);
            }
            Insn::Out(op) => {
                let v = self.read_operand(op)?;
                self.output.push(v);
            }
            Insn::In(r) => {
                let v = self.input.get(self.input_pos).copied().unwrap_or(0);
                self.input_pos += 1;
                self.set_reg(*r, v);
            }
        }
        self.eip = next;
        Ok(Step {
            pc,
            insn,
            next_pc: next,
            halted,
        })
    }

    /// Fetches and decodes the instruction at `pc`, consulting the text
    /// decode memo first: on the stepping hot path each text pc reaches
    /// [`decode`] exactly once per [`Machine::load`].
    #[inline]
    fn fetch_decode(&mut self, pc: u32) -> Result<(Insn, usize), SimError> {
        if let Some(off) = self.mem.text_offset(pc) {
            if let Some(index) = self.slots[off].checked_sub(1) {
                let (insn, len) = self.decoded[index as usize];
                return Ok((insn, len as usize));
            }
        }
        self.decode_slow(pc)
    }

    /// The first fetch of a text pc, which fills its memo slot, and any
    /// pc outside text (executing from data or the stack is legal
    /// here), which decodes live every time.
    #[cold]
    #[inline(never)]
    fn decode_slow(&mut self, pc: u32) -> Result<(Insn, usize), SimError> {
        let (insn, len) = decode(self.mem.fetch_slice(pc, 16)?, pc)?;
        if let Some(off) = self.mem.text_offset(pc) {
            self.decoded.push((insn, len as u8));
            // Each text offset decodes at most once, and offsets are u32.
            self.slots[off] = u32::try_from(self.decoded.len()).expect("one entry per text offset");
        }
        Ok((insn, len))
    }

    /// Single-steps until `halt`, until `observer` stops the run, or
    /// until `budget` instructions have executed — the one stepping loop
    /// behind every run, profile and tracer. The observer sees each step
    /// before and after it executes. Returns the number of steps when a
    /// `halt` (counted) ended the run, `None` otherwise.
    ///
    /// # Errors
    ///
    /// Any fault from [`Machine::step`]; the steps before it have been
    /// observed.
    #[inline]
    pub fn run_with<O: Observer>(
        &mut self,
        budget: u64,
        observer: &mut O,
    ) -> Result<Option<u64>, SimError> {
        let mut executed = 0u64;
        while executed < budget && observer.before(self.eip) {
            let step = self.exec()?;
            executed += 1;
            observer.after(&step);
            if step.halted {
                return Ok(Some(executed));
            }
        }
        Ok(None)
    }

    /// Runs until `halt` or the instruction budget is exhausted.
    ///
    /// # Errors
    ///
    /// Any fault from [`Machine::step`], or
    /// [`SimError::BudgetExhausted`].
    pub fn run(&mut self, budget: u64) -> Result<Outcome, SimError> {
        match self.run_with(budget, &mut |_: &Step| {})? {
            Some(instructions) => Ok(Outcome {
                output: std::mem::take(&mut self.output),
                instructions,
            }),
            None => Err(SimError::BudgetExhausted { budget }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ImageBuilder;
    use crate::reg::Operand::{Imm, Reg as R};

    fn run_image(image: &Image, input: Vec<u32>) -> Outcome {
        Machine::load(image)
            .with_input(input)
            .run(100_000)
            .expect("program runs")
    }

    #[test]
    fn mov_alu_out() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        a.mov_ri(Reg::Eax, 10);
        a.mov_ri(Reg::Ebx, 32);
        a.alu_rr(AluOp::Add, Reg::Eax, Reg::Ebx);
        a.out(R(Reg::Eax));
        a.halt();
        let img = b.finish().unwrap();
        assert_eq!(run_image(&img, vec![]).output, vec![42]);
    }

    #[test]
    fn flags_and_conditional_jumps() {
        // Count down from 3, emitting each value.
        let mut b = ImageBuilder::new();
        let a = b.text();
        let top = a.label();
        a.mov_ri(Reg::Ecx, 3);
        a.bind(top);
        a.out(R(Reg::Ecx));
        a.alu_ri(AluOp::Sub, Reg::Ecx, 1);
        a.cmp(R(Reg::Ecx), Imm(0));
        a.jcc(Cc::G, top);
        a.halt();
        let img = b.finish().unwrap();
        assert_eq!(run_image(&img, vec![]).output, vec![3, 2, 1]);
    }

    #[test]
    fn signed_vs_unsigned_comparisons() {
        // -1 < 1 signed, but 0xFFFFFFFF > 1 unsigned.
        let mut b = ImageBuilder::new();
        let a = b.text();
        let signed_lt = a.label();
        let after = a.label();
        a.mov_ri(Reg::Eax, -1);
        a.cmp(R(Reg::Eax), Imm(1));
        a.jcc(Cc::L, signed_lt);
        a.out(Imm(0));
        a.jmp(after);
        a.bind(signed_lt);
        a.out(Imm(1));
        a.bind(after);
        a.cmp(R(Reg::Eax), Imm(1));
        // unsigned: 0xFFFFFFFF is above 1, so B (below) must NOT be taken
        let below = a.label();
        let done = a.label();
        a.jcc(Cc::B, below);
        a.out(Imm(2));
        a.jmp(done);
        a.bind(below);
        a.out(Imm(3));
        a.bind(done);
        a.halt();
        let img = b.finish().unwrap();
        assert_eq!(run_image(&img, vec![]).output, vec![1, 2]);
    }

    #[test]
    fn call_ret_and_stack() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        let func = a.label();
        a.call(func);
        a.out(Imm(2));
        a.halt();
        a.bind(func);
        a.out(Imm(1));
        a.ret();
        let img = b.finish().unwrap();
        assert_eq!(run_image(&img, vec![]).output, vec![1, 2]);
    }

    #[test]
    fn return_address_is_modifiable_on_stack() {
        // The branch-function primitive: the callee adds a displacement
        // to its own return address.
        let mut b = ImageBuilder::new();
        let a = b.text();
        let f = a.label();
        let skipped = a.label();
        let target = a.label();
        a.call(f);
        a.bind(skipped);
        a.out(Imm(99)); // must be skipped
        a.bind(target);
        a.out(Imm(7));
        a.halt();
        // f: add (target - skipped) to the return address, then ret.
        a.bind(f);
        a.alu_label_diff(Reg::Esp, 0, target, skipped);
        a.ret();
        let img = b.finish().unwrap();
        assert_eq!(run_image(&img, vec![]).output, vec![7]);
    }

    #[test]
    fn indirect_jump_through_data_cell() {
        let mut b = ImageBuilder::new();
        let cell = b.data_u32(0); // patched below via mov
        let a = b.text();
        let dest = a.label();
        a.lea_label(Reg::Eax, dest);
        a.mov_mr(Mem::abs(cell), Reg::Eax);
        a.jmp_ind(Operand::Mem(Mem::abs(cell)));
        a.out(Imm(0)); // skipped
        a.bind(dest);
        a.out(Imm(5));
        a.halt();
        let img = b.finish().unwrap();
        assert_eq!(run_image(&img, vec![]).output, vec![5]);
    }

    #[test]
    fn input_consumed_then_zero() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        a.in_(Reg::Eax);
        a.out(R(Reg::Eax));
        a.in_(Reg::Eax);
        a.out(R(Reg::Eax));
        a.halt();
        let img = b.finish().unwrap();
        assert_eq!(run_image(&img, vec![11]).output, vec![11, 0]);
    }

    #[test]
    fn text_write_faults() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        a.mov_mi(Mem::abs(crate::image::TEXT_BASE), 0);
        a.halt();
        let img = b.finish().unwrap();
        let err = Machine::load(&img).run(1000).unwrap_err();
        assert!(matches!(err, SimError::TextWrite { .. }));
    }

    #[test]
    fn unmapped_access_faults() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        a.mov_rm(Reg::Eax, Mem::abs(0x10));
        a.halt();
        let img = b.finish().unwrap();
        let err = Machine::load(&img).run(1000).unwrap_err();
        assert_eq!(err, SimError::MemFault { addr: 0x10 });
    }

    #[test]
    fn budget_exhaustion() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        let top = a.label();
        a.bind(top);
        a.jmp(top);
        let img = b.finish().unwrap();
        let err = Machine::load(&img).run(100).unwrap_err();
        assert_eq!(err, SimError::BudgetExhausted { budget: 100 });
    }

    #[test]
    fn pushf_popf_round_trip() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        let t = a.label();
        a.cmp(Imm(1), Imm(1)); // zf set
        a.pushf();
        a.cmp(Imm(1), Imm(2)); // zf cleared
        a.popf(); // zf restored
        a.jcc(Cc::E, t);
        a.out(Imm(0));
        a.halt();
        a.bind(t);
        a.out(Imm(1));
        a.halt();
        let img = b.finish().unwrap();
        assert_eq!(run_image(&img, vec![]).output, vec![1]);
    }

    #[test]
    fn word_access_at_segment_boundary_matches_byte_semantics() {
        let mut b = ImageBuilder::new();
        let c0 = b.data_u32(0x0403_0201);
        let c1 = b.data_u32(0x0807_0605);
        let a = b.text();
        a.halt();
        let img = b.finish().unwrap();
        let mut m = Machine::load(&img);

        // Aligned and misaligned in-segment reads take the fast path.
        assert_eq!(m.mem.read_u32(c0).unwrap(), 0x0403_0201);
        assert_eq!(m.mem.read_u32(c0 + 2).unwrap(), 0x0605_0403);

        // A word straddling the end of data falls back to byte-at-a-time
        // and faults on the first unmapped byte, as before.
        assert_eq!(
            m.mem.read_u32(c1 + 2).unwrap_err(),
            SimError::MemFault { addr: c1 + 4 }
        );
        assert_eq!(
            m.mem.write_u32(c1 + 2, 0x0403_0201).unwrap_err(),
            SimError::MemFault { addr: c1 + 4 }
        );
        // ... with the in-bounds prefix of the write landed (the
        // byte-loop partial-write semantics).
        assert_eq!(m.mem.read_u8(c1 + 2).unwrap(), 0x01);
        assert_eq!(m.mem.read_u8(c1 + 3).unwrap(), 0x02);

        // In-segment word write round-trips through the fast path.
        m.mem.write_u32(c0, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.mem.read_u32(c0).unwrap(), 0xDEAD_BEEF);

        // Text stays write-protected on the word fast path.
        assert!(matches!(
            m.mem.write_u32(img.text_base, 0),
            Err(SimError::TextWrite { .. })
        ));
    }

    #[test]
    fn executes_from_writable_memory_via_live_decode() {
        // `halt` encodes as a single 0x01 byte; plant it in the data
        // segment and jump there. Non-text pcs bypass the predecode
        // cache (which only spans the text section) and decode live.
        let mut b = ImageBuilder::new();
        let cell = b.data_u32(u32::from(crate::insn::opcode::HALT));
        let a = b.text();
        a.out(Imm(1));
        a.jmp_ind(Operand::Imm(cell as i32));
        let img = b.finish().unwrap();
        let out = run_image(&img, vec![]);
        assert_eq!(out.output, vec![1]);
        assert_eq!(out.instructions, 3, "out, jmp, then the planted halt");
    }

    #[test]
    fn imul_and_shifts() {
        let mut b = ImageBuilder::new();
        let a = b.text();
        a.mov_ri(Reg::Eax, 0x1a);
        a.alu_ri(AluOp::Shl, Reg::Eax, 12);
        a.alu_ri(AluOp::Shr, Reg::Eax, 21);
        a.out(R(Reg::Eax));
        a.mov_ri(Reg::Ebx, -3);
        a.alu_ri(AluOp::Imul, Reg::Ebx, 14);
        a.out(R(Reg::Ebx));
        a.mov_ri(Reg::Ecx, -16);
        a.alu_ri(AluOp::Sar, Reg::Ecx, 2);
        a.out(R(Reg::Ecx));
        a.halt();
        let img = b.finish().unwrap();
        let out = run_image(&img, vec![]);
        assert_eq!(out.output, vec![(0x1au32 << 12) >> 21, (-42i32) as u32, (-4i32) as u32]);
    }
}
