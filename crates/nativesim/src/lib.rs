//! An IA-32-like native-code simulator.
//!
//! The native realization of path-based watermarking (Collberg et al.,
//! PLDI 2004, Section 4) was built on real Intel IA-32 executables and the
//! PLTO link-time rewriter. Neither is available here, so this crate
//! models the exact machine properties the branch-function scheme
//! depends on:
//!
//! * **byte-addressed code with variable-length instruction encoding**
//!   ([`encode`]) — inserting a single no-op shifts every later address,
//!   which is what the tamper-proofing of Section 4.3 punishes;
//! * a **return address on the stack** that called code can read *and
//!   modify* — the essence of a branch function ([`cpu`]);
//! * **indirect jumps through data memory** — the lock-down cells that
//!   make the branch function's side effects essential;
//! * a **single-steppable CPU** ([`cpu::Machine::step`]) — the hardware
//!   single-stepping tracer of Section 4.2.3 — with one stepping loop
//!   ([`cpu::Machine::run_with`]) and the shadow stack that finds
//!   branch-function hops ([`shadow`]);
//! * a **link-time-style rewriter** ([`rewrite`]) that disassembles the
//!   text section, transforms it, reassigns addresses, and fixes up the
//!   direct control transfers it can see — but, like any real rewriter,
//!   cannot fix hashed absolute addresses hidden in data tables.
//!
//! The instruction set is a compact subset of IA-32 (moves, ALU ops with
//! flags, `cmp`/`test`, conditional jumps, `call`/`ret`, `push`/`pop`,
//! indirect jumps, `pushf`/`popf`) plus `in`/`out` instructions standing
//! in for system-call I/O. Encodings are 1–11 bytes; direct `call` and
//! `jmp` are exactly 5 bytes, so the paper's "overwrite a call with a
//! same-size jump" subtractive attack is expressible byte-for-byte.
//!
//! # Example
//!
//! ```
//! use nativesim::asm::ImageBuilder;
//! use nativesim::cpu::Machine;
//! use nativesim::reg::{Operand, Reg};
//!
//! let mut b = ImageBuilder::new();
//! let asm = b.text();
//! asm.mov_ri(Reg::Eax, 6);
//! asm.alu_ri(nativesim::reg::AluOp::Imul, Reg::Eax, 7);
//! asm.out(Operand::Reg(Reg::Eax));
//! asm.halt();
//! let image = b.finish()?;
//!
//! let mut machine = Machine::load(&image);
//! let outcome = machine.run(1_000)?;
//! assert_eq!(outcome.output, vec![42]);
//! # Ok::<(), nativesim::SimError>(())
//! ```

pub mod asm;
pub mod cfg;
pub mod cpu;
pub mod encode;
pub mod image;
pub mod insn;
pub mod pretty;
pub mod reg;
pub mod rewrite;
pub mod shadow;

mod error;

pub use error::SimError;
pub use image::Image;
