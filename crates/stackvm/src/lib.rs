//! A Java-bytecode-like stack virtual machine.
//!
//! This crate is the bytecode substrate for the Java-side realization of
//! dynamic path-based watermarking (Collberg et al., PLDI 2004, Section 3).
//! The real system was built on a JVM plus the SandMark instrumentation
//! framework; neither is available here, so this VM models exactly the
//! properties the watermarking algorithm depends on:
//!
//! * a **stack-based instruction set** with conditional branches
//!   ([`insn::Insn::If`], [`insn::Insn::IfCmp`]), an unconditional
//!   [`insn::Insn::Goto`], and a [`insn::Insn::Switch`] that is *not* a
//!   conditional branch (mirroring the JVM's `lookupswitch`) — the
//!   embedder uses it for loop control so inserted loops contribute only
//!   the intended conditional-branch bits to the trace;
//! * an **instrumenting interpreter** ([`interp::Vm`]) that can record
//!   the executed basic-block sequence, every dynamic conditional branch
//!   with the block that follows it, and snapshots of local-variable
//!   values — the exact trace content Section 3.1 collects;
//! * **control-flow graphs** ([`mod@cfg`]) and **code editing with branch
//!   fix-up** ([`edit`]) so that watermark code can be inserted (and
//!   attacks applied) at any program point;
//! * a structural **verifier** ([`verify`]) to catch malformed programs
//!   early, standing in for the JVM bytecode verifier.
//!
//! Values are untyped 64-bit integers; arrays live on a managed heap and
//! are referenced by handle. Static fields model the per-class state the
//! paper snapshots during tracing. Instance fields and objects are not
//! modeled — no part of the algorithm or the workloads requires them (the
//! trade-off is recorded in `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use stackvm::builder::{FunctionBuilder, ProgramBuilder};
//! use stackvm::insn::Cond;
//! use stackvm::interp::Vm;
//!
//! // fn main() { let mut i = 0; while i < 5 { print(i); i += 1; } }
//! let mut program = ProgramBuilder::new();
//! let mut f = FunctionBuilder::new("main", 0, 1);
//! let head = f.new_label();
//! let exit = f.new_label();
//! f.bind(head);
//! f.load(0).push(5).if_cmp(Cond::Ge, exit);
//! f.load(0).print();
//! f.iinc(0, 1).goto(head);
//! f.bind(exit);
//! f.ret_void();
//! let main = program.add_function(f.finish()?);
//! let program = program.finish(main)?;
//!
//! let outcome = Vm::new(&program).run()?;
//! assert_eq!(outcome.output, vec![0, 1, 2, 3, 4]);
//! # Ok::<(), stackvm::VmError>(())
//! ```

pub mod builder;
pub mod cfg;
pub mod codec;
pub mod compile;
pub mod edit;
pub mod insn;
pub mod interp;
pub mod predecode;
pub mod pretty;
pub mod program;
pub mod trace;
pub mod verify;

mod error;

pub use error::VmError;
pub use program::{FuncId, Function, Program, StaticId};
