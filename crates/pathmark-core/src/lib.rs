//! Dynamic path-based software watermarking.
//!
//! This crate is a from-scratch reproduction of the system described in
//! C. Collberg, E. Carter, S. Debray, A. Huntwork, J. Kececioglu,
//! C. Linn and M. Stepp, *Dynamic Path-Based Software Watermarking*,
//! PLDI 2004. The watermark is embedded in the **runtime branch
//! structure** of a program: run the program on a secret input sequence
//! (the key), observe which way its conditional branches go, and read the
//! mark out of that path. Two complete realizations are provided, exactly
//! as in the paper:
//!
//! * [`java`] — for stack bytecode (the paper's SandMark implementation):
//!   the watermark is split into redundant pieces with the Generalized
//!   Chinese Remainder Theorem, each piece is encrypted into one 64-bit
//!   block and spelled into the trace by inserted branch code; the
//!   recognizer slides a 64-bit window over the trace bit-string and
//!   votes/filters/recombines surviving pieces (Section 3).
//! * [`native`] — for IA-32-style executables (the paper's PLTO
//!   implementation): unconditional jumps become calls to a **branch
//!   function** that routes control through a perfect-hash XOR table; the
//!   forward/backward ordering of the call-site addresses spells the
//!   watermark, and the branch function doubles as tamper-proofing by
//!   computing indirect-jump targets the program needs (Section 4).
//!
//! Shared infrastructure: [`bitstring`] (the trace-to-bits decoding rule
//! of Section 3.1) and [`key`] (the watermark key and value types).
//! The related-work schemes the paper compares against in Section 6 are
//! implemented in [`baseline`] so the resilience contrast can be
//! measured (see the `tables` experiment in `pathmark-bench`).
//!
//! Both realizations are *dynamic blind fingerprinting* schemes: every
//! distributed copy encodes a distinct integer, and recognition needs
//! only the marked program plus the key.
//!
//! # Quick start (bytecode)
//!
//! ```
//! use pathmark_core::java::{Embedder, JavaConfig, Recognizer};
//! use pathmark_core::key::{Watermark, WatermarkKey};
//! use stackvm::builder::{FunctionBuilder, ProgramBuilder};
//! use stackvm::insn::Cond;
//!
//! // A toy program: print gcd(read_input(), read_input()).
//! let mut pb = ProgramBuilder::new();
//! let mut f = FunctionBuilder::new("main", 0, 2);
//! f.read_input().store(0).read_input().store(1);
//! let head = f.new_label();
//! let done = f.new_label();
//! f.bind(head);
//! f.load(1).if_zero(Cond::Eq, done);
//! f.load(1).load(0).load(1).rem().store(1).store(0);
//! f.goto(head);
//! f.bind(done);
//! f.load(0).print().ret_void();
//! let main = pb.add_function(f.finish()?);
//! let program = pb.finish(main)?;
//!
//! let key = WatermarkKey::new(0xC0FFEE, vec![252, 105]);
//! let config = JavaConfig::for_watermark_bits(64).with_pieces(20);
//! let watermark = Watermark::random_for(&config, &key);
//!
//! let embedder = Embedder::builder(key.clone(), config.clone()).build()?;
//! let recognizer = Recognizer::builder(key, config).build()?;
//! let marked = embedder.embed(&program, &watermark)?;
//! let found = recognizer.recognize(&marked.program)?;
//! assert_eq!(found.watermark.as_ref(), Some(watermark.value()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod baseline;
pub mod bitstring;
pub mod hash;
pub mod java;
pub mod key;
pub mod native;
pub mod scan;
pub mod scanner;

mod error;

pub use error::{ConfigError, WatermarkError};
pub use scan::Survivors;
