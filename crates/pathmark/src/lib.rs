//! Dynamic path-based software watermarking — the umbrella crate.
//!
//! A from-scratch, full-system reproduction of C. Collberg, E. Carter,
//! S. Debray, A. Huntwork, J. Kececioglu, C. Linn and M. Stepp,
//! *Dynamic Path-Based Software Watermarking*, PLDI 2004. The watermark
//! lives in the **runtime branch behavior** of a program on a secret
//! input. See the repository `README.md` and `DESIGN.md` for the
//! architecture, and `EXPERIMENTS.md` for the reproduction of every
//! figure in the paper's evaluation.
//!
//! This crate re-exports the whole system:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the watermarking algorithms (Sections 3 and 4) |
//! | [`math`] | bignums, (generalized) CRT, enumeration, recovery model |
//! | [`crypto`] | XTEA, keyed PRNG, displacement perfect hashing |
//! | [`vm`] | the Java-like bytecode VM substrate |
//! | [`sim`] | the IA-32-like native simulator substrate |
//! | [`attacks`] | the distortive / rewriting attack suite (Section 5) |
//! | [`workloads`] | CaffeineMark-, Jess- and SPECint-like programs |
//! | [`fleet`] | parallel batch fingerprinting & recognition engine |
//! | [`serve`] | resident recognition daemon: warm sessions, admission control, crash-safe resume |
//! | [`telemetry`] | stage-level tracing and metrics (spans, counters, sinks) |
//! | [`cli`] | shared command-line conventions (exit-code protocol) |
//!
//! # Example
//!
//! Embed a 128-bit fingerprint into the CaffeineMark-like workload and
//! recognize it:
//!
//! ```
//! use pathmark::core::java::{Embedder, JavaConfig, Recognizer};
//! use pathmark::core::key::{Watermark, WatermarkKey};
//!
//! let workload = pathmark::workloads::java::caffeinemark();
//! let key = WatermarkKey::new(0xDEC0DE, vec![6]);
//! let config = JavaConfig::for_watermark_bits(128).with_pieces(24);
//! let watermark = Watermark::random_for(&config, &key);
//!
//! let embedder = Embedder::builder(key.clone(), config.clone()).build()?;
//! let marked = embedder.embed(&workload, &watermark)?;
//! let found = Recognizer::builder(key, config).build()?.recognize(&marked.program)?;
//! assert_eq!(found.watermark.as_ref(), Some(watermark.value()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use pathmark_attacks as attacks;
pub use pathmark_core as core;
pub use pathmark_crypto as crypto;
pub use pathmark_fleet as fleet;
pub use pathmark_math as math;
pub use pathmark_serve as serve;
pub use pathmark_telemetry as telemetry;
pub use pathmark_workloads as workloads;

pub mod cli;

/// The bytecode virtual-machine substrate (re-export of `stackvm`).
pub use stackvm as vm;

/// The native-code simulator substrate (re-export of `nativesim`).
pub use nativesim as sim;
