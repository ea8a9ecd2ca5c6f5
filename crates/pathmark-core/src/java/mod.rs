//! Path-based watermarking for stack bytecode (the paper's Section 3,
//! implemented in SandMark for Java).
//!
//! Three phases:
//!
//! 1. **Tracing** ([`trace_program`]) — run the program on the secret
//!    input, recording executed blocks, dynamic branches, and variable
//!    snapshots.
//! 2. **Embedding** ([`Embedder`]) — split the watermark into redundant
//!    CRT statements, encrypt each into a 64-bit block, and insert
//!    branch code (loop or condition generated) that spells the block
//!    into the trace bit-string at trace-frequency-weighted cold spots.
//! 3. **Recognition** ([`Recognizer`]) — re-trace, decode the bit-string,
//!    decrypt every sliding 64-bit window, and recombine a consistent
//!    statement subset by vote filtering, the G/H consistency graphs, and
//!    the Generalized Chinese Remainder Theorem.

mod embed;
mod opaque;
mod recognize;
mod session;

pub use embed::{EmbedReport, MarkedProgram};
pub use opaque::OpaquePredicate;
pub use recognize::Recognition;
pub use session::{
    DecodeCacheStats, Embedder, EmbedderBuilder, Recognizer, RecognizerBuilder,
    DEFAULT_DECODE_CACHE_CAP,
};

use pathmark_math::primes::primes_needed;
use stackvm::interp::Vm;
use stackvm::trace::{Trace, TraceConfig};
use stackvm::Program;

use crate::bitstring::{BitString, PackedTraceSink};
use crate::key::WatermarkKey;
use crate::{ConfigError, WatermarkError};

/// How inserted watermark code is generated (Section 3.2.1 vs 3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodegenPolicy {
    /// Always generate self-contained loops (Section 3.2.1).
    LoopOnly,
    /// Prefer condition code built from traced variable values when the
    /// chosen site supports it (visited at least twice with a varying
    /// local), falling back to loops (Section 3.2.2).
    PreferCondition,
    /// Mix the two generators pseudo-randomly ("several methods of
    /// generating code should be available" — Section 3.2).
    Mixed,
}

/// Configuration of the bytecode watermarking scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JavaConfig {
    /// Nominal watermark width in bits (128/256/512 in the paper's
    /// experiments; up to 768 in Figure 5).
    pub watermark_bits: usize,
    /// Width of each prime `p_k`. Smaller primes shrink the enumeration
    /// range, which makes random 64-bit windows less likely to decode as
    /// plausible statements.
    pub prime_bits: u32,
    /// Number of primes `r` (the prime product must exceed `2^watermark_bits`).
    pub num_primes: usize,
    /// Number of watermark pieces to insert. May exceed the `r(r-1)/2`
    /// distinct statements: extra pieces repeat statements, adding
    /// redundancy (Section 3.2: "we make the pieces redundant").
    pub num_pieces: usize,
    /// Code-generation policy.
    pub codegen: CodegenPolicy,
    /// Instruction budget for tracing runs.
    pub trace_budget: u64,
    /// Run the `W mod p_i` voting prefilter during recognition
    /// (Section 3.3: "empirically observed to greatly improve the
    /// average-case running time … negligible effect on the probability
    /// of success"). Disable only for ablation studies.
    pub vote_prefilter: bool,
}

impl JavaConfig {
    /// A sound default configuration for a watermark of `bits` bits:
    /// 24-bit primes, one piece per prime pair.
    pub fn for_watermark_bits(bits: usize) -> JavaConfig {
        let prime_bits = 24;
        let num_primes = primes_needed(bits, prime_bits);
        JavaConfig {
            watermark_bits: bits,
            prime_bits,
            num_primes,
            num_pieces: num_primes * (num_primes - 1) / 2,
            codegen: CodegenPolicy::Mixed,
            trace_budget: stackvm::interp::DEFAULT_BUDGET,
            vote_prefilter: true,
        }
    }

    /// Starts a validating builder seeded with the sound defaults of
    /// [`JavaConfig::for_watermark_bits`]. Unlike the legacy
    /// `for_watermark_bits` + `with_*` chain — which accepts anything
    /// and lets bad configurations fail deep inside embed —
    /// [`JavaConfigBuilder::build`] rejects incoherent settings with a
    /// [`ConfigError`].
    pub fn builder(watermark_bits: usize) -> JavaConfigBuilder {
        JavaConfigBuilder {
            config: JavaConfig::for_watermark_bits(watermark_bits.max(1)),
            explicit_bits: watermark_bits,
        }
    }

    /// Checks the configuration for the defects that otherwise panic or
    /// silently misbehave deep inside embed/recognize: an uncoverable
    /// watermark width, an enumeration that overflows the 64-bit cipher
    /// block, runaway piece counts, a zero trace budget.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.watermark_bits == 0 {
            return Err(ConfigError::ZeroWatermarkBits);
        }
        if !(4..=31).contains(&self.prime_bits) {
            return Err(ConfigError::PrimeBitsOutOfRange {
                prime_bits: self.prime_bits,
            });
        }
        if self.num_primes < 2 {
            return Err(ConfigError::TooFewPrimes {
                num_primes: self.num_primes,
            });
        }
        let needed = primes_needed(self.watermark_bits, self.prime_bits);
        if self.num_primes < needed {
            return Err(ConfigError::PrimesDontCoverWatermark {
                watermark_bits: self.watermark_bits,
                num_primes: self.num_primes,
                num_primes_needed: needed,
            });
        }
        // Every pair product is below 2^(2·prime_bits); the enumeration
        // range is their sum and must fit the 64-bit cipher block.
        let pairs = (self.num_primes * (self.num_primes - 1) / 2) as u128;
        if pairs << (2 * self.prime_bits) > 1u128 << 64 {
            return Err(ConfigError::EnumerationOverflow {
                prime_bits: self.prime_bits,
                num_primes: self.num_primes,
            });
        }
        if self.num_pieces > self.watermark_bits {
            return Err(ConfigError::TooManyPieces {
                num_pieces: self.num_pieces,
                max_pieces: self.watermark_bits,
            });
        }
        if self.trace_budget == 0 {
            return Err(ConfigError::ZeroTraceBudget);
        }
        Ok(())
    }

    /// Overrides the piece count (the x-axis of Figure 8).
    pub fn with_pieces(mut self, pieces: usize) -> JavaConfig {
        self.num_pieces = pieces;
        self
    }

    /// Overrides the code-generation policy.
    pub fn with_codegen(mut self, policy: CodegenPolicy) -> JavaConfig {
        self.codegen = policy;
        self
    }

    /// The prime set for a key under this configuration.
    pub fn primes(&self, key: &WatermarkKey) -> Vec<u64> {
        key.primes(self.prime_bits, self.num_primes)
    }
}

/// Validating builder for [`JavaConfig`]; see [`JavaConfig::builder`].
#[derive(Debug, Clone)]
pub struct JavaConfigBuilder {
    config: JavaConfig,
    explicit_bits: usize,
}

impl JavaConfigBuilder {
    /// Overrides the piece count.
    pub fn pieces(mut self, pieces: usize) -> JavaConfigBuilder {
        self.config.num_pieces = pieces;
        self
    }

    /// Overrides the prime width. The prime count is re-derived so the
    /// product still covers the watermark (an explicit
    /// [`JavaConfigBuilder::num_primes`] call afterwards wins).
    pub fn prime_bits(mut self, prime_bits: u32) -> JavaConfigBuilder {
        self.config.prime_bits = prime_bits;
        if (4..=31).contains(&prime_bits) {
            self.config.num_primes = primes_needed(self.explicit_bits.max(1), prime_bits);
        }
        self
    }

    /// Overrides the prime count.
    pub fn num_primes(mut self, num_primes: usize) -> JavaConfigBuilder {
        self.config.num_primes = num_primes;
        self
    }

    /// Overrides the code-generation policy.
    pub fn codegen(mut self, policy: CodegenPolicy) -> JavaConfigBuilder {
        self.config.codegen = policy;
        self
    }

    /// Overrides the tracing budget.
    pub fn trace_budget(mut self, budget: u64) -> JavaConfigBuilder {
        self.config.trace_budget = budget;
        self
    }

    /// Enables/disables the vote prefilter.
    pub fn vote_prefilter(mut self, on: bool) -> JavaConfigBuilder {
        self.config.vote_prefilter = on;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] [`JavaConfig::validate`] finds.
    pub fn build(self) -> Result<JavaConfig, ConfigError> {
        let mut config = self.config;
        config.watermark_bits = self.explicit_bits;
        config.validate()?;
        Ok(config)
    }
}

/// Runs the tracing phase: executes `program` on the key's secret input
/// with the given recording configuration.
///
/// # Errors
///
/// [`WatermarkError::TraceFailed`] if the program faults or exceeds the
/// budget.
pub fn trace_program(
    program: &Program,
    key: &WatermarkKey,
    config: &JavaConfig,
    what: TraceConfig,
) -> Result<Trace, WatermarkError> {
    let outcome = Vm::new(program)
        .with_input(key.input.clone())
        .with_budget(config.trace_budget)
        .with_trace(what)
        .run()?;
    Ok(outcome.trace)
}

/// Runs the tracing phase straight to a packed bit-string: branch events
/// stream through a [`PackedTraceSink`] as the interpreter produces them,
/// so no `Vec<TraceEvent>` is ever allocated. Bit-identical to
/// [`trace_program`] + [`BitString::from_trace`] (property-gated in CI);
/// this is what [`Recognizer`] runs per suspect copy.
///
/// # Errors
///
/// [`WatermarkError::TraceFailed`] if the program faults or exceeds the
/// budget.
pub fn trace_program_bits(
    program: &Program,
    key: &WatermarkKey,
    config: &JavaConfig,
) -> Result<BitString, WatermarkError> {
    let mut sink = PackedTraceSink::for_program(program);
    Vm::new(program)
        .with_input(key.input.clone())
        .with_budget(config.trace_budget)
        .with_trace(TraceConfig::branches_only())
        .run_with_sink(&mut sink)?;
    Ok(sink.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_supports_its_watermark_width() {
        use pathmark_math::bigint::BigUint;
        for bits in [64usize, 128, 256, 512, 768] {
            let c = JavaConfig::for_watermark_bits(bits);
            let key = WatermarkKey::new(1, vec![]);
            let primes = c.primes(&key);
            let product = primes
                .iter()
                .fold(BigUint::one(), |acc, &p| &acc * &BigUint::from(p));
            assert!(product.bits() > bits, "prime product covers {bits} bits");
            // And the enumeration must fit one cipher block.
            pathmark_math::enumeration::PairEnumeration::new(&primes)
                .expect("enumeration fits 64 bits");
        }
    }

    #[test]
    fn builder_overrides() {
        let c = JavaConfig::for_watermark_bits(128)
            .with_pieces(99)
            .with_codegen(CodegenPolicy::LoopOnly);
        assert_eq!(c.num_pieces, 99);
        assert_eq!(c.codegen, CodegenPolicy::LoopOnly);
    }

    #[test]
    fn validating_builder_accepts_sound_overrides() {
        let c = JavaConfig::builder(128)
            .pieces(40)
            .prime_bits(20)
            .codegen(CodegenPolicy::LoopOnly)
            .trace_budget(1 << 20)
            .vote_prefilter(false)
            .build()
            .unwrap();
        assert_eq!(c.watermark_bits, 128);
        assert_eq!(c.num_pieces, 40);
        assert_eq!(c.prime_bits, 20);
        assert!(c.num_primes >= primes_needed(128, 20));
        assert_eq!(c.codegen, CodegenPolicy::LoopOnly);
        assert_eq!(c.trace_budget, 1 << 20);
        assert!(!c.vote_prefilter);
        c.validate().unwrap();
    }

    #[test]
    fn builder_rejects_zero_watermark_bits() {
        assert_eq!(
            JavaConfig::builder(0).build().unwrap_err(),
            ConfigError::ZeroWatermarkBits
        );
    }

    #[test]
    fn builder_rejects_prime_bits_out_of_range() {
        assert_eq!(
            JavaConfig::builder(64).prime_bits(3).build().unwrap_err(),
            ConfigError::PrimeBitsOutOfRange { prime_bits: 3 }
        );
        assert_eq!(
            JavaConfig::builder(64).prime_bits(32).build().unwrap_err(),
            ConfigError::PrimeBitsOutOfRange { prime_bits: 32 }
        );
    }

    #[test]
    fn builder_rejects_too_few_primes() {
        assert_eq!(
            JavaConfig::builder(16).num_primes(1).build().unwrap_err(),
            ConfigError::TooFewPrimes { num_primes: 1 }
        );
    }

    #[test]
    fn builder_rejects_uncovered_watermark() {
        let needed = primes_needed(512, 24);
        assert_eq!(
            JavaConfig::builder(512)
                .num_primes(needed - 1)
                .build()
                .unwrap_err(),
            ConfigError::PrimesDontCoverWatermark {
                watermark_bits: 512,
                num_primes: needed - 1,
                num_primes_needed: needed,
            }
        );
    }

    #[test]
    fn builder_rejects_enumeration_overflow() {
        // 64 primes of 31 bits: pair products alone are 62 bits and
        // there are 2016 of them, so Σ p_i·p_j cannot fit a cipher block.
        assert_eq!(
            JavaConfig::builder(64)
                .prime_bits(31)
                .num_primes(64)
                .build()
                .unwrap_err(),
            ConfigError::EnumerationOverflow {
                prime_bits: 31,
                num_primes: 64,
            }
        );
    }

    #[test]
    fn builder_rejects_more_pieces_than_watermark_bits() {
        assert_eq!(
            JavaConfig::builder(64).pieces(65).build().unwrap_err(),
            ConfigError::TooManyPieces {
                num_pieces: 65,
                max_pieces: 64,
            }
        );
    }

    #[test]
    fn builder_rejects_zero_trace_budget() {
        assert_eq!(
            JavaConfig::builder(64).trace_budget(0).build().unwrap_err(),
            ConfigError::ZeroTraceBudget
        );
    }
}
