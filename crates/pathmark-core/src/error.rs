use std::error::Error;
use std::fmt;

/// A configuration (or key) rejected by a validating `build()`.
///
/// Raised *before* any work happens — by [`crate::java::JavaConfig`]'s
/// and [`crate::native::NativeConfig`]'s builders and by the
/// [`crate::java::Embedder`] / [`crate::java::Recognizer`] session
/// builders — instead of panicking or silently misbehaving deep inside
/// embed or recognize.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The watermark width is zero.
    ZeroWatermarkBits,
    /// `prime_bits` outside the workable 4..=31 range (below 4 the
    /// prime set collapses; above 31 a pair product overflows the
    /// 64-bit cipher block).
    PrimeBitsOutOfRange {
        /// The rejected width.
        prime_bits: u32,
    },
    /// Fewer than two primes: no pair statements exist.
    TooFewPrimes {
        /// The rejected count.
        num_primes: usize,
    },
    /// The prime product cannot exceed `2^watermark_bits`, so some
    /// watermarks would silently alias.
    PrimesDontCoverWatermark {
        /// Configured watermark width.
        watermark_bits: usize,
        /// Primes configured.
        num_primes: usize,
        /// Primes needed at the configured `prime_bits`.
        num_primes_needed: usize,
    },
    /// `Σ p_i·p_j` could overflow the 64-bit cipher block, so some
    /// statements could not be enumerated.
    EnumerationOverflow {
        /// Configured prime width.
        prime_bits: u32,
        /// Configured prime count.
        num_primes: usize,
    },
    /// More pieces than watermark bits: each piece already encodes a
    /// full statement, so this is runaway redundancy — almost always a
    /// swapped-argument bug.
    TooManyPieces {
        /// Requested piece count.
        num_pieces: usize,
        /// The cap (the watermark width).
        max_pieces: usize,
    },
    /// A zero tracing/profiling budget: every traced run would fail.
    ZeroTraceBudget,
    /// The key carries no secret input, so any party can reproduce the
    /// trace and the watermark is not secret.
    EmptySecretInput,
    /// Tamper-proofing was requested with a zero cell budget, which
    /// silently produces an unprotected image.
    ZeroTamperCells,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWatermarkBits => {
                write!(f, "watermark width must be at least one bit")
            }
            ConfigError::PrimeBitsOutOfRange { prime_bits } => {
                write!(f, "prime width {prime_bits} outside the workable 4..=31 range")
            }
            ConfigError::TooFewPrimes { num_primes } => {
                write!(f, "{num_primes} primes configured, at least 2 required")
            }
            ConfigError::PrimesDontCoverWatermark {
                watermark_bits,
                num_primes,
                num_primes_needed,
            } => write!(
                f,
                "{num_primes} primes cannot cover a {watermark_bits}-bit watermark \
                 ({num_primes_needed} needed at this prime width)"
            ),
            ConfigError::EnumerationOverflow {
                prime_bits,
                num_primes,
            } => write!(
                f,
                "{num_primes} primes of {prime_bits} bits overflow the 64-bit \
                 statement enumeration"
            ),
            ConfigError::TooManyPieces {
                num_pieces,
                max_pieces,
            } => write!(
                f,
                "{num_pieces} pieces exceed the {max_pieces}-bit watermark width"
            ),
            ConfigError::ZeroTraceBudget => {
                write!(f, "trace budget must be at least one instruction")
            }
            ConfigError::EmptySecretInput => {
                write!(f, "the key's secret input sequence is empty")
            }
            ConfigError::ZeroTamperCells => {
                write!(f, "tamper-proofing enabled with a zero cell budget")
            }
        }
    }
}

impl Error for ConfigError {}

/// Errors raised by embedding, recognition, or extraction.
#[derive(Debug)]
#[non_exhaustive]
pub enum WatermarkError {
    /// An invalid configuration or key was rejected up front.
    Config(ConfigError),
    /// The program failed while being traced (before any watermarking).
    TraceFailed(stackvm::VmError),
    /// A number-theoretic step failed (bad prime configuration, …).
    Math(pathmark_math::MathError),
    /// The native simulator failed.
    Sim(nativesim::SimError),
    /// Perfect-hash construction failed.
    Phf(pathmark_crypto::phf::PhfError),
    /// The watermark value is too large for the configured prime set.
    WatermarkTooLarge {
        /// Bits in the supplied watermark.
        got_bits: usize,
        /// Bits representable by the prime product.
        max_bits: usize,
    },
    /// The traced program offered no usable insertion points.
    NoInsertionPoint,
    /// A piece's fresh locals would take a function's local count past
    /// `u16::MAX`.
    TooManyLocals {
        /// The function chosen to host the piece.
        func_name: String,
        /// Its local count when the piece was placed.
        num_locals: u16,
        /// The locals the piece needed.
        extra: u16,
    },
    /// Not enough legal call-site slots to thread the native watermark.
    InsufficientSlots {
        /// Bits that still needed placing when slots ran out.
        remaining_bits: usize,
    },
    /// The native program has no suitable `begin -> end` edge (an
    /// unconditional jump executed exactly once on the secret input).
    NoAnchorEdge,
    /// Extraction could not identify a branch function in the trace.
    NoBranchFunction,
    /// Extraction saw the begin address but execution never reached the
    /// end address.
    EndNotReached,
}

impl fmt::Display for WatermarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatermarkError::Config(e) => write!(f, "invalid configuration: {e}"),
            WatermarkError::TraceFailed(e) => write!(f, "tracing failed: {e}"),
            WatermarkError::Math(e) => write!(f, "number-theoretic failure: {e}"),
            WatermarkError::Sim(e) => write!(f, "simulator failure: {e}"),
            WatermarkError::Phf(e) => write!(f, "perfect hash construction failed: {e}"),
            WatermarkError::WatermarkTooLarge { got_bits, max_bits } => write!(
                f,
                "watermark of {got_bits} bits exceeds the {max_bits}-bit prime product"
            ),
            WatermarkError::NoInsertionPoint => {
                write!(f, "trace contains no usable insertion point")
            }
            WatermarkError::TooManyLocals {
                func_name,
                num_locals,
                extra,
            } => write!(
                f,
                "function `{func_name}` has {num_locals} locals: no room for the \
                 {extra} a watermark piece needs"
            ),
            WatermarkError::InsufficientSlots { remaining_bits } => write!(
                f,
                "ran out of legal call-site slots with {remaining_bits} bits unplaced"
            ),
            WatermarkError::NoAnchorEdge => {
                write!(f, "no unconditional jump executed exactly once on the key input")
            }
            WatermarkError::NoBranchFunction => {
                write!(f, "no branch function observed in the extraction trace")
            }
            WatermarkError::EndNotReached => {
                write!(f, "execution reached begin but never end during extraction")
            }
        }
    }
}

impl Error for WatermarkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WatermarkError::Config(e) => Some(e),
            WatermarkError::TraceFailed(e) => Some(e),
            WatermarkError::Math(e) => Some(e),
            WatermarkError::Sim(e) => Some(e),
            WatermarkError::Phf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for WatermarkError {
    fn from(e: ConfigError) -> Self {
        WatermarkError::Config(e)
    }
}

impl From<stackvm::VmError> for WatermarkError {
    fn from(e: stackvm::VmError) -> Self {
        WatermarkError::TraceFailed(e)
    }
}

impl From<pathmark_math::MathError> for WatermarkError {
    fn from(e: pathmark_math::MathError) -> Self {
        WatermarkError::Math(e)
    }
}

impl From<nativesim::SimError> for WatermarkError {
    fn from(e: nativesim::SimError) -> Self {
        WatermarkError::Sim(e)
    }
}

impl From<pathmark_crypto::phf::PhfError> for WatermarkError {
    fn from(e: pathmark_crypto::phf::PhfError) -> Self {
        WatermarkError::Phf(e)
    }
}
