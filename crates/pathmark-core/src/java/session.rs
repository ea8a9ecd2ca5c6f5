//! Session objects: the redesigned entry point to the bytecode scheme.
//!
//! [`Embedder`] and [`Recognizer`] bundle what every pipeline call used
//! to re-thread as a `(program, key, config)` tuple — the
//! [`WatermarkKey`], the validated [`JavaConfig`], and an optional
//! telemetry handle — behind one builder-constructed object. The fleet,
//! the bench harness, the daemon and the CLI all go through these
//! sessions.
//!
//! Construction validates up front (see [`ConfigError`]): a session
//! that builds is guaranteed a coherent prime/enumeration/piece
//! configuration and a non-empty secret input, so the failure modes
//! that used to surface as panics deep inside embed are rejected at
//! the API boundary.
//!
//! ```
//! use pathmark_core::java::{Embedder, JavaConfig, Recognizer};
//! use pathmark_core::key::{Watermark, WatermarkKey};
//! use stackvm::builder::{FunctionBuilder, ProgramBuilder};
//! use stackvm::insn::Cond;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = FunctionBuilder::new("main", 0, 2);
//! let head = f.new_label();
//! let out = f.new_label();
//! f.push(0).store(0);
//! f.bind(head);
//! f.load(0).push(8).if_cmp(Cond::Ge, out);
//! f.load(0).load(1).add().store(1);
//! f.iinc(0, 1).goto(head);
//! f.bind(out);
//! f.load(1).print().ret_void();
//! let main = pb.add_function(f.finish()?);
//! let program = pb.finish(main)?;
//!
//! let key = WatermarkKey::new(0xC0FFEE, vec![5, 3]);
//! let config = JavaConfig::builder(64).pieces(12).build()?;
//! let embedder = Embedder::builder(key.clone(), config.clone()).build()?;
//! let recognizer = Recognizer::builder(key, config).build()?;
//!
//! let watermark = Watermark::random_for(embedder.config(), embedder.key());
//! let marked = embedder.embed(&program, &watermark)?;
//! let found = recognizer.recognize(&marked.program)?;
//! assert_eq!(found.watermark.as_ref(), Some(watermark.value()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pathmark_crypto::Xtea;
use pathmark_math::crt::Statement;
use pathmark_math::enumeration::PairEnumeration;
use pathmark_telemetry::Telemetry;

use super::JavaConfig;
use crate::key::WatermarkKey;
use crate::{ConfigError, WatermarkError};

/// Default ceiling on memoized window decodes: 2^15 entries (~1.3 MB
/// at 40 B each), several times a corpus copy's distinct-window count.
/// Below the ceiling the memo is exact (a warm session re-scanning a
/// copy it has seen decrypts nothing); past it, decodes are dropped
/// (counted as [`pathmark_telemetry::Counter::DecodeCacheEvict`]; see
/// `DecodeCache` for which). Recognition stays correct either way —
/// the memo only trades XTEA calls for memory. Long-lived daemons tune
/// the cap per session via the builders' `decode_cache_cap`.
pub const DEFAULT_DECODE_CACHE_CAP: usize = 1 << 15;

/// One memoized window decode: the window value and what it decrypts
/// and decodes to (`None` = known garbage).
pub(crate) type DecodeEntry = (u64, Option<Statement>);

/// Window-decode memo: [`DecodeEntry`]s sorted by window, sized to what
/// the session has decoded. Nothing is allocated until the first
/// decode, so embed sessions (which never decode) pay nothing for it.
/// Survivor tables ascend by value too, so a scan's lookups are one
/// merge over the memo ([`DecodeCache::get`] with a shared cursor) and
/// its misses, equally ascending, merge in after decryption
/// ([`DecodeCache::admit`]).
///
/// Past the cap the memo keeps the `cap` smallest window values it has
/// decoded and drops the rest. Surviving window values are close to
/// uniform, so that is an unbiased sample of the working set, and a
/// fixed one: a warm session re-scanning more distinct windows than its
/// cap hits the same entries on every scan instead of evicting them in
/// turn.
#[derive(Debug)]
pub(crate) struct DecodeCache {
    /// Strictly ascending by window.
    entries: Vec<DecodeEntry>,
    /// The entry ceiling (the builder's `decode_cache_cap`); zero
    /// disables memoization.
    cap: usize,
}

impl DecodeCache {
    /// An empty memo bounded at `cap` entries. Allocates nothing.
    pub(crate) fn with_cap(cap: usize) -> Self {
        DecodeCache {
            entries: Vec::new(),
            cap,
        }
    }

    /// Entries currently resident.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entry ceiling.
    #[cfg(test)]
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Entries the memo has room for without reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// The memoized decode of `value`, if resident: `Some(None)` means
    /// "known garbage", `None` means "not cached, decrypt it".
    ///
    /// `cursor` is where the previous lookup stopped: start it at 0 and
    /// look up ascending values, and the lookups walk the memo once.
    #[inline]
    pub(crate) fn get(&self, cursor: &mut usize, value: u64) -> Option<Option<Statement>> {
        let rest = &self.entries[*cursor..];
        *cursor += rest
            .iter()
            .take_while(|&&(window, _)| window < value)
            .count();
        match self.entries.get(*cursor) {
            Some(&(window, decoded)) if window == value => Some(decoded),
            _ => None,
        }
    }

    /// Merges one scan's misses into the memo. `fresh` holds the decodes
    /// of windows [`DecodeCache::get`] did not find, ascending. Returns
    /// how many decodes the cap dropped, resident or fresh.
    pub(crate) fn admit(&mut self, mut fresh: Vec<DecodeEntry>) -> u64 {
        if self.cap == 0 || fresh.is_empty() {
            return 0;
        }
        let total = self.entries.len() + fresh.len();
        // Only the `cap` smallest windows stay, so no fresh entry past
        // the first `cap` can.
        fresh.truncate(self.cap);
        if self.entries.is_empty() {
            self.entries = fresh;
        } else {
            // Merge from the back, into the room `fresh` takes up at the
            // end: every write lands at or past the resident it moves.
            let mut resident = self.entries.len();
            self.entries.reserve_exact(fresh.len());
            self.entries.extend_from_slice(&fresh);
            let mut pending = fresh.len();
            while pending > 0 {
                let slot = resident + pending - 1;
                if resident > 0 && self.entries[resident - 1].0 > fresh[pending - 1].0 {
                    self.entries[slot] = self.entries[resident - 1];
                    resident -= 1;
                } else {
                    self.entries[slot] = fresh[pending - 1];
                    pending -= 1;
                }
            }
        }
        self.entries.truncate(self.cap);
        self.entries.shrink_to_fit();
        (total - self.entries.len()) as u64
    }
}

/// Key-derived state every embed/recognize call needs: the prime set,
/// the statement enumeration over it, and the block cipher.
///
/// Deriving these is not free — prime generation runs Miller–Rabin over
/// candidate streams, and the enumeration validates pairwise
/// coprimality — and before sessions cached them, *every*
/// `window_candidates` call re-derived all three. Sessions now derive
/// them once at [`Embedder::builder`]-`build()` /
/// [`Recognizer::with_key`] time and share them via `Arc`.
#[derive(Debug)]
pub(crate) struct SessionCrypto {
    /// The prime set `p_1, …, p_r` for the session key.
    pub(crate) primes: Vec<u64>,
    /// The statement ↔ integer bijection over `primes`.
    pub(crate) enumeration: PairEnumeration,
    /// The key's block cipher.
    pub(crate) cipher: Xtea,
    /// Memoized window decodes: window value → what it decrypts and
    /// decodes to under this key (`None` = garbage). The mapping is a
    /// pure function of the key, so it is shared by every copy a warm
    /// session recognizes — and fingerprinted copies of one host
    /// program repeat most of their trace windows (the host's own loop
    /// structure is identical across copies), so batch recognition
    /// pays XTEA once per *distinct value per key*, not per copy.
    /// Bounded by `cache_cap`.
    pub(crate) decode_cache: Mutex<DecodeCache>,
    /// Lifetime decode-cache hits, kept on the shared crypto state (not
    /// the telemetry sink) so cache behavior is observable — e.g. from
    /// a daemon's stats endpoint — regardless of how a session was
    /// built. Relaxed atomics: these are statistics, not
    /// synchronization.
    pub(crate) cache_hits: AtomicU64,
    /// Lifetime decode-cache misses (each one paid a cipher call).
    pub(crate) cache_misses: AtomicU64,
    /// Lifetime decodes dropped at the cap.
    pub(crate) cache_evictions: AtomicU64,
}

/// Point-in-time decode-cache statistics of one session's shared crypto
/// state (see `SessionCrypto`); sessions created via `with_key` with
/// the same key share one state and therefore one set of numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups served from the cache (no cipher call).
    pub hits: u64,
    /// Lookups that missed and decrypted.
    pub misses: u64,
    /// Decodes dropped to stay within the cap: resident entries
    /// displaced, or new ones not kept.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl SessionCrypto {
    /// Derives the cached state for a key under a configuration, with a
    /// decode-cache ceiling of `cache_cap` entries.
    ///
    /// # Errors
    ///
    /// [`WatermarkError::Math`] if the prime configuration does not
    /// admit an enumeration (cannot happen for a validated config).
    pub(crate) fn derive(
        key: &WatermarkKey,
        config: &JavaConfig,
        cache_cap: usize,
    ) -> Result<Self, WatermarkError> {
        let primes = config.primes(key);
        let enumeration = PairEnumeration::new(&primes)?;
        Ok(SessionCrypto {
            primes,
            enumeration,
            cipher: key.cipher(),
            decode_cache: Mutex::new(DecodeCache::with_cap(cache_cap)),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
        })
    }

    /// A point-in-time snapshot of the decode-cache statistics.
    pub(crate) fn decode_cache_stats(&self) -> DecodeCacheStats {
        let entries = self
            .decode_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len() as u64;
        DecodeCacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            evictions: self.cache_evictions.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Folds one scan's hit/miss/eviction deltas into the lifetime
    /// statistics.
    pub(crate) fn record_cache_activity(&self, hits: u64, misses: u64, evictions: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
        self.cache_evictions.fetch_add(evictions, Ordering::Relaxed);
    }
}

/// An embedding session: one key + validated config + telemetry handle,
/// plus the cached key-derived crypto state (`SessionCrypto`).
///
/// Cheap to clone and `Send + Sync`, so a batch engine can derive one
/// per-copy session per job (see [`Embedder::with_key`]) while all of
/// them report into one sink.
#[derive(Debug, Clone)]
pub struct Embedder {
    pub(crate) key: WatermarkKey,
    pub(crate) config: JavaConfig,
    pub(crate) telemetry: Telemetry,
    pub(crate) crypto: Option<Arc<SessionCrypto>>,
    pub(crate) decode_cache_cap: usize,
}

/// A recognition session: the mirror image of [`Embedder`].
#[derive(Debug, Clone)]
pub struct Recognizer {
    pub(crate) key: WatermarkKey,
    pub(crate) config: JavaConfig,
    pub(crate) telemetry: Telemetry,
    pub(crate) crypto: Option<Arc<SessionCrypto>>,
    pub(crate) decode_cache_cap: usize,
}

/// Shared validation for both session builders.
fn validate_session(key: &WatermarkKey, config: &JavaConfig) -> Result<(), ConfigError> {
    if key.input.is_empty() {
        return Err(ConfigError::EmptySecretInput);
    }
    config.validate()
}

macro_rules! session_impl {
    ($session:ident, $builder:ident) => {
        impl $session {
            /// Starts building a session from a key and a configuration.
            pub fn builder(key: WatermarkKey, config: JavaConfig) -> $builder {
                $builder {
                    key,
                    config,
                    telemetry: Telemetry::null(),
                    decode_cache_cap: DEFAULT_DECODE_CACHE_CAP,
                }
            }

            /// The cached key-derived state, or a fresh derivation when
            /// construction could not derive it (the fresh attempt then
            /// yields the error the caller expects).
            pub(crate) fn crypto(&self) -> Result<Arc<SessionCrypto>, WatermarkError> {
                match &self.crypto {
                    Some(crypto) => Ok(Arc::clone(crypto)),
                    None => {
                        SessionCrypto::derive(&self.key, &self.config, self.decode_cache_cap)
                            .map(Arc::new)
                    }
                }
            }

            /// The session's decode-cache ceiling, in entries.
            pub fn decode_cache_cap(&self) -> usize {
                self.decode_cache_cap
            }

            /// Decode-cache statistics of the session's shared crypto
            /// state. Sessions derived for the same key (see
            /// [`Self::with_key`]) share one state, so a warm daemon
            /// session's numbers accumulate across every copy it
            /// recognizes. Zeros when crypto derivation was deferred.
            pub fn decode_cache_stats(&self) -> DecodeCacheStats {
                match &self.crypto {
                    Some(crypto) => crypto.decode_cache_stats(),
                    None => DecodeCacheStats::default(),
                }
            }

            /// The session's key.
            pub fn key(&self) -> &WatermarkKey {
                &self.key
            }

            /// The session's configuration.
            pub fn config(&self) -> &JavaConfig {
                &self.config
            }

            /// The session's telemetry handle.
            pub fn telemetry(&self) -> &Telemetry {
                &self.telemetry
            }

            /// Derives a session for a different key (same configuration
            /// and telemetry sink) — the fleet uses this for per-copy
            /// keys. No re-validation of the input: batch engines derive
            /// per-copy keys from an already-validated base key and
            /// never change the input sequence. The crypto cache is
            /// re-derived for the new key (primes and cipher are
            /// key-dependent), once, here — not per call downstream.
            /// Asking for the key the session already holds shares the
            /// existing crypto state instead (the decode cache is a pure
            /// function of the key), so a warm per-copy session keeps
            /// its memoized decodes across calls — what makes resident
            /// daemon sessions genuinely warm.
            pub fn with_key(&self, key: WatermarkKey) -> $session {
                let crypto = if self.crypto.is_some() && key == self.key {
                    self.crypto.clone()
                } else {
                    SessionCrypto::derive(&key, &self.config, self.decode_cache_cap)
                        .ok()
                        .map(Arc::new)
                };
                $session {
                    key,
                    config: self.config.clone(),
                    telemetry: self.telemetry.clone(),
                    crypto,
                    decode_cache_cap: self.decode_cache_cap,
                }
            }
        }

        /// Builder for the session; `build` validates key and config.
        #[derive(Debug, Clone)]
        pub struct $builder {
            key: WatermarkKey,
            config: JavaConfig,
            telemetry: Telemetry,
            decode_cache_cap: usize,
        }

        impl $builder {
            /// Attaches a telemetry handle (default: disabled).
            pub fn telemetry(mut self, telemetry: Telemetry) -> $builder {
                self.telemetry = telemetry;
                self
            }

            /// Overrides the decode-cache ceiling (default
            /// [`DEFAULT_DECODE_CACHE_CAP`] entries). A resident daemon
            /// holding many warm sessions tunes this down to bound
            /// memory; decodes dropped at the ceiling bump
            /// [`pathmark_telemetry::Counter::DecodeCacheEvict`]. Zero
            /// disables decode memoization entirely.
            pub fn decode_cache_cap(mut self, cap: usize) -> $builder {
                self.decode_cache_cap = cap;
                self
            }

            /// Validates and builds the session.
            ///
            /// # Errors
            ///
            /// [`ConfigError`] for an empty secret input or any
            /// configuration defect [`JavaConfig::validate`] rejects.
            pub fn build(self) -> Result<$session, ConfigError> {
                validate_session(&self.key, &self.config)?;
                // A validated config always admits an enumeration
                // (validate() bounds the pair-product sum), so this
                // derivation cannot fail; `.ok()` is for type shape.
                let crypto =
                    SessionCrypto::derive(&self.key, &self.config, self.decode_cache_cap)
                        .ok()
                        .map(Arc::new);
                Ok($session {
                    key: self.key,
                    config: self.config,
                    telemetry: self.telemetry,
                    crypto,
                    decode_cache_cap: self.decode_cache_cap,
                })
            }
        }
    };
}

session_impl!(Embedder, EmbedderBuilder);
session_impl!(Recognizer, RecognizerBuilder);

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> WatermarkKey {
        WatermarkKey::new(7, vec![1, 2])
    }

    #[test]
    fn builder_validates_key_and_config() {
        let config = JavaConfig::for_watermark_bits(64);
        let session = Embedder::builder(key(), config.clone()).build().unwrap();
        assert_eq!(session.key(), &key());
        assert_eq!(session.config(), &config);
        assert!(!session.telemetry().enabled());

        assert_eq!(
            Embedder::builder(WatermarkKey::new(7, vec![]), config.clone())
                .build()
                .unwrap_err(),
            ConfigError::EmptySecretInput
        );
        assert_eq!(
            Recognizer::builder(WatermarkKey::new(7, vec![]), config)
                .build()
                .unwrap_err(),
            ConfigError::EmptySecretInput
        );
    }

    #[test]
    fn with_key_keeps_config_and_telemetry() {
        use pathmark_telemetry::MemorySink;
        use std::sync::Arc;

        let config = JavaConfig::for_watermark_bits(64);
        let telemetry = Telemetry::new(Arc::new(MemorySink::new()));
        let base = Recognizer::builder(key(), config.clone())
            .telemetry(telemetry)
            .build()
            .unwrap();
        let derived = base.with_key(WatermarkKey::new(99, vec![1, 2]));
        assert_eq!(derived.key().seed, 99);
        assert_eq!(derived.config(), &config);
        assert!(derived.telemetry().enabled());
    }

    #[test]
    fn sessions_cache_key_derived_crypto() {
        let config = JavaConfig::for_watermark_bits(64);
        let session = Recognizer::builder(key(), config.clone()).build().unwrap();
        let a = session.crypto().unwrap();
        let b = session.crypto().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat calls share one derivation");
        assert_eq!(a.primes, config.primes(&key()));
        assert_eq!(a.enumeration.primes(), a.primes.as_slice());
        assert_eq!(a.cipher, key().cipher());

        let derived = session.with_key(WatermarkKey::new(99, vec![1, 2]));
        let c = derived.crypto().unwrap();
        assert_ne!(c.primes, a.primes, "a new key re-derives its primes");

        // Re-deriving the session's own key shares the crypto state —
        // the decode cache stays warm across `with_key` round trips.
        let same = session.with_key(key());
        assert!(
            Arc::ptr_eq(&a, &same.crypto().unwrap()),
            "same key shares the existing derivation"
        );
    }

    #[test]
    fn decode_cache_cap_is_configurable_and_inherited_by_with_key() {
        let config = JavaConfig::for_watermark_bits(64);
        let session = Recognizer::builder(key(), config.clone())
            .decode_cache_cap(128)
            .build()
            .unwrap();
        assert_eq!(session.decode_cache_cap(), 128);
        assert_eq!(
            session
                .crypto()
                .unwrap()
                .decode_cache
                .lock()
                .unwrap()
                .cap(),
            128
        );
        // Per-copy sessions keep the base session's cap.
        let derived = session.with_key(WatermarkKey::new(99, vec![1, 2]));
        assert_eq!(derived.decode_cache_cap(), 128);
        assert_eq!(
            derived
                .crypto()
                .unwrap()
                .decode_cache
                .lock()
                .unwrap()
                .cap(),
            128
        );
        // The default is the documented constant.
        let default = Embedder::builder(key(), config).build().unwrap();
        assert_eq!(default.decode_cache_cap(), DEFAULT_DECODE_CACHE_CAP);
    }

    #[test]
    fn sessions_allocate_no_memo_before_they_decode() {
        let config = JavaConfig::for_watermark_bits(64);
        let memo = |crypto: Arc<SessionCrypto>| {
            let cache = crypto.decode_cache.lock().unwrap();
            (cache.len(), cache.capacity())
        };
        let copy_key = WatermarkKey::new(99, vec![1, 2]);
        let embedder = Embedder::builder(key(), config.clone()).build().unwrap();
        let per_copy = embedder.with_key(copy_key.clone());
        assert_eq!(
            memo(per_copy.crypto().unwrap()),
            (0, 0),
            "per-copy embedder"
        );
        let recognizer = Recognizer::builder(key(), config).build().unwrap();
        let fresh = recognizer.with_key(copy_key);
        assert_eq!(memo(fresh.crypto().unwrap()), (0, 0), "fresh recognizer");
    }
}
