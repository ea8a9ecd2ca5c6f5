//! The trace cache: one traced run per (program, secret input), shared
//! across every embed job in a batch.
//!
//! Tracing is the only embedding step that *executes* the program; the
//! rest of `embed` is pure computation over the trace. A batch that
//! fingerprints N copies of one program under one key therefore needs
//! exactly one traced run — this cache provides it, handing each job an
//! [`Arc<Trace>`] so the (large, immutable) trace is never cloned.
//!
//! The cache key is what the trace actually depends on: the program
//! bytes, the key's secret *input* sequence (the numeric secret steers
//! primes and ciphers, not execution), the tracing budget, and the
//! [`TraceConfig`] flags. Program identity is the *full codec byte
//! string*, not just its 64-bit FNV-1a digest: an early version keyed
//! on the bare digest, so two distinct programs whose bytes collide
//! under FNV-1a would silently share one trace — and the second program
//! would be watermarked against the first one's execution. The digest
//! is kept only to make hashing cheap; equality always compares bytes.
//!
//! Each entry also keeps the decoded program. A resident daemon reads
//! its host files as bytes and looks them up by those bytes
//! ([`TraceCache::get_or_load`]), so a host it has seen is neither
//! decoded, verified nor re-encoded again, and a rewritten file is a
//! new entry.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pathmark_core::java::{trace_program, JavaConfig};
use pathmark_core::key::WatermarkKey;
use pathmark_core::WatermarkError;
use pathmark_telemetry::{Counter, Stage, Telemetry};
use stackvm::trace::{Trace, TraceConfig};
use stackvm::Program;

#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheKey {
    /// FNV-1a digest of `program_bytes` — a cheap pre-hash, never
    /// trusted for identity.
    program_fnv: u64,
    /// The program's full codec bytes. `Eq` compares them, so two
    /// programs colliding under FNV-1a occupy two distinct entries
    /// (same bucket, different keys) instead of sharing one trace.
    program_bytes: Arc<Vec<u8>>,
    input: Vec<i64>,
    budget: u64,
    blocks: bool,
    branches: bool,
    snapshots: bool,
    snapshot_limit: u32,
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `program_bytes` is deliberately not hashed: `program_fnv` is
        // its digest, and re-hashing kilobytes of codec bytes on every
        // lookup would defeat the point of pre-hashing. The `Eq` byte
        // comparison (which `HashMap` runs on every bucket candidate)
        // is what keeps colliding programs apart.
        self.program_fnv.hash(state);
        self.input.hash(state);
        self.budget.hash(state);
        self.blocks.hash(state);
        self.branches.hash(state);
        self.snapshots.hash(state);
        self.snapshot_limit.hash(state);
    }
}

impl CacheKey {
    fn new(
        program_bytes: Vec<u8>,
        key: &WatermarkKey,
        config: &JavaConfig,
        what: TraceConfig,
    ) -> CacheKey {
        CacheKey {
            program_fnv: fnv1a(&program_bytes),
            program_bytes: Arc::new(program_bytes),
            input: key.input.clone(),
            budget: config.trace_budget,
            blocks: what.blocks,
            branches: what.branches,
            snapshots: what.snapshots,
            snapshot_limit: what.snapshot_limit,
        }
    }
}

/// Hit/miss counters of a [`TraceCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to trace.
    pub misses: u64,
}

/// A cached host: the program and its trace.
type Host = (Arc<Program>, Arc<Trace>);

/// A concurrent map from (program, input, config) to a shared program
/// and trace.
#[derive(Default)]
pub struct TraceCache {
    entries: Mutex<HashMap<CacheKey, Host>>,
    hits: AtomicU64,
    misses: AtomicU64,
    telemetry: Telemetry,
}

impl TraceCache {
    /// An empty cache with telemetry disabled.
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    /// An empty cache reporting [`Counter::CacheHit`] /
    /// [`Counter::CacheMiss`] and a [`Stage::Trace`] span per cold
    /// trace into `telemetry`.
    pub fn with_telemetry(telemetry: Telemetry) -> TraceCache {
        TraceCache {
            telemetry,
            ..TraceCache::default()
        }
    }

    /// Returns the trace of `program` on `key`'s secret input, tracing
    /// at most once per distinct (program, input, budget, flags)
    /// combination. Concurrent callers racing on a cold entry may trace
    /// redundantly; the first insertion wins and all callers share it.
    ///
    /// # Errors
    ///
    /// [`WatermarkError::TraceFailed`] if the program faults or exceeds
    /// the budget.
    pub fn get_or_trace(
        &self,
        program: &Program,
        key: &WatermarkKey,
        config: &JavaConfig,
        what: TraceConfig,
    ) -> Result<Arc<Trace>, WatermarkError> {
        let cache_key = CacheKey::new(stackvm::codec::encode_program(program), key, config, what);
        let (_, trace) = match self.lookup(&cache_key) {
            Some(host) => host,
            None => {
                self.trace_and_insert(cache_key, Arc::new(program.clone()), key, config, what)?
            }
        };
        Ok(trace)
    }

    /// Returns the program encoded by `bytes` and its trace on `key`'s
    /// secret input, keyed by the bytes as given: `load` turns them
    /// into a program (decoding and checking it) only on a miss, so a
    /// resident caller handed the same host file again skips both. A
    /// host that fails to load or trace is not cached, and fails again
    /// on the next call. Concurrent callers racing on a cold entry may
    /// load and trace redundantly, as in [`TraceCache::get_or_trace`].
    ///
    /// # Errors
    ///
    /// `load`'s error, or the trace failure rendered as a string.
    pub fn get_or_load(
        &self,
        bytes: Vec<u8>,
        key: &WatermarkKey,
        config: &JavaConfig,
        what: TraceConfig,
        load: impl FnOnce(&[u8]) -> Result<Program, String>,
    ) -> Result<(Arc<Program>, Arc<Trace>), String> {
        let cache_key = CacheKey::new(bytes, key, config, what);
        if let Some(host) = self.lookup(&cache_key) {
            return Ok(host);
        }
        let program = Arc::new(load(&cache_key.program_bytes)?);
        self.trace_and_insert(cache_key, program, key, config, what)
            .map_err(|e| e.to_string())
    }

    /// The host cached under `cache_key`, counting the lookup as a hit
    /// or a miss.
    fn lookup(&self, cache_key: &CacheKey) -> Option<Host> {
        let host = self
            .entries
            .lock()
            .expect("cache lock")
            .get(cache_key)
            .cloned();
        let (count, counter) = match host {
            Some(_) => (&self.hits, Counter::CacheHit),
            None => (&self.misses, Counter::CacheMiss),
        };
        count.fetch_add(1, Ordering::Relaxed);
        self.telemetry.count(counter, 1);
        host
    }

    /// Traces `program` and caches it under `cache_key`, returning the
    /// entry that won a race for the key.
    fn trace_and_insert(
        &self,
        cache_key: CacheKey,
        program: Arc<Program>,
        key: &WatermarkKey,
        config: &JavaConfig,
        what: TraceConfig,
    ) -> Result<Host, WatermarkError> {
        // Trace outside the lock so a long run does not stall the pool.
        let trace = Arc::new(
            self.telemetry
                .time(Stage::Trace, || trace_program(&program, key, config, what))?,
        );
        let mut entries = self.entries.lock().expect("cache lock");
        Ok(entries.entry(cache_key).or_insert((program, trace)).clone())
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached traces.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FNV-1a over a byte string: deterministic (unlike `DefaultHasher`)
/// and dependency-free. Also used by the manifest layer to derive
/// per-job seeds from job ids.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use stackvm::builder::{FunctionBuilder, ProgramBuilder};

    fn tiny_program(value: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 1);
        f.push(value).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        pb.finish(main).unwrap()
    }

    #[test]
    fn second_lookup_hits() {
        let cache = TraceCache::new();
        let program = tiny_program(1);
        let key = WatermarkKey::new(7, vec![]);
        let config = JavaConfig::for_watermark_bits(64);
        let a = cache
            .get_or_trace(&program, &key, &config, TraceConfig::full())
            .unwrap();
        let b = cache
            .get_or_trace(&program, &key, &config, TraceConfig::full())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same shared trace");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn telemetry_counts_hits_misses_and_trace_spans() {
        use pathmark_telemetry::MemorySink;

        let sink = Arc::new(MemorySink::new());
        let cache = TraceCache::with_telemetry(Telemetry::new(sink.clone()));
        let program = tiny_program(3);
        let key = WatermarkKey::new(7, vec![]);
        let config = JavaConfig::for_watermark_bits(64);
        for _ in 0..3 {
            cache
                .get_or_trace(&program, &key, &config, TraceConfig::full())
                .unwrap();
        }
        assert_eq!(sink.counter(Counter::CacheMiss), 1);
        assert_eq!(sink.counter(Counter::CacheHit), 2);
        assert_eq!(sink.stage(Stage::Trace).count, 1, "one cold trace span");
    }

    #[test]
    fn get_or_load_loads_once_and_caches_no_failure() {
        let cache = TraceCache::new();
        let key = WatermarkKey::new(7, vec![]);
        let config = JavaConfig::for_watermark_bits(64);
        let bytes = stackvm::codec::encode_program(&tiny_program(4));
        let loads = std::cell::Cell::new(0);
        let load = |bytes: &[u8]| {
            loads.set(loads.get() + 1);
            stackvm::codec::decode_program(bytes).map_err(|e| e.to_string())
        };
        let first = cache
            .get_or_load(bytes.clone(), &key, &config, TraceConfig::full(), load)
            .unwrap();
        let again = cache
            .get_or_load(bytes.clone(), &key, &config, TraceConfig::full(), load)
            .unwrap();
        assert_eq!(loads.get(), 1, "decoded on the miss only");
        assert!(Arc::ptr_eq(&first.0, &again.0) && Arc::ptr_eq(&first.1, &again.1));
        assert_eq!(*first.0, tiny_program(4));
        // The same bytes through `get_or_trace` share the entry.
        let trace = cache
            .get_or_trace(&tiny_program(4), &key, &config, TraceConfig::full())
            .unwrap();
        assert!(Arc::ptr_eq(&trace, &first.1));

        let failing = |_: &[u8]| -> Result<Program, String> { Err("no".into()) };
        for _ in 0..2 {
            let err = cache
                .get_or_load(vec![1, 2, 3], &key, &config, TraceConfig::full(), failing)
                .unwrap_err();
            assert_eq!(err, "no");
        }
        assert_eq!(cache.len(), 1, "a failed load is not cached");
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 3 });
    }

    #[test]
    fn numeric_secret_does_not_split_the_cache() {
        // Two keys with the same input but different numeric secrets
        // execute identically, so they share one trace.
        let cache = TraceCache::new();
        let program = tiny_program(2);
        let config = JavaConfig::for_watermark_bits(64);
        let a = cache
            .get_or_trace(
                &program,
                &WatermarkKey::new(1, vec![5]),
                &config,
                TraceConfig::full(),
            )
            .unwrap();
        let b = cache
            .get_or_trace(
                &program,
                &WatermarkKey::new(2, vec![5]),
                &config,
                TraceConfig::full(),
            )
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn different_programs_and_inputs_miss() {
        let cache = TraceCache::new();
        let config = JavaConfig::for_watermark_bits(64);
        let key = WatermarkKey::new(1, vec![]);
        cache
            .get_or_trace(&tiny_program(1), &key, &config, TraceConfig::full())
            .unwrap();
        cache
            .get_or_trace(&tiny_program(2), &key, &config, TraceConfig::full())
            .unwrap();
        cache
            .get_or_trace(
                &tiny_program(1),
                &WatermarkKey::new(1, vec![9]),
                &config,
                TraceConfig::branches_only(),
            )
            .unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 3 });
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn fnv_collision_keeps_programs_in_distinct_entries() {
        // Crafting two byte strings that genuinely collide under 64-bit
        // FNV-1a is infeasible, so this regression test exercises the
        // map the way a collision would: two keys with identical
        // `program_fnv` (same Hash) but different bytes (different Eq).
        // Under the old bare-digest key these were ONE entry, and the
        // second program would have been handed the first one's trace.
        let base = CacheKey {
            program_fnv: 0xDEAD_BEEF_CAFE_F00D,
            program_bytes: Arc::new(vec![1, 2, 3]),
            input: vec![],
            budget: 1000,
            blocks: true,
            branches: true,
            snapshots: false,
            snapshot_limit: 0,
        };
        let colliding = CacheKey {
            program_bytes: Arc::new(vec![4, 5, 6]),
            ..base.clone()
        };
        // Same hash …
        let hash_of = |key: &CacheKey| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            key.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash_of(&base), hash_of(&colliding), "digests collide");
        // … but distinct identities, hence distinct map entries.
        assert_ne!(base, colliding);
        let mut map: HashMap<CacheKey, u32> = HashMap::new();
        map.insert(base.clone(), 1);
        map.insert(colliding.clone(), 2);
        assert_eq!(map.len(), 2, "colliding programs do not share an entry");
        assert_eq!(map[&base], 1);
        assert_eq!(map[&colliding], 2);
    }
}
