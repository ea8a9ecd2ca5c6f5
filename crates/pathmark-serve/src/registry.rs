//! The warm session registry: one [`Tenant`] per open tenant handle,
//! each owning a validated [`Embedder`]/[`Recognizer`] pair plus a
//! bounded cache of warm per-copy recognize sessions.
//!
//! Why sessions are worth keeping resident: building one derives the
//! key's prime set (Miller–Rabin), the statement enumeration, and the
//! block cipher, and a *used* recognizer additionally accumulates the
//! decode cache — the memoized window→statement map that lets a warm
//! session skip most XTEA work on copies of a host it has seen before.
//! A batch process throws all of that away at exit; the daemon's whole
//! point is not to.
//!
//! Isolation is structural: tenants are distinct map entries holding
//! distinct `SessionCrypto` state, so two tenants never share decode
//! cache entries — even if they open the same key material under two
//! names. The per-copy cache inside a tenant shares *only* within that
//! tenant, keyed by copy seed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pathmark_core::java::{
    DecodeCacheStats, Embedder, JavaConfig, Recognizer, DEFAULT_DECODE_CACHE_CAP,
};
use pathmark_core::key::WatermarkKey;
use pathmark_telemetry::{Counter, Telemetry};

use crate::protocol::OpenRequest;

/// Warm per-copy recognize sessions kept per tenant. Past the cap an
/// arbitrary resident session is evicted (its decode cache goes with
/// it); correctness is unaffected, the next use just re-derives.
const MAX_WARM_COPIES: usize = 256;

/// Locks a registry mutex, recovering from poisoning: the guarded maps
/// hold complete entries only (inserts happen after sessions are fully
/// built), so a panicking worker can't leave them half-written.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One tenant's resident state.
#[derive(Debug)]
pub struct Tenant {
    /// The tenant handle, echoed in responses.
    pub name: String,
    /// The tenant's embed session (base key; per-copy keys derive from
    /// it per job, exactly as the batch engine derives them).
    pub embedder: Embedder,
    /// The tenant's recognize session (base key).
    pub recognizer: Recognizer,
    /// Warm per-copy recognize sessions, keyed by copy seed. Re-using
    /// one keeps its decode cache — the warm-session speedup.
    copies: Mutex<HashMap<u64, Recognizer>>,
}

impl Tenant {
    /// A warm recognize session for one copy seed: cached when seen
    /// before ([`Counter::SessionHit`]), derived and cached otherwise
    /// ([`Counter::SessionMiss`]). The returned session's key *is* the
    /// per-copy key, so the single-job kernel's `with_key` hits the
    /// same-key fast path and shares the warm decode cache.
    pub fn recognizer_for(&self, seed: u64) -> Recognizer {
        let telemetry = self.recognizer.telemetry().clone();
        let mut copies = lock(&self.copies);
        if let Some(session) = copies.get(&seed) {
            telemetry.count(Counter::SessionHit, 1);
            return session.clone();
        }
        telemetry.count(Counter::SessionMiss, 1);
        let key = WatermarkKey::new(seed, self.recognizer.key().input.clone());
        let session = self.recognizer.with_key(key);
        if copies.len() >= MAX_WARM_COPIES {
            if let Some(&victim) = copies.keys().next() {
                copies.remove(&victim);
            }
        }
        copies.insert(seed, session.clone());
        session
    }

    /// Warm per-copy sessions currently resident.
    pub fn warm_copies(&self) -> usize {
        lock(&self.copies).len()
    }

    /// Aggregated decode-cache statistics over the tenant's resident
    /// recognize sessions: the base session plus every warm per-copy
    /// session. A per-copy session holding the *base* key shares the
    /// base session's crypto state (the `with_key` same-key fast path)
    /// and is skipped so its numbers are not double-counted.
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        let mut total = self.recognizer.decode_cache_stats();
        let copies = lock(&self.copies);
        for session in copies.values() {
            if session.key() == self.recognizer.key() {
                continue;
            }
            let s = session.decode_cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
        }
        total
    }
}

/// The daemon's tenant map.
#[derive(Debug)]
pub struct Registry {
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    telemetry: Telemetry,
}

impl Registry {
    /// An empty registry whose sessions report into `telemetry`.
    pub fn new(telemetry: Telemetry) -> Registry {
        Registry {
            tenants: Mutex::new(HashMap::new()),
            telemetry,
        }
    }

    /// Opens a tenant: a repeat `open` with identical parameters is a
    /// warm hit (`true`) returning the resident sessions — decode
    /// caches and all; anything else builds and installs fresh sessions
    /// (`false`), replacing a same-named tenant whose parameters
    /// changed.
    ///
    /// # Errors
    ///
    /// The session builders' validation message (empty secret input,
    /// incoherent config).
    pub fn open(&self, request: &OpenRequest) -> Result<(Arc<Tenant>, bool), String> {
        let key = WatermarkKey::new(request.seed, request.input.clone());
        let base = JavaConfig::for_watermark_bits(request.bits);
        let pieces = request.pieces.unwrap_or(base.num_pieces);
        let config = base.with_pieces(pieces);
        let cap = request.cache_cap.unwrap_or(DEFAULT_DECODE_CACHE_CAP);

        let mut tenants = lock(&self.tenants);
        if let Some(tenant) = tenants.get(&request.tenant) {
            if tenant.embedder.key() == &key
                && tenant.embedder.config() == &config
                && tenant.embedder.decode_cache_cap() == cap
            {
                self.telemetry.count(Counter::SessionHit, 1);
                return Ok((Arc::clone(tenant), true));
            }
        }
        self.telemetry.count(Counter::SessionMiss, 1);
        let embedder = Embedder::builder(key.clone(), config.clone())
            .telemetry(self.telemetry.clone())
            .decode_cache_cap(cap)
            .build()
            .map_err(|e| e.to_string())?;
        let recognizer = Recognizer::builder(key, config)
            .telemetry(self.telemetry.clone())
            .decode_cache_cap(cap)
            .build()
            .map_err(|e| e.to_string())?;
        let tenant = Arc::new(Tenant {
            name: request.tenant.clone(),
            embedder,
            recognizer,
            copies: Mutex::new(HashMap::new()),
        });
        tenants.insert(request.tenant.clone(), Arc::clone(&tenant));
        Ok((tenant, false))
    }

    /// The tenant behind a handle, if open.
    pub fn get(&self, tenant: &str) -> Option<Arc<Tenant>> {
        lock(&self.tenants).get(tenant).cloned()
    }

    /// Open tenants.
    pub fn count(&self) -> usize {
        lock(&self.tenants).len()
    }

    /// Decode-cache statistics summed over every open tenant (tenants
    /// never share crypto state, so a plain sum never double-counts).
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        let tenants: Vec<Arc<Tenant>> = lock(&self.tenants).values().cloned().collect();
        let mut total = DecodeCacheStats::default();
        for tenant in tenants {
            let s = tenant.decode_cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathmark_telemetry::MemorySink;

    fn open_request(tenant: &str, seed: u64) -> OpenRequest {
        OpenRequest {
            tenant: tenant.to_string(),
            seed,
            input: vec![3, 1, 4],
            bits: 64,
            pieces: Some(12),
            cache_cap: None,
        }
    }

    #[test]
    fn repeat_open_is_a_warm_hit_and_changed_params_rebuild() {
        let sink = Arc::new(MemorySink::new());
        let registry = Registry::new(Telemetry::new(sink.clone()));
        let (first, warm) = registry.open(&open_request("acme", 7)).unwrap();
        assert!(!warm);
        let (second, warm) = registry.open(&open_request("acme", 7)).unwrap();
        assert!(warm, "identical params hit the resident sessions");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(sink.counter(Counter::SessionHit), 1);

        let (third, warm) = registry.open(&open_request("acme", 8)).unwrap();
        assert!(!warm, "a re-keyed tenant rebuilds");
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(registry.count(), 1, "replaced, not duplicated");

        // The decode-cache ceiling is part of the warm-hit identity.
        let mut recap = open_request("acme", 8);
        recap.cache_cap = Some(64);
        let (fourth, warm) = registry.open(&recap).unwrap();
        assert!(!warm, "a re-capped tenant rebuilds");
        assert!(!Arc::ptr_eq(&third, &fourth));
        assert_eq!(fourth.recognizer.decode_cache_cap(), 64);
        // Per-copy sessions inherit the tenant's cap via `with_key`.
        assert_eq!(fourth.recognizer_for(42).decode_cache_cap(), 64);
        let (again, warm) = registry.open(&recap).unwrap();
        assert!(warm, "an identical re-open is a warm hit");
        assert!(Arc::ptr_eq(&fourth, &again));
    }

    #[test]
    fn open_rejects_invalid_sessions_with_a_message() {
        let registry = Registry::new(Telemetry::null());
        let mut bad = open_request("acme", 7);
        bad.input = Vec::new();
        let err = registry.open(&bad).unwrap_err();
        assert!(!err.is_empty());
        assert!(registry.get("acme").is_none(), "nothing installed on failure");
    }

    #[test]
    fn tenants_are_isolated_map_entries() {
        let registry = Registry::new(Telemetry::null());
        let (a, _) = registry.open(&open_request("a", 7)).unwrap();
        let (b, _) = registry.open(&open_request("b", 8)).unwrap();
        assert_eq!(registry.count(), 2);
        assert_ne!(a.embedder.key(), b.embedder.key());
        // Same key material under two names still means two resident
        // session sets — no cross-tenant sharing, by construction.
        let (c, warm) = registry.open(&open_request("c", 7)).unwrap();
        assert!(!warm);
        assert_eq!(c.embedder.key(), a.embedder.key());
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn per_copy_sessions_are_cached_per_seed() {
        let sink = Arc::new(MemorySink::new());
        let registry = Registry::new(Telemetry::new(sink.clone()));
        let (tenant, _) = registry.open(&open_request("acme", 7)).unwrap();
        let before = sink.counter(Counter::SessionMiss);
        let first = tenant.recognizer_for(99);
        assert_eq!(sink.counter(Counter::SessionMiss), before + 1);
        let again = tenant.recognizer_for(99);
        assert_eq!(sink.counter(Counter::SessionHit), 1);
        assert_eq!(first.key(), again.key());
        assert_eq!(tenant.warm_copies(), 1);
        tenant.recognizer_for(100);
        assert_eq!(tenant.warm_copies(), 2);
    }
}
