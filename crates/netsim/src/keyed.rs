//! The two pieces every keyed process model shares: the SplitMix64
//! finalizer that turns a `(seed, key)` pair into a well-mixed stream seed,
//! and the lazily materialized per-key cache the congestion, failure and
//! churn processes live in.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// SplitMix64 finalizer: decorrelates sequential keys and seeds.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `bb_exec::derive_seed`, restated so the faulted kernel seeds its
/// `(session, attempt)` streams with an inlined call: the SplitMix64
/// finalizer over `seed ^ index·φ`.
#[inline(always)]
pub(crate) fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Values materialized once per `u64` key and handed out as shared
/// handles. A miss takes the write lock and re-checks, so a racing worker
/// never materializes the same key twice.
pub(crate) struct KeyedCache<V: ?Sized> {
    map: RwLock<HashMap<u64, Arc<V>>>,
    /// Counts the misses that the re-check found already filled.
    races: Option<&'static AtomicUsize>,
}

impl<V: ?Sized> KeyedCache<V> {
    pub(crate) fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            races: None,
        }
    }

    /// A cache that adds every race its re-check closes to `races`.
    pub(crate) fn counting_races(races: &'static AtomicUsize) -> Self {
        Self {
            races: Some(races),
            ..Self::new()
        }
    }

    /// The value of `key`, built by `make` on first use.
    pub(crate) fn get_or_make(&self, key: u64, make: impl FnOnce() -> Arc<V>) -> Arc<V> {
        if let Some(v) = self.map.read().get(&key) {
            return Arc::clone(v);
        }
        let mut map = self.map.write();
        if let Some(v) = map.get(&key) {
            if let Some(races) = self.races {
                races.fetch_add(1, Ordering::Relaxed);
            }
            return Arc::clone(v);
        }
        let v = make();
        map.insert(key, Arc::clone(&v));
        v
    }
}
