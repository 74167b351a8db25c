//! Decoded delta bases, kept between saves.
//!
//! A delta save XORs each changed payload against the same logical key's
//! object in the previous checkpoint. The previous save held exactly
//! those decoded bytes — it hashed them to name the object — so the run
//! keeps them here instead of re-materializing the chain (every hop read,
//! LZSS-decoded and SHA-256ed) one step later.
//!
//! Entries are keyed by the digest of the bytes they hold, which *is* the
//! object name: an entry can be stale (its object pruned, compacted or
//! swept, the run rolled back to an older checkpoint) but never wrong.
//! Whether an object may serve as a base at all — it exists, its chain
//! has headroom — is still read from the store by the save; the cache
//! only spares the decode. Readers never see it: restore and verify go
//! through [`crate::ObjectStore::materialize`] and its per-hop digest
//! checks.

use crate::Digest;
use llmt_obs::Gauge;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The decoded images one save staged for its store misses, available to
/// the next save as delta bases. Bounded by construction: a save *takes*
/// the bases it uses and [`BaseCache::commit`] drops whatever it did not
/// re-insert, so resident bytes never exceed one save's missed logical
/// bytes plus the not-yet-taken rest of the previous save's.
#[derive(Debug, Default)]
pub struct BaseCache {
    inner: Mutex<Inner>,
    /// Resident-bytes gauge the entries are accounted under.
    resident: Option<Arc<Gauge>>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Images of the last committed save, minus those already taken.
    kept: BTreeMap<Digest, Vec<u8>>,
    /// Images inserted by the save in progress.
    fresh: BTreeMap<Digest, Vec<u8>>,
}

impl BaseCache {
    /// An empty cache whose resident bytes are also booked on `resident`.
    pub fn with_gauge(resident: Arc<Gauge>) -> Self {
        BaseCache {
            inner: Mutex::default(),
            resident: Some(resident),
        }
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Every update is a single map operation: a panic elsewhere in a
        // save cannot leave the maps half-written.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn release(&self, bytes: usize) {
        if let Some(g) = &self.resident {
            g.sub(bytes as u64);
        }
    }

    /// Remove and return the decoded image named `digest`, if the last
    /// committed save left it. The caller owns it from here on; a save
    /// that fails after taking a base leaves the next one to find it
    /// cold.
    pub fn take(&self, digest: Digest) -> Option<Vec<u8>> {
        let image = self.inner().kept.remove(&digest)?;
        self.release(image.len());
        Some(image)
    }

    /// Hold `image`, whose SHA-256 the caller has computed as `digest`,
    /// for the save after the one in progress.
    pub fn insert(&self, digest: Digest, image: Vec<u8>) {
        let len = image.len();
        if let Some(old) = self.inner().fresh.insert(digest, image) {
            self.release(old.len());
        }
        if let Some(g) = &self.resident {
            g.add(len as u64);
        }
    }

    /// The save in progress committed: its inserts are the cache now,
    /// everything older is dropped.
    pub fn commit(&self) {
        let mut inner = self.inner();
        let fresh = std::mem::take(&mut inner.fresh);
        let dropped = std::mem::replace(&mut inner.kept, fresh);
        self.release(dropped.values().map(Vec::len).sum());
    }

    /// The save in progress failed: drop its inserts, keep what is left
    /// of the last committed save's.
    pub fn abort(&self) {
        let dropped = std::mem::take(&mut self.inner().fresh);
        self.release(dropped.values().map(Vec::len).sum());
    }

    /// Bytes of decoded images currently held.
    pub fn resident_bytes(&self) -> u64 {
        let inner = self.inner();
        inner
            .kept
            .values()
            .chain(inner.fresh.values())
            .map(|image| image.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_save_takes_bases_and_commit_keeps_only_its_inserts() {
        let gauge = Arc::new(Gauge::default());
        let cache = BaseCache::with_gauge(gauge.clone());
        let (a, b, c) = (vec![1u8; 10], vec![2u8; 20], vec![3u8; 40]);
        let (da, db, dc) = (Digest::of(&a), Digest::of(&b), Digest::of(&c));
        cache.insert(da, a.clone());
        cache.insert(db, b);
        assert_eq!(cache.take(dc), None);
        cache.commit();
        assert_eq!((cache.resident_bytes(), gauge.current()), (30, 30));

        // The next save uses `a` as a base, replaces it with `c`, and
        // never touches `b` (its key became a dedup hit).
        assert_eq!(cache.take(da), Some(a));
        assert_eq!(cache.take(da), None);
        cache.insert(dc, c);
        assert_eq!(cache.resident_bytes(), 60);
        cache.commit();
        assert_eq!((cache.resident_bytes(), gauge.current()), (40, 40));
        assert_eq!(cache.take(db), None);
        assert_eq!(gauge.peak(), 60);
    }

    #[test]
    fn abort_drops_the_failed_saves_inserts_only() {
        let cache = BaseCache::default();
        let (a, b) = (vec![1u8; 10], vec![2u8; 20]);
        cache.insert(Digest::of(&a), a.clone());
        cache.commit();
        cache.insert(Digest::of(&b), b.clone());
        cache.insert(Digest::of(&b), b.clone());
        assert_eq!(cache.resident_bytes(), 30);
        cache.abort();
        assert_eq!(cache.resident_bytes(), 10);
        assert_eq!(cache.take(Digest::of(&b)), None);
        assert_eq!(cache.take(Digest::of(&a)), Some(a));
    }
}
