//! Sharded embedding-cache backend for the DT-assisted predictor.
//!
//! Routes each twin's cached CNN encoding to the cache slice owned by
//! the user's shard, so a handover can migrate the entry alongside the
//! twin and the cache stays hit-correct after a move. Feature matrices
//! are bit-identical to the single-cache backend (a cached row equals a
//! fresh encode); only the hit/miss split can differ.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use msvs_core::cache::{CachePlan, CachedEmbedding, EmbeddingBackend, EmbeddingCache};
use msvs_types::UserId;
use msvs_udt::UserDigitalTwin;

/// The predictor-side view of the per-shard embedding caches.
///
/// Shares the cache slices (via `Arc<Mutex<_>>`) and the ownership map
/// (via `Arc<RwLock<_>>`) with the `ShardCoordinator`, which mutates
/// both during the serial handover sweep between intervals.
#[derive(Debug)]
pub struct ShardedEmbeddingBackend {
    caches: Vec<Arc<Mutex<EmbeddingCache>>>,
    owner: Arc<RwLock<HashMap<UserId, usize>>>,
}

impl ShardedEmbeddingBackend {
    /// Builds a backend over per-shard cache slices and the shared
    /// ownership map.
    ///
    /// # Panics
    /// Panics on an empty cache set — a deployment has at least one
    /// shard.
    pub fn new(
        caches: Vec<Arc<Mutex<EmbeddingCache>>>,
        owner: Arc<RwLock<HashMap<UserId, usize>>>,
    ) -> Self {
        assert!(!caches.is_empty(), "backend needs at least one shard cache");
        Self { caches, owner }
    }

    /// The owning shard for `user`; unknown users (mid-churn) fall to
    /// shard 0 deterministically, mirroring the aggregator.
    fn shard_of(&self, owner: &HashMap<UserId, usize>, user: UserId) -> usize {
        owner
            .get(&user)
            .copied()
            .unwrap_or(0)
            .min(self.caches.len() - 1)
    }

    /// The cache slice holding `user`'s entry.
    fn cache_of(
        &self,
        owner: &HashMap<UserId, usize>,
        user: UserId,
    ) -> MutexGuard<'_, EmbeddingCache> {
        self.caches[self.shard_of(owner, user)]
            .lock()
            .expect("embedding cache lock poisoned")
    }

    /// Plans `twins` for compressor `generation` under `stale`, applied
    /// to the cache slice of each twin's owning shard.
    fn plan_with(
        &self,
        generation: u64,
        twins: &[UserDigitalTwin],
        stale: impl Fn(&EmbeddingCache, &UserDigitalTwin) -> bool,
    ) -> CachePlan {
        for cache in &self.caches {
            cache
                .lock()
                .expect("embedding cache lock poisoned")
                .sync_generation(generation);
        }
        let owner = self.owner.read().expect("owner map lock poisoned");
        CachePlan::from_stale(twins, |t| stale(&self.cache_of(&owner, t.user()), t))
    }
}

impl EmbeddingBackend for ShardedEmbeddingBackend {
    fn plan(&mut self, generation: u64, twins: &[UserDigitalTwin]) -> CachePlan {
        self.plan_with(generation, twins, EmbeddingCache::is_stale)
    }

    fn plan_incremental(
        &mut self,
        generation: u64,
        twins: &[UserDigitalTwin],
        dirty: &HashSet<UserId>,
    ) -> CachePlan {
        self.plan_with(generation, twins, |cache, t| {
            cache.is_stale_incremental(t, dirty)
        })
    }

    fn complete(
        &mut self,
        twins: &[UserDigitalTwin],
        plan: &CachePlan,
        fresh: Vec<Vec<f64>>,
    ) -> Vec<Vec<f64>> {
        assert_eq!(
            fresh.len(),
            plan.miss_indices.len(),
            "fresh encodings must match planned misses"
        );
        let owner = self.owner.read().expect("owner map lock poisoned");
        for (&i, features) in plan.miss_indices.iter().zip(fresh) {
            let user = twins[i].user();
            let mut cache = self.cache_of(&owner, user);
            let generation = cache.generation();
            cache.put(
                generation,
                user,
                CachedEmbedding {
                    revision: twins[i].revision(),
                    features,
                },
            );
        }
        // Prune departed users per shard so churned slots cannot leak
        // entries, then assemble the matrix in snapshot order.
        let mut live: Vec<HashSet<UserId>> = vec![HashSet::new(); self.caches.len()];
        for t in twins {
            live[self.shard_of(&owner, t.user())].insert(t.user());
        }
        for (cache, live) in self.caches.iter().zip(&live) {
            let mut cache = cache.lock().expect("embedding cache lock poisoned");
            if cache.len() > live.len() {
                cache.retain_users(live);
            }
        }
        twins
            .iter()
            .map(|t| {
                self.cache_of(&owner, t.user())
                    .lookup(t.user())
                    .expect("entry just installed or hit")
                    .features
                    .clone()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::SimTime;

    fn twin(id: u32) -> UserDigitalTwin {
        let mut t = UserDigitalTwin::new(UserId(id));
        t.update_channel(SimTime::from_secs(1), 10.0 + id as f64);
        t
    }

    fn backend(n: usize, owner: &[(u32, usize)]) -> ShardedEmbeddingBackend {
        let caches = (0..n)
            .map(|_| Arc::new(Mutex::new(EmbeddingCache::new())))
            .collect();
        let owner = Arc::new(RwLock::new(
            owner.iter().map(|&(u, s)| (UserId(u), s)).collect(),
        ));
        ShardedEmbeddingBackend::new(caches, owner)
    }

    #[test]
    fn routes_entries_to_owner_shards_and_hits_after() {
        let mut b = backend(2, &[(0, 0), (1, 1), (2, 1)]);
        let twins = vec![twin(0), twin(1), twin(2)];
        let plan = b.plan(4, &twins);
        assert_eq!(plan.miss_indices, vec![0, 1, 2]);
        let rows: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64; 2]).collect();
        let features = b.complete(&twins, &plan, rows.clone());
        assert_eq!(features, rows);
        assert_eq!(b.caches[0].lock().unwrap().len(), 1);
        assert_eq!(b.caches[1].lock().unwrap().len(), 2);
        // Unchanged twins: all hits, identical matrix.
        let plan = b.plan(4, &twins);
        assert_eq!(plan.hits, 3);
        assert_eq!(b.complete(&twins, &plan, Vec::new()), rows);
    }

    #[test]
    fn migrated_entry_hits_in_the_new_shard() {
        let mut b = backend(2, &[(5, 0)]);
        let twins = vec![twin(5)];
        let plan = b.plan(1, &twins);
        b.complete(&twins, &plan, vec![vec![9.0]]);
        // Simulate the coordinator's handover: move the entry and flip
        // ownership.
        let entry = b.caches[0].lock().unwrap().take(UserId(5)).unwrap();
        b.caches[1].lock().unwrap().put(1, UserId(5), entry);
        b.owner.write().unwrap().insert(UserId(5), 1);
        let plan = b.plan(1, &twins);
        assert_eq!(plan.hits, 1, "cache stays hit-correct after the move");
    }

    #[test]
    fn incremental_plan_survives_revision_bumps_but_not_handover_drops() {
        let mut b = backend(2, &[(0, 0), (1, 1)]);
        let mut twins = vec![twin(0), twin(1)];
        let plan = b.plan(1, &twins);
        b.complete(&twins, &plan, vec![vec![0.0], vec![1.0]]);
        // Routine revision bump: incremental keeps the cached row.
        twins[0].update_channel(SimTime::from_secs(2), 3.0);
        let none = HashSet::new();
        let plan = b.plan_incremental(1, &twins, &none);
        assert_eq!(plan.hits, 2);
        // A handover whose report was lost drops the entry: absence
        // forces a re-encode even in incremental mode.
        b.caches[1].lock().unwrap().take(UserId(1));
        b.owner.write().unwrap().insert(UserId(1), 0);
        let plan = b.plan_incremental(1, &twins, &none);
        assert_eq!(plan.miss_indices, vec![1]);
        // Explicit dirty set wins over a cached entry.
        let dirty: HashSet<UserId> = [UserId(0)].into();
        let plan = b.plan_incremental(1, &twins, &dirty);
        assert_eq!(plan.miss_indices, vec![0, 1]);
    }

    #[test]
    fn generation_change_invalidates_every_shard() {
        let mut b = backend(2, &[(0, 0), (1, 1)]);
        let twins = vec![twin(0), twin(1)];
        let plan = b.plan(1, &twins);
        b.complete(&twins, &plan, vec![vec![0.0], vec![1.0]]);
        let plan = b.plan(2, &twins);
        assert_eq!(plan.miss_indices, vec![0, 1]);
    }
}
