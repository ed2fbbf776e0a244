//! The buffer pool's LRU eviction against the seed victim model: a
//! single-shard pool replays an arbitrary page trace with exactly the hits,
//! faults, evictions and final resident set of a reference recency list.

mod common;

use common::disk_with_pages;
use proptest::prelude::*;
use rnn_storage::{BufferPool, IoCounters, PageId};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A single-shard LRU pool stays bit-compatible with the seed victim
    /// model: hits, faults and evictions match an exact reference LRU after
    /// every access, and exactly the model's resident set is in the pool.
    #[test]
    fn single_shard_lru_matches_the_seed_victim_model(
        num_pages in 2usize..32,
        capacity in 1usize..12,
        trace in proptest::collection::vec(0usize..32, 1..64),
    ) {
        let pool = BufferPool::new(disk_with_pages(num_pages), capacity, IoCounters::new());
        // The seed model: a recency list, most recent last; faults insert at
        // the tail and evict the head once over capacity.
        let mut model: Vec<PageId> = Vec::new();
        let (mut hits, mut faults, mut evictions) = (0u64, 0u64, 0u64);
        for &i in &trace {
            let id = PageId::new(i % num_pages);
            if let Some(pos) = model.iter().position(|&p| p == id) {
                model.remove(pos);
                model.push(id);
                hits += 1;
            } else {
                faults += 1;
                model.push(id);
                if model.len() > capacity {
                    model.remove(0);
                    evictions += 1;
                }
            }
            pool.fetch(id).expect("page in range");
            let s = pool.io_stats().total;
            prop_assert_eq!(
                (s.hits, s.faults, s.evictions),
                (hits, faults, evictions),
                "after access {:?} the pool must match the seed LRU model", id
            );
        }
        prop_assert_eq!(pool.resident_pages(), model.len());
        // Touching the model's resident set must be all hits: together with
        // the size equality this pins the resident sets as identical.
        let before = pool.io_stats().total;
        for &id in &model {
            pool.fetch(id).expect("page in range");
        }
        let after = pool.io_stats().total;
        prop_assert_eq!(after.hits - before.hits, model.len() as u64);
        prop_assert_eq!(after.faults, before.faults);
    }
}
