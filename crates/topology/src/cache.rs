//! Memoized reachability: up-set bitmask → interned partition value.
//!
//! [`crate::Network::reachability`] is a pure function of the up-set —
//! the topology itself never changes — so a simulation that recomputes
//! it on every failure/repair event is doing the same union-find over
//! and over. For the paper's 8-site Figure 8 network there are at most
//! 2⁸ = 256 distinct up-sets; a long availability run visits each of
//! them millions of times. The cache computes each partition once,
//! interns it behind an [`Arc`], and turns every subsequent lookup into
//! a table index plus a reference-count bump — no BFS, no allocation.
//! The table is sized to its network: one slot per up-set bitmask of
//! the network's own sites.
//!
//! Memoization cannot change results: the cached value is exactly the
//! value `Network::reachability` returns for that up-set, and the
//! network is immutable while cached (the cache checks this with a
//! debug assertion on the site universe).

use std::collections::HashMap;
use std::sync::Arc;

use dynvote_types::SiteSet;

use crate::network::Network;
use crate::reachability::Reachability;

/// Site universes within this many low bits use the dense
/// direct-indexed table; larger universes fall back to a hash map. The
/// table has one slot per key up to the universe's own bitmask, so the
/// paper's networks (8 sites) use 256 pointers — 2 KiB — and 12 sites,
/// the most the table takes, use 4096 — 32 KiB.
const DENSE_BITS: u32 = 12;

enum Slots {
    /// Indexed directly by the up-set bitmask. `None` = not yet computed.
    Dense(Vec<Option<Arc<Reachability>>>),
    /// General fallback keyed by the up-set bitmask.
    Sparse(HashMap<u64, Arc<Reachability>>),
}

/// An interning memo table for [`Network::reachability`].
///
/// Create one per [`Network`] and route reachability queries through
/// [`ReachabilityCache::get`]. The cache is not `Clone`: a sequence of
/// drivers (e.g. independent replications of a reliability study)
/// passes one warm table from each to the next by value, so every
/// entry is computed once and `misses` counts exactly the entries.
///
/// # Examples
///
/// ```
/// use dynvote_topology::{Network, ReachabilityCache};
/// use dynvote_types::SiteSet;
///
/// let net = Network::single_segment(4);
/// let mut cache = ReachabilityCache::new(&net);
/// let up = SiteSet::from_indices([0, 2]);
/// let a = cache.get(&net, up);
/// let b = cache.get(&net, up);
/// // Same interned value, computed once.
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(*a, net.reachability(up));
/// ```
pub struct ReachabilityCache {
    slots: Slots,
    /// The site universe the cache was built for (debug-checked on use).
    sites: SiteSet,
    /// Lookups answered from the table.
    hits: u64,
    /// Lookups that had to run the union-find.
    misses: u64,
}

impl ReachabilityCache {
    /// An empty cache sized for `network`.
    #[must_use]
    pub fn new(network: &Network) -> Self {
        let sites = network.sites();
        // A key is `(up & sites).bits() <= sites.bits()`.
        let slots = if sites.bits() < (1u64 << DENSE_BITS) {
            Slots::Dense(vec![None; sites.bits() as usize + 1])
        } else {
            Slots::Sparse(HashMap::new())
        };
        ReachabilityCache {
            slots,
            sites,
            hits: 0,
            misses: 0,
        }
    }

    /// The interned reachability for `up`, computing and caching it on
    /// first use. Equivalent to `network.reachability(up)` in every
    /// observable way.
    ///
    /// `network` must be the network the cache was created for; mixing
    /// networks is a logic error caught by a debug assertion.
    #[must_use]
    pub fn get(&mut self, network: &Network, up: SiteSet) -> Arc<Reachability> {
        debug_assert_eq!(
            network.sites(),
            self.sites,
            "cache used with a different network"
        );
        let key = (up & self.sites).bits();
        match &mut self.slots {
            Slots::Dense(table) => {
                if let Some(cached) = &table[key as usize] {
                    self.hits += 1;
                    return Arc::clone(cached);
                }
                self.misses += 1;
                let value = Arc::new(network.reachability(up));
                table[key as usize] = Some(Arc::clone(&value));
                value
            }
            Slots::Sparse(map) => {
                if let Some(cached) = map.get(&key) {
                    self.hits += 1;
                    return Arc::clone(cached);
                }
                self.misses += 1;
                let value = Arc::new(network.reachability(up));
                map.insert(key, Arc::clone(&value));
                value
            }
        }
    }

    /// Number of distinct up-sets computed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Dense(table) => table.iter().filter(|s| s.is_some()).count(),
            Slots::Sparse(map) => map.len(),
        }
    }

    /// `true` when no up-set has been computed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.misses == 0
    }

    /// Lookups answered without running the union-find.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that computed (and interned) a new partition.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl core::fmt::Debug for ReachabilityCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ReachabilityCache")
            .field("entries", &self.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use proptest::prelude::*;

    fn two_segment() -> Network {
        NetworkBuilder::new()
            .segment("alpha", [0, 1, 2])
            .segment("beta", [3, 4])
            .bridge(2, "beta")
            .build()
            .unwrap()
    }

    #[test]
    fn cached_equals_fresh_for_every_up_set() {
        let net = two_segment();
        let mut cache = ReachabilityCache::new(&net);
        for mask in 0u64..32 {
            let up = SiteSet::from_bits(mask);
            assert_eq!(*cache.get(&net, up), net.reachability(up), "mask {mask:#b}");
        }
        assert_eq!(cache.len(), 32);
    }

    #[test]
    fn repeat_lookups_hit_and_intern() {
        let net = two_segment();
        let mut cache = ReachabilityCache::new(&net);
        let up = SiteSet::from_indices([0, 1, 3]);
        let a = cache.get(&net, up);
        let b = cache.get(&net, up);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must return the intern");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn out_of_universe_bits_are_masked() {
        let net = two_segment();
        let mut cache = ReachabilityCache::new(&net);
        // Bits outside the 5-site universe must not create new entries.
        let a = cache.get(&net, SiteSet::from_bits(0b11));
        let b = cache.get(&net, SiteSet::from_bits(0b11 | (1 << 40)));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn the_dense_table_is_sized_to_its_network() {
        let slots = |n| match ReachabilityCache::new(&Network::single_segment(n)).slots {
            Slots::Dense(table) => Some(table.len()),
            Slots::Sparse(_) => None,
        };
        assert_eq!(slots(8), Some(256));
        assert_eq!(slots(12), Some(4096));
        assert_eq!(slots(13), None);
    }

    #[test]
    fn sparse_fallback_for_wide_universes() {
        // A universe using site indices ≥ DENSE_BITS forces the hash
        // path; behaviour must be identical.
        let net = NetworkBuilder::new()
            .segment("hi", [20, 21, 22])
            .segment("lo", [30])
            .bridge(22, "lo")
            .build()
            .unwrap();
        let mut cache = ReachabilityCache::new(&net);
        for up in [
            SiteSet::from_indices([20, 21, 22, 30]),
            SiteSet::from_indices([20, 30]),
            SiteSet::from_indices([20, 21, 22, 30]),
        ] {
            assert_eq!(*cache.get(&net, up), net.reachability(up));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 1);
    }

    /// Random networks over up to 12 sites: 2-4 segments of random
    /// sizes, random gateway bridges (possibly none, possibly chained).
    fn arb_network() -> impl Strategy<Value = Network> {
        (2usize..5, proptest::collection::vec(0usize..12, 0..4)).prop_map(
            |(n_seg, bridge_picks)| {
                // Deal 12 sites round-robin into n_seg segments.
                let mut builder = NetworkBuilder::new();
                let names = ["a", "b", "c", "d"];
                for (seg, name) in names.iter().enumerate().take(n_seg) {
                    let members: Vec<usize> = (0..12).filter(|s| s % n_seg == seg).collect();
                    builder = builder.segment(name, members);
                }
                // Each pick bridges its home-segment gateway to the next
                // segment over (skipping self-bridges by construction).
                for site in bridge_picks {
                    let home = site % n_seg;
                    let to = names[(home + 1) % n_seg];
                    builder = builder.bridge(site, to);
                }
                builder.build().expect("generator produces valid networks")
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For random networks (≤ 12 sites, random bridges) and *all*
        /// 2¹² up-sets, the cached reachability equals a fresh BFS.
        #[test]
        fn cache_agrees_with_fresh_bfs_exhaustively(net in arb_network()) {
            let mut cache = ReachabilityCache::new(&net);
            for mask in 0u64..(1 << 12) {
                let up = SiteSet::from_bits(mask);
                let cached = cache.get(&net, up);
                let fresh = net.reachability(up);
                prop_assert_eq!(&*cached, &fresh, "mask {:#014b}", mask);
            }
            // Second sweep: everything must now be a hit, and still agree.
            let misses_after_first = cache.misses();
            for mask in 0u64..(1 << 12) {
                let up = SiteSet::from_bits(mask);
                prop_assert_eq!(&*cache.get(&net, up), &net.reachability(up));
            }
            prop_assert_eq!(cache.misses(), misses_after_first, "second sweep recomputed");
        }
    }
}
