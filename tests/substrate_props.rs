//! Property tests on the substrates: topology reachability, the exponential
//! sampler, and vote arithmetic. These are the foundations every
//! availability number rests on.

use dynamic_voting::sim::SimRng;
use dynamic_voting::topology::{Network, NetworkBuilder};
use dynamic_voting::types::{SiteId, SiteSet, VoteMap};
use proptest::prelude::*;

/// An arbitrary (valid) three-segment network over 9 sites with
/// gateways chosen by the generator.
fn arb_network() -> impl Strategy<Value = Network> {
    // Gateways: one member of segment A bridging to B, one bridging to C.
    (0usize..3, 0usize..3).prop_map(|(gw_b, gw_c)| {
        NetworkBuilder::new()
            .segment("a", [0, 1, 2])
            .segment("b", [3, 4, 5])
            .segment("c", [6, 7, 8])
            .bridge(gw_b, "b")
            .bridge(gw_c, "c")
            .build()
            .expect("generator produces valid topologies")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reachability groups are always a partition of the up sites.
    #[test]
    fn reachability_is_a_partition(net in arb_network(), up_bits in 0u64..512) {
        let up = SiteSet::from_bits(up_bits);
        let reach = net.reachability(up);
        let mut union = SiteSet::EMPTY;
        for &g in reach.groups() {
            prop_assert!(!g.is_empty());
            prop_assert!(union.is_disjoint(g));
            union |= g;
        }
        prop_assert_eq!(union, up & net.sites());
    }

    /// Bringing a site up only *coarsens* the partition: every group of
    /// the smaller up-set is contained in a single group of the larger.
    /// (Repairs can merge partitions; they can never split one.)
    #[test]
    fn repairs_coarsen_reachability(net in arb_network(), up_bits in 0u64..512, extra in 0usize..9) {
        let up = SiteSet::from_bits(up_bits) & net.sites();
        let more = up.with(SiteId::new(extra));
        let before = net.reachability(up);
        let after = net.reachability(more);
        for &g in before.groups() {
            let containing = after
                .groups()
                .iter()
                .filter(|&&h| !(g & h).is_empty())
                .count();
            prop_assert_eq!(containing, 1, "group {} split by a repair", g);
            let host = after
                .groups()
                .iter()
                .find(|&&h| g.is_subset_of(h))
                .copied();
            prop_assert!(host.is_some(), "group {} not contained after repair", g);
        }
    }

    /// Co-segment sites are in the same group whenever both are up —
    /// the non-partitionable-segment axiom TDV relies on.
    #[test]
    fn co_segment_sites_never_separate(net in arb_network(), up_bits in 0u64..512) {
        let up = SiteSet::from_bits(up_bits) & net.sites();
        let reach = net.reachability(up);
        for a in up.iter() {
            for b in up.iter() {
                if net.same_segment(a, b) {
                    prop_assert!(
                        reach.can_communicate(a, b),
                        "{a} and {b} share a segment but were separated"
                    );
                }
            }
        }
    }

    /// Vote arithmetic: group votes are additive over disjoint groups
    /// and bounded by the total; at most one of two disjoint groups can
    /// hold a strict majority.
    #[test]
    fn vote_map_arithmetic(
        weights in proptest::collection::vec(0u32..5, 8),
        split in 0u64..256,
    ) {
        let mut votes = VoteMap::empty();
        for (i, &w) in weights.iter().enumerate() {
            votes.set(SiteId::new(i), w);
        }
        let all = SiteSet::first_n(8);
        let a = SiteSet::from_bits(split) & all;
        let b = all - a;
        prop_assert_eq!(votes.of(a) + votes.of(b), votes.total());
        prop_assert!(votes.of(a) <= votes.total());
        prop_assert!(
            !(votes.is_strict_majority(a) && votes.is_strict_majority(b)),
            "two disjoint strict majorities"
        );
    }

    /// The RNG's exponential sampler is memoryless enough for our use:
    /// all draws positive, and the empirical mean of a big batch lands
    /// near the requested mean.
    #[test]
    fn exponential_sampler_sane(seed in any::<u64>(), mean_x10 in 1u32..100) {
        let mean = f64::from(mean_x10) / 10.0;
        let mut rng = SimRng::new(seed);
        let n = 4_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let draw = rng.exponential(mean);
            prop_assert!(draw >= 0.0);
            sum += draw;
        }
        let sample_mean = sum / f64::from(n);
        // 6 sigma of the sample-mean distribution (σ = mean/√n).
        let tolerance = 6.0 * mean / f64::from(n).sqrt();
        prop_assert!(
            (sample_mean - mean).abs() < tolerance,
            "mean {sample_mean} vs {mean} (tolerance {tolerance})"
        );
    }
}
