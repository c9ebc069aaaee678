//! Vote reassignment (\[BGS86\], proxy transfer) and LDV are the same
//! availability state machine at three copies: a majority group hands
//! the absent copies' votes to its top site, which is exactly the site
//! that wins LDV's tie on the shrunken partition set. The identity is
//! pinned here on one segment and on configurations A and D of the
//! Figure 8 network, under random liveness walks: after every topology
//! change both policies report the same availability. At four copies
//! the two part ways, and `weight_study`'s rows E–H read differently.

use dynvote_availability::network::ucsd_network;
use dynvote_availability::{CONFIG_A, CONFIG_D};
use dynvote_core::policy::{AvailabilityPolicy, DynamicPolicy, VoteReassignmentPolicy};
use dynvote_sim::SimRng;
use dynvote_topology::Network;
use dynvote_types::{SiteId, SiteSet};

const SEED: u64 = 0xB659_0018;
const WALKS: u64 = 50;
const FLIPS: usize = 2_000;

/// Steps where the two policies disagreed, and the first as
/// `(walk, flip)`.
struct Divergence {
    steps: usize,
    first: Option<(u64, usize)>,
}

/// Runs [`WALKS`] walks of [`FLIPS`] liveness flips over every site of
/// `network`, from all sites up, each walk on its own substream of
/// [`SEED`], and compares vote reassignment with LDV on `copies` after
/// every flip: both the value `on_topology_change` returns and the
/// `is_available` probe.
fn divergence(network: &Network, copies: SiteSet) -> Divergence {
    let sites: Vec<SiteId> = network.sites().iter().collect();
    let mut divergence = Divergence {
        steps: 0,
        first: None,
    };
    for walk in 0..WALKS {
        let mut rng = SimRng::substream(SEED, walk);
        let mut reassign = VoteReassignmentPolicy::uniform(copies);
        let mut ldv = DynamicPolicy::ldv(copies);
        let mut up = network.sites();
        for flip in 0..FLIPS {
            let site = sites[rng.below(sites.len())];
            if !up.remove(site) {
                up.insert(site);
            }
            let reach = network.reachability(up);
            let changed = reassign.on_topology_change(&reach) != ldv.on_topology_change(&reach);
            if changed || reassign.is_available(&reach) != ldv.is_available(&reach) {
                divergence.steps += 1;
                divergence.first.get_or_insert((walk, flip));
            }
        }
    }
    divergence
}

fn assert_identical(network: &Network, copies: SiteSet, what: &str) {
    let found = divergence(network, copies);
    assert_eq!(
        found.steps, 0,
        "{what}: vote reassignment and LDV differ on {} steps, first at (walk, flip) {:?}",
        found.steps, found.first
    );
}

#[test]
fn three_copies_on_one_segment_reassign_votes_as_ldv_decides() {
    let network = Network::single_segment(3);
    assert_identical(&network, SiteSet::first_n(3), "one segment");
}

#[test]
fn configuration_a_reassigns_votes_as_ldv_decides() {
    assert_identical(&ucsd_network(), CONFIG_A.copies, "configuration A");
}

#[test]
fn configuration_d_reassigns_votes_as_ldv_decides() {
    assert_identical(&ucsd_network(), CONFIG_D.copies, "configuration D");
}

#[test]
fn four_copies_on_one_segment_part_ways() {
    let found = divergence(&Network::single_segment(4), SiteSet::first_n(4));
    assert!(found.steps > 0, "four copies never told the two apart");
}
