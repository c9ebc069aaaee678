//! The protocol state the simulator's policies leave behind, pinned.
//!
//! `pinned_tables.rs` pins what the simulator *measures*; this pins
//! what it *commits*. Each dynamic rule (DV, LDV, ODV, TDV, OTDV, and
//! LDV and ODV with a witness) walks every Figure 8 placement through
//! random failures, repairs and accesses, and after every step the
//! settled `⟨o, v, P⟩` of every voter is folded into one digest per
//! policy. A change to how a policy commits (which sites, which
//! operation number, which partition set) moves a digest even when no
//! availability figure moves.
//!
//! The policies are built with their named constructors, so a change to
//! the family's generic constructor never touches this file.

use dynvote_availability::network::ucsd_network;
use dynvote_availability::ALL_CONFIGS;
use dynvote_core::policy::{AvailabilityPolicy, DynamicPolicy};
use dynvote_sim::SimRng;
use dynvote_topology::Network;
use dynvote_types::{SiteId, SiteSet};

/// Steps per walk: each a site flip (a topology change) or an access.
const STEPS: usize = 1_500;
/// The user seed; walk `i` draws from its stream `i`.
const SEED: u64 = 0x5747_4154;

/// One digest per policy, folded over the eight placements A–H.
const PINNED: [(&str, u64); 7] = [
    ("DV", 0x2250_f648_c10c_5b15),
    ("LDV", 0x488d_6350_ecf5_980e),
    ("ODV", 0x04ad_2f20_e6d0_762b),
    ("TDV", 0x0c7b_a940_7a68_a9aa),
    ("OTDV", 0x3242_42c3_5bb0_2528),
    ("LDV+W", 0xf8ba_0add_56fa_d987),
    ("ODV+W", 0x8958_5130_a033_667f),
];

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The seven policies on `copies`. A witness variant makes the copy
/// the default lexicon ranks highest (the lowest site) a witness and
/// keeps data on the others, so the witness can win a tie alone and be
/// refused for want of a copy.
fn policies(copies: SiteSet, network: &Network) -> Vec<DynamicPolicy> {
    let top = SiteSet::singleton(copies.min().expect("a placement has copies"));
    let full = copies - top;
    vec![
        DynamicPolicy::dv(copies),
        DynamicPolicy::ldv(copies),
        DynamicPolicy::odv(copies),
        DynamicPolicy::tdv(copies, network.clone()),
        DynamicPolicy::otdv(copies, network.clone()),
        DynamicPolicy::ldv(full).with_witnesses(top),
        DynamicPolicy::odv(full).with_witnesses(top),
    ]
}

/// Walks `policy` from every site up and folds every step's verdict,
/// hazard count and settled state table into `digest`.
fn walk(policy: &mut DynamicPolicy, network: &Network, rng: &mut SimRng, digest: &mut Digest) {
    let mut up = network.sites();
    let sites = up.len();
    for _ in 0..STEPS {
        let reach = if rng.below(3) < 2 {
            let site = SiteId::new(rng.below(sites));
            if up.contains(site) {
                up.remove(site);
            } else {
                up.insert(site);
            }
            let reach = network.reachability(up);
            digest.word(u64::from(policy.on_topology_change(&reach)));
            reach
        } else {
            let reach = network.reachability(up);
            digest.word(u64::from(policy.on_access(&reach)) | 2);
            reach
        };
        digest.word(u64::from(policy.is_available(&reach)));
        digest.word(policy.rival_grants());
        let voters = policy.copies();
        let states = policy.states();
        for site in voters.iter() {
            let state = states.get(site);
            digest.word(state.op);
            digest.word(state.version);
            digest.word(state.partition.bits());
        }
    }
}

#[test]
fn settled_states_on_figure_8_are_pinned() {
    let network = ucsd_network();
    let mut digests: Vec<(String, Digest)> = Vec::new();
    let mut stream = 0;
    for config in ALL_CONFIGS {
        for (i, mut policy) in policies(config.copies, &network).into_iter().enumerate() {
            if digests.len() == i {
                digests.push((policy.name().to_string(), Digest::new()));
            }
            let mut rng = SimRng::substream(SEED, stream);
            stream += 1;
            walk(&mut policy, &network, &mut rng, &mut digests[i].1);
        }
    }
    let got: Vec<(&str, u64)> = digests
        .iter()
        .map(|(name, digest)| (name.as_str(), digest.0))
        .collect();
    assert_eq!(
        got, PINNED,
        "a policy's committed states moved; digests now: {got:#x?}"
    );
}
