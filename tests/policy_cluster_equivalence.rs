//! The strongest coherence check in the repository: the availability
//! simulator's policy state machines and the message-level replicated
//! store are *the same protocol*.
//!
//! Both are driven through identical failure/repair/access traces; at
//! every step the policy's `is_available` probe must agree with the
//! cluster's message-level `probe`. Any divergence would mean the
//! numbers in the reproduced Tables 2 and 3 are measuring something
//! other than what the store actually does.

use dynamic_voting::core::policy::{AvailabilityPolicy, DynamicPolicy};
use dynamic_voting::core::Lexicon;
use dynamic_voting::replica::{Cluster, ClusterBuilder, Protocol};
use dynamic_voting::sim::SimRng;
use dynamic_voting::topology::Network;
use dynamic_voting::types::{SiteId, SiteSet};

/// One random walk over the sites of `network`, of which `witnesses`
/// hold no data: flip site liveness; at random points run an "access"
/// (a read at a random up site, retried across sites the way the
/// paper's single user may reach any of them). After every event both
/// sides must agree on availability.
fn equivalence_walk(
    builder: ClusterBuilder,
    mut policy: Box<dyn AvailabilityPolicy>,
    network: Network,
    witnesses: SiteSet,
    optimistic: bool,
    seed: u64,
    steps: usize,
) {
    let n = network.sites().len();
    let full = network.sites() - witnesses;
    let mut cluster: Cluster<u64> = builder
        .network(network.clone())
        .copies(full.iter().map(SiteId::index))
        .witnesses(witnesses.iter().map(SiteId::index))
        .build_with_value(0);
    let protocol = cluster.protocol();
    let mut rng = SimRng::new(seed);
    let mut up = SiteSet::first_n(n);
    policy.reset();
    policy.on_topology_change(&network.reachability(up));
    let mut counter = 1u64;

    for step in 0..steps {
        if rng.bernoulli(0.7) {
            // Topology event.
            let site = SiteId::new(rng.below(n));
            if up.contains(site) {
                up.remove(site);
                cluster.fail_site(site);
            } else {
                up.insert(site);
                cluster.repair_site(site);
            }
            policy.on_topology_change(&network.reachability(up));
            // The instantaneous protocols exchange state at every
            // change (the connection vector); mirror that at message
            // level with a RECOVER round — each granted RECOVER both
            // shrinks the partition set to the current group and
            // reintegrates the recovering site, exactly the policy's
            // sync step.
            if !optimistic {
                for site in up.iter() {
                    let _ = cluster.recover(site);
                }
            }
        } else {
            // Access event: the paper's user reaches any site; apply
            // the access wherever it is granted, plus RECOVER for
            // optimistic protocols (their reintegration moment).
            policy.on_access(&network.reachability(up));
            for origin in up.iter() {
                if cluster.probe(origin) {
                    if optimistic {
                        for site in up.iter() {
                            let _ = cluster.recover(site);
                        }
                    }
                    cluster.write(origin, counter).expect("probe said yes");
                    counter += 1;
                    break;
                }
            }
        }
        assert_eq!(
            policy.is_available(&network.reachability(up)),
            cluster.is_available(),
            "{}: divergence at step {step} with up = {up}",
            protocol.name()
        );
    }
    assert!(
        cluster.checker().violations().is_empty(),
        "{}: {:?}",
        protocol.name(),
        cluster.checker().violations()
    );
}

/// Four copies make even splits, so the tie vote decides: once under
/// the default ordering and once with S3 ranked highest, the same
/// lexicon handed to both sides.
#[test]
fn mcv_policy_equals_mcv_cluster() {
    let n = 4;
    for lexicon in [Lexicon::default(), Lexicon::ascending()] {
        equivalence_walk(
            ClusterBuilder::new()
                .protocol(Protocol::Mcv)
                .lexicon(lexicon.clone()),
            Box::new(DynamicPolicy::custom(
                "MCV",
                SiteSet::first_n(n),
                Protocol::Mcv.rule(lexicon),
                None,
            )),
            Network::single_segment(n),
            SiteSet::EMPTY,
            false,
            11,
            4_000,
        );
    }
}

#[test]
fn ldv_policy_equals_ldv_cluster() {
    let n = 4;
    equivalence_walk(
        ClusterBuilder::new().protocol(Protocol::Ldv),
        Box::new(DynamicPolicy::ldv(SiteSet::first_n(n))),
        Network::single_segment(n),
        SiteSet::EMPTY,
        false,
        13,
        4_000,
    );
}

#[test]
fn odv_policy_equals_odv_cluster() {
    let n = 4;
    equivalence_walk(
        ClusterBuilder::new().protocol(Protocol::Odv),
        Box::new(DynamicPolicy::odv(SiteSet::first_n(n))),
        Network::single_segment(n),
        SiteSet::EMPTY,
        true,
        17,
        4_000,
    );
}

/// Plain DV fails every even split, so the walks meet the refusals LDV
/// breaks toward its top copy.
#[test]
fn dv_policy_equals_dv_cluster() {
    let n = 4;
    for stream in 0..3 {
        equivalence_walk(
            ClusterBuilder::new().protocol(Protocol::Dv),
            Box::new(DynamicPolicy::dv(SiteSet::first_n(n))),
            Network::single_segment(n),
            SiteSet::EMPTY,
            false,
            SimRng::stream_seed(19, stream),
            3_000,
        );
    }
}

/// Copies S0 and S1 and a witness S2 on one segment, as `policy` (built
/// on the copies) and as `protocol`'s cluster: the witness votes and
/// keeps ⟨o, v, P⟩, so a group is served only with a copy in it.
fn witness_walks(protocol: Protocol, policy: DynamicPolicy, seed: u64) {
    let witness = SiteSet::from_indices([2]);
    for stream in 0..3 {
        equivalence_walk(
            ClusterBuilder::new().protocol(protocol),
            Box::new(policy.clone().with_witnesses(witness)),
            Network::single_segment(3),
            witness,
            protocol.optimistic(),
            SimRng::stream_seed(seed, stream),
            3_000,
        );
    }
}

#[test]
fn ldv_with_a_witness_equals_the_cluster() {
    witness_walks(Protocol::Ldv, DynamicPolicy::ldv(SiteSet::first_n(2)), 29);
}

#[test]
fn odv_with_a_witness_equals_the_cluster() {
    witness_walks(Protocol::Odv, DynamicPolicy::odv(SiteSet::first_n(2)), 31);
}

#[test]
fn ldv_equivalence_on_the_figure_8_network() {
    // Gateways partition the copies: the walk now exercises multi-group
    // reachability. Copies on paper sites 1, 2, 6, 8 (config G) — but
    // liveness flips over *all* 8 sites, so gateways fail too.
    let network = dynamic_voting::availability::network::ucsd_network();
    let copies = SiteSet::from_indices([0, 1, 5, 7]);
    let mut policy = DynamicPolicy::ldv(copies);
    let mut cluster: Cluster<u64> = ClusterBuilder::new()
        .network(network.clone())
        .copies(copies.iter().map(|s| s.index()))
        .protocol(Protocol::Ldv)
        .build_with_value(0);
    let mut rng = SimRng::new(23);
    let mut up = SiteSet::first_n(8);
    policy.reset();
    policy.on_topology_change(&network.reachability(up));

    for step in 0..6_000 {
        let site = SiteId::new(rng.below(8));
        if up.contains(site) {
            up.remove(site);
            cluster.fail_site(site);
        } else {
            up.insert(site);
            cluster.repair_site(site);
            if copies.contains(site) {
                let _ = cluster.recover(site);
            }
        }
        policy.on_topology_change(&network.reachability(up));
        // Instantaneous semantics at message level: every reachable
        // stale copy retries RECOVER after each change.
        for site in (up & copies).iter() {
            let _ = cluster.recover(site);
        }
        assert_eq!(
            policy.is_available(&network.reachability(up)),
            cluster.is_available(),
            "divergence at step {step}, up = {up}"
        );
    }
    assert!(cluster.checker().violations().is_empty());
}
