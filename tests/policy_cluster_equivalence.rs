//! The strongest coherence check in the repository: the availability
//! simulator's policy state machines and the message-level replicated
//! store are *the same protocol*.
//!
//! Both are driven through identical failure/repair/access traces; at
//! every step the policy's `is_available` probe must agree with the
//! cluster's message-level `probe`. Any divergence would mean the
//! numbers in the reproduced Tables 2 and 3 are measuring something
//! other than what the store actually does.

use dynamic_voting::core::policy::dynamic::RejoinMode;
use dynamic_voting::core::policy::{AvailabilityPolicy, DynamicPolicy};
use dynamic_voting::core::Lexicon;
use dynamic_voting::replica::{Cluster, ClusterBuilder, Protocol};
use dynamic_voting::sim::SimRng;
use dynamic_voting::topology::Network;
use dynamic_voting::types::{SiteId, SiteSet};

/// One random walk: flip site liveness; at random points run an
/// "access" (a read at a random up site, retried across sites the way
/// the paper's single user may reach any of them). After every event
/// both sides must agree on availability.
fn equivalence_walk(
    builder: ClusterBuilder,
    mut policy: Box<dyn AvailabilityPolicy>,
    network: Network,
    n: usize,
    optimistic: bool,
    seed: u64,
    steps: usize,
) {
    let mut cluster: Cluster<u64> = builder
        .network(network.clone())
        .copies(0..n)
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
                RejoinMode::OnRepair,
            )),
            Network::single_segment(n),
            n,
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
        n,
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
        n,
        true,
        17,
        4_000,
    );
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
