//! The checked configuration: policy × site count × segment count.

use dynvote_replica::{Cluster, ClusterBuilder, Protocol};
use dynvote_topology::{Network, NetworkBuilder};

/// Every policy the checker knows, in canonical report order.
pub const ALL_POLICIES: [Protocol; 6] = [
    Protocol::Mcv,
    Protocol::Dv,
    Protocol::Ldv,
    Protocol::Odv,
    Protocol::Tdv,
    Protocol::Otdv,
];

/// The canonical lowercase name of a policy (CLI values, trace files).
#[must_use]
pub fn policy_name(policy: Protocol) -> &'static str {
    match policy {
        Protocol::Mcv => "mcv",
        Protocol::Dv => "dv",
        Protocol::Ldv => "ldv",
        Protocol::Odv => "odv",
        Protocol::Tdv => "tdv",
        Protocol::Otdv => "otdv",
    }
}

/// Parses a canonical policy name.
#[must_use]
pub fn parse_policy(name: &str) -> Option<Protocol> {
    ALL_POLICIES.into_iter().find(|&p| policy_name(p) == name)
}

/// One small-scope configuration the checker explores: a policy running
/// on `sites` full copies spread over `segments` segments.
///
/// The topology is canonical: sites `0..sites` are split into segments
/// as evenly as possible, in index order, and consecutive segments are
/// chained by a bridge whose gateway is the last site of the earlier
/// segment. Every site holds a copy (gateways included), so the crash
/// alphabet already covers gateway loss — the organic way segments
/// disconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// The consistency protocol under check.
    pub policy: Protocol,
    /// Number of copy sites (`1..=16`).
    pub sites: usize,
    /// Number of segments (`1..=sites`, at most 4).
    pub segments: usize,
}

impl Scenario {
    /// A validated scenario.
    ///
    /// # Errors
    ///
    /// Returns a description of the bound that was violated. The bounds
    /// are the *library's* sanity limits; the CLI enforces tighter ones
    /// (≤ 8 sites, ≤ 3 segments).
    pub fn new(policy: Protocol, sites: usize, segments: usize) -> Result<Scenario, String> {
        if sites == 0 || sites > 16 {
            return Err(format!("sites must be in 1..=16, got {sites}"));
        }
        if segments == 0 || segments > 4 {
            return Err(format!("segments must be in 1..=4, got {segments}"));
        }
        if segments > sites {
            return Err(format!(
                "cannot spread {sites} sites over {segments} segments"
            ));
        }
        Ok(Scenario {
            policy,
            sites,
            segments,
        })
    }

    /// The scenario's canonical network.
    #[must_use]
    pub fn network(&self) -> Network {
        if self.segments == 1 {
            return Network::single_segment(self.sites);
        }
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        let base = self.sites / self.segments;
        let extra = self.sites % self.segments;
        let mut builder = NetworkBuilder::new();
        let mut gateways = Vec::new();
        let mut start = 0;
        for (segment, name) in NAMES.iter().enumerate().take(self.segments) {
            let size = base + usize::from(segment < extra);
            builder = builder.segment(name, start..start + size);
            gateways.push(start + size - 1);
            start += size;
        }
        for segment in 0..self.segments - 1 {
            builder = builder.bridge(gateways[segment], NAMES[segment + 1]);
        }
        builder
            .build()
            .expect("canonical scenario topology is valid")
    }

    /// A fresh cluster for this scenario: every site holds a copy of
    /// the initial value `0` (write token zero).
    #[must_use]
    pub fn build_cluster(&self) -> Cluster<u64> {
        ClusterBuilder::new()
            .network(self.network())
            .copies(0..self.sites)
            .protocol(self.policy)
            .build_with_value(0)
    }
}

impl core::fmt::Display for Scenario {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} on {} sites / {} segment{}",
            policy_name(self.policy),
            self.sites,
            self.segments,
            if self.segments == 1 { "" } else { "s" }
        )
    }
}

#[cfg(test)]
mod tests {
    use dynvote_types::SiteSet;

    use super::*;

    #[test]
    fn bounds_are_enforced() {
        assert!(Scenario::new(Protocol::Odv, 0, 1).is_err());
        assert!(Scenario::new(Protocol::Odv, 17, 1).is_err());
        assert!(Scenario::new(Protocol::Odv, 4, 0).is_err());
        assert!(Scenario::new(Protocol::Odv, 4, 5).is_err());
        assert!(Scenario::new(Protocol::Odv, 2, 3).is_err());
        assert!(Scenario::new(Protocol::Odv, 4, 2).is_ok());
    }

    #[test]
    fn single_segment_network() {
        let s = Scenario::new(Protocol::Tdv, 4, 1).unwrap();
        let net = s.network();
        assert_eq!(net.segment_count(), 1);
        assert_eq!(net.sites(), SiteSet::first_n(4));
    }

    #[test]
    fn two_segments_split_evenly_and_chain() {
        let s = Scenario::new(Protocol::Otdv, 4, 2).unwrap();
        let net = s.network();
        assert_eq!(net.segment_count(), 2);
        // {0,1} | {2,3}, gateway S1 bridges to "b".
        let r = net.reachability(SiteSet::first_n(4));
        assert_eq!(r.groups().len(), 1, "bridge up: one group");
        let r = net.reachability(SiteSet::from_indices([0, 2, 3]));
        assert_eq!(r.groups().len(), 2, "gateway S1 down: segments split");
    }

    #[test]
    fn three_segments_on_five_sites() {
        let s = Scenario::new(Protocol::Tdv, 5, 3).unwrap();
        let net = s.network();
        assert_eq!(net.segment_count(), 3);
        // Sizes 2, 2, 1; all sites present; chain keeps it connected.
        assert_eq!(net.sites(), SiteSet::first_n(5));
        assert_eq!(net.reachability(SiteSet::first_n(5)).groups().len(), 1);
    }

    #[test]
    fn cluster_runs_the_declared_policy() {
        let s = Scenario::new(Protocol::Dv, 3, 1).unwrap();
        let cluster = s.build_cluster();
        assert_eq!(cluster.protocol(), Protocol::Dv);
        assert_eq!(cluster.copies(), SiteSet::first_n(3));
    }

    #[test]
    fn policy_names_roundtrip() {
        for policy in ALL_POLICIES {
            assert_eq!(parse_policy(policy_name(policy)), Some(policy));
        }
        assert_eq!(parse_policy("avc"), None);
    }
}
