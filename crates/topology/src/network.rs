//! The static description of a segmented LAN.

use core::fmt;

use dynvote_types::{SiteId, SiteSet, MAX_SITES};

use crate::reachability::Reachability;

/// Identifier of a non-partitionable network segment (an Ethernet or a
/// token ring in the paper's terminology).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub(crate) u16);

impl SegmentId {
    /// The zero-based index of the segment.
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// Errors raised while constructing a [`Network`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// A site was assigned to two different segments. The paper requires
    /// every host — including gateways — to *belong* to exactly one
    /// segment, otherwise rival majority blocks could claim the same
    /// host's votes.
    DuplicateSite(SiteId),
    /// A bridge references a site that is not on any segment.
    UnknownGateway(SiteId),
    /// A bridge references a segment name that was never declared.
    UnknownSegment(String),
    /// A gateway was bridged to its own home segment.
    SelfBridge(SiteId),
    /// Two segments were declared with the same name.
    DuplicateSegmentName(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateSite(s) => {
                write!(f, "site {s} assigned to more than one segment")
            }
            TopologyError::UnknownGateway(s) => {
                write!(f, "gateway {s} is not a member of any segment")
            }
            TopologyError::UnknownSegment(name) => write!(f, "unknown segment {name:?}"),
            TopologyError::SelfBridge(s) => {
                write!(f, "gateway {s} bridged to its own home segment")
            }
            TopologyError::DuplicateSegmentName(name) => {
                write!(f, "segment {name:?} declared twice")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A bridge: a gateway host connecting its home segment to another
/// segment. Traffic flows across the bridge only while the gateway host
/// is up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bridge {
    /// The gateway host.
    pub gateway: SiteId,
    /// The foreign segment the gateway attaches to.
    pub to: SegmentId,
}

/// A segmented LAN: sites grouped into non-partitionable segments, joined
/// by gateway hosts.
///
/// Invariants enforced at construction:
///
/// * every site belongs to exactly one segment (the paper's rule for
///   sound topological vote claiming),
/// * every bridge's gateway is a known site and attaches to a foreign,
///   declared segment.
///
/// Segments themselves never fail — only sites (and therefore gateways)
/// do. The network's connectivity under a given set of up sites is
/// computed by [`Network::reachability`].
///
/// # Examples
///
/// A two-segment network where site `S2` gateways between them:
///
/// ```
/// use dynvote_topology::NetworkBuilder;
/// use dynvote_types::SiteSet;
///
/// let net = NetworkBuilder::new()
///     .segment("alpha", [0, 1, 2])
///     .segment("beta", [3])
///     .bridge(2, "beta")
///     .build()
///     .unwrap();
///
/// // All four sites up: one connected group.
/// let all = SiteSet::first_n(4);
/// assert_eq!(net.reachability(all).groups().len(), 1);
///
/// // Gateway S2 down: S3 is cut off from {S0, S1}.
/// let up = SiteSet::from_indices([0, 1, 3]);
/// let r = net.reachability(up);
/// assert_eq!(r.groups().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    sites: SiteSet,
    segment_of: [u16; MAX_SITES],
    segment_members: Vec<SiteSet>,
    segment_names: Vec<String>,
    bridges: Vec<Bridge>,
}

const NO_SEGMENT: u16 = u16::MAX;

impl Network {
    pub(crate) fn from_parts(
        segment_members: Vec<SiteSet>,
        segment_names: Vec<String>,
        bridges: Vec<Bridge>,
    ) -> Result<Self, TopologyError> {
        let mut segment_of = [NO_SEGMENT; MAX_SITES];
        let mut sites = SiteSet::EMPTY;
        for (seg, members) in segment_members.iter().enumerate() {
            for site in members.iter() {
                if segment_of[site.index()] != NO_SEGMENT {
                    return Err(TopologyError::DuplicateSite(site));
                }
                segment_of[site.index()] = seg as u16;
                sites.insert(site);
            }
        }
        for bridge in &bridges {
            if !sites.contains(bridge.gateway) {
                return Err(TopologyError::UnknownGateway(bridge.gateway));
            }
            if segment_of[bridge.gateway.index()] == bridge.to.0 {
                return Err(TopologyError::SelfBridge(bridge.gateway));
            }
        }
        Ok(Network {
            sites,
            segment_of,
            segment_members,
            segment_names,
            bridges,
        })
    }

    /// A degenerate network where all `n` sites share one segment — the
    /// "unsegmented carrier-sense network" case in which Topological
    /// Dynamic Voting degenerates into an Available-Copy protocol.
    #[must_use]
    pub fn single_segment(n: usize) -> Self {
        Network::from_parts(
            vec![SiteSet::first_n(n)],
            vec!["all".to_string()],
            Vec::new(),
        )
        .expect("single segment is always valid")
    }

    /// All sites known to the network.
    #[inline]
    #[must_use]
    pub fn sites(&self) -> SiteSet {
        self.sites
    }

    /// Number of segments.
    #[inline]
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segment_members.len()
    }

    /// The home segment of `site`, or `None` for sites outside the network.
    #[must_use]
    pub fn segment_of(&self, site: SiteId) -> Option<SegmentId> {
        let seg = self.segment_of[site.index()];
        (seg != NO_SEGMENT).then_some(SegmentId(seg))
    }

    /// The member sites of a segment.
    #[must_use]
    pub fn segment_members(&self, segment: SegmentId) -> SiteSet {
        self.segment_members
            .get(segment.index())
            .copied()
            .unwrap_or(SiteSet::EMPTY)
    }

    /// The declared name of a segment.
    #[must_use]
    pub fn segment_name(&self, segment: SegmentId) -> &str {
        &self.segment_names[segment.index()]
    }

    /// Sites sharing `site`'s segment (including `site` itself).
    ///
    /// This is the only topological information a TDV site needs to
    /// store: "a list of sites belonging to the same segment and holding
    /// copies of the same object" (paper, §3).
    #[must_use]
    pub fn co_segment(&self, site: SiteId) -> SiteSet {
        match self.segment_of(site) {
            Some(seg) => self.segment_members(seg),
            None => SiteSet::singleton(site),
        }
    }

    /// `true` when the two sites share a segment. Its callers are the
    /// cross-crate tests `tests/substrate_props.rs` and
    /// `tests/topological_claims.rs`.
    #[must_use]
    pub fn same_segment(&self, a: SiteId, b: SiteId) -> bool {
        match (self.segment_of(a), self.segment_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// The declared bridges.
    #[must_use]
    pub fn bridges(&self) -> &[Bridge] {
        &self.bridges
    }

    /// The gateway hosts (sites carrying at least one bridge).
    #[must_use]
    pub fn gateways(&self) -> SiteSet {
        self.bridges.iter().map(|b| b.gateway).collect()
    }

    /// Partitions the currently-up sites into maximal groups of mutually
    /// communicating sites.
    ///
    /// Two up sites communicate iff a path of operational segments exists
    /// between their home segments, where a bridge is operational iff its
    /// gateway host is up. Sites not in `up` (or outside the network)
    /// appear in no group.
    #[must_use]
    pub fn reachability(&self, up: SiteSet) -> Reachability {
        let up = up & self.sites;
        let n_seg = self.segment_members.len();
        // Union-find over segments.
        let mut parent: Vec<u16> = (0..n_seg as u16).collect();
        fn find(parent: &mut [u16], x: u16) -> u16 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            // Path compression.
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for bridge in &self.bridges {
            if up.contains(bridge.gateway) {
                let home = self.segment_of[bridge.gateway.index()];
                let (a, b) = (find(&mut parent, home), find(&mut parent, bridge.to.0));
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }
        // Collect up sites per segment component.
        let mut group_of_root: Vec<Option<usize>> = vec![None; n_seg];
        let mut groups: Vec<SiteSet> = Vec::new();
        for site in up.iter() {
            let seg = self.segment_of[site.index()];
            let root = find(&mut parent, seg) as usize;
            let idx = *group_of_root[root].get_or_insert_with(|| {
                groups.push(SiteSet::EMPTY);
                groups.len() - 1
            });
            groups[idx].insert(site);
        }
        Reachability::new(groups, up)
    }

    /// Enumerates the distinct partitions of `interesting` sites that any
    /// combination of gateway failures can produce, assuming every member
    /// of `interesting` is up.
    ///
    /// Used by the Figure 8 audit: the paper asserts, e.g., that with
    /// copies on sites {1, 6, 8} the only partition points are the two
    /// gateways. Each returned entry is the multiset of groups
    /// (canonically sorted) induced by one subset of failed gateways.
    #[must_use]
    pub fn possible_partitions(&self, interesting: SiteSet) -> Vec<Vec<SiteSet>> {
        let gws: Vec<SiteId> = self.gateways().iter().collect();
        let mut seen: Vec<Vec<SiteSet>> = Vec::new();
        for mask in 0..(1u32 << gws.len()) {
            let mut up = self.sites;
            for (i, gw) in gws.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    up.remove(*gw);
                }
            }
            let groups = self.reachability(up);
            let mut split: Vec<SiteSet> = groups
                .groups()
                .iter()
                .map(|g| *g & interesting)
                .filter(|g| !g.is_empty())
                .collect();
            // Downed gateways that are themselves interesting form
            // singleton "groups" of unreachable copies.
            for (i, gw) in gws.iter().enumerate() {
                if mask & (1 << i) != 0 && interesting.contains(*gw) {
                    split.push(SiteSet::singleton(*gw));
                }
            }
            split.sort_by_key(|g| core::cmp::Reverse((g.len(), u64::MAX - g.bits())));
            if !split.is_empty() && !seen.contains(&split) {
                seen.push(split);
            }
        }
        seen
    }
}

impl core::fmt::Display for Network {
    /// One-line topology summary:
    /// `segments: main{S0, S1}, leaf{S2}; bridges: S1->leaf`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "segments: ")?;
        for (i, members) in self.segment_members.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}{}", self.segment_names[i], members)?;
        }
        if !self.bridges.is_empty() {
            write!(f, "; bridges: ")?;
            for (i, bridge) in self.bridges.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(
                    f,
                    "{}->{}",
                    bridge.gateway,
                    self.segment_names[bridge.to.index()]
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn two_segment() -> Network {
        NetworkBuilder::new()
            .segment("alpha", [0, 1, 2])
            .segment("beta", [3, 4])
            .bridge(2, "beta")
            .build()
            .unwrap()
    }

    #[test]
    fn segment_lookup() {
        let net = two_segment();
        assert_eq!(net.segment_count(), 2);
        assert_eq!(net.segment_of(SiteId::new(0)), Some(SegmentId(0)));
        assert_eq!(net.segment_of(SiteId::new(4)), Some(SegmentId(1)));
        assert_eq!(net.segment_of(SiteId::new(9)), None);
        assert_eq!(net.segment_name(SegmentId(1)), "beta");
        assert_eq!(
            net.segment_members(SegmentId(0)),
            SiteSet::from_indices([0, 1, 2])
        );
    }

    #[test]
    fn co_segment_and_same_segment() {
        let net = two_segment();
        assert_eq!(
            net.co_segment(SiteId::new(3)),
            SiteSet::from_indices([3, 4])
        );
        assert!(net.same_segment(SiteId::new(0), SiteId::new(2)));
        assert!(!net.same_segment(SiteId::new(0), SiteId::new(3)));
        assert!(!net.same_segment(SiteId::new(0), SiteId::new(20)));
    }

    #[test]
    fn all_up_is_one_group() {
        let net = two_segment();
        let r = net.reachability(SiteSet::first_n(5));
        assert_eq!(r.groups(), &[SiteSet::first_n(5)]);
    }

    #[test]
    fn gateway_failure_partitions() {
        let net = two_segment();
        // S2 (gateway) down: {S0,S1} and {S3,S4} split.
        let r = net.reachability(SiteSet::from_indices([0, 1, 3, 4]));
        let mut groups = r.groups().to_vec();
        groups.sort_by_key(|g| g.bits());
        assert_eq!(
            groups,
            vec![SiteSet::from_indices([0, 1]), SiteSet::from_indices([3, 4])]
        );
    }

    #[test]
    fn non_gateway_failure_does_not_partition() {
        let net = two_segment();
        let r = net.reachability(SiteSet::from_indices([0, 2, 3, 4]));
        assert_eq!(r.groups(), &[SiteSet::from_indices([0, 2, 3, 4])]);
    }

    #[test]
    fn down_sites_are_in_no_group() {
        let net = two_segment();
        let r = net.reachability(SiteSet::from_indices([0]));
        assert_eq!(r.groups(), &[SiteSet::from_indices([0])]);
        assert!(r.group_of(SiteId::new(1)).is_none());
    }

    #[test]
    fn single_segment_never_partitions() {
        let net = Network::single_segment(5);
        for mask in 0u64..32 {
            let up = SiteSet::from_bits(mask);
            let r = net.reachability(up);
            assert!(
                r.groups().len() <= 1,
                "mask {mask:#b} split: {:?}",
                r.groups()
            );
        }
    }

    #[test]
    fn chained_gateways() {
        // alpha -(1)- beta -(3)- gamma: both gateways needed end to end.
        let net = NetworkBuilder::new()
            .segment("alpha", [0, 1])
            .segment("beta", [2, 3])
            .segment("gamma", [4])
            .bridge(1, "beta")
            .bridge(3, "gamma")
            .build()
            .unwrap();
        let all = SiteSet::first_n(5);
        assert_eq!(net.reachability(all).groups().len(), 1);
        // Middle gateway S3 down: gamma detaches.
        let r = net.reachability(all.without(SiteId::new(3)));
        assert_eq!(r.groups().len(), 2);
        // First gateway S1 down: alpha alone, beta+gamma together.
        let r = net.reachability(all.without(SiteId::new(1)));
        let mut groups = r.groups().to_vec();
        groups.sort_by_key(|g| g.bits());
        assert_eq!(
            groups,
            vec![SiteSet::from_indices([0]), SiteSet::from_indices([2, 3, 4])]
        );
    }

    #[test]
    fn gateways_listed() {
        let net = two_segment();
        assert_eq!(net.gateways(), SiteSet::from_indices([2]));
        assert_eq!(net.bridges().len(), 1);
    }

    #[test]
    fn possible_partitions_two_segments() {
        let net = two_segment();
        // Interesting sites on both sides of the single partition point.
        let parts = net.possible_partitions(SiteSet::from_indices([0, 3]));
        // Whole (gateway up) and split (gateway down) are both possible.
        assert!(parts.contains(&vec![SiteSet::from_indices([0, 3])]));
        assert!(parts
            .iter()
            .any(|p| p.len() == 2 && p.contains(&SiteSet::from_indices([0]))));
    }

    #[test]
    fn network_display_summarizes_topology() {
        let net = two_segment();
        let text = net.to_string();
        assert!(text.contains("alpha{S0, S1, S2}"), "{text}");
        assert!(text.contains("beta{S3, S4}"), "{text}");
        assert!(text.contains("S2->beta"), "{text}");
        // No bridges: no bridge section.
        let solo = Network::single_segment(2);
        assert!(!solo.to_string().contains("bridges"), "{}", solo);
    }

    #[test]
    fn errors_display() {
        let e = TopologyError::SelfBridge(SiteId::new(1));
        assert!(e.to_string().contains("its own home segment"));
    }
}
