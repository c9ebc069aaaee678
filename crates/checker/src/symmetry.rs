//! Symmetry reduction: canonical fingerprints that quotient out
//! permutations of interchangeable sites.
//!
//! Sites within one segment that hold equal votes (every copy in the
//! checker's scenarios carries one vote) and equal ⟨o, v, P⟩ state are
//! *interchangeable*: relabeling them maps reachable states onto
//! reachable states and violations onto violations of the same
//! invariant. The exploration engine therefore deduplicates states by a
//! **canonical fingerprint** — the minimum plain fingerprint over every
//! admissible relabeling — so one representative per symmetry orbit is
//! explored instead of the whole orbit.
//!
//! Admissible relabelings ([`SymmetryGroup`]) are the permutations that
//! fix everything the *dynamics* can distinguish structurally:
//!
//! * sites only move **within their segment** (topological counting and
//!   the partition alphabet are segment-shaped);
//! * **gateway** sites never move (losing a gateway disconnects
//!   segments, so a gateway is observably different from its segment
//!   peers);
//! * witness and non-copy sites never move (they hold different vote
//!   weight by construction).
//!
//! The canonicalization is *orbit-invariant by construction*: a
//! label-free signature is computed per site (two refinement rounds
//! over liveness, pending votes, ⟨o, v⟩, data, and P-set/commit-log
//! membership patterns), sites are sorted into their segment's slots by
//! signature, and all orderings of signature-tied sites are enumerated
//! — the minimum fingerprint over those relabeled worlds is the
//! canonical form. For two views `w` and `ρ(w)` (ρ admissible) the
//! candidate sets coincide (`π′∘ρ` ranges over exactly the
//! signature-sorted relabelings of `w` as `π′` ranges over those of
//! `ρ(w)`), hence equal canonical fingerprints; the property test in
//! `tests/symmetry_props.rs` exercises exactly this identity. Of the
//! tied orderings, those that differ only by a swap of *twins* — two
//! sites whose exchange maps the view onto itself — relabel to the same
//! world, so one of them is hashed and the minimum is the same.
//!
//! # Soundness and the lexicon (why eligibility is policy-aware)
//!
//! Structural interchangeability is necessary but **not sufficient**:
//! the relabeling must also commute with every choice the *decision
//! rule* makes by site identity. The lexicographic tie-break
//! (`dynvote_core::Lexicon`, a fixed total order consulted on even
//! splits) never commutes with a non-identity relabeling, and the
//! failure is not a corner case — it is the checker's bread and butter:
//!
//! > Two sites `a >ₗ b`, state `w` = "only `a` up", `w' = swap(w)` =
//! > "only `b` up". From `w`, a write ties on `P = {a, b}` and is
//! > **granted** (`max({a,b}) = a ∈ Q`); from `w'` the mirrored write
//! > is **refused**. Merging `w` with `w'` therefore drops either a
//! > granting branch or a refusing branch — and the TDV lineage-fork
//! > kernel lives exactly on those branches.
//!
//! Since any two pool sites can end up as a reachable `{a, b}`
//! tie, *every* non-identity relabeling mis-predicts some future for a
//! rule with a lexicographic tie-break. (TLC documents the same
//! restriction for symmetry sets used under `CHOOSE`.) So
//! [`SymmetryGroup::of`] grants non-trivial pools only where the rule
//! is site-symmetric:
//!
//! * **DV** (`Rule::dv()`): ties *fail* for everyone, and the
//!   `Q.min()` representative is behaviour-irrelevant because Q members
//!   agree on ⟨o, v, P⟩ — the quotient is exact;
//! * **MCV**: static majorities are cardinality-only; the one
//!   site-identity choice (the designated tie-break site,
//!   `Lexicon::max_of(copies)`) is pinned by excluding it from its
//!   pool — exact again;
//! * **LDV / ODV / TDV / OTDV**: the rule consults the lexicon on
//!   ties, so the group degenerates to the identity and `--symmetry on`
//!   is a sound no-op. The structural pools remain available as
//!   [`SymmetryGroup::structural`] for testing the canonicalization
//!   function itself.
//!
//! `tests/symmetry_props.rs` locks both halves down: canonical
//! fingerprints are invariant under random admissible relabelings of
//! random views (any pools), and symmetry-on never reports fewer
//! distinct violations than symmetry-off on small random scenarios.

use dynvote_types::{SiteId, SiteSet, MAX_SITES};

use crate::scenario::Scenario;

/// The admissible relabelings of one scenario: per-segment pools of
/// interchangeable-candidate sites, with gateways (and any non-copy
/// site) pinned.
#[derive(Clone, Debug)]
pub struct SymmetryGroup {
    /// Number of addressable sites (`0..sites`).
    sites: usize,
    /// Eligible sites per segment, ascending site order.
    pools: Vec<Vec<SiteId>>,
    /// Sites no admissible permutation may move.
    fixed: SiteSet,
}

impl SymmetryGroup {
    /// The admissible relabelings of `scenario` — topology *and* policy
    /// aware (see the module docs): full segment pools for DV, segment
    /// pools minus the designated tie-break site for MCV, and the
    /// identity group for the lexicographic policies, whose tie-break
    /// commutes with no non-trivial relabeling.
    #[must_use]
    pub fn of(scenario: &Scenario) -> SymmetryGroup {
        use dynvote_replica::Protocol;
        match scenario.policy {
            Protocol::Dv => SymmetryGroup::structural(scenario, SiteSet::EMPTY),
            Protocol::Mcv => {
                let copies = SiteSet::first_n(scenario.sites);
                let designated = dynvote_core::Lexicon::default().max_of(copies);
                SymmetryGroup::structural(
                    scenario,
                    designated.map_or(SiteSet::EMPTY, SiteSet::singleton),
                )
            }
            Protocol::Ldv | Protocol::Odv | Protocol::Tdv | Protocol::Otdv => {
                SymmetryGroup::trivial(scenario.sites)
            }
        }
    }

    /// The *structural* relabelings of `scenario`'s canonical topology
    /// (segment-preserving, gateway-fixing, plus `pinned` extra fixed
    /// sites) — ignoring the policy's tie-break. Sound as a state
    /// quotient only for site-symmetric rules; [`SymmetryGroup::of`]
    /// applies the policy filter. Public so the property tests can
    /// exercise the canonicalization on every topology.
    #[must_use]
    pub fn structural(scenario: &Scenario, pinned: SiteSet) -> SymmetryGroup {
        let network = scenario.network();
        let copies = SiteSet::first_n(scenario.sites);
        let gateways = network.gateways() | pinned;
        let mut pools = Vec::new();
        let mut movable = SiteSet::EMPTY;
        let mut seen_segments = Vec::new();
        for site in copies.iter() {
            let Some(segment) = network.segment_of(site) else {
                continue;
            };
            if seen_segments.contains(&segment) {
                continue;
            }
            seen_segments.push(segment);
            let eligible = (network.segment_members(segment) & copies).difference(gateways);
            if eligible.len() >= 2 {
                movable |= eligible;
                pools.push(eligible.iter().collect());
            }
        }
        SymmetryGroup {
            sites: scenario.sites,
            pools,
            fixed: copies.difference(movable),
        }
    }

    /// The largest group admissible under *both* `self` and `other`:
    /// pairwise pool intersections, everything else fixed. This is the
    /// sound group for lockstep differential states, where one
    /// relabeling acts on both policies' worlds at once.
    #[must_use]
    pub fn meet(&self, other: &SymmetryGroup) -> SymmetryGroup {
        let sites = self.sites.max(other.sites);
        let mut pools = Vec::new();
        let mut movable = SiteSet::EMPTY;
        for mine in &self.pools {
            let mine_set = SiteSet::from_indices(mine.iter().map(|s| s.index()));
            for theirs in &other.pools {
                let theirs_set = SiteSet::from_indices(theirs.iter().map(|s| s.index()));
                let both = mine_set & theirs_set;
                if both.len() >= 2 {
                    movable |= both;
                    pools.push(both.iter().collect());
                }
            }
        }
        SymmetryGroup {
            sites,
            pools,
            fixed: SiteSet::first_n(sites).difference(movable),
        }
    }

    /// A group with no admissible relabeling but the identity: the
    /// checker's group with symmetry off, under which a canonical
    /// fingerprint is the plain [`SymView::fingerprint`].
    #[must_use]
    pub fn trivial(sites: usize) -> SymmetryGroup {
        SymmetryGroup {
            sites,
            pools: Vec::new(),
            fixed: SiteSet::first_n(sites),
        }
    }

    /// Sites no admissible permutation may move.
    #[must_use]
    pub fn fixed(&self) -> SiteSet {
        self.fixed
    }

    /// The per-segment pools of interchangeable-candidate sites.
    #[must_use]
    pub fn pools(&self) -> &[Vec<SiteId>] {
        &self.pools
    }

    /// Whether `map` (old index → new index, identity-padded) is an
    /// admissible relabeling: a bijection moving sites only within
    /// their pool.
    #[must_use]
    pub fn admits(&self, map: &[usize]) -> bool {
        if map.len() < self.sites {
            return false;
        }
        for fixed in self.fixed.iter() {
            if map[fixed.index()] != fixed.index() {
                return false;
            }
        }
        for pool in &self.pools {
            let mut image: Vec<usize> = pool.iter().map(|s| map[s.index()]).collect();
            image.sort_unstable();
            let expected: Vec<usize> = pool.iter().map(|s| s.index()).collect();
            if image != expected {
                return false;
            }
        }
        true
    }
}

/// Everything a state contributes to its (plain or canonical)
/// fingerprint, extracted into site-indexed plain data so permutations
/// can act on it directly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymView {
    /// Number of addressable sites.
    pub sites: usize,
    /// The up-set.
    pub up: SiteSet,
    /// Index of the forced canonical partition, if any. Canonical
    /// partitions are segment-shaped, so admissible permutations fix
    /// the *index* (each group maps onto itself).
    pub forced: Option<usize>,
    /// Per-site protocol-visible state, indexed by site index.
    pub nodes: Vec<NodeView>,
    /// The invariant monitor's commit log, sorted by operation number.
    pub commits: Vec<(u64, SiteSet)>,
    /// The written-version multiset, sorted by version.
    pub versions: Vec<(u64, u64)>,
    /// Monitor scalars: latest written version, violation count.
    pub monitor: (u64, u64),
    /// Site-free world bookkeeping (write tokens, oracle counters).
    pub scalars: [u64; 3],
}

/// One site's contribution to the fingerprint. The default is a site
/// that holds no copy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeView {
    /// Whether the site participates at all (holds a copy).
    pub participant: bool,
    /// Liveness.
    pub up: bool,
    /// Whether the site holds an outstanding vote.
    pub pending: bool,
    /// Operation number `o_i`.
    pub op: u64,
    /// Version number `v_i`.
    pub version: u64,
    /// Partition set `P_i`.
    pub partition: SiteSet,
    /// The data (write token) stored at the copy.
    pub value: u64,
}

impl NodeView {
    /// The three booleans as bits 0–2 of one hash word.
    fn flags(&self) -> u64 {
        u64::from(self.participant) | u64::from(self.up) << 1 | u64::from(self.pending) << 2
    }
}

impl SymView {
    /// Applies an admissible relabeling to the view — pure data
    /// permutation, used by the invariance property tests and by the
    /// canonicalization itself (implicitly, via permuted hashing).
    #[must_use]
    pub fn permuted(&self, map: &[usize]) -> SymView {
        let mut nodes = vec![NodeView::default(); self.nodes.len()];
        for (old, node) in self.nodes.iter().enumerate() {
            let mut moved = *node;
            moved.partition = permute_set(node.partition, map);
            nodes[map[old]] = moved;
        }
        SymView {
            sites: self.sites,
            up: permute_set(self.up, map),
            forced: self.forced,
            nodes,
            commits: self
                .commits
                .iter()
                .map(|&(op, parts)| (op, permute_set(parts, map)))
                .collect(),
            versions: self.versions.clone(),
            monitor: self.monitor,
            scalars: self.scalars,
        }
    }

    /// The view's plain (identity-relabeling) fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint_with(self, |new| new, |set| set)
    }
}

/// The identity relabeling, long enough for any addressable site.
const IDENTITY: [usize; MAX_SITES] = {
    let mut id = [0usize; MAX_SITES];
    let mut i = 0;
    while i < MAX_SITES {
        id[i] = i;
        i += 1;
    }
    id
};

/// Applies `map` to every member of `set`.
#[must_use]
pub fn permute_set(set: SiteSet, map: &[usize]) -> SiteSet {
    let mut out = SiteSet::EMPTY;
    for site in set.iter() {
        out.insert(SiteId::new(map[site.index()]));
    }
    out
}

/// The word-at-a-time hash behind every fingerprint and signature in
/// this module. It is the checker's own on purpose:
/// `dynvote_core::Fnv64` also checksums WAL, ledger and snapshot
/// records, so its output is a disk format and its byte-at-a-time loop
/// cannot change, while a state fingerprint never leaves the process.
///
/// Every step is a bijection of the state for a fixed word and of the
/// word for a fixed state, so two inputs that differ in exactly one
/// word never collide.
#[derive(Clone, Copy)]
struct Mixer(u64);

impl Mixer {
    fn new() -> Mixer {
        Mixer(0x243F_6A88_85A3_08D3)
    }

    #[inline]
    fn word(&mut self, word: u64) {
        let x = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    /// The state after a last avalanche, so that every input bit
    /// reaches the bits a seen-map shard and a minimum are chosen by.
    fn finish(self) -> u64 {
        let mut x = self.0;
        x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    }
}

/// The hash of a few words.
fn mix(words: &[u64]) -> u64 {
    let mut h = Mixer::new();
    for &word in words {
        h.word(word);
    }
    h.finish()
}

/// Hashes `view` as relabeled without materializing the permuted view:
/// the site at new index `i` is `old_of(i)` and every site set goes
/// through `relabel` on the fly. Counts precede the two variable-length
/// lists, so the word sequence determines the view.
fn fingerprint_with(
    view: &SymView,
    old_of: impl Fn(usize) -> usize,
    relabel: impl Fn(SiteSet) -> SiteSet,
) -> u64 {
    let mut h = Mixer::new();
    h.word(relabel(view.up).bits());
    h.word(view.forced.map_or(0, |index| index as u64 + 1));
    h.word(view.nodes.len() as u64);
    for new in 0..view.nodes.len() {
        let node = &view.nodes[old_of(new)];
        h.word(node.flags());
        h.word(node.op);
        h.word(node.version);
        h.word(relabel(node.partition).bits());
        h.word(node.value);
    }
    h.word(view.commits.len() as u64);
    for &(op, parts) in &view.commits {
        h.word(op);
        h.word(relabel(parts).bits());
    }
    h.word(view.versions.len() as u64);
    for &(version, times) in &view.versions {
        h.word(version);
        h.word(times);
    }
    let [tokens, committed, oracle] = view.scalars;
    for word in [view.monitor.0, view.monitor.1, tokens, committed, oracle] {
        h.word(word);
    }
    h.finish()
}

/// The fingerprint of `view` relabeled by `map` (old index → new
/// index): equal to `view.permuted(map).fingerprint()`.
fn fingerprint_under(view: &SymView, map: &[usize]) -> u64 {
    let mut inverse = [0usize; MAX_SITES];
    for (old, &new) in map.iter().enumerate().take(view.nodes.len()) {
        inverse[new] = old;
    }
    fingerprint_with(view, |new| inverse[new], |set| permute_set(set, map))
}

/// Several lockstep views' fingerprints as one: `a ^ b.rotate_left(17)`
/// for a differential pair.
fn combine(views: &[&SymView], fingerprint: impl Fn(&SymView) -> u64) -> u64 {
    let mut acc = 0u64;
    for (i, view) in views.iter().enumerate() {
        acc ^= fingerprint(view).rotate_left(17 * i as u32);
    }
    acc
}

/// Label-free per-site signatures: two refinement rounds, equivariant
/// under every admissible relabeling (no component mentions a movable
/// site's index).
fn signatures(views: &[&SymView], group: &SymmetryGroup) -> [u64; MAX_SITES] {
    let n = group.sites;
    let fixed = group.fixed;
    let mut round1 = [0u64; MAX_SITES];
    for (slot, sig) in round1.iter_mut().enumerate().take(n) {
        let site = SiteId::new(slot);
        let mut h = Mixer::new();
        for view in views {
            let node = &view.nodes[slot];
            // The commit log is a set: an order-free sum.
            let mut commit_pattern = 0u64;
            for &(op, parts) in &view.commits {
                commit_pattern = commit_pattern.wrapping_add(mix(&[
                    op,
                    u64::from(parts.contains(site)) | (parts.len() as u64) << 1,
                    (parts & fixed).bits(),
                ]));
            }
            h.word(
                node.flags()
                    | u64::from(node.partition.contains(site)) << 3
                    | u64::from(view.up.contains(site)) << 4
                    | (node.partition.len() as u64) << 5,
            );
            h.word(node.op);
            h.word(node.version);
            h.word(node.value);
            h.word((node.partition & fixed).bits());
            h.word(commit_pattern);
        }
        *sig = h.finish();
    }
    // Round 2: fold in the (order-free) multiset of relations to every
    // other site, tagged with that site's round-1 signature.
    let mut round2 = round1;
    for (slot, sig) in round2.iter_mut().enumerate().take(n) {
        let site = SiteId::new(slot);
        for (other_slot, &other_sig) in round1.iter().enumerate().take(n) {
            let other = SiteId::new(other_slot);
            let mut h = Mixer(other_sig);
            for view in views {
                h.word(
                    u64::from(view.nodes[other_slot].partition.contains(site))
                        | u64::from(view.nodes[slot].partition.contains(other)) << 1,
                );
            }
            *sig = sig.wrapping_add(h.finish());
        }
    }
    round2
}

/// Whether swapping sites `a` and `b` maps every view onto itself: the
/// two rows are equal and no site set tells the two apart. Being twins
/// is an equivalence, and relabelings that differ only by a permutation
/// of twins produce the same relabeled views.
fn twins(views: &[&SymView], a: usize, b: usize) -> bool {
    let (site_a, site_b) = (SiteId::new(a), SiteId::new(b));
    let alike = |set: SiteSet| set.contains(site_a) == set.contains(site_b);
    views.iter().all(|view| {
        view.nodes[a] == view.nodes[b]
            && alike(view.up)
            && view.nodes.iter().all(|node| alike(node.partition))
            && view.commits.iter().all(|&(_, parts)| alike(parts))
    })
}

/// The canonical fingerprint of one or more lockstep views under
/// `group`: the minimum combined fingerprint over every admissible
/// signature-sorted relabeling. Multiple views (the differential
/// checker's policy pairs) are relabeled by the *same* permutation.
#[must_use]
pub fn canonical_fingerprint(views: &[&SymView], group: &SymmetryGroup) -> u64 {
    debug_assert!(!views.is_empty());
    if group.pools.is_empty() {
        return combine(views, SymView::fingerprint);
    }
    // Target order per pool: the pool's own slots (ascending), filled
    // by the pool's sites sorted by signature; signature ties keep all
    // their orderings as candidates.
    let mut ties = Ties {
        views,
        sigs: signatures(views, group),
        members: [0; MAX_SITES],
        slots: [0; MAX_SITES],
        pool_end: [0; MAX_SITES],
        len: 0,
        map: IDENTITY,
        best: u64::MAX,
    };
    for pool in &group.pools {
        let start = ties.len;
        for site in pool {
            ties.members[ties.len] = site.index();
            ties.slots[ties.len] = site.index();
            ties.len += 1;
        }
        ties.pool_end[start..ties.len].fill(ties.len);
        let sigs = &ties.sigs;
        ties.members[start..ties.len].sort_unstable_by_key(|&site| sigs[site]);
    }
    ties.assign(0, 0);
    ties.best
}

/// The search for the minimum over signature-tied orderings.
struct Ties<'a> {
    views: &'a [&'a SymView],
    sigs: [u64; MAX_SITES],
    /// Every pool's sites, pool after pool, each pool sorted by
    /// signature.
    members: [usize; MAX_SITES],
    /// The site index the member at each position is relabeled to: the
    /// pool's own sites, ascending.
    slots: [usize; MAX_SITES],
    /// One past the last position of each position's pool.
    pool_end: [usize; MAX_SITES],
    /// Positions in use.
    len: usize,
    /// The relabeling under construction (old index → new index).
    map: [usize; MAX_SITES],
    best: u64,
}

impl Ties<'_> {
    /// Fills position `at` and every later one, branching over the
    /// members of the signature-tied run that `at` belongs to (it ends
    /// before `run_end`, or starts at `at` when `at == run_end`), and
    /// keeps the smallest fingerprint of the completed relabelings. Of
    /// several twins only the first is tried at a position: the others
    /// would complete to the same relabeled views.
    fn assign(&mut self, at: usize, mut run_end: usize) {
        if at == self.len {
            let fp = combine(self.views, |view| fingerprint_under(view, &self.map));
            self.best = self.best.min(fp);
            return;
        }
        if at == run_end {
            let sig = self.sigs[self.members[at]];
            run_end = (at + 1..self.pool_end[at])
                .find(|&next| self.sigs[self.members[next]] != sig)
                .unwrap_or(self.pool_end[at]);
        }
        for pick in at..run_end {
            let site = self.members[pick];
            if self.members[at..pick]
                .iter()
                .any(|&tried| twins(self.views, tried, site))
            {
                continue;
            }
            self.members.swap(at, pick);
            self.map[site] = self.slots[at];
            self.assign(at + 1, run_end);
            self.members.swap(at, pick);
        }
    }
}

#[cfg(test)]
mod tests {
    use dynvote_replica::Protocol;

    use super::*;
    use crate::event::CheckEvent;
    use crate::world::World;

    #[test]
    fn group_pins_gateways_and_respects_segments() {
        // Figure 8: 8 sites over 3 segments {0,1,2} {3,4,5} {6,7};
        // gateways 2 and 5 chain the segments.
        let scenario = Scenario::new(Protocol::Dv, 8, 3).unwrap();
        let group = SymmetryGroup::of(&scenario);
        let pools: Vec<Vec<usize>> = group
            .pools()
            .iter()
            .map(|p| p.iter().map(|s| s.index()).collect())
            .collect();
        assert_eq!(pools, vec![vec![0, 1], vec![3, 4], vec![6, 7]]);
        assert!(group.fixed().contains(SiteId::new(2)));
        assert!(group.fixed().contains(SiteId::new(5)));

        // Swapping within a pool is admissible; across pools is not.
        let mut swap01 = IDENTITY[..8].to_vec();
        swap01.swap(0, 1);
        assert!(group.admits(&swap01));
        let mut swap03 = IDENTITY[..8].to_vec();
        swap03.swap(0, 3);
        assert!(!group.admits(&swap03));
        let mut move_gateway = IDENTITY[..8].to_vec();
        move_gateway.swap(0, 2);
        assert!(!group.admits(&move_gateway));
    }

    #[test]
    fn single_segment_pools_every_copy() {
        let scenario = Scenario::new(Protocol::Dv, 4, 1).unwrap();
        let group = SymmetryGroup::of(&scenario);
        assert_eq!(group.pools().len(), 1);
        assert_eq!(group.pools()[0].len(), 4);
        assert!(group.fixed().is_empty());
    }

    #[test]
    fn eligibility_is_policy_aware() {
        // MCV pins the designated tie-break site; the lexicographic
        // policies get the identity group (module docs: the tie-break
        // commutes with no non-trivial relabeling).
        let mcv = SymmetryGroup::of(&Scenario::new(Protocol::Mcv, 4, 1).unwrap());
        let designated = dynvote_core::Lexicon::default()
            .max_of(SiteSet::first_n(4))
            .unwrap();
        assert!(mcv.fixed().contains(designated));
        assert_eq!(mcv.pools().len(), 1);
        assert_eq!(mcv.pools()[0].len(), 3);

        for policy in [Protocol::Ldv, Protocol::Odv, Protocol::Tdv, Protocol::Otdv] {
            let group = SymmetryGroup::of(&Scenario::new(policy, 4, 1).unwrap());
            assert!(group.pools().is_empty(), "{policy:?} must stay identity");
        }
    }

    #[test]
    fn canonical_fingerprint_merges_mirror_crashes() {
        // crash 0 and crash 1 reach distinct plain fingerprints but the
        // same symmetry orbit on a fresh single-segment world.
        let scenario = Scenario::new(Protocol::Dv, 3, 1).unwrap();
        let group = SymmetryGroup::of(&scenario);
        let mut a = World::new(&scenario);
        let mut b = World::new(&scenario);
        a.apply(CheckEvent::Crash(dynvote_types::SiteId::new(0)));
        b.apply(CheckEvent::Crash(dynvote_types::SiteId::new(1)));
        let va = a.sym_view();
        let vb = b.sym_view();
        assert_ne!(va.fingerprint(), vb.fingerprint());
        assert_eq!(
            canonical_fingerprint(&[&va], &group),
            canonical_fingerprint(&[&vb], &group),
        );
    }

    #[test]
    fn canonical_fingerprint_keeps_distinct_states_apart() {
        // A written world and a fresh world must never merge.
        let scenario = Scenario::new(Protocol::Dv, 3, 1).unwrap();
        let group = SymmetryGroup::of(&scenario);
        let fresh = World::new(&scenario);
        let mut written = World::new(&scenario);
        written.apply(CheckEvent::Write(dynvote_types::SiteId::new(0)));
        assert_ne!(
            canonical_fingerprint(&[&fresh.sym_view()], &group),
            canonical_fingerprint(&[&written.sym_view()], &group),
        );
    }

    #[test]
    fn twins_are_exactly_the_swaps_that_fix_the_view() {
        // Every state within three events of a fresh TDV world on two
        // segments, every pair of sites: the tie search may skip an
        // ordering iff the swap it differs by changes nothing.
        let scenario = Scenario::new(Protocol::Tdv, 4, 2).unwrap();
        let mut frontier = vec![World::new(&scenario)];
        let (mut twin_pairs, mut other_pairs) = (0, 0);
        for _ in 0..=3 {
            let mut next = Vec::new();
            for world in &frontier {
                let view = world.sym_view();
                for a in 0..4 {
                    for b in a + 1..4 {
                        let mut swap = IDENTITY[..4].to_vec();
                        swap.swap(a, b);
                        let fixed = view.permuted(&swap) == view;
                        assert_eq!(twins(&[&view], a, b), fixed, "sites {a}, {b} of {view:?}");
                        assert_eq!(fingerprint_under(&view, &swap) == view.fingerprint(), fixed);
                        if fixed {
                            twin_pairs += 1;
                        } else {
                            other_pairs += 1;
                        }
                    }
                }
                for event in crate::explore::enumerate_events(world) {
                    let mut child = world.clone();
                    child.apply(event);
                    next.push(child);
                }
            }
            frontier = next;
        }
        assert!(twin_pairs > 100 && other_pairs > 100, "both kinds occur");
    }

    #[test]
    fn permuted_view_has_equal_canonical_fingerprint() {
        // Structural pools on a TDV world: the canonicalization is a
        // pure function of the view, invariant for ANY pools — only its
        // use as a state quotient is policy-restricted.
        let scenario = Scenario::new(Protocol::Tdv, 4, 1).unwrap();
        let group = SymmetryGroup::structural(&scenario, SiteSet::EMPTY);
        let mut world = World::new(&scenario);
        for event in [
            CheckEvent::Crash(dynvote_types::SiteId::new(0)),
            CheckEvent::Write(dynvote_types::SiteId::new(2)),
            CheckEvent::Crash(dynvote_types::SiteId::new(3)),
        ] {
            world.apply(event);
        }
        let view = world.sym_view();
        let mut map = IDENTITY[..4].to_vec();
        map.swap(1, 2);
        map.swap(0, 3);
        assert!(group.admits(&map));
        let permuted = view.permuted(&map);
        assert_ne!(view, permuted, "the relabeling must actually move data");
        assert_eq!(
            canonical_fingerprint(&[&view], &group),
            canonical_fingerprint(&[&permuted], &group),
        );
    }
}
