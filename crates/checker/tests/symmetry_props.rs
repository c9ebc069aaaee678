//! Symmetry-quotient soundness properties.
//!
//! Two obligations keep `--symmetry on` honest:
//!
//! 1. **Canonical fingerprints are orbit invariants**: for any
//!    reachable state and any admissible relabeling of its sites, the
//!    canonical fingerprint of the relabeled state equals the
//!    original's. Checked on random walks over random topologies, with
//!    random permutations drawn from the structural group.
//! 2. **The quotient loses no violations**: on random small scenarios
//!    a symmetry-on run never reports fewer distinct violations (real
//!    or hazard) than the brute-force symmetry-off run — and for the
//!    lexicographic policies, whose sound group is the identity, the
//!    two runs are statistic-identical.
//!
//! A third keeps the fingerprint itself honest, now that it is the
//! checker's own word hash over a reused view:
//!
//! 3. **The view is the state and the hash sees all of it**: a view
//!    filled over a dirty buffer equals what the cluster's accessors
//!    say; the plain fingerprint is the canonical one under the trivial
//!    group; and changing any single field of a view changes its
//!    fingerprint.
//!
//! Randomness is derived from one proptest-drawn seed through a
//! splitmix64 stream, so every failure replays from a single integer.

use dynvote_check::symmetry::NodeView;
use dynvote_check::{
    canonical_fingerprint, enumerate_events, run, CheckConfig, Scenario, SymView, SymmetryGroup,
    World, ALL_POLICIES,
};
use dynvote_replica::Protocol;
use dynvote_types::{SiteId, SiteSet};
use proptest::prelude::*;

/// Deterministic seed-expansion stream (splitmix64).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A random scenario shape: up to 6 sites for the invariance walk.
fn random_scenario(stream: &mut Stream, max_sites: usize) -> Scenario {
    let policy = ALL_POLICIES[stream.below(ALL_POLICIES.len())];
    let sites = 2 + stream.below(max_sites - 1);
    let segments = 1 + stream.below(sites.min(3));
    Scenario::new(policy, sites, segments).unwrap()
}

/// Walks `steps` random applicable events from the initial state.
fn random_walk(scenario: &Scenario, steps: usize, stream: &mut Stream) -> World {
    let mut world = World::new(scenario);
    for _ in 0..steps {
        let events = enumerate_events(&world);
        if events.is_empty() {
            break;
        }
        world.apply(events[stream.below(events.len())]);
    }
    world
}

/// Draws a random admissible relabeling: an independent shuffle of each
/// pool, identity elsewhere.
fn random_relabeling(group: &SymmetryGroup, sites: usize, stream: &mut Stream) -> Vec<usize> {
    let mut map: Vec<usize> = (0..sites).collect();
    for pool in group.pools() {
        let slots: Vec<usize> = pool.iter().map(|s| s.index()).collect();
        let mut image = slots.clone();
        // Fisher–Yates over the pool's slots.
        for i in (1..image.len()).rev() {
            image.swap(i, stream.below(i + 1));
        }
        for (slot, target) in slots.iter().zip(&image) {
            map[*slot] = *target;
        }
    }
    map
}

/// The view of `world`, read field by field through the cluster's
/// public accessors.
fn view_by_accessors(world: &World) -> SymView {
    let cluster = &world.cluster;
    let participants = cluster.participants();
    let sites = participants.max().map_or(0, |s| s.index() + 1);
    let checker = cluster.checker();
    SymView {
        sites,
        up: cluster.up_sites(),
        forced: world.forced(),
        nodes: (0..sites)
            .map(SiteId::new)
            .map(|site| {
                if !participants.contains(site) {
                    return NodeView::default();
                }
                let state = cluster.state_at(site);
                NodeView {
                    participant: true,
                    up: cluster.up_sites().contains(site),
                    pending: cluster.pending_at(site).is_some(),
                    op: state.op,
                    version: state.version,
                    partition: state.partition,
                    value: cluster.value_at(site),
                }
            })
            .collect(),
        commits: checker.commits().collect(),
        versions: checker.written().collect(),
        monitor: (checker.latest_written(), checker.violations().len() as u64),
        // Site-free bookkeeping the accessors do not reach; its effect
        // on fingerprints is pinned by `forced_partition_tracks_index`
        // and the single-field property below.
        scalars: world.sym_view().scalars,
    }
}

/// Every view that differs from `view` in exactly one field.
fn single_field_perturbations(view: &SymView, stream: &mut Stream) -> Vec<(String, SymView)> {
    let mut out = Vec::new();
    let mut push = |what: String, edit: &dyn Fn(&mut SymView)| {
        let mut changed = view.clone();
        edit(&mut changed);
        out.push((what, changed));
    };
    let site = SiteId::new(stream.below(view.sites.max(1)));
    let toggle = |set: &mut SiteSet| {
        if !set.insert(site) {
            set.remove(site);
        }
    };
    let delta = 1 + stream.next() % 7;
    push("up".into(), &|v| toggle(&mut v.up));
    push("forced".into(), &|v| {
        v.forced = Some(v.forced.map_or(0, |i| i + 1));
    });
    for i in 0..view.nodes.len() {
        push(format!("node {i} participant"), &|v| {
            v.nodes[i].participant ^= true;
        });
        push(format!("node {i} up"), &|v| v.nodes[i].up ^= true);
        push(format!("node {i} pending"), &|v| v.nodes[i].pending ^= true);
        push(format!("node {i} op"), &|v| v.nodes[i].op += delta);
        push(format!("node {i} version"), &|v| {
            v.nodes[i].version += delta
        });
        push(format!("node {i} partition"), &|v| {
            toggle(&mut v.nodes[i].partition);
        });
        push(format!("node {i} value"), &|v| v.nodes[i].value += delta);
    }
    for i in 0..view.commits.len() {
        push(format!("commit {i} op"), &|v| v.commits[i].0 += delta);
        push(format!("commit {i} participants"), &|v| {
            toggle(&mut v.commits[i].1);
        });
    }
    for i in 0..view.versions.len() {
        push(format!("version {i}"), &|v| v.versions[i].0 += delta);
        push(format!("version {i} times"), &|v| v.versions[i].1 += delta);
    }
    push("latest written".into(), &|v| v.monitor.0 += delta);
    push("violation count".into(), &|v| v.monitor.1 += delta);
    for i in 0..3 {
        push(format!("scalar {i}"), &|v| v.scalars[i] += delta);
    }
    out
}

proptest! {
    /// A view filled over whatever an earlier, unrelated state left in
    /// the buffer is exactly the state the cluster's accessors report.
    #[test]
    fn prop_reused_view_carries_exactly_the_state(seed in any::<u64>()) {
        let mut stream = Stream(seed);
        let mut view = SymView::default();
        for _ in 0..3 {
            let scenario = random_scenario(&mut stream, 6);
            let steps = stream.below(8);
            let world = random_walk(&scenario, steps, &mut stream);
            world.fill_view(&mut view);
            prop_assert_eq!(&view, &view_by_accessors(&world), "{}", scenario);
            prop_assert_eq!(&view, &world.sym_view());
        }
    }

    /// With nothing to relabel, the canonical fingerprint is the plain
    /// one — for a single view and for a lockstep pair.
    #[test]
    fn prop_trivial_group_canonical_is_plain(seed in any::<u64>()) {
        let mut stream = Stream(seed);
        let scenario = random_scenario(&mut stream, 6);
        let group = SymmetryGroup::trivial(scenario.sites);
        let a = random_walk(&scenario, stream.below(7), &mut stream).sym_view();
        let b = random_walk(&scenario, stream.below(7), &mut stream).sym_view();
        prop_assert_eq!(canonical_fingerprint(&[&a], &group), a.fingerprint());
        prop_assert_eq!(
            canonical_fingerprint(&[&a, &b], &group),
            a.fingerprint() ^ b.fingerprint().rotate_left(17)
        );
    }

    /// No field of a view is invisible to its fingerprint.
    #[test]
    fn prop_any_single_field_moves_the_fingerprint(seed in any::<u64>()) {
        let mut stream = Stream(seed);
        let scenario = random_scenario(&mut stream, 6);
        let steps = stream.below(8);
        let view = random_walk(&scenario, steps, &mut stream).sym_view();
        let group = SymmetryGroup::trivial(scenario.sites);
        for (what, changed) in single_field_perturbations(&view, &mut stream) {
            prop_assert_ne!(&changed, &view, "{} did not change the view", what);
            prop_assert_ne!(
                changed.fingerprint(), view.fingerprint(),
                "{} is invisible to the fingerprint on {}", what, scenario
            );
            prop_assert_ne!(
                canonical_fingerprint(&[&changed], &group),
                canonical_fingerprint(&[&view], &group)
            );
        }
    }

    /// Canonical fingerprints are invariant under every admissible
    /// relabeling of reachable states — on the *structural* group, so
    /// the property exercises the canonicalizer on every topology and
    /// policy, independent of the policy filter in `SymmetryGroup::of`.
    #[test]
    fn prop_canonical_fingerprint_is_orbit_invariant(seed in any::<u64>()) {
        let mut stream = Stream(seed);
        let scenario = random_scenario(&mut stream, 6);
        let group = SymmetryGroup::structural(&scenario, SiteSet::EMPTY);
        let steps = stream.below(7);
        let world = random_walk(&scenario, steps, &mut stream);
        let view = world.sym_view();
        let base = canonical_fingerprint(&[&view], &group);
        for _ in 0..3 {
            let map = random_relabeling(&group, scenario.sites, &mut stream);
            prop_assert!(group.admits(&map), "drawn map must be admissible: {map:?}");
            let permuted = view.permuted(&map);
            let relabeled = canonical_fingerprint(&[&permuted], &group);
            prop_assert_eq!(
                base, relabeled,
                "canonical fingerprint moved under {:?} on {}", map, scenario
            );
        }
    }

    /// Pair fingerprints (differential lockstep states) are invariant
    /// too, when the SAME relabeling acts on both views.
    #[test]
    fn prop_pair_canonical_fingerprint_is_orbit_invariant(seed in any::<u64>()) {
        let mut stream = Stream(seed);
        let scenario = random_scenario(&mut stream, 5);
        let group = SymmetryGroup::structural(&scenario, SiteSet::EMPTY);
        let world_a = random_walk(&scenario, stream.below(5), &mut stream);
        let world_b = random_walk(&scenario, stream.below(5), &mut stream);
        let (va, vb) = (world_a.sym_view(), world_b.sym_view());
        let base = canonical_fingerprint(&[&va, &vb], &group);
        let map = random_relabeling(&group, scenario.sites, &mut stream);
        let relabeled = canonical_fingerprint(&[&va.permuted(&map), &vb.permuted(&map)], &group);
        prop_assert_eq!(base, relabeled);
    }

    /// Brute-force cross-check on random ≤4-site scenarios: the
    /// symmetry quotient never hides a violation. For DV/MCV the
    /// quotient may (and should) shrink the state count; for the
    /// lexicographic policies the sound group is the identity, so every
    /// statistic must match exactly.
    #[test]
    fn prop_symmetry_never_reports_fewer_violations(seed in any::<u64>()) {
        let mut stream = Stream(seed);
        let scenario = random_scenario(&mut stream, 4);
        let depth = 3 + stream.below(2);
        let plain = run(&CheckConfig::new(scenario, depth));
        let quotient = run(&CheckConfig::new(scenario, depth).symmetry(true));
        prop_assert!(
            quotient.real_violations >= plain.real_violations,
            "{scenario} depth {depth}: quotient lost real violations \
             ({} < {})", quotient.real_violations, plain.real_violations
        );
        prop_assert!(
            quotient.known_hazards >= plain.known_hazards,
            "{scenario} depth {depth}: quotient lost hazards \
             ({} < {})", quotient.known_hazards, plain.known_hazards
        );
        prop_assert!(
            quotient.states_explored <= plain.states_explored,
            "{scenario} depth {depth}: quotient grew the state space"
        );
        if matches!(
            scenario.policy,
            Protocol::Ldv | Protocol::Odv | Protocol::Tdv | Protocol::Otdv
        ) {
            prop_assert_eq!(plain.states_explored, quotient.states_explored);
            prop_assert_eq!(plain.transitions, quotient.transitions);
            prop_assert_eq!(plain.dedup_hits, quotient.dedup_hits);
        }
    }
}
