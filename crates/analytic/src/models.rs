//! Exact availability models for the tractable special cases.
//!
//! Assumptions throughout (the Pâris–Burkhard setting): *n* identical
//! sites, exponential times-to-fail (mean `mttf`) and exponential
//! repairs (mean `mttr`, independent repair crews), a fully-connected
//! network (no partitions). Under these assumptions:
//!
//! * **MCV** availability is a binomial tail — each site is up
//!   independently with probability `A = mttf / (mttf + mttr)`;
//! * **DV / LDV / Available Copy** are finite CTMCs over
//!   `(up-set, protocol-state)` pairs with *instantaneous* state
//!   exchange, built by reachability search from the all-up state and
//!   solved exactly;
//! * **ODV** adds one more exponential event stream — Poisson file
//!   accesses at rate `λ_a` — and exchanges state *only* at those
//!   events, so even the optimistic protocol has an exact chain here.
//!
//! The integration tests drive the discrete-event simulator with the
//! same parameters and check agreement, validating the whole simulation
//! stack (queue, distributions, driver, policies, statistics).

use std::collections::HashMap;

use crate::ctmc::Ctmc;

/// The parameters of the identical-site, fully-connected system.
#[derive(Clone, Copy, Debug)]
pub struct ParSystem {
    /// Number of replica sites.
    pub n: usize,
    /// Mean time to fail of each site (any time unit).
    pub mttf: f64,
    /// Mean time to repair (same unit).
    pub mttr: f64,
}

impl ParSystem {
    /// Per-site steady-state availability.
    #[must_use]
    pub fn site_availability(&self) -> f64 {
        site_availability(self.mttf, self.mttr)
    }
}

/// Steady-state availability of a single repairable site:
/// `MTTF / (MTTF + MTTR)`.
#[must_use]
pub fn site_availability(mttf: f64, mttr: f64) -> f64 {
    mttf / (mttf + mttr)
}

fn binomial(n: usize, k: usize) -> f64 {
    let mut result = 1.0f64;
    for i in 0..k.min(n - k) {
        result = result * (n - i) as f64 / (i + 1) as f64;
    }
    result
}

/// Exact MCV unavailability: the probability that fewer than
/// `⌊n/2⌋ + 1` of the `n` sites are up.
///
/// # Panics
///
/// Panics when `sys.n == 0`.
#[must_use]
pub fn mcv_unavailability(sys: &ParSystem) -> f64 {
    assert!(sys.n > 0, "at least one copy required");
    let a = sys.site_availability();
    let quorum = sys.n / 2 + 1;
    (0..quorum)
        .map(|k| binomial(sys.n, k) * a.powi(k as i32) * (1.0 - a).powi((sys.n - k) as i32))
        .sum()
}

// ---------------------------------------------------------------------------
// The generic (up-set, protocol-state) chain builder.
// ---------------------------------------------------------------------------

/// A protocol abstracted for exact analysis: a word of protocol state
/// (e.g. the partition set as a bitmask), an availability predicate,
/// and a state-exchange (sync) function.
struct ChainProtocol {
    /// Would an access be granted in `(up, state)`?
    grants: Box<dyn Fn(u32, u32) -> bool>,
    /// The state after one state-exchange opportunity in `(up, state)`.
    sync: Box<dyn Fn(u32, u32) -> u32>,
}

impl ChainProtocol {
    fn from_fns(grants: fn(u32, u32) -> bool, sync: fn(u32, u32) -> u32) -> Self {
        ChainProtocol {
            grants: Box::new(grants),
            sync: Box::new(sync),
        }
    }
}

/// A fully built protocol chain, ready for steady-state or
/// first-passage analysis.
struct BuiltChain {
    chain: Ctmc,
    states: Vec<(u32, u32)>,
    grants: Box<dyn Fn(u32, u32) -> bool>,
}

impl BuiltChain {
    /// Steady-state unavailability: probability mass on non-granting
    /// states.
    fn unavailability(&self) -> f64 {
        let pi = self.chain.steady_state();
        self.states
            .iter()
            .zip(&pi)
            .filter(|(&(up, st), _)| !(self.grants)(up, st))
            .map(|(_, &prob)| prob)
            .sum()
    }

    /// Reliability: mean time from the fresh all-up state until the
    /// file *first* becomes unavailable.
    fn mttf(&self) -> f64 {
        let targets: Vec<bool> = self
            .states
            .iter()
            .map(|&(up, st)| !(self.grants)(up, st))
            .collect();
        self.chain.mean_first_passage(0, &targets)
    }
}

/// Builds the exact chain for `proto` on `sys`.
///
/// `access_rate` selects the state-exchange semantics:
/// * `None` — *instantaneous*: a sync runs at every up-set change (the
///   connection-vector protocols DV, LDV, AC);
/// * `Some(λ)` — *optimistic*: syncs run only at Poisson(λ) access
///   events, so `(up, state)` pairs with stale state are first-class
///   chain states (ODV).
fn build_chain(sys: &ParSystem, proto: ChainProtocol, access_rate: Option<f64>) -> BuiltChain {
    assert!(sys.n >= 1 && sys.n <= 16, "chain built for 1..=16 sites");
    let n = sys.n;
    let all: u32 = (1u32 << n) - 1;
    let lambda = 1.0 / sys.mttf;
    let mu = 1.0 / sys.mttr;

    let effective = |up: u32, state: u32| -> u32 {
        match access_rate {
            None => (proto.sync)(up, state),
            Some(_) => state, // optimistic: topology changes do not sync
        }
    };

    // Reachability search over (up, state) from the all-up, all-synced
    // start.
    let start = (all, (proto.sync)(all, all));
    let mut index: HashMap<(u32, u32), usize> = HashMap::new();
    let mut states: Vec<(u32, u32)> = vec![start];
    index.insert(start, 0);
    let mut stack = vec![start];
    let mut successors: Vec<(u32, u32)> = Vec::new();
    while let Some((up, st)) = stack.pop() {
        successors.clear();
        for site in 0..n {
            let up2 = up ^ (1u32 << site);
            successors.push((up2, effective(up2, st)));
        }
        if access_rate.is_some() {
            successors.push((up, (proto.sync)(up, st)));
        }
        for &next in &successors {
            if let std::collections::hash_map::Entry::Vacant(slot) = index.entry(next) {
                slot.insert(states.len());
                states.push(next);
                stack.push(next);
            }
        }
    }

    let mut chain = Ctmc::new(states.len());
    for (i, &(up, st)) in states.iter().enumerate() {
        for site in 0..n {
            let bit = 1u32 << site;
            let (rate, up2) = if up & bit != 0 {
                (lambda, up & !bit)
            } else {
                (mu, up | bit)
            };
            let j = index[&(up2, effective(up2, st))];
            if i != j {
                chain.add_rate(i, j, rate);
            }
        }
        if let Some(acc) = access_rate {
            let j = index[&(up, (proto.sync)(up, st))];
            if i != j {
                chain.add_rate(i, j, acc);
            }
        }
    }

    BuiltChain {
        chain,
        states,
        grants: proto.grants,
    }
}

fn chain_unavailability(sys: &ParSystem, proto: ChainProtocol, access_rate: Option<f64>) -> f64 {
    build_chain(sys, proto, access_rate).unavailability()
}

// ---------------------------------------------------------------------------
// Concrete protocols.
// ---------------------------------------------------------------------------

/// Dynamic-voting grant: a strict majority of the partition set `p`,
/// without tie-break.
fn dv_grants(up: u32, p: u32) -> bool {
    2 * (up & p).count_ones() > p.count_ones()
}

fn dv_sync(up: u32, p: u32) -> u32 {
    if up != 0 && dv_grants(up, p) {
        up
    } else {
        p
    }
}

/// Lexicographic grant: majority, or exactly half including `max(p)` —
/// the lowest set bit under the default (descending-priority) lexicon.
fn ldv_grants(up: u32, p: u32) -> bool {
    let q = (up & p).count_ones();
    let c = p.count_ones();
    if 2 * q > c {
        return true;
    }
    if 2 * q == c && c > 0 {
        let max_site = p.trailing_zeros();
        return up & (1 << max_site) != 0;
    }
    false
}

fn ldv_sync(up: u32, p: u32) -> u32 {
    if up != 0 && ldv_grants(up, p) {
        up
    } else {
        p
    }
}

/// Available-Copy grant: some up site holds current data (`state` is
/// the current set).
fn ac_grants(up: u32, current: u32) -> bool {
    up & current != 0
}

fn ac_sync(up: u32, current: u32) -> u32 {
    if up & current != 0 {
        up
    } else {
        current
    }
}

/// Exact unavailability of original Dynamic Voting (no tie-break) with
/// instantaneous state exchange.
#[must_use]
pub fn dv_unavailability(sys: &ParSystem) -> f64 {
    chain_unavailability(sys, dv_proto(), None)
}

/// Exact unavailability of Lexicographic Dynamic Voting with
/// instantaneous state exchange.
#[must_use]
pub fn ldv_unavailability(sys: &ParSystem) -> f64 {
    chain_unavailability(sys, ldv_proto(), None)
}

/// Exact unavailability of **Optimistic** Dynamic Voting: the LDV rule
/// with state exchanged only at Poisson accesses of the given rate
/// (in events per the same time unit as `mttf`/`mttr`).
///
/// As `access_rate → ∞` this converges to [`ldv_unavailability`]; as
/// `access_rate → 0` the quorum fossilizes at the initial all-copies
/// partition set and the model approaches static majority voting.
#[must_use]
pub fn odv_unavailability(sys: &ParSystem, access_rate: f64) -> f64 {
    assert!(access_rate > 0.0, "the optimistic chain needs accesses");
    chain_unavailability(sys, ldv_proto(), Some(access_rate))
}

/// Exact unavailability of the Available-Copy protocol (instantaneous
/// resynchronization, non-partitionable network): unavailable only while
/// no holder of the latest data is up.
#[must_use]
pub fn ac_unavailability(sys: &ParSystem) -> f64 {
    chain_unavailability(sys, ac_proto(), None)
}

/// Topological (TDV) grant over a static segment map: `Q ∪ claimed`
/// against `p`, where a member of `p` is claimed iff it shares a
/// segment with a present member of `p`; the tie-break consults the
/// *present* members only (Figures 5–7).
fn tdv_grants(up: u32, p: u32, segments: &[u32]) -> bool {
    let present = up & p;
    if present == 0 {
        return false;
    }
    let mut t = 0u32;
    for &segment in segments {
        if present & segment != 0 {
            t |= p & segment;
        }
    }
    let count = t.count_ones();
    let c = p.count_ones();
    if 2 * count > c {
        return true;
    }
    if 2 * count == c {
        let max_site = p.trailing_zeros();
        return present & (1 << max_site) != 0;
    }
    false
}

fn tdv_proto(segments: Vec<u32>) -> ChainProtocol {
    let seg2 = segments.clone();
    ChainProtocol {
        grants: Box::new(move |up, p| tdv_grants(up, p, &segments)),
        sync: Box::new(move |up, p| {
            if up != 0 && tdv_grants(up, p, &seg2) {
                up
            } else {
                p
            }
        }),
    }
}

/// Exact unavailability of Topological Dynamic Voting on identical
/// sites grouped into the given non-partitionable `segments` (bitmask
/// per segment; the masks must partition the first `sys.n` bits).
///
/// With every site on its own segment this equals
/// [`ldv_unavailability`]; with all sites on one segment it equals
/// [`ac_unavailability`] — the paper's two degenerate-case claims,
/// both verified in the tests. Because segments never partition in
/// this model, the intermediate cases isolate the pure effect of vote
/// claiming.
///
/// Note: the chain's state is one partition set for the whole file, so
/// it cannot hold the stale set of a copy that failed before the last
/// commit. Figures 5–7 keep one per copy, and a copy that returns alone
/// after a co-segment total failure claims its peers' votes from its
/// own stale set (the sequential-claim hazard); the chain refuses that
/// access, as Available Copy does. The simulator follows the figures,
/// so on one segment it measures TDV more available than this chain.
#[must_use]
pub fn tdv_unavailability(sys: &ParSystem, segments: &[u32]) -> f64 {
    validate_segments(sys, segments);
    chain_unavailability(sys, tdv_proto(segments.to_vec()), None)
}

/// Mean time until Topological Dynamic Voting first becomes
/// unavailable (see [`tdv_unavailability`] for the segment encoding).
#[must_use]
pub fn tdv_mttf(sys: &ParSystem, segments: &[u32]) -> f64 {
    validate_segments(sys, segments);
    build_chain(sys, tdv_proto(segments.to_vec()), None).mttf()
}

fn validate_segments(sys: &ParSystem, segments: &[u32]) {
    let all: u32 = (1u32 << sys.n) - 1;
    let mut union = 0u32;
    for &segment in segments {
        assert_eq!(union & segment, 0, "segments must be disjoint");
        union |= segment;
    }
    assert_eq!(union, all, "segments must cover all sites");
}

// ---------------------------------------------------------------------------
// Reliability (mean time to first unavailability).
// ---------------------------------------------------------------------------

fn dv_proto() -> ChainProtocol {
    ChainProtocol::from_fns(dv_grants, dv_sync)
}
fn ldv_proto() -> ChainProtocol {
    ChainProtocol::from_fns(ldv_grants, ldv_sync)
}
fn ac_proto() -> ChainProtocol {
    ChainProtocol::from_fns(ac_grants, ac_sync)
}

/// Mean time (same unit as `mttf`/`mttr`) from the fresh all-up state
/// until static majority voting first loses its quorum.
///
/// MCV keeps no adjustable state; the chain's state word is fixed at
/// the all-copies mask, whose popcount gives the total `n` for the
/// static quorum test.
#[must_use]
pub fn mcv_mttf(sys: &ParSystem) -> f64 {
    build_chain(
        sys,
        ChainProtocol::from_fns(
            |up, all| 2 * up.count_ones() > all.count_ones(),
            |_up, all| all,
        ),
        None,
    )
    .mttf()
}

/// Mean time until original Dynamic Voting first becomes unavailable.
#[must_use]
pub fn dv_mttf(sys: &ParSystem) -> f64 {
    build_chain(sys, dv_proto(), None).mttf()
}

/// Mean time until Lexicographic Dynamic Voting first becomes
/// unavailable.
#[must_use]
pub fn ldv_mttf(sys: &ParSystem) -> f64 {
    build_chain(sys, ldv_proto(), None).mttf()
}

/// Mean time until the Available-Copy protocol first becomes
/// unavailable (i.e. until the last current copy dies).
#[must_use]
pub fn ac_mttf(sys: &ParSystem) -> f64 {
    build_chain(sys, ac_proto(), None).mttf()
}

/// Mean time until Optimistic Dynamic Voting (accesses at `access_rate`)
/// first becomes unavailable.
///
/// # Panics
///
/// Panics when `access_rate` is not strictly positive.
#[must_use]
pub fn odv_mttf(sys: &ParSystem, access_rate: f64) -> f64 {
    assert!(access_rate > 0.0, "the optimistic chain needs accesses");
    build_chain(sys, ldv_proto(), Some(access_rate)).mttf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(n: usize) -> ParSystem {
        ParSystem {
            n,
            mttf: 10.0,
            mttr: 1.0,
        }
    }

    #[test]
    fn binomial_coefficients() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(8, 4), 70.0);
    }

    #[test]
    fn single_copy_equals_site_unavailability() {
        let s = sys(1);
        let u = 1.0 - s.site_availability();
        for model in [
            mcv_unavailability(&s),
            dv_unavailability(&s),
            ldv_unavailability(&s),
            ac_unavailability(&s),
            odv_unavailability(&s, 3.0),
        ] {
            assert!((model - u).abs() < 1e-12, "{model} vs {u}");
        }
    }

    #[test]
    fn mcv_three_copies_closed_form() {
        let s = sys(3);
        let a = s.site_availability();
        // Unavailable iff 0 or 1 up.
        let expect = (1.0 - a).powi(3) + 3.0 * a * (1.0 - a) * (1.0 - a);
        assert!((mcv_unavailability(&s) - expect).abs() < 1e-12);
    }

    #[test]
    fn ldv_beats_dv() {
        for n in 2..=5 {
            let s = sys(n);
            assert!(
                ldv_unavailability(&s) <= dv_unavailability(&s) + 1e-15,
                "n = {n}"
            );
        }
    }

    #[test]
    fn dv_three_copies_worse_than_mcv() {
        // The Pâris–Burkhard result the paper repeats: for three copies
        // DV is *more* restrictive than MCV.
        let s = sys(3);
        assert!(dv_unavailability(&s) > mcv_unavailability(&s));
    }

    #[test]
    fn ldv_five_copies_beats_mcv() {
        let s = sys(5);
        assert!(ldv_unavailability(&s) < mcv_unavailability(&s));
    }

    #[test]
    fn available_copy_dominates_everything() {
        // AC needs only one surviving current copy: on a partition-free
        // network it lower-bounds every voting scheme.
        for n in 2..=5 {
            let s = sys(n);
            let ac = ac_unavailability(&s);
            assert!(ac <= mcv_unavailability(&s));
            assert!(ac <= ldv_unavailability(&s));
        }
    }

    #[test]
    fn ac_two_copies_closed_form() {
        // With instantaneous resync, the only unavailable states are
        // "all down": from all-up, failures must take down the last
        // current holder. For n = 2 the chain is small enough to check
        // against an independently derived value: unavailability =
        // P(both down and the last-down site still down), which for
        // identical exponential sites is P(both down) (the current set
        // always contains the most recent survivor, who is down too).
        let s = sys(2);
        let a = s.site_availability();
        let both_down = (1.0 - a) * (1.0 - a);
        let ac = ac_unavailability(&s);
        // AC can also be unavailable when the last holder is down but
        // the *other* site is back up (it holds stale data): so the
        // exact value exceeds P(both down) but is below P(either down).
        assert!(ac >= both_down);
        assert!(ac < 1.0 - a);
    }

    #[test]
    fn odv_converges_to_ldv_with_fast_access() {
        for n in [2usize, 3, 4] {
            let s = sys(n);
            let ldv = ldv_unavailability(&s);
            let odv_fast = odv_unavailability(&s, 1e4);
            assert!(
                (odv_fast - ldv).abs() < 1e-4,
                "n = {n}: odv(∞) = {odv_fast}, ldv = {ldv}"
            );
        }
    }

    #[test]
    fn odv_is_monotone_in_access_rate_here() {
        // On the identical-site system, fresher information can only
        // help (the paper's configuration-F inversion needs asymmetric
        // repair times and a partition point).
        let s = sys(3);
        let slow = odv_unavailability(&s, 0.1);
        let mid = odv_unavailability(&s, 1.0);
        let fast = odv_unavailability(&s, 10.0);
        assert!(slow >= mid && mid >= fast, "{slow} >= {mid} >= {fast}");
    }

    #[test]
    fn odv_never_beats_ldv_on_symmetric_systems() {
        for n in 2..=4 {
            let s = sys(n);
            assert!(odv_unavailability(&s, 1.0) >= ldv_unavailability(&s) - 1e-12);
        }
    }

    #[test]
    fn single_copy_mttf_is_site_mttf() {
        let s = sys(1);
        for (name, mttf) in [
            ("mcv", mcv_mttf(&s)),
            ("dv", dv_mttf(&s)),
            ("ldv", ldv_mttf(&s)),
            ("ac", ac_mttf(&s)),
        ] {
            assert!((mttf - 10.0).abs() < 1e-9, "{name}: {mttf}");
        }
    }

    #[test]
    fn mttf_orderings_match_availability_orderings() {
        // More permissive protocols live longer before the first outage.
        for n in 2..=5 {
            let s = sys(n);
            assert!(ldv_mttf(&s) >= dv_mttf(&s) - 1e-9, "n = {n}");
            assert!(ac_mttf(&s) >= ldv_mttf(&s) - 1e-9, "n = {n}");
        }
        // Note: DV's *first* outage from the fresh state coincides with
        // MCV's (two failures faster than one repair) — the Table 2 gap
        // between them is a steady-state effect (DV stays stuck after a
        // tie), not a first-passage one.
        let s = sys(3);
        assert!((dv_mttf(&s) - mcv_mttf(&s)).abs() < 1e-6);
        assert!(dv_unavailability(&s) > mcv_unavailability(&s));
    }

    #[test]
    fn mttf_grows_with_copies_for_ldv() {
        let base = ldv_mttf(&sys(2));
        let more = ldv_mttf(&sys(4));
        assert!(more > base, "{more} should exceed {base}");
    }

    #[test]
    fn odv_mttf_approaches_ldv_with_fast_access() {
        let s = sys(3);
        let ldv = ldv_mttf(&s);
        let odv = odv_mttf(&s, 1e4);
        assert!(
            (odv - ldv).abs() / ldv < 1e-2,
            "odv(fast) = {odv}, ldv = {ldv}"
        );
        // And a slow ODV dies sooner (stale quorums).
        assert!(odv_mttf(&s, 0.1) <= ldv + 1e-9);
    }

    #[test]
    fn two_copy_ldv_mttf_equals_max_site_mttf() {
        // With two copies the file is available exactly while site 0
        // (the tie winner) is up: its first outage is site 0's first
        // failure, so the file MTTF equals one site MTTF exactly.
        let s = sys(2);
        assert!((ldv_mttf(&s) - s.mttf).abs() < 1e-9);
        // DV dies at the first failure of *either* site: half the MTTF.
        assert!((dv_mttf(&s) - s.mttf / 2.0).abs() < 1e-9);
        // AC survives until both are down simultaneously: much longer.
        assert!(ac_mttf(&s) > 5.0 * s.mttf);
    }

    #[test]
    fn tdv_degenerate_cases_match_the_paper_claims() {
        for n in 2..=5usize {
            let s = sys(n);
            let all_separate: Vec<u32> = (0..n).map(|i| 1u32 << i).collect();
            assert!(
                (tdv_unavailability(&s, &all_separate) - ldv_unavailability(&s)).abs() < 1e-12,
                "n = {n}: separate segments ⇒ TDV ≡ LDV"
            );
            let one_segment = vec![(1u32 << n) - 1];
            assert!(
                (tdv_unavailability(&s, &one_segment) - ac_unavailability(&s)).abs() < 1e-12,
                "n = {n}: one segment ⇒ TDV ≡ Available Copy"
            );
        }
    }

    #[test]
    fn tdv_intermediate_segmentation_is_intermediate() {
        // 4 sites: {0,1} share a segment, {2}, {3} separate — strictly
        // between LDV (no claims) and AC (all claims).
        let s = sys(4);
        let mixed = tdv_unavailability(&s, &[0b0011, 0b0100, 0b1000]);
        assert!(mixed <= ldv_unavailability(&s) + 1e-15);
        assert!(mixed >= ac_unavailability(&s) - 1e-15);
    }

    #[test]
    fn tdv_mttf_degenerates_too() {
        let s = sys(3);
        let all_separate = [0b001u32, 0b010, 0b100];
        assert!((tdv_mttf(&s, &all_separate) - ldv_mttf(&s)).abs() < 1e-9);
        assert!((tdv_mttf(&s, &[0b111]) - ac_mttf(&s)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "segments must cover")]
    fn tdv_segments_must_cover() {
        let _ = tdv_unavailability(&sys(3), &[0b001]);
    }

    #[test]
    #[should_panic(expected = "segments must be disjoint")]
    fn tdv_segments_must_be_disjoint() {
        let _ = tdv_unavailability(&sys(3), &[0b011, 0b110]);
    }

    #[test]
    fn grants_logic() {
        // P = {0, 1, 2} (bits 0b111): two up is a strict majority.
        assert!(dv_grants(0b011, 0b111));
        assert!(!dv_grants(0b001, 0b111));
        // P = {0, 1}: one up is a tie; bit 0 is max(P).
        assert!(!dv_grants(0b01, 0b11));
        assert!(ldv_grants(0b01, 0b11));
        assert!(!ldv_grants(0b10, 0b11));
        // Empty up set never grants.
        assert!(!ldv_grants(0, 0b11));
        // AC: any up current copy.
        assert!(ac_grants(0b10, 0b11));
        assert!(!ac_grants(0b10, 0b01));
    }

    #[test]
    fn reasonable_magnitudes() {
        // With MTTF/MTTR = 10, three-copy LDV should be far better than
        // one copy and a bit better than MCV.
        let s = sys(3);
        let one = 1.0 - s.site_availability();
        let ldv = ldv_unavailability(&s);
        let mcv = mcv_unavailability(&s);
        assert!(ldv < mcv);
        assert!(mcv < one);
    }
}
