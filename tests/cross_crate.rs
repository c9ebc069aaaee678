//! Integration tests spanning crates: policy equivalences, analytic
//! cross-validation of the simulator, determinism guarantees.

use dynamic_voting::analytic::{
    dv_unavailability, ldv_unavailability, mcv_unavailability, ParSystem,
};
use dynamic_voting::availability::config::{CONFIG_C, CONFIG_E, CONFIG_G};
use dynamic_voting::availability::run::{run_trace, simulate, simulate_row, Params};
use dynamic_voting::availability::sites::identical_sites;
use dynamic_voting::core::policy::{
    AvailabilityPolicy, AvailableCopyPolicy, DynamicPolicy, Protocol,
};
use dynamic_voting::core::Rule;
use dynamic_voting::sim::{Duration, SimRng};
use dynamic_voting::topology::{Network, Reachability};
use dynamic_voting::types::SiteSet;

/// TDV on a single segment degenerates into Available Copy (paper §3):
/// whenever AC can serve, TDV can too, and as long as no *total*
/// failure has occurred the two answer identically. After a total
/// failure TDV-as-published is strictly *more* available than AC —
/// that surplus is exactly the unsafe stale regeneration of the
/// sequential-claim hazard, so we assert it is confined to
/// AC-unavailable states.
#[test]
fn tdv_degenerates_into_available_copy_on_single_segment() {
    let n = 4;
    let copies = SiteSet::first_n(n);
    let network = Network::single_segment(n);
    let mut tdv = DynamicPolicy::tdv(copies, network.clone());
    let mut ac = AvailableCopyPolicy::new(copies);
    let mut rng = SimRng::new(0xE0);
    let mut up = copies;
    let mut total_failure_seen = false;
    let mut divergences = 0u32;
    for step in 0..20_000 {
        // Random flip of one site's liveness.
        let site = dynvote_types::SiteId::new(rng.below(n));
        if up.contains(site) {
            up.remove(site);
        } else {
            up.insert(site);
        }
        total_failure_seen |= up.is_empty();
        let reach = network.reachability(up);
        tdv.on_topology_change(&reach);
        ac.on_topology_change(&reach);
        let (t, a) = (tdv.is_available(&reach), ac.is_available(&reach));
        assert!(t || !a, "step {step}: AC available but TDV not, up = {up}");
        if t != a {
            divergences += 1;
            assert!(
                total_failure_seen,
                "step {step}: divergence before any total failure, up = {up}"
            );
            assert!(!a, "divergence must be TDV-over-AC, not the reverse");
        }
    }
    assert!(
        divergences > 0,
        "the walk should hit the post-total-failure surplus at least once"
    );
}

/// The simulator agrees with the exact CTMC models on the tractable
/// cases (identical sites, exponential repair, no partitions).
#[test]
fn simulator_matches_ctmc_models() {
    let params = Params {
        seed: 0xCAFE,
        access_rate: 0.0,
        warmup: Duration::days(100.0),
        batch_len: Duration::days(20_000.0),
        batches: 8,
    };
    for n in [2usize, 3, 4] {
        let sys = ParSystem {
            n,
            mttf: 10.0,
            mttr: 0.5,
        };
        let network = Network::single_segment(n);
        let models = identical_sites(n, Duration::days(10.0), Duration::hours(12.0));
        let copies = SiteSet::first_n(n);
        let policies: Vec<Box<dyn AvailabilityPolicy>> = vec![
            Box::new(DynamicPolicy::custom(
                "MCV",
                copies,
                Rule::static_majority(None),
                None,
            )),
            Box::new(DynamicPolicy::dv(copies)),
            Box::new(DynamicPolicy::ldv(copies)),
        ];
        let results = run_trace(&network, &models, policies, &params, "ctmc");
        let exact = [
            mcv_unavailability(&sys),
            dv_unavailability(&sys),
            ldv_unavailability(&sys),
        ];
        for (result, exact) in results.iter().zip(exact) {
            let err = (result.unavailability - exact).abs();
            // Within the CI, with a modest absolute floor for the tiny
            // n = 4 dynamic-voting values.
            assert!(
                err <= result.ci_half.max(2e-4),
                "n={n} {}: simulated {} vs exact {} (CI ±{})",
                result.policy,
                result.unavailability,
                exact,
                result.ci_half
            );
        }
    }
}

/// Common-random-numbers rows equal independently simulated cells: the
/// shared trace must not leak state between policies.
#[test]
fn row_simulation_equals_individual_simulation() {
    let params = Params {
        seed: 11,
        access_rate: 1.0,
        warmup: Duration::days(360.0),
        batch_len: Duration::days(1_000.0),
        batches: 3,
    };
    let row = simulate_row(&CONFIG_G, &params);
    for kind in Protocol::ALL {
        let single = simulate(kind, &CONFIG_G, &params);
        let in_row = row
            .iter()
            .find(|r| r.policy == kind.name())
            .expect("policy in row");
        assert_eq!(
            single.unavailability, in_row.unavailability,
            "{kind} diverged between row and single runs"
        );
        assert_eq!(single.outage_count, in_row.outage_count, "{kind}");
    }
}

/// The C-configuration identity from Table 2: with every copy on its
/// own segment, the topological protocols reduce exactly to their
/// non-topological counterparts — same trace, same numbers, bit for
/// bit.
#[test]
fn config_c_topological_identity() {
    let params = Params {
        seed: 5,
        access_rate: 1.0,
        warmup: Duration::days(360.0),
        batch_len: Duration::days(2_000.0),
        batches: 4,
    };
    let row = simulate_row(&CONFIG_C, &params);
    let by_name = |name: &str| {
        row.iter()
            .find(|r| r.policy == name)
            .expect("policy present")
    };
    assert_eq!(by_name("TDV").unavailability, by_name("LDV").unavailability);
    assert_eq!(
        by_name("OTDV").unavailability,
        by_name("ODV").unavailability
    );
    assert_eq!(by_name("TDV").outage_count, by_name("LDV").outage_count);
}

/// On configuration E (one Ethernet, no partitions possible) the
/// topological protocols essentially never go down — the paper's
/// "available for more than three hundred years" claim.
#[test]
fn config_e_topological_near_perfect() {
    let params = Params {
        seed: 21,
        access_rate: 1.0,
        warmup: Duration::days(360.0),
        batch_len: Duration::days(10_000.0),
        batches: 5,
    };
    let row = simulate_row(&CONFIG_E, &params);
    let tdv = row.iter().find(|r| r.policy == "TDV").unwrap();
    assert!(
        tdv.unavailability < 1e-5,
        "TDV on E should be near-perfect, got {}",
        tdv.unavailability
    );
    // MCV on the same trace is orders of magnitude worse.
    let mcv = row.iter().find(|r| r.policy == "MCV").unwrap();
    assert!(mcv.unavailability > 10.0 * tdv.unavailability.max(1e-9));
}

/// End-to-end determinism: identical parameters give identical results,
/// different seeds give different traces.
#[test]
fn simulation_is_deterministic_in_the_seed() {
    let params = Params {
        seed: 99,
        access_rate: 1.0,
        warmup: Duration::days(360.0),
        batch_len: Duration::days(1_000.0),
        batches: 3,
    };
    let a = simulate(Protocol::Odv, &CONFIG_G, &params);
    let b = simulate(Protocol::Odv, &CONFIG_G, &params);
    assert_eq!(a.unavailability, b.unavailability);
    assert_eq!(a.mean_outage_days, b.mean_outage_days);
    let mut other = params.clone();
    other.seed = 100;
    let c = simulate(Protocol::Odv, &CONFIG_G, &other);
    assert_ne!(
        (a.unavailability, a.outage_count),
        (c.unavailability, c.outage_count),
        "different seeds should explore different traces"
    );
}

/// A two-policy sanity ladder on the identical-site system: more copies
/// help LDV; and LDV(n) beats MCV(n) for n ≥ 3 (analytically).
#[test]
fn analytic_orderings() {
    for n in 3..=6 {
        let sys = ParSystem {
            n,
            mttf: 20.0,
            mttr: 1.0,
        };
        assert!(
            ldv_unavailability(&sys) <= mcv_unavailability(&sys),
            "n = {n}"
        );
        if n >= 4 {
            let smaller = ParSystem {
                n: n - 2,
                mttf: 20.0,
                mttr: 1.0,
            };
            assert!(
                ldv_unavailability(&sys) <= ldv_unavailability(&smaller),
                "adding two copies must not hurt LDV (n = {n})"
            );
        }
    }
}

/// Reachability objects coming out of the Figure 8 network are always
/// well-formed: disjoint groups covering exactly the up sites.
#[test]
fn reachability_well_formed_under_random_liveness() {
    let network = dynamic_voting::availability::network::ucsd_network();
    let mut rng = SimRng::new(3);
    for _ in 0..2_000 {
        let up = SiteSet::from_bits(u64::from(rng.below(256) as u8));
        let reach: Reachability = network.reachability(up);
        let mut union = SiteSet::EMPTY;
        for &g in reach.groups() {
            assert!(!g.is_empty());
            assert!(union.is_disjoint(g), "groups overlap");
            union |= g;
        }
        assert_eq!(union, up & network.sites());
    }
}
