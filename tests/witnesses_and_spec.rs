//! Integration tests for the two §5 extensions working together with
//! the rest of the system: witness copies at message level, and the
//! plain-text study specification.

use dynamic_voting::availability::run::{run_trace, simulate_row, Params};
use dynamic_voting::availability::spec::{parse_study, ucsd_spec_text};
use dynamic_voting::replica::{Cluster, ClusterBuilder, Protocol};
use dynamic_voting::sim::Duration;
use dynamic_voting::types::{SiteId, SiteSet};
use proptest::prelude::*;

// ---- witnesses --------------------------------------------------------------

/// The paper's pitch for witnesses, end to end: 2 copies + 1 witness
/// keeps serving through any single participant failure, like 3 full
/// copies would — and the data always survives.
#[test]
fn two_copies_one_witness_survives_any_single_failure() {
    for down in 0..3usize {
        let mut c: Cluster<String> = ClusterBuilder::new()
            .copies([0, 1])
            .witnesses([2])
            .protocol(Protocol::Odv)
            .build_with_value("v1".into());
        c.write(SiteId::new(0), "v2".into()).unwrap();
        c.fail_site(SiteId::new(down));
        let origin = SiteId::new(if down == 0 { 1 } else { 0 });
        assert_eq!(c.read(origin).unwrap(), "v2", "after failing S{down}");
        c.write(origin, "v3".into()).unwrap();
        // Repair + recover restores the third participant.
        c.repair_site(SiteId::new(down));
        c.recover(SiteId::new(down)).unwrap();
        assert!(c.checker().violations().is_empty());
    }
}

/// The witness-placement availability claim from the `witness_study`
/// experiment, pinned as a test: a witness on reliable site 3 gives
/// 2-copies+witness the same measured availability as 3 full copies.
#[test]
fn witness_placement_matches_third_copy_availability() {
    use dynamic_voting::core::policy::{AvailabilityPolicy, DynamicPolicy, WitnessPolicy};
    let network = dynamic_voting::availability::network::ucsd_network();
    let params = Params {
        batch_len: Duration::days(5_000.0),
        batches: 6,
        ..Params::quick_test()
    };
    let policies: Vec<Box<dyn AvailabilityPolicy>> = vec![
        Box::new(WitnessPolicy::with_mode(
            SiteSet::from_indices([0, 1]),
            SiteSet::from_indices([2]),
            false,
        )),
        Box::new(DynamicPolicy::ldv(SiteSet::from_indices([0, 1, 2]))),
    ];
    let results = run_trace(
        &network,
        &dynamic_voting::availability::sites::UCSD_SITES,
        policies,
        &params,
        "wit",
    );
    let (witness, full) = (results[0].unavailability, results[1].unavailability);
    assert!(
        (witness - full).abs() <= (witness + full) * 0.5 + 1e-6,
        "witness {witness} vs third copy {full}: should be comparable"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Witness clusters keep all safety invariants under random
    /// schedules, exactly like copy-only clusters.
    #[test]
    fn witness_clusters_never_violate_invariants(
        steps in proptest::collection::vec((0usize..5, 0usize..4), 1..100),
    ) {
        let mut c: Cluster<u64> = ClusterBuilder::new()
            .copies([0, 1, 3])
            .witnesses([2])
            .protocol(Protocol::Odv)
            .build_with_value(0);
        let mut counter = 1u64;
        for (action, site) in steps {
            let site = SiteId::new(site);
            match action {
                0 => { let _ = c.read(site); }
                1 => {
                    if c.write(site, counter).is_ok() {
                        counter += 1;
                    }
                }
                2 => { let _ = c.recover(site); }
                3 => c.fail_site(site),
                _ => c.repair_site(site),
            }
        }
        prop_assert!(
            c.checker().violations().is_empty(),
            "{:?}",
            c.checker().violations()
        );
    }
}

// ---- study spec --------------------------------------------------------------

/// The built-in spec reproduces the exact `table2` numbers: the spec
/// path and the code path describe the same study.
#[test]
fn spec_study_equals_code_study() {
    let spec = parse_study(ucsd_spec_text()).unwrap();
    let params = Params {
        batch_len: Duration::days(2_000.0),
        batches: 4,
        ..Params::quick_test()
    };
    // Row G via the code path.
    let code = simulate_row(&dynamic_voting::availability::config::CONFIG_G, &params);
    // Row G via the spec path.
    let (name, copies) = spec
        .configs
        .iter()
        .find(|(name, _)| name == "G")
        .expect("spec has config G");
    let policies: Vec<Box<dyn dynamic_voting::core::policy::AvailabilityPolicy>> = Protocol::ALL
        .iter()
        .map(|k| k.build(*copies, &spec.network))
        .collect();
    let from_spec = run_trace(&spec.network, &spec.models, policies, &params, name);
    for (a, b) in code.iter().zip(&from_spec) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(
            a.unavailability, b.unavailability,
            "{}: spec and code paths must agree bit-for-bit",
            a.policy
        );
        assert_eq!(a.outage_count, b.outage_count, "{}", a.policy);
    }
}

/// Spec parsing is total over arbitrary junk: never panics, either
/// parses or reports a lined error.
#[test]
fn spec_parser_handles_junk_gracefully() {
    for junk in [
        "",
        "segment",
        "segment a 0\nsite 0 x\nconfig X 0",
        "\u{0}\u{1}\u{2}",
        "segment a 0 0", // duplicate member within one segment is fine (set semantics)
        "config X 99",
        "site 99 z mttf_days=1 hw=0 restart_min=1 hw_floor_h=0 hw_exp_h=0",
        "access_rate nan_but_not",
    ] {
        let _ = parse_study(junk); // must not panic
    }
}
