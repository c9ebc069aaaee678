//! The six policies are one table: the simulator's policy, the
//! cluster's protocol and the checker's token name the same policy,
//! agree on the optimistic axis, and map to the same decision rule.

use dynamic_voting::core::decision::Rule;
use dynamic_voting::core::lexicon::Lexicon;
use dynamic_voting::core::policy::Protocol as SimPolicy;
use dynamic_voting::replica::{ClusterBuilder, Protocol};
use dynamic_voting::topology::Network;
use dynamic_voting::types::SiteSet;

const SIM_POLICIES: [SimPolicy; 6] = SimPolicy::ALL;

fn token(protocol: Protocol) -> &'static str {
    protocol.token()
}

fn parse(token: &str) -> Option<Protocol> {
    Protocol::parse(token)
}

/// A policy's name, token, optimism and rule constructor.
type Expected = (&'static str, &'static str, bool, fn(Lexicon) -> Rule);

/// Every policy's [`Expected`] row, in the paper's column order.
fn expected() -> [Expected; 6] {
    fn topological(lexicon: Lexicon) -> Rule {
        let mut rule = Rule::with_lexicon(lexicon);
        rule.topological = true;
        rule
    }
    [
        ("MCV", "mcv", false, |lexicon| {
            Rule::static_majority(Some(lexicon))
        }),
        ("DV", "dv", false, |_| Rule::dv()),
        ("LDV", "ldv", false, Rule::with_lexicon),
        ("ODV", "odv", true, Rule::with_lexicon),
        ("TDV", "tdv", false, topological),
        ("OTDV", "otdv", true, topological),
    ]
}

fn fields(rule: &Rule) -> (Option<Lexicon>, bool, bool) {
    (
        rule.tie_break.clone(),
        rule.topological,
        rule.static_majority,
    )
}

#[test]
fn the_six_policies_agree_across_simulator_cluster_and_checker() {
    let network = Network::single_segment(3);
    let copies = SiteSet::first_n(3);
    let policies = SIM_POLICIES.into_iter().zip(Protocol::ALL).zip(expected());
    for ((sim, protocol), (name, tok, optimistic, rule)) in policies {
        assert_eq!(sim.build(copies, &network).name(), name);
        assert_eq!(protocol.name(), name);
        assert_eq!(sim.name(), protocol.name());

        assert_eq!(token(protocol), tok);
        assert_eq!(parse(token(protocol)), Some(protocol));

        assert_eq!(sim.optimistic(), optimistic, "{name}");
        assert_eq!(sim.build(copies, &network).optimistic(), optimistic);

        for lexicon in [Lexicon::default(), Lexicon::ascending()] {
            let cluster = ClusterBuilder::new()
                .copies(0..3)
                .protocol(protocol)
                .lexicon(lexicon.clone())
                .build_with_value(0u8);
            assert_eq!(cluster.protocol(), protocol);
            assert_eq!(fields(cluster.rule()), fields(&rule(lexicon)), "{name}");
        }
    }
    assert_eq!(parse("avc"), None);
    assert_eq!(parse("LDV"), None);
}
