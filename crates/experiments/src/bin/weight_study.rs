//! The paper's second "future work" item: weight assignments.
//!
//! Static voting with skewed weights (Gifford) is the cheapest possible
//! tweak to MCV. This study sweeps the extra-vote placement over the
//! Table 2 configurations and asks: how close can a *static* weighted
//! scheme get to *dynamic* voting?
//!
//! ```text
//! cargo run --release -p dynvote-experiments --bin weight_study [--quick]
//! ```

use dynvote_availability::config::ALL_CONFIGS;
use dynvote_availability::network::ucsd_network;
use dynvote_availability::run::run_trace;
use dynvote_availability::sites::UCSD_SITES;
use dynvote_core::policy::{
    AvailabilityPolicy, DynamicPolicy, VoteReassignmentPolicy, WeightedMcvPolicy,
};
use dynvote_experiments::output::{fmt_unavail, Table};
use dynvote_experiments::CliParams;
use dynvote_types::{SiteId, VoteMap};

fn main() {
    let cli = CliParams::from_env();
    let network = ucsd_network();
    println!("# Weight study: where should the extra vote go?");
    println!();
    println!("Each copy site in turn receives 2 votes (others 1); the best");
    println!("static assignment is compared against uniform MCV and LDV.");
    println!();

    let mut table = Table::new(vec![
        "Config".into(),
        "uniform MCV (no tie vote)".into(),
        "best weighted".into(),
        "best extra vote on".into(),
        "vote reassign (BGS86)".into(),
        "LDV".into(),
    ]);
    for config in ALL_CONFIGS {
        // Build one common-random-numbers trace with every candidate.
        let mut policies: Vec<Box<dyn AvailabilityPolicy>> = vec![
            Box::new(WeightedMcvPolicy::uniform(config.copies)),
            Box::new(DynamicPolicy::ldv(config.copies)),
            Box::new(VoteReassignmentPolicy::uniform(config.copies)),
        ];
        let candidates: Vec<SiteId> = config.copies.iter().collect();
        for &site in &candidates {
            let mut votes = VoteMap::uniform(config.copies);
            votes.set(site, 2);
            policies.push(Box::new(WeightedMcvPolicy::new(votes)));
        }
        let results = run_trace(&network, &UCSD_SITES, policies, &cli.params, config.name);
        let uniform = results[0].unavailability;
        let ldv = results[1].unavailability;
        let reassign = results[2].unavailability;
        let (best_idx, best) = results[3..]
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.unavailability
                    .partial_cmp(&b.unavailability)
                    .expect("finite")
            })
            .expect("candidates exist");
        table.row(vec![
            config.name.to_string(),
            fmt_unavail(uniform),
            fmt_unavail(best.unavailability),
            format!("site {}", candidates[best_idx].index() + 1),
            fmt_unavail(reassign),
            fmt_unavail(ldv),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "Reading: weighting rescues static voting from even splits (and from \
         flaky partition points); autonomous vote reassignment (BGS86) adapts \
         like dynamic voting but without a tie-break — it tracks LDV closely \
         on odd copy counts and stalls on even splits; LDV still wins overall."
    );
}
