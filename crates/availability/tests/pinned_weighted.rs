//! Weighted MCV at `Params::quick_test()`, pinned bit for bit: on each
//! of configurations A–H, the uniform vote map and every placement of
//! one extra vote on a copy that `weight_study` builds, run as one
//! common-random-numbers trace per configuration, each float as its
//! bit pattern (the form of `pinned_tables.rs`).
//!
//! A change that is meant to move these results regenerates
//! `tests/pinned_weighted.digest` from the failing test's message and
//! says why in its commit.

use std::fmt::Write as _;

use dynvote_availability::network::ucsd_network;
use dynvote_availability::run::{run_trace, Params, RunResult};
use dynvote_availability::{ALL_CONFIGS, UCSD_SITES};
use dynvote_core::policy::{AvailabilityPolicy, DynamicPolicy};
use dynvote_types::VoteMap;

const PINNED: &str = include_str!("pinned_weighted.digest");

/// Weighted MCV under `votes`.
fn weighted(votes: VoteMap) -> Box<dyn AvailabilityPolicy> {
    Box::new(DynamicPolicy::weighted_mcv(votes))
}

/// One result as a line: `label`, then every float as its bit pattern.
fn pin_line(text: &mut String, label: &str, cell: &RunResult) {
    writeln!(
        text,
        "{label} unavailability={:016x} ci_half={:016x} mean_outage_days={:016x} \
         outages={} hazards={}",
        cell.unavailability.to_bits(),
        cell.ci_half.to_bits(),
        cell.mean_outage_days.to_bits(),
        cell.outage_count,
        cell.hazard_events,
    )
    .expect("writing to a String");
}

/// Per configuration: the uniform map, then 2 votes on each copy in
/// turn (others 1), in copy order.
fn render(params: &Params) -> String {
    let network = ucsd_network();
    let mut text = String::new();
    for config in ALL_CONFIGS {
        let mut labels = vec![format!("{} uniform", config.name)];
        let mut policies = vec![weighted(VoteMap::uniform(config.copies))];
        for site in config.copies.iter() {
            let mut votes = VoteMap::uniform(config.copies);
            votes.set(site, 2);
            let paper_site = site.index() + 1;
            labels.push(format!("{} extra-on-site-{paper_site}", config.name));
            policies.push(weighted(votes));
        }
        let cells = run_trace(&network, &UCSD_SITES, policies, params, config.name);
        for (label, cell) in labels.iter().zip(&cells) {
            pin_line(&mut text, label, cell);
        }
    }
    text
}

#[test]
fn weighted_mcv_runs_are_bit_identical_to_the_pin() {
    let text = render(&Params::quick_test());
    if text != PINNED {
        let first = text
            .lines()
            .zip(PINNED.lines())
            .position(|(now, pinned)| now != pinned)
            .map_or_else(
                || "the line count".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!("the weighted MCV runs moved ({first} differs); rendered now:\n{text}");
    }
}
