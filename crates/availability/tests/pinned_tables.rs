//! Every cell of Tables 2 and 3 at `Params::quick_test()`, pinned bit
//! for bit: configurations A–H × the six policies, each float as its
//! bit pattern, in the form the repo benchmark's `paper_tables`
//! workload checks at the paper's parameters. Beside them, two policy
//! variants that no table row builds: strict MCV (no tie vote) on A–H,
//! as `analytic_check` and `reliability` run it, and two copies plus
//! one witness, as `witness_study` places them.
//!
//! A change to the simulator (driver, runner, policies, reachability)
//! that moves any result fails here, not only in the benchmark. A
//! change that is meant to move results regenerates
//! `tests/pinned_tables.digest` or `tests/pinned_variants.digest` from
//! the failing test's message and says why in its commit.

use std::fmt::Write as _;

use dynvote_availability::network::ucsd_network;
use dynvote_availability::run::{run_trace, simulate_row, Params, RunResult};
use dynvote_availability::{ALL_CONFIGS, UCSD_SITES};
use dynvote_core::policy::{AvailabilityPolicy, DynamicPolicy};
use dynvote_core::Rule;
use dynvote_types::SiteSet;

const PINNED: &str = include_str!("pinned_tables.digest");
const PINNED_VARIANTS: &str = include_str!("pinned_variants.digest");

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

fn render_tables(params: &Params) -> String {
    let mut text = String::new();
    for config in ALL_CONFIGS {
        for cell in simulate_row(config, params) {
            pin_line(
                &mut text,
                &format!("{} {}", cell.config, cell.policy),
                &cell,
            );
        }
    }
    text
}

/// Strict MCV on A–H, then 2 copies (paper sites 1, 2) plus a witness
/// on each of paper sites 3–8, each run as its own trace.
fn render_variants(params: &Params) -> String {
    let network = ucsd_network();
    let mut text = String::new();
    for config in ALL_CONFIGS {
        let rule = Rule::static_majority(None);
        let strict: Box<dyn AvailabilityPolicy> =
            Box::new(DynamicPolicy::custom("MCV", config.copies, rule, None));
        let cells = run_trace(&network, &UCSD_SITES, vec![strict], params, config.name);
        pin_line(&mut text, &format!("{} strict-MCV", config.name), &cells[0]);
    }
    let full = SiteSet::from_indices([0, 1]);
    for witness_site in 2..8 {
        let witness = SiteSet::from_indices([witness_site]);
        let policy: Box<dyn AvailabilityPolicy> =
            Box::new(DynamicPolicy::ldv(full).with_witnesses(witness));
        let cells = run_trace(&network, &UCSD_SITES, vec![policy], params, "witness");
        let label = format!("witness-on-site-{}", witness_site + 1);
        pin_line(&mut text, &label, &cells[0]);
    }
    text
}

/// Panics with the rendered text when it differs from `pinned`.
fn assert_pinned(what: &str, text: &str, pinned: &str) {
    if text != pinned {
        let first = text
            .lines()
            .zip(pinned.lines())
            .position(|(now, pinned)| now != pinned)
            .map_or_else(
                || "the line count".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!("the {what} moved ({first} differs); rendered now:\n{text}");
    }
}

#[test]
fn quick_tables_are_bit_identical_to_the_pin() {
    let text = render_tables(&Params::quick_test());
    assert_pinned("quick tables", &text, PINNED);
}

#[test]
fn strict_mcv_and_witness_runs_are_bit_identical_to_the_pin() {
    let text = render_variants(&Params::quick_test());
    assert_pinned("quick variants", &text, PINNED_VARIANTS);
}
