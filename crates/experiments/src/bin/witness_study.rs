//! The paper's first "future work" item: witness copies.
//!
//! A witness stores the consistency-control state but no data. This
//! study compares, on the real site models:
//!
//! * two full copies (LDV),
//! * two full copies plus one witness (dynamic voting with witnesses),
//! * three full copies (LDV) — the storage-expensive upper bound,
//!
//! placing the witness on each candidate site in turn. The paper's
//! conjecture (from Pâris 1986) is that 2 copies + 1 witness buys most
//! of the third copy's availability at a fraction of its storage cost.
//!
//! ```text
//! cargo run --release -p dynvote-experiments --bin witness_study [--quick]
//! ```

use dynvote_availability::network::ucsd_network;
use dynvote_availability::run::run_trace;
use dynvote_availability::sites::UCSD_SITES;
use dynvote_core::policy::{AvailabilityPolicy, DynamicPolicy};
use dynvote_experiments::output::{fmt_unavail, Table};
use dynvote_experiments::CliParams;
use dynvote_types::SiteSet;

fn main() {
    let cli = CliParams::from_env();
    let network = ucsd_network();
    println!("# Witness study: 2 copies + 1 witness vs. 2 and 3 full copies");
    println!();
    println!("Full copies on paper sites 1 and 2 (the main segment's fast-repair");
    println!("hosts); the witness placed on each candidate site in turn.");
    println!();

    let full = SiteSet::from_indices([0, 1]); // paper sites 1, 2

    // Baselines.
    let baselines: Vec<Box<dyn AvailabilityPolicy>> = vec![
        Box::new(DynamicPolicy::ldv(full)),
        Box::new(DynamicPolicy::ldv(SiteSet::from_indices([0, 1, 2]))),
    ];
    let base = run_trace(&network, &UCSD_SITES, baselines, &cli.params, "witness");

    let mut table = Table::new(vec![
        "arrangement".into(),
        "unavailability".into(),
        "data copies".into(),
    ]);
    table.row(vec![
        "2 copies (1, 2), LDV".into(),
        fmt_unavail(base[0].unavailability),
        "2".into(),
    ]);

    // Witness placements: each remaining site.
    for witness_site in [2usize, 3, 4, 5, 6, 7] {
        let witness = SiteSet::from_indices([witness_site]);
        let policy: Vec<Box<dyn AvailabilityPolicy>> =
            vec![Box::new(DynamicPolicy::ldv(full).with_witnesses(witness))];
        let r = run_trace(&network, &UCSD_SITES, policy, &cli.params, "witness");
        table.row(vec![
            format!("2 copies + witness on site {}", witness_site + 1),
            fmt_unavail(r[0].unavailability),
            "2".into(),
        ]);
    }

    table.row(vec![
        "3 copies (1, 2, 3), LDV".into(),
        fmt_unavail(base[1].unavailability),
        "3".into(),
    ]);
    print!("{}", table.render());
    println!();
    println!(
        "Reading: a well-placed witness (a reliable, same-partition-side host) \
         recovers most of the third copy's availability with no data storage; \
         a witness behind a flaky gateway can even hurt."
    );
}
