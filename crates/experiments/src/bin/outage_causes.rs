//! Diagnosis: *why* is each Table 2 cell what it is?
//!
//! Attributes every outage to the set of sites that were down at the
//! moment it began, aggregated by signature. The Table 2 numbers say
//! who wins; this says *mechanistically why* — which failure
//! combinations actually take each protocol down on the Figure 8
//! network.
//!
//! ```text
//! cargo run --release -p dynvote-experiments --bin outage_causes [--quick]
//! ```

use dynvote_availability::config::{CONFIG_A, CONFIG_D, CONFIG_F, CONFIG_H};
use dynvote_availability::network::ucsd_network;
use dynvote_availability::run::attribute_outages;
use dynvote_availability::sites::UCSD_SITES;
use dynvote_core::policy::Protocol;
use dynvote_experiments::output::Table;
use dynvote_experiments::CliParams;
use dynvote_types::SiteSet;

/// Renders a down-set with the paper's site numbers and hostnames.
fn describe(down: SiteSet) -> String {
    let names: Vec<String> = down
        .iter()
        .map(|s| format!("{} ({})", s.index() + 1, UCSD_SITES[s.index()].name))
        .collect();
    if names.is_empty() {
        "nothing down (stale quorum)".to_string()
    } else {
        names.join(" + ")
    }
}

fn main() {
    let cli = CliParams::from_env();
    let network = ucsd_network();
    for (config, policies) in [
        (&CONFIG_A, vec![Protocol::Mcv, Protocol::Ldv]),
        (&CONFIG_F, vec![Protocol::Dv, Protocol::Ldv, Protocol::Odv]),
        (&CONFIG_H, vec![Protocol::Mcv, Protocol::Dv]),
        (&CONFIG_D, vec![Protocol::Ldv, Protocol::Tdv]),
    ] {
        for kind in policies {
            let raw = attribute_outages(
                &network,
                &UCSD_SITES,
                kind.build(config.copies, &network),
                &cli.params,
            );
            // Mask signatures to the sites that can matter for this
            // placement — its copies and the gateways — so unrelated
            // background failures do not split the buckets.
            let relevant = config.copies | network.gateways();
            let mut merged: std::collections::HashMap<u64, (SiteSet, u64, f64)> =
                std::collections::HashMap::new();
            for cause in raw {
                let key = cause.down & relevant;
                let entry = merged.entry(key.bits()).or_insert((key, 0, 0.0));
                entry.1 += cause.count;
                entry.2 += cause.total_days;
            }
            let mut causes: Vec<_> = merged.into_values().collect();
            causes.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));
            let total: f64 = causes.iter().map(|c| c.2).sum();
            println!(
                "## {} on configuration {} (paper sites {:?}) — {:.1} outage-days total",
                kind.name(),
                config.name,
                config.paper_sites,
                total
            );
            println!();
            if causes.is_empty() {
                println!("no outage at all in the measured period");
                println!();
                continue;
            }
            let mut table = Table::new(vec![
                "relevant sites down at outage start".into(),
                "outages".into(),
                "days".into(),
                "share".into(),
            ]);
            for (down, count, days) in causes.iter().take(6) {
                table.row(vec![
                    describe(*down),
                    count.to_string(),
                    format!("{days:.2}"),
                    format!("{:.0}%", 100.0 * days / total),
                ]);
            }
            if causes.len() > 6 {
                let rest: f64 = causes.iter().skip(6).map(|c| c.2).sum();
                table.row(vec![
                    format!("… {} more signatures", causes.len() - 6),
                    String::new(),
                    format!("{rest:.2}"),
                    format!("{:.0}%", 100.0 * rest / total),
                ]);
            }
            print!("{}", table.render());
            println!();
        }
    }
    println!(
        "Reading: each cell has a dominant mechanism. DV-on-F is ~80% the single \
         signature 'wizard (gateway 4) down' — the 2-2 tie frozen for a two-week \
         repair. LDV's residue on A/F is 'csvax + wizard down' — the tie-break \
         site lost while the quorum is shrunken. TDV-on-D needs gremlin plus a \
         co-segment victim down at once: gremlin sits alone on its segment, so \
         its vote is the one TDV can never claim."
    );
}
