//! Reliability study: mean time to the file's *first* unavailability.
//!
//! Table 2 reports steady-state unavailability; reliability asks a
//! different question — *how long does a freshly started replicated
//! file keep running before its first outage?* — the quantity behind
//! the paper's "continuously available for more than three hundred
//! years" remark about configuration E.
//!
//! Part 1 validates the simulator's first-passage measurements against
//! the exact CTMC solutions on the identical-site system. Part 2
//! reports the file MTTF for every Table 2 configuration and policy on
//! the real site models.
//!
//! ```text
//! cargo run --release -p dynvote-experiments --bin reliability [--quick]
//! ```

use dynvote_analytic::{ac_mttf, dv_mttf, ldv_mttf, mcv_mttf, ParSystem};
use dynvote_availability::config::ALL_CONFIGS;
use dynvote_availability::network::ucsd_network;
use dynvote_availability::run::measure_ttf;
use dynvote_availability::sites::{identical_sites, UCSD_SITES};
use dynvote_core::policy::{
    AvailabilityPolicy, AvailableCopyPolicy, DynamicPolicy, McvPolicy, Protocol,
};
use dynvote_experiments::output::Table;
use dynvote_experiments::paper::CONFIG_LABELS;
use dynvote_experiments::CliParams;
use dynvote_sim::Duration;
use dynvote_topology::Network;
use dynvote_types::SiteSet;

fn main() {
    let cli = CliParams::from_env();
    let reps = if cli.quick { 200 } else { 1_000 };

    println!("# Part 1: first-passage validation (CTMC vs. simulator)");
    println!();
    println!("Identical sites, MTTF 10 d, exponential MTTR 12 h, {reps} replications.");
    println!();
    let mut table = Table::new(vec![
        "n".into(),
        "policy".into(),
        "exact MTTF (d)".into(),
        "simulated (d)".into(),
        "within CI?".into(),
    ]);
    for n in [2usize, 3, 4] {
        let sys = ParSystem {
            n,
            mttf: 10.0,
            mttr: 0.5,
        };
        let network = Network::single_segment(n);
        let models = identical_sites(n, Duration::days(10.0), Duration::hours(12.0));
        let copies = SiteSet::first_n(n);
        type PolicyFactory = Box<dyn Fn() -> Box<dyn AvailabilityPolicy>>;
        let cases: Vec<(f64, PolicyFactory)> = vec![
            (
                mcv_mttf(&sys),
                Box::new(move || Box::new(McvPolicy::strict(copies)) as _),
            ),
            (
                dv_mttf(&sys),
                Box::new(move || Box::new(DynamicPolicy::dv(copies)) as _),
            ),
            (
                ldv_mttf(&sys),
                Box::new(move || Box::new(DynamicPolicy::ldv(copies)) as _),
            ),
            (
                ac_mttf(&sys),
                Box::new(move || Box::new(AvailableCopyPolicy::new(copies)) as _),
            ),
        ];
        for (exact, make) in cases {
            let r = measure_ttf(
                &network,
                &models,
                &*make,
                0.0,
                cli.params.seed,
                reps,
                Duration::days(1e7),
            );
            let in_ci = (r.mean_ttf_days - exact).abs() <= r.ci_half;
            table.row(vec![
                n.to_string(),
                r.policy.clone(),
                format!("{exact:.3}"),
                format!("{:.3} ±{:.3}", r.mean_ttf_days, r.ci_half),
                if in_ci { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
    println!();

    println!("# Part 2: file MTTF on the UCSD configurations (days)");
    println!();
    let network = ucsd_network();
    let mut table = Table::new(
        std::iter::once("Sites".to_string())
            .chain(Protocol::ALL.iter().map(|k| k.name().to_string()))
            .collect(),
    );
    for (i, config) in ALL_CONFIGS.iter().enumerate() {
        let mut row = vec![CONFIG_LABELS[i].to_string()];
        for kind in Protocol::ALL {
            let r = measure_ttf(
                &network,
                &UCSD_SITES,
                || kind.build(config.copies, &network),
                1.0,
                cli.params.seed,
                reps,
                Duration::days(400.0 * 365.0),
            );
            let cell = if r.censored > 0 {
                format!(">{:.0} ({} censored)", r.mean_ttf_days, r.censored)
            } else {
                format!("{:.0}", r.mean_ttf_days)
            };
            row.push(cell);
        }
        table.row(row);
    }
    print!("{}", table.render());
    println!();
    println!(
        "Reading: configuration E under TDV/OTDV routinely exceeds the 400-year \
         horizon (censored entries) — the paper's 'three hundred years' claim, \
         reproduced; DV on F dies in weeks (the first site-4 failure from a \
         4-copy partition set freezes it)."
    );
}
