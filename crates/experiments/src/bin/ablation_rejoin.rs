//! Ablation: where does ODV's configuration-F advantage come from?
//!
//! Table 2 reports ODV (0.000947) *beating* LDV (0.002154) on
//! configuration F — surprising, since LDV acts on strictly fresher
//! information. The paper's explanation: when the partition point
//! (site 4, two-week repairs) is down, eagerly shrunk quorums get the
//! file stuck on the fast-failing main-segment sites, and it is better
//! to "delay file recovery until site 4 is repaired".
//!
//! This binary decomposes the effect along the two halves of
//! "optimistic": *lazy shrinking* (quorum updates only at access time)
//! and *lazy rejoining* (recoveries only at access time), by measuring
//! four LDV-family variants on every configuration:
//!
//! * `LDV`       — shrink instantly, rejoin instantly,
//! * `LDV-lazy`  — shrink instantly, rejoin at access time
//!   ([`RejoinMode::Hybrid`]) — the plausible behaviour of a real
//!   connection-vector implementation whose RECOVER is an explicit
//!   operation,
//! * `ODV`       — shrink and rejoin at access time,
//! * `ODV-eager` — shrink at access time, rejoin instantly (the
//!   remaining corner, for completeness).
//!
//! ```text
//! cargo run --release -p dynvote-experiments --bin ablation_rejoin [--quick]
//! ```

use dynvote_availability::config::ALL_CONFIGS;
use dynvote_availability::network::ucsd_network;
use dynvote_availability::run::run_trace;
use dynvote_availability::sites::UCSD_SITES;
use dynvote_core::policy::dynamic::{DynamicPolicy, RejoinMode};
use dynvote_core::policy::AvailabilityPolicy;
use dynvote_experiments::output::{fmt_unavail, Table};
use dynvote_experiments::paper::CONFIG_LABELS;
use dynvote_experiments::CliParams;

fn main() {
    let cli = CliParams::from_env();
    let network = ucsd_network();
    println!("# Ablation: eager vs lazy quorum shrinking and rejoining");
    println!();

    let mut table = Table::new(vec![
        "Sites".into(),
        "LDV (eager/eager)".into(),
        "LDV-lazy (eager/lazy)".into(),
        "ODV (lazy/lazy)".into(),
        "ODV-eager (lazy/eager)".into(),
    ]);
    let mut f_row: Vec<f64> = Vec::new();
    for (i, config) in ALL_CONFIGS.iter().enumerate() {
        let policies: Vec<Box<dyn AvailabilityPolicy>> = vec![
            Box::new(DynamicPolicy::ldv(config.copies)),
            Box::new(DynamicPolicy::ldv_lazy_rejoin(config.copies)),
            Box::new(DynamicPolicy::odv(config.copies)),
            // "ODV-eager": optimistic shrinking, but a repaired site is
            // reintegrated immediately. Modeled as Hybrid's mirror: we
            // approximate it with OnRepair sync restricted to single
            // recoveries — the closest expressible corner is plain
            // OnRepair, so we use a custom policy with eager rejoin and
            // note the asymmetry in EXPERIMENTS.md.
            Box::new(DynamicPolicy::custom(
                "ODV-eager",
                config.copies,
                dynvote_core::Rule::lexicographic(),
                None,
                RejoinMode::OnRepair,
            )),
        ];
        let results = run_trace(&network, &UCSD_SITES, policies, &cli.params, config.name);
        if config.name == "F" {
            f_row = results.iter().map(|r| r.unavailability).collect();
        }
        table.row(vec![
            CONFIG_LABELS[i].to_string(),
            fmt_unavail(results[0].unavailability),
            fmt_unavail(results[1].unavailability),
            fmt_unavail(results[2].unavailability),
            fmt_unavail(results[3].unavailability),
        ]);
    }
    print!("{}", table.render());
    println!();
    if f_row.len() == 4 {
        let (ldv, ldv_lazy, odv, _) = (f_row[0], f_row[1], f_row[2], f_row[3]);
        println!("Configuration F decomposition:");
        println!("- paper: LDV 0.002154 vs ODV 0.000947 (ODV wins)");
        println!(
            "- measured: LDV {}, LDV-lazy {}, ODV {}",
            fmt_unavail(ldv),
            fmt_unavail(ldv_lazy),
            fmt_unavail(odv)
        );
        if odv < ldv_lazy {
            println!(
                "- the inversion reproduces against LDV-lazy: lazy *rejoining* is \
                 what eager implementations pay for on F"
            );
        } else if odv < ldv {
            println!("- the inversion reproduces against plain LDV");
        } else {
            println!(
                "- no inversion under these semantics: with instantaneous \
                 reintegration LDV keeps its information advantage"
            );
        }
    }
}
