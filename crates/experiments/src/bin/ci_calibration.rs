//! Methodological self-check: are the batch-means 95% confidence
//! intervals actually 95% intervals?
//!
//! Batch means only give honest intervals when batches are long enough
//! to be approximately independent. This binary runs the same cell
//! (configuration B × LDV, the paper's mid-range case) across many
//! independent seeds, and reports how often each run's CI covers the
//! cross-seed grand mean — which should land near the nominal 95% —
//! alongside the dispersion of the per-run estimates.
//!
//! ```text
//! cargo run --release -p dynvote-experiments --bin ci_calibration [--quick]
//! ```

use dynvote_availability::config::CONFIG_B;
use dynvote_availability::run::{simulate, Params};
use dynvote_core::policy::Protocol;
use dynvote_experiments::output::Table;
use dynvote_experiments::CliParams;
use dynvote_sim::Duration;

fn main() {
    let cli = CliParams::from_env();
    let seeds = if cli.quick { 20 } else { 50 };
    // Deliberately modest runs so coverage is a real test (huge runs
    // make every CI tiny *and* every estimate identical).
    let base = Params {
        batch_len: Duration::days(4_000.0),
        batches: 12,
        ..cli.params.clone()
    };

    println!("# CI calibration: {seeds} independent seeds of configuration B x LDV");
    println!(
        "({} batches x {} days each; nominal coverage 95%)",
        base.batches,
        base.batch_len.as_days()
    );
    println!();

    let runs: Vec<_> = (0..seeds)
        .map(|i| {
            let params = Params {
                seed: 0xCA11_B000 + i as u64,
                ..base.clone()
            };
            simulate(Protocol::Ldv, &CONFIG_B, &params)
        })
        .collect();

    let grand_mean: f64 = runs.iter().map(|r| r.unavailability).sum::<f64>() / runs.len() as f64;
    let covered = runs
        .iter()
        .filter(|r| (r.unavailability - grand_mean).abs() <= r.ci_half)
        .count();

    let mut table = Table::new(vec![
        "seed".into(),
        "unavailability".into(),
        "CI half-width".into(),
        "covers grand mean?".into(),
    ]);
    for (i, r) in runs.iter().enumerate() {
        table.row(vec![
            format!("{i}"),
            format!("{:.6}", r.unavailability),
            format!("{:.6}", r.ci_half),
            if (r.unavailability - grand_mean).abs() <= r.ci_half {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    print!("{}", table.render());
    println!();
    let spread = {
        let var = runs
            .iter()
            .map(|r| (r.unavailability - grand_mean).powi(2))
            .sum::<f64>()
            / (runs.len() - 1) as f64;
        var.sqrt()
    };
    println!("grand mean: {grand_mean:.6}; cross-seed std dev: {spread:.6}");
    println!(
        "coverage: {covered}/{} = {:.0}% (nominal 95%)",
        runs.len(),
        100.0 * covered as f64 / runs.len() as f64
    );
    println!(
        "\nReading: coverage near 95% means the batch length is long enough for \
         batch independence; far below it would mean the Tables' error bars are \
         optimistic."
    );
}
