//! Regenerates Table 3: mean duration of unavailable periods (in days)
//! for the eight configurations under all six policies.
//!
//! ```text
//! cargo run --release -p dynvote-experiments --bin table3 [--quick]
//! ```

use dynvote_availability::run::RunResult;
use dynvote_core::policy::Protocol;
use dynvote_experiments::output::Table;
use dynvote_experiments::paper::{CONFIG_LABELS, PAPER_TABLE3};
use dynvote_experiments::{simulate_all_rows, CliParams};

fn main() {
    let cli = CliParams::from_env();
    println!("# Table 3: Mean Duration of Unavailable Periods (days)");
    println!();

    let rows: Vec<Vec<RunResult>> = simulate_all_rows(&cli.params);

    let mut headers = vec!["Sites".to_string()];
    headers.extend(Protocol::ALL.iter().map(|p| p.name().to_string()));
    let mut measured = Table::new(headers.clone());
    let mut side_by_side = Table::new(headers);
    for (i, row) in rows.iter().enumerate() {
        let mut m = vec![CONFIG_LABELS[i].to_string()];
        let mut s = vec![CONFIG_LABELS[i].to_string()];
        for (j, result) in row.iter().enumerate() {
            let cell = if result.outage_count == 0 {
                "-".to_string()
            } else {
                format!("{:.6} (n={})", result.mean_outage_days, result.outage_count)
            };
            m.push(cell);
            let paper = match PAPER_TABLE3[i][j] {
                Some(v) => format!("{v:.6}"),
                None => "-".to_string(),
            };
            let mine = if result.outage_count == 0 {
                "-".to_string()
            } else {
                format!("{:.6}", result.mean_outage_days)
            };
            s.push(format!("{paper} / {mine}"));
        }
        measured.row(m);
        side_by_side.row(s);
    }

    println!("## Measured (outage count in parentheses)");
    println!();
    print!("{}", measured.render());
    println!();

    // Beyond the paper: the outage-duration *distribution*, not just
    // its mean — means on heavy-tailed repair distributions mislead.
    let mut percentiles = Table::new(vec![
        "Sites".into(),
        "policy".into(),
        "p50 (d)".into(),
        "p90 (d)".into(),
        "max (d)".into(),
        "mean (d)".into(),
    ]);
    for (i, row) in rows.iter().enumerate() {
        for result in row {
            if result.outage_count == 0 {
                continue;
            }
            percentiles.row(vec![
                CONFIG_LABELS[i].to_string(),
                result.policy.clone(),
                format!("{:.4}", result.p50_outage_days),
                format!("{:.4}", result.p90_outage_days),
                format!("{:.4}", result.max_outage_days),
                format!("{:.4}", result.mean_outage_days),
            ]);
        }
    }
    println!("## Outage-duration distribution (beyond the paper)");
    println!();
    print!("{}", percentiles.render());
    println!();
    println!("## Paper / measured");
    println!();
    print!("{}", side_by_side.render());
    println!();
    shape_report(&rows);
}

#[allow(clippy::needless_range_loop)] // index drives two parallel tables
fn shape_report(rows: &[Vec<RunResult>]) {
    let d = |row: usize, col: usize| rows[row][col].mean_outage_days;
    let (mcv, dv, ldv, _odv, tdv, otdv) = (0, 1, 2, 3, 4, 5);
    let mut checks: Vec<(String, bool)> = Vec::new();

    // D's outages are *long* for every policy: the heavy hardware
    // repairs of sites 6-8 dominate (paper: 3-7.4 days).
    checks.push((
        "outages on D are days long for all policies".into(),
        (0..6).all(|c| d(3, c) > 1.0),
    ));
    // On most well-placed configurations (A, B), outages last hours,
    // not days (paper: 0.05-0.22 days).
    for row in [0usize, 1] {
        checks.push((
            format!(
                "outages on {} are under half a day (non-DV)",
                CONFIG_LABELS[row]
            ),
            d(row, mcv) < 0.5 && d(row, ldv) < 0.5,
        ));
    }
    // DV's outages are longer than MCV's on the 3-copy configurations
    // (frozen ties wait for specific sites).
    for row in 0..3 {
        checks.push((
            format!("DV outages ≥ MCV outages on {}", CONFIG_LABELS[row]),
            d(row, dv) >= d(row, mcv) * 0.8,
        ));
    }
    // E row: TDV/OTDV should see (almost) no outages at all.
    checks.push((
        "TDV/OTDV on E: zero or near-zero outages".into(),
        rows[4][tdv].outage_count <= 2 && rows[4][otdv].outage_count <= 2,
    ));
    // C: topological == lexicographic (same events, same durations).
    checks.push((
        "TDV == LDV outage durations on C".into(),
        (d(2, tdv) - d(2, ldv)).abs() < 1e-12,
    ));

    println!("## Shape checks");
    println!();
    let mut pass = 0;
    for (name, ok) in &checks {
        println!("- [{}] {}", if *ok { "x" } else { " " }, name);
        pass += usize::from(*ok);
    }
    println!();
    println!("{pass}/{} checks passed", checks.len());
}
