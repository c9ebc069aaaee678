//! Regenerates Table 2: replicated-file unavailabilities for the eight
//! configurations A–H under MCV, DV, LDV, ODV, TDV and OTDV.
//!
//! ```text
//! cargo run --release -p dynvote-experiments --bin table2 [--quick]
//! ```

use dynvote_availability::run::RunResult;
use dynvote_core::policy::Protocol;
use dynvote_experiments::output::{fmt_unavail, Table};
use dynvote_experiments::paper::{CONFIG_LABELS, PAPER_TABLE2};
use dynvote_experiments::{simulate_all_rows, CliParams};

fn main() {
    let cli = CliParams::from_env();
    println!("# Table 2: Replicated File Unavailabilities");
    println!();
    println!(
        "Simulated {} batches x {} days after a {}-day warm-up; one access \
         every {:.2} days on average; seed {:#x}.",
        cli.params.batches,
        cli.params.batch_len.as_days(),
        cli.params.warmup.as_days(),
        1.0 / cli.params.access_rate,
        cli.params.seed,
    );
    println!();

    // One common-random-numbers trace per configuration, one worker per
    // row.
    let rows: Vec<Vec<RunResult>> = simulate_all_rows(&cli.params);

    let mut headers = vec!["Sites".to_string()];
    headers.extend(Protocol::ALL.iter().map(|p| p.name().to_string()));
    let mut measured = Table::new(headers.clone());
    let mut side_by_side = Table::new(headers);
    for (i, row) in rows.iter().enumerate() {
        let mut m = vec![CONFIG_LABELS[i].to_string()];
        let mut s = vec![CONFIG_LABELS[i].to_string()];
        for (j, result) in row.iter().enumerate() {
            m.push(format!(
                "{} ±{}",
                fmt_unavail(result.unavailability),
                fmt_unavail(result.ci_half)
            ));
            s.push(format!(
                "{} / {}",
                fmt_unavail(PAPER_TABLE2[i][j]),
                fmt_unavail(result.unavailability)
            ));
        }
        measured.row(m);
        side_by_side.row(s);
    }

    println!("## Measured (±95% CI half-width)");
    println!();
    print!("{}", measured.render());
    println!();
    println!("## Paper / measured");
    println!();
    print!("{}", side_by_side.render());
    println!();

    // Quantify the sequential-claim hazard (see DESIGN.md): how often
    // the topological protocols actually admit rival majority blocks on
    // the real failure models.
    let hazard_total: u64 = rows
        .iter()
        .flat_map(|row| row.iter())
        .map(|r| r.hazard_events)
        .sum();
    println!("## Sequential-claim hazard incidence");
    println!();
    if hazard_total == 0 {
        println!(
            "No rival-grant event in any cell ({} measured days per cell): on \
             these failure models the TDV/OTDV hazard requires a co-segment \
             total failure with out-of-order recovery, which never occurred.",
            rows[0][0].measured_days
        );
    } else {
        for row in &rows {
            for r in row {
                if r.hazard_events > 0 {
                    println!(
                        "- {} on {}: {} rival-grant event(s) in {:.0} days",
                        r.policy, r.config, r.hazard_events, r.measured_days
                    );
                }
            }
        }
    }
    println!();
    shape_report(&rows);
}

/// Checks the paper's qualitative findings against the measured rows and
/// prints a pass/fail line for each.
#[allow(clippy::needless_range_loop)] // index drives two parallel tables
fn shape_report(rows: &[Vec<RunResult>]) {
    let u = |row: usize, col: usize| rows[row][col].unavailability;
    let (mcv, dv, ldv, odv, tdv, otdv) = (0, 1, 2, 3, 4, 5);
    let mut checks: Vec<(String, bool)> = Vec::new();

    // Finding 1: DV worse than MCV for three copies (rows A-D).
    for row in 0..4 {
        checks.push((
            format!("DV > MCV on configuration {}", CONFIG_LABELS[row]),
            u(row, dv) > u(row, mcv),
        ));
    }
    // Finding 2: DV much better than MCV on E and G; worse on F and H.
    checks.push(("DV < MCV on E".into(), u(4, dv) < u(4, mcv)));
    checks.push(("DV < MCV on G".into(), u(6, dv) < u(6, mcv)));
    checks.push(("DV > MCV on F".into(), u(5, dv) > u(5, mcv)));
    // The paper's H claim: a failure of site 5 leaves DV with two equal
    // groups, so the configuration behaves "not essentially different
    // from a single copy at site 5" (intrinsic unavailability ≈ 0.0016).
    let site5 =
        dynvote_availability::sites::UCSD_SITES[4].intrinsic_unavailability() + 3.0 / (24.0 * 90.0); // plus its maintenance fraction
    checks.push((
        "DV on H behaves like a single copy at site 5".into(),
        u(7, dv) > 0.5 * site5 && u(7, dv) < 5.0 * site5,
    ));
    // Finding 3: LDV outperforms MCV and DV in all cases.
    for row in 0..8 {
        checks.push((
            format!("LDV <= MCV, DV on {}", CONFIG_LABELS[row]),
            u(row, ldv) <= u(row, mcv) && u(row, ldv) <= u(row, dv),
        ));
    }
    // Finding 4: ODV comparable to LDV, better on F.
    checks.push(("ODV < LDV on F".into(), u(5, odv) < u(5, ldv)));
    // Finding 5: TDV/OTDV much better when copies share a segment
    // (A, B, E, F, G, H) — at least 2x better than LDV on A, E, F.
    for &row in &[0usize, 4, 5] {
        checks.push((
            format!("TDV < LDV / 2 on {}", CONFIG_LABELS[row]),
            u(row, tdv) < u(row, ldv) / 2.0,
        ));
    }
    // Finding 6: C (all copies isolated): TDV == LDV, OTDV == ODV.
    checks.push(("TDV == LDV on C".into(), u(2, tdv) == u(2, ldv)));
    checks.push(("OTDV == ODV on C".into(), u(2, otdv) == u(2, odv)));
    // Finding 7: E is the best row for TDV/OTDV (near-zero).
    checks.push(("TDV on E < 1e-4".into(), u(4, tdv) < 1e-4));
    checks.push(("OTDV on E < 1e-4".into(), u(4, otdv) < 1e-4));

    println!("## Shape checks (paper findings reproduced?)");
    println!();
    let mut pass = 0;
    for (name, ok) in &checks {
        println!("- [{}] {}", if *ok { "x" } else { " " }, name);
        pass += usize::from(*ok);
    }
    println!();
    println!("{pass}/{} checks passed", checks.len());
}
