//! Runs a Table 2-style availability comparison over a user-supplied
//! study specification — your network, your site models, your copy
//! placements, no code required.
//!
//! ```text
//! cargo run --release -p dynvote-experiments --bin study -- my_study.txt [--quick …]
//! cargo run --release -p dynvote-experiments --bin study            # built-in UCSD spec
//! ```
//!
//! The spec format is documented in `dynvote_availability::spec`; run
//! with no file to evaluate the built-in Figure 8 / Table 1 study (the
//! same study `table2` runs from code).

use dynvote_availability::run::run_trace;
use dynvote_availability::spec::{parse_study, ucsd_spec_text};
use dynvote_core::policy::{AvailabilityPolicy, Protocol};
use dynvote_experiments::output::{fmt_unavail, Table};
use dynvote_experiments::CliParams;

fn main() {
    // Split args: the first non-flag argument is the spec file; the
    // rest go to the common parameter parser.
    let mut file: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') && file.is_none() {
            file = Some(arg);
        } else {
            rest.push(arg.clone());
            // Flags with values: forward the value too.
            if matches!(
                arg.as_str(),
                "--seed" | "--batches" | "--batch-days" | "--warmup-days" | "--access-rate"
            ) {
                if let Some(value) = args.next() {
                    rest.push(value);
                }
            }
        }
    }
    let cli = CliParams::parse(rest).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });

    let text = match &file {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => ucsd_spec_text().to_string(),
    };
    let spec = match parse_study(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("spec error: {e}");
            std::process::exit(1);
        }
    };

    let mut params = cli.params.clone();
    params.access_rate = spec.access_rate;

    println!(
        "# Study: {} ({} sites, {} segments, {} configs)",
        file.as_deref()
            .unwrap_or("built-in UCSD (Figure 8 / Table 1)"),
        spec.network.sites().len(),
        spec.network.segment_count(),
        spec.configs.len()
    );
    println!();

    let mut headers = vec!["Config".to_string()];
    headers.extend(Protocol::ALL.iter().map(|k| k.name().to_string()));
    let mut table = Table::new(headers);
    for (name, copies) in &spec.configs {
        let policies: Vec<Box<dyn AvailabilityPolicy>> = Protocol::ALL
            .iter()
            .map(|k| k.build(*copies, &spec.network))
            .collect();
        let results = run_trace(&spec.network, &spec.models, policies, &params, name);
        let mut row = vec![format!("{name}: {copies}", copies = *copies)];
        row.extend(results.iter().map(|r| fmt_unavail(r.unavailability)));
        table.row(row);
    }
    print!("{}", table.render());
    println!();
    println!("(unavailabilities; flags: --quick --seed --batches --batch-days --warmup-days)");
}
