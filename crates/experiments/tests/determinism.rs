//! Test hygiene for the study pipeline: the rendered output of a quick
//! in-process study must be *byte-identical* across two runs in the
//! same process. Everything downstream — CI diffs, EXPERIMENTS.md
//! numbers, golden tables — relies on the whole chain (spec parsing,
//! common-random-numbers traces, statistics, formatting) being free of
//! wall-clock time, unseeded randomness, and iteration-order leaks.

use dynvote_availability::run::run_trace;
use dynvote_availability::run::Params;
use dynvote_availability::spec::{parse_study, ucsd_spec_text};
use dynvote_core::policy::{AvailabilityPolicy, Protocol};
use dynvote_experiments::output::{fmt_unavail, Table};
use dynvote_sim::Duration;

/// Small but non-degenerate workload at the pinned paper seed — long
/// enough for every configuration to accumulate real statistics.
fn quick_params() -> Params {
    Params {
        seed: Params::paper().seed,
        access_rate: 1.0,
        warmup: Duration::days(60.0),
        batch_len: Duration::days(800.0),
        batches: 3,
    }
}

/// The `study` binary's pipeline, in-process: built-in UCSD spec, every
/// configuration, every policy — rendered as both the human table and
/// the CSV, concatenated into one byte string.
fn render_quick_study() -> String {
    let spec = parse_study(ucsd_spec_text()).expect("built-in spec parses");
    let mut params = quick_params();
    params.access_rate = spec.access_rate;

    let mut headers = vec!["Config".to_string()];
    headers.extend(Protocol::ALL.iter().map(|k| k.name().to_string()));
    let mut table = Table::new(headers);
    for (name, copies) in &spec.configs {
        let policies: Vec<Box<dyn AvailabilityPolicy>> = Protocol::ALL
            .iter()
            .map(|k| k.build(*copies, &spec.network))
            .collect();
        let results = run_trace(&spec.network, &spec.models, policies, &params, name);
        let mut row = vec![name.clone()];
        row.extend(results.iter().map(|r| fmt_unavail(r.unavailability)));
        table.row(row);
    }
    format!("{}\n{}", table.render(), table.to_csv())
}

#[test]
fn quick_study_output_is_byte_identical_across_runs() {
    let first = render_quick_study();
    let second = render_quick_study();

    // Byte-compare the *rendered* output: this is what lands in docs
    // and CI logs, so formatting is part of the contract.
    assert!(
        first == second,
        "study output differs between runs:\n--- first ---\n{first}\n--- second ---\n{second}"
    );

    // Guard against the comparison degenerating: all eight UCSD
    // configurations must be present and at least one measured
    // unavailability must be non-zero.
    let spec = parse_study(ucsd_spec_text()).unwrap();
    for (name, _) in &spec.configs {
        assert!(first.contains(name.as_str()), "config {name} missing");
    }
    assert!(
        first
            .lines()
            .skip(1)
            .any(|line| line.chars().any(|c| ('1'..='9').contains(&c))),
        "all-zero statistics: the workload is too small\n{first}"
    );
}
