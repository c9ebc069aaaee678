//! CLI for the bounded exhaustive model checker.
//!
//! ```text
//! dynvote-check [--policy NAME|all] [--sites N] [--segments K]
//!               [--depth D] [--budget-secs S] [--max-findings M]
//!               [--threads N] [--symmetry on|off] [--bench-out PATH]
//!               [--deny-hazards] [--no-shrink] [--trace-dir DIR]
//!               [--diff dv-ldv|odv-ldv|otdv-tdv|mcv-ldv]
//! ```
//!
//! Exit status: `0` clean, `1` real violations (or known hazards under
//! `--deny-hazards`, or a broken differential relation), `2` usage
//! error.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dynvote_check::{
    run, run_differential, CheckConfig, DiffConfig, Expectation, Relation, Report, Scenario,
    TraceFile,
};
use dynvote_replica::Protocol;

struct Args {
    policies: Vec<Protocol>,
    sites: usize,
    segments: usize,
    depth: usize,
    budget: Option<Duration>,
    max_findings: usize,
    deny_hazards: bool,
    shrink: bool,
    trace_dir: Option<String>,
    diff: Option<(Protocol, Protocol, Relation)>,
    threads: usize,
    symmetry: bool,
    bench_out: Option<String>,
}

const USAGE: &str = "usage: dynvote-check [--policy NAME|all] [--sites N (<=8)] \
[--segments K (<=3)] [--depth D (<=255)] [--budget-secs S] [--max-findings M] \
[--threads N] [--symmetry on|off] [--bench-out PATH] \
[--deny-hazards] [--no-shrink] [--trace-dir DIR] [--diff dv-ldv|odv-ldv|otdv-tdv|mcv-ldv]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        policies: Protocol::ALL.to_vec(),
        sites: 4,
        segments: 1,
        depth: 6,
        budget: None,
        max_findings: 8,
        deny_hazards: false,
        shrink: true,
        trace_dir: None,
        diff: None,
        threads: 1,
        symmetry: false,
        bench_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--policy" => {
                let name = value("--policy")?;
                if name == "all" {
                    args.policies = Protocol::ALL.to_vec();
                } else {
                    let policy = Protocol::parse(&name)
                        .ok_or_else(|| format!("unknown policy {name:?}\n{USAGE}"))?;
                    args.policies = vec![policy];
                }
            }
            "--sites" => {
                args.sites = value("--sites")?
                    .parse()
                    .map_err(|_| format!("bad --sites value\n{USAGE}"))?;
            }
            "--segments" => {
                args.segments = value("--segments")?
                    .parse()
                    .map_err(|_| format!("bad --segments value\n{USAGE}"))?;
            }
            "--depth" => {
                args.depth = value("--depth")?
                    .parse()
                    .map_err(|_| format!("bad --depth value\n{USAGE}"))?;
            }
            "--budget-secs" => {
                let secs: u64 = value("--budget-secs")?
                    .parse()
                    .map_err(|_| format!("bad --budget-secs value\n{USAGE}"))?;
                args.budget = Some(Duration::from_secs(secs));
            }
            "--max-findings" => {
                args.max_findings = value("--max-findings")?
                    .parse()
                    .map_err(|_| format!("bad --max-findings value\n{USAGE}"))?;
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|_| format!("bad --threads value\n{USAGE}"))?;
                if args.threads == 0 {
                    return Err(format!("--threads must be at least 1\n{USAGE}"));
                }
            }
            "--symmetry" => {
                args.symmetry = match value("--symmetry")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(format!("--symmetry wants on|off, got {other:?}\n{USAGE}"))
                    }
                };
            }
            "--bench-out" => args.bench_out = Some(value("--bench-out")?),
            "--deny-hazards" => args.deny_hazards = true,
            "--no-shrink" => args.shrink = false,
            "--trace-dir" => args.trace_dir = Some(value("--trace-dir")?),
            "--diff" => {
                args.diff = Some(match value("--diff")?.as_str() {
                    "dv-ldv" => (Protocol::Dv, Protocol::Ldv, Relation::GrantImplies),
                    "odv-ldv" => (Protocol::Odv, Protocol::Ldv, Relation::Equivalent),
                    "otdv-tdv" => (Protocol::Otdv, Protocol::Tdv, Relation::Equivalent),
                    // Known-false relation, kept for demonstration: MCV
                    // counts repaired-but-unrecovered copies that LDV's
                    // shrunk partitions exclude (see EXPERIMENTS.md).
                    "mcv-ldv" => (Protocol::Mcv, Protocol::Ldv, Relation::GrantImplies),
                    other => return Err(format!("unknown --diff relation {other:?}\n{USAGE}")),
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    // The small-scope bounds the tool is calibrated for; 8 sites /
    // 3 segments is the paper's Figure 8 topology, reachable since the
    // parallel + symmetry engine landed.
    if args.sites > 8 {
        return Err(format!(
            "--sites is capped at 8, got {}\n{USAGE}",
            args.sites
        ));
    }
    if args.segments > 3 {
        return Err(format!(
            "--segments is capped at 3, got {}\n{USAGE}",
            args.segments
        ));
    }
    dynvote_check::checked_depth(args.depth)
        .map_err(|error| format!("--depth: {error}\n{USAGE}"))?;
    Ok(args)
}

fn write_trace_artifacts(dir: &str, report: &Report) {
    if let Err(error) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir}: {error}");
        return;
    }
    for (index, finding) in report.findings.iter().enumerate() {
        let file = TraceFile {
            scenario: report.scenario,
            expect: Expectation::Violation {
                invariant: finding.violation.invariant.to_string(),
                known_hazard: finding.known_hazard,
            },
            events: finding.shrunk.clone(),
        };
        let path = format!(
            "{dir}/{}-{}-{index}.trace",
            report.scenario.policy.token(),
            finding.violation.invariant
        );
        if let Err(error) = std::fs::write(&path, file.render()) {
            eprintln!("warning: cannot write {path}: {error}");
        } else {
            eprintln!("wrote {path}");
        }
    }
}

fn run_diff(args: &Args, primary: Protocol, reference: Protocol, relation: Relation) -> ExitCode {
    let scenario = match Scenario::new(primary, args.sites, args.segments) {
        Ok(s) => s,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::from(2);
        }
    };
    let mut config = DiffConfig::new(scenario, reference, relation, args.depth)
        .threads(args.threads)
        .symmetry(args.symmetry);
    config.budget = args.budget;
    config.max_findings = args.max_findings;
    let report = run_differential(&config);
    println!(
        "diff {} vs {} ({}): {} states, {} dedup, {} transitions{}",
        primary.token(),
        reference.token(),
        match relation {
            Relation::GrantImplies => "grant-implies",
            Relation::Equivalent => "equivalent",
        },
        report.states_explored,
        report.dedup_hits,
        report.transitions,
        if report.truncated {
            " [truncated by budget]"
        } else {
            ""
        },
    );
    if report.holds() {
        println!("relation holds everywhere explored");
        return ExitCode::SUCCESS;
    }
    println!("relation BROKEN: {} mismatches", report.mismatches);
    for finding in &report.findings {
        println!("\n  {}", finding.detail);
        println!("  minimized witness ({} events):", finding.shrunk.len());
        for event in &finding.shrunk {
            println!("    {event}");
        }
    }
    ExitCode::FAILURE
}

struct BenchRow {
    policy: String,
    states: u64,
    dedup: u64,
    transitions: u64,
    secs: f64,
    real: u64,
    hazards: u64,
    truncated: bool,
}

fn rate(states: u64, secs: f64) -> u64 {
    if secs > 0.0 {
        (states as f64 / secs) as u64
    } else {
        0
    }
}

/// Renders the sweep as a BENCH_*.json document. The headline
/// `states_per_sec` comes first so CI's `grep -o ... | head -1`
/// baseline pattern picks up the aggregate, not a per-policy row.
fn write_bench(path: &str, args: &Args, rows: &[BenchRow]) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let total_states: u64 = rows.iter().map(|r| r.states).sum();
    let total_transitions: u64 = rows.iter().map(|r| r.transitions).sum();
    let total_secs: f64 = rows.iter().map(|r| r.secs).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"generated_by\": \"cargo run --release -p dynvote-check --bin dynvote-check -- --bench-out\",\n",
    );
    out.push_str(&format!("  \"machine\": {{ \"cores\": {cores} }},\n"));
    out.push_str(&format!(
        "  \"scenario\": {{ \"sites\": {}, \"segments\": {}, \"depth\": {}, \"threads\": {}, \"symmetry\": {} }},\n",
        args.sites, args.segments, args.depth, args.threads, args.symmetry
    ));
    out.push_str(&format!(
        "  \"total\": {{ \"states\": {}, \"transitions\": {}, \"secs\": {:.3}, \"states_per_sec\": {} }},\n",
        total_states,
        total_transitions,
        total_secs,
        rate(total_states, total_secs)
    ));
    out.push_str("  \"per_policy\": [\n");
    for (index, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"policy\": \"{}\", \"states\": {}, \"dedup\": {}, \"transitions\": {}, \
             \"secs\": {:.3}, \"states_per_sec\": {}, \"real\": {}, \"hazards\": {}, \
             \"truncated\": {} }}{}\n",
            row.policy,
            row.states,
            row.dedup,
            row.transitions,
            row.secs,
            rate(row.states, row.secs),
            row.real,
            row.hazards,
            row.truncated,
            if index + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(error) = std::fs::write(path, out) {
        eprintln!("warning: cannot write {path}: {error}");
    } else {
        eprintln!("wrote {path}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::from(2);
        }
    };

    if let Some((primary, reference, relation)) = args.diff {
        return run_diff(&args, primary, reference, relation);
    }

    println!(
        "dynvote-check: depth {}, {} sites, {} segment(s), {} thread(s), symmetry {}",
        args.depth,
        args.sites,
        args.segments,
        args.threads,
        if args.symmetry { "on" } else { "off" }
    );
    let mut rows: Vec<BenchRow> = Vec::new();
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>6} {:>7}",
        "policy", "states", "dedup", "transitions", "real", "hazards"
    );
    let mut failed = false;
    for &policy in &args.policies {
        let scenario = match Scenario::new(policy, args.sites, args.segments) {
            Ok(s) => s,
            Err(error) => {
                eprintln!("{error}");
                return ExitCode::from(2);
            }
        };
        let mut config = CheckConfig::new(scenario, args.depth)
            .threads(args.threads)
            .symmetry(args.symmetry);
        config.budget = args.budget;
        config.max_findings = args.max_findings;
        config.shrink = args.shrink;
        let started = Instant::now();
        let report = run(&config);
        let secs = started.elapsed().as_secs_f64();
        rows.push(BenchRow {
            policy: policy.token().to_string(),
            states: report.states_explored,
            dedup: report.dedup_hits,
            transitions: report.transitions,
            secs,
            real: report.real_violations,
            hazards: report.known_hazards,
            truncated: report.truncated,
        });
        println!(
            "{:<6} {:>10} {:>10} {:>12} {:>6} {:>7}{}",
            policy.token(),
            report.states_explored,
            report.dedup_hits,
            report.transitions,
            report.real_violations,
            report.known_hazards,
            if report.truncated {
                " [truncated by budget]"
            } else {
                ""
            },
        );
        for finding in &report.findings {
            println!(
                "\n  {} [{}]: {}",
                finding.violation.invariant,
                if finding.known_hazard {
                    "known hazard"
                } else {
                    "VIOLATION"
                },
                finding.violation.detail
            );
            println!("  minimized trace ({} events):", finding.shrunk.len());
            for event in &finding.shrunk {
                println!("    {event}");
            }
            println!("\n  regression test:\n");
            for line in finding.regression.lines() {
                println!("  {line}");
            }
        }
        if let Some(dir) = &args.trace_dir {
            if !report.findings.is_empty() {
                write_trace_artifacts(dir, &report);
            }
        }
        if report.real_violations > 0 || (args.deny_hazards && report.known_hazards > 0) {
            failed = true;
        }
    }
    if let Some(path) = &args.bench_out {
        write_bench(path, &args, &rows);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
