//! The repo benchmark. `benchmark/run.sh` builds this, pins it to one
//! CPU and runs it; README.md says what it measures and why.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark suite [--sets N] [--seed N] [--seconds S] [--trace]
//! benchmark compare BEFORE.json AFTER.json
//! benchmark paper-digest | manifest
//! ```
//!
//! The first form is one run of one workload and ends with the result
//! line /BENCHMARK.json's driver reads. `suite` runs every workload
//! that way, each in a process of its own, and writes
//! `out/results.json`.

mod fleet;
mod harness;
mod json;
mod loadgen;
mod probes;
mod procfs;
mod relay;
mod report;
mod stats;
mod store;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use report::WorkloadResult;
use trace::Tracer;

/// The workloads, in the order `suite` runs them, each with the reason
/// it exists (`workloads` in /BENCHMARK.json; README.md has the long
/// form).
const WORKLOADS: &[(&str, &str)] = &[
    (
        "put_small",
        "3 sites, 64 keys x 128 B, all PutKey: per-operation fixed costs (fsyncs, thread hops, frames, batching) do all the work and image bytes none",
    ),
    (
        "put_large",
        "3 sites, 2048 keys x 128 B, all PutKey: the 300 KB shard image is decoded, re-encoded and shipped into every COMMIT, WAL and ledger record, so per-byte costs dominate",
    ),
    (
        "get_large",
        "the put_large image, all GetKey: the same layers from the read side (quorum read, vote fsync, full-image decode), so a write-path gain that taxes reads shows",
    ),
    (
        "faulty_links",
        "5 sites, every peer link delayed 1 ms each way, then one peer silent: time is wire delay and read timeouts, not CPU or fsync",
    ),
    (
        "check_fig8",
        "model checker on the Figure 8 network, depth 5, six policies: replica::cluster on the in-memory bus and core decisions only; must stay flat under store changes",
    ),
    (
        "paper_tables",
        "the paper's section-4 simulation, configurations A-H x six policies at paper parameters: sim queue, availability driver, reachability cache, core policies",
    ),
];

/// `run_seconds` of /BENCHMARK.json: what `suite` measures for unless
/// told otherwise, so its numbers compare with the driver's.
const RUN_SECONDS: u32 = 15;

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Whether a run that has set up `setups` times (seconds each) sets up
/// once more: up to `SETUP_REPEATS` times, fewer once three seconds
/// have gone into it. When the sandbox's disk has a slow spell a fleet
/// takes ten seconds to load, not half of one, and five of those would
/// eat the time the driver allows for all its runs.
pub fn sets_up_again(setups: &[f64]) -> bool {
    setups.len() < SETUP_REPEATS && setups.iter().sum::<f64>() < 3.0
}

/// Everything the benchmark writes goes under here: data directories,
/// traces, results. Fixed when the benchmark is built, which is always
/// in the checkout it then runs in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The conditions every number is measured under. Checks the two that
/// can be wrong — one CPU, a filesystem whose fsync does something —
/// and returns all of them for the record.
fn conditions() -> Result<BTreeMap<String, Json>, String> {
    let cpus = procfs::allowed_cpus();
    if cpus.len() != 1 {
        return Err(format!(
            "the benchmark must be pinned to one CPU and may run on {cpus:?}; \
             start it through benchmark/run.sh"
        ));
    }
    let out = out_dir();
    std::fs::create_dir_all(out.join("data"))
        .map_err(|e| format!("creating {}: {e}", out.display()))?;
    let fs_type = procfs::fs_type(&out.join("data"));
    if fs_type == "tmpfs" || fs_type == "ramfs" {
        return Err(format!(
            "{} is on {fs_type}, where fsync is a no-op; a durable store cannot be measured there",
            out.display()
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(BTreeMap::from([
        ("pinned_cpu".to_string(), Json::Num(cpus[0] as f64)),
        ("available_parallelism".to_string(), Json::Num(cores as f64)),
        ("data_fs".to_string(), Json::Str(fs_type)),
        ("data_dir".to_string(), Json::str("benchmark/out/data")),
        (
            "fleet".to_string(),
            Json::str("in-process loopback daemons (dynvote_store::server::start_on), durable, fsync before ack"),
        ),
        ("daemon_flags".to_string(), Json::str(fleet::DAEMON_FLAGS)),
        ("peer_timeouts".to_string(), Json::str(fleet::PATIENT_TIMEOUTS)),
        (
            "peer_timeouts_faulty_links".to_string(),
            Json::str(fleet::SHORT_TIMEOUTS),
        ),
        (
            "client".to_string(),
            Json::str("keyed dialect, one pipelined Connection to the shard coordinator; pacer + reaper threads"),
        ),
        (
            "setup_repeats".to_string(),
            Json::str("up to 5, fewer once 3 s have gone into setting up; setup_s is their median"),
        ),
    ]))
}

fn print_conditions(conditions: &BTreeMap<String, Json>) {
    eprintln!("conditions:");
    for (key, value) in conditions {
        eprintln!(
            "  {key}: {}",
            value
                .as_str()
                .map_or_else(|| value.render(), str::to_string)
        );
    }
}

/// One run of one workload. A traced run measures its phases for half
/// of `seconds` and spends the rest on the per-layer probes.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let tracer = Tracer::new(traced);
    let root = tracer.open("workload", 0);
    let measure = if traced { seconds / 2.0 } else { seconds };
    let result = match name {
        "put_small" => store::run(&store::PUT_SMALL, seed, measure, &tracer, root.id()),
        "put_large" => store::run(&store::PUT_LARGE, seed, measure, &tracer, root.id()),
        "get_large" => store::run(&store::GET_LARGE, seed, measure, &tracer, root.id()),
        "faulty_links" => store::run(&store::FAULTY_LINKS, seed, measure, &tracer, root.id()),
        "check_fig8" => harness::check_fig8(seed, measure, &tracer, root.id()),
        "paper_tables" => harness::paper_tables(seed, measure, &tracer, root.id()),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
            return Err(format!("unknown workload {other:?}; one of {names:?}"));
        }
    };
    tracer.close(root);
    let trace_path = out_dir().join(format!("trace-{name}.json"));
    tracer
        .write(&trace_path, name)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    Ok(result)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: usize,
    full_json: Option<PathBuf>,
    rest: Vec<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        sets: 1,
        full_json: None,
        rest: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |flag: &str, text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: expected a number, got {text:?}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => parsed.seed = number("--seed", value("--seed")?)? as u64,
            "--seconds" => parsed.seconds = number("--seconds", value("--seconds")?)?.max(1.0),
            "--sets" => parsed.sets = (number("--sets", value("--sets")?)? as usize).max(1),
            "--full-json" => parsed.full_json = Some(PathBuf::from(value("--full-json")?)),
            // The driver says `--trace 0` or `--trace 1`; by hand,
            // `--trace` alone asks for the traced run.
            "--trace" => {
                parsed.traced = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            _ => parsed.rest.push(arg),
        }
    }
    Ok(parsed)
}

/// `--workload`: the driver's contract. Human-readable lines first,
/// the result object last.
fn one_run(args: &Args, workload: &str) -> Result<ExitCode, String> {
    print_conditions(&conditions()?);
    eprintln!(
        "workload {workload}: seed {}, {} s, {}",
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" }
    );
    let result = run_workload(workload, args.seed, args.seconds, args.traced)?;
    for problem in &result.problems {
        eprintln!("CHECK FAILED: {workload}: {problem}");
    }
    print!("{}", result.lines(workload, args.traced));
    if let Some(path) = &args.full_json {
        std::fs::write(path, result.full_json().render())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", result.driver_json(args.traced).render());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a process of its own — exactly what the driver
/// does — passes its metric lines on, and reads back everything it
/// measured.
fn child_run(workload: &str, args: &Args, seed: u64, traced: bool) -> Result<Json, String> {
    let full = out_dir().join(format!("run-{workload}.json"));
    let exe = std::env::current_exe().map_err(|e| format!("finding this program: {e}"))?;
    let child = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--full-json")
        .arg(&full)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    // Everything but the driver's result line, which comes last.
    let lines = String::from_utf8_lossy(&child.stdout);
    let metric_lines = lines
        .trim_end()
        .rsplit_once('\n')
        .map_or("", |(before, _)| before);
    println!("{metric_lines}");
    let text = std::fs::read_to_string(&full)
        .map_err(|e| format!("{workload} left no result ({}): {e}", child.status))?;
    std::fs::remove_file(&full).map_err(|e| format!("removing {}: {e}", full.display()))?;
    Json::parse(&text)
}

/// `suite`: every workload, `--sets` times over, each set on the next
/// seed. Prints one line per metric, writes `out/results.json`, and
/// fails when an output check fails or two sets disagree.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let conditions = conditions()?;
    print_conditions(&conditions);
    let mut sets = Vec::new();
    let mut traced_sets = Vec::new();
    let mut all_correct = true;
    for set in 0..args.sets {
        let seed = args.seed + set as u64;
        let mut untraced = BTreeMap::new();
        let mut traced = BTreeMap::new();
        for (workload, _) in WORKLOADS {
            for is_traced in [false, true] {
                if is_traced && !args.traced {
                    continue;
                }
                eprintln!(
                    "set {}/{}: {workload} (seed {seed}{}) ...",
                    set + 1,
                    args.sets,
                    if is_traced { ", traced" } else { "" }
                );
                let result = child_run(workload, args, seed, is_traced)?;
                all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                let into = if is_traced {
                    &mut traced
                } else {
                    &mut untraced
                };
                into.insert((*workload).to_string(), result);
            }
        }
        sets.push(Json::Obj(untraced));
        traced_sets.push(Json::Obj(traced));
    }
    let doc = Json::obj([
        ("conditions", Json::Obj(conditions)),
        ("seconds", Json::Num(args.seconds)),
        ("first_seed", Json::Num(args.seed as f64)),
        ("sets", Json::Arr(sets)),
        ("traced_sets", Json::Arr(traced_sets)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());

    let mut agreed = true;
    if args.sets > 1 {
        let (table, disagreements) = report::spread_table(&report::sets_of(&doc)?);
        println!("\nover {} sets:\n{table}", args.sets);
        for line in &disagreements {
            println!("SETS DISAGREE: {line}");
        }
        agreed = disagreements.is_empty();
    }
    if !all_correct {
        println!("an output check failed");
    }
    Ok(if all_correct && agreed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, before, after] = args.rest.as_slice() else {
        return Err("usage: benchmark compare BEFORE.json AFTER.json".to_string());
    };
    let load = |path: &String| -> Result<report::Sets, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        report::sets_of(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressions) = report::compare(&load(before)?, &load(after)?);
    println!("{table}");
    for line in &regressions {
        println!("REGRESSION: {line}");
    }
    Ok(if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// /BENCHMARK.json as the catalogue has it. The committed file must
/// equal this (a test checks), so the driver and `compare` gate the
/// same metrics by the same bounds.
fn manifest() -> String {
    let metric = |def: &report::MetricDef, bounded: bool| {
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = match def.bound {
            Some(bound) if bounded => format!(", \"bound\": {bound}"),
            _ => String::new(),
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            def.name, def.unit
        )
    };
    let list = |lines: Vec<String>| lines.join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        list(WORKLOADS
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect()),
        list(report::END_TO_END.iter().map(|def| metric(def, true)).collect()),
        list(report::PER_LAYER.iter().map(|def| metric(def, false)).collect()),
    )
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        match (
            args.workload.as_deref(),
            args.rest.first().map(String::as_str),
        ) {
            (Some(workload), None) => one_run(&args, workload),
            (None, Some("suite")) => suite(&args),
            (None, Some("compare")) => compare(&args),
            (None, Some("paper-digest")) => {
                print!("{}", harness::paper_tables_text());
                Ok(ExitCode::SUCCESS)
            }
            (None, Some("manifest")) => {
                print!("{}", manifest());
                Ok(ExitCode::SUCCESS)
            }
            _ => Err(
                "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] \
                      | suite [--sets N] [--seed N] [--seconds S] [--trace] \
                      | compare BEFORE.json AFTER.json | paper-digest | manifest"
                    .to_string(),
            ),
        }
    });
    outcome.unwrap_or_else(|error| {
        eprintln!("error: {error}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse("--workload put_small --seed 7 --seconds 15 --trace 0").unwrap();
        assert_eq!(args.workload.as_deref(), Some("put_small"));
        assert_eq!((args.seed, args.seconds, args.traced), (7, 15.0, false));
        assert!(parse("--workload put_small --trace 1").unwrap().traced);
    }

    #[test]
    fn a_bare_trace_flag_asks_for_the_traced_run() {
        let args = parse("suite --trace --sets 2").unwrap();
        assert!(args.traced);
        assert_eq!(args.sets, 2);
        assert_eq!(args.rest, vec!["suite"]);
        assert!(parse("suite --sets").is_err());
        assert!(parse("--bogus").is_err());
        assert!(parse("--seed x").is_err());
    }

    #[test]
    fn set_up_repeats_until_the_count_or_the_time_is_reached() {
        assert!(sets_up_again(&[]));
        assert!(sets_up_again(&[0.4; 4]));
        assert!(!sets_up_again(&[0.4; 5]));
        assert!(sets_up_again(&[2.9]));
        assert!(!sets_up_again(&[2.0, 1.5]));
        assert!(!sets_up_again(&[11.0]));
    }

    #[test]
    fn the_committed_manifest_is_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
        let doc = Json::parse(&committed).expect("BENCHMARK.json is JSON");
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        let wanted = [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads",
        ];
        assert_eq!(keys, wanted);
        for (name, why) in WORKLOADS {
            assert!(
                name.len() <= 64 && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
        assert!(committed.len() <= 64 * 1024);
    }
}
