//! The paper's own harnesses as workloads: the model checker on the
//! Figure 8 network and the §4 availability tables. No sockets, no
//! disk: they move only when the protocol core moves, and must stay
//! flat under store changes.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dynvote_availability::config::ALL_CONFIGS;
use dynvote_availability::driver::Driver;
use dynvote_availability::network::ucsd_network;
use dynvote_availability::run::{simulate_row, Params, RunResult};
use dynvote_availability::sites::UCSD_SITES;
use dynvote_check::{CheckConfig, Report, Scenario, ALL_POLICIES};
use dynvote_sim::SimTime;

use crate::probes::{self, Probe};
use crate::procfs;
use crate::report::WorkloadResult;
use crate::stats::{self, Rng};
use crate::trace::Tracer;

/// Figure 8: eight sites on three segments.
const FIG8_SITES: usize = 8;
const FIG8_SEGMENTS: usize = 3;
const FIG8_DEPTH: usize = 5;
/// What the depth-5 sweep of all six policies must reproduce
/// (EXPERIMENTS.md, `crates/checker/tests/figure8.rs`).
const FIG8_STATES: u64 = 162_185;
const FIG8_TRANSITIONS: u64 = 815_055;

/// The per-policy throughput metrics, in `ALL_POLICIES` order.
const POLICY_METRICS: [&str; 6] = [
    "check.states_per_s.mcv",
    "check.states_per_s.dv",
    "check.states_per_s.ldv",
    "check.states_per_s.odv",
    "check.states_per_s.tdv",
    "check.states_per_s.otdv",
];

/// The committed table every `paper_tables` pass must reproduce, bit
/// for bit (`benchmark paper-digest` prints it).
const PAPER_TABLES: &str = include_str!("../paper_tables.digest");

fn explore(policy: dynvote_replica::Protocol, depth: usize) -> Report {
    let scenario = Scenario::new(policy, FIG8_SITES, FIG8_SEGMENTS).expect("Figure 8 is in range");
    let mut config = CheckConfig::new(scenario, depth).threads(1).symmetry(true);
    config.shrink = false;
    config.max_findings = 1;
    dynvote_check::run(&config)
}

/// Passes repeated until `seconds` have gone, at least two, each timed
/// and spanned. Returns the pass times in seconds and the CPU time of
/// them all.
fn timed_passes(
    tracer: &Tracer,
    parent: u64,
    name: &'static str,
    seconds: f64,
    mut pass: impl FnMut(u64),
) -> (Vec<f64>, Duration) {
    let mut times = Vec::new();
    let cpu_before = procfs::sample().cpu;
    let started = Instant::now();
    // Another pass starts only if, at the pace so far, it would end by
    // the deadline: the run measures for about `seconds`, not a pass
    // longer.
    while times.len() < 2
        || started.elapsed().as_secs_f64() * (1.0 + 1.0 / times.len() as f64) <= seconds
    {
        let span = tracer.open(name, parent);
        let begin = Instant::now();
        pass(span.id());
        times.push(begin.elapsed().as_secs_f64());
        tracer.close(span);
    }
    (times, procfs::sample().cpu - cpu_before)
}

/// The end-to-end metrics both harnesses share, from the passes' times,
/// their CPU time and the operations one pass performs.
fn pass_metrics(out: &mut WorkloadResult, times: &[f64], cpu: Duration, pass_ops: u64) {
    let rates: Vec<f64> = times.iter().map(|t| pass_ops as f64 / t).collect();
    out.set_sampled("p50_ms", stats::median(times) * 1e3, times.len());
    out.set_sampled("peak_ops_per_s", stats::best(&rates, true), rates.len());
    let kops = (pass_ops * times.len() as u64) as f64 / 1e3;
    out.set("cpu_ms_per_kop", cpu.as_secs_f64() * 1e3 / kops);
}

/// `check_fig8`: `dynvote_check::run` on Figure 8, depth 5, all six
/// policies, symmetry on, one thread, no shrinking. One pass is one
/// sweep of the six; the seed orders the policies within a pass.
pub fn check_fig8(seed: u64, seconds: f64, tracer: &Tracer, root: u64) -> WorkloadResult {
    let mut out = WorkloadResult::default();
    let mut policies = ALL_POLICIES;
    Rng::new(seed).shuffle(&mut policies);

    // Set-up is the warm-up a user's first sweep would pay: a depth-3
    // sweep that grows the allocator's arenas and the visited tables.
    let mut setups = Vec::new();
    while crate::sets_up_again(&setups) {
        let begin = Instant::now();
        let span = tracer.open("setup", root);
        for policy in policies {
            std::hint::black_box(explore(policy, 3));
        }
        tracer.close(span);
        setups.push(begin.elapsed().as_secs_f64());
    }
    out.set_sampled("setup_s", stats::median(&setups), setups.len());

    let mut best_per_policy = [0.0f64; 6];
    let (mut states, mut transitions, mut dedup, mut real) = (0u64, 0u64, 0u64, 0u64);
    let (mut passes, mut wrong) = (0u64, 0u64);
    let (times, cpu) = timed_passes(tracer, root, "check.sweep", seconds, |sweep| {
        let (mut pass_states, mut pass_transitions) = (0, 0);
        for policy in policies {
            let begin = Instant::now();
            let report = explore(policy, FIG8_DEPTH);
            let end = Instant::now();
            tracer.span("check.run", sweep, 0, begin, end);
            let rate = report.states_explored as f64 / end.duration_since(begin).as_secs_f64();
            let slot = ALL_POLICIES
                .iter()
                .position(|p| *p == policy)
                .expect("known policy");
            best_per_policy[slot] = best_per_policy[slot].max(rate);
            pass_states += report.states_explored;
            pass_transitions += report.transitions;
            dedup += report.dedup_hits;
            real += report.real_violations;
            wrong += u64::from(report.truncated);
        }
        wrong += u64::from(pass_states != FIG8_STATES || pass_transitions != FIG8_TRANSITIONS);
        states += pass_states;
        transitions += pass_transitions;
        passes += 1;
    });
    out.check(wrong == 0 && real == 0, || {
        format!(
            "Figure 8 sweep: {} states / {} transitions per pass expected {FIG8_STATES} / \
             {FIG8_TRANSITIONS}; {real} real violations; {wrong} passes off",
            states / passes,
            transitions / passes
        )
    });
    out.attempted = passes * 6;
    out.failed = wrong + real;

    pass_metrics(&mut out, &times, cpu, FIG8_STATES);
    let total: f64 = times.iter().sum();
    out.set("check.transitions_per_s", transitions as f64 / total);
    out.set("check.dedup_ratio", dedup as f64 / transitions as f64);
    for (name, best) in POLICY_METRICS.iter().zip(best_per_policy) {
        out.set(name, best);
    }
    if tracer.enabled() {
        probes::core(
            &Probe {
                tracer,
                parent: root,
            },
            &mut out,
        );
    }
    out.correct = out.problems.is_empty();
    out
}

/// Every cell of Tables 2 and 3 with its floats as bit patterns, in
/// the paper's order whatever order the rows were simulated in.
fn render_tables(rows: &[(usize, Vec<RunResult>)]) -> String {
    let mut ordered: Vec<&(usize, Vec<RunResult>)> = rows.iter().collect();
    ordered.sort_by_key(|(config, _)| *config);
    let mut text = String::new();
    for (_, row) in ordered {
        for cell in row {
            writeln!(
                text,
                "{} {} unavailability={:016x} ci_half={:016x} mean_outage_days={:016x} \
                 outages={} hazards={}",
                cell.config,
                cell.policy,
                cell.unavailability.to_bits(),
                cell.ci_half.to_bits(),
                cell.mean_outage_days.to_bits(),
                cell.outage_count,
                cell.hazard_events,
            )
            .expect("writing to a String");
        }
    }
    text
}

fn simulate_tables(
    params: &Params,
    order: &[usize],
    mut each_row: impl FnMut(Instant, Instant),
) -> String {
    let mut rows = Vec::with_capacity(order.len());
    for &config in order {
        let begin = Instant::now();
        let row = simulate_row(ALL_CONFIGS[config], params);
        each_row(begin, Instant::now());
        rows.push((config, row));
    }
    render_tables(&rows)
}

/// The tables at the paper's parameters, for `paper-digest`.
pub fn paper_tables_text() -> String {
    simulate_tables(&Params::paper(), &[0, 1, 2, 3, 4, 5, 6, 7], |_, _| {})
}

/// Steps the bare event driver through the horizon `simulate_row`
/// consumes and returns (events, seconds, cache hit ratio). Every row
/// sees this same event stream: it depends on the network, the site
/// models and the seed, not on the placement or the policy.
fn drive_horizon(params: &Params) -> (u64, f64, f64) {
    let mut driver = Driver::new(ucsd_network(), &UCSD_SITES, params.seed, params.access_rate);
    let end = SimTime::ZERO + params.horizon();
    let begin = Instant::now();
    let mut events = 0u64;
    while let Some((at, _)) = driver.step() {
        if at >= end {
            break;
        }
        events += 1;
    }
    let secs = begin.elapsed().as_secs_f64();
    let cache = driver.reachability_cache();
    let lookups = (cache.hits() + cache.misses()).max(1);
    (events, secs, cache.hits() as f64 / lookups as f64)
}

/// `paper_tables`: `simulate_row` for configurations A–H × the six
/// policies at `Params::paper()`. One pass is the eight rows; the seed
/// orders the rows within a pass (the simulation's own seed is the
/// paper's, so the results have one right answer).
pub fn paper_tables(seed: u64, seconds: f64, tracer: &Tracer, root: u64) -> WorkloadResult {
    let mut out = WorkloadResult::default();
    let params = Params::paper();
    let mut order: Vec<usize> = (0..ALL_CONFIGS.len()).collect();
    Rng::new(seed).shuffle(&mut order);

    // Set-up: count the events a row consumes (the throughput's
    // numerator) by stepping the bare driver through the horizon,
    // which also warms the allocator; then one quick pass of the
    // tables warms the policy code.
    let mut setups = Vec::new();
    let mut horizon = (0, 0.0, 0.0);
    while crate::sets_up_again(&setups) {
        let begin = Instant::now();
        let span = tracer.open("setup", root);
        horizon = drive_horizon(&params);
        tracer.span("sim.driver_step", span.id(), 0, begin, Instant::now());
        std::hint::black_box(simulate_tables(&Params::quick_test(), &order, |_, _| {}));
        tracer.close(span);
        setups.push(begin.elapsed().as_secs_f64());
    }
    out.set_sampled("setup_s", stats::median(&setups), setups.len());
    let (row_events, driver_secs, hit_ratio) = horizon;
    let pass_events = row_events * ALL_CONFIGS.len() as u64;

    let mut row_times = Vec::new();
    let mut off = 0u64;
    let (times, cpu) = timed_passes(tracer, root, "sim.tables", seconds, |pass| {
        let text = simulate_tables(&params, &order, |begin, end| {
            tracer.span("availability.simulate_row", pass, 0, begin, end);
            row_times.push(end.duration_since(begin).as_secs_f64());
        });
        off += u64::from(text != PAPER_TABLES);
    });
    out.check(off == 0, || {
        format!(
            "{off} of {} passes differ from benchmark/paper_tables.digest",
            times.len()
        )
    });
    out.attempted = (times.len() * ALL_CONFIGS.len()) as u64;
    out.failed = off;

    pass_metrics(&mut out, &times, cpu, pass_events);
    out.set("sim.driver_events_per_s", row_events as f64 / driver_secs);
    out.set_sampled("sim.row_s", stats::median(&row_times), row_times.len());
    out.set("topology.cache_hit_ratio", hit_ratio);
    if tracer.enabled() {
        probes::core(
            &Probe {
                tracer,
                parent: root,
            },
            &mut out,
        );
    }
    out.correct = out.problems.is_empty();
    out
}
