//! The batch-means experiment runner.
//!
//! Reproduces the paper's measurement protocol: all sites start up, the
//! first 360 simulated days are discarded as warm-up, and the remainder
//! of the run is cut into batches whose per-batch unavailabilities give
//! a mean and a 95% Student-t confidence interval (batch-means
//! analysis). Outage durations (Table 3) are logged over the whole
//! post-warm-up period.
//!
//! All policies passed to [`run_trace`] are driven by **one** stochastic
//! trace (common random numbers), so differences between columns of the
//! reproduced Table 2 reflect the protocols, not sampling noise.

use dynvote_core::policy::{AvailabilityPolicy, Protocol};
use dynvote_sim::{BatchMeans, Duration, OutageLog, SimRng, SimTime};
use dynvote_topology::Network;

use crate::config::Configuration;
use crate::driver::{Change, Driver};
use crate::network::ucsd_network;
use crate::sites::{SiteModel, UCSD_SITES};

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Poisson file-access rate (accesses/day). The paper uses 1.0.
    pub access_rate: f64,
    /// Warm-up period discarded before measurement (the paper: 360 d).
    pub warmup: Duration,
    /// Length of one batch.
    pub batch_len: Duration,
    /// Number of batches.
    pub batches: usize,
}

impl Params {
    /// Full-fidelity parameters for regenerating Tables 2 and 3:
    /// 360-day warm-up, 30 batches of 40,000 days (1.2M measured days),
    /// one access per day.
    #[must_use]
    pub fn paper() -> Self {
        Params {
            seed: 0x1988_1CDE,
            access_rate: 1.0,
            warmup: Duration::days(360.0),
            batch_len: Duration::days(40_000.0),
            batches: 30,
        }
    }

    /// Reduced parameters for unit/integration tests (seconds, not
    /// minutes): 6 batches of 3,000 days.
    #[must_use]
    pub fn quick_test() -> Self {
        Params {
            seed: 0x1988_1CDE,
            access_rate: 1.0,
            warmup: Duration::days(360.0),
            batch_len: Duration::days(3_000.0),
            batches: 6,
        }
    }

    /// Total simulated horizon (warm-up plus all batches).
    #[must_use]
    pub fn horizon(&self) -> Duration {
        self.warmup + self.batch_len * self.batches as f64
    }
}

/// The measured outcome of one (policy, configuration) cell.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Policy name (Table 2 column).
    pub policy: String,
    /// Configuration name (Table 2 row).
    pub config: String,
    /// Time-weighted unavailability (the Table 2 metric).
    pub unavailability: f64,
    /// Half-width of the 95% confidence interval on the unavailability.
    pub ci_half: f64,
    /// Mean duration of unavailable periods in days (the Table 3
    /// metric).
    pub mean_outage_days: f64,
    /// Median outage duration in days (0 when no outage occurred).
    pub p50_outage_days: f64,
    /// 90th-percentile outage duration in days (0 when none).
    pub p90_outage_days: f64,
    /// Longest single outage in days (0 when none).
    pub max_outage_days: f64,
    /// Number of distinct outages observed after warm-up.
    pub outage_count: u64,
    /// Rival-grant (sequential-claim hazard) events over the whole run
    /// — non-zero only for the topological protocols.
    pub hazard_events: u64,
    /// Post-warm-up measured time, in days.
    pub measured_days: f64,
}

impl RunResult {
    /// Availability (1 − unavailability).
    #[must_use]
    pub fn availability(&self) -> f64 {
        1.0 - self.unavailability
    }
}

/// One policy's share of a row's measurement: the row keeps the clock,
/// the policy only what differs between policies.
struct Meter {
    /// The policy's availability after the last event it saw.
    available: bool,
    /// Unavailable time in the current batch.
    down: Duration,
    outages: OutageLog,
}

impl Meter {
    fn new(start: SimTime, available: bool) -> Self {
        Meter {
            available,
            down: Duration::ZERO,
            outages: OutageLog::new(start, available),
        }
    }

    /// Absorbs a span of the row's clock that ends now.
    fn absorb(&mut self, span: Duration) {
        if !self.available {
            self.down += span;
        }
    }
}

/// Drives `policies` through one common stochastic trace over `network`
/// with per-site `models`, and returns one [`RunResult`] per policy.
///
/// # Panics
///
/// Panics when `params.batches == 0` or no site exists.
pub fn run_trace(
    network: &Network,
    models: &[SiteModel],
    mut policies: Vec<Box<dyn AvailabilityPolicy>>,
    params: &Params,
    config_label: &str,
) -> Vec<RunResult> {
    assert!(params.batches > 0, "at least one batch is required");
    let mut driver = Driver::new(network.clone(), models, params.seed, params.access_rate);
    let n = policies.len();
    for p in &mut policies {
        p.reset();
        // Seed the instantaneous policies with the initial (all-up) view.
        p.on_topology_change(driver.reachability());
    }

    // ---- warm-up ----------------------------------------------------------
    // Phase transitions are driven by the times `step()` returns: the
    // first post-boundary event is carried over into the next phase.
    let warmup_end = SimTime::ZERO + params.warmup;
    let mut carried: Option<(SimTime, Change)>;
    loop {
        let (t, change) = driver.step().expect("failure processes never end");
        if t >= warmup_end {
            carried = Some((t, change));
            break;
        }
        let reach = driver.reachability();
        for p in &mut policies {
            let _ = match change {
                Change::Topology => p.on_topology_change(reach),
                Change::Access => p.on_access(reach),
            };
        }
    }

    // ---- measurement ------------------------------------------------------
    // NOTE: the carried event has already mutated the *driver* (the up
    // set changed at time t ≥ warmup_end) but not the policies; the
    // initial availability is therefore probed against the pre-event
    // policy state and the pre-event reachability is gone. The bias is
    // one event at the warm-up boundary of a multi-year run —
    // negligible — and the code below immediately processes the carried
    // event at its true timestamp.
    //
    // One clock for the row: `since` and the batch's `total` advance once
    // per event and once per batch boundary. A policy keeps only the
    // time it was unavailable, and writes its outage log when its
    // availability changes. Each policy's floats see the same operations
    // in the same order as a clock of its own would.
    let mut meters: Vec<Meter> = policies
        .iter()
        .map(|p| Meter::new(warmup_end, p.is_available(driver.reachability())))
        .collect();
    let mut batch_stats: Vec<BatchMeans> = (0..n).map(|_| BatchMeans::new()).collect();
    let mut since = warmup_end;
    let mut total = Duration::ZERO;

    let mut next_boundary = warmup_end + params.batch_len;
    let mut completed = 0usize;
    'measure: while completed < params.batches {
        let (t, change) = match carried.take() {
            Some(event) => event,
            None => driver.step().expect("failure processes never end"),
        };
        // Close every batch boundary the event jumped over.
        while t >= next_boundary {
            let span = next_boundary - since;
            total += span;
            since = next_boundary;
            for (meter, stats) in meters.iter_mut().zip(&mut batch_stats) {
                meter.absorb(span);
                stats.push(if total.is_zero() {
                    0.0
                } else {
                    meter.down / total
                });
                meter.down = Duration::ZERO;
            }
            total = Duration::ZERO;
            completed += 1;
            next_boundary += params.batch_len;
            if completed == params.batches {
                break 'measure;
            }
        }
        let span = t - since;
        total += span;
        since = t;
        let reach = driver.reachability();
        for (policy, meter) in policies.iter_mut().zip(&mut meters) {
            // The event handlers return the post-event availability —
            // contractually equal to `is_available`, which would cost a
            // second decision pass per (event, policy).
            let avail = match change {
                Change::Topology => policy.on_topology_change(reach),
                Change::Access => policy.on_access(reach),
            };
            debug_assert_eq!(
                avail,
                policy.is_available(reach),
                "{}: event-handler availability out of sync",
                policy.name()
            );
            meter.absorb(span);
            if avail != meter.available {
                meter.outages.record(t, avail);
                meter.available = avail;
            }
        }
    }

    let end = warmup_end + params.batch_len * params.batches as f64;
    let measured_days = (end - warmup_end).as_days();
    policies
        .iter()
        .zip(batch_stats)
        .zip(meters)
        .map(|((p, stats), meter)| {
            let mut log = meter.outages;
            log.finish(end);
            let quant = |q: f64| log.quantile(q).map_or(0.0, |d| d.as_days());
            RunResult {
                policy: p.name().to_string(),
                config: config_label.to_string(),
                unavailability: stats.mean(),
                ci_half: stats.half_width_95(),
                mean_outage_days: log.mean().as_days(),
                p50_outage_days: quant(0.5),
                p90_outage_days: quant(0.9),
                max_outage_days: log.longest().as_days(),
                outage_count: log.count(),
                hazard_events: p.hazard_events(),
                measured_days,
            }
        })
        .collect()
}

/// The outcome of a reliability (time-to-first-outage) measurement.
#[derive(Clone, Debug)]
pub struct TtfResult {
    /// Policy name.
    pub policy: String,
    /// Mean time to the first unavailability, in days, over the
    /// *uncensored* replications.
    pub mean_ttf_days: f64,
    /// Half-width of the 95% confidence interval (uncensored sample).
    pub ci_half: f64,
    /// Number of replications that reached an outage within the
    /// horizon.
    pub observed: usize,
    /// Number of replications censored at the horizon (the file never
    /// became unavailable); a non-zero count means the true MTTF is
    /// *underestimated* by `mean_ttf_days`.
    pub censored: usize,
}

/// Measures the file's **reliability**: the mean time from a fresh
/// all-up start until the file *first* becomes unavailable, over
/// `replications` independent runs (each capped at `horizon`). Run `r`
/// drives its own stream of `seed` ([`SimRng::stream_seed`]), so two
/// seeds share no run.
///
/// This is the first-passage counterpart of the Table 2 metric — the
/// quantity behind the paper's "continuously available for more than
/// three hundred years" remark — and is cross-checked against the exact
/// CTMC first-passage solutions by the `reliability` experiment.
///
/// # Panics
///
/// Panics when `replications == 0`.
pub fn measure_ttf<F>(
    network: &Network,
    models: &[SiteModel],
    make_policy: F,
    access_rate: f64,
    seed: u64,
    replications: usize,
    horizon: Duration,
) -> TtfResult
where
    F: Fn() -> Box<dyn AvailabilityPolicy>,
{
    assert!(replications > 0, "at least one replication required");
    let mut stats = BatchMeans::new();
    let mut censored = 0usize;
    let mut name = String::new();
    // One memo table for the whole study: each replication's driver
    // takes the warm cache and hands it back, so the union-find runs at
    // most once per distinct up-set across *all* replications.
    let mut shared_cache = dynvote_topology::ReachabilityCache::new(network);
    for rep in 0..replications {
        let mut policy = make_policy();
        name = policy.name().to_string();
        policy.reset();
        let mut driver = Driver::with_cache(
            network.clone(),
            models,
            SimRng::stream_seed(seed, rep as u64),
            access_rate,
            shared_cache,
        );
        policy.on_topology_change(driver.reachability());
        let end = SimTime::ZERO + horizon;
        let mut first_outage: Option<SimTime> = None;
        while let Some((t, change)) = driver.step() {
            if t >= end {
                break;
            }
            let available = match change {
                Change::Topology => policy.on_topology_change(driver.reachability()),
                Change::Access => policy.on_access(driver.reachability()),
            };
            debug_assert_eq!(
                available,
                policy.is_available(driver.reachability()),
                "{}: event-handler availability out of sync",
                policy.name()
            );
            if !available {
                first_outage = Some(t);
                break;
            }
        }
        match first_outage {
            Some(t) => stats.push(t.as_days()),
            None => censored += 1,
        }
        // Take the cache back so up-sets first seen in this replication
        // stay warm for the next one.
        shared_cache = driver.into_cache();
    }
    TtfResult {
        policy: name,
        mean_ttf_days: stats.mean(),
        ci_half: stats.half_width_95(),
        observed: stats.n(),
        censored,
    }
}

/// One cause bucket from [`attribute_outages`]: all outage time during
/// which the *same set of sites* was down at the moment the outage
/// began.
#[derive(Clone, Debug)]
pub struct OutageCause {
    /// The down sites when the outage began (the proximate cause).
    pub down: dynvote_types::SiteSet,
    /// Number of outages beginning under this signature.
    pub count: u64,
    /// Total unavailable days attributed to this signature.
    pub total_days: f64,
}

/// Explains a (policy, configuration) cell: runs one measurement and
/// attributes every outage to the set of sites that were down when it
/// began, aggregated by signature and sorted by total attributed time.
///
/// This is diagnosis, not measurement — e.g. it shows at a glance that
/// MCV's configuration-A unavailability is dominated by
/// "{wizard, beowulf} down" episodes while LDV's is dominated by
/// "{csvax} down during a shrunken quorum".
///
/// # Panics
///
/// Panics when `params.batches == 0`.
pub fn attribute_outages(
    network: &Network,
    models: &[SiteModel],
    mut policy: Box<dyn AvailabilityPolicy>,
    params: &Params,
) -> Vec<OutageCause> {
    assert!(params.batches > 0, "at least one batch is required");
    let mut driver = Driver::new(network.clone(), models, params.seed, params.access_rate);
    policy.reset();
    policy.on_topology_change(driver.reachability());
    let warmup_end = SimTime::ZERO + params.warmup;
    let end = warmup_end + params.batch_len * params.batches as f64;
    let all = network.sites();

    let mut causes: std::collections::HashMap<u64, OutageCause> = std::collections::HashMap::new();
    let mut close = |(started, down): (SimTime, dynvote_types::SiteSet), at: SimTime| {
        let bucket = causes.entry(down.bits()).or_insert(OutageCause {
            down,
            count: 0,
            total_days: 0.0,
        });
        bucket.count += 1;
        bucket.total_days += (at - started).as_days();
    };
    // The outage in progress: when it began and the sites down then. It
    // is tracked through the warm-up, so an outage that spans the
    // warm-up's end keeps the cause it began under.
    let mut outage: Option<(SimTime, dynvote_types::SiteSet)> = None;
    let mut measuring = false;
    loop {
        let next = driver.peek_time().expect("failure processes never end");
        if !measuring && next >= warmup_end {
            // Measurement opens as `run_trace`'s outage log does: an
            // outage still open at the warm-up's end counts from there.
            measuring = true;
            outage = outage.map(|(_, down)| (warmup_end, down));
        }
        if next >= end {
            break;
        }
        let (t, change) = driver.step().expect("failure processes never end");
        let available = match change {
            Change::Topology => policy.on_topology_change(driver.reachability()),
            Change::Access => policy.on_access(driver.reachability()),
        };
        match (outage, available) {
            (None, false) => outage = Some((t, all - driver.up())),
            (Some(open), true) => {
                if measuring {
                    close(open, t);
                }
                outage = None;
            }
            _ => {}
        }
    }
    // And, as the log does, an outage still open at the horizon closes
    // there.
    if let Some(open) = outage {
        close(open, end);
    }
    let mut out: Vec<OutageCause> = causes.into_values().collect();
    out.sort_by(|a, b| b.total_days.partial_cmp(&a.total_days).expect("finite"));
    out
}

/// Simulates one paper policy on one Table 2 configuration over the
/// Figure 8 network.
#[must_use]
pub fn simulate(kind: Protocol, config: &Configuration, params: &Params) -> RunResult {
    let network = ucsd_network();
    let policy = kind.build(config.copies, &network);
    run_trace(&network, &UCSD_SITES, vec![policy], params, config.name)
        .pop()
        .expect("one policy in, one result out")
}

/// Simulates all six paper policies on one configuration with common
/// random numbers — one Table 2 row.
#[must_use]
pub fn simulate_row(config: &Configuration, params: &Params) -> Vec<RunResult> {
    let network = ucsd_network();
    let policies: Vec<Box<dyn AvailabilityPolicy>> = Protocol::ALL
        .iter()
        .map(|k| k.build(config.copies, &network))
        .collect();
    run_trace(&network, &UCSD_SITES, policies, params, config.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CONFIG_A, CONFIG_D, CONFIG_E};
    use dynvote_types::SiteSet;

    #[test]
    fn results_are_deterministic() {
        let params = Params::quick_test();
        let a = simulate(Protocol::Ldv, &CONFIG_A, &params);
        let b = simulate(Protocol::Ldv, &CONFIG_A, &params);
        assert_eq!(a.unavailability, b.unavailability);
        assert_eq!(a.outage_count, b.outage_count);
    }

    #[test]
    fn unavailability_is_a_probability() {
        let params = Params::quick_test();
        for kind in Protocol::ALL {
            let r = simulate(kind, &CONFIG_D, &params);
            assert!(
                (0.0..=1.0).contains(&r.unavailability),
                "{kind}: {}",
                r.unavailability
            );
        }
    }

    #[test]
    fn config_a_is_highly_available_under_ldv() {
        let r = simulate(Protocol::Ldv, &CONFIG_A, &Params::quick_test());
        assert!(r.unavailability < 0.01, "got {}", r.unavailability);
    }

    #[test]
    fn config_d_is_much_worse_than_config_a_for_mcv() {
        // Table 2: MCV on D (0.069) is ~30× worse than on A (0.002).
        let params = Params::quick_test();
        let a = simulate(Protocol::Mcv, &CONFIG_A, &params);
        let d = simulate(Protocol::Mcv, &CONFIG_D, &params);
        assert!(
            d.unavailability > 5.0 * a.unavailability,
            "A: {}, D: {}",
            a.unavailability,
            d.unavailability
        );
    }

    #[test]
    fn tdv_on_config_e_is_near_perfect() {
        // Table 2 row E: TDV/OTDV measured 0.000000 — all four copies on
        // one Ethernet, so one surviving copy suffices.
        let r = simulate(Protocol::Tdv, &CONFIG_E, &Params::quick_test());
        assert!(r.unavailability < 1e-4, "got {}", r.unavailability);
    }

    #[test]
    fn row_runs_all_six_policies_on_one_trace() {
        let row = simulate_row(&CONFIG_A, &Params::quick_test());
        let names: Vec<&str> = row.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(names, vec!["MCV", "DV", "LDV", "ODV", "TDV", "OTDV"]);
        for r in &row {
            assert_eq!(r.config, "A");
            assert!(r.measured_days > 0.0);
        }
    }

    #[test]
    fn horizon_accounts_for_batches() {
        let p = Params::quick_test();
        assert!((p.horizon().as_days() - (360.0 + 6.0 * 3000.0)).abs() < 1e-9);
    }

    #[test]
    fn mean_outage_days_only_when_outages_happen() {
        let params = Params::quick_test();
        let r = simulate(Protocol::Dv, &CONFIG_D, &params);
        if r.outage_count > 0 {
            assert!(r.mean_outage_days > 0.0);
        }
    }

    #[test]
    fn availability_helper() {
        let r = RunResult {
            policy: "X".into(),
            config: "A".into(),
            unavailability: 0.25,
            ci_half: 0.0,
            mean_outage_days: 0.0,
            p50_outage_days: 0.0,
            p90_outage_days: 0.0,
            max_outage_days: 0.0,
            outage_count: 0,
            hazard_events: 0,
            measured_days: 1.0,
        };
        assert_eq!(r.availability(), 0.75);
    }

    #[test]
    fn ttf_single_site_matches_its_mttf() {
        use dynvote_core::policy::DynamicPolicy;
        let network = Network::single_segment(1);
        let models = crate::sites::identical_sites(1, Duration::days(10.0), Duration::hours(2.0));
        let r = measure_ttf(
            &network,
            &models,
            || Box::new(DynamicPolicy::mcv(SiteSet::first_n(1))),
            0.0,
            7,
            400,
            Duration::days(1e6),
        );
        assert_eq!(r.censored, 0);
        assert_eq!(r.observed, 400);
        assert!(
            (r.mean_ttf_days - 10.0).abs() < 1.5,
            "measured {}",
            r.mean_ttf_days
        );
    }

    #[test]
    fn ttf_censoring_reported() {
        use dynvote_core::policy::DynamicPolicy;
        // A near-immortal site with a tiny horizon: everything censors.
        let network = Network::single_segment(1);
        let models = crate::sites::identical_sites(1, Duration::days(1e9), Duration::hours(2.0));
        let r = measure_ttf(
            &network,
            &models,
            || Box::new(DynamicPolicy::mcv(SiteSet::first_n(1))),
            0.0,
            7,
            10,
            Duration::days(100.0),
        );
        assert_eq!(r.censored, 10);
        assert_eq!(r.observed, 0);
    }

    /// The causes of a cell's outages add up to the outages Table 3
    /// logs on the same trace: every cell, seeds 1–5.
    #[test]
    fn outage_causes_add_up_to_the_outage_log() {
        let network = ucsd_network();
        for seed in 1..=5 {
            let params = Params {
                seed,
                ..Params::quick_test()
            };
            for config in crate::ALL_CONFIGS {
                for (kind, cell) in Protocol::ALL.into_iter().zip(simulate_row(config, &params)) {
                    let causes = attribute_outages(
                        &network,
                        &UCSD_SITES,
                        kind.build(config.copies, &network),
                        &params,
                    );
                    let count: u64 = causes.iter().map(|c| c.count).sum();
                    let days: f64 = causes.iter().map(|c| c.total_days).sum();
                    let logged = cell.mean_outage_days * cell.outage_count as f64;
                    let at = format!("seed {seed}, {kind} on {}", config.name);
                    assert_eq!(count, cell.outage_count, "{at}: outages");
                    assert!(
                        (days - logged).abs() <= 1e-9 * logged.max(1.0),
                        "{at}: {days} outage-days attributed, {logged} logged"
                    );
                }
            }
        }
    }

    #[test]
    fn custom_policy_via_run_trace() {
        // Available Copy on a single-segment 3-copy system: essentially
        // never unavailable (needs all three down at once).
        use dynvote_core::policy::AvailableCopyPolicy;
        let network = Network::single_segment(3);
        let models = crate::sites::identical_sites(3, Duration::days(50.0), Duration::hours(2.0));
        let policy = Box::new(AvailableCopyPolicy::new(SiteSet::first_n(3)));
        let results = run_trace(&network, &models, vec![policy], &Params::quick_test(), "ac");
        assert!(results[0].unavailability < 1e-4);
    }
}
