//! The live nemesis: seeded, time-bounded randomized fault campaigns
//! against a fleet of *real* `dynvote-stored` processes.
//!
//! Where the model checker (`dynvote-check`) exhausts small scopes of
//! an in-process model, the campaign points the same event vocabulary
//! at the real thing: SIGKILL and restart-from-disk, canonical
//! partition cuts over the live link rules, disk corruption injected
//! between kill and restart, stalled peers — all interleaved with a
//! concurrent client workload, under an online invariant monitor.
//!
//! The pieces:
//!
//! * [`schedule`] — the deterministic seeded fault schedule (same
//!   seed, same campaign), rendered in the checker's event grammar;
//! * [`fleet`] — subprocess management and the disk-fault injectors;
//! * [`workload`] — client threads, each on one pipelined
//!   `Connection` per site under a hard per-op deadline, minting
//!   globally unique write tokens;
//! * [`monitor`] — live analogues of the checker's invariants;
//! * [`report`] — `BENCH_faults.json`: availability and latency
//!   quantiles under faults.
//!
//! Orchestration lives in [`run`]; the `dynvote-nemesis` binary is a
//! thin argument parser over it.

pub mod fleet;
pub mod monitor;
pub mod report;
pub mod schedule;
pub mod workload;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dynvote_check::CheckEvent;
use dynvote_topology::{Network, NetworkBuilder};
use dynvote_types::SiteId;

use crate::client::{request_deadline, Outcome};
use crate::replay::Fabric;
use crate::server::BOOT_EPOCH;
use crate::wire::Frame;
use fleet::{Fleet, FleetConfig};
use monitor::Monitor;
use schedule::FaultAction;
use workload::{Workload, WorkloadConfig};

/// Which topology the fleet runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One segment, fully connected: partitions are process faults only.
    Flat,
    /// The paper's Figure 8 network: segments `main={0..4}`,
    /// `second={5}`, `third={6,7}`, bridged through gateways 3 and 4 —
    /// the topology whose link cuts the topological protocols (TDV,
    /// OTDV) were designed for. Fixes the site count at 8.
    Figure8,
}

impl Topology {
    /// The canonical network, for partition enumeration.
    ///
    /// # Errors
    ///
    /// A site count incompatible with the topology.
    pub fn network(self, sites: usize) -> Result<Network, String> {
        match self {
            Topology::Flat => Ok(Network::single_segment(sites)),
            Topology::Figure8 => {
                if sites != 8 {
                    return Err(format!(
                        "--topology figure8 fixes --sites at 8, got {sites}"
                    ));
                }
                NetworkBuilder::new()
                    .segment("main", [0, 1, 2, 3, 4])
                    .segment("second", [5])
                    .segment("third", [6, 7])
                    .bridge(3, "second")
                    .bridge(4, "third")
                    .build()
                    .map_err(|e| format!("figure8 topology: {e}"))
            }
        }
    }

    /// The daemon's `--segments` flag value, if any.
    #[must_use]
    pub fn segments_flag(self) -> Option<String> {
        match self {
            Topology::Flat => None,
            Topology::Figure8 => Some("main=0,1,2,3,4;second=5;third=6,7".to_string()),
        }
    }

    /// The daemon's `--bridges` flag value, if any.
    #[must_use]
    pub fn bridges_flag(self) -> Option<String> {
        match self {
            Topology::Flat => None,
            Topology::Figure8 => Some("3=second;4=third".to_string()),
        }
    }

    /// The report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Topology::Flat => "flat",
            Topology::Figure8 => "figure8",
        }
    }
}

/// Everything a campaign run needs.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The schedule seed — the campaign's full identity.
    pub seed: u64,
    /// How long the fault schedule runs (cooldown comes after).
    pub duration: Duration,
    /// Cluster size (fixed at 8 by [`Topology::Figure8`]).
    pub sites: usize,
    /// Network shape.
    pub topology: Topology,
    /// Protocol policy name (`mcv|dv|ldv|odv|tdv|otdv`).
    pub policy: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Hard per-operation client deadline.
    pub op_deadline: Duration,
    /// Where daemon data dirs live; a fresh temp dir when `None`.
    pub data_root: Option<PathBuf>,
    /// Where to write `BENCH_faults.json`; skipped when `None`.
    pub out: Option<PathBuf>,
    /// Keep the data root even on success.
    pub keep_data: bool,
    /// Explicit `dynvote-stored` path; auto-resolved when `None`.
    pub stored_bin: Option<PathBuf>,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            duration: Duration::from_secs(60),
            sites: 5,
            topology: Topology::Flat,
            policy: "odv".to_string(),
            clients: 4,
            op_deadline: Duration::from_secs(3),
            data_root: None,
            out: None,
            keep_data: false,
            stored_bin: None,
            quiet: false,
        }
    }
}

/// What a finished campaign found.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Every invariant violation (empty = the campaign passed).
    pub violations: Vec<String>,
    /// The rendered `BENCH_faults.json` body.
    pub report_json: String,
    /// How many client operations ran.
    pub ops: usize,
    /// Where the per-site logs, data dirs, and failure dossier live —
    /// always kept when there were violations.
    pub artifacts: Option<PathBuf>,
}

/// Restarts `site`'s daemon from its data directory and gives its links
/// back.
fn restart(fleet: &mut Fleet, fabric: &mut Fabric, site: SiteId) -> Result<(), String> {
    fleet.spawn(site.index())?;
    fleet.wait_status(site.index(), Duration::from_secs(60))?;
    fabric.dead.remove(&site.index());
    fabric.reconcile()
}

/// Sends `frame` to `addr` until it is granted; returns the grant.
fn until_granted(addr: &str, frame: &Frame, within: Duration) -> Result<Outcome, String> {
    let deadline = Instant::now() + within;
    loop {
        match request_deadline(addr, frame, Duration::from_secs(8)) {
            Ok(outcome) if outcome.granted() => return Ok(outcome),
            _ if Instant::now() >= deadline => {
                return Err(format!("{addr}: {frame:?} never granted within {within:?}"));
            }
            _ => std::thread::sleep(Duration::from_millis(200)),
        }
    }
}

/// Drives `RECOVER` at every site until each has been granted once.
///
/// Round-robin, not site-by-site: a SIGKILLed coordinator leaves its
/// voters wedged on the dead poll's ticket (votes are durable, by
/// design — a lost vote could elect a phantom partition), and a wedged
/// site abstains from every poll but its *own* blank-slate RECOVER.
/// Insisting on one site first can therefore deadlock on a cluster
/// that is perfectly recoverable in another order.
fn recover_all(addrs: &[String], within: Duration) -> Result<(), String> {
    let deadline = Instant::now() + within;
    let mut pending: BTreeSet<usize> = (0..addrs.len()).collect();
    let recover = Frame::Recover.for_shard(0);
    while !pending.is_empty() {
        let mut progressed = false;
        for site in pending.clone() {
            if let Ok(Outcome::Done(_)) =
                request_deadline(&addrs[site], &recover, Duration::from_secs(10))
            {
                pending.remove(&site);
                progressed = true;
            }
        }
        if pending.is_empty() {
            break;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "RECOVER never granted at sites {pending:?} within {within:?}"
            ));
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(250));
        }
    }
    Ok(())
}

/// Runs one full campaign: boot, warm up, swing the nemesis for
/// `duration`, cool down, converge, check, report.
///
/// Invariant violations do *not* return `Err` — they come back in
/// [`CampaignOutcome::violations`] with the artifacts kept on disk.
/// `Err` means the harness itself failed (spawn failure, a daemon that
/// never came up, an unreachable fleet).
///
/// # Errors
///
/// Infrastructure failures only, described for humans.
pub fn run(config: &CampaignConfig) -> Result<CampaignOutcome, String> {
    let progress = |line: &str| {
        if !config.quiet {
            eprintln!("nemesis: {line}");
        }
    };
    let network = config.topology.network(config.sites)?;
    let partitions = network.segment_partitions();
    let schedule = schedule::generate(config.seed, config.sites, partitions.len(), config.duration);
    let tally = schedule.tally();
    progress(&format!(
        "seed {} on {} ({} sites, {} canonical partitions): {} faults scheduled \
         ({} kills, {} restarts, {} with disk faults, {} cuts, {} stalls)",
        config.seed,
        config.topology.label(),
        config.sites,
        partitions.len(),
        schedule.faults.len(),
        tally.kills,
        tally.restarts,
        tally.disk_faults,
        tally.partitions,
        tally.stalls,
    ));
    let stored_bin = match &config.stored_bin {
        Some(path) => path.clone(),
        None => fleet::default_stored_bin()?,
    };
    let data_root = config.data_root.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "dynvote-nemesis-{}-{}",
            config.seed,
            std::process::id()
        ))
    });
    std::fs::create_dir_all(&data_root).map_err(|e| format!("create {data_root:?}: {e}"))?;
    let mut fleet = Fleet::start(FleetConfig {
        stored_bin,
        ports: fleet::free_ports(config.sites),
        data_root: data_root.clone(),
        policy: config.policy.clone(),
        segments: config.topology.segments_flag(),
        bridges: config.topology.bridges_flag(),
        snapshot_every: 8,
    })?;
    for site in 0..config.sites {
        fleet.wait_status(site, Duration::from_secs(60))?;
    }
    // The file's first value, which every later read can fall back on.
    let initial = Frame::put_file(BOOT_EPOCH, 0, monitor::INITIAL_VALUE.as_bytes().to_vec());
    until_granted(&fleet.addr(0), &initial, Duration::from_secs(60))?;
    let mut fabric = Fabric::new(fleet.nodes(), Duration::from_secs(5), partitions);
    fabric.reconcile()?; // known-clean fabric
    progress("fleet up; starting monitor and workload");

    let addrs: Vec<String> = (0..config.sites).map(|s| fleet.addr(s)).collect();
    let monitor = Monitor::start(addrs.clone(), Duration::from_millis(250));
    let workload = Workload::start(
        addrs.clone(),
        WorkloadConfig {
            clients: config.clients,
            op_deadline: config.op_deadline,
            ..WorkloadConfig::default()
        },
        config.seed,
    );

    // ---- the fault schedule -------------------------------------------------
    let started = Instant::now();
    let mut harness_error = None;
    'faults: for fault in &schedule.faults {
        loop {
            let remaining = fault.at.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                break;
            }
            std::thread::sleep(remaining.min(Duration::from_millis(10)));
        }
        let applied: Result<String, String> = (|| match fault.action {
            FaultAction::Event(CheckEvent::Crash(site)) => {
                fleet.kill(site.index())?;
                fabric.dead.insert(site.index());
                fabric.reconcile()?;
                Ok("SIGKILLed".to_string())
            }
            FaultAction::Event(CheckEvent::Repair(site)) => {
                restart(&mut fleet, &mut fabric, site)?;
                Ok("restarted from disk (clean disk)".to_string())
            }
            FaultAction::Repair { site, disk } => {
                let note = fleet.apply_disk_fault(site.index(), &disk)?;
                restart(&mut fleet, &mut fabric, site)?;
                Ok(format!("restarted from disk ({note})"))
            }
            FaultAction::Event(CheckEvent::Partition(index)) => fabric.partition(index),
            FaultAction::Event(CheckEvent::Heal) => fabric.heal(),
            FaultAction::Event(op) => Err(format!("{op} is not a fault")),
            FaultAction::Stall(site) => {
                fabric.dark.insert(site.index());
                fabric.reconcile()?;
                Ok("links dark".to_string())
            }
            FaultAction::Unstall(site) => {
                fabric.dark.remove(&site.index());
                fabric.reconcile()?;
                Ok("links back".to_string())
            }
        })();
        match applied {
            Ok(note) => progress(&format!("{} — {note}", fault.render())),
            Err(error) => {
                harness_error = Some(format!("{}: {error}", fault.render()));
                break 'faults;
            }
        }
    }
    if harness_error.is_none() {
        while started.elapsed() < config.duration {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    // ---- cooldown and convergence ------------------------------------------
    progress("schedule done; cooling down (heal, restart, RECOVER, converge)");
    let records = workload.finish();
    let mut extra_violations = Vec::new();
    let cooldown: Result<Vec<(usize, u64, String)>, String> = (|| {
        if let Some(error) = harness_error {
            return Err(error);
        }
        fabric.dark.clear();
        for site in fabric.dead.clone() {
            restart(&mut fleet, &mut fabric, SiteId::new(site))?;
        }
        fabric.heal()?;
        recover_all(&addrs, Duration::from_secs(90))?;
        let mut finals = Vec::new();
        let read = Frame::get_file(BOOT_EPOCH, 0);
        for (site, addr) in addrs.iter().enumerate() {
            if let Outcome::Value { version, value } =
                until_granted(addr, &read, Duration::from_secs(60))?
            {
                finals.push((site, version, String::from_utf8_lossy(&value).into_owned()));
            }
        }
        Ok(finals)
    })();
    let monitor_report = monitor.finish();
    match &cooldown {
        Ok(finals) => {
            extra_violations.extend(monitor::convergence_violations(finals, &records));
        }
        Err(error) => {
            // A cluster that cannot converge after every fault is lifted
            // is itself a liveness violation, not just an infra error.
            extra_violations.push(format!("cooldown failed: {error}"));
        }
    }
    extra_violations.extend(monitor::lineage_violations(&records, config.op_deadline));
    fleet.shutdown();

    // ---- report and artifacts ----------------------------------------------
    let report_json = report::render(
        &schedule,
        config.topology.label(),
        &config.policy,
        &records,
        &monitor_report,
        &extra_violations,
    );
    if let Some(out) = &config.out {
        std::fs::write(out, &report_json).map_err(|e| format!("write {out:?}: {e}"))?;
    }
    let mut violations = monitor_report.violations;
    violations.extend(extra_violations);
    let artifacts = if violations.is_empty() && !config.keep_data {
        std::fs::remove_dir_all(&data_root).ok();
        None
    } else {
        if !violations.is_empty() {
            let dossier = format!(
                "dynvote-nemesis failure dossier\nreproduce: dynvote-nemesis campaign \
                 --seed {} --duration {}s --topology {} --sites {} --policy {}\n\n\
                 violations:\n{}\n\nschedule:\n{}",
                config.seed,
                config.duration.as_secs(),
                config.topology.label(),
                config.sites,
                config.policy,
                violations.join("\n"),
                schedule.render(),
            );
            std::fs::write(data_root.join("FAILURE.txt"), dossier).ok();
        }
        Some(data_root)
    };
    progress(&format!(
        "{} ops, {} violations",
        records.len(),
        violations.len()
    ));
    Ok(CampaignOutcome {
        violations,
        report_json,
        ops: records.len(),
        artifacts,
    })
}
