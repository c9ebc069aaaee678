//! `dynvote-ctl replay`: drive a *live* cluster through a minimized
//! checker counterexample.
//!
//! The model checker (`dynvote-check`) emits its shrunk traces in the
//! text format of [`TraceFile`] — the corpus lives in `tests/traces/`.
//! This module maps each [`CheckEvent`] onto the real cluster's only
//! fault surface, the link rules:
//!
//! * `crash s` — by default, isolate `s`: every other daemon denies
//!   `s`, and `s` denies everyone. The daemon stays up (a live process
//!   cannot be "crashed" politely) but is unreachable — the
//!   network-level shadow of the checker's fail-stop, and its state
//!   survives to the repair exactly as the checker's does. With
//!   [`ReplayOptions::crash_cmd`] set, the event instead runs a real
//!   process fault: `sh -c "CMD crash s"` (expected to `kill -9` the
//!   site's daemon) and, on `repair s`, `sh -c "CMD restart s"` —
//!   which only round-trips when the daemons persist with `--data-dir`,
//!   making the checker's stable-storage assumption a live assertion.
//! * `partition i` — install the `i`-th canonical segment partition of
//!   the scenario's network (the same enumeration order the checker
//!   uses), by denying every cross-group pair.
//! * `repair s` / `heal` — recomputed connectivity, below.
//! * `recover s` — `RECOVER` at `s` (Figure 3/7).
//! * `read s` / `write s` — `GET`/`PUT` at `s`; writes carry a
//!   monotone token so divergent histories are visible in the values.
//!
//! The checker's one replicated file is shard 0 of the fleet's
//! one-group map (daemons started without `--shards`).
//!
//! After every topology event the driver *reconciles*: it derives the
//! full desired connectivity (crashed set × active partition) and
//! issues `heal-links` + `deny` to every daemon, so events compose
//! idempotently instead of accumulating.

use std::collections::BTreeSet;
use std::time::Duration;

use dynvote_check::{CheckEvent, TraceFile};
use dynvote_types::{SiteId, SiteSet};

use crate::client::{request, Outcome};
use crate::wire::Frame;

/// One replayed step: the event and what the live cluster said.
#[derive(Clone, Debug)]
pub struct ReplayStep {
    /// The event, rendered as in the trace file.
    pub event: String,
    /// The live outcome ("granted …", "refused …", or a topology note).
    pub outcome: String,
}

/// How `crash`/`repair` events map onto the live cluster.
#[derive(Clone, Debug, Default)]
pub struct ReplayOptions {
    /// Shell hook for real process faults: invoked as
    /// `sh -c "CMD crash S"` when site `S` crashes and
    /// `sh -c "CMD restart S"` when it is repaired. `None` falls back
    /// to link-level isolation (the daemons stay up).
    pub crash_cmd: Option<String>,
}

struct Driver<'a> {
    nodes: &'a [(usize, String)],
    timeout: Duration,
    crashed: BTreeSet<usize>,
    /// The active canonical partition (groups of sites), if any.
    groups: Option<Vec<SiteSet>>,
    /// When crashes are real `kill -9`s, dead daemons cannot be sent
    /// link rules — reconcile skips them.
    kill_mode: bool,
}

impl Driver<'_> {
    fn addr_of(&self, site: usize) -> Result<&str, String> {
        self.nodes
            .iter()
            .find(|(index, _)| *index == site)
            .map(|(_, addr)| addr.as_str())
            .ok_or_else(|| format!("no --nodes entry for site {site}"))
    }

    fn send(&self, site: usize, frame: &Frame) -> Result<Outcome, String> {
        let addr = self.addr_of(site)?;
        request(addr, frame, self.timeout).map_err(|e| format!("S{site} ({addr}): {e}"))
    }

    fn group_index(&self, site: usize) -> usize {
        match &self.groups {
            Some(groups) => groups
                .iter()
                .position(|g| g.contains(SiteId::new(site)))
                .unwrap_or(usize::MAX),
            None => 0,
        }
    }

    /// Whether `a` and `b` should currently be able to talk.
    fn connected(&self, a: usize, b: usize) -> bool {
        !self.crashed.contains(&a)
            && !self.crashed.contains(&b)
            && self.group_index(a) == self.group_index(b)
    }

    /// Polls a restarted daemon until it answers `status` again (it may
    /// still be retrying its listen bind or replaying its WAL).
    fn wait_up(&self, site: usize) -> Result<(), String> {
        let addr = self.addr_of(site)?;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if request(addr, &Frame::Status, self.timeout).is_ok() {
                return Ok(());
            }
            if std::time::Instant::now() >= deadline {
                return Err(format!(
                    "S{site} ({addr}) never answered status after restart"
                ));
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
    }

    /// Pushes the full desired connectivity to every daemon.
    fn reconcile(&self) -> Result<(), String> {
        let skip: Vec<usize> = if self.kill_mode {
            self.crashed.iter().copied().collect()
        } else {
            Vec::new()
        };
        push_link_rules(self.nodes, &skip, self.timeout, &|a, b| {
            self.connected(a, b)
        })
    }
}

/// Pushes a full desired connectivity onto every live daemon: each site
/// gets `heal-links` followed by one `deny` per pair the `connected`
/// predicate rules out, so topology events compose idempotently instead
/// of accumulating. Sites in `skip` (dead processes) receive nothing.
///
/// Shared between counterexample replay and the live fault campaign —
/// both drive the same fabric, they just compute connectivity
/// differently (replay: crash set × canonical partition; campaign:
/// additionally, stalled sites).
///
/// # Errors
///
/// A daemon that should be alive did not accept the rules.
pub(crate) fn push_link_rules(
    nodes: &[(usize, String)],
    skip: &[usize],
    timeout: Duration,
    connected: &dyn Fn(usize, usize) -> bool,
) -> Result<(), String> {
    let addr_of = |site: usize| -> Result<&str, String> {
        nodes
            .iter()
            .find(|(index, _)| *index == site)
            .map(|(_, addr)| addr.as_str())
            .ok_or_else(|| format!("no node entry for site {site}"))
    };
    for (site, _) in nodes {
        if skip.contains(site) {
            continue; // the process is dead — nothing to configure
        }
        let addr = addr_of(*site)?;
        let send = |frame: &Frame| -> Result<Outcome, String> {
            request(addr, frame, timeout).map_err(|e| format!("S{site} ({addr}): {e}"))
        };
        send(&Frame::HealLinks)?;
        for (peer, _) in nodes {
            if peer == site || connected(*site, *peer) {
                continue;
            }
            send(&Frame::Deny {
                site: SiteId::new(*peer),
            })?;
        }
    }
    Ok(())
}

fn describe(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Done(detail) => format!("granted: {detail}"),
        Outcome::Value { version, value } => format!(
            "granted: v={version} value={:?}",
            String::from_utf8_lossy(value)
        ),
        Outcome::Refused(message) => format!("refused: {message}"),
        Outcome::Unavailable { reason, message } => {
            format!("unavailable ({reason}): {message}")
        }
        Outcome::Report(_) => "report".to_string(),
        Outcome::ShardMap(_) => "shard map".to_string(),
        Outcome::Stale { epoch } => format!("stale shard map (daemon epoch {epoch})"),
    }
}

/// Replays a parsed trace against live daemons.
///
/// `nodes` maps each scenario site index to a daemon address and must
/// cover `0..scenario.sites`. The daemons are expected to already run
/// the trace's policy on the scenario's canonical topology (the
/// `dynvote-ctl replay` command prints the matching `--segments`
/// description before driving).
///
/// # Errors
///
/// A missing node mapping, an unreachable daemon, or a partition index
/// outside the scenario's canonical enumeration.
pub fn run(
    trace: &TraceFile,
    nodes: &[(usize, String)],
    timeout: Duration,
) -> Result<Vec<ReplayStep>, String> {
    run_with(trace, nodes, timeout, &ReplayOptions::default())
}

/// Runs the fault-mapping shell hook for one site.
fn run_fault_cmd(cmd: &str, action: &str, site: usize) -> Result<(), String> {
    let full = format!("{cmd} {action} {site}");
    let status = std::process::Command::new("sh")
        .arg("-c")
        .arg(&full)
        .status()
        .map_err(|e| format!("--crash-cmd: cannot spawn sh for {full:?}: {e}"))?;
    if !status.success() {
        return Err(format!("--crash-cmd: {full:?} exited with {status}"));
    }
    Ok(())
}

/// [`run`], with [`ReplayOptions`] selecting how crash events land on
/// the cluster (link isolation vs. real `kill -9` + restart-from-disk).
///
/// # Errors
///
/// Everything [`run`] reports, plus a failing `crash_cmd` invocation or
/// a restarted daemon that never answers `status` again.
pub fn run_with(
    trace: &TraceFile,
    nodes: &[(usize, String)],
    timeout: Duration,
    options: &ReplayOptions,
) -> Result<Vec<ReplayStep>, String> {
    for site in 0..trace.scenario.sites {
        if !nodes.iter().any(|(index, _)| *index == site) {
            return Err(format!(
                "trace needs sites 0..{} but --nodes has no entry for {site}",
                trace.scenario.sites
            ));
        }
    }
    let crash_cmd = options.crash_cmd.as_deref();
    let partitions = trace.scenario.network().segment_partitions();
    let mut driver = Driver {
        nodes,
        timeout,
        crashed: BTreeSet::new(),
        groups: None,
        kill_mode: crash_cmd.is_some(),
    };
    // Start from a known-clean fabric.
    driver.reconcile()?;
    let mut steps = Vec::new();
    let mut write_token = 0u64;
    for event in &trace.events {
        let outcome = match event {
            CheckEvent::Crash(site) => {
                driver.crashed.insert(site.index());
                if let Some(cmd) = crash_cmd {
                    run_fault_cmd(cmd, "crash", site.index())?;
                    driver.reconcile()?;
                    "killed (real process fault via --crash-cmd)".to_string()
                } else {
                    driver.reconcile()?;
                    "isolated (live shadow of fail-stop)".to_string()
                }
            }
            CheckEvent::Repair(site) => {
                driver.crashed.remove(&site.index());
                if let Some(cmd) = crash_cmd {
                    run_fault_cmd(cmd, "restart", site.index())?;
                    driver.wait_up(site.index())?;
                    driver.reconcile()?;
                    "restarted from disk".to_string()
                } else {
                    driver.reconcile()?;
                    "reconnected".to_string()
                }
            }
            CheckEvent::Partition(index) => {
                let groups = partitions.get(*index).ok_or_else(|| {
                    format!(
                        "partition {index} out of range ({} canonical partitions)",
                        partitions.len()
                    )
                })?;
                driver.groups = Some(groups.clone());
                driver.reconcile()?;
                let rendered: Vec<String> = groups
                    .iter()
                    .map(|g| {
                        let sites: Vec<String> = g.iter().map(|s| s.index().to_string()).collect();
                        format!("{{{}}}", sites.join(","))
                    })
                    .collect();
                format!("cut into {}", rendered.join(" | "))
            }
            CheckEvent::Heal => {
                driver.groups = None;
                driver.reconcile()?;
                "healed".to_string()
            }
            CheckEvent::Recover(site) => {
                describe(&driver.send(site.index(), &Frame::Recover.for_shard(0))?)
            }
            CheckEvent::Read(site) => {
                describe(&driver.send(site.index(), &Frame::Get.for_shard(0))?)
            }
            CheckEvent::Write(site) => {
                write_token += 1;
                let value = format!("w{write_token}").into_bytes();
                describe(&driver.send(site.index(), &Frame::Put { value }.for_shard(0))?)
            }
        };
        steps.push(ReplayStep {
            event: event.to_string(),
            outcome,
        });
    }
    Ok(steps)
}
