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
//!   which round-trips because every daemon keeps its state in its
//!   `--data-dir`: the checker's stable-storage assumption becomes a
//!   live assertion.
//! * `partition i` — install the `i`-th canonical segment partition of
//!   the scenario's network (the same enumeration order the checker
//!   uses), by denying every cross-group pair.
//! * `repair s` / `heal` — recomputed connectivity, below.
//! * `recover s` — `RECOVER` at `s` (Figure 3/7).
//! * `read s` / `write s` — a `GetKey`/`PutKey` of the file key at
//!   `s`; writes carry a monotone token so divergent histories are
//!   visible in the values, and a read before the first write reports
//!   the key absent.
//!
//! The checker's one replicated file is the file key
//! ([`FILE_KEY`](crate::wire::FILE_KEY)) of shard 0 of the fleet's
//! one-group map (daemons started without `--shards`), addressed to the
//! site the event names.
//!
//! After every topology event the driver *reconciles* its link fabric
//! (`Fabric`, which the nemesis campaign drives too): it derives the
//! full desired connectivity (dark sites × active partition) and
//! issues `heal-links` + `deny` to every live daemon, so events compose
//! idempotently instead of accumulating.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use dynvote_check::{CheckEvent, TraceFile};
use dynvote_replica::event::canonical_partition;
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

/// The link fabric of a live fleet: which daemons are dead or dark and
/// which canonical partition is in force. Both live drivers keep one —
/// counterexample replay and the fault campaign — and push every change
/// whole through [`Fabric::reconcile`], so topology events compose
/// idempotently instead of accumulating.
pub(crate) struct Fabric {
    nodes: Vec<(usize, String)>,
    timeout: Duration,
    /// The network's canonical segment partitions.
    partitions: Vec<Vec<SiteSet>>,
    /// Sites cut off from every peer: an isolated crash, a stalled
    /// daemon.
    pub(crate) dark: BTreeSet<usize>,
    /// Sites whose daemon is not running: they are sent no rules.
    pub(crate) dead: BTreeSet<usize>,
    /// The canonical partition in force, if any.
    cut: Option<usize>,
}

impl Fabric {
    pub(crate) fn new(
        nodes: Vec<(usize, String)>,
        timeout: Duration,
        partitions: Vec<Vec<SiteSet>>,
    ) -> Fabric {
        Fabric {
            nodes,
            timeout,
            partitions,
            dark: BTreeSet::new(),
            dead: BTreeSet::new(),
            cut: None,
        }
    }

    fn addr_of(&self, site: usize) -> Result<&str, String> {
        self.nodes
            .iter()
            .find(|(index, _)| *index == site)
            .map(|(_, addr)| addr.as_str())
            .ok_or_else(|| format!("no node entry for site {site}"))
    }

    fn send(&self, site: usize, frame: &Frame) -> Result<Outcome, String> {
        let addr = self.addr_of(site)?;
        request(addr, frame, self.timeout).map_err(|e| format!("S{site} ({addr}): {e}"))
    }

    /// The index of `site`'s group under the cut in force.
    fn group_of(&self, site: usize) -> usize {
        match self.cut {
            Some(cut) => self.partitions[cut]
                .iter()
                .position(|g| g.contains(SiteId::new(site)))
                .unwrap_or(usize::MAX),
            None => 0,
        }
    }

    /// Whether `a` and `b` should currently be able to talk.
    fn connected(&self, a: usize, b: usize) -> bool {
        !self.dark.contains(&a) && !self.dark.contains(&b) && self.group_of(a) == self.group_of(b)
    }

    /// Installs canonical partition `index` and describes the cut.
    ///
    /// # Errors
    ///
    /// `index` is out of range, or a daemon refused the rules.
    pub(crate) fn partition(&mut self, index: usize) -> Result<String, String> {
        let groups: Vec<String> = canonical_partition(&self.partitions, index)?
            .iter()
            .map(|g| {
                let sites: Vec<String> = g.iter().map(|s| s.index().to_string()).collect();
                format!("{{{}}}", sites.join(","))
            })
            .collect();
        self.cut = Some(index);
        self.reconcile()?;
        Ok(format!("cut into {}", groups.join(" | ")))
    }

    /// Removes the cut in force.
    ///
    /// # Errors
    ///
    /// A daemon refused the rules.
    pub(crate) fn heal(&mut self) -> Result<String, String> {
        self.cut = None;
        self.reconcile()?;
        Ok("healed".to_string())
    }

    /// Pushes the full desired connectivity onto every live daemon: each
    /// site gets `heal-links` followed by one `deny` per peer it should
    /// not reach. Dead daemons receive nothing.
    ///
    /// # Errors
    ///
    /// A daemon that should be alive did not accept the rules.
    pub(crate) fn reconcile(&self) -> Result<(), String> {
        for (site, _) in &self.nodes {
            if self.dead.contains(site) {
                continue; // the process is dead — nothing to configure
            }
            self.send(*site, &Frame::HealLinks)?;
            for (peer, _) in &self.nodes {
                if peer != site && !self.connected(*site, *peer) {
                    self.send(
                        *site,
                        &Frame::Deny {
                            site: SiteId::new(*peer),
                        },
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Polls a restarted daemon until it answers `status` again (it may
/// still be retrying its listen bind or replaying its WAL).
fn wait_up(fabric: &Fabric, site: usize) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while fabric.send(site, &Frame::Status).is_err() {
        if Instant::now() >= deadline {
            return Err(format!("S{site} never answered status after restart"));
        }
        std::thread::sleep(Duration::from_millis(200));
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
    let mut fabric = Fabric::new(
        nodes.to_vec(),
        timeout,
        trace.scenario.network().segment_partitions(),
    );
    // Start from a known-clean fabric.
    fabric.reconcile()?;
    let epoch = crate::router::fetch_map(fabric.addr_of(0)?, timeout)?.epoch;
    let mut steps = Vec::new();
    let mut write_token = 0u64;
    for event in &trace.events {
        let outcome = match *event {
            CheckEvent::Crash(site) => {
                let site = site.index();
                fabric.dark.insert(site);
                if let Some(cmd) = crash_cmd {
                    run_fault_cmd(cmd, "crash", site)?;
                    fabric.dead.insert(site);
                    fabric.reconcile()?;
                    "killed (real process fault via --crash-cmd)".to_string()
                } else {
                    fabric.reconcile()?;
                    "isolated (live shadow of fail-stop)".to_string()
                }
            }
            CheckEvent::Repair(site) => {
                let site = site.index();
                fabric.dark.remove(&site);
                if let Some(cmd) = crash_cmd {
                    run_fault_cmd(cmd, "restart", site)?;
                    fabric.dead.remove(&site);
                    wait_up(&fabric, site)?;
                    fabric.reconcile()?;
                    "restarted from disk".to_string()
                } else {
                    fabric.reconcile()?;
                    "reconnected".to_string()
                }
            }
            CheckEvent::Partition(index) => fabric.partition(index)?,
            CheckEvent::Heal => fabric.heal()?,
            CheckEvent::Recover(site) => {
                describe(&fabric.send(site.index(), &Frame::Recover.for_shard(0))?)
            }
            CheckEvent::Read(site) => {
                describe(&fabric.send(site.index(), &Frame::get_file(epoch, 0))?)
            }
            CheckEvent::Write(site) => {
                write_token += 1;
                let value = format!("w{write_token}").into_bytes();
                describe(&fabric.send(site.index(), &Frame::put_file(epoch, 0, value))?)
            }
        };
        steps.push(ReplayStep {
            event: event.to_string(),
            outcome,
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Connectivity is dark sites × the cut in force; with no nodes,
    /// reconciling pushes nothing.
    #[test]
    fn fabric_cuts_off_dark_sites_and_other_groups() {
        let partitions = vec![
            vec![SiteSet::from_indices([0, 1, 2])],
            vec![SiteSet::from_indices([0, 1]), SiteSet::from_indices([2])],
        ];
        let mut fabric = Fabric::new(Vec::new(), Duration::from_secs(1), partitions);
        assert!(fabric.connected(0, 2));
        fabric.dark.insert(1);
        assert!(!fabric.connected(0, 1) && !fabric.connected(1, 2));
        assert!(fabric.connected(0, 2));
        assert_eq!(fabric.partition(1).unwrap(), "cut into {0,1} | {2}");
        assert!(!fabric.connected(0, 2));
        let error = fabric.partition(2).unwrap_err();
        assert!(error.contains("out of range"), "{error}");
        fabric.heal().unwrap();
        assert!(fabric.connected(0, 2));
    }
}
