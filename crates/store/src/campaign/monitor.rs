//! The online invariant monitor: live analogues of the model checker's
//! invariants, held against a real cluster while the nemesis swings.
//!
//! * **Monotone `⟨o, v⟩` per site** — polled from the fleet's one
//!   group's `status` (shard 0 of a one-group map). The state
//!   is durable and fsync'd before every acknowledgement, so a site's
//!   `(op, version)` pair must never move backward, *including across a
//!   `kill -9` and restart-from-disk* (the poll thread keeps one
//!   high-water mark per site across process generations).
//! * **At most one majority** — detected through write-token lineage:
//!   write values are globally unique tokens, and every grant reports
//!   the committed `⟨o, v⟩`. Two concurrent majorities both extend the
//!   same prefix, so they mint the *same* `⟨o, v⟩` for *different*
//!   tokens — exactly the collision [`lineage_violations`] looks for.
//! * **Reads serve real data** — a granted read's value must be a
//!   token some client actually wrote (or the initial value the fleet
//!   writes once after boot).
//! * **Committed-write durability** — after the cooldown (heal,
//!   restart, RECOVER everywhere), every site must serve one agreed
//!   value whose version dominates every granted write
//!   ([`convergence_violations`]).
//! * **No client hangs** — every operation record must have resolved
//!   within its deadline plus scheduling grace.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::workload::{OpRecord, OpResult};
use crate::client::{request_deadline, Outcome};
use crate::wire::Frame;

/// The file's first value, written once after the fleet boots.
pub const INITIAL_VALUE: &str = "v0";

/// Parses a `status` report body (`key=value` lines) into a map.
#[must_use]
pub fn parse_status(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| {
            line.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

/// What the poll thread found.
#[derive(Clone, Debug, Default)]
pub struct MonitorReport {
    /// Successful status polls, across all sites.
    pub polls: u64,
    /// Commit deltas the sites applied, summed over every process
    /// generation (`delta.installed`; a lower bound, since what a site
    /// applied after its last poll before a kill is not seen).
    pub delta_installs: u64,
    /// Invariant violations, rendered for humans.
    pub violations: Vec<String>,
}

/// The running poll thread.
pub struct Monitor {
    handle: std::thread::JoinHandle<MonitorReport>,
    stop: Arc<AtomicBool>,
}

impl Monitor {
    /// Starts polling every address (index = site) at `interval`.
    #[must_use]
    pub fn start(addrs: Vec<String>, interval: Duration) -> Monitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || poll_loop(&addrs, interval, &flag));
        Monitor { handle, stop }
    }

    /// Stops polling and returns the findings.
    #[must_use]
    pub fn finish(self) -> MonitorReport {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("monitor thread panicked")
    }
}

fn poll_loop(addrs: &[String], interval: Duration, stop: &AtomicBool) -> MonitorReport {
    let mut report = MonitorReport::default();
    // Highest (op, version) ever observed per site — survives the
    // site's own restarts, which is the point.
    let mut high_water: Vec<Option<(u64, u64)>> = vec![None; addrs.len()];
    // The last `delta.installed` seen per site; it restarts at 0 with
    // the process.
    let mut installs = vec![0u64; addrs.len()];
    let status = Frame::Status.for_shard(0);
    while !stop.load(Ordering::SeqCst) {
        for (site, addr) in addrs.iter().enumerate() {
            let Ok(Outcome::Report(text)) =
                request_deadline(addr, &status, Duration::from_millis(800))
            else {
                continue; // dead or stalled right now — not a violation
            };
            let status = parse_status(&text);
            if status.contains_key("busy") {
                // Alive, but a quorum round holds the cluster lock —
                // no state to sample this tick. Not a violation.
                continue;
            }
            report.polls += 1;
            let parse = |key: &str| status.get(key).and_then(|v| v.parse::<u64>().ok());
            let (Some(op), Some(version)) = (parse("op"), parse("version")) else {
                report.violations.push(format!(
                    "site {site}: status report lacks op/version:\n{text}"
                ));
                continue;
            };
            if let Some(now) = parse("delta.installed") {
                report.delta_installs += now.checked_sub(installs[site]).unwrap_or(now);
                installs[site] = now;
            }
            let seen = (op, version);
            if let Some(mark) = high_water[site] {
                if seen < mark {
                    report.violations.push(format!(
                        "site {site}: ⟨o,v⟩ moved backward: had {mark:?}, now {seen:?} — \
                         durable state regressed across a restart"
                    ));
                }
            }
            if high_water[site].is_none_or(|mark| seen > mark) {
                high_water[site] = Some(seen);
            }
        }
        std::thread::sleep(interval);
    }
    report
}

/// Offline lineage checks over the finished workload's records.
///
/// `op_deadline` is the per-operation deadline the workload ran with;
/// an op that took longer than `op_deadline + grace` counts as a client
/// hang (the hardened client's central promise broken).
#[must_use]
pub fn lineage_violations(records: &[OpRecord], op_deadline: Duration) -> Vec<String> {
    let mut violations = Vec::new();
    let grace = Duration::from_secs(2);
    // ⟨o,v⟩ -> token, from granted writes.
    let mut committed: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let issued: std::collections::BTreeSet<String> = records
        .iter()
        .filter_map(|r| r.token.map(|n| format!("w{n}")))
        .collect();
    for record in records {
        if record.latency > op_deadline + grace {
            violations.push(format!(
                "client hang: op at {:?} on site {} took {:?} (deadline {:?})",
                record.at, record.site, record.latency, op_deadline
            ));
        }
        if let OpResult::Protocol(detail) = &record.result {
            violations.push(format!(
                "protocol error at {:?} on site {}: {detail}",
                record.at, record.site
            ));
        }
        if record.result != OpResult::Granted {
            continue;
        }
        if record.is_write {
            let (Some(token), Some(commit)) = (record.token, record.commit) else {
                violations.push(format!(
                    "granted write at {:?} on site {} reported no ⟨o,v⟩",
                    record.at, record.site
                ));
                continue;
            };
            if let Some(previous) = committed.insert(commit, token) {
                if previous != token {
                    violations.push(format!(
                        "at-most-one-majority violated: ⟨o,v⟩={commit:?} granted to both \
                         w{previous} and w{token} — two partitions committed concurrently"
                    ));
                }
            }
        } else if let Some(value) = &record.read_value {
            if value != INITIAL_VALUE && !issued.contains(value) {
                violations.push(format!(
                    "read at {:?} on site {} served {value:?}, which no client ever wrote",
                    record.at, record.site
                ));
            }
        }
    }
    violations
}

/// Checks the post-cooldown convergence: every site's final granted
/// read, as `(site, version, value)` triples.
#[must_use]
pub fn convergence_violations(
    final_reads: &[(usize, u64, String)],
    records: &[OpRecord],
) -> Vec<String> {
    let mut violations = Vec::new();
    let Some((_, first_version, first_value)) = final_reads.first() else {
        violations.push("convergence: no site answered the final read".to_string());
        return violations;
    };
    for (site, version, value) in final_reads {
        if version != first_version || value != first_value {
            violations.push(format!(
                "convergence: site {site} serves v={version} {value:?} but site {} \
                 serves v={first_version} {first_value:?}",
                final_reads[0].0
            ));
        }
    }
    let max_granted = records
        .iter()
        .filter(|r| r.is_write && r.result == OpResult::Granted)
        .filter_map(|r| r.commit.map(|(_, v)| v))
        .max();
    if let Some(max_granted) = max_granted {
        if *first_version < max_granted {
            violations.push(format!(
                "durability: final version {first_version} is below granted write \
                 version {max_granted} — an acknowledged write was lost"
            ));
        }
    }
    let issued: std::collections::BTreeSet<String> = records
        .iter()
        .filter_map(|r| r.token.map(|n| format!("w{n}")))
        .collect();
    if first_value != INITIAL_VALUE && !issued.contains(first_value) {
        violations.push(format!(
            "convergence: final value {first_value:?} was never written by any client"
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(at_ms: u64, token: u64, commit: (u64, u64)) -> OpRecord {
        OpRecord {
            at: Duration::from_millis(at_ms),
            site: 0,
            is_write: true,
            token: Some(token),
            commit: Some(commit),
            read_value: None,
            result: OpResult::Granted,
            latency: Duration::from_millis(5),
        }
    }

    #[test]
    fn split_brain_shows_up_as_an_ov_collision() {
        let records = vec![write(10, 1, (2, 5)), write(20, 2, (2, 5))];
        let violations = lineage_violations(&records, Duration::from_secs(3));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("at-most-one-majority"));
    }

    #[test]
    fn same_token_recommitting_is_not_a_collision() {
        // A retried write may commit twice under different versions —
        // and the same ⟨o,v⟩ reported twice for the SAME token is not
        // a split brain either.
        let records = vec![write(10, 1, (2, 5)), write(20, 1, (2, 5))];
        assert!(lineage_violations(&records, Duration::from_secs(3)).is_empty());
    }

    #[test]
    fn phantom_reads_and_hangs_are_flagged() {
        let mut read = write(30, 3, (2, 6));
        read.is_write = false;
        read.token = None;
        read.read_value = Some("never-written".to_string());
        let mut slow = write(40, 4, (2, 7));
        slow.latency = Duration::from_secs(30);
        let violations = lineage_violations(&[read, slow], Duration::from_secs(3));
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("never-written")));
        assert!(violations.iter().any(|v| v.contains("client hang")));
    }

    #[test]
    fn lost_write_fails_convergence() {
        let records = vec![write(10, 1, (1, 4))];
        let finals = vec![(0, 3, "w9".to_string()), (1, 3, "w9".to_string())];
        let violations = convergence_violations(&finals, &records);
        assert!(
            violations.iter().any(|v| v.contains("durability")),
            "{violations:?}"
        );
    }

    #[test]
    fn agreeing_sites_pass_convergence() {
        let records = vec![write(10, 1, (1, 4))];
        let finals = vec![(0, 4, "w1".to_string()), (1, 4, "w1".to_string())];
        assert!(convergence_violations(&finals, &records).is_empty());
    }

    #[test]
    fn status_parser_reads_key_values() {
        let map = parse_status("site=3\nop=2\nversion=17\n");
        assert_eq!(map.get("op").map(String::as_str), Some("2"));
        assert_eq!(map.get("version").map(String::as_str), Some("17"));
    }
}
