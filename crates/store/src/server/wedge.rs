//! The wedge probe: while a site holds an outstanding vote, it
//! periodically asks the ticket's coordinator what became of it (see
//! `crate::probe` for the soundness argument). Without this pull path a
//! single lost `RELEASE` or `COMMIT` frame wedges the site forever.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dynvote_replica::wal::WalRecord;
use dynvote_types::SiteSet;

use super::peer::install_commit;
use super::{sync_durable, Daemon, StoreCluster};
use crate::client::{exchange, Deadline};
use crate::probe::{coordinator_of, epoch_of, ProbeAnswer};
use crate::wire::Frame;

/// How often a wedged site probes its coordinator.
const WEDGE_PROBE_INTERVAL: Duration = Duration::from_millis(400);

/// Per-probe reply deadline (resolve + connect + exchange).
const WEDGE_PROBE_DEADLINE: Duration = Duration::from_millis(1500);

/// Whether `ticket` was issued by a dead incarnation of this daemon
/// *and* sits above the commit-point high-water mark its log left,
/// raised to the fence epoch's floor — the two facts that together
/// prove the ticket never reached a commit point, so every vote for it
/// is non-binding.
pub(super) fn dead_and_unfenced(daemon: &Daemon, ticket: u64) -> bool {
    coordinator_of(ticket) == daemon.local.index()
        && match (daemon.boot_epoch, daemon.boot_fence) {
            (Some(epoch), Some(fence)) => epoch_of(ticket) < epoch && ticket > fence,
            _ => false,
        }
}

/// Persists and logs a wedge resolution (the cluster lock is held).
fn note_probe_resolution(daemon: &Daemon, cluster: &StoreCluster, ticket: u64, what: &str) {
    if let Err(error) = sync_durable(daemon, cluster) {
        daemon.log.log(&format!(
            "wedge probe ticket={ticket}: durability failure: {error}"
        ));
    }
    daemon
        .log
        .log(&format!("wedge probe: ticket={ticket} {what}"));
}

/// Resolves the local wedge on `ticket` with the commit that closed
/// it, if the site is still wedged on exactly that ticket.
fn resolve_by_commit(daemon: &Daemon, ticket: u64, commit: WalRecord, what: &str) {
    let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
    // Re-check under the lock: only the exact wedge the probe was sent
    // for may be resolved by its reply.
    if cluster.pending_at(daemon.local) != Some(ticket) {
        return;
    }
    if install_commit(daemon, &mut cluster, daemon.local, ticket, commit) {
        note_probe_resolution(daemon, &cluster, ticket, what);
        daemon.probe_commits.fetch_add(1, Ordering::Relaxed);
    }
}

/// The wedge-probe loop: while this site holds an outstanding vote,
/// periodically asks the ticket's coordinator what became of it (see
/// `crate::probe` for the soundness argument). Without this pull path
/// a single lost `RELEASE` or `COMMIT` frame wedges the site forever.
pub(super) fn wedge_probe_loop(daemon: &Arc<Daemon>, shutdown: &AtomicBool) {
    loop {
        std::thread::sleep(WEDGE_PROBE_INTERVAL);
        if shutdown.load(Ordering::SeqCst) || daemon.retired.load(Ordering::SeqCst) != 0 {
            return;
        }
        let pending = {
            let cluster = daemon.cluster.lock().expect("cluster poisoned");
            cluster.pending_at(daemon.local)
        };
        let Some(ticket) = pending else { continue };
        let coordinator = coordinator_of(ticket);
        if coordinator == daemon.local.index() {
            // Wedged on a ticket of a dead incarnation of *ourselves*.
            // The rebuilt ledger or the high-water rule resolves it
            // locally, no network needed. The ledger guard is dropped before the
            // cluster lock is taken — the transport locks in the
            // opposite order.
            let answer = {
                daemon
                    .ledger
                    .lock()
                    .expect("op ledger poisoned")
                    .answer(ticket, daemon.local)
            };
            match answer {
                ProbeAnswer::Commit(commit) => {
                    resolve_by_commit(daemon, ticket, commit, "own ledgered COMMIT applied");
                }
                ProbeAnswer::Release(keep) if !keep.contains(daemon.local) => {
                    let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
                    if cluster.pending_at(daemon.local) == Some(ticket) {
                        cluster.local_release(ticket, keep);
                        note_probe_resolution(
                            daemon,
                            &cluster,
                            ticket,
                            "self-released (own ledgered release)",
                        );
                        daemon.probe_released.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    if dead_and_unfenced(daemon, ticket) {
                        let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
                        if cluster.pending_at(daemon.local) == Some(ticket) {
                            cluster.local_release(ticket, SiteSet::EMPTY);
                            note_probe_resolution(
                                daemon,
                                &cluster,
                                ticket,
                                "self-released (dead own epoch, above high water)",
                            );
                            daemon.probe_released.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            continue;
        }
        let Some((to, addr)) = daemon
            .peers
            .iter()
            .find(|(site, _)| site.index() == coordinator)
            .cloned()
        else {
            continue;
        };
        if daemon.links.is_blocked(to) {
            // The partition surface applies to probes too.
            continue;
        }
        // The probe must reach the peer's *matching* shard daemon (each
        // shard has its own operation ledger).
        let probe = Frame::VoteProbe {
            ticket,
            from: daemon.local,
            to,
        }
        .for_shard(daemon.shard);
        match exchange(&addr, &probe, &Deadline::within(WEDGE_PROBE_DEADLINE)) {
            Ok(Frame::Release {
                ticket: answered,
                keep,
                ..
            }) if answered == ticket && !keep.contains(daemon.local) => {
                let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
                if cluster.pending_at(daemon.local) == Some(ticket) {
                    cluster.local_release(ticket, keep);
                    note_probe_resolution(daemon, &cluster, ticket, "released by coordinator");
                    daemon.probe_released.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(Frame::Commit {
                ticket: answered,
                state,
                value,
                ..
            }) if answered == ticket => {
                let commit = WalRecord::Commit { state, value };
                resolve_by_commit(daemon, ticket, commit, "late COMMIT applied");
            }
            Ok(Frame::CommitDelta {
                ticket: answered,
                state,
                base,
                puts,
                ..
            }) if answered == ticket => {
                let commit = WalRecord::Delta {
                    state,
                    base,
                    delta: puts,
                };
                resolve_by_commit(daemon, ticket, commit, "late COMMIT (delta) applied");
            }
            _ => {}
        }
    }
}
