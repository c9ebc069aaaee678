//! Wedge resolution: the one rule that says what became of a ticket
//! ([`fate`]), and the wedge probe that applies it. While a site holds
//! an outstanding vote, it periodically asks the ticket's coordinator
//! what became of it (see `crate::probe` for the soundness argument).
//! Without this pull path a single lost `RELEASE` or `COMMIT` frame
//! wedges the site forever.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use dynvote_types::{SiteId, SiteSet};

use super::peer::install_commit;
use super::{sync_durable, Daemon, Stop};
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
fn dead_and_unfenced(daemon: &Daemon, ticket: u64) -> bool {
    coordinator_of(ticket) == daemon.local.index()
        && epoch_of(ticket) < daemon.boot_epoch
        && ticket > daemon.boot_fence
}

/// What became of `ticket`, as this daemon — its coordinator — answers
/// `prober`: the one rule behind every vote probe it answers and every
/// wedge on a ticket of its own. The ledger's answer; for a ticket the
/// ledger cannot place, a release of every vote when a dead incarnation
/// issued it above the fence.
///
/// Takes the ledger lock and drops it before returning: a caller that
/// goes on to take the cluster lock keeps the transport's order, which
/// takes the ledger under the cluster lock.
pub(super) fn fate(daemon: &Daemon, ticket: u64, prober: SiteId) -> ProbeAnswer {
    let answer = daemon
        .ledger
        .lock()
        .expect("op ledger poisoned")
        .answer(ticket, prober);
    match answer {
        ProbeAnswer::Unknown if dead_and_unfenced(daemon, ticket) => {
            ProbeAnswer::Release(SiteSet::EMPTY)
        }
        answer => answer,
    }
}

/// Applies `answer`, what became of `ticket`, to this site's wedge:
/// installs the commit or releases the vote, syncs, logs and counts.
/// Only the exact wedge the answer is about may be resolved by it, and
/// installing a commit does not check that, so the site must still be
/// wedged on `ticket` under the cluster lock.
fn resolve(daemon: &Daemon, ticket: u64, answer: ProbeAnswer) {
    if matches!(answer, ProbeAnswer::Unknown) {
        return;
    }
    let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
    if cluster.pending_at(daemon.local) != Some(ticket) {
        return;
    }
    let (what, count) = match answer {
        ProbeAnswer::Commit(commit) => {
            if !install_commit(daemon, &mut cluster, daemon.local, ticket, commit) {
                return;
            }
            ("COMMIT applied", &daemon.probe_commits)
        }
        ProbeAnswer::Release(keep) if !keep.contains(daemon.local) => {
            cluster.local_release(ticket, keep);
            ("released", &daemon.probe_released)
        }
        _ => return,
    };
    if let Err(error) = sync_durable(daemon, &cluster) {
        daemon.log.log(&format!(
            "wedge probe ticket={ticket}: durability failure: {error}"
        ));
    }
    daemon.log.log(&format!(
        "wedge probe: ticket={ticket} {what} (S{}'s answer)",
        coordinator_of(ticket)
    ));
    count.fetch_add(1, Ordering::Relaxed);
}

/// Asks `ticket`'s coordinator what became of it, at its daemon for
/// this shard (each shard has its own operation ledger).
fn ask(daemon: &Daemon, ticket: u64) -> ProbeAnswer {
    let coordinator = coordinator_of(ticket);
    let Some((to, addr)) = daemon
        .peers
        .iter()
        .find(|(site, _)| site.index() == coordinator)
    else {
        return ProbeAnswer::Unknown;
    };
    if daemon.links.is_blocked(*to) {
        // The partition surface applies to probes too.
        return ProbeAnswer::Unknown;
    }
    let probe = Frame::VoteProbe {
        ticket,
        from: daemon.local,
        to: *to,
    }
    .for_shard(daemon.shard);
    match exchange(addr, &probe, &Deadline::within(WEDGE_PROBE_DEADLINE)) {
        Ok(reply) => ProbeAnswer::of_reply(ticket, reply),
        Err(_) => ProbeAnswer::Unknown,
    }
}

/// The wedge-probe loop: while this site holds an outstanding vote,
/// it gets the answer — its own [`fate`] for a ticket of its own, no
/// network needed; else its coordinator's — and [`resolve`]s by it.
pub(super) fn wedge_probe_loop(daemon: &Arc<Daemon>, stop: &Stop) {
    loop {
        // The stop unparks this thread.
        std::thread::park_timeout(WEDGE_PROBE_INTERVAL);
        if stop.is_set() || daemon.retired.load(Ordering::SeqCst) != 0 {
            return;
        }
        let pending = daemon
            .cluster
            .lock()
            .expect("cluster poisoned")
            .pending_at(daemon.local);
        let Some(ticket) = pending else { continue };
        let answer = if coordinator_of(ticket) == daemon.local.index() {
            fate(daemon, ticket, daemon.local)
        } else {
            ask(daemon, ticket)
        };
        resolve(daemon, ticket, answer);
    }
}
