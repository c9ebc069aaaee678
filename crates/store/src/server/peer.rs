//! Peer dispatch: what a shard daemon does with a frame addressed to
//! it — the recipient side of the protocol (START, COMMIT whole or
//! delta, copy request, vote probe, RELEASE) and the per-shard client
//! commands that do not queue (RECOVER, status).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynvote_core::state::ReplicaState;
use dynvote_replica::wal::WalRecord;
use dynvote_replica::{MessageKind, Reply};
use dynvote_types::SiteId;

use super::status::status_text;
use super::wedge::fate;
use super::{durability_refuse, fmt_sites, refuse, sync_durable, Daemon, StoreCluster};
use crate::probe::ProbeAnswer;
use crate::value::{Delta, ShardValue};
use crate::wire::Frame;

pub(super) enum Dispatch {
    Reply(Frame),
    Silent,
    Close,
}

pub(super) fn dispatch(daemon: &Arc<Daemon>, frame: Frame) -> Dispatch {
    match frame {
        // ---- peer frames: the recipient side of the protocol --------
        Frame::StartReq {
            ticket,
            from,
            to,
            mark_pending,
        } => {
            if daemon.links.is_blocked(from) {
                return Dispatch::Silent; // partitioned: the frame "never arrived"
            }
            let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
            match cluster.serve_at(to, &MessageKind::StartRequest, None, ticket, mark_pending) {
                Some(Reply::State {
                    op,
                    version,
                    partition,
                }) => {
                    // The vote this reply casts may wedge the site; it
                    // must survive a crash, or the site could vote
                    // again in a conflicting operation. Fsync before
                    // the state reply leaves — abstain if the disk
                    // cannot hold the vote.
                    if let Err(error) = sync_durable(daemon, &cluster) {
                        daemon.log.log_with(|| {
                            format!(
                                "abstain: START from S{} ticket={ticket} — \
                                 durability failure: {error}",
                                from.index()
                            )
                        });
                        return Dispatch::Reply(Frame::Abstain {
                            ticket,
                            from: to,
                            to: from,
                        });
                    }
                    Dispatch::Reply(Frame::StateRep {
                        ticket,
                        from: to,
                        to: from,
                        state: ReplicaState {
                            op,
                            version,
                            partition,
                        },
                    })
                }
                _ => {
                    daemon.log.log_with(|| format!(
                        "abstain: START from S{} ticket={ticket} — outstanding vote wedges this site",
                        from.index()
                    ));
                    Dispatch::Reply(Frame::Abstain {
                        ticket,
                        from: to,
                        to: from,
                    })
                }
            }
        }
        frame @ (Frame::Commit { .. } | Frame::CommitDelta { .. }) => frame
            .into_commit()
            .map_or(Dispatch::Close, |(ticket, from, to, commit)| {
                serve_commit(daemon, ticket, from, to, commit)
            }),
        Frame::CopyReq { ticket, from, to } => {
            if daemon.links.is_blocked(from) {
                return Dispatch::Silent;
            }
            let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
            match cluster.serve_at(to, &MessageKind::CopyRequest, None, ticket, false) {
                Some(Reply::Copy { version, value }) => Dispatch::Reply(Frame::CopyRep {
                    ticket,
                    from: to,
                    to: from,
                    version,
                    value: value.to_image(),
                }),
                _ => Dispatch::Reply(Frame::Abstain {
                    ticket,
                    from: to,
                    to: from,
                }),
            }
        }
        Frame::VoteProbe { ticket, from, .. } => {
            if daemon.links.is_blocked(from) {
                // The simulated partition drops the probe: no reply,
                // the prober times out as it would across a real cut.
                return Dispatch::Close;
            }
            let answer = fate(daemon, ticket, from);
            let resent = match answer {
                ProbeAnswer::Release(_) => Some("RELEASE"),
                ProbeAnswer::Commit(_) => Some("COMMIT"),
                // In flight, evicted, or a dead epoch at or below the
                // fence: cannot soundly say, so the reply abstains.
                ProbeAnswer::Unknown => None,
            };
            if let Some(resent) = resent {
                daemon.log.log(&format!(
                    "vote probe from S{}: ticket={ticket} decided — re-sent {resent}",
                    from.index()
                ));
            }
            Dispatch::Reply(answer.reply(ticket, daemon.local, from))
        }
        Frame::Release { ticket, from, keep } => {
            if !daemon.links.is_blocked(from) {
                let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
                cluster.local_release(ticket, keep);
                // Best-effort: a release that fails to persist only
                // leaves the site wedged after a crash — the safe
                // direction (it abstains until a commit clears it).
                if let Err(error) = sync_durable(daemon, &cluster) {
                    daemon.log.log(&format!(
                        "release ticket={ticket}: durability failure: {error}"
                    ));
                }
            }
            Dispatch::Silent
        }

        // ---- client frames: the coordinator side --------------------
        // Keyed frames never reach dispatch: `route` queues them for
        // the batch worker. The shard-map and link-rule frames belong
        // to the service, and no envelope survives routing. Arriving
        // here means one was sent *inside* a shard envelope —
        // confusion.
        Frame::Tagged { .. }
        | Frame::Shard { .. }
        | Frame::PutKey { .. }
        | Frame::GetKey { .. }
        | Frame::GetShardMap
        | Frame::InstallShardMap { .. }
        | Frame::Deny { .. }
        | Frame::Allow { .. }
        | Frame::HealLinks => Dispatch::Close,
        Frame::Recover => {
            let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
            match cluster.recover(daemon.local) {
                Ok(()) => {
                    if let Err(error) = sync_durable(daemon, &cluster) {
                        return Dispatch::Reply(durability_refuse(daemon, "recover", &error));
                    }
                    let state = cluster.state_at(daemon.local);
                    let detail = format!(
                        "recovered: o={} v={} P={{{}}}",
                        state.op,
                        state.version,
                        fmt_sites(state.partition)
                    );
                    daemon.log.log(&format!(
                        "GRANT recover: {detail} — Figure 3/7: majority of P_m reachable, copy refreshed"
                    ));
                    Dispatch::Reply(Frame::Done { detail })
                }
                Err(err) => {
                    if let Err(error) = sync_durable(daemon, &cluster) {
                        daemon
                            .log
                            .log(&format!("recover refusal: durability failure: {error}"));
                    }
                    Dispatch::Reply(refuse(daemon, "recover", &err))
                }
            }
        }

        Frame::Status => {
            // `status` doubles as the liveness probe for every harness
            // (fleet boot, nemesis cooldown, smoke scripts). Under
            // faults a quorum round can hold the cluster lock for many
            // seconds of bounded peer timeouts, so blocking here would
            // starve the probe behind queued data operations and make
            // an alive daemon look dead. Spin briefly for the lock;
            // past that, answer `busy=1` — the prober learns the
            // process is up even when no state can be sampled.
            let give_up = Instant::now() + Duration::from_millis(1500);
            loop {
                match daemon.cluster.try_lock() {
                    Ok(cluster) => {
                        break Dispatch::Reply(Frame::Report {
                            text: status_text(daemon, &cluster),
                        });
                    }
                    Err(std::sync::TryLockError::Poisoned(error)) => {
                        panic!("cluster poisoned: {error}")
                    }
                    Err(std::sync::TryLockError::WouldBlock) => {
                        if Instant::now() >= give_up {
                            break Dispatch::Reply(Frame::Report {
                                text: format!("site={}\nbusy=1\n", daemon.local.index()),
                            });
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        }

        // A response frame arriving as a request is protocol confusion.
        Frame::StateRep { .. }
        | Frame::CommitAck { .. }
        | Frame::CopyRep { .. }
        | Frame::Abstain { .. }
        | Frame::Done { .. }
        | Frame::Value { .. }
        | Frame::Refused { .. }
        | Frame::Unavailable { .. }
        | Frame::Report { .. }
        | Frame::ShardMapRep { .. }
        | Frame::StaleShardMap { .. } => Dispatch::Close,
    }
}

/// The recipient side of a `COMMIT`, whole or delta: install it,
/// fsync it, acknowledge it — or stay silent, which the coordinator
/// counts as a missing acknowledgement.
fn serve_commit(
    daemon: &Arc<Daemon>,
    ticket: u64,
    from: SiteId,
    to: SiteId,
    commit: WalRecord,
) -> Dispatch {
    if daemon.links.is_blocked(from) {
        return Dispatch::Silent;
    }
    let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
    if !install_commit(daemon, &mut cluster, to, ticket, commit) {
        return Dispatch::Silent;
    }
    // Fsync the installed commit before acknowledging it — an acked
    // commit must survive a crash. A durability failure stays silent:
    // the coordinator treats it as a missing ack (partial commit),
    // which is the honest outcome.
    if let Err(error) = sync_durable(daemon, &cluster) {
        daemon.log.log(&format!(
            "commit from S{} NOT acked — durability failure: {error}",
            from.index()
        ));
        return Dispatch::Silent;
    }
    daemon.log.log_with(|| {
        let state = cluster.state_at(to);
        format!(
            "commit installed from S{}: o={} v={} P={{{}}}",
            from.index(),
            state.op,
            state.version,
            fmt_sites(state.partition)
        )
    });
    Dispatch::Reply(Frame::CommitAck {
        ticket,
        from: to,
        to: from,
    })
}

/// Installs a `COMMIT` — the [`WalRecord::Commit`] or
/// [`WalRecord::Delta`] a [`Frame::Commit`] or [`Frame::CommitDelta`]
/// carries, or the ledger record either is re-sent from — at the local
/// participant (the cluster lock is held). `false`: not installed, and the sender must hear nothing.
/// Otherwise sync, then acknowledge.
///
/// A delta is applied only to the data of the version it names: a copy
/// holding any other version refuses it — applying puts to a different
/// image would build an image no other copy has. A whole image is
/// applied only when it is a canonical KV map. A frame for a commit
/// the site already holds (a retry whose first acknowledgement was
/// lost, an answered probe) re-installs the state alone, which is what
/// releases the vote.
pub(super) fn install_commit(
    daemon: &Daemon,
    cluster: &mut StoreCluster,
    to: SiteId,
    ticket: u64,
    commit: WalRecord,
) -> bool {
    let Some(state) = commit.committed_state().filter(|_| to == daemon.local) else {
        return false;
    };
    let held = cluster.state_at(to);
    let value = if held == state || !cluster.copies().contains(to) {
        None
    } else if let WalRecord::Delta { base, delta, .. } = commit {
        let delta = Arc::new(Delta { base, puts: delta });
        let next = (held.version == base)
            .then(|| cluster.value_at(to).with_delta(delta))
            .flatten();
        let Some(next) = next else {
            daemon.log.log_with(|| {
                format!(
                    "commit delta on v={base} NOT applied: this copy holds v={}",
                    held.version
                )
            });
            return false;
        };
        Some(next)
    } else if let WalRecord::Commit {
        value: Some(image), ..
    } = commit
    {
        // Only a canonical KV image is a value: anything else is a
        // malformed frame, refused like a delta on the wrong base.
        let Some(next) = ShardValue::from_image(&image) else {
            daemon
                .log
                .log("malformed commit: its image is not a canonical KV map; NOT applied");
            return false;
        };
        Some(next)
    } else {
        None
    };
    let kind = MessageKind::Commit {
        op: state.op,
        version: state.version,
        partition: state.partition,
    };
    let acked = matches!(
        cluster.serve_at(to, &kind, value.as_ref(), ticket, false),
        Some(Reply::Ack)
    );
    if acked && value.as_ref().is_some_and(|value| value.delta().is_some()) {
        daemon.delta_installs.fetch_add(1, Ordering::Relaxed);
    }
    acked
}
