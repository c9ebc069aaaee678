//! Sessions and routing: the accept loop, one thread per connection,
//! the one function that routes a frame (correlation tag, then
//! envelope, then dispatch), the one that writes an inline reply and
//! the one that writes a batch's replies, one write per session.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use dynvote_control::kv::MAX_KEY_LEN;

use super::batch::{DataOp, PendingData};
use super::peer::{dispatch, Dispatch};
use super::status::service_status_text;
use super::{install_shard_map, Daemon, Service};
use crate::wire::{read_frame, Frame, UnavailableReason};

/// Accepts until the stop, one session thread per connection; the
/// stop shuts each session's socket down and joins it.
pub(super) fn accept_loop(listener: &TcpListener, service: &Arc<Service>, idle: Duration) {
    for stream in listener.incoming() {
        if service.stop.is_set() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let socket = Arc::new(stream);
        let wake = Arc::downgrade(&socket);
        let session = Arc::clone(service);
        let _ = service.stop.spawn(
            "dynvote-conn".to_string(),
            move || {
                if let Some(socket) = wake.upgrade() {
                    let _ = socket.shutdown(Shutdown::Both);
                }
            },
            move || handle_connection(&session, &socket, idle),
        );
    }
}

/// Waits until the reader holds at least one unread byte. `false`: the
/// peer closed, or the socket failed or was shut down by the daemon's
/// stop. Filling the buffer consumes nothing, so an idle tick never
/// leaves the frame decoder inside a frame it cannot finish.
fn wait_readable(reader: &mut BufReader<&TcpStream>) -> bool {
    loop {
        match reader.fill_buf() {
            Ok([]) => return false, // clean close
            Ok(_) => return true,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return false,
        }
    }
}

fn handle_connection(service: &Arc<Service>, stream: &TcpStream, idle: Duration) {
    let _ = stream.set_read_timeout(Some(idle));
    let _ = stream.set_write_timeout(Some(idle));
    let _ = stream.set_nodelay(true);
    // Replies completed by the batch worker race replies written inline
    // by this thread, so every write goes through one locked writer.
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    loop {
        // One read brings in whatever the socket holds — a frame, part
        // of one, or many — and the decoder runs on the buffer until it
        // is drained.
        if reader.buffer().is_empty() && !wait_readable(&mut reader) {
            return;
        }
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    service
                        .log
                        .log(&format!("conn: malformed frame ({e}), closing"));
                }
                return;
            }
        };
        if !route(service, frame, &writer) {
            return;
        }
    }
}

/// Routes one frame, in one order: peel the correlation tag, then the
/// envelope, then dispatch. Returns `false` to close the session.
///
/// * **keyed client frames** (`PutKey`/`GetKey`) — epoch-checked
///   against the current map and queued on a shard daemon's batch
///   worker ([`keyed`]): unenveloped, only at the key's shard
///   coordinator; inside a `Shard{k, …}` envelope, at the site the
///   frame was sent to;
/// * **`Shard{k, inner}` envelopes** — addressed to shard `k`'s
///   daemon: keyed data operations, peer protocol frames, per-shard
///   RECOVER and status;
/// * **everything else** — the control plane (`GetShardMap`/
///   `InstallShardMap`) and fleet-wide admin (status, link rules),
///   served by the service.
///
/// One reply rule for all of them: a reply carries its request's tag,
/// or none ([`write_reply`]). Replies that do not wait on the batch
/// worker are written here, on the session's thread, so admin and
/// status stay snappy while the worker sits in a slow quorum round.
fn route(service: &Arc<Service>, frame: Frame, writer: &Arc<Mutex<TcpStream>>) -> bool {
    let (tag, frame) = match frame {
        Frame::Tagged { id, inner } => (Some(id), *inner),
        frame => (None, frame),
    };
    let routed = match frame {
        Frame::Shard { shard, inner } => shard_frame(service, shard, *inner),
        frame @ (Frame::PutKey { .. } | Frame::GetKey { .. }) => keyed(service, frame, None),
        frame => Err(service_dispatch(service, frame)),
    };
    match routed {
        Ok((daemon, op)) => enqueue_data(&daemon, op, writer, tag),
        Err(Dispatch::Reply(reply)) => write_reply(writer, tag, &reply),
        Err(Dispatch::Silent) => true,
        Err(Dispatch::Close) => false,
    }
}

/// A frame's route: a data operation for a shard daemon's batch worker,
/// or what to do in its place.
type Routed = Result<(Arc<Daemon>, DataOp), Dispatch>;

/// Routes the inner frame of a `Shard{k, …}` envelope to shard `k`'s
/// daemon. The slot's read lock is held across the inline dispatch, so
/// a concurrent map install (which takes the write lock) waits out
/// every in-flight exchange before capturing the old daemon's state.
fn shard_frame(service: &Service, shard: u16, inner: Frame) -> Routed {
    if matches!(inner, Frame::PutKey { .. } | Frame::GetKey { .. }) {
        return keyed(service, inner, Some(shard));
    }
    let client = matches!(inner, Frame::Recover | Frame::Status);
    let Some(slot) = service.slots.get(shard as usize) else {
        return Err(if client {
            Dispatch::Reply(Frame::Refused {
                message: format!("shard {shard} out of range"),
            })
        } else {
            // A peer frame for a shard this fleet does not have:
            // protocol confusion, drop the session.
            Dispatch::Close
        });
    };
    let guard = slot.read().expect("shard slot poisoned");
    let Some(daemon) = &*guard else {
        return Err(if client {
            Dispatch::Reply(not_hosted(shard))
        } else {
            // Peer frames for an unhosted shard: stay silent, exactly
            // as a partitioned link would (the coordinator's bounded
            // retry absorbs it).
            Dispatch::Silent
        });
    };
    Err(dispatch(daemon, inner))
}

fn not_hosted(shard: u16) -> Frame {
    Frame::Unavailable {
        reason: UnavailableReason::OriginDown,
        message: format!("shard {shard} is not hosted at this site"),
    }
}

/// Routes a keyed client frame to the batch worker of its shard's
/// daemon at this site, after checking its routing facts against the
/// current map: the key fits the entry layout, the client's epoch
/// matches and the shard exists. An unenveloped frame must reach the
/// shard's coordinator (`placement[0]`), the funnel a client that
/// routes by key goes through; one inside a `Shard{k, …}` envelope
/// (`envelope = Some(k)`) must name shard `k`, and is served at the
/// site it was sent to. Either way the update is one quorum round that
/// wedges a majority (DESIGN.md §14).
fn keyed(service: &Service, frame: Frame, envelope: Option<u16>) -> Routed {
    let (epoch, shard, op) = match frame {
        // The KV entry layout carries a key's length in 16 bits, and
        // keys come from clients.
        Frame::PutKey { key, .. } if key.len() > MAX_KEY_LEN => {
            return Err(Dispatch::Reply(Frame::Refused {
                message: format!(
                    "key of {} bytes exceeds the {MAX_KEY_LEN}-byte limit",
                    key.len()
                ),
            }));
        }
        Frame::PutKey {
            epoch,
            shard,
            key,
            value,
        } => (epoch, shard, DataOp::PutKey { key, value }),
        Frame::GetKey { epoch, shard, key } => (epoch, shard, DataOp::GetKey { key }),
        _ => return Err(Dispatch::Close),
    };
    let local = service.config.local.index();
    {
        let map = service.map.lock().expect("shard map poisoned");
        if epoch != map.epoch {
            return Err(Dispatch::Reply(Frame::StaleShardMap { epoch: map.epoch }));
        }
        let Some(spec) = map.shards.get(shard as usize) else {
            return Err(Dispatch::Reply(Frame::Refused {
                message: format!(
                    "shard {shard} out of range ({} shards at epoch {})",
                    map.shards.len(),
                    map.epoch
                ),
            }));
        };
        match envelope {
            Some(addressed) if addressed != shard => {
                return Err(Dispatch::Reply(Frame::Refused {
                    message: format!(
                        "a keyed frame for shard {shard} in an envelope for shard {addressed}"
                    ),
                }));
            }
            None if spec.coordinator() != local => {
                return Err(Dispatch::Reply(Frame::Unavailable {
                    reason: UnavailableReason::OriginDown,
                    message: format!(
                        "site {local} is not the coordinator for shard {shard} at epoch {} \
                         (site {} is)",
                        map.epoch,
                        spec.coordinator()
                    ),
                }));
            }
            _ => {}
        }
    }
    let guard = service.slots[shard as usize]
        .read()
        .expect("shard slot poisoned");
    match &*guard {
        Some(daemon) => Ok((Arc::clone(daemon), op)),
        None => Err(Dispatch::Reply(not_hosted(shard))),
    }
}

/// Serves the frames the service answers *as a service* — the control
/// plane (shard map fetch/install), fleet-wide admin, and the typed
/// refusals for data ops that name no shard.
fn service_dispatch(service: &Arc<Service>, frame: Frame) -> Dispatch {
    match frame {
        Frame::GetShardMap => {
            let map = service.map.lock().expect("shard map poisoned");
            Dispatch::Reply(Frame::ShardMapRep { map: map.encode() })
        }
        Frame::InstallShardMap { map } => Dispatch::Reply(install_shard_map(service, &map)),
        Frame::Status => Dispatch::Reply(Frame::Report {
            text: service_status_text(service),
        }),
        // The link rules are the *process's* fault surface, shared by
        // every shard transport — one deny cuts the site pair for all
        // shards, exactly like pulling the cable.
        Frame::Deny { site } => {
            service.links.block(site);
            service
                .log
                .log(&format!("link cut: S{} denied", site.index()));
            Dispatch::Reply(Frame::Done {
                detail: format!("link to site {} cut", site.index()),
            })
        }
        Frame::Allow { site } => {
            service.links.unblock(site);
            service
                .log
                .log(&format!("link restored: S{} allowed", site.index()));
            Dispatch::Reply(Frame::Done {
                detail: format!("link to site {} restored", site.index()),
            })
        }
        Frame::HealLinks => {
            service.links.clear();
            service.log.log("links healed: all rules dropped");
            Dispatch::Reply(Frame::Done {
                detail: "all links restored".to_string(),
            })
        }
        // A RECOVER that names no shard: a typed refusal telling the
        // client what to send.
        Frame::Recover => Dispatch::Reply(Frame::Refused {
            message: "address a shard: wrap the frame in a shard envelope \
                      (dynvote-ctl --shard K recover)"
                .to_string(),
        }),
        // Bare peer frames (no shard envelope) cannot be routed.
        _ => Dispatch::Close,
    }
}

/// Writes encoded frames through a session's shared writer, in one
/// `write_all`. A failed write may have left part of a frame on the
/// wire, after which nothing written to the session could be decoded:
/// the socket is shut down, which fails every later write at once and
/// ends the session's reader.
fn write_shared(writer: &Mutex<TcpStream>, bytes: &[u8]) -> std::io::Result<()> {
    let mut guard = writer.lock().expect("session writer poisoned");
    let written = guard.write_all(bytes);
    if written.is_err() {
        let _ = guard.shutdown(Shutdown::Both);
    }
    written
}

/// The one reply rule: a reply carries its request's tag, or none.
/// `false` when the session is gone.
fn write_reply(writer: &Mutex<TcpStream>, tag: Option<u64>, reply: &Frame) -> bool {
    let mut bytes = Vec::new();
    reply.encode_into(tag, &mut bytes);
    write_shared(writer, &bytes).is_ok()
}

/// Where a queued data operation's reply goes: its session's writer,
/// its request's tag, and — for an untagged request — the release the
/// session waits on before it reads its next frame.
pub(super) struct ReplyTo {
    writer: Arc<Mutex<TcpStream>>,
    tag: Option<u64>,
    /// Nothing is ever sent: dropping it releases the session.
    release: Option<mpsc::Sender<()>>,
}

/// Answers a batch's replies, given in queue order: each session's go
/// out encoded into one buffer, in that order, with one write — the
/// return leg of the one burst a pipelined window travels as. The
/// untagged requests' sessions are released only after the writes, so
/// an untagged reply precedes whatever its session answers next.
pub(super) fn answer(replies: Vec<(ReplyTo, Frame)>) {
    // Per session, in the order sessions first appear.
    let mut bursts: Vec<(Arc<Mutex<TcpStream>>, Vec<u8>)> = Vec::new();
    let mut releases = Vec::new();
    for (to, reply) in replies {
        let at = match bursts
            .iter()
            .position(|(writer, _)| Arc::ptr_eq(writer, &to.writer))
        {
            Some(at) => at,
            None => {
                bursts.push((to.writer, Vec::new()));
                bursts.len() - 1
            }
        };
        reply.encode_into(to.tag, &mut bursts[at].1);
        releases.extend(to.release);
    }
    for (writer, bytes) in bursts {
        let _ = write_shared(&writer, &bytes);
    }
    drop(releases);
}

/// Queues a data operation for `daemon`'s batch worker, with the
/// address its reply goes to. `false` means the daemon is shutting
/// down (the queue is gone): close the session.
///
/// A tagged request returns at once — the session reads its next frame
/// while the worker runs. An untagged one has nothing to match a reply
/// to but its order, so its session waits here until the worker has
/// written the reply (or dropped the request with its queue).
fn enqueue_data(
    daemon: &Daemon,
    op: DataOp,
    writer: &Arc<Mutex<TcpStream>>,
    tag: Option<u64>,
) -> bool {
    let (release, wait) = match tag {
        Some(_) => (None, None),
        None => {
            let (release, wait) = mpsc::channel::<()>();
            (Some(release), Some(wait))
        }
    };
    let reply = ReplyTo {
        writer: Arc::clone(writer),
        tag,
        release,
    };
    if daemon.batch.send(Some(PendingData { op, reply })).is_err() {
        return false;
    }
    if let Some(wait) = wait {
        // Nothing is ever sent: the wait ends when the release drops.
        let _ = wait.recv();
    }
    true
}
