//! Session I/O on a live loopback fleet: what a daemon's connection
//! handler and batch worker owe a client whatever the client does with
//! its socket.
//!
//! * a session is a byte stream: frames that arrive a byte at a time
//!   and frames that arrive many to a segment are all answered, each
//!   once, in order;
//! * a reply carries its request's tag, or none — whichever kind of
//!   data operation the request was;
//! * a session's replies from one batch leave in queue order, and an
//!   untagged request's reply precedes anything its session answers
//!   next;
//! * an idle session notices shutdown within one idle tick, and a
//!   stopped daemon answers nothing on a session opened before the
//!   stop;
//! * a client that stops reading its replies costs the daemon one
//!   write timeout on the batch worker and its own session — not the
//!   shard's cluster lock, behind which peer frames and `status` wait.

mod common;

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::Fleet;
use dynvote_replica::wal::{shard_dir, Wal, WalRecord, WAL_FILE};
use dynvote_store::client::{request, Deadline, Outcome};
use dynvote_store::conn::{ConnOptions, Connection};
use dynvote_store::wire::{read_frame, write_frame, Frame};
use dynvote_types::SiteId;

const SITES: usize = 3;

/// Three daemons, one shard on all of them, site 0 coordinating.
/// `idle_ms` is each session's idle tick and its write timeout
/// (`--read-timeout-ms`).
fn boot(idle_ms: u64) -> Fleet {
    Fleet::boot(
        SITES,
        &format!(
            "--policy odv --quiet --shards 1 --shard-placement ring:{SITES} \
             --read-timeout-ms {idle_ms}"
        ),
    )
}

fn tagged(id: u64, inner: Frame) -> Vec<u8> {
    Frame::Tagged {
        id,
        inner: Box::new(inner),
    }
    .encode()
}

fn put_key(key: &str, value: Vec<u8>) -> Frame {
    Frame::PutKey {
        epoch: 1,
        shard: 0,
        key: key.to_string(),
        value,
    }
}

fn get_key(key: &str) -> Frame {
    Frame::GetKey {
        epoch: 1,
        shard: 0,
        key: key.to_string(),
    }
}

/// A put of `k2` in the shard's envelope, served at the site it is
/// sent to: the keyed reads around it keep finding their key.
fn enveloped_put(k2: &[u8]) -> Frame {
    put_key("k2", k2.to_vec()).for_shard(0)
}

/// The shard daemon's `status` at `addr`, and how long it took.
fn shard_status(addr: &str) -> (String, Duration) {
    let began = Instant::now();
    let frame = Frame::Status.for_shard(0);
    match request(addr, &frame, Duration::from_secs(10)).expect("daemon reachable") {
        Outcome::Report(text) => (text, began.elapsed()),
        other => panic!("status: {other:?}"),
    }
}

#[test]
fn frames_split_across_reads_and_frames_sharing_one_are_all_answered() {
    let fleet = boot(1_000);
    let mut stream = TcpStream::connect(&fleet.addrs[0]).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // One frame, a byte per segment: the handler sees the length
    // prefix, then the body, in pieces.
    for byte in tagged(1, Frame::Status) {
        stream.write_all(&[byte]).expect("send a byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Then sixty frames in one segment: admin frames answered inline
    // between data frames — keyed, bare and in a shard envelope —
    // answered by the batch worker.
    let mut segment = Vec::new();
    for id in 2..=61u64 {
        let inner = match id % 5 {
            0 => Frame::Status,
            2 => put_key(&format!("k{id}"), id.to_be_bytes().to_vec()),
            3 => get_key("k2").for_shard(0),
            4 => enveloped_put(&id.to_be_bytes()),
            _ => get_key("k2"),
        };
        segment.extend_from_slice(&tagged(id, inner));
    }
    stream.write_all(&segment).expect("send a segment");

    let mut answered = Vec::new();
    for _ in 1..=61 {
        match read_frame(&mut stream).expect("a reply per frame") {
            Frame::Tagged { id, inner } => {
                let expected = match (id, id % 5) {
                    (1, _) | (_, 0) => matches!(*inner, Frame::Report { .. }),
                    (_, 2 | 4) => matches!(*inner, Frame::Done { .. }),
                    // `k2` is the first put of the segment, and every
                    // enveloped put after it rewrites it.
                    _ => matches!(*inner, Frame::Value { .. }),
                };
                assert!(expected, "frame {id} answered with {inner:?}");
                answered.push(id);
            }
            other => panic!("untagged reply {other:?}"),
        }
    }
    answered.sort_unstable();
    assert_eq!(answered, (1..=61).collect::<Vec<u64>>());
    fleet.stop();
}

/// A keyed op in a shard envelope is a data op like any other: tagged
/// in, tagged out, at any site hosting the shard. (A tagged envelope used
/// to be answered with a bare frame, which a pipelined client takes for
/// protocol confusion: it retired the stream with the request in
/// flight.)
#[test]
fn tagged_enveloped_ops_are_answered_tagged_and_the_stream_survives() {
    let fleet = boot(1_000);
    let deadline = Deadline::within(Duration::from_secs(10));
    let conn = Connection::new(&fleet.addrs[0], ConnOptions::default());
    let put = conn
        .call(&enveloped_put(b"first"), &deadline)
        .expect("a tagged enveloped put is answered on its stream");
    assert!(matches!(put, Outcome::Done(_)), "{put:?}");

    // Sixteen in flight, puts and gets alternating: each reply finds
    // its own request.
    let pending: Vec<_> = (0..16u8)
        .map(|i| {
            let frame = if i % 2 == 0 {
                enveloped_put(&[i])
            } else {
                get_key("k2").for_shard(0)
            };
            conn.submit(&frame, &deadline).expect("submit")
        })
        .collect();
    for (i, pending) in pending.iter().enumerate() {
        let outcome = conn.wait(pending, &deadline).expect("answered, tagged");
        match outcome {
            Outcome::Done(_) if i % 2 == 0 => {}
            Outcome::Value { value, .. } if i % 2 == 1 => {
                assert_eq!(value, [(i - 1) as u8]);
            }
            other => panic!("request {i} answered with {other:?}"),
        }
    }
    // The same stream still serves the other families.
    let keyed = conn.call(&get_key("k2"), &deadline).expect("keyed read");
    assert!(matches!(keyed, Outcome::Value { .. }), "{keyed:?}");
    let status = conn.call(&Frame::Status, &deadline).expect("status");
    assert!(matches!(status, Outcome::Report(_)), "{status:?}");

    // An enveloped put needs no coordinator: any hosting site takes it.
    let voter = Connection::new(&fleet.addrs[1], ConnOptions::default());
    let put = voter.call(&enveloped_put(b"at a voter"), &deadline);
    assert!(matches!(put, Ok(Outcome::Done(_))), "{put:?}");
    fleet.stop();
}

/// A burst of tagged puts on one socket is answered in queue order,
/// each reply under its own request's id and naming its own version:
/// the batch worker writes a session's replies as they queued, however
/// many batches the burst spans.
#[test]
fn a_burst_of_tagged_puts_is_answered_in_queue_order() {
    const PUTS: u64 = 48;
    let fleet = boot(1_000);
    let mut stream = TcpStream::connect(&fleet.addrs[0]).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut burst = Vec::new();
    for id in 1..=PUTS {
        burst.extend_from_slice(&tagged(
            id,
            put_key(&format!("k{id}"), id.to_be_bytes().to_vec()),
        ));
    }
    stream.write_all(&burst).expect("send the burst");

    let mut versions = Vec::new();
    for expected in 1..=PUTS {
        match read_frame(&mut stream).expect("a reply per put") {
            Frame::Tagged { id, inner } => {
                assert_eq!(id, expected, "a reply left out of queue order");
                let Frame::Done { detail } = *inner else {
                    panic!("put {id} answered with {inner:?}");
                };
                let version = detail
                    .split_whitespace()
                    .find_map(|field| field.strip_prefix("v="))
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| panic!("put {id}: no version in {detail:?}"));
                versions.push(version);
            }
            other => panic!("untagged reply {other:?}"),
        }
    }
    assert!(
        versions.windows(2).all(|pair| pair[0] < pair[1]),
        "each put must name its own version, in queue order: {versions:?}"
    );
    fleet.stop();
}

/// An untagged data operation's reply precedes whatever its session
/// answers next: the session reads no further frame until the batch
/// worker has written that reply. An untagged put followed at once by
/// an untagged `Status` — which the session thread answers itself —
/// comes back in that order, every time.
#[test]
fn an_untagged_reply_precedes_the_next_reply_on_its_session() {
    let fleet = boot(1_000);
    let mut stream = TcpStream::connect(&fleet.addrs[0]).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for round in 0..50u8 {
        let mut pair = put_key("k", vec![round]).encode();
        pair.extend_from_slice(&Frame::Status.encode());
        stream.write_all(&pair).expect("send put + status");
        let first = read_frame(&mut stream).expect("the put's reply");
        assert!(
            matches!(first, Frame::Done { .. }),
            "round {round}: the put's reply came second, after {first:?}"
        );
        let second = read_frame(&mut stream).expect("the status reply");
        assert!(
            matches!(second, Frame::Report { .. }),
            "round {round}: status answered with {second:?}"
        );
    }
    fleet.stop();
}

#[test]
fn an_idle_session_ends_within_an_idle_tick_of_stop() {
    const IDLE: Duration = Duration::from_millis(300);
    let mut fleet = boot(IDLE.as_millis() as u64);
    let mut stream = TcpStream::connect(&fleet.addrs[0]).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // One answered request first, so the handler is known to be parked
    // on its idle wait when the daemon stops.
    stream
        .write_all(&tagged(1, Frame::Status))
        .expect("send status");
    assert!(matches!(
        read_frame(&mut stream).expect("answered"),
        Frame::Tagged { id: 1, .. }
    ));

    let began = Instant::now();
    fleet.stop_site(0);
    let mut byte = [0u8; 1];
    let closed = match stream.read(&mut byte) {
        Ok(0) => true,
        Err(error) => error.kind() == ErrorKind::ConnectionReset,
        Ok(_) => false,
    };
    assert!(closed, "the idle session stayed open past shutdown");
    let took = began.elapsed();
    assert!(took < IDLE * 3, "stop took {took:?} to reach the session");
    fleet.stop();
}

/// `stop` joins the sessions: a peer connection opened before the stop
/// is closed by it, so a START sent on it afterwards is never served —
/// no state reply, and no vote logged in the data directory that the
/// next incarnation will open.
#[test]
fn a_stopped_daemon_serves_nothing_on_a_session_it_had_open() {
    // An idle tick far longer than the test: only `stop` can end the
    // session in time.
    let mut fleet = boot(10_000);
    let mut peer = TcpStream::connect(&fleet.addrs[0]).expect("connect");
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write_frame(&mut peer, &Frame::Status.for_shard(0)).expect("send status");
    assert!(matches!(
        read_frame(&mut peer).expect("answered"),
        Frame::Report { .. }
    ));

    fleet.stop_site(0);
    let start = Frame::StartReq {
        ticket: 77,
        from: SiteId::new(1),
        to: SiteId::new(0),
        mark_pending: true,
    };
    // The write itself may fail once the daemon's end is shut down.
    let _ = write_frame(&mut peer, &start.for_shard(0));
    let answer = read_frame(&mut peer);
    assert!(answer.is_err(), "a stopped daemon answered {answer:?}");
    let wal = Wal::read(&shard_dir(&fleet.data_dir(0), 0).join(WAL_FILE)).expect("read the WAL");
    assert!(
        !wal.entries
            .iter()
            .any(|entry| matches!(entry.record, WalRecord::Vote { ticket: 77 })),
        "a stopped daemon logged a vote"
    );
    fleet.stop();
}

#[test]
fn a_client_that_never_reads_holds_neither_the_shard_nor_its_session() {
    const WRITE_TIMEOUT: Duration = Duration::from_millis(1_000);
    const REPLIES: u64 = 32;
    let fleet = boot(WRITE_TIMEOUT.as_millis() as u64);
    let big = vec![0x5a_u8; 1 << 20];
    let stored = request(
        &fleet.addrs[0],
        &put_key("big", big),
        Duration::from_secs(10),
    );
    assert!(matches!(stored, Ok(Outcome::Done(_))), "{stored:?}");

    // 32 MB of replies to a socket nobody reads: several times what
    // the kernel buffers between the two ends while the receiver is
    // idle, so the batch worker blocks in a write until its timeout.
    let mut deaf = TcpStream::connect(&fleet.addrs[0]).expect("connect");
    let mut requests = Vec::new();
    for id in 1..=REPLIES {
        requests.extend_from_slice(&tagged(id, get_key("big")));
    }
    deaf.write_all(&requests).expect("send requests");

    // A blocked `write_all` gives up within two write timeouts (one
    // for the call that made partial progress, one for the call that
    // made none). For twice that long, the shard keeps answering
    // whoever needs its cluster lock: `status` (which reports `busy=1`
    // rather than wait) and a peer's copy request.
    let began = Instant::now();
    let mut rounds = 0;
    while began.elapsed() < WRITE_TIMEOUT * 4 {
        let (status, took) = shard_status(&fleet.addrs[0]);
        assert!(
            !status.contains("busy=1") && took < WRITE_TIMEOUT / 2,
            "status waited {took:?} behind a client that does not read: {status}"
        );
        let asked = Instant::now();
        let mut peer = TcpStream::connect(&fleet.addrs[0]).expect("connect");
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let copy_request = Frame::CopyReq {
            ticket: 0,
            from: SiteId::new(1),
            to: SiteId::new(0),
        }
        .for_shard(0);
        peer.write_all(&copy_request.encode()).expect("send");
        let copy = read_frame(&mut peer).expect("a peer frame is answered");
        assert!(matches!(copy, Frame::CopyRep { .. }), "{copy:?}");
        let took = asked.elapsed();
        assert!(
            took < WRITE_TIMEOUT / 2,
            "a peer frame waited {took:?} behind a client that does not read"
        );
        rounds += 1;
    }
    assert!(rounds >= 2, "{rounds} probes in {:?}", began.elapsed());

    // The timed-out write left part of a frame on the session, so the
    // daemon closed it: what the kernel had buffered drains, then the
    // stream ends — well short of the replies it was owed.
    deaf.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut drained = 0u64;
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        match deaf.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => drained += n as u64,
            Err(error) if error.kind() == ErrorKind::ConnectionReset => break,
            Err(error) => panic!("the session was left open after {drained} B: {error}"),
        }
    }
    assert!(
        drained < REPLIES << 20,
        "every reply arrived ({drained} B): the worker never blocked"
    );
    fleet.stop();
}
