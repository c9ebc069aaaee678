//! Vote probes across a coordinator restart: three durable daemons on
//! loopback, one shard group coordinated by site 0.
//!
//! The coordinator commits a keyed batch, commits a keyed read, and has
//! one keyed round refused (both peers cut), then stops and starts
//! again on the same data directory. A wedged voter of any of those
//! rounds would probe the new incarnation for the old ticket, so each
//! answer is pinned: the batch's puts, a state-only commit, a release
//! for the refused round, and a release for a ticket the dead
//! incarnation never issued above its last commit.

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dynvote_control::KvPuts;
use dynvote_store::client::{request, Outcome};
use dynvote_store::config::Config;
use dynvote_store::server::{start, start_on, ServiceHandle};
use dynvote_store::wire::{read_frame, write_frame, Frame};
use dynvote_types::{SiteId, SiteSet};

const TIMEOUT: Duration = Duration::from_secs(10);
const SITES: usize = 3;

/// The `n`-th ticket site 0 issued in its first boot epoch.
fn first_epoch_ticket(n: u64) -> u64 {
    (1 << 32) | n
}

fn config(site: usize, peers: &str, data_root: &Path) -> Config {
    let line = format!(
        "--site {site} --policy odv --peers {peers} --quiet \
         --shards 1 --shard-placement ring:{SITES} \
         --data-dir {} --snapshot-every 1000 \
         --connect-timeout-ms 250 --read-timeout-ms 1000 \
         --backoff-ms 10 --backoff-cap-ms 100 --bind-retry-ms 5000",
        data_root.join(format!("site{site}")).display()
    );
    Config::parse_args(line.split_whitespace().map(str::to_string)).expect("test config parses")
}

fn req(addr: &str, frame: &Frame) -> Outcome {
    request(addr, frame, TIMEOUT).expect("daemon reachable")
}

fn put_key(key: &str, value: &[u8]) -> Frame {
    Frame::PutKey {
        epoch: 1,
        shard: 0,
        key: key.to_string(),
        value: value.to_vec(),
    }
}

/// The shard daemon's answer at `addr` to a vote probe from S1.
fn probe(addr: &str, ticket: u64) -> Frame {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("set timeout");
    let probe = Frame::VoteProbe {
        ticket,
        from: SiteId::new(1),
        to: SiteId::new(0),
    };
    write_frame(&mut stream, &probe.for_shard(0)).expect("send");
    read_frame(&mut stream).expect("an answer")
}

#[test]
fn a_restarted_coordinator_answers_probes_for_its_old_tickets() {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let data_root: PathBuf = std::env::temp_dir().join(format!(
        "dynvote-probe-restart-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let listeners: Vec<TcpListener> = (0..SITES)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound").to_string())
        .collect();
    let peers = addrs
        .iter()
        .enumerate()
        .map(|(site, addr)| format!("{site}={addr}"))
        .collect::<Vec<_>>()
        .join(",");
    let mut daemons: Vec<ServiceHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(site, listener)| {
            start_on(config(site, &peers, &data_root), listener).expect("daemon starts")
        })
        .collect();

    // Ticket 1: a keyed batch, committed as a delta.
    assert!(matches!(
        req(&addrs[0], &put_key("k", b"v")),
        Outcome::Done(_)
    ));
    // Ticket 2: a keyed read, committed state-only.
    let get = Frame::GetKey {
        epoch: 1,
        shard: 0,
        key: "k".to_string(),
    };
    let version = match req(&addrs[0], &get) {
        Outcome::Value { version, value } => {
            assert_eq!(value, b"v");
            version
        }
        other => panic!("keyed read: {other:?}"),
    };
    // Ticket 3: both peers cut, the round is refused.
    for peer in [1, 2] {
        let denied = req(
            &addrs[0],
            &Frame::Deny {
                site: SiteId::new(peer),
            },
        );
        assert!(matches!(denied, Outcome::Done(_)));
    }
    let refused = req(&addrs[0], &put_key("k", b"refused"));
    assert!(
        matches!(refused, Outcome::Unavailable { .. }),
        "{refused:?}"
    );

    // The coordinator restarts on its own data directory.
    daemons.remove(0).stop();
    let restarted = start(config(0, &peers, &data_root)).expect("coordinator restarts");

    match probe(&addrs[0], first_epoch_ticket(1)) {
        Frame::CommitDelta {
            ticket,
            state,
            base,
            puts,
            ..
        } => {
            assert_eq!(ticket, first_epoch_ticket(1));
            assert_eq!((base + 1, state.version), (version, version));
            assert_eq!(
                KvPuts::decode(&puts).expect("a put list").0,
                vec![("k".to_string(), b"v".to_vec())]
            );
        }
        other => panic!("probe for the batch: {other:?}"),
    }
    match probe(&addrs[0], first_epoch_ticket(2)) {
        Frame::Commit {
            ticket,
            state,
            value: None,
            ..
        } => {
            assert_eq!(ticket, first_epoch_ticket(2));
            assert_eq!(state.version, version);
            assert!(state.partition.contains(SiteId::new(1)));
        }
        other => panic!("probe for the read: {other:?}"),
    }
    for (ticket, what) in [
        (first_epoch_ticket(3), "the refused round"),
        (first_epoch_ticket(1000), "an unissued ticket"),
    ] {
        match probe(&addrs[0], ticket) {
            Frame::Release {
                ticket: answered,
                keep,
                ..
            } => {
                assert_eq!(answered, ticket);
                assert_eq!(keep, SiteSet::EMPTY, "{what}");
            }
            other => panic!("probe for {what}: {other:?}"),
        }
    }

    restarted.stop();
    for daemon in daemons {
        daemon.stop();
    }
    std::fs::remove_dir_all(&data_root).ok();
}
