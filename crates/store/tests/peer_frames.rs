//! What each peer receives, round by round, over real sockets.
//!
//! Three daemons serve one shard group; site 0 coordinates it. Every
//! peer address in the fleet's `--peers` list is a recording relay in
//! front of the real daemon, so every peer frame any daemon sends is
//! seen, decoded, by the relay of the site it is addressed to, and
//! then passed on unchanged. The test pins, per round shape, the exact
//! list of frames each peer receives: kind, sender, recipient, the
//! state a commit installs and what rides it. It pins neither tickets
//! nor the order in which *different* peers receive their frames —
//! only each peer's own sequence.
//!
//! Round shapes: a keyed write, a keyed batch of two puts in one round,
//! a keyed read, a write while the coordinator is cut off, a refused
//! round at a stale coordinator, and that site's recovery.

mod common;

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use common::relay::Tap;
use common::{Fleet, TIMEOUT};
use dynvote_store::client::Outcome;
use dynvote_store::wire::{read_frame, Frame};
use dynvote_types::SiteId;

const SITES: usize = 3;

/// Three daemons whose peer links all run through recording relays,
/// and the relays' tap.
fn boot() -> (Fleet, Arc<Tap>) {
    let flags = format!("--policy odv --quiet --shards 1 --shard-placement ring:{SITES}");
    common::relay::boot(SITES, &flags)
}

impl Fleet {
    fn shard_req(&self, site: usize, inner: Frame) -> Outcome {
        self.req(
            site,
            &Frame::Shard {
                shard: 0,
                inner: Box::new(inner),
            },
        )
    }

    fn put_key(key: &str, value: &[u8]) -> Frame {
        Frame::PutKey {
            epoch: 1,
            shard: 0,
            key: key.to_string(),
            value: value.to_vec(),
        }
    }

    fn put(&self, key: &str, value: &[u8]) -> Outcome {
        self.req(0, &Fleet::put_key(key, value))
    }

    /// Cuts the peer link between `a` and `b`, at both ends.
    fn cut(&self, a: usize, b: usize) {
        for (at, deny) in [(a, b), (b, a)] {
            let done = self.req(
                at,
                &Frame::Deny {
                    site: SiteId::new(deny),
                },
            );
            assert!(matches!(done, Outcome::Done(_)), "{done:?}");
        }
    }

    fn heal(&self) {
        for site in 0..SITES {
            assert!(matches!(
                self.req(site, &Frame::HealLinks),
                Outcome::Done(_)
            ));
        }
    }
}

/// The frames each peer receives, as `(site, [rendered request])`.
fn expect(rows: &[(usize, &[&str])]) -> BTreeMap<usize, Vec<String>> {
    rows.iter()
        .map(|(site, frames)| (*site, frames.iter().map(|f| (*f).to_string()).collect()))
        .collect()
}

#[test]
fn each_round_shape_sends_each_peer_its_pinned_frames() {
    let (fleet, tap) = boot();

    // A keyed write: one round, START then the puts as a delta.
    assert!(matches!(fleet.put("a", b"1"), Outcome::Done(_)));
    assert_eq!(
        tap.received(),
        expect(&[
            (
                1,
                &[
                    "START S0->S1 pending=true",
                    "COMMIT-DELTA S0->S1 o=2 v=2 P={0,1,2} base=1 puts=[(\"a\", [49])]",
                ]
            ),
            (
                2,
                &[
                    "START S0->S2 pending=true",
                    "COMMIT-DELTA S0->S2 o=2 v=2 P={0,1,2} base=1 puts=[(\"a\", [49])]",
                ]
            ),
        ]),
        "a keyed write"
    );

    // A keyed batch: while the first put's round is held at the relays,
    // two more queue up behind it and then commit in one round, one
    // version each.
    tap.hold(true);
    let mut pipe = TcpStream::connect(&fleet.addrs[0]).expect("connect");
    pipe.set_read_timeout(Some(TIMEOUT)).unwrap();
    let tagged = |id: u64, key: &str, value: &[u8]| Fleet::put_key(key, value).encode_tagged(id);
    pipe.write_all(&tagged(1, "b", b"2")).unwrap();
    thread::sleep(Duration::from_millis(100));
    pipe.write_all(&tagged(2, "c", b"3")).unwrap();
    pipe.write_all(&tagged(3, "d", b"4")).unwrap();
    thread::sleep(Duration::from_millis(200));
    tap.hold(false);
    for _ in 0..3 {
        match read_frame(&mut pipe).expect("a tagged reply") {
            Frame::Tagged { inner, .. } => {
                assert!(matches!(*inner, Frame::Done { .. }), "{inner:?}");
            }
            other => panic!("untagged reply {other:?}"),
        }
    }
    assert_eq!(
        tap.received(),
        expect(&[
            (
                1,
                &[
                    "START S0->S1 pending=true",
                    "COMMIT-DELTA S0->S1 o=3 v=3 P={0,1,2} base=2 puts=[(\"b\", [50])]",
                    "START S0->S1 pending=true",
                    "COMMIT-DELTA S0->S1 o=5 v=5 P={0,1,2} base=3 puts=[(\"c\", [51]), (\"d\", [52])]",
                ]
            ),
            (
                2,
                &[
                    "START S0->S2 pending=true",
                    "COMMIT-DELTA S0->S2 o=3 v=3 P={0,1,2} base=2 puts=[(\"b\", [50])]",
                    "START S0->S2 pending=true",
                    "COMMIT-DELTA S0->S2 o=5 v=5 P={0,1,2} base=3 puts=[(\"c\", [51]), (\"d\", [52])]",
                ]
            ),
        ]),
        "a keyed batch"
    );

    // A keyed read: the vote, then the state-only commit that absorbs it.
    let read = fleet.req(
        0,
        &Frame::GetKey {
            epoch: 1,
            shard: 0,
            key: "c".to_string(),
        },
    );
    assert!(
        matches!(read, Outcome::Value { ref value, .. } if value == b"3"),
        "{read:?}"
    );
    assert_eq!(
        tap.received(),
        expect(&[
            (
                1,
                &[
                    "START S0->S1 pending=true",
                    "COMMIT S0->S1 o=6 v=5 P={0,1,2} value=none",
                ]
            ),
            (
                2,
                &[
                    "START S0->S2 pending=true",
                    "COMMIT S0->S2 o=6 v=5 P={0,1,2} value=none",
                ]
            ),
        ]),
        "a keyed read"
    );

    // S0 cut off; S1 writes a key with S2 alone, at its own site.
    fleet.cut(0, 1);
    fleet.cut(0, 2);
    let wrote = fleet.shard_req(1, Fleet::put_key("e", b"5"));
    assert!(matches!(wrote, Outcome::Done(_)), "{wrote:?}");
    assert_eq!(
        tap.received(),
        expect(&[(
            2,
            &[
                "START S1->S2 pending=true",
                "COMMIT-DELTA S1->S2 o=7 v=6 P={1,2} base=5 puts=[(\"e\", [53])]",
            ]
        )]),
        "a write while the coordinator is cut off"
    );

    // S0, a version behind, reaches S2 only: half of P = {1, 2}
    // without its top site. Refused, and S2's vote released.
    fleet.heal();
    fleet.cut(0, 1);
    let refused = fleet.put("f", b"6");
    assert!(
        matches!(refused, Outcome::Refused(_) | Outcome::Unavailable { .. }),
        "{refused:?}"
    );
    assert_eq!(
        tap.received(),
        expect(&[(2, &["START S0->S2 pending=true", "RELEASE from S0 keep={}"])]),
        "a refused round"
    );

    // S0 recovers: its vote, a copy from a current site, and the commit
    // that takes it back into the partition set.
    fleet.heal();
    let recovered = fleet.shard_req(0, Frame::Recover);
    assert!(matches!(recovered, Outcome::Done(_)), "{recovered:?}");
    assert_eq!(
        tap.received(),
        expect(&[
            (
                1,
                &[
                    "START S0->S1 pending=true",
                    "COPY-REQ S0->S1",
                    "COMMIT S0->S1 o=8 v=6 P={0,1,2} value=none",
                ]
            ),
            (
                2,
                &[
                    "START S0->S2 pending=true",
                    "COMMIT S0->S2 o=8 v=6 P={0,1,2} value=none",
                ]
            ),
        ]),
        "a recovery at a stale site"
    );
    fleet.stop();
}

/// The ticket a frame carries, for the frames of an operation.
fn ticket(frame: &Frame) -> u64 {
    match frame {
        Frame::StartReq { ticket, .. }
        | Frame::StateRep { ticket, .. }
        | Frame::Commit { ticket, .. }
        | Frame::CommitDelta { ticket, .. }
        | Frame::CommitAck { ticket, .. }
        | Frame::CopyReq { ticket, .. }
        | Frame::CopyRep { ticket, .. } => *ticket,
        other => panic!("not a frame of an operation: {other:?}"),
    }
}

/// Every frame of one operation names its ticket: the START, its state
/// reply, the COMMIT that follows, the acknowledgement, and a copy
/// request and its reply inside the same vote.
#[test]
fn a_start_its_commit_and_their_replies_carry_one_ticket() {
    let (fleet, tap) = boot();
    // A stale coordinator: S0 misses a write, so its next keyed write
    // fetches the map from a current copy inside its vote.
    fleet.cut(0, 1);
    fleet.cut(0, 2);
    let wrote = fleet.shard_req(1, Fleet::put_key("missed", b"by S0"));
    assert!(matches!(wrote, Outcome::Done(_)), "{wrote:?}");
    fleet.heal();
    tap.drain();

    assert!(matches!(fleet.put("k", b"v"), Outcome::Done(_)));
    let seen = tap.drain();
    let kinds: Vec<&'static str> = seen
        .iter()
        .filter(|seen| seen.site == 1)
        .map(|seen| match seen.frame {
            Frame::StartReq { .. } => "START",
            Frame::StateRep { .. } => "STATE",
            Frame::CopyReq { .. } => "COPY-REQ",
            Frame::CopyRep { .. } => "COPY",
            Frame::CommitDelta { .. } => "COMMIT-DELTA",
            Frame::CommitAck { .. } => "ACK",
            _ => "other",
        })
        .collect();
    assert_eq!(
        kinds,
        ["START", "STATE", "COPY-REQ", "COPY", "COMMIT-DELTA", "ACK"],
        "S1 serves the copy"
    );
    let tickets: Vec<u64> = seen.iter().map(|seen| ticket(&seen.frame)).collect();
    assert!(tickets[0] != 0, "{seen:?}");
    assert!(
        tickets.iter().all(|&t| t == tickets[0]),
        "one operation, one ticket: {tickets:?}"
    );
    fleet.stop();
}
