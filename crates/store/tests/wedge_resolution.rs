//! Wedge resolution from the prober's side, on live daemons: a site
//! whose resolution frame was lost learns what became of its vote by
//! probing, and applies exactly that.
//!
//! * A voter whose `COMMIT` is dropped at its relay installs the commit
//!   from the coordinator's answer and ends at the coordinator's
//!   ⟨o, v, P⟩ and value (`probe.commits` counts it).
//! * A voter whose `RELEASE` is dropped — five sites, three of them cut
//!   off from the coordinator, so the round is refused after the voter
//!   voted — is freed (`probe.released` counts it).
//! * A site wedged on a ticket of a dead incarnation of itself, above
//!   its fence, frees itself without asking a peer. No protocol round
//!   wedges a coordinator on its own ticket (the origin never marks its
//!   own vote); a `START` whose ticket names its recipient does, so the
//!   test sends one.

mod common;

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use common::{relay, Fleet, TIMEOUT};
use dynvote_store::client::Outcome;
use dynvote_store::wire::{read_frame, write_frame, Frame, UnavailableReason};
use dynvote_types::SiteId;

/// One shard on all `sites`, site 0 coordinating, and a peer read
/// timeout short enough that a dropped frame costs little.
fn flags(sites: usize) -> String {
    format!("--policy odv --quiet --shards 1 --shard-placement ring:{sites} --read-timeout-ms 500")
}

fn put_key(key: &str, value: &[u8]) -> Frame {
    Frame::PutKey {
        epoch: 1,
        shard: 0,
        key: key.to_string(),
        value: value.to_vec(),
    }
}

/// Site `site`'s shard daemon's `status`, as `key → value`.
fn shard_status(fleet: &Fleet, site: usize) -> BTreeMap<String, String> {
    match fleet.req(site, &Frame::Status.for_shard(0)) {
        Outcome::Report(text) => text
            .lines()
            .filter_map(|line| line.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        other => panic!("status at S{site}: {other:?}"),
    }
}

/// Site `site`'s shard status once `key` reads `value`.
fn once(fleet: &Fleet, site: usize, key: &str, value: &str) -> BTreeMap<String, String> {
    let began = Instant::now();
    loop {
        let status = shard_status(fleet, site);
        if status.get(key).map(String::as_str) == Some(value) {
            return status;
        }
        assert!(
            began.elapsed() < TIMEOUT,
            "S{site} never reached {key}={value}: {status:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }
}

/// Cuts the peer link between `a` and `b`, at both ends.
fn cut(fleet: &Fleet, a: usize, b: usize) {
    for (at, deny) in [(a, b), (b, a)] {
        let done = fleet.req(
            at,
            &Frame::Deny {
                site: SiteId::new(deny),
            },
        );
        assert!(matches!(done, Outcome::Done(_)), "{done:?}");
    }
}

#[test]
fn a_voter_whose_commit_is_lost_installs_it_by_probing() {
    let (fleet, tap) = relay::boot(3, &flags(3));
    tap.drop_requests(|site, frame| {
        site == 1 && matches!(frame, Frame::Commit { .. } | Frame::CommitDelta { .. })
    });
    // S1 never acknowledges: the coordinator cannot claim the write.
    let put = fleet.req(0, &put_key("a", b"1"));
    assert!(
        matches!(
            put,
            Outcome::Unavailable {
                reason: UnavailableReason::Indeterminate,
                ..
            }
        ),
        "{put:?}"
    );
    let voter = once(&fleet, 1, "probe.commits", "1");
    let coordinator = shard_status(&fleet, 0);
    for key in ["op", "version", "partition", "value_len"] {
        assert_eq!(voter[key], coordinator[key], "{key}");
    }
    assert_eq!(
        (coordinator["op"].as_str(), coordinator["version"].as_str()),
        ("2", "2")
    );
    assert_eq!(voter["pending"], "false");
    assert_eq!(voter["probe.released"], "0");
    // The commit came back as the probe's answer, not as a COMMIT.
    let seen = tap.drain();
    assert!(seen.iter().any(|seen| seen.site == 0
        && seen.request
        && matches!(seen.frame, Frame::VoteProbe { from, .. } if from == SiteId::new(1))));
    fleet.stop();
}

#[test]
fn a_voter_whose_release_is_lost_is_freed_by_probing() {
    let (fleet, tap) = relay::boot(5, &flags(5));
    for site in 2..5 {
        cut(&fleet, 0, site);
    }
    tap.drop_requests(|site, frame| site == 1 && matches!(frame, Frame::Release { .. }));
    // S0 and S1 are two of five, the rest silent: refused once S1 has
    // voted.
    let put = fleet.req(0, &put_key("a", b"1"));
    assert!(
        matches!(
            put,
            Outcome::Unavailable {
                reason: UnavailableReason::NoQuorum | UnavailableReason::PeerSilence,
                ..
            }
        ),
        "{put:?}"
    );
    let voter = once(&fleet, 1, "probe.released", "1");
    assert_eq!(voter["pending"], "false");
    assert_eq!(voter["probe.commits"], "0");
    assert_eq!(
        (voter["op"].as_str(), voter["version"].as_str()),
        ("1", "1")
    );
    let seen = tap.drain();
    assert!(seen
        .iter()
        .any(|seen| seen.site == 1 && seen.request && matches!(seen.frame, Frame::Release { .. })));
    fleet.stop();
}

#[test]
fn a_site_wedged_on_a_dead_ticket_of_its_own_frees_itself() {
    let fleet = Fleet::boot(3, &flags(3));
    // Ticket 5 of S0's epoch 0: a fresh data dir boots in epoch 1, so
    // the ticket is a dead incarnation's, above every commit point.
    let mut stream = TcpStream::connect(&fleet.addrs[0]).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("set timeout");
    let start = Frame::StartReq {
        ticket: 5,
        from: SiteId::new(1),
        to: SiteId::new(0),
        mark_pending: true,
    };
    write_frame(&mut stream, &start.for_shard(0)).expect("send");
    let voted = read_frame(&mut stream).expect("an answer");
    assert!(
        matches!(voted, Frame::StateRep { ticket: 5, .. }),
        "{voted:?}"
    );
    let site = once(&fleet, 0, "probe.released", "1");
    assert_eq!(site["pending"], "false");
    assert_eq!(site["probe.commits"], "0");
    fleet.stop();
}
