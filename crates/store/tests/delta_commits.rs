//! Delta commits on a live loopback fleet: three durable daemons, one
//! shard group, keyed writes.
//!
//! A keyed batch travels as its puts, not as the shard image, to every
//! copy that voted holding the version the puts were built on. These
//! tests pin what keeps that sound and what keeps it live:
//!
//! * a copy that missed batches does **not** catch up by deltas — it
//!   rejoins through RECOVER's full copy and then takes deltas like
//!   the others, and all three copies end byte-identical, on disk too
//!   (each site's own snapshot + WAL folds back to the same image);
//! * a delta against a version the copy does not hold is never
//!   applied and never acknowledged;
//! * the coordinator's commit point re-sends a committed delta to a
//!   prober;
//! * a pipelined run that rewrites the same keys commits each key's
//!   last put, and that is what every reader then sees;
//! * a keyed batch is ONE quorum round: no read is run, a voter logs
//!   two records for it — its vote and the delta — and the coordinator
//!   one, its commit point;
//! * a coordinator that is itself a version behind still commits a
//!   delta: it fetches the current map inside its write's vote and
//!   builds on the version its participants voted with.

mod common;

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use common::{Fleet, TIMEOUT};

use dynvote_control::{decode_kv, fold_image, KvPuts};
use dynvote_core::state::ReplicaState;
use dynvote_replica::wal::{shard_dir, SiteStore, Wal, WalRecord, WAL_FILE};
use dynvote_store::client::{Deadline, Outcome};
use dynvote_store::config::Config;
use dynvote_store::conn::{ConnOptions, Connection};
use dynvote_store::server::start_on;
use dynvote_store::wire::{read_frame, write_frame, Frame};
use dynvote_types::{SiteId, SiteSet};

const SITES: usize = 3;

/// Three durable daemons, one shard placed on all of them; site 0
/// coordinates it.
fn boot() -> Fleet {
    boot_snapshotting(5)
}

/// [`boot`] with a snapshot every `snapshot_every` records — large, for
/// a test that reads the records back from the log.
fn boot_snapshotting(snapshot_every: u64) -> Fleet {
    Fleet::boot(
        SITES,
        &format!(
            "--policy odv --quiet --shards 1 --shard-placement ring:{SITES} \
             --snapshot-every {snapshot_every}"
        ),
    )
}

impl Fleet {
    /// A frame for the shard's daemon at `site`.
    fn shard_req(&self, site: usize, inner: Frame) -> Outcome {
        self.req(
            site,
            &Frame::Shard {
                shard: 0,
                inner: Box::new(inner),
            },
        )
    }

    fn put(&self, key: &str, value: &[u8]) {
        let outcome = self.req(
            0,
            &Frame::PutKey {
                epoch: 1,
                shard: 0,
                key: key.to_string(),
                value: value.to_vec(),
            },
        );
        assert!(
            matches!(outcome, Outcome::Done(_)),
            "put {key:?}: {outcome:?}"
        );
    }

    fn get(&self, key: &str) -> Vec<u8> {
        match self.req(
            0,
            &Frame::GetKey {
                epoch: 1,
                shard: 0,
                key: key.to_string(),
            },
        ) {
            Outcome::Value { value, .. } => value,
            other => panic!("get {key:?}: {other:?}"),
        }
    }

    /// What a commit would move at `site`: its ⟨o, v, P⟩, its vote,
    /// the length of its data, and its log.
    fn footprint(&self, site: usize) -> Vec<(String, String)> {
        let status = self.status(site);
        [
            "op",
            "version",
            "partition",
            "pending",
            "value_len",
            "durability.wal_records",
            "durability.snapshot_seq",
        ]
        .iter()
        .map(|field| (field.to_string(), status[*field].clone()))
        .collect()
    }

    /// The shard daemon's status at `site`.
    fn status(&self, site: usize) -> BTreeMap<String, String> {
        match self.shard_req(site, Frame::Status) {
            Outcome::Report(text) => text
                .lines()
                .filter_map(|line| line.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            other => panic!("status at S{site}: {other:?}"),
        }
    }

    /// Cuts `site` off from the other two (peer traffic only).
    fn isolate(&self, site: usize) {
        for other in (0..SITES).filter(|&other| other != site) {
            for (at, deny) in [(site, other), (other, site)] {
                let done = self.req(
                    at,
                    &Frame::Deny {
                        site: SiteId::new(deny),
                    },
                );
                assert!(matches!(done, Outcome::Done(_)));
            }
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

    /// One peer frame to the shard's daemon at `site`, and its reply —
    /// `None` when the daemon stays silent for half a second.
    fn peer_exchange(&self, site: usize, inner: Frame) -> Option<Frame> {
        let mut stream = TcpStream::connect(&self.addrs[site]).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("set timeout");
        write_frame(
            &mut stream,
            &Frame::Shard {
                shard: 0,
                inner: Box::new(inner),
            },
        )
        .expect("send");
        match read_frame(&mut stream) {
            Ok(frame) => Some(frame),
            Err(error) if matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                None
            }
            Err(error) => panic!("peer exchange with S{site}: {error}"),
        }
    }

    /// Records ever logged at `site`: those its snapshot covers plus
    /// those in the log since.
    fn records_logged(&self, site: usize) -> u64 {
        let status = self.status(site);
        ["durability.snapshot_seq", "durability.wal_records"]
            .iter()
            .map(|field| status[*field].parse::<u64>().expect("a count"))
            .sum()
    }

    /// Stops the daemons and reads back each site's log for the shard,
    /// record by record.
    fn stop_and_read_logs(mut self) -> Vec<Vec<WalRecord>> {
        self.stop_daemons();
        (0..SITES)
            .map(|site| {
                let dir = shard_dir(&self.data_dir(site), 0);
                let (_, replay) = Wal::open(&dir.join(WAL_FILE)).expect("log reopens");
                replay.entries.into_iter().map(|e| e.record).collect()
            })
            .collect()
    }

    /// Stops the daemons and reads back what each site's disk holds for
    /// the shard: its durable ⟨o, v, P⟩ and image, folded from its own
    /// snapshot and WAL.
    fn stop_and_read_disks(mut self) -> Vec<(ReplicaState, Vec<u8>)> {
        self.stop_daemons();
        (0..SITES)
            .map(|site| {
                let dir = shard_dir(&self.data_dir(site), 0);
                let (_, restored) =
                    SiteStore::open_with_fold(&dir, 0, fold_image).expect("site store reopens");
                let image = restored.image.expect("a seeded store");
                (image.state, image.value.expect("a copy holds data"))
            })
            .collect()
    }
}

/// (a) A voter cut off for several keyed batches is voted out of the
/// partition set and falls versions behind. It is not fed deltas: it
/// rejoins through RECOVER, whose copy reply is the full image, then
/// takes later batches as deltas like everyone else — and every copy
/// ends with the same bytes, in memory and on its own disk.
#[test]
fn a_voter_cut_off_for_several_batches_rejoins_through_a_full_image() {
    let fleet = boot();
    for i in 0..6 {
        fleet.put(&format!("before-{i}"), &[i; 40]);
    }
    fleet.isolate(2);
    for i in 0..7 {
        fleet.put(&format!("during-{i}"), &[0x40 + i; 40]);
    }
    fleet.put("before-3", b"overwritten while S2 was away");
    let behind = fleet.status(2);
    let ahead = fleet.status(0);
    assert!(
        behind["version"].parse::<u64>().unwrap() + 8 <= ahead["version"].parse::<u64>().unwrap(),
        "S2 should have missed eight batches: {behind:?} vs {ahead:?}"
    );
    assert_eq!(ahead["partition"], "0,1", "ODV voted the silent copy out");

    fleet.heal();
    let recovered = fleet.shard_req(2, Frame::Recover);
    assert!(matches!(recovered, Outcome::Done(_)), "{recovered:?}");
    for i in 0..5 {
        fleet.put(&format!("after-{i}"), &[0x80 + i; 40]);
    }
    assert_eq!(fleet.get("before-3"), b"overwritten while S2 was away");
    assert_eq!(fleet.get("during-6"), [0x46; 40]);

    let live: Vec<_> = (0..SITES).map(|site| fleet.status(site)).collect();
    for site in 1..SITES {
        for field in ["version", "op", "partition", "value_len"] {
            assert_eq!(live[site][field], live[0][field], "S{site} {field}");
        }
    }
    assert_eq!(live[0]["partition"], "0,1,2");

    let disks = fleet.stop_and_read_disks();
    for site in 1..SITES {
        assert_eq!(disks[site].0, disks[0].0, "S{site} durable ⟨o, v, P⟩");
        assert!(
            disks[site].1 == disks[0].1,
            "S{site}'s disk folds to a different image than S0's"
        );
    }
    let map = decode_kv(&disks[0].1).expect("a KV image");
    assert_eq!(map.len(), 6 + 7 + 5);
    assert_eq!(map["after-4"], [0x84; 40]);
    assert_eq!(
        disks[0].1.len().to_string(),
        live[0]["value_len"],
        "status reports the image's length without encoding it"
    );
}

/// (b) A delta names the version it applies to. A copy holding any
/// other version — one behind, one ahead — neither applies nor
/// acknowledges it: the coordinator sees a missing ack, the copy's
/// state and data do not move.
#[test]
fn a_delta_on_a_mismatched_base_is_never_applied() {
    let fleet = boot();
    fleet.put("k", b"v1");
    fleet.put("k", b"v2");
    let before = fleet.footprint(1);
    let status = fleet.status(1);
    let held: u64 = status["version"].parse().unwrap();
    let op: u64 = status["op"].parse().unwrap();
    let puts = KvPuts(vec![("k".to_string(), b"forged".to_vec())]).encode();
    for base in [held - 1, held + 1] {
        let reply = fleet.peer_exchange(
            1,
            Frame::CommitDelta {
                ticket: 0,
                from: SiteId::new(0),
                to: SiteId::new(1),
                state: ReplicaState {
                    op: op + 1,
                    version: base + 1,
                    partition: SiteSet::first_n(SITES),
                },
                base,
                puts: puts.clone(),
            },
        );
        assert!(
            reply.is_none(),
            "a delta on v={base} was answered: {reply:?}"
        );
        assert_eq!(fleet.footprint(1), before, "a delta on v={base} moved S1");
    }
    // On the base the copy holds, with a put list that does not decode:
    // refused the same way.
    let reply = fleet.peer_exchange(
        1,
        Frame::CommitDelta {
            ticket: 0,
            from: SiteId::new(0),
            to: SiteId::new(1),
            state: ReplicaState {
                op: op + 1,
                version: held + 1,
                partition: SiteSet::first_n(SITES),
            },
            base: held,
            puts: vec![0xFF],
        },
    );
    assert!(reply.is_none(), "{reply:?}");
    assert_eq!(fleet.footprint(1), before);
    assert_eq!(fleet.get("k"), b"v2");
    let disks = fleet.stop_and_read_disks();
    assert_eq!(decode_kv(&disks[1].1).expect("a KV image")["k"], b"v2");
}

/// (c) The coordinator ledgers a keyed batch as the delta it sent, and
/// answers a participant's vote probe for that ticket with the same
/// delta — the frame the prober lost — not with a release and not with
/// the image.
#[test]
fn a_vote_probe_is_answered_with_the_committed_delta() {
    let fleet = boot();
    fleet.put("first", b"1");
    fleet.put("probed", b"the lost frame");
    let committed: u64 = fleet.status(0)["version"].parse().unwrap();
    // A durable coordinator's tickets are ⟨site 0, boot epoch 1, n⟩;
    // each keyed put took one.
    let mut deltas = Vec::new();
    for n in 1..=8u64 {
        let ticket = (1 << 32) | n;
        match fleet.peer_exchange(
            0,
            Frame::VoteProbe {
                ticket,
                from: SiteId::new(1),
                to: SiteId::new(0),
            },
        ) {
            Some(Frame::CommitDelta {
                ticket: answered,
                state,
                base,
                puts,
                ..
            }) => {
                assert_eq!(answered, ticket);
                assert_eq!(state.version, base + 1);
                deltas.push((state.version, KvPuts::decode(&puts).expect("a put list")));
            }
            // Tickets not yet issued.
            Some(Frame::Abstain { .. }) => {}
            other => panic!("probe for ticket {ticket:#x}: {other:?}"),
        }
    }
    assert_eq!(deltas.len(), 2, "one ledgered delta per keyed batch");
    let (version, puts) = deltas.last().expect("two deltas");
    assert_eq!(*version, committed);
    assert_eq!(
        puts.0,
        vec![("probed".to_string(), b"the lost frame".to_vec())]
    );
    fleet.stop_and_read_disks();
}

/// A deep pipeline rewriting three keys two hundred times lands in a
/// handful of batches, each committing only the last put of a key in
/// it. Queue order still decides: the value every copy ends with is
/// the last one submitted, and the coordinator ledgered far fewer puts
/// than it was sent.
#[test]
fn a_run_rewriting_the_same_keys_commits_each_keys_last_put() {
    let fleet = boot();
    let conn = Connection::new(&fleet.addrs[0], ConnOptions::default());
    let deadline = Deadline::within(TIMEOUT);
    let pending: Vec<_> = (0..200u32)
        .map(|i| {
            let frame = Frame::PutKey {
                epoch: 1,
                shard: 0,
                key: format!("k{}", i % 3),
                value: i.to_be_bytes().to_vec(),
            };
            conn.submit(&frame, &deadline).expect("submit")
        })
        .collect();
    for pending in &pending {
        let outcome = conn.wait(pending, &deadline).expect("answered");
        assert!(matches!(outcome, Outcome::Done(_)), "{outcome:?}");
    }
    assert_eq!(fleet.get("k0"), 198u32.to_be_bytes());
    assert_eq!(fleet.get("k1"), 199u32.to_be_bytes());
    assert_eq!(fleet.get("k2"), 197u32.to_be_bytes());

    let batches: u64 = fleet.status(0)["batch.rounds"].parse().unwrap();
    let mut ledgered_puts = 0;
    for n in 1..=(2 * batches + 2) {
        if let Some(Frame::CommitDelta { puts, .. }) = fleet.peer_exchange(
            0,
            Frame::VoteProbe {
                ticket: (1 << 32) | n,
                from: SiteId::new(1),
                to: SiteId::new(0),
            },
        ) {
            let puts = KvPuts::decode(&puts).expect("a put list").0;
            assert!(puts.len() <= 3, "a key twice in one delta: {puts:?}");
            ledgered_puts += puts.len() as u64;
        }
    }
    assert!(
        (3..=3 * batches).contains(&ledgered_puts),
        "{ledgered_puts} puts ledgered over {batches} batches"
    );
    let disks = fleet.stop_and_read_disks();
    for (site, disk) in disks.iter().enumerate() {
        let map = decode_kv(&disk.1).expect("a KV image");
        assert_eq!(map["k1"], 199u32.to_be_bytes(), "S{site}'s disk");
    }
}

/// A keyed batch is one quorum round. At the coordinator no read runs
/// and one record is logged (the delta); at each voter two are — the
/// vote it cast and the delta it applied — and nothing else. On the
/// wire the round is two frames to each peer, START and COMMIT: every
/// voter acknowledged the commit, so no RELEASE follows. A keyed read
/// costs the same two.
#[test]
fn a_keyed_batch_is_one_round_and_two_records_at_a_voter() {
    let fleet = boot_snapshotting(1_000);
    fleet.put("warm", b"0");
    let logged: Vec<u64> = (0..SITES).map(|site| fleet.records_logged(site)).collect();
    let before = fleet.status(0);
    let base: u64 = before["version"].parse().unwrap();

    fleet.put("k", b"v");

    let after = fleet.status(0);
    let moved =
        |field: &str| after[field].parse::<u64>().unwrap() - before[field].parse::<u64>().unwrap();
    assert_eq!(moved("reads_ok"), 0, "the batch ran a quorum read");
    assert_eq!(moved("writes_ok"), 1);
    assert_eq!((moved("op"), moved("version")), (1, 1));
    assert_eq!(
        fleet.records_logged(0) - logged[0],
        1,
        "the coordinator's log"
    );
    for (voter, before) in logged.iter().enumerate().skip(1) {
        assert_eq!(fleet.records_logged(voter) - before, 2, "S{voter}'s log");
        assert_eq!(
            moved(&format!("peer.{voter}.sends")),
            2,
            "frames to S{voter}"
        );
    }
    assert_eq!(fleet.get("k"), b"v");
    let read = fleet.status(0);
    for voter in 1..SITES {
        let sends = format!("peer.{voter}.sends");
        assert_eq!(
            read[&sends].parse::<u64>().unwrap() - after[&sends].parse::<u64>().unwrap(),
            2,
            "frames to S{voter} for one GetKey run"
        );
    }
    // The batch's records, then the read's: a vote and the state-only
    // commit that absorbs it (at the coordinator, each commit point
    // alone: the record probes are answered from is its own install).
    let logs = fleet.stop_and_read_logs();
    for (site, log) in logs.iter().enumerate().skip(1) {
        match &log[log.len() - 4..] {
            [WalRecord::Vote { .. }, WalRecord::Delta {
                base: on, state, ..
            }, WalRecord::Vote { .. }, WalRecord::Commit { value: None, .. }] => {
                assert_eq!((*on, state.version), (base, base + 1), "S{site}");
            }
            tail => panic!("S{site} logged {tail:?} for the batch and the read"),
        }
    }
    let tail = &logs[0][logs[0].len() - 2..];
    assert!(
        matches!(
            tail,
            [WalRecord::CommitPoint { adopted: true, commit: batch, .. },
             WalRecord::CommitPoint { adopted: true, commit: read, .. }]
                if matches!(**batch, WalRecord::Delta { base: on, .. } if on == base)
                    && matches!(**read, WalRecord::Commit { value: None, .. })
        ),
        "S0 logged {tail:?}"
    );
}

/// The coordinator is cut off while S1 writes the shard, then healed
/// without RECOVER: it holds a copy one version behind and is out of
/// the partition set. Its next keyed batch polls, finds itself stale,
/// fetches the map from a current copy inside that vote, and commits a
/// delta on the version S1 and S2 voted with — which they log as a
/// delta and apply. Every key reads back: the ones from before, the
/// one the coordinator missed, and the one it just wrote.
#[test]
fn a_coordinator_one_version_behind_still_commits_a_delta() {
    let fleet = boot_snapshotting(1_000);
    fleet.put("before", &[7; 300]);

    fleet.isolate(0);
    let wrote = fleet.shard_req(
        1,
        Frame::PutKey {
            epoch: 1,
            shard: 0,
            key: "missed".to_string(),
            value: b"written while S0 was away".to_vec(),
        },
    );
    assert!(matches!(wrote, Outcome::Done(_)), "{wrote:?}");
    fleet.heal();

    let current: u64 = fleet.status(1)["version"].parse().unwrap();
    let stale = fleet.status(0);
    assert_eq!(stale["version"].parse::<u64>().unwrap() + 1, current);
    assert_eq!(fleet.status(1)["partition"], "1,2");

    fleet.put("after", b"from the stale coordinator");

    assert_eq!(fleet.get("before"), [7; 300]);
    assert_eq!(fleet.get("missed"), b"written while S0 was away");
    assert_eq!(fleet.get("after"), b"from the stale coordinator");
    assert_eq!(
        fleet.status(0)["version"],
        stale["version"],
        "the coordinator took no part in its own commit"
    );
    for voter in 1..SITES {
        let status = fleet.status(voter);
        assert_eq!(status["version"], (current + 1).to_string(), "S{voter}");
        assert_eq!(status["pending"], "false", "S{voter}");
    }
    let logs = fleet.stop_and_read_logs();
    for (site, log) in logs.iter().enumerate().skip(1) {
        let delta = log.iter().rev().find_map(|record| match record {
            WalRecord::Delta { base, delta, .. } => Some((*base, delta)),
            _ => None,
        });
        let (base, puts) = delta.unwrap_or_else(|| panic!("S{site} logged no delta: {log:?}"));
        assert_eq!(
            base, current,
            "S{site}: the delta is on the version it voted with"
        );
        assert_eq!(
            KvPuts::decode(puts).expect("a put list").0,
            vec![("after".to_string(), b"from the stale coordinator".to_vec())]
        );
    }
}

/// A run of K puts commits K versions, one per put, as serial puts
/// would: each reply names its own ⟨o, v⟩, and `writes_ok` and the
/// version each grow by the number of puts. The run still ships as ONE
/// delta on the version its voters polled at: a run of K > 1 is logged
/// as a commit point wrapping that delta at the coordinator and as a
/// `Delta` record at each voter, and the coordinator answers a vote
/// probe for its ticket with a `CommitDelta` on that base — not with
/// the image.
#[test]
fn a_run_of_puts_commits_one_version_per_put_as_one_delta() {
    let fleet = boot_snapshotting(1_000);
    fleet.put("warm", b"0");
    let before = fleet.status(0);
    let conn = Connection::new(&fleet.addrs[0], ConnOptions::default());
    let deadline = Deadline::within(TIMEOUT);
    let pending: Vec<_> = (0..60u32)
        .map(|i| {
            let frame = Frame::PutKey {
                epoch: 1,
                shard: 0,
                key: format!("k{i}"),
                value: i.to_be_bytes().to_vec(),
            };
            conn.submit(&frame, &deadline).expect("submit")
        })
        .collect();
    let mut versions = Vec::new();
    for pending in &pending {
        match conn.wait(pending, &deadline).expect("answered") {
            Outcome::Done(detail) => {
                let v = detail
                    .split_whitespace()
                    .find_map(|word| word.strip_prefix("v="))
                    .expect("a version in the grant");
                versions.push(v.parse::<u64>().expect("a number"));
            }
            other => panic!("{other:?}"),
        }
    }
    let after = fleet.status(0);
    let moved =
        |field: &str| after[field].parse::<u64>().unwrap() - before[field].parse::<u64>().unwrap();
    let base: u64 = before["version"].parse().unwrap();
    assert_eq!(versions, (base + 1..=base + 60).collect::<Vec<_>>());
    assert_eq!((moved("writes_ok"), moved("version")), (60, 60));
    assert!(moved("batch.rounds") < 60, "the puts never shared a round");

    // Probe every ticket the coordinator issued; a run of K > 1 answers
    // with its delta, K versions past its base.
    let rounds: u64 = after["batch.rounds"].parse().unwrap();
    let mut probed = Vec::new();
    for n in 1..=rounds + 2 {
        if let Some(Frame::CommitDelta { state, base, .. }) = fleet.peer_exchange(
            0,
            Frame::VoteProbe {
                ticket: (1 << 32) | n,
                from: SiteId::new(1),
                to: SiteId::new(0),
            },
        ) {
            probed.push((base, state.version));
        }
    }
    assert!(
        probed.iter().any(|(base, version)| version - base > 1),
        "no multi-put run was ledgered as a delta: {probed:?}"
    );

    let logs = fleet.stop_and_read_logs();
    let runs = |log: &[WalRecord], wrapped: bool| -> Vec<(u64, u64)> {
        log.iter()
            .filter_map(|record| match (record, wrapped) {
                (WalRecord::CommitPoint { commit, .. }, true) => match &**commit {
                    WalRecord::Delta { base, state, .. } => Some((*base, state.version)),
                    _ => None,
                },
                (WalRecord::Delta { base, state, .. }, false) => Some((*base, state.version)),
                _ => None,
            })
            .filter(|(base, version)| version - base > 1)
            .collect()
    };
    let at_coordinator = runs(&logs[0], true);
    assert!(!at_coordinator.is_empty(), "S0 logged {:?}", logs[0]);
    for (voter, log) in logs.iter().enumerate().skip(1) {
        assert_eq!(runs(log, false), at_coordinator, "S{voter}'s delta records");
    }
    assert!(
        probed
            .iter()
            .all(|run| run.1 - run.0 <= 1 || at_coordinator.contains(run)),
        "probe answers {probed:?} vs logged runs {at_coordinator:?}"
    );
}

/// An image that is not a canonical KV map — what a daemon that kept
/// whole-image values verbatim could have left on disk — is refused at
/// boot with `InvalidData` naming the files, not served. The empty
/// image is still the empty map.
#[test]
fn a_non_canonical_image_on_disk_is_refused_at_boot() {
    for (image, refused) in [(b"v0".to_vec(), true), (Vec::new(), false)] {
        let base = std::env::temp_dir().join(format!(
            "dynvote-delta-image-{}-{}",
            std::process::id(),
            image.len()
        ));
        let dir = shard_dir(&base, 0);
        std::fs::create_dir_all(&dir).expect("data dir");
        let (mut store, _) = SiteStore::open_with_fold(&dir, 0, fold_image).expect("a fresh store");
        let state = ReplicaState {
            op: 1,
            version: 1,
            partition: SiteSet::first_n(1),
        };
        store.seed(state, None, Some(image)).expect("seeded");
        drop(store);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let line = format!(
            "--site 0 --policy odv --peers 0={} --quiet --data-dir {}",
            listener.local_addr().expect("bound"),
            base.display()
        );
        let config =
            Config::parse_args(line.split_whitespace().map(str::to_string)).expect("config");
        match start_on(config, listener) {
            Err(error) if refused => {
                assert_eq!(error.kind(), ErrorKind::InvalidData, "{error}");
                assert!(error.to_string().contains("snapshot.bin"), "{error}");
            }
            Ok(daemon) if !refused => daemon.stop(),
            Err(error) => panic!("the empty image was refused: {error}"),
            Ok(daemon) => {
                daemon.stop();
                panic!("a non-canonical image was served");
            }
        }
        std::fs::remove_dir_all(&base).ok();
    }
}
