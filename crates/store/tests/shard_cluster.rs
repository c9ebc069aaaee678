//! Sharded-store integration tests: real daemons on loopback sockets,
//! each hosting several independent dynamic-voting shard groups.
//!
//! Three contracts from the ISSUE:
//!
//! * **Routing + independence** — keyed operations land on the owning
//!   shard's coordinator; each shard group runs its own `⟨o, v, P⟩`
//!   protocol, so one cut can refuse one shard's quorum while another
//!   shard keeps committing;
//! * **Rebalance liveness** — a client routing at epoch `e` works
//!   straight through an `e → e+1` placement change with zero *failed*
//!   requests (stale-map retries allowed) and no lost committed write;
//! * **Typed unavailability** — a dead control plane produces a typed
//!   error within the deadline, never a hang;
//! * **A durable install** — a map the daemon cannot persist is
//!   refused and not installed.

mod common;

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use common::{Fleet, TIMEOUT};
use dynvote_store::client::{request, Deadline, Outcome};
use dynvote_store::conn::ConnOptions;
use dynvote_store::router::{fetch_map, rebalance, ShardRouter};
use dynvote_store::wire::Frame;
use dynvote_types::SiteId;

/// Boots `sites` sharded daemons on ephemeral loopback ports.
fn boot(sites: usize, shards: usize, placement: &str) -> Fleet {
    Fleet::boot(
        sites,
        &format!("--policy odv --shards {shards} --shard-placement {placement}"),
    )
}

impl Fleet {
    /// A plain operation addressed to one shard group at one site,
    /// bypassing the router (admin-style shard envelope).
    fn shard_req(&self, site: usize, shard: u16, inner: Frame) -> Outcome {
        self.req(site, &inner.for_shard(shard))
    }

    fn status(&self, site: usize) -> BTreeMap<String, String> {
        report(self.req(site, &Frame::Status), site)
    }

    /// One shard group's status at `site`.
    fn shard_status(&self, site: usize, shard: u16) -> BTreeMap<String, String> {
        report(self.shard_req(site, shard, Frame::Status), site)
    }

    /// Cuts the fleet into groups at the link level (peer traffic only
    /// — clients still reach every daemon, as in a real asymmetric
    /// partition between datacenters).
    fn partition(&self, groups: &[&[usize]]) {
        let group_of = |site: usize| {
            groups
                .iter()
                .position(|g| g.contains(&site))
                .unwrap_or(usize::MAX)
        };
        for site in 0..self.addrs.len() {
            assert!(matches!(
                self.req(site, &Frame::HealLinks),
                Outcome::Done(_)
            ));
            for peer in 0..self.addrs.len() {
                if peer == site || group_of(peer) == group_of(site) {
                    continue;
                }
                let done = self.req(
                    site,
                    &Frame::Deny {
                        site: SiteId::new(peer),
                    },
                );
                assert!(matches!(done, Outcome::Done(_)), "deny S{peer} at S{site}");
            }
        }
    }

    fn heal(&self) {
        for site in 0..self.addrs.len() {
            assert!(matches!(
                self.req(site, &Frame::HealLinks),
                Outcome::Done(_)
            ));
        }
    }
}

/// A status body as `key → value`.
fn report(outcome: Outcome, site: usize) -> BTreeMap<String, String> {
    match outcome {
        Outcome::Report(text) => text
            .lines()
            .filter_map(|line| {
                line.split_once('=')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
            })
            .collect(),
        other => panic!("expected a status report from S{site}, got {other:?}"),
    }
}

/// Finds a key that hashes to `shard` under `map` — the test's keys
/// must provably exercise both shard groups.
fn key_for(map: &dynvote_control::ShardMap, shard: u16, tag: &str) -> String {
    for i in 0..10_000 {
        let key = format!("{tag}-{i}");
        if map.shard_of(key.as_bytes()) == shard {
            return key;
        }
    }
    panic!("no key hashed to shard {shard} in 10k tries — the hash is broken");
}

/// Routing correctness plus per-shard protocol independence: with
/// shard 0 on sites {0,1,2} and shard 1 on sites {1,2,3}, the cut
/// {0,1} | {2,3} leaves shard 0's quorum on the left and shard 1's on
/// the right. Each group decides from its *own* `⟨o, v, P⟩`; neither
/// outcome leaks into the other.
#[test]
fn shards_route_by_key_and_partition_independently() {
    let fleet = boot(4, 2, "ring:3");
    let router = ShardRouter::new(vec![fleet.addrs[0].clone()], ConnOptions::default());
    let deadline = Deadline::within(TIMEOUT);
    let map = router.map(&deadline).expect("map from the fleet");
    assert_eq!(map.epoch, 1);
    assert_eq!(map.shards.len(), 2);
    assert_eq!(map.shards[0].placement, vec![0, 1, 2]);
    assert_eq!(map.shards[1].placement, vec![1, 2, 3]);

    // Routed writes and reads across both shards.
    let k0 = key_for(&map, 0, "left");
    let k1 = key_for(&map, 1, "right");
    assert!(router
        .put(&k0, b"a0", &deadline)
        .expect("putk k0")
        .granted());
    assert!(router
        .put(&k1, b"a1", &deadline)
        .expect("putk k1")
        .granted());
    match router.get(&k0, &deadline).expect("getk k0") {
        Outcome::Value { value, .. } => assert_eq!(value, b"a0"),
        other => panic!("getk {k0}: {other:?}"),
    }
    match router.get(&k1, &deadline).expect("getk k1") {
        Outcome::Value { value, .. } => assert_eq!(value, b"a1"),
        other => panic!("getk {k1}: {other:?}"),
    }

    // The sharded status surface (satellite): map epoch, count, roles.
    let status = fleet.status(1);
    assert_eq!(status["shard.map_epoch"], "1");
    assert_eq!(status["shard.count"], "2");
    assert_eq!(status["shard.hosted"], "0,1");
    assert_eq!(status["shard.0.role"], "replica");
    assert_eq!(status["shard.1.role"], "coordinator");
    let unhosted = fleet.status(3);
    assert_eq!(unhosted["shard.hosted"], "1");

    // Cut {0,1} | {2,3}. Shard 0 (placement [0,1,2]) keeps 2-of-3 on
    // the left; shard 1 (placement [1,2,3]) keeps 2-of-3 on the right.
    fleet.partition(&[&[0, 1], &[2, 3]]);

    // Shard 0's quorum lives on the left: a read in shard 0's
    // envelope, served at the site it is sent to, is granted at S0 and
    // refused at S2. A granted dynamic-voting read is itself an op — it
    // shrinks shard 0's P to {0,1}.
    let read_at = |site: usize, shard: u16, key: &str| {
        let get = Frame::GetKey {
            epoch: map.epoch,
            shard,
            key: key.to_string(),
        };
        fleet.shard_req(site, shard, get).granted()
    };
    assert!(read_at(0, 0, &k0), "shard 0 has quorum at S0");
    assert!(!read_at(2, 0, &k0), "S2 is a 1-of-3 minority of shard 0");
    // Shard 1 is the mirror image: its quorum lives on the right.
    assert!(read_at(2, 1, &k1), "shard 1 has quorum at S2");
    assert!(!read_at(1, 1, &k1), "S1 is a 1-of-3 minority of shard 1");

    // The keyed (routed) paths agree: shard 0's coordinator S0 serves;
    // shard 1's coordinator S1 is quorumless, so the routed op comes
    // back typed (refused/unavailable after bounded retries) — never a
    // granted write into a minority.
    assert!(router
        .put(&k0, b"c0", &deadline)
        .expect("putk k0 under cut")
        .granted());
    let cut_deadline = Deadline::within(Duration::from_secs(5));
    // A typed client error after retries is equally sound here.
    if let Ok(outcome) = router.put(&k1, b"c1", &cut_deadline) {
        assert!(!outcome.granted(), "minority write granted: {outcome:?}");
    }

    // Heal, reintegrate each shard's straggler, and check both
    // histories survived independently.
    fleet.heal();
    assert!(fleet.shard_req(2, 0, Frame::Recover).granted());
    assert!(fleet.shard_req(1, 1, Frame::Recover).granted());
    match router.get(&k0, &deadline).expect("getk k0 after heal") {
        Outcome::Value { value, .. } => assert_eq!(value, b"c0"),
        other => panic!("getk {k0}: {other:?}"),
    }
    match router.get(&k1, &deadline).expect("getk k1 after heal") {
        Outcome::Value { value, .. } => assert_eq!(value, b"a1"),
        other => panic!("getk {k1}: {other:?}"),
    }

    // Independence in the protocol state: the two groups' per-shard
    // `⟨o, v, P⟩` lines at S1 (hosting both) are distinct streams.
    // (The sharded status samples each group with a try-lock and says
    // `busy` for one whose batch worker still holds its lock — as the
    // worker does for an instant after the reply above left. Ask again.)
    let sampled = (0..50).any(|_| {
        let status = fleet.status(1);
        let both = status.contains_key("shard.0.version") && status.contains_key("shard.1.version");
        if !both {
            std::thread::sleep(Duration::from_millis(20));
        }
        both
    });
    assert!(sampled, "S1 never reported both shard groups' state");
    fleet.stop();
}

/// A client routing at epoch 1 keeps working straight through the
/// scripted 1 → 2 rebalance (S3 joins shard 0 via protocol-level
/// RECOVER): zero failed requests — only typed stale-map retries —
/// and every committed write survives the epoch bump.
#[test]
fn clients_ride_through_a_rebalance_with_zero_failures() {
    let fleet = boot(4, 1, "ring:3");
    let bootstrap = fleet.addrs[0].clone();
    let map = fetch_map(&bootstrap, TIMEOUT).expect("initial map");
    assert_eq!(map.shards[0].placement, vec![0, 1, 2]);

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let bootstrap = bootstrap.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let router = ShardRouter::new(vec![bootstrap], ConnOptions::default());
            let mut committed: Vec<(String, String)> = Vec::new();
            let mut failures: Vec<String> = Vec::new();
            let mut round = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) || round < 8 {
                round += 1;
                let key = format!("k{}", round % 4);
                let value = format!("v{round}");
                let deadline = Deadline::within(TIMEOUT);
                match router.put(&key, value.as_bytes(), &deadline) {
                    Ok(outcome) if outcome.granted() => committed.push((key, value)),
                    Ok(other) => failures.push(format!("put {key}: {other:?}")),
                    Err(error) => failures.push(format!("put {key}: {error}")),
                }
            }
            (committed, failures, router.stale_retries())
        })
    };

    // Let the writer commit at epoch 1, then rebalance under it.
    std::thread::sleep(Duration::from_millis(300));
    let steps = rebalance(&bootstrap, 0, Some(3), None, TIMEOUT).expect("rebalance add S3");
    assert!(
        steps.iter().any(|s| s.contains("recovered into shard 0")),
        "rebalance ran RECOVER at the joiner: {steps:?}"
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (committed, failures, stale_retries) = writer.join().expect("writer thread");

    // A handoff is not a restart: the successors at the old placement
    // installed their predecessors' live state, so none of them ran a
    // boot RECOVER against the writer.
    for site in 0..3 {
        let status = fleet.shard_status(site, 0);
        assert_eq!(
            (&status["recovers_ok"][..], &status["recovers_refused"][..]),
            ("0", "0"),
            "shard 0's successor at S{site} ran RECOVER after the handoff"
        );
    }

    assert!(
        failures.is_empty(),
        "failed requests across the rebalance: {failures:?}"
    );
    assert!(
        !committed.is_empty(),
        "the writer never committed anything — the test exercised nothing"
    );
    let _ = stale_retries; // zero is fine if the writer raced past the bump

    // The map moved: epoch 2, S3 in the placement, and S3 actually
    // hosts the shard now.
    let map = fetch_map(&bootstrap, TIMEOUT).expect("post-rebalance map");
    assert_eq!(map.epoch, 2);
    assert_eq!(map.shards[0].placement, vec![0, 1, 2, 3]);
    let status = fleet.status(3);
    assert_eq!(status["shard.hosted"], "0");

    // No committed write was lost: the last committed value per key is
    // exactly what the post-rebalance store serves.
    let router = ShardRouter::new(vec![bootstrap], ConnOptions::default());
    let mut last: BTreeMap<String, String> = BTreeMap::new();
    for (key, value) in committed {
        last.insert(key, value);
    }
    for (key, expected) in last {
        let deadline = Deadline::within(TIMEOUT);
        match router.get(&key, &deadline).expect("getk after rebalance") {
            Outcome::Value { value, .. } => {
                assert_eq!(
                    String::from_utf8_lossy(&value),
                    expected,
                    "key {key} lost or forked across the epoch bump"
                );
            }
            other => panic!("getk {key}: {other:?}"),
        }
    }
    fleet.stop();
}

/// A dead control plane is a *typed*, bounded failure: routing against
/// an address nobody listens on errors out inside the deadline instead
/// of hanging, and the error is a client-typed one.
#[test]
fn dead_control_plane_fails_typed_within_the_deadline() {
    // Bind-then-drop: a loopback port that is guaranteed dead.
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.local_addr().expect("bound").to_string()
    };
    let router = ShardRouter::new(vec![dead], ConnOptions::default());
    let started = Instant::now();
    let result = router.put("k", b"v", &Deadline::within(Duration::from_secs(2)));
    let elapsed = started.elapsed();
    assert!(result.is_err(), "a dead fleet granted a write: {result:?}");
    assert!(
        elapsed < Duration::from_secs(8),
        "the router hung for {elapsed:?} on a dead control plane"
    );
}

/// A shard map the daemon cannot persist is refused and left
/// uninstalled — a restart would boot the old map, so `Done` would be
/// a promise the disk did not keep. Once the disk takes it, the same
/// install goes through.
#[test]
fn a_shard_map_that_cannot_be_persisted_is_refused() {
    let fleet = Fleet::boot(1, "--policy odv --quiet");
    let addr = fleet.addrs[0].clone();
    let mut map = fetch_map(&addr, TIMEOUT).expect("boot map");
    map.epoch += 1;
    let install = Frame::InstallShardMap { map: map.encode() };
    // A directory where the map's temporary file goes: the write fails.
    let blocker = fleet.data_dir(0).join("shardmap.tmp");
    std::fs::create_dir(&blocker).expect("block the temporary file");
    let refused = request(&addr, &install, TIMEOUT);
    assert!(matches!(refused, Ok(Outcome::Refused(_))), "{refused:?}");
    assert_eq!(fetch_map(&addr, TIMEOUT).expect("map").epoch, map.epoch - 1);
    std::fs::remove_dir(&blocker).expect("unblock");
    let installed = request(&addr, &install, TIMEOUT);
    assert!(matches!(installed, Ok(Outcome::Done(_))), "{installed:?}");
    assert_eq!(fetch_map(&addr, TIMEOUT).expect("map").epoch, map.epoch);
    fleet.stop();
}
