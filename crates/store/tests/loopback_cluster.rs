//! Loopback integration tests: real daemons, real sockets, real
//! partitions.
//!
//! The centrepiece is the paper's Figure 8 network — eight sites over
//! three segments — booted as eight in-process daemons on ephemeral
//! loopback ports, partitioned along its segment boundaries with the
//! runtime link rules, and driven through the ISSUE's scripted
//! partition/heal sequence for both ODV and OTDV. The assertions are
//! the protocols' contract:
//!
//! * the majority partition keeps granting reads and writes;
//! * every minority fragment refuses them (mutual exclusion — no
//!   fragment ever serves or commits a divergent value);
//! * after healing, recovery reintegrates every site onto the single
//!   surviving history.
//!
//! A separate test replays the same operation script against the
//! in-memory bus cluster and the TCP cluster and requires identical
//! grant/refuse decisions and identical final `⟨o, v, P⟩` state —
//! the transport-seam equivalence the refactor promises.
//!
//! The daemons are started without `--shards`: the paper's one
//! replicated file is the file key of shard 0 of a one-group map placed
//! on every site, and every data operation below is a keyed frame for
//! it in shard 0's envelope — served at the site it is sent to, one
//! version step per put.

mod common;

use std::collections::BTreeMap;
use std::time::Duration;

use common::{Fleet, TIMEOUT};
use dynvote_replica::{ClusterBuilder, Protocol};
use dynvote_store::client::{Deadline, Outcome};
use dynvote_store::conn::{ConnOptions, Connection};
use dynvote_store::server::BOOT_EPOCH;
use dynvote_store::wire::Frame;
use dynvote_types::{SiteId, SiteSet};

/// Boots one daemon per site on ephemeral loopback ports.
fn boot(policy: &str, sites: usize, topology: &str) -> Fleet {
    Fleet::boot(sites, &format!("--policy {policy} {topology}"))
}

impl Fleet {
    /// A frame for the fleet's one group.
    fn file_req(&self, site: usize, frame: Frame) -> Outcome {
        self.req(site, &frame.for_shard(0))
    }

    fn put(&self, site: usize, value: &str) -> Outcome {
        self.req(
            site,
            &Frame::put_file(BOOT_EPOCH, 0, value.as_bytes().to_vec()),
        )
    }

    fn get(&self, site: usize) -> Outcome {
        self.req(site, &Frame::get_file(BOOT_EPOCH, 0))
    }

    fn get_value(&self, site: usize) -> String {
        match self.get(site) {
            Outcome::Value { value, .. } => String::from_utf8_lossy(&value).into_owned(),
            other => panic!("expected a value at S{site}, got {other:?}"),
        }
    }

    fn status(&self, site: usize) -> BTreeMap<String, String> {
        match self.file_req(site, Frame::Status) {
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

    /// Cuts the cluster into the given groups: every daemon denies
    /// every site outside its own group. Re-applies from scratch, so
    /// successive partitions compose like the checker's.
    fn partition(&self, groups: &[&[usize]]) {
        let group_of = |site: usize| {
            groups
                .iter()
                .position(|g| g.contains(&site))
                .unwrap_or(usize::MAX)
        };
        for site in 0..self.addrs.len() {
            assert!(
                matches!(self.req(site, &Frame::HealLinks), Outcome::Done(_)),
                "heal-links at S{site}"
            );
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

const FIGURE_8: &str = "--segments main=0,1,2,3,4;second=5;third=6,7 --bridges 3=second;4=third";

/// The tentpole scenario: Figure 8 over real sockets, partitioned
/// along its segment boundaries, for one policy.
///
/// `deep_cut` additionally splits the *main* segment itself. That is
/// only sound for the non-topological policies: TDV/OTDV assume a
/// segment never partitions internally (the checker enumerates only
/// segment-boundary cuts for them), so the intra-segment split is
/// outside their fault model.
fn figure_8_partition_heal(policy: &str, deep_cut: bool) {
    let live = boot(policy, 8, FIGURE_8);

    // Whole cluster up: writes and remote reads are granted.
    assert!(live.put(0, "v1").granted(), "initial write at S0");
    assert_eq!(live.get_value(5), "v1", "read across the bridge at S5");

    // Cut along both bridges: {main} | {second} | {third}.
    live.partition(&[&[0, 1, 2, 3, 4], &[5], &[6, 7]]);

    // The majority partition (5 of 8) keeps working.
    assert!(live.put(0, "v2").granted(), "majority write after the cut");
    assert!(
        live.put(2, "v3").granted(),
        "majority write at a non-gateway"
    );

    // Mutual exclusion: every minority fragment refuses everything.
    for (site, label) in [(5, "second"), (6, "third"), (7, "third")] {
        assert!(
            !live.put(site, "poison").granted(),
            "write in minority segment {label} must be refused"
        );
        assert!(
            !live.get(site).granted(),
            "read in minority segment {label} must be refused"
        );
    }

    // Deeper cut inside the shrunk partition: P_m is now {0..4}, so
    // {0,1,2} is a strict majority of it while {3,4} is not.
    let last = if deep_cut {
        live.partition(&[&[0, 1, 2], &[3, 4], &[5], &[6, 7]]);
        assert!(
            live.put(1, "v4").granted(),
            "3 of the 5-site partition set is a strict majority"
        );
        assert!(
            !live.put(3, "poison").granted(),
            "2 of 5 must be refused (mutual exclusion inside the old majority)"
        );
        assert!(!live.put(5, "poison").granted());
        "v4"
    } else {
        "v3"
    };

    // Heal everything and reintegrate the stragglers. Absorption on
    // read only re-admits *current* copies, so every site that was cut
    // off must run the recovery protocol itself.
    live.heal();
    for site in [3, 4, 5, 6, 7] {
        let outcome = live.file_req(site, Frame::Recover);
        assert!(
            outcome.granted(),
            "recover at S{site} after heal: {outcome:?}"
        );
    }

    // Granted reads absorb every recovered site back into the
    // partition set; after them, the whole cluster agrees.
    for site in 0..8 {
        assert_eq!(
            live.get_value(site),
            last,
            "S{site} must serve the single surviving history"
        );
    }
    let reference = live.status(0);
    let all = SiteSet::first_n(8);
    for site in 0..8 {
        let status = live.status(site);
        assert_eq!(status["version"], reference["version"], "S{site} version");
        assert_eq!(status["op"], reference["op"], "S{site} op");
        let members: Vec<usize> = status["partition"]
            .split(',')
            .map(|s| s.parse().expect("site index"))
            .collect();
        assert_eq!(
            SiteSet::from_indices(members.iter().copied()),
            all,
            "S{site} partition set reabsorbed everyone"
        );
        // No minority fragment ever slipped a write through: only
        // the majority-side coordinators count any granted writes.
        if site > 2 {
            assert_eq!(
                status["writes_ok"], "0",
                "S{site} never coordinated a grant"
            );
        }
    }
    live.stop();
}

#[test]
fn figure_8_odv_survives_partition_and_heal() {
    figure_8_partition_heal("odv", true);
}

#[test]
fn figure_8_otdv_survives_partition_and_heal() {
    figure_8_partition_heal("otdv", false);
}

/// The transport-seam equivalence: the same operation script, run
/// through the in-memory bus cluster and through a live TCP cluster,
/// must produce the same grant/refuse decisions and the same final
/// per-site `⟨o, v, P⟩`.
#[test]
fn tcp_cluster_matches_in_memory_cluster() {
    // In-memory reference.
    let mut reference = ClusterBuilder::new()
        .copies([0, 1, 2])
        .protocol(Protocol::Odv)
        .build_with_value(b"v0".to_vec());
    let mut expected = Vec::new();
    expected.push(reference.write(SiteId::new(0), b"a".to_vec()).is_ok());
    reference.force_partition(vec![
        SiteSet::from_indices([0, 1]),
        SiteSet::from_indices([2]),
    ]);
    expected.push(reference.write(SiteId::new(0), b"b".to_vec()).is_ok());
    expected.push(reference.write(SiteId::new(2), b"x".to_vec()).is_ok());
    expected.push(reference.read(SiteId::new(2)).is_ok());
    reference.heal_partition();
    expected.push(reference.recover(SiteId::new(2)).is_ok());
    expected.push(reference.read(SiteId::new(2)).is_ok());
    assert_eq!(
        expected,
        vec![true, true, false, false, true, true],
        "the reference script itself"
    );

    // The same script over sockets.
    let live = boot("odv", 3, "");
    let mut actual = Vec::new();
    actual.push(live.put(0, "a").granted());
    live.partition(&[&[0, 1], &[2]]);
    actual.push(live.put(0, "b").granted());
    actual.push(live.put(2, "x").granted());
    actual.push(live.get(2).granted());
    live.heal();
    actual.push(live.file_req(2, Frame::Recover).granted());
    actual.push(live.get(2).granted());
    assert_eq!(actual, expected, "grant/refuse decisions diverged");

    // Identical final state at every site. Statuses first — a `get`
    // is itself an op and would advance the live counters mid-check.
    let statuses: Vec<_> = (0..3).map(|site| live.status(site)).collect();
    for (site, status) in statuses.iter().enumerate() {
        let state = reference.state_at(SiteId::new(site));
        assert_eq!(status["op"], state.op.to_string(), "S{site} op");
        assert_eq!(
            status["version"],
            state.version.to_string(),
            "S{site} version"
        );
        let members: Vec<usize> = status["partition"]
            .split(',')
            .map(|s| s.parse().expect("site index"))
            .collect();
        assert_eq!(
            SiteSet::from_indices(members.iter().copied()),
            state.partition,
            "S{site} partition set"
        );
    }
    for site in 0..3 {
        assert_eq!(live.get_value(site), "b", "S{site} value");
    }
    live.stop();
}

/// Pipelining under a stalled link: two requests go down ONE
/// connection, the first (a put) wedges in a quorum round whose peer
/// exchanges silently time out, and the second (a status probe) is
/// answered while the first is still in flight. The replies come back
/// out of order, and each is matched to *its* correlation id — the
/// status never receives the write's answer or vice versa.
///
/// The write takes exactly one read timeout. After the first poll
/// attempt's gathers time out, each peer link backs off for at least
/// half a second, so attempts two and three fail fast inside that
/// window. (With the suites' 10 ms backoff floor they did so only when
/// the second gather, re-armed with a 1 ms read timeout that lasts a
/// kernel timer tick of several ms, returned before the first link's
/// 5–10 ms jittered window ran out; otherwise each attempt reconnected
/// and waited out another 2 s read timeout, and the test took 6 s
/// instead of 2 s.)
#[test]
fn pipelined_responses_overtake_a_stalled_quorum_round() {
    const READ_TIMEOUT: Duration = Duration::from_millis(2_000);
    let live = boot("odv", 3, "--backoff-ms 1000 --backoff-cap-ms 1000");

    // Cut the link *at the peers only*: S1 and S2 silently ignore
    // frames from S0, so S0's poll waits out its read timeout instead
    // of refusing fast (S0's own outbound links stay open). That is
    // the stall — the cluster lock is held for seconds.
    for peer in [1, 2] {
        let done = live.req(
            peer,
            &Frame::Deny {
                site: SiteId::new(0),
            },
        );
        assert!(matches!(done, Outcome::Done(_)), "deny S0 at S{peer}");
    }

    let conn = Connection::new(&live.addrs[0], ConnOptions::default());
    let deadline = Deadline::within(TIMEOUT);
    let started = std::time::Instant::now();
    let stalled = conn
        .submit(
            &Frame::put_file(BOOT_EPOCH, 0, b"stalled".to_vec()),
            &deadline,
        )
        .expect("submit the write");
    let probe = conn
        .submit(&Frame::Status.for_shard(0), &deadline)
        .expect("submit status");
    assert_ne!(stalled.id(), probe.id(), "distinct correlation ids");

    // The status answer overtakes the write on the same socket. It is
    // bounded by the probe's 1.5s lock spin, not the multi-second
    // peer timeouts the write is sitting through.
    let report = conn.wait(&probe, &deadline).expect("status reply");
    let status_latency = started.elapsed();
    assert!(
        matches!(report, Outcome::Report(_)),
        "the status id must get the status answer, got {report:?}"
    );
    assert!(
        status_latency < Duration::from_millis(1900),
        "status took {status_latency:?} — it queued behind the stalled write"
    );

    // The write is still in flight; when it finally resolves it is a
    // (refused/unavailable) answer matched to the write's id, and it
    // genuinely sat through one peer read timeout — and only one: the
    // retries fail fast inside the links' backoff.
    let outcome = conn
        .wait(&stalled, &Deadline::within(Duration::from_secs(30)))
        .expect("write reply");
    let write_latency = started.elapsed();
    assert!(
        !outcome.granted(),
        "a 1-of-3 coordinator cannot have quorum, got {outcome:?}"
    );
    assert!(
        matches!(outcome, Outcome::Refused(_) | Outcome::Unavailable { .. }),
        "the write id must get the write answer, got {outcome:?}"
    );
    assert!(
        write_latency > status_latency,
        "the write resolved before the probe it was supposed to stall past"
    );
    assert!(
        write_latency >= Duration::from_millis(1900),
        "write resolved in {write_latency:?} — the link never stalled, \
         so this test proved nothing about overtaking"
    );
    assert!(
        write_latency < READ_TIMEOUT * 2,
        "write resolved in {write_latency:?} — a retry waited out another \
         {READ_TIMEOUT:?} read timeout instead of failing inside the backoff"
    );
    live.stop();
}

/// `dynvote-ctl status` speaks parseable key=value, including the
/// paper's `⟨o_i, v_i, P_i⟩` and per-link transport health.
#[test]
fn status_reports_policy_state_and_link_health() {
    let live = boot("ldv", 3, "");
    assert!(live.put(0, "hello").granted());
    let status = live.status(0);
    assert_eq!(status["site"], "0");
    assert_eq!(status["shard"], "0");
    assert_eq!(status["policy"], "LDV");
    assert_eq!(status["version"], "2");
    assert_eq!(status["partition"], "0,1,2");
    assert_eq!(status["writes_ok"], "1");
    assert_eq!(status["pending"], "false");
    assert_eq!(status["links_blocked"], "-");
    assert_eq!(status["peer.1.connected"], "true");
    assert_eq!(status["peer.2.connected"], "true");
    assert!(status.contains_key("peer.1.backoff_ms"));
    assert!(status.contains_key("peer.2.reconnects"));
    live.stop();
}

/// Under `--policy mcv` a read names the version it served: a site
/// that missed a put and reads after the heal is handed the put's value
/// together with the put's version, not its own stale one.
#[test]
fn an_mcv_read_reports_the_version_it_served() {
    let live = boot("mcv", 3, "");
    live.partition(&[&[0, 2], &[1]]);
    assert!(live.put(0, "x").granted(), "2 of 3 copies are a quorum");
    live.heal();
    match live.get(1) {
        Outcome::Value { version, value } => {
            assert_eq!((version, value.as_slice()), (2, b"x".as_slice()));
        }
        other => panic!("expected a value at S1, got {other:?}"),
    }
    live.stop();
}

/// The replay driver runs a real minimized checker trace from the
/// corpus against live daemons: the stale-read kernel stays clean.
#[test]
fn replay_drives_the_stale_read_kernel_live() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/odv-stale-kernel-clean.trace"
    );
    let text = std::fs::read_to_string(path).expect("corpus trace readable");
    let trace = dynvote_check::TraceFile::parse(&text).expect("corpus trace parses");
    assert_eq!(trace.scenario.sites, 3);

    let live = boot("odv", 3, "");
    let nodes: Vec<(usize, String)> = live
        .addrs
        .iter()
        .enumerate()
        .map(|(site, addr)| (site, addr.clone()))
        .collect();
    let steps = dynvote_store::replay::run(&trace, &nodes, TIMEOUT).expect("replay runs");
    assert_eq!(steps.len(), 4);
    // crash 0 / write 1 / repair 0 / read 0: the write lands past the
    // isolated copy, and the read after reintegration serves the
    // *current* value — the exact behavior the injected stale-read
    // fault breaks.
    assert!(steps[1].outcome.starts_with("granted"), "{:?}", steps[1]);
    assert!(steps[3].outcome.contains("w1"), "{:?}", steps[3]);
    live.stop();
}

/// Keyed puts in a shard envelope are served at the site they are sent
/// to, so two sites can run read-modify-writes of one group's map at
/// once. Under the wedging rules each update's poll wedges a majority,
/// so the two cannot both build on the same version: a contended round
/// may be refused (and is resent here), but every put either side had
/// acknowledged reads back afterwards, at every site.
fn enveloped_puts_at_two_sites_all_read_back(policy: &str) {
    let live = boot(policy, 3, "");
    let writers: Vec<_> = [0usize, 1]
        .into_iter()
        .map(|site| {
            let addr = live.addrs[site].clone();
            std::thread::spawn(move || {
                let conn = Connection::new(&addr, ConnOptions::default());
                let deadline = Deadline::within(TIMEOUT);
                let mut unacked: Vec<usize> = (0..40).collect();
                let mut acked = Vec::new();
                while !unacked.is_empty() && deadline.remaining().is_ok() {
                    let pending: Vec<_> = unacked
                        .iter()
                        .map(|&i| {
                            let frame = Frame::PutKey {
                                epoch: BOOT_EPOCH,
                                shard: 0,
                                key: format!("s{site}-k{i}"),
                                value: format!("from S{site} #{i}").into_bytes(),
                            }
                            .for_shard(0);
                            (i, conn.submit(&frame, &deadline).expect("submit"))
                        })
                        .collect();
                    unacked.clear();
                    for (i, pending) in pending {
                        match conn.wait(&pending, &deadline) {
                            Ok(Outcome::Done(_)) => acked.push(i),
                            _ => unacked.push(i),
                        }
                    }
                }
                acked
                    .into_iter()
                    .map(|i| (format!("s{site}-k{i}"), format!("from S{site} #{i}")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let per_site: Vec<Vec<(String, String)>> = writers
        .into_iter()
        .map(|writer| writer.join().expect("writer thread"))
        .collect();
    for (site, acked) in per_site.iter().enumerate() {
        assert!(
            !acked.is_empty(),
            "{policy}: no put sent to S{site} was acknowledged"
        );
    }
    for site in 0..3 {
        for (key, value) in per_site.iter().flatten() {
            let frame = Frame::GetKey {
                epoch: BOOT_EPOCH,
                shard: 0,
                key: key.clone(),
            }
            .for_shard(0);
            match live.req(site, &frame) {
                Outcome::Value { value: got, .. } => {
                    assert_eq!(got, value.as_bytes(), "{policy}: {key} at S{site}");
                }
                other => panic!("{policy}: acknowledged {key} reads {other:?} at S{site}"),
            }
        }
    }
    live.stop();
}

#[test]
fn odv_enveloped_puts_at_two_sites_all_read_back() {
    enveloped_puts_at_two_sites_all_read_back("odv");
}

#[test]
fn ldv_enveloped_puts_at_two_sites_all_read_back() {
    enveloped_puts_at_two_sites_all_read_back("ldv");
}
