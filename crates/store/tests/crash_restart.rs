//! Crash-restart integration: real `dynvote-stored` subprocesses on
//! loopback, killed with SIGKILL and restarted from their `--data-dir`.
//!
//! Two live assertions of the durability contract:
//!
//! * a node killed `-9` mid-workload restarts from snapshot + WAL,
//!   runs the paper's RECOVER in the background, and converges on the
//!   value the surviving majority committed while it was dead;
//! * fsync happens *before* the acknowledgement: with
//!   `--crash-after-wal-append` the daemon aborts between the WAL
//!   fsync and the client ack, the client sees a failure — and the
//!   restarted daemon still serves the write, proving the ack point
//!   sits strictly after stable storage — for a put of the file under
//!   MCV, whose record is the whole image, and for a keyed batch under
//!   ODV, whose record is a delta that only means something on top of
//!   the records before it;
//! * a large image defers its snapshot until the log has grown as
//!   large, so a kill can leave over a thousand delta records to
//!   replay — and the restart serves every one of them;
//! * a data directory with a log at its root (the layout of a daemon
//!   that kept its one group there) is refused, not seeded over;
//! * garbage after the last commit-point record may have been commit
//!   points: the restart fences the dead epochs, and a vote probe for
//!   one of their tickets above the surviving records is no longer
//!   answered with a release.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dynvote_replica::disk::inject_garbage_tail;
use dynvote_replica::wal::{shard_dir, WAL_FILE};
use dynvote_store::client::{request, Outcome};
use dynvote_store::server::BOOT_EPOCH;
use dynvote_store::wire::{read_frame, write_frame, Frame};
use dynvote_types::SiteId;

const STORED: &str = env!("CARGO_BIN_EXE_dynvote-stored");
const TIMEOUT: Duration = Duration::from_secs(10);

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dynvote-crash-restart-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reserves `n` distinct loopback ports by binding them all at once,
/// then releasing them for the daemons (who retry with
/// `--bind-retry-ms` if the kernel is slow to hand a port back).
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("bound").port())
        .collect()
}

/// The subprocess fleet; SIGKILLs every still-running child on drop so
/// a failing assertion never leaks daemons.
struct Fleet {
    children: Vec<Option<Child>>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_daemon(site: usize, ports: &[u16], data_dir: &Path, extra: &[&str]) -> Child {
    let peers: Vec<String> = ports
        .iter()
        .enumerate()
        .map(|(index, port)| format!("{index}=127.0.0.1:{port}"))
        .collect();
    Command::new(STORED)
        .args([
            "--site",
            &site.to_string(),
            "--policy",
            "odv",
            "--peers",
            &peers.join(","),
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--snapshot-every",
            "4",
            "--bind-retry-ms",
            "15000",
            "--boot-recover-ms",
            "20000",
            "--connect-timeout-ms",
            "500",
            "--read-timeout-ms",
            "2000",
            "--log",
            data_dir.join("daemon.log").to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dynvote-stored")
}

fn addr(ports: &[u16], site: usize) -> String {
    format!("127.0.0.1:{}", ports[site])
}

fn wait_status(target: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if request(target, &Frame::Status, TIMEOUT).is_ok() {
            return;
        }
        assert!(Instant::now() < deadline, "{target} never answered status");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A write of the file, served at the site it is sent to.
fn put_file(value: &str) -> Frame {
    Frame::put_file(BOOT_EPOCH, 0, value.as_bytes().to_vec())
}

/// Retries a put until the cluster grants it (a freshly shrunk or
/// freshly restarted cluster may refuse one round while views settle).
fn put_granted(target: &str, value: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(Outcome::Done(_)) = request(target, &put_file(value), TIMEOUT) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{target}: put {value:?} never granted"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Polls a get until it is granted with `expected` (a restarted node
/// needs its background RECOVER to land first).
fn wait_for_value(target: &str, expected: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(Outcome::Value { value, .. }) =
            request(target, &Frame::get_file(BOOT_EPOCH, 0), TIMEOUT)
        {
            if value == expected.as_bytes() {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "{target} never served {expected:?} after restart"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

#[test]
fn kill_nine_mid_workload_restarts_from_disk_and_recovers() {
    let ports = free_ports(3);
    let dirs: Vec<PathBuf> = (0..3).map(|s| scratch_dir(&format!("k9-s{s}"))).collect();
    let mut fleet = Fleet {
        children: (0..3)
            .map(|site| Some(spawn_daemon(site, &ports, &dirs[site], &[])))
            .collect(),
    };
    for site in 0..3 {
        wait_status(&addr(&ports, site));
    }

    put_granted(&addr(&ports, 0), "alpha");

    // SIGKILL site 2 — no shutdown path runs; disk is all it keeps.
    let mut victim = fleet.children[2].take().expect("site 2 running");
    victim.kill().expect("SIGKILL site 2");
    victim.wait().expect("reap site 2");

    // The surviving majority keeps committing while site 2 is down.
    put_granted(&addr(&ports, 0), "beta");
    put_granted(&addr(&ports, 1), "gamma");

    // Restart from the same data directory: local replay, then the
    // background RECOVER rejoins the majority and catches up.
    fleet.children[2] = Some(spawn_daemon(2, &ports, &dirs[2], &[]));
    wait_status(&addr(&ports, 2));
    wait_for_value(&addr(&ports, 2), "gamma");

    // The restarted node reports its durability counters.
    let report = shard_status(&addr(&ports, 2));
    assert!(
        report["durability.wal_records"].parse::<u64>().is_ok(),
        "{report:?}"
    );
    assert_eq!(
        report["durability.last_fsync"], "ok",
        "restarted node must have fsync'd since boot: {report:?}"
    );

    drop(fleet);
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn crash_between_wal_append_and_ack_still_durably_commits() {
    let ports = free_ports(1);
    let dir = scratch_dir("fsync-before-ack");
    // MCV commits an update as the whole image, never as a delta.
    let mcv = ["--policy", "mcv"];
    let mut fleet = Fleet {
        children: vec![Some(spawn_daemon(
            0,
            &ports,
            &dir,
            &["--policy", "mcv", "--crash-after-wal-append"],
        ))],
    };
    wait_status(&addr(&ports, 0));

    // The daemon fsyncs the commit, then aborts before acknowledging:
    // the client must NOT see a grant.
    let outcome = request(&addr(&ports, 0), &put_file("precious"), TIMEOUT);
    assert!(
        !matches!(outcome, Ok(Outcome::Done(_))),
        "crash hook fired before the ack, yet the put was acked: {outcome:?}"
    );
    let mut victim = fleet.children[0].take().expect("daemon running");
    victim.wait().expect("reap aborted daemon");

    // Restart without the hook: the unacknowledged write was already
    // on stable storage, so the restarted daemon serves it.
    fleet.children[0] = Some(spawn_daemon(0, &ports, &dir, &mcv));
    wait_status(&addr(&ports, 0));
    wait_for_value(&addr(&ports, 0), "precious");

    drop(fleet);
    std::fs::remove_dir_all(dir).ok();
}

/// One keyed request to the single-site shard's coordinator.
fn keyed(target: &str, frame: &Frame) -> std::io::Result<Outcome> {
    request(target, frame, TIMEOUT)
}

fn put_key(key: &str, value: &str) -> Frame {
    Frame::PutKey {
        epoch: 1,
        shard: 0,
        key: key.to_string(),
        value: value.as_bytes().to_vec(),
    }
}

fn wait_for_key(target: &str, key: &str, expected: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let get = Frame::GetKey {
        epoch: 1,
        shard: 0,
        key: key.to_string(),
    };
    loop {
        if let Ok(Outcome::Value { value, .. }) = keyed(target, &get) {
            assert_eq!(value, expected.as_bytes(), "key {key:?}");
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{target} never served key {key:?} after restart"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// The same fsync-before-ack proof for a keyed batch, whose WAL record
/// is a *delta*: the daemon logs ⟨base version, puts⟩, aborts before
/// the ack, and the restart must rebuild the map from the seed
/// snapshot, the earlier deltas and that last one — in order — and
/// serve every committed key.
#[test]
fn crash_after_wal_append_with_a_delta_record_restarts_serving_the_keys() {
    let ports = free_ports(1);
    let dir = scratch_dir("delta-fsync-before-ack");
    let sharded = ["--shards", "1", "--shard-placement", "ring:1"];
    let target = addr(&ports, 0);
    let mut fleet = Fleet {
        children: vec![Some(spawn_daemon(0, &ports, &dir, &sharded))],
    };
    wait_status(&target);
    // Two acknowledged batches first, so the crashing one is a delta on
    // top of deltas.
    for (key, value) in [("a", "1"), ("b", "2"), ("a", "3")] {
        let outcome = keyed(&target, &put_key(key, value));
        assert!(matches!(outcome, Ok(Outcome::Done(_))), "{outcome:?}");
    }
    let mut clean = fleet.children[0].take().expect("daemon running");
    clean.kill().expect("kill -9");
    clean.wait().expect("reap");

    let mut hooked: Vec<&str> = sharded.to_vec();
    hooked.push("--crash-after-wal-append");
    fleet.children[0] = Some(spawn_daemon(0, &ports, &dir, &hooked));
    wait_status(&target);
    let outcome = keyed(&target, &put_key("c", "unacknowledged"));
    assert!(
        !matches!(outcome, Ok(Outcome::Done(_))),
        "crash hook fired before the ack, yet the put was acked: {outcome:?}"
    );
    let mut victim = fleet.children[0].take().expect("daemon running");
    victim.wait().expect("reap aborted daemon");

    fleet.children[0] = Some(spawn_daemon(0, &ports, &dir, &sharded));
    wait_status(&target);
    wait_for_key(&target, "c", "unacknowledged");
    wait_for_key(&target, "a", "3");
    wait_for_key(&target, "b", "2");

    drop(fleet);
    std::fs::remove_dir_all(dir).ok();
}

/// The shard daemon's `status` fields at `target`.
fn shard_status(target: &str) -> std::collections::BTreeMap<String, String> {
    match request(target, &Frame::Status.for_shard(0), TIMEOUT) {
        Ok(Outcome::Report(text)) => dynvote_store::campaign::monitor::parse_status(&text),
        other => panic!("shard status: {other:?}"),
    }
}

/// A 256 KB image is not rewritten every 64 records: the snapshot waits
/// until the log is as large as the image, which 1,100 small keyed puts
/// do not reach. `kill -9` with all of them in the live log; the
/// restart replays the chain onto the seed snapshot and serves the
/// first put, the last, and the version they led to.
#[test]
fn kill_nine_with_over_a_thousand_deltas_in_the_log_restarts_serving_them() {
    const PUTS: usize = 1_100;
    let ports = free_ports(1);
    let dir = scratch_dir("long-delta-log");
    let sharded = [
        "--shards",
        "1",
        "--shard-placement",
        "ring:1",
        "--snapshot-every",
        "64",
    ];
    let target = addr(&ports, 0);
    let mut fleet = Fleet {
        children: vec![Some(spawn_daemon(0, &ports, &dir, &sharded))],
    };
    wait_status(&target);
    let ballast = "b".repeat(256 * 1024);
    let outcome = keyed(&target, &put_key("ballast", &ballast));
    assert!(matches!(outcome, Ok(Outcome::Done(_))), "{outcome:?}");
    // The ballast arrived as a delta on an empty image, so the first
    // snapshot — the one that makes the image 256 KB — is due at 64
    // records. Roll past it.
    for i in 0..64 {
        let outcome = keyed(&target, &put_key("warm", &i.to_string()));
        assert!(matches!(outcome, Ok(Outcome::Done(_))), "{outcome:?}");
    }
    let seeded = shard_status(&target)["durability.snapshot_seq"].clone();
    assert_ne!(seeded, "0", "the first snapshot lands at --snapshot-every");
    for i in 0..PUTS {
        let outcome = keyed(&target, &put_key(&format!("k{}", i % 50), &i.to_string()));
        assert!(
            matches!(outcome, Ok(Outcome::Done(_))),
            "put {i}: {outcome:?}"
        );
    }
    let before = shard_status(&target);
    assert_eq!(
        before["durability.snapshot_seq"], seeded,
        "the image was rewritten before the log reached its size"
    );
    let in_log: usize = before["durability.wal_records"].parse().unwrap();
    assert!(in_log > 1_000, "{in_log} records in the live log");

    let mut victim = fleet.children[0].take().expect("daemon running");
    victim.kill().expect("kill -9");
    victim.wait().expect("reap");
    fleet.children[0] = Some(spawn_daemon(0, &ports, &dir, &sharded));
    wait_status(&target);
    wait_for_key(&target, "k0", &(PUTS - 50).to_string());
    wait_for_key(&target, "k49", &(PUTS - 1).to_string());
    wait_for_key(&target, "ballast", &ballast);
    let after = shard_status(&target);
    assert_eq!(after["version"], before["version"]);
    assert_eq!(after["value_len"], before["value_len"]);

    drop(fleet);
    std::fs::remove_dir_all(dir).ok();
}

/// A directory whose root holds `wal.log` was written by a daemon that
/// kept its one group there. Booting a fresh group beside it would
/// serve the boot value in place of acknowledged data: the daemon
/// refuses to start, names where the files belong, and serves them once
/// they are there.
#[test]
fn a_data_dir_with_a_log_at_its_root_is_refused_not_seeded_over() {
    let ports = free_ports(1);
    let dir = scratch_dir("old-layout");
    let target = addr(&ports, 0);
    let mut fleet = Fleet {
        children: vec![Some(spawn_daemon(0, &ports, &dir, &[]))],
    };
    wait_status(&target);
    put_granted(&target, "acknowledged");
    let mut daemon = fleet.children[0].take().expect("daemon running");
    daemon.kill().expect("kill -9");
    daemon.wait().expect("reap");

    // Rebuild the old layout: the group's files at the root, no map.
    let group = shard_dir(&dir, 0);
    for entry in std::fs::read_dir(&group).unwrap() {
        let entry = entry.unwrap();
        std::fs::rename(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    std::fs::remove_dir(&group).unwrap();
    std::fs::remove_file(dir.join("shardmap.bin")).unwrap();
    assert!(dir.join(WAL_FILE).exists());

    let refused = Command::new(STORED)
        .args(["--site", "0", "--policy", "odv", "--peers"])
        .arg(format!("0={target}"))
        .arg("--data-dir")
        .arg(&dir)
        .output()
        .expect("run dynvote-stored");
    assert!(!refused.status.success(), "the daemon started: {refused:?}");
    let message = String::from_utf8_lossy(&refused.stderr);
    assert!(
        message.contains(WAL_FILE) && message.contains(group.to_str().unwrap()),
        "the refusal names the file and where it belongs: {message}"
    );
    assert!(
        !group.exists(),
        "a fresh group was seeded beside the old log"
    );

    // Moved where the message says, the acknowledged write is served.
    std::fs::create_dir(&group).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() && entry.file_name() != "daemon.log" {
            std::fs::rename(entry.path(), group.join(entry.file_name())).unwrap();
        }
    }
    fleet.children[0] = Some(spawn_daemon(0, &ports, &dir, &[]));
    wait_status(&target);
    wait_for_value(&target, "acknowledged");

    drop(fleet);
    std::fs::remove_dir_all(dir).ok();
}

/// The answer of site 0's shard daemon to a vote probe from S1.
fn probe(target: &str, ticket: u64) -> Frame {
    let mut stream = std::net::TcpStream::connect(target).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("set timeout");
    let probe = Frame::VoteProbe {
        ticket,
        from: SiteId::new(1),
        to: SiteId::new(0),
    };
    write_frame(&mut stream, &probe.for_shard(0)).expect("send");
    read_frame(&mut stream).expect("an answer")
}

/// A clean restart releases a dead epoch's unissued ticket above the
/// last commit point; after garbage at the log's end, which may have
/// been commit points, the restart fences every earlier epoch and the
/// same kind of probe is answered with an abstention. The commit point
/// before the garbage is still known.
#[test]
fn a_corrupt_wal_tail_fences_the_dead_epochs_it_may_have_hidden() {
    let ports = free_ports(1);
    let dir = scratch_dir("fence");
    let sharded = ["--shards", "1", "--shard-placement", "ring:1"];
    let target = addr(&ports, 0);
    let mut fleet = Fleet {
        children: vec![Some(spawn_daemon(0, &ports, &dir, &sharded))],
    };
    wait_status(&target);
    let outcome = keyed(&target, &put_key("a", "1"));
    assert!(matches!(outcome, Ok(Outcome::Done(_))), "{outcome:?}");
    // Tickets are ⟨site 0, boot epoch, n⟩.
    let ticket = |epoch: u64, n: u64| (epoch << 32) | n;
    let log = shard_dir(&dir, 0).join(WAL_FILE);
    for garbage in [None, Some([0xA5; 8])] {
        let mut daemon = fleet.children[0].take().expect("daemon running");
        daemon.kill().expect("kill -9");
        daemon.wait().expect("reap");
        if let Some(garbage) = garbage {
            inject_garbage_tail(&log, &garbage).expect("garbage");
        }
        fleet.children[0] = Some(spawn_daemon(0, &ports, &dir, &sharded));
        wait_status(&target);
        if garbage.is_none() {
            assert!(
                matches!(probe(&target, ticket(1, 1000)), Frame::Release { .. }),
                "a clean restart releases a dead epoch's ticket above the mark"
            );
        }
    }
    for dead in [ticket(1, 1000), ticket(2, 1000)] {
        let answer = probe(&target, dead);
        assert!(
            matches!(answer, Frame::Abstain { ticket, .. } if ticket == dead),
            "ticket {dead:#x}: {answer:?}"
        );
    }
    // The put committed with P = {S0}: its ticket releases S1.
    let answer = probe(&target, ticket(1, 1));
    assert!(
        matches!(&answer, Frame::Release { keep, .. } if keep.contains(SiteId::new(0))),
        "{answer:?}"
    );

    drop(fleet);
    std::fs::remove_dir_all(dir).ok();
}
