//! The sharded fairness driver: a keyed closed loop over N independent
//! shard groups, written to `BENCH_shard.json` at the repo root.
//!
//! The load harness whose numbers gate a change is `benchmark/`
//! (durable daemons, pinned, open loop, per-layer counters; its
//! `peak_ops_per_s` is this closed loop at depth 256 on one shard).
//! This binary keeps the one thing only it does: it boots a loopback
//! fleet **in process** (real daemons, real sockets, the same
//! `TcpTransport` peer links, no data dir) hosting `--shards`
//! independent shard groups, gives every shard a closed-loop client —
//! thread *i* owns shard *i mod N*, pre-hashes a key pool onto it and
//! pipelines `PutKey`/`GetKey` at that shard's coordinator over one
//! persistent [`Connection`] — and reports the aggregate req/s, a
//! per-shard latency breakdown and a fairness summary.
//!
//! ```text
//! cargo run --release -p dynvote-bench --bin store_throughput -- \
//!     [--shards N] [--keys K] [--payload B] [--clients N] [--pipeline D] \
//!     [--write-pct P] [--secs S] [--policy odv] [--sites 3] \
//!     [--quick] [--out PATH]
//! ```
//!
//! `--shards` defaults to the committed configuration (4).
//! `--payload B` sets the value size of every write; `--keys K` sets
//! how many keys each shard's clients cycle (and so how large the
//! shard's replicated map is) — the two knobs the keys-per-shard sweep
//! in EXPERIMENTS.md turns.
//!
//! On a multi-core box the aggregate is expected to scale with shards
//! (independent quorums, independent batch fsyncs); on a single core
//! the gated property is *fairness* instead — every shard gets an even
//! slice of the one core (`fairness.max_over_min` close to 1), and the
//! aggregate stays within noise of one shard.
//!
//! What one keyed batch costs — one quorum round, four coordinator
//! frames, two voter log records — is asserted as exact equalities by
//! `delta_commits::a_keyed_batch_is_one_round_and_two_records_at_a_voter`
//! and reported by `benchmark/` as `cluster.rounds_per_op`,
//! `tcp.sends_per_op` and `wal.voter_records_per_op`.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use dynvote_store::client::request;
use dynvote_store::config::Config;
use dynvote_store::conn::{ConnOptions, Connection};
use dynvote_store::server::{start_on, ServiceHandle};
use dynvote_store::wire::Frame;
use dynvote_store::{Deadline, Outcome};

struct Args {
    clients: usize,
    pipeline: usize,
    write_pct: u64,
    secs: f64,
    policy: String,
    sites: usize,
    /// Independent shard groups the fleet hosts.
    shards: usize,
    /// Keys per shard the keyed clients cycle.
    keys: usize,
    /// Bytes per written value.
    payload: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 2,
        pipeline: 256,
        write_pct: 90,
        secs: 5.0,
        policy: "odv".to_string(),
        sites: 3,
        shards: 4,
        keys: 64,
        payload: 32,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--clients" => args.clients = value("--clients").parse().expect("--clients"),
            "--pipeline" => args.pipeline = value("--pipeline").parse().expect("--pipeline"),
            "--write-pct" => args.write_pct = value("--write-pct").parse().expect("--write-pct"),
            "--secs" => args.secs = value("--secs").parse().expect("--secs"),
            "--policy" => args.policy = value("--policy"),
            "--sites" => args.sites = value("--sites").parse().expect("--sites"),
            "--shards" => args.shards = value("--shards").parse().expect("--shards"),
            "--keys" => args.keys = value("--keys").parse().expect("--keys"),
            "--payload" => args.payload = value("--payload").parse().expect("--payload"),
            "--quick" => args.secs = 2.0,
            "--out" => args.out = Some(value("--out")),
            other => {
                eprintln!(
                    "error: unknown flag {other:?}\nusage: store_throughput \
                     [--clients N] [--pipeline D] [--write-pct P] [--secs S] \
                     [--policy NAME] [--sites N] [--shards N] [--keys K] [--payload B] \
                     [--quick] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(args.clients >= 1 && args.pipeline >= 1 && args.sites >= 1 && args.keys >= 1);
    assert!(args.shards >= 1, "--shards counts shard groups");
    assert!(args.write_pct <= 100, "--write-pct is a percentage");
    args
}

/// Boots a loopback fleet: ephemeral listeners first (so every config
/// names real addresses), then one daemon per site, then a status poll
/// until all accept. `--quiet` keeps the grant log off stderr — at the
/// rates this harness drives, the terminal would be the bottleneck.
fn boot_fleet(policy: &str, sites: usize, shards: usize) -> (Vec<ServiceHandle>, Vec<String>) {
    let listeners: Vec<TcpListener> = (0..sites)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    let peers = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| format!("{i}={a}"))
        .collect::<Vec<_>>()
        .join(",");
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let flags = format!(
                "--site {i} --policy {policy} --peers {peers} \
                 --shards {shards} --shard-placement ring:3 --quiet \
                 --connect-timeout-ms 250 --read-timeout-ms 2000 \
                 --backoff-ms 10 --backoff-cap-ms 100"
            );
            let config = Config::parse_args(flags.split_whitespace().map(str::to_string))
                .expect("bench config");
            start_on(config, listener).expect("daemon start")
        })
        .collect();
    for addr in &addrs {
        let up = (0..50).any(|_| {
            matches!(
                request(addr, &Frame::Status, Duration::from_millis(500)),
                Ok(Outcome::Report(_))
            )
        });
        assert!(up, "daemon at {addr} never answered status");
    }
    (handles, addrs)
}

/// What one client thread brings back.
struct ClientRun {
    /// (latency in µs, was a write) per completed request.
    samples: Vec<(u64, bool)>,
    refused: u64,
    errors: u64,
}

/// One closed-loop client: keep `depth` requests in flight on a single
/// pipelined connection until `end`, then drain. `request(is_write)`
/// builds each frame: the client owns one shard and cycles a
/// pre-hashed key pool, so it is a `PutKey`/`GetKey` at the shard's
/// coordinator (the epoch is fixed for the run: the bench never
/// rebalances, so a stale answer would be a bug and lands in the
/// refused count).
fn drive_client(
    addr: &str,
    depth: usize,
    write_pct: u64,
    seed: u64,
    end: Instant,
    mut request: impl FnMut(bool) -> Frame,
) -> ClientRun {
    let conn = Connection::new(addr, ConnOptions::default());
    let mut jitter = dynvote_store::jitter::Jitter::new(seed);
    let mut run = ClientRun {
        samples: Vec::with_capacity(1 << 16),
        refused: 0,
        errors: 0,
    };
    let mut inflight = VecDeque::with_capacity(depth);
    let reap =
        |run: &mut ClientRun,
         (pending, started, is_write): (dynvote_store::conn::Pending, Instant, bool)| {
            let wait_deadline = Deadline::within(Duration::from_secs(10));
            match conn.wait(&pending, &wait_deadline) {
                Ok(outcome) if outcome.granted() => {
                    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    run.samples.push((micros, is_write));
                }
                Ok(_) => run.refused += 1,
                Err(_) => run.errors += 1,
            }
        };
    while Instant::now() < end {
        while inflight.len() < depth {
            let is_write = jitter.in_range(0, 99) < write_pct;
            let submit_deadline = Deadline::within(Duration::from_secs(10));
            match conn.submit(&request(is_write), &submit_deadline) {
                Ok(pending) => inflight.push_back((pending, Instant::now(), is_write)),
                Err(_) => {
                    run.errors += 1;
                    break;
                }
            }
        }
        let Some(oldest) = inflight.pop_front() else {
            break;
        };
        reap(&mut run, oldest);
    }
    for leftover in inflight {
        reap(&mut run, leftover);
    }
    run
}

/// The `q`-th percentile (0.0–1.0) of a sorted sample vector, in µs.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn histogram_object(mut samples: Vec<u64>) -> String {
    samples.sort_unstable();
    format!(
        r#"{{ "count": {count}, "p50_us": {p50}, "p99_us": {p99}, "p999_us": {p999}, "max_us": {max} }}"#,
        count = samples.len(),
        p50 = percentile(&samples, 0.50),
        p99 = percentile(&samples, 0.99),
        p999 = percentile(&samples, 0.999),
        max = samples.last().copied().unwrap_or(0),
    )
}

fn histogram_json(label: &str, samples: Vec<u64>) -> String {
    format!(r#""{label}": {}"#, histogram_object(samples))
}

fn main() {
    let args = &parse_args();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "booting {} x {} loopback fleet ({} shards) ...",
        args.sites, args.policy, args.shards
    );
    let (handles, addrs) = boot_fleet(&args.policy, args.sites, args.shards);
    let map = dynvote_store::router::fetch_map(&addrs[0], Duration::from_secs(5))
        .expect("shard map from the fleet");
    assert_eq!(map.shards.len(), args.shards, "fleet built the wrong map");

    // Pre-hash a key pool onto every shard, then warm each key with
    // one write of the run's payload size, pipelined at the shard's
    // coordinator — a `GetKey` on a never-written key is a typed
    // refusal, which the fault-free gate below counts as a failure, and
    // the map must be at its full size before the clock starts.
    let mut pools: Vec<Vec<String>> = vec![Vec::new(); args.shards];
    let mut probe = 0u64;
    while pools.iter().any(|pool| pool.len() < args.keys) {
        let key = format!("bench-{probe}");
        probe += 1;
        let shard = map.shard_of(key.as_bytes()) as usize;
        if pools[shard].len() < args.keys {
            pools[shard].push(key);
        }
    }
    for (shard, pool) in pools.iter().enumerate() {
        let addr = map
            .coordinator_addr(shard as u16)
            .expect("coordinator addr");
        let conn = Connection::new(addr, ConnOptions::default());
        let mut inflight = VecDeque::with_capacity(args.pipeline);
        let settle = |pending: dynvote_store::conn::Pending| {
            let outcome = conn
                .wait(&pending, &Deadline::within(Duration::from_secs(30)))
                .expect("warmup put");
            assert!(outcome.granted(), "warmup put: {outcome:?}");
        };
        for key in pool {
            if inflight.len() == args.pipeline {
                settle(inflight.pop_front().expect("non-empty"));
            }
            let frame = Frame::PutKey {
                epoch: map.epoch,
                shard: shard as u16,
                key: key.clone(),
                value: vec![b'w'; args.payload],
            };
            let pending = conn
                .submit(&frame, &Deadline::within(Duration::from_secs(30)))
                .expect("warmup submit");
            inflight.push_back(pending);
        }
        inflight.into_iter().for_each(settle);
    }

    // One driver thread per shard slice; thread i owns shard i % N, so
    // every shard always has at least one closed loop on it.
    let threads = args.clients.max(args.shards);
    eprintln!(
        "driving: {threads} keyed clients x pipeline {} at {}% writes for {:.1}s ...",
        args.pipeline, args.write_pct, args.secs
    );
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(args.secs);
    let runs: Vec<(usize, ClientRun)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..threads)
            .map(|i| {
                let shard = i % args.shards;
                let addr = map
                    .coordinator_addr(shard as u16)
                    .expect("coordinator addr");
                let mut keys = pools[shard].iter().cycle();
                let epoch = map.epoch;
                let payload = vec![b'x'; args.payload];
                let request = move |is_write| {
                    let key = keys.next().expect("a non-empty pool").clone();
                    let shard = shard as u16;
                    if is_write {
                        Frame::PutKey {
                            epoch,
                            shard,
                            key,
                            value: payload.clone(),
                        }
                    } else {
                        Frame::GetKey { epoch, shard, key }
                    }
                };
                let seed = 0x5eed_1000 + i as u64;
                scope.spawn(move || {
                    let run = drive_client(addr, args.pipeline, args.write_pct, seed, end, request);
                    (shard, run)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|t| t.join().expect("keyed client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let mut all: Vec<u64> = Vec::new();
    let mut writes: Vec<u64> = Vec::new();
    let mut reads: Vec<u64> = Vec::new();
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); args.shards];
    let mut refused = 0u64;
    let mut errors = 0u64;
    for (shard, run) in runs {
        refused += run.refused;
        errors += run.errors;
        for (micros, is_write) in run.samples {
            all.push(micros);
            per_shard[shard].push(micros);
            if is_write {
                writes.push(micros);
            } else {
                reads.push(micros);
            }
        }
    }
    let completed = all.len() as u64;
    let rps = completed as f64 / wall;
    assert!(
        errors == 0 && refused == 0,
        "fault-free sharded run saw {refused} refusals / {errors} errors"
    );
    for handle in handles {
        handle.stop();
    }

    // The per-shard breakdown and the single-core fairness summary.
    let shard_rps: Vec<f64> = per_shard
        .iter()
        .map(|samples| samples.len() as f64 / wall)
        .collect();
    let min_rps = shard_rps.iter().copied().fold(f64::INFINITY, f64::min);
    let max_rps = shard_rps.iter().copied().fold(0.0f64, f64::max);
    let per_shard_json = per_shard
        .iter()
        .enumerate()
        .map(|(shard, samples)| {
            format!(
                r#"    "{shard}": {{ "requests_per_sec": {rps:.0}, "latency": {hist} }}"#,
                rps = shard_rps[shard],
                hist = histogram_object(samples.clone()),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        r#"{{
  "generated_by": "cargo run --release -p dynvote-bench --bin store_throughput -- --shards {shards}",
  "machine": {{ "cores": {cores} }},
  "cluster": {{ "policy": "{policy}", "sites": {sites}, "shards": {shards}, "placement": "ring:3", "durable": false }},
  "workload": {{ "clients": {threads}, "pipeline_depth": {pipeline}, "write_pct": {write_pct}, "payload_bytes": {payload}, "keys_per_shard": {keys_per_shard}, "secs": {wall:.3} }},
  "completed_requests": {completed},
  "requests_per_sec": {rps:.0},
  {hist_all},
  {hist_writes},
  {hist_reads},
  "per_shard": {{
{per_shard_json}
  }},
  "fairness": {{ "min_shard_rps": {min_rps:.0}, "max_shard_rps": {max_rps:.0}, "max_over_min": {ratio:.3} }},
  "note": "keyed closed-loop over {shards} independent shard groups, one pipelined coordinator connection per shard; on a multi-core host the aggregate scales with shards (independent quorums and batch commits) — on a single core the gated property is fairness (max_over_min near 1) with the aggregate within noise of one shard"
}}
"#,
        shards = args.shards,
        policy = args.policy,
        sites = args.sites,
        pipeline = args.pipeline,
        write_pct = args.write_pct,
        payload = args.payload,
        keys_per_shard = args.keys,
        hist_all = histogram_json("latency", all),
        hist_writes = histogram_json("write_latency", writes),
        hist_reads = histogram_json("read_latency", reads),
        ratio = if min_rps > 0.0 {
            max_rps / min_rps
        } else {
            f64::INFINITY
        },
    );

    let out = args.out.clone().unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json").to_string()
    });
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {out}: {e}");
        std::process::exit(1);
    });
    eprint!("{json}");
    eprintln!("wrote {out} ({rps:.0} req/s over {} shards)", args.shards);
}
