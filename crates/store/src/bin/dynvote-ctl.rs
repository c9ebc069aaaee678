//! The control client for a live `dynvote-stored` cluster.
//!
//! ```text
//! dynvote-ctl --node 127.0.0.1:7100 --shard 0 putk file "new contents"
//! dynvote-ctl --node 127.0.0.1:7100 --shard 0 putk file bench --repeat 500 --pipeline 16
//! dynvote-ctl --node 127.0.0.1:7100 --shard 0 getk file
//! dynvote-ctl --node 127.0.0.1:7100 recover
//! dynvote-ctl --node 127.0.0.1:7100 status
//! dynvote-ctl --node 127.0.0.1:7100 deny 2 | allow 2 | heal-links
//! dynvote-ctl --nodes 0=127.0.0.1:7100,1=127.0.0.1:7101 replay fork.trace
//! ```
//!
//! Every daemon serves a shard map — one group on every site unless it
//! was started with `--shards N` — and each group's value is a
//! key → bytes map. The paper's one replicated file is one key of it
//! (`file` above). `putk`/`getk` with `--shard K` address shard `K`'s
//! group at `--node` itself: READ and WRITE at the site you name, as
//! in the paper. Without `--shard` they route themselves:
//!
//! ```text
//! dynvote-ctl --node 127.0.0.1:7100 putk user:42 "contents"   # routed by key
//! dynvote-ctl --node 127.0.0.1:7100 getk user:42
//! dynvote-ctl --node 127.0.0.1:7100 shardmap                  # print the map
//! dynvote-ctl --node 127.0.0.1:7100 rebalance 1 --add 3       # grow shard 1
//! dynvote-ctl --node 127.0.0.1:7100 rebalance 1 --drop 0      # shrink shard 1
//! dynvote-ctl --node 127.0.0.1:7100 --shard 1 status          # one shard group
//! ```
//!
//! Routed `putk`/`getk` fetch the shard map from `--node`, hash the
//! key, and talk to the owning shard's coordinator directly — retrying
//! through typed `StaleShardMap` answers, so they work across a
//! concurrent rebalance. `--shard K` addresses shard `K`'s group at
//! `--node` without routing (putk/getk/recover/status; `recover`
//! defaults to shard 0, and a `status` without it is the site's own:
//! map epoch, hosted shards, link rules).
//!
//! `--repeat N` (putk/getk with `--shard`) issues the operation N
//! times over ONE persistent, pipelined connection with up to
//! `--pipeline D` (default 16) requests outstanding — what a script
//! loop of one-shot invocations would measure is process spawn +
//! connect, not the store. Prints a one-line req/s summary.
//!
//! Exit codes: 0 granted, 1 refused or unavailable (the paper's
//! ABORT / a typed no-quorum answer), 2 usage or connection error,
//! 3 client-side deadline expired (the daemon never answered inside
//! `--timeout-ms` — it may be down or wedged, but this client did not
//! hang on it).
//!
//! Every operation honours `--timeout-ms` (default 5000) as a *hard*
//! deadline over the whole exchange: connect, send, and read.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dynvote_check::TraceFile;
use dynvote_store::client::{request_deadline, ClientError, Deadline, Outcome};
use dynvote_store::conn::{ConnOptions, Connection};
use dynvote_store::replay;
use dynvote_store::router::{fetch_map, ShardRouter};
use dynvote_store::wire::Frame;
use dynvote_types::SiteId;

fn fail(message: &str) -> ! {
    eprintln!("dynvote-ctl: {message}");
    eprintln!(
        "usage: dynvote-ctl --node ADDR (recover | status | deny SITE | allow SITE | \
         heal-links) [--shard K] [--timeout-ms N]\n       \
         dynvote-ctl --node ADDR [--shard K [--repeat N [--pipeline D]]] \
         (putk KEY VALUE | getk KEY) [--timeout-ms N]\n       \
         dynvote-ctl --node ADDR (shardmap | rebalance SHARD [--add SITE] \
         [--drop SITE]) [--timeout-ms N]\n       \
         dynvote-ctl --nodes 0=ADDR,1=ADDR,… replay FILE.trace [--timeout-ms N] \
         [--crash-cmd CMD]\n       \
         (--crash-cmd maps crash/repair events to `sh -c \"CMD crash S\"` / \
         `sh -c \"CMD restart S\"` — real kill -9 + restart-from-disk \
         instead of link isolation)\n       \
         exit codes: 0 granted, 1 refused/unavailable, 2 usage or \
         connection error, 3 deadline expired"
    );
    std::process::exit(2);
}

fn parse_site(value: &str) -> SiteId {
    value
        .parse::<usize>()
        .ok()
        .and_then(SiteId::try_new)
        .unwrap_or_else(|| fail(&format!("bad site index {value:?}")))
}

fn report(outcome: &Outcome) -> ! {
    match outcome {
        Outcome::Done(detail) => {
            println!("ok: {detail}");
            std::process::exit(0);
        }
        Outcome::Value { version, value } => {
            println!("{}", String::from_utf8_lossy(value));
            eprintln!("version={version}");
            std::process::exit(0);
        }
        Outcome::Report(text) => {
            print!("{text}");
            std::process::exit(0);
        }
        Outcome::Refused(message) => {
            eprintln!("refused: {message}");
            std::process::exit(1);
        }
        Outcome::Unavailable { reason, message } => {
            eprintln!("unavailable ({reason}): {message}");
            std::process::exit(1);
        }
        Outcome::ShardMap(bytes) => match dynvote_control::ShardMap::decode(bytes) {
            Ok(map) => {
                println!("epoch={}", map.epoch);
                println!("shards={}", map.shards.len());
                for (shard, spec) in map.shards.iter().enumerate() {
                    let placement: Vec<String> =
                        spec.placement.iter().map(usize::to_string).collect();
                    println!("shard.{shard}.placement={}", placement.join(","));
                }
                for (site, addr) in &map.sites {
                    println!("site.{site}.addr={addr}");
                }
                std::process::exit(0);
            }
            Err(error) => {
                eprintln!("dynvote-ctl: undecodable shard map: {error}");
                std::process::exit(2);
            }
        },
        Outcome::Stale { epoch } => {
            eprintln!("stale shard map: daemon is at epoch {epoch}");
            std::process::exit(1);
        }
    }
}

/// `--repeat` batch mode: `count` copies of `frame` over one
/// persistent connection, `depth` outstanding, then a req/s summary.
/// Never returns — exits with the usual codes (a single refusal or
/// error fails the whole batch).
fn run_repeated(node: &str, frame: &Frame, count: u64, depth: usize, timeout: Duration) -> ! {
    let conn = Connection::new(node, ConnOptions::default());
    let started = Instant::now();
    let mut inflight = VecDeque::with_capacity(depth);
    let reap = |inflight: &mut VecDeque<dynvote_store::conn::Pending>| {
        let Some(oldest) = inflight.pop_front() else {
            return;
        };
        match conn.wait(&oldest, &Deadline::within(timeout)) {
            Ok(outcome) if outcome.granted() => {}
            Ok(Outcome::Refused(message)) => {
                eprintln!("refused: {message}");
                std::process::exit(1);
            }
            Ok(Outcome::Unavailable { reason, message }) => {
                eprintln!("unavailable ({reason}): {message}");
                std::process::exit(1);
            }
            Ok(_) => unreachable!("granted() covered above"),
            Err(error @ ClientError::Timeout { .. }) => {
                eprintln!("dynvote-ctl: {node}: {error}");
                std::process::exit(3);
            }
            Err(error) => {
                eprintln!("dynvote-ctl: {node}: {error}");
                std::process::exit(2);
            }
        }
    };
    for _ in 0..count {
        match conn.submit(frame, &Deadline::within(timeout)) {
            Ok(pending) => inflight.push_back(pending),
            Err(error) => {
                eprintln!("dynvote-ctl: {node}: {error}");
                std::process::exit(2);
            }
        }
        if inflight.len() >= depth {
            reap(&mut inflight);
        }
    }
    while !inflight.is_empty() {
        reap(&mut inflight);
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "ok: {count} ops in {secs:.3}s ({:.0} req/s, pipeline {depth})",
        count as f64 / secs
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut node = None;
    let mut nodes: Vec<(usize, String)> = Vec::new();
    let mut timeout = Duration::from_secs(5);
    let mut crash_cmd: Option<String> = None;
    let mut repeat = 1u64;
    let mut pipeline = 16usize;
    let mut shard: Option<u16> = None;
    let mut add_site: Option<usize> = None;
    let mut drop_site: Option<usize> = None;
    let mut rest = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--node" => {
                node = Some(
                    iter.next()
                        .unwrap_or_else(|| fail("--node requires a value")),
                );
            }
            "--nodes" => {
                let list = iter
                    .next()
                    .unwrap_or_else(|| fail("--nodes requires a value"));
                for entry in list.split(',') {
                    let Some((site, addr)) = entry.split_once('=') else {
                        fail(&format!("--nodes: expected site=addr, got {entry:?}"));
                    };
                    nodes.push((parse_site(site.trim()).index(), addr.trim().to_string()));
                }
            }
            "--timeout-ms" => {
                let ms = iter
                    .next()
                    .unwrap_or_else(|| fail("--timeout-ms requires a value"));
                timeout = Duration::from_millis(
                    ms.parse()
                        .unwrap_or_else(|_| fail("bad --timeout-ms value")),
                );
            }
            "--crash-cmd" => {
                crash_cmd = Some(
                    iter.next()
                        .unwrap_or_else(|| fail("--crash-cmd requires a value")),
                );
            }
            "--repeat" => {
                let n = iter
                    .next()
                    .unwrap_or_else(|| fail("--repeat requires a value"));
                repeat = n.parse().unwrap_or_else(|_| fail("bad --repeat value"));
                if repeat == 0 {
                    fail("--repeat must be at least 1");
                }
            }
            "--shard" => {
                let k = iter
                    .next()
                    .unwrap_or_else(|| fail("--shard requires a value"));
                shard = Some(k.parse().unwrap_or_else(|_| fail("bad --shard value")));
            }
            "--add" => {
                let s = iter.next().unwrap_or_else(|| fail("--add requires a site"));
                add_site = Some(parse_site(&s).index());
            }
            "--drop" => {
                let s = iter
                    .next()
                    .unwrap_or_else(|| fail("--drop requires a site"));
                drop_site = Some(parse_site(&s).index());
            }
            "--pipeline" => {
                let d = iter
                    .next()
                    .unwrap_or_else(|| fail("--pipeline requires a value"));
                pipeline = d.parse().unwrap_or_else(|_| fail("bad --pipeline value"));
                if pipeline == 0 {
                    fail("--pipeline must be at least 1");
                }
            }
            _ => rest.push(arg),
        }
    }
    let mut rest = rest.into_iter();
    let command = rest.next().unwrap_or_else(|| fail("missing command"));
    if command == "replay" {
        let path = rest
            .next()
            .unwrap_or_else(|| fail("replay needs a trace file"));
        if nodes.is_empty() {
            fail("replay needs --nodes 0=addr,1=addr,…");
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let trace =
            TraceFile::parse(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
        println!(
            "# replaying {path}: {} sites, {} events",
            trace.scenario.sites,
            trace.events.len()
        );
        let options = replay::ReplayOptions { crash_cmd };
        let steps = replay::run_with(&trace, &nodes, timeout, &options)
            .unwrap_or_else(|e| fail(&format!("replay failed: {e}")));
        for (index, step) in steps.iter().enumerate() {
            println!("{:>3}. {:<14} -> {}", index + 1, step.event, step.outcome);
        }
        std::process::exit(0);
    }
    let node = node.unwrap_or_else(|| fail("--node is required"));
    match command.as_str() {
        // Routed keyed operations: map fetch + key hash + coordinator
        // dispatch, with typed stale-map retry — live across a
        // concurrent rebalance.
        "putk" | "getk" => {
            let key = rest
                .next()
                .unwrap_or_else(|| fail(&format!("{command} needs a key")));
            let value = (command == "putk")
                .then(|| rest.next().unwrap_or_else(|| fail("putk needs a value")));
            if let Some(shard) = shard {
                // One site: the frame in shard K's envelope is served
                // where it lands, under the map's current epoch.
                let epoch = fetch_map(&node, timeout)
                    .unwrap_or_else(|e| {
                        eprintln!("dynvote-ctl: {e}");
                        std::process::exit(2);
                    })
                    .epoch;
                let frame = match value {
                    Some(value) => Frame::PutKey {
                        epoch,
                        shard,
                        key,
                        value: value.into_bytes(),
                    },
                    None => Frame::GetKey { epoch, shard, key },
                }
                .for_shard(shard);
                if repeat > 1 {
                    run_repeated(&node, &frame, repeat, pipeline, timeout);
                }
                answer(&node, request_deadline(&node, &frame, timeout));
            }
            if repeat > 1 {
                fail("--repeat needs --shard K: one site, one connection");
            }
            let router = ShardRouter::new(vec![node.clone()], ConnOptions::default());
            let deadline = Deadline::within(timeout);
            answer(
                &node,
                match value {
                    Some(value) => router.put(&key, value.as_bytes(), &deadline),
                    None => router.get(&key, &deadline),
                },
            );
        }
        "rebalance" => {
            let shard_arg = rest
                .next()
                .unwrap_or_else(|| fail("rebalance needs a shard index"));
            let target: u16 = shard_arg
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad shard index {shard_arg:?}")));
            if add_site.is_none() && drop_site.is_none() {
                fail("rebalance needs --add SITE and/or --drop SITE");
            }
            match dynvote_store::router::rebalance(&node, target, add_site, drop_site, timeout) {
                Ok(steps) => {
                    for step in steps {
                        println!("ok: {step}");
                    }
                    std::process::exit(0);
                }
                Err(error) => {
                    eprintln!("dynvote-ctl: rebalance failed: {error}");
                    std::process::exit(1);
                }
            }
        }
        _ => {}
    }
    let frame = match command.as_str() {
        "recover" => Frame::Recover,
        "status" => Frame::Status,
        "deny" => Frame::Deny {
            site: parse_site(&rest.next().unwrap_or_else(|| fail("deny needs a site"))),
        },
        "allow" => Frame::Allow {
            site: parse_site(&rest.next().unwrap_or_else(|| fail("allow needs a site"))),
        },
        "heal-links" => Frame::HealLinks,
        "shardmap" => Frame::GetShardMap,
        other => fail(&format!("unknown command {other:?}")),
    };
    // RECOVER addresses one shard group (shard 0 unless `--shard`
    // names another); `status` does when asked to, and is the site's
    // own otherwise.
    let frame = match (&frame, shard) {
        (Frame::Recover, _) => frame.for_shard(shard.unwrap_or(0)),
        (Frame::Status, Some(shard)) => frame.for_shard(shard),
        (_, Some(_)) => fail("--shard applies to putk, getk, recover and status"),
        (_, None) => frame,
    };
    if repeat > 1 {
        fail("--repeat applies to putk and getk with --shard only");
    }
    answer(&node, request_deadline(&node, &frame, timeout));
}

/// Reports one exchange with `node` and exits with its code.
fn answer(node: &str, result: Result<Outcome, ClientError>) -> ! {
    match result {
        Ok(outcome) => report(&outcome),
        Err(error @ ClientError::Timeout { .. }) => {
            eprintln!("dynvote-ctl: {node}: {error}");
            std::process::exit(3);
        }
        Err(error) => {
            eprintln!("dynvote-ctl: {node}: {error}");
            std::process::exit(2);
        }
    }
}
