//! The concurrent client workload: while the nemesis swings, client
//! threads keep issuing reads and writes of the file key
//! ([`FILE_KEY`](crate::wire::FILE_KEY)) at random sites over one
//! pipelined [`Connection`] per site — keyed frames in a shard
//! envelope on the tagged session path real load uses, so every write
//! is a delta commit — reissuing when a stream dies under a request
//! (`call_until_answered`). Every operation resolves within its
//! deadline, by construction, and every resolution is classified.
//!
//! Write values are globally unique monotone tokens (`w1`, `w2`, …)
//! minted from one shared counter — the same trick the model checker's
//! world uses — so the lineage checks can reconstruct, from the grant
//! details alone, which write produced which `⟨o, v⟩` and detect a
//! split brain as two different tokens claiming the same version.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynvote_sim::SimRng;

use crate::client::{ClientError, Deadline, Outcome};
use crate::conn::{ConnOptions, Connection};
use crate::server::BOOT_EPOCH;
use crate::wire::{Frame, UnavailableReason};

/// How one operation resolved. Every issued operation gets exactly one
/// of these — the "no client hangs" guarantee made checkable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// The cluster granted it.
    Granted,
    /// The paper's ABORT (read/write refused by the quorum logic).
    Refused,
    /// A typed prompt "cannot serve this now" answer.
    Unavailable(UnavailableReason),
    /// No daemon answered before the per-op deadline.
    TimedOut,
    /// The daemon answered garbage — always a bug, never weather.
    Protocol(String),
}

/// One completed client operation.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Offset from workload start when the op was issued.
    pub at: Duration,
    /// The site it was sent to.
    pub site: usize,
    /// `true` for writes, `false` for reads.
    pub is_write: bool,
    /// The write's token number (`w{token}`), if a write.
    pub token: Option<u64>,
    /// For granted writes: the committed `⟨o, v⟩` parsed from the grant
    /// detail; for granted reads: `(0, version)` plus the value.
    pub commit: Option<(u64, u64)>,
    /// For granted reads: the value served.
    pub read_value: Option<String>,
    /// How it resolved.
    pub result: OpResult,
    /// Wall-clock time from issue to resolution.
    pub latency: Duration,
}

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// How many client threads run concurrently.
    pub clients: usize,
    /// Hard per-operation deadline (redials and reissues included).
    pub op_deadline: Duration,
    /// Probability an operation is a write.
    pub write_ratio: f64,
    /// Think time between operations, mean (exponential).
    pub think_mean: Duration,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            clients: 4,
            op_deadline: Duration::from_secs(3),
            write_ratio: 0.5,
            think_mean: Duration::from_millis(120),
        }
    }
}

/// Parses `o` and `v` out of a write grant detail
/// (`committed o=2 v=7 P={0,1,2}`) or a recover detail.
#[must_use]
pub fn parse_commit(detail: &str) -> Option<(u64, u64)> {
    let mut o = None;
    let mut v = None;
    for word in detail.split_whitespace() {
        if let Some(raw) = word.strip_prefix("o=") {
            o = raw.parse().ok();
        } else if let Some(raw) = word.strip_prefix("v=") {
            v = raw.parse().ok();
        }
    }
    Some((o?, v?))
}

/// A running workload: join to collect the records.
pub struct Workload {
    handles: Vec<std::thread::JoinHandle<Vec<OpRecord>>>,
    stop: Arc<AtomicBool>,
}

impl Workload {
    /// Starts `config.clients` threads against `addrs` (index = site).
    /// Each thread draws from its own [`SimRng`] substream of `seed`,
    /// so the op mix is reproducible even though timing is not.
    #[must_use]
    pub fn start(addrs: Vec<String>, config: WorkloadConfig, seed: u64) -> Workload {
        let stop = Arc::new(AtomicBool::new(false));
        let tokens = Arc::new(AtomicU64::new(0));
        let started = Instant::now();
        let handles = (0..config.clients)
            .map(|client| {
                let addrs = addrs.clone();
                let stop = Arc::clone(&stop);
                let tokens = Arc::clone(&tokens);
                std::thread::spawn(move || {
                    client_loop(client, &addrs, config, seed, started, &stop, &tokens)
                })
            })
            .collect();
        Workload { handles, stop }
    }

    /// Signals the threads to finish their in-flight op and collects
    /// every record.
    #[must_use]
    pub fn finish(self) -> Vec<OpRecord> {
        self.stop.store(true, Ordering::SeqCst);
        let mut records = Vec::new();
        for handle in self.handles {
            records.extend(handle.join().expect("workload thread panicked"));
        }
        records.sort_by_key(|r| r.at);
        records
    }
}

/// Issues `frame` until the daemon *answers* (grant, refusal, or typed
/// unavailability) or `deadline` runs out. A stream that dies with the
/// request in flight (`Unreachable`: a SIGKILLed daemon, a reset) is
/// weather, so the request is reissued; the redial and its backoff are
/// [`Connection::submit`]'s. A protocol error is a bug and is not
/// retried. Returns an answer, [`ClientError::Timeout`] or
/// [`ClientError::Protocol`] — never `Unreachable`.
fn call_until_answered(
    conn: &Connection,
    frame: &Frame,
    deadline: &Deadline,
) -> Result<Outcome, ClientError> {
    loop {
        match conn.call(frame, deadline) {
            Err(ClientError::Unreachable { .. }) => {}
            answer => return answer,
        }
    }
}

fn client_loop(
    client: usize,
    addrs: &[String],
    config: WorkloadConfig,
    seed: u64,
    started: Instant,
    stop: &AtomicBool,
    tokens: &AtomicU64,
) -> Vec<OpRecord> {
    let mut rng = SimRng::substream(seed, 0xC11E + client as u64);
    let conns: Vec<Connection> = addrs
        .iter()
        .map(|addr| Connection::new(addr, ConnOptions::default()))
        .collect();
    let mut records = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let site = rng.below(addrs.len());
        let is_write = rng.bernoulli(config.write_ratio);
        let token = if is_write {
            Some(tokens.fetch_add(1, Ordering::SeqCst) + 1)
        } else {
            None
        };
        // The fleet's map is the one it booted with: nothing installs
        // another.
        let frame = match token {
            Some(n) => Frame::put_file(BOOT_EPOCH, 0, format!("w{n}").into_bytes()),
            None => Frame::get_file(BOOT_EPOCH, 0),
        };
        let at = started.elapsed();
        let issued = Instant::now();
        let answer =
            call_until_answered(&conns[site], &frame, &Deadline::within(config.op_deadline));
        let latency = issued.elapsed();
        let mut commit = None;
        let mut read_value = None;
        let result = match answer {
            Ok(Outcome::Done(detail)) => {
                commit = parse_commit(&detail);
                OpResult::Granted
            }
            Ok(Outcome::Value { version, value }) => {
                commit = Some((0, version));
                read_value = Some(String::from_utf8_lossy(&value).into_owned());
                OpResult::Granted
            }
            Ok(Outcome::Refused(_)) => OpResult::Refused,
            Ok(Outcome::Unavailable { reason, .. }) => OpResult::Unavailable(reason),
            Ok(Outcome::Report(_)) => OpResult::Protocol("report to a data op".to_string()),
            Ok(Outcome::ShardMap(_)) => OpResult::Protocol("shard map to a data op".to_string()),
            Ok(Outcome::Stale { epoch }) => {
                OpResult::Protocol(format!("stale-map (epoch {epoch}) under the boot map"))
            }
            Err(ClientError::Timeout { .. }) => OpResult::TimedOut,
            // call_until_answered only surfaces Timeout or Protocol;
            // spell it out rather than swallow a future variant.
            Err(ClientError::Unreachable { detail }) => OpResult::Protocol(format!(
                "call_until_answered leaked Unreachable ({detail}) — reissue loop broken"
            )),
            Err(ClientError::Protocol { detail }) => OpResult::Protocol(detail),
        };
        records.push(OpRecord {
            at,
            site,
            is_write,
            token,
            commit,
            read_value,
            result,
            latency,
        });
        let think =
            Duration::from_secs_f64(rng.exponential(config.think_mean.as_secs_f64()).min(1.0));
        // Sleep in short slices so a stop request is honoured promptly.
        let until = Instant::now() + think;
        while Instant::now() < until && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commit_details() {
        assert_eq!(parse_commit("committed o=2 v=7 P={0,1,2}"), Some((2, 7)));
        assert_eq!(parse_commit("recovered: o=12 v=40 P={1}"), Some((12, 40)));
        assert_eq!(parse_commit("linked"), None);
    }

    #[test]
    fn an_op_whose_stream_resets_is_reissued_and_granted() {
        use crate::wire::{read_frame, write_frame};
        use std::io::Read as _;

        // First connection: accept, read the request, slam the door
        // with it in flight. Second connection: serve. The client's
        // first op rides the reset — it must come back Granted inside
        // its deadline, never Unreachable (which would be recorded as a
        // Protocol result).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            if let Ok((mut doomed, _)) = listener.accept() {
                let mut buf = [0u8; 64];
                let _ = doomed.read(&mut buf);
            }
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            while let Ok(Frame::Tagged { id, .. }) = read_frame(&mut stream) {
                let reply = Frame::Tagged {
                    id,
                    inner: Box::new(Frame::Done {
                        detail: "committed o=1 v=2 P={0}".into(),
                    }),
                };
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
        });
        let config = WorkloadConfig {
            clients: 1,
            op_deadline: Duration::from_secs(5),
            write_ratio: 0.5,
            think_mean: Duration::from_millis(10),
        };
        let workload = Workload::start(vec![addr], config, 7);
        std::thread::sleep(Duration::from_millis(400));
        let records = workload.finish();
        assert!(!records.is_empty(), "workload issued no ops");
        for record in &records {
            assert_eq!(record.result, OpResult::Granted, "{record:?}");
            assert!(
                record.latency < config.op_deadline,
                "op overran its deadline: {record:?}"
            );
        }
    }

    #[test]
    fn workload_against_nothing_still_terminates_with_all_ops_resolved() {
        // No daemon listening anywhere: every op must resolve as
        // TimedOut within its deadline — the no-hang guarantee.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let config = WorkloadConfig {
            clients: 2,
            op_deadline: Duration::from_millis(200),
            write_ratio: 0.5,
            think_mean: Duration::from_millis(10),
        };
        let workload = Workload::start(vec![addr], config, 7);
        std::thread::sleep(Duration::from_millis(600));
        let records = workload.finish();
        assert!(!records.is_empty(), "workload issued no ops");
        for record in &records {
            assert_eq!(record.result, OpResult::TimedOut, "{record:?}");
            assert!(
                record.latency < Duration::from_secs(2),
                "op overran its deadline: {record:?}"
            );
        }
    }
}
