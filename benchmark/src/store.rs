//! The four store workloads: a durable loopback fleet, a key load, and
//! three ways of offering requests over one pipelined connection to
//! the shard's coordinator — one at a time (`serial`), as fast as 256
//! outstanding requests allow (`peak`), and on a fixed schedule
//! (`paced`) — followed by the output checks.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dynvote_control::ShardMap;
use dynvote_store::conn::{ConnOptions, Connection, Pending};
use dynvote_store::router::fetch_map;
use dynvote_store::wire::Frame;
use dynvote_store::{Deadline, Outcome};

use crate::fleet::{status_number, status_partition, Fleet, SHARD};
use crate::loadgen::{self, OpRecord};
use crate::probes::{self, Probe};
use crate::procfs::{self, ProcSample};
use crate::report::WorkloadResult;
use crate::stats::{self, Rng};
use crate::trace::Tracer;

/// One peer link fault: every coordinator–peer link gets `delay` each
/// way, and from the start of the second paced phase the link to
/// `silent_site` accepts and forwards nothing.
pub struct LinkFault {
    pub delay: Duration,
    pub silent_site: usize,
}

pub struct StoreSpec {
    pub name: &'static str,
    pub sites: usize,
    pub keys: usize,
    pub value_bytes: usize,
    /// 100 % `GetKey` when set, else 100 % `PutKey`.
    pub reads: bool,
    /// Requests per second of the paced phase.
    pub paced_rate: f64,
    pub fault: Option<LinkFault>,
}

/// Per-operation fixed costs do all the work and image bytes none
/// (64 × 128 B ≈ 10 KB image).
pub const PUT_SMALL: StoreSpec = StoreSpec {
    name: "put_small",
    sites: 3,
    keys: 64,
    value_bytes: 128,
    reads: false,
    paced_rate: 2000.0,
    fault: None,
};

/// The whole ≈300 KB image is read, decoded, re-encoded and shipped
/// into every COMMIT, WAL and the ledger per batch.
pub const PUT_LARGE: StoreSpec = StoreSpec {
    name: "put_large",
    sites: 3,
    keys: 2048,
    value_bytes: 128,
    reads: false,
    paced_rate: 300.0,
    fault: None,
};

/// The same image from the read side: quorum read, vote fsync at the
/// voters, full-image decode per coalesced run.
pub const GET_LARGE: StoreSpec = StoreSpec {
    name: "get_large",
    sites: 3,
    keys: 2048,
    value_bytes: 128,
    reads: true,
    paced_rate: 1000.0,
    fault: None,
};

/// The only workload where time is wire delay and timers.
pub const FAULTY_LINKS: StoreSpec = StoreSpec {
    name: "faulty_links",
    sites: 5,
    keys: 64,
    value_bytes: 128,
    reads: false,
    paced_rate: 100.0,
    fault: Some(LinkFault {
        delay: Duration::from_millis(1),
        silent_site: 4,
    }),
};

/// A request that has no answer after this long has failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
const LOAD_DEPTH: usize = 64;
const PEAK_DEPTH: usize = 256;
/// After the link goes silent, this much of the paced phase (at most
/// half of it) is the transition: its requests are sent and counted,
/// and left out of the median.
const TRANSITION: Duration = Duration::from_secs(1);

/// A submitted request; `pending` is `None` when it could not even be
/// sent.
struct Ticket {
    pending: Option<Pending>,
    key: usize,
    read: bool,
}

struct Generator {
    rng: Rng,
    keys: Vec<String>,
    /// The value of the last `PutKey` sent per key: what a read must
    /// return once every request has been granted in order.
    last_put: Vec<Vec<u8>>,
    value_bytes: usize,
    epoch: u64,
    reads: bool,
}

impl Generator {
    fn put(&mut self, key: usize) -> Frame {
        let mut value = vec![0u8; self.value_bytes];
        self.rng.fill(&mut value);
        self.last_put[key].clone_from(&value);
        Frame::PutKey {
            epoch: self.epoch,
            shard: SHARD,
            key: self.keys[key].clone(),
            value,
        }
    }

    fn get(&self, key: usize) -> Frame {
        Frame::GetKey {
            epoch: self.epoch,
            shard: SHARD,
            key: self.keys[key].clone(),
        }
    }

    /// Sends a request for `key`; `flush` pushes it onto the socket now
    /// (the open loop), otherwise the next wait does.
    fn send(&mut self, conn: &Connection, key: usize, read: bool, flush: bool) -> Ticket {
        let frame = if read { self.get(key) } else { self.put(key) };
        let pending = conn.submit(&frame, &Deadline::within(REQUEST_TIMEOUT)).ok();
        if flush {
            let _ = conn.flush();
        }
        Ticket { pending, key, read }
    }

    /// Sends the workload's next request, on a key the seed picks.
    fn issue(&mut self, conn: &Connection, flush: bool) -> Ticket {
        let key = self.rng.below(self.keys.len());
        self.send(conn, key, self.reads, flush)
    }
}

/// The answering side of the client: what a read must return, and
/// which keys' last write went unanswered.
struct Answers<'a> {
    conn: &'a Connection,
    /// Per key, the value a read must return.
    expected: &'a [Vec<u8>],
    /// Per key: its latest `PutKey` was refused or timed out, so the
    /// key may hold that value or the one before (a commit whose
    /// fan-out did not close is refused and may still have landed).
    /// Replies arrive in the order the requests went out, so a later
    /// granted put settles the key again.
    unsettled: &'a [AtomicBool],
}

impl Answers<'_> {
    /// Waits for a ticket's answer: a put must be granted, a read must
    /// return the expected value.
    fn wait(&self, ticket: Ticket) -> bool {
        let answer = ticket
            .pending
            .and_then(|p| self.conn.wait(&p, &Deadline::within(REQUEST_TIMEOUT)).ok());
        let ok = match answer {
            Some(Outcome::Done(_)) => !ticket.read,
            Some(Outcome::Value { value, .. }) => ticket.read && self.expected[ticket.key] == value,
            _ => false,
        };
        if !ticket.read {
            // Relaxed: read only after the waiting thread was joined.
            self.unsettled[ticket.key].store(!ok, Ordering::Relaxed);
        }
        ok
    }

    /// Sends `read` or write requests for every key in `keys` through
    /// a depth-64 pipeline and returns how many were not answered well.
    fn for_each_key(&self, generator: &mut Generator, keys: &[usize], read: bool) -> u64 {
        let mut failures = 0;
        let mut in_flight: VecDeque<Ticket> = VecDeque::with_capacity(LOAD_DEPTH);
        for &key in keys {
            if in_flight.len() == LOAD_DEPTH {
                failures += u64::from(!self.wait(in_flight.pop_front().expect("non-empty")));
            }
            in_flight.push_back(generator.send(self.conn, key, read, false));
        }
        for ticket in in_flight {
            failures += u64::from(!self.wait(ticket));
        }
        failures
    }
}

/// A booted, loaded fleet with its client.
struct Live {
    fleet: Fleet,
    shard_map: ShardMap,
    conn: Connection,
    generator: Generator,
    /// The values the load wrote, per key.
    loaded: Vec<Vec<u8>>,
    unsettled: Vec<AtomicBool>,
    load_failures: u64,
}

/// Set-up: boot the fleet (and relays), fetch the shard map, write
/// every key once through a depth-64 pipeline.
fn set_up(spec: &StoreSpec, seed: u64, data_root: &Path) -> Live {
    let fleet = Fleet::boot(spec.sites, data_root, spec.fault.as_ref().map(|f| f.delay));
    let shard_map =
        fetch_map(&fleet.addrs[0], Duration::from_secs(5)).expect("shard map from the coordinator");
    let conn = Connection::new(&fleet.addrs[0], ConnOptions::default());
    let mut generator = Generator {
        rng: Rng::new(seed),
        keys: (0..spec.keys).map(|i| format!("key-{i:05}")).collect(),
        last_put: vec![Vec::new(); spec.keys],
        value_bytes: spec.value_bytes,
        epoch: shard_map.epoch,
        reads: spec.reads,
    };
    let unsettled: Vec<AtomicBool> = (0..spec.keys).map(|_| AtomicBool::new(false)).collect();
    let every_key: Vec<usize> = (0..spec.keys).collect();
    let load_failures = Answers {
        conn: &conn,
        expected: &[],
        unsettled: &unsettled,
    }
    .for_each_key(&mut generator, &every_key, false);
    let loaded = generator.last_put.clone();
    Live {
        fleet,
        shard_map,
        conn,
        generator,
        loaded,
        unsettled,
        load_failures,
    }
}

/// The counters a phase boundary reads: `Status` at the coordinator
/// and one voter, and the coordinator's ledger file.
struct Scrape {
    coordinator: BTreeMap<String, String>,
    voter: BTreeMap<String, String>,
    ledger_bytes: u64,
}

impl Scrape {
    fn take(fleet: &Fleet, tracer: &Tracer, at: &str) -> Scrape {
        let scrape = Scrape {
            coordinator: fleet.status(0),
            voter: fleet.status(1),
            ledger_bytes: fleet.ledger_bytes(),
        };
        if tracer.enabled() {
            let proc = procfs::sample();
            let mut values: BTreeMap<String, f64> = scrape
                .coordinator
                .iter()
                .filter_map(|(k, v)| Some((format!("site0.{k}"), v.parse().ok()?)))
                .collect();
            values.insert("site0.ledger_bytes".to_string(), scrape.ledger_bytes as f64);
            values.insert("proc.cpu_s".to_string(), proc.cpu.as_secs_f64());
            values.insert("proc.write_bytes".to_string(), proc.write_bytes as f64);
            values.insert("proc.ctx_switches".to_string(), proc.ctx_switches as f64);
            values.insert("proc.threads".to_string(), proc.threads as f64);
            tracer.counters(at, values);
        }
        scrape
    }

    /// Sum of `peer.N.<field>` over the coordinator's peers.
    fn peers(&self, field: &str) -> f64 {
        self.coordinator
            .iter()
            .filter(|(k, _)| k.starts_with("peer.") && k.ends_with(field))
            .map(|(_, v)| v.parse().unwrap_or(0.0))
            .sum()
    }

    /// Records ever logged at a site: those the snapshot covers plus
    /// those in the log since.
    fn wal_records(status: &BTreeMap<String, String>) -> f64 {
        status_number(status, "durability.snapshot_seq")
            + status_number(status, "durability.wal_records")
    }
}

/// What one phase did, between two scrapes.
struct Phase {
    records: Vec<OpRecord>,
    before: Scrape,
    after: Scrape,
    proc_before: ProcSample,
    proc_after: ProcSample,
}

impl Phase {
    fn granted(&self) -> f64 {
        self.records.iter().filter(|r| r.ok).count() as f64
    }

    /// A coordinator counter's growth over the phase, per granted op.
    fn per_op(&self, of: impl Fn(&Scrape) -> f64) -> f64 {
        (of(&self.after) - of(&self.before)) / self.granted().max(1.0)
    }

    fn coordinator_delta(&self, key: &str) -> f64 {
        status_number(&self.after.coordinator, key) - status_number(&self.before.coordinator, key)
    }

    /// Process CPU time over the phase — daemons, relays and the load
    /// generator alike — per thousand granted requests.
    fn cpu_ms_per_kop(&self) -> f64 {
        (self.proc_after.cpu - self.proc_before.cpu).as_secs_f64() * 1e3
            / (self.granted().max(1.0) / 1e3)
    }

    fn disk_bytes_per_op(&self) -> f64 {
        (self.proc_after.write_bytes - self.proc_before.write_bytes) as f64
            / self.granted().max(1.0)
    }
}

/// Runs `offer` between scrapes; with tracing on, every request
/// becomes a `request` span with `submit` and `await` children that
/// share the request's number as their correlation id.
fn phase(
    name: &'static str,
    fleet: &Fleet,
    tracer: &Tracer,
    root: u64,
    offer: impl FnOnce() -> Vec<OpRecord>,
) -> Phase {
    let before = Scrape::take(fleet, tracer, &format!("{name}:start"));
    let span = tracer.open(name, root);
    let proc_before = procfs::sample();
    let records = offer();
    let proc_after = procfs::sample();
    if tracer.enabled() {
        for (i, r) in records.iter().enumerate() {
            let correlation = i as u64 + 1;
            let request = tracer.span("request", span.id(), correlation, r.due, r.done);
            tracer.span("submit", request, correlation, r.submit_start, r.submit_end);
            tracer.span("await", request, correlation, r.submit_end, r.done);
        }
    }
    tracer.close(span);
    let after = Scrape::take(fleet, tracer, &format!("{name}:end"));
    Phase {
        records,
        before,
        after,
        proc_before,
        proc_after,
    }
}

/// Runs one store workload for about `seconds` of measuring.
pub fn run(
    spec: &StoreSpec,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    root: u64,
) -> WorkloadResult {
    let started = Instant::now();
    let mut out = WorkloadResult::default();
    let data = crate::out_dir().join("data");
    let data_root = data.join(spec.name);

    // Set-up, several times over so its median is steady; the last
    // fleet is the one measured.
    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    while crate::sets_up_again(&setups) {
        if let Some(previous) = live.take() {
            drop(previous.conn);
            previous.fleet.shutdown();
        }
        let begin = Instant::now();
        let span = tracer.open("setup", root);
        live = Some(set_up(spec, seed, &data_root));
        tracer.close(span);
        setups.push(begin.elapsed().as_secs_f64());
    }
    out.set_sampled("setup_s", stats::median(&setups), setups.len());
    let Live {
        fleet,
        shard_map,
        conn,
        mut generator,
        loaded,
        unsettled,
        load_failures,
    } = live.expect("a run sets up at least once");
    let answers = Answers {
        conn: &conn,
        expected: &loaded,
        unsettled: &unsettled,
    };
    out.attempted += spec.keys as u64;
    out.failed += load_failures;

    // The phases share `seconds`. On a faulty workload the link goes
    // silent once the healthy phases are done, so that only the last
    // paced phase — the longest — runs under the fault.
    let faulty = spec.fault.is_some();
    let share = |fraction: f64| Duration::from_secs_f64(seconds * fraction);
    let serial = phase("serial", &fleet, tracer, root, || {
        loadgen::closed_loop(
            1,
            share(if faulty { 0.15 } else { 0.3 }),
            || generator.issue(&conn, false),
            |ticket| answers.wait(ticket),
        )
    });
    let peak = phase("peak", &fleet, tracer, root, || {
        loadgen::closed_loop(
            PEAK_DEPTH,
            share(if faulty { 0.2 } else { 0.3 }),
            || generator.issue(&conn, false),
            |ticket| answers.wait(ticket),
        )
    });
    let mut paced_phase = |name: &'static str, fraction: f64| {
        phase(name, &fleet, tracer, root, || {
            loadgen::open_loop(
                spec.paced_rate,
                share(fraction),
                || generator.issue(&conn, true),
                |ticket| answers.wait(ticket),
            )
        })
    };
    let mut healthy = None;
    let mut measured_from = Duration::ZERO;
    if let Some(fault) = &spec.fault {
        healthy = Some(paced_phase("paced-healthy", 0.15));
        fleet.relays[fault.silent_site - 1].set_silent(true);
        measured_from = TRANSITION.min(share(0.25));
    }
    let paced = paced_phase("paced", if faulty { 0.5 } else { 0.4 });

    // Output check 1: every key reads back as the last value sent for
    // it (the load's, on a read workload). A key whose last write went
    // unanswered may hold either of two values and is left out; there
    // can be no more of those than writes that failed.
    let settled: Vec<usize> = (0..spec.keys)
        .filter(|key| !unsettled[*key].load(Ordering::Relaxed))
        .collect();
    let wrong_values = Answers {
        expected: &generator.last_put.clone(),
        ..answers
    }
    .for_each_key(&mut generator, &settled, true);
    out.attempted += settled.len() as u64;
    out.failed += wrong_values;
    out.check(wrong_values == 0, || {
        format!(
            "{wrong_values} of {} keys did not read back as last written",
            settled.len()
        )
    });

    // Output check 2: every site of the coordinator's partition set P
    // holds the coordinator's version (a site outside P is stale by
    // design until it recovers), and the version grew by exactly the
    // batches the coordinator committed (a keyed batch is one write).
    let end = Scrape::take(&fleet, tracer, "end");
    let version = |status: &BTreeMap<String, String>| status_number(status, "version");
    let partition = status_partition(&end.coordinator);
    let versions: Vec<f64> = partition
        .iter()
        .map(|site| version(&fleet.status(*site)))
        .collect();
    out.check(
        !versions.is_empty() && versions.iter().all(|v| *v == version(&end.coordinator)),
        || format!("the sites of P = {partition:?} hold versions {versions:?}"),
    );
    let committed = status_number(&end.coordinator, "writes_ok")
        - status_number(&serial.before.coordinator, "writes_ok");
    let grew = version(&end.coordinator) - version(&serial.before.coordinator);
    let expected: Vec<usize> = (0..spec.sites)
        .filter(|site| Some(*site) != spec.fault.as_ref().map(|f| f.silent_site))
        .collect();
    if partition != expected {
        eprintln!(
            "warning: {}: the run ended with P = {partition:?}, not {expected:?}: a peer was \
             voted out (a stall longer than the read timeout), so this run had fewer voters \
             than the workload states and its numbers do not compare",
            spec.name
        );
    }

    // Output check 3: where no link is faulty nothing may be refused,
    // fail or time out. Under the fault a refusal is the system
    // degrading as designed — `failed` counts it and the run stands —
    // but every unsettled key and every version step the coordinator
    // did not count as committed must be owed to a failed request.
    let phases: Vec<&Phase> = [Some(&serial), Some(&peak), healthy.as_ref(), Some(&paced)]
        .into_iter()
        .flatten()
        .collect();
    let mut refused = 0;
    for phase in &phases {
        out.attempted += phase.records.len() as u64;
        refused += phase.records.iter().filter(|r| !r.ok).count() as u64;
    }
    out.failed += refused;
    let (attempted, failed) = (out.attempted, out.failed);
    out.check(faulty || failed == 0, || {
        format!("{failed} of {attempted} requests were not granted")
    });
    let uncounted = grew - committed;
    out.check((0.0..=refused as f64).contains(&uncounted), || {
        format!(
            "version grew by {grew} over {committed} committed batches with {refused} requests refused"
        )
    });
    let unsettled_keys = (spec.keys - settled.len()) as u64;
    out.check(unsettled_keys <= refused, || {
        format!("{unsettled_keys} keys unsettled by only {refused} refused requests")
    });

    // End to end. The latency a workload is gated on is the one its
    // fault-free or faulty nature makes telling: one request at a time
    // where nothing is wrong (fsync count × cost, no batching feedback
    // to amplify the disk's noise), from the due time where a peer is
    // silent (a serial median would hide the stalls between requests).
    let serial_ms = loadgen::latencies_ms(&serial.records);
    let measured: Vec<&OpRecord> = {
        let from = paced.records.first().map(|r| r.due + measured_from);
        paced
            .records
            .iter()
            .filter(|r| Some(r.due) >= from)
            .collect()
    };
    let paced_ms = loadgen::latencies_ms(measured.iter().copied());
    let gated_ms = if faulty { &paced_ms } else { &serial_ms };
    out.set_sampled("p50_ms", stats::percentile(gated_ms, 0.5), gated_ms.len());
    out.set_sampled(
        "peak_ops_per_s",
        loadgen::granted_rate(&peak.records),
        peak.records.len(),
    );
    out.set("cpu_ms_per_kop", paced.cpu_ms_per_kop());

    // Client-side figures that are not gated on every workload.
    out.set_sampled(
        "client.serial_p50_ms",
        stats::percentile(&serial_ms, 0.5),
        serial_ms.len(),
    );
    out.set_sampled(
        "client.paced_p50_ms",
        stats::percentile(&paced_ms, 0.5),
        paced_ms.len(),
    );
    if let Some(healthy) = &healthy {
        let healthy_ms = loadgen::latencies_ms(&healthy.records);
        out.set_sampled(
            "client.healthy_p50_ms",
            stats::percentile(&healthy_ms, 0.5),
            healthy_ms.len(),
        );
    }
    out.set("client.paced_p90_ms", stats::percentile(&paced_ms, 0.9));
    out.set("client.paced_p99_ms", stats::percentile(&paced_ms, 0.99));
    out.set("client.samples", paced_ms.len() as f64);
    let peak_ms = loadgen::latencies_ms(&peak.records);
    out.set_sampled(
        "client.peak_p50_ms",
        stats::percentile(&peak_ms, 0.5),
        peak_ms.len(),
    );
    let submit_us: Vec<f64> = paced
        .records
        .iter()
        .map(|r| r.submit_end.duration_since(r.submit_start).as_secs_f64() * 1e6)
        .collect();
    out.set("client.submit_us", stats::median(&submit_us));
    let late_ms = paced
        .records
        .iter()
        .map(|r| r.lateness().as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    out.set("client.late_max_ms", late_ms);
    if late_ms > 5.0 {
        eprintln!(
            "warning: {}: the generator ran {late_ms:.1} ms late in the paced phase; \
             its latencies include the generator's own stall",
            spec.name
        );
    }

    // Per layer, from the counters either side of a phase.
    out.set(
        "server.batch_ops_per_round",
        paced.coordinator_delta("batch.ops") / paced.coordinator_delta("batch.rounds").max(1.0),
    );
    out.set(
        "server.batch_max",
        status_number(&end.coordinator, "batch.max"),
    );
    out.set("tcp.sends_per_op", paced.per_op(|s| s.peers(".sends")));
    out.set("tcp.failures", end.peers(".failures"));
    out.set("tcp.reconnects", end.peers(".reconnects"));
    out.set(
        "cluster.rounds_per_op",
        paced.per_op(|s| {
            status_number(&s.coordinator, "reads_ok") + status_number(&s.coordinator, "writes_ok")
        }),
    );
    out.set(
        "wal.coordinator_records_per_op",
        serial.per_op(|s| Scrape::wal_records(&s.coordinator)),
    );
    out.set(
        "wal.voter_records_per_op",
        serial.per_op(|s| Scrape::wal_records(&s.voter)),
    );
    out.set(
        "ledger.file_bytes_per_op",
        serial.per_op(|s| s.ledger_bytes as f64),
    );
    out.set(
        "proc.ctx_switches_per_op",
        (paced.proc_after.ctx_switches as f64 - paced.proc_before.ctx_switches as f64)
            / paced.granted().max(1.0),
    );
    out.set("proc.threads", paced.proc_after.threads as f64);
    out.set("proc.disk_bytes_per_op", serial.disk_bytes_per_op());
    out.set("proc.disk_bytes_per_op_paced", paced.disk_bytes_per_op());
    out.set("proc.disk_bytes_per_op_peak", peak.disk_bytes_per_op());

    // Per layer, by timed calls (a traced run only: they take seconds).
    if tracer.enabled() {
        let probe = Probe {
            tracer,
            parent: root,
        };
        let rtt = probe.time(
            "server.status",
            200,
            1,
            || (),
            |()| {
                let answer = conn.call(&Frame::Status, &Deadline::within(REQUEST_TIMEOUT));
                assert!(
                    matches!(answer, Ok(Outcome::Report(_))),
                    "status: {answer:?}"
                );
            },
        );
        out.set("server.status_rtt_us", rtt * 1e6);
        let map: BTreeMap<String, Vec<u8>> = generator
            .keys
            .iter()
            .cloned()
            .zip(generator.last_put.iter().cloned())
            .collect();
        probes::codecs_and_bus(&probe, &map, &shard_map, &mut out);
        let image = dynvote_control::encode_kv(&map);
        probes::storage(&probe, &image, &data.join("probe"), &mut out);
        probes::core(&probe, &mut out);
    }

    drop(conn);
    fleet.shutdown();
    let proc_end = procfs::sample();
    out.set("proc.rss_peak_mb", proc_end.rss_peak_kib as f64 / 1024.0);
    out.set("proc.run_s", started.elapsed().as_secs_f64());
    out.correct = out.problems.is_empty();
    out
}
