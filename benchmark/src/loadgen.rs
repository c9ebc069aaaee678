//! The load generator: a closed loop (the next request goes out when
//! one completes) and an open loop (requests go out on a fixed
//! schedule whatever the system does). Both are written against a
//! `submit`/`wait` pair so they can be tested without a fleet.
//!
//! Load is generated on the CPU the daemons run on — the benchmark is
//! pinned to one — so the open loop sleeps between sends and never
//! spins, and every CPU figure states that the generator is included.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::stats;

/// One request's life, as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// When the schedule wanted it sent (closed loop: when it was).
    pub due: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub done: Instant,
    /// Granted, and with the expected answer.
    pub ok: bool,
}

impl OpRecord {
    /// Latency from the due time: a stall is charged to every request
    /// that was due during it, not only to the one that hit it.
    pub fn latency(&self) -> Duration {
        self.done.duration_since(self.due)
    }

    /// How late the generator itself sent the request.
    pub fn lateness(&self) -> Duration {
        self.submit_start.duration_since(self.due)
    }
}

/// Keeps `depth` requests in flight for `duration`, then drains.
/// `submit` may buffer; `wait` must flush before it blocks.
pub fn closed_loop<T>(
    depth: usize,
    duration: Duration,
    mut submit: impl FnMut() -> T,
    mut wait: impl FnMut(T) -> bool,
) -> Vec<OpRecord> {
    let end = Instant::now() + duration;
    let mut records = Vec::new();
    let mut in_flight: VecDeque<(T, Instant, Instant)> = VecDeque::with_capacity(depth);
    let mut reap = |(ticket, submit_start, submit_end): (T, Instant, Instant)| {
        let ok = wait(ticket);
        records.push(OpRecord {
            due: submit_start,
            submit_start,
            submit_end,
            done: Instant::now(),
            ok,
        });
    };
    while Instant::now() < end {
        while in_flight.len() < depth {
            let submit_start = Instant::now();
            let ticket = submit();
            in_flight.push_back((ticket, submit_start, Instant::now()));
        }
        reap(in_flight.pop_front().expect("depth is at least 1"));
    }
    in_flight.into_iter().for_each(reap);
    records
}

/// Sends `rate × duration` requests, request `i` due at `i / rate`
/// after the start, from this thread; a second thread waits for the
/// replies in order. A request whose due time has passed goes out at
/// once, so a stall is followed by a burst, as with real arrivals.
pub fn open_loop<T: Send>(
    rate: f64,
    duration: Duration,
    mut submit: impl FnMut() -> T,
    wait: impl Fn(T) -> bool + Sync,
) -> Vec<OpRecord> {
    let count = (rate * duration.as_secs_f64()).floor() as usize;
    let (issued_tx, issued_rx) = mpsc::channel::<(T, Instant, Instant, Instant)>();
    std::thread::scope(|scope| {
        let reaper = scope.spawn(|| {
            let mut records = Vec::with_capacity(count);
            for (ticket, due, submit_start, submit_end) in issued_rx {
                let ok = wait(ticket);
                records.push(OpRecord {
                    due,
                    submit_start,
                    submit_end,
                    done: Instant::now(),
                    ok,
                });
            }
            records
        });
        let start = Instant::now();
        for i in 0..count {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let submit_start = Instant::now();
            let ticket = submit();
            issued_tx
                .send((ticket, due, submit_start, Instant::now()))
                .expect("the reaper outlives the pacer");
        }
        drop(issued_tx);
        reaper.join().expect("reaper thread panicked")
    })
}

/// Latencies in milliseconds, ascending.
pub fn latencies_ms<'a>(records: impl IntoIterator<Item = &'a OpRecord>) -> Vec<f64> {
    let mut out: Vec<f64> = records
        .into_iter()
        .map(|r| r.latency().as_secs_f64() * 1e3)
        .collect();
    stats::sort(&mut out);
    out
}

/// Granted requests per second from the first submit to the last
/// completion, the drain included.
pub fn granted_rate(records: &[OpRecord]) -> f64 {
    let (Some(start), Some(end)) = (
        records.iter().map(|r| r.submit_start).min(),
        records.iter().map(|r| r.done).max(),
    ) else {
        return 0.0;
    };
    let granted = records.iter().filter(|r| r.ok).count();
    granted as f64 / end.duration_since(start).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn closed_loop_keeps_depth_in_flight_and_drains() {
        let outstanding = Cell::new(0usize);
        let peak = Cell::new(0usize);
        let records = closed_loop(
            4,
            Duration::from_millis(30),
            || {
                outstanding.set(outstanding.get() + 1);
                peak.set(peak.get().max(outstanding.get()));
            },
            |()| {
                outstanding.set(outstanding.get() - 1);
                true
            },
        );
        assert_eq!(peak.get(), 4);
        assert_eq!(outstanding.get(), 0, "every submitted request is reaped");
        assert!(records.len() >= 4 && records.iter().all(|r| r.ok));
    }

    #[test]
    fn open_loop_times_from_the_due_instant_and_reports_lateness() {
        // 200/s for 0.2 s = 40 requests, 5 ms apart. Submitting the
        // 11th blocks the pacer for 40 ms: the requests due during the
        // stall go out late, and their latency counts from when they
        // were due although each is answered at once.
        let sent = Cell::new(0usize);
        let stall = Duration::from_millis(40);
        let records = open_loop(
            200.0,
            Duration::from_millis(200),
            || {
                sent.set(sent.get() + 1);
                if sent.get() == 11 {
                    std::thread::sleep(stall);
                }
            },
            |()| true,
        );
        assert_eq!(records.len(), 40);
        for pair in records.windows(2) {
            let gap = pair[1].due.duration_since(pair[0].due);
            assert!(
                (gap.as_secs_f64() - 0.005).abs() < 1e-6,
                "schedule drifted: {gap:?}"
            );
        }
        // Request 12 (index 11) was due 5 ms into the stall.
        let victim = &records[11];
        assert!(
            victim.lateness() >= Duration::from_millis(30),
            "{:?}",
            victim.lateness()
        );
        assert!(victim.latency() >= victim.lateness());
        // Before the stall the generator keeps to its schedule (a
        // loaded CI machine may add a few ms, never tens).
        assert!(records[..10]
            .iter()
            .all(|r| r.lateness() < Duration::from_millis(25)));
        let worst = records.iter().map(OpRecord::lateness).max().unwrap();
        assert!(worst >= Duration::from_millis(30));
    }

    #[test]
    fn granted_rate_counts_granted_over_first_submit_to_last_completion() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let record = |done_ms, ok| OpRecord {
            due: t0,
            submit_start: t0,
            submit_end: t0,
            done: at(done_ms),
            ok,
        };
        let records = [record(100, true), record(250, false), record(500, true)];
        assert!((granted_rate(&records) - 4.0).abs() < 1e-9);
        assert_eq!(granted_rate(&[]), 0.0);
    }
}
