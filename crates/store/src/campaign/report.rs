//! `BENCH_faults.json`: what the campaign measured, hand-rolled JSON
//! (the workspace takes no serialization dependency).
//!
//! The headline numbers are *availability under faults* — how often the
//! cluster answered (grant or typed refusal both count: a prompt "no"
//! is the protocol degrading gracefully; only a timeout is silence) —
//! and client-observed latency quantiles.

use std::collections::BTreeMap;
use std::time::Duration;

use super::monitor::MonitorReport;
use super::schedule::Schedule;
use super::workload::{OpRecord, OpResult};

/// Escapes a string for a JSON literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `p`-th percentile (0–100) of an unsorted latency set, in
/// fractional milliseconds; 0 when empty.
fn percentile_ms(latencies: &mut [Duration], p: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let rank = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
    latencies[rank.min(latencies.len() - 1)].as_secs_f64() * 1000.0
}

fn ms(value: f64) -> String {
    format!("{value:.3}")
}

/// Renders the full campaign report.
#[must_use]
pub fn render(
    schedule: &Schedule,
    topology: &str,
    policy: &str,
    records: &[OpRecord],
    monitor: &MonitorReport,
    extra_violations: &[String],
) -> String {
    let tally = schedule.tally();
    let total = records.len();
    let mut granted = 0usize;
    let mut refused = 0usize;
    let mut unavailable = 0usize;
    let mut timed_out = 0usize;
    let mut protocol = 0usize;
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    for record in records {
        latencies.push(record.latency);
        match &record.result {
            OpResult::Granted => granted += 1,
            OpResult::Refused => refused += 1,
            OpResult::Unavailable(reason) => {
                unavailable += 1;
                *reasons.entry(reason.token().to_string()).or_default() += 1;
            }
            OpResult::TimedOut => timed_out += 1,
            OpResult::Protocol(_) => protocol += 1,
        }
    }
    // Answered = the cluster spoke before the deadline, even to say no.
    let answered = total - timed_out;
    let ratio = |n: usize| {
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    };
    let p50 = percentile_ms(&mut latencies, 50.0);
    let p90 = percentile_ms(&mut latencies, 90.0);
    let p99 = percentile_ms(&mut latencies, 99.0);
    let max = latencies.last().map_or(0.0, |d| d.as_secs_f64() * 1000.0);
    let violations: Vec<String> = monitor
        .violations
        .iter()
        .chain(extra_violations)
        .cloned()
        .collect();
    let reason_fields: Vec<String> = reasons
        .iter()
        .map(|(token, count)| format!("    {}: {count}", json_string(token)))
        .collect();
    let violation_items: Vec<String> = violations
        .iter()
        .map(|v| format!("    {}", json_string(v)))
        .collect();
    format!(
        "{{\n  \"campaign\": {{\n    \"seed\": {seed},\n    \"sites\": {sites},\n    \
         \"topology\": {topology},\n    \"policy\": {policy},\n    \
         \"duration_s\": {duration:.3}\n  }},\n  \"schedule\": {{\n    \
         \"faults\": {faults},\n    \"kills\": {kills},\n    \"restarts\": {restarts},\n    \
         \"disk_faults\": {disk},\n    \"partitions\": {parts},\n    \"heals\": {heals},\n    \
         \"stalls\": {stalls}\n  }},\n  \"workload\": {{\n    \"ops\": {total},\n    \
         \"granted\": {granted},\n    \"refused\": {refused},\n    \
         \"unavailable\": {unavailable},\n    \"timed_out\": {timed_out},\n    \
         \"protocol_errors\": {protocol},\n    \"granted_ratio\": {granted_ratio:.4},\n    \
         \"answered_ratio\": {answered_ratio:.4},\n    \"latency_ms\": {{\n      \
         \"p50\": {p50},\n      \"p90\": {p90},\n      \"p99\": {p99},\n      \
         \"max\": {max}\n    }}\n  }},\n  \"unavailable_reasons\": {{\n{reasons}\n  }},\n  \
         \"monitor\": {{\n    \"polls\": {polls},\n    \"delta_installs\": {deltas},\n    \
         \"violations\": {nviol}\n  }},\n  \
         \"violations\": [\n{viol}\n  ],\n  \"result\": {result}\n}}\n",
        seed = schedule.seed,
        sites = schedule.sites,
        topology = json_string(topology),
        policy = json_string(policy),
        duration = schedule.duration.as_secs_f64(),
        faults = schedule.faults.len(),
        kills = tally.kills,
        restarts = tally.restarts,
        disk = tally.disk_faults,
        parts = tally.partitions,
        heals = tally.heals,
        stalls = tally.stalls,
        granted_ratio = ratio(granted),
        answered_ratio = ratio(answered),
        p50 = ms(p50),
        p90 = ms(p90),
        p99 = ms(p99),
        max = ms(max),
        reasons = reason_fields.join(",\n"),
        polls = monitor.polls,
        deltas = monitor.delta_installs,
        nviol = violations.len(),
        viol = violation_items.join(",\n"),
        result = json_string(if violations.is_empty() {
            "pass"
        } else {
            "fail"
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::schedule::generate;
    use crate::wire::UnavailableReason;

    #[test]
    fn report_counts_and_escapes() {
        let schedule = generate(42, 3, 1, Duration::from_secs(10));
        let records = vec![
            OpRecord {
                at: Duration::from_millis(1),
                site: 0,
                is_write: true,
                token: Some(1),
                commit: Some((1, 1)),
                read_value: None,
                result: OpResult::Granted,
                latency: Duration::from_millis(3),
            },
            OpRecord {
                at: Duration::from_millis(2),
                site: 1,
                is_write: false,
                token: None,
                commit: None,
                read_value: None,
                result: OpResult::Unavailable(UnavailableReason::NoQuorum),
                latency: Duration::from_millis(2),
            },
            OpRecord {
                at: Duration::from_millis(3),
                site: 2,
                is_write: false,
                token: None,
                commit: None,
                read_value: None,
                result: OpResult::TimedOut,
                latency: Duration::from_millis(200),
            },
        ];
        let monitor = MonitorReport {
            delta_installs: 7,
            ..MonitorReport::default()
        };
        let text = render(&schedule, "flat", "odv", &records, &monitor, &[]);
        assert!(text.contains("\"delta_installs\": 7"), "{text}");
        assert!(text.contains("\"ops\": 3"), "{text}");
        assert!(text.contains("\"granted\": 1"), "{text}");
        assert!(text.contains("\"timed_out\": 1"), "{text}");
        assert!(text.contains("\"no-quorum\": 1"), "{text}");
        assert!(text.contains("\"result\": \"pass\""), "{text}");
        let quoted = render(
            &schedule,
            "flat",
            "odv",
            &[],
            &monitor,
            &["bad \"quote\"\nline".to_string()],
        );
        assert!(quoted.contains("bad \\\"quote\\\"\\nline"), "{quoted}");
        assert!(quoted.contains("\"result\": \"fail\""), "{quoted}");
    }
}
