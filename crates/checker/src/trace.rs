//! Replayable counterexample traces: a small text format, a replayer,
//! and a regression-test code generator.
//!
//! A trace file pins one scenario, one expectation, and one event
//! sequence:
//!
//! ```text
//! # free-form comment lines
//! policy: tdv
//! sites: 2
//! segments: 1
//! expect: lineage-fork
//! hazard: true
//! --
//! crash 0
//! read 1
//! crash 1
//! repair 0
//! recover 0
//! ```
//!
//! `expect` is either `none` (the replay must stay violation-free) or
//! an invariant name (`stale-read`, `duplicate-version`,
//! `lineage-fork`, `token-oracle`, `at-most-one-majority`,
//! `monotone-counters`); `hazard` (default `false`) states the expected
//! classification. [`verify`] replays the events through the real
//! cluster and checks the expectation — the corpus under the
//! repository's `tests/traces/` is replayed this way on every test run.

use dynvote_core::check::Violation;
use dynvote_core::policy::Protocol;

use crate::event::CheckEvent;
use crate::scenario::Scenario;
use crate::world::{replay_classified, DetectScratch, World};

/// What a trace expects its replay to surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// The replay must surface no violation at all.
    None,
    /// The replay must surface this invariant, with this hazard
    /// classification, at some step.
    Violation {
        /// The expected invariant name.
        invariant: String,
        /// The expected classification.
        known_hazard: bool,
    },
}

/// One parsed trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFile {
    /// The scenario the events run against.
    pub scenario: Scenario,
    /// The expected replay outcome.
    pub expect: Expectation,
    /// The event sequence.
    pub events: Vec<CheckEvent>,
}

impl TraceFile {
    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line or missing
    /// header field. An event naming a site outside the scenario, or a
    /// partition index outside `1..` the scenario's canonical partition
    /// count, is malformed: replaying it would panic or test nothing.
    pub fn parse(text: &str) -> Result<TraceFile, String> {
        let mut policy = None;
        let mut sites = None;
        let mut segments = None;
        let mut expect_raw: Option<String> = None;
        let mut hazard = false;
        let mut events = Vec::new();
        let mut in_body = false;
        for (number, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "--" {
                in_body = true;
                continue;
            }
            if in_body {
                let event =
                    CheckEvent::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
                events.push((number + 1, event));
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("line {}: expected `key: value`", number + 1))?;
            let value = value.trim();
            match key.trim() {
                "policy" => {
                    policy =
                        Some(Protocol::parse(value).ok_or_else(|| {
                            format!("line {}: unknown policy {value:?}", number + 1)
                        })?);
                }
                "sites" => {
                    sites =
                        Some(value.parse::<usize>().map_err(|_| {
                            format!("line {}: bad sites count {value:?}", number + 1)
                        })?);
                }
                "segments" => {
                    segments = Some(value.parse::<usize>().map_err(|_| {
                        format!("line {}: bad segments count {value:?}", number + 1)
                    })?);
                }
                "expect" => expect_raw = Some(value.to_string()),
                "hazard" => {
                    hazard = value
                        .parse::<bool>()
                        .map_err(|_| format!("line {}: bad hazard flag {value:?}", number + 1))?;
                }
                other => return Err(format!("line {}: unknown key {other:?}", number + 1)),
            }
        }
        let scenario = Scenario::new(
            policy.ok_or("missing `policy:` header")?,
            sites.ok_or("missing `sites:` header")?,
            segments.ok_or("missing `segments:` header")?,
        )?;
        let partitions = scenario.network().segment_partitions().len();
        for &(line, event) in &events {
            match event {
                CheckEvent::Crash(site)
                | CheckEvent::Repair(site)
                | CheckEvent::Recover(site)
                | CheckEvent::Read(site)
                | CheckEvent::Write(site)
                    if site.index() >= scenario.sites =>
                {
                    return Err(format!(
                        "line {line}: site {} is not one of the scenario's {} sites",
                        site.index(),
                        scenario.sites
                    ));
                }
                CheckEvent::Partition(index) if !(1..partitions).contains(&index) => {
                    return Err(format!(
                        "line {line}: partition {index} is outside 1..{partitions} \
                         (index 0 is written `heal`)"
                    ));
                }
                _ => {}
            }
        }
        let expect = match expect_raw.as_deref() {
            None => return Err("missing `expect:` header".to_string()),
            Some("none") => Expectation::None,
            Some(invariant) => Expectation::Violation {
                invariant: invariant.to_string(),
                known_hazard: hazard,
            },
        };
        Ok(TraceFile {
            scenario,
            expect,
            events: events.into_iter().map(|(_, event)| event).collect(),
        })
    }

    /// Renders the text format (parseable by [`TraceFile::parse`]).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# dynvote-check minimized trace\n");
        out.push_str(&format!("policy: {}\n", self.scenario.policy.token()));
        out.push_str(&format!("sites: {}\n", self.scenario.sites));
        out.push_str(&format!("segments: {}\n", self.scenario.segments));
        match &self.expect {
            Expectation::None => out.push_str("expect: none\n"),
            Expectation::Violation {
                invariant,
                known_hazard,
            } => {
                out.push_str(&format!("expect: {invariant}\n"));
                if *known_hazard {
                    out.push_str("hazard: true\n");
                }
            }
        }
        out.push_str("--\n");
        for event in &self.events {
            out.push_str(&format!("{event}\n"));
        }
        out
    }
}

/// Replays the trace and returns every violation each step surfaced,
/// with its hazard classification.
#[must_use]
pub fn replay(file: &TraceFile) -> Vec<(Violation, bool)> {
    replay_classified(
        &mut DetectScratch::default(),
        &mut World::new(&file.scenario),
        file.scenario.policy,
        &file.events,
    )
}

/// Replays the trace and checks its expectation.
///
/// # Errors
///
/// Returns a human-readable mismatch description.
pub fn verify(file: &TraceFile) -> Result<(), String> {
    let surfaced = replay(file);
    match &file.expect {
        Expectation::None => {
            if let Some((violation, _)) = surfaced.first() {
                return Err(format!("expected a clean replay, got: {violation}"));
            }
        }
        Expectation::Violation {
            invariant,
            known_hazard,
        } => {
            let hit = surfaced
                .iter()
                .any(|(v, hazard)| v.invariant == invariant.as_str() && *hazard == *known_hazard);
            if !hit {
                let got: Vec<String> = surfaced
                    .iter()
                    .map(|(v, h)| format!("{} (hazard: {h})", v.invariant))
                    .collect();
                return Err(format!(
                    "expected {invariant} (hazard: {known_hazard}), replay surfaced: [{}]",
                    got.join(", ")
                ));
            }
        }
    }
    Ok(())
}

/// Generates a ready-to-paste `#[test]` reproducing a violation.
#[must_use]
pub fn regression_snippet(
    scenario: &Scenario,
    events: &[CheckEvent],
    invariant: &str,
    known_hazard: bool,
) -> String {
    let mut body = String::new();
    for event in events {
        let constructor = match event {
            CheckEvent::Crash(s) => format!("CheckEvent::Crash(SiteId::new({}))", s.index()),
            CheckEvent::Repair(s) => format!("CheckEvent::Repair(SiteId::new({}))", s.index()),
            CheckEvent::Recover(s) => format!("CheckEvent::Recover(SiteId::new({}))", s.index()),
            CheckEvent::Partition(i) => format!("CheckEvent::Partition({i})"),
            CheckEvent::Heal => "CheckEvent::Heal".to_string(),
            CheckEvent::Read(s) => format!("CheckEvent::Read(SiteId::new({}))", s.index()),
            CheckEvent::Write(s) => format!("CheckEvent::Write(SiteId::new({}))", s.index()),
        };
        body.push_str(&format!("        {constructor},\n"));
    }
    let test_name = format!(
        "regression_{}_{}",
        scenario.policy.token(),
        invariant.replace('-', "_")
    );
    format!(
        r#"#[test]
fn {test_name}() {{
    use dynvote_check::{{apply_and_detect, CheckEvent, Scenario, World}};
    use dynvote_replica::Protocol;
    use dynvote_types::SiteId;

    // {hazard_note}
    let scenario = Scenario::new(Protocol::{protocol:?}, {sites}, {segments}).unwrap();
    let mut world = World::new(&scenario);
    let events = [
{body}    ];
    let mut surfaced = Vec::new();
    for event in events {{
        surfaced.extend(apply_and_detect(&mut world, event));
    }}
    assert!(
        surfaced.iter().any(|v| v.invariant == "{invariant}"),
        "expected {invariant}, replay surfaced {{surfaced:?}}"
    );
}}
"#,
        hazard_note = if known_hazard {
            "Known topological sequential-claim hazard (see DESIGN.md)."
        } else {
            "Real invariant violation."
        },
        protocol = scenario.policy,
        sites = scenario.sites,
        segments = scenario.segments,
    )
}

#[cfg(test)]
mod tests {
    use dynvote_replica::Protocol;
    use dynvote_types::SiteId;

    use super::*;

    fn fork_trace() -> TraceFile {
        TraceFile {
            scenario: Scenario::new(Protocol::Tdv, 2, 1).unwrap(),
            expect: Expectation::Violation {
                invariant: "lineage-fork".to_string(),
                known_hazard: true,
            },
            events: vec![
                CheckEvent::Crash(SiteId::new(0)),
                CheckEvent::Read(SiteId::new(1)),
                CheckEvent::Crash(SiteId::new(1)),
                CheckEvent::Repair(SiteId::new(0)),
                CheckEvent::Recover(SiteId::new(0)),
            ],
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let file = fork_trace();
        let text = file.render();
        assert_eq!(TraceFile::parse(&text), Ok(file));
    }

    #[test]
    fn fork_trace_verifies() {
        verify(&fork_trace()).unwrap();
    }

    #[test]
    fn expectation_mismatch_is_reported() {
        let mut file = fork_trace();
        file.scenario.policy = Protocol::Ldv; // LDV refuses the claim
        let err = verify(&file).unwrap_err();
        assert!(err.contains("expected lineage-fork"), "{err}");

        let clean = TraceFile {
            scenario: Scenario::new(Protocol::Ldv, 2, 1).unwrap(),
            expect: Expectation::None,
            events: fork_trace().events,
        };
        verify(&clean).unwrap();
    }

    #[test]
    fn parse_rejects_malformed_headers() {
        assert!(
            TraceFile::parse("policy: xyz\nsites: 2\nsegments: 1\nexpect: none\n--\n").is_err()
        );
        assert!(TraceFile::parse("sites: 2\nsegments: 1\nexpect: none\n--\n").is_err());
        assert!(TraceFile::parse("policy: dv\nsites: 2\nsegments: 1\n--\n").is_err());
        assert!(TraceFile::parse(
            "policy: dv\nsites: 2\nsegments: 1\nexpect: none\n--\nexplode 1\n"
        )
        .is_err());
    }

    #[test]
    fn parse_rejects_events_the_scenario_cannot_run() {
        // Each would panic in the parser or the replay, or replay as a
        // refusal that tests nothing.
        for (sites, event) in [(2, "read 70"), (2, "read 7"), (3, "partition 3")] {
            let text = format!(
                "policy: ldv\nsites: {sites}\nsegments: 1\nexpect: none\n--\nwrite 0\n{event}\n"
            );
            let error = TraceFile::parse(&text).expect_err(event);
            assert!(error.starts_with("line 7: "), "{event}: {error}");
        }
        let two_segments = "policy: ldv\nsites: 4\nsegments: 2\nexpect: none\n--\n";
        assert!(TraceFile::parse(&format!("{two_segments}partition 1\nread 3\n")).is_ok());
        assert!(TraceFile::parse(&format!("{two_segments}partition 0\n")).is_err());
    }

    #[test]
    fn snippet_mentions_the_invariant_and_events() {
        let file = fork_trace();
        let snippet = regression_snippet(&file.scenario, &file.events, "lineage-fork", true);
        assert!(snippet.contains("fn regression_tdv_lineage_fork()"));
        assert!(snippet.contains("CheckEvent::Recover(SiteId::new(0))"));
        assert!(snippet.contains("sequential-claim hazard"));
        assert!(snippet.contains("Protocol::Tdv"));
    }
}
