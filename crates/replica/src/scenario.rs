//! A tiny scenario language for driving a cluster through scripted
//! histories.
//!
//! Scenarios make protocol walkthroughs — the paper's worked examples,
//! bug reports, classroom exercises — *executable*. A script is a list
//! of commands, one per line. Every line of a checker `.trace` file is
//! a line of a script and means the same event ([`CheckEvent`]); a
//! script adds directives on top:
//!
//! ```text
//! # comments and blank lines are ignored
//! write 0 v2          # WRITE of "v2" at site 0 (a bare `write 0`
//!                     # writes a minted token w1, w2, …)
//! crash 1             # site S1 crashes
//! read 2              # READ at site 2 (outcome logged)
//! partition 0 | 2     # force raw groups: {S0} vs {S2}
//! partition 1         # force canonical segment partition 1
//! expect read 0 v2    # assert the read is granted and returns v2
//! expect refused read 2   # assert the read aborts
//! heal                # remove the forced partition
//! repair 1
//! recover 1
//! state 1             # log S1's (o, v, P)
//! explain 0           # log Algorithm 1's trace for a read at S0
//! ```
//!
//! A `partition` line containing `|` is a raw-group cut; without one
//! it is the event `partition i`, an index into the network's
//! canonical segment partitions.
//!
//! Message faults arm rules on the cluster's [`Bus`](crate::Bus), so
//! a script can stage the partial-commit hazard line by line:
//!
//! ```text
//! drop commit@2       # lose the next COMMIT sent to S2
//! dup state@1 3       # duplicate the next three state replies to S1
//! delay commit@0      # reorder: deliver S0's next COMMIT late
//! crash-on-commit 2   # S2 crashes on receipt of its next COMMIT
//! deliver-all         # disarm every message-fault rule
//! ```
//!
//! [`parse`] turns a script into commands; [`run`] executes them
//! against a cluster, returning a transcript and failing fast on a
//! violated `expect` or a line the cluster cannot carry out.

use dynvote_types::{SiteId, SiteSet};

use crate::bus::{FaultAction, FaultRule, MessageClass};
use crate::cluster::Cluster;
use crate::event::{canonical_partition, parse_site, CheckEvent};

/// One scripted action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// A line of the shared alphabet, spelled as in a `.trace` file.
    /// A bare `write N` writes a minted token (`w1`, `w2`, …).
    Event(CheckEvent),
    /// `write N VALUE` — WRITE of the script's value at origin N.
    Write(SiteId, String),
    /// `partition A,B | C …` — force raw groups.
    Cut(Vec<SiteSet>),
    /// `state N` — log site N's control state.
    State(SiteId),
    /// `explain N` — log Algorithm 1's full decision trace for a read
    /// probe at site N.
    Explain(SiteId),
    /// `expect read N VALUE` — READ must succeed with VALUE.
    ExpectRead(SiteId, String),
    /// `expect refused read N` / `… write N` / `… recover N` — the
    /// operation event must abort.
    ExpectRefused(CheckEvent),
    /// `drop KIND@N [COUNT]` / `dup KIND@N [COUNT]` /
    /// `delay KIND@N [COUNT]` / `crash-on-commit N` — arm a
    /// message-fault rule on the bus.
    Inject(FaultRule),
    /// `deliver-all` — disarm every message-fault rule.
    DeliverAll,
}

/// A script error with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line in the script.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScenarioError {}

fn site(token: Option<&str>) -> Result<SiteId, String> {
    parse_site(token.ok_or("missing site number")?)
}

/// Parses the `KIND@N [COUNT]` tail of a `drop`/`dup`/`delay` command
/// into a fault rule with the given action.
fn parse_fault(
    action: FaultAction,
    target: Option<&str>,
    count: Option<&str>,
) -> Result<FaultRule, String> {
    let target = target.ok_or_else(|| format!("{action} needs a KIND@SITE target"))?;
    let (kind, at) = target
        .split_once('@')
        .ok_or_else(|| format!("{action} target must be KIND@SITE, got {target:?}"))?;
    let class =
        MessageClass::parse(kind).ok_or_else(|| format!("unknown message kind {kind:?}"))?;
    let times = match count {
        None => 1,
        Some(tok) => tok.parse::<u32>().map_err(|e| format!("bad count: {e}"))?,
    };
    Ok(FaultRule::once(class, site(Some(at))?, action).times(times))
}

/// Parses the groups of a raw `partition A,B | C` cut, which must be
/// pairwise disjoint.
fn parse_groups(text: &str) -> Result<Vec<SiteSet>, String> {
    let mut groups = Vec::new();
    let mut seen = SiteSet::EMPTY;
    for group_text in text.split('|') {
        let mut group = SiteSet::EMPTY;
        for tok in group_text.split(',').map(str::trim) {
            if !tok.is_empty() {
                group = group.with(parse_site(tok)?);
            }
        }
        if !seen.is_disjoint(group) {
            return Err(format!("partition groups overlap at {}", seen & group));
        }
        seen |= group;
        if !group.is_empty() {
            groups.push(group);
        }
    }
    if groups.is_empty() {
        return Err("partition needs at least one group".to_string());
    }
    Ok(groups)
}

/// Parses one non-empty, comment-free line.
fn parse_line(text: &str) -> Result<Command, String> {
    let mut words = text.split_whitespace();
    Ok(match words.next().expect("non-empty line") {
        "partition" if text.contains('|') => {
            Command::Cut(parse_groups(&text["partition".len()..])?)
        }
        "write" => {
            let origin = site(words.next())?;
            let value: Vec<&str> = words.collect();
            if value.is_empty() {
                Command::Event(CheckEvent::Write(origin))
            } else {
                Command::Write(origin, value.join(" "))
            }
        }
        "state" => Command::State(site(words.next())?),
        "explain" => Command::Explain(site(words.next())?),
        "deliver-all" => Command::DeliverAll,
        verb @ ("drop" | "dup" | "delay") => {
            let action = match verb {
                "drop" => FaultAction::Drop,
                "dup" => FaultAction::Duplicate,
                _ => FaultAction::Delay,
            };
            Command::Inject(parse_fault(action, words.next(), words.next())?)
        }
        "crash-on-commit" => Command::Inject(FaultRule::once(
            MessageClass::Commit,
            site(words.next())?,
            FaultAction::CrashRecipient,
        )),
        "expect" => match words.next() {
            Some("read") => {
                let origin = site(words.next())?;
                let value: Vec<&str> = words.collect();
                if value.is_empty() {
                    return Err("expect read needs a value".to_string());
                }
                Command::ExpectRead(origin, value.join(" "))
            }
            Some("refused") => {
                let rest: Vec<&str> = words.collect();
                match CheckEvent::parse(&rest.join(" ")) {
                    Ok(
                        event @ (CheckEvent::Read(_)
                        | CheckEvent::Write(_)
                        | CheckEvent::Recover(_)),
                    ) => Command::ExpectRefused(event),
                    _ => {
                        return Err(format!(
                            "expect refused needs read/write/recover N, got {:?}",
                            rest.join(" ")
                        ))
                    }
                }
            }
            other => return Err(format!("unknown expectation {other:?}")),
        },
        _ => Command::Event(CheckEvent::parse(text)?),
    })
}

/// Parses a scenario script.
///
/// # Errors
///
/// Returns the first syntax error with its line number.
pub fn parse(script: &str) -> Result<Vec<(usize, Command)>, ScenarioError> {
    let mut commands = Vec::new();
    for (idx, raw) in script.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if !text.is_empty() {
            let command = parse_line(text).map_err(|message| ScenarioError { line, message })?;
            commands.push((line, command));
        }
    }
    Ok(commands)
}

/// WRITE of `value` at `origin`, as a transcript line.
fn write(cluster: &mut Cluster<String>, origin: SiteId, value: String) -> String {
    let shown = format!("{value:?}");
    match cluster.write(origin, value) {
        Ok(()) => format!("write {origin} {shown}: ok"),
        Err(e) => format!("write {origin}: refused ({e})"),
    }
}

/// Forces `groups`, as a transcript line.
fn cut(cluster: &mut Cluster<String>, groups: Vec<SiteSet>) -> String {
    let shown: Vec<String> = groups.iter().map(ToString::to_string).collect();
    cluster.force_partition(groups);
    format!("partition {}", shown.join(" | "))
}

/// Executes one command, appending its transcript lines to `log`.
fn step(
    cluster: &mut Cluster<String>,
    partitions: &[Vec<SiteSet>],
    tokens: &mut u64,
    command: &Command,
    log: &mut Vec<String>,
) -> Result<(), String> {
    let entry = match command {
        Command::Event(event) => match *event {
            CheckEvent::Crash(site) => {
                cluster.fail_site(site);
                format!("crash {site}")
            }
            CheckEvent::Repair(site) => {
                cluster.repair_site(site);
                format!("repair {site}")
            }
            CheckEvent::Recover(site) => match cluster.recover(site) {
                Ok(()) => format!("recover {site}: ok"),
                Err(e) => format!("recover {site}: refused ({e})"),
            },
            CheckEvent::Partition(index) => {
                cut(cluster, canonical_partition(partitions, index)?.to_vec())
            }
            CheckEvent::Heal => {
                cluster.heal_partition();
                "heal".to_string()
            }
            CheckEvent::Read(site) => match cluster.read(site) {
                Ok(v) => format!("read {site}: {v:?}"),
                Err(e) => format!("read {site}: refused ({e})"),
            },
            CheckEvent::Write(site) => {
                *tokens += 1;
                write(cluster, site, format!("w{tokens}"))
            }
        },
        Command::Write(site, value) => write(cluster, *site, value.clone()),
        Command::Cut(groups) => cut(cluster, groups.clone()),
        Command::Inject(rule) => {
            cluster.inject_fault(rule.clone());
            format!("inject {rule}")
        }
        Command::DeliverAll => {
            cluster.clear_message_faults();
            "deliver-all".to_string()
        }
        Command::State(site) => {
            if !cluster.participants().contains(*site) {
                return Err(format!("{site} is not a participant"));
            }
            format!("state {site}: {:?}", cluster.state_at(*site))
        }
        Command::Explain(site) => match cluster.explain(*site) {
            Some(text) => {
                log.push(format!("explain {site}:"));
                log.extend(text.lines().map(|line| format!("    {line}")));
                return Ok(());
            }
            None => format!("explain {site}: site is down"),
        },
        Command::ExpectRead(site, want) => match cluster.read(*site) {
            Ok(got) if got == *want => format!("expect read {site} {want:?}: ok"),
            Ok(got) => return Err(format!("expected read of {want:?} at {site}, got {got:?}")),
            Err(e) => {
                return Err(format!(
                    "expected read of {want:?} at {site}, but it was refused: {e}"
                ))
            }
        },
        Command::ExpectRefused(event) => {
            let outcome = match *event {
                CheckEvent::Read(site) => cluster.read(site).map(|_| ()),
                CheckEvent::Write(site) => cluster.write(site, "<probe>".to_string()),
                CheckEvent::Recover(site) => cluster.recover(site),
                _ => unreachable!("parse admits only operations"),
            };
            match outcome {
                Err(e) => format!("expect refused {event}: ok ({e})"),
                Ok(()) => return Err(format!("expected {event} to be refused, but it succeeded")),
            }
        }
    };
    log.push(entry);
    Ok(())
}

/// Executes parsed commands against a cluster, returning the
/// transcript.
///
/// # Errors
///
/// Returns a [`ScenarioError`] with the line it came from when an
/// `expect` fails or the cluster cannot carry a line out (a canonical
/// partition index out of range, the state of a non-participant).
pub fn run(
    cluster: &mut Cluster<String>,
    commands: &[(usize, Command)],
) -> Result<Vec<String>, ScenarioError> {
    let partitions = cluster.network().segment_partitions();
    let mut tokens = 0;
    let mut log = Vec::new();
    for (line, command) in commands {
        step(cluster, &partitions, &mut tokens, command, &mut log).map_err(|message| {
            ScenarioError {
                line: *line,
                message,
            }
        })?;
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterBuilder, Protocol};

    fn cluster() -> Cluster<String> {
        ClusterBuilder::new()
            .copies([0, 1, 2])
            .protocol(Protocol::Odv)
            .build_with_value("v1".to_string())
    }

    fn s(index: usize) -> SiteId {
        SiteId::new(index)
    }

    #[test]
    fn parses_all_commands() {
        let script = "
            # a comment
            crash 1
            repair 1
            recover 1
            write 0 hello world
            read 2
            partition 0,1 | 2
            heal
            state 0
            expect read 0 hello world
            expect refused write 2
            explain 0
            write 1
            partition 1
        ";
        let cmds = parse(script).unwrap();
        assert_eq!(cmds.len(), 13);
        assert_eq!(cmds[0].1, Command::Event(CheckEvent::Crash(s(1))));
        assert_eq!(cmds[3].1, Command::Write(s(0), "hello world".into()));
        assert_eq!(
            cmds[5].1,
            Command::Cut(vec![
                SiteSet::from_indices([0, 1]),
                SiteSet::from_indices([2])
            ])
        );
        assert_eq!(cmds[8].1, Command::ExpectRead(s(0), "hello world".into()));
        assert_eq!(cmds[9].1, Command::ExpectRefused(CheckEvent::Write(s(2))));
        assert_eq!(cmds[10].1, Command::Explain(s(0)));
        assert_eq!(cmds[11].1, Command::Event(CheckEvent::Write(s(1))));
        assert_eq!(cmds[12].1, Command::Event(CheckEvent::Partition(1)));
    }

    #[test]
    fn parses_message_fault_commands() {
        let script = "
            drop commit@2
            dup state@1 3
            delay commit@0
            crash-on-commit 2
            deliver-all
        ";
        let cmds = parse(script).unwrap();
        assert_eq!(cmds.len(), 5);
        assert_eq!(
            cmds[0].1,
            Command::Inject(FaultRule::once(
                MessageClass::Commit,
                s(2),
                FaultAction::Drop
            ))
        );
        assert_eq!(
            cmds[1].1,
            Command::Inject(
                FaultRule::once(MessageClass::State, s(1), FaultAction::Duplicate).times(3)
            )
        );
        assert_eq!(
            cmds[3].1,
            Command::Inject(FaultRule::once(
                MessageClass::Commit,
                s(2),
                FaultAction::CrashRecipient
            ))
        );
        assert_eq!(cmds[4].1, Command::DeliverAll);
    }

    #[test]
    fn message_fault_parse_errors_carry_line_numbers() {
        let e = parse("heal\ndrop bogus@2").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown message kind"), "{e}");
        let e = parse("dup commit").unwrap_err();
        assert!(e.message.contains("KIND@SITE"), "{e}");
        let e = parse("delay commit@x").unwrap_err();
        assert!(e.message.contains("bad site number"), "{e}");
        let e = parse("drop commit@2 zz").unwrap_err();
        assert!(e.message.contains("bad count"), "{e}");
    }

    /// Input from outside never panics: every bad line is a
    /// [`ScenarioError`] naming its line, from the parser or from the
    /// run.
    #[test]
    fn bad_lines_are_errors_with_their_line_number() {
        for (script, message) in [
            ("heal\ncrash 99", "bad site number"),
            ("heal\ndrop commit@80", "bad site number"),
            ("heal\ncrash-on-commit 70", "bad site number"),
            ("heal\npartition 0,1 | 70", "bad site number"),
            ("heal\npartition 0,1 | 1", "overlap"),
            ("heal\npartition 3", "out of range"),
            ("heal\nstate 7", "not a participant"),
            ("heal\nfail 1", "unknown event"),
        ] {
            let e = parse(script)
                .and_then(|cmds| run(&mut cluster(), &cmds))
                .unwrap_err();
            assert_eq!(e.line, 2, "{script:?}: {e}");
            assert!(e.message.contains(message), "{script:?}: {e}");
        }
    }

    #[test]
    fn scripted_partial_commit_wedges_then_reconciles() {
        let script = "
            drop commit@2 3     # beyond the retry budget: all resends lost
            write 0 v2          # COMMIT never reaches S2: indeterminate
            state 2             # still shows the pre-write control state
            recover 2           # the wedged site rejoins and copies v2
            expect read 2 v2
        ";
        let cmds = parse(script).unwrap();
        let mut c = cluster();
        let log = run(&mut c, &cmds).unwrap();
        assert!(
            log.iter().any(|l| l.contains("indeterminate")),
            "partial commit must surface in the transcript: {log:?}"
        );
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse("crash 0\nbogus 1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = parse("expect read 0").unwrap_err();
        assert!(e.message.contains("needs a value"));
        let e = parse("expect refused flush 0").unwrap_err();
        assert!(e.message.contains("read/write/recover"));
        let e = parse("crash x").unwrap_err();
        assert!(e.message.contains("bad site number"));
    }

    #[test]
    fn runs_the_paper_walkthrough() {
        let script = "
            write 0 v2
            crash 1
            write 0 v3            # 2 of 3 still a majority
            partition 0 | 2
            expect read 0 v3      # S0 wins the 1-1 tie
            expect refused read 2
            heal
            repair 1
            recover 1
            expect read 1 v3
        ";
        let cmds = parse(script).unwrap();
        let mut c = cluster();
        let log = run(&mut c, &cmds).unwrap();
        assert!(log.iter().any(|l| l.contains("expect refused")));
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn a_bare_write_mints_tokens() {
        let cmds = parse("write 0\nwrite 1\nexpect read 2 w2").unwrap();
        let log = run(&mut cluster(), &cmds).unwrap();
        assert_eq!(log[0], "write S0 \"w1\": ok");
    }

    #[test]
    fn explain_command_logs_the_decision_trace() {
        let cmds = parse("crash 2\ncrash 1\nexplain 0\ncrash 0\nexplain 0").unwrap();
        let mut c = cluster();
        let log = run(&mut c, &cmds).unwrap();
        let text = log.join("\n");
        assert!(text.contains("P_m"), "{text}");
        assert!(
            text.contains("REFUSED") || text.contains("GRANTED"),
            "{text}"
        );
        assert!(text.contains("site is down"), "{text}");

        // MCV explains through the same Algorithm 1, with P_m fixed at
        // all copies: one copy of three is a minority.
        let cmds = parse("crash 1\ncrash 2\nexplain 0").unwrap();
        let mut c = ClusterBuilder::new()
            .copies([0, 1, 2])
            .protocol(Protocol::Mcv)
            .build_with_value("v1".to_string());
        let text = run(&mut c, &cmds).unwrap().join("\n");
        assert!(text.contains("P_m = {S0, S1, S2}"), "{text}");
        assert!(
            text.contains("REFUSED: fewer than half of the previous majority partition"),
            "{text}"
        );
    }

    #[test]
    fn failed_expectation_reports_line() {
        let cmds = parse("crash 1\ncrash 2\nexpect read 0 nope").unwrap();
        let mut c = cluster();
        let e = run(&mut c, &cmds).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("nope"));
    }

    #[test]
    fn expected_refusal_that_succeeds_fails_the_run() {
        let cmds = parse("expect refused read 0").unwrap();
        let mut c = cluster();
        let e = run(&mut c, &cmds).unwrap_err();
        assert!(e.message.contains("succeeded"));
    }

    #[test]
    fn transcript_logs_refusals_without_failing() {
        // Plain `read`/`write` log refusals; only `expect` fails runs.
        let cmds = parse("crash 1\ncrash 2\nread 0\nwrite 0 x").unwrap();
        let mut c = cluster();
        let log = run(&mut c, &cmds).unwrap();
        assert!(log[2].contains("refused"));
        assert!(log[3].contains("refused"));
    }
}
