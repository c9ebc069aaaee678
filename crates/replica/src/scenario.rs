//! A tiny scenario language for driving a cluster through scripted
//! histories.
//!
//! Scenarios make protocol walkthroughs — the paper's worked examples,
//! bug reports, classroom exercises — *executable*. A script is a list
//! of commands, one per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! write 0 v2          # WRITE at site 0
//! fail 1              # site S1 crashes
//! read 2              # READ at site 2 (outcome logged)
//! partition 0 | 2     # force a partition: {S0} vs {S2}
//! expect read 0 v2    # assert the read is granted and returns v2
//! expect refused read 2   # assert the read aborts
//! heal                # remove the forced partition
//! repair 1
//! recover 1
//! state 1             # log S1's (o, v, P)
//! ```
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
//! violated `expect`.

use dynvote_types::{SiteId, SiteSet};

use crate::bus::{FaultAction, FaultRule, MessageClass};
use crate::cluster::Cluster;

/// One scripted action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `fail N` — crash site N.
    Fail(usize),
    /// `repair N` — bring site N back up (liveness only).
    Repair(usize),
    /// `recover N` — run the RECOVER protocol at site N.
    Recover(usize),
    /// `write N VALUE` — WRITE at origin N.
    Write(usize, String),
    /// `read N` — READ at origin N.
    Read(usize),
    /// `partition A,B | C …` — force groups.
    Partition(Vec<Vec<usize>>),
    /// `heal` — drop the forced partition.
    Heal,
    /// `state N` — log site N's control state.
    State(usize),
    /// `explain N` — log Algorithm 1's full decision trace for a read
    /// probe at site N.
    Explain(usize),
    /// `expect read N VALUE` — READ must succeed with VALUE.
    ExpectRead(usize, String),
    /// `expect refused read N` / `expect refused write N` /
    /// `expect refused recover N` — the operation must abort.
    ExpectRefused(OpName, usize),
    /// `drop KIND@N [COUNT]` / `dup KIND@N [COUNT]` /
    /// `delay KIND@N [COUNT]` / `crash-on-commit N` — arm a
    /// message-fault rule on the bus.
    Inject(FaultRule),
    /// `deliver-all` — disarm every message-fault rule.
    DeliverAll,
}

/// The operation named in an `expect refused` command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpName {
    /// A READ operation.
    Read,
    /// A WRITE operation.
    Write,
    /// A RECOVER operation.
    Recover,
}

/// A script error with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line in the script (0 for runtime errors without one).
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

fn err(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        message: message.into(),
    }
}

fn parse_site(line: usize, token: Option<&str>) -> Result<usize, ScenarioError> {
    token
        .ok_or_else(|| err(line, "missing site number"))?
        .parse::<usize>()
        .map_err(|e| err(line, format!("bad site number: {e}")))
}

/// Parses the `KIND@N [COUNT]` tail of a `drop`/`dup`/`delay` command
/// into a fault rule with the given action.
fn parse_fault(
    line: usize,
    action: FaultAction,
    target: Option<&str>,
    count: Option<&str>,
) -> Result<FaultRule, ScenarioError> {
    let target = target.ok_or_else(|| err(line, format!("{action} needs a KIND@SITE target")))?;
    let (kind, site) = target.split_once('@').ok_or_else(|| {
        err(
            line,
            format!("{action} target must be KIND@SITE, got {target:?}"),
        )
    })?;
    let class = MessageClass::parse(kind)
        .ok_or_else(|| err(line, format!("unknown message kind {kind:?}")))?;
    let site = parse_site(line, Some(site))?;
    let times = match count {
        None => 1,
        Some(tok) => tok
            .parse::<u32>()
            .map_err(|e| err(line, format!("bad count: {e}")))?,
    };
    Ok(FaultRule::once(class, SiteId::new(site), action).times(times))
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
        if text.is_empty() {
            continue;
        }
        let mut words = text.split_whitespace();
        let command = match words.next().expect("non-empty line") {
            "fail" => Command::Fail(parse_site(line, words.next())?),
            "repair" => Command::Repair(parse_site(line, words.next())?),
            "recover" => Command::Recover(parse_site(line, words.next())?),
            "read" => Command::Read(parse_site(line, words.next())?),
            "state" => Command::State(parse_site(line, words.next())?),
            "explain" => Command::Explain(parse_site(line, words.next())?),
            "heal" => Command::Heal,
            "deliver-all" => Command::DeliverAll,
            verb @ ("drop" | "dup" | "delay") => {
                let action = match verb {
                    "drop" => FaultAction::Drop,
                    "dup" => FaultAction::Duplicate,
                    _ => FaultAction::Delay,
                };
                Command::Inject(parse_fault(line, action, words.next(), words.next())?)
            }
            "crash-on-commit" => {
                let site = parse_site(line, words.next())?;
                Command::Inject(FaultRule::once(
                    MessageClass::Commit,
                    SiteId::new(site),
                    FaultAction::CrashRecipient,
                ))
            }
            "write" => {
                let site = parse_site(line, words.next())?;
                let value: Vec<&str> = words.collect();
                if value.is_empty() {
                    return Err(err(line, "write needs a value"));
                }
                Command::Write(site, value.join(" "))
            }
            "partition" => {
                let rest = text["partition".len()..].trim();
                if rest.is_empty() {
                    return Err(err(line, "partition needs groups"));
                }
                let mut groups = Vec::new();
                for group_text in rest.split('|') {
                    let mut group = Vec::new();
                    for tok in group_text.split(',') {
                        let tok = tok.trim();
                        if tok.is_empty() {
                            continue;
                        }
                        group.push(
                            tok.parse::<usize>()
                                .map_err(|e| err(line, format!("bad site in group: {e}")))?,
                        );
                    }
                    if !group.is_empty() {
                        groups.push(group);
                    }
                }
                if groups.is_empty() {
                    return Err(err(line, "partition needs at least one group"));
                }
                Command::Partition(groups)
            }
            "expect" => match words.next() {
                Some("read") => {
                    let site = parse_site(line, words.next())?;
                    let value: Vec<&str> = words.collect();
                    if value.is_empty() {
                        return Err(err(line, "expect read needs a value"));
                    }
                    Command::ExpectRead(site, value.join(" "))
                }
                Some("refused") => {
                    let op = match words.next() {
                        Some("read") => OpName::Read,
                        Some("write") => OpName::Write,
                        Some("recover") => OpName::Recover,
                        other => {
                            return Err(err(
                                line,
                                format!("expect refused needs read/write/recover, got {other:?}"),
                            ))
                        }
                    };
                    Command::ExpectRefused(op, parse_site(line, words.next())?)
                }
                other => return Err(err(line, format!("unknown expectation {other:?}"))),
            },
            other => return Err(err(line, format!("unknown command {other:?}"))),
        };
        commands.push((line, command));
    }
    Ok(commands)
}

/// Executes parsed commands against a cluster, returning the
/// transcript.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when an `expect` fails (with the line it
/// came from).
pub fn run(
    cluster: &mut Cluster<String>,
    commands: &[(usize, Command)],
) -> Result<Vec<String>, ScenarioError> {
    let mut log = Vec::new();
    for (line, command) in commands {
        let line = *line;
        match command {
            Command::Fail(site) => {
                cluster.fail_site(SiteId::new(*site));
                log.push(format!("fail S{site}"));
            }
            Command::Repair(site) => {
                cluster.repair_site(SiteId::new(*site));
                log.push(format!("repair S{site}"));
            }
            Command::Recover(site) => match cluster.recover(SiteId::new(*site)) {
                Ok(()) => log.push(format!("recover S{site}: ok")),
                Err(e) => log.push(format!("recover S{site}: refused ({e})")),
            },
            Command::Write(site, value) => match cluster.write(SiteId::new(*site), value.clone()) {
                Ok(()) => log.push(format!("write S{site} {value:?}: ok")),
                Err(e) => log.push(format!("write S{site}: refused ({e})")),
            },
            Command::Read(site) => match cluster.read(SiteId::new(*site)) {
                Ok(v) => log.push(format!("read S{site}: {v:?}")),
                Err(e) => log.push(format!("read S{site}: refused ({e})")),
            },
            Command::Partition(groups) => {
                let sets: Vec<SiteSet> = groups
                    .iter()
                    .map(|g| SiteSet::from_indices(g.iter().copied()))
                    .collect();
                cluster.heal_partition();
                cluster.force_partition(sets);
                log.push(format!("partition {groups:?}"));
            }
            Command::Heal => {
                cluster.heal_partition();
                log.push("heal".to_string());
            }
            Command::Inject(rule) => {
                cluster.inject_fault(rule.clone());
                log.push(format!("inject {rule}"));
            }
            Command::DeliverAll => {
                cluster.clear_message_faults();
                log.push("deliver-all".to_string());
            }
            Command::State(site) => {
                let s = cluster.state_at(SiteId::new(*site));
                log.push(format!("state S{site}: {s:?}"));
            }
            Command::Explain(site) => match cluster.explain(SiteId::new(*site)) {
                Some(text) => {
                    log.push(format!("explain S{site}:"));
                    for line in text.lines() {
                        log.push(format!("    {line}"));
                    }
                }
                None => log.push(format!("explain S{site}: site is down")),
            },
            Command::ExpectRead(site, want) => match cluster.read(SiteId::new(*site)) {
                Ok(got) if got == *want => log.push(format!("expect read S{site} {want:?}: ok")),
                Ok(got) => {
                    return Err(err(
                        line,
                        format!("expected read of {want:?} at S{site}, got {got:?}"),
                    ))
                }
                Err(e) => {
                    return Err(err(
                        line,
                        format!("expected read of {want:?} at S{site}, but it was refused: {e}"),
                    ))
                }
            },
            Command::ExpectRefused(op, site) => {
                let outcome = match op {
                    OpName::Read => cluster.read(SiteId::new(*site)).map(|_| ()),
                    OpName::Write => cluster.write(SiteId::new(*site), "<probe>".to_string()),
                    OpName::Recover => cluster.recover(SiteId::new(*site)),
                };
                match outcome {
                    Err(e) => log.push(format!("expect refused {op:?} S{site}: ok ({e})")),
                    Ok(()) => {
                        return Err(err(
                            line,
                            format!("expected {op:?} at S{site} to be refused, but it succeeded"),
                        ))
                    }
                }
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterBuilder, Protocol};

    fn cluster() -> Cluster<String> {
        ClusterBuilder::new()
            .copies([0, 1, 2])
            .protocol(Protocol::Odv)
            .build_with_value("v1".to_string())
    }

    #[test]
    fn parses_all_commands() {
        let script = "
            # a comment
            fail 1
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
        ";
        let cmds = parse(script).unwrap();
        assert_eq!(cmds.len(), 11);
        assert_eq!(cmds[10].1, Command::Explain(0));
        assert_eq!(cmds[0].1, Command::Fail(1));
        assert_eq!(cmds[3].1, Command::Write(0, "hello world".into()));
        assert_eq!(cmds[5].1, Command::Partition(vec![vec![0, 1], vec![2]]));
        assert_eq!(cmds[8].1, Command::ExpectRead(0, "hello world".into()));
        assert_eq!(cmds[9].1, Command::ExpectRefused(OpName::Write, 2));
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
                SiteId::new(2),
                FaultAction::Drop
            ))
        );
        assert_eq!(
            cmds[1].1,
            Command::Inject(
                FaultRule::once(MessageClass::State, SiteId::new(1), FaultAction::Duplicate)
                    .times(3)
            )
        );
        assert_eq!(
            cmds[3].1,
            Command::Inject(FaultRule::once(
                MessageClass::Commit,
                SiteId::new(2),
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
        let e = parse("fail 0\nbogus 1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = parse("write 0").unwrap_err();
        assert!(e.message.contains("needs a value"));
        let e = parse("expect refused flush 0").unwrap_err();
        assert!(e.message.contains("read/write/recover"));
        let e = parse("fail x").unwrap_err();
        assert!(e.message.contains("bad site number"));
    }

    #[test]
    fn runs_the_paper_walkthrough() {
        let script = "
            write 0 v2
            fail 1
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
    fn explain_command_logs_the_decision_trace() {
        let cmds = parse("fail 2\nfail 1\nexplain 0\nfail 0\nexplain 0").unwrap();
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
        let cmds = parse("fail 1\nfail 2\nexplain 0").unwrap();
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
        let cmds = parse("fail 1\nfail 2\nexpect read 0 nope").unwrap();
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
        let cmds = parse("fail 1\nfail 2\nread 0\nwrite 0 x").unwrap();
        let mut c = cluster();
        let log = run(&mut c, &cmds).unwrap();
        assert!(log[2].contains("refused"));
        assert!(log[3].contains("refused"));
    }
}
