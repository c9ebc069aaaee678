//! The message bus every protocol message crosses — and the place
//! faults are injected into it.
//!
//! The cluster never hands a [`Message`]
//! directly to a node: each one is first submitted to the [`Bus`],
//! which consults its injected [`FaultRule`]s and returns a
//! [`Verdict`] telling the cluster what the network actually did.
//! Absent any matching rule the bus is a perfect network ([`Verdict::
//! Deliver`]), so clean-path behaviour and message counts are exactly
//! those of the pre-nemesis implementation.
//!
//! Rules are matched **first-match-wins** in injection order; a rule
//! with `remaining == 0` is spent and skipped (and pruned). Matching
//! is by optional message class, sender and recipient — `None` fields
//! are wildcards — so `drop commit@S2` or "crash S1 whenever it
//! receives any message from S0" are both one rule.

use core::fmt;

use dynvote_types::SiteId;

use crate::message::{Message, MessageKind};

/// Message kinds as a payload-free classification, for fault matching
/// and the scenario DSL.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// `START` broadcasts opening an operation.
    Start,
    /// `STATE` replies carrying `(o_i, v_i, P_i)`.
    State,
    /// `COMMIT` messages closing a granted operation.
    Commit,
    /// Requests for a full data copy.
    CopyRequest,
    /// Full-copy transfers.
    CopyReply,
}

impl MessageClass {
    /// The class of a concrete wire message.
    #[must_use]
    pub fn of(kind: &MessageKind) -> Self {
        match kind {
            MessageKind::StartRequest => MessageClass::Start,
            MessageKind::StateReply { .. } => MessageClass::State,
            MessageKind::Commit { .. } => MessageClass::Commit,
            MessageKind::CopyRequest => MessageClass::CopyRequest,
            MessageKind::CopyReply => MessageClass::CopyReply,
        }
    }

    /// Parses the scenario-DSL spelling (`start`, `state`, `commit`,
    /// `copy-request`/`copy?`, `copy-reply`/`copy!`), case-insensitive.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "start" => Some(MessageClass::Start),
            "state" => Some(MessageClass::State),
            "commit" => Some(MessageClass::Commit),
            "copy-request" | "copy?" => Some(MessageClass::CopyRequest),
            "copy-reply" | "copy!" => Some(MessageClass::CopyReply),
            _ => None,
        }
    }

    /// Short label, matching [`MessageKind::label`].
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MessageClass::Start => "START",
            MessageClass::State => "STATE",
            MessageClass::Commit => "COMMIT",
            MessageClass::CopyRequest => "COPY?",
            MessageClass::CopyReply => "COPY!",
        }
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a matching fault rule does to a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The message is lost in transit.
    Drop,
    /// The message arrives twice (the duplicate is recorded on the
    /// trace; protocol handling is idempotent per operation ticket).
    Duplicate,
    /// The message is delayed past the operation's patience. For
    /// `START`/`STATE`/copy traffic that is indistinguishable from a
    /// drop; a delayed `COMMIT` is delivered late, after every on-time
    /// commit — the reordering case.
    Delay,
    /// The recipient crashes *before* processing the message: it is
    /// counted as sent, never applied, and the site goes down. This is
    /// the partial-commit hazard in one rule.
    CrashRecipient,
    /// The message is delivered normally, then the *sender* crashes —
    /// a coordinator dying mid-commit-fanout.
    CrashSender,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultAction::Drop => "drop",
            FaultAction::Duplicate => "dup",
            FaultAction::Delay => "delay",
            FaultAction::CrashRecipient => "crash-recipient",
            FaultAction::CrashSender => "crash-sender",
        })
    }
}

/// One injected message fault: a match pattern, an action, and a
/// budget of how many messages it may still affect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// Match only this message class (`None` = any).
    pub class: Option<MessageClass>,
    /// Match only messages from this site (`None` = any).
    pub from: Option<SiteId>,
    /// Match only messages to this site (`None` = any).
    pub to: Option<SiteId>,
    /// What happens to a matched message.
    pub action: FaultAction,
    /// How many more messages this rule may affect; decremented on
    /// each match, and the rule is skipped (then pruned) at zero.
    pub remaining: u32,
}

impl FaultRule {
    /// A rule affecting every message of `class` sent to `to`, once.
    #[must_use]
    pub fn once(class: MessageClass, to: SiteId, action: FaultAction) -> Self {
        FaultRule {
            class: Some(class),
            from: None,
            to: Some(to),
            action,
            remaining: 1,
        }
    }

    /// Widens the budget to `n` messages.
    #[must_use]
    pub fn times(mut self, n: u32) -> Self {
        self.remaining = n;
        self
    }

    fn matches(&self, message: &Message) -> bool {
        self.remaining > 0
            && self
                .class
                .is_none_or(|c| c == MessageClass::of(&message.kind))
            && self.from.is_none_or(|s| s == message.from)
            && self.to.is_none_or(|s| s == message.to)
    }
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.action)?;
        match self.class {
            Some(class) => write!(f, "{class}")?,
            None => f.write_str("*")?,
        }
        if let Some(from) = self.from {
            write!(f, " from {from}")?;
        }
        if let Some(to) = self.to {
            write!(f, " to {to}")?;
        }
        write!(f, " x{}", self.remaining)
    }
}

/// The bus's answer for one submitted message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No rule matched: deliver normally.
    Deliver,
    /// The message is lost.
    Drop,
    /// Delivered, plus one extra wire copy.
    Duplicate,
    /// Delayed past patience (late delivery for `COMMIT`, effectively
    /// lost for everything else).
    Delay,
    /// The recipient crashes before processing.
    CrashRecipient,
    /// Delivered, then the sender crashes.
    CrashSender,
}

/// Counters of what the bus did, across all operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Messages delivered normally (including the original of a
    /// duplicated message and a crash-sender delivery).
    pub delivered: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Duplicate wire copies created.
    pub duplicated: u64,
    /// Messages delayed.
    pub delayed: u64,
    /// Crash-on-receipt faults fired.
    pub crashed_recipients: u64,
    /// Crash-after-send faults fired.
    pub crashed_senders: u64,
}

/// The fault surface between the coordinator and the nodes.
///
/// Starts empty — a perfect network. Inject [`FaultRule`]s to make it
/// lossy; [`Bus::clear`] restores perfection (stats are kept).
#[derive(Clone, Debug, Default)]
pub struct Bus {
    rules: Vec<FaultRule>,
    stats: BusStats,
}

impl Bus {
    /// A perfect bus with no fault rules.
    #[must_use]
    pub fn new() -> Self {
        Bus::default()
    }

    /// Adds a fault rule (consulted after all earlier ones).
    pub fn inject(&mut self, rule: FaultRule) {
        self.rules.push(rule);
    }

    /// Removes every fault rule; the bus delivers perfectly again.
    pub fn clear(&mut self) {
        self.rules.clear();
    }

    /// The rules still armed (spent rules are pruned on decide).
    #[must_use]
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// What the bus has done so far.
    #[must_use]
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Decides the fate of one message. First armed matching rule
    /// wins and has its budget decremented; no match means delivery.
    pub fn decide(&mut self, message: &Message) -> Verdict {
        let verdict = match self.rules.iter_mut().find(|r| r.matches(message)) {
            Some(rule) => {
                rule.remaining -= 1;
                match rule.action {
                    FaultAction::Drop => Verdict::Drop,
                    FaultAction::Duplicate => Verdict::Duplicate,
                    FaultAction::Delay => Verdict::Delay,
                    FaultAction::CrashRecipient => Verdict::CrashRecipient,
                    FaultAction::CrashSender => Verdict::CrashSender,
                }
            }
            None => Verdict::Deliver,
        };
        self.rules.retain(|r| r.remaining > 0);
        match verdict {
            Verdict::Deliver => self.stats.delivered += 1,
            Verdict::Drop => self.stats.dropped += 1,
            Verdict::Duplicate => {
                self.stats.delivered += 1;
                self.stats.duplicated += 1;
            }
            Verdict::Delay => self.stats.delayed += 1,
            Verdict::CrashRecipient => self.stats.crashed_recipients += 1,
            Verdict::CrashSender => {
                self.stats.delivered += 1;
                self.stats.crashed_senders += 1;
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(from: usize, to: usize) -> Message {
        Message {
            from: SiteId::new(from),
            to: SiteId::new(to),
            kind: MessageKind::Commit {
                op: 2,
                version: 2,
                partition: dynvote_types::SiteSet::from_indices([0, 1, 2]),
            },
        }
    }

    fn start(from: usize, to: usize) -> Message {
        Message {
            from: SiteId::new(from),
            to: SiteId::new(to),
            kind: MessageKind::StartRequest,
        }
    }

    #[test]
    fn empty_bus_delivers_everything() {
        let mut bus = Bus::new();
        for i in 0..5 {
            assert_eq!(bus.decide(&start(0, i)), Verdict::Deliver);
        }
        assert_eq!(bus.stats().delivered, 5);
        assert_eq!(bus.stats().dropped, 0);
    }

    #[test]
    fn rule_matches_class_and_recipient() {
        let mut bus = Bus::new();
        bus.inject(FaultRule::once(
            MessageClass::Commit,
            SiteId::new(2),
            FaultAction::Drop,
        ));
        // Wrong class and wrong recipient pass through.
        assert_eq!(bus.decide(&start(0, 2)), Verdict::Deliver);
        assert_eq!(bus.decide(&commit(0, 1)), Verdict::Deliver);
        // The targeted message is dropped, exactly once.
        assert_eq!(bus.decide(&commit(0, 2)), Verdict::Drop);
        assert_eq!(bus.decide(&commit(0, 2)), Verdict::Deliver);
        assert!(bus.rules().is_empty(), "spent rule should be pruned");
    }

    #[test]
    fn budget_counts_matches() {
        let mut bus = Bus::new();
        bus.inject(
            FaultRule {
                class: Some(MessageClass::Start),
                from: None,
                to: None,
                action: FaultAction::Drop,
                remaining: 0,
            }
            .times(2),
        );
        assert_eq!(bus.decide(&start(0, 1)), Verdict::Drop);
        assert_eq!(bus.decide(&start(0, 2)), Verdict::Drop);
        assert_eq!(bus.decide(&start(0, 3)), Verdict::Deliver);
        assert_eq!(bus.stats().dropped, 2);
    }

    #[test]
    fn first_match_wins_in_injection_order() {
        let mut bus = Bus::new();
        bus.inject(FaultRule::once(
            MessageClass::Commit,
            SiteId::new(1),
            FaultAction::CrashRecipient,
        ));
        bus.inject(FaultRule::once(
            MessageClass::Commit,
            SiteId::new(1),
            FaultAction::Drop,
        ));
        assert_eq!(bus.decide(&commit(0, 1)), Verdict::CrashRecipient);
        // First rule spent; the second now fires.
        assert_eq!(bus.decide(&commit(0, 1)), Verdict::Drop);
        assert_eq!(bus.decide(&commit(0, 1)), Verdict::Deliver);
    }

    #[test]
    fn wildcard_fields_match_anything() {
        let mut bus = Bus::new();
        bus.inject(FaultRule {
            class: None,
            from: Some(SiteId::new(3)),
            to: None,
            action: FaultAction::Delay,
            remaining: 10,
        });
        assert_eq!(bus.decide(&start(3, 0)), Verdict::Delay);
        assert_eq!(bus.decide(&commit(3, 1)), Verdict::Delay);
        assert_eq!(bus.decide(&commit(0, 3)), Verdict::Deliver);
    }

    #[test]
    fn clear_restores_perfect_delivery() {
        let mut bus = Bus::new();
        bus.inject(FaultRule {
            class: None,
            from: None,
            to: None,
            action: FaultAction::Drop,
            remaining: u32::MAX,
        });
        assert_eq!(bus.decide(&start(0, 1)), Verdict::Drop);
        bus.clear();
        assert_eq!(bus.decide(&start(0, 1)), Verdict::Deliver);
    }

    #[test]
    fn duplicate_and_crash_sender_still_deliver() {
        let mut bus = Bus::new();
        bus.inject(FaultRule::once(
            MessageClass::State,
            SiteId::new(0),
            FaultAction::Duplicate,
        ));
        let state = Message {
            from: SiteId::new(1),
            to: SiteId::new(0),
            kind: MessageKind::StateReply {
                op: 1,
                version: 1,
                partition: dynvote_types::SiteSet::from_indices([0, 1]),
            },
        };
        assert_eq!(bus.decide(&state), Verdict::Duplicate);
        assert_eq!(bus.stats().delivered, 1);
        assert_eq!(bus.stats().duplicated, 1);
    }

    #[test]
    fn class_parse_round_trips() {
        for class in [
            MessageClass::Start,
            MessageClass::State,
            MessageClass::Commit,
            MessageClass::CopyRequest,
            MessageClass::CopyReply,
        ] {
            assert_eq!(
                MessageClass::parse(&class.label().to_lowercase()),
                Some(class)
            );
        }
        assert_eq!(
            MessageClass::parse("copy-request"),
            Some(MessageClass::CopyRequest)
        );
        assert_eq!(
            MessageClass::parse("copy-reply"),
            Some(MessageClass::CopyReply)
        );
        assert_eq!(MessageClass::parse("gossip"), None);
    }
}
