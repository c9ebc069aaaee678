//! The protocol's wire vocabulary and per-operation message accounting.

use dynvote_types::{SiteId, SiteSet};

/// One protocol message, as it would appear on the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending site.
    pub from: SiteId,
    /// Receiving site.
    pub to: SiteId,
    /// Payload.
    pub kind: MessageKind,
}

/// The message kinds of the paper's operation structure.
///
/// `START` broadcasts a request; reachable sites answer with their
/// consistency-control state; the coordinator decides; `COMMIT` (or
/// nothing, on abort) closes the round, with an optional data copy for
/// recovering or stale sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MessageKind {
    /// The broadcast opening an operation ("a message is broadcast to
    /// all sites; those that send replies are considered to be in the
    /// current partition").
    StartRequest,
    /// A reachable site's reply: its operation number, version number
    /// and partition set.
    StateReply {
        /// The replier's operation number.
        op: u64,
        /// The replier's version number.
        version: u64,
        /// The replier's partition set.
        partition: SiteSet,
    },
    /// The commit closing a successful operation: the new consistency
    /// control information for every participant.
    Commit {
        /// New operation number.
        op: u64,
        /// New version number.
        version: u64,
        /// New partition set.
        partition: SiteSet,
    },
    /// Request for a full copy of the file (recovery of a stale site).
    CopyRequest,
    /// The full copy (we count it as one message; real systems stream).
    CopyReply,
}

impl MessageKind {
    /// Short label for traces.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MessageKind::StartRequest => "START",
            MessageKind::StateReply { .. } => "STATE",
            MessageKind::Commit { .. } => "COMMIT",
            MessageKind::CopyRequest => "COPY?",
            MessageKind::CopyReply => "COPY!",
        }
    }
}

/// Protocol-message counters: a total and one count per kind.
///
/// Only the counts are kept — no message bodies — so recording is a
/// pair of increments and cloning a cluster copies six counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    total: u64,
    by_kind: [u64; 5],
}

impl Trace {
    fn kind_index(kind: &MessageKind) -> usize {
        match kind {
            MessageKind::StartRequest => 0,
            MessageKind::StateReply { .. } => 1,
            MessageKind::Commit { .. } => 2,
            MessageKind::CopyRequest => 3,
            MessageKind::CopyReply => 4,
        }
    }

    /// Counts one message.
    pub fn record(&mut self, message: &Message) {
        self.total += 1;
        self.by_kind[Self::kind_index(&message.kind)] += 1;
    }

    /// Total messages recorded since the last [`Trace::clear`].
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Messages of one kind (matched by label index).
    #[must_use]
    pub fn count_of(&self, kind: &MessageKind) -> u64 {
        self.by_kind[Self::kind_index(kind)]
    }

    /// Resets every counter.
    pub fn clear(&mut self) {
        self.total = 0;
        self.by_kind = [0; 5];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(kind: MessageKind) -> Message {
        Message {
            from: SiteId::new(0),
            to: SiteId::new(1),
            kind,
        }
    }

    #[test]
    fn counts_by_kind() {
        let mut t = Trace::default();
        t.record(&msg(MessageKind::StartRequest));
        t.record(&msg(MessageKind::StartRequest));
        t.record(&msg(MessageKind::CopyReply));
        assert_eq!(t.total(), 3);
        assert_eq!(t.count_of(&MessageKind::StartRequest), 2);
        assert_eq!(t.count_of(&MessageKind::CopyReply), 1);
        assert_eq!(t.count_of(&MessageKind::CopyRequest), 0);
    }

    #[test]
    fn counting_by_kind_has_no_cap() {
        let mut t = Trace::default();
        for _ in 0..5000 {
            t.record(&msg(MessageKind::StartRequest));
            t.record(&msg(MessageKind::CopyRequest));
        }
        assert_eq!(t.total(), 10_000);
        assert_eq!(t.count_of(&MessageKind::StartRequest), 5000);
        assert_eq!(t.count_of(&MessageKind::CopyRequest), 5000);
    }

    #[test]
    fn clear_resets() {
        let mut t = Trace::default();
        t.record(&msg(MessageKind::StartRequest));
        t.clear();
        assert_eq!(t.total(), 0);
        assert_eq!(t.count_of(&MessageKind::StartRequest), 0);
    }

    #[test]
    fn labels() {
        assert_eq!(MessageKind::StartRequest.label(), "START");
        assert_eq!(
            MessageKind::Commit {
                op: 1,
                version: 1,
                partition: SiteSet::EMPTY
            }
            .label(),
            "COMMIT"
        );
    }
}
