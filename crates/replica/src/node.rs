//! One participant: state + data (none at a witness) + liveness.

use dynvote_core::state::ReplicaState;
use dynvote_types::{SiteId, SiteSet};

/// One site's participant in the file: the consistency-control state
/// that the protocol reads and writes, the current data value — `None`
/// at a **witness** (Pâris 1986, the paper's §5 "witness copies"
/// extension: it votes and receives commits like a copy, can break
/// ties and regenerate quorums, but never serves a read or seeds a
/// recovery) — and the site's up/down status.
///
/// A node is deliberately passive — all protocol logic lives in
/// [`crate::Cluster`], which plays the coordinator role of whichever
/// site an operation originates at. The node only answers the messages
/// a real remote replica would answer: *report your state*, *apply this
/// commit*, *serve/accept a copy of the file*.
#[derive(Clone, Debug)]
pub struct Node<T> {
    id: SiteId,
    up: bool,
    state: ReplicaState,
    data: Option<T>,
    pending: Option<u64>,
}

impl<T: Clone> Node<T> {
    /// A fresh participant holding `data` (`None`: a witness), with the
    /// paper's initial state (`o = v = 1`, partition set = all
    /// participants).
    #[must_use]
    pub fn new(id: SiteId, all_participants: SiteSet, data: Option<T>) -> Self {
        Node {
            id,
            up: true,
            state: ReplicaState::initial(all_participants),
            data,
            pending: None,
        }
    }

    /// This node's site identifier.
    #[must_use]
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Whether the site is currently up.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Fails the site. Its state and data persist (fail-stop, stable
    /// storage) but it answers no messages until repaired.
    pub fn fail(&mut self) {
        self.up = false;
    }

    /// Repairs the site. The *protocol*-level reintegration (RECOVER)
    /// is a separate, explicit operation — a freshly repaired site holds
    /// whatever state it crashed with.
    pub fn repair(&mut self) {
        self.up = true;
    }

    /// The node's consistency-control state (a state-reply message).
    #[must_use]
    pub fn state(&self) -> ReplicaState {
        self.state
    }

    /// Applies a commit: adopts the new control state, stores the value
    /// riding it (a witness ignores it), and releases the outstanding
    /// vote — receiving the `COMMIT` is how a voter learns its operation
    /// resolved.
    pub fn apply_commit(&mut self, state: ReplicaState, value: Option<&T>) {
        self.state = state;
        if let (Some(data), Some(value)) = (&mut self.data, value) {
            data.clone_from(value);
        }
        self.pending = None;
    }

    /// Overwrites the data (an incoming copy, a restored image). A
    /// witness holds no data and drops the value.
    pub fn store(&mut self, value: T) {
        if let Some(data) = &mut self.data {
            *data = value;
        }
    }

    /// Serves the current data (a read, or an outgoing copy); `None` at
    /// a witness.
    #[must_use]
    pub fn fetch(&self) -> Option<T> {
        self.data.clone()
    }

    /// The current data, borrowed; `None` at a witness.
    #[must_use]
    pub fn data(&self) -> Option<&T> {
        self.data.as_ref()
    }

    /// The operation ticket this node has voted for but not yet seen
    /// resolved, if any. A pending node abstains from other operations
    /// — its earlier vote may still be binding. Pending survives
    /// fail/repair (stable storage), like the rest of the state.
    #[must_use]
    pub fn pending(&self) -> Option<u64> {
        self.pending
    }

    /// Marks the node as holding an outstanding vote for `ticket`.
    pub fn set_pending(&mut self, ticket: u64) {
        self.pending = Some(ticket);
    }

    /// Releases the outstanding vote (commit delivered, operation
    /// aborted, or the vote was proven non-binding).
    pub fn clear_pending(&mut self) {
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(op: u64, version: u64, partition: SiteSet) -> ReplicaState {
        ReplicaState {
            op,
            version,
            partition,
        }
    }

    #[test]
    fn witness_tracks_state_without_data() {
        let all = SiteSet::first_n(3);
        let mut w = Node::<u8>::new(SiteId::new(2), all, None);
        assert_eq!(w.id(), SiteId::new(2));
        assert!(w.is_up());
        assert_eq!(w.state().partition, all);
        w.apply_commit(stamp(4, 3, SiteSet::from_indices([0, 2])), Some(&9));
        w.store(9);
        assert_eq!(w.fetch(), None, "a witness keeps no value");
        w.fail();
        w.repair();
        assert_eq!(w.state().version, 3, "state survives the crash");
    }

    #[test]
    fn fresh_node_matches_paper_initial_state() {
        let all = SiteSet::first_n(3);
        let n = Node::new(SiteId::new(1), all, Some(42u32));
        assert_eq!(n.id(), SiteId::new(1));
        assert!(n.is_up());
        assert_eq!(n.state().op, 1);
        assert_eq!(n.state().version, 1);
        assert_eq!(n.state().partition, all);
        assert_eq!(n.fetch(), Some(42));
    }

    #[test]
    fn fail_preserves_state_and_data() {
        let mut n = Node::new(SiteId::new(0), SiteSet::first_n(2), Some("x".to_string()));
        n.apply_commit(stamp(5, 3, SiteSet::from_indices([0])), None);
        n.store("y".to_string());
        n.fail();
        assert!(!n.is_up());
        n.repair();
        assert!(n.is_up());
        assert_eq!(n.state().op, 5, "stable storage survives the crash");
        assert_eq!(n.fetch().as_deref(), Some("y"));
    }

    #[test]
    fn pending_survives_fail_repair() {
        let mut n = Node::new(SiteId::new(0), SiteSet::first_n(3), Some(0u8));
        assert_eq!(n.pending(), None);
        n.set_pending(7);
        n.fail();
        n.repair();
        assert_eq!(
            n.pending(),
            Some(7),
            "outstanding votes are on stable storage"
        );
        n.clear_pending();
        assert_eq!(n.pending(), None);

        let mut w = Node::<u8>::new(SiteId::new(1), SiteSet::first_n(3), None);
        w.set_pending(9);
        w.fail();
        w.repair();
        assert_eq!(w.pending(), Some(9));
    }

    #[test]
    fn commit_overwrites_control_state() {
        let mut n = Node::new(SiteId::new(0), SiteSet::first_n(2), Some(0u8));
        n.set_pending(3);
        n.apply_commit(stamp(7, 4, SiteSet::from_indices([0, 1])), Some(&5));
        assert_eq!(n.state().op, 7);
        assert_eq!(n.state().version, 4);
        assert_eq!(n.state().partition, SiteSet::from_indices([0, 1]));
        assert_eq!(n.fetch(), Some(5), "the value rides the commit");
        assert_eq!(n.pending(), None, "the commit resolves the vote");
    }
}
