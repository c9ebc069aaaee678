//! Wedge resolution: the vote-probe ledger.
//!
//! A participant that answers a `START` with `mark_pending` holds an
//! *outstanding vote* — it abstains from every other operation until
//! the coordinator's `COMMIT` or `RELEASE` arrives. Both of those are
//! delivered best-effort: a `RELEASE` is fire-and-forget, and a
//! `COMMIT` whose retries run out simply leaves the participant in the
//! coordinator's `missing` set. On the in-memory transport that is
//! harmless (the model's operations are atomic), but on a real network
//! a lost resolution frame wedges the participant *forever* — live
//! fault campaigns reliably drive whole clusters into a state where
//! every site is wedged, every site abstains, and no RECOVER can ever
//! hear a reply.
//!
//! The escape is a pull path to complement the push: a wedged site
//! periodically sends a `VOTE-PROBE` for its pending ticket to the
//! coordinator that issued it (tickets encode the coordinator's site
//! index, so the target is always known). The coordinator answers from
//! its **ledger** ([`OpLedger`]): a bounded in-memory table of the
//! operations it decided. A durable coordinator's *commit point* is a
//! record in its site WAL ([`WalRecord::CommitPoint`]) — appended and
//! fsync'd after the decision, strictly before the coordinator applies
//! the commit to its own replica and before any `COMMIT` frame leaves
//! the host — and its aborts are [`WalRecord::Abort`] records in the
//! same log, so a restarted coordinator rebuilds the ledger from the
//! log's two generations ([`OpLedger::open`]).
//!
//! The answers, and why each direction is sound:
//!
//! * Ticket ledgered as **committed**, prober in the committed
//!   partition: re-send the `COMMIT` itself (state and value — or
//!   state and the keyed batch's puts, when that is what every
//!   participant was sent). The prober voted for exactly this operation, so this is
//!   the frame it lost; applying it twice is idempotent. A committed
//!   participant is **never** answered with a release — releasing a
//!   stale member of `P_new` would let it assemble a majority of
//!   `P_old` with other stale sites and fork the partition lineage.
//! * Ticket ledgered as **committed**, prober outside the committed
//!   partition: it voted but was excluded from `P_new` (it lacked the
//!   maximal version). Release it. The excluded sites are a strict
//!   minority of `P_old`, and any group they later join that could win
//!   a decision must contain a `P_new` member whose state dominates —
//!   so freeing their votes cannot fork the lineage.
//! * Ticket ledgered as **released** (the operation aborted): re-send
//!   the release — a decision the coordinator already made.
//! * Ticket from a **dead incarnation** of the coordinator, absent
//!   from the ledger and **above its high-water mark**: the commit
//!   point is fsync'd before any effect of a commit exists, so a ticket
//!   above every logged commit point provably never committed anywhere
//!   — every vote for it is non-binding and releasable. (Tickets are
//!   totally ordered across incarnations: the boot epoch is salted into
//!   bits 32–47.) The mark is the site store's
//!   ([`SiteStore::high_water`](dynvote_replica::wal::SiteStore::high_water)),
//!   raised to the fence epoch's floor ([`epoch_floor`]) where commit
//!   points may have been lost.
//! * Anything else — in flight, or evicted from the bounded in-memory
//!   table: abstain. The prober stays wedged, which is the safe
//!   direction.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use dynvote_core::state::ReplicaState;
use dynvote_replica::wal::{Wal, WalRecord, WAL_FILE, WAL_PREV_FILE};
use dynvote_types::{SiteId, SiteSet};

use crate::wire::Frame;

/// The file a coordinator kept its commit points in before they became
/// WAL records. A data directory that still holds one was last served
/// by a daemon that logged commit points there, so boot fences its
/// epoch ([`SiteStore::fence`](dynvote_replica::wal::SiteStore::fence))
/// before deleting it.
pub const LEDGER_FILE: &str = "ledger.log";

/// The coordinator site index encoded in a vote ticket (bits 48–63).
#[must_use]
pub fn coordinator_of(ticket: u64) -> usize {
    (ticket >> 48) as usize
}

/// The coordinator boot epoch encoded in a vote ticket (bits 32–47).
#[must_use]
pub fn epoch_of(ticket: u64) -> u64 {
    (ticket >> 32) & 0xFFFF
}

/// The ticket a coordinator at `site` counts up from in boot `epoch`:
/// every ticket it issues in that epoch is above it, and every ticket
/// of an earlier epoch below.
#[must_use]
pub fn epoch_floor(site: SiteId, epoch: u64) -> u64 {
    ((site.index() as u64) << 48) | ((epoch & 0xFFFF) << 32)
}

/// How a coordinator answers a vote probe for a ticket it has ledgered.
#[derive(Clone, Debug)]
pub enum ProbeAnswer {
    /// The vote is non-binding for the prober: re-send the release
    /// (with the set of sites that must still hold, so a kept site
    /// that somehow probes is still not freed).
    Release(SiteSet),
    /// The prober is a committed participant: re-send the commit, the
    /// [`WalRecord::Commit`] or [`WalRecord::Delta`] its lost `COMMIT`
    /// frame carried.
    Commit(WalRecord),
    /// Not in the ledger — in flight, evicted, or from a dead
    /// incarnation, which the daemon's one rule (`fate`) settles by the
    /// high-water mark.
    Unknown,
}

impl ProbeAnswer {
    /// The coordinator's reply to a probe from `prober` about `ticket`:
    /// the `RELEASE` or `COMMIT` the prober lost, or an abstention when
    /// the answer is unknown.
    #[must_use]
    pub fn reply(self, ticket: u64, coordinator: SiteId, prober: SiteId) -> Frame {
        let abstain = Frame::Abstain {
            ticket,
            from: coordinator,
            to: prober,
        };
        match self {
            ProbeAnswer::Release(keep) => Frame::Release {
                ticket,
                from: coordinator,
                keep,
            },
            ProbeAnswer::Commit(commit) => {
                Frame::commit(ticket, coordinator, prober, commit).unwrap_or(abstain)
            }
            ProbeAnswer::Unknown => abstain,
        }
    }

    /// What a probe's `reply` says became of `ticket` — the inverse of
    /// [`ProbeAnswer::reply`]. A reply about another ticket says nothing.
    #[must_use]
    pub fn of_reply(ticket: u64, reply: Frame) -> ProbeAnswer {
        match reply {
            Frame::Release {
                ticket: answered,
                keep,
                ..
            } if answered == ticket => ProbeAnswer::Release(keep),
            reply => match reply.into_commit() {
                Some((answered, _, _, commit)) if answered == ticket => ProbeAnswer::Commit(commit),
                _ => ProbeAnswer::Unknown,
            },
        }
    }
}

enum LedgerEntry {
    /// The operation reached its commit point: every participant
    /// installs this [`WalRecord::Commit`] or [`WalRecord::Delta`].
    Committed(WalRecord),
    /// The operation aborted; everyone outside `keep` may release.
    Released(SiteSet),
}

/// The operation ledger: bounded in memory, old entries evicted in
/// ticket order (which is issue order). What makes it durable is the
/// site WAL its entries are logged in, not the ledger itself.
pub struct OpLedger {
    entries: BTreeMap<u64, LedgerEntry>,
    order: VecDeque<u64>,
    cap: usize,
}

impl Default for OpLedger {
    fn default() -> Self {
        OpLedger::new(1024)
    }
}

impl OpLedger {
    /// An empty ledger keeping at most `cap` tickets.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        OpLedger {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Rebuilds the ledger a previous incarnation left in `dir`: every
    /// intact commit-point and abort record of the parked log, then of
    /// the live one ([`WAL_PREV_FILE`], [`WAL_FILE`]). Reads the files
    /// and writes nothing; a directory without them gives an empty
    /// ledger.
    ///
    /// # Errors
    ///
    /// Reading a log failed.
    pub fn open(dir: &Path) -> std::io::Result<OpLedger> {
        let mut ledger = OpLedger::default();
        for file in [WAL_PREV_FILE, WAL_FILE] {
            for entry in Wal::read(&dir.join(file))?.entries {
                match entry.record {
                    WalRecord::CommitPoint { ticket, commit, .. } => ledger.note(ticket, *commit),
                    WalRecord::Abort { ticket, keep } => {
                        ledger.note_release(ticket, keep);
                    }
                    _ => {}
                }
            }
        }
        Ok(ledger)
    }

    fn insert(&mut self, ticket: u64, entry: LedgerEntry) {
        if !self.entries.contains_key(&ticket) {
            if self.order.len() >= self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
            self.order.push_back(ticket);
        }
        self.entries.insert(ticket, entry);
    }

    /// Records that `ticket` committed, every participant installing
    /// `commit` (a [`WalRecord::Commit`] or [`WalRecord::Delta`]). A
    /// durable coordinator has logged it as a commit point first.
    pub fn note(&mut self, ticket: u64, commit: WalRecord) {
        self.insert(ticket, LedgerEntry::Committed(commit));
    }

    /// [`OpLedger::note`] for a caller holding a write's value as plain
    /// bytes (or none, for a state-only commit).
    ///
    /// # Errors
    ///
    /// None: the ledger is in memory.
    pub fn note_commit(
        &mut self,
        ticket: u64,
        state: ReplicaState,
        value: Option<&Vec<u8>>,
    ) -> std::io::Result<()> {
        let value = value.cloned();
        self.note(ticket, WalRecord::Commit { state, value });
        Ok(())
    }

    /// Records that `ticket` was released with `keep` still bound —
    /// the moment the release is decided, whoever it is then sent to —
    /// and says whether it did. A ticket already ledgered as committed
    /// keeps its commit record: the post-commit release of the
    /// `missing` set must not downgrade kept participants to
    /// releasable.
    pub fn note_release(&mut self, ticket: u64, keep: SiteSet) -> bool {
        if matches!(self.entries.get(&ticket), Some(LedgerEntry::Committed(_))) {
            return false;
        }
        self.insert(ticket, LedgerEntry::Released(keep));
        true
    }

    /// Answers a probe from `prober` about `ticket`.
    #[must_use]
    pub fn answer(&self, ticket: u64, prober: SiteId) -> ProbeAnswer {
        match self.entries.get(&ticket) {
            Some(LedgerEntry::Committed(commit)) => match commit.committed_state() {
                Some(state) if state.partition.contains(prober) => {
                    ProbeAnswer::Commit(commit.clone())
                }
                Some(state) => ProbeAnswer::Release(state.partition),
                None => ProbeAnswer::Unknown,
            },
            Some(LedgerEntry::Released(keep)) if !keep.contains(prober) => {
                ProbeAnswer::Release(*keep)
            }
            _ => ProbeAnswer::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_replica::wal::SiteStore;

    fn state(op: u64, version: u64) -> ReplicaState {
        ReplicaState {
            op,
            version,
            partition: SiteSet::from_iter([0, 1, 2].map(SiteId::new)),
        }
    }

    #[test]
    fn ticket_fields_decode() {
        let ticket = (3u64 << 48) | (7u64 << 32) | 42;
        assert_eq!(coordinator_of(ticket), 3);
        assert_eq!(epoch_of(ticket), 7);
    }

    #[test]
    fn unledgered_tickets_answer_unknown() {
        let ledger = OpLedger::default();
        assert!(matches!(
            ledger.answer(9, SiteId::new(1)),
            ProbeAnswer::Unknown
        ));
    }

    #[test]
    fn committed_tickets_recommit_participants_and_release_the_rest() {
        let mut ledger = OpLedger::default();
        let value = vec![1u8, 2, 3];
        let committed = ReplicaState {
            op: 2,
            version: 5,
            partition: SiteSet::from_iter([0, 2].map(SiteId::new)),
        };
        ledger
            .note_commit(9, committed, Some(&value))
            .expect("in-memory note_commit");
        match ledger.answer(9, SiteId::new(2)) {
            ProbeAnswer::Commit(WalRecord::Commit { state, value }) => {
                assert_eq!(state.op, 2);
                assert_eq!(value, Some(vec![1u8, 2, 3]));
            }
            other => panic!("expected commit, got {other:?}"),
        }
        // Excluded from P_new: released, never recommitted.
        match ledger.answer(9, SiteId::new(1)) {
            ProbeAnswer::Release(keep) => assert!(keep.contains(SiteId::new(2))),
            other => panic!("expected release, got {other:?}"),
        }
        assert!(matches!(
            ledger.answer(8, SiteId::new(1)),
            ProbeAnswer::Unknown
        ));
    }

    #[test]
    fn post_commit_release_does_not_downgrade_the_commit() {
        let mut ledger = OpLedger::default();
        ledger
            .note_commit(9, state(2, 5), None)
            .expect("in-memory note_commit");
        // The coordinator releases the missing set after the fanout;
        // a kept participant probing later must still get the commit.
        ledger.note_release(9, SiteSet::from_iter([SiteId::new(1)]));
        assert!(matches!(
            ledger.answer(9, SiteId::new(1)),
            ProbeAnswer::Commit(_)
        ));
    }

    #[test]
    fn refusals_ledger_as_releases() {
        let mut ledger = OpLedger::default();
        ledger.note_release(4, SiteSet::EMPTY);
        assert!(matches!(
            ledger.answer(4, SiteId::new(0)),
            ProbeAnswer::Release(keep) if keep.is_empty()
        ));
    }

    #[test]
    fn ledger_evicts_in_issue_order() {
        let mut ledger = OpLedger::new(2);
        ledger.note_release(1, SiteSet::EMPTY);
        ledger.note_release(2, SiteSet::EMPTY);
        ledger.note_release(3, SiteSet::EMPTY);
        assert!(matches!(
            ledger.answer(1, SiteId::new(0)),
            ProbeAnswer::Unknown
        ));
        assert!(matches!(
            ledger.answer(3, SiteId::new(0)),
            ProbeAnswer::Release(_)
        ));
    }

    /// Each answer survives its way to the prober and back; a reply
    /// about another ticket, or an abstention, says nothing.
    #[test]
    fn an_answer_and_its_reply_map_both_ways() {
        let (coordinator, prober) = (SiteId::new(0), SiteId::new(2));
        let delta = WalRecord::Delta {
            state: state(3, 3),
            base: 2,
            delta: b"puts".to_vec(),
        };
        let reply = ProbeAnswer::Commit(delta.clone()).reply(9, coordinator, prober);
        assert!(matches!(reply, Frame::CommitDelta { ticket: 9, to, .. } if to == prober));
        assert!(matches!(
            ProbeAnswer::of_reply(9, reply.clone()),
            ProbeAnswer::Commit(record) if record == delta
        ));
        assert!(matches!(
            ProbeAnswer::of_reply(8, reply),
            ProbeAnswer::Unknown
        ));
        let keep = SiteSet::from_iter([SiteId::new(1)]);
        let reply = ProbeAnswer::Release(keep).reply(9, coordinator, prober);
        assert!(matches!(
            ProbeAnswer::of_reply(9, reply),
            ProbeAnswer::Release(back) if back == keep
        ));
        let reply = ProbeAnswer::Unknown.reply(9, coordinator, prober);
        assert!(matches!(reply, Frame::Abstain { ticket: 9, .. }));
        assert!(matches!(
            ProbeAnswer::of_reply(9, reply),
            ProbeAnswer::Unknown
        ));
    }

    #[test]
    fn an_epochs_floor_is_above_every_earlier_epoch_and_below_its_own() {
        let site = SiteId::new(3);
        let floor = epoch_floor(site, 7);
        assert_eq!((coordinator_of(floor), epoch_of(floor)), (3, 7));
        let last_of_epoch_6 = epoch_floor(site, 6) | 0xFFFF_FFFF;
        assert!(last_of_epoch_6 < floor);
        assert_eq!(epoch_of(floor + 1), 7);
    }

    fn commit_point(ticket: u64, adopted: bool, commit: WalRecord) -> WalRecord {
        WalRecord::CommitPoint {
            ticket,
            adopted,
            commit: Box::new(commit),
        }
    }

    /// A restarted coordinator's ledger holds what the commit-point and
    /// abort records of both log generations say, and nothing of a
    /// generation rotated out of them.
    #[test]
    fn the_ledger_is_rebuilt_from_both_generations_of_the_log() {
        let dir = std::env::temp_dir().join(format!("dynvote-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let (mut store, _) = SiteStore::open(&dir, 0).expect("open store");
        store
            .seed(state(1, 1), None, Some(b"v".to_vec()))
            .expect("seed");
        let image = WalRecord::Commit {
            state: state(2, 2),
            value: Some(b"image".to_vec()),
        };
        store.log(commit_point(10, true, image)).expect("log");
        let abort = WalRecord::Abort {
            ticket: 11,
            keep: SiteSet::EMPTY,
        };
        store.log_unsynced(abort).expect("log");
        store.snapshot_now().expect("rotate");
        let delta = WalRecord::Delta {
            state: state(3, 3),
            base: 2,
            delta: b"puts".to_vec(),
        };
        store.log(commit_point(12, false, delta)).expect("log");
        let state_only = WalRecord::Commit {
            state: state(4, 2),
            value: None,
        };
        store.log(commit_point(13, true, state_only)).expect("log");
        // The post-commit release of a missing participant.
        let late = WalRecord::Abort {
            ticket: 13,
            keep: SiteSet::from_iter([SiteId::new(1)]),
        };
        store.log_unsynced(late).expect("log");
        assert_eq!(store.high_water(), 13);

        let ledger = OpLedger::open(&dir).expect("rebuild");
        assert!(matches!(
            ledger.answer(10, SiteId::new(1)),
            ProbeAnswer::Commit(WalRecord::Commit { state, value: Some(v) })
                if state.version == 2 && v == b"image"
        ));
        assert!(matches!(
            ledger.answer(11, SiteId::new(2)),
            ProbeAnswer::Release(keep) if keep.is_empty()
        ));
        match ledger.answer(12, SiteId::new(2)) {
            ProbeAnswer::Commit(WalRecord::Delta { state, base, delta }) => {
                assert_eq!(state.version, 3);
                assert_eq!((base, delta.as_slice()), (2, &b"puts"[..]));
            }
            other => panic!("expected the logged delta, got {other:?}"),
        }
        assert!(matches!(
            ledger.answer(13, SiteId::new(1)),
            ProbeAnswer::Commit(WalRecord::Commit { value: None, .. })
        ));
        assert!(matches!(
            ledger.answer(14, SiteId::new(1)),
            ProbeAnswer::Unknown
        ));

        // Two rotations later the records are gone from both logs: the
        // ledger forgets them, the store's high-water mark does not.
        store.snapshot_now().expect("rotate");
        store.snapshot_now().expect("rotate");
        drop(store);
        let ledger = OpLedger::open(&dir).expect("rebuild");
        assert!(matches!(
            ledger.answer(13, SiteId::new(1)),
            ProbeAnswer::Unknown
        ));
        let (store, _) = SiteStore::open(&dir, 0).expect("reopen store");
        assert_eq!(store.high_water(), 13);
        assert!(
            !dir.join(LEDGER_FILE).exists(),
            "nothing writes a ledger file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
