//! The always-on invariant monitor.

use dynvote_types::SiteSet;

use crate::cluster::HISTORY_CAP;

/// A detected violation of the replicated file's correctness guarantees.
///
/// With MCV, DV, LDV and ODV no violation is ever recorded — the
/// property tests hammer the cluster with random fault/operation
/// schedules to back that claim. The topological variants can violate
/// these invariants through the sequential-claim hazard (see DESIGN.md),
/// and the checker is how the test suite *demonstrates* that finding at
/// message level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A granted read served a version older than the latest successful
    /// write — the one-copy guarantee failed.
    StaleRead {
        /// The version the read served.
        served: u64,
        /// The version of the latest successful write.
        latest: u64,
    },
    /// Two successful writes committed the same version number — two
    /// rival majority partitions have both accepted writes.
    DuplicateVersion {
        /// The reused version number.
        version: u64,
    },
    /// Two successful operations committed the same operation number
    /// with different partition sets — the lineage forked.
    LineageFork {
        /// The reused operation number.
        op: u64,
        /// Participants of the first commit.
        first: SiteSet,
        /// Participants of the second commit.
        second: SiteSet,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::StaleRead { served, latest } => {
                write!(f, "stale read: served v{served}, latest write is v{latest}")
            }
            Violation::DuplicateVersion { version } => {
                write!(f, "version v{version} committed by two rival writes")
            }
            Violation::LineageFork { op, first, second } => {
                write!(
                    f,
                    "operation {op} committed twice: by {first} and by {second}"
                )
            }
        }
    }
}

/// Tracks ground truth across operations and records [`Violation`]s.
///
/// The two ledgers — committed operation numbers and written versions
/// — are `Vec`s sorted by number (a clone is one copy, iteration is in
/// order) and bounded: each keeps at least its latest `HISTORY_CAP`
/// (4096) entries and never more than twice that, so a long-running
/// coordinator's monitor stays under 256 KiB.
/// A lineage fork or duplicate version whose number has fallen out of
/// that window is no longer detected; exhaustive checker runs stay
/// orders of magnitude inside it.
#[derive(Debug)]
pub struct Checker {
    latest_written: u64,
    written_versions: Vec<(u64, u64)>, // (version, times committed)
    committed_ops: Vec<(u64, SiteSet)>,
    violations: Vec<Violation>,
}

impl Clone for Checker {
    fn clone(&self) -> Self {
        Checker {
            latest_written: self.latest_written,
            written_versions: self.written_versions.clone(),
            committed_ops: self.committed_ops.clone(),
            violations: self.violations.clone(),
        }
    }

    /// Copies `source` into this monitor's buffers: an explorer
    /// branching a cluster into a spare one allocates nothing here.
    fn clone_from(&mut self, source: &Self) {
        let Checker {
            latest_written,
            written_versions,
            committed_ops,
            violations,
        } = source;
        self.latest_written = *latest_written;
        self.written_versions.clone_from(written_versions);
        self.committed_ops.clone_from(committed_ops);
        self.violations.clone_from(violations);
    }
}

/// Inserts `entry` at `slot` of a ledger sorted by number, then drops
/// the older half if the ledger has outgrown twice the floor.
fn insert_bounded<V>(ledger: &mut Vec<(u64, V)>, slot: usize, entry: (u64, V)) {
    ledger.insert(slot, entry);
    if ledger.len() > 2 * HISTORY_CAP {
        ledger.drain(..ledger.len() - HISTORY_CAP);
    }
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

impl Checker {
    /// A fresh checker; the initial value counts as write version 1.
    #[must_use]
    pub fn new() -> Self {
        Checker {
            latest_written: 1,
            written_versions: vec![(1, 1)],
            committed_ops: vec![(1, SiteSet::EMPTY)],
            violations: Vec::new(),
        }
    }

    /// Notes a successful commit of `op` by `participants`.
    pub fn note_commit(&mut self, op: u64, participants: SiteSet) {
        match self.committed_ops.binary_search_by_key(&op, |&(op, _)| op) {
            // The initial pseudo-op 1 is held by every fresh copy.
            Ok(slot) => {
                let first = self.committed_ops[slot].1;
                if first != participants && op != 1 {
                    self.violations.push(Violation::LineageFork {
                        op,
                        first,
                        second: participants,
                    });
                }
            }
            Err(slot) => insert_bounded(&mut self.committed_ops, slot, (op, participants)),
        }
    }

    /// Notes a successful write committing `version`.
    pub fn note_write(&mut self, version: u64) {
        match self
            .written_versions
            .binary_search_by_key(&version, |&(version, _)| version)
        {
            Ok(slot) => {
                self.written_versions[slot].1 += 1;
                self.violations
                    .push(Violation::DuplicateVersion { version });
            }
            Err(slot) => insert_bounded(&mut self.written_versions, slot, (version, 1)),
        }
        if version > self.latest_written {
            self.latest_written = version;
        }
    }

    /// Notes a successful read that served `version`.
    pub fn note_read(&mut self, version: u64) {
        if version < self.latest_written {
            self.violations.push(Violation::StaleRead {
                served: version,
                latest: self.latest_written,
            });
        }
    }

    /// The version of the latest successful write.
    #[must_use]
    pub fn latest_written(&self) -> u64 {
        self.latest_written
    }

    /// All recorded violations, in detection order.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The commit log as `(op, participants)` pairs, in operation order
    /// whatever order they were noted in — the lineage history the
    /// fork detector reads, so an explorer may merge two states only
    /// when these agree.
    pub fn commits(&self) -> impl Iterator<Item = (u64, SiteSet)> + '_ {
        self.committed_ops.iter().copied()
    }

    /// The written-version multiset as `(version, times)` pairs, in
    /// version order (companion to [`Checker::commits`]).
    pub fn written(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.written_versions.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_history_records_nothing() {
        let mut c = Checker::new();
        c.note_commit(2, SiteSet::from_indices([0, 1]));
        c.note_write(2);
        c.note_read(2);
        c.note_commit(3, SiteSet::from_indices([0, 1]));
        c.note_read(2);
        assert!(c.violations().is_empty());
        assert_eq!(c.latest_written(), 2);
    }

    #[test]
    fn stale_read_detected() {
        let mut c = Checker::new();
        c.note_write(5);
        c.note_read(4);
        assert_eq!(
            c.violations(),
            &[Violation::StaleRead {
                served: 4,
                latest: 5
            }]
        );
    }

    #[test]
    fn duplicate_version_detected() {
        let mut c = Checker::new();
        c.note_write(2);
        c.note_write(2);
        assert_eq!(
            c.violations(),
            &[Violation::DuplicateVersion { version: 2 }]
        );
    }

    #[test]
    fn lineage_fork_detected() {
        let mut c = Checker::new();
        c.note_commit(4, SiteSet::from_indices([0]));
        c.note_commit(4, SiteSet::from_indices([1]));
        assert_eq!(c.violations().len(), 1);
        assert!(matches!(
            c.violations()[0],
            Violation::LineageFork { op: 4, .. }
        ));
    }

    #[test]
    fn ledgers_follow_the_history_not_the_note_order() {
        let notes = [
            (2, SiteSet::from_indices([0, 1])),
            (3, SiteSet::from_indices([0])),
        ];
        let mut a = Checker::new();
        let mut b = Checker::new();
        for &(op, participants) in &notes {
            a.note_commit(op, participants);
            a.note_write(op);
        }
        for &(op, participants) in notes.iter().rev() {
            b.note_commit(op, participants);
            b.note_write(op);
        }
        assert_eq!(
            a.commits().collect::<Vec<_>>(),
            b.commits().collect::<Vec<_>>()
        );
        assert_eq!(
            a.written().collect::<Vec<_>>(),
            b.written().collect::<Vec<_>>()
        );
    }

    #[test]
    fn same_commit_twice_is_fine() {
        // Re-committing the same op by the same participants (e.g. the
        // initial state) is not a fork.
        let mut c = Checker::new();
        c.note_commit(4, SiteSet::from_indices([0, 1]));
        c.note_commit(4, SiteSet::from_indices([0, 1]));
        assert!(c.violations().is_empty());
    }

    #[test]
    fn violations_display() {
        let v = Violation::StaleRead {
            served: 3,
            latest: 7,
        };
        assert!(v.to_string().contains("v3"));
        let v = Violation::LineageFork {
            op: 9,
            first: SiteSet::from_indices([0]),
            second: SiteSet::from_indices([1]),
        };
        assert!(v.to_string().contains("operation 9"));
    }
}
