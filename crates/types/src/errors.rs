//! Error vocabulary shared by the protocol engines.

use core::fmt;

use crate::site::SiteId;
use crate::site_set::SiteSet;

/// The kind of access a client attempted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read of the replicated file.
    Read,
    /// A write to the replicated file.
    Write,
    /// Reintegration of a recovering site.
    Recover,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Recover => "recover",
        })
    }
}

/// Why an access to the replicated file was refused.
///
/// Every refusal is an **ABORT** in the paper's READ/WRITE/RECOVER
/// procedures: the requesting group failed the majority-partition test,
/// so granting the access could violate mutual exclusion. The variants
/// record enough context for callers (and tests) to distinguish *why*
/// the quorum test failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessError {
    /// The requesting group does not contain a majority of the relevant
    /// partition/quorum set.
    NoQuorum {
        /// Kind of access attempted.
        kind: AccessKind,
        /// Sites reachable from the requester (the paper's `R`).
        reachable: SiteSet,
        /// Votes/sites counted toward the quorum test (|Q| or |T|).
        counted: usize,
        /// The previous majority partition (`P_m`) against which the
        /// majority test was run.
        against: SiteSet,
    },
    /// The group holds exactly half the previous majority partition but
    /// does not contain its maximum element (the lexicographic
    /// tie-break lost).
    TieLost {
        /// Kind of access attempted.
        kind: AccessKind,
        /// The previous majority partition.
        against: SiteSet,
        /// The site whose presence would have won the tie.
        needed: SiteId,
    },
    /// No site in the requesting group holds a current copy of the data
    /// (possible only with witnesses, which store state but no data).
    NoCurrentCopy {
        /// Kind of access attempted.
        kind: AccessKind,
        /// Sites reachable from the requester.
        reachable: SiteSet,
    },
    /// The requesting site is down or unknown to the cluster.
    OriginUnavailable {
        /// The site that issued the request.
        origin: SiteId,
    },
    /// Messages were lost faster than the bounded retry policy could
    /// recover them: after `attempts` rounds the coordinator still could
    /// not assemble the quorum view (or move the data), and gave up
    /// rather than hang. Unlike [`AccessError::NoQuorum`] this is not a
    /// verdict about partitions — the coordinator simply does not know.
    Timeout {
        /// Kind of access attempted.
        kind: AccessKind,
        /// The coordinating site.
        origin: SiteId,
        /// How many delivery rounds were attempted before giving up.
        attempts: u32,
    },
    /// The operation was granted and its `COMMIT` was sent, but delivery
    /// failed at some participants even after retries: the new state is
    /// installed at `applied` and absent at `missing`. The operation
    /// must be treated as *indeterminate* — it may yet be absorbed or
    /// superseded by the next successful operation — and is **not**
    /// counted as a success.
    Indeterminate {
        /// Kind of access attempted.
        kind: AccessKind,
        /// The coordinating site.
        origin: SiteId,
        /// Participants that applied the commit.
        applied: SiteSet,
        /// Participants that never received it.
        missing: SiteSet,
    },
    /// The operation was granted, but the coordinator could not record
    /// its commit point (a durable coordinator's log write failed), so
    /// it was abandoned before it had any effect: every vote released,
    /// nothing applied, no `COMMIT` sent.
    Unrecorded {
        /// Kind of access attempted.
        kind: AccessKind,
        /// The coordinating site.
        origin: SiteId,
    },
}

impl AccessError {
    /// The kind of access that was refused (if origin-independent).
    #[must_use]
    pub fn kind(&self) -> Option<AccessKind> {
        match self {
            AccessError::NoQuorum { kind, .. }
            | AccessError::TieLost { kind, .. }
            | AccessError::NoCurrentCopy { kind, .. }
            | AccessError::Timeout { kind, .. }
            | AccessError::Indeterminate { kind, .. }
            | AccessError::Unrecorded { kind, .. } => Some(*kind),
            AccessError::OriginUnavailable { .. } => None,
        }
    }
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::NoQuorum {
                kind,
                reachable,
                counted,
                against,
            } => write!(
                f,
                "{kind} aborted: {counted} vote(s) from {reachable} is not a majority of {against}"
            ),
            AccessError::TieLost {
                kind,
                against,
                needed,
            } => write!(
                f,
                "{kind} aborted: half of {against} reachable but tie-break site {needed} absent"
            ),
            AccessError::NoCurrentCopy { kind, reachable } => write!(
                f,
                "{kind} aborted: no current full copy reachable in {reachable}"
            ),
            AccessError::OriginUnavailable { origin } => {
                write!(f, "request origin {origin} is unavailable")
            }
            AccessError::Timeout {
                kind,
                origin,
                attempts,
            } => write!(
                f,
                "{kind} at {origin} timed out after {attempts} delivery attempt(s)"
            ),
            AccessError::Indeterminate {
                kind,
                origin,
                applied,
                missing,
            } => write!(
                f,
                "{kind} at {origin} is indeterminate: commit reached {applied} but not {missing}"
            ),
            AccessError::Unrecorded { kind, origin } => write!(
                f,
                "{kind} at {origin} abandoned: its commit point could not be recorded"
            ),
        }
    }
}

impl std::error::Error for AccessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_no_quorum() {
        let err = AccessError::NoQuorum {
            kind: AccessKind::Write,
            reachable: SiteSet::from_indices([0]),
            counted: 1,
            against: SiteSet::from_indices([0, 1, 2]),
        };
        let text = err.to_string();
        assert!(text.contains("write aborted"), "{text}");
        assert!(text.contains("majority"), "{text}");
    }

    #[test]
    fn display_tie_lost_names_needed_site() {
        let err = AccessError::TieLost {
            kind: AccessKind::Read,
            against: SiteSet::from_indices([0, 2]),
            needed: SiteId::new(2),
        };
        assert!(err.to_string().contains("S2"));
    }

    #[test]
    fn kind_is_reported() {
        let err = AccessError::NoCurrentCopy {
            kind: AccessKind::Recover,
            reachable: SiteSet::EMPTY,
        };
        assert_eq!(err.kind(), Some(AccessKind::Recover));
        let err = AccessError::OriginUnavailable {
            origin: SiteId::new(0),
        };
        assert_eq!(err.kind(), None);
    }

    #[test]
    fn display_timeout_counts_attempts() {
        let err = AccessError::Timeout {
            kind: AccessKind::Write,
            origin: SiteId::new(1),
            attempts: 3,
        };
        let text = err.to_string();
        assert!(text.contains("timed out after 3"), "{text}");
        assert_eq!(err.kind(), Some(AccessKind::Write));
    }

    #[test]
    fn display_indeterminate_names_both_sides() {
        let err = AccessError::Indeterminate {
            kind: AccessKind::Write,
            origin: SiteId::new(0),
            applied: SiteSet::from_indices([0, 1]),
            missing: SiteSet::from_indices([2]),
        };
        let text = err.to_string();
        assert!(text.contains("indeterminate"), "{text}");
        assert!(text.contains("S2"), "{text}");
        assert_eq!(err.kind(), Some(AccessKind::Write));
    }

    #[test]
    fn errors_are_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<AccessError>();
    }
}
