//! The one event alphabet every medium speaks.
//!
//! A [`CheckEvent`] is the enumerable, serializable form of one cluster
//! transition: the paper's site failure and repair, partition and heal,
//! and its READ / WRITE / RECOVER. The model checker enumerates and
//! replays it (`dynvote-check`, its `.trace` files), [`crate::scenario`]
//! scripts are these lines plus their directives, and the live drivers
//! (`dynvote-ctl replay`, the nemesis schedule) map it onto daemons.
//! Each medium interprets it over the cluster's named methods
//! ([`Cluster::fail_site`](crate::Cluster::fail_site),
//! [`Cluster::repair_site`](crate::Cluster::repair_site),
//! [`Cluster::recover`](crate::Cluster::recover),
//! [`Cluster::force_partition`](crate::Cluster::force_partition),
//! [`Cluster::heal_partition`](crate::Cluster::heal_partition),
//! [`Cluster::read`](crate::Cluster::read),
//! [`Cluster::write`](crate::Cluster::write)); there is no step
//! function. Two of its shapes are deliberate:
//!
//! * `Write` carries no value — the checker mints a monotone token per
//!   granted write, so the alphabet stays finite and a trace replays
//!   identically regardless of which writes an edited subsequence
//!   keeps;
//! * `Partition` carries an *index* into the network's canonical
//!   segment-partition list ([`dynvote_topology::Network::segment_partitions`],
//!   looked up by [`canonical_partition`]), not the raw groups — the
//!   alphabet enumerates only partitions that respect segment
//!   boundaries, the precondition under which the topological
//!   protocols' vote claiming is sound.
//!
//! Crash/repair are liveness-only; the protocol-level rejoin is the
//! explicit `Recover` event. Splitting them is what makes
//! *stale-but-up* replicas reachable states — the states where every
//! interesting hazard lives.

use dynvote_types::{SiteId, SiteSet};

/// One enumerable cluster transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckEvent {
    /// Fail-stop crash of a site (state survives on stable storage).
    Crash(SiteId),
    /// The site comes back up — liveness only, no protocol rejoin.
    Repair(SiteId),
    /// The RECOVER operation coordinated at the (up) site.
    Recover(SiteId),
    /// Force the canonical segment partition with this index (index 0
    /// is the trivial one-block partition and is expressed as
    /// [`CheckEvent::Heal`] instead).
    Partition(usize),
    /// Remove any forced partition.
    Heal,
    /// The READ operation coordinated at the (up) site.
    Read(SiteId),
    /// The WRITE operation coordinated at the (up) site; the medium
    /// supplies the value.
    Write(SiteId),
}

impl core::fmt::Display for CheckEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckEvent::Crash(s) => write!(f, "crash {}", s.index()),
            CheckEvent::Repair(s) => write!(f, "repair {}", s.index()),
            CheckEvent::Recover(s) => write!(f, "recover {}", s.index()),
            CheckEvent::Partition(i) => write!(f, "partition {i}"),
            CheckEvent::Heal => write!(f, "heal"),
            CheckEvent::Read(s) => write!(f, "read {}", s.index()),
            CheckEvent::Write(s) => write!(f, "write {}", s.index()),
        }
    }
}

impl CheckEvent {
    /// Parses one event line (the [`core::fmt::Display`] form).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line.
    pub fn parse(line: &str) -> Result<CheckEvent, String> {
        let mut parts = line.split_whitespace();
        let word = parts.next().ok_or_else(|| "empty event line".to_string())?;
        let arg = parts.next();
        if parts.next().is_some() {
            return Err(format!("trailing tokens in event line {line:?}"));
        }
        let site = |arg: Option<&str>| -> Result<SiteId, String> {
            parse_site(arg.ok_or_else(|| format!("event {word:?} needs a site number"))?)
        };
        match word {
            "crash" => Ok(CheckEvent::Crash(site(arg)?)),
            "repair" => Ok(CheckEvent::Repair(site(arg)?)),
            "recover" => Ok(CheckEvent::Recover(site(arg)?)),
            "partition" => {
                let raw = arg.ok_or_else(|| "partition needs an index".to_string())?;
                let index: usize = raw
                    .parse()
                    .map_err(|_| format!("bad partition index {raw:?}"))?;
                Ok(CheckEvent::Partition(index))
            }
            "heal" => {
                if arg.is_some() {
                    return Err("heal takes no argument".to_string());
                }
                Ok(CheckEvent::Heal)
            }
            "read" => Ok(CheckEvent::Read(site(arg)?)),
            "write" => Ok(CheckEvent::Write(site(arg)?)),
            other => Err(format!("unknown event {other:?}")),
        }
    }
}

/// Parses a site number, refusing one past the site limit.
///
/// # Errors
///
/// Returns a description of the bad token.
pub fn parse_site(raw: &str) -> Result<SiteId, String> {
    raw.parse()
        .ok()
        .and_then(SiteId::try_new)
        .ok_or_else(|| format!("bad site number {raw:?}"))
}

/// The groups of canonical partition `index` in `partitions` (a
/// network's [`segment_partitions`](dynvote_topology::Network::segment_partitions)).
///
/// # Errors
///
/// `index` is past the end of the list.
pub fn canonical_partition(
    partitions: &[Vec<SiteSet>],
    index: usize,
) -> Result<&[SiteSet], String> {
    partitions.get(index).map(Vec::as_slice).ok_or_else(|| {
        format!(
            "partition {index} out of range ({} canonical partitions)",
            partitions.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{self, Command};

    /// One grammar: an event's line means the same event to the trace
    /// parser and to the scenario parser.
    #[test]
    fn display_parse_roundtrip() {
        let events = [
            CheckEvent::Crash(SiteId::new(0)),
            CheckEvent::Repair(SiteId::new(3)),
            CheckEvent::Recover(SiteId::new(1)),
            CheckEvent::Partition(2),
            CheckEvent::Heal,
            CheckEvent::Read(SiteId::new(4)),
            CheckEvent::Write(SiteId::new(2)),
        ];
        for event in events {
            let line = event.to_string();
            assert_eq!(CheckEvent::parse(&line), Ok(event), "line {line:?}");
            assert_eq!(
                scenario::parse(&line),
                Ok(vec![(1, Command::Event(event))]),
                "line {line:?}"
            );
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CheckEvent::parse("").is_err());
        assert!(CheckEvent::parse("explode 3").is_err());
        assert!(CheckEvent::parse("crash").is_err());
        assert!(CheckEvent::parse("crash x").is_err());
        assert!(CheckEvent::parse("read 70").is_err(), "past the site limit");
        assert!(CheckEvent::parse("heal 2").is_err());
        assert!(CheckEvent::parse("read 1 2").is_err());
    }

    #[test]
    fn canonical_partition_names_the_range() {
        let partitions = vec![vec![SiteSet::from_indices([0, 1])]];
        assert_eq!(canonical_partition(&partitions, 0), Ok(&partitions[0][..]));
        let error = canonical_partition(&partitions, 1).unwrap_err();
        assert!(
            error.contains("out of range (1 canonical partitions)"),
            "{error}"
        );
    }
}
