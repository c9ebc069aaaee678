//! The checker's event alphabet.
//!
//! A [`CheckEvent`] is the enumerable, serializable form of one cluster
//! transition; [`crate::World::apply`] maps it onto the cluster's named
//! methods (`fail_site`, `repair_site`, `recover`, `force_partition`,
//! `heal_partition`, `read`, `write`). Two of its shapes are deliberate:
//!
//! * `Write` carries no value — the [`crate::World`] mints a monotone
//!   token per granted write, so the alphabet stays finite and a trace
//!   replays identically regardless of which writes an edited
//!   subsequence keeps;
//! * `Partition` carries an *index* into the scenario's canonical
//!   segment-partition list ([`dynvote_topology::Network::segment_partitions`]),
//!   not the raw groups — the alphabet enumerates only partitions that
//!   respect segment boundaries, the precondition under which the
//!   topological protocols' vote claiming is sound.
//!
//! Crash/repair are liveness-only; the protocol-level rejoin is the
//! explicit `Recover` event. Splitting them is what makes
//! *stale-but-up* replicas reachable states — the states where every
//! interesting hazard lives.

use dynvote_types::SiteId;

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
    /// The WRITE operation coordinated at the (up) site; the world
    /// supplies the next write token as the value.
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
    /// Parses one trace line (the [`core::fmt::Display`] form).
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
            let raw = arg.ok_or_else(|| format!("event {word:?} needs a site number"))?;
            raw.parse()
                .ok()
                .and_then(SiteId::try_new)
                .ok_or_else(|| format!("bad site number {raw:?}"))
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
