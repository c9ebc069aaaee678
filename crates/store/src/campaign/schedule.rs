//! The seeded fault schedule: a deterministic function of
//! `(seed, sites, partitions, duration)` — same seed, same campaign.
//!
//! The schedule speaks the one event alphabet ([`CheckEvent`]: `crash
//! s` is a SIGKILL, `repair s` a clean restart from disk, `partition i`
//! and `heal` canonical link cuts) and adds only what a *live* fleet
//! alone can do: disk injection between kill and restart (`repair s
//! disk=wal-garbage:N`, `repair s disk=snapshot-flip`), and stalled
//! peers (`stall s` / `unstall s` — the process keeps running and
//! answering clients, but its links go dark, the live shadow of a long
//! GC pause).
//!
//! Generation respects the same soundness budget the checker explores
//! under: at most `⌊(n-1)/2⌋` sites are silent (dead or stalled) at
//! once, so a majority always *exists* — whether the protocols let it
//! keep serving is exactly what the campaign measures. Partition
//! indices come from the scenario's canonical
//! [`segment_partitions`](dynvote_topology::Network::segment_partitions)
//! enumeration, index ≥ 1 (index 0 is the trivial one-block cut, which
//! the grammar spells `heal`).

use std::time::Duration;

use dynvote_check::CheckEvent;
use dynvote_sim::SimRng;
use dynvote_types::SiteId;

/// Corruption applied to a dead site's data directory just before its
/// restart — shapes real crashes leave behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Write `bytes` of garbage at `wal.log`'s logical end, over the
    /// zeros reserved past the last record: the damaged tail a crash
    /// mid-append leaves. The WAL opener must repair it without losing
    /// any *acknowledged* record (those precede the tear by fsync).
    WalGarbageTail {
        /// How much garbage lands after the last real record.
        bytes: usize,
    },
    /// Flip one byte of `snapshot.bin` (at `offset_hint` modulo the
    /// file length): a latent media error. Recovery must reject the
    /// checksum and fall back to the previous snapshot generation plus
    /// parked WAL — losing nothing.
    SnapshotFlip {
        /// Pseudo-random offset seed; reduced modulo the actual size.
        offset_hint: u64,
    },
}

impl core::fmt::Display for DiskFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DiskFault::WalGarbageTail { bytes } => write!(f, "wal-garbage:{bytes}"),
            DiskFault::SnapshotFlip { .. } => write!(f, "snapshot-flip"),
        }
    }
}

/// One fault the nemesis will inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// `crash s` (SIGKILL, no shutdown path runs), `repair s` (a clean
    /// restart from the data directory), `partition i` or `heal`.
    Event(CheckEvent),
    /// Restart the daemon from its data directory after corrupting the
    /// directory.
    Repair {
        /// Which site comes back.
        site: SiteId,
        /// Damage applied to the data dir before the process starts.
        disk: DiskFault,
    },
    /// The site's links go dark (process and client port stay up).
    Stall(SiteId),
    /// The stalled site's links come back.
    Unstall(SiteId),
}

/// A fault and when (offset from campaign start) it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledFault {
    /// Offset from campaign start.
    pub at: Duration,
    /// What happens.
    pub action: FaultAction,
}

impl ScheduledFault {
    /// Renders one schedule line: `@12.345s <event grammar>`.
    #[must_use]
    pub fn render(&self) -> String {
        let word = match self.action {
            FaultAction::Event(event) => event.to_string(),
            FaultAction::Repair { site, disk } => {
                format!("{} disk={disk}", CheckEvent::Repair(site))
            }
            FaultAction::Stall(s) => format!("stall {}", s.index()),
            FaultAction::Unstall(s) => format!("unstall {}", s.index()),
        };
        format!("@{:>8.3}s {word}", self.at.as_secs_f64())
    }
}

/// The full seeded schedule, plus the parameters that determined it.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The seed that produced it.
    pub seed: u64,
    /// Cluster size.
    pub sites: usize,
    /// How many canonical segment partitions the topology admits
    /// (including the trivial index 0).
    pub partitions: usize,
    /// Campaign length.
    pub duration: Duration,
    /// The faults, sorted by firing time.
    pub faults: Vec<ScheduledFault>,
}

impl Schedule {
    /// Renders the whole schedule, header included — two runs with the
    /// same parameters must render byte-identically (CI diffs this).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "# dynvote-nemesis schedule seed={} sites={} partitions={} duration={:.3}s\n",
            self.seed,
            self.sites,
            self.partitions,
            self.duration.as_secs_f64()
        );
        for fault in &self.faults {
            out.push_str(&fault.render());
            out.push('\n');
        }
        out
    }

    /// Counts by kind, for the report.
    #[must_use]
    pub fn tally(&self) -> ScheduleTally {
        let mut tally = ScheduleTally::default();
        for fault in &self.faults {
            match fault.action {
                FaultAction::Event(CheckEvent::Crash(_)) => tally.kills += 1,
                FaultAction::Event(CheckEvent::Repair(_)) => tally.restarts += 1,
                FaultAction::Repair { .. } => {
                    tally.restarts += 1;
                    tally.disk_faults += 1;
                }
                FaultAction::Event(CheckEvent::Partition(_)) => tally.partitions += 1,
                FaultAction::Event(CheckEvent::Heal) => tally.heals += 1,
                FaultAction::Stall(_) => tally.stalls += 1,
                FaultAction::Event(_) | FaultAction::Unstall(_) => {}
            }
        }
        tally
    }
}

/// Fault counts by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleTally {
    /// SIGKILLs.
    pub kills: usize,
    /// Restarts from disk.
    pub restarts: usize,
    /// Restarts preceded by disk corruption.
    pub disk_faults: usize,
    /// Canonical partition cuts.
    pub partitions: usize,
    /// Heals.
    pub heals: usize,
    /// Stalled-peer episodes.
    pub stalls: usize,
}

/// Seconds of quiet before the first fault: the fleet finishes its
/// boot RECOVERs and the workload establishes a baseline.
const WARMUP_SECS: f64 = 2.0;

/// Generates the schedule. Pure function of its arguments: the only
/// entropy is a [`SimRng`] substream of `seed`, drawn in one fixed
/// order, so equal inputs yield equal (byte-identical) schedules.
#[must_use]
pub fn generate(seed: u64, sites: usize, partitions: usize, duration: Duration) -> Schedule {
    let mut rng = SimRng::substream(seed, 0xFA01);
    let end = duration.as_secs_f64();
    // The silence budget: a strict majority must always exist.
    let budget = sites.saturating_sub(1) / 2;
    let mut faults: Vec<ScheduledFault> = Vec::new();
    let mut dead: Vec<usize> = Vec::new();
    // site -> when its scheduled unstall fires
    let mut stalled: Vec<(usize, f64)> = Vec::new();
    let mut partitioned = false;
    let mut t = WARMUP_SECS;
    while t < end {
        stalled.retain(|(_, until)| *until > t);
        let silent = dead.len() + stalled.len();
        let is_silent = |s: usize| dead.contains(&s) || stalled.iter().any(|(site, _)| *site == s);
        // A weighted menu of the action kinds legal right now.
        // 0 kill, 1 restart, 2 partition, 3 heal, 4 stall
        let mut menu: Vec<(u32, u8)> = Vec::new();
        if silent < budget {
            menu.push((3, 0));
            menu.push((2, 4));
        }
        if !dead.is_empty() {
            menu.push((4, 1));
        }
        if partitions > 1 {
            if partitioned {
                menu.push((3, 3));
            } else {
                menu.push((2, 2));
            }
        }
        if menu.is_empty() {
            // Saturated (everything killable is dead and nothing else
            // is legal) — wait for the model to drain.
            t += 0.5;
            continue;
        }
        let total: u32 = menu.iter().map(|(w, _)| w).sum();
        let mut draw = rng.below(total as usize) as u32;
        let kind = menu
            .iter()
            .find(|(w, _)| {
                if draw < *w {
                    true
                } else {
                    draw -= w;
                    false
                }
            })
            .map(|(_, k)| *k)
            .expect("weighted draw in range");
        let action = match kind {
            0 => {
                let alive: Vec<usize> = (0..sites).filter(|s| !is_silent(*s)).collect();
                let victim = alive[rng.below(alive.len())];
                dead.push(victim);
                FaultAction::Event(CheckEvent::Crash(SiteId::new(victim)))
            }
            1 => {
                let site = SiteId::new(dead.remove(rng.below(dead.len())));
                if rng.bernoulli(0.5) {
                    let disk = if rng.bernoulli(0.5) {
                        DiskFault::WalGarbageTail {
                            bytes: 1 + rng.below(48),
                        }
                    } else {
                        DiskFault::SnapshotFlip {
                            offset_hint: rng.below(1 << 20) as u64,
                        }
                    };
                    FaultAction::Repair { site, disk }
                } else {
                    FaultAction::Event(CheckEvent::Repair(site))
                }
            }
            2 => {
                partitioned = true;
                FaultAction::Event(CheckEvent::Partition(1 + rng.below(partitions - 1)))
            }
            3 => {
                partitioned = false;
                FaultAction::Event(CheckEvent::Heal)
            }
            _ => {
                let alive: Vec<usize> = (0..sites).filter(|s| !is_silent(*s)).collect();
                let victim = alive[rng.below(alive.len())];
                let pause = (0.6 + rng.exponential(0.8)).min(2.5);
                let until = (t + pause).min(end);
                stalled.push((victim, until));
                faults.push(ScheduledFault {
                    at: Duration::from_secs_f64(until),
                    action: FaultAction::Unstall(SiteId::new(victim)),
                });
                FaultAction::Stall(SiteId::new(victim))
            }
        };
        faults.push(ScheduledFault {
            at: Duration::from_secs_f64(t),
            action,
        });
        t += (0.35 + rng.exponential(0.9)).min(3.0);
    }
    faults.sort_by_key(|f| f.at);
    Schedule {
        seed,
        sites,
        partitions,
        duration,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn silent_high_water(schedule: &Schedule) -> usize {
        let mut silent: Vec<SiteId> = Vec::new();
        let mut peak = 0;
        for fault in &schedule.faults {
            match fault.action {
                FaultAction::Event(CheckEvent::Crash(s)) | FaultAction::Stall(s) => {
                    silent.push(s);
                    peak = peak.max(silent.len());
                }
                FaultAction::Event(CheckEvent::Repair(site))
                | FaultAction::Repair { site, .. }
                | FaultAction::Unstall(site) => {
                    if let Some(at) = silent.iter().position(|s| *s == site) {
                        silent.remove(at);
                    }
                }
                _ => {}
            }
        }
        peak
    }

    #[test]
    fn same_seed_renders_byte_identical_schedules() {
        let a = generate(42, 8, 5, Duration::from_secs(60));
        let b = generate(42, 8, 5, Duration::from_secs(60));
        assert_eq!(a.render(), b.render());
        assert!(
            a.faults.len() >= 10,
            "a 60s schedule should be busy, got {} faults",
            a.faults.len()
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = generate(1, 5, 2, Duration::from_secs(30));
        let b = generate(2, 5, 2, Duration::from_secs(30));
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn silence_budget_never_exceeds_minority() {
        for seed in 0..20 {
            for sites in [3usize, 5, 8] {
                let schedule = generate(seed, sites, 4, Duration::from_secs(45));
                let budget = (sites - 1) / 2;
                assert!(
                    silent_high_water(&schedule) <= budget,
                    "seed {seed} sites {sites}: more than {budget} sites silent at once"
                );
            }
        }
    }

    #[test]
    fn faults_are_time_sorted_and_inside_the_window() {
        let schedule = generate(7, 5, 3, Duration::from_secs(30));
        let mut last = Duration::ZERO;
        for fault in &schedule.faults {
            assert!(fault.at >= last, "schedule not sorted");
            assert!(fault.at <= schedule.duration);
            last = fault.at;
        }
    }

    #[test]
    fn partition_indices_skip_the_trivial_cut() {
        let schedule = generate(11, 8, 5, Duration::from_secs(60));
        for fault in &schedule.faults {
            if let FaultAction::Event(CheckEvent::Partition(index)) = fault.action {
                assert!((1..5).contains(&index), "partition {index} out of range");
            }
        }
    }

    #[test]
    fn render_uses_the_checker_grammar_words() {
        let schedule = generate(42, 5, 3, Duration::from_secs(40));
        let text = schedule.render();
        assert!(text.contains(" crash "), "no crash line:\n{text}");
        assert!(text.contains(" repair "), "no repair line:\n{text}");
    }
}
