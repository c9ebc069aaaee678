//! The discrete-event failure/repair/access process generator.
//!
//! The driver owns the stochastic part of the study — *when* sites fail,
//! how long repairs take, when maintenance windows open, when the single
//! user accesses the file — and exposes a simple pull API: every call to
//! [`Driver::step`] advances virtual time to the next *effective* event
//! and reports whether the topology changed or an access occurred. The
//! experiment runner layers policies and metrics on top, so the same
//! stochastic trace can drive all six protocols simultaneously (common
//! random numbers, which makes the Table 2 columns directly comparable).

use std::sync::Arc;

use dynvote_sim::{Dist, Duration, SimRng, SimTime};
use dynvote_topology::{Network, Reachability, ReachabilityCache};
use dynvote_types::{SiteId, SiteSet};

use crate::sites::SiteModel;

/// A site's two pending events.
///
/// A site's failure process is in one state at a time, so one slot holds
/// whichever of its failure, repair completion or maintenance end comes
/// next: a new state overwrites the slot, which is how a maintenance
/// window cancels a pending failure. The periodic maintenance schedule
/// runs on its own clock in the second slot.
#[derive(Clone, Copy, Debug)]
struct SiteSlots {
    /// Up: when the site fails. Down: when it is back (its repair
    /// completes or its maintenance window closes).
    turn: SimTime,
    /// When the site's next maintenance window opens (`None` when it is
    /// not maintained).
    window: Option<SimTime>,
}

/// Which slot holds the earliest site event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// [`SiteSlots::turn`].
    Turn,
    /// [`SiteSlots::window`].
    Window,
}

/// What a [`Driver::step`] reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Change {
    /// The set of up sites changed (failure, repair, maintenance).
    Topology,
    /// A file access occurred (the up set is unchanged).
    Access,
}

/// The stochastic site/access process over a fixed [`Network`].
///
/// Per-site random sub-streams keep each site's failure process
/// independent of the others and stable across runs with the same seed.
///
/// Reachability is *memoized*: the network is fixed, so the partition
/// structure is a pure function of the up-set, interned once per
/// distinct up-set in a [`ReachabilityCache`] (≤ 2⁸ entries for the
/// paper's 8-site network). After warm-up a step performs no
/// reachability allocation at all — topology changes are a table
/// lookup. See DESIGN.md, "Reachability memoization".
///
/// Site events live in two slots per site (`SiteSlots`), not in a
/// priority queue: the earliest slot is found by a scan after each site
/// event and cached, and no pending event is ever stale.
pub struct Driver {
    network: Network,
    /// The network's sites: the ones whose slots are scanned.
    sites: SiteSet,
    models: Vec<SiteModel>,
    /// Indexed by site; only the network's sites' entries are used.
    slots: Vec<SiteSlots>,
    /// The earliest site event — its time, site and slot — recomputed
    /// after every site event. `None` only for a network without sites.
    next_site: Option<(SimTime, SiteId, Slot)>,
    now: SimTime,
    up: SiteSet,
    site_rngs: Vec<SimRng>,
    access_rng: SimRng,
    access_rate: f64,
    /// The next file access. Accesses are the most frequent event and
    /// never touch site state, so the stream needs no slot scan: each
    /// access is one compare against the earliest site event.
    next_access: Option<SimTime>,
    cache: ReachabilityCache,
    reach: Arc<Reachability>,
}

impl Driver {
    /// A new driver with all sites up at time zero (the paper starts
    /// simulations with every site operating).
    ///
    /// `access_rate` is the Poisson file-access rate in accesses/day
    /// (the paper uses 1.0); a rate of zero disables access events.
    ///
    /// # Panics
    ///
    /// Panics when `models` does not cover every network site.
    #[must_use]
    pub fn new(network: Network, models: &[SiteModel], seed: u64, access_rate: f64) -> Self {
        let cache = ReachabilityCache::new(&network);
        Driver::with_cache(network, models, seed, access_rate, cache)
    }

    /// Like [`Driver::new`], but starting from an existing (typically
    /// warm) [`ReachabilityCache`] for the same network. Replicated
    /// studies pass one warm cache from driver to driver (see
    /// [`Driver::into_cache`]) so only the first replication pays for
    /// the union-find computations.
    ///
    /// # Panics
    ///
    /// Panics when `models` does not cover every network site.
    #[must_use]
    pub fn with_cache(
        network: Network,
        models: &[SiteModel],
        seed: u64,
        access_rate: f64,
        mut cache: ReachabilityCache,
    ) -> Self {
        let n = models.len();
        let sites = network.sites();
        assert!(
            sites.iter().all(|s| s.index() < n),
            "every network site needs a model"
        );
        let mut site_rngs: Vec<SimRng> =
            (0..n as u64).map(|i| SimRng::substream(seed, i)).collect();
        let mut slots = vec![
            SiteSlots {
                turn: SimTime::ZERO,
                window: None,
            };
            n
        ];
        for site in sites.iter() {
            let (model, rng) = (&models[site.index()], &mut site_rngs[site.index()]);
            slots[site.index()] = SiteSlots {
                turn: SimTime::ZERO + model.fail_dist().sample(rng),
                // Stagger the periodic schedules with a random phase:
                // real machines are not all maintained at the same
                // instant, and synchronizing them would make multi-site
                // drops look far more common than they are.
                window: model
                    .maintenance
                    .map(|(interval, _)| SimTime::ZERO + interval * rng.uniform()),
            };
        }
        let mut driver = Driver {
            reach: cache.get(&network, sites),
            cache,
            network,
            sites,
            models: models.to_vec(),
            slots,
            next_site: None,
            now: SimTime::ZERO,
            up: sites,
            site_rngs,
            access_rng: SimRng::substream(seed, 0xACCE55),
            access_rate,
            next_access: None,
        };
        driver.next_site = driver.earliest_site_event();
        if access_rate > 0.0 {
            driver.schedule_access(SimTime::ZERO);
        }
        driver
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The currently up sites.
    #[must_use]
    pub fn up(&self) -> SiteSet {
        self.up
    }

    /// The current reachability (refreshed on every topology change —
    /// normally a memo-table lookup, not a recomputation).
    #[must_use]
    pub fn reachability(&self) -> &Reachability {
        &self.reach
    }

    /// The driver's memo table (to read hit/miss telemetry).
    #[must_use]
    pub fn reachability_cache(&self) -> &ReachabilityCache {
        &self.cache
    }

    /// Consumes the driver, handing its memo table back — replicated
    /// studies thread one cache through a sequence of drivers so later
    /// replications inherit every partition computed so far.
    #[must_use]
    pub fn into_cache(self) -> ReachabilityCache {
        self.cache
    }

    /// Refreshes `self.reach` after a change to the up-set.
    #[inline]
    fn refresh_reachability(&mut self) {
        self.reach = self.cache.get(&self.network, self.up);
    }

    /// The time of the next pending event (site event or file access).
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.next_site.map(|(at, ..)| at), self.next_access) {
            (Some(h), Some(a)) => Some(h.min(a)),
            (h, a) => h.or(a),
        }
    }

    /// The earliest pending site event, by plain `f64` compares (every
    /// scheduled time is finite). Equal times go to the lower site, and
    /// within a site to its turn.
    fn earliest_site_event(&self) -> Option<(SimTime, SiteId, Slot)> {
        let mut earliest = None;
        let mut days = f64::INFINITY;
        for site in self.sites.iter() {
            let slots = &self.slots[site.index()];
            if slots.turn.as_days() < days {
                days = slots.turn.as_days();
                earliest = Some((slots.turn, site, Slot::Turn));
            }
            if let Some(window) = slots.window {
                if window.as_days() < days {
                    days = window.as_days();
                    earliest = Some((window, site, Slot::Window));
                }
            }
        }
        earliest
    }

    fn time_to_fail(&mut self, site: SiteId) -> Duration {
        self.models[site.index()]
            .fail_dist()
            .sample(&mut self.site_rngs[site.index()])
    }

    fn schedule_access(&mut self, now: SimTime) {
        let gap = Duration::days(self.access_rng.exponential(1.0 / self.access_rate));
        self.next_access = Some(now + gap);
    }

    fn repair_duration(&mut self, site: SiteId) -> Duration {
        let model = &self.models[site.index()];
        let rng = &mut self.site_rngs[site.index()];
        let dist: Dist = if rng.bernoulli(model.hw_fraction) {
            model.hardware_repair_dist()
        } else {
            model.software_repair_dist()
        };
        dist.sample(rng)
    }

    /// Advances to the next effective event. Returns `None` only when no
    /// events remain (possible only with a zero access rate and no
    /// sites).
    pub fn step(&mut self) -> Option<(SimTime, Change)> {
        loop {
            // Access fast path: the access stream never touches site
            // state, so it is one compare against the cached earliest
            // site event. Ties go to the access (a site event at the
            // exact same f64 instant as an access has probability zero).
            if let Some(t) = self.next_access {
                if self
                    .next_site
                    .is_none_or(|(at, ..)| t.as_days() <= at.as_days())
                {
                    self.now = t;
                    self.schedule_access(t);
                    return Some((t, Change::Access));
                }
            }
            let (now, site, slot) = self.next_site?;
            self.now = now;
            let i = site.index();
            match slot {
                Slot::Turn if self.up.contains(site) => {
                    // It fails; hardware or software is decided now.
                    self.up.remove(site);
                    self.slots[i].turn = now + self.repair_duration(site);
                }
                Slot::Turn => {
                    // Its repair completed or its window closed.
                    self.up.insert(site);
                    self.slots[i].turn = now + self.time_to_fail(site);
                }
                Slot::Window => {
                    // Always rearm the periodic schedule.
                    let (interval, duration) = self.models[i]
                        .maintenance
                        .expect("only maintained sites have a window");
                    self.slots[i].window = Some(now + interval);
                    if !self.up.contains(site) {
                        // Already down: the window is absorbed.
                        self.next_site = self.earliest_site_event();
                        continue;
                    }
                    // The window replaces the pending failure, whose
                    // draw is already spent.
                    self.up.remove(site);
                    self.slots[i].turn = now + duration;
                }
            }
            self.next_site = self.earliest_site_event();
            self.refresh_reachability();
            return Some((now, Change::Topology));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ucsd_network;
    use crate::sites::{identical_sites, UCSD_SITES};

    fn small_driver(seed: u64, rate: f64) -> Driver {
        let net = Network::single_segment(3);
        let models = identical_sites(3, Duration::days(10.0), Duration::hours(12.0));
        Driver::new(net, &models, seed, rate)
    }

    #[test]
    fn starts_all_up() {
        let d = small_driver(1, 1.0);
        assert_eq!(d.up(), SiteSet::first_n(3));
        assert_eq!(d.reachability().groups().len(), 1);
        assert_eq!(d.now(), SimTime::ZERO);
    }

    #[test]
    fn steps_advance_time_monotonically() {
        let mut d = small_driver(2, 1.0);
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let (t, _) = d.step().unwrap();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn topology_changes_flip_up_sets() {
        let mut d = small_driver(3, 0.0);
        let mut prev = d.up();
        for _ in 0..500 {
            let (_, change) = d.step().unwrap();
            assert_eq!(change, Change::Topology);
            assert_ne!(d.up(), prev, "a topology event must change the up set");
            prev = d.up();
        }
    }

    #[test]
    fn long_run_site_unavailability_matches_model() {
        // One site, MTTF 10 d, deterministic-free exponential repair
        // 0.5 d: theoretical unavailability = 0.5 / 10.5.
        let net = Network::single_segment(1);
        let models = identical_sites(1, Duration::days(10.0), Duration::hours(12.0));
        let mut d = Driver::new(net, &models, 7, 0.0);
        let mut down = Duration::ZERO;
        let mut last = SimTime::ZERO;
        let mut was_up = true;
        let horizon = SimTime::at_days(200_000.0);
        while let Some((t, _)) = d.step() {
            if t > horizon {
                break;
            }
            if !was_up {
                down += t - last;
            }
            was_up = d.up().contains(SiteId::new(0));
            last = t;
        }
        let frac = down.as_days() / last.as_days();
        let expect = 0.5 / 10.5;
        assert!(
            (frac - expect).abs() < 0.005,
            "measured {frac}, expected {expect}"
        );
    }

    #[test]
    fn access_rate_respected() {
        let mut d = small_driver(11, 2.0);
        let mut accesses = 0u64;
        let horizon = SimTime::at_days(50_000.0);
        let mut last = SimTime::ZERO;
        while let Some((t, change)) = d.step() {
            if t > horizon {
                break;
            }
            last = t;
            if change == Change::Access {
                accesses += 1;
            }
        }
        let rate = accesses as f64 / last.as_days();
        assert!((rate - 2.0).abs() < 0.1, "measured access rate {rate}");
    }

    #[test]
    fn zero_access_rate_yields_no_access_events() {
        let mut d = small_driver(13, 0.0);
        for _ in 0..200 {
            let (_, change) = d.step().unwrap();
            assert_ne!(change, Change::Access);
        }
    }

    #[test]
    fn maintenance_windows_fire_on_schedule() {
        // A site that never fails (huge MTTF) but has maintenance: the
        // first window opens at a random phase within the first 90
        // days, lasts 3 hours, and then recurs every 90 days.
        let net = Network::single_segment(1);
        let mut model = identical_sites(1, Duration::days(1e9), Duration::hours(1.0))
            .pop()
            .unwrap();
        model.maintenance = Some((Duration::days(90.0), Duration::hours(3.0)));
        let mut d = Driver::new(net, &[model], 17, 0.0);
        let (t1, _) = d.step().unwrap();
        assert!(t1.as_days() < 90.0, "phase within the first interval");
        assert!(d.up().is_empty());
        let (t2, _) = d.step().unwrap();
        assert!(((t2 - t1).as_hours() - 3.0).abs() < 1e-9);
        assert_eq!(d.up(), SiteSet::first_n(1));
        // And again one interval after the first window opened.
        let (t3, _) = d.step().unwrap();
        assert!(((t3 - t1).as_days() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn maintenance_phases_are_staggered_across_sites() {
        // Three maintained sites must not all drop at the same instant.
        let net = Network::single_segment(3);
        let models: Vec<_> = identical_sites(3, Duration::days(1e9), Duration::hours(1.0))
            .into_iter()
            .map(|mut m| {
                m.maintenance = Some((Duration::days(90.0), Duration::hours(3.0)));
                m
            })
            .collect();
        let mut d = Driver::new(net, &models, 23, 0.0);
        let mut first_starts = Vec::new();
        while first_starts.len() < 3 {
            let (t, _) = d.step().unwrap();
            if d.up().len() < 3 - first_starts.len() + 2 {
                // a new site went down
            }
            first_starts.push(t.as_days());
            // Skip the matching end event.
            let _ = d.step();
        }
        first_starts.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert!(
            first_starts.len() >= 2,
            "phases should differ: {first_starts:?}"
        );
    }

    #[test]
    fn same_seed_reproduces_trace() {
        let trace = |seed| {
            let mut d = small_driver(seed, 1.0);
            (0..200)
                .map(|_| {
                    let (t, c) = d.step().unwrap();
                    (t.as_days().to_bits(), c == Change::Access, d.up().bits())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(99), trace(99));
        assert_ne!(trace(99), trace(100));
    }

    #[test]
    fn reachability_is_memoized_across_steps() {
        let mut d = Driver::new(ucsd_network(), &UCSD_SITES, 5, 1.0);
        for _ in 0..20_000 {
            d.step().unwrap();
        }
        let cache = d.reachability_cache();
        assert!(
            cache.misses() <= 256,
            "8-site network has at most 256 up-sets, computed {}",
            cache.misses()
        );
        assert!(
            cache.hits() > 10 * cache.misses(),
            "long runs must be dominated by hits ({} hits, {} misses)",
            cache.hits(),
            cache.misses()
        );
    }

    #[test]
    fn memoization_does_not_change_the_trace() {
        // At every step the memoized reachability is exactly what a
        // fresh union-find over the current up-set computes.
        let network = ucsd_network();
        let mut d = Driver::new(network.clone(), &UCSD_SITES, 42, 1.0);
        for step in 0..5_000 {
            d.step().unwrap();
            assert_eq!(
                *d.reachability(),
                network.reachability(d.up()),
                "step {step}"
            );
        }
    }

    #[test]
    fn warm_cache_handoff_reproduces_fresh_runs() {
        let fresh = |seed| {
            let mut d = Driver::new(ucsd_network(), &UCSD_SITES, seed, 1.0);
            (0..2_000)
                .map(|_| d.step().unwrap().0.as_days().to_bits())
                .collect::<Vec<_>>()
        };
        // Run once to warm a cache, then replay through the handoff.
        let mut first = Driver::new(ucsd_network(), &UCSD_SITES, 9, 1.0);
        for _ in 0..2_000 {
            first.step().unwrap();
        }
        let warm = first.into_cache();
        let warm_misses = warm.misses();
        let mut replay = Driver::with_cache(ucsd_network(), &UCSD_SITES, 9, 1.0, warm);
        let replayed: Vec<u64> = (0..2_000)
            .map(|_| replay.step().unwrap().0.as_days().to_bits())
            .collect();
        assert_eq!(replayed, fresh(9));
        assert_eq!(
            replay.reachability_cache().misses(),
            warm_misses,
            "replaying the same trace through a warm cache must not recompute"
        );
    }

    /// The first 200,000 steps at seed 42 on the UCSD network, folded
    /// into one FNV-1a word per step field (time bits, change, up-set
    /// bits), with the reachability memo's hit and miss counts. Any change
    /// to the event order, the RNG draws or the lookups moves it.
    #[test]
    fn the_ucsd_trace_at_seed_42_is_pinned() {
        let mut d = Driver::new(ucsd_network(), &UCSD_SITES, 42, 1.0);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..200_000 {
            let (t, change) = d.step().unwrap();
            for word in [
                t.as_days().to_bits(),
                u64::from(change == Change::Access),
                d.up().bits(),
            ] {
                digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let cache = d.reachability_cache();
        assert_eq!(
            (digest, cache.hits(), cache.misses()),
            (0x1ef7_116f_d0c6_a762, 63_907, 112),
            "the seed-42 trace moved"
        );
    }

    #[test]
    fn ucsd_network_runs() {
        let net = ucsd_network();
        let mut d = Driver::new(net, &UCSD_SITES, 5, 1.0);
        let mut topo = 0;
        let mut partitions_seen = false;
        for _ in 0..20_000 {
            let (_, change) = d.step().unwrap();
            if change == Change::Topology {
                topo += 1;
            }
            if d.reachability().groups().len() > 1 {
                partitions_seen = true;
            }
        }
        assert!(topo > 1000, "the UCSD fleet fails often");
        assert!(partitions_seen, "gateway failures must partition");
    }
}
