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

use dynvote_sim::{Dist, Duration, EventQueue, SimRng, SimTime};
use dynvote_topology::{Network, Reachability, ReachabilityCache};
use dynvote_types::{SiteId, SiteSet};

use crate::sites::SiteModel;

/// An event in the site failure/repair process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteEvent {
    /// The site fails (hardware or software decided at fire time).
    Fail {
        /// The failing site.
        site: SiteId,
        /// Generation stamp; stale stamps mark cancelled events.
        gen: u64,
    },
    /// The site's repair completes.
    Repair {
        /// The repaired site.
        site: SiteId,
        /// Generation stamp; stale stamps mark cancelled events.
        gen: u64,
    },
    /// A preventive-maintenance window opens (skipped if the site is
    /// already down).
    MaintStart {
        /// The maintained site.
        site: SiteId,
    },
    /// The maintenance window closes.
    MaintEnd {
        /// The maintained site.
        site: SiteId,
        /// Generation stamp; stale stamps mark cancelled events.
        gen: u64,
    },
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
pub struct Driver {
    network: Network,
    models: Vec<SiteModel>,
    queue: EventQueue<SiteEvent>,
    /// Per-site generation counters; events stamped with an old
    /// generation are stale and ignored (classic DES cancellation).
    gens: Vec<u64>,
    up: SiteSet,
    site_rngs: Vec<SimRng>,
    access_rng: SimRng,
    access_rate: f64,
    /// The next file access. Accesses are the most frequent event and
    /// never cancel or interact with site state, so the stream lives
    /// outside the heap — each access is a compare against the heap
    /// head instead of a push + sift + pop.
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
        assert!(
            network.sites().iter().all(|s| s.index() < n),
            "every network site needs a model"
        );
        let up: SiteSet = network.sites();
        let mut driver = Driver {
            reach: cache.get(&network, up),
            cache,
            network,
            models: models.to_vec(),
            queue: EventQueue::new(),
            gens: vec![0; n],
            up,
            site_rngs: (0..n as u64).map(|i| SimRng::substream(seed, i)).collect(),
            access_rng: SimRng::substream(seed, 0xACCE55),
            access_rate,
            next_access: None,
        };
        for site in driver.up.iter() {
            driver.schedule_failure(site, SimTime::ZERO);
            if let Some((interval, _)) = driver.models[site.index()].maintenance {
                // Stagger the periodic schedules with a random phase:
                // real machines are not all maintained at the same
                // instant, and synchronizing them would make multi-site
                // drops look far more common than they are.
                let phase = interval * driver.site_rngs[site.index()].uniform();
                driver
                    .queue
                    .schedule(SimTime::ZERO + phase, SiteEvent::MaintStart { site });
            }
        }
        if access_rate > 0.0 {
            driver.schedule_access(SimTime::ZERO);
        }
        driver
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
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

    /// The current reachability as its interned, shareable handle.
    #[must_use]
    pub fn reachability_shared(&self) -> Arc<Reachability> {
        Arc::clone(&self.reach)
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
        match (self.queue.peek_time(), self.next_access) {
            (Some(h), Some(a)) => Some(h.min(a)),
            (h, a) => h.or(a),
        }
    }

    fn schedule_failure(&mut self, site: SiteId, now: SimTime) {
        let ttf = self.models[site.index()]
            .fail_dist()
            .sample(&mut self.site_rngs[site.index()]);
        let gen = self.gens[site.index()];
        self.queue
            .schedule(now + ttf, SiteEvent::Fail { site, gen });
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
            // Access fast path: the access stream never cancels and
            // never touches site state, so it bypasses the heap
            // entirely. Checked against the heap head on every
            // iteration — a stale (cancelled) site event may sit in
            // front of the access and must still be drained first, in
            // time order. Ties against a site event go to the access
            // (site events at the exact same f64 instant as an access
            // have probability zero).
            if let Some(t) = self.next_access {
                if self.queue.peek_time().is_none_or(|h| t <= h) {
                    self.queue.advance_to(t);
                    self.schedule_access(t);
                    return Some((t, Change::Access));
                }
            }
            let (now, event) = self.queue.pop()?;
            match event {
                SiteEvent::Fail { site, gen } => {
                    if self.gens[site.index()] != gen || !self.up.contains(site) {
                        continue; // cancelled by a repair or maintenance
                    }
                    self.gens[site.index()] += 1;
                    self.up.remove(site);
                    let repair = self.repair_duration(site);
                    let gen = self.gens[site.index()];
                    self.queue
                        .schedule(now + repair, SiteEvent::Repair { site, gen });
                    self.refresh_reachability();
                    return Some((now, Change::Topology));
                }
                SiteEvent::Repair { site, gen } => {
                    if self.gens[site.index()] != gen {
                        continue;
                    }
                    self.gens[site.index()] += 1;
                    self.up.insert(site);
                    self.schedule_failure(site, now);
                    self.refresh_reachability();
                    return Some((now, Change::Topology));
                }
                SiteEvent::MaintStart { site } => {
                    // Always rearm the periodic schedule.
                    let (interval, duration) = self.models[site.index()]
                        .maintenance
                        .expect("MaintStart only scheduled for maintained sites");
                    self.queue
                        .schedule(now + interval, SiteEvent::MaintStart { site });
                    if !self.up.contains(site) {
                        continue; // already down: the window is absorbed
                    }
                    self.gens[site.index()] += 1; // cancels the pending Fail
                    self.up.remove(site);
                    let gen = self.gens[site.index()];
                    self.queue
                        .schedule(now + duration, SiteEvent::MaintEnd { site, gen });
                    self.refresh_reachability();
                    return Some((now, Change::Topology));
                }
                SiteEvent::MaintEnd { site, gen } => {
                    if self.gens[site.index()] != gen {
                        continue;
                    }
                    self.gens[site.index()] += 1;
                    self.up.insert(site);
                    self.schedule_failure(site, now);
                    self.refresh_reachability();
                    return Some((now, Change::Topology));
                }
            }
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
