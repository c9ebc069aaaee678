//! The shard-map router: the client side of the sharded store.
//!
//! A [`ShardRouter`] holds a cached [`ShardMap`] (fetched from any
//! bootstrap daemon with `GetShardMap`), hashes keys to shards with
//! the map's own [`ShardMap::shard_of`], and sends each keyed
//! operation — pipelined, over one shared [`Connection`] per daemon —
//! to the owning shard's *coordinator* (`placement[0]`), re-routing
//! when a stream dies under it (the reconnect itself is
//! `Connection`'s). Every keyed frame carries
//! the epoch it routed by; a daemon whose map moved on answers with a
//! typed `StaleShardMap{epoch}`, and the router refetches and retries
//! — the client-visible contract a rebalance depends on: requests in
//! flight across an epoch bump are *retried*, never failed.
//!
//! The module also hosts the scripted rebalance driver ([`rebalance`]):
//! bump the epoch, install the new map at every site — **old
//! coordinator first**, which closes the double-coordinator window (the
//! old funnel refuses epoch-`e` traffic before the new funnel accepts
//! epoch-`e+1` traffic, so two read-modify-write coordinators never
//! run concurrently) — then run the protocol-level RECOVER at the
//! joining site, the paper's own Figure 3/7 machinery doing duty as
//! data migration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dynvote_control::ShardMap;

use crate::client::{request_deadline, ClientError, Deadline, Outcome};
use crate::conn::{ConnOptions, Connection};
use crate::wire::Frame;

/// How many route-and-retry rounds one keyed operation may burn before
/// the router concedes (each round refetches the map). The deadline
/// still rules: the loop exits early the moment it expires.
const MAX_ROUTE_RETRIES: usize = 8;

/// Minimum overall budget for the RECOVER step of a rebalance. The
/// joiner's daemon is spawned by the map install moments earlier and
/// may spend several seconds booting and settling before its first
/// RECOVER round can be granted — a short per-request timeout (the
/// ctl default is 5 s) must not translate into a single attempt.
const RECOVER_BUDGET_FLOOR: Duration = Duration::from_secs(30);

/// A routing client for a sharded `dynvote-stored` fleet.
pub struct ShardRouter {
    opts: ConnOptions,
    /// One shared connection per daemon address, dialed on first use.
    conns: Mutex<HashMap<String, Arc<Connection>>>,
    bootstrap: Vec<String>,
    map: Mutex<Option<ShardMap>>,
    stale_retries: AtomicU64,
}

enum Keyed<'a> {
    Put(&'a [u8]),
    Get,
}

impl ShardRouter {
    /// A router bootstrapping from `bootstrap` (any daemon addresses —
    /// the first one that answers `GetShardMap` wins).
    #[must_use]
    pub fn new(bootstrap: Vec<String>, opts: ConnOptions) -> ShardRouter {
        ShardRouter {
            opts,
            conns: Mutex::new(HashMap::new()),
            bootstrap,
            map: Mutex::new(None),
            stale_retries: AtomicU64::new(0),
        }
    }

    fn conn(&self, addr: &str) -> Arc<Connection> {
        let mut conns = self.conns.lock().expect("router connections poisoned");
        Arc::clone(
            conns
                .entry(addr.to_string())
                .or_insert_with(|| Arc::new(Connection::new(addr, self.opts))),
        )
    }

    /// How many operations were re-routed after a typed
    /// `StaleShardMap` answer — the observable difference between a
    /// *retried* request and a *failed* one across a rebalance.
    #[must_use]
    pub fn stale_retries(&self) -> u64 {
        self.stale_retries.load(Ordering::Relaxed)
    }

    /// The epoch of the cached map, if one is cached.
    #[must_use]
    pub fn cached_epoch(&self) -> Option<u64> {
        self.map
            .lock()
            .expect("router map poisoned")
            .as_ref()
            .map(|m| m.epoch)
    }

    /// Drops the cached map; the next operation refetches.
    pub fn invalidate(&self) {
        *self.map.lock().expect("router map poisoned") = None;
    }

    /// The current map: cached, or fetched from the bootstrap list.
    ///
    /// # Errors
    ///
    /// The last typed client error when no bootstrap daemon produced a
    /// decodable map before the deadline.
    pub fn map(&self, deadline: &Deadline) -> Result<ShardMap, ClientError> {
        if let Some(map) = self.map.lock().expect("router map poisoned").clone() {
            return Ok(map);
        }
        self.refresh(deadline)
    }

    /// Fetches the map from the first answering bootstrap daemon and
    /// caches it.
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::map`].
    pub fn refresh(&self, deadline: &Deadline) -> Result<ShardMap, ClientError> {
        let mut last = ClientError::Unreachable {
            detail: "no bootstrap addresses".to_string(),
        };
        for addr in &self.bootstrap {
            deadline.remaining()?;
            let conn = self.conn(addr);
            match conn.call(&Frame::GetShardMap, deadline) {
                Ok(Outcome::ShardMap(bytes)) => match ShardMap::decode(&bytes) {
                    Ok(map) => {
                        *self.map.lock().expect("router map poisoned") = Some(map.clone());
                        return Ok(map);
                    }
                    Err(error) => {
                        last = ClientError::Protocol {
                            detail: format!("{addr}: undecodable shard map: {error}"),
                        };
                    }
                },
                Ok(other) => {
                    last = ClientError::Protocol {
                        detail: format!("{addr}: GetShardMap answered {other:?}"),
                    };
                }
                Err(error) => last = error,
            }
        }
        Err(last)
    }

    /// Routes a keyed write to the owning shard's coordinator.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] at the deadline; [`ClientError`]
    /// otherwise only when retries are exhausted — stale-map answers,
    /// coordinator moves, and dead connections are retried in place.
    pub fn put(
        &self,
        key: &str,
        value: &[u8],
        deadline: &Deadline,
    ) -> Result<Outcome, ClientError> {
        self.keyed(key, &Keyed::Put(value), deadline)
    }

    /// Routes a keyed read to the owning shard's coordinator.
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::put`].
    pub fn get(&self, key: &str, deadline: &Deadline) -> Result<Outcome, ClientError> {
        self.keyed(key, &Keyed::Get, deadline)
    }

    fn keyed(
        &self,
        key: &str,
        op: &Keyed<'_>,
        deadline: &Deadline,
    ) -> Result<Outcome, ClientError> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            deadline.remaining()?;
            let map = self.map(deadline)?;
            let shard = map.shard_of(key.as_bytes());
            let Some(addr) = map.coordinator_addr(shard) else {
                return Err(ClientError::Protocol {
                    detail: format!(
                        "shard map (epoch {}) names no address for shard {shard}'s coordinator",
                        map.epoch
                    ),
                });
            };
            let frame = match op {
                Keyed::Put(value) => Frame::PutKey {
                    epoch: map.epoch,
                    shard,
                    key: key.to_string(),
                    value: value.to_vec(),
                },
                Keyed::Get => Frame::GetKey {
                    epoch: map.epoch,
                    shard,
                    key: key.to_string(),
                },
            };
            let conn = self.conn(addr);
            let retryable = match conn.call(&frame, deadline) {
                // The daemon's map moved on: refetch, re-route, retry.
                // This is the rebalance contract — the op is retried,
                // not failed.
                Ok(Outcome::Stale { .. }) => {
                    self.stale_retries.fetch_add(1, Ordering::Relaxed);
                    true
                }
                // Mid-rebalance the slot may be momentarily unhosted or
                // the funnel may have moved; the refreshed map resolves
                // both.
                Ok(Outcome::Unavailable {
                    reason: crate::wire::UnavailableReason::OriginDown,
                    ..
                }) => true,
                Ok(outcome) => return Ok(outcome),
                // A connection that died mid-exchange: the op's fate is
                // unknown (the usual at-most-once line); re-route.
                Err(ClientError::Unreachable { .. }) => true,
                Err(error) => return Err(error),
            };
            debug_assert!(retryable);
            self.invalidate();
            if attempts >= MAX_ROUTE_RETRIES {
                return Err(ClientError::Protocol {
                    detail: format!(
                        "routing for key {key:?} did not converge after {attempts} attempts"
                    ),
                });
            }
            // Give a mid-install fleet a moment before re-routing.
            std::thread::sleep(Duration::from_millis(25).min(deadline.remaining()?));
        }
    }
}

/// One-shot fetch of the shard map from a single daemon.
///
/// # Errors
///
/// A human-readable reason: unreachable daemon, non-map answer, or
/// undecodable bytes.
pub fn fetch_map(addr: &str, timeout: Duration) -> Result<ShardMap, String> {
    match request_deadline(addr, &Frame::GetShardMap, timeout) {
        Ok(Outcome::ShardMap(bytes)) => {
            ShardMap::decode(&bytes).map_err(|e| format!("{addr}: undecodable shard map: {e}"))
        }
        Ok(other) => Err(format!("{addr}: GetShardMap answered {other:?}")),
        Err(error) => Err(format!("{addr}: {error}")),
    }
}

/// Installs `map` at every site it names, `first` before the rest —
/// the old coordinator must learn the new epoch before anyone else so
/// the write funnel never runs doubled.
///
/// # Errors
///
/// The first site that refuses or cannot be reached.
fn install_everywhere(map: &ShardMap, first: usize, timeout: Duration) -> Result<(), String> {
    let bytes = map.encode();
    let mut order: Vec<(usize, &str)> = Vec::new();
    if let Some(addr) = map.addr_of(first) {
        order.push((first, addr));
    }
    for (site, addr) in &map.sites {
        if *site != first {
            order.push((*site, addr));
        }
    }
    for (site, addr) in order {
        match request_deadline(
            addr,
            &Frame::InstallShardMap { map: bytes.clone() },
            timeout,
        ) {
            Ok(outcome) if outcome.granted() => {}
            Ok(other) => {
                return Err(format!(
                    "S{site} ({addr}) refused the epoch-{} map: {other:?}",
                    map.epoch
                ))
            }
            Err(error) => {
                return Err(format!(
                    "S{site} ({addr}) unreachable installing the epoch-{} map: {error}",
                    map.epoch
                ))
            }
        }
    }
    Ok(())
}

/// Runs the protocol-level RECOVER (Figures 3/7) for `shard` at
/// `site`, retrying until granted or the overall budget elapses — a
/// freshly joined copy needs its peers' daemons reachable, and the
/// install that created it may still be settling at other sites.
/// `timeout` bounds each request; the overall budget gets a floor of
/// [`RECOVER_BUDGET_FLOOR`] so a short per-request timeout still
/// leaves room for the joiner's daemon to finish booting.
fn recover_at(
    map: &ShardMap,
    shard: u16,
    site: usize,
    timeout: Duration,
) -> Result<String, String> {
    let addr = map
        .addr_of(site)
        .ok_or_else(|| format!("the map names no address for site {site}"))?;
    let frame = Frame::Recover.for_shard(shard);
    let deadline = std::time::Instant::now() + timeout.max(RECOVER_BUDGET_FLOOR);
    loop {
        let last = match request_deadline(addr, &frame, timeout) {
            Ok(Outcome::Done(detail)) => return Ok(detail),
            Ok(other) => format!("{other:?}"),
            Err(error) => error.to_string(),
        };
        if std::time::Instant::now() >= deadline {
            return Err(format!(
                "RECOVER for shard {shard} at S{site} never granted: {last}"
            ));
        }
        std::thread::sleep(Duration::from_millis(150));
    }
}

/// A scripted rebalance of one shard: optionally grow the placement by
/// `add` (epoch `e+1`: install everywhere old-coordinator-first, then
/// protocol-level RECOVER at the joiner), then optionally shrink it by
/// `remove` (epoch `e+2`, same install order). Returns the log of
/// steps taken; the final installed map is fetchable from any site.
///
/// # Errors
///
/// Any step that refuses or times out, with the steps already taken
/// still applied (a rebalance is not atomic across sites — the epoch
/// protocol is what keeps the non-atomicity safe).
pub fn rebalance(
    addr: &str,
    shard: u16,
    add: Option<usize>,
    remove: Option<usize>,
    timeout: Duration,
) -> Result<Vec<String>, String> {
    let mut steps = Vec::new();
    let mut map = fetch_map(addr, timeout)?;
    let spec = map
        .shards
        .get(shard as usize)
        .ok_or_else(|| format!("shard {shard} out of range ({} shards)", map.shards.len()))?
        .clone();
    if let Some(site) = add {
        if spec.placement.contains(&site) {
            steps.push(format!("S{site} already in shard {shard}'s placement"));
        } else {
            let coordinator = spec.coordinator();
            let mut next = map.clone();
            next.epoch += 1;
            next.shards[shard as usize].placement.push(site);
            install_everywhere(&next, coordinator, timeout)?;
            steps.push(format!(
                "epoch {}: shard {shard} placement grew to {:?}",
                next.epoch, next.shards[shard as usize].placement
            ));
            let detail = recover_at(&next, shard, site, timeout)?;
            steps.push(format!("S{site} recovered into shard {shard}: {detail}"));
            map = next;
        }
    }
    if let Some(site) = remove {
        let spec = map.shards[shard as usize].clone();
        if !spec.placement.contains(&site) {
            steps.push(format!("S{site} not in shard {shard}'s placement"));
        } else if spec.placement.len() == 1 {
            return Err(format!(
                "refusing to remove shard {shard}'s last copy (S{site})"
            ));
        } else {
            let coordinator = spec.coordinator();
            let mut next = map.clone();
            next.epoch += 1;
            next.shards[shard as usize].placement.retain(|&s| s != site);
            install_everywhere(&next, coordinator, timeout)?;
            steps.push(format!(
                "epoch {}: shard {shard} placement shrank to {:?}",
                next.epoch, next.shards[shard as usize].placement
            ));
        }
    }
    Ok(steps)
}
