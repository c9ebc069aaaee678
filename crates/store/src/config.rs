//! Daemon configuration: the cluster layout one `dynvote-stored`
//! instance needs to join a live cluster.
//!
//! Everything arrives as plain CLI flags (the container ships no
//! config-file parser and needs none):
//!
//! ```text
//! dynvote-stored --site 0 --policy odv \
//!     --peers 0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102 \
//!     [--segments main=0,1,2,3,4;second=5;third=6,7] \
//!     [--bridges 3=second;4=third] \
//!     [--shards 4 --shard-placement ring:3] \
//!     [--log /path/to/node.log] \
//!     [--data-dir /var/lib/dynvote/node0] [--snapshot-every 64] \
//!     [--boot-recover-ms 5000] [--bind-retry-ms 0] \
//!     [--connect-timeout-ms 500] [--read-timeout-ms 2000] \
//!     [--backoff-ms 100] [--backoff-cap-ms 2000]
//! ```
//!
//! With `--data-dir` the daemon is durable: every commit and
//! outstanding vote is fsync'd to a write-ahead log before it is
//! acknowledged, a snapshot lands once the log holds
//! `--snapshot-every` records and as many bytes as the image, and
//! a restart restores snapshot + WAL, then retries the protocol-level
//! RECOVER for up to `--boot-recover-ms` to catch up from the majority
//! partition. `--bind-retry-ms` keeps retrying a busy listen address —
//! the lingering-socket window a `kill -9` leaves behind.
//!
//! Every daemon is the sharded service. Without `--shards` its boot map
//! is one shard group placed on every site in `--peers`, whose map
//! holds the paper's single replicated file under one key. Every
//! group's map is empty at boot.
//! Every site holds a full copy: witnesses are exercised in
//! `dynvote-core`, `dynvote-replica` and the `witness_study` bin, not
//! by the daemon.
//!
//! Without `--segments` the sites form one broadcast segment. With
//! them, the topology mirrors [`dynvote_topology::NetworkBuilder`]:
//! named segments plus `gateway=segment` bridges — the Figure 8
//! eight-site, three-segment network is exactly the example above.

use std::time::Duration;

use dynvote_control::Placement;
use dynvote_replica::Protocol;
use dynvote_topology::{Network, NetworkBuilder};
use dynvote_types::SiteId;

use crate::tcp::TcpTimeouts;

/// A parsed daemon configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// The site this daemon hosts.
    pub local: SiteId,
    /// The consistency protocol.
    pub policy: Protocol,
    /// Every site's daemon address, local site included (its entry is
    /// the listen address).
    pub peers: Vec<(SiteId, String)>,
    /// Named segments (empty = one broadcast segment).
    pub segments: Vec<(String, Vec<usize>)>,
    /// Gateway bridges: `(gateway site, segment name)`.
    pub bridges: Vec<(usize, String)>,
    /// Optional log file (always also logs to stderr unless `quiet`).
    pub log: Option<String>,
    /// Suppress the stderr copy of the protocol log. The load driver
    /// sets this: formatting 50k grant lines a second to a terminal
    /// would measure the console, not the transport. File logging
    /// (`--log`) still applies.
    pub quiet: bool,
    /// Socket and backoff timing.
    pub timeouts: TcpTimeouts,
    /// Durable storage directory (`None` = in-memory only).
    pub data_dir: Option<String>,
    /// Automatic snapshot threshold in WAL records (0 = never); an
    /// image larger than that much log waits for a log of its own size.
    pub snapshot_every: u64,
    /// How long a restarted-from-disk daemon retries the protocol-level
    /// RECOVER at boot before serving anyway (zero disables it).
    pub boot_recover: Duration,
    /// How long to retry binding a busy listen address before giving
    /// up (zero = a single attempt).
    pub bind_retry: Duration,
    /// Crash-test hook: abort the process after a client write's WAL
    /// append + fsync but *before* the acknowledgement leaves — proves
    /// the fsync-before-ack ordering from the outside.
    pub crash_after_wal_append: bool,
    /// How many independent shard groups the boot map has
    /// (`--shards N`), placed by `shard_placement`. `None` is one group
    /// on every site in `peers`.
    pub shards: Option<usize>,
    /// How shards map onto sites (`--shard-placement ring:R|paper`).
    pub shard_placement: Placement,
}

fn parse_usize(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("{flag}: expected a number, got {value:?}"))
}

fn parse_ms(flag: &str, value: &str) -> Result<Duration, String> {
    Ok(Duration::from_millis(value.parse::<u64>().map_err(
        |_| format!("{flag}: expected milliseconds, got {value:?}"),
    )?))
}

fn parse_index_list(flag: &str, value: &str) -> Result<Vec<usize>, String> {
    value
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| parse_usize(flag, s.trim()))
        .collect()
}

impl Config {
    /// Parses the flag list (everything after the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the first offending flag.
    pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Config, String> {
        let mut site = None;
        let mut policy = None;
        let mut peers: Vec<(SiteId, String)> = Vec::new();
        let mut segments = Vec::new();
        let mut bridges = Vec::new();
        let mut log = None;
        let mut quiet = false;
        let mut timeouts = TcpTimeouts::default();
        let mut data_dir = None;
        let mut snapshot_every = 64u64;
        let mut boot_recover = Duration::from_millis(5000);
        let mut bind_retry = Duration::ZERO;
        let mut crash_after_wal_append = false;
        let mut shards = None;
        let mut shard_placement = Placement::Ring { replicas: 3 };
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = |flag: &str| {
                iter.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag.as_str() {
                "--site" => site = Some(parse_usize("--site", &value("--site")?)?),
                "--policy" => {
                    let name = value("--policy")?;
                    policy = Some(Protocol::parse(&name).ok_or_else(|| {
                        format!("--policy: unknown policy {name:?} (mcv|dv|ldv|odv|tdv|otdv)")
                    })?);
                }
                "--peers" => {
                    for entry in value("--peers")?.split(',') {
                        let (index, addr) = entry
                            .split_once('=')
                            .ok_or_else(|| format!("--peers: expected site=addr, got {entry:?}"))?;
                        let index = parse_usize("--peers", index.trim())?;
                        let id = SiteId::try_new(index)
                            .ok_or_else(|| format!("--peers: site {index} out of range"))?;
                        peers.push((id, addr.trim().to_string()));
                    }
                }
                "--segments" => {
                    for entry in value("--segments")?.split(';') {
                        let (name, sites) = entry.split_once('=').ok_or_else(|| {
                            format!("--segments: expected name=i,j,…, got {entry:?}")
                        })?;
                        segments.push((
                            name.trim().to_string(),
                            parse_index_list("--segments", sites)?,
                        ));
                    }
                }
                "--bridges" => {
                    for entry in value("--bridges")?.split(';') {
                        let (gateway, segment) = entry.split_once('=').ok_or_else(|| {
                            format!("--bridges: expected gateway=segment, got {entry:?}")
                        })?;
                        bridges.push((
                            parse_usize("--bridges", gateway.trim())?,
                            segment.trim().to_string(),
                        ));
                    }
                }
                "--log" => log = Some(value("--log")?),
                "--quiet" => quiet = true,
                "--data-dir" => data_dir = Some(value("--data-dir")?),
                "--snapshot-every" => {
                    snapshot_every = value("--snapshot-every")?
                        .parse::<u64>()
                        .map_err(|_| "--snapshot-every: expected a record count".to_string())?;
                }
                "--boot-recover-ms" => {
                    boot_recover = parse_ms("--boot-recover-ms", &value("--boot-recover-ms")?)?;
                }
                "--bind-retry-ms" => {
                    bind_retry = parse_ms("--bind-retry-ms", &value("--bind-retry-ms")?)?;
                }
                "--crash-after-wal-append" => crash_after_wal_append = true,
                "--shards" => {
                    let count = parse_usize("--shards", &value("--shards")?)?;
                    if count == 0 || count > u16::MAX as usize {
                        return Err(format!("--shards: {count} out of range (1..=65535)"));
                    }
                    shards = Some(count);
                }
                "--shard-placement" => {
                    let spec = value("--shard-placement")?;
                    shard_placement = Placement::parse(&spec).ok_or_else(|| {
                        format!("--shard-placement: expected ring:R or paper, got {spec:?}")
                    })?;
                }
                "--connect-timeout-ms" => {
                    timeouts.connect =
                        parse_ms("--connect-timeout-ms", &value("--connect-timeout-ms")?)?;
                }
                "--read-timeout-ms" => {
                    timeouts.read = parse_ms("--read-timeout-ms", &value("--read-timeout-ms")?)?;
                }
                "--backoff-ms" => {
                    timeouts.backoff_floor = parse_ms("--backoff-ms", &value("--backoff-ms")?)?;
                }
                "--backoff-cap-ms" => {
                    timeouts.backoff_cap =
                        parse_ms("--backoff-cap-ms", &value("--backoff-cap-ms")?)?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let site = site.ok_or("--site is required")?;
        let local = SiteId::try_new(site).ok_or_else(|| format!("--site: {site} out of range"))?;
        let policy = policy.ok_or("--policy is required (mcv|dv|ldv|odv|tdv|otdv)")?;
        if peers.is_empty() {
            return Err("--peers is required".to_string());
        }
        if !peers.iter().any(|(id, _)| *id == local) {
            return Err(format!(
                "--peers must include the local site {site} (its listen address)"
            ));
        }
        Ok(Config {
            local,
            policy,
            peers,
            segments,
            bridges,
            log,
            quiet,
            timeouts,
            data_dir,
            snapshot_every,
            boot_recover,
            bind_retry,
            crash_after_wal_append,
            shards,
            shard_placement,
        })
    }

    /// The address this daemon listens on (its own `--peers` entry).
    #[must_use]
    pub fn listen_addr(&self) -> &str {
        self.peers
            .iter()
            .find(|(id, _)| *id == self.local)
            .map(|(_, addr)| addr.as_str())
            .expect("validated at parse time")
    }

    /// Builds the communication topology.
    ///
    /// # Errors
    ///
    /// Reports an invalid segment/bridge description.
    pub fn network(&self) -> Result<Network, String> {
        if self.segments.is_empty() {
            let max = self
                .peers
                .iter()
                .map(|(id, _)| id.index())
                .max()
                .unwrap_or(0);
            return Ok(Network::single_segment(max + 1));
        }
        let mut builder = NetworkBuilder::new();
        for (name, sites) in &self.segments {
            builder = builder.segment(name, sites.iter().copied());
        }
        for (gateway, segment) in &self.bridges {
            builder = builder.bridge(*gateway, segment);
        }
        builder.build().map_err(|e| format!("bad topology: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_string)
    }

    #[test]
    fn figure_8_line_parses() {
        let config = Config::parse_args(args(
            "--site 3 --policy otdv \
             --peers 0=a:1,1=a:2,2=a:3,3=a:4,4=a:5,5=a:6,6=a:7,7=a:8 \
             --segments main=0,1,2,3,4;second=5;third=6,7 \
             --bridges 3=second;4=third",
        ))
        .unwrap();
        assert_eq!(config.local, SiteId::new(3));
        assert_eq!(config.policy, Protocol::Otdv);
        assert_eq!(config.listen_addr(), "a:4");
        assert_eq!(config.peers.len(), 8);
        let network = config.network().unwrap();
        assert_eq!(network.segment_count(), 3);
    }

    #[test]
    fn missing_required_flags_are_reported() {
        assert!(Config::parse_args(args("--policy odv --peers 0=a:1"))
            .unwrap_err()
            .contains("--site"));
        assert!(Config::parse_args(args("--site 0 --peers 0=a:1"))
            .unwrap_err()
            .contains("--policy"));
        assert!(
            Config::parse_args(args("--site 1 --policy odv --peers 0=a:1"))
                .unwrap_err()
                .contains("local site")
        );
        assert!(
            Config::parse_args(args("--site 0 --policy zzz --peers 0=a:1"))
                .unwrap_err()
                .contains("unknown policy")
        );
    }

    /// Every site of a daemon fleet holds a full copy, whatever the
    /// boot map: a flag that only one boot path honoured is gone.
    #[test]
    fn witnesses_is_not_a_daemon_flag() {
        let error = Config::parse_args(args(
            "--site 0 --policy odv --peers 0=a:1,1=a:2,2=a:3 --witnesses 2",
        ))
        .unwrap_err();
        assert!(error.contains("unknown flag") && error.contains("--witnesses"));
    }

    #[test]
    fn durability_flags_parse_with_sane_defaults() {
        let config = Config::parse_args(args("--site 0 --policy odv --peers 0=a:1")).unwrap();
        assert_eq!(config.data_dir, None);
        assert_eq!(config.snapshot_every, 64);
        assert_eq!(config.boot_recover, Duration::from_millis(5000));
        assert_eq!(config.bind_retry, Duration::ZERO);
        assert!(!config.crash_after_wal_append);

        let config = Config::parse_args(args(
            "--site 0 --policy odv --peers 0=a:1 \
             --data-dir /tmp/d0 --snapshot-every 8 --boot-recover-ms 0 \
             --bind-retry-ms 1500 --crash-after-wal-append",
        ))
        .unwrap();
        assert_eq!(config.data_dir.as_deref(), Some("/tmp/d0"));
        assert_eq!(config.snapshot_every, 8);
        assert_eq!(config.boot_recover, Duration::ZERO);
        assert_eq!(config.bind_retry, Duration::from_millis(1500));
        assert!(config.crash_after_wal_append);
    }

    #[test]
    fn shard_flags_parse_and_validate() {
        let config = Config::parse_args(args("--site 0 --policy odv --peers 0=a:1")).unwrap();
        assert_eq!(config.shards, None);
        assert_eq!(config.shard_placement, Placement::Ring { replicas: 3 });

        let config = Config::parse_args(args(
            "--site 0 --policy odv --peers 0=a:1 --shards 4 --shard-placement ring:2",
        ))
        .unwrap();
        assert_eq!(config.shards, Some(4));
        assert_eq!(config.shard_placement, Placement::Ring { replicas: 2 });

        assert!(
            Config::parse_args(args("--site 0 --policy odv --peers 0=a:1 --shards 0"))
                .unwrap_err()
                .contains("--shards")
        );
        assert!(Config::parse_args(args(
            "--site 0 --policy odv --peers 0=a:1 --shard-placement hash"
        ))
        .unwrap_err()
        .contains("--shard-placement"));
    }

    #[test]
    fn timeouts_parse_as_milliseconds() {
        let config = Config::parse_args(args(
            "--site 0 --policy odv --peers 0=a:1 \
             --connect-timeout-ms 100 --read-timeout-ms 300 \
             --backoff-ms 10 --backoff-cap-ms 50",
        ))
        .unwrap();
        assert_eq!(config.timeouts.connect, Duration::from_millis(100));
        assert_eq!(config.timeouts.read, Duration::from_millis(300));
        assert_eq!(config.timeouts.backoff_floor, Duration::from_millis(10));
        assert_eq!(config.timeouts.backoff_cap, Duration::from_millis(50));
    }
}
