//! The in-process loopback fleet the store workloads run against:
//! real daemons, real sockets, durable data directories — booted the
//! way `store_throughput` boots its fleet, plus `--data-dir` and,
//! for the link-fault workload, a relay in front of every peer.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dynvote_store::client::request;
use dynvote_store::config::Config;
use dynvote_store::server::{start_on, ServiceHandle};
use dynvote_store::wire::Frame;
use dynvote_store::Outcome;

use crate::relay::Relay;

/// The daemon flags every store workload shares (printed as part of
/// the conditions). Each site adds `--site`, `--peers`, `--data-dir`
/// and one of the two timeout sets below.
pub const DAEMON_FLAGS: &str =
    "--policy odv --shards 1 --quiet --snapshot-every 64 --backoff-ms 10 --backoff-cap-ms 100";

/// Peer timeouts where no link is ever faulty — `store_throughput`'s.
/// Nothing there should ever wait for one; they are long so that a
/// stall of the sandbox (they reach hundreds of milliseconds) is not
/// taken for a dead peer, which ODV answers by voting the peer out of
/// the partition set and the run would go on with one voter fewer.
pub const PATIENT_TIMEOUTS: &str = "--connect-timeout-ms 250 --read-timeout-ms 2000";

/// Peer timeouts of the link-fault workload, where what a silent peer
/// costs is the thing measured.
pub const SHORT_TIMEOUTS: &str = "--connect-timeout-ms 100 --read-timeout-ms 250";

/// The one shard every keyed request addresses.
pub const SHARD: u16 = 0;

pub struct Fleet {
    handles: Vec<ServiceHandle>,
    /// The daemons' real listen addresses, site order. Site 0
    /// coordinates the shard.
    pub addrs: Vec<String>,
    /// One relay per peer of the coordinator (site order, from site 1)
    /// when the links are delayed; empty otherwise.
    pub relays: Vec<Relay>,
    pub data_root: PathBuf,
}

fn peer_list(addrs: &[String]) -> String {
    addrs
        .iter()
        .enumerate()
        .map(|(i, a)| format!("{i}={a}"))
        .collect::<Vec<_>>()
        .join(",")
}

impl Fleet {
    /// Boots `sites` durable daemons under a fresh `data_root`. With a
    /// `link_delay`, the coordinator reaches every peer through a
    /// relay that adds that one-way delay, and peer timeouts are short.
    pub fn boot(sites: usize, data_root: &Path, link_delay: Option<Duration>) -> Fleet {
        if data_root.exists() {
            std::fs::remove_dir_all(data_root).expect("clearing a stale data directory");
        }
        std::fs::create_dir_all(data_root).expect("creating the data directory");
        let listeners: Vec<TcpListener> = (0..sites)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr").to_string())
            .collect();
        let relays: Vec<Relay> = match link_delay {
            Some(delay) => addrs[1..]
                .iter()
                .map(|peer| Relay::start(peer, delay).expect("relay start"))
                .collect(),
            None => Vec::new(),
        };
        // Only the coordinator originates peer traffic in these
        // workloads, so only its view of the peers goes via the relays.
        let mut coordinator_view = addrs.clone();
        for (slot, relay) in coordinator_view[1..].iter_mut().zip(&relays) {
            *slot = relay.addr().to_string();
        }
        let timeouts = if link_delay.is_some() {
            SHORT_TIMEOUTS
        } else {
            PATIENT_TIMEOUTS
        };
        let handles = listeners
            .into_iter()
            .enumerate()
            .map(|(site, listener)| {
                let peers = peer_list(if site == 0 { &coordinator_view } else { &addrs });
                let data_dir = data_root.join(format!("site{site}"));
                let flags = format!(
                    "--site {site} --peers {peers} --shard-placement ring:{sites} \
                     --data-dir {} {DAEMON_FLAGS} {timeouts}",
                    data_dir.display()
                );
                let config = Config::parse_args(flags.split_whitespace().map(str::to_string))
                    .expect("daemon flags");
                start_on(config, listener).expect("daemon start")
            })
            .collect();
        for addr in &addrs {
            let up = (0..50).any(|_| {
                matches!(
                    request(addr, &Frame::Status, Duration::from_millis(500)),
                    Ok(Outcome::Report(_))
                )
            });
            assert!(up, "daemon at {addr} never answered status");
        }
        Fleet {
            handles,
            addrs,
            relays,
            data_root: data_root.to_path_buf(),
        }
    }

    /// The shard daemon's `Status` report at `site`, as a map. Asked
    /// over a fresh connection, so it never queues behind the load.
    pub fn status(&self, site: usize) -> BTreeMap<String, String> {
        let frame = Frame::Shard {
            shard: SHARD,
            inner: Box::new(Frame::Status),
        };
        // The daemon itself gives up on its cluster lock after 1.5 s
        // and answers `busy=1`; ask again rather than scrape nothing.
        for _ in 0..20 {
            match request(&self.addrs[site], &frame, Duration::from_secs(5)) {
                Ok(Outcome::Report(text)) if !text.contains("busy=1") => {
                    return parse_status(&text);
                }
                Ok(Outcome::Report(_)) => {}
                other => panic!("status at site {site}: {other:?}"),
            }
        }
        panic!("site {site} stayed busy for 20 status calls");
    }

    /// Size of the coordinator's commit ledger file.
    pub fn ledger_bytes(&self) -> u64 {
        let dir = dynvote_replica::wal::shard_dir(&self.data_root.join("site0"), SHARD);
        std::fs::metadata(dir.join(dynvote_store::probe::LEDGER_FILE)).map_or(0, |m| m.len())
    }

    /// Stops every daemon and relay and deletes the data directory.
    pub fn shutdown(self) {
        for handle in self.handles {
            handle.stop();
        }
        for relay in self.relays {
            relay.stop();
        }
        // The daemons' session and worker threads notice the stop flag
        // at their next idle poll; nothing writes once the load ended.
        std::fs::remove_dir_all(&self.data_root).expect("deleting the data directory");
    }
}

/// `key=value` lines to a map.
pub fn parse_status(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// The sites of a status report's `partition=0,1,2` line.
pub fn status_partition(status: &BTreeMap<String, String>) -> Vec<usize> {
    let listed = status.get("partition").map_or("", String::as_str);
    listed
        .split(',')
        .filter_map(|site| site.parse().ok())
        .collect()
}

/// A numeric status field; absent or non-numeric reads as 0.
pub fn status_number(status: &BTreeMap<String, String>, key: &str) -> f64 {
    status.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_text_parses_to_numbers() {
        let status = parse_status("site=0\nversion=17\npartition=0,1,2\npeer.1.sends=40\n");
        assert_eq!(status_number(&status, "version"), 17.0);
        assert_eq!(status_number(&status, "peer.1.sends"), 40.0);
        assert_eq!(status_number(&status, "partition"), 0.0);
        assert_eq!(status_number(&status, "absent"), 0.0);
        assert_eq!(status_partition(&status), vec![0, 1, 2]);
        assert!(status_partition(&parse_status("partition=-\n")).is_empty());
    }
}
