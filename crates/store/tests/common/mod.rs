//! The loopback fleet the in-process suites boot: real daemons on
//! ephemeral ports, each with its own data directory, as every site is
//! deployed.
//!
//! Every listener is bound first, so each daemon's `--peers` names real
//! addresses; then each daemon starts on its pre-bound listener. The
//! data directories live under one root in the system temp directory,
//! removed when the fleet is dropped.

// Each suite compiles this module on its own and uses part of it.
#![allow(dead_code)]

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dynvote_store::client::{request, Outcome};
use dynvote_store::config::Config;
use dynvote_store::server::{start_on, ServiceHandle};
use dynvote_store::wire::Frame;

/// How long a test request waits for its reply.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// Loopback timings every suite starts from; a suite's own flags come
/// after them and so override them.
const TIMINGS: &str =
    "--connect-timeout-ms 250 --read-timeout-ms 2000 --backoff-ms 10 --backoff-cap-ms 100";

pub struct Fleet {
    /// Each site's listen address.
    pub addrs: Vec<String>,
    /// `None` once a site was stopped on its own.
    daemons: Vec<Option<ServiceHandle>>,
    root: PathBuf,
}

impl Fleet {
    /// `sites` daemons that reach each other directly, each started with
    /// `flags` (policy, shards, …) after the common ones.
    pub fn boot(sites: usize, flags: &str) -> Fleet {
        Fleet::boot_behind(sites, flags, <[String]>::to_vec)
    }

    /// [`Fleet::boot`] with the peer addresses `peers` makes of the
    /// listen addresses — a relay in front of each daemon, say.
    pub fn boot_behind(
        sites: usize,
        flags: &str,
        peers: impl FnOnce(&[String]) -> Vec<String>,
    ) -> Fleet {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "dynvote-{}-{}-{}",
            env!("CARGO_CRATE_NAME"),
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let listeners: Vec<TcpListener> = (0..sites)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("bound").to_string())
            .collect();
        let peers: Vec<String> = peers(&addrs)
            .iter()
            .enumerate()
            .map(|(site, addr)| format!("{site}={addr}"))
            .collect();
        let peers = peers.join(",");
        let daemons = listeners
            .into_iter()
            .enumerate()
            .map(|(site, listener)| {
                let line = format!(
                    "--site {site} --peers {peers} --data-dir {} {TIMINGS} {flags}",
                    root.join(format!("site{site}")).display()
                );
                let config = Config::parse_args(line.split_whitespace().map(str::to_string))
                    .expect("test config parses");
                Some(start_on(config, listener).expect("daemon starts"))
            })
            .collect();
        Fleet {
            addrs,
            daemons,
            root,
        }
    }

    /// Site `site`'s data directory.
    pub fn data_dir(&self, site: usize) -> PathBuf {
        self.root.join(format!("site{site}"))
    }

    pub fn req(&self, site: usize, frame: &Frame) -> Outcome {
        request(&self.addrs[site], frame, TIMEOUT).expect("daemon reachable")
    }

    /// Stops one site's daemon.
    pub fn stop_site(&mut self, site: usize) {
        if let Some(daemon) = self.daemons[site].take() {
            daemon.stop();
        }
    }

    /// Stops every daemon; the data directories stay until the fleet is
    /// dropped.
    pub fn stop_daemons(&mut self) {
        for site in 0..self.daemons.len() {
            self.stop_site(site);
        }
    }

    /// Stops every daemon and removes the data directories.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop_daemons();
        std::fs::remove_dir_all(&self.root).ok();
    }
}
