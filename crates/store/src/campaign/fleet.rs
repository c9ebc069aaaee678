//! The subprocess fleet: real `dynvote-stored` daemons on loopback,
//! SIGKILLed and restarted from their `--data-dir` by the nemesis.
//!
//! Disk faults are applied *between* kill and restart, directly to the
//! victim's data directory — the only window in which a real crash can
//! corrupt anything. The two shapes mirror what hardware actually does:
//! garbage appended past the WAL's last fsync'd record (torn tail), and
//! a flipped byte inside the snapshot (latent media error). Neither may
//! lose an acknowledged write — that is the recovery chain's contract,
//! and the campaign's monitor holds it to it.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dynvote_replica::disk::inject_garbage_tail;
use dynvote_replica::wal::{shard_dir, SNAPSHOT_FILE, WAL_FILE};

use super::schedule::DiskFault;
use crate::client::request_deadline;
use crate::wire::Frame;

/// Everything needed to (re)spawn one site's daemon.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Path to the `dynvote-stored` binary.
    pub stored_bin: PathBuf,
    /// Loopback port per site (index = site).
    pub ports: Vec<u16>,
    /// Parent directory; site `s` persists under `site<s>/`.
    pub data_root: PathBuf,
    /// Protocol policy name (`odv`, `tdv`, …).
    pub policy: String,
    /// `--segments` description, if the topology is not flat.
    pub segments: Option<String>,
    /// `--bridges` description, if the topology is not flat.
    pub bridges: Option<String>,
    /// `--snapshot-every` record count.
    pub snapshot_every: u64,
}

impl FleetConfig {
    /// The client address of site `site`.
    #[must_use]
    pub fn addr(&self, site: usize) -> String {
        format!("127.0.0.1:{}", self.ports[site])
    }

    /// Site `site`'s data directory.
    #[must_use]
    pub fn data_dir(&self, site: usize) -> PathBuf {
        self.data_root.join(format!("site{site}"))
    }
}

/// Resolves the daemon binary when none was given explicitly: the
/// `DYNVOTE_STORED` environment variable, else a `dynvote-stored`
/// sibling of the current executable (the cargo target dir layout).
pub fn default_stored_bin() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("DYNVOTE_STORED") {
        return Ok(PathBuf::from(path));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name("dynvote-stored");
    if sibling.exists() {
        return Ok(sibling);
    }
    Err(format!(
        "cannot find dynvote-stored next to {} — pass --stored or set DYNVOTE_STORED",
        me.display()
    ))
}

/// Reserves `n` distinct loopback ports by binding them all at once,
/// then releasing them for the daemons (who retry the bind with
/// `--bind-retry-ms` if the kernel is slow to hand a port back).
#[must_use]
pub fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("bound").port())
        .collect()
}

/// The running fleet. SIGKILLs every still-running child on drop so a
/// failed campaign never leaks daemons.
pub struct Fleet {
    config: FleetConfig,
    children: Vec<Option<Child>>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Fleet {
    /// Creates the data directories and spawns every daemon.
    ///
    /// # Errors
    ///
    /// Directory creation or process spawn failures.
    pub fn start(config: FleetConfig) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            children: (0..config.ports.len()).map(|_| None).collect(),
            config,
        };
        for site in 0..fleet.config.ports.len() {
            std::fs::create_dir_all(fleet.config.data_dir(site))
                .map_err(|e| format!("create data dir for site {site}: {e}"))?;
            fleet.spawn(site)?;
        }
        Ok(fleet)
    }

    /// How many sites the fleet runs.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.config.ports.len()
    }

    /// The client address of site `site`.
    #[must_use]
    pub fn addr(&self, site: usize) -> String {
        self.config.addr(site)
    }

    /// The `(site, addr)` list the link-rule reconciler wants.
    #[must_use]
    pub fn nodes(&self) -> Vec<(usize, String)> {
        (0..self.sites()).map(|s| (s, self.addr(s))).collect()
    }

    /// (Re)spawns site `site`'s daemon from its data directory.
    ///
    /// # Errors
    ///
    /// The process could not be spawned (binary missing, fork failure).
    pub fn spawn(&mut self, site: usize) -> Result<(), String> {
        let config = &self.config;
        let peers: Vec<String> = (0..config.ports.len())
            .map(|s| format!("{s}={}", config.addr(s)))
            .collect();
        let data_dir = config.data_dir(site);
        let mut command = Command::new(&config.stored_bin);
        command.args([
            "--site",
            &site.to_string(),
            "--policy",
            &config.policy,
            "--peers",
            &peers.join(","),
            "--data-dir",
            data_dir.to_str().expect("utf-8 data dir"),
            "--snapshot-every",
            &config.snapshot_every.to_string(),
            "--bind-retry-ms",
            "15000",
            "--boot-recover-ms",
            "30000",
            // Short peer timeouts: a coordinator polling silent peers
            // holds the cluster lock for attempts × read-timeout, and
            // during a campaign peers are silent *often* — long peer
            // timeouts would turn every fault into a multi-second
            // freeze of the victim's client port too.
            "--connect-timeout-ms",
            "250",
            "--read-timeout-ms",
            "800",
            "--log",
            data_dir.join("daemon.log").to_str().expect("utf-8 log"),
        ]);
        if let Some(segments) = &config.segments {
            command.args(["--segments", segments]);
        }
        if let Some(bridges) = &config.bridges {
            command.args(["--bridges", bridges]);
        }
        // Panics and abort messages land on stderr; keep them (append
        // across restarts) — a poisoned daemon is undiagnosable
        // without them.
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(data_dir.join("stderr.log"))
            .map_err(|e| format!("open stderr log for site {site}: {e}"))?;
        let child = command
            .stdout(Stdio::null())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("spawn {} for site {site}: {e}", config.stored_bin.display()))?;
        self.children[site] = Some(child);
        Ok(())
    }

    /// SIGKILLs site `site` and reaps it — no shutdown path runs.
    ///
    /// # Errors
    ///
    /// The site was not running, or the kill/wait syscalls failed.
    pub fn kill(&mut self, site: usize) -> Result<(), String> {
        let mut child = self.children[site]
            .take()
            .ok_or_else(|| format!("site {site} is not running"))?;
        child.kill().map_err(|e| format!("kill site {site}: {e}"))?;
        child.wait().map_err(|e| format!("reap site {site}: {e}"))?;
        Ok(())
    }

    /// Whether site `site`'s process is currently spawned.
    #[must_use]
    pub fn is_up(&self, site: usize) -> bool {
        self.children[site].is_some()
    }

    /// Corrupts a *dead* site's data directory — the pre-restart
    /// injection point. Returns a short description of what was done.
    ///
    /// # Errors
    ///
    /// The site is still running, or the file operations failed.
    pub fn apply_disk_fault(&self, site: usize, fault: &DiskFault) -> Result<String, String> {
        if self.is_up(site) {
            return Err(format!("refusing to corrupt live site {site}"));
        }
        // The fleet's one group keeps its files in shard 0's directory.
        let dir = shard_dir(&self.config.data_dir(site), 0);
        match fault {
            DiskFault::WalGarbageTail { bytes } => {
                let path = dir.join(WAL_FILE);
                let garbage: Vec<u8> = (0..*bytes).map(|i| (i as u8) ^ 0xA5).collect();
                inject_garbage_tail(&path, &garbage)
                    .map_err(|e| format!("write garbage into {}: {e}", path.display()))?;
                Ok(format!(
                    "wrote {bytes}B of garbage at wal.log's logical end"
                ))
            }
            DiskFault::SnapshotFlip { offset_hint } => {
                let path = dir.join(SNAPSHOT_FILE);
                let mut file = match std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                {
                    Ok(file) => file,
                    // No snapshot taken yet — nothing to corrupt; the
                    // restart exercises plain WAL replay instead.
                    Err(_) => return Ok("no snapshot yet; flip skipped".to_string()),
                };
                let len = file
                    .metadata()
                    .map_err(|e| format!("stat {}: {e}", path.display()))?
                    .len();
                if len == 0 {
                    return Ok("empty snapshot; flip skipped".to_string());
                }
                let offset = offset_hint % len;
                let mut byte = [0u8; 1];
                file.seek(SeekFrom::Start(offset))
                    .and_then(|_| file.read_exact(&mut byte))
                    .map_err(|e| format!("read {}@{offset}: {e}", path.display()))?;
                byte[0] ^= 0x40;
                file.seek(SeekFrom::Start(offset))
                    .and_then(|_| file.write_all(&byte))
                    .map_err(|e| format!("write {}@{offset}: {e}", path.display()))?;
                Ok(format!("flipped snapshot.bin byte at offset {offset}"))
            }
        }
    }

    /// Polls the site until it answers `status` (it may still be
    /// retrying its bind or replaying its WAL).
    ///
    /// # Errors
    ///
    /// The daemon never answered within `within`.
    pub fn wait_status(&self, site: usize, within: Duration) -> Result<(), String> {
        let addr = self.addr(site);
        let deadline = Instant::now() + within;
        loop {
            // A generous per-request deadline: the daemon may be alive
            // but holding its cluster lock through a peer-poll round.
            if request_deadline(&addr, &Frame::Status, Duration::from_secs(8)).is_ok() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "site {site} ({addr}) never answered status within {within:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// Kills every still-running daemon (end of campaign).
    pub fn shutdown(&mut self) {
        for child in self.children.iter_mut() {
            if let Some(mut running) = child.take() {
                let _ = running.kill();
                let _ = running.wait();
            }
        }
    }

    /// The data root (for artifact dumps).
    #[must_use]
    pub fn data_root(&self) -> &Path {
        &self.config.data_root
    }
}
