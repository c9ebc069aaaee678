//! The two `status` bodies, one `key=value` per line: the service's
//! own (map epoch, hosted shards, link rules) and one shard daemon's
//! (the paper's per-copy state, counters, link health).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{fmt_sites, Daemon, Service, StoreCluster};

/// The service's `status` body: service-level shard fields (`shard.*`)
/// plus a per-hosted-shard state sample. Uses `try_lock` throughout —
/// `status` is the fleet's liveness probe and must answer even while a
/// shard sits in a slow quorum round.
pub(super) fn service_status_text(service: &Service) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: String| {
        out.push_str(k);
        out.push('=');
        out.push_str(&v);
        out.push('\n');
    };
    line("site", service.config.local.index().to_string());
    line("policy", service.config.policy.name().to_string());
    let (epoch, specs) = {
        let map = service.map.lock().expect("shard map poisoned");
        (map.epoch, map.shards.clone())
    };
    line("shard.map_epoch", epoch.to_string());
    line("shard.count", specs.len().to_string());
    let local = service.config.local.index();
    let mut hosted = Vec::new();
    for (shard, spec) in specs.iter().enumerate() {
        if spec.placement.contains(&local) {
            hosted.push(shard.to_string());
        }
    }
    line(
        "shard.hosted",
        if hosted.is_empty() {
            "-".to_string()
        } else {
            hosted.join(",")
        },
    );
    for (shard, spec) in specs.iter().enumerate() {
        if !spec.placement.contains(&local) {
            continue;
        }
        let prefix = format!("shard.{shard}");
        line(
            &format!("{prefix}.role"),
            if spec.coordinator() == local {
                "coordinator".to_string()
            } else {
                "replica".to_string()
            },
        );
        let slot = service.slots[shard].read().expect("shard slot poisoned");
        if let Some(daemon) = &*slot {
            if let Ok(cluster) = daemon.cluster.try_lock() {
                let state = cluster.state_at(daemon.local);
                line(&format!("{prefix}.op"), state.op.to_string());
                line(&format!("{prefix}.version"), state.version.to_string());
                line(&format!("{prefix}.partition"), fmt_sites(state.partition));
            } else {
                line(&format!("{prefix}.busy"), "1".to_string());
            }
        }
    }
    line("links_blocked", fmt_sites(service.links.blocked()));
    out
}

/// The `dynvote-ctl status` body: the paper's per-copy state
/// `⟨o_i, v_i, P_i⟩`, the operation counters, and per-link transport
/// health, one `key=value` per line.
pub(super) fn status_text(daemon: &Arc<Daemon>, cluster: &StoreCluster) -> String {
    let state = cluster.state_at(daemon.local);
    let stats = cluster.stats();
    let pending = cluster.pending_sites().contains(daemon.local);
    let mut out = String::new();
    let mut line = |k: &str, v: String| {
        out.push_str(k);
        out.push('=');
        out.push_str(&v);
        out.push('\n');
    };
    line("site", daemon.local.index().to_string());
    line("shard", daemon.shard.to_string());
    line("policy", daemon.policy_name.to_string());
    line("op", state.op.to_string());
    line("version", state.version.to_string());
    line("partition", fmt_sites(state.partition));
    line("pending", pending.to_string());
    line(
        "value_len",
        cluster.value_at(daemon.local).image_len().to_string(),
    );
    line("reads_ok", stats.reads_ok.to_string());
    line("reads_refused", stats.reads_refused.to_string());
    line("writes_ok", stats.writes_ok.to_string());
    line("writes_refused", stats.writes_refused.to_string());
    line("recovers_ok", stats.recovers_ok.to_string());
    line("recovers_refused", stats.recovers_refused.to_string());
    line("links_blocked", fmt_sites(daemon.links.blocked()));
    line(
        "probe.released",
        daemon.probe_released.load(Ordering::Relaxed).to_string(),
    );
    line(
        "probe.commits",
        daemon.probe_commits.load(Ordering::Relaxed).to_string(),
    );
    line(
        "batch.rounds",
        daemon.batch_rounds.load(Ordering::Relaxed).to_string(),
    );
    line(
        "batch.ops",
        daemon.batch_ops.load(Ordering::Relaxed).to_string(),
    );
    line(
        "batch.max",
        daemon.batch_max.load(Ordering::Relaxed).to_string(),
    );
    line(
        "delta.installed",
        daemon.delta_installs.load(Ordering::Relaxed).to_string(),
    );
    {
        let store = daemon.store.lock().expect("site store poisoned");
        line("durability.snapshot_seq", store.snapshot_seq().to_string());
        line("durability.wal_records", store.wal_records().to_string());
        line("durability.wal_bytes", store.wal_bytes().to_string());
        line("durability.last_fsync", store.last_fsync().to_string());
    }
    for (site, peer) in cluster.transport().peer_stats() {
        let prefix = format!("peer.{}", site.index());
        line(&format!("{prefix}.connected"), peer.connected.to_string());
        line(
            &format!("{prefix}.blocked"),
            daemon.links.is_blocked(site).to_string(),
        );
        line(&format!("{prefix}.sends"), peer.sends.to_string());
        line(&format!("{prefix}.failures"), peer.failures.to_string());
        line(&format!("{prefix}.reconnects"), peer.reconnects.to_string());
        line(&format!("{prefix}.backoff_ms"), peer.backoff_ms.to_string());
    }
    out
}
