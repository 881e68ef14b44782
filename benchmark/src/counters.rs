//! Outside-in counter snapshots: every node's public platform, store,
//! cache and filesystem counters, read without charging virtual time.

use elsm::CacheStats;
use lsm_store::DbStatsSnapshot;
use sgx_sim::StatsSnapshot;

use crate::system::System;

/// One node's counters.
#[derive(Debug, Clone, Copy)]
pub struct NodeCounters {
    /// Platform event counters.
    pub platform: StatsSnapshot,
    /// Store operation counters and gauges.
    pub db: DbStatsSnapshot,
    /// Verified-cache counters.
    pub cache: CacheStats,
    /// Filesystem bytes.
    pub fs_bytes: u64,
    /// Filesystem files.
    pub fs_files: u64,
}

/// Every node's counters plus the router's clock.
#[derive(Debug, Clone)]
pub struct Counters {
    /// Per node, in [`System::nodes`] order.
    pub nodes: Vec<NodeCounters>,
    /// Virtual clock of the router (0 without one).
    pub router_clock_ns: u64,
}

impl Counters {
    /// Reads every counter of `system`.
    pub fn snapshot(system: &System) -> Self {
        let nodes = system
            .nodes()
            .into_iter()
            .map(|node| NodeCounters {
                platform: node.store.platform().stats(),
                db: node.store.db().stats(),
                cache: node.store.cache_stats(),
                fs_bytes: node.store.fs().total_bytes(),
                fs_files: node.store.fs().list().len() as u64,
            })
            .collect();
        Counters { nodes, router_clock_ns: system.router().map_or(0, |r| r.clock().now_ns()) }
    }

    /// Sum over nodes of `f(node)`.
    pub fn sum(&self, f: impl Fn(&NodeCounters) -> u64) -> u64 {
        self.nodes.iter().map(f).sum()
    }

    /// Sum over nodes of `f(after) - f(before)`.
    pub fn delta(&self, before: &Counters, f: impl Fn(&NodeCounters) -> u64) -> u64 {
        self.sum(&f) - before.sum(&f)
    }
}
