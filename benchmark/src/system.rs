//! The system under test: one eLSM-P2 store or a sharded, replicated
//! cluster, with every node's store reachable for outside-in counters.

use std::sync::Arc;

use elsm::{AuthenticatedKv, ElsmError, ElsmP2, VerificationFailure};
use elsm_bench::scale::Scale;
use elsm_shard::{ShardedKv, ShardedOptions};
use sgx_sim::Platform;

use crate::workloads::{Topology, WorkloadSpec};

/// What a node does in its topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The only store.
    Single,
    /// A shard's primary: takes the shard's writes.
    Primary,
    /// A shard's replica: serves the shard's verified reads.
    Replica,
}

/// One machine holding a store.
#[derive(Debug, Clone)]
pub struct Node {
    /// The node's store (its platform, filesystem and LSM).
    pub store: Arc<ElsmP2>,
    /// The node's role.
    pub role: Role,
}

/// An opened system.
#[derive(Debug)]
pub enum System {
    /// One store.
    Single(Arc<ElsmP2>),
    /// A cluster behind its trusted router.
    Cluster(ShardedKv),
}

impl System {
    /// Opens a fresh, empty system for `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] when a store fails to open.
    pub fn open(spec: &WorkloadSpec) -> Result<Self, ElsmError> {
        let platform = Platform::new(Scale::default().cost_model());
        let options = spec.store_options();
        Ok(match spec.topology {
            Topology::Single => System::Single(Arc::new(ElsmP2::open(platform, options)?)),
            Topology::Cluster { shards, replicas } => System::Cluster(ShardedKv::open(
                platform,
                ShardedOptions::hash(shards, options).with_replicas(replicas),
            )?),
        })
    }

    /// The authenticated interface clients call.
    pub fn kv(&self) -> &dyn AuthenticatedKv {
        match self {
            System::Single(store) => store.as_ref(),
            System::Cluster(cluster) => cluster,
        }
    }

    /// Every node, shard by shard (primary, then its replicas).
    pub fn nodes(&self) -> Vec<Node> {
        match self {
            System::Single(store) => vec![Node { store: store.clone(), role: Role::Single }],
            System::Cluster(cluster) => {
                let mut nodes = Vec::new();
                for shard in 0..cluster.shard_count() {
                    let group = cluster
                        .replication_group(shard)
                        .expect("benchmark clusters are replicated");
                    nodes.push(Node { store: group.primary_store(), role: Role::Primary });
                    for i in 0..group.replica_count() {
                        nodes.push(Node { store: group.replica_store(i), role: Role::Replica });
                    }
                }
                nodes
            }
        }
    }

    /// The trusted router's platform, for a cluster.
    pub fn router(&self) -> Option<&Arc<Platform>> {
        match self {
            System::Single(_) => None,
            System::Cluster(cluster) => Some(cluster.router_platform()),
        }
    }

    /// The store that serves verified reads of `key`: the store itself,
    /// or the first replica of the key's shard.
    pub fn read_node(&self, key: &[u8]) -> Arc<ElsmP2> {
        match self {
            System::Single(store) => store.clone(),
            System::Cluster(cluster) => cluster
                .replication_group(cluster.shard_of(key))
                .expect("benchmark clusters are replicated")
                .replica_store(0),
        }
    }

    /// Flushes every memtable.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn flush(&self) -> Result<(), ElsmError> {
        match self {
            System::Single(store) => Ok(store.db().flush()?),
            System::Cluster(cluster) => cluster.flush(),
        }
    }

    /// Epochs each replica lags its primary's newest announced head.
    pub fn replica_lags(&self) -> Vec<u64> {
        let System::Cluster(cluster) = self else {
            return Vec::new();
        };
        let mut lags = Vec::new();
        for shard in 0..cluster.shard_count() {
            let group =
                cluster.replication_group(shard).expect("benchmark clusters are replicated");
            for i in 0..group.replica_count() {
                lags.push(group.with_replica(i, |replica| match replica.freshness() {
                    Ok(token) => token.lag_epochs(),
                    Err(ElsmError::Verification(VerificationFailure::ReplicaStale {
                        lag_epochs,
                        ..
                    })) => lag_epochs,
                    Err(_) => 0,
                }));
            }
        }
        lags
    }
}
