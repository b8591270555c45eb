//! Server and cluster specifications — the capacities behind constraints
//! (4) and (5).
//!
//! "We consider a cluster of N homogeneous servers … Each server has a
//! storage capacity C and an outgoing network bandwidth B" (paper, Sec. 3.1).
//! Heterogeneous clusters are supported as an extension (per-server specs);
//! the paper's algorithms are exercised on homogeneous ones.

use crate::bitrate::BitRate;
use crate::error::ModelError;
use serde::{Deserialize, Serialize};

/// Capacities of a single back-end server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Disk storage for whole-video replicas, in bytes.
    pub storage_bytes: u64,
    /// Outgoing network bandwidth, in kilobits per second.
    pub bandwidth_kbps: u64,
}

impl ServerSpec {
    /// How many replicas of a fixed-rate video fit in this server's storage
    /// — the paper's re-definition of C "in terms of the number of replicas"
    /// (Sec. 4.1).
    #[inline]
    pub fn replica_slots(&self, bitrate: BitRate, duration_s: u64) -> u64 {
        let per_replica = bitrate.storage_bytes(duration_s);
        if per_replica == 0 {
            return 0;
        }
        self.storage_bytes / per_replica
    }

    /// How many concurrent streams at `bitrate` the outgoing link supports.
    #[inline]
    pub fn stream_capacity(&self, bitrate: BitRate) -> u64 {
        if bitrate.kbps() == 0 {
            return 0;
        }
        self.bandwidth_kbps / bitrate.kbps() as u64
    }
}

/// A cluster of back-end servers behind one dispatcher.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    servers: Vec<ServerSpec>,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n` identical servers (the paper's setting).
    pub fn homogeneous(n: usize, spec: ServerSpec) -> Result<Self, ModelError> {
        if n == 0 {
            return Err(ModelError::Empty);
        }
        Ok(ClusterSpec {
            servers: vec![spec; n],
        })
    }

    /// A heterogeneous cluster from explicit per-server specs (extension).
    pub fn heterogeneous(servers: Vec<ServerSpec>) -> Result<Self, ModelError> {
        if servers.is_empty() {
            return Err(ModelError::Empty);
        }
        Ok(ClusterSpec { servers })
    }

    /// The paper's evaluation cluster: 8 homogeneous servers, 1.8 Gbps
    /// outgoing each, with storage sized to hold `replica_slots` replicas of
    /// a 90-minute 4 Mbps video per server.
    pub fn paper_default(replica_slots: u64) -> Self {
        let per_replica = BitRate::MPEG2.storage_bytes(crate::video::TYPICAL_DURATION_S);
        ClusterSpec::homogeneous(
            8,
            ServerSpec {
                storage_bytes: replica_slots * per_replica,
                bandwidth_kbps: 1_800_000,
            },
        )
        .expect("n = 8 > 0")
    }

    /// Number of servers `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Always false: construction rejects empty clusters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Per-server specifications, in [`crate::ServerId`] order.
    #[inline]
    pub fn servers(&self) -> &[ServerSpec] {
        &self.servers
    }

    /// True when all servers are identical.
    pub fn is_homogeneous(&self) -> bool {
        self.servers.windows(2).all(|w| w[0] == w[1])
    }

    /// Total cluster outgoing bandwidth in kbps.
    pub fn total_bandwidth_kbps(&self) -> u64 {
        self.servers.iter().map(|s| s.bandwidth_kbps).sum()
    }

    /// Total replica slots across the cluster for a fixed-rate catalog —
    /// the budget `Σ r_i ≤ N·C` of the replication step.
    pub fn total_replica_slots(&self, bitrate: BitRate, duration_s: u64) -> u64 {
        self.servers
            .iter()
            .map(|s| s.replica_slots(bitrate, duration_s))
            .sum()
    }

    /// Total concurrent streams at `bitrate` the cluster's outgoing links
    /// support — the saturation point of the rejection-rate curves.
    pub fn total_stream_capacity(&self, bitrate: BitRate) -> u64 {
        self.servers
            .iter()
            .map(|s| s.stream_capacity(bitrate))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::TYPICAL_DURATION_S;

    #[test]
    fn paper_cluster_capacities() {
        let c = ClusterSpec::paper_default(30);
        assert_eq!(c.len(), 8);
        assert!(c.is_homogeneous());
        // 1.8 Gbps / 4 Mbps = 450 streams per server, 3600 cluster-wide.
        assert_eq!(c.servers()[0].stream_capacity(BitRate::MPEG2), 450);
        assert_eq!(c.total_stream_capacity(BitRate::MPEG2), 3_600);
        // 30 replica slots per server, 240 cluster-wide.
        assert_eq!(
            c.servers()[0].replica_slots(BitRate::MPEG2, TYPICAL_DURATION_S),
            30
        );
        assert_eq!(
            c.total_replica_slots(BitRate::MPEG2, TYPICAL_DURATION_S),
            240
        );
    }

    #[test]
    fn replica_slots_floor() {
        let s = ServerSpec {
            storage_bytes: 2_700_000_000 * 2 + 1_000,
            bandwidth_kbps: 1,
        };
        assert_eq!(s.replica_slots(BitRate::MPEG2, TYPICAL_DURATION_S), 2);
    }

    #[test]
    fn zero_rate_guards() {
        let s = ServerSpec {
            storage_bytes: 1,
            bandwidth_kbps: 1,
        };
        assert_eq!(s.replica_slots(BitRate::from_kbps(0), 100), 0);
        assert_eq!(s.stream_capacity(BitRate::from_kbps(0)), 0);
    }

    #[test]
    fn heterogeneous_detected() {
        let c = ClusterSpec::heterogeneous(vec![
            ServerSpec {
                storage_bytes: 10,
                bandwidth_kbps: 10,
            },
            ServerSpec {
                storage_bytes: 20,
                bandwidth_kbps: 10,
            },
        ])
        .unwrap();
        assert!(!c.is_homogeneous());
        assert_eq!(c.total_bandwidth_kbps(), 20);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            ClusterSpec::homogeneous(
                0,
                ServerSpec {
                    storage_bytes: 1,
                    bandwidth_kbps: 1
                }
            ),
            Err(ModelError::Empty)
        );
        assert_eq!(ClusterSpec::heterogeneous(vec![]), Err(ModelError::Empty));
    }
}
