//! Concrete placements of replicas onto servers.
//!
//! A [`Layout`] answers "the i-th replica of video v is on server x(v,i)"
//! (the paper's `x_i(v)` mapping) and enforces the placement-side
//! constraints: storage (4), distinct servers per video (6), and — when
//! asked — the expected-bandwidth constraint (5).

use crate::error::ModelError;
use crate::ids::{ServerId, VideoId};
use crate::redundancy::{RedundancyMap, RedundancyScheme};
use crate::server::ClusterSpec;
use crate::video::Catalog;
use serde::{Deserialize, Serialize};

/// Placement of every replica of every video onto cluster servers.
///
/// `assignments[v]` lists the servers holding a replica of video `v`; the
/// order of that list is the static round-robin dispatch order the
/// simulator follows. Under a coded [`RedundancyMap`] entry the list is
/// the video's *fragment holders* in fragment order (positions `0..k`
/// hold data fragments, the rest parity), and its length must be `k+m`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    n_servers: usize,
    assignments: Vec<Vec<ServerId>>,
    /// Per-video redundancy schemes. `None` (the wire default — old
    /// serialized layouts carry no field) means all-replicated with the
    /// counts implied by the assignment lengths.
    #[serde(default)]
    redundancy: Option<RedundancyMap>,
}

impl Layout {
    /// A layout from explicit per-video server lists.
    pub fn new(n_servers: usize, assignments: Vec<Vec<ServerId>>) -> Result<Self, ModelError> {
        Self::check_assignments(n_servers, &assignments)?;
        Ok(Layout {
            n_servers,
            assignments,
            redundancy: None,
        })
    }

    /// A layout with an explicit per-video redundancy map. Coded videos
    /// must list exactly `k + m` holders; the distinct-server constraint
    /// (6) doubles as fragment/server anti-affinity.
    pub fn with_redundancy(
        n_servers: usize,
        assignments: Vec<Vec<ServerId>>,
        redundancy: RedundancyMap,
    ) -> Result<Self, ModelError> {
        let mut layout = Layout::new(n_servers, assignments)?;
        if redundancy.len() != layout.assignments.len() {
            return Err(ModelError::LengthMismatch {
                expected: layout.assignments.len(),
                actual: redundancy.len(),
            });
        }
        redundancy.validate(n_servers)?;
        for (v, servers) in layout.assignments.iter().enumerate() {
            let scheme = redundancy.get(VideoId(v as u32));
            if scheme.holders() as usize != servers.len() {
                return Err(ModelError::LengthMismatch {
                    expected: scheme.holders() as usize,
                    actual: servers.len(),
                });
            }
        }
        layout.redundancy = Some(redundancy);
        Ok(layout)
    }

    /// The structural checks [`Self::new`] runs, without building a
    /// layout: a non-empty catalog and cluster, and every video with
    /// `1 ≤ r_i ≤ N` replicas (7) on known (bounds-checked) and pairwise
    /// distinct servers (6).
    pub fn check_assignments(
        n_servers: usize,
        assignments: &[Vec<ServerId>],
    ) -> Result<(), ModelError> {
        if assignments.is_empty() || n_servers == 0 {
            return Err(ModelError::Empty);
        }
        for (v, servers) in assignments.iter().enumerate() {
            let video = VideoId(v as u32);
            if servers.is_empty() || servers.len() > n_servers {
                return Err(ModelError::ReplicaCountOutOfRange {
                    video,
                    count: servers.len() as u32,
                    servers: n_servers,
                });
            }
            for (i, &s) in servers.iter().enumerate() {
                if s.index() >= n_servers {
                    return Err(ModelError::UnknownServer(s));
                }
                if servers[..i].contains(&s) {
                    return Err(ModelError::DuplicateServer { video, server: s });
                }
            }
        }
        Ok(())
    }

    /// Number of servers `N`.
    #[inline]
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// Number of videos `M`.
    #[inline]
    pub fn n_videos(&self) -> usize {
        self.assignments.len()
    }

    /// Servers holding video `v`, in round-robin dispatch order.
    #[inline]
    pub fn replicas_of(&self, v: VideoId) -> &[ServerId] {
        &self.assignments[v.index()]
    }

    /// All assignments, indexed by video.
    #[inline]
    pub fn assignments(&self) -> &[Vec<ServerId>] {
        &self.assignments
    }

    /// Replica count of video `v` in this layout.
    #[inline]
    pub fn replica_count(&self, v: VideoId) -> u32 {
        self.assignments[v.index()].len() as u32
    }

    /// The per-video redundancy map, when one was attached.
    #[inline]
    pub fn redundancy(&self) -> Option<&RedundancyMap> {
        self.redundancy.as_ref()
    }

    /// The redundancy scheme of one video (`Replicated` with the
    /// assignment length when no map is attached).
    #[inline]
    pub fn scheme_of(&self, v: VideoId) -> RedundancyScheme {
        match &self.redundancy {
            Some(map) => map.get(v),
            None => RedundancyScheme::Replicated {
                r: self.assignments[v.index()].len() as u32,
            },
        }
    }

    /// Whether any video is erasure-coded (false for all-replicated
    /// maps, which are equivalent to no map at all).
    pub fn any_coded(&self) -> bool {
        self.redundancy.as_ref().is_some_and(|m| m.any_coded())
    }

    /// Inverts the mapping: which videos does each server hold?
    pub fn server_contents(&self) -> Vec<Vec<VideoId>> {
        let mut contents = vec![Vec::new(); self.n_servers];
        for (v, servers) in self.assignments.iter().enumerate() {
            for &s in servers {
                contents[s.index()].push(VideoId(v as u32));
            }
        }
        contents
    }

    /// Replicas stored per server (for fixed-rate storage accounting).
    pub fn replicas_per_server(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_servers];
        for servers in &self.assignments {
            for &s in servers {
                counts[s.index()] += 1;
            }
        }
        counts
    }

    /// Expected communication load per server: `l_j = Σ_{replicas on j} w_i`
    /// for the given per-replica weights (one weight per video, shared by
    /// all its replicas — they split the video's demand evenly under static
    /// round robin).
    pub fn loads(&self, weights: &[f64]) -> Result<Vec<f64>, ModelError> {
        if weights.len() != self.assignments.len() {
            return Err(ModelError::LengthMismatch {
                expected: self.assignments.len(),
                actual: weights.len(),
            });
        }
        let mut loads = vec![0.0; self.n_servers];
        for (v, servers) in self.assignments.iter().enumerate() {
            for &s in servers {
                loads[s.index()] += weights[v];
            }
        }
        Ok(loads)
    }

    /// Validates the storage constraint (4) against real byte capacities.
    pub fn validate_storage(
        &self,
        catalog: &Catalog,
        cluster: &ClusterSpec,
    ) -> Result<(), ModelError> {
        if catalog.len() != self.assignments.len() {
            return Err(ModelError::LengthMismatch {
                expected: self.assignments.len(),
                actual: catalog.len(),
            });
        }
        if cluster.len() != self.n_servers {
            return Err(ModelError::LengthMismatch {
                expected: self.n_servers,
                actual: cluster.len(),
            });
        }
        let mut used = vec![0u64; self.n_servers];
        for (v, servers) in self.assignments.iter().enumerate() {
            // A coded holder stores one ⌈size/k⌉ fragment, not a copy.
            let bytes = self
                .scheme_of(VideoId(v as u32))
                .stored_bytes(catalog.videos()[v].storage_bytes());
            for &s in servers {
                used[s.index()] += bytes;
            }
        }
        for (j, (&u, spec)) in used.iter().zip(cluster.servers()).enumerate() {
            if u > spec.storage_bytes {
                return Err(ModelError::StorageExceeded {
                    server: ServerId(j as u32),
                    required: u,
                    capacity: spec.storage_bytes,
                });
            }
        }
        Ok(())
    }

    /// Validates the expected-bandwidth constraint (5): per-server expected
    /// stream load (weights in *streams*, i.e. `w_i · b_i` in kbps) must not
    /// exceed outgoing bandwidth. `expected_kbps[v]` is the expected
    /// concurrent outgoing kbps one replica of video `v` contributes.
    pub fn validate_bandwidth(
        &self,
        expected_kbps: &[f64],
        cluster: &ClusterSpec,
    ) -> Result<(), ModelError> {
        let loads = self.loads(expected_kbps)?;
        for (j, (&l, spec)) in loads.iter().zip(cluster.servers()).enumerate() {
            if l > spec.bandwidth_kbps as f64 + 1e-9 {
                return Err(ModelError::BandwidthExceeded {
                    server: ServerId(j as u32),
                    required: l,
                    capacity: spec.bandwidth_kbps as f64,
                });
            }
        }
        Ok(())
    }

    /// Derives the replication scheme implied by this layout.
    pub fn scheme(&self) -> crate::replication::ReplicationScheme {
        crate::replication::ReplicationScheme::new(
            self.assignments.iter().map(|s| s.len() as u32).collect(),
        )
        .expect("layout is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrate::BitRate;
    use crate::server::ServerSpec;

    fn sid(i: u32) -> ServerId {
        ServerId(i)
    }

    fn small_layout() -> Layout {
        // 3 videos on 3 servers: v0 on {s0,s1}, v1 on {s2}, v2 on {s0}.
        Layout::new(3, vec![vec![sid(0), sid(1)], vec![sid(2)], vec![sid(0)]]).unwrap()
    }

    #[test]
    fn structure_accepted() {
        let l = small_layout();
        assert_eq!(l.n_servers(), 3);
        assert_eq!(l.n_videos(), 3);
        assert_eq!(l.replica_count(VideoId(0)), 2);
        assert_eq!(l.replicas_of(VideoId(1)), &[sid(2)]);
        assert_eq!(l.replicas_per_server(), vec![2, 1, 1]);
    }

    #[test]
    fn duplicate_server_rejected() {
        let err = Layout::new(2, vec![vec![sid(0), sid(0)]]).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateServer { .. }));
    }

    #[test]
    fn unknown_server_rejected() {
        let err = Layout::new(2, vec![vec![sid(5)]]).unwrap_err();
        assert_eq!(err, ModelError::UnknownServer(sid(5)));
    }

    #[test]
    fn empty_replica_list_rejected() {
        let err = Layout::new(2, vec![vec![]]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::ReplicaCountOutOfRange { count: 0, .. }
        ));
    }

    #[test]
    fn too_many_replicas_rejected() {
        let err = Layout::new(1, vec![vec![sid(0), sid(1)]]).unwrap_err();
        // r=2 > N=1 caught before the unknown-server check.
        assert!(matches!(
            err,
            ModelError::ReplicaCountOutOfRange { count: 2, .. }
        ));
    }

    #[test]
    fn loads_sum_weights() {
        let l = small_layout();
        let loads = l.loads(&[4.0, 3.0, 2.0]).unwrap();
        assert_eq!(loads, vec![6.0, 4.0, 3.0]);
    }

    #[test]
    fn server_contents_inverts() {
        let l = small_layout();
        let contents = l.server_contents();
        assert_eq!(contents[0], vec![VideoId(0), VideoId(2)]);
        assert_eq!(contents[1], vec![VideoId(0)]);
        assert_eq!(contents[2], vec![VideoId(1)]);
    }

    #[test]
    fn scheme_derived() {
        let l = small_layout();
        assert_eq!(l.scheme().replicas(), &[2, 1, 1]);
    }

    #[test]
    fn storage_validation() {
        let l = small_layout();
        let catalog = Catalog::fixed_rate(3, BitRate::from_kbps(8), 1_000).unwrap();
        // Each replica = 8 kbps * 125 * 1000 s = 1_000_000 bytes.
        let ok = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: 2_000_000,
                bandwidth_kbps: 1,
            },
        )
        .unwrap();
        assert!(l.validate_storage(&catalog, &ok).is_ok());
        let tight = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: 1_999_999,
                bandwidth_kbps: 1,
            },
        )
        .unwrap();
        // Server 0 holds two replicas = 2 MB > 1_999_999 B.
        assert!(matches!(
            l.validate_storage(&catalog, &tight),
            Err(ModelError::StorageExceeded {
                server: ServerId(0),
                ..
            })
        ));
    }

    #[test]
    fn bandwidth_validation() {
        let l = small_layout();
        let cluster = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 10,
            },
        )
        .unwrap();
        assert!(l.validate_bandwidth(&[5.0, 4.0, 5.0], &cluster).is_ok());
        assert!(matches!(
            l.validate_bandwidth(&[6.0, 4.0, 5.0], &cluster),
            Err(ModelError::BandwidthExceeded {
                server: ServerId(0),
                ..
            })
        ));
    }

    #[test]
    fn coded_layout_counts_and_storage() {
        use crate::redundancy::{RedundancyMap, RedundancyScheme};
        // v0 coded (k=2, m=1) on 3 servers, v1 replicated once.
        let map = RedundancyMap::new(vec![
            RedundancyScheme::Coded { k: 2, m: 1 },
            RedundancyScheme::Replicated { r: 1 },
        ])
        .unwrap();
        let l = Layout::with_redundancy(
            3,
            vec![vec![sid(0), sid(1), sid(2)], vec![sid(0)]],
            map.clone(),
        )
        .unwrap();
        assert!(l.any_coded());
        assert_eq!(
            l.scheme_of(VideoId(0)),
            RedundancyScheme::Coded { k: 2, m: 1 }
        );
        assert_eq!(l.redundancy().unwrap(), &map);

        // Holder-count mismatch: coded k+m=3 but only 2 servers listed.
        let err = Layout::with_redundancy(3, vec![vec![sid(0), sid(1)], vec![sid(0)]], map.clone())
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::LengthMismatch {
                expected: 3,
                actual: 2
            }
        ));

        // Storage charges fragments, not copies: 1_000_000-byte videos,
        // fragment = 500_000. s0 holds one fragment + one full copy.
        let catalog = Catalog::fixed_rate(2, BitRate::from_kbps(8), 1_000).unwrap();
        let tight = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: 1_500_000,
                bandwidth_kbps: 1,
            },
        )
        .unwrap();
        let l = Layout::with_redundancy(3, vec![vec![sid(0), sid(1), sid(2)], vec![sid(0)]], map)
            .unwrap();
        assert!(l.validate_storage(&catalog, &tight).is_ok());
        // Without the map the same shape would need 2 MB on s0.
        let plain = Layout::new(3, vec![vec![sid(0), sid(1), sid(2)], vec![sid(0)]]).unwrap();
        assert!(plain.validate_storage(&catalog, &tight).is_err());
    }

    #[test]
    fn plain_layouts_report_replicated_schemes() {
        let l = small_layout();
        assert!(!l.any_coded());
        assert!(l.redundancy().is_none());
        assert_eq!(
            l.scheme_of(VideoId(0)),
            crate::redundancy::RedundancyScheme::Replicated { r: 2 }
        );
    }

    #[test]
    fn legacy_layout_json_deserializes_without_redundancy_field() {
        let json = r#"{"n_servers":2,"assignments":[[0,1],[0]]}"#;
        let l: Layout = serde_json::from_str(json).unwrap();
        assert!(l.redundancy().is_none());
        assert_eq!(l.n_videos(), 2);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let l = small_layout();
        assert!(matches!(
            l.loads(&[1.0]),
            Err(ModelError::LengthMismatch { .. })
        ));
        let catalog = Catalog::fixed_rate(2, BitRate::MPEG2, 100).unwrap();
        let cluster = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: 1,
                bandwidth_kbps: 1,
            },
        )
        .unwrap();
        assert!(matches!(
            l.validate_storage(&catalog, &cluster),
            Err(ModelError::LengthMismatch { .. })
        ));
    }
}
