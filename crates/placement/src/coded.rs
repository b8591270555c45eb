//! Fragment placement for erasure-coded redundancy tiers.
//!
//! A `Coded { k, m }` video occupies `k + m` distinct servers — one
//! fragment each — so losing any single server costs at most one
//! fragment per video (server anti-affinity, the coded analogue of the
//! paper's constraint (6)). `m = 0` is accepted: a stripe without
//! parity, and with `k = N` the paper's wide-striping comparator (every
//! video spread over every server, no loss tolerated). When the cluster is organised into racks
//! that fail together, fragments should additionally spread across
//! racks so a rack outage never claims more than
//! `⌈(k+m) / n_racks⌉` fragments of one stripe (rack anti-affinity).
//!
//! [`place_coded`] builds such a layout by dealing each video's
//! fragments onto a *rack-interleaved* server order (round-robin across
//! racks, then within racks), rotating the starting offset per video so
//! fragment load spreads evenly. Replicated videos in the same map are
//! dealt cyclically like [`crate::round_robin::RoundRobinPlacement`].

use vod_model::redundancy::RedundancyMap;
use vod_model::{Layout, ModelError, ServerId};

/// Builds a layout for a per-video redundancy map on `n_servers`
/// servers grouped into `racks` (each a list of member servers; servers
/// absent from every rack form an implicit singleton rack each).
///
/// Fragments/replicas of one video always land on distinct servers;
/// coded fragments are dealt across racks before within a rack, so the
/// per-rack fragment count of any stripe is as small as possible.
pub fn place_coded(
    n_servers: usize,
    racks: &[Vec<ServerId>],
    redundancy: &RedundancyMap,
) -> Result<Layout, ModelError> {
    redundancy.validate(n_servers)?;
    let order = rack_interleaved_order(n_servers, racks)?;

    let mut assignments: Vec<Vec<ServerId>> = Vec::with_capacity(redundancy.len());
    for (v, scheme) in redundancy.schemes().iter().enumerate() {
        let holders = scheme.holders() as usize;
        // Rotate the starting offset per video so holder sets (and hence
        // fragment load) rotate around the cluster instead of piling the
        // first k+m servers with every stripe's data fragments.
        let start = (v * holders) % n_servers;
        let servers: Vec<ServerId> = (0..holders)
            .map(|i| order[(start + i) % n_servers])
            .collect();
        assignments.push(servers);
    }
    Layout::with_redundancy(n_servers, assignments, redundancy.clone())
}

/// A server ordering that cycles across racks: position `i` belongs to
/// rack `i mod n_racks` (while that rack has members left). Any
/// `k + m ≤ n_servers` consecutive positions then touch each rack at
/// most `⌈(k+m) / n_racks⌉` times.
fn rack_interleaved_order(
    n_servers: usize,
    racks: &[Vec<ServerId>],
) -> Result<Vec<ServerId>, ModelError> {
    let mut rack_of: Vec<Option<usize>> = vec![None; n_servers];
    for (r, members) in racks.iter().enumerate() {
        for &s in members {
            if s.index() >= n_servers {
                return Err(ModelError::UnknownServer(s));
            }
            if rack_of[s.index()].is_some() {
                // A server in two racks: reuse the duplicate-server error
                // (no video is involved, so v0 stands in).
                return Err(ModelError::DuplicateServer {
                    video: vod_model::VideoId(0),
                    server: s,
                });
            }
            rack_of[s.index()] = Some(r);
        }
    }
    // Singleton pseudo-racks for unracked servers keep the interleave
    // total: every server appears exactly once.
    let mut groups: Vec<Vec<ServerId>> = vec![Vec::new(); racks.len()];
    for (s, rack) in rack_of.iter().enumerate() {
        match rack {
            Some(r) => groups[*r].push(ServerId(s as u32)),
            None => groups.push(vec![ServerId(s as u32)]),
        }
    }
    groups.retain(|g| !g.is_empty());

    let mut order = Vec::with_capacity(n_servers);
    let mut depth = 0usize;
    while order.len() < n_servers {
        for g in &groups {
            if let Some(&s) = g.get(depth) {
                order.push(s);
            }
        }
        depth += 1;
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::redundancy::RedundancyScheme;
    use vod_model::VideoId;

    const C21: RedundancyScheme = RedundancyScheme::Coded { k: 2, m: 1 };
    const C42: RedundancyScheme = RedundancyScheme::Coded { k: 4, m: 2 };

    #[test]
    fn fragments_on_distinct_servers() {
        let map = RedundancyMap::uniform(10, C42).unwrap();
        let layout = place_coded(8, &[], &map).unwrap();
        for v in 0..10 {
            let servers = layout.replicas_of(VideoId(v));
            let mut sorted = servers.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 6);
        }
        assert!(layout.any_coded());
    }

    #[test]
    fn rack_interleaving_bounds_per_rack_fragments() {
        // 8 servers in 4 racks of 2: a (4, 2) stripe may touch each
        // rack at most ceil(6/4) = 2 times.
        let racks: Vec<Vec<ServerId>> = (0..4)
            .map(|r| vec![ServerId(2 * r), ServerId(2 * r + 1)])
            .collect();
        let map = RedundancyMap::uniform(20, C42).unwrap();
        let layout = place_coded(8, &racks, &map).unwrap();
        for v in 0..20 {
            let mut per_rack = [0u32; 4];
            for s in layout.replicas_of(VideoId(v)) {
                per_rack[s.index() / 2] += 1;
            }
            assert!(per_rack.iter().all(|&c| c <= 2), "video {v}: {per_rack:?}");
        }
    }

    #[test]
    fn rotation_spreads_fragment_load() {
        let map = RedundancyMap::uniform(16, C21).unwrap();
        let layout = place_coded(8, &[], &map).unwrap();
        // 16 videos × 3 fragments over 8 servers: exactly 6 each.
        assert!(layout.replicas_per_server().iter().all(|&c| c == 6));
    }

    #[test]
    fn mixed_map_places_replicated_videos_too() {
        let map = RedundancyMap::new(vec![
            RedundancyScheme::Replicated { r: 2 },
            C21,
            RedundancyScheme::Replicated { r: 1 },
        ])
        .unwrap();
        let layout = place_coded(4, &[], &map).unwrap();
        assert_eq!(layout.replicas_of(VideoId(0)).len(), 2);
        assert_eq!(layout.replicas_of(VideoId(1)).len(), 3);
        assert_eq!(layout.replicas_of(VideoId(2)).len(), 1);
    }

    #[test]
    fn rejects_bad_racks_and_schemes() {
        let map = RedundancyMap::uniform(2, C42).unwrap();
        assert!(place_coded(4, &[], &map).is_err()); // k+m=6 > 4 servers
        let dup = vec![vec![ServerId(0), ServerId(0)]];
        assert!(place_coded(8, &dup, &map).is_err());
        let oob = vec![vec![ServerId(9)]];
        assert!(place_coded(8, &oob, &map).is_err());
    }
}
