//! The replica-graph partition of a layout into independent server
//! groups.
//!
//! Two servers are coupled when some video keeps a replica on both:
//! dispatch, admission and departures for that video touch both
//! servers. [`ShardPlan`] computes the finest partition no video
//! crosses — connected components of the servers-joined-by-replica-sets
//! graph — and packs the components into at most the requested number
//! of groups, largest first, so group sizes stay balanced (LPT packing).
//! It describes a layout's structure (e.g. how many pods a pod layout
//! really has); the engine itself always runs one serial event loop.
//!
//! Everything here is deterministic: components are ordered by size
//! (descending) then by their smallest server id, and ties in the
//! packing go to the lowest-indexed shard, so the same layout always
//! yields the same plan.

use vod_model::Layout;

/// A deterministic partition of servers (and their videos) into
/// independent groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards actually used (`1..=requested`).
    pub n_shards: usize,
    /// Owning shard of each video.
    pub video_shard: Vec<u32>,
    /// Owning shard of each server.
    pub server_shard: Vec<u32>,
}

/// Union-find over server indices (path-halving + union by size).
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

impl ShardPlan {
    /// The decoupled partition of `layout` into at most `max_shards`
    /// shards. Servers sharing any video's replica set land in the
    /// same shard; videos with no replicas (never admittable, but
    /// legal) are spread round-robin. With a fully connected replica
    /// graph this degenerates to a single shard.
    pub fn decoupled(layout: &Layout, max_shards: usize) -> ShardPlan {
        let n_servers = layout.n_servers();
        let n_videos = layout.n_videos();
        let mut dsu = Dsu::new(n_servers);
        for v in 0..n_videos {
            let replicas = layout.replicas_of(vod_model::VideoId(v as u32));
            if let Some((&first, rest)) = replicas.split_first() {
                for &r in rest {
                    dsu.union(first.0, r.0);
                }
            }
        }
        // Components in deterministic order: size descending, then
        // smallest member server id ascending.
        let mut comp_of = vec![u32::MAX; n_servers];
        let mut comps: Vec<(u32, u32, u32)> = Vec::new(); // (size, min_server, root)
        for j in 0..n_servers as u32 {
            let root = dsu.find(j);
            if comp_of[root as usize] == u32::MAX {
                comp_of[root as usize] = comps.len() as u32;
                comps.push((dsu.size[root as usize], j, root));
            }
        }
        comps.sort_unstable_by_key(|&(size, min_server, _)| (std::cmp::Reverse(size), min_server));
        let n_shards = max_shards.clamp(1, comps.len().max(1));
        // LPT packing: each component goes to the currently smallest
        // shard (ties to the lowest shard index).
        let mut shard_sizes = vec![0u32; n_shards];
        let mut shard_of_comp = vec![0u32; comps.len()];
        let mut comp_index = vec![0u32; n_servers]; // root -> sorted position
        for (pos, &(size, _, root)) in comps.iter().enumerate() {
            let target = (0..n_shards)
                .min_by_key(|&s| shard_sizes[s])
                .unwrap_or_default();
            shard_sizes[target] += size;
            shard_of_comp[pos] = target as u32;
            comp_index[root as usize] = pos as u32;
        }
        let server_shard: Vec<u32> = (0..n_servers as u32)
            .map(|j| shard_of_comp[comp_index[dsu.find(j) as usize] as usize])
            .collect();
        let mut video_shard = vec![0u32; n_videos];
        let mut orphan_rr = 0u32;
        for (v, slot) in video_shard.iter_mut().enumerate() {
            let replicas = layout.replicas_of(vod_model::VideoId(v as u32));
            *slot = match replicas.first() {
                Some(&s) => server_shard[s.index()],
                None => {
                    // No replicas: any shard can (vacuously) own it.
                    let s = orphan_rr % n_shards as u32;
                    orphan_rr += 1;
                    s
                }
            };
        }
        ShardPlan {
            n_shards,
            video_shard,
            server_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::{Layout, ServerId};

    fn layout(n_servers: usize, replicas: Vec<Vec<u32>>) -> Layout {
        Layout::new(
            n_servers,
            replicas
                .into_iter()
                .map(|rs| rs.into_iter().map(ServerId).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn pod_layout_splits_into_pods() {
        // Two independent pods of two servers each.
        let l = layout(4, vec![vec![0, 1], vec![2, 3], vec![0], vec![3]]);
        let plan = ShardPlan::decoupled(&l, 8);
        assert_eq!(plan.n_shards, 2);
        assert_eq!(plan.server_shard[0], plan.server_shard[1]);
        assert_eq!(plan.server_shard[2], plan.server_shard[3]);
        assert_ne!(plan.server_shard[0], plan.server_shard[2]);
        assert_eq!(plan.video_shard[0], plan.server_shard[0]);
        assert_eq!(plan.video_shard[1], plan.server_shard[2]);
        assert_eq!(plan.video_shard[2], plan.server_shard[0]);
        assert_eq!(plan.video_shard[3], plan.server_shard[3]);
    }

    #[test]
    fn connected_layout_collapses_to_one_shard() {
        // One video spanning both halves glues everything together.
        let l = layout(4, vec![vec![0, 1], vec![2, 3], vec![1, 2]]);
        let plan = ShardPlan::decoupled(&l, 8);
        assert_eq!(plan.n_shards, 1);
        assert!(plan.server_shard.iter().all(|&s| s == 0));
        assert!(plan.video_shard.iter().all(|&s| s == 0));
    }

    #[test]
    fn max_shards_caps_the_partition() {
        // Four singleton pods, but only two shards requested: LPT packs
        // two pods per shard.
        let l = layout(4, vec![vec![0], vec![1], vec![2], vec![3]]);
        let plan = ShardPlan::decoupled(&l, 2);
        assert_eq!(plan.n_shards, 2);
        let mut counts = [0usize; 2];
        for &s in &plan.server_shard {
            counts[s as usize] += 1;
        }
        assert_eq!(counts, [2, 2]);
    }

    #[test]
    fn packing_is_deterministic_and_balanced() {
        // Components of sizes 3, 2, 1, 1 over two shards: LPT gives
        // {3, 1} and {2, 1}.
        let l = layout(
            7,
            vec![vec![0, 1], vec![1, 2], vec![3, 4], vec![5], vec![6]],
        );
        let a = ShardPlan::decoupled(&l, 2);
        let b = ShardPlan::decoupled(&l, 2);
        assert_eq!(a, b);
        assert_eq!(a.n_shards, 2);
        let mut counts = [0usize; 2];
        for &s in &a.server_shard {
            counts[s as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 7);
        assert_eq!(*counts.iter().max().unwrap(), 4);
    }

    #[test]
    fn requesting_one_shard_is_the_identity_partition() {
        let l = layout(4, vec![vec![0], vec![1], vec![2], vec![3]]);
        let plan = ShardPlan::decoupled(&l, 1);
        assert_eq!(plan.n_shards, 1);
        assert!(plan.server_shard.iter().all(|&s| s == 0));
    }
}
