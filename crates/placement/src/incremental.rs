//! Incremental (migration-aware) placement.
//!
//! The paper notes its replication algorithms "can be applied for dynamic
//! replication during run-time" — but re-running a from-scratch placement
//! every epoch moves replicas wholesale, and copying a 2.7 GB replica
//! across the backbone is the single most expensive operation a running
//! cluster can perform. This module updates an existing layout toward a
//! new replication scheme while touching as few replicas as possible:
//!
//! 1. **keep** — for every video, retain current servers up to the new
//!    replica count (dropping from the most-loaded servers first when the
//!    count shrinks; drops are free);
//! 2. **add** — place additional replicas smallest-load-first among
//!    servers with free slots not already holding the video;
//! 3. **swap** — if every free slot sits on a server already holding
//!    the video (an exact-fill dead-end), move another video's replica
//!    onto a free slot to open a server for it.
//!
//! The result satisfies constraints (4), (6), (7) like any other
//! placement; balance is typically slightly worse than a fresh
//! smallest-load-first run (the price of stability), which the A-3
//! experiment quantifies against the migration savings.

use crate::traits::{PlacementInput, PlacementPolicy};
use vod_model::{Layout, ModelError, ServerId, VideoId};

/// Migration-aware placement toward a new scheme, starting from an
/// existing layout.
#[derive(Debug, Clone)]
pub struct IncrementalPlacement {
    previous: Layout,
}

/// Reusable working memory of [`IncrementalPlacement::place_into`].
/// After a successful call it holds the new placement
/// ([`Self::replicas_of`]). Replicas live in one flat buffer — video `v`
/// owns the `r_v`-slot run starting at `start[v]` — so a call allocates
/// nothing once the buffers have grown to the problem size.
#[derive(Debug, Clone, Default)]
pub struct IncrementalScratch {
    /// `(descending-weight key, video)`, sorted: the processing order,
    /// heaviest first, ties to the lower id.
    order: Vec<(u64, u32)>,
    /// Radix-sort scratch for `order`.
    order_tmp: Vec<(u64, u32)>,
    /// Per-server load if every previous replica stayed.
    old_loads: Vec<f64>,
    loads: Vec<f64>,
    used_slots: Vec<u64>,
    /// Keep-phase candidates of one video: `(old-load key, server)`.
    keep: Vec<(u64, u32)>,
    /// `(load key, server)` of every server with a free slot, ascending:
    /// its first entry not already holding the video is exactly the
    /// smallest-load-first pick of a scan over all servers.
    free: Vec<(u64, u32)>,
    start: Vec<usize>,
    len: Vec<u32>,
    slots: Vec<ServerId>,
}

/// Maps `x` to a `u64` whose unsigned order is [`f64::total_cmp`]'s.
#[inline]
fn total_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Sorts `items`, already in ascending id order, by key, stably — so
/// ties stay in id order — with an LSD radix sort over the key's bytes.
/// A byte every key shares (the high bytes of similar weights, the low
/// mantissa bytes of integral ones) costs no pass. `tmp` is scratch.
fn radix_sort(items: &mut Vec<(u64, u32)>, tmp: &mut Vec<(u64, u32)>) {
    let (mut any, mut all) = (0u64, u64::MAX);
    for &(key, _) in items.iter() {
        any |= key;
        all &= key;
    }
    let varying = any ^ all;
    tmp.clear();
    tmp.resize(items.len(), (0, 0));
    for shift in (0..64).step_by(8) {
        if (varying >> shift) & 0xFF == 0 {
            continue;
        }
        let mut next = [0usize; 256];
        for &(key, _) in items.iter() {
            next[(key >> shift) as usize & 0xFF] += 1;
        }
        let mut sum = 0;
        for slot in next.iter_mut() {
            let count = *slot;
            *slot = sum;
            sum += count;
        }
        for &item in items.iter() {
            let digit = (item.0 >> shift) as usize & 0xFF;
            tmp[next[digit]] = item;
            next[digit] += 1;
        }
        std::mem::swap(items, tmp);
    }
}

impl IncrementalScratch {
    /// Servers of video `v` in the last placement, in placement order.
    pub fn replicas_of(&self, v: VideoId) -> &[ServerId] {
        let at = self.start[v.index()];
        &self.slots[at..at + self.len[v.index()] as usize]
    }

    /// The last placement as per-video server lists.
    fn assignments(&self) -> Vec<Vec<ServerId>> {
        (0..self.start.len())
            .map(|v| self.replicas_of(VideoId(v as u32)).to_vec())
            .collect()
    }

    #[inline]
    fn holds(&self, v: usize, s: ServerId) -> bool {
        self.replicas_of(VideoId(v as u32)).contains(&s)
    }

    /// Appends server `j` to video `v`'s replicas and charges it.
    fn assign(&mut self, v: usize, j: usize, weight: f64) {
        self.slots[self.start[v] + self.len[v] as usize] = ServerId(j as u32);
        self.len[v] += 1;
        self.used_slots[j] += 1;
        self.loads[j] += weight;
    }

    /// Rebuilds the free-slot index from the current loads.
    fn index_free(&mut self, capacities: &[u64]) {
        self.free.clear();
        for (j, &cap) in capacities.iter().enumerate() {
            if self.used_slots[j] < cap {
                self.free.push((total_key(self.loads[j]), j as u32));
            }
        }
        self.free.sort_unstable();
    }

    /// The keep and add phases (module docs) for a validated input.
    fn fill(
        &mut self,
        previous: &[Vec<ServerId>],
        input: &PlacementInput<'_>,
    ) -> Result<(), ModelError> {
        let n = input.n_servers;
        let weights = input.weights;
        let counts = input.scheme.replicas();
        let caps = input.capacities;

        // Heaviest first, so keeps of hot titles win slots.
        self.order.clear();
        self.order.extend(
            weights
                .iter()
                .enumerate()
                .map(|(v, &w)| (!total_key(w), v as u32)),
        );
        radix_sort(&mut self.order, &mut self.order_tmp);

        // Each server's prospective load if everything stayed, to rank
        // drop candidates.
        self.old_loads.clear();
        self.old_loads.resize(n, 0.0);
        for (v, servers) in previous.iter().enumerate() {
            for &s in servers {
                self.old_loads[s.index()] += weights[v];
            }
        }
        self.loads.clear();
        self.loads.resize(n, 0.0);
        self.used_slots.clear();
        self.used_slots.resize(n, 0);
        self.start.clear();
        let mut total = 0usize;
        for &c in counts {
            self.start.push(total);
            total += c as usize;
        }
        self.len.clear();
        self.len.resize(counts.len(), 0);
        self.slots.clear();
        self.slots.resize(total, ServerId(0));

        // Phase 1 — keep: retain existing servers up to the new count,
        // keeping the servers with the *lowest* old load (dropping from
        // the heaviest is free).
        for i in 0..self.order.len() {
            let v = self.order[i].1 as usize;
            self.keep.clear();
            self.keep.extend(
                previous[v]
                    .iter()
                    .map(|s| (total_key(self.old_loads[s.index()]), s.0)),
            );
            self.keep.sort_unstable();
            for k in 0..self.keep.len() {
                if self.len[v] >= counts[v] {
                    break;
                }
                let j = self.keep[k].1 as usize;
                if self.used_slots[j] < caps[j] {
                    self.assign(v, j, weights[v]);
                }
            }
        }

        // Phase 2 — add: place the remaining replicas smallest-load-first.
        self.index_free(caps);
        for i in 0..self.order.len() {
            let v = self.order[i].1 as usize;
            while self.len[v] < counts[v] {
                let pick = self
                    .free
                    .iter()
                    .position(|&(_, j)| !self.holds(v, ServerId(j)));
                match pick {
                    Some(pos) => {
                        let j = self.free.remove(pos).1 as usize;
                        self.assign(v, j, weights[v]);
                        if self.used_slots[j] < caps[j] {
                            let entry = (total_key(self.loads[j]), j as u32);
                            let at = self.free.partition_point(|&e| e < entry);
                            self.free.insert(at, entry);
                        }
                    }
                    None => {
                        // Dead-end: every free slot sits on a server that
                        // already holds the video (an exact-fill artifact
                        // the keep phase can produce).
                        let j = self.swap_repair(v, input)?;
                        self.assign(v, j, weights[v]);
                        self.index_free(caps);
                    }
                }
            }
        }
        Ok(())
    }

    /// One-level swap repair for the exact-fill dead-end: moves some
    /// other video `u`'s replica from a full server `l` (not holding
    /// `v`) onto a free-slot server `k` (not holding `u`), and returns
    /// `l`, now able to take `v`. Candidates are tried in ascending
    /// `(k, l, u)` order.
    fn swap_repair(&mut self, v: usize, input: &PlacementInput<'_>) -> Result<usize, ModelError> {
        let n = input.n_servers;
        for k in 0..n {
            if self.used_slots[k] >= input.capacities[k] {
                continue;
            }
            let k_id = ServerId(k as u32);
            for l in 0..n {
                let l_id = ServerId(l as u32);
                if l == k || self.holds(v, l_id) {
                    continue;
                }
                let movable = (0..self.start.len())
                    .find(|&u| u != v && self.holds(u, l_id) && !self.holds(u, k_id));
                if let Some(u) = movable {
                    let at = self.start[u];
                    let run = &mut self.slots[at..at + self.len[u] as usize];
                    if let Some(pos) = run.iter().position(|&s| s == l_id) {
                        // Drop `l` keeping the others' order, append `k`.
                        run[pos..].rotate_left(1);
                        run[run.len() - 1] = k_id;
                    }
                    self.used_slots[l] -= 1;
                    self.used_slots[k] += 1;
                    self.loads[l] -= input.weights[u];
                    self.loads[k] += input.weights[u];
                    return Ok(l);
                }
            }
        }
        Err(ModelError::InsufficientStorage {
            required: input.scheme.total(),
            capacity: input.capacities.iter().sum::<u64>(),
        })
    }
}

impl IncrementalPlacement {
    /// A policy that preserves as much of `previous` as possible.
    pub fn from_previous(previous: Layout) -> Self {
        IncrementalPlacement { previous }
    }

    /// The same placement as [`PlacementPolicy::place`], from a borrowed
    /// previous content map (`previous[v]` = video `v`'s servers) into
    /// reusable `scratch` — for callers that replan repeatedly and
    /// already own the map. `previous` must pass
    /// [`Layout::check_assignments`]; on success the placement is
    /// [`IncrementalScratch::replicas_of`].
    pub fn place_into(
        previous: &[Vec<ServerId>],
        input: &PlacementInput<'_>,
        scratch: &mut IncrementalScratch,
    ) -> Result<(), ModelError> {
        input.validate()?;
        if previous.len() != input.scheme.len() {
            return Err(ModelError::LengthMismatch {
                expected: input.scheme.len(),
                actual: previous.len(),
            });
        }
        Layout::check_assignments(input.n_servers, previous)?;
        scratch.fill(previous, input)
    }

    /// Replicas that `new` adds relative to `old` (copies to perform).
    pub fn migration_cost(old: &Layout, new: &Layout) -> u64 {
        let mut cost = 0u64;
        for v in 0..new.n_videos() {
            let vid = VideoId(v as u32);
            let old_servers = old.replicas_of(vid);
            cost += new
                .replicas_of(vid)
                .iter()
                .filter(|s| !old_servers.contains(s))
                .count() as u64;
        }
        cost
    }
}

impl PlacementPolicy for IncrementalPlacement {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn place(&self, input: &PlacementInput<'_>) -> Result<Layout, ModelError> {
        input.validate()?;
        let n = input.n_servers;
        if self.previous.n_servers() != n || self.previous.n_videos() != input.scheme.len() {
            return Err(ModelError::LengthMismatch {
                expected: input.scheme.len(),
                actual: self.previous.n_videos(),
            });
        }
        let mut scratch = IncrementalScratch::default();
        scratch.fill(self.previous.assignments(), input)?;
        Layout::new(n, scratch.assignments())
    }
}

/// The first implementation of [`IncrementalPlacement::place`] (per-video
/// `Vec`s, a stable sort, and an O(N) scan per added replica), kept as the
/// differential oracle the flat-buffer rewrite must match exactly.
#[cfg(test)]
mod oracle {
    use crate::traits::PlacementInput;
    use vod_model::{Layout, ModelError, ServerId, VideoId};

    fn swap_repair(
        v: usize,
        input: &PlacementInput<'_>,
        assignments: &mut [Vec<ServerId>],
        used_slots: &mut [u64],
        loads: &mut [f64],
    ) -> Result<usize, ModelError> {
        let n = input.n_servers;
        let stuck = ModelError::InsufficientStorage {
            required: input.scheme.total(),
            capacity: input.capacities.iter().sum::<u64>(),
        };
        let frees: Vec<usize> = (0..n)
            .filter(|&k| used_slots[k] < input.capacities[k])
            .collect();
        for &k in &frees {
            let k_id = ServerId(k as u32);
            for l in 0..n {
                if l == k || assignments[v].contains(&ServerId(l as u32)) {
                    continue;
                }
                let movable = (0..assignments.len()).find(|&u| {
                    u != v
                        && assignments[u].contains(&ServerId(l as u32))
                        && !assignments[u].contains(&k_id)
                });
                if let Some(u) = movable {
                    let l_id = ServerId(l as u32);
                    assignments[u].retain(|&s| s != l_id);
                    assignments[u].push(k_id);
                    used_slots[l] -= 1;
                    used_slots[k] += 1;
                    loads[l] -= input.weights[u];
                    loads[k] += input.weights[u];
                    return Ok(l);
                }
            }
        }
        Err(stuck)
    }

    pub fn place(previous: &Layout, input: &PlacementInput<'_>) -> Result<Layout, ModelError> {
        input.validate()?;
        let n = input.n_servers;
        if previous.n_servers() != n || previous.n_videos() != input.scheme.len() {
            return Err(ModelError::LengthMismatch {
                expected: input.scheme.len(),
                actual: previous.n_videos(),
            });
        }
        let mut used_slots = vec![0u64; n];
        let mut loads = vec![0.0f64; n];
        let mut assignments: Vec<Vec<ServerId>> = vec![Vec::new(); input.scheme.len()];
        let mut order: Vec<usize> = (0..input.scheme.len()).collect();
        order.sort_by(|&a, &b| {
            input.weights[b]
                .total_cmp(&input.weights[a])
                .then(a.cmp(&b))
        });
        let old_loads = previous.loads(input.weights)?;
        for &v in &order {
            let vid = VideoId(v as u32);
            let target = input.scheme.count(vid) as usize;
            let mut current: Vec<ServerId> = previous.replicas_of(vid).to_vec();
            current.sort_by(|a, b| {
                old_loads[a.index()]
                    .total_cmp(&old_loads[b.index()])
                    .then(a.cmp(b))
            });
            for &s in current.iter() {
                if assignments[v].len() >= target {
                    break;
                }
                if used_slots[s.index()] < input.capacities[s.index()] {
                    assignments[v].push(s);
                    used_slots[s.index()] += 1;
                    loads[s.index()] += input.weights[v];
                }
            }
        }
        for &v in &order {
            let target = input.scheme.count(VideoId(v as u32)) as usize;
            while assignments[v].len() < target {
                let candidate = (0..n)
                    .filter(|&j| {
                        used_slots[j] < input.capacities[j]
                            && !assignments[v].contains(&ServerId(j as u32))
                    })
                    .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)));
                let j = match candidate {
                    Some(j) => j,
                    None => swap_repair(v, input, &mut assignments, &mut used_slots, &mut loads)?,
                };
                assignments[v].push(ServerId(j as u32));
                used_slots[j] += 1;
                loads[j] += input.weights[v];
            }
        }
        Layout::new(n, assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slf::SmallestLoadFirstPlacement;
    use proptest::prelude::*;
    use vod_model::{Popularity, ReplicationScheme};

    fn fresh_layout(scheme: &ReplicationScheme, weights: &[f64], n: usize, caps: &[u64]) -> Layout {
        SmallestLoadFirstPlacement
            .place(&PlacementInput {
                scheme,
                weights,
                n_servers: n,
                capacities: caps,
            })
            .unwrap()
    }

    #[test]
    fn unchanged_scheme_means_zero_migration() {
        let pop = Popularity::zipf(12, 1.0).unwrap();
        let scheme = ReplicationScheme::new(vec![3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]).unwrap();
        let weights = scheme.weights(&pop, 100.0).unwrap();
        let caps = vec![4u64; 4];
        let old = fresh_layout(&scheme, &weights, 4, &caps);
        let new = IncrementalPlacement::from_previous(old.clone())
            .place(&PlacementInput {
                scheme: &scheme,
                weights: &weights,
                n_servers: 4,
                capacities: &caps,
            })
            .unwrap();
        assert_eq!(IncrementalPlacement::migration_cost(&old, &new), 0);
        assert_eq!(new.scheme(), scheme);
    }

    #[test]
    fn small_scheme_change_small_migration() {
        let pop = Popularity::zipf(12, 1.0).unwrap();
        let old_scheme = ReplicationScheme::new(vec![3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]).unwrap();
        let weights_old = old_scheme.weights(&pop, 100.0).unwrap();
        let caps = vec![4u64; 4];
        let old = fresh_layout(&old_scheme, &weights_old, 4, &caps);

        // One replica moves from v0 to v3.
        let new_scheme = ReplicationScheme::new(vec![2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1]).unwrap();
        let weights_new = new_scheme.weights(&pop, 100.0).unwrap();
        let incremental = IncrementalPlacement::from_previous(old.clone())
            .place(&PlacementInput {
                scheme: &new_scheme,
                weights: &weights_new,
                n_servers: 4,
                capacities: &caps,
            })
            .unwrap();
        // Exactly one new copy (v3's second replica); v0's drop is free.
        assert_eq!(IncrementalPlacement::migration_cost(&old, &incremental), 1);
        assert_eq!(incremental.scheme(), new_scheme);

        // A from-scratch SLF run typically moves much more.
        let fresh = fresh_layout(&new_scheme, &weights_new, 4, &caps);
        assert!(
            IncrementalPlacement::migration_cost(&old, &fresh)
                >= IncrementalPlacement::migration_cost(&old, &incremental)
        );
    }

    #[test]
    fn constraints_hold_after_update() {
        let pop = Popularity::zipf(20, 0.8).unwrap();
        let old_scheme = ReplicationScheme::new(vec![1; 20]).unwrap();
        let w_old = old_scheme.weights(&pop, 50.0).unwrap();
        let caps = vec![6u64; 5];
        let old = fresh_layout(&old_scheme, &w_old, 5, &caps);

        let mut counts = vec![1u32; 20];
        counts[0] = 5;
        counts[1] = 3;
        counts[2] = 2;
        let new_scheme = ReplicationScheme::new(counts).unwrap();
        let w_new = new_scheme.weights(&pop, 50.0).unwrap();
        let layout = IncrementalPlacement::from_previous(old)
            .place(&PlacementInput {
                scheme: &new_scheme,
                weights: &w_new,
                n_servers: 5,
                capacities: &caps,
            })
            .unwrap();
        assert_eq!(layout.scheme(), new_scheme);
        for (j, &c) in layout.replicas_per_server().iter().enumerate() {
            assert!(c as u64 <= caps[j], "server {j} over capacity");
        }
    }

    #[test]
    fn shrinking_counts_drop_from_heaviest_servers() {
        // v0 on s0 (heavy) and s1 (light); shrinking to 1 replica must
        // keep the lightly-loaded s1 copy.
        let scheme2 = ReplicationScheme::new(vec![2, 1]).unwrap();
        let weights = [10.0, 5.0];
        let old = Layout::new(2, vec![vec![ServerId(0), ServerId(1)], vec![ServerId(0)]]).unwrap();
        // old loads: s0 = 10 + 5 = 15, s1 = 10 -> wait: v0 weight 10 on both.
        // s0 = 10 (v0) + 5 (v1) = 15; s1 = 10.
        let new_scheme = ReplicationScheme::new(vec![1, 1]).unwrap();
        let new_weights = new_scheme
            .weights(&Popularity::from_weights(&[10.0, 5.0]).unwrap(), 15.0)
            .unwrap();
        let caps = vec![2u64; 2];
        let layout = IncrementalPlacement::from_previous(old)
            .place(&PlacementInput {
                scheme: &new_scheme,
                weights: &new_weights,
                n_servers: 2,
                capacities: &caps,
            })
            .unwrap();
        assert_eq!(layout.replicas_of(VideoId(0)), &[ServerId(1)]);
        let _ = (scheme2, weights);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let old = Layout::new(2, vec![vec![ServerId(0)]]).unwrap();
        let scheme = ReplicationScheme::new(vec![1, 1]).unwrap();
        let caps = vec![2u64; 2];
        let err = IncrementalPlacement::from_previous(old)
            .place(&PlacementInput {
                scheme: &scheme,
                weights: &[1.0, 1.0],
                n_servers: 2,
                capacities: &caps,
            })
            .unwrap_err();
        assert!(matches!(err, ModelError::LengthMismatch { .. }));
    }

    #[test]
    fn name() {
        let old = Layout::new(1, vec![vec![ServerId(0)]]).unwrap();
        assert_eq!(
            IncrementalPlacement::from_previous(old).name(),
            "incremental"
        );
    }

    #[test]
    fn exact_fill_dead_end_swaps_like_the_oracle() {
        // Caps [3, 1, 1] hold exactly the 5 new replicas. Keeps fill
        // s0 with A and B and s1, s2 with C; B's second replica then
        // finds only s0 free — which holds B — so C moves s1 -> s0 and
        // B takes s1.
        let ids = |v: &[u32]| v.iter().map(|&s| ServerId(s)).collect::<Vec<_>>();
        let old = Layout::new(3, vec![ids(&[0]), ids(&[0]), ids(&[1, 2])]).unwrap();
        let scheme = ReplicationScheme::new(vec![1, 2, 2]).unwrap();
        let caps = [3u64, 1, 1];
        let input = PlacementInput {
            scheme: &scheme,
            weights: &[3.0, 2.0, 1.0],
            n_servers: 3,
            capacities: &caps,
        };
        let layout = IncrementalPlacement::from_previous(old.clone())
            .place(&input)
            .unwrap();
        assert_eq!(layout.replicas_of(VideoId(1)), &ids(&[0, 1])[..]);
        assert_eq!(layout.replicas_of(VideoId(2)), &ids(&[2, 0])[..]);
        assert_eq!(layout, oracle::place(&old, &input).unwrap());
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in [0usize, 1, 2, 7, 300, 2_048] {
            for spread in [3u64, 1 << 20, u64::MAX] {
                let mut items: Vec<(u64, u32)> = (0..n as u32)
                    .map(|v| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % spread, v)
                    })
                    .collect();
                let mut expected = items.clone();
                expected.sort_unstable();
                radix_sort(&mut items, &mut Vec::new());
                assert_eq!(items, expected, "n = {n}, spread = {spread}");
            }
        }
    }

    #[test]
    fn place_into_reuses_scratch_and_matches_place() {
        let old = Layout::new(
            4,
            vec![
                vec![ServerId(0), ServerId(1)],
                vec![ServerId(2)],
                vec![ServerId(3)],
            ],
        )
        .unwrap();
        let mut scratch = IncrementalScratch::default();
        for counts in [vec![1, 2, 1], vec![2, 2, 2], vec![3, 1, 1]] {
            let scheme = ReplicationScheme::new(counts).unwrap();
            let caps = [2u64, 0, 2, 2];
            let input = PlacementInput {
                scheme: &scheme,
                weights: &[1.0, 4.0, 2.0],
                n_servers: 4,
                capacities: &caps,
            };
            let layout = IncrementalPlacement::from_previous(old.clone())
                .place(&input)
                .unwrap();
            IncrementalPlacement::place_into(old.assignments(), &input, &mut scratch).unwrap();
            for v in 0..3 {
                let vid = VideoId(v);
                assert_eq!(scratch.replicas_of(vid), layout.replicas_of(vid));
            }
        }
        // A malformed previous map is rejected like `Layout::new` does.
        let scheme = ReplicationScheme::new(vec![1]).unwrap();
        let input = PlacementInput {
            scheme: &scheme,
            weights: &[1.0],
            n_servers: 2,
            capacities: &[1, 1],
        };
        let dup = [vec![ServerId(1), ServerId(1)]];
        assert!(matches!(
            IncrementalPlacement::place_into(&dup, &input, &mut scratch),
            Err(ModelError::DuplicateServer { .. })
        ));
    }

    /// A random previous layout plus a new scheme, weights and slot
    /// capacities. `exact` shrinks capacities to exactly the new total
    /// (the exact-fill regime where the swap repair fires); zero
    /// capacities model down servers; `integral` draws whole-number
    /// weights, so load ties are common.
    fn random_case(
        n: usize,
        m: usize,
        exact: bool,
        integral: bool,
        seed: u64,
    ) -> (Layout, Vec<u32>, Vec<f64>, Vec<u64>) {
        // xorshift64: the whole case derives from one proptest draw.
        let mut x = seed | 1;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let assignments: Vec<Vec<ServerId>> = (0..m)
            .map(|_| {
                // A partial Fisher–Yates shuffle picks r distinct servers.
                let r = 1 + next(n as u64) as usize;
                let mut servers: Vec<u32> = (0..n as u32).collect();
                for i in 0..r {
                    let k = i + next((n - i) as u64) as usize;
                    servers.swap(i, k);
                }
                servers[..r].iter().map(|&s| ServerId(s)).collect()
            })
            .collect();
        let counts: Vec<u32> = (0..m).map(|_| 1 + next(n.min(4) as u64) as u32).collect();
        let weights: Vec<f64> = (0..m)
            .map(|_| {
                if integral {
                    next(4) as f64
                } else {
                    next(1 << 20) as f64 / 1024.0 + 0.001
                }
            })
            .collect();
        let mut caps: Vec<u64> = (0..n)
            .map(|_| {
                if next(5) == 0 {
                    0
                } else {
                    next(2 * m as u64 + 2)
                }
            })
            .collect();
        if exact {
            // Trim the largest capacities until the total is the new
            // replica count; pad the last one if short.
            let total: u64 = counts.iter().map(|&c| c as u64).sum();
            let mut have: u64 = caps.iter().sum();
            while have > total {
                let j = (0..n).max_by_key(|&j| (caps[j], j)).unwrap();
                caps[j] -= 1;
                have -= 1;
            }
            caps[n - 1] += total - have;
        }
        (Layout::new(n, assignments).unwrap(), counts, weights, caps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat-buffer, ordered-index implementation returns the
        /// oracle's exact result: the same `Layout` (server order
        /// included) or the same error.
        #[test]
        fn rewrite_matches_oracle(
            n in 2usize..=7,
            m in 1usize..=20,
            exact in any::<bool>(),
            integral in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (old, counts, weights, caps) = random_case(n, m, exact, integral, seed);
            let scheme = ReplicationScheme::new(counts).unwrap();
            let input = PlacementInput {
                scheme: &scheme,
                weights: &weights,
                n_servers: old.n_servers(),
                capacities: &caps,
            };
            let expected = oracle::place(&old, &input);
            let got = IncrementalPlacement::from_previous(old.clone()).place(&input);
            prop_assert_eq!(&got, &expected);
            let mut scratch = IncrementalScratch::default();
            let into = IncrementalPlacement::place_into(old.assignments(), &input, &mut scratch);
            prop_assert_eq!(into.is_ok(), expected.is_ok());
            if let Ok(layout) = expected {
                for v in 0..layout.n_videos() {
                    let vid = VideoId(v as u32);
                    prop_assert_eq!(scratch.replicas_of(vid), layout.replicas_of(vid));
                }
            }
        }
    }
}
