//! The metered replica-actuation layer shared by the failure-repair
//! policy and the online replication controller.
//!
//! [`ReplicaActuator`] owns the *live* content map — which servers hold
//! a servable replica of each video — together with every mechanism
//! that changes it at run time: metered inter-server copies (bandwidth
//! reserved on the source *and* destination links, and on the shared
//! backbone pool under [`crate::AdmissionPolicy::BackboneRedirect`]),
//! up-front storage reservations so Eq. 4 holds throughout, incremental
//! destination planning, deterministic pumping of pending copies, and
//! surplus retirement.
//!
//! Two policy layers drive it and therefore *compete for the same
//! repair-bandwidth budget*:
//!
//! * the failure-repair hooks ([`Self::on_failure`] /
//!   [`Self::on_recovery`] / [`Self::on_brownout`], historically the
//!   `RepairController` that lived in [`crate::repair`]) restore the
//!   per-video `targets` after outages;
//! * the online controller ([`crate::controller`]) *moves* the targets
//!   themselves ([`Self::set_target`]) as observed popularity drifts,
//!   then fills deficits ([`Self::request_fill`] + [`Self::pump`]) and
//!   retires the surplus of cooled videos ([`Self::retire_to_target`]).
//!
//! Completed copies are attributed to one of the two policies by
//! [`CopyPurpose`]: a copy that restores a video to (at most) the bound
//! layout's original degree is `Repair`; a copy that grows it beyond
//! that baseline is `Rebalance`. With the online controller disabled,
//! targets never leave the baseline, so every copy is `Repair` and the
//! actuator is behaviorally identical to the pre-split
//! `RepairController`.
//!
//! The actuator also integrates the redundancy robustness metrics over
//! simulated time: minutes in which *any* video sat below its current
//! replication target and video·minutes with *zero* servable replicas.

use crate::dispatch::Dispatcher;
use crate::repair::RepairConfig;
use crate::server::LinkState;
use crate::time::SimTime;
use std::collections::BTreeSet;
use vod_model::{Catalog, ClusterSpec, Layout, ModelError, ReplicationScheme, ServerId, VideoId};
use vod_placement::traits::PlacementInput;
use vod_placement::{IncrementalPlacement, IncrementalScratch};

/// Which policy layer a completed copy is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyPurpose {
    /// Restoring redundancy the bound layout already had (failure
    /// repair).
    Repair,
    /// Growing a video beyond its original degree (online replication
    /// controller).
    Rebalance,
}

/// One in-flight replica copy (or coded-fragment reconstruction).
#[derive(Debug, Clone)]
struct ActiveCopy {
    video: VideoId,
    src: ServerId,
    dst: ServerId,
    kbps: u64,
    bytes: u64,
    /// Backbone bandwidth actually charged (0 unless the policy models a
    /// backbone).
    backbone_kbps: u64,
    done_at: SimTime,
    seq: u64,
    purpose: CopyPurpose,
    /// Additional read sources of a coded reconstruction: rebuilding one
    /// fragment reads `k` surviving fragments, so `k - 1` extra sources
    /// each hold a `kbps` repair reservation for the copy's duration —
    /// the k× repair-read amplification. Empty for replicated copies.
    extra_srcs: Vec<ServerId>,
}

/// Run-time replica tracker, transfer scheduler and retirement engine.
///
/// Owns the *live* content map: which servers hold a servable replica of
/// each video (the bound [`Layout`] is the initial state; completed
/// copies append to it). Data on a down server is not lost — it becomes
/// servable again on recovery — but it does not count toward redundancy
/// while the server is down.
#[derive(Debug)]
pub(crate) struct ReplicaActuator {
    config: RepairConfig,
    n_servers: usize,
    /// Servers holding a full replica (servable when up), per video, in
    /// round-robin dispatch order; copied replicas append at the end.
    holders: Vec<Vec<ServerId>>,
    /// The inverse of `holders`: the videos each server holds, in
    /// ascending id order — so the failure and recovery hooks visit a
    /// server's videos in the same order a scan over all videos would.
    held_by: Vec<Vec<u32>>,
    /// Current desired replica count per video. Initially the bound
    /// layout's degrees; the online controller moves these at run time.
    targets: Vec<u32>,
    video_bytes: Vec<u64>,
    /// Largest per-holder byte size (at least 1): the replica-slot unit.
    max_bytes: u64,
    /// Whether every video stores the same bytes per holder.
    uniform_bytes: bool,
    /// Per-server stored bytes, *including* reservations of in-flight
    /// copies (reserved at copy start so concurrent copies cannot
    /// oversubscribe storage — Eq. 4 holds throughout).
    used_bytes: Vec<u64>,
    capacity_bytes: Vec<u64>,
    up: Vec<bool>,
    /// Number of currently-down servers.
    down_count: u32,
    /// Servable replicas (or fragments) on up servers, per video.
    alive: Vec<u32>,
    /// Live holders needed to serve each video: 1 for replicated, `k`
    /// for a coded stripe (also the fan-in of a reconstruction).
    min_live: Vec<u32>,
    /// Whether any video is coded (false keeps every hot path on the
    /// exact replicated code, preserving byte-identical reports).
    any_coded: bool,
    /// Rack of each server (`u32::MAX` = unracked; empty = no rack
    /// model). Coded repair destinations respect the per-rack fragment
    /// bound `⌈(k+m) / n_racks⌉`.
    rack_of: Vec<u32>,
    /// Racks in `rack_of` (highest rack id + 1; 0 = no rack bound).
    n_racks: usize,
    /// In-flight copies per video.
    in_flight: Vec<u32>,
    /// Videos that may need a copy (lazily re-checked at pump time).
    pending: BTreeSet<u32>,
    /// Planned destinations for new copies, refreshed on every topology
    /// or target change; empty entries fall back to a greedy choice.
    planned: Vec<Vec<ServerId>>,
    copies: Vec<ActiveCopy>,
    seq: u64,
    // Scratch reused across calls, so pumping and replanning allocate
    // nothing once grown.
    pump_vids: Vec<u32>,
    pump_srcs: Vec<ServerId>,
    replan_weights: Vec<f64>,
    replan_caps: Vec<u64>,
    placement: IncrementalScratch,
    // Metrics.
    bytes_copied: u64,
    copies_completed: u64,
    drift_bytes_copied: u64,
    drift_copies_completed: u64,
    deficit_videos: u32,
    unavailable_videos: u32,
    /// Fractional per-video deficit weights: a replicated video below
    /// target weighs 1, a coded video with `j` of its `m` parity margin
    /// lost weighs `j / m` (clamped to 1). `deficit_weight` is their sum
    /// — the integrand of `deficit_video_min`. For all-replicated runs
    /// every weight is exactly 0.0 or 1.0, so the f64 sum equals the
    /// old `deficit_videos as f64` bit for bit.
    weight: Vec<f64>,
    deficit_weight: f64,
    coded_reconstructions: u64,
    coded_bytes_read: u64,
    last_update_min: f64,
    deficit_min: f64,
    deficit_video_min: f64,
    unavailability_video_min: f64,
}

impl ReplicaActuator {
    pub fn new(
        catalog: &Catalog,
        cluster: &ClusterSpec,
        layout: &Layout,
        config: RepairConfig,
    ) -> Self {
        let n = cluster.len();
        let m = layout.n_videos();
        let holders: Vec<Vec<ServerId>> = layout.assignments().to_vec();
        // Coded videos store one fragment (`⌈bytes / k⌉`) per holder, not
        // a full replica — every storage computation below inherits this.
        let video_bytes: Vec<u64> = catalog
            .videos()
            .iter()
            .enumerate()
            .map(|(v, vid)| {
                layout
                    .scheme_of(VideoId(v as u32))
                    .stored_bytes(vid.storage_bytes())
            })
            .collect();
        let min_live: Vec<u32> = (0..m)
            .map(|v| layout.scheme_of(VideoId(v as u32)).min_live())
            .collect();
        let any_coded = layout.any_coded();
        let mut used_bytes = vec![0u64; n];
        let mut held_by = vec![Vec::new(); n];
        for (v, servers) in holders.iter().enumerate() {
            for &s in servers {
                used_bytes[s.index()] += video_bytes[v];
                held_by[s.index()].push(v as u32);
            }
        }
        ReplicaActuator {
            config,
            n_servers: n,
            targets: holders.iter().map(|h| h.len() as u32).collect(),
            alive: holders.iter().map(|h| h.len() as u32).collect(),
            holders,
            held_by,
            max_bytes: video_bytes.iter().copied().max().unwrap_or(1).max(1),
            uniform_bytes: video_bytes.windows(2).all(|w| w[0] == w[1]),
            video_bytes,
            min_live,
            any_coded,
            rack_of: Vec::new(),
            n_racks: 0,
            used_bytes,
            capacity_bytes: cluster.servers().iter().map(|s| s.storage_bytes).collect(),
            up: vec![true; n],
            down_count: 0,
            in_flight: vec![0; m],
            pending: BTreeSet::new(),
            planned: vec![Vec::new(); m],
            copies: Vec::new(),
            seq: 0,
            pump_vids: Vec::new(),
            pump_srcs: Vec::new(),
            replan_weights: Vec::new(),
            replan_caps: Vec::new(),
            placement: IncrementalScratch::default(),
            bytes_copied: 0,
            copies_completed: 0,
            drift_bytes_copied: 0,
            drift_copies_completed: 0,
            deficit_videos: 0,
            unavailable_videos: 0,
            weight: vec![0.0; m],
            deficit_weight: 0.0,
            coded_reconstructions: 0,
            coded_bytes_read: 0,
            last_update_min: 0.0,
            deficit_min: 0.0,
            deficit_video_min: 0.0,
            unavailability_video_min: 0.0,
        }
    }

    /// Current servable holders of `video` (dispatch order). Identical to
    /// the bound layout until a copy completes or a replica is retired.
    #[inline]
    pub fn holders(&self, video: VideoId) -> &[ServerId] {
        &self.holders[video.index()]
    }

    /// The whole live content map, indexed by video (dispatch order per
    /// entry) — what the placement auditor checks anti-affinity against.
    pub fn holders_all(&self) -> &[Vec<ServerId>] {
        &self.holders
    }

    /// Installs the rack map coded repair destinations are bounded by:
    /// `rack_of[j]` is server `j`'s rack, `u32::MAX` marks an unracked
    /// server. An empty map (the default) disables the rack bound.
    pub fn set_rack_map(&mut self, rack_of: Vec<u32>) {
        self.n_racks = rack_of
            .iter()
            .filter(|&&x| x != u32::MAX)
            .max()
            .map_or(0, |&x| x as usize + 1);
        self.rack_of = rack_of;
    }

    /// Coded fragment reconstructions completed.
    pub fn coded_reconstructions(&self) -> u64 {
        self.coded_reconstructions
    }

    /// Bytes read from surviving fragments by completed reconstructions —
    /// `k ×` the fragment bytes written, the repair-read amplification.
    pub fn coded_bytes_read(&self) -> u64 {
        self.coded_bytes_read
    }

    /// Number of servers in the bound cluster.
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// The current replication target of video `v`.
    pub fn target(&self, v: usize) -> u32 {
        self.targets[v]
    }

    /// Total replica slots the current targets claim — what the
    /// controller subtracts from [`Self::slot_budget`] to know how many
    /// raises it can fund without demoting anyone.
    pub fn target_slots(&self) -> u64 {
        self.targets.iter().map(|&t| t as u64).sum()
    }

    /// Whether any server is currently down (failure repair may be
    /// claiming the copy-bandwidth budget).
    pub fn any_down(&self) -> bool {
        self.down_count > 0
    }

    /// In-flight copies attributed to failure repair.
    pub fn repair_copies_in_flight(&self) -> usize {
        self.copies
            .iter()
            .filter(|c| c.purpose == CopyPurpose::Repair)
            .count()
    }

    /// Cluster-wide replica-slot budget: how many replicas of the
    /// *largest* video the cluster's total storage can hold. The online
    /// controller apportions targets under this Eq. 4 budget; per-server
    /// feasibility is enforced again at copy-start time.
    pub fn slot_budget(&self) -> u64 {
        self.capacity_bytes
            .iter()
            .map(|&c| c / self.max_bytes)
            .sum()
    }

    /// Bytes successfully copied on behalf of the online controller.
    pub fn drift_bytes_copied(&self) -> u64 {
        self.drift_bytes_copied
    }

    /// Copies completed on behalf of the online controller.
    pub fn drift_copies_completed(&self) -> u64 {
        self.drift_copies_completed
    }

    /// Advances the metric integrals to `now_min`.
    fn integrate(&mut self, now_min: f64) {
        let dt = (now_min - self.last_update_min).max(0.0);
        if self.deficit_videos > 0 {
            self.deficit_min += dt;
        }
        self.deficit_video_min += dt * self.deficit_weight;
        self.unavailability_video_min += dt * self.unavailable_videos as f64;
        self.last_update_min = now_min;
    }

    /// Recomputes video `v`'s fractional deficit weight after an alive-
    /// or target-count change. A replicated video weighs exactly 0.0 or
    /// 1.0 (so all-replicated runs integrate the same f64 sequence as
    /// the pre-coded integer counter); a coded video that lost `j` of
    /// its `m = target - k` parity fragments weighs `j / m`, clamping to
    /// 1 once losses dip into data fragments.
    fn refresh_weight(&mut self, v: usize) {
        let (target, alive, min_live) = (self.targets[v], self.alive[v], self.min_live[v]);
        let w = if min_live > 1 {
            let margin = target.saturating_sub(min_live).max(1);
            let lost = target.saturating_sub(alive);
            (lost as f64 / margin as f64).min(1.0)
        } else if alive < target {
            1.0
        } else {
            0.0
        };
        self.deficit_weight += w - self.weight[v];
        self.weight[v] = w;
    }

    /// Applies an alive-count delta, maintaining the deficit and
    /// unavailability counters (call [`Self::integrate`] first).
    fn bump_alive(&mut self, v: usize, delta: i64) {
        let before = self.alive[v];
        let after = (before as i64 + delta) as u32;
        self.alive[v] = after;
        let target = self.targets[v];
        match (before < target, after < target) {
            (false, true) => self.deficit_videos += 1,
            (true, false) => self.deficit_videos -= 1,
            _ => {}
        }
        // A coded video is unavailable below `k` live fragments; a
        // replicated one below its single-copy floor (the old `== 0`).
        let min_live = self.min_live[v];
        match (before < min_live, after < min_live) {
            (false, true) => self.unavailable_videos += 1,
            (true, false) => self.unavailable_videos -= 1,
            _ => {}
        }
        self.refresh_weight(v);
    }

    /// Moves video `v`'s replication target to `target`, keeping the
    /// deficit integral consistent. The caller is responsible for
    /// queueing a fill ([`Self::request_fill`]) after a raise and for
    /// retiring surplus ([`Self::retire_to_target`]) after a lowering.
    pub fn set_target(&mut self, now_min: f64, v: usize, target: u32) {
        self.integrate(now_min);
        let old = self.targets[v];
        if old == target {
            return;
        }
        let alive = self.alive[v];
        match (alive < old, alive < target) {
            (false, true) => self.deficit_videos += 1,
            (true, false) => self.deficit_videos -= 1,
            _ => {}
        }
        self.targets[v] = target;
        self.refresh_weight(v);
    }

    /// Marks video `v` as possibly needing copies; the next
    /// [`Self::pump`] re-checks its deficit.
    pub fn request_fill(&mut self, v: usize) {
        self.pending.insert(v as u32);
    }

    /// Server-down hook. Call *after* [`LinkState::fail`]: updates alive
    /// counts, aborts copies touching the dead server (their partial data
    /// is discarded, their reservations released, the videos re-queued),
    /// re-plans destinations, and pumps.
    pub fn on_failure(
        &mut self,
        at: SimTime,
        server: ServerId,
        weights: &[u64],
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) {
        self.integrate(at.as_min());
        if self.up[server.index()] {
            self.up[server.index()] = false;
            self.down_count += 1;
        }
        self.abort_copies_touching(server, links, dispatcher);
        for i in 0..self.held_by[server.index()].len() {
            let v = self.held_by[server.index()][i] as usize;
            self.bump_alive(v, -1);
            if self.alive[v] < self.targets[v] {
                self.pending.insert(v as u32);
            }
        }
        self.replan(weights);
        self.pump(at, links, dispatcher);
    }

    /// Server-up hook. Call *after* [`LinkState::recover`]: the server's
    /// stored replicas become servable again, and its fresh link may
    /// unblock stalled copies. Videos its return pushes *above* target
    /// shed their surplus — in-flight copies are aborted and servable
    /// extras retired — so spare storage and copy bandwidth recycle
    /// toward the next deficit instead of accreting forever.
    pub fn on_recovery(
        &mut self,
        at: SimTime,
        server: ServerId,
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) {
        self.integrate(at.as_min());
        if !self.up[server.index()] {
            self.up[server.index()] = true;
            self.down_count -= 1;
        }
        for i in 0..self.held_by[server.index()].len() {
            let v = self.held_by[server.index()][i] as usize;
            self.bump_alive(v, 1);
        }
        let mut i = 0;
        while i < self.copies.len() {
            let v = self.copies[i].video.index();
            if self.alive[v] >= self.targets[v] {
                let c = self.copies.remove(i);
                Self::release_copy(&c, links, dispatcher);
                self.used_bytes[c.dst.index()] -= c.bytes;
                self.in_flight[v] -= 1;
            } else {
                i += 1;
            }
        }
        for v in 0..self.holders.len() {
            self.retire_surplus(v);
        }
        self.pump(at, links, dispatcher);
    }

    /// Retires servable copies of `v` beyond its current target and
    /// returns how many were removed. Only copies past the target-sized
    /// prefix of the holder list are eligible, so under a stationary
    /// target only repair-added copies are ever retired; when the online
    /// controller *lowers* a target the prefix shrinks with it and
    /// original-layout replicas of the cooled video become retirable
    /// too. Freed storage becomes available to future copies.
    fn retire_surplus(&mut self, v: usize) -> u32 {
        let prefix = self.targets[v] as usize;
        let mut retired = 0;
        while self.alive[v] > self.targets[v] {
            let Some(pos) =
                (prefix..self.holders[v].len()).find(|&i| self.up[self.holders[v][i].index()])
            else {
                break;
            };
            let s = self.holders[v].remove(pos);
            let held = &mut self.held_by[s.index()];
            if let Ok(at) = held.binary_search(&(v as u32)) {
                held.remove(at);
            }
            self.used_bytes[s.index()] -= self.video_bytes[v];
            self.bump_alive(v, -1);
            retired += 1;
        }
        retired
    }

    /// Public face of [`Self::retire_surplus`] for the online
    /// controller: call after lowering a target with
    /// [`Self::set_target`]. Returns the number of replicas retired.
    pub fn retire_to_target(&mut self, v: usize) -> u32 {
        self.retire_surplus(v)
    }

    /// Releases every reservation an aborted or completed copy holds:
    /// repair bandwidth on the source, the destination, and — for a
    /// coded reconstruction — each extra read source, plus any backbone
    /// charge.
    fn release_copy(c: &ActiveCopy, links: &mut LinkState, dispatcher: &mut Dispatcher) {
        links.release_repair(c.src, c.kbps);
        for &s in &c.extra_srcs {
            links.release_repair(s, c.kbps);
        }
        links.release_repair(c.dst, c.kbps);
        if c.backbone_kbps > 0 {
            dispatcher.release_backbone(c.backbone_kbps);
        }
    }

    fn abort_copies_touching(
        &mut self,
        server: ServerId,
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) {
        let mut i = 0;
        while i < self.copies.len() {
            let touches = {
                let c = &self.copies[i];
                c.src == server || c.dst == server || c.extra_srcs.contains(&server)
            };
            if touches {
                let c = self.copies.remove(i);
                // `release_repair` is a no-op on the endpoint that just
                // failed (its reservations were cleared by `fail()`).
                Self::release_copy(&c, links, dispatcher);
                self.used_bytes[c.dst.index()] -= c.bytes;
                self.in_flight[c.video.index()] -= 1;
                self.pending.insert(c.video.0);
            } else {
                i += 1;
            }
        }
    }

    /// Recomputes planned destinations for new copies with the
    /// incremental-placement policy: previous = the full content map,
    /// down servers get zero slot capacity (their replicas are re-placed
    /// on survivors), and per-video weights are the caller's demand
    /// estimate (+1 so cold titles still place). On any placement error
    /// the plan stays empty and the pump falls back to a greedy choice.
    /// The placement runs on the live content map in place, in
    /// actuator-owned scratch, so a replan copies no layout.
    pub fn replan(&mut self, weights: &[u64]) {
        for p in &mut self.planned {
            p.clear();
        }
        if !self.config.enabled() {
            return;
        }
        let m = self.holders.len();
        let counts: Vec<u32> = (0..m)
            .map(|v| self.targets[v].max(self.holders[v].len() as u32))
            .collect();
        let Ok(scheme) = ReplicationScheme::new(counts) else {
            return;
        };
        self.replan_weights.clear();
        self.replan_weights
            .extend((0..m).map(|v| weights.get(v).copied().unwrap_or(0) as f64 + 1.0));
        self.replan_caps.clear();
        for j in 0..self.n_servers {
            let cap = if !self.up[j] {
                // No additions on a dead server; its kept content is
                // dropped by the keep phase and re-placed elsewhere.
                0
            } else if self.uniform_bytes {
                self.capacity_bytes[j] / self.max_bytes
            } else {
                let held = &self.held_by[j];
                let held_bytes: u64 = held.iter().map(|&v| self.video_bytes[v as usize]).sum();
                held.len() as u64
                    + self.capacity_bytes[j].saturating_sub(held_bytes) / self.max_bytes
            };
            self.replan_caps.push(cap);
        }
        let input = PlacementInput {
            scheme: &scheme,
            weights: &self.replan_weights,
            n_servers: self.n_servers,
            capacities: &self.replan_caps,
        };
        if IncrementalPlacement::place_into(&self.holders, &input, &mut self.placement).is_ok() {
            for (v, (planned, holders)) in self.planned.iter_mut().zip(&self.holders).enumerate() {
                planned.extend(
                    self.placement
                        .replicas_of(VideoId(v as u32))
                        .iter()
                        .copied()
                        .filter(|s| !holders.contains(s)),
                );
            }
        }
    }

    /// True when `dst` can receive a new replica of video `v` right now.
    fn dst_ok(&self, v: usize, dst: ServerId, bw: u64, links: &LinkState) -> bool {
        let j = dst.index();
        self.up[j]
            && links.free_kbps(dst) >= bw
            && !self.holders[v].contains(&dst)
            && self
                .copies
                .iter()
                .all(|c| !(c.video.index() == v && c.dst == dst))
            && self.used_bytes[j] + self.video_bytes[v] <= self.capacity_bytes[j]
            && self.rack_fits(v, dst)
    }

    /// Rack anti-affinity for coded stripes: placing a fragment of `v`
    /// on `dst` must keep `dst`'s rack at or below
    /// `⌈(k+m) / n_racks⌉` *live-or-pending* fragments (down holders do
    /// not count — their rack slot is exactly where the replacement may
    /// go, and recovery retires the surplus). Replicated videos and
    /// rackless clusters are unconstrained.
    fn rack_fits(&self, v: usize, dst: ServerId) -> bool {
        if self.min_live[v] <= 1 || self.rack_of.is_empty() {
            return true;
        }
        let Some(&r) = self.rack_of.get(dst.index()) else {
            return true;
        };
        if r == u32::MAX {
            return true;
        }
        if self.n_racks == 0 {
            return true;
        }
        let cap = (self.targets[v] as usize).div_ceil(self.n_racks) as u32;
        let mut in_rack = 0u32;
        for &h in &self.holders[v] {
            if self.up[h.index()] && self.rack_of.get(h.index()) == Some(&r) {
                in_rack += 1;
            }
        }
        for c in &self.copies {
            if c.video.index() == v && self.rack_of.get(c.dst.index()) == Some(&r) {
                in_rack += 1;
            }
        }
        in_rack < cap
    }

    /// Destination for the next copy of `v`: the incremental plan's pick
    /// when still valid, else greedily the least-full (by stored bytes)
    /// eligible server.
    fn choose_dst(&self, v: usize, bw: u64, links: &LinkState) -> Option<ServerId> {
        if let Some(&dst) = self.planned[v]
            .iter()
            .find(|&&d| self.dst_ok(v, d, bw, links))
        {
            return Some(dst);
        }
        (0..self.n_servers)
            .map(|j| ServerId(j as u32))
            .filter(|&d| self.dst_ok(v, d, bw, links))
            .min_by_key(|&d| (self.used_bytes[d.index()], d))
    }

    /// Starts as many pending copies as bandwidth, storage and the
    /// concurrency cap allow. Deterministic: videos in ascending id
    /// order, sources by most free link (ties to the lowest id). A copy
    /// restoring a video to (at most) its original layout degree is
    /// attributed to failure repair; one growing it past that baseline
    /// to the online controller.
    ///
    /// The engine calls this after every departure, and nearly every
    /// such call finds the copy slots full: at the concurrency cap it
    /// returns before touching `pending`, and below the cap the video
    /// and source lists live in actuator-owned scratch.
    pub fn pump(&mut self, now: SimTime, links: &mut LinkState, dispatcher: &mut Dispatcher) {
        if !self.config.enabled()
            || self.pending.is_empty()
            || self.copies.len() >= self.config.max_concurrent
        {
            return;
        }
        let mut vids = std::mem::take(&mut self.pump_vids);
        let mut srcs = std::mem::take(&mut self.pump_srcs);
        vids.clear();
        vids.extend(self.pending.iter().copied());
        if self.any_coded {
            // Most-urgent-first: the stripe with the fewest surviving
            // fragments above its serviceability floor repairs first
            // (ties to the lowest video id). All-replicated runs keep the
            // plain ascending order, byte for byte.
            vids.sort_unstable_by_key(|&vid| {
                let v = vid as usize;
                (self.alive[v] as i64 - self.min_live[v] as i64, vid)
            });
        }
        self.start_copies(&vids, &mut srcs, now, links, dispatcher);
        self.pump_vids = vids;
        self.pump_srcs = srcs;
    }

    /// The body of [`Self::pump`]: walks `vids` in order, starting copies
    /// until the cap, the backbone or the candidates run out. `srcs` is
    /// scratch for one copy's read sources.
    fn start_copies(
        &mut self,
        vids: &[u32],
        srcs: &mut Vec<ServerId>,
        now: SimTime,
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) {
        let bw = self.config.bandwidth_kbps;
        for &vid in vids {
            if self.copies.len() >= self.config.max_concurrent {
                return;
            }
            let v = vid as usize;
            let need = self.targets[v] as i64 - self.alive[v] as i64 - self.in_flight[v] as i64;
            if need <= 0 {
                if self.in_flight[v] == 0 {
                    self.pending.remove(&vid);
                }
                continue;
            }
            for _ in 0..need {
                if self.copies.len() >= self.config.max_concurrent {
                    return;
                }
                // A coded reconstruction reads `k` surviving fragments at
                // once; a replicated copy reads a single source. Sources
                // rank by most free link, ties to the lowest id —
                // identical to the old `max_by_key` pick at fan-in 1.
                let fan_in = self.min_live[v] as usize;
                srcs.clear();
                srcs.extend(
                    self.holders[v]
                        .iter()
                        .copied()
                        .filter(|&s| links.is_up(s) && links.free_kbps(s) >= bw),
                );
                srcs.sort_unstable_by_key(|&s| (std::cmp::Reverse(links.free_kbps(s)), s));
                if srcs.len() < fan_in {
                    // Fewer than `k` servable fragments: reconstruction
                    // is impossible until a holder recovers.
                    break;
                }
                let src = srcs[0];
                let Some(dst) = self.choose_dst(v, bw, links) else {
                    break;
                };
                // Under a backbone policy the inter-server copy transits
                // the backbone; elsewhere it is charged nowhere extra.
                let Some(backbone_kbps) = dispatcher.try_reserve_repair_backbone(bw) else {
                    // Backbone saturated: nothing else can start either.
                    return;
                };
                // Only a coded reconstruction (fan-in k > 1) allocates,
                // once per copy it starts, for its k - 1 extra sources.
                let extra_srcs: Vec<ServerId> = srcs[1..fan_in].to_vec();
                // Cause-based attribution: the copy is failure *repair*
                // only when this video currently has a failed holder —
                // that is the only way a replica is ever lost. Anything
                // else (a controller raise, a demote-then-repromote
                // refill) is drift rebalancing. With the controller off,
                // targets equal the layout's degrees and a deficit
                // implies a down holder, so every copy stays Repair —
                // the pre-controller accounting, byte for byte.
                let has_down_holder = self.holders[v].iter().any(|&s| !self.up[s.index()]);
                let purpose = if has_down_holder && self.alive[v] < self.targets[v] {
                    CopyPurpose::Repair
                } else {
                    CopyPurpose::Rebalance
                };
                links.reserve_repair(src, bw);
                for &s in &extra_srcs {
                    links.reserve_repair(s, bw);
                }
                links.reserve_repair(dst, bw);
                self.used_bytes[dst.index()] += self.video_bytes[v];
                self.in_flight[v] += 1;
                let dur_ms = (self.video_bytes[v].saturating_mul(8)).div_ceil(bw).max(1);
                self.copies.push(ActiveCopy {
                    video: VideoId(vid),
                    src,
                    dst,
                    kbps: bw,
                    bytes: self.video_bytes[v],
                    backbone_kbps,
                    done_at: SimTime(now.ticks() + dur_ms),
                    seq: self.seq,
                    purpose,
                    extra_srcs,
                });
                self.seq += 1;
            }
        }
    }

    /// The earliest in-flight copy completion, if any.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.copies.iter().map(|c| c.done_at).min()
    }

    /// Completes the earliest due copy: releases its bandwidth, makes the
    /// replica servable, and updates redundancy accounting. Errors when
    /// no copy is in flight (the engine only calls this when
    /// [`Self::next_completion`] reported one).
    pub fn complete_next(
        &mut self,
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) -> Result<(), ModelError> {
        let idx = self
            .copies
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.done_at, c.seq))
            .map(|(i, _)| i)
            .ok_or(ModelError::Internal {
                context: "complete_next called with no in-flight copies",
            })?;
        let c = self.copies.remove(idx);
        Self::release_copy(&c, links, dispatcher);
        self.integrate(c.done_at.as_min());
        // The reservation made at copy start now backs a real replica.
        self.holders[c.video.index()].push(c.dst);
        let held = &mut self.held_by[c.dst.index()];
        if let Err(at) = held.binary_search(&c.video.0) {
            held.insert(at, c.video.0);
        }
        self.in_flight[c.video.index()] -= 1;
        self.bump_alive(c.video.index(), 1);
        let fan_in = self.min_live[c.video.index()] as u64;
        if fan_in > 1 {
            // Rebuilding the fragment read `k` surviving fragments for
            // the fragment it wrote: the k× repair-read amplification.
            self.coded_reconstructions += 1;
            self.coded_bytes_read += c.bytes * fan_in;
        }
        match c.purpose {
            CopyPurpose::Repair => {
                self.bytes_copied += c.bytes;
                self.copies_completed += 1;
            }
            CopyPurpose::Rebalance => {
                self.drift_bytes_copied += c.bytes;
                self.drift_copies_completed += 1;
            }
        }
        // A recovery may have raced this copy past its target.
        self.retire_surplus(c.video.index());
        self.pump(c.done_at, links, dispatcher);
        Ok(())
    }

    /// Brownout hook: while `server` is committed beyond its shrunken
    /// effective capacity, abort copies touching it — farthest-from-done
    /// first, so the least sunk work is discarded. Aborted videos
    /// re-queue and re-pump once capacity returns. The engine sheds
    /// active streams only for the excess that remains.
    pub fn on_brownout(
        &mut self,
        at: SimTime,
        server: ServerId,
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) {
        self.integrate(at.as_min());
        let j = server.index();
        while links.used_kbps()[j] + links.repair_kbps()[j] > links.effective_capacity_kbps(server)
        {
            let Some(i) = self
                .copies
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    c.src == server || c.dst == server || c.extra_srcs.contains(&server)
                })
                .max_by_key(|(_, c)| (c.done_at, c.seq))
                .map(|(i, _)| i)
            else {
                break;
            };
            let c = self.copies.remove(i);
            Self::release_copy(&c, links, dispatcher);
            self.used_bytes[c.dst.index()] -= c.bytes;
            self.in_flight[c.video.index()] -= 1;
            self.pending.insert(c.video.0);
        }
    }

    /// End of run: aborts in-flight copies (releasing every reservation,
    /// so the engine's zero-residual asserts hold) and closes the metric
    /// integrals at the horizon.
    pub fn finish(&mut self, horizon_min: f64, links: &mut LinkState, dispatcher: &mut Dispatcher) {
        self.integrate(horizon_min.max(self.last_update_min));
        for c in std::mem::take(&mut self.copies) {
            Self::release_copy(&c, links, dispatcher);
            self.used_bytes[c.dst.index()] -= c.bytes;
            self.in_flight[c.video.index()] -= 1;
        }
    }

    /// Bytes of replica data successfully copied by failure repair.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Failure-repair copies completed (replicas added).
    pub fn copies_completed(&self) -> u64 {
        self.copies_completed
    }

    /// Minutes during which at least one video was below its replication
    /// target — the time to full redundancy, summed over every deficit
    /// window of the run. Under popularity-skewed replication this union
    /// is pinned by the single-replica cold tail (unrepairable while
    /// their server is down); [`Self::deficit_video_min`] is the
    /// discriminating integral. With the online controller active the
    /// integral also covers windows opened by *raised* targets awaiting
    /// their copies.
    pub fn deficit_min(&self) -> f64 {
        self.deficit_min
    }

    /// Video·minutes below replication target — the replica-deficit
    /// integral copying actually drains (each completed copy removes one
    /// video from the deficit for the remainder of the window).
    pub fn deficit_video_min(&self) -> f64 {
        self.deficit_video_min
    }

    /// Video·minutes with zero servable replicas.
    pub fn unavailability_video_min(&self) -> f64 {
        self.unavailability_video_min
    }

    /// Test/debug invariant: per-server stored bytes (including in-flight
    /// reservations) within capacity, and no video with two replicas on
    /// one server.
    #[cfg(test)]
    pub fn check_invariants(&self) {
        for j in 0..self.n_servers {
            assert!(
                self.used_bytes[j] <= self.capacity_bytes[j],
                "server {j} over storage: {} > {}",
                self.used_bytes[j],
                self.capacity_bytes[j]
            );
        }
        let mut down = 0;
        for (j, &up) in self.up.iter().enumerate() {
            if !up {
                down += 1;
            }
            let _ = j;
        }
        assert_eq!(down, self.down_count, "down_count out of sync");
        for (v, servers) in self.holders.iter().enumerate() {
            let alive_holders = servers.iter().filter(|s| self.up[s.index()]).count() as u32;
            assert_eq!(
                alive_holders, self.alive[v],
                "video {v}: alive count {} disagrees with up holders {alive_holders}",
                self.alive[v]
            );
            for (i, &s) in servers.iter().enumerate() {
                assert!(
                    !servers[..i].contains(&s),
                    "video {v} has two replicas on server {}",
                    s.index()
                );
            }
            for c in &self.copies {
                if c.video.index() == v {
                    assert!(
                        !servers.contains(&c.dst),
                        "in-flight copy of video {v} targets a holder"
                    );
                }
            }
        }
        let mut per_video = vec![0u32; self.holders.len()];
        for c in &self.copies {
            per_video[c.video.index()] += 1;
            // A coded reconstruction carries exactly k - 1 extra read
            // sources, all distinct from each other and from src/dst.
            let v = c.video.index();
            let fan_in = self.min_live[v] as usize;
            assert_eq!(
                c.extra_srcs.len(),
                fan_in.saturating_sub(1),
                "video {v}: reconstruction fan-in mismatch"
            );
            let mut ends = vec![c.src, c.dst];
            ends.extend_from_slice(&c.extra_srcs);
            ends.sort();
            for w in ends.windows(2) {
                assert_ne!(w[0], w[1], "video {v}: duplicate copy endpoint");
            }
        }
        assert_eq!(per_video, self.in_flight, "in-flight counters out of sync");
        for (j, held) in self.held_by.iter().enumerate() {
            let scan: Vec<u32> = (0..self.holders.len() as u32)
                .filter(|&v| self.holders[v as usize].contains(&ServerId(j as u32)))
                .collect();
            assert_eq!(held, &scan, "server {j}: held-by index out of sync");
        }
        let fresh: f64 = self.weight.iter().sum();
        assert!(
            (self.deficit_weight - fresh).abs() < 1e-9,
            "deficit weight {} drifted from per-video sum {fresh}",
            self.deficit_weight
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vod_model::redundancy::{RedundancyMap, RedundancyScheme};
    use vod_model::{BitRate, ServerSpec};
    use vod_placement::place_coded;

    fn world(
        n: usize,
        m: usize,
        degree: usize,
        storage_slots: u64,
    ) -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(m, BitRate::MPEG2, 600).unwrap();
        let bytes = catalog.videos()[0].storage_bytes();
        let cluster = ClusterSpec::homogeneous(
            n,
            ServerSpec {
                storage_bytes: storage_slots * bytes,
                bandwidth_kbps: 100_000,
            },
        )
        .unwrap();
        // Round-robin degree-`degree` layout.
        let assignments: Vec<Vec<ServerId>> = (0..m)
            .map(|v| {
                (0..degree)
                    .map(|r| ServerId(((v * degree + r) % n) as u32))
                    .collect()
            })
            .collect();
        let layout = Layout::new(n, assignments).unwrap();
        (catalog, cluster, layout)
    }

    fn enabled(bandwidth_kbps: u64) -> RepairConfig {
        RepairConfig {
            bandwidth_kbps,
            max_concurrent: 4,
        }
    }

    /// A uniformly `Coded { k, m }` world: fragments are `⌈bytes/k⌉`
    /// each, placed by [`place_coded`] over `racks`.
    fn coded_world(
        n: usize,
        m_videos: usize,
        k: u32,
        par: u32,
        storage_slots: u64,
        racks: &[Vec<ServerId>],
    ) -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(m_videos, BitRate::MPEG2, 600).unwrap();
        let frag = catalog.videos()[0].storage_bytes().div_ceil(k as u64);
        let cluster = ClusterSpec::homogeneous(
            n,
            ServerSpec {
                storage_bytes: storage_slots * frag,
                bandwidth_kbps: 100_000,
            },
        )
        .unwrap();
        let map = RedundancyMap::uniform(m_videos, RedundancyScheme::Coded { k, m: par }).unwrap();
        let layout = place_coded(n, racks, &map).unwrap();
        (catalog, cluster, layout)
    }

    #[test]
    fn failure_queues_and_repairs_deficit() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        assert!(c.next_completion().is_some(), "copies must start");
        assert!(links.repair_kbps().iter().any(|&k| k > 0));
        // Complete every copy; redundancy must be fully restored.
        while c.next_completion().is_some() {
            c.complete_next(&mut links, &mut disp).unwrap();
            c.check_invariants();
        }
        for v in 0..8 {
            assert!(
                c.alive[v] >= c.targets[v],
                "video {v}: alive {} < target {}",
                c.alive[v],
                c.targets[v]
            );
        }
        assert_eq!(c.deficit_videos, 0);
        assert!(c.bytes_copied() > 0);
        // Failure rebuilds restore baseline redundancy: Repair purpose.
        assert_eq!(c.drift_bytes_copied(), 0);
        assert_eq!(c.drift_copies_completed(), 0);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
    }

    #[test]
    fn disabled_repair_never_copies() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, RepairConfig::default());
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        assert!(c.next_completion().is_none());
        assert!(c.deficit_videos > 0);
        // The deficit integral still accrues without repair.
        c.finish(90.0, &mut links, &mut disp);
        assert!(c.deficit_min() > 0.0);
    }

    #[test]
    fn no_alive_source_stalls_until_recovery() {
        // Degree 1: the failed server held the only copy of its videos.
        let (catalog, cluster, layout) = world(2, 4, 1, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 4);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(5.0),
            ServerId(0),
            &[0; 4],
            &mut links,
            &mut disp,
        );
        // Videos on s0 have zero alive replicas and no source: no copy.
        assert!(c.next_completion().is_none());
        assert!(c.unavailable_videos > 0);
        assert!(c.any_down());
        links.recover(ServerId(0));
        c.on_recovery(SimTime::from_min(25.0), ServerId(0), &mut links, &mut disp);
        assert_eq!(c.unavailable_videos, 0);
        assert_eq!(c.deficit_videos, 0);
        assert!(!c.any_down());
        c.finish(90.0, &mut links, &mut disp);
        // 20 minutes, 2 videos were on s0 (m=4 over 2 servers at degree 1).
        assert!((c.unavailability_video_min() - 40.0).abs() < 1e-6);
        assert!((c.deficit_min() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn storage_reservation_blocks_oversubscription() {
        // Survivor has exactly one free slot: only one of the two lost
        // replicas can be rebuilt.
        let catalog = Catalog::fixed_rate(3, BitRate::MPEG2, 600).unwrap();
        let bytes = catalog.videos()[0].storage_bytes();
        let cluster_tight = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: 2 * bytes,
                bandwidth_kbps: 100_000,
            },
        )
        .unwrap();
        let layout = Layout::new(
            2,
            vec![vec![ServerId(0)], vec![ServerId(0)], vec![ServerId(1)]],
        )
        .unwrap();
        let mut links = LinkState::new(&cluster_tight);
        let mut disp = Dispatcher::new(Default::default(), 3);
        let mut c = ReplicaActuator::new(&catalog, &cluster_tight, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(1.0),
            ServerId(0),
            &[0; 3],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        // Both lost videos have no alive source (degree 1) — no copies.
        assert_eq!(c.copies.len(), 0);
    }

    #[test]
    fn recovery_retires_repair_added_surplus() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        let used_before = c.used_bytes.clone();
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        while c.next_completion().is_some() {
            c.complete_next(&mut links, &mut disp).unwrap();
        }
        assert!(c.bytes_copied() > 0);
        // The rebuilt copies occupy extra storage while s0 is down...
        assert!(c.used_bytes.iter().sum::<u64>() > used_before.iter().sum::<u64>());
        links.recover(ServerId(0));
        c.on_recovery(SimTime::from_min(30.0), ServerId(0), &mut links, &mut disp);
        c.check_invariants();
        // ...and are retired on its return: every video back at exactly
        // its target, all spare storage reclaimed.
        for v in 0..8 {
            assert_eq!(c.alive[v], c.targets[v]);
            assert_eq!(c.holders[v].len(), c.targets[v] as usize);
        }
        assert_eq!(c.used_bytes, used_before);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
    }

    #[test]
    fn recovery_aborts_unneeded_in_flight_copies() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        assert!(!c.copies.is_empty());
        assert!(c.repair_copies_in_flight() > 0);
        // The server comes back before any copy completes: every copy is
        // now pointless and must be aborted with its reservations freed.
        links.recover(ServerId(0));
        c.on_recovery(SimTime::from_min(10.5), ServerId(0), &mut links, &mut disp);
        c.check_invariants();
        assert!(c.copies.is_empty());
        assert_eq!(c.bytes_copied(), 0);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
        assert_eq!(c.in_flight.iter().sum::<u32>(), 0);
    }

    #[test]
    fn repair_bandwidth_cap_limits_concurrency() {
        // Source link 100 Mbps, repair bw 60 Mbps: only one copy can read
        // from a given survivor at a time.
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(60_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        for j in 0..4 {
            assert!(links.repair_kbps()[j] <= 100_000);
        }
        assert!(links.within_capacity());
    }

    #[test]
    fn source_failure_aborts_and_requeues() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        let in_flight_before: u32 = c.in_flight.iter().sum();
        assert!(in_flight_before > 0);
        // Fail one of the copy endpoints.
        let victim = c.copies[0].src;
        links.fail(victim);
        c.on_failure(
            SimTime::from_min(11.0),
            victim,
            &[0; 8],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        assert!(links.within_capacity());
        // No copy may still touch the dead server.
        assert!(c.copies.iter().all(|x| x.src != victim && x.dst != victim));
    }

    #[test]
    fn raised_target_fills_and_attributes_to_rebalance() {
        // m=4, degree 1 over n=4 with spare slots: raise v0's target to 3.
        let (catalog, cluster, layout) = world(4, 4, 1, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 4);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        c.set_target(5.0, 0, 3);
        assert_eq!(c.target(0), 3);
        assert_eq!(c.deficit_videos, 1);
        c.request_fill(0);
        c.replan(&[10, 0, 0, 0]);
        c.pump(SimTime::from_min(5.0), &mut links, &mut disp);
        c.check_invariants();
        assert_eq!(c.in_flight[0], 2);
        // Growth beyond the layout's baseline degree is Rebalance traffic.
        assert_eq!(c.repair_copies_in_flight(), 0);
        while c.next_completion().is_some() {
            c.complete_next(&mut links, &mut disp).unwrap();
            c.check_invariants();
        }
        assert_eq!(c.alive[0], 3);
        assert_eq!(c.deficit_videos, 0);
        assert_eq!(c.drift_copies_completed(), 2);
        assert!(c.drift_bytes_copied() > 0);
        assert_eq!(c.bytes_copied(), 0, "no Repair traffic in a drift fill");
    }

    #[test]
    fn lowered_target_retires_original_replicas() {
        // Degree 2; cool v0 down to a single replica.
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        let used_before: u64 = c.used_bytes.iter().sum();
        c.set_target(5.0, 0, 1);
        assert_eq!(c.retire_to_target(0), 1);
        c.check_invariants();
        assert_eq!(c.alive[0], 1);
        assert_eq!(c.holders[0].len(), 1);
        assert_eq!(c.deficit_videos, 0);
        let bytes = c.video_bytes[0];
        assert_eq!(c.used_bytes.iter().sum::<u64>(), used_before - bytes);
    }

    #[test]
    fn target_moves_keep_deficit_counter_consistent() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        // Raise two targets, lower one back before any copy: the counter
        // must track exactly the videos currently below target.
        c.set_target(1.0, 0, 4);
        c.set_target(1.0, 1, 3);
        assert_eq!(c.deficit_videos, 2);
        c.set_target(2.0, 0, 2);
        assert_eq!(c.deficit_videos, 1);
        c.set_target(3.0, 1, 2);
        assert_eq!(c.deficit_videos, 0);
        // Deficit integral accrued over [1.0, 3.0): >= 2 video·min.
        c.finish(10.0, &mut links, &mut disp);
        assert!(c.deficit_video_min() >= 2.0 - 1e-9);
        c.check_invariants();
    }

    #[test]
    fn pump_at_the_copy_cap_changes_nothing() {
        // Cap 2 while s0's crash leaves four videos short: two copies
        // start and the other two videos stay pending.
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let config = RepairConfig {
            bandwidth_kbps: 20_000,
            max_concurrent: 2,
        };
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, config);
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        assert_eq!(c.copies.len(), 2);
        assert!(!c.pending.is_empty());
        let pending = c.pending.clone();
        let copies = format!("{:?}", c.copies);
        let seq = c.seq;
        let repair = links.repair_kbps().to_vec();
        let used = links.used_kbps().to_vec();
        c.pump(SimTime::from_min(11.0), &mut links, &mut disp);
        assert_eq!(c.pending, pending);
        assert_eq!(format!("{:?}", c.copies), copies);
        assert_eq!(c.seq, seq);
        assert_eq!(links.repair_kbps(), &repair[..]);
        assert_eq!(links.used_kbps(), &used[..]);
        c.check_invariants();
    }

    #[test]
    fn slot_budget_counts_whole_cluster() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        // 4 servers x 8 slots each (uniform catalog).
        assert_eq!(c.slot_budget(), 32);
    }

    #[test]
    fn coded_failure_reconstructs_with_k_sources() {
        let (catalog, cluster, layout) = coded_world(6, 4, 2, 1, 8, &[]);
        let frag = catalog.videos()[0].storage_bytes().div_ceil(2);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 4);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        assert_eq!(c.video_bytes[0], frag, "coded videos store fragments");
        let victim = layout.replicas_of(VideoId(0))[0];
        links.fail(victim);
        c.on_failure(
            SimTime::from_min(10.0),
            victim,
            &[0; 4],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        assert!(!c.copies.is_empty(), "reconstruction must start");
        for copy in &c.copies {
            // k = 2: one primary + one extra read source, both reserved.
            assert_eq!(copy.extra_srcs.len(), 1);
            assert!(links.repair_kbps()[copy.extra_srcs[0].index()] > 0);
        }
        while c.next_completion().is_some() {
            c.complete_next(&mut links, &mut disp).unwrap();
            c.check_invariants();
        }
        for v in 0..4 {
            assert!(c.alive[v] >= c.targets[v]);
        }
        let recon = c.coded_reconstructions();
        assert!(recon > 0);
        // Each reconstruction read k fragments for the one it wrote.
        assert_eq!(c.coded_bytes_read(), recon * 2 * frag);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
    }

    #[test]
    fn coded_repair_never_starts_below_k_survivors() {
        // One (2, 1) stripe over 3 of 4 servers.
        let (catalog, cluster, layout) = coded_world(4, 1, 2, 1, 8, &[]);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 1);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        let holders: Vec<ServerId> = layout.replicas_of(VideoId(0)).to_vec();
        links.fail(holders[0]);
        c.on_failure(
            SimTime::from_min(1.0),
            holders[0],
            &[0; 1],
            &mut links,
            &mut disp,
        );
        // Two survivors = k: reconstruction runs.
        assert_eq!(c.copies.len(), 1);
        assert_eq!(c.unavailable_videos, 0);
        // Losing a second fragment drops below k: the in-flight
        // reconstruction (it read the dying server) aborts and no new
        // one may start — the stripe is unavailable until recovery.
        links.fail(holders[1]);
        c.on_failure(
            SimTime::from_min(2.0),
            holders[1],
            &[0; 1],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        assert!(c.copies.is_empty(), "no reconstruction below k survivors");
        assert_eq!(c.unavailable_videos, 1);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
        c.finish(12.0, &mut links, &mut disp);
        // Unavailable over [2, 12): 10 video·min.
        assert!((c.unavailability_video_min() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_deficit_integrates_parity_margin() {
        // (2, 2): margin m = 2, so one lost fragment weighs 1/2.
        let (catalog, cluster, layout) = coded_world(6, 1, 2, 2, 8, &[]);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 1);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, RepairConfig::default());
        let victim = layout.replicas_of(VideoId(0))[0];
        links.fail(victim);
        c.on_failure(
            SimTime::from_min(10.0),
            victim,
            &[0; 1],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        c.finish(20.0, &mut links, &mut disp);
        // Half a video below target for 10 minutes.
        assert!((c.deficit_video_min() - 5.0).abs() < 1e-9);
        assert!((c.deficit_min() - 10.0).abs() < 1e-9);
        assert!((c.unavailability_video_min()).abs() < 1e-9);
    }

    #[test]
    fn rack_bound_steers_reconstruction_into_dead_rack() {
        // 3 racks of 2; a (2, 1) stripe holds one fragment per rack, so
        // the only rack below the ⌈3/3⌉ = 1 live-fragment cap is the
        // dead holder's own — the rebuild must land on its rack buddy.
        let racks: Vec<Vec<ServerId>> = (0..3)
            .map(|r| vec![ServerId(2 * r), ServerId(2 * r + 1)])
            .collect();
        let (catalog, cluster, layout) = coded_world(6, 1, 2, 1, 8, &racks);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 1);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        c.set_rack_map(vec![0, 0, 1, 1, 2, 2]);
        let victim = layout.replicas_of(VideoId(0))[0];
        let buddy = ServerId(victim.0 ^ 1);
        links.fail(victim);
        c.on_failure(
            SimTime::from_min(1.0),
            victim,
            &[0; 1],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        assert_eq!(c.copies.len(), 1);
        assert_eq!(c.copies[0].dst, buddy, "rebuild must stay in the dead rack");
        c.complete_next(&mut links, &mut disp).unwrap();
        // Recovery retires the replacement: back to the original stripe.
        links.recover(victim);
        c.on_recovery(SimTime::from_min(5.0), victim, &mut links, &mut disp);
        c.check_invariants();
        assert_eq!(c.holders[0].len(), 3);
        assert_eq!(c.alive[0], 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Eq. (4) (per-server storage, counting in-flight reservations)
        /// and replica uniqueness survive any interleaving of failures,
        /// recoveries, and copy completions the actuator can see.
        #[test]
        fn random_fault_sequences_never_break_storage_or_uniqueness(
            n in 2usize..=5,
            m in 4usize..=16,
            degree in 1usize..=3,
            spare in 0u64..=4,
            bw_idx in 0usize..4,
            // Each event packs (server index, drain-one-copy flag).
            events in prop::collection::vec(0usize..16, 1..24),
        ) {
            let bw = [0u64, 20_000, 50_000, 120_000][bw_idx];
            let degree = degree.min(n);
            // Enough slots for the round-robin layout plus `spare` extras.
            let slots = ((m * degree).div_ceil(n)) as u64 + spare;
            let (catalog, cluster, layout) = world(n, m, degree, slots);
            let mut links = LinkState::new(&cluster);
            let mut disp = Dispatcher::new(Default::default(), m);
            let mut c = ReplicaActuator::new(
                &catalog,
                &cluster,
                &layout,
                RepairConfig { bandwidth_kbps: bw, max_concurrent: 4 },
            );
            let weights = vec![0u64; m];
            let mut t = 0.0f64;
            for (step, event) in events.into_iter().enumerate() {
                let (srv, drain_one) = (event % 8, event / 8 == 1);
                t += 1.0 + step as f64 * 0.5;
                let s = ServerId((srv % n) as u32);
                if links.is_up(s) {
                    links.fail(s);
                    c.on_failure(SimTime::from_min(t), s, &weights, &mut links, &mut disp);
                } else {
                    links.recover(s);
                    c.on_recovery(SimTime::from_min(t), s, &mut links, &mut disp);
                }
                if drain_one && c.next_completion().is_some() {
                    c.complete_next(&mut links, &mut disp).unwrap();
                }
                c.check_invariants();
                prop_assert!(links.within_capacity());
            }
            c.finish(t + 100.0, &mut links, &mut disp);
            c.check_invariants();
            prop_assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
        }

        /// Rapid flap of one server — fail, come back mid-repair, fail
        /// again, with copies draining in between — never double-counts
        /// redundancy: after every hook `alive[v]` equals the number of
        /// *up* holders, completed+in-flight+servable never exceeds what
        /// storage allows, and a final full recovery returns every video
        /// to exactly its target with zero residual reservations.
        #[test]
        fn rapid_flap_mid_repair_never_double_counts(
            n in 3usize..=5,
            m in 4usize..=12,
            spare in 1u64..=4,
            flaps in prop::collection::vec(0usize..4, 2..16),
        ) {
            let degree = 2usize.min(n);
            let slots = ((m * degree).div_ceil(n)) as u64 + spare;
            let (catalog, cluster, layout) = world(n, m, degree, slots);
            let mut links = LinkState::new(&cluster);
            let mut disp = Dispatcher::new(Default::default(), m);
            let mut c = ReplicaActuator::new(
                &catalog, &cluster, &layout,
                RepairConfig { bandwidth_kbps: 50_000, max_concurrent: 4 },
            );
            let weights = vec![0u64; m];
            let victim = ServerId(0);
            let mut t = 0.0f64;
            // Each flap: fail victim, optionally drain 0..3 completions
            // while it's down, then bring it back mid-repair.
            for (step, drains) in flaps.into_iter().enumerate() {
                t += 0.5 + step as f64 * 0.25;
                links.fail(victim);
                c.on_failure(SimTime::from_min(t), victim, &weights, &mut links, &mut disp);
                c.check_invariants();
                for _ in 0..drains {
                    if c.next_completion().is_none() {
                        break;
                    }
                    c.complete_next(&mut links, &mut disp).unwrap();
                    c.check_invariants();
                }
                t += 0.25;
                // Comeback mid-repair: in-flight copies for videos the
                // return pushes to/above target must abort, and servable
                // surplus must retire — without double-counting.
                links.recover(victim);
                c.on_recovery(SimTime::from_min(t), victim, &mut links, &mut disp);
                c.check_invariants();
                prop_assert!(links.within_capacity());
                for v in 0..m {
                    prop_assert!(
                        c.alive[v] <= c.targets[v] + c.in_flight[v],
                        "video {}: alive {} exceeds target {} with {} in flight",
                        v, c.alive[v], c.targets[v], c.in_flight[v]
                    );
                }
            }
            // Drain everything; with all servers up each video must sit at
            // exactly its target (no surplus survives a full recovery).
            while c.next_completion().is_some() {
                c.complete_next(&mut links, &mut disp).unwrap();
                c.check_invariants();
            }
            for v in 0..m {
                prop_assert_eq!(c.alive[v], c.targets[v]);
                prop_assert_eq!(c.holders[v].len(), c.targets[v] as usize);
            }
            c.finish(t + 100.0, &mut links, &mut disp);
            prop_assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
            prop_assert_eq!(c.in_flight.iter().sum::<u32>(), 0);
        }

        /// Coded repair under arbitrary fault/recovery/drain
        /// interleavings never oversubscribes reserved link bandwidth
        /// and never runs a reconstruction with fewer than `k` read
        /// sources (`check_invariants` asserts every in-flight copy
        /// carries exactly `k - 1` live extras).
        #[test]
        fn coded_fault_sequences_respect_bandwidth_and_fan_in(
            n in 5usize..=7,
            m in 2usize..=6,
            par in 1u32..=2,
            spare in 1u64..=4,
            events in prop::collection::vec(0usize..16, 1..24),
        ) {
            let k = 2u32;
            let slots = ((m * (k + par) as usize).div_ceil(n)) as u64 + spare + 2;
            let (catalog, cluster, layout) = coded_world(n, m, k, par, slots, &[]);
            let mut links = LinkState::new(&cluster);
            let mut disp = Dispatcher::new(Default::default(), m);
            let mut c = ReplicaActuator::new(
                &catalog, &cluster, &layout,
                RepairConfig { bandwidth_kbps: 40_000, max_concurrent: 4 },
            );
            let weights = vec![0u64; m];
            let mut t = 0.0f64;
            for (step, event) in events.into_iter().enumerate() {
                let (srv, drain_one) = (event % 8, event / 8 == 1);
                t += 1.0 + step as f64 * 0.5;
                let s = ServerId((srv % n) as u32);
                if links.is_up(s) {
                    links.fail(s);
                    c.on_failure(SimTime::from_min(t), s, &weights, &mut links, &mut disp);
                } else {
                    links.recover(s);
                    c.on_recovery(SimTime::from_min(t), s, &mut links, &mut disp);
                }
                if drain_one && c.next_completion().is_some() {
                    c.complete_next(&mut links, &mut disp).unwrap();
                }
                c.check_invariants();
                prop_assert!(links.within_capacity());
                for copy in &c.copies {
                    prop_assert_eq!(copy.extra_srcs.len() + 1, k as usize);
                }
            }
            c.finish(t + 100.0, &mut links, &mut disp);
            c.check_invariants();
            prop_assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
            prop_assert_eq!(c.in_flight.iter().sum::<u32>(), 0);
        }
    }
}
