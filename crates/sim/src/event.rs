//! The departure event queue.
//!
//! Arrivals replay directly from the (time-sorted) trace, so the only
//! events that need a priority queue are stream completions. Departures
//! pop in the total order of their `(time, sequence)` key; the sequence
//! number is unique per push, so streams ending on the same tick pop in
//! push order and every run is deterministic.
//!
//! Layout: departure records live in a slab indexed by compact `u32`
//! handles, and every slot links into an intrusive per-server
//! doubly-linked list, which is what makes
//! [`DepartureQueue::extract_active`] — the crash/brownout failover path
//! — cost O(k) removals for a server carrying k of the queued streams.
//!
//! Ordering is split between FIFO *lanes* and a heap. The paper gives
//! every video one length T, so a stream admitted at `now` ends at
//! `now + T` and, because the event clock never runs backwards,
//! same-length streams end in admission order.
//! [`DepartureQueue::push_lane`] appends such a departure to the FIFO
//! lane of its duration in O(1): each lane stays sorted by `(time,
//! sequence)` on its own. A 4-ary min-heap of compact `(time, sequence,
//! handle, lane)` entries holds each non-empty lane's head plus every
//! departure pushed through [`DepartureQueue::push`] — failover rescues
//! and re-queues, which keep their original end time and so would break
//! a lane's order. Popping a lane head promotes the lane's next entry
//! into the head's heap slot. With one duration the heap holds one lane
//! head and the few out-of-order pushes, so a completion costs O(1)
//! instead of O(log n); with all-distinct durations every lane holds one
//! entry and the structure is the plain heap again.
//!
//! Removing a departure from the middle of a lane (extraction) leaves a
//! tombstone there, skipped when it reaches the lane's front; its slab
//! slot is freed at once.

use crate::time::SimTime;
use std::collections::{HashMap, VecDeque};
use vod_model::{ServerId, VideoId};

/// Marks a departure that belongs to no coded stream (a whole-copy
/// replica stream, the only kind the paper's model produces).
pub const NO_STREAM: u32 = u32::MAX;

/// A scheduled stream completion.
///
/// A replicated stream is one departure. A coded stream is `k`
/// departures — one fragment share per serving holder — tied together
/// by a shared `stream` id so failover can find the sibling shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// When the stream ends.
    pub at: SimTime,
    /// The server whose outgoing link frees up.
    pub server: ServerId,
    /// The video being streamed (for per-video accounting).
    pub video: VideoId,
    /// Outgoing bandwidth released, in kbps.
    pub kbps: u64,
    /// Backbone bandwidth released, in kbps (non-zero only for redirected
    /// streams under the backbone extension).
    pub backbone_kbps: u64,
    /// The serving server's failure epoch at admission time; a departure
    /// whose epoch no longer matches is stale (the stream was killed by a
    /// failure) and must not release link bandwidth.
    pub epoch: u32,
    /// Coded stream id tying the `k` fragment-share departures of one
    /// viewer together, or [`NO_STREAM`] for whole-copy streams.
    pub stream: u32,
}

/// Null handle for slab links, list heads, lane ids and tombstones.
const NONE: u32 = u32::MAX;

/// Arity of the handle heap: shallower than binary, and four child keys
/// share a cache line's worth of handle loads per sift-down level.
const ARITY: usize = 4;

/// One slab slot: the departure payload with its `(at, seq)` key, where
/// it is queued, and its links in the owning server's intrusive list.
/// Free slots are chained through `next`.
///
/// Bandwidth words are packed to `u32` (a stream rate in kbps tops out
/// in the tens of thousands; `u32` holds 4 Tbps): 56 bytes per slot.
/// A lane departure costs its slot plus a 4-byte lane handle; only lane
/// heads and out-of-order pushes also take a 24-byte heap entry. The
/// widening back to `u64` happens on pop.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: SimTime,
    seq: u64,
    kbps: u32,
    backbone_kbps: u32,
    server: ServerId,
    video: VideoId,
    epoch: u32,
    stream: u32,
    /// The lane holding this departure, or `NONE` when it is a heap
    /// entry.
    lane: u32,
    /// Heap index (heap entries) or absolute lane position (lane
    /// entries; the lane's head is the one at `Lane::base`).
    pos: u32,
    /// Intrusive per-server list links (`NONE` = end).
    prev: u32,
    next: u32,
}

/// One heap entry: the full ordering key plus the slab handle, so sift
/// comparisons never leave the heap array. `lane` names the lane whose
/// head this is (`NONE` for an out-of-order push); it fills what would
/// otherwise be padding.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    handle: u32,
    lane: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A FIFO of departures sharing one duration, in `(at, seq)` order.
#[derive(Debug, Default)]
struct Lane {
    /// Slab handles; `NONE` marks a tombstone. The front is never a
    /// tombstone, and a non-empty lane's front is also in the heap.
    fifo: VecDeque<u32>,
    /// Absolute position of the front (wrapping; positions are only
    /// ever compared as offsets from here).
    base: u32,
    /// `at` of the latest append: a push ending earlier goes to the heap.
    tail_at: SimTime,
    /// Heap index of the front's entry (valid while `fifo` is
    /// non-empty).
    heap_pos: u32,
}

/// Deterministic indexed departure queue: FIFO lanes for equal-duration
/// departures behind one 4-ary min-heap.
#[derive(Debug, Default)]
pub struct DepartureQueue {
    /// Slab of departure records, addressed by `u32` handle.
    slots: Vec<Slot>,
    /// Head of the free-slot chain (threaded through `Slot::next`).
    free_head: u32,
    /// 4-ary min-heap of `(at, seq)`-keyed entries: lane heads and
    /// out-of-order pushes.
    heap: Vec<HeapEntry>,
    /// The FIFO lanes, in order of first use.
    lanes: Vec<Lane>,
    /// Lane id of each duration pushed so far.
    lane_of: HashMap<SimTime, u32>,
    /// Head of each server's intrusive list of queued departures.
    server_head: Vec<u32>,
    /// Next sequence number; unique per push, so `(at, seq)` totally
    /// orders the queue and ties pop in FIFO order.
    seq: u64,
    /// Queued departures (lane tombstones excluded).
    len: usize,
    /// High-water mark of `len()` over this queue's lifetime.
    peak_len: usize,
    /// Scratch for sorting extracted departures by `(at, seq)`.
    extract_scratch: Vec<(SimTime, u64, Departure)>,
}

impl DepartureQueue {
    /// An empty queue.
    pub fn new() -> Self {
        DepartureQueue {
            free_head: NONE,
            ..Default::default()
        }
    }

    /// An empty queue with list heads for `servers` servers
    /// pre-allocated (the slab, heap and lanes grow on demand and
    /// amortize to zero allocations once the run reaches its concurrency
    /// peak).
    pub fn with_capacity(servers: usize) -> Self {
        DepartureQueue {
            free_head: NONE,
            server_head: vec![NONE; servers],
            ..Default::default()
        }
    }

    /// Schedules a departure in the heap: O(log h) for the h heap
    /// entries. Any `at` is accepted; this is the entry point for
    /// departures that keep an earlier stream's end time.
    pub fn push(&mut self, d: Departure) {
        let h = self.alloc(d, NONE, 0);
        self.heap_insert(h, NONE);
    }

    /// Schedules a departure for a stream of length `duration` that
    /// starts at the current clock, so `d.at` is that clock plus
    /// `duration`. It joins the FIFO lane of `duration` in O(1). Under a
    /// clock that never runs backwards each lane's `at` never decreases;
    /// a push that would break its lane's order goes to the heap instead
    /// ([`Self::push`]), so the pop order is the `(at, seq)` order
    /// whatever durations the caller passes.
    pub fn push_lane(&mut self, d: Departure, duration: SimTime) {
        let l = self.lane_index(duration);
        let lane = &self.lanes[l];
        if !lane.fifo.is_empty() && d.at < lane.tail_at {
            return self.push(d);
        }
        let pos = lane.base.wrapping_add(lane.fifo.len() as u32);
        let was_empty = lane.fifo.is_empty();
        let h = self.alloc(d, l as u32, pos);
        let lane = &mut self.lanes[l];
        lane.fifo.push_back(h);
        lane.tail_at = d.at;
        if was_empty {
            self.heap_insert(h, l as u32);
        }
    }

    /// Removes and returns the next departure at or before `now`, if any.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Departure> {
        let root = *self.heap.first()?;
        if root.at > now {
            return None;
        }
        Some(self.remove(root.handle))
    }

    /// The next departure's instant, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Removes every departure on `server` whose epoch matches `epoch` —
    /// the streams actually alive there — into `out` in deterministic
    /// `(time, sequence)` order (`out` is cleared first). Stale entries
    /// (older epochs) stay queued: under the backbone extension their
    /// backbone reservation is still released at the scheduled end. Used
    /// by stream failover to take over a failing server's streams before
    /// the link state kills them; the per-server index makes this k
    /// removals (O(1) for a lane entry behind its head, O(log h)
    /// otherwise) plus a k-element sort.
    pub fn extract_active_into(&mut self, server: ServerId, epoch: u32, out: &mut Vec<Departure>) {
        out.clear();
        let Some(&head) = self.server_head.get(server.index()) else {
            return;
        };
        let mut scratch = std::mem::take(&mut self.extract_scratch);
        let mut h = head;
        while h != NONE {
            let slot = self.slots[h as usize];
            if slot.epoch == epoch {
                scratch.push((slot.at, slot.seq, self.remove(h)));
            }
            h = slot.next;
        }
        scratch.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        out.extend(scratch.drain(..).map(|(_, _, d)| d));
        self.extract_scratch = scratch;
    }

    /// [`Self::extract_active_into`] returning a fresh `Vec` (test and
    /// non-hot-path convenience).
    pub fn extract_active(&mut self, server: ServerId, epoch: u32) -> Vec<Departure> {
        let mut out = Vec::new();
        self.extract_active_into(server, epoch, &mut out);
        out
    }

    /// Drains every remaining departure in time order (end-of-run cleanup).
    pub fn drain_all(&mut self) -> Vec<Departure> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(d) = self.pop_due(SimTime(u64::MAX)) {
            out.push(d);
        }
        out
    }

    /// Number of scheduled departures (active streams).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no streams are active.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Most departures ever queued at once over this queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Resident bytes of this queue's backing storage (slab, heap, lanes,
    /// list heads, scratch) — the feed for the engine's bytes-per-active-
    /// stream accounting.
    pub fn mem_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.heap.capacity() * std::mem::size_of::<HeapEntry>()
            + self.lanes.capacity() * std::mem::size_of::<Lane>()
            + self.lane_of.capacity() * std::mem::size_of::<(SimTime, u32)>()
            + self
                .lanes
                .iter()
                .map(|l| l.fifo.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.server_head.capacity() * std::mem::size_of::<u32>()
            + self.extract_scratch.capacity() * std::mem::size_of::<(SimTime, u64, Departure)>()
    }

    /// The lane keyed by `duration`, created on first use.
    fn lane_index(&mut self, duration: SimTime) -> usize {
        let next = self.lanes.len() as u32;
        let l = *self.lane_of.entry(duration).or_insert(next);
        if l == next {
            debug_assert!(next < NONE);
            self.lanes.push(Lane::default());
        }
        l as usize
    }

    /// Takes a slab slot for `d` (queued in `lane` at `pos`), links it
    /// at the head of its server's list and counts it.
    fn alloc(&mut self, d: Departure, lane: u32, pos: u32) -> u32 {
        let j = d.server.index();
        if j >= self.server_head.len() {
            self.server_head.resize(j + 1, NONE);
        }
        debug_assert!(
            d.kbps <= u32::MAX as u64 && d.backbone_kbps <= u32::MAX as u64,
            "stream rate exceeds the packed u32 slab word"
        );
        let head = self.server_head[j];
        let slot = Slot {
            at: d.at,
            seq: self.seq,
            kbps: d.kbps as u32,
            backbone_kbps: d.backbone_kbps as u32,
            server: d.server,
            video: d.video,
            epoch: d.epoch,
            stream: d.stream,
            lane,
            pos,
            prev: NONE,
            next: head,
        };
        self.seq += 1;
        let h = if self.free_head != NONE {
            let h = self.free_head;
            self.free_head = self.slots[h as usize].next;
            self.slots[h as usize] = slot;
            h
        } else {
            debug_assert!(self.slots.len() < NONE as usize);
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        };
        if head != NONE {
            self.slots[head as usize].prev = h;
        }
        self.server_head[j] = h;
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        h
    }

    /// Removes slot `h` from the heap or its lane and from its server
    /// list, frees it, and returns its departure.
    fn remove(&mut self, h: u32) -> Departure {
        let slot = self.slots[h as usize];
        // Unlink from the server list.
        if slot.prev != NONE {
            self.slots[slot.prev as usize].next = slot.next;
        } else {
            self.server_head[slot.server.index()] = slot.next;
        }
        if slot.next != NONE {
            self.slots[slot.next as usize].prev = slot.prev;
        }
        if slot.lane == NONE {
            self.heap_remove(slot.pos as usize);
        } else {
            let l = slot.lane as usize;
            let offset = slot.pos.wrapping_sub(self.lanes[l].base) as usize;
            if offset == 0 {
                self.pop_lane_front(l);
            } else {
                self.lanes[l].fifo[offset] = NONE;
            }
        }
        // Chain the slot into the free list.
        self.slots[h as usize].next = self.free_head;
        self.free_head = h;
        self.len -= 1;
        Departure {
            at: slot.at,
            server: slot.server,
            video: slot.video,
            kbps: slot.kbps as u64,
            backbone_kbps: slot.backbone_kbps as u64,
            epoch: slot.epoch,
            stream: slot.stream,
        }
    }

    /// Drops lane `l`'s front and any tombstones behind it, then hands
    /// the front's heap entry to the next live departure (whose key is
    /// no smaller, so it can only sift down) or removes it.
    fn pop_lane_front(&mut self, l: usize) {
        let lane = &mut self.lanes[l];
        lane.fifo.pop_front();
        lane.base = lane.base.wrapping_add(1);
        while lane.fifo.front() == Some(&NONE) {
            lane.fifo.pop_front();
            lane.base = lane.base.wrapping_add(1);
        }
        let pos = lane.heap_pos as usize;
        match lane.fifo.front().copied() {
            Some(next) => {
                let s = &self.slots[next as usize];
                self.heap[pos] = HeapEntry {
                    at: s.at,
                    seq: s.seq,
                    handle: next,
                    lane: l as u32,
                };
                self.sift_down(pos);
            }
            None => self.heap_remove(pos),
        }
    }

    /// Adds slot `h`'s key to the heap; `lane` is the lane `h` heads, or
    /// `NONE` for an out-of-order push.
    fn heap_insert(&mut self, h: u32, lane: u32) {
        let s = &self.slots[h as usize];
        let pos = self.heap.len();
        self.heap.push(HeapEntry {
            at: s.at,
            seq: s.seq,
            handle: h,
            lane,
        });
        self.sift_up(pos);
    }

    /// Swap-removes heap entry `pos`, then restores the heap property at
    /// the vacated position (the moved entry can need either sift).
    fn heap_remove(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        self.heap.swap_remove(pos);
        if pos < last {
            let pos = self.sift_down(pos);
            self.sift_up(pos);
        }
    }

    /// Records that heap slot `pos` now holds `entry`, in the slot (an
    /// out-of-order push) or the lane (a lane head) that points back.
    #[inline]
    fn place(&mut self, pos: usize, entry: HeapEntry) {
        self.heap[pos] = entry;
        if entry.lane == NONE {
            self.slots[entry.handle as usize].pos = pos as u32;
        } else {
            self.lanes[entry.lane as usize].heap_pos = pos as u32;
        }
    }

    /// Hole-shifting sift toward the root: parents slide down until the
    /// moving entry's key fits, writing each displaced entry (and its
    /// backpointer) once.
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, entry);
    }

    /// Hole-shifting sift toward the leaves: the least of up to `ARITY`
    /// children slides up until the moving entry's key fits. Returns the
    /// entry's final position.
    fn sift_down(&mut self, mut pos: usize) -> usize {
        let entry = self.heap[pos];
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= self.heap.len() {
                break;
            }
            let mut best = first_child;
            let end = (first_child + ARITY).min(self.heap.len());
            for child in first_child + 1..end {
                if self.heap[child].key() < self.heap[best].key() {
                    best = child;
                }
            }
            if entry.key() <= self.heap[best].key() {
                break;
            }
            self.place(pos, self.heap[best]);
            pos = best;
        }
        self.place(pos, entry);
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(at: u64, server: u32) -> Departure {
        Departure {
            at: SimTime(at),
            server: ServerId(server),
            video: VideoId(0),
            kbps: 4_000,
            backbone_kbps: 0,
            epoch: 0,
            stream: NO_STREAM,
        }
    }

    #[test]
    fn next_time_peeks() {
        let mut q = DepartureQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(dep(42, 0));
        q.push(dep(7, 1));
        assert_eq!(q.next_time(), Some(SimTime(7)));
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = DepartureQueue::new();
        q.push(dep(30, 0));
        q.push(dep(10, 1));
        q.push(dep(20, 2));
        assert_eq!(q.pop_due(SimTime(100)).unwrap().at, SimTime(10));
        assert_eq!(q.pop_due(SimTime(100)).unwrap().at, SimTime(20));
        assert_eq!(q.pop_due(SimTime(100)).unwrap().at, SimTime(30));
        assert!(q.pop_due(SimTime(100)).is_none());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = DepartureQueue::new();
        q.push(dep(50, 0));
        assert!(q.pop_due(SimTime(49)).is_none());
        assert!(q.pop_due(SimTime(50)).is_some());
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = DepartureQueue::new();
        q.push(dep(10, 7));
        q.push(dep(10, 3));
        assert_eq!(q.pop_due(SimTime(10)).unwrap().server, ServerId(7));
        assert_eq!(q.pop_due(SimTime(10)).unwrap().server, ServerId(3));
    }

    #[test]
    fn drain_returns_sorted() {
        let mut q = DepartureQueue::new();
        for at in [5u64, 1, 9, 3] {
            q.push(dep(at, 0));
        }
        let times: Vec<u64> = q.drain_all().iter().map(|d| d.at.ticks()).collect();
        assert_eq!(times, vec![1, 3, 5, 9]);
        assert!(q.is_empty());
    }

    #[test]
    fn extract_active_partitions_by_server_and_epoch() {
        let mut q = DepartureQueue::new();
        q.push(dep(30, 1));
        q.push(Departure {
            epoch: 1,
            ..dep(10, 0)
        });
        q.push(dep(20, 0)); // epoch 0: stale once we extract epoch 1
        q.push(Departure {
            epoch: 1,
            ..dep(5, 0)
        });
        let got = q.extract_active(ServerId(0), 1);
        assert_eq!(
            got.iter().map(|d| d.at.ticks()).collect::<Vec<_>>(),
            vec![5, 10]
        );
        // The stale epoch-0 entry and the other server's entry survive.
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(SimTime(100)).unwrap().at, SimTime(20));
        assert_eq!(q.pop_due(SimTime(100)).unwrap().server, ServerId(1));
    }

    #[test]
    fn len_tracks_active_streams() {
        let mut q = DepartureQueue::new();
        assert_eq!(q.len(), 0);
        q.push(dep(10, 0));
        q.push(dep(20, 0));
        assert_eq!(q.len(), 2);
        q.pop_due(SimTime(15));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn extract_on_server_with_zero_streams_is_empty() {
        let mut q = DepartureQueue::new();
        q.push(dep(10, 0));
        // In-range server with no streams, and a server the queue has
        // never seen (list heads not even allocated).
        assert!(q.extract_active(ServerId(0), 99).is_empty());
        assert!(q.extract_active(ServerId(7), 0).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime(10)).unwrap().at, SimTime(10));
    }

    #[test]
    fn stale_epochs_survive_repeated_extraction() {
        let mut q = DepartureQueue::new();
        for (at, epoch) in [(10u64, 0u32), (20, 1), (30, 2), (40, 1)] {
            q.push(Departure {
                epoch,
                ..dep(at, 0)
            });
        }
        let got = q.extract_active(ServerId(0), 1);
        assert_eq!(
            got.iter().map(|d| d.at.ticks()).collect::<Vec<_>>(),
            vec![20, 40]
        );
        // The other epochs remain; extracting them later still works.
        assert_eq!(q.len(), 2);
        let got = q.extract_active(ServerId(0), 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].at, SimTime(30));
        assert_eq!(q.pop_due(SimTime(99)).unwrap().at, SimTime(10));
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_mass_departures_extract_in_push_order() {
        let mut q = DepartureQueue::new();
        for v in 0..100u32 {
            q.push(Departure {
                video: VideoId(v),
                ..dep(10, 0)
            });
        }
        q.push(dep(10, 1));
        let got = q.extract_active(ServerId(0), 0);
        // All same-tick: (time, seq) order is push order.
        assert_eq!(
            got.iter()
                .map(|d| d.video.index() as u32)
                .collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut q = DepartureQueue::new();
        for round in 0..10u64 {
            for k in 0..8u64 {
                q.push(dep(round * 100 + k, (k % 4) as u32));
            }
            if round % 2 == 0 {
                let got = q.extract_active(ServerId(0), 0);
                for d in got {
                    q.push(d);
                }
            }
            while q.pop_due(SimTime(round * 100 + 7)).is_some() {}
        }
        assert!(q.is_empty());
        // The slab never grew past one round's worth of live slots plus
        // the re-pushed extractions.
        assert!(q.slots.len() <= 16, "slab grew to {}", q.slots.len());
        assert_eq!(q.peak_len(), 8);
    }

    #[test]
    fn slot_stays_packed() {
        // A lane departure costs its slab slot plus one lane handle;
        // keep that at the 60 structural bytes per active stream the
        // memory-smoke ceiling is sized to (DESIGN.md §7).
        assert_eq!(std::mem::size_of::<Slot>(), 56);
        assert_eq!(std::mem::size_of::<HeapEntry>(), 24);
        assert!(std::mem::size_of::<Slot>() + std::mem::size_of::<u32>() <= 60);
    }

    /// `dep(now + duration, server)` pushed into `duration`'s lane.
    fn push_at(q: &mut DepartureQueue, now: u64, duration: u64, server: u32) {
        q.push_lane(dep(now + duration, server), SimTime(duration));
    }

    #[test]
    fn lanes_and_heap_pop_in_one_total_order() {
        let mut q = DepartureQueue::new();
        // Two durations under a monotone clock, plus out-of-order pushes
        // that keep an old end time.
        push_at(&mut q, 0, 100, 0); // 100
        push_at(&mut q, 0, 30, 1); // 30
        push_at(&mut q, 10, 100, 2); // 110
        q.push(dep(20, 3));
        push_at(&mut q, 20, 30, 4); // 50
        q.push(dep(110, 5)); // ties with lane entry 110, pushed later
        push_at(&mut q, 20, 100, 6); // 120
        assert_eq!(q.len(), 7);
        // Only the two lane heads and the two heap pushes are in the heap.
        assert_eq!(q.heap.len(), 4);
        let order: Vec<(u64, u32)> = q
            .drain_all()
            .iter()
            .map(|d| (d.at.ticks(), d.server.0))
            .collect();
        assert_eq!(
            order,
            vec![
                (20, 3),
                (30, 1),
                (50, 4),
                (100, 0),
                (110, 2),
                (110, 5),
                (120, 6)
            ]
        );
        assert!(q.heap.is_empty());
    }

    #[test]
    fn lane_push_that_breaks_order_goes_to_the_heap() {
        let mut q = DepartureQueue::new();
        push_at(&mut q, 50, 10, 0); // 60
        push_at(&mut q, 0, 10, 1); // 10: earlier than the lane tail
        assert_eq!(q.heap.len(), 2);
        assert_eq!(q.lanes[0].fifo.len(), 1);
        assert_eq!(q.pop_due(SimTime(100)).unwrap().server, ServerId(1));
        assert_eq!(q.pop_due(SimTime(100)).unwrap().server, ServerId(0));
        // An emptied lane takes any end time again.
        push_at(&mut q, 0, 10, 2);
        assert_eq!(q.lanes[0].fifo.len(), 1);
    }

    #[test]
    fn extraction_tombstones_lane_middles_and_reuses_their_slots() {
        let mut q = DepartureQueue::new();
        for (now, server) in [(0u64, 0u32), (1, 1), (2, 0), (3, 1), (4, 0)] {
            push_at(&mut q, now, 100, server);
        }
        // Server 1's entries sit at lane positions 1 and 3: both become
        // tombstones, the lane head (server 0 at 100) stays in the heap.
        let got = q.extract_active(ServerId(1), 0);
        assert_eq!(
            got.iter().map(|d| d.at.ticks()).collect::<Vec<_>>(),
            vec![101, 103]
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.lanes[0].fifo.len(), 5);
        assert_eq!(q.lanes[0].fifo.iter().filter(|&&h| h == NONE).count(), 2);
        // The freed slots are reused; the slab does not grow.
        push_at(&mut q, 5, 100, 2);
        push_at(&mut q, 6, 100, 3);
        assert_eq!(q.slots.len(), 5);
        // Popping walks past the tombstones without surfacing them.
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop_due(SimTime(u64::MAX)))
            .map(|d| (d.at.ticks(), d.server.0))
            .collect();
        assert_eq!(
            order,
            vec![(100, 0), (102, 0), (104, 0), (105, 2), (106, 3)]
        );
        assert!(q.lanes[0].fifo.is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn extracting_a_lane_head_promotes_the_next_live_entry() {
        let mut q = DepartureQueue::new();
        q.push(dep(150, 2));
        for (now, server) in [(0u64, 0u32), (1, 1), (2, 0), (3, 1)] {
            push_at(&mut q, now, 100, server);
        }
        // Tombstone position 1, then extract the head: the promotion
        // skips the tombstone and lands on position 2.
        assert_eq!(q.extract_active(ServerId(1), 0).len(), 2);
        assert_eq!(q.next_time(), Some(SimTime(100)));
        let got = q.extract_active(ServerId(0), 0);
        assert_eq!(
            got.iter().map(|d| d.at.ticks()).collect::<Vec<_>>(),
            vec![100, 102]
        );
        // Lane drained: only the heap push is left.
        assert_eq!(q.next_time(), Some(SimTime(150)));
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.len(), 1);
        // Extraction from the heap itself still works.
        assert_eq!(q.extract_active(ServerId(2), 0).len(), 1);
        assert!(q.is_empty() && q.heap.is_empty());
    }

    #[test]
    fn len_peak_and_mem_bytes_with_lanes() {
        let mut q = DepartureQueue::new();
        assert_eq!(q.mem_bytes(), 0);
        for now in 0..100 {
            push_at(&mut q, now, 5_400, (now % 4) as u32);
        }
        assert_eq!((q.len(), q.peak_len()), (100, 100));
        // One lane: one heap entry, 100 slots and 100 lane handles.
        assert_eq!(q.heap.len(), 1);
        let bytes = q.mem_bytes();
        assert!(
            bytes >= 100 * (std::mem::size_of::<Slot>() + std::mem::size_of::<u32>()),
            "{bytes}"
        );
        assert_eq!(q.lanes[0].fifo.len(), 100);
        // Tombstones are not counted as queued.
        q.extract_active(ServerId(1), 0);
        assert_eq!((q.len(), q.peak_len()), (75, 100));
        let bytes = q.mem_bytes(); // now with the extraction scratch
        while q.pop_due(SimTime(u64::MAX)).is_some() {}
        assert_eq!((q.len(), q.peak_len()), (0, 100));
        // Draining frees no capacity, as for the slab.
        assert_eq!(q.mem_bytes(), bytes);
    }

    #[test]
    fn mem_bytes_tracks_backing_storage() {
        let mut q = DepartureQueue::new();
        assert_eq!(q.mem_bytes(), 0);
        for at in 0..100 {
            q.push(dep(at, 0));
        }
        let bytes = q.mem_bytes();
        assert!(bytes >= 100 * (std::mem::size_of::<Slot>() + std::mem::size_of::<HeapEntry>()));
        // Draining frees no capacity: the slab is reused, so the
        // footprint is set by the concurrency peak, not the run length.
        while q.pop_due(SimTime(u64::MAX)).is_some() {}
        assert_eq!(q.mem_bytes(), bytes);
    }

    #[test]
    fn wide_rates_roundtrip_through_the_packed_slab() {
        let mut q = DepartureQueue::new();
        q.push(Departure {
            kbps: u32::MAX as u64,
            backbone_kbps: 123_456,
            ..dep(10, 0)
        });
        let d = q.pop_due(SimTime(10)).unwrap();
        assert_eq!(d.kbps, u32::MAX as u64);
        assert_eq!(d.backbone_kbps, 123_456);
    }

    #[test]
    fn interleaved_push_pop_extract_keeps_order() {
        let mut q = DepartureQueue::new();
        q.push(dep(10, 0));
        q.push(dep(5, 1));
        assert_eq!(q.pop_due(SimTime(5)).unwrap().server, ServerId(1));
        q.push(dep(7, 0));
        q.push(dep(3, 0));
        let got = q.extract_active(ServerId(0), 0);
        assert_eq!(
            got.iter().map(|d| d.at.ticks()).collect::<Vec<_>>(),
            vec![3, 7, 10]
        );
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 3);
    }
}
