//! Differential property test: the slab-backed indexed [`DepartureQueue`]
//! against a reference implementation — a retained copy of the original
//! `BinaryHeap<Reverse<(SimTime, u64, ...)>>` queue — driven with
//! identical operation sequences. Every observable (popped departures,
//! extraction results, drains, `next_time`, `len`) must match exactly;
//! this is what guarantees the indexed queue reproduces the reference pop
//! order bit-for-bit, and therefore byte-identical simulation reports.
//!
//! The second property drives the lane entry point
//! ([`DepartureQueue::push_lane`]) the way the engine does — a monotone
//! clock, a few fixed durations — mixed with out-of-order re-pushes at old
//! end times, so pops and extractions hit lane heads, lane middles and
//! heap entries. The reference sees every push as a plain push.

use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vod_model::{ServerId, VideoId};
use vod_sim::event::{Departure, DepartureQueue};
use vod_sim::time::SimTime;

/// Reference queue: the pre-index implementation, kept verbatim (minus
/// doc comments) as the behavioural oracle.
#[derive(Debug, Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, DepartureRecord)>>,
    seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DepartureRecord {
    server: ServerId,
    video: VideoId,
    kbps: u64,
    backbone_kbps: u64,
    epoch: u32,
    stream: u32,
}

impl ReferenceQueue {
    fn push(&mut self, d: Departure) {
        self.heap.push(Reverse((
            d.at,
            self.seq,
            DepartureRecord {
                server: d.server,
                video: d.video,
                kbps: d.kbps,
                backbone_kbps: d.backbone_kbps,
                epoch: d.epoch,
                stream: d.stream,
            },
        )));
        self.seq += 1;
    }

    fn pop_due(&mut self, now: SimTime) -> Option<Departure> {
        let Reverse((at, _, _)) = self.heap.peek()?;
        if *at > now {
            return None;
        }
        let Reverse((at, _, rec)) = self.heap.pop()?;
        Some(Departure {
            at,
            server: rec.server,
            video: rec.video,
            kbps: rec.kbps,
            backbone_kbps: rec.backbone_kbps,
            epoch: rec.epoch,
            stream: rec.stream,
        })
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn extract_active(&mut self, server: ServerId, epoch: u32) -> Vec<Departure> {
        let entries = std::mem::take(&mut self.heap).into_sorted_vec();
        let mut extracted = Vec::new();
        for Reverse((at, seq, rec)) in entries.into_iter().rev() {
            if rec.server == server && rec.epoch == epoch {
                extracted.push(Departure {
                    at,
                    server: rec.server,
                    video: rec.video,
                    kbps: rec.kbps,
                    backbone_kbps: rec.backbone_kbps,
                    epoch: rec.epoch,
                    stream: rec.stream,
                });
            } else {
                self.heap.push(Reverse((at, seq, rec)));
            }
        }
        extracted
    }

    fn drain_all(&mut self) -> Vec<Departure> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(d) = self.pop_due(SimTime(u64::MAX)) {
            out.push(d);
        }
        out
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One step of the driving sequence.
#[derive(Debug, Clone)]
enum Op {
    Push(Departure),
    PopDue(SimTime),
    ExtractActive(ServerId, u32),
    DrainAll,
}

/// Weighted op generator. Small domains on purpose: few servers and a
/// narrow tick range force same-tick ties, same-server collisions, and
/// epoch mismatches — the cases where a subtly wrong tie-break or index
/// link would diverge. Pushes dominate (5:3:1:1) so queues actually grow.
#[derive(Clone, Copy, Debug)]
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;

    fn generate(&self, rng: &mut TestRng) -> Op {
        match rng.gen_range(0u32..10) {
            0..=4 => Op::Push(Departure {
                at: SimTime(rng.gen_range(0u64..200)),
                server: ServerId(rng.gen_range(0u32..4)),
                video: VideoId(rng.gen_range(0u32..8)),
                kbps: 1_000 + 500 * rng.gen_range(0u64..8),
                backbone_kbps: rng.gen_range(0u64..2) * 300,
                epoch: rng.gen_range(0u32..3),
                stream: vod_sim::event::NO_STREAM,
            }),
            5..=7 => Op::PopDue(SimTime(rng.gen_range(0u64..220))),
            8 => Op::ExtractActive(ServerId(rng.gen_range(0u32..4)), rng.gen_range(0u32..3)),
            _ => Op::DrainAll,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of pushes, due-pops, per-server extractions, and
    /// drains observes identical state and output on both queues.
    #[test]
    fn indexed_queue_matches_reference(ops in prop::collection::vec(OpStrategy, 1..120)) {
        let mut indexed = DepartureQueue::new();
        let mut reference = ReferenceQueue::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Push(d) => {
                    indexed.push(d);
                    reference.push(d);
                }
                Op::PopDue(now) => {
                    prop_assert_eq!(
                        indexed.pop_due(now),
                        reference.pop_due(now),
                        "pop_due diverged at step {}",
                        step
                    );
                }
                Op::ExtractActive(server, epoch) => {
                    prop_assert_eq!(
                        indexed.extract_active(server, epoch),
                        reference.extract_active(server, epoch),
                        "extract_active diverged at step {}",
                        step
                    );
                }
                Op::DrainAll => {
                    prop_assert_eq!(
                        indexed.drain_all(),
                        reference.drain_all(),
                        "drain_all diverged at step {}",
                        step
                    );
                }
            }
            prop_assert_eq!(indexed.next_time(), reference.next_time(), "next_time diverged at step {}", step);
            prop_assert_eq!(indexed.len(), reference.len(), "len diverged at step {}", step);
            prop_assert_eq!(indexed.is_empty(), reference.len() == 0);
        }
        // Whatever survives the sequence must drain out identically.
        prop_assert_eq!(indexed.drain_all(), reference.drain_all());
    }
}

/// The lane keys of the second property: few and overlapping, so
/// `now₁ + 90 == now₂ + 45` ties across lanes happen.
const DURATIONS: [u64; 3] = [30, 45, 90];

/// One step of the lane-driven sequence. Clock steps are relative, so
/// the generator stays stateless and the clock never runs backwards.
#[derive(Debug, Clone)]
enum LaneOp {
    /// Advance the clock, then push a departure ending `duration` later
    /// into the lane keyed `key`: usually `duration` itself; otherwise a
    /// mislabeled push the lane's order guard must divert to the heap.
    PushLane {
        advance: u64,
        duration: u64,
        key: u64,
        dep: Departure,
    },
    /// Push (heap entry point) at `clock - 30 + offset`: often earlier
    /// than the lane tails, like a failover rescue keeping its end time.
    Repush {
        offset: u64,
        dep: Departure,
    },
    /// Advance the clock, then pop one due departure.
    PopDue {
        advance: u64,
    },
    /// Extract one server's epoch, then re-push every other extracted
    /// departure unchanged (at its old end time).
    ExtractActive(ServerId, u32),
    DrainAll,
}

#[derive(Clone, Copy, Debug)]
struct LaneOpStrategy;

fn small_dep(rng: &mut TestRng) -> Departure {
    Departure {
        at: SimTime(0),
        server: ServerId(rng.gen_range(0u32..4)),
        video: VideoId(rng.gen_range(0u32..8)),
        kbps: 1_000 + 500 * rng.gen_range(0u64..8),
        backbone_kbps: rng.gen_range(0u64..2) * 300,
        epoch: rng.gen_range(0u32..2),
        stream: vod_sim::event::NO_STREAM,
    }
}

impl Strategy for LaneOpStrategy {
    type Value = LaneOp;

    fn generate(&self, rng: &mut TestRng) -> LaneOp {
        match rng.gen_range(0u32..20) {
            0..=9 => {
                let duration = DURATIONS[rng.gen_range(0..DURATIONS.len())];
                let key = if rng.gen_range(0u32..8) == 0 {
                    DURATIONS[rng.gen_range(0..DURATIONS.len())]
                } else {
                    duration
                };
                LaneOp::PushLane {
                    advance: rng.gen_range(0u64..6),
                    duration,
                    key,
                    dep: small_dep(rng),
                }
            }
            10..=11 => LaneOp::Repush {
                offset: rng.gen_range(0u64..120),
                dep: small_dep(rng),
            },
            12..=16 => LaneOp::PopDue {
                advance: rng.gen_range(0u64..8),
            },
            17..=18 => {
                LaneOp::ExtractActive(ServerId(rng.gen_range(0u32..4)), rng.gen_range(0u32..2))
            }
            _ => LaneOp::DrainAll,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lane pushes under a monotone clock, interleaved with out-of-order
    /// pushes, pops, extractions (with re-pushes) and drains, observe
    /// exactly what the reference heap observes.
    #[test]
    fn lane_queue_matches_reference(ops in prop::collection::vec(LaneOpStrategy, 1..240)) {
        let mut indexed = DepartureQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut now = 30u64;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                LaneOp::PushLane { advance, duration, key, dep } => {
                    now += advance;
                    let d = Departure { at: SimTime(now + duration), ..dep };
                    indexed.push_lane(d, SimTime(key));
                    reference.push(d);
                }
                LaneOp::Repush { offset, dep } => {
                    let d = Departure { at: SimTime(now - 30 + offset), ..dep };
                    indexed.push(d);
                    reference.push(d);
                }
                LaneOp::PopDue { advance } => {
                    now += advance;
                    prop_assert_eq!(
                        indexed.pop_due(SimTime(now)),
                        reference.pop_due(SimTime(now)),
                        "pop_due diverged at step {}",
                        step
                    );
                }
                LaneOp::ExtractActive(server, epoch) => {
                    let got = indexed.extract_active(server, epoch);
                    prop_assert_eq!(
                        &got,
                        &reference.extract_active(server, epoch),
                        "extract_active diverged at step {}",
                        step
                    );
                    for d in got.into_iter().step_by(2) {
                        indexed.push(d);
                        reference.push(d);
                    }
                }
                LaneOp::DrainAll => {
                    prop_assert_eq!(
                        indexed.drain_all(),
                        reference.drain_all(),
                        "drain_all diverged at step {}",
                        step
                    );
                }
            }
            prop_assert_eq!(indexed.next_time(), reference.next_time(), "next_time diverged at step {}", step);
            prop_assert_eq!(indexed.len(), reference.len(), "len diverged at step {}", step);
            prop_assert_eq!(indexed.is_empty(), reference.len() == 0);
        }
        prop_assert_eq!(indexed.drain_all(), reference.drain_all());
    }
}
