//! Placement cost: round-robin vs smallest-load-first across catalog
//! sizes (paper, Sec. 4.2), plus the incremental replan that metered
//! repair runs on every server crash.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vod_model::{Layout, Popularity, ReplicationScheme, ServerId};
use vod_placement::traits::PlacementInput;
use vod_placement::{PlacementPolicy, RoundRobinPlacement, SmallestLoadFirstPlacement};
use vod_replication::{BoundedAdamsReplication, ReplicationPolicy};

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    group.sample_size(20);
    let n_servers = 8;
    for m in [200usize, 2_000, 20_000] {
        let pop = Popularity::zipf(m, 0.75).unwrap();
        let budget = ((1.4 * m as f64) as u64).div_ceil(8) * 8;
        let scheme = BoundedAdamsReplication
            .replicate(&pop, n_servers, budget)
            .unwrap();
        let weights = scheme.weights(&pop, 3_600.0).unwrap();
        let capacities = vec![scheme.total().div_ceil(8); n_servers];
        let input = PlacementInput {
            scheme: &scheme,
            weights: &weights,
            n_servers,
            capacities: &capacities,
        };
        group.bench_with_input(BenchmarkId::new("slf", m), &m, |b, _| {
            b.iter(|| black_box(SmallestLoadFirstPlacement.place(black_box(&input)).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("round_robin", m), &m, |b, _| {
            b.iter(|| black_box(RoundRobinPlacement.place(black_box(&input)).unwrap()))
        });
        // Incremental update cost (identity case: pure keep phase).
        let previous = SmallestLoadFirstPlacement.place(&input).unwrap();
        group.bench_with_input(BenchmarkId::new("incremental_identity", m), &m, |b, _| {
            let policy = vod_placement::IncrementalPlacement::from_previous(previous.clone());
            b.iter(|| black_box(policy.place(black_box(&input)).unwrap()))
        });
    }
    group.finish();
}

/// The repair replan of a pod-structured cluster mid-outage: 32 pods
/// of 8 servers, 2,048 two-replica videos whose replicas sit on
/// neighbouring servers of one pod, 32 replica slots per server and 10
/// servers down (zero slots), so about 160 lost replicas re-place on
/// survivors. Weights are observed-arrival counts + 1 under Zipf 0.5.
fn bench_incremental_down(c: &mut Criterion) {
    const PODS: usize = 32;
    const PER_POD: usize = 8;
    let mut group = c.benchmark_group("placement");
    group.sample_size(20);
    let n_servers = PODS * PER_POD;
    let m = 2_048;
    let assignments = (0..m)
        .map(|v| {
            let (base, local) = ((v % PODS) * PER_POD, v / PODS);
            vec![
                ServerId((base + local % PER_POD) as u32),
                ServerId((base + (local + 1) % PER_POD) as u32),
            ]
        })
        .collect();
    let previous = Layout::new(n_servers, assignments).unwrap();
    let scheme = ReplicationScheme::new(vec![2; m]).unwrap();
    // Expected counts jittered by ±20% (a fixed hash of the id): what a
    // replay observes is rank-ordered only roughly, with many ties.
    let weights: Vec<f64> = (0..m)
        .map(|v| {
            let jitter = ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as f64 / 1024.0;
            (400.0 / ((v + 1) as f64).sqrt() * (0.8 + 0.4 * jitter)).floor() + 1.0
        })
        .collect();
    let capacities: Vec<u64> = (0..n_servers)
        .map(|j| if j % 26 == 3 { 0 } else { 32 })
        .collect();
    let input = PlacementInput {
        scheme: &scheme,
        weights: &weights,
        n_servers,
        capacities: &capacities,
    };
    let policy = vod_placement::IncrementalPlacement::from_previous(previous);
    group.bench_with_input(BenchmarkId::new("incremental_down", m), &m, |b, _| {
        b.iter(|| black_box(policy.place(black_box(&input)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_placement, bench_incremental_down);
criterion_main!(benches);
