//! Micro-benchmarks for the engine's per-event hot path: departure-queue
//! operations (random-time heap churn, the engine's FIFO-lane churn and
//! failover extraction), the dispatcher's replica pick, and alias-table
//! sampling — the three inner loops every simulated event touches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vod_model::{BitRate, Catalog, ClusterSpec, Layout, ServerId, ServerSpec, VideoId};
use vod_sim::dispatch::{AdmissionPolicy, Dispatcher};
use vod_sim::event::{Departure, DepartureQueue, NO_STREAM};
use vod_sim::server::LinkState;
use vod_sim::time::SimTime;
use vod_workload::ZipfSampler;

const SERVERS: u32 = 8;

fn dep(rng: &mut ChaCha8Rng) -> Departure {
    Departure {
        at: SimTime(rng.gen_range(0..5_400_000)),
        server: ServerId(rng.gen_range(0..SERVERS)),
        video: VideoId(rng.gen_range(0..200)),
        kbps: 4_000,
        backbone_kbps: 0,
        epoch: 0,
        stream: NO_STREAM,
    }
}

/// Steady-state churn: a queue holding `n` live streams, one departure
/// popped and one pushed per iteration — the engine's per-admission cost.
fn bench_queue_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue");
    for n in [256usize, 4_096] {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut q = DepartureQueue::new();
        for _ in 0..n {
            q.push(dep(&mut rng));
        }
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, _| {
            b.iter(|| {
                let d = q.pop_due(SimTime(u64::MAX)).unwrap();
                q.push(Departure {
                    at: SimTime(d.at.ticks().wrapping_add(600_000)),
                    ..d
                });
                black_box(q.next_time())
            })
        });
    }
    group.finish();
}

/// The engine's real pattern: a monotone clock and one 90-minute
/// duration, so every admission joins one FIFO lane. A queue holding `n`
/// live streams pops the next departure and admits a replacement at that
/// instant, per iteration.
fn bench_queue_fifo(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue");
    let duration = SimTime::from_min(90.0);
    for n in [4_096usize, 262_144] {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut q = DepartureQueue::new();
        // Admissions spread evenly over one duration.
        let step = duration.ticks() / n as u64;
        for i in 0..n as u64 {
            q.push_lane(
                Departure {
                    at: SimTime(i * step) + duration,
                    ..dep(&mut rng)
                },
                duration,
            );
        }
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("push_pop_fifo", n), &n, |b, _| {
            b.iter(|| {
                let d = q.pop_due(SimTime(u64::MAX)).unwrap();
                q.push_lane(
                    Departure {
                        at: d.at + duration,
                        ..d
                    },
                    duration,
                );
                black_box(q.next_time())
            })
        });
    }
    group.finish();
}

/// Failover cost: extract one server's k active streams out of a queue of
/// n and put them back — the crash/brownout path.
fn bench_queue_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue");
    for n in [256usize, 4_096] {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut q = DepartureQueue::new();
        for _ in 0..n {
            q.push(dep(&mut rng));
        }
        let mut server = 0u32;
        group.throughput(Throughput::Elements((n as u64) / SERVERS as u64));
        group.bench_with_input(BenchmarkId::new("extract_active", n), &n, |b, _| {
            b.iter(|| {
                let extracted = q.extract_active(ServerId(server % SERVERS), 0);
                server = server.wrapping_add(1);
                let k = extracted.len();
                for d in extracted {
                    q.push(d);
                }
                black_box(k)
            })
        });
    }
    group.finish();
}

/// The dispatcher's replica scan on an idle cluster, per policy.
fn bench_dispatcher_pick(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatcher");
    let catalog = Catalog::fixed_rate(200, BitRate::MPEG2, 5_400).unwrap();
    let cluster = ClusterSpec::homogeneous(
        SERVERS as usize,
        ServerSpec {
            storage_bytes: u64::MAX,
            bandwidth_kbps: 1_000_000_000,
        },
    )
    .unwrap();
    let layout = Layout::new(
        SERVERS as usize,
        (0..200u32)
            .map(|v| vec![ServerId(v % SERVERS), ServerId((v + 1) % SERVERS)])
            .collect(),
    )
    .unwrap();
    let links = LinkState::new(&cluster);
    let policies = [
        ("static_rr", AdmissionPolicy::StaticRoundRobin),
        ("rr_failover", AdmissionPolicy::RoundRobinFailover),
        ("least_loaded", AdmissionPolicy::LeastLoadedReplica),
        (
            "backbone",
            AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 1_000_000,
            },
        ),
    ];
    for (name, policy) in policies {
        let mut dispatcher = Dispatcher::new(policy, catalog.len());
        let mut v = 0u32;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("pick", name), &policy, |b, _| {
            b.iter(|| {
                let video = VideoId(v % 200);
                v = v.wrapping_add(1);
                black_box(dispatcher.dispatch(video, 4_000, layout.replicas_of(video), &links))
            })
        });
    }
    group.finish();
}

/// Walker/Vose alias sampling — the per-arrival video pick.
fn bench_alias_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("alias");
    let sampler = ZipfSampler::new(200, 1.0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    group.throughput(Throughput::Elements(1));
    group.bench_function("sample", |b| b.iter(|| black_box(sampler.sample(&mut rng))));
    group.finish();
}

criterion_group!(
    benches,
    bench_queue_churn,
    bench_queue_fifo,
    bench_queue_extract,
    bench_dispatcher_pick,
    bench_alias_sample
);
criterion_main!(benches);
