//! Macro benchmark: a full A-1-scale peak-period replay, reported in
//! *events per second* (arrivals + departures + transitions + samples +
//! retries + abandonments — the same event count the perf-smoke gate and
//! the `sim.events` telemetry counter use).
//!
//! Three flavors of the same 200-video, Zipf(1.0), Adams/SLF world:
//!
//! * `steady`   — the paper's failure-free default at capacity load;
//! * `overload` — 10× arrival rate, so the run is dominated by
//!   dispatch-and-reject scans and departure-queue churn;
//! * `chaos`    — stochastic crashes + brownouts with stream failover and
//!   mid-run repair, the path that hammers `extract_active`.
//!
//! Plus the pods group: a pod-structured 256-server world (32
//! independent 8-server pods) replayed failure-free (`pods`) and with
//! one mid-run outage (`pods_outage`) — the worlds the perf smoke's
//! `par_*` and `coupled_par_*` figures run on.
//!
//! Plus the scale group: the A-9 world shape (512 servers, 20,000
//! videos, diurnal + premiere + churn arrivals) replayed through the
//! streaming arrival pipeline vs a pre-materialized trace of the
//! identical request sequence. The two reports are equal — asserted
//! before measuring — so the delta isolates what lazy pull costs (or
//! saves) against iterate-a-Vec at production catalog sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vod_core::prelude::*;
use vod_model::{ServerId, VideoId};
use vod_sim::{BrownoutModel, FailoverPolicy, FailureModel, RepairConfig};
use vod_workload::{Request, Trace};

fn world(m: usize, slots: u64) -> (ClusterPlanner, Plan) {
    let planner = ClusterPlanner::builder()
        .catalog(Catalog::paper_default(m).unwrap())
        .cluster(ClusterSpec::paper_default(slots))
        .popularity(Popularity::zipf(m, 1.0).unwrap())
        .demand_requests(3_600.0)
        .build()
        .unwrap();
    let plan = planner
        .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
        .unwrap();
    (planner, plan)
}

fn trace(planner: &ClusterPlanner, lambda: f64, seed: u64) -> Trace {
    let generator = TraceGenerator::new(lambda, planner.popularity(), 90.0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generator.generate(&mut rng)
}

fn chaos_config() -> SimConfig {
    let mut model = FailureModel::exponential(25.0, 8.0, 0xA1_5EED);
    model.brownouts = Some(BrownoutModel {
        mtbf_min: 40.0,
        mttr_min: 6.0,
        min_capacity_frac: 0.4,
        max_capacity_frac: 0.8,
    });
    SimConfig {
        failure_model: Some(model),
        failover: FailoverPolicy::ResumeOrDegrade,
        repair: RepairConfig {
            bandwidth_kbps: 8_000,
            max_concurrent: 4,
        },
        ..SimConfig::default()
    }
}

/// Counts one run's events on a throwaway telemetry handle so the
/// benchmark can report elements (= events) per second.
fn count_events(sim: &Simulation, trace: &Trace) -> u64 {
    let telemetry = vod_telemetry::Telemetry::enabled();
    sim.run_with_telemetry(trace, &telemetry).unwrap();
    telemetry.snapshot().counter("sim.events")
}

fn bench_a1_macro(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_macro");
    group.sample_size(15);
    let (planner, plan) = world(200, 30);
    let cases = [
        ("steady", 40.0, SimConfig::default()),
        ("overload", 400.0, SimConfig::default()),
        ("chaos", 40.0, chaos_config()),
    ];
    for (name, lambda, config) in cases {
        let trace = trace(&planner, lambda, 9);
        let sim =
            Simulation::new(planner.catalog(), planner.cluster(), &plan.layout, config).unwrap();
        group.throughput(Throughput::Elements(count_events(&sim, &trace)));
        group.bench_with_input(BenchmarkId::new("replay", name), &lambda, |b, _| {
            b.iter(|| black_box(sim.run(black_box(&trace)).unwrap()))
        });
    }
    group.finish();
}

/// A pod-structured world of `pods` independent 8-server groups, each
/// pod holding its own 8 videos on 2-replica sets, plus an evenly
/// spread peak-period trace. Every replica set stays inside one pod.
fn pods_world(pods: usize) -> (Catalog, ClusterSpec, Layout, Trace) {
    const PER_POD: usize = 8;
    let n_servers = pods * PER_POD;
    let n_videos = n_servers;
    let catalog = Catalog::fixed_rate(n_videos, BitRate::MPEG2, 600).unwrap();
    let cluster = ClusterSpec::homogeneous(
        n_servers,
        ServerSpec {
            storage_bytes: u64::MAX,
            bandwidth_kbps: 40_000, // 10 concurrent streams per server
        },
    )
    .unwrap();
    let layout = Layout::new(
        n_servers,
        (0..n_videos)
            .map(|v| {
                let base = (v / PER_POD) * PER_POD;
                vec![
                    ServerId((base + v % PER_POD) as u32),
                    ServerId((base + (v + 1) % PER_POD) as u32),
                ]
            })
            .collect(),
    )
    .unwrap();
    let n_requests = 20_000usize;
    // 37 is coprime with the catalog size, so the video sequence cycles
    // the whole catalog uniformly across pods.
    let trace = Trace::new(
        (0..n_requests)
            .map(|k| Request {
                arrival_min: k as f64 * (90.0 / n_requests as f64),
                video: VideoId(((k * 37) % n_videos) as u32),
            })
            .collect(),
    )
    .unwrap();
    (catalog, cluster, layout, trace)
}

fn bench_pods(c: &mut Criterion) {
    use vod_sim::{FailurePlan, Outage};

    let mut group = c.benchmark_group("a1_macro_pods");
    group.sample_size(10);
    let (catalog, cluster, layout, trace) = pods_world(32);
    let outage = FailurePlan::new(vec![Outage {
        server: ServerId(3),
        down_at_min: 30.0,
        up_at_min: Some(60.0),
    }])
    .unwrap();
    for (name, failures) in [("pods", FailurePlan::none()), ("pods_outage", outage)] {
        let sim = Simulation::new(
            &catalog,
            &cluster,
            &layout,
            SimConfig {
                failures,
                ..SimConfig::default()
            },
        )
        .unwrap();
        group.throughput(Throughput::Elements(count_events(&sim, &trace)));
        group.bench_function(name, |b| {
            b.iter(|| black_box(sim.run(black_box(&trace)).unwrap()))
        });
    }
    group.finish();
}

/// The A-9 production world shape, horizon-trimmed so one engine pass
/// fits a bench iteration (the full 48-hour run is the `experiments
/// scale` command's job; throughput per event is what matters here).
fn bench_scale(c: &mut Criterion) {
    use vod_experiments::runner::{build_plan, Combo};
    use vod_experiments::scale::ScaleWorld;

    let mut group = c.benchmark_group("a1_macro_scale");
    group.sample_size(10);
    let mut world = ScaleWorld::production();
    world.setup.horizon_min = 360.0;
    world.diurnal.period_min = 360.0;
    world.pulses = vec![vod_workload::RatePulse {
        start_min: 120.0,
        duration_min: 45.0,
        multiplier: 1.5,
    }];
    let point = build_plan(&world.setup, Combo::ZIPF_SLF, world.theta, world.degree).unwrap();
    let workload = world.workload().unwrap();
    let sim = Simulation::new(
        point.planner().catalog(),
        point.planner().cluster(),
        &point.plan.layout,
        SimConfig {
            horizon_min: world.setup.horizon_min,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let seed = 0x5CA1E;
    let stream = || workload.stream(ChaCha8Rng::seed_from_u64(seed)).unwrap();
    let trace = workload
        .generate(&mut ChaCha8Rng::seed_from_u64(seed))
        .unwrap();
    // Equivalence gate: the streaming pull and the materialized replay
    // must report identically, or the A/B below compares nothing.
    assert_eq!(
        sim.run_streaming(stream()).unwrap(),
        sim.run(&trace).unwrap()
    );
    let telemetry = vod_telemetry::Telemetry::enabled();
    sim.run_with_telemetry(&trace, &telemetry).unwrap();
    let events = telemetry.snapshot().counter("sim.events");
    group.throughput(Throughput::Elements(events));
    group.bench_function(BenchmarkId::new("arrivals", "streaming"), |b| {
        b.iter(|| black_box(sim.run_streaming(black_box(stream())).unwrap()))
    });
    group.bench_function(BenchmarkId::new("arrivals", "materialized"), |b| {
        b.iter(|| black_box(sim.run(black_box(&trace)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_a1_macro, bench_pods, bench_scale);
criterion_main!(benches);
