//! `scale_stream`: the A-9 production world pulled through the
//! streaming arrival pipeline.
//!
//! 512 servers at 1.8 Gbps (450 streams each), a 20,000-title catalog
//! of ninety-minute videos at Zipf θ = 0.9, replication degree 1.3,
//! planned with Zipf-interval replication and SLF placement. Arrivals
//! follow a diurnal cycle around 60% mean utilisation with a 1.5×
//! premiere pulse and catalog churn, generated lazily by thinning and
//! alias draws inside the engine (`run_streaming`, `shards = 1`). The
//! horizon is trimmed to six hours, one compressed diurnal cycle, so a
//! run holds several passes; the pulse on the crest still lifts the
//! live-stream count to ~94% of the N·u bandwidth bound.

use crate::harness::{seeded, Bench, Checks, Pass};
use crate::trace::Tracer;
use std::error::Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vod_core::{ClusterPlanner, PlacementAlgo, ReplicationAlgo};
use vod_model::{BitRate, Catalog, ClusterSpec, Layout, ServerSpec};
use vod_sim::{SimConfig, Simulation};
use vod_telemetry::{Snapshot, Telemetry};
use vod_workload::{
    ArrivalIter, ArrivalSource, CatalogChurn, DiurnalCycle, RateModel, RatePulse, Request,
    ThinnedWorkload,
};

const N_SERVERS: usize = 512;
const N_VIDEOS: usize = 20_000;
const DURATION_S: u64 = 90 * 60;
const BANDWIDTH_KBPS: u64 = 1_800_000;
const THETA: f64 = 0.9;
const DEGREE: f64 = 1.3;
const UTILIZATION: f64 = 0.6;
const HORIZON_MIN: f64 = 360.0;
/// Engine memory ceiling per active stream (the A-9 contract).
const BYTES_PER_STREAM_CEILING: f64 = 192.0;

/// The built world of one `scale_stream` run.
pub struct ScaleStream {
    seed: u64,
    catalog: Catalog,
    cluster: ClusterSpec,
    layout: Layout,
    workload: ThinnedWorkload,
}

impl ScaleStream {
    /// Plans the 20k × 512 world and builds its arrival model.
    pub fn setup(seed: u64) -> Result<Self, Box<dyn Error>> {
        let slots = (DEGREE * N_VIDEOS as f64 / N_SERVERS as f64).ceil() as u64;
        let cluster = ClusterSpec::homogeneous(
            N_SERVERS,
            ServerSpec {
                storage_bytes: slots * BitRate::MPEG2.storage_bytes(DURATION_S),
                bandwidth_kbps: BANDWIDTH_KBPS,
            },
        )?;
        let capacity = stream_capacity() as f64;
        let planner = ClusterPlanner::builder()
            .catalog(Catalog::fixed_rate(N_VIDEOS, BitRate::MPEG2, DURATION_S)?)
            .cluster(cluster)
            .popularity(vod_model::Popularity::zipf(N_VIDEOS, THETA)?)
            .demand_requests(capacity)
            .build()?;
        let plan = planner.plan(
            ReplicationAlgo::ZipfInterval,
            PlacementAlgo::SmallestLoadFirst,
        )?;
        let base_lambda = UTILIZATION * capacity / (DURATION_S as f64 / 60.0);
        let rate = RateModel::constant(base_lambda)?
            .with_diurnal(DiurnalCycle {
                period_min: HORIZON_MIN,
                amplitude: 0.6,
            })?
            .with_pulses(vec![RatePulse {
                start_min: 120.0,
                duration_min: 45.0,
                multiplier: 1.5,
            }])?;
        let workload = ThinnedWorkload::new(rate, planner.popularity().clone(), HORIZON_MIN)?
            .with_churn(CatalogChurn {
                period_min: 120.0,
                step: 997,
            })?;
        let world = ScaleStream {
            seed,
            catalog: planner.catalog().clone(),
            cluster: planner.cluster().clone(),
            layout: plan.layout,
            workload,
        };
        // Binding the engine validates the world; the pass rebinds it.
        world.simulation(world.config())?;
        Ok(world)
    }

    fn config(&self) -> SimConfig {
        SimConfig {
            horizon_min: HORIZON_MIN,
            ..SimConfig::default()
        }
    }

    fn simulation(&self, config: SimConfig) -> Result<Simulation<'_>, vod_model::ModelError> {
        Simulation::new(&self.catalog, &self.cluster, &self.layout, config)
    }
}

/// The N·u bandwidth bound, in concurrent streams.
fn stream_capacity() -> u64 {
    N_SERVERS as u64 * (BANDWIDTH_KBPS / u64::from(BitRate::MPEG2.kbps()))
}

/// Time and count spent pulling from an arrival source.
#[derive(Debug, Default)]
struct Meter {
    nanos: AtomicU64,
    pulls: AtomicU64,
}

/// An [`ArrivalSource`] wrapper that meters every pull.
#[derive(Debug, Clone)]
struct Metered<S> {
    inner: S,
    meter: Arc<Meter>,
}

impl<S: ArrivalSource> ArrivalSource for Metered<S> {
    fn next_request(&mut self) -> Option<Request> {
        let started = Instant::now();
        let next = self.inner.next_request();
        let nanos = started.elapsed().as_nanos() as u64;
        self.meter.nanos.fetch_add(nanos, Ordering::Relaxed);
        if next.is_some() {
            self.meter.pulls.fetch_add(1, Ordering::Relaxed);
        }
        next
    }

    fn horizon_min(&self) -> f64 {
        self.inner.horizon_min()
    }
}

impl Bench for ScaleStream {
    fn pass(&self, telemetry: &Telemetry, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let (sim, _) = tracer.span("sim.setup", |_| self.simulation(self.config()));
        let Some(sim) = pass.op("Simulation::new", sim) else {
            return pass;
        };
        let (source, _) = tracer.span("workload", |_| {
            self.workload.stream(seeded(self.seed, &[0]))
        });
        let Some(source) = pass.op("stream", source) else {
            return pass;
        };
        let (report, secs) = if tracer.is_on() {
            let meter = Arc::new(Meter::default());
            let metered = Metered {
                inner: source,
                meter: Arc::clone(&meter),
            };
            let out = tracer.span("sim.run", |tr| {
                let started = Instant::now();
                let report = sim.run_streaming_with_telemetry(metered, telemetry);
                tr.record_aggregate(
                    "workload.pull",
                    started,
                    meter.nanos.load(Ordering::Relaxed),
                );
                report
            });
            pass.generated = meter.pulls.load(Ordering::Relaxed);
            out
        } else {
            tracer.span("sim.run", |_| {
                sim.run_streaming_with_telemetry(source, telemetry)
            })
        };
        pass.sim_secs += secs;
        if let Some(report) = pass.op("sim.run", report) {
            pass.reports.push(report);
        }
        pass
    }

    fn check(&self, reference: &Pass, snapshot: &Snapshot, checks: &mut Checks) {
        checks.check(reference.reports.len() == 1, || {
            "reference pass produced no report".into()
        });
        checks.reports_sound(reference);
        let Some(report) = reference.reports.first() else {
            return;
        };
        match self.workload.stream(seeded(self.seed, &[0])) {
            Ok(source) => {
                let generated = ArrivalIter(source).count() as u64;
                checks.check(report.arrivals == generated, || {
                    format!(
                        "{} arrivals vs {generated} generated requests",
                        report.arrivals
                    )
                });
            }
            Err(e) => checks.check(false, || format!("stream failed: {e}")),
        }
        let audited = self
            .simulation(SimConfig {
                audit: true,
                ..self.config()
            })
            .and_then(|sim| sim.run_streaming(self.workload.stream(seeded(self.seed, &[0]))?));
        let matches = audited.as_ref().is_ok_and(|r| r == report);
        checks.check(matches, || match audited {
            Ok(_) => "audited replay differs from the reference report".into(),
            Err(e) => format!("audited replay failed: {e}"),
        });

        // Admission is what keeps the live streams under N·u; this
        // checks that guarantee from the engine's output.
        let capacity = stream_capacity();
        checks.check(report.peak_concurrent_streams <= capacity, || {
            format!(
                "bandwidth bound: {} concurrent streams above N·u = {capacity}",
                report.peak_concurrent_streams
            )
        });
        // The storage bound on the plan itself: every title placed, and
        // no server holding more replicas than its slots.
        let hosted = self.layout.replicas_per_server();
        let overfull = self
            .cluster
            .servers()
            .iter()
            .zip(&hosted)
            .filter(|(spec, &n)| n as u64 > spec.replica_slots(BitRate::MPEG2, DURATION_S))
            .count();
        let unplaced = self
            .layout
            .assignments()
            .iter()
            .filter(|r| r.is_empty())
            .count();
        checks.check(overfull == 0 && unplaced == 0, || {
            format!(
                "storage bound: {overfull} servers over their slots, {unplaced} titles unplaced"
            )
        });
        let bytes = snapshot.histogram("sim.engine.bytes_per_active_stream");
        checks.check(
            bytes.count > 0 && bytes.max <= BYTES_PER_STREAM_CEILING,
            || {
                format!(
                    "memory bound: {:.1} B per active stream above {BYTES_PER_STREAM_CEILING}",
                    bytes.max
                )
            },
        );
    }
}
