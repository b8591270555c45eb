//! `pods_chaos`: a pod-structured cluster under faults on the sharded
//! engine.
//!
//! 32 pods × 8 servers (100 concurrent 4 Mbps streams each), 64
//! ten-minute videos per pod on two-replica sets that never leave their
//! pod, Zipf θ = 0.5 popularity dealt across pods by rank, and 90-minute
//! Poisson peak periods at 85% of stream capacity. Every replica set
//! stays inside one pod, so the replica graph splits into 32 groups and
//! `shards = 2` can run them in parallel. Stochastic crashes and
//! brownouts, stream failover (`ResumeOrDegrade`) and metered repair
//! send the run down the windowed (coupled) path. A pass replays four
//! seeded peak periods, each with its own failure-model seed, so one
//! run's figures do not hang on a single trace or fault pattern.

use crate::harness::{derive, seeded, Bench, Checks, Pass};
use crate::trace::Tracer;
use std::error::Error;
use std::time::Instant;
use vod_model::{BitRate, Catalog, ClusterSpec, Layout, Popularity, ServerId, ServerSpec};
use vod_sim::{
    BrownoutModel, FailoverPolicy, FailureModel, RepairConfig, ShardPlan, SimConfig, Simulation,
};
use vod_telemetry::{Snapshot, Telemetry};
use vod_workload::{Trace, TraceGenerator};

const PODS: usize = 32;
const PER_POD: usize = 8;
const VIDEOS_PER_POD: usize = 64;
const DURATION_S: u64 = 600;
const STREAMS_PER_SERVER: u64 = 100;
const THETA: f64 = 0.5;
const LOAD: f64 = 0.85;
const HORIZON_MIN: f64 = 90.0;
/// Replica slots per server: 16 hosted, the rest free for repair.
const SLOTS_PER_SERVER: u64 = 32;
const SHARDS: usize = 2;
/// Seeded peak periods (and fault patterns) replayed per pass.
const REPLICAS: u64 = 4;

/// The built world of one `pods_chaos` run.
pub struct Pods {
    catalog: Catalog,
    cluster: ClusterSpec,
    layout: Layout,
    /// One (trace, engine config) pair per replica.
    replicas: Vec<(Trace, SimConfig)>,
}

impl Pods {
    /// Builds the pod world and materialises its traces, each with its
    /// own fault, failover and repair models.
    pub fn setup(seed: u64) -> Result<Self, Box<dyn Error>> {
        let n_servers = PODS * PER_POD;
        let n_videos = PODS * VIDEOS_PER_POD;
        let catalog = Catalog::fixed_rate(n_videos, BitRate::MPEG2, DURATION_S)?;
        let cluster = ClusterSpec::homogeneous(
            n_servers,
            ServerSpec {
                storage_bytes: SLOTS_PER_SERVER * BitRate::MPEG2.storage_bytes(DURATION_S),
                bandwidth_kbps: STREAMS_PER_SERVER * u64::from(BitRate::MPEG2.kbps()),
            },
        )?;
        // Rank v lives in pod v mod 32, so every pod gets a comparable
        // slice of the popularity curve; inside the pod its two
        // replicas sit on neighbouring servers.
        let assignments = (0..n_videos)
            .map(|v| {
                let base = (v % PODS) * PER_POD;
                let local = v / PODS;
                vec![
                    ServerId((base + local % PER_POD) as u32),
                    ServerId((base + (local + 1) % PER_POD) as u32),
                ]
            })
            .collect();
        let layout = Layout::new(n_servers, assignments)?;
        let capacity_lambda =
            (n_servers as u64 * STREAMS_PER_SERVER) as f64 / (DURATION_S as f64 / 60.0);
        let popularity = Popularity::zipf(n_videos, THETA)?;
        let generator = TraceGenerator::new(LOAD * capacity_lambda, &popularity, HORIZON_MIN)?;
        let replicas = (0..REPLICAS)
            .map(|k| {
                let trace = generator.generate(&mut seeded(seed, &[k, 0]));
                let mut model = FailureModel::exponential(240.0, 10.0, derive(seed, &[k, 1]));
                model.brownouts = Some(BrownoutModel {
                    mtbf_min: 180.0,
                    mttr_min: 8.0,
                    min_capacity_frac: 0.4,
                    max_capacity_frac: 0.8,
                });
                let config = SimConfig {
                    horizon_min: HORIZON_MIN,
                    shards: SHARDS,
                    failure_model: Some(model),
                    failover: FailoverPolicy::ResumeOrDegrade,
                    repair: RepairConfig {
                        bandwidth_kbps: 8_000,
                        max_concurrent: 4,
                    },
                    ..SimConfig::default()
                };
                (trace, config)
            })
            .collect();
        let pods = Pods {
            catalog,
            cluster,
            layout,
            replicas,
        };
        // Binding the engine validates the world; the pass rebinds it.
        for (_, config) in &pods.replicas {
            pods.simulation(config.clone())?;
        }
        Ok(pods)
    }

    fn simulation(&self, config: SimConfig) -> Result<Simulation<'_>, vod_model::ModelError> {
        Simulation::new(&self.catalog, &self.cluster, &self.layout, config)
    }
}

fn serial(config: &SimConfig) -> SimConfig {
    SimConfig {
        shards: 1,
        ..config.clone()
    }
}

impl Bench for Pods {
    fn pass(&self, telemetry: &Telemetry, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for (trace, config) in &self.replicas {
            let (sim, _) = tracer.span("sim.setup", |_| self.simulation(config.clone()));
            let Some(sim) = pass.op("Simulation::new", sim) else {
                continue;
            };
            let (report, secs) =
                tracer.span("sim.run", |_| sim.run_with_telemetry(trace, telemetry));
            pass.sim_secs += secs;
            if let Some(report) = pass.op("sim.run", report) {
                pass.reports.push(report);
                pass.trace_lens.push(trace.len() as u64);
            }
        }
        pass
    }

    fn check(&self, reference: &Pass, _snapshot: &Snapshot, checks: &mut Checks) {
        checks.check(reference.reports.len() == self.replicas.len(), || {
            format!(
                "{} reports for {} replicas",
                reference.reports.len(),
                self.replicas.len()
            )
        });
        checks.reports_sound(reference);
        for (k, ((trace, config), sharded)) in
            self.replicas.iter().zip(&reference.reports).enumerate()
        {
            let sharded_json = serde_json::to_string(sharded).map_err(|e| e.to_string());
            let serial = self
                .simulation(serial(config))
                .and_then(|sim| sim.run(trace))
                .map_err(|e| e.to_string())
                .and_then(|r| serde_json::to_string(&r).map_err(|e| e.to_string()));
            let identical = matches!((&sharded_json, &serial), (Ok(a), Ok(b)) if a == b);
            checks.check(identical, || match serial {
                Ok(_) => {
                    format!("replica {k}: shards={SHARDS} report is not byte-identical to shards=1")
                }
                Err(e) => format!("replica {k}: shards=1 replay failed: {e}"),
            });
        }
        let (Some((trace, config)), Some(first)) =
            (self.replicas.first(), reference.reports.first())
        else {
            return;
        };
        let audited = self
            .simulation(SimConfig {
                audit: true,
                ..config.clone()
            })
            .and_then(|sim| sim.run(trace));
        let matches = audited.as_ref().is_ok_and(|r| r == first);
        checks.check(matches, || match audited {
            Ok(_) => "audited replay differs from the reference report".into(),
            Err(e) => format!("audited replay failed: {e}"),
        });
    }

    fn serial_replay_secs(&self) -> Option<f64> {
        let mut secs = 0.0;
        for (trace, config) in &self.replicas {
            let sim = self.simulation(serial(config)).ok()?;
            let started = Instant::now();
            let report = sim.run(trace);
            secs += started.elapsed().as_secs_f64();
            report.ok()?;
        }
        Some(secs)
    }

    fn shard_groups(&self) -> Option<usize> {
        Some(ShardPlan::decoupled(&self.layout, self.layout.n_servers()).n_shards)
    }
}
