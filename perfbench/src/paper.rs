//! `paper_sweep`: the paper's evaluation loop (Sec. 5, Figure 5).
//!
//! 8 servers at 1.8 Gbps, M = 200 ninety-minute 4 Mbps videos,
//! Zipf θ = 1, replication degree 1.2. Each pass replicates and places
//! for the four Figure-5 combos plus Adams+SLF, then replays seeded
//! Poisson/Zipf peak periods across the Figure-5 λ grid (4…60 req/min
//! around the 40 req/min capacity) on the serial engine, and finishes
//! with one single-chain SA-1 scalable-bit-rate anneal.

use crate::harness::{seeded, AnnealStats, Bench, Checks, Pass};
use crate::trace::Tracer;
use std::error::Error;
use vod_anneal::{
    anneal, AnnealParams, AnnealProblem, AnnealResult, CoolingSchedule, ScalableProblem,
    ScalableSearch,
};
use vod_core::{PlacementAlgo, ReplicationAlgo};
use vod_model::{
    BitRate, Catalog, ClusterSpec, Layout, ModelError, ObjectiveWeights, Popularity, ServerSpec,
};
use vod_placement::traits::PlacementInput;
use vod_sim::{SimConfig, SimReport, Simulation};
use vod_telemetry::{Snapshot, Telemetry};
use vod_workload::{Trace, TraceGenerator};

const N_SERVERS: usize = 8;
const N_VIDEOS: usize = 200;
const DURATION_S: u64 = 90 * 60;
const BANDWIDTH_KBPS: u64 = 1_800_000;
const HORIZON_MIN: f64 = 90.0;
const THETA: f64 = 1.0;
/// Figure 5a's replication degree.
const DEGREE: f64 = 1.2;
/// SA-1's storage sizing and planning demand (60% of link capacity).
const SA_DEGREE: f64 = 1.4;
const SA_DEMAND_SHARE: f64 = 0.6;
/// Seeded traces per (combo, λ) point in one pass.
const RUNS_PER_POINT: u64 = 2;
/// Seed tag of the anneal's RNG (trace seeds use three tags).
const ANNEAL_SEED_TAG: u64 = 0x5A;

/// The four Figure-5 combos, then Adams+SLF.
const COMBOS: [(ReplicationAlgo, PlacementAlgo); 5] = [
    (ReplicationAlgo::Classification, PlacementAlgo::RoundRobin),
    (
        ReplicationAlgo::Classification,
        PlacementAlgo::SmallestLoadFirst,
    ),
    (ReplicationAlgo::ZipfInterval, PlacementAlgo::RoundRobin),
    (
        ReplicationAlgo::ZipfInterval,
        PlacementAlgo::SmallestLoadFirst,
    ),
    (ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst),
];

/// Points of the Figure-5 arrival-rate grid: λ = 4, 8, …, 60 req/min.
const N_LAMBDAS: usize = 15;

fn cluster(degree: f64) -> Result<ClusterSpec, ModelError> {
    let slots = (degree * N_VIDEOS as f64 / N_SERVERS as f64).ceil() as u64;
    ClusterSpec::homogeneous(
        N_SERVERS,
        ServerSpec {
            storage_bytes: slots * BitRate::MPEG2.storage_bytes(DURATION_S),
            bandwidth_kbps: BANDWIDTH_KBPS,
        },
    )
}

/// The built world of one `paper_sweep` run.
pub struct PaperSweep {
    seed: u64,
    catalog: Catalog,
    cluster: ClusterSpec,
    popularity: Popularity,
    capacities: Vec<u64>,
    total_slots: u64,
    /// Planning demand `λT` at capacity, in requests.
    demand: f64,
    problem: ScalableProblem,
    anneal_params: AnnealParams,
}

impl PaperSweep {
    /// Builds catalog, cluster, popularity and the SA-1 problem.
    pub fn setup(seed: u64) -> Result<Self, Box<dyn Error>> {
        let catalog = Catalog::fixed_rate(N_VIDEOS, BitRate::MPEG2, DURATION_S)?;
        let cluster = cluster(DEGREE)?;
        let popularity = Popularity::zipf(N_VIDEOS, THETA)?;
        let capacities: Vec<u64> = cluster
            .servers()
            .iter()
            .map(|s| s.replica_slots(BitRate::MPEG2, DURATION_S))
            .collect();
        let streams = BANDWIDTH_KBPS / u64::from(BitRate::MPEG2.kbps()) * N_SERVERS as u64;
        let demand = streams as f64;
        let problem = ScalableProblem::new(
            popularity.clone(),
            self::cluster(SA_DEGREE)?,
            DURATION_S,
            BitRate::LADDER.to_vec(),
            demand * SA_DEMAND_SHARE,
            ObjectiveWeights::default(),
        )?;
        // SA-1's schedule on one chain: t0 scaled by 1/M so per-move
        // objective deltas stay commensurate with the temperature.
        let t0 = 20.0 / N_VIDEOS as f64;
        let anneal_params = AnnealParams {
            schedule: CoolingSchedule::Geometric {
                t0,
                alpha: 0.93,
                t_min: t0 * 1e-4,
            },
            epochs: 144,
            steps_per_epoch: 700,
        };
        Ok(PaperSweep {
            seed,
            total_slots: capacities.iter().sum(),
            catalog,
            cluster,
            popularity,
            capacities,
            demand,
            problem,
            anneal_params,
        })
    }

    fn replicate_and_place(
        &self,
        pass: &mut Pass,
        tracer: &mut Tracer,
        (replication, placement): (ReplicationAlgo, PlacementAlgo),
    ) -> Option<Layout> {
        let (planned, _) = tracer.span("replication", |_| {
            let scheme = replication.replicate(&self.popularity, N_SERVERS, self.total_slots)?;
            let weights = scheme.weights(&self.popularity, self.demand)?;
            Ok::<_, ModelError>((scheme, weights))
        });
        let (scheme, weights) = pass.op(replication.name(), planned)?;
        let (layout, _) = tracer.span("placement", |_| {
            placement.place(&PlacementInput {
                scheme: &scheme,
                weights: &weights,
                n_servers: N_SERVERS,
                capacities: &self.capacities,
            })
        });
        pass.op(placement.name(), layout)
    }

    fn trace(&self, combo: usize, lambda_idx: usize, run: u64) -> Result<Trace, ModelError> {
        let lambda = (lambda_idx + 1) as f64 * 4.0;
        let generator = TraceGenerator::new(lambda, &self.popularity, HORIZON_MIN)?;
        Ok(generator.generate(&mut seeded(
            self.seed,
            &[combo as u64, lambda_idx as u64, run],
        )))
    }

    fn config(&self) -> SimConfig {
        SimConfig {
            horizon_min: HORIZON_MIN,
            ..SimConfig::default()
        }
    }

    /// The pass's single-chain SA-1 anneal.
    fn anneal(&self) -> AnnealResult<ScalableSearch> {
        let mut rng = seeded(self.seed, &[ANNEAL_SEED_TAG]);
        anneal(
            &self.problem,
            self.problem.initial_search(),
            &self.anneal_params,
            &mut rng,
        )
    }

    /// Replays one (combo, λ, run) point outside the timed loop.
    fn replay_point(
        &self,
        combo: usize,
        lambda_idx: usize,
        run: u64,
        config: SimConfig,
    ) -> Result<SimReport, Box<dyn Error>> {
        let mut pass = Pass::default();
        let layout = self
            .replicate_and_place(
                &mut pass,
                &mut Tracer::off(std::time::Instant::now()),
                COMBOS[combo],
            )
            .ok_or_else(|| pass.errors.join("; "))?;
        let trace = self.trace(combo, lambda_idx, run)?;
        let sim = Simulation::new(&self.catalog, &self.cluster, &layout, config)?;
        Ok(sim.run(&trace)?)
    }
}

impl Bench for PaperSweep {
    fn pass(&self, telemetry: &Telemetry, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for (k, &combo) in COMBOS.iter().enumerate() {
            let Some(layout) = self.replicate_and_place(&mut pass, tracer, combo) else {
                continue;
            };
            let (sim, _) = tracer.span("sim.setup", |_| {
                Simulation::new(&self.catalog, &self.cluster, &layout, self.config())
            });
            let Some(sim) = pass.op("Simulation::new", sim) else {
                continue;
            };
            for i in 0..N_LAMBDAS {
                for r in 0..RUNS_PER_POINT {
                    let (trace, _) = tracer.span("workload", |_| self.trace(k, i, r));
                    let Some(trace) = pass.op("generate", trace) else {
                        continue;
                    };
                    pass.generated += trace.len() as u64;
                    let (report, secs) =
                        tracer.span("sim.run", |_| sim.run_with_telemetry(&trace, telemetry));
                    pass.sim_secs += secs;
                    if let Some(report) = pass.op("sim.run", report) {
                        pass.reports.push(report);
                        pass.trace_lens.push(trace.len() as u64);
                    }
                }
            }
        }
        let (result, _) = tracer.span("anneal", |_| self.anneal());
        pass.ops += 1;
        pass.anneal = Some(AnnealStats {
            steps: result.accepted + result.rejected,
            accepted: result.accepted,
            infeasible: result.infeasible,
            best_energy: result.best_energy,
        });
        pass
    }

    fn check(&self, reference: &Pass, _snapshot: &Snapshot, checks: &mut Checks) {
        let points = COMBOS.len() * N_LAMBDAS * RUNS_PER_POINT as usize;
        checks.check(reference.reports.len() == points, || {
            format!("{} reports for {points} points", reference.reports.len())
        });
        checks.reports_sound(reference);
        // The anneal tracks its energy incrementally; its best state,
        // re-scored from scratch, must be feasible and carry the energy
        // the anneal reported (up to the 1e-9 incremental drift the
        // anneal's own differential suite allows).
        let rerun = self.anneal();
        let rescored = self.problem.energy(&rerun.best_state);
        let feasible = self.problem.is_feasible(rerun.best_state.state());
        let repeats = reference
            .anneal
            .is_some_and(|a| a.steps > 0 && a.best_energy.to_bits() == rerun.best_energy.to_bits());
        let drift = (rescored - rerun.best_energy).abs();
        checks.check(
            repeats && feasible && drift <= 1e-9 * rescored.abs().max(1.0),
            || {
                format!(
                    "SA-1 anneal: best energy {} re-scores to {rescored} (feasible: {feasible})",
                    rerun.best_energy
                )
            },
        );
        // Audited replay of the heaviest point: Adams+SLF at λ = 60.
        let (combo, lambda_idx) = (COMBOS.len() - 1, N_LAMBDAS - 1);
        let audited = self.replay_point(
            combo,
            lambda_idx,
            0,
            SimConfig {
                audit: true,
                ..self.config()
            },
        );
        let index = (combo * N_LAMBDAS + lambda_idx) * RUNS_PER_POINT as usize;
        let matches = match &audited {
            Ok(report) => reference.reports.get(index) == Some(report),
            Err(_) => false,
        };
        checks.check(matches, || match audited {
            Ok(_) => "audited replay differs from the reference report".into(),
            Err(e) => format!("audited replay failed: {e}"),
        });
    }
}
