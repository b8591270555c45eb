//! Property test over the engine's configuration space: random small
//! worlds (pod-structured or bridged across pods, replicated, erasure
//! coded or mixed) under every feature the engine supports — injected
//! outages, brownouts and stochastic crashes, queueing admission with
//! retries and degradation, the online replication controller, repair,
//! each dispatch and failover policy — with the invariant auditor
//! forced on, so any broken invariant fails the run at the event that
//! broke it.
//!
//! Every case must:
//!
//! * run to completion (`Ok`);
//! * conserve requests: `admitted + rejected + abandoned == arrivals`,
//!   with every trace request counted as an arrival;
//! * replay byte-identically on a second run of the same inputs;
//! * report the same JSON when the trace is pulled through
//!   [`Simulation::run_streaming`] as when it is replayed with
//!   [`Simulation::run`].
//!
//! Half the cases draw every knob at random; the other half pin one of
//! five named policy combinations (plain, recovery, queueing,
//! brownout+degrade, backbone) on a random world.
//!
//! About a third of the worlds stripe some or all videos as
//! `Coded { k, m }` with `m ∈ {0, 1, 2}` and `k + m ≤ N`, including the
//! full-width `k = N, m = 0` wide stripe. A coded stream spans `k`
//! servers, which the online controller and backbone redirection do
//! not model, so binding rejects those combinations and coded cases
//! never draw them.

use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use vod_model::{
    BitRate, Catalog, ClusterSpec, Layout, RedundancyMap, RedundancyScheme, ServerId, ServerSpec,
    VideoId,
};
use vod_sim::{
    AdmissionConfig, AdmissionPolicy, BrownoutModel, ControllerConfig, FailoverPolicy,
    FailureModel, FailurePlan, Outage, QueuePolicy, RepairConfig, SimConfig, Simulation,
};
use vod_workload::{ArrivalSource, Request, Trace};

/// Everything that defines one case.
#[derive(Debug, Clone)]
struct Scenario {
    n_pods: usize,
    servers_per_pod: usize,
    videos_per_pod: usize,
    /// A video replicated across pod boundaries glues the replica graph
    /// together.
    bridge_video: bool,
    bandwidth_kbps: u64,
    duration_s: u64,
    /// Per-video coded stripe `(k, m)`, dealt over the whole cluster;
    /// `None` keeps the video's replicas. All `None` binds a plain
    /// replicated layout.
    stripes: Vec<Option<(u32, u32)>>,
    /// The named combination this case pins, or `"random"`.
    preset: &'static str,
    config: SimConfig,
    arrivals: Vec<Request>,
}

impl Scenario {
    fn n_servers(&self) -> usize {
        self.n_pods * self.servers_per_pod
    }

    fn n_videos(&self) -> usize {
        self.n_pods * self.videos_per_pod + usize::from(self.bridge_video)
    }

    fn world(&self) -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(self.n_videos(), BitRate::MPEG2, self.duration_s)
            .expect("valid catalog");
        let cluster = ClusterSpec::homogeneous(
            self.n_servers(),
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: self.bandwidth_kbps,
            },
        )
        .expect("valid cluster");
        let mut replicas: Vec<Vec<ServerId>> = Vec::with_capacity(self.n_videos());
        for v in 0..self.n_pods * self.videos_per_pod {
            let pod = v % self.n_pods;
            let base = pod * self.servers_per_pod;
            // Each pod video sits on up to two servers of its own pod.
            let first = base + v % self.servers_per_pod;
            let mut set = vec![ServerId(first as u32)];
            if self.servers_per_pod > 1 {
                let second = base + (v + 1) % self.servers_per_pod;
                set.push(ServerId(second as u32));
            }
            replicas.push(set);
        }
        if self.bridge_video {
            // One replica in the first and one in the last pod.
            let last_base = (self.n_pods - 1) * self.servers_per_pod;
            replicas.push(vec![ServerId(0), ServerId(last_base as u32)]);
        }
        let layout = if self.stripes.iter().all(Option::is_none) {
            Layout::new(self.n_servers(), replicas).expect("valid layout")
        } else {
            let n = self.n_servers();
            let mut schemes = Vec::with_capacity(replicas.len());
            for (v, (set, stripe)) in replicas.iter_mut().zip(&self.stripes).enumerate() {
                match *stripe {
                    Some((k, m)) => {
                        // Rotate the first holder per video, like
                        // `place_coded`, so fragment load spreads.
                        let holders = (k + m) as usize;
                        *set = (0..holders)
                            .map(|i| ServerId(((v * holders + i) % n) as u32))
                            .collect();
                        schemes.push(RedundancyScheme::Coded { k, m });
                    }
                    None => schemes.push(RedundancyScheme::Replicated {
                        r: set.len() as u32,
                    }),
                }
            }
            let map = RedundancyMap::new(schemes).expect("non-empty map");
            Layout::with_redundancy(n, replicas, map).expect("valid coded layout")
        };
        (catalog, cluster, layout)
    }
}

/// A brownout model harsh enough to force shedding on small links.
const BROWNOUTS: BrownoutModel = BrownoutModel {
    mtbf_min: 40.0,
    mttr_min: 12.0,
    min_capacity_frac: 0.3,
    max_capacity_frac: 0.7,
};

/// One of the five named policy combinations; a coded world never
/// draws the backbone one.
fn preset_config(rng: &mut TestRng, coded: bool) -> (&'static str, SimConfig) {
    match rng.gen_range(0u32..if coded { 4 } else { 5 }) {
        0 => ("plain", SimConfig::default()),
        1 => (
            "recovery",
            SimConfig {
                policy: AdmissionPolicy::RoundRobinFailover,
                failure_model: Some(FailureModel::exponential(45.0, 12.0, 0xF00D)),
                repair: RepairConfig {
                    bandwidth_kbps: 80_000,
                    max_concurrent: 4,
                },
                failover: FailoverPolicy::ResumeOrDegrade,
                ..SimConfig::default()
            },
        ),
        2 => (
            "queueing",
            SimConfig {
                admission: AdmissionConfig {
                    policy: QueuePolicy::Queue { patience_min: 2.0 },
                    max_retries: 2,
                    ..AdmissionConfig::default()
                },
                ..SimConfig::default()
            },
        ),
        3 => (
            "brownout+degrade",
            SimConfig {
                policy: AdmissionPolicy::RoundRobinFailover,
                failure_model: Some(FailureModel::brownouts_only(BROWNOUTS, 0xB120)),
                failover: FailoverPolicy::ResumeOrDegrade,
                admission: AdmissionConfig {
                    policy: QueuePolicy::QueueOrDegrade { patience_min: 1.0 },
                    max_retries: 2,
                    ..AdmissionConfig::default()
                },
                ..SimConfig::default()
            },
        ),
        _ => (
            "backbone",
            SimConfig {
                policy: AdmissionPolicy::BackboneRedirect {
                    backbone_capacity_kbps: 400_000,
                },
                ..SimConfig::default()
            },
        ),
    }
}

/// Every knob drawn independently, except that a coded world draws
/// neither backbone redirection nor the controller.
fn random_config(rng: &mut TestRng, n_servers: usize, coded: bool) -> SimConfig {
    let policy = match rng.gen_range(0u32..if coded { 7 } else { 8 }) {
        0..=3 => AdmissionPolicy::StaticRoundRobin,
        4..=5 => AdmissionPolicy::RoundRobinFailover,
        6 => AdmissionPolicy::LeastLoadedReplica,
        _ => AdmissionPolicy::BackboneRedirect {
            backbone_capacity_kbps: 8_000 + 4_000 * rng.gen_range(0u64..4),
        },
    };
    let admission = match rng.gen_range(0u32..4) {
        0..=1 => AdmissionConfig::default(),
        2 => AdmissionConfig {
            policy: QueuePolicy::Queue {
                patience_min: 1.0 + rng.gen_range(0u32..4) as f64,
            },
            max_retries: rng.gen_range(0u32..3),
            retry_backoff_min: 0.5,
            seed: rng.gen(),
        },
        _ => AdmissionConfig {
            policy: QueuePolicy::QueueOrDegrade { patience_min: 2.0 },
            max_retries: 1,
            retry_backoff_min: 1.0,
            seed: rng.gen(),
        },
    };
    let failures = if rng.gen_bool(0.3) {
        let down = 5.0 + rng.gen_range(0u32..60) as f64;
        FailurePlan::new(vec![Outage {
            server: ServerId(rng.gen_range(0u32..n_servers as u32)),
            down_at_min: down,
            up_at_min: rng.gen_bool(0.5).then_some(down + 10.0),
        }])
        .expect("valid outage plan")
    } else {
        FailurePlan::none()
    };
    let failure_model = match rng.gen_range(0u32..6) {
        0 => Some(FailureModel::exponential(
            40.0 + rng.gen_range(0u32..40) as f64,
            5.0,
            rng.gen(),
        )),
        1 => Some(FailureModel::brownouts_only(BROWNOUTS, rng.gen())),
        2 => {
            let mut model = FailureModel::exponential(60.0, 8.0, rng.gen());
            model.brownouts = Some(BROWNOUTS);
            Some(model)
        }
        _ => None,
    };
    let failover = match rng.gen_range(0u32..3) {
        0 => FailoverPolicy::Kill,
        1 => FailoverPolicy::Resume,
        _ => FailoverPolicy::ResumeOrDegrade,
    };
    let repair = if rng.gen_bool(0.4) {
        RepairConfig {
            bandwidth_kbps: 2_000,
            max_concurrent: 4,
        }
    } else {
        RepairConfig::default()
    };
    let controller = if !coded && rng.gen_bool(0.3) {
        ControllerConfig {
            tick_min: 5.0,
            ..ControllerConfig::default()
        }
    } else {
        ControllerConfig::default()
    };
    SimConfig {
        policy,
        failures,
        failure_model,
        repair,
        controller,
        failover,
        admission,
        ..SimConfig::default()
    }
}

/// The coded stripes of one world: none (two thirds of the worlds),
/// the full-width `k = N, m = 0` wide stripe on every video, or random
/// `(k, m)` stripes with `m ∈ {0, 1, 2}` and `k + m ≤ N` on all or
/// some of the videos.
fn draw_stripes(rng: &mut TestRng, n_servers: u32, n_videos: usize) -> Vec<Option<(u32, u32)>> {
    let random_stripe = |rng: &mut TestRng| {
        let m = rng.gen_range(0..=2.min(n_servers - 1));
        Some((rng.gen_range(1..=n_servers - m), m))
    };
    match rng.gen_range(0u32..9) {
        0 => vec![Some((n_servers, 0)); n_videos],
        1 => (0..n_videos).map(|_| random_stripe(rng)).collect(),
        2 => (0..n_videos)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    random_stripe(rng)
                } else {
                    None
                }
            })
            .collect(),
        _ => vec![None; n_videos],
    }
}

/// Scenario generator. Domains are small on purpose: few servers with
/// one-to-four stream links force admission contention, and short
/// videos force departure/arrival interleaving.
#[derive(Clone, Copy, Debug)]
struct ScenarioStrategy;

impl Strategy for ScenarioStrategy {
    type Value = Scenario;

    fn generate(&self, rng: &mut TestRng) -> Scenario {
        let n_pods = rng.gen_range(1usize..=4);
        let servers_per_pod = rng.gen_range(1usize..=3);
        let videos_per_pod = rng.gen_range(1usize..=4);
        let bridge_video = n_pods > 1 && rng.gen_bool(0.3);
        let n_servers = n_pods * servers_per_pod;
        let n_videos = n_pods * videos_per_pod + usize::from(bridge_video);
        let stripes = draw_stripes(rng, n_servers as u32, n_videos);
        let coded = stripes.iter().any(Option::is_some);

        let (preset, config) = if rng.gen_bool(0.5) {
            ("random", random_config(rng, n_servers, coded))
        } else {
            preset_config(rng, coded)
        };
        let config = SimConfig {
            audit: true,
            ..config
        };

        let n_arrivals = rng.gen_range(10usize..120);
        let mut at = 0.0f64;
        let mut arrivals = Vec::with_capacity(n_arrivals);
        for _ in 0..n_arrivals {
            at += rng.gen_range(0u32..180) as f64 / 100.0; // 0–1.8 min gaps
            if at >= 88.0 {
                break; // stay inside the 90-minute horizon
            }
            arrivals.push(Request {
                arrival_min: at,
                video: VideoId(rng.gen_range(0u32..n_videos as u32)),
            });
        }

        Scenario {
            n_pods,
            servers_per_pod,
            videos_per_pod,
            bridge_video,
            bandwidth_kbps: 4_000 * rng.gen_range(1u64..=4),
            duration_s: 60 * rng.gen_range(3u64..=15),
            stripes,
            preset,
            config,
            arrivals,
        }
    }
}

/// A materialized request list served through the pull-based source
/// API, so the streaming entry point can be compared against `run`.
struct Replay {
    requests: std::vec::IntoIter<Request>,
    horizon_min: f64,
}

impl ArrivalSource for Replay {
    fn next_request(&mut self) -> Option<Request> {
        self.requests.next()
    }

    fn horizon_min(&self) -> f64 {
        self.horizon_min
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_config_runs_clean_conserves_and_replays(scenario in ScenarioStrategy) {
        let (catalog, cluster, layout) = scenario.world();
        let trace = Trace::new(scenario.arrivals.clone()).expect("arrivals are sorted");
        let sim = Simulation::new(&catalog, &cluster, &layout, scenario.config.clone())
            .expect("generated config binds");

        let report = sim.run(&trace);
        prop_assert!(report.is_ok(), "run failed: {:?} for {:?}", report, scenario);
        let report = report.expect("checked above");
        prop_assert_eq!(report.arrivals, trace.len() as u64, "{:?}", scenario);
        prop_assert_eq!(
            report.admitted + report.rejected + report.abandoned,
            report.arrivals,
            "request outcomes do not add up for {:?}",
            scenario
        );

        let json = serde_json::to_string(&report).expect("report serializes");
        let rerun = sim.run(&trace).expect("rerun");
        prop_assert_eq!(
            &json,
            &serde_json::to_string(&rerun).expect("report serializes"),
            "rerun diverged for {:?}",
            scenario
        );

        let streamed = sim
            .run_streaming(Replay {
                requests: scenario.arrivals.clone().into_iter(),
                horizon_min: scenario.config.horizon_min,
            })
            .expect("streaming run");
        prop_assert_eq!(
            &json,
            &serde_json::to_string(&streamed).expect("report serializes"),
            "streaming replay diverged for {} {:?}",
            scenario.preset,
            scenario
        );
    }
}
