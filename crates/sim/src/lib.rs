//! Discrete-event simulator of a distributed-storage VoD cluster.
//!
//! Reproduces the evaluation substrate of Zhou & Xu (ICPP 2002), Sec. 5:
//! requests arrive by a Poisson process during a 90-minute peak period,
//! each picks a video by Zipf-like popularity, the dispatcher routes it to
//! a replica of that video under a *static round-robin scheduling policy*,
//! and "a request was rejected if required communication bandwidth was
//! unavailable". An admitted stream occupies the video's bit rate on the
//! serving server's outgoing link for the full video duration.
//!
//! Modules:
//!
//! * [`time`] — integer millisecond simulation time (total order, no float
//!   comparisons on the event queue);
//! * [`event`] — the departure event queue: one FIFO lane per stream
//!   duration behind a small heap (arrivals replay in trace order, so
//!   only departures need queueing);
//! * [`server`] — per-server outgoing-link occupancy;
//! * [`dispatch`] — admission policies: the paper's strict static
//!   round-robin, plus least-loaded-replica, round-robin failover, and the
//!   backbone-redirection extension of the authors' follow-up work \[19\];
//! * [`admission`] — the overload pipeline: FIFO wait queue with client
//!   patience, bounded retries with backoff, degrade-at-admission;
//! * [`failure`] — injected server outages (availability experiments),
//!   the stochastic MTBF/MTTR fault model (recovery experiments), and
//!   partial bandwidth brownouts;
//! * [`repair`] — mid-run re-replication of lost redundancy and the
//!   stream-failover policies (resume / graceful degradation); the
//!   shared actuation mechanism (metered copies, storage reservations,
//!   surplus retirement) lives in the private `actuation` module;
//! * [`controller`] — the online replication controller: EWMA sensing of
//!   observed per-video demand, hysteresis hot/cold classification, and
//!   periodic re-replication/retirement of drifting titles;
//! * [`metrics`] — rejection accounting and load-imbalance sampling;
//! * [`shard`] — the replica-graph partition of servers into independent
//!   groups (a layout diagnostic; the engine does not shard);
//! * [`engine`] — the run loop tying it together.
//!
//! The serial run loop is allocation-free on the hot path: every arrival
//! and every departure, including the repair pump a departure triggers
//! (it returns at the copy cap before touching any state, and below the
//! cap reuses the actuator's own buffers). Topology events — a crash and
//! its replan, a recovery, a copy starting or completing — may allocate,
//! and a coded reconstruction allocates its `k − 1` extra read sources
//! once when it starts. There is one event loop: a run executes
//! serially on the calling thread, whatever the entry point
//! (materialized trace or streaming source). Parallelism lives one level
//! up, where the experiment runner fans out independent replications
//! across threads.
//!
//! ```
//! use vod_model::{BitRate, Catalog, ClusterSpec, Layout, ServerId, ServerSpec};
//! use vod_sim::{SimConfig, Simulation};
//! use vod_workload::{Request, Trace};
//! use vod_model::VideoId;
//!
//! // One 10-minute video on a 1-stream server: the second concurrent
//! // request is rejected, the third (after the first ends) admitted.
//! let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
//! let cluster = ClusterSpec::homogeneous(1, ServerSpec {
//!     storage_bytes: u64::MAX,
//!     bandwidth_kbps: 4_000,
//! }).unwrap();
//! let layout = Layout::new(1, vec![vec![ServerId(0)]]).unwrap();
//! let trace = Trace::new(vec![
//!     Request { arrival_min: 0.0, video: VideoId(0) },
//!     Request { arrival_min: 5.0, video: VideoId(0) },
//!     Request { arrival_min: 10.0, video: VideoId(0) },
//! ]).unwrap();
//!
//! let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::default()).unwrap();
//! let report = sim.run(&trace).unwrap();
//! assert_eq!((report.admitted, report.rejected), (2, 1));
//! assert!(report.is_conservative());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod actuation;
pub mod admission;
mod audit;
pub mod controller;
pub mod dispatch;
pub mod engine;
pub mod event;
pub mod failure;
pub mod metrics;
pub mod repair;
pub mod server;
pub mod shard;
pub mod time;

pub use admission::{AdmissionConfig, QueuePolicy};
pub use controller::ControllerConfig;
pub use dispatch::AdmissionPolicy;
pub use engine::{SimConfig, Simulation};
pub use failure::{Brownout, BrownoutModel, FailureModel, FailurePlan, Outage, RackFailures};
pub use metrics::SimReport;
pub use repair::{FailoverPolicy, RepairConfig};
pub use shard::ShardPlan;
pub use time::SimTime;
