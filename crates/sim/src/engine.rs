//! The simulation run loop.
//!
//! A [`Simulation`] binds a catalog, a cluster and a layout; [`Simulation::run`]
//! replays a request trace through the admission policy and produces a
//! [`SimReport`]. The loop is event-ordered: before each arrival, every
//! background event due at an earlier (or equal) instant is processed —
//! stream departures first (bandwidth frees up), then failure/recovery
//! transitions (killed streams are counted as disrupted), then load
//! samples (they observe the settled state).
//!
//! Failure bookkeeping: a departing stream releases its link bandwidth
//! only if its admission epoch still matches the server's failure epoch;
//! otherwise the stream was already killed by [`LinkState::fail`] and the
//! departure is stale. Backbone reservations of redirected streams are
//! reclaimed at the stream's *scheduled* end even if the proxy failed
//! earlier — a deliberate, documented simplification (the backbone pool
//! is shared, so the error is a short-lived over-reservation).

use crate::actuation::ReplicaActuator;
use crate::admission::{AdmissionConfig, AdmissionState, PendingRequest};
use crate::audit::{Auditor, Ledger};
use crate::controller::{ControllerConfig, DriftController};
use crate::dispatch::{AdmissionPolicy, Decision, Dispatcher};
use crate::event::{Departure, DepartureQueue, NO_STREAM};
use crate::failure::{FailureModel, FailurePlan, Transition, TransitionKind};
use crate::metrics::{MetricsCollector, SimReport};
use crate::repair::{FailoverPolicy, RepairConfig};
use crate::server::LinkState;
use crate::time::SimTime;
use vod_model::{
    BitRate, Catalog, ClusterSpec, Layout, ModelError, RedundancyMap, ServerId, VideoId,
};
use vod_telemetry::{Counter, Histogram, Telemetry};
use vod_workload::{ArrivalIter, ArrivalSource, Request, Trace};

/// Epoch sentinel for departures that were already shed by a brownout:
/// real epochs start at 0 and bump once per failure, so `u32::MAX` never
/// matches and the pop releases only the backbone reservation.
const SHED_EPOCH: u32 = u32::MAX;

/// Run-time knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How requests are routed and admitted.
    pub policy: AdmissionPolicy,
    /// Peak-period length in minutes; load sampling and the report's
    /// time averages cover `[0, horizon_min]`. The paper uses 90.
    pub horizon_min: f64,
    /// Load-sampling cadence in minutes.
    pub sample_interval_min: f64,
    /// Injected server outages (empty = the paper's failure-free runs).
    pub failures: FailurePlan,
    /// Stochastic fault injection: compiled to outages at run start and
    /// merged with `failures`. Deterministic per the model's seed.
    pub failure_model: Option<FailureModel>,
    /// Mid-run re-replication of lost redundancy (off by default).
    pub repair: RepairConfig,
    /// Online replication controller: periodic re-replication and
    /// retirement driven by *observed* popularity drift (off by
    /// default). Actuates through the shared `repair` bandwidth budget,
    /// so enabling it without repair bandwidth senses but never copies.
    pub controller: ControllerConfig,
    /// What happens to a failing server's active streams (kill by
    /// default — the paper's implicit behavior).
    pub failover: FailoverPolicy,
    /// Record the full per-sample load series in the report (off by
    /// default; used for plotting Figure-6-style time series).
    pub record_series: bool,
    /// Overload admission pipeline: wait queue, patience, retries. The
    /// default ([`AdmissionConfig::default`]) is fully passive and
    /// byte-identical to the pre-pipeline blocking engine.
    pub admission: AdmissionConfig,
    /// Run the invariant auditor in release builds too (debug builds
    /// always audit). Auditing only reads state: it never changes a
    /// run's outcome, only whether a corrupted run fails fast.
    pub audit: bool,
    /// Kept for configuration compatibility: validated (`0` is rejected)
    /// but without effect on execution. Every run uses the one serial
    /// event loop; parallelism lives in the experiment runner, which
    /// fans out independent replications. See DESIGN.md §7.
    pub shards: usize,
}

impl Default for SimConfig {
    /// The paper's defaults: strict static round-robin admission, a
    /// 90-minute peak period, 1-minute load samples, no failures, no
    /// repair, no failover.
    fn default() -> Self {
        SimConfig {
            policy: AdmissionPolicy::StaticRoundRobin,
            horizon_min: 90.0,
            sample_interval_min: 1.0,
            failures: FailurePlan::none(),
            failure_model: None,
            repair: RepairConfig::default(),
            controller: ControllerConfig::default(),
            failover: FailoverPolicy::Kill,
            record_series: false,
            admission: AdmissionConfig::default(),
            audit: false,
            shards: 1,
        }
    }
}

impl SimConfig {
    /// Alias for [`Default::default`], spelling out the provenance.
    pub fn paper_default() -> Self {
        Self::default()
    }
}

/// A bound simulation: catalog + cluster + layout + config.
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    catalog: &'a Catalog,
    cluster: &'a ClusterSpec,
    layout: &'a Layout,
    config: SimConfig,
}

impl<'a> Simulation<'a> {
    /// Binds and cross-validates the inputs (dimensions and the storage
    /// constraint (4); bandwidth is enforced dynamically by admission).
    pub fn new(
        catalog: &'a Catalog,
        cluster: &'a ClusterSpec,
        layout: &'a Layout,
        config: SimConfig,
    ) -> Result<Self, ModelError> {
        if layout.n_videos() != catalog.len() {
            return Err(ModelError::LengthMismatch {
                expected: layout.n_videos(),
                actual: catalog.len(),
            });
        }
        if layout.n_servers() != cluster.len() {
            return Err(ModelError::LengthMismatch {
                expected: layout.n_servers(),
                actual: cluster.len(),
            });
        }
        if !config.horizon_min.is_finite() || config.horizon_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "horizon_min",
                value: config.horizon_min,
            });
        }
        if !config.sample_interval_min.is_finite() || config.sample_interval_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "sample_interval_min",
                value: config.sample_interval_min,
            });
        }
        config.failures.validate_servers(cluster.len())?;
        if let Some(model) = &config.failure_model {
            model.validate(cluster.len())?;
        }
        config.admission.validate()?;
        config.controller.validate()?;
        if config.shards == 0 {
            return Err(ModelError::InvalidParameter {
                name: "shards",
                value: 0.0,
            });
        }
        if layout.any_coded() {
            // A coded stream spans k servers; the online controller's
            // replica moves and the backbone's whole-copy redirects both
            // assume one-server streams. Reject the combinations rather
            // than silently mis-accounting.
            if config.controller.enabled() {
                return Err(ModelError::InvalidParameter {
                    name: "controller with coded layout",
                    value: 1.0,
                });
            }
            if matches!(config.policy, AdmissionPolicy::BackboneRedirect { .. }) {
                return Err(ModelError::InvalidParameter {
                    name: "backbone redirect with coded layout",
                    value: 1.0,
                });
            }
        }
        layout.validate_storage(catalog, cluster)?;
        Ok(Simulation {
            catalog,
            cluster,
            layout,
            config,
        })
    }

    /// The bound configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays `trace` and reports the outcome.
    pub fn run(&self, trace: &Trace) -> Result<SimReport, ModelError> {
        self.run_source(trace.requests().iter().copied(), &Telemetry::disabled())
    }

    /// Replays `trace`, recording engine counters and timings into
    /// `telemetry` (see the `sim.*` instrument names below). With a
    /// disabled handle this is identical to [`Simulation::run`]: every
    /// instrument operation reduces to a branch on `None`.
    ///
    /// Instruments: counters `sim.arrivals`, `sim.admitted`,
    /// `sim.rejected`, `sim.redirected`, `sim.departures`,
    /// `sim.disrupted`, `sim.transitions`, `sim.samples`,
    /// `sim.admission_probes`, `sim.events`; span `sim.run` (seconds);
    /// histograms `sim.engine.events_per_sec` (one observation per run)
    /// and `sim.queue.peak_len` (per-run peak of concurrently scheduled
    /// departures). With
    /// recovery active, additionally: counters `sim.streams.resumed`,
    /// `sim.streams.degraded`, `sim.repair.bytes_copied`,
    /// `sim.repair.copies`; histogram `sim.repair.time_to_redundancy_min`
    /// (one observation per run). With the admission pipeline or
    /// brownouts active, additionally: counters `sim.admission.queued`,
    /// `sim.admission.retried`, `sim.admission.abandoned`,
    /// `sim.admission.degraded`, `sim.brownout.active_min`; histogram
    /// `sim.admission.wait_min_pctl` (one observation per served
    /// request). With the online replication controller active,
    /// additionally: counters `sim.controller.ticks`,
    /// `sim.controller.backoffs`, `sim.controller.promotions`,
    /// `sim.controller.demotions`, `sim.controller.retired`,
    /// `sim.controller.copies`, `sim.controller.bytes_copied`.
    pub fn run_with_telemetry(
        &self,
        trace: &Trace,
        telemetry: &Telemetry,
    ) -> Result<SimReport, ModelError> {
        self.run_source(trace.requests().iter().copied(), telemetry)
    }

    /// Replays a pull-based [`ArrivalSource`] and reports the outcome.
    ///
    /// The streaming twin of [`Simulation::run`]: arrivals are pulled
    /// lazily and merged into the `(time, seq)` event order one at a
    /// time, so the run's footprint is bounded by the concurrency peak
    /// (plus the source's O(catalog) state), never by the trace length.
    /// For a source that is draw-for-draw identical to a materialized
    /// generator (see `vod_workload::arrival`), the report is identical
    /// to running the materialized trace.
    pub fn run_streaming<S: ArrivalSource>(&self, source: S) -> Result<SimReport, ModelError> {
        self.run_source(ArrivalIter(source), &Telemetry::disabled())
    }

    /// [`Simulation::run_streaming`] with engine counters and timings
    /// recorded into `telemetry` — the same instrument set as
    /// [`Simulation::run_with_telemetry`].
    pub fn run_streaming_with_telemetry<S: ArrivalSource>(
        &self,
        source: S,
        telemetry: &Telemetry,
    ) -> Result<SimReport, ModelError> {
        self.run_source(ArrivalIter(source), telemetry)
    }

    /// The event loop behind every entry point. Arrivals are consumed
    /// lazily, one at a time, merged against the `(time, seq)` event
    /// queue; the loop never needs the stream's length or its backing
    /// storage.
    fn run_source<I>(&self, requests: I, telemetry: &Telemetry) -> Result<SimReport, ModelError>
    where
        I: Iterator<Item = Request>,
    {
        let span = telemetry.span("sim.run");
        let ct = EngineCounters::new(telemetry);
        // Counters are cumulative across runs sharing this handle; this
        // run's event count is the delta over the starting values.
        let events_before = ct.events();
        // Hot per-video state, struct-of-arrays: the arrival loop reads
        // one u32 rate word and one u32 duration word per request
        // instead of chasing the catalog's full `Video` records.
        let videos = VideoTable::new(self.catalog)?;
        let mut state = self.build_state()?;
        for req in requests {
            let t = SimTime::from_min(req.arrival_min);
            state.advance_to(t, &ct)?;
            let video = req.video;
            let (kbps, duration_s) = videos
                .get(video.index())
                .ok_or(ModelError::UnknownVideo(video))?;
            ct.arrivals.inc();
            state.metrics.on_arrival(video.index());
            state.metrics.on_offered(kbps, duration_s);
            if let Some(d) = state.drift.as_mut() {
                // The controller senses *observed* offered demand, never
                // the generator's true rates.
                d.observe(video.index());
            }
            state.handle_request(
                t,
                PendingRequest {
                    video,
                    kbps,
                    duration_s,
                    arrived: t,
                    retries_left: self.config.admission.max_retries,
                    attempt: 0,
                },
                &ct,
            );
            state.audit_check(t)?;
            debug_assert!(state.links.within_capacity());
        }
        let report = self.finish_core(state, telemetry, &ct)?;
        if telemetry.is_enabled() {
            let events = ct.events() - events_before;
            telemetry.counter("sim.events").add(events);
            let elapsed = span.elapsed_secs();
            if elapsed > 0.0 {
                telemetry
                    .histogram("sim.engine.events_per_sec")
                    .observe(events as f64 / elapsed);
            }
        }
        Ok(report)
    }

    /// Binds the mutable run-loop state: compiled failure transitions,
    /// the actuation layer, coded-serving state and the departure queue.
    fn build_state(&self) -> Result<RunState<'a>, ModelError> {
        // Fixed outages plus, when configured, the stochastic model's
        // draws for this horizon (deterministic per the model's seed).
        // The compiled plan is consumed, not cloned, and the fixed plan
        // is only copied when the two actually have to merge.
        let transitions = match &self.config.failure_model {
            Some(model) => {
                let compiled = model.compile(self.cluster.len(), self.config.horizon_min)?;
                if self.config.failures.is_empty() {
                    // `compile` already merged its own overlaps.
                    compiled.transitions()
                } else {
                    let (mut outages, mut brownouts) = compiled.into_parts();
                    outages.extend_from_slice(self.config.failures.outages());
                    brownouts.extend_from_slice(self.config.failures.brownouts());
                    FailurePlan::merged(outages)?
                        .add_brownouts(brownouts)?
                        .transitions()
                }
            }
            None => self.config.failures.transitions(),
        };
        // The actuation layer engages when failures can happen or the
        // online controller needs to move replicas. With repair disabled
        // it is pure bookkeeping: its content map stays identical to the
        // bound layout, so dispatch is unchanged.
        let drift_on = self.config.controller.enabled();
        let controller = if transitions.is_empty() && !drift_on {
            None
        } else {
            Some(ReplicaActuator::new(
                self.catalog,
                self.cluster,
                self.layout,
                self.config.repair,
            ))
        };
        let drift =
            drift_on.then(|| DriftController::new(self.catalog.len(), self.config.controller));
        let first_tick_min = self.config.controller.tick_min;

        let coded = self
            .layout
            .redundancy()
            .filter(|m| m.any_coded())
            .map(|m| CodedState {
                schemes: m.clone(),
                streams: Vec::new(),
                free: Vec::new(),
                chosen: Vec::new(),
                degraded_reads: 0,
                shares_reattached: 0,
            });
        let rack_of = if coded.is_some() {
            let mut rack_of = vec![u32::MAX; self.cluster.len()];
            if let Some(model) = &self.config.failure_model {
                for (r, rack) in model.racks.iter().enumerate() {
                    for &s in &rack.servers {
                        if rack_of[s.index()] == u32::MAX {
                            rack_of[s.index()] = r as u32;
                        }
                    }
                }
            }
            rack_of
        } else {
            Vec::new()
        };
        let controller = controller.map(|mut c| {
            if !rack_of.is_empty() {
                // Coded repair destinations honor the same per-rack
                // fragment bound the auditor enforces.
                c.set_rack_map(rack_of.clone());
            }
            c
        });

        let mut state = RunState {
            links: LinkState::new(self.cluster),
            dispatcher: Dispatcher::new(self.config.policy, self.catalog.len()),
            metrics: MetricsCollector::new(self.catalog.len()),
            departures: DepartureQueue::with_capacity(self.cluster.len()),
            controller,
            coded,
            rack_of,
            layout: self.layout,
            transitions,
            next_transition: 0,
            next_sample_min: 0.0,
            next_sample_at: Some(SimTime::from_min(0.0)),
            sample_step: self.config.sample_interval_min,
            drift,
            next_ctrl_min: first_tick_min,
            next_ctrl_at: (drift_on && first_tick_min <= self.config.horizon_min)
                .then(|| SimTime::from_min(first_tick_min)),
            ctrl_step: first_tick_min,
            horizon: self.config.horizon_min,
            failover: self.config.failover,
            admission: AdmissionState::new(&self.config.admission),
            auditor: (cfg!(debug_assertions) || self.config.audit).then(Auditor::new),
            audited_holders: None,
            brownout_started: vec![None; self.cluster.len()],
            brownout_min: 0.0,
            load_scratch: Vec::new(),
            extract_scratch: Vec::new(),
            fifo_scratch: Vec::new(),
        };
        state.metrics.record_series(self.config.record_series);
        Ok(state)
    }

    /// Horizon tail: runs the remaining background events, settles the
    /// admission pipeline and brownout windows, releases post-horizon
    /// streams, folds the feature-gated telemetry and finalizes the
    /// report.
    fn finish_core(
        &self,
        mut state: RunState,
        telemetry: &Telemetry,
        ct: &EngineCounters,
    ) -> Result<SimReport, ModelError> {
        // Tail: run the remaining background events out to the horizon,
        // abort any still-in-flight repair copies (releasing their
        // reservations), then retire whatever still streams past it.
        state.advance_to(SimTime::from_min(self.config.horizon_min), ct)?;
        if let Some(c) = state.controller.as_mut() {
            c.finish(
                self.config.horizon_min,
                &mut state.links,
                &mut state.dispatcher,
            );
        }
        // Requests the pipeline still owes an outcome at the horizon
        // (queued or sleeping until a retry) count as abandoned: the peak
        // period ended before they were served.
        for _ in state.admission.drain_remaining() {
            ct.abandoned.inc();
            state.metrics.on_abandoned();
        }
        // Close brownout windows still open at the horizon.
        for j in 0..state.brownout_started.len() {
            if let Some(start) = state.brownout_started[j].take() {
                state.brownout_min += (self.config.horizon_min - start.as_min()).max(0.0);
            }
        }
        state.metrics.set_brownout_active_min(state.brownout_min);
        state.audit_check(SimTime::from_min(self.config.horizon_min))?;
        for d in state.departures.drain_all() {
            ct.departures.inc();
            state.release_departure(&d);
        }
        debug_assert_eq!(state.links.total_streams(), 0);
        debug_assert_eq!(state.dispatcher.backbone_used_kbps(), 0);
        debug_assert!(state
            .coded
            .as_ref()
            .is_none_or(|cs| cs.free.len() == cs.streams.len()));

        if let Some(c) = &state.controller {
            state.metrics.set_recovery_stats(
                c.bytes_copied(),
                c.copies_completed(),
                c.deficit_min(),
                c.deficit_video_min(),
                c.unavailability_video_min(),
            );
            telemetry
                .counter("sim.repair.bytes_copied")
                .add(c.bytes_copied());
            telemetry
                .counter("sim.repair.copies")
                .add(c.copies_completed());
            telemetry
                .histogram("sim.repair.time_to_redundancy_min")
                .observe(c.deficit_min());
        }

        if let Some(cs) = &state.coded {
            // Coded-tier instruments exist only for coded runs, so
            // all-replicated manifests stay byte-identical to pre-coding
            // ones.
            telemetry
                .counter("sim.coded.degraded_reads")
                .add(cs.degraded_reads);
            telemetry
                .counter("sim.coded.shares_reattached")
                .add(cs.shares_reattached);
            if let Some(c) = &state.controller {
                telemetry
                    .counter("sim.repair.coded.reconstructions")
                    .add(c.coded_reconstructions());
                telemetry
                    .counter("sim.repair.coded.bytes")
                    .add(c.coded_bytes_read());
            }
        }

        if let Some(d) = &state.drift {
            let (copies, bytes) = state
                .controller
                .as_ref()
                .map(|c| (c.drift_copies_completed(), c.drift_bytes_copied()))
                .unwrap_or((0, 0));
            state.metrics.set_controller_stats(
                d.ticks(),
                d.backoffs(),
                d.promotions(),
                d.demotions(),
                d.retired(),
                copies,
                bytes,
            );
            telemetry.counter("sim.controller.ticks").add(d.ticks());
            telemetry
                .counter("sim.controller.backoffs")
                .add(d.backoffs());
            telemetry
                .counter("sim.controller.promotions")
                .add(d.promotions());
            telemetry
                .counter("sim.controller.demotions")
                .add(d.demotions());
            telemetry.counter("sim.controller.retired").add(d.retired());
            telemetry.counter("sim.controller.copies").add(copies);
            telemetry.counter("sim.controller.bytes_copied").add(bytes);
        }

        if state.brownout_min > 0.0 {
            telemetry
                .counter("sim.brownout.active_min")
                .add(state.brownout_min.ceil() as u64);
        }
        telemetry
            .counter("sim.admission_probes")
            .add(state.dispatcher.admission_probes());
        if telemetry.is_enabled() {
            let peak_len = state.departures.peak_len();
            telemetry
                .histogram("sim.queue.peak_len")
                .observe(peak_len as f64);
            if peak_len > 0 {
                // Queue backing storage amortized over the concurrency
                // peak: the marginal resident cost of one active stream.
                // The memory-smoke CI step gates on this staying under
                // the ceiling documented in DESIGN.md §7.
                telemetry
                    .histogram("sim.engine.bytes_per_active_stream")
                    .observe(state.departures.mem_bytes() as f64 / peak_len as f64);
            }
        }
        Ok(state.metrics.finish(self.config.horizon_min))
    }
}

/// Struct-of-arrays view of the catalog's hot per-video words: one u32
/// rate and one u32 duration per title (a 20k-video catalog fits in
/// 160 KiB — resident in L2 for the whole run). Built once per engine
/// pass; the arrival loop indexes it instead of the catalog.
struct VideoTable {
    kbps: Vec<u32>,
    duration_s: Vec<u32>,
}

impl VideoTable {
    fn new(catalog: &Catalog) -> Result<Self, ModelError> {
        let mut kbps = Vec::with_capacity(catalog.len());
        let mut duration_s = Vec::with_capacity(catalog.len());
        for v in catalog.videos() {
            let d = u32::try_from(v.duration_s).map_err(|_| ModelError::InvalidParameter {
                name: "duration_s (exceeds u32)",
                value: v.duration_s as f64,
            })?;
            kbps.push(v.bitrate.kbps());
            duration_s.push(d);
        }
        Ok(VideoTable { kbps, duration_s })
    }

    /// `(kbps, duration_s)` of video `i`, widened for the admission
    /// arithmetic; `None` for out-of-catalog ids.
    #[inline]
    fn get(&self, i: usize) -> Option<(u64, u64)> {
        let k = *self.kbps.get(i)?;
        Some((k as u64, self.duration_s[i] as u64))
    }
}

/// Telemetry counter handles used by the run loop.
struct EngineCounters {
    arrivals: Counter,
    admitted: Counter,
    rejected: Counter,
    redirected: Counter,
    departures: Counter,
    disrupted: Counter,
    resumed: Counter,
    degraded: Counter,
    transitions: Counter,
    samples: Counter,
    queued: Counter,
    retried: Counter,
    abandoned: Counter,
    adm_degraded: Counter,
    wait_min: Histogram,
}

impl EngineCounters {
    /// Binds the engine's counter handles to `telemetry`'s registry.
    fn new(telemetry: &Telemetry) -> Self {
        EngineCounters {
            arrivals: telemetry.counter("sim.arrivals"),
            admitted: telemetry.counter("sim.admitted"),
            rejected: telemetry.counter("sim.rejected"),
            redirected: telemetry.counter("sim.redirected"),
            departures: telemetry.counter("sim.departures"),
            disrupted: telemetry.counter("sim.disrupted"),
            resumed: telemetry.counter("sim.streams.resumed"),
            degraded: telemetry.counter("sim.streams.degraded"),
            transitions: telemetry.counter("sim.transitions"),
            samples: telemetry.counter("sim.samples"),
            queued: telemetry.counter("sim.admission.queued"),
            retried: telemetry.counter("sim.admission.retried"),
            abandoned: telemetry.counter("sim.admission.abandoned"),
            adm_degraded: telemetry.counter("sim.admission.degraded"),
            wait_min: telemetry.histogram("sim.admission.wait_min_pctl"),
        }
    }

    /// Total events recorded on this handle set (cumulative across runs).
    fn events(&self) -> u64 {
        self.arrivals.get()
            + self.departures.get()
            + self.transitions.get()
            + self.samples.get()
            + self.retried.get()
            + self.abandoned.get()
    }
}

/// How a failing server's stream fared under failover.
enum Rescued {
    Full,
    Degraded,
    No,
}

/// One live (or killed) coded viewer: the `k` fragment shares it is
/// being served from, tied to its departures by index into
/// [`CodedState::streams`].
#[derive(Debug)]
struct CodedStream {
    /// The servers currently streaming one fragment share each
    /// (emptied when the stream is killed).
    servers: Vec<ServerId>,
    /// Per-holder share rate, `⌈rate / k⌉` kbps.
    share_kbps: u64,
    /// The viewer-facing admitted rate (goodput accounting on kill).
    full_kbps: u64,
    /// Set when failover could not keep `k` shares alive; the sibling
    /// departures then pop without releasing anything.
    killed: bool,
    /// This stream's departures still in the queue; the slot is
    /// recycled when the last one leaves.
    queued_shares: u32,
}

/// Engine-side state for erasure-coded serving, present only when the
/// bound layout has at least one `Coded` video — all-replicated runs
/// never allocate it and take the exact pre-coding code paths.
#[derive(Debug)]
struct CodedState {
    /// Per-video schemes (cloned from the layout's redundancy map).
    schemes: RedundancyMap,
    /// Coded streams, indexed by `Departure::stream`. A slot (with its
    /// `servers` capacity) is recycled once its last queued share
    /// leaves, so this grows with the active-stream peak, not with
    /// admissions.
    streams: Vec<CodedStream>,
    /// Recyclable slots of `streams`.
    free: Vec<u32>,
    /// One admission's chosen holders (reused across admissions).
    chosen: Vec<ServerId>,
    /// Admissions that had to read at least one parity fragment
    /// (some of the first `k` holders were unavailable).
    degraded_reads: u64,
    /// Failed-over fragment shares re-attached to another holder.
    shares_reattached: u64,
}

impl CodedState {
    /// Opens a stream served by one `share_kbps` share from each
    /// `chosen` holder, in a recycled slot when one is free.
    fn open(&mut self, share_kbps: u64, full_kbps: u64) -> u32 {
        let queued_shares = self.chosen.len() as u32;
        if let Some(id) = self.free.pop() {
            let s = &mut self.streams[id as usize];
            s.servers.clear();
            s.servers.extend_from_slice(&self.chosen);
            s.share_kbps = share_kbps;
            s.full_kbps = full_kbps;
            s.killed = false;
            s.queued_shares = queued_shares;
            return id;
        }
        self.streams.push(CodedStream {
            servers: self.chosen.clone(),
            share_kbps,
            full_kbps,
            killed: false,
            queued_shares,
        });
        (self.streams.len() - 1) as u32
    }

    /// One departure of `stream` left the queue for good (popped, or
    /// extracted and not re-queued); the last one frees the slot.
    fn share_gone(&mut self, stream: u32) {
        let s = &mut self.streams[stream as usize];
        s.queued_shares -= 1;
        if s.queued_shares == 0 {
            self.free.push(stream);
        }
    }
}

/// Mutable run-loop state, split out so the background-event pump and the
/// failover logic can borrow its fields independently.
struct RunState<'a> {
    links: LinkState,
    dispatcher: Dispatcher,
    metrics: MetricsCollector,
    departures: DepartureQueue,
    controller: Option<ReplicaActuator>,
    /// Coded-serving state (`None` for all-replicated layouts).
    coded: Option<CodedState>,
    /// Rack of each server (`u32::MAX` = unracked), non-empty only when
    /// a coded layout runs under a rack failure model; feeds the
    /// auditor's rack anti-affinity check.
    rack_of: Vec<u32>,
    /// Sensing/decision state of the online replication controller
    /// (`None` unless [`ControllerConfig::enabled`]).
    drift: Option<DriftController>,
    layout: &'a Layout,
    transitions: Vec<Transition>,
    next_transition: usize,
    next_sample_min: f64,
    /// `next_sample_min` converted once per sample instead of once per
    /// pump iteration (`None` past the horizon).
    next_sample_at: Option<SimTime>,
    sample_step: f64,
    /// Next control-tick instant (`None` when the controller is off or
    /// past the horizon).
    next_ctrl_at: Option<SimTime>,
    next_ctrl_min: f64,
    ctrl_step: f64,
    horizon: f64,
    failover: FailoverPolicy,
    admission: AdmissionState,
    auditor: Option<Auditor>,
    /// Holder-map version the auditor last checked placement against
    /// (`None` before the first check).
    audited_holders: Option<u64>,
    /// Per-server brownout start instant, `Some` while one is active.
    brownout_started: Vec<Option<SimTime>>,
    /// Accumulated server·minutes of brownout (closed windows).
    brownout_min: f64,
    /// Reusable buffer for per-sample stream loads.
    load_scratch: Vec<f64>,
    /// Reusable buffer for failover extractions.
    extract_scratch: Vec<Departure>,
    /// Reusable buffer for FIFO queue drains.
    fifo_scratch: Vec<u64>,
}

impl RunState<'_> {
    /// Processes every background event (departure / repair completion /
    /// transition / queue abandonment / retry / sample / control tick)
    /// with an instant <= `t`, in time order; ties break in exactly that
    /// order. The control tick deliberately fires *last* at its instant,
    /// so it senses the settled state every other event left behind.
    fn advance_to(&mut self, t: SimTime, ct: &EngineCounters) -> Result<(), ModelError> {
        loop {
            let dep_at = self.departures.next_time();
            let rep_at = self.controller.as_ref().and_then(|c| c.next_completion());
            let tr_at = self.transitions.get(self.next_transition).map(|x| x.at);
            let aband_at = self.admission.next_deadline();
            let retry_at = self.admission.next_retry();
            let sample_at = self.next_sample_at;
            let ctrl_at = self.next_ctrl_at;

            let candidates = [
                dep_at, rep_at, tr_at, aband_at, retry_at, sample_at, ctrl_at,
            ];
            let Some(min_at) = candidates.into_iter().flatten().min() else {
                break;
            };
            if min_at > t {
                break;
            }
            if dep_at == Some(min_at) {
                let d = self
                    .departures
                    .pop_due(min_at)
                    .ok_or(ModelError::Internal {
                        context: "departure queue empty at its own next_time",
                    })?;
                ct.departures.inc();
                self.release_departure(&d);
                // Freed streaming bandwidth may unblock a stalled copy
                // first (repair priority), then waiting clients.
                if let Some(c) = self.controller.as_mut() {
                    c.pump(min_at, &mut self.links, &mut self.dispatcher);
                }
                self.drain_queue(min_at, ct);
            } else if rep_at == Some(min_at) {
                let c = self.controller.as_mut().ok_or(ModelError::Internal {
                    context: "repair completion due without a controller",
                })?;
                c.complete_next(&mut self.links, &mut self.dispatcher)?;
                self.drain_queue(min_at, ct);
            } else if tr_at == Some(min_at) {
                let tr = self.transitions[self.next_transition];
                self.next_transition += 1;
                ct.transitions.inc();
                match tr.kind {
                    TransitionKind::Down => self.on_down(tr.at, tr.server, ct),
                    TransitionKind::Up => self.on_up(tr.at, tr.server),
                    TransitionKind::BrownoutStart(frac) => {
                        self.on_brownout_start(tr.at, tr.server, frac, ct)
                    }
                    TransitionKind::BrownoutEnd => self.on_brownout_end(tr.at, tr.server),
                }
                self.drain_queue(min_at, ct);
            } else if aband_at == Some(min_at) {
                let req = self
                    .admission
                    .pop_expired(min_at)
                    .ok_or(ModelError::Internal {
                        context: "admission deadline due with no expirable request",
                    })?;
                if req.retries_left > 0 {
                    // Patience ran out, but the client retries later.
                    self.admission.schedule_retry(
                        min_at,
                        PendingRequest {
                            retries_left: req.retries_left - 1,
                            attempt: req.attempt + 1,
                            ..req
                        },
                    );
                    ct.retried.inc();
                    self.metrics.on_retried();
                } else {
                    ct.abandoned.inc();
                    self.metrics.on_abandoned();
                }
            } else if retry_at == Some(min_at) {
                let req = self
                    .admission
                    .pop_due_retry(min_at)
                    .ok_or(ModelError::Internal {
                        context: "retry timer due with no pending retry",
                    })?;
                self.handle_request(min_at, req, ct);
            } else if sample_at == Some(min_at) {
                self.links.stream_loads_into(&mut self.load_scratch);
                ct.samples.inc();
                self.metrics
                    .sample_loads(&self.load_scratch, self.next_sample_min);
                self.next_sample_min += self.sample_step;
                self.next_sample_at = (self.next_sample_min <= self.horizon)
                    .then(|| SimTime::from_min(self.next_sample_min));
            } else {
                let c = self.controller.as_mut().ok_or(ModelError::Internal {
                    context: "control tick due without an actuation layer",
                })?;
                let d = self.drift.as_mut().ok_or(ModelError::Internal {
                    context: "control tick due without a drift controller",
                })?;
                d.tick(min_at, c, &mut self.links, &mut self.dispatcher);
                self.next_ctrl_min += self.ctrl_step;
                self.next_ctrl_at = (self.next_ctrl_min <= self.horizon)
                    .then(|| SimTime::from_min(self.next_ctrl_min));
            }
            self.audit_check(min_at)?;
        }
        Ok(())
    }

    /// Runs the invariant auditor (when active) after an event at `at`.
    fn audit_check(&mut self, at: SimTime) -> Result<(), ModelError> {
        let Some(aud) = self.auditor.as_mut() else {
            return Ok(());
        };
        let (arrivals, admitted, rejected, abandoned) = self.metrics.outcome_totals();
        let backbone_ok = match self.dispatcher.policy() {
            AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps,
            } => self.dispatcher.backbone_used_kbps() <= backbone_capacity_kbps,
            _ => true,
        };
        aud.check(
            at,
            &self.links,
            backbone_ok,
            &mut self.admission,
            Ledger {
                arrivals,
                admitted,
                rejected,
                abandoned,
            },
        )?;
        if let Some(cs) = &self.coded {
            // Anti-affinity holds for the bound layout by construction;
            // what needs auditing is the actuator's evolving holder map
            // (repair destinations), and only when it moved. A static
            // coded run audits its layout once.
            let (holders, version) = match &self.controller {
                Some(c) => (c.holders_all(), c.holders_version()),
                None => (self.layout.assignments(), 0),
            };
            if self.audited_holders != Some(version) {
                aud.check_placement(at, holders, &cs.schemes, &self.rack_of)?;
                self.audited_holders = Some(version);
            }
        }
        Ok(())
    }

    /// Routes one request now owed an outcome: admit (possibly degraded),
    /// queue, schedule a retry, or finally reject.
    fn handle_request(&mut self, now: SimTime, req: PendingRequest, ct: &EngineCounters) {
        if self.try_admit(now, &req, ct) {
            return;
        }
        if self.admission.queueing() {
            self.admission.enqueue(now, req);
            ct.queued.inc();
            self.metrics.on_queued();
        } else if req.retries_left > 0 {
            self.admission.schedule_retry(
                now,
                PendingRequest {
                    retries_left: req.retries_left - 1,
                    attempt: req.attempt + 1,
                    ..req
                },
            );
            ct.retried.inc();
            self.metrics.on_retried();
        } else {
            ct.rejected.inc();
            self.metrics.on_reject(req.video.index());
        }
    }

    /// One admission attempt: full rate first, then (under a degrading
    /// policy) down the bit-rate ladder. Returns whether a slot was taken.
    fn try_admit(&mut self, now: SimTime, req: &PendingRequest, ct: &EngineCounters) -> bool {
        if self.try_admit_at(now, req, req.kbps, ct) {
            return true;
        }
        if !self.admission.degrades() {
            return false;
        }
        let mut rate = BitRate::from_kbps(req.kbps as u32).step_down(&BitRate::LADDER);
        while let Some(r) = rate {
            if self.try_admit_at(now, req, r.kbps() as u64, ct) {
                return true;
            }
            rate = r.step_down(&BitRate::LADDER);
        }
        false
    }

    /// Dispatches `req` at `rate` kbps; on admit, charges the link, books
    /// the wait/goodput metrics and schedules the departure.
    fn try_admit_at(
        &mut self,
        now: SimTime,
        req: &PendingRequest,
        rate: u64,
        ct: &EngineCounters,
    ) -> bool {
        if let Some(cs) = &self.coded {
            if cs.schemes.get(req.video).is_coded() {
                return self.try_admit_coded(now, req, rate, ct);
            }
        }
        let replicas = match &self.controller {
            Some(c) => c.holders(req.video),
            None => self.layout.replicas_of(req.video),
        };
        match self
            .dispatcher
            .dispatch(req.video, rate, replicas, &self.links)
        {
            Decision::Admit {
                server,
                backbone_kbps,
            } => {
                self.links.admit(server, rate);
                ct.admitted.inc();
                if backbone_kbps > 0 {
                    ct.redirected.inc();
                }
                self.metrics.on_admit(backbone_kbps > 0);
                let wait = (now - req.arrived).as_min();
                self.metrics.on_wait(wait);
                ct.wait_min.observe(wait);
                self.metrics.on_delivered(rate, req.duration_s);
                if rate < req.kbps {
                    ct.adm_degraded.inc();
                    self.metrics.on_degraded_served();
                }
                let duration = SimTime::from_secs(req.duration_s);
                self.departures.push_lane(
                    Departure {
                        at: now + duration,
                        server,
                        video: req.video,
                        kbps: rate,
                        backbone_kbps,
                        epoch: self.links.epoch(server),
                        stream: NO_STREAM,
                    },
                    duration,
                );
                true
            }
            Decision::Reject => false,
        }
    }

    /// Releases what a popped departure still holds: its link share
    /// unless a failure made it stale (or a kill released it already),
    /// and any backbone reservation.
    fn release_departure(&mut self, d: &Departure) {
        if d.stream == NO_STREAM {
            if self.links.epoch(d.server) == d.epoch {
                self.links.release(d.server, d.kbps);
            }
            if d.backbone_kbps > 0 {
                self.dispatcher.release_backbone(d.backbone_kbps);
            }
            return;
        }
        // One fragment share of a coded stream ends; killed streams
        // released their shares at kill time.
        if self.stream_live(d.stream) && self.links.epoch(d.server) == d.epoch {
            self.links.release(d.server, d.kbps);
        }
        let cs = self.coded.as_mut().expect("coded share without state");
        cs.share_gone(d.stream);
    }

    /// Whether coded stream `stream` is still live (not killed by
    /// failover). False without coded state — replicated runs carry no
    /// stream-tagged departures, so the question never arises there.
    fn stream_live(&self, stream: u32) -> bool {
        self.coded
            .as_ref()
            .is_some_and(|cs| !cs.streams[stream as usize].killed)
    }

    /// Coded admission: serve `req` from `k` live fragment holders, each
    /// charged a `⌈rate / k⌉` share. Holders are tried in fragment order
    /// (positions `0..k` are the data fragments); having to reach past
    /// position `k - 1` means reading parity — a *degraded read*.
    /// Fails (false) when fewer than `k` holders can admit the share,
    /// falling through to the caller's degrade/queue/retry/reject path.
    fn try_admit_coded(
        &mut self,
        now: SimTime,
        req: &PendingRequest,
        rate: u64,
        ct: &EngineCounters,
    ) -> bool {
        let holders = match &self.controller {
            Some(c) => c.holders(req.video),
            None => self.layout.replicas_of(req.video),
        };
        let cs = self.coded.as_mut().expect("coded admission without state");
        let scheme = cs.schemes.get(req.video);
        let k = scheme.min_live() as usize;
        let share = scheme.share_kbps(rate);
        cs.chosen.clear();
        let mut degraded_read = false;
        for (pos, &h) in holders.iter().enumerate() {
            if cs.chosen.len() == k {
                break;
            }
            if self.links.can_admit(h, share) {
                if pos >= k {
                    degraded_read = true;
                }
                cs.chosen.push(h);
            }
        }
        if cs.chosen.len() < k {
            return false;
        }
        let stream = cs.open(share, rate);
        if degraded_read {
            cs.degraded_reads += 1;
        }
        let duration = SimTime::from_secs(req.duration_s);
        for &h in &cs.chosen {
            self.links.admit(h, share);
            self.departures.push_lane(
                Departure {
                    at: now + duration,
                    server: h,
                    video: req.video,
                    kbps: share,
                    backbone_kbps: 0,
                    epoch: self.links.epoch(h),
                    stream,
                },
                duration,
            );
        }
        ct.admitted.inc();
        self.metrics.on_admit(false);
        let wait = (now - req.arrived).as_min();
        self.metrics.on_wait(wait);
        ct.wait_min.observe(wait);
        self.metrics.on_delivered(rate, req.duration_s);
        if rate < req.kbps {
            ct.adm_degraded.inc();
            self.metrics.on_degraded_served();
        }
        true
    }

    /// Tries to move one lost fragment share of a live coded stream to
    /// another holder of the video (a fragment not already serving this
    /// stream). On success the sibling shares are untouched and the
    /// stream merely reads a different fragment set.
    fn reattach_share(&mut self, d: &Departure, from: ServerId) -> bool {
        let pick = {
            let cs = self.coded.as_ref().expect("coded share without state");
            let serving = &cs.streams[d.stream as usize].servers;
            let holders = match &self.controller {
                Some(c) => c.holders(d.video),
                None => self.layout.replicas_of(d.video),
            };
            holders
                .iter()
                .copied()
                .filter(|&h| h != from && !serving.contains(&h) && self.links.can_admit(h, d.kbps))
                .max_by_key(|&h| (self.links.free_kbps(h), std::cmp::Reverse(h)))
        };
        let Some(h) = pick else {
            return false;
        };
        self.links.admit(h, d.kbps);
        self.departures.push(Departure {
            at: d.at,
            server: h,
            video: d.video,
            kbps: d.kbps,
            backbone_kbps: 0,
            epoch: self.links.epoch(h),
            stream: d.stream,
        });
        let cs = self.coded.as_mut().expect("coded share without state");
        let s = &mut cs.streams[d.stream as usize];
        if let Some(slot) = s.servers.iter_mut().find(|x| **x == from) {
            *slot = h;
        }
        cs.degraded_reads += 1;
        cs.shares_reattached += 1;
        true
    }

    /// Kills a live coded stream whose share on `gone` was lost and
    /// could not be re-attached: releases the sibling shares (the share
    /// on `gone` itself is already gone — dropped by the failure or
    /// released by the brownout shed) and charges the undelivered
    /// remainder at the viewer-facing rate.
    fn kill_coded_stream(&mut self, at: SimTime, d: &Departure, gone: ServerId) {
        let cs = self.coded.as_mut().expect("coded share without state");
        let s = &mut cs.streams[d.stream as usize];
        s.killed = true;
        for &h in &s.servers {
            if h != gone {
                self.links.release(h, s.share_kbps);
            }
        }
        s.servers.clear();
        self.metrics
            .on_undelivered(s.full_kbps, (d.at - at).ticks());
        // `d` itself is dropped; its siblings pop later as no-ops.
        cs.share_gone(d.stream);
    }

    /// After capacity frees up, offers every waiting request a slot in
    /// FIFO order. Requests that still do not fit stay queued (later
    /// arrivals that *do* fit may overtake them — capacity-aware
    /// skipping, not head-of-line blocking).
    fn drain_queue(&mut self, now: SimTime, ct: &EngineCounters) {
        if self.admission.queue_len() == 0 {
            return;
        }
        let mut seqs = std::mem::take(&mut self.fifo_scratch);
        self.admission.fifo_seqs_into(&mut seqs);
        for &seq in &seqs {
            let Some(req) = self.admission.get(seq) else {
                continue;
            };
            if self.try_admit(now, &req, ct) {
                self.admission.remove(seq);
            }
        }
        self.fifo_scratch = seqs;
    }

    /// Brownout onset: shrink the link's effective capacity; when the
    /// server is overcommitted, shed repair copies first, then active
    /// streams (latest-ending first), failing each shed stream over per
    /// the failover policy exactly like a crash would.
    fn on_brownout_start(&mut self, at: SimTime, server: ServerId, frac: f64, ct: &EngineCounters) {
        self.brownout_started[server.index()] = Some(at);
        let excess = self.links.set_brownout(server, frac);
        if excess == 0 || !self.links.is_up(server) {
            return;
        }
        if let Some(c) = self.controller.as_mut() {
            c.on_brownout(at, server, &mut self.links, &mut self.dispatcher);
        }
        let j = server.index();
        let over = |links: &LinkState| {
            (links.used_kbps()[j] + links.repair_kbps()[j])
                .saturating_sub(links.effective_capacity_kbps(server))
        };
        if over(&self.links) == 0 {
            return;
        }
        let mut active = std::mem::take(&mut self.extract_scratch);
        self.departures
            .extract_active_into(server, self.links.epoch(server), &mut active);
        let (mut disrupted, mut resumed, mut degraded) = (0u64, 0u64, 0u64);
        while over(&self.links) > 0 {
            // Ascending (time, seq): pop sheds the latest-ending stream.
            let Some(d) = active.pop() else {
                break;
            };
            if d.stream != NO_STREAM {
                if !self.stream_live(d.stream) {
                    // A sibling kill already released this share; the
                    // departure just waits to pop as a no-op.
                    self.departures.push(d);
                    continue;
                }
                self.links.release(server, d.kbps);
                if self.failover != FailoverPolicy::Kill && self.reattach_share(&d, server) {
                    resumed += 1;
                } else {
                    self.kill_coded_stream(at, &d, server);
                    disrupted += 1;
                }
                continue;
            }
            self.links.release(server, d.kbps);
            let rescued = if self.failover == FailoverPolicy::Kill {
                Rescued::No
            } else {
                self.rescue_stream(at, &d, server)
            };
            match rescued {
                Rescued::Full => resumed += 1,
                Rescued::Degraded => degraded += 1,
                Rescued::No => {
                    disrupted += 1;
                    self.metrics.on_undelivered(d.kbps, (d.at - at).ticks());
                    // Keep the departure so the backbone reservation is
                    // reclaimed at the scheduled end; the sentinel epoch
                    // guarantees no link release.
                    self.departures.push(Departure {
                        epoch: SHED_EPOCH,
                        ..d
                    });
                }
            }
        }
        for d in active.drain(..) {
            self.departures.push(d);
        }
        self.extract_scratch = active;
        if disrupted > 0 {
            ct.disrupted.add(disrupted);
            self.metrics.on_disrupted(disrupted);
        }
        if resumed > 0 {
            ct.resumed.add(resumed);
            self.metrics.on_resumed(resumed);
        }
        if degraded > 0 {
            ct.degraded.add(degraded);
            self.metrics.on_degraded(degraded);
        }
    }

    /// Brownout over: restore full capacity and let stalled repairs pump.
    fn on_brownout_end(&mut self, at: SimTime, server: ServerId) {
        if let Some(start) = self.brownout_started[server.index()].take() {
            self.brownout_min += (at - start).as_min();
        }
        self.links.clear_brownout(server);
        if let Some(c) = self.controller.as_mut() {
            c.pump(at, &mut self.links, &mut self.dispatcher);
        }
    }

    /// Server failure: rescue its active streams if the failover policy
    /// allows, then hand the topology change to the repair controller.
    fn on_down(&mut self, at: SimTime, server: ServerId, ct: &EngineCounters) {
        if self.coded.is_some() {
            // Coded shares must be found even under `Kill` (their
            // sibling shares live on other servers); the dedicated path
            // keeps this one byte-identical for all-replicated runs.
            return self.on_down_coded(at, server, ct);
        }
        let mut rescued = std::mem::take(&mut self.extract_scratch);
        if self.failover == FailoverPolicy::Kill {
            rescued.clear();
        } else {
            self.departures
                .extract_active_into(server, self.links.epoch(server), &mut rescued);
        }
        let dropped = self.links.fail(server) as u64;
        // Repair claims its copy bandwidth on the survivors *first*:
        // without this priority, failed-over streams (plus fresh arrivals)
        // pack a popular video's sole surviving holder to the brim and its
        // re-replication starves for the whole outage.
        if let Some(c) = self.controller.as_mut() {
            c.on_failure(
                at,
                server,
                self.metrics.per_video_arrivals(),
                &mut self.links,
                &mut self.dispatcher,
            );
        }
        let mut disrupted = dropped - rescued.len() as u64;
        let (mut resumed, mut degraded) = (0u64, 0u64);
        for d in rescued.drain(..) {
            match self.rescue_stream(at, &d, server) {
                Rescued::Full => resumed += 1,
                Rescued::Degraded => degraded += 1,
                Rescued::No => {
                    disrupted += 1;
                    self.metrics.on_undelivered(d.kbps, (d.at - at).ticks());
                    // Re-queue unchanged: the stale epoch means no link
                    // release at pop time, but the backbone reservation is
                    // still reclaimed at the scheduled end — exactly the
                    // unconditional-kill semantics.
                    self.departures.push(d);
                }
            }
        }
        self.extract_scratch = rescued;
        if disrupted > 0 {
            ct.disrupted.add(disrupted);
            self.metrics.on_disrupted(disrupted);
        }
        if resumed > 0 {
            ct.resumed.add(resumed);
            self.metrics.on_resumed(resumed);
        }
        if degraded > 0 {
            ct.degraded.add(degraded);
            self.metrics.on_degraded(degraded);
        }
    }

    /// [`RunState::on_down`] for runs with coded videos: every active
    /// departure on the failed server is extracted (even under `Kill`),
    /// coded shares re-attach to surviving fragment holders or kill
    /// their whole stream, and replicated streams keep the exact
    /// per-policy semantics of the plain path.
    fn on_down_coded(&mut self, at: SimTime, server: ServerId, ct: &EngineCounters) {
        let mut extracted = std::mem::take(&mut self.extract_scratch);
        self.departures
            .extract_active_into(server, self.links.epoch(server), &mut extracted);
        let dropped = self.links.fail(server) as u64;
        if let Some(c) = self.controller.as_mut() {
            c.on_failure(
                at,
                server,
                self.metrics.per_video_arrivals(),
                &mut self.links,
                &mut self.dispatcher,
            );
        }
        let (mut disrupted, mut resumed, mut degraded, mut live) = (0u64, 0u64, 0u64, 0u64);
        for d in extracted.drain(..) {
            if d.stream != NO_STREAM {
                if !self.stream_live(d.stream) {
                    // Share of an already-killed stream: its bandwidth
                    // was released at kill time (it is not in `dropped`).
                    let cs = self.coded.as_mut().expect("coded share without state");
                    cs.share_gone(d.stream);
                    continue;
                }
                live += 1;
                if self.failover != FailoverPolicy::Kill && self.reattach_share(&d, server) {
                    resumed += 1;
                } else {
                    self.kill_coded_stream(at, &d, server);
                    disrupted += 1;
                }
                continue;
            }
            live += 1;
            if self.failover == FailoverPolicy::Kill {
                // Unconditional kill, goodput-uncharged — the documented
                // kill-path simplification; re-queue so any backbone
                // reservation is reclaimed at the scheduled end.
                disrupted += 1;
                self.departures.push(d);
                continue;
            }
            match self.rescue_stream(at, &d, server) {
                Rescued::Full => resumed += 1,
                Rescued::Degraded => degraded += 1,
                Rescued::No => {
                    disrupted += 1;
                    self.metrics.on_undelivered(d.kbps, (d.at - at).ticks());
                    self.departures.push(d);
                }
            }
        }
        debug_assert_eq!(dropped, live);
        self.extract_scratch = extracted;
        if disrupted > 0 {
            ct.disrupted.add(disrupted);
            self.metrics.on_disrupted(disrupted);
        }
        if resumed > 0 {
            ct.resumed.add(resumed);
            self.metrics.on_resumed(resumed);
        }
        if degraded > 0 {
            ct.degraded.add(degraded);
            self.metrics.on_degraded(degraded);
        }
    }

    /// Server recovery: restore the link, then let the repair controller
    /// mark its stored replicas servable again.
    fn on_up(&mut self, at: SimTime, server: ServerId) {
        self.links.recover(server);
        if let Some(c) = self.controller.as_mut() {
            c.on_recovery(at, server, &mut self.links, &mut self.dispatcher);
        }
    }

    /// The surviving replica holder of `video` with the most free link
    /// bandwidth able to admit `kbps` (ties to the lowest id), if any.
    fn best_holder(&self, video: VideoId, exclude: ServerId, kbps: u64) -> Option<ServerId> {
        let holders = match &self.controller {
            Some(c) => c.holders(video),
            None => self.layout.replicas_of(video),
        };
        holders
            .iter()
            .copied()
            .filter(|&h| h != exclude && self.links.can_admit(h, kbps))
            .max_by_key(|&h| (self.links.free_kbps(h), std::cmp::Reverse(h)))
    }

    /// Tries to continue one of a failed server's streams elsewhere: at
    /// full rate on the best surviving holder, or — under
    /// [`FailoverPolicy::ResumeOrDegrade`] — stepping down
    /// [`BitRate::LADDER`] until some rate fits somewhere. The rescued
    /// stream keeps its original departure instant (remaining-duration
    /// bandwidth is charged to the new server) and carries any backbone
    /// reservation along.
    fn rescue_stream(&mut self, at: SimTime, d: &Departure, failed: ServerId) -> Rescued {
        if let Some(h) = self.best_holder(d.video, failed, d.kbps) {
            self.links.admit(h, d.kbps);
            self.departures.push(Departure {
                at: d.at,
                server: h,
                video: d.video,
                kbps: d.kbps,
                backbone_kbps: d.backbone_kbps,
                epoch: self.links.epoch(h),
                stream: d.stream,
            });
            return Rescued::Full;
        }
        if self.failover == FailoverPolicy::ResumeOrDegrade {
            let mut rate = BitRate::from_kbps(d.kbps as u32).step_down(&BitRate::LADDER);
            while let Some(r) = rate {
                let kbps = r.kbps() as u64;
                if let Some(h) = self.best_holder(d.video, failed, kbps) {
                    self.links.admit(h, kbps);
                    // The remaining minutes stream at the thinner rate.
                    self.metrics
                        .on_undelivered(d.kbps - kbps, (d.at - at).ticks());
                    self.departures.push(Departure {
                        at: d.at,
                        server: h,
                        video: d.video,
                        kbps,
                        backbone_kbps: d.backbone_kbps,
                        epoch: self.links.epoch(h),
                        stream: d.stream,
                    });
                    return Rescued::Degraded;
                }
                rate = r.step_down(&BitRate::LADDER);
            }
        }
        Rescued::No
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::Outage;
    use vod_model::{BitRate, ServerId, ServerSpec, VideoId};
    use vod_workload::{Request, Trace};

    /// One video on one server; the server carries exactly one stream.
    fn tiny_world() -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap(); // 10-minute video
        let cluster = ClusterSpec::homogeneous(
            1,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(1, vec![vec![ServerId(0)]]).unwrap();
        (catalog, cluster, layout)
    }

    fn req(min: f64, v: u32) -> Request {
        Request {
            arrival_min: min,
            video: VideoId(v),
        }
    }

    fn run_tiny(requests: Vec<Request>) -> SimReport {
        let (catalog, cluster, layout) = tiny_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()).unwrap();
        sim.run(&Trace::new(requests).unwrap()).unwrap()
    }

    #[test]
    fn overlapping_requests_reject_second() {
        let r = run_tiny(vec![req(0.0, 0), req(5.0, 0)]);
        assert_eq!(r.arrivals, 2);
        assert_eq!(r.admitted, 1);
        assert_eq!(r.rejected, 1);
        assert!(r.is_conservative());
    }

    #[test]
    fn sequential_requests_both_admitted() {
        // Video is 10 minutes; second arrives at t=10 exactly as the first
        // ends — the departure is processed first, so it's admitted.
        let r = run_tiny(vec![req(0.0, 0), req(10.0, 0)]);
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 0);
    }

    #[test]
    fn arrival_just_before_departure_rejected() {
        let r = run_tiny(vec![req(0.0, 0), req(9.99, 0)]);
        assert_eq!(r.admitted, 1);
        assert_eq!(r.rejected, 1);
    }

    #[test]
    fn three_way_contention() {
        let r = run_tiny(vec![req(0.0, 0), req(1.0, 0), req(11.0, 0)]);
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 1);
    }

    #[test]
    fn empty_trace_is_clean() {
        let r = run_tiny(vec![]);
        assert_eq!(r.arrivals, 0);
        assert_eq!(r.rejection_rate, 0.0);
        assert!(r.is_conservative());
    }

    #[test]
    fn replicated_video_spreads_over_servers() {
        // 1 video, 2 replicas, 1 stream per server: two simultaneous
        // requests both admitted under static RR (one per replica).
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()).unwrap();
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(0.5, 0), req(1.0, 0)]).unwrap())
            .unwrap();
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 1);
    }

    #[test]
    fn backbone_redirect_saves_requests() {
        // v0 only on s0 (capacity 1 stream); s1 idle. Second concurrent
        // request is saved by redirection through s1.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0)]]).unwrap();
        let trace = Trace::new(vec![req(0.0, 0), req(1.0, 0)]).unwrap();
        let cfg = SimConfig {
            policy: AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 1_000_000,
            },
            ..SimConfig::paper_default()
        };
        let r = Simulation::new(&catalog, &cluster, &layout, cfg)
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(r.admitted, 2);
        assert_eq!(r.redirected, 1);
        assert_eq!(r.rejected, 0);
    }

    #[test]
    fn unknown_video_is_an_error() {
        let (catalog, cluster, layout) = tiny_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()).unwrap();
        let trace = Trace::new(vec![req(0.0, 5)]).unwrap();
        assert!(matches!(
            sim.run(&trace),
            Err(ModelError::UnknownVideo(VideoId(5)))
        ));
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let (catalog, cluster, _) = tiny_world();
        let layout2 = Layout::new(2, vec![vec![ServerId(0)]]).unwrap();
        assert!(Simulation::new(&catalog, &cluster, &layout2, SimConfig::paper_default()).is_err());
        let cfg = SimConfig {
            horizon_min: 0.0,
            ..SimConfig::paper_default()
        };
        let layout = Layout::new(1, vec![vec![ServerId(0)]]).unwrap();
        assert!(Simulation::new(&catalog, &cluster, &layout, cfg).is_err());
    }

    #[test]
    fn storage_constraint_checked_at_bind_time() {
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            1,
            ServerSpec {
                storage_bytes: 1, // cannot hold the replica
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(1, vec![vec![ServerId(0)]]).unwrap();
        assert!(matches!(
            Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()),
            Err(ModelError::StorageExceeded { .. })
        ));
    }

    #[test]
    fn imbalance_sampled_nonzero_under_skewed_layout() {
        // Two servers; all load lands on s0.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 3_000).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 400_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0)]]).unwrap();
        let trace = Trace::new(vec![req(0.0, 0), req(1.0, 0), req(2.0, 0)]).unwrap();
        let r = Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default())
            .unwrap()
            .run(&trace)
            .unwrap();
        assert!(r.mean_imbalance_cv > 0.5);
        assert_eq!(r.peak_concurrent_streams, 3);
    }

    // ---- failure injection ----

    fn failing_cfg(outages: Vec<Outage>) -> SimConfig {
        SimConfig {
            failures: FailurePlan::new(outages).unwrap(),
            ..SimConfig::paper_default()
        }
    }

    #[test]
    fn failure_disrupts_active_streams() {
        let (catalog, cluster, layout) = tiny_world();
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: None,
        }]);
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        // Stream admitted at t=0 (runs to t=10) is killed at t=5; a later
        // request hits a dead server and is rejected.
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(6.0, 0)]).unwrap())
            .unwrap();
        assert_eq!(r.admitted, 1);
        assert_eq!(r.disrupted, 1);
        assert_eq!(r.rejected, 1);
        assert!(r.is_conservative());
    }

    #[test]
    fn recovery_restores_service() {
        let (catalog, cluster, layout) = tiny_world();
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: Some(8.0),
        }]);
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(6.0, 0), req(9.0, 0)]).unwrap())
            .unwrap();
        // t=0 admitted then disrupted at 5; t=6 rejected (down); t=9
        // admitted (recovered, and the old stream's bandwidth was cleared
        // by the failure — its stale departure at t=10 must not
        // double-release).
        assert_eq!(r.admitted, 2);
        assert_eq!(r.disrupted, 1);
        assert_eq!(r.rejected, 1);
    }

    #[test]
    fn stale_departure_does_not_underflow() {
        // The killed stream's departure (t=10) pops after recovery and a
        // new admission; with epoch tracking it must not release the new
        // stream's bandwidth. If it did, the second release (from the new
        // stream's real departure) would underflow and panic in debug.
        let (catalog, cluster, layout) = tiny_world();
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(0),
            down_at_min: 1.0,
            up_at_min: Some(2.0),
        }]);
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(3.0, 0), req(20.0, 0)]).unwrap())
            .unwrap();
        assert_eq!(r.admitted, 3);
        assert_eq!(r.disrupted, 1);
    }

    #[test]
    fn replicas_survive_single_failure_with_failover() {
        // v0 on two servers; s0 dies mid-run. Failover keeps serving from
        // s1 while strict static RR loses every other request.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 60).unwrap(); // 1-min video
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 400_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let reqs: Vec<Request> = (0..20).map(|k| req(10.0 + k as f64 * 2.0, 0)).collect();
        let outage = vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: None,
        }];

        let strict = Simulation::new(&catalog, &cluster, &layout, failing_cfg(outage.clone()))
            .unwrap()
            .run(&Trace::new(reqs.clone()).unwrap())
            .unwrap();
        // Static RR alternates; every dispatch to s0 dies.
        assert_eq!(strict.rejected, 10);

        let failover_cfg = SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failures: FailurePlan::new(outage).unwrap(),
            ..SimConfig::paper_default()
        };
        let failover = Simulation::new(&catalog, &cluster, &layout, failover_cfg)
            .unwrap()
            .run(&Trace::new(reqs).unwrap())
            .unwrap();
        assert_eq!(failover.rejected, 0);
    }

    // ---- stream failover and mid-run repair ----

    #[test]
    fn failover_resumes_streams_on_surviving_replica() {
        // v0 on {s0, s1}, one stream per server. The stream admitted on s0
        // migrates to idle s1 when s0 dies.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let cfg = SimConfig {
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(0),
                down_at_min: 5.0,
                up_at_min: None,
            }])
            .unwrap(),
            failover: crate::repair::FailoverPolicy::Resume,
            ..SimConfig::paper_default()
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&Trace::new(vec![req(0.0, 0)]).unwrap()).unwrap();
        assert_eq!(r.admitted, 1);
        assert_eq!(r.resumed, 1);
        assert_eq!(r.disrupted, 0);
        assert_eq!(r.degraded, 0);
    }

    #[test]
    fn failover_degrades_when_full_rate_does_not_fit() {
        // Both servers hold v0 and carry one 4 Mbps stream each on 7 Mbps
        // links. When s0 dies its stream cannot resume at 4 Mbps on s1
        // (3 Mbps free) but continues at the 3 Mbps ladder rung.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 7_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let outage = vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: None,
        }];
        let mk = |failover| SimConfig {
            failures: FailurePlan::new(outage.clone()).unwrap(),
            failover,
            ..SimConfig::paper_default()
        };
        let trace = Trace::new(vec![req(0.0, 0), req(0.5, 0)]).unwrap();

        let degrade = Simulation::new(
            &catalog,
            &cluster,
            &layout,
            mk(crate::repair::FailoverPolicy::ResumeOrDegrade),
        )
        .unwrap()
        .run(&trace)
        .unwrap();
        assert_eq!(degrade.degraded, 1);
        assert_eq!(degrade.resumed, 0);
        assert_eq!(degrade.disrupted, 0);

        // Resume-only cannot fit the stream anywhere: it is disrupted.
        let resume_only = Simulation::new(
            &catalog,
            &cluster,
            &layout,
            mk(crate::repair::FailoverPolicy::Resume),
        )
        .unwrap()
        .run(&trace)
        .unwrap();
        assert_eq!(resume_only.degraded, 0);
        assert_eq!(resume_only.disrupted, 1);
    }

    #[test]
    fn repair_rebuilds_lost_redundancy() {
        // v0 on {s0, s1} of 3 servers; s0 dies at t=1. With 4 Mbps repair
        // bandwidth the 30 MB replica rebuilds on s2 in exactly one
        // minute; without repair the deficit persists to the horizon.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 60).unwrap();
        let bytes = catalog.videos()[0].storage_bytes();
        let cluster = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 8_000,
            },
        )
        .unwrap();
        let layout = Layout::new(3, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let mk = |bandwidth_kbps| SimConfig {
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(0),
                down_at_min: 1.0,
                up_at_min: None,
            }])
            .unwrap(),
            repair: RepairConfig {
                bandwidth_kbps,
                max_concurrent: 4,
            },
            ..SimConfig::paper_default()
        };
        let trace = Trace::new(vec![]).unwrap();

        let repaired = Simulation::new(&catalog, &cluster, &layout, mk(4_000))
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(repaired.repair_copies, 1);
        assert_eq!(repaired.repair_bytes_copied, bytes);
        assert!((repaired.time_to_redundancy_min - 1.0).abs() < 1e-9);
        assert_eq!(repaired.unavailability_video_min, 0.0);

        let passive = Simulation::new(&catalog, &cluster, &layout, mk(0))
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(passive.repair_copies, 0);
        assert_eq!(passive.repair_bytes_copied, 0);
        assert!((passive.time_to_redundancy_min - 89.0).abs() < 1e-9);
    }

    #[test]
    fn repaired_replica_serves_requests() {
        // After the rebuild on s2 completes, v0 has two servable replicas
        // again: two overlapping requests both fit where one server alone
        // could hold only one.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(3, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let mk = |bandwidth_kbps| SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(0),
                down_at_min: 1.0,
                up_at_min: None,
            }])
            .unwrap(),
            repair: RepairConfig {
                bandwidth_kbps,
                max_concurrent: 4,
            },
            ..SimConfig::paper_default()
        };
        // 300 Mbit replica at 4 Mbps repair bandwidth: 75 s rebuild, done
        // by t=2.25 min. Both t=30/t=31 requests overlap for 10 minutes.
        let trace = Trace::new(vec![req(30.0, 0), req(31.0, 0)]).unwrap();

        let repaired = Simulation::new(&catalog, &cluster, &layout, mk(4_000))
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(repaired.admitted, 2);
        assert_eq!(repaired.rejected, 0);

        let passive = Simulation::new(&catalog, &cluster, &layout, mk(0))
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(passive.admitted, 1);
        assert_eq!(passive.rejected, 1);
    }

    #[test]
    fn failure_model_runs_are_deterministic() {
        let catalog = Catalog::fixed_rate(4, BitRate::MPEG2, 300).unwrap();
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 40_000,
            },
        )
        .unwrap();
        let layout = Layout::new(
            4,
            (0..4u32)
                .map(|v| vec![ServerId(v % 4), ServerId((v + 1) % 4)])
                .collect(),
        )
        .unwrap();
        let cfg = SimConfig {
            failure_model: Some(crate::failure::FailureModel::exponential(30.0, 10.0, 7)),
            repair: RepairConfig {
                bandwidth_kbps: 4_000,
                max_concurrent: 2,
            },
            failover: crate::repair::FailoverPolicy::ResumeOrDegrade,
            ..SimConfig::paper_default()
        };
        let trace = Trace::new(
            (0..60)
                .map(|k| req(k as f64 * 1.5, k % 4))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let a = sim.run(&trace).unwrap();
        let b = sim.run(&trace).unwrap();
        assert_eq!(a, b);
        // The model actually fired (MTBF 30 min over a 90-min horizon on
        // four servers makes failures overwhelmingly likely at this seed).
        assert!(a.disrupted + a.resumed + a.degraded > 0);
    }

    #[test]
    fn telemetry_counters_match_report() {
        let (catalog, cluster, layout) = tiny_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()).unwrap();
        let trace = Trace::new(vec![req(0.0, 0), req(5.0, 0), req(12.0, 0)]).unwrap();
        let telemetry = Telemetry::enabled();
        let r = sim.run_with_telemetry(&trace, &telemetry).unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("sim.arrivals"), r.arrivals);
        assert_eq!(snap.counter("sim.admitted"), r.admitted);
        assert_eq!(snap.counter("sim.rejected"), r.rejected);
        // Every admitted stream eventually departs (possibly in the
        // post-horizon drain).
        assert_eq!(snap.counter("sim.departures"), r.admitted);
        // Static RR probes exactly once per arrival.
        assert_eq!(snap.counter("sim.admission_probes"), r.arrivals);
        // 90-min horizon, 1-min cadence: samples at 0..=90.
        assert_eq!(snap.counter("sim.samples"), 91);
        assert_eq!(snap.histogram("sim.run").count, 1);
        assert_eq!(snap.histogram("sim.engine.events_per_sec").count, 1);
        assert!(snap.histogram("sim.engine.events_per_sec").min > 0.0);
        // One rate histogram per run, under the `sim.engine.` name only.
        assert_eq!(snap.histogram("sim.events_per_sec").count, 0);
        assert_eq!(
            snap.counter("sim.events"),
            r.arrivals + r.admitted + 91 // arrivals + departures + samples
        );
    }

    #[test]
    fn disabled_telemetry_is_equivalent() {
        let (catalog, cluster, layout) = tiny_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()).unwrap();
        let trace = Trace::new(vec![req(0.0, 0), req(5.0, 0)]).unwrap();
        let plain = sim.run(&trace).unwrap();
        let telemetry = Telemetry::enabled();
        let instrumented = sim.run_with_telemetry(&trace, &telemetry).unwrap();
        assert_eq!(plain.arrivals, instrumented.arrivals);
        assert_eq!(plain.admitted, instrumented.admitted);
        assert_eq!(plain.rejected, instrumented.rejected);
        assert_eq!(plain.rejection_rate, instrumented.rejection_rate);
    }

    #[test]
    fn failure_on_unknown_server_rejected_at_bind() {
        let (catalog, cluster, layout) = tiny_world();
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(9),
            down_at_min: 5.0,
            up_at_min: None,
        }]);
        assert!(matches!(
            Simulation::new(&catalog, &cluster, &layout, cfg),
            Err(ModelError::UnknownServer(ServerId(9)))
        ));
    }

    #[test]
    fn zero_shards_rejected_at_bind() {
        let (catalog, cluster, layout) = tiny_world();
        let cfg = SimConfig {
            shards: 0,
            ..SimConfig::paper_default()
        };
        assert!(matches!(
            Simulation::new(&catalog, &cluster, &layout, cfg),
            Err(ModelError::InvalidParameter { name: "shards", .. })
        ));
    }

    /// Four videos on four servers (one replica each), ample storage,
    /// four concurrent streams per link: the drifting-demand testbed.
    fn controller_world() -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(4, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 16_000,
            },
        )
        .unwrap();
        let layout = Layout::new(4, (0..4u32).map(|v| vec![ServerId(v)]).collect()).unwrap();
        (catalog, cluster, layout)
    }

    fn controller_cfg(tick_min: f64) -> SimConfig {
        SimConfig {
            repair: RepairConfig {
                bandwidth_kbps: 4_000,
                max_concurrent: 4,
            },
            controller: ControllerConfig {
                tick_min,
                ..ControllerConfig::default()
            },
            ..SimConfig::paper_default()
        }
    }

    /// Video 0 turns hot: a light early wave seeds the estimator, then a
    /// burst of ten concurrent requests. Static placement (one replica,
    /// four stream slots) drops most of the burst; the controller has
    /// re-replicated video 0 across the cluster by then and serves it.
    fn drifting_trace() -> Trace {
        let mut reqs = vec![req(0.0, 0), req(0.5, 0)];
        reqs.extend((0..10).map(|k| req(40.0 + 0.2 * k as f64, 0)));
        Trace::new(reqs).unwrap()
    }

    #[test]
    fn controller_rereplication_beats_static_under_drift() {
        let (catalog, cluster, layout) = controller_world();
        let trace = drifting_trace();
        let stat = Simulation::new(&catalog, &cluster, &layout, controller_cfg(0.0))
            .unwrap()
            .run(&trace)
            .unwrap();
        let ctrl = Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0))
            .unwrap()
            .run(&trace)
            .unwrap();
        // Static: the burst is capped at server 0's four stream slots.
        assert_eq!(stat.admitted, 2 + 4);
        assert_eq!(stat.controller_ticks, 0);
        assert_eq!(stat.controller_copies, 0);
        // Controller: video 0 promoted at the first tick, three replica
        // copies complete well before the burst; everything is served.
        assert_eq!(ctrl.admitted, 2 + 10);
        assert_eq!(ctrl.controller_ticks, 18); // every 5 min over 90 min
        assert!(ctrl.controller_promotions >= 1);
        assert_eq!(ctrl.controller_copies, 3);
        assert!(ctrl.controller_bytes_copied > 0);
        assert!(ctrl.is_conservative());
        assert!(stat.is_conservative());
    }

    #[test]
    fn controller_runs_are_deterministic() {
        let (catalog, cluster, layout) = controller_world();
        let trace = drifting_trace();
        let sim = Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0)).unwrap();
        let a = sim.run(&trace).unwrap();
        let b = sim.run(&trace).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn controller_telemetry_counters_fire() {
        let (catalog, cluster, layout) = controller_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0)).unwrap();
        let telemetry = Telemetry::enabled();
        let r = sim
            .run_with_telemetry(&drifting_trace(), &telemetry)
            .unwrap();
        let snap = telemetry.snapshot();
        assert!(r.controller_ticks > 0);
        assert_eq!(snap.counter("sim.controller.ticks"), r.controller_ticks);
        assert_eq!(
            snap.counter("sim.controller.backoffs"),
            r.controller_backoffs
        );
        assert_eq!(
            snap.counter("sim.controller.promotions"),
            r.controller_promotions
        );
        assert_eq!(
            snap.counter("sim.controller.demotions"),
            r.controller_demotions
        );
        assert_eq!(snap.counter("sim.controller.retired"), r.controller_retired);
        assert_eq!(snap.counter("sim.controller.copies"), r.controller_copies);
        assert_eq!(
            snap.counter("sim.controller.bytes_copied"),
            r.controller_bytes_copied
        );
    }

    #[test]
    fn controller_backs_off_while_failure_repair_runs() {
        // A server is down across the first control ticks: the controller
        // must cede the copy budget to failure repair and only count
        // backoffs until the outage clears.
        let (catalog, cluster, layout) = controller_world();
        let cfg = SimConfig {
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(3),
                down_at_min: 1.0,
                up_at_min: Some(22.0),
            }])
            .unwrap(),
            ..controller_cfg(5.0)
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&drifting_trace()).unwrap();
        // Ticks at 5/10/15/20 fall inside the outage: at least those back
        // off; later ticks promote the hot video as usual.
        assert!(r.controller_backoffs >= 4, "{}", r.controller_backoffs);
        assert!(r.controller_promotions >= 1);
        assert!(r.is_conservative());
    }

    #[test]
    fn controller_without_repair_bandwidth_senses_but_never_copies() {
        let (catalog, cluster, layout) = controller_world();
        let cfg = SimConfig {
            repair: RepairConfig {
                bandwidth_kbps: 0,
                max_concurrent: 4,
            },
            ..controller_cfg(5.0)
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&drifting_trace()).unwrap();
        assert!(r.controller_ticks > 0);
        assert!(r.controller_promotions >= 1); // targets still move…
        assert_eq!(r.controller_copies, 0); // …but nothing is copied
        assert_eq!(r.controller_bytes_copied, 0);
        // Without new replicas the burst is still bandwidth-capped.
        assert_eq!(r.admitted, 2 + 4);
    }

    #[test]
    fn controller_demotes_cooled_videos_under_storage_pressure() {
        // Finite storage: each server fits exactly two videos, so the
        // cluster has 8 replica slots for 4 videos. Video 0 is hot early
        // and takes the spare slots; when demand shifts to video 1 the
        // controller must retire video 0's surplus to free them.
        let catalog = Catalog::fixed_rate(4, BitRate::MPEG2, 600).unwrap();
        let video_bytes = BitRate::MPEG2.storage_bytes(600);
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: 2 * video_bytes,
                bandwidth_kbps: 16_000,
            },
        )
        .unwrap();
        let layout = Layout::new(4, (0..4u32).map(|v| vec![ServerId(v)]).collect()).unwrap();
        let mut reqs: Vec<Request> = (0..10).map(|k| req(2.0 * k as f64, 0)).collect();
        reqs.extend((0..60).map(|k| req(30.0 + 0.5 * k as f64, 1)));
        let trace = Trace::new(reqs).unwrap();
        let sim = Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0)).unwrap();
        let r = sim.run(&trace).unwrap();
        assert!(r.controller_promotions >= 2, "{}", r.controller_promotions);
        assert!(r.controller_demotions >= 1, "{}", r.controller_demotions);
        assert!(r.controller_retired >= 1, "{}", r.controller_retired);
        assert!(r.is_conservative());
        // Deterministic replay, byte for byte.
        let again = sim.run(&trace).unwrap();
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    // ---- erasure-coded serving ----

    /// One `Coded { k, m }` video striped over the first `k + m` of `n`
    /// servers (fragment order s0, s1, …).
    fn coded_tiny(
        n: usize,
        k: u32,
        par: u32,
        bandwidth_kbps: u64,
    ) -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            n,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps,
            },
        )
        .unwrap();
        let map = vod_model::redundancy::RedundancyMap::uniform(
            1,
            vod_model::redundancy::RedundancyScheme::Coded { k, m: par },
        )
        .unwrap();
        let layout = vod_placement::place_coded(n, &[], &map).unwrap();
        (catalog, cluster, layout)
    }

    #[test]
    fn coded_stream_needs_k_free_fragment_holders() {
        // (2, 1) on 3 servers, each link fits exactly one 2 000 kbps
        // share: the first stream occupies two fragments, leaving one —
        // a concurrent request cannot gather k = 2 and is rejected.
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 2_000);
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()).unwrap();
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(5.0, 0), req(10.0, 0)]).unwrap())
            .unwrap();
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 1);
        assert!(r.is_conservative());
    }

    #[test]
    fn coded_single_failure_reattaches_to_parity_fragment() {
        // Serving from fragments {s0, s1}; s1 dies mid-play. The share
        // re-attaches to the parity holder s2 (a degraded read) and the
        // stream survives to completion.
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 8_000);
        let cfg = SimConfig {
            failover: FailoverPolicy::ResumeOrDegrade,
            ..failing_cfg(vec![Outage {
                server: ServerId(1),
                down_at_min: 5.0,
                up_at_min: None,
            }])
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let tel = Telemetry::enabled();
        let r = sim
            .run_with_telemetry(&Trace::new(vec![req(0.0, 0)]).unwrap(), &tel)
            .unwrap();
        assert_eq!(r.admitted, 1);
        assert_eq!(r.disrupted, 0);
        assert_eq!(r.resumed, 1);
        assert!(r.is_conservative());
        let snap = tel.snapshot();
        assert_eq!(snap.counter("sim.coded.shares_reattached"), 1);
        assert_eq!(snap.counter("sim.coded.degraded_reads"), 1);
    }

    #[test]
    fn coded_losing_more_than_m_fragments_kills_the_stream() {
        // (2, 1) tolerates one loss; the second exceeds the parity
        // margin and the stream dies through the normal failover path.
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 8_000);
        let cfg = SimConfig {
            failover: FailoverPolicy::ResumeOrDegrade,
            ..failing_cfg(vec![
                Outage {
                    server: ServerId(0),
                    down_at_min: 4.0,
                    up_at_min: None,
                },
                Outage {
                    server: ServerId(1),
                    down_at_min: 5.0,
                    up_at_min: None,
                },
            ])
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&Trace::new(vec![req(0.0, 0)]).unwrap()).unwrap();
        assert_eq!(r.admitted, 1);
        assert_eq!(r.resumed, 1, "first loss re-attaches to s2");
        assert_eq!(r.disrupted, 1, "second loss has no fragment left");
        assert!(r.goodput < 1.0, "killed stream forfeits its remainder");
        assert!(r.is_conservative());
    }

    #[test]
    fn coded_kill_policy_kills_on_first_loss() {
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 8_000);
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: None,
        }]);
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&Trace::new(vec![req(0.0, 0)]).unwrap()).unwrap();
        assert_eq!(r.disrupted, 1);
        assert_eq!(r.resumed, 0);
        assert!(r.is_conservative());
    }

    #[test]
    fn coded_layout_rejects_controller_and_backbone_redirect() {
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 8_000);
        let backbone = SimConfig {
            policy: AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 1_000_000,
            },
            ..SimConfig::paper_default()
        };
        assert!(Simulation::new(&catalog, &cluster, &layout, backbone).is_err());
        assert!(Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0)).is_err());
    }

    #[test]
    fn coded_repair_reconstructs_lost_fragment_mid_run() {
        // Stripe on {s0, s1, s2}; s0 dies for good at t=5. With repair
        // bandwidth the lost fragment is rebuilt on the spare s3 from
        // k = 2 survivors, and the deficit window closes right after.
        let (catalog, cluster, layout) = coded_tiny(4, 2, 1, 100_000);
        let cfg = SimConfig {
            repair: RepairConfig {
                bandwidth_kbps: 50_000,
                max_concurrent: 4,
            },
            ..failing_cfg(vec![Outage {
                server: ServerId(0),
                down_at_min: 5.0,
                up_at_min: None,
            }])
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let tel = Telemetry::enabled();
        let r = sim
            .run_with_telemetry(&Trace::new(vec![]).unwrap(), &tel)
            .unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("sim.repair.coded.reconstructions"), 1);
        // Reading k fragments to write one: 2× the bytes written.
        assert_eq!(
            snap.counter("sim.repair.coded.bytes"),
            2 * r.repair_bytes_copied
        );
        assert!(r.redundancy_deficit_video_min > 0.0);
        assert!(
            r.redundancy_deficit_video_min < 5.0,
            "repair must close the deficit quickly, got {}",
            r.redundancy_deficit_video_min
        );
        assert_eq!(r.unavailability_video_min, 0.0);
    }

    // ---- wide striping: the k = N, m = 0 stripe ----

    /// Four 10-minute videos, each striped over all four servers with no
    /// parity: every stream draws a 1 000 kbps share from every link.
    fn striped_world(bandwidth_kbps: u64, storage_bytes: u64) -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(4, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes,
                bandwidth_kbps,
            },
        )
        .unwrap();
        let map = vod_model::redundancy::RedundancyMap::uniform(
            4,
            vod_model::redundancy::RedundancyScheme::Coded { k: 4, m: 0 },
        )
        .unwrap();
        let layout = vod_placement::place_coded(4, &[], &map).unwrap();
        (catalog, cluster, layout)
    }

    fn run_striped(bandwidth_kbps: u64, requests: Vec<Request>) -> SimReport {
        let (catalog, cluster, layout) = striped_world(bandwidth_kbps, u64::MAX);
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()).unwrap();
        sim.run(&Trace::new(requests).unwrap()).unwrap()
    }

    #[test]
    fn striped_link_capacity_gates_aggregate_admission() {
        // A 4 400 kbps link at 10% coordination overhead serves like a
        // 4 000 kbps link: four 1 000 kbps shares, so exactly four
        // concurrent streams cluster-wide.
        let reqs: Vec<Request> = (0..6).map(|k| req(k as f64 * 0.5, k % 4)).collect();
        let r = run_striped(4_000, reqs);
        assert_eq!((r.admitted, r.rejected), (4, 2));
        assert!(r.is_conservative());
    }

    #[test]
    fn striped_overhead_admits_fewer_streams() {
        // The overhead derates each link to ⌊B / (1 + overhead)⌋.
        let reqs = || (0..5).map(|k| req(k as f64 * 0.5, k % 4)).collect();
        let free = run_striped(4_400, reqs());
        assert_eq!(free.admitted, 4); // ⌊4 400 / 1 000⌋
        let heavy = run_striped(2_933, reqs()); // 4 400 at 50% overhead
        assert_eq!(heavy.admitted, 2); // ⌊2 933 / 1 000⌋
    }

    #[test]
    fn striped_balance_is_perfect() {
        let r = run_striped(4_400, (0..4).map(|k| req(k as f64, k)).collect());
        assert_eq!(r.admitted, 4);
        assert!(r.mean_imbalance_cv < 1e-12);
        assert!(r.mean_imbalance_maxdev_streams < 1e-12);
    }

    #[test]
    fn striped_single_failure_disrupts_every_stream() {
        // Three streams start before server 2 fails at t=2; all die.
        // The arrival during the outage is rejected (no stripe has all
        // k = 4 holders live); after recovery admission works again.
        let (catalog, cluster, layout) = striped_world(4_000, u64::MAX);
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(2),
            down_at_min: 2.0,
            up_at_min: Some(5.0),
        }]);
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let reqs = vec![
            req(0.0, 0),
            req(0.5, 1),
            req(1.0, 2),
            req(3.0, 3),
            req(6.0, 0),
        ];
        let r = sim.run(&Trace::new(reqs).unwrap()).unwrap();
        assert_eq!(r.disrupted, 3);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.admitted, 4);
        assert!(r.is_conservative());
    }

    #[test]
    fn striped_fragments_must_fit_storage() {
        let (catalog, cluster, layout) = striped_world(10_000, 1);
        assert!(matches!(
            Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()),
            Err(ModelError::StorageExceeded { .. })
        ));
        // Four quarter-size fragments per server fit one video's bytes.
        let one_video = BitRate::MPEG2.storage_bytes(600);
        let (catalog, cluster, layout) = striped_world(10_000, one_video);
        assert!(Simulation::new(&catalog, &cluster, &layout, SimConfig::paper_default()).is_ok());
    }
}
