//! The measurement loop shared by every workload.
//!
//! A run builds the workload's world, replays one *reference pass* with
//! engine counters on and checks its outputs, then repeats timed passes
//! until the time budget is spent. Before each timed pass the world is
//! built afresh a fixed number of times, so the set-ups (`setup_s` is
//! their median) are sampled across the whole run, under the same host
//! conditions as the passes. Every timed pass must reproduce the
//! reference reports exactly. An untraced run reports the end-to-end
//! metrics; a traced run alternates untraced and traced passes and
//! reports the per-layer metrics, including the tracing overhead
//! between the two.

use crate::trace::{busy_secs, calls, child_coverage, median, quantile, SpanRec, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::error::Error;
use std::fmt::Display;
use std::time::{Duration, Instant};
use vod_sim::SimReport;
use vod_telemetry::{Snapshot, Telemetry};

/// Timed passes per run, at least, however long one pass takes.
const MIN_PASSES: usize = 3;

/// Traced `sim.run` spans needed before run-time percentiles are
/// reported (p90 then has at least ten samples beyond it).
const MIN_RUNS_FOR_PERCENTILES: usize = 100;

/// Derives an independent sub-seed (SplitMix64 over `seed` and `tags`).
pub fn derive(seed: u64, tags: &[u64]) -> u64 {
    let mut z = seed;
    for &t in tags {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15 ^ t.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// A ChaCha8 generator seeded from `derive(seed, tags)`.
pub fn seeded(seed: u64, tags: &[u64]) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(derive(seed, tags))
}

/// Outcome counts of one annealing call.
#[derive(Debug, Clone, Copy)]
pub struct AnnealStats {
    /// Metropolis steps proposed.
    pub steps: u64,
    /// Steps accepted.
    pub accepted: u64,
    /// Steps that never reached the Metropolis test.
    pub infeasible: u64,
    /// Best energy found (must repeat bit for bit).
    pub best_energy: f64,
}

/// What one pass over a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Engine reports, in replay order.
    pub reports: Vec<SimReport>,
    /// Requests in each replayed materialized trace (empty for streamed
    /// arrivals, which are counted separately).
    pub trace_lens: Vec<u64>,
    /// Requests the workload layer generated during this pass.
    pub generated: u64,
    /// Host seconds spent inside `Simulation` run calls.
    pub sim_secs: f64,
    /// Library calls attempted.
    pub ops: u64,
    /// Failed library calls, described.
    pub errors: Vec<String>,
    /// The pass's annealing outcome, if it anneals.
    pub anneal: Option<AnnealStats>,
}

impl Pass {
    /// Counts one attempted call and keeps its value, or records its
    /// error.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.ops += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Output checks; each counts as one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a check that every report of `pass` is conservative and
    /// saw exactly the requests its trace held.
    pub fn reports_sound(&mut self, pass: &Pass) {
        for (i, r) in pass.reports.iter().enumerate() {
            self.check(r.is_conservative(), || {
                format!("report {i} is not conservative")
            });
        }
        for (i, (r, &n)) in pass.reports.iter().zip(&pass.trace_lens).enumerate() {
            self.check(r.arrivals == n, || {
                format!(
                    "report {i}: {} arrivals vs {n} generated requests",
                    r.arrivals
                )
            });
        }
    }
}

/// One benchmark workload.
pub trait Bench {
    /// One pass of the workload's timed work, recording engine counters
    /// into `telemetry` and layer spans into `tracer`.
    fn pass(&self, telemetry: &Telemetry, tracer: &mut Tracer) -> Pass;

    /// Output checks on the reference pass (recorded with `snapshot`'s
    /// counters on); run outside every timed section.
    fn check(&self, reference: &Pass, snapshot: &Snapshot, checks: &mut Checks);

    /// Host seconds of one `shards = 1` replay of the pass's engine
    /// inputs; `None` for workloads that do not shard.
    fn serial_replay_secs(&self) -> Option<f64> {
        None
    }

    /// Replica-connected server groups of the layout; `None` for
    /// workloads that do not shard.
    fn shard_groups(&self) -> Option<usize> {
        None
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: library calls plus output checks.
    pub attempted: u64,
    /// Failed calls, failed checks and passes that diverged from the
    /// reference, one entry each.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Recorded spans (traced run only).
    pub spans: Vec<SpanRec>,
}

/// Per-layer figures of one traced pass.
struct TracedPass {
    wall: f64,
    coverage: f64,
    workload_busy: f64,
    generated: f64,
    replication_busy: f64,
    placement_busy: f64,
    replication_calls: f64,
    placement_calls: f64,
    anneal_busy: f64,
    sim_setup: f64,
    sim_busy: f64,
    sim_runs: f64,
}

/// Engine counters summed over the traced passes.
#[derive(Default)]
struct Counters {
    events: u64,
    arrivals: u64,
    rejected: u64,
    probes: u64,
    departures: u64,
    transitions: u64,
    disrupted: u64,
    repair_copies: u64,
    repair_bytes: u64,
    resumed: u64,
    degraded: u64,
    windows: u64,
    window_events: u64,
    coalesced: u64,
    stalls: u64,
    bytes_per_stream: f64,
}

impl Counters {
    fn add(&mut self, s: &Snapshot) {
        self.events += s.counter("sim.events");
        self.arrivals += s.counter("sim.arrivals");
        self.rejected += s.counter("sim.rejected");
        self.probes += s.counter("sim.admission_probes");
        self.departures += s.counter("sim.departures");
        self.transitions += s.counter("sim.transitions");
        self.disrupted += s.counter("sim.disrupted");
        self.repair_copies += s.counter("sim.repair.copies");
        self.repair_bytes += s.counter("sim.repair.bytes_copied");
        self.resumed += s.counter("sim.streams.resumed");
        self.degraded += s.counter("sim.streams.degraded");
        self.windows += s.counter("sim.window.windows");
        self.window_events += s.counter("sim.window.events");
        self.coalesced += s.counter("sim.window.coalesced");
        self.stalls += s.counter("sim.window.stalls");
        let h = s.histogram("sim.engine.bytes_per_active_stream");
        if h.count > 0 {
            self.bytes_per_stream = self.bytes_per_stream.max(h.max);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Builds one world, recording the host seconds it took.
fn timed_setup<B>(
    setup: &impl Fn() -> Result<B, Box<dyn Error>>,
    setup_secs: &mut Vec<f64>,
) -> Result<B, Box<dyn Error>> {
    let started = Instant::now();
    let world = setup()?;
    setup_secs.push(started.elapsed().as_secs_f64());
    Ok(world)
}

/// Runs one workload: one set-up and the checked reference pass, then
/// `seconds` of timed passes, each on a world freshly built
/// `setups_per_pass` times (`setup_s` is the median of every set-up).
pub fn run<B: Bench>(
    setup: impl Fn() -> Result<B, Box<dyn Error>>,
    setups_per_pass: usize,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, Box<dyn Error>> {
    let mut setup_secs = Vec::new();
    let mut world = timed_setup(&setup, &mut setup_secs)?;

    let origin = Instant::now();
    let ref_telemetry = Telemetry::enabled();
    let reference = world.pass(&ref_telemetry, &mut Tracer::off(origin));
    let ref_snapshot = ref_telemetry.snapshot();
    let events_per_pass = ref_snapshot.counter("sim.events") as f64;

    let mut attempted = reference.ops;
    let mut failures = reference.errors.clone();
    let mut checks = Checks::default();
    world.check(&reference, &ref_snapshot, &mut checks);
    checks.check(events_per_pass > 0.0, || {
        "reference pass ran no events".into()
    });

    let disabled = Telemetry::disabled();
    let mut walls = Vec::new();
    let mut events_per_s = Vec::new();
    let mut sim_secs = Vec::new();
    let mut traced_passes: Vec<TracedPass> = Vec::new();
    let mut run_ms = Vec::new();
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut counters = Counters::default();
    let mut serial_secs = Vec::new();

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        // The old world goes before the next is built, so the peak
        // resident set holds one world at a time.
        for _ in 0..setups_per_pass.max(1) {
            drop(world);
            world = timed_setup(&setup, &mut setup_secs)?;
        }
        let mut tracer = Tracer::off(origin);
        let started = Instant::now();
        let out = world.pass(&disabled, &mut tracer);
        let wall = started.elapsed().as_secs_f64();
        walls.push(wall);
        sim_secs.push(out.sim_secs);
        events_per_s.push(ratio(events_per_pass, out.sim_secs));
        attempted += out.ops;
        if !same_outputs(&reference, &out) {
            failures.push(format!(
                "timed pass {} did not reproduce the reference outputs",
                walls.len()
            ));
        }
        failures.extend(out.errors);

        if traced {
            let telemetry = Telemetry::enabled();
            let mut tracer = Tracer::on(origin);
            let (out, _) = tracer.span("pass", |tr| world.pass(&telemetry, tr));
            let mut pass_spans = tracer.into_spans();
            counters.add(&telemetry.snapshot());
            attempted += out.ops;
            if !same_outputs(&reference, &out) {
                failures.push(format!(
                    "traced pass {} did not reproduce the reference outputs",
                    traced_passes.len()
                ));
            }
            failures.extend(out.errors.iter().cloned());
            let s = &pass_spans;
            traced_passes.push(TracedPass {
                wall: s[0].secs(),
                coverage: child_coverage(s, 0),
                workload_busy: busy_secs(s, "workload") + busy_secs(s, "workload.pull"),
                generated: out.generated as f64,
                replication_busy: busy_secs(s, "replication"),
                placement_busy: busy_secs(s, "placement"),
                replication_calls: calls(s, "replication") as f64,
                placement_calls: calls(s, "placement") as f64,
                anneal_busy: busy_secs(s, "anneal"),
                sim_setup: busy_secs(s, "sim.setup"),
                sim_busy: busy_secs(s, "sim.run"),
                sim_runs: calls(s, "sim.run") as f64,
            });
            run_ms.extend(
                s.iter()
                    .filter(|sp| sp.name == "sim.run")
                    .map(|sp| sp.secs() * 1e3),
            );
            let base = spans.len();
            for sp in &mut pass_spans {
                sp.parent = sp.parent.map(|p| p + base);
            }
            spans.extend(pass_spans);
            if let Some(secs) = world.serial_replay_secs() {
                serial_secs.push(secs);
            }
        }
    }
    eprintln!(
        "perfbench: {} untraced passes, wall min {:.6} p10 {:.6} p50 {:.6} p90 {:.6} s",
        walls.len(),
        quantile(&walls, 0.0),
        quantile(&walls, 0.1),
        quantile(&walls, 0.5),
        quantile(&walls, 0.9),
    );
    eprintln!(
        "perfbench: {} set-ups, min {:.6} p10 {:.6} p50 {:.6} p90 {:.6} s",
        setup_secs.len(),
        quantile(&setup_secs, 0.0),
        quantile(&setup_secs, 0.1),
        quantile(&setup_secs, 0.5),
        quantile(&setup_secs, 0.9),
    );
    attempted += checks.attempted;
    failures.extend(checks.failures);

    let metrics = if traced {
        layer_metrics(&LayerInputs {
            reference: &reference,
            passes: &traced_passes,
            counters: &counters,
            run_ms: &run_ms,
            untraced_walls: &walls,
            untraced_sim_secs: &sim_secs,
            serial_secs: &serial_secs,
            groups: world.shard_groups(),
        })
    } else {
        end_to_end_metrics(&reference, &walls, &events_per_s, &setup_secs)
    };
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        spans,
    })
}

/// Whether a timed pass reproduced the reference pass's outputs.
fn same_outputs(reference: &Pass, out: &Pass) -> bool {
    out.reports == reference.reports
        && out.trace_lens == reference.trace_lens
        && match (reference.anneal, out.anneal) {
            (Some(a), Some(b)) => a.best_energy.to_bits() == b.best_energy.to_bits(),
            (None, None) => true,
            _ => false,
        }
}

/// The simulated end-to-end metrics of a pass: the paper's rejection
/// rate (Fig. 4/5), the mean Eq. 3 imbalance (Fig. 6) and the goodput.
fn simulated(pass: &Pass) -> (f64, f64, f64) {
    let n = pass.reports.len().max(1) as f64;
    let arrivals: u64 = pass.reports.iter().map(|r| r.arrivals).sum();
    let rejected: u64 = pass.reports.iter().map(|r| r.rejected).sum();
    let cv = pass
        .reports
        .iter()
        .map(|r| r.mean_imbalance_cv)
        .sum::<f64>()
        / n;
    let goodput = pass.reports.iter().map(|r| r.goodput).sum::<f64>() / n;
    (
        100.0 * ratio(rejected as f64, arrivals as f64),
        cv,
        100.0 * goodput,
    )
}

fn end_to_end_metrics(
    reference: &Pass,
    walls: &[f64],
    events_per_s: &[f64],
    setup_secs: &[f64],
) -> Vec<Metric> {
    let (rejection_pct, imbalance_cv, goodput_pct) = simulated(reference);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("wall_s", median(walls), "s"),
        m("events_per_s", median(events_per_s), "1/s"),
        m("setup_s", median(setup_secs), "s"),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
        m("rejection_pct", rejection_pct, "%"),
        m("imbalance_cv", imbalance_cv, "ratio"),
        m("goodput_pct", goodput_pct, "%"),
    ]
}

struct LayerInputs<'a> {
    reference: &'a Pass,
    passes: &'a [TracedPass],
    counters: &'a Counters,
    run_ms: &'a [f64],
    untraced_walls: &'a [f64],
    untraced_sim_secs: &'a [f64],
    serial_secs: &'a [f64],
    groups: Option<usize>,
}

fn layer_metrics(inp: &LayerInputs) -> Vec<Metric> {
    let per = |f: fn(&TracedPass) -> f64| median(&inp.passes.iter().map(f).collect::<Vec<_>>());
    let n = inp.passes.len().max(1) as f64;
    let c = inp.counters;
    let per_pass = |v: u64| v as f64 / n;

    let workload_busy = per(|p| p.workload_busy);
    let generated = per(|p| p.generated);
    let anneal_busy = per(|p| p.anneal_busy);
    let (steps, accept, infeasible) = inp.reference.anneal.map_or((0.0, 0.0, 0.0), |a| {
        let steps = a.steps as f64;
        (
            steps,
            ratio(a.accepted as f64, steps),
            ratio(a.infeasible as f64, steps),
        )
    });
    let (p50, p90) = if inp.run_ms.len() >= MIN_RUNS_FOR_PERCENTILES {
        (quantile(inp.run_ms, 0.5), quantile(inp.run_ms, 0.9))
    } else {
        (0.0, 0.0)
    };
    // No serial replays (a workload that does not shard) gives 0.
    let speedup = ratio(median(inp.serial_secs), median(inp.untraced_sim_secs));
    let overhead_pct = 100.0 * (ratio(per(|p| p.wall), median(inp.untraced_walls)) - 1.0);

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("workload.busy_s", workload_busy, "s"),
        m("workload.requests", generated, "count"),
        m(
            "workload.requests_per_s",
            ratio(generated, workload_busy),
            "1/s",
        ),
        m("replication.busy_s", per(|p| p.replication_busy), "s"),
        m("placement.busy_s", per(|p| p.placement_busy), "s"),
        m("replication.calls", per(|p| p.replication_calls), "count"),
        m("placement.calls", per(|p| p.placement_calls), "count"),
        m("anneal.busy_s", anneal_busy, "s"),
        m("anneal.steps_per_s", ratio(steps, anneal_busy), "1/s"),
        m("anneal.accept_ratio", accept, "ratio"),
        m("anneal.infeasible_ratio", infeasible, "ratio"),
        m("sim.setup_s", per(|p| p.sim_setup), "s"),
        m("sim.busy_s", per(|p| p.sim_busy), "s"),
        m("sim.runs", per(|p| p.sim_runs), "count"),
        m("sim.run_ms_p50", p50, "ms"),
        m("sim.run_ms_p90", p90, "ms"),
        m(
            "sim.dispatch.probes_per_arrival",
            ratio(c.probes as f64, c.arrivals as f64),
            "ratio",
        ),
        m(
            "sim.dispatch.reject_ratio",
            ratio(c.rejected as f64, c.arrivals as f64),
            "ratio",
        ),
        m("sim.event.departures", per_pass(c.departures), "count"),
        m("sim.event.bytes_per_active_stream", c.bytes_per_stream, "B"),
        m(
            "sim.event.peak_streams",
            inp.reference
                .reports
                .iter()
                .map(|r| r.peak_concurrent_streams)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        m("sim.failure.transitions", per_pass(c.transitions), "count"),
        m("sim.failure.disrupted", per_pass(c.disrupted), "count"),
        m("sim.repair.copies", per_pass(c.repair_copies), "count"),
        m("sim.repair.bytes_copied", per_pass(c.repair_bytes), "B"),
        m("sim.repair.resumed", per_pass(c.resumed), "count"),
        m("sim.repair.degraded", per_pass(c.degraded), "count"),
        m("sim.shard.groups", inp.groups.unwrap_or(0) as f64, "count"),
        m("sim.shard.windows", per_pass(c.windows), "count"),
        m("sim.shard.coalesced", per_pass(c.coalesced), "count"),
        m("sim.shard.stalls", per_pass(c.stalls), "count"),
        m(
            "sim.shard.window_event_share",
            ratio(c.window_events as f64, c.events as f64),
            "ratio",
        ),
        m("sim.shard.speedup_vs_serial", speedup, "x"),
        m("telemetry.overhead_pct", overhead_pct, "%"),
        m(
            "telemetry.span_coverage_pct",
            100.0 * per(|p| p.coverage),
            "%",
        ),
    ]
}

/// This process's peak resident set in MiB (`VmHWM`), or 0 where procfs
/// is unavailable. Each run is its own process, so the high-water mark
/// belongs to one workload.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line
                .trim_start_matches("VmHWM:")
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_tag_and_repeat() {
        assert_eq!(derive(7, &[1, 2]), derive(7, &[1, 2]));
        assert_ne!(derive(7, &[1, 2]), derive(7, &[2, 1]));
        assert_ne!(derive(7, &[1]), derive(8, &[1]));
    }

    #[test]
    fn op_counts_attempts_and_errors() {
        let mut pass = Pass::default();
        assert_eq!(pass.op("ok", Ok::<_, String>(3)), Some(3));
        assert_eq!(pass.op("bad", Err::<u8, _>("boom")), None);
        assert_eq!(pass.ops, 2);
        assert_eq!(pass.errors, vec!["bad: boom".to_string()]);
    }
}
