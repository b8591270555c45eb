//! Rejection accounting and load-imbalance sampling.
//!
//! The evaluation's primary metric is the **rejection rate** ("We use the
//! rejection rate as the performance metric", Sec. 5); Figure 6 adds the
//! **load-imbalance degree L(%)** sampled during the run. The collector
//! samples per-server loads (in concurrent streams) on a fixed cadence and
//! averages the Eq. (2)/(3) imbalance over all samples with non-zero mean
//! load.

use serde::{Deserialize, Serialize};
use vod_model::load;
use vod_workload::stats;

/// One recorded load snapshot (when series recording is enabled).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSample {
    /// Sample instant, minutes from the simulation epoch.
    pub at_min: f64,
    /// Per-server concurrent stream counts.
    pub streams: Vec<f64>,
}

/// Online metrics accumulator.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    arrivals: u64,
    admitted: u64,
    rejected: u64,
    redirected: u64,
    disrupted: u64,
    resumed: u64,
    degraded: u64,
    queued: u64,
    retried: u64,
    abandoned: u64,
    degraded_served: u64,
    /// Admission waits: exact `+0.0` waits (instant admissions, nearly
    /// all of them) are only counted, the rest are kept.
    zero_waits: u64,
    nonzero_waits_min: Vec<f64>,
    /// Left-to-right sum of every wait, folded exactly as
    /// `Iterator::sum` folds the full sample.
    wait_sum_min: f64,
    /// Offered traffic in exact `kbps·seconds` (integer so shard merges
    /// are order-independent); converted to `kbps·minutes` once, in
    /// [`MetricsCollector::finish`].
    offered_kbps_s: u128,
    /// Delivered traffic in exact `kbps·seconds`.
    delivered_kbps_s: u128,
    /// Traffic booked as delivered but later killed or rate-reduced, in
    /// exact `kbps·ticks` (millisecond resolution).
    undelivered_kbps_ticks: u128,
    brownout_active_min: f64,
    repair_bytes_copied: u64,
    repair_copies: u64,
    time_to_redundancy_min: f64,
    redundancy_deficit_video_min: f64,
    unavailability_video_min: f64,
    controller_ticks: u64,
    controller_backoffs: u64,
    controller_promotions: u64,
    controller_demotions: u64,
    controller_retired: u64,
    controller_copies: u64,
    controller_bytes_copied: u64,
    per_video_arrivals: Vec<u64>,
    per_video_rejections: Vec<u64>,
    imbalance_cv_sum: f64,
    imbalance_maxdev_rel_sum: f64,
    imbalance_samples: u64,
    imbalance_maxdev_abs_sum: f64,
    all_samples: u64,
    peak_streams: u64,
    stream_time_integral: f64,
    last_sample_min: f64,
    record_series: bool,
    series: Vec<LoadSample>,
}

impl MetricsCollector {
    /// A collector for `n_videos` videos.
    pub fn new(n_videos: usize) -> Self {
        MetricsCollector {
            arrivals: 0,
            admitted: 0,
            rejected: 0,
            redirected: 0,
            disrupted: 0,
            resumed: 0,
            degraded: 0,
            queued: 0,
            retried: 0,
            abandoned: 0,
            degraded_served: 0,
            zero_waits: 0,
            nonzero_waits_min: Vec::new(),
            // The identity `Iterator::sum` starts from (-0.0), so an
            // all-(-0.0) sample keeps its sign as it would there.
            wait_sum_min: std::iter::empty::<f64>().sum(),
            offered_kbps_s: 0,
            delivered_kbps_s: 0,
            undelivered_kbps_ticks: 0,
            brownout_active_min: 0.0,
            repair_bytes_copied: 0,
            repair_copies: 0,
            time_to_redundancy_min: 0.0,
            redundancy_deficit_video_min: 0.0,
            unavailability_video_min: 0.0,
            controller_ticks: 0,
            controller_backoffs: 0,
            controller_promotions: 0,
            controller_demotions: 0,
            controller_retired: 0,
            controller_copies: 0,
            controller_bytes_copied: 0,
            per_video_arrivals: vec![0; n_videos],
            per_video_rejections: vec![0; n_videos],
            imbalance_cv_sum: 0.0,
            imbalance_maxdev_rel_sum: 0.0,
            imbalance_samples: 0,
            imbalance_maxdev_abs_sum: 0.0,
            all_samples: 0,
            peak_streams: 0,
            stream_time_integral: 0.0,
            last_sample_min: 0.0,
            record_series: false,
            series: Vec::new(),
        }
    }

    /// Enables per-sample load-series recording (off by default — the
    /// series costs `N × samples` floats per run).
    pub fn record_series(&mut self, on: bool) {
        self.record_series = on;
    }

    /// Records an arrival for `video` (0-based index).
    pub fn on_arrival(&mut self, video: usize) {
        self.arrivals += 1;
        self.per_video_arrivals[video] += 1;
    }

    /// Records an admission (`redirected` marks backbone-proxied streams).
    pub fn on_admit(&mut self, redirected: bool) {
        self.admitted += 1;
        if redirected {
            self.redirected += 1;
        }
    }

    /// Records a rejection for `video`.
    pub fn on_reject(&mut self, video: usize) {
        self.rejected += 1;
        self.per_video_rejections[video] += 1;
    }

    /// Records `count` streams killed by a server failure.
    pub fn on_disrupted(&mut self, count: u64) {
        self.disrupted += count;
    }

    /// Records `count` streams migrated to a surviving replica holder at
    /// full rate after their server failed.
    pub fn on_resumed(&mut self, count: u64) {
        self.resumed += count;
    }

    /// Records `count` streams that continued at a reduced bit rate after
    /// their server failed (graceful degradation).
    pub fn on_degraded(&mut self, count: u64) {
        self.degraded += count;
    }

    /// Records a request entering the admission wait queue.
    pub fn on_queued(&mut self) {
        self.queued += 1;
    }

    /// Records a retry being scheduled for a blocked/abandoning request.
    pub fn on_retried(&mut self) {
        self.retried += 1;
    }

    /// Records a final abandonment (patience and retry budget exhausted,
    /// or the run ended while the request was still waiting).
    pub fn on_abandoned(&mut self) {
        self.abandoned += 1;
    }

    /// Records an admission below the requested bit rate (the
    /// `QueueOrDegrade` policy settled for a thinner slot).
    pub fn on_degraded_served(&mut self) {
        self.degraded_served += 1;
    }

    /// Records the wait of a request served after queueing, in minutes.
    pub fn on_wait(&mut self, wait_min: f64) {
        self.wait_sum_min += wait_min;
        if wait_min.to_bits() == 0.0f64.to_bits() {
            self.zero_waits += 1;
        } else {
            self.nonzero_waits_min.push(wait_min);
        }
    }

    /// Adds `kbps × seconds` of *offered* traffic (each arrival's full
    /// rate over its full duration) to the goodput denominator. Exact
    /// integer accounting: accumulation order never changes the total.
    pub fn on_offered(&mut self, kbps: u64, duration_s: u64) {
        self.offered_kbps_s += kbps as u128 * duration_s as u128;
    }

    /// Adds delivered `kbps × seconds` (at the admitted, possibly
    /// degraded, rate) to the goodput numerator.
    pub fn on_delivered(&mut self, kbps: u64, duration_s: u64) {
        self.delivered_kbps_s += kbps as u128 * duration_s as u128;
    }

    /// Books `kbps` over `remaining_ticks` milliseconds a previously
    /// admitted stream will no longer deliver (killed or rate-reduced
    /// mid-flight); subtracted from the numerator at finish time.
    pub fn on_undelivered(&mut self, kbps: u64, remaining_ticks: u64) {
        self.undelivered_kbps_ticks += kbps as u128 * remaining_ticks as u128;
    }

    /// Stores the total browned-out server time for the run.
    pub fn set_brownout_active_min(&mut self, min: f64) {
        self.brownout_active_min = min;
    }

    /// Terminal-outcome totals for the invariant auditor:
    /// `(arrivals, admitted, rejected, abandoned)`.
    pub(crate) fn outcome_totals(&self) -> (u64, u64, u64, u64) {
        (self.arrivals, self.admitted, self.rejected, self.abandoned)
    }

    /// Arrivals observed so far, per video (used as demand weights when
    /// re-planning replica placement mid-run).
    pub fn per_video_arrivals(&self) -> &[u64] {
        &self.per_video_arrivals
    }

    /// Stores the repair controller's end-of-run accounting.
    pub fn set_recovery_stats(
        &mut self,
        bytes_copied: u64,
        copies: u64,
        time_to_redundancy_min: f64,
        redundancy_deficit_video_min: f64,
        unavailability_video_min: f64,
    ) {
        self.repair_bytes_copied = bytes_copied;
        self.repair_copies = copies;
        self.time_to_redundancy_min = time_to_redundancy_min;
        self.redundancy_deficit_video_min = redundancy_deficit_video_min;
        self.unavailability_video_min = unavailability_video_min;
    }

    /// Stores the online replication controller's end-of-run accounting.
    #[allow(clippy::too_many_arguments)]
    pub fn set_controller_stats(
        &mut self,
        ticks: u64,
        backoffs: u64,
        promotions: u64,
        demotions: u64,
        retired: u64,
        copies: u64,
        bytes_copied: u64,
    ) {
        self.controller_ticks = ticks;
        self.controller_backoffs = backoffs;
        self.controller_promotions = promotions;
        self.controller_demotions = demotions;
        self.controller_retired = retired;
        self.controller_copies = copies;
        self.controller_bytes_copied = bytes_copied;
    }

    /// Takes a load sample: `stream_loads` are per-server concurrent
    /// stream counts at minute `now_min`.
    pub fn sample_loads(&mut self, stream_loads: &[f64], now_min: f64) {
        let total: f64 = stream_loads.iter().sum();
        if total > 0.0 {
            self.imbalance_cv_sum += load::coefficient_of_variation(stream_loads);
            let mean = total / stream_loads.len() as f64;
            self.imbalance_maxdev_rel_sum += load::max_deviation(stream_loads) / mean;
            self.imbalance_samples += 1;
        }
        // Absolute Eq. (2) deviation in streams, averaged over *all*
        // samples (idle samples contribute 0) — the measure behind the
        // paper's Figure 6 shape when normalized by link capacity.
        self.imbalance_maxdev_abs_sum += load::max_deviation(stream_loads);
        self.all_samples += 1;
        let streams = total as u64;
        self.peak_streams = self.peak_streams.max(streams);
        let dt = (now_min - self.last_sample_min).max(0.0);
        self.stream_time_integral += total * dt;
        self.last_sample_min = now_min;
        if self.record_series {
            self.series.push(LoadSample {
                at_min: now_min,
                streams: stream_loads.to_vec(),
            });
        }
    }

    /// Finalizes into an immutable report. `horizon_min` is the simulated
    /// peak-period length.
    pub fn finish(mut self, horizon_min: f64) -> SimReport {
        let n = self.imbalance_samples.max(1) as f64;
        let waits = self.zero_waits as usize + self.nonzero_waits_min.len();
        self.nonzero_waits_min.sort_by(|a, b| a.total_cmp(b));
        SimReport {
            arrivals: self.arrivals,
            admitted: self.admitted,
            rejected: self.rejected,
            redirected: self.redirected,
            disrupted: self.disrupted,
            resumed: self.resumed,
            degraded: self.degraded,
            queued: self.queued,
            retried: self.retried,
            abandoned: self.abandoned,
            degraded_served: self.degraded_served,
            mean_wait_min: if waits == 0 {
                0.0
            } else {
                self.wait_sum_min / waits as f64
            },
            wait_p50_min: wait_percentile(self.zero_waits, &self.nonzero_waits_min, 0.50),
            wait_p95_min: wait_percentile(self.zero_waits, &self.nonzero_waits_min, 0.95),
            goodput: if self.offered_kbps_s > 0 {
                let offered_kbps_min = self.offered_kbps_s as f64 / 60.0;
                let delivered_kbps_min = self.delivered_kbps_s as f64 / 60.0
                    - self.undelivered_kbps_ticks as f64 / 60_000.0;
                (delivered_kbps_min / offered_kbps_min).clamp(0.0, 1.0)
            } else {
                1.0
            },
            brownout_active_min: self.brownout_active_min,
            repair_bytes_copied: self.repair_bytes_copied,
            repair_copies: self.repair_copies,
            time_to_redundancy_min: self.time_to_redundancy_min,
            redundancy_deficit_video_min: self.redundancy_deficit_video_min,
            unavailability_video_min: self.unavailability_video_min,
            controller_ticks: self.controller_ticks,
            controller_backoffs: self.controller_backoffs,
            controller_promotions: self.controller_promotions,
            controller_demotions: self.controller_demotions,
            controller_retired: self.controller_retired,
            controller_copies: self.controller_copies,
            controller_bytes_copied: self.controller_bytes_copied,
            rejection_rate: if self.arrivals == 0 {
                0.0
            } else {
                self.rejected as f64 / self.arrivals as f64
            },
            mean_imbalance_cv: self.imbalance_cv_sum / n,
            mean_imbalance_maxdev_rel: self.imbalance_maxdev_rel_sum / n,
            mean_imbalance_maxdev_streams: self.imbalance_maxdev_abs_sum
                / self.all_samples.max(1) as f64,
            peak_concurrent_streams: self.peak_streams,
            mean_concurrent_streams: if horizon_min > 0.0 {
                self.stream_time_integral / horizon_min
            } else {
                0.0
            },
            per_video_arrivals: self.per_video_arrivals,
            per_video_rejections: self.per_video_rejections,
            series: self.series,
        }
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Total requests that arrived during the peak period.
    pub arrivals: u64,
    /// Requests admitted (direct + redirected).
    pub admitted: u64,
    /// Requests rejected for lack of bandwidth.
    pub rejected: u64,
    /// Admitted requests served via backbone redirection.
    pub redirected: u64,
    /// Admitted streams killed mid-playback by injected server failures.
    pub disrupted: u64,
    /// Streams migrated to a surviving replica at full rate after their
    /// server failed (zero unless stream failover is enabled).
    #[serde(default)]
    pub resumed: u64,
    /// Streams that continued at a reduced bit rate after their server
    /// failed (zero unless graceful degradation is enabled).
    #[serde(default)]
    pub degraded: u64,
    /// Requests that entered the admission wait queue at least once
    /// (zero under the default `Block` policy).
    #[serde(default)]
    pub queued: u64,
    /// Retry attempts scheduled by the admission pipeline.
    #[serde(default)]
    pub retried: u64,
    /// Requests that gave up waiting: patience expired with no retry
    /// budget left, or the run ended while they were still pending.
    #[serde(default)]
    pub abandoned: u64,
    /// Requests admitted below their requested bit rate by the
    /// `QueueOrDegrade` policy.
    #[serde(default)]
    pub degraded_served: u64,
    /// Mean wait of queued-then-served requests, minutes (0 when no
    /// request waited).
    #[serde(default)]
    pub mean_wait_min: f64,
    /// Median wait of queued-then-served requests, minutes.
    #[serde(default)]
    pub wait_p50_min: f64,
    /// 95th-percentile wait of queued-then-served requests, minutes.
    #[serde(default)]
    pub wait_p95_min: f64,
    /// Delivered ÷ offered `kbps·minutes`: the fraction of requested
    /// stream-bandwidth-time actually served (degraded admissions,
    /// rate-reduced failovers and mid-flight kills all reduce it; 1.0
    /// for an idle run). Exact except for streams dropped by
    /// [`crate::FailoverPolicy::Kill`] during a *crash* (not brownout),
    /// whose remaining duration is still counted as delivered — a
    /// documented simplification of the kill path.
    #[serde(default)]
    pub goodput: f64,
    /// Total browned-out time summed over servers, minutes.
    #[serde(default)]
    pub brownout_active_min: f64,
    /// Bytes of replica data copied by mid-run repair.
    #[serde(default)]
    pub repair_bytes_copied: u64,
    /// Replica copies completed by mid-run repair.
    #[serde(default)]
    pub repair_copies: u64,
    /// Minutes during which at least one video sat below its replication
    /// target (time to full redundancy, summed over deficit windows).
    /// Under popularity-skewed replication the single-replica cold tail
    /// pins this union to the outage union (those videos cannot be
    /// rebuilt while their only holder is down).
    #[serde(default)]
    pub time_to_redundancy_min: f64,
    /// Video·minutes below replication target — the replica-deficit
    /// integral mid-run repair drains copy by copy.
    #[serde(default)]
    pub redundancy_deficit_video_min: f64,
    /// Video·minutes with zero servable replicas.
    #[serde(default)]
    pub unavailability_video_min: f64,
    /// Control ticks fired by the online replication controller (zero
    /// when the controller is off).
    #[serde(default)]
    pub controller_ticks: u64,
    /// Control ticks that backed off (server down, repair busy, or the
    /// cluster over its streaming-utilization headroom).
    #[serde(default)]
    pub controller_backoffs: u64,
    /// Replication targets raised by the controller.
    #[serde(default)]
    pub controller_promotions: u64,
    /// Replication targets lowered by the controller.
    #[serde(default)]
    pub controller_demotions: u64,
    /// Replicas retired by controller demotions.
    #[serde(default)]
    pub controller_retired: u64,
    /// Re-replication copies completed on the controller's behalf.
    #[serde(default)]
    pub controller_copies: u64,
    /// Bytes copied for controller re-replication (the re-replication
    /// bandwidth bill, distinct from failure-repair bytes).
    #[serde(default)]
    pub controller_bytes_copied: u64,
    /// `rejected / arrivals` — the paper's primary metric.
    pub rejection_rate: f64,
    /// Time-averaged Eq. (3) load-imbalance degree (coefficient of
    /// variation of per-server stream loads) over non-idle samples.
    pub mean_imbalance_cv: f64,
    /// Time-averaged Eq. (2) imbalance normalized by the mean load.
    pub mean_imbalance_maxdev_rel: f64,
    /// Time-averaged absolute Eq. (2) imbalance, in concurrent streams
    /// (idle samples included as zero). Divided by the per-server stream
    /// capacity this is the Figure 6 "L(%)" that rises with load, peaks
    /// below saturation and collapses once every server is full.
    pub mean_imbalance_maxdev_streams: f64,
    /// Largest concurrent stream count observed cluster-wide.
    pub peak_concurrent_streams: u64,
    /// Time-averaged concurrent stream count.
    pub mean_concurrent_streams: f64,
    /// Arrivals per video.
    pub per_video_arrivals: Vec<u64>,
    /// Rejections per video.
    pub per_video_rejections: Vec<u64>,
    /// Per-sample load snapshots; empty unless
    /// [`crate::SimConfig::record_series`] was set.
    pub series: Vec<LoadSample>,
}

/// [`stats::percentile`] of the sample made of `zeros` copies of `+0.0`
/// and the `sorted` (by `total_cmp`) remaining values, read in place.
fn wait_percentile(zeros: u64, sorted: &[f64], q: f64) -> f64 {
    let zeros = zeros as usize;
    // In `total_cmp` order the zeros sit after every value below +0.0.
    let below = sorted.partition_point(|x| x.total_cmp(&0.0).is_lt());
    stats::sorted_percentile(zeros + sorted.len(), q, |i| match i {
        i if i < below => sorted[i],
        i if i < below + zeros => 0.0,
        i => sorted[i - zeros],
    })
}

impl SimReport {
    /// Conservation check: every arrival ended exactly once — admitted
    /// (possibly degraded), finally rejected, or abandoned after
    /// queueing. `abandoned` is zero under the default `Block` policy,
    /// reducing this to the paper's loss-model identity.
    pub fn is_conservative(&self) -> bool {
        self.admitted + self.rejected + self.abandoned == self.arrivals
            && self.per_video_arrivals.iter().sum::<u64>() == self.arrivals
            && self.per_video_rejections.iter().sum::<u64>() == self.rejected
            && self.degraded_served <= self.admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_flow_through() {
        let mut c = MetricsCollector::new(2);
        c.on_arrival(0);
        c.on_admit(false);
        c.on_arrival(1);
        c.on_reject(1);
        c.on_arrival(0);
        c.on_admit(true);
        let r = c.finish(90.0);
        assert_eq!(r.arrivals, 3);
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.redirected, 1);
        assert_eq!(r.disrupted, 0);
        assert!((r.rejection_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.per_video_arrivals, vec![2, 1]);
        assert_eq!(r.per_video_rejections, vec![0, 1]);
        assert!(r.is_conservative());
    }

    #[test]
    fn admission_pipeline_counters_flow_through() {
        let mut c = MetricsCollector::new(1);
        // Request 1: queued, waits 2 min, then served at a thinner rate.
        c.on_arrival(0);
        c.on_queued();
        c.on_wait(2.0);
        c.on_admit(false);
        c.on_degraded_served();
        // Request 2: queued, one retry, then gives up.
        c.on_arrival(0);
        c.on_queued();
        c.on_retried();
        c.on_abandoned();
        // Request 3: served instantly.
        c.on_arrival(0);
        c.on_wait(6.0);
        c.on_admit(false);
        // 100 kbps offered for 60 s, 80 delivered, 10 kbps·min killed:
        // goodput = (80 - 10) / 100.
        c.on_offered(100, 60);
        c.on_delivered(80, 60);
        c.on_undelivered(10, 60_000);
        c.set_brownout_active_min(3.5);
        let r = c.finish(90.0);
        assert_eq!(
            (r.queued, r.retried, r.abandoned, r.degraded_served),
            (2, 1, 1, 1)
        );
        assert_eq!((r.admitted, r.rejected, r.abandoned), (2, 0, 1));
        assert!(r.is_conservative(), "abandonment balances the ledger");
        assert!((r.goodput - 0.7).abs() < 1e-12);
        assert!((r.mean_wait_min - 4.0).abs() < 1e-12);
        assert!((r.wait_p50_min - 4.0).abs() < 1e-12);
        assert!((r.wait_p95_min - 5.8).abs() < 1e-12);
        assert_eq!(r.brownout_active_min, 3.5);
    }

    #[test]
    fn wait_summary_matches_the_full_sample_bit_for_bit() {
        let mixed = [
            0.0, 2.5, 0.0, 0.0, 1e-9, 7.0, 0.0, 3.25, 0.0, 2.5, 0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.0,
            11.0, 0.0, 0.0, -0.0, 0.0,
        ];
        let cases: [&[f64]; 3] = [&[], &[0.0; 37], &mixed];
        for waits in cases {
            let mut c = MetricsCollector::new(1);
            for &w in waits {
                c.on_wait(w);
            }
            let r = c.finish(90.0);
            let bits = |x: f64| x.to_bits();
            assert_eq!(bits(r.mean_wait_min), bits(stats::sample_mean(waits)));
            assert_eq!(bits(r.wait_p50_min), bits(stats::percentile(waits, 0.50)));
            assert_eq!(bits(r.wait_p95_min), bits(stats::percentile(waits, 0.95)));
            for q in [0.0, 0.05, 0.3, 0.77, 1.0] {
                let mut nonzero: Vec<f64> =
                    waits.iter().copied().filter(|w| w.to_bits() != 0).collect();
                nonzero.sort_by(|a, b| a.total_cmp(b));
                let zeros = (waits.len() - nonzero.len()) as u64;
                assert_eq!(
                    bits(wait_percentile(zeros, &nonzero, q)),
                    bits(stats::percentile(waits, q)),
                    "q = {q}"
                );
            }
        }
    }

    #[test]
    fn goodput_defaults_to_one_when_nothing_offered() {
        let r = MetricsCollector::new(1).finish(90.0);
        assert_eq!(r.goodput, 1.0);
        assert_eq!(r.wait_p50_min, 0.0);
    }

    #[test]
    fn legacy_report_json_deserializes_with_defaults() {
        // Pre-pipeline reports carry none of the admission fields.
        let json = r#"{"arrivals":1,"admitted":1,"rejected":0,"redirected":0,
            "disrupted":0,"resumed":0,"degraded":0,"repair_bytes_copied":0,
            "repair_copies":0,"time_to_redundancy_min":0.0,
            "redundancy_deficit_video_min":0.0,"unavailability_video_min":0.0,
            "rejection_rate":0.0,"mean_imbalance_cv":0.0,
            "mean_imbalance_maxdev_rel":0.0,"mean_imbalance_maxdev_streams":0.0,
            "peak_concurrent_streams":1,"mean_concurrent_streams":0.5,
            "per_video_arrivals":[1],"per_video_rejections":[0],"series":[]}"#;
        let r: SimReport = serde_json::from_str(json).unwrap();
        assert_eq!(
            (r.queued, r.retried, r.abandoned, r.degraded_served),
            (0, 0, 0, 0)
        );
        assert_eq!(r.goodput, 0.0); // serde default; field is new
        assert!(r.is_conservative());
    }

    #[test]
    fn series_recorded_only_when_enabled() {
        let mut off = MetricsCollector::new(1);
        off.sample_loads(&[1.0, 2.0], 1.0);
        assert!(off.finish(90.0).series.is_empty());

        let mut on = MetricsCollector::new(1);
        on.record_series(true);
        on.sample_loads(&[1.0, 2.0], 1.0);
        on.sample_loads(&[3.0, 0.0], 2.0);
        let r = on.finish(90.0);
        assert_eq!(r.series.len(), 2);
        assert_eq!(r.series[0].streams, vec![1.0, 2.0]);
        assert_eq!(r.series[1].at_min, 2.0);
    }

    #[test]
    fn disruption_counter_accumulates() {
        let mut c = MetricsCollector::new(1);
        c.on_disrupted(3);
        c.on_disrupted(2);
        assert_eq!(c.finish(90.0).disrupted, 5);
    }

    #[test]
    fn imbalance_averaged_over_busy_samples() {
        let mut c = MetricsCollector::new(1);
        c.sample_loads(&[0.0, 0.0], 0.0); // idle: skipped
        c.sample_loads(&[2.0, 4.0, 6.0], 1.0);
        c.sample_loads(&[4.0, 4.0, 4.0], 2.0);
        let r = c.finish(90.0);
        let cv1 = (8.0f64 / 3.0).sqrt() / 4.0;
        assert!((r.mean_imbalance_cv - cv1 / 2.0).abs() < 1e-12);
        // maxdev_rel sample 1: (6-4)/4 = 0.5; sample 2: 0.
        assert!((r.mean_imbalance_maxdev_rel - 0.25).abs() < 1e-12);
    }

    #[test]
    fn absolute_maxdev_includes_idle_samples() {
        let mut c = MetricsCollector::new(1);
        c.sample_loads(&[0.0, 0.0], 0.0); // idle: counts as 0 deviation
        c.sample_loads(&[2.0, 6.0], 1.0); // maxdev = 2 (mean 4)
        let r = c.finish(90.0);
        assert!((r.mean_imbalance_maxdev_streams - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peak_and_mean_streams() {
        let mut c = MetricsCollector::new(1);
        c.sample_loads(&[1.0, 1.0], 1.0);
        c.sample_loads(&[5.0, 5.0], 2.0);
        c.sample_loads(&[0.0, 0.0], 3.0);
        let r = c.finish(3.0);
        assert_eq!(r.peak_concurrent_streams, 10);
        // Integral: 2*1 (0->1 with load 2) + 10*1 + 0*1 = 12; /3 = 4.
        assert!((r.mean_concurrent_streams - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let c = MetricsCollector::new(1);
        let r = c.finish(90.0);
        assert_eq!(r.rejection_rate, 0.0);
        assert_eq!(r.mean_imbalance_cv, 0.0);
        assert!(r.is_conservative());
    }
}
