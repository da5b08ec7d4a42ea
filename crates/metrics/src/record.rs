//! Per-request lifecycle records and whole-run aggregation.
//!
//! Every request that enters the system produces one [`RequestRecord`]
//! containing the timestamps of Fig. 5 for every module it visited:
//! arrival at the module (`t_r`), admission into a batch (`t_b`), batch
//! execution start (`t_e`), and execution end. From these the three
//! latency components of Eq. 2 are recovered exactly:
//! `Q = t_b − t_r`, `W = t_e − t_b`, `D = end − t_e`.

use pard_sim::{SimDuration, SimTime};

use crate::series::{EventKind, WindowSeries};

/// Why a request was removed from the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Its deadline had already passed when the decision was made.
    AlreadyExpired,
    /// A proactive estimate concluded the deadline cannot be met.
    PredictedViolation,
    /// It exceeded a per-module latency budget (split-SLO policies).
    BudgetExceeded,
    /// It finished execution after its deadline (counted as a drop, §5.1).
    CompletedLate,
    /// Admission control refused it (overload-control baseline).
    Throttled,
    /// A sibling branch of a DAG request was dropped.
    SiblingDropped,
    /// The worker holding it failed.
    WorkerFailed,
}

impl DropReason {
    /// Every reason, in a stable order — the label axis of per-module
    /// drop counters and report tables.
    pub const ALL: [DropReason; 7] = [
        DropReason::AlreadyExpired,
        DropReason::PredictedViolation,
        DropReason::BudgetExceeded,
        DropReason::CompletedLate,
        DropReason::Throttled,
        DropReason::SiblingDropped,
        DropReason::WorkerFailed,
    ];

    /// This reason's position in [`DropReason::ALL`]. A `match`, so a
    /// new variant is a compile error here rather than a runtime panic
    /// at the first drop recorded with it; the agreement with `ALL` is
    /// pinned by a unit test.
    pub fn index(self) -> usize {
        match self {
            DropReason::AlreadyExpired => 0,
            DropReason::PredictedViolation => 1,
            DropReason::BudgetExceeded => 2,
            DropReason::CompletedLate => 3,
            DropReason::Throttled => 4,
            DropReason::SiblingDropped => 5,
            DropReason::WorkerFailed => 6,
        }
    }

    /// Inverse of [`DropReason::index`]: `None` for out-of-range
    /// indices. Decoders of compact on-wire forms (flight-recorder
    /// slots, drop-counter axes) use this instead of re-owning the
    /// ordering.
    pub fn from_index(index: usize) -> Option<DropReason> {
        DropReason::ALL.get(index).copied()
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::AlreadyExpired => "expired",
            DropReason::PredictedViolation => "predicted",
            DropReason::BudgetExceeded => "budget",
            DropReason::CompletedLate => "late",
            DropReason::Throttled => "throttled",
            DropReason::SiblingDropped => "sibling",
            DropReason::WorkerFailed => "worker-failed",
        }
    }
}

/// Final state of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Still being processed when the run ended.
    InFlight,
    /// Finished the whole pipeline at the given time.
    Completed {
        /// Time the last module's execution ended.
        finished: SimTime,
    },
    /// Removed at `module` at time `at`.
    Dropped {
        /// Module index where the drop happened.
        module: usize,
        /// When the drop decision was executed.
        at: SimTime,
        /// Why.
        reason: DropReason,
    },
}

impl Outcome {
    /// Whether a request with this outcome counts toward goodput:
    /// completed at or before `deadline`.
    pub fn is_goodput(self, deadline: SimTime) -> bool {
        matches!(self, Outcome::Completed { finished } if finished <= deadline)
    }

    /// Whether a request with this outcome counts as dropped under the
    /// paper's metric (§5.1): explicitly dropped, or completed after
    /// `deadline`.
    pub fn is_dropped(self, deadline: SimTime) -> bool {
        match self {
            Outcome::Dropped { .. } => true,
            Outcome::Completed { finished } => finished > deadline,
            Outcome::InFlight => false,
        }
    }
}

/// One module traversal (Fig. 5 timestamps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageRecord {
    /// Module index within the pipeline.
    pub module: usize,
    /// Worker that executed the request.
    pub worker: usize,
    /// Arrival at the module (`t_r`).
    pub arrived: SimTime,
    /// Admission into a batch (`t_b`).
    pub batched: SimTime,
    /// Batch execution start (`t_e`).
    pub exec_start: SimTime,
    /// Batch execution end.
    pub exec_end: SimTime,
    /// Size of the batch this request executed in.
    pub batch_size: usize,
    /// GPU time attributed to this request (`d(B)/B`).
    pub gpu_share: SimDuration,
}

impl StageRecord {
    /// Queueing delay `Q_k = t_b − t_r`.
    pub fn queueing(&self) -> SimDuration {
        self.batched.saturating_since(self.arrived)
    }

    /// Batch wait `W_k = t_e − t_b`.
    pub fn batch_wait(&self) -> SimDuration {
        self.exec_start.saturating_since(self.batched)
    }

    /// Execution duration `D_k`.
    pub fn execution(&self) -> SimDuration {
        self.exec_end.saturating_since(self.exec_start)
    }

    /// Total time spent at this module.
    pub fn total(&self) -> SimDuration {
        self.exec_end.saturating_since(self.arrived)
    }
}

/// Full lifecycle of one request.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Unique request id.
    pub id: u64,
    /// Client send time (`t_s`).
    pub sent: SimTime,
    /// Absolute deadline (`t_s` + SLO).
    pub deadline: SimTime,
    /// Completed module traversals, in execution order.
    pub stages: Vec<StageRecord>,
    /// Final state.
    pub outcome: Outcome,
}

impl RequestRecord {
    /// Whether this request counts toward goodput (completed within SLO).
    pub fn is_goodput(&self) -> bool {
        self.outcome.is_goodput(self.deadline)
    }

    /// Whether this request counts as dropped under the paper's metric
    /// (§5.1): explicitly dropped, or completed after its deadline.
    pub fn is_dropped(&self) -> bool {
        self.outcome.is_dropped(self.deadline)
    }

    /// Module a drop is attributed to, if the request is dropped.
    ///
    /// Late completions are attributed to the last module they executed.
    pub fn drop_module(&self) -> Option<usize> {
        match self.outcome {
            Outcome::Dropped { module, .. } => Some(module),
            Outcome::Completed { finished } if finished > self.deadline => {
                self.stages.last().map(|s| s.module)
            }
            _ => None,
        }
    }

    /// Total GPU time this request consumed across all executed stages.
    pub fn gpu_time(&self) -> SimDuration {
        self.stages.iter().map(|s| s.gpu_share).sum()
    }

    /// Sum of queueing delays over executed stages.
    pub fn total_queueing(&self) -> SimDuration {
        self.stages.iter().map(|s| s.queueing()).sum()
    }

    /// Sum of batch waits over executed stages.
    pub fn total_batch_wait(&self) -> SimDuration {
        self.stages.iter().map(|s| s.batch_wait()).sum()
    }

    /// Sum of execution durations over executed stages.
    pub fn total_execution(&self) -> SimDuration {
        self.stages.iter().map(|s| s.execution()).sum()
    }

    /// End-to-end latency if completed.
    pub fn latency(&self) -> Option<SimDuration> {
        match self.outcome {
            Outcome::Completed { finished } => Some(finished.saturating_since(self.sent)),
            _ => None,
        }
    }
}

/// The three counts a serving engine hands back when it is drained:
/// what [`RequestLog::len`], [`RequestLog::goodput_count`] and
/// [`RequestLog::drop_count`] would say of the full log, for an engine
/// that does not keep one. A long-lived server folds each request in
/// as it forgets it ([`ServedTotals::count`]); an engine that still has
/// its log converts it (`ServedTotals::from(&log)`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServedTotals {
    /// Requests submitted to the engine, resolved or not.
    pub requests: u64,
    /// Requests that completed within their SLO.
    pub goodput: u64,
    /// Requests counted as dropped (§5.1: includes late completions).
    pub dropped: u64,
}

impl ServedTotals {
    /// Folds in one request by its deadline and final (or current)
    /// outcome.
    pub fn count(&mut self, deadline: SimTime, outcome: Outcome) {
        self.requests += 1;
        self.goodput += u64::from(outcome.is_goodput(deadline));
        self.dropped += u64::from(outcome.is_dropped(deadline));
    }
}

impl From<&RequestLog> for ServedTotals {
    fn from(log: &RequestLog) -> ServedTotals {
        let mut totals = ServedTotals::default();
        for r in log.records() {
            totals.count(r.deadline, r.outcome);
        }
        totals
    }
}

/// All request records of one run, with the paper's aggregate metrics.
#[derive(Clone, Debug, Default)]
pub struct RequestLog {
    records: Vec<RequestRecord>,
}

impl RequestLog {
    /// Creates an empty log.
    pub fn new() -> RequestLog {
        RequestLog::default()
    }

    /// Appends one finished (or in-flight at run end) request.
    pub fn push(&mut self, record: RequestRecord) {
        self.records.push(record);
    }

    /// Number of requests recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Requests that completed within their SLO.
    pub fn goodput_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_goodput()).count()
    }

    /// Requests counted as dropped (§5.1: includes late completions).
    pub fn drop_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_dropped()).count()
    }

    /// Average drop rate over the whole run.
    pub fn drop_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.drop_count() as f64 / self.records.len() as f64
        }
    }

    /// Average goodput over the whole run, in requests per second.
    pub fn goodput_rate(&self, duration: SimDuration) -> f64 {
        if duration.is_zero() {
            0.0
        } else {
            self.goodput_count() as f64 / duration.as_secs_f64()
        }
    }

    /// Invalid rate: GPU time consumed by dropped/late requests over total
    /// GPU time (§5.1).
    pub fn invalid_rate(&self) -> f64 {
        let mut wasted = 0u64;
        let mut total = 0u64;
        for r in &self.records {
            let t = r.gpu_time().as_micros();
            total += t;
            if r.is_dropped() {
                wasted += t;
            }
        }
        if total == 0 {
            0.0
        } else {
            wasted as f64 / total as f64
        }
    }

    /// Highest module index seen in any stage or drop, plus one.
    pub fn module_count(&self) -> usize {
        let mut max = None;
        for r in &self.records {
            for s in &r.stages {
                max = Some(max.map_or(s.module, |m: usize| m.max(s.module)));
            }
            if let Outcome::Dropped { module, .. } = r.outcome {
                max = Some(max.map_or(module, |m: usize| m.max(module)));
            }
        }
        max.map_or(0, |m| m + 1)
    }

    /// Fraction of all dropped requests attributed to each module
    /// (Fig. 2c / Fig. 11b). Sums to 1 when any drops exist.
    pub fn drop_distribution(&self, modules: usize) -> Vec<f64> {
        let mut counts = vec![0u64; modules];
        let mut total = 0u64;
        for r in &self.records {
            if let Some(m) = r.drop_module() {
                if m < modules {
                    counts[m] += 1;
                    total += 1;
                }
            }
        }
        counts
            .into_iter()
            .map(|c| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                }
            })
            .collect()
    }

    /// Count of drops per [`DropReason`].
    pub fn drop_reasons(&self) -> Vec<(DropReason, usize)> {
        use DropReason::*;
        let all = [
            AlreadyExpired,
            PredictedViolation,
            BudgetExceeded,
            CompletedLate,
            Throttled,
            SiblingDropped,
            WorkerFailed,
        ];
        all.iter()
            .map(|&reason| {
                let count = self
                    .records
                    .iter()
                    .filter(|r| match r.outcome {
                        Outcome::Dropped { reason: got, .. } => got == reason,
                        Outcome::Completed { finished } => {
                            reason == CompletedLate && finished > r.deadline
                        }
                        Outcome::InFlight => false,
                    })
                    .count();
                (reason, count)
            })
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    /// Builds the cohort-windowed series for this log.
    pub fn window_series(&self, window: SimDuration) -> WindowSeries {
        let mut series = WindowSeries::new(window);
        for r in &self.records {
            series.record(EventKind::Arrival, r.sent);
            if r.is_goodput() {
                series.record(EventKind::Goodput, r.sent);
            } else if r.is_dropped() {
                series.record(EventKind::Drop, r.sent);
            }
        }
        series
    }

    /// Per-request `(ΣQ, ΣW, ΣD)` in milliseconds for completed requests
    /// (Fig. 12b input).
    pub fn latency_components_ms(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut q = Vec::new();
        let mut w = Vec::new();
        let mut d = Vec::new();
        for r in &self.records {
            if matches!(r.outcome, Outcome::Completed { .. }) {
                q.push(r.total_queueing().as_millis_f64());
                w.push(r.total_batch_wait().as_millis_f64());
                d.push(r.total_execution().as_millis_f64());
            }
        }
        (q, w, d)
    }

    /// `(arrival time at module, queueing delay ms)` samples for `module`
    /// (Fig. 12c input).
    pub fn queueing_samples(&self, module: usize) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        for r in &self.records {
            for s in &r.stages {
                if s.module == module {
                    out.push((s.arrived, s.queueing().as_millis_f64()));
                }
            }
        }
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// Remaining latency budget (ms) of consecutive requests observed at
    /// `module`, ordered by arrival (Fig. 12d input).
    pub fn remaining_budget_at(&self, module: usize) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        for r in &self.records {
            for s in &r.stages {
                if s.module == module {
                    let remaining = r.deadline.checked_since(s.arrived);
                    out.push((s.arrived, remaining.map_or(0.0, |d| d.as_millis_f64())));
                }
            }
        }
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// Average consumed budget (ms) per module for SLO-compliant requests,
    /// bucketed by send time (Fig. 12a input). Returns
    /// `buckets × modules` averages.
    pub fn consumed_budget_series(
        &self,
        window: SimDuration,
        modules: usize,
    ) -> Vec<(SimTime, Vec<f64>)> {
        assert!(!window.is_zero(), "window must be positive");
        let mut sums: Vec<Vec<f64>> = Vec::new();
        let mut counts: Vec<Vec<u64>> = Vec::new();
        for r in &self.records {
            if !r.is_goodput() {
                continue;
            }
            let idx = (r.sent.as_micros() / window.as_micros()) as usize;
            if sums.len() <= idx {
                sums.resize(idx + 1, vec![0.0; modules]);
                counts.resize(idx + 1, vec![0; modules]);
            }
            for s in &r.stages {
                if s.module < modules {
                    sums[idx][s.module] += s.total().as_millis_f64();
                    counts[idx][s.module] += 1;
                }
            }
        }
        sums.into_iter()
            .zip(counts)
            .enumerate()
            .filter(|(_, (_, c))| c.iter().any(|&n| n > 0))
            .map(|(i, (s, c))| {
                let avg = s
                    .iter()
                    .zip(&c)
                    .map(|(&sum, &n)| if n == 0 { 0.0 } else { sum / n as f64 })
                    .collect();
                (SimTime::from_micros(i as u64 * window.as_micros()), avg)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_index_agrees_with_all() {
        // `index()` is a hand-written match; this pins it to the ALL
        // ordering so the two cannot silently diverge.
        for (position, reason) in DropReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), position, "{reason:?}");
        }
    }

    fn stage(module: usize, arrived_ms: u64, q_ms: u64, w_ms: u64, d_ms: u64) -> StageRecord {
        let arrived = SimTime::from_millis(arrived_ms);
        let batched = arrived + SimDuration::from_millis(q_ms);
        let exec_start = batched + SimDuration::from_millis(w_ms);
        let exec_end = exec_start + SimDuration::from_millis(d_ms);
        StageRecord {
            module,
            worker: 0,
            arrived,
            batched,
            exec_start,
            exec_end,
            batch_size: 4,
            gpu_share: SimDuration::from_millis(d_ms / 4),
        }
    }

    fn completed(id: u64, sent_ms: u64, slo_ms: u64, stages: Vec<StageRecord>) -> RequestRecord {
        let finished = stages.last().unwrap().exec_end;
        RequestRecord {
            id,
            sent: SimTime::from_millis(sent_ms),
            deadline: SimTime::from_millis(sent_ms + slo_ms),
            stages,
            outcome: Outcome::Completed { finished },
        }
    }

    fn dropped(
        id: u64,
        sent_ms: u64,
        slo_ms: u64,
        module: usize,
        at_ms: u64,
        stages: Vec<StageRecord>,
    ) -> RequestRecord {
        RequestRecord {
            id,
            sent: SimTime::from_millis(sent_ms),
            deadline: SimTime::from_millis(sent_ms + slo_ms),
            stages,
            outcome: Outcome::Dropped {
                module,
                at: SimTime::from_millis(at_ms),
                reason: DropReason::PredictedViolation,
            },
        }
    }

    #[test]
    fn stage_components_match_fig5() {
        let s = stage(0, 100, 10, 20, 40);
        assert_eq!(s.queueing(), SimDuration::from_millis(10));
        assert_eq!(s.batch_wait(), SimDuration::from_millis(20));
        assert_eq!(s.execution(), SimDuration::from_millis(40));
        assert_eq!(s.total(), SimDuration::from_millis(70));
    }

    #[test]
    fn goodput_and_drop_classification() {
        // Completed in time: sent 0, SLO 400, finishes at 170.
        let ok = completed(1, 0, 400, vec![stage(0, 100, 10, 20, 40)]);
        assert!(ok.is_goodput());
        assert!(!ok.is_dropped());

        // Completed late: sent 0, SLO 100, finishes at 170.
        let late = completed(2, 0, 100, vec![stage(0, 100, 10, 20, 40)]);
        assert!(!late.is_goodput());
        assert!(late.is_dropped());
        assert_eq!(late.drop_module(), Some(0));

        // Explicit drop at module 2.
        let d = dropped(3, 0, 400, 2, 50, vec![]);
        assert!(d.is_dropped());
        assert_eq!(d.drop_module(), Some(2));
    }

    #[test]
    fn log_rates() {
        let mut log = RequestLog::new();
        log.push(completed(1, 0, 400, vec![stage(0, 10, 5, 5, 40)]));
        log.push(completed(2, 0, 400, vec![stage(0, 10, 5, 5, 40)]));
        log.push(dropped(3, 0, 400, 1, 60, vec![stage(0, 10, 5, 5, 40)]));
        log.push(completed(4, 0, 50, vec![stage(0, 10, 5, 5, 40)])); // late
        assert_eq!(log.goodput_count(), 2);
        assert_eq!(log.drop_count(), 2);
        assert!((log.drop_rate() - 0.5).abs() < 1e-12);
        // All four consumed 10 ms GPU share; two were wasted.
        assert!((log.invalid_rate() - 0.5).abs() < 1e-12);
        assert!((log.goodput_rate(SimDuration::from_secs(2)) - 1.0).abs() < 1e-12);
        // The drained totals are the same three counts, in-flight
        // requests included in `requests` only.
        log.push(RequestRecord {
            outcome: Outcome::InFlight,
            ..completed(5, 0, 400, vec![stage(0, 10, 5, 5, 40)])
        });
        let totals = ServedTotals::from(&log);
        assert_eq!((totals.requests, totals.goodput, totals.dropped), (5, 2, 2));
    }

    #[test]
    fn invalid_rate_empty_and_zero_gpu() {
        let log = RequestLog::new();
        assert_eq!(log.invalid_rate(), 0.0);
        assert_eq!(log.drop_rate(), 0.0);
        assert_eq!(log.goodput_rate(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn drop_distribution_attributes_modules() {
        let mut log = RequestLog::new();
        log.push(dropped(1, 0, 400, 0, 10, vec![]));
        log.push(dropped(2, 0, 400, 2, 10, vec![]));
        log.push(dropped(3, 0, 400, 2, 10, vec![]));
        // A late completion attributes to its last executed module (1).
        log.push(completed(
            4,
            0,
            10,
            vec![stage(0, 5, 1, 1, 5), stage(1, 20, 1, 1, 5)],
        ));
        assert_eq!(log.module_count(), 3);
        let dist = log.drop_distribution(3);
        assert!((dist[0] - 0.25).abs() < 1e-12);
        assert!((dist[1] - 0.25).abs() < 1e-12);
        assert!((dist[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drop_reasons_counts_late_completions() {
        let mut log = RequestLog::new();
        log.push(completed(1, 0, 10, vec![stage(0, 5, 1, 1, 50)]));
        log.push(dropped(2, 0, 400, 0, 10, vec![]));
        let reasons = log.drop_reasons();
        assert!(reasons.contains(&(DropReason::CompletedLate, 1)));
        assert!(reasons.contains(&(DropReason::PredictedViolation, 1)));
    }

    #[test]
    fn window_series_from_log() {
        let mut log = RequestLog::new();
        log.push(completed(1, 100, 400, vec![stage(0, 110, 5, 5, 40)]));
        log.push(dropped(2, 1100, 400, 0, 1200, vec![]));
        let s = log.window_series(SimDuration::from_secs(1));
        assert!((s.normalized_goodput(0) - 1.0).abs() < 1e-12);
        assert!((s.drop_rate(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_component_extraction() {
        let mut log = RequestLog::new();
        log.push(completed(
            1,
            0,
            400,
            vec![stage(0, 10, 5, 10, 40), stage(1, 80, 15, 20, 30)],
        ));
        let (q, w, d) = log.latency_components_ms();
        assert_eq!(q, vec![20.0]);
        assert_eq!(w, vec![30.0]);
        assert_eq!(d, vec![70.0]);
    }

    #[test]
    fn queueing_and_budget_samples_sorted() {
        let mut log = RequestLog::new();
        log.push(completed(1, 0, 400, vec![stage(0, 50, 5, 5, 10)]));
        log.push(completed(2, 0, 400, vec![stage(0, 20, 9, 5, 10)]));
        let q = log.queueing_samples(0);
        assert_eq!(q.len(), 2);
        assert!(q[0].0 < q[1].0);
        assert!((q[0].1 - 9.0).abs() < 1e-12);
        let rb = log.remaining_budget_at(0);
        assert!((rb[0].1 - 380.0).abs() < 1e-12);
        assert!((rb[1].1 - 350.0).abs() < 1e-12);
    }

    #[test]
    fn consumed_budget_series_averages_goodput_only() {
        let mut log = RequestLog::new();
        log.push(completed(1, 0, 400, vec![stage(0, 10, 10, 10, 20)]));
        // Late request must be excluded.
        log.push(completed(2, 0, 10, vec![stage(0, 10, 50, 50, 50)]));
        let series = log.consumed_budget_series(SimDuration::from_secs(1), 1);
        assert_eq!(series.len(), 1);
        assert!((series[0].1[0] - 40.0).abs() < 1e-12);
    }
}
