//! The requests in flight, including DAG split/merge bookkeeping.
//!
//! Ids are dense and sequential — the table mints `0, 1, 2, …` and never
//! reuses one — but the table only *holds* the ids that can still
//! matter: a window `[base, base + resident)` over that sequence, from
//! the oldest id that has not been retired upward.
//!
//! * A trace-driven run ([`crate::run_with_profiles`]) never retires
//!   anything: `base` stays 0, the window is the whole run, and
//!   [`RequestTable::into_log`] is the full
//!   [`RequestLog`](pard_metrics::RequestLog) every figure is computed
//!   from.
//! * The serving wrapper ([`crate::SimServer`]) retires (the
//!   crate-private `retire_resolved`) once a step's terminals have been
//!   reported: the front of the window is popped while it is terminal,
//!   so the table's footprint is the in-flight span, not the number of
//!   requests ever served. A popped record goes on a free list and the
//!   next [`RequestTable::insert`] reuses it with its `Vec`s' capacity,
//!   so a steady state allocates nothing per request.
//!
//! **Retired means not active.** The event queue, a policy's queue or a
//! worker's executing batch may still name an id after it was retired —
//! the lazily cancelled copy of a DAG request whose sibling branch was
//! dropped, a stage that was executing when the drop happened. Each of
//! them already has to cope with "that request is no longer active";
//! a lookup below `base` gives exactly that answer
//! ([`RequestTable::active`] is `None`), so no call site tells the two
//! apart.
//!
//! The window only moves past ids that are terminal: one request that
//! never resolves pins it (everything submitted after it stays
//! resident — no worse than the log the table used to be), and the
//! first retirement after it resolves releases the whole backlog.

use std::collections::VecDeque;

use pard_metrics::{DropReason, Outcome, RequestRecord, StageRecord};
use pard_pipeline::PipelineSpec;
use pard_sim::SimTime;

/// Lifecycle status of an in-flight request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqStatus {
    /// Travelling through the pipeline.
    Active,
    /// Dropped somewhere; surviving DAG branch copies are cancelled
    /// lazily when they surface.
    Dropped,
    /// Completed the sink module.
    Completed,
}

/// One in-flight request.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// Unique id.
    pub id: u64,
    /// Client send time.
    pub sent: SimTime,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Stage records accumulated so far.
    pub stages: Vec<StageRecord>,
    /// Current status.
    pub status: ReqStatus,
    /// Outcome details once finished.
    pub outcome: Outcome,
    /// Per-module count of predecessor copies that have arrived; a merge
    /// module only enqueues once all predecessors delivered (`usize`,
    /// so any validatable fan-in fits without wrapping).
    pub merge_arrivals: Vec<usize>,
}

impl InFlight {
    /// Creates a fresh request.
    pub fn new(id: u64, sent: SimTime, deadline: SimTime, modules: usize) -> InFlight {
        InFlight {
            id,
            sent,
            deadline,
            stages: Vec::with_capacity(modules),
            status: ReqStatus::Active,
            outcome: Outcome::InFlight,
            merge_arrivals: vec![0; modules],
        }
    }

    /// Turns a retired record into a fresh request, keeping the
    /// capacity of its `Vec`s.
    fn reuse(mut self, id: u64, sent: SimTime, deadline: SimTime, modules: usize) -> InFlight {
        self.stages.clear();
        self.merge_arrivals.clear();
        self.merge_arrivals.resize(modules, 0);
        InFlight {
            id,
            sent,
            deadline,
            status: ReqStatus::Active,
            outcome: Outcome::InFlight,
            ..self
        }
    }

    /// Marks the request dropped at `module`.
    pub fn mark_dropped(&mut self, module: usize, at: SimTime, reason: DropReason) {
        if self.status == ReqStatus::Active {
            self.status = ReqStatus::Dropped;
            self.outcome = Outcome::Dropped { module, at, reason };
        }
    }

    /// Marks the request completed at `finished`.
    pub fn mark_completed(&mut self, finished: SimTime) {
        if self.status == ReqStatus::Active {
            self.status = ReqStatus::Completed;
            self.outcome = Outcome::Completed { finished };
        }
    }

    /// Registers one predecessor delivery at a merge point and reports
    /// whether the request is now ready to enqueue at `module`.
    pub fn deliver(&mut self, module: usize, required: usize) -> bool {
        self.merge_arrivals[module] += 1;
        self.merge_arrivals[module] >= required.max(1)
    }

    /// Converts into the final metrics record.
    pub fn into_record(self) -> RequestRecord {
        RequestRecord {
            id: self.id,
            sent: self.sent,
            deadline: self.deadline,
            stages: self.stages,
            outcome: self.outcome,
        }
    }
}

/// Table of the requests that have not been retired: a window over
/// the dense id sequence (see the module doc).
#[derive(Debug, Default)]
pub struct RequestTable {
    /// Id of the window's first record; every id below it is retired.
    base: u64,
    window: VecDeque<InFlight>,
    /// Retired records, kept for the capacity of their `Vec`s.
    free: Vec<InFlight>,
}

impl RequestTable {
    /// Creates an empty table.
    pub fn new() -> RequestTable {
        RequestTable::default()
    }

    /// Registers a new request and returns its id.
    pub fn insert(&mut self, sent: SimTime, deadline: SimTime, spec: &PipelineSpec) -> u64 {
        let id = self.len() as u64;
        let modules = spec.modules.len();
        self.window.push_back(match self.free.pop() {
            Some(retired) => retired.reuse(id, sent, deadline, modules),
            None => InFlight::new(id, sent, deadline, modules),
        });
        id
    }

    /// The record of `id`, or `None` once it is retired.
    ///
    /// # Panics
    ///
    /// Panics on an id that was never minted — ids only come from
    /// [`RequestTable::insert`].
    pub fn get(&self, id: u64) -> Option<&InFlight> {
        let slot = id.checked_sub(self.base)?;
        Some(&self.window[slot as usize])
    }

    /// Exclusive access to the record of `id`, or `None` once it is
    /// retired. Panics like [`RequestTable::get`].
    pub fn get_mut(&mut self, id: u64) -> Option<&mut InFlight> {
        let slot = id.checked_sub(self.base)?;
        Some(&mut self.window[slot as usize])
    }

    /// The record of `id` while the request is still travelling: `None`
    /// once it is dropped, completed or retired — the one question the
    /// engine asks before it spends anything on a request.
    pub fn active(&self, id: u64) -> Option<&InFlight> {
        self.get(id).filter(|r| r.status == ReqStatus::Active)
    }

    /// [`RequestTable::active`] with exclusive access.
    pub fn active_mut(&mut self, id: u64) -> Option<&mut InFlight> {
        self.get_mut(id).filter(|r| r.status == ReqStatus::Active)
    }

    /// Retires the front of the window while it is terminal, showing
    /// each record to `retired` on its way out. Stops at the oldest
    /// request that is still active, however many behind it resolved.
    /// Crate-private: only the serving wrapper retires, and only after
    /// it has reported the terminals (see [`crate::SimServer`]).
    pub(crate) fn retire_resolved(&mut self, mut retired: impl FnMut(&InFlight)) {
        while let Some(front) = self.window.front() {
            if front.status == ReqStatus::Active {
                break;
            }
            retired(front);
            self.free.extend(self.window.pop_front());
            self.base += 1;
        }
    }

    /// Total requests ever inserted (the next id).
    pub fn len(&self) -> usize {
        self.base as usize + self.window.len()
    }

    /// Whether no request was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records currently held: the span from the oldest id that is not
    /// retired to the newest.
    pub fn resident(&self) -> usize {
        self.window.len()
    }

    /// The records currently held, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &InFlight> {
        self.window.iter()
    }

    /// Counts by status over the resident records:
    /// `(active, dropped, completed)`.
    pub fn status_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for r in &self.window {
            match r.status {
                ReqStatus::Active => counts.0 += 1,
                ReqStatus::Dropped => counts.1 += 1,
                ReqStatus::Completed => counts.2 += 1,
            }
        }
        counts
    }

    /// Drains the resident records into a metrics log — the whole run
    /// for a table that never retired, which is the only kind the
    /// figures are computed from.
    pub fn into_log(self) -> pard_metrics::RequestLog {
        let mut log = pard_metrics::RequestLog::new();
        for r in self.window {
            log.push(r.into_record());
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_pipeline::AppKind;
    use pard_sim::SimDuration;

    fn insert(table: &mut RequestTable, spec: &PipelineSpec) -> u64 {
        table.insert(SimTime::ZERO, SimTime::from_millis(400), spec)
    }

    fn complete(table: &mut RequestTable, id: u64) {
        let record = table.get_mut(id).expect("resident");
        record.mark_completed(SimTime::from_millis(300));
    }

    #[test]
    fn insert_and_lookup() {
        let spec = AppKind::Tm.pipeline();
        let mut table = RequestTable::new();
        let id = insert(&mut table, &spec);
        assert_eq!(id, 0);
        assert_eq!(table.get(id).unwrap().status, ReqStatus::Active);
        assert!(table.active(id).is_some());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn drop_is_sticky_and_first_wins() {
        let spec = AppKind::Da.pipeline();
        let mut table = RequestTable::new();
        let id = table.insert(SimTime::ZERO, SimTime::from_millis(420), &spec);
        table.active_mut(id).unwrap().mark_dropped(
            1,
            SimTime::from_millis(50),
            DropReason::PredictedViolation,
        );
        // A later completion attempt must not overwrite the drop.
        assert!(table.active_mut(id).is_none(), "dropped is not active");
        complete(&mut table, id);
        assert_eq!(table.get(id).unwrap().status, ReqStatus::Dropped);
        match table.get(id).unwrap().outcome {
            Outcome::Dropped { module, .. } => assert_eq!(module, 1),
            ref o => panic!("unexpected outcome {o:?}"),
        }
    }

    #[test]
    fn merge_requires_all_predecessors() {
        let spec = AppKind::Da.pipeline();
        let mut table = RequestTable::new();
        let id = table.insert(SimTime::ZERO, SimTime::from_millis(420), &spec);
        // Module 3 merges branches from modules 1 and 2.
        assert!(!table.get_mut(id).unwrap().deliver(3, 2));
        assert!(table.get_mut(id).unwrap().deliver(3, 2));
    }

    #[test]
    fn status_counts_and_log_conversion() {
        let spec = AppKind::Tm.pipeline();
        let mut table = RequestTable::new();
        let a = insert(&mut table, &spec);
        let b = insert(&mut table, &spec);
        let _c = insert(&mut table, &spec);
        complete(&mut table, a);
        table.get_mut(b).unwrap().mark_dropped(
            0,
            SimTime::from_millis(10),
            DropReason::PredictedViolation,
        );
        assert_eq!(table.status_counts(), (1, 1, 1));
        let log = table.into_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log.goodput_count(), 1);
        assert_eq!(log.drop_count(), 1);
    }

    #[test]
    fn stage_accumulation() {
        let spec = AppKind::Tm.pipeline();
        let mut table = RequestTable::new();
        let id = insert(&mut table, &spec);
        let t0 = SimTime::from_millis(10);
        table.get_mut(id).unwrap().stages.push(StageRecord {
            module: 0,
            worker: 0,
            arrived: t0,
            batched: t0 + SimDuration::from_millis(2),
            exec_start: t0 + SimDuration::from_millis(5),
            exec_end: t0 + SimDuration::from_millis(45),
            batch_size: 8,
            gpu_share: SimDuration::from_millis(5),
        });
        assert_eq!(table.get(id).unwrap().stages.len(), 1);
    }

    #[test]
    fn retirement_pops_the_terminal_front_and_keeps_ids_dense() {
        let spec = AppKind::Tm.pipeline();
        let mut table = RequestTable::new();
        for _ in 0..4 {
            insert(&mut table, &spec);
        }
        // 0 and 1 resolve, 2 is still travelling, 3 resolved behind it.
        for id in [0, 1, 3] {
            complete(&mut table, id);
        }
        let mut seen = Vec::new();
        table.retire_resolved(|r| seen.push(r.id));
        assert_eq!(seen, [0, 1], "stops at the oldest active request");
        assert_eq!((table.len(), table.resident()), (4, 2));
        // A retired id answers like any request that is not active.
        assert!(table.get(1).is_none() && table.active(1).is_none());
        assert!(table.active(2).is_some());
        assert!(table.get(3).is_some() && table.active(3).is_none());
        // The next id follows the last one, retired or not.
        assert_eq!(insert(&mut table, &spec), 4);
        // Once the pin resolves, the backlog behind it goes at once.
        complete(&mut table, 2);
        seen.clear();
        table.retire_resolved(|r| seen.push(r.id));
        assert_eq!(seen, [2, 3]);
        assert_eq!((table.len(), table.resident()), (5, 1));
    }

    #[test]
    fn a_reused_record_is_a_fresh_request() {
        let da = AppKind::Da.pipeline();
        let mut table = RequestTable::new();
        let id = table.insert(SimTime::ZERO, SimTime::from_millis(420), &da);
        let record = table.get_mut(id).unwrap();
        assert!(!record.deliver(3, 2));
        record.mark_dropped(1, SimTime::from_millis(5), DropReason::AlreadyExpired);
        table.retire_resolved(|_| {});
        assert_eq!(table.resident(), 0);
        let sent = SimTime::from_millis(7);
        let next = table.insert(sent, SimTime::from_millis(900), &da);
        let record = table.get(next).unwrap();
        assert_eq!((record.id, record.sent), (1, sent));
        assert_eq!(record.deadline, SimTime::from_millis(900));
        assert_eq!(record.status, ReqStatus::Active);
        assert_eq!(record.outcome, Outcome::InFlight);
        assert!(record.stages.is_empty());
        assert_eq!(record.merge_arrivals, vec![0; da.modules.len()]);
    }
}
