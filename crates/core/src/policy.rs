//! The worker-policy interface and the PARD policy.
//!
//! A [`WorkerPolicy`] owns one worker's request queue and makes the two
//! decisions the paper separates (§3.3): *which* request to consider
//! next (ordering) and *whether* to drop it (the drop rule). The cluster
//! simulator drives policies through this trait.
//!
//! [`PardPolicy`] is the full system of §4 with every design knob
//! exposed, so that the Table 1 ablations are *configurations of the
//! same code path* rather than separate re-implementations:
//!
//! | Ablation | Knob |
//! |---|---|
//! | PARD-back | [`SubMode::Zero`] |
//! | PARD-sf | [`SubMode::ExecOnly`] |
//! | PARD-lower | [`SubMode::WaitLower`] |
//! | PARD-upper | [`SubMode::WaitUpper`] |
//! | PARD-split | [`RuleMode::SplitStatic`] |
//! | PARD-WCL | [`RuleMode::SplitWcl`] |
//! | PARD-FCFS | [`OrderMode::Fcfs`] |
//! | PARD-HBF | [`OrderMode::HbfOnly`] |
//! | PARD-LBF | [`OrderMode::LbfOnly`] |
//! | PARD-instant | [`OrderMode::AdaptiveInstant`] |

use std::collections::VecDeque;

use pard_metrics::DropReason;
use pard_sim::{SimDuration, SimTime};

use crate::broker::{proactive_decision, split_decision, Decision, DecisionInputs};
use crate::depq::Depq;
use crate::planner::SubEstimate;
use crate::priority::{AdaptivePriority, PriorityMode};
use crate::state::PipelineView;

/// The scheduling-relevant metadata of a queued request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqMeta {
    /// Unique request id.
    pub id: u64,
    /// Client send time `t_s`.
    pub sent: SimTime,
    /// Absolute deadline `t_s + SLO`.
    pub deadline: SimTime,
    /// Arrival at the current module `t_r`.
    pub arrived: SimTime,
}

impl ReqMeta {
    /// Remaining latency budget at `now` (zero if already expired).
    pub fn remaining_budget(&self, now: SimTime) -> SimDuration {
        self.deadline.saturating_since(now)
    }
}

/// Context for one pop decision.
#[derive(Clone, Copy, Debug)]
pub struct PopCtx {
    /// The decision moment (`t_b` for the admitted request).
    pub now: SimTime,
    /// Expected execution start of the forming batch (`t_e`).
    pub expected_exec_start: SimTime,
    /// Profiled execution duration at the planned batch size (`d_k`).
    pub exec_duration: SimDuration,
    /// Planned batch size of the forming batch (Nexus's scan window).
    pub batch_size: usize,
}

/// Result of asking a policy for the next request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopOutcome {
    /// This request enters the forming batch.
    Admit(ReqMeta),
    /// This request is dropped; the caller should keep popping.
    Drop(ReqMeta, DropReason),
    /// The queue is empty.
    Empty,
}

/// State pushed to a policy on every synchronisation period.
#[derive(Clone, Debug)]
pub struct SyncUpdate {
    /// The module this worker belongs to.
    pub module: usize,
    /// The State Planner's downstream estimate for this module.
    pub sub: SubEstimate,
    /// Module load factor µ = T_in / T_m.
    pub load_factor: f64,
    /// Dynamic transition threshold ε.
    pub epsilon: f64,
    /// Cumulative WCL budget through this module (PARD-WCL).
    pub wcl_cum_budget: SimDuration,
    /// Measured input rate of this module, req/s.
    pub input_rate: f64,
    /// The full (possibly stale) pipeline view, for policies that need
    /// cross-module signals (e.g. overload control).
    pub view: PipelineView,
}

/// A per-worker request queue plus dropping discipline.
///
/// Policies are `Send` so an engine can move them onto the thread that
/// drives it; implementations hold plain data.
pub trait WorkerPolicy: Send {
    /// Short identifier used in reports (e.g. `"pard"`, `"nexus"`).
    fn name(&self) -> &'static str;

    /// Offers an arriving request.
    ///
    /// Returns `None` when the request is queued, or
    /// `Some((req, reason))` when the policy refuses admission (only
    /// overload-control policies do).
    fn enqueue(&mut self, req: ReqMeta, now: SimTime) -> Option<(ReqMeta, DropReason)>;

    /// Pops the next request to consider for the forming batch.
    fn pop_next(&mut self, ctx: &PopCtx) -> PopOutcome;

    /// Number of queued requests.
    fn queue_len(&self) -> usize;

    /// Receives the periodic state synchronisation.
    fn on_sync(&mut self, _update: &SyncUpdate) {}

    /// Called when a new batch starts forming; may pre-drop queued
    /// requests (Nexus's window scan uses this).
    fn on_batch_open(&mut self, _ctx: &PopCtx) -> Vec<(ReqMeta, DropReason)> {
        Vec::new()
    }

    /// Current priority mode, for policies that have one (Fig. 13).
    fn priority_mode(&self) -> Option<PriorityMode> {
        None
    }

    /// Removes and returns every queued request (worker drain on
    /// scale-down or failure; the caller re-dispatches them).
    fn drain_queue(&mut self) -> Vec<ReqMeta>;
}

/// Factory that builds one policy instance per worker.
///
/// `module` identifies the pipeline stage the worker serves.
pub type PolicyFactory = Box<dyn Fn(usize) -> Box<dyn WorkerPolicy> + Send + Sync>;

/// How `L_sub` enters the decision (column 2 of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubMode {
    /// Full PARD estimate: `Σq + Σd + F⁻¹(λ)`.
    Full,
    /// Ignore subsequent modules entirely (PARD-back).
    Zero,
    /// Execution durations only (PARD-sf): `Σd`.
    ExecOnly,
    /// Assume zero batch wait (PARD-lower): `Σq + Σd`.
    WaitLower,
    /// Assume maximal batch wait (PARD-upper): `Σq + 2·Σd`.
    WaitUpper,
}

/// Which rule turns the estimate into a decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RuleMode {
    /// Compare the end-to-end estimate against the SLO (PARD).
    EndToEnd,
    /// Fixed per-module budget split (PARD-split). Carries the
    /// cumulative budget through this module.
    SplitStatic(SimDuration),
    /// Dynamic worst-case-latency split (PARD-WCL), refreshed on sync.
    SplitWcl,
}

/// Queue ordering (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderMode {
    /// Arrival order (PARD-FCFS and all reactive baselines).
    Fcfs,
    /// Always High-Budget-First (PARD-HBF).
    HbfOnly,
    /// Always Low-Budget-First (PARD-LBF, SHEPHERD-style).
    LbfOnly,
    /// Adaptive with delayed transition (PARD).
    Adaptive,
    /// Adaptive without hysteresis (PARD-instant).
    AdaptiveInstant,
}

/// Configuration of a [`PardPolicy`] instance.
#[derive(Clone, Copy, Debug)]
pub struct PardPolicyConfig {
    /// Reported name (distinguishes ablations in logs).
    pub name: &'static str,
    /// `L_sub` composition.
    pub sub_mode: SubMode,
    /// Decision rule.
    pub rule: RuleMode,
    /// Queue ordering.
    pub order: OrderMode,
}

impl PardPolicyConfig {
    /// The full PARD system (§4 defaults).
    pub fn pard() -> PardPolicyConfig {
        PardPolicyConfig {
            name: "pard",
            sub_mode: SubMode::Full,
            rule: RuleMode::EndToEnd,
            order: OrderMode::Adaptive,
        }
    }
}

/// Entry in the deadline-ordered DEPQ.
///
/// Remaining budget is `deadline − now`; since `now` is common to all
/// queued requests, ordering by deadline orders by remaining budget.
/// The sequence number makes ties deterministic (FIFO within ties).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct DeadlineEntry {
    deadline: SimTime,
    seq: u64,
    req_id: u64,
    sent: SimTime,
    arrived: SimTime,
}

impl DeadlineEntry {
    fn meta(&self) -> ReqMeta {
        ReqMeta {
            id: self.req_id,
            sent: self.sent,
            deadline: self.deadline,
            arrived: self.arrived,
        }
    }
}

/// The PARD worker policy (and, via configuration, its ablations).
pub struct PardPolicy {
    config: PardPolicyConfig,
    fifo: VecDeque<ReqMeta>,
    depq: Depq<DeadlineEntry>,
    next_seq: u64,
    adaptive: AdaptivePriority,
    sub: SubEstimate,
    wcl_cum_budget: SimDuration,
}

impl PardPolicy {
    /// Creates a policy with the given configuration.
    pub fn new(config: PardPolicyConfig) -> PardPolicy {
        PardPolicy {
            config,
            fifo: VecDeque::new(),
            depq: Depq::new(),
            next_seq: 0,
            adaptive: AdaptivePriority::new(matches!(config.order, OrderMode::AdaptiveInstant)),
            sub: SubEstimate::ZERO,
            wcl_cum_budget: SimDuration::MAX,
        }
    }

    /// The policy's configuration.
    pub fn config(&self) -> &PardPolicyConfig {
        &self.config
    }

    /// Number of HBF↔LBF transitions so far.
    pub fn transitions(&self) -> u64 {
        self.adaptive.transitions()
    }

    fn uses_depq(&self) -> bool {
        !matches!(self.config.order, OrderMode::Fcfs)
    }

    /// The effective `L_sub` under the configured [`SubMode`].
    fn effective_sub(&self) -> SubEstimate {
        let s = self.sub;
        let make = |total: SimDuration| SubEstimate {
            sum_q: s.sum_q,
            sum_d: s.sum_d,
            wait_q: s.wait_q,
            total,
        };
        match self.config.sub_mode {
            SubMode::Full => s,
            SubMode::Zero => SubEstimate::ZERO,
            SubMode::ExecOnly => make(s.sum_d),
            SubMode::WaitLower => make(s.sum_q + s.sum_d),
            SubMode::WaitUpper => make(s.sum_q + s.sum_d + s.sum_d),
        }
    }

    fn pop_candidate(&mut self) -> Option<ReqMeta> {
        match self.config.order {
            OrderMode::Fcfs => self.fifo.pop_front(),
            OrderMode::HbfOnly => self.depq.pop_max().map(|e| e.meta()),
            OrderMode::LbfOnly => self.depq.pop_min().map(|e| e.meta()),
            OrderMode::Adaptive | OrderMode::AdaptiveInstant => match self.adaptive.mode() {
                PriorityMode::Hbf => self.depq.pop_max().map(|e| e.meta()),
                PriorityMode::Lbf => self.depq.pop_min().map(|e| e.meta()),
            },
        }
    }
}

impl WorkerPolicy for PardPolicy {
    fn name(&self) -> &'static str {
        self.config.name
    }

    fn enqueue(&mut self, req: ReqMeta, _now: SimTime) -> Option<(ReqMeta, DropReason)> {
        if self.uses_depq() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.depq.push(DeadlineEntry {
                deadline: req.deadline,
                seq,
                req_id: req.id,
                sent: req.sent,
                arrived: req.arrived,
            });
        } else {
            self.fifo.push_back(req);
        }
        None
    }

    fn pop_next(&mut self, ctx: &PopCtx) -> PopOutcome {
        let Some(req) = self.pop_candidate() else {
            return PopOutcome::Empty;
        };
        let inputs = DecisionInputs {
            now: ctx.now,
            expected_exec_start: ctx.expected_exec_start,
            exec_duration: ctx.exec_duration,
            sub: self.effective_sub(),
        };
        let decision = match self.config.rule {
            RuleMode::EndToEnd => proactive_decision(&req, &inputs),
            RuleMode::SplitStatic(budget) => split_decision(&req, &inputs, budget),
            RuleMode::SplitWcl => split_decision(&req, &inputs, self.wcl_cum_budget),
        };
        match decision {
            Decision::Admit => PopOutcome::Admit(req),
            Decision::Drop(reason) => PopOutcome::Drop(req, reason),
        }
    }

    fn queue_len(&self) -> usize {
        if self.uses_depq() {
            self.depq.len()
        } else {
            self.fifo.len()
        }
    }

    fn on_sync(&mut self, update: &SyncUpdate) {
        self.sub = update.sub;
        self.wcl_cum_budget = update.wcl_cum_budget;
        if matches!(
            self.config.order,
            OrderMode::Adaptive | OrderMode::AdaptiveInstant
        ) {
            self.adaptive.update(update.load_factor, update.epsilon);
        }
    }

    fn priority_mode(&self) -> Option<PriorityMode> {
        match self.config.order {
            OrderMode::Adaptive | OrderMode::AdaptiveInstant => Some(self.adaptive.mode()),
            OrderMode::HbfOnly => Some(PriorityMode::Hbf),
            OrderMode::LbfOnly => Some(PriorityMode::Lbf),
            OrderMode::Fcfs => None,
        }
    }

    fn drain_queue(&mut self) -> Vec<ReqMeta> {
        if self.uses_depq() {
            let mut entries = self.depq.drain();
            entries.sort();
            entries.into_iter().map(|e| e.meta()).collect()
        } else {
            self.fifo.drain(..).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_sim::SimTime;

    fn req(id: u64, sent_ms: u64, slo_ms: u64) -> ReqMeta {
        ReqMeta {
            id,
            sent: SimTime::from_millis(sent_ms),
            deadline: SimTime::from_millis(sent_ms + slo_ms),
            arrived: SimTime::from_millis(sent_ms + 5),
        }
    }

    fn ctx(now_ms: u64, te_ms: u64, d_ms: u64) -> PopCtx {
        PopCtx {
            now: SimTime::from_millis(now_ms),
            expected_exec_start: SimTime::from_millis(te_ms),
            exec_duration: SimDuration::from_millis(d_ms),
            batch_size: 4,
        }
    }

    fn sync(sub_total_ms: u64, mu: f64, eps: f64) -> SyncUpdate {
        SyncUpdate {
            module: 0,
            sub: SubEstimate {
                sum_q: SimDuration::ZERO,
                sum_d: SimDuration::from_millis(sub_total_ms),
                wait_q: SimDuration::ZERO,
                total: SimDuration::from_millis(sub_total_ms),
            },
            load_factor: mu,
            epsilon: eps,
            wcl_cum_budget: SimDuration::from_millis(1_000_000),
            input_rate: 100.0,
            view: PipelineView::empty(1),
        }
    }

    #[test]
    fn fcfs_pops_in_arrival_order() {
        let mut p = PardPolicy::new(PardPolicyConfig {
            name: "t",
            sub_mode: SubMode::Full,
            rule: RuleMode::EndToEnd,
            order: OrderMode::Fcfs,
        });
        p.enqueue(req(1, 0, 400), SimTime::ZERO);
        p.enqueue(req(2, 1, 400), SimTime::ZERO);
        let c = ctx(10, 20, 40);
        assert!(matches!(p.pop_next(&c), PopOutcome::Admit(r) if r.id == 1));
        assert!(matches!(p.pop_next(&c), PopOutcome::Admit(r) if r.id == 2));
        assert_eq!(p.pop_next(&c), PopOutcome::Empty);
    }

    #[test]
    fn lbf_pops_tightest_deadline_first() {
        let mut p = PardPolicy::new(PardPolicyConfig {
            name: "t",
            sub_mode: SubMode::Full,
            rule: RuleMode::EndToEnd,
            order: OrderMode::LbfOnly,
        });
        p.enqueue(req(1, 0, 400), SimTime::ZERO); // deadline 400
        p.enqueue(req(2, 0, 200), SimTime::ZERO); // deadline 200
        p.enqueue(req(3, 0, 300), SimTime::ZERO); // deadline 300
        let c = ctx(10, 20, 40);
        assert!(matches!(p.pop_next(&c), PopOutcome::Admit(r) if r.id == 2));
        assert!(matches!(p.pop_next(&c), PopOutcome::Admit(r) if r.id == 3));
        assert!(matches!(p.pop_next(&c), PopOutcome::Admit(r) if r.id == 1));
    }

    #[test]
    fn hbf_pops_loosest_deadline_first() {
        let mut p = PardPolicy::new(PardPolicyConfig {
            name: "t",
            sub_mode: SubMode::Full,
            rule: RuleMode::EndToEnd,
            order: OrderMode::HbfOnly,
        });
        p.enqueue(req(1, 0, 400), SimTime::ZERO);
        p.enqueue(req(2, 0, 200), SimTime::ZERO);
        let c = ctx(10, 20, 40);
        assert!(matches!(p.pop_next(&c), PopOutcome::Admit(r) if r.id == 1));
    }

    #[test]
    fn adaptive_switches_between_ends() {
        let mut p = PardPolicy::new(PardPolicyConfig::pard());
        p.enqueue(req(1, 0, 400), SimTime::ZERO);
        p.enqueue(req(2, 0, 200), SimTime::ZERO);
        // Starts LBF: tightest first.
        let c = ctx(10, 20, 40);
        assert!(matches!(p.pop_next(&c), PopOutcome::Admit(r) if r.id == 2));
        // Overload → HBF.
        p.on_sync(&sync(0, 2.0, 0.05));
        assert_eq!(p.priority_mode(), Some(PriorityMode::Hbf));
        p.enqueue(req(3, 0, 100), SimTime::ZERO);
        assert!(matches!(p.pop_next(&c), PopOutcome::Admit(r) if r.id == 1));
    }

    #[test]
    fn proactive_drop_uses_sub_estimate() {
        let mut p = PardPolicy::new(PardPolicyConfig::pard());
        // Deadline 400; batch starts 300, exec 40; L_sub 100 → 440 > 400.
        p.on_sync(&sync(100, 0.5, 0.0));
        p.enqueue(req(1, 0, 400), SimTime::ZERO);
        match p.pop_next(&ctx(290, 300, 40)) {
            PopOutcome::Drop(r, DropReason::PredictedViolation) => assert_eq!(r.id, 1),
            other => panic!("expected predicted-violation drop, got {other:?}"),
        }
    }

    #[test]
    fn back_ablation_ignores_sub() {
        let mut p = PardPolicy::new(PardPolicyConfig {
            name: "pard-back",
            sub_mode: SubMode::Zero,
            rule: RuleMode::EndToEnd,
            order: OrderMode::Adaptive,
        });
        p.on_sync(&sync(100, 0.5, 0.0));
        p.enqueue(req(1, 0, 400), SimTime::ZERO);
        // Same situation as above: kept, because L_sub is ignored.
        assert!(matches!(
            p.pop_next(&ctx(290, 300, 40)),
            PopOutcome::Admit(_)
        ));
    }

    #[test]
    fn upper_ablation_doubles_exec_share() {
        let mut p = PardPolicy::new(PardPolicyConfig {
            name: "pard-upper",
            sub_mode: SubMode::WaitUpper,
            rule: RuleMode::EndToEnd,
            order: OrderMode::Adaptive,
        });
        // sum_d = 100 → effective L_sub = 200; 100+40+200=340 ≤ 400 admit;
        // at te=200: 200+40+200=440 > 400 drop.
        p.on_sync(&sync(100, 0.5, 0.0));
        p.enqueue(req(1, 0, 400), SimTime::ZERO);
        assert!(matches!(
            p.pop_next(&ctx(90, 100, 40)),
            PopOutcome::Admit(_)
        ));
        p.enqueue(req(2, 0, 400), SimTime::ZERO);
        assert!(matches!(
            p.pop_next(&ctx(190, 200, 40)),
            PopOutcome::Drop(_, DropReason::PredictedViolation)
        ));
    }

    #[test]
    fn split_static_enforces_module_budget() {
        let mut p = PardPolicy::new(PardPolicyConfig {
            name: "pard-split",
            sub_mode: SubMode::Full,
            rule: RuleMode::SplitStatic(SimDuration::from_millis(150)),
            order: OrderMode::Fcfs,
        });
        p.enqueue(req(1, 0, 400), SimTime::ZERO);
        // Module finish 200+40 = 240 > budget 150 → drop even though the
        // end-to-end deadline (400) is still reachable.
        assert!(matches!(
            p.pop_next(&ctx(190, 200, 40)),
            PopOutcome::Drop(_, DropReason::BudgetExceeded)
        ));
    }

    #[test]
    fn split_wcl_uses_synced_budget() {
        let mut p = PardPolicy::new(PardPolicyConfig {
            name: "pard-wcl",
            sub_mode: SubMode::Full,
            rule: RuleMode::SplitWcl,
            order: OrderMode::Fcfs,
        });
        let mut u = sync(0, 0.5, 0.0);
        u.wcl_cum_budget = SimDuration::from_millis(100);
        p.on_sync(&u);
        p.enqueue(req(1, 0, 400), SimTime::ZERO);
        assert!(matches!(
            p.pop_next(&ctx(90, 100, 40)),
            PopOutcome::Drop(_, DropReason::BudgetExceeded)
        ));
    }

    #[test]
    fn expired_requests_drop_with_expired_reason() {
        let mut p = PardPolicy::new(PardPolicyConfig::pard());
        p.enqueue(req(1, 0, 100), SimTime::ZERO);
        assert!(matches!(
            p.pop_next(&ctx(200, 210, 40)),
            PopOutcome::Drop(_, DropReason::AlreadyExpired)
        ));
    }

    #[test]
    fn queue_len_tracks_both_backends() {
        let mut fcfs = PardPolicy::new(PardPolicyConfig {
            name: "t",
            sub_mode: SubMode::Full,
            rule: RuleMode::EndToEnd,
            order: OrderMode::Fcfs,
        });
        let mut depq = PardPolicy::new(PardPolicyConfig::pard());
        for i in 0..5 {
            fcfs.enqueue(req(i, 0, 400), SimTime::ZERO);
            depq.enqueue(req(i, 0, 400), SimTime::ZERO);
        }
        assert_eq!(fcfs.queue_len(), 5);
        assert_eq!(depq.queue_len(), 5);
    }

    #[test]
    fn deadline_ties_pop_fifo_in_lbf() {
        let mut p = PardPolicy::new(PardPolicyConfig {
            name: "t",
            sub_mode: SubMode::Full,
            rule: RuleMode::EndToEnd,
            order: OrderMode::LbfOnly,
        });
        for i in 0..4 {
            p.enqueue(req(i, 0, 400), SimTime::ZERO);
        }
        let c = ctx(10, 20, 40);
        for expect in 0..4 {
            assert!(
                matches!(p.pop_next(&c), PopOutcome::Admit(r) if r.id == expect),
                "tie order broken at {expect}"
            );
        }
    }
}
