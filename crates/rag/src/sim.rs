//! Event-driven simulation of the RAG workflow with pluggable dropping.

use std::collections::VecDeque;

use pard_core::window::LinearWeightedWindow;
use pard_sim::{DetRng, EventQueue, SimDuration, SimTime, Simulation, World};

use crate::stages::{LlmProfile, RetrieveProfile, SearchProfile};
use crate::workload::RagWorkload;

/// The dropping policy under test (Fig. 15a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RagPolicy {
    /// Drop only after the TTFT SLO is already violated.
    Reactive,
    /// PARD-style projection with recent-average stage estimates.
    Proactive,
    /// Proactive plus oracle knowledge of rewrite output lengths.
    Predict,
}

impl RagPolicy {
    /// All policies in the paper's order.
    pub const ALL: [RagPolicy; 3] = [
        RagPolicy::Predict,
        RagPolicy::Reactive,
        RagPolicy::Proactive,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RagPolicy::Reactive => "reactive",
            RagPolicy::Proactive => "proactive",
            RagPolicy::Predict => "predict",
        }
    }
}

/// Configuration of one RAG run.
#[derive(Clone, Debug)]
pub struct RagConfig {
    /// Dropping policy.
    pub policy: RagPolicy,
    /// Time-to-first-token SLO (paper: 5 s).
    pub slo: SimDuration,
    /// Rewrite-stage LLM.
    pub rewrite: LlmProfile,
    /// Generate-stage LLM.
    pub generate: LlmProfile,
    /// Retrieval stage.
    pub retrieve: RetrieveProfile,
    /// Web-search stage.
    pub search: SearchProfile,
    /// Answer length range (tokens) — holds a generate slot past TTFT.
    pub answer_tokens: (usize, usize),
    /// Estimator smoothing window.
    pub window: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for RagConfig {
    fn default() -> RagConfig {
        RagConfig {
            policy: RagPolicy::Proactive,
            slo: SimDuration::from_secs(5),
            rewrite: LlmProfile::rewrite_default(),
            generate: LlmProfile::generate_default(),
            retrieve: RetrieveProfile::default_profile(),
            search: SearchProfile::default_profile(),
            answer_tokens: (50, 110),
            window: SimDuration::from_secs(5),
            seed: 42,
        }
    }
}

/// Per-request progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Pending,
    Dropped,
    Done,
}

struct Req {
    deadline: SimTime,
    query_len: usize,
    rewrite_out_len: usize,
    context_len: usize,
    answer_len: usize,
    status: Status,
    retrieve_done: bool,
    search_done: bool,
    rewrite_latency: Option<SimDuration>,
    retrieve_latency: Option<SimDuration>,
    search_started: Option<SimTime>,
    ttft: Option<SimTime>,
    drop_stage: Option<usize>,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Arrive(u64),
    RewriteDone(u64),
    RetrieveBatchDone,
    SearchDone(u64),
    GenPrefillDone(u64),
    GenDecodeDone(u64),
}

/// One run's outcome.
#[derive(Clone, Debug)]
pub struct RagResult {
    /// Total queries offered.
    pub total: usize,
    /// Queries whose TTFT met the SLO.
    pub goodput: usize,
    /// Queries dropped (or late — counted as dropped, as in §5.1).
    pub dropped: usize,
    /// Drops attributed per stage: rewrite/retrieve/search/generate.
    pub drops_per_stage: [usize; 4],
    /// Rewrite stage latencies (grant→done), ms.
    pub rewrite_ms: Vec<f64>,
    /// Retrieve stage latencies (arrive→done), ms.
    pub retrieve_ms: Vec<f64>,
    /// Search stage latencies (arrive→done), ms.
    pub search_ms: Vec<f64>,
    /// Generate TTFT contribution (merge→first token), ms.
    pub generate_ms: Vec<f64>,
}

impl RagResult {
    /// Drop rate over all queries.
    pub fn drop_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.dropped as f64 / self.total as f64
        }
    }

    /// Normalized goodput (fraction of offered queries inside SLO).
    pub fn normalized_goodput(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.goodput as f64 / self.total as f64
        }
    }
}

struct RagWorld {
    config: RagConfig,
    rng: DetRng,
    reqs: Vec<Req>,
    // Rewrite LLM.
    rewrite_active: usize,
    rewrite_queue: VecDeque<u64>,
    // Retrieve batch worker.
    retrieve_queue: VecDeque<(u64, SimTime)>,
    retrieve_busy: bool,
    retrieve_batch: Vec<(u64, SimTime)>,
    // Search pool.
    search_active: usize,
    search_queue: VecDeque<(u64, SimTime)>,
    // Generate LLM.
    gen_active: usize,
    gen_queue: VecDeque<(u64, SimTime)>,
    // Estimators (recent averages).
    rewrite_window: LinearWeightedWindow,
    retrieve_window: LinearWeightedWindow,
    search_window: LinearWeightedWindow,
    gen_wait_window: LinearWeightedWindow,
    avg_out_len: LinearWeightedWindow,
    // Output.
    result: RagResult,
}

impl RagWorld {
    fn drop_req(&mut self, id: u64, stage: usize) {
        let req = &mut self.reqs[id as usize];
        if req.status == Status::Pending {
            req.status = Status::Dropped;
            req.drop_stage = Some(stage);
            self.result.dropped += 1;
            self.result.drops_per_stage[stage] += 1;
        }
    }

    fn estimate_rewrite(&mut self, id: u64, now: SimTime) -> SimDuration {
        let req = &self.reqs[id as usize];
        match self.config.policy {
            RagPolicy::Predict => self
                .config
                .rewrite
                .generation(req.query_len, req.rewrite_out_len),
            _ => {
                // Recent average; fall back to the profile with the
                // average output length before any completion exists.
                match self.rewrite_window.mean(now) {
                    Some(ms) => SimDuration::from_millis_f64(ms),
                    None => {
                        let out = self.avg_out_len.mean(now).unwrap_or(45.0) as usize;
                        self.config.rewrite.generation(req.query_len, out)
                    }
                }
            }
        }
    }

    fn estimate_retrieve(&mut self, now: SimTime) -> SimDuration {
        // "Estimated as in PARD": queued work over batch throughput plus
        // one batch execution.
        let batch = self.config.retrieve.max_batch;
        let queued = self.retrieve_queue.len();
        let batches_ahead = queued / batch + usize::from(self.retrieve_busy);
        let d = self.config.retrieve.latency(batch);
        let base = d * (batches_ahead as u64 + 1);
        match self.retrieve_window.mean(now) {
            Some(ms) => std::cmp::max(base, SimDuration::from_millis_f64(ms)),
            None => base,
        }
    }

    fn estimate_search(&mut self, now: SimTime) -> SimDuration {
        match self.search_window.mean(now) {
            Some(ms) => SimDuration::from_millis_f64(ms),
            None => SimDuration::from_millis_f64(self.config.search.median_ms()),
        }
    }

    fn estimate_generate(&mut self, id: u64, now: SimTime) -> SimDuration {
        let req = &self.reqs[id as usize];
        let out = match self.config.policy {
            RagPolicy::Predict => req.rewrite_out_len,
            _ => self.avg_out_len.mean(now).unwrap_or(45.0) as usize,
        };
        let input = req.query_len + out + req.context_len;
        let wait = self
            .gen_wait_window
            .mean(now)
            .map(SimDuration::from_millis_f64)
            .unwrap_or(SimDuration::ZERO);
        wait + self.config.generate.prefill(input)
    }

    /// The drop decision at a stage boundary. `remaining` is the
    /// policy's projection of the remaining path.
    fn should_drop(&self, id: u64, now: SimTime, remaining: SimDuration) -> bool {
        let req = &self.reqs[id as usize];
        match self.config.policy {
            RagPolicy::Reactive => now > req.deadline,
            RagPolicy::Proactive | RagPolicy::Predict => {
                now > req.deadline || now + remaining > req.deadline
            }
        }
    }

    // ------ rewrite ------

    fn rewrite_try_grant(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        while self.rewrite_active < self.config.rewrite.max_slots {
            let Some(id) = self.rewrite_queue.pop_front() else {
                return;
            };
            if self.reqs[id as usize].status != Status::Pending {
                continue;
            }
            let rewrite_est = self.estimate_rewrite(id, now);
            let branch = std::cmp::max(self.estimate_retrieve(now), self.estimate_search(now));
            let generate = self.estimate_generate(id, now);
            if self.should_drop(id, now, rewrite_est + branch + generate) {
                self.drop_req(id, 0);
                continue;
            }
            let req = &self.reqs[id as usize];
            let duration = self
                .config
                .rewrite
                .generation(req.query_len, req.rewrite_out_len);
            self.rewrite_active += 1;
            self.reqs[id as usize].rewrite_latency = Some(duration);
            queue.push(now + duration, Ev::RewriteDone(id));
        }
    }

    // ------ retrieve ------

    fn retrieve_try_start(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        if self.retrieve_busy || self.retrieve_queue.is_empty() {
            return;
        }
        let mut batch = Vec::new();
        while batch.len() < self.config.retrieve.max_batch {
            let Some((id, arrived)) = self.retrieve_queue.pop_front() else {
                break;
            };
            if self.reqs[id as usize].status != Status::Pending {
                continue;
            }
            let remaining = self.config.retrieve.latency(self.config.retrieve.max_batch)
                + self.estimate_generate(id, now);
            if self.should_drop(id, now, remaining) {
                self.drop_req(id, 1);
                continue;
            }
            batch.push((id, arrived));
        }
        if batch.is_empty() {
            return;
        }
        let d = self.config.retrieve.latency(batch.len());
        self.retrieve_batch = batch;
        self.retrieve_busy = true;
        queue.push(now + d, Ev::RetrieveBatchDone);
    }

    // ------ search ------

    fn search_try_start(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        while self.search_active < self.config.search.concurrency {
            let Some((id, _arrived)) = self.search_queue.pop_front() else {
                return;
            };
            if self.reqs[id as usize].status != Status::Pending {
                continue;
            }
            let remaining = self.estimate_search(now) + self.estimate_generate(id, now);
            if self.should_drop(id, now, remaining) {
                self.drop_req(id, 2);
                continue;
            }
            let d = self.config.search.sample(&mut self.rng);
            self.search_active += 1;
            self.reqs[id as usize].search_started = Some(now);
            queue.push(now + d, Ev::SearchDone(id));
        }
    }

    // ------ generate ------

    fn gen_try_grant(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        while self.gen_active < self.config.generate.max_slots {
            let Some((id, arrived)) = self.gen_queue.pop_front() else {
                return;
            };
            if self.reqs[id as usize].status != Status::Pending {
                continue;
            }
            let req = &self.reqs[id as usize];
            let input = req.query_len + req.rewrite_out_len + req.context_len;
            let prefill = self.config.generate.prefill(input);
            if self.should_drop(id, now, prefill) {
                self.drop_req(id, 3);
                continue;
            }
            self.gen_wait_window
                .push(now, now.saturating_since(arrived).as_millis_f64());
            self.gen_active += 1;
            queue.push(now + prefill, Ev::GenPrefillDone(id));
        }
    }

    fn maybe_merge(&mut self, id: u64, now: SimTime, queue: &mut EventQueue<Ev>) {
        let req = &self.reqs[id as usize];
        if req.status == Status::Pending && req.retrieve_done && req.search_done {
            self.gen_queue.push_back((id, now));
            self.gen_try_grant(now, queue);
        }
    }
}

impl World for RagWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Arrive(id) => {
                self.rewrite_queue.push_back(id);
                self.rewrite_try_grant(now, queue);
            }
            Ev::RewriteDone(id) => {
                self.rewrite_active -= 1;
                let latency = self.reqs[id as usize].rewrite_latency.expect("rewrite ran");
                self.rewrite_window.push(now, latency.as_millis_f64());
                let out = self.reqs[id as usize].rewrite_out_len as f64;
                self.avg_out_len.push(now, out);
                self.result.rewrite_ms.push(latency.as_millis_f64());
                if self.reqs[id as usize].status == Status::Pending {
                    self.retrieve_queue.push_back((id, now));
                    self.search_queue.push_back((id, now));
                    self.retrieve_try_start(now, queue);
                    self.search_try_start(now, queue);
                }
                self.rewrite_try_grant(now, queue);
            }
            Ev::RetrieveBatchDone => {
                self.retrieve_busy = false;
                let batch = std::mem::take(&mut self.retrieve_batch);
                for (id, arrived) in batch {
                    let latency = now.saturating_since(arrived);
                    self.retrieve_window.push(now, latency.as_millis_f64());
                    self.result.retrieve_ms.push(latency.as_millis_f64());
                    self.reqs[id as usize].retrieve_latency = Some(latency);
                    self.reqs[id as usize].retrieve_done = true;
                    self.maybe_merge(id, now, queue);
                }
                self.retrieve_try_start(now, queue);
            }
            Ev::SearchDone(id) => {
                self.search_active -= 1;
                let started = self.reqs[id as usize].search_started.expect("search ran");
                let latency_ms = now.saturating_since(started).as_millis_f64();
                self.search_window.push(now, latency_ms);
                self.result.search_ms.push(latency_ms);
                self.reqs[id as usize].search_done = true;
                self.maybe_merge(id, now, queue);
                self.search_try_start(now, queue);
            }
            Ev::GenPrefillDone(id) => {
                let req = &mut self.reqs[id as usize];
                if req.status == Status::Pending {
                    req.ttft = Some(now);
                    req.status = Status::Done;
                    if now <= req.deadline {
                        self.result.goodput += 1;
                    } else {
                        self.result.dropped += 1;
                        self.result.drops_per_stage[3] += 1;
                    }
                }
                let answer = self.rng.range_u64(
                    self.config.answer_tokens.0 as u64,
                    self.config.answer_tokens.1 as u64 + 1,
                ) as usize;
                self.reqs[id as usize].answer_len = answer;
                let decode = SimDuration::from_millis_f64(
                    self.config.generate.decode_per_token_ms * answer as f64,
                );
                queue.push(now + decode, Ev::GenDecodeDone(id));
            }
            Ev::GenDecodeDone(_id) => {
                self.gen_active -= 1;
                self.gen_try_grant(now, queue);
            }
        }
    }
}

/// Runs the RAG workflow over `workload` and returns the outcome.
pub fn run_rag(workload: &RagWorkload, config: RagConfig) -> RagResult {
    let slo = config.slo;
    let reqs: Vec<Req> = workload
        .queries
        .iter()
        .map(|q| Req {
            deadline: q.sent + slo,
            query_len: q.query_len,
            rewrite_out_len: q.rewrite_out_len,
            context_len: q.context_len,
            answer_len: 0,
            status: Status::Pending,
            retrieve_done: false,
            search_done: false,
            rewrite_latency: None,
            retrieve_latency: None,
            search_started: None,
            ttft: None,
            drop_stage: None,
        })
        .collect();
    let window = config.window;
    let world = RagWorld {
        rng: DetRng::new(config.seed ^ 0x5247),
        reqs,
        rewrite_active: 0,
        rewrite_queue: VecDeque::new(),
        retrieve_queue: VecDeque::new(),
        retrieve_busy: false,
        retrieve_batch: Vec::new(),
        search_active: 0,
        search_queue: VecDeque::new(),
        gen_active: 0,
        gen_queue: VecDeque::new(),
        rewrite_window: LinearWeightedWindow::new(window),
        retrieve_window: LinearWeightedWindow::new(window),
        search_window: LinearWeightedWindow::new(window),
        gen_wait_window: LinearWeightedWindow::new(window),
        avg_out_len: LinearWeightedWindow::new(window),
        result: RagResult {
            total: workload.queries.len(),
            goodput: 0,
            dropped: 0,
            drops_per_stage: [0; 4],
            rewrite_ms: Vec::new(),
            retrieve_ms: Vec::new(),
            search_ms: Vec::new(),
            generate_ms: Vec::new(),
        },
        config,
    };
    let mut sim = Simulation::new(world);
    // Queries are sorted by send time, so they stream straight in.
    sim.run_merged(workload.queries.iter().map(|q| (q.sent, Ev::Arrive(q.id))));
    let mut world = sim.into_world();
    // Generate-stage contribution (prefill) per request that reached a
    // first token; the queue wait is already visible in its TTFT.
    for req in &world.reqs {
        if req.ttft.is_some() {
            let input = req.query_len + req.rewrite_out_len + req.context_len;
            world
                .result
                .generate_ms
                .push(world.config.generate.prefill(input).as_millis_f64());
        }
    }
    world.result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_workload::azure;

    fn workload(n: usize) -> RagWorkload {
        RagWorkload::generate(n, &azure(240, 1), 7)
    }

    fn run(policy: RagPolicy, n: usize) -> RagResult {
        run_rag(
            &workload(n),
            RagConfig {
                policy,
                ..RagConfig::default()
            },
        )
    }

    #[test]
    fn all_requests_are_accounted() {
        for policy in RagPolicy::ALL {
            let r = run(policy, 3_000);
            assert_eq!(
                r.goodput + r.dropped,
                r.total,
                "{}: goodput {} + dropped {} != {}",
                policy.name(),
                r.goodput,
                r.dropped,
                r.total
            );
        }
    }

    #[test]
    fn policy_ordering_matches_paper() {
        // Fig. 15a: predict (11%) < proactive (17%) < reactive (39%).
        let predict = run(RagPolicy::Predict, 6_000);
        let proactive = run(RagPolicy::Proactive, 6_000);
        let reactive = run(RagPolicy::Reactive, 6_000);
        assert!(
            predict.drop_rate() <= proactive.drop_rate() + 0.01,
            "predict {} vs proactive {}",
            predict.drop_rate(),
            proactive.drop_rate()
        );
        assert!(
            proactive.drop_rate() < reactive.drop_rate(),
            "proactive {} vs reactive {}",
            proactive.drop_rate(),
            reactive.drop_rate()
        );
        assert!(
            proactive.normalized_goodput() > reactive.normalized_goodput(),
            "goodput should improve"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run(RagPolicy::Proactive, 1_000);
        let b = run(RagPolicy::Proactive, 1_000);
        assert_eq!(a.goodput, b.goodput);
        assert_eq!(a.dropped, b.dropped);
    }

    /// FNV-1a over every count and every stage-latency sample's bits.
    fn result_digest(r: &RagResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let counts = [r.total, r.goodput, r.dropped].into_iter();
        let samples = [&r.rewrite_ms, &r.retrieve_ms, &r.search_ms, &r.generate_ms]
            .into_iter()
            .flatten()
            .map(|x| x.to_bits());
        for x in counts
            .chain(r.drops_per_stage)
            .map(|c| c as u64)
            .chain(samples)
        {
            for byte in x.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Outcomes recorded while queries were still pre-scheduled on the
    /// event heap; streaming them must not move one bit.
    #[test]
    fn outcomes_are_pinned() {
        let got: Vec<u64> = RagPolicy::ALL
            .into_iter()
            .map(|policy| result_digest(&run(policy, 1_500)))
            .collect();
        assert_eq!(
            got,
            [0xbe3d48a0f9783223, 0xbb7c1b3664a78302, 0x1bc107a086d561ac],
            "actual: {got:#x?}"
        );
    }

    #[test]
    fn stage_latencies_have_expected_shapes() {
        let r = run(RagPolicy::Proactive, 4_000);
        // Rewrite latency varies with output length (§7).
        let rw = pard_metrics::Cdf::from_samples(&r.rewrite_ms);
        assert!(rw.quantile(0.9) > 1.5 * rw.quantile(0.1), "rewrite spread");
        // Retrieve is fast and tight.
        let rt = pard_metrics::Cdf::from_samples(&r.retrieve_ms);
        assert!(
            rt.quantile(0.5) < 200.0,
            "retrieve median {}",
            rt.quantile(0.5)
        );
    }
}
