//! Metric names, units and directions — the same tables `BENCHMARK.json`
//! lists — and the result line every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the stack sees, as far as it can be measured on every
/// workload: the driver wants each of these from every run, never zero.
/// `BENCHMARK.json` carries their bounds; `compare` carries the table of
/// which workload each is bounded on.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("throughput_rps", "req/s", "higher"),
    def("goodput_frac", "ratio", "higher"),
    def("rtt_p50_us", "us", "lower"),
    def("rss_bytes_per_req", "B", "lower"),
];

/// Single layers, from the traced run; a workload reports the layers it
/// runs. The first four are end-to-end metrics that exist on some
/// workloads only, are zero whenever nothing fails, or (the CPU time of
/// `live_da_burst`'s mostly sleeping child) spread by half their median
/// between runs of one commit, so the driver's end-to-end list cannot
/// hold them: an untraced run reports them too, where they are defined,
/// and `compare` bounds them there.
pub const PER_LAYER: &[MetricDef] = &[
    def("invalid_frac", "ratio", "lower"),
    def("rtt_p99_us", "us", "lower"),
    def("cpu_us_per_req", "us", "lower"),
    def("fail_frac", "ratio", "lower"),
    // The benchmark's own client: did the ruler hold?
    def("gen.late_p50_us", "us", "lower"),
    def("gen.late_p99_us", "us", "lower"),
    def("gen.cpu_share", "ratio", "lower"),
    def("client.write_us_p50", "us", "lower"),
    def("client.wait_us_p50", "us", "lower"),
    def("client.drop_rtt_p50_us", "us", "lower"),
    def("client.replies_per_read", "count", "higher"),
    // gateway: codec, admission, pending table, estimator, recorder.
    def("wire.request_decode_ns", "ns", "lower"),
    def("wire.response_encode_ns", "ns", "lower"),
    def("admission.decide_ns", "ns", "lower"),
    def("admission.snapshot_build_us", "us", "lower"),
    def("admission.reader_current_ns", "ns", "lower"),
    def("pending.insert_take_ns", "ns", "lower"),
    def("pending.insert_take_2t_ns", "ns", "lower"),
    def("adaptive.observe_ns", "ns", "lower"),
    def("obs.record_ns", "ns", "lower"),
    // gateway::server, seen from outside the child process.
    def("server.residual_us", "us", "lower"),
    def("server.cpu_us_per_req", "us", "lower"),
    def("server.ctx_switches_per_req", "count", "lower"),
    def("server.sys_share", "ratio", "lower"),
    def("server.threads", "count", "lower"),
    def("server.replay2_over_replay1", "ratio", "higher"),
    def("server.received", "count", "higher"),
    def("server.admitted", "count", "higher"),
    def("server.edge_rejected", "count", "higher"),
    def("server.completed_ok", "count", "higher"),
    def("server.completed_late", "count", "lower"),
    def("server.pipeline_dropped.m0", "count", "lower"),
    def("server.pipeline_dropped.m1", "count", "lower"),
    def("server.pipeline_dropped.m2", "count", "lower"),
    def("server.pipeline_dropped.m3", "count", "lower"),
    def("server.protocol_errors", "count", "lower"),
    def("server.edge_reject_share", "ratio", "higher"),
    // engine-api + cluster (stepped simulator) and the socketless path.
    def("engine.sim_build_ms", "ms", "lower"),
    def("engine.submit_at_ns", "ns", "lower"),
    def("engine.edge_state_us", "us", "lower"),
    def("engine.drain_ms", "ms", "lower"),
    def("harness.socketless_req_ns", "ns", "lower"),
    // cluster (trace-driven), core, sim, policies.
    def("cluster.run_req_ns.pard", "ns", "lower"),
    def("cluster.run_req_ns.nexus", "ns", "lower"),
    def("cluster.run_req_ns.clipper", "ns", "lower"),
    def("cluster.run_req_ns.naive", "ns", "lower"),
    def("cluster.queue_wait_ms_p50", "ms", "lower"),
    def("cluster.batch_wait_ms_p50", "ms", "lower"),
    def("cluster.exec_ms_p50", "ms", "lower"),
    def("cluster.drop_frac", "ratio", "lower"),
    def("cluster.drop_at_first_module_frac", "ratio", "higher"),
    def("cluster.peak_workers", "count", "lower"),
    def("cluster.sync_bytes_per_req", "B", "lower"),
    def("sim.event_ns", "ns", "lower"),
    def("core.depq_op_ns", "ns", "lower"),
    def("core.batchwait_q1000_us", "us", "lower"),
    def("core.batchwait_q4000_us", "us", "lower"),
    def("core.planner_estimate_us", "us", "lower"),
    // runtime (live), from /metrics sampled during live_da_burst.
    def("runtime.queue_depth_mean.m0", "count", "lower"),
    def("runtime.queue_depth_mean.m1", "count", "lower"),
    def("runtime.queue_depth_mean.m2", "count", "lower"),
    def("runtime.queue_depth_mean.m3", "count", "lower"),
    def("runtime.queue_depth_max.m0", "count", "lower"),
    def("runtime.queue_depth_max.m1", "count", "lower"),
    def("runtime.queue_depth_max.m2", "count", "lower"),
    def("runtime.queue_depth_max.m3", "count", "lower"),
    def("runtime.dropped.expired", "count", "lower"),
    def("runtime.dropped.predicted", "count", "lower"),
    def("runtime.dropped.budget", "count", "lower"),
    def("runtime.dropped.late", "count", "lower"),
    def("runtime.dropped.throttled", "count", "lower"),
    def("runtime.dropped.sibling", "count", "lower"),
    def("runtime.dropped.worker-failed", "count", "lower"),
    def("runtime.pending_max", "count", "lower"),
    def("runtime.goodput_frac.calm1", "ratio", "higher"),
    def("runtime.goodput_frac.burst", "ratio", "higher"),
    def("runtime.goodput_frac.calm2", "ratio", "higher"),
    // harness + sweep.
    def("sweep.cell_ms_p50", "ms", "lower"),
    def("sweep.cell_ms_p99", "ms", "lower"),
    def("sweep.build_schedule_ms", "ms", "lower"),
    def("sweep.build_engine_us", "us", "lower"),
    def("sweep.parallel_efficiency", "ratio", "higher"),
    // The trace itself: 1 - traced / untraced throughput.
    def("trace.overhead_frac", "ratio", "lower"),
];

/// Named samples collected while a workload runs. A run reports each
/// name's median, and the quartiles beside it where there is more than
/// one sample: a slice rate per slice, a set-up time per set-up, one
/// value for what is counted over the whole window.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, Vec<f64>>);

impl Values {
    /// Adds a sample; a value that could not be measured (`None`, or
    /// not finite) adds nothing, so the metric stays absent.
    pub fn push(&mut self, name: &'static str, value: impl Into<Option<f64>>) {
        if let Some(value) = value.into().filter(|v| v.is_finite()) {
            self.0.entry(name).or_default().push(value);
        }
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        crate::stats::median(&mut self.0.get(name)?.clone())
    }

    /// First and third quartile of a name with at least two samples.
    fn quartiles(&self, name: &str) -> Option<(f64, f64)> {
        let mut samples = self.0.get(name).filter(|v| v.len() > 1)?.clone();
        samples.sort_by(f64::total_cmp);
        Some((
            crate::stats::quantile_sorted(&samples, 0.25)?,
            crate::stats::quantile_sorted(&samples, 0.75)?,
        ))
    }
}

/// One stretch of a run's timed window: consecutive requests of a
/// gateway window, or one pass of an in-process workload. A traced run
/// records spans in every other slice, so that the rates of the two
/// kinds give the tracing overhead.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub wall_s: f64,
    pub requests: u64,
    /// CPU time the system under test used in it.
    pub cpu_us: u64,
    pub traced: bool,
}

/// What one run measured, in the terms all six workloads share. Each
/// workload fills it in by its own definitions (`README.md` has them).
pub struct Measured {
    /// One entry per set-up; a run sets up several times.
    pub setup_s: Vec<f64>,
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    pub goodput_frac: f64,
    pub rtt_p50_us: Option<f64>,
    pub rss_bytes_per_req: f64,
}

/// The outcome of one run of one workload.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures, one line each; empty means correct.
    pub problems: Vec<String>,
    /// Doubts about the ruler rather than about the program's outputs.
    pub warnings: Vec<String>,
    pub input_digest: u64,
    /// Digest of the outcomes, for the workloads whose outcomes are a
    /// pure function of the seed.
    pub outcome_digest: Option<u64>,
    pub values: Values,
}

impl RunResult {
    /// An empty result for one run of `workload`.
    pub fn new(workload: &'static str, ctx: &crate::Ctx, input_digest: u64) -> RunResult {
        RunResult {
            workload,
            seed: ctx.seed,
            traced: ctx.traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            warnings: Vec::new(),
            input_digest,
            outcome_digest: None,
            values: Values::default(),
        }
    }

    /// Turns what a workload measured into the metrics every workload
    /// reports. Any failed request makes the run incorrect, and a traced
    /// run reports what tracing cost.
    pub fn record(&mut self, measured: Measured) {
        for setup_s in measured.setup_s {
            self.values.push("setup_s", setup_s);
        }
        for slice in &measured.slices {
            let rate = slice.requests as f64 / slice.wall_s;
            if slice.traced {
                self.values.push("throughput_traced", rate);
            } else {
                self.values.push("throughput_rps", rate);
                self.values.push(
                    "cpu_us_per_req",
                    slice.cpu_us as f64 / slice.requests.max(1) as f64,
                );
            }
        }
        self.values.push("goodput_frac", measured.goodput_frac);
        self.values.push("rtt_p50_us", measured.rtt_p50_us);
        self.values
            .push("rss_bytes_per_req", measured.rss_bytes_per_req);
        self.values.push(
            "fail_frac",
            measured.failed as f64 / measured.attempted.max(1) as f64,
        );
        self.attempted += measured.attempted;
        self.failed += measured.failed;
        if measured.failed > 0 {
            self.problems.push(format!(
                "{} of {} requests failed",
                measured.failed, measured.attempted
            ));
        }
        if let (Some(traced), Some(untraced)) = (
            self.values.median("throughput_traced"),
            self.values.median("throughput_rps"),
        ) {
            self.values
                .push("trace.overhead_frac", 1.0 - traced / untraced);
        }
        if !self.traced {
            for d in END_TO_END {
                if self.values.median(d.name).is_none() {
                    self.problems.push(format!("{} was not measured", d.name));
                }
            }
        }
    }

    /// Folds the outcome digest of one pass in: every pass of a
    /// deterministic workload must repeat the first one's.
    pub fn fold_digest(&mut self, digest: u64) {
        match self.outcome_digest {
            Some(first) if first != digest => self.problems.push(format!(
                "outcome digest {digest:016x} differs from the first pass's {first:016x}"
            )),
            _ => self.outcome_digest = Some(digest),
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// `(definition, median)` of every metric this run measured, in the
    /// tables' order.
    fn measured(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|d| Some((d, self.values.median(d.name)?)))
    }

    /// Every measured metric by name with its unit (and its quartiles
    /// where it has several samples), then digests and verdict.
    pub fn print_human(&self) {
        println!(
            "== {} seed={} {} attempted={} failed={}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for (d, value) in self.measured() {
            let spread = match self.values.quartiles(d.name) {
                Some((q1, q3)) => format!("  quartiles {q1:.4} .. {q3:.4}"),
                None => String::new(),
            };
            println!(
                "  {:<34} {:>16.4} {:<6} ({} is better){spread}",
                d.name, value, d.unit, d.better
            );
        }
        let outcome = match self.outcome_digest {
            Some(d) => format!("{d:016x}"),
            None => "-".into(),
        };
        println!(
            "  input digest {:016x}  outcome digest {outcome}",
            self.input_digest
        );
        for problem in &self.problems {
            println!("  INCORRECT: {problem}");
        }
        for warning in &self.warnings {
            println!("  WARNING: {warning}");
        }
    }

    fn json(&self, head: &str, metrics: impl Iterator<Item = (&'static MetricDef, f64)>) -> String {
        let mut out = format!(
            "{{{head}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (d, value)) in metrics.enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The driver's result object: the end-to-end table untraced, the
    /// per-layer table traced. The driver wants every per-layer name on
    /// every workload, so here, and only here, a layer the workload
    /// does not run reads 0.
    pub fn contract_json(&self) -> String {
        if self.traced {
            let all = PER_LAYER
                .iter()
                .map(|d| (d, self.values.median(d.name).unwrap_or(0.0)));
            self.json("", all)
        } else {
            let measured = END_TO_END
                .iter()
                .filter_map(|d| Some((d, self.values.median(d.name)?)));
            self.json("", measured)
        }
    }

    /// One element of the `--out` file `compare` reads: the run's
    /// identity, its warnings and every metric it measured.
    pub fn out_json(&self) -> String {
        let digest = match self.outcome_digest {
            Some(digest) => format!("\"{digest:016x}\""),
            None => "null".into(),
        };
        let head = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"warnings\": {}, \
             \"outcome_digest\": {digest}, ",
            self.workload,
            self.seed,
            self.traced,
            self.warnings.len()
        );
        self.json(&head, self.measured())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is what the driver reads; it has to list exactly
    /// the names this program prints.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for workload in crate::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{workload}\", \"why\":")));
        }
        assert_eq!(text.matches("\"why\":").count(), crate::WORKLOADS.len());
    }

    fn measured() -> Measured {
        Measured {
            setup_s: vec![0.75, 0.5, 1.5],
            slices: vec![
                Slice {
                    wall_s: 0.5,
                    requests: 50,
                    cpu_us: 625,
                    traced: false,
                },
                Slice {
                    wall_s: 0.5,
                    requests: 40,
                    cpu_us: 625,
                    traced: true,
                },
            ],
            attempted: 90,
            failed: 0,
            goodput_frac: 0.9,
            rtt_p50_us: Some(300.0),
            rss_bytes_per_req: 380.0,
        }
    }

    fn ctx(traced: bool) -> crate::Ctx {
        crate::Ctx {
            gateway_bin: "pard-gateway".into(),
            seed: 1,
            seconds: 1.0,
            traced,
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut run = RunResult::new("closed_tm_sim", &ctx(false), 0);
        run.record(measured());
        let line = run.contract_json();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 90, \"failed\": 0, \"metrics\": {"));
        // The median of the three set-ups.
        assert!(line.contains("\"setup_s\": {\"value\": 0.75, \"unit\": \"s\"}"));
        assert!(line.contains("\"throughput_rps\": {\"value\": 100, \"unit\": \"req/s\"}"));
        assert!(!line.contains("cpu_us_per_req"));
        assert_eq!(line.matches("\"value\":").count(), END_TO_END.len());
        // The file `compare` reads also has what only some workloads define.
        let out = run.out_json();
        assert!(out.starts_with(
            "{\"workload\": \"closed_tm_sim\", \"seed\": 1, \"traced\": false, \"warnings\": 0, \
             \"outcome_digest\": null, "
        ));
        assert!(out.contains("\"cpu_us_per_req\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert!(out.contains("\"fail_frac\": {\"value\": 0, "));
    }

    #[test]
    fn absent_metrics_are_left_out_or_make_the_run_incorrect() {
        let mut run = RunResult::new("des_fig08_slice", &ctx(false), 0);
        run.record(Measured {
            rtt_p50_us: None,
            ..measured()
        });
        assert_eq!(run.problems, ["rtt_p50_us was not measured"]);
        assert!(!run.contract_json().contains("rtt_p50_us"));

        // A traced run: the driver's line has every per-layer name, the
        // `--out` element only what was measured.
        let mut run = RunResult::new("des_fig08_slice", &ctx(true), 0);
        run.record(measured());
        let line = run.contract_json();
        assert_eq!(line.matches("\"value\":").count(), PER_LAYER.len());
        assert!(line.contains("\"server.threads\": {\"value\": 0, "));
        assert!(line.contains("\"trace.overhead_frac\": {\"value\": 0.19999999999999996, "));
        assert!(!run.out_json().contains("server.threads"));
        assert!(run.correct());
    }
}
