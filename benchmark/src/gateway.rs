//! The four workloads that drive a fresh `pard-gateway` child over
//! loopback: `replay_tm_burst`, `replay2_tm_burst`, `closed_tm_sim` and
//! `live_da_burst`.
//!
//! A run is one child and one timed window of about `--seconds`: a
//! sim-backed gateway keeps a few hundred bytes per request for ever and
//! slows down as it grows, so what a window measures depends on how long
//! it is, and a window as long as the run is what a later run can be
//! compared with. Only the set-up is repeated, on children that are
//! thrown away, so that `setup_s` is a median.

use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::child::{confine_to_one_cpu, sample_proc, Gateway, Metrics, ProcSample};
use crate::client::{
    closed_loop, connect, join_group, open_loop, slices, ClientLog, ClosedLoop, Meter, OpenLoop,
    Pacing, RequestTimes, SLICE_LEN,
};
use crate::gen::{schedule, schedule_digest, Arrival, Fnv, Phase, Rng};
use crate::report::{Measured, RunResult, Slice, Values};
use crate::spans::{Tracer, NO_PARENT};
use crate::stats::{median, quantile, quantile_sorted};
use crate::wireio::Code;
use crate::Ctx;

/// tm serves about 400 req/s with two workers per module: 40 s at 0.6×
/// capacity, then 20 s at 2×, repeated. A cycle is about 25 600 requests.
const TM_BURST: [Phase; 2] = [
    Phase {
        secs: 40.0,
        rate: 240.0,
    },
    Phase {
        secs: 20.0,
        rate: 800.0,
    },
];
const TM_CYCLE_S: f64 = 60.0;

/// Burst cycles replayed per second of `--seconds`, sized on this host so
/// that the timed window lasts about `--seconds`. The count ends a
/// replay, not the clock: one seed always replays the same requests, and
/// its outcomes are the same bit for bit.
const REPLAY_CYCLES_PER_S: f64 = 7.0;
const REPLAY2_CYCLES_PER_S: f64 = 4.5;

/// The schedule `replay2_tm_burst` replays over one connection and over
/// two before its window, to hold the two outcome vectors together.
const REFERENCE_CYCLES: usize = 2;

/// A flooding replay keeps as many requests pending as the dispatcher
/// thread is behind by; when the host stalls that thread, the default
/// table of 8 192 fills and the gateway answers `overloaded`, about once
/// in 200 half-second replays. The table is sized so that no request is
/// refused.
const REPLAY_GATEWAY: [&str; 8] = [
    "--app",
    "tm",
    "--backend",
    "sim",
    "--workers",
    "2",
    "--max-pending",
    "262144",
];

/// Virtual time left after a batch's last arrival for its tail to
/// resolve (the SLO is 0.4 s).
const TAIL_US: u64 = 5_000_000;

/// Closed loop: requests outstanding, and the untimed warm-up that is
/// part of every set-up. The client and the child run on one CPU (see
/// `closed_window`).
const CLOSED_DEPTH: usize = 32;
const CLOSED_WARM_UP: Duration = Duration::from_millis(500);

/// The live gateway runs 10× faster than its virtual clock, where da
/// serves about 410 req/s: 0.6×, 1.5×, 0.6× of that, per wall second,
/// a third of `--seconds` each. (At 25× the two cores are saturated
/// during the burst and the sender thread is scheduled milliseconds
/// late.)
const LIVE_SCALE: &str = "10";
const LIVE_CALM: f64 = 2_400.0;
const LIVE_BURST: f64 = 6_000.0;
const LIVE_WARM_UP_S: f64 = 0.3;

/// A wall-paced window whose sends ran later than this at the 99th
/// percentile measured the generator as much as the gateway: the run
/// says so in a warning. Latency counts from the due time, so lateness
/// is never hidden in it.
const LATE_LIMIT_US: f64 = 1_000.0;

/// Set-ups per run; the last one's child is the one measured.
const SETUPS: usize = 3;

/// Sets up `SETUPS` times, dropping (and so killing) all but the last
/// child, and returns what the last set-up made with every set-up's
/// seconds.
fn set_up<T>(mut once: impl FnMut() -> io::Result<T>) -> io::Result<(T, Vec<f64>)> {
    let mut seconds = Vec::new();
    loop {
        let started = Instant::now();
        let ready = once()?;
        seconds.push(started.elapsed().as_secs_f64());
        if seconds.len() == SETUPS {
            return Ok((ready, seconds));
        }
    }
}

/// What one child's timed window measured, in the terms all four
/// workloads share.
struct Window {
    input_digest: u64,
    setup_s: Vec<f64>,
    slices: Vec<Slice>,
    attempted: u64,
    answered: u64,
    ok: u64,
    failed: u64,
    /// Ascending latencies of completed requests, µs: the wall clock's
    /// on `closed_tm_sim` and `live_da_burst`, the engine clock's, as
    /// the reply reports it, on the replays.
    rtt_us: Vec<f64>,
    child: (ProcSample, ProcSample),
    own: (ProcSample, ProcSample),
    pages: (Metrics, Metrics),
    outcome_digest: Option<u64>,
    problems: Vec<String>,
    // Client-side detail for the per-layer list.
    /// Outcome per request of an open-loop window ([`Code`] as u8).
    codes: Vec<u8>,
    late_us: Vec<f64>,
    write_us: Vec<f64>,
    drop_rtt_us: Vec<f64>,
    /// Whether `rtt_us` is wall-clock time.
    wall_clock: bool,
    reads: u64,
    /// What the sampled requests' timestamps count from.
    origin: Instant,
    sampled: Vec<RequestTimes>,
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Counters a single-app gateway must agree with its client on, over
/// the child's whole life. `sent` and the per-code counts are the
/// client's.
fn check_algebra(
    page: &Metrics,
    sent: u64,
    by_code: impl Fn(Code) -> u64,
    problems: &mut Vec<String>,
) {
    let client_sum: u64 = [
        Code::Ok,
        Code::Violated,
        Code::DroppedEdge,
        Code::DroppedPipeline,
        Code::Error,
        Code::Unparseable,
        Code::Unanswered,
    ]
    .into_iter()
    .map(&by_code)
    .sum();
    let mut expect = |what: &str, client: u64, server: u64| {
        if client != server {
            problems.push(format!("{what}: client {client}, gateway {server}"));
        }
    };
    expect("sent = sum of outcomes", sent, client_sum);
    expect("received = sent", sent, page.counter("received"));
    expect(
        "admitted + rejected = received",
        page.counter("received"),
        page.counter("admitted") + page.counter("rejected"),
    );
    expect(
        "completed_ok = ok",
        by_code(Code::Ok),
        page.counter("completed_ok"),
    );
    expect(
        "completed_late = violated",
        by_code(Code::Violated),
        page.counter("completed_late"),
    );
    expect(
        "rejected = dropped at the edge",
        by_code(Code::DroppedEdge),
        page.counter("rejected"),
    );
    expect(
        "dropped = dropped in the pipeline",
        by_code(Code::DroppedPipeline),
        page.counter("dropped"),
    );
}

fn outcome_digest(log: &ClientLog) -> u64 {
    let mut fnv = Fnv::new();
    for (&code, &latency) in log.codes.iter().zip(&log.latency_us) {
        fnv.u64(code as u64);
        fnv.u64(latency as u64);
    }
    fnv.0
}

/// Whole burst cycles in a window of `seconds`, at least one.
fn cycles(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(1)
}

/// The replay workloads' warm-up (one burst cycle) and the `cycles` that
/// follow it, from one seeded stream.
pub fn replay_inputs(seed: u64, cycles: usize) -> (Vec<Arrival>, Vec<Arrival>) {
    let mut rng = Rng::new(seed);
    let mut part = |cycles: usize| {
        schedule(
            &TM_BURST,
            cycles as f64 * TM_CYCLE_S,
            400,
            10,
            250,
            &mut rng,
        )
    };
    (part(1), part(cycles))
}

/// A sim-backed child with its connections joined into one replay group
/// and the warm-up cycle replayed.
struct ReplayChild {
    gateway: Gateway,
    conns: Vec<TcpStream>,
    warm_log: ClientLog,
    /// Virtual time the warm-up ended at; the timed schedule counts
    /// from here.
    base_us: u64,
}

fn replay_child(ctx: &Ctx, parties: usize, warm: &[Arrival]) -> io::Result<ReplayChild> {
    let gateway = Gateway::spawn(&ctx.gateway_bin, &REPLAY_GATEWAY)?;
    let conns: Vec<TcpStream> = (0..parties)
        .map(|_| connect(gateway.addr))
        .collect::<io::Result<_>>()?;
    join_group(&conns)?;
    let base_us = warm[warm.len() - 1].at_us + TAIL_US;
    let warm_log = open_loop(
        &conns,
        &OpenLoop {
            app: "tm",
            schedule: warm,
            first_seq: 0,
            pacing: Pacing::Virtual {
                base_us: 0,
                flush_us: base_us,
            },
            slice_len: 0,
            meter: &|| 0,
            sample: false,
        },
        None,
    )?;
    Ok(ReplayChild {
        gateway,
        conns,
        warm_log,
        base_us,
    })
}

impl ReplayChild {
    /// Replays `timed` after the warm-up, in slices.
    fn replay(&self, timed: &[Arrival], sample: bool) -> io::Result<ClientLog> {
        open_loop(
            &self.conns,
            &OpenLoop {
                app: "tm",
                schedule: timed,
                first_seq: self.warm_log.codes.len() as u64,
                pacing: Pacing::Virtual {
                    base_us: self.base_us,
                    flush_us: self.base_us + timed[timed.len() - 1].at_us + TAIL_US,
                },
                slice_len: SLICE_LEN,
                meter: &|| self.gateway.cpu_us(),
                sample,
            },
            None,
        )
    }
}

/// One virtual-paced replay of `cycles` of the tm burst schedule over
/// `parties` connections.
fn replay_window(ctx: &Ctx, parties: usize, cycles: usize) -> io::Result<Window> {
    let ((child, timed), setup_s) = set_up(|| {
        let (warm, timed) = replay_inputs(ctx.seed, cycles);
        Ok((replay_child(ctx, parties, &warm)?, timed))
    })?;
    let gateway = &child.gateway;
    let before = (gateway.sample()?, sample_proc("self")?, gateway.scrape()?);
    let log = child.replay(&timed, ctx.traced)?;
    let after = (gateway.sample()?, sample_proc("self")?, gateway.scrape()?);

    let warm_log = &child.warm_log;
    let mut problems = Vec::new();
    check_algebra(
        &after.2,
        (warm_log.codes.len() + timed.len()) as u64,
        |code| warm_log.count(code) + log.count(code),
        &mut problems,
    );
    let completed = log
        .codes
        .iter()
        .zip(&log.latency_us)
        .filter(|(&c, _)| c == Code::Ok as u8 || c == Code::Violated as u8)
        .map(|(_, &l)| l as f64);
    Ok(Window {
        input_digest: schedule_digest(&timed),
        setup_s,
        slices: slices(&log.marks, ctx.traced),
        attempted: timed.len() as u64,
        answered: log.answered(),
        ok: log.count(Code::Ok),
        failed: log.failed() + warm_log.failed(),
        rtt_us: sorted(completed.collect()),
        child: (before.0, after.0),
        own: (before.1, after.1),
        pages: (before.2, after.2),
        outcome_digest: Some(outcome_digest(&log)),
        problems,
        codes: log.codes,
        late_us: Vec::new(),
        write_us: log.write_us,
        drop_rtt_us: Vec::new(),
        wall_clock: false,
        reads: log.reads,
        origin: log.origin,
        sampled: log.sampled,
    })
}

pub fn closed_mix(seed: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    (1..=65_536usize)
        .map(|i| Arrival {
            at_us: 0,
            // Every 20th request cannot be served: the edge must shed it.
            slo_ms: if i % 20 == 0 { 1 } else { 400 },
            payload_len: rng.range(64, 512) as u32,
        })
        .collect()
}

fn closed_window(ctx: &Ctx) -> io::Result<Window> {
    fn plan<'a>(
        mix: &'a [Arrival],
        warm_up: Duration,
        window: Duration,
        meter: Meter<'a>,
        sample: bool,
    ) -> ClosedLoop<'a> {
        ClosedLoop {
            app: "tm",
            mix,
            depth: CLOSED_DEPTH,
            warm_up,
            window,
            meter,
            sample,
        }
    }
    // A request of this loop crosses threads six times, and each time a
    // thread wakes one that sleeps on the other CPU the guest pays the
    // hypervisor for leaving idle: 16 us a wake on the hosts this runs
    // on (3 us on one CPU), more when the host is busy. Left to the
    // scheduler the window measures mostly that (the child uses 14-17
    // CPU-us a request, 5 on one CPU) and runs of one commit fall into
    // two groups a quarter apart. On one CPU they spread by 7%.
    let _one_cpu = confine_to_one_cpu()?;
    let ((gateway, conn, mix, warm_log), setup_s) = set_up(|| {
        let mix = closed_mix(ctx.seed);
        let gateway = Gateway::spawn(
            &ctx.gateway_bin,
            &["--app", "tm", "--backend", "sim", "--workers", "2"],
        )?;
        let conn = connect(gateway.addr)?;
        let warm_log = closed_loop(
            &conn,
            &plan(&mix, CLOSED_WARM_UP, Duration::ZERO, &|| 0, false),
            || {},
        )?;
        Ok((gateway, conn, mix, warm_log))
    })?;
    let mut marks: Vec<(ProcSample, ProcSample, Metrics)> = Vec::new();
    let mut mark_error = None;
    let window = Duration::from_secs_f64(ctx.seconds);
    let log = closed_loop(
        &conn,
        &plan(
            &mix,
            Duration::ZERO,
            window,
            &|| gateway.cpu_us(),
            ctx.traced,
        ),
        || match (gateway.sample(), sample_proc("self"), gateway.scrape()) {
            (Ok(child), Ok(own), Ok(page)) => marks.push((child, own, page)),
            (a, b, c) => mark_error = a.err().or(b.err()).or(c.err()),
        },
    )?;
    if let Some(e) = mark_error {
        return Err(e);
    }
    let [before, after] = <[_; 2]>::try_from(marks)
        .map_err(|_| io::Error::other("closed loop ended before its window"))?;

    let mut problems = Vec::new();
    check_algebra(
        &gateway.scrape()?,
        warm_log.total.sent + log.total.sent,
        |code| match code {
            Code::Unanswered => warm_log.unanswered + log.unanswered,
            code => warm_log.total.count(code) + log.total.count(code),
        },
        &mut problems,
    );
    let counted = &log.window;
    Ok(Window {
        input_digest: schedule_digest(&mix),
        setup_s,
        slices: slices(&log.marks, ctx.traced),
        attempted: counted.answered(),
        answered: counted.answered(),
        ok: counted.count(Code::Ok),
        failed: counted.count(Code::Error)
            + counted.count(Code::Unparseable)
            + log.unanswered
            + log.stray
            + warm_log.unanswered
            + warm_log.stray,
        rtt_us: sorted(log.rtt_us),
        child: (before.0, after.0),
        own: (before.1, after.1),
        pages: (before.2, after.2),
        outcome_digest: None,
        problems,
        codes: Vec::new(),
        late_us: Vec::new(),
        write_us: log.write_us,
        drop_rtt_us: log.drop_rtt_us,
        wall_clock: true,
        reads: log.reads,
        origin: log.origin,
        sampled: log.sampled,
    })
}

/// The live workload's warm-up and its calm, burst, calm schedule over
/// `seconds` of wall time.
pub fn live_inputs(seed: u64, seconds: f64) -> (Vec<Arrival>, Vec<Arrival>) {
    let mut rng = Rng::new(seed);
    let calm = |secs| Phase {
        secs,
        rate: LIVE_CALM,
    };
    let warm = schedule(&[calm(LIVE_WARM_UP_S)], LIVE_WARM_UP_S, 400, 0, 0, &mut rng);
    let phase_s = seconds / 3.0;
    let profile = [
        calm(phase_s),
        Phase {
            secs: phase_s,
            rate: LIVE_BURST,
        },
        calm(phase_s),
    ];
    let timed = schedule(&profile, seconds, 400, 0, 0, &mut rng);
    (warm, timed)
}

/// Queue depths and the pending gauge, sampled from `/metrics` while a
/// traced live window runs.
#[derive(Default)]
struct LiveSamples {
    depth: [Vec<f64>; 4],
    pending: Vec<f64>,
}

fn live_window(ctx: &Ctx, samples: &mut LiveSamples) -> io::Result<Window> {
    fn open(schedule: &[Arrival], first_seq: u64, sample: bool) -> OpenLoop<'_> {
        OpenLoop {
            app: "da",
            schedule,
            first_seq,
            pacing: Pacing::Wall,
            slice_len: 0,
            meter: &|| 0,
            sample,
        }
    }
    let ((gateway, conns, warm_log, timed), setup_s) = set_up(|| {
        let (warm, timed) = live_inputs(ctx.seed, ctx.seconds);
        let gateway = Gateway::spawn(
            &ctx.gateway_bin,
            &[
                "--app",
                "da",
                "--backend",
                "live",
                "--scale",
                LIVE_SCALE,
                "--workers",
                "2",
            ],
        )?;
        let conns = [connect(gateway.addr)?];
        let warm_log = open_loop(&conns, &open(&warm, 0, false), None)?;
        Ok((gateway, conns, warm_log, timed))
    })?;

    let before = (gateway.sample()?, sample_proc("self")?, gateway.scrape()?);
    let metrics_addr = gateway.metrics_addr;
    let mut tick = |_: Instant| {
        if let Ok(page) = crate::child::scrape(metrics_addr) {
            for (m, depth) in samples.depth.iter_mut().enumerate() {
                depth.push(page.get(&format!("pard_gateway_queue_depth{{module=\"{m}\"}}")));
            }
            samples
                .pending
                .push(page.get("pard_gateway_pending_requests"));
        }
    };
    let log = open_loop(
        &conns,
        &open(&timed, warm_log.codes.len() as u64, ctx.traced),
        ctx.traced.then_some((
            &mut tick as &mut dyn FnMut(Instant),
            Duration::from_millis(100),
        )),
    )?;
    let after = (gateway.sample()?, sample_proc("self")?, gateway.scrape()?);

    let mut problems = Vec::new();
    check_algebra(
        &after.2,
        (warm_log.codes.len() + timed.len()) as u64,
        |code| warm_log.count(code) + log.count(code),
        &mut problems,
    );
    Ok(Window {
        input_digest: schedule_digest(&timed),
        setup_s,
        // The schedule paces this window, so it is one slice.
        slices: vec![Slice {
            wall_s: log.wall.as_secs_f64(),
            requests: log.answered(),
            cpu_us: after.0.cpu_us() - before.0.cpu_us(),
            traced: ctx.traced,
        }],
        attempted: timed.len() as u64,
        answered: log.answered(),
        ok: log.count(Code::Ok),
        failed: log.failed() + warm_log.failed(),
        rtt_us: sorted(log.rtt_us),
        child: (before.0, after.0),
        own: (before.1, after.1),
        pages: (before.2, after.2),
        outcome_digest: None,
        problems,
        codes: log.codes,
        late_us: log.late_us,
        write_us: log.write_us,
        drop_rtt_us: log.drop_rtt_us,
        wall_clock: true,
        reads: log.reads,
        origin: log.origin,
        sampled: log.sampled,
    })
}

/// Goodput of the requests due in each third of the live schedule.
fn live_phase_goodput(timed_s: f64, due_us: impl Iterator<Item = u64>, codes: &[u8]) -> [f64; 3] {
    let mut ok = [0u64; 3];
    let mut all = [0u64; 3];
    for (at_us, &code) in due_us.zip(codes) {
        let phase = ((at_us as f64 / 1e6 / (timed_s / 3.0)) as usize).min(2);
        all[phase] += 1;
        ok[phase] += (code == Code::Ok as u8) as u64;
    }
    [0, 1, 2].map(|p| ok[p] as f64 / all[p].max(1) as f64)
}

/// Turns one child's window into the run's result: the metrics every
/// workload reports, the per-layer detail of a traced run, and the
/// request spans.
fn report(ctx: &Ctx, tracer: &mut Tracer, workload: &'static str, window: &Window) -> RunResult {
    let mut run = RunResult::new(workload, ctx, window.input_digest);
    run.problems.extend(window.problems.iter().cloned());
    run.outcome_digest = window.outcome_digest;
    let answered = window.answered.max(1) as f64;
    let child_cpu = (window.child.1.cpu_us() - window.child.0.cpu_us()) as f64;
    let hwm_growth = window
        .child
        .1
        .hwm_bytes
        .saturating_sub(window.child.0.hwm_bytes);
    run.record(Measured {
        setup_s: window.setup_s.clone(),
        slices: window.slices.clone(),
        attempted: window.attempted,
        failed: window.failed,
        goodput_frac: window.ok as f64 / window.attempted.max(1) as f64,
        rtt_p50_us: quantile_sorted(&window.rtt_us, 0.50),
        rss_bytes_per_req: hwm_growth as f64 / answered,
    });
    if window.wall_clock {
        run.values
            .push("rtt_p99_us", quantile_sorted(&window.rtt_us, 0.99));
    }
    if let Some(late_p99) = quantile(&mut window.late_us.clone(), 0.99) {
        if late_p99 > LATE_LIMIT_US {
            run.warnings.push(format!(
                "the generator sent {late_p99:.0} us late at the 99th percentile"
            ));
        }
    }
    if ctx.traced {
        record_layers(&mut run.values, window, child_cpu);
        push_request_spans(tracer, window.origin, &window.sampled);
    }
    run
}

fn record_layers(values: &mut Values, window: &Window, child_cpu: f64) {
    let answered = window.answered.max(1) as f64;
    let own_cpu = (window.own.1.cpu_us() - window.own.0.cpu_us()) as f64;
    values.push("gen.cpu_share", own_cpu / (own_cpu + child_cpu).max(1.0));
    let late = sorted(window.late_us.clone());
    values.push("gen.late_p50_us", quantile_sorted(&late, 0.50));
    values.push("gen.late_p99_us", quantile_sorted(&late, 0.99));
    values.push("client.write_us_p50", median(&mut window.write_us.clone()));
    let mut waits: Vec<f64> = window
        .sampled
        .iter()
        .map(|s| s.read_return.saturating_sub(s.write_end) as f64 / 1e3)
        .collect();
    values.push("client.wait_us_p50", median(&mut waits));
    values.push(
        "client.drop_rtt_p50_us",
        median(&mut window.drop_rtt_us.clone()),
    );
    values.push(
        "client.replies_per_read",
        window.answered as f64 / window.reads.max(1) as f64,
    );

    let (before, after) = &window.child;
    values.push("server.cpu_us_per_req", child_cpu / answered);
    values.push(
        "server.ctx_switches_per_req",
        (after.ctx_switches - before.ctx_switches) as f64 / answered,
    );
    values.push(
        "server.sys_share",
        (after.stime_us - before.stime_us) as f64 / child_cpu.max(1.0),
    );
    values.push("server.threads", after.threads as f64);
    let delta =
        |family: &str| (window.pages.1.counter(family) - window.pages.0.counter(family)) as f64;
    values.push("server.received", delta("received"));
    values.push("server.admitted", delta("admitted"));
    values.push("server.edge_rejected", delta("rejected"));
    values.push("server.completed_ok", delta("completed_ok"));
    values.push("server.completed_late", delta("completed_late"));
    values.push("server.protocol_errors", delta("protocol_errors"));
    values.push(
        "server.edge_reject_share",
        delta("rejected") / (delta("rejected") + delta("dropped")).max(1.0),
    );
    const MODULES: [&str; 4] = [
        "server.pipeline_dropped.m0",
        "server.pipeline_dropped.m1",
        "server.pipeline_dropped.m2",
        "server.pipeline_dropped.m3",
    ];
    for (m, name) in MODULES.into_iter().enumerate() {
        let prefix = format!("pard_gateway_module_dropped_total{{module=\"{m}\",");
        // A module the pipeline does not have has no series.
        if window.pages.1 .0.keys().any(|k| k.starts_with(&prefix)) {
            values.push(
                name,
                window.pages.1.sum(&prefix, "") - window.pages.0.sum(&prefix, ""),
            );
        }
    }
}

/// Writes the request spans of a traced window: a root per sampled
/// request with its write, wait and parse as children.
fn push_request_spans(tracer: &mut Tracer, origin: Instant, sampled: &[RequestTimes]) {
    let base = tracer.ns_at(origin);
    for s in sampled {
        let root = tracer.push(
            "client.request",
            base + s.write_start,
            base + s.parsed,
            NO_PARENT,
            s.seq,
        );
        tracer.push(
            "client.write",
            base + s.write_start,
            base + s.write_end,
            root,
            s.seq,
        );
        tracer.push(
            "client.wait",
            base + s.write_end,
            base + s.read_return,
            root,
            s.seq,
        );
        tracer.push(
            "client.parse",
            base + s.read_return,
            base + s.parsed,
            root,
            s.seq,
        );
    }
}

pub fn replay_tm_burst(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<RunResult> {
    let window = replay_window(ctx, 1, cycles(ctx.seconds, REPLAY_CYCLES_PER_S))?;
    Ok(report(ctx, tracer, "replay_tm_burst", &window))
}

pub fn replay2_tm_burst(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<RunResult> {
    // A short schedule over one connection is the reference: its outcome
    // vector is what a replay group of two must reproduce, and the two
    // rates are `server.replay2_over_replay1`.
    let (warm, reference) = replay_inputs(ctx.seed, REFERENCE_CYCLES);
    let [alone, grouped] = [1, 2].map(|parties| {
        let child = replay_child(ctx, parties, &warm)?;
        let log = child.replay(&reference, false)?;
        let rate = log.answered() as f64 / log.wall.as_secs_f64();
        io::Result::Ok((log.failed(), outcome_digest(&log), rate))
    });
    let (alone, grouped) = (alone?, grouped?);

    let window = replay_window(ctx, 2, cycles(ctx.seconds, REPLAY2_CYCLES_PER_S))?;
    let mut run = report(ctx, tracer, "replay2_tm_burst", &window);
    if alone.0 + grouped.0 > 0 {
        run.problems.push(format!(
            "{} requests of the reference replays failed",
            alone.0 + grouped.0
        ));
    }
    if alone.1 != grouped.1 {
        run.problems
            .push("outcomes over two connections differ from the single-connection replay".into());
    }
    if ctx.traced {
        run.values
            .push("server.replay2_over_replay1", grouped.2 / alone.2);
    }
    Ok(run)
}

pub fn closed_tm_sim(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<RunResult> {
    let window = closed_window(ctx)?;
    Ok(report(ctx, tracer, "closed_tm_sim", &window))
}

pub fn live_da_burst(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<RunResult> {
    let mut samples = LiveSamples::default();
    let window = live_window(ctx, &mut samples)?;
    let mut run = report(ctx, tracer, "live_da_burst", &window);
    let (codes, pages) = (&window.codes, &window.pages);
    if !ctx.traced {
        return Ok(run);
    }
    const PHASES: [&str; 3] = [
        "runtime.goodput_frac.calm1",
        "runtime.goodput_frac.burst",
        "runtime.goodput_frac.calm2",
    ];
    let due_us = live_inputs(ctx.seed, ctx.seconds)
        .1
        .into_iter()
        .map(|a| a.at_us);
    for (name, goodput) in PHASES
        .into_iter()
        .zip(live_phase_goodput(ctx.seconds, due_us, codes))
    {
        run.values.push(name, goodput);
    }
    const REASONS: [(&str, &str); 7] = [
        ("runtime.dropped.expired", "expired"),
        ("runtime.dropped.predicted", "predicted"),
        ("runtime.dropped.budget", "budget"),
        ("runtime.dropped.late", "late"),
        ("runtime.dropped.throttled", "throttled"),
        ("runtime.dropped.sibling", "sibling"),
        ("runtime.dropped.worker-failed", "worker-failed"),
    ];
    for (name, reason) in REASONS {
        let suffix = format!("reason=\"{reason}\"}}");
        let family = "pard_gateway_module_dropped_total";
        run.values.push(
            name,
            pages.1.sum(family, &suffix) - pages.0.sum(family, &suffix),
        );
    }
    const DEPTHS: [(&str, &str); 4] = [
        ("runtime.queue_depth_mean.m0", "runtime.queue_depth_max.m0"),
        ("runtime.queue_depth_mean.m1", "runtime.queue_depth_max.m1"),
        ("runtime.queue_depth_mean.m2", "runtime.queue_depth_max.m2"),
        ("runtime.queue_depth_mean.m3", "runtime.queue_depth_max.m3"),
    ];
    for ((mean, max), depth) in DEPTHS.into_iter().zip(&samples.depth) {
        if !depth.is_empty() {
            run.values
                .push(mean, depth.iter().sum::<f64>() / depth.len() as f64);
            run.values
                .push(max, depth.iter().copied().fold(0.0, f64::max));
        }
    }
    if !samples.pending.is_empty() {
        run.values.push(
            "runtime.pending_max",
            samples.pending.iter().copied().fold(0.0, f64::max),
        );
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(counters: &[(&str, f64)]) -> Metrics {
        Metrics(
            counters
                .iter()
                .map(|(family, value)| (format!("pard_gateway_{family}_total"), *value))
                .collect(),
        )
    }

    #[test]
    fn closed_algebra_passes_and_each_broken_identity_is_named() {
        let client = |code| match code {
            Code::Ok => 70,
            Code::Violated => 5,
            Code::DroppedEdge => 15,
            Code::DroppedPipeline => 10,
            _ => 0,
        };
        let agreed = page(&[
            ("received", 100.0),
            ("admitted", 85.0),
            ("rejected", 15.0),
            ("completed_ok", 70.0),
            ("completed_late", 5.0),
            ("dropped", 10.0),
        ]);
        let mut problems = Vec::new();
        check_algebra(&agreed, 100, client, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");

        // A refused request: received but neither admitted nor rejected,
        // and one the client never saw an outcome for.
        let refused = page(&[
            ("received", 100.0),
            ("admitted", 84.0),
            ("rejected", 15.0),
            ("completed_ok", 69.0),
            ("completed_late", 5.0),
            ("dropped", 10.0),
        ]);
        check_algebra(&refused, 100, client, &mut problems);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("admitted + rejected = received"));
        assert!(problems[1].starts_with("completed_ok = ok"));
    }

    #[test]
    fn live_goodput_is_split_by_the_phase_a_request_was_due_in() {
        let due_s = [0.1, 0.5, 0.7, 1.1, 1.3, 1.79];
        let ok = Code::Ok as u8;
        let shed = Code::DroppedEdge as u8;
        let goodput = live_phase_goodput(
            1.8,
            due_s.into_iter().map(|s| (s * 1e6) as u64),
            &[ok, ok, ok, shed, ok, shed],
        );
        assert_eq!(goodput, [1.0, 0.5, 0.5]);
    }

    #[test]
    fn a_window_is_whole_burst_cycles() {
        assert_eq!(cycles(15.0, 5.0), 75);
        assert_eq!(cycles(0.05, 3.0), 1);
        let (warm, timed) = replay_inputs(7, 2);
        assert!(warm.last().unwrap().at_us < 60_000_000);
        assert!(timed.last().unwrap().at_us > 119_000_000);
        // About 25 600 requests per cycle.
        assert!((45_000..57_000).contains(&timed.len()), "{}", timed.len());
    }
}
