//! The TCP serving front-end.
//!
//! One process serves *many* apps: each wire request routes by its
//! `app` field to a registered [`pard_engine_api::EngineHandle`] (the
//! live threaded runtime or the deterministic simulator), and every
//! app shares one connection fabric, one pending table (with per-tenant
//! weighted-fair quotas), and one observability listener. The PARD
//! admission check runs at accept time — a hopeless request is
//! answered `dropped` without ever touching a worker queue. Requests
//! carrying a scheduled arrival (`at_us`, deterministic trace replay)
//! first steer a stepped engine's virtual clock to that instant and
//! are admitted against a snapshot taken there, making replayed
//! scenarios bit-reproducible end to end — including replays split
//! across many connections, which coordinate through `replay_join`
//! watermarks (see [`crate::wire::ClientLine::Join`]).
//!
//! # The event loop
//!
//! Connection I/O is readiness-based, not thread-per-connection: a
//! small fixed pool of shard threads each runs a level-triggered
//! [`crate::netpoll::Poller`] over its slice of nonblocking sockets,
//! so one process holds tens of thousands of connections without tens
//! of thousands of stacks. Cross-thread work (new connections from the
//! acceptor, replies routed by another thread) arrives on a per-shard
//! inbox whose self-pipe waker interrupts a sleeping poll; a
//! `sleeping` flag keeps the wake syscall off the path while the shard
//! is busy. Each shard serves a connection at most once per tick, a
//! bounded number of lines, and stops reading one that holds a read
//! budget of unserved lines, so one pipelining flood cannot starve the
//! polite connections sharing its shard or grow its buffer without
//! bound.
//!
//! # Who answers a completion
//!
//! Engines report terminal states on a channel
//! ([`EngineHandle::set_completion_sink`]); one function,
//! `route_completions`, turns each into a reply (pending-table lookup,
//! classification, the connection's reply sink). Who calls it depends
//! on the engine kind, decided once when the threads start:
//!
//! * A **stepped** engine (the simulator) sends only from inside a
//!   driving call, on the caller's thread. So the driver empties the
//!   channel itself, right after the call: a shard thread after a
//!   request's admission and submit, after an `advance_us` line and
//!   after a replay-group drain; the app's pump thread after `pump()`;
//!   the shutdown drain after its pumps; the watchdog before it flushes
//!   a dead app. There is no dispatcher thread to wake, so a replayed
//!   request costs no thread hop at all.
//! * A **live** engine completes work on its own threads at times of
//!   its own, so one dispatcher thread per live app blocks on the
//!   channel and calls the same function. Live apps have no pump
//!   thread: nothing drives them.
//!
//! # The hot path
//!
//! * **Admission is one call, and lock-free.** Each app's
//!   [`EdgeAdmitter`] owns the whole admission sequence; this module
//!   keeps only the transport around it (pending reservation, pump
//!   wake, reply sink). The poller publishes an immutable
//!   [`crate::admission::EdgeSnapshot`] (with the critical-path
//!   admission arithmetic precomputed) through an epoch counter; each
//!   shard thread revalidates its cached `Arc` with a single atomic
//!   load and decides with pure arithmetic — no lock, no clone, no
//!   allocation (see [`crate::admission::EdgePublisher`]).
//! * **The pending table is sharded and tenant-fair.** Submits and
//!   completions on different requests land on different
//!   [`crate::pending::PendingMap`] shards; capacity is one atomic
//!   reservation, the submit/complete race is closed by orphan parking,
//!   and under overload each app keeps a guaranteed share of the table
//!   (see [`PendingMap::with_tenants`]).
//! * **Per-tenant rate limits run at the edge.** An app configured
//!   with a [`RateLimit`] refuses excess requests with a
//!   `rate_limited` envelope before the admission math runs — the
//!   token bucket refills on the engine's own clock, so limits are
//!   deterministic under simulated time.
//! * **Submits wake the pump.** Stepped engines are driven the moment
//!   work arrives instead of on the pump thread's next idle tick,
//!   which is what bounds closed-loop RTT on the sim backend.
//!
//! Threads, all named: `pard-shard-<i>`, one `pard-pump-<app>` per
//! stepped app, one `pard-dispatch-<app>` per live app, `pard-poller`
//! (snapshot refresh and pump watchdog), `pard-accept`, `pard-frames`
//! (telemetry sampler) and `pard-metrics` (the HTTP listener).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use pard_engine_api::{Completion, EngineHandle};
use pard_metrics::{ModuleDropCounters, Outcome, ServedTotals, ServingCounters};
use pard_obs::{FlightRecorder, FrameBus};
use pard_sim::{SimDuration, SimTime, TokenBucket};

use crate::adaptive::AdaptiveConfig;
use crate::admission::{Admission, EdgeAdmitter, SnapshotReader};
use crate::netpoll::{Poller, Waker, READABLE, WRITABLE};
use crate::pending::PendingMap;
use crate::telemetry::{RttWindow, DEFAULT_RTT_SAMPLES};
use crate::wire::{seq_hint, ClientLine, ErrorCode, Request, Response};

mod http;
mod replay;

pub use http::render_metrics_text;
use http::{build_frame, metrics_loop};
use replay::{replay_drain_ready, ParkedAction, ReplayCoordinator};

/// Hard cap on one request line; a connection exceeding it gets an
/// error response and is closed, bounding per-connection memory against
/// newline-free byte streams.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Pending-table keys namespace the engine-assigned id by app index so
/// two engines assigning the same dense ids cannot collide in the
/// shared table. App 0's keys equal its raw ids (the single-app case
/// is bit-identical to the pre-multi-tenant gateway), and the shift
/// clears both the engine-id range and
/// [`EDGE_ID_BASE`](crate::admission::EDGE_ID_BASE).
const TENANT_SHIFT: u32 = 54;

#[inline]
fn pending_key(app: usize, id: u64) -> u64 {
    ((app as u64) << TENANT_SHIFT) | id
}

/// Reserved poller token for a shard's inbox waker.
const WAKER_TOKEN: u64 = u64::MAX;

/// Upper bound on protocol lines served per connection per shard tick;
/// connections with more buffered lines go to the shard's backlog so a
/// pipelining flood cannot starve its shard-mates.
const LINES_PER_TICK: usize = 64;

/// Upper bound on bytes read from one connection per shard tick
/// (level-triggered readiness re-fires for the rest).
const READ_BUDGET: usize = 256 * 1024;

/// Idle poll tick; bounds how stale shutdown/discard-deadline checks
/// can get when no I/O is flowing.
const TICK_MS: i32 = 100;

/// Gateway configuration (networking only — engine construction lives
/// in [`pard_engine_api::EngineBuilder`]).
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Listen address for the request protocol (`port 0` = ephemeral).
    pub addr: String,
    /// Listen address for the `/metrics` endpoint.
    pub metrics_addr: String,
    /// How often the admission snapshot refreshes (wall clock).
    pub edge_refresh: Duration,
    /// Cap on simultaneously admitted-but-unresolved requests; above
    /// it new requests are answered with [`ErrorCode::Overloaded`].
    /// With multiple apps, half the table is guaranteed to tenants in
    /// proportion to their weights and the rest is shared headroom.
    pub max_pending: usize,
    /// Whether the deterministic-replay controls (`at_us` arrival
    /// stamps, `advance_us` / `replay_join` control lines) are
    /// honoured. Replay steers the *shared* virtual clock, so it is a
    /// cooperative testing discipline: any client could fast-forward
    /// time past every other connection's deadlines. Disable on
    /// gateways serving mutually untrusting clients; such requests are
    /// then answered with a `malformed` envelope.
    pub allow_replay: bool,
    /// How often the telemetry sampler publishes a
    /// [`pard_obs::EngineFrame`] (the `/events` stream's cadence, wall
    /// clock).
    pub telemetry_period: Duration,
    /// Event-loop shard threads sharing the connection population.
    pub shards: usize,
    /// Online re-planning and brownout control (see [`crate::adaptive`]).
    /// `None` (the default) keeps the floor on the static profile —
    /// byte-identical to the pre-adaptive gateway.
    pub adaptive: Option<AdaptiveConfig>,
    /// Deterministic connection-chaos injection for robustness tests;
    /// `None` disables every fault.
    pub chaos: Option<ChaosConfig>,
    /// Engine-pump watchdog: a pump call exceeding this wall-clock
    /// budget marks its app unhealthy (in-flight requests are answered
    /// `shutting_down`, new ones refused). Pump *panics* always trip
    /// the watchdog regardless of this setting. `None` disables the
    /// stall check only.
    pub pump_stall: Option<Duration>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:7311".into(),
            metrics_addr: "127.0.0.1:7312".into(),
            edge_refresh: Duration::from_millis(10),
            max_pending: 8192,
            allow_replay: true,
            telemetry_period: Duration::from_millis(100),
            shards: 4,
            adaptive: None,
            chaos: None,
            pump_stall: None,
        }
    }
}

/// Deterministic connection-fault injection, counter-based (no RNG) so
/// a replayed scenario hits the same faults at the same protocol
/// positions every run. All faults are at the socket layer; the
/// admission and engine state machines above them are untouched, which
/// is exactly what the robustness tests pin down.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Cap on bytes written per flush call — forces partial writes and
    /// cross-tick `WANT_WRITE` resumes.
    pub max_write_chunk: Option<usize>,
    /// Skip every Nth read tick per connection (a read stall: the
    /// level-triggered poller re-delivers the readiness, so the bytes
    /// arrive one tick late).
    pub read_stall_every: Option<u64>,
    /// After every Nth served protocol line per connection, fail the
    /// connection's writes (a mid-request reset: the reply is computed
    /// but never delivered; the sweep closes the socket).
    pub reset_every: Option<u64>,
}

/// Per-app edge rate limit: a token bucket refilled on the app
/// engine's clock (virtual on the simulator — deterministic limits
/// under replay; wall-backed on live engines).
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Sustained admission rate, requests per (engine) second.
    pub rate_per_sec: f64,
    /// Burst allowance, requests.
    pub burst: f64,
}

/// One app served by the gateway: its engine plus edge policy.
pub struct AppConfig {
    /// The engine behind this app; its `spec().name` is the wire
    /// `app` field that routes to it.
    pub engine: Box<dyn EngineHandle>,
    /// Optional per-tenant edge rate limit.
    pub rate_limit: Option<RateLimit>,
    /// Weighted-fair share of the pending table under overload
    /// (relative to the other apps' weights; min 1).
    pub weight: usize,
}

impl AppConfig {
    /// An app with no rate limit and weight 1.
    pub fn new(engine: Box<dyn EngineHandle>) -> AppConfig {
        AppConfig {
            engine,
            rate_limit: None,
            weight: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-thread plumbing: shard inboxes and reply sinks
// ---------------------------------------------------------------------------

/// One unit of cross-thread work for a shard: a freshly accepted
/// connection, or bytes to queue on one of its connections.
enum ShardMsg {
    /// Hand over a new connection (from the accept thread).
    Conn(TcpStream),
    /// A typed outcome reply for connection `token`; `settles` marks a
    /// reply that retires one owed response (see [`ReplySink`]).
    Reply {
        token: u64,
        response: Response,
        settles: bool,
    },
    /// An already-encoded line (error envelopes — the cold path).
    Line {
        token: u64,
        line: String,
        settles: bool,
    },
}

/// A shard's mailbox: senders push under a short lock and wake the
/// shard's poller only when it declared itself asleep, so the wake
/// syscall stays off the path while the shard is busy. The shard sets
/// `sleeping` *before* its final emptiness check, which closes the
/// lost-wakeup race (a push between check and sleep sees the flag).
struct ShardInbox {
    queue: Mutex<Vec<ShardMsg>>,
    waker: Waker,
    sleeping: AtomicBool,
}

impl ShardInbox {
    fn new() -> io::Result<ShardInbox> {
        Ok(ShardInbox {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            sleeping: AtomicBool::new(false),
        })
    }

    fn push(&self, msg: ShardMsg) {
        self.queue.lock().push(msg);
        if self.sleeping.load(Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    /// Moves all queued messages into `into` (appended).
    fn take(&self, into: &mut Vec<ShardMsg>) {
        let mut queue = self.queue.lock();
        into.append(&mut queue);
    }

    fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }
}

/// Where replies for one connection go: its shard's inbox, addressed
/// by connection token. Cloneable and thread-safe, because whoever
/// routes a completion replies through it ([`route_completions`]): for
/// a stepped engine the thread that just drove it — any shard, the
/// pump, the shutdown drain — and for a live engine its dispatcher
/// thread. A shard replying to one of its own connections pushes into
/// its own inbox, which it is awake to apply within the same tick.
///
/// `outstanding` counts responses the connection is still owed (filed
/// pending entries plus parked replay requests); a connection whose
/// peer half-closed stays open until the count reaches zero, matching
/// the old writer-thread semantics where pending entries kept the
/// writer alive.
#[derive(Clone)]
struct ReplySink {
    inbox: Arc<ShardInbox>,
    token: u64,
    outstanding: Arc<AtomicI64>,
}

impl ReplySink {
    fn reply(&self, response: Response, settles: bool) {
        self.inbox.push(ShardMsg::Reply {
            token: self.token,
            response,
            settles,
        });
    }

    fn line(&self, line: String, settles: bool) {
        self.inbox.push(ShardMsg::Line {
            token: self.token,
            line,
            settles,
        });
    }
}

struct PendingEntry {
    sink: ReplySink,
    seq: Option<u64>,
}

// ---------------------------------------------------------------------------
// Pump signalling (unchanged from the thread-per-connection gateway)
// ---------------------------------------------------------------------------

/// Wakes the pump thread the moment a submit gives it work, so stepped
/// engines resolve requests at notify latency instead of on the next
/// idle-sleep tick.
///
/// The fast path is one `armed` load: while the pump is actively
/// working (or the engine is live and never pumps), submitters skip
/// the signal mutex entirely. The generation counter closes the lost-
/// wakeup race: the pump reads the generation *before* its final
/// empty-handed `pump()`, and [`PumpSignal::wait_after`] refuses to
/// sleep if any notify moved the generation since — a submit that
/// landed between the check and the wait is therefore never slept
/// through (the engine-mutex ordering makes the submitter's `armed`
/// load observe the pump's store).
struct PumpSignal {
    generation: Mutex<u64>,
    cv: Condvar,
    armed: AtomicBool,
}

impl PumpSignal {
    fn new() -> PumpSignal {
        PumpSignal {
            generation: Mutex::new(0),
            cv: Condvar::new(),
            armed: AtomicBool::new(false),
        }
    }

    /// Declares intent to sleep; returns the generation to hand to
    /// [`PumpSignal::wait_after`]. Call *before* the final work check.
    fn arm(&self) -> u64 {
        self.armed.store(true, Ordering::SeqCst);
        *self.generation.lock()
    }

    /// Withdraws the intent (work was found after all).
    fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Sleeps until a notify or `timeout` — unless the generation
    /// already moved past `observed`, in which case a submit raced the
    /// final check and the pump should run again immediately.
    fn wait_after(&self, observed: u64, timeout: Duration) {
        let mut generation = self.generation.lock();
        if *generation == observed {
            self.cv.wait_for(&mut generation, timeout);
        }
        drop(generation);
        self.disarm();
    }

    /// Wakes an armed pump; a no-op (one atomic load) while the pump
    /// is busy.
    fn notify(&self) {
        if !self.armed.load(Ordering::SeqCst) {
            return;
        }
        *self.generation.lock() += 1;
        self.cv.notify_all();
    }

    /// Unconditional wake (shutdown).
    fn force_notify(&self) {
        *self.generation.lock() += 1;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Per-app state and the shared core
// ---------------------------------------------------------------------------

/// Everything one app's request handling needs.
struct AppState {
    /// Position in [`Core::apps`]; doubles as the pending-table tenant
    /// index and the pending-key namespace.
    index: usize,
    /// The wire `app` field that routes here (`engine.spec().name`).
    name: String,
    /// The app's admission path; owns the engine, the published
    /// snapshot, the rate limiter and the adaptive re-planner.
    admitter: EdgeAdmitter,
    counters: Arc<ServingCounters>,
    module_drops: Arc<ModuleDropCounters>,
    pump_signal: PumpSignal,
    /// Cached [`EngineHandle::stepped`]: decides at start-up whether
    /// the app gets a pump thread or a dispatcher thread, and keeps the
    /// per-request submit path off the pump signal for live engines.
    stepped: bool,
    /// The receiving end of the engine's completion sink. A stepped
    /// engine sends only from inside a driving call, on the caller's
    /// thread, so whoever just drove it empties the channel right there
    /// ([`AppState::route_ready`]) — waking another thread to do it
    /// would buy nothing. A live engine completes work on threads of
    /// its own at times of its own: its dispatcher thread takes the
    /// receiver at start-up and blocks on it, leaving `None` here.
    completions: Mutex<Option<Receiver<Completion>>>,
    /// The `/events` stream's frame bus: the sampler publishes, SSE
    /// subscribers wait. Laggy subscribers skip to the latest frame
    /// and can never block the sampler.
    frames: Arc<FrameBus>,
    /// Rolling RTT window behind `pard_gateway_rtt_us` and the frame
    /// quantiles; completions push, scrapes read.
    rtt: Arc<RttWindow>,
    /// `false` once the engine-pump watchdog tripped: the engine is
    /// wedged or panicked, requests are refused, pending ones flushed.
    healthy: AtomicBool,
    /// Wall-clock millis (since gateway start) when the current pump
    /// call began; `u64::MAX` when no pump call is in flight. The
    /// watchdog reads it from the poller thread.
    pump_entered_ms: AtomicU64,
}

impl AppState {
    fn engine(&self) -> &dyn EngineHandle {
        self.admitter.engine()
    }

    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Routes whatever the driving call that just returned (`submit`,
    /// `advance_to`, `pump`) left in a stepped engine's completion
    /// channel. The lock makes the drain atomic against another
    /// driver's: a thread that finds it taken waits, then finds its
    /// own completions already routed or routes them itself, so none
    /// strands. Does nothing for a live app, whose dispatcher thread
    /// owns the receiver.
    fn route_ready(&self, core: &Core) {
        if let Some(completions) = self.completions.lock().as_ref() {
            route_completions(core, self, completions.try_iter());
        }
    }
}

/// Moves every stepped clock to `to_us` (an honoured `advance_us`
/// line; live engines ignore it) and answers what resolved on the way:
/// a replay's trailing advances have no later request to carry their
/// replies.
fn advance_all(core: &Core, to_us: u64) {
    for app in &core.apps {
        app.engine().advance_to(SimTime::from_micros(to_us));
        app.route_ready(core);
    }
}

/// Trips the engine watchdog for one app: stop admitting to it, and
/// answer every in-flight request it owes with `shutting_down` so no
/// client blocks on a reply the dead engine will never complete. The
/// flushed requests were admitted, so they resolve as drops — the
/// `admitted == ok + late + dropped` invariant survives the failure.
/// Idempotent; other apps are untouched.
fn mark_app_unhealthy(core: &Core, app: &AppState, why: &str) {
    if app.healthy.swap(false, Ordering::AcqRel) {
        // What the engine resolved before it died is a real outcome,
        // and nobody will drive this engine again to route it later.
        app.route_ready(core);
        let app_index = app.index as u64;
        for (_key, entry) in core
            .pending
            .drain_matching(|key| key >> TENANT_SHIFT == app_index)
        {
            app.counters.dropped.incr();
            entry.sink.line(
                Response::error_line(
                    ErrorCode::ShuttingDown,
                    entry.seq,
                    &format!("engine for app {:?} is unavailable ({why})", app.name),
                ),
                true,
            );
        }
    }
}

/// State shared by every serving thread.
struct Core {
    apps: Vec<Arc<AppState>>,
    by_name: HashMap<String, usize>,
    /// The shared pending table; tenant index == app index.
    pending: PendingMap<PendingEntry, Completion>,
    allow_replay: bool,
    /// Stops admitting (requests answered `shutting_down`).
    shutdown: AtomicBool,
    /// Stops the shard event loops entirely (after the drain flush).
    stop_io: AtomicBool,
    /// The multi-connection replay coordinator (see [`ReplayCoordinator`]).
    replay: Mutex<ReplayCoordinator>,
    /// Deterministic connection-fault injection; `None` in production.
    chaos: Option<ChaosConfig>,
    /// Gateway start instant; the pump watchdog's time base.
    epoch: Instant,
}

// ---------------------------------------------------------------------------
// The shard event loop
// ---------------------------------------------------------------------------

/// One connection's state, owned by exactly one shard thread.
struct ConnState {
    stream: TcpStream,
    fd: RawFd,
    /// Request bytes as read; everything before `rpos` is served (a
    /// cursor, so serving a slice of lines does not move the rest).
    rbuf: Vec<u8>,
    rpos: usize,
    /// In the shard's service queue: for this tick, or (left with
    /// complete lines after its slice) for the next. Keeps a connection
    /// from being queued, and so served, twice in one tick.
    queued: bool,
    /// Encoded response bytes not yet written; `out_pos` marks how far
    /// the kernel has taken them.
    out: Vec<u8>,
    out_pos: usize,
    /// Whether the poller interest currently includes `WRITABLE`.
    want_write: bool,
    /// A write hard-failed; the connection is swept on the next tick.
    write_failed: bool,
    /// The peer half-closed (EOF); the connection stays open until
    /// every owed response is written.
    read_closed: bool,
    /// Error path: drain inbound bytes until here, then close — a
    /// clean FIN instead of an RST that could clobber the error
    /// response in flight.
    discard_deadline: Option<Instant>,
    /// This connection's membership in the replay group, if joined.
    replay_party: Option<usize>,
    /// Read ticks taken on this connection — the [`ChaosConfig`] read-
    /// stall counter (zero cost when chaos is off).
    chaos_reads: u64,
    /// Protocol lines served on this connection — the [`ChaosConfig`]
    /// reset counter.
    chaos_lines: u64,
    sink: ReplySink,
}

impl ConnState {
    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Request bytes read and not yet served.
    fn unread(&self) -> &[u8] {
        &self.rbuf[self.rpos..]
    }
}

fn shard_loop(core: Arc<Core>, inbox: Arc<ShardInbox>) {
    let Ok(poller) = Poller::new() else { return };
    if poller.add(inbox.waker.fd(), WAKER_TOKEN, READABLE).is_err() {
        return;
    }
    // One cached snapshot reader per app, revalidated per request with
    // a single atomic epoch load.
    let mut snapshots: Vec<SnapshotReader> =
        core.apps.iter().map(|app| app.admitter.reader()).collect();
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_token = 0u64;
    let mut events = Vec::new();
    let mut msgs: Vec<ShardMsg> = Vec::new();
    // Connections with more buffered complete lines than one tick's
    // budget; served another slice next iteration (with a zero poll
    // timeout, so a flood never adds latency for its shard-mates).
    let mut backlog: Vec<u64> = Vec::new();
    // This tick's service queue: last tick's backlog, then the
    // connections that turned readable.
    let mut serving: Vec<u64> = Vec::new();
    let mut scratch = String::with_capacity(256);
    loop {
        if core.stop_io.load(Ordering::SeqCst) {
            // Final flush: apply every queued reply (the shutdown
            // drain's flushes included), then push remaining bytes out
            // in blocking mode so no client loses an answer.
            inbox.take(&mut msgs);
            for msg in msgs.drain(..) {
                apply_msg(
                    msg,
                    &mut conns,
                    &mut next_token,
                    &poller,
                    &inbox,
                    &mut scratch,
                );
            }
            for (_, conn) in conns.drain() {
                final_flush(conn);
            }
            return;
        }

        events.clear();
        if backlog.is_empty() {
            // Sleep-intent protocol: declare sleep *before* the final
            // emptiness check so a concurrent push either sees the
            // flag (and wakes us) or its message is seen here.
            inbox.sleeping.store(true, Ordering::SeqCst);
            if inbox.is_empty() {
                let _ = poller.wait(&mut events, Some(TICK_MS));
            }
            inbox.sleeping.store(false, Ordering::SeqCst);
        } else {
            let _ = poller.wait(&mut events, Some(0));
        }

        // Cross-thread work: new connections, replies routed elsewhere.
        inbox.take(&mut msgs);
        for msg in msgs.drain(..) {
            apply_msg(
                msg,
                &mut conns,
                &mut next_token,
                &poller,
                &inbox,
                &mut scratch,
            );
        }

        std::mem::swap(&mut serving, &mut backlog);
        for event in &events {
            if event.token == WAKER_TOKEN {
                inbox.waker.drain();
                continue;
            }
            let Some(conn) = conns.get_mut(&event.token) else {
                continue;
            };
            if event.is_readable() {
                shard_read(conn, core.chaos.as_ref());
                if !conn.queued {
                    conn.queued = true;
                    serving.push(event.token);
                }
            }
            if event.is_writable() {
                shard_flush(conn, &poller, core.chaos.as_ref());
            }
        }
        // One slice of lines per queued connection per tick, however it
        // got queued.
        for token in serving.drain(..) {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            conn.queued = shard_process_lines(&core, &mut snapshots, conn);
            if conn.queued {
                backlog.push(token);
            }
        }

        // Same-tick self-replies: handlers answer through this shard's
        // own inbox; applying them now (instead of after a waker
        // round-trip) gets them into `out` before the flush below.
        inbox.take(&mut msgs);
        for msg in msgs.drain(..) {
            apply_msg(
                msg,
                &mut conns,
                &mut next_token,
                &poller,
                &inbox,
                &mut scratch,
            );
        }

        // Flush dirty connections, then sweep closable ones.
        let now = Instant::now();
        let mut closed: Vec<u64> = Vec::new();
        for (token, conn) in conns.iter_mut() {
            if !conn.write_failed && !conn.flushed() {
                shard_flush(conn, &poller, core.chaos.as_ref());
            }
            if should_close(conn, now) {
                closed.push(*token);
            }
        }
        for token in closed {
            let conn = conns.remove(&token).expect("swept token");
            let _ = poller.delete(conn.fd);
            if let Some(party) = conn.replay_party {
                // A departed participant releases its watermark so the
                // rest of the group can finish.
                let mut coordinator = core.replay.lock();
                coordinator.leave(party);
                replay_drain_ready(&mut coordinator, &core);
            }
        }
    }
}

fn apply_msg(
    msg: ShardMsg,
    conns: &mut HashMap<u64, ConnState>,
    next_token: &mut u64,
    poller: &Poller,
    inbox: &Arc<ShardInbox>,
    scratch: &mut String,
) {
    match msg {
        ShardMsg::Conn(stream) => {
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let token = *next_token;
            *next_token += 1;
            if poller.add(fd, token, READABLE).is_err() {
                return;
            }
            conns.insert(
                token,
                ConnState {
                    stream,
                    fd,
                    rbuf: Vec::new(),
                    rpos: 0,
                    queued: false,
                    out: Vec::new(),
                    out_pos: 0,
                    want_write: false,
                    write_failed: false,
                    read_closed: false,
                    discard_deadline: None,
                    replay_party: None,
                    chaos_reads: 0,
                    chaos_lines: 0,
                    sink: ReplySink {
                        inbox: Arc::clone(inbox),
                        token,
                        outstanding: Arc::new(AtomicI64::new(0)),
                    },
                },
            );
        }
        ShardMsg::Reply {
            token,
            response,
            settles,
        } => {
            let Some(conn) = conns.get_mut(&token) else {
                return; // connection already gone; nobody is owed
            };
            if settles {
                conn.sink.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            scratch.clear();
            response.encode_into(scratch);
            conn.out.extend_from_slice(scratch.as_bytes());
            conn.out.push(b'\n');
        }
        ShardMsg::Line {
            token,
            line,
            settles,
        } => {
            let Some(conn) = conns.get_mut(&token) else {
                return;
            };
            if settles {
                conn.sink.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            conn.out.extend_from_slice(line.as_bytes());
            conn.out.push(b'\n');
        }
    }
}

/// Reads whatever the socket has, up to the per-tick budget (level-
/// triggered readiness re-fires for the rest). In discard mode the
/// bytes are dropped — the connection is only being drained for a
/// clean close.
fn shard_read(conn: &mut ConnState, chaos: Option<&ChaosConfig>) {
    if conn.write_failed {
        return;
    }
    // A connection still queued from the last tick has complete lines
    // waiting; with a whole read budget of them unserved, more bytes
    // would only move the client's backlog from the socket (where TCP
    // pushes back) into this buffer. A partial line is never `queued`,
    // so a line longer than the budget still assembles.
    if conn.queued && conn.unread().len() >= READ_BUDGET {
        return;
    }
    if let Some(every) = chaos.and_then(|c| c.read_stall_every) {
        // Injected read stall: skip this readiness tick entirely. The
        // level-triggered poller re-delivers the readiness, so the
        // bytes arrive one tick late — a pure delay, never a loss,
        // which is why stalls must be outcome-preserving under replay.
        conn.chaos_reads += 1;
        if conn.chaos_reads.is_multiple_of(every.max(1)) {
            return;
        }
    }
    let mut tmp = [0u8; 16 * 1024];
    let mut budget = READ_BUDGET;
    loop {
        if budget == 0 {
            return;
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => {
                budget = budget.saturating_sub(n);
                if conn.discard_deadline.is_none() {
                    conn.rbuf.extend_from_slice(&tmp[..n]);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.write_failed = true;
                return;
            }
        }
    }
}

/// Serves up to [`LINES_PER_TICK`] complete lines from the read
/// buffer, enforcing [`MAX_LINE_BYTES`] on complete lines, on
/// newline-free buffered tails, and serving an unterminated final line
/// at EOF (the old reader-thread semantics, exactly). Returns whether
/// complete lines are left for the next tick.
fn shard_process_lines(
    core: &Core,
    snapshots: &mut [SnapshotReader],
    conn: &mut ConnState,
) -> bool {
    if conn.write_failed || conn.discard_deadline.is_some() {
        return false;
    }
    let mut served = 0usize;
    let mut oversize = false;
    while served < LINES_PER_TICK {
        let Some(offset) = conn.unread().iter().position(|&b| b == b'\n') else {
            break;
        };
        if offset + 1 > MAX_LINE_BYTES {
            oversize = true;
            break;
        }
        let line_end = conn.rpos + offset;
        let mut handled = false;
        {
            let text = String::from_utf8_lossy(&conn.rbuf[conn.rpos..line_end]);
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                handle_line(core, snapshots, &conn.sink, &mut conn.replay_party, trimmed);
                handled = true;
            }
        }
        conn.rpos = line_end + 1;
        served += 1;
        if handled {
            if let Some(every) = core.chaos.as_ref().and_then(|c| c.reset_every) {
                // Injected mid-request reset: the request was fully
                // handled (admitted, counted, possibly submitted), but
                // the connection dies before its reply can be written —
                // the sweep closes the socket, and any completion for
                // it resolves against a gone token. Server-side counter
                // algebra must survive exactly this.
                conn.chaos_lines += 1;
                if conn.chaos_lines.is_multiple_of(every.max(1)) {
                    conn.write_failed = true;
                    break;
                }
            }
        }
    }
    // Compact: free when everything is served, and otherwise only once
    // the served prefix outweighs what a move has to carry.
    if conn.rpos == conn.rbuf.len() {
        conn.rbuf.clear();
        conn.rpos = 0;
    } else if conn.rpos > conn.rbuf.len() / 2 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
    if oversize {
        oversized_line(core, conn);
        return false;
    }
    if conn.unread().contains(&b'\n') {
        return true;
    }
    if conn.unread().len() > MAX_LINE_BYTES {
        // A newline-free stream past the line budget: same answer as an
        // oversized complete line, without buffering without bound.
        oversized_line(core, conn);
    } else if conn.read_closed && !conn.unread().is_empty() {
        // EOF with an unterminated final line: serve it trimmed.
        let rbuf = std::mem::take(&mut conn.rbuf);
        let start = std::mem::take(&mut conn.rpos);
        let text = String::from_utf8_lossy(&rbuf[start..]);
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            handle_line(core, snapshots, &conn.sink, &mut conn.replay_party, trimmed);
        }
    }
    false
}

fn oversized_line(core: &Core, conn: &mut ConnState) {
    let counters = &core.apps[0].counters;
    counters.received.incr();
    counters.protocol_errors.incr();
    conn.sink.line(
        Response::error_line(
            ErrorCode::Malformed,
            None,
            &format!("request line exceeds {MAX_LINE_BYTES} bytes; closing connection"),
        ),
        false,
    );
    // Briefly drain what the client already sent so the close is a
    // clean FIN, not an RST that could clobber the error response.
    conn.discard_deadline = Some(Instant::now() + Duration::from_millis(250));
    conn.rbuf = Vec::new();
    conn.rpos = 0;
}

/// Writes as much of `out` as the socket takes, tracking `WRITABLE`
/// interest only while bytes remain (so an idle socket's permanent
/// write-readiness does not spin the poller).
fn shard_flush(conn: &mut ConnState, poller: &Poller, chaos: Option<&ChaosConfig>) {
    if conn.write_failed {
        return;
    }
    // Injected partial writes: cap each write call and stop after one
    // chunk per flush, forcing the cross-tick `WANT_WRITE` resume path
    // that short-write bugs hide in.
    let chunk = chaos.and_then(|c| c.max_write_chunk);
    while conn.out_pos < conn.out.len() {
        let end = match chunk {
            Some(cap) => (conn.out_pos + cap.max(1)).min(conn.out.len()),
            None => conn.out.len(),
        };
        match conn.stream.write(&conn.out[conn.out_pos..end]) {
            Ok(0) => {
                conn.write_failed = true;
                break;
            }
            Ok(n) => {
                conn.out_pos += n;
                if chunk.is_some() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.write_failed = true;
                break;
            }
        }
    }
    if conn.flushed() {
        conn.out.clear();
        conn.out_pos = 0;
        if conn.want_write {
            conn.want_write = false;
            let _ = poller.modify(conn.fd, conn.sink.token, READABLE);
        }
    } else if !conn.want_write && !conn.write_failed {
        conn.want_write = true;
        let _ = poller.modify(conn.fd, conn.sink.token, READABLE | WRITABLE);
    }
}

fn should_close(conn: &ConnState, now: Instant) -> bool {
    if conn.write_failed {
        return true;
    }
    if let Some(deadline) = conn.discard_deadline {
        // Error path: wait out the drain window (or the peer's EOF),
        // then close once the error response is flushed — with a grace
        // ceiling so an unwritable peer cannot pin the fd forever.
        let drained = conn.read_closed || now >= deadline;
        return drained && (conn.flushed() || now >= deadline + Duration::from_secs(2));
    }
    // Half-closed peers keep their connection until every owed
    // response (pending completions, parked replay requests) is
    // answered and written.
    conn.read_closed
        && conn.flushed()
        && conn.unread().is_empty()
        && conn.sink.outstanding.load(Ordering::SeqCst) <= 0
}

/// Shutdown's last act per connection: push any remaining queued bytes
/// in blocking mode (bounded by a write timeout) so the drain flush's
/// answers actually reach their clients.
fn final_flush(conn: ConnState) {
    let ConnState {
        mut stream,
        out,
        out_pos,
        write_failed,
        ..
    } = conn;
    if write_failed || out_pos >= out.len() {
        return;
    }
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = stream.write_all(&out[out_pos..]);
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

fn counted_error(
    counters: &ServingCounters,
    sink: &ReplySink,
    code: ErrorCode,
    seq: Option<u64>,
    message: &str,
) {
    counters.received.incr();
    counters.protocol_errors.incr();
    sink.line(Response::error_line(code, seq, message), false);
}

fn handle_line(
    core: &Core,
    snapshots: &mut [SnapshotReader],
    sink: &ReplySink,
    replay_party: &mut Option<usize>,
    line: &str,
) {
    let request = match ClientLine::decode(line) {
        // Replay control: steer the stepped clocks (live engines ignore
        // it). Not a request — no response, no serving counters. A
        // replay-group member parks it instead, so clock motion stays
        // ordered against every party's scheduled requests.
        Ok(ClientLine::Advance { to_us }) if core.allow_replay => {
            match *replay_party {
                Some(party) => {
                    let mut coordinator = core.replay.lock();
                    coordinator.raise(party, to_us);
                    coordinator.park(party, to_us, u64::MAX, ParkedAction::Advance { to_us });
                    replay_drain_ready(&mut coordinator, core);
                }
                None => advance_all(core, to_us),
            }
            return;
        }
        // A *refused* control line gets an error response, so it is
        // counted like any other answered protocol error (keeping
        // received = admitted + unadmitted); honored ones above stay
        // invisible to the serving counters because they produce no
        // response at all.
        Ok(ClientLine::Advance { .. }) => {
            counted_error(
                &core.apps[0].counters,
                sink,
                ErrorCode::Malformed,
                None,
                "deterministic replay is disabled on this gateway",
            );
            return;
        }
        Ok(ClientLine::Join { parties }) if core.allow_replay => {
            if replay_party.is_some() {
                counted_error(
                    &core.apps[0].counters,
                    sink,
                    ErrorCode::Malformed,
                    None,
                    "this connection already joined a replay group",
                );
                return;
            }
            let mut coordinator = core.replay.lock();
            match coordinator.join(parties) {
                Ok(party) => {
                    *replay_party = Some(party);
                    // The final join completes the group and may
                    // release entries earlier joiners already parked.
                    replay_drain_ready(&mut coordinator, core);
                }
                Err(message) => {
                    drop(coordinator);
                    counted_error(
                        &core.apps[0].counters,
                        sink,
                        ErrorCode::Malformed,
                        None,
                        &message,
                    );
                }
            }
            return;
        }
        Ok(ClientLine::Join { .. }) => {
            counted_error(
                &core.apps[0].counters,
                sink,
                ErrorCode::Malformed,
                None,
                "deterministic replay is disabled on this gateway",
            );
            return;
        }
        Ok(ClientLine::Request(request)) => request,
        Err(e) => {
            counted_error(
                &core.apps[0].counters,
                sink,
                e.code,
                seq_hint(line),
                &e.message,
            );
            return;
        }
    };

    // Route by the wire `app` field. A routable request's counters
    // belong to its app; unroutable ones land on app 0 (which *is* the
    // single-app gateway's only app, preserving its exact semantics).
    let resolved = core.by_name.get(request.app.as_str()).copied();
    core.apps[resolved.unwrap_or(0)].counters.received.incr();
    if request.at_us.is_some() && !core.allow_replay {
        core.apps[resolved.unwrap_or(0)]
            .counters
            .protocol_errors
            .incr();
        sink.line(
            Response::error_line(
                ErrorCode::Malformed,
                request.seq,
                "deterministic replay (\"at_us\") is disabled on this gateway",
            ),
            false,
        );
        return;
    }
    let Some(app_index) = resolved else {
        core.apps[0].counters.protocol_errors.incr();
        let message = if core.apps.len() == 1 {
            format!(
                "unknown app {:?} (serving {:?})",
                request.app, core.apps[0].name
            )
        } else {
            let served: Vec<&str> = core.apps.iter().map(|a| a.name.as_str()).collect();
            format!("unknown app {:?} (serving {:?})", request.app, served)
        };
        sink.line(
            Response::error_line(ErrorCode::UnknownApp, request.seq, &message),
            false,
        );
        return;
    };
    let app = &core.apps[app_index];
    if core.shutdown.load(Ordering::SeqCst) {
        // `refused`, not `rejected`: this is gateway back-pressure, not
        // a PARD admission decision.
        app.counters.refused.incr();
        sink.line(
            Response::error_line(
                ErrorCode::ShuttingDown,
                request.seq,
                "gateway is shutting down",
            ),
            false,
        );
        return;
    }
    if !app.is_healthy() {
        // The watchdog tripped on this app's engine: refuse rather
        // than submit into a wedged or panicked pipeline. Other apps
        // keep serving.
        app.counters.refused.incr();
        sink.line(
            Response::error_line(
                ErrorCode::ShuttingDown,
                request.seq,
                &format!("engine for app {:?} is unavailable", app.name),
            ),
            false,
        );
        return;
    }
    match (request.at_us, *replay_party) {
        (Some(at), Some(party)) => {
            // A scheduled request from a replay-group member parks; it
            // is served in global arrival order once every party's
            // watermark passes it. Its eventual reply (settles=true)
            // is owed from this moment.
            let mut coordinator = core.replay.lock();
            coordinator.raise(party, at);
            sink.outstanding.fetch_add(1, Ordering::SeqCst);
            coordinator.park(
                party,
                at,
                request.seq.unwrap_or(u64::MAX),
                ParkedAction::Request {
                    app: app_index,
                    sink: sink.clone(),
                    request,
                },
            );
            replay_drain_ready(&mut coordinator, core);
        }
        (Some(at), None) => serve_scheduled(core, app, sink, &request, at, false),
        (None, _) => {
            // The ordinary hot path: decide against the published
            // snapshot — pure reads on shared immutable data, no lock.
            let admission = app
                .admitter
                .decide_now(&mut snapshots[app_index], request.slo_ms);
            finish_admission(core, app, sink, &request, admission, false);
            app.route_ready(core);
        }
    }
}

/// A scheduled request (deterministic trace replay) is decided at its
/// virtual arrival time (see [`EdgeAdmitter::decide_at`]); `settles`
/// marks one that parked in the replay group, whose reply was owed
/// from park time.
fn serve_scheduled(
    core: &Core,
    app: &AppState,
    sink: &ReplySink,
    request: &Request,
    at_us: u64,
    settles: bool,
) {
    if core.shutdown.load(Ordering::SeqCst) || !app.is_healthy() {
        // Parked requests can surface here after the admission-path
        // shutdown and health checks ran; answer them instead of
        // submitting into a draining (or dead) engine.
        app.counters.refused.incr();
        sink.line(
            Response::error_line(
                ErrorCode::ShuttingDown,
                request.seq,
                "gateway is shutting down",
            ),
            settles,
        );
        return;
    }
    let admission = app.admitter.decide_at(at_us, request.slo_ms);
    finish_admission(core, app, sink, request, admission, settles);
    // Whatever the verdict, `decide_at` moved the clock to the arrival:
    // earlier requests resolved on the way, on this thread.
    app.route_ready(core);
}

/// The transport half of admission: count the verdict, answer what the
/// edge already resolved, and for an admitted request reserve its
/// pending slot *before* the permit submits it. Completions are not
/// routed here: the caller does that once the verdict is answered
/// ([`AppState::route_ready`]), because on a stepped engine the
/// admission call itself may have produced some.
fn finish_admission(
    core: &Core,
    app: &AppState,
    sink: &ReplySink,
    request: &Request,
    admission: Admission<'_>,
    settles: bool,
) {
    match admission {
        Admission::RateLimited => {
            app.counters.rate_limited.incr();
            sink.line(
                Response::error_line(
                    ErrorCode::RateLimited,
                    request.seq,
                    &format!("rate limit exceeded for app {:?}", app.name),
                ),
                settles,
            );
        }
        Admission::Rejected { id, reason } => {
            app.counters.rejected.incr();
            sink.reply(
                Response::dropped(id, request.seq, true, reason.label()),
                settles,
            );
        }
        Admission::Admitted(permit) => {
            // Reserve capacity before the submit; the entry itself is
            // filed right after, and the shard-level orphan parking
            // closes the race with a completion firing in between (see
            // `crate::pending`). Under multi-app overload the tenant
            // quota can refuse even with shared headroom left — that
            // headroom is another tenant's guarantee.
            if !core.pending.reserve_tenant(app.index) {
                app.counters.refused.incr();
                sink.line(
                    Response::error_line(
                        ErrorCode::Overloaded,
                        request.seq,
                        &format!(
                            "pending-request table is full ({} entries)",
                            core.pending.capacity()
                        ),
                    ),
                    settles,
                );
                return;
            }
            app.counters.admitted.incr();
            let id = permit.submit();
            // Give the pump thread the work immediately — stepped
            // engines only; a live engine resolves work on its own
            // threads and must not pay a per-request signal lock.
            // Scheduled replay skips the wake: the replay connection
            // drives the clock itself.
            if app.stepped && request.at_us.is_none() {
                app.pump_signal.notify();
            }
            if !settles {
                // The routed completion's reply settles this owed
                // response; parked requests were counted at park time.
                sink.outstanding.fetch_add(1, Ordering::SeqCst);
            }
            if let Some(completion) = core.pending.insert_tenant(
                pending_key(app.index, id),
                app.index,
                PendingEntry {
                    sink: sink.clone(),
                    seq: request.seq,
                },
            ) {
                // The completion beat the insert; answer it here.
                let response = completion_reply(
                    &completion,
                    request.seq,
                    &app.counters,
                    &app.module_drops,
                    &app.rtt,
                );
                sink.reply(response, true);
            }
        }
    }
}

/// Classifies one completion into its wire reply, bumping the serving
/// counters — shared by [`route_completions`] (completion found its
/// entry) and the admitting shard thread (completion raced the insert
/// and was parked).
fn completion_reply(
    completion: &Completion,
    seq: Option<u64>,
    counters: &ServingCounters,
    module_drops: &ModuleDropCounters,
    rtt: &RttWindow,
) -> Response {
    let latency_ms = completion
        .latency()
        .map(|d| d.as_millis_f64())
        .unwrap_or(0.0);
    match completion.outcome {
        Outcome::Completed { .. } if completion.within_slo() => {
            counters.completed_ok.incr();
            rtt.push(latency_ms * 1000.0);
            Response::ok(completion.id, seq, latency_ms)
        }
        Outcome::Completed { .. } => {
            counters.completed_late.incr();
            rtt.push(latency_ms * 1000.0);
            Response::violated(completion.id, seq, latency_ms)
        }
        Outcome::Dropped { module, reason, .. } => {
            counters.dropped.incr();
            module_drops.record(module, reason);
            Response::dropped(completion.id, seq, false, reason.label())
        }
        Outcome::InFlight => unreachable!("completions are terminal"),
    }
}

/// The one place a completion becomes a reply: look up who is owed it,
/// classify it, answer. A stepped app passes what its channel holds
/// after a driving call ([`AppState::route_ready`]); a live app's
/// dispatcher thread passes the blocking iterator, which ends when the
/// engine (the only sender) shuts down.
fn route_completions(core: &Core, app: &AppState, completions: impl Iterator<Item = Completion>) {
    for completion in completions {
        // An entry means the submit already filed it; otherwise the
        // completion is parked in the shard and the inserting thread
        // claims it (see `crate::pending`). A completion for a request
        // flushed during shutdown parks harmlessly.
        let key = pending_key(app.index, completion.id);
        let Some(entry) = core.pending.take_or_stash(key, completion) else {
            continue;
        };
        let response = completion_reply(
            &completion,
            entry.seq,
            &app.counters,
            &app.module_drops,
            &app.rtt,
        );
        entry.sink.reply(response, true);
    }
}

/// Every gateway thread carries a name (`pard-shard-<i>`,
/// `pard-pump-<app>`, `pard-dispatch-<app>`, `pard-poller`,
/// `pard-accept`, `pard-frames`, `pard-metrics`), so a profile, a
/// panic message or `/proc/<pid>/task/*/comm` says which is which.
fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(f)
}

fn accept_loop(listener: TcpListener, core: Arc<Core>, inboxes: Vec<Arc<ShardInbox>>) {
    let mut next = 0usize;
    while !core.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Round-robin across shards: connection populations stay
                // balanced without any shared accounting.
                inboxes[next % inboxes.len()].push(ShardMsg::Conn(stream));
                next += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// The gateway lifecycle
// ---------------------------------------------------------------------------

/// A running gateway. Dropping it without calling
/// [`Gateway::shutdown`] leaks the serving threads; tests and binaries
/// should always shut down explicitly to stop the engines and collect
/// their totals.
pub struct Gateway {
    core: Arc<Core>,
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    service_threads: Vec<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    inboxes: Vec<Arc<ShardInbox>>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Starts serving `engine` — any [`EngineHandle`], simulated or
    /// live — over the wire protocol, with PARD admission at the edge.
    pub fn start(engine: Box<dyn EngineHandle>, config: GatewayConfig) -> io::Result<Gateway> {
        Gateway::start_multi(vec![AppConfig::new(engine)], config)
    }

    /// Starts serving several apps behind one listener; each wire
    /// request routes by its `app` field. With more than one app, half
    /// the pending table is guaranteed to tenants in proportion to
    /// their [`AppConfig::weight`]s and the other half is shared
    /// first-come headroom.
    pub fn start_multi(apps: Vec<AppConfig>, config: GatewayConfig) -> io::Result<Gateway> {
        if apps.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a gateway needs at least one app",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics_listener = TcpListener::bind(&config.metrics_addr)?;
        metrics_listener.set_nonblocking(true)?;
        let metrics_addr = metrics_listener.local_addr()?;

        let guaranteed = if apps.len() == 1 {
            // The legacy single-tenant table: no guarantees, pure
            // shared capacity — bit-identical to the old gateway.
            vec![0]
        } else {
            let total: usize = apps.iter().map(|a| a.weight.max(1)).sum();
            apps.iter()
                .map(|a| config.max_pending * a.weight.max(1) / (2 * total))
                .collect()
        };
        let pending = PendingMap::with_tenants(config.max_pending, guaranteed);

        // Edge ids are drawn from one counter so they stay unique
        // gateway-wide.
        let edge_ids = Arc::new(AtomicU64::new(0));
        let mut states = Vec::with_capacity(apps.len());
        let mut by_name = HashMap::new();
        for (index, app) in apps.into_iter().enumerate() {
            let AppConfig {
                engine,
                rate_limit,
                weight: _,
            } = app;
            let (completion_tx, completion_rx) = mpsc::channel();
            engine.set_completion_sink(completion_tx);
            let name = engine.spec().name.clone();
            if by_name.insert(name.clone(), index).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("two apps registered under the name {name:?}"),
                ));
            }
            let limiter = rate_limit
                .map(|limit| TokenBucket::new(limit.rate_per_sec, limit.burst, engine.now()));
            states.push(Arc::new(AppState {
                index,
                name,
                counters: Arc::new(ServingCounters::new()),
                module_drops: Arc::new(ModuleDropCounters::new(engine.spec().modules.len())),
                pump_signal: PumpSignal::new(),
                stepped: engine.stepped(),
                completions: Mutex::new(Some(completion_rx)),
                frames: Arc::new(FrameBus::new()),
                rtt: Arc::new(RttWindow::new(DEFAULT_RTT_SAMPLES)),
                healthy: AtomicBool::new(true),
                pump_entered_ms: AtomicU64::new(u64::MAX),
                admitter: EdgeAdmitter::new(
                    engine,
                    config.adaptive,
                    limiter,
                    Arc::clone(&edge_ids),
                ),
            }));
        }

        let core = Arc::new(Core {
            apps: states,
            by_name,
            pending,
            allow_replay: config.allow_replay,
            shutdown: AtomicBool::new(false),
            stop_io: AtomicBool::new(false),
            replay: Mutex::new(ReplayCoordinator::new()),
            chaos: config.chaos,
            epoch: Instant::now(),
        });

        // Shard event loops: the connection fabric.
        let mut inboxes = Vec::new();
        let mut shard_threads = Vec::new();
        for shard in 0..config.shards.max(1) {
            let inbox = Arc::new(ShardInbox::new()?);
            let core = Arc::clone(&core);
            let thread_inbox = Arc::clone(&inbox);
            shard_threads.push(spawn_named(format!("pard-shard-{shard}"), move || {
                shard_loop(core, thread_inbox)
            })?);
            inboxes.push(inbox);
        }

        let mut service_threads = Vec::new();
        let mut dispatchers = Vec::new();

        // Edge-state poller: publishes every app's admission snapshot.
        // Doubles as the pump watchdog's monitor — it already wakes
        // every `edge_refresh` and holds the core, and it must skip
        // unhealthy apps anyway (a panicked engine's `edge_state` can
        // no longer be trusted not to panic too).
        {
            let core = Arc::clone(&core);
            let refresh = config.edge_refresh;
            let pump_stall = config.pump_stall;
            service_threads.push(spawn_named("pard-poller".into(), move || {
                while !core.shutdown.load(Ordering::SeqCst) {
                    for app in &core.apps {
                        if !app.is_healthy() {
                            continue;
                        }
                        if let Some(stall) = pump_stall {
                            let entered = app.pump_entered_ms.load(Ordering::Acquire);
                            let now_ms = core.epoch.elapsed().as_millis() as u64;
                            if entered != u64::MAX
                                && now_ms.saturating_sub(entered) > stall.as_millis() as u64
                            {
                                mark_app_unhealthy(&core, app, "engine pump stalled");
                                continue;
                            }
                        }
                        app.admitter.refresh();
                    }
                    std::thread::sleep(refresh);
                }
            })?);
        }

        // One engine-facing thread per app, chosen here once by what the
        // engine is. A stepped engine (the simulator) gets a pump: its
        // clock only moves when driven, submits notify the pump so work
        // is picked up at wake latency, not on the next timeout tick,
        // and the pump answers what its own `pump()` resolved. A live
        // engine resolves work on threads of its own at times of its
        // own, so it gets a dispatcher that blocks on the completion
        // channel; it needs only the core's pending table and its app,
        // so it outlives the shards and ends when `drain` drops the
        // engine's sender.
        //
        // The pump is the one gateway thread that runs arbitrary engine
        // code in a loop, so it carries the watchdog instrumentation: a
        // panic trips the app unhealthy immediately (instead of
        // silently wedging every request the dead pump owed), and the
        // entry stamp lets the poller catch a pump that never returns.
        for app in &core.apps {
            let app = Arc::clone(app);
            let core = Arc::clone(&core);
            if !app.stepped {
                let completions = app.completions.lock().take().expect("taken once, here");
                dispatchers.push(spawn_named(
                    format!("pard-dispatch-{}", app.name),
                    move || route_completions(&core, &app, completions.iter()),
                )?);
                continue;
            }
            service_threads.push(spawn_named(format!("pard-pump-{}", app.name), move || {
                while !core.shutdown.load(Ordering::SeqCst) {
                    if !app.is_healthy() {
                        return;
                    }
                    let observed = app.pump_signal.arm();
                    let now_ms = core.epoch.elapsed().as_millis() as u64;
                    app.pump_entered_ms.store(now_ms, Ordering::Release);
                    let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        app.engine().pump()
                    }));
                    app.pump_entered_ms.store(u64::MAX, Ordering::Release);
                    let Ok(progressed) = pumped else {
                        mark_app_unhealthy(&core, &app, "engine pump panicked");
                        return;
                    };
                    if progressed {
                        app.route_ready(&core);
                        app.pump_signal.disarm();
                    } else {
                        app.pump_signal
                            .wait_after(observed, Duration::from_millis(1));
                    }
                }
            })?);
        }

        // Accept loop.
        {
            let core = Arc::clone(&core);
            let inboxes = inboxes.clone();
            service_threads.push(spawn_named("pard-accept".into(), move || {
                accept_loop(listener, core, inboxes);
            })?);
        }

        // Telemetry sampler: periodically folds each app's serving
        // counters, published admission snapshot, and RTT window into
        // an EngineFrame on that app's bus. Off the hot path entirely.
        {
            let core = Arc::clone(&core);
            let period = config.telemetry_period;
            service_threads.push(spawn_named("pard-frames".into(), move || {
                let mut seq = 0u64;
                let mut prev: Vec<_> = core.apps.iter().map(|a| a.counters.snapshot()).collect();
                loop {
                    for (app, prev) in core.apps.iter().zip(prev.iter_mut()) {
                        let (frame, counts) = build_frame(&core, app, seq, prev);
                        *prev = counts;
                        app.frames.publish(frame);
                    }
                    seq += 1;
                    if core.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(period);
                }
            })?);
        }

        // Metrics endpoint.
        {
            let core = Arc::clone(&core);
            service_threads.push(spawn_named("pard-metrics".into(), move || {
                metrics_loop(metrics_listener, core);
            })?);
        }

        Ok(Gateway {
            core,
            addr,
            metrics_addr,
            service_threads,
            shard_threads,
            inboxes,
            dispatchers,
        })
    }

    /// The bound request-protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// Snapshot of the first app's serving counters (the only app on a
    /// single-app gateway); see [`Gateway::counters_of`] for the rest.
    pub fn counters(&self) -> pard_metrics::CountersSnapshot {
        self.core.apps[0].counters.snapshot()
    }

    /// Snapshot of one app's serving counters, by wire name.
    pub fn counters_of(&self, app: &str) -> Option<pard_metrics::CountersSnapshot> {
        let index = *self.core.by_name.get(app)?;
        Some(self.core.apps[index].counters.snapshot())
    }

    /// The wire names of every app served, in registration order.
    pub fn app_names(&self) -> Vec<String> {
        self.core.apps.iter().map(|a| a.name.clone()).collect()
    }

    /// Snapshot of the first app's per-module drop counters (where
    /// admitted requests died inside the pipeline, and why).
    pub fn module_drops(&self) -> pard_metrics::ModuleDropsSnapshot {
        self.core.apps[0].module_drops.snapshot()
    }

    /// Admitted-but-unresolved requests currently in the pending table
    /// (the `pard_gateway_pending_requests` gauge), across all apps.
    pub fn pending_len(&self) -> usize {
        self.core.pending.len()
    }

    /// The first app's flight recorder, if its engine records
    /// lifecycle events — the same ring `/flightrecord` serves.
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.core.apps[0].admitter.recorder().cloned()
    }

    /// One app's flight recorder, by wire name (the ring
    /// `/flightrecord?app=NAME` serves).
    pub fn recorder_of(&self, app: &str) -> Option<Arc<FlightRecorder>> {
        let index = *self.core.by_name.get(app)?;
        self.core.apps[index].admitter.recorder().cloned()
    }

    /// The first app's telemetry frame bus (the `/events` stream);
    /// in-process consumers can subscribe directly with
    /// [`pard_obs::FrameBus::wait_newer`].
    pub fn frames(&self) -> Arc<FrameBus> {
        Arc::clone(&self.core.apps[0].frames)
    }

    /// Stops accepting, drains in-flight requests (bounded by
    /// `drain_virtual` of virtual time and 30 s of wall time), stops
    /// the engine, and returns what it served (the totals of
    /// [`EngineHandle::drain`]). Single-app shorthand for
    /// [`Gateway::shutdown_multi`].
    pub fn shutdown(self, drain_virtual: SimDuration) -> ServedTotals {
        self.shutdown_multi(drain_virtual).remove(0)
    }

    /// Shuts every app down and returns their engines' totals in
    /// registration order. The calling thread becomes the driver of
    /// every stepped engine for the drain window, so it is also the one
    /// that routes their completions; live engines keep their
    /// dispatcher threads until their `drain` returns.
    pub fn shutdown_multi(self, drain_virtual: SimDuration) -> Vec<ServedTotals> {
        let Gateway {
            core,
            addr: _,
            metrics_addr: _,
            service_threads,
            shard_threads,
            inboxes,
            dispatchers,
        } = self;
        core.shutdown.store(true, Ordering::SeqCst);
        // Wake the pump threads out of their idle waits so they observe
        // the flag now rather than on their next timeout tick.
        for app in &core.apps {
            app.pump_signal.force_notify();
        }
        for handle in service_threads {
            let _ = handle.join();
        }
        // Shards answer anything already buffered with `shutting_down`
        // within one tick of the flag; wait that out so no new
        // admissions race the flush below, then give the pipelines a
        // bounded window to resolve what is in flight. Stepped engines
        // no longer have their pump threads, so this loop pumps them
        // directly, answers what each pump resolved while the shards
        // are still there to write it — and gives up once no engine
        // progresses (when a replay client vanished without its
        // trailing advance, the clock gate is unreachable and waiting
        // longer cannot resolve anything). Live engines resolve work on
        // their own threads and their dispatchers answer it, so only
        // the 30 s ceiling applies to them.
        std::thread::sleep(Duration::from_millis(150));
        let all_stepped = core.apps.iter().all(|a| a.stepped);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut last_progress = Instant::now();
        loop {
            if core.pending.is_empty() || Instant::now() >= deadline {
                break;
            }
            let mut progressed = false;
            for app in &core.apps {
                if app.is_healthy() && app.engine().pump() {
                    app.route_ready(&core);
                    progressed = true;
                }
            }
            if progressed {
                last_progress = Instant::now();
            } else if all_stepped && last_progress.elapsed() > Duration::from_millis(500) {
                break;
            } else {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // Parked replay requests never reached admission; answer them
        // as refused so no client hangs on an owed response.
        for parked in core.replay.lock().flush() {
            if let ParkedAction::Request { app, sink, request } = parked.action {
                core.apps[app].counters.refused.incr();
                sink.line(
                    Response::error_line(
                        ErrorCode::ShuttingDown,
                        request.seq,
                        "gateway is shutting down",
                    ),
                    true,
                );
            }
        }
        // Flush whatever is still pending *before* stopping the shards:
        // the shard loops' final pass writes these answers out, so no
        // client hangs and the admitted = ok + late + dropped invariant
        // survives shutdown.
        const ID_MASK: u64 = (1u64 << TENANT_SHIFT) - 1;
        for (key, entry) in core.pending.drain_entries() {
            let app = (key >> TENANT_SHIFT) as usize;
            let id = key & ID_MASK;
            core.apps[app].counters.dropped.incr();
            entry
                .sink
                .reply(Response::dropped(id, entry.seq, false, "shutdown"), true);
        }
        core.stop_io.store(true, Ordering::SeqCst);
        for inbox in &inboxes {
            inbox.waker.wake();
        }
        for handle in shard_threads {
            let _ = handle.join();
        }
        // Draining stops each engine and drops its completion sender,
        // which is what lets a live engine's dispatcher exit. What a
        // drain still resolves goes to the totals only: the flush above
        // already answered those requests.
        let totals: Vec<ServedTotals> = core
            .apps
            .iter()
            .map(|app| {
                // A watchdog-tripped engine may panic again in drain;
                // its totals are forfeit, the other apps' are not.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    app.engine().drain(drain_virtual)
                }))
                .unwrap_or_default()
            })
            .collect();
        for handle in dispatchers {
            let _ = handle.join();
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::EDGE_ID_BASE;

    #[test]
    fn pending_keys_namespace_apps_and_preserve_app_zero() {
        // App 0's keys are the raw engine ids (the single-app gateway
        // is bit-identical to the pre-multi-tenant one)...
        assert_eq!(pending_key(0, 42), 42);
        assert_eq!(pending_key(0, EDGE_ID_BASE - 1), EDGE_ID_BASE - 1);
        // ...and distinct apps can never collide, even on equal ids.
        assert_ne!(pending_key(1, 42), pending_key(0, 42));
        assert_ne!(pending_key(1, 42), pending_key(2, 42));
        // Round trip through the shutdown flush's decomposition.
        const ID_MASK: u64 = (1u64 << TENANT_SHIFT) - 1;
        let key = pending_key(3, 123_456);
        assert_eq!((key >> TENANT_SHIFT) as usize, 3);
        assert_eq!(key & ID_MASK, 123_456);
    }
}
