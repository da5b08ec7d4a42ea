//! The benchmark's load generator: an open loop (virtual or wall
//! pacing, one sender and one reader thread over one or two
//! connections) and a single-threaded closed loop. It owns its socket
//! loops; nothing here calls `pard_gateway::{client, loadgen}`.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gen::Arrival;
use crate::report::Slice;
use crate::wireio::{push_advance, push_join, push_request, scan_reply, Code, LineBuffer};

/// Bytes buffered per connection before a virtual-paced sender writes.
/// Far below the loopback socket buffers, so with two connections the
/// sender alternates between them often enough that neither party of a
/// replay group runs more than one chunk ahead of the other.
const CHUNK: usize = 32 * 1024;

/// A run gives up when no reply arrives for this long; what is still
/// outstanding counts as unanswered.
const STALL: Duration = Duration::from_secs(20);

/// In a traced run every `SAMPLE_EVERY`-th `seq` gets request spans.
pub const SAMPLE_EVERY: u64 = 16;

/// Requests per slice of a flooding or closed-loop window: about half a
/// second of work, the same requests from run to run.
pub const SLICE_LEN: usize = 65_536;

/// Where the reading side stood when a slice ended.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// ns since the run's origin.
    pub at_ns: u64,
    /// Replies seen so far.
    pub answered: u64,
    /// What the run's [`Meter`] read.
    pub cpu_us: u64,
}

/// Reads the CPU time the system under test has used so far, µs. The
/// reading side calls it at every mark, from its own thread.
pub type Meter<'a> = &'a (dyn Fn() -> u64 + Sync);

/// The slices between consecutive marks. When the run samples request
/// times it does so in the even slices only (see [`in_sampled_slice`]).
pub fn slices(marks: &[Mark], sample: bool) -> Vec<Slice> {
    marks
        .windows(2)
        .enumerate()
        .map(|(k, pair)| Slice {
            wall_s: (pair[1].at_ns - pair[0].at_ns) as f64 / 1e9,
            requests: pair[1].answered - pair[0].answered,
            cpu_us: pair[1].cpu_us.saturating_sub(pair[0].cpu_us),
            traced: sample && k % 2 == 0,
        })
        .collect()
}

/// Whether the `index`-th request of a window gets request spans in a
/// traced run: every [`SAMPLE_EVERY`]-th one of every other slice (of
/// every slice when the window is not cut into slices).
fn in_sampled_slice(index: u64, slice_len: usize) -> bool {
    index.is_multiple_of(SAMPLE_EVERY)
        && (slice_len == 0 || (index / slice_len as u64).is_multiple_of(2))
}

/// How an open loop paces its sends.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Flood the socket; every request carries `at_us = base_us + due`
    /// and a trailing `advance_us` to `flush_us` resolves the tail.
    Virtual { base_us: u64, flush_us: u64 },
    /// Send each request when its due time arrives on the wall clock.
    Wall,
}

/// The timestamps of one sampled request, ns since the run's origin.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestTimes {
    pub seq: u64,
    pub write_start: u64,
    pub write_end: u64,
    pub read_return: u64,
    pub parsed: u64,
}

/// What the client saw of one batch of requests.
pub struct ClientLog {
    /// Outcome per request, indexed by `seq - first_seq` ([`Code`] as u8).
    pub codes: Vec<u8>,
    /// Reply-reported latency per request, µs (0 when none).
    pub latency_us: Vec<u32>,
    /// Wall µs from due time (send time in the closed loop) to reply,
    /// completed requests.
    pub rtt_us: Vec<f64>,
    /// The same for dropped requests: how early a shed request learns it.
    pub drop_rtt_us: Vec<f64>,
    /// Wall µs from due time to the write that carried the request.
    pub late_us: Vec<f64>,
    /// Duration of each write call, µs.
    pub write_us: Vec<f64>,
    /// Read calls that returned data.
    pub reads: u64,
    /// Replies that were duplicates or carried no usable `seq`.
    pub stray: u64,
    /// First write to last reply.
    pub wall: Duration,
    /// What the sampled requests' timestamps count from.
    pub origin: Instant,
    /// Sampled requests (traced runs only).
    pub sampled: Vec<RequestTimes>,
    /// The origin, then the end of every full slice.
    pub marks: Vec<Mark>,
}

impl ClientLog {
    pub fn count(&self, code: Code) -> u64 {
        self.codes.iter().filter(|&&c| c == code as u8).count() as u64
    }

    pub fn answered(&self) -> u64 {
        self.codes.len() as u64 - self.count(Code::Unanswered)
    }

    /// Error envelopes, unparseable or stray lines, and requests never
    /// answered.
    pub fn failed(&self) -> u64 {
        self.count(Code::Error)
            + self.count(Code::Unparseable)
            + self.count(Code::Unanswered)
            + self.stray
    }
}

pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Declares `conns` one replay group (a no-op for a single connection).
pub fn join_group(conns: &[TcpStream]) -> std::io::Result<()> {
    if conns.len() > 1 {
        let mut line = Vec::new();
        push_join(&mut line, conns.len() as u64);
        for mut conn in conns {
            conn.write_all(&line)?;
        }
    }
    Ok(())
}

/// One open-loop batch: `schedule[i]` travels as `seq = first_seq + i`
/// on connection `seq % conns.len()`.
pub struct OpenLoop<'a> {
    pub app: &'a str,
    pub schedule: &'a [Arrival],
    pub first_seq: u64,
    pub pacing: Pacing,
    /// Requests per slice; 0 leaves the window whole.
    pub slice_len: usize,
    pub meter: Meter<'a>,
    /// Record [`RequestTimes`] of the requests [`in_sampled_slice`].
    pub sample: bool,
}

struct SenderLog {
    write_us: Vec<f64>,
    /// Per request: ns from origin to the start of its write.
    sent_ns: Vec<u64>,
    /// `(seq, write_start, write_end)` of sampled requests.
    sampled: Vec<(u64, u64, u64)>,
    first_write: Option<Instant>,
}

fn send_all(
    conns: &[TcpStream],
    plan: &OpenLoop<'_>,
    origin: Instant,
) -> std::io::Result<SenderLog> {
    let k = conns.len() as u64;
    let mut log = SenderLog {
        write_us: Vec::new(),
        sent_ns: vec![0; plan.schedule.len()],
        sampled: Vec::new(),
        first_write: None,
    };
    let mut bufs: Vec<Vec<u8>> = (0..k).map(|_| Vec::with_capacity(CHUNK + 1024)).collect();
    // Indices buffered on each connection and not yet written.
    let mut buffered: Vec<Vec<usize>> = (0..k).map(|_| Vec::new()).collect();
    let flush =
        |c: usize, bufs: &mut Vec<Vec<u8>>, buffered: &mut Vec<Vec<usize>>, log: &mut SenderLog| {
            if bufs[c].is_empty() {
                return Ok(());
            }
            let start = Instant::now();
            log.first_write.get_or_insert(start);
            (&conns[c]).write_all(&bufs[c])?;
            let end = Instant::now();
            log.write_us.push((end - start).as_secs_f64() * 1e6);
            let (start_ns, end_ns) = (
                (start - origin).as_nanos() as u64,
                (end - origin).as_nanos() as u64,
            );
            for &i in &buffered[c] {
                log.sent_ns[i] = start_ns;
                if plan.sample && in_sampled_slice(i as u64, plan.slice_len) {
                    log.sampled
                        .push((plan.first_seq + i as u64, start_ns, end_ns));
                }
            }
            bufs[c].clear();
            buffered[c].clear();
            std::io::Result::Ok(())
        };
    match plan.pacing {
        Pacing::Virtual { base_us, flush_us } => {
            for (i, arrival) in plan.schedule.iter().enumerate() {
                let seq = plan.first_seq + i as u64;
                let c = (seq % k) as usize;
                push_request(
                    &mut bufs[c],
                    plan.app,
                    seq,
                    arrival,
                    Some(base_us + arrival.at_us),
                );
                buffered[c].push(i);
                if bufs[c].len() >= CHUNK {
                    flush(c, &mut bufs, &mut buffered, &mut log)?;
                }
            }
            for c in 0..k as usize {
                push_advance(&mut bufs[c], flush_us);
                flush(c, &mut bufs, &mut buffered, &mut log)?;
            }
        }
        Pacing::Wall => {
            let due = |i: usize| origin + Duration::from_micros(plan.schedule[i].at_us);
            let mut i = 0;
            while i < plan.schedule.len() {
                if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                // Everything that has come due goes out in one write.
                let now = Instant::now();
                while i < plan.schedule.len() && due(i) <= now {
                    let seq = plan.first_seq + i as u64;
                    let c = (seq % k) as usize;
                    push_request(&mut bufs[c], plan.app, seq, &plan.schedule[i], None);
                    buffered[c].push(i);
                    i += 1;
                }
                for c in 0..k as usize {
                    flush(c, &mut bufs, &mut buffered, &mut log)?;
                }
            }
        }
    }
    Ok(log)
}

/// Runs one open-loop batch to completion: a scoped sender thread
/// writes the schedule while the calling thread reads and scans
/// replies. `tick`, when given, is called from the reading thread about
/// every `period` (the traced live run samples `/metrics` there).
pub fn open_loop(
    conns: &[TcpStream],
    plan: &OpenLoop<'_>,
    mut tick: Option<(&mut dyn FnMut(Instant), Duration)>,
) -> std::io::Result<ClientLog> {
    let n = plan.schedule.len();
    let k = conns.len();
    let origin = Instant::now();
    let mut log = ClientLog {
        codes: vec![Code::Unanswered as u8; n],
        latency_us: vec![0; n],
        rtt_us: Vec::new(),
        drop_rtt_us: Vec::new(),
        late_us: Vec::new(),
        write_us: Vec::new(),
        reads: 0,
        stray: 0,
        wall: Duration::ZERO,
        origin,
        sampled: Vec::new(),
        marks: vec![Mark {
            at_ns: 0,
            answered: 0,
            cpu_us: (plan.meter)(),
        }],
    };
    let mut answered = 0u64;
    let mut outstanding: Vec<usize> = (0..k)
        .map(|c| {
            (0..n)
                .filter(|i| (plan.first_seq as usize + i) % k == c)
                .count()
        })
        .collect();
    // With two connections a blocked read on one must not starve the
    // other, so reads time out quickly; with one it only bounds how
    // stale the stall check and the tick can get.
    let timeout = if k > 1 {
        Duration::from_millis(1)
    } else {
        Duration::from_millis(50)
    };
    for conn in conns {
        conn.set_read_timeout(Some(timeout))?;
    }
    let wall_paced = matches!(plan.pacing, Pacing::Wall);
    let mut read_times: Vec<(u64, u64, u64)> = Vec::new();
    let mut last_reply = origin;
    let sender = std::thread::scope(|scope| {
        let sender = scope.spawn(|| send_all(conns, plan, origin));
        let mut lines: Vec<LineBuffer> = (0..k).map(|_| LineBuffer::default()).collect();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut progress = Instant::now();
        let mut next_tick = Instant::now();
        'read: while outstanding.iter().any(|&o| o > 0) {
            for c in 0..k {
                if outstanding[c] == 0 {
                    continue;
                }
                match (&conns[c]).read(&mut chunk) {
                    Ok(0) => break 'read,
                    Ok(got) => {
                        let read_return = Instant::now();
                        log.reads += 1;
                        progress = read_return;
                        last_reply = read_return;
                        let read_ns = (read_return - origin).as_nanos() as u64;
                        lines[c].feed(&chunk[..got], |line| {
                            let reply = scan_reply(line);
                            let index = reply
                                .seq
                                .and_then(|s| s.checked_sub(plan.first_seq))
                                .map(|i| i as usize)
                                .filter(|&i| i < n && log.codes[i] == Code::Unanswered as u8);
                            let Some(i) = index else {
                                log.stray += 1;
                                return;
                            };
                            log.codes[i] = reply.code as u8;
                            log.latency_us[i] =
                                reply.latency_us.unwrap_or(0).min(u32::MAX as u64) as u32;
                            outstanding[c] = outstanding[c].saturating_sub(1);
                            answered += 1;
                            if wall_paced {
                                let rtt = read_ns as f64 / 1e3 - plan.schedule[i].at_us as f64;
                                match reply.code {
                                    Code::Ok | Code::Violated => log.rtt_us.push(rtt),
                                    Code::DroppedEdge | Code::DroppedPipeline => {
                                        log.drop_rtt_us.push(rtt)
                                    }
                                    _ => {}
                                }
                            }
                            if plan.sample && in_sampled_slice(i as u64, plan.slice_len) {
                                let parsed = (Instant::now() - origin).as_nanos() as u64;
                                read_times.push((plan.first_seq + i as u64, read_ns, parsed));
                            }
                        });
                        let slice = plan.slice_len as u64;
                        if slice > 0 && answered / slice >= log.marks.len() as u64 {
                            log.marks.push(Mark {
                                at_ns: read_ns,
                                answered,
                                cpu_us: (plan.meter)(),
                            });
                        }
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break 'read,
                }
            }
            let now = Instant::now();
            if now - progress > STALL {
                break;
            }
            if let Some((tick, period)) = tick.as_mut() {
                if now >= next_tick {
                    tick(now);
                    next_tick = now + *period;
                }
            }
        }
        sender.join().expect("sender thread panicked")
    })?;
    log.wall = last_reply - sender.first_write.unwrap_or(origin);
    log.write_us = sender.write_us;
    if wall_paced {
        log.late_us = sender
            .sent_ns
            .iter()
            .zip(plan.schedule)
            .map(|(&sent, a)| sent as f64 / 1e3 - a.at_us as f64)
            .collect();
    }
    // Join the two threads' halves of each sampled request.
    read_times.sort_unstable();
    for (seq, write_start, write_end) in sender.sampled {
        if let Ok(at) = read_times.binary_search_by_key(&seq, |r| r.0) {
            log.sampled.push(RequestTimes {
                seq,
                write_start,
                write_end,
                read_return: read_times[at].1,
                parsed: read_times[at].2,
            });
        }
    }
    Ok(log)
}

/// What a closed loop counted between two instants.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub by_code: [u64; 7],
}

impl Tally {
    pub fn answered(&self) -> u64 {
        self.by_code.iter().sum()
    }

    pub fn count(&self, code: Code) -> u64 {
        self.by_code[code as usize]
    }

    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut by_code = [0; 7];
        for (slot, (now, then)) in by_code
            .iter_mut()
            .zip(self.by_code.iter().zip(earlier.by_code))
        {
            *slot = now - then;
        }
        Tally {
            sent: self.sent - earlier.sent,
            by_code,
        }
    }
}

/// The closed loop's result: lifetime totals, the timed window's share
/// of them, and the window's latency samples.
pub struct ClosedLog {
    pub total: Tally,
    pub window: Tally,
    pub window_wall: Duration,
    /// Requests sent and never answered (lifetime).
    pub unanswered: u64,
    pub stray: u64,
    pub rtt_us: Vec<f64>,
    pub drop_rtt_us: Vec<f64>,
    pub write_us: Vec<f64>,
    pub reads: u64,
    pub origin: Instant,
    pub sampled: Vec<RequestTimes>,
    /// The start of the window, then the end of every full slice of
    /// [`SLICE_LEN`] replies in it.
    pub marks: Vec<Mark>,
}

/// One closed-loop run: `mix` is cycled for the per-request SLO and
/// payload length.
pub struct ClosedLoop<'a> {
    pub app: &'a str,
    pub mix: &'a [Arrival],
    /// Requests kept outstanding.
    pub depth: usize,
    pub warm_up: Duration,
    pub window: Duration,
    pub meter: Meter<'a>,
    /// Record [`RequestTimes`] of the requests [`in_sampled_slice`].
    pub sample: bool,
}

/// Keeps `plan.depth` requests outstanding on one connection from one
/// thread: a reply releases the next request, and the requests released
/// by one `read` go out in one `write`. Runs `warm_up` untimed, calls
/// `mark` right before the `window` that follows starts and right after
/// it has ended (that is where the caller samples `/proc`, outside the
/// timed stretch), then stops sending and drains.
pub fn closed_loop(
    conn: &TcpStream,
    plan: &ClosedLoop<'_>,
    mut mark: impl FnMut(),
) -> std::io::Result<ClosedLog> {
    let ClosedLoop {
        app,
        mix,
        depth,
        warm_up,
        window,
        meter,
        sample,
    } = *plan;
    /// Send times are kept in a ring indexed by `seq`; outstanding
    /// requests span at most `depth` consecutive seqs.
    const RING: usize = 1024;
    assert!(depth < RING);
    conn.set_read_timeout(Some(Duration::from_millis(50)))?;
    let origin = Instant::now();
    let mut log = ClosedLog {
        total: Tally::default(),
        window: Tally::default(),
        window_wall: Duration::ZERO,
        unanswered: 0,
        stray: 0,
        rtt_us: Vec::new(),
        drop_rtt_us: Vec::new(),
        write_us: Vec::new(),
        reads: 0,
        origin,
        sampled: Vec::new(),
        marks: Vec::new(),
    };
    let mut sent_ns = [(0u64, 0u64); RING];
    let mut open = vec![false; RING];
    let mut next_seq = 0u64;
    let mut out = Vec::with_capacity(depth * 700);
    let mut lines = LineBuffer::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut release = depth;
    let mut window_start: Option<(Instant, Tally)> = None;
    let mut window_end: Option<Instant> = None;
    // Slices count from the first request the window sends.
    let mut window_first_seq = 0u64;
    let mut progress = origin;
    loop {
        let now = Instant::now();
        if window_start.is_none() && now - origin >= warm_up {
            mark();
            let start = Instant::now();
            window_start = Some((start, log.total));
            window_first_seq = next_seq;
            log.marks.push(Mark {
                at_ns: (start - origin).as_nanos() as u64,
                answered: 0,
                cpu_us: meter(),
            });
        }
        if let (Some((start, tally)), None) = (&window_start, window_end) {
            if now - *start >= window {
                log.window = log.total.since(tally);
                log.window_wall = now - *start;
                window_end = Some(now);
                mark();
            }
        }
        let timed = window_start.is_some() && window_end.is_none();
        if window_end.is_none() && release > 0 {
            out.clear();
            let first = next_seq;
            for _ in 0..release {
                let arrival = &mix[next_seq as usize % mix.len()];
                push_request(&mut out, app, next_seq, arrival, None);
                next_seq += 1;
            }
            let start = Instant::now();
            (&*conn).write_all(&out)?;
            let end = Instant::now();
            let (start_ns, end_ns) = (
                (start - origin).as_nanos() as u64,
                (end - origin).as_nanos() as u64,
            );
            for seq in first..next_seq {
                sent_ns[seq as usize % RING] = (start_ns, end_ns);
                open[seq as usize % RING] = true;
            }
            log.total.sent += release as u64;
            if timed {
                log.write_us.push((end - start).as_secs_f64() * 1e6);
            }
            release = 0;
        }
        if window_end.is_some() && log.total.sent == log.total.answered() {
            break;
        }
        match (&*conn).read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => {
                let read_return = Instant::now();
                progress = read_return;
                let read_ns = (read_return - origin).as_nanos() as u64;
                if timed {
                    log.reads += 1;
                }
                lines.feed(&chunk[..got], |line| {
                    let reply = scan_reply(line);
                    let slot = reply
                        .seq
                        .filter(|&s| s < next_seq && open[s as usize % RING])
                        .map(|s| s as usize % RING);
                    let Some(slot) = slot else {
                        log.stray += 1;
                        return;
                    };
                    open[slot] = false;
                    log.total.by_code[reply.code as usize] += 1;
                    release += 1;
                    if !timed {
                        return;
                    }
                    let (write_start, write_end) = sent_ns[slot];
                    let rtt = (read_ns - write_start) as f64 / 1e3;
                    match reply.code {
                        Code::Ok | Code::Violated => log.rtt_us.push(rtt),
                        Code::DroppedEdge | Code::DroppedPipeline => log.drop_rtt_us.push(rtt),
                        _ => {}
                    }
                    let seq = reply.seq.unwrap_or(0);
                    if sample
                        && seq >= window_first_seq
                        && in_sampled_slice(seq - window_first_seq, SLICE_LEN)
                    {
                        log.sampled.push(RequestTimes {
                            seq,
                            write_start,
                            write_end,
                            read_return: read_ns,
                            parsed: (Instant::now() - origin).as_nanos() as u64,
                        });
                    }
                });
                if let (true, Some((_, tally))) = (timed, &window_start) {
                    let answered = log.total.since(tally).answered();
                    if answered / SLICE_LEN as u64 >= log.marks.len() as u64 {
                        log.marks.push(Mark {
                            at_ns: read_ns,
                            answered,
                            cpu_us: meter(),
                        });
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if Instant::now() - progress > STALL {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    log.unanswered = log.total.sent - log.total.answered();
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_become_slices_and_a_traced_run_samples_every_other_one() {
        let mark = |at_ms: u64, answered, cpu_us| Mark {
            at_ns: at_ms * 1_000_000,
            answered,
            cpu_us,
        };
        let marks = [
            mark(0, 0, 100),
            mark(500, 65_600, 400_100),
            mark(900, 131_100, 700_100),
        ];
        let cut = slices(&marks, true);
        assert_eq!(cut.len(), 2);
        assert_eq!((cut[0].wall_s, cut[0].requests), (0.5, 65_600));
        assert_eq!((cut[1].requests, cut[1].cpu_us), (65_500, 300_000));
        assert!(cut[0].traced && !cut[1].traced);
        assert!(slices(&marks, false).iter().all(|s| !s.traced));
        assert!(slices(&marks[..1], true).is_empty());

        // Every 16th request of the even slices; of all of them when the
        // window is whole.
        assert!(in_sampled_slice(16, SLICE_LEN));
        assert!(!in_sampled_slice(17, SLICE_LEN));
        assert!(!in_sampled_slice(SLICE_LEN as u64 + 16, SLICE_LEN));
        assert!(in_sampled_slice(2 * SLICE_LEN as u64 + 16, SLICE_LEN));
        assert!(in_sampled_slice(SLICE_LEN as u64 + 16, 0));
    }
}
