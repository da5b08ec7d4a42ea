//! The observability listener: telemetry frames, and the minimal
//! HTTP/1.x server behind `/metrics`, `/events` (SSE) and
//! `/flightrecord`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pard_metrics::DropReason;
use pard_obs::EngineFrame;

use super::{AppState, Core};
use crate::telemetry::window_rates;

/// One telemetry sample for one app: the cumulative serving counters
/// plus window rates differenced against `prev`, the published
/// admission snapshot's queue state and floor, the app's pending-table
/// share, the summed per-reason drop counters, and the rolling RTT
/// quantiles. Returns the counter snapshot it used so the sampler
/// differences the next frame against exactly what this one reported.
pub(super) fn build_frame(
    core: &Core,
    app: &AppState,
    seq: u64,
    prev: &pard_metrics::CountersSnapshot,
) -> (EngineFrame, pard_metrics::CountersSnapshot) {
    let counts = app.counters.snapshot();
    let snapshot = app.admitter.published();
    let state = snapshot.state();
    let floor = snapshot.floor();
    let module_drops = app.module_drops.snapshot();
    let mut drops_by_reason = vec![0u64; DropReason::ALL.len()];
    for module in &module_drops.counts {
        for (total, n) in drops_by_reason.iter_mut().zip(module) {
            *total += n;
        }
    }
    let rates = window_rates(prev, &counts);
    let [p50, p95, p99] = app.rtt.quantiles();
    let frame = EngineFrame {
        seq,
        t_us: app.engine().now().as_micros(),
        queues: state.queue_depths.clone(),
        workers: state.workers.clone(),
        pending: core.pending.tenant_len(app.index),
        floor_lead_us: floor.lead().as_micros(),
        floor_sub_us: floor.sub_total().as_micros(),
        received: counts.received,
        admitted: counts.admitted,
        rejected: counts.rejected,
        refused: counts.refused,
        completed_ok: counts.completed_ok,
        completed_late: counts.completed_late,
        dropped: counts.dropped,
        drops_by_reason,
        window_goodput: rates.goodput,
        window_violation: rates.violation,
        window_drop: rates.drop,
        rtt_p50_us: p50,
        rtt_p95_us: p95,
        rtt_p99_us: p99,
    };
    (frame, counts)
}

pub(super) fn metrics_loop(listener: TcpListener, core: Arc<Core>) {
    // Each accepted connection gets its own thread: an `/events`
    // subscriber holds its connection open indefinitely and must not
    // block `/metrics` scrapes behind it.
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !core.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let core = Arc::clone(&core);
                conns.retain(|h| !h.is_finished());
                conns.push(std::thread::spawn(move || {
                    let _ = serve_http(stream, &core);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    // Streaming handlers observe the shutdown flag within one wait
    // timeout; one-shot handlers are already gone or about to be.
    for handle in conns {
        let _ = handle.join();
    }
}

/// Minimal HTTP/1.x router for the observability listener: parse the
/// request line, drain the header block, dispatch on the path — one
/// request per connection. A malformed request line gets `400`, a
/// non-GET method `405`, an unknown path `404`. On a multi-app gateway
/// `/events` and `/flightrecord` take `?app=NAME` (default: the first
/// registered app).
fn serve_http(stream: TcpStream, core: &Core) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return Ok(()); // client vanished before sending a request line
    }
    // Drain the header block so the close after a one-shot response is
    // a clean FIN — a client still mid-send would otherwise see an RST
    // clobber the response in flight. Bounded by the read timeout.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(n) if n > 0 && header != "\r\n" && header != "\n" => continue,
            _ => break,
        }
    }
    let mut stream = stream;
    let Some((method, target)) = parse_request_line(&line) else {
        return respond(
            &mut stream,
            "400 Bad Request",
            "text/plain",
            "malformed request line\n",
        );
    };
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    };
    match path {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &render_metrics(core),
        ),
        "/events" => match query_app(core, query) {
            Some(app) => serve_events(&mut stream, core, app),
            None => respond_unknown_app(&mut stream, core),
        },
        "/flightrecord" => match query_app(core, query) {
            Some(app) => serve_flightrecord(&mut stream, app, query),
            None => respond_unknown_app(&mut stream, core),
        },
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "unknown path; try /metrics, /events, or /flightrecord\n",
        ),
    }
}

/// Splits a `METHOD SP TARGET SP HTTP/x.y` request line; `None` when
/// the line does not have that shape.
fn parse_request_line(line: &str) -> Option<(&str, &str)> {
    let mut parts = line.trim_end().split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if method.is_empty()
        || !target.starts_with('/')
        || !version.starts_with("HTTP/")
        || parts.next().is_some()
    {
        return None;
    }
    Some((method, target))
}

/// First value for `key` in a raw query string.
fn query_param<'q>(query: Option<&'q str>, key: &str) -> Option<&'q str> {
    query.into_iter().flat_map(|q| q.split('&')).find_map(|kv| {
        kv.split_once('=')
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
    })
}

/// Resolves the `?app=NAME` selector; no selector means the first
/// registered app, an unknown name means `None` (a 404).
fn query_app<'a>(core: &'a Core, query: Option<&str>) -> Option<&'a Arc<AppState>> {
    match query_param(query, "app") {
        Some(name) => core.by_name.get(name).map(|&index| &core.apps[index]),
        None => core.apps.first(),
    }
}

fn respond_unknown_app(stream: &mut TcpStream, core: &Core) -> io::Result<()> {
    let served: Vec<&str> = core.apps.iter().map(|a| a.name.as_str()).collect();
    respond(
        stream,
        "404 Not Found",
        "text/plain",
        &format!("unknown app (serving {served:?})\n"),
    )
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
}

/// `GET /events`: streams telemetry frames as server-sent events, one
/// `data:` line of JSON per frame. The subscriber always receives the
/// *latest* frame — a laggy consumer skips intermediate frames rather
/// than backpressuring the sampler — and the stream ends at shutdown
/// or when the client disconnects.
fn serve_events(stream: &mut TcpStream, core: &Core, app: &AppState) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
    )?;
    let mut seen = 0u64;
    while !core.shutdown.load(Ordering::SeqCst) {
        // The timeout exists only to re-check the shutdown flag.
        let Some((epoch, frame)) = app.frames.wait_newer(seen, Duration::from_millis(250)) else {
            continue;
        };
        seen = epoch;
        write!(stream, "data: {}\n\n", frame.to_json_line())?;
    }
    Ok(())
}

/// `GET /flightrecord[?last_us=N]`: dumps the app engine's flight-
/// recorder ring as JSONL, oldest event first — the whole retained
/// window, or only events within `N` microseconds of the newest one.
fn serve_flightrecord(
    stream: &mut TcpStream,
    app: &AppState,
    query: Option<&str>,
) -> io::Result<()> {
    let last_us = match query_param(query, "last_us") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                return respond(
                    stream,
                    "400 Bad Request",
                    "text/plain",
                    "last_us must be an unsigned integer of microseconds\n",
                )
            }
        },
        None => None,
    };
    let Some(recorder) = app.admitter.recorder() else {
        return respond(
            stream,
            "404 Not Found",
            "text/plain",
            "the engine behind this app exposes no flight recorder\n",
        );
    };
    let events = match last_us {
        Some(n) => recorder.dump_last_us(n),
        None => recorder.dump(),
    };
    let mut body = String::with_capacity(events.len() * 96 + 1);
    for event in &events {
        body.push_str(&event.to_json_line());
        body.push('\n');
    }
    respond(stream, "200 OK", "application/x-ndjson", &body)
}

/// Renders the Prometheus text exposition: the serving counters, the
/// per-module drop series, plus live queue-depth / goodput gauges.
pub fn render_metrics_text(
    snapshot: pard_metrics::CountersSnapshot,
    module_drops: &pard_metrics::ModuleDropsSnapshot,
    state: &pard_engine_api::EdgeState,
    pending: usize,
) -> String {
    let mut body = snapshot.to_prometheus("pard_gateway");
    body.push_str(&module_drops.to_prometheus("pard_gateway"));
    body.push_str("# TYPE pard_gateway_queue_depth gauge\n");
    for (module, depth) in state.queue_depths.iter().enumerate() {
        body.push_str(&format!(
            "pard_gateway_queue_depth{{module=\"{module}\"}} {depth}\n"
        ));
    }
    body.push_str(&format!(
        "# TYPE pard_gateway_pending_requests gauge\npard_gateway_pending_requests {pending}\n"
    ));
    body.push_str(&format!(
        "# TYPE pard_gateway_goodput_fraction gauge\npard_gateway_goodput_fraction {:.6}\n",
        snapshot.goodput_fraction()
    ));
    body.push_str(&format!(
        "# TYPE pard_gateway_drop_fraction gauge\npard_gateway_drop_fraction {:.6}\n",
        snapshot.drop_fraction()
    ));
    body
}

/// The full `/metrics` body. A single-app gateway's exposition starts
/// with the exact pre-multi-tenant body (the back-compat contract CI
/// greps); a multi-app gateway starts with the same families summed
/// across apps. Either way the per-app `{app="..."}` series follow.
fn render_metrics(core: &Core) -> String {
    let mut body = if core.apps.len() == 1 {
        let app = &core.apps[0];
        // The published snapshot is shared immutable data: rendering
        // reads it through the same `Arc` the admission path uses
        // instead of cloning the whole `EdgeState` per scrape.
        let snapshot = app.admitter.published();
        let mut body = render_metrics_text(
            app.counters.snapshot(),
            &app.module_drops.snapshot(),
            snapshot.state(),
            core.pending.len(),
        );
        body.push_str(&crate::telemetry::render_rtt_lines(
            "pard_gateway",
            app.rtt.quantiles(),
        ));
        body
    } else {
        let mut total = pard_metrics::CountersSnapshot::default();
        for app in &core.apps {
            let s = app.counters.snapshot();
            total.received += s.received;
            total.admitted += s.admitted;
            total.rejected += s.rejected;
            total.completed_ok += s.completed_ok;
            total.completed_late += s.completed_late;
            total.dropped += s.dropped;
            total.refused += s.refused;
            total.rate_limited += s.rate_limited;
            total.protocol_errors += s.protocol_errors;
        }
        let mut body = total.to_prometheus("pard_gateway");
        body.push_str(&format!(
            "# TYPE pard_gateway_pending_requests gauge\npard_gateway_pending_requests {}\n",
            core.pending.len()
        ));
        body.push_str(&format!(
            "# TYPE pard_gateway_goodput_fraction gauge\npard_gateway_goodput_fraction {:.6}\n",
            total.goodput_fraction()
        ));
        body.push_str(&format!(
            "# TYPE pard_gateway_drop_fraction gauge\npard_gateway_drop_fraction {:.6}\n",
            total.drop_fraction()
        ));
        body
    };
    body.push_str(&render_app_series(core));
    body
}

/// Per-app labeled series: every serving-counter family as
/// `pard_gateway_app_<family>_total{app="..."}`, plus per-app pending
/// and queue-depth gauges. App names come from the engine spec and are
/// emitted verbatim (specs use identifier-like names).
fn render_app_series(core: &Core) -> String {
    type Pick = fn(&pard_metrics::CountersSnapshot) -> u64;
    const FAMILIES: [(&str, Pick); 9] = [
        ("received", |s| s.received),
        ("admitted", |s| s.admitted),
        ("rejected", |s| s.rejected),
        ("completed_ok", |s| s.completed_ok),
        ("completed_late", |s| s.completed_late),
        ("dropped", |s| s.dropped),
        ("refused", |s| s.refused),
        ("rate_limited", |s| s.rate_limited),
        ("protocol_errors", |s| s.protocol_errors),
    ];
    let snapshots: Vec<_> = core.apps.iter().map(|a| a.counters.snapshot()).collect();
    let mut body = String::new();
    for (family, pick) in FAMILIES {
        body.push_str(&format!("# TYPE pard_gateway_app_{family}_total counter\n"));
        for (app, snapshot) in core.apps.iter().zip(&snapshots) {
            body.push_str(&format!(
                "pard_gateway_app_{family}_total{{app=\"{}\"}} {}\n",
                app.name,
                pick(snapshot)
            ));
        }
    }
    body.push_str("# TYPE pard_gateway_app_pending_requests gauge\n");
    for app in &core.apps {
        body.push_str(&format!(
            "pard_gateway_app_pending_requests{{app=\"{}\"}} {}\n",
            app.name,
            core.pending.tenant_len(app.index)
        ));
    }
    body.push_str("# TYPE pard_gateway_app_queue_depth gauge\n");
    for app in &core.apps {
        let snapshot = app.admitter.published();
        for (module, depth) in snapshot.state().queue_depths.iter().enumerate() {
            body.push_str(&format!(
                "pard_gateway_app_queue_depth{{app=\"{}\",module=\"{module}\"}} {depth}\n",
                app.name
            ));
        }
    }
    body.push_str("# TYPE pard_gateway_app_healthy gauge\n");
    for app in &core.apps {
        body.push_str(&format!(
            "pard_gateway_app_healthy{{app=\"{}\"}} {}\n",
            app.name,
            u8::from(app.is_healthy())
        ));
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_engine_api::EdgeState;
    use pard_sim::SimDuration;

    #[test]
    fn metrics_text_contains_counters_and_gauges() {
        use pard_metrics::{DropReason, ModuleDropCounters};

        let state = EdgeState {
            queue_depths: vec![3, 1],
            workers: vec![2, 2],
            batch_sizes: vec![4, 4],
            exec_ms: vec![40.0, 20.0],
            slo: SimDuration::from_millis(400),
        };
        let snapshot = pard_metrics::CountersSnapshot {
            received: 10,
            admitted: 8,
            rejected: 2,
            completed_ok: 6,
            dropped: 2,
            ..Default::default()
        };
        let module_drops = ModuleDropCounters::new(2);
        module_drops.record(1, DropReason::PredictedViolation);
        module_drops.record(1, DropReason::SiblingDropped);
        let text = render_metrics_text(snapshot, &module_drops.snapshot(), &state, 2);
        assert!(text.contains("pard_gateway_received_total 10"));
        assert!(text.contains("pard_gateway_rejected_total 2"));
        assert!(text.contains("pard_gateway_queue_depth{module=\"0\"} 3"));
        assert!(text.contains("pard_gateway_queue_depth{module=\"1\"} 1"));
        assert!(text.contains("pard_gateway_pending_requests 2"));
        // Per-module drops are labeled series in the same exposition.
        assert!(text.contains("# TYPE pard_gateway_module_dropped_total counter"));
        assert!(
            text.contains("pard_gateway_module_dropped_total{module=\"1\",reason=\"predicted\"} 1")
        );
        assert!(
            text.contains("pard_gateway_module_dropped_total{module=\"1\",reason=\"sibling\"} 1")
        );
        assert!(
            text.contains("pard_gateway_module_dropped_total{module=\"0\",reason=\"predicted\"} 0")
        );
    }

    #[test]
    fn metrics_scrape_format_is_well_formed() {
        // Every line is either a `# TYPE <name> counter|gauge` header or
        // a `<name>[{labels}] <value>` sample whose value parses —
        // the contract an actual Prometheus scraper holds us to.
        let state = EdgeState {
            queue_depths: vec![0, 0],
            workers: vec![1, 1],
            batch_sizes: vec![4, 4],
            exec_ms: vec![40.0, 20.0],
            slo: SimDuration::from_millis(400),
        };
        let drops = pard_metrics::ModuleDropCounters::new(2);
        drops.record(0, pard_metrics::DropReason::WorkerFailed);
        let mut text = render_metrics_text(
            pard_metrics::CountersSnapshot::default(),
            &drops.snapshot(),
            &state,
            0,
        );
        // The full scrape appends the RTT summary family; hold it to
        // the same contract.
        text.push_str(&crate::telemetry::render_rtt_lines(
            "pard_gateway",
            [150.0, 900.0, 1200.5],
        ));
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("metric name");
                assert!(name.starts_with("pard_gateway_"), "{line}");
                let kind = parts.next().expect("metric kind");
                assert!(
                    kind == "counter" || kind == "gauge" || kind == "summary",
                    "{line}"
                );
                assert_eq!(parts.next(), None, "{line}");
            } else {
                let (series, value) = line.rsplit_once(' ').expect("sample line");
                assert!(series.starts_with("pard_gateway_"), "{line}");
                if let Some(open) = series.find('{') {
                    assert!(series.ends_with('}'), "{line}");
                    let labels = &series[open + 1..series.len() - 1];
                    for label in labels.split(',') {
                        let (key, val) = label.split_once('=').expect("key=\"value\"");
                        assert!(!key.is_empty(), "{line}");
                        assert!(val.starts_with('"') && val.ends_with('"'), "{line}");
                    }
                }
                assert!(value.parse::<f64>().is_ok(), "{line}");
            }
        }
    }

    #[test]
    fn request_line_parser_accepts_http_and_rejects_noise() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("GET /flightrecord?last_us=5000 HTTP/1.0\n"),
            Some(("GET", "/flightrecord?last_us=5000"))
        );
        assert_eq!(
            parse_request_line("POST /events HTTP/1.1\r\n"),
            Some(("POST", "/events"))
        );
        // Shapes that must 400: too few or too many tokens, a target
        // that is not origin-form, a version that is not HTTP.
        assert_eq!(parse_request_line("GET /metrics\r\n"), None);
        assert_eq!(parse_request_line("GET /metrics HTTP/1.1 extra\r\n"), None);
        assert_eq!(parse_request_line("GET metrics HTTP/1.1\r\n"), None);
        assert_eq!(parse_request_line("GET /metrics SPDY/3\r\n"), None);
        assert_eq!(parse_request_line("{\"app\":\"tm\"}\r\n"), None);
    }

    #[test]
    fn query_params_resolve_first_match() {
        assert_eq!(query_param(Some("app=tm&last_us=5"), "app"), Some("tm"));
        assert_eq!(query_param(Some("app=tm&last_us=5"), "last_us"), Some("5"));
        assert_eq!(query_param(Some("last_us=5"), "app"), None);
        assert_eq!(query_param(None, "app"), None);
        assert_eq!(query_param(Some("app=a&app=b"), "app"), Some("a"));
    }
}
