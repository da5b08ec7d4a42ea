//! The PARD serving gateway.
//!
//! ```sh
//! # Live backend: the simulated cluster on the wall clock, compressed
//! # --scale times (any pipeline shape, DAG split/merge included):
//! pard-gateway --app da --backend live --addr 127.0.0.1:7311 --metrics 127.0.0.1:7312 \
//!              --workers 2 --scale 1 [--seed 42] [--duration 30]
//!
//! # Deterministic simulator backend (closed-loop runs reproduce
//! # exactly from --seed and the request order):
//! pard-gateway --app da --backend sim --seed 42
//!
//! # Multi-tenant: two apps behind one listener, each with its own
//! # engine, edge rate limit, and weighted pending-table share:
//! pard-gateway --app tm --app lv --backend sim \
//!              --rate-limit tm:500:100 --weight tm:3 --weight lv:1
//!
//! # Arbitrary pipeline from a JSON spec file:
//! pard-gateway --pipeline my_pipeline.json --backend sim
//! ```
//!
//! Serves the chosen pipelines over the v2 newline-delimited JSON
//! protocol, routing each request by its wire `app` field and rejecting
//! hopeless requests at the edge via PARD admission. With `--duration`
//! the gateway shuts itself down after that many wall seconds and
//! prints the run summary; without it, it serves until killed.

use std::time::Duration;

use pard_engine_api::{Backend, ClusterConfig, EngineBuilder, LiveConfig};
use pard_gateway::{AppConfig, Gateway, GatewayConfig, RateLimit};
use pard_pipeline::{AppKind, PipelineSpec};

fn usage() -> ! {
    eprintln!(
        "usage: pard-gateway [--app tm|lv|gm|da ... | --pipeline SPEC.json]\n\
         \x20                   [--backend live|sim] [--addr HOST:PORT] [--metrics HOST:PORT]\n\
         \x20                   [--workers N] [--scale F] [--seed N] [--max-pending N]\n\
         \x20                   [--rate-limit APP:RATE:BURST] [--weight APP:W]\n\
         \x20                   [--shards N] [--no-replay]\n\
         \x20                   [--duration SECS]\n\
         \n\
         --app may repeat (or take a comma-separated list): each entry is\n\
         served as its own tenant behind the one listener, routed by the\n\
         wire `app` field. --rate-limit gives a tenant a token-bucket edge\n\
         limit; --weight sets its share of the guaranteed half of the\n\
         pending table (default 1). --shards sets the I/O event-loop\n\
         thread count."
    );
    std::process::exit(2);
}

fn die(message: impl std::fmt::Display) -> ! {
    eprintln!("pard-gateway: {message}");
    std::process::exit(2);
}

fn parse_app(name: &str) -> PipelineSpec {
    match AppKind::ALL.into_iter().find(|app| app.name() == name) {
        Some(app) => app.pipeline(),
        None => {
            let known: Vec<&str> = AppKind::ALL.iter().map(|a| a.name()).collect();
            die(format!(
                "unknown app {name:?} (builtins: {}); a serving gateway answers requests \
                 for unknown apps with error_code \"unknown_app\"",
                known.join(", ")
            ))
        }
    }
}

/// `APP:RATE:BURST` → (app, limit).
fn parse_rate_limit(text: &str) -> (String, RateLimit) {
    let parts: Vec<&str> = text.split(':').collect();
    let parsed = match parts.as_slice() {
        [app, rate, burst] => rate
            .parse::<f64>()
            .ok()
            .zip(burst.parse::<f64>().ok())
            .filter(|(rate, burst)| *rate > 0.0 && *burst > 0.0)
            .map(|(rate_per_sec, burst)| {
                (
                    app.to_string(),
                    RateLimit {
                        rate_per_sec,
                        burst,
                    },
                )
            }),
        _ => None,
    };
    parsed.unwrap_or_else(|| {
        die(format!(
            "invalid --rate-limit {text:?} (expected APP:RATE:BURST with positive numbers)"
        ))
    })
}

/// `APP:W` → (app, weight).
fn parse_weight(text: &str) -> (String, usize) {
    let parsed = match text.split_once(':') {
        Some((app, w)) => w
            .parse::<usize>()
            .ok()
            .filter(|w| *w > 0)
            .map(|w| (app.to_string(), w)),
        None => None,
    };
    parsed.unwrap_or_else(|| {
        die(format!(
            "invalid --weight {text:?} (expected APP:W with W >= 1)"
        ))
    })
}

fn main() {
    let mut apps: Vec<String> = Vec::new();
    let mut pipeline_path: Option<String> = None;
    let mut backend = "live".to_string();
    let mut config = GatewayConfig::default();
    let mut workers = 2usize;
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut duration: Option<u64> = None;
    let mut rate_limits: Vec<(String, RateLimit)> = Vec::new();
    let mut weights: Vec<(String, usize)> = Vec::new();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut value = || -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    usage()
                })
                .clone()
        };
        match flag.as_str() {
            "--app" => apps.extend(
                value()
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from),
            ),
            "--pipeline" => pipeline_path = Some(value()),
            "--backend" => backend = value(),
            "--addr" => config.addr = value(),
            "--metrics" => config.metrics_addr = value(),
            "--workers" => workers = value().parse().unwrap_or_else(|_| usage()),
            "--scale" => scale = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--max-pending" => config.max_pending = value().parse().unwrap_or_else(|_| usage()),
            "--rate-limit" => rate_limits.push(parse_rate_limit(&value())),
            "--weight" => weights.push(parse_weight(&value())),
            "--shards" => config.shards = value().parse().unwrap_or_else(|_| usage()),
            "--no-replay" => config.allow_replay = false,
            "--duration" => duration = Some(value().parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    let specs: Vec<PipelineSpec> = match (&apps[..], pipeline_path) {
        ([], None) => vec![parse_app("tm")],
        (names, None) => names.iter().map(|name| parse_app(name)).collect(),
        ([], Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(format!("cannot read {path:?}: {e}")));
            vec![PipelineSpec::from_json(&text)
                .unwrap_or_else(|e| die(format!("invalid pipeline spec {path:?}: {e}")))]
        }
        (_, Some(_)) => die("--app and --pipeline are mutually exclusive"),
    };
    let served: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    for (app, _) in &rate_limits {
        if !served.contains(app) {
            die(format!("--rate-limit names unserved app {app:?}"));
        }
    }
    for (app, _) in &weights {
        if !served.contains(app) {
            die(format!("--weight names unserved app {app:?}"));
        }
    }

    let backend_name = match backend.as_str() {
        "live" | "sim" => backend.clone(),
        other => die(format!("unknown backend {other:?} (live, sim)")),
    };

    let mut app_configs = Vec::new();
    let mut banner = Vec::new();
    for spec in specs {
        let modules = spec.modules.len();
        let name = spec.name.clone();
        let slo = spec.slo;
        let cluster = ClusterConfig::default()
            .with_seed(seed)
            .with_fixed_workers(vec![workers; modules])
            .with_pard(pard_core::PardConfig::default().with_mc_draws(1_000));
        let backend = match backend.as_str() {
            // The live serving model: no modelled network delay or
            // execution jitter; arrival stamps come from the wall clock.
            "live" => Backend::Live(LiveConfig {
                time_scale: scale,
                cluster: ClusterConfig {
                    net_delay: pard_sim::SimDuration::ZERO,
                    exec_jitter_sigma: 0.0,
                    ..cluster
                },
            }),
            _ => Backend::Sim(cluster),
        };
        let engine = EngineBuilder::new(spec)
            .build(backend)
            .unwrap_or_else(|e| die(e));
        let mut app = AppConfig::new(engine);
        app.rate_limit = rate_limits
            .iter()
            .find(|(a, _)| *a == name)
            .map(|(_, limit)| *limit);
        if let Some((_, weight)) = weights.iter().find(|(a, _)| *a == name) {
            app.weight = *weight;
        }
        let limit_text = match &app.rate_limit {
            Some(limit) => format!(" limit {}rps burst {}", limit.rate_per_sec, limit.burst),
            None => String::new(),
        };
        banner.push(format!(
            "{name} ({modules} modules, SLO {slo}, weight {}{limit_text})",
            app.weight
        ));
        app_configs.push(app);
    }

    let gateway = match Gateway::start_multi(app_configs, config) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("failed to start gateway: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "pard-gateway serving {} on {} backend={backend_name}  metrics on http://{}/metrics",
        banner.join(", "),
        gateway.addr(),
        gateway.metrics_addr(),
    );

    match duration {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs(secs));
            let names = gateway.app_names();
            let snapshots: Vec<_> = names
                .iter()
                .filter_map(|name| gateway.counters_of(name))
                .collect();
            let served = gateway.shutdown_multi(pard_sim::SimDuration::from_secs(10));
            println!("--- run summary ---");
            for ((name, snapshot), totals) in names.iter().zip(&snapshots).zip(&served) {
                println!(
                    "[{name}] received {}  admitted {}  edge-rejected {}  rate-limited {}  ok {}  \
                     late {}  dropped {}  protocol-errors {}",
                    snapshot.received,
                    snapshot.admitted,
                    snapshot.rejected,
                    snapshot.rate_limited,
                    snapshot.completed_ok,
                    snapshot.completed_late,
                    snapshot.dropped,
                    snapshot.protocol_errors,
                );
                println!(
                    "[{name}] engine served: {} requests, goodput {}, drops {}",
                    totals.requests, totals.goodput, totals.dropped
                );
            }
        }
        None => {
            // Serve until killed.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
}
