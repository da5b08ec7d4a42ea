//! Load generator for the PARD gateway.
//!
//! ```sh
//! # Open loop: replay a synthesised trace at ~120 req/s for 10 s.
//! pard-loadgen --addr 127.0.0.1:7311 --app tm --mode open --rate 120 --duration 10
//!
//! # Open loop over a paper trace shape (wiki / tweet / azure).
//! pard-loadgen --addr 127.0.0.1:7311 --app tm --mode open --trace tweet --duration 30
//!
//! # Closed loop: 8 connections, 100 requests each, back to back.
//! pard-loadgen --addr 127.0.0.1:7311 --app tm --mode closed --requests 100 --connections 8
//! ```
//!
//! Prints a human summary plus one `BENCH_*.json`-style record; `--out
//! FILE` also writes the record to disk.

use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};

use pard_gateway::{LoadMode, LoadgenConfig, Pace};
use pard_workload::{constant, PayloadSpec, TraceKind};

fn usage() -> ! {
    eprintln!(
        "usage: pard-loadgen --addr HOST:PORT [--app NAME] [--mode open|closed]\n\
         \x20                   [--rate RPS] [--duration SECS] [--trace wiki|tweet|azure]\n\
         \x20                   [--requests N] [--connections N] [--slo-ms MS]\n\
         \x20                   [--tight-frac F] [--scale F] [--pace wall|virtual]\n\
         \x20                   [--seed N] [--mux] [--out FILE]\n\
         \n\
         --app accepts a comma-separated list; connections round-robin\n\
         across the entries (multi-tenant gateways).\n\
         \n\
         --pace virtual stamps each open-loop request with its scheduled\n\
         virtual arrival (at_us) and sends at full speed: against a sim\n\
         backend the replay is deterministic and runs at simulation speed.\n\
         With several connections the run declares a replay group and the\n\
         gateway re-serializes the parties into global schedule order.\n\
         \n\
         --mux multiplexes every open-loop connection onto one epoll\n\
         thread (wall pacing) — the C10K discipline; use it for\n\
         --connections counts in the thousands."
    );
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut config = LoadgenConfig::default();
    let mut mode = "open".to_string();
    let mut rate = 100.0f64;
    let mut duration_s = 10usize;
    let mut trace_kind: Option<TraceKind> = None;
    let mut requests = 100usize;
    let mut out_path: Option<String> = None;

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
            "--addr" => addr = Some(value()),
            "--app" => config.app = value(),
            "--mode" => mode = value(),
            "--rate" => rate = value().parse().unwrap_or_else(|_| usage()),
            "--duration" => duration_s = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace_kind = Some(match value().as_str() {
                    "wiki" => TraceKind::Wiki,
                    "tweet" => TraceKind::Tweet,
                    "azure" => TraceKind::Azure,
                    other => {
                        eprintln!("unknown trace {other:?}");
                        usage()
                    }
                })
            }
            "--requests" => requests = value().parse().unwrap_or_else(|_| usage()),
            "--connections" => config.connections = value().parse().unwrap_or_else(|_| usage()),
            "--slo-ms" => config.slo_ms = Some(value().parse().unwrap_or_else(|_| usage())),
            "--tight-frac" => config.tight_fraction = value().parse().unwrap_or_else(|_| usage()),
            "--scale" => config.time_scale = value().parse().unwrap_or_else(|_| usage()),
            "--pace" => {
                config.pace = match value().as_str() {
                    "wall" => Pace::Wall,
                    "virtual" => Pace::Virtual,
                    other => {
                        eprintln!("unknown pace {other:?}");
                        usage()
                    }
                }
            }
            "--seed" => config.seed = value().parse().unwrap_or_else(|_| usage()),
            "--mux" => config.mux = true,
            "--out" => out_path = Some(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    let Some(addr) = addr else { usage() };
    let addr: SocketAddr = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| {
            eprintln!("cannot resolve {addr:?}");
            std::process::exit(2);
        });

    config.payload = PayloadSpec::default();
    config.mode = match mode.as_str() {
        "open" => {
            let trace = match trace_kind {
                // Paper traces synthesise their own rate envelope; scale
                // it so the requested `--rate` is the mean.
                Some(kind) => kind.build(duration_s, config.seed).scaled_to_mean(rate),
                None => constant(rate, duration_s),
            };
            LoadMode::Open { trace }
        }
        "closed" => LoadMode::Closed {
            requests_per_connection: requests,
        },
        _ => usage(),
    };

    println!(
        "pard-loadgen → {addr}  app={} mode={mode} connections={} scale={}x tight-frac={}",
        config.app, config.connections, config.time_scale, config.tight_fraction
    );
    let report = match pard_gateway::loadgen::run(addr, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("load generation failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render());
    let json = report.to_json(&config.app, &mode, config.connections);
    println!("{json}");
    if let Some(path) = out_path {
        match std::fs::File::create(&path).and_then(|mut f| writeln!(f, "{json}")) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}
