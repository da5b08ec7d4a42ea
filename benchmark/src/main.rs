//! One benchmark for the whole PARD stack: six workloads, measured end
//! to end untraced and layer by layer traced. See `README.md` beside
//! `Cargo.toml` for why each workload exists and `BENCHMARK.json` at
//! the repository root for the metric list and bounds.
//!
//! ```text
//! pard-stack-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload; the last line of standard output is the result object
//! pard-stack-benchmark [--seed N] [--repeat K] [--trace] [--quick] [--out FILE]
//!     every workload, K times; metrics by name with units, and FILE for `compare`
//! ```

mod child;
mod client;
mod gateway;
mod gen;
mod inproc;
mod probes;
mod report;
mod spans;
mod stats;
mod wireio;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::RunResult;
use spans::Tracer;

/// The six workloads, in the order a full pass runs them.
pub const WORKLOADS: [&str; 6] = [
    "replay_tm_burst",
    "replay2_tm_burst",
    "closed_tm_sim",
    "live_da_burst",
    "des_fig08_slice",
    "sweep_tm_grid",
];

/// What one run of one workload is given.
pub struct Ctx {
    /// The release `pard-gateway` binary the gateway workloads spawn.
    pub gateway_bin: PathBuf,
    pub seed: u64,
    /// Seconds of timed window to measure.
    pub seconds: f64,
    pub traced: bool,
}

/// Seconds measured per workload when `--seconds` is not given:
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn usage() -> ! {
    eprintln!(
        "usage: pard-stack-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      pard-stack-benchmark [--seed N] [--repeat K] [--trace] [--quick] [--seconds S] [--out FILE]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn run_workload(
    name: &'static str,
    ctx: &Ctx,
    out_dir: &std::path::Path,
) -> std::io::Result<RunResult> {
    let mut tracer = Tracer::new();
    let mut run = match name {
        "replay_tm_burst" => gateway::replay_tm_burst(ctx, &mut tracer),
        "replay2_tm_burst" => gateway::replay2_tm_burst(ctx, &mut tracer),
        "closed_tm_sim" => gateway::closed_tm_sim(ctx, &mut tracer),
        "live_da_burst" => gateway::live_da_burst(ctx, &mut tracer),
        "des_fig08_slice" => inproc::des_fig08_slice(ctx),
        "sweep_tm_grid" => inproc::sweep_tm_grid(ctx),
        _ => unreachable!("workload names are checked while parsing"),
    }?;
    if ctx.traced {
        probes::layer_walk(ctx, &mut run, &mut tracer);
        tracer.write_jsonl(&out_dir.join(format!("trace-{name}.jsonl")))?;
    }
    Ok(run)
}

/// Runs one workload of a full pass in a process of its own, as the
/// driver does: peak memory and allocator state then belong to that
/// workload alone, and a full pass measures what a single run measures.
/// Relays what the child prints and returns whether it was correct with
/// its last line, the run's element of the `--out` file.
fn run_in_child(
    name: &str,
    ctx: &Ctx,
    out_dir: &std::path::Path,
) -> std::io::Result<(bool, String)> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(["--workload", name, "--for-full-pass"])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if ctx.traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        if !last.is_empty() {
            println!("{last}");
        }
        last = line;
    }
    Ok((child.wait()?.success(), last))
}

fn main() -> ExitCode {
    let mut workload: Option<&'static str> = None;
    let mut seed = 42u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut repeat = 1usize;
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut for_full_pass = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    // run.sh builds both binaries into one directory.
    let gateway_bin = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("pard-gateway")))
        .unwrap_or_else(|| PathBuf::from("pard-gateway"));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut value = || {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == name)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--repeat" => repeat = value().parse().unwrap_or_else(|_| usage()),
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(value())),
            "--out-dir" => out_dir = PathBuf::from(value()),
            // How a full pass runs each workload: see `run_in_child`.
            "--for-full-pass" => for_full_pass = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    traced = false;
                    i += 1;
                }
                Some("1") => {
                    traced = true;
                    i += 1;
                }
                _ => traced = true,
            },
            _ => usage(),
        }
        i += 1;
    }
    if quick {
        seconds /= 5.0;
    }
    if seconds.is_nan() || seconds <= 0.0 || repeat == 0 {
        usage();
    }
    let ctx = Ctx {
        gateway_bin,
        seed,
        seconds,
        traced,
    };

    // One workload: the driver's contract. The result object is the
    // last line; a failed correctness gate also fails the exit code.
    if let Some(name) = workload {
        return match run_workload(name, &ctx, &out_dir) {
            Ok(run) => {
                run.print_human();
                if for_full_pass {
                    println!("{}", run.out_json());
                } else {
                    println!("{}", run.contract_json());
                }
                if run.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // A full pass: every workload, `repeat` times with the same seed,
    // so the deterministic workloads must repeat their digests exactly.
    let mut runs: Vec<String> = Vec::new();
    let mut digests: Vec<(&str, String)> = Vec::new();
    let mut failed = false;
    for _ in 0..repeat {
        for name in WORKLOADS {
            match run_in_child(name, &ctx, &out_dir) {
                Ok((correct, line)) => {
                    failed |= !correct;
                    let digest = line
                        .split_once("\"outcome_digest\": \"")
                        .map(|(_, rest)| rest[..16.min(rest.len())].to_string());
                    let earlier = digests.iter().find(|(w, _)| *w == name);
                    match (earlier, digest) {
                        (Some((_, earlier)), Some(now)) if *earlier != now => {
                            println!(
                                "  INCORRECT: outcome digest {now} differs from an earlier repeat's {earlier}"
                            );
                            failed = true;
                        }
                        (None, Some(now)) => digests.push((name, now)),
                        _ => {}
                    }
                    runs.push(line);
                }
                Err(e) => {
                    eprintln!("{name}: {e}");
                    failed = true;
                }
            }
        }
    }
    if let Some(path) = out {
        let lines: Vec<String> = runs.iter().map(|line| format!("  {line}")).collect();
        let text = format!("{{\"runs\": [\n{}\n]}}\n", lines.join(",\n"));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("{}: {e}", path.display());
            failed = true;
        }
    }
    if failed {
        println!("benchmark: FAILED (see INCORRECT lines above)");
        ExitCode::FAILURE
    } else {
        println!("benchmark: all {} runs correct", runs.len());
        ExitCode::SUCCESS
    }
}
