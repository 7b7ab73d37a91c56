//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tcas_warm|cold_first_verdict|service_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, sets up several times (the median is
//! `setup_s`), measures whole passes over the inputs for at least the given
//! seconds, checks every verdict, and prints as its last stdout line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Throughput,
//! latency percentiles and ratios count every timed operation. The line
//! before the result carries the run context (parallelism, git revision,
//! seed, passes, samples, error rate).
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run repeats its loop with spans around every call into the
//! workspace, probes each layer, and reports the per-layer metrics plus the
//! tracing overhead. A failed correctness check exits with status 1; bad
//! arguments or a failed setup exit with status 2.

mod catalog;
mod cold;
mod layers;
mod mix;
mod report;
mod stats;
mod trace;
mod warm;

use report::{Measured, Metric};
use service::Json;
use std::time::Instant;
use trace::{Recording, Tracer};

/// The workloads. `BENCHMARK.json` lists `tcas_warm` and `service_mix`;
/// `cold_first_verdict` runs by name only: its median latency, set by the
/// allocation-heavy TCAS front end, moved by up to 1.5× between runs on a
/// shared 2-vCPU host, wider than any bound a comparison could use.
const WORKLOADS: [&str; 3] = ["tcas_warm", "cold_first_verdict", "service_mix"];

/// Set-ups per run: at least [`SETUP_REPS`], and more while they have
/// taken less than [`SETUP_MIN_S`] seconds in total, so a set-up of a few
/// milliseconds still gets a steady median (`setup_s`).
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result of one workload invocation.
struct Outcome {
    measured: Measured,
    metrics: Vec<Metric>,
    recording: Recording,
}

/// Runs `setup` repeatedly (see [`SETUP_REPS`]), returning the last state
/// and every set-up's wall-clock seconds.
fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last: Option<S> = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        // Drop the previous state first so set-ups do not overlap in memory.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Runs the timed loop; in trace mode, once untraced and once traced
/// (half the seconds each), returning the traced passes (with both runs'
/// correctness counts) and the tracing overhead in percent
/// ([`report::overhead_pct`]).
fn timed<F>(args: &Args, tracer: &Tracer, mut run: F) -> (Measured, Option<f64>)
where
    F: FnMut(f64, usize, &Tracer) -> Measured,
{
    if !args.trace {
        return (
            run(
                args.seconds,
                stats::min_samples_for(report::TAIL_PCT),
                tracer,
            ),
            None,
        );
    }
    let plain = run(args.seconds / 2.0, 1, &Tracer::new(false));
    let mut traced = run(args.seconds / 2.0, 1, tracer);
    let overhead = report::overhead_pct(&plain, &traced);
    traced.add_counts(plain);
    (traced, Some(overhead))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let seed = args.seed;
    let (measured, setup_s, overhead, probe_metrics) = match args.workload.as_str() {
        "tcas_warm" => {
            let (state, setup_s) = repeated_setup(|| warm::setup(seed, &tracer))?;
            let (mut measured, overhead) =
                timed(args, &tracer, |s, n, t| warm::run(&state, s, n, t));
            let probes = if args.trace {
                layers::warm_probes(&state, &tracer, &mut measured)?
            } else {
                Vec::new()
            };
            (measured, setup_s, overhead, probes)
        }
        "cold_first_verdict" => {
            let (state, setup_s) = repeated_setup(|| cold::setup(seed))?;
            let mut first = cold::FirstRanks::new();
            let (mut measured, overhead) = timed(args, &tracer, |s, n, t| {
                cold::run(&state, &mut first, s, n, t)
            });
            cold::verify(&state, &first, &mut measured);
            let probes = if args.trace {
                layers::cold_probes(&state, &tracer, &mut measured)?
            } else {
                Vec::new()
            };
            (measured, setup_s, overhead, probes)
        }
        "service_mix" => {
            let (state, setup_s) = repeated_setup(|| mix::setup(seed, &tracer))?;
            let (cases, hot) = (state.cases.clone(), state.hot_cases());
            let (mut measured, overhead, mut probes) = mix::measure(state, args, &tracer)?;
            if args.trace {
                probes.extend(layers::service_probes(
                    &cases,
                    &hot,
                    &tracer,
                    &mut measured,
                )?);
            }
            (measured, setup_s, overhead, probes)
        }
        other => unreachable!("workload {other} was validated"),
    };
    // The service workload's stores live here; remove it once empty.
    let _ = std::fs::remove_dir(mix::SCRATCH_DIR);
    let rss = report::peak_rss_mb();
    let recording = tracer.finish();
    let metrics = if args.trace {
        let mut metrics = layers::per_layer(&recording, &probe_metrics);
        metrics.push(Metric {
            name: "trace.overhead_pct",
            value: overhead.expect("trace mode measures overhead"),
            unit: "%",
        });
        metrics
    } else {
        report::end_to_end(&measured, &setup_s, rss)
    };
    Ok(Outcome {
        measured,
        metrics,
        recording,
    })
}

/// The git revision of the working directory, or `unknown` when it is not
/// a git checkout (git is kept from searching above it).
fn git_revision() -> String {
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", above)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    let m = &outcome.measured;
    for line in &m.mismatches {
        eprintln!("perfbench: MISMATCH {line}");
    }
    if args.trace {
        eprintln!(
            "{:<24} {:>8} {:>14} {:>14}",
            "span", "calls", "total_us", "self_us"
        );
        for (name, t) in trace::totals(&outcome.recording.spans) {
            eprintln!(
                "{name:<24} {:>8} {:>14.1} {:>14.1}",
                t.calls,
                t.total_ns as f64 / 1e3,
                t.self_ns as f64 / 1e3
            );
        }
    }
    for metric in &outcome.metrics {
        eprintln!("{:<28} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    eprintln!("{:<28} {:>14.4} ratio", "error_rate", report::error_rate(m));
    let slowest = m.latencies_ms.iter().copied().fold(0.0, f64::max);
    eprintln!("{:<28} {:>14.4} ms", "latency_max_ms", slowest);
    let correct = m.mismatches.is_empty() && m.failed == 0 && m.attempted > 0;
    let context = Json::obj(vec![
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("trace", Json::Bool(args.trace)),
        (
            "available_parallelism",
            Json::from(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
        ),
        ("git_revision", Json::str(git_revision())),
        ("passes", Json::from(m.passes)),
        ("samples", Json::from(m.attempted)),
        ("timed_s", Json::Float(m.seconds)),
        ("error_rate", Json::Float(report::error_rate(m))),
    ]);
    println!("{}", Json::obj(vec![("context", context)]));
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|metric| {
                (
                    metric.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Float(metric.value)),
                        ("unit", Json::str(metric.unit)),
                    ]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(m.attempted)),
            ("failed", Json::from(m.failed)),
            ("metrics", metrics),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}
