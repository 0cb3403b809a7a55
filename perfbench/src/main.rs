//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--threads T]`
//!
//! Prints a record line (host, config, measured workload properties) and,
//! last, one JSON result line whose `correct` says whether every output
//! check passed. Exits 2 on a bad invocation.

use std::path::PathBuf;
use zodiac_obs::CountingAlloc;
use zodiac_perfbench::report::{END_TO_END, PER_LAYER};
use zodiac_perfbench::{daemon, host, pipeline};

/// The daemon's allocator, installed as `zodiacd` installs it.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const USAGE: &str = "usage: perfbench --workload pipeline-600|daemon-read|daemon-churn \
--seed N --seconds S --trace 0|1 [--threads T]";

/// Directory, relative to the working directory, that holds daemon stores
/// while a run lasts.
const STATE_DIR: &str = ".bench_state";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut threads) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value for --seconds: {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            "--threads" => threads = Some(value.parse::<usize>().map_err(bad)?),
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        threads,
    })
}

fn main() {
    CountingAlloc::set_global(&ALLOC);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = host::nproc();
    let cap = nproc.min(2);
    let threads = args.threads.unwrap_or(cap);
    if threads == 0 || threads > cap {
        eprintln!(
            "perfbench: {threads} threads requested; this host has nproc = {nproc} and a \
             workload may use at most min(2, nproc) = {cap}"
        );
        std::process::exit(2);
    }
    let (kind, used) = match args.workload.as_str() {
        "pipeline-600" => (None, threads),
        "daemon-read" => (Some(daemon::Kind::Read), threads),
        "daemon-churn" => (Some(daemon::Kind::Churn), 1),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (steal0, ticks0) = host::cpu_ticks();
    let state = PathBuf::from(STATE_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&state).expect("the state directory can be created");
    let mut out = match kind {
        None => pipeline::run(args.seed, args.seconds, threads, args.trace),
        Some(kind) => daemon::run(kind, args.seed, args.seconds, used, args.trace, &state),
    };
    // Every workload reports every layer. A traced run measures the layers
    // its workload does not run with one traced probe of the other side at
    // the same seed: a pipeline run, or a `daemon-churn` segment (whose
    // delta and store layers `daemon-read` lacks).
    if args.trace {
        if kind.is_some() {
            out.absorb_probe("pipeline", pipeline::probe(args.seed, threads));
        }
        if kind != Some(daemon::Kind::Churn) {
            out.absorb_probe("daemon", daemon::probe(args.seed, &state));
        }
    }
    let _ = std::fs::remove_dir_all(&state);
    // Drop the parent too when no other run is using it.
    let _ = std::fs::remove_dir(STATE_DIR);
    let manifest: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = out.order_metrics(manifest) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    out.note("workload", args.workload.as_str());
    out.note("seed", args.seed);
    out.note("trace", u64::from(args.trace));
    out.note("nproc", nproc);
    out.note("threads", used);
    out.note("allocator", "zodiac_obs::CountingAlloc over System");
    out.note(
        "peak_heap_mib",
        ALLOC.peak_bytes() as f64 / (1024.0 * 1024.0),
    );
    let (steal1, ticks1) = host::cpu_ticks();
    out.note(
        "host_steal_pct",
        100.0 * (steal1 - steal0) as f64 / (ticks1 - ticks0).max(1) as f64,
    );
    for m in &out.mismatches {
        eprintln!("perfbench: check failed: {m}");
    }
    println!("{}", out.record_line());
    println!("{}", out.result_line());
}
