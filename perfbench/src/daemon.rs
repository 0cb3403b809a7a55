//! `daemon-read` and `daemon-churn`: closed-loop clients of an in-process
//! `zodiac_daemon::Daemon`.
//!
//! A run is a sequence of segments. Each segment opens a fresh daemon on a
//! fresh store (its set-up, one `setup_s` sample) and then replays the same
//! seeded request schedule to the end. A fixed schedule per segment keeps
//! the daemon's memo sizes, and so its memory, independent of how fast the
//! host happens to run; segments repeat until `--seconds` of timed replay
//! have passed.

use crate::report::Outcome;
use crate::rng::{digest, Rng, Zipf};
use crate::stats::{median, median_us, quantile};
use crate::verify::{check_mined_set, check_scan_response, expected_scan, Expected};
use serde::{Map, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;
use zodiac_corpus::{CorpusConfig, ProjectStream};
use zodiac_daemon::protocol::{Request, Response};
use zodiac_daemon::{Daemon, DaemonConfig};
use zodiac_kb::KnowledgeBase;
use zodiac_model::Program;
use zodiac_obs::Obs;
use zodiac_spec::Check;

/// Seed-corpus size: the working set of repeat scans.
pub const CORPUS_PROJECTS: usize = 600;
/// Scan mix per block of requests: repeats of corpus programs, permuted
/// re-renderings of them, never-seen programs. Exact per block, shuffled
/// within it, so every segment has the same shares.
pub const MIX: [(Class, usize); 3] = [(Class::Repeat, 44), (Class::Permuted, 5), (Class::Fresh, 1)];
/// Requests per mix block.
pub const BLOCK: usize = 50;
/// Zipf exponent of repeat popularity. At 0.7 the top 10 of 600 programs
/// draw 20% of repeats and the top 60 draw 43%: skewed, yet the scan
/// median spans enough programs not to hinge on the size of a few.
const ZIPF_EXPONENT: f64 = 0.7;
/// `daemon-read`: scans per client per segment.
pub const READ_SCANS_PER_CLIENT: usize = 25_000;
/// `daemon-churn`: deltas per segment, projects each delta upserts (and
/// removes), scans after each delta.
pub const CHURN_DELTAS: usize = 100;
pub const CHURN_K: usize = 4;
pub const CHURN_SCANS_PER_DELTA: usize = 50;
/// Start-up deltas carry the seed corpus in chunks of this many projects.
const STARTUP_CHUNK: usize = 100;
/// One repeat scan in this many is checked against a standalone scan.
const REPEAT_SAMPLE: usize = 100;
/// Sources timed by each standalone probe.
const PROBE_SOURCES: usize = 300;

/// Stream tags separating the seeded generators.
const STREAM_ZIPF: u64 = 1;
const STREAM_SAMPLE: u64 = 2;
const STREAM_CLIENT: u64 = 100;
const STREAM_SEGMENT: u64 = 1000;
/// Corpus-seed offsets of the never-seen scan programs and the projects
/// deltas upsert.
const FRESH_SEED: u64 = 0x6E57_0001;
const CHURN_SEED: u64 = 0x6E57_0002;

/// Request class of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A corpus program, exactly as first served: both memos hit.
    Repeat,
    /// A corpus program re-rendered with its resources in another order
    /// under a header comment: misses the compile memo, hits the verdict
    /// cache.
    Permuted,
    /// A program from a second stream: misses both.
    Fresh,
}

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Churn,
}

/// The seeded inputs of one run. Everything the daemon receives is here.
pub struct Plan {
    pub kind: Kind,
    /// Distinct scan request lines; the first `CORPUS_PROJECTS` are the
    /// corpus programs.
    pub lines: Vec<String>,
    /// Class of each line.
    pub classes: Vec<Class>,
    /// Per client, the order in which it sends lines.
    pub clients: Vec<Vec<u32>>,
    /// Per client, positions whose responses are checked.
    pub checked: Vec<Vec<u32>>,
    /// Delta requests that load the seed corpus (`daemon-churn`).
    pub startup: Vec<String>,
    /// Timed delta requests, one before each run of scans (`daemon-churn`).
    pub deltas: Vec<String>,
    /// `(project id, source)` live after the last delta (`daemon-churn`).
    pub final_corpus: Vec<(String, String)>,
    /// Corpus programs, for mining the `daemon-read` check set.
    pub corpus_programs: Vec<Program>,
}

fn corpus_config(seed: u64, projects: usize) -> CorpusConfig {
    let mut cfg = zodiac::PipelineConfig::evaluation().corpus;
    cfg.seed = seed;
    cfg.projects = projects;
    cfg
}

fn scan_line(source: &str) -> String {
    let req: Map<String, Value> = [
        ("op".to_string(), Value::String("scan".into())),
        ("format".to_string(), Value::String("tf".into())),
        ("source".to_string(), Value::String(source.to_string())),
    ]
    .into_iter()
    .collect();
    serde_json::to_string(&Value::Object(req)).expect("a JSON value serialises")
}

fn delta_line(upsert: &[(String, String)], remove: &[String]) -> String {
    let upsert = upsert
        .iter()
        .map(|(id, src)| {
            Value::Object(
                [
                    ("project".to_string(), Value::String(id.clone())),
                    ("source".to_string(), Value::String(src.clone())),
                ]
                .into_iter()
                .collect(),
            )
        })
        .collect();
    let remove = remove.iter().map(|id| Value::String(id.clone())).collect();
    let req: Map<String, Value> = [
        (
            "op".to_string(),
            Value::String("submit_corpus_delta".into()),
        ),
        ("upsert".to_string(), Value::Array(upsert)),
        ("remove".to_string(), Value::Array(remove)),
    ]
    .into_iter()
    .collect();
    serde_json::to_string(&Value::Object(req)).expect("a JSON value serialises")
}

impl Plan {
    /// Builds the inputs of `kind` at `seed` for `clients` scan clients.
    pub fn new(kind: Kind, seed: u64, clients: usize) -> Plan {
        let corpus = zodiac_corpus::generate(&corpus_config(seed, CORPUS_PROJECTS));
        let sources: Vec<String> = corpus.iter().map(|p| p.to_hcl()).collect();
        let scans_per_client = match kind {
            Kind::Read => READ_SCANS_PER_CLIENT,
            Kind::Churn => CHURN_DELTAS * CHURN_SCANS_PER_DELTA,
        };
        let fresh_per_client = scans_per_client / BLOCK * MIX[2].1;
        let mut fresh = ProjectStream::new(&corpus_config(
            seed ^ FRESH_SEED,
            fresh_per_client * clients,
        ));

        let mut lines: Vec<String> = sources.iter().map(|s| scan_line(s)).collect();
        let mut classes = vec![Class::Repeat; lines.len()];
        let zipf = Zipf::new(
            CORPUS_PROJECTS,
            ZIPF_EXPONENT,
            &mut Rng::new(seed, STREAM_ZIPF),
        );
        let mut sample = Rng::new(seed, STREAM_SAMPLE);
        let mut client_seqs = Vec::with_capacity(clients);
        let mut checked = Vec::with_capacity(clients);
        for c in 0..clients {
            let mut rng = Rng::new(seed, STREAM_CLIENT + c as u64);
            let mut seq = Vec::with_capacity(scans_per_client);
            let mut check = Vec::new();
            let mut block: Vec<Class> = MIX
                .iter()
                .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
                .collect();
            while seq.len() < scans_per_client {
                rng.shuffle(&mut block);
                for &class in &block {
                    let pos = seq.len() as u32;
                    let line = match class {
                        Class::Repeat => {
                            if sample.below(REPEAT_SAMPLE) == 0 {
                                check.push(pos);
                            }
                            zipf.pick(&mut rng)
                        }
                        Class::Permuted => {
                            let base = zipf.pick(&mut rng);
                            let mut program = corpus[base].program.clone();
                            rng.shuffle(program.resources_mut());
                            let source =
                                format!("# revision {c}.{pos}\n{}", zodiac_hcl::to_hcl(&program));
                            check.push(pos);
                            lines.push(scan_line(&source));
                            classes.push(class);
                            lines.len() - 1
                        }
                        Class::Fresh => {
                            let project = fresh.next().expect("the stream is sized for the plan");
                            check.push(pos);
                            lines.push(scan_line(&project.to_hcl()));
                            classes.push(class);
                            lines.len() - 1
                        }
                    };
                    seq.push(line as u32);
                }
            }
            seq.truncate(scans_per_client);
            check.retain(|&p| (p as usize) < scans_per_client);
            client_seqs.push(seq);
            checked.push(check);
        }

        let (mut startup, mut deltas, mut final_corpus) = (Vec::new(), Vec::new(), Vec::new());
        if kind == Kind::Churn {
            let seeded: Vec<(String, String)> = corpus
                .iter()
                .zip(&sources)
                .map(|(p, s)| (p.name.clone(), s.clone()))
                .collect();
            for chunk in seeded.chunks(STARTUP_CHUNK) {
                startup.push(delta_line(chunk, &[]));
            }
            let mut live: std::collections::VecDeque<(String, String)> = seeded.into();
            let mut stream =
                ProjectStream::new(&corpus_config(seed ^ CHURN_SEED, CHURN_DELTAS * CHURN_K));
            for d in 0..CHURN_DELTAS {
                let upsert: Vec<(String, String)> = (0..CHURN_K)
                    .map(|j| {
                        let p = stream.next().expect("the stream is sized for the plan");
                        (format!("churn-{:05}", d * CHURN_K + j), p.to_hcl())
                    })
                    .collect();
                let remove: Vec<String> = (0..CHURN_K)
                    .filter_map(|_| live.pop_front().map(|(id, _)| id))
                    .collect();
                deltas.push(delta_line(&upsert, &remove));
                live.extend(upsert);
            }
            final_corpus = live.into();
        }

        Plan {
            kind,
            lines,
            classes,
            clients: client_seqs,
            checked,
            startup,
            deltas,
            final_corpus,
            corpus_programs: corpus.into_iter().map(|p| p.program).collect(),
        }
    }

    /// A digest of everything the daemon receives, in sending order.
    pub fn digest(&self) -> u64 {
        let startup = self.startup.iter().map(|s| s.as_bytes());
        let sequences = self
            .clients
            .iter()
            .flat_map(|seq| seq.iter().map(|&i| self.lines[i as usize].as_bytes()));
        let deltas = self.deltas.iter().map(|s| s.as_bytes());
        digest(startup.chain(deltas).chain(sequences))
    }
}

/// Per-request timings of a traced segment, in nanoseconds.
#[derive(Default)]
struct Traced {
    parse: Vec<u32>,
    render: Vec<u32>,
    handle_hit: Vec<u32>,
    handle_permuted: Vec<u32>,
    handle_miss: Vec<u32>,
    delta_handle: Vec<u32>,
}

/// What one client measured in one segment.
#[derive(Default)]
struct ClientResult {
    latencies_ns: Vec<u32>,
    start: Option<Instant>,
    end: Option<Instant>,
    failed: Vec<String>,
    /// Scans sent, and served from the verdict cache, by class.
    sent: [u64; 3],
    cached: [u64; 3],
    /// Responses at the checked positions.
    checked: Vec<(u32, String)>,
    traced: Traced,
}

fn nanos(t: Instant) -> u32 {
    t.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

/// Sends one request, timing it end to end, and in traced mode its parse,
/// handle and render steps.
fn send(
    daemon: &Daemon,
    line: &str,
    traced: Option<&mut Traced>,
    class: Option<Class>,
) -> (String, u32) {
    let t0 = Instant::now();
    let Some(tr) = traced else {
        let resp = daemon.handle_line(line);
        return (resp, nanos(t0));
    };
    let req = Request::parse(line);
    let parse_ns = nanos(t0);
    let t1 = Instant::now();
    let (resp, handle_ns) = match req {
        Ok(req) => {
            let r = daemon.handle(req);
            (r, nanos(t1))
        }
        Err(e) => (Response::err(&e), nanos(t1)),
    };
    let t2 = Instant::now();
    let rendered = resp.render();
    let render_ns = nanos(t2);
    let total = nanos(t0);
    tr.parse.push(parse_ns);
    tr.render.push(render_ns);
    match class {
        None => tr.delta_handle.push(handle_ns),
        Some(_) if !rendered.contains("\"cached\":true") => tr.handle_miss.push(handle_ns),
        Some(Class::Permuted) => tr.handle_permuted.push(handle_ns),
        Some(_) => tr.handle_hit.push(handle_ns),
    }
    (rendered, total)
}

fn is_ok(resp: &str) -> bool {
    resp.contains("\"ok\":true")
}

/// Replays one client's schedule (for `daemon-churn`, interleaved with the
/// deltas).
fn run_client(
    daemon: &Daemon,
    plan: &Plan,
    client: usize,
    barrier: &Barrier,
    trace: bool,
    delta_ns: &mut Vec<u32>,
    delta_responses: &mut Vec<String>,
) -> ClientResult {
    let seq = &plan.clients[client];
    let mut r = ClientResult {
        latencies_ns: Vec::with_capacity(seq.len()),
        ..Default::default()
    };
    let mut checked = plan.checked[client].iter().peekable();
    barrier.wait();
    r.start = Some(Instant::now());
    for (pos, &line) in seq.iter().enumerate() {
        if plan.kind == Kind::Churn && pos % CHURN_SCANS_PER_DELTA == 0 {
            let delta = &plan.deltas[pos / CHURN_SCANS_PER_DELTA];
            let (resp, ns) = send(daemon, delta, trace.then_some(&mut r.traced), None);
            delta_ns.push(ns);
            if !is_ok(&resp) {
                r.failed
                    .push(format!("delta {}: {resp}", pos / CHURN_SCANS_PER_DELTA));
            }
            delta_responses.push(resp);
        }
        let class = plan.classes[line as usize];
        let (resp, ns) = send(
            daemon,
            &plan.lines[line as usize],
            trace.then_some(&mut r.traced),
            Some(class),
        );
        r.latencies_ns.push(ns);
        r.sent[class as usize] += 1;
        if resp.contains("\"cached\":true") {
            r.cached[class as usize] += 1;
        }
        if !is_ok(&resp) {
            r.failed
                .push(format!("scan {pos} of client {client}: {resp}"));
        }
        if checked.peek() == Some(&&(pos as u32)) {
            checked.next();
            r.checked.push((pos as u32, resp));
        }
    }
    r.end = Some(Instant::now());
    r
}

fn status(daemon: &Daemon) -> Value {
    serde_json::from_str(&daemon.handle_line(r#"{"op":"status"}"#)).unwrap_or(Value::Null)
}

fn field_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Everything a run accumulates over its segments.
#[derive(Default)]
struct Totals {
    setups: Vec<f64>,
    scans: u64,
    timed_s: f64,
    failed: Vec<String>,
    sent: [u64; 3],
    cached: [u64; 3],
    deltas: u64,
    delta_responses: Vec<String>,
    store_bytes: Vec<f64>,
    cache_hit_ratio: Vec<f64>,
    cache_entries: Vec<f64>,
    traced: Traced,
    /// Per untraced segment: requests (scans and deltas) per second, their
    /// p50, and scan p99 and delta p50 and p90, all in ms.
    ops_per_s_untraced: Vec<f64>,
    op_p50_ms: Vec<f64>,
    scan_p99_ms: Vec<f64>,
    delta_p50_ms: Vec<f64>,
    delta_p90_ms: Vec<f64>,
    ops_per_s_traced: Vec<f64>,
    served_checks: Vec<Check>,
    /// Per client and segment, the responses at the checked positions.
    checked: Vec<(usize, Vec<(u32, String)>)>,
}

/// Opens a daemon on a fresh store under `dir` and runs the workload's
/// set-up. Returns the daemon and its set-up time in seconds.
fn setup(plan: &Plan, dir: &Path, checks: &[Check], failed: &mut Vec<String>) -> (Daemon, f64) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("the store directory can be created");
    let t0 = Instant::now();
    let (daemon, _) =
        Daemon::open(dir, DaemonConfig::default(), Obs::null()).expect("a fresh store opens");
    match plan.kind {
        Kind::Read => {
            if let Err(e) = daemon.import_checks(checks) {
                failed.push(format!("import_checks: {e}"));
            }
            // One warm pass over the working set: what a serving daemon
            // has seen before its steady state.
            for line in &plan.lines[..CORPUS_PROJECTS] {
                let resp = daemon.handle_line(line);
                if !is_ok(&resp) {
                    failed.push(format!("warm scan: {resp}"));
                }
            }
        }
        Kind::Churn => {
            for (i, line) in plan.startup.iter().enumerate() {
                let resp = daemon.handle_line(line);
                if !is_ok(&resp) {
                    failed.push(format!("start-up delta {i}: {resp}"));
                }
            }
        }
    }
    (daemon, t0.elapsed().as_secs_f64())
}

/// Runs one segment and folds it into `t`.
fn segment(plan: &Plan, dir: &Path, checks: &[Check], trace: bool, t: &mut Totals) {
    let (daemon, setup_s) = setup(plan, dir, checks, &mut t.failed);
    t.setups.push(setup_s);
    let before = status(&daemon);
    let barrier = Barrier::new(plan.clients.len());
    let mut delta_ns = Vec::new();
    let mut delta_responses = Vec::new();
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 1..plan.clients.len() {
            let (daemon, barrier) = (&daemon, &barrier);
            handles.push(s.spawn(move || {
                run_client(
                    daemon,
                    plan,
                    c,
                    barrier,
                    trace,
                    &mut Vec::new(),
                    &mut Vec::new(),
                )
            }));
        }
        let mut results = vec![run_client(
            &daemon,
            plan,
            0,
            &barrier,
            trace,
            &mut delta_ns,
            &mut delta_responses,
        )];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked")),
        );
        results
    });
    let start = results
        .iter()
        .filter_map(|r| r.start)
        .min()
        .expect("clients ran");
    let end = results
        .iter()
        .filter_map(|r| r.end)
        .max()
        .expect("clients ran");
    let wall = (end - start).as_secs_f64();
    let scans: u64 = results.iter().map(|r| r.latencies_ns.len() as u64).sum();
    let requests = scans + delta_ns.len() as u64;
    t.timed_s += wall;
    t.scans += scans;
    t.deltas += delta_ns.len() as u64;
    if trace {
        t.ops_per_s_traced.push(requests as f64 / wall);
    } else {
        let mut lat: Vec<u32> = results
            .iter()
            .flat_map(|r| r.latencies_ns.iter().copied())
            .collect();
        lat.sort_unstable();
        t.scan_p99_ms.push(quantile(&lat, 0.99) / 1e6);
        let mut all = lat;
        all.extend_from_slice(&delta_ns);
        all.sort_unstable();
        t.ops_per_s_untraced.push(requests as f64 / wall);
        t.op_p50_ms.push(quantile(&all, 0.50) / 1e6);
        if !delta_ns.is_empty() {
            delta_ns.sort_unstable();
            t.delta_p50_ms.push(quantile(&delta_ns, 0.50) / 1e6);
            t.delta_p90_ms.push(quantile(&delta_ns, 0.90) / 1e6);
        }
    }
    t.delta_responses.extend(delta_responses);

    let after = status(&daemon);
    let window_scans = field_u64(&after, "scans") - field_u64(&before, "scans");
    let window_hits = field_u64(&after, "cache_hits") - field_u64(&before, "cache_hits");
    t.cache_hit_ratio.push(ratio(window_hits, window_scans));
    t.cache_entries
        .push(field_u64(&after, "cache_entries") as f64);

    for (client, r) in results.into_iter().enumerate() {
        for c in 0..3 {
            t.sent[c] += r.sent[c];
            t.cached[c] += r.cached[c];
        }
        t.failed.extend(r.failed);
        if trace {
            t.traced.parse.extend(r.traced.parse);
            t.traced.render.extend(r.traced.render);
            t.traced.handle_hit.extend(r.traced.handle_hit);
            t.traced.handle_permuted.extend(r.traced.handle_permuted);
            t.traced.handle_miss.extend(r.traced.handle_miss);
            t.traced.delta_handle.extend(r.traced.delta_handle);
        }
        if plan.kind == Kind::Read {
            t.checked.push((client, r.checked));
        }
    }

    let served: Vec<Check> = daemon.snapshot().plain().to_vec();
    match plan.kind {
        Kind::Read => {
            // Verified after the run, against verdicts computed once.
            if t.served_checks.is_empty() {
                t.served_checks = served;
            } else if t.served_checks != served {
                t.failed
                    .push("served check set changed between segments".into());
            }
        }
        Kind::Churn => {
            t.store_bytes.push(
                std::fs::metadata(dir.join(zodiac_daemon::store::LOG_NAME))
                    .map_or(0.0, |m| m.len() as f64),
            );
            let listed = daemon.handle_line(r#"{"op":"list_checks"}"#);
            if let Err(e) = check_live_set(plan, &listed) {
                t.failed.push(e);
            }
            t.served_checks = served;
        }
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(dir);
}

/// Checks a churn segment's live mined set against batch mining over its
/// final live corpus.
fn check_live_set(plan: &Plan, list_checks: &str) -> Result<(), String> {
    let programs = plan
        .final_corpus
        .iter()
        .map(|(id, src)| zodiac_hcl::compile(src).map_err(|e| format!("{id}: {e}")))
        .collect::<Result<Vec<Program>, String>>()
        .map_err(|e| format!("final corpus does not compile: {e}"))?;
    let kb = zodiac_kb::azure_kb();
    let batch: Vec<Check> = zodiac_mining::mine(&programs, &kb, &Default::default())
        .checks
        .into_iter()
        .map(|c| c.check)
        .collect();
    check_mined_set(list_checks, &batch).map_err(|e| format!("live mined set: {e}"))
}

/// Verifies the checked `daemon-read` responses against standalone scans
/// of the served set. Returns the number of responses verified.
fn verify_read(plan: &Plan, kb: &KnowledgeBase, threads: usize, t: &mut Totals) -> u64 {
    let checked = std::mem::take(&mut t.checked);
    let mut lines: Vec<u32> = checked
        .iter()
        .flat_map(|(client, responses)| {
            responses
                .iter()
                .map(|(pos, _)| plan.clients[*client][*pos as usize])
        })
        .collect();
    lines.sort_unstable();
    lines.dedup();
    // Standalone scans are the costly part: spread them over the
    // workload's threads.
    let served = &t.served_checks;
    let chunk = lines.len().div_ceil(threads.max(1)).max(1);
    let expected: HashMap<u32, Result<Expected, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = lines
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&line| {
                            let want = match Request::parse(&plan.lines[line as usize]) {
                                Ok(Request::Scan { source, .. }) => {
                                    expected_scan(&source, served, kb)
                                }
                                _ => Err("not a scan request".into()),
                            };
                            (line, want)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a verifier thread panicked"))
            .collect()
    });
    let mut verified = 0;
    for (client, responses) in checked {
        for (pos, resp) in responses {
            verified += 1;
            let res = match &expected[&plan.clients[client][pos as usize]] {
                Ok(want) => check_scan_response(&resp, want),
                Err(e) => Err(e.clone()),
            };
            if let Err(e) = res {
                t.failed.push(format!("client {client} scan {pos}: {e}"));
            }
        }
    }
    verified
}

/// Times standalone compile, fingerprint and scan over `sources`: medians
/// in microseconds.
fn probes(sources: &[String], checks: &[Check], kb: &KnowledgeBase) -> (f64, f64, f64) {
    let (mut compile, mut fp, mut scan) = (Vec::new(), Vec::new(), Vec::new());
    for src in sources {
        let t = Instant::now();
        let Ok(program) = zodiac_hcl::compile(src) else {
            continue;
        };
        compile.push(nanos(t));
        let t = Instant::now();
        std::hint::black_box(zodiac_deployer::fingerprint(&program));
        fp.push(nanos(t));
        let t = Instant::now();
        std::hint::black_box(zodiac::scan_program(&program, checks, kb));
        scan.push(nanos(t));
    }
    (median_us(&compile), median_us(&fp), median_us(&scan))
}

/// The seed of `daemon-churn` segment `k > 0`.
pub fn segment_seed(seed: u64, k: usize) -> u64 {
    Rng::new(seed, STREAM_SEGMENT + k as u64).next_u64()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs a daemon workload for `seconds` of timed replay.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    clients: usize,
    trace: bool,
    state: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let t_inputs = Instant::now();
    let mut plan = Plan::new(kind, seed, clients);
    let kb = zodiac_kb::azure_kb();
    let checks: Vec<Check> = match kind {
        Kind::Read => zodiac_mining::mine(&plan.corpus_programs, &kb, &Default::default())
            .checks
            .into_iter()
            .map(|c| c.check)
            .collect(),
        Kind::Churn => Vec::new(),
    };
    out.note("inputs_s", t_inputs.elapsed().as_secs_f64());
    out.note("clients", clients);
    // Of the first segment; churn segment k replays the plan of
    // `segment_seed(seed, k)`.
    out.note("schedule_digest", format!("{:016x}", plan.digest()));
    out.note("store_filesystem", crate::host::filesystem_of(state));

    let dir: PathBuf = state.join("store");
    let mut t = Totals::default();
    let mut segments = 0usize;
    // In a traced run, traced segments alternate with untraced ones, so
    // both see the same host phases.
    while t.timed_s < seconds || (trace && segments < 2) {
        let traced = trace && segments % 2 == 1;
        if kind == Kind::Churn && segments > 0 {
            // Delta and rescan costs depend on the corpus, so each churn
            // segment draws its own from the seed and the run averages
            // over several. (A read plan costs seconds to build and
            // verify; read segments share one.)
            plan = Plan::new(kind, segment_seed(seed, segments), clients);
        }
        segment(&plan, &dir, &checks, traced, &mut t);
        segments += 1;
    }
    out.note("segments", segments);

    let mut attempted = t.scans + t.deltas;
    if kind == Kind::Read {
        let t_verify = Instant::now();
        attempted += verify_read(&plan, &kb, clients, &mut t);
        out.note("verify_s", t_verify.elapsed().as_secs_f64());
    } else {
        // One live-set check per segment.
        attempted += segments as u64;
    }
    out.attempted = attempted;
    for f in std::mem::take(&mut t.failed) {
        out.fail(f);
    }

    // The measured workload properties a cache change can cite.
    let sent: u64 = t.sent.iter().sum();
    for (class, name) in [
        (Class::Repeat, "repeat"),
        (Class::Permuted, "permuted"),
        (Class::Fresh, "never_seen"),
    ] {
        let c = class as usize;
        out.note(format!("share_{name}"), ratio(t.sent[c], sent));
        out.note(
            format!("verdict_cache_hit_ratio_{name}"),
            ratio(t.cached[c], t.sent[c]),
        );
    }
    out.note(
        "verdict_cache_hit_ratio",
        ratio(t.cached.iter().sum(), sent),
    );

    if !trace {
        // Medians over segments, so a slow host phase or a run of slow
        // fsyncs that covers one segment does not move them.
        out.metric("setup_s", median(&t.setups), "s");
        out.metric("peak_rss_mib", crate::host::peak_rss_mib(), "MiB");
        out.metric("op_p50_ms", median(&t.op_p50_ms), "ms");
        out.metric("ops_per_s", median(&t.ops_per_s_untraced), "1/s");
        // Split by request kind, for reading a change; not gated.
        out.note("scan_p99_ms", median(&t.scan_p99_ms));
        if kind == Kind::Churn {
            out.note("delta_p50_ms", median(&t.delta_p50_ms));
            out.note("delta_p90_ms", median(&t.delta_p90_ms));
        }
        return out;
    }

    layer_metrics(&plan, &kb, &t, &mut out);
    let untraced = median(&t.ops_per_s_untraced);
    out.metric(
        "tracing.overhead_pct",
        100.0 * (untraced / median(&t.ops_per_s_traced) - 1.0),
        "%",
    );
    out
}

/// One traced `daemon-churn` segment at `seed`, for the daemon layers of a
/// workload that does not run them all itself. Its store lives under
/// `state`.
pub fn probe(seed: u64, state: &Path) -> Outcome {
    let plan = Plan::new(Kind::Churn, seed, 1);
    let kb = zodiac_kb::azure_kb();
    let mut t = Totals::default();
    segment(&plan, &state.join("probe"), &[], true, &mut t);
    let mut out = Outcome {
        // Its requests and its live-set check.
        attempted: t.scans + t.deltas + 1,
        ..Default::default()
    };
    for f in std::mem::take(&mut t.failed) {
        out.fail(f);
    }
    out.note("schedule_digest", format!("{:016x}", plan.digest()));
    layer_metrics(&plan, &kb, &t, &mut out);
    out
}

/// The daemon's per-layer metrics from the traced segments in `t`. The
/// delta and store layers run only in `daemon-churn`.
fn layer_metrics(plan: &Plan, kb: &KnowledgeBase, t: &Totals, out: &mut Outcome) {
    let kind = plan.kind;
    let tr = &t.traced;
    out.metric("protocol.parse_us", median_us(&tr.parse), "us");
    out.metric("protocol.render_us", median_us(&tr.render), "us");
    out.metric("daemon.handle_hit_us", median_us(&tr.handle_hit), "us");
    out.metric(
        "daemon.handle_permuted_us",
        median_us(&tr.handle_permuted),
        "us",
    );
    out.metric("daemon.handle_miss_us", median_us(&tr.handle_miss), "us");
    // The probes time the sources whose cost they explain: never-seen
    // programs set the read tail; in churn every check-set swap makes the
    // corpus programs rescan.
    let probe_sources: Vec<String> = plan
        .lines
        .iter()
        .zip(&plan.classes)
        .filter(|(_, &c)| {
            c == if kind == Kind::Read {
                Class::Fresh
            } else {
                Class::Repeat
            }
        })
        .take(PROBE_SOURCES)
        .filter_map(|(l, _)| match Request::parse(l) {
            Ok(Request::Scan { source, .. }) => Some(source),
            _ => None,
        })
        .collect();
    let (compile_us, fp_us, scan_us) = probes(&probe_sources, &t.served_checks, kb);
    out.metric("hcl.compile_us", compile_us, "us");
    out.metric("deployer.fingerprint_us", fp_us, "us");
    out.metric("spec.scan_us", scan_us, "us");
    out.metric("scancache.hit_ratio", median(&t.cache_hit_ratio), "ratio");
    out.metric("daemon.cache_entries", median(&t.cache_entries), "count");
    if kind == Kind::Churn {
        out.metric("daemon.delta_us", median_us(&tr.delta_handle), "us");
        let deltas: Vec<Value> = t
            .delta_responses
            .iter()
            .filter_map(|r| serde_json::from_str(r).ok())
            .collect();
        let per_delta = |f: &dyn Fn(&Value) -> u64| {
            crate::stats::mean(&deltas.iter().map(|d| f(d) as f64).collect::<Vec<_>>())
        };
        out.metric(
            "delta.types_rescored",
            per_delta(&|d| field_u64(d, "types_rescored")),
            "count",
        );
        out.metric(
            "store.appends_per_delta",
            per_delta(&|d| {
                field_u64(d, "checks_added")
                    + field_u64(d, "checks_updated")
                    + field_u64(d, "checks_retired")
            }),
            "count",
        );
        out.metric("store.bytes", median(&t.store_bytes), "bytes");
    }
}
