//! Tests of the benchmark itself: seeded schedules repeat byte for byte,
//! and the output checks reject wrong outputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::{Number, Value};
use std::path::PathBuf;
use zodiac_daemon::{Daemon, DaemonConfig};
use zodiac_obs::Obs;
use zodiac_perfbench::daemon::{Kind, Plan, CORPUS_PROJECTS};
use zodiac_perfbench::pipeline::{check_run, RunOutput, PINNED_FUNNEL, PINNED_SEED};
use zodiac_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use zodiac_perfbench::verify::{check_mined_set, check_scan_response, expected_scan};
use zodiac_spec::Check;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn same_seed_gives_byte_identical_schedules() {
    for kind in [Kind::Read, Kind::Churn] {
        let a = Plan::new(kind, 42, 2);
        let b = Plan::new(kind, 42, 2);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.checked, b.checked);
        assert_eq!(a.startup, b.startup);
        assert_eq!(a.deltas, b.deltas);
        assert_eq!(a.final_corpus, b.final_corpus);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), Plan::new(kind, 43, 2).digest());
    }
}

#[test]
fn schedules_have_the_stated_mix() {
    let plan = Plan::new(Kind::Read, 7, 2);
    for seq in &plan.clients {
        let count = |class| {
            seq.iter()
                .filter(|&&l| plan.classes[l as usize] == class)
                .count()
        };
        use zodiac_perfbench::daemon::Class;
        assert_eq!(count(Class::Repeat) * 100, seq.len() * 88);
        assert_eq!(count(Class::Permuted) * 100, seq.len() * 10);
        assert_eq!(count(Class::Fresh) * 100, seq.len() * 2);
        // Permuted and never-seen lines are sent once each.
        let mut once: Vec<u32> = seq
            .iter()
            .copied()
            .filter(|&l| l as usize >= CORPUS_PROJECTS)
            .collect();
        let n = once.len();
        once.sort_unstable();
        once.dedup();
        assert_eq!(once.len(), n);
    }
}

fn corpus_checks(projects: usize) -> (Vec<String>, Vec<Check>) {
    let mut cfg = zodiac::PipelineConfig::evaluation().corpus;
    cfg.projects = projects;
    let corpus = zodiac_corpus::generate(&cfg);
    let programs: Vec<_> = corpus.iter().map(|p| p.program.clone()).collect();
    let kb = zodiac_kb::azure_kb();
    let checks = zodiac_mining::mine(&programs, &kb, &Default::default())
        .checks
        .into_iter()
        .map(|c| c.check)
        .collect();
    (corpus.iter().map(|p| p.to_hcl()).collect(), checks)
}

fn scan_line(source: &str) -> String {
    let req: serde::Map<String, Value> = [
        ("op".to_string(), Value::String("scan".into())),
        ("source".to_string(), Value::String(source.into())),
    ]
    .into_iter()
    .collect();
    serde_json::to_string(&Value::Object(req)).unwrap()
}

#[test]
fn scan_check_rejects_a_corrupted_verdict() {
    let (sources, checks) = corpus_checks(60);
    let kb = zodiac_kb::azure_kb();
    let dir = scratch("corrupted-verdict");
    let (daemon, _) = Daemon::open(&dir, DaemonConfig::default(), Obs::null()).unwrap();
    daemon.import_checks(&checks).unwrap();
    let served = daemon.snapshot().plain().to_vec();
    let source = &sources[3];
    let resp = daemon.handle_line(&scan_line(source));
    let want = expected_scan(source, &served, &kb).unwrap();
    check_scan_response(&resp, &want).expect("the served verdict checks out");

    let mut v: Value = serde_json::from_str(&resp).unwrap();
    let Value::Object(map) = &mut v else {
        panic!("object")
    };

    // One extra violation.
    let mut extra = map.clone();
    let fake: serde::Map<String, Value> = [
        (
            "check_index".to_string(),
            Value::Number(Number::from_u64(0)),
        ),
        ("check".to_string(), Value::String(served[0].to_string())),
        ("resources".to_string(), Value::Array(Vec::new())),
    ]
    .into_iter()
    .collect();
    if let Some(Value::Array(vs)) = extra.get_mut("violations") {
        vs.push(Value::Object(fake));
    }
    let corrupted = serde_json::to_string(&Value::Object(extra)).unwrap();
    assert!(check_scan_response(&corrupted, &want).is_err());

    // Another program's fingerprint.
    let mut other = map.clone();
    other.insert("program_fp".into(), Value::String(format!("{:032x}", 1)));
    let corrupted = serde_json::to_string(&Value::Object(other)).unwrap();
    assert!(check_scan_response(&corrupted, &want).is_err());

    // A failed response.
    assert!(check_scan_response(r#"{"error":"x","ok":false}"#, &want).is_err());
}

#[test]
fn mined_set_check_rejects_a_tampered_check_set() {
    let (sources, _) = corpus_checks(60);
    let kb = zodiac_kb::azure_kb();
    let dir = scratch("tampered-set");
    let (daemon, _) = Daemon::open(&dir, DaemonConfig::default(), Obs::null()).unwrap();
    let upsert: Vec<Value> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::Object(
                [
                    ("project".to_string(), Value::String(format!("p{i}"))),
                    ("source".to_string(), Value::String(s.clone())),
                ]
                .into_iter()
                .collect(),
            )
        })
        .collect();
    let delta: serde::Map<String, Value> = [
        (
            "op".to_string(),
            Value::String("submit_corpus_delta".into()),
        ),
        ("upsert".to_string(), Value::Array(upsert)),
    ]
    .into_iter()
    .collect();
    let resp = daemon.handle_line(&serde_json::to_string(&Value::Object(delta)).unwrap());
    assert!(resp.contains("\"ok\":true"), "{resp}");

    let programs: Vec<_> = sources
        .iter()
        .map(|s| zodiac_hcl::compile(s).unwrap())
        .collect();
    let batch: Vec<Check> = zodiac_mining::mine(&programs, &kb, &Default::default())
        .checks
        .into_iter()
        .map(|c| c.check)
        .collect();
    assert!(batch.len() > 1);
    let listed = daemon.handle_line(r#"{"op":"list_checks"}"#);
    check_mined_set(&listed, &batch).expect("the live set equals batch mining");

    assert!(
        check_mined_set(&listed, &batch[1..]).is_err(),
        "a check missing"
    );
    let mut extra = batch.clone();
    extra.push(
        zodiac_spec::parse_check("let r:VM in r.priority == 'Spot' => r.eviction_policy != null")
            .unwrap(),
    );
    assert!(
        check_mined_set(&listed, &extra).is_err(),
        "a check too many"
    );
}

#[test]
fn pipeline_check_rejects_a_tampered_check_set() {
    let reference = RunOutput {
        funnel: PINNED_FUNNEL,
        final_checks: (0..86).collect(),
        deploy_requests: 395,
    };
    check_run(PINNED_SEED, &reference, &reference.clone()).expect("the pinned funnel");
    let mut tampered = reference.clone();
    tampered.final_checks[5] ^= 1;
    assert!(check_run(PINNED_SEED, &reference, &tampered).is_err());
    let mut shifted = reference.clone();
    shifted.funnel.demoted += 1;
    assert!(
        check_run(1, &shifted, &shifted.clone()).is_ok(),
        "no pin at other seeds"
    );
    assert!(check_run(PINNED_SEED, &shifted, &shifted.clone()).is_err());
}

#[test]
fn more_threads_than_allowed_are_refused() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "daemon-read",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--threads", "64"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("nproc"));
}

#[test]
fn reported_metrics_are_the_manifest_metrics() {
    let manifest: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
    let names = |key: &str| -> Vec<String> {
        manifest[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m["name"].as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(names("end_to_end"), END_TO_END);
    assert_eq!(names("per_layer"), PER_LAYER);
}

#[test]
fn a_missing_or_unlisted_metric_is_refused() {
    let mut out = Outcome::default();
    out.metric("ops_per_s", 2.0, "1/s");
    out.metric("op_p50_ms", 1.0, "ms");
    assert!(out
        .order_metrics(&["op_p50_ms", "ops_per_s", "setup_s"])
        .is_err());
    assert!(out.order_metrics(&["op_p50_ms"]).is_err());
    out.order_metrics(&["op_p50_ms", "ops_per_s"]).unwrap();
    assert_eq!(out.metrics[0].0, "op_p50_ms");
}
