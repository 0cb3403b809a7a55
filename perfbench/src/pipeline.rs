//! `pipeline-600`: closed-loop runs of the paper's headline job.
//!
//! One op is one `zodiac::run_pipeline` over the evaluation config: 600
//! projects at the workload seed plus 300 counterexample projects. The
//! traced run replays the same stages through their public entry points,
//! with a timer around each call and timing oracles around the deploy
//! engine and the `CloudSim` backend inside it.

use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::timed::{Timed, Totals};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zodiac::{PipelineConfig, PipelineResult};
use zodiac_cloud::CloudSim;
use zodiac_corpus::CorpusConfig;
use zodiac_deployer::DeployEngine;
use zodiac_mining::ShardConfig;
use zodiac_model::Program;
use zodiac_obs::{MemoryRecorder, Obs};
use zodiac_validation::{counterexample::counterexample_pass_obs, Scheduler};

/// Set-up repetitions before each timed op; `setup_s` is the median of
/// all of them, so it samples the host across the whole run.
const SETUP_REPS: usize = 25;

/// The seed whose funnel `tests/tests/headline_funnel.rs` pins.
pub const PINNED_SEED: u64 = 0xC0FFEE;

/// The evaluation config at `seed`, with `threads` deploy workers and
/// mining shards.
pub fn config(seed: u64, threads: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::evaluation();
    cfg.corpus.seed = seed;
    cfg.deployer.workers = threads;
    cfg.mining_shards = threads;
    cfg
}

/// The funnel of one run, in the order `headline_funnel.rs` pins it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Funnel {
    pub corpus_projects: usize,
    pub hypothesized: usize,
    pub removed_by_confidence: usize,
    pub removed_by_lift: usize,
    pub llm_found: usize,
    pub llm_removed: usize,
    pub candidates: usize,
    pub validated: usize,
    pub validated_groups_as_one: usize,
    pub false_positives: usize,
    pub unresolved: usize,
    pub demoted: usize,
    pub final_checks: usize,
}

/// The funnel `tests/tests/headline_funnel.rs` pins at seed 0xC0FFEE.
pub const PINNED_FUNNEL: Funnel = Funnel {
    corpus_projects: 600,
    hypothesized: 1932,
    removed_by_confidence: 1019,
    removed_by_lift: 372,
    llm_found: 63,
    llm_removed: 205,
    candidates: 361,
    validated: 88,
    validated_groups_as_one: 68,
    false_positives: 273,
    unresolved: 0,
    demoted: 2,
    final_checks: 86,
};

/// Deploy requests pinned with the funnel.
pub const PINNED_DEPLOY_REQUESTS: u64 = 395;

/// What the output checks compare between runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    pub funnel: Funnel,
    /// Final check fingerprints, in order.
    pub final_checks: Vec<u64>,
    pub deploy_requests: u64,
}

impl RunOutput {
    fn of(r: &PipelineResult) -> RunOutput {
        RunOutput {
            funnel: Funnel {
                corpus_projects: r.corpus_projects,
                hypothesized: r.mining.hypothesized,
                removed_by_confidence: r.mining.removed_by_confidence,
                removed_by_lift: r.mining.removed_by_lift,
                llm_found: r.mining.llm_found,
                llm_removed: r.mining.llm_removed,
                candidates: r.mining.checks.len(),
                validated: r.validation.validated.len(),
                validated_groups_as_one: r.validation.validated_groups_as_one(),
                false_positives: r.validation.false_positives.len(),
                unresolved: r.validation.unresolved.len(),
                demoted: r.demoted.len(),
                final_checks: r.final_checks.len(),
            },
            final_checks: r
                .final_checks
                .iter()
                .map(|v| v.mined.check.fingerprint())
                .collect(),
            deploy_requests: r
                .deploy_metrics
                .as_ref()
                .map_or(0, |m| m.counter("deploy.requests")),
        }
    }
}

/// Compares a run against the reference run of the same seed, and at the
/// pinned seed against the pinned funnel.
pub fn check_run(seed: u64, reference: &RunOutput, run: &RunOutput) -> Result<(), String> {
    if run.final_checks != reference.final_checks {
        return Err(format!(
            "final check set differs: {} checks against {} in the reference run",
            run.final_checks.len(),
            reference.final_checks.len()
        ));
    }
    if run.funnel != reference.funnel || run.deploy_requests != reference.deploy_requests {
        return Err(format!(
            "funnel differs: {:?} / {} requests against {:?} / {}",
            run.funnel, run.deploy_requests, reference.funnel, reference.deploy_requests
        ));
    }
    if seed == PINNED_SEED
        && (run.funnel != PINNED_FUNNEL || run.deploy_requests != PINNED_DEPLOY_REQUESTS)
    {
        return Err(format!(
            "funnel {:?} / {} requests differs from the pinned {:?} / {}",
            run.funnel, run.deploy_requests, PINNED_FUNNEL, PINNED_DEPLOY_REQUESTS
        ));
    }
    Ok(())
}

/// Stage times of one traced run, in milliseconds, and the layer counts.
#[derive(Debug, Clone, Default)]
struct Layers {
    wall_ms: f64,
    corpus_ms: f64,
    stats_ms: f64,
    templates_ms: f64,
    validation_ms: f64,
    validation_deploy_ms: f64,
    counterexample_ms: f64,
    counterexample_deploy_ms: f64,
    deployer: Totals,
    cloud: Totals,
    cases: u64,
    demoted: u64,
    solver_hits: u64,
    solver_solves: u64,
    wave_replays: u64,
    candidates: u64,
    deploy_requests: u64,
    deploy_cache_hits: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One untraced op: the public one-call entry point.
fn run_untraced(cfg: &PipelineConfig) -> (f64, RunOutput) {
    let t0 = Instant::now();
    let result = zodiac::run_pipeline(cfg);
    let wall = ms(t0.elapsed());
    (wall, RunOutput::of(&result))
}

/// One traced op: `generate → build_stats_sharded → mine_with_stats →
/// Scheduler::run → generate(extra) → counterexample_pass`, as
/// `run_pipeline` composes them, each call timed.
fn run_traced(cfg: &PipelineConfig) -> (Layers, RunOutput) {
    let recorder = Arc::new(MemoryRecorder::new());
    let obs = Obs::single(recorder.clone());
    let mut l = Layers::default();
    let t0 = Instant::now();

    let kb = zodiac_kb::azure_kb();
    let engine = Timed::new(DeployEngine::with_obs(
        Timed::new(CloudSim::new_azure()),
        cfg.deployer.clone(),
        obs.clone(),
    ));

    let t = Instant::now();
    let corpus = zodiac_corpus::generate_obs(&cfg.corpus, &obs);
    l.corpus_ms += ms(t.elapsed());
    let programs: Vec<Program> = corpus.iter().map(|p| p.program.clone()).collect();

    let t = Instant::now();
    let stats = zodiac_mining::shard::build_stats_sharded_obs(
        &programs,
        &kb,
        cfg.mining.use_kb,
        &ShardConfig::with_shards(cfg.mining_shards),
        &obs,
    );
    l.stats_ms = ms(t.elapsed());
    let t = Instant::now();
    let mining = zodiac_mining::mine_with_stats_obs(&stats, &kb, &cfg.mining, &obs);
    l.templates_ms = ms(t.elapsed());

    let d0 = engine.totals();
    let t = Instant::now();
    let validation = Scheduler::new(&engine, &kb, &programs, cfg.scheduler.clone())
        .with_obs(obs.clone())
        .run(mining.checks.clone());
    l.validation_ms = ms(t.elapsed());
    let d1 = engine.totals();
    l.validation_deploy_ms = (d1 - d0).busy_ms;

    // The counterexample corpus, as `run_pipeline` derives it.
    let extra_cfg = CorpusConfig {
        projects: cfg.counterexample_projects,
        seed: cfg.corpus.seed.wrapping_add(0x5EED),
        rare_option_rate: (cfg.corpus.rare_option_rate * 4.0).clamp(0.0, 0.05),
        ..cfg.corpus.clone()
    };
    let t = Instant::now();
    let extra: Vec<Program> = zodiac_corpus::generate(&extra_cfg)
        .into_iter()
        .map(|p| p.program)
        .collect();
    l.corpus_ms += ms(t.elapsed());

    let t = Instant::now();
    let ce = counterexample_pass_obs(
        &validation.validated,
        &extra,
        &kb,
        &engine,
        cfg.counterexample_budget.max(1),
        &obs,
    );
    l.counterexample_ms = ms(t.elapsed());
    l.counterexample_deploy_ms = (engine.totals() - d1).busy_ms;

    let demoted: std::collections::BTreeSet<usize> = ce.demoted.iter().copied().collect();
    let final_checks: Vec<u64> = validation
        .validated
        .iter()
        .enumerate()
        .filter(|(i, _)| !demoted.contains(i))
        .map(|(_, v)| v.mined.check.fingerprint())
        .collect();
    l.wall_ms = ms(t0.elapsed());

    l.deployer = engine.totals();
    l.cloud = engine.inner().backend().totals();
    l.cases = ce.examined as u64;
    l.demoted = ce.demoted.len() as u64;
    let counter = |name| recorder.counter_value(name);
    l.solver_hits = counter("solver.incremental.hit");
    l.solver_solves =
        l.solver_hits + counter("solver.incremental.seeded") + counter("solver.incremental.miss");
    l.wave_replays = counter("validation.wave.replays");
    l.candidates = counter("validation.candidates.initial");
    l.deploy_requests = counter("deploy.requests");
    l.deploy_cache_hits = counter("deploy.cache_hits");

    let output = RunOutput {
        funnel: Funnel {
            corpus_projects: corpus.len(),
            hypothesized: mining.hypothesized,
            removed_by_confidence: mining.removed_by_confidence,
            removed_by_lift: mining.removed_by_lift,
            llm_found: mining.llm_found,
            llm_removed: mining.llm_removed,
            candidates: mining.checks.len(),
            validated: validation.validated.len(),
            validated_groups_as_one: validation.validated_groups_as_one(),
            false_positives: validation.false_positives.len(),
            unresolved: validation.unresolved.len(),
            demoted: ce.demoted.len(),
            final_checks: final_checks.len(),
        },
        final_checks,
        deploy_requests: l.deploy_requests,
    };
    (l, output)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Times what a caller builds before a pipeline call, the KB and the
/// deploy engine, `SETUP_REPS` times.
fn set_up(cfg: &PipelineConfig, samples: &mut Vec<f64>) {
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let kb = zodiac_kb::azure_kb();
        let engine = DeployEngine::new(CloudSim::new_azure(), cfg.deployer.clone());
        std::hint::black_box((&kb, &engine));
        samples.push(t.elapsed().as_secs_f64());
    }
}

/// Runs the workload for `seconds` of timed ops and checks every op.
pub fn run(seed: u64, seconds: f64, threads: usize, trace: bool) -> Outcome {
    let cfg = config(seed, threads);
    let mut out = Outcome::default();
    out.note("deploy_workers", threads);
    out.note("mining_shards", threads);

    let mut setups: Vec<f64> = Vec::new();

    let mut untraced_ms = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut outputs: Vec<RunOutput> = Vec::new();
    let mut timed_ms = 0.0;
    // Traced runs alternate with untraced ones, so both see the same host
    // phases and their difference is the tracing overhead. The output
    // check then also compares the staged calls against `run_pipeline`.
    while timed_ms < seconds * 1e3 || (trace && traced.is_empty()) {
        set_up(&cfg, &mut setups);
        if trace && untraced_ms.len() > traced.len() {
            let (layers, output) = run_traced(&cfg);
            timed_ms += layers.wall_ms;
            traced.push(layers);
            outputs.push(output);
        } else {
            let (wall, output) = run_untraced(&cfg);
            timed_ms += wall;
            untraced_ms.push(wall);
            outputs.push(output);
        }
    }

    out.attempted = outputs.len() as u64;
    let reference = outputs[0].clone();
    for (i, o) in outputs.iter().enumerate() {
        if let Err(e) = check_run(seed, &reference, o) {
            out.fail(format!("pipeline run {i}: {e}"));
        }
    }
    out.note("runs_untraced", untraced_ms.len());
    out.note("runs_traced", outputs.len() - untraced_ms.len());
    out.note("final_checks", reference.final_checks.len());

    if !trace {
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mib", crate::host::peak_rss_mib(), "MiB");
        out.metric("op_p50_ms", median(&untraced_ms), "ms");
        out.metric(
            "ops_per_s",
            untraced_ms.len() as f64 / (untraced_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        return out;
    }

    layer_metrics(&traced, &mut out);
    let untraced = median(&untraced_ms);
    let traced_median = median(&traced.iter().map(|l| l.wall_ms).collect::<Vec<_>>());
    out.metric(
        "tracing.overhead_pct",
        100.0 * (traced_median - untraced) / untraced,
        "%",
    );
    out
}

/// One traced run at `seed`, for the pipeline layers of a workload that
/// does not run the pipeline itself. At the pinned seed its funnel is
/// checked against the pinned one.
pub fn probe(seed: u64, threads: usize) -> Outcome {
    let (layers, output) = run_traced(&config(seed, threads));
    let mut out = Outcome {
        attempted: 1,
        ..Default::default()
    };
    if let Err(e) = check_run(seed, &output, &output) {
        out.fail(format!("pipeline run: {e}"));
    }
    out.note("final_checks", output.final_checks.len());
    layer_metrics(&[layers], &mut out);
    out
}

/// The pipeline's per-layer metrics over `traced` runs.
fn layer_metrics(traced: &[Layers], out: &mut Outcome) {
    // Means over the traced runs, so the stage calls and the unattributed
    // rest add up to the traced wall time.
    let avg = |f: &dyn Fn(&Layers) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let wall = avg(&|l| l.wall_ms);
    let stages =
        avg(&|l| l.corpus_ms + l.stats_ms + l.templates_ms + l.validation_ms + l.counterexample_ms);
    let cloud_deploys: Vec<f64> = traced.iter().map(|l| l.cloud.calls as f64).collect();
    let spread = cloud_deploys.iter().copied().fold(f64::MIN, f64::max)
        - cloud_deploys.iter().copied().fold(f64::MAX, f64::min);
    out.metric("pipeline.traced_ms", wall, "ms");
    out.metric("corpus.generate_ms", avg(&|l| l.corpus_ms), "ms");
    out.metric("mining.stats_ms", avg(&|l| l.stats_ms), "ms");
    out.metric("mining.templates_ms", avg(&|l| l.templates_ms), "ms");
    out.metric("validation.ms", avg(&|l| l.validation_ms), "ms");
    out.metric(
        "validation.self_ms",
        avg(&|l| l.validation_ms - l.validation_deploy_ms),
        "ms",
    );
    out.metric(
        "solver.incremental_hit_ratio",
        avg(&|l| ratio(l.solver_hits, l.solver_solves)),
        "ratio",
    );
    out.metric(
        "validation.wave_replay_ratio",
        avg(&|l| ratio(l.wave_replays, l.candidates)),
        "ratio",
    );
    out.metric("counterexample.ms", avg(&|l| l.counterexample_ms), "ms");
    out.metric(
        "counterexample.self_ms",
        avg(&|l| l.counterexample_ms - l.counterexample_deploy_ms),
        "ms",
    );
    out.metric("counterexample.cases", avg(&|l| l.cases as f64), "count");
    out.metric(
        "counterexample.demoted",
        avg(&|l| l.demoted as f64),
        "count",
    );
    out.metric("deployer.ms", avg(&|l| l.deployer.busy_ms), "ms");
    out.metric("deployer.calls", avg(&|l| l.deployer.calls as f64), "count");
    out.metric(
        "deployer.programs",
        avg(&|l| l.deployer.programs as f64),
        "count",
    );
    out.metric(
        "deployer.cache_hit_ratio",
        avg(&|l| ratio(l.deploy_cache_hits, l.deploy_requests)),
        "ratio",
    );
    out.metric("cloud.deploys", avg(&|l| l.cloud.calls as f64), "count");
    out.metric("cloud.deploys_spread", spread, "count");
    out.metric("cloud.busy_ms", avg(&|l| l.cloud.busy_ms), "ms");
    out.metric("pipeline.unattributed_ms", wall - stages, "ms");
}
