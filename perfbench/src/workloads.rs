//! The three workloads. Each sets up its designs, trains, serves its
//! failure logs through `m3d_serve::engine::serve_lines`, and diagnoses
//! them directly for quality and for the expected responses; they differ
//! in which of those steps dominates.
//!
//! Each returns the run's quality figures, which must repeat exactly for
//! the same seed.

use std::time::{Duration, Instant};

use m3d_fault_loc::{
    Artifact, DatasetConfig, DesignConfig, DesignContext, DiagnosisSession, Framework,
    FrameworkConfig, ModelTrainConfig, Pipeline, PipelineBuilder, TestBench, TestBenchConfig,
};
use m3d_netlist::BenchmarkProfile;
use m3d_serve::Registry;
use m3d_sim::AtpgConfig;

use crate::flow::{self, build_benches, fig09_quick, Case, Run, Shape, Trained, THREADS};
use crate::layers::{self, SetupLayers};
use crate::stats::{self, ms, Ledger};

/// The `m3d-serve train` defaults: sample count, sample seed and
/// MIV-defect share.
const SERVE_TRAIN: (usize, u64, f64) = (120, 3, 0.2);
/// Distinct failure logs each workload diagnoses directly: train-quick,
/// serve-quick, the transfer source of setup-large. At least 1000, so
/// that ten or more lie beyond the reported 99th percentile.
const DISTINCT: [usize; 3] = [1000, 1200, 1000];
/// Of those, the ones each workload also queues at once (Phase A).
const PHASE_A: [usize; 3] = [450, 900, 400];
/// Set-up repetitions per run (`setup_s` is their nearest-rank median,
/// the faster of two): many where a set-up takes a fraction of a second,
/// two where it takes seconds.
const QUICK_SETUP_REPS: usize = 9;
const LARGE_SETUP_REPS: usize = 2;
/// Failure logs back-traced on the large design of setup-large.
const LARGE_LOGS: usize = 48;
/// Interleaved measurement rounds per run.
const ROUNDS: usize = 10;
/// Share of the cases, slowest first, timed three more times.
const TAIL_SHARE: f64 = 0.04;
/// Rounds after a case's first timing in which a tail case is timed
/// again: spread so that the tail, like the median, samples the host
/// over the whole run.
const TAIL_AFTER: [usize; 3] = [1, 3, 5];
/// Cases diagnosed untimed before the first round: the first diagnoses
/// after training or set-up run measurably slower than later ones.
const WARMUP: usize = 150;

/// Train-once flow of `fig09_runtime --scale quick` on aes: set up
/// Syn-1, two random partitions and Syn-2; train on 400 + 100 + 100
/// samples at 50 epochs; diagnose 1000 held-out Syn-2 bypass logs and
/// serve 450 of them.
pub fn train_quick(run: &mut Run, ledger: &mut Ledger) -> Result<Vec<f64>, String> {
    let aes = BenchmarkProfile::AesLike;
    let cfgs = [
        DesignConfig::Syn1,
        DesignConfig::RandomPart { seed: 101 },
        DesignConfig::RandomPart { seed: 202 },
        DesignConfig::Syn2,
    ]
    .map(|c| fig09_quick(aes, c));
    let mut benches = Vec::new();
    let ctxs = setup_contexts(run, ledger, &cfgs, QUICK_SETUP_REPS, &mut benches)?;

    let pipeline = PipelineBuilder::new()
        .threads(THREADS)
        .framework_config(FrameworkConfig {
            model: ModelTrainConfig {
                epochs: 50,
                ..ModelTrainConfig::default()
            },
            precision_target: 0.95,
            ..FrameworkConfig::default()
        })
        .build();
    // fig09's training draws are fixed; the seed picks the held-out logs.
    let samples = |n, seed| DatasetConfig {
        miv_fraction: 0.25,
        ..DatasetConfig::single(n, seed)
    };
    let plan = [
        (0, samples(400, 1000)),
        (1, samples(100, 1001)),
        (2, samples(100, 1002)),
    ];
    run.note("set up");
    let trained = flow::train(ledger, &pipeline, &ctxs, &plan, 1)?;
    record_training(ledger, &[&trained]);
    run.note("trained");

    let syn2 = &ctxs[3];
    let text = pipeline
        .save_artifact(&cfgs[3], syn2.bench, &trained.framework)
        .to_text();
    let t = Instant::now();
    let artifact = Artifact::from_text(&text).map_err(|e| format!("artifact: {e}"))?;
    ledger.set("artifact.load_ms", ms(t.elapsed()));
    let session = pipeline
        .load_artifact(&artifact, syn2.bench)
        .map_err(|e| format!("session: {e}"))?;

    let shapes = [Shape {
        compacted: false,
        multi: false,
    }; DISTINCT[0]];
    let cases = flow::draw_cases(syn2, 0, run.sub_seed(4), &shapes)?;
    measure(
        run,
        ledger,
        std::slice::from_ref(&session),
        &[syn2],
        &cases,
        PHASE_A[0],
        None,
    )
}

/// Volume diagnosis: one registry serves the four quick Syn-2 designs,
/// each trained beforehand with the `m3d-serve train` defaults; requests
/// mix the designs evenly, bypass and compacted, single and multi-fault.
pub fn serve_quick(run: &mut Run, ledger: &mut Ledger) -> Result<Vec<f64>, String> {
    let pipeline = PipelineBuilder::new().threads(THREADS).build();
    let (n, seed, miv_fraction) = SERVE_TRAIN;
    let mut texts = Vec::new();
    let mut runs = Vec::new();
    for profile in BenchmarkProfile::ALL {
        let cfg = TestBenchConfig::quick(profile, DesignConfig::Syn2);
        let bench = TestBench::try_build(&cfg).map_err(|e| format!("{}: {e}", profile.name()))?;
        let ctx = DesignContext::new(&bench);
        let plan = [(
            0,
            DatasetConfig {
                miv_fraction,
                ..DatasetConfig::single(n, seed)
            },
        )];
        let trained = flow::train(ledger, &pipeline, std::slice::from_ref(&ctx), &plan, 2)?;
        texts.push(
            pipeline
                .save_artifact(&cfg, &bench, &trained.framework)
                .to_text(),
        );
        runs.push(trained);
    }
    record_training(ledger, &runs.iter().collect::<Vec<_>>());
    drop(runs);
    run.note("trained");

    // Set-up: artifact text → ready sessions, repeated.
    let mut setup = Vec::new();
    for _ in 1..QUICK_SETUP_REPS {
        let t = Instant::now();
        let (artifacts, benches, _) = load_benches(&texts)?;
        open_sessions(&pipeline, &artifacts, &benches)?;
        setup.push(t.elapsed());
    }
    let t = Instant::now();
    let (artifacts, benches, parse) = load_benches(&texts)?;
    let sessions = open_sessions(&pipeline, &artifacts, &benches)?;
    setup.push(t.elapsed());
    record_setup_time(ledger, &setup);
    ledger.set("artifact.load_ms", ms(parse));
    run.note("set up");

    // Contexts the benchmark generates requests on and diagnoses with.
    let mut layers = SetupLayers::default();
    let replays = run.trace.then(|| {
        run.traced(|_| {
            for (a, b) in artifacts.iter().zip(&benches) {
                layers::replay_bench(ledger, &mut layers, a.bench_config(), b);
            }
            benches
                .iter()
                .map(|b| layers::replay_context(&mut layers, b))
                .collect::<Vec<_>>()
        })
    });
    let mut ctx_new = Vec::new();
    if run.trace {
        // More composite timings for the remainder after the replay.
        run.traced(|_| {
            for _ in 1..QUICK_SETUP_REPS {
                let t = Instant::now();
                let ctxs: Vec<DesignContext<'_>> = benches.iter().map(DesignContext::new).collect();
                ctx_new.push(t.elapsed());
                drop(ctxs);
            }
        });
    }
    let t = Instant::now();
    let ctxs: Vec<DesignContext<'_>> = benches.iter().map(DesignContext::new).collect();
    ctx_new.push(t.elapsed());
    if let Some(replays) = replays {
        run.traced(|_| {
            for (r, c) in replays.iter().zip(&ctxs) {
                layers::check_context(ledger, r, c);
            }
        });
        layers::record_setup(ledger, &layers, &ctx_new);
    }

    // Request i goes to design i % 4; per design, every third log is
    // compacted and every eighth is multi-fault.
    let n_designs = ctxs.len();
    let mut per_design = Vec::new();
    for (d, ctx) in ctxs.iter().enumerate() {
        let shapes: Vec<Shape> = (0..DISTINCT[1] / n_designs)
            .map(|k| Shape {
                compacted: k % 3 == 2,
                multi: k % 8 == 7,
            })
            .collect();
        per_design
            .push(flow::draw_cases(ctx, d, run.sub_seed(10 + d as u64), &shapes)?.into_iter());
    }
    let cases: Vec<Case> = (0..DISTINCT[1])
        .filter_map(|i| per_design[i % n_designs].next())
        .collect();

    let ctx_refs: Vec<&DesignContext<'_>> = ctxs.iter().collect();
    measure(run, ledger, &sessions, &ctx_refs, &cases, PHASE_A[1], None)
}

/// One large design set up and back-traced: netcard at design scale 0.2,
/// Par, 20× compaction, observation capped at 512 scan flops and 64
/// outputs, paper-smoke ATPG. Its framework is transferred from quick
/// netcard Par (trained with the `m3d-serve train` defaults) and served
/// on that design's logs, since ATPG diagnosis on the large design costs
/// seconds per log; on the large design only set-up and back-trace run.
pub fn setup_large(run: &mut Run, ledger: &mut Ledger) -> Result<Vec<f64>, String> {
    let src_cfg = TestBenchConfig::quick(BenchmarkProfile::NetcardLike, DesignConfig::Par);
    let src = TestBench::try_build(&src_cfg).map_err(|e| format!("source bench: {e}"))?;
    let src_ctx = DesignContext::new(&src);
    let pipeline = PipelineBuilder::new().threads(THREADS).build();
    let (n, seed, miv_fraction) = SERVE_TRAIN;
    let plan = [(
        0,
        DatasetConfig {
            miv_fraction,
            ..DatasetConfig::single(n, seed)
        },
    )];
    let trained = flow::train(ledger, &pipeline, std::slice::from_ref(&src_ctx), &plan, 3)?;
    record_training(ledger, &[&trained]);
    let text = pipeline
        .save_artifact(&src_cfg, &src, &trained.framework)
        .to_text();
    run.note("trained");

    let large = TestBenchConfig {
        profile: BenchmarkProfile::NetcardLike,
        scale: 0.2,
        config: DesignConfig::Par,
        compaction_ratio: 20,
        atpg: AtpgConfig {
            fault_sample: Some(2_000),
            max_rounds: 2,
            ..AtpgConfig::default()
        },
        max_scan_flops: Some(512),
        max_outputs: Some(64),
    };
    let mut benches = Vec::new();
    let ctxs = setup_contexts(
        run,
        ledger,
        std::slice::from_ref(&large),
        LARGE_SETUP_REPS,
        &mut benches,
    )?;
    run.note("set up");
    let logs = flow::draw_cases(&ctxs[0], 0, run.sub_seed(3), &single_faults(LARGE_LOGS))?;

    let t = Instant::now();
    let artifact = Artifact::from_text(&text).map_err(|e| format!("artifact: {e}"))?;
    ledger.set("artifact.load_ms", ms(t.elapsed()));
    let session = pipeline
        .load_artifact(&artifact, &src)
        .map_err(|e| format!("session: {e}"))?;
    let cases = flow::draw_cases(&src_ctx, 0, run.sub_seed(2), &single_faults(DISTINCT[2]))?;
    measure(
        run,
        ledger,
        std::slice::from_ref(&session),
        &[&src_ctx],
        &cases,
        PHASE_A[2],
        Some((&ctxs[0], &logs)),
    )
}

/// `n` single-fault shapes, every third log compacted.
fn single_faults(n: usize) -> Vec<Shape> {
    (0..n)
        .map(|i| Shape {
            compacted: i % 3 == 2,
            multi: false,
        })
        .collect()
}

/// Sets up `cfgs` (bench build + `DesignContext::new`) `reps` times,
/// keeping the last; the traced run replays the layers in between.
fn setup_contexts<'a>(
    run: &mut Run,
    ledger: &mut Ledger,
    cfgs: &[TestBenchConfig],
    reps: usize,
    benches_out: &'a mut Vec<TestBench>,
) -> Result<Vec<DesignContext<'a>>, String> {
    let mut setup = Vec::new();
    let mut ctx_new = Vec::new();
    for _ in 1..reps {
        let t = Instant::now();
        let benches = build_benches(cfgs)?;
        let tc = Instant::now();
        let ctxs: Vec<DesignContext<'_>> = benches.iter().map(DesignContext::new).collect();
        ctx_new.push(tc.elapsed());
        setup.push(t.elapsed());
        drop(ctxs);
    }
    let t = Instant::now();
    *benches_out = build_benches(cfgs)?;
    let t_bench = t.elapsed();
    let benches: &'a [TestBench] = benches_out;

    // The replay runs while no context is alive, so a large design's
    // graph is never held twice.
    let mut layers = SetupLayers::default();
    let replays = run.trace.then(|| {
        run.traced(|_| {
            for (c, b) in cfgs.iter().zip(benches) {
                layers::replay_bench(ledger, &mut layers, c, b);
            }
            benches
                .iter()
                .map(|b| layers::replay_context(&mut layers, b))
                .collect::<Vec<_>>()
        })
    });
    let tc = Instant::now();
    let ctxs: Vec<DesignContext<'a>> = benches.iter().map(DesignContext::new).collect();
    ctx_new.push(tc.elapsed());
    setup.push(t_bench + tc.elapsed());
    if let Some(replays) = replays {
        run.traced(|_| {
            for (r, c) in replays.iter().zip(&ctxs) {
                layers::check_context(ledger, r, c);
            }
        });
        layers::record_setup(ledger, &layers, &ctx_new);
    }
    record_setup_time(ledger, &setup);
    Ok(ctxs)
}

fn record_setup_time(ledger: &mut Ledger, reps: &[Duration]) {
    ledger.attempted += reps.len() as u64;
    let secs: Vec<f64> = reps.iter().map(Duration::as_secs_f64).collect();
    ledger.set("setup_s", stats::median(&secs));
}

/// Parses artifact texts and builds their benches; also returns the
/// total `Artifact::from_text` time.
fn load_benches(texts: &[String]) -> Result<(Vec<Artifact>, Vec<TestBench>, Duration), String> {
    let t = Instant::now();
    let artifacts: Vec<Artifact> = texts
        .iter()
        .map(|s| Artifact::from_text(s).map_err(|e| format!("artifact: {e}")))
        .collect::<Result<_, _>>()?;
    let parse = t.elapsed();
    let benches = artifacts
        .iter()
        .map(|a| a.build_bench().map_err(|e| format!("{}: {e}", a.design())))
        .collect::<Result<_, _>>()?;
    Ok((artifacts, benches, parse))
}

fn open_sessions<'a>(
    pipeline: &Pipeline,
    artifacts: &[Artifact],
    benches: &'a [TestBench],
) -> Result<Vec<DiagnosisSession<'a>>, String> {
    artifacts
        .iter()
        .zip(benches)
        .map(|(a, b)| {
            pipeline
                .load_artifact(a, b)
                .map_err(|e| format!("{}: {e}", a.design()))
        })
        .collect()
}

/// Records the training figures summed over `runs`.
fn record_training(ledger: &mut Ledger, runs: &[&Trained]) {
    let dataset: Duration = runs.iter().map(|t| t.dataset).sum();
    let train: Duration = runs.iter().map(|t| t.train).sum();
    let flops: u64 = runs.iter().map(|t| t.flops).sum();
    ledger.set("train_s", (dataset + train).as_secs_f64());
    ledger.set("core.dataset_ms", ms(dataset));
    ledger.set(
        "core.samples",
        runs.iter().map(|t| t.samples).sum::<usize>() as f64,
    );
    ledger.set("gnn.train_ms", ms(train));
    ledger.set("gnn.train_flops", flops as f64);
    ledger.set(
        "gnn.train_gflop_s",
        flops as f64 / train.as_secs_f64() / 1e9,
    );
}

/// The measured part of a workload, interleaved over [`ROUNDS`] rounds so
/// every timing figure samples the whole run rather than one stretch of
/// a shared host's varying speed.
///
/// Round `r` diagnoses the `r`-th slice of `cases` directly on `ctxs`
/// (back-trace, quality, and the expected response of each request) and
/// times the slice half a run away a second time, so each round of the
/// first half times two slices for the first time. A case's latency is
/// the mean of its timings: one slow stretch of the host moves the
/// percentiles less. The tail percentiles rest on a few heavy cases, so
/// the [`TAIL_SHARE`] slowest of each round's first timings are timed
/// three more times in the rounds [`TAIL_AFTER`] it, and the timing that
/// picked them is dropped so the pick does not bias their latency.
///
/// Every round also queues its share of the first `phase_a` cases at
/// once through one registry over `sessions` (Phase A, saturation
/// throughput) and sends requests at the fixed rate for a share of the
/// run's seconds (Phase B, open loop, cycling over the cases diagnosed
/// so far). With `large`, the back-trace figures come from one pass over
/// those logs on that context in rounds 2 and 7 instead of from the
/// direct diagnoses.
fn measure(
    run: &mut Run,
    ledger: &mut Ledger,
    sessions: &[DiagnosisSession<'_>],
    ctxs: &[&DesignContext<'_>],
    cases: &[Case],
    phase_a: usize,
    large: Option<(&DesignContext<'_>, &[Case])>,
) -> Result<Vec<f64>, String> {
    let frameworks: Vec<&Framework> = sessions.iter().map(|s| s.framework()).collect();
    let designs: Vec<String> = sessions.iter().map(|s| s.design().to_string()).collect();
    let registry = Registry::new(sessions).map_err(|e| e.to_string())?;
    let per_round_b = (run.rate * run.seconds / ROUNDS as f64).round().max(1.0) as usize;
    let n = cases.len();
    let phase_a = phase_a.min(n);
    let slice = |r: usize| r * n / ROUNDS..(r + 1) * n / ROUNDS;

    let mut replays = Vec::with_capacity(n);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut retime: Vec<Vec<usize>> = vec![Vec::new(); ROUNDS];
    let mut serving = flow::Serving::default();
    let mut bt = Vec::new();
    let mut flops = 0;
    flow::replay_cases(&run.pool, ctxs, &frameworks, &cases[..WARMUP.min(n)]);
    for r in 0..ROUNDS {
        let first = slice(r);
        let flops0 = m3d_gnn::kernel_flops();
        let direct = flow::replay_cases(&run.pool, ctxs, &frameworks, &cases[first.clone()]);
        flops += m3d_gnn::kernel_flops() - flops0;
        for (i, d) in first.zip(direct) {
            replays.push(d.result);
            times[i].push(d.ms);
            if large.is_none() {
                bt.push(d.bt);
            }
        }
        let again = slice((r + ROUNDS / 2) % ROUNDS);
        let direct = flow::replay_cases(&run.pool, ctxs, &frameworks, &cases[again.clone()]);
        for (i, d) in again.zip(direct) {
            times[i].push(d.ms);
        }
        if r < ROUNDS / 2 {
            let mut fresh: Vec<usize> = slice(r).chain(slice(r + ROUNDS / 2)).collect();
            fresh.sort_by(|&a, &b| times[b][0].total_cmp(&times[a][0]));
            fresh.truncate(((fresh.len() as f64 * TAIL_SHARE).ceil() as usize).max(1));
            for &i in &fresh {
                times[i].clear();
            }
            for k in TAIL_AFTER {
                retime[r + k].extend(&fresh);
            }
        }
        let heavy: Vec<&Case> = retime[r].iter().map(|&i| &cases[i]).collect();
        let direct = flow::replay_cases(&run.pool, ctxs, &frameworks, &heavy);
        for (&i, d) in retime[r].iter().zip(direct) {
            times[i].push(d.ms);
        }
        let diagnosed = &cases[..replays.len()];

        let phase = format!("a{r}");
        let queued = r * phase_a / ROUNDS..(r + 1) * phase_a / ROUNDS;
        let lines = flow::phase_lines(&phase, queued.len(), &cases[queued.clone()], &designs);
        let a =
            flow::serve_all(&registry, &run.pool, &lines).map_err(|e| format!("phase A: {e}"))?;
        let done = flow::check_phase(
            ledger,
            &phase,
            &a,
            queued.len(),
            &cases[queued.clone()],
            &designs,
            &replays[queued],
        );
        serving.add_a(&a, &done);

        let phase = format!("b{r}");
        let lines = flow::phase_lines(&phase, per_round_b, diagnosed, &designs);
        let (b, dues, lags) = flow::serve_open_loop(&registry, &run.pool, lines, run.rate)
            .map_err(|e| format!("phase B: {e}"))?;
        let done = flow::check_phase(
            ledger,
            &phase,
            &b,
            per_round_b,
            diagnosed,
            &designs,
            &replays,
        );
        serving.add_b(&b, &done, &dues, &lags);

        if let (Some((ctx, logs)), 2) = (large, r % 5) {
            // One pass lasts about one stretch of the host's speed;
            // pooling passes from both halves of the run averages over
            // two.
            bt.extend(flow::backtrace_pass(ctx, logs));
            ledger.attempted += logs.len() as u64;
        }
        run.note(&format!("round {r}"));
    }
    ledger.set("gnn.infer_flops", flops as f64 / cases.len() as f64);
    let mut quality = flow::record_quality(ledger, cases, &replays);
    let latency: Vec<f64> = times.iter().map(|t| stats::mean(t)).collect();
    flow::record_latency(ledger, &latency);
    serving.record(ledger, run.slo_ms);
    quality.extend(flow::record_backtrace(ledger, &bt));

    if run.trace {
        let pairs: Vec<(&DesignContext<'_>, &Framework)> = ctxs
            .iter()
            .copied()
            .zip(frameworks.iter().copied())
            .collect();
        run.traced(|run| {
            layers::check_sessions(ledger, &run.pool, sessions, cases, &replays);
            let lines = flow::phase_lines("p", cases.len(), cases, &designs);
            layers::record_parse(ledger, &lines, cases);
            layers::record_models(ledger, &run.pool, &pairs, run.sub_seed(99));
        });
    }
    Ok(quality)
}
