//! Building blocks the three workloads share: design recipes, seeded
//! failure-log cases, training, the two serving phases, and the direct
//! back-trace + diagnosis pass that supplies quality and the expected
//! response of every request.

use std::borrow::Borrow;
use std::io::{self, BufRead, Cursor, Read, Write};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use m3d_diagnosis::{AtpgDiagnosis, DiagnosisConfig};
use m3d_exec::ExecPool;
use m3d_fault_loc::{
    BacktraceConfig, DatasetConfig, DesignConfig, DesignContext, Framework, FrameworkResult,
    InjectedFault, Pipeline, PolicyAction, Subgraph, TestBench, TestBenchConfig, TrainingSet,
};
use m3d_netlist::{BenchmarkProfile, PinRef};
use m3d_part::Tier;
use m3d_serve::{serve_lines, Registry, ServeConfig, ServeStats};
use m3d_sim::{write_failure_log, AtpgConfig, FailObs, FailureLog, Polarity, Tdf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::stats::{self, ms, us, Ledger};
use crate::wire::{self, Record, Value};

/// Worker threads of every pool the benchmark builds.
pub const THREADS: usize = 2;
/// Small-delay detection probability of every generated failure log
/// (the dataset generator's default).
pub const DETECT_PROB: f64 = 0.7;
/// Draws per case before a design counts as unable to fail a test.
const MAX_DRAWS: usize = 200;
/// Seeded draws per case kept (see [`draw_cases`]).
const OVERSAMPLE: usize = 4;

/// Settings and bookkeeping of one benchmark run.
pub struct Run {
    /// Workload seed: every failure log and training sample derives from it.
    pub seed: u64,
    /// Seconds the open-loop phase sends for, summed over the rounds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer replay and timers).
    pub trace: bool,
    /// Phase B request rate, per second.
    pub rate: f64,
    /// Phase B latency limit, milliseconds.
    pub slo_ms: f64,
    /// The shared worker pool.
    pub pool: ExecPool,
    /// Wall time spent on work only the traced run does.
    pub trace_only: Duration,
    /// When the run started.
    pub started: Instant,
}

impl Run {
    /// A seed for one purpose of this run, independent of the others.
    pub fn sub_seed(&self, purpose: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(purpose.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Logs a progress line to standard error.
    pub fn note(&self, what: &str) {
        eprintln!("[{:8.3}s] {what}", self.started.elapsed().as_secs_f64());
    }

    /// Runs `f` as trace-only work, charging its wall time to
    /// [`Run::trace_only`].
    pub fn traced<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let t = Instant::now();
        let out = f(self);
        self.trace_only += t.elapsed();
        out
    }
}

/// The `fig09_runtime --scale quick` design recipe.
pub fn fig09_quick(profile: BenchmarkProfile, config: DesignConfig) -> TestBenchConfig {
    TestBenchConfig {
        profile,
        scale: 0.01,
        config,
        compaction_ratio: 4,
        atpg: AtpgConfig {
            fault_sample: Some(2_000),
            max_rounds: 8,
            ..AtpgConfig::default()
        },
        max_scan_flops: None,
        max_outputs: None,
    }
}

/// Builds every bench of `cfgs`, in order.
pub fn build_benches(cfgs: &[TestBenchConfig]) -> Result<Vec<TestBench>, String> {
    cfgs.iter()
        .map(|c| TestBench::try_build(c).map_err(|e| format!("bench {:?}: {e}", c.profile)))
        .collect()
}

/// Output of a timed training.
pub struct Trained {
    /// The trained framework.
    pub framework: Framework,
    /// Sample generation (fault simulation + back-trace) time.
    pub dataset: Duration,
    /// `Pipeline::train` time.
    pub train: Duration,
    /// Samples generated.
    pub samples: usize,
    /// Kernel FLOPs spent in `Pipeline::train`.
    pub flops: u64,
}

/// Generates the samples of `plan` (context index, dataset settings) and
/// trains one framework on all of them, `reps` times: the times are the
/// repeat with the lower-median total (the faster of two), and every
/// repeat must train the bit-identical framework.
pub fn train(
    ledger: &mut Ledger,
    pipeline: &Pipeline,
    ctxs: &[DesignContext<'_>],
    plan: &[(usize, DatasetConfig)],
    reps: usize,
) -> Result<Trained, String> {
    let mut runs = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let mut ts = TrainingSet::new();
        let mut samples = 0;
        for (i, cfg) in plan {
            let batch = pipeline.generate_samples(&ctxs[*i], cfg);
            samples += batch.len();
            ts.add(ctxs[*i].bench, &batch);
        }
        let dataset = t.elapsed();
        let flops0 = m3d_gnn::kernel_flops();
        let t = Instant::now();
        let framework = pipeline.train(&ts).map_err(|e| format!("train: {e}"))?;
        runs.push(Trained {
            train: t.elapsed(),
            flops: m3d_gnn::kernel_flops() - flops0,
            framework,
            dataset,
            samples,
        });
    }
    let model = |t: &Trained| {
        let fw = &t.framework;
        (
            fw.t_p().to_bits(),
            fw.tier_predictor().save_text(),
            fw.miv_pinpointer().map(|m| m.save_text()),
        )
    };
    let first = model(&runs[0]);
    ledger.check(runs.iter().all(|t| model(t) == first), || {
        "repeated training produced a different framework".to_string()
    });
    runs.sort_by_key(|t| t.dataset + t.train);
    Ok(runs.swap_remove((runs.len() - 1) / 2))
}

/// One injected defect and the failure log the tester recorded for it.
pub struct Case {
    /// Index of the design (context / session) it was drawn on.
    pub design: usize,
    /// Ground-truth defect sites.
    pub truth: Vec<PinRef>,
    /// Tier of the defect.
    pub tier: Option<Tier>,
    /// Whether the log carries compactor channel entries: the mode a
    /// server infers from the log, and so the one every direct call uses.
    /// A compacted log whose only failures are at primary outputs has
    /// none and is diagnosed as a bypass log.
    pub compacted: bool,
    /// The failure log.
    pub log: FailureLog,
    /// Its `m3d-failure-log v1` text, as sent on the wire.
    pub text: String,
}

/// How one case is drawn.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Log through the response compactor.
    pub compacted: bool,
    /// Two or three same-tier transition faults instead of one.
    pub multi: bool,
}

/// Draws one detected case per shape on `ctx`, deterministically from
/// `seed`.
///
/// Diagnosis cost grows with the length of the failure log and has a
/// long tail, so a plain random draw of a few hundred cases moves the
/// tail percentiles from seed to seed by which rare long logs it happens
/// to hold. For each kind of shape the cases are therefore a systematic
/// sample by log length of [`OVERSAMPLE`] times as many seeded draws: the
/// draws are ranked by length and every `OVERSAMPLE`-th is kept, then
/// the kept cases are shuffled. Each case is still a random draw, and
/// the mix of log lengths is that of the larger draw.
pub fn draw_cases(
    ctx: &DesignContext<'_>,
    design: usize,
    seed: u64,
    shapes: &[Shape],
) -> Result<Vec<Case>, String> {
    let bench = ctx.bench;
    let sites: Vec<PinRef> = bench.netlist().fault_sites().collect();
    let by_tier: [Vec<PinRef>; 2] = [0u8, 1].map(|t| {
        sites
            .iter()
            .copied()
            .filter(|s| bench.tier_of(s.gate) == Tier(t))
            .collect()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let polarity = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            Polarity::SlowToRise
        } else {
            Polarity::SlowToFall
        }
    };
    let draw = |shape: Shape, rng: &mut StdRng| {
        for _ in 0..MAX_DRAWS {
            let fault = if shape.multi {
                let tier = Tier(rng.gen_range(0..2u8));
                let pool = &by_tier[tier.index()];
                if pool.is_empty() {
                    continue;
                }
                let k = rng.gen_range(2..=3usize);
                let faults = (0..k)
                    .map(|_| Tdf::new(pool[rng.gen_range(0..pool.len())], polarity(rng)))
                    .collect();
                InjectedFault::MultiTier { tier, faults }
            } else {
                let site = sites[rng.gen_range(0..sites.len())];
                InjectedFault::Single(Tdf::new(site, polarity(rng)))
            };
            let log = ctx.masked_failure_log(&fault, shape.compacted, DETECT_PROB, rng.gen());
            if !log.is_empty() {
                return Ok((fault, log));
            }
        }
        Err(format!("{}: no detected fault drawn", bench.name))
    };

    let mut slots: Vec<Option<Case>> = shapes.iter().map(|_| None).collect();
    for kind in [(false, false), (true, false), (false, true), (true, true)] {
        let at: Vec<usize> = (0..shapes.len())
            .filter(|&i| (shapes[i].compacted, shapes[i].multi) == kind)
            .collect();
        let Some(&first) = at.first() else { continue };
        let mut drawn = (0..at.len() * OVERSAMPLE)
            .map(|_| draw(shapes[first], &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        drawn.sort_by_key(|(_, log)| log.len());
        let mut kept: Vec<_> = drawn
            .into_iter()
            .skip(OVERSAMPLE / 2)
            .step_by(OVERSAMPLE)
            .collect();
        kept.shuffle(&mut rng);
        for (i, (fault, log)) in at.into_iter().zip(kept) {
            slots[i] = Some(Case {
                design,
                truth: fault.truth_sites(bench),
                tier: fault.tier(bench),
                compacted: log
                    .entries()
                    .iter()
                    .any(|e| matches!(e.obs, FailObs::Channel { .. })),
                text: write_failure_log(&log),
                log,
            });
        }
    }
    Ok(slots.into_iter().flatten().collect())
}

/// One back-trace, as the workload observes it from outside.
#[derive(Debug, Clone, Copy)]
pub struct BtObs {
    /// Wall time of `DesignContext::backtrace`.
    pub ms: f64,
    /// Subgraph nodes.
    pub nodes: usize,
    /// Hetero-graph nodes visited.
    pub visited: u64,
    /// Transition-activity checks made.
    pub checks: u64,
    /// Whether the subgraph hit the `max_nodes` cap.
    pub capped: bool,
    /// Ground-truth sites inside the subgraph.
    pub found: usize,
    /// Ground-truth sites.
    pub total: usize,
}

/// Back-traces every case once, one at a time, with the serving
/// defaults.
pub fn backtrace_pass(ctx: &DesignContext<'_>, cases: &[Case]) -> Vec<BtObs> {
    cases
        .iter()
        .map(|case| {
            let t = Instant::now();
            let sub = ctx.backtrace(&case.log, case.compacted, &BacktraceConfig::default());
            observe(ctx, case, &sub, t.elapsed())
        })
        .collect()
}

fn observe(ctx: &DesignContext<'_>, case: &Case, sub: &Subgraph, elapsed: Duration) -> BtObs {
    BtObs {
        ms: ms(elapsed),
        nodes: sub.len(),
        visited: sub.stats.nodes_visited,
        checks: sub.stats.activity_checks,
        capped: sub.len() >= BacktraceConfig::default().max_nodes,
        found: case
            .truth
            .iter()
            .filter(|&&site| sub.row_of(ctx.hetero.pin_of(site)).is_some())
            .count(),
        total: case.truth.len(),
    }
}

/// One case diagnosed directly.
pub struct Direct {
    /// The framework's result.
    pub result: FrameworkResult,
    /// Back-trace + diagnosis wall time, milliseconds.
    pub ms: f64,
    /// The back-trace.
    pub bt: BtObs,
}

/// Diagnoses every case directly on `pool`, as a session would:
/// `DesignContext::backtrace` then `Framework::process_log`, with
/// `frameworks[d]` serving design `d` on `ctxs[d]`.
pub fn replay_cases<C: Borrow<Case> + Sync>(
    pool: &ExecPool,
    ctxs: &[&DesignContext<'_>],
    frameworks: &[&Framework],
    cases: &[C],
) -> Vec<Direct> {
    pool.map(cases, |_, case| {
        let case = case.borrow();
        let ctx = ctxs[case.design];
        let t = Instant::now();
        let sub = ctx.backtrace(&case.log, case.compacted, &BacktraceConfig::default());
        let bt = observe(ctx, case, &sub, t.elapsed());
        let diag = AtpgDiagnosis::new(
            &ctx.fsim,
            case.compacted.then(|| ctx.chains()),
            DiagnosisConfig::default(),
        );
        let result = frameworks[case.design].process_log(ctx, &diag, &case.log, &sub);
        Direct {
            result,
            ms: ms(t.elapsed()),
            bt,
        }
    })
}

/// Collects response lines and the instant each one was completely
/// written.
#[derive(Default)]
pub struct Sink {
    partial: Vec<u8>,
    /// Complete response lines.
    pub lines: Vec<String>,
    /// When each line's newline arrived.
    pub stamps: Vec<Instant>,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            self.partial.extend_from_slice(&rest[..nl]);
            self.stamps.push(Instant::now());
            let line = String::from_utf8(std::mem::take(&mut self.partial))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            self.lines.push(line);
            rest = &rest[nl + 1..];
        }
        self.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A `BufRead` fed one request line at a time by the load generator;
/// end of input once the generator hangs up.
struct ChannelReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    at: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.at == self.buf.len() {
            if let Ok(line) = self.rx.recv() {
                self.buf = line.into_bytes();
                self.buf.push(b'\n');
                self.at = 0;
            }
        }
        Ok(&self.buf[self.at..])
    }

    fn consume(&mut self, n: usize) {
        self.at = (self.at + n).min(self.buf.len());
    }
}

/// One serving phase's output.
pub struct Served {
    /// Response lines, in the order written.
    pub sink: Sink,
    /// The server's tallies.
    pub stats: ServeStats,
    /// When the phase started.
    pub start: Instant,
}

/// Phase A: every request queued at once.
pub fn serve_all(
    registry: &Registry<'_, '_>,
    pool: &ExecPool,
    lines: &[String],
) -> io::Result<Served> {
    let mut text = lines.join("\n");
    text.push('\n');
    let mut sink = Sink::default();
    let start = Instant::now();
    let stats = serve_lines(
        registry,
        pool,
        &ServeConfig::default(),
        Cursor::new(text.into_bytes()),
        &mut sink,
    )?;
    Ok(Served { sink, stats, start })
}

/// Phase B: one generator thread sends request `i` at `start + i / rate`
/// regardless of progress (open loop). Returns the phase output, each
/// request's due time, and how late the generator sent each one (ms).
pub fn serve_open_loop(
    registry: &Registry<'_, '_>,
    pool: &ExecPool,
    lines: Vec<String>,
    rate: f64,
) -> io::Result<(Served, Vec<Instant>, Vec<f64>)> {
    let start = Instant::now() + Duration::from_millis(10);
    let dues: Vec<Instant> = (0..lines.len())
        .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let (tx, rx) = mpsc::channel::<String>();
    let reader = ChannelReader {
        rx,
        buf: Vec::new(),
        at: 0,
    };
    let mut sink = Sink::default();
    let (stats, lags) = std::thread::scope(|scope| {
        let dues = &dues;
        // The generator owns the sender: its hang-up is the end of input.
        let generator = scope.spawn(move || {
            let mut lags = Vec::with_capacity(lines.len());
            for (line, &due) in lines.into_iter().zip(dues) {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lags.push(ms(Instant::now().saturating_duration_since(due)));
                if tx.send(line).is_err() {
                    break;
                }
            }
            lags
        });
        let stats = serve_lines(registry, pool, &ServeConfig::default(), reader, &mut sink);
        let lags = generator.join().expect("load generator panicked");
        (stats, lags)
    });
    Ok((
        Served {
            sink,
            stats: stats?,
            start,
        },
        dues,
        lags,
    ))
}

/// The request line for request `i` of a phase over `cases`, cycling.
pub fn phase_lines(phase: &str, n: usize, cases: &[Case], designs: &[String]) -> Vec<String> {
    (0..n)
        .map(|i| {
            let case = &cases[i % cases.len()];
            wire::request_line(&format!("{phase}-{i}"), &designs[case.design], &case.text)
        })
        .collect()
}

/// Checks one phase's responses against the requests and the direct
/// diagnosis of their cases. Returns each response's completion instant
/// when it was served (`None` for a rejected or missing request).
pub fn check_phase(
    ledger: &mut Ledger,
    phase: &str,
    served: &Served,
    n: usize,
    cases: &[Case],
    designs: &[String],
    replays: &[FrameworkResult],
) -> Vec<Option<Instant>> {
    let lines = &served.sink.lines;
    ledger.attempted += n as u64;
    ledger.check(lines.len() == n, || {
        format!("{phase}: {} responses for {n} requests", lines.len())
    });
    ledger.check(served.stats.requests == n as u64, || {
        format!("{phase}: server admitted {} of {n}", served.stats.requests)
    });
    let mut done = vec![None; n];
    let mut failed = n.saturating_sub(lines.len()) as u64;
    for (i, line) in lines.iter().enumerate().take(n) {
        let record = match wire::parse_record(line) {
            Ok(r) => r,
            Err(e) => {
                ledger.violate(format!("{phase}-{i}: unparseable response ({e}): {line}"));
                failed += 1;
                continue;
            }
        };
        let case = &cases[i % cases.len()];
        if let Err(e) = check_record(&record, &format!("{phase}-{i}"), &designs[case.design]) {
            ledger.violate(format!("{phase}-{i}: {e}: {line}"));
        }
        if record.str("status") == Some("rejected") {
            failed += 1;
            continue;
        }
        if let Err(e) = matches_replay(&record, &replays[i % cases.len()]) {
            ledger.violate(format!("{phase}-{i}: differs from direct diagnosis: {e}"));
        }
        done[i] = Some(served.sink.stamps[i]);
    }
    ledger.failed += failed;
    done
}

/// The protocol-level checks of one response record.
fn check_record(r: &Record, id: &str, design: &str) -> Result<(), String> {
    let keys: Vec<&str> = r.keys().collect();
    if keys != m3d_serve::RESPONSE_KEYS {
        return Err(format!("keys {keys:?}"));
    }
    if r.str("id") != Some(id) {
        return Err(format!("id echo {:?}", r.get("id")));
    }
    if r.str("design") != Some(design) {
        return Err(format!("design echo {:?}", r.get("design")));
    }
    if r.str("status") == Some("rejected") {
        return Ok(());
    }
    let (kept, pruned, atpg) = (
        r.count("resolution"),
        r.count("pruned"),
        r.count("atpg_resolution"),
    );
    match (kept, pruned, atpg) {
        (Some(k), Some(p), Some(a)) if k + p == a => Ok(()),
        _ => Err(format!(
            "resolution {kept:?} + pruned {pruned:?} != atpg_resolution {atpg:?}"
        )),
    }
}

/// Whether a served record carries exactly the direct diagnosis.
fn matches_replay(r: &Record, x: &FrameworkResult) -> Result<(), String> {
    let o = &x.outcome;
    let want: [(&str, Value); 8] = [
        (
            "status",
            Value::Str(
                if x.degraded.is_some() {
                    "degraded"
                } else {
                    "ok"
                }
                .into(),
            ),
        ),
        (
            "degrade_reason",
            x.degraded
                .map_or(Value::Null, |d| Value::Str(d.as_str().into())),
        ),
        ("tier", Value::Num(o.predicted_tier.0.to_string())),
        (
            "confidence",
            Value::Str(format!("{:08x}", o.confidence.to_bits())),
        ),
        (
            "action",
            Value::Str(
                match o.action {
                    PolicyAction::Pruned => "pruned",
                    PolicyAction::Reordered => "reordered",
                }
                .into(),
            ),
        ),
        ("resolution", Value::Num(o.report.resolution().to_string())),
        (
            "atpg_resolution",
            Value::Num(x.atpg_report.resolution().to_string()),
        ),
        ("pruned", Value::Num(o.pruned.len().to_string())),
    ];
    for (key, value) in want {
        if r.get(key) != Some(&value) {
            return Err(format!("{key}: served {:?}, direct {value:?}", r.get(key)));
        }
    }
    Ok(())
}

/// Records the end-to-end diagnosis quality of the direct pass, plus the
/// per-layer ATPG, inference and policy figures its results carry.
/// Returns the quality figures, for the cross-run determinism check.
pub fn record_quality(
    ledger: &mut Ledger,
    cases: &[Case],
    replays: &[FrameworkResult],
) -> Vec<f64> {
    let n = replays.len();
    let mut hits = 0;
    let mut atpg_hits = 0;
    let mut fhis = Vec::new();
    let (mut tier_ok, mut tier_n) = (0, 0);
    for (case, r) in cases.iter().zip(replays) {
        let report = &r.outcome.report;
        if report.hits_any(&case.truth) {
            hits += 1;
        }
        if let Some(i) = report.first_hit_index(&case.truth) {
            fhis.push(i as f64);
        }
        if r.atpg_report.hits_any(&case.truth) {
            atpg_hits += 1;
        }
        if let (Some(tier), None) = (case.tier, r.degraded) {
            tier_n += 1;
            tier_ok += usize::from(r.outcome.predicted_tier == tier);
        }
    }
    let col = |f: &dyn Fn(&FrameworkResult) -> f64| replays.iter().map(f).collect::<Vec<f64>>();
    let resolution = stats::mean(&col(&|r| r.outcome.report.resolution() as f64));
    let quality = vec![
        stats::share(hits, n),
        resolution,
        stats::mean(&fhis),
        stats::share(replays.iter().filter(|r| r.degraded.is_some()).count(), n),
    ];
    ledger.set("accuracy", quality[0]);
    ledger.set("resolution_mean", quality[1]);
    ledger.set("fhi_mean", quality[2]);
    ledger.set("degraded_share", quality[3]);
    ledger.set("gnn.tier_acc", stats::share(tier_ok, tier_n));

    let t_atpg = col(&|r| ms(r.t_atpg));
    ledger.set("diagnosis.atpg_p50_ms", stats::median(&t_atpg));
    ledger.set("diagnosis.atpg_p99_ms", stats::quantile(&t_atpg, 0.99));
    ledger.set(
        "diagnosis.atpg_resolution_mean",
        stats::mean(&col(&|r| r.atpg_report.resolution() as f64)),
    );
    ledger.set("diagnosis.atpg_accuracy", stats::share(atpg_hits, n));
    ledger.set("gnn.infer_p50_us", stats::median(&col(&|r| us(r.t_gnn))));
    ledger.set(
        "policy.update_p50_us",
        stats::median(&col(&|r| us(r.t_update))),
    );
    ledger.set(
        "policy.pruned_share",
        stats::share(
            replays
                .iter()
                .filter(|r| r.outcome.action == PolicyAction::Pruned)
                .count(),
            n,
        ),
    );
    quality
}

/// Records the per-diagnosis latency of the direct pass.
pub fn record_latency(ledger: &mut Ledger, latency_ms: &[f64]) {
    ledger.set("diag_p50_ms", stats::median(latency_ms));
    ledger.set("diag_p99_ms", stats::quantile(latency_ms, 0.99));
}

/// Records the back-trace metrics of a set of back-traces. Returns the
/// ground-truth figures, for the cross-run determinism check.
pub fn record_backtrace(ledger: &mut Ledger, obs: &[BtObs]) -> Vec<f64> {
    let col = |f: &dyn Fn(&BtObs) -> f64| obs.iter().map(f).collect::<Vec<f64>>();
    let times = col(&|o| o.ms);
    let nodes = col(&|o| o.nodes as f64);
    ledger.set("core.backtrace_p50_ms", stats::median(&times));
    ledger.set("core.backtrace_p99_ms", stats::quantile(&times, 0.99));
    ledger.set(
        "core.backtrace.nodes_visited",
        stats::mean(&col(&|o| o.visited as f64)),
    );
    ledger.set(
        "core.backtrace.activity_checks",
        stats::mean(&col(&|o| o.checks as f64)),
    );
    let truth = vec![
        stats::median(&nodes),
        stats::quantile(&nodes, 0.95),
        stats::share(obs.iter().filter(|o| o.capped).count(), obs.len()),
        stats::share(
            obs.iter().map(|o| o.found).sum(),
            obs.iter().map(|o| o.total).sum(),
        ),
    ];
    ledger.set("core.subgraph_nodes_p50", truth[0]);
    ledger.set("core.subgraph_nodes_p95", truth[1]);
    ledger.set("core.subgraph_capped_share", truth[2]);
    ledger.set("core.backtrace_truth_recall", truth[3]);
    truth
}

/// What the serving phases of every round add up to.
#[derive(Default)]
pub struct Serving {
    /// Phase A requests answered (not rejected).
    pub a_ok: usize,
    /// Phase A wall time, from queueing the first request to the last
    /// answer.
    pub a_wall: Duration,
    /// Phase B latency of each request from its due time (rejected and
    /// missing requests excluded).
    pub b_latency: Vec<f64>,
    /// Phase B requests sent.
    pub b_sent: usize,
    /// How late the generator sent each Phase B request.
    pub lags: Vec<f64>,
    /// Server dispatches and requests, both phases.
    pub batches: u64,
    /// Requests the server admitted, both phases.
    pub requests: u64,
}

impl Serving {
    /// Adds one Phase A: its output and the completion instant of each
    /// answered request.
    pub fn add_a(&mut self, served: &Served, done: &[Option<Instant>]) {
        self.a_ok += done.iter().flatten().count();
        if let Some(last) = done.iter().flatten().max() {
            self.a_wall += last.saturating_duration_since(served.start);
        }
        self.add_stats(&served.stats);
    }

    /// Adds one Phase B.
    pub fn add_b(
        &mut self,
        served: &Served,
        done: &[Option<Instant>],
        dues: &[Instant],
        lags: &[f64],
    ) {
        self.b_sent += done.len();
        self.b_latency.extend(
            done.iter()
                .zip(dues)
                .filter_map(|(d, &due)| d.map(|d| ms(d.saturating_duration_since(due)))),
        );
        self.lags.extend_from_slice(lags);
        self.add_stats(&served.stats);
    }

    fn add_stats(&mut self, stats: &ServeStats) {
        self.batches += stats.batches;
        self.requests += stats.requests;
    }

    /// Records Phase A throughput, the Phase B SLO share (a rejected or
    /// missing request misses) and open-loop latency, and the server and
    /// generator figures.
    pub fn record(&self, ledger: &mut Ledger, slo_ms: f64) {
        let wall = self.a_wall.as_secs_f64();
        ledger.set(
            "diag_per_s",
            if wall > 0.0 {
                self.a_ok as f64 / wall
            } else {
                0.0
            },
        );
        let within = self.b_latency.iter().filter(|&&l| l <= slo_ms).count();
        ledger.set("diag_within_slo", stats::share(within, self.b_sent));
        ledger.set("serve.open_loop_p50_ms", stats::median(&self.b_latency));
        ledger.set(
            "serve.open_loop_p99_ms",
            stats::quantile(&self.b_latency, 0.99),
        );
        ledger.set("serve.batches", self.batches as f64);
        ledger.set(
            "serve.batch_size_mean",
            stats::share(self.requests as usize, self.batches as usize),
        );
        ledger.set("serve.generator_lag_ms", stats::quantile(&self.lags, 0.99));
    }
}
