//! Whole-workload benchmark for `m3d-fault-loc`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --rate train-quick=HZ --rate serve-quick=HZ --rate setup-large=HZ --slo-ms MS \
//!     --workload <train-quick|serve-quick|setup-large> --seed N --seconds S --trace <0|1>
//! ```
//!
//! One run is one process and one workload. `--trace 0` measures the
//! end-to-end metrics with nothing added to the program's own calls;
//! `--trace 1` additionally replays every composite call layer by layer
//! from this crate's own timers and reports the per-layer metrics. Every
//! run checks its outputs; any violation prints `"correct": false` and
//! exits 1. The last line of standard output is the JSON result.

mod flow;
mod layers;
mod procfs;
mod stats;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use flow::{Run, THREADS};
use stats::Ledger;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("train_s", "s"),
    ("diag_per_s", "diagnoses/s"),
    ("diag_p50_ms", "ms"),
    ("diag_p99_ms", "ms"),
    ("diag_within_slo", "share"),
    ("accuracy", "share"),
    ("resolution_mean", "candidates"),
    ("fhi_mean", "rank"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 46] = [
    ("netlist.generate_ms", "ms"),
    ("part.partition_ms", "ms"),
    ("sim.atpg_ms", "ms"),
    ("sim.atpg_patterns", "count"),
    ("sim.fault_coverage", "share"),
    ("sim.fsim_setup_ms", "ms"),
    ("core.hetero_build_ms", "ms"),
    ("core.hetero_nodes", "count"),
    ("core.features_ms", "ms"),
    ("core.context_other_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("core.backtrace_p50_ms", "ms"),
    ("core.backtrace_p99_ms", "ms"),
    ("core.backtrace.nodes_visited", "count"),
    ("core.backtrace.activity_checks", "count"),
    ("core.subgraph_nodes_p50", "count"),
    ("core.subgraph_nodes_p95", "count"),
    ("core.subgraph_capped_share", "share"),
    ("core.backtrace_truth_recall", "share"),
    ("core.dataset_ms", "ms"),
    ("core.samples", "count"),
    ("gnn.train_ms", "ms"),
    ("gnn.train_flops", "flop"),
    ("gnn.train_gflop_s", "GFLOP/s"),
    ("gnn.tier_acc", "share"),
    ("gnn.miv_acc", "share"),
    ("gnn.t_p", "share"),
    ("gnn.t_p_fallback", "share"),
    ("gnn.infer_p50_us", "us"),
    ("gnn.infer_flops", "flop"),
    ("diagnosis.atpg_p50_ms", "ms"),
    ("diagnosis.atpg_p99_ms", "ms"),
    ("diagnosis.atpg_resolution_mean", "candidates"),
    ("diagnosis.atpg_accuracy", "share"),
    ("degraded_share", "share"),
    ("policy.update_p50_us", "us"),
    ("policy.pruned_share", "share"),
    ("serve.parse_p50_us", "us"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.open_loop_p50_ms", "ms"),
    ("serve.open_loop_p99_ms", "ms"),
    ("proc.minor_faults", "count"),
    ("proc.major_faults", "count"),
    ("obs.trace_overhead_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["train-quick", "serve-quick", "setup-large"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rates: Vec<(String, f64)>,
    slo_ms: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rates = Vec::new();
    let mut slo_ms = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            "--slo-ms" => slo_ms = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--rate" => {
                let (w, hz) = value.split_once('=').ok_or_else(bad)?;
                rates.push((w.to_string(), hz.parse::<f64>().map_err(|_| bad())?));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rates,
        slo_ms: slo_ms.ok_or("--slo-ms is required")?,
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` ({})",
            args.workload,
            WORKLOADS.join("|")
        ));
    }
    if !(args.seconds > 0.0 && args.slo_ms > 0.0) {
        return Err("--seconds and --slo-ms must be positive".into());
    }
    Ok(args)
}

/// Where runs of one checkout leave state for each other: beside the
/// build output.
fn state_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench-state")
}

/// A digest of this executable, so state written by another build of the
/// benchmark or the library is never compared against.
fn build_id() -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    if let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) {
        h.write(&bytes);
    }
    h.finish()
}

/// Quality figures must repeat exactly for the same seed and build: the
/// first run records them, every later run compares.
fn check_repeatable(ledger: &mut Ledger, workload: &str, seed: u64, quality: &[f64]) {
    let dir = state_dir();
    let path = dir.join(format!("quality-{workload}-{seed}-{:016x}.txt", build_id()));
    let text = format!("{quality:?}\n");
    match std::fs::read_to_string(&path) {
        Ok(prev) => ledger.check(prev == text, || {
            format!("quality differs from an earlier run with seed {seed}: {prev:?} vs {text:?}")
        }),
        Err(_) => {
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&tmp, &text))
                .and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                eprintln!(
                    "perfbench: cannot record quality at {}: {e}",
                    path.display()
                );
            }
        }
    }
}

fn main() -> ExitCode {
    // End-to-end numbers come from the program as a user runs it: no obs
    // report or stream, default kernel dispatch. The environment is set
    // before any library code reads it.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("M3D_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var(m3d_exec::THREADS_ENV, THREADS.to_string());

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, rate)) = args.rates.iter().find(|(w, _)| *w == args.workload) else {
        eprintln!("perfbench: no --rate given for {}", args.workload);
        return ExitCode::from(2);
    };

    let started = Instant::now();
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rate,
        slo_ms: args.slo_ms,
        pool: m3d_exec::ExecPool::with_threads(THREADS),
        trace_only: std::time::Duration::ZERO,
        started,
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {} pool threads {} simd {} git rev {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procfs::nproc(),
        run.pool.threads(),
        m3d_gnn::simd_mode(),
        procfs::git_rev(),
    );

    let mut ledger = Ledger::default();
    let outcome = match args.workload.as_str() {
        "train-quick" => workloads::train_quick(&mut run, &mut ledger),
        "serve-quick" => workloads::serve_quick(&mut run, &mut ledger),
        _ => workloads::setup_large(&mut run, &mut ledger),
    };
    let quality = match outcome {
        Ok(q) => q,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    check_repeatable(&mut ledger, &args.workload, args.seed, &quality);

    if let Some(rss) = procfs::peak_rss_mib() {
        ledger.set("peak_rss_mib", rss);
    }
    if let Some((minor, major)) = procfs::page_faults() {
        ledger.set("proc.minor_faults", minor as f64);
        ledger.set("proc.major_faults", major as f64);
    }
    let total = started.elapsed();
    let base = total.saturating_sub(run.trace_only).as_secs_f64();
    ledger.set(
        "obs.trace_overhead_pct",
        100.0 * run.trace_only.as_secs_f64() / base,
    );

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut entries = Vec::new();
    for &(name, unit) in table {
        match ledger.get(name) {
            Some(v) if v.is_finite() => {
                println!("{name} = {v} {unit}");
                entries.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            other => ledger.violate(format!("metric {name} not measured ({other:?})")),
        }
    }
    let correct = ledger.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        entries.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
