//! The traced run's per-layer attribution, timed from outside the
//! library: the composite set-up and diagnosis calls are replayed step by
//! step through each layer's public entry point, and every replay is
//! checked bit-identical to the composite call it stands for.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::{Duration, Instant};

use m3d_exec::ExecPool;
use m3d_fault_loc::{
    generate_samples_with_pool, DatasetConfig, DesignConfig, DesignContext, DiagnosisSession,
    FeatureExtractor, Framework, FrameworkResult, HNodeId, HNodeKind, HeteroGraph, TestBench,
    TestBenchConfig,
};
use m3d_netlist::{insert_observation_points, try_generate, Pin, SynthesisCorner, TestPointConfig};
use m3d_part::{
    LevelDrivenPartitioner, M3dNetlist, MinCutPartitioner, Partitioner, RandomPartitioner,
};
use m3d_sim::{generate_patterns, parse_failure_log, FaultSimulator};

use crate::flow::Case;
use crate::stats::{self, ms, us, Ledger};

/// Per-layer set-up time, summed over the benches a workload sets up.
#[derive(Debug, Default)]
pub struct SetupLayers {
    generate: Duration,
    partition: Duration,
    atpg: Duration,
    patterns: usize,
    coverage: Vec<f64>,
    fsim: Duration,
    hetero: Duration,
    nodes: usize,
    features: Duration,
}

/// Replays the netlist → partition → ATPG steps of
/// `TestBench::try_build(cfg)` and checks each result equals `bench`.
pub fn replay_bench(
    ledger: &mut Ledger,
    layers: &mut SetupLayers,
    cfg: &TestBenchConfig,
    bench: &TestBench,
) {
    let corner = match cfg.config {
        DesignConfig::Syn2 => SynthesisCorner::Syn2,
        _ => SynthesisCorner::Syn1,
    };
    let mut gen = cfg.profile.config(cfg.scale, corner);
    if let Some(cap) = cfg.max_scan_flops {
        if gen.n_flops > cap {
            gen.n_comb_gates += gen.n_flops - cap;
            gen.n_flops = cap;
        }
    }
    if let Some(cap) = cfg.max_outputs {
        gen.n_outputs = gen.n_outputs.min(cap.max(1));
        gen.max_tap_outputs = Some(cap.max(4) / 4);
    }
    let t = Instant::now();
    let mut nl = match try_generate(&gen) {
        Ok(nl) => nl,
        Err(e) => return ledger.violate(format!("{}: replayed generate: {e}", bench.name)),
    };
    if cfg.config == DesignConfig::Tpi {
        insert_observation_points(&mut nl, &TestPointConfig::default());
    }
    layers.generate += t.elapsed();

    let t = Instant::now();
    let part = match cfg.config {
        DesignConfig::Par => LevelDrivenPartitioner.partition(&nl, 2),
        DesignConfig::RandomPart { seed } => RandomPartitioner::new(seed).partition(&nl, 2),
        _ => MinCutPartitioner::default().partition(&nl, 2),
    };
    layers.partition += t.elapsed();

    let t = Instant::now();
    let atpg = generate_patterns(&nl, &cfg.atpg);
    layers.atpg += t.elapsed();
    layers.patterns += atpg.patterns.len();
    layers.coverage.push(atpg.coverage);

    let t = Instant::now();
    let m3d = M3dNetlist::build(nl, part);
    layers.partition += t.elapsed();

    ledger.check(m3d == bench.m3d, || {
        format!("{}: replayed netlist/partition differ", bench.name)
    });
    ledger.check(
        atpg.patterns == bench.patterns && atpg.coverage.to_bits() == bench.coverage.to_bits(),
        || format!("{}: replayed ATPG differs", bench.name),
    );
}

/// The replayed `DesignContext::new` steps of one bench, kept as digests
/// so a paper-class graph is never held twice.
pub struct ContextReplay<'a> {
    fsim: FaultSimulator<'a>,
    hetero: u64,
    features: u64,
}

/// Replays `FaultSimulator::new` → `HeteroGraph::build` →
/// `FeatureExtractor::compute` on `bench`.
pub fn replay_context<'a>(layers: &mut SetupLayers, bench: &'a TestBench) -> ContextReplay<'a> {
    let t = Instant::now();
    let fsim = FaultSimulator::new(bench.netlist(), &bench.patterns);
    layers.fsim += t.elapsed();
    let t = Instant::now();
    let hetero = HeteroGraph::build(&bench.m3d, fsim.obs());
    layers.hetero += t.elapsed();
    layers.nodes += hetero.node_count();
    let t = Instant::now();
    let features = FeatureExtractor::compute(&bench.m3d, &hetero);
    layers.features += t.elapsed();
    ContextReplay {
        hetero: hetero_digest(&hetero),
        features: features_digest(&features),
        fsim,
    }
}

/// Checks a replay against the composite `DesignContext::new` result.
pub fn check_context(ledger: &mut Ledger, replay: &ContextReplay<'_>, ctx: &DesignContext<'_>) {
    let name = &ctx.bench.name;
    let (a, b) = (replay.fsim.sim(), ctx.fsim.sim());
    let sim_equal = a.word_count() == b.word_count()
        && a.net_count() == b.net_count()
        && (0..a.word_count()).all(|w| {
            a.v2_row(w) == b.v2_row(w)
                && (0..a.net_count()).all(|n| {
                    let net = m3d_netlist::NetId(n as u32);
                    a.v1(w, net) == b.v1(w, net)
                })
        });
    ledger.check(
        sim_equal
            && replay.fsim.obs() == ctx.fsim.obs()
            && replay.fsim.patterns() == ctx.fsim.patterns(),
        || format!("{name}: replayed fault simulator differs"),
    );
    ledger.check(replay.hetero == hetero_digest(&ctx.hetero), || {
        format!("{name}: replayed hetero graph differs")
    });
    ledger.check(replay.features == features_digest(&ctx.features), || {
        format!("{name}: replayed features differ")
    });
}

fn hetero_digest(g: &HeteroGraph) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_usize(g.node_count());
    h.write_usize(g.pin_count());
    for i in 0..g.node_count() {
        let n = HNodeId(i as u32);
        match g.kind(n) {
            HNodeKind::Pin(p) => {
                h.write_u8(0);
                h.write_u32(p.gate.0);
                h.write_u16(match p.pin {
                    Pin::Input(k) => u16::from(k),
                    Pin::Output => u16::MAX,
                });
            }
            HNodeKind::Miv(m) => {
                h.write_u8(1);
                h.write_u32(m.0);
            }
        }
        h.write_u32(g.net_of(n).map_or(u32::MAX, |net| net.0));
    }
    for &(a, b) in g.edges() {
        h.write_u32(a);
        h.write_u32(b);
    }
    for tn in g.topnodes() {
        h.write_u32(tn.obs.0);
        h.write_usize(tn.cone.len());
        for e in &tn.cone {
            h.write_u32(e.node.0);
            h.write_u16(e.dist);
            h.write_u16(e.mivs);
        }
    }
    h.finish()
}

fn features_digest(f: &FeatureExtractor) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_usize(f.node_count());
    for i in 0..f.node_count() {
        for v in f.node_row(HNodeId(i as u32)) {
            h.write_u32(v.to_bits());
        }
    }
    h.finish()
}

/// Records the set-up layers; `ctx_new` holds each repetition's total
/// `DesignContext::new` time over the same benches.
pub fn record_setup(ledger: &mut Ledger, layers: &SetupLayers, ctx_new: &[Duration]) {
    ledger.set("netlist.generate_ms", ms(layers.generate));
    ledger.set("part.partition_ms", ms(layers.partition));
    ledger.set("sim.atpg_ms", ms(layers.atpg));
    ledger.set("sim.atpg_patterns", layers.patterns as f64);
    ledger.set("sim.fault_coverage", stats::mean(&layers.coverage));
    ledger.set("sim.fsim_setup_ms", ms(layers.fsim));
    ledger.set("core.hetero_build_ms", ms(layers.hetero));
    ledger.set("core.hetero_nodes", layers.nodes as f64);
    ledger.set("core.features_ms", ms(layers.features));
    let composite = stats::median(&ctx_new.iter().map(|d| ms(*d)).collect::<Vec<_>>());
    ledger.set(
        "core.context_other_ms",
        composite - ms(layers.fsim + layers.hetero + layers.features),
    );
}

/// Checks each direct diagnosis bit-identical to the session's
/// `DiagnosisSession::diagnose` on the same log.
pub fn check_sessions(
    ledger: &mut Ledger,
    pool: &ExecPool,
    sessions: &[DiagnosisSession<'_>],
    cases: &[Case],
    replays: &[FrameworkResult],
) {
    let served = pool.map(cases, |_, case| sessions[case.design].diagnose(&case.log));
    for (i, (a, b)) in replays.iter().zip(&served).enumerate() {
        let fields = [
            ("atpg_report", a.atpg_report == b.atpg_report),
            ("report", a.outcome.report == b.outcome.report),
            ("pruned", a.outcome.pruned == b.outcome.pruned),
            ("action", a.outcome.action == b.outcome.action),
            ("tier", a.outcome.predicted_tier == b.outcome.predicted_tier),
            (
                "confidence",
                a.outcome.confidence.to_bits() == b.outcome.confidence.to_bits(),
            ),
            (
                "faulty_mivs",
                a.outcome.faulty_mivs == b.outcome.faulty_mivs,
            ),
            ("degraded", a.degraded == b.degraded),
            ("t_p_fallback", a.t_p_fallback == b.t_p_fallback),
        ];
        let differ: Vec<&str> = fields
            .iter()
            .filter(|(_, same)| !same)
            .map(|(f, _)| *f)
            .collect();
        ledger.check(differ.is_empty(), || {
            format!(
                "case {i} (design {}): back-trace + process_log differs from the session's \
                 diagnosis in {differ:?}",
                cases[i].design
            )
        });
    }
}

/// Times the server's request parse (`parse_request` then
/// `parse_failure_log`) on every request line, checking each parses back
/// to its case's log.
pub fn record_parse(ledger: &mut Ledger, lines: &[String], cases: &[Case]) {
    let mut times = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let t = Instant::now();
        let parsed = m3d_serve::parse_request(line)
            .and_then(|req| parse_failure_log(&req.log).map_err(|e| e.to_string()));
        times.push(us(t.elapsed()));
        let case = &cases[i % cases.len()];
        ledger.check(parsed.as_ref() == Ok(&case.log), || {
            format!("request {i}: parses to a different log")
        });
    }
    ledger.set("serve.parse_p50_us", stats::median(&times));
}

/// Records the trained models' figures: threshold provenance and the
/// MIV-pinpointer's accuracy on fresh MIV-defect samples of each
/// `(context, framework)` pair.
pub fn record_models(
    ledger: &mut Ledger,
    pool: &ExecPool,
    pairs: &[(&DesignContext<'_>, &Framework)],
    seed: u64,
) {
    let (mut correct, mut total) = (0.0, 0usize);
    for (i, (ctx, fw)) in pairs.iter().enumerate() {
        let Some(miv) = fw.miv_pinpointer() else {
            continue;
        };
        let cfg = DatasetConfig {
            miv_fraction: 1.0,
            ..DatasetConfig::single(40, seed.wrapping_add(i as u64))
        };
        let samples: Vec<_> = generate_samples_with_pool(ctx, &cfg, pool)
            .iter()
            .filter_map(|s| s.miv_sample())
            .collect();
        if samples.is_empty() {
            continue;
        }
        correct += miv.accuracy(&samples) * samples.len() as f64;
        total += samples.len();
    }
    ledger.set(
        "gnn.miv_acc",
        if total > 0 {
            correct / total as f64
        } else {
            0.0
        },
    );
    let fws: Vec<&Framework> = pairs.iter().map(|(_, f)| *f).collect();
    ledger.set(
        "gnn.t_p",
        stats::mean(&fws.iter().map(|f| f64::from(f.t_p())).collect::<Vec<_>>()),
    );
    ledger.set(
        "gnn.t_p_fallback",
        stats::share(
            fws.iter().filter(|f| f.t_p_is_fallback()).count(),
            fws.len(),
        ),
    );
}
