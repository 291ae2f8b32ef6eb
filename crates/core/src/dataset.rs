//! Diagnosis-sample generation: inject a fault, capture its tester
//! failure log, back-trace the subgraph, attach labels.
//!
//! Mirrors the paper's dataset flow: 5000 single-TDF samples per
//! benchmark/configuration (scaled down here), optional MIV-defect samples
//! (a defective via delays all its far-side load pins), and the 2–5
//! same-tier multi-TDF samples of the Table X study.

use crate::backtrace::{
    backtrace, backtrace_sharded, BacktraceConfig, ConeIndex, ConeMemo, Subgraph,
};
use crate::design::TestBench;
use crate::features::FeatureExtractor;
use crate::hetero::HeteroGraph;
use m3d_exec::ExecPool;
use m3d_gnn::GraphSample;
use m3d_netlist::{PinRef, ScanChains};
use m3d_part::{MivId, Tier};
use m3d_sim::{FailureLog, FaultSimulator, Polarity, Tdf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The defect injected into a sample.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectedFault {
    /// One TDF at one pin.
    Single(Tdf),
    /// A defective MIV: every far-side load pin of the via is delayed.
    Miv {
        /// The defective via.
        miv: MivId,
        /// Delay polarity.
        polarity: Polarity,
    },
    /// Tier-systematic defect: several TDFs within one tier (Table X).
    MultiTier {
        /// The common tier.
        tier: Tier,
        /// The injected faults (all sites in `tier`).
        faults: Vec<Tdf>,
    },
}

impl InjectedFault {
    /// The TDF list to hand the fault simulator.
    pub fn tdfs(&self, bench: &TestBench) -> Vec<Tdf> {
        match self {
            InjectedFault::Single(f) => vec![*f],
            InjectedFault::Miv { miv, polarity } => bench
                .m3d
                .miv(*miv)
                .far_loads
                .iter()
                .map(|&pin| Tdf::new(pin, *polarity))
                .collect(),
            InjectedFault::MultiTier { faults, .. } => faults.clone(),
        }
    }

    /// Ground-truth defect sites for report metrics.
    pub fn truth_sites(&self, bench: &TestBench) -> Vec<PinRef> {
        match self {
            InjectedFault::Single(f) => vec![f.site],
            InjectedFault::Miv { miv, .. } => {
                let m = bench.m3d.miv(*miv);
                let mut sites = m.far_loads.clone();
                if let Some(drv) = bench.netlist().net(m.net).driver {
                    sites.push(PinRef::output(drv));
                }
                sites
            }
            InjectedFault::MultiTier { faults, .. } => faults.iter().map(|f| f.site).collect(),
        }
    }

    /// Tier label for Tier-predictor supervision (`None` for MIV defects —
    /// vias belong to no tier, Section VII-B).
    pub fn tier(&self, bench: &TestBench) -> Option<Tier> {
        match self {
            InjectedFault::Single(f) => Some(bench.tier_of(f.site.gate)),
            InjectedFault::Miv { .. } => None,
            InjectedFault::MultiTier { tier, .. } => Some(*tier),
        }
    }

    /// The MIVs this defect makes faulty.
    pub fn faulty_mivs(&self) -> Vec<MivId> {
        match self {
            InjectedFault::Miv { miv, .. } => vec![*miv],
            _ => vec![],
        }
    }
}

/// One dataset sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What was injected.
    pub fault: InjectedFault,
    /// The tester failure log.
    pub log: FailureLog,
    /// The back-traced subgraph.
    pub subgraph: Subgraph,
    /// Ground-truth sites.
    pub truth: Vec<PinRef>,
}

impl Sample {
    /// Tier-predictor training/eval sample (graph-level; `None` for MIV
    /// defects or empty subgraphs).
    pub fn tier_sample(&self, bench: &TestBench) -> Option<GraphSample> {
        if self.subgraph.is_empty() {
            return None;
        }
        let tier = self.fault.tier(bench)?;
        Some(GraphSample::graph_level(
            self.subgraph.adj.clone(),
            self.subgraph.x.clone(),
            tier.index(),
        ))
    }

    /// MIV-pinpointer sample (node-level over the subgraph's MIV rows;
    /// `None` when the subgraph has no MIV nodes).
    pub fn miv_sample(&self) -> Option<GraphSample> {
        if self.subgraph.miv_rows.is_empty() {
            return None;
        }
        let faulty = self.fault.faulty_mivs();
        let targets: Vec<(usize, usize)> = self
            .subgraph
            .miv_rows
            .iter()
            .map(|&(row, miv)| (row, usize::from(faulty.contains(&miv))))
            .collect();
        Some(GraphSample::new(
            self.subgraph.adj.clone(),
            self.subgraph.x.clone(),
            targets,
        ))
    }
}

/// Everything needed to diagnose on one test bench (built once, reused for
/// every sample).
pub struct DesignContext<'a> {
    /// The test bench.
    pub bench: &'a TestBench,
    /// Fault simulator over the bench's pattern set.
    pub fsim: FaultSimulator<'a>,
    /// The heterogeneous graph.
    pub hetero: HeteroGraph,
    /// Global node features.
    pub features: FeatureExtractor,
    /// Memoized active fan-in cones shared by every back-trace on this
    /// bench (valid for the context's lifetime: graph and patterns are
    /// immutable once built).
    pub cone_memo: ConeMemo,
    /// Levelized partition + packed cone slices for sharded back-tracing.
    /// Built automatically for paper-scale graphs (see
    /// [`SHARD_AUTO_NODES`]); `None` keeps the monolithic path, whose
    /// results are bit-identical.
    pub cone_index: Option<ConeIndex>,
}

/// Node count past which [`DesignContext::new`] back-traces through a
/// [`ConeIndex`]: at this size the dense per-partition support arrays of
/// the sharded path beat the monolithic hash maps even single-threaded,
/// while quick-profile designs stay on the memoized path that their
/// wall-clock baselines pin.
pub const SHARD_AUTO_NODES: usize = 150_000;

impl<'a> DesignContext<'a> {
    /// Prepares simulation, graph, and features for `bench`, fanning the
    /// per-Topnode passes out over the environment-resolved [`ExecPool`].
    /// A [`Pipeline`](crate::Pipeline) builds its contexts on its
    /// own pool instead, so [`PipelineBuilder::threads`](crate::PipelineBuilder::threads)
    /// bounds set-up too.
    pub fn new(bench: &'a TestBench) -> Self {
        DesignContext::with_pool(bench, &ExecPool::default())
    }

    /// [`DesignContext::new`] on an explicit thread budget: the Topnode
    /// cones, the Topedge feature aggregates and the [`ConeIndex`] packing
    /// all run on `pool`. The context is bit-identical at any thread count.
    pub(crate) fn with_pool(bench: &'a TestBench, pool: &ExecPool) -> Self {
        let fsim = {
            let _span = m3d_obs::span!("context.fsim");
            FaultSimulator::new(bench.netlist(), &bench.patterns)
        };
        let hetero = HeteroGraph::build_with_pool(&bench.m3d, fsim.obs(), pool);
        let features = FeatureExtractor::compute_with_pool(&bench.m3d, &hetero, pool);
        let cone_index = (hetero.node_count() >= SHARD_AUTO_NODES).then(|| {
            let parts = (hetero.node_count() / 75_000).clamp(2, 16);
            ConeIndex::build_with_pool(bench.netlist(), &hetero, parts, pool)
        });
        DesignContext {
            bench,
            fsim,
            hetero,
            features,
            cone_memo: ConeMemo::new(),
            cone_index,
        }
    }

    /// [`DesignContext::new`] with a forced [`ConeIndex`] over
    /// `n_partitions` level bands, regardless of design size (0 drops the
    /// index and pins the monolithic path).
    pub fn with_partitions(bench: &'a TestBench, n_partitions: usize) -> Self {
        let mut ctx = DesignContext::new(bench);
        ctx.cone_index = (n_partitions > 0)
            .then(|| ConeIndex::build(bench.netlist(), &ctx.hetero, n_partitions));
        ctx
    }

    /// The scan chains when diagnosing compacted logs.
    pub fn chains(&self) -> &ScanChains {
        &self.bench.chains
    }

    /// Generates the failure log for a fault (compacted or bypass).
    pub fn failure_log(&self, fault: &InjectedFault, compacted: bool) -> FailureLog {
        self.masked_failure_log(fault, compacted, 1.0, 0)
    }

    /// Generates a failure log with slack-dependent detection: each fault
    /// effect reaches the tester with probability `detect_prob`.
    ///
    /// Real transition faults are *small-delay* defects — whether a
    /// sensitized path actually fails depends on its slack, so tester logs
    /// never exactly match the full-delay candidate simulation a diagnosis
    /// tool runs. This seeded Bernoulli masking reproduces that mismatch
    /// (and with it the realistic resolution/FHI spreads of Table V); see
    /// DESIGN.md §2.
    pub fn masked_failure_log(
        &self,
        fault: &InjectedFault,
        compacted: bool,
        detect_prob: f64,
        seed: u64,
    ) -> FailureLog {
        let mut detections = self.fsim.simulate(&fault.tdfs(self.bench));
        if detect_prob < 1.0 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5D17_AC7B);
            detections.retain(|_| rng.gen_bool(detect_prob));
        }
        if compacted {
            FailureLog::compacted(&detections, self.fsim.obs(), &self.bench.chains)
        } else {
            FailureLog::uncompacted(&detections)
        }
    }

    /// Validates a failure log against this design: every entry must
    /// reference an in-range pattern and resolve to at least one
    /// observation point (a real [`ObsId`](m3d_sim::ObsId) in bypass mode,
    /// a populated channel/position in compacted mode).
    ///
    /// The pipeline itself never needs this — every stage now skips
    /// corrupt entries with counters — but callers ingesting third-party
    /// tester logs can reject garbage up front with a typed error.
    ///
    /// # Errors
    ///
    /// [`crate::Error::CorruptFailureLog`] carrying the number of entries
    /// that failed validation.
    pub fn validate_log(&self, log: &FailureLog, compacted: bool) -> Result<(), crate::Error> {
        let pattern_cap = self.fsim.sim().pattern_capacity();
        let obs = self.fsim.obs();
        let corrupt = log
            .entries()
            .iter()
            .filter(|e| {
                if e.pattern as usize >= pattern_cap {
                    return true;
                }
                match e.obs {
                    m3d_sim::FailObs::Direct(id) => obs.get(id).is_none(),
                    m3d_sim::FailObs::Channel { channel, position } => {
                        !compacted
                            || self
                                .bench
                                .chains
                                .flops_at(channel as usize, position as usize)
                                .is_empty()
                    }
                }
            })
            .count();
        if corrupt > 0 {
            return Err(crate::Error::CorruptFailureLog { entries: corrupt });
        }
        Ok(())
    }

    /// Back-traces a failure log into a subgraph. Dispatches to the
    /// sharded path when the context carries a [`ConeIndex`] (serially —
    /// sample generation already fans out across logs); both paths are
    /// bit-identical.
    pub fn backtrace(&self, log: &FailureLog, compacted: bool, cfg: &BacktraceConfig) -> Subgraph {
        self.backtrace_with_pool(log, compacted, cfg, &ExecPool::serial())
    }

    /// [`DesignContext::backtrace`] sharding across `pool` when the
    /// context carries a [`ConeIndex`]; without one the pool is unused.
    pub fn backtrace_with_pool(
        &self,
        log: &FailureLog,
        compacted: bool,
        cfg: &BacktraceConfig,
        pool: &ExecPool,
    ) -> Subgraph {
        if let Some(index) = &self.cone_index {
            return backtrace_sharded(
                &self.hetero,
                &self.features,
                self.fsim.sim(),
                self.fsim.obs(),
                compacted.then_some(&self.bench.chains),
                log,
                cfg,
                index,
                pool,
            );
        }
        backtrace(
            &self.hetero,
            &self.features,
            self.fsim.sim(),
            self.fsim.obs(),
            compacted.then_some(&self.bench.chains),
            log,
            cfg,
            Some(&self.cone_memo),
        )
    }
}

/// What mix of defects to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of samples to produce.
    pub n_samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of samples carrying an MIV defect instead of a single TDF.
    pub miv_fraction: f64,
    /// When set, every sample injects `lo..=hi` same-tier TDFs (Table X).
    pub multi: Option<(usize, usize)>,
    /// Whether logs go through the response compactor.
    pub compacted: bool,
    /// Probability that each fault effect reaches the tester (small-delay
    /// slack model; 1.0 = ideal full-delay behaviour).
    pub detect_prob: f64,
    /// Back-tracing settings.
    pub backtrace: BacktraceConfig,
}

impl DatasetConfig {
    /// `n` single-TDF bypass-mode samples with the default small-delay
    /// detection probability.
    pub fn single(n: usize, seed: u64) -> Self {
        DatasetConfig {
            n_samples: n,
            seed,
            miv_fraction: 0.0,
            multi: None,
            compacted: false,
            detect_prob: 0.7,
            backtrace: BacktraceConfig::default(),
        }
    }
}

/// Generates a dataset on `ctx` per `cfg`. Undetectable draws are
/// discarded and redrawn (bounded retries), so every sample has a
/// non-empty failure log and subgraph. Runs on the environment-resolved
/// [`ExecPool`]; see [`generate_samples_with_pool`].
pub fn generate_samples(ctx: &DesignContext<'_>, cfg: &DatasetConfig) -> Vec<Sample> {
    generate_samples_with_pool(ctx, cfg, &ExecPool::default())
}

/// [`generate_samples`] with per-chip fan-out on `pool`.
///
/// Fault candidates are drawn serially (the draw sequence consumes the
/// RNG identically whether or not a candidate later survives, and the
/// per-attempt masking seed depends only on the attempt number), then
/// each batch simulates and back-traces in parallel; the first
/// `n_samples` survivors in attempt order are kept. The output is
/// therefore identical to the serial generator at any thread count.
pub fn generate_samples_with_pool(
    ctx: &DesignContext<'_>,
    cfg: &DatasetConfig,
    pool: &ExecPool,
) -> Vec<Sample> {
    let _span = m3d_obs::span!("dataset.generate");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sites: Vec<PinRef> = ctx.bench.netlist().fault_sites().collect();
    let n_mivs = ctx.bench.m3d.miv_count();
    let mut out = Vec::with_capacity(cfg.n_samples);
    let mut attempts = 0usize;
    let max_attempts = cfg.n_samples * 60 + 100;
    // Batch enough candidates to keep every worker busy, padded for the
    // expected discard rate; overshoot is truncated below, which cannot
    // change the kept prefix.
    let batch = (pool.threads() * 2).max(cfg.n_samples.min(16));
    while out.len() < cfg.n_samples && attempts < max_attempts {
        let k = batch.min(max_attempts - attempts);
        let candidates: Vec<(usize, InjectedFault)> = (0..k)
            .map(|_| {
                attempts += 1;
                (attempts, draw_fault(ctx, cfg, &mut rng, &sites, n_mivs))
            })
            .collect();
        let simulated = pool.map(&candidates, |_, (attempt, fault)| {
            let log = ctx.masked_failure_log(
                fault,
                cfg.compacted,
                cfg.detect_prob,
                cfg.seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(*attempt as u64),
            );
            if log.is_empty() {
                return None;
            }
            let subgraph = ctx.backtrace(&log, cfg.compacted, &cfg.backtrace);
            if subgraph.is_empty() {
                return None;
            }
            let truth = fault.truth_sites(ctx.bench);
            Some(Sample {
                fault: fault.clone(),
                log,
                subgraph,
                truth,
            })
        });
        for sample in simulated.into_iter().flatten() {
            if out.len() < cfg.n_samples {
                out.push(sample);
            }
        }
    }
    out
}

fn draw_fault(
    ctx: &DesignContext<'_>,
    cfg: &DatasetConfig,
    rng: &mut StdRng,
    sites: &[PinRef],
    n_mivs: usize,
) -> InjectedFault {
    let polarity = if rng.gen_bool(0.5) {
        Polarity::SlowToRise
    } else {
        Polarity::SlowToFall
    };
    if let Some((lo, hi)) = cfg.multi {
        let tier = Tier(rng.gen_range(0..2u8));
        let k = rng.gen_range(lo..=hi);
        let tier_sites: Vec<PinRef> = sites
            .iter()
            .copied()
            .filter(|s| ctx.bench.tier_of(s.gate) == tier)
            .collect();
        let faults = (0..k)
            .map(|_| {
                let site = tier_sites[rng.gen_range(0..tier_sites.len())];
                let pol = if rng.gen_bool(0.5) {
                    Polarity::SlowToRise
                } else {
                    Polarity::SlowToFall
                };
                Tdf::new(site, pol)
            })
            .collect();
        return InjectedFault::MultiTier { tier, faults };
    }
    if n_mivs > 0 && rng.gen_bool(cfg.miv_fraction) {
        InjectedFault::Miv {
            miv: MivId(rng.gen_range(0..n_mivs as u32)),
            polarity,
        }
    } else {
        InjectedFault::Single(Tdf::new(sites[rng.gen_range(0..sites.len())], polarity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignConfig, TestBenchConfig};
    use m3d_netlist::BenchmarkProfile;

    fn bench() -> TestBench {
        TestBench::build(&TestBenchConfig {
            scale: 0.002,
            ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1)
        })
    }

    #[test]
    fn single_fault_samples_are_labelled() {
        let tb = bench();
        let ctx = DesignContext::new(&tb);
        let samples = generate_samples(&ctx, &DatasetConfig::single(10, 3));
        assert_eq!(samples.len(), 10);
        for s in &samples {
            assert!(!s.log.is_empty());
            assert!(!s.subgraph.is_empty());
            assert_eq!(s.truth.len(), 1);
            let gs = s.tier_sample(&tb).expect("single faults have a tier");
            assert_eq!(gs.targets.len(), 1);
            assert!(gs.targets[0].1 < 2);
        }
    }

    #[test]
    fn dataset_generation_is_deterministic() {
        let tb = bench();
        let ctx = DesignContext::new(&tb);
        let a = generate_samples(&ctx, &DatasetConfig::single(5, 9));
        let b = generate_samples(&ctx, &DatasetConfig::single(5, 9));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.log, y.log);
        }
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let tb = bench();
        let ctx = DesignContext::new(&tb);
        let cfg = DatasetConfig {
            miv_fraction: 0.3,
            ..DatasetConfig::single(8, 9)
        };
        let serial = generate_samples_with_pool(&ctx, &cfg, &ExecPool::serial());
        for threads in [2, 4] {
            let par = generate_samples_with_pool(&ctx, &cfg, &ExecPool::with_threads(threads));
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.fault, b.fault);
                assert_eq!(a.log, b.log);
                assert_eq!(a.truth, b.truth);
                assert_eq!(a.subgraph.x.as_slice(), b.subgraph.x.as_slice());
            }
        }
    }

    #[test]
    fn miv_samples_label_via_rows() {
        let tb = bench();
        let ctx = DesignContext::new(&tb);
        let cfg = DatasetConfig {
            miv_fraction: 1.0,
            ..DatasetConfig::single(6, 21)
        };
        let samples = generate_samples(&ctx, &cfg);
        assert!(!samples.is_empty());
        let mut faulty_row_seen = false;
        for s in &samples {
            assert!(matches!(s.fault, InjectedFault::Miv { .. }));
            assert!(s.fault.tier(&tb).is_none(), "MIVs belong to no tier");
            if let Some(gs) = s.miv_sample() {
                if gs.targets.iter().any(|&(_, c)| c == 1) {
                    faulty_row_seen = true;
                }
            }
        }
        assert!(
            faulty_row_seen,
            "at least one subgraph should contain its own faulty via"
        );
    }

    #[test]
    fn multi_tier_faults_stay_in_tier() {
        let tb = bench();
        let ctx = DesignContext::new(&tb);
        let cfg = DatasetConfig {
            multi: Some((2, 5)),
            backtrace: BacktraceConfig {
                keep_frac: 0.4,
                ..BacktraceConfig::default()
            },
            ..DatasetConfig::single(5, 31)
        };
        let samples = generate_samples(&ctx, &cfg);
        assert!(!samples.is_empty());
        for s in &samples {
            let InjectedFault::MultiTier { tier, faults } = &s.fault else {
                panic!("expected multi-tier fault");
            };
            assert!((2..=5).contains(&faults.len()));
            for f in faults {
                assert_eq!(tb.tier_of(f.site.gate), *tier);
            }
        }
    }

    #[test]
    fn validate_log_flags_corrupt_entries() {
        use m3d_sim::{FailEntry, FailObs, ObsId};

        let tb = bench();
        let ctx = DesignContext::new(&tb);
        let samples = generate_samples(&ctx, &DatasetConfig::single(2, 3));
        assert!(ctx.validate_log(&samples[0].log, false).is_ok());

        let mut entries: Vec<FailEntry> = samples[0].log.entries().to_vec();
        entries.push(FailEntry {
            pattern: u32::MAX - 1,
            obs: FailObs::Direct(ObsId(0)),
        });
        entries.push(FailEntry {
            pattern: 0,
            obs: FailObs::Direct(ObsId(9_999_999)),
        });
        entries.push(FailEntry {
            pattern: 0,
            obs: FailObs::Channel {
                channel: 999,
                position: 999,
            },
        });
        let corrupt = FailureLog::new(entries);
        assert_eq!(
            ctx.validate_log(&corrupt, false),
            Err(crate::Error::CorruptFailureLog { entries: 3 })
        );
    }

    #[test]
    fn compacted_samples_generate() {
        let tb = bench();
        let ctx = DesignContext::new(&tb);
        let cfg = DatasetConfig {
            compacted: true,
            ..DatasetConfig::single(5, 41)
        };
        let samples = generate_samples(&ctx, &cfg);
        assert!(!samples.is_empty());
        for s in &samples {
            assert!(!s.subgraph.is_empty());
        }
    }
}
