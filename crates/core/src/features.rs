//! Node-feature extraction (Tables I and II).
//!
//! Global features are computed once per design from the heterogeneous
//! graph and reused for every back-traced subgraph; the two subgraph-local
//! columns (fan-in/fan-out *within* the subgraph) are filled during
//! subgraph assembly. All numeric features use scale-free normalizations
//! (log-degree, level fraction, distance fraction) so that the same model
//! transfers across designs of different sizes — the property Section IV
//! depends on.
//!
//! The Topedge aggregates (count, sums and sums of squares of `D_top` and
//! `N_MIV`) fan out over an [`ExecPool`] by node range: each worker sums,
//! for its own nodes, over every Topnode in Topnode order. The sums are
//! exact `u64` integers, converted to `f64` once per node; every such sum
//! is below 2^53 (at most `u16::MAX²` per Topedge, at most 2^21 Topnodes),
//! so the result equals the `f64` running sums it replaces bit for bit, at
//! any thread count.

use crate::hetero::{HNodeId, HNodeKind, HeteroGraph};
use m3d_exec::ExecPool;
use m3d_gnn::Matrix;
use m3d_netlist::topo;
use m3d_part::M3dNetlist;

/// Number of node features (the 13 rows of Table II).
pub const N_FEATURES: usize = 13;

/// Feature column: number of fan-in edges in the circuit.
pub const F_FANIN_CIRCUIT: usize = 0;
/// Feature column: number of fan-out edges in the circuit.
pub const F_FANOUT_CIRCUIT: usize = 1;
/// Feature column: number of Topedges connected.
pub const F_N_TOP: usize = 2;
/// Feature column: tier-level location (0 = bottom, 1 = top, 0.5 = MIV).
pub const F_LOC: usize = 3;
/// Feature column: level in topological order (fraction of depth).
pub const F_LVL: usize = 4;
/// Feature column: whether the node is a gate output pin.
pub const F_OUT: usize = 5;
/// Feature column: whether the node connects to an MIV.
pub const F_MIV: usize = 6;
/// Feature column: number of fan-in edges in the subgraph (local).
pub const F_FANIN_SUB: usize = 7;
/// Feature column: number of fan-out edges in the subgraph (local).
pub const F_FANOUT_SUB: usize = 8;
/// Feature column: mean length of connected Topedges.
pub const F_DTOP_MEAN: usize = 9;
/// Feature column: std-dev of length of connected Topedges.
pub const F_DTOP_STD: usize = 10;
/// Feature column: mean MIVs passed through by connected Topedges.
pub const F_NMIV_MEAN: usize = 11;
/// Feature column: std-dev of MIVs passed through by connected Topedges.
pub const F_NMIV_STD: usize = 12;

/// Human-readable feature names, Table II order.
pub fn feature_names() -> [&'static str; N_FEATURES] {
    [
        "fanin (circuit)",
        "fanout (circuit)",
        "topedges connected",
        "tier location",
        "topological level",
        "is gate output",
        "connects to MIV",
        "fanin (subgraph)",
        "fanout (subgraph)",
        "topedge length mean",
        "topedge length std",
        "topedge MIV count mean",
        "topedge MIV count std",
    ]
}

/// Precomputed global node features.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    x: Matrix,
}

impl FeatureExtractor {
    /// Computes global features for every node of `hetero`, summing the
    /// Topedge aggregates on the environment-resolved [`ExecPool`]. The
    /// result is bit-identical at any thread count.
    pub fn compute(m3d: &M3dNetlist, hetero: &HeteroGraph) -> Self {
        FeatureExtractor::compute_with_pool(m3d, hetero, &ExecPool::default())
    }

    /// [`FeatureExtractor::compute`] with the Topedge aggregates summed on
    /// `pool`.
    pub(crate) fn compute_with_pool(
        m3d: &M3dNetlist,
        hetero: &HeteroGraph,
        pool: &ExecPool,
    ) -> Self {
        let _span = m3d_obs::span!("features.compute");
        let n = hetero.node_count();
        let nl = m3d.netlist();
        let levels = topo::levels(nl);
        let depth = levels.iter().copied().max().unwrap_or(1).max(1) as f32;
        let mut x = Matrix::zeros(n, N_FEATURES);

        let (sums, max_dist) = topedge_sums(hetero, pool);
        let max_dist = f64::from(max_dist.max(1));

        for (i, agg) in sums.iter().enumerate() {
            let node = HNodeId(i as u32);
            let (din, dout) = hetero.degrees(node);
            x.set(i, F_FANIN_CIRCUIT, (1.0 + din as f32).ln());
            x.set(i, F_FANOUT_CIRCUIT, (1.0 + dout as f32).ln());
            x.set(i, F_N_TOP, (1.0 + agg.cnt as f32).ln());
            match hetero.kind(node) {
                HNodeKind::Pin(pin) => {
                    let tier = m3d.tier_of_site(pin);
                    x.set(i, F_LOC, tier.0 as f32);
                    x.set(i, F_LVL, levels[pin.gate.index()] as f32 / depth);
                    x.set(i, F_OUT, f32::from(u8::from(pin.is_output())));
                    let has_miv = hetero
                        .net_of(node)
                        .is_some_and(|net| !m3d.mivs_of_net(net).is_empty());
                    x.set(i, F_MIV, f32::from(u8::from(has_miv)));
                }
                HNodeKind::Miv(_) => {
                    // MIVs belong to no tier (Section VII-B): encode the
                    // boundary value.
                    x.set(i, F_LOC, 0.5);
                    let lvl = hetero
                        .net_of(node)
                        .and_then(|net| nl.net(net).driver)
                        .map_or(0.0, |g| levels[g.index()] as f32 / depth);
                    x.set(i, F_LVL, lvl);
                    x.set(i, F_OUT, 0.0);
                    x.set(i, F_MIV, 1.0);
                }
            }
            if agg.cnt > 0 {
                let c = f64::from(agg.cnt);
                let dm = agg.dsum as f64 / c;
                let dv = (agg.dsq as f64 / c - dm * dm).max(0.0);
                let mm = agg.msum as f64 / c;
                let mv = (agg.msq as f64 / c - mm * mm).max(0.0);
                x.set(i, F_DTOP_MEAN, (dm / max_dist) as f32);
                x.set(i, F_DTOP_STD, (dv.sqrt() / max_dist) as f32);
                x.set(i, F_NMIV_MEAN, (1.0 + mm).ln() as f32);
                x.set(i, F_NMIV_STD, (1.0 + mv.sqrt()).ln() as f32);
            }
        }
        FeatureExtractor { x }
    }

    /// The global feature row of a node (subgraph-local columns are zero).
    pub fn node_row(&self, node: HNodeId) -> &[f32] {
        self.x.row(node.index())
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.x.rows()
    }
}

/// One node's Topedge aggregates: exact integer sums over every Topnode
/// whose cone holds the node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TopSums {
    cnt: u32,
    dsum: u64,
    dsq: u64,
    msum: u64,
    msq: u64,
}

/// Sums every node's Topedge aggregates on `pool`, and finds the longest
/// Topedge of the design. Each work item owns a contiguous node range and
/// finds its run in every (node-sorted) cone by binary search, so no two
/// workers write the same node and each node sums its Topedges in Topnode
/// order; the ranges are concatenated in node order.
fn topedge_sums(hetero: &HeteroGraph, pool: &ExecPool) -> (Vec<TopSums>, u16) {
    let n = hetero.node_count();
    let n_ranges = (pool.threads() * 4).min(n.max(1));
    let ranges = pool.map_indices(n_ranges, |r| {
        let (lo, hi) = (n * r / n_ranges, n * (r + 1) / n_ranges);
        let mut sums = vec![TopSums::default(); hi - lo];
        let mut max_dist = 0u16;
        for tn in hetero.topnodes() {
            let cone = &tn.cone;
            let start = cone.partition_point(|e| e.node.index() < lo);
            let end = start + cone[start..].partition_point(|e| e.node.index() < hi);
            for e in &cone[start..end] {
                let s = &mut sums[e.node.index() - lo];
                let (d, m) = (u64::from(e.dist), u64::from(e.mivs));
                s.cnt += 1;
                s.dsum += d;
                s.dsq += d * d;
                s.msum += m;
                s.msq += m * m;
                max_dist = max_dist.max(e.dist);
            }
        }
        (sums, max_dist)
    });
    let max_dist = ranges.iter().map(|r| r.1).max().unwrap_or(0);
    let mut sums = Vec::with_capacity(n);
    for (range, _) in ranges {
        sums.extend(range);
    }
    (sums, max_dist)
}

/// Normalizes a subgraph-local degree for the `F_FANIN_SUB`/`F_FANOUT_SUB`
/// columns.
pub fn local_degree_feature(deg: usize) -> f32 {
    (1.0 + deg as f32).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, GeneratorConfig};
    use m3d_part::{MinCutPartitioner, Partitioner};
    use m3d_sim::ObsPoints;

    fn setup() -> (M3dNetlist, HeteroGraph) {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 150,
            n_flops: 16,
            n_inputs: 8,
            n_outputs: 6,
            target_depth: 6,
            ..GeneratorConfig::default()
        });
        let part = MinCutPartitioner::default().partition(&nl, 2);
        let m3d = M3dNetlist::build(nl, part);
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        (m3d, h)
    }

    #[test]
    fn features_cover_all_nodes_and_are_finite() {
        let (m3d, h) = setup();
        let fx = FeatureExtractor::compute(&m3d, &h);
        assert_eq!(fx.node_count(), h.node_count());
        for i in 0..h.node_count() {
            let row = fx.node_row(HNodeId(i as u32));
            assert_eq!(row.len(), N_FEATURES);
            assert!(row.iter().all(|v| v.is_finite()));
            // Local columns start zeroed.
            assert_eq!(row[F_FANIN_SUB], 0.0);
            assert_eq!(row[F_FANOUT_SUB], 0.0);
        }
    }

    #[test]
    fn miv_nodes_have_half_tier_and_miv_flag() {
        let (m3d, h) = setup();
        let fx = FeatureExtractor::compute(&m3d, &h);
        assert!(m3d.miv_count() > 0);
        for i in 0..m3d.miv_count() {
            let n = h.miv_node(m3d_part::MivId(i as u32));
            let row = fx.node_row(n);
            assert_eq!(row[F_LOC], 0.5);
            assert_eq!(row[F_MIV], 1.0);
            assert_eq!(row[F_OUT], 0.0);
        }
    }

    #[test]
    fn pin_tier_feature_matches_partition() {
        let (m3d, h) = setup();
        let fx = FeatureExtractor::compute(&m3d, &h);
        for pin in m3d.netlist().fault_sites().take(200) {
            let row = fx.node_row(h.pin_of(pin));
            assert_eq!(row[F_LOC], m3d.tier_of_site(pin).0 as f32);
        }
    }

    #[test]
    fn topedge_aggregates_bounded() {
        let (m3d, h) = setup();
        let fx = FeatureExtractor::compute(&m3d, &h);
        for i in 0..h.node_count() {
            let row = fx.node_row(HNodeId(i as u32));
            assert!(
                (0.0..=1.0).contains(&row[F_DTOP_MEAN]),
                "{}",
                row[F_DTOP_MEAN]
            );
            assert!((0.0..=1.0).contains(&row[F_DTOP_STD]));
        }
    }

    #[test]
    fn integer_sums_equal_the_f64_running_sums_at_any_thread_count() {
        let (_, h) = setup();
        let n = h.node_count();
        let mut cnt = vec![0u32; n];
        let mut f64_sums = vec![[0f64; 4]; n];
        for tn in h.topnodes() {
            for e in &tn.cone {
                let i = e.node.index();
                let (d, m) = (f64::from(e.dist), f64::from(e.mivs));
                cnt[i] += 1;
                let acc = &mut f64_sums[i];
                acc[0] += d;
                acc[1] += d * d;
                acc[2] += m;
                acc[3] += m * m;
            }
        }
        for threads in [1, 2, 3] {
            let (sums, _) = topedge_sums(&h, &ExecPool::with_threads(threads));
            assert_eq!(sums.len(), n);
            for (i, s) in sums.iter().enumerate() {
                assert_eq!(s.cnt, cnt[i]);
                let exact = [s.dsum, s.dsq, s.msum, s.msq].map(|v| (v as f64).to_bits());
                assert_eq!(exact, f64_sums[i].map(f64::to_bits), "node {i}");
            }
        }
    }

    #[test]
    fn names_match_width() {
        assert_eq!(feature_names().len(), N_FEATURES);
    }
}
