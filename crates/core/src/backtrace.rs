//! The back-tracing algorithm of Fig. 3.
//!
//! For every erroneous tester response, collect the Topnodes that could
//! have captured it (one in bypass mode; the chain-group ambiguity set
//! under compaction), take the union of the transition-active nodes in
//! their fan-in cones, and intersect across responses. The surviving nodes
//! form a homogeneous subgraph whose node features (Table II) feed the GNN
//! models.
//!
//! Multi-fault logs make a strict intersection empty (each response is
//! explained by only one of the faults), so the implementation counts
//! response support per node and keeps nodes supported by at least
//! `keep_frac` of the maximum support — `keep_frac = 1.0` is exactly the
//! paper's intersection for single faults.

use crate::features::{
    local_degree_feature, FeatureExtractor, F_FANIN_SUB, F_FANOUT_SUB, N_FEATURES,
};
use crate::hetero::{HNodeId, HNodeKind, HeteroGraph};
use m3d_exec::ExecPool;
use m3d_gnn::{Graph, Matrix, NormAdj};
use m3d_netlist::{topo, NetId, Netlist, ScanChains};
use m3d_part::MivId;
use m3d_sim::{FailureLog, ObsId, ObsPoints, PatternSim};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Back-tracing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacktraceConfig {
    /// Keep nodes supported by at least this fraction of the maximum
    /// response support (1.0 = strict intersection).
    pub keep_frac: f64,
    /// Hard cap on subgraph size (highest-support nodes win).
    pub max_nodes: usize,
}

impl Default for BacktraceConfig {
    fn default() -> Self {
        BacktraceConfig {
            keep_frac: 1.0,
            max_nodes: 600,
        }
    }
}

/// Default byte budget for [`ConeMemo`] cached node lists (~64 MiB).
const CONE_MEMO_DEFAULT_CAP: usize = 64 << 20;

/// Bookkeeping bytes charged against the cap per memo entry on top of its
/// payload: the `Arc` heap header (two reference counts), allocator
/// rounding, and the hash-map slot (key, fat value pointer, control byte,
/// load-factor slack). Charged identically at both levels so
/// [`ConeMemo::bytes`] brackets true peak memory from above instead of
/// undercounting small entries.
const MEMO_ENTRY_OVERHEAD: usize = 112;

/// Two-level fan-in-cone memoization for [`backtrace`].
///
/// - **Per observation point** (level 1): the cone walk resolved to a
///   packed `(node, net)` list — the cone is static topology, so it is
///   walked through the heterogeneous graph exactly once per design and
///   every later pattern screens the packed list instead.
/// - **Per `(observation point, pattern)`** (level 2): the
///   transition-active subset of that cone, a pure function of the pair
///   (activity depends only on the simulated pattern). Diagnosis revisits
///   the same pairs across the entries of one failure log and across every
///   sample generated on the same bench; a hit skips even the screening
///   pass.
///
/// Entries never go stale: a memo is tied to one
/// (`HeteroGraph`, `PatternSim`) pair by construction, both of which are
/// immutable once built. A shared byte cap bounds peak memory, with the
/// payload of every cached list *plus* per-entry map/`Arc` bookkeeping
/// charged against it: level-1 cones stop being admitted at the cap (they
/// amortize the cone walk itself and are never dropped), while level-2
/// active sets evict oldest-first to make room, so the cap stays a hard
/// ceiling rather than a soft target. Memoization cannot change any
/// result — only the split between the `backtrace.nodes_visited`,
/// `backtrace.activity_checks`, and `backtrace.cone_cache_hits` counters.
#[derive(Debug)]
pub struct ConeMemo {
    inner: Mutex<ConeMemoInner>,
    cap_bytes: usize,
}

#[derive(Debug, Default)]
struct ConeMemoInner {
    /// Level 1: observation point → net-resolved cone.
    resolved: HashMap<u32, Arc<[(HNodeId, NetId)]>>,
    /// Level 2: `(observation point, pattern)` → active cone subset.
    active: HashMap<u64, Arc<[HNodeId]>>,
    /// Level-2 keys in insertion order (the eviction queue).
    active_order: VecDeque<u64>,
    bytes: usize,
    evictions: u64,
}

impl Default for ConeMemo {
    fn default() -> Self {
        ConeMemo::with_capacity_bytes(CONE_MEMO_DEFAULT_CAP)
    }
}

impl ConeMemo {
    /// A memo with the default ~64 MiB budget.
    pub fn new() -> Self {
        ConeMemo::default()
    }

    /// A memo that stops admitting new cones past `cap_bytes` of cached
    /// node lists.
    pub fn with_capacity_bytes(cap_bytes: usize) -> Self {
        ConeMemo {
            inner: Mutex::new(ConeMemoInner::default()),
            cap_bytes,
        }
    }

    fn key(obs: ObsId, pattern: u32) -> u64 {
        (u64::from(obs.0) << 32) | u64::from(pattern)
    }

    /// Cap charge of a level-1 entry holding `len` `(node, net)` pairs.
    fn resolved_cost(len: usize) -> usize {
        std::mem::size_of::<(HNodeId, NetId)>() * len + MEMO_ENTRY_OVERHEAD
    }

    /// Cap charge of a level-2 entry holding `len` node ids.
    fn active_cost(len: usize) -> usize {
        std::mem::size_of::<HNodeId>() * len + MEMO_ENTRY_OVERHEAD
    }

    fn resolved(&self, obs: ObsId) -> Option<Arc<[(HNodeId, NetId)]>> {
        let inner = self.inner.lock().expect("cone memo poisoned");
        inner.resolved.get(&obs.0).cloned()
    }

    /// Stores the net-resolved cone of `obs` (or drops it at the byte cap)
    /// and hands back a shareable copy either way, so the caller screens
    /// the list it just built without a second lookup.
    fn insert_resolved(&self, obs: ObsId, cone: Vec<(HNodeId, NetId)>) -> Arc<[(HNodeId, NetId)]> {
        let cone: Arc<[(HNodeId, NetId)]> = Arc::from(cone);
        let mut guard = self.inner.lock().expect("cone memo poisoned");
        let inner = &mut *guard;
        let cost = ConeMemo::resolved_cost(cone.len());
        if inner.bytes + cost <= self.cap_bytes {
            if let std::collections::hash_map::Entry::Vacant(slot) = inner.resolved.entry(obs.0) {
                slot.insert(Arc::clone(&cone));
                inner.bytes += cost;
            }
        }
        cone
    }

    fn get(&self, obs: ObsId, pattern: u32) -> Option<Arc<[HNodeId]>> {
        let inner = self.inner.lock().expect("cone memo poisoned");
        inner.active.get(&ConeMemo::key(obs, pattern)).cloned()
    }

    fn insert(&self, obs: ObsId, pattern: u32, nodes: Vec<HNodeId>) {
        let mut guard = self.inner.lock().expect("cone memo poisoned");
        let inner = &mut *guard;
        let cost = ConeMemo::active_cost(nodes.len());
        if cost > self.cap_bytes {
            return;
        }
        let key = ConeMemo::key(obs, pattern);
        if inner.active.contains_key(&key) {
            return;
        }
        // Evict oldest active sets until the newcomer fits; resolved cones
        // (level 1) stay put, so eviction may still come up short when
        // level-1 residency alone fills the budget.
        let mut evicted = 0u64;
        while inner.bytes + cost > self.cap_bytes {
            let Some(old) = inner.active_order.pop_front() else {
                break;
            };
            if let Some(list) = inner.active.remove(&old) {
                inner.bytes -= ConeMemo::active_cost(list.len());
                evicted += 1;
            }
        }
        inner.evictions += evicted;
        if inner.bytes + cost > self.cap_bytes {
            return;
        }
        inner.active.insert(key, Arc::from(nodes));
        inner.active_order.push_back(key);
        inner.bytes += cost;
    }

    /// Number of memoized active-cone entries (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cone memo poisoned").active.len()
    }

    /// Bytes of cached lists currently held, both levels
    /// (diagnostics/tests).
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("cone memo poisoned").bytes
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of active-cone entries evicted to stay under the byte cap
    /// (diagnostics/tests).
    pub fn evictions(&self) -> u64 {
        self.inner.lock().expect("cone memo poisoned").evictions
    }
}

/// Work counters of one [`backtrace`] call, carried on the resulting
/// [`Subgraph`] so per-diagnosis audits can report how the subgraph was
/// produced (the `backtrace.*` counters aggregate the same numbers
/// run-wide).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BacktraceStats {
    /// Cone nodes walked while resolving observation-point cones.
    pub nodes_visited: u64,
    /// Per-pattern transition-activity screens over memoized cones.
    pub activity_checks: u64,
    /// Cone steps avoided by active-set memo hits.
    pub cone_cache_hits: u64,
    /// Failure entries dropped for out-of-range pattern numbers.
    pub dropped_patterns: u64,
}

/// A back-traced homogeneous subgraph ready for the GNN models.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The heterogeneous-graph nodes included, ascending.
    pub nodes: Vec<HNodeId>,
    /// The induced circuit-level edge structure (kept for dummy-buffer
    /// oversampling, which edits the topology).
    pub graph: Graph,
    /// Normalized adjacency over the induced circuit-level edges.
    pub adj: NormAdj,
    /// Node features (`n × 13`, Table II).
    pub x: Matrix,
    /// Rows that are MIV nodes.
    pub miv_rows: Vec<(usize, MivId)>,
    /// Work counters of the backtrace that produced this subgraph (zeros
    /// for synthetic subgraphs built outside [`backtrace`]).
    pub stats: BacktraceStats,
}

impl Subgraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for the empty subgraph (empty failure log).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Row index of a node, if present.
    pub fn row_of(&self, node: HNodeId) -> Option<usize> {
        self.nodes.binary_search(&node).ok()
    }
}

/// Runs back-tracing on a failure log. Pass `chains` iff the log was
/// captured through the response compactor, and `memo` to reuse
/// per-`(observation point, pattern)` active cones across calls (see
/// [`ConeMemo`]; `None` recomputes every cone).
#[allow(clippy::too_many_arguments)] // mirrors the pipeline's data-flow stages 1:1
pub fn backtrace(
    hetero: &HeteroGraph,
    features: &FeatureExtractor,
    sim: &PatternSim,
    obs: &ObsPoints,
    chains: Option<&ScanChains>,
    log: &FailureLog,
    cfg: &BacktraceConfig,
    memo: Option<&ConeMemo>,
) -> Subgraph {
    let _span = m3d_obs::span!("backtrace");
    let mut support: HashMap<HNodeId, u32> = HashMap::new();
    let entries = log.entries();
    // Accumulated locally and flushed once: the registry lock is cheap
    // but not per-cone-edge cheap. `nodes_visited` counts walks of the
    // heterogeneous graph's cone structure (once per observation point
    // when a memo is supplied); `activity_checks` counts per-pattern
    // screening passes over a memoized net-resolved cone; and
    // `cone_cache_hits` counts the cone steps an active-set hit avoided
    // outright.
    let mut nodes_visited = 0u64;
    let mut activity_checks = 0u64;
    let mut cone_cache_hits = 0u64;
    let mut dropped_patterns = 0u64;
    let pattern_cap = sim.pattern_capacity();
    for entry in entries {
        // Tester logs are untrusted input: a pattern number beyond the
        // simulated range cannot be screened for transition activity, so
        // the entry is dropped (counted below) instead of indexing out of
        // bounds.
        if entry.pattern as usize >= pattern_cap {
            dropped_patterns += 1;
            continue;
        }
        let mut seen: HashMap<HNodeId, ()> = HashMap::new();
        for obs_id in FailureLog::candidate_observers(entry, obs, chains) {
            if let Some(active) = memo.and_then(|m| m.get(obs_id, entry.pattern)) {
                cone_cache_hits += hetero.topnode(obs_id).cone.len() as u64;
                for &node in active.iter() {
                    seen.insert(node, ());
                }
                continue;
            }
            if let Some(m) = memo {
                let resolved = m.resolved(obs_id).unwrap_or_else(|| {
                    let cone = &hetero.topnode(obs_id).cone;
                    nodes_visited += cone.len() as u64;
                    // Nodes without a net can never be transition-active;
                    // the packed list drops them once and for all.
                    let list: Vec<(HNodeId, NetId)> = cone
                        .iter()
                        .filter_map(|e| hetero.net_of(e.node).map(|net| (e.node, net)))
                        .collect();
                    m.insert_resolved(obs_id, list)
                });
                activity_checks += resolved.len() as u64;
                let mut active_nodes: Vec<HNodeId> = Vec::new();
                for &(node, net) in resolved.iter() {
                    // Only transition-active nodes can launch a delay fault.
                    if sim.net_transition(net, entry.pattern as usize) {
                        seen.insert(node, ());
                        active_nodes.push(node);
                    }
                }
                // `seen` is a set, so order and duplicates in the cached
                // list cannot affect results; dedup to shrink the entry
                // (the cone is sorted by node id, so this is one cheap
                // pass).
                active_nodes.sort_unstable();
                active_nodes.dedup();
                m.insert(obs_id, entry.pattern, active_nodes);
            } else {
                for edge in &hetero.topnode(obs_id).cone {
                    nodes_visited += 1;
                    // Only transition-active nodes can launch a delay fault.
                    let active = hetero
                        .net_of(edge.node)
                        .is_some_and(|net| sim.net_transition(net, entry.pattern as usize));
                    if active {
                        seen.insert(edge.node, ());
                    }
                }
            }
        }
        for (node, ()) in seen {
            *support.entry(node).or_insert(0) += 1;
        }
    }
    m3d_obs::counter!("backtrace.nodes_visited", nodes_visited);
    m3d_obs::counter!("backtrace.activity_checks", activity_checks);
    m3d_obs::counter!("backtrace.cone_cache_hits", cone_cache_hits);
    if dropped_patterns > 0 {
        m3d_obs::counter!("backtrace.dropped.pattern_out_of_range", dropped_patterns);
        m3d_obs::warn!(
            "backtrace: dropped {dropped_patterns} failure entries with pattern numbers \
             beyond the {pattern_cap} simulated slots (corrupt log?)"
        );
    }
    let stats = BacktraceStats {
        nodes_visited,
        activity_checks,
        cone_cache_hits,
        dropped_patterns,
    };
    let max_support = support.values().copied().max().unwrap_or(0);
    if max_support == 0 {
        let mut sub = empty_subgraph();
        sub.stats = stats;
        return sub;
    }
    let floor = ((f64::from(max_support)) * cfg.keep_frac).ceil().max(1.0) as u32;
    let mut picked: Vec<(HNodeId, u32)> =
        support.into_iter().filter(|&(_, c)| c >= floor).collect();
    // Cap deterministically: strongest support first, then node order.
    picked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    picked.truncate(cfg.max_nodes);
    let mut nodes: Vec<HNodeId> = picked.into_iter().map(|(n, _)| n).collect();
    nodes.sort_unstable();
    let mut sub = build_subgraph(hetero, features, nodes);
    sub.stats = stats;
    sub
}

/// A levelized partition of the heterogeneous graph with per-partition
/// packed cone slices — the paper-scale backbone of
/// [`backtrace_sharded`].
///
/// Partitioning folds contiguous combinational levels into `n_partitions`
/// bands of roughly equal node count (the level-driven idiom of
/// `m3d-part`), so every node lands in exactly one band and a band's
/// nodes are contiguous in topological depth. For each
/// `(partition, observation point)` cell the index stores the
/// net-bearing cone members as packed `(local rank, net)` pairs — the
/// same pre-filtering [`ConeMemo`] applies, resolved once per design —
/// letting a shard screen transition activity straight into dense
/// per-partition arrays with no hashing in the hot loop. Cells are
/// grouped per observation point, one allocation each, so observers pack
/// in parallel and the packed entries are never held twice.
///
/// The index is pure topology: building it from the same graph always
/// yields the same partition, and [`backtrace_sharded`] over any
/// partition count is bit-identical to [`backtrace`].
#[derive(Debug)]
pub struct ConeIndex {
    /// Partition → its nodes' global ids, ascending (position = local
    /// rank).
    part_nodes: Vec<Vec<HNodeId>>,
    /// One packed cell per observation point, in [`ObsId`] order.
    cells: Vec<ObsCell>,
}

/// The packed cone of one observation point: `(local rank, net)` per
/// net-bearing cone node, grouped by partition.
#[derive(Debug)]
struct ObsCell {
    /// `ends[p]` is where partition `p`'s run in `entries` ends (it starts
    /// where partition `p - 1`'s ends).
    ends: Box<[u32]>,
    entries: Box<[(u32, NetId)]>,
}

impl ConeIndex {
    /// Builds the index for `hetero` (whose Topnodes define the cones)
    /// over the gate levels of `nl`, folded into `n_partitions` bands.
    /// Fewer than `n_partitions` distinct levels yield fewer bands;
    /// `n_partitions == 0` is treated as 1. The observation points' cells
    /// are packed on the environment-resolved [`ExecPool`]; the index is
    /// identical at any thread count.
    pub fn build(nl: &Netlist, hetero: &HeteroGraph, n_partitions: usize) -> ConeIndex {
        ConeIndex::build_with_pool(nl, hetero, n_partitions, &ExecPool::default())
    }

    /// [`ConeIndex::build`] packing the observation points' cells on
    /// `pool`.
    pub(crate) fn build_with_pool(
        nl: &Netlist,
        hetero: &HeteroGraph,
        n_partitions: usize,
        pool: &ExecPool,
    ) -> ConeIndex {
        let _span = m3d_obs::span!("backtrace.index");
        let want = n_partitions.max(1);
        let gate_lvl = topo::levels(nl);
        let n_nodes = hetero.node_count();

        // Node depth: a pin sits at its gate's combinational level; an MIV
        // chain hangs off its driving stem, so walk predecessors to the
        // first pin and inherit that depth.
        let mut node_lvl = vec![0u32; n_nodes];
        for (i, lvl) in node_lvl.iter_mut().enumerate() {
            let node = HNodeId(i as u32);
            if let Some(g) = hetero.gate_of(node) {
                *lvl = gate_lvl[g.index()];
            } else {
                let mut cur = node;
                *lvl = loop {
                    let preds = hetero.predecessors(cur);
                    let Some(&p) = preds.first() else { break 0 };
                    if let Some(g) = hetero.gate_of(HNodeId(p)) {
                        break gate_lvl[g.index()];
                    }
                    cur = HNodeId(p);
                };
            }
        }

        // Fold levels into bands of roughly equal node count by prefix
        // sum: band `b` closes once it holds its proportional share.
        let max_lvl = node_lvl.iter().copied().max().unwrap_or(0) as usize;
        let mut lvl_count = vec![0usize; max_lvl + 1];
        for &l in &node_lvl {
            lvl_count[l as usize] += 1;
        }
        let mut band_of_lvl = vec![0u32; max_lvl + 1];
        let (mut acc, mut band) = (0usize, 0u32);
        for (l, &c) in lvl_count.iter().enumerate() {
            band_of_lvl[l] = band;
            acc += c;
            if acc * want >= n_nodes * (band as usize + 1) && (band as usize) + 1 < want {
                band += 1;
            }
        }
        let n_parts = band as usize + 1;

        let mut part_of = vec![0u32; n_nodes];
        let mut local_of = vec![0u32; n_nodes];
        let mut part_nodes = vec![Vec::new(); n_parts];
        for i in 0..n_nodes {
            let p = band_of_lvl[node_lvl[i] as usize];
            part_of[i] = p;
            local_of[i] = part_nodes[p as usize].len() as u32;
            part_nodes[p as usize].push(HNodeId(i as u32));
        }

        // Pack each observation point's cell: count per partition, turn
        // the counts into run starts, fill — each start then advances to
        // its run's end. Cone lists are sorted by node id, so every
        // partition's run comes out ascending in local rank.
        let cells = pool.map(hetero.topnodes(), |_, tn| {
            let mut ends = vec![0u32; n_parts];
            for e in &tn.cone {
                if hetero.net_of(e.node).is_some() {
                    ends[part_of[e.node.index()] as usize] += 1;
                }
            }
            let mut total = 0u32;
            for end in ends.iter_mut() {
                (*end, total) = (total, total + *end);
            }
            let mut entries = vec![(0u32, NetId(0)); total as usize].into_boxed_slice();
            for e in &tn.cone {
                if let Some(net) = hetero.net_of(e.node) {
                    let i = e.node.index();
                    let slot = &mut ends[part_of[i] as usize];
                    entries[*slot as usize] = (local_of[i], net);
                    *slot += 1;
                }
            }
            ObsCell {
                ends: ends.into_boxed_slice(),
                entries,
            }
        });

        ConeIndex { part_nodes, cells }
    }

    /// Number of partitions actually formed (≤ the requested count).
    pub fn n_partitions(&self) -> usize {
        self.part_nodes.len()
    }

    /// The nodes of partition `p`, ascending.
    pub fn nodes_of(&self, p: usize) -> &[HNodeId] {
        &self.part_nodes[p]
    }

    /// The packed net-bearing cone slice of `(partition, obs)`.
    pub(crate) fn slice(&self, p: usize, obs: ObsId) -> &[(u32, NetId)] {
        let cell = &self.cells[obs.index()];
        let start = if p == 0 { 0 } else { cell.ends[p - 1] };
        &cell.entries[start as usize..cell.ends[p] as usize]
    }
}

/// [`backtrace`] sharded across partitions on an [`ExecPool`]:
/// bit-identical results at any partition and thread count, built for
/// paper-scale designs where the per-node hash maps of the monolithic
/// path dominate the wall clock.
///
/// Failure entries are resolved to their candidate observers **once**, up
/// front — pattern screening and `candidate_observers` emit drop counters
/// and warnings, which must fire exactly as often as in the monolithic
/// path. Each shard then screens its own packed cone slices into dense
/// per-partition support arrays (an epoch stamp deduplicates nodes seen
/// through several observers of one entry), the shards merge in partition
/// order, and the selection tail — support floor, deterministic cap —
/// is shared with [`backtrace`], whose total-order sort makes the result
/// a pure function of the merged node→support multiset.
#[allow(clippy::too_many_arguments)] // mirrors `backtrace` plus the shard plumbing
pub fn backtrace_sharded(
    hetero: &HeteroGraph,
    features: &FeatureExtractor,
    sim: &PatternSim,
    obs: &ObsPoints,
    chains: Option<&ScanChains>,
    log: &FailureLog,
    cfg: &BacktraceConfig,
    index: &ConeIndex,
    pool: &ExecPool,
) -> Subgraph {
    let _span = m3d_obs::span!("backtrace");
    let pattern_cap = sim.pattern_capacity();
    let mut dropped_patterns = 0u64;
    // Resolve once, shared by every shard: observer resolution is the
    // observable part of the walk (drop counters, warnings) and must not
    // be multiplied by the partition count.
    let mut resolved: Vec<(u32, Vec<ObsId>)> = Vec::with_capacity(log.entries().len());
    for entry in log.entries() {
        if entry.pattern as usize >= pattern_cap {
            dropped_patterns += 1;
            continue;
        }
        let observers = FailureLog::candidate_observers(entry, obs, chains);
        if !observers.is_empty() {
            resolved.push((entry.pattern, observers));
        }
    }
    if dropped_patterns > 0 {
        m3d_obs::counter!("backtrace.dropped.pattern_out_of_range", dropped_patterns);
        m3d_obs::warn!(
            "backtrace: dropped {dropped_patterns} failure entries with pattern numbers \
             beyond the {pattern_cap} simulated slots (corrupt log?)"
        );
    }

    let n_parts = index.n_partitions();
    m3d_obs::gauge!("backtrace.partitions", n_parts as f64);
    m3d_obs::counter!("backtrace.shard.calls", 1);
    m3d_obs::counter!("backtrace.shard.entries", resolved.len() as u64);

    let shards: Vec<(Vec<(HNodeId, u32)>, u64)> = {
        let _shard_span = m3d_obs::span!("backtrace.shard");
        pool.map_indices(n_parts, |p| {
            let n_local = index.nodes_of(p).len();
            let mut support = vec![0u32; n_local];
            // Epoch stamps (keyed by entry index) deduplicate a node seen
            // through several observers of the same entry without a hash
            // set; within one observer's cone every node is unique, so
            // single-observer entries skip stamping entirely.
            let mut stamp = vec![u32::MAX; n_local];
            let mut checks = 0u64;
            for (ei, (pattern, observers)) in resolved.iter().enumerate() {
                let multi = observers.len() > 1;
                for &obs_id in observers {
                    let slice = index.slice(p, obs_id);
                    checks += slice.len() as u64;
                    for &(local, net) in slice {
                        if sim.net_transition(net, *pattern as usize) {
                            let i = local as usize;
                            if multi {
                                if stamp[i] == ei as u32 {
                                    continue;
                                }
                                stamp[i] = ei as u32;
                            }
                            support[i] += 1;
                        }
                    }
                }
            }
            let pairs: Vec<(HNodeId, u32)> = support
                .into_iter()
                .enumerate()
                .filter(|&(_, c)| c > 0)
                .map(|(i, c)| (index.nodes_of(p)[i], c))
                .collect();
            (pairs, checks)
        })
    };

    let mut activity_checks = 0u64;
    let mut supported: Vec<(HNodeId, u32)> = Vec::new();
    for (pairs, checks) in shards {
        activity_checks += checks;
        supported.extend(pairs); // order-preserving: partition-major, ascending within
    }
    m3d_obs::counter!("backtrace.activity_checks", activity_checks);
    m3d_obs::counter!("backtrace.shard.merged_nodes", supported.len() as u64);

    let stats = BacktraceStats {
        nodes_visited: 0,
        activity_checks,
        cone_cache_hits: 0,
        dropped_patterns,
    };
    let max_support = supported.iter().map(|&(_, c)| c).max().unwrap_or(0);
    if max_support == 0 {
        let mut sub = empty_subgraph();
        sub.stats = stats;
        return sub;
    }
    let floor = ((f64::from(max_support)) * cfg.keep_frac).ceil().max(1.0) as u32;
    let mut picked: Vec<(HNodeId, u32)> =
        supported.into_iter().filter(|&(_, c)| c >= floor).collect();
    // Cap deterministically: strongest support first, then node order.
    picked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    picked.truncate(cfg.max_nodes);
    let mut nodes: Vec<HNodeId> = picked.into_iter().map(|(n, _)| n).collect();
    nodes.sort_unstable();
    let mut sub = build_subgraph(hetero, features, nodes);
    sub.stats = stats;
    sub
}

fn empty_subgraph() -> Subgraph {
    let graph = Graph::new(0);
    Subgraph {
        nodes: vec![],
        adj: graph.normalize(true),
        graph,
        x: Matrix::zeros(0, N_FEATURES),
        miv_rows: vec![],
        stats: BacktraceStats::default(),
    }
}

/// Builds the induced subgraph over `nodes` (sorted, deduplicated by the
/// caller) with Table II features.
pub fn build_subgraph(
    hetero: &HeteroGraph,
    features: &FeatureExtractor,
    nodes: Vec<HNodeId>,
) -> Subgraph {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "sorted unique nodes");
    let index: HashMap<HNodeId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut g = Graph::new(nodes.len());
    let mut fanin = vec![0usize; nodes.len()];
    let mut fanout = vec![0usize; nodes.len()];
    for (i, &n) in nodes.iter().enumerate() {
        for &succ in hetero.successors(n) {
            if let Some(&j) = index.get(&HNodeId(succ)) {
                g.add_edge(i as u32, j as u32);
                fanout[i] += 1;
                fanin[j] += 1;
            }
        }
    }
    let mut x = Matrix::zeros(nodes.len(), N_FEATURES);
    let mut miv_rows = Vec::new();
    for (i, &n) in nodes.iter().enumerate() {
        x.row_mut(i).copy_from_slice(features.node_row(n));
        x.set(i, F_FANIN_SUB, local_degree_feature(fanin[i]));
        x.set(i, F_FANOUT_SUB, local_degree_feature(fanout[i]));
        if let HNodeKind::Miv(m) = hetero.kind(n) {
            miv_rows.push((i, m));
        }
    }
    Subgraph {
        adj: g.normalize(true),
        graph: g,
        nodes,
        x,
        miv_rows,
        stats: BacktraceStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, GeneratorConfig};
    use m3d_part::{M3dNetlist, MinCutPartitioner, Partitioner};
    use m3d_sim::{generate_patterns, tdf_list, AtpgConfig, FaultSimulator, PatternSet, Tdf};

    struct Fixture {
        m3d: M3dNetlist,
        patterns: PatternSet,
    }

    fn fixture() -> Fixture {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 250,
            n_flops: 32,
            n_inputs: 12,
            n_outputs: 8,
            target_depth: 7,
            ..GeneratorConfig::default()
        });
        let atpg = generate_patterns(
            &nl,
            &AtpgConfig {
                fault_sample: Some(500),
                max_rounds: 5,
                ..AtpgConfig::default()
            },
        );
        let part = MinCutPartitioner::default().partition(&nl, 2);
        Fixture {
            m3d: M3dNetlist::build(nl, part),
            patterns: atpg.patterns,
        }
    }

    fn detected(fsim: &FaultSimulator<'_>, n: usize) -> Vec<Tdf> {
        tdf_list(fsim.netlist())
            .into_iter()
            .step_by(13)
            .filter(|f| fsim.detects(std::slice::from_ref(f)))
            .take(n)
            .collect()
    }

    #[test]
    fn subgraph_contains_fault_node() {
        let fx = fixture();
        let fsim = FaultSimulator::new(fx.m3d.netlist(), &fx.patterns);
        let hetero = HeteroGraph::build(&fx.m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&fx.m3d, &hetero);
        for f in detected(&fsim, 8) {
            let log = FailureLog::uncompacted(&fsim.simulate(&[f]));
            let sub = backtrace(
                &hetero,
                &feats,
                fsim.sim(),
                fsim.obs(),
                None,
                &log,
                &BacktraceConfig::default(),
                None,
            );
            assert!(!sub.is_empty());
            let node = hetero.pin_of(f.site);
            assert!(
                sub.row_of(node).is_some(),
                "fault node must survive intersection for {f}"
            );
        }
    }

    #[test]
    fn subgraph_smaller_than_graph() {
        let fx = fixture();
        let fsim = FaultSimulator::new(fx.m3d.netlist(), &fx.patterns);
        let hetero = HeteroGraph::build(&fx.m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&fx.m3d, &hetero);
        let f = detected(&fsim, 1)[0];
        let log = FailureLog::uncompacted(&fsim.simulate(&[f]));
        let sub = backtrace(
            &hetero,
            &feats,
            fsim.sim(),
            fsim.obs(),
            None,
            &log,
            &BacktraceConfig::default(),
            None,
        );
        assert!(sub.len() < hetero.node_count() / 2, "{}", sub.len());
    }

    #[test]
    fn empty_log_gives_empty_subgraph() {
        let fx = fixture();
        let fsim = FaultSimulator::new(fx.m3d.netlist(), &fx.patterns);
        let hetero = HeteroGraph::build(&fx.m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&fx.m3d, &hetero);
        let sub = backtrace(
            &hetero,
            &feats,
            fsim.sim(),
            fsim.obs(),
            None,
            &FailureLog::default(),
            &BacktraceConfig::default(),
            None,
        );
        assert!(sub.is_empty());
    }

    #[test]
    fn max_nodes_cap_respected() {
        let fx = fixture();
        let fsim = FaultSimulator::new(fx.m3d.netlist(), &fx.patterns);
        let hetero = HeteroGraph::build(&fx.m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&fx.m3d, &hetero);
        let f = detected(&fsim, 1)[0];
        let log = FailureLog::uncompacted(&fsim.simulate(&[f]));
        let sub = backtrace(
            &hetero,
            &feats,
            fsim.sim(),
            fsim.obs(),
            None,
            &log,
            &BacktraceConfig {
                max_nodes: 10,
                ..BacktraceConfig::default()
            },
            None,
        );
        assert!(sub.len() <= 10);
    }

    #[test]
    fn compacted_backtrace_yields_larger_subgraph() {
        let fx = fixture();
        let chains = m3d_netlist::ScanChains::stitch(fx.m3d.netlist(), 8, 4);
        let fsim = FaultSimulator::new(fx.m3d.netlist(), &fx.patterns);
        let hetero = HeteroGraph::build(&fx.m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&fx.m3d, &hetero);
        let cfg = BacktraceConfig {
            max_nodes: 100_000,
            ..BacktraceConfig::default()
        };
        let mut larger = 0usize;
        let mut total = 0usize;
        for f in detected(&fsim, 6) {
            let det = fsim.simulate(&[f]);
            let log_u = FailureLog::uncompacted(&det);
            let log_c = FailureLog::compacted(&det, fsim.obs(), &chains);
            if log_c.is_empty() {
                continue;
            }
            let su = backtrace(
                &hetero,
                &feats,
                fsim.sim(),
                fsim.obs(),
                None,
                &log_u,
                &cfg,
                None,
            );
            let sc = backtrace(
                &hetero,
                &feats,
                fsim.sim(),
                fsim.obs(),
                Some(&chains),
                &log_c,
                &cfg,
                None,
            );
            total += 1;
            if sc.len() >= su.len() {
                larger += 1;
            }
        }
        assert!(
            larger * 10 >= total * 7,
            "compaction ambiguity should usually widen the search space ({larger}/{total})"
        );
    }

    #[test]
    fn cone_memo_does_not_change_results() {
        let fx = fixture();
        let fsim = FaultSimulator::new(fx.m3d.netlist(), &fx.patterns);
        let hetero = HeteroGraph::build(&fx.m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&fx.m3d, &hetero);
        let memo = ConeMemo::new();
        for f in detected(&fsim, 4) {
            let log = FailureLog::uncompacted(&fsim.simulate(&[f]));
            // Cold (fills the memo), warm (served from it), and memo-free
            // runs must agree exactly.
            let cold = backtrace(
                &hetero,
                &feats,
                fsim.sim(),
                fsim.obs(),
                None,
                &log,
                &BacktraceConfig::default(),
                Some(&memo),
            );
            let warm = backtrace(
                &hetero,
                &feats,
                fsim.sim(),
                fsim.obs(),
                None,
                &log,
                &BacktraceConfig::default(),
                Some(&memo),
            );
            let plain = backtrace(
                &hetero,
                &feats,
                fsim.sim(),
                fsim.obs(),
                None,
                &log,
                &BacktraceConfig::default(),
                None,
            );
            for got in [&cold, &warm] {
                assert_eq!(got.nodes, plain.nodes);
                assert_eq!(got.x.as_slice(), plain.x.as_slice());
                assert_eq!(got.miv_rows, plain.miv_rows);
            }
        }
        assert!(!memo.is_empty(), "memo should have cached cones");
    }

    #[test]
    fn cone_memo_byte_cap_is_a_hard_ceiling_with_fifo_eviction() {
        // Room for exactly two 4-node active sets (4*4 + overhead each).
        let cap = 2 * ConeMemo::active_cost(4) + ConeMemo::active_cost(4) / 2;
        let memo = ConeMemo::with_capacity_bytes(cap);
        memo.insert(ObsId(0), 0, vec![HNodeId(1); 4]);
        memo.insert(ObsId(1), 0, vec![HNodeId(2); 4]);
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 0);
        assert!(memo.bytes() <= cap);
        // A third entry evicts the oldest instead of blowing the cap.
        memo.insert(ObsId(2), 0, vec![HNodeId(3); 4]);
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 1);
        assert!(memo.bytes() <= cap);
        assert!(memo.get(ObsId(0), 0).is_none(), "oldest entry evicted");
        assert!(memo.get(ObsId(1), 0).is_some());
        assert!(memo.get(ObsId(2), 0).is_some());
        // An entry that could never fit is skipped without evicting.
        memo.insert(ObsId(3), 0, vec![HNodeId(4); 100]);
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 1);
        assert!(memo.get(ObsId(3), 0).is_none());
        // A rejected resolved cone is still returned for local use, and
        // level-1 admission never pushes past the cap either.
        let big = vec![(HNodeId(5), NetId(5)); 100];
        let handed_back = memo.insert_resolved(ObsId(3), big.clone());
        assert_eq!(handed_back.as_ref(), big.as_slice());
        assert!(memo.resolved(ObsId(3)).is_none());
        assert!(memo.bytes() <= cap);
    }

    #[test]
    fn sharded_backtrace_is_bit_identical_to_monolithic() {
        let fx = fixture();
        let fsim = FaultSimulator::new(fx.m3d.netlist(), &fx.patterns);
        let hetero = HeteroGraph::build(&fx.m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&fx.m3d, &hetero);
        let chains = m3d_netlist::ScanChains::stitch(fx.m3d.netlist(), 8, 4);
        for parts in [1usize, 3, 8] {
            let index = ConeIndex::build(fx.m3d.netlist(), &hetero, parts);
            assert!(index.n_partitions() >= 1 && index.n_partitions() <= parts);
            for f in detected(&fsim, 3) {
                let det = fsim.simulate(&[f]);
                let cases = [
                    (FailureLog::uncompacted(&det), false),
                    (FailureLog::compacted(&det, fsim.obs(), &chains), true),
                ];
                for (log, compacted) in cases {
                    let ch = compacted.then_some(&chains);
                    let mono = backtrace(
                        &hetero,
                        &feats,
                        fsim.sim(),
                        fsim.obs(),
                        ch,
                        &log,
                        &BacktraceConfig::default(),
                        None,
                    );
                    for threads in [1usize, 4] {
                        let pool = ExecPool::with_threads(threads);
                        let sharded = backtrace_sharded(
                            &hetero,
                            &feats,
                            fsim.sim(),
                            fsim.obs(),
                            ch,
                            &log,
                            &BacktraceConfig::default(),
                            &index,
                            &pool,
                        );
                        assert_eq!(
                            sharded.nodes, mono.nodes,
                            "{parts} parts, {threads} threads"
                        );
                        assert_eq!(sharded.x.as_slice(), mono.x.as_slice());
                        assert_eq!(sharded.miv_rows, mono.miv_rows);
                        assert_eq!(sharded.stats.dropped_patterns, mono.stats.dropped_patterns);
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_backtrace_screens_corrupt_entries_once() {
        use m3d_sim::{FailEntry, FailObs};
        let fx = fixture();
        let fsim = FaultSimulator::new(fx.m3d.netlist(), &fx.patterns);
        let hetero = HeteroGraph::build(&fx.m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&fx.m3d, &hetero);
        let index = ConeIndex::build(fx.m3d.netlist(), &hetero, 4);
        let log: FailureLog = [FailEntry {
            pattern: u32::MAX,
            obs: FailObs::Direct(ObsId(0)),
        }]
        .into_iter()
        .collect();
        let sub = backtrace_sharded(
            &hetero,
            &feats,
            fsim.sim(),
            fsim.obs(),
            None,
            &log,
            &BacktraceConfig::default(),
            &index,
            &ExecPool::serial(),
        );
        assert!(sub.is_empty());
        assert_eq!(sub.stats.dropped_patterns, 1);
    }

    /// The ISSUE's memo-cap acceptance: at a 100k-gate profile the cap is
    /// a pinned peak — `bytes()` (payload + bookkeeping, both levels)
    /// never exceeds it, and the log churn is big enough that staying
    /// under required evicting.
    #[test]
    fn cone_memo_peak_bytes_pinned_under_cap_at_100k_gates() {
        use m3d_part::RandomPartitioner;
        use m3d_sim::{source_count_for, FailEntry, FailObs};
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 100_000,
            n_flops: 12,
            n_inputs: 32,
            n_outputs: 4,
            target_depth: 20,
            ..GeneratorConfig::default()
        });
        assert!(nl.gate_count() >= 100_000, "{}", nl.gate_count());
        let part = RandomPartitioner::new(7).partition(&nl, 2);
        let m3d = M3dNetlist::build(nl, part);
        let patterns = PatternSet::random(source_count_for(m3d.netlist()), 64, 11);
        let fsim = FaultSimulator::new(m3d.netlist(), &patterns);
        let hetero = HeteroGraph::build(&m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&m3d, &hetero);
        let cap = 4 << 20;
        let memo = ConeMemo::with_capacity_bytes(cap);
        let n_obs = fsim.obs().len() as u32;
        let log: FailureLog = (0..4u32)
            .flat_map(|p| {
                (0..n_obs).map(move |o| FailEntry {
                    pattern: p,
                    obs: FailObs::Direct(ObsId(o)),
                })
            })
            .collect();
        for _ in 0..2 {
            let sub = backtrace(
                &hetero,
                &feats,
                fsim.sim(),
                fsim.obs(),
                None,
                &log,
                &BacktraceConfig::default(),
                Some(&memo),
            );
            assert!(!sub.is_empty());
            assert!(
                memo.bytes() <= cap,
                "memo holds {} bytes, cap {cap}",
                memo.bytes()
            );
        }
        assert!(
            memo.evictions() > 0,
            "100k-gate active cones must overflow a 4 MiB budget"
        );
        assert!(!memo.is_empty());
    }

    #[test]
    fn subgraph_features_have_local_degrees() {
        let fx = fixture();
        let fsim = FaultSimulator::new(fx.m3d.netlist(), &fx.patterns);
        let hetero = HeteroGraph::build(&fx.m3d, fsim.obs());
        let feats = FeatureExtractor::compute(&fx.m3d, &hetero);
        let f = detected(&fsim, 1)[0];
        let log = FailureLog::uncompacted(&fsim.simulate(&[f]));
        let sub = backtrace(
            &hetero,
            &feats,
            fsim.sim(),
            fsim.obs(),
            None,
            &log,
            &BacktraceConfig::default(),
            None,
        );
        // At least one node must have nonzero local degree (the subgraph is
        // connected around the fault's cone).
        let any_local = (0..sub.len())
            .any(|i| sub.x.get(i, F_FANIN_SUB) > 0.0 || sub.x.get(i, F_FANOUT_SUB) > 0.0);
        assert!(any_local);
    }
}
