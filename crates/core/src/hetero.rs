//! The heterogeneous graph of Section III-A (Fig. 2).
//!
//! **Circuit level** — one node per fault site (every gate pin) plus one
//! node per MIV. Edges follow signal flow: input-pin → output-pin inside a
//! gate, and stem → branch along each net, routed *through* the net's MIV
//! nodes for tier-crossing connections (this is what makes MIVs
//! pinpointable in constant time).
//!
//! **Top level** — one *Topnode* per scan observation point, connected by
//! *Topedges* to every circuit-level node in its fan-in cone; each Topedge
//! carries the BFS-shortest distance and the number of MIVs on that path
//! (Table I's `D_top` / `N_MIV`). Construction is a single reverse BFS per
//! Topnode, `O(|V| + |E|)` overall per Topnode set, run once per design
//! and reused for every failure log.
//!
//! **Parallel cone build.** Topnodes fan out over an [`ExecPool`]: each
//! worker owns one reusable scratch (an epoch stamp per node, a packed
//! `dist | mivs << 16` word per node and a flat FIFO queue), so no cone
//! allocates or clears a node-sized array. The FIFO order — hence every
//! node's first discovering parent and its `dist`/`mivs` — is the classic
//! queue BFS, and each cone is a pure function of its Topnode, so the
//! Topnodes come back bit-identical at any thread count. Each cone is
//! emitted in node order with exact capacity by one scan of the stamp
//! array — `O(|V|)` per Topnode, the same as the fresh node-sized arrays
//! the classic BFS allocates — so no cone is sorted.
//!
//! **Counter width.** `dist` and `mivs` are computed in `u32` and stored as
//! `u16`; a Topedge further than `u16::MAX` nodes from its Topnode
//! saturates at `u16::MAX` (its `mivs` clamps the same way) and bumps the
//! `hetero.dist_saturated` counter, never wrapping.

use m3d_exec::ExecPool;
use m3d_netlist::{GateId, NetId, Pin, PinRef};
use m3d_part::{M3dNetlist, MivId};
use m3d_sim::{ObsId, ObsPoints};

/// Dense id of a heterogeneous-graph node (a pin or an MIV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HNodeId(pub u32);

impl HNodeId {
    /// Index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a circuit-level node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HNodeKind {
    /// A fault site: one pin of one gate.
    Pin(PinRef),
    /// A monolithic inter-tier via.
    Miv(MivId),
}

/// One Topedge: the fan-in-cone membership record of a Topnode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopEdge {
    /// The circuit-level node in the cone.
    pub node: HNodeId,
    /// Shortest-path node distance from the Topnode.
    pub dist: u16,
    /// Number of MIV nodes on that shortest path.
    pub mivs: u16,
}

/// One Topnode: a scan observation point and its fan-in cone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopNode {
    /// The observation point this Topnode corresponds to.
    pub obs: ObsId,
    /// The fan-in cone with per-edge features, sorted by node id.
    pub cone: Vec<TopEdge>,
}

/// The heterogeneous graph of a partitioned design.
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    kinds: Vec<HNodeKind>,
    /// The net carrying each node's signal (pins: their net; MIVs: their
    /// net). `None` only for pins of portless gates (never occurs after
    /// validation).
    net_of: Vec<Option<NetId>>,
    /// Directed circuit-level edges (signal-flow direction).
    edges: Vec<(u32, u32)>,
    /// CSR forward adjacency.
    fwd_ptr: Vec<u32>,
    fwd_idx: Vec<u32>,
    /// CSR reverse adjacency.
    rev_ptr: Vec<u32>,
    rev_idx: Vec<u32>,
    /// Per-gate offset into the pin-node id space.
    pin_offset: Vec<u32>,
    pin_total: u32,
    topnodes: Vec<TopNode>,
}

impl HeteroGraph {
    /// Builds the heterogeneous graph for `m3d` with Topnodes for `obs`,
    /// fanning the cones out over the environment-resolved [`ExecPool`].
    /// The result is bit-identical at any thread count.
    pub fn build(m3d: &M3dNetlist, obs: &ObsPoints) -> Self {
        HeteroGraph::build_with_pool(m3d, obs, &ExecPool::default())
    }

    /// [`HeteroGraph::build`] with the Topnode cones built on `pool`.
    pub(crate) fn build_with_pool(m3d: &M3dNetlist, obs: &ObsPoints, pool: &ExecPool) -> Self {
        let _span = m3d_obs::span!("hetero.build");
        let nl = m3d.netlist();
        // --- Pin-node id space.
        let mut pin_offset = Vec::with_capacity(nl.gate_count() + 1);
        let mut acc = 0u32;
        for (_, g) in nl.iter_gates() {
            pin_offset.push(acc);
            acc += g.inputs.len() as u32 + u32::from(g.output.is_some());
        }
        pin_offset.push(acc);
        let pin_total = acc;
        let n_nodes = pin_total as usize + m3d.miv_count();

        let mut kinds = Vec::with_capacity(n_nodes);
        let mut net_of = Vec::with_capacity(n_nodes);
        for (id, g) in nl.iter_gates() {
            for (k, &inp) in g.inputs.iter().enumerate() {
                kinds.push(HNodeKind::Pin(PinRef::input(id, k as u8)));
                net_of.push(Some(inp));
            }
            if let Some(out) = g.output {
                kinds.push(HNodeKind::Pin(PinRef::output(id)));
                net_of.push(Some(out));
            }
        }
        for (i, miv) in m3d.mivs().iter().enumerate() {
            kinds.push(HNodeKind::Miv(MivId(i as u32)));
            net_of.push(Some(miv.net));
        }

        let pin_node = |pin: PinRef| -> u32 {
            let g = pin.gate.index();
            match pin.pin {
                Pin::Input(k) => pin_offset[g] + u32::from(k),
                Pin::Output => pin_offset[g] + nl.gate(pin.gate).inputs.len() as u32,
            }
        };
        let miv_node = |m: MivId| -> u32 { pin_total + m.0 };

        // --- Circuit-level edges.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        // Inside gates: every input pin feeds the output pin.
        for (id, g) in nl.iter_gates() {
            if g.output.is_some() {
                for k in 0..g.inputs.len() {
                    edges.push((
                        pin_node(PinRef::input(id, k as u8)),
                        pin_node(PinRef::output(id)),
                    ));
                }
            }
        }
        // Along nets: stem → (MIV chain) → branch.
        for (nid, net) in nl.iter_nets() {
            let Some(drv) = net.driver else { continue };
            let stem = pin_node(PinRef::output(drv));
            let t_drv = m3d.partition().tier_of(drv);
            let mivs = m3d.mivs_of_net(nid);
            for &(g, k) in &net.loads {
                let branch = pin_node(PinRef::input(g, k));
                let t_load = m3d.partition().tier_of(g);
                if mivs.is_empty() || t_load == t_drv {
                    edges.push((stem, branch));
                    continue;
                }
                // Route through the boundary vias between the tiers, in
                // order from the driver's side.
                let (lo, hi) = (t_drv.0.min(t_load.0), t_drv.0.max(t_load.0));
                let mut path: Vec<MivId> = mivs
                    .iter()
                    .copied()
                    .filter(|&m| {
                        let b = m3d.miv(m).boundary.0;
                        b >= lo && b < hi
                    })
                    .collect();
                if t_drv.0 > t_load.0 {
                    path.sort_by_key(|a| std::cmp::Reverse(m3d.miv(*a).boundary));
                } else {
                    path.sort_by_key(|a| m3d.miv(*a).boundary);
                }
                if path.is_empty() {
                    edges.push((stem, branch));
                    continue;
                }
                let mut prev = stem;
                for &m in &path {
                    edges.push((prev, miv_node(m)));
                    prev = miv_node(m);
                }
                edges.push((prev, branch));
            }
        }
        edges.sort_unstable();
        edges.dedup();

        let (fwd_ptr, fwd_idx) = build_csr(n_nodes, edges.iter().copied());
        let (rev_ptr, rev_idx) = build_csr(n_nodes, edges.iter().map(|&(a, b)| (b, a)));

        let mut graph = HeteroGraph {
            kinds,
            net_of,
            edges,
            fwd_ptr,
            fwd_idx,
            rev_ptr,
            rev_idx,
            pin_offset,
            pin_total,
            topnodes: Vec::new(),
        };

        // --- Top level: one reverse BFS per observation point.
        let _cones_span = m3d_obs::span!("hetero.cones");
        let starts: Vec<HNodeId> = obs
            .iter()
            .map(|(_, point)| graph.pin_of(PinRef::input(point.gate, 0)))
            .collect();
        let cones = pool.map_init(
            &starts,
            || ConeScratch::new(n_nodes),
            |scratch, _, &start| scratch.cone(&graph, start),
        );
        let mut saturated = 0u64;
        graph.topnodes = obs
            .iter()
            .zip(cones)
            .map(|((obs_id, _), (cone, sat))| {
                saturated += sat;
                TopNode { obs: obs_id, cone }
            })
            .collect();
        if saturated > 0 {
            m3d_obs::counter!("hetero.dist_saturated", saturated);
            m3d_obs::warn!(
                "hetero: {saturated} Topedges lie more than {} nodes from their Topnode; \
                 their D_top/N_MIV saturate at that value",
                u16::MAX
            );
        }
        let entries: usize = graph.topnodes.iter().map(|t| t.cone.len()).sum();
        m3d_obs::gauge!("hetero.cone_entries", entries as f64);
        m3d_obs::gauge!(
            "hetero.cone_bytes",
            (entries * std::mem::size_of::<TopEdge>()) as f64
        );
        graph
    }

    /// Total node count (pins + MIVs).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of pin nodes (MIV nodes occupy ids `pin_count()..`).
    #[inline]
    pub fn pin_count(&self) -> usize {
        self.pin_total as usize
    }

    /// The kind of node `n`.
    #[inline]
    pub fn kind(&self, n: HNodeId) -> HNodeKind {
        self.kinds[n.index()]
    }

    /// The net carrying node `n`'s signal.
    #[inline]
    pub fn net_of(&self, n: HNodeId) -> Option<NetId> {
        self.net_of[n.index()]
    }

    /// The node id of a pin.
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range.
    pub fn pin_of(&self, pin: PinRef) -> HNodeId {
        let g = pin.gate.index();
        let base = self.pin_offset[g];
        let width = self.pin_offset[g + 1] - base;
        let off = match pin.pin {
            Pin::Input(k) => u32::from(k),
            Pin::Output => width - 1,
        };
        HNodeId(base + off)
    }

    /// The node id of an MIV.
    pub fn miv_node(&self, m: MivId) -> HNodeId {
        HNodeId(self.pin_total + m.0)
    }

    /// Directed circuit-level edges.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Forward (driver → load) neighbors of `n`.
    pub fn successors(&self, n: HNodeId) -> &[u32] {
        let i = n.index();
        &self.fwd_idx[self.fwd_ptr[i] as usize..self.fwd_ptr[i + 1] as usize]
    }

    /// Reverse (load → driver) neighbors of `n`.
    pub fn predecessors(&self, n: HNodeId) -> &[u32] {
        let i = n.index();
        &self.rev_idx[self.rev_ptr[i] as usize..self.rev_ptr[i + 1] as usize]
    }

    /// In-degree / out-degree in the circuit-level graph.
    pub fn degrees(&self, n: HNodeId) -> (usize, usize) {
        (self.predecessors(n).len(), self.successors(n).len())
    }

    /// The Topnodes (indexed by [`ObsId`] order).
    pub fn topnodes(&self) -> &[TopNode] {
        &self.topnodes
    }

    /// The Topnode for an observation point.
    pub fn topnode(&self, obs: ObsId) -> &TopNode {
        &self.topnodes[obs.index()]
    }

    /// The gate owning a pin node (`None` for MIV nodes).
    pub fn gate_of(&self, n: HNodeId) -> Option<GateId> {
        match self.kind(n) {
            HNodeKind::Pin(p) => Some(p.gate),
            HNodeKind::Miv(_) => None,
        }
    }

    /// The reference cone construction the parallel build must match:
    /// a fresh BFS with a `VecDeque`, then a sort by node id.
    #[cfg(test)]
    pub(crate) fn reverse_bfs(&self, start: HNodeId) -> Vec<TopEdge> {
        let mut dist = vec![u16::MAX; self.node_count()];
        let mut mivs = vec![0u16; self.node_count()];
        let mut out = Vec::new();
        let mut q = std::collections::VecDeque::new();
        dist[start.index()] = 0;
        q.push_back(start.0);
        while let Some(u) = q.pop_front() {
            let d = dist[u as usize];
            out.push(TopEdge {
                node: HNodeId(u),
                dist: d,
                mivs: mivs[u as usize],
            });
            for &v in self.predecessors(HNodeId(u)) {
                if dist[v as usize] == u16::MAX {
                    dist[v as usize] = d + 1;
                    mivs[v as usize] = mivs[u as usize]
                        + u16::from(matches!(self.kinds[v as usize], HNodeKind::Miv(_)));
                    q.push_back(v);
                }
            }
        }
        out.sort_unstable_by_key(|e| e.node);
        out
    }
}

/// Where a Topedge's `dist` and `mivs` counters saturate; also the mask
/// of one counter in a packed `dist | mivs << 16` word.
const COUNTER_MAX: u32 = u16::MAX as u32;

/// One worker's reusable reverse-BFS scratch. A node belongs to the
/// current cone iff its stamp equals the current epoch, so nothing is
/// cleared between cones.
struct ConeScratch {
    stamp: Vec<u32>,
    /// `dist | mivs << 16` of every node stamped with the current epoch.
    word: Vec<u32>,
    /// FIFO queue; after a BFS it holds exactly the cone, in visit order.
    queue: Vec<u32>,
    epoch: u32,
}

impl ConeScratch {
    fn new(n_nodes: usize) -> Self {
        ConeScratch {
            stamp: vec![0; n_nodes],
            word: vec![0; n_nodes],
            queue: Vec::new(),
            epoch: 0,
        }
    }

    /// The fan-in cone of `start` in node order, plus how many of its
    /// Topedges saturated their counters.
    fn cone(&mut self, graph: &HeteroGraph, start: HNodeId) -> (Vec<TopEdge>, u64) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let pin_total = graph.pin_total;
        let mut saturated = 0u64;
        self.queue.clear();
        self.stamp[start.index()] = epoch;
        self.word[start.index()] = 0;
        self.queue.push(start.0);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let w = self.word[u as usize];
            for &v in graph.predecessors(HNodeId(u)) {
                let vi = v as usize;
                if self.stamp[vi] != epoch {
                    self.stamp[vi] = epoch;
                    // MIV nodes occupy the ids past the pins.
                    let dist = (w & COUNTER_MAX) + 1;
                    let mivs = (w >> 16) + u32::from(v >= pin_total);
                    if dist > COUNTER_MAX || mivs > COUNTER_MAX {
                        saturated += 1;
                    }
                    self.word[vi] = dist.min(COUNTER_MAX) | mivs.min(COUNTER_MAX) << 16;
                    self.queue.push(v);
                }
            }
        }

        let word = &self.word;
        let mut out = Vec::with_capacity(self.queue.len());
        out.extend(
            self.stamp
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == epoch)
                .map(|(v, _)| TopEdge {
                    node: HNodeId(v as u32),
                    dist: (word[v] & COUNTER_MAX) as u16,
                    mivs: (word[v] >> 16) as u16,
                }),
        );
        (out, saturated)
    }
}

fn build_csr(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; n + 1];
    for (a, _) in edges.clone() {
        counts[a as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let mut idx = vec![0u32; counts[n] as usize];
    let mut cursor = counts.clone();
    for (a, b) in edges {
        idx[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
    }
    (counts, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, CellKind, GeneratorConfig, Netlist};
    use m3d_part::{MinCutPartitioner, Partitioner, Tier, TierPartition};

    fn small_m3d() -> M3dNetlist {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 150,
            n_flops: 16,
            n_inputs: 8,
            n_outputs: 6,
            target_depth: 6,
            ..GeneratorConfig::default()
        });
        let part = MinCutPartitioner::default().partition(&nl, 2);
        M3dNetlist::build(nl, part)
    }

    #[test]
    fn node_count_is_pins_plus_mivs() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        assert_eq!(
            h.node_count(),
            m3d.netlist().fault_site_count() + m3d.miv_count()
        );
        assert_eq!(h.pin_count(), m3d.netlist().fault_site_count());
    }

    #[test]
    fn pin_ids_round_trip() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        for pin in m3d.netlist().fault_sites() {
            let n = h.pin_of(pin);
            assert_eq!(h.kind(n), HNodeKind::Pin(pin));
            assert_eq!(h.net_of(n), m3d.netlist().pin_net(pin));
        }
        for i in 0..m3d.miv_count() {
            let n = h.miv_node(MivId(i as u32));
            assert_eq!(h.kind(n), HNodeKind::Miv(MivId(i as u32)));
        }
    }

    #[test]
    fn cross_tier_edges_route_through_mivs() {
        // input(t0) -> inv(t1) -> output(t0): both nets cross the boundary.
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let y = nl.add_gate(CellKind::Inv, &[a]).unwrap();
        nl.add_output(y);
        let part = TierPartition::new(vec![Tier(0), Tier(1), Tier(0)], 2);
        let m3d = M3dNetlist::build(nl, part);
        assert_eq!(m3d.miv_count(), 2);
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        // Stem (input output-pin) must NOT connect directly to the inv
        // input pin; it goes through the MIV node.
        let stem = h.pin_of(PinRef::output(m3d.netlist().inputs()[0]));
        let succ = h.successors(stem);
        assert_eq!(succ.len(), 1);
        assert!(matches!(h.kind(HNodeId(succ[0])), HNodeKind::Miv(_)));
    }

    #[test]
    fn topnode_cones_contain_upstream_pins() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        assert_eq!(h.topnodes().len(), obs.len());
        for tn in h.topnodes() {
            assert!(!tn.cone.is_empty());
            // The observed pin itself is in its own cone at distance 0.
            let point = obs.point(tn.obs);
            let self_node = h.pin_of(PinRef::input(point.gate, 0));
            let e = tn
                .cone
                .iter()
                .find(|e| e.node == self_node)
                .expect("self in cone");
            assert_eq!(e.dist, 0);
            // Distances strictly positive elsewhere, MIV counts consistent.
            for e in &tn.cone {
                if e.node != self_node {
                    assert!(e.dist > 0);
                }
                assert!(e.mivs <= e.dist);
            }
        }
    }

    #[test]
    fn miv_nodes_appear_in_cones_with_counts() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        let mut seen_miv_edge = false;
        for tn in h.topnodes() {
            for e in &tn.cone {
                if matches!(h.kind(e.node), HNodeKind::Miv(_)) {
                    seen_miv_edge = true;
                    assert!(e.mivs >= 1, "an MIV node's path crosses itself");
                }
            }
        }
        assert!(seen_miv_edge, "some cone must contain an MIV");
    }

    #[test]
    fn deep_buffer_chain_saturates_instead_of_wrapping() {
        // input → 33,000 buffers → output: the input's output pin sits
        // 2 · 33,000 + 1 = 66,001 nodes from the Topnode.
        const BUFS: usize = 33_000;
        let mut nl = Netlist::new();
        let mut net = nl.add_input();
        for _ in 0..BUFS {
            net = nl.add_gate(CellKind::Buf, &[net]).unwrap();
        }
        nl.add_output(net);
        let part = TierPartition::new(vec![Tier(0); BUFS + 2], 2);
        let m3d = M3dNetlist::build(nl, part);
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build_with_pool(&m3d, &obs, &ExecPool::serial());
        let start = h.pin_of(PinRef::input(obs.point(ObsId(0)).gate, 0));
        let (cone, saturated) = ConeScratch::new(h.node_count()).cone(&h, start);
        assert_eq!(cone, h.topnode(ObsId(0)).cone);
        assert_eq!(
            cone.len(),
            2 * BUFS + 2,
            "every node once: no wrap re-visits"
        );
        let deepest = 2 * BUFS + 1;
        assert_eq!(saturated as usize, deepest - usize::from(u16::MAX));
        let at_cap = cone.iter().filter(|e| e.dist == u16::MAX).count();
        assert_eq!(at_cap, deepest - usize::from(u16::MAX) + 1);
        assert!(cone.iter().all(|e| e.mivs == 0));
        assert_eq!(cone.iter().filter(|e| e.dist == 0).count(), 1);
    }

    #[test]
    fn scratch_epochs_survive_wraparound() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build_with_pool(&m3d, &obs, &ExecPool::serial());
        let mut scratch = ConeScratch::new(h.node_count());
        scratch.epoch = u32::MAX - 1;
        for tn in h.topnodes().iter().take(4) {
            let start = h.pin_of(PinRef::input(obs.point(tn.obs).gate, 0));
            assert_eq!(scratch.cone(&h, start).0, tn.cone);
        }
    }

    #[test]
    fn parallel_setup_matches_the_serial_reference_on_quick_profiles() {
        use crate::backtrace::ConeIndex;
        use crate::dataset::DesignContext;
        use crate::design::{DesignConfig, TestBench, TestBenchConfig};
        use m3d_netlist::BenchmarkProfile;

        for profile in BenchmarkProfile::ALL {
            for config in [DesignConfig::Syn1, DesignConfig::Par] {
                let bench = TestBench::build(&TestBenchConfig::quick(profile, config));
                let serial = DesignContext::with_pool(&bench, &ExecPool::serial());
                let h = &serial.hetero;
                for tn in h.topnodes() {
                    let start = h.pin_of(PinRef::input(serial.fsim.obs().point(tn.obs).gate, 0));
                    assert_eq!(tn.cone, h.reverse_bfs(start), "{}", bench.name);
                }
                // The packed index, derived straight from the cones.
                let index = ConeIndex::build_with_pool(bench.netlist(), h, 3, &ExecPool::serial());
                let mut rank = vec![(0, 0u32); h.node_count()];
                for p in 0..index.n_partitions() {
                    for (r, n) in index.nodes_of(p).iter().enumerate() {
                        rank[n.index()] = (p, r as u32);
                    }
                }
                let reference = |p: usize, tn: &TopNode| -> Vec<(u32, NetId)> {
                    tn.cone
                        .iter()
                        .filter(|e| rank[e.node.index()].0 == p)
                        .filter_map(|e| Some((rank[e.node.index()].1, h.net_of(e.node)?)))
                        .collect()
                };
                for threads in [1, 2, 3] {
                    let pool = ExecPool::with_threads(threads);
                    let what = format!("{} at {threads} threads", bench.name);
                    let ctx = DesignContext::with_pool(&bench, &pool);
                    assert_eq!(ctx.hetero.topnodes(), h.topnodes(), "{what}: cones");
                    for i in 0..h.node_count() {
                        let (a, b) = (
                            ctx.features.node_row(HNodeId(i as u32)),
                            serial.features.node_row(HNodeId(i as u32)),
                        );
                        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(a), bits(b), "{what}: feature row {i}");
                    }
                    let packed = ConeIndex::build_with_pool(bench.netlist(), h, 3, &pool);
                    assert_eq!(packed.n_partitions(), index.n_partitions());
                    for tn in h.topnodes() {
                        for p in 0..packed.n_partitions() {
                            assert_eq!(
                                packed.slice(p, tn.obs),
                                reference(p, tn).as_slice(),
                                "{what}: cell ({p}, {:?})",
                                tn.obs
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn degrees_match_csr() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        let mut fwd = vec![0usize; h.node_count()];
        let mut rev = vec![0usize; h.node_count()];
        for &(a, b) in h.edges() {
            fwd[a as usize] += 1;
            rev[b as usize] += 1;
        }
        for i in 0..h.node_count() {
            let (din, dout) = h.degrees(HNodeId(i as u32));
            assert_eq!(din, rev[i]);
            assert_eq!(dout, fwd[i]);
        }
    }
}
