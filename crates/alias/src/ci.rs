//! The context-insensitive points-to analysis (paper §3, Figure 1).
//!
//! Points-to facts are hash-consed into dense
//! [`PairId`](crate::pairset::PairId)s and stored in compact
//! [`PairSet`]s (sorted small-vec spilling to a bitset). Under
//! the default [`Propagation::Delta`] discipline the worklist carries
//! *outputs with pending deltas*: each step takes an output's batch of
//! newly committed pairs and pushes the whole batch through every
//! consumer's transfer function, so a pair is delivered to each consumer
//! exactly once and the per-delivery queue traffic of the naive scheme
//! disappears. [`Propagation::Naive`] retains the seed discipline (one
//! `(input, pair)` delivery per step) for the equivalence tests and for
//! the campaign's property 3, which re-solves through it; both
//! schedules reach the same least fixpoint, and because
//! [`PathTable::canonicalize`] renumbers the interned paths at finish,
//! the two modes return *numerically identical* results. Both run on
//! the worklist driver shared with Weihl and k=1 (`worklist.rs`), with
//! outputs as its slots.
//!
//! Calls and returns are treated like jumps (all information at actuals
//! flows to all callees, all returns flow to all callers). Strong
//! updates block store pairs whose paths are definitely overwritten; the
//! pseudocode's dual-worklist effect (delaying store pairs until a
//! location pair arrives, re-examining blocked pairs when further
//! location pairs arrive) falls out of the arrival-driven transfer
//! functions.

use crate::fxhash::{HashMap, HashSet};
use crate::pairset::{PairInterner, PairSet, Propagation};
use crate::path::{AccessOp, Pair, PathId, PathTable};
use crate::worklist::{self, Counters, Slots, Worklist};
use vdg::graph::{Graph, InputId, NodeId, NodeKind, OutputId, VFuncId};

/// Worklist discipline; the fixpoint is scheduling-independent (tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorklistOrder {
    /// Process oldest deliveries first (queue).
    #[default]
    Fifo,
    /// Process newest deliveries first (stack).
    Lifo,
}

/// How heap allocation sites are named (paper §2 footnote 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeapNaming {
    /// One base-location per static allocation site (paper default).
    #[default]
    Site,
    /// Site plus the immediate caller of the allocating function: when a
    /// heap pair leaves the function containing its allocation site, the
    /// base is cloned per call site — "naming such base-locations with a
    /// call string instead of a single allocation site". The paper
    /// (§5.1.1) predicts finer heap naming yields a larger pool of
    /// locations and *more* spurious pairs under context-insensitivity.
    CallString1,
}

/// Deliberate fault injection, exercised by the differential fuzzer's
/// planted-bug self-test (`engine::fuzz`). Every real configuration uses
/// [`Fault::None`]; the other variants exist so the fuzzing pipeline can
/// prove it *detects and minimizes* a genuine soundness bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No injected fault (the only sound configuration).
    #[default]
    None,
    /// Weakened strong-update guard: a store through a *may*-alias
    /// location set kills the previous bindings of **every** referent,
    /// as if each were a must-referent. Unsound as soon as the location
    /// set has two or more entries.
    OverStrongUpdates,
}

/// Configuration of the CI solver.
#[derive(Debug, Clone)]
pub struct CiConfig {
    /// Perform strong updates (paper default: yes). Disabling is an
    /// ablation that degrades precision but stays sound.
    pub strong_updates: bool,
    /// Worklist discipline (results are order-independent).
    pub order: WorklistOrder,
    /// How heap allocation sites are named.
    pub heap_naming: HeapNaming,
    /// Propagation discipline (results are discipline-independent).
    pub propagation: Propagation,
    /// Fault injection for the fuzzer's planted-bug test; keep
    /// [`Fault::None`] everywhere else.
    pub fault: Fault,
}

impl Default for CiConfig {
    fn default() -> Self {
        CiConfig {
            strong_updates: true,
            order: WorklistOrder::Fifo,
            heap_naming: HeapNaming::Site,
            propagation: Propagation::Delta,
            fault: Fault::None,
        }
    }
}

/// Result of the context-insensitive analysis.
///
/// The path table is in canonical (structural) order — see
/// [`PathTable::canonicalize`] — so any two schedules of the solver
/// produce byte-identical results.
#[derive(Debug, Clone)]
pub struct CiResult {
    /// The interned path universe (shared vocabulary with the CS solver).
    pub paths: PathTable,
    pairs: Vec<Vec<Pair>>,
    /// Pair deliveries consumed (`flow-in`s; §4.2 cost metric). One per
    /// `(consumer, pair)` regardless of batching, so the value is
    /// identical under either propagation discipline.
    pub flow_ins: u64,
    /// Successful meets (`flow-out`s; §4.2 cost metric): emissions that
    /// grew an output's set. Redundant emission attempts are counted
    /// separately in [`CiResult::dedup_hits`].
    pub flow_outs: u64,
    /// Emission attempts deduplicated by the committed sets (the
    /// representation's dedup hit count; scheduling-dependent).
    pub dedup_hits: u64,
    /// Batched delta deliveries consumed (`None` under
    /// [`Propagation::Naive`]). `flow_ins − delta_batches` is the
    /// number of worklist deliveries the batching saved.
    pub delta_batches: Option<u64>,
    /// Discovered call graph: call node -> callees (sorted).
    pub callees: HashMap<NodeId, Vec<VFuncId>>,
}

impl CiResult {
    /// The points-to pairs on an output, sorted.
    pub fn pairs(&self, o: OutputId) -> &[Pair] {
        &self.pairs[o.0 as usize]
    }

    /// Total number of points-to pairs across all outputs (Figure 3).
    pub fn total_pairs(&self) -> usize {
        self.pairs.iter().map(|p| p.len()).sum()
    }

    /// Distinct referents of the location input of a memory operation
    /// (the Figure 4 "locations accessed" metric).
    pub fn loc_referents(&self, graph: &Graph, node: NodeId) -> Vec<PathId> {
        let loc_out = graph.input_src(node, 0);
        let mut refs: Vec<PathId> = self.pairs(loc_out).iter().map(|p| p.referent).collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }
}

/// Runs the context-insensitive analysis over `graph`.
pub fn analyze_ci(graph: &Graph, config: &CiConfig) -> CiResult {
    let mut s = Solver::new(graph, config.clone());
    s.seed();
    worklist::run(&mut s);
    s.finish()
}

/// Delivers the full committed set of `src` to `(node, port)`.
pub(crate) fn deliver_committed(s: &mut Solver, node: NodeId, port: usize, src: OutputId) {
    let pairs: Vec<Pair> = s.sets[src.0 as usize]
        .iter()
        .map(|id| s.wl.interner.resolve(id))
        .collect();
    for p in pairs {
        worklist::deliver(s, node, port, src, p);
    }
}

pub(crate) struct Solver<'g> {
    pub(crate) g: &'g Graph,
    pub(crate) cfg: CiConfig,
    pub(crate) paths: PathTable,
    /// The driver state: interner, worklists, counters and budget.
    pub(crate) wl: Worklist<OutputId>,
    /// Committed pairs (with pending deltas) per output.
    pub(crate) sets: Vec<PairSet>,
    pub(crate) callees: HashMap<NodeId, Vec<VFuncId>>,
    pub(crate) callers: HashMap<VFuncId, Vec<NodeId>>,
    /// Owner function of each heap base's allocation site (only filled
    /// under [`HeapNaming::CallString1`]).
    alloc_owner: HashMap<vdg::graph::BaseId, VFuncId>,
    /// Emission mask for the demand-driven solver: when present, an
    /// emission to an output outside the mask is dropped *before* it is
    /// committed, so inactive outputs never accumulate partial sets.
    /// `None` (the exhaustive solvers) admits every output.
    pub(crate) active: Option<Vec<bool>>,
    /// Reusable side-input buffers (no per-delivery allocation in the
    /// hot loop).
    scratch_a: Vec<Pair>,
    scratch_b: Vec<Pair>,
}

/// The owned, graph-independent portion of a [`Solver`], carried by the
/// demand-driven solver between point queries. The worklists and
/// scratch buffers are deliberately absent: parts may only be extracted
/// from a solver whose worklists are drained (or whose state is being
/// abandoned after budget exhaustion). The interner and the counters
/// are the driver's.
#[derive(Debug, Clone)]
pub(crate) struct SolverParts {
    pub(crate) paths: PathTable,
    pub(crate) interner: PairInterner,
    pub(crate) sets: Vec<PairSet>,
    pub(crate) callees: HashMap<NodeId, Vec<VFuncId>>,
    pub(crate) callers: HashMap<VFuncId, Vec<NodeId>>,
    pub(crate) alloc_owner: HashMap<vdg::graph::BaseId, VFuncId>,
    pub(crate) counters: Counters,
}

/// Computes the owning function of every heap allocation site.
pub(crate) fn alloc_owner_map(g: &Graph) -> HashMap<vdg::graph::BaseId, VFuncId> {
    let owner = crate::modref::node_owner_map(g);
    let mut map = HashMap::default();
    for (id, n) in g.nodes() {
        if let NodeKind::Alloc(b) = n.kind {
            map.insert(b, owner[id.0 as usize]);
        }
    }
    map
}

/// Under k=1 heap naming, a heap pair leaving its allocator function
/// `f` through `call` gets its heap bases cloned per call site.
fn rename_heap(
    heap_naming: HeapNaming,
    alloc_owner: &HashMap<vdg::graph::BaseId, VFuncId>,
    paths: &mut PathTable,
    pair: Pair,
    f: VFuncId,
    call: NodeId,
) -> Pair {
    if heap_naming != HeapNaming::CallString1 {
        return pair;
    }
    let mut fix = |p: PathId| -> PathId {
        match paths.base_of(p) {
            Some(b) if !paths.is_synthetic(b) && alloc_owner.get(&b) == Some(&f) => {
                let clone = paths.heap_clone(b, call.0);
                paths.rebase(p, clone)
            }
            _ => p,
        }
    };
    Pair::new(fix(pair.path), fix(pair.referent))
}

/// Cooper-scheme variants of a pair crossing a call/return boundary
/// into/out of `boundary_func`: any base with an `older` companion
/// whose owner may be re-entered through the boundary also denotes
/// older instances on the far side.
fn cooper_variants(
    g: &Graph,
    paths: &mut PathTable,
    pair: Pair,
    boundary_func: VFuncId,
) -> Vec<Pair> {
    let mut out = vec![pair];
    for side in 0..2 {
        let n = out.len();
        for i in 0..n {
            let p = out[i];
            let path = if side == 0 { p.path } else { p.referent };
            let Some(older) = paths.cooper_older_of(path) else {
                continue;
            };
            let Some(base) = paths.base_of(path) else {
                continue;
            };
            let owner = match &g.base(base).kind {
                vdg::graph::BaseKind::Local { func, .. } => *func,
                _ => continue,
            };
            if !g.can_reach(boundary_func, owner) {
                continue;
            }
            let rebased = paths.rebase(path, older);
            let variant = if side == 0 {
                Pair::new(rebased, p.referent)
            } else {
                Pair::new(p.path, rebased)
            };
            out.push(variant);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Call input `port` (1 = store, 2+i = actual i) feeds entry output
/// `port - 1` of the callee.
fn forward_to_formal(
    g: &Graph,
    paths: &mut PathTable,
    port: usize,
    pair: Pair,
    f: VFuncId,
    em: &mut Vec<(OutputId, Pair)>,
) {
    let entry = g.func(f).entry;
    let formals = &g.node(entry).outputs;
    let idx = port - 1;
    if idx >= formals.len() {
        return; // arity mismatch through a function pointer
    }
    let formal = formals[idx];
    for v in cooper_variants(g, paths, pair, f) {
        em.push((formal, v));
    }
}

/// Return input `port` (0 = store, 1 = value) feeds call output `port`.
#[allow(clippy::too_many_arguments)]
fn forward_to_caller(
    g: &Graph,
    heap_naming: HeapNaming,
    alloc_owner: &HashMap<vdg::graph::BaseId, VFuncId>,
    paths: &mut PathTable,
    call: NodeId,
    port: usize,
    pair: Pair,
    f: VFuncId,
    em: &mut Vec<(OutputId, Pair)>,
) {
    let outs = &g.node(call).outputs;
    if port >= outs.len() {
        return; // e.g. value returned to a void-typed call site
    }
    let out = outs[port];
    let pair = rename_heap(heap_naming, alloc_owner, paths, pair, f, call);
    for v in cooper_variants(g, paths, pair, f) {
        em.push((out, v));
    }
}

impl<'g> Solver<'g> {
    pub(crate) fn new(g: &'g Graph, cfg: CiConfig) -> Self {
        let alloc_owner = if cfg.heap_naming == HeapNaming::CallString1 {
            alloc_owner_map(g)
        } else {
            HashMap::default()
        };
        Solver {
            g,
            paths: PathTable::for_graph(g),
            wl: Worklist::new(cfg.propagation, cfg.order),
            sets: vec![PairSet::new(); g.output_count()],
            callees: HashMap::default(),
            callers: HashMap::default(),
            alloc_owner,
            active: None,
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
            cfg,
        }
    }

    /// Rebuilds a solver around state carried over from earlier demand
    /// queries. The committed sets, interner, path table, and call
    /// graph resume exactly where [`Solver::into_parts`] left them;
    /// worklists start empty (parts are only extracted at fixpoint).
    pub(crate) fn from_parts(
        g: &'g Graph,
        cfg: CiConfig,
        parts: SolverParts,
        active: Vec<bool>,
    ) -> Self {
        let mut s = Solver::new(g, cfg);
        s.paths = parts.paths;
        s.wl.interner = parts.interner;
        s.wl.counters = parts.counters;
        s.sets = parts.sets;
        s.callees = parts.callees;
        s.callers = parts.callers;
        s.alloc_owner = parts.alloc_owner;
        s.active = Some(active);
        s
    }

    /// Extracts the carry-over state. Call only at fixpoint (drained
    /// worklists) — any queued deliveries are dropped.
    pub(crate) fn into_parts(self) -> SolverParts {
        SolverParts {
            paths: self.paths,
            interner: self.wl.interner,
            sets: self.sets,
            callees: self.callees,
            callers: self.callers,
            alloc_owner: self.alloc_owner,
            counters: self.wl.counters,
        }
    }

    /// Seeds address/function/allocation constants with `(ε, base)` —
    /// the paper's initialization loop over base-locations.
    pub(crate) fn seed(&mut self) {
        let mut seeds = Vec::new();
        for (id, n) in self.g.nodes() {
            let base = match n.kind {
                NodeKind::Base(b) | NodeKind::Alloc(b) | NodeKind::FuncConst(b) => b,
                _ => continue,
            };
            let root = self.paths.base_root(base);
            let out = self.g.node(id).outputs[0];
            seeds.push((out, Pair::new(PathTable::EMPTY, root)));
        }
        for (out, pair) in seeds {
            worklist::commit(self, out, pair);
        }
    }

    pub(crate) fn finish(self) -> CiResult {
        let Solver {
            paths,
            wl,
            sets,
            mut callees,
            ..
        } = self;
        let mut resolved: Vec<Vec<Pair>> = sets
            .iter()
            .map(|s| s.iter().map(|id| wl.interner.resolve(id)).collect())
            .collect();
        let mut used: HashSet<PathId> = HashSet::default();
        for v in &resolved {
            for p in v {
                used.insert(p.path);
                used.insert(p.referent);
            }
        }
        let (canon, remap) = paths.canonicalize(&used);
        for v in &mut resolved {
            for p in v.iter_mut() {
                *p = Pair::new(
                    PathId(remap[p.path.0 as usize]),
                    PathId(remap[p.referent.0 as usize]),
                );
            }
            v.sort_unstable();
        }
        for fs in callees.values_mut() {
            fs.sort_unstable_by_key(|f| f.0);
        }
        CiResult {
            paths: canon,
            pairs: resolved,
            flow_ins: wl.counters.flow_ins,
            flow_outs: wl.counters.flow_outs,
            dedup_hits: wl.counters.dedup_hits,
            delta_batches: wl.delta_batches(),
            callees,
        }
    }

    /// Collects the committed pairs at `(node, port)` that satisfy
    /// `keep` into `buf` (cleared first).
    fn collect_pairs(
        &self,
        node: NodeId,
        port: usize,
        buf: &mut Vec<Pair>,
        keep: impl Fn(&PathTable, Pair) -> bool,
    ) {
        buf.clear();
        let src = self.g.input_src(node, port);
        buf.extend(
            self.sets[src.0 as usize]
                .iter()
                .map(|id| self.wl.interner.resolve(id))
                .filter(|&p| keep(&self.paths, p)),
        );
    }

    /// The transfer function: a new `pair` arrived on `port` of `node`;
    /// pushes the pairs to emit into `em`. Borrows node metadata from
    /// the graph — no per-delivery allocation.
    fn transfer_at(
        &mut self,
        node: NodeId,
        port: usize,
        pair: Pair,
        em: &mut Vec<(OutputId, Pair)>,
    ) {
        let g = self.g;
        let n = g.node(node);
        let mut sa = std::mem::take(&mut self.scratch_a);
        let mut sb = std::mem::take(&mut self.scratch_b);
        match &n.kind {
            NodeKind::Member(f) => {
                let r = self.paths.child(pair.referent, AccessOp::Field(*f));
                em.push((n.outputs[0], Pair::new(pair.path, r)));
            }
            NodeKind::IndexElem => {
                let r = self.paths.child(pair.referent, AccessOp::Index);
                em.push((n.outputs[0], Pair::new(pair.path, r)));
            }
            NodeKind::ExtractField(f) => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Field(*f)) {
                    em.push((n.outputs[0], Pair::new(p, pair.referent)));
                }
            }
            NodeKind::ExtractElem => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Index) {
                    em.push((n.outputs[0], Pair::new(p, pair.referent)));
                }
            }
            NodeKind::PassThrough => {
                if port == 0 {
                    em.push((n.outputs[0], pair));
                }
            }
            NodeKind::Gamma => {
                em.push((n.outputs[0], pair));
            }
            NodeKind::Free => {
                // Deallocation is a store identity: store pairs pass
                // through; the pointer input's pairs (the kill-set the
                // checkers read) produce nothing downstream.
                if port == 1 {
                    em.push((n.outputs[0], pair));
                }
            }
            NodeKind::Primop => {}
            NodeKind::Lookup { .. } => {
                let out = n.outputs[0];
                match port {
                    0 => {
                        // New location: read every store pair it may observe.
                        self.collect_pairs(node, 1, &mut sa, |t, sp| t.dom(pair.referent, sp.path));
                        for &sp in &sa {
                            let off = self.paths.subtract(sp.path, pair.referent);
                            let p = self.paths.append(pair.path, off);
                            em.push((out, Pair::new(p, sp.referent)));
                        }
                    }
                    _ => {
                        // New store pair: dereference through every location.
                        self.collect_pairs(node, 0, &mut sa, |t, lp| t.dom(lp.referent, pair.path));
                        for &lp in &sa {
                            let off = self.paths.subtract(pair.path, lp.referent);
                            let p = self.paths.append(lp.path, off);
                            em.push((out, Pair::new(p, pair.referent)));
                        }
                    }
                }
            }
            NodeKind::Update { .. } => {
                let out = n.outputs[0];
                let strong = self.cfg.strong_updates;
                // The planted-bug injection: under `Fault::OverStrongUpdates`
                // every may-referent of the location input acts as a killer,
                // so a two-referent store erases the old binding of *both*
                // targets instead of keeping each (weak-update) copy.
                let fault = strong && self.cfg.fault == Fault::OverStrongUpdates;
                match port {
                    0 => {
                        // New location pair.
                        self.collect_pairs(node, 2, &mut sa, |_, _| true);
                        for &vp in &sa {
                            let path = self.paths.append(pair.referent, vp.path);
                            em.push((out, Pair::new(path, vp.referent)));
                        }
                        let killers: Vec<PathId> = if fault {
                            let loc_src = g.input_src(node, 0);
                            let mut k: Vec<PathId> = self.sets[loc_src.0 as usize]
                                .iter()
                                .map(|id| self.wl.interner.resolve(id).referent)
                                .collect();
                            k.push(pair.referent);
                            k
                        } else {
                            vec![pair.referent]
                        };
                        let src = g.input_src(node, 1);
                        for id in self.sets[src.0 as usize].iter() {
                            let sp = self.wl.interner.resolve(id);
                            let killed = strong
                                && killers.iter().any(|&r| self.paths.strong_dom(r, sp.path));
                            if !killed {
                                em.push((out, sp));
                            }
                        }
                    }
                    1 => {
                        // New store pair: propagated if at least one location
                        // does not strongly update it. (No location pairs yet
                        // means the pair stays blocked — the dual-worklist
                        // delay of [CWZ90].)
                        let src = g.input_src(node, 0);
                        let mut any_lp = false;
                        let mut any_kill = false;
                        let mut all_kill = true;
                        for id in self.sets[src.0 as usize].iter() {
                            let lp = self.wl.interner.resolve(id);
                            any_lp = true;
                            let k = strong && self.paths.strong_dom(lp.referent, pair.path);
                            any_kill |= k;
                            all_kill &= k;
                        }
                        let passes = if fault {
                            any_lp && !any_kill
                        } else {
                            any_lp && !all_kill
                        };
                        if passes {
                            em.push((out, pair));
                        }
                    }
                    _ => {
                        // New value pair: a store pair per location.
                        self.collect_pairs(node, 0, &mut sa, |_, _| true);
                        for &lp in &sa {
                            let path = self.paths.append(lp.referent, pair.path);
                            em.push((out, Pair::new(path, pair.referent)));
                        }
                    }
                }
            }
            NodeKind::CopyMem => {
                let out = n.outputs[0];
                match port {
                    0 => {
                        // Store pairs pass through (the copy only adds), and
                        // pairs under src re-root under dst.
                        em.push((out, pair));
                        self.collect_pairs(node, 1, &mut sb, |_, _| true);
                        self.collect_pairs(node, 2, &mut sa, |t, srcp| {
                            t.dom(srcp.referent, pair.path)
                        });
                        for &srcp in &sa {
                            let off = self.paths.subtract(pair.path, srcp.referent);
                            for dp in &sb {
                                let path = self.paths.append(dp.referent, off);
                                em.push((out, Pair::new(path, pair.referent)));
                            }
                        }
                    }
                    1 => {
                        // New dst pointer.
                        self.collect_pairs(node, 0, &mut sa, |_, _| true);
                        self.collect_pairs(node, 2, &mut sb, |_, _| true);
                        for &srcp in &sb {
                            for &sp in &sa {
                                if self.paths.dom(srcp.referent, sp.path) {
                                    let off = self.paths.subtract(sp.path, srcp.referent);
                                    let path = self.paths.append(pair.referent, off);
                                    em.push((out, Pair::new(path, sp.referent)));
                                }
                            }
                        }
                    }
                    _ => {
                        // New src pointer.
                        self.collect_pairs(node, 0, &mut sa, |_, _| true);
                        self.collect_pairs(node, 1, &mut sb, |_, _| true);
                        for &dp in &sb {
                            for &sp in &sa {
                                if self.paths.dom(pair.referent, sp.path) {
                                    let off = self.paths.subtract(sp.path, pair.referent);
                                    let path = self.paths.append(dp.referent, off);
                                    em.push((out, Pair::new(path, sp.referent)));
                                }
                            }
                        }
                    }
                }
            }
            NodeKind::Call => {
                if port == 0 {
                    // A new function value: extend the call graph and
                    // repropagate existing information (paper Fig. 1,
                    // "performs appropriate repropagation").
                    if let Some(f) = self.paths.func_of(pair.referent) {
                        self.register_callee(node, f, em);
                    }
                } else if let Some(callees) = self.callees.get(&node) {
                    // Actual (or store) pair: forward to the matching
                    // formal of every callee.
                    for &f in callees {
                        forward_to_formal(g, &mut self.paths, port, pair, f, em);
                    }
                }
            }
            NodeKind::Return { func } => {
                if let Some(callers) = self.callers.get(func) {
                    for &call in callers {
                        forward_to_caller(
                            g,
                            self.cfg.heap_naming,
                            &self.alloc_owner,
                            &mut self.paths,
                            call,
                            port,
                            pair,
                            *func,
                            em,
                        );
                    }
                }
            }
            NodeKind::Base(_)
            | NodeKind::Alloc(_)
            | NodeKind::FuncConst(_)
            | NodeKind::InitStore
            | NodeKind::ScalarConst
            | NodeKind::NullConst
            | NodeKind::Entry { .. } => {}
        }
        self.scratch_a = sa;
        self.scratch_b = sb;
    }

    fn register_callee(&mut self, call: NodeId, f: VFuncId, em: &mut Vec<(OutputId, Pair)>) {
        let list = self.callees.entry(call).or_default();
        if list.contains(&f) {
            return;
        }
        list.push(f);
        self.callers.entry(f).or_default().push(call);
        let g = self.g;
        let mut buf: Vec<Pair> = Vec::new();
        // Push existing actual pairs to the new callee's formals.
        let n_inputs = g.node(call).inputs.len();
        for port in 1..n_inputs {
            self.collect_pairs(call, port, &mut buf, |_, _| true);
            for &p in &buf {
                forward_to_formal(g, &mut self.paths, port, p, f, em);
            }
        }
        // Pull existing return pairs to this call's results.
        for ri in 0..g.func(f).returns.len() {
            let ret = g.func(f).returns[ri];
            let n_ret_inputs = g.node(ret).inputs.len();
            for port in 0..n_ret_inputs {
                self.collect_pairs(ret, port, &mut buf, |_, _| true);
                for &p in &buf {
                    forward_to_caller(
                        g,
                        self.cfg.heap_naming,
                        &self.alloc_owner,
                        &mut self.paths,
                        call,
                        port,
                        p,
                        f,
                        em,
                    );
                }
            }
        }
    }
}

impl<'g> Slots<'g> for Solver<'g> {
    type Key = OutputId;

    fn worklist(&mut self) -> &mut Worklist<OutputId> {
        &mut self.wl
    }

    fn slot(&mut self, out: OutputId) -> Option<(&mut PairSet, &mut Worklist<OutputId>)> {
        // Demand mask: emissions to outputs outside the solved region
        // are dropped before they commit, so an inactive output's set
        // stays empty (not partial) until its slice is activated.
        if let Some(active) = &self.active {
            if !active[out.0 as usize] {
                return None;
            }
        }
        Some((&mut self.sets[out.0 as usize], &mut self.wl))
    }

    fn graph(&self) -> &'g Graph {
        self.g
    }

    fn consumers(&self, out: OutputId) -> &'g [InputId] {
        self.g.consumers(out)
    }

    fn transfer(
        &mut self,
        node: NodeId,
        port: usize,
        _: OutputId,
        pair: Pair,
        em: &mut Vec<(OutputId, Pair)>,
    ) {
        self.transfer_at(node, port, pair, em);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdg::build::{lower, BuildOptions};

    fn analyze(src: &str) -> (Graph, CiResult) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let r = analyze_ci(&g, &CiConfig::default());
        (g, r)
    }

    /// The referents at the sole indirect op, rendered as strings.
    fn indirect_ref_names(src: &str) -> Vec<Vec<String>> {
        let (g, r) = analyze(src);
        g.indirect_mem_ops()
            .iter()
            .map(|&(n, _)| {
                let mut v: Vec<String> = r
                    .loc_referents(&g, n)
                    .iter()
                    .map(|&p| r.paths.display(p, &g))
                    .collect();
                v.sort();
                v
            })
            .collect()
    }

    #[test]
    fn direct_pointer_resolves() {
        let refs = indirect_ref_names("int g; int main(void) { int *p; p = &g; return *p; }");
        assert_eq!(refs, vec![vec!["g".to_string()]]);
    }

    #[test]
    fn merge_yields_two_referents() {
        let refs = indirect_ref_names(
            "int a; int b;\n\
             int main(void) { int *p; int c; c = getchar();\n\
               if (c) { p = &a; } else { p = &b; }\n\
               return *p; }",
        );
        assert_eq!(refs, vec![vec!["a".to_string(), "b".to_string()]]);
    }

    #[test]
    fn strong_update_kills_previous_binding() {
        // p first points to a, then definitely to b: the read sees only b.
        let refs = indirect_ref_names(
            "int a; int b; int *p;\n\
             int main(void) { int **q; q = &p; p = &a; *q = &b; return *p; }",
        );
        // Two indirect ops: `*q = &b` (write through q) and `*p` (read).
        // The read must see only b thanks to the strong update through q
        // (q definitely points to p, p is strongly updateable).
        let read_refs = refs.last().expect("two ops");
        assert_eq!(read_refs, &vec!["b".to_string()]);
    }

    #[test]
    fn weak_update_on_array_keeps_both() {
        let refs = indirect_ref_names(
            "int a; int b; int *arr[4];\n\
             int main(void) { arr[0] = &a; arr[1] = &b; return *(arr[0]); }",
        );
        let read_refs = refs.last().expect("read op");
        assert_eq!(read_refs, &vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn null_only_pointer_has_no_referents() {
        let refs = indirect_ref_names("int main(void) { int *p; p = NULL; return *p; }");
        assert_eq!(refs, vec![Vec::<String>::new()]);
    }

    #[test]
    fn heap_allocation_sites_are_distinct() {
        let refs = indirect_ref_names(
            "int main(void) { int *p; int *q; \
             p = (int*)malloc(4); q = (int*)malloc(4); *p = 1; return *q; }",
        );
        assert_eq!(refs.len(), 2);
        assert_ne!(refs[0], refs[1]);
        assert_eq!(refs[0].len(), 1);
    }

    #[test]
    fn struct_fields_are_separate_paths() {
        let refs = indirect_ref_names(
            "struct s { int *x; int *y; };\n\
             int a; int b;\n\
             int main(void) { struct s v; int *r; v.x = &a; v.y = &b; \
             r = v.x; return *r; }",
        );
        assert_eq!(refs, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn linked_list_collapses_to_site() {
        let (g, r) = analyze(
            "struct node { int v; struct node *next; };\n\
             int main(void) {\n\
               struct node *h; struct node *n; int i; h = NULL;\n\
               for (i = 0; i < 3; i++) {\n\
                 n = (struct node*)malloc(sizeof(struct node));\n\
                 n->v = i; n->next = h; h = n;\n\
               }\n\
               while (h != NULL) { h = h->next; }\n\
               return 0;\n\
             }",
        );
        // Every indirect op references exactly the one heap site.
        for (node, _) in g.indirect_mem_ops() {
            let refs = r.loc_referents(&g, node);
            assert_eq!(refs.len(), 1, "op should see one heap site");
        }
    }

    #[test]
    fn interprocedural_flow_through_call() {
        let refs = indirect_ref_names(
            "int g;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *q; q = id(&g); return *q; }",
        );
        assert_eq!(refs, vec![vec!["g".to_string()]]);
    }

    #[test]
    fn out_parameter_flow() {
        let refs = indirect_ref_names(
            "int g;\n\
             void put(int **slot) { *slot = &g; }\n\
             int main(void) { int *p; put(&p); return *p; }",
        );
        // Two indirect ops: `*slot = &g`, `*p`.
        assert_eq!(refs.last().unwrap(), &vec!["g".to_string()]);
    }

    #[test]
    fn context_insensitive_merges_callers() {
        // The classic CI imprecision: both callers' values merge.
        let refs = indirect_ref_names(
            "int a; int b;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *x; int *y; x = id(&a); y = id(&b); \
             return *x + *y; }",
        );
        assert_eq!(refs[0], vec!["a".to_string(), "b".to_string()]);
        assert_eq!(refs[1], vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn function_pointers_resolve_indirect_calls() {
        let refs = indirect_ref_names(
            "int a; int b;\n\
             int *fa(void) { return &a; }\n\
             int *fb(void) { return &b; }\n\
             int main(void) { int *(*fp)(void); int c; c = getchar();\n\
               if (c) { fp = fa; } else { fp = fb; }\n\
               return *(fp()); }",
        );
        assert_eq!(refs, vec![vec!["a".to_string(), "b".to_string()]]);
    }

    #[test]
    fn call_graph_discovered() {
        let (g, r) = analyze(
            "int f(void) { return 1; }\n\
             int h(void) { return 2; }\n\
             int main(void) { int (*fp)(void); fp = f; return fp() + h(); }",
        );
        let mut callee_names: Vec<Vec<&str>> = r
            .callees
            .values()
            .map(|fs| fs.iter().map(|f| g.func(*f).name.as_str()).collect())
            .collect();
        callee_names.iter_mut().for_each(|v| v.sort());
        callee_names.sort();
        assert_eq!(callee_names, vec![vec!["f"], vec!["h"], vec!["main"]]);
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let refs = indirect_ref_names(
            "int g;\n\
             int *walk(int n, int *p) { if (n == 0) return p; return walk(n - 1, p); }\n\
             int main(void) { int *q; q = walk(5, &g); return *q; }",
        );
        assert_eq!(refs, vec![vec!["g".to_string()]]);
    }

    #[test]
    fn global_initializers_seed_the_store() {
        let refs = indirect_ref_names(
            "int x; int *gp = &x;\n\
             int main(void) { return *gp; }",
        );
        assert_eq!(refs, vec![vec!["x".to_string()]]);
    }

    #[test]
    fn aggregate_copy_transfers_pointers() {
        let refs = indirect_ref_names(
            "struct s { int *p; };\n\
             int a;\n\
             int main(void) { struct s u; struct s w; u.p = &a; w = u; return *(w.p); }",
        );
        assert_eq!(refs, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn memcpy_reroots_pointers() {
        let refs = indirect_ref_names(
            "struct s { int *p; };\n\
             int a;\n\
             int main(void) { struct s u; struct s w; u.p = &a;\n\
               memcpy(&w, &u, sizeof(struct s));\n\
               return *(w.p); }",
        );
        assert_eq!(refs.last().unwrap(), &vec!["a".to_string()]);
    }

    #[test]
    fn union_members_alias() {
        let refs = indirect_ref_names(
            "union u { int *p; int *q; };\n\
             int a;\n\
             int main(void) { union u v; int *r; v.p = &a; r = v.q; return *r; }",
        );
        assert_eq!(refs, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn scalar_outputs_carry_no_pairs() {
        let (g, r) = analyze("int g; int main(void) { int *p; p = &g; return *p + 3; }");
        for o in g.output_ids() {
            if matches!(g.output(o).kind, vdg::graph::ValueKind::Scalar) {
                assert!(r.pairs(o).is_empty(), "scalar output {o} has pairs");
            }
        }
    }

    #[test]
    fn fifo_and_lifo_agree() {
        let src = "struct node { int v; struct node *next; };\n\
             struct node *cons(int v, struct node *t) {\n\
               struct node *n; n = (struct node*)malloc(sizeof(struct node));\n\
               n->v = v; n->next = t; return n; }\n\
             int main(void) { struct node *l; l = cons(1, cons(2, NULL));\n\
               while (l != NULL) { l = l->next; } return 0; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let fifo = analyze_ci(&g, &CiConfig::default());
        let lifo = analyze_ci(
            &g,
            &CiConfig {
                order: WorklistOrder::Lifo,
                ..CiConfig::default()
            },
        );
        // Canonicalization at finish renumbers PathIds structurally, so
        // two schedules agree *numerically*, not just up to rendering.
        for o in g.output_ids() {
            assert_eq!(fifo.pairs(o), lifo.pairs(o), "output {o} differs");
        }
        assert_eq!(fifo.flow_ins, lifo.flow_ins);
        assert_eq!(fifo.flow_outs, lifo.flow_outs);
    }

    #[test]
    fn naive_and_delta_agree() {
        // The seed single-delivery discipline and difference propagation
        // reach the same fixpoint with identical scheduling-independent
        // counters — and, thanks to canonical path numbering, identical
        // raw results.
        let src = "struct node { int v; struct node *next; };\n\
             struct node *cons(int v, struct node *t) {\n\
               struct node *n; n = (struct node*)malloc(sizeof(struct node));\n\
               n->v = v; n->next = t; return n; }\n\
             int *pick(int *a, int *b, int c) { if (c) return a; return b; }\n\
             int g0; int g1;\n\
             int main(void) { struct node *l; int *p; l = cons(1, cons(2, NULL));\n\
               p = pick(&g0, &g1, getchar());\n\
               while (l != NULL) { l = l->next; } return *p; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let naive = analyze_ci(
            &g,
            &CiConfig {
                propagation: Propagation::Naive,
                ..CiConfig::default()
            },
        );
        let delta = analyze_ci(&g, &CiConfig::default());
        for o in g.output_ids() {
            assert_eq!(naive.pairs(o), delta.pairs(o), "output {o} differs");
        }
        assert_eq!(naive.flow_ins, delta.flow_ins);
        assert_eq!(naive.flow_outs, delta.flow_outs);
        assert_eq!(naive.callees, delta.callees);
        assert_eq!(naive.delta_batches, None);
        let batches = delta.delta_batches.expect("delta mode reports batches");
        assert!(
            batches <= delta.flow_ins,
            "batches cannot exceed deliveries"
        );
        assert!(batches > 0);
    }

    #[test]
    fn disabling_strong_updates_is_sound_but_weaker() {
        let src = "int a; int b; int *p;\n\
             int main(void) { int **q; q = &p; p = &a; *q = &b; return *p; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let strong = analyze_ci(&g, &CiConfig::default());
        let weak = analyze_ci(
            &g,
            &CiConfig {
                strong_updates: false,
                ..CiConfig::default()
            },
        );
        // Strong ⊆ weak on every output. (Both tables are canonical over
        // different universes, so compare rendered pairs.)
        let render = |r: &CiResult, pr: &Pair| {
            (
                r.paths.display(pr.path, &g),
                r.paths.display(pr.referent, &g),
            )
        };
        for o in g.output_ids() {
            let ws: crate::fxhash::HashSet<(String, String)> =
                weak.pairs(o).iter().map(|pr| render(&weak, pr)).collect();
            for pr in strong.pairs(o) {
                assert!(
                    ws.contains(&render(&strong, pr)),
                    "strong found pair weak missed"
                );
            }
        }
        // And the read is strictly more precise with strong updates.
        let read = g
            .indirect_mem_ops()
            .into_iter()
            .find(|&(n, w)| !w && matches!(g.node(n).kind, NodeKind::Lookup { .. }))
            .map(|(n, _)| n)
            .unwrap();
        assert_eq!(strong.loc_referents(&g, read).len(), 1);
        assert_eq!(weak.loc_referents(&g, read).len(), 2);
    }

    #[test]
    fn cooper_and_weak_schemes_agree_without_downward_escape() {
        // Matches the paper's observation that the scheme choice is
        // irrelevant for programs that do not pass addresses of local
        // pointer variables down recursive calls.
        let src = "int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }\n\
             int g; int main(void) { int *p; p = &g; return *p + fact(3); }";
        let p = cfront::compile(src).unwrap();
        let g_weak = lower(&p, &BuildOptions::default()).unwrap();
        let g_cooper = lower(
            &p,
            &BuildOptions {
                rec_local_scheme: vdg::RecLocalScheme::Cooper,
            },
        )
        .unwrap();
        let rw = analyze_ci(&g_weak, &CiConfig::default());
        let rc = analyze_ci(&g_cooper, &CiConfig::default());
        let iw = g_weak.indirect_mem_ops();
        let ic = g_cooper.indirect_mem_ops();
        assert_eq!(iw.len(), ic.len());
        for (&(nw, _), &(nc, _)) in iw.iter().zip(ic.iter()) {
            assert_eq!(
                rw.loc_referents(&g_weak, nw).len(),
                rc.loc_referents(&g_cooper, nc).len()
            );
        }
    }

    #[test]
    fn callstring_heap_naming_splits_allocation_sites() {
        let src = "struct node { int v; struct node *next; };\n\
             struct node *mk(int v) { struct node *n;\n\
               n = (struct node*)malloc(sizeof(struct node));\n\
               n->v = v; n->next = NULL; return n; }\n\
             int main(void) { struct node *a; struct node *b;\n\
               a = mk(1); b = mk(2); return a->v + b->v; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let site = analyze_ci(&g, &CiConfig::default());
        let k1 = analyze_ci(
            &g,
            &CiConfig {
                heap_naming: HeapNaming::CallString1,
                ..CiConfig::default()
            },
        );
        // The two reads in main reference the same site base under
        // site naming but per-caller clones under k=1 naming.
        let reads: Vec<_> = g
            .indirect_mem_ops()
            .into_iter()
            .filter(|&(_n, w)| !w)
            .map(|(n, _)| n)
            .collect();
        let main_reads: Vec<_> = reads
            .iter()
            .copied()
            .filter(|&n| {
                let owner = crate::modref::node_owner_map(&g)[n.0 as usize];
                g.func(owner).name == "main"
            })
            .collect();
        assert_eq!(main_reads.len(), 2);
        let site_refs: Vec<Vec<String>> = main_reads
            .iter()
            .map(|&n| {
                site.loc_referents(&g, n)
                    .iter()
                    .map(|&p| site.paths.display(p, &g))
                    .collect()
            })
            .collect();
        assert_eq!(site_refs[0], site_refs[1], "site naming merges callers");
        let k1_refs: Vec<Vec<String>> = main_reads
            .iter()
            .map(|&n| {
                k1.loc_referents(&g, n)
                    .iter()
                    .map(|&p| k1.paths.display(p, &g))
                    .collect()
            })
            .collect();
        assert_ne!(k1_refs[0], k1_refs[1], "k=1 naming splits callers");
        assert_eq!(k1_refs[0].len(), 1);
        assert!(k1_refs[0][0].contains("@call"), "{:?}", k1_refs[0]);
        // Collapsing the clones recovers a subset of the site solution.
        // (Compare by rendered content: the two runs canonicalize over
        // different path universes.)
        let mut k1_paths = k1.paths.clone();
        for o in g.output_ids() {
            let site_set: crate::fxhash::HashSet<(String, String)> = site
                .pairs(o)
                .iter()
                .map(|p| {
                    (
                        site.paths.display(p.path, &g),
                        site.paths.display(p.referent, &g),
                    )
                })
                .collect();
            for pr in k1.pairs(o) {
                let collapsed = (
                    {
                        let c = k1_paths.collapse_synthetic(pr.path);
                        k1_paths.display(c, &g)
                    },
                    {
                        let c = k1_paths.collapse_synthetic(pr.referent);
                        k1_paths.display(c, &g)
                    },
                );
                assert!(
                    site_set.contains(&collapsed),
                    "collapsed k=1 pair escaped the site solution at {o}: {collapsed:?}"
                );
            }
        }
    }

    #[test]
    fn op_counters_advance() {
        let (_, r) = analyze("int g; int main(void) { int *p; p = &g; return *p; }");
        assert!(r.flow_ins > 0);
        assert!(r.flow_outs > 0);
        // flow_outs now counts only successful meets; attempts that were
        // deduplicated are reported separately.
        assert_eq!(r.flow_outs, r.total_pairs() as u64);
    }

    #[test]
    fn same_fixpoint_sees_one_pair_callee_or_path_entry() {
        use crate::solver::same_fixpoint;
        let (g, r) = analyze(
            "struct s { int *p; };\n\
             int a; int b;\n\
             int *fa(void) { return &a; }\n\
             int main(void) { struct s u; int *(*fp)(void); fp = fa; u.p = fp(); \
             u.p = &b; return *(u.p); }",
        );
        assert!(same_fixpoint(&g, &r, &r.clone()));

        let mut pair = r.clone();
        let (o, extra) = g
            .output_ids()
            .find_map(|o| r.pairs(o).first().map(|&p| (o, p)))
            .expect("some output carries a pair");
        pair.pairs[o.0 as usize].push(Pair::new(extra.referent, extra.path));
        assert!(!same_fixpoint(&g, &r, &pair), "one extra pair");

        let mut callee = r.clone();
        let fs = callee.callees.values_mut().next().expect("a call");
        fs.push(fs[0]);
        assert!(!same_fixpoint(&g, &r, &callee), "one extra callee");

        // Same pair ids, but one more interned path: the ids no longer
        // index the same table.
        let mut path = r.clone();
        let root = path.paths.base_root(g.base_ids().next().expect("a base"));
        let (n, mut p) = (path.paths.len(), root);
        while path.paths.len() == n {
            p = path.paths.child(p, AccessOp::Index);
        }
        assert!(!same_fixpoint(&g, &r, &path), "one extra path entry");
    }

    /// What a cached CI run does with an edited program, at the solver
    /// level. The graph fingerprint decides: unchanged, the solution of
    /// `src_a` replays and must be exactly the solution of `src_b`;
    /// changed, `src_b` is solved fresh. The per-function fingerprints
    /// must change for exactly `want_changed` (functions of `src_b`
    /// whose fingerprint differs from the same-named function's in
    /// `src_a`, or that `src_a` lacks). Returns every distinct
    /// `path -> referent` fact of the two solutions, rendered and
    /// sorted, for the scenario's own checks.
    fn check_resume(src_a: &str, src_b: &str, want_changed: &[&str]) -> [Vec<String>; 2] {
        use crate::fingerprint::GraphIndex;
        use crate::solver::solution_dump;
        let (ga, ra) = analyze(src_a);
        let (gb, rb) = analyze(src_b);
        let (ia, ib) = (GraphIndex::build(&ga), GraphIndex::build(&gb));
        assert_eq!((&ia.unsafe_reason, &ib.unsafe_reason), (&None, &None));
        let mut changed: Vec<&str> = gb
            .func_ids()
            .filter(|&f| {
                let name = &gb.func(f).name;
                let before = ga.func_ids().find(|&g| &ga.func(g).name == name);
                before.is_none_or(|g| ia.func_fps[g.0 as usize] != ib.func_fps[f.0 as usize])
            })
            .map(|f| gb.func(f).name.as_str())
            .collect();
        changed.sort_unstable();
        assert_eq!(changed, want_changed, "functions the edit changed");
        let replays = ia.graph_fp == ib.graph_fp;
        assert_eq!(
            replays,
            src_a == src_b,
            "the graph fingerprint sees every edit here"
        );
        if replays {
            assert_eq!(
                solution_dump(&ra, &ga),
                solution_dump(&rb, &gb),
                "replay is exact"
            );
        }
        let facts = |g: &Graph, r: &CiResult| {
            let mut v: Vec<String> = g
                .output_ids()
                .flat_map(|o| r.pairs(o).iter())
                .map(|p| {
                    format!(
                        "{} -> {}",
                        r.paths.display(p.path, g),
                        r.paths.display(p.referent, g)
                    )
                })
                .collect();
            v.sort();
            v.dedup();
            v
        };
        [facts(&ga, &ra), facts(&gb, &rb)]
    }

    #[test]
    fn resume_after_editing_one_function_matches_fresh() {
        let a = "int g1; int g2; int *gp;\n\
             int *id(int *p) { return p; }\n\
             void setg(int x) { if (x) { gp = &g1; } }\n\
             int main(void) { int l; int *q; q = id(&l); setg(1); *q = 3; *gp = 4; return 0; }";
        let b = "int g1; int g2; int *gp;\n\
             int *id(int *p) { return p; }\n\
             void setg(int x) { if (x) { gp = &g2; } }\n\
             int main(void) { int l; int *q; q = id(&l); setg(1); *q = 3; *gp = 4; return 0; }";
        let [fa, fb] = check_resume(a, b, &["setg"]);
        let has = |facts: &[String], f: &str| facts.iter().any(|x| x == f);
        // A stale replay would keep `gp -> g1`.
        assert!(has(&fa, "gp -> g1") && !has(&fa, "gp -> g2"));
        assert!(has(&fb, "gp -> g2") && !has(&fb, "gp -> g1"));
    }

    #[test]
    fn resume_after_editing_caller_of_pointer_returning_callee() {
        let a = "int g1; int g2;\n\
             int *pick(int c) { if (c) { return &g1; } return &g2; }\n\
             int main(void) { int *p; p = pick(0); *p = 1; return 0; }";
        let b = "int g1; int g2;\n\
             int *pick(int c) { if (c) { return &g1; } return &g2; }\n\
             int main(void) { int *p; int x; x = 5; p = pick(x); *p = 1; return 0; }";
        // The edited function is the *caller*; the unchanged callee's
        // facts must still flow into it.
        let [fa, fb] = check_resume(a, b, &["main"]);
        assert_eq!(fa, fb);
        assert_eq!(indirect_ref_names(b), vec![vec!["g1", "g2"]]);
    }

    #[test]
    fn resume_with_identical_sources_reuses_everything() {
        let a = "int g; int main(void) { int *p; p = &g; return *p; }";
        let [fa, fb] = check_resume(a, a, &[]);
        assert_eq!(fa, fb);
    }

    #[test]
    fn resume_with_indirect_calls_matches_fresh() {
        let a = "int g1; int g2;\n\
             void f1(void) { g1 = 1; }\n\
             void f2(void) { g2 = 2; }\n\
             int main(void) { void (*fp)(void); int c; c = getchar();\n\
               if (c) { fp = f1; } else { fp = f2; } fp(); return 0; }";
        let b = "int g1; int g2;\n\
             void f1(void) { g1 = 7; g2 = 8; }\n\
             void f2(void) { g2 = 2; }\n\
             int main(void) { void (*fp)(void); int c; c = getchar();\n\
               if (c) { fp = f1; } else { fp = f2; } fp(); return 0; }";
        // `g1 = 7` alone would change nothing: scalar constants carry no
        // payload in the VDG, so the graphs would be identical and a
        // replay the correct outcome. The added statement changes `f1`.
        let [fa, fb] = check_resume(a, b, &["f1"]);
        assert_eq!(fa, fb, "the edit changes no pointer fact");
        let (g, r) = analyze(b);
        let mut callees: Vec<Vec<&str>> = r
            .callees
            .values()
            .map(|fs| fs.iter().map(|&f| g.func(f).name.as_str()).collect())
            .collect();
        callees.sort();
        assert!(callees.contains(&vec!["f1", "f2"]), "{callees:?}");
    }

    #[test]
    fn resume_after_deleting_a_call_site_shrinks_the_callee() {
        let a = "int g1; int g2; int *gp;
             void store(int *p) { gp = p; }
             int main(void) { store(&g1); store(&g2); return 0; }";
        let b = "int g1; int g2; int *gp;
             void store(int *p) { gp = p; }
             int main(void) { store(&g1); return 0; }";
        // `store`'s facts depend on its actuals. Deleting one call site
        // changes only `main`'s fingerprint, yet `store`'s facts shrink:
        // a replay of the old solution would keep `gp -> g2` alive.
        let [fa, fb] = check_resume(a, b, &["main"]);
        let has = |facts: &[String], f: &str| facts.iter().any(|x| x == f);
        assert!(has(&fa, "gp -> g1") && has(&fa, "gp -> g2"));
        assert!(has(&fb, "gp -> g1") && !has(&fb, "gp -> g2"), "{fb:?}");
    }

    #[test]
    fn resume_after_deleting_a_function_invalidates_its_callees() {
        let a = "int g1; int g2; int *gp;
             void store(int *p) { gp = p; }
             void extra(void) { store(&g2); }
             int main(void) { store(&g1); extra(); return 0; }";
        let b = "int g1; int g2; int *gp;
             void store(int *p) { gp = p; }
             int main(void) { store(&g1); return 0; }";
        // The deleted function's call gated `store`'s `gp -> g2`; with
        // it gone, only `main` changes fingerprint and the fact goes.
        let [fa, fb] = check_resume(a, b, &["main"]);
        let has = |facts: &[String], f: &str| facts.iter().any(|x| x == f);
        assert!(has(&fa, "gp -> g1") && has(&fa, "gp -> g2"));
        assert!(has(&fb, "gp -> g1") && !has(&fb, "gp -> g2"), "{fb:?}");
        assert!(!has(&fb, "ε -> fn:extra"));
    }

    #[test]
    fn resume_keeps_literal_facts_local_to_the_edited_function() {
        let a = "char *gb;\n\
             void seta(void) { char *p; p = \"one\"; p = \"two\"; }\n\
             void setb(void) { gb = \"three\"; }\n\
             int main(void) { seta(); setb(); return 0; }";
        let b = "char *gb;\n\
             void seta(void) { char *p; p = \"two\"; }\n\
             void setb(void) { gb = \"three\"; }\n\
             int main(void) { seta(); setb(); return 0; }";
        // Deleting a statement that contains a string literal shifts
        // the program-wide literal numbering (`"three"` goes from
        // `str#2` to `str#1`). The per-function literal keys keep the
        // edit local: only the edited function's fingerprint changes.
        let [fa, fb] = check_resume(a, b, &["seta"]);
        let gb_facts = |facts: &[String]| -> Vec<String> {
            facts
                .iter()
                .filter(|f| f.starts_with("gb -> "))
                .cloned()
                .collect()
        };
        assert_eq!(gb_facts(&fa), ["gb -> str#2[*]"]);
        assert_eq!(gb_facts(&fb), ["gb -> str#1[*]"]);
        assert!(
            !fb.iter().any(|f| f.contains("str#2")),
            "the deleted literal is gone"
        );
    }

    #[test]
    fn resume_after_deleting_a_function_matches_fresh() {
        let a = "int g; int *gp;\n\
             void seta(void) { gp = &g; }\n\
             void noop(void) { }\n\
             int main(void) { seta(); noop(); *gp = 1; return 0; }";
        let b = "int g; int *gp;\n\
             void seta(void) { gp = &g; }\n\
             int main(void) { seta(); *gp = 1; return 0; }";
        let [fa, fb] = check_resume(a, b, &["main"]);
        assert!(fa.iter().any(|f| f == "ε -> fn:noop"));
        assert!(!fb.iter().any(|f| f == "ε -> fn:noop"));
        assert_eq!(indirect_ref_names(b), vec![vec!["g"]]);
    }
}
