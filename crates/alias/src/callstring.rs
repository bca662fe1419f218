//! A k=1 *call-string* context-sensitive baseline.
//!
//! The paper (§4.1) contrasts two ways to make an analysis
//! context-sensitive: tagging dataflow facts with an abstraction of the
//! call stack (Cooper; Choi, Burke & Carini) versus the assumption sets
//! it adopts. This module implements the call-stack flavor at depth
//! k = 1: every points-to fact is qualified by the immediate call site
//! of the procedure it lives in, return values flow only to their
//! originating site, and deeper context is merged — the "k-limiting"
//! Deutsch's PLDI 1994 title pushes beyond.
//!
//! Precision relative to the paper's two analyses:
//!
//! ```text
//! CI (Fig. 1) ⊒ k=1 call-strings
//! ```
//!
//! and at *call results* the assumption-set analysis is at least as
//! precise as k=1 (it tracks arbitrarily deep context; see the
//! two-level wrapper test below, where k=1 merges and assumption sets
//! do not). The full stripped per-output solutions of the two
//! context-sensitive analyses are, however, formally incomparable: the
//! assumption-set analysis chains pairs that arrived from *different*
//! contexts through a procedure's lookups and updates — qualifying the
//! result with an assumption set no single call site satisfies — while
//! the call-string partition never combines them in the first place.
//! Such unsatisfiably-qualified pairs survive stripping inside the
//! procedure even though they are filtered at every return.
//!
//! It runs on the worklist driver shared with CI and Weihl
//! (`worklist.rs`); its slots are (output, context) pairs. Like the
//! other four solvers it analyzes every procedure, but the root context
//! is lazy: the solve starts from `<root>` alone, and only a procedure
//! that no call reaches at the fixpoint is then activated under the
//! root, with ⊥ formals. A procedure some call reaches would gain
//! nothing from it: its root-context facts are a subset of any call
//! context's (`K1::solve`).

use crate::ci::WorklistOrder;
use crate::cs::span;
use crate::fxhash::{HashMap, HashSet};
use crate::pairset::{PairId, PairSet, Propagation};
use crate::path::{AccessOp, Pair, PathId, PathTable};
use crate::worklist::{self, Slots, Worklist};
use std::cell::Cell;
use vdg::graph::{Graph, InputId, NodeId, NodeKind, OutputId, VFuncId};

/// A length-1 call string: the immediate call site, or the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ctx(u32);

impl Ctx {
    const ROOT: Ctx = Ctx(0);

    fn of_call(call: NodeId) -> Ctx {
        Ctx(call.0 + 1)
    }
}

/// Per-output `context -> pairs` map. An output sees only the k=1
/// contexts of its owner's call sites — a handful — so a vector stands
/// in for a hash map. The driver hands a whole batch of one slot to a
/// consumer, and the transfer emits and reads side inputs under that
/// slot's context, so consecutive lookups mostly repeat a context: each
/// map remembers the index of its last hit and tries it first, and only
/// a miss scans.
#[derive(Debug, Clone, Default)]
struct CtxSlots {
    slots: Vec<(Ctx, PairSet)>,
    last: Cell<usize>,
}

impl CtxSlots {
    fn find(&self, ctx: Ctx) -> Option<usize> {
        let hint = self.last.get();
        if self.slots.get(hint).is_some_and(|(c, _)| *c == ctx) {
            return Some(hint);
        }
        let i = self.slots.iter().position(|(c, _)| *c == ctx)?;
        self.last.set(i);
        Some(i)
    }

    fn get(&self, ctx: Ctx) -> Option<&PairSet> {
        self.find(ctx).map(|i| &self.slots[i].1)
    }

    /// Find-or-insert the set for `ctx`.
    fn slot(&mut self, ctx: Ctx) -> &mut PairSet {
        let i = self.find(ctx).unwrap_or_else(|| {
            self.slots.push((ctx, PairSet::default()));
            self.slots.len() - 1
        });
        self.last.set(i);
        &mut self.slots[i].1
    }

    /// The contexts holding at least one pair, with their sets.
    fn iter(&self) -> impl Iterator<Item = (Ctx, &PairSet)> {
        self.slots
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(c, s)| (*c, s))
    }
}

/// Configuration (the step budget mirrors the CS solver's).
#[derive(Debug, Clone)]
pub struct CallStringConfig {
    /// Perform strong updates (as the paper's solvers do).
    pub strong_updates: bool,
    /// Abort once the fixpoint needs more than this many transfer
    /// applications.
    pub max_steps: u64,
    /// Propagation discipline (results are discipline-independent).
    pub propagation: Propagation,
}

impl Default for CallStringConfig {
    fn default() -> Self {
        CallStringConfig {
            strong_updates: true,
            max_steps: 200_000_000,
            propagation: Propagation::Delta,
        }
    }
}

/// Result of the k=1 analysis, stripped of contexts.
///
/// Flat, like [`crate::cs::CsResult`]: one pair arena per view, each
/// indexed by a start-offset table. The path table is canonical over
/// the starting table's paths plus every path the result uses (see
/// [`PathTable::canonicalize`]), so the ids do not depend on the
/// schedule, and a run that starts from CI's table keeps CI's ids.
#[derive(Debug, Clone)]
pub struct CallStringResult {
    /// The interned path universe.
    pub paths: PathTable,
    /// Context-stripped pairs, sorted per output: output `o` holds
    /// `pairs[pair_start[o]..pair_start[o + 1]]`.
    pairs: Vec<Pair>,
    pair_start: Vec<usize>,
    /// Transfer-function applications.
    pub flow_ins: u64,
    /// Successful meets; redundant emission attempts are counted in
    /// [`CallStringResult::dedup_hits`].
    pub flow_outs: u64,
    /// Emission attempts deduplicated by the committed sets.
    pub dedup_hits: u64,
    /// Batched delta deliveries (`None` under [`Propagation::Naive`]).
    pub delta_batches: Option<u64>,
    /// Number of (function, context) pairs analyzed; a function has the
    /// root context only if no call reaches it.
    pub contexts: usize,
}

impl CallStringResult {
    /// The context-stripped pairs on an output, sorted.
    pub fn pairs(&self, o: OutputId) -> &[Pair] {
        &self.pairs[span(&self.pair_start, o.0 as usize)]
    }

    /// Total stripped pairs.
    pub fn total_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Distinct referents at a memory operation's location input.
    pub fn loc_referents(&self, graph: &Graph, node: NodeId) -> Vec<PathId> {
        let loc_out = graph.input_src(node, 0);
        let mut refs: Vec<PathId> = self.pairs(loc_out).iter().map(|p| p.referent).collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }
}

impl crate::stats::PointsToSolution for CallStringResult {
    fn pairs_at(&self, o: OutputId) -> &[Pair] {
        self.pairs(o)
    }
    fn path_table(&self) -> &PathTable {
        &self.paths
    }
}

/// Runs the k=1 call-string analysis.
///
/// # Errors
///
/// Returns [`crate::cs::StepLimitExceeded`] when the fixpoint needs
/// more than [`CallStringConfig::max_steps`] deliveries. The driver
/// checks the budget before each worklist pop, so under the delta
/// discipline the solve stops at most one batch past the budget.
pub fn analyze_callstring(
    graph: &Graph,
    config: &CallStringConfig,
) -> Result<CallStringResult, crate::cs::StepLimitExceeded> {
    analyze_callstring_from(graph, PathTable::for_graph(graph), config)
}

/// Like [`analyze_callstring`], but starting from an existing path table
/// so the resulting [`Pair`]s are id-comparable with another solver's.
pub fn analyze_callstring_from(
    graph: &Graph,
    paths: PathTable,
    config: &CallStringConfig,
) -> Result<CallStringResult, crate::cs::StepLimitExceeded> {
    let mut s = K1::new(graph, paths, config);
    s.solve();
    if s.wl.exhausted() || s.wl.counters.flow_ins > config.max_steps {
        return Err(crate::cs::StepLimitExceeded {
            steps: config.max_steps,
        });
    }
    Ok(s.finish())
}

/// Per function, the nodes [`K1::activate`] visits — constants to seed
/// and call sites to mark — in id order, as a start-offset table:
/// function `f`'s are `nodes[start[f]..start[f + 1]]`.
fn activation_index(g: &Graph) -> (Vec<NodeId>, Vec<usize>) {
    let owner = vdg::display::owner_map(g);
    let mut nodes: Vec<NodeId> = g
        .nodes()
        .filter(|(_, n)| {
            matches!(
                n.kind,
                NodeKind::Base(_) | NodeKind::Alloc(_) | NodeKind::FuncConst(_) | NodeKind::Call
            )
        })
        .map(|(id, _)| id)
        .collect();
    // Stable: id order within each function.
    nodes.sort_by_key(|id| owner[id.0 as usize].0);
    let mut start = vec![0; g.func_count() + 1];
    for id in &nodes {
        start[owner[id.0 as usize].0 as usize + 1] += 1;
    }
    for f in 0..g.func_count() {
        start[f + 1] += start[f];
    }
    (nodes, start)
}

struct K1<'g> {
    g: &'g Graph,
    cfg: CallStringConfig,
    paths: PathTable,
    /// Length of the starting path table; `finish` keeps these paths.
    start_paths: usize,
    /// The driver state, over (output, context) slots.
    wl: Worklist<(OutputId, Ctx)>,
    /// Per output: context -> pairs.
    p: Vec<CtxSlots>,
    /// See [`activation_index`].
    act_nodes: Vec<NodeId>,
    act_start: Vec<usize>,
    /// Contexts under which each function has been activated.
    active: HashMap<VFuncId, HashSet<Ctx>>,
    /// Caller contexts observed at each call node (for k=1 returns).
    call_ctxs: HashMap<NodeId, HashSet<Ctx>>,
    callees: HashMap<NodeId, Vec<VFuncId>>,
    callers: HashMap<VFuncId, Vec<NodeId>>,
}

impl<'g> K1<'g> {
    fn new(g: &'g Graph, paths: PathTable, cfg: &CallStringConfig) -> Self {
        let (act_nodes, act_start) = activation_index(g);
        let mut wl = Worklist::new(cfg.propagation, WorklistOrder::Fifo);
        wl.step_limit = cfg.max_steps;
        K1 {
            g,
            cfg: cfg.clone(),
            start_paths: paths.len(),
            paths,
            wl,
            p: vec![CtxSlots::default(); g.output_count()],
            act_nodes,
            act_start,
            active: HashMap::default(),
            call_ctxs: HashMap::default(),
            callees: HashMap::default(),
            callers: HashMap::default(),
        }
    }

    /// Solves from `<root>`, then from each function no call reaches.
    ///
    /// A function some call reaches needs no root context. Under the
    /// root its formals and entry store are ⊥, while its other inputs —
    /// its constants and the returns of its callees, which flow to
    /// every caller context of a call — are the same as under a call
    /// context. The transfers are monotone, so its root-context facts
    /// are a subset of the call context's, and stripping unions the
    /// contexts anyway. So only a function still idle at a fixpoint is
    /// activated under the root (with ⊥ formals, matching the other
    /// four solvers' whole-graph behavior), one at a time with a
    /// fixpoint after each, since its calls may reach other idle
    /// functions. The last-defined function goes first: C defines a
    /// callee before its callers, so an uncalled caller hands its
    /// callees their call contexts before they are tried.
    fn solve(&mut self) {
        let g = self.g;
        self.activate(g.root(), Ctx::ROOT);
        worklist::run(self);
        for f in (0..g.func_count() as u32).rev().map(VFuncId) {
            if self.active.contains_key(&f) {
                continue;
            }
            if self.wl.exhausted() {
                return;
            }
            self.activate(f, Ctx::ROOT);
            worklist::run(self);
        }
    }

    /// First entry of `f` under `ctx`: seed its constant nodes there and
    /// mark every call site it owns as reachable under `ctx` (so callee
    /// returns flow back even when no actual ever carries a pair — e.g.
    /// a call made while the store is still empty).
    fn activate(&mut self, f: VFuncId, ctx: Ctx) {
        if !self.active.entry(f).or_default().insert(ctx) {
            return;
        }
        let g = self.g;
        let owned = span(&self.act_start, f.0 as usize);
        for i in owned.clone() {
            let n = g.node(self.act_nodes[i]);
            if let NodeKind::Base(b) | NodeKind::Alloc(b) | NodeKind::FuncConst(b) = n.kind {
                let root = self.paths.base_root(b);
                worklist::commit(self, (n.outputs[0], ctx), Pair::new(PathTable::EMPTY, root));
            }
        }
        let mut em = Vec::new();
        for i in owned {
            let id = self.act_nodes[i];
            if matches!(g.node(id).kind, NodeKind::Call) {
                self.note_caller_ctx(id, ctx, &mut em);
            }
        }
        for (key, p) in em {
            worklist::commit(self, key, p);
        }
    }

    fn finish(self) -> CallStringResult {
        let K1 {
            paths,
            start_paths,
            wl,
            p,
            active,
            ..
        } = self;
        let contexts = active.values().map(|c| c.len()).sum();
        let n_outputs = p.len();
        // The stripped view: an output's pairs are its contexts' committed
        // pairs, deduplicated by id (one bitmap over the interner, cleared
        // after each output) before anything is resolved.
        let committed: usize = p.iter().flat_map(|m| m.iter()).map(|(_, s)| s.len()).sum();
        let mut pairs = Vec::with_capacity(committed);
        let mut pair_start = Vec::with_capacity(n_outputs + 1);
        pair_start.push(0);
        let mut seen = vec![0u64; wl.interner.len().div_ceil(64)];
        let mut ids: Vec<PairId> = Vec::new();
        for m in &p {
            for id in m.iter().flat_map(|(_, set)| set.iter()) {
                let (w, bit) = (id.0 as usize / 64, 1u64 << (id.0 % 64));
                if seen[w] & bit == 0 {
                    seen[w] |= bit;
                    ids.push(id);
                }
            }
            for id in ids.drain(..) {
                seen[id.0 as usize / 64] &= !(1u64 << (id.0 % 64));
                pairs.push(wl.interner.resolve(id));
            }
            pair_start.push(pairs.len());
        }
        drop((p, seen, ids));
        let c = wl.counters;
        let delta_batches = wl.delta_batches();
        drop(wl);
        // Canonical ids over the starting table plus the used paths, so
        // they do not depend on the order this schedule interned paths in.
        let mut used = vec![false; paths.len()];
        used[..start_paths].fill(true);
        for pr in &pairs {
            used[pr.path.0 as usize] = true;
            used[pr.referent.0 as usize] = true;
        }
        let (paths, remap) = paths.canonicalize(&used);
        let at = |p: PathId| PathId(remap[p.0 as usize]);
        for pr in &mut pairs {
            *pr = Pair::new(at(pr.path), at(pr.referent));
        }
        // The renumbering is injective, so the pairs stay distinct.
        for o in 0..n_outputs {
            pairs[span(&pair_start, o)].sort_unstable();
        }
        pairs.shrink_to_fit();
        CallStringResult {
            paths,
            pairs,
            pair_start,
            flow_ins: c.flow_ins,
            flow_outs: c.flow_outs,
            dedup_hits: c.dedup_hits,
            delta_batches,
            contexts,
        }
    }

    fn transfer_at(
        &mut self,
        node: NodeId,
        port: usize,
        ctx: Ctx,
        pair: Pair,
        em: &mut Vec<((OutputId, Ctx), Pair)>,
    ) {
        let g = self.g;
        let n = g.node(node);
        let outs = &n.outputs;
        // Side inputs are read in place: no transfer writes a slot (its
        // emissions are committed after it returns).
        let (slots, it) = (&self.p, &self.wl.interner);
        let side = move |port: usize| {
            slots[g.input_src(node, port).0 as usize]
                .get(ctx)
                .into_iter()
                .flat_map(PairSet::iter)
                .map(move |id| it.resolve(id))
        };
        match &n.kind {
            NodeKind::Member(f) => {
                let r = self.paths.child(pair.referent, AccessOp::Field(*f));
                em.push(((outs[0], ctx), Pair::new(pair.path, r)));
            }
            NodeKind::IndexElem => {
                let r = self.paths.child(pair.referent, AccessOp::Index);
                em.push(((outs[0], ctx), Pair::new(pair.path, r)));
            }
            NodeKind::ExtractField(f) => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Field(*f)) {
                    em.push(((outs[0], ctx), Pair::new(p, pair.referent)));
                }
            }
            NodeKind::ExtractElem => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Index) {
                    em.push(((outs[0], ctx), Pair::new(p, pair.referent)));
                }
            }
            NodeKind::PassThrough if port == 0 => {
                em.push(((outs[0], ctx), pair));
            }
            NodeKind::Gamma => em.push(((outs[0], ctx), pair)),
            // Store identity; pointer-input pairs (the checker-facing
            // kill-set) are not propagated.
            NodeKind::Free if port == 1 => {
                em.push(((outs[0], ctx), pair));
            }
            NodeKind::Free => {}
            NodeKind::Primop => {}
            NodeKind::Lookup { .. } => match port {
                0 => {
                    for sp in side(1) {
                        if self.paths.dom(pair.referent, sp.path) {
                            let off = self.paths.subtract(sp.path, pair.referent);
                            let p = self.paths.append(pair.path, off);
                            em.push(((outs[0], ctx), Pair::new(p, sp.referent)));
                        }
                    }
                }
                _ => {
                    for lp in side(0) {
                        if self.paths.dom(lp.referent, pair.path) {
                            let off = self.paths.subtract(pair.path, lp.referent);
                            let p = self.paths.append(lp.path, off);
                            em.push(((outs[0], ctx), Pair::new(p, pair.referent)));
                        }
                    }
                }
            },
            NodeKind::Update { .. } => match port {
                0 => {
                    for vp in side(2) {
                        let path = self.paths.append(pair.referent, vp.path);
                        em.push(((outs[0], ctx), Pair::new(path, vp.referent)));
                    }
                    for sp in side(1) {
                        if !(self.cfg.strong_updates
                            && self.paths.strong_dom(pair.referent, sp.path))
                        {
                            em.push(((outs[0], ctx), sp));
                        }
                    }
                }
                1 => {
                    let passes = side(0).any(|lp| {
                        !(self.cfg.strong_updates && self.paths.strong_dom(lp.referent, pair.path))
                    });
                    if passes {
                        em.push(((outs[0], ctx), pair));
                    }
                }
                _ => {
                    for lp in side(0) {
                        let path = self.paths.append(lp.referent, pair.path);
                        em.push(((outs[0], ctx), Pair::new(path, pair.referent)));
                    }
                }
            },
            NodeKind::CopyMem => match port {
                0 => {
                    em.push(((outs[0], ctx), pair));
                    for srcp in side(2) {
                        if self.paths.dom(srcp.referent, pair.path) {
                            let off = self.paths.subtract(pair.path, srcp.referent);
                            for dp in side(1) {
                                let path = self.paths.append(dp.referent, off);
                                em.push(((outs[0], ctx), Pair::new(path, pair.referent)));
                            }
                        }
                    }
                }
                _ => {
                    for srcp in side(2) {
                        for sp in side(0) {
                            if self.paths.dom(srcp.referent, sp.path) {
                                let off = self.paths.subtract(sp.path, srcp.referent);
                                for dp in side(1) {
                                    let path = self.paths.append(dp.referent, off);
                                    em.push(((outs[0], ctx), Pair::new(path, sp.referent)));
                                }
                            }
                        }
                    }
                }
            },
            NodeKind::Call => {
                if port == 0 {
                    if let Some(f) = self.paths.func_of(pair.referent) {
                        self.register_callee(node, f, em);
                    }
                } else {
                    // Note the caller context, then forward under the k=1
                    // context of this call site.
                    self.note_caller_ctx(node, ctx, em);
                    if let Some(fs) = self.callees.get(&node) {
                        for &f in fs {
                            self.forward_to_formal(node, port, pair, f, em);
                        }
                    }
                }
            }
            NodeKind::Return { func } => {
                // A pair at a return under context (call c) flows only to
                // call c, under every caller context seen there.
                let Ctx(raw) = ctx;
                // The root never returns anywhere; a pair under a call
                // context flows only if that call really targets `func`.
                if raw != 0 {
                    let call = NodeId(raw - 1);
                    let targets = self
                        .callers
                        .get(func)
                        .map(|cs| cs.contains(&call))
                        .unwrap_or(false);
                    if targets {
                        if let Some(caller_ctxs) = self.call_ctxs.get(&call) {
                            let outs = &g.node(call).outputs;
                            if port < outs.len() {
                                for &cctx in caller_ctxs {
                                    em.push(((outs[port], cctx), pair));
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Records `ctx` as a caller context of `call`. A new one pulls the
    /// returns every known callee has already committed; a known one
    /// pulls nothing, because whichever came last — the context or the
    /// callee — pulled then, and every later return pair reaches all
    /// caller contexts through the `Return` transfer.
    fn note_caller_ctx(&mut self, call: NodeId, ctx: Ctx, em: &mut Vec<((OutputId, Ctx), Pair)>) {
        if !self.call_ctxs.entry(call).or_default().insert(ctx) {
            return;
        }
        if let Some(fs) = self.callees.get(&call) {
            for &f in fs {
                self.pull_returns(call, f, ctx, em);
            }
        }
    }

    fn register_callee(&mut self, call: NodeId, f: VFuncId, em: &mut Vec<((OutputId, Ctx), Pair)>) {
        let list = self.callees.entry(call).or_default();
        if list.contains(&f) {
            return;
        }
        list.push(f);
        self.callers.entry(f).or_default().push(call);
        self.activate(f, Ctx::of_call(call));
        // Pull the returns already committed, for every caller context
        // seen so far; contexts first seen below pull through
        // `note_caller_ctx`.
        if let Some(ctxs) = self.call_ctxs.get(&call) {
            for &ctx in ctxs {
                self.pull_returns(call, f, ctx, em);
            }
        }
        // Push the existing actual pairs, in every caller context.
        let g = self.g;
        for port in 1..g.node(call).inputs.len() {
            let src = g.input_src(call, port).0 as usize;
            for (_, set) in self.p[src].iter() {
                for id in set.iter() {
                    self.forward_to_formal(call, port, self.wl.interner.resolve(id), f, em);
                }
            }
            for i in 0..self.p[src].slots.len() {
                let (ctx, set) = &self.p[src].slots[i];
                if !set.is_empty() {
                    self.note_caller_ctx(call, *ctx, em);
                }
            }
        }
    }

    fn forward_to_formal(
        &self,
        call: NodeId,
        port: usize,
        pair: Pair,
        f: VFuncId,
        em: &mut Vec<((OutputId, Ctx), Pair)>,
    ) {
        let callee_ctx = Ctx::of_call(call);
        debug_assert!(
            self.active.get(&f).is_some_and(|c| c.contains(&callee_ctx)),
            "a callee is activated under its call's context before any actual reaches it"
        );
        let formals = &self.g.node(self.g.func(f).entry).outputs;
        if let Some(&formal) = formals.get(port - 1) {
            em.push(((formal, callee_ctx), pair));
        }
    }

    /// Flows pairs already present on `f`'s returns (under this call's
    /// context) back to the call outputs under `caller_ctx`.
    fn pull_returns(
        &self,
        call: NodeId,
        f: VFuncId,
        caller_ctx: Ctx,
        em: &mut Vec<((OutputId, Ctx), Pair)>,
    ) {
        let callee_ctx = Ctx::of_call(call);
        let g = self.g;
        let outs = &g.node(call).outputs;
        for &ret in &g.func(f).returns {
            let n_ports = g.node(ret).inputs.len().min(outs.len());
            #[allow(clippy::needless_range_loop)] // indexes two parallel structures
            for port in 0..n_ports {
                let src = g.input_src(ret, port);
                if let Some(set) = self.p[src.0 as usize].get(callee_ctx) {
                    let it = &self.wl.interner;
                    em.extend(
                        set.iter()
                            .map(|id| ((outs[port], caller_ctx), it.resolve(id))),
                    );
                }
            }
        }
    }
}

impl<'g> Slots<'g> for K1<'g> {
    type Key = (OutputId, Ctx);

    fn worklist(&mut self) -> &mut Worklist<(OutputId, Ctx)> {
        &mut self.wl
    }

    fn slot(
        &mut self,
        (out, ctx): (OutputId, Ctx),
    ) -> Option<(&mut PairSet, &mut Worklist<(OutputId, Ctx)>)> {
        Some((self.p[out.0 as usize].slot(ctx), &mut self.wl))
    }

    fn graph(&self) -> &'g Graph {
        self.g
    }

    fn consumers(&self, (out, _): (OutputId, Ctx)) -> &'g [InputId] {
        self.g.consumers(out)
    }

    fn transfer(
        &mut self,
        node: NodeId,
        port: usize,
        (_, ctx): (OutputId, Ctx),
        pair: Pair,
        em: &mut Vec<((OutputId, Ctx), Pair)>,
    ) {
        self.transfer_at(node, port, ctx, pair, em);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{analyze_ci, CiConfig};
    use crate::cs::{analyze_cs, CsConfig};
    use vdg::build::{lower, BuildOptions};

    fn pipeline(src: &str) -> (Graph, crate::ci::CiResult, CallStringResult) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        // Share the CI path table so pairs are id-comparable.
        let k1 = analyze_callstring_from(&g, ci.paths.clone(), &CallStringConfig::default())
            .expect("budget");
        (g, ci, k1)
    }

    fn names(paths: &PathTable, g: &Graph, refs: &[PathId]) -> Vec<String> {
        let mut v: Vec<String> = refs.iter().map(|&p| paths.display(p, g)).collect();
        v.sort();
        v
    }

    #[test]
    fn k1_separates_one_level_of_context() {
        let (g, ci, k1) = pipeline(
            "int a; int b;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *x; int *y; x = id(&a); y = id(&b); \
             return *x + *y; }",
        );
        let ops = g.indirect_mem_ops();
        let (rx, _) = ops[0];
        assert_eq!(
            names(&ci.paths, &g, &ci.loc_referents(&g, rx)),
            vec!["a", "b"]
        );
        assert_eq!(names(&k1.paths, &g, &k1.loc_referents(&g, rx)), vec!["a"]);
    }

    #[test]
    fn k1_merges_two_levels_where_assumption_sets_do_not() {
        // `outer` wraps `inner`; the single outer->inner call site
        // exhausts the k=1 budget, so the two main-level contexts merge.
        let src = "int a; int b;\n\
             int *inner(int *p) { return p; }\n\
             int *outer(int *q) { return inner(q); }\n\
             int main(void) { int *x; int *y; x = outer(&a); y = outer(&b); \
             return *x + *y; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let ci = analyze_ci(&g, &CiConfig::default());
        let k1 =
            analyze_callstring_from(&g, ci.paths.clone(), &CallStringConfig::default()).unwrap();
        let cs = analyze_cs(&g, &ci, &CsConfig::default()).unwrap();
        let (rx, _) = g.indirect_mem_ops()[0];
        assert_eq!(
            names(&k1.paths, &g, &k1.loc_referents(&g, rx)),
            vec!["a", "b"],
            "k=1 merges the wrapper's callers"
        );
        assert_eq!(
            names(&cs.paths, &g, &cs.loc_referents(&g, rx)),
            vec!["a"],
            "assumption sets track through the wrapper"
        );
    }

    #[test]
    fn k1_is_contained_in_ci() {
        let (g, ci, k1) = pipeline(
            "int buf;\n\
             void put(int **slot) { *slot = &buf; }\n\
             int use_a(void) { int *a; put(&a); return *a; }\n\
             int use_b(void) { int *b; put(&b); return *b; }\n\
             int main(void) { return use_a() + use_b(); }",
        );
        for o in g.output_ids() {
            let ci_set: HashSet<Pair> = ci.pairs(o).iter().copied().collect();
            for p in k1.pairs(o) {
                assert!(ci_set.contains(p), "k=1 produced a pair CI lacks");
            }
        }
        assert!(k1.total_pairs() < ci.total_pairs());
    }

    #[test]
    fn assumption_sets_beat_k1_at_call_results() {
        // On the two-level wrapper, assumption sets keep the call results
        // exact while k=1 merges them (tested above); at those outputs
        // the CS answer is strictly contained in the k=1 answer.
        let src = "int a; int b;\n\
             int *inner(int *p) { return p; }\n\
             int *outer(int *q) { return inner(q); }\n\
             int main(void) { int *x; int *y; x = outer(&a); y = outer(&b); \
             return *x + *y; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let ci = analyze_ci(&g, &CiConfig::default());
        let k1 =
            analyze_callstring_from(&g, ci.paths.clone(), &CallStringConfig::default()).unwrap();
        let cs = analyze_cs(
            &g,
            &ci,
            &CsConfig {
                ci_pruning: false,
                ..CsConfig::default()
            },
        )
        .unwrap();
        for (node, _) in g.indirect_mem_ops() {
            let loc = g.input_src(node, 0);
            let k1_set: HashSet<Pair> = k1.pairs(loc).iter().copied().collect();
            for pr in cs.pairs(loc) {
                assert!(k1_set.contains(pr), "CS exceeded k=1 at a deref input");
            }
        }
    }

    #[test]
    fn recursion_terminates() {
        let (g, ci, k1) = pipeline(
            "int g;\n\
             int *walk(int n, int *p) { if (n == 0) return p; \
             return walk(n - 1, p); }\n\
             int main(void) { int *q; q = walk(5, &g); return *q; }",
        );
        let (read, _) = *g.indirect_mem_ops().iter().find(|&&(_, w)| !w).unwrap();
        assert_eq!(names(&k1.paths, &g, &k1.loc_referents(&g, read)), vec!["g"]);
        assert_eq!(names(&ci.paths, &g, &ci.loc_referents(&g, read)), vec!["g"]);
        assert!(k1.contexts >= 2);
    }

    #[test]
    fn known_caller_context_pulls_no_returns() {
        // `pick` commits three value pairs (and its store) at its return
        // under main's call site. Delivering main's actual again, after
        // the fixpoint, brings a caller context the call already knows.
        // Pulling the returns for it would re-emit every committed return
        // pair; only the forward to the formal may repeat.
        let src = "int a; int b; int c;\n\
             int *pick(int *p) { int *r; r = &a; if (*p) r = &b; \
             if (*p) r = &c; return r; }\n\
             int main(void) { int v; int *x; v = 1; x = pick(&v); return *x; }";
        let prog = cfront::compile(src).unwrap();
        let g = lower(&prog, &BuildOptions::default()).unwrap();
        let cfg = CallStringConfig::default();
        let mut s = K1::new(&g, PathTable::for_graph(&g), &cfg);
        s.solve();
        let pick = func(&g, "pick");
        let call = *s
            .callees
            .iter()
            .find(|(_, fs)| fs.contains(&pick))
            .map(|(call, _)| call)
            .unwrap();
        let (port, src, ctx, pair) = (1..g.node(call).inputs.len())
            .find_map(|port| {
                let (ctx, set) = s.p[g.input_src(call, port).0 as usize].iter().next()?;
                let src = g.input_src(call, port);
                Some((port, src, ctx, s.wl.interner.resolve(set.iter().next()?)))
            })
            .unwrap();
        let mut eager = Vec::new();
        s.pull_returns(call, pick, ctx, &mut eager);
        assert!(eager.len() >= 3, "pick's returns are committed");

        let before = s.wl.counters;
        worklist::deliver(&mut s, call, port, (src, ctx), pair);
        worklist::run(&mut s);
        let (outs, hits) = (s.wl.counters.flow_outs, s.wl.counters.dedup_hits);
        assert_eq!(outs, before.flow_outs, "the call results are unchanged");
        assert_eq!(
            hits - before.dedup_hits,
            1,
            "only the formal forward repeats"
        );
        assert!(hits - before.dedup_hits < 1 + eager.len() as u64);

        let k1 = s.finish();
        // main's `*x`, the last read.
        let (read, _) = *g
            .indirect_mem_ops()
            .iter()
            .rev()
            .find(|&&(_, w)| !w)
            .unwrap();
        assert_eq!(
            names(&k1.paths, &g, &k1.loc_referents(&g, read)),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn context_count_reported() {
        let (_, _, k1) = pipeline(
            "int g;\n\
             void touch(void) { g = 1; }\n\
             int main(void) { touch(); touch(); return g; }",
        );
        // touch is called from two sites: two contexts, plus main's
        // (`<root>`'s call) and `<root>`'s own.
        assert_eq!(k1.contexts, 4);
    }

    fn func(g: &Graph, name: &str) -> VFuncId {
        g.func_ids().find(|&f| g.func(f).name == name).unwrap()
    }

    fn ctxs(cs: &[Ctx]) -> HashSet<Ctx> {
        cs.iter().copied().collect()
    }

    #[test]
    fn an_uncalled_function_keeps_its_pairs_under_the_root_context() {
        let p = cfront::compile(
            "int g;\n\
             int lonely(void) { int *p; p = &g; return *p; }\n\
             int main(void) { return 0; }",
        )
        .unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let mut s = K1::new(&g, PathTable::for_graph(&g), &CallStringConfig::default());
        s.solve();
        assert_eq!(s.active[&func(&g, "lonely")], ctxs(&[Ctx::ROOT]));
        let k1 = s.finish();
        let (read, _) = g.indirect_mem_ops()[0];
        assert_eq!(names(&k1.paths, &g, &k1.loc_referents(&g, read)), vec!["g"]);
        // `<root>` and lonely under the root, main under `<root>`'s call.
        assert_eq!(k1.contexts, 3);
    }

    #[test]
    fn a_function_only_an_uncalled_one_calls_gets_no_root_context() {
        let p = cfront::compile(
            "int a;\n\
             int *helper(int *p) { return p; }\n\
             int unused(void) { int *q; q = helper(&a); return *q; }\n\
             int main(void) { return 0; }",
        )
        .unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let (helper, unused) = (func(&g, "helper"), func(&g, "unused"));
        let mut s = K1::new(&g, PathTable::for_graph(&g), &CallStringConfig::default());
        // The fixpoint from `<root>` leaves both idle; the activation of
        // `unused` that follows gives `helper` its call context.
        s.activate(g.root(), Ctx::ROOT);
        worklist::run(&mut s);
        assert!(!s.active.contains_key(&helper) && !s.active.contains_key(&unused));
        s.solve();
        let call = *s.callers[&helper].first().unwrap();
        assert_eq!(s.active[&unused], ctxs(&[Ctx::ROOT]));
        assert_eq!(s.active[&helper], ctxs(&[Ctx::of_call(call)]));
        let k1 = s.finish();
        let (read, _) = g.indirect_mem_ops()[0];
        assert_eq!(names(&k1.paths, &g, &k1.loc_referents(&g, read)), vec!["a"]);
        assert_eq!(k1.contexts, 4);
    }
}
