//! Demand-driven point queries over the context-insensitive analysis.
//!
//! The five exhaustive solvers answer "what are `p`'s referents at
//! node n?" only after computing every pair of the whole program. This
//! module answers individual queries by solving just the part of the
//! VDG the query can observe:
//!
//! 1. **Slice.** From the queried output, chase value dependencies
//!    *backwards* — matched load/store parentheses ride the existing
//!    transfer functions, assignment edges are epsilon — using a
//!    conservative may-call relation (`fingerprint::call_targets`
//!    style) for call/return boundaries. The result is a set of outputs
//!    closed under "my committed pairs can influence yours".
//! 2. **Restricted fixpoint.** Run the ordinary CI solver with an
//!    *emission mask*: pairs flowing to outputs outside the slice are
//!    dropped before they commit. Because the slice is
//!    dependency-closed, the equations for in-slice outputs mention
//!    only in-slice outputs, so the restricted least fixpoint equals
//!    the exhaustive least fixpoint on every sliced output — demand
//!    answers are *identical* to [`analyze_ci`]'s, not approximations.
//! 3. **Memoize.** The slice's committed sets, interner, path table,
//!    and discovered call edges persist in a [`DemandState`]; the next
//!    query extends the solved region instead of starting over, with
//!    boundary deliveries hand-carrying already-final sets into the
//!    newly activated region.
//!
//! Per-query budgets bound both the slice size and the number of
//! worklist deliveries. On exhaustion the state falls back to the
//! exhaustive CI solution — the fallback *is* the oracle, so soundness
//! and exactness are never at risk; only latency degrades to the
//! exhaustive cost. [`DemandState::materialize`] completes the partial
//! state to a genuine [`CiResult`] for clients that need
//! exhaustiveness; canonical path numbering makes the materialized
//! result byte-identical to a fresh exhaustive solve.

use crate::ci::{analyze_ci, deliver_committed, CiConfig, CiResult, Solver, SolverParts};
use crate::fxhash::{HashMap, HashSet};
use crate::pairset::Propagation;
use crate::solver::{Solution, SolutionBox, Solver as SolverTrait};
use crate::AnalysisError;
use std::cell::RefCell;
use vdg::graph::{BaseId, Graph, NodeId, NodeKind, OutputId, VFuncId};

/// Budgets and solver knobs for the demand-driven solver.
#[derive(Debug, Clone)]
pub struct DemandConfig {
    /// Knobs of the underlying CI system. Propagation is forced to
    /// [`Propagation::Delta`] (the fixpoint is discipline-independent;
    /// delta batching is simply the faster schedule).
    pub ci: CiConfig,
    /// Per-query bound on newly activated outputs. A query whose
    /// backward slice is larger falls back to the exhaustive solution.
    pub max_slice_outputs: usize,
    /// Per-query bound on worklist deliveries (`flow_ins`). A query
    /// whose restricted fixpoint needs more falls back.
    pub max_steps: u64,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            ci: CiConfig::default(),
            max_slice_outputs: 1 << 16,
            max_steps: 2_000_000,
        }
    }
}

/// Work and outcome counters of a [`DemandState`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandStats {
    /// Point queries answered (either kind).
    pub queries: u64,
    /// Queries answered from the demand-solved region.
    pub demand_hits: u64,
    /// Queries answered from the exhaustive fallback solution.
    pub fallbacks: u64,
    /// Budget exhaustions (at most one: the state is poisoned and every
    /// later query is a fallback).
    pub budget_exhausted: u64,
    /// Whether [`DemandState::materialize`] completed this state.
    pub materialized: bool,
    /// Outputs in the demand-solved region; 0 once the budget runs out
    /// and the region is abandoned.
    pub outputs_active: u64,
    /// Worklist deliveries consumed by demand runs.
    pub steps: u64,
}

/// The growing partial solution behind demand queries. See the module
/// docs for the algorithm; all methods take the graph the state was
/// built for (passing a different graph is a logic error, as
/// everywhere else in the [`Solution`] API).
#[derive(Debug, Clone)]
pub struct DemandState {
    cfg: DemandConfig,
    /// Carry-over solver state; `None` once poisoned or materialized
    /// (then `fallback` answers everything).
    parts: Option<SolverParts>,
    /// The demand-solved (dependency-closed) region.
    active: Vec<bool>,
    /// Conservative may-callees per call node, for slicing only —
    /// propagation still uses the dynamically discovered call graph.
    may_targets: HashMap<NodeId, Vec<VFuncId>>,
    /// Inverse of `may_targets`.
    may_callers: HashMap<VFuncId, Vec<NodeId>>,
    fallback: Option<CiResult>,
    stats: DemandStats,
}

impl DemandState {
    /// An empty state for `graph`: nothing solved, no fallback.
    pub fn new(graph: &Graph, cfg: DemandConfig) -> DemandState {
        let mut cfg = cfg;
        cfg.ci.propagation = Propagation::Delta;
        let mut may_targets: HashMap<NodeId, Vec<VFuncId>> = HashMap::default();
        let mut may_callers: HashMap<VFuncId, Vec<NodeId>> = HashMap::default();
        for (id, n) in graph.nodes() {
            if matches!(n.kind, NodeKind::Call) {
                let targets = crate::fingerprint::call_targets(graph, id);
                for &f in &targets {
                    may_callers.entry(f).or_default().push(id);
                }
                may_targets.insert(id, targets);
            }
        }
        DemandState {
            parts: Some(Solver::new(graph, cfg.ci.clone()).into_parts()),
            active: vec![false; graph.output_count()],
            may_targets,
            may_callers,
            fallback: None,
            cfg,
            stats: DemandStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> DemandStats {
        self.stats
    }

    /// The exhaustive fallback solution, if this state has one (budget
    /// exhaustion or materialization).
    pub fn fallback(&self) -> Option<&CiResult> {
        self.fallback.as_ref()
    }

    /// Path-granular referents of the location input of memory op
    /// `node`, rendered against `graph` and sorted — string-identical
    /// to rendering [`CiResult::loc_referents`] of the exhaustive
    /// solution.
    pub fn loc_referents_rendered(&mut self, graph: &Graph, node: NodeId) -> Vec<String> {
        let out = graph.input_src(node, 0);
        let fb = self.ensure_solved(graph, &[out]);
        self.count_query(fb);
        let mut refs: Vec<String> = match (&self.fallback, fb) {
            (Some(r), true) => {
                let mut ids = r.loc_referents(graph, node);
                ids.sort_unstable();
                ids.dedup();
                ids.iter().map(|&p| r.paths.display(p, graph)).collect()
            }
            _ => {
                let parts = self.parts.as_ref().expect("live state");
                let mut ids: Vec<_> = parts.sets[out.0 as usize]
                    .iter()
                    .map(|id| parts.interner.resolve(id).referent)
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids.iter().map(|&p| parts.paths.display(p, graph)).collect()
            }
        };
        refs.sort();
        refs
    }

    /// Distinct base-locations the location input of memory op `node`
    /// may reference, sorted — the [`Solution::loc_referent_bases`]
    /// contract.
    pub fn loc_referent_bases(&mut self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        let out = graph.input_src(node, 0);
        let fb = self.ensure_solved(graph, &[out]);
        self.count_query(fb);
        self.bases_of(graph, out, fb)
    }

    /// Distinct base-locations the value on `out` may reference,
    /// sorted — the [`Solution::output_referent_bases`] contract.
    pub fn output_referent_bases(&mut self, graph: &Graph, out: OutputId) -> Vec<BaseId> {
        let fb = self.ensure_solved(graph, &[out]);
        self.count_query(fb);
        self.bases_of(graph, out, fb)
    }

    /// May the location inputs of memory ops `a` and `b` reference a
    /// common base-location? Returns the sorted witness bases — the
    /// serve-layer `MayAlias` semantics. Counts as one query.
    pub fn may_alias(&mut self, graph: &Graph, a: NodeId, b: NodeId) -> (bool, Vec<BaseId>) {
        let oa = graph.input_src(a, 0);
        let ob = graph.input_src(b, 0);
        let fb = self.ensure_solved(graph, &[oa, ob]);
        self.count_query(fb);
        let ba = self.bases_of(graph, oa, fb);
        let bb = self.bases_of(graph, ob, fb);
        let witnesses: Vec<BaseId> = ba
            .iter()
            .copied()
            .filter(|x| bb.binary_search(x).is_ok())
            .collect();
        (!witnesses.is_empty(), witnesses)
    }

    /// Completes the partial state to the full exhaustive solution and
    /// returns it. Thanks to canonical path numbering the result is
    /// numerically identical to a fresh [`analyze_ci`] of the same
    /// graph (flow counters aside); later queries answer from it.
    pub fn materialize(&mut self, graph: &Graph) -> CiResult {
        if let Some(r) = &self.fallback {
            return r.clone();
        }
        let prev = std::mem::replace(&mut self.active, vec![true; graph.output_count()]);
        let parts = self.parts.take().expect("live state");
        let mut s = Solver::from_parts(graph, self.cfg.ci.clone(), parts, self.active.clone());
        s.seed();
        install_boundary(graph, &mut s, &prev, &self.active);
        crate::worklist::run(&mut s);
        let result = s.finish();
        self.stats.materialized = true;
        self.stats.outputs_active = graph.output_count() as u64;
        self.fallback = Some(result.clone());
        result
    }

    fn count_query(&mut self, fallback: bool) {
        self.stats.queries += 1;
        if fallback {
            self.stats.fallbacks += 1;
        } else {
            self.stats.demand_hits += 1;
        }
    }

    /// Sorted distinct referent bases of `out`, from whichever store
    /// holds the answer.
    fn bases_of(&self, graph: &Graph, out: OutputId, fb: bool) -> Vec<BaseId> {
        let mut b: Vec<BaseId> = match (&self.fallback, fb) {
            (Some(r), true) => r
                .pairs(out)
                .iter()
                .filter_map(|p| r.paths.base_of(p.referent))
                .collect(),
            _ => {
                let parts = self.parts.as_ref().expect("live state");
                parts.sets[out.0 as usize]
                    .iter()
                    .filter_map(|id| parts.paths.base_of(parts.interner.resolve(id).referent))
                    .collect()
            }
        };
        let _ = graph;
        b.sort_unstable();
        b.dedup();
        b
    }

    /// Ensures every target output's committed set is final. Returns
    /// `true` when answers must come from the fallback solution.
    fn ensure_solved(&mut self, graph: &Graph, targets: &[OutputId]) -> bool {
        if self.fallback.is_some() {
            return true;
        }
        debug_assert_eq!(
            self.active.len(),
            graph.output_count(),
            "state/graph mismatch"
        );
        let before = self.active.clone();
        let mut stack: Vec<OutputId> = Vec::new();
        let mut newly = 0usize;
        for &o in targets {
            if !self.active[o.0 as usize] {
                self.active[o.0 as usize] = true;
                stack.push(o);
                newly += 1;
            }
        }
        if stack.is_empty() {
            return false; // already solved
        }
        // Backward dependency closure (module docs step 1).
        while let Some(o) = stack.pop() {
            if newly > self.cfg.max_slice_outputs {
                self.active = before;
                self.stats.budget_exhausted += 1;
                self.fall_back(graph);
                return true;
            }
            self.push_deps(graph, o, &mut stack, &mut newly);
        }
        // Restricted fixpoint over the enlarged region (step 2).
        let parts = self.parts.take().expect("live state");
        let steps_before = parts.counters.flow_ins;
        let mut s = Solver::from_parts(graph, self.cfg.ci.clone(), parts, self.active.clone());
        s.wl.step_limit = steps_before.saturating_add(self.cfg.max_steps);
        s.seed();
        install_boundary(graph, &mut s, &before, &self.active);
        crate::worklist::run(&mut s);
        self.stats.steps += s.wl.counters.flow_ins - steps_before;
        if s.wl.exhausted() {
            // Poisoned: the region is mid-fixpoint. Abandon it and
            // compute the oracle once; every later query is a fallback.
            self.stats.budget_exhausted += 1;
            self.fall_back(graph);
            return true;
        }
        self.stats.outputs_active = self.active.iter().filter(|&&a| a).count() as u64;
        self.parts = Some(s.into_parts());
        false
    }

    /// Pushes the dependencies of `o` — outputs whose committed pairs
    /// can influence `o`'s — activating each unseen one.
    fn push_deps(&mut self, g: &Graph, o: OutputId, stack: &mut Vec<OutputId>, newly: &mut usize) {
        let node = g.output(o).node;
        let n = g.node(node);
        let mut add = |active: &mut Vec<bool>, src: OutputId| {
            if !active[src.0 as usize] {
                active[src.0 as usize] = true;
                stack.push(src);
                *newly += 1;
            }
        };
        match &n.kind {
            // A formal's pairs come from every may-caller's actuals
            // (and port 0 discovers the edge).
            NodeKind::Entry { func } => {
                if let Some(calls) = self.may_callers.get(func) {
                    for &call in calls {
                        for port in 0..g.node(call).inputs.len() {
                            add(&mut self.active, g.input_src(call, port));
                        }
                    }
                }
            }
            // A call result's pairs come from the function input (edge
            // discovery) and every may-callee's return inputs.
            NodeKind::Call => {
                add(&mut self.active, g.input_src(node, 0));
                if let Some(targets) = self.may_targets.get(&node) {
                    for &f in targets {
                        for &ret in &g.func(f).returns {
                            for port in 0..g.node(ret).inputs.len() {
                                add(&mut self.active, g.input_src(ret, port));
                            }
                        }
                    }
                }
            }
            // Only port 0 is forwarded.
            NodeKind::PassThrough => add(&mut self.active, g.input_src(node, 0)),
            // Only the store (port 1) passes through.
            NodeKind::Free => add(&mut self.active, g.input_src(node, 1)),
            NodeKind::Member(_)
            | NodeKind::IndexElem
            | NodeKind::ExtractField(_)
            | NodeKind::ExtractElem => add(&mut self.active, g.input_src(node, 0)),
            // Constants and scalar ops emit from seeds or nothing.
            NodeKind::Primop
            | NodeKind::Base(_)
            | NodeKind::Alloc(_)
            | NodeKind::FuncConst(_)
            | NodeKind::InitStore
            | NodeKind::ScalarConst
            | NodeKind::NullConst => {}
            // Gamma/Lookup/Update/CopyMem read every input (transfer
            // functions cross-read sibling committed sets). Return has
            // no outputs and cannot appear.
            _ => {
                for port in 0..n.inputs.len() {
                    add(&mut self.active, g.input_src(node, port));
                }
            }
        }
    }

    fn fall_back(&mut self, graph: &Graph) {
        if self.fallback.is_none() {
            self.stats.outputs_active = 0;
            self.parts = None;
            self.fallback = Some(analyze_ci(graph, &self.cfg.ci));
        }
    }
}

/// Hand-delivers already-final committed sets across the boundary into
/// the newly activated region, exactly once.
/// `prev` is the solved region before this query, `now` after; a
/// source in `prev` is final and will never deliver again on its own.
fn install_boundary(g: &Graph, s: &mut Solver, prev: &[bool], now: &[bool]) {
    let fresh = |o: OutputId| now[o.0 as usize] && !prev[o.0 as usize];
    let was = |o: OutputId| prev[o.0 as usize];
    // Plain nodes: deliver final inputs of any node with a fresh
    // output. Calls and returns route across function boundaries and
    // follow below; Primop emits nothing; PassThrough forwards port 0.
    for (id, n) in g.nodes() {
        match n.kind {
            NodeKind::Call | NodeKind::Return { .. } | NodeKind::Primop => continue,
            _ => {}
        }
        if !n.outputs.iter().any(|&o| fresh(o)) {
            continue;
        }
        for (port, &inp) in n.inputs.iter().enumerate() {
            if matches!(n.kind, NodeKind::PassThrough) && port != 0 {
                continue;
            }
            let src = g.input(inp).src;
            if was(src) {
                deliver_committed(s, id, port, src);
            }
        }
    }
    // Known call edges. An edge is registered the moment its call's
    // function input delivers, which happens in the run that finalizes
    // that input — so every call with a final function input already
    // has its exact callee set here. Fresh-input calls register their
    // edges during the coming run, which pushes/pulls committed sets
    // itself.
    let edges: Vec<(NodeId, Vec<VFuncId>)> =
        s.callees.iter().map(|(&c, fs)| (c, fs.clone())).collect();
    // Actuals: a callee with fresh formals needs every final actual.
    for (call, fs) in &edges {
        let needed = fs
            .iter()
            .any(|&f| g.node(g.func(f).entry).outputs.iter().any(|&o| fresh(o)));
        if !needed {
            continue;
        }
        for port in 1..g.node(*call).inputs.len() {
            let src = g.input_src(*call, port);
            if was(src) {
                deliver_committed(s, *call, port, src);
            }
        }
    }
    // Returns: a call with fresh outputs needs its callees' final
    // return inputs forwarded (duplicates to other callers dedup).
    let mut ret_needed: HashSet<VFuncId> = HashSet::default();
    for (call, fs) in &edges {
        if g.node(*call).outputs.iter().any(|&o| fresh(o)) {
            ret_needed.extend(fs.iter().copied());
        }
    }
    for &f in &ret_needed {
        for &ret in &g.func(f).returns {
            for port in 0..g.node(ret).inputs.len() {
                let src = g.input_src(ret, port);
                if was(src) {
                    deliver_committed(s, ret, port, src);
                }
            }
        }
    }
}

/// The demand-driven solver as a [`SolverTrait`]: "solving" just
/// builds an empty [`DemandState`]; queries drive the work.
#[derive(Debug, Clone, Default)]
pub struct DemandSolver {
    /// Budgets and CI knobs.
    pub config: DemandConfig,
}

impl SolverTrait for DemandSolver {
    fn name(&self) -> &str {
        "demand"
    }

    fn solve(&self, graph: &Graph, _ci: Option<&CiResult>) -> Result<SolutionBox, AnalysisError> {
        Ok(Box::new(DemandSolution::new(graph, self.config.clone())))
    }
}

/// A [`DemandState`] behind the uniform [`Solution`] view. Queries
/// extend the solved region, so the interior is mutable; the `RefCell`
/// keeps the shared `&self` query API of the other solutions (the same
/// pattern as [`crate::solver::SteensSolution`]).
pub struct DemandSolution {
    state: RefCell<DemandState>,
}

impl DemandSolution {
    /// An unsolved demand view of `graph`.
    pub fn new(graph: &Graph, config: DemandConfig) -> DemandSolution {
        DemandSolution {
            state: RefCell::new(DemandState::new(graph, config)),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> DemandStats {
        self.state.borrow().stats()
    }

    /// See [`DemandState::loc_referents_rendered`].
    pub fn loc_referents_rendered(&self, graph: &Graph, node: NodeId) -> Vec<String> {
        self.state.borrow_mut().loc_referents_rendered(graph, node)
    }

    /// See [`DemandState::may_alias`].
    pub fn may_alias(&self, graph: &Graph, a: NodeId, b: NodeId) -> (bool, Vec<BaseId>) {
        self.state.borrow_mut().may_alias(graph, a, b)
    }

    /// See [`DemandState::materialize`].
    pub fn materialize(&self, graph: &Graph) -> CiResult {
        self.state.borrow_mut().materialize(graph)
    }
}

impl Solution for DemandSolution {
    fn analysis(&self) -> &'static str {
        "demand"
    }
    /// Total pairs, known only once exhaustive (fallback/materialized);
    /// a partial count would misread as the program's total.
    fn pairs(&self) -> Option<usize> {
        self.state
            .borrow()
            .fallback
            .as_ref()
            .map(CiResult::total_pairs)
    }
    fn flow_ins(&self) -> Option<u64> {
        Some(self.state.borrow().stats.steps)
    }
    fn flow_outs(&self) -> Option<u64> {
        None
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        self.state.borrow_mut().loc_referent_bases(graph, node)
    }
    fn output_referent_bases(&self, graph: &Graph, out: OutputId) -> Vec<BaseId> {
        self.state.borrow_mut().output_referent_bases(graph, out)
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(DemandSolution {
            state: RefCell::new(self.state.borrow().clone()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdg::build::{lower, BuildOptions};

    fn graph_of(src: &str) -> Graph {
        let p = cfront::compile(src).expect("compiles");
        lower(&p, &BuildOptions::default()).expect("lowers")
    }

    fn ci_of(g: &Graph) -> CiResult {
        analyze_ci(g, &CiConfig::default())
    }

    fn rendered_ci(r: &CiResult, g: &Graph, node: NodeId) -> Vec<String> {
        let mut v: Vec<String> = r
            .loc_referents(g, node)
            .iter()
            .map(|&p| r.paths.display(p, g))
            .collect();
        v.sort();
        v
    }

    const INTERPROC: &str = "int a; int b; int *gp;\n\
         int *id(int *p) { return p; }\n\
         void setg(int c) { if (c) { gp = &a; } else { gp = &b; } }\n\
         int main(void) { int *q; q = id(&a); setg(getchar()); return *q + *gp; }";

    #[test]
    fn demand_matches_exhaustive_at_every_site() {
        let g = graph_of(INTERPROC);
        let ci = ci_of(&g);
        let mut st = DemandState::new(&g, DemandConfig::default());
        for (node, _) in g.indirect_mem_ops() {
            assert_eq!(
                st.loc_referents_rendered(&g, node),
                rendered_ci(&ci, &g, node),
                "site {node:?}"
            );
        }
        let stats = st.stats();
        assert_eq!(stats.fallbacks, 0);
        assert!(stats.demand_hits > 0);
        assert!(stats.outputs_active > 0);
        assert!(
            (stats.outputs_active as usize) < g.output_count(),
            "slice should not cover the whole graph"
        );
    }

    #[test]
    fn repeated_queries_reuse_the_solved_region() {
        let g = graph_of(INTERPROC);
        let mut st = DemandState::new(&g, DemandConfig::default());
        let sites = g.indirect_mem_ops();
        let first = st.loc_referents_rendered(&g, sites[0].0);
        let steps_after_first = st.stats().steps;
        let second = st.loc_referents_rendered(&g, sites[0].0);
        assert_eq!(first, second);
        assert_eq!(
            st.stats().steps,
            steps_after_first,
            "a repeated query must not re-solve"
        );
    }

    #[test]
    fn may_alias_agrees_with_base_intersection() {
        let g = graph_of(INTERPROC);
        let ci = ci_of(&g);
        let mut st = DemandState::new(&g, DemandConfig::default());
        let sites = g.indirect_mem_ops();
        for i in 0..sites.len() {
            for j in 0..sites.len() {
                let (hit, witnesses) = st.may_alias(&g, sites[i].0, sites[j].0);
                let ba = Solution::loc_referent_bases(&ci, &g, sites[i].0);
                let bb = Solution::loc_referent_bases(&ci, &g, sites[j].0);
                let want: Vec<BaseId> = ba
                    .iter()
                    .copied()
                    .filter(|x| bb.binary_search(x).is_ok())
                    .collect();
                assert_eq!(witnesses, want, "sites {i}/{j}");
                assert_eq!(hit, !want.is_empty());
            }
        }
    }

    #[test]
    fn materialized_state_is_numerically_identical_to_fresh_ci() {
        let g = graph_of(INTERPROC);
        let fresh = ci_of(&g);
        let mut st = DemandState::new(&g, DemandConfig::default());
        // Partially solve first, then complete.
        let sites = g.indirect_mem_ops();
        let _ = st.loc_referents_rendered(&g, sites[0].0);
        let mat = st.materialize(&g);
        for o in g.output_ids() {
            assert_eq!(fresh.pairs(o), mat.pairs(o), "pairs at {o}");
        }
        assert_eq!(fresh.callees, mat.callees);
        use crate::solver::solution_fingerprint;
        assert_eq!(
            solution_fingerprint(&fresh, &g),
            solution_fingerprint(&mat, &g)
        );
    }

    #[test]
    fn exhausted_budget_falls_back_to_the_oracle() {
        let g = graph_of(INTERPROC);
        let ci = ci_of(&g);
        let cfg = DemandConfig {
            max_steps: 1,
            ..DemandConfig::default()
        };
        let mut st = DemandState::new(&g, cfg);
        for (node, _) in g.indirect_mem_ops() {
            assert_eq!(
                st.loc_referents_rendered(&g, node),
                rendered_ci(&ci, &g, node)
            );
        }
        let stats = st.stats();
        assert_eq!(stats.budget_exhausted, 1);
        assert_eq!(stats.demand_hits, 0);
        assert!(stats.fallbacks > 0);
    }

    #[test]
    fn tiny_slice_budget_falls_back_too() {
        let g = graph_of(INTERPROC);
        let ci = ci_of(&g);
        let cfg = DemandConfig {
            max_slice_outputs: 1,
            ..DemandConfig::default()
        };
        let mut st = DemandState::new(&g, cfg);
        let sites = g.indirect_mem_ops();
        assert_eq!(
            st.loc_referents_rendered(&g, sites[0].0),
            rendered_ci(&ci, &g, sites[0].0)
        );
        assert_eq!(st.stats().budget_exhausted, 1);
    }

    #[test]
    fn function_pointer_targets_resolve_on_demand() {
        let g = graph_of(
            "int a; int b;\n\
             int *fa(void) { return &a; }\n\
             int *fb(void) { return &b; }\n\
             int main(void) { int *(*fp)(void); int c; c = getchar();\n\
               if (c) { fp = fa; } else { fp = fb; }\n\
               return *(fp()); }",
        );
        let ci = ci_of(&g);
        let mut st = DemandState::new(&g, DemandConfig::default());
        for (node, _) in g.indirect_mem_ops() {
            assert_eq!(
                st.loc_referents_rendered(&g, node),
                rendered_ci(&ci, &g, node)
            );
        }
        assert_eq!(st.stats().fallbacks, 0);
    }

    #[test]
    fn copied_func_const_call_slices_to_the_union_of_targets() {
        // Regression for the sharpened `fingerprint::call_targets`: a
        // callee reached as `fp = fa; ... fp = fb;` (a Gamma over two
        // FuncConst feeds) used to collapse the sliced may-call
        // relation to *every* function, dragging unrelated code into
        // each demand slice. It must resolve to exactly {fa, fb} —
        // `untouched` stays out — while answers remain exact.
        let g = graph_of(
            "int a; int b; int u;\n\
             int *fa(void) { return &a; }\n\
             int *fb(void) { return &b; }\n\
             void untouched(void) { u = u + 1; }\n\
             int main(void) { int *(*fp)(void); int c; c = getchar();\n\
               if (c) { fp = fa; } else { fp = fb; }\n\
               untouched();\n\
               return *(fp()); }",
        );
        let ci = ci_of(&g);
        let mut st = DemandState::new(&g, DemandConfig::default());
        let rendered = |ts: &Vec<VFuncId>| {
            let mut v: Vec<String> = ts.iter().map(|&f| g.func(f).name.clone()).collect();
            v.sort();
            v
        };
        assert!(
            st.may_targets
                .values()
                .any(|ts| rendered(ts) == ["fa", "fb"]),
            "the indirect call should slice to {{fa, fb}}: {:?}",
            st.may_targets.values().map(rendered).collect::<Vec<_>>()
        );
        assert!(
            st.may_targets.values().all(|ts| ts.len() < g.func_count()),
            "no call should fall back to the every-function set"
        );
        for (node, _) in g.indirect_mem_ops() {
            assert_eq!(
                st.loc_referents_rendered(&g, node),
                rendered_ci(&ci, &g, node),
                "site {node:?}"
            );
        }
        assert_eq!(st.stats().fallbacks, 0);
    }

    #[test]
    fn solution_view_reports_demand() {
        let g = graph_of(INTERPROC);
        let sol = DemandSolution::new(&g, DemandConfig::default());
        assert_eq!(sol.analysis(), "demand");
        assert_eq!(sol.pairs(), None, "no pair total before materialize");
        let ci = ci_of(&g);
        for (node, _) in g.indirect_mem_ops() {
            assert_eq!(
                Solution::loc_referent_bases(&sol, &g, node),
                Solution::loc_referent_bases(&ci, &g, node)
            );
        }
        let cloned = sol.clone_box();
        let _ = sol.materialize(&g);
        assert!(sol.pairs().is_some());
        assert_eq!(cloned.analysis(), "demand");
    }
}
