//! A uniform driver-facing API over the five analyses.
//!
//! Historically each analysis had its own free-function entry point with
//! its own shape (`analyze_ci`, `analyze_cs`, `analyze_weihl_from`,
//! `analyze_steensgaard`, `analyze_callstring_from`), which forced every
//! harness — the CLI `spectrum` command, the figure binaries, the
//! parallel engine — to hard-code all five call sites. The [`Solver`]
//! trait unifies them:
//!
//! ```text
//!                    ┌───────────────┐
//!  Graph ──────────▶ │  dyn Solver   │ ──▶ SolutionBox (dyn Solution)
//!  Option<&CiResult> │ ci/cs/weihl/  │       ├─ pairs(), flow counts
//!       (shared      │ steensgaard/  │       ├─ loc_referent_bases()
//!        vocabulary) │ k=1 callstring│       └─ as_points_to() / as_ci() / as_cs()
//!                    └───────────────┘
//! ```
//!
//! Passing the CI result is optional but meaningful twice over: the CS
//! solver *requires* CI facts for its §4.2 pruning (it computes its own
//! when given `None`), and the pair-based baselines seed their
//! [`PathTable`] from the CI one so that [`Pair`] ids remain comparable
//! across solutions of the same graph.
//!
//! The concrete result types are still reachable — [`Solution::as_ci`]
//! and friends downcast without `Any` machinery — so existing
//! [`crate::stats::PointsToSolution`] consumers keep working on the
//! boxed solutions of every pair-based solver.

use crate::callstring::{analyze_callstring_from, CallStringConfig, CallStringResult};
use crate::ci::{
    analyze_ci, analyze_ci_resume, CiConfig, CiResult, Fault, HeapNaming, WorklistOrder,
};
use crate::cs::{analyze_cs, CsConfig, CsResult};
use crate::fingerprint::{plan_ci_resume, GraphIndex, StablePair};
use crate::pairset::Propagation;
use crate::path::{PathId, PathTable};
use crate::stats::PointsToSolution;
use crate::steensgaard::{analyze_steensgaard, SteensResult};
use crate::summary::{FunctionSummary, ResumeStats, SolverSummaries, Vocab};
use crate::weihl::{analyze_weihl_with, WeihlResult};
use crate::AnalysisError;
use std::cell::RefCell;
use vdg::graph::{BaseId, Graph, NodeId, VFuncId};

/// A per-function summary extractor over one solution: `Sync` so the
/// engine's bottom-up composition driver can summarize independent
/// call-graph subtrees in parallel with no shared worklist.
pub type FuncExtractor<'a> = Box<dyn Fn(VFuncId) -> Option<FunctionSummary> + Sync + 'a>;

/// The product of a successful seeded resume: the re-solved solution
/// plus the reuse statistics the engine surfaces in `SolveMode` and
/// `ruf95 stats`.
pub struct ResumeOutcome {
    /// The resumed solution, fixpoint-identical to a fresh solve.
    pub solution: SolutionBox,
    /// Which functions re-summarized, and how much was seeded.
    pub stats: ResumeStats,
}

/// A solved analysis, boxed behind the uniform [`Solution`] view.
pub type SolutionBox = Box<dyn Solution>;

/// One of the five analyses, behind a uniform entry point.
pub trait Solver: Send + Sync {
    /// Stable machine-readable name (`"ci"`, `"cs"`, `"weihl"`,
    /// `"steensgaard"`, `"k1"`).
    fn name(&self) -> &str;

    /// Runs the analysis over `graph`.
    ///
    /// `ci` is an optional previously computed context-insensitive
    /// solution *for the same graph*: the CS solver uses it for the
    /// §4.2 pruning optimizations (and computes its own if absent), and
    /// the pair-based baselines adopt its path table so pair ids stay
    /// comparable across solvers. Passing a CI result from a different
    /// graph is a logic error.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::StepLimit`] if the solver exhausts its step
    /// budget; the always-terminating solvers never fail.
    fn solve(&self, graph: &Graph, ci: Option<&CiResult>) -> Result<SolutionBox, AnalysisError>;

    /// **Summarize capability.** Extracts whole-program
    /// [`SolverSummaries`] from `sol` (a solution this solver produced
    /// over `graph`) in the solver's own stable vocabulary. `None` when
    /// the solution cannot be summarized: unstable naming, a vocabulary
    /// the solver does not define (the demand solver), or facts rooted
    /// at synthetic bases.
    ///
    /// The default serial implementation drives the solution's
    /// [`Solution::func_extractor`]; the engine's bottom-up composition
    /// driver uses the same extractor to summarize independent
    /// call-graph subtrees in parallel.
    fn summarize(
        &self,
        graph: &Graph,
        index: &GraphIndex,
        sol: &dyn Solution,
        ci: Option<&CiResult>,
    ) -> Option<SolverSummaries> {
        summarize_serial(graph, index, sol, ci)
    }

    /// **Summarize capability.** Re-solves `graph` seeded from a
    /// previous run's summaries: clean functions' facts replay as
    /// silent seeds, only the dirty cone iterates, and the result is
    /// fixpoint-identical to a fresh solve (the subset-seeding
    /// argument, per vocabulary — see `DESIGN.md` §12).
    ///
    /// Returns `None` when this solver cannot resume from `prev` (wrong
    /// vocabulary, configuration without stable naming, rejected plan):
    /// the caller falls back to a fresh solve. `Some(Err(_))` means the
    /// resume itself exhausted a step budget — also a fresh-solve
    /// fallback, but worth distinguishing for diagnostics.
    fn resume(
        &self,
        _graph: &Graph,
        _index: &GraphIndex,
        _prev: &SolverSummaries,
        _ci: Option<&CiResult>,
    ) -> Option<Result<ResumeOutcome, AnalysisError>> {
        None
    }
}

/// Serial whole-program summary extraction via
/// [`Solution::func_extractor`]: the default [`Solver::summarize`] body
/// and the oracle the parallel composition driver cross-checks against.
pub fn summarize_serial(
    graph: &Graph,
    index: &GraphIndex,
    sol: &dyn Solution,
    ci: Option<&CiResult>,
) -> Option<SolverSummaries> {
    if index.unsafe_reason.is_some() {
        return None;
    }
    let vocab = sol.vocab()?;
    let extract = sol.func_extractor(graph, index, ci)?;
    let mut out = SolverSummaries::new(vocab);
    for f in graph.func_ids() {
        out.funcs.insert(graph.func(f).name.clone(), extract(f)?);
    }
    out.store = sol.summary_store(graph, index)?;
    Some(out)
}

/// Uniform read-side view of any solver's result.
///
/// Everything a generic consumer (metrics, spectrum tables, the
/// parallel engine) needs, implementable even by the unification-based
/// solver that has no per-program-point pair sets.
pub trait Solution: Send {
    /// The [`Solver::name`] that produced this solution.
    fn analysis(&self) -> &'static str;

    /// Total points-to pairs, for solvers with a pair representation.
    /// `None` for Steensgaard, whose solution is an ECR partition.
    fn pairs(&self) -> Option<usize>;

    /// Transfer-function applications (§4.2 `flow-in`s), if counted.
    fn flow_ins(&self) -> Option<u64>;

    /// Meet operations (§4.2 `flow-out`s), if counted.
    fn flow_outs(&self) -> Option<u64>;

    /// Emission attempts deduplicated by the committed sets (a
    /// representation statistic; scheduling-dependent). `None` when the
    /// solver does not track it.
    fn dedup_hits(&self) -> Option<u64> {
        None
    }

    /// Batched delta deliveries consumed under difference propagation.
    /// `None` for naive propagation or solvers without a delta mode.
    fn delta_batches(&self) -> Option<u64> {
        None
    }

    /// Worklist deliveries saved by batching: `flow_ins − delta_batches`,
    /// when both are known.
    fn deliveries_saved(&self) -> Option<u64> {
        match (self.flow_ins(), self.delta_batches()) {
            (Some(fi), Some(db)) => Some(fi.saturating_sub(db)),
            _ => None,
        }
    }

    /// Distinct base-locations the location input of memory-op `node`
    /// may reference — the coarsest granularity every solver supports,
    /// hence the common precision currency of the spectrum table.
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId>;

    /// Distinct base-locations the pointer value carried on `out` may
    /// reference, sorted and deduplicated. The output-level counterpart
    /// of [`Solution::loc_referent_bases`], needed by clients (the
    /// memory-safety checkers) that inspect values which are not the
    /// location input of a memory op — a `free`'s pointer argument, a
    /// `return`'s operand, an update's stored value.
    fn output_referent_bases(&self, graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId>;

    /// Path-granular referents of the location input of memory-op
    /// `node`, for solvers with a per-program-point pair
    /// representation. `None` for the unification baseline, whose
    /// solution has no per-point sets; callers (the interpreter oracle,
    /// the fuzz lattice checker) fall back to
    /// [`Solution::loc_referent_bases`].
    fn referents_at(&self, _graph: &Graph, _node: NodeId) -> Option<Vec<PathId>> {
        None
    }

    /// The interned path universe the referents are expressed in, when
    /// the representation has one. Paired with
    /// [`Solution::referents_at`]; both are `Some` or both `None`.
    fn path_universe(&self) -> Option<&PathTable> {
        None
    }

    /// Whether this (coarser) solution covers `finer` at every indirect
    /// memory reference: at each node of `graph.indirect_mem_ops()`,
    /// `finer`'s referent bases must be a subset of ours. This is the
    /// precision-lattice check (CS ⊆ k=1 ⊆ CI ⊆ Weihl) at the base
    /// granularity every solver supports. Returns `None` when the two
    /// solutions cannot be compared (reserved for future
    /// representations; the five built-in solvers always compare).
    fn covers(&self, graph: &Graph, finer: &dyn Solution) -> Option<bool> {
        for (node, _) in graph.indirect_mem_ops() {
            let coarse = self.loc_referent_bases(graph, node);
            let fine = finer.loc_referent_bases(graph, node);
            // Both sides are sorted and deduplicated by contract.
            if !fine.iter().all(|b| coarse.binary_search(b).is_ok()) {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Pair-level view, when the representation has one.
    fn as_points_to(&self) -> Option<&dyn PointsToSolution> {
        None
    }

    /// Downcast to the concrete CI result.
    ///
    /// Legacy escape hatch kept for the paper-table consumers; new code
    /// should query through [`Solution::referents_at`] and
    /// [`Solution::covers`] instead of downcasting.
    fn as_ci(&self) -> Option<&CiResult> {
        None
    }

    /// Downcast to the concrete CS result.
    ///
    /// Legacy escape hatch kept for the paper-table consumers; new code
    /// should query through [`Solution::referents_at`] and
    /// [`Solution::covers`] instead of downcasting.
    fn as_cs(&self) -> Option<&CsResult> {
        None
    }

    /// Downcast to the concrete Weihl result.
    fn as_weihl(&self) -> Option<&WeihlResult> {
        None
    }

    /// Downcast to the concrete k=1 call-string result.
    fn as_k1(&self) -> Option<&CallStringResult> {
        None
    }

    /// Downcast to the Steensgaard union-find solution.
    fn as_steens(&self) -> Option<&SteensSolution> {
        None
    }

    /// Consumes the box into the concrete CI result, for harnesses
    /// (the engine's prepare stage, the demand solver's materializer)
    /// that hold the shared-vocabulary CI solution by value. `None` for
    /// every other analysis.
    fn into_ci(self: Box<Self>) -> Option<CiResult> {
        None
    }

    /// Consumes the box into the concrete CS result, for harnesses that
    /// need the owned concrete query API. `None` for other analyses.
    fn into_cs(self: Box<Self>) -> Option<CsResult> {
        None
    }

    /// Consumes the box into the concrete Weihl result. `None` for
    /// other analyses.
    fn into_weihl(self: Box<Self>) -> Option<WeihlResult> {
        None
    }

    /// Consumes the box into the concrete k=1 call-string result.
    /// `None` for other analyses.
    fn into_k1(self: Box<Self>) -> Option<CallStringResult> {
        None
    }

    /// Consumes the box into the concrete Steensgaard result (the
    /// union-find query API needs `&mut`, hence by value). `None` for
    /// other analyses.
    fn into_steens(self: Box<Self>) -> Option<SteensResult> {
        None
    }

    /// The summary vocabulary this solution can be expressed in, `None`
    /// when it has none (the demand solver's lazy view).
    fn vocab(&self) -> Option<Vocab> {
        None
    }

    /// A `Sync` per-function summary extractor over this solution, or
    /// `None` when the solution cannot be summarized (no vocabulary, or
    /// a required companion — the CS extractor needs the CI solution it
    /// was pruned by — is missing). Drives both the serial
    /// [`summarize_serial`] and the engine's parallel bottom-up
    /// composition.
    fn func_extractor<'a>(
        &'a self,
        _graph: &'a Graph,
        _index: &'a GraphIndex,
        _ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        None
    }

    /// The program-wide store relation in stable vocabulary (Weihl
    /// only; everyone else returns an empty vec). `None` when a store
    /// fact cannot be expressed stably.
    fn summary_store(&self, _graph: &Graph, _index: &GraphIndex) -> Option<Vec<StablePair>> {
        Some(Vec::new())
    }

    /// A deep copy of the boxed solution. The incremental engine uses
    /// this to replay a cached solution without consuming the cache
    /// entry.
    fn clone_box(&self) -> SolutionBox;
}

/// Canonical rendered dump of a solution, for equivalence checks and
/// golden snapshots.
///
/// Everything is rendered to strings against `graph` and sorted, so the
/// dump is independent of solver schedule, path-id numbering, and of
/// *how* the solution was obtained (fresh, seeded resume, or cache
/// replay) — but changes whenever any answer the solution gives
/// changes. Flow counters are deliberately excluded: they describe the
/// work done, not the solution. For the CI solver the dump additionally
/// includes every per-output pair set and the discovered call graph.
pub fn solution_dump(sol: &dyn Solution, graph: &Graph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "analysis: {}", sol.analysis());
    if let Some(n) = sol.pairs() {
        let _ = writeln!(out, "pairs: {n}");
    }
    for (node, _) in graph.indirect_mem_ops() {
        let mut names: Vec<String> = match (sol.referents_at(graph, node), sol.path_universe()) {
            (Some(refs), Some(paths)) => refs.iter().map(|&p| paths.display(p, graph)).collect(),
            _ => sol
                .loc_referent_bases(graph, node)
                .iter()
                .map(|&b| crate::fingerprint::stable_base_key(graph, b))
                .collect(),
        };
        names.sort();
        names.dedup();
        let _ = writeln!(out, "op {}: [{}]", node.0, names.join(", "));
    }
    if let Some(ci) = sol.as_ci() {
        for o in graph.output_ids() {
            let prs = ci.pairs(o);
            if prs.is_empty() {
                continue;
            }
            let mut rendered: Vec<String> = prs
                .iter()
                .map(|p| {
                    format!(
                        "{} -> {}",
                        ci.paths.display(p.path, graph),
                        ci.paths.display(p.referent, graph)
                    )
                })
                .collect();
            rendered.sort();
            let _ = writeln!(out, "out {}: [{}]", o.0, rendered.join(", "));
        }
        let mut calls: Vec<String> = ci
            .callees
            .iter()
            .map(|(n, fs)| {
                let names: Vec<&str> = fs.iter().map(|&f| graph.func(f).name.as_str()).collect();
                format!("call {}: [{}]", n.0, names.join(", "))
            })
            .collect();
        calls.sort();
        for c in calls {
            let _ = writeln!(out, "{c}");
        }
    }
    out
}

/// FNV-1a digest of [`solution_dump`] — the byte-identity currency of
/// the edit-replay equivalence harness.
pub fn solution_fingerprint(sol: &dyn Solution, graph: &Graph) -> u64 {
    crate::fingerprint::fnv64(solution_dump(sol, graph).as_bytes())
}

/// Whether `a` and `b`, two solutions of the same `graph`, are the same
/// fixpoint id for id, without rendering either.
///
/// Path ids mean the same in both only when the path universes are
/// equal, so those are compared first. Pair-level solutions then compare
/// pairs output by output, and two CI results their discovered call
/// graphs too; the rest compare referents at every memory operation.
/// CI (after `finish`, resumes included) and k=1 canonicalize their
/// tables, so equal answers give equal ids. Weihl does not: its ids
/// follow the order it interned paths in, so a `false` for two Weihl
/// solutions can still come with equal [`solution_dump`]s.
pub fn same_fixpoint(graph: &Graph, a: &dyn Solution, b: &dyn Solution) -> bool {
    if a.path_universe() != b.path_universe() || a.pairs() != b.pairs() {
        return false;
    }
    if let (Some(x), Some(y)) = (a.as_ci(), b.as_ci()) {
        if x.callees != y.callees {
            return false;
        }
    }
    if let (Some(pa), Some(pb)) = (a.as_points_to(), b.as_points_to()) {
        return graph.output_ids().all(|o| pa.pairs_at(o) == pb.pairs_at(o));
    }
    graph.all_mem_ops().iter().all(|&(node, _)| {
        match (a.referents_at(graph, node), b.referents_at(graph, node)) {
            (Some(mut x), Some(mut y)) => {
                x.sort_unstable();
                y.sort_unstable();
                x == y
            }
            _ => a.loc_referent_bases(graph, node) == b.loc_referent_bases(graph, node),
        }
    })
}

/// Collapses path-granular referents to distinct bases.
fn bases_of(paths: &PathTable, refs: &[PathId]) -> Vec<BaseId> {
    let mut b: Vec<BaseId> = refs.iter().filter_map(|&p| paths.base_of(p)).collect();
    b.sort_unstable();
    b.dedup();
    b
}

/// The context-insensitive analysis (§3) as a [`Solver`].
#[derive(Debug, Clone, Default)]
pub struct CiSolver {
    /// Solver options.
    pub config: CiConfig,
}

impl Solver for CiSolver {
    fn name(&self) -> &str {
        "ci"
    }

    fn solve(&self, graph: &Graph, _ci: Option<&CiResult>) -> Result<SolutionBox, AnalysisError> {
        Ok(Box::new(analyze_ci(graph, &self.config)))
    }

    fn resume(
        &self,
        graph: &Graph,
        index: &GraphIndex,
        prev: &SolverSummaries,
        _ci: Option<&CiResult>,
    ) -> Option<Result<ResumeOutcome, AnalysisError>> {
        // Call-string heap naming keys allocations by caller, which the
        // stable vocabulary does not carry; fault injection would make
        // the seeded and fresh runs observe different graphs.
        if self.config.heap_naming != HeapNaming::Site || self.config.fault != Fault::None {
            return None;
        }
        let plan = plan_ci_resume(graph, index, prev)?;
        let stats = ResumeStats {
            dirty: {
                let mut d: Vec<String> = plan
                    .dirty
                    .iter()
                    .map(|f| graph.func(*f).name.clone())
                    .collect();
                d.sort_unstable();
                d
            },
            clean: graph.func_count() - plan.dirty.len(),
            cone_outputs: plan.cone_outputs,
            seeded_outputs: plan.seeded_outputs,
            total_outputs: graph.output_count(),
        };
        let result = analyze_ci_resume(graph, &self.config, plan);
        Some(Ok(ResumeOutcome {
            solution: Box::new(result),
            stats,
        }))
    }
}

impl Solution for CiResult {
    fn analysis(&self) -> &'static str {
        "ci"
    }
    fn pairs(&self) -> Option<usize> {
        Some(self.total_pairs())
    }
    fn flow_ins(&self) -> Option<u64> {
        Some(self.flow_ins)
    }
    fn flow_outs(&self) -> Option<u64> {
        Some(self.flow_outs)
    }
    fn dedup_hits(&self) -> Option<u64> {
        Some(self.dedup_hits)
    }
    fn delta_batches(&self) -> Option<u64> {
        self.delta_batches
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        bases_of(&self.paths, &self.loc_referents(graph, node))
    }
    fn output_referent_bases(&self, _graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let refs: Vec<PathId> = self.pairs(out).iter().map(|p| p.referent).collect();
        bases_of(&self.paths, &refs)
    }
    fn referents_at(&self, graph: &Graph, node: NodeId) -> Option<Vec<PathId>> {
        Some(self.loc_referents(graph, node))
    }
    fn path_universe(&self) -> Option<&PathTable> {
        Some(&self.paths)
    }
    fn as_points_to(&self) -> Option<&dyn PointsToSolution> {
        Some(self)
    }
    fn as_ci(&self) -> Option<&CiResult> {
        Some(self)
    }
    fn into_ci(self: Box<Self>) -> Option<CiResult> {
        Some(*self)
    }
    fn vocab(&self) -> Option<Vocab> {
        Some(Vocab::Ci)
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        _ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        Some(Box::new(move |f| {
            crate::fingerprint::extract_ci_func(graph, index, self, f)
        }))
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(self.clone())
    }
}

/// The assumption-set context-sensitive analysis (§4) as a [`Solver`].
#[derive(Debug, Clone, Default)]
pub struct CsSolver {
    /// Solver options.
    pub config: CsConfig,
}

impl Solver for CsSolver {
    fn name(&self) -> &str {
        "cs"
    }

    fn solve(&self, graph: &Graph, ci: Option<&CiResult>) -> Result<SolutionBox, AnalysisError> {
        let run = |ci: &CiResult| -> Result<SolutionBox, AnalysisError> {
            let cs = analyze_cs(graph, ci, &self.config)?;
            Ok(Box::new(cs) as SolutionBox)
        };
        match ci {
            Some(ci) => run(ci),
            // No shared CI: compute one with matching knobs, since
            // pruning requires heap naming and strong updates to agree.
            None => run(&analyze_ci(
                graph,
                &CiConfig {
                    strong_updates: self.config.strong_updates,
                    heap_naming: self.config.heap_naming,
                    ..CiConfig::default()
                },
            )),
        }
    }

    fn resume(
        &self,
        graph: &Graph,
        index: &GraphIndex,
        prev: &SolverSummaries,
        ci: Option<&CiResult>,
    ) -> Option<Result<ResumeOutcome, AnalysisError>> {
        // The seeded CS needs the *current* CI companion both for
        // pruning and for the pruning-drift check; compute one with
        // matching knobs if the caller has none, exactly as `solve`.
        let owned;
        let ci = match ci {
            Some(ci) => ci,
            None => {
                owned = analyze_ci(
                    graph,
                    &CiConfig {
                        strong_updates: self.config.strong_updates,
                        heap_naming: self.config.heap_naming,
                        ..CiConfig::default()
                    },
                );
                &owned
            }
        };
        match crate::cs::analyze_cs_resume(graph, index, ci, prev, &self.config)? {
            Ok((result, stats)) => Some(Ok(ResumeOutcome {
                solution: Box::new(result),
                stats,
            })),
            Err(e) => Some(Err(e.into())),
        }
    }
}

impl Solution for CsResult {
    fn analysis(&self) -> &'static str {
        "cs"
    }
    fn pairs(&self) -> Option<usize> {
        Some(self.total_pairs())
    }
    fn flow_ins(&self) -> Option<u64> {
        Some(self.flow_ins)
    }
    fn flow_outs(&self) -> Option<u64> {
        Some(self.flow_outs)
    }
    fn dedup_hits(&self) -> Option<u64> {
        Some(self.dedup_hits)
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        bases_of(&self.paths, &self.loc_referents(graph, node))
    }
    fn output_referent_bases(&self, _graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let refs: Vec<PathId> = self.pairs_at(out).iter().map(|p| p.referent).collect();
        bases_of(&self.paths, &refs)
    }
    fn referents_at(&self, graph: &Graph, node: NodeId) -> Option<Vec<PathId>> {
        Some(self.loc_referents(graph, node))
    }
    fn path_universe(&self) -> Option<&PathTable> {
        Some(&self.paths)
    }
    fn as_points_to(&self) -> Option<&dyn PointsToSolution> {
        Some(self)
    }
    fn as_cs(&self) -> Option<&CsResult> {
        Some(self)
    }
    fn into_cs(self: Box<Self>) -> Option<CsResult> {
        Some(*self)
    }
    fn vocab(&self) -> Option<Vocab> {
        Some(Vocab::Cs)
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        // The extractor records the CI pruning facts each memory
        // operation was solved under, so the CI companion is required.
        let ci = ci?;
        Some(Box::new(move |f| {
            crate::cs::extract_func(self, graph, index, ci, f)
        }))
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(self.clone())
    }
}

/// Weihl's program-wide flow-insensitive baseline as a [`Solver`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WeihlSolver {
    /// Worklist discipline (delta by default).
    pub propagation: Propagation,
}

impl Solver for WeihlSolver {
    fn name(&self) -> &str {
        "weihl"
    }

    fn solve(&self, graph: &Graph, ci: Option<&CiResult>) -> Result<SolutionBox, AnalysisError> {
        let paths = match ci {
            Some(ci) => ci.paths.clone(),
            None => PathTable::for_graph(graph),
        };
        Ok(Box::new(analyze_weihl_with(graph, paths, self.propagation)))
    }

    fn resume(
        &self,
        graph: &Graph,
        index: &GraphIndex,
        prev: &SolverSummaries,
        ci: Option<&CiResult>,
    ) -> Option<Result<ResumeOutcome, AnalysisError>> {
        let paths = match ci {
            Some(ci) => ci.paths.clone(),
            None => PathTable::for_graph(graph),
        };
        let (result, stats) =
            crate::weihl::analyze_weihl_resume(graph, index, prev, paths, self.propagation)?;
        Some(Ok(ResumeOutcome {
            solution: Box::new(result),
            stats,
        }))
    }
}

impl Solution for WeihlResult {
    fn analysis(&self) -> &'static str {
        "weihl"
    }
    fn pairs(&self) -> Option<usize> {
        Some(self.total_pairs())
    }
    fn flow_ins(&self) -> Option<u64> {
        Some(self.flow_ins)
    }
    fn flow_outs(&self) -> Option<u64> {
        Some(self.flow_outs)
    }
    fn dedup_hits(&self) -> Option<u64> {
        Some(self.dedup_hits)
    }
    fn delta_batches(&self) -> Option<u64> {
        self.delta_batches
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        bases_of(&self.paths, &self.loc_referents(graph, node))
    }
    fn output_referent_bases(&self, _graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let refs: Vec<PathId> = self.value_pairs(out).iter().map(|p| p.referent).collect();
        bases_of(&self.paths, &refs)
    }
    fn referents_at(&self, graph: &Graph, node: NodeId) -> Option<Vec<PathId>> {
        Some(self.loc_referents(graph, node))
    }
    fn path_universe(&self) -> Option<&PathTable> {
        Some(&self.paths)
    }
    fn as_weihl(&self) -> Option<&WeihlResult> {
        Some(self)
    }
    fn into_weihl(self: Box<Self>) -> Option<WeihlResult> {
        Some(*self)
    }
    fn vocab(&self) -> Option<Vocab> {
        Some(Vocab::Weihl)
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        _ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        Some(Box::new(move |f| {
            crate::weihl::extract_func(self, graph, index, f)
        }))
    }
    fn summary_store(&self, graph: &Graph, index: &GraphIndex) -> Option<Vec<StablePair>> {
        crate::weihl::extract_store(self, graph, index)
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(self.clone())
    }
}

/// Steensgaard's unification baseline as a [`Solver`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SteensgaardSolver;

impl Solver for SteensgaardSolver {
    fn name(&self) -> &str {
        "steensgaard"
    }

    fn solve(&self, graph: &Graph, _ci: Option<&CiResult>) -> Result<SolutionBox, AnalysisError> {
        Ok(Box::new(SteensSolution {
            inner: RefCell::new(analyze_steensgaard(graph)),
        }))
    }

    fn resume(
        &self,
        graph: &Graph,
        index: &GraphIndex,
        prev: &SolverSummaries,
        _ci: Option<&CiResult>,
    ) -> Option<Result<ResumeOutcome, AnalysisError>> {
        let (result, stats) = crate::steensgaard::replay_steensgaard(graph, index, prev)?;
        Some(Ok(ResumeOutcome {
            solution: Box::new(SteensSolution {
                inner: RefCell::new(result),
            }),
            stats,
        }))
    }
}

/// [`SteensResult`] behind the uniform view. Union-find queries compress
/// paths, so the interior is mutable; the `RefCell` keeps the shared
/// `&self` query API of the other solutions.
pub struct SteensSolution {
    inner: RefCell<SteensResult>,
}

impl SteensSolution {
    /// The wrapped union-find result, cloned out for callers that need
    /// the concrete query API.
    pub fn to_steens(&self) -> SteensResult {
        self.inner.borrow().clone()
    }
}

impl Solution for SteensSolution {
    fn analysis(&self) -> &'static str {
        "steensgaard"
    }
    fn pairs(&self) -> Option<usize> {
        None
    }
    fn flow_ins(&self) -> Option<u64> {
        None
    }
    fn flow_outs(&self) -> Option<u64> {
        None
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        let mut bases = self.inner.borrow_mut().loc_bases(graph, node);
        bases.sort_unstable();
        bases.dedup();
        bases
    }
    fn output_referent_bases(&self, graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let mut bases = self.inner.borrow_mut().points_to_bases(out, graph);
        bases.sort_unstable();
        bases.dedup();
        bases
    }
    fn as_steens(&self) -> Option<&SteensSolution> {
        Some(self)
    }
    fn into_steens(self: Box<Self>) -> Option<SteensResult> {
        Some(self.inner.into_inner())
    }
    fn vocab(&self) -> Option<Vocab> {
        Some(Vocab::Steens)
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        _ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        // Purely syntactic: the atoms come from the graph alone, so the
        // closure captures no union-find state and is trivially `Sync`.
        Some(Box::new(move |f| {
            Some(crate::steensgaard::extract_func(graph, index, f))
        }))
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(SteensSolution {
            inner: RefCell::new(self.inner.borrow().clone()),
        })
    }
}

/// The k=1 call-string analysis as a [`Solver`].
#[derive(Debug, Clone, Default)]
pub struct CallStringSolver {
    /// Solver options.
    pub config: CallStringConfig,
}

impl Solver for CallStringSolver {
    fn name(&self) -> &str {
        "k1"
    }

    fn solve(&self, graph: &Graph, ci: Option<&CiResult>) -> Result<SolutionBox, AnalysisError> {
        let paths = match ci {
            Some(ci) => ci.paths.clone(),
            None => PathTable::for_graph(graph),
        };
        let k1 = analyze_callstring_from(graph, paths, &self.config)?;
        Ok(Box::new(k1))
    }

    fn resume(
        &self,
        graph: &Graph,
        index: &GraphIndex,
        prev: &SolverSummaries,
        ci: Option<&CiResult>,
    ) -> Option<Result<ResumeOutcome, AnalysisError>> {
        let paths = match ci {
            Some(ci) => ci.paths.clone(),
            None => PathTable::for_graph(graph),
        };
        match crate::callstring::analyze_callstring_resume(graph, index, prev, paths, &self.config)?
        {
            Ok((result, stats)) => Some(Ok(ResumeOutcome {
                solution: Box::new(result),
                stats,
            })),
            Err(e) => Some(Err(e.into())),
        }
    }
}

impl Solution for CallStringResult {
    fn analysis(&self) -> &'static str {
        "k1"
    }
    fn pairs(&self) -> Option<usize> {
        Some(self.total_pairs())
    }
    fn flow_ins(&self) -> Option<u64> {
        Some(self.flow_ins)
    }
    fn flow_outs(&self) -> Option<u64> {
        Some(self.flow_outs)
    }
    fn dedup_hits(&self) -> Option<u64> {
        Some(self.dedup_hits)
    }
    fn delta_batches(&self) -> Option<u64> {
        self.delta_batches
    }
    fn loc_referent_bases(&self, graph: &Graph, node: NodeId) -> Vec<BaseId> {
        bases_of(&self.paths, &self.loc_referents(graph, node))
    }
    fn output_referent_bases(&self, _graph: &Graph, out: vdg::graph::OutputId) -> Vec<BaseId> {
        let refs: Vec<PathId> = self.pairs(out).iter().map(|p| p.referent).collect();
        bases_of(&self.paths, &refs)
    }
    fn referents_at(&self, graph: &Graph, node: NodeId) -> Option<Vec<PathId>> {
        Some(self.loc_referents(graph, node))
    }
    fn path_universe(&self) -> Option<&PathTable> {
        Some(&self.paths)
    }
    fn as_points_to(&self) -> Option<&dyn PointsToSolution> {
        Some(self)
    }
    fn as_k1(&self) -> Option<&CallStringResult> {
        Some(self)
    }
    fn into_k1(self: Box<Self>) -> Option<CallStringResult> {
        Some(*self)
    }
    fn vocab(&self) -> Option<Vocab> {
        Some(Vocab::K1)
    }
    fn func_extractor<'a>(
        &'a self,
        graph: &'a Graph,
        index: &'a GraphIndex,
        _ci: Option<&'a CiResult>,
    ) -> Option<FuncExtractor<'a>> {
        Some(Box::new(move |f| {
            crate::callstring::extract_func(self, graph, index, f)
        }))
    }
    fn clone_box(&self) -> SolutionBox {
        Box::new(self.clone())
    }
}

/// Which of the five analyses a [`SolverSpec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Weihl's program-wide flow-insensitive baseline.
    Weihl,
    /// Steensgaard's unification baseline.
    Steensgaard,
    /// The context-insensitive analysis (§3).
    Ci,
    /// The k=1 call-string analysis.
    CallString1,
    /// The assumption-set context-sensitive analysis (§4).
    Cs,
    /// The demand-driven point-query view of the CI analysis. Not part
    /// of [`SolverSpec::all`]: it answers queries, not spectra.
    Demand,
}

impl SolverKind {
    /// Stable machine-readable name, matching [`Solver::name`].
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Weihl => "weihl",
            SolverKind::Steensgaard => "steensgaard",
            SolverKind::Ci => "ci",
            SolverKind::CallString1 => "k1",
            SolverKind::Cs => "cs",
            SolverKind::Demand => "demand",
        }
    }
}

/// One builder-style description of any solver configuration.
///
/// Collapses the per-solver config scatter (`CiConfig`, `CsConfig`,
/// `CallStringConfig`, the `Propagation` knob, step budgets) into a
/// single value that every harness — the engine, the CLI `spectrum`,
/// the figure bins, the fuzzer — constructs solvers from, so no caller
/// hard-codes five call sites again. Knobs a given analysis does not
/// have are simply ignored by [`SolverSpec::build`]:
///
/// ```
/// use alias::SolverSpec;
/// let spec = SolverSpec::cs().subsumption(false).max_steps(1_000_000);
/// let solver = spec.build(); // Box<dyn Solver>
/// assert_eq!(solver.name(), "cs");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverSpec {
    kind: SolverKind,
    strong_updates: bool,
    order: WorklistOrder,
    heap_naming: HeapNaming,
    propagation: Propagation,
    subsumption: bool,
    ci_pruning: bool,
    max_steps: u64,
    fault: Fault,
}

impl SolverSpec {
    /// A spec for `kind` with the paper-default knobs.
    pub fn new(kind: SolverKind) -> SolverSpec {
        let cs = CsConfig::default();
        SolverSpec {
            kind,
            strong_updates: true,
            order: WorklistOrder::default(),
            heap_naming: HeapNaming::default(),
            propagation: Propagation::default(),
            subsumption: cs.subsumption,
            ci_pruning: cs.ci_pruning,
            max_steps: cs.max_steps,
            fault: Fault::None,
        }
    }

    /// The context-insensitive analysis (§3), default knobs.
    pub fn ci() -> SolverSpec {
        SolverSpec::new(SolverKind::Ci)
    }

    /// The assumption-set CS analysis (§4), default knobs.
    pub fn cs() -> SolverSpec {
        SolverSpec::new(SolverKind::Cs)
    }

    /// Weihl's flow-insensitive baseline, default knobs.
    pub fn weihl() -> SolverSpec {
        SolverSpec::new(SolverKind::Weihl)
    }

    /// Steensgaard's unification baseline (no knobs).
    pub fn steensgaard() -> SolverSpec {
        SolverSpec::new(SolverKind::Steensgaard)
    }

    /// The k=1 call-string analysis, default knobs.
    pub fn k1() -> SolverSpec {
        SolverSpec::new(SolverKind::CallString1)
    }

    /// The demand-driven CI query solver, default knobs and budgets.
    pub fn demand() -> SolverSpec {
        SolverSpec::new(SolverKind::Demand)
    }

    /// Looks up a default spec by [`Solver::name`].
    pub fn by_name(name: &str) -> Option<SolverSpec> {
        let kind = match name {
            "weihl" => SolverKind::Weihl,
            "steensgaard" => SolverKind::Steensgaard,
            "ci" => SolverKind::Ci,
            "k1" => SolverKind::CallString1,
            "cs" => SolverKind::Cs,
            "demand" => SolverKind::Demand,
            _ => return None,
        };
        Some(SolverSpec::new(kind))
    }

    /// All five analyses with default knobs, in spectrum order —
    /// coarsest (Weihl) to finest (assumption-set CS).
    pub fn all() -> Vec<SolverSpec> {
        [
            SolverKind::Weihl,
            SolverKind::Steensgaard,
            SolverKind::Ci,
            SolverKind::CallString1,
            SolverKind::Cs,
        ]
        .into_iter()
        .map(SolverSpec::new)
        .collect()
    }

    /// All five analyses with difference propagation disabled wherever
    /// a solver has that knob (CI, Weihl, k=1). Steensgaard and the
    /// assumption-set CS analysis have no naive/delta distinction.
    pub fn all_naive() -> Vec<SolverSpec> {
        SolverSpec::all()
            .into_iter()
            .map(|s| s.propagation(Propagation::Naive))
            .collect()
    }

    /// Which analysis this spec describes.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// The spec's [`Solver::name`].
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// A stable textual key over every knob, for cache maps keyed by
    /// solver configuration. Two specs share a key iff they are equal.
    pub fn key(&self) -> String {
        format!("{self:?}")
    }

    /// Perform strong updates (CI, CS, k=1).
    pub fn strong_updates(mut self, on: bool) -> SolverSpec {
        self.strong_updates = on;
        self
    }

    /// Worklist discipline (CI; results are order-independent).
    pub fn order(mut self, order: WorklistOrder) -> SolverSpec {
        self.order = order;
        self
    }

    /// Heap allocation-site naming (CI, CS).
    pub fn heap_naming(mut self, naming: HeapNaming) -> SolverSpec {
        self.heap_naming = naming;
        self
    }

    /// Propagation discipline (CI, Weihl, k=1; results are
    /// discipline-independent).
    pub fn propagation(mut self, propagation: Propagation) -> SolverSpec {
        self.propagation = propagation;
        self
    }

    /// Assumption-set subsumption (CS, §4.2).
    pub fn subsumption(mut self, on: bool) -> SolverSpec {
        self.subsumption = on;
        self
    }

    /// CI-backed assumption pruning (CS, §4.2).
    pub fn ci_pruning(mut self, on: bool) -> SolverSpec {
        self.ci_pruning = on;
        self
    }

    /// Step budget for the potentially exponential solvers (CS, k=1).
    pub fn max_steps(mut self, steps: u64) -> SolverSpec {
        self.max_steps = steps;
        self
    }

    /// Fault injection (CI only), for the fuzzer's planted-bug
    /// self-test. Keep [`Fault::None`] everywhere else.
    pub fn fault(mut self, fault: Fault) -> SolverSpec {
        self.fault = fault;
        self
    }

    /// The spec's knobs projected onto a [`CiConfig`].
    pub fn ci_config(&self) -> CiConfig {
        CiConfig {
            strong_updates: self.strong_updates,
            order: self.order,
            heap_naming: self.heap_naming,
            propagation: self.propagation,
            fault: self.fault,
        }
    }

    /// The spec's knobs projected onto a [`CsConfig`].
    pub fn cs_config(&self) -> CsConfig {
        CsConfig {
            heap_naming: self.heap_naming,
            subsumption: self.subsumption,
            ci_pruning: self.ci_pruning,
            strong_updates: self.strong_updates,
            max_steps: self.max_steps,
        }
    }

    /// The spec's knobs projected onto a [`CallStringConfig`].
    pub fn callstring_config(&self) -> CallStringConfig {
        CallStringConfig {
            strong_updates: self.strong_updates,
            max_steps: self.max_steps,
            propagation: self.propagation,
        }
    }

    /// Constructs the described solver. Knobs the analysis does not
    /// have are ignored.
    pub fn build(&self) -> Box<dyn Solver> {
        match self.kind {
            SolverKind::Weihl => Box::new(WeihlSolver {
                propagation: self.propagation,
            }),
            SolverKind::Steensgaard => Box::new(SteensgaardSolver),
            SolverKind::Ci => Box::new(CiSolver {
                config: self.ci_config(),
            }),
            SolverKind::CallString1 => Box::new(CallStringSolver {
                config: self.callstring_config(),
            }),
            SolverKind::Cs => Box::new(CsSolver {
                config: self.cs_config(),
            }),
            SolverKind::Demand => Box::new(crate::demand::DemandSolver {
                config: crate::demand::DemandConfig {
                    ci: self.ci_config(),
                    ..crate::demand::DemandConfig::default()
                },
            }),
        }
    }

    /// Runs the described solver, like `self.build().solve(..)` but
    /// without the intermediate box.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::StepLimit`] when a budgeted solver (CS, k=1)
    /// exhausts [`SolverSpec::max_steps`].
    pub fn solve(
        &self,
        graph: &Graph,
        ci: Option<&CiResult>,
    ) -> Result<SolutionBox, AnalysisError> {
        self.build().solve(graph, ci)
    }

    /// Runs the CI analysis with this spec's knobs through the unified
    /// solver path and hands back the concrete result — the one typed
    /// entry point harnesses use to compute the shared vocabulary they
    /// then pass to [`SolverSpec::solve`]. The spec's
    /// [`SolverSpec::kind`] is ignored: whatever analysis it names, the
    /// CI projection of its knobs is what runs.
    pub fn solve_ci(&self, graph: &Graph) -> CiResult {
        SolverSpec::new(SolverKind::Ci)
            .strong_updates(self.strong_updates)
            .order(self.order)
            .heap_naming(self.heap_naming)
            .propagation(self.propagation)
            .fault(self.fault)
            .solve(graph, None)
            .expect("the CI solver has no step budget")
            .into_ci()
            .expect("a CI solve yields a CI result")
    }
}

/// All five solvers with default options, in spectrum order — coarsest
/// (Weihl) to finest (assumption-set CS).
pub fn all_solvers() -> Vec<Box<dyn Solver>> {
    SolverSpec::all().iter().map(SolverSpec::build).collect()
}

/// All five solvers with difference propagation disabled wherever a
/// solver has that knob (CI, Weihl, k=1). Steensgaard and the
/// assumption-set CS analysis have no naive/delta distinction.
pub fn all_solvers_naive() -> Vec<Box<dyn Solver>> {
    SolverSpec::all_naive()
        .iter()
        .map(SolverSpec::build)
        .collect()
}

/// Looks up a solver (default options) by its [`Solver::name`].
pub fn solver_by_name(name: &str) -> Option<Box<dyn Solver>> {
    SolverSpec::by_name(name).map(|s| s.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> Graph {
        let p = cfront::compile(src).unwrap();
        vdg::lower(&p, &vdg::BuildOptions::default()).unwrap()
    }

    const SRC: &str = "int g; int h; int *gp;
        int pick(int c, int *a, int *b) { if (c) { gp = a; } else { gp = b; } return *gp; }
        int main(void) { int x; x = pick(1, &g, &h); return x; }";

    #[test]
    fn registry_has_five_distinct_solvers() {
        let names: Vec<String> = all_solvers().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, ["weihl", "steensgaard", "ci", "k1", "cs"]);
        assert!(solver_by_name("cs").is_some());
        assert!(solver_by_name("andersen").is_none());
    }

    #[test]
    fn every_solver_produces_a_queryable_solution() {
        let graph = graph_of(SRC);
        let ci = analyze_ci(&graph, &CiConfig::default());
        for s in all_solvers() {
            let sol = s.solve(&graph, Some(&ci)).unwrap();
            assert_eq!(sol.analysis(), s.name());
            for (node, _) in graph.indirect_mem_ops() {
                assert!(
                    !sol.loc_referent_bases(&graph, node).is_empty(),
                    "{}: no referents",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn cs_without_shared_ci_computes_its_own() {
        let graph = graph_of(SRC);
        let ci = analyze_ci(&graph, &CiConfig::default());
        let with = CsSolver::default().solve(&graph, Some(&ci)).unwrap();
        let without = CsSolver::default().solve(&graph, None).unwrap();
        assert_eq!(with.pairs(), without.pairs());
    }
}
