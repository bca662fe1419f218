//! Incremental re-analysis with memoized per-function summaries.
//!
//! An incremental run answers "the same jobs, after an edit" without
//! repeating work that the edit provably did not invalidate. Three
//! reuse tiers, cheapest first:
//!
//! 1. **Source replay** — the job's source text hashes identically to
//!    the cached run: every artifact (program, graph, CI solution, all
//!    solver solutions) replays verbatim. Nothing is recompiled.
//! 2. **Graph replay** — the source changed but the lowered VDG's
//!    content fingerprint is unchanged (comment, whitespace, or
//!    literal-only edits: `ScalarConst` carries no payload). Equal
//!    graph fingerprints mean the graphs are isomorphic id-for-id, so
//!    every cached solution is still exact and replays verbatim.
//! 3. **Seeded resume** — the graph changed. Functions are
//!    re-fingerprinted; fingerprint-matched functions contribute their
//!    memoized [`SolverSummaries`] facts as seeds, the dirty cone
//!    (changed functions plus everything their facts can reach) is
//!    re-solved from a delta worklist, and the per-vocabulary
//!    subset-seeding argument (`DESIGN.md` §12) guarantees the result
//!    is numerically identical to a from-scratch solve.
//!
//! **All five solvers support tier 3** through the uniform
//! [`Solver::resume`] capability: each resumes from summaries in its
//! own stable vocabulary (CI/Weihl pair rows, k=1 per-context rows, CS
//! qualified antichains, Steensgaard constraint atoms). A solver that
//! cannot resume a particular edit — unstable naming, a configuration
//! without stable summaries, a rejected plan — falls back to a fresh
//! solve with the typed [`FreshReason`] recorded in its [`SolveMode`].
//!
//! An incremental run is the engine's one pipeline ([`Engine::run`])
//! given a cache. Tiers 1–2 and CI's resume are decided in its stage 1,
//! every other solver resumes in its stage 2, and stage 3 folds the
//! solved benchmarks back into the cache.
//!
//! Reuse is sound only when the same [`Engine`] configuration produced
//! the cached facts; the cache records the engine's full solver spec
//! key and resets itself when it changes.

use crate::report::IncrementalStats;
use crate::{compose, BenchOutput, Engine, EngineRun, Job, Tier};
use alias::ci::CiResult;
use alias::fingerprint::{fnv64, GraphIndex};
use alias::solver::{solution_fingerprint, Solution, SolutionBox, Solver};
use alias::summary::{ResumeStats, SolverSummaries};
use alias::{AnalysisError, Fault, HeapNaming};
use std::collections::HashMap;
use std::sync::Arc;
use vdg::graph::Graph;

/// Why a solver solved from scratch instead of reusing cached facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreshReason {
    /// No cached run for this benchmark.
    NoCache,
    /// The engine's solver spec changed, invalidating the whole cache.
    SpecChange,
    /// The benchmark was cached, but a replayed solution for this
    /// solver was not (newly configured, or failed last time).
    NotInCache,
    /// The cache entry carries no summaries in this solver's
    /// vocabulary.
    NoSummaries,
    /// Call-string heap naming keys heap paths to call sites, defeating
    /// stable cross-edit summaries.
    HeapNaming,
    /// Fault injection is active; planted bugs must not be masked by
    /// cached facts.
    FaultInjection,
    /// The graph's naming is unstable (the recorded reason), so
    /// function fingerprints cannot be trusted across edits.
    UnstableNaming(String),
    /// No function's fingerprint survived the edit; seeding would win
    /// nothing.
    EveryFunctionChanged,
    /// The solver rejected the resume plan (vocabulary mismatch, facts
    /// outside the stable vocabulary, …).
    PlanRejected,
    /// The resume itself exhausted the solver's step budget.
    StepBudget,
}

impl FreshReason {
    /// Compact report rendering.
    pub fn render(&self) -> String {
        match self {
            FreshReason::NoCache => "no cached run for this benchmark".into(),
            FreshReason::SpecChange => "solver spec changed".into(),
            FreshReason::NotInCache => "not in cache".into(),
            FreshReason::NoSummaries => "no summaries for this solver".into(),
            FreshReason::HeapNaming => "call-string heap naming defeats stable summaries".into(),
            FreshReason::FaultInjection => "fault injection active".into(),
            FreshReason::UnstableNaming(r) => format!("unstable naming: {r}"),
            FreshReason::EveryFunctionChanged => "every function changed".into(),
            FreshReason::PlanRejected => "resume plan rejected".into(),
            FreshReason::StepBudget => "resume exhausted its step budget".into(),
        }
    }
}

/// How an incremental run obtained one solver's solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveMode {
    /// Replayed verbatim from the cache (source or graph fingerprint
    /// match).
    Replay,
    /// Resumed from summaries with an *empty* dirty cone: every
    /// function's facts replayed as seeds (an edit, such as renaming a
    /// local, that changed the graph fingerprint but no function's).
    Reseeded {
        /// Outputs seeded from the previous summaries.
        seeded_outputs: usize,
        /// Total value outputs in the graph.
        total_outputs: usize,
    },
    /// Resumed from summaries: clean functions seeded, the dirty cone
    /// re-solved.
    DirtyCone {
        /// Functions whose fingerprints (or fact translation) changed.
        dirty: usize,
        /// Functions whose memoized summaries were reused as seeds.
        clean: usize,
        /// Value outputs inside the dirty cone (re-solved).
        cone_outputs: usize,
        /// Outputs seeded from the previous summaries.
        seeded_outputs: usize,
        /// Total value outputs in the graph.
        total_outputs: usize,
    },
    /// Solved from scratch, with the typed reason.
    Fresh {
        /// Why cached facts could not be used.
        why: FreshReason,
    },
}

impl SolveMode {
    /// The mode a successful [`Solver::resume`] outcome reports.
    pub fn from_stats(stats: &ResumeStats) -> SolveMode {
        if stats.dirty.is_empty() {
            SolveMode::Reseeded {
                seeded_outputs: stats.seeded_outputs,
                total_outputs: stats.total_outputs,
            }
        } else {
            SolveMode::DirtyCone {
                dirty: stats.dirty.len(),
                clean: stats.clean,
                cone_outputs: stats.cone_outputs,
                seeded_outputs: stats.seeded_outputs,
                total_outputs: stats.total_outputs,
            }
        }
    }

    /// Whether the solution came out of a seeded resume (either
    /// flavor).
    pub fn is_resumed(&self) -> bool {
        matches!(
            self,
            SolveMode::Reseeded { .. } | SolveMode::DirtyCone { .. }
        )
    }

    /// Compact report rendering: `"replayed"`,
    /// `"reseeded(seeded=800/840)"`,
    /// `"seeded(dirty=1/9, cone=120/840)"`, or `"fresh(<reason>)"`.
    pub fn render(&self) -> String {
        match self {
            SolveMode::Replay => "replayed".into(),
            SolveMode::Reseeded {
                seeded_outputs,
                total_outputs,
            } => format!("reseeded(seeded={seeded_outputs}/{total_outputs})"),
            SolveMode::DirtyCone {
                dirty,
                clean,
                cone_outputs,
                total_outputs,
                ..
            } => format!(
                "seeded(dirty={dirty}/{}, cone={cone_outputs}/{total_outputs})",
                dirty + clean
            ),
            SolveMode::Fresh { why } => format!("fresh({})", why.render()),
        }
    }
}

/// One solver's memoized fingerprints: `(analysis, canonical solution
/// fingerprint, pair count)`, `None` where the solve failed (or, for
/// the pair count, where the solver keeps no pairs).
pub type SolverFps = (String, Option<u64>, Option<u64>);

/// One benchmark's record in a [`SummaryCache`]: the job it was last
/// analyzed for, its memoized summaries and solutions, and the
/// fingerprints and check rows derived from them.
pub struct ProgramEntry {
    /// The job's source text.
    pub source: String,
    /// The job's interpreter input. The analysis ignores it; only the
    /// checker oracle runs on it.
    pub input: Vec<u8>,
    /// FNV-64 of `source`.
    pub source_hash: u64,
    /// VDG content fingerprint.
    pub graph_fp: u64,
    /// Memoized per-solver summaries by [`Solver::name`]. Matching
    /// stays content-addressed — a summary seeds a next-graph function
    /// only when its recorded fingerprint (which hashes the name and
    /// full VDG shape) matches — but the planners also need the
    /// *unmatched* summaries, to invalidate the callees of edited and
    /// deleted functions.
    pub summaries: HashMap<String, Arc<SolverSummaries>>,
    /// The live run's artifacts, which tiers 1–2 replay.
    arts: EntryArtifacts,
    /// Per-solver fingerprints in the run's solver order, filled on
    /// first use ([`SummaryCache::fingerprinted`]) and kept across
    /// tier-1 and tier-2 replays: a replayed solution is the one
    /// fingerprinted before. A tier-3 re-solve clears it.
    pub fps: Option<Vec<SolverFps>>,
    /// The oracle-labelled check rows (see [`crate::check`]).
    pub(crate) checks: Option<EntryChecks>,
}

/// The check memo of a [`ProgramEntry`]. It is valid only while the
/// entry's source hash and input are the ones the rows were labelled
/// under: the oracle runs the program on that input.
pub(crate) struct EntryChecks {
    pub(crate) source_hash: u64,
    pub(crate) input: Vec<u8>,
    /// Per-solver rows; `None` when only the fingerprint was restored
    /// from a store ([`SummaryCache::restore_check_fp`]).
    pub(crate) rows: Option<Vec<checker::PrecisionRow>>,
    /// [`crate::check::check_fingerprint`] of the rows.
    pub(crate) fp: u64,
}

impl ProgramEntry {
    /// The diagnostics fingerprint of the entry's current source and
    /// input, when a check labelled them.
    pub fn check_fp(&self) -> Option<u64> {
        self.checks
            .as_ref()
            .filter(|c| c.source_hash == self.source_hash && c.input == self.input)
            .map(|c| c.fp)
    }

    /// The lowered graph.
    pub fn graph(&self) -> &Graph {
        &self.arts.graph
    }

    /// The cached solution of `analysis`, when its solve succeeded.
    pub fn solution(&self, analysis: &str) -> Option<&dyn Solution> {
        self.arts.solutions.get(analysis).map(|s| s.as_ref())
    }
}

/// Fingerprints every solution of `b`, in its solver order.
pub fn solution_fps(b: &BenchOutput) -> Vec<SolverFps> {
    b.solutions
        .iter()
        .map(|s| {
            let sol = s.solution.as_deref();
            (
                s.analysis.clone(),
                sol.map(|sol| solution_fingerprint(sol, &b.graph)),
                sol.and_then(|sol| sol.pairs()).map(|p| p as u64),
            )
        })
        .collect()
}

/// The replay-grade artifacts of a [`ProgramEntry`]: everything tiers
/// 1–2 hand back verbatim.
struct EntryArtifacts {
    program: Arc<cfront::Program>,
    graph: Arc<Graph>,
    ci: Arc<CiResult>,
    /// Cached solver solutions by analysis name. `SolutionBox` is
    /// `Send` but not `Sync`, so these live and replay on the driver
    /// thread only.
    solutions: HashMap<String, SolutionBox>,
}

/// Persistent in-memory cache of per-function summaries and solutions,
/// keyed by benchmark name. Feed it successive runs with
/// [`Engine::analyze_incremental_with`] to analyze an edit chain.
pub struct SummaryCache {
    spec_key: String,
    entries: HashMap<String, ProgramEntry>,
}

impl SummaryCache {
    /// Number of benchmarks with cached artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no benchmark.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The engine solver-spec key this cache's facts were computed
    /// under (the CI spec plus every configured solver spec).
    /// Persistent stores record it so stored fingerprints are only
    /// compared against an engine with the same solver knobs.
    pub fn spec_key(&self) -> &str {
        &self.spec_key
    }

    /// One benchmark's entry.
    pub fn get(&self, name: &str) -> Option<&ProgramEntry> {
        self.entries.get(name)
    }

    /// Every entry, by benchmark name, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &ProgramEntry)> {
        self.entries.iter()
    }

    pub(crate) fn entry_mut(&mut self, name: &str) -> Option<&mut ProgramEntry> {
        self.entries.get_mut(name)
    }

    /// `b`'s entry, with its solution fingerprint memo filled from `b`
    /// on first use. `None` when `b` was not run through this cache.
    pub fn fingerprinted(&mut self, b: &BenchOutput) -> Option<&ProgramEntry> {
        let e = self.entries.get_mut(&b.name)?;
        e.fps.get_or_insert_with(|| solution_fps(b));
        Some(e)
    }

    /// Order-of-magnitude estimate of this cache's resident memory, in
    /// bytes. Counts the dominant owners — VDG nodes/outputs, memoized
    /// summary fact rows, and cached solution pairs — at fixed per-item
    /// costs; auxiliary structure (hash tables, Arc headers, strings)
    /// rides in the constants. Used by the serving layer's LRU eviction
    /// budget, where relative session weight matters and exact byte
    /// counts do not.
    pub fn approx_bytes(&self) -> usize {
        self.entries
            .values()
            .map(|e| {
                let summaries: usize = e
                    .summaries
                    .values()
                    .map(|s| 48 * s.fact_rows() + 64 * s.funcs.len() + 64)
                    .sum();
                let a = &e.arts;
                let arts = 64 * a.graph.node_count()
                    + 32 * a.graph.output_count()
                    + a.solutions
                        .values()
                        .map(|s| 32 * s.pairs().unwrap_or(a.graph.output_count()) + 256)
                        .sum::<usize>();
                summaries + arts + 512
            })
            .sum()
    }

    /// Records `fp`, which a store persisted for the source and input
    /// `name`'s entry holds now, as that entry's check fingerprint. The
    /// rows are not restored: a check request re-runs the checkers once
    /// to render them.
    pub fn restore_check_fp(&mut self, name: &str, fp: u64) {
        if let Some(e) = self.entries.get_mut(name) {
            e.checks = Some(EntryChecks {
                source_hash: e.source_hash,
                input: e.input.clone(),
                rows: None,
                fp,
            });
        }
    }

    /// Memoizes every benchmark of `run`: per-solver summaries are
    /// extracted from each solution bottom-up, solutions are cloned for
    /// replay.
    pub fn absorb(&mut self, run: &EngineRun) {
        for b in &run.benches {
            let index = Arc::new(GraphIndex::build(&b.graph));
            self.absorb_bench(b, index, 1);
        }
    }

    /// Absorbs one benchmark, summarizing each solution over `threads`
    /// workers via the bottom-up composition driver
    /// ([`compose::summarize`]).
    pub(crate) fn absorb_bench(&mut self, b: &BenchOutput, index: Arc<GraphIndex>, threads: usize) {
        let mut summaries: HashMap<String, Arc<SolverSummaries>> = HashMap::new();
        if index.unsafe_reason.is_none() {
            if let Some(s) = compose::summarize(&b.graph, &index, b.ci.as_ref(), None, threads) {
                summaries.insert("ci".into(), Arc::new(s));
            }
            for solved in &b.solutions {
                if solved.analysis == "ci" {
                    // The listed "ci" slot is a clone of the shared
                    // prepare-stage run summarized above.
                    continue;
                }
                if let Some(sol) = &solved.solution {
                    if let Some(s) =
                        compose::summarize(&b.graph, &index, sol.as_ref(), Some(&b.ci), threads)
                    {
                        summaries.insert(solved.analysis.clone(), Arc::new(s));
                    }
                }
            }
        }
        let solutions = b
            .solutions
            .iter()
            .filter_map(|s| {
                s.solution
                    .as_ref()
                    .map(|sol| (s.analysis.clone(), sol.clone_box()))
            })
            .collect();
        // Check rows survive a re-solve: they are keyed by source and
        // input, which the entry's check memo re-validates on use.
        let checks = self.entries.remove(&b.name).and_then(|e| e.checks);
        self.entries.insert(
            b.name.clone(),
            ProgramEntry {
                source: b.source.clone(),
                input: b.input.clone(),
                source_hash: fnv64(b.source.as_bytes()),
                graph_fp: index.graph_fp,
                summaries,
                arts: EntryArtifacts {
                    program: Arc::clone(&b.program),
                    graph: Arc::clone(&b.graph),
                    ci: Arc::clone(&b.ci),
                    solutions,
                },
                fps: None,
                checks,
            },
        );
    }
}

/// The `Sync` subset of a cache entry that pool workers may read.
/// Solutions stay behind on the driver thread.
pub(crate) struct PrevMeta {
    source_hash: u64,
    graph_fp: u64,
    pub(crate) program: Arc<cfront::Program>,
    pub(crate) graph: Arc<Graph>,
    pub(crate) ci: Arc<CiResult>,
    summaries: HashMap<String, Arc<SolverSummaries>>,
}

impl PrevMeta {
    /// Whether `source` is the cached source text (by hash).
    pub(crate) fn same_source(&self, source: &str) -> bool {
        fnv64(source.as_bytes()) == self.source_hash
    }

    /// Whether the cached graph is id-for-id the one `index` describes.
    pub(crate) fn same_graph(&self, index: &GraphIndex) -> bool {
        index.unsafe_reason.is_none() && index.graph_fp == self.graph_fp
    }
}

/// A job's cached run as stage 1 sees it: its entry, or why it has
/// none.
pub(crate) type Prior = Result<PrevMeta, FreshReason>;

/// What a cached run keeps of a benchmark it had to solve: the graph
/// index the resumes and the fold read, how CI was obtained, and the
/// summaries the other solvers resume from.
pub(crate) struct Reuse {
    pub(crate) index: Arc<GraphIndex>,
    pub(crate) ci_mode: SolveMode,
    funcs_reused: usize,
    funcs_dirty: usize,
    /// The cached entry's summaries, or why the benchmark has none.
    prev: Result<HashMap<String, Arc<SolverSummaries>>, FreshReason>,
}

impl Reuse {
    /// What `analysis` resumes from, or why it solves fresh.
    pub(crate) fn prev(
        &self,
        analysis: &str,
    ) -> Result<(&GraphIndex, &SolverSummaries), FreshReason> {
        match &self.prev {
            Ok(sums) => sums
                .get(analysis)
                .map(|p| (&*self.index, &**p))
                .ok_or(FreshReason::NoSummaries),
            Err(why) => Err(why.clone()),
        }
    }
}

/// Resumes `s` from `prev` (the next graph's index and the solver's
/// cached summaries) when the solver can, else solves fresh. Returns the
/// outcome with the resume's stats, or with why it solved fresh.
pub(crate) fn resume_or_solve(
    s: &dyn Solver,
    graph: &Graph,
    prev: Result<(&GraphIndex, &SolverSummaries), FreshReason>,
    ci: Option<&CiResult>,
) -> (
    Result<SolutionBox, AnalysisError>,
    Result<ResumeStats, FreshReason>,
) {
    let why = match prev {
        Ok((index, prev)) => match s.resume(graph, index, prev, ci) {
            Some(Ok(out)) => return (Ok(out.solution), Ok(out.stats)),
            Some(Err(_)) => FreshReason::StepBudget,
            None => match &index.unsafe_reason {
                Some(r) => FreshReason::UnstableNaming(r.clone()),
                None => FreshReason::PlanRejected,
            },
        },
        Err(why) => why,
    };
    (s.solve(graph, ci), Err(why))
}

impl SolveMode {
    /// The mode of a [`resume_or_solve`] outcome.
    pub(crate) fn of(how: Result<ResumeStats, FreshReason>) -> SolveMode {
        match how {
            Ok(stats) => SolveMode::from_stats(&stats),
            Err(why) => SolveMode::Fresh { why },
        }
    }
}

impl SummaryCache {
    /// Each job's cached run, after resetting the cache if `engine`'s
    /// solver specs changed since it was filled.
    pub(crate) fn priors(&mut self, engine: &Engine, jobs: &[Job]) -> Vec<Prior> {
        let mut missing = FreshReason::NoCache;
        if self.spec_key != engine.spec_key() {
            // Cached facts were computed under different knobs; none
            // are sound to reuse.
            self.entries.clear();
            self.spec_key = engine.spec_key();
            missing = FreshReason::SpecChange;
        }
        jobs.iter()
            .map(|j| {
                let e = self.entries.get(&j.name).ok_or_else(|| missing.clone())?;
                Ok(PrevMeta {
                    source_hash: e.source_hash,
                    graph_fp: e.graph_fp,
                    program: Arc::clone(&e.arts.program),
                    graph: Arc::clone(&e.arts.graph),
                    ci: Arc::clone(&e.arts.ci),
                    summaries: e.summaries.clone(),
                })
            })
            .collect()
    }

    /// Stage-3 bookkeeping for one assembled benchmark of a cached run:
    /// counts it into `stats`, and re-keys a replayed entry to the job.
    pub(crate) fn settle(&mut self, out: &BenchOutput, tier: &Tier, stats: &mut IncrementalStats) {
        match tier {
            Tier::Plain => {}
            Tier::Replay => {
                stats.benches_replayed += 1;
                // Re-key the entry to the new source text so the next
                // step of an edit chain replays from the source hash.
                // Equal graph fingerprints mean id-for-id isomorphism, so
                // the cached summaries, CI result, solutions and their
                // fingerprints all remain exact.
                let e = self.entries.get_mut(&out.name).expect("matched in stage 1");
                if e.source != out.source {
                    e.source.clone_from(&out.source);
                    e.source_hash = fnv64(out.source.as_bytes());
                }
                e.input.clone_from(&out.input);
                e.arts.program = Arc::clone(&out.program);
                e.arts.graph = Arc::clone(&out.graph);
            }
            Tier::Solve(r) => {
                if r.ci_mode.is_resumed() {
                    stats.benches_seeded += 1;
                } else {
                    stats.benches_fresh += 1;
                }
                stats.funcs_reused += r.funcs_reused;
                stats.funcs_dirty += r.funcs_dirty;
            }
        }
        for s in &out.solutions {
            match &s.mode {
                Some(SolveMode::Replay) => stats.solutions_replayed += 1,
                Some(m) if m.is_resumed() => stats.solutions_resumed += 1,
                _ => {}
            }
        }
    }
}

impl Engine {
    /// An empty summary cache bound to this engine's solver specs.
    pub fn cache(&self) -> SummaryCache {
        SummaryCache {
            spec_key: self.spec_key(),
            entries: HashMap::new(),
        }
    }

    /// Re-analyzes `jobs` given the previous run `prev`, reusing every
    /// artifact the edits did not invalidate. One-shot form of
    /// [`Engine::analyze_incremental_with`] (which threads a
    /// [`SummaryCache`] through an edit chain).
    ///
    /// # Errors
    ///
    /// Returns the first frontend/lowering error, if any.
    pub fn analyze_incremental(
        &self,
        prev: &EngineRun,
        jobs: &[Job],
    ) -> Result<EngineRun, AnalysisError> {
        let mut cache = self.cache();
        cache.absorb(prev);
        // The cache is dropped on return: skip folding this run into it.
        self.pipeline(Some(&mut cache), jobs, false)
    }

    /// Re-analyzes `jobs` against (and then into) `cache`. On return
    /// the cache reflects this run, so successive calls analyze an edit
    /// chain with each step paying only for its own dirty cone.
    ///
    /// # Errors
    ///
    /// Returns the first frontend/lowering error, if any.
    pub fn analyze_incremental_with(
        &self,
        cache: &mut SummaryCache,
        jobs: &[Job],
    ) -> Result<EngineRun, AnalysisError> {
        self.pipeline(Some(cache), jobs, true)
    }

    /// CI for a graph a cached run must solve: resumed from the clean
    /// functions' summaries where that is sound, else solved fresh. The
    /// reason gates are checked here (rather than trusting `resume`'s
    /// opaque `None`) so the report can say *why* a fresh solve
    /// happened.
    pub(crate) fn resume_ci(
        &self,
        graph: &Graph,
        index: Arc<GraphIndex>,
        prior: &Prior,
    ) -> (Arc<CiResult>, Tier) {
        let cfg = self.ci.ci_config();
        let prev = match prior {
            Err(why) => Err(why.clone()),
            Ok(_) if cfg.heap_naming != HeapNaming::Site => Err(FreshReason::HeapNaming),
            Ok(_) if cfg.fault != Fault::None => Err(FreshReason::FaultInjection),
            Ok(m) => match (&index.unsafe_reason, m.summaries.get("ci")) {
                (Some(r), _) => Err(FreshReason::UnstableNaming(r.clone())),
                (None, None) => Err(FreshReason::NoSummaries),
                (None, Some(prev)) => {
                    let any_clean = graph.func_ids().any(|f| {
                        prev.funcs
                            .get(&graph.func(f).name)
                            .is_some_and(|s| s.fingerprint == index.func_fps[f.0 as usize])
                    });
                    if any_clean {
                        Ok((&*index, &**prev))
                    } else {
                        Err(FreshReason::EveryFunctionChanged)
                    }
                }
            },
        };
        let (outcome, how) = resume_or_solve(&*self.ci.build(), graph, prev, None);
        let (funcs_reused, funcs_dirty) = match &how {
            Ok(stats) => (stats.clean, stats.dirty.len()),
            Err(_) => (0, graph.func_count()),
        };
        let reuse = Reuse {
            ci_mode: SolveMode::of(how),
            funcs_reused,
            funcs_dirty,
            prev: prior
                .as_ref()
                .map(|m| m.summaries.clone())
                .map_err(Clone::clone),
            index,
        };
        (Arc::new(crate::ci_result(outcome)), Tier::Solve(reuse))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "int g1; int g2; int *gp;\n\
         int *id(int *p) { return p; }\n\
         void setg(int x) { if (x) { gp = &g1; } }\n\
         int main(void) { int l; int *q; q = id(&l); setg(1); *q = 3; *gp = 4; return 0; }";
    const B: &str = "int g1; int g2; int *gp;\n\
         int *id(int *p) { return p; }\n\
         void setg(int x) { if (x) { gp = &g2; } }\n\
         int main(void) { int l; int *q; q = id(&l); setg(1); *q = 3; *gp = 4; return 0; }";

    fn job(name: &str, src: &str) -> Job {
        Job::new(name, src)
    }

    /// Every solver solution of `inc` must fingerprint identically to a
    /// from-scratch run of the same jobs.
    fn assert_matches_fresh(e: &Engine, inc: &EngineRun, jobs: &[Job]) {
        let fresh = e.run(jobs).expect("fresh run");
        for (bi, fb) in fresh.benches.iter().enumerate() {
            let ib = &inc.benches[bi];
            for fs in &fb.solutions {
                let f = fs.solution.as_deref().expect("fresh solution");
                let i = ib.solution(&fs.analysis).expect("incremental solution");
                assert_eq!(
                    solution_fingerprint(f, &fb.graph),
                    solution_fingerprint(i, &ib.graph),
                    "{} diverged on {}",
                    fs.analysis,
                    fb.name
                );
            }
        }
    }

    #[test]
    fn identical_jobs_replay_everything() {
        let e = Engine::new().threads(1);
        let jobs = vec![job("t", A)];
        let prev = e.run(&jobs).unwrap();
        let inc = e.analyze_incremental(&prev, &jobs).unwrap();
        let stats = inc.report.incremental.as_ref().expect("stats");
        assert_eq!(stats.benches_replayed, 1);
        assert_eq!(stats.solutions_replayed, 5);
        for s in &inc.benches[0].solutions {
            assert!(matches!(s.mode, Some(SolveMode::Replay)), "{}", s.analysis);
        }
        assert_matches_fresh(&e, &inc, &jobs);
    }

    #[test]
    fn edited_function_resumes_every_solver_and_matches_fresh() {
        let e = Engine::new().threads(2);
        let prev = e.run(&[job("t", A)]).unwrap();
        let jobs = vec![job("t", B)];
        let inc = e.analyze_incremental(&prev, &jobs).unwrap();
        let stats = inc.report.incremental.as_ref().expect("stats");
        assert_eq!(stats.benches_seeded, 1);
        assert_eq!(stats.funcs_dirty, 1, "only setg changed");
        assert!(stats.funcs_reused >= 2);
        let ci_mode = inc.benches[0]
            .solutions
            .iter()
            .find(|s| s.analysis == "ci")
            .and_then(|s| s.mode.clone())
            .expect("ci mode");
        assert!(
            matches!(ci_mode, SolveMode::DirtyCone { dirty: 1, .. }),
            "{}",
            ci_mode.render()
        );
        // Every solver — not just CI — resumes from its own vocabulary.
        for s in &inc.benches[0].solutions {
            let mode = s.mode.as_ref().expect("mode");
            assert!(
                mode.is_resumed(),
                "{} fell back to {}",
                s.analysis,
                mode.render()
            );
        }
        assert_eq!(stats.solutions_resumed, 5);
        assert_matches_fresh(&e, &inc, &jobs);
    }

    #[test]
    fn cold_cache_solves_fresh_and_chains() {
        let e = Engine::new().threads(1);
        let mut cache = e.cache();
        let jobs = vec![job("t", A)];
        let r1 = e.analyze_incremental_with(&mut cache, &jobs).unwrap();
        assert_eq!(r1.report.incremental.as_ref().unwrap().benches_fresh, 1);
        assert_matches_fresh(&e, &r1, &jobs);
        // Second step of the chain: the cache now holds step 1.
        let jobs = vec![job("t", B)];
        let r2 = e.analyze_incremental_with(&mut cache, &jobs).unwrap();
        assert_eq!(r2.report.incremental.as_ref().unwrap().benches_seeded, 1);
        assert_matches_fresh(&e, &r2, &jobs);
        // Third step: no edit — replays step 2's seeded result.
        let r3 = e.analyze_incremental_with(&mut cache, &jobs).unwrap();
        assert_eq!(r3.report.incremental.as_ref().unwrap().benches_replayed, 1);
        assert_matches_fresh(&e, &r3, &jobs);
    }

    #[test]
    fn solver_missing_from_the_cache_solves_fresh_on_replay() {
        // k1 overflows its budget, so the cache keeps no k1 solution: a
        // replay of the unchanged source replays CI and re-solves k1.
        let e = Engine::new().threads(1).specs(&[
            alias::SolverSpec::ci(),
            alias::SolverSpec::k1().max_steps(1),
        ]);
        let mut cache = e.cache();
        let jobs = Job::named(&["span"]);
        e.analyze_incremental_with(&mut cache, &jobs).unwrap();
        let r = e.analyze_incremental_with(&mut cache, &jobs).unwrap();
        let stats = r.report.incremental.as_ref().unwrap();
        assert_eq!(stats.benches_replayed, 1);
        assert_eq!(stats.solutions_replayed, 1);
        let [ci, k1] = &r.benches[0].solutions[..] else {
            panic!("two configured solvers")
        };
        assert_eq!(
            (ci.analysis.as_str(), &ci.mode),
            ("ci", &Some(SolveMode::Replay))
        );
        let not_in_cache = SolveMode::Fresh {
            why: FreshReason::NotInCache,
        };
        assert_eq!(
            (k1.analysis.as_str(), &k1.mode),
            ("k1", &Some(not_in_cache))
        );
        assert!(k1.solution.is_none());
        let msg = k1.error.as_deref().expect("overflow recorded");
        assert!(
            msg.contains("k1") && msg.contains("span"),
            "error should carry solver + benchmark context: {msg}"
        );
    }

    #[test]
    fn untouched_sibling_benchmark_replays() {
        let e = Engine::new().threads(2);
        let prev = e.run(&[job("edited", A), job("same", A)]).unwrap();
        let jobs = vec![job("edited", B), job("same", A)];
        let inc = e.analyze_incremental(&prev, &jobs).unwrap();
        let stats = inc.report.incremental.as_ref().unwrap();
        assert_eq!(stats.benches_replayed, 1);
        assert_eq!(stats.benches_seeded, 1);
        assert_matches_fresh(&e, &inc, &jobs);
    }

    #[test]
    fn spec_change_resets_the_cache() {
        let e1 = Engine::new().threads(1);
        let mut cache = e1.cache();
        e1.analyze_incremental_with(&mut cache, &[job("t", A)])
            .unwrap();
        assert_eq!(cache.len(), 1);
        let e2 = Engine::new()
            .threads(1)
            .ci_spec(alias::SolverSpec::ci().strong_updates(false));
        let jobs = vec![job("t", A)];
        let r = e2.analyze_incremental_with(&mut cache, &jobs).unwrap();
        // Identical source, but the cached facts were for other knobs:
        // everything must re-solve fresh, not replay.
        assert_eq!(r.report.incremental.as_ref().unwrap().benches_fresh, 1);
        for s in &r.benches[0].solutions {
            assert!(
                matches!(
                    s.mode,
                    Some(SolveMode::Fresh {
                        why: FreshReason::SpecChange
                    })
                ),
                "{}: {:?}",
                s.analysis,
                s.mode
            );
        }
        assert_matches_fresh(&e2, &r, &jobs);
    }
}
