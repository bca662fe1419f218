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
//! Reuse is sound only when the same [`Engine`] configuration produced
//! the cached facts; the cache records the engine's full solver spec
//! key and resets itself when it changes.

use crate::report::IncrementalStats;
use crate::{compose, pool, BenchOutput, Engine, EngineReport, EngineRun, Job, Solved};
use alias::ci::CiResult;
use alias::fingerprint::{fnv64, GraphIndex};
use alias::solver::{solution_fingerprint, Solution, SolutionBox};
use alias::summary::{ResumeStats, SolverSummaries};
use alias::{AnalysisError, Fault, HeapNaming};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vdg::build::lower;
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
    fn absorb_bench(&mut self, b: &BenchOutput, index: Arc<GraphIndex>, threads: usize) {
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
#[derive(Clone)]
struct PrevMeta {
    source_hash: u64,
    graph_fp: u64,
    summaries: HashMap<String, Arc<SolverSummaries>>,
}

/// Stage-1 product of one benchmark in an incremental run.
enum IncPrep {
    /// Source text unchanged: reuse the whole cache entry.
    ReplaySource {
        /// Time spent hashing the source to discover the match.
        frontend: Duration,
    },
    /// Recompiled, but the VDG fingerprint is unchanged: reuse every
    /// cached solution against the fresh artifacts.
    ReplayGraph {
        program: Arc<cfront::Program>,
        graph: Arc<Graph>,
        frontend: Duration,
        lowering: Duration,
    },
    /// The graph changed: CI was re-solved (resumed or fresh) and every
    /// other solver gets a stage-2 resume-or-solve.
    Solve {
        program: Arc<cfront::Program>,
        graph: Arc<Graph>,
        index: Arc<GraphIndex>,
        ci: Arc<CiResult>,
        ci_wall: Duration,
        ci_mode: SolveMode,
        frontend: Duration,
        lowering: Duration,
        funcs_reused: usize,
        funcs_dirty: usize,
    },
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
        self.run_incremental(&mut cache, jobs, false)
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
        self.run_incremental(cache, jobs, true)
    }

    /// The incremental run behind both entry points; `fold` re-summarizes
    /// the changed benchmarks into `cache` at the end.
    fn run_incremental(
        &self,
        cache: &mut SummaryCache,
        jobs: &[Job],
        fold: bool,
    ) -> Result<EngineRun, AnalysisError> {
        let t_run = Instant::now();
        let threads = if self.threads == 0 {
            pool::auto_threads()
        } else {
            self.threads
        };
        let mut spec_reset = false;
        if cache.spec_key != self.spec_key() {
            // Cached facts were computed under different knobs; none
            // are sound to reuse.
            cache.entries.clear();
            cache.spec_key = self.spec_key();
            spec_reset = true;
        }

        let metas: Vec<Option<PrevMeta>> = jobs
            .iter()
            .map(|j| {
                cache.entries.get(&j.name).map(|e| PrevMeta {
                    source_hash: e.source_hash,
                    graph_fp: e.graph_fp,
                    summaries: e.summaries.clone(),
                })
            })
            .collect();
        let no_cache_why = || {
            if spec_reset {
                FreshReason::SpecChange
            } else {
                FreshReason::NoCache
            }
        };

        // Stage 1 — prepare: hash, compile, fingerprint, and (for
        // changed graphs) re-solve CI seeded from the clean functions'
        // summaries. Parallel over benchmarks.
        let prepared: Vec<Result<IncPrep, AnalysisError>> =
            pool::run_indexed(jobs.len(), threads, |i| {
                self.prepare_incremental(&jobs[i], metas[i].as_ref(), no_cache_why())
            });
        let mut preps = Vec::with_capacity(jobs.len());
        for p in prepared {
            preps.push(p?);
        }

        // Stage 2 — resume-or-solve (benchmark × non-CI solver) jobs
        // for the changed benchmarks only: each solver first tries to
        // resume from its own cached vocabulary, falling back to a
        // fresh solve with the typed reason.
        let solve_jobs: Vec<(usize, usize)> = preps
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, IncPrep::Solve { .. }))
            .flat_map(|(bi, _)| {
                self.solvers
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.name() != "ci")
                    .map(move |(si, _)| (bi, si))
            })
            .collect();
        let solved: Vec<(usize, usize, Solved)> =
            pool::run_indexed(solve_jobs.len(), threads, |k| {
                let (bi, si) = solve_jobs[k];
                let (graph, index, ci) = match &preps[bi] {
                    IncPrep::Solve {
                        graph, index, ci, ..
                    } => (graph, index, ci),
                    _ => unreachable!("solve job on replayed benchmark"),
                };
                let s = &self.solvers[si];
                let prev = metas[bi].as_ref().and_then(|m| m.summaries.get(s.name()));
                let t = Instant::now();
                let (outcome, mode) = match prev {
                    None => {
                        let why = if metas[bi].is_some() {
                            FreshReason::NoSummaries
                        } else {
                            no_cache_why()
                        };
                        (s.solve(graph, Some(ci)), SolveMode::Fresh { why })
                    }
                    Some(prev) => match s.resume(graph, index, prev, Some(ci)) {
                        Some(Ok(out)) => {
                            let mode = SolveMode::from_stats(&out.stats);
                            (Ok(out.solution), mode)
                        }
                        Some(Err(_)) => (
                            s.solve(graph, Some(ci)),
                            SolveMode::Fresh {
                                why: FreshReason::StepBudget,
                            },
                        ),
                        None => {
                            let why = match &index.unsafe_reason {
                                Some(r) => FreshReason::UnstableNaming(r.clone()),
                                None => FreshReason::PlanRejected,
                            };
                            (s.solve(graph, Some(ci)), SolveMode::Fresh { why })
                        }
                    },
                };
                let wall = t.elapsed();
                let solved = match outcome {
                    Ok(solution) => Solved {
                        analysis: s.name().to_string(),
                        wall,
                        solution: Some(solution),
                        mode: Some(mode),
                        error: None,
                    },
                    Err(e) => Solved {
                        analysis: s.name().to_string(),
                        wall,
                        solution: None,
                        mode: Some(mode),
                        error: Some(e.in_context(s.name(), &jobs[bi].name).to_string()),
                    },
                };
                (bi, si, solved)
            });
        let mut slots: Vec<Vec<Option<Solved>>> = preps
            .iter()
            .map(|_| self.solvers.iter().map(|_| None).collect())
            .collect();
        for (bi, si, s) in solved {
            slots[bi][si] = Some(s);
        }

        // Stage 3 — assemble (driver thread: cached solutions are not
        // `Sync`), then (if `fold`) fold the finished run into the cache,
        // summarizing each fresh solution bottom-up in parallel.
        let mut stats = IncrementalStats::default();
        let mut outputs = Vec::with_capacity(jobs.len());
        let mut indexes = Vec::with_capacity(jobs.len());
        for ((job, prep), row) in jobs.iter().zip(preps).zip(slots) {
            let (out, index) = self.assemble_bench(cache, job, prep, row, &mut stats)?;
            outputs.push(out);
            indexes.push(index);
        }
        if fold {
            for (out, index) in outputs.iter().zip(indexes) {
                if let Some(index) = index {
                    cache.absorb_bench(out, index, threads);
                }
            }
        }

        let report = EngineReport {
            threads,
            total_wall: t_run.elapsed(),
            benchmarks: outputs.iter().map(BenchOutput::report).collect(),
            incremental: Some(stats),
            serve: None,
        };
        Ok(EngineRun {
            report,
            benches: outputs,
        })
    }

    fn prepare_incremental(
        &self,
        job: &Job,
        meta: Option<&PrevMeta>,
        no_cache_why: FreshReason,
    ) -> Result<IncPrep, AnalysisError> {
        let t0 = Instant::now();
        if let Some(m) = meta {
            if fnv64(job.source.as_bytes()) == m.source_hash {
                return Ok(IncPrep::ReplaySource {
                    frontend: t0.elapsed(),
                });
            }
        }
        let program = cfront::compile(&job.source)?;
        let frontend = t0.elapsed();
        let t1 = Instant::now();
        let graph = lower(&program, &self.build)?;
        let index = Arc::new(GraphIndex::build(&graph));
        let lowering = t1.elapsed();
        let program = Arc::new(program);
        let graph = Arc::new(graph);

        if let Some(m) = meta {
            if index.unsafe_reason.is_none() && index.graph_fp == m.graph_fp {
                return Ok(IncPrep::ReplayGraph {
                    program,
                    graph,
                    frontend,
                    lowering,
                });
            }
        }

        // The graph changed (or was never cached): re-solve CI through
        // its own resume capability, seeded from fingerprint-matched
        // functions when that is sound. The reason gates are checked
        // here (rather than trusting `resume`'s opaque `None`) so the
        // report can say *why* a fresh solve happened.
        let cfg = self.ci.ci_config();
        let fresh = |why: FreshReason| SolveMode::Fresh { why };
        let prev_ci = meta.and_then(|m| m.summaries.get("ci"));
        let t2 = Instant::now();
        let mut resumed: Option<(CiResult, ResumeStats)> = None;
        let ci_mode = match (meta, prev_ci) {
            (None, _) => fresh(no_cache_why),
            _ if cfg.heap_naming != HeapNaming::Site => fresh(FreshReason::HeapNaming),
            _ if cfg.fault != Fault::None => fresh(FreshReason::FaultInjection),
            _ if index.unsafe_reason.is_some() => fresh(FreshReason::UnstableNaming(
                index.unsafe_reason.clone().unwrap_or_default(),
            )),
            (Some(_), None) => fresh(FreshReason::NoSummaries),
            (Some(_), Some(prev)) => {
                let any_clean = graph.func_ids().any(|f| {
                    prev.funcs
                        .get(&graph.func(f).name)
                        .is_some_and(|s| s.fingerprint == index.func_fps[f.0 as usize])
                });
                if !any_clean {
                    fresh(FreshReason::EveryFunctionChanged)
                } else {
                    let ci_solver = self.ci.build();
                    match ci_solver.resume(&graph, &index, prev, None) {
                        Some(Ok(out)) => {
                            let mode = SolveMode::from_stats(&out.stats);
                            let ci = out
                                .solution
                                .into_ci()
                                .expect("the CI solver resumes to a CI result");
                            resumed = Some((ci, out.stats));
                            mode
                        }
                        Some(Err(_)) => fresh(FreshReason::StepBudget),
                        None => fresh(FreshReason::PlanRejected),
                    }
                }
            }
        };
        let (funcs_reused, funcs_dirty) = match &resumed {
            Some((_, stats)) => (stats.clean, stats.dirty.len()),
            None => (0, graph.func_count()),
        };
        let ci = match resumed {
            Some((ci, _)) => ci,
            None => self
                .ci
                .solve(&graph, None)
                .expect("the CI solver has no step budget")
                .into_ci()
                .expect("the engine's ci spec must describe the CI analysis"),
        };
        let ci_wall = t2.elapsed();
        Ok(IncPrep::Solve {
            program,
            graph,
            index,
            ci: Arc::new(ci),
            ci_wall,
            ci_mode,
            frontend,
            lowering,
            funcs_reused,
            funcs_dirty,
        })
    }

    /// Builds one benchmark's output, replaying cached solutions where
    /// the prepare stage proved that sound. Returns the graph index for
    /// changed benchmarks so the caller can fold the fresh run back
    /// into the cache (`None` = cache entry already current).
    fn assemble_bench(
        &self,
        cache: &mut SummaryCache,
        job: &Job,
        prep: IncPrep,
        row: Vec<Option<Solved>>,
        stats: &mut IncrementalStats,
    ) -> Result<(BenchOutput, Option<Arc<GraphIndex>>), AnalysisError> {
        match prep {
            IncPrep::ReplaySource { frontend } => {
                stats.benches_replayed += 1;
                let e = cache.entries.get(&job.name).expect("matched in stage 1");
                let a = &e.arts;
                let mut out = BenchOutput {
                    name: job.name.clone(),
                    source: job.source.clone(),
                    input: job.input.clone(),
                    program: Arc::clone(&a.program),
                    graph: Arc::clone(&a.graph),
                    ci: Arc::clone(&a.ci),
                    ci_wall: Duration::ZERO,
                    frontend,
                    lowering: Duration::ZERO,
                    solutions: Vec::new(),
                };
                self.replay_solutions(cache, &mut out, stats);
                let e = cache
                    .entries
                    .get_mut(&job.name)
                    .expect("matched in stage 1");
                e.input.clone_from(&job.input);
                Ok((out, None))
            }
            IncPrep::ReplayGraph {
                program,
                graph,
                frontend,
                lowering,
            } => {
                stats.benches_replayed += 1;
                let e = cache.entries.get(&job.name).expect("matched in stage 1");
                let a = &e.arts;
                let mut out = BenchOutput {
                    name: job.name.clone(),
                    source: job.source.clone(),
                    input: job.input.clone(),
                    program,
                    graph,
                    ci: Arc::clone(&a.ci),
                    ci_wall: Duration::ZERO,
                    frontend,
                    lowering,
                    solutions: Vec::new(),
                };
                self.replay_solutions(cache, &mut out, stats);
                // Re-key the entry to the new source text so the next
                // step of an edit chain replays at tier 1. Equal graph
                // fingerprints mean id-for-id isomorphism, so the cached
                // summaries, CI result, solutions and their fingerprints
                // all remain exact — no re-extraction or re-cloning
                // needed.
                let e = cache
                    .entries
                    .get_mut(&job.name)
                    .expect("matched in stage 1");
                e.source.clone_from(&job.source);
                e.input.clone_from(&job.input);
                e.source_hash = fnv64(job.source.as_bytes());
                e.arts.program = Arc::clone(&out.program);
                e.arts.graph = Arc::clone(&out.graph);
                Ok((out, None))
            }
            IncPrep::Solve {
                program,
                graph,
                index,
                ci,
                ci_wall,
                ci_mode,
                frontend,
                lowering,
                funcs_reused,
                funcs_dirty,
            } => {
                if ci_mode.is_resumed() {
                    stats.benches_seeded += 1;
                } else {
                    stats.benches_fresh += 1;
                }
                stats.funcs_reused += funcs_reused;
                stats.funcs_dirty += funcs_dirty;
                let mut out = BenchOutput {
                    name: job.name.clone(),
                    source: job.source.clone(),
                    input: job.input.clone(),
                    program,
                    graph,
                    ci,
                    ci_wall,
                    frontend,
                    lowering,
                    solutions: Vec::new(),
                };
                for (si, slot) in row.into_iter().enumerate() {
                    if let Some(s) = slot {
                        out.solutions.push(s);
                    } else if self.solvers[si].name() == "ci" {
                        out.solutions.push(Solved {
                            analysis: "ci".to_string(),
                            wall: out.ci_wall,
                            solution: Some(Box::new(out.ci.as_ref().clone())),
                            mode: Some(ci_mode.clone()),
                            error: None,
                        });
                    }
                }
                for s in &out.solutions {
                    if s.mode.as_ref().is_some_and(SolveMode::is_resumed) {
                        stats.solutions_resumed += 1;
                    }
                }
                Ok((out, Some(index)))
            }
        }
    }

    /// Fills `out.solutions` for a replayed benchmark: cached solutions
    /// clone verbatim; a solver missing from the cache (newly
    /// configured, or failed last time) re-solves on the spot.
    fn replay_solutions(
        &self,
        cache: &SummaryCache,
        out: &mut BenchOutput,
        stats: &mut IncrementalStats,
    ) {
        let e = cache.entries.get(&out.name).expect("replay needs an entry");
        for s in &self.solvers {
            let t = Instant::now();
            if let Some(sol) = e.arts.solutions.get(s.name()) {
                stats.solutions_replayed += 1;
                out.solutions.push(Solved {
                    analysis: s.name().to_string(),
                    wall: t.elapsed(),
                    solution: Some(sol.clone_box()),
                    mode: Some(SolveMode::Replay),
                    error: None,
                });
                continue;
            }
            let outcome = s.solve(&out.graph, Some(&out.ci));
            let wall = t.elapsed();
            let mode = Some(SolveMode::Fresh {
                why: FreshReason::NotInCache,
            });
            out.solutions.push(match outcome {
                Ok(solution) => Solved {
                    analysis: s.name().to_string(),
                    wall,
                    solution: Some(solution),
                    mode,
                    error: None,
                },
                Err(err) => Solved {
                    analysis: s.name().to_string(),
                    wall,
                    solution: None,
                    mode,
                    error: Some(err.in_context(s.name(), &out.name).to_string()),
                },
            });
        }
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
        let r1 = e
            .analyze_incremental_with(&mut cache, &[job("t", A)])
            .unwrap();
        assert_eq!(r1.report.incremental.as_ref().unwrap().benches_fresh, 1);
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
