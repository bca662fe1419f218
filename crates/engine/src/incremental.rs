//! Incremental re-analysis: replay what an edit left unchanged, solve
//! the rest fresh.
//!
//! An incremental run answers "the same jobs, after an edit" without
//! repeating work the edit provably did not invalidate. Per benchmark it
//! does one of two things:
//!
//! 1. **Replay.** Either the job's source text hashes identically to
//!    the cached run (tier 1: the cached program and graph are reused,
//!    nothing is recompiled), or the source changed but the lowered
//!    VDG's content fingerprint is unchanged (tier 2: comment,
//!    whitespace or literal-only edits; `ScalarConst` carries no
//!    payload). Equal graph fingerprints mean the graphs are isomorphic
//!    id-for-id, so the cached CI result and every cached solver
//!    solution are still exact and replay verbatim.
//! 2. **Fresh solve.** The graph changed, so every solver, the listed
//!    `ci` included, solves from scratch and reports
//!    [`FreshReason::GraphChanged`].
//!
//! There is no seeded resume from per-function summaries: on every
//! program measured, resuming and folding summaries into the cache cost
//! more than the fresh solve (`DESIGN.md` §12).
//!
//! An incremental run is the engine's one pipeline ([`Engine::run`])
//! given a cache. The replay check happens in its stage 1, fresh solves
//! in stages 1 (CI) and 2 (every other solver), and stage 3 folds the
//! solved benchmarks back into the cache.
//!
//! Reuse is sound only when the same [`Engine`] configuration produced
//! the cached solutions; the cache records the engine's full solver
//! spec key and resets itself when it changes.

use crate::report::IncrementalStats;
use crate::{BenchOutput, Engine, EngineRun, Job, Tier};
use alias::ci::CiResult;
use alias::fingerprint::{fnv64, GraphIndex};
use alias::solver::{solution_fingerprint, Solution, SolutionBox};
use alias::AnalysisError;
use std::collections::HashMap;
use std::sync::Arc;
use vdg::graph::Graph;

/// Why a solver solved from scratch instead of replaying its cached
/// solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreshReason {
    /// No cached run for this benchmark.
    NoCache,
    /// The engine's solver spec changed, invalidating the whole cache.
    SpecChange,
    /// The benchmark was cached, but a replayed solution for this
    /// solver was not (newly configured, or failed last time).
    NotInCache,
    /// The lowered graph differs from the cached one (or its naming is
    /// too ambiguous to prove it equal).
    GraphChanged,
}

impl FreshReason {
    /// Compact report rendering.
    pub fn render(&self) -> &'static str {
        match self {
            FreshReason::NoCache => "no cached run for this benchmark",
            FreshReason::SpecChange => "solver spec changed",
            FreshReason::NotInCache => "not in cache",
            FreshReason::GraphChanged => "graph changed",
        }
    }
}

/// How an incremental run obtained one solver's solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveMode {
    /// Replayed verbatim from the cache (source or graph fingerprint
    /// match).
    Replay,
    /// Solved from scratch, with the typed reason.
    Fresh {
        /// Why the cached solution could not be replayed.
        why: FreshReason,
    },
}

impl SolveMode {
    /// Compact report rendering: `"replayed"` or `"fresh(<reason>)"`.
    pub fn render(&self) -> String {
        match self {
            SolveMode::Replay => "replayed".into(),
            SolveMode::Fresh { why } => format!("fresh({})", why.render()),
        }
    }
}

/// One solver's memoized fingerprints: `(analysis, canonical solution
/// fingerprint, pair count)`, `None` where the solve failed (or, for
/// the pair count, where the solver keeps no pairs).
pub type SolverFps = (String, Option<u64>, Option<u64>);

/// One benchmark's record in a [`SummaryCache`]: the job it was last
/// analyzed for, its solutions, and the fingerprints and check rows
/// derived from them.
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
    /// The live run's artifacts, which replays hand back.
    arts: EntryArtifacts,
    /// Per-solver fingerprints in the run's solver order, filled on
    /// first use ([`SummaryCache::fingerprinted`]) and kept across
    /// replays: a replayed solution is the one fingerprinted before. A
    /// fresh solve clears it.
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

/// Persistent in-memory cache of solutions, keyed by benchmark name.
/// Feed it successive runs with [`Engine::analyze_incremental_with`] to
/// analyze an edit chain.
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
    /// bytes. Counts the dominant owners — VDG nodes/outputs and cached
    /// solution pairs — at fixed per-item costs; auxiliary structure
    /// (hash tables, Arc headers, strings) rides in the constants. Used
    /// by the serving layer's LRU eviction budget, where relative
    /// session weight matters and exact byte counts do not.
    pub fn approx_bytes(&self) -> usize {
        self.entries
            .values()
            .map(|e| {
                let a = &e.arts;
                64 * a.graph.node_count()
                    + 32 * a.graph.output_count()
                    + a.solutions
                        .values()
                        .map(|s| 32 * s.pairs().unwrap_or(a.graph.output_count()) + 256)
                        .sum::<usize>()
                    + 512
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

    /// Memoizes every benchmark of `run`: solutions are cloned for
    /// replay.
    pub fn absorb(&mut self, run: &EngineRun) {
        for b in &run.benches {
            self.absorb_bench(b, GraphIndex::build(&b.graph).graph_fp);
        }
    }

    /// Absorbs one benchmark whose lowered graph fingerprints to
    /// `graph_fp`.
    pub(crate) fn absorb_bench(&mut self, b: &BenchOutput, graph_fp: u64) {
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
                graph_fp,
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
                // the cached CI result, solutions and their fingerprints
                // all remain exact.
                let e = self.entries.get_mut(&out.name).expect("matched in stage 1");
                if e.source != out.source {
                    e.source.clone_from(&out.source);
                    e.source_hash = fnv64(out.source.as_bytes());
                }
                e.input.clone_from(&out.input);
                e.arts.program = Arc::clone(&out.program);
                e.arts.graph = Arc::clone(&out.graph);
            }
            Tier::Solve { .. } => {
                stats.benches_fresh += 1;
                stats.funcs_dirty += out.graph.func_count();
            }
        }
        stats.solutions_replayed += out
            .solutions
            .iter()
            .filter(|s| s.mode == Some(SolveMode::Replay))
            .count();
    }
}

impl Engine {
    /// An empty cache bound to this engine's solver specs.
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
    /// chain, each step replaying what its edit left unchanged.
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

    /// Every solver of `run`'s only benchmark, with its rendered mode.
    fn modes(run: &EngineRun) -> Vec<(String, String)> {
        run.benches[0]
            .solutions
            .iter()
            .map(|s| {
                let mode = s.mode.as_ref().expect("a cached run sets modes");
                (s.analysis.clone(), mode.render())
            })
            .collect()
    }

    #[test]
    fn graph_changing_edit_solves_every_solver_fresh() {
        let e = Engine::new().threads(2);
        let base = Job::named(&["part"]);
        let prev = e.run(&base).unwrap();
        let edited = format!("{}\nint *pick(int *p) {{ return p; }}\n", base[0].source);
        let jobs = vec![job("part", &edited)];
        let inc = e.analyze_incremental(&prev, &jobs).unwrap();
        let stats = inc.report.incremental.as_ref().expect("stats");
        assert_eq!(stats.benches_fresh, 1);
        assert_eq!(stats.benches_replayed, 0);
        assert_eq!(stats.funcs_dirty, inc.benches[0].graph.func_count());
        let modes = modes(&inc);
        assert_eq!(modes.len(), 5);
        for (analysis, mode) in &modes {
            assert_eq!(mode, "fresh(graph changed)", "{analysis}");
        }
        assert_matches_fresh(&e, &inc, &jobs);
    }

    #[test]
    fn literal_only_edit_replays_every_solver() {
        let e = Engine::new().threads(2);
        let base = Job::named(&["part"]);
        let prev = e.run(&base).unwrap();
        let edited = base[0].source.replace("(i * 7) % 13", "(i * 7) % 17");
        assert_ne!(edited, base[0].source, "the literal is in `part`");
        let jobs = vec![job("part", &edited)];
        let inc = e.analyze_incremental(&prev, &jobs).unwrap();
        let stats = inc.report.incremental.as_ref().expect("stats");
        assert_eq!(stats.benches_replayed, 1);
        assert_eq!(stats.solutions_replayed, 5);
        let modes = modes(&inc);
        assert_eq!(modes.len(), 5);
        for (analysis, mode) in &modes {
            assert_eq!(mode, "replayed", "{analysis}");
        }
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
        assert_eq!(r2.report.incremental.as_ref().unwrap().benches_fresh, 1);
        assert_matches_fresh(&e, &r2, &jobs);
        // Third step: no edit — replays step 2's fresh result.
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
        assert_eq!(stats.benches_fresh, 1);
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
