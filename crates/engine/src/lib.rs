//! # engine — the parallel analysis driver
//!
//! The engine has one pipeline. It fans (benchmark × analysis) jobs
//! across a work-stealing thread pool, shares each benchmark's immutable
//! `Program`/`Graph`/CI solution behind `Arc`s so five solvers reuse a
//! single lowering, and records per-stage metrics into an
//! [`EngineReport`] that serializes to JSON.
//!
//! ```text
//!            stage 1: prepare (parallel over benchmarks)
//!   source ──lex/parse/sema──▶ Program ──lower──▶ Graph ──ci──▶ CiResult
//!                                  │                 │              │
//!                                  └── Arc ──────────┴── Arc ───────┘
//!      [cache] unchanged source hash or graph fingerprint: replay the
//!              entry's artifacts; changed graph: solve CI fresh
//!            stage 2: solve (parallel over benchmark × solver jobs)
//!   (graph, ci) ──▶ weihl │ steensgaard │ k=1 │ cs   (SolverSpec::solve)
//!      [cache] skip what replays
//!            stage 3: assemble in solver order (driver thread)
//!      [cache] tally replays and fresh solves; fold solved benchmarks back
//!                                  │
//!            EngineReport: frontend/lowering/solver wall times,
//!            worklist iterations, pair counts — table or JSON
//! ```
//!
//! [`Engine::run`] is the pipeline with no cache: the `[cache]` steps
//! do not happen, and no source is hashed nor graph fingerprinted.
//! [`Engine::analyze_incremental_with`] runs it against a
//! [`SummaryCache`], whose replay check ([`incremental`]) is the
//! `[cache]` steps.
//!
//! The solvers themselves stay single-threaded, exactly as the paper's
//! algorithms are described; all parallelism is across independent jobs,
//! which is safe because every solver input is immutable after lowering.
//!
//! ## Quickstart
//!
//! ```
//! let run = engine::Engine::new()
//!     .threads(2)
//!     .run(&engine::Job::named(&["span"]))
//!     .unwrap();
//! assert_eq!(run.benches.len(), 1);
//! assert!(run.benches[0].cs().is_some());
//! println!("{}", run.report.to_value().render_pretty());
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod check;
pub mod envelope;
pub mod fuzz;
pub mod incremental;
pub mod pool;
pub mod report;
pub mod shrink;
pub mod stats;

pub use campaign::{
    CampaignCase, CampaignConfig, CampaignError, CampaignOutcome, CampaignReport, QuarantineCase,
};
pub use check::BenchChecks;
pub use fuzz::{FuzzConfig, JobOutcome, PlantedFault};
pub use incremental::{FreshReason, ProgramEntry, SolveMode, SummaryCache};
pub use report::{BenchmarkReport, CheckMetrics, EngineReport, IncrementalStats, SolverMetrics};

use alias::ci::CiResult;
use alias::cs::CsResult;
use alias::fingerprint::GraphIndex;
use alias::solver::{Solution, SolutionBox, SolverSpec};
use alias::AnalysisError;
use incremental::Prior;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vdg::build::{lower, BuildOptions};
use vdg::graph::Graph;

/// One program for the engine to analyze.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name (benchmark name or file path).
    pub name: String,
    /// mini-C source text.
    pub source: String,
    /// Bytes served to `getchar()` when the oracle interpreter runs the
    /// program (checker labeling); empty for programs that read no
    /// input.
    pub input: Vec<u8>,
}

impl Job {
    /// A job with no interpreter input.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Job {
        Job {
            name: name.into(),
            source: source.into(),
            input: Vec::new(),
        }
    }

    /// The full bundled benchmark suite, in Figure 2 order.
    pub fn suite() -> Vec<Job> {
        suite::benchmarks()
            .iter()
            .map(|b| Job {
                name: b.name.to_string(),
                source: b.source.to_string(),
                input: b.input.to_vec(),
            })
            .collect()
    }

    /// The threaded litmus benchmarks ([`suite::litmus`]): planted-race
    /// and race-free fixtures for the data-race checker.
    pub fn litmus() -> Vec<Job> {
        suite::litmus()
            .iter()
            .map(|b| Job {
                name: b.name.to_string(),
                source: b.source.to_string(),
                input: b.input.to_vec(),
            })
            .collect()
    }

    /// Selected bundled benchmarks, by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark name.
    pub fn named(names: &[&str]) -> Vec<Job> {
        names
            .iter()
            .map(|n| {
                let b = suite::by_name(n).unwrap_or_else(|| panic!("unknown benchmark `{n}`"));
                Job {
                    name: b.name.to_string(),
                    source: b.source.to_string(),
                    input: b.input.to_vec(),
                }
            })
            .collect()
    }
}

/// The parallel driver. Configure with the builder methods, then call
/// [`Engine::run`] or [`Engine::run_suite`].
pub struct Engine {
    threads: usize,
    specs: Vec<SolverSpec>,
    build: BuildOptions,
    ci: SolverSpec,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine over all five solvers with default options and
    /// auto-detected parallelism.
    pub fn new() -> Self {
        Engine {
            threads: 0,
            specs: SolverSpec::all(),
            build: BuildOptions::default(),
            ci: SolverSpec::ci(),
        }
    }

    /// Sets the worker-thread count; `0` means one per available core.
    /// `1` is the exact serial baseline (no pool is spun up).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Replaces the solver list with `specs` — the single configuration
    /// surface (see [`SolverSpec`]). The shared CI solution is
    /// computed in the prepare stage regardless (it is the common
    /// vocabulary the other solvers key their path tables off), and a
    /// listed `"ci"` solver reports that run rather than re-solving.
    pub fn specs(mut self, specs: &[SolverSpec]) -> Self {
        self.specs = specs.to_vec();
        self
    }

    /// The configured solvers' [`SolverSpec::name`]s, in solver order.
    pub fn solver_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.specs.iter().map(SolverSpec::name)
    }

    /// Sets the VDG lowering options.
    pub fn build_options(mut self, build: BuildOptions) -> Self {
        self.build = build;
        self
    }

    /// Sets the spec of the shared prepare-stage CI run. Must agree
    /// with a configured CS solver's heap naming and strong updates (the
    /// defaults do).
    pub fn ci_spec(mut self, ci: SolverSpec) -> Self {
        self.ci = ci;
        self
    }

    /// The stable key over every configured solver spec (CI first).
    /// Cached facts are reusable only between engines that share it.
    pub(crate) fn spec_key(&self) -> String {
        let mut key = self.ci.key();
        for s in &self.specs {
            key.push('|');
            key.push_str(&s.key());
        }
        key
    }

    /// Runs the engine over the full bundled suite.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn run_suite(&self) -> Result<EngineRun, AnalysisError> {
        self.run(&Job::suite())
    }

    /// Runs the engine over `jobs`.
    ///
    /// Frontend or lowering failures abort the run (the input set is
    /// expected to be well-formed); a *solver* failure (step-budget
    /// overflow) is recorded in the report and the run continues.
    ///
    /// # Errors
    ///
    /// Returns the first frontend/lowering error, if any.
    pub fn run(&self, jobs: &[Job]) -> Result<EngineRun, AnalysisError> {
        self.pipeline(None, jobs, false)
    }

    /// The configured thread count, with `0` resolved to one per core.
    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            pool::auto_threads()
        } else {
            self.threads
        }
    }

    /// The one pipeline behind [`Engine::run`] (no `cache`) and the
    /// incremental entry points. With a cache, stage 1 replays what the
    /// cache allows, and `fold` stores the solved benchmarks into it at
    /// the end.
    pub(crate) fn pipeline(
        &self,
        mut cache: Option<&mut SummaryCache>,
        jobs: &[Job],
        fold: bool,
    ) -> Result<EngineRun, AnalysisError> {
        let t_run = Instant::now();
        let priors = cache.as_deref_mut().map(|c| c.priors(self, jobs));
        // Stage 1 — prepare: one job per benchmark, each producing the
        // shared immutable inputs every solver of stage 2 reuses.
        let prepared = pool::run_indexed(jobs.len(), self.resolved_threads(), |i| {
            self.prepare_job(&jobs[i], priors.as_ref().map(|p| &p[i]))
        });
        let mut preps = Vec::with_capacity(jobs.len());
        for p in prepared {
            preps.push(p?);
        }
        Ok(self.finish(preps, cache, fold, t_run))
    }

    /// Stages 2 and 3 of [`Engine::run`] over benchmarks already
    /// prepared (their `solutions` still empty): a harness that holds a
    /// program, its graph and its CI solution (solved under this
    /// engine's CI spec and build options) gets the run it would have
    /// got from `run`, without compiling, lowering and solving CI again.
    pub(crate) fn solve_prepared(&self, benches: Vec<BenchOutput>, t_run: Instant) -> EngineRun {
        let preps = benches
            .into_iter()
            .map(|out| Prep {
                out,
                tier: Tier::Plain,
            })
            .collect();
        self.finish(preps, None, false, t_run)
    }

    /// Stage 1 for one job: compile, lower and solve CI. Given the job's
    /// cached run (`prior`), an unchanged source hash or graph
    /// fingerprint replays instead.
    fn prepare_job(&self, job: &Job, prior: Option<&Prior>) -> Result<Prep, AnalysisError> {
        let t0 = Instant::now();
        let prev = prior.and_then(|p| p.as_ref().ok());
        // A source replay is a graph replay that takes its program and
        // graph from the entry.
        let same_source = prev.filter(|m| m.same_source(&job.source));
        let (program, graph, index, frontend, lowering) = match same_source {
            Some(m) => {
                let (program, graph) = (Arc::clone(&m.program), Arc::clone(&m.graph));
                (program, graph, None, t0.elapsed(), Duration::ZERO)
            }
            None => {
                let program = cfront::compile(&job.source)?;
                let frontend = t0.elapsed();
                let t1 = Instant::now();
                let graph = lower(&program, &self.build)?;
                // Only a cached run fingerprints the graph.
                let index = prior.map(|_| GraphIndex::build(&graph));
                let lowering = t1.elapsed();
                (
                    Arc::new(program),
                    Arc::new(graph),
                    index,
                    frontend,
                    lowering,
                )
            }
        };
        let replay = prev.filter(|m| index.as_ref().is_none_or(|ix| m.same_graph(ix)));
        let tier = match (replay, prior.zip(index)) {
            (Some(_), _) => Tier::Replay,
            (None, Some((prior, index))) => Tier::Solve {
                graph_fp: index.graph_fp,
                why: match prior {
                    Ok(_) => FreshReason::GraphChanged,
                    Err(why) => why.clone(),
                },
            },
            (None, None) => Tier::Plain,
        };
        let t2 = Instant::now();
        let (ci, ci_wall) = match replay {
            Some(m) => (Arc::clone(&m.ci), Duration::ZERO),
            None => {
                let ci = self.ci.solve_ci(&graph);
                (Arc::new(ci), t2.elapsed())
            }
        };
        let out = BenchOutput {
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
        Ok(Prep { out, tier })
    }

    /// Stages 2 and 3: solve what the cache cannot replay, assemble each
    /// benchmark's solutions in configured solver order, and report.
    fn finish(
        &self,
        preps: Vec<Prep>,
        mut cache: Option<&mut SummaryCache>,
        fold: bool,
        t_run: Instant,
    ) -> EngineRun {
        let threads = self.resolved_threads();

        // Stage 2 — solve: one job per (benchmark × solver) pair the
        // cache cannot replay, claimed dynamically so a slow CS run does
        // not serialize the cheap baselines behind it. That is every
        // non-CI solver of a solved benchmark, and each solver of a
        // replayed one the cache has no solution for (it failed last
        // time).
        let solve_jobs: Vec<(usize, usize)> = preps
            .iter()
            .enumerate()
            .flat_map(|(bi, p)| {
                let entry = match p.tier {
                    Tier::Replay => cache.as_deref().and_then(|c| c.get(&p.out.name)),
                    _ => None,
                };
                self.specs
                    .iter()
                    .enumerate()
                    .filter(move |(_, s)| match entry {
                        Some(e) => e.solution(s.name()).is_none(),
                        None => s.name() != "ci",
                    })
                    .map(move |(si, _)| (bi, si))
            })
            .collect();
        // Solutions are not `Sync`: workers see only the shared inputs.
        let inputs: Vec<(&str, &Graph, &CiResult, &Tier)> = preps
            .iter()
            .map(|p| (p.out.name.as_str(), &*p.out.graph, &*p.out.ci, &p.tier))
            .collect();
        let solved: Vec<Solved> = pool::run_indexed(solve_jobs.len(), threads, |k| {
            let (bi, si) = solve_jobs[k];
            let (bench, graph, ci, tier) = inputs[bi];
            let s = &self.specs[si];
            let t = Instant::now();
            let outcome = s.solve(graph, Some(ci));
            let wall = t.elapsed();
            let (solution, error) = match outcome {
                Ok(solution) => (Some(solution), None),
                // Attach solver + benchmark so the report's one-liner is
                // actionable on its own.
                Err(e) => (None, Some(e.in_context(s.name(), bench).to_string())),
            };
            Solved {
                analysis: s.name().to_string(),
                wall,
                solution,
                mode: tier.fresh_mode(),
                error,
            }
        });
        let mut slots: Vec<Vec<Option<Solved>>> = preps
            .iter()
            .map(|_| self.specs.iter().map(|_| None).collect())
            .collect();
        for (&(bi, si), s) in solve_jobs.iter().zip(solved) {
            slots[bi][si] = Some(s);
        }

        // Stage 3 — assemble on the driver thread (cached solutions are
        // not `Sync`), then (if `fold`) fold each solved benchmark of the
        // finished run into the cache.
        let mut stats = IncrementalStats::default();
        let mut outputs = Vec::with_capacity(preps.len());
        let mut tiers = Vec::with_capacity(preps.len());
        for (Prep { mut out, tier }, row) in preps.into_iter().zip(slots) {
            for (s, slot) in self.specs.iter().zip(row) {
                let solved = match (slot, &tier) {
                    (Some(solved), _) => solved,
                    (None, Tier::Replay) => {
                        let t = Instant::now();
                        let cached = cache.as_deref().and_then(|c| c.get(&out.name));
                        let cached = cached.and_then(|e| e.solution(s.name()));
                        Solved {
                            analysis: s.name().to_string(),
                            solution: Some(cached.expect("stage 2 solved the rest").clone_box()),
                            wall: t.elapsed(),
                            mode: Some(SolveMode::Replay),
                            error: None,
                        }
                    }
                    // The shared stage-1 CI run doubles as the listed CI
                    // solver's product.
                    (None, tier) => Solved {
                        analysis: "ci".to_string(),
                        wall: out.ci_wall,
                        solution: Some(Box::new(out.ci.as_ref().clone())),
                        mode: tier.fresh_mode(),
                        error: None,
                    },
                };
                out.solutions.push(solved);
            }
            if let Some(cache) = cache.as_deref_mut() {
                cache.settle(&out, &tier, &mut stats);
            }
            outputs.push(out);
            tiers.push(tier);
        }
        let incremental = cache.is_some().then_some(stats);
        if let (Some(cache), true) = (cache, fold) {
            for (out, tier) in outputs.iter().zip(tiers) {
                if let Tier::Solve { graph_fp, .. } = tier {
                    cache.absorb_bench(out, graph_fp);
                }
            }
        }

        let report = EngineReport {
            threads,
            total_wall: t_run.elapsed(),
            benchmarks: outputs.iter().map(BenchOutput::report).collect(),
            incremental,
            serve: None,
        };
        EngineRun {
            report,
            benches: outputs,
        }
    }
}

/// Stage-1 product for one benchmark: its shared inputs (no solutions
/// yet) and how stages 2 and 3 obtain its solutions.
struct Prep {
    out: BenchOutput,
    tier: Tier,
}

/// How a benchmark's solutions are obtained.
pub(crate) enum Tier {
    /// A plain run: every non-CI solver solves from scratch.
    Plain,
    /// The cached source hash or graph fingerprint matched: the cached
    /// solutions replay, and a solver the cache lacks solves fresh.
    Replay,
    /// A cached run's changed or uncached graph: every solver solves
    /// fresh, and the fold stores the result under `graph_fp`.
    Solve {
        /// The lowered graph's content fingerprint.
        graph_fp: u64,
        /// Why the cache could not replay the benchmark.
        why: FreshReason,
    },
}

impl Tier {
    /// The mode a solver of this benchmark reports when it solves:
    /// `None` in a plain run, else fresh with the tier's reason (a
    /// replayed benchmark's solver solves only when the cache lacks its
    /// solution).
    fn fresh_mode(&self) -> Option<SolveMode> {
        let why = match self {
            Tier::Plain => return None,
            Tier::Replay => FreshReason::NotInCache,
            Tier::Solve { why, .. } => why.clone(),
        };
        Some(SolveMode::Fresh { why })
    }
}

/// One solver's outcome on one benchmark.
pub struct Solved {
    /// The solver's [`SolverSpec::name`].
    pub analysis: String,
    /// Wall-clock time of the solve call.
    pub wall: Duration,
    /// The solution, unless the solver failed.
    pub solution: Option<SolutionBox>,
    /// How an incremental run obtained the solution; `None` for plain
    /// runs.
    pub mode: Option<incremental::SolveMode>,
    /// The failure, if it did.
    pub error: Option<String>,
}

/// Everything the engine computed for one benchmark.
pub struct BenchOutput {
    /// Benchmark name.
    pub name: String,
    /// Source text.
    pub source: String,
    /// Interpreter input for oracle runs (checker labeling).
    pub input: Vec<u8>,
    /// The checked program (shared with all solver jobs).
    pub program: Arc<cfront::Program>,
    /// The lowered VDG (shared with all solver jobs).
    pub graph: Arc<Graph>,
    /// The prepare-stage CI solution (shared with all solver jobs).
    pub ci: Arc<CiResult>,
    /// Wall time of the shared CI run.
    pub ci_wall: Duration,
    /// Frontend (lex/parse/sema) wall time.
    pub frontend: Duration,
    /// Lowering wall time.
    pub lowering: Duration,
    /// Per-solver outcomes, in the engine's configured solver order.
    pub solutions: Vec<Solved>,
}

impl BenchOutput {
    /// The named solver's solution, if it ran and succeeded.
    pub fn solution(&self, analysis: &str) -> Option<&dyn Solution> {
        self.solutions
            .iter()
            .find(|s| s.analysis == analysis)
            .and_then(|s| s.solution.as_deref())
    }

    /// The named solver's wall time, if it ran.
    pub fn wall(&self, analysis: &str) -> Option<Duration> {
        self.solutions
            .iter()
            .find(|s| s.analysis == analysis)
            .map(|s| s.wall)
    }

    /// The concrete CS result, if a CS solver ran and stayed within
    /// budget.
    pub fn cs(&self) -> Option<&CsResult> {
        self.solution("cs").and_then(Solution::as_cs)
    }

    /// The per-benchmark metrics row this output contributes to an
    /// [`EngineReport`]. Public so the serving layer can assemble
    /// reports for restored sessions without re-running the engine.
    pub fn report(&self) -> BenchmarkReport {
        BenchmarkReport {
            name: self.name.clone(),
            lines: self.source.lines().filter(|l| !l.trim().is_empty()).count(),
            nodes: self.graph.node_count(),
            outputs: self.graph.output_count(),
            indirect_refs: self.graph.indirect_mem_ops().len(),
            frontend: self.frontend,
            lowering: self.lowering,
            solvers: self
                .solutions
                .iter()
                .map(|s| SolverMetrics {
                    analysis: s.analysis.clone(),
                    wall: s.wall,
                    pairs: s.solution.as_ref().and_then(|x| x.pairs()),
                    flow_ins: s.solution.as_ref().and_then(|x| x.flow_ins()),
                    flow_outs: s.solution.as_ref().and_then(|x| x.flow_outs()),
                    dedup_hits: s.solution.as_ref().and_then(|x| x.dedup_hits()),
                    delta_batches: s.solution.as_ref().and_then(|x| x.delta_batches()),
                    deliveries_saved: s.solution.as_ref().and_then(|x| x.deliveries_saved()),
                    mode: s.mode.as_ref().map(|m| m.render()),
                    error: s.error.clone(),
                    checks: None,
                })
                .collect(),
        }
    }
}

/// An [`Engine::run`] result: the metrics report plus the underlying
/// per-benchmark data for harnesses that post-process solutions.
pub struct EngineRun {
    /// Per-stage metrics, serializable with [`EngineReport::to_value`].
    pub report: EngineReport,
    /// Shared inputs and boxed solutions, one entry per job.
    pub benches: Vec<BenchOutput>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_benchmark_all_five_solvers() {
        let run = Engine::new()
            .threads(2)
            .run(&Job::named(&["span"]))
            .unwrap();
        assert_eq!(run.benches.len(), 1);
        let b = &run.benches[0];
        assert_eq!(b.solutions.len(), 5);
        let names: Vec<&str> = b.solutions.iter().map(|s| s.analysis.as_str()).collect();
        assert_eq!(names, ["weihl", "steensgaard", "ci", "k1", "cs"]);
        assert!(b.cs().is_some());
        assert_eq!(
            b.solution("ci").unwrap().pairs(),
            Some(b.ci.total_pairs()),
            "listed ci solver must report the shared prepare-stage run"
        );
        let rep = &run.report.benchmarks[0];
        assert_eq!(rep.name, "span");
        assert!(rep.nodes > 0 && rep.indirect_refs > 0);
        assert_eq!(rep.solvers.len(), 5);
        assert!(rep.solvers.iter().all(|s| s.error.is_none()));
    }

    #[test]
    fn frontend_errors_abort_the_run() {
        let jobs = vec![Job::new("bad", "int main(void) { return x; }")];
        assert!(matches!(
            Engine::new().run(&jobs),
            Err(AnalysisError::Frontend(_))
        ));
    }

    #[test]
    fn solver_budget_overflow_is_recorded_not_fatal() {
        let run = Engine::new()
            .specs(&[SolverSpec::k1().max_steps(1)])
            .run(&Job::named(&["span"]))
            .unwrap();
        let s = &run.benches[0].solutions[0];
        assert!(s.solution.is_none());
        assert!(s.error.is_some(), "overflow should be recorded");
        let msg = run.report.benchmarks[0].solvers[0]
            .error
            .clone()
            .expect("recorded");
        assert!(
            msg.contains("k1") && msg.contains("span"),
            "error should carry solver + benchmark context: {msg}"
        );
    }
}
