//! # engine — the parallel analysis driver
//!
//! One engine invocation fans (benchmark × analysis) jobs across a
//! work-stealing thread pool, shares each benchmark's immutable
//! `Program`/`Graph`/CI solution behind `Arc`s so five solvers reuse a
//! single lowering, and records per-stage metrics into an
//! [`EngineReport`] that serializes to JSON.
//!
//! ```text
//!            stage 1: prepare (parallel over benchmarks)
//!   source ──lex/parse/sema──▶ Program ──lower──▶ Graph ──ci──▶ CiResult
//!                                  │                 │              │
//!                                  └── Arc ──────────┴── Arc ───────┘
//!            stage 2: solve (parallel over benchmark × solver jobs)
//!   (graph, ci) ──▶ weihl │ steensgaard │ k=1 │ cs   (dyn Solver)
//!                                  │
//!            EngineReport: frontend/lowering/solver wall times,
//!            worklist iterations, pair counts — table or JSON
//! ```
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
pub mod compose;
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
pub use fuzz::{FuzzConfig, FuzzReport, FuzzViolation, JobOutcome, PlantedFault};
pub use incremental::{FreshReason, ProgramEntry, SolveMode, SummaryCache};
pub use report::{BenchmarkReport, CheckMetrics, EngineReport, IncrementalStats, SolverMetrics};

use alias::ci::CiResult;
use alias::cs::CsResult;
use alias::solver::{Solution, SolutionBox, Solver, SolverSpec};
use alias::AnalysisError;
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
    solvers: Vec<Arc<dyn Solver>>,
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
        let specs = SolverSpec::all();
        Engine {
            threads: 0,
            solvers: specs.iter().map(|s| Arc::from(s.build())).collect(),
            specs,
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

    /// Replaces the solver list with solvers built from `specs` — the
    /// single configuration surface (see [`SolverSpec`]): no caller
    /// constructs a solver stage by hand. The shared CI solution is
    /// computed in the prepare stage regardless (it is the common
    /// vocabulary the other solvers key their path tables off), and a
    /// listed `"ci"` solver reports that run rather than re-solving.
    pub fn specs(mut self, specs: &[SolverSpec]) -> Self {
        self.solvers = specs.iter().map(|s| Arc::from(s.build())).collect();
        self.specs = specs.to_vec();
        self
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
        let t_run = Instant::now();
        let threads = if self.threads == 0 {
            pool::auto_threads()
        } else {
            self.threads
        };

        // Stage 1 — prepare: one job per benchmark, each producing the
        // shared immutable inputs every solver of stage 2 reuses.
        let prepared: Vec<Result<Prepared, AnalysisError>> =
            pool::run_indexed(jobs.len(), threads, |i| self.prepare(&jobs[i]));
        let mut benches = Vec::with_capacity(jobs.len());
        for p in prepared {
            benches.push(p?);
        }

        // Stage 2 — solve: one job per (benchmark × non-CI solver),
        // claimed dynamically so a slow CS run does not serialize the
        // cheap baselines behind it.
        let solve_jobs: Vec<(usize, usize)> = benches
            .iter()
            .enumerate()
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
                let b = &benches[bi];
                let s = &self.solvers[si];
                let t = Instant::now();
                let outcome = s.solve(&b.graph, Some(&b.ci));
                let wall = t.elapsed();
                let solved = match outcome {
                    Ok(solution) => Solved {
                        analysis: s.name().to_string(),
                        wall,
                        solution: Some(solution),
                        mode: None,
                        error: None,
                    },
                    Err(e) => Solved {
                        analysis: s.name().to_string(),
                        wall,
                        solution: None,
                        mode: None,
                        // Attach solver + benchmark so the report's
                        // one-liner is actionable on its own.
                        error: Some(e.in_context(s.name(), &b.name).to_string()),
                    },
                };
                (bi, si, solved)
            });

        // Assemble per-benchmark outputs in configured solver order.
        let mut outputs: Vec<BenchOutput> = benches
            .into_iter()
            .map(|p| BenchOutput {
                name: p.name,
                source: p.source,
                input: p.input,
                program: p.program,
                graph: p.graph,
                ci: p.ci,
                ci_wall: p.ci_wall,
                frontend: p.frontend,
                lowering: p.lowering,
                solutions: Vec::new(),
            })
            .collect();
        let mut slots: Vec<Vec<Option<Solved>>> = outputs
            .iter()
            .map(|_| self.solvers.iter().map(|_| None).collect())
            .collect();
        for (bi, si, s) in solved {
            slots[bi][si] = Some(s);
        }
        for (bi, row) in slots.into_iter().enumerate() {
            for (si, slot) in row.into_iter().enumerate() {
                if let Some(s) = slot {
                    outputs[bi].solutions.push(s);
                } else if self.solvers[si].name() == "ci" {
                    // The shared prepare-stage run doubles as the CI
                    // solver's product.
                    let b = &mut outputs[bi];
                    b.solutions.push(Solved {
                        analysis: "ci".to_string(),
                        wall: b.ci_wall,
                        solution: Some(Box::new(b.ci.as_ref().clone())),
                        mode: None,
                        error: None,
                    });
                }
            }
        }

        let report = EngineReport {
            threads,
            total_wall: t_run.elapsed(),
            benchmarks: outputs.iter().map(BenchOutput::report).collect(),
            incremental: None,
            serve: None,
        };
        Ok(EngineRun {
            report,
            benches: outputs,
        })
    }

    fn prepare(&self, job: &Job) -> Result<Prepared, AnalysisError> {
        let t0 = Instant::now();
        let program = cfront::compile(&job.source)?;
        let frontend = t0.elapsed();
        let t1 = Instant::now();
        let graph = lower(&program, &self.build)?;
        let lowering = t1.elapsed();
        let t2 = Instant::now();
        let ci = self
            .ci
            .solve(&graph, None)
            .expect("the CI solver has no step budget")
            .into_ci()
            .expect("the engine's ci spec must describe the CI analysis");
        let ci_wall = t2.elapsed();
        Ok(Prepared {
            name: job.name.clone(),
            source: job.source.clone(),
            input: job.input.clone(),
            program: Arc::new(program),
            graph: Arc::new(graph),
            ci: Arc::new(ci),
            ci_wall,
            frontend,
            lowering,
        })
    }
}

/// Stage-1 product for one benchmark.
struct Prepared {
    name: String,
    source: String,
    input: Vec<u8>,
    program: Arc<cfront::Program>,
    graph: Arc<Graph>,
    ci: Arc<CiResult>,
    ci_wall: Duration,
    frontend: Duration,
    lowering: Duration,
}

/// One solver's outcome on one benchmark.
pub struct Solved {
    /// The solver's [`Solver::name`].
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
    /// Per-stage metrics, serializable with [`EngineReport::to_json`].
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
