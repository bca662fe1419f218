//! Differential fuzzing of the five solvers over generated programs.
//!
//! Per seed, a deterministic pointer-heavy mini-C program
//! ([`suite::generator`]) flows through the whole pipeline and seven
//! differential properties are checked, plus a printer round trip
//! (`print` must be a fixpoint of `parse ∘ print`, so every repro is a
//! standalone program):
//!
//! 1. **Oracle soundness** — every runtime dereference observed by the
//!    interpreter must be predicted by every solver's solution
//!    ([`interp::check_solution_dyn`]).
//! 2. **Precision lattice** — coverage at indirect references must be
//!    monotone along the provable edges of the spectrum: CS ⊆ CI,
//!    k=1 ⊆ CI, CI ⊆ Weihl, and CI ⊆ Steensgaard
//!    ([`alias::Solution::covers`]). k=1 and assumption-set CS are
//!    pointwise incomparable and deliberately not ordered — see
//!    DESIGN.md §"Differential fuzzing".
//! 3. **Naive/Delta equality** — difference propagation is a pure
//!    optimization; re-solving CI, Weihl, and k=1 with naive
//!    propagation must reach the identical fixpoint, id for id
//!    ([`alias::solver::same_fixpoint`]).
//! 4. **Incremental equivalence** — after one random edit
//!    ([`suite::edit`]), re-analysis through
//!    [`crate::Engine::analyze_incremental`] must reach the identical
//!    CI solution as a from-scratch solve of the edited program.
//! 5. **Planted checker defects** — with [`FuzzConfig::planted`] set, a
//!    self-contained memory-safety bug (dangling load, double free, or
//!    dead store) is appended to every generated program, and every
//!    solver's `checker::run_checks` sweep must flag its kind.
//! 6. **Demand agreement** — point queries through
//!    [`alias::DemandState`] must answer what the exhaustive CI
//!    solution answers.
//! 7. **Race soundness and monotonicity** — for programs that spawn
//!    threads (the generator's [`GenConfig::threaded`] preset, or any
//!    hand-written repro), every racing pair the bounded interleaving
//!    oracle ([`interp::explore_races`]) observes must be covered by a
//!    data-race diagnostic under every solver, and data-race sites must
//!    shrink along the lattice edges of property 2, so finer alias
//!    information can only remove race reports, never add them.
//!
//! Each artifact is computed once per seed and shared by the
//! properties: one solve per solver, one compiled program, graph and CI
//! solution (also property 4's pre-edit run), and one interpreter run
//! (for a threaded program, race schedule 0).
//!
//! Solvers run under step budgets and a wall-clock budget with graceful
//! degradation: a `StepLimit` or an interpreter abort is *recorded*
//! (the seed counts as degraded, its remaining checks are skipped) and
//! never a crash. [`crate::campaign`] is the driver: it runs these
//! checks per seed, and minimizes a violating program with the greedy
//! delta-debugger in [`crate::shrink`] before it lands in the
//! deduplicated report, so every finding ships as a standalone `.c`
//! repro.
//!
//! The additional [`FuzzConfig::fault`] knob deliberately injects a
//! known bug into the CI solver; the planted-bug self-test uses it to
//! prove the whole detect-and-minimize loop actually fires.
//! [`PlantedFault`] is the checker-level mirror of that knob.

use crate::BenchOutput;
use alias::solver::{same_fixpoint, solution_dump, Solution, SolutionBox};
use alias::{AnalysisError, Fault, Propagation, SolverKind, SolverSpec};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suite::generator::GenConfig;
use vdg::build::{lower, BuildOptions};
use vdg::graph::Graph;

/// Per-seed knobs of the differential checks; the seed range, chunking
/// and worker threads belong to [`crate::CampaignConfig`].
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Per-solver wall-clock budget in milliseconds; exceeding it is
    /// recorded as an overrun (degraded-but-counted, never fatal).
    pub budget_ms: u64,
    /// Program-generator shape knobs.
    pub gen: GenConfig,
    /// Step budget for the potentially exponential solvers (CS, k=1).
    pub max_steps: u64,
    /// Interpreter step budget per seed.
    pub interp_steps: u64,
    /// Minimize violating programs before reporting.
    pub shrink: bool,
    /// Deliberate fault injected into the CI solver (planted-bug
    /// self-test); [`Fault::None`] for real campaigns.
    pub fault: Fault,
    /// Program-level memory-safety defect planted into every generated
    /// program; the campaign then requires each solver's checker run to
    /// flag it ([`PlantedFault::None`] for plain campaigns).
    pub planted: PlantedFault,
}

/// Typed outcome of one differential job, for exact campaign accounting
/// and quarantine triage. Budget exhaustion is the *deterministic* kind
/// (a solver's step budget or the interpreter's step budget), never the
/// advisory wall-clock overrun counter, so outcome classification is
/// reproducible across runs and resumes. `Crashed` is assigned by the
/// campaign's `catch_unwind` wrapper — `check_source` itself treats a
/// panic as a bug, not an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every property ran to completion (violations may still exist).
    Completed,
    /// A step budget was exhausted; the affected checks were skipped.
    OverBudget,
    /// The job panicked and was isolated by the campaign runner.
    Crashed,
}

impl JobOutcome {
    /// Stable lowercase name, used in journals and quarantine files.
    pub fn name(self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::OverBudget => "over-budget",
            JobOutcome::Crashed => "crashed",
        }
    }
}

/// A program-level memory-safety defect the fuzzer plants into generated
/// programs. The checker-layer mirror of [`Fault::OverStrongUpdates`]:
/// where that variant proves the differential loop detects a *solver*
/// bug, a planted defect proves `checker::run_checks` flags a *program*
/// bug under every solver — a solver that misses it is reported as a
/// `"checker"` violation.
///
/// Plants are self-contained functions appended to the generated source
/// (nothing need call them: the checkers sweep every VDG node), so the
/// program's own behavior — and every other differential property — is
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlantedFault {
    /// No planted defect.
    #[default]
    None,
    /// A load through a pointer into a dead frame (a function returning
    /// `&local`). Expected flag: `dangling-local`.
    DanglingLoad,
    /// Two `free`s of one heap object through aliased pointers.
    /// Expected flag: `double-free`.
    DoubleFree,
    /// A store through a pointer that nothing ever reads. Expected
    /// flag: `dead-store`.
    DeadStore,
}

impl PlantedFault {
    /// The plantable defects (everything but `None`).
    pub fn all() -> [PlantedFault; 3] {
        [
            PlantedFault::DanglingLoad,
            PlantedFault::DoubleFree,
            PlantedFault::DeadStore,
        ]
    }

    /// The diagnostic kind every solver must emit for this plant.
    pub fn expected_kind(self) -> Option<checker::CheckKind> {
        match self {
            PlantedFault::None => None,
            PlantedFault::DanglingLoad => Some(checker::CheckKind::DanglingLocal),
            PlantedFault::DoubleFree => Some(checker::CheckKind::DoubleFree),
            PlantedFault::DeadStore => Some(checker::CheckKind::DeadStore),
        }
    }

    /// The defective function appended to a generated program.
    pub fn snippet(self) -> &'static str {
        match self {
            PlantedFault::None => "",
            PlantedFault::DanglingLoad => {
                "int *planted_dangling(void) {\n    int planted_x;\n    planted_x = 1;\n    return &planted_x;\n}\n"
            }
            PlantedFault::DoubleFree => {
                "void planted_double_free(void) {\n    int *planted_p;\n    int *planted_q;\n    planted_p = (int *) malloc(sizeof(int));\n    planted_q = planted_p;\n    free(planted_p);\n    free(planted_q);\n}\n"
            }
            PlantedFault::DeadStore => {
                "void planted_dead_store(void) {\n    int planted_x;\n    int *planted_p;\n    planted_p = &planted_x;\n    *planted_p = 42;\n}\n"
            }
        }
    }

    /// Appends the defective function to `src` (identity for `None`).
    pub fn plant(self, src: &str) -> String {
        match self {
            PlantedFault::None => src.to_string(),
            _ => format!("{src}\n{}", self.snippet()),
        }
    }
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            budget_ms: 200,
            gen: GenConfig::default(),
            max_steps: 2_000_000,
            interp_steps: 1_000_000,
            shrink: true,
            fault: Fault::None,
            planted: PlantedFault::None,
        }
    }
}

/// A property failure before shrinking attaches the repro.
pub(crate) struct Finding {
    pub(crate) kind: &'static str,
    pub(crate) solver: String,
    pub(crate) detail: String,
}

/// Everything one source text yields under the differential checks.
pub(crate) struct Findings {
    pub(crate) degraded: Vec<String>,
    pub(crate) overruns: u64,
    /// A solver or interpreter *step* budget was exhausted — the
    /// deterministic signal behind [`JobOutcome::OverBudget`].
    pub(crate) budget_exhausted: bool,
    pub(crate) violations: Vec<Finding>,
    pub(crate) demand_queries: u64,
    pub(crate) demand_hits: u64,
    /// Raw checker diagnostics under the CI solution (corpus stats).
    pub(crate) diag_total: u64,
    /// Deduplication keys (`fnv64` of check kind + offending source
    /// line) of those diagnostics, unique and sorted (corpus stats).
    pub(crate) diag_keys: Vec<u64>,
    /// Per-function structural fingerprints of the lowered graph
    /// (corpus stats).
    pub(crate) func_fps: Vec<u64>,
    /// Wall micros per solver (keyed by solver name) and per step of
    /// [`check_source`] (keyed `step:<name>`: each property, the printer
    /// round trip, compiling, corpus statistics and the interpreter
    /// oracle), for throughput summaries only — never part of canonical
    /// campaign output.
    pub(crate) solver_us: Vec<(&'static str, u64)>,
}

impl Findings {
    /// The typed outcome of this job (`Crashed` is assigned one layer
    /// up, by the campaign's `catch_unwind` wrapper).
    pub(crate) fn outcome(&self) -> JobOutcome {
        if self.budget_exhausted {
            JobOutcome::OverBudget
        } else {
            JobOutcome::Completed
        }
    }
}

/// Whether the error's root cause is a step-budget exhaustion — the
/// deterministic budget signal, as opposed to wall-clock overruns.
fn is_step_limit(e: &AnalysisError) -> bool {
    match e {
        AnalysisError::StepLimit(_) => true,
        AnalysisError::Context { source, .. } => is_step_limit(source),
        _ => false,
    }
}

/// Probe hook: the `(kind, solver)` labels `check_source` finds on one
/// source text. Lets diagnostics outside this crate re-run the exact
/// shrink predicate.
#[doc(hidden)]
pub fn check_source_for_test(src: &str, cfg: &FuzzConfig, seed: u64) -> Vec<(String, String)> {
    check_source(src, cfg, seed)
        .violations
        .into_iter()
        .map(|f| (f.kind.to_string(), f.solver))
        .collect()
}

/// Records the wall time since `*t` under `key` and restarts the clock.
fn lap(f: &mut Findings, key: &'static str, t: &mut Instant) {
    f.solver_us.push((key, t.elapsed().as_micros() as u64));
    *t = Instant::now();
}

/// Checks one source text against the seven differential properties
/// plus the printer round-trip. Never panics on solver or interpreter
/// resource exhaustion — those degrade the seed instead.
///
/// Each artifact is computed once per seed: the compiled program, its
/// graph and the CI solution are shared (behind `Arc`s) with property
/// 4's pre-edit run, and a threaded program's race schedule 0 is
/// property 1's interpreter run.
pub(crate) fn check_source(src: &str, cfg: &FuzzConfig, seed: u64) -> Findings {
    let job = format!("seed {seed}");
    let mut f = Findings {
        degraded: Vec::new(),
        overruns: 0,
        budget_exhausted: false,
        violations: Vec::new(),
        demand_queries: 0,
        demand_hits: 0,
        diag_total: 0,
        diag_keys: Vec::new(),
        func_fps: Vec::new(),
        solver_us: Vec::new(),
    };
    let mut clock = Instant::now();

    // Printer round-trip: `print` must be a fixpoint of `parse ∘ print`,
    // so every emitted repro is a faithful standalone program.
    if let Some(detail) = roundtrip_violation(src) {
        f.violations.push(Finding {
            kind: "roundtrip",
            solver: "pretty".to_string(),
            detail,
        });
    }
    lap(&mut f, "step:roundtrip", &mut clock);

    // Pipeline: the generator promises well-typed programs, so frontend
    // or lowering failures are genuine findings, not infrastructure.
    let t_run = clock;
    let prog = match cfront::compile(src) {
        Ok(p) => Arc::new(p),
        Err(e) => {
            f.violations.push(Finding {
                kind: "pipeline",
                solver: "frontend".to_string(),
                detail: AnalysisError::from(e)
                    .in_context("frontend", &job)
                    .to_string(),
            });
            return f;
        }
    };
    let frontend = clock.elapsed();
    let graph = match lower(&prog, &BuildOptions::default()) {
        Ok(g) => Arc::new(g),
        Err(e) => {
            f.violations.push(Finding {
                kind: "pipeline",
                solver: "lowering".to_string(),
                detail: AnalysisError::from(e)
                    .in_context("lowering", &job)
                    .to_string(),
            });
            return f;
        }
    };
    let lowering = clock.elapsed() - frontend;
    lap(&mut f, "step:compile", &mut clock);

    // Solve the full spectrum under budgets. The CI run doubles as the
    // shared path-table vocabulary for every pair-based solver.
    let budget = Duration::from_millis(cfg.budget_ms);
    let ci_spec = SolverSpec::ci().fault(cfg.fault);
    let t_ci = Instant::now();
    let ci = Arc::new(ci_spec.solve_ci(&graph));
    let ci_wall = t_ci.elapsed();
    f.solver_us.push(("ci", ci_wall.as_micros() as u64));
    if ci_wall > budget {
        f.overruns += 1;
    }
    let mut solved: Vec<(&'static str, SolutionBox)> = Vec::new();
    for spec in SolverSpec::all() {
        let spec = spec.max_steps(cfg.max_steps);
        let spec = if spec.kind() == SolverKind::Ci {
            spec.fault(cfg.fault)
        } else {
            spec
        };
        let name = spec.name();
        let t = Instant::now();
        let outcome = if spec.kind() == SolverKind::Ci {
            Ok(Box::new(ci.as_ref().clone()) as SolutionBox)
        } else {
            spec.solve(&graph, Some(&ci))
        };
        let elapsed = t.elapsed();
        if spec.kind() != SolverKind::Ci {
            f.solver_us.push((name, elapsed.as_micros() as u64));
        }
        if elapsed > budget {
            f.overruns += 1;
        }
        match outcome {
            Ok(sol) => solved.push((name, sol)),
            Err(e) => {
                if is_step_limit(&e) {
                    f.budget_exhausted = true;
                }
                f.degraded.push(e.in_context(name, &job).to_string());
            }
        }
    }
    let by_name = |n: &str| solved.iter().find(|(s, _)| *s == n).map(|(_, b)| &**b);
    // The solver times are recorded above, under the solver names.
    clock = Instant::now();

    // Corpus-scale statistics for campaign dedup accounting: checker
    // diagnostics keyed by (check kind, offending source line) — the
    // generator's statement grammar repeats identical lines across
    // thousands of programs, so line-keyed dedup is where repetitive
    // corpora pay off — plus per-function structural fingerprints for
    // cross-program function dedup.
    f.func_fps = alias::fingerprint::GraphIndex::build(&graph).func_fps;
    let diags = checker::run_checks(&graph, ci.as_ref(), &ci.callees);
    f.diag_total = diags.len() as u64;
    let mut keys: Vec<u64> = diags.iter().map(|d| diag_key(src, d)).collect();
    keys.sort_unstable();
    keys.dedup();
    f.diag_keys = keys;
    lap(&mut f, "step:corpus-stats", &mut clock);

    // Property 2 — the precision lattice, coarse ⊇ fine. Note the two
    // context-sensitive analyses are *not* on one chain: k=1 call
    // strings and assumption sets prune different spurious flows, so
    // neither covers the other pointwise (the fuzzer itself established
    // this — see DESIGN.md). Both refine CI, and CI refines both
    // flow-insensitive baselines; those are the theorems checked here.
    for (coarse, fine) in LATTICE_EDGES {
        let (Some(c), Some(d)) = (by_name(coarse), by_name(fine)) else {
            continue; // a degraded side skips the comparison
        };
        if c.covers(&graph, d) == Some(false) {
            f.violations.push(Finding {
                kind: "lattice",
                solver: format!("{coarse}⊉{fine}"),
                detail: format!(
                    "{coarse} does not cover {fine}: {} ({job})",
                    lattice_detail(&graph, c, d)
                ),
            });
        }
    }
    lap(&mut f, "step:p2-lattice", &mut clock);

    // Property 5 — planted checker defects: the source carries a known
    // memory-safety bug, and every solver's checker sweep must flag its
    // kind. A miss is a checker+solver precision/soundness finding.
    if let Some(kind) = cfg.planted.expected_kind() {
        for (name, sol) in &solved {
            let diags = checker::run_checks(&graph, &**sol, &ci.callees);
            if !diags.iter().any(|d| d.kind == kind) {
                f.violations.push(Finding {
                    kind: "checker",
                    solver: name.to_string(),
                    detail: format!(
                        "planted {:?} not flagged as {} ({job})",
                        cfg.planted,
                        kind.name()
                    ),
                });
            }
        }
    }
    lap(&mut f, "step:p5-planted", &mut clock);

    // Property 3 — naive propagation reaches the identical fixpoint,
    // id for id (path tables and the CI call graph included).
    let ci_naive = ci_spec
        .clone()
        .propagation(Propagation::Naive)
        .solve_ci(&graph);
    if !same_fixpoint(&graph, ci.as_ref(), &ci_naive) {
        f.violations.push(Finding {
            kind: "divergence",
            solver: "ci".to_string(),
            detail: format!("ci naive/delta fixpoints differ ({job})"),
        });
    }
    for kind in [SolverKind::Weihl, SolverKind::CallString1] {
        let spec = SolverSpec::new(kind)
            .max_steps(cfg.max_steps)
            .propagation(Propagation::Naive);
        let name = spec.name();
        let Some(delta) = by_name(name) else { continue };
        match spec.solve(&graph, Some(&ci)) {
            Ok(naive) => {
                if !same_fixpoint(&graph, delta, &*naive) {
                    f.violations.push(Finding {
                        kind: "divergence",
                        solver: name.to_string(),
                        detail: format!("{name} naive/delta fixpoints differ ({job})"),
                    });
                }
            }
            Err(e) => {
                if is_step_limit(&e) {
                    f.budget_exhausted = true;
                }
                f.degraded.push(e.in_context(name, &job).to_string());
            }
        }
    }
    lap(&mut f, "step:p3-naive", &mut clock);

    // Property 4 — incremental re-analysis is invisible: after one
    // random edit, `Engine::analyze_incremental` (a replay when the
    // graph is unchanged, else a fresh solve) must reach the same CI
    // solution as a from-scratch solve of the edited program. The pre-edit run is
    // this seed's own program, graph and CI solution, which the engine
    // would have recomputed identically (same CI spec, default build
    // options).
    if let Some(step) = suite::edit::apply_random_edit(src, seed) {
        let spec = ci_spec.clone();
        let eng = crate::Engine::new()
            .threads(1)
            .specs(std::slice::from_ref(&spec))
            .ci_spec(spec);
        let prev = eng.solve_prepared(
            vec![BenchOutput {
                name: job.clone(),
                source: src.to_string(),
                input: Vec::new(),
                program: Arc::clone(&prog),
                graph: Arc::clone(&graph),
                ci: Arc::clone(&ci),
                ci_wall,
                frontend,
                lowering,
                solutions: Vec::new(),
            }],
            t_run,
        );
        let jobs = vec![crate::Job::new(job.clone(), step.source)];
        // The edit generator only returns programs that compile, so
        // the scratch run does not fail.
        if let Ok(scratch) = eng.run(&jobs) {
            match eng.analyze_incremental(&prev, &jobs) {
                Ok(inc) => f.violations.extend(incremental_divergence(
                    &inc.benches[0],
                    &scratch.benches[0],
                    &step.edit.description,
                    &job,
                )),
                Err(e) => {
                    if is_step_limit(&e) {
                        f.budget_exhausted = true;
                    }
                    f.degraded
                        .push(e.in_context("incremental", &job).to_string());
                }
            }
        }
    }
    lap(&mut f, "step:p4-incremental", &mut clock);

    // Property 6 — demand-driven queries agree with the exhaustive CI
    // oracle. Fires K pseudo-random point queries (both kinds) through
    // one growing DemandState. A budget-exhausted query answers *from*
    // the oracle, so it agrees by construction; the campaign separately
    // aggregates the non-fallback rate and callers assert it is
    // positive, so fallbacks cannot quietly hollow out the property.
    {
        let sites = graph.indirect_mem_ops();
        if !sites.is_empty() {
            let mut demand = alias::DemandState::new(
                &graph,
                alias::DemandConfig {
                    ci: ci_spec.ci_config(),
                    ..alias::DemandConfig::default()
                },
            );
            let ci_rendered = |node| {
                let mut v: Vec<String> = ci
                    .loc_referents(&graph, node)
                    .iter()
                    .map(|&p| ci.paths.display(p, &graph))
                    .collect();
                v.sort();
                v
            };
            // Tiny xorshift stream off the campaign seed: site picks
            // must be deterministic per seed for shrink re-runs.
            let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
            let mut pick = |n: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng as usize) % n
            };
            const K: usize = 8;
            for _ in 0..K {
                let (a, _) = sites[pick(sites.len())];
                let (b, _) = sites[pick(sites.len())];
                let got = demand.loc_referents_rendered(&graph, a);
                let want = ci_rendered(a);
                if got != want {
                    f.violations.push(Finding {
                        kind: "demand",
                        solver: "demand".to_string(),
                        detail: format!(
                            "referents_at node {a:?}: demand {got:?} != ci {want:?} ({job})"
                        ),
                    });
                }
                let (hit, witnesses) = demand.may_alias(&graph, a, b);
                let ba = Solution::loc_referent_bases(ci.as_ref(), &graph, a);
                let bb = Solution::loc_referent_bases(ci.as_ref(), &graph, b);
                let want_w: Vec<_> = ba
                    .iter()
                    .copied()
                    .filter(|x| bb.binary_search(x).is_ok())
                    .collect();
                if witnesses != want_w || hit == want_w.is_empty() {
                    f.violations.push(Finding {
                        kind: "demand",
                        solver: "demand".to_string(),
                        detail: format!(
                            "may_alias {a:?}/{b:?}: demand {witnesses:?} != ci {want_w:?} ({job})"
                        ),
                    });
                }
            }
            let ds = demand.stats();
            f.demand_queries += ds.queries;
            f.demand_hits += ds.demand_hits;
        }
    }
    lap(&mut f, "step:p6-demand", &mut clock);

    // The interpreter oracle. A threaded program explores
    // [`checker::RACE_SCHEDULES`] seeded schedules for property 7;
    // schedule 0 is the round-robin run `interp::run` makes with this
    // config, so its record is property 1's run too.
    let icfg = interp::Config {
        max_steps: cfg.interp_steps,
        ..interp::Config::default()
    };
    let (run, obs) = if prog.uses_threads() {
        let (rec, obs) = interp::explore_races_recorded(&prog, &icfg, checker::RACE_SCHEDULES);
        (rec.into_outcome(), Some(obs))
    } else {
        (interp::run(&prog, &icfg), None)
    };
    lap(&mut f, "step:oracle", &mut clock);

    // Property 1 — oracle soundness against the interpreter trace.
    match run {
        Ok(outcome) => {
            for (name, sol) in &solved {
                let vs = interp::check_solution_dyn(&prog, &graph, &**sol, &outcome.trace);
                if let Some(v) = vs.first() {
                    f.violations.push(Finding {
                        kind: "soundness",
                        solver: name.to_string(),
                        detail: format!(
                            "{} runtime {} not predicted at node {:?} (predicted {:?}; {} miss(es), {job})",
                            if v.is_write { "write" } else { "read" },
                            v.runtime,
                            v.node,
                            v.predicted,
                            vs.len(),
                        ),
                    });
                }
            }
        }
        Err(e) => {
            if matches!(e, interp::RunError::StepLimit) {
                f.budget_exhausted = true;
            }
            f.degraded.push(format!("interp on {job}: {e}"));
        }
    }
    lap(&mut f, "step:p1-soundness", &mut clock);

    // Property 7 — threaded race soundness and monotonicity. For
    // programs that spawn threads, every racing pair the interleaving
    // oracle observed must be covered by a data-race diagnostic from
    // every solver (a miss means the static checker under-approximated
    // MHP footprints), and data-race sites must shrink monotonically
    // along the same lattice edges as Property 2 — a finer solver may
    // drop a coarse solver's false positives but never invent a race
    // the coarser referent sets already covered. Both read data-race
    // diagnostics only, so only the race checker runs.
    if let Some(obs) = obs {
        let mut race_sites: Vec<(&'static str, BTreeSet<u32>)> = Vec::new();
        for (name, sol) in &solved {
            let mut diags = Vec::new();
            checker::race::check_races(&graph, &**sol, &ci.callees, &mut diags);
            if let Some((x, y)) = checker::refuted_race(&diags, &obs) {
                f.violations.push(Finding {
                    kind: "race-soundness",
                    solver: name.to_string(),
                    detail: format!(
                        "oracle observed a race between sites {} and {} that no \
                         data-race diagnostic covers ({job})",
                        x.0, y.0
                    ),
                });
            }
            race_sites.push((
                name,
                diags
                    .iter()
                    .filter(|d| d.kind == checker::CheckKind::DataRace)
                    .map(|d| d.span.start)
                    .collect(),
            ));
        }
        let sites = |n: &str| race_sites.iter().find(|(s, _)| *s == n).map(|(_, v)| v);
        for (coarse, fine) in LATTICE_EDGES {
            let (Some(c), Some(d)) = (sites(coarse), sites(fine)) else {
                continue; // a degraded side skips the comparison
            };
            if let Some(s) = d.iter().find(|s| !c.contains(s)) {
                f.violations.push(Finding {
                    kind: "race-monotone",
                    solver: format!("{coarse}⊉{fine}"),
                    detail: format!(
                        "{fine} reports a data race at byte {s} that {coarse} does not ({job})"
                    ),
                });
            }
        }
    }
    lap(&mut f, "step:p7-races", &mut clock);

    f
}

/// The `(coarse, fine)` edges of the precision lattice that properties
/// 2 and 7 check.
const LATTICE_EDGES: [(&str, &str); 4] = [
    ("weihl", "ci"),
    ("steensgaard", "ci"),
    ("ci", "k1"),
    ("ci", "cs"),
];

/// Property 4's verdict on one edit: the `"incremental"` finding when
/// the incremental run's CI solution differs from the from-scratch
/// solve of the edited program.
///
/// The rendered [`solution_dump`]s decide. They are built only when
/// the cheap check cannot rule a difference out: two benches that
/// lowered the same source to the same graph fingerprint have graphs
/// equal id for id, and CI results are canonical, so equal fixpoints
/// ([`same_fixpoint`]) have equal dumps.
fn incremental_divergence(
    inc: &BenchOutput,
    scratch: &BenchOutput,
    edit: &str,
    job: &str,
) -> Option<Finding> {
    let (Some(a), Some(b)) = (inc.solution("ci"), scratch.solution("ci")) else {
        return None;
    };
    let graph_fp = |g: &Graph| alias::fingerprint::GraphIndex::build(g).graph_fp;
    if inc.source == scratch.source
        && graph_fp(&inc.graph) == graph_fp(&scratch.graph)
        && same_fixpoint(&scratch.graph, a, b)
    {
        return None;
    }
    (solution_dump(a, &inc.graph) != solution_dump(b, &scratch.graph)).then(|| Finding {
        kind: "incremental",
        solver: "ci".to_string(),
        detail: format!("incremental ci diverges from scratch after edit `{edit}` ({job})"),
    })
}

/// Deduplication key for one checker diagnostic: the check kind plus
/// the trimmed text of the source line it points at. Two programs
/// emitting the same statement with the same defect collapse to one
/// key, which is exactly the repetition campaign corpora exhibit.
pub(crate) fn diag_key(src: &str, d: &checker::Diagnostic) -> u64 {
    let start = (d.span.start as usize).min(src.len());
    let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
    let line_end = src[line_start..]
        .find('\n')
        .map_or(src.len(), |i| line_start + i);
    alias::fingerprint::fnv64_parts(&[
        d.kind.name().as_bytes(),
        src[line_start..line_end].trim().as_bytes(),
    ])
}

/// Locates the first indirect reference where `fine` escapes `coarse`
/// and renders both base sets, for actionable lattice-violation
/// reports.
fn lattice_detail(graph: &Graph, coarse: &dyn Solution, fine: &dyn Solution) -> String {
    for (node, _) in graph.indirect_mem_ops() {
        let c = coarse.loc_referent_bases(graph, node);
        let d = fine.loc_referent_bases(graph, node);
        if !d.iter().all(|b| c.binary_search(b).is_ok()) {
            return format!(
                "at node {:?}: coarse bases {:?}, fine bases {:?}",
                node, c, d
            );
        }
    }
    "no offending node (covers() disagrees with rescan)".to_string()
}

/// `print ∘ parse ∘ print = print ∘ parse`: pretty-printing must be a
/// parse fixpoint. Returns the mismatch rendered as a diff hint.
fn roundtrip_violation(src: &str) -> Option<String> {
    let parse = |s: &str| cfront::parser::parse(cfront::lexer::lex(s).ok()?).ok();
    let p1 = parse(src)?;
    let once = cfront::pretty::print_program(&p1);
    let Some(p2) = parse(&once) else {
        return Some("printed program fails to re-parse".to_string());
    };
    let twice = cfront::pretty::print_program(&p2);
    if once == twice {
        None
    } else {
        let byte = once
            .bytes()
            .zip(twice.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| once.len().min(twice.len()));
        Some(format!(
            "printer not a parse fixpoint (first divergence at byte {byte})"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suite::generator::generate;

    /// Checks seeds `start..start + seeds` one by one, generated and
    /// planted as a campaign does. A panicking seed fails the caller.
    fn check_seeds(start: u64, seeds: u64, cfg: &FuzzConfig) -> Vec<Findings> {
        (start..start + seeds)
            .map(|seed| check_source(&cfg.planted.plant(&generate(seed, &cfg.gen)), cfg, seed))
            .collect()
    }

    /// Every violation found, as `kind solver detail` lines.
    fn violations(found: &[Findings]) -> Vec<String> {
        found
            .iter()
            .flat_map(|f| &f.violations)
            .map(|v| format!("{} {} {}", v.kind, v.solver, v.detail))
            .collect()
    }

    #[test]
    fn small_campaign_is_clean() {
        let found = check_seeds(0, 8, &FuzzConfig::default());
        let v = violations(&found);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
        let queries: u64 = found.iter().map(|f| f.demand_queries).sum();
        let hits: u64 = found.iter().map(|f| f.demand_hits).sum();
        assert!(queries > 0, "demand property never fired");
        assert!(
            hits > 0,
            "every demand query fell back to the oracle — the property \
             compared the oracle against itself"
        );
    }

    #[test]
    fn planted_defects_are_flagged_by_every_solver() {
        for planted in PlantedFault::all() {
            let cfg = FuzzConfig {
                planted,
                ..FuzzConfig::default()
            };
            let v = violations(&check_seeds(0, 3, &cfg));
            assert!(
                v.iter().all(|v| !v.starts_with("checker ")),
                "{planted:?} should be flagged by every solver; got {v:?}"
            );
        }
    }

    #[test]
    fn missing_plant_is_detected() {
        // A clean program claimed to carry a planted double free: the
        // checker property must report the miss for every solver, which
        // proves the detection loop actually fires.
        let cfg = FuzzConfig {
            planted: PlantedFault::DoubleFree,
            ..FuzzConfig::default()
        };
        let src = "int main(void) { return 0; }";
        let found = check_source(src, &cfg, 0);
        assert_eq!(
            found
                .violations
                .iter()
                .filter(|v| v.kind == "checker")
                .count(),
            5,
            "all five solvers should be reported as missing the plant"
        );
    }

    #[test]
    fn threaded_campaign_is_clean_under_race_properties() {
        // The threaded generator preset spawns workers from main, so
        // every seed exercises Property 7 (race soundness against the
        // interleaving oracle, race monotonicity along the lattice) on
        // top of the sequential properties.
        let cfg = FuzzConfig {
            gen: GenConfig::threaded(),
            ..FuzzConfig::default()
        };
        let v = violations(&check_seeds(0, 8, &cfg));
        assert!(v.is_empty(), "threaded campaign violations: {v:?}");
    }

    /// A minimal planted race: main and the worker both write `g`
    /// between spawn and join.
    const RACY_REPRO: &str = "int g;\n\
                              void worker(void) { g = 2; }\n\
                              int main(void) { spawn worker(); g = 2; join; return g; }\n";

    #[test]
    fn race_properties_cover_a_hand_written_racy_repro() {
        // The static checker must cover every pair the oracle observes
        // (no race-soundness finding) and the spectrum must stay
        // monotone (no race-monotone finding).
        let src = RACY_REPRO;
        let prog = cfront::compile(src).expect("repro compiles");
        assert!(prog.uses_threads(), "repro must reach Property 7");
        let found = check_source(src, &FuzzConfig::default(), 0);
        assert!(
            found.violations.is_empty(),
            "racy repro violations: {:?}",
            found
                .violations
                .iter()
                .map(|v| format!("{} {} {}", v.kind, v.solver, v.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn planted_fault_is_caught() {
        // Seed window chosen so at least one generated program drives an
        // interpreter trace through a wrongly-killed binding; smaller
        // windows only trip the lattice checks (the faulted CI shrinks
        // below k=1/CS without the trace witnessing the missing path).
        let cfg = FuzzConfig {
            fault: Fault::OverStrongUpdates,
            ..FuzzConfig::default()
        };
        let v = violations(&check_seeds(50, 12, &cfg));
        assert!(
            v.iter().any(|v| v.starts_with("soundness ")),
            "planted over-strong-update fault should produce a soundness violation; got {v:?}"
        );
    }

    /// A CI-only engine like property 4's, with `fault` planted in CI.
    fn ci_engine(fault: Fault) -> crate::Engine {
        let spec = SolverSpec::ci().fault(fault);
        crate::Engine::new()
            .threads(1)
            .specs(std::slice::from_ref(&spec))
            .ci_spec(spec)
    }

    fn ci_bench(fault: Fault, src: &str) -> BenchOutput {
        ci_engine(fault)
            .run(&[crate::Job::new("seed 7", src)])
            .expect("compiles")
            .benches
            .remove(0)
    }

    #[test]
    fn incremental_property_reports_a_real_divergence() {
        // The over-strong-update fault changes this program's CI
        // solution; standing in for a broken replay, it must yield
        // exactly one finding with the campaign's detail text.
        let src = include_str!("../../../tests/fixtures/weakened_strong_update.c");
        let scratch = ci_bench(Fault::None, src);
        let broken = ci_bench(Fault::OverStrongUpdates, src);
        let ci = |b: &BenchOutput| solution_dump(b.solution("ci").expect("ci"), &b.graph);
        assert_ne!(
            ci(&broken),
            ci(&scratch),
            "the fault must change the answer"
        );
        let found: Vec<Finding> =
            incremental_divergence(&broken, &scratch, "delete statement in fn1", "seed 7")
                .into_iter()
                .collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, "incremental");
        assert_eq!(found[0].solver, "ci");
        assert_eq!(
            found[0].detail,
            "incremental ci diverges from scratch after edit `delete statement in fn1` (seed 7)"
        );
    }

    #[test]
    fn incremental_property_is_silent_on_equal_solutions() {
        let eng = ci_engine(Fault::None);
        let (mut replayed, mut fresh) = (0, 0);
        for seed in 0..12 {
            let src = generate(seed, &GenConfig::campaign());
            let step = suite::edit::apply_random_edit(&src, seed).expect("an edit applies");
            let prev = eng
                .run(&[crate::Job::new("p", src.as_str())])
                .expect("runs");
            let jobs = [crate::Job::new("p", step.source.as_str())];
            let scratch = eng.run(&jobs).expect("edited program runs");
            let inc = eng.analyze_incremental(&prev, &jobs).expect("re-analyzes");
            match inc.benches[0].solutions[0].mode {
                Some(crate::SolveMode::Replay) => replayed += 1,
                Some(crate::SolveMode::Fresh { .. }) => fresh += 1,
                None => {}
            }
            assert!(
                incremental_divergence(&inc.benches[0], &scratch.benches[0], "e", "j").is_none(),
                "seed {seed}: equal solutions reported as divergent"
            );
        }
        assert!(replayed > 0, "no edit exercised a replay");
        assert!(fresh > 0, "no edit exercised a fresh solve");

        // Two sources that differ only in a comment skip the id-for-id
        // comparison; the rendered dumps agree, so nothing is reported.
        let src = generate(3, &GenConfig::campaign());
        let a = ci_bench(Fault::None, &src);
        let b = ci_bench(Fault::None, &format!("/* edited */\n{src}"));
        assert!(incremental_divergence(&a, &b, "e", "j").is_none());
    }

    #[test]
    fn race_schedule_zero_is_the_oracle_run() {
        // Property 1 takes a threaded program's run from race schedule
        // 0, and the checker harness labels from it: that record must be
        // what `interp::run` returns for the same config.
        let same = |src: &str, icfg: &interp::Config| {
            let prog = cfront::compile(src).expect("compiles");
            assert!(prog.uses_threads());
            let (rec, obs) = interp::explore_races_recorded(&prog, icfg, checker::RACE_SCHEDULES);
            assert_eq!(obs.schedules, checker::RACE_SCHEDULES);
            match interp::run(&prog, icfg) {
                Ok(out) => {
                    assert_eq!(rec.error, None);
                    assert_eq!(rec.exit, Some(out.exit));
                    assert_eq!(rec.steps, out.steps);
                    assert_eq!(rec.stdout, out.stdout);
                    assert_eq!(rec.trace, out.trace);
                }
                Err(e) => assert_eq!(rec.error, Some(e)),
            }
            rec.error
        };
        let icfg = interp::Config {
            max_steps: FuzzConfig::default().interp_steps,
            ..interp::Config::default()
        };
        for seed in 0..64 {
            assert_eq!(same(&generate(seed, &GenConfig::threaded()), &icfg), None);
        }
        assert_eq!(same(RACY_REPRO, &icfg), None);
        let null = "int g; int *p;\n\
                    void worker(void) { g = 1; }\n\
                    int main(void) { spawn worker(); join; p = NULL; return *p; }\n";
        assert!(matches!(
            same(null, &icfg),
            Some(interp::RunError::Dynamic(_))
        ));
        let spin = "int g;\n\
                    void worker(void) { g = 1; }\n\
                    int main(void) { spawn worker(); while (1) { g = g + 1; } join; return 0; }\n";
        let short = interp::Config {
            max_steps: 10_000,
            ..interp::Config::default()
        };
        assert_eq!(same(spin, &short), Some(interp::RunError::StepLimit));
    }
}
