//! The precision harness: every checker under every solver, graded by
//! the interpreter oracle, rendered as a paper-style table.
//!
//! The harness is the checker-level restatement of the paper's
//! experiment: hold the client fixed, vary only the analysis, and ask
//! whether added context sensitivity buys the client anything. Here the
//! client is a diagnostic tool, so the currency is true/false-positive
//! counts instead of referent-set sizes.

use crate::label::{label_with_races, refuted_fault, refuted_race, Label, LabeledDiagnostic};
use crate::{CheckKind, Diagnostic};
use alias::{AnalysisError, CiResult, SolverSpec};
use cfront::ast::{ExprId, Program};
use interp::exec::{explore_races_recorded, run_traced, Config, RaceObs, RunRecord};
use interp::FaultInfo;
use vdg::graph::Graph;

/// How many thread interleavings the oracle explores when grading race
/// diagnostics for a threaded program (round-robin plus seeded
/// preemption; see [`interp::explore_races`]).
pub const RACE_SCHEDULES: usize = 8;

/// Per-kind and per-label diagnostic counts for one solver.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckCounts {
    /// Diagnostics per checker, in [`CheckKind::all`] order.
    pub by_kind: [usize; 7],
    /// Oracle-confirmed diagnostics.
    pub true_positives: usize,
    /// Diagnostics whose site executed without the defect.
    pub false_positives: usize,
    /// Diagnostics at sites the oracle run never reached.
    pub unreachable: usize,
}

impl CheckCounts {
    /// Tallies labeled diagnostics.
    pub fn from_labeled(labeled: &[LabeledDiagnostic]) -> CheckCounts {
        let mut c = CheckCounts::default();
        for l in labeled {
            let k = CheckKind::all()
                .iter()
                .position(|&k| k == l.diag.kind)
                .expect("kind in order");
            c.by_kind[k] += 1;
            match l.label {
                Label::TruePositive => c.true_positives += 1,
                Label::FalsePositive => c.false_positives += 1,
                Label::Unreachable => c.unreachable += 1,
            }
        }
        c
    }

    /// Total diagnostics.
    pub fn total(&self) -> usize {
        self.by_kind.iter().sum()
    }

    /// False positives over oracle-decided diagnostics (unreachable
    /// sites are excluded, since the run says nothing about them).
    pub fn fp_rate(&self) -> f64 {
        let decided = self.true_positives + self.false_positives;
        if decided == 0 {
            0.0
        } else {
            self.false_positives as f64 / decided as f64
        }
    }
}

/// One solver's row of the precision table.
#[derive(Debug, Clone)]
pub struct PrecisionRow {
    /// The [`alias::SolverSpec::name`].
    pub solver: String,
    /// Every diagnostic with its oracle verdict.
    pub labeled: Vec<LabeledDiagnostic>,
    /// A runtime fault no diagnostic predicted — a soundness failure of
    /// the checker+solver pair. Must be `None` everywhere.
    pub refuted: Option<FaultInfo>,
    /// A race pair observed under some explored schedule that no
    /// [`CheckKind::DataRace`] diagnostic predicted — the interleaving
    /// analogue of `refuted`. Must be `None` everywhere.
    pub refuted_race: Option<(ExprId, ExprId)>,
    /// The tallies.
    pub counts: CheckCounts,
}

/// Runs every checker under one solver configuration. `ci` supplies the
/// shared path vocabulary and discovered call graph; pass the same one
/// for every spec so diagnostic differences are points-to precision
/// alone.
///
/// # Errors
///
/// Propagates [`AnalysisError`] from budgeted solvers (CS, k=1).
pub fn check_with_spec(
    graph: &Graph,
    spec: &SolverSpec,
    ci: &CiResult,
) -> Result<Vec<Diagnostic>, AnalysisError> {
    let sol = spec.solve(graph, Some(ci))?;
    Ok(crate::run_checks(graph, sol.as_ref(), &ci.callees))
}

/// Runs the oracle interpreter once for `prog`, serving `input` to
/// `getchar()`.
pub fn oracle_run(prog: &Program, input: &[u8]) -> RunRecord {
    run_traced(
        prog,
        &Config {
            input: input.to_vec(),
            ..Config::default()
        },
    )
}

/// The oracle's two answers for `prog` with `input` served to
/// `getchar()`: the [`oracle_run`] record, and for a threaded program
/// the bounded interleaving exploration for race grading, the union of
/// races and executed sites over [`RACE_SCHEDULES`] schedules (`None`
/// for a sequential program). The exploration's schedule 0 is the
/// oracle run itself, so a threaded program runs `RACE_SCHEDULES`
/// times, not once more.
pub fn oracle(prog: &Program, input: &[u8]) -> (RunRecord, Option<RaceObs>) {
    if !prog.uses_threads() {
        return (oracle_run(prog, input), None);
    }
    let cfg = Config {
        input: input.to_vec(),
        ..Config::default()
    };
    let (rec, obs) = explore_races_recorded(prog, &cfg, RACE_SCHEDULES);
    (rec, Some(obs))
}

/// Runs every checker under each of `specs`, labels all diagnostics
/// against one oracle run, and returns one row per solver (in the given
/// order).
///
/// # Errors
///
/// Propagates [`AnalysisError`] from budgeted solvers (CS, k=1).
pub fn precision_table(
    prog: &Program,
    graph: &Graph,
    specs: &[SolverSpec],
    input: &[u8],
) -> Result<Vec<PrecisionRow>, AnalysisError> {
    let ci = SolverSpec::ci().solve_ci(graph);
    // Threaded programs additionally get a bounded interleaving
    // exploration, so race diagnostics are graded against every
    // explored schedule rather than one arbitrary one.
    let (rec, obs) = oracle(prog, input);
    let mut rows = Vec::with_capacity(specs.len());
    for spec in specs {
        let diags = check_with_spec(graph, spec, &ci)?;
        let refuted = refuted_fault(&diags, &rec);
        let refuted_race = obs.as_ref().and_then(|o| refuted_race(&diags, o));
        let labeled = label_with_races(diags, &rec, obs.as_ref());
        let counts = CheckCounts::from_labeled(&labeled);
        rows.push(PrecisionRow {
            solver: spec.name().to_string(),
            labeled,
            refuted,
            refuted_race,
            counts,
        });
    }
    Ok(rows)
}

/// Short column heads for the checkers, in [`CheckKind::all`] order.
pub const KIND_HEADS: [&str; 7] = ["uaf", "dfree", "dangl", "uninit", "null", "dead", "race"];

/// Renders rows as an aligned paper-style table:
///
/// ```text
/// solver         uaf  dfree  dangl  uninit  null  dead  total   TP   FP  unreach  FP-rate
/// weihl            1      1      2       0     0     3      7    4    2        1    0.333
/// ```
pub fn render_table(rows: &[PrecisionRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:<12}", "solver");
    for h in KIND_HEADS {
        let _ = write!(out, "  {h:>6}");
    }
    let _ = writeln!(
        out,
        "  {:>6}  {:>4}  {:>4}  {:>7}  {:>7}",
        "total", "TP", "FP", "unreach", "FP-rate"
    );
    for r in rows {
        let _ = write!(out, "{:<12}", r.solver);
        for n in r.counts.by_kind {
            let _ = write!(out, "  {n:>6}");
        }
        let _ = writeln!(
            out,
            "  {:>6}  {:>4}  {:>4}  {:>7}  {:>7.3}",
            r.counts.total(),
            r.counts.true_positives,
            r.counts.false_positives,
            r.counts.unreachable,
            r.counts.fp_rate(),
        );
        if let Some(f) = &r.refuted {
            let _ = writeln!(out, "  !! refuted: unpredicted runtime fault {:?}", f.kind);
        }
        if let Some((a, b)) = &r.refuted_race {
            let _ = writeln!(
                out,
                "  !! refuted: unpredicted data race between sites {} and {}",
                a.0, b.0
            );
        }
    }
    out
}
