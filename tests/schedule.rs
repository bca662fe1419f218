//! Golden table of every solver's work counters beyond the paper suite.
//!
//! `paper cost` and `paper ablation` pin the counters on the 13 paper
//! programs only. The generated programs are where calls with many
//! waiting return pairs dominate, so this table pins the counters of all
//! five solvers on `GenConfig::campaign()` seeds 0..24 and on the scaling
//! chains and diamonds, one row per (program, solver). Each solver runs
//! the way the engine runs it: over the shared CI result.
//!
//! Two kinds of column live here. `flow_ins`, `flow_outs`, `pairs` and
//! k1's `contexts` are properties of the fixpoint; `dedup_hits` and
//! `delta_batches` describe the schedule that reached it, and so do the
//! CS columns (`meet_steps` and the assumption-set counts depend on the
//! order sets are interned). A kernel change that claims to keep the
//! fixpoint may move only the schedule columns it names in advance. A
//! `-` marks a counter the solver does not report.
//!
//! After each program's five rows come four rows of the other
//! schedules the worklist driver runs: the naive discipline of CI,
//! Weihl and k1 (`ci@naive`, `weihl@naive`, `k1@naive`; property 3 of
//! the campaign re-solves through it) and CI under
//! `WorklistOrder::Lifo` (`ci@lifo`). Each `@naive` row must equal its
//! delta row on the four fixpoint columns; the test checks that before
//! it compares or refreshes the table.
//!
//! After an intentional schedule change, refresh with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p alias --test schedule
//! ```

mod schedule_programs;

use alias::solver::Solution;
use alias::{Propagation, SolverSpec, WorklistOrder};
use schedule_programs::programs;
use std::path::PathBuf;
use vdg::build::{lower, BuildOptions};

const HEADER: &str = "# program\tsolver\tflow_ins\tflow_outs\tdedup_hits\tdelta_batches\tpairs\tcontexts\tmeet_steps\tdistinct_assumption_sets\tmax_assumption_set\n";

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots/schedule.tsv")
}

fn cell<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

fn row(name: &str, solver: &str, sol: &dyn Solution) -> String {
    let k1 = sol.as_k1();
    let cs = sol.as_cs();
    [
        name.to_string(),
        solver.to_string(),
        cell(sol.flow_ins()),
        cell(sol.flow_outs()),
        cell(sol.dedup_hits()),
        cell(sol.delta_batches()),
        cell(sol.pairs()),
        cell(k1.map(|r| r.contexts)),
        cell(cs.map(|r| r.meet_steps)),
        cell(cs.map(|r| r.distinct_assumption_sets)),
        cell(cs.map(|r| r.max_assumption_set)),
    ]
    .join("\t")
}

fn rows(name: &str, src: &str) -> Vec<String> {
    let prog = cfront::compile(src).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let g = lower(&prog, &BuildOptions::default())
        .unwrap_or_else(|e| panic!("{name}: lowering failed: {e}"));
    let ci = alias::ci::analyze_ci(&g, &alias::ci::CiConfig::default());
    let mut out: Vec<String> = SolverSpec::all()
        .iter()
        .map(|s| {
            let sol = s
                .solve(&g, Some(&ci))
                .unwrap_or_else(|e| panic!("{name}: {}: {e:?}", s.name()));
            row(name, sol.analysis(), sol.as_ref())
        })
        .collect();
    let naive = |spec: SolverSpec| spec.propagation(Propagation::Naive);
    for (label, spec) in [
        ("ci@naive", naive(SolverSpec::ci())),
        ("weihl@naive", naive(SolverSpec::weihl())),
        ("k1@naive", naive(SolverSpec::k1())),
        ("ci@lifo", SolverSpec::ci().order(WorklistOrder::Lifo)),
    ] {
        let sol = spec
            .solve(&g, Some(&ci))
            .unwrap_or_else(|e| panic!("{name}: {label}: {e:?}"));
        out.push(row(name, label, sol.as_ref()));
    }
    out
}

/// The fixpoint columns (`flow_ins`, `flow_outs`, `pairs`, `contexts`)
/// of every `X@naive` row equal those of its program's `X` row.
fn assert_naive_reaches_the_same_fixpoint(table: &str) {
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip(1)
        .map(|l| l.split('\t').collect())
        .collect();
    let fixpoint = |r: &[&str]| [r[2], r[3], r[6], r[7]].map(str::to_string);
    let mut naive_rows = 0;
    for r in &rows {
        let Some(solver) = r[1].strip_suffix("@naive") else {
            continue;
        };
        let base = rows
            .iter()
            .find(|b| b[0] == r[0] && b[1] == solver)
            .unwrap_or_else(|| panic!("{}: no {solver} row", r[0]));
        assert_eq!(
            fixpoint(r),
            fixpoint(base),
            "{}: {} and {solver} differ on flow_ins, flow_outs, pairs or contexts",
            r[0],
            r[1]
        );
        naive_rows += 1;
    }
    assert!(naive_rows > 0, "no @naive rows");
}

#[test]
fn solver_counters_match_golden_table() {
    let mut got = String::from(HEADER);
    for (name, src) in programs() {
        for r in rows(&name, &src) {
            got.push_str(&r);
            got.push('\n');
        }
    }
    assert_naive_reaches_the_same_fixpoint(&got);
    let path = table_path();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, &got).expect("write table");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing table {path:?}; run with UPDATE_SNAPSHOTS=1"));
    let stale: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got:  {g}\n  want: {w}"))
        .collect();
    assert!(
        stale.is_empty() && got.lines().count() == want.lines().count(),
        "solver counters moved (UPDATE_SNAPSHOTS=1 to refresh after an intentional change):\n{}",
        stale.join("\n")
    );
}
