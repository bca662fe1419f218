//! Golden table of the interpreter oracle's answers.
//!
//! Every checker label and every soundness verdict comes from the
//! interpreter's [`RunRecord`] (and, for a threaded program, its
//! [`RaceObs`]). This table pins those answers on the programs the
//! oracle actually sees: the 13 paper programs, the 7 threaded litmus
//! programs, the checker fixtures (one planted fault each), every step
//! of two seeded edit chains over each paper program, and the campaign
//! and threaded generator presets. One row
//! per run holds the step count, the exit value, the stop error, the
//! classified fault and an FNV-64 digest of the sorted, rendered trace,
//! output and race observations. An interpreter change that claims to
//! keep the oracle's answers must leave every row byte-identical.
//!
//! The edit-chain runs use a 100,000-step budget, so the edited programs
//! that loop forever (several do) and the long-running ones stop quickly
//! and are pinned as `StepLimit` rows. The `spin/*` rows, at the same
//! budget, pin small loops that never end: each loop form, guards read
//! through a pointer and a string literal, an accumulating body, and the
//! near misses beside them (a written global, an address-taken counter,
//! a counter in the guard, a pointer increment, a countdown that divides
//! by zero, a threaded spin-wait that a worker releases).
//!
//! A second table, `oracle_budget.tsv`, pins the three edit-chain steps
//! that spin forever and that the edit-session checks label from, run at
//! the oracle's own 10,000,000-step budget. The interpreter ends their
//! loops through its stuck-loop proof; should one fall out of it, a debug
//! build would take minutes over the budget, so that test runs only in
//! release:
//!
//! ```text
//! cargo test --release -p engine --test oracle -- --include-ignored
//! ```
//!
//! After an intentional change to the interpreter's semantics, refresh
//! with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --release -p engine --test oracle -- --include-ignored
//! ```

use alias::fingerprint::Fnv64;
use checker::harness::{oracle, oracle_run};
use interp::exec::{run_traced, Config, RaceObs, RunError, RunRecord, Trace};
use std::fmt::Write as _;
use std::path::PathBuf;
use suite::generator::{generate, GenConfig};

/// The checker fixtures, each with a planted memory-safety fault.
const FIXTURES: [&str; 5] = [
    "dangling_load",
    "dead_store",
    "double_free",
    "use_after_free",
    "weakened_strong_update",
];

const HEADER: &str = "# run\tsteps\texit\terror\tfault\tdigest\n";

/// Step budget of the edit-chain rows.
const EDIT_STEPS: u64 = 100_000;

/// Generated seeds per preset.
const GEN_SEEDS: u64 = 32;

/// Loops that never end, and near misses of them, run at [`EDIT_STEPS`].
const SPINS: [(&str, &str); 16] = [
    (
        "while",
        "int main(void) { int c; c = 1; while (c) {} return 0; }",
    ),
    (
        "do",
        "int main(void) { int c; c = 1; do {} while (c); return 0; }",
    ),
    ("for", "int main(void) { for (;;) {} return 0; }"),
    (
        "for_guard",
        "int main(void) { int c; c = 1; for (; c > 0;) {} return 0; }",
    ),
    (
        "for_step",
        "int main(void) { int i; i = 0; for (;; i++) {} return i; }",
    ),
    (
        "for_full",
        "int main(void) { int i; int c; c = 1; for (i = 0; c; i += 2) {} return i; }",
    ),
    (
        "ptr_guard",
        "char buf[4]; int main(void) { char *p; buf[0] = ' '; buf[1] = 0; p = buf; \
         while (*p == ' ' || *p == '\\t') {} return 0; }",
    ),
    (
        "strlit_guard",
        "int main(void) { char *s; s = \"go\"; while (*s == 'g') {} return 0; }",
    ),
    (
        "accumulate",
        "struct item { int w; struct item *next; };\n\
         int main(void) { struct item a; struct item *p; int sum; int n; \
         a.w = 3; a.next = NULL; p = &a; sum = 0; n = 0; \
         while (p != NULL) { sum += p->w; n++; } return sum + n; }",
    ),
    (
        "unreached_break",
        "int main(void) { int c; int n; c = 1; n = 0; \
         while (1) { if (c == 0) break; n = n + c; } return n; }",
    ),
    (
        "miss_global",
        "int g; int main(void) { while (1) { g = g + 1; } return 0; }",
    ),
    (
        "miss_addr_taken",
        "int main(void) { int n; int *q; n = 0; q = &n; while (1) { n++; } return *q; }",
    ),
    (
        "miss_guard_counter",
        "int main(void) { int n; n = 0; while (n >= 0) { n = n + 1; } return n; }",
    ),
    (
        "miss_ptr_inc",
        "char buf[4]; int main(void) { char *p; int c; c = 1; p = buf; \
         while (c) { p++; } return 0; }",
    ),
    (
        "divide_by_zero",
        "int main(void) { int n; int x; n = 5; x = 0; \
         while (1) { n--; x = 100 / n; } return x; }",
    ),
    (
        "threaded_release",
        "int flag;\n\
         void release(int v) { flag = v; }\n\
         int main(void) { flag = 0; spawn release(1); while (flag == 0) {} join; \
         return flag - 1; }",
    ),
];

/// The edit chains (bench, seed) whose last step spins forever and that
/// the edit-session checks label from.
const BUDGET_RUNS: [(&str, u64); 3] = [("part", 1), ("compiler", 0), ("assembler", 0)];

fn snapshot_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/snapshots/{file}"))
}

/// Every fact of a trace, one line each, sorted so the rendering does
/// not depend on hash-map iteration order.
fn trace_lines(t: &Trace) -> Vec<String> {
    let mut lines = Vec::new();
    for (tag, map) in [("r", &t.reads), ("w", &t.writes), ("f", &t.frees)] {
        for (site, locs) in map {
            for a in locs {
                lines.push(format!("{tag} {} {a:?}", site.0));
            }
        }
    }
    for (tag, set) in [
        ("esc", &t.local_escapes),
        ("obs", &t.observed_writes),
        ("uninit", &t.uninit_reads),
        ("ret", &t.returns),
    ] {
        for site in set {
            lines.push(format!("{tag} {}", site.0));
        }
    }
    for (a, b) in &t.races {
        lines.push(format!("race {} {}", a.0, b.0));
    }
    lines.sort_unstable();
    lines
}

fn digest(rec: &RunRecord, races: Option<&RaceObs>) -> u64 {
    let mut h = Fnv64::new();
    for line in trace_lines(&rec.trace) {
        h.write(line.as_bytes());
        h.write(b"\n");
    }
    h.write(b"stdout\n");
    h.write(rec.stdout.as_bytes());
    if let Some(obs) = races {
        let mut s = format!("obs schedules {}\n", obs.schedules);
        for (a, b) in &obs.pairs {
            let _ = writeln!(s, "pair {} {}", a.0, b.0);
        }
        for site in &obs.executed {
            let _ = writeln!(s, "exec {}", site.0);
        }
        h.write(s.as_bytes());
    }
    h.finish()
}

fn row(name: &str, rec: &RunRecord, races: Option<&RaceObs>) -> String {
    let exit = rec.exit.map_or_else(|| "-".to_string(), |v| v.to_string());
    let error = match &rec.error {
        None => "-".to_string(),
        Some(RunError::StepLimit) => "StepLimit".to_string(),
        Some(RunError::Dynamic(m)) => format!("Dynamic({m})"),
    };
    let fault = rec
        .fault
        .as_ref()
        .map_or_else(|| "-".to_string(), |f| format!("{:?}@{}", f.kind, f.site.0));
    format!(
        "{name}\t{}\t{exit}\t{error}\t{fault}\t{:016x}",
        rec.steps,
        digest(rec, races)
    )
}

fn compile(name: &str, src: &str) -> cfront::ast::Program {
    cfront::compile(src).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"))
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for b in suite::benchmarks().into_iter().chain(suite::litmus()) {
        let (rec, races) = oracle(&compile(b.name, b.source), b.input);
        out.push(row(b.name, &rec, races.as_ref()));
    }
    for f in FIXTURES {
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/fixtures/{f}.c"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let name = format!("fixture/{f}");
        let (rec, races) = oracle(&compile(&name, &src), b"");
        out.push(row(&name, &rec, races.as_ref()));
    }
    for b in suite::benchmarks() {
        for seed in 0..2u64 {
            for (i, step) in suite::edit::edit_chain(b.source, seed, 6)
                .iter()
                .enumerate()
            {
                let name = format!("edit/{}/{seed}/{i}", b.name);
                let cfg = Config {
                    max_steps: EDIT_STEPS,
                    input: b.input.to_vec(),
                    ..Config::default()
                };
                let rec = run_traced(&compile(&name, &step.source), &cfg);
                out.push(row(&name, &rec, None));
            }
        }
    }
    for (preset, cfg) in [
        ("campaign", GenConfig::campaign()),
        ("threaded", GenConfig::threaded()),
    ] {
        for seed in 0..GEN_SEEDS {
            let name = format!("{preset}/{seed}");
            let (rec, races) = oracle(&compile(&name, &generate(seed, &cfg)), b"");
            out.push(row(&name, &rec, races.as_ref()));
        }
    }
    for (name, src) in SPINS {
        let name = format!("spin/{name}");
        let cfg = Config {
            max_steps: EDIT_STEPS,
            ..Config::default()
        };
        out.push(row(&name, &run_traced(&compile(&name, src), &cfg), None));
    }
    out
}

/// Compares `rows` line by line with the table in `file`, or rewrites the
/// table under `UPDATE_SNAPSHOTS`.
fn check_table(file: &str, rows: Vec<String>) {
    let mut got = String::from(HEADER);
    for r in rows {
        got.push_str(&r);
        got.push('\n');
    }
    let path = snapshot_path(file);
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
        "oracle records moved (UPDATE_SNAPSHOTS=1 to refresh after an intentional change):\n{}",
        stale.join("\n")
    );
}

#[test]
fn oracle_records_match_golden_table() {
    let rows = rows();
    for bench in ["part", "compiler", "assembler"] {
        assert!(
            rows.iter()
                .any(|r| r.starts_with(&format!("edit/{bench}/")) && r.contains("\tStepLimit\t")),
            "{bench}: no edit-chain step runs out of budget; the table no longer \
             covers a budget run of it"
        );
    }
    check_table("oracle.tsv", rows);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "three 10,000,000-step budgets if a loop falls out of the stuck-loop proof; run in release"
)]
fn budget_runs_match_golden_table() {
    let rows = BUDGET_RUNS
        .into_iter()
        .map(|(bench, seed)| {
            let b = suite::by_name(bench).expect("bundled benchmark");
            let chain = suite::edit::edit_chain(b.source, seed, 6);
            let name = format!("budget/{bench}/{seed}/{}", chain.len() - 1);
            let step = chain.last().expect("a non-empty edit chain");
            row(
                &name,
                &oracle_run(&compile(&name, &step.source), b.input),
                None,
            )
        })
        .collect();
    check_table("oracle_budget.tsv", rows);
}
