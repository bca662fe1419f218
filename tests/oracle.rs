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
//! and are pinned as `StepLimit` rows.
//!
//! After an intentional change to the interpreter's semantics, refresh
//! with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p engine --test oracle
//! ```

use alias::fingerprint::Fnv64;
use checker::harness::oracle;
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

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots/oracle.tsv")
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
    out
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
    let mut got = String::from(HEADER);
    for r in rows {
        got.push_str(&r);
        got.push('\n');
    }
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
        "oracle records moved (UPDATE_SNAPSHOTS=1 to refresh after an intentional change):\n{}",
        stale.join("\n")
    );
}
