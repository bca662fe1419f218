//! Golden table of the CS solver's work counters beyond the paper suite.
//!
//! `paper cost` and `paper ablation` pin the CS counters on the 13 paper
//! programs only. The generated programs are where calls with many
//! waiting return pairs dominate, so this table pins the same counters on
//! `GenConfig::campaign()` seeds 0..24 and on the scaling chains and
//! diamonds. The counters depend on the worklist's delivery order and
//! the order assumption sets are interned, so any change to the CS
//! schedule — not only to its results — shows up as a diff against
//! `tests/snapshots/cs_schedule.tsv`.
//!
//! After an intentional schedule change, refresh with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p alias --test cs_schedule
//! ```

use alias::ci::{analyze_ci, CiConfig};
use alias::cs::{analyze_cs, CsConfig};
use std::path::PathBuf;
use suite::generator::{generate, GenConfig};
use suite::scaling::{chain, diamond};
use vdg::build::{lower, BuildOptions};

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots/cs_schedule.tsv")
}

/// The programs of the table, by name.
fn programs() -> Vec<(String, String)> {
    let cfg = GenConfig::campaign();
    let mut out: Vec<(String, String)> = (0..25)
        .map(|seed| (format!("campaign-{seed:02}"), generate(seed, &cfg)))
        .collect();
    for depth in [16, 32] {
        let p = chain(depth, 1);
        out.push((p.name, p.source));
    }
    for depth in [4, 8] {
        let p = diamond(depth, 1);
        out.push((p.name, p.source));
    }
    out
}

fn row(name: &str, src: &str) -> String {
    let prog = cfront::compile(src).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let g = lower(&prog, &BuildOptions::default())
        .unwrap_or_else(|e| panic!("{name}: lowering failed: {e}"));
    let ci = analyze_ci(&g, &CiConfig::default());
    let cs = analyze_cs(&g, &ci, &CsConfig::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
    format!(
        "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        cs.flow_ins,
        cs.flow_outs,
        cs.dedup_hits,
        cs.meet_steps,
        cs.distinct_assumption_sets,
        cs.max_assumption_set,
        cs.total_pairs()
    )
}

#[test]
fn cs_counters_match_golden_table() {
    let mut got = String::from(
        "# program\tflow_ins\tflow_outs\tdedup_hits\tmeet_steps\tdistinct_assumption_sets\tmax_assumption_set\tpairs\n",
    );
    for (name, src) in programs() {
        got.push_str(&row(&name, &src));
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
        "CS counters moved (UPDATE_SNAPSHOTS=1 to refresh after an intentional change):\n{}",
        stale.join("\n")
    );
}
