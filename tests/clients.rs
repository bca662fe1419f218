//! Golden table of the paper's two alias clients (§3.2), def/use and
//! mod/ref, under every solver.
//!
//! One row per (program, solver) over the 13 paper programs, the 7
//! threaded litmus programs and the programs of the schedule golden
//! (`tests/schedule_programs.rs`). Each solver runs over the shared CI
//! result and every client walks CI's call graph, the way the engine
//! runs the checkers. The columns are:
//!
//! - `du_bases_edges`, `du_bases_fnv`: edge count and FNV-64 of the
//!   sorted (use, def) edges of [`def_use_bases`];
//! - `mr_bases_direct_fnv`, `mr_bases_trans_fnv`: FNV-64 of the direct
//!   and of the transitive per-function sets of [`mod_ref_bases`];
//! - `du_edges`, `du_fnv`, `mr_direct_fnv`, `mr_trans_fnv`: the same for
//!   the path-granular [`def_use`] and [`mod_ref`], for the solvers with
//!   per-program-point pair sets (`-` for the others). Paths are hashed
//!   by display name, so the table does not depend on path interning.
//!
//! After an intentional change to a client, refresh with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p alias --test clients
//! ```

mod schedule_programs;

use alias::defuse::{def_use, def_use_bases, DefUse};
use alias::fingerprint::fnv64;
use alias::fxhash::HashMap;
use alias::modref::{mod_ref, mod_ref_bases, ModRef, ModRefBases};
use alias::path::PathTable;
use alias::solver::Solution;
use alias::PathId;
use alias::SolverSpec;
use std::collections::BTreeSet;
use std::path::PathBuf;
use vdg::build::{lower, BuildOptions};
use vdg::graph::{BaseId, Graph, VFuncId};

const HEADER: &str = "# program\tsolver\tdu_bases_edges\tdu_bases_fnv\tmr_bases_direct_fnv\tmr_bases_trans_fnv\tdu_edges\tdu_fnv\tmr_direct_fnv\tmr_trans_fnv\n";

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots/clients.tsv")
}

fn hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// Edge count and FNV-64 of the sorted (use, def) edges.
fn edges(du: &DefUse) -> (String, String) {
    let mut pairs: Vec<(u32, u32)> = du
        .uses
        .iter()
        .flat_map(|(u, defs)| defs.iter().map(move |d| (u.0, d.0)))
        .collect();
    pairs.sort_unstable();
    let bytes: Vec<u8> = pairs
        .iter()
        .flat_map(|(u, d)| u.to_le_bytes().into_iter().chain(d.to_le_bytes()))
        .collect();
    (pairs.len().to_string(), hex(&bytes))
}

/// Serializes per-function (refs, mods) sets in function order, one
/// line per function.
fn sets_hash<T: Ord>(
    graph: &Graph,
    get: impl Fn(VFuncId) -> (Vec<T>, Vec<T>),
    show: impl Fn(&T) -> String,
) -> String {
    let mut text = String::new();
    for f in graph.func_ids() {
        let (refs, mods) = get(f);
        let join = |v: &[T]| v.iter().map(&show).collect::<Vec<_>>().join(",");
        text.push_str(&format!(
            "{}\tref:{}\tmod:{}\n",
            f.0,
            join(&refs),
            join(&mods)
        ));
    }
    hex(text.as_bytes())
}

/// Sorted display names of a path set.
fn names(paths: &PathTable, graph: &Graph, set: &BTreeSet<PathId>) -> Vec<String> {
    let mut v: Vec<String> = set.iter().map(|&p| paths.display(p, graph)).collect();
    v.sort();
    v
}

fn row(name: &str, graph: &Graph, sol: &dyn Solution, ci: &alias::CiResult) -> String {
    let callees = &ci.callees;
    let du_b = edges(&def_use_bases(graph, sol, callees));
    let mr_b = mod_ref_bases(graph, sol, callees);
    let bases = |m: &HashMap<VFuncId, ModRefBases>| {
        sets_hash(
            graph,
            |f| {
                let s = &m[&f];
                (
                    s.refs.iter().copied().collect(),
                    s.mods.iter().copied().collect(),
                )
            },
            |b: &BaseId| b.0.to_string(),
        )
    };
    let mut cells = vec![
        name.to_string(),
        sol.analysis().to_string(),
        du_b.0,
        du_b.1,
        bases(&mr_b.direct),
        bases(&mr_b.transitive),
    ];
    match (
        sol.path_universe(),
        def_use(graph, sol, callees),
        mod_ref(graph, sol, callees),
    ) {
        (Some(paths), Some(du), Some(mr)) => {
            let du = edges(&du);
            let named = |m: &HashMap<VFuncId, ModRef>| {
                sets_hash(
                    graph,
                    |f| {
                        let s = &m[&f];
                        (names(paths, graph, &s.refs), names(paths, graph, &s.mods))
                    },
                    |s: &String| s.clone(),
                )
            };
            cells.extend([du.0, du.1, named(&mr.direct), named(&mr.transitive)]);
        }
        _ => cells.extend(["-", "-", "-", "-"].map(String::from)),
    }
    cells.join("\t")
}

fn rows(name: &str, src: &str) -> Vec<String> {
    let prog = cfront::compile(src).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let g = lower(&prog, &BuildOptions::default())
        .unwrap_or_else(|e| panic!("{name}: lowering failed: {e}"));
    let ci = alias::ci::analyze_ci(&g, &alias::ci::CiConfig::default());
    SolverSpec::all()
        .iter()
        .map(|s| {
            let sol = s
                .solve(&g, Some(&ci))
                .unwrap_or_else(|e| panic!("{name}: {}: {e:?}", s.name()));
            row(name, &g, sol.as_ref(), &ci)
        })
        .collect()
}

#[test]
fn client_results_match_golden_table() {
    let mut programs: Vec<(String, String)> = suite::benchmarks()
        .into_iter()
        .chain(suite::litmus())
        .map(|b| (b.name.to_string(), b.source.to_string()))
        .collect();
    programs.extend(schedule_programs::programs());
    let mut got = String::from(HEADER);
    for (name, src) in programs {
        for r in rows(&name, &src) {
            got.push_str(&r);
            got.push('\n');
        }
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
        "client results moved (UPDATE_SNAPSHOTS=1 to refresh after an intentional change):\n{}",
        stale.join("\n")
    );
}
