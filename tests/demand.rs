//! Demand-driven query equivalence harness (PR 7, satellite 2).
//!
//! The demand solver's contract is exactness: every answer it gives —
//! referent sets and may-alias verdicts alike — must be *identical* to
//! what the exhaustive CI fixpoint would say, on every benchmark, at
//! every site. No approximation is tolerated; the demand machinery is
//! an evaluation-order optimization, not a new abstraction.
//!
//! Three layers of evidence:
//!
//! 1. Suite-wide equivalence: both query kinds at every indirect
//!    memory site of all thirteen bundled benchmarks agree with the
//!    exhaustive solution, byte for byte.
//! 2. Materialization: demand-then-`materialize()` reaches the same
//!    solution fingerprint as a fresh exhaustive solve, so partial
//!    results compose into the canonical total one.
//! 3. The point of it all: a single query on `chain(128)` runs a
//!    strict fraction of the exhaustive fixpoint's flow steps.
//!
//! The demand golden (`tests/snapshots/demand.tsv`) pins the path the
//! demand solver drives the CI worklist through: resuming from carried
//! state, the per-query step budget and its exhaustion. After an
//! intentional change, refresh with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p serve --test demand
//! ```

use alias::solver::solution_fingerprint;
use alias::{analyze_ci, CiConfig, CiResult, DemandConfig, DemandState, Solution};
use proto::{JobSpec, QueryKind, Request, Response};
use serve::service::{Service, ServiceOptions};
use std::path::PathBuf;
use vdg::build::{lower, BuildOptions};
use vdg::graph::{Graph, NodeId};

fn graph_of(src: &str) -> Graph {
    let p = cfront::compile(src).expect("compiles");
    lower(&p, &BuildOptions::default()).expect("lowers")
}

fn rendered_ci(r: &CiResult, g: &Graph, node: NodeId) -> Vec<String> {
    let mut v: Vec<String> = r
        .loc_referents(g, node)
        .iter()
        .map(|&p| r.paths.display(p, g))
        .collect();
    v.sort();
    v
}

/// Every suite benchmark, every indirect site, both query kinds:
/// demand answers equal exhaustive CI answers exactly.
#[test]
fn demand_matches_exhaustive_ci_on_all_suite_benchmarks() {
    let benches = suite::benchmarks();
    assert_eq!(benches.len(), 13, "the paper suite has thirteen programs");
    for b in &benches {
        let g = graph_of(b.source);
        let ci = analyze_ci(&g, &CiConfig::default());
        let mut st = DemandState::new(&g, DemandConfig::default());
        let sites = g.indirect_mem_ops();
        // Referent sets at every site.
        for &(node, _) in &sites {
            assert_eq!(
                st.loc_referents_rendered(&g, node),
                rendered_ci(&ci, &g, node),
                "{}: referents at {node:?}",
                b.name
            );
        }
        // May-alias: pair every site with the first, its neighbour, and
        // itself — linear coverage that still touches every site in a
        // pair query (the full cross product is quadratic and adds no
        // coverage once the referent sets are known equal).
        for i in 0..sites.len() {
            for j in [0, i, (i + 1) % sites.len()] {
                let (hit, witnesses) = st.may_alias(&g, sites[i].0, sites[j].0);
                let ba = Solution::loc_referent_bases(&ci, &g, sites[i].0);
                let bb = Solution::loc_referent_bases(&ci, &g, sites[j].0);
                let want: Vec<_> = ba
                    .iter()
                    .copied()
                    .filter(|x| bb.binary_search(x).is_ok())
                    .collect();
                assert_eq!(witnesses, want, "{}: sites {i}/{j}", b.name);
                assert_eq!(hit, !want.is_empty(), "{}: sites {i}/{j}", b.name);
            }
        }
        let stats = st.stats();
        assert_eq!(stats.fallbacks, 0, "{}: no fallback expected", b.name);
        assert!(stats.demand_hits > 0, "{}: demand path never taken", b.name);
    }
}

/// Demand-then-materialize reaches the canonical exhaustive solution:
/// identical fingerprints on every suite benchmark.
#[test]
fn materialize_after_partial_queries_matches_fresh_ci() {
    for b in &suite::benchmarks() {
        let g = graph_of(b.source);
        let fresh = analyze_ci(&g, &CiConfig::default());
        let mut st = DemandState::new(&g, DemandConfig::default());
        if let Some(&(node, _)) = g.indirect_mem_ops().first() {
            let _ = st.loc_referents_rendered(&g, node);
        }
        let mat = st.materialize(&g);
        assert_eq!(
            solution_fingerprint(&fresh, &g),
            solution_fingerprint(&mat, &g),
            "{}: materialized fingerprint diverged",
            b.name
        );
    }
}

/// Satellite 3's regression: one query on `chain(128)` must not pay
/// for the exhaustive fixpoint. The flow-step counters prove it — the
/// demand run consumes a strict fraction of the exhaustive deliveries.
#[test]
fn single_query_on_chain_128_avoids_exhaustive_fixpoint() {
    let prog = suite::scaling::chain(128, 1995);
    let g = graph_of(&prog.source);
    let ci = analyze_ci(&g, &CiConfig::default());
    let sites = g.indirect_mem_ops();
    assert!(!sites.is_empty(), "chain has indirect sites");

    // The chain is emitted leaf-first, so the last indirect site sits
    // nearest `main` and slices off only the head of the call chain —
    // the case demand queries exist for. (The deepest site's backward
    // slice is the whole program; even there demand stays strictly
    // under the exhaustive step count, but the margin is small.)
    let site = sites[sites.len() - 1].0;
    let mut st = DemandState::new(&g, DemandConfig::default());
    let got = st.loc_referents_rendered(&g, site);
    assert_eq!(got, rendered_ci(&ci, &g, site));

    let stats = st.stats();
    assert_eq!(stats.fallbacks, 0, "must not fall back to exhaustive");
    assert_eq!(stats.demand_hits, 1);
    assert!(
        stats.steps * 10 < ci.flow_ins,
        "demand steps {} should be a small fraction of exhaustive flow_ins {}",
        stats.steps,
        ci.flow_ins
    );
}

/// The serve wire contract: a query against an unsolved session takes
/// the demand path (`demand: true`), and after an exhaustive analyze
/// the same query is a plain lookup (`demand: false`) with the same
/// answer.
#[test]
fn serve_first_query_is_demand_then_lookup_after_analyze() {
    let mut svc = Service::new(ServiceOptions {
        store_dir: None,
        mem_budget: 0,
        threads: 1,
    })
    .expect("in-memory service");
    let b = &suite::benchmarks()[0];
    let job = JobSpec {
        name: b.name.to_string(),
        source: b.source.to_string(),
        input: b.input.to_vec(),
    };
    let ask = |svc: &mut Service, job: Option<JobSpec>| {
        svc.handle(&Request::Query {
            project: "demand".into(),
            bench: b.name.to_string(),
            analysis: "ci".into(),
            query: QueryKind::ReferentsAt { site: 0 },
            job,
        })
    };

    let cold = ask(&mut svc, Some(job.clone()));
    let Response::QueryResult {
        demand: true,
        answer: cold_answer,
        ..
    } = cold
    else {
        panic!("expected a demand-path QueryResult, got {cold:?}");
    };

    match svc.handle(&Request::Analyze {
        project: "demand".into(),
        jobs: vec![job],
        fresh: false,
        want_report: false,
    }) {
        Response::Analyzed { .. } => {}
        other => panic!("analyze failed: {other:?}"),
    }

    let warm = ask(&mut svc, None);
    let Response::QueryResult {
        demand: false,
        answer: warm_answer,
        ..
    } = warm
    else {
        panic!("expected a lookup-path QueryResult, got {warm:?}");
    };
    assert_eq!(cold_answer, warm_answer, "demand and lookup must agree");
}

/// The step budget of the golden's budgeted run: small enough that a
/// query runs out of it partway through a delta batch.
const SMALL_BUDGET: u64 = 40;

/// One golden row per paper program: a fresh [`DemandState`] queried
/// at every indirect memory operation in node order, then its full
/// [`alias::DemandStats`]. `max_steps` of `None` keeps the default budget.
fn demand_rows(max_steps: Option<u64>) -> Vec<(String, alias::DemandStats)> {
    suite::benchmarks()
        .iter()
        .map(|b| {
            let g = graph_of(b.source);
            let mut cfg = DemandConfig::default();
            if let Some(steps) = max_steps {
                cfg.max_steps = steps;
            }
            let mut st = DemandState::new(&g, cfg);
            let mut sites: Vec<NodeId> = g.indirect_mem_ops().iter().map(|&(n, _)| n).collect();
            sites.sort_unstable();
            for node in sites {
                st.loc_referents_rendered(&g, node);
            }
            let budget = max_steps.map_or_else(|| "default".to_string(), |s| s.to_string());
            (format!("{}\t{budget}", b.name), st.stats())
        })
        .collect()
}

#[test]
fn demand_stats_match_golden_table() {
    let mut got = String::from(
        "# program\tmax_steps\tqueries\tdemand_hits\tfallbacks\tbudget_exhausted\tmaterialized\toutputs_active\tsteps\n",
    );
    let budgeted = demand_rows(Some(SMALL_BUDGET));
    assert!(
        budgeted
            .iter()
            .any(|(_, s)| s.budget_exhausted == 1 && s.steps > SMALL_BUDGET),
        "some budgeted run must exhaust its budget partway through a batch"
    );
    for (key, s) in demand_rows(None).into_iter().chain(budgeted) {
        got.push_str(&format!(
            "{key}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.queries,
            s.demand_hits,
            s.fallbacks,
            s.budget_exhausted,
            s.materialized,
            s.outputs_active,
            s.steps
        ));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots/demand.tsv");
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
        "demand stats moved (UPDATE_SNAPSHOTS=1 to refresh after an intentional change):\n{}",
        stale.join("\n")
    );
}
