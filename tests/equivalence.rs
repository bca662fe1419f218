//! Difference propagation is a pure scheduling optimization: for every
//! solver with the discipline knob, the naive (PR 1-style) worklist and
//! the delta-batched worklist must reach the *same* fixpoint — the same
//! pair sets on every output, pair for pair, and the same
//! schedule-independent cost counters (`flow_ins` counts deliveries and
//! `flow_outs` unique insertions, both properties of the fixpoint, not
//! of the order it was reached in).
//!
//! The checks run all five analyses over every suite benchmark and over
//! the schedule golden's generated and scaling programs; the solvers without a discipline knob (Steensgaard's unification and the
//! assumption-set CS) ride along to pin down run-to-run determinism.

mod schedule_programs;

use alias::solver::{same_fixpoint, Solution};
use alias::{Propagation, SolverKind, SolverSpec};
use vdg::build::{lower, BuildOptions};
use vdg::graph::Graph;

fn graph_of(name: &str, src: &str) -> Graph {
    let prog = cfront::compile(src).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    lower(&prog, &BuildOptions::default())
        .unwrap_or_else(|e| panic!("{name}: lowering failed: {e}"))
}

/// The pairs on every output of `a` and `b`, two solutions of `graph`
/// by the same solver, are the same. CI, CS and k=1 canonicalize their
/// path tables, so their pairs compare id for id. Weihl's ids follow
/// the order it interned paths in, which two disciplines starting from
/// a fresh table need not share, so its pairs compare by rendering.
fn assert_same_pairs(label: &str, graph: &Graph, a: &dyn Solution, b: &dyn Solution) {
    let rendered = |s: &dyn Solution, o| {
        let paths = s.path_universe()?;
        let mut v: Vec<(String, String)> = s
            .pairs_at(o)?
            .iter()
            .map(|p| {
                (
                    paths.display(p.path, graph),
                    paths.display(p.referent, graph),
                )
            })
            .collect();
        v.sort();
        Some(v)
    };
    for o in graph.output_ids() {
        if a.analysis() == "weihl" {
            assert_eq!(
                rendered(a, o),
                rendered(b, o),
                "{label}: weihl pairs at output {o} differ across disciplines"
            );
        } else {
            assert_eq!(
                a.pairs_at(o),
                b.pairs_at(o),
                "{label}: {} pairs at output {o} differ across disciplines",
                a.analysis()
            );
        }
    }
}

/// Every solver reaches the same fixpoint on `graph` under both
/// disciplines: the same totals, the same fixpoint counters and the same
/// pairs on every output.
fn assert_disciplines_agree(name: &str, graph: &Graph) {
    let delta = SolverSpec::all();
    let naive = SolverSpec::all_naive();
    assert_eq!(delta.len(), naive.len());
    for (d, n) in delta.iter().zip(&naive) {
        assert_eq!(d.name(), n.name(), "solver lists must stay aligned");
        let sd = d
            .solve(graph, None)
            .unwrap_or_else(|e| panic!("{}: {} (delta) failed: {e:?}", name, d.name()));
        let sn = n
            .solve(graph, None)
            .unwrap_or_else(|e| panic!("{}: {} (naive) failed: {e:?}", name, n.name()));
        assert_eq!(
            sd.pairs(),
            sn.pairs(),
            "{}: {} pair totals differ across disciplines",
            name,
            d.name()
        );
        assert_eq!(
            sd.flow_ins(),
            sn.flow_ins(),
            "{}: {} deliveries differ across disciplines",
            name,
            d.name()
        );
        assert_eq!(
            sd.flow_outs(),
            sn.flow_outs(),
            "{}: {} unique insertions differ across disciplines",
            name,
            d.name()
        );
        // Pair-for-pair: the solutions must agree on every output, not
        // just in aggregate.
        assert_same_pairs(name, graph, &*sd, &*sn);
        // The delta discipline must actually be the delta discipline
        // (and the naive one must not fake the batching counter).
        if d.name() == "ci" || d.name() == "weihl" || d.name() == "k1" {
            assert!(
                sd.delta_batches().is_some(),
                "{}: {} delta run reports no batches",
                name,
                d.name()
            );
            assert_eq!(
                sn.delta_batches(),
                None,
                "{}: {} naive run reports batches",
                name,
                n.name()
            );
        }
    }
}

#[test]
fn naive_and_delta_disciplines_reach_the_same_fixpoint() {
    for b in suite::benchmarks() {
        assert_disciplines_agree(b.name, &graph_of(b.name, b.source));
    }
}

/// The schedule golden's programs (`tests/schedule.rs`): generated
/// programs and scaling shapes, where the two disciplines' schedules
/// differ most.
#[test]
fn schedule_golden_programs_agree_across_disciplines() {
    for (name, src) in schedule_programs::programs() {
        assert_disciplines_agree(&name, &graph_of(&name, &src));
    }
}

#[test]
fn scaling_programs_agree_across_disciplines() {
    // Same property on the synthetic scaling generator's shapes (one
    // small instance of each family; the full sweep is benchmarked, not
    // tested, for time).
    for p in [suite::scaling::chain(16, 7), suite::scaling::diamond(4, 7)] {
        let prog = cfront::compile(&p.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        for (d, n) in SolverSpec::all().iter().zip(&SolverSpec::all_naive()) {
            let sd = d.solve(&graph, None).unwrap();
            let sn = n.solve(&graph, None).unwrap();
            assert_eq!(
                sd.pairs(),
                sn.pairs(),
                "{}: {} pair totals differ across disciplines",
                p.name,
                d.name()
            );
            assert_same_pairs(&p.name, &graph, &*sd, &*sn);
        }
    }
}

/// The fuzzer's divergence property re-solves CI, Weihl and k=1 naively
/// the way the campaign solves them (Weihl and k=1 seeded with the
/// shared CI table) and compares with [`same_fixpoint`], id for id. CI
/// and k=1 canonicalize their tables; Weihl does not, so this pins that
/// its two disciplines still intern the same paths in the same order
/// when both start from the CI table.
#[test]
fn fuzzer_re_solves_reach_the_same_fixpoint_id_for_id() {
    let mut programs = schedule_programs::programs();
    for b in suite::benchmarks() {
        programs.push((b.name.to_string(), b.source.to_string()));
    }
    for (name, src) in programs {
        let graph = graph_of(&name, &src);
        let ci = SolverSpec::ci().solve_ci(&graph);
        let ci_naive = SolverSpec::ci()
            .propagation(Propagation::Naive)
            .solve_ci(&graph);
        assert!(
            same_fixpoint(&graph, &ci, &ci_naive),
            "{name}: ci naive/delta fixpoints differ"
        );
        for kind in [SolverKind::Weihl, SolverKind::CallString1] {
            let spec = SolverSpec::new(kind);
            let delta = spec.solve(&graph, Some(&ci)).expect("delta solve");
            let naive = spec
                .clone()
                .propagation(Propagation::Naive)
                .solve(&graph, Some(&ci))
                .expect("naive solve");
            assert!(
                same_fixpoint(&graph, &*delta, &*naive),
                "{name}: {} naive/delta fixpoints differ",
                spec.name()
            );
        }
    }
}
