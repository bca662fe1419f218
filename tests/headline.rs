//! The paper's headline experiment (§4.3): on every benchmark program,
//! the fully context-sensitive analysis gives *identical* results to the
//! context-insensitive analysis at the location inputs of indirect
//! memory references, even though it strips a few percent of the total
//! points-to pairs — all of them on store-valued outputs.

use alias::stats::{compare_at_indirect_refs, indirect_ref_rows, spurious_by_kind, spurious_row};
use alias::SolverSpec;
use vdg::build::{lower, BuildOptions};

fn pipeline(src: &str) -> (vdg::Graph, alias::CiResult, alias::CsResult) {
    let prog = cfront::compile(src).expect("compiles");
    let graph = lower(&prog, &BuildOptions::default()).expect("lowers");
    let ci = SolverSpec::ci().solve_ci(&graph);
    let cs = SolverSpec::cs()
        .solve(&graph, Some(&ci))
        .expect("budget")
        .into_cs()
        .expect("cs result");
    (graph, ci, cs)
}

#[test]
fn cs_equals_ci_at_indirect_memory_references() {
    for b in suite::benchmarks() {
        let (graph, ci, cs) = pipeline(b.source);
        let mismatches = compare_at_indirect_refs(&graph, &ci, &cs);
        assert!(
            mismatches.is_empty(),
            "{}: {} indirect refs differ between CI and CS: {:#?}",
            b.name,
            mismatches.len(),
            mismatches
        );
    }
}

#[test]
fn figure4_is_unchanged_by_context_sensitivity() {
    // The same claim at the table level: the (reads, writes) rows of
    // Figure 4 computed from CS match those computed from CI.
    for b in suite::benchmarks() {
        let (graph, ci, cs) = pipeline(b.source);
        let ci_rows = indirect_ref_rows(&graph, &ci);
        let cs_rows = indirect_ref_rows(&graph, &cs);
        assert_eq!(ci_rows, cs_rows, "{}: Figure 4 rows differ", b.name);
    }
}

#[test]
fn spurious_percentage_is_small() {
    // Paper Figure 6: 0.0% .. 11.8%, average 2.0%. Our reconstructions
    // land in the same band.
    let mut total_ci = 0usize;
    let mut total_cs = 0usize;
    for b in suite::benchmarks() {
        let (graph, ci, cs) = pipeline(b.source);
        let row = spurious_row(&graph, &ci, &cs);
        assert!(
            row.percent_spurious < 15.0,
            "{}: {:.1}% spurious is out of band",
            b.name,
            row.percent_spurious
        );
        total_ci += row.ci_total;
        total_cs += row.cs.total();
    }
    let aggregate = 100.0 * (total_ci - total_cs) as f64 / total_ci as f64;
    assert!(
        aggregate > 0.5 && aggregate < 10.0,
        "aggregate spurious {aggregate:.1}% is out of the paper's band"
    );
}

#[test]
fn spurious_pairs_sit_on_store_outputs() {
    // Paper §5.2: "in every test case other than compress and span, all
    // of the spurious pairs are on store-valued outputs" (and those two
    // exceptions were dead library results). In our reconstructions the
    // property holds for every program.
    for b in suite::benchmarks() {
        let (graph, ci, cs) = pipeline(b.source);
        let k = spurious_by_kind(&graph, &ci, &cs);
        assert_eq!(k.pointer, 0, "{}: spurious pointer pairs", b.name);
        assert_eq!(k.function, 0, "{}: spurious function pairs", b.name);
        assert_eq!(k.aggregate, 0, "{}: spurious aggregate pairs", b.name);
    }
}

#[test]
fn most_indirect_references_touch_one_location() {
    // Paper Figure 4: on average, most indirect memory operations
    // reference very few locations (87% touch exactly one).
    let mut total = 0usize;
    let mut singles = 0usize;
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        let ci = SolverSpec::ci().solve_ci(&graph);
        let (r, w) = indirect_ref_rows(&graph, &ci);
        total += r.total + w.total;
        singles += r.n1 + w.n1;
        // The paper's per-program maxima run up to 60 (assembler reads
        // through string-table cursors); keep a generous sanity bound.
        assert!(
            r.max <= 64 && w.max <= 64,
            "{}: runaway location count",
            b.name
        );
        // Our assembler reconstruction's read average runs a little above
        // the paper's 2.34 because its smaller op population gives the
        // string-cursor tail more weight.
        assert!(
            r.avg < 5.0 && w.avg < 4.0,
            "{}: average locations out of band (paper max avg: 2.34)",
            b.name
        );
    }
    let pct = 100.0 * singles as f64 / total as f64;
    assert!(
        pct > 70.0,
        "only {pct:.0}% of indirect refs are single-location (paper: 87%)"
    );
}

#[test]
fn headline_carries_through_the_defuse_client() {
    // The §4.3 result restated where a compiler consumes it: reaching
    // definitions computed from the CI and CS solutions are identical on
    // every benchmark.
    for b in suite::benchmarks() {
        let (graph, ci, cs) = pipeline(b.source);
        let du_ci = alias::defuse::def_use(&graph, &ci, &ci.callees).expect("ci has pairs");
        let du_cs = alias::defuse::def_use(&graph, &cs, &ci.callees).expect("cs has pairs");
        assert_eq!(
            du_ci.edge_count(),
            du_cs.edge_count(),
            "{}: def/use edge totals differ",
            b.name
        );
        for (u, defs) in &du_ci.uses {
            assert_eq!(
                Some(defs),
                du_cs.uses.get(u),
                "{}: a use's reaching defs differ",
                b.name
            );
        }
    }
}

#[test]
fn cs_cost_exceeds_ci_cost() {
    // The §4.2 direction: the context-sensitive analysis performs at
    // least as many meet operations (flow-outs) as the CI analysis on
    // every benchmark, and strictly more wherever there is any real
    // cross-caller traffic (aggregate check).
    // (Per-program the ratio can dip below 1 — compress circulates fewer
    // pairs under CS than CI ever created — so only the aggregate
    // direction is asserted.)
    //
    // The paper's meet count is the number of emission *attempts*
    // (retained meets `flow_outs` plus attempts discarded as redundant,
    // `dedup_hits`). CS additionally performs one set union per
    // assumption in every Cartesian-product step at return boundaries
    // (`meet_steps`) — work that emission attempts no longer proxy now
    // that difference propagation avoids re-deriving known combinations.
    //
    // Difference propagation narrows the gap considerably on these small
    // benchmarks (the old discipline re-ran the full product at every
    // actual delivery, inflating CS's attempt counts several-fold), so
    // only the direction is asserted, with a margin well under the
    // deterministic observed ratio. The exponential blow-up of the
    // *unoptimized* configuration is exercised separately by the
    // step-budget and ablation tests.
    let mut ci_total = 0u64;
    let mut cs_total = 0u64;
    for b in suite::benchmarks() {
        let (_, ci, cs) = pipeline(b.source);
        ci_total += ci.flow_outs + ci.dedup_hits;
        cs_total += cs.flow_outs + cs.dedup_hits + cs.meet_steps;
    }
    assert!(
        cs_total as f64 > 1.1 * ci_total as f64,
        "aggregate CS meet work ({cs_total}) should exceed CI ({ci_total})"
    );
}
