//! The precision spectrum over the whole benchmark suite:
//!
//! ```text
//! Weihl (program-wide)      ⊒ CI ⊒ k=1 call-strings
//! Steensgaard (unification) ⊒ CI        (at base-location granularity)
//! ```
//!
//! plus runtime soundness of every baseline against the interpreter.
//! (k=1 and assumption-set CS are pointwise incomparable — see
//! DESIGN.md §"Differential fuzzing" — so neither appears below the
//! other here; both
//! refine CI, which `engine::fuzz` checks on generated programs.)
//!
//! Every solver is constructed through [`alias::SolverSpec`]; the
//! free `analyze_*` entry points stay internal to `crates/alias`.

use alias::steensgaard::{ci_referent_bases, ci_within_steensgaard};
use alias::weihl::ci_subset_of_weihl;
use alias::{HeapNaming, Pair, SolverSpec};
use std::collections::HashSet;
use vdg::build::{lower, BuildOptions};

fn build(src: &str) -> (cfront::Program, vdg::Graph, alias::CiResult) {
    let prog = cfront::compile(src).unwrap();
    let graph = lower(&prog, &BuildOptions::default()).unwrap();
    let ci = SolverSpec::ci().solve_ci(&graph);
    (prog, graph, ci)
}

#[test]
fn ci_within_weihl_on_suite() {
    for b in suite::benchmarks() {
        let (_, graph, ci) = build(b.source);
        let w = SolverSpec::weihl()
            .solve(&graph, Some(&ci))
            .expect("no budget")
            .into_weihl()
            .expect("weihl result");
        assert!(
            ci_subset_of_weihl(&graph, &ci, &w),
            "{}: CI escaped the program-wide solution",
            b.name
        );
        // (allroots legitimately has an empty pointer store: its arrays
        // hold doubles, matching its all-zero store column in Figure 3.)
    }
}

#[test]
fn ci_within_steensgaard_on_suite() {
    for b in suite::benchmarks() {
        let (_, graph, ci) = build(b.source);
        let mut st = SolverSpec::steensgaard()
            .solve(&graph, None)
            .expect("no budget")
            .into_steens()
            .expect("steensgaard result");
        assert!(
            ci_within_steensgaard(&graph, &ci, &mut st),
            "{}: CI escaped the unification solution",
            b.name
        );
    }
}

#[test]
fn k1_within_ci_and_headline_holds_for_k1_too() {
    // k=1 is contained in CI per output; and since CS == CI at indirect
    // references on this suite (tests/headline.rs) and CS-at-derefs ⊆
    // k1-at-derefs ⊆ CI-at-derefs, k=1 must also equal CI there.
    for b in suite::benchmarks() {
        let (_, graph, ci) = build(b.source);
        let k1 = SolverSpec::k1()
            .solve(&graph, Some(&ci))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name))
            .into_k1()
            .expect("k1 result");
        for o in graph.output_ids() {
            let ci_set: HashSet<Pair> = ci.pairs(o).iter().copied().collect();
            for p in k1.pairs(o) {
                assert!(ci_set.contains(p), "{}: k=1 pair outside CI", b.name);
            }
        }
        for (node, _) in graph.indirect_mem_ops() {
            assert_eq!(
                ci.loc_referents(&graph, node),
                k1.loc_referents(&graph, node),
                "{}: k=1 differs from CI at a deref",
                b.name
            );
        }
    }
}

#[test]
fn steensgaard_is_coarser_or_equal_at_every_op() {
    // Per memory op, the unification answer (in bases) contains the CI
    // answer; over the suite it is strictly coarser somewhere.
    let mut strictly_coarser = false;
    for b in suite::benchmarks() {
        let (_, graph, ci) = build(b.source);
        let mut st = SolverSpec::steensgaard()
            .solve(&graph, None)
            .expect("no budget")
            .into_steens()
            .expect("steensgaard result");
        for (node, _) in graph.all_mem_ops() {
            let fine = ci_referent_bases(&ci, &graph, node);
            let coarse = st.loc_bases(&graph, node);
            if coarse.len() > fine.len() {
                strictly_coarser = true;
            }
        }
    }
    assert!(
        strictly_coarser,
        "unification should lose precision somewhere on a 13-program suite"
    );
}

#[test]
fn baselines_are_runtime_sound() {
    for b in suite::benchmarks() {
        let (prog, graph, _) = build(b.source);
        let out = interp::run(
            &prog,
            &interp::Config {
                input: b.input.to_vec(),
                ..interp::Config::default()
            },
        )
        .unwrap();
        let w = SolverSpec::weihl()
            .solve(&graph, None)
            .expect("no budget")
            .into_weihl()
            .expect("weihl result");
        let v = interp::check_solution_dyn(&prog, &graph, &w, &out.trace);
        assert!(v.is_empty(), "{}: Weihl unsound: {v:#?}", b.name);
        let k1 = SolverSpec::k1()
            .solve(&graph, None)
            .unwrap()
            .into_k1()
            .expect("k1 result");
        let v = interp::check_solution_dyn(&prog, &graph, &k1, &out.trace);
        assert!(v.is_empty(), "{}: k=1 unsound: {v:#?}", b.name);
    }
}

#[test]
fn steensgaard_is_runtime_sound_at_base_granularity() {
    // The unification result predicts base-locations; every concrete
    // dereference base must be covered.
    for b in suite::benchmarks() {
        let (prog, graph, ci) = build(b.source);
        let out = interp::run(
            &prog,
            &interp::Config {
                input: b.input.to_vec(),
                ..interp::Config::default()
            },
        )
        .unwrap();
        // CI is runtime-sound (tests/soundness.rs); if CI bases are
        // within Steensgaard's bases at every op (checked above), then
        // Steensgaard is sound by inclusion. Assert the chain explicitly.
        let mut st = SolverSpec::steensgaard()
            .solve(&graph, None)
            .expect("no budget")
            .into_steens()
            .expect("steensgaard result");
        assert!(ci_within_steensgaard(&graph, &ci, &mut st), "{}", b.name);
        let v = interp::check_solution_dyn(&prog, &graph, &ci, &out.trace);
        assert!(v.is_empty(), "{}", b.name);
    }
}

#[test]
fn k1_heap_naming_is_a_refinement() {
    // Collapsing the per-caller heap clones recovers (a subset of) the
    // site-named CI solution on every benchmark, and the §5.1.1 effect
    // shows somewhere: at least one program's pair pool grows.
    let mut grew = false;
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        let site = SolverSpec::ci().solve_ci(&graph);
        let k1 = SolverSpec::ci()
            .heap_naming(HeapNaming::CallString1)
            .solve_ci(&graph);
        if k1.total_pairs() > site.total_pairs() {
            grew = true;
        }
        let mut k1_paths = k1.paths.clone();
        for o in graph.output_ids() {
            let site_set: HashSet<(String, String)> = site
                .pairs(o)
                .iter()
                .map(|p| {
                    (
                        site.paths.display(p.path, &graph),
                        site.paths.display(p.referent, &graph),
                    )
                })
                .collect();
            for pr in k1.pairs(o) {
                let c = (
                    {
                        let x = k1_paths.collapse_synthetic(pr.path);
                        k1_paths.display(x, &graph)
                    },
                    {
                        let x = k1_paths.collapse_synthetic(pr.referent);
                        k1_paths.display(x, &graph)
                    },
                );
                assert!(
                    site_set.contains(&c),
                    "{}: collapsed k=1 pair escaped the site solution: {c:?}",
                    b.name
                );
            }
        }
    }
    assert!(grew, "finer heap naming should enlarge some pair pool");
}

#[test]
fn k1_heap_naming_is_runtime_sound() {
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        let out = interp::run(
            &prog,
            &interp::Config {
                input: b.input.to_vec(),
                ..interp::Config::default()
            },
        )
        .unwrap();
        let k1 = SolverSpec::ci()
            .heap_naming(HeapNaming::CallString1)
            .solve_ci(&graph);
        let v = interp::check_solution_dyn(&prog, &graph, &k1, &out.trace);
        assert!(v.is_empty(), "{}: k=1 heap naming unsound: {v:#?}", b.name);
    }
}
