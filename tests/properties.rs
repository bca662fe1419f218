//! Property-based tests over randomly generated pointer programs.
//!
//! Each property is exercised over a deterministic sweep of generator
//! seeds (the repo has no external property-testing dependency, so the
//! "shrinking" story is simply: the failing seed is printed and the
//! whole program is reproducible from it).

use alias::{cs_subset_of_ci, SolverSpec, WorklistOrder};
use suite::generator::{generate, GenConfig};
use vdg::build::{lower, BuildOptions};

/// Seeds swept by the whole-program properties.
const CASES: u64 = 48;
/// Seeds swept by the slower CS-ablation properties.
const SLOW_CASES: u64 = 12;

fn build(seed: u64) -> (cfront::Program, vdg::Graph) {
    let src = generate(seed, &GenConfig::default());
    let prog = cfront::compile(&src)
        .unwrap_or_else(|e| panic!("seed {seed}: generated program rejected:\n{src}\n{e}"));
    let graph = lower(&prog, &BuildOptions::default())
        .unwrap_or_else(|e| panic!("seed {seed}: lowering failed: {e}"));
    (prog, graph)
}

/// The stripped CS solution is contained in the CI solution.
#[test]
fn cs_subset_of_ci_on_random_programs() {
    for seed in 0..CASES {
        let (_, graph) = build(seed);
        let ci = SolverSpec::ci().solve_ci(&graph);
        let cs = SolverSpec::cs()
            .solve(&graph, Some(&ci))
            .expect("budget")
            .into_cs()
            .expect("cs result");
        assert!(cs_subset_of_ci(&graph, &ci, &cs), "seed {seed}");
    }
}

/// The CI fixpoint does not depend on worklist scheduling.
#[test]
fn fixpoint_is_scheduling_independent() {
    for seed in 0..CASES {
        let (_, graph) = build(seed);
        let fifo = SolverSpec::ci().solve_ci(&graph);
        let lifo = SolverSpec::ci().order(WorklistOrder::Lifo).solve_ci(&graph);
        // Compare by rendered content: path ids are interned in visit order.
        for o in graph.output_ids() {
            let render = |r: &alias::CiResult| {
                let mut v: Vec<(String, String)> = r
                    .pairs(o)
                    .iter()
                    .map(|p| {
                        (
                            r.paths.display(p.path, &graph),
                            r.paths.display(p.referent, &graph),
                        )
                    })
                    .collect();
                v.sort();
                v
            };
            assert_eq!(render(&fifo), render(&lifo), "seed {seed}");
        }
    }
}

/// Strong updates only remove pairs relative to the weak ablation.
#[test]
fn strong_updates_only_filter() {
    for seed in 0..CASES {
        let (_, graph) = build(seed);
        let strong = SolverSpec::ci().solve_ci(&graph);
        let weak = SolverSpec::ci().strong_updates(false).solve_ci(&graph);
        for o in graph.output_ids() {
            let w: std::collections::HashSet<_> = weak.pairs(o).iter().collect();
            for p in strong.pairs(o) {
                assert!(
                    w.contains(p),
                    "seed {seed}: strong found a pair weak missed"
                );
            }
        }
    }
}

/// Subsumption (§4.2) never changes the stripped CS solution.
#[test]
fn subsumption_preserves_results() {
    for seed in 0..SLOW_CASES {
        let (_, graph) = build(seed);
        let ci = SolverSpec::ci().solve_ci(&graph);
        let optimized = SolverSpec::cs()
            .solve(&graph, Some(&ci))
            .expect("budget")
            .into_cs()
            .expect("cs result");
        let no_subsume = SolverSpec::cs()
            .subsumption(false)
            .max_steps(30_000_000)
            .solve(&graph, Some(&ci))
            .map(|s| s.into_cs().expect("cs result"));
        // Without subsumption the algorithm may legitimately blow its
        // budget; when it finishes, the answers must agree.
        if let Ok(no_subsume) = no_subsume {
            for o in graph.output_ids() {
                assert_eq!(optimized.pairs(o), no_subsume.pairs(o), "seed {seed}");
            }
        }
    }
}

/// CI pruning (§4.2) is sandwiched: it can only *add* conservative
/// pairs relative to the maximally precise CS (the paper's footnote 8
/// caveat — contexts where an operation references zero locations),
/// and everything it adds is still within the CI solution.
#[test]
fn ci_pruning_is_sandwiched() {
    for seed in 0..SLOW_CASES {
        let (_, graph) = build(seed);
        let ci = SolverSpec::ci().solve_ci(&graph);
        let pruned = SolverSpec::cs()
            .solve(&graph, Some(&ci))
            .expect("budget")
            .into_cs()
            .expect("cs result");
        let maximal = SolverSpec::cs()
            .ci_pruning(false)
            .max_steps(30_000_000)
            .solve(&graph, Some(&ci))
            .map(|s| s.into_cs().expect("cs result"));
        assert!(cs_subset_of_ci(&graph, &ci, &pruned), "seed {seed}");
        if let Ok(maximal) = maximal {
            for o in graph.output_ids() {
                let p: std::collections::HashSet<_> = pruned.pairs(o).iter().collect();
                for pr in maximal.pairs(o) {
                    assert!(
                        p.contains(pr),
                        "seed {seed}: pruning lost a maximal-CS pair"
                    );
                }
            }
        }
    }
}

/// Every runtime dereference target is predicted by both analyses.
#[test]
fn runtime_soundness() {
    for seed in 0..CASES {
        let (prog, graph) = build(seed);
        let out = interp::run(&prog, &interp::Config::default())
            .unwrap_or_else(|e| panic!("seed {seed}: generated program crashed: {e}"));
        let ci = SolverSpec::ci().solve_ci(&graph);
        let v = interp::check_solution_dyn(&prog, &graph, &ci, &out.trace);
        assert!(v.is_empty(), "seed {seed}: CI violations: {v:#?}");
        let cs = SolverSpec::cs()
            .solve(&graph, Some(&ci))
            .expect("budget")
            .into_cs()
            .expect("cs result");
        let v = interp::check_solution_dyn(&prog, &graph, &cs, &out.trace);
        assert!(v.is_empty(), "seed {seed}: CS violations: {v:#?}");
    }
}

/// The baseline analyses bracket CI on random programs:
/// Weihl ⊇ CI, Steensgaard ⊇ CI (base-wise), CI ⊇ k=1 ⊇ maximal CS.
#[test]
fn baseline_spectrum_on_random_programs() {
    for seed in 0..CASES {
        let (_, graph) = build(seed);
        let ci = SolverSpec::ci().solve_ci(&graph);
        let w = SolverSpec::weihl()
            .solve(&graph, Some(&ci))
            .expect("no budget")
            .into_weihl()
            .expect("weihl result");
        assert!(
            alias::weihl::ci_subset_of_weihl(&graph, &ci, &w),
            "seed {seed}"
        );
        let mut st = SolverSpec::steensgaard()
            .solve(&graph, None)
            .expect("no budget")
            .into_steens()
            .expect("steensgaard result");
        assert!(
            alias::steensgaard::ci_within_steensgaard(&graph, &ci, &mut st),
            "seed {seed}"
        );
        let k1 = SolverSpec::k1()
            .solve(&graph, Some(&ci))
            .expect("budget")
            .into_k1()
            .expect("k1 result");
        for o in graph.output_ids() {
            let ci_set: std::collections::HashSet<_> = ci.pairs(o).iter().collect();
            for p in k1.pairs(o) {
                assert!(ci_set.contains(p), "seed {seed}");
            }
        }
    }
}

/// The baselines are sound against real executions too.
#[test]
fn baselines_runtime_sound_on_random_programs() {
    for seed in 0..CASES {
        let (prog, graph) = build(seed);
        let out = interp::run(&prog, &interp::Config::default())
            .unwrap_or_else(|e| panic!("seed {seed}: crashed: {e}"));
        let w = SolverSpec::weihl()
            .solve(&graph, None)
            .expect("no budget")
            .into_weihl()
            .expect("weihl result");
        let v = interp::check_solution_dyn(&prog, &graph, &w, &out.trace);
        assert!(v.is_empty(), "seed {seed}: Weihl violations: {v:#?}");
        let k1 = SolverSpec::k1()
            .solve(&graph, None)
            .expect("budget")
            .into_k1()
            .expect("k1 result");
        let v = interp::check_solution_dyn(&prog, &graph, &k1, &out.trace);
        assert!(v.is_empty(), "seed {seed}: k=1 violations: {v:#?}");
    }
}

/// The pretty-printer is a parse fixpoint on generated programs.
#[test]
fn printer_round_trips() {
    for seed in 0..CASES {
        let src = generate(seed, &GenConfig::default());
        let p1 = cfront::parser::parse(cfront::lexer::lex(&src).unwrap()).unwrap();
        let once = cfront::pretty::print_program(&p1);
        let p2 = cfront::parser::parse(cfront::lexer::lex(&once).unwrap()).unwrap();
        let twice = cfront::pretty::print_program(&p2);
        assert_eq!(once, twice, "seed {seed}");
    }
}

/// Larger generated programs also flow through the whole pipeline.
#[test]
fn big_programs_stay_within_budget() {
    for seed in 0..SLOW_CASES {
        let cfg = GenConfig {
            funcs: 8,
            stmts_per_func: 16,
            max_depth: 3,
            ..GenConfig::default()
        };
        let src = generate(seed, &cfg);
        let prog = cfront::compile(&src).expect("compiles");
        let graph = lower(&prog, &BuildOptions::default()).expect("lowers");
        let ci = SolverSpec::ci().solve_ci(&graph);
        let cs = SolverSpec::cs()
            .solve(&graph, Some(&ci))
            .expect("budget")
            .into_cs()
            .expect("cs result");
        assert!(cs_subset_of_ci(&graph, &ci, &cs), "seed {seed}");
    }
}

/// Client-level monotonicity: the paper's two motivating clients
/// (§3.2 mod/ref and def/use), computed at the base granularity every
/// solver supports, nest along the precision spectrum — CS ⊆ CI ⊆
/// Weihl/Steensgaard and k=1 ⊆ CI, per function and per use — over all
/// 13 paper benchmarks. Plus direct unit tests for the base-granular
/// variants on hand-written fixtures.
mod client_monotonicity {
    use alias::defuse::def_use_bases;
    use alias::modref::{mod_ref_bases, ModRefBasesSummary};
    use alias::SolverSpec;
    use vdg::build::{lower, BuildOptions};

    /// Solver chains where the left solution's base sets are contained
    /// in the right's at every output.
    const CHAINS: [(&str, &str); 4] = [
        ("cs", "ci"),
        ("k1", "ci"),
        ("ci", "weihl"),
        ("ci", "steensgaard"),
    ];

    fn pipeline(src: &str) -> (vdg::Graph, alias::CiResult) {
        let prog = cfront::compile(src).expect("compiles");
        let graph = lower(&prog, &BuildOptions::default()).expect("lowers");
        let ci = SolverSpec::ci().solve_ci(&graph);
        (graph, ci)
    }

    fn summaries(
        graph: &vdg::Graph,
        ci: &alias::CiResult,
    ) -> Vec<(String, ModRefBasesSummary, alias::defuse::DefUse)> {
        SolverSpec::all()
            .iter()
            .map(|spec| {
                let sol = spec.solve(graph, Some(ci)).expect("budget");
                (
                    spec.name().to_string(),
                    mod_ref_bases(graph, sol.as_ref(), &ci.callees),
                    def_use_bases(graph, sol.as_ref(), &ci.callees),
                )
            })
            .collect()
    }

    fn assert_nested(
        bench: &str,
        graph: &vdg::Graph,
        all: &[(String, ModRefBasesSummary, alias::defuse::DefUse)],
    ) {
        let by_name = |n: &str| {
            all.iter()
                .find(|(name, _, _)| name == n)
                .expect("solver ran")
        };
        for (fine, coarse) in CHAINS {
            let (_, f_mr, f_du) = by_name(fine);
            let (_, c_mr, c_du) = by_name(coarse);
            for func in graph.func_ids() {
                for (label, f_sum, c_sum) in [
                    ("direct", &f_mr.direct[&func], &c_mr.direct[&func]),
                    (
                        "transitive",
                        &f_mr.transitive[&func],
                        &c_mr.transitive[&func],
                    ),
                ] {
                    assert!(
                        f_sum.refs.is_subset(&c_sum.refs) && f_sum.mods.is_subset(&c_sum.mods),
                        "{bench}: {label} mod/ref of {} not nested {fine} ⊆ {coarse}",
                        graph.func(func).name
                    );
                }
            }
            for (lookup, f_defs) in &f_du.uses {
                let c_defs = c_du.defs_of(*lookup);
                for d in f_defs {
                    assert!(
                        c_defs.contains(d),
                        "{bench}: def/use edge {lookup:?} -> {d:?} in {fine} missing from {coarse}"
                    );
                }
            }
        }
    }

    #[test]
    fn modref_and_defuse_nest_across_solvers_on_the_suite() {
        for b in suite::benchmarks() {
            let (graph, ci) = pipeline(b.source);
            let all = summaries(&graph, &ci);
            assert_nested(b.name, &graph, &all);
        }
    }

    #[test]
    fn base_granular_modref_works_for_the_unification_baseline() {
        // Steensgaard has no per-point pair sets, so only the base
        // variant can summarize it; the indirect write through `p` must
        // land in poke's mod set under every solver.
        let (graph, ci) = pipeline(
            "int x; int y;\n\
             void poke(int *p) { *p = 7; }\n\
             int main(void) { poke(&x); poke(&y); return x + y; }",
        );
        let poke = graph
            .func_ids()
            .find(|&f| graph.func(f).name == "poke")
            .expect("poke exists");
        for (name, mr, _) in summaries(&graph, &ci) {
            assert!(
                mr.direct[&poke].mods.len() >= 2,
                "{name}: poke must modify both x and y"
            );
            assert!(
                mr.direct[&poke].refs.is_empty(),
                "{name}: poke reads nothing"
            );
        }
    }

    #[test]
    fn base_granular_defuse_has_no_strong_kills() {
        // The path-granular walk kills the first `g = 1` at the strong
        // update `g = 2`; the base-granular walk deliberately keeps it
        // (whole-base kills are unsound for interior paths), so the read
        // sees both defs. This asymmetry is what makes the base variant
        // monotone across solvers.
        let src = "int g; int main(void) { int *p; p = &g; g = 1; g = 2; return *p; }";
        let (graph, ci) = pipeline(src);
        let read = graph
            .indirect_mem_ops()
            .into_iter()
            .find(|&(_, w)| !w)
            .map(|(n, _)| n)
            .expect("indirect read");
        let path_du = alias::defuse::def_use(&graph, &ci, &ci.callees).expect("ci has pairs");
        let base_du = def_use_bases(&graph, &ci, &ci.callees);
        assert_eq!(path_du.defs_of(read).len(), 1, "strong kill applies");
        assert_eq!(
            base_du.defs_of(read).len(),
            2,
            "no kill at base granularity"
        );
    }
}

/// Access-path algebra properties, driven by op scripts drawn from the
/// suite's deterministic PRNG instead of a strategy combinator.
mod path_algebra {
    use alias::{AccessOp, PathTable};
    use suite::rng::Rng;
    use vdg::graph::{BaseInfo, BaseKind, FieldId};

    const CASES: u64 = 256;

    /// Builds a graph with `n` bases (alternating strong/weak) and returns
    /// paths assembled from the op script.
    fn table(n_bases: u32) -> (vdg::Graph, PathTable) {
        let mut g = vdg::Graph::new();
        for i in 0..n_bases {
            g.add_base(BaseInfo {
                kind: BaseKind::Global {
                    name: format!("b{i}"),
                },
                single_instance: i % 2 == 0,
                cooper_older: None,
                site_expr: None,
            });
        }
        let t = PathTable::for_graph(&g);
        (g, t)
    }

    fn build_path(t: &mut PathTable, base: u32, ops: &[u8]) -> alias::PathId {
        let mut p = t.base_root(vdg::BaseId(base));
        for &op in ops {
            let op = if op % 3 == 0 {
                AccessOp::Index
            } else {
                AccessOp::Field(FieldId((op % 5) as u32))
            };
            p = t.child(p, op);
        }
        p
    }

    /// Draws an op script of length `0..max_len` with values `0..8`.
    fn ops(rng: &mut Rng, max_len: usize) -> Vec<u8> {
        let len = rng.gen_range(0..max_len);
        (0..len).map(|_| rng.gen_range(0..8usize) as u8).collect()
    }

    /// `dom` is a partial order on paths.
    #[test]
    fn dom_is_a_partial_order() {
        for case in 0..CASES {
            let mut rng = Rng::seed_from_u64(case);
            let base = rng.gen_range(0..4usize) as u32;
            let ops_a = ops(&mut rng, 5);
            let ops_b = ops(&mut rng, 5);
            let ops_c = ops(&mut rng, 3);
            let (_, mut t) = table(4);
            let a = build_path(&mut t, base, &ops_a);
            let b = build_path(&mut t, base, &ops_b);
            // Reflexive.
            assert!(t.dom(a, a), "case {case}");
            // Antisymmetric.
            if t.dom(a, b) && t.dom(b, a) {
                assert_eq!(a, b, "case {case}");
            }
            // Transitive: extend b to get a guaranteed dominatee.
            let c = {
                let mut p = b;
                for &op in &ops_c {
                    let op = if op % 2 == 0 {
                        AccessOp::Index
                    } else {
                        AccessOp::Field(FieldId(1))
                    };
                    p = t.child(p, op);
                }
                p
            };
            assert!(t.dom(b, c), "case {case}");
            if t.dom(a, b) {
                assert!(t.dom(a, c), "case {case}");
            }
        }
    }

    /// `strong_dom ⊆ dom`, and indexes kill strong updateability.
    #[test]
    fn strong_dom_is_a_subrelation() {
        for case in 0..CASES {
            let mut rng = Rng::seed_from_u64(case);
            let base = rng.gen_range(0..4usize) as u32;
            let ops_a = ops(&mut rng, 5);
            let ops_b = ops(&mut rng, 5);
            let (_, mut t) = table(4);
            let a = build_path(&mut t, base, &ops_a);
            let b = build_path(&mut t, base, &ops_b);
            if t.strong_dom(a, b) {
                assert!(t.dom(a, b), "case {case}");
                assert!(t.strongly_updateable(a), "case {case}");
            }
            if ops_a.iter().any(|o| o % 3 == 0) {
                assert!(
                    !t.strongly_updateable(a),
                    "case {case}: index op must weaken"
                );
            }
        }
    }

    /// `append` and `subtract` are mutually inverse.
    #[test]
    fn append_subtract_inverse() {
        for case in 0..CASES {
            let mut rng = Rng::seed_from_u64(case);
            let base = rng.gen_range(0..4usize) as u32;
            let ops_a = ops(&mut rng, 4);
            let ops_off = ops(&mut rng, 4);
            let (_, mut t) = table(4);
            let a = build_path(&mut t, base, &ops_a);
            // Build an offset (no base) with the same op script rules.
            let mut off = PathTable::EMPTY;
            for &op in &ops_off {
                let op = if op % 3 == 0 {
                    AccessOp::Index
                } else {
                    AccessOp::Field(FieldId((op % 5) as u32))
                };
                off = t.child(off, op);
            }
            let joined = t.append(a, off);
            assert!(t.dom(a, joined), "case {case}");
            assert_eq!(t.subtract(joined, a), off, "case {case}");
            assert_eq!(t.append(a, PathTable::EMPTY), a, "case {case}");
        }
    }

    /// Paths with different bases never dominate each other.
    #[test]
    fn different_bases_never_alias() {
        for case in 0..CASES {
            let mut rng = Rng::seed_from_u64(case);
            let ops_a = ops(&mut rng, 4);
            let ops_b = ops(&mut rng, 4);
            let (_, mut t) = table(4);
            let a = build_path(&mut t, 0, &ops_a);
            let b = build_path(&mut t, 1, &ops_b);
            assert!(!t.dom(a, b), "case {case}");
            assert!(!t.dom(b, a), "case {case}");
        }
    }
}
