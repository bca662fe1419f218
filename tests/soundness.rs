//! Interpreter-backed soundness: every memory access observed while
//! executing a benchmark must be covered by both the CI and CS points-to
//! solutions at the corresponding VDG node, under both recursive-local
//! schemes. (The paper argues soundness informally; here it is checked
//! against real executions.)

use alias::SolverSpec;
use interp::{check_solution_dyn, run, Config};
use vdg::build::{lower, BuildOptions};
use vdg::RecLocalScheme;

fn check_benchmark(name: &str, scheme: RecLocalScheme) {
    let b = suite::by_name(name).expect("benchmark exists");
    let prog = cfront::compile(b.source).unwrap();
    let graph = lower(
        &prog,
        &BuildOptions {
            rec_local_scheme: scheme,
        },
    )
    .unwrap();
    let out = run(
        &prog,
        &Config {
            input: b.input.to_vec(),
            ..Config::default()
        },
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(out.exit, b.expected_exit, "{name}: wrong exit status");

    let ci = SolverSpec::ci().solve_ci(&graph);
    let v = check_solution_dyn(&prog, &graph, &ci, &out.trace);
    assert!(v.is_empty(), "{name}: CI unsound ({scheme:?}): {v:#?}");

    let cs = SolverSpec::cs()
        .solve(&graph, Some(&ci))
        .unwrap()
        .into_cs()
        .expect("cs result");
    let v = check_solution_dyn(&prog, &graph, &cs, &out.trace);
    assert!(v.is_empty(), "{name}: CS unsound ({scheme:?}): {v:#?}");
}

#[test]
fn all_benchmarks_sound_weak_scheme() {
    for b in suite::benchmarks() {
        check_benchmark(b.name, RecLocalScheme::Weak);
    }
}

#[test]
fn all_benchmarks_sound_cooper_scheme() {
    for b in suite::benchmarks() {
        check_benchmark(b.name, RecLocalScheme::Cooper);
    }
}

#[test]
fn weak_update_ablation_is_sound_too() {
    // Disabling strong updates loses precision, never soundness.
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).unwrap();
        let graph = lower(&prog, &BuildOptions::default()).unwrap();
        let out = run(
            &prog,
            &Config {
                input: b.input.to_vec(),
                ..Config::default()
            },
        )
        .unwrap();
        let ci = SolverSpec::ci().strong_updates(false).solve_ci(&graph);
        let v = check_solution_dyn(&prog, &graph, &ci, &out.trace);
        assert!(v.is_empty(), "{}: weak-update CI unsound: {v:#?}", b.name);
    }
}

#[test]
fn recursive_downward_escape_is_sound_under_both_schemes() {
    // The case the paper's footnote 4 worries about: a recursive
    // procedure passes the address of a local pointer downward, and the
    // analysis must not strongly update across live instances.
    let src = "int g1; int g2;\n\
         void set(int **slot, int *v) { *slot = v; }\n\
         int walk(int n, int **parent_slot) {\n\
           int *mine; int acc;\n\
           mine = &g1;\n\
           set(&mine, &g2);\n\
           if (n > 0) { acc = walk(n - 1, &mine); } else { acc = 0; }\n\
           *parent_slot = mine;\n\
           return acc + *mine;\n\
         }\n\
         int main(void) { int *top; top = &g1; g1 = 5; g2 = 7; \
           return walk(3, &top) + *top; }";
    let prog = cfront::compile(src).unwrap();
    let out = run(&prog, &Config::default()).unwrap();
    for scheme in [RecLocalScheme::Weak, RecLocalScheme::Cooper] {
        let graph = lower(
            &prog,
            &BuildOptions {
                rec_local_scheme: scheme,
            },
        )
        .unwrap();
        let ci = SolverSpec::ci().solve_ci(&graph);
        let v = check_solution_dyn(&prog, &graph, &ci, &out.trace);
        assert!(v.is_empty(), "{scheme:?}: {v:#?}");
        let cs = SolverSpec::cs()
            .solve(&graph, Some(&ci))
            .unwrap()
            .into_cs()
            .expect("cs result");
        let v = check_solution_dyn(&prog, &graph, &cs, &out.trace);
        assert!(v.is_empty(), "{scheme:?} CS: {v:#?}");
    }
}
