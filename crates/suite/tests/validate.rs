//! Per-benchmark validation: every suite program must compile, lower,
//! run to its expected exit status, and satisfy the interpreter-based
//! soundness oracle under the CI analysis. (The heavier CS checks live
//! in the repository-level integration tests.)

use alias::SolverSpec;
use interp::{check_solution_dyn, run, Config};
use vdg::build::{lower, BuildOptions};

fn validate(name: &str) {
    let b = suite::by_name(name).expect("benchmark exists");
    let prog = cfront::compile(b.source).unwrap_or_else(|e| {
        panic!(
            "{name} does not compile:\n{}",
            e.render(&cfront::SourceFile::new(name, b.source))
        )
    });
    let graph = lower(&prog, &BuildOptions::default())
        .unwrap_or_else(|e| panic!("{name} does not lower: {e}"));
    let out = run(
        &prog,
        &Config {
            input: b.input.to_vec(),
            ..Config::default()
        },
    )
    .unwrap_or_else(|e| panic!("{name} failed to run: {e}"));
    assert_eq!(
        out.exit, b.expected_exit,
        "{name}: exit {} != expected {}\nstdout:\n{}",
        out.exit, b.expected_exit, out.stdout
    );
    let ci = SolverSpec::ci().solve_ci(&graph);
    let violations = check_solution_dyn(&prog, &graph, &ci, &out.trace);
    assert!(
        violations.is_empty(),
        "{name}: CI soundness violations: {violations:#?}"
    );
}

macro_rules! validate_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            validate(stringify!($name));
        }
    };
}

validate_test!(allroots);
validate_test!(anagram);
validate_test!(assembler);
validate_test!(backprop);
validate_test!(bc);
validate_test!(compiler);
validate_test!(compress);
validate_test!(lex315);
validate_test!(loader);
validate_test!(part);
validate_test!(simulator);
validate_test!(span);
validate_test!(yacr2);
