//! # interp — a concrete mini-C interpreter and soundness oracle
//!
//! Executes checked mini-C programs deterministically while tracing every
//! memory access, then checks that the `alias` crate's points-to
//! solutions cover every runtime dereference target
//! ([`oracle::check_solution_dyn`]). This automates the soundness argument
//! the paper makes informally and backs the property tests over randomly
//! generated programs.
//!
//! ```
//! use interp::exec::{run, Config};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = cfront::compile(
//!     "int main(void) { int a; int *p; p = &a; *p = 41; return a + 1; }",
//! )?;
//! let out = run(&prog, &Config::default())?;
//! assert_eq!(out.exit, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod memory;
pub mod oracle;
mod stuck;

pub use exec::{
    explore_races, explore_races_recorded, run, run_traced, Config, FaultInfo, FaultKind, Outcome,
    RaceObs, RunError, RunRecord, Trace,
};
pub use oracle::{check_solution_dyn, Violation};

#[cfg(test)]
mod tests {
    use super::*;
    use alias::SolverSpec;
    use vdg::build::{lower, BuildOptions};

    fn exec(src: &str) -> Outcome {
        let p = cfront::compile(src).expect("compiles");
        run(&p, &Config::default()).expect("runs")
    }

    fn exec_with_input(src: &str, input: &str) -> Outcome {
        let p = cfront::compile(src).expect("compiles");
        run(
            &p,
            &Config {
                input: input.as_bytes().to_vec(),
                ..Config::default()
            },
        )
        .expect("runs")
    }

    /// Runs the program and checks both CI and CS solutions against the
    /// trace; panics on any violation.
    fn exec_checked(src: &str) -> Outcome {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = SolverSpec::ci().solve_ci(&g);
        let cs = SolverSpec::cs()
            .solve(&g, Some(&ci))
            .expect("cs budget")
            .into_cs()
            .expect("cs result");
        let out = run(&p, &Config::default()).expect("runs");
        let v_ci = check_solution_dyn(&p, &g, &ci, &out.trace);
        assert!(v_ci.is_empty(), "CI violations: {v_ci:#?}");
        let v_cs = check_solution_dyn(&p, &g, &cs, &out.trace);
        assert!(v_cs.is_empty(), "CS violations: {v_cs:#?}");
        out
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let out = exec(
            "int main(void) { int i; int s; s = 0; \
             for (i = 1; i <= 10; i++) { if (i % 2 == 0) continue; s += i; } \
             return s; }",
        );
        assert_eq!(out.exit, 25);
    }

    #[test]
    fn switch_and_loops() {
        let out = exec(
            "int classify(int c) { switch (c) { case 0: return 100; \
             case 1: case 2: return 200; default: return 300; } }\n\
             int main(void) { return classify(0) + classify(1) + classify(2) + classify(7); }",
        );
        assert_eq!(out.exit, 100 + 200 + 200 + 300);
    }

    #[test]
    fn pointers_and_out_params() {
        let out = exec_checked(
            "void swap(int *a, int *b) { int t; t = *a; *a = *b; *b = t; }\n\
             int main(void) { int x; int y; x = 3; y = 4; swap(&x, &y); \
             return x * 10 + y; }",
        );
        assert_eq!(out.exit, 43);
    }

    #[test]
    fn linked_list_program() {
        let out = exec_checked(
            "struct node { int v; struct node *next; };\n\
             struct node *cons(int v, struct node *t) {\n\
               struct node *n; n = (struct node*)malloc(sizeof(struct node));\n\
               n->v = v; n->next = t; return n; }\n\
             int sum(struct node *l) { int s; s = 0;\n\
               while (l != NULL) { s += l->v; l = l->next; } return s; }\n\
             int main(void) { return sum(cons(1, cons(2, cons(3, NULL)))); }",
        );
        assert_eq!(out.exit, 6);
    }

    #[test]
    fn arrays_and_pointer_arithmetic() {
        let out = exec_checked(
            "int sum(int *p, int n) { int s; int i; s = 0; \
             for (i = 0; i < n; i++) s += p[i]; return s; }\n\
             int main(void) { int a[5]; int i; \
             for (i = 0; i < 5; i++) a[i] = i + 1; \
             return sum(a, 5) + sum(a + 2, 2) + *(a + 4); }",
        );
        assert_eq!(out.exit, 15 + 7 + 5);
    }

    #[test]
    fn strings_and_output() {
        let out = exec(
            "int main(void) { char buf[32]; \
             strcpy(buf, \"hello\"); strcat(buf, \" world\"); \
             printf(\"%s! %d\\n\", buf, strlen(buf)); \
             return strcmp(buf, \"hello world\"); }",
        );
        assert_eq!(out.exit, 0);
        assert_eq!(out.stdout, "hello world! 11\n");
    }

    #[test]
    fn function_pointers() {
        let out = exec_checked(
            "int add(int a, int b) { return a + b; }\n\
             int mul(int a, int b) { return a * b; }\n\
             int apply(int (*op)(int, int), int x, int y) { return op(x, y); }\n\
             int main(void) { int (*f)(int, int); f = add; \
             return apply(f, 2, 3) + apply(mul, 2, 3); }",
        );
        assert_eq!(out.exit, 11);
    }

    #[test]
    fn struct_copies() {
        let out = exec_checked(
            "struct pt { int x; int y; };\n\
             int main(void) { struct pt a; struct pt b; \
             a.x = 1; a.y = 2; b = a; b.x = 10; \
             return a.x + b.x + b.y; }",
        );
        assert_eq!(out.exit, 13);
    }

    #[test]
    fn unions_share_storage_at_runtime() {
        let out = exec(
            "union u { int a; int b; };\n\
             int main(void) { union u v; v.a = 7; return v.b; }",
        );
        assert_eq!(out.exit, 7);
    }

    #[test]
    fn getchar_reads_configured_input() {
        let out = exec_with_input(
            "int main(void) { int c; int n; n = 0; \
             while ((c = getchar()) != -1) { n = n * 10 + (c - '0'); } \
             return n; }",
            "123",
        );
        assert_eq!(out.exit, 123);
    }

    #[test]
    fn recursion() {
        let out = exec_checked(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n\
             int main(void) { return fib(10); }",
        );
        assert_eq!(out.exit, 55);
    }

    #[test]
    fn heap_buffers_and_memset() {
        let out = exec_checked(
            "int main(void) { int *buf; int i; int s; \
             buf = (int*)malloc(10 * sizeof(int)); \
             for (i = 0; i < 10; i++) buf[i] = i; \
             s = 0; for (i = 0; i < 10; i++) s += buf[i]; \
             free(buf); return s; }",
        );
        assert_eq!(out.exit, 45);
    }

    #[test]
    fn exit_builtin_stops_program() {
        let out = exec("int main(void) { exit(9); return 1; }");
        assert_eq!(out.exit, 9);
    }

    #[test]
    fn null_deref_is_dynamic_error() {
        let p = cfront::compile("int main(void) { int *p; p = NULL; return *p; }").unwrap();
        let err = run(&p, &Config::default()).unwrap_err();
        assert!(matches!(err, RunError::Dynamic(_)));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let p = cfront::compile("int main(void) { for (;;) {} return 0; }").unwrap();
        let err = run(
            &p,
            &Config {
                max_steps: 10_000,
                ..Config::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, RunError::StepLimit);
    }

    /// Runs `src` under a budget of `max_steps`.
    fn record(src: &str, max_steps: u64) -> RunRecord {
        let p = cfront::compile(src).expect("compiles");
        run_traced(
            &p,
            &Config {
                max_steps,
                ..Config::default()
            },
        )
    }

    #[test]
    fn stuck_loop_ends_through_the_proof() {
        // Stepping through this budget would take days; only the stuck-
        // loop proof can end the run.
        let max_steps = u64::MAX / 2;
        let rec = record(
            "struct item { int w; struct item *next; };\n\
             int main(void) { struct item a; struct item *p; int sum; int n; \
             a.w = 3; a.next = NULL; p = &a; sum = 0; n = 0; \
             while (p != NULL) { sum += p->w; n++; } return sum; }",
            max_steps,
        );
        assert_eq!(rec.error, Some(RunError::StepLimit));
        assert_eq!(rec.steps, max_steps + 1);
    }

    #[test]
    fn impure_infinite_loop_spends_the_whole_budget() {
        // A global write rules the proof out: the budget runs down step
        // by step.
        let rec = record(
            "int g; int main(void) { for (;;) { g = g + 1; } return 0; }",
            10_000,
        );
        assert_eq!(rec.error, Some(RunError::StepLimit));
        assert_eq!(rec.steps, 10_001);
    }

    #[test]
    fn float_in_an_int_accumulator_keeps_the_slow_path() {
        // `b` holds a float after one iteration and `a` after two, so the
        // third `a & 1` faults; ending the loop after its second
        // iteration would report a step limit instead.
        let rec = record(
            "int main(void) { int a; int b; int c; a = 0; b = 0; c = 0; \
             while (1) { c = a & 1; a = b; b = b + 0.5; } return c; }",
            u64::MAX / 2,
        );
        assert_eq!(
            rec.error,
            Some(RunError::Dynamic("invalid float operation".into()))
        );
    }

    #[test]
    fn threaded_spin_wait_is_released_by_its_worker() {
        let out = exec(
            "int flag;\n\
             void release(int v) { flag = v; }\n\
             int main(void) { flag = 0; spawn release(1); \
             while (flag == 0) {} join; return flag + 6; }",
        );
        assert_eq!(out.exit, 7);
    }

    #[test]
    fn trace_records_abstract_locations() {
        let p =
            cfront::compile("int g; int main(void) { int *p; p = &g; *p = 5; return g; }").unwrap();
        let out = run(&p, &Config::default()).unwrap();
        // Some write must target the abstraction of g.
        let hit =
            out.trace.writes.values().flatten().any(|a| {
                matches!(a.origin, crate::memory::Origin::Global(0)) && a.steps.is_empty()
            });
        assert!(hit);
    }

    #[test]
    fn oracle_catches_an_unsound_solution() {
        // An empty "solution" must be flagged when the program writes
        // through a pointer.
        use alias::solver::{Solution, SolutionBox};
        use vdg::graph::{BaseId, Graph, OutputId};
        struct EmptySol(alias::PathTable);
        impl Solution for EmptySol {
            fn analysis(&self) -> &'static str {
                "empty"
            }
            fn pairs(&self) -> Option<usize> {
                Some(0)
            }
            fn flow_ins(&self) -> Option<u64> {
                None
            }
            fn flow_outs(&self) -> Option<u64> {
                None
            }
            fn output_referent_bases(&self, _: &Graph, _: OutputId) -> Vec<BaseId> {
                Vec::new()
            }
            fn pairs_at(&self, _: OutputId) -> Option<&[alias::Pair]> {
                Some(&[])
            }
            fn path_universe(&self) -> Option<&alias::PathTable> {
                Some(&self.0)
            }
            fn clone_box(&self) -> SolutionBox {
                Box::new(EmptySol(self.0.clone()))
            }
        }
        let p =
            cfront::compile("int g; int main(void) { int *p; p = &g; *p = 5; return g; }").unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let out = run(&p, &Config::default()).unwrap();
        let sol = EmptySol(alias::PathTable::for_graph(&g));
        let violations = check_solution_dyn(&p, &g, &sol, &out.trace);
        assert!(!violations.is_empty());
    }

    #[test]
    fn memcpy_copies_structs() {
        let out = exec_checked(
            "struct s { int a; int *p; };\n\
             int g;\n\
             int main(void) { struct s x; struct s y; \
             x.a = 5; x.p = &g; g = 7; \
             memcpy(&y, &x, sizeof(struct s)); \
             return y.a + *(y.p); }",
        );
        assert_eq!(out.exit, 12);
    }

    #[test]
    fn strdup_and_strchr() {
        let out = exec(
            "int main(void) { char *s; char *t; \
             s = strdup(\"abcdef\"); t = strchr(s, 'c'); \
             if (t == NULL) return 99; return t - s; }",
        );
        assert_eq!(out.exit, 2);
    }

    #[test]
    fn sprintf_formats_into_buffer() {
        let out = exec(
            "int main(void) { char buf[64]; \
             sprintf(buf, \"%d-%s\", 42, \"x\"); \
             return strlen(buf); }",
        );
        assert_eq!(out.exit, 4);
    }

    #[test]
    fn deterministic_rand() {
        let a = exec("int main(void) { srand(7); return rand() % 100; }");
        let b = exec("int main(void) { srand(7); return rand() % 100; }");
        assert_eq!(a.exit, b.exit);
    }

    #[test]
    fn global_initializers_run() {
        let out = exec_checked(
            "int x; int *gp = &x; int table[3] = {10, 20, 30};\n\
             int main(void) { *gp = table[1]; return x; }",
        );
        assert_eq!(out.exit, 20);
    }

    #[test]
    fn do_while_and_compound_assignment() {
        let out = exec(
            "int main(void) { int n; int s; n = 5; s = 1;              do { s *= 2; n -= 1; } while (n > 0); return s; }",
        );
        assert_eq!(out.exit, 32);
    }

    #[test]
    fn two_dimensional_arrays() {
        let out = exec_checked(
            "int grid[3][4];
             int main(void) { int i; int j; int s; s = 0;
               for (i = 0; i < 3; i++) { for (j = 0; j < 4; j++) {                  grid[i][j] = i * 4 + j; } }
               for (i = 0; i < 3; i++) { s += grid[i][i]; }
               return s; }",
        );
        assert_eq!(out.exit, 5 + 10);
    }

    #[test]
    fn pointer_into_struct_field() {
        let out = exec_checked(
            "struct s { int a; int b; };
             int main(void) { struct s v; int *p; v.a = 1; v.b = 2;              p = &v.b; *p = 9; return v.a + v.b; }",
        );
        assert_eq!(out.exit, 10);
    }

    #[test]
    fn array_of_structs_with_pointers() {
        let out = exec_checked(
            "struct cell { int v; int *link; };
             struct cell cells[3];
             int shared;
             int main(void) { int i; int s; shared = 7; s = 0;
               for (i = 0; i < 3; i++) { cells[i].v = i; cells[i].link = &shared; }
               for (i = 0; i < 3; i++) { s += cells[i].v + *(cells[i].link); }
               return s; }",
        );
        assert_eq!(out.exit, 1 + 2 + 21);
    }

    #[test]
    fn division_by_zero_is_dynamic_error() {
        let p = cfront::compile("int main(void) { int a; a = 0; return 5 / a; }").unwrap();
        assert!(matches!(
            run(&p, &Config::default()),
            Err(RunError::Dynamic(_))
        ));
    }

    #[test]
    fn pointer_difference_and_relational() {
        let out = exec(
            "int main(void) { int a[8]; int *p; int *q;              p = &a[1]; q = &a[6];              if (p >= q) { return 99; }              return q - p; }",
        );
        assert_eq!(out.exit, 5);
    }

    #[test]
    fn cross_object_pointer_difference_is_error() {
        let p = cfront::compile(
            "int a[2]; int b[2];
             int main(void) { int *p; int *q; p = a; q = b; return q - p; }",
        )
        .unwrap();
        assert!(matches!(
            run(&p, &Config::default()),
            Err(RunError::Dynamic(_))
        ));
    }

    #[test]
    fn negative_index_is_error() {
        let p =
            cfront::compile("int a[4]; int main(void) { int i; i = -1; return a[i]; }").unwrap();
        assert!(matches!(
            run(&p, &Config::default()),
            Err(RunError::Dynamic(_))
        ));
    }

    #[test]
    fn deep_recursion_is_bounded() {
        let p = cfront::compile(
            "int down(int n) { if (n == 0) return 0; return down(n - 1); }
             int main(void) { return down(100000); }",
        )
        .unwrap();
        assert!(matches!(
            run(&p, &Config::default()),
            Err(RunError::Dynamic(_))
        ));
    }

    #[test]
    fn float_arithmetic() {
        let out = exec(
            "int main(void) { double x; double y; x = 1.5; y = 2.25;              return (int)((x + y) * 4.0); }",
        );
        assert_eq!(out.exit, 15);
    }

    #[test]
    fn printf_number_formats() {
        let out = exec(
            "int main(void) { printf(\"%d %x %o %c|\", 255, 255, 8, 'A'); \
             printf(\"%%|%s\", \"end\"); return 0; }",
        );
        assert_eq!(out.stdout, "255 ff 10 A|%|end");
    }

    #[test]
    fn enum_constants_run() {
        let out = exec(
            "enum sizes { SMALL = 1, LARGE = 10 };
             int main(void) { int total[LARGE]; int i;
               for (i = 0; i < LARGE; i++) { total[i] = SMALL; }
               return total[3] + LARGE; }",
        );
        assert_eq!(out.exit, 11);
    }

    #[test]
    fn ternary_and_comma() {
        let out = exec(
            "int main(void) { int a; int b; a = 5; \
             b = (a > 3 ? 10 : 20); a = (b += 1, b * 2); return a; }",
        );
        assert_eq!(out.exit, 22);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use exec::FaultKind;

    fn traced(src: &str) -> RunRecord {
        let p = cfront::compile(src).expect("compiles");
        run_traced(&p, &Config::default())
    }

    fn exec(src: &str) -> Outcome {
        let p = cfront::compile(src).expect("compiles");
        run(&p, &Config::default()).expect("runs")
    }

    #[test]
    fn free_then_exit_is_clean() {
        let rec = traced(
            "int main(void) { int *p; p = (int*)malloc(sizeof(int)); \
             *p = 7; free(p); return 0; }",
        );
        assert_eq!(rec.exit, Some(0));
        assert!(rec.fault.is_none());
        assert_eq!(rec.trace.frees.len(), 1, "one executed free site");
    }

    #[test]
    fn free_null_is_noop() {
        let rec = traced("int main(void) { int *p; p = NULL; free(p); return 0; }");
        assert_eq!(rec.exit, Some(0));
        assert!(rec.fault.is_none());
        assert!(rec.trace.frees.is_empty());
    }

    #[test]
    fn use_after_free_faults() {
        let rec = traced(
            "int main(void) { int *p; p = (int*)malloc(sizeof(int)); \
             *p = 7; free(p); return *p; }",
        );
        assert_eq!(rec.exit, None);
        let f = rec.fault.expect("classified fault");
        assert_eq!(f.kind, FaultKind::UseAfterFree);
        // The trace survives the fault: the pre-fault write is present.
        assert!(!rec.trace.writes.is_empty());
    }

    #[test]
    fn write_after_free_faults() {
        let rec = traced(
            "int main(void) { int *p; p = (int*)malloc(sizeof(int)); \
             free(p); *p = 7; return 0; }",
        );
        let f = rec.fault.expect("classified fault");
        assert_eq!(f.kind, FaultKind::UseAfterFree);
    }

    #[test]
    fn double_free_faults() {
        let rec = traced(
            "int main(void) { int *p; int *q; p = (int*)malloc(sizeof(int)); \
             q = p; free(p); free(q); return 0; }",
        );
        let f = rec.fault.expect("classified fault");
        assert_eq!(f.kind, FaultKind::DoubleFree);
        // Both free sites executed and were recorded before the fault.
        assert_eq!(rec.trace.frees.len(), 2);
    }

    #[test]
    fn free_of_local_is_invalid() {
        let rec = traced("int main(void) { int x; free(&x); return 0; }");
        let f = rec.fault.expect("classified fault");
        assert_eq!(f.kind, FaultKind::InvalidFree);
    }

    #[test]
    fn null_deref_classified() {
        let rec = traced("int main(void) { int *p; p = NULL; return *p; }");
        let f = rec.fault.expect("classified fault");
        assert_eq!(f.kind, FaultKind::NullDeref);
    }

    #[test]
    fn uninit_deref_classified() {
        let rec = traced("int main(void) { int *p; return *p; }");
        let f = rec.fault.expect("classified fault");
        assert_eq!(f.kind, FaultKind::UninitDeref);
    }

    #[test]
    fn returned_local_pointer_recorded_as_escape() {
        let rec = traced(
            "int *leak(void) { int x; x = 1; return &x; }\n\
             int main(void) { int *p; p = leak(); return 0; }",
        );
        assert_eq!(rec.exit, Some(0));
        assert_eq!(rec.trace.local_escapes.len(), 1);
    }

    #[test]
    fn stored_local_pointer_recorded_as_escape() {
        let rec = traced(
            "int *g;\n\
             void stash(void) { int x; x = 1; g = &x; }\n\
             int main(void) { stash(); return 0; }",
        );
        assert_eq!(rec.exit, Some(0));
        assert_eq!(rec.trace.local_escapes.len(), 1);
    }

    #[test]
    fn local_to_local_store_is_not_an_escape() {
        let rec = traced("int main(void) { int x; int *p; x = 1; p = &x; return *p; }");
        assert_eq!(rec.exit, Some(1));
        assert!(rec.trace.local_escapes.is_empty());
    }

    #[test]
    fn plain_run_still_reports_dynamic_error() {
        let p = cfront::compile(
            "int main(void) { int *p; p = (int*)malloc(sizeof(int)); \
             free(p); return *p; }",
        )
        .unwrap();
        let err = run(&p, &Config::default()).unwrap_err();
        assert!(matches!(err, RunError::Dynamic(ref m) if m.contains("use after free")));
    }

    // ----- threads ---------------------------------------------------------

    #[test]
    fn spawn_join_runs_child_to_completion() {
        let out = exec(
            "int g;\n\
             void worker(void) { g = 41; }\n\
             int main(void) { g = 1; spawn worker(); join; return g + 1; }",
        );
        assert_eq!(out.exit, 42);
    }

    #[test]
    fn spawned_children_receive_arguments() {
        let out = exec(
            "int a; int b;\n\
             void put(int *dst, int v) { *dst = v; }\n\
             int main(void) { spawn put(&a, 30); spawn put(&b, 12); join; \
             return a + b; }",
        );
        assert_eq!(out.exit, 42);
    }

    #[test]
    fn join_without_spawn_is_a_no_op() {
        let out = exec("int main(void) { join; return 7; }");
        assert_eq!(out.exit, 7);
    }

    #[test]
    fn spawn_loop_reuses_slots_after_join() {
        let out = exec(
            "int g;\n\
             void bump(void) { g = g + 1; }\n\
             int main(void) { int i; g = 0; \
             for (i = 0; i < 20; i = i + 1) { spawn bump(); join; } \
             return g; }",
        );
        assert_eq!(out.exit, 20);
    }

    #[test]
    fn too_many_live_threads_is_a_dynamic_error() {
        let p = cfront::compile(
            "void idle(void) { }\n\
             int main(void) { int i; \
             for (i = 0; i < 9; i = i + 1) { spawn idle(); } join; return 0; }",
        )
        .unwrap();
        let err = run(&p, &Config::default()).unwrap_err();
        assert!(matches!(err, RunError::Dynamic(ref m) if m.contains("too many live threads")));
    }

    #[test]
    fn child_dynamic_error_stops_the_program() {
        let p = cfront::compile(
            "void boom(void) { int *p; p = NULL; *p = 1; }\n\
             int main(void) { spawn boom(); join; return 0; }",
        )
        .unwrap();
        let err = run(&p, &Config::default()).unwrap_err();
        assert!(matches!(err, RunError::Dynamic(ref m) if m.contains("null pointer")));
    }

    #[test]
    fn child_exit_sets_the_program_exit_code() {
        let out = exec(
            "void quit(void) { exit(5); }\n\
             int main(void) { spawn quit(); join; return 0; }",
        );
        assert_eq!(out.exit, 5);
    }

    #[test]
    fn threaded_runs_are_deterministic_per_seed() {
        let p = cfront::compile(
            "int g;\n\
             void a(void) { int i; for (i = 0; i < 50; i = i + 1) { g = g * 3 + 1; } }\n\
             void b(void) { int i; for (i = 0; i < 50; i = i + 1) { g = g * 5 + 2; } }\n\
             int main(void) { g = 1; spawn a(); spawn b(); join; return g % 97; }",
        )
        .unwrap();
        for seed in [0u64, 1, 0xDEAD] {
            let cfg = Config {
                sched_seed: seed,
                ..Config::default()
            };
            let x = run(&p, &cfg).expect("runs");
            let y = run(&p, &cfg).expect("runs");
            assert_eq!(x.exit, y.exit, "seed {seed} nondeterministic");
            assert_eq!(x.steps, y.steps, "seed {seed} step drift");
        }
    }

    #[test]
    fn unsynchronized_global_write_is_a_race() {
        let rec = traced(
            "int g;\n\
             void w(void) { g = 2; }\n\
             int main(void) { spawn w(); g = 1; join; return g; }",
        );
        assert!(
            !rec.trace.races.is_empty(),
            "conflicting writes should race"
        );
    }

    #[test]
    fn joined_child_write_then_main_read_is_not_a_race() {
        let rec = traced(
            "int g;\n\
             void w(void) { g = 2; }\n\
             int main(void) { spawn w(); join; return g; }",
        );
        assert_eq!(rec.exit, Some(2));
        assert!(rec.trace.races.is_empty(), "join orders the accesses");
    }

    #[test]
    fn disjoint_locations_do_not_race() {
        let rec = traced(
            "int a; int b;\n\
             void w(void) { a = 1; }\n\
             int main(void) { spawn w(); b = 2; join; return a + b; }",
        );
        assert_eq!(rec.exit, Some(3));
        assert!(rec.trace.races.is_empty());
    }

    #[test]
    fn explore_races_finds_read_write_race_under_some_schedule() {
        let p = cfront::compile(
            "int g;\n\
             void w(void) { g = 2; }\n\
             int main(void) { int x; spawn w(); x = g; join; return x; }",
        )
        .unwrap();
        let obs = explore_races(&p, &Config::default(), 8);
        assert_eq!(obs.schedules, 8);
        assert!(!obs.pairs.is_empty(), "read/write race should be observed");
    }

    #[test]
    fn explore_races_on_sequential_program_runs_once_and_sees_nothing() {
        let p = cfront::compile("int main(void) { return 0; }").unwrap();
        let obs = explore_races(&p, &Config::default(), 8);
        assert_eq!(obs.schedules, 1);
        assert!(obs.pairs.is_empty());
    }

    #[test]
    fn sequential_behavior_is_identical_with_thread_support() {
        // A representative sequential program must produce the same
        // outcome and step count regardless of the scheduler seed (the
        // thread hooks must be fully inert without `spawn`).
        let p = cfront::compile(
            "int main(void) { int i; int s; s = 0; \
             for (i = 0; i < 100; i = i + 1) { s = s + i; } return s % 251; }",
        )
        .unwrap();
        let base = run(&p, &Config::default()).expect("runs");
        let seeded = run(
            &p,
            &Config {
                sched_seed: 99,
                ..Config::default()
            },
        )
        .expect("runs");
        assert_eq!(base.exit, seeded.exit);
        assert_eq!(base.steps, seeded.steps);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use cfront::ast::{ExprId, ExprKind, Program, UnOp};

    fn compile(src: &str) -> Program {
        cfront::compile(src).expect("compiles")
    }

    /// The `base.field` member expressions of `p`.
    fn member_sites(p: &Program, base: &str, field: &str) -> Vec<ExprId> {
        p.exprs
            .iter()
            .filter(|(_, e)| match &e.kind {
                ExprKind::Member { base: b, field: f, .. } => {
                    f == field
                        && matches!(&p.exprs.get(*b).kind, ExprKind::Ident { name, .. } if name == base)
                }
                _ => false,
            })
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn two_sites_on_one_location_record_one_abstract_location() {
        let p = compile("int main(void) { int x; int *p; p = &x; x = 1; *p = 2; return x; }");
        let rec = run_traced(&p, &Config::default());
        assert_eq!(rec.exit, Some(2));
        let lhs = |want_deref: bool| {
            p.exprs
                .iter()
                .find_map(|(_, e)| match e.kind {
                    ExprKind::Assign { lhs, .. } => {
                        let deref = matches!(
                            p.exprs.get(lhs).kind,
                            ExprKind::Unary {
                                op: UnOp::Deref,
                                ..
                            }
                        );
                        let is_x = matches!(
                            &p.exprs.get(lhs).kind,
                            ExprKind::Ident { name, .. } if name == "x"
                        );
                        (deref == want_deref && (deref || is_x)).then_some(lhs)
                    }
                    _ => None,
                })
                .expect("assignment site")
        };
        let direct = &rec.trace.writes[&lhs(false)];
        let through = &rec.trace.writes[&lhs(true)];
        assert_eq!(direct.len(), 1);
        assert_eq!(direct, through, "both sites record the same location");
        let x = direct.iter().next().unwrap();
        assert!(matches!(x.origin, memory::Origin::Local { .. }));
        assert!(x.steps.is_empty());
    }

    #[test]
    fn def_use_evidence_sees_through_union_members() {
        let p = compile(
            "union u { int a; int b; };\n\
             union u g; union u h;\n\
             int main(void) { int r; g.a = 5; r = h.b; h.a = 1; r = r + g.b; return r; }",
        );
        let rec = run_traced(&p, &Config::default());
        assert_eq!(rec.exit, Some(5));
        let site = |base, field| member_sites(&p, base, field)[0];
        let t = &rec.trace;
        // One abstract location per union: the member step vanishes.
        assert_eq!(t.writes[&site("g", "a")], t.reads[&site("g", "b")]);
        assert_eq!(t.reads[&site("h", "b")], t.writes[&site("h", "a")]);
        // `g.a` is read back through `g.b`; `h.a` never is.
        assert!(t.observed_writes.contains(&site("g", "a")));
        assert!(!t.observed_writes.contains(&site("h", "a")));
        // `h.b` runs before any write to `h`; `g.b` after one to `g`.
        assert!(t.uninit_reads.contains(&site("h", "b")));
        assert!(!t.uninit_reads.contains(&site("g", "b")));
    }
}
