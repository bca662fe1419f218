//! Integration tests for the differential fuzzing subsystem, driven
//! through `engine::campaign::run`: the generator's printer round-trip,
//! a clean multi-threaded campaign, the planted-bug minimization bound,
//! and the committed regression fixture a past minimization produced.

use alias::{Fault, SolverSpec};
use engine::campaign::{self, CampaignOutcome, CampaignReport};
use engine::{CampaignConfig, FuzzConfig};
use std::fs;
use suite::generator::{generate, GenConfig};
use vdg::build::{lower, BuildOptions};

/// Runs seeds `start..start + seeds` as one campaign chunk on `threads`
/// workers, in a fresh per-test state directory that is removed again.
/// The campaign isolates a panicking seed as `crashed`; no test here
/// expects one, so any crash fails the calling test.
fn campaign(
    name: &str,
    start: u64,
    seeds: u64,
    threads: usize,
    fuzz: FuzzConfig,
) -> CampaignOutcome {
    let dir = std::env::temp_dir().join(format!("ruf95-fuzz-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cfg = CampaignConfig {
        seeds,
        start_seed: start,
        chunk: seeds,
        threads,
        dir: dir.clone(),
        fuzz,
        ..CampaignConfig::default()
    };
    let outcome = campaign::run(&cfg).expect("campaign runs");
    assert!(outcome.complete, "one chunk completes");
    let _ = fs::remove_dir_all(&dir);
    let r = report(&outcome);
    assert_eq!(
        r.crashed,
        0,
        "seeds panicked: {:?}",
        r.quarantine
            .iter()
            .filter(|q| q.outcome == "crashed")
            .map(|q| (q.seed, &q.detail))
            .collect::<Vec<_>>()
    );
    outcome
}

/// Asserts a healthy run quarantined nothing: no seed crashed or ran
/// over budget.
fn assert_no_quarantine(r: &CampaignReport) {
    assert!(
        r.quarantine.is_empty(),
        "healthy run quarantined seeds: {:?}",
        r.quarantine
            .iter()
            .map(|q| (q.seed, &q.outcome, &q.detail))
            .collect::<Vec<_>>()
    );
}

fn report(outcome: &CampaignOutcome) -> &CampaignReport {
    outcome.report.as_ref().expect("complete campaigns report")
}

/// Generated programs — with and without the recursion / indirect-call
/// features the fuzzer leans on — survive the pretty-printer
/// round-trip and compile from their printed form. This is the property
/// the shrinker depends on: every intermediate candidate it renders is
/// a standalone repro.
#[test]
fn generated_programs_round_trip_and_recompile() {
    let configs = [
        GenConfig::default(),
        GenConfig {
            recursion: false,
            indirect_calls: false,
            ..GenConfig::default()
        },
        GenConfig {
            funcs: 6,
            stmts_per_func: 14,
            ..GenConfig::default()
        },
    ];
    for seed in 0..24u64 {
        for cfg in &configs {
            let src = generate(seed, cfg);
            let p1 = cfront::parser::parse(cfront::lexer::lex(&src).unwrap()).unwrap();
            let once = cfront::pretty::print_program(&p1);
            let p2 = cfront::parser::parse(cfront::lexer::lex(&once).unwrap()).unwrap();
            let twice = cfront::pretty::print_program(&p2);
            assert_eq!(once, twice, "seed {seed}: printer not a parse fixpoint");
            cfront::compile(&once)
                .unwrap_or_else(|e| panic!("seed {seed}: printed form rejected: {e}"));
        }
    }
}

/// A multi-threaded campaign over healthy solvers reports no
/// violations: all five analyses are sound against the interpreter,
/// ordered on the checked lattice edges, and delta/naive-convergent on
/// every generated program.
#[test]
fn campaign_over_healthy_solvers_is_clean() {
    let outcome = campaign("healthy", 0, 32, 0, FuzzConfig::default());
    let r = report(&outcome);
    assert_eq!(r.seeds, 32);
    assert_no_quarantine(r);
    assert_eq!(
        r.violations_total,
        0,
        "differential violations on healthy solvers: {:#?}",
        r.cases
            .iter()
            .map(|c| (&c.seeds, &c.kind, &c.solver, &c.detail))
            .collect::<Vec<_>>()
    );
}

/// Seed 192 under the planted over-strong-update fault: a soundness
/// violation whose minimized repro the campaign reports. `name` keeps
/// concurrently running tests in separate state directories.
fn planted_seed_192(name: &str) -> (FuzzConfig, engine::CampaignCase) {
    let fuzz = FuzzConfig {
        shrink: true,
        fault: Fault::OverStrongUpdates,
        ..FuzzConfig::default()
    };
    let outcome = campaign(name, 192, 1, 1, fuzz.clone());
    let case = report(&outcome)
        .cases
        .iter()
        .find(|c| c.kind == "soundness")
        .expect("planted fault should surface as a soundness violation")
        .clone();
    (fuzz, case)
}

/// The planted over-strong-update fault is caught as a soundness
/// violation and the delta-debugger shrinks the generated ~100-line
/// program to a repro of at most 25 lines.
#[test]
fn planted_fault_is_minimized_to_a_small_repro() {
    let (_, case) = planted_seed_192("minimized");
    let m = case
        .minimized
        .as_ref()
        .expect("soundness violations get shrink slots first");
    assert!(
        m.lines().count() <= 25,
        "minimizer stalled at {} lines:\n{m}",
        m.lines().count()
    );
    // The minimized repro must stand alone: compile, run, and still
    // expose the faulted CI to the oracle.
    let prog = cfront::compile(m).expect("minimized repro compiles");
    let graph = lower(&prog, &BuildOptions::default()).expect("lowers");
    let out = interp::run(&prog, &interp::Config::default()).expect("runs");
    let bad = SolverSpec::ci()
        .fault(Fault::OverStrongUpdates)
        .solve_ci(&graph);
    assert!(
        !interp::check_solution_dyn(&prog, &graph, &bad, &out.trace).is_empty(),
        "minimized repro no longer exposes the planted fault"
    );
}

/// Budget exhaustion is a *typed, deterministic* outcome, not a silent
/// degradation: a step-starved solver or interpreter marks the seed
/// over-budget, the count lands in the report (and its JSON), and a
/// healthy run reports zero. Wall-clock overruns stay a separate,
/// advisory counter.
#[test]
fn step_budget_exhaustion_is_a_typed_outcome() {
    let starved = |name: &str, fuzz: FuzzConfig| campaign(name, 0, 3, 1, fuzz);
    // Solver step starvation: CS and k=1 exhaust on every seed.
    let outcome = starved(
        "solver-steps",
        FuzzConfig {
            shrink: false,
            max_steps: 1,
            ..FuzzConfig::default()
        },
    );
    let r = report(&outcome);
    assert_eq!(
        r.over_budget, 3,
        "every step-starved seed must be typed over-budget"
    );
    assert!(r.to_value().render_pretty().contains("\"over_budget\": 3"));
    assert!(outcome.summary().contains("3 over budget"));

    // Interpreter step starvation is the same typed outcome.
    let outcome = starved(
        "interp-steps",
        FuzzConfig {
            shrink: false,
            interp_steps: 1,
            ..FuzzConfig::default()
        },
    );
    assert_eq!(
        report(&outcome).over_budget,
        3,
        "interp starvation must be typed too"
    );

    // A healthy run types every seed as completed.
    let outcome = starved(
        "healthy-steps",
        FuzzConfig {
            shrink: false,
            ..FuzzConfig::default()
        },
    );
    let r = report(&outcome);
    assert_eq!(r.over_budget, 0);
    assert_no_quarantine(r);
}

/// The shrinker's emitted repro is a standalone violating program *and*
/// a fixpoint of the shrinker itself — re-running the exact shrink
/// predicate on the minimized text finds the same violation, and
/// re-shrinking changes nothing. Campaign dedup fingerprints key off
/// minimized text, so both properties are load-bearing.
#[test]
fn minimized_repro_still_violates_standalone_and_is_a_shrink_fixpoint() {
    let (fuzz, case) = planted_seed_192("fixpoint");
    let m = case
        .minimized
        .as_ref()
        .expect("the top-ranked violation gets a shrink slot");
    let seed = case.seeds[0];
    let labels = engine::fuzz::check_source_for_test(m, &fuzz, seed);
    assert!(
        labels
            .iter()
            .any(|(k, s)| *k == case.kind && *s == case.solver),
        "minimized repro must reproduce ({}, {}) standalone; got {labels:?}",
        case.kind,
        case.solver
    );
    let pred = |s: &str| {
        engine::fuzz::check_source_for_test(s, &fuzz, seed)
            .iter()
            .any(|(k, sv)| *k == case.kind && *sv == case.solver)
    };
    let again = engine::shrink::shrink(m, &pred);
    assert_eq!(&again, m, "emitted repros must be shrink fixpoints");
}

/// The committed fixture — a past run's auto-minimized counterexample —
/// keeps regressing the over-strong-update fault: the healthy CI solver
/// is sound on it, the faulted one is not. The shape is minimal: a
/// list-step (`s = s->next`) makes the store's location set
/// multi-referent, the faulted transfer kills every referent's
/// bindings, and a later read observes the wrongly-killed one.
#[test]
fn committed_fixture_regresses_the_fault() {
    let src = include_str!("fixtures/weakened_strong_update.c");
    assert!(
        src.lines().count() <= 25,
        "fixture grew past the minimization bound"
    );
    let prog = cfront::compile(src).expect("fixture compiles");
    let graph = lower(&prog, &BuildOptions::default()).expect("fixture lowers");
    let out = interp::run(&prog, &interp::Config::default()).expect("fixture runs");

    let good = SolverSpec::ci().solve_ci(&graph);
    let v = interp::check_solution_dyn(&prog, &graph, &good, &out.trace);
    assert!(
        v.is_empty(),
        "healthy CI must be sound on the fixture: {v:#?}"
    );

    let bad = SolverSpec::ci()
        .fault(Fault::OverStrongUpdates)
        .solve_ci(&graph);
    let v = interp::check_solution_dyn(&prog, &graph, &bad, &out.trace);
    assert!(
        !v.is_empty(),
        "the over-strong-update fault must be observable on the fixture"
    );
}
