//! A parallel engine run must produce the same report as a forced
//! single-threaded run — byte-identical modulo wall-clock timings and
//! the recorded thread count, which `EngineReport::fingerprint()`
//! zeroes out.

use engine::{Engine, FreshReason, Job, SolveMode};

#[test]
fn parallel_suite_report_matches_single_threaded() {
    let serial = Engine::new().threads(1).run_suite().expect("serial run");
    let parallel = Engine::new().threads(4).run_suite().expect("parallel run");
    assert_eq!(serial.report.threads, 1);
    assert_eq!(parallel.report.threads, 4);
    assert_eq!(
        serial.report.fingerprint(),
        parallel.report.fingerprint(),
        "parallel schedule changed the analysis products"
    );
}

#[test]
fn repeated_runs_are_reproducible() {
    let jobs = Job::named(&["span", "part"]);
    let a = Engine::new().threads(3).run(&jobs).expect("first run");
    let b = Engine::new().threads(2).run(&jobs).expect("second run");
    assert_eq!(a.report.fingerprint(), b.report.fingerprint());
}

#[test]
fn naive_discipline_matches_delta_fingerprint() {
    // The fingerprint nulls the schedule-describing counters
    // (`dedup_hits`, `delta_batches`, `deliveries_saved`), so the
    // PR 1-style naive worklists and the delta-batched worklists must
    // render identically: same solutions, same deliveries, same unique
    // insertions.
    let jobs = Job::named(&["span", "part", "compress"]);
    let delta = Engine::new().threads(2).run(&jobs).expect("delta run");
    let naive = Engine::new()
        .specs(&alias::SolverSpec::all_naive())
        .ci_spec(alias::SolverSpec::ci().propagation(alias::Propagation::Naive))
        .threads(2)
        .run(&jobs)
        .expect("naive run");
    assert_eq!(
        delta.report.fingerprint(),
        naive.report.fingerprint(),
        "propagation discipline changed the analysis products"
    );
}

#[test]
fn plain_run_matches_a_cold_cached_step() {
    // A plain run is the cached pipeline with no cache: on an empty
    // cache both solve every benchmark from scratch, so their reports
    // agree. Only the cached step reports modes and cache counters.
    for threads in [1, 2] {
        let e = Engine::new().threads(threads);
        let plain = e.run_suite().expect("plain run");
        let mut cache = e.cache();
        let cold = e
            .analyze_incremental_with(&mut cache, &Job::suite())
            .expect("cold cached step");
        assert_eq!(
            plain.report.fingerprint(),
            cold.report.fingerprint(),
            "threads({threads}): plain run and cold cached step differ"
        );
        assert!(plain.report.incremental.is_none());
        for s in plain.benches.iter().flat_map(|b| &b.solutions) {
            assert!(s.mode.is_none(), "plain {} has a mode", s.analysis);
        }
        let stats = cold.report.incremental.as_ref().expect("cache counters");
        assert_eq!(stats.benches_fresh, 13);
        for b in &cold.benches {
            for s in &b.solutions {
                assert_eq!(
                    s.mode,
                    Some(SolveMode::Fresh {
                        why: FreshReason::NoCache
                    }),
                    "{} on {}",
                    s.analysis,
                    b.name
                );
            }
        }
    }
}
