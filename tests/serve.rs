//! PR 6 integration tests for the persistent analysis service.
//!
//! Covers the three pillars of the serving layer:
//!
//! 1. **Restart-replay** (the tentpole guarantee): analyzing an edit
//!    chain with periodic service restarts against a disk store yields
//!    byte-identical fingerprints to an uninterrupted run — across 100
//!    edit steps.
//! 2. **Store robustness** (satellite 3): corrupt, truncated, and
//!    version-mismatched cache files are rejected with a clean
//!    cold-start fallback; answers never go stale and nothing panics.
//! 3. **Concurrency** (satellite 4): N interleaved socket clients get
//!    exactly the answers a serial in-process caller gets.

use proto::json::Value;
use proto::{fp_hex, parse_bytes_hex, parse_fp_hex};
use proto::{JobSpec, QueryAnswer, QueryKind, Request, Response};
use serve::store::{LoadOutcome, STORE_VERSION};
use serve::{Service, ServiceOptions, Store};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruf95-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn service(dir: &Path) -> Service {
    Service::new(ServiceOptions {
        store_dir: Some(dir.to_path_buf()),
        mem_budget: 0,
        threads: 0,
    })
    .expect("open service")
}

fn memory_service() -> Service {
    Service::new(ServiceOptions::default()).expect("open service")
}

fn suite_jobs(take: usize) -> Vec<JobSpec> {
    suite::benchmarks()
        .iter()
        .take(take)
        .map(|b| JobSpec {
            name: b.name.to_string(),
            source: b.source.to_string(),
            input: b.input.to_vec(),
        })
        .collect()
}

fn analyze(svc: &mut Service, project: &str, jobs: &[JobSpec]) -> Response {
    svc.handle(&Request::Analyze {
        project: project.to_string(),
        jobs: jobs.to_vec(),
        fresh: false,
        want_report: false,
    })
}

/// Extracts every per-bench, per-solver fingerprint from an Analyzed
/// response as one flat, ordered, comparable vector.
fn fingerprints_of(resp: &Response) -> Vec<(String, String, Option<String>)> {
    match resp {
        Response::Analyzed { benches, .. } => benches
            .iter()
            .flat_map(|b| {
                b.solvers
                    .iter()
                    .map(move |s| (b.name.clone(), s.analysis.clone(), s.fp.clone()))
            })
            .collect(),
        other => panic!("expected Analyzed, got {other:?}"),
    }
}

fn report_fp_of(resp: &Response) -> String {
    match resp {
        Response::Analyzed { report_fp, .. } => report_fp.clone(),
        other => panic!("expected Analyzed, got {other:?}"),
    }
}

fn check_fp_of(resp: &Response) -> String {
    match resp {
        Response::Checked { check_fp, .. } => check_fp.clone(),
        other => panic!("expected Checked, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Tentpole: restart-replay equivalence across a 100-step edit chain.
// ---------------------------------------------------------------------

/// The daemon-restart replay harness. Two runs over the same 100-step
/// edit chain:
///
/// - run A: one service, never restarted, no disk store;
/// - run B: a disk-backed service dropped and recreated every 10 steps
///   (the process-level equivalent of killing and restarting the
///   daemon), forcing a store restore and a checked cold solve.
///
/// Every step must produce byte-identical solver fingerprints and
/// report fingerprints in both runs.
#[test]
fn restart_replay_100_step_edit_chain() {
    let bench = &suite::benchmarks()[0];
    let chain = suite::edit::edit_chain(bench.source, 0x9e37_79b9, 100);
    assert!(
        chain.len() >= 100,
        "edit chain too short: {} steps",
        chain.len()
    );

    let dir = temp_dir("restart-replay");
    let mut uninterrupted = memory_service();
    let mut restarted = Some(service(&dir));

    for (i, step) in chain.iter().enumerate() {
        // Kill and resurrect the disk-backed service every 10 steps.
        if i > 0 && i % 10 == 0 {
            drop(restarted.take());
            restarted = Some(service(&dir));
        }
        let jobs = vec![JobSpec {
            name: bench.name.to_string(),
            source: step.source.clone(),
            input: bench.input.to_vec(),
        }];
        let a = analyze(&mut uninterrupted, "chain", &jobs);
        let b = analyze(restarted.as_mut().unwrap(), "chain", &jobs);
        assert_eq!(
            fingerprints_of(&a),
            fingerprints_of(&b),
            "solver fingerprints diverged at step {i} ({})",
            step.edit.description
        );
        assert_eq!(
            report_fp_of(&a),
            report_fp_of(&b),
            "report fingerprint diverged at step {i} ({})",
            step.edit.description
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restoring from disk with unchanged source must replay to the exact
/// fingerprints of the original run, and flag itself as restored.
#[test]
fn restore_after_restart_matches_original() {
    let dir = temp_dir("restore-match");
    let jobs = suite_jobs(3);

    let mut svc = service(&dir);
    let first = analyze(&mut svc, "proj", &jobs);
    drop(svc);

    let mut svc = service(&dir);
    let second = analyze(&mut svc, "proj", &jobs);
    assert_eq!(fingerprints_of(&first), fingerprints_of(&second));
    assert_eq!(report_fp_of(&first), report_fp_of(&second));
    match &second {
        Response::Analyzed { serve, .. } => {
            assert!(serve.restored, "second service should restore from disk");
        }
        other => panic!("expected Analyzed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Check fingerprints also survive a restart: same diagnostics, same
/// bytes.
#[test]
fn check_fingerprint_survives_restart() {
    let dir = temp_dir("check-restart");
    let jobs = suite_jobs(2);
    let req = Request::Check {
        project: "proj".into(),
        jobs: jobs.clone(),
        analysis: "ci".into(),
        want_report: false,
    };

    let mut svc = service(&dir);
    let first = check_fp_of(&svc.handle(&req));
    drop(svc);

    let mut svc = service(&dir);
    let second = check_fp_of(&svc.handle(&req));
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Queries answered from a restored session (no analyze request in
/// this process lifetime) match queries against a live session.
#[test]
fn query_after_restart_matches_live() {
    let dir = temp_dir("query-restart");
    let jobs = suite_jobs(1);
    let bench = jobs[0].name.clone();
    let query = |svc: &mut Service| {
        svc.handle(&Request::Query {
            project: "proj".into(),
            bench: bench.clone(),
            analysis: "ci".into(),
            query: QueryKind::ReferentsAt { site: 0 },
            job: None,
        })
    };

    let mut svc = service(&dir);
    analyze(&mut svc, "proj", &jobs);
    let live = query(&mut svc);
    drop(svc);

    // The restored service sees only the disk store; the query must
    // demand-analyze from the stored source and then agree.
    let mut svc = service(&dir);
    let restored = query(&mut svc);
    match (&live, &restored) {
        (Response::QueryResult { answer: a, .. }, Response::QueryResult { answer: b, .. }) => {
            assert_eq!(a, b)
        }
        other => panic!("expected two QueryResults, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Satellite 3: disk-store robustness.
// ---------------------------------------------------------------------

/// Writes a valid project file, then clobbers it in `mutate`, and
/// asserts that (a) the store rejects it without panicking and (b) a
/// service over the damaged store cold-starts to the same fingerprints
/// as a pristine service.
fn assert_cold_start_fallback(tag: &str, mutate: impl FnOnce(&Path)) {
    let dir = temp_dir(tag);
    let jobs = suite_jobs(2);
    let mut svc = service(&dir);
    let clean = analyze(&mut svc, "proj", &jobs);
    drop(svc);

    let file = Store::open(&dir).expect("open store").path_of("proj");
    assert!(file.exists(), "expected a persisted project file");
    mutate(&file);

    let store = Store::open(&dir).expect("open store");
    match store.load("proj") {
        LoadOutcome::Loaded(_) => panic!("{tag}: damaged store file was accepted"),
        LoadOutcome::Missing | LoadOutcome::Rejected { .. } => {}
    }

    let mut svc = service(&dir);
    let fallback = analyze(&mut svc, "proj", &jobs);
    assert_eq!(
        fingerprints_of(&clean),
        fingerprints_of(&fallback),
        "{tag}: cold-start answers diverged from the clean run"
    );
    match &fallback {
        Response::Analyzed { serve, .. } => {
            assert!(
                !serve.restored,
                "{tag}: damaged store must not seed a session"
            );
        }
        other => panic!("expected Analyzed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_store_file_cold_starts() {
    assert_cold_start_fallback("truncate", |file| {
        let text = std::fs::read_to_string(file).unwrap();
        std::fs::write(file, &text[..text.len() / 2]).unwrap();
    });
}

#[test]
fn corrupted_store_payload_cold_starts() {
    assert_cold_start_fallback("corrupt", |file| {
        let mut bytes = std::fs::read(file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(file, bytes).unwrap();
    });
}

/// Rewrites the version in a store file's header, which must be the
/// current [`STORE_VERSION`].
fn set_store_version(file: &Path, version: u32) {
    let text = std::fs::read_to_string(file).unwrap();
    let current = format!("ruf95-store v{STORE_VERSION} ");
    assert!(
        text.starts_with(&current),
        "unexpected header in {text:.40}"
    );
    let other = format!("ruf95-store v{version} ");
    std::fs::write(file, text.replacen(&current, &other, 1)).unwrap();
}

#[test]
fn version_mismatched_store_file_cold_starts() {
    assert_cold_start_fallback("version", |file| set_store_version(file, 9));
}

/// A pre-unification `v1` store (CI-only summary schema) must be
/// rejected wholesale and cold-start, not half-decoded.
#[test]
fn v1_store_file_cold_starts() {
    assert_cold_start_fallback("v1", |file| set_store_version(file, 1));
}

/// A `v2` store, written by the format that persisted every solver's
/// summaries, must be rejected wholesale and cold-start. The fixture is
/// a real `v2` file; the job analyzed here is the one it records.
#[test]
fn v2_store_file_cold_starts() {
    const V2: &str = include_str!("fixtures/store_v2.json");
    let doc = Value::parse(V2.lines().nth(1).expect("payload line")).expect("payload parses");
    let b = &doc.get("benches").and_then(Value::as_arr).expect("benches")[0];
    assert!(
        b.get("summaries").is_some(),
        "the fixture carries summaries"
    );
    let field = |key: &str| b.get(key).and_then(Value::as_str).expect(key).to_string();
    let jobs = vec![JobSpec {
        name: field("name"),
        source: field("source"),
        input: parse_bytes_hex(&field("input")).expect("input hex"),
    }];

    let dir = temp_dir("v2");
    let store = Store::open(&dir).expect("open store");
    std::fs::write(store.path_of("proj"), V2).unwrap();
    match store.load("proj") {
        LoadOutcome::Rejected(reason) => assert!(reason.contains("version mismatch"), "{reason}"),
        other => panic!("a v2 file must be rejected, got {other:?}"),
    }
    let resp = analyze(&mut service(&dir), "proj", &jobs);
    match &resp {
        Response::Analyzed { serve, .. } => assert!(!serve.restored, "{serve:?}"),
        other => panic!("expected Analyzed, got {other:?}"),
    }
    let cold = analyze(&mut memory_service(), "proj", &jobs);
    assert_eq!(fingerprints_of(&resp), fingerprints_of(&cold));
    // The first save replaced the rejected file.
    assert!(matches!(store.load("proj"), LoadOutcome::Loaded(_)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_store_file_cold_starts() {
    assert_cold_start_fallback("garbage", |file| {
        std::fs::write(file, "not a store file at all\n").unwrap();
    });
}

/// A stale store must never leak into answers for changed source: the
/// service solves the new source, whatever the store recorded.
#[test]
fn stale_store_cannot_leak_into_answers() {
    let dir = temp_dir("stale");
    let jobs_v1 = vec![JobSpec {
        name: "prog".into(),
        source: "int main() { int x; int *p; p = &x; *p = 1; return *p; }".into(),
        input: Vec::new(),
    }];
    let jobs_v2 = vec![JobSpec {
        name: "prog".into(),
        source: "int main() { int x; int y; int *p; p = &y; *p = 2; return *p; }".into(),
        input: Vec::new(),
    }];
    // Persist v1, then send v2 through a fresh service over the same
    // store: the stored v1 record must not leak into v2's answers.
    let mut svc = service(&dir);
    analyze(&mut svc, "proj", &jobs_v1);
    drop(svc);
    let mut stale = service(&dir);
    let stale_resp = analyze(&mut stale, "proj", &jobs_v2);
    let mut clean = memory_service();
    let clean_resp = analyze(&mut clean, "proj", &jobs_v2);
    assert_eq!(fingerprints_of(&stale_resp), fingerprints_of(&clean_resp));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Satellite 4: concurrent clients vs serial in-process.
// ---------------------------------------------------------------------

/// The per-client request script: analyze a project, query two sites,
/// check — returning the comparable parts of every response.
fn client_script(project: &str) -> Vec<Request> {
    let jobs = suite_jobs(2);
    let bench = jobs[0].name.clone();
    vec![
        Request::Analyze {
            project: project.to_string(),
            jobs: jobs.clone(),
            fresh: false,
            want_report: false,
        },
        Request::Query {
            project: project.to_string(),
            bench: bench.clone(),
            analysis: "ci".into(),
            query: QueryKind::MayAlias { a: 0, b: 1 },
            job: None,
        },
        Request::Query {
            project: project.to_string(),
            bench,
            analysis: "steensgaard".into(),
            query: QueryKind::ReferentsAt { site: 0 },
            job: None,
        },
        Request::Check {
            project: project.to_string(),
            jobs,
            analysis: "ci".into(),
            want_report: false,
        },
    ]
}

/// Strips the non-deterministic parts (latencies, replay counters) so
/// concurrent and serial responses compare equal.
fn comparable(resp: &Response) -> String {
    match resp {
        Response::Analyzed {
            project,
            benches,
            report_fp,
            ..
        } => format!("analyzed {project} {benches:?} {report_fp}"),
        Response::Checked {
            project,
            benches,
            check_fp,
            monotone_violation,
            refuted,
            ..
        } => {
            let solvers: Vec<_> = benches.iter().map(|b| (&b.name, &b.solvers)).collect();
            format!("checked {project} {solvers:?} {check_fp} {monotone_violation:?} {refuted:?}")
        }
        Response::QueryResult {
            bench,
            analysis,
            answer,
            ..
        } => format!("query {bench} {analysis} {answer:?}"),
        other => format!("{other:?}"),
    }
}

#[test]
fn concurrent_clients_match_serial_in_process() {
    const CLIENTS: usize = 4;
    let svc = memory_service();
    let handle = serve::daemon::spawn(svc, "127.0.0.1:0").expect("bind daemon");
    let addr = handle.addr();

    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let project = format!("proj{t}");
                let mut client = serve::Client::connect(addr).expect("connect");
                client_script(&project)
                    .iter()
                    .map(|req| comparable(&client.request(req).expect("request")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let concurrent: Vec<Vec<String>> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    serve::request(addr, &Request::Shutdown).expect("shutdown");
    handle.join();

    // Serial oracle: one fresh in-process service, same scripts.
    for (t, got) in concurrent.iter().enumerate() {
        let mut oracle = memory_service();
        let want: Vec<String> = client_script(&format!("proj{t}"))
            .iter()
            .map(|req| comparable(&oracle.handle(req)))
            .collect();
        assert_eq!(&want, got, "client {t} diverged from serial in-process run");
    }
}

/// Two projects sharing one service must not observe each other's
/// state: evicting one leaves the other's session (and answers) alone.
#[test]
fn project_sessions_are_isolated() {
    let mut svc = memory_service();
    let jobs = suite_jobs(1);
    let a1 = analyze(&mut svc, "alpha", &jobs);
    analyze(&mut svc, "beta", &jobs);
    match svc.handle(&Request::Evict {
        project: Some("beta".into()),
    }) {
        Response::Ok => {}
        other => panic!("expected Ok, got {other:?}"),
    }
    let a2 = analyze(&mut svc, "alpha", &jobs);
    assert_eq!(fingerprints_of(&a1), fingerprints_of(&a2));
    match svc.handle(&Request::Stats) {
        Response::Stats { projects, .. } => {
            let names: Vec<_> = projects.iter().map(|p| p.name.as_str()).collect();
            assert!(names.contains(&"alpha"));
            assert!(!names.contains(&"beta"), "beta should be evicted");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// Session eviction under a tiny memory budget must keep answers
/// correct (evicted projects transparently restore from disk).
#[test]
fn lru_eviction_under_budget_preserves_answers() {
    let dir = temp_dir("lru");
    let mut svc = Service::new(ServiceOptions {
        store_dir: Some(dir.to_path_buf()),
        mem_budget: 1, // absurdly small: every request evicts the rest
        threads: 0,
    })
    .expect("open service");
    let jobs = suite_jobs(1);
    let first = analyze(&mut svc, "alpha", &jobs);
    analyze(&mut svc, "beta", &jobs);
    analyze(&mut svc, "gamma", &jobs);
    let again = analyze(&mut svc, "alpha", &jobs);
    assert_eq!(fingerprints_of(&first), fingerprints_of(&again));
    match svc.handle(&Request::Stats) {
        Response::Stats { evictions, .. } => {
            assert!(evictions > 0, "budget of 1 byte must force evictions");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Protocol-level sanity over the socket.
// ---------------------------------------------------------------------

#[test]
fn malformed_frame_gets_error_not_disconnect() {
    use std::io::{BufRead, BufReader, Write};
    let svc = memory_service();
    let handle = serve::daemon::spawn(svc, "127.0.0.1:0").expect("bind daemon");
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    writer.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("error"),
        "expected an error frame, got {line:?}"
    );

    // The connection survives: a well-formed request still works.
    let mut client_line = proto::Request::Stats.to_value().render();
    client_line.push('\n');
    writer.write_all(client_line.as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("stats"),
        "expected a stats frame, got {line:?}"
    );

    drop(writer);
    serve::request(handle.addr(), &Request::Shutdown).expect("shutdown");
    handle.join();
}

#[test]
fn unknown_bench_and_bad_site_are_clean_errors() {
    let mut svc = memory_service();
    match svc.handle(&Request::Query {
        project: "proj".into(),
        bench: "nope".into(),
        analysis: "ci".into(),
        query: QueryKind::ReferentsAt { site: 0 },
        job: None,
    }) {
        Response::Error { message } => assert!(message.contains("analyze")),
        other => panic!("expected Error, got {other:?}"),
    }
    let jobs = suite_jobs(1);
    analyze(&mut svc, "proj", &jobs);
    match svc.handle(&Request::Query {
        project: "proj".into(),
        bench: jobs[0].name.clone(),
        analysis: "ci".into(),
        query: QueryKind::ReferentsAt { site: 100_000 },
        job: None,
    }) {
        Response::Error { message } => assert!(message.contains("out of range")),
        other => panic!("expected Error, got {other:?}"),
    }
    match svc.handle(&Request::Analyze {
        project: "../escape".into(),
        jobs,
        fresh: false,
        want_report: false,
    }) {
        Response::Error { message } => assert!(message.contains("invalid project")),
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn may_alias_is_symmetric_and_witnessed() {
    let mut svc = memory_service();
    let jobs = vec![JobSpec {
        name: "alias".into(),
        source: "int main() { int x; int *p; int *q; p = &x; q = &x; *p = 1; return *q; }".into(),
        input: Vec::new(),
    }];
    analyze(&mut svc, "proj", &jobs);
    let ask = |svc: &mut Service, a: usize, b: usize| -> (bool, Vec<String>) {
        match svc.handle(&Request::Query {
            project: "proj".into(),
            bench: "alias".into(),
            analysis: "ci".into(),
            query: QueryKind::MayAlias { a, b },
            job: None,
        }) {
            Response::QueryResult {
                answer:
                    QueryAnswer::MayAlias {
                        may_alias,
                        witnesses,
                        ..
                    },
                ..
            } => (may_alias, witnesses),
            other => panic!("expected MayAlias answer, got {other:?}"),
        }
    };
    let (ab, wit_ab) = ask(&mut svc, 0, 1);
    let (ba, wit_ba) = ask(&mut svc, 1, 0);
    assert!(ab, "*p and *q both point at x: must alias");
    assert_eq!(ab, ba, "may-alias must be symmetric");
    assert_eq!(wit_ab, wit_ba);
    assert!(
        wit_ab.iter().any(|w| w.contains('x')),
        "witness should name x, got {wit_ab:?}"
    );
}

// ---------------------------------------------------------------------
// One record per benchmark: check rows, restores and persistence.
// ---------------------------------------------------------------------

/// A program whose fault depends on its input: `x` frees `p` before
/// the store through it, any other byte does not.
const INPUT_UAF: &str = "int main(void) { int *p; int c; p = malloc(4); c = getchar(); \
                         if (c == 120) { free(p); } *p = 1; return 0; }";

fn check_req(project: &str, jobs: &[JobSpec]) -> Request {
    Request::Check {
        project: project.to_string(),
        jobs: jobs.to_vec(),
        analysis: "ci".into(),
        want_report: false,
    }
}

fn input_uaf(input: &[u8]) -> Vec<JobSpec> {
    vec![JobSpec {
        name: "uaf".into(),
        source: INPUT_UAF.into(),
        input: input.to_vec(),
    }]
}

fn solver_counts(resp: &Response) -> Vec<(String, u64, u64)> {
    match resp {
        Response::Checked { benches, .. } => benches
            .iter()
            .flat_map(|b| &b.solvers)
            .map(|s| (s.analysis.clone(), s.true_positives, s.false_positives))
            .collect(),
        other => panic!("expected Checked, got {other:?}"),
    }
}

/// The oracle runs the program on its input, so a check after an
/// input-only change must label afresh: the session's answer equals a
/// cold service's.
#[test]
fn check_after_an_input_only_change_matches_a_cold_service() {
    let mut svc = memory_service();
    svc.handle(&check_req("proj", &input_uaf(b"x")));
    let warm = svc.handle(&check_req("proj", &input_uaf(b"y")));
    let cold = memory_service().handle(&check_req("proj", &input_uaf(b"y")));
    assert_eq!(check_fp_of(&warm), check_fp_of(&cold));
    assert_eq!(solver_counts(&warm), solver_counts(&cold));
}

/// A project whose only request was a check is persisted: a restarted
/// service restores it, solves it cold, and reproduces the check.
#[test]
fn check_only_project_is_persisted() {
    let dir = temp_dir("check-only");
    let jobs = suite_jobs(1);
    let mut svc = service(&dir);
    let first = check_fp_of(&svc.handle(&check_req("proj", &jobs)));
    drop(svc);

    let mut svc = service(&dir);
    match analyze(&mut svc, "proj", &jobs) {
        Response::Analyzed { serve, .. } => {
            assert!(serve.restored, "the checked project must restore");
            assert_eq!(serve.benches_fresh, 1, "{serve:?}");
            assert_eq!(serve.restore_mismatches, 0, "{serve:?}");
        }
        other => panic!("expected Analyzed, got {other:?}"),
    }
    let second = check_fp_of(&svc.handle(&check_req("proj", &jobs)));
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each benchmark of a project's store file: its name, its source,
/// and its whole record, rendered.
fn stored_benches(dir: &Path) -> Vec<(String, String, String)> {
    let file = Store::open(dir).expect("open store").path_of("proj");
    let text = std::fs::read_to_string(file).expect("read store file");
    let payload = text.lines().nth(1).expect("payload line");
    let doc = Value::parse(payload).expect("payload parses");
    let field = |b: &Value, key: &str| b.get(key).and_then(Value::as_str).unwrap().to_string();
    doc.get("benches")
        .and_then(Value::as_arr)
        .expect("benches")
        .iter()
        .map(|b| (field(b, "name"), field(b, "source"), b.render()))
        .collect()
}

/// A restart re-solves only what a request touches: after an edit of
/// one benchmark, the other's stored record is re-emitted byte for
/// byte.
#[test]
fn untouched_restored_bench_is_re_emitted_verbatim() {
    let dir = temp_dir("lazy-restore");
    let jobs = suite_jobs(2);
    let mut svc = service(&dir);
    analyze(&mut svc, "proj", &jobs);
    drop(svc);
    let before = stored_benches(&dir);

    let mut svc = service(&dir);
    let mut edited = jobs[0].clone();
    edited.source = suite::edit::edit_chain(&edited.source, 7, 1)[0]
        .source
        .clone();
    analyze(&mut svc, "proj", &[edited.clone()]);
    let after = stored_benches(&dir);
    let find = |benches: &[(String, String, String)], name: &str| {
        benches
            .iter()
            .find(|b| b.0 == name)
            .unwrap_or_else(|| panic!("{name} missing from the store file"))
            .clone()
    };
    assert_eq!(after.len(), 2);
    assert_eq!(
        find(&after, &edited.name).1,
        edited.source,
        "edit not saved"
    );
    let other = &jobs[1].name;
    assert_eq!(
        find(&before, other).2,
        find(&after, other).2,
        "{other}'s record was rewritten"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unchanged re-analysis and re-check after a restart leave the
/// store file alone: the restored records are the "before" of the
/// dirty check, and the cold solves reproduce them.
#[test]
fn restart_then_unchanged_analyze_writes_nothing() {
    let dir = temp_dir("restart-no-write");
    let jobs = suite_jobs(2);
    let mut svc = service(&dir);
    analyze(&mut svc, "proj", &jobs);
    svc.handle(&check_req("proj", &jobs));
    drop(svc);
    let file = Store::open(&dir).expect("open store").path_of("proj");
    let stamp = |file: &Path| {
        let bytes = std::fs::read(file).expect("read store file");
        let mtime = std::fs::metadata(file).and_then(|m| m.modified());
        (bytes, mtime.expect("mtime"))
    };
    let before = stamp(&file);
    // A rewrite now would carry a later mtime even on a coarse clock.
    std::thread::sleep(std::time::Duration::from_millis(20));

    let mut svc = service(&dir);
    match analyze(&mut svc, "proj", &jobs) {
        Response::Analyzed { serve, .. } => assert!(serve.restored, "{serve:?}"),
        other => panic!("expected Analyzed, got {other:?}"),
    }
    svc.handle(&check_req("proj", &jobs));
    assert!(stamp(&file) == before, "the store file was rewritten");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restored benchmark whose cold solve does not reproduce a stored
/// solution fingerprint is a restore mismatch: the fresh answer wins,
/// the service counts it, and the file is rewritten with the fresh
/// fingerprint.
#[test]
fn restore_mismatch_is_reported_and_repaired() {
    let dir = temp_dir("restore-mismatch");
    let jobs = suite_jobs(1);
    let cold = analyze(&mut memory_service(), "proj", &jobs);
    analyze(&mut service(&dir), "proj", &jobs);

    // Flip one stored solution fingerprint, keeping the checksum valid.
    let (_, analysis, fp) = fingerprints_of(&cold)
        .into_iter()
        .find(|(_, _, fp)| fp.is_some())
        .expect("a solved solver");
    let good = fp.expect("found above");
    let bad = fp_hex(!parse_fp_hex(&good).expect("fp hex"));
    let file = Store::open(&dir).expect("open store").path_of("proj");
    let text = std::fs::read_to_string(&file).expect("read store file");
    let record = |fp: &str| format!("{{\"analysis\":\"{analysis}\",\"fp\":\"{fp}\"}}");
    let payload = text.lines().nth(1).expect("payload line");
    assert!(
        payload.contains(&record(&good)),
        "{analysis} record not found"
    );
    let payload = Value::parse(&payload.replacen(&record(&good), &record(&bad), 1)).unwrap();
    engine::envelope::save(&file, "ruf95-store", STORE_VERSION, &payload).expect("write store");

    let resp = analyze(&mut service(&dir), "proj", &jobs);
    assert_eq!(fingerprints_of(&resp), fingerprints_of(&cold));
    match &resp {
        Response::Analyzed { serve, .. } => {
            assert!(serve.restored, "{serve:?}");
            assert_eq!(serve.restore_mismatches, 1, "{serve:?}");
        }
        other => panic!("expected Analyzed, got {other:?}"),
    }
    let LoadOutcome::Loaded(p) = Store::open(&dir).expect("open store").load("proj") else {
        panic!("the repaired file must load");
    };
    let stored = p.benches[0]
        .solution_fps
        .iter()
        .find(|(a, _)| *a == analysis)
        .and_then(|(_, fp)| *fp);
    assert_eq!(
        stored.map(fp_hex),
        Some(good),
        "the file keeps the bad fingerprint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
