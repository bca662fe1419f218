//! `edit-session`: an IDE-like closed loop against the analysis daemon.
//!
//! One `serve::Client` talks to a `serve::daemon::spawn`ed daemon on
//! `127.0.0.1:0` with a disk store, one request outstanding at a time.
//! Each visit opens one corpus program in a project of its own and:
//! 1. sends cold demand `Query` requests carrying the source inline,
//!    before any analyze (the demand path);
//! 2. walks a seeded `suite::edit::edit_chain`: per step one `Analyze`
//!    of the edited source, then `Query` lookups (`referents_at` and
//!    `may_alias`, under `ci` and `cs`, at seeded sites);
//! 3. sends a `Check` every few steps;
//! 4. on every few visits, shuts the daemon down mid-chain and respawns
//!    it on the same store; re-analysing the unchanged source is the
//!    restore leg;
//! 5. closes the project with an `Evict`, so the daemon holds one
//!    project at a time.
//!
//! Why: writes (edits, store write-through) sit beside reads (queries).
//! Incremental resume, fingerprinting, the store, the wire codec and
//! demand slicing do the work; solvers re-solve only dirty cones. A
//! change that speeds queries at the cost of edits shows up here, and so
//! does a slow restore.
//!
//! Every response is checked, after the timed loop, against a fresh
//! `Engine::run` of the same source.

use crate::cold::report_overhead;
use crate::corpus::{self, Kind, Program, Reference};
use crate::metrics::{self, Layers, OP_SPAN};
use crate::speed::{Probe, Timing};
use crate::trace::Recorder;
use crate::{passes, stats, Measured, Run, SetupTimes, Traced};
use alias::fingerprint::{stable_base_key, Fnv64};
use alias::solver::solution_fingerprint;
use engine::{BenchOutput, EngineRun};
use proto::json::Value;
use proto::{JobSpec, QueryAnswer, QueryKind, Request, Response, SiteInfo};
use serve::{Client, DaemonHandle, Service, ServiceOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use suite::rng::Rng;

// The request mix below is assumed, not measured from editor traffic;
// `benchmark/METRICS.md` ("Assumed mixes") gives the basis of each number.

/// Edits per visit.
const CHAIN_LEN: usize = 6;
/// Edit chains per program: each pass visits every program once per
/// chain seed `0..CHAIN_SEEDS`. A fixed pool keeps every pass the same
/// amount of work: a check on an edited program that no longer
/// terminates runs the oracle to its step budget (seconds), so a random
/// chain per visit would make the work of a run depend on the seed.
const CHAIN_SEEDS: u64 = 2;
/// Every this many visits the daemon restarts mid-chain.
const RESTART_EVERY: usize = 3;
/// A `Check` follows every this many edits, so once per full chain. The
/// oracle labelling inside a check runs the edited program, and an edit
/// that stops it terminating costs the oracle's whole step budget, so
/// checks are the session's most expensive requests.
const CHECK_EVERY: usize = CHAIN_LEN;
/// Nominal seconds of one untraced pass of visits.
const PASS_S: f64 = 12.0;
/// Lookup rounds per edit; each round asks `referents_at` and
/// `may_alias` under `ci` and under `cs`.
const QUERY_ROUNDS: usize = 2;
/// Cold demand queries per visit.
const DEMAND_QUERIES: usize = 4;
/// Visits the traced run makes (a fixed, seed-determined set).
const TRACE_VISITS: usize = 12;
const PROJECT_PREFIX: &str = "visit";
/// Seed of the one draw of the session's scaling variants.
const CORPUS_SEED: u64 = 0;

/// Request classes with their own latency figures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Demand,
    Edit,
    Query,
    Check,
    Restore,
    /// The `Evict` that closes a visit's project.
    Close,
}

/// One step of a visit.
enum Action {
    /// A request about source version `version` of the visit.
    Send {
        class: Class,
        version: usize,
        req: Request,
    },
    /// Shut the daemon down and respawn it on the same store.
    Restart,
}

/// A planned visit: the program's source versions (original first) and
/// the actions.
struct Visit {
    project: String,
    bench: String,
    chain: u64,
    input: Vec<u8>,
    versions: Vec<String>,
    actions: Vec<Action>,
}

/// Indirect-reference sites of `source` (queries pick among them).
fn site_count(source: &str) -> usize {
    cfront::compile(source)
        .ok()
        .and_then(|p| vdg::build::lower(&p, &vdg::build::BuildOptions::default()).ok())
        .map_or(0, |g| g.indirect_mem_ops().len())
}

fn pick(rng: &mut Rng, n: usize) -> usize {
    rng.gen_range(0..n)
}

fn plan_visit(index: usize, p: &Program, chain_seed: u64, rng: &mut Rng) -> Visit {
    let project = format!("{PROJECT_PREFIX}{index}");
    let job = |source: &str| JobSpec {
        name: p.name.clone(),
        source: source.to_string(),
        input: p.input.clone(),
    };
    let query = |analysis: &str, query: QueryKind, job: Option<JobSpec>| Request::Query {
        project: project.clone(),
        bench: p.name.clone(),
        analysis: analysis.to_string(),
        query,
        job,
    };
    let mut versions = vec![p.source.clone()];
    versions.extend(
        suite::edit::edit_chain(&p.source, chain_seed, CHAIN_LEN)
            .into_iter()
            .map(|s| s.source),
    );
    let mut actions = Vec::new();
    let sites = site_count(&p.source);
    if sites > 0 {
        for k in 0..DEMAND_QUERIES {
            let q = if k % 2 == 0 {
                QueryKind::ReferentsAt {
                    site: pick(rng, sites),
                }
            } else {
                QueryKind::MayAlias {
                    a: pick(rng, sites),
                    b: pick(rng, sites),
                }
            };
            actions.push(Action::Send {
                class: Class::Demand,
                version: 0,
                req: query("ci", q, Some(job(&p.source))),
            });
        }
    }
    let restart_at = (index % RESTART_EVERY == RESTART_EVERY - 1).then_some(versions.len() / 2);
    for (v, source) in versions.iter().enumerate().skip(1) {
        let analyze = Request::Analyze {
            project: project.clone(),
            jobs: vec![job(source)],
            fresh: false,
            want_report: false,
        };
        actions.push(Action::Send {
            class: Class::Edit,
            version: v,
            req: analyze.clone(),
        });
        if restart_at == Some(v) {
            actions.push(Action::Restart);
            actions.push(Action::Send {
                class: Class::Restore,
                version: v,
                req: analyze,
            });
        }
        let sites = site_count(source);
        if sites > 0 {
            for analysis in ["ci", "cs"].repeat(QUERY_ROUNDS) {
                let referents = QueryKind::ReferentsAt {
                    site: pick(rng, sites),
                };
                let alias = QueryKind::MayAlias {
                    a: pick(rng, sites),
                    b: pick(rng, sites),
                };
                for q in [referents, alias] {
                    actions.push(Action::Send {
                        class: Class::Query,
                        version: v,
                        req: query(analysis, q, None),
                    });
                }
            }
        }
        if v % CHECK_EVERY == 0 {
            actions.push(Action::Send {
                class: Class::Check,
                version: v,
                req: Request::Check {
                    project: project.clone(),
                    jobs: vec![job(source)],
                    analysis: "ci".to_string(),
                    want_report: false,
                },
            });
        }
    }
    actions.push(Action::Send {
        class: Class::Close,
        version: 0,
        req: Request::Evict {
            project: Some(project.clone()),
        },
    });
    Visit {
        project,
        bench: p.name.clone(),
        chain: chain_seed,
        input: p.input.clone(),
        versions,
        actions,
    }
}

/// The session corpus: the paper and litmus programs and a seeded draw
/// of the small scaling shapes. Generated programs stay out: one visit
/// to one of them costs one to three seconds of solving, which would
/// turn the session into a second solver benchmark.
/// The session's programs: the paper and litmus programs and one small
/// scaling program per (shape, depth). The scaling variants are drawn
/// once, by a fixed seed, not per run: the edit median falls among
/// programs of their size, so a per-run draw would change what it
/// measures.
fn session_corpus() -> Vec<Program> {
    let reference = Reference::load();
    let mut fixed = Rng::seed_from_u64(CORPUS_SEED);
    corpus::draw(&corpus::pool(), &reference, 0, &mut fixed)
        .into_iter()
        .filter(|p| p.kind != Kind::Scaling || p.source.lines().count() < 300)
        .collect()
}

/// Visits in passes over every (program, chain seed) pair, each pass in
/// a seeded order.
struct Planner {
    corpus: Vec<Program>,
    order: Vec<(usize, u64)>,
    rng: Rng,
    next: usize,
}

impl Planner {
    fn new(seed: u64) -> Planner {
        let rng = Rng::seed_from_u64(seed);
        let corpus = session_corpus();
        Planner {
            corpus,
            order: Vec::new(),
            rng,
            next: 0,
        }
    }

    /// Visits in one pass.
    fn pass_len(&self) -> usize {
        self.corpus.len() * CHAIN_SEEDS as usize
    }

    fn next_visit(&mut self) -> Visit {
        if self.order.is_empty() {
            self.order = (0..self.corpus.len())
                .flat_map(|i| (0..CHAIN_SEEDS).map(move |c| (i, c)))
                .collect();
            corpus::shuffle(&mut self.order, &mut self.rng);
        }
        let (i, chain) = self.order.pop().expect("refilled above");
        let v = plan_visit(self.next, &self.corpus[i], chain, &mut self.rng);
        self.next += 1;
        v
    }
}

fn options(store: &Path) -> ServiceOptions {
    ServiceOptions {
        store_dir: Some(store.to_path_buf()),
        mem_budget: 0,
        threads: 1,
    }
}

/// A running daemon and its one client.
struct Daemon {
    store: PathBuf,
    handle: DaemonHandle,
    client: Client,
}

impl Daemon {
    fn spawn(store: &Path) -> Daemon {
        let service = Service::new(options(store)).expect("the store directory opens");
        let handle = serve::daemon::spawn(service, "127.0.0.1:0").expect("binds a loopback port");
        let client = Client::connect(handle.addr()).expect("connects to the daemon");
        Daemon {
            store: store.to_path_buf(),
            handle,
            client,
        }
    }

    fn shutdown(mut self) {
        match self.client.request(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => eprintln!("benchmark: unexpected shutdown answer {other:?}"),
        }
        drop(self.client);
        self.handle.join();
    }

    fn restart(self) -> Daemon {
        let store = self.store.clone();
        self.shutdown();
        Daemon::spawn(&store)
    }
}

/// Where requests go: the daemon over TCP, or a service in-process with
/// the wire codec timed under spans.
enum Target {
    Tcp(Option<Daemon>),
    InProcess {
        store: PathBuf,
        service: Service,
        rec: Recorder,
    },
}

impl Target {
    fn send(&mut self, req: &Request, class: Class, op: u64) -> Response {
        match self {
            Target::Tcp(d) => d
                .as_mut()
                .expect("daemon running")
                .client
                .request(req)
                .unwrap_or_else(|e| Response::Error {
                    message: format!("transport: {e}"),
                }),
            Target::InProcess { service, rec, .. } => {
                let root = rec.begin(OP_SPAN, op);
                let frame = rec.time("proto.encode", op, || req.to_value().render());
                let decoded = rec.time("proto.decode", op, || {
                    Value::parse(&frame)
                        .map_err(|e| e.to_string())
                        .and_then(|v| Request::from_value(&v).map_err(|e| e.to_string()))
                });
                let handle_span = match class {
                    Class::Query | Class::Demand => "serve.handle.query",
                    Class::Check => "serve.handle.check",
                    Class::Edit | Class::Restore => "serve.handle.analyze",
                    Class::Close => "serve.handle.evict",
                };
                let resp = match decoded {
                    Ok(r) => {
                        let h = rec.begin(handle_span, op);
                        let resp = service.handle(&r);
                        rec.end(h);
                        if rec.enabled() {
                            rec.reported(h, &reported_children(&resp));
                        }
                        resp
                    }
                    Err(message) => Response::Error { message },
                };
                let out = rec.time("proto.encode", op, || resp.to_value().render());
                let back = rec.time("proto.decode", op, || {
                    Value::parse(&out)
                        .ok()
                        .and_then(|v| Response::from_value(&v).ok())
                });
                rec.end(root);
                back.unwrap_or_else(|| Response::Error {
                    message: "response did not round-trip the codec".into(),
                })
            }
        }
    }

    fn restart(&mut self) {
        match self {
            Target::Tcp(d) => {
                let old = d.take().expect("daemon running");
                *d = Some(old.restart());
            }
            Target::InProcess { store, service, .. } => {
                *service = Service::new(options(store)).expect("the store directory opens");
            }
        }
    }
}

/// The engine report's per-stage walls inside one response, as reported
/// child spans of the handle span.
fn reported_children(resp: &Response) -> Vec<(&'static str, Duration)> {
    let report = match resp {
        Response::Analyzed { report, .. } | Response::Checked { report, .. } => report,
        _ => return Vec::new(),
    };
    let mut out = Vec::new();
    let ns =
        |v: &Value, k: &str| Duration::from_nanos(v.get(k).and_then(Value::as_u64).unwrap_or(0));
    for b in report
        .iter()
        .flat_map(|r| r.get("benchmarks").and_then(Value::as_arr).unwrap_or(&[]))
    {
        out.push(("cfront.compile", ns(b, "frontend_ns")));
        out.push(("vdg.lower", ns(b, "lowering_ns")));
        for s in b.get("solvers").and_then(Value::as_arr).unwrap_or(&[]) {
            let name = match s.get("analysis").and_then(Value::as_str) {
                Some("weihl") => "alias.weihl",
                Some("steensgaard") => "alias.steensgaard",
                Some("ci") => "alias.ci",
                Some("k1") => "alias.k1",
                Some("cs") => "alias.cs",
                _ => continue,
            };
            out.push((name, ns(s, "wall_ns")));
        }
    }
    out
}

/// One answered request, kept for checking after the timed loop.
struct Answered {
    class: Class,
    version: usize,
    req: Request,
    resp: Response,
    ms: f64,
    /// The request's timing on the probe's clock (untraced runs only).
    timing: Option<Timing>,
    /// For the restore leg: bytes in the store directory when the daemon
    /// went down.
    store_bytes: Option<u64>,
}

/// Runs one visit's actions against `target`, then deletes the visit's
/// project from the disk store: no later request names it, and the
/// store then holds only the live project (about 1 MB each). With a
/// `probe`, each request's timing is taken on its clock and the probe
/// ticks between requests.
fn drive(
    target: &mut Target,
    store: &Path,
    visit: &Visit,
    op: &mut u64,
    want_report: bool,
    mut probe: Option<&mut Probe>,
) -> Vec<Answered> {
    let mut out = Vec::new();
    let mut store_bytes = None;
    for action in &visit.actions {
        match action {
            Action::Restart => {
                store_bytes = Some(dir_bytes(store));
                target.restart();
            }
            Action::Send {
                class,
                version,
                req,
            } => {
                let req = with_report(req, want_report);
                let t = Instant::now();
                let resp = target.send(&req, *class, *op);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let timing = probe.as_deref_mut().map(|p| {
                    let timing = p.stop(t);
                    p.tick();
                    timing
                });
                *op += 1;
                out.push(Answered {
                    class: *class,
                    version: *version,
                    req,
                    resp,
                    ms,
                    timing,
                    store_bytes: store_bytes.take(),
                });
            }
        }
    }
    if let Ok(s) = serve::Store::open(store) {
        let _ = std::fs::remove_file(s.path_of(&visit.project));
    }
    out
}

fn with_report(req: &Request, want: bool) -> Request {
    let mut req = req.clone();
    if let Request::Analyze { want_report, .. } | Request::Check { want_report, .. } = &mut req {
        *want_report = want;
    }
    req
}

/// The reference answer of a query, computed from a fresh engine run the
/// way the service answers exhaustive lookups.
fn expected_answer(b: &BenchOutput, analysis: &str, query: &QueryKind) -> Option<QueryAnswer> {
    let sol = b.solution(analysis)?;
    let sites = b.graph.indirect_mem_ops();
    let file = cfront::SourceFile::new(&b.name, &b.source);
    let info = |i: usize| {
        let &(node, is_write) = sites.get(i)?;
        let lc = file.line_col(b.graph.node(node).span.start);
        Some(SiteInfo {
            index: i,
            line: lc.line,
            col: lc.col,
            kind: if is_write { "write" } else { "read" }.to_string(),
        })
    };
    Some(match *query {
        QueryKind::MayAlias { a, b: bi } => {
            let (sa, sb) = (info(a)?, info(bi)?);
            let bases_b = sol.loc_referent_bases(&b.graph, sites[bi].0);
            let witnesses: Vec<String> = sol
                .loc_referent_bases(&b.graph, sites[a].0)
                .iter()
                .filter(|x| bases_b.binary_search(x).is_ok())
                .map(|&x| stable_base_key(&b.graph, x))
                .collect();
            QueryAnswer::MayAlias {
                may_alias: !witnesses.is_empty(),
                witnesses,
                a: sa,
                b: sb,
            }
        }
        QueryKind::ReferentsAt { site } => {
            let info = info(site)?;
            let node = sites[site].0;
            let mut referents: Vec<String> =
                match (sol.referents_at(&b.graph, node), sol.path_universe()) {
                    (Some(paths), Some(table)) => {
                        paths.iter().map(|&p| table.display(p, &b.graph)).collect()
                    }
                    _ => sol
                        .loc_referent_bases(&b.graph, node)
                        .iter()
                        .map(|&x| stable_base_key(&b.graph, x))
                        .collect(),
                };
            referents.sort();
            QueryAnswer::Referents {
                site: info,
                referents,
            }
        }
    })
}

/// Whether an analyze response carries exactly the fresh run's
/// per-solver fingerprints and pair counts.
fn analyzed_ok(resp: &Response, fresh: &EngineRun, restore: bool) -> bool {
    let Response::Analyzed { benches, serve, .. } = resp else {
        return false;
    };
    let b = &fresh.benches[0];
    let [got] = benches.as_slice() else {
        return false;
    };
    got.name == b.name
        && (!restore || serve.restored)
        && got.solvers.len() == b.solutions.len()
        && got.solvers.iter().zip(&b.solutions).all(|(g, s)| {
            let sol = s.solution.as_deref();
            g.analysis == s.analysis
                && g.fp == sol.map(|x| proto::fp_hex(solution_fingerprint(x, &b.graph)))
                && g.pairs == sol.and_then(|x| x.pairs()).map(|p| p as u64)
        })
}

/// Whether a check response matches the fresh run's checks.
fn checked_ok(resp: &Response, fresh: &EngineRun, checks: &[engine::BenchChecks]) -> bool {
    let Response::Checked {
        benches,
        check_fp,
        monotone_violation,
        refuted,
        ..
    } = resp
    else {
        return false;
    };
    let b = &fresh.benches[0];
    let mut h = Fnv64::new();
    h.write_str(&b.name);
    h.write_u64(serve::service::check_fingerprint(b, &checks[0]));
    let want_refuted: Vec<String> = checks[0]
        .any_refuted()
        .then(|| b.name.clone())
        .into_iter()
        .collect();
    let rows_ok = benches.len() == 1
        && benches[0].solvers.len() == checks[0].rows.len()
        && benches[0]
            .solvers
            .iter()
            .zip(&checks[0].rows)
            .all(|(g, r)| {
                g.analysis == r.solver
                    && g.diags
                        == r.counts
                            .by_kind
                            .iter()
                            .map(|&d| d as u64)
                            .collect::<Vec<_>>()
                    && g.true_positives == r.counts.true_positives as u64
                    && g.false_positives == r.counts.false_positives as u64
                    && g.unreachable == r.counts.unreachable as u64
                    && g.refuted == r.refuted.is_some()
            });
    *check_fp == proto::fp_hex(h.finish())
        && *monotone_violation == engine::check::fp_monotone_violation(checks)
        && *refuted == want_refuted
        && rows_ok
}

/// Checks every answer against fresh engine runs and returns the number
/// of failed requests. Visits of the same (program, chain) share their
/// source versions, so they are checked together and each version is
/// solved, and checked, once.
fn verify(visits: &[(&Visit, &[Answered])]) -> u64 {
    let mut order: Vec<usize> = (0..visits.len()).collect();
    order.sort_by_key(|&i| (&visits[i].0.bench, visits[i].0.chain));
    let mut failed = 0;
    for group in order.chunk_by(|&i, &j| {
        (&visits[i].0.bench, visits[i].0.chain) == (&visits[j].0.bench, visits[j].0.chain)
    }) {
        let mut fresh: HashMap<usize, EngineRun> = HashMap::new();
        let mut checks: HashMap<usize, Vec<engine::BenchChecks>> = HashMap::new();
        for &i in group {
            let (visit, answered) = visits[i];
            for a in answered {
                let run = fresh.entry(a.version).or_insert_with(|| {
                    let mut job = engine::Job::new(&visit.bench, &visit.versions[a.version]);
                    job.input = visit.input.clone();
                    engine::Engine::new()
                        .threads(1)
                        .run(&[job])
                        .expect("edited sources compile")
                });
                let ok = match (&a.req, &a.resp) {
                    (
                        Request::Query {
                            analysis, query, ..
                        },
                        Response::QueryResult { answer, .. },
                    ) => expected_answer(&run.benches[0], analysis, query).as_ref() == Some(answer),
                    (Request::Analyze { .. }, resp) => {
                        analyzed_ok(resp, run, a.class == Class::Restore)
                    }
                    (Request::Check { .. }, resp) => {
                        let c = checks.entry(a.version).or_insert_with(|| run.run_checks());
                        checked_ok(resp, run, c)
                    }
                    (Request::Evict { .. }, resp) => *resp == Response::Ok,
                    _ => false,
                };
                if !ok {
                    eprintln!(
                        "benchmark: {} {:?} request on {} (version {}) answered {:?}",
                        visit.project,
                        a.class,
                        visit.bench,
                        a.version,
                        summarize(&a.resp)
                    );
                }
                failed += u64::from(!ok);
            }
        }
    }
    failed
}

fn summarize(resp: &Response) -> String {
    match resp {
        Response::Error { message } => format!("error: {message}"),
        other => {
            let text = other.to_value().render();
            text.chars().take(200).collect()
        }
    }
}

fn ms_of(answered: &[Answered], class: Class) -> Vec<f64> {
    answered
        .iter()
        .filter(|a| a.class == class)
        .map(|a| a.ms)
        .collect()
}

pub fn measure(run: &Run) -> Measured {
    let store = run.work.join("store");
    let setup = || {
        let planner = Planner::new(run.seed);
        let _ = std::fs::remove_dir_all(&store);
        let mut daemon = Daemon::spawn(&store);
        // Priming: the paper programs analysed once on a throwaway
        // project, so first-touch costs land in set-up; closed again
        // so the timed loop starts with no project in memory.
        let _ = daemon.client.request(&Request::Analyze {
            project: "prime".into(),
            jobs: planner
                .corpus
                .iter()
                .filter(|p| p.kind == Kind::Paper)
                .map(Program::spec)
                .collect(),
            fresh: false,
            want_report: false,
        });
        let _ = daemon.client.request(&Request::Evict {
            project: Some("prime".into()),
        });
        (planner, daemon)
    };
    let mut probe = Probe::new();
    let ((mut planner, daemon), setups) =
        SetupTimes::before(&mut probe, setup, |(_, d)| d.shutdown());
    let mut target = Target::Tcp(Some(daemon));
    let mut visits = Vec::new();
    let mut op = 0;
    let n = passes(run.seconds, PASS_S) * planner.pass_len();
    for _ in 0..n {
        let visit = planner.next_visit();
        let answered = drive(
            &mut target,
            &store,
            &visit,
            &mut op,
            false,
            Some(&mut probe),
        );
        visits.push((visit, answered));
    }
    let rss = metrics::peak_rss_mb();
    if let Target::Tcp(Some(d)) = target {
        d.shutdown();
    }
    let setup_s = setups.after(&mut probe, setup, |(_, d)| d.shutdown());
    let answered: Vec<&Answered> = visits.iter().flat_map(|(_, a)| a).collect();
    let timing = |a: &&Answered| a.timing.expect("timed on the probe's clock");
    let timings: Vec<Timing> = answered.iter().map(timing).collect();
    // `p50_ms` is the edit round trip. Most requests are lookups, whose
    // round trip (tens of µs) is the host's thread wake-up latency more
    // than the program's work: between two sets of ten runs their median
    // fell by 28% while the probe's rose by 17%.
    let edits: Vec<Timing> = answered
        .iter()
        .filter(|a| a.class == Class::Edit)
        .map(timing)
        .collect();
    let failed = verify(
        &visits
            .iter()
            .map(|(v, a)| (v, a.as_slice()))
            .collect::<Vec<_>>(),
    );
    print_classes(&answered);
    Measured {
        attempted: timings.len() as u64,
        failed,
        metrics: metrics::end_to_end(&timings, &edits, &probe, 1.0, setup_s, rss),
    }
}

fn print_classes(all: &[&Answered]) {
    for class in [
        Class::Demand,
        Class::Edit,
        Class::Query,
        Class::Check,
        Class::Restore,
        Class::Close,
    ] {
        let v: Vec<f64> = all
            .iter()
            .filter(|a| a.class == class)
            .map(|a| a.ms)
            .collect();
        eprintln!(
            "benchmark: {class:?}: {} requests, {:.1} ms in all, p50 {:.4} ms, tail {:?}",
            v.len(),
            v.iter().sum::<f64>(),
            stats::median(&v).unwrap_or(f64::NAN),
            stats::tail(&v)
        );
    }
}

/// Bytes of the files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn trace(run: &Run) -> Traced {
    let mut planner = Planner::new(run.seed);
    let visits: Vec<Visit> = (0..TRACE_VISITS).map(|_| planner.next_visit()).collect();

    // Per visit, interleaved so drifts in machine speed hit all three
    // alike: over TCP (untraced, the per-class round trips), then
    // in-process with the recorder off and on. Each has its own store.
    // Both in-process passes ask for reports, so they do the same work
    // and their counts can be compared.
    let stores = ["store-tcp", "store-off", "store-on"].map(|d| run.work.join(d));
    let mut tcp = Target::Tcp(Some(Daemon::spawn(&stores[0])));
    let in_process = |store: &Path, enabled| Target::InProcess {
        store: store.to_path_buf(),
        service: Service::new(options(store)).expect("the store directory opens"),
        rec: Recorder::new(enabled),
    };
    let mut off = in_process(&stores[1], false);
    let mut on = in_process(&stores[2], true);
    let mut ops = [0u64; 3];
    let (mut tcp_answers, mut plain_answers, mut answers) = (Vec::new(), Vec::new(), Vec::new());
    for (k, v) in visits.iter().enumerate() {
        tcp_answers.push(drive(&mut tcp, &stores[0], v, &mut ops[0], false, None));
        // Alternate which of the two goes first.
        if k % 2 == 1 {
            plain_answers.push(drive(&mut off, &stores[1], v, &mut ops[1], true, None));
        }
        answers.push(drive(&mut on, &stores[2], v, &mut ops[2], true, None));
        if k % 2 == 0 {
            plain_answers.push(drive(&mut off, &stores[1], v, &mut ops[1], true, None));
        }
    }
    if let Target::Tcp(Some(d)) = tcp {
        d.shutdown();
    }
    let (
        Target::InProcess { mut rec, .. },
        Target::InProcess {
            rec: mut off_rec, ..
        },
    ) = (on, off)
    else {
        unreachable!("built in-process above")
    };
    let all: Vec<(&Visit, &[Answered])> = [&tcp_answers, &plain_answers, &answers]
        .into_iter()
        .flat_map(|pass| visits.iter().zip(pass.iter().map(Vec::as_slice)))
        .collect();
    let attempted = all.iter().map(|(_, a)| a.len() as u64).sum();
    let failed = verify(&all);
    let tcp_answers: Vec<Answered> = tcp_answers.into_iter().flatten().collect();
    let traced: Vec<&Answered> = answers.iter().flatten().collect();
    let plain_answers: Vec<&Answered> = plain_answers.iter().flatten().collect();
    let plain: Vec<f64> = plain_answers.iter().map(|a| a.ms).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|a| a.ms).collect();
    let tcp_ms: Vec<f64> = tcp_answers.iter().map(|a| a.ms).collect();

    let mut layers = Layers::new();
    pass_counts(&mut rec, &mut layers, &visits, &traced);
    let mut repeat = Layers::new();
    pass_counts(&mut off_rec, &mut repeat, &visits, &plain_answers);
    layers.absorb(&rec, traced.len());
    report_overhead(&mut layers, &plain, &traced_ms, &tcp_ms);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    layers.set(
        "serve.daemon.wait_us",
        (sum(&tcp_ms) - sum(&traced_ms)) * 1e3 / traced.len() as f64,
    );
    let per_class = |c| ms_of(&tcp_answers, c);
    let set_p50 = |layers: &mut Layers, name: &str, v: &[f64], scale: f64| {
        layers.set(name, stats::median(v).unwrap_or(0.0) * scale);
    };
    set_p50(&mut layers, "edit_p50_ms", &per_class(Class::Edit), 1.0);
    set_p50(&mut layers, "query_p50_us", &per_class(Class::Query), 1e3);
    set_p50(&mut layers, "demand_p50_ms", &per_class(Class::Demand), 1.0);
    set_p50(
        &mut layers,
        "restore_p50_ms",
        &per_class(Class::Restore),
        1.0,
    );
    layers.set(
        "edit_tail_ms",
        stats::tail(&per_class(Class::Edit)).map_or(0.0, |t| t.1),
    );
    layers.set(
        "query_tail_us",
        stats::tail(&per_class(Class::Query)).map_or(0.0, |t| t.1 * 1e3),
    );
    Traced {
        attempted,
        failed,
        layers,
        repeat,
        recorder: rec,
    }
}

/// The count metrics of one in-process pass: the demand probe, the
/// request frame bytes and the counts carried by the responses.
fn pass_counts(rec: &mut Recorder, layers: &mut Layers, visits: &[Visit], answered: &[&Answered]) {
    demand_probe(rec, layers, visits);
    let bytes: usize = answered
        .iter()
        .map(|a| a.req.to_value().render().len() + 1)
        .sum();
    layers.set("proto.frame_bytes", bytes as f64);
    response_counts(layers, answered);
}

/// Per-layer counts carried by the responses: solver modes and pair
/// counts from the reports, cache counters, restore times, demand hits
/// and checker diagnostics.
fn response_counts(layers: &mut Layers, traced: &[&Answered]) {
    let (mut reused, mut dirty) = (0u64, 0u64);
    let (mut queries, mut demand_hits) = (0u64, 0u64);
    let mut restore_ms = Vec::new();
    let mut store_bytes = Vec::new();
    let mut cone: HashMap<String, (u64, u64)> = HashMap::new();
    for a in traced {
        match &a.resp {
            Response::Analyzed { serve, report, .. } => {
                reused += serve.funcs_reused;
                dirty += serve.funcs_dirty;
                layers.add(
                    "engine.incremental.benches_replayed",
                    serve.benches_replayed as f64,
                );
                layers.add(
                    "engine.incremental.benches_seeded",
                    serve.benches_seeded as f64,
                );
                layers.add(
                    "engine.incremental.benches_fresh",
                    serve.benches_fresh as f64,
                );
                if a.class == Class::Restore {
                    restore_ms.push(serve.restore_us as f64 / 1e3);
                }
                store_bytes.extend(a.store_bytes.map(|b| b as f64));
                for b in report
                    .iter()
                    .flat_map(|r| r.get("benchmarks").and_then(Value::as_arr).unwrap_or(&[]))
                {
                    let n = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64);
                    let outputs = n(b, "outputs").unwrap_or(0);
                    layers.add("cfront.compile.lines", n(b, "lines").unwrap_or(0) as f64);
                    layers.add("vdg.lower.nodes", n(b, "nodes").unwrap_or(0) as f64);
                    for s in b.get("solvers").and_then(Value::as_arr).unwrap_or(&[]) {
                        let name = s.get("analysis").and_then(Value::as_str).unwrap_or("");
                        if !corpus::SOLVERS.contains(&name) {
                            continue;
                        }
                        let mode = s.get("mode").and_then(Value::as_str).unwrap_or("");
                        let e = cone.entry(name.to_string()).or_default();
                        e.0 += resolved_outputs(mode, outputs);
                        e.1 += outputs;
                        if let Some(p) = n(s, "pairs") {
                            layers.add(&format!("alias.{name}.pairs"), p as f64);
                        }
                        if let Some(f) = n(s, "flow_ins") {
                            layers.add(&format!("alias.{name}.flow_ins"), f as f64);
                            let hits = n(s, "dedup_hits").unwrap_or(0);
                            layers.add(&format!("alias.{name}.dedup_frac"), hits as f64);
                        }
                    }
                }
            }
            Response::QueryResult { demand, .. } => {
                queries += 1;
                demand_hits += u64::from(*demand);
            }
            Response::Checked { benches, .. } => {
                let diags: u64 = benches
                    .iter()
                    .flat_map(|b| &b.solvers)
                    .flat_map(|s| &s.diags)
                    .sum();
                layers.add("checker.run_checks.diagnostics", diags as f64);
            }
            _ => {}
        }
    }
    crate::cold::finish_dedup(layers);
    for (name, (c, n)) in cone {
        if n > 0 {
            layers.set(&format!("alias.{name}.cone_frac"), c as f64 / n as f64);
        }
    }
    if reused + dirty > 0 {
        layers.set(
            "engine.incremental.funcs_reused_frac",
            reused as f64 / (reused + dirty) as f64,
        );
    }
    if queries > 0 {
        layers.set(
            "serve.query.demand_frac",
            demand_hits as f64 / queries as f64,
        );
    }
    if let Some(m) = stats::median(&restore_ms) {
        layers.set("serve.store.restore_ms", m);
    }
    if let Some(m) = stats::median(&store_bytes) {
        layers.set("serve.store.bytes", m);
    }
}

/// Outputs a solve re-solved, from its mode string: the cone of a
/// seeded resume, every output of a fresh solve, none of a replay or an
/// empty-cone reseed.
fn resolved_outputs(mode: &str, outputs: u64) -> u64 {
    if mode.starts_with("fresh") {
        return outputs;
    }
    mode.split("cone=")
        .nth(1)
        .and_then(|rest| rest.split('/').next())
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

/// The demand path is inside the service, so its work is measured by a
/// probe: the same cold demand queries against a demand solution the
/// benchmark builds for each visit's original source.
fn demand_probe(rec: &mut Recorder, layers: &mut Layers, visits: &[Visit]) {
    let (mut queries, mut fallbacks) = (0u64, 0u64);
    let mut i = 0;
    for v in visits {
        let demand: Vec<&QueryKind> = v
            .actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    class: Class::Demand,
                    req: Request::Query { query, .. },
                    ..
                } => Some(query),
                _ => None,
            })
            .collect();
        if demand.is_empty() {
            continue;
        }
        let graph = cfront::compile(&v.versions[0])
            .ok()
            .and_then(|p| vdg::build::lower(&p, &vdg::build::BuildOptions::default()).ok())
            .expect("corpus sources lower");
        let sites = graph.indirect_mem_ops();
        let stats = rec.probe("alias.demand", i, || {
            let sol = alias::DemandSolution::new(
                &graph,
                alias::DemandConfig {
                    ci: alias::SolverSpec::ci().ci_config(),
                    ..Default::default()
                },
            );
            for q in &demand {
                match **q {
                    QueryKind::ReferentsAt { site } => {
                        sol.loc_referents_rendered(&graph, sites[site].0);
                    }
                    QueryKind::MayAlias { a, b } => {
                        sol.may_alias(&graph, sites[a].0, sites[b].0);
                    }
                }
            }
            sol.stats()
        });
        i += 1;
        layers.add("alias.demand.outputs_active", stats.outputs_active as f64);
        layers.add("alias.demand.steps", stats.steps as f64);
        queries += stats.queries;
        fallbacks += stats.fallbacks;
    }
    if queries > 0 {
        layers.set(
            "alias.demand.fallback_frac",
            fallbacks as f64 / queries as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cone_share_comes_from_the_mode_string() {
        assert_eq!(
            resolved_outputs("seeded(dirty=1/9, cone=120/840)", 840),
            120
        );
        assert_eq!(resolved_outputs("fresh(no-cache)", 840), 840);
        assert_eq!(resolved_outputs("replayed", 840), 0);
        assert_eq!(resolved_outputs("reseeded(seeded=800/840)", 840), 0);
    }

    #[test]
    fn visits_repeat_per_seed() {
        let plan = |seed| {
            let mut p = Planner::new(seed);
            let v = p.next_visit();
            (v.bench, v.versions, v.actions.len())
        };
        assert_eq!(plan(4), plan(4));
    }
}
