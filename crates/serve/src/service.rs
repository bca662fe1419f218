//! The transport-agnostic request dispatcher.
//!
//! [`Service::handle`] maps one [`proto::Request`] to one
//! [`proto::Response`]. The CLI calls it directly for in-process
//! dispatch; the TCP daemon calls it behind a mutex, one request at a
//! time — which is also the concurrency argument: requests are strictly
//! serialized, so N interleaved clients observe exactly the answers a
//! serial caller would.
//!
//! Sessions: each named project owns a [`engine::SummaryCache`] (and a
//! check cache, and the solved [`engine::BenchOutput`]s for demand
//! queries), isolated from every other project. Under a configured
//! memory budget the least-recently-used sessions are evicted; their
//! disk-store state survives, so the next request warm-starts instead
//! of cold-starting.
//!
//! Persistence is write-through: after every analyze/check the
//! project's summaries, solution fingerprints, and check fingerprints
//! go to the [`crate::store::Store`]. A restored session seeds the
//! tier-3 CI resume from the stored summaries; the engine recompiles
//! and re-verifies everything, so a corrupt or stale store can cost
//! time, never correctness.

use crate::store::{LoadOutcome, Store, StoredBench, StoredProject, StoredSummaries};
use alias::fingerprint::{fnv64, stable_base_key, Fnv64, GraphIndex};
use alias::solver::solution_fingerprint;
use alias::{DemandConfig, DemandSolution};
use engine::check::{diagnostics_value, fp_monotone_violation, render_diagnostics, BenchChecks};
use engine::{BenchOutput, CheckCache, EngineRun, Job, SummaryCache};
use proto::{
    fp_hex, BenchCheckInfo, BenchFps, JobSpec, ProjectStats, QueryAnswer, QueryKind, Request,
    Response, ServeInfo, SiteInfo, SolverCheck, SolverFp,
};
use std::collections::HashMap;
use std::time::Instant;

/// Configuration for a [`Service`].
#[derive(Default)]
pub struct ServiceOptions {
    /// Disk store directory; `None` disables persistence.
    pub store_dir: Option<std::path::PathBuf>,
    /// Session memory budget in bytes; 0 = unlimited.
    pub mem_budget: usize,
    /// Worker threads per engine run (0 = all cores).
    pub threads: usize,
}

/// One project's in-memory session.
struct Session {
    cache: SummaryCache,
    check_cache: CheckCache,
    /// Last solved outputs by benchmark name, for demand queries.
    benches: HashMap<String, BenchOutput>,
    /// Persisted view of each benchmark, rebuilt on every analyze.
    stored: HashMap<String, StoredBench>,
    last_used: Instant,
    /// Whether this session was seeded from the disk store.
    restored: bool,
    /// Whether `stored` has diverged from the disk store since the last
    /// successful save. A pure-replay request leaves it clear, so warm
    /// requests skip the store write entirely.
    dirty: bool,
    /// Memoized per-solver fingerprints and pair counts, keyed by
    /// benchmark name and guarded by (source_fp, graph_fp). Solutions
    /// are a deterministic function of the source, so a replayed bench
    /// reuses its fingerprints instead of re-walking every solution —
    /// the dominant cost of a warm analyze response.
    fps_memo: HashMap<String, FpsMemo>,
    /// Benchmarks restored from disk whose summaries are still raw:
    /// decoded and seeded into the cache on the first analyze/check
    /// that touches them, not at session creation (a session that only
    /// fields demand queries never pays for decoding at all).
    pending_restore: std::collections::HashSet<String>,
    /// Demand-query state per benchmark: the compiled graph plus the
    /// growing partial solution, for queries that arrive before any
    /// exhaustive analyze.
    demand: HashMap<String, DemandBench>,
    /// Cumulative microseconds spent restoring from the disk store
    /// (project load plus lazy per-bench summary decode).
    restore_us: u64,
    /// Queries answered from a demand-solved region.
    demand_hits: u64,
    /// Queries answered from an exhaustive fallback solution.
    demand_fallbacks: u64,
    /// Demand queries that exhausted a slice or step budget.
    demand_budget_exhausted: u64,
}

/// One benchmark's demand-query state (see [`Session::demand`]).
struct DemandBench {
    /// FNV-64 of `source`; a query resolving to different source text
    /// (edited store entry, different inline job) rebuilds the state.
    source_fp: u64,
    source: String,
    graph: vdg::graph::Graph,
    sol: DemandSolution,
}

/// Cached fingerprint work for one benchmark (see [`Session::fps_memo`]).
struct FpsMemo {
    source_fp: u64,
    graph_fp: u64,
    /// Per analysis: (name, solution fingerprint, pair count).
    solvers: Vec<(String, Option<u64>, Option<u64>)>,
}

/// The persistent analysis service.
pub struct Service {
    engine: engine::Engine,
    store: Option<Store>,
    sessions: HashMap<String, Session>,
    mem_budget: usize,
    started: Instant,
    request_counts: Vec<(String, u64)>,
    evictions: u64,
}

fn err(message: impl Into<String>) -> Response {
    Response::Error {
        message: message.into(),
    }
}

/// Project names double as store file names, so they are restricted to
/// a conservative portable set.
fn valid_project(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl Service {
    /// Builds a service; opens (creating if needed) the disk store when
    /// one is configured.
    ///
    /// # Errors
    ///
    /// Returns the store-directory creation error, if any.
    pub fn new(opts: ServiceOptions) -> std::io::Result<Service> {
        let store = match opts.store_dir {
            Some(dir) => Some(Store::open(dir)?),
            None => None,
        };
        Ok(Service {
            engine: engine::Engine::new().threads(opts.threads),
            store,
            sessions: HashMap::new(),
            mem_budget: opts.mem_budget,
            started: Instant::now(),
            request_counts: Vec::new(),
            evictions: 0,
        })
    }

    /// Dispatches one request. Total: every failure becomes
    /// [`Response::Error`], never a panic — the daemon stays up.
    pub fn handle(&mut self, req: &Request) -> Response {
        self.count(req.type_name());
        match req {
            Request::Analyze {
                project,
                jobs,
                fresh,
                want_report,
            } => self.analyze(project, jobs, *fresh, *want_report),
            Request::Check {
                project,
                jobs,
                analysis,
                want_report,
            } => self.check(project, jobs, analysis, *want_report),
            Request::Query {
                project,
                bench,
                analysis,
                query,
                job,
            } => self.query(project, bench, analysis, query, job.as_ref()),
            Request::Stats => self.stats(),
            Request::Evict { project } => self.evict(project.as_deref()),
            Request::Shutdown => Response::ShuttingDown,
        }
    }

    fn count(&mut self, name: &str) {
        match self.request_counts.iter_mut().find(|(k, _)| k == name) {
            Some((_, n)) => *n += 1,
            None => self.request_counts.push((name.to_string(), 1)),
        }
    }

    /// Fetches or creates a project's session. A new session whose
    /// project has compatible disk-store state is seeded with the
    /// stored summaries, so its first analyze resumes instead of
    /// re-solving.
    // The error arm intentionally carries the full typed Response.
    #[allow(clippy::result_large_err)]
    fn ensure_session(&mut self, project: &str) -> Result<(), Response> {
        if !valid_project(project) {
            return Err(err(format!(
                "invalid project name {project:?} (want [A-Za-z0-9._-]{{1,64}}, not dot-led)"
            )));
        }
        if !self.sessions.contains_key(project) {
            let mut session = Session {
                cache: self.engine.cache(),
                check_cache: CheckCache::default(),
                benches: HashMap::new(),
                stored: HashMap::new(),
                last_used: Instant::now(),
                restored: false,
                dirty: false,
                fps_memo: HashMap::new(),
                pending_restore: std::collections::HashSet::new(),
                demand: HashMap::new(),
                restore_us: 0,
                demand_hits: 0,
                demand_fallbacks: 0,
                demand_budget_exhausted: 0,
            };
            if let Some(store) = &self.store {
                let t = Instant::now();
                if let LoadOutcome::Loaded(p) = store.load(project) {
                    if p.spec_key == session.cache.spec_key() {
                        // Summaries stay raw here; the first analyze or
                        // check touching a bench decodes and seeds it
                        // (see seed_pending).
                        for b in p.benches {
                            session.pending_restore.insert(b.name.clone());
                            session.stored.insert(b.name.clone(), b);
                        }
                        session.restored = true;
                    }
                    // A spec-key mismatch silently cold-starts: the
                    // stored facts were computed under different solver
                    // knobs and are not sound seeds.
                }
                // Rejected/Missing → cold start; the next save
                // overwrites a bad file.
                session.restore_us += t.elapsed().as_micros() as u64;
            }
            self.sessions.insert(project.to_string(), session);
        }
        let s = self.sessions.get_mut(project).expect("inserted above");
        s.last_used = Instant::now();
        Ok(())
    }

    /// Decodes and seeds the stored summaries of any of `names` this
    /// session restored from disk but has not yet touched — the lazy
    /// half of the restore that [`Service::ensure_session`] defers.
    fn seed_pending<'n>(session: &mut Session, names: impl Iterator<Item = &'n str>) {
        for name in names {
            if !session.pending_restore.remove(name) {
                continue;
            }
            let Some(b) = session.stored.get_mut(name) else {
                continue;
            };
            let t = Instant::now();
            let summaries = b.summaries.decode_fresh();
            session
                .cache
                .seed_restored(&b.name, b.source_fp, b.graph_fp, summaries);
            session.restore_us += t.elapsed().as_micros() as u64;
        }
    }

    fn analyze(
        &mut self,
        project: &str,
        jobs: &[JobSpec],
        fresh: bool,
        want_report: bool,
    ) -> Response {
        let t0 = Instant::now();
        if jobs.is_empty() {
            return err("analyze: empty job list");
        }
        let engine_jobs: Vec<Job> = jobs
            .iter()
            .map(|j| {
                let mut job = Job::new(&j.name, &j.source);
                job.input = j.input.clone();
                job
            })
            .collect();
        if fresh {
            // Cache-bypassing cross-check: solve from scratch without
            // touching (or requiring) the session.
            let run = match self.engine.run(&engine_jobs) {
                Ok(r) => r,
                Err(e) => return err(format!("analyze: {e}")),
            };
            let benches = run.benches.iter().map(|b| bench_fps(b, None)).collect();
            return Response::Analyzed {
                project: project.to_string(),
                benches,
                report_fp: fp_hex(fnv64(run.report.fingerprint().as_bytes())),
                report: want_report.then(|| run.report.to_value()),
                serve: ServeInfo {
                    latency_us: t0.elapsed().as_micros() as u64,
                    benches_fresh: run.benches.len() as u64,
                    ..ServeInfo::default()
                },
            };
        }
        if let Err(e) = self.ensure_session(project) {
            return e;
        }
        let session = self.sessions.get_mut(project).expect("ensured above");
        let restored = session.restored;
        Self::seed_pending(session, jobs.iter().map(|j| j.name.as_str()));
        let engine = &self.engine;
        let mut run = match engine.analyze_incremental_with(&mut session.cache, &engine_jobs) {
            Ok(r) => r,
            Err(e) => return err(format!("analyze: {e}")),
        };
        let mut serve = serve_info(&run, restored);
        serve.latency_us = t0.elapsed().as_micros() as u64;
        serve.demand_hits = session.demand_hits;
        serve.demand_fallbacks = session.demand_fallbacks;
        serve.demand_budget_exhausted = session.demand_budget_exhausted;
        serve.restore_us = session.restore_us;
        run.report.serve = Some(serve.clone());
        // (source_fp, graph_fp) per bench, from the cache when it has
        // the entry (it was just computed there).
        let keys: Vec<(u64, u64)> = run
            .benches
            .iter()
            .map(|b| match session.cache.summaries_of(&b.name) {
                Some((s, g, _)) => (s, g),
                None => (
                    fnv64(b.source.as_bytes()),
                    GraphIndex::build(&b.graph).graph_fp,
                ),
            })
            .collect();
        let benches: Vec<BenchFps> = run
            .benches
            .iter()
            .zip(&keys)
            .map(|(b, &(source_fp, graph_fp))| {
                bench_fps_memo(b, source_fp, graph_fp, &mut session.fps_memo)
            })
            .collect();
        // Refresh the persisted view of every benchmark this request
        // touched, then write the project through to disk — but only if
        // something actually changed. A pure tier-1 replay must not pay
        // for cloning summary maps or rewriting the store file; that
        // write-through cost would otherwise dominate warm latency.
        for ((b, fps), &(source_fp, graph_fp)) in run.benches.iter().zip(&benches).zip(&keys) {
            let solution_fps: Vec<(String, Option<u64>)> = fps
                .solvers
                .iter()
                .map(|s| {
                    (
                        s.analysis.clone(),
                        s.fp.as_deref().and_then(proto::parse_fp_hex),
                    )
                })
                .collect();
            let prev = session.stored.get(&b.name);
            // Checks are keyed by source and input; an edit invalidates
            // the stored check fingerprint.
            let check_fp = prev.and_then(|old| {
                old.check_fp
                    .filter(|_| old.source == b.source && old.input == b.input)
            });
            // Summaries are content-addressed by per-function
            // fingerprint: matching source and graph fingerprints imply
            // matching summaries, so an entry that agrees on every
            // cheap field needs no rebuild.
            let unchanged = prev.is_some_and(|old| {
                old.source_fp == source_fp
                    && old.graph_fp == graph_fp
                    && old.source == b.source
                    && old.input == b.input
                    && old.solution_fps == solution_fps
                    && old.check_fp == check_fp
            });
            if unchanged {
                continue;
            }
            let summaries = session
                .cache
                .summaries_of(&b.name)
                .map(|(_, _, m)| m)
                .unwrap_or_default();
            session.stored.insert(
                b.name.clone(),
                StoredBench {
                    name: b.name.clone(),
                    source: b.source.clone(),
                    input: b.input.clone(),
                    source_fp,
                    graph_fp,
                    solution_fps,
                    summaries: StoredSummaries::Ready(summaries),
                    check_fp,
                },
            );
            session.dirty = true;
        }
        let report_fp = fp_hex(fnv64(run.report.fingerprint().as_bytes()));
        let report = want_report.then(|| run.report.to_value());
        for b in run.benches {
            // The solved output supersedes any demand-query state (and
            // answers future queries by lookup).
            session.demand.remove(&b.name);
            session.benches.insert(b.name.clone(), b);
        }
        self.persist(project);
        self.enforce_budget(project);
        Response::Analyzed {
            project: project.to_string(),
            benches,
            report_fp,
            report,
            serve,
        }
    }

    fn check(
        &mut self,
        project: &str,
        jobs: &[JobSpec],
        analysis: &str,
        want_report: bool,
    ) -> Response {
        if jobs.is_empty() {
            return err("check: empty job list");
        }
        let engine_jobs: Vec<Job> = jobs
            .iter()
            .map(|j| {
                let mut job = Job::new(&j.name, &j.source);
                job.input = j.input.clone();
                job
            })
            .collect();
        if let Err(e) = self.ensure_session(project) {
            return e;
        }
        let session = self.sessions.get_mut(project).expect("ensured above");
        Self::seed_pending(session, jobs.iter().map(|j| j.name.as_str()));
        let engine = &self.engine;
        let mut run = match engine.analyze_incremental_with(&mut session.cache, &engine_jobs) {
            Ok(r) => r,
            Err(e) => return err(format!("check: {e}")),
        };
        let checks = run.run_checks_cached(&mut session.check_cache);
        let benches: Vec<BenchCheckInfo> = run
            .benches
            .iter()
            .zip(&checks)
            .map(|(b, bc)| BenchCheckInfo {
                name: b.name.clone(),
                table: checker::render_table(&bc.rows),
                rendered: render_diagnostics(b, bc, analysis),
                diags: diagnostics_value(b, bc, analysis),
                solvers: bc
                    .rows
                    .iter()
                    .map(|r| SolverCheck {
                        analysis: r.solver.clone(),
                        diags: r.counts.by_kind.iter().map(|&d| d as u64).collect(),
                        true_positives: r.counts.true_positives as u64,
                        false_positives: r.counts.false_positives as u64,
                        unreachable: r.counts.unreachable as u64,
                        refuted: r.refuted.is_some(),
                    })
                    .collect(),
            })
            .collect();
        // Per-bench diagnostics fingerprints feed both the response's
        // combined check_fp and the persisted per-bench check_fp.
        let mut combined = Fnv64::new();
        for (b, bc) in run.benches.iter().zip(&checks) {
            let bench_fp = check_fingerprint(b, bc);
            combined.write_str(&b.name);
            combined.write_u64(bench_fp);
            if let Some(stored) = session.stored.get_mut(&b.name) {
                if stored.check_fp != Some(bench_fp) {
                    stored.check_fp = Some(bench_fp);
                    session.dirty = true;
                }
            }
        }
        let refuted: Vec<String> = run
            .benches
            .iter()
            .zip(&checks)
            .filter(|(_, bc)| bc.any_refuted())
            .map(|(b, _)| b.name.clone())
            .collect();
        let monotone_violation = fp_monotone_violation(&checks);
        let report = want_report.then(|| run.report.to_value());
        let check_fp = fp_hex(combined.finish());
        for b in run.benches {
            session.demand.remove(&b.name);
            session.benches.insert(b.name.clone(), b);
        }
        self.persist(project);
        self.enforce_budget(project);
        Response::Checked {
            project: project.to_string(),
            benches,
            check_fp,
            monotone_violation,
            refuted,
            report,
        }
    }

    fn query(
        &mut self,
        project: &str,
        bench: &str,
        analysis: &str,
        query: &QueryKind,
        job: Option<&JobSpec>,
    ) -> Response {
        if let Err(e) = self.ensure_session(project) {
            return e;
        }
        // The hot path: a CI-vocabulary query against a bench with no
        // solved output is answered demand-driven — no exhaustive
        // fixpoint, microsecond first-query latency. (`demand` names
        // the path explicitly; `ci` takes it because the demand answers
        // are exactly the CI answers.)
        let solved = self.sessions[project].benches.contains_key(bench);
        if !solved && matches!(analysis, "ci" | "demand") {
            return self.query_demand(project, bench, analysis, query, job);
        }
        // Exhaustive path: a non-CI analysis needs its solver run, and
        // an already-solved bench answers by plain lookup. A restored
        // session may know the bench only from disk (or from the
        // request's inline job): analyze it before answering.
        if !solved {
            let stored_job = self.sessions[project]
                .stored
                .get(bench)
                .map(|b| JobSpec {
                    name: b.name.clone(),
                    source: b.source.clone(),
                    input: b.input.clone(),
                })
                .or_else(|| job.cloned());
            match stored_job {
                Some(job) => {
                    if let Response::Error { message } = self.analyze(project, &[job], false, false)
                    {
                        return err(format!("query: demand analyze failed: {message}"));
                    }
                }
                None => {
                    return err(format!(
                        "query: benchmark {bench:?} has not been analyzed in project \
                         {project:?} (send an analyze request first)"
                    ))
                }
            }
        }
        if let Err(e) = self.ensure_session(project) {
            return e;
        }
        let session = self.sessions.get_mut(project).expect("ensured above");
        let b = session.benches.get(bench).expect("analyzed above");
        // "demand" is query vocabulary, not a solved spectrum; its
        // exhaustive twin is plain CI.
        let lookup = if analysis == "demand" { "ci" } else { analysis };
        let Some(sol) = b.solution(lookup) else {
            return err(format!(
                "query: no {lookup:?} solution for {bench:?} (failed solve or unknown analysis)"
            ));
        };
        let sites = b.graph.indirect_mem_ops();
        let file = cfront::SourceFile::new(&b.name, &b.source);
        #[allow(clippy::result_large_err)]
        let site_info = |i: usize| -> Result<SiteInfo, Response> {
            let &(node, is_write) = sites.get(i).ok_or_else(|| {
                err(format!(
                    "query: site index {i} out of range ({} indirect refs in {bench:?})",
                    sites.len()
                ))
            })?;
            let lc = file.line_col(b.graph.node(node).span.start);
            Ok(SiteInfo {
                index: i,
                line: lc.line,
                col: lc.col,
                kind: if is_write { "write" } else { "read" }.to_string(),
            })
        };
        let answer = match *query {
            QueryKind::MayAlias { a, b: bi } => {
                let (sa, sb) = match (site_info(a), site_info(bi)) {
                    (Ok(x), Ok(y)) => (x, y),
                    (Err(e), _) | (_, Err(e)) => return e,
                };
                let bases_a = sol.loc_referent_bases(&b.graph, sites[a].0);
                let bases_b = sol.loc_referent_bases(&b.graph, sites[bi].0);
                // Both sides sorted+deduped by the Solution contract.
                let witnesses: Vec<String> = bases_a
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
                let info = match site_info(site) {
                    Ok(x) => x,
                    Err(e) => return e,
                };
                let node = sites[site].0;
                // Path-granular when the solver has per-point sets,
                // stable base keys for the unification baseline.
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
        };
        Response::QueryResult {
            bench: bench.to_string(),
            analysis: analysis.to_string(),
            answer,
            demand: false,
        }
    }

    /// Answers a query against an unsolved benchmark by demand-driven
    /// search: compile + lower only (no fixpoint), then let the
    /// [`DemandSolution`] activate and solve just the backward slice
    /// the query touches. The source comes from the persisted store
    /// when the bench is known there, else from the request's inline
    /// job. Solved state is memoized per bench, so repeated queries
    /// widen (never recompute) the solved region; a later exhaustive
    /// analyze evicts the entry.
    fn query_demand(
        &mut self,
        project: &str,
        bench: &str,
        analysis: &str,
        query: &QueryKind,
        job: Option<&JobSpec>,
    ) -> Response {
        let session = self.sessions.get_mut(project).expect("ensured above");
        let (source, source_fp) = match session.stored.get(bench) {
            Some(b) => (b.source.clone(), b.source_fp),
            None => match job {
                Some(j) => (j.source.clone(), fnv64(j.source.as_bytes())),
                None => {
                    return err(format!(
                        "query: benchmark {bench:?} has not been analyzed in project \
                         {project:?} (send an analyze request first or include the source)"
                    ))
                }
            },
        };
        // (Re)build the demand bench on first touch or source change.
        let stale = session
            .demand
            .get(bench)
            .is_none_or(|db| db.source_fp != source_fp);
        if stale {
            let prog = match cfront::compile(&source) {
                Ok(p) => p,
                Err(e) => return err(format!("query: compile {bench:?}: {e}")),
            };
            let graph = match vdg::build::lower(&prog, &vdg::build::BuildOptions::default()) {
                Ok(g) => g,
                Err(e) => return err(format!("query: lower {bench:?}: {e}")),
            };
            let sol = DemandSolution::new(
                &graph,
                DemandConfig {
                    ci: alias::SolverSpec::ci().ci_config(),
                    ..Default::default()
                },
            );
            session.demand.insert(
                bench.to_string(),
                DemandBench {
                    source_fp,
                    source,
                    graph,
                    sol,
                },
            );
        }
        let db = session.demand.get(bench).expect("inserted above");
        let sites = db.graph.indirect_mem_ops();
        let file = cfront::SourceFile::new(bench, &db.source);
        #[allow(clippy::result_large_err)]
        let site_info = |i: usize| -> Result<SiteInfo, Response> {
            let &(node, is_write) = sites.get(i).ok_or_else(|| {
                err(format!(
                    "query: site index {i} out of range ({} indirect refs in {bench:?})",
                    sites.len()
                ))
            })?;
            let lc = file.line_col(db.graph.node(node).span.start);
            Ok(SiteInfo {
                index: i,
                line: lc.line,
                col: lc.col,
                kind: if is_write { "write" } else { "read" }.to_string(),
            })
        };
        let before = db.sol.stats();
        let answer = match *query {
            QueryKind::MayAlias { a, b: bi } => {
                let (sa, sb) = match (site_info(a), site_info(bi)) {
                    (Ok(x), Ok(y)) => (x, y),
                    (Err(e), _) | (_, Err(e)) => return e,
                };
                let (may, bases) = db.sol.may_alias(&db.graph, sites[a].0, sites[bi].0);
                let witnesses: Vec<String> = bases
                    .iter()
                    .map(|&x| stable_base_key(&db.graph, x))
                    .collect();
                QueryAnswer::MayAlias {
                    may_alias: may,
                    witnesses,
                    a: sa,
                    b: sb,
                }
            }
            QueryKind::ReferentsAt { site } => {
                let info = match site_info(site) {
                    Ok(x) => x,
                    Err(e) => return e,
                };
                let node = sites[site].0;
                // Already path-granular, display-rendered, and sorted —
                // byte-identical to the exhaustive CI rendering.
                QueryAnswer::Referents {
                    site: info,
                    referents: db.sol.loc_referents_rendered(&db.graph, node),
                }
            }
        };
        let after = db.sol.stats();
        let hit = after.demand_hits > before.demand_hits;
        session.demand_hits += after.demand_hits - before.demand_hits;
        session.demand_fallbacks += after.fallbacks - before.fallbacks;
        session.demand_budget_exhausted += after.budget_exhausted - before.budget_exhausted;
        session.last_used = Instant::now();
        Response::QueryResult {
            bench: bench.to_string(),
            analysis: analysis.to_string(),
            answer,
            demand: hit,
        }
    }

    fn stats(&mut self) -> Response {
        let mut projects: Vec<ProjectStats> = self
            .sessions
            .iter()
            .map(|(name, s)| ProjectStats {
                name: name.clone(),
                benches: s.cache.len() as u64,
                approx_bytes: s.cache.approx_bytes() as u64,
                idle_ms: s.last_used.elapsed().as_millis() as u64,
                demand_hits: s.demand_hits,
                demand_fallbacks: s.demand_fallbacks,
                restore_us: s.restore_us,
            })
            .collect();
        projects.sort_by(|a, b| a.name.cmp(&b.name));
        Response::Stats {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            requests: self.request_counts.clone(),
            evictions: self.evictions,
            mem_budget: self.mem_budget as u64,
            projects,
        }
    }

    fn evict(&mut self, project: Option<&str>) -> Response {
        match project {
            Some(p) => {
                if self.sessions.remove(p).is_none() {
                    return err(format!("evict: no in-memory session for project {p:?}"));
                }
            }
            None => self.sessions.clear(),
        }
        Response::Ok
    }

    /// Writes one project's state through to the disk store. A no-op
    /// when the session is clean: a replayed request changes nothing,
    /// so the file on disk is already current.
    fn persist(&mut self, project: &str) {
        let Some(store) = &self.store else { return };
        let Some(session) = self.sessions.get(project) else {
            return;
        };
        if !session.dirty {
            return;
        }
        let mut benches: Vec<StoredBench> = session.stored.values().cloned().collect();
        benches.sort_by(|a, b| a.name.cmp(&b.name));
        let state = StoredProject {
            spec_key: session.cache.spec_key().to_string(),
            benches,
        };
        // A failed save degrades to colder restarts, not wrong answers;
        // surface it on stderr and keep serving (the session stays
        // dirty, so the next request retries the write).
        match store.save(project, &state) {
            Ok(()) => {
                if let Some(s) = self.sessions.get_mut(project) {
                    s.dirty = false;
                }
            }
            Err(e) => eprintln!("ruf95 serve: store write failed for {project:?}: {e}"),
        }
    }

    /// Evicts least-recently-used sessions (never `current`) until the
    /// estimated session memory fits the budget. Evicted sessions keep
    /// their disk-store files, so they warm-start on return.
    fn enforce_budget(&mut self, current: &str) {
        if self.mem_budget == 0 {
            return;
        }
        loop {
            let total: usize = self.sessions.values().map(|s| s.cache.approx_bytes()).sum();
            if total <= self.mem_budget {
                return;
            }
            let victim = self
                .sessions
                .iter()
                .filter(|(name, _)| name.as_str() != current)
                .max_by_key(|(_, s)| s.last_used.elapsed())
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    self.sessions.remove(&name);
                    self.evictions += 1;
                }
                // Only the active session remains; it may exceed the
                // budget on its own, and evicting it would thrash.
                None => return,
            }
        }
    }
}

/// Per-benchmark fingerprints for an analyze response. `graph_fp` comes
/// from the session cache when available (it was just computed there);
/// fresh cross-check runs rebuild the index.
fn bench_fps(b: &BenchOutput, cached_graph_fp: Option<u64>) -> BenchFps {
    let graph_fp = cached_graph_fp.unwrap_or_else(|| GraphIndex::build(&b.graph).graph_fp);
    BenchFps {
        name: b.name.clone(),
        source_fp: fp_hex(fnv64(b.source.as_bytes())),
        graph_fp: fp_hex(graph_fp),
        solvers: b
            .solutions
            .iter()
            .map(|s| SolverFp {
                analysis: s.analysis.clone(),
                fp: s
                    .solution
                    .as_deref()
                    .map(|sol| fp_hex(solution_fingerprint(sol, &b.graph))),
                mode: s.mode.as_ref().map(|m| m.render()),
                pairs: s
                    .solution
                    .as_deref()
                    .and_then(|sol| sol.pairs())
                    .map(|p| p as u64),
            })
            .collect(),
    }
}

/// Like [`bench_fps`], but reuses the session's memoized solution
/// fingerprints and pair counts when (source_fp, graph_fp) match — a
/// replayed solution is byte-identical to the one fingerprinted before,
/// so re-walking it per request would only re-derive the same numbers.
/// Solver modes are always taken fresh from this run (they describe how
/// this particular request was satisfied).
fn bench_fps_memo(
    b: &BenchOutput,
    source_fp: u64,
    graph_fp: u64,
    memo: &mut HashMap<String, FpsMemo>,
) -> BenchFps {
    let hit = memo
        .get(&b.name)
        .is_some_and(|m| m.source_fp == source_fp && m.graph_fp == graph_fp);
    if !hit {
        memo.insert(
            b.name.clone(),
            FpsMemo {
                source_fp,
                graph_fp,
                solvers: b
                    .solutions
                    .iter()
                    .map(|s| {
                        (
                            s.analysis.clone(),
                            s.solution
                                .as_deref()
                                .map(|sol| solution_fingerprint(sol, &b.graph)),
                            s.solution
                                .as_deref()
                                .and_then(|sol| sol.pairs())
                                .map(|p| p as u64),
                        )
                    })
                    .collect(),
            },
        );
    }
    let m = &memo[&b.name];
    BenchFps {
        name: b.name.clone(),
        source_fp: fp_hex(source_fp),
        graph_fp: fp_hex(graph_fp),
        solvers: b
            .solutions
            .iter()
            .map(|s| {
                let cached = m.solvers.iter().find(|(a, _, _)| *a == s.analysis);
                SolverFp {
                    analysis: s.analysis.clone(),
                    fp: cached.and_then(|(_, fp, _)| *fp).map(fp_hex),
                    mode: s.mode.as_ref().map(|m| m.render()),
                    pairs: cached.and_then(|(_, _, p)| *p),
                }
            })
            .collect(),
    }
}

fn serve_info(run: &EngineRun, restored: bool) -> ServeInfo {
    let mut info = ServeInfo {
        restored,
        ..ServeInfo::default()
    };
    if let Some(st) = &run.report.incremental {
        info.benches_replayed = st.benches_replayed as u64;
        info.benches_seeded = st.benches_seeded as u64;
        info.benches_fresh = st.benches_fresh as u64;
        info.solutions_replayed = st.solutions_replayed as u64;
        info.funcs_reused = st.funcs_reused as u64;
        info.funcs_dirty = st.funcs_dirty as u64;
    }
    info
}

/// FNV-64 over one benchmark's diagnostics under every solver — the
/// byte-identity currency for check results across daemon restarts.
pub fn check_fingerprint(b: &BenchOutput, bc: &BenchChecks) -> u64 {
    let mut h = Fnv64::new();
    for row in &bc.rows {
        h.write_str(&row.solver);
        h.write_str(&diagnostics_value(b, bc, &row.solver).render());
    }
    h.finish()
}
