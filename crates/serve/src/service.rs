//! The transport-agnostic request dispatcher.
//!
//! [`Service::handle`] maps one [`proto::Request`] to one
//! [`proto::Response`]. The CLI calls it directly for in-process
//! dispatch; the TCP daemon calls it behind a mutex, one request at a
//! time — which is also the concurrency argument: requests are strictly
//! serialized, so N interleaved clients observe exactly the answers a
//! serial caller would.
//!
//! Sessions: each named project owns a [`engine::SummaryCache`],
//! isolated from every other project. Its entry per benchmark
//! ([`engine::ProgramEntry`]) is the one record of that benchmark: the
//! job, the solved artifacts that answer queries, the solution and
//! check fingerprints, and the check rows. Under a configured memory
//! budget the least-recently-used sessions are evicted; their
//! disk-store records survive, so the next request restores the
//! project's jobs and fingerprints.
//!
//! Persistence is write-through: after every analyze/check that changed
//! a persisted field, the project's jobs and fingerprints are written
//! to the [`crate::store::Store`]. A restored benchmark is solved cold
//! when a request first names it, and that solve is checked against
//! the stored fingerprints: a difference for unchanged source and input
//! is a *restore mismatch*, reported and counted, and the fresh answer
//! wins. A corrupt or stale store can cost time, never correctness.

use crate::store::{LoadOutcome, Store, StoredBench, StoredProject};
use alias::fingerprint::{fnv64, stable_base_key, Fnv64, GraphIndex};
use alias::{DemandConfig, DemandSolution};
use engine::check::{diagnostics_value, fp_monotone_violation, render_diagnostics};
use engine::incremental::{solution_fps, SolverFps};
use engine::{BenchOutput, EngineRun, Job, ProgramEntry, SummaryCache};
use proto::{
    fp_hex, BenchCheckInfo, BenchFps, JobSpec, ProjectStats, QueryAnswer, QueryKind, Request,
    Response, ServeInfo, SiteInfo, SolverCheck, SolverFp,
};
use std::collections::HashMap;
use std::time::Instant;
use vdg::graph::{BaseId, Graph, NodeId};

pub use engine::check::check_fingerprint;

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
    /// Benchmarks restored from disk that no analyze or check has
    /// named yet. The first request naming one solves it cold and
    /// checks the solve against this record
    /// ([`Session::check_restored`]); a save writes the rest back as
    /// they are.
    untouched: HashMap<String, StoredBench>,
    last_used: Instant,
    /// Whether a persisted field has changed since the last successful
    /// save. A pure-replay request leaves it clear, so warm requests
    /// skip the store write entirely.
    dirty: bool,
    /// Demand-query state per benchmark: the compiled graph plus the
    /// growing partial solution, for queries that arrive before any
    /// exhaustive analyze.
    demand: HashMap<String, DemandBench>,
    /// The session-wide serving counters: whether it was restored from
    /// disk, the restore cost and mismatches, and the demand-query
    /// outcomes. An analyze response adds its own per-request counts.
    info: ServeInfo,
}

impl Session {
    /// Checks the cold solve `b` of a restored benchmark against its
    /// stored record. For unchanged source and input, the entry takes
    /// over the stored check fingerprint, and each stored solution
    /// fingerprint the solve does not reproduce is a restore mismatch,
    /// reported on stderr and counted. The fresh answer wins either
    /// way, and the changed record makes the next save rewrite it.
    fn check_restored(&mut self, project: &str, b: &BenchOutput, stored: &StoredBench) {
        let e = self.cache.get(&b.name).expect("run absorbed");
        if (e.source_hash, &e.input) != (stored.source_fp, &stored.input) {
            return;
        }
        if let Some(fp) = stored.check_fp {
            self.cache.restore_check_fp(&b.name, fp);
        }
        let e = self.cache.fingerprinted(b).expect("run absorbed");
        for (analysis, fresh, _) in e.fps.iter().flatten() {
            let was = stored.solution_fps.iter().find(|(a, _)| a == analysis);
            let was = was.and_then(|&(_, fp)| fp);
            if was != *fresh {
                let hex = |fp: Option<u64>| fp.map_or_else(|| "none".into(), fp_hex);
                eprintln!(
                    "ruf95 serve: restore mismatch for {project:?}: bench {:?}, solver {analysis}: \
                     stored {}, fresh {}",
                    b.name,
                    hex(was),
                    hex(*fresh)
                );
                self.info.restore_mismatches += 1;
            }
        }
    }

    /// The source, input and source fingerprint of a benchmark this
    /// session knows, from the cache or the untouched restored benches.
    fn known(&self, bench: &str) -> Option<(&str, &[u8], u64)> {
        match self.cache.get(bench) {
            Some(e) => Some((&e.source, &e.input, e.source_hash)),
            None => self
                .untouched
                .get(bench)
                .map(|b| (b.source.as_str(), b.input.as_slice(), b.source_fp)),
        }
    }
}

/// One benchmark's demand-query state (see [`Session::demand`]).
struct DemandBench {
    /// FNV-64 of `source`; a query resolving to different source text
    /// (edited store entry, different inline job) rebuilds the state.
    source_fp: u64,
    source: String,
    graph: Graph,
    sol: DemandSolution,
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

/// The engine jobs of a request's job list, which must not be empty.
#[allow(clippy::result_large_err)]
fn engine_jobs(jobs: &[JobSpec], verb: &str) -> Result<Vec<Job>, Response> {
    if jobs.is_empty() {
        return Err(err(format!("{verb}: empty job list")));
    }
    Ok(jobs
        .iter()
        .map(|j| Job {
            name: j.name.clone(),
            source: j.source.clone(),
            input: j.input.clone(),
        })
        .collect())
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

    /// Rejects an `analysis` that names no configured solver and is not
    /// `extra`, the request's own vocabulary (`demand` for queries,
    /// `all` for checks), before any session or store is touched.
    #[allow(clippy::result_large_err)]
    fn known_analysis(
        &self,
        verb: &str,
        analysis: &str,
        extra: &'static str,
    ) -> Result<(), Response> {
        let names: Vec<&str> = self.engine.solver_names().chain([extra]).collect();
        if names.contains(&analysis) {
            return Ok(());
        }
        Err(err(format!(
            "{verb}: unknown analysis {analysis:?} (want one of: {})",
            names.join(", ")
        )))
    }

    fn count(&mut self, name: &str) {
        match self.request_counts.iter_mut().find(|(k, _)| k == name) {
            Some((_, n)) => *n += 1,
            None => self.request_counts.push((name.to_string(), 1)),
        }
    }

    /// Fetches or creates a project's session. A new session whose
    /// project has compatible disk-store state holds the stored
    /// benchmarks, so requests may name them without resending them.
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
                untouched: HashMap::new(),
                last_used: Instant::now(),
                dirty: false,
                demand: HashMap::new(),
                info: ServeInfo::default(),
            };
            if let Some(store) = &self.store {
                let t = Instant::now();
                if let LoadOutcome::Loaded(p) = store.load(project) {
                    if p.spec_key == session.cache.spec_key() {
                        session.untouched =
                            p.benches.into_iter().map(|b| (b.name.clone(), b)).collect();
                        session.info.restored = true;
                    }
                    // A spec-key mismatch silently cold-starts: the
                    // stored fingerprints were computed under different
                    // solver knobs and pin nothing here.
                }
                // Rejected/Missing → cold start; the next save
                // overwrites a bad file.
                session.info.restore_us += t.elapsed().as_micros() as u64;
            }
            self.sessions.insert(project.to_string(), session);
        }
        let s = self.sessions.get_mut(project).expect("inserted above");
        s.last_used = Instant::now();
        Ok(())
    }

    /// Runs `jobs` incrementally in `project`'s session and lets
    /// `respond` build the answer from the run. Then marks the session
    /// dirty if any job changed a persisted field of its benchmark,
    /// writes the project through, and enforces the memory budget.
    fn run_jobs(
        &mut self,
        project: &str,
        jobs: &[JobSpec],
        verb: &str,
        respond: impl FnOnce(&mut Session, &mut EngineRun) -> Response,
    ) -> Response {
        let engine_jobs = match engine_jobs(jobs, verb) {
            Ok(j) => j,
            Err(e) => return e,
        };
        if let Err(e) = self.ensure_session(project) {
            return e;
        }
        let session = self.sessions.get_mut(project).expect("ensured above");
        // What the store holds for each job now: a restored record, or
        // the cache entry's.
        let before: Vec<Option<StoredBench>> = jobs
            .iter()
            .map(|j| match session.untouched.get(&j.name) {
                Some(r) => Some(r.clone()),
                None => session.cache.get(&j.name).map(|e| stored_bench(&j.name, e)),
            })
            .collect();
        let mut run = match self
            .engine
            .analyze_incremental_with(&mut session.cache, &engine_jobs)
        {
            Ok(r) => r,
            Err(e) => return err(format!("{verb}: {e}")),
        };
        for b in &run.benches {
            if let Some(r) = session.untouched.remove(&b.name) {
                session.check_restored(project, b, &r);
            }
        }
        let resp = respond(session, &mut run);
        for (b, before) in run.benches.iter().zip(before) {
            let after = session
                .cache
                .fingerprinted(b)
                .map(|e| stored_bench(&b.name, e));
            session.dirty |= after != before;
            // The solved entry supersedes any demand-query state (and
            // answers future queries by lookup).
            session.demand.remove(&b.name);
        }
        self.persist(project);
        self.enforce_budget(project);
        resp
    }

    fn analyze(
        &mut self,
        project: &str,
        jobs: &[JobSpec],
        fresh: bool,
        want_report: bool,
    ) -> Response {
        let t0 = Instant::now();
        if fresh {
            // Cache-bypassing cross-check: solve from scratch without
            // touching (or requiring) the session.
            let run = match engine_jobs(jobs, "analyze").map(|jobs| self.engine.run(&jobs)) {
                Ok(Ok(r)) => r,
                Ok(Err(e)) => return err(format!("analyze: {e}")),
                Err(e) => return e,
            };
            let benches = run
                .benches
                .iter()
                .map(|b| {
                    let graph_fp = GraphIndex::build(&b.graph).graph_fp;
                    bench_fps(b, fnv64(b.source.as_bytes()), graph_fp, &solution_fps(b))
                })
                .collect();
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
        self.run_jobs(project, jobs, "analyze", |session, run| {
            let serve = serve_info(run, &session.info, t0.elapsed().as_micros() as u64);
            run.report.serve = Some(serve.clone());
            let benches = run
                .benches
                .iter()
                .map(|b| {
                    let e = session.cache.fingerprinted(b).expect("run absorbed");
                    let fps = e.fps.as_deref().expect("filled above");
                    bench_fps(b, e.source_hash, e.graph_fp, fps)
                })
                .collect();
            Response::Analyzed {
                project: project.to_string(),
                benches,
                report_fp: fp_hex(fnv64(run.report.fingerprint().as_bytes())),
                report: want_report.then(|| run.report.to_value()),
                serve,
            }
        })
    }

    fn check(
        &mut self,
        project: &str,
        jobs: &[JobSpec],
        analysis: &str,
        want_report: bool,
    ) -> Response {
        if let Err(e) = self.known_analysis("check", analysis, "all") {
            return e;
        }
        self.run_jobs(project, jobs, "check", |session, run| {
            let checks = run.run_checks_cached(&mut session.cache);
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
            // The per-bench diagnostics fingerprints, memoized in the
            // entries beside the rows, combine into the response's.
            let mut combined = Fnv64::new();
            for b in &run.benches {
                let fp = session.cache.get(&b.name).and_then(ProgramEntry::check_fp);
                combined.write_str(&b.name);
                combined.write_u64(fp.expect("checked above"));
            }
            let refuted: Vec<String> = run
                .benches
                .iter()
                .zip(&checks)
                .filter(|(_, bc)| bc.any_refuted())
                .map(|(b, _)| b.name.clone())
                .collect();
            Response::Checked {
                project: project.to_string(),
                benches,
                check_fp: fp_hex(combined.finish()),
                monotone_violation: fp_monotone_violation(&checks),
                refuted,
                report: want_report.then(|| run.report.to_value()),
            }
        })
    }

    fn query(
        &mut self,
        project: &str,
        bench: &str,
        analysis: &str,
        query: &QueryKind,
        job: Option<&JobSpec>,
    ) -> Response {
        if let Err(e) = self.known_analysis("query", analysis, "demand") {
            return e;
        }
        if let Err(e) = self.ensure_session(project) {
            return e;
        }
        // The hot path: a CI-vocabulary query against a bench with no
        // solved entry is answered demand-driven — no exhaustive
        // fixpoint, microsecond first-query latency. (`demand` names
        // the path explicitly; `ci` takes it because the demand answers
        // are exactly the CI answers.)
        let session = &self.sessions[project];
        let solved = session.cache.get(bench).is_some();
        if !solved && matches!(analysis, "ci" | "demand") {
            return self.query_demand(project, bench, analysis, query, job);
        }
        // Exhaustive path: a non-CI analysis needs its solver run, and
        // an already-solved bench answers by plain lookup. A restored
        // session may know the bench only from disk (or from the
        // request's inline job): analyze it before answering.
        if !solved {
            let known = session.known(bench).map(|(source, input, _)| JobSpec {
                name: bench.to_string(),
                source: source.to_string(),
                input: input.to_vec(),
            });
            let Some(job) = known.or_else(|| job.cloned()) else {
                return err(format!(
                    "query: benchmark {bench:?} has not been analyzed in project \
                     {project:?} (send an analyze request first)"
                ));
            };
            if let Response::Error { message } = self.analyze(project, &[job], false, false) {
                return err(format!("query: demand analyze failed: {message}"));
            }
        }
        let e = self.sessions[project]
            .cache
            .get(bench)
            .expect("analyzed above");
        let graph = e.graph();
        // "demand" is query vocabulary, not a solved spectrum; its
        // exhaustive twin is plain CI.
        let lookup = if analysis == "demand" { "ci" } else { analysis };
        let Some(sol) = e.solution(lookup) else {
            return err(format!(
                "query: no {lookup:?} solution for {bench:?} (failed solve)"
            ));
        };
        let file = cfront::SourceFile::new(bench, e.source.as_str());
        let witnesses = |a, b| {
            // Both sides sorted+deduped by the Solution contract.
            let bases_b = sol.loc_referent_bases(graph, b);
            let mut bases = sol.loc_referent_bases(graph, a);
            bases.retain(|x| bases_b.binary_search(x).is_ok());
            bases
        };
        let referents = |node| {
            // Path-granular when the solver has per-point sets, stable
            // base keys for the unification baseline.
            let mut referents: Vec<String> =
                match (sol.referents_at(graph, node), sol.path_universe()) {
                    (Some(paths), Some(table)) => {
                        paths.iter().map(|&p| table.display(p, graph)).collect()
                    }
                    _ => sol
                        .loc_referent_bases(graph, node)
                        .iter()
                        .map(|&x| stable_base_key(graph, x))
                        .collect(),
                };
            referents.sort();
            referents
        };
        let answer = match answer(graph, &file, query, witnesses, referents) {
            Ok(a) => a,
            Err(e) => return e,
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
    /// the query touches. The source comes from the session when it
    /// knows the bench (restored from the store, or a failed analyze),
    /// else from the request's inline job. Solved state is memoized per
    /// bench, so repeated queries widen (never recompute) the solved
    /// region; a later exhaustive analyze evicts the entry.
    fn query_demand(
        &mut self,
        project: &str,
        bench: &str,
        analysis: &str,
        query: &QueryKind,
        job: Option<&JobSpec>,
    ) -> Response {
        let session = self.sessions.get_mut(project).expect("ensured above");
        let known = session
            .known(bench)
            .map(|(source, _, fp)| (source, fp))
            .or_else(|| job.map(|j| (j.source.as_str(), fnv64(j.source.as_bytes()))));
        let Some((source, source_fp)) = known else {
            return err(format!(
                "query: benchmark {bench:?} has not been analyzed in project \
                 {project:?} (send an analyze request first or include the source)"
            ));
        };
        // (Re)build the demand bench on first touch or source change.
        let stale = session
            .demand
            .get(bench)
            .is_none_or(|db| db.source_fp != source_fp);
        if stale {
            let source = source.to_string();
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
        let graph = &db.graph;
        let file = cfront::SourceFile::new(bench, db.source.as_str());
        let before = db.sol.stats();
        let answer = answer(
            graph,
            &file,
            query,
            |a, b| db.sol.may_alias(graph, a, b).1,
            // Already path-granular, display-rendered, and sorted —
            // byte-identical to the exhaustive CI rendering.
            |node| db.sol.loc_referents_rendered(graph, node),
        );
        let answer = match answer {
            Ok(a) => a,
            Err(e) => return e,
        };
        let after = db.sol.stats();
        let hit = after.demand_hits > before.demand_hits;
        let info = &mut session.info;
        info.demand_hits += after.demand_hits - before.demand_hits;
        info.demand_fallbacks += after.fallbacks - before.fallbacks;
        info.demand_budget_exhausted += after.budget_exhausted - before.budget_exhausted;
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
                demand_hits: s.info.demand_hits,
                demand_fallbacks: s.info.demand_fallbacks,
                restore_us: s.info.restore_us,
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

    /// Writes one project's state through to the disk store: every
    /// cache entry, plus the untouched restored benches as they were. A
    /// no-op when the session is clean: a replayed request changes
    /// nothing, so the file on disk is already current.
    fn persist(&mut self, project: &str) {
        let Some(store) = &self.store else { return };
        let Some(session) = self.sessions.get_mut(project) else {
            return;
        };
        if !session.dirty {
            return;
        }
        let mut benches: Vec<StoredBench> = session.untouched.values().cloned().collect();
        benches.extend(session.cache.iter().map(|(name, e)| stored_bench(name, e)));
        benches.sort_by(|a, b| a.name.cmp(&b.name));
        let state = StoredProject {
            spec_key: session.cache.spec_key().to_string(),
            benches,
        };
        // A failed save degrades to colder restarts, not wrong answers;
        // surface it on stderr and keep serving (the session stays
        // dirty, so the next request retries the write).
        match store.save(project, &state) {
            Ok(()) => session.dirty = false,
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

/// The record a save writes for entry `e` of benchmark `name`. Equal
/// records before and after a request mean the file on disk is still
/// current.
fn stored_bench(name: &str, e: &ProgramEntry) -> StoredBench {
    StoredBench {
        name: name.to_string(),
        source: e.source.clone(),
        input: e.input.clone(),
        source_fp: e.source_hash,
        graph_fp: e.graph_fp,
        solution_fps: e
            .fps
            .iter()
            .flatten()
            .map(|(a, fp, _)| (a.clone(), *fp))
            .collect(),
        check_fp: e.check_fp(),
    }
}

/// Per-benchmark fingerprints for an analyze response: the solver modes
/// come from this run (they describe how this request was satisfied),
/// the fingerprints and pair counts from `fps`.
fn bench_fps(b: &BenchOutput, source_fp: u64, graph_fp: u64, fps: &[SolverFps]) -> BenchFps {
    BenchFps {
        name: b.name.clone(),
        source_fp: fp_hex(source_fp),
        graph_fp: fp_hex(graph_fp),
        solvers: b
            .solutions
            .iter()
            .map(|s| {
                let memo = fps.iter().find(|(a, _, _)| *a == s.analysis);
                SolverFp {
                    analysis: s.analysis.clone(),
                    fp: memo.and_then(|(_, fp, _)| *fp).map(fp_hex),
                    mode: s.mode.as_ref().map(|m| m.render()),
                    pairs: memo.and_then(|(_, _, p)| *p),
                }
            })
            .collect(),
    }
}

/// Answers `query` about the indirect memory-reference sites of
/// `graph`, located in `file`: `witnesses(a, b)` gives the sorted bases
/// both sites' locations may reference, `referents(site)` the rendered
/// referents of one site's location.
#[allow(clippy::result_large_err)]
fn answer(
    graph: &Graph,
    file: &cfront::SourceFile,
    query: &QueryKind,
    witnesses: impl FnOnce(NodeId, NodeId) -> Vec<BaseId>,
    referents: impl FnOnce(NodeId) -> Vec<String>,
) -> Result<QueryAnswer, Response> {
    let sites = graph.indirect_mem_ops();
    let site_info = |i: usize| {
        let &(node, is_write) = sites.get(i).ok_or_else(|| {
            err(format!(
                "query: site index {i} out of range ({} indirect refs in {:?})",
                sites.len(),
                file.name()
            ))
        })?;
        let lc = file.line_col(graph.node(node).span.start);
        Ok(SiteInfo {
            index: i,
            line: lc.line,
            col: lc.col,
            kind: if is_write { "write" } else { "read" }.to_string(),
        })
    };
    Ok(match *query {
        QueryKind::MayAlias { a, b } => {
            let (sa, sb) = (site_info(a)?, site_info(b)?);
            let witnesses: Vec<String> = witnesses(sites[a].0, sites[b].0)
                .iter()
                .map(|&x| stable_base_key(graph, x))
                .collect();
            QueryAnswer::MayAlias {
                may_alias: !witnesses.is_empty(),
                witnesses,
                a: sa,
                b: sb,
            }
        }
        QueryKind::ReferentsAt { site } => QueryAnswer::Referents {
            site: site_info(site)?,
            referents: referents(sites[site].0),
        },
    })
}

/// The session-wide counters `session`, completed with one analyze
/// request's latency and the incremental counts of its `run`.
fn serve_info(run: &EngineRun, session: &ServeInfo, latency_us: u64) -> ServeInfo {
    let mut info = ServeInfo {
        latency_us,
        ..session.clone()
    };
    if let Some(st) = &run.report.incremental {
        info.benches_replayed = st.benches_replayed as u64;
        info.benches_fresh = st.benches_fresh as u64;
        info.solutions_replayed = st.solutions_replayed as u64;
        info.funcs_dirty = st.funcs_dirty as u64;
    }
    info
}
