//! Proto-backed subcommands: one request type, two transports.
//!
//! Every analysis-bearing subcommand builds a [`proto::Request`] and
//! hands it to a [`Transport`]: in-process (a private
//! [`serve::Service`], optionally disk-backed via `--store`) or a
//! socket to a running daemon (`--connect HOST:PORT`). The rendering
//! below consumes only [`proto::Response`] values, so the output of
//! `ruf95 check` is byte-for-byte the same whether the analysis ran in
//! this process or in a daemon across the network.

use proto::json::Value;
use proto::{BenchCheckInfo, BenchFps, JobSpec, QueryKind, Request, Response};
use serve::{Client, Service, ServiceOptions};

/// Where requests go: a private in-process service or a daemon socket.
pub enum Transport {
    InProcess(Box<Service>),
    Socket(Client),
}

impl Transport {
    /// `--connect HOST:PORT` picks the socket; otherwise a fresh
    /// in-process service (disk-backed when `--store DIR` is given).
    pub fn from_flags(flags: &crate::Flags) -> Result<Transport, String> {
        if let Some(addr) = flags.get("connect") {
            return Ok(Transport::Socket(
                Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            ));
        }
        let svc = Service::new(ServiceOptions {
            store_dir: flags.get("store").map(Into::into),
            mem_budget: flags.get_parsed("mem-budget", 0usize)?,
            threads: flags.get_parsed("threads", 0usize)?,
        })
        .map_err(|e| format!("store: {e}"))?;
        Ok(Transport::InProcess(Box::new(svc)))
    }

    /// Sends one request; protocol-level failures come back as
    /// `Err(message)` so callers can `?` straight through.
    pub fn send(&mut self, req: &Request) -> Result<Response, String> {
        let resp = match self {
            Transport::InProcess(svc) => svc.handle(req),
            Transport::Socket(client) => client.request(req).map_err(|e| format!("daemon: {e}"))?,
        };
        match resp {
            Response::Error { message } => Err(message),
            other => Ok(other),
        }
    }
}

/// Builds the job list for a command that takes `--suite` or one
/// source, attaching bundled interpreter input for suite benchmarks.
pub fn jobs_from(cx: &crate::Ctx) -> Result<Vec<JobSpec>, String> {
    if cx.flags.has("suite") {
        return Ok(suite::benchmarks()
            .iter()
            .map(|b| JobSpec {
                name: b.name.to_string(),
                source: b.source.to_string(),
                input: b.input.to_vec(),
            })
            .collect());
    }
    if !cx.name.is_empty() {
        return Ok(vec![job_spec(&cx.name, &cx.source)]);
    }
    // Sourceless command (`needs_source: false`) given a positional
    // anyway, e.g. `ruf95 check bench:span`.
    let Some(spec) = cx.flags.positional.first() else {
        return Err(format!("expected {} or --suite", crate::SOURCE_ARG));
    };
    let (name, source) = crate::load_source(spec)?;
    Ok(vec![job_spec(&name, &source)])
}

/// One job, with the suite benchmark's stdin when the name matches.
pub fn job_spec(name: &str, source: &str) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        source: source.to_string(),
        input: suite::by_name(name)
            .map(|b| b.input.to_vec())
            .unwrap_or_default(),
    }
}

/// Re-renders a service-side failure for one local source with caret
/// diagnostics when it is a frontend error (the service reports plain
/// text; locally we can do better).
fn render_service_err(message: String, jobs: &[JobSpec]) -> String {
    for j in jobs {
        if let Err(e) = cfront::compile(&j.source) {
            let file = cfront::SourceFile::new(&j.name, &j.source);
            return e.render(&file);
        }
    }
    message
}

fn project_of(cx: &crate::Ctx) -> String {
    cx.flags.get("project").unwrap_or("cli").to_string()
}

// ---------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------

fn print_bench_fps(benches: &[BenchFps]) {
    for b in benches {
        println!("{}  source {}  graph {}", b.name, b.source_fp, b.graph_fp);
        for s in &b.solvers {
            println!(
                "  {:<12} {}  {}{}",
                s.analysis,
                s.fp.as_deref().unwrap_or("-"),
                s.mode.as_deref().unwrap_or("solved"),
                s.pairs.map(|p| format!("  {p} pairs")).unwrap_or_default()
            );
        }
    }
}

/// `ruf95 analyze`: run the full solver stack via the typed API and
/// print per-bench fingerprints plus the canonical report fingerprint.
pub fn cmd_analyze(cx: &crate::Ctx) -> Result<(), String> {
    let jobs = jobs_from(cx)?;
    let json = cx.flags.has("json");
    let req = Request::Analyze {
        project: project_of(cx),
        jobs: jobs.clone(),
        fresh: cx.flags.has("fresh"),
        want_report: json,
    };
    let mut transport = Transport::from_flags(&cx.flags)?;
    let resp = transport
        .send(&req)
        .map_err(|m| render_service_err(m, &jobs))?;
    if json {
        println!("{}", resp.to_value().render_pretty());
        return Ok(());
    }
    match resp {
        Response::Analyzed {
            benches,
            report_fp,
            serve,
            ..
        } => {
            print_bench_fps(&benches);
            println!(
                "replayed {} / fresh {} bench(es), {} solution(s) verbatim{}",
                serve.benches_replayed,
                serve.benches_fresh,
                serve.solutions_replayed,
                if serve.restored {
                    " (session restored from store)"
                } else {
                    ""
                }
            );
            println!("report_fp: {report_fp}");
            Ok(())
        }
        other => Err(format!("unexpected response: {other:?}")),
    }
}

// ---------------------------------------------------------------------
// query
// ---------------------------------------------------------------------

/// `ruf95 query`: point queries against a benchmark — `--site N` for
/// the referent set at one indirect ref, `--a N --b N` for a may-alias
/// verdict with witnesses. By default the source ships inline with the
/// query and the service answers demand-driven: no exhaustive fixpoint
/// runs unless the bench was already solved. `--exhaustive` restores
/// the analyze-then-lookup flow (and is implied for non-CI solvers,
/// which have no demand path).
pub fn cmd_query(cx: &crate::Ctx) -> Result<(), String> {
    let analysis = cx.flags.get("analysis").unwrap_or("ci").to_string();
    let query = match (cx.flags.get("site"), cx.flags.get("a"), cx.flags.get("b")) {
        (Some(_), None, None) => QueryKind::ReferentsAt {
            site: cx.flags.get_parsed("site", 0usize)?,
        },
        (None, Some(_), Some(_)) => QueryKind::MayAlias {
            a: cx.flags.get_parsed("a", 0usize)?,
            b: cx.flags.get_parsed("b", 0usize)?,
        },
        _ => return Err("expected --site N, or --a N --b N".into()),
    };
    let project = project_of(cx);
    let mut transport = Transport::from_flags(&cx.flags)?;
    let jobs = vec![job_spec(&cx.name, &cx.source)];
    let exhaustive = cx.flags.has("exhaustive") || !matches!(analysis.as_str(), "ci" | "demand");
    if exhaustive {
        // Make sure the daemon (or local service) has the bench solved:
        // analyzing an unchanged source is a cache replay, so this is
        // near-free on repeat.
        transport
            .send(&Request::Analyze {
                project: project.clone(),
                jobs: jobs.clone(),
                fresh: false,
                want_report: false,
            })
            .map_err(|m| render_service_err(m, &jobs))?;
    }
    let resp = transport.send(&Request::Query {
        project,
        bench: cx.name.clone(),
        analysis,
        query,
        job: (!exhaustive).then(|| jobs[0].clone()),
    })?;
    if cx.flags.has("json") {
        println!("{}", resp.to_value().render_pretty());
        return Ok(());
    }
    match resp {
        Response::QueryResult {
            analysis,
            answer,
            demand,
            ..
        } => {
            let analysis = if demand {
                format!("{analysis}, demand")
            } else {
                analysis
            };
            match answer {
                proto::QueryAnswer::MayAlias {
                    may_alias,
                    witnesses,
                    a,
                    b,
                } => {
                    println!(
                        "[{analysis}] {} {}:{} vs {} {}:{} — {}",
                        a.kind,
                        a.line,
                        a.col,
                        b.kind,
                        b.line,
                        b.col,
                        if may_alias { "MAY ALIAS" } else { "no alias" }
                    );
                    for w in witnesses {
                        println!("  witness: {w}");
                    }
                }
                proto::QueryAnswer::Referents { site, referents } => {
                    println!(
                        "[{analysis}] {} at {}:{} — {} referent(s)",
                        site.kind,
                        site.line,
                        site.col,
                        referents.len()
                    );
                    for r in referents {
                        println!("  {r}");
                    }
                }
            }
            Ok(())
        }
        other => Err(format!("unexpected response: {other:?}")),
    }
}

// ---------------------------------------------------------------------
// check
// ---------------------------------------------------------------------

/// `ruf95 check` over the typed API: same table, diagnostics, and exit
/// codes as ever, but the analysis can run in-process or in a daemon.
pub fn cmd_check(cx: &crate::Ctx) -> Result<(), String> {
    let jobs = jobs_from(cx)?;
    let analysis = cx.flags.get("analysis").unwrap_or("ci").to_string();
    let json = cx.flags.has("json");
    let req = Request::Check {
        project: project_of(cx),
        jobs: jobs.clone(),
        analysis: analysis.clone(),
        want_report: json,
    };
    let mut transport = Transport::from_flags(&cx.flags)?;
    let resp = transport
        .send(&req)
        .map_err(|m| render_service_err(m, &jobs))?;
    let Response::Checked {
        benches,
        monotone_violation,
        refuted,
        report,
        ..
    } = resp
    else {
        return Err("unexpected response to check".into());
    };
    if json {
        let diags = Value::obj(benches.iter().map(|b| (b.name.as_str(), b.diags.clone())));
        let doc = Value::obj([("report", report.into()), ("diagnostics", diags)]);
        println!("{}", doc.render_pretty());
    } else {
        for b in &benches {
            println!("== {} ==", b.name);
            print!("{}", b.table);
            if b.rendered.is_empty() {
                println!("[{analysis}] no diagnostics");
            } else {
                print!("{}", b.rendered);
            }
            println!();
        }
        let (total, tp, fp, unreach) = totals_for(&benches, &analysis);
        println!(
            "[{analysis}] {total} diagnostic(s): {tp} true positive(s), \
             {fp} false positive(s), {unreach} unreachable"
        );
    }
    if !refuted.is_empty() {
        return Err(format!(
            "oracle-refuted diagnostics (missed true positives) in: {}",
            refuted.join(", ")
        ));
    }
    if let Some(v) = monotone_violation {
        return Err(format!("false-positive monotonicity violated: {v}"));
    }
    Ok(())
}

/// Diagnostic totals for one solver (or every solver under `"all"`)
/// across all checked benchmarks.
fn totals_for(benches: &[BenchCheckInfo], analysis: &str) -> (u64, u64, u64, u64) {
    let mut totals = (0, 0, 0, 0);
    for s in benches
        .iter()
        .flat_map(|b| &b.solvers)
        .filter(|s| analysis == "all" || s.analysis == analysis)
    {
        totals.0 += s.diags.iter().sum::<u64>();
        totals.1 += s.true_positives;
        totals.2 += s.false_positives;
        totals.3 += s.unreachable;
    }
    totals
}

// ---------------------------------------------------------------------
// incremental
// ---------------------------------------------------------------------

/// `ruf95 incremental` over the typed API: pushes each edited version
/// through one persistent session (in-process or a daemon's) and
/// cross-checks every step against a cache-bypassing fresh analysis.
pub fn cmd_incremental(cx: &crate::Ctx) -> Result<(), String> {
    let edits: usize = cx.flags.get_parsed("edits", 3)?;
    let seed: u64 = cx.flags.get_parsed("seed", 1995)?;
    let json = cx.flags.has("json");
    let steps: Vec<(String, String)> = match cx.flags.get("next") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            vec![(format!("replace with {path}"), text)]
        }
        None => suite::edit::edit_chain(&cx.source, seed, edits)
            .into_iter()
            .map(|s| {
                (
                    format!("{} [{}]", s.edit.description, s.edit.kind.name()),
                    s.source,
                )
            })
            .collect(),
    };
    if steps.is_empty() {
        return Err("no applicable edit found (try another --seed)".into());
    }
    let project = cx.flags.get("project").unwrap_or("incremental").to_string();
    let mut transport = Transport::from_flags(&cx.flags)?;
    let base = vec![job_spec(&cx.name, &cx.source)];
    transport
        .send(&Request::Analyze {
            project: project.clone(),
            jobs: base.clone(),
            fresh: false,
            want_report: false,
        })
        .map_err(|m| render_service_err(m, &base))?;
    if !json {
        println!("base: {} analyzed, cache primed", cx.name);
    }
    let mut rows = Vec::new();
    let mut mismatches = 0usize;
    for (i, (desc, source)) in steps.iter().enumerate() {
        let jobs = vec![job_spec(&cx.name, source)];
        let inc = transport
            .send(&Request::Analyze {
                project: project.clone(),
                jobs: jobs.clone(),
                fresh: false,
                want_report: json,
            })
            .map_err(|m| render_service_err(m, &jobs))?;
        let fresh = transport
            .send(&Request::Analyze {
                project: project.clone(),
                jobs: jobs.clone(),
                fresh: true,
                want_report: false,
            })
            .map_err(|m| render_service_err(m, &jobs))?;
        let (
            Response::Analyzed {
                benches: inc_benches,
                serve,
                report,
                ..
            },
            Response::Analyzed {
                benches: fresh_benches,
                ..
            },
        ) = (inc, fresh)
        else {
            return Err("unexpected response to analyze".into());
        };
        // Incremental reuse must be invisible: every solver fingerprint
        // agrees with the cache-bypassing run.
        let matches = solver_fps(&inc_benches) == solver_fps(&fresh_benches);
        if !matches {
            mismatches += 1;
        }
        if json {
            rows.push(Value::obj([
                ("edit", desc.as_str().into()),
                ("matches_fresh", matches.into()),
                ("report", report.into()),
            ]));
            continue;
        }
        println!("\nstep {}/{}: {}", i + 1, steps.len(), desc);
        let solvers: Vec<_> = inc_benches.iter().flat_map(|b| &b.solvers).collect();
        for s in &solvers {
            println!("  {:<12} {}", s.analysis, s.mode.as_deref().unwrap_or("-"));
        }
        let replayed = serve.solutions_replayed as usize;
        println!(
            "  {replayed} solution(s) replayed verbatim, {} solved fresh",
            solvers.len() - replayed
        );
        println!(
            "  from-scratch cross-check: {}",
            if matches {
                "identical solutions"
            } else {
                "MISMATCH"
            }
        );
    }
    if json {
        println!("{}", Value::Arr(rows).render_pretty());
    }
    if mismatches == 0 {
        Ok(())
    } else {
        Err(format!(
            "{mismatches} step(s) diverged from from-scratch analysis"
        ))
    }
}

fn solver_fps(benches: &[BenchFps]) -> Vec<(String, String, Option<String>)> {
    benches
        .iter()
        .flat_map(|b| {
            b.solvers
                .iter()
                .map(move |s| (b.name.clone(), s.analysis.clone(), s.fp.clone()))
        })
        .collect()
}

// ---------------------------------------------------------------------
// serve / client
// ---------------------------------------------------------------------

/// `ruf95 serve`: bind and run the daemon until a shutdown request.
pub fn cmd_serve(cx: &crate::Ctx) -> Result<(), String> {
    let addr = cx.flags.get("addr").unwrap_or("127.0.0.1:7095");
    let svc = Service::new(ServiceOptions {
        store_dir: cx.flags.get("store").map(Into::into),
        mem_budget: cx.flags.get_parsed("mem-budget", 0usize)?,
        threads: cx.flags.get_parsed("threads", 0usize)?,
    })
    .map_err(|e| format!("store: {e}"))?;
    serve::daemon::run(svc, addr).map_err(|e| format!("serve {addr}: {e}"))
}

/// `ruf95 client`: raw protocol access — newline-delimited JSON
/// requests from a file (or stdin), responses to stdout. The requests
/// are decoded locally first, so typos fail fast with a real message
/// instead of a daemon round-trip.
pub fn cmd_client(cx: &crate::Ctx) -> Result<(), String> {
    let addr = cx
        .flags
        .get("connect")
        .ok_or("client requires --connect HOST:PORT")?;
    let text = match cx.flags.positional.first().map(String::as_str) {
        Some("-") | None => {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        }
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
    };
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let req = Request::from_value(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let resp = client
            .request(&req)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        println!("{}", resp.to_value().render());
    }
    Ok(())
}

/// Resumable ecosystem-scale campaign: chunked differential jobs with
/// panic isolation, a checksummed journal, quarantine, and a
/// deduplicated `CAMPAIGN_report.json`. Exit is nonzero when the
/// completed report contains any violation or any quarantined job, so
/// CI can gate on the command directly.
pub fn cmd_campaign(cx: &crate::Ctx) -> Result<(), String> {
    let defaults = engine::CampaignConfig::default();
    let mut fuzz = engine::FuzzConfig {
        gen: if cx.flags.has("threaded") {
            suite::generator::GenConfig::threaded()
        } else if cx.flags.has("default-gen") {
            suite::generator::GenConfig::default()
        } else {
            suite::generator::GenConfig::campaign()
        },
        corpus_stats: true,
        ..engine::FuzzConfig::default()
    };
    fuzz.budget_ms = cx.flags.get_parsed("budget-ms", fuzz.budget_ms)?;
    fuzz.max_steps = cx.flags.get_parsed("max-steps", fuzz.max_steps)?;
    fuzz.interp_steps = cx.flags.get_parsed("interp-steps", fuzz.interp_steps)?;
    fuzz.shrink = !cx.flags.has("no-shrink");
    let cfg = engine::CampaignConfig {
        seeds: cx.flags.get_parsed("seeds", defaults.seeds)?,
        start_seed: cx.flags.get_parsed("start-seed", 0)?,
        chunk: cx.flags.get_parsed("chunk", defaults.chunk)?,
        threads: cx.flags.get_parsed("threads", 0)?,
        dir: cx.flags.get("dir").unwrap_or("campaign").into(),
        fuzz,
        max_chunks: match cx.flags.get("max-chunks") {
            Some(_) => Some(cx.flags.get_parsed("max-chunks", 0)?),
            None => None,
        },
        report_out: cx.flags.get("out").map(Into::into),
        panic_seed: match cx.flags.get("panic-seed") {
            Some(_) => Some(cx.flags.get_parsed("panic-seed", 0)?),
            None => None,
        },
        progress: !cx.flags.has("quiet"),
    };
    let outcome = engine::campaign::run(&cfg).map_err(|e| e.to_string())?;
    print!("{}", outcome.summary());
    let Some(report) = &outcome.report else {
        return Ok(());
    };
    println!("report: {}", outcome.report_path.display());
    if !report.quarantine.is_empty() {
        println!("quarantine: {}", outcome.quarantine_dir.display());
    }
    if cx.flags.has("json") {
        println!("{}", report.to_value().render_pretty());
    }
    let bad = report.violations_total > 0 || !report.quarantine.is_empty();
    if bad {
        Err(format!(
            "campaign found {} violation(s) and quarantined {} job(s)",
            report.violations_total,
            report.quarantine.len()
        ))
    } else {
        Ok(())
    }
}
