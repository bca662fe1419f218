//! # proto — the typed request/response API of the analysis service
//!
//! One schema, two transports. Every analysis entry point — the
//! `ruf95` CLI subcommands, the in-process [`Service`] dispatcher in
//! `crates/serve`, and the `ruf95 serve` TCP daemon — speaks the same
//! [`Request`]/[`Response`] enums. The CLI constructs a `Request`
//! whether or not a daemon is involved; with `--connect` the request
//! rides a socket, without it the same value dispatches in process.
//!
//! ```text
//!   CLI flags ──▶ Request ──▶ { in-process Service | TCP daemon } ──▶ Response
//!                    │                                                  │
//!                    └────────── newline-delimited JSON frames ─────────┘
//! ```
//!
//! ## Wire format
//!
//! One frame = one JSON object on one line, terminated by `\n`. Every
//! request carries `"v": 2` (the protocol version); a server rejects
//! frames with any other version rather than guessing. 64-bit
//! fingerprints are encoded as 16-digit lowercase hex *strings*
//! ([`fp_hex`]/[`parse_fp_hex`]) so no JSON consumer ever loses
//! precision to a float mantissa. Interpreter input bytes ride as hex
//! strings for the same reason.
//!
//! [`Service`]: https://docs.rs/serve

#![warn(missing_docs)]

pub mod json;

use json::Value;
use std::fmt;
use std::io::{BufRead, Write};

/// Protocol version carried in every request frame. `v2` accompanied
/// the unified per-solver summary vocabulary: frames and stores written
/// under `v1` (CI-only summaries) are rejected rather than half-read.
pub const VERSION: i64 = 2;

/// Renders a 64-bit fingerprint as fixed-width lowercase hex.
pub fn fp_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses a [`fp_hex`]-encoded fingerprint.
pub fn parse_fp_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Renders bytes as lowercase hex.
pub fn bytes_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses [`bytes_hex`]-encoded bytes.
pub fn parse_bytes_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

/// A malformed or version-mismatched frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn de(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

fn need_str(v: &Value, key: &str) -> Result<String, DecodeError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| de(format!("missing string field `{key}`")))
}

fn opt_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

fn get_bool(v: &Value, key: &str) -> bool {
    v.get(key).and_then(Value::as_bool).unwrap_or(false)
}

/// One program for the service to analyze — the protocol twin of
/// `engine::Job`. Jobs are always explicit (full source text) so the
/// protocol is self-contained: a client resolves `bench:NAME` and
/// `--suite` shorthands before sending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Display name (benchmark name or file path).
    pub name: String,
    /// mini-C source text.
    pub source: String,
    /// Bytes served to `getchar()` by the checker oracle.
    pub input: Vec<u8>,
}

impl JobSpec {
    fn to_value(&self) -> Value {
        Value::obj([
            ("name", self.name.as_str().into()),
            ("source", self.source.as_str().into()),
            ("input", bytes_hex(&self.input).into()),
        ])
    }

    fn from_value(v: &Value) -> Result<JobSpec, DecodeError> {
        Ok(JobSpec {
            name: need_str(v, "name")?,
            source: need_str(v, "source")?,
            input: match v.get("input").and_then(Value::as_str) {
                Some(h) => parse_bytes_hex(h).ok_or_else(|| de("invalid `input` hex"))?,
                None => Vec::new(),
            },
        })
    }
}

/// A demand query against a previously analyzed benchmark. Sites are
/// indices into the benchmark's indirect-memory-op list (the §4.3
/// comparison sites), the granularity every solver answers at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryKind {
    /// May the location inputs of sites `a` and `b` reference a common
    /// base-location under the chosen solver?
    MayAlias {
        /// First site index.
        a: usize,
        /// Second site index.
        b: usize,
    },
    /// The referent set at one site.
    ReferentsAt {
        /// Site index.
        site: usize,
    },
}

/// A request to the analysis service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Analyze `jobs` inside the named project's session, reusing the
    /// session's cache (and the disk store, if configured).
    Analyze {
        /// Project (session) name; independent projects are isolated.
        project: String,
        /// Programs to analyze.
        jobs: Vec<JobSpec>,
        /// Bypass every cache tier and solve from scratch, without
        /// touching the session. Used for cross-checks.
        fresh: bool,
        /// Attach the full `EngineReport` JSON to the response.
        want_report: bool,
    },
    /// Analyze and run the six memory-safety checkers with oracle
    /// labels.
    Check {
        /// Project (session) name.
        project: String,
        /// Programs to check.
        jobs: Vec<JobSpec>,
        /// Solver whose diagnostics are rendered in the response (all
        /// five are checked and counted regardless).
        analysis: String,
        /// Attach the full `EngineReport` JSON to the response.
        want_report: bool,
    },
    /// A demand query against a benchmark analyzed earlier in this
    /// project (or restorable from its disk store).
    Query {
        /// Project (session) name.
        project: String,
        /// Benchmark name within the project.
        bench: String,
        /// Solver to answer from (`ci`, `cs`, `weihl`, `steensgaard`,
        /// `k1`).
        analysis: String,
        /// The question.
        query: QueryKind,
        /// Program source for the benchmark, letting the service answer
        /// demand-driven without a prior `Analyze` (and without a disk
        /// store). Ignored when the session already holds the bench.
        job: Option<JobSpec>,
    },
    /// Service statistics: sessions, memory, request counts, uptime.
    Stats,
    /// Evict the named project's session from memory (`None` = all).
    /// Disk-store entries survive eviction.
    Evict {
        /// Project to evict, or every project when `None`.
        project: Option<String>,
    },
    /// Flush and stop the daemon.
    Shutdown,
}

impl Request {
    /// The wire name of this request's `"type"` tag.
    pub fn type_name(&self) -> &'static str {
        match self {
            Request::Analyze { .. } => "analyze",
            Request::Check { .. } => "check",
            Request::Query { .. } => "query",
            Request::Stats => "stats",
            Request::Evict { .. } => "evict",
            Request::Shutdown => "shutdown",
        }
    }

    /// Encodes the request as a JSON value (with the version tag).
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("v".into(), Value::Int(VERSION)),
            ("type".into(), Value::str(self.type_name())),
        ];
        match self {
            Request::Analyze {
                project,
                jobs,
                fresh,
                want_report,
            } => {
                fields.push(("project".into(), Value::str(project)));
                fields.push((
                    "jobs".into(),
                    Value::Arr(jobs.iter().map(JobSpec::to_value).collect()),
                ));
                fields.push(("fresh".into(), Value::Bool(*fresh)));
                fields.push(("want_report".into(), Value::Bool(*want_report)));
            }
            Request::Check {
                project,
                jobs,
                analysis,
                want_report,
            } => {
                fields.push(("project".into(), Value::str(project)));
                fields.push((
                    "jobs".into(),
                    Value::Arr(jobs.iter().map(JobSpec::to_value).collect()),
                ));
                fields.push(("analysis".into(), Value::str(analysis)));
                fields.push(("want_report".into(), Value::Bool(*want_report)));
            }
            Request::Query {
                project,
                bench,
                analysis,
                query,
                job,
            } => {
                fields.push(("project".into(), Value::str(project)));
                fields.push(("bench".into(), Value::str(bench)));
                fields.push(("analysis".into(), Value::str(analysis)));
                if let Some(job) = job {
                    fields.push(("job".into(), job.to_value()));
                }
                let q = match query {
                    QueryKind::MayAlias { a, b } => Value::obj([
                        ("kind", "may_alias".into()),
                        ("a", (*a).into()),
                        ("b", (*b).into()),
                    ]),
                    QueryKind::ReferentsAt { site } => {
                        Value::obj([("kind", "referents_at".into()), ("site", (*site).into())])
                    }
                };
                fields.push(("query".into(), q));
            }
            Request::Stats | Request::Shutdown => {}
            Request::Evict { project } => {
                fields.push(("project".into(), project.as_deref().into()));
            }
        }
        Value::Obj(fields)
    }

    /// Decodes a request from a JSON value, checking the version tag.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed frames or a version
    /// mismatch.
    pub fn from_value(v: &Value) -> Result<Request, DecodeError> {
        match v.get("v").and_then(Value::as_i64) {
            Some(VERSION) => {}
            Some(other) => return Err(de(format!("unsupported protocol version {other}"))),
            None => return Err(de("missing protocol version `v`")),
        }
        let jobs = |v: &Value| -> Result<Vec<JobSpec>, DecodeError> {
            v.get("jobs")
                .and_then(Value::as_arr)
                .ok_or_else(|| de("missing `jobs` array"))?
                .iter()
                .map(JobSpec::from_value)
                .collect()
        };
        match v.get("type").and_then(Value::as_str) {
            Some("analyze") => Ok(Request::Analyze {
                project: need_str(v, "project")?,
                jobs: jobs(v)?,
                fresh: get_bool(v, "fresh"),
                want_report: get_bool(v, "want_report"),
            }),
            Some("check") => Ok(Request::Check {
                project: need_str(v, "project")?,
                jobs: jobs(v)?,
                analysis: opt_str(v, "analysis").unwrap_or_else(|| "ci".into()),
                want_report: get_bool(v, "want_report"),
            }),
            Some("query") => {
                let q = v.get("query").ok_or_else(|| de("missing `query`"))?;
                let idx = |key: &str| -> Result<usize, DecodeError> {
                    q.get(key)
                        .and_then(Value::as_usize)
                        .ok_or_else(|| de(format!("missing site index `{key}`")))
                };
                let query = match q.get("kind").and_then(Value::as_str) {
                    Some("may_alias") => QueryKind::MayAlias {
                        a: idx("a")?,
                        b: idx("b")?,
                    },
                    Some("referents_at") => QueryKind::ReferentsAt { site: idx("site")? },
                    other => return Err(de(format!("unknown query kind {other:?}"))),
                };
                Ok(Request::Query {
                    project: need_str(v, "project")?,
                    bench: need_str(v, "bench")?,
                    analysis: opt_str(v, "analysis").unwrap_or_else(|| "ci".into()),
                    query,
                    job: match v.get("job") {
                        Some(Value::Null) | None => None,
                        Some(j) => Some(JobSpec::from_value(j)?),
                    },
                })
            }
            Some("stats") => Ok(Request::Stats),
            Some("evict") => Ok(Request::Evict {
                project: opt_str(v, "project"),
            }),
            Some("shutdown") => Ok(Request::Shutdown),
            other => Err(de(format!("unknown request type {other:?}"))),
        }
    }
}

/// One solver's fingerprint row inside an [`Response::Analyzed`] bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverFp {
    /// Solver name.
    pub analysis: String,
    /// Canonical solution fingerprint (`alias::solver::solution_fingerprint`),
    /// hex; `None` when the solve failed.
    pub fp: Option<String>,
    /// How the solution was obtained (`replayed` or `fresh(..)`), when
    /// the run was incremental.
    pub mode: Option<String>,
    /// Total points-to pairs, for pair-based solvers.
    pub pairs: Option<u64>,
}

/// Per-benchmark fingerprints inside an [`Response::Analyzed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchFps {
    /// Benchmark name.
    pub name: String,
    /// FNV-64 of the source text, hex.
    pub source_fp: String,
    /// VDG content fingerprint, hex.
    pub graph_fp: String,
    /// One row per solver, in engine solver order.
    pub solvers: Vec<SolverFp>,
}

/// Cache-effectiveness counters attached to an [`Response::Analyzed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeInfo {
    /// Wall time the service spent handling the request, microseconds.
    pub latency_us: u64,
    /// Benchmarks replayed verbatim from the session cache.
    pub benches_replayed: u64,
    /// Always 0: a changed graph solves fresh, and no benchmark is
    /// re-solved from seeds. Kept so the wire format, and clients that
    /// read it, stay unchanged until the counter structs are merged.
    pub benches_seeded: u64,
    /// Benchmarks solved from scratch.
    pub benches_fresh: u64,
    /// Individual solver solutions replayed from cache.
    pub solutions_replayed: u64,
    /// Always 0, for the same reason as
    /// [`benches_seeded`](ServeInfo::benches_seeded): no function
    /// summary is reused.
    pub funcs_reused: u64,
    /// Functions of the benchmarks solved rather than replayed.
    pub funcs_dirty: u64,
    /// Whether this request warm-started the session from the disk
    /// store.
    pub restored: bool,
    /// Queries answered from the demand-solved region (no exhaustive
    /// fixpoint).
    pub demand_hits: u64,
    /// Queries answered from the exhaustive fallback solution.
    pub demand_fallbacks: u64,
    /// Demand queries that exhausted a slice or step budget.
    pub demand_budget_exhausted: u64,
    /// Microseconds spent loading this session from the disk store,
    /// cumulative.
    pub restore_us: u64,
    /// Stored fingerprints that the cold solve of a restored benchmark
    /// did not reproduce, cumulative over the session.
    pub restore_mismatches: u64,
}

impl ServeInfo {
    /// The wire form: the `"serve"` field of an `analyzed` response and
    /// of the engine report the service attaches to it.
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("latency_us", self.latency_us.into()),
            ("benches_replayed", self.benches_replayed.into()),
            ("benches_seeded", self.benches_seeded.into()),
            ("benches_fresh", self.benches_fresh.into()),
            ("solutions_replayed", self.solutions_replayed.into()),
            ("funcs_reused", self.funcs_reused.into()),
            ("funcs_dirty", self.funcs_dirty.into()),
            ("restored", self.restored.into()),
            ("demand_hits", self.demand_hits.into()),
            ("demand_fallbacks", self.demand_fallbacks.into()),
            (
                "demand_budget_exhausted",
                self.demand_budget_exhausted.into(),
            ),
            ("restore_us", self.restore_us.into()),
            ("restore_mismatches", self.restore_mismatches.into()),
        ])
    }

    fn from_value(v: &Value) -> ServeInfo {
        let n = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        ServeInfo {
            latency_us: n("latency_us"),
            benches_replayed: n("benches_replayed"),
            benches_seeded: n("benches_seeded"),
            benches_fresh: n("benches_fresh"),
            solutions_replayed: n("solutions_replayed"),
            funcs_reused: n("funcs_reused"),
            funcs_dirty: n("funcs_dirty"),
            restored: get_bool(v, "restored"),
            demand_hits: n("demand_hits"),
            demand_fallbacks: n("demand_fallbacks"),
            demand_budget_exhausted: n("demand_budget_exhausted"),
            restore_us: n("restore_us"),
            restore_mismatches: n("restore_mismatches"),
        }
    }
}

/// One solver's oracle-labeled checker counts inside a
/// [`BenchCheckInfo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverCheck {
    /// Solver name.
    pub analysis: String,
    /// Diagnostics per checker kind, in `checker::CheckKind::all()`
    /// order.
    pub diags: Vec<u64>,
    /// Oracle-confirmed diagnostics.
    pub true_positives: u64,
    /// Diagnostics whose site executed without the defect.
    pub false_positives: u64,
    /// Diagnostics at sites the oracle never reached.
    pub unreachable: u64,
    /// Whether the oracle trapped a fault no diagnostic predicted.
    pub refuted: bool,
}

/// One benchmark's check results inside a [`Response::Checked`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCheckInfo {
    /// Benchmark name.
    pub name: String,
    /// The paper-style per-checker precision table, pre-rendered.
    pub table: String,
    /// Caret-rendered diagnostics for the requested solver.
    pub rendered: String,
    /// Machine-readable diagnostics for the requested solver (the
    /// `ruf95 check --json` array).
    pub diags: Value,
    /// Per-solver labeled counts.
    pub solvers: Vec<SolverCheck>,
}

/// A site inside a query answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteInfo {
    /// Index into the benchmark's indirect-memory-op list.
    pub index: usize,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// `"read"` or `"write"`.
    pub kind: String,
}

impl SiteInfo {
    fn to_value(&self) -> Value {
        Value::obj([
            ("index", self.index.into()),
            ("line", u64::from(self.line).into()),
            ("col", u64::from(self.col).into()),
            ("kind", self.kind.as_str().into()),
        ])
    }

    fn from_value(v: &Value) -> Result<SiteInfo, DecodeError> {
        Ok(SiteInfo {
            index: v
                .get("index")
                .and_then(Value::as_usize)
                .ok_or_else(|| de("missing site `index`"))?,
            line: v.get("line").and_then(Value::as_u64).unwrap_or(0) as u32,
            col: v.get("col").and_then(Value::as_u64).unwrap_or(0) as u32,
            kind: opt_str(v, "kind").unwrap_or_default(),
        })
    }
}

/// The payload of a [`Response::QueryResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Answer to [`QueryKind::MayAlias`].
    MayAlias {
        /// Whether the two sites' referent base sets intersect.
        may_alias: bool,
        /// Stable keys of the common bases (the alias witnesses).
        witnesses: Vec<String>,
        /// First site.
        a: SiteInfo,
        /// Second site.
        b: SiteInfo,
    },
    /// Answer to [`QueryKind::ReferentsAt`].
    Referents {
        /// The queried site.
        site: SiteInfo,
        /// Rendered referents (path-granular when the solver has paths,
        /// stable base keys otherwise), sorted.
        referents: Vec<String>,
    },
}

/// Per-project statistics inside a [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectStats {
    /// Project name.
    pub name: String,
    /// Benchmarks held in the in-memory session.
    pub benches: u64,
    /// Estimated session memory, bytes.
    pub approx_bytes: u64,
    /// Milliseconds since the session last served a request.
    pub idle_ms: u64,
    /// Queries answered from the session's demand-solved regions.
    pub demand_hits: u64,
    /// Queries answered from exhaustive fallback solutions.
    pub demand_fallbacks: u64,
    /// Microseconds spent restoring the session from the disk store.
    pub restore_us: u64,
}

/// A response from the analysis service.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of [`Request::Analyze`].
    Analyzed {
        /// Project the request ran under.
        project: String,
        /// Per-benchmark fingerprints.
        benches: Vec<BenchFps>,
        /// FNV-64 of the canonical (timing-free) report, hex — the
        /// restart-replay equality currency.
        report_fp: String,
        /// Full `EngineReport` JSON, when requested.
        report: Option<Value>,
        /// Cache-effectiveness counters for this request.
        serve: ServeInfo,
    },
    /// Result of [`Request::Check`].
    Checked {
        /// Project the request ran under.
        project: String,
        /// Per-benchmark check results.
        benches: Vec<BenchCheckInfo>,
        /// FNV-64 over every benchmark's per-solver diagnostics, hex.
        check_fp: String,
        /// First false-positive monotonicity violation, if any.
        monotone_violation: Option<String>,
        /// Benchmarks with an oracle-refuted diagnostic.
        refuted: Vec<String>,
        /// Full `EngineReport` JSON (with check rows), when requested.
        report: Option<Value>,
    },
    /// Result of [`Request::Query`].
    QueryResult {
        /// Benchmark queried.
        bench: String,
        /// Solver that answered.
        analysis: String,
        /// The answer.
        answer: QueryAnswer,
        /// Whether the demand-driven path answered (no exhaustive
        /// fixpoint ran for this query).
        demand: bool,
    },
    /// Result of [`Request::Stats`].
    Stats {
        /// Milliseconds since the service started.
        uptime_ms: u64,
        /// Requests handled, by type name.
        requests: Vec<(String, u64)>,
        /// Sessions evicted under the memory budget.
        evictions: u64,
        /// Session memory budget, bytes (0 = unlimited).
        mem_budget: u64,
        /// Per-project session statistics.
        projects: Vec<ProjectStats>,
    },
    /// Generic success (eviction).
    Ok,
    /// The daemon acknowledged [`Request::Shutdown`] and is exiting.
    ShuttingDown,
    /// The request failed; the message is the complete rendering.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// Encodes the response as a JSON value.
    pub fn to_value(&self) -> Value {
        let strs = |items: &[String]| items.iter().map(String::as_str).collect();
        match self {
            Response::Analyzed {
                project,
                benches,
                report_fp,
                report,
                serve,
            } => {
                let solver = |s: &SolverFp| {
                    Value::obj([
                        ("analysis", s.analysis.as_str().into()),
                        ("fp", s.fp.as_deref().into()),
                        ("mode", s.mode.as_deref().into()),
                        ("pairs", s.pairs.into()),
                    ])
                };
                let bench = |b: &BenchFps| {
                    Value::obj([
                        ("name", b.name.as_str().into()),
                        ("source_fp", b.source_fp.as_str().into()),
                        ("graph_fp", b.graph_fp.as_str().into()),
                        ("solvers", b.solvers.iter().map(solver).collect()),
                    ])
                };
                Value::obj([
                    ("type", "analyzed".into()),
                    ("project", project.as_str().into()),
                    ("benches", benches.iter().map(bench).collect()),
                    ("report_fp", report_fp.as_str().into()),
                    ("report", report.clone().into()),
                    ("serve", serve.to_value()),
                ])
            }
            Response::Checked {
                project,
                benches,
                check_fp,
                monotone_violation,
                refuted,
                report,
            } => {
                let solver = |s: &SolverCheck| {
                    Value::obj([
                        ("analysis", s.analysis.as_str().into()),
                        ("diags", s.diags.iter().copied().collect()),
                        ("true_positives", s.true_positives.into()),
                        ("false_positives", s.false_positives.into()),
                        ("unreachable", s.unreachable.into()),
                        ("refuted", s.refuted.into()),
                    ])
                };
                let bench = |b: &BenchCheckInfo| {
                    Value::obj([
                        ("name", b.name.as_str().into()),
                        ("table", b.table.as_str().into()),
                        ("rendered", b.rendered.as_str().into()),
                        ("diags", b.diags.clone()),
                        ("solvers", b.solvers.iter().map(solver).collect()),
                    ])
                };
                Value::obj([
                    ("type", "checked".into()),
                    ("project", project.as_str().into()),
                    ("benches", benches.iter().map(bench).collect()),
                    ("check_fp", check_fp.as_str().into()),
                    ("monotone_violation", monotone_violation.as_deref().into()),
                    ("refuted", strs(refuted)),
                    ("report", report.clone().into()),
                ])
            }
            Response::QueryResult {
                bench,
                analysis,
                answer,
                demand,
            } => {
                let ans = match answer {
                    QueryAnswer::MayAlias {
                        may_alias,
                        witnesses,
                        a,
                        b,
                    } => Value::obj([
                        ("kind", "may_alias".into()),
                        ("may_alias", (*may_alias).into()),
                        ("witnesses", strs(witnesses)),
                        ("a", a.to_value()),
                        ("b", b.to_value()),
                    ]),
                    QueryAnswer::Referents { site, referents } => Value::obj([
                        ("kind", "referents_at".into()),
                        ("site", site.to_value()),
                        ("referents", strs(referents)),
                    ]),
                };
                Value::obj([
                    ("type", "query_result".into()),
                    ("bench", bench.as_str().into()),
                    ("analysis", analysis.as_str().into()),
                    ("answer", ans),
                    ("demand", (*demand).into()),
                ])
            }
            Response::Stats {
                uptime_ms,
                requests,
                evictions,
                mem_budget,
                projects,
            } => {
                let project = |p: &ProjectStats| {
                    Value::obj([
                        ("name", p.name.as_str().into()),
                        ("benches", p.benches.into()),
                        ("approx_bytes", p.approx_bytes.into()),
                        ("idle_ms", p.idle_ms.into()),
                        ("demand_hits", p.demand_hits.into()),
                        ("demand_fallbacks", p.demand_fallbacks.into()),
                        ("restore_us", p.restore_us.into()),
                    ])
                };
                Value::obj([
                    ("type", "stats".into()),
                    ("uptime_ms", (*uptime_ms).into()),
                    (
                        "requests",
                        Value::obj(requests.iter().map(|(k, n)| (k.as_str(), (*n).into()))),
                    ),
                    ("evictions", (*evictions).into()),
                    ("mem_budget", (*mem_budget).into()),
                    ("projects", projects.iter().map(project).collect()),
                ])
            }
            Response::Ok => Value::obj([("type", "ok".into())]),
            Response::ShuttingDown => Value::obj([("type", "shutting_down".into())]),
            Response::Error { message } => Value::obj([
                ("type", "error".into()),
                ("message", message.as_str().into()),
            ]),
        }
    }

    /// Decodes a response from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed frames.
    pub fn from_value(v: &Value) -> Result<Response, DecodeError> {
        match v.get("type").and_then(Value::as_str) {
            Some("analyzed") => {
                let benches = v
                    .get("benches")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| de("missing `benches`"))?
                    .iter()
                    .map(|b| {
                        Ok(BenchFps {
                            name: need_str(b, "name")?,
                            source_fp: need_str(b, "source_fp")?,
                            graph_fp: need_str(b, "graph_fp")?,
                            solvers: b
                                .get("solvers")
                                .and_then(Value::as_arr)
                                .unwrap_or(&[])
                                .iter()
                                .map(|s| {
                                    Ok(SolverFp {
                                        analysis: need_str(s, "analysis")?,
                                        fp: opt_str(s, "fp"),
                                        mode: opt_str(s, "mode"),
                                        pairs: s.get("pairs").and_then(Value::as_u64),
                                    })
                                })
                                .collect::<Result<_, DecodeError>>()?,
                        })
                    })
                    .collect::<Result<_, DecodeError>>()?;
                Ok(Response::Analyzed {
                    project: need_str(v, "project")?,
                    benches,
                    report_fp: need_str(v, "report_fp")?,
                    report: match v.get("report") {
                        None | Some(Value::Null) => None,
                        Some(r) => Some(r.clone()),
                    },
                    serve: v
                        .get("serve")
                        .map(ServeInfo::from_value)
                        .unwrap_or_default(),
                })
            }
            Some("checked") => {
                let benches = v
                    .get("benches")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| de("missing `benches`"))?
                    .iter()
                    .map(|b| {
                        Ok(BenchCheckInfo {
                            name: need_str(b, "name")?,
                            table: opt_str(b, "table").unwrap_or_default(),
                            rendered: opt_str(b, "rendered").unwrap_or_default(),
                            diags: b.get("diags").cloned().unwrap_or(Value::Arr(Vec::new())),
                            solvers: b
                                .get("solvers")
                                .and_then(Value::as_arr)
                                .unwrap_or(&[])
                                .iter()
                                .map(|s| {
                                    let n = |k: &str| s.get(k).and_then(Value::as_u64).unwrap_or(0);
                                    Ok(SolverCheck {
                                        analysis: need_str(s, "analysis")?,
                                        diags: s
                                            .get("diags")
                                            .and_then(Value::as_arr)
                                            .unwrap_or(&[])
                                            .iter()
                                            .filter_map(Value::as_u64)
                                            .collect(),
                                        true_positives: n("true_positives"),
                                        false_positives: n("false_positives"),
                                        unreachable: n("unreachable"),
                                        refuted: get_bool(s, "refuted"),
                                    })
                                })
                                .collect::<Result<_, DecodeError>>()?,
                        })
                    })
                    .collect::<Result<_, DecodeError>>()?;
                Ok(Response::Checked {
                    project: need_str(v, "project")?,
                    benches,
                    check_fp: need_str(v, "check_fp")?,
                    monotone_violation: opt_str(v, "monotone_violation"),
                    refuted: v
                        .get("refuted")
                        .and_then(Value::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect(),
                    report: match v.get("report") {
                        None | Some(Value::Null) => None,
                        Some(r) => Some(r.clone()),
                    },
                })
            }
            Some("query_result") => {
                let ans = v.get("answer").ok_or_else(|| de("missing `answer`"))?;
                let strs = |key: &str| -> Vec<String> {
                    ans.get(key)
                        .and_then(Value::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect()
                };
                let answer = match ans.get("kind").and_then(Value::as_str) {
                    Some("may_alias") => QueryAnswer::MayAlias {
                        may_alias: get_bool(ans, "may_alias"),
                        witnesses: strs("witnesses"),
                        a: SiteInfo::from_value(
                            ans.get("a").ok_or_else(|| de("missing site `a`"))?,
                        )?,
                        b: SiteInfo::from_value(
                            ans.get("b").ok_or_else(|| de("missing site `b`"))?,
                        )?,
                    },
                    Some("referents_at") => QueryAnswer::Referents {
                        site: SiteInfo::from_value(
                            ans.get("site").ok_or_else(|| de("missing `site`"))?,
                        )?,
                        referents: strs("referents"),
                    },
                    other => return Err(de(format!("unknown answer kind {other:?}"))),
                };
                Ok(Response::QueryResult {
                    bench: need_str(v, "bench")?,
                    analysis: need_str(v, "analysis")?,
                    answer,
                    demand: get_bool(v, "demand"),
                })
            }
            Some("stats") => Ok(Response::Stats {
                uptime_ms: v.get("uptime_ms").and_then(Value::as_u64).unwrap_or(0),
                requests: v
                    .get("requests")
                    .and_then(Value::as_obj)
                    .unwrap_or(&[])
                    .iter()
                    .map(|(k, n)| (k.clone(), n.as_u64().unwrap_or(0)))
                    .collect(),
                evictions: v.get("evictions").and_then(Value::as_u64).unwrap_or(0),
                mem_budget: v.get("mem_budget").and_then(Value::as_u64).unwrap_or(0),
                projects: v
                    .get("projects")
                    .and_then(Value::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|p| {
                        Ok(ProjectStats {
                            name: need_str(p, "name")?,
                            benches: p.get("benches").and_then(Value::as_u64).unwrap_or(0),
                            approx_bytes: p
                                .get("approx_bytes")
                                .and_then(Value::as_u64)
                                .unwrap_or(0),
                            idle_ms: p.get("idle_ms").and_then(Value::as_u64).unwrap_or(0),
                            demand_hits: p.get("demand_hits").and_then(Value::as_u64).unwrap_or(0),
                            demand_fallbacks: p
                                .get("demand_fallbacks")
                                .and_then(Value::as_u64)
                                .unwrap_or(0),
                            restore_us: p.get("restore_us").and_then(Value::as_u64).unwrap_or(0),
                        })
                    })
                    .collect::<Result<_, DecodeError>>()?,
            }),
            Some("ok") => Ok(Response::Ok),
            Some("shutting_down") => Ok(Response::ShuttingDown),
            Some("error") => Ok(Response::Error {
                message: need_str(v, "message")?,
            }),
            other => Err(de(format!("unknown response type {other:?}"))),
        }
    }
}

/// Writes one newline-delimited frame and flushes.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, v: &Value) -> std::io::Result<()> {
    let mut line = v.render();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Reads one newline-delimited frame; `Ok(None)` on a clean EOF.
///
/// # Errors
///
/// An I/O error, or `InvalidData` when the line is not valid JSON.
pub fn read_frame<R: BufRead>(r: &mut R) -> std::io::Result<Option<Value>> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if line.trim().is_empty() {
            continue; // tolerate blank keep-alive lines
        }
        return Value::parse(line.trim_end_matches(['\n', '\r']))
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(r: Request) {
        let v = r.to_value();
        let text = v.render();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(Request::from_value(&parsed).unwrap(), r, "{text}");
    }

    fn round_trip_response(r: Response) {
        let v = r.to_value();
        let text = v.render();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(Response::from_value(&parsed).unwrap(), r, "{text}");
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Analyze {
            project: "default".into(),
            jobs: vec![JobSpec {
                name: "t".into(),
                source: "int main(void) { return 0; }".into(),
                input: vec![0, 1, 255],
            }],
            fresh: true,
            want_report: true,
        });
        round_trip_request(Request::Check {
            project: "p".into(),
            jobs: vec![],
            analysis: "cs".into(),
            want_report: false,
        });
        round_trip_request(Request::Query {
            project: "p".into(),
            bench: "span".into(),
            analysis: "ci".into(),
            query: QueryKind::MayAlias { a: 0, b: 3 },
            job: None,
        });
        round_trip_request(Request::Query {
            project: "p".into(),
            bench: "span".into(),
            analysis: "k1".into(),
            query: QueryKind::ReferentsAt { site: 7 },
            job: Some(JobSpec {
                name: "span".into(),
                source: "int main(void) { return 0; }".into(),
                input: vec![2],
            }),
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Evict {
            project: Some("p".into()),
        });
        round_trip_request(Request::Evict { project: None });
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Analyzed {
            project: "p".into(),
            benches: vec![BenchFps {
                name: "span".into(),
                source_fp: fp_hex(1),
                graph_fp: fp_hex(u64::MAX),
                solvers: vec![SolverFp {
                    analysis: "ci".into(),
                    fp: Some(fp_hex(42)),
                    mode: Some("replayed".into()),
                    pairs: Some(1234),
                }],
            }],
            report_fp: fp_hex(7),
            report: Some(Value::parse("{\"threads\":1}").unwrap()),
            serve: ServeInfo {
                latency_us: 12,
                benches_replayed: 1,
                restored: true,
                demand_hits: 3,
                demand_fallbacks: 1,
                demand_budget_exhausted: 1,
                restore_us: 250,
                restore_mismatches: 2,
                ..ServeInfo::default()
            },
        });
        round_trip_response(Response::Checked {
            project: "p".into(),
            benches: vec![BenchCheckInfo {
                name: "span".into(),
                table: "tbl".into(),
                rendered: "diag\n".into(),
                diags: Value::parse("[{\"kind\":\"uaf\"}]").unwrap(),
                solvers: vec![SolverCheck {
                    analysis: "ci".into(),
                    diags: vec![1, 0, 2, 0, 0, 3],
                    true_positives: 4,
                    false_positives: 1,
                    unreachable: 1,
                    refuted: false,
                }],
            }],
            check_fp: fp_hex(9),
            monotone_violation: None,
            refuted: vec!["span".into()],
            report: None,
        });
        round_trip_response(Response::QueryResult {
            bench: "span".into(),
            analysis: "ci".into(),
            answer: QueryAnswer::MayAlias {
                may_alias: true,
                witnesses: vec!["g:gp".into()],
                a: SiteInfo {
                    index: 0,
                    line: 3,
                    col: 4,
                    kind: "read".into(),
                },
                b: SiteInfo {
                    index: 1,
                    line: 9,
                    col: 2,
                    kind: "write".into(),
                },
            },
            demand: true,
        });
        round_trip_response(Response::QueryResult {
            bench: "span".into(),
            analysis: "weihl".into(),
            answer: QueryAnswer::Referents {
                site: SiteInfo {
                    index: 2,
                    line: 1,
                    col: 1,
                    kind: "read".into(),
                },
                referents: vec!["g:a".into(), "l:main:x".into()],
            },
            demand: false,
        });
        round_trip_response(Response::Stats {
            uptime_ms: 1000,
            requests: vec![("analyze".into(), 3), ("query".into(), 100)],
            evictions: 1,
            mem_budget: 1 << 28,
            projects: vec![ProjectStats {
                name: "p".into(),
                benches: 13,
                approx_bytes: 4096,
                idle_ms: 5,
                demand_hits: 7,
                demand_fallbacks: 1,
                restore_us: 432,
            }],
        });
        round_trip_response(Response::Ok);
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Error {
            message: "no such bench".into(),
        });
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut v = Request::Stats.to_value();
        if let Value::Obj(fields) = &mut v {
            fields[0].1 = Value::Int(99);
        }
        let err = Request::from_value(&v).unwrap_err();
        assert!(err.0.contains("version"), "{err}");
        let Value::Obj(fields) = &mut v else { panic!() };
        fields.remove(0);
        assert!(Request::from_value(&v).is_err());
    }

    #[test]
    fn fingerprints_survive_hex_round_trip() {
        for fp in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(parse_fp_hex(&fp_hex(fp)), Some(fp));
        }
        assert_eq!(parse_fp_hex("123"), None);
        assert_eq!(parse_fp_hex("zzzzzzzzzzzzzzzz"), None);
    }

    #[test]
    fn input_bytes_survive_hex_round_trip() {
        let b: Vec<u8> = (0..=255).collect();
        assert_eq!(parse_bytes_hex(&bytes_hex(&b)), Some(b));
        assert_eq!(parse_bytes_hex("abc"), None);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats.to_value()).unwrap();
        write_frame(&mut buf, &Response::Ok.to_value()).unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        let v1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Request::from_value(&v1).unwrap(), Request::Stats);
        let v2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Response::from_value(&v2).unwrap(), Response::Ok);
        assert!(read_frame(&mut r).unwrap().is_none());
    }
}
