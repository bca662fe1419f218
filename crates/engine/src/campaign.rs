//! Resumable ecosystem-scale fuzz/analysis campaigns.
//!
//! `ruf95 campaign` industrializes the differential fuzzer the way
//! Rudra industrialized one analyzer across crates.io: a batched,
//! resumable job queue that drives tens of thousands of generated
//! programs through all five solvers, the six checkers, and every
//! differential property, with panic isolation, quarantine, and
//! corpus-scale deduplicated reporting.
//!
//! **Chunked job queue.** Seeds are processed in fixed-size chunks over
//! the work-stealing pool ([`crate::pool`]). Each job runs the full
//! differential check ([`crate::fuzz`]) under `catch_unwind`, so a
//! panicking seed is isolated, quarantined, and the campaign keeps
//! going.
//!
//! **Checksummed journal.** After every chunk the campaign rewrites
//! `journal.ruf95` in its state directory in the [`crate::envelope`]
//! format it shares with `serve::store` (temp-file + rename,
//! `ruf95-campaign v1 <fnv64>` header). A killed
//! campaign resumes exactly at the next chunk, and a resumed campaign's
//! final report is byte-identical to an uninterrupted run because the
//! canonical report is a pure fold over journaled per-chunk results —
//! which is also why wall-clock data (chunk times, per-solver micros,
//! wall-budget overruns) lives in the journal's *non-canonical* fields
//! and never reaches the report. Outcome classification uses the
//! deterministic step budgets instead ([`JobOutcome::OverBudget`]).
//!
//! **Quarantine.** Crashing and over-budget jobs land in a
//! `campaign-quarantine/` directory as standalone `.c` repros,
//! minimized by the 7-pass shrinker when the failure reproduces from
//! source alone (a crash injected by test knobs does not, and keeps its
//! full source).
//!
//! **Deduplicated reporting.** Violations are grouped by the FNV-64
//! fingerprint of (property, solver, shrunk counterexample); checker
//! diagnostics by (check kind, offending source line); functions by
//! their structural graph fingerprint. `CAMPAIGN_report.json` records
//! per-property violation counts, the quarantine ledger, and the dedup
//! ratio those three streams achieve at corpus scale.

use crate::envelope::{self, Load};
use crate::fuzz::{self, FuzzConfig, JobOutcome};
use crate::pool;
use crate::shrink::shrink;
use alias::fingerprint::fnv64_parts;
use proto::json::Value;
use proto::{fp_hex, parse_fp_hex};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use suite::generator::generate;

/// Journal format version; bumping it cold-starts old campaigns.
const JOURNAL_VERSION: u32 = 1;
/// Header magic, first field of the journal's first line.
const JOURNAL_MAGIC: &str = "ruf95-campaign";
/// Minimized repros per chunk for violations and for quarantined jobs
/// (shrinking re-runs the full differential check per candidate, so it
/// is bounded; overflow keeps the full source).
const MAX_SHRINKS_PER_CHUNK: usize = 4;
/// The fixed property vocabulary, for zero-filled per-property counts.
const PROPERTIES: [&str; 8] = [
    "soundness",
    "lattice",
    "divergence",
    "incremental",
    "checker",
    "demand",
    "roundtrip",
    "pipeline",
];

/// Campaign knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds to drive through the pipeline.
    pub seeds: u64,
    /// First seed (campaigns shard by range).
    pub start_seed: u64,
    /// Seeds per journal chunk — the resume granularity.
    pub chunk: u64,
    /// Worker threads; `0` means one per core.
    pub threads: usize,
    /// State directory: journal, quarantine, report.
    pub dir: PathBuf,
    /// Per-job knobs (generator shape, step budgets, planted faults).
    pub fuzz: FuzzConfig,
    /// Stop (checkpointing cleanly) after this many chunks *this
    /// invocation* — the kill switch the resume-equivalence tests use,
    /// and a way to run long campaigns in slices.
    pub max_chunks: Option<u64>,
    /// Also write the final report to this path (e.g. repo root for CI
    /// artifact upload), byte-identical to the state-directory copy.
    pub report_out: Option<PathBuf>,
    /// Test knob: panic deliberately when this seed's job runs, to
    /// exercise crash isolation and quarantine end to end.
    pub panic_seed: Option<u64>,
    /// Print per-chunk progress lines to stderr.
    pub progress: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seeds: 10_000,
            start_seed: 0,
            chunk: 500,
            threads: 0,
            dir: PathBuf::from("campaign"),
            fuzz: FuzzConfig {
                gen: suite::generator::GenConfig::campaign(),
                ..FuzzConfig::default()
            },
            max_chunks: None,
            report_out: None,
            panic_seed: None,
            progress: false,
        }
    }
}

/// Everything that can abort a campaign before it produces results.
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem failure on the journal, quarantine, or report.
    Io(String),
    /// The on-disk journal was produced under different knobs. This is
    /// a hard error rather than a silent fresh start: hours of journal
    /// are worth more than an accidental flag change.
    ConfigMismatch {
        /// Key recorded in the journal.
        journal: String,
        /// Key of the current configuration.
        current: String,
    },
    /// Nonsensical configuration (zero seeds, zero chunk size, a seed
    /// above `i64::MAX`).
    Invalid(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(m) => write!(f, "campaign io: {m}"),
            CampaignError::ConfigMismatch { journal, current } => write!(
                f,
                "campaign journal belongs to a different configuration\n  journal: {journal}\n  current: {current}\n\
                 delete the state directory (or restore the original flags) to proceed"
            ),
            CampaignError::Invalid(m) => write!(f, "campaign config: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// One journaled violation (pre-dedup), with its repro.
#[derive(Debug, Clone)]
struct CaseRecord {
    seed: u64,
    kind: String,
    solver: String,
    detail: String,
    source: String,
    minimized: Option<String>,
}

/// One quarantined job: the seed, why, and its standalone repro.
#[derive(Debug, Clone)]
struct QuarantineRecord {
    seed: u64,
    /// `"crashed"` or `"over-budget"` ([`JobOutcome::name`]).
    outcome: String,
    detail: String,
    /// Shrunk when the failure reproduces from source alone; the full
    /// generated program otherwise.
    repro: String,
    shrunk: bool,
}

/// Per-chunk results as journaled. Canonical fields feed the final
/// report; `solver_us`/`wall_ms`/`overruns` are wall-clock diagnostics
/// excluded from it (they differ between a run and its resume).
#[derive(Debug, Clone, Default)]
struct ChunkRecord {
    index: u64,
    clean: u64,
    degraded: u64,
    over_budget: u64,
    crashed: u64,
    demand_queries: u64,
    demand_hits: u64,
    diag_total: u64,
    diag_keys: Vec<u64>,
    func_total: u64,
    func_fps: Vec<u64>,
    violations: Vec<CaseRecord>,
    quarantine: Vec<QuarantineRecord>,
    // --- non-canonical below ---
    overruns: u64,
    solver_us: BTreeMap<String, u64>,
    wall_ms: f64,
}

/// The on-disk campaign state: config identity plus finished chunks.
#[derive(Debug, Clone)]
struct Journal {
    config_key: String,
    chunks: Vec<ChunkRecord>,
}

/// How loading the journal went: hostile or stale bytes degrade to a
/// recorded fresh start, never a panic.
type JournalLoad = Load<Journal>;

/// One deduplicated violation group in the final report.
#[derive(Debug, Clone)]
pub struct CampaignCase {
    /// FNV-64 of (kind, solver, shrunk-or-full repro), as 16 hex chars.
    pub fingerprint: String,
    /// Property that failed.
    pub kind: String,
    /// Solver (or pairing) implicated.
    pub solver: String,
    /// Raw occurrences collapsed into this case.
    pub count: u64,
    /// Seeds that produced it, ascending.
    pub seeds: Vec<u64>,
    /// Detail of the first (lowest-seed) occurrence.
    pub detail: String,
    /// Minimized repro, when shrinking ran for an occurrence.
    pub minimized: Option<String>,
}

/// One quarantine ledger entry in the final report.
#[derive(Debug, Clone)]
pub struct QuarantineCase {
    /// Seed of the quarantined job.
    pub seed: u64,
    /// `"crashed"` or `"over-budget"`.
    pub outcome: String,
    /// First failure message.
    pub detail: String,
    /// Whether the repro was minimized (the failure reproduced from
    /// source alone).
    pub shrunk: bool,
    /// Repro filename inside `campaign-quarantine/`.
    pub file: String,
}

/// The canonical deduplicated campaign report. A pure fold over the
/// journal's canonical chunk fields: running to completion twice — or
/// once with any number of kill/resume cycles — renders byte-identical
/// JSON.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Seeds driven.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Jobs with no violations and no degradation.
    pub clean: u64,
    /// Jobs where some check was skipped (step budgets, interp aborts).
    pub degraded: u64,
    /// Jobs with typed outcome [`JobOutcome::OverBudget`].
    pub over_budget: u64,
    /// Jobs with typed outcome [`JobOutcome::Crashed`].
    pub crashed: u64,
    /// Demand queries fired / answered without oracle fallback.
    pub demand_queries: u64,
    /// See `demand_queries`.
    pub demand_hits: u64,
    /// Raw (pre-dedup) violation count.
    pub violations_total: u64,
    /// Raw violation count per property, zero-filled over the fixed
    /// vocabulary.
    pub by_property: Vec<(String, u64)>,
    /// Deduplicated violation groups, by (kind, solver, fingerprint).
    pub cases: Vec<CampaignCase>,
    /// Quarantine ledger, ascending by seed.
    pub quarantine: Vec<QuarantineCase>,
    /// Raw checker diagnostics across the corpus (CI solution).
    pub diag_total: u64,
    /// Distinct diagnostic dedup keys across the corpus.
    pub diag_unique: u64,
    /// Functions lowered across the corpus (including `main`s).
    pub func_total: u64,
    /// Distinct function fingerprints across the corpus.
    pub func_unique: u64,
    /// Corpus dedup ratio: raw over unique across the three dedup
    /// streams (diagnostics, functions, violations), 2 decimals.
    pub dedup_ratio: String,
}

/// What one `run` invocation did (the report only exists when the
/// campaign completed).
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Whether every chunk is journaled.
    pub complete: bool,
    /// Total chunks the seed range needs.
    pub chunks_total: u64,
    /// Chunks journaled after this invocation.
    pub chunks_done: u64,
    /// Chunks executed by this invocation (the rest were resumed).
    pub chunks_run: u64,
    /// Chunks already journaled when this invocation started.
    pub resumed_from: u64,
    /// Why a pre-existing journal was discarded, if it was.
    pub journal_note: Option<String>,
    /// The canonical report (completion only).
    pub report: Option<CampaignReport>,
    /// Where the report was written.
    pub report_path: PathBuf,
    /// Quarantine directory.
    pub quarantine_dir: PathBuf,
    /// Non-canonical wall-clock aggregates for the human summary, in
    /// micros: per solver by name, and per step of a seed's check under
    /// `step:<name>` keys.
    pub solver_us: BTreeMap<String, u64>,
    /// Wall-budget overruns (advisory; journal-wide).
    pub overruns: u64,
    /// Wall time of this invocation.
    pub wall: Duration,
}

impl CampaignOutcome {
    /// Human summary: headline counts, per-property violations, dedup
    /// accounting, per-solver throughput and the wall time of each step
    /// of a seed's check (each property, the oracle, compiling).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "campaign: {}/{} chunks journaled ({} run now, {} resumed) in {:.2?}",
            self.chunks_done, self.chunks_total, self.chunks_run, self.resumed_from, self.wall,
        );
        if let Some(note) = &self.journal_note {
            let _ = writeln!(s, "  journal: {note}");
        }
        let Some(r) = &self.report else {
            let _ = writeln!(
                s,
                "  checkpointed — rerun with the same flags to resume at chunk {}",
                self.chunks_done
            );
            return s;
        };
        let _ = writeln!(
            s,
            "  {} seeds — {} clean, {} degraded, {} over budget, {} crashed, {} quarantined, \
             {}/{} demand queries in budget",
            r.seeds,
            r.clean,
            r.degraded,
            r.over_budget,
            r.crashed,
            r.quarantine.len(),
            r.demand_hits,
            r.demand_queries,
        );
        let _ = writeln!(
            s,
            "  violations: {} raw -> {} deduplicated case(s)",
            r.violations_total,
            r.cases.len()
        );
        for (prop, n) in &r.by_property {
            let _ = writeln!(s, "    {prop:<12} {n}");
        }
        let _ = writeln!(
            s,
            "  dedup: {} diagnostics -> {} unique; {} functions -> {} unique; ratio {}x",
            r.diag_total, r.diag_unique, r.func_total, r.func_unique, r.dedup_ratio
        );
        let (steps, solvers): (Vec<_>, Vec<_>) = self
            .solver_us
            .iter()
            .partition(|(name, _)| name.starts_with("step:"));
        if !solvers.is_empty() {
            let _ = writeln!(s, "  per-solver throughput ({} seeds):", r.seeds);
            for (name, us) in solvers {
                let secs = *us as f64 / 1e6;
                let rate = if secs > 0.0 {
                    r.seeds as f64 / secs
                } else {
                    f64::INFINITY
                };
                let _ = writeln!(s, "    {name:<12} {secs:>8.2}s total  {rate:>10.0} seeds/s");
            }
        }
        if !steps.is_empty() {
            let _ = writeln!(s, "  per-step time ({} seeds):", r.seeds);
            for (name, us) in steps {
                let name = &name["step:".len()..];
                let per_seed = *us as f64 / 1e3 / r.seeds.max(1) as f64;
                let _ = writeln!(
                    s,
                    "    {name:<16} {:>8.2}s total  {per_seed:>8.3} ms/seed",
                    *us as f64 / 1e6
                );
            }
        }
        s
    }
}

/// Rejects a seed range that runs past `i64::MAX`. Seeds are journaled
/// and reported as JSON integers, which stop there; the bound also keeps
/// every `start_seed + i` below `u64::MAX`.
pub fn check_seed_range(start_seed: u64, seeds: u64) -> Result<(), String> {
    let last_seed = start_seed.checked_add(seeds.saturating_sub(1));
    if last_seed.is_none_or(|last| last > i64::MAX as u64) {
        return Err(format!(
            "{seeds} seeds from {start_seed} run past the largest seed, i64::MAX"
        ));
    }
    Ok(())
}

/// Runs (or resumes) a campaign. See the module docs for the contract;
/// the short version: chunked, journaled, panic-isolated, and the final
/// report is a deterministic fold over the journal.
pub fn run(cfg: &CampaignConfig) -> Result<CampaignOutcome, CampaignError> {
    let t0 = Instant::now();
    if cfg.seeds == 0 {
        return Err(CampaignError::Invalid("seeds must be positive".into()));
    }
    if cfg.chunk == 0 {
        return Err(CampaignError::Invalid("chunk must be positive".into()));
    }
    check_seed_range(cfg.start_seed, cfg.seeds).map_err(CampaignError::Invalid)?;
    let threads = if cfg.threads == 0 {
        pool::auto_threads()
    } else {
        cfg.threads
    };
    let qdir = cfg.dir.join("campaign-quarantine");
    fs::create_dir_all(&cfg.dir).map_err(|e| CampaignError::Io(format!("{e}")))?;
    fs::create_dir_all(&qdir).map_err(|e| CampaignError::Io(format!("{e}")))?;

    let key = config_key(cfg);
    let journal_path = cfg.dir.join("journal.ruf95");
    let mut journal_note = None;
    let mut journal = match load_journal(&journal_path) {
        JournalLoad::Missing => Journal {
            config_key: key.clone(),
            chunks: Vec::new(),
        },
        JournalLoad::Rejected(reason) => {
            journal_note = Some(format!("discarded unusable journal ({reason})"));
            Journal {
                config_key: key.clone(),
                chunks: Vec::new(),
            }
        }
        JournalLoad::Loaded(j) => {
            if j.config_key != key {
                return Err(CampaignError::ConfigMismatch {
                    journal: j.config_key,
                    current: key,
                });
            }
            j
        }
    };
    // A journal must be a contiguous prefix of chunks; anything else
    // means manual tampering and restarts the campaign.
    if !journal
        .chunks
        .iter()
        .enumerate()
        .all(|(i, c)| c.index == i as u64)
    {
        journal_note = Some("discarded journal with non-contiguous chunks".into());
        journal.chunks.clear();
    }
    let resumed_from = journal.chunks.len() as u64;
    if resumed_from == 0 {
        // Fresh start: drop quarantine files from any previous run so
        // the directory always mirrors the journal.
        let _ = fs::remove_dir_all(&qdir);
        fs::create_dir_all(&qdir).map_err(|e| CampaignError::Io(format!("{e}")))?;
    }

    let chunks_total = cfg.seeds.div_ceil(cfg.chunk);
    let mut chunks_run = 0u64;
    for index in resumed_from..chunks_total {
        if let Some(max) = cfg.max_chunks {
            if chunks_run >= max {
                break;
            }
        }
        let t_chunk = Instant::now();
        let first = cfg.start_seed + index * cfg.chunk;
        let count = cfg.chunk.min(cfg.start_seed + cfg.seeds - first) as usize;
        let record = run_chunk(cfg, index, first, count, threads);
        if cfg.progress {
            eprintln!(
                "campaign: chunk {}/{} (seeds {first}..{}) — {} clean, {} violations, {} quarantined [{:.2?}]",
                index + 1,
                chunks_total,
                first + count as u64,
                record.clean,
                record.violations.len(),
                record.quarantine.len(),
                t_chunk.elapsed(),
            );
        }
        write_quarantine_files(&qdir, &record.quarantine)?;
        journal.chunks.push(record);
        save_journal(&journal_path, &journal)?;
        chunks_run += 1;
    }

    let complete = journal.chunks.len() as u64 == chunks_total;
    let report_path = cfg.dir.join("CAMPAIGN_report.json");
    let mut solver_us = BTreeMap::new();
    let mut overruns = 0;
    for c in &journal.chunks {
        for (name, us) in &c.solver_us {
            *solver_us.entry(name.clone()).or_insert(0) += us;
        }
        overruns += c.overruns;
    }
    let report = if complete {
        let r = build_report(cfg, &journal);
        let rendered = r.to_value().render_pretty() + "\n";
        atomic_write(&report_path, rendered.as_bytes())?;
        if let Some(out) = &cfg.report_out {
            atomic_write(out, rendered.as_bytes())?;
        }
        // Re-write every quarantine file from the journal so the
        // directory is consistent even after kill/resume cycles.
        for c in &journal.chunks {
            write_quarantine_files(&qdir, &c.quarantine)?;
        }
        Some(r)
    } else {
        None
    };

    Ok(CampaignOutcome {
        complete,
        chunks_total,
        chunks_done: journal.chunks.len() as u64,
        chunks_run,
        resumed_from,
        journal_note,
        report,
        report_path,
        quarantine_dir: qdir,
        solver_us,
        overruns,
        wall: t0.elapsed(),
    })
}

/// Runs one chunk of seeds over the pool and aggregates, including the
/// bounded shrink passes for violations and quarantined jobs.
fn run_chunk(
    cfg: &CampaignConfig,
    index: u64,
    first: u64,
    count: usize,
    threads: usize,
) -> ChunkRecord {
    let t0 = Instant::now();
    type JobResult = (u64, String, Result<fuzz::Findings, String>);
    let jobs: Vec<JobResult> = pool::run_indexed(count, threads, |i| {
        let seed = first + i as u64;
        let src = cfg.fuzz.planted.plant(&generate(seed, &cfg.fuzz.gen));
        let inject = cfg.panic_seed == Some(seed);
        let res = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("campaign: injected test panic at seed {seed}");
            }
            fuzz::check_source(&src, &cfg.fuzz, seed)
        }))
        .map_err(panic_msg);
        (seed, src, res)
    });

    let mut rec = ChunkRecord {
        index,
        ..ChunkRecord::default()
    };
    let mut diag_keys = BTreeSet::new();
    let mut func_fps = BTreeSet::new();
    for (seed, src, res) in jobs {
        match res {
            Ok(f) => {
                rec.demand_queries += f.demand_queries;
                rec.demand_hits += f.demand_hits;
                rec.diag_total += f.diag_total;
                diag_keys.extend(f.diag_keys.iter().copied());
                rec.func_total += f.func_fps.len() as u64;
                func_fps.extend(f.func_fps.iter().copied());
                rec.overruns += f.overruns;
                for (name, us) in &f.solver_us {
                    *rec.solver_us.entry(name.to_string()).or_insert(0) += us;
                }
                // Deterministic notion of clean: wall-clock overruns
                // are advisory and must not perturb journaled counts.
                if f.violations.is_empty() && f.degraded.is_empty() {
                    rec.clean += 1;
                }
                if !f.degraded.is_empty() {
                    rec.degraded += 1;
                }
                if f.outcome() == JobOutcome::OverBudget {
                    rec.over_budget += 1;
                    rec.quarantine.push(QuarantineRecord {
                        seed,
                        outcome: JobOutcome::OverBudget.name().to_string(),
                        detail: f.degraded.first().cloned().unwrap_or_default(),
                        repro: src.clone(),
                        shrunk: false,
                    });
                }
                for v in f.violations {
                    rec.violations.push(CaseRecord {
                        seed,
                        kind: v.kind.to_string(),
                        solver: v.solver,
                        detail: v.detail,
                        source: src.clone(),
                        minimized: None,
                    });
                }
            }
            Err(msg) => {
                rec.crashed += 1;
                rec.quarantine.push(QuarantineRecord {
                    seed,
                    outcome: JobOutcome::Crashed.name().to_string(),
                    detail: msg,
                    repro: src,
                    shrunk: false,
                });
            }
        }
    }
    rec.diag_keys = diag_keys.into_iter().collect();
    rec.func_fps = func_fps.into_iter().collect();

    if cfg.fuzz.shrink {
        shrink_chunk(cfg, &mut rec);
    }
    rec.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    rec
}

/// Bounded minimization for a chunk's violations and quarantine
/// entries. Soundness violations get the slots first — they are the
/// findings a human reads — then fixpoint divergences, incremental
/// divergences and lattice inversions; quarantine entries shrink only
/// when the failure reproduces from source alone, so an injected test
/// panic keeps its full program instead of shrinking against a vacuous
/// predicate.
fn shrink_chunk(cfg: &CampaignConfig, rec: &mut ChunkRecord) {
    let rank = |k: &str| match k {
        "soundness" => 0u8,
        "divergence" => 1,
        "incremental" => 2,
        "lattice" => 3,
        _ => 4,
    };
    let mut order: Vec<usize> = (0..rec.violations.len()).collect();
    order.sort_by_key(|&i| (rank(&rec.violations[i].kind), rec.violations[i].seed, i));
    for &vi in order.iter().take(MAX_SHRINKS_PER_CHUNK) {
        let v = &mut rec.violations[vi];
        let kind = v.kind.clone();
        let solver = v.solver.clone();
        let seed = v.seed;
        let pred = |s: &str| {
            catch_unwind(AssertUnwindSafe(|| fuzz::check_source(s, &cfg.fuzz, seed)))
                .map(|f| {
                    f.violations
                        .iter()
                        .any(|x| x.kind == kind && x.solver == solver)
                })
                .unwrap_or(false)
        };
        v.minimized = Some(shrink(&v.source, &pred));
    }
    let mut shrunk = 0usize;
    for q in rec.quarantine.iter_mut() {
        if shrunk >= MAX_SHRINKS_PER_CHUNK {
            break;
        }
        let seed = q.seed;
        let pred: Box<dyn Fn(&str) -> bool> = if q.outcome == JobOutcome::Crashed.name() {
            Box::new(move |s: &str| {
                catch_unwind(AssertUnwindSafe(|| {
                    fuzz::check_source(s, &cfg.fuzz, seed);
                }))
                .is_err()
            })
        } else {
            Box::new(move |s: &str| {
                catch_unwind(AssertUnwindSafe(|| fuzz::check_source(s, &cfg.fuzz, seed)))
                    .map(|f| f.budget_exhausted)
                    .unwrap_or(false)
            })
        };
        if pred(&q.repro) {
            q.repro = shrink(&q.repro, &*pred);
            q.shrunk = true;
            shrunk += 1;
        }
    }
}

/// Renders the panic payload carried out of `catch_unwind`.
fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Quarantine repro filename for one record.
fn quarantine_file(q: &QuarantineRecord) -> String {
    format!("seed-{}-{}.c", q.seed, q.outcome)
}

fn write_quarantine_files(qdir: &Path, records: &[QuarantineRecord]) -> Result<(), CampaignError> {
    for q in records {
        atomic_write(&qdir.join(quarantine_file(q)), q.repro.as_bytes())?;
    }
    Ok(())
}

/// Every knob that affects canonical per-chunk results. Wall-clock
/// knobs (`budget_ms`) and scheduling knobs (`threads`, `max_chunks`,
/// `progress`) are deliberately absent: changing them mid-campaign is
/// safe and must not invalidate the journal.
fn config_key(cfg: &CampaignConfig) -> String {
    // Corpus statistics are always collected. The key still says
    // `corpus_stats=true`, as it did when they were optional, so those
    // journals resume.
    format!(
        "v{JOURNAL_VERSION}|seeds={}|start={}|chunk={}|max_steps={}|interp_steps={}|shrink={}|corpus_stats=true|fault={:?}|planted={:?}|panic_seed={:?}|gen={:?}",
        cfg.seeds,
        cfg.start_seed,
        cfg.chunk,
        cfg.fuzz.max_steps,
        cfg.fuzz.interp_steps,
        cfg.fuzz.shrink,
        cfg.fuzz.fault,
        cfg.fuzz.planted,
        cfg.panic_seed,
        cfg.fuzz.gen,
    )
}

// ---------------------------------------------------------------------
// Journal persistence (the `crate::envelope` format shared with
// `serve::store`).
// ---------------------------------------------------------------------

fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CampaignError> {
    envelope::write_atomic(path, bytes)
        .map_err(|e| CampaignError::Io(format!("{}: {e}", path.display())))
}

fn save_journal(path: &Path, journal: &Journal) -> Result<(), CampaignError> {
    envelope::save(
        path,
        JOURNAL_MAGIC,
        JOURNAL_VERSION,
        &journal_to_value(journal),
    )
    .map_err(|e| CampaignError::Io(format!("{}: {e}", path.display())))
}

fn load_journal(path: &Path) -> JournalLoad {
    envelope::load(path, JOURNAL_MAGIC, JOURNAL_VERSION, |v| {
        journal_from_value(&v)
    })
}

fn journal_to_value(j: &Journal) -> Value {
    Value::obj([
        ("config", j.config_key.as_str().into()),
        ("chunks", j.chunks.iter().map(chunk_to_value).collect()),
    ])
}

fn chunk_to_value(c: &ChunkRecord) -> Value {
    let hex = |fps: &[u64]| fps.iter().map(|&f| fp_hex(f)).collect();
    Value::obj([
        ("i", c.index.into()),
        ("clean", c.clean.into()),
        ("degraded", c.degraded.into()),
        ("over_budget", c.over_budget.into()),
        ("crashed", c.crashed.into()),
        ("demand_q", c.demand_queries.into()),
        ("demand_h", c.demand_hits.into()),
        ("diag_total", c.diag_total.into()),
        ("diag_keys", hex(&c.diag_keys)),
        ("func_total", c.func_total.into()),
        ("func_fps", hex(&c.func_fps)),
        (
            "violations",
            c.violations
                .iter()
                .map(|v| {
                    Value::obj([
                        ("seed", v.seed.into()),
                        ("kind", v.kind.as_str().into()),
                        ("solver", v.solver.as_str().into()),
                        ("detail", v.detail.as_str().into()),
                        ("source", v.source.as_str().into()),
                        ("minimized", v.minimized.as_deref().into()),
                    ])
                })
                .collect(),
        ),
        (
            "quarantine",
            c.quarantine
                .iter()
                .map(|q| {
                    Value::obj([
                        ("seed", q.seed.into()),
                        ("outcome", q.outcome.as_str().into()),
                        ("detail", q.detail.as_str().into()),
                        ("repro", q.repro.as_str().into()),
                        ("shrunk", q.shrunk.into()),
                    ])
                })
                .collect(),
        ),
        ("overruns", c.overruns.into()),
        (
            "solver_us",
            Value::obj(c.solver_us.iter().map(|(k, &v)| (k.as_str(), v.into()))),
        ),
        ("wall_ms", Value::Float(c.wall_ms)),
    ])
}

fn journal_from_value(v: &Value) -> Option<Journal> {
    let config_key = v.get("config")?.as_str()?.to_string();
    let mut chunks = Vec::new();
    for c in v.get("chunks")?.as_arr()? {
        chunks.push(chunk_from_value(c)?);
    }
    Some(Journal { config_key, chunks })
}

fn hex_list(v: &Value) -> Option<Vec<u64>> {
    v.as_arr()?
        .iter()
        .map(|x| x.as_str().and_then(parse_fp_hex))
        .collect()
}

fn chunk_from_value(v: &Value) -> Option<ChunkRecord> {
    let mut violations = Vec::new();
    for x in v.get("violations")?.as_arr()? {
        violations.push(CaseRecord {
            seed: x.get("seed")?.as_u64()?,
            kind: x.get("kind")?.as_str()?.to_string(),
            solver: x.get("solver")?.as_str()?.to_string(),
            detail: x.get("detail")?.as_str()?.to_string(),
            source: x.get("source")?.as_str()?.to_string(),
            minimized: match x.get("minimized")? {
                Value::Null => None,
                m => Some(m.as_str()?.to_string()),
            },
        });
    }
    let mut quarantine = Vec::new();
    for x in v.get("quarantine")?.as_arr()? {
        quarantine.push(QuarantineRecord {
            seed: x.get("seed")?.as_u64()?,
            outcome: x.get("outcome")?.as_str()?.to_string(),
            detail: x.get("detail")?.as_str()?.to_string(),
            repro: x.get("repro")?.as_str()?.to_string(),
            shrunk: x.get("shrunk")?.as_bool()?,
        });
    }
    let mut solver_us = BTreeMap::new();
    for (k, val) in v.get("solver_us")?.as_obj()? {
        solver_us.insert(k.clone(), val.as_u64()?);
    }
    Some(ChunkRecord {
        index: v.get("i")?.as_u64()?,
        clean: v.get("clean")?.as_u64()?,
        degraded: v.get("degraded")?.as_u64()?,
        over_budget: v.get("over_budget")?.as_u64()?,
        crashed: v.get("crashed")?.as_u64()?,
        demand_queries: v.get("demand_q")?.as_u64()?,
        demand_hits: v.get("demand_h")?.as_u64()?,
        diag_total: v.get("diag_total")?.as_u64()?,
        diag_keys: hex_list(v.get("diag_keys")?)?,
        func_total: v.get("func_total")?.as_u64()?,
        func_fps: hex_list(v.get("func_fps")?)?,
        violations,
        quarantine,
        overruns: v.get("overruns")?.as_u64()?,
        solver_us,
        wall_ms: match v.get("wall_ms")? {
            Value::Float(f) => *f,
            Value::Int(i) => *i as f64,
            _ => return None,
        },
    })
}

// ---------------------------------------------------------------------
// Report assembly and rendering.
// ---------------------------------------------------------------------

fn build_report(cfg: &CampaignConfig, journal: &Journal) -> CampaignReport {
    let mut r = CampaignReport {
        seeds: cfg.seeds,
        start_seed: cfg.start_seed,
        clean: 0,
        degraded: 0,
        over_budget: 0,
        crashed: 0,
        demand_queries: 0,
        demand_hits: 0,
        violations_total: 0,
        by_property: PROPERTIES.iter().map(|p| (p.to_string(), 0)).collect(),
        cases: Vec::new(),
        quarantine: Vec::new(),
        diag_total: 0,
        diag_unique: 0,
        func_total: 0,
        func_unique: 0,
        dedup_ratio: String::new(),
    };
    let mut diag_keys = BTreeSet::new();
    let mut func_fps = BTreeSet::new();
    let mut cases: BTreeMap<u64, CampaignCase> = BTreeMap::new();
    for c in &journal.chunks {
        r.clean += c.clean;
        r.degraded += c.degraded;
        r.over_budget += c.over_budget;
        r.crashed += c.crashed;
        r.demand_queries += c.demand_queries;
        r.demand_hits += c.demand_hits;
        r.diag_total += c.diag_total;
        r.func_total += c.func_total;
        diag_keys.extend(c.diag_keys.iter().copied());
        func_fps.extend(c.func_fps.iter().copied());
        for v in &c.violations {
            r.violations_total += 1;
            if let Some(slot) = r.by_property.iter_mut().find(|(p, _)| *p == v.kind) {
                slot.1 += 1;
            }
            // The issue's dedup keying: property + solver + *shrunk*
            // counterexample (full source for unshrunk overflow).
            let repro = v.minimized.as_deref().unwrap_or(&v.source);
            let fp = fnv64_parts(&[v.kind.as_bytes(), v.solver.as_bytes(), repro.as_bytes()]);
            let case = cases.entry(fp).or_insert_with(|| CampaignCase {
                fingerprint: fp_hex(fp),
                kind: v.kind.clone(),
                solver: v.solver.clone(),
                count: 0,
                seeds: Vec::new(),
                detail: v.detail.clone(),
                minimized: None,
            });
            case.count += 1;
            case.seeds.push(v.seed);
            if case.minimized.is_none() {
                case.minimized = v.minimized.clone();
            }
        }
        for q in &c.quarantine {
            r.quarantine.push(QuarantineCase {
                seed: q.seed,
                outcome: q.outcome.clone(),
                detail: q.detail.clone(),
                shrunk: q.shrunk,
                file: quarantine_file(q),
            });
        }
    }
    r.diag_unique = diag_keys.len() as u64;
    r.func_unique = func_fps.len() as u64;
    let mut cases: Vec<CampaignCase> = cases.into_values().collect();
    cases.sort_by(|a, b| {
        (&a.kind, &a.solver, &a.fingerprint).cmp(&(&b.kind, &b.solver, &b.fingerprint))
    });
    r.cases = cases;
    r.quarantine.sort_by_key(|q| q.seed);
    let raw = r.diag_total + r.func_total + r.violations_total;
    let unique = r.diag_unique + r.func_unique + r.cases.len() as u64;
    r.dedup_ratio = if unique == 0 {
        "1.00".to_string()
    } else {
        format!("{:.2}", raw as f64 / unique as f64)
    };
    r
}

impl CampaignReport {
    /// Canonical JSON form: deterministic and free of wall-clock data,
    /// so kill/resume runs render byte-identical files. CI greps the
    /// pretty rendering for `"soundness": 0` and `"quarantined": 0`.
    pub fn to_value(&self) -> Value {
        let raw_unique =
            |raw: u64, unique: u64| Value::obj([("raw", raw.into()), ("unique", unique.into())]);
        Value::obj([
            ("seeds", self.seeds.into()),
            ("start_seed", self.start_seed.into()),
            ("clean", self.clean.into()),
            ("degraded", self.degraded.into()),
            ("over_budget", self.over_budget.into()),
            ("crashed", self.crashed.into()),
            ("quarantined", self.quarantine.len().into()),
            ("demand_queries", self.demand_queries.into()),
            ("demand_hits", self.demand_hits.into()),
            ("violations_total", self.violations_total.into()),
            (
                "violations_by_property",
                Value::obj(
                    self.by_property
                        .iter()
                        .map(|(p, n)| (p.as_str(), (*n).into())),
                ),
            ),
            (
                "cases",
                self.cases
                    .iter()
                    .map(|c| {
                        Value::obj([
                            ("fingerprint", c.fingerprint.as_str().into()),
                            ("kind", c.kind.as_str().into()),
                            ("solver", c.solver.as_str().into()),
                            ("count", c.count.into()),
                            ("seeds", c.seeds.iter().copied().collect()),
                            ("detail", c.detail.as_str().into()),
                            ("minimized", c.minimized.as_deref().into()),
                        ])
                    })
                    .collect(),
            ),
            (
                "quarantine",
                self.quarantine
                    .iter()
                    .map(|q| {
                        Value::obj([
                            ("seed", q.seed.into()),
                            ("outcome", q.outcome.as_str().into()),
                            ("detail", q.detail.as_str().into()),
                            ("shrunk", q.shrunk.into()),
                            ("file", q.file.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
            (
                "dedup",
                Value::obj([
                    ("diagnostics", raw_unique(self.diag_total, self.diag_unique)),
                    ("functions", raw_unique(self.func_total, self.func_unique)),
                    ("violation_cases", self.cases.len().into()),
                    ("ratio", self.dedup_ratio.as_str().into()),
                ]),
            ),
            ("dedup_ratio", self.dedup_ratio.as_str().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_roundtrips_through_value() {
        let j = Journal {
            config_key: "v1|test".into(),
            chunks: vec![ChunkRecord {
                index: 0,
                clean: 3,
                degraded: 1,
                over_budget: 1,
                crashed: 1,
                demand_queries: 40,
                demand_hits: 39,
                diag_total: 12,
                diag_keys: vec![1, u64::MAX],
                func_total: 7,
                func_fps: vec![42],
                violations: vec![CaseRecord {
                    seed: 5,
                    kind: "soundness".into(),
                    solver: "ci".into(),
                    detail: "d \"quoted\"\nnewline".into(),
                    source: "int main(void) { return 0; }".into(),
                    minimized: None,
                }],
                quarantine: vec![QuarantineRecord {
                    seed: 6,
                    outcome: "crashed".into(),
                    detail: "boom".into(),
                    repro: "int main(void) { return 1; }".into(),
                    shrunk: true,
                }],
                overruns: 2,
                solver_us: [("ci".to_string(), 123u64)].into_iter().collect(),
                wall_ms: 0.0,
            }],
        };
        let v = journal_to_value(&j);
        let parsed = Value::parse(&v.render()).expect("journal json parses");
        let back = journal_from_value(&parsed).expect("journal schema roundtrips");
        assert_eq!(back.config_key, j.config_key);
        assert_eq!(back.chunks.len(), 1);
        let (a, b) = (&back.chunks[0], &j.chunks[0]);
        assert_eq!(a.diag_keys, b.diag_keys);
        assert_eq!(a.violations[0].detail, b.violations[0].detail);
        assert_eq!(a.quarantine[0].shrunk, b.quarantine[0].shrunk);
        assert_eq!(a.solver_us, b.solver_us);
    }

    #[test]
    fn summary_shows_where_a_seed_spends_its_time() {
        let dir = std::env::temp_dir().join(format!("ruf95-steps-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut cfg = CampaignConfig {
            seeds: 2,
            chunk: 2,
            threads: 1,
            dir: dir.clone(),
            progress: false,
            ..CampaignConfig::default()
        };
        cfg.fuzz.gen = suite::generator::GenConfig::threaded();
        let outcome = run(&cfg).expect("campaign runs");
        let summary = outcome.summary();
        let _ = fs::remove_dir_all(&dir);
        let section = |head: &str| -> Vec<String> {
            let lines: Vec<&str> = summary.lines().collect();
            let at = lines
                .iter()
                .position(|l| l.trim_start().starts_with(head))
                .unwrap_or_else(|| panic!("no `{head}` section in:\n{summary}"));
            lines[at + 1..]
                .iter()
                .take_while(|l| l.starts_with("    "))
                .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
                .collect()
        };
        assert_eq!(
            section("per-solver throughput"),
            ["ci", "cs", "k1", "steensgaard", "weihl"]
        );
        assert_eq!(
            section("per-step time"),
            [
                "compile",
                "corpus-stats",
                "oracle",
                "p1-soundness",
                "p2-lattice",
                "p3-naive",
                "p4-incremental",
                "p5-planted",
                "p6-demand",
                "p7-races",
                "roundtrip",
            ]
        );
    }

    #[test]
    fn hostile_journal_bytes_are_rejected_not_panicking() {
        let dir = std::env::temp_dir().join(format!("ruf95-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.ruf95");
        for bytes in [
            &b""[..],
            b"garbage",
            b"ruf95-campaign v1 nothex\n{}",
            b"ruf95-campaign v9 0000000000000000\n{}",
            b"ruf95-campaign v1 0000000000000000\n{\"config\":\"x\",\"chunks\":[]}",
            b"ruf95-campaign v1 0000000000000000\nnot json",
        ] {
            fs::write(&path, bytes).unwrap();
            assert!(matches!(load_journal(&path), JournalLoad::Rejected(_)));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
