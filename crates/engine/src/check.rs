//! Check mode: running the `checker` crate's six memory-safety checkers
//! over a finished engine run and attaching the oracle-labeled counts to
//! the report.
//!
//! Every solver solution a run produced is re-used as-is — checking is a
//! pure post-pass over [`crate::BenchOutput`], so the per-benchmark
//! `Program`/`Graph`/CI artifacts and all five solutions are shared with
//! the analysis stage. One oracle run per benchmark labels every
//! solver's diagnostics (the run is solver-independent ground truth).
//!
//! For incremental runs, [`EngineRun::run_checks_cached`] memoizes each
//! benchmark's rows, and their [`check_fingerprint`], in its
//! [`SummaryCache`] entry, keyed by source hash and interpreter input: a
//! benchmark the edit did not touch replays its rows verbatim, and only
//! the dirty benchmarks re-run the checkers and the oracle. Graph-level
//! replay is *not* enough to reuse diagnostics — a whitespace-only edit
//! moves spans — and neither is the source alone: the oracle's labels
//! depend on the input the program reads.

use crate::incremental::EntryChecks;
use crate::report::CheckMetrics;
use crate::{BenchOutput, EngineRun, SummaryCache};
use alias::fingerprint::{fnv64, Fnv64};
use checker::harness::{oracle_races, oracle_run};
use checker::{label_with_races, refuted_fault, refuted_race, CheckKind, LabeledDiagnostic};
use proto::json::Value;

/// One benchmark's oracle-labeled diagnostics, one row per solver.
#[derive(Clone)]
pub struct BenchChecks {
    /// Benchmark name.
    pub name: String,
    /// Per-solver rows, in the run's solver order.
    pub rows: Vec<checker::PrecisionRow>,
}

impl BenchChecks {
    /// Whether any solver's row carries an oracle-refuted fault or an
    /// oracle-refuted (unpredicted) data race.
    pub fn any_refuted(&self) -> bool {
        self.rows
            .iter()
            .any(|r| r.refuted.is_some() || r.refuted_race.is_some())
    }
}

fn check_bench(b: &BenchOutput) -> BenchChecks {
    let rec = oracle_run(&b.program, &b.input);
    let obs = oracle_races(&b.program, &b.input);
    let rows = b
        .solutions
        .iter()
        .map(|s| {
            let (labeled, refuted, race): (Vec<LabeledDiagnostic>, _, _) =
                match s.solution.as_deref() {
                    Some(sol) => {
                        let diags = checker::run_checks(&b.graph, sol, &b.ci.callees);
                        let refuted = refuted_fault(&diags, &rec);
                        let race = obs.as_ref().and_then(|o| refuted_race(&diags, o));
                        (label_with_races(diags, &rec, obs.as_ref()), refuted, race)
                    }
                    // A failed solve (step-budget overflow) has no solution
                    // to check; the row stays empty rather than refuted.
                    None => (Vec::new(), None, None),
                };
            let counts = checker::CheckCounts::from_labeled(&labeled);
            checker::PrecisionRow {
                solver: s.analysis.clone(),
                labeled,
                refuted,
                refuted_race: race,
                counts,
            }
        })
        .collect();
    BenchChecks {
        name: b.name.clone(),
        rows,
    }
}

fn metrics_of(row: &checker::PrecisionRow) -> CheckMetrics {
    CheckMetrics {
        diags: row.counts.by_kind,
        true_positives: row.counts.true_positives,
        false_positives: row.counts.false_positives,
        unreachable: row.counts.unreachable,
        refuted: row.refuted.is_some(),
    }
}

impl EngineRun {
    /// Runs every checker under every solved solution of every
    /// benchmark, labels the diagnostics against one oracle run per
    /// benchmark, attaches [`CheckMetrics`] rows to the report, and
    /// returns the labeled diagnostics for rendering.
    pub fn run_checks(&mut self) -> Vec<BenchChecks> {
        let checks = self.benches.iter().map(check_bench).collect();
        self.attach_checks(checks)
    }

    /// Like [`EngineRun::run_checks`], but replays the rows memoized in
    /// `cache` for benchmarks whose source text and input are unchanged
    /// since they were last checked — the check-mode analogue of
    /// incremental solution replay — and memoizes the rest, with their
    /// [`check_fingerprint`], in the benchmarks' entries.
    pub fn run_checks_cached(&mut self, cache: &mut SummaryCache) -> Vec<BenchChecks> {
        let checks = self.benches.iter().map(|b| cache.checks(b)).collect();
        self.attach_checks(checks)
    }

    fn attach_checks(&mut self, checks: Vec<BenchChecks>) -> Vec<BenchChecks> {
        for (report, bc) in self.report.benchmarks.iter_mut().zip(&checks) {
            for row in &bc.rows {
                if let Some(m) = report.solvers.iter_mut().find(|s| s.analysis == row.solver) {
                    m.checks = Some(metrics_of(row));
                }
            }
        }
        checks
    }
}

impl SummaryCache {
    /// `b`'s check rows, replayed from its entry when they were labelled
    /// under the same source and input, else run and memoized there.
    fn checks(&mut self, b: &BenchOutput) -> BenchChecks {
        let source_hash = fnv64(b.source.as_bytes());
        let memo = self.get(&b.name).and_then(|e| e.checks.as_ref());
        if let Some(rows) = memo
            .filter(|c| c.source_hash == source_hash && c.input == b.input)
            .and_then(|c| c.rows.clone())
        {
            return BenchChecks {
                name: b.name.clone(),
                rows,
            };
        }
        let bc = check_bench(b);
        if let Some(e) = self.entry_mut(&b.name) {
            e.checks = Some(EntryChecks {
                source_hash,
                input: b.input.clone(),
                rows: Some(bc.rows.clone()),
                fp: check_fingerprint(b, &bc),
            });
        }
        bc
    }
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

/// Renders one benchmark's diagnostics (under `analysis`) with source
/// carets and oracle labels, as `ruf95 check` prints them.
pub fn render_diagnostics(b: &BenchOutput, checks: &BenchChecks, analysis: &str) -> String {
    let file = cfront::SourceFile::new(&b.name, &b.source);
    let mut out = String::new();
    let all = analysis == "all";
    for row in &checks.rows {
        if !all && row.solver != analysis {
            continue;
        }
        if all && !row.labeled.is_empty() {
            out.push_str(&format!("---- {} ----\n", row.solver));
        }
        for l in &row.labeled {
            out.push_str(&l.diag.render(&file));
            out.push_str(&format!("\n  oracle: {}\n", l.label.name()));
        }
        if let Some(f) = &row.refuted {
            out.push_str(&format!(
                "!! refuted: runtime fault {:?} at an unflagged site ({})\n",
                f.kind, f.message
            ));
        }
        if let Some((a, b)) = &row.refuted_race {
            out.push_str(&format!(
                "!! refuted: observed data race between sites {} and {} that no diagnostic predicted\n",
                a.0, b.0
            ));
        }
    }
    out
}

/// Labeled diagnostics for `ruf95 check --json`: an array of objects,
/// one per diagnostic of the chosen solver — or of every solver when
/// `analysis` is `"all"` (each object names its solver in
/// `"analysis"`).
pub fn diagnostics_value(b: &BenchOutput, checks: &BenchChecks, analysis: &str) -> Value {
    let file = cfront::SourceFile::new(&b.name, &b.source);
    checks
        .rows
        .iter()
        .filter(|r| analysis == "all" || r.solver == analysis)
        .flat_map(|row| row.labeled.iter())
        .map(|l| {
            let lc = file.line_col(l.diag.span.start);
            Value::obj([
                ("kind", l.diag.kind.name().into()),
                ("severity", l.diag.severity.label().into()),
                ("analysis", l.diag.analysis.as_str().into()),
                ("line", u64::from(lc.line).into()),
                ("col", u64::from(lc.col).into()),
                ("message", l.diag.message.as_str().into()),
                ("label", l.label.name().into()),
                (
                    "witness",
                    l.diag.witness.iter().map(String::as_str).collect(),
                ),
            ])
        })
        .collect()
}

/// Re-checks the false-positive monotonicity claim on finished rows:
/// along the spectrum suffix CS → CI → Weihl, a coarser solver may only
/// add false positives for the base-set-monotone checkers. Returns the
/// first violated pair, if any. Used by tests and the CI smoke step.
pub fn fp_monotone_violation(checks: &[BenchChecks]) -> Option<String> {
    // Coarse-to-fine chains provable from base-set inclusion. k=1 and
    // assumption-set CS are pointwise incomparable with each other but
    // both refine CI.
    const CHAINS: [(&str, &str); 4] = [
        ("weihl", "ci"),
        ("steensgaard", "ci"),
        ("ci", "cs"),
        ("ci", "k1"),
    ];
    for bc in checks {
        for (coarse, fine) in CHAINS {
            let (Some(c), Some(f)) = (
                bc.rows.iter().find(|r| r.solver == coarse),
                bc.rows.iter().find(|r| r.solver == fine),
            ) else {
                continue;
            };
            if c.counts.false_positives < f.counts.false_positives {
                return Some(format!(
                    "{}: {} has {} false positives but coarser {} has {}",
                    bc.name, fine, f.counts.false_positives, coarse, c.counts.false_positives
                ));
            }
            // Site-level inclusion for the monotone checkers: every
            // diagnostic the fine solver emits, the coarse one emits.
            let monotone = [
                CheckKind::UseAfterFree,
                CheckKind::DoubleFree,
                CheckKind::DanglingLocal,
                // The race checker intersects referent sets over a
                // solver-independent MHP relation, so a pair the fine
                // solver flags, any coarser solver flags too.
                CheckKind::DataRace,
            ];
            let sites = |row: &checker::PrecisionRow| -> Vec<(u32, CheckKind)> {
                row.labeled
                    .iter()
                    .filter(|l| monotone.contains(&l.diag.kind))
                    .map(|l| (l.diag.span.start, l.diag.kind))
                    .collect()
            };
            let cs = sites(c);
            for s in sites(f) {
                if !cs.contains(&s) {
                    return Some(format!(
                        "{}: {fine} flags {s:?} but coarser {coarse} does not",
                        bc.name
                    ));
                }
            }
        }
    }
    None
}

/// Total oracle-labeled counts across one solver's rows (or across all
/// five when `analysis` is `"all"`), for summary lines:
/// `(diagnostics, true positives, false positives, unreachable)`.
pub fn totals_for(checks: &[BenchChecks], analysis: &str) -> (usize, usize, usize, usize) {
    let mut t = (0, 0, 0, 0);
    for bc in checks {
        for r in bc
            .rows
            .iter()
            .filter(|r| analysis == "all" || r.solver == analysis)
        {
            t.0 += r.counts.total();
            t.1 += r.counts.true_positives;
            t.2 += r.counts.false_positives;
            t.3 += r.counts.unreachable;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Job};
    use checker::Label;

    #[test]
    fn check_rows_attach_to_report_and_replay_from_cache() {
        let e = Engine::new().threads(2);
        let mut cache = e.cache();
        let jobs = Job::named(&["span"]);
        let mut run = e.analyze_incremental_with(&mut cache, &jobs).unwrap();
        let checks = run.run_checks_cached(&mut cache);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].rows.len(), 5);
        assert!(
            !checks[0].any_refuted(),
            "span must have no oracle-refuted diagnostics"
        );
        for s in &run.report.benchmarks[0].solvers {
            let m = s.checks.as_ref().expect("checks attached");
            assert!(!m.refuted);
        }
        let doc = Value::parse(&run.report.to_value().render_pretty()).unwrap();
        let solvers = doc.get("benchmarks").and_then(Value::as_arr).unwrap()[0]
            .get("solvers")
            .and_then(Value::as_arr)
            .unwrap();
        assert!(solvers
            .iter()
            .all(|s| s.get("checks").and_then(|c| c.get("diags")).is_some()));
        let fp = check_fingerprint(&run.benches[0], &checks[0]);
        assert_eq!(cache.get("span").and_then(|e| e.check_fp()), Some(fp));

        // Unchanged source and input: the second pass replays the rows
        // memoized in the entry. Mark the memoized rows so a replay is
        // told apart from a re-run of the checkers and the oracle.
        let marked = |rows: &mut Vec<checker::PrecisionRow>| {
            for r in rows {
                r.counts.unreachable += 1000;
            }
        };
        let memo = cache.entry_mut("span").unwrap().checks.as_mut().unwrap();
        marked(memo.rows.as_mut().unwrap());
        let mut run2 = e.analyze_incremental_with(&mut cache, &jobs).unwrap();
        let again = run2.run_checks_cached(&mut cache);
        let mut expect = checks[0].rows.clone();
        marked(&mut expect);
        assert_eq!(again[0].rows.len(), expect.len());
        for (a, x) in again[0].rows.iter().zip(&expect) {
            assert_eq!(
                a.counts, x.counts,
                "{}: rows replayed from the entry",
                a.solver
            );
        }
        assert_eq!(cache.get("span").and_then(|e| e.check_fp()), Some(fp));

        // A new input bypasses the memo: the oracle re-runs and the
        // marked rows are replaced.
        let mut jobs3 = jobs.clone();
        jobs3[0].input = b"x".to_vec();
        let mut run3 = e.analyze_incremental_with(&mut cache, &jobs3).unwrap();
        let rerun = run3.run_checks_cached(&mut cache);
        let cold = e.run(&jobs3).unwrap().run_checks();
        assert_eq!(rerun[0].rows.len(), cold[0].rows.len());
        for (a, x) in rerun[0].rows.iter().zip(&cold[0].rows) {
            assert_eq!(a.counts, x.counts, "{}: rows re-run", a.solver);
        }
    }

    #[test]
    fn labels_partition_diagnostics() {
        let mut run = Engine::new()
            .threads(1)
            .run(&Job::named(&["anagram"]))
            .unwrap();
        for bc in run.run_checks() {
            for row in &bc.rows {
                let by_label = |l: Label| row.labeled.iter().filter(|d| d.label == l).count();
                assert_eq!(
                    row.counts.total(),
                    by_label(Label::TruePositive)
                        + by_label(Label::FalsePositive)
                        + by_label(Label::Unreachable)
                );
            }
        }
    }
}
