//! Corpus-scale dedup accounting behind `ruf95 stats`.
//!
//! Answers the question the cross-program summary pool (ROADMAP items
//! 3/4) will be built on, without building the pool: across a
//! campaign-shaped corpus of generated programs, how many *distinct*
//! functions are there really? Every program is compiled and lowered,
//! each function gets its structural fingerprint
//! ([`alias::fingerprint::GraphIndex`]), and checker diagnostics under
//! the CI solution get their line-keyed dedup keys
//! (`fuzz::diag_key` — the same key the campaign report
//! aggregates). The fold reports totals, uniques, and the dedup ratio a
//! content-addressed pool would realize.
//!
//! The corpus is the campaign generator preset by default
//! ([`GenConfig::campaign`]); the bundled paper suite and threaded
//! litmus programs can be folded in, and the threaded preset
//! ([`GenConfig::threaded`]) swapped in, to measure those populations
//! too.

use crate::pool;
use alias::SolverSpec;
use proto::fp_hex;
use proto::json::Value;
use std::collections::BTreeMap;
use suite::generator::{generate, GenConfig};
use vdg::build::{lower, BuildOptions};

/// Knobs for one corpus scan.
#[derive(Debug, Clone)]
pub struct StatsConfig {
    /// Number of generated programs.
    pub seeds: u64,
    /// First seed of the range (shards compose with campaign shards).
    pub start_seed: u64,
    /// Generator shape knobs; [`GenConfig::campaign`] by default so the
    /// numbers describe the same corpus `ruf95 campaign` drives.
    pub gen: GenConfig,
    /// Also scan the bundled benchmarks and threaded litmus programs.
    pub include_suite: bool,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            seeds: 200,
            start_seed: 0,
            gen: GenConfig::campaign(),
            include_suite: false,
            threads: 0,
        }
    }
}

/// The fold over one corpus: program, function, and diagnostic counts
/// with their deduplicated complements.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    /// Programs scanned (generated seeds plus any suite programs).
    pub programs: u64,
    /// Programs that failed to compile or lower (generator bugs surface
    /// in the fuzzer; here they are only counted).
    pub skipped: u64,
    /// Function instances across the corpus.
    pub func_total: u64,
    /// Distinct function fingerprints.
    pub func_unique: u64,
    /// The most-repeated function fingerprints, `(fingerprint, count)`,
    /// highest count first — the functions a summary pool would
    /// summarize once instead of `count` times.
    pub func_top: Vec<(u64, u64)>,
    /// Raw checker diagnostics under the CI solution.
    pub diag_total: u64,
    /// Distinct line-keyed diagnostic dedup keys.
    pub diag_unique: u64,
}

impl CorpusStats {
    /// `total / unique` as a rendered ratio (`"1.0x"` when empty).
    fn ratio(total: u64, unique: u64) -> String {
        if unique == 0 {
            "1.0x".to_string()
        } else {
            format!("{:.1}x", total as f64 / unique as f64)
        }
    }

    /// Human-readable summary block.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "corpus: {} program(s), {} skipped\n",
            self.programs, self.skipped
        ));
        out.push_str(&format!(
            "functions: {} -> {} unique ({} dedup)\n",
            self.func_total,
            self.func_unique,
            Self::ratio(self.func_total, self.func_unique)
        ));
        out.push_str(&format!(
            "diagnostics: {} -> {} unique ({} dedup)\n",
            self.diag_total,
            self.diag_unique,
            Self::ratio(self.diag_total, self.diag_unique)
        ));
        for (fp, n) in &self.func_top {
            out.push_str(&format!("  top fn {fp:016x}: {n} instance(s)\n"));
        }
        out
    }

    /// The report as a JSON document; fingerprints render as hex
    /// strings.
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("programs", self.programs.into()),
            ("skipped", self.skipped.into()),
            ("func_total", self.func_total.into()),
            ("func_unique", self.func_unique.into()),
            (
                "func_dedup_ratio",
                Self::ratio(self.func_total, self.func_unique).into(),
            ),
            ("diag_total", self.diag_total.into()),
            ("diag_unique", self.diag_unique.into()),
            (
                "diag_dedup_ratio",
                Self::ratio(self.diag_total, self.diag_unique).into(),
            ),
            (
                "func_top",
                self.func_top
                    .iter()
                    .map(|&(fp, n)| {
                        Value::obj([("fingerprint", fp_hex(fp).into()), ("count", n.into())])
                    })
                    .collect(),
            ),
        ])
    }
}

/// Fingerprints and diagnostic keys of one program, before the fold.
fn scan(src: &str) -> Option<(Vec<u64>, Vec<u64>)> {
    let prog = cfront::compile(src).ok()?;
    let graph = lower(&prog, &BuildOptions::default()).ok()?;
    let idx = alias::fingerprint::GraphIndex::build(&graph);
    let ci = SolverSpec::ci().solve_ci(&graph);
    let keys = checker::run_checks(&graph, &ci, &ci.callees)
        .iter()
        .map(|d| crate::fuzz::diag_key(src, d))
        .collect();
    Some((idx.func_fps.clone(), keys))
}

/// Runs the corpus scan: generated seeds in parallel, the optional
/// suite fold-in, then one deterministic aggregation pass.
pub fn collect(cfg: &StatsConfig) -> CorpusStats {
    let threads = if cfg.threads == 0 {
        pool::auto_threads()
    } else {
        cfg.threads
    };
    let mut scans: Vec<Option<(Vec<u64>, Vec<u64>)>> =
        pool::run_indexed(cfg.seeds as usize, threads, |i| {
            let seed = cfg.start_seed + i as u64;
            scan(&generate(seed, &cfg.gen))
        });
    if cfg.include_suite {
        for b in suite::benchmarks().into_iter().chain(suite::litmus()) {
            scans.push(scan(b.source));
        }
    }

    let mut s = CorpusStats {
        programs: scans.len() as u64,
        ..CorpusStats::default()
    };
    let mut func_counts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut diag_keys: BTreeMap<u64, u64> = BTreeMap::new();
    for item in scans {
        let Some((fps, keys)) = item else {
            s.skipped += 1;
            continue;
        };
        s.func_total += fps.len() as u64;
        for fp in fps {
            *func_counts.entry(fp).or_insert(0) += 1;
        }
        s.diag_total += keys.len() as u64;
        for k in keys {
            *diag_keys.entry(k).or_insert(0) += 1;
        }
    }
    s.func_unique = func_counts.len() as u64;
    s.diag_unique = diag_keys.len() as u64;
    let mut top: Vec<(u64, u64)> = func_counts.into_iter().collect();
    // Highest multiplicity first; fingerprint as a deterministic tie
    // break so shards render identically.
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(5);
    top.retain(|(_, n)| *n > 1);
    s.func_top = top;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_corpus_dedups_functions_and_diagnostics() {
        let cfg = StatsConfig {
            seeds: 12,
            threads: 1,
            ..StatsConfig::default()
        };
        let s = collect(&cfg);
        assert_eq!(s.programs, 12);
        assert_eq!(s.skipped, 0, "campaign preset programs always compile");
        assert!(s.func_total > 0 && s.func_unique > 0);
        assert!(
            s.func_unique < s.func_total,
            "the campaign preset repeats function shapes across seeds \
             ({} unique of {})",
            s.func_unique,
            s.func_total
        );
        assert!(s.diag_unique <= s.diag_total);
        let json = s.to_value().render_pretty();
        assert!(json.contains("\"func_unique\""));
        assert!(json.contains("\"func_dedup_ratio\""));
        assert!(s.summary().contains("unique"));
    }

    #[test]
    fn suite_fold_in_and_determinism() {
        let cfg = StatsConfig {
            seeds: 4,
            include_suite: true,
            threads: 2,
            ..StatsConfig::default()
        };
        let a = collect(&cfg);
        let b = collect(&cfg);
        // 13 paper programs + 7 litmus programs on top of the seeds.
        assert_eq!(a.programs, 4 + 13 + 7);
        assert_eq!(a.skipped, 0, "every bundled program compiles");
        assert_eq!(a.to_value(), b.to_value(), "scans are deterministic");
    }
}
