//! Structured per-stage metrics for an engine run, serializable to JSON.
//!
//! [`EngineReport::to_value`] builds the report as a
//! [`proto::json::Value`]; its schema is documented in `DESIGN.md` §6
//! "JSON metrics schema". Durations are `*_ns` integer nanoseconds.
//! A *fingerprint* is the compact rendering of the
//! [`EngineReport::canonical`] form of the report — the same document
//! with every fingerprint-exempt field scrubbed — so two runs can be
//! compared for semantic equality regardless of scheduling, thread
//! count, propagation discipline, cache state, or serving transport.
//! `canonical` is the **single authority** on which fields are exempt;
//! any new work-description field (daemon latency, cache-hit counters,
//! …) must be scrubbed there, and nowhere else, or it would silently
//! perturb fingerprints.

use proto::json::Value;
use proto::ServeInfo;
use std::time::Duration;

/// Metrics for one solver on one benchmark.
#[derive(Debug, Clone)]
pub struct SolverMetrics {
    /// [`alias::SolverSpec::name`] of the producing solver.
    pub analysis: String,
    /// Wall-clock time of the solve call.
    pub wall: Duration,
    /// Total points-to pairs (`None` for the unification solver) — the
    /// solution-size / peak-pair metric.
    pub pairs: Option<usize>,
    /// Transfer-function applications (worklist iterations). They
    /// describe the work done, not the solution, so the fingerprint
    /// nulls them.
    pub flow_ins: Option<u64>,
    /// Meet operations (work-dependent like `flow_ins`; nulled in the
    /// fingerprint).
    pub flow_outs: Option<u64>,
    /// Emission attempts deduplicated by the committed sets
    /// (scheduling-dependent; nulled in the fingerprint).
    pub dedup_hits: Option<u64>,
    /// Batched delta deliveries consumed under difference propagation
    /// (`None` under naive propagation; nulled in the fingerprint).
    pub delta_batches: Option<u64>,
    /// Worklist deliveries saved by delta batching:
    /// `flow_ins − delta_batches` (nulled in the fingerprint).
    pub deliveries_saved: Option<u64>,
    /// How an incremental run obtained this solution (`"replayed"` or
    /// `"fresh(..)"`); `None` for plain runs. Describes
    /// the work done, not the solution, so the fingerprint nulls it.
    pub mode: Option<String>,
    /// Failure (e.g. a step-budget overflow), if the solve failed.
    pub error: Option<String>,
    /// Checker diagnostics under this solution, attached by
    /// [`crate::EngineRun::run_checks`]; `None` when the run skipped
    /// checking. Solution-derived and deterministic, so the fingerprint
    /// keeps it.
    pub checks: Option<CheckMetrics>,
}

/// Oracle-labeled checker counts for one solver on one benchmark (the
/// `--check` rows of a report).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckMetrics {
    /// Diagnostics per checker, in `checker::CheckKind::all()` order:
    /// use-after-free, double-free, dangling-local, uninit-read,
    /// null-deref, dead-store, data-race.
    pub diags: [usize; 7],
    /// Oracle-confirmed diagnostics.
    pub true_positives: usize,
    /// Diagnostics whose site executed without the defect.
    pub false_positives: usize,
    /// Diagnostics at sites the oracle run never reached.
    pub unreachable: usize,
    /// A runtime fault no diagnostic predicted — a checker+solver
    /// soundness failure. Must stay `false`.
    pub refuted: bool,
}

impl CheckMetrics {
    fn to_value(&self) -> Value {
        Value::obj([
            ("diags", self.diags.iter().copied().collect()),
            ("true_positives", self.true_positives.into()),
            ("false_positives", self.false_positives.into()),
            ("unreachable", self.unreachable.into()),
            ("refuted", self.refuted.into()),
        ])
    }
}

/// Cache-effectiveness counters of one incremental run.
#[derive(Debug, Clone, Default)]
pub struct IncrementalStats {
    /// Benchmarks answered entirely from cache (source or graph
    /// fingerprint match).
    pub benches_replayed: usize,
    /// Benchmarks solved from scratch.
    pub benches_fresh: usize,
    /// Functions of the benchmarks solved from scratch.
    pub funcs_dirty: usize,
    /// Individual solver solutions replayed from cache.
    pub solutions_replayed: usize,
}

/// Per-benchmark stage timings, sizes, and solver metrics.
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    /// Benchmark name.
    pub name: String,
    /// Non-blank source lines.
    pub lines: usize,
    /// VDG nodes after lowering.
    pub nodes: usize,
    /// VDG outputs.
    pub outputs: usize,
    /// Indirect memory operations (the §4.3 comparison sites).
    pub indirect_refs: usize,
    /// Lex + parse + sema wall time.
    pub frontend: Duration,
    /// VDG lowering wall time.
    pub lowering: Duration,
    /// One entry per solver, in the engine's solver order.
    pub solvers: Vec<SolverMetrics>,
}

/// The full result of an engine run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Worker threads the run actually used.
    pub threads: usize,
    /// End-to-end wall time of the run, all stages included.
    pub total_wall: Duration,
    /// One entry per benchmark, in job order.
    pub benchmarks: Vec<BenchmarkReport>,
    /// Cache-effectiveness counters, for incremental runs only. Like
    /// the timings, these describe the work done rather than the
    /// solution, so the fingerprint nulls them.
    pub incremental: Option<IncrementalStats>,
    /// Serving counters — the response's own [`ServeInfo`] — attached
    /// only by the `ruf95 serve` service to analyze reports. Work
    /// description like `incremental`; fingerprint-exempt.
    pub serve: Option<ServeInfo>,
}

impl EngineReport {
    /// The timing-free canonical form: identical across runs whenever
    /// the analysis *results* are identical, whatever the parallelism.
    pub fn fingerprint(&self) -> String {
        self.canonical().to_value().render()
    }

    /// Scrubs every fingerprint-exempt field — the one place in the
    /// workspace that decides what the fingerprint ignores. Exempt are
    /// the fields that describe the *work done* rather than the
    /// solution computed: timings and thread count, the fixpoint work
    /// counters (`flow_ins`, `flow_outs`) and delta-batch scheduling
    /// counters (`dedup_hits`, `delta_batches`, `deliveries_saved`), the
    /// incremental `mode` strings and cache counters, and the daemon's
    /// [`ServeInfo`]. Everything else — sizes, pair counts, checker
    /// diagnostics, errors — is solution-derived and must survive.
    ///
    /// Adding a field to the report? If it can differ between two runs
    /// that computed identical solutions, scrub it here, or restart
    /// replay and cross-run equivalence comparisons will break.
    pub fn canonical(&self) -> EngineReport {
        let mut r = self.clone();
        r.threads = 0;
        r.total_wall = Duration::ZERO;
        r.incremental = None;
        r.serve = None;
        for b in &mut r.benchmarks {
            b.frontend = Duration::ZERO;
            b.lowering = Duration::ZERO;
            for s in &mut b.solvers {
                s.wall = Duration::ZERO;
                s.flow_ins = None;
                s.flow_outs = None;
                s.dedup_hits = None;
                s.delta_batches = None;
                s.deliveries_saved = None;
                s.mode = None;
            }
        }
        r
    }

    /// Sum of one solver's wall time across all benchmarks.
    pub fn solver_wall(&self, analysis: &str) -> Duration {
        self.benchmarks
            .iter()
            .flat_map(|b| &b.solvers)
            .filter(|s| s.analysis == analysis)
            .map(|s| s.wall)
            .sum()
    }

    /// The report as a JSON document, exactly as the struct holds it —
    /// no field is scrubbed here. Exemption decisions all live in
    /// [`EngineReport::canonical`].
    pub fn to_value(&self) -> Value {
        let ns = |d: Duration| Value::from(d.as_nanos() as u64);
        let incremental = self.incremental.as_ref().map(|s| {
            Value::obj([
                ("benches_replayed", s.benches_replayed.into()),
                ("benches_fresh", s.benches_fresh.into()),
                ("funcs_dirty", s.funcs_dirty.into()),
                ("solutions_replayed", s.solutions_replayed.into()),
            ])
        });
        let solver = |s: &SolverMetrics| {
            Value::obj([
                ("analysis", s.analysis.as_str().into()),
                ("wall_ns", ns(s.wall)),
                ("pairs", s.pairs.into()),
                ("flow_ins", s.flow_ins.into()),
                ("flow_outs", s.flow_outs.into()),
                ("dedup_hits", s.dedup_hits.into()),
                ("delta_batches", s.delta_batches.into()),
                ("deliveries_saved", s.deliveries_saved.into()),
                ("mode", s.mode.as_deref().into()),
                ("error", s.error.as_deref().into()),
                (
                    "checks",
                    s.checks.as_ref().map(CheckMetrics::to_value).into(),
                ),
            ])
        };
        let bench = |b: &BenchmarkReport| {
            Value::obj([
                ("name", b.name.as_str().into()),
                ("lines", b.lines.into()),
                ("nodes", b.nodes.into()),
                ("outputs", b.outputs.into()),
                ("indirect_refs", b.indirect_refs.into()),
                ("frontend_ns", ns(b.frontend)),
                ("lowering_ns", ns(b.lowering)),
                ("solvers", b.solvers.iter().map(solver).collect()),
            ])
        };
        Value::obj([
            ("threads", self.threads.into()),
            ("total_wall_ns", ns(self.total_wall)),
            ("incremental", incremental.into()),
            ("serve", self.serve.as_ref().map(ServeInfo::to_value).into()),
            ("benchmarks", self.benchmarks.iter().map(bench).collect()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineReport {
        EngineReport {
            threads: 4,
            total_wall: Duration::from_millis(12),
            benchmarks: vec![BenchmarkReport {
                name: "span".into(),
                lines: 100,
                nodes: 500,
                outputs: 700,
                indirect_refs: 9,
                frontend: Duration::from_micros(80),
                lowering: Duration::from_micros(200),
                solvers: vec![
                    SolverMetrics {
                        analysis: "ci".into(),
                        wall: Duration::from_micros(300),
                        pairs: Some(1234),
                        flow_ins: Some(5000),
                        flow_outs: Some(800),
                        dedup_hits: Some(42),
                        delta_batches: Some(700),
                        deliveries_saved: Some(4300),
                        mode: Some("fresh(graph changed)".into()),
                        error: None,
                        checks: Some(CheckMetrics {
                            diags: [1, 0, 2, 0, 0, 3, 1],
                            true_positives: 4,
                            false_positives: 1,
                            unreachable: 1,
                            refuted: false,
                        }),
                    },
                    SolverMetrics {
                        analysis: "steensgaard".into(),
                        wall: Duration::from_micros(40),
                        pairs: None,
                        flow_ins: None,
                        flow_outs: None,
                        dedup_hits: None,
                        delta_batches: None,
                        deliveries_saved: None,
                        mode: None,
                        error: None,
                        checks: None,
                    },
                ],
            }],
            incremental: Some(IncrementalStats {
                benches_fresh: 1,
                funcs_dirty: 4,
                ..IncrementalStats::default()
            }),
            serve: Some(ServeInfo {
                latency_us: 740,
                benches_replayed: 1,
                solutions_replayed: 5,
                restored: true,
                demand_hits: 2,
                demand_fallbacks: 1,
                demand_budget_exhausted: 0,
                restore_us: 120,
                ..ServeInfo::default()
            }),
        }
    }

    fn to_json(r: &EngineReport) -> String {
        r.to_value().render_pretty()
    }

    /// The fingerprint document, parsed back.
    fn fp_doc(r: &EngineReport) -> Value {
        Value::parse(&r.fingerprint()).expect("fingerprint is JSON")
    }

    fn first_solver(doc: &Value) -> &Value {
        &doc.get("benchmarks").unwrap().as_arr().unwrap()[0]
            .get("solvers")
            .unwrap()
            .as_arr()
            .unwrap()[0]
    }

    #[test]
    fn json_has_all_fields_and_nulls() {
        let j = to_json(&sample());
        for needle in [
            "\"threads\": 4",
            "\"name\": \"span\"",
            "\"pairs\": 1234",
            "\"flow_ins\": null",
            "\"error\": null",
            "\"indirect_refs\": 9",
            "\"dedup_hits\": 42",
            "\"delta_batches\": 700",
            "\"deliveries_saved\": 4300",
            "\"mode\": \"fresh(graph changed)\"",
            "\"funcs_dirty\": 4",
            "\"checks\": null",
        ] {
            assert!(j.contains(needle), "missing {needle} in\n{j}");
        }
        let doc = Value::parse(&j).expect("report is JSON");
        let serve = doc.get("serve").expect("serve block");
        for (key, want) in [
            ("latency_us", 740),
            ("benches_replayed", 1),
            ("solutions_replayed", 5),
            ("demand_hits", 2),
            ("demand_fallbacks", 1),
            ("demand_budget_exhausted", 0),
            ("restore_us", 120),
        ] {
            assert_eq!(serve.get(key).and_then(Value::as_i64), Some(want), "{key}");
        }
        assert_eq!(serve.get("restored"), Some(&Value::Bool(true)));
        let checks = first_solver(&doc).get("checks").expect("checks block");
        let diags: Vec<i64> = checks
            .get("diags")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter_map(Value::as_i64)
            .collect();
        assert_eq!(diags, [1, 0, 2, 0, 0, 3, 1]);
        for (key, want) in [
            ("true_positives", 4),
            ("false_positives", 1),
            ("unreachable", 1),
        ] {
            assert_eq!(checks.get(key).and_then(Value::as_i64), Some(want), "{key}");
        }
        assert_eq!(checks.get("refuted"), Some(&Value::Bool(false)));
    }

    #[test]
    fn fingerprint_nulls_delta_batch_counters() {
        let mut a = sample();
        let mut b = sample();
        // Different propagation schedules: different dedup/batch stats,
        // different transfer-application counts...
        a.benchmarks[0].solvers[0].dedup_hits = Some(1);
        a.benchmarks[0].solvers[0].delta_batches = None;
        a.benchmarks[0].solvers[0].deliveries_saved = None;
        a.benchmarks[0].solvers[0].flow_ins = Some(7);
        b.benchmarks[0].solvers[0].dedup_hits = Some(9000);
        // ...same fingerprint, as long as the solutions agree.
        assert_eq!(a.fingerprint(), b.fingerprint());
        let doc = fp_doc(&a);
        assert_eq!(first_solver(&doc).get("dedup_hits"), Some(&Value::Null));
        // Work-description fields are nulled too: an incremental run and
        // a plain run that computed the same fixpoint must agree.
        assert_eq!(first_solver(&doc).get("mode"), Some(&Value::Null));
        assert_eq!(doc.get("incremental"), Some(&Value::Null));
        assert_ne!(to_json(&a), to_json(&b));
    }

    #[test]
    fn fingerprint_scrubs_serve_stats() {
        let mut a = sample();
        let mut b = sample();
        a.serve = Some(ServeInfo {
            latency_us: 3,
            ..ServeInfo::default()
        });
        b.serve = None;
        // A warm daemon answer and a plain in-process run of the same
        // solutions must fingerprint identically.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(fp_doc(&a).get("serve"), Some(&Value::Null));
        assert_ne!(to_json(&a), to_json(&b));
    }

    #[test]
    fn canonical_is_idempotent_and_authoritative() {
        let r = sample();
        let c = r.canonical();
        // Rendering the canonical form directly IS the fingerprint:
        // no second scrubbing pass hides an exemption elsewhere.
        assert_eq!(c.to_value().render(), r.fingerprint());
        assert_eq!(c.canonical().to_value().render(), r.fingerprint());
    }

    #[test]
    fn fingerprint_zeroes_every_timing() {
        let mut a = sample();
        let mut b = sample();
        a.threads = 1;
        a.total_wall = Duration::from_secs(9);
        a.benchmarks[0].frontend = Duration::from_secs(1);
        a.benchmarks[0].solvers[0].wall = Duration::from_secs(2);
        b.threads = 16;
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(to_json(&a), to_json(&b));
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = sample();
        r.benchmarks[0].name = "a\"b\\c\n\td".into();
        for text in [to_json(&r), r.fingerprint()] {
            let doc = Value::parse(&text).expect("escaped output parses");
            let name = &doc.get("benchmarks").unwrap().as_arr().unwrap()[0];
            assert_eq!(
                name.get("name").and_then(Value::as_str),
                Some("a\"b\\c\n\td")
            );
        }
    }
}
