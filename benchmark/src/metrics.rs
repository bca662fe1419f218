//! Metric names, units and the result line.

use crate::speed::{self, Probe, Timing};
use crate::stats;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a per-layer metric is a time (varies run to run) or a
/// deterministic count or ratio of counts (must repeat exactly for the
/// same seed).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Time,
    Count,
}

use Kind::{Count, Time};

/// Every per-layer metric, in output order: (name, unit, kind). Busy
/// times are the layer's self time per operation of the traced pass
/// (program, request or seed); counts are totals over the traced pass,
/// which is a fixed, seed-determined set of operations.
pub const LAYERS: &[(&str, &str, Kind)] = &[
    ("cfront.compile.busy_ms", "ms", Time),
    ("cfront.compile.lines", "count", Count),
    ("vdg.lower.busy_ms", "ms", Time),
    ("vdg.lower.nodes", "count", Count),
    ("alias.weihl.busy_ms", "ms", Time),
    ("alias.steensgaard.busy_ms", "ms", Time),
    ("alias.ci.busy_ms", "ms", Time),
    ("alias.k1.busy_ms", "ms", Time),
    ("alias.cs.busy_ms", "ms", Time),
    ("alias.weihl.flow_ins", "count", Count),
    ("alias.ci.flow_ins", "count", Count),
    ("alias.k1.flow_ins", "count", Count),
    ("alias.cs.flow_ins", "count", Count),
    ("alias.weihl.dedup_frac", "frac", Count),
    ("alias.ci.dedup_frac", "frac", Count),
    ("alias.k1.dedup_frac", "frac", Count),
    ("alias.cs.dedup_frac", "frac", Count),
    ("alias.weihl.pairs", "count", Count),
    ("alias.steensgaard.pairs", "count", Count),
    ("alias.ci.pairs", "count", Count),
    ("alias.k1.pairs", "count", Count),
    ("alias.cs.pairs", "count", Count),
    ("alias.weihl.cone_frac", "frac", Count),
    ("alias.steensgaard.cone_frac", "frac", Count),
    ("alias.ci.cone_frac", "frac", Count),
    ("alias.k1.cone_frac", "frac", Count),
    ("alias.cs.cone_frac", "frac", Count),
    ("alias.demand.busy_ms", "ms", Time),
    ("alias.demand.outputs_active", "count", Count),
    ("alias.demand.steps", "count", Count),
    ("alias.demand.fallback_frac", "frac", Count),
    ("engine.incremental.funcs_reused_frac", "frac", Count),
    ("engine.incremental.benches_replayed", "count", Count),
    ("engine.incremental.benches_seeded", "count", Count),
    ("engine.incremental.benches_fresh", "count", Count),
    ("engine.campaign.other_ms", "ms", Time),
    ("checker.run_checks.busy_ms", "ms", Time),
    ("checker.run_checks.diagnostics", "count", Count),
    ("checker.check_races.busy_ms", "ms", Time),
    ("interp.oracle_run.busy_ms", "ms", Time),
    ("interp.oracle_races.busy_ms", "ms", Time),
    ("interp.oracle_races.schedules", "count", Count),
    ("interp.check_solution.busy_ms", "ms", Time),
    ("suite.generate.busy_ms", "ms", Time),
    ("proto.encode.busy_us", "us", Time),
    ("proto.decode.busy_us", "us", Time),
    ("proto.frame_bytes", "bytes", Count),
    ("serve.handle.analyze.busy_ms", "ms", Time),
    ("serve.handle.query.busy_us", "us", Time),
    ("serve.handle.check.busy_ms", "ms", Time),
    ("serve.handle.evict.busy_us", "us", Time),
    ("serve.daemon.wait_us", "us", Time),
    ("serve.store.restore_ms", "ms", Time),
    ("serve.store.bytes", "bytes", Count),
    ("serve.query.demand_frac", "frac", Count),
    ("edit_p50_ms", "ms", Time),
    ("edit_tail_ms", "ms", Time),
    ("query_p50_us", "us", Time),
    ("query_tail_us", "us", Time),
    ("demand_p50_ms", "ms", Time),
    ("restore_p50_ms", "ms", Time),
    ("error_frac", "frac", Time),
    ("trace.overhead_frac", "frac", Time),
    ("trace.residual_frac", "frac", Time),
    ("trace.spans", "count", Time),
    ("determinism.mismatches", "count", Time),
];

/// Name of the root span of one operation; its self time is the part of
/// the operation no layer span covers (the residual).
pub const OP_SPAN: &str = "op";

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The per-layer metrics of one traced run; every name of [`LAYERS`]
/// is present, zero where the workload does not touch the layer.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: LAYERS.iter().map(|&(n, _, _)| (n, 0.0)).collect(),
        }
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        let key = LAYERS
            .iter()
            .map(|&(n, _, _)| n)
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name:?}"));
        self.values
            .get_mut(key)
            .expect("every layer name has a slot")
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// Adds `ns_per_op` of span `span` to its `.busy_ms` or `.busy_us`
    /// metric.
    fn add_busy(&mut self, span: &str, ns_per_op: f64) {
        let ms = format!("{span}.busy_ms");
        if LAYERS.iter().any(|l| l.0 == ms) {
            self.add(&ms, ns_per_op / 1e6);
        } else {
            self.add(&format!("{span}.busy_us"), ns_per_op / 1e3);
        }
    }

    /// Sets every busy metric from the recorder's self times (probes
    /// included), per operation, plus the residual share and the span
    /// count. Returns the summed self time of the non-probe layer spans,
    /// in ns.
    pub fn absorb(&mut self, rec: &Recorder, ops: usize) -> u64 {
        let per_op = |ns: u64| ns as f64 / ops.max(1) as f64;
        let mut layers_ns = 0;
        let mut root_ns = 0;
        for (name, ns) in rec.self_times() {
            if name == OP_SPAN {
                root_ns = ns;
            } else {
                self.add_busy(&name, per_op(ns));
                layers_ns += ns;
            }
        }
        for (name, ns) in rec.probe_times() {
            self.add_busy(&name, per_op(ns));
        }
        let total = layers_ns + root_ns;
        if total > 0 {
            self.set("trace.residual_frac", root_ns as f64 / total as f64);
        }
        self.set("trace.spans", rec.spans().len() as f64);
        layers_ns
    }

    /// Compares the count-type metrics with `repeat`, the same counts
    /// taken from a second pass over the same operations in the same run,
    /// and returns the names that differ.
    pub fn check_determinism(&mut self, repeat: &Layers) -> Vec<String> {
        let mismatches: Vec<String> = LAYERS
            .iter()
            .filter(|l| l.2 == Count)
            .filter(|l| self.values[l.0].to_bits() != repeat.values[l.0].to_bits())
            .map(|l| {
                format!(
                    "{}: {:?} in one pass, {:?} in the other",
                    l.0, self.values[l.0], repeat.values[l.0]
                )
            })
            .collect();
        self.set("determinism.mismatches", mismatches.len() as f64);
        mismatches
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        LAYERS
            .iter()
            .map(|&(name, unit, _)| Metric {
                name: name.to_string(),
                value: self.values[name],
                unit,
            })
            .collect()
    }
}

/// Highest resident set size of this process so far, in MiB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports: throughput (work
/// units, `units_per_op` per operation, over the summed operation time,
/// with one operation in flight at a time), tail operation latency, the
/// median of `p50_timings` (the operations whose latency the workload
/// stands for: all of them, or a subset), set-up time and peak memory.
/// Times are taken at the reference speed (`probe` scales them;
/// `setup_s` comes scaled). Prints the quartiles, the tail percentile,
/// the sample count and the unscaled median on stderr.
pub fn end_to_end(
    timings: &[Timing],
    p50_timings: &[Timing],
    probe: &Probe,
    units_per_op: f64,
    setup_s: f64,
    rss_mb: f64,
) -> Vec<Metric> {
    let latencies_ms = probe.scaled_all(timings);
    let busy_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
    let (pct, tail) = stats::tail(&latencies_ms).unwrap_or((f64::NAN, f64::NAN));
    let (q1, q3) = stats::quartiles(&latencies_ms).unwrap_or((f64::NAN, f64::NAN));
    let wall: Vec<f64> = p50_timings.iter().map(|t| t.ms).collect();
    eprintln!(
        "benchmark: {} operations, quartiles {q1:.4}..{q3:.4} ms, tail = p{pct} \
         (at least {} samples beyond it); p50 over {} of them, unscaled {:.4} ms; \
         median probe {:.4} ms against {} ms at the reference speed",
        latencies_ms.len(),
        stats::TAIL_MIN_BEYOND,
        p50_timings.len(),
        stats::median(&wall).unwrap_or(f64::NAN),
        probe.median_ms().unwrap_or(f64::NAN),
        speed::REFERENCE_MS,
    );
    let m = |name: &str, value: f64, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    vec![
        m(
            "throughput_per_s",
            latencies_ms.len() as f64 * units_per_op / busy_s,
            "1/s",
        ),
        m(
            "p50_ms",
            stats::median(&probe.scaled_all(p50_timings)).unwrap_or(f64::NAN),
            "ms",
        ),
        m("tail_ms", tail, "ms"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", rss_mb, "MiB"),
    ]
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let timings: Vec<Timing> = [1.0, 2.0, 3.0].map(|ms| Timing { end_s: ms, ms }).to_vec();
        let metrics = end_to_end(&timings, &timings, &Probe::new(), 1.0, 0.5, 10.0);
        let line = result_line(3, 0, &metrics);
        let v = proto::json::Value::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = |name: &str| v.get("metrics").and_then(|m| m.get(name)).unwrap();
        let value = |name: &str| match metric(name).get("value") {
            Some(proto::json::Value::Float(x)) => *x,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(
            metric("throughput_per_s")
                .get("unit")
                .and_then(|u| u.as_str()),
            Some("1/s")
        );
        // Three ops in 6 ms.
        assert_eq!(value("throughput_per_s"), 500.0);
        assert_eq!(value("p50_ms"), 2.0);
    }

    #[test]
    fn determinism_compares_counts_only() {
        let mut a = Layers::new();
        let mut b = Layers::new();
        a.set("alias.ci.flow_ins", 10.0);
        b.set("alias.ci.flow_ins", 10.0);
        a.set("alias.ci.busy_ms", 1.0);
        b.set("alias.ci.busy_ms", 2.0);
        assert!(a.check_determinism(&b).is_empty());
        b.set("alias.ci.pairs", 3.0);
        let m = a.check_determinism(&b);
        assert_eq!(m.len(), 1);
        assert!(m[0].starts_with("alias.ci.pairs"));
        assert_eq!(a.get("determinism.mismatches"), 1.0);
    }

    #[test]
    fn layer_names_are_unique_and_slot_lookup_rejects_typos() {
        let mut names: Vec<&str> = LAYERS.iter().map(|l| l.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYERS.len());
        let r = std::panic::catch_unwind(|| Layers::new().set("alias.nope.busy_ms", 1.0));
        assert!(r.is_err());
    }
}
