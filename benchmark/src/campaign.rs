//! `campaign-slice`: `engine::campaign::run` with one worker thread over
//! a fixed seed range: half `GenConfig::campaign()` programs and half
//! `GenConfig::threaded()` ones, so the race property runs too. One
//! operation is one campaign call over a slice of the range, as one
//! journal chunk, on an empty state directory. The workload seed orders
//! each pass over the slices.
//!
//! Why: this is the ecosystem-scale verification path. The generator,
//! interpreter oracle, race schedules, checkers and differential
//! properties do most of the work, and the other two workloads barely
//! touch them. Verdicts are exact, so a change that breaks soundness or
//! blows a step budget shows up as a failed operation.

use crate::cold::{add_solver_counts, finish_dedup, report_overhead};
use crate::corpus::shuffle;
use crate::metrics::{self, Layers, OP_SPAN};
use crate::speed::{Probe, Timing};
use crate::trace::Recorder;
use crate::{passes, Measured, Run, SetupTimes, Traced};
use alias::solver::{SolutionBox, SolverSpec};
use engine::{CampaignConfig, CampaignReport};
use std::path::{Path, PathBuf};
use std::time::Instant;
use suite::generator::GenConfig;
use suite::rng::Rng;

/// Generator seeds per preset: the range is `0..RANGE` under each.
pub const RANGE: u64 = 64;
/// Seeds per campaign call, journaled as one chunk.
pub const SLICE: u64 = 4;
/// Nominal seconds of one untraced pass over the range.
const PASS_S: f64 = 5.0;
/// Slices the traced run replays (a fixed, seed-determined set).
const TRACE_SLICES: usize = 8;

/// Committed canonical report counts for every slice of the range.
const REFERENCE: &str = include_str!("../reference/campaign_slice.tsv");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    Campaign,
    Threaded,
}

impl Preset {
    pub const ALL: [Preset; 2] = [Preset::Campaign, Preset::Threaded];

    pub fn name(self) -> &'static str {
        match self {
            Preset::Campaign => "campaign",
            Preset::Threaded => "threaded",
        }
    }

    pub fn gen(self) -> GenConfig {
        match self {
            Preset::Campaign => GenConfig::campaign(),
            Preset::Threaded => GenConfig::threaded(),
        }
    }
}

/// The campaign configuration of the slice starting at `start`.
pub fn slice_config(preset: Preset, start: u64, dir: PathBuf) -> CampaignConfig {
    let mut cfg = CampaignConfig {
        seeds: SLICE,
        start_seed: start,
        chunk: SLICE,
        threads: 1,
        dir,
        ..CampaignConfig::default()
    };
    cfg.fuzz.gen = preset.gen();
    cfg
}

/// The canonical counts of a slice's campaign report, in reference
/// column order.
pub fn report_counts(r: &CampaignReport) -> [u64; 12] {
    [
        r.clean,
        r.degraded,
        r.over_budget,
        r.crashed,
        r.quarantine.len() as u64,
        r.violations_total,
        r.demand_queries,
        r.demand_hits,
        r.diag_total,
        r.diag_unique,
        r.func_total,
        r.func_unique,
    ]
}

/// Column names of [`report_counts`].
pub const COUNT_COLUMNS: &str = "clean\tdegraded\tover_budget\tcrashed\tquarantined\tviolations\t\
     demand_queries\tdemand_hits\tdiag_total\tdiag_unique\tfunc_total\tfunc_unique";

/// One slice of the range with its committed answer.
#[derive(Clone)]
struct Entry {
    preset: Preset,
    start: u64,
    counts: [u64; 12],
}

fn load_reference() -> Vec<Entry> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|line| {
            let f: Vec<u64> = line
                .split('\t')
                .skip(1)
                .map(|x| x.parse().expect("reference counts are integers"))
                .collect();
            assert_eq!(f.len(), 13, "malformed reference line {line:?}");
            let preset = match line.split('\t').next() {
                Some("campaign") => Preset::Campaign,
                Some("threaded") => Preset::Threaded,
                other => panic!("unknown preset {other:?} in the reference"),
            };
            Entry {
                preset,
                start: f[0],
                counts: f[1..].try_into().expect("twelve counts"),
            }
        })
        .collect()
}

struct Setup {
    range: Vec<Entry>,
    rng: Rng,
}

/// A slice's verdict: whether the report exists, equals the committed
/// counts, and has no violation, crash or quarantined job.
fn verdict(entry: &Entry, report: Option<&CampaignReport>) -> bool {
    let Some(r) = report else {
        eprintln!(
            "benchmark: {} slice {}: no report",
            entry.preset.name(),
            entry.start
        );
        return false;
    };
    let counts = report_counts(r);
    let ok = counts == entry.counts
        && r.violations_total == 0
        && r.crashed == 0
        && r.quarantine.is_empty();
    if !ok {
        eprintln!(
            "benchmark: {} slice {}: report counts {counts:?}, reference {:?}",
            entry.preset.name(),
            entry.start,
            entry.counts
        );
    }
    ok
}

/// Runs one slice's campaign in a fresh state directory and removes it.
fn run_slice(entry: &Entry, dir: &Path, probe: &Probe) -> (Timing, bool) {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = slice_config(entry.preset, entry.start, dir.to_path_buf());
    let t = Instant::now();
    let out = engine::campaign::run(&cfg);
    let timing = probe.stop(t);
    let ok = match out {
        Ok(o) => verdict(entry, o.report.as_ref()),
        Err(e) => {
            eprintln!("benchmark: campaign slice {}: {e}", entry.start);
            false
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    (timing, ok)
}

fn setup(run: &Run) -> Setup {
    let range = load_reference();
    // Priming: one slice past the range, so first-touch costs land in
    // set-up.
    let prime = run.work.join("prime");
    let _ = engine::campaign::run(&slice_config(Preset::Campaign, RANGE, prime.clone()));
    let _ = std::fs::remove_dir_all(&prime);
    Setup {
        range,
        rng: Rng::seed_from_u64(run.seed),
    }
}

/// One pass over every slice of the range in a seeded order.
fn pass(s: &mut Setup) -> Vec<Entry> {
    let mut out = s.range.clone();
    shuffle(&mut out, &mut s.rng);
    out
}

pub fn measure(run: &Run) -> Measured {
    let mut probe = Probe::new();
    let (mut s, setups) = SetupTimes::before(&mut probe, || setup(run), drop);
    let dir = run.work.join("state");
    let mut timings = Vec::new();
    let mut failed = 0;
    for _ in 0..passes(run.seconds, PASS_S) {
        for entry in pass(&mut s) {
            let (timing, ok) = run_slice(&entry, &dir, &probe);
            timings.push(timing);
            probe.tick();
            failed += u64::from(!ok);
        }
    }
    let rss = metrics::peak_rss_mb();
    let setup_s = setups.after(&mut probe, || setup(run), drop);
    Measured {
        attempted: timings.len() as u64,
        failed,
        metrics: metrics::end_to_end(&timings, &timings, &probe, SLICE as f64, setup_s, rss),
    }
}

/// Replays one seed's pipeline through the layers' public functions:
/// generate, compile, lower, the five solvers, the checkers, the
/// interpreter oracle and its soundness check, the race schedules, and
/// the demand queries. Returns the replay's wall time in ms and the
/// demand state's counters.
fn replay(
    rec: &mut Recorder,
    layers: &mut Layers,
    preset: Preset,
    seed: u64,
    req: u64,
) -> (f64, Option<alias::DemandStats>) {
    let fuzz = slice_config(preset, 0, PathBuf::new()).fuzz;
    let t = Instant::now();
    let root = rec.begin(OP_SPAN, req);
    let src = rec.time("suite.generate", req, || {
        suite::generator::generate(seed, &fuzz.gen)
    });
    let prog = rec
        .time("cfront.compile", req, || cfront::compile(&src))
        .expect("generated programs compile");
    let graph = rec
        .time("vdg.lower", req, || {
            vdg::build::lower(&prog, &vdg::build::BuildOptions::default())
        })
        .expect("generated programs lower");
    let ci = rec.time("alias.ci", req, || SolverSpec::ci().solve_ci(&graph));
    let mut solved: Vec<(&str, SolutionBox)> = vec![("ci", Box::new(ci.clone()))];
    for spec in SolverSpec::all() {
        let name = spec.name();
        if name == "ci" {
            continue;
        }
        let spec = spec.max_steps(fuzz.max_steps);
        if let Ok(sol) = rec.time(&format!("alias.{name}"), req, || {
            spec.solve(&graph, Some(&ci))
        }) {
            solved.push((name, sol));
        }
    }
    // Corpus statistics check the CI solution; threaded programs are
    // checked under every solver for the race properties.
    let threaded = prog.uses_threads();
    let mut diagnostics = 0;
    for (name, sol) in &solved {
        if *name == "ci" || threaded {
            let d = rec.time("checker.run_checks", req, || {
                checker::run_checks(&graph, sol.as_ref(), &ci.callees)
            });
            diagnostics += d.len();
        }
    }
    let cfg = interp::Config {
        max_steps: fuzz.interp_steps,
        ..interp::Config::default()
    };
    if let Ok(outcome) = rec.time("interp.oracle_run", req, || interp::run(&prog, &cfg)) {
        for (_, sol) in &solved {
            rec.time("interp.check_solution", req, || {
                interp::check_solution_dyn(&prog, &graph, sol.as_ref(), &outcome.trace)
            });
        }
    }
    if threaded {
        let obs = rec.time("interp.oracle_races", req, || {
            interp::explore_races(&prog, &cfg, checker::RACE_SCHEDULES)
        });
        layers.add("interp.oracle_races.schedules", obs.schedules as f64);
    }
    let demand = rec.time("alias.demand", req, || demand_queries(&graph, seed));
    rec.end(root);
    let ms = t.elapsed().as_secs_f64() * 1e3;

    if threaded {
        // Timed on its own: the race checker also runs inside each
        // `run_checks` above.
        for (_, sol) in &solved {
            rec.probe("checker.check_races", req, || {
                let mut d = Vec::new();
                checker::race::check_races(&graph, sol.as_ref(), &ci.callees, &mut d);
            });
        }
    }
    layers.add(
        "cfront.compile.lines",
        src.lines().filter(|l| !l.trim().is_empty()).count() as f64,
    );
    layers.add("vdg.lower.nodes", graph.node_count() as f64);
    layers.add("checker.run_checks.diagnostics", diagnostics as f64);
    for (name, sol) in &solved {
        add_solver_counts(layers, name, sol.as_ref());
    }
    (ms, demand)
}

/// The campaign's demand property: eight seeded point queries of both
/// kinds through one growing demand state.
fn demand_queries(graph: &vdg::graph::Graph, seed: u64) -> Option<alias::DemandStats> {
    let sites = graph.indirect_mem_ops();
    if sites.is_empty() {
        return None;
    }
    let mut demand = alias::DemandState::new(
        graph,
        alias::DemandConfig {
            ci: SolverSpec::ci().ci_config(),
            ..alias::DemandConfig::default()
        },
    );
    let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut pick = |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng as usize) % n
    };
    for _ in 0..8 {
        let (a, _) = sites[pick(sites.len())];
        let (b, _) = sites[pick(sites.len())];
        demand.loc_referents_rendered(graph, a);
        demand.may_alias(graph, a, b);
    }
    Some(demand.stats())
}

pub fn trace(run: &Run) -> Traced {
    let mut s = setup(run);
    let mut slices = pass(&mut s);
    slices.truncate(TRACE_SLICES);
    let dir = run.work.join("state");
    // Only the slices' wall times are used here, unscaled.
    let probe = Probe::new();

    // Per slice, interleaved so drifts in machine speed hit all three
    // alike: the campaign itself (untraced), then each of its seeds
    // replayed with the recorder off and on.
    let mut failed = 0;
    let mut campaign_ms = 0.0;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut off = Recorder::new(false);
    let mut repeat = Layers::new();
    let mut rec = Recorder::new(true);
    let mut layers = Layers::new();
    let (mut off_demand, mut on_demand) = (DemandTotals::default(), DemandTotals::default());
    let mut k = 0;
    for entry in &slices {
        let (timing, ok) = run_slice(entry, &dir, &probe);
        campaign_ms += timing.ms;
        failed += u64::from(!ok);
        for seed in entry.start..entry.start + SLICE {
            // Alternate which of the two goes first.
            for on in [k % 2 == 0, k % 2 == 1] {
                let (r, l, d, times) = if on {
                    (&mut rec, &mut layers, &mut on_demand, &mut traced)
                } else {
                    (&mut off, &mut repeat, &mut off_demand, &mut plain)
                };
                let (ms, demand) = replay(r, l, entry.preset, seed, k);
                times.push(ms);
                d.add(l, demand);
            }
            k += 1;
        }
    }
    let seeds = k as usize;
    for (l, d) in [(&mut layers, &on_demand), (&mut repeat, &off_demand)] {
        finish_dedup(l);
        d.finish(l);
    }
    let layer_ns = layers.absorb(&rec, seeds);
    layers.set(
        "engine.campaign.other_ms",
        (campaign_ms - layer_ns as f64 / 1e6) / seeds as f64,
    );
    let per_seed = vec![campaign_ms / seeds as f64; seeds];
    report_overhead(&mut layers, &plain, &traced, &per_seed);
    Traced {
        attempted: slices.len() as u64,
        failed,
        layers,
        repeat,
        recorder: rec,
    }
}

/// Demand counters of one replayed pass: outputs and steps are added to
/// the layers as they come, queries and fallbacks are summed for the
/// fallback share.
#[derive(Default)]
struct DemandTotals {
    queries: u64,
    fallbacks: u64,
}

impl DemandTotals {
    fn add(&mut self, layers: &mut Layers, stats: Option<alias::DemandStats>) {
        if let Some(ds) = stats {
            layers.add("alias.demand.outputs_active", ds.outputs_active as f64);
            layers.add("alias.demand.steps", ds.steps as f64);
            self.queries += ds.queries;
            self.fallbacks += ds.fallbacks;
        }
    }

    fn finish(&self, layers: &mut Layers) {
        if self.queries > 0 {
            layers.set(
                "alias.demand.fallback_frac",
                self.fallbacks as f64 / self.queries as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_covers_the_range_under_both_presets() {
        let range = load_reference();
        for preset in Preset::ALL {
            let starts: Vec<u64> = range
                .iter()
                .filter(|e| e.preset == preset)
                .map(|e| e.start)
                .collect();
            assert_eq!(
                starts,
                (0..RANGE).step_by(SLICE as usize).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn passes_cover_the_range_in_a_seeded_order() {
        let order = |seed| {
            let mut s = Setup {
                range: load_reference(),
                rng: Rng::seed_from_u64(seed),
            };
            pass(&mut s)
                .iter()
                .map(|e| (e.preset, e.start))
                .collect::<Vec<_>>()
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
        assert_eq!(order(3).len(), 2 * (RANGE / SLICE) as usize);
    }

    #[test]
    fn slices_match_the_pool_seed() {
        let cfg = slice_config(Preset::Threaded, 8, PathBuf::from("x"));
        assert_eq!(
            (cfg.seeds, cfg.start_seed, cfg.chunk, cfg.threads),
            (SLICE, 8, SLICE, 1)
        );
        assert!(cfg.fuzz.gen.threads);
    }
}
