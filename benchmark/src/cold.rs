//! `cold-spectrum`: each corpus program analysed fresh, in-process,
//! under all five solvers, one program per engine call, closed loop.
//!
//! Why: this is the paper's own measurement. Solver kernels do almost
//! all the work; no cache, store, wire codec, checker or oracle runs, so
//! a serve or incremental change must show nothing here.

use crate::corpus::{self, Program, Reference, SOLVERS};
use crate::metrics::{self, Layers, OP_SPAN};
use crate::speed::Probe;
use crate::trace::Recorder;
use crate::{passes, stats, Measured, Run, SetupTimes, Traced};
use alias::solver::{solution_fingerprint, Solution, SolverSpec};
use std::time::Instant;
use suite::rng::Rng;

/// Generated programs per run, one from each work-count stratum of two
/// pool programs: fine strata keep every run's cost mix close to the
/// pool's, so the seed changes which programs run, not how much work.
/// The count is assumed (see "Assumed mixes" in `benchmark/METRICS.md`):
/// these programs carry most of a pass's solver work.
const GENERATED: usize = 96;
/// Nominal seconds of one untraced pass over the run's corpus.
const PASS_S: f64 = 3.0;

struct Setup {
    corpus: Vec<Program>,
    reference: Reference,
    engine: engine::Engine,
    rng: Rng,
}

fn setup(seed: u64) -> Setup {
    let reference = Reference::load();
    let mut rng = Rng::seed_from_u64(seed);
    let corpus = corpus::draw(&corpus::pool(), &reference, GENERATED, &mut rng);
    let engine = engine::Engine::new().threads(1);
    // Priming: the paper programs once, so first-touch costs land in
    // set-up.
    for p in corpus.iter().filter(|p| p.kind == corpus::Kind::Paper) {
        let _ = engine.run(&[p.job()]);
    }
    Setup {
        corpus,
        reference,
        engine,
        rng,
    }
}

/// Compares one solver's answer with the committed reference.
fn matches(
    reference: &Reference,
    program: &str,
    solver: &str,
    fp: u64,
    pairs: Option<u64>,
) -> bool {
    let ok = reference
        .get(program, solver)
        .is_some_and(|a| a.fingerprint == fp && a.pairs == pairs);
    if !ok {
        eprintln!("benchmark: {program}/{solver}: answer differs from the reference");
    }
    ok
}

/// Checks every solver's answer of one engine run; `true` when all match.
fn check_run(reference: &Reference, run: &engine::EngineRun) -> bool {
    let b = &run.benches[0];
    let mut ok = b.solutions.len() == SOLVERS.len();
    for s in &b.solutions {
        ok &= match s.solution.as_deref() {
            Some(sol) => matches(
                reference,
                &b.name,
                &s.analysis,
                solution_fingerprint(sol, &b.graph),
                sol.pairs().map(|p| p as u64),
            ),
            None => false,
        };
    }
    ok
}

/// One pass over the corpus in a seeded order.
fn pass_order(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    corpus::shuffle(&mut order, rng);
    order
}

pub fn measure(run: &Run) -> Measured {
    let mut probe = Probe::new();
    let (mut s, setups) = SetupTimes::before(&mut probe, || setup(run.seed), drop);
    let mut timings = Vec::new();
    let mut failed = 0;
    for _ in 0..passes(run.seconds, PASS_S) {
        for i in pass_order(s.corpus.len(), &mut s.rng) {
            let job = [s.corpus[i].job()];
            let t = Instant::now();
            let out = s.engine.run(&job);
            timings.push(probe.stop(t));
            probe.tick();
            let ok = out.is_ok_and(|r| check_run(&s.reference, &r));
            failed += u64::from(!ok);
        }
    }
    let rss = metrics::peak_rss_mb();
    drop(s);
    let setup_s = setups.after(&mut probe, || setup(run.seed), drop);
    Measured {
        attempted: timings.len() as u64,
        failed,
        metrics: metrics::end_to_end(&timings, &timings, &probe, 1.0, setup_s, rss),
    }
}

/// The engine's pipeline for one program, called layer by layer under
/// spans: frontend, lowering, the shared CI run, then the other four
/// solvers against it. Returns whether every answer matched and the
/// pipeline's wall time in ms (answer checks excluded).
fn traced_op(
    rec: &mut Recorder,
    layers: &mut Layers,
    reference: &Reference,
    p: &Program,
    req: u64,
) -> (bool, f64) {
    let t = Instant::now();
    let root = rec.begin(OP_SPAN, req);
    let program = rec.time("cfront.compile", req, || cfront::compile(&p.source));
    let graph = program.ok().and_then(|prog| {
        rec.time("vdg.lower", req, || {
            vdg::build::lower(&prog, &vdg::build::BuildOptions::default()).ok()
        })
    });
    let Some(graph) = graph else {
        rec.end(root);
        return (false, t.elapsed().as_secs_f64() * 1e3);
    };
    let ci = rec.time("alias.ci", req, || SolverSpec::ci().solve_ci(&graph));
    let mut solved: Vec<(&str, Option<alias::solver::SolutionBox>)> = Vec::new();
    for spec in SolverSpec::all() {
        let name = spec.name();
        if name == "ci" {
            solved.push((name, Some(Box::new(ci.clone()))));
            continue;
        }
        let sol = rec.time(&format!("alias.{name}"), req, || {
            spec.solve(&graph, Some(&ci)).ok()
        });
        solved.push((name, sol));
    }
    rec.end(root);
    let op_ms = t.elapsed().as_secs_f64() * 1e3;

    layers.add(
        "cfront.compile.lines",
        p.source.lines().filter(|l| !l.trim().is_empty()).count() as f64,
    );
    layers.add("vdg.lower.nodes", graph.node_count() as f64);
    let mut ok = true;
    for (name, sol) in &solved {
        let Some(sol) = sol.as_deref() else {
            ok = false;
            continue;
        };
        add_solver_counts(layers, name, sol);
        ok &= matches(
            reference,
            &p.name,
            name,
            solution_fingerprint(sol, &graph),
            sol.pairs().map(|x| x as u64),
        );
    }
    (ok, op_ms)
}

/// Adds one solution's work counts to the `alias.<solver>.*` totals;
/// `dedup_frac` holds raw dedup hits until [`finish_dedup`] divides.
pub fn add_solver_counts(layers: &mut Layers, name: &str, sol: &dyn Solution) {
    if let Some(p) = sol.pairs() {
        layers.add(&format!("alias.{name}.pairs"), p as f64);
    }
    if let Some(f) = sol.flow_ins() {
        layers.add(&format!("alias.{name}.flow_ins"), f as f64);
        layers.add(
            &format!("alias.{name}.dedup_frac"),
            sol.dedup_hits().unwrap_or(0) as f64,
        );
    }
}

/// Turns the raw dedup-hit totals into shares of flow-ins.
pub fn finish_dedup(layers: &mut Layers) {
    for s in ["weihl", "ci", "k1", "cs"] {
        let flow = layers.get(&format!("alias.{s}.flow_ins"));
        let key = format!("alias.{s}.dedup_frac");
        let hits = layers.get(&key);
        layers.set(&key, if flow > 0.0 { hits / flow } else { 0.0 });
    }
}

pub fn trace(run: &Run) -> Traced {
    let mut s = setup(run.seed);
    // One pass: a fixed, seed-determined amount of work, so the counts
    // repeat exactly for a seed.
    let ops = pass_order(s.corpus.len(), &mut s.rng);
    // Per program, interleaved so drifts in machine speed hit all three
    // alike: the workload's own operation (untraced), then the same
    // pipeline layer by layer with the recorder off and on.
    let mut failed = 0;
    let (mut untraced, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut off = Recorder::new(false);
    let mut repeat = Layers::new();
    let mut rec = Recorder::new(true);
    let mut layers = Layers::new();
    for (k, &i) in ops.iter().enumerate() {
        let t = Instant::now();
        let out = s.engine.run(&[s.corpus[i].job()]);
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!out.is_ok_and(|r| check_run(&s.reference, &r)));
        // Alternate which of the two goes first.
        for on in [k % 2 == 0, k % 2 == 1] {
            let (r, l, times) = if on {
                (&mut rec, &mut layers, &mut traced)
            } else {
                (&mut off, &mut repeat, &mut plain)
            };
            let (ok, ms) = traced_op(r, l, &s.reference, &s.corpus[i], k as u64);
            failed += u64::from(!ok);
            times.push(ms);
        }
    }
    finish_dedup(&mut layers);
    finish_dedup(&mut repeat);
    layers.absorb(&rec, ops.len());
    report_overhead(&mut layers, &plain, &traced, &untraced);
    Traced {
        attempted: 3 * ops.len() as u64,
        failed,
        layers,
        repeat,
        recorder: rec,
    }
}

/// Sets `trace.overhead_frac` and prints the traced pass against the
/// same pass with the recorder off and against the untraced workload
/// operations, each ratio with its base. The overhead is the median
/// per-operation difference, scaled to the pass: a few long operations
/// whose time varies run to run would swamp a difference of sums.
pub fn report_overhead(layers: &mut Layers, plain: &[f64], traced: &[f64], untraced: &[f64]) {
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let (slower, faster) = stats::pair_wins(plain, traced, true);
    eprintln!(
        "benchmark: traced pass {}; recorder on was slower on {slower} and faster on {faster} of {} ops",
        stats::ratio_with_base(sum(traced), sum(plain), "ms", "recorder off"),
        plain.len()
    );
    eprintln!(
        "benchmark: traced pass {}",
        stats::ratio_with_base(
            sum(traced),
            sum(untraced),
            "ms",
            "the untraced workload operations"
        )
    );
    let diffs: Vec<f64> = traced.iter().zip(plain).map(|(t, p)| t - p).collect();
    if let Some(d) = stats::median(&diffs).filter(|_| sum(plain) > 0.0) {
        layers.set("trace.overhead_frac", d * plain.len() as f64 / sum(plain));
    }
}
