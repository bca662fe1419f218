//! `ruf95 paper` — the paper's evaluation, one experiment per row of
//! DESIGN §2.
//!
//! `ruf95 paper <experiment>` prints one table; `ruf95 paper all` prints
//! every experiment in DESIGN §2 order. Every experiment except
//! `heapnaming` reads one parallel engine run over the bundled suite
//! under all five solvers, made on first use and shared by the rest of
//! the invocation. `heapnaming` re-solves each program under both heap
//! namings. The output is pinned by `tests/snapshots/paper/`.

use alias::stats::{
    compare_at_indirect_refs, indirect_ref_rows, pair_type_counts, spurious_row, type_matrices,
    IndirectRefRow, PairTypeCounts, TypeMatrix,
};
use alias::{CsResult, HeapNaming, SolverSpec};
use engine::{BenchOutput, Engine, EngineRun};
use std::collections::HashMap;
use vdg::build::{lower, BuildOptions};
use vdg::stats::size_stats;

/// One experiment's renderer: prints its table, and fails when the
/// result it checks does not hold.
type Run = fn(&mut Inputs) -> Result<(), String>;

/// Every experiment, in DESIGN §2 order; `paper all` runs them top to
/// bottom.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig6", fig6),
    ("fig7", fig7),
    ("headline", headline),
    ("cost", cost),
    ("ablation", ablation),
    ("baselines", baselines),
    ("defuse", defuse),
    ("heapnaming", heapnaming),
];

/// What the experiments of one invocation share.
#[derive(Default)]
struct Inputs {
    run: Option<EngineRun>,
}

impl Inputs {
    /// The suite under all five solvers, analysed on first use.
    fn suite(&mut self) -> Result<&[BenchOutput], String> {
        if self.run.is_none() {
            self.run = Some(Engine::new().run_suite().map_err(|e| e.to_string())?);
        }
        Ok(&self.run.as_ref().expect("just filled").benches)
    }
}

/// The CS solution of one benchmark; the suite stays within budget.
fn cs(b: &BenchOutput) -> Result<&CsResult, String> {
    b.cs()
        .ok_or_else(|| format!("{}: CS exceeded its budget", b.name))
}

/// `ruf95 paper <experiment | all>`.
pub(crate) fn cmd_paper(cx: &crate::Ctx) -> Result<(), String> {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let [which] = cx.flags.positional.as_slice() else {
        return Err(format!(
            "expected one experiment: {} or all",
            names.join(", ")
        ));
    };
    let mut inputs = Inputs::default();
    if which != "all" {
        let (_, run) = EXPERIMENTS
            .iter()
            .find(|(name, _)| name == which)
            .ok_or_else(|| {
                format!(
                    "unknown experiment `{which}` (one of {}, all)",
                    names.join(", ")
                )
            })?;
        return run(&mut inputs);
    }
    let mut failed = Vec::new();
    for (i, (name, run)) in EXPERIMENTS.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(msg) = run(&mut inputs) {
            failed.push(format!("{name}: {msg}"));
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Renders an aligned text table.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        line.push_str(&format!("{h:>w$}  "));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len() - 2));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{cell:>w$}  "));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Figure 2 — program sizes in source and VDG form, plus the §5.1.2
/// call-graph shape ("procedures average 4.2 callers, 54% of
/// procedures have only one caller").
fn fig2(inputs: &mut Inputs) -> Result<(), String> {
    let mut rows = Vec::new();
    let (mut tl, mut tn, mut ta) = (0, 0, 0);
    let mut total_funcs = 0usize;
    let mut total_callers = 0usize;
    let mut single_caller = 0usize;
    for d in inputs.suite()? {
        let s = size_stats(&d.graph, &d.source);
        tl += s.lines;
        tn += s.nodes;
        ta += s.alias_related_outputs;

        // Callers per function, from the solver-discovered call graph.
        let mut callers: HashMap<u32, usize> = HashMap::new();
        for fs in d.ci.callees.values() {
            for f in fs {
                *callers.entry(f.0).or_default() += 1;
            }
        }
        let mut n_funcs = 0usize;
        let mut n_callers = 0usize;
        let mut n_single = 0usize;
        for f in d.graph.func_ids() {
            if f == d.graph.root() || d.graph.func(f).name == "main" {
                continue;
            }
            let c = callers.get(&f.0).copied().unwrap_or(0);
            n_funcs += 1;
            n_callers += c;
            if c == 1 {
                n_single += 1;
            }
        }
        total_funcs += n_funcs;
        total_callers += n_callers;
        single_caller += n_single;

        rows.push(vec![
            d.name.to_string(),
            s.lines.to_string(),
            s.nodes.to_string(),
            s.alias_related_outputs.to_string(),
            n_funcs.to_string(),
            if n_funcs > 0 {
                format!("{:.1}", n_callers as f64 / n_funcs as f64)
            } else {
                "-".into()
            },
            if n_funcs > 0 {
                format!("{:.0}%", 100.0 * n_single as f64 / n_funcs as f64)
            } else {
                "-".into()
            },
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        tl.to_string(),
        tn.to_string(),
        ta.to_string(),
        total_funcs.to_string(),
        format!("{:.1}", total_callers as f64 / total_funcs as f64),
        format!("{:.0}%", 100.0 * single_caller as f64 / total_funcs as f64),
    ]);
    println!("Figure 2: benchmark programs and their sizes (this reproduction)\n");
    println!(
        "{}",
        render_table(
            &[
                "name",
                "source lines",
                "VDG nodes",
                "alias-related outputs",
                "procs",
                "avg callers",
                "1-caller"
            ],
            &rows
        )
    );
    println!(
        "Notes: sources are reconstructions (see DESIGN.md \u{00a7}4); absolute sizes\n\
         are smaller than the paper's originals, the node/line ratio is the\n\
         comparable quantity. The caller statistics reproduce \u{00a7}5.1.2's\n\
         sparse-call-graph observation (paper: 4.2 avg callers, 54% single-\n\
         caller procedures; `main` and the root are excluded)."
    );
    Ok(())
}

/// Figure 3 — CI points-to pairs by output type.
fn fig3(inputs: &mut Inputs) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut tot = PairTypeCounts::default();
    for d in inputs.suite()? {
        let c = pair_type_counts(&d.graph, d.ci.as_ref());
        tot.pointer += c.pointer;
        tot.function += c.function;
        tot.aggregate += c.aggregate;
        tot.store += c.store;
        rows.push(vec![
            d.name.to_string(),
            c.pointer.to_string(),
            c.function.to_string(),
            c.aggregate.to_string(),
            c.store.to_string(),
            c.total().to_string(),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        tot.pointer.to_string(),
        tot.function.to_string(),
        tot.aggregate.to_string(),
        tot.store.to_string(),
        tot.total().to_string(),
    ]);
    println!("Figure 3: total points-to pairs (context-insensitive analysis)\n");
    println!(
        "{}",
        render_table(
            &["name", "pointer", "function", "aggregate", "store", "total"],
            &rows
        )
    );
    Ok(())
}

/// Figure 4 — locations accessed by indirect memory reads and writes.
fn fig4(inputs: &mut Inputs) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut agg = [IndirectRefRow::default(); 2];
    let mut sums = [0usize; 2];
    for d in inputs.suite()? {
        let (r, w) = indirect_ref_rows(&d.graph, d.ci.as_ref());
        for (kind, row) in [("read", r), ("write", w)] {
            let i = usize::from(kind == "write");
            agg[i].total += row.total;
            agg[i].n1 += row.n1;
            agg[i].n2 += row.n2;
            agg[i].n3 += row.n3;
            agg[i].n4_plus += row.n4_plus;
            agg[i].n0 += row.n0;
            agg[i].max = agg[i].max.max(row.max);
            sums[i] += (row.avg * row.total as f64) as usize;
            rows.push(vec![
                d.name.to_string(),
                kind.to_string(),
                row.total.to_string(),
                row.n1.to_string(),
                row.n2.to_string(),
                row.n3.to_string(),
                row.n4_plus.to_string(),
                row.max.to_string(),
                format!("{:.2}", row.avg),
            ]);
        }
    }
    for (i, kind) in ["read", "write"].iter().enumerate() {
        let avg = if agg[i].total > 0 {
            sums[i] as f64 / agg[i].total as f64
        } else {
            0.0
        };
        rows.push(vec![
            "TOTAL".into(),
            kind.to_string(),
            agg[i].total.to_string(),
            agg[i].n1.to_string(),
            agg[i].n2.to_string(),
            agg[i].n3.to_string(),
            agg[i].n4_plus.to_string(),
            agg[i].max.to_string(),
            format!("{avg:.2}"),
        ]);
    }
    println!("Figure 4: locations accessed by indirect memory reads/writes (CI)\n");
    println!(
        "{}",
        render_table(
            &["name", "type", "total", "n=1", "n=2", "n=3", "n>=4", "max", "avg"],
            &rows
        )
    );
    println!("(operations referencing zero locations — null-only pointers — count\n in `total` but no bucket, per the paper's footnote)");
    Ok(())
}

/// Figure 6 — CS pairs by type, the CI totals, and the share of CI
/// pairs found spurious.
fn fig6(inputs: &mut Inputs) -> Result<(), String> {
    let mut rows = Vec::new();
    let (mut tcs, mut tci) = (0usize, 0usize);
    for d in inputs.suite()? {
        let r = spurious_row(&d.graph, &d.ci, cs(d)?);
        tcs += r.cs.total();
        tci += r.ci_total;
        rows.push(vec![
            d.name.to_string(),
            r.cs.pointer.to_string(),
            r.cs.function.to_string(),
            r.cs.aggregate.to_string(),
            r.cs.store.to_string(),
            r.cs.total().to_string(),
            r.ci_total.to_string(),
            format!("{:.1}", r.percent_spurious),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        tcs.to_string(),
        tci.to_string(),
        format!("{:.1}", 100.0 * (tci - tcs) as f64 / tci as f64),
    ]);
    println!("Figure 6: context-sensitive pairs vs context-insensitive totals\n");
    println!(
        "{}",
        render_table(
            &[
                "name",
                "pointer",
                "function",
                "aggregate",
                "store",
                "total",
                "total (insens.)",
                "% spurious"
            ],
            &rows
        )
    );
    println!("(paper: 0.0%–11.8% per program, 2.0% aggregate)");
    Ok(())
}

/// Prints one Figure 7 matrix.
fn show_matrix(title: &str, m: &TypeMatrix) {
    println!("{title} ({} pairs)", m.total);
    let rows = ["function", "local", "global", "heap"];
    let mut table = Vec::new();
    for (r, name) in rows.iter().enumerate() {
        table.push(vec![
            name.to_string(),
            format!("{:.1}%", m.cells[r][0]),
            format!("{:.1}%", m.cells[r][1]),
            format!("{:.1}%", m.cells[r][2]),
            format!("{:.1}%", m.cells[r][3]),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["referent \\ path", "offset", "local", "global", "heap"],
            &table
        )
    );
}

/// Figure 7 — CI and spurious pairs by path × referent type, merged
/// over the whole suite.
fn fig7(inputs: &mut Inputs) -> Result<(), String> {
    let mut all_cells = [[0f64; 4]; 4];
    let mut spur_cells = [[0f64; 4]; 4];
    let (mut all_total, mut spur_total) = (0usize, 0usize);
    for d in inputs.suite()? {
        let (all, spur) = type_matrices(&d.graph, &d.ci, cs(d)?);
        for r in 0..4 {
            for c in 0..4 {
                all_cells[r][c] += all.cells[r][c] / 100.0 * all.total as f64;
                spur_cells[r][c] += spur.cells[r][c] / 100.0 * spur.total as f64;
            }
        }
        all_total += all.total;
        spur_total += spur.total;
    }
    let norm = |cells: &mut [[f64; 4]; 4], total: usize| {
        if total > 0 {
            for row in cells.iter_mut() {
                for c in row.iter_mut() {
                    *c = *c * 100.0 / total as f64;
                }
            }
        }
    };
    norm(&mut all_cells, all_total);
    norm(&mut spur_cells, spur_total);
    println!("Figure 7: path/referent type distribution\n");
    show_matrix(
        "All points-to pairs (context-insensitive)",
        &TypeMatrix {
            cells: all_cells,
            total: all_total,
        },
    );
    show_matrix(
        "Spurious points-to pairs only",
        &TypeMatrix {
            cells: spur_cells,
            total: spur_total,
        },
    );
    println!(
        "(paper: spurious pairs skew towards local paths — incorrectly\n\
         returning another caller's dead local is harmless)"
    );
    Ok(())
}

/// §4.3 — CI vs CS at the location inputs of every indirect memory
/// reference. Fails when any reference differs.
fn headline(inputs: &mut Inputs) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut any = 0usize;
    for d in inputs.suite()? {
        let ops = d.graph.indirect_mem_ops().len();
        let mismatches = compare_at_indirect_refs(&d.graph, &d.ci, cs(d)?);
        any += mismatches.len();
        rows.push(vec![
            d.name.to_string(),
            ops.to_string(),
            mismatches.len().to_string(),
            if mismatches.is_empty() {
                "identical"
            } else {
                "DIFFERS"
            }
            .to_string(),
        ]);
        for m in mismatches {
            println!(
                "  {} mismatch: CI {{{}}} vs CS {{{}}}",
                d.name,
                m.ci_referents.join(", "),
                m.cs_referents.join(", ")
            );
        }
    }
    println!("Headline (§4.3): CS vs CI at indirect memory references\n");
    println!(
        "{}",
        render_table(&["name", "indirect refs", "mismatches", "verdict"], &rows)
    );
    if any == 0 {
        println!(
            "Reproduced: \"the spurious information does not affect the solution\n\
             at all; the results for indirect memory references are identical to\n\
             the context-insensitive results.\""
        );
        Ok(())
    } else {
        println!("{any} mismatches — the headline did NOT reproduce.");
        Err(format!("{any} indirect-reference mismatches"))
    }
}

/// §4.2 — transfer functions (flow-ins), meets (flow-outs) and wall
/// time, CI vs CS.
fn cost(inputs: &mut Inputs) -> Result<(), String> {
    let mut rows = Vec::new();
    for d in inputs.suite()? {
        let cs = cs(d)?;
        let cs_time = d.wall("cs").expect("cs solver ran");
        rows.push(vec![
            d.name.to_string(),
            d.ci.flow_ins.to_string(),
            cs.flow_ins.to_string(),
            format!("{:.2}x", cs.flow_ins as f64 / d.ci.flow_ins as f64),
            d.ci.flow_outs.to_string(),
            cs.flow_outs.to_string(),
            format!("{:.1}x", cs.flow_outs as f64 / d.ci.flow_outs as f64),
            format!("{:.2?}", d.ci_wall),
            format!("{cs_time:.2?}"),
            format!("{:.1}x", cs_time.as_secs_f64() / d.ci_wall.as_secs_f64()),
            cs.distinct_assumption_sets.to_string(),
            cs.max_assumption_set.to_string(),
        ]);
    }
    println!("Cost of context-sensitivity (§4.2), with both optimizations on\n");
    println!(
        "{}",
        render_table(
            &[
                "name",
                "CI flow-ins",
                "CS flow-ins",
                "ratio",
                "CI flow-outs",
                "CS flow-outs",
                "ratio",
                "CI time",
                "CS time",
                "ratio",
                "assum sets",
                "max set"
            ],
            &rows
        )
    );
    println!(
        "(paper, with the same optimizations: ~1.1x the flow-ins, up to 100x\n\
         the flow-outs, 2-3 orders of magnitude slower on the largest inputs;\n\
         run the `ablation` binary to see the unoptimized blowup)"
    );
    Ok(())
}

/// Ablations of strong updates, subsumption and CI pruning.
fn ablation(inputs: &mut Inputs) -> Result<(), String> {
    println!("Ablation study\n");
    let mut rows = Vec::new();
    for d in inputs.suite()? {
        // Strong updates off: CI pair growth.
        let weak = SolverSpec::ci().strong_updates(false).solve_ci(&d.graph);
        // CS without subsumption (bounded budget).
        let budget = 30_000_000;
        let no_subsume = SolverSpec::cs()
            .subsumption(false)
            .max_steps(budget)
            .solve(&d.graph, Some(&d.ci))
            .map(|s| s.into_cs().expect("cs result"));
        // CS without CI pruning.
        let no_prune = SolverSpec::cs()
            .ci_pruning(false)
            .max_steps(budget)
            .solve(&d.graph, Some(&d.ci))
            .map(|s| s.into_cs().expect("cs result"));
        let fmt_cs = |r: &Result<CsResult, alias::AnalysisError>| match r {
            Ok(cs) => format!("{}", cs.flow_ins),
            Err(_) => "OVERFLOW".to_string(),
        };
        let (r_strong, _) = indirect_ref_rows(&d.graph, d.ci.as_ref());
        let (r_weak, _) = indirect_ref_rows(&d.graph, &weak);
        rows.push(vec![
            d.name.to_string(),
            d.ci.total_pairs().to_string(),
            weak.total_pairs().to_string(),
            format!(
                "+{:.0}%",
                100.0 * (weak.total_pairs() as f64 / d.ci.total_pairs() as f64 - 1.0)
            ),
            format!("{:.2}", r_strong.avg),
            format!("{:.2}", r_weak.avg),
            cs(d)?.flow_ins.to_string(),
            fmt_cs(&no_subsume),
            fmt_cs(&no_prune),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "name",
                "CI pairs",
                "no strong-upd",
                "growth",
                "read avg",
                "read avg (weak)",
                "CS flow-ins",
                "no subsumption",
                "no CI-pruning"
            ],
            &rows
        )
    );
    println!(
        "(the paper could not even run its unoptimized context-sensitive\n\
         algorithm on \"any but the smallest of examples\"; OVERFLOW marks a\n\
         30M-step budget exhaustion)"
    );
    Ok(())
}

/// Average distinct referent bases per indirect op under one solution.
fn avg_bases(sol: &dyn alias::Solution, graph: &vdg::Graph) -> f64 {
    let ops = graph.indirect_mem_ops();
    if ops.is_empty() {
        return 0.0;
    }
    let total: usize = ops
        .iter()
        .map(|&(node, _)| sol.loc_referent_bases(graph, node).len())
        .sum();
    total as f64 / ops.len() as f64
}

/// The precision spectrum (our extension): Weihl and Steensgaard ⊒ CI
/// ⊒ k=1 ⊒ assumption sets, compared at base granularity so the
/// field-insensitive unification baseline is comparable.
fn baselines(inputs: &mut Inputs) -> Result<(), String> {
    const ORDER: [&str; 5] = ["weihl", "steensgaard", "ci", "k1", "cs"];
    let mut rows = Vec::new();
    for b in inputs.suite()? {
        let mut row = vec![b.name.clone()];
        for a in ORDER {
            let sol = b
                .solution(a)
                .ok_or_else(|| format!("{}: {a} exceeded its budget", b.name))?;
            row.push(format!("{:.2}", avg_bases(sol, &b.graph)));
        }
        for a in ORDER {
            row.push(format!("{:.0?}", b.wall(a).expect("solver ran")));
        }
        rows.push(row);
    }
    println!(
        "Precision spectrum: average base-locations per indirect memory op\n\
         (base granularity, so the field-insensitive unification baseline is\n\
         comparable; lower is more precise)\n"
    );
    println!(
        "{}",
        render_table(
            &[
                "name",
                "Weihl",
                "Steens",
                "CI",
                "k=1",
                "CS(assum)",
                "t(Weihl)",
                "t(Steens)",
                "t(CI)",
                "t(k=1)",
                "t(CS)"
            ],
            &rows
        )
    );
    println!(
        "Expected per row: Weihl >= CI, Steens >= CI, CI >= k=1 >= CS, and\n\
         CI == CS at indirect references (the paper's headline). Weihl and\n\
         Steens are mutually incomparable. The question the paper isolates\n\
         is the CI-vs-CS column pair; the left columns show how much the\n\
         program-point-specific formulation already bought."
    );
    Ok(())
}

/// The §4.3 headline at the client level: def/use edges under CI and
/// CS. Fails when any use's reaching definitions differ.
fn defuse(inputs: &mut Inputs) -> Result<(), String> {
    use alias::defuse::def_use;
    let mut rows = Vec::new();
    let mut any_diff = 0usize;
    for d in inputs.suite()? {
        let du_ci = def_use(&d.graph, d.ci.as_ref(), &d.ci.callees);
        let du_cs = def_use(&d.graph, cs(d)?, &d.ci.callees);
        let uses = du_ci.uses.len();
        let mut diff = 0usize;
        for (u, defs) in &du_ci.uses {
            if du_cs.uses.get(u) != Some(defs) {
                diff += 1;
            }
        }
        any_diff += diff;
        rows.push(vec![
            d.name.to_string(),
            uses.to_string(),
            du_ci.edge_count().to_string(),
            du_cs.edge_count().to_string(),
            format!("{:.2}", du_ci.edge_count() as f64 / uses.max(1) as f64),
            diff.to_string(),
        ]);
    }
    println!("Def/use edges (reads x reaching writes) under CI and CS\n");
    println!(
        "{}",
        render_table(
            &[
                "name",
                "uses",
                "edges (CI)",
                "edges (CS)",
                "defs/use",
                "uses differing"
            ],
            &rows
        )
    );
    if any_diff == 0 {
        println!(
            "Every use has the same reaching definitions under both analyses —\n\
             the headline result carried through to a real client."
        );
        Ok(())
    } else {
        println!("{any_diff} uses differ.");
        Err(format!("{any_diff} uses differ between CI and CS"))
    }
}

/// Heap naming (paper §2 footnote 3 and §5.1.1): pair counts and the
/// Figure 6 spurious share under site naming vs k=1 call-string naming.
/// The paper predicts that finer naming enlarges the location pool and
/// with it the spurious share under context-insensitivity.
fn heapnaming(_: &mut Inputs) -> Result<(), String> {
    let mut rows = Vec::new();
    for b in suite::benchmarks() {
        let prog = cfront::compile(b.source).map_err(|e| format!("{}: {e}", b.name))?;
        let graph =
            lower(&prog, &BuildOptions::default()).map_err(|e| format!("{}: {e}", b.name))?;

        let mut cells = vec![b.name.to_string()];
        let mut spurs = Vec::new();
        for naming in [HeapNaming::Site, HeapNaming::CallString1] {
            let ci = SolverSpec::ci().heap_naming(naming).solve_ci(&graph);
            cells.push(ci.total_pairs().to_string());
            // Finer heap naming makes the (still exponential)
            // context-sensitive analysis dramatically more expensive —
            // exactly the scalability cliff the paper warns about — so
            // give it a firm budget and report overflows.
            let cs = SolverSpec::cs()
                .heap_naming(naming)
                .max_steps(5_000_000)
                .solve(&graph, Some(&ci))
                .map(|s| s.into_cs().expect("cs result"));
            match cs {
                Ok(cs) => {
                    let row = spurious_row(&graph, &ci, &cs);
                    cells.push(format!("{:.1}", row.percent_spurious));
                    spurs.push(Some(row.percent_spurious));
                }
                Err(_) => {
                    cells.push("OVERFLOW".to_string());
                    spurs.push(None);
                }
            }
        }
        cells.push(match (spurs[0], spurs[1]) {
            (Some(a), Some(b)) if b > a => "yes".to_string(),
            (Some(_), Some(_)) => "no".to_string(),
            _ => "CS infeasible".to_string(),
        });
        rows.push(cells);
    }
    println!("Heap naming: one base per site vs per (site, immediate caller)\n");
    println!(
        "{}",
        render_table(
            &[
                "name",
                "CI pairs (site)",
                "spur% (site)",
                "CI pairs (k=1)",
                "spur% (k=1)",
                "spur grows?"
            ],
            &rows
        )
    );
    println!(
        "(paper §5.1.1: finer heap naming enlarges the location pool and the\n\
         spurious share under context-insensitivity — the \"interesting\n\
         paradox\" that more precise analyses produce worse-looking absolute\n\
         statistics)"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["name", "n"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn every_experiment_has_a_snapshot() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/snapshots/paper");
        for (name, _) in EXPERIMENTS {
            let path = format!("{dir}/{name}.txt");
            assert!(std::path::Path::new(&path).is_file(), "missing {path}");
        }
    }
}
