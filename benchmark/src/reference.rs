//! `--write-reference`: computes the committed reference answers and
//! validates them before writing.
//!
//! Cold-spectrum answers are per-(program, solver) solution fingerprints
//! and pair counts. Before they are written, every solution is checked
//! against the interpreter oracle (`interp::check_solution_dyn` on a
//! concrete run of the program) and against lattice inclusion
//! (CS, k1 ⊆ CI ⊆ Weihl, Steensgaard). Campaign-slice answers are the
//! canonical report counts of each slice of the seed range, which must show no
//! violation, crash or quarantined job.

use crate::campaign::{report_counts, slice_config, Preset, COUNT_COLUMNS, RANGE, SLICE};
use crate::corpus::{self, render_opt, SOLVERS};
use alias::solver::solution_fingerprint;
use std::fmt::Write as _;
use std::path::Path;

const COLD_FILE: &str = "benchmark/reference/cold_spectrum.tsv";
const CAMPAIGN_FILE: &str = "benchmark/reference/campaign_slice.tsv";
const WORK: &str = ".bench_work/reference";

/// Lattice edges: (coarser, finer).
const LATTICE: [(&str, &str); 4] = [
    ("weihl", "ci"),
    ("steensgaard", "ci"),
    ("ci", "k1"),
    ("ci", "cs"),
];

pub fn write_all() -> Result<(), String> {
    if !Path::new("benchmark/Cargo.toml").exists() {
        return Err("run --write-reference from the repository root".into());
    }
    write_cold()?;
    write_campaign()
}

fn write_cold() -> Result<(), String> {
    let mut out = String::from("# program\tsolver\tfingerprint\tpairs\tflow_ins\n");
    let mut problems = Vec::new();
    for p in corpus::pool() {
        let run = engine::Engine::new()
            .threads(1)
            .run(&[p.job()])
            .map_err(|e| format!("{}: {e}", p.name))?;
        let b = &run.benches[0];
        let oracle = interp::run(
            &b.program,
            &interp::Config {
                input: p.input.clone(),
                ..interp::Config::default()
            },
        );
        let trace = match oracle {
            Ok(o) => o.trace,
            Err(e) => {
                problems.push(format!("{}: oracle run failed: {e}", p.name));
                continue;
            }
        };
        for s in SOLVERS {
            let Some(sol) = b.solution(s) else {
                problems.push(format!("{}/{s}: no solution", p.name));
                continue;
            };
            let misses = interp::check_solution_dyn(&b.program, &b.graph, sol, &trace);
            if !misses.is_empty() {
                problems.push(format!("{}/{s}: {} oracle miss(es)", p.name, misses.len()));
            }
            let _ = writeln!(
                out,
                "{}\t{s}\t{}\t{}\t{}",
                p.name,
                proto::fp_hex(solution_fingerprint(sol, &b.graph)),
                render_opt(sol.pairs().map(|x| x as u64)),
                render_opt(sol.flow_ins()),
            );
        }
        for (coarse, fine) in LATTICE {
            if let (Some(c), Some(f)) = (b.solution(coarse), b.solution(fine)) {
                if c.covers(&b.graph, f) == Some(false) {
                    problems.push(format!("{}: {coarse} does not cover {fine}", p.name));
                }
            }
        }
    }
    if !problems.is_empty() {
        return Err(problems.join("\n"));
    }
    std::fs::write(COLD_FILE, out).map_err(|e| format!("{COLD_FILE}: {e}"))?;
    eprintln!("benchmark: wrote {COLD_FILE}");
    Ok(())
}

fn write_campaign() -> Result<(), String> {
    let mut out = format!("# preset\tstart\t{COUNT_COLUMNS}\n");
    let mut problems = Vec::new();
    let dir = Path::new(WORK).join("campaign");
    for preset in Preset::ALL {
        for start in (0..RANGE).step_by(SLICE as usize) {
            let _ = std::fs::remove_dir_all(&dir);
            let outcome = engine::campaign::run(&slice_config(preset, start, dir.clone()))
                .map_err(|e| format!("{} slice {start}: {e}", preset.name()))?;
            let report = outcome
                .report
                .ok_or_else(|| format!("{} slice {start}: no report", preset.name()))?;
            if report.violations_total > 0 || report.crashed > 0 || !report.quarantine.is_empty() {
                problems.push(format!(
                    "{} slice {start}: {} violation(s), {} crashed, {} quarantined",
                    preset.name(),
                    report.violations_total,
                    report.crashed,
                    report.quarantine.len()
                ));
            }
            let counts: Vec<String> = report_counts(&report).iter().map(u64::to_string).collect();
            let _ = writeln!(out, "{}\t{start}\t{}", preset.name(), counts.join("\t"));
        }
    }
    let _ = std::fs::remove_dir_all(WORK);
    if !problems.is_empty() {
        return Err(problems.join("\n"));
    }
    std::fs::write(CAMPAIGN_FILE, out).map_err(|e| format!("{CAMPAIGN_FILE}: {e}"))?;
    eprintln!("benchmark: wrote {CAMPAIGN_FILE}");
    Ok(())
}
