//! Golden test for `ruf95 paper`: every experiment reproduces its
//! snapshot in `tests/snapshots/paper/` byte for byte.
//!
//! Wall-time columns are the one exception: cells under a header in
//! [`WALL_TIME`], and under a `ratio` header right after one, are
//! masked on both sides before comparing. `heapnaming` is left to CI,
//! which diffs its snapshot from a release build; a debug build takes
//! minutes over it.

use std::process::Command;

/// Column headers whose cells are wall-clock times.
const WALL_TIME: &[&str] = &[
    "CI time",
    "CS time",
    "t(Weihl)",
    "t(Steens)",
    "t(CI)",
    "t(k=1)",
    "t(CS)",
];

/// The cells of one rendered table line: columns are separated by at
/// least two spaces, and no cell contains two spaces in a row.
fn cells(line: &str) -> Vec<&str> {
    line.split("  ")
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .collect()
}

fn is_rule(line: &str) -> bool {
    let line = line.trim_end();
    !line.is_empty() && line.chars().all(|c| c == '-')
}

/// `text` with every wall-time cell replaced by `*`. A table holding
/// such a column is rewritten as `|`-separated cells, since the width
/// of a masked column no longer means anything; every other line is
/// kept as it is, newline included.
fn mask(text: &str) -> String {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut out = String::with_capacity(text.len());
    let mut masked: Option<Vec<bool>> = None;
    for (i, line) in lines.iter().enumerate() {
        if lines.get(i + 1).is_some_and(|next| is_rule(next)) {
            let mut hide = Vec::new();
            for (j, header) in cells(line).into_iter().enumerate() {
                let after_hidden = j > 0 && hide[j - 1];
                hide.push(WALL_TIME.contains(&header) || (header == "ratio" && after_hidden));
            }
            masked = hide.contains(&true).then_some(hide);
        } else if line.trim().is_empty() {
            masked = None;
        }
        match &masked {
            Some(_) if is_rule(line) => out.push_str("---\n"),
            Some(hide) => {
                let row: Vec<&str> = cells(line)
                    .into_iter()
                    .zip(hide)
                    .map(|(cell, &h)| if h { "*" } else { cell })
                    .collect();
                out.push_str(&row.join(" | "));
                out.push('\n');
            }
            None => out.push_str(line),
        }
    }
    out
}

fn assert_reproduces(experiment: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ruf95"))
        .args(["paper", experiment])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "ruf95 paper {experiment} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!(
        "{}/../../tests/snapshots/paper/{experiment}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let snapshot = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(
        mask(&stdout),
        mask(&snapshot),
        "`ruf95 paper {experiment}` no longer matches {path}"
    );
}

#[test]
fn fig2_matches_snapshot() {
    assert_reproduces("fig2");
}

#[test]
fn fig3_matches_snapshot() {
    assert_reproduces("fig3");
}

#[test]
fn fig4_matches_snapshot() {
    assert_reproduces("fig4");
}

#[test]
fn fig6_matches_snapshot() {
    assert_reproduces("fig6");
}

#[test]
fn fig7_matches_snapshot() {
    assert_reproduces("fig7");
}

#[test]
fn headline_matches_snapshot() {
    assert_reproduces("headline");
}

#[test]
fn cost_matches_snapshot() {
    assert_reproduces("cost");
}

#[test]
fn ablation_matches_snapshot() {
    assert_reproduces("ablation");
}

#[test]
fn baselines_matches_snapshot() {
    assert_reproduces("baselines");
}

#[test]
fn defuse_matches_snapshot() {
    assert_reproduces("defuse");
}

#[test]
fn masking_hides_only_wall_time_columns() {
    let table = "  name  CI flow-ins  ratio  CI time  CS time  ratio\n\
                 -------------------------------------------------\n\
                 \x20 bc         2746  1.03x  1.20ms   3.40ms   2.8x\n\
                 \n\
                 note  kept\n";
    let other = table
        .replace("1.20ms", "987.65µs")
        .replace("3.40ms", "1.00ms")
        .replace("2.8x", "1.0x");
    assert_eq!(mask(table), mask(&other));
    assert!(mask(table).contains("bc | 2746 | 1.03x | * | * | *\n"));
    assert!(mask(table).ends_with("\nnote  kept\n"));
    assert_ne!(mask(table), mask(&table.replace("2746", "2747")));
}
