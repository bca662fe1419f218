//! End-to-end tests driving the `ruf95` binary.

use std::process::Command;

fn ruf95(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ruf95"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn list_names_all_benchmarks() {
    let (stdout, _, ok) = ruf95(&["list"]);
    assert!(ok);
    for b in suite::benchmarks() {
        assert!(stdout.contains(b.name), "missing {}", b.name);
    }
}

#[test]
fn refs_prints_points_to_sets() {
    let (stdout, _, ok) = ruf95(&["refs", "bench:span"]);
    assert!(ok);
    assert!(stdout.contains("read"), "{stdout}");
    assert!(stdout.contains("heap:"), "{stdout}");
}

#[test]
fn compare_reports_the_headline() {
    let (stdout, _, ok) = ruf95(&["compare", "bench:part"]);
    assert!(ok);
    assert!(stdout.contains("identical at every indirect memory reference"));
}

#[test]
fn run_checks_soundness() {
    let (stdout, _, ok) = ruf95(&["run", "bench:compiler"]);
    assert!(ok);
    assert!(stdout.contains("[exit 0"), "{stdout}");
    assert!(stdout.contains("soundness"), "{stdout}");
}

#[test]
fn dot_and_ir_render() {
    let (dot, _, ok) = ruf95(&["dot", "bench:allroots"]);
    assert!(ok);
    assert!(dot.starts_with("digraph"));
    let (ir, _, ok) = ruf95(&["ir", "bench:allroots"]);
    assert!(ok);
    assert!(ir.contains("fn main:"));
    assert!(ir.contains("entry<main>"));
}

#[test]
fn modref_lists_functions() {
    let (stdout, _, ok) = ruf95(&["modref", "bench:loader"]);
    assert!(ok);
    assert!(stdout.contains("resolve_all:"), "{stdout}");
    assert!(stdout.contains("mod:"), "{stdout}");
}

#[test]
fn spectrum_prints_all_columns() {
    let (stdout, _, ok) = ruf95(&["spectrum", "bench:span"]);
    assert!(ok);
    for col in ["Weihl", "Steens", "CI", "k=1", "CS"] {
        assert!(stdout.contains(col), "missing {col}: {stdout}");
    }
}

#[test]
fn analyzes_a_file_from_disk() {
    let dir = std::env::temp_dir().join("ruf95-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.c");
    std::fs::write(
        &path,
        "int g; int main(void) { int *p; p = &g; return *p; }",
    )
    .unwrap();
    let (stdout, _, ok) = ruf95(&["refs", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("{g}"), "{stdout}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (_, stderr, ok) = ruf95(&["refs", "bench:nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown benchmark"));
    let (_, stderr, ok) = ruf95(&["frobnicate", "bench:bc"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (_, stderr, ok) = ruf95(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    // A program with a type error reports a rendered diagnostic.
    let dir = std::env::temp_dir().join("ruf95-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.c");
    std::fs::write(&path, "int main(void) { return missing; }").unwrap();
    let (_, stderr, ok) = ruf95(&["refs", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("undeclared"), "{stderr}");
}

#[test]
fn unknown_analysis_fails_before_any_solve_or_store_write() {
    let dir = std::env::temp_dir().join(format!("ruf95-cli-unknown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap();
    let query = [
        "query",
        "bench:part",
        "--site",
        "0",
        "--analysis",
        "bogus",
        "--store",
        store,
    ];
    let check = ["check", "bench:part", "--analysis", "cii", "--store", store];
    for args in [&query[..], &check[..]] {
        let (_, stderr, ok) = ruf95(args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains("unknown analysis"), "{args:?}: {stderr}");
        let stored = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        assert_eq!(stored, 0, "{args:?} wrote the store");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_reports_corpus_dedup() {
    let (out, err, ok) = ruf95(&["stats", "--seeds", "6", "--threads", "1"]);
    assert!(ok, "{err}");
    assert!(
        out.contains("functions:") && out.contains("unique"),
        "{out}"
    );
    let (json, err, ok) = ruf95(&["stats", "--seeds", "3", "--threads", "1", "--json"]);
    assert!(ok, "{err}");
    assert!(json.contains("\"func_dedup_ratio\""), "{json}");
}

#[test]
fn threaded_fuzz_and_litmus_check_pass_end_to_end() {
    let dir = std::env::temp_dir().join(format!("ruf95-cli-threaded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (out, err, ok) = ruf95(&[
        "campaign",
        "--seeds",
        "4",
        "--chunk",
        "4",
        "--threaded",
        "--threads",
        "1",
        "--no-shrink",
        "--quiet",
        "--dir",
        dir.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "threaded campaign failed: {out}\n{err}");
    assert!(out.contains("violations: 0 raw"), "{out}");
    let (out, err, ok) = ruf95(&["check", "bench:litmus_race_global", "--analysis", "all"]);
    assert!(ok, "litmus check failed: {out}\n{err}");
    assert!(out.contains("data-race") || out.contains("race"), "{out}");
}

#[test]
fn unknown_flags_are_rejected_with_exit_2() {
    for args in [
        &["campaign", "--seed", "5", "--seeds", "2"][..],
        &["refs", "bench:span", "--bogus"],
        &["paper", "fig2", "--json"],
        &["analyze", "bench:span", "--connect=nowhere", "--jsn"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ruf95"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
    // Flags named only in `value_flags`, such as campaign's test hook,
    // still parse; so does the `--flag=value` form.
    let (_, err, ok) = ruf95(&["campaign", "--panic-seed", "x"]);
    assert!(!ok && err.contains("--panic-seed: invalid value"), "{err}");
    let (out, err, ok) = ruf95(&["stats", "--seeds=2", "--threads=1"]);
    assert!(ok && out.contains("functions:"), "{err}");
}

#[test]
fn every_json_output_parses_even_with_a_hostile_file_name() {
    let dir = std::env::temp_dir().join("ruf95-cli-json-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("we\"ird\tname.c");
    std::fs::write(
        &path,
        "int g;\nint h;\n\
         int *pick(int *a, int *b, int c) { if (c) { return a; } return b; }\n\
         void store(int **slot, int *v) { *slot = v; }\n\
         int main(void) {\n  int *p;\n  int *q;\n  int x;\n  p = pick(&g, &h, 1);\n  \
         store(&q, p);\n  x = *q;\n  *p = x + 1;\n  return *q;\n}\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    for args in [
        &["spectrum", file, "--json"][..],
        &["check", file, "--json"],
        &["analyze", file, "--json"],
        &["incremental", file, "--edits", "2", "--json"],
        &["stats", "--seeds", "3", "--threads", "1", "--json"],
    ] {
        let (out, err, ok) = ruf95(args);
        assert!(ok, "{args:?}: {err}");
        if let Err(e) = proto::json::Value::parse(&out) {
            panic!("{args:?}: stdout is not JSON ({e}):\n{out}");
        }
    }
    // `campaign --json` puts its summary on stderr: both its stdout and
    // the report it writes to `--out` parse.
    let state = dir.join("campaign");
    let report = dir.join("report \"x\".json");
    let (out, err, ok) = ruf95(&[
        "campaign",
        "--seeds",
        "3",
        "--chunk",
        "3",
        "--threads",
        "1",
        "--quiet",
        "--json",
        "--dir",
        state.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(ok, "campaign: {out}\n{err}");
    if let Err(e) = proto::json::Value::parse(&out) {
        panic!("campaign stdout is not JSON ({e}):\n{out}");
    }
    assert!(err.contains("report: "), "summary goes to stderr: {err}");
    let text = std::fs::read_to_string(&report).expect("campaign writes --out");
    if let Err(e) = proto::json::Value::parse(&text) {
        panic!("campaign --out is not JSON ({e}):\n{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_rejects_a_seed_range_past_i64_max() {
    // Two seeds from u64::MAX would wrap to seed 0; one past i64::MAX
    // would not fit a JSON integer. Both are refused, as by `campaign`.
    for start in ["18446744073709551615", "9223372036854775807"] {
        let args = [
            "stats",
            "--start-seed",
            start,
            "--seeds",
            "2",
            "--threads",
            "1",
        ];
        let (out, err, ok) = ruf95(&args);
        assert!(!ok, "{args:?} must fail: {out}");
        assert!(err.contains("i64::MAX"), "{args:?}: {err}");
    }
}

#[test]
fn conflicting_generator_presets_are_rejected() {
    for args in [
        &["campaign", "--threaded", "--default-gen", "--seeds", "1"][..],
        &["stats", "--threaded", "--default-gen", "--seeds", "1"],
    ] {
        let (out, err, ok) = ruf95(args);
        assert!(!ok, "{args:?} must fail: {out}");
        assert!(
            err.contains("--threaded") && err.contains("--default-gen"),
            "{args:?}: the error names both flags: {err}"
        );
    }
    // The retired `fuzz` command is gone; `campaign` replaces it.
    let (_, err, ok) = ruf95(&["fuzz", "--seeds", "1"]);
    assert!(!ok && err.contains("unknown command"), "{err}");
}
