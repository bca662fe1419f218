//! Campaign-runner integration tests: resume equivalence (a killed
//! campaign resumed at any cut point produces a byte-identical report),
//! journal robustness, quarantine end to end, the campaign-preset
//! smoke run, seed-range limits, and thread-count independence.

use engine::campaign::{self, CampaignError};
use engine::{CampaignConfig, FuzzConfig};
use std::fs;
use std::path::PathBuf;
use suite::generator::GenConfig;

/// A fresh per-test state directory under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruf95-campaign-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Small, fast campaign: 12 seeds in 4 chunks of 3, tiny programs, no
/// shrinking (the shrinker has its own tests), single-threaded.
fn small_cfg(dir: PathBuf) -> CampaignConfig {
    CampaignConfig {
        seeds: 12,
        start_seed: 0,
        chunk: 3,
        threads: 1,
        dir,
        fuzz: FuzzConfig {
            gen: GenConfig {
                funcs: 2,
                stmts_per_func: 4,
                ..GenConfig::default()
            },
            shrink: false,
            ..FuzzConfig::default()
        },
        max_chunks: None,
        report_out: None,
        panic_seed: None,
        progress: false,
    }
}

fn report_bytes(dir: &std::path::Path) -> Vec<u8> {
    fs::read(dir.join("CAMPAIGN_report.json")).expect("report file exists")
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_cut_point() {
    // Uninterrupted baseline.
    let base_dir = test_dir("baseline");
    let cfg = small_cfg(base_dir.clone());
    let outcome = campaign::run(&cfg).expect("baseline campaign runs");
    assert!(outcome.complete);
    assert_eq!(outcome.chunks_total, 4);
    assert_eq!(outcome.resumed_from, 0);
    let baseline = report_bytes(&base_dir);

    // Kill after 1, 2, and 3 chunks; resume; compare bytes.
    for cut in 1..4u64 {
        let dir = test_dir(&format!("cut{cut}"));
        let mut killed = small_cfg(dir.clone());
        killed.max_chunks = Some(cut);
        let partial = campaign::run(&killed).expect("partial campaign runs");
        assert!(!partial.complete, "cut at {cut}/4 must not complete");
        assert_eq!(partial.chunks_done, cut);
        assert!(partial.report.is_none(), "no report before completion");
        assert!(
            !dir.join("CAMPAIGN_report.json").exists(),
            "no report file before completion"
        );

        let resumed = campaign::run(&small_cfg(dir.clone())).expect("resume runs");
        assert!(resumed.complete);
        assert_eq!(resumed.resumed_from, cut, "must resume, not restart");
        assert_eq!(resumed.chunks_run, 4 - cut);
        assert_eq!(
            report_bytes(&dir),
            baseline,
            "resume after {cut} chunk(s) must reproduce the baseline report byte for byte"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    // Running an already-complete campaign again is a no-op that
    // re-renders the same bytes.
    let again = campaign::run(&cfg).expect("idempotent rerun");
    assert!(again.complete);
    assert_eq!(again.chunks_run, 0);
    assert_eq!(again.resumed_from, 4);
    assert_eq!(report_bytes(&base_dir), baseline);
    let _ = fs::remove_dir_all(&base_dir);
}

#[test]
fn corrupt_journal_restarts_cleanly_with_a_note() {
    let dir = test_dir("corrupt");
    let cfg = small_cfg(dir.clone());
    campaign::run(&cfg).expect("first run");
    let baseline = report_bytes(&dir);

    // Flip a payload byte: the checksum must reject the journal and the
    // campaign must restart from scratch rather than trust it.
    let journal = dir.join("journal.ruf95");
    let mut bytes = fs::read(&journal).unwrap();
    let n = bytes.len();
    bytes[n - 2] ^= 0x01;
    fs::write(&journal, &bytes).unwrap();

    let outcome = campaign::run(&cfg).expect("rerun over corrupt journal");
    assert!(
        outcome.journal_note.is_some(),
        "discarding a journal must be recorded"
    );
    assert_eq!(outcome.resumed_from, 0, "corrupt journal must not resume");
    assert!(outcome.complete);
    assert_eq!(
        report_bytes(&dir),
        baseline,
        "a fresh start over the same seeds reproduces the same report"
    );

    // Truncation is rejected the same way.
    fs::write(&journal, b"ruf95-campaign v1 0000").unwrap();
    let outcome = campaign::run(&cfg).expect("rerun over truncated journal");
    assert!(outcome.journal_note.is_some());
    assert_eq!(report_bytes(&dir), baseline);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn config_mismatch_is_a_hard_error_not_a_silent_restart() {
    let dir = test_dir("mismatch");
    let mut cfg = small_cfg(dir.clone());
    cfg.max_chunks = Some(1);
    campaign::run(&cfg).expect("partial run");

    let mut changed = small_cfg(dir.clone());
    changed.seeds = 9; // different range -> different campaign
    match campaign::run(&changed) {
        Err(CampaignError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    // The original configuration still resumes fine.
    let outcome = campaign::run(&small_cfg(dir.clone())).expect("original resumes");
    assert!(outcome.complete);
    assert_eq!(outcome.resumed_from, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn injected_panic_is_isolated_and_quarantined() {
    let dir = test_dir("panic");
    let mut cfg = small_cfg(dir.clone());
    cfg.panic_seed = Some(7);
    let outcome = campaign::run(&cfg).expect("a panicking job must not kill the campaign");
    let report = outcome.report.expect("campaign completes");
    assert_eq!(report.crashed, 1);
    assert_eq!(report.quarantine.len(), 1);
    let q = &report.quarantine[0];
    assert_eq!(q.seed, 7);
    assert_eq!(q.outcome, "crashed");
    assert!(q.detail.contains("injected test panic"));
    // An injected panic does not reproduce from source alone, so the
    // repro must be the full program, unshrunk.
    assert!(!q.shrunk);
    let repro = fs::read_to_string(outcome.quarantine_dir.join(&q.file))
        .expect("quarantine repro file exists");
    assert!(
        cfront::compile(&repro).is_ok(),
        "quarantined repro must be a standalone well-formed program"
    );
    // The other 11 seeds were unaffected.
    assert_eq!(report.clean + report.degraded, 11);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn step_budget_exhaustion_quarantines_as_over_budget_with_shrunk_repro() {
    let dir = test_dir("overbudget");
    let mut cfg = small_cfg(dir.clone());
    cfg.seeds = 2;
    cfg.chunk = 2;
    cfg.fuzz.max_steps = 1; // every solver job exhausts immediately
    cfg.fuzz.shrink = true; // exercise the quarantine shrink path
    let outcome = campaign::run(&cfg).expect("over-budget campaign runs");
    let report = outcome.report.expect("completes");
    assert_eq!(report.over_budget, 2);
    assert_eq!(report.quarantine.len(), 2);
    for q in &report.quarantine {
        assert_eq!(q.outcome, "over-budget");
        assert!(
            q.shrunk,
            "budget exhaustion reproduces from source, so the repro must be minimized"
        );
        let repro = fs::read_to_string(outcome.quarantine_dir.join(&q.file)).unwrap();
        assert!(
            cfront::compile(&repro).is_ok(),
            "shrunk over-budget repro must re-parse standalone"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn campaign_preset_smoke_is_clean_and_collects_corpus_stats() {
    let dir = test_dir("preset");
    let cfg = CampaignConfig {
        seeds: 10,
        chunk: 5,
        threads: 1,
        dir: dir.clone(),
        progress: false,
        ..CampaignConfig::default()
    };
    let outcome = campaign::run(&cfg).expect("campaign preset runs");
    let report = outcome.report.expect("completes");
    assert_eq!(report.violations_total, 0, "campaign shapes must be clean");
    assert!(report.quarantine.is_empty());
    assert_eq!(report.crashed, 0);
    // Corpus stats must actually be populated.
    assert!(report.diag_total > 0, "checker sweep ran per seed");
    assert!(report.diag_unique > 0 && report.diag_unique <= report.diag_total);
    assert!(report.func_total > 0, "function fingerprints collected");
    assert!(report.func_unique > 0 && report.func_unique <= report.func_total);
    assert!(report.demand_queries > 0);
    // Every property appears in the zero-filled table.
    let props: Vec<&str> = report.by_property.iter().map(|(p, _)| p.as_str()).collect();
    for want in [
        "soundness",
        "lattice",
        "divergence",
        "incremental",
        "checker",
        "demand",
        "roundtrip",
        "pipeline",
    ] {
        assert!(props.contains(&want), "missing property {want}");
    }
    // The rendered report is grep-friendly for the CI gate.
    let json = String::from_utf8(report_bytes(&dir)).unwrap();
    assert!(json.contains("\"soundness\": 0"));
    assert!(json.contains("\"quarantined\": 0"));
    assert!(json.contains("\"cases\": []"));
    assert!(json.contains("\"demand_queries\":"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn nonsense_configs_are_rejected() {
    let dir = test_dir("invalid");
    let mut cfg = small_cfg(dir.clone());
    cfg.seeds = 0;
    assert!(matches!(
        campaign::run(&cfg),
        Err(CampaignError::Invalid(_))
    ));
    let mut cfg = small_cfg(dir.clone());
    cfg.chunk = 0;
    assert!(matches!(
        campaign::run(&cfg),
        Err(CampaignError::Invalid(_))
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn seed_ranges_past_i64_max_are_rejected() {
    let dir = test_dir("range");
    let last = i64::MAX as u64;
    for (start, seeds) in [
        (u64::MAX, 2),
        (u64::MAX, 1),
        (last, 2),
        (last + 1, 1),
        (1, u64::MAX),
    ] {
        let mut cfg = small_cfg(dir.clone());
        cfg.start_seed = start;
        cfg.seeds = seeds;
        cfg.chunk = 1;
        match campaign::run(&cfg) {
            Err(CampaignError::Invalid(msg)) => assert!(msg.contains("i64::MAX"), "{msg}"),
            other => panic!("{seeds} seeds from {start}: expected Invalid, got {other:?}"),
        }
    }
    // The largest seed itself runs and is reported as an integer.
    let mut cfg = small_cfg(dir.clone());
    cfg.start_seed = last;
    cfg.seeds = 1;
    cfg.chunk = 1;
    let outcome = campaign::run(&cfg).expect("seed i64::MAX runs");
    assert!(outcome.complete);
    let json = String::from_utf8(report_bytes(&dir)).unwrap();
    assert!(json.contains(&format!("\"start_seed\": {last},")), "{json}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn thread_count_does_not_change_the_report() {
    let run = |threads: usize| {
        let dir = test_dir(&format!("threads{threads}"));
        let cfg = CampaignConfig {
            seeds: 12,
            chunk: 6,
            threads,
            dir: dir.clone(),
            fuzz: FuzzConfig::default(),
            ..CampaignConfig::default()
        };
        assert!(campaign::run(&cfg).expect("campaign runs").complete);
        let bytes = report_bytes(&dir);
        let _ = fs::remove_dir_all(&dir);
        bytes
    };
    assert!(
        run(1) == run(2),
        "one and two workers must write byte-identical reports"
    );
}
