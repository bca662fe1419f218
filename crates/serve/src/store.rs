//! Versioned, checksummed disk store for per-project analysis jobs.
//!
//! One file per project, `<dir>/<project>.json`, in the
//! [`engine::envelope`] format:
//!
//! ```text
//! ruf95-store v3 <fnv64-of-payload, 16 hex digits>
//! { ...payload JSON on one line... }
//! ```
//!
//! The payload carries, per benchmark, the job and the fingerprints
//! that pin its answers: the source text and interpreter input, the
//! FNV source/graph fingerprints it was analyzed under, each solver's
//! canonical solution fingerprint, and the check-results fingerprint
//! when checks ran. No solver state is persisted — a cold solve costs
//! less than decoding one — so a restored benchmark is solved cold when
//! a request first names it, and the service checks that solve against
//! the stored fingerprints.
//!
//! Every load failure — missing file, bad header, version or checksum
//! mismatch, malformed or incomplete payload — degrades to an explicit
//! [`LoadOutcome`] variant that the service maps to a cold start. In
//! particular `v1` and `v2` files, which also carried summaries, are
//! rejected wholesale rather than half-decoded. Nothing in this module
//! panics on hostile input.

use engine::envelope::{self, Load};
use proto::json::Value;
use proto::{bytes_hex, fp_hex, parse_bytes_hex, parse_fp_hex};
use std::path::PathBuf;

/// Header magic, first field of every project file.
const STORE_MAGIC: &str = "ruf95-store";

/// Store format version; bumped on any payload schema change. `v3`
/// dropped the per-solver summaries that `v2` carried.
pub const STORE_VERSION: u32 = 3;

/// One benchmark's persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredBench {
    /// Benchmark name.
    pub name: String,
    /// Full source text, recompiled on restore.
    pub source: String,
    /// Interpreter input bytes for the checker oracle.
    pub input: Vec<u8>,
    /// FNV-64 of `source` at persist time.
    pub source_fp: u64,
    /// VDG content fingerprint at persist time.
    pub graph_fp: u64,
    /// `(analysis, canonical solution fingerprint)` per solver;
    /// `None` for failed solves.
    pub solution_fps: Vec<(String, Option<u64>)>,
    /// FNV-64 over the benchmark's per-solver diagnostics, when a
    /// check request ran.
    pub check_fp: Option<u64>,
}

/// A project's full persisted state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoredProject {
    /// The engine's full solver-spec key (CI spec plus every configured
    /// solver spec) the fingerprints were computed under; they pin the
    /// answers of an engine with the same key only.
    pub spec_key: String,
    /// One entry per benchmark, sorted by name.
    pub benches: Vec<StoredBench>,
}

/// Result of loading a project file. A rejected file — truncated,
/// corrupt, malformed, or written by a different store version — is
/// treated exactly like a missing one: cold start, and the next save
/// overwrites the bad file.
pub type LoadOutcome = Load<StoredProject>;

/// Directory-backed store, one file per project.
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation error.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Store> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Store { dir })
    }

    /// The file a project persists to.
    pub fn path_of(&self, project: &str) -> PathBuf {
        self.dir.join(format!("{project}.json"))
    }

    /// Loads and verifies one project's state. Never panics: every
    /// failure mode becomes a [`LoadOutcome`] variant.
    pub fn load(&self, project: &str) -> LoadOutcome {
        envelope::load(&self.path_of(project), STORE_MAGIC, STORE_VERSION, |v| {
            decode_project(&v)
        })
    }

    /// Persists one project's state, atomically (write temp + rename)
    /// so a crash mid-write leaves the previous file intact.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, project: &str, state: &StoredProject) -> std::io::Result<()> {
        envelope::save(
            &self.path_of(project),
            STORE_MAGIC,
            STORE_VERSION,
            &encode_project(state),
        )
    }
}

fn encode_project(p: &StoredProject) -> Value {
    let bench = |b: &StoredBench| {
        let solutions = b
            .solution_fps
            .iter()
            .map(|(a, fp)| {
                Value::obj([
                    ("analysis", a.as_str().into()),
                    ("fp", fp.map(fp_hex).into()),
                ])
            })
            .collect();
        Value::obj([
            ("name", b.name.as_str().into()),
            ("source", b.source.as_str().into()),
            ("input", bytes_hex(&b.input).into()),
            ("source_fp", fp_hex(b.source_fp).into()),
            ("graph_fp", fp_hex(b.graph_fp).into()),
            ("solutions", solutions),
            ("check_fp", b.check_fp.map(fp_hex).into()),
        ])
    };
    Value::obj([
        ("spec_key", p.spec_key.as_str().into()),
        ("benches", p.benches.iter().map(bench).collect()),
    ])
}

fn decode_project(v: &Value) -> Option<StoredProject> {
    Some(StoredProject {
        spec_key: v.get("spec_key")?.as_str()?.to_string(),
        benches: v
            .get("benches")?
            .as_arr()?
            .iter()
            .map(decode_bench)
            .collect::<Option<Vec<_>>>()?,
    })
}

/// A nullable fingerprint field: `Some(None)` for JSON `null`, `None`
/// (rejecting the file) for anything but `null` or a fingerprint.
fn opt_fp(v: &Value) -> Option<Option<u64>> {
    match v {
        Value::Null => Some(None),
        f => Some(Some(parse_fp_hex(f.as_str()?)?)),
    }
}

fn decode_bench(b: &Value) -> Option<StoredBench> {
    let fp = |key: &str| parse_fp_hex(b.get(key)?.as_str()?);
    let solution_fps = b
        .get("solutions")?
        .as_arr()?
        .iter()
        .map(|s| {
            Some((
                s.get("analysis")?.as_str()?.to_string(),
                opt_fp(s.get("fp")?)?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(StoredBench {
        name: b.get("name")?.as_str()?.to_string(),
        source: b.get("source")?.as_str()?.to_string(),
        input: parse_bytes_hex(b.get("input")?.as_str()?)?,
        source_fp: fp("source_fp")?,
        graph_fp: fp("graph_fp")?,
        solution_fps,
        check_fp: opt_fp(b.get("check_fp")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias::fingerprint::fnv64;

    fn sample_project() -> StoredProject {
        StoredProject {
            spec_key: "ci|site|none|weihl|steens|ci|k1|cs".into(),
            benches: vec![
                StoredBench {
                    name: "span".into(),
                    source: "int main(void) { return 0; }\n".into(),
                    input: vec![1, 2, 3],
                    source_fp: 7,
                    graph_fp: u64::MAX,
                    solution_fps: vec![("ci".into(), Some(42)), ("cs".into(), None)],
                    check_fp: Some(99),
                },
                StoredBench {
                    name: "tab\tname".into(),
                    source: String::new(),
                    input: Vec::new(),
                    source_fp: 0,
                    graph_fp: 1,
                    solution_fps: Vec::new(),
                    check_fp: None,
                },
            ],
        }
    }

    /// Every field of the record, including the nullable fingerprints
    /// both ways, survives a save and load, and re-saving what was
    /// loaded rewrites the file byte for byte.
    #[test]
    fn save_load_round_trips_every_vocabulary() {
        let dir = std::env::temp_dir().join("ruf95-store-test-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let p = sample_project();
        store.save("alpha", &p).unwrap();
        let LoadOutcome::Loaded(q) = store.load("alpha") else {
            panic!("expected Loaded");
        };
        assert_eq!(p, q);
        let first = std::fs::read(store.path_of("alpha")).unwrap();
        store.save("alpha", &q).unwrap();
        assert_eq!(first, std::fs::read(store.path_of("alpha")).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_store_files_are_rejected() {
        // A pre-unification v1 file (CI-only summaries) must cold-start,
        // not half-decode: the header version gates the whole payload.
        let dir = std::env::temp_dir().join("ruf95-store-test-v1");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let payload = r#"{"ci_spec_key": "k", "benches": []}"#;
        let text = format!(
            "ruf95-store v1 {}\n{payload}\n",
            fp_hex(fnv64(payload.as_bytes()))
        );
        std::fs::write(store.path_of("old"), text).unwrap();
        match store.load("old") {
            LoadOutcome::Rejected(reason) => {
                assert!(reason.contains("version mismatch"), "{reason}");
            }
            other => panic!("v1 file must be rejected, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_missing() {
        let dir = std::env::temp_dir().join("ruf95-store-test-missing");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        assert!(matches!(store.load("ghost"), LoadOutcome::Missing));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
