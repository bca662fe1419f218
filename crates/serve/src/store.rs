//! Versioned, checksummed disk store for per-project analysis state.
//!
//! One file per project, `<dir>/<project>.json`, in the
//! [`engine::envelope`] format:
//!
//! ```text
//! ruf95-store v2 <fnv64-of-payload, 16 hex digits>
//! { ...payload JSON on one line... }
//! ```
//!
//! The payload carries, per benchmark, everything a restored session
//! needs to warm-start without trusting the store for correctness:
//! the source text (recompiled on restore), the FNV source/graph
//! fingerprints it was analyzed under, one versioned summary payload
//! *per solver* — each naming its vocabulary and carrying that solver's
//! per-function [`FunctionSummary`] facts, the seeds for every solver's
//! tier-3 resume — each solver's canonical solution fingerprint, and
//! the check-results fingerprint when checks ran. Solutions themselves
//! are *not* persisted — they are graph-id-indexed and cheaper to
//! re-derive from seeds than to re-validate — so a load can only ever
//! seed work, never substitute for it.
//!
//! Every load failure — missing file, bad header, version or checksum
//! mismatch, malformed or incomplete payload — degrades to an explicit
//! [`LoadOutcome`] variant that the service maps to a cold start. In
//! particular a `v1` file (CI-only summaries, pre-unification schema)
//! is rejected wholesale rather than half-decoded. Nothing in this
//! module panics on hostile input.

use alias::fingerprint::{StableOp, StablePair, StablePath};
use alias::summary::{
    FuncFacts, FunctionSummary, MemOpPruning, SolverSummaries, StableAssum, StableCtx,
    SteensConstraint, Vocab,
};
use engine::envelope::{self, Load};
use proto::json::Value;
use proto::{bytes_hex, fp_hex, parse_bytes_hex, parse_fp_hex};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Header magic, first field of every project file.
const STORE_MAGIC: &str = "ruf95-store";

/// Store format version; bumped on any payload schema change. `v2`
/// replaced the CI-only summary map with one versioned
/// [`SummaryPayload`](self) per solver.
pub const STORE_VERSION: u32 = 2;

/// Version tag inside each per-solver summary payload, independent of
/// the file header so a future payload-only change can keep the outer
/// framing.
pub const SUMMARY_PAYLOAD_VERSION: i64 = 2;

/// One benchmark's persisted state.
#[derive(Debug, Clone)]
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
    /// Memoized per-solver facts, the tier-3 resume seeds. Loaded
    /// lazily: decoding is the dominant load cost, and a session that
    /// only fields demand queries never needs the seeds at all.
    pub summaries: StoredSummaries,
    /// FNV-64 over the benchmark's per-solver diagnostics, when a
    /// check request ran.
    pub check_fp: Option<u64>,
}

/// A benchmark's per-solver summaries, decoded on first touch rather
/// than at load time — `Store::load` used to decode every bench's
/// summary maps eagerly, which made a warm restore *slower* than a cold
/// solve for a session that then touched one bench.
#[derive(Debug, Clone)]
pub enum StoredSummaries {
    /// Decoded facts by solver name, ready to seed every solver's
    /// resume.
    Ready(HashMap<String, Arc<SolverSummaries>>),
    /// The raw `"summaries"` JSON object as loaded from disk.
    Raw(Value),
}

impl Default for StoredSummaries {
    fn default() -> Self {
        StoredSummaries::Ready(HashMap::default())
    }
}

impl StoredSummaries {
    /// The decoded per-solver map, decoding (once) if this is still the
    /// raw disk form. A malformed payload decodes to no entry for that
    /// solver: the session then cold-solves with it — the store can
    /// cost time, never correctness.
    pub fn decoded(&mut self) -> &HashMap<String, Arc<SolverSummaries>> {
        if let StoredSummaries::Raw(v) = self {
            let m = decode_summaries(v);
            *self = StoredSummaries::Ready(m);
        }
        match self {
            StoredSummaries::Ready(m) => m,
            StoredSummaries::Raw(_) => unreachable!("decoded above"),
        }
    }

    /// An owned decoded map, *without* materializing the `Ready` form:
    /// a raw entry decodes straight into the caller's hands and stays
    /// raw here, so re-persisting remains a verbatim re-emit and no
    /// second copy of the maps is kept (or cloned) per bench.
    pub fn decode_fresh(&self) -> HashMap<String, Arc<SolverSummaries>> {
        match self {
            StoredSummaries::Ready(m) => m.clone(),
            StoredSummaries::Raw(v) => decode_summaries(v),
        }
    }
}

/// A project's full persisted state.
#[derive(Debug, Clone, Default)]
pub struct StoredProject {
    /// The engine's full solver-spec key (CI spec plus every configured
    /// solver spec) the artifacts were computed under; summaries are
    /// only sound seeds for an engine with the same key.
    pub spec_key: String,
    /// One entry per benchmark, sorted by name.
    pub benches: Vec<StoredBench>,
}

/// Result of loading a project file. A rejected file — truncated,
/// corrupt, malformed, or written by a different store version,
/// including pre-v2 CI-only files — is treated exactly like a missing
/// one: cold start, and the next save overwrites the bad file.
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
        envelope::load(
            &self.path_of(project),
            STORE_MAGIC,
            STORE_VERSION,
            decode_project,
        )
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

    /// Project names with a file in the store, sorted.
    pub fn projects(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                if let Some(name) = e.file_name().to_str().and_then(|n| n.strip_suffix(".json")) {
                    out.push(name.to_string());
                }
            }
        }
        out.sort();
        out
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

// ---------------------------------------------------------------------
// Stable-vocabulary codecs. Encoders emit canonical (sorted) forms so
// the file is byte-stable across runs; decoders return `None` on any
// shape violation, which the caller degrades to "no seeds".
// ---------------------------------------------------------------------

fn encode_path(p: &StablePath) -> Value {
    Value::Obj(vec![
        ("b".into(), p.base.as_deref().into()),
        (
            "o".into(),
            Value::Arr(
                p.ops
                    .iter()
                    .map(|op| match op {
                        StableOp::Field(f) => Value::str(format!("f:{f}")),
                        StableOp::Index => Value::str("ix"),
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_path(v: &Value) -> Option<StablePath> {
    let ops = v
        .get("o")?
        .as_arr()?
        .iter()
        .map(|op| {
            let s = op.as_str()?;
            if s == "ix" {
                Some(StableOp::Index)
            } else {
                s.strip_prefix("f:").map(|f| StableOp::Field(f.into()))
            }
        })
        .collect::<Option<Vec<_>>>()?;
    Some(StablePath {
        base: v.get("b").and_then(Value::as_str).map(str::to_string),
        ops,
    })
}

fn encode_pair(p: &StablePair) -> Value {
    Value::Obj(vec![
        ("p".into(), encode_path(&p.path)),
        ("r".into(), encode_path(&p.referent)),
    ])
}

fn decode_pair(v: &Value) -> Option<StablePair> {
    Some(StablePair {
        path: decode_path(v.get("p")?)?,
        referent: decode_path(v.get("r")?)?,
    })
}

fn encode_pair_rows(rows: &[Vec<StablePair>]) -> Value {
    Value::Arr(
        rows.iter()
            .map(|pairs| Value::Arr(pairs.iter().map(encode_pair).collect()))
            .collect(),
    )
}

fn decode_pair_rows(v: &Value) -> Option<Vec<Vec<StablePair>>> {
    v.as_arr()?
        .iter()
        .map(|pairs| pairs.as_arr()?.iter().map(decode_pair).collect())
        .collect()
}

fn encode_ctx(c: &StableCtx) -> Value {
    match c {
        StableCtx::Root => Value::Null,
        StableCtx::Call { func, offset } => Value::Obj(vec![
            ("f".into(), Value::str(func)),
            ("o".into(), Value::Int(*offset as i64)),
        ]),
    }
}

fn decode_ctx(v: &Value) -> Option<StableCtx> {
    match v {
        Value::Null => Some(StableCtx::Root),
        _ => Some(StableCtx::Call {
            func: v.get("f")?.as_str()?.to_string(),
            offset: v.get("o")?.as_u64()? as u32,
        }),
    }
}

fn encode_assum(a: &StableAssum) -> Value {
    Value::Obj(vec![
        ("i".into(), Value::Int(a.formal as i64)),
        ("pr".into(), encode_pair(&a.pair)),
    ])
}

fn decode_assum(v: &Value) -> Option<StableAssum> {
    Some(StableAssum {
        formal: v.get("i")?.as_u64()? as u32,
        pair: decode_pair(v.get("pr")?)?,
    })
}

fn encode_atom(a: &SteensConstraint) -> Value {
    let int = |n: u32| Value::Int(n as i64);
    let opt_int = |n: Option<u32>| n.map_or(Value::Null, |n| Value::Int(n as i64));
    let ints = |ns: &[u32]| Value::Arr(ns.iter().map(|&n| int(n)).collect());
    Value::Arr(match a {
        SteensConstraint::Base { out, base } => {
            vec![Value::str("b"), int(*out), Value::str(base)]
        }
        SteensConstraint::Move { dst, src } => vec![Value::str("m"), int(*dst), int(*src)],
        SteensConstraint::Load { out, loc } => vec![Value::str("l"), int(*out), int(*loc)],
        SteensConstraint::Store { loc, val } => vec![Value::str("s"), int(*loc), int(*val)],
        SteensConstraint::Copy { dst, src } => vec![Value::str("c"), int(*dst), int(*src)],
        SteensConstraint::CallTo {
            callee,
            args,
            result,
        } => vec![
            Value::str("ct"),
            Value::str(callee),
            ints(args),
            opt_int(*result),
        ],
        SteensConstraint::CallIndirect { args, result } => {
            vec![Value::str("cx"), ints(args), opt_int(*result)]
        }
    })
}

fn decode_atom(v: &Value) -> Option<SteensConstraint> {
    let a = v.as_arr()?;
    let int = |i: usize| a.get(i)?.as_u64().map(|n| n as u32);
    let opt_int = |i: usize| match a.get(i) {
        Some(Value::Null) => Some(None),
        Some(v) => v.as_u64().map(|n| Some(n as u32)),
        None => None,
    };
    let ints = |i: usize| -> Option<Vec<u32>> {
        a.get(i)?
            .as_arr()?
            .iter()
            .map(|n| n.as_u64().map(|n| n as u32))
            .collect()
    };
    Some(match a.first()?.as_str()? {
        "b" => SteensConstraint::Base {
            out: int(1)?,
            base: a.get(2)?.as_str()?.to_string(),
        },
        "m" => SteensConstraint::Move {
            dst: int(1)?,
            src: int(2)?,
        },
        "l" => SteensConstraint::Load {
            out: int(1)?,
            loc: int(2)?,
        },
        "s" => SteensConstraint::Store {
            loc: int(1)?,
            val: int(2)?,
        },
        "c" => SteensConstraint::Copy {
            dst: int(1)?,
            src: int(2)?,
        },
        "ct" => SteensConstraint::CallTo {
            callee: a.get(1)?.as_str()?.to_string(),
            args: ints(2)?,
            result: opt_int(3)?,
        },
        "cx" => SteensConstraint::CallIndirect {
            args: ints(1)?,
            result: opt_int(2)?,
        },
        _ => return None,
    })
}

fn encode_facts(f: &FuncFacts) -> Value {
    match f {
        FuncFacts::Ci(rows) | FuncFacts::Weihl(rows) => encode_pair_rows(rows),
        FuncFacts::K1(rows) => Value::Arr(
            rows.iter()
                .map(|ctxs| {
                    Value::Arr(
                        ctxs.iter()
                            .map(|(c, pairs)| {
                                Value::Arr(vec![
                                    encode_ctx(c),
                                    Value::Arr(pairs.iter().map(encode_pair).collect()),
                                ])
                            })
                            .collect(),
                    )
                })
                .collect(),
        ),
        FuncFacts::Cs { outputs, memops } => Value::Obj(vec![
            (
                "outputs".into(),
                Value::Arr(
                    outputs
                        .iter()
                        .map(|row| {
                            Value::Arr(
                                row.iter()
                                    .map(|(p, antichain)| {
                                        Value::Arr(vec![
                                            encode_pair(p),
                                            Value::Arr(
                                                antichain
                                                    .iter()
                                                    .map(|set| {
                                                        Value::Arr(
                                                            set.iter().map(encode_assum).collect(),
                                                        )
                                                    })
                                                    .collect(),
                                            ),
                                        ])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "memops".into(),
                Value::Arr(
                    memops
                        .iter()
                        .map(|m| {
                            Value::Obj(vec![
                                ("o".into(), Value::Int(m.offset as i64)),
                                ("s".into(), Value::Bool(m.single)),
                                (
                                    "lr".into(),
                                    Value::Arr(m.loc_refs.iter().map(encode_path).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        FuncFacts::Steens(atoms) => Value::Arr(atoms.iter().map(encode_atom).collect()),
    }
}

fn decode_facts(vocab: Vocab, v: &Value) -> Option<FuncFacts> {
    Some(match vocab {
        Vocab::Ci => FuncFacts::Ci(decode_pair_rows(v)?),
        Vocab::Weihl => FuncFacts::Weihl(decode_pair_rows(v)?),
        Vocab::K1 => FuncFacts::K1(
            v.as_arr()?
                .iter()
                .map(|ctxs| {
                    ctxs.as_arr()?
                        .iter()
                        .map(|entry| {
                            let entry = entry.as_arr()?;
                            let ctx = decode_ctx(entry.first()?)?;
                            let pairs = entry
                                .get(1)?
                                .as_arr()?
                                .iter()
                                .map(decode_pair)
                                .collect::<Option<Vec<_>>>()?;
                            Some((ctx, pairs))
                        })
                        .collect()
                })
                .collect::<Option<Vec<_>>>()?,
        ),
        Vocab::Cs => FuncFacts::Cs {
            outputs: v
                .get("outputs")?
                .as_arr()?
                .iter()
                .map(|row| {
                    row.as_arr()?
                        .iter()
                        .map(|entry| {
                            let entry = entry.as_arr()?;
                            let pair = decode_pair(entry.first()?)?;
                            let antichain = entry
                                .get(1)?
                                .as_arr()?
                                .iter()
                                .map(|set| {
                                    set.as_arr()?
                                        .iter()
                                        .map(decode_assum)
                                        .collect::<Option<Vec<_>>>()
                                })
                                .collect::<Option<Vec<_>>>()?;
                            Some((pair, antichain))
                        })
                        .collect()
                })
                .collect::<Option<Vec<_>>>()?,
            memops: v
                .get("memops")?
                .as_arr()?
                .iter()
                .map(|m| {
                    Some(MemOpPruning {
                        offset: m.get("o")?.as_u64()? as u32,
                        single: m.get("s")?.as_bool()?,
                        loc_refs: m
                            .get("lr")?
                            .as_arr()?
                            .iter()
                            .map(decode_path)
                            .collect::<Option<Vec<_>>>()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        },
        Vocab::Steens => FuncFacts::Steens(
            v.as_arr()?
                .iter()
                .map(decode_atom)
                .collect::<Option<Vec<_>>>()?,
        ),
    })
}

fn encode_func(s: &FunctionSummary) -> Value {
    Value::Obj(vec![
        ("fp".into(), Value::str(fp_hex(s.fingerprint))),
        (
            "calls".into(),
            Value::Arr(
                s.calls
                    .iter()
                    .map(|(off, callees)| {
                        Value::Arr(vec![
                            Value::Int(*off as i64),
                            Value::Arr(callees.iter().map(Value::str).collect()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("facts".into(), encode_facts(&s.facts)),
    ])
}

fn decode_func(vocab: Vocab, v: &Value) -> Option<FunctionSummary> {
    let calls = v
        .get("calls")?
        .as_arr()?
        .iter()
        .map(|c| {
            let c = c.as_arr()?;
            let off = c.first()?.as_u64()?;
            let callees = c
                .get(1)?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?;
            Some((off as u32, callees))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(FunctionSummary {
        fingerprint: parse_fp_hex(v.get("fp")?.as_str()?)?,
        calls,
        facts: decode_facts(vocab, v.get("facts")?)?,
    })
}

/// Encodes one solver's whole-program summaries as a versioned payload
/// naming its vocabulary.
fn encode_payload(s: &SolverSummaries) -> Value {
    // Sort function names so the file is byte-stable across runs
    // (hash-map iteration is not).
    let mut names: Vec<&String> = s.funcs.keys().collect();
    names.sort();
    Value::Obj(vec![
        ("v".into(), Value::Int(SUMMARY_PAYLOAD_VERSION)),
        ("vocab".into(), Value::str(s.vocab.name())),
        (
            "funcs".into(),
            Value::Obj(
                names
                    .iter()
                    .map(|n| ((*n).clone(), encode_func(&s.funcs[*n])))
                    .collect(),
            ),
        ),
        (
            "store".into(),
            Value::Arr(s.store.iter().map(encode_pair).collect()),
        ),
    ])
}

fn decode_payload(v: &Value) -> Option<SolverSummaries> {
    if v.get("v")?.as_i64()? != SUMMARY_PAYLOAD_VERSION {
        return None;
    }
    let vocab = Vocab::by_name(v.get("vocab")?.as_str()?)?;
    let mut out = SolverSummaries::new(vocab);
    for (name, f) in v.get("funcs")?.as_obj()? {
        out.funcs.insert(name.clone(), decode_func(vocab, f)?);
    }
    out.store = v
        .get("store")?
        .as_arr()?
        .iter()
        .map(decode_pair)
        .collect::<Option<Vec<_>>>()?;
    Some(out)
}

/// Decodes a bench's full `"summaries"` object (the deferred half of
/// project loading). A malformed payload drops that solver's entry —
/// the session then solves it fresh — rather than rejecting the rest.
fn decode_summaries(v: &Value) -> HashMap<String, Arc<SolverSummaries>> {
    let Some(obj) = v.as_obj() else {
        return HashMap::default();
    };
    obj.iter()
        .filter_map(|(name, s)| Some((name.clone(), Arc::new(decode_payload(s)?))))
        .collect()
}

fn encode_project(p: &StoredProject) -> Value {
    let bench = |b: &StoredBench| {
        let summaries = match &b.summaries {
            StoredSummaries::Ready(m) => {
                let mut names: Vec<&String> = m.keys().collect();
                names.sort();
                Value::obj(names.iter().map(|n| (n.as_str(), encode_payload(&m[*n]))))
            }
            // Never-touched raw form: re-emit verbatim (it round-tripped
            // the checksum at load).
            StoredSummaries::Raw(v) => v.clone(),
        };
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
            ("summaries", summaries),
            ("check_fp", b.check_fp.map(fp_hex).into()),
        ])
    };
    Value::obj([
        ("spec_key", p.spec_key.as_str().into()),
        ("benches", p.benches.iter().map(bench).collect()),
    ])
}

/// Consumes the parsed payload so each bench's `"summaries"` subtree
/// can be *moved* into [`StoredSummaries::Raw`] — cloning it at load
/// time would cost more than the eager decode this laziness replaces.
fn decode_project(v: Value) -> Option<StoredProject> {
    let spec_key = v.get("spec_key")?.as_str()?.to_string();
    let Value::Obj(fields) = v else { return None };
    let benches_raw = fields.into_iter().find(|(k, _)| k == "benches")?.1;
    let Value::Arr(items) = benches_raw else {
        return None;
    };
    let benches = items
        .into_iter()
        .map(decode_bench)
        .collect::<Option<Vec<_>>>()?;
    Some(StoredProject { spec_key, benches })
}

fn decode_bench(b: Value) -> Option<StoredBench> {
    let Value::Obj(mut fields) = b else {
        return None;
    };
    // Shape-check only; per-solver decoding is deferred to the first
    // touch (StoredSummaries::decoded).
    let idx = fields.iter().position(|(k, _)| k == "summaries")?;
    let raw = fields.remove(idx).1;
    raw.as_obj()?;
    let summaries = StoredSummaries::Raw(raw);
    let b = Value::Obj(fields);
    let solution_fps = b
        .get("solutions")?
        .as_arr()?
        .iter()
        .map(|s| {
            let analysis = s.get("analysis")?.as_str()?.to_string();
            let fp = match s.get("fp") {
                Some(Value::Null) | None => None,
                Some(f) => Some(parse_fp_hex(f.as_str()?)?),
            };
            Some((analysis, fp))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(StoredBench {
        name: b.get("name")?.as_str()?.to_string(),
        source: b.get("source")?.as_str()?.to_string(),
        input: parse_bytes_hex(b.get("input")?.as_str()?)?,
        source_fp: parse_fp_hex(b.get("source_fp")?.as_str()?)?,
        graph_fp: parse_fp_hex(b.get("graph_fp")?.as_str()?)?,
        solution_fps,
        summaries,
        check_fp: match b.get("check_fp") {
            Some(Value::Null) | None => None,
            Some(f) => Some(parse_fp_hex(f.as_str()?)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias::fingerprint::fnv64;

    fn pair(base: &str, referent: &str) -> StablePair {
        StablePair {
            path: StablePath {
                base: Some(base.into()),
                ops: vec![],
            },
            referent: StablePath {
                base: Some(referent.into()),
                ops: vec![StableOp::Field("f".into()), StableOp::Index],
            },
        }
    }

    /// One summary container per solver vocabulary, covering every
    /// `FuncFacts` variant the codec must round-trip.
    fn sample_summaries() -> HashMap<String, Arc<SolverSummaries>> {
        let func = |facts: FuncFacts| FunctionSummary {
            fingerprint: 0xfeed_f00d_dead_beef,
            calls: vec![(3, vec!["id".into(), "setg".into()])],
            facts,
        };
        let mut all = HashMap::default();
        for vocab in [Vocab::Ci, Vocab::Weihl, Vocab::K1, Vocab::Cs, Vocab::Steens] {
            let facts = match vocab {
                Vocab::Ci => FuncFacts::Ci(vec![vec![pair("g:gp", "l:main:x")], vec![]]),
                Vocab::Weihl => FuncFacts::Weihl(vec![vec![], vec![pair("g:a", "g:b")]]),
                Vocab::K1 => FuncFacts::K1(vec![vec![
                    (StableCtx::Root, vec![pair("g:gp", "g:g1")]),
                    (
                        StableCtx::Call {
                            func: "main".into(),
                            offset: 7,
                        },
                        vec![],
                    ),
                ]]),
                Vocab::Cs => FuncFacts::Cs {
                    outputs: vec![vec![(
                        pair("g:gp", "g:g1"),
                        vec![
                            vec![StableAssum {
                                formal: 1,
                                pair: pair("l:f:p", "g:g2"),
                            }],
                            vec![],
                        ],
                    )]],
                    memops: vec![MemOpPruning {
                        offset: 9,
                        single: true,
                        loc_refs: vec![StablePath {
                            base: Some("g:g1".into()),
                            ops: vec![],
                        }],
                    }],
                },
                Vocab::Steens => FuncFacts::Steens(vec![
                    SteensConstraint::Base {
                        out: 0,
                        base: "g:g1".into(),
                    },
                    SteensConstraint::Move { dst: 1, src: 0 },
                    SteensConstraint::Load { out: 2, loc: 1 },
                    SteensConstraint::Store { loc: 1, val: 2 },
                    SteensConstraint::Copy { dst: 3, src: 4 },
                    SteensConstraint::CallTo {
                        callee: "id".into(),
                        args: vec![5, 6],
                        result: Some(7),
                    },
                    SteensConstraint::CallIndirect {
                        args: vec![],
                        result: None,
                    },
                ]),
            };
            let mut s = SolverSummaries::new(vocab);
            s.funcs.insert("main".to_string(), func(facts));
            if vocab == Vocab::Weihl {
                s.store = vec![pair("g:store", "g:g2")];
            }
            all.insert(vocab.name().to_string(), Arc::new(s));
        }
        all
    }

    fn sample_project() -> StoredProject {
        StoredProject {
            spec_key: "ci|site|none|weihl|steens|ci|k1|cs".into(),
            benches: vec![StoredBench {
                name: "span".into(),
                source: "int main(void) { return 0; }\n".into(),
                input: vec![1, 2, 3],
                source_fp: 7,
                graph_fp: u64::MAX,
                solution_fps: vec![("ci".into(), Some(42)), ("cs".into(), None)],
                summaries: StoredSummaries::Ready(sample_summaries()),
                check_fp: Some(99),
            }],
        }
    }

    #[test]
    fn save_load_round_trips_every_vocabulary() {
        let dir = std::env::temp_dir().join("ruf95-store-test-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let p = sample_project();
        store.save("alpha", &p).unwrap();
        let LoadOutcome::Loaded(mut q) = store.load("alpha") else {
            panic!("expected Loaded");
        };
        assert_eq!(q.spec_key, p.spec_key);
        assert_eq!(q.benches.len(), 1);
        // Loading defers summary decoding; the first touch decodes.
        assert!(matches!(q.benches[0].summaries, StoredSummaries::Raw(_)));
        let mut p = p;
        let (a, b) = (&mut p.benches[0], &mut q.benches[0]);
        assert_eq!(a.name, b.name);
        assert_eq!(a.source, b.source);
        assert_eq!(a.input, b.input);
        assert_eq!(a.source_fp, b.source_fp);
        assert_eq!(a.graph_fp, b.graph_fp);
        assert_eq!(a.solution_fps, b.solution_fps);
        assert_eq!(a.check_fp, b.check_fp);
        let (sa, sb) = (a.summaries.decoded(), b.summaries.decoded());
        assert_eq!(sa.len(), 5, "one payload per solver");
        for (solver, expect) in sa {
            let got = &sb[solver];
            assert_eq!(**expect, **got, "{solver} diverged in the round trip");
        }
        assert_eq!(store.projects(), vec!["alpha".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn raw_summaries_reencode_byte_identically() {
        // save → load (raw) → save must produce the same file as the
        // original save, so a session that never touched a bench's
        // summaries re-persists them without decoding.
        let dir = std::env::temp_dir().join("ruf95-store-test-raw-reencode");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        store.save("alpha", &sample_project()).unwrap();
        let first = std::fs::read_to_string(store.path_of("alpha")).unwrap();
        let LoadOutcome::Loaded(q) = store.load("alpha") else {
            panic!("expected Loaded");
        };
        store.save("alpha", &q).unwrap();
        let second = std::fs::read_to_string(store.path_of("alpha")).unwrap();
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_summaries_decode_to_empty_not_reject() {
        let mut p = sample_project();
        p.benches[0].summaries =
            StoredSummaries::Raw(Value::parse("{\"ci\": {\"vocab\": \"nope\"}}").unwrap());
        let dir = std::env::temp_dir().join("ruf95-store-test-badsum");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        store.save("alpha", &p).unwrap();
        let LoadOutcome::Loaded(mut q) = store.load("alpha") else {
            panic!("bad summaries must not reject the whole project");
        };
        assert!(q.benches[0].summaries.decoded().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_payload_version_drops_that_solver_only() {
        let mut p = sample_project();
        // One stale-versioned payload among good ones: only it drops.
        let good = encode_payload(&sample_summaries()["ci"]).render();
        let raw = format!(
            "{{\"ci\": {good}, \"cs\": {{\"v\": 1, \"vocab\": \"cs\", \"funcs\": {{}}, \"store\": []}}}}"
        );
        p.benches[0].summaries = StoredSummaries::Raw(Value::parse(&raw).unwrap());
        let dir = std::env::temp_dir().join("ruf95-store-test-payloadver");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        store.save("alpha", &p).unwrap();
        let LoadOutcome::Loaded(mut q) = store.load("alpha") else {
            panic!("expected Loaded");
        };
        let decoded = q.benches[0].summaries.decoded();
        assert!(decoded.contains_key("ci"));
        assert!(!decoded.contains_key("cs"));
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
