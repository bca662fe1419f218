//! The seeded program corpus and the committed reference answers.
//!
//! Every input is generated in-process from a fixed pool, so the
//! reference answers for the whole pool can be committed; a workload
//! seed selects and orders programs from the pool. Draws are
//! *stratified* by a deterministic work count (the solvers' total
//! flow-ins), so each run gets the same mix of cheap and expensive
//! programs and the seed moves which programs, not how much work.

use std::collections::HashMap;
use suite::generator::{generate, GenConfig};
use suite::rng::Rng;

/// Solver names in engine order.
pub const SOLVERS: [&str; 5] = ["weihl", "steensgaard", "ci", "k1", "cs"];

/// Scaling shapes in the pool: (shape, depth).
const SCALING: [(&str, usize); 8] = [
    ("chain", 16),
    ("chain", 32),
    ("chain", 64),
    ("chain", 128),
    ("diamond", 4),
    ("diamond", 8),
    ("diamond", 16),
    ("diamond", 24),
];
/// Scaling generator seeds in the pool; a run draws one per shape.
const SCALING_SEEDS: [u64; 3] = [1, 2, 3];
/// `GenConfig::campaign()` generator seeds in the pool.
pub const CAMPAIGN_POOL: u64 = 192;

/// Committed per-(program, solver) answers for the cold-spectrum pool.
const COLD_REFERENCE: &str = include_str!("../reference/cold_spectrum.tsv");

/// One corpus program.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub input: Vec<u8>,
    /// Which part of the corpus it comes from.
    pub kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paper,
    Litmus,
    Scaling,
    Generated,
}

impl Program {
    pub fn job(&self) -> engine::Job {
        engine::Job {
            name: self.name.clone(),
            source: self.source.clone(),
            input: self.input.clone(),
        }
    }

    pub fn spec(&self) -> proto::JobSpec {
        proto::JobSpec {
            name: self.name.clone(),
            source: self.source.clone(),
            input: self.input.clone(),
        }
    }
}

fn bundled(b: &suite::Benchmark, kind: Kind) -> Program {
    Program {
        name: b.name.to_string(),
        source: b.source.to_string(),
        input: b.input.to_vec(),
        kind,
    }
}

fn generated_name(seed: u64) -> String {
    format!("gen-{seed:04}")
}

/// The whole cold-spectrum pool, in a fixed order.
pub fn pool() -> Vec<Program> {
    let mut out: Vec<Program> = suite::benchmarks()
        .iter()
        .map(|b| bundled(b, Kind::Paper))
        .collect();
    out.extend(suite::litmus().iter().map(|b| bundled(b, Kind::Litmus)));
    for (shape, depth) in SCALING {
        for seed in SCALING_SEEDS {
            let p = match shape {
                "chain" => suite::scaling::chain(depth, seed),
                _ => suite::scaling::diamond(depth, seed),
            };
            out.push(Program {
                name: p.name,
                source: p.source,
                input: Vec::new(),
                kind: Kind::Scaling,
            });
        }
    }
    let cfg = GenConfig::campaign();
    for seed in 0..CAMPAIGN_POOL {
        out.push(Program {
            name: generated_name(seed),
            source: generate(seed, &cfg),
            input: Vec::new(),
            kind: Kind::Generated,
        });
    }
    out
}

/// One solver's committed answer on one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub fingerprint: u64,
    pub pairs: Option<u64>,
    pub flow_ins: Option<u64>,
}

/// Committed answers keyed by (program, solver).
pub struct Reference {
    answers: HashMap<(String, String), Answer>,
}

fn opt(field: &str) -> Option<u64> {
    field.parse().ok()
}

pub fn render_opt(v: Option<u64>) -> String {
    v.map_or("-".to_string(), |x| x.to_string())
}

impl Reference {
    /// Parses the committed table. A malformed table is a bug in the
    /// benchmark's own files, so it panics.
    pub fn load() -> Reference {
        let mut answers = HashMap::new();
        for line in COLD_REFERENCE.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 5, "malformed reference line {line:?}");
            let fingerprint = proto::parse_fp_hex(f[2]).expect("reference fingerprint is hex");
            answers.insert(
                (f[0].to_string(), f[1].to_string()),
                Answer {
                    fingerprint,
                    pairs: opt(f[3]),
                    flow_ins: opt(f[4]),
                },
            );
        }
        Reference { answers }
    }

    pub fn get(&self, program: &str, solver: &str) -> Option<&Answer> {
        self.answers.get(&(program.to_string(), solver.to_string()))
    }

    /// The deterministic work count a program is stratified by: the
    /// solvers' total flow-ins.
    pub fn cost(&self, program: &str) -> u64 {
        SOLVERS
            .iter()
            .filter_map(|s| self.get(program, s).and_then(|a| a.flow_ins))
            .sum()
    }
}

/// Fisher–Yates shuffle driven by the suite's seeded RNG.
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// Draws `strata` items: sorts `items` by `cost`, cuts them into
/// `strata` equal bands and picks one item per band at random.
pub fn stratified<T: Clone>(
    items: &[T],
    cost: impl Fn(&T) -> u64,
    strata: usize,
    rng: &mut Rng,
) -> Vec<T> {
    let mut sorted: Vec<&T> = items.iter().collect();
    sorted.sort_by_key(|x| cost(x));
    let band = sorted.len() / strata;
    assert!(band > 0, "more strata than items");
    (0..strata)
        .map(|s| sorted[s * band + rng.gen_range(0..band)].clone())
        .collect()
}

/// The corpus one run works on: every paper and litmus program, one
/// scaling program per (shape, depth) and a stratified draw of
/// generated programs.
pub fn draw(
    pool: &[Program],
    reference: &Reference,
    generated: usize,
    rng: &mut Rng,
) -> Vec<Program> {
    let mut out: Vec<Program> = pool
        .iter()
        .filter(|p| matches!(p.kind, Kind::Paper | Kind::Litmus))
        .cloned()
        .collect();
    let scaling: Vec<&Program> = pool.iter().filter(|p| p.kind == Kind::Scaling).collect();
    for group in scaling.chunks(SCALING_SEEDS.len()) {
        out.push(group[rng.gen_range(0..group.len())].clone());
    }
    let gens: Vec<Program> = pool
        .iter()
        .filter(|p| p.kind == Kind::Generated)
        .cloned()
        .collect();
    if generated > 0 {
        out.extend(stratified(
            &gens,
            |p| reference.cost(&p.name),
            generated,
            rng,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_covers_the_pool() {
        let reference = Reference::load();
        for p in pool() {
            for s in SOLVERS {
                assert!(reference.get(&p.name, s).is_some(), "{} / {s}", p.name);
            }
        }
    }

    #[test]
    fn draws_repeat_per_seed_and_keep_one_per_stratum() {
        let pool = pool();
        let reference = Reference::load();
        let a = draw(&pool, &reference, 24, &mut Rng::seed_from_u64(5));
        let b = draw(&pool, &reference, 24, &mut Rng::seed_from_u64(5));
        let names = |v: &[Program]| v.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.len(), 13 + 7 + 8 + 24);
        let c = draw(&pool, &reference, 24, &mut Rng::seed_from_u64(6));
        assert_ne!(names(&a), names(&c));
    }

    #[test]
    fn stratified_draw_takes_one_item_per_band() {
        let items: Vec<u64> = (0..40).collect();
        let got = stratified(&items, |&x| x, 4, &mut Rng::seed_from_u64(1));
        for (band, x) in got.iter().enumerate() {
            assert_eq!(*x / 10, band as u64);
        }
    }
}
