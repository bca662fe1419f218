//! Synthetic scaling benchmarks: chain and diamond pointer programs.
//!
//! The bundled paper suite tops out at a few thousand points-to pairs
//! per program, which is too small to separate worklist disciplines.
//! These generators produce families whose pair populations grow
//! quadratically with a size knob, in the two shapes that stress
//! propagation differently:
//!
//! * **chain** — a linear call chain `f0 -> f1 -> ... -> fN`. Every
//!   level conditionally injects a fresh address-taken local into the
//!   pointer it forwards, so the set arriving at level `i` holds `i+1`
//!   locations and the whole run circulates `O(N^2)` pairs. A naive
//!   worklist re-delivers each growing set once per insertion; delta
//!   propagation delivers each pair once.
//! * **diamond** — `N` levels of two functions each, every function
//!   calling both functions of the next level. Each merge point
//!   receives the union of both callers, so redundant re-sends (the
//!   thing `dedup_hits` counts) dominate a naive run.
//!
//! Generation is deterministic: a [`crate::rng`] stream seeded by the
//! caller picks the per-level pointer idiom (store-through, global
//! escape, or plain forwarding), so two runs with the same seed and
//! size emit byte-identical sources. Functions are emitted deepest
//! first because mini-C resolves calls only to already-defined
//! functions.

use crate::rng::Rng;
use std::fmt::Write as _;

/// A generated benchmark with owned source text (the bundled
/// [`crate::Benchmark`] embeds `&'static str` sources; generated
/// programs cannot).
#[derive(Debug, Clone)]
pub struct ScaledProgram {
    /// Name carrying the shape, size, and seed (e.g. `chain-064-s1`).
    pub name: String,
    /// mini-C source text.
    pub source: String,
}

/// A linear call chain of `depth` functions.
pub fn chain(depth: usize, seed: u64) -> ScaledProgram {
    assert!(depth >= 2, "chain needs at least two levels");
    let mut rng = Rng::seed_from_u64(seed ^ 0xc8a1);
    let mut out = String::new();
    out.push_str("int g; int *gp;\n\n");
    // Leaf first: everything below calls only already-defined names.
    let last = depth - 1;
    let _ = writeln!(
        out,
        "int *f{last}(int *a) {{\n    gp = a;\n    return a;\n}}\n"
    );
    for i in (0..last).rev() {
        let next = i + 1;
        let _ = writeln!(out, "int *f{i}(int *a) {{");
        let _ = writeln!(out, "    int l{i};");
        out.push_str("    int *p;\n    p = a;\n");
        let _ = writeln!(out, "    if (g > {i}) {{ p = &l{i}; }}");
        match rng.gen_range(0..3) {
            0 => {
                let _ = writeln!(out, "    *p = {i};");
            }
            1 => out.push_str("    gp = p;\n"),
            _ => {}
        }
        let _ = writeln!(out, "    return f{next}(p);\n}}\n");
    }
    out.push_str(
        "int main() {\n    int x;\n    int *r;\n    g = 0;\n    r = f0(&x);\n    gp = r;\n    return 0;\n}\n",
    );
    ScaledProgram {
        name: format!("chain-{depth:03}-s{seed}"),
        source: out,
    }
}

/// A diamond lattice: `depth` levels of two functions, each calling
/// both functions of the next level.
pub fn diamond(depth: usize, seed: u64) -> ScaledProgram {
    assert!(depth >= 2, "diamond needs at least two levels");
    let mut rng = Rng::seed_from_u64(seed ^ 0xd1a3);
    let mut out = String::new();
    out.push_str("int g; int *gp;\n\n");
    let last = depth - 1;
    for side in ["da", "db"] {
        let _ = writeln!(
            out,
            "int *{side}{last}(int *a) {{\n    gp = a;\n    return a;\n}}\n"
        );
    }
    for i in (0..last).rev() {
        let next = i + 1;
        for side in ["da", "db"] {
            let _ = writeln!(out, "int *{side}{i}(int *a) {{");
            let _ = writeln!(out, "    int l{side}{i};");
            out.push_str("    int *q;\n    int *r;\n    q = a;\n");
            let _ = writeln!(out, "    if (g > {i}) {{ q = &l{side}{i}; }}");
            if rng.gen_bool(0.5) {
                out.push_str("    gp = q;\n");
            }
            let _ = writeln!(out, "    r = da{next}(q);");
            let _ = writeln!(out, "    if (g > {next}) {{ r = db{next}(q); }}");
            out.push_str("    return r;\n}\n\n");
        }
    }
    out.push_str(
        "int main() {\n    int x;\n    int *r;\n    g = 0;\n    r = da0(&x);\n    if (g > 0) { r = db0(&x); }\n    gp = r;\n    return 0;\n}\n",
    );
    ScaledProgram {
        name: format!("diamond-{depth:03}-s{seed}"),
        source: out,
    }
}

/// The standard scaling sweep: three chain sizes and three diamond
/// sizes.
pub fn standard_suite(seed: u64) -> Vec<ScaledProgram> {
    let mut v = Vec::new();
    for depth in [32, 64, 128] {
        v.push(chain(depth, seed));
    }
    for depth in [8, 16, 24] {
        v.push(diamond(depth, seed));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(chain(32, 7).source, chain(32, 7).source);
        assert_eq!(diamond(8, 7).source, diamond(8, 7).source);
        assert_ne!(chain(32, 7).source, chain(32, 8).source);
    }

    #[test]
    fn scaled_programs_compile_and_lower() {
        for p in standard_suite(1) {
            let prog = cfront::compile(&p.source)
                .unwrap_or_else(|e| panic!("{}: does not compile: {e:?}", p.name));
            vdg::lower(&prog, &vdg::BuildOptions::default())
                .unwrap_or_else(|e| panic!("{}: does not lower: {e:?}", p.name));
        }
    }

    #[test]
    fn chain_pair_population_grows_quadratically() {
        let small = run_ci(&chain(16, 1).source);
        let large = run_ci(&chain(64, 1).source);
        // 4x the depth should give clearly more than 4x the pairs.
        assert!(
            large > 6 * small,
            "chain pairs do not scale: {small} at depth 16, {large} at depth 64"
        );
    }

    fn run_ci(src: &str) -> usize {
        let prog = cfront::compile(src).unwrap();
        let g = vdg::lower(&prog, &vdg::BuildOptions::default()).unwrap();
        alias::SolverSpec::ci().solve_ci(&g).total_pairs()
    }
}
