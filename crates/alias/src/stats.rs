//! Computation of the paper's evaluation tables.
//!
//! - Figure 3: total points-to pairs by output type (CI).
//! - Figure 4: locations accessed by indirect memory reads/writes.
//! - Figure 6: CS pair counts, CI totals, percent spurious.
//! - Figure 7: path × referent type distribution, all vs. spurious pairs.
//! - The §4.3 headline check: CS == CI at indirect memory references.

use crate::ci::CiResult;
use crate::cs::CsResult;
use crate::fxhash::HashSet;
use crate::path::{Pair, PathId, PathTable};
use crate::solver::Solution;
use vdg::graph::{BaseKind, Graph, NodeId, OutputId, ValueKind};

/// The pairs on output `o` of a pair-based solution.
///
/// # Panics
///
/// Panics on a solution without per-output pairs (Steensgaard, the
/// demand view): the figure tables count pairs.
fn pairs_of(sol: &dyn Solution, o: OutputId) -> &[Pair] {
    sol.pairs_at(o)
        .expect("the figure tables need a pair-based solution")
}

/// Pair counts by output type (the columns of Figures 3 and 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTypeCounts {
    /// Pairs on pointer-typed outputs.
    pub pointer: usize,
    /// Pairs on function-typed outputs.
    pub function: usize,
    /// Pairs on aggregate-typed outputs.
    pub aggregate: usize,
    /// Pairs on store-typed outputs.
    pub store: usize,
}

impl PairTypeCounts {
    /// Sum of all columns.
    pub fn total(&self) -> usize {
        self.pointer + self.function + self.aggregate + self.store
    }
}

/// Computes Figure 3 (or the first columns of Figure 6) for a
/// pair-based solution.
pub fn pair_type_counts(graph: &Graph, sol: &dyn Solution) -> PairTypeCounts {
    let mut c = PairTypeCounts::default();
    for o in graph.output_ids() {
        let n = pairs_of(sol, o).len();
        match graph.output(o).kind {
            ValueKind::Ptr => c.pointer += n,
            ValueKind::Func => c.function += n,
            ValueKind::Agg { .. } => c.aggregate += n,
            ValueKind::Store => c.store += n,
            ValueKind::Scalar => {
                debug_assert_eq!(n, 0, "scalar outputs must not carry pairs");
            }
        }
    }
    c
}

/// One Figure 4 row: indirect reads or writes of one program.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndirectRefRow {
    /// Number of indirect operations.
    pub total: usize,
    /// Operations referencing exactly one location.
    pub n1: usize,
    /// Operations referencing exactly two locations.
    pub n2: usize,
    /// Operations referencing exactly three locations.
    pub n3: usize,
    /// Operations referencing four or more locations.
    pub n4_plus: usize,
    /// Operations referencing zero locations (null-only pointers; counted
    /// in `total` but no bucket, matching the paper's footnote).
    pub n0: usize,
    /// Maximum locations referenced by any operation.
    pub max: usize,
    /// Mean locations per operation (zero-location ops included).
    pub avg: f64,
}

/// Per-op indirect-reference counts for one solution.
fn loc_count(sol: &dyn Solution, graph: &Graph, node: NodeId) -> usize {
    let loc_out = graph.input_src(node, 0);
    let mut refs: Vec<PathId> = pairs_of(sol, loc_out).iter().map(|p| p.referent).collect();
    refs.sort_unstable();
    refs.dedup();
    refs.len()
}

/// Computes the Figure 4 rows (reads, writes) for a pair-based
/// solution.
pub fn indirect_ref_rows(graph: &Graph, sol: &dyn Solution) -> (IndirectRefRow, IndirectRefRow) {
    let mut read = IndirectRefRow::default();
    let mut write = IndirectRefRow::default();
    let mut read_sum = 0usize;
    let mut write_sum = 0usize;
    for (node, is_write) in graph.indirect_mem_ops() {
        let n = loc_count(sol, graph, node);
        let (row, sum) = if is_write {
            (&mut write, &mut write_sum)
        } else {
            (&mut read, &mut read_sum)
        };
        row.total += 1;
        *sum += n;
        row.max = row.max.max(n);
        match n {
            0 => row.n0 += 1,
            1 => row.n1 += 1,
            2 => row.n2 += 1,
            3 => row.n3 += 1,
            _ => row.n4_plus += 1,
        }
    }
    if read.total > 0 {
        read.avg = read_sum as f64 / read.total as f64;
    }
    if write.total > 0 {
        write.avg = write_sum as f64 / write.total as f64;
    }
    (read, write)
}

/// A Figure 6 row: CS counts by type, the CI total, and percent spurious.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpuriousRow {
    /// CS pair counts by output type.
    pub cs: PairTypeCounts,
    /// Total CI pairs.
    pub ci_total: usize,
    /// Share of CI pairs the CS analysis proved unrealizable.
    pub percent_spurious: f64,
}

/// Computes the Figure 6 row for a program.
pub fn spurious_row(graph: &Graph, ci: &CiResult, cs: &CsResult) -> SpuriousRow {
    let cs_counts = pair_type_counts(graph, cs);
    let ci_total = ci.total_pairs();
    let cs_total = cs_counts.total();
    let percent = if ci_total == 0 {
        0.0
    } else {
        100.0 * (ci_total - cs_total) as f64 / ci_total as f64
    };
    SpuriousRow {
        cs: cs_counts,
        ci_total,
        percent_spurious: percent,
    }
}

/// Path classification for Figure 7 columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// Paths without base-locations (relative addressing into values).
    Offset,
    /// Procedure locals and parameters.
    Local,
    /// Globals, including string literal storage (paper Fig. 7 caption).
    Global,
    /// Heap allocation sites.
    Heap,
    /// Function constants (referents only).
    Function,
}

/// Classifies a path. Synthetic heap clones classify as their origin.
pub fn classify_path(paths: &PathTable, graph: &Graph, p: PathId) -> PathClass {
    match paths.base_of(p).map(|b| paths.origin_base(b)) {
        None => PathClass::Offset,
        Some(b) => match graph.base(b).kind {
            BaseKind::Local { .. } => PathClass::Local,
            BaseKind::Global { .. } | BaseKind::StrLit { .. } => PathClass::Global,
            BaseKind::Heap { .. } => PathClass::Heap,
            BaseKind::Func { .. } => PathClass::Function,
        },
    }
}

/// A Figure 7 matrix: percentages over (referent row × path column).
/// Rows: function, local, global, heap. Columns: offset, local, global,
/// heap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeMatrix {
    /// `cells[row][col]` as a percentage of `total`.
    pub cells: [[f64; 4]; 4],
    /// Number of pairs classified.
    pub total: usize,
}

const ROW_CLASSES: [PathClass; 4] = [
    PathClass::Function,
    PathClass::Local,
    PathClass::Global,
    PathClass::Heap,
];
const COL_CLASSES: [PathClass; 4] = [
    PathClass::Offset,
    PathClass::Local,
    PathClass::Global,
    PathClass::Heap,
];

fn matrix_of(paths: &PathTable, graph: &Graph, pairs: &[Pair]) -> TypeMatrix {
    let mut counts = [[0usize; 4]; 4];
    let mut total = 0usize;
    for p in pairs {
        let pc = classify_path(paths, graph, p.path);
        let rc = classify_path(paths, graph, p.referent);
        let col = COL_CLASSES.iter().position(|&c| c == pc);
        let row = ROW_CLASSES.iter().position(|&c| c == rc);
        if let (Some(r), Some(c)) = (row, col) {
            counts[r][c] += 1;
            total += 1;
        }
    }
    let mut m = TypeMatrix {
        total,
        ..Default::default()
    };
    if total > 0 {
        for (row, counts_row) in m.cells.iter_mut().zip(counts.iter()) {
            for (cell, &n) in row.iter_mut().zip(counts_row.iter()) {
                *cell = 100.0 * n as f64 / total as f64;
            }
        }
    }
    m
}

/// Computes the two Figure 7 matrices: all CI pairs and spurious-only
/// pairs (CI − CS), aggregated over all outputs of `graph`.
pub fn type_matrices(graph: &Graph, ci: &CiResult, cs: &CsResult) -> (TypeMatrix, TypeMatrix) {
    let mut all = Vec::new();
    let mut spurious = Vec::new();
    for o in graph.output_ids() {
        let cs_set: HashSet<Pair> = cs.pairs(o).iter().copied().collect();
        for &p in ci.pairs(o) {
            all.push(p);
            if !cs_set.contains(&p) {
                spurious.push(p);
            }
        }
    }
    (
        matrix_of(&ci.paths, graph, &all),
        matrix_of(&ci.paths, graph, &spurious),
    )
}

/// One mismatch reported by [`compare_at_indirect_refs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectRefMismatch {
    /// The memory operation that differs.
    pub node: NodeId,
    /// Whether it is a write (update) rather than a read (lookup).
    pub is_write: bool,
    /// Rendered CI referents.
    pub ci_referents: Vec<String>,
    /// Rendered CS referents.
    pub cs_referents: Vec<String>,
}

/// The §4.3 headline experiment: compares the CI and CS solutions at the
/// location inputs of indirect memory references. An empty return value
/// reproduces the paper's result ("the spurious information does not
/// affect the solution at all").
pub fn compare_at_indirect_refs(
    graph: &Graph,
    ci: &CiResult,
    cs: &CsResult,
) -> Vec<IndirectRefMismatch> {
    let mut out = Vec::new();
    for (node, is_write) in graph.indirect_mem_ops() {
        let names = |paths: &PathTable, refs: Vec<PathId>| -> Vec<String> {
            let mut v: Vec<String> = refs.iter().map(|&p| paths.display(p, graph)).collect();
            v.sort();
            v
        };
        let a = names(&ci.paths, ci.loc_referents(graph, node));
        let b = names(&cs.paths, cs.loc_referents(graph, node));
        if a != b {
            out.push(IndirectRefMismatch {
                node,
                is_write,
                ci_referents: a,
                cs_referents: b,
            });
        }
    }
    out
}

/// Count of spurious (CI-only) pairs per output kind, used by the §5.2
/// analysis that all spurious pairs land on store outputs.
pub fn spurious_by_kind(graph: &Graph, ci: &CiResult, cs: &CsResult) -> PairTypeCounts {
    let mut c = PairTypeCounts::default();
    for o in graph.output_ids() {
        let cs_set: HashSet<Pair> = cs.pairs(o).iter().copied().collect();
        let n = ci.pairs(o).iter().filter(|p| !cs_set.contains(p)).count();
        match graph.output(o).kind {
            ValueKind::Ptr => c.pointer += n,
            ValueKind::Func => c.function += n,
            ValueKind::Agg { .. } => c.aggregate += n,
            ValueKind::Store => c.store += n,
            ValueKind::Scalar => {}
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{analyze_ci, CiConfig};
    use crate::cs::{analyze_cs, CsConfig};
    use vdg::build::{lower, BuildOptions};

    fn pipeline(src: &str) -> (Graph, CiResult, CsResult) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        let cs = analyze_cs(&g, &ci, &CsConfig::default()).expect("budget");
        (g, ci, cs)
    }

    const OUT_PARAM: &str = "int buf;\n\
        void put(int **slot) { *slot = &buf; }\n\
        int use_a(void) { int *a; put(&a); return *a; }\n\
        int use_b(void) { int *b; put(&b); return *b; }\n\
        int main(void) { return use_a() + use_b(); }";

    #[test]
    fn figure3_counts_by_kind() {
        let (g, ci, _) = pipeline(OUT_PARAM);
        let c = pair_type_counts(&g, &ci);
        assert!(c.pointer > 0);
        assert!(c.store > 0);
        assert!(c.function > 0); // FuncConst values for callees
        assert_eq!(c.total(), ci.total_pairs());
    }

    #[test]
    fn figure4_rows_bucket_by_location_count() {
        let (g, ci, _) = pipeline(
            "int a; int b;\n\
             int main(void) { int *p; int c; c = getchar();\n\
               if (c) { p = &a; } else { p = &b; }\n\
               *p = 1; return *p; }",
        );
        let (read, write) = indirect_ref_rows(&g, &ci);
        assert_eq!(read.total, 1);
        assert_eq!(read.n2, 1);
        assert_eq!(write.total, 1);
        assert_eq!(write.n2, 1);
        assert!((read.avg - 2.0).abs() < 1e-9);
        assert_eq!(read.max, 2);
    }

    #[test]
    fn figure4_counts_null_reads_in_total_only() {
        let (g, ci, _) = pipeline("int main(void) { int *p; p = NULL; return *p; }");
        let (read, _) = indirect_ref_rows(&g, &ci);
        assert_eq!(read.total, 1);
        assert_eq!(read.n0, 1);
        assert_eq!(read.n1 + read.n2 + read.n3 + read.n4_plus, 0);
        assert!(read.avg < 1e-9);
    }

    #[test]
    fn figure6_measures_spurious_percentage() {
        let (g, ci, cs) = pipeline(OUT_PARAM);
        let row = spurious_row(&g, &ci, &cs);
        assert!(row.percent_spurious > 0.0, "{row:?}");
        assert!(row.percent_spurious < 50.0, "{row:?}");
        assert_eq!(row.ci_total, ci.total_pairs());
        assert!(row.cs.total() < row.ci_total);
    }

    #[test]
    fn headline_holds_on_out_param_program() {
        let (g, ci, cs) = pipeline(OUT_PARAM);
        assert!(compare_at_indirect_refs(&g, &ci, &cs).is_empty());
    }

    #[test]
    fn headline_detects_differences_when_present() {
        // Deref of a merged callee result: CS is strictly better here, and
        // the comparator must say so.
        let (g, ci, cs) = pipeline(
            "int a; int b;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *x; int *y; x = id(&a); y = id(&b); \
             return *x + *y; }",
        );
        let mismatches = compare_at_indirect_refs(&g, &ci, &cs);
        assert_eq!(mismatches.len(), 2);
        assert_eq!(mismatches[0].ci_referents.len(), 2);
        assert_eq!(mismatches[0].cs_referents.len(), 1);
    }

    #[test]
    fn figure7_matrices_are_percentages() {
        let (g, ci, cs) = pipeline(OUT_PARAM);
        let (all, spurious) = type_matrices(&g, &ci, &cs);
        let sum_all: f64 = all.cells.iter().flatten().sum();
        assert!((sum_all - 100.0).abs() < 1e-6, "sum {sum_all}");
        assert!(all.total > 0);
        assert!(spurious.total > 0);
        // Spurious pairs here involve locals (other callers' slots).
        let local_col: f64 = (0..4).map(|r| spurious.cells[r][1]).sum();
        assert!(local_col > 0.0);
    }

    #[test]
    fn spurious_pairs_live_on_store_outputs() {
        // Paper §5.2: "in every test case other than compress and span,
        // all of the spurious pairs are on store-valued outputs".
        let (g, ci, cs) = pipeline(OUT_PARAM);
        let spurious = spurious_by_kind(&g, &ci, &cs);
        assert!(spurious.store > 0);
        assert_eq!(spurious.pointer, 0);
        assert_eq!(spurious.function, 0);
        assert_eq!(spurious.aggregate, 0);
    }
}
