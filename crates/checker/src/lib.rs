//! # checker — alias-driven memory-safety checkers
//!
//! The paper's precision spectrum (Weihl → Steensgaard → CI → k=1 →
//! assumption-set CS) is usually scored in pairs and referent-set
//! sizes. This crate scores it the way a tool consumer would: seven
//! safety checkers run over the VDG, each driven by *any*
//! [`alias::Solution`], so the same checker code produces one
//! diagnostic set per solver. Differences between those sets are pure
//! analysis precision — the checker logic never changes.
//!
//! The checkers:
//!
//! - **use-after-free** — a memory access whose backward store walk
//!   ([`alias::reach::StoreWalk`], which reaches a function's call sites
//!   through the callee map inverted once) reaches a `free` of an
//!   overlapping heap object (the `Free` node's pointer referents act as
//!   a kill-set threaded through the store, analogous to strong-update
//!   location sets);
//! - **double-free** — a `free` whose walk reaches an earlier `free`
//!   of an overlapping heap object;
//! - **dangling-local** — the address of a local escaping its frame,
//!   through a `return` or a store into memory that outlives the frame;
//! - **uninit-read** — a load with no reaching store at the base
//!   granularity ([`alias::defuse::def_use_bases`]);
//! - **null-deref** — an indirect access whose referent set is empty
//!   (a null or uninitialized pointer: such a pointer contributes no
//!   points-to pairs, so a sound empty set means the access can never
//!   succeed);
//! - **dead-store** — a store no load or copy may observe;
//! - **data-race** — conflicting accesses from threads the VDG's
//!   may-happen-in-parallel relation says can run concurrently, found
//!   by intersecting per-thread transitive mod/ref footprints
//!   ([`race`], closed over the call graph by
//!   [`alias::reach::close_over_calls`], as mod/ref is).
//!
//! Every diagnostic is anchored to a [`cfront::Span`] and an AST site,
//! which is what makes the **oracle labeling** possible: the
//! interpreter ([`interp::run_traced`]) executes the same program,
//! classifying faults and tracing accesses by the same AST sites, and
//! [`label::label_diagnostics`] grades each diagnostic true positive,
//! false positive, or unreachable against that ground truth. The
//! [`harness`] module runs every checker under all five solvers and
//! renders the per-solver counts and false-positive rates as a
//! paper-style table.

#![warn(missing_docs)]

pub mod checks;
pub mod harness;
pub mod label;
pub mod race;

pub use checks::run_checks;
pub use harness::{precision_table, render_table, CheckCounts, PrecisionRow, RACE_SCHEDULES};
pub use label::{
    label_diagnostics, label_with_races, refuted_fault, refuted_race, Label, LabeledDiagnostic,
};

use cfront::ast::ExprId;
use cfront::source::{SourceFile, Span};
use vdg::graph::NodeId;

/// Which checker produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CheckKind {
    /// Access to a possibly-freed heap object.
    UseAfterFree,
    /// `free` of a possibly already-freed heap object.
    DoubleFree,
    /// Address of a local escaping its frame.
    DanglingLocal,
    /// Load with no reaching store.
    UninitRead,
    /// Indirect access through a pointer with an empty referent set.
    NullDeref,
    /// Store that no load or copy may observe.
    DeadStore,
    /// Conflicting unsynchronized accesses from concurrently-live
    /// threads, at least one of them a write.
    DataRace,
}

impl CheckKind {
    /// Stable machine-readable name (table column / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::UseAfterFree => "use-after-free",
            CheckKind::DoubleFree => "double-free",
            CheckKind::DanglingLocal => "dangling-local",
            CheckKind::UninitRead => "uninit-read",
            CheckKind::NullDeref => "null-deref",
            CheckKind::DeadStore => "dead-store",
            CheckKind::DataRace => "data-race",
        }
    }

    /// All seven kinds, in report order.
    pub fn all() -> [CheckKind; 7] {
        [
            CheckKind::UseAfterFree,
            CheckKind::DoubleFree,
            CheckKind::DanglingLocal,
            CheckKind::UninitRead,
            CheckKind::NullDeref,
            CheckKind::DeadStore,
            CheckKind::DataRace,
        ]
    }
}

/// How serious a diagnostic is: errors describe accesses that fault (or
/// corrupt memory) whenever they execute; warnings describe latent or
/// lint-grade findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Faults if it executes.
    Error,
    /// Latent or lint-grade.
    Warning,
}

impl Severity {
    /// Lowercase label used in rendered diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One checker finding, anchored to source and attributed to the solver
/// that drove it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The checker that fired.
    pub kind: CheckKind,
    /// Error or warning.
    pub severity: Severity,
    /// The [`alias::SolverSpec::name`] whose solution drove the checker.
    pub analysis: String,
    /// The VDG node the finding anchors to.
    pub node: NodeId,
    /// The AST expression performing the flagged operation — the key
    /// the oracle labeler joins runtime evidence on.
    pub site: ExprId,
    /// Source range of the flagged operation.
    pub span: Span,
    /// Human-readable description, lowercase, no trailing period.
    pub message: String,
    /// Solver-attributed evidence: the points-to referents and related
    /// sites (e.g. the `free` calls a use-after-free may observe),
    /// rendered as short strings.
    pub witness: Vec<String>,
    /// Spans of related sites (the frees of a use-after-free / double
    /// free, the partner access of a data race), for secondary carets.
    pub related_spans: Vec<Span>,
    /// AST sites of the related operations, parallel in meaning to
    /// [`Diagnostic::related_spans`]. The race labeler joins
    /// `(site, related_site)` pairs against oracle-observed race pairs.
    pub related_sites: Vec<ExprId>,
}

impl Diagnostic {
    /// Renders the diagnostic against `file` with a source caret, as
    /// `ruf95 check` prints it:
    ///
    /// ```text
    /// bench.c:12:5: error: use of heap object freed earlier [use-after-free][ci]
    ///     return *p;
    ///            ^^
    ///   note: heap:main:builtin#0; freed at bench.c:11:5
    /// ```
    pub fn render(&self, file: &SourceFile) -> String {
        use std::fmt::Write as _;
        let lc = file.line_col(self.span.start);
        let mut out = format!(
            "{}:{}:{}: {}: {} [{}][{}]\n{}",
            file.name(),
            lc.line,
            lc.col,
            self.severity.label(),
            self.message,
            self.kind.name(),
            self.analysis,
            file.caret(self.span),
        );
        if !self.witness.is_empty() {
            let _ = write!(out, "\n  note: {}", self.witness.join("; "));
        }
        for &rs in &self.related_spans {
            let rlc = file.line_col(rs.start);
            let _ = write!(out, "\n  related: {}:{}:{}", file.name(), rlc.line, rlc.col);
        }
        out
    }
}
