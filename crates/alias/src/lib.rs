//! # alias — points-to alias analyses from Ruf, PLDI 1995
//!
//! A from-scratch reproduction of the analyses in Erik Ruf,
//! *Context-Insensitive Alias Analysis Reconsidered* (PLDI 1995): a
//! simple, efficient **context-insensitive** (CI) points-to analysis over
//! a Value Dependence Graph, and a **maximally context-sensitive** (CS)
//! version of the same analysis built on assumption sets, together with
//! the CI-driven optimizations (§4.2) that make the CS analysis feasible.
//!
//! The paper's empirical claim — that context-sensitivity buys little to
//! no precision at indirect memory references on pointer-intensive C
//! programs — is reproducible with
//! [`stats::compare_at_indirect_refs`] over the `suite` crate's
//! benchmark programs.
//!
//! ## Quickstart
//!
//! ```
//! use alias::Analysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = Analysis::of_source(
//!     "int g; int main(void) { int *p; p = &g; return *p; }",
//! )?;
//! // The sole indirect read `*p` references exactly one location: g.
//! let (node, _) = a.graph.indirect_mem_ops()[0];
//! let refs = a.ci.loc_referents(&a.graph, node);
//! assert_eq!(refs.len(), 1);
//! assert_eq!(a.ci.paths.display(refs[0], &a.graph), "g");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod callstring;
pub mod ci;
pub mod cs;
pub mod defuse;
pub mod demand;
pub mod fingerprint;
pub mod fxhash;
pub mod modref;
pub mod pairset;
pub mod path;
pub mod reach;
pub mod solver;
pub mod stats;
pub mod steensgaard;
pub mod weihl;
mod worklist;

pub use ci::{analyze_ci, CiConfig, CiResult, Fault, HeapNaming, WorklistOrder};
pub use cs::{analyze_cs, cs_subset_of_ci, CsConfig, CsResult, StepLimitExceeded};
pub use demand::{DemandConfig, DemandSolution, DemandState, DemandStats};
pub use fingerprint::GraphIndex;
pub use pairset::{PairId, PairInterner, PairSet, Propagation};
pub use path::{AccessOp, Pair, PathId, PathTable};
pub use solver::{Solution, SolutionBox, SolverKind, SolverSpec};

use std::fmt;
use vdg::graph::Graph;

/// Everything that can go wrong between source text and analysis results.
#[derive(Debug)]
pub enum AnalysisError {
    /// Lexing, parsing, or semantic errors.
    Frontend(cfront::FrontendError),
    /// Constructs outside the modeled subset discovered during lowering.
    Lowering(cfront::Diagnostic),
    /// The CS analysis exceeded its step budget.
    StepLimit(StepLimitExceeded),
    /// An underlying error annotated with *where* it happened — which
    /// solver, on which benchmark or fuzz seed — so engine and fuzz
    /// reports print actionable one-liners instead of a bare cause.
    Context {
        /// [`SolverSpec::name`] of the failing solver.
        solver: String,
        /// The benchmark name or fuzz-seed label being analyzed.
        job: String,
        /// The underlying failure.
        source: Box<AnalysisError>,
    },
}

impl AnalysisError {
    /// Wraps the error with the solver and benchmark/seed it came from.
    /// Layering a second context replaces the first instead of nesting.
    #[must_use]
    pub fn in_context(self, solver: &str, job: &str) -> AnalysisError {
        let source = match self {
            AnalysisError::Context { source, .. } => source,
            other => Box::new(other),
        };
        AnalysisError::Context {
            solver: solver.to_string(),
            job: job.to_string(),
            source,
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Frontend(e) => write!(f, "frontend: {e}"),
            AnalysisError::Lowering(e) => write!(f, "lowering: {e}"),
            AnalysisError::StepLimit(e) => write!(f, "{e}"),
            AnalysisError::Context {
                solver,
                job,
                source,
            } => write!(f, "{solver} on {job}: {source}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Context { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<cfront::FrontendError> for AnalysisError {
    fn from(e: cfront::FrontendError) -> Self {
        AnalysisError::Frontend(e)
    }
}

impl From<cfront::Diagnostic> for AnalysisError {
    fn from(e: cfront::Diagnostic) -> Self {
        AnalysisError::Lowering(e)
    }
}

impl From<StepLimitExceeded> for AnalysisError {
    fn from(e: StepLimitExceeded) -> Self {
        AnalysisError::StepLimit(e)
    }
}

/// A convenience bundle: compiled program, VDG, and the CI result.
///
/// Use [`Analysis::run_cs`] to additionally run the context-sensitive
/// analysis.
#[derive(Debug)]
pub struct Analysis {
    /// The checked program.
    pub program: cfront::Program,
    /// Its Value Dependence Graph.
    pub graph: Graph,
    /// The context-insensitive solution.
    pub ci: CiResult,
}

impl Analysis {
    /// Compiles, lowers, and runs the CI analysis with default options.
    ///
    /// # Errors
    ///
    /// Returns frontend or lowering diagnostics.
    pub fn of_source(src: &str) -> Result<Analysis, AnalysisError> {
        let program = cfront::compile(src)?;
        let graph = vdg::lower(&program, &vdg::BuildOptions::default())?;
        let ci = analyze_ci(&graph, &CiConfig::default());
        Ok(Analysis { program, graph, ci })
    }

    /// Runs the context-sensitive analysis on top of this CI result.
    ///
    /// # Errors
    ///
    /// Returns [`StepLimitExceeded`] if `cfg.max_steps` is exhausted.
    pub fn run_cs(&self, cfg: &CsConfig) -> Result<CsResult, StepLimitExceeded> {
        analyze_cs(&self.graph, &self.ci, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_pipeline_end_to_end() {
        let a = Analysis::of_source("int g; int main(void) { int *p; p = &g; return *p; }")
            .expect("pipeline");
        let cs = a.run_cs(&CsConfig::default()).expect("cs");
        assert!(cs_subset_of_ci(&a.graph, &a.ci, &cs));
        assert!(stats::compare_at_indirect_refs(&a.graph, &a.ci, &cs).is_empty());
    }

    #[test]
    fn analysis_reports_frontend_errors() {
        assert!(matches!(
            Analysis::of_source("int main(void) { return x; }"),
            Err(AnalysisError::Frontend(_))
        ));
    }
}
