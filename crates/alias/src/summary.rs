//! The unified function-summary vocabulary shared by all five solvers.
//!
//! PR 4 introduced caller-independent per-function facts for the CI
//! solver only ([`crate::fingerprint`]); every other solver re-solved
//! from scratch with a recorded excuse. This module generalizes that
//! design into one `FunctionSummary` type able to carry each solver's
//! transfer facts in graph-independent vocabulary:
//!
//! - **CI / Weihl**: committed pairs per output (Weihl additionally
//!   keeps the single program-wide store relation on the container).
//! - **k=1 call-strings**: pairs per output *per context*, a context
//!   being the root or a call site named `(function, node offset)`.
//! - **Assumption-set CS**: per output, each pair with its minimal
//!   antichain of assumption sets; an assumption names a formal *of the
//!   enclosing function* by index (facts inside `f` only ever carry
//!   assumptions on `f`'s own formals — crossing into a callee
//!   introduces the callee's, and resolution at a return rewrites them
//!   onto the caller's). CS summaries also record the CI pruning
//!   information each memory operation was solved under, so a resume
//!   can detect pruning drift.
//! - **Steensgaard**: the function's unification constraint atoms over
//!   its own output offsets — a *syntactic* summary (derivable from the
//!   graph alone) that replays onto a fresh union-find in any order.
//!
//! Summaries are keyed by function name and guarded by the function's
//! content fingerprint ([`crate::fingerprint::GraphIndex`]); the
//! per-solver resume planners translate a clean function's facts into
//! the next graph's vocabulary and install them as seeds outside the
//! dirty cone. The subset-seeding argument of PR 4 carries over to each
//! vocabulary because every solver's transfer system is monotone over
//! its own lattice (pair sets; per-context pair sets; minimal
//! antichains of assumption sets under the superset order; union-find
//! partitions, which are order-independent outright).

use crate::fingerprint::{StablePair, StablePath};
use crate::fxhash::HashMap;

/// Which solver vocabulary a [`SolverSummaries`] is expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vocab {
    /// Weihl's program-wide flow-insensitive baseline.
    Weihl,
    /// Steensgaard's unification baseline (constraint atoms).
    Steens,
    /// The context-insensitive analysis (§3).
    Ci,
    /// The k=1 call-string analysis.
    K1,
    /// The assumption-set context-sensitive analysis (§4).
    Cs,
}

/// A k=1 calling context in stable vocabulary: the root, or a call site
/// named by its owning function and node offset within it. `Ord` so
/// extraction can emit contexts in a canonical order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum StableCtx {
    /// The root context (no pending call).
    Root,
    /// The context of one call site.
    Call {
        /// Name of the function owning the call node.
        func: String,
        /// Node offset of the call within its owner's contiguous range.
        offset: u32,
    },
}

/// One assumption of a CS qualified pair: `pair` must hold on entry at
/// the `formal`-th parameter of the *enclosing* function. `Ord` so
/// extraction can sort sets into a canonical order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StableAssum {
    /// Formal index within the enclosing function's entry outputs.
    pub formal: u32,
    /// The points-to pair assumed to hold there.
    pub pair: StablePair,
}

/// The CI pruning facts one CS memory operation was solved under
/// (paper §4.2). Recorded so a resume can detect that the current CI
/// solution prunes differently and re-derive the operation's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemOpPruning {
    /// Node offset of the memory operation within its owner.
    pub offset: u32,
    /// Whether the CI bound proved exactly one referenced location.
    pub single: bool,
    /// The CI referents at the operation's location input.
    pub loc_refs: Vec<StablePath>,
}

/// One Steensgaard unification constraint, over output offsets within
/// the owning function (every VDG input edge is intra-function by
/// construction, so offsets suffice). `Ord` so extraction can sort and
/// deduplicate: unification is idempotent and order-independent.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SteensConstraint {
    /// `pts(out) ∋ base`: a Base/Alloc/FuncConst node's address seed.
    Base {
        /// Output offset of the constant node's value.
        out: u32,
        /// Stable key of the base-location.
        base: String,
    },
    /// Value move: `pts(dst) ~ pts(src)`.
    Move {
        /// Destination output offset.
        dst: u32,
        /// Source output offset.
        src: u32,
    },
    /// `out = *loc`.
    Load {
        /// Result output offset.
        out: u32,
        /// Location output offset.
        loc: u32,
    },
    /// `*loc = val`.
    Store {
        /// Location output offset.
        loc: u32,
        /// Stored-value output offset.
        val: u32,
    },
    /// `*dst = *src` (CopyMem).
    Copy {
        /// Destination-pointer output offset.
        dst: u32,
        /// Source-pointer output offset.
        src: u32,
    },
    /// A call bound syntactically to one named function.
    CallTo {
        /// Callee name.
        callee: String,
        /// Actual-argument output offsets (value ports, in order).
        args: Vec<u32>,
        /// Result output offset, when the call has a value result.
        result: Option<u32>,
    },
    /// A call through a function pointer: bound at replay time to the
    /// *current* graph's address-taken set, exactly as a fresh solve
    /// binds it.
    CallIndirect {
        /// Actual-argument output offsets (value ports, in order).
        args: Vec<u32>,
        /// Result output offset, when the call has a value result.
        result: Option<u32>,
    },
}

/// Per-solver transfer facts of one function, in stable vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuncFacts {
    /// Committed pairs per output offset.
    Ci(Vec<Vec<StablePair>>),
    /// Committed value pairs per output offset (store-typed outputs are
    /// empty; their pairs live in [`SolverSummaries::store`]).
    Weihl(Vec<Vec<StablePair>>),
    /// Per output offset: each context's committed pairs.
    K1(Vec<Vec<(StableCtx, Vec<StablePair>)>>),
    /// Qualified CS facts.
    Cs {
        /// Per output offset: each pair with its minimal antichain of
        /// assumption sets.
        outputs: Vec<Vec<(StablePair, Vec<Vec<StableAssum>>)>>,
        /// CI pruning records for the function's memory operations.
        memops: Vec<MemOpPruning>,
    },
    /// Unification constraint atoms.
    Steens(Vec<SteensConstraint>),
}

impl FuncFacts {
    /// Number of per-output fact rows, `None` for the offset-free
    /// Steensgaard atoms.
    pub fn output_rows(&self) -> Option<usize> {
        match self {
            FuncFacts::Ci(v) | FuncFacts::Weihl(v) => Some(v.len()),
            FuncFacts::K1(v) => Some(v.len()),
            FuncFacts::Cs { outputs, .. } => Some(outputs.len()),
            FuncFacts::Steens(_) => None,
        }
    }
}

/// Memoized facts of one function from one solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSummary {
    /// The function's content fingerprint at extraction time.
    pub fingerprint: u64,
    /// Call-edge facts: `(call-node offset, sorted callee names)`.
    pub calls: Vec<(u32, Vec<String>)>,
    /// The solver-vocabulary transfer facts.
    pub facts: FuncFacts,
}

/// A whole program's summaries under one solver vocabulary: the unit
/// the [`crate::Solver`] `summarize`/`resume` capability produces and
/// consumes, the `SummaryCache` memoizes, and the disk store persists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverSummaries {
    /// The vocabulary the facts are expressed in.
    pub vocab: Vocab,
    /// Per-function summaries, keyed by function name.
    pub funcs: HashMap<String, FunctionSummary>,
    /// The program-wide store relation (Weihl only; empty otherwise).
    pub store: Vec<StablePair>,
}

impl SolverSummaries {
    /// An empty container for `vocab`.
    pub fn new(vocab: Vocab) -> SolverSummaries {
        SolverSummaries {
            vocab,
            funcs: HashMap::default(),
            store: Vec::new(),
        }
    }

    /// Total fact rows across functions, a coarse size metric for cache
    /// accounting and `ruf95 stats`.
    pub fn fact_rows(&self) -> usize {
        self.funcs
            .values()
            .map(|f| f.facts.output_rows().unwrap_or(1) + f.calls.len())
            .sum::<usize>()
            + self.store.len()
    }
}

/// How a seeded resume went: the numbers the engine surfaces in
/// `SolveMode::DirtyCone` and `ruf95 stats`.
#[derive(Debug, Clone, Default)]
pub struct ResumeStats {
    /// Names of the functions that were re-summarized (fingerprint or
    /// translation changes), sorted.
    pub dirty: Vec<String>,
    /// Number of functions whose summaries replayed clean.
    pub clean: usize,
    /// Outputs inside the dirty cone (recomputed).
    pub cone_outputs: usize,
    /// Outputs seeded from the previous summaries.
    pub seeded_outputs: usize,
    /// Total outputs in the next graph.
    pub total_outputs: usize,
}
