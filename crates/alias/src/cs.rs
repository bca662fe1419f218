//! The maximally context-sensitive points-to analysis (paper §4, Fig. 5).
//!
//! Qualified points-to pairs carry *assumption sets*: each assumption is a
//! `(formal output, pair)` that must hold on entry to the enclosing
//! procedure for the pair to hold. Assumptions are introduced when actuals
//! cross into formals, chained (unioned) at lookups and updates, and
//! resolved at returns by matching them against the pairs holding at each
//! call site — the Cartesian product of the satisfying assumption sets
//! qualifies the returned pair (`propagate-return` in the paper).
//!
//! Two ingredients make the exponential algorithm feasible (paper §4.2):
//!
//! 1. **Subsumption**: `(p, B)` is discarded wherever `(p, A)` already
//!    holds with `A ⊆ B`.
//! 2. **CI pruning**: the context-insensitive result bounds each memory
//!    operation; single-target operations introduce no location
//!    assumptions, and store pairs provably unmodified by an update pass
//!    through without new assumptions.

use crate::ci::CiResult;
use crate::fxhash::{HashMap, HashSet};
use crate::path::{AccessOp, Pair, PathId, PathTable};
use std::collections::VecDeque;
use std::fmt;
use vdg::graph::{Graph, InputId, NodeId, NodeKind, OutputId, VFuncId};

/// Interned assumption-set id. Set 0 is the empty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetId(pub u32);

/// Configuration of the CS solver.
#[derive(Debug, Clone)]
pub struct CsConfig {
    /// Heap site naming; must match the CI configuration when
    /// `ci_pruning` is on.
    pub heap_naming: crate::ci::HeapNaming,
    /// Apply the subsumption rule on assumption sets (§4.2).
    pub subsumption: bool,
    /// Use the CI result to prune assumption introduction (§4.2).
    ///
    /// Pruning preserves precision *under the paper's standard
    /// assumptions* (all intraprocedural paths execute, all dereferences
    /// are non-null). In corner cases where the maximally precise CS can
    /// prove an operation references zero locations in some context, the
    /// pruned analysis keeps the conservative CI-backed answer — the
    /// caveat of the paper's footnote 8. The pruned result is always
    /// sandwiched between the maximal CS and the CI solutions (tested in
    /// `tests/properties.rs`).
    pub ci_pruning: bool,
    /// Perform strong updates; must match the CI configuration when
    /// `ci_pruning` is on.
    pub strong_updates: bool,
    /// Abort after this many transfer-function applications; the
    /// unoptimized algorithm is exponential and this is the safety valve
    /// the paper lacked (it simply waited hours).
    pub max_steps: u64,
}

impl Default for CsConfig {
    fn default() -> Self {
        CsConfig {
            heap_naming: crate::ci::HeapNaming::Site,
            subsumption: true,
            ci_pruning: true,
            strong_updates: true,
            max_steps: 200_000_000,
        }
    }
}

/// The CS analysis exceeded its step budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepLimitExceeded {
    /// The budget that was exhausted.
    pub steps: u64,
}

impl fmt::Display for StepLimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "context-sensitive analysis exceeded {} transfer applications",
            self.steps
        )
    }
}

impl std::error::Error for StepLimitExceeded {}

/// Result of the context-sensitive analysis, with assumptions stripped
/// (paper §4.1 end: duplicates removed after stripping).
///
/// Every table is flat: output `o`'s sorted pairs are
/// `pairs[pair_start[o]..pair_start[o + 1]]`, pair `i`'s antichain is
/// `chains[chain_start[i]..chain_start[i + 1]]`, and assumption set `s`
/// is `arena[set_start[s]..set_start[s + 1]]`.
#[derive(Debug, Clone)]
pub struct CsResult {
    /// Path universe: the CI table extended with any CS-only paths.
    pub paths: PathTable,
    pairs: Vec<Pair>,
    pair_start: Vec<usize>,
    /// The full qualified solution: each pair's antichain of assumption
    /// sets. Kept because "some context-sensitive analyses prefer to use
    /// the qualified information directly; this would be easy to
    /// accommodate" (paper §4.1).
    chains: Vec<SetId>,
    chain_start: Vec<usize>,
    /// Every interned assumption set, in interning order.
    arena: Vec<Assumption>,
    set_start: Vec<usize>,
    /// Transfer-function applications (`flow-in`s).
    pub flow_ins: u64,
    /// Retained meets (`flow-out`s): emissions that survived the
    /// subsumption check and grew an output's antichain. Discarded
    /// attempts are counted in [`CsResult::dedup_hits`].
    pub flow_outs: u64,
    /// Emission attempts discarded as duplicates or by subsumption.
    pub dedup_hits: u64,
    /// Assumption-set union operations performed — one per assumption in
    /// every Cartesian-product step of `propagate-return`, plus the
    /// chaining unions at lookups, updates, and copies. This is the §4.2
    /// meet work that emission counts no longer proxy once difference
    /// propagation prunes re-derived combinations.
    pub meet_steps: u64,
    /// Number of distinct assumption sets ever interned.
    pub distinct_assumption_sets: usize,
    /// Size of the largest assumption set encountered.
    pub max_assumption_set: usize,
}

/// One assumption of a qualified pair: `pair` must hold on the given
/// formal output on entry to the enclosing procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assumption {
    /// The formal-parameter output the assumption constrains.
    pub formal: OutputId,
    /// The points-to pair that must hold there on entry.
    pub pair: Pair,
}

/// The half-open span `start[i]..start[i + 1]` of a flat table.
pub(crate) fn span(start: &[usize], i: usize) -> std::ops::Range<usize> {
    start[i]..start[i + 1]
}

impl CsResult {
    /// The stripped points-to pairs on an output, sorted.
    pub fn pairs(&self, o: OutputId) -> &[Pair] {
        &self.pairs[span(&self.pair_start, o.0 as usize)]
    }

    /// Total stripped pairs across all outputs (Figure 6).
    pub fn total_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Distinct referents at a memory operation's location input.
    pub fn loc_referents(&self, graph: &Graph, node: NodeId) -> Vec<PathId> {
        let loc_out = graph.input_src(node, 0);
        let mut refs: Vec<PathId> = self.pairs(loc_out).iter().map(|p| p.referent).collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }

    /// The qualified pairs on an output, in [`CsResult::pairs`] order:
    /// each pair with the minimal assumption sets under which it holds
    /// (read them with [`CsResult::assumption_set`]; the empty set means
    /// the pair holds unconditionally).
    pub fn qualified_pairs(&self, o: OutputId) -> impl Iterator<Item = (Pair, &[SetId])> + '_ {
        span(&self.pair_start, o.0 as usize)
            .map(move |i| (self.pairs[i], &self.chains[span(&self.chain_start, i)]))
    }

    /// The assumptions of one set of a qualified pair's antichain.
    pub fn assumption_set(&self, s: SetId) -> &[Assumption] {
        &self.arena[span(&self.set_start, s.0 as usize)]
    }

    /// Renders one qualified pair for diagnostics:
    /// `(p, r) if {f0: (a, b), ...} | {...}`.
    pub fn display_qualified(&self, graph: &Graph, pair: Pair, sets: &[SetId]) -> String {
        let pp = |p: Pair| {
            format!(
                "({} -> {})",
                self.paths.display(p.path, graph),
                self.paths.display(p.referent, graph)
            )
        };
        let mut out = pp(pair);
        if sets.iter().any(|&s| self.assumption_set(s).is_empty()) {
            return out;
        }
        out.push_str(" if ");
        let rendered: Vec<String> = sets
            .iter()
            .map(|&set| {
                let items: Vec<String> = self
                    .assumption_set(set)
                    .iter()
                    .map(|a| format!("{}@{}", pp(a.pair), a.formal.0))
                    .collect();
                format!("{{{}}}", items.join(", "))
            })
            .collect();
        out.push_str(&rendered.join(" | "));
        out
    }
}

/// Runs the context-sensitive analysis, using `ci` for the §4.2 pruning
/// optimizations (pass the result of [`crate::ci::analyze_ci`] on the
/// same graph).
///
/// # Errors
///
/// Returns [`StepLimitExceeded`] when `config.max_steps` is exhausted —
/// expected for the unoptimized configuration on non-trivial inputs.
pub fn analyze_cs(
    graph: &Graph,
    ci: &CiResult,
    config: &CsConfig,
) -> Result<CsResult, StepLimitExceeded> {
    let mut s = CsSolver::new(graph, ci, config.clone());
    s.seed();
    s.run()?;
    Ok(s.finish())
}

/// Interning tables for assumptions and assumption sets.
struct Assums {
    infos: Vec<(OutputId, Pair)>,
    ids: HashMap<(OutputId, Pair), u32>,
    sets: Vec<Box<[u32]>>,
    set_ids: HashMap<Box<[u32]>, u32>,
    union_memo: HashMap<(u32, u32), u32>,
    /// Reused merge buffer of `union`.
    merged: Vec<u32>,
    /// Union operations requested (the CS meet count; memoized re-unions
    /// included, since the algorithm still performs the meet logically).
    unions: u64,
}

impl Assums {
    const EMPTY: SetId = SetId(0);

    fn new() -> Self {
        let mut a = Assums {
            infos: Vec::new(),
            ids: HashMap::default(),
            sets: Vec::new(),
            set_ids: HashMap::default(),
            union_memo: HashMap::default(),
            merged: Vec::new(),
            unions: 0,
        };
        a.intern_set(&[]);
        a
    }

    /// Interns a sorted, duplicate-free set; allocates only when new.
    fn intern_set(&mut self, elems: &[u32]) -> SetId {
        if let Some(&id) = self.set_ids.get(elems) {
            return SetId(id);
        }
        let id = self.sets.len() as u32;
        self.sets.push(elems.into());
        self.set_ids.insert(elems.into(), id);
        SetId(id)
    }

    fn assum(&mut self, formal: OutputId, pair: Pair) -> u32 {
        if let Some(&id) = self.ids.get(&(formal, pair)) {
            return id;
        }
        let id = self.infos.len() as u32;
        self.infos.push((formal, pair));
        self.ids.insert((formal, pair), id);
        id
    }

    fn info(&self, a: u32) -> (OutputId, Pair) {
        self.infos[a as usize]
    }

    fn singleton(&mut self, a: u32) -> SetId {
        self.intern_set(&[a])
    }

    fn elems(&self, s: SetId) -> &[u32] {
        &self.sets[s.0 as usize]
    }

    fn len(&self, s: SetId) -> usize {
        self.elems(s).len()
    }

    fn union(&mut self, a: SetId, b: SetId) -> SetId {
        self.unions += 1;
        if a == b || b == Self::EMPTY {
            return a;
        }
        if a == Self::EMPTY {
            return b;
        }
        let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if let Some(&u) = self.union_memo.get(&key) {
            return SetId(u);
        }
        // Subset fast paths: the merged set would re-intern to the
        // superset's id anyway, so skip the merge and memoize directly.
        if self.subset(a, b) {
            self.union_memo.insert(key, b.0);
            return b;
        }
        if self.subset(b, a) {
            self.union_memo.insert(key, a.0);
            return a;
        }
        let mut out = std::mem::take(&mut self.merged);
        out.clear();
        let (xa, xb) = (self.elems(a), self.elems(b));
        let (mut i, mut j) = (0, 0);
        while i < xa.len() && j < xb.len() {
            match xa[i].cmp(&xb[j]) {
                std::cmp::Ordering::Less => {
                    out.push(xa[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(xb[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(xa[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&xa[i..]);
        out.extend_from_slice(&xb[j..]);
        let u = self.intern_set(&out);
        self.merged = out;
        self.union_memo.insert(key, u.0);
        u
    }

    /// Whether `a ⊆ b`.
    fn subset(&self, a: SetId, b: SetId) -> bool {
        if a == b || a == Self::EMPTY {
            return true;
        }
        let (xa, xb) = (self.elems(a), self.elems(b));
        if xa.len() > xb.len() {
            return false;
        }
        let mut j = 0;
        for &x in xa {
            while j < xb.len() && xb[j] < x {
                j += 1;
            }
            if j >= xb.len() || xb[j] != x {
                return false;
            }
            j += 1;
        }
        true
    }
}

/// One output's antichain of assumption sets for one pair, in commit
/// order. Nearly every antichain holds a single set, so that case is
/// kept inline: committing a new pair allocates nothing.
#[derive(Debug, Clone, Default)]
enum Antichain {
    #[default]
    Empty,
    One(SetId),
    Many(Vec<SetId>),
}

impl Antichain {
    fn push(&mut self, s: SetId) {
        match self {
            Antichain::Empty => *self = Antichain::One(s),
            Antichain::One(a) => *self = Antichain::Many(vec![*a, s]),
            Antichain::Many(v) => v.push(s),
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(SetId) -> bool) {
        match self {
            Antichain::Empty => {}
            Antichain::One(a) => {
                if !keep(*a) {
                    *self = Antichain::Empty;
                }
            }
            Antichain::Many(v) => v.retain(|&s| keep(s)),
        }
    }
}

impl std::ops::Deref for Antichain {
    type Target = [SetId];
    fn deref(&self) -> &[SetId] {
        match self {
            Antichain::Empty => &[],
            Antichain::One(s) => std::slice::from_ref(s),
            Antichain::Many(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a Antichain {
    type Item = &'a SetId;
    type IntoIter = std::slice::Iter<'a, SetId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Pruning information derived from the CI result, per memory operation.
#[derive(Debug, Clone, Default)]
struct MemOpCi {
    /// CI referents at the operation's location input.
    loc_refs: Vec<PathId>,
    /// Exactly one location: no location assumptions needed.
    single: bool,
}

struct CsSolver<'g> {
    g: &'g Graph,
    cfg: CsConfig,
    paths: PathTable,
    alloc_owner: HashMap<vdg::graph::BaseId, VFuncId>,
    assums: Assums,
    /// Per output: pair -> antichain of assumption sets.
    p: Vec<HashMap<Pair, Antichain>>,
    wl: VecDeque<(InputId, Pair, SetId)>,
    callees: HashMap<NodeId, Vec<VFuncId>>,
    callers: HashMap<VFuncId, Vec<NodeId>>,
    /// Entry output -> formal index within its function's entry outputs.
    formal_pos: HashMap<OutputId, usize>,
    memop_ci: HashMap<NodeId, MemOpCi>,
    flow_ins: u64,
    flow_outs: u64,
    dedup_hits: u64,
    /// Work performed inside transfer functions (Cartesian-product
    /// combinations in `propagate_return`); counted against the step
    /// budget so a single pathological return cannot hang the solver.
    work: u64,
    max_set: usize,
    scratch: Scratch,
}

/// Buffers reused across deliveries, so no worklist delivery copies a
/// store or allocates a scratch `Vec`. Calls nest (`transfer` → Call →
/// `register_callee` or a return scan → `propagate_return_from` →
/// `emit_product`), and each level owns its own buffer: a user takes
/// it, fills it, and puts it back before returning.
#[derive(Default)]
struct Scratch {
    /// Emissions of the delivery in progress.
    em: Vec<(OutputId, Pair, SetId)>,
    /// Actual pairs forwarded to a newly registered callee.
    actuals: Vec<Pair>,
    /// Return pairs selected by a return scan: `(port, pair, set)`.
    returns: Vec<(usize, Pair, SetId)>,
    /// Cooper variants of the pair being forwarded or returned.
    variants: Vec<Pair>,
    /// The antichain satisfying each assumption of a returned set at
    /// the call: slot `k` is `options[option_start[k]..option_start[k + 1]]`.
    options: Vec<SetId>,
    option_start: Vec<usize>,
    /// The Cartesian-product odometer of `emit_product`.
    combo: Vec<usize>,
}

impl<'g> CsSolver<'g> {
    fn new(g: &'g Graph, ci: &CiResult, cfg: CsConfig) -> Self {
        let mut formal_pos = HashMap::default();
        for f in g.func_ids() {
            let entry = g.func(f).entry;
            for (i, &o) in g.node(entry).outputs.iter().enumerate() {
                formal_pos.insert(o, i);
            }
        }
        let mut memop_ci = HashMap::default();
        if cfg.ci_pruning {
            for (node, _) in g.all_mem_ops() {
                let refs = ci.loc_referents(g, node);
                memop_ci.insert(
                    node,
                    MemOpCi {
                        single: refs.len() == 1,
                        loc_refs: refs,
                    },
                );
            }
        }
        let alloc_owner = if cfg.heap_naming == crate::ci::HeapNaming::CallString1 {
            crate::ci::alloc_owner_map(g)
        } else {
            HashMap::default()
        };
        CsSolver {
            g,
            cfg,
            alloc_owner,
            // Clone the CI path table so PathIds stay comparable across
            // the two analyses (CS may intern additional paths).
            paths: ci.paths.clone(),
            assums: Assums::new(),
            p: vec![HashMap::default(); g.output_count()],
            wl: VecDeque::new(),
            callees: HashMap::default(),
            callers: HashMap::default(),
            formal_pos,
            memop_ci,
            flow_ins: 0,
            flow_outs: 0,
            dedup_hits: 0,
            work: 0,
            max_set: 0,
            scratch: Scratch::default(),
        }
    }

    fn seed(&mut self) {
        let mut seeds = Vec::new();
        for (id, n) in self.g.nodes() {
            let base = match n.kind {
                NodeKind::Base(b) | NodeKind::Alloc(b) | NodeKind::FuncConst(b) => b,
                _ => continue,
            };
            let root = self.paths.base_root(base);
            let out = self.g.node(id).outputs[0];
            seeds.push((out, Pair::new(PathTable::EMPTY, root)));
        }
        for (out, pair) in seeds {
            self.flow_out(out, pair, Assums::EMPTY);
        }
    }

    fn run(&mut self) -> Result<(), StepLimitExceeded> {
        while let Some((input, pair, set)) = self.wl.pop_front() {
            self.flow_ins += 1;
            if self.flow_ins + self.work > self.cfg.max_steps {
                return Err(StepLimitExceeded {
                    steps: self.cfg.max_steps,
                });
            }
            let info = self.g.input(input);
            self.deliver(info.node, info.port as usize, pair, set);
        }
        if self.flow_ins + self.work > self.cfg.max_steps {
            return Err(StepLimitExceeded {
                steps: self.cfg.max_steps,
            });
        }
        Ok(())
    }

    /// Applies the transfer function for one delivered qualified pair
    /// and flows the emissions out, in emission order.
    fn deliver(&mut self, node: NodeId, port: usize, pair: Pair, set: SetId) {
        let mut em = std::mem::take(&mut self.scratch.em);
        self.transfer(node, port, pair, set, &mut em);
        for &(out, p, s) in &em {
            self.flow_out(out, p, s);
        }
        em.clear();
        self.scratch.em = em;
    }

    fn finish(self) -> CsResult {
        let CsSolver {
            paths,
            assums,
            p,
            flow_ins,
            flow_outs,
            dedup_hits,
            max_set,
            ..
        } = self;
        let mut pairs = Vec::new();
        let mut pair_start = Vec::with_capacity(p.len() + 1);
        let mut chains = Vec::new();
        let mut chain_start = vec![0];
        pair_start.push(0);
        let mut sorted: Vec<(Pair, &[SetId])> = Vec::new();
        for m in &p {
            sorted.clear();
            sorted.extend(m.iter().map(|(&pair, chain)| (pair, &chain[..])));
            sorted.sort_unstable_by_key(|&(pair, _)| pair);
            for &(pair, chain) in &sorted {
                pairs.push(pair);
                chains.extend_from_slice(chain);
                chain_start.push(chains.len());
            }
            pair_start.push(pairs.len());
        }
        let mut arena = Vec::new();
        let mut set_start = Vec::with_capacity(assums.sets.len() + 1);
        set_start.push(0);
        for set in &assums.sets {
            arena.extend(set.iter().map(|&a| {
                let (formal, pair) = assums.info(a);
                Assumption { formal, pair }
            }));
            set_start.push(arena.len());
        }
        CsResult {
            paths,
            pairs,
            pair_start,
            chains,
            chain_start,
            arena,
            set_start,
            flow_ins,
            flow_outs,
            dedup_hits,
            meet_steps: assums.unions,
            distinct_assumption_sets: assums.sets.len(),
            max_assumption_set: max_set,
        }
    }

    fn flow_out(&mut self, out: OutputId, pair: Pair, set: SetId) {
        self.max_set = self.max_set.max(self.assums.len(set));
        let chain = self.p[out.0 as usize].entry(pair).or_default();
        if self.cfg.subsumption {
            // Discard if some held set is ⊆ the new one.
            if chain.iter().any(|&s| self.assums.subset(s, set)) {
                self.dedup_hits += 1;
                return;
            }
            // Drop held supersets to keep the antichain minimal.
            chain.retain(|s| !self.assums.subset(set, s));
        } else if chain.contains(&set) {
            self.dedup_hits += 1;
            return;
        }
        chain.push(set);
        self.flow_outs += 1;
        for &input in self.g.consumers(out) {
            self.wl.push_back((input, pair, set));
        }
    }

    /// k=1 heap naming at return boundaries; see `ci::Solver::rename_heap`.
    fn rename_heap(&mut self, pair: Pair, f: VFuncId, call: NodeId) -> Pair {
        if self.cfg.heap_naming != crate::ci::HeapNaming::CallString1 {
            return pair;
        }
        let fix = |paths: &mut PathTable,
                   alloc_owner: &HashMap<vdg::graph::BaseId, VFuncId>,
                   p: PathId|
         -> PathId {
            match paths.base_of(p) {
                Some(b) if !paths.is_synthetic(b) && alloc_owner.get(&b) == Some(&f) => {
                    let clone = paths.heap_clone(b, call.0);
                    paths.rebase(p, clone)
                }
                _ => p,
            }
        };
        Pair::new(
            fix(&mut self.paths, &self.alloc_owner, pair.path),
            fix(&mut self.paths, &self.alloc_owner, pair.referent),
        )
    }

    /// Writes `pair`'s Cooper variants at a `boundary_func` boundary into
    /// `out`, sorted; identical to the CI rule (see `ci.rs`).
    fn cooper_variants(&mut self, pair: Pair, boundary_func: VFuncId, out: &mut Vec<Pair>) {
        out.clear();
        out.push(pair);
        // Without an "older" companion on either side the rule adds
        // nothing (the common case).
        if self.paths.cooper_older_of(pair.path).is_none()
            && self.paths.cooper_older_of(pair.referent).is_none()
        {
            return;
        }
        for side in 0..2 {
            let n = out.len();
            for i in 0..n {
                let p = out[i];
                let path = if side == 0 { p.path } else { p.referent };
                let Some(older) = self.paths.cooper_older_of(path) else {
                    continue;
                };
                let Some(base) = self.paths.base_of(path) else {
                    continue;
                };
                let owner = match &self.g.base(base).kind {
                    vdg::graph::BaseKind::Local { func, .. } => *func,
                    _ => continue,
                };
                if !self.g.can_reach(boundary_func, owner) {
                    continue;
                }
                let rebased = self.paths.rebase(path, older);
                out.push(if side == 0 {
                    Pair::new(rebased, p.referent)
                } else {
                    Pair::new(p.path, rebased)
                });
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The transfer function: a qualified `(pair, set)` arrived on `port`
    /// of `node`; appends the qualified pairs to emit to `em`. Side
    /// inputs are read in place from the store, which no transfer
    /// mutates (emissions are committed by the caller afterwards).
    fn transfer(
        &mut self,
        node: NodeId,
        port: usize,
        pair: Pair,
        set: SetId,
        em: &mut Vec<(OutputId, Pair, SetId)>,
    ) {
        let g = self.g;
        let n = g.node(node);
        let store_at = |port: usize| &self.p[g.input_src(node, port).0 as usize];
        match &n.kind {
            NodeKind::Member(f) => {
                let r = self.paths.child(pair.referent, AccessOp::Field(*f));
                em.push((n.outputs[0], Pair::new(pair.path, r), set));
            }
            NodeKind::IndexElem => {
                let r = self.paths.child(pair.referent, AccessOp::Index);
                em.push((n.outputs[0], Pair::new(pair.path, r), set));
            }
            NodeKind::ExtractField(f) => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Field(*f)) {
                    em.push((n.outputs[0], Pair::new(p, pair.referent), set));
                }
            }
            NodeKind::ExtractElem => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Index) {
                    em.push((n.outputs[0], Pair::new(p, pair.referent), set));
                }
            }
            NodeKind::PassThrough => {
                if port == 0 {
                    em.push((n.outputs[0], pair, set));
                }
            }
            NodeKind::Gamma => em.push((n.outputs[0], pair, set)),
            NodeKind::Free => {
                // Store identity; pointer-input pairs (the checker-facing
                // kill-set) are not propagated.
                if port == 1 {
                    em.push((n.outputs[0], pair, set));
                }
            }
            NodeKind::Primop => {}
            NodeKind::Lookup { .. } => {
                let out = n.outputs[0];
                let single = self.memop_ci.get(&node).is_some_and(|m| m.single);
                match port {
                    0 => {
                        for (&sp, s_sets) in store_at(1) {
                            if !self.paths.dom(pair.referent, sp.path) {
                                continue;
                            }
                            let off = self.paths.subtract(sp.path, pair.referent);
                            let p = Pair::new(self.paths.append(pair.path, off), sp.referent);
                            for &ss in s_sets {
                                let u = if single {
                                    ss
                                } else {
                                    self.assums.union(set, ss)
                                };
                                em.push((out, p, u));
                            }
                        }
                    }
                    _ => {
                        for (&lp, l_sets) in store_at(0) {
                            if !self.paths.dom(lp.referent, pair.path) {
                                continue;
                            }
                            let off = self.paths.subtract(pair.path, lp.referent);
                            let p = Pair::new(self.paths.append(lp.path, off), pair.referent);
                            for &ls in l_sets {
                                let u = if single {
                                    set
                                } else {
                                    self.assums.union(ls, set)
                                };
                                em.push((out, p, u));
                            }
                        }
                    }
                }
            }
            NodeKind::Update { .. } => {
                let out = n.outputs[0];
                let mci = self.memop_ci.get(&node);
                let single = mci.is_some_and(|m| m.single);
                let strong = self.cfg.strong_updates;
                // A store pair passes without new assumptions when the CI
                // bound proves no modified location can overwrite it.
                let pruned_pass = |paths: &PathTable, ps: PathId| -> bool {
                    match mci {
                        Some(m) if !m.loc_refs.is_empty() => {
                            !m.loc_refs.iter().any(|&r| paths.strong_dom(r, ps))
                        }
                        _ => false,
                    }
                };
                let locs = store_at(0);
                match port {
                    0 => {
                        for (&vp, v_sets) in store_at(2) {
                            let p =
                                Pair::new(self.paths.append(pair.referent, vp.path), vp.referent);
                            for &vs in v_sets {
                                let u = if single {
                                    vs
                                } else {
                                    self.assums.union(set, vs)
                                };
                                em.push((out, p, u));
                            }
                        }
                        for (&sp, s_sets) in store_at(1) {
                            if strong && self.paths.strong_dom(pair.referent, sp.path) {
                                continue;
                            }
                            let keep = !strong || pruned_pass(&self.paths, sp.path);
                            for &ss in s_sets {
                                let u = if keep { ss } else { self.assums.union(set, ss) };
                                em.push((out, sp, u));
                            }
                        }
                    }
                    1 => {
                        // The pass-through still waits for a location
                        // pair to arrive (the node must be reachable).
                        // Weak updates and the pruned pass then need no
                        // location assumption, only that evidence.
                        // Emitting before any location pair exists would
                        // realize the imprecision the paper's footnote 8
                        // warns about.
                        if locs.is_empty() {
                            return;
                        }
                        if !strong || pruned_pass(&self.paths, pair.path) {
                            em.push((out, pair, set));
                            return;
                        }
                        for (&lp, l_sets) in locs {
                            if self.paths.strong_dom(lp.referent, pair.path) {
                                continue;
                            }
                            for &ls in l_sets {
                                let u = if single {
                                    set
                                } else {
                                    self.assums.union(ls, set)
                                };
                                em.push((out, pair, u));
                            }
                        }
                    }
                    _ => {
                        for (&lp, l_sets) in locs {
                            let p =
                                Pair::new(self.paths.append(lp.referent, pair.path), pair.referent);
                            for &ls in l_sets {
                                let u = if single {
                                    set
                                } else {
                                    self.assums.union(ls, set)
                                };
                                em.push((out, p, u));
                            }
                        }
                    }
                }
            }
            NodeKind::CopyMem => {
                // Conservative: pass-through plus re-rooting; all three
                // sets union (no pruning — copymem sites are rare).
                let out = n.outputs[0];
                match port {
                    0 => {
                        em.push((out, pair, set));
                        let (dsts, srcs) = (store_at(1), store_at(2));
                        for (&srcp, src_sets) in srcs {
                            if !self.paths.dom(srcp.referent, pair.path) {
                                continue;
                            }
                            let off = self.paths.subtract(pair.path, srcp.referent);
                            for (&dp, d_sets) in dsts {
                                let p =
                                    Pair::new(self.paths.append(dp.referent, off), pair.referent);
                                for &ss in src_sets {
                                    for &ds in d_sets {
                                        let u1 = self.assums.union(set, ss);
                                        let u = self.assums.union(u1, ds);
                                        em.push((out, p, u));
                                    }
                                }
                            }
                        }
                    }
                    1 | 2 => {
                        let stores = store_at(0);
                        let own = std::slice::from_ref(&set);
                        for (&op, o_sets) in store_at(if port == 1 { 2 } else { 1 }) {
                            let (dstp, dsets, srcp, ssets) = if port == 1 {
                                (pair, own, op, &o_sets[..])
                            } else {
                                (op, &o_sets[..], pair, own)
                            };
                            for (&sp, st_sets) in stores {
                                if !self.paths.dom(srcp.referent, sp.path) {
                                    continue;
                                }
                                let off = self.paths.subtract(sp.path, srcp.referent);
                                let p =
                                    Pair::new(self.paths.append(dstp.referent, off), sp.referent);
                                for &ds in dsets {
                                    for &ss in ssets {
                                        for &sts in st_sets {
                                            let u1 = self.assums.union(ds, ss);
                                            let u = self.assums.union(u1, sts);
                                            em.push((out, p, u));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    _ => unreachable!(),
                }
            }
            NodeKind::Call => {
                if port == 0 {
                    if let Some(f) = self.paths.func_of(pair.referent) {
                        self.register_callee(node, f, em);
                    }
                } else {
                    let n_callees = self.callees.get(&node).map_or(0, |v| v.len());
                    for i in 0..n_callees {
                        let f = self.callees[&node][i];
                        self.forward_to_formal(port, pair, f, em);
                        // New actual information may satisfy assumptions on
                        // pairs already waiting at the callee's returns —
                        // but only assumptions on this pair at this
                        // formal, and only through product combinations
                        // that use the newly committed set.
                        self.repropagate_new_actual(node, port, pair, set, f, em);
                    }
                }
            }
            NodeKind::Return { func } => {
                let n_callers = self.callers.get(func).map_or(0, |v| v.len());
                for i in 0..n_callers {
                    let call = self.callers[func][i];
                    self.propagate_return_from(call, port, pair, set, *func, None, em);
                }
            }
            NodeKind::Base(_)
            | NodeKind::Alloc(_)
            | NodeKind::FuncConst(_)
            | NodeKind::InitStore
            | NodeKind::ScalarConst
            | NodeKind::NullConst
            | NodeKind::Entry { .. } => {}
        }
    }

    fn register_callee(&mut self, call: NodeId, f: VFuncId, em: &mut Vec<(OutputId, Pair, SetId)>) {
        let list = self.callees.entry(call).or_default();
        if list.contains(&f) {
            return;
        }
        list.push(f);
        self.callers.entry(f).or_default().push(call);
        let g = self.g;
        let mut actuals = std::mem::take(&mut self.scratch.actuals);
        for port in 1..g.node(call).inputs.len() {
            actuals.clear();
            actuals.extend(self.p[g.input_src(call, port).0 as usize].keys().copied());
            for &pair in &actuals {
                self.forward_to_formal(port, pair, f, em);
            }
        }
        self.scratch.actuals = actuals;
        // Re-resolve every qualified pair waiting at `f`'s returns
        // against the new call site.
        self.return_scan(call, f, None, em);
    }

    /// Actual pairs gain the single assumption that they held on entry
    /// (paper: "the propagated pair is given the assumption set {(f, p)}").
    fn forward_to_formal(
        &mut self,
        port: usize,
        pair: Pair,
        f: VFuncId,
        em: &mut Vec<(OutputId, Pair, SetId)>,
    ) {
        let entry = self.g.func(f).entry;
        let Some(&formal) = self.g.node(entry).outputs.get(port - 1) else {
            return;
        };
        let mut variants = std::mem::take(&mut self.scratch.variants);
        self.cooper_variants(pair, f, &mut variants);
        for &v in &variants {
            let a = self.assums.assum(formal, v);
            let s = self.assums.singleton(a);
            em.push((formal, v, s));
        }
        self.scratch.variants = variants;
    }

    /// Difference-propagation form of the return scan in
    /// [`register_callee`]: a new actual `(apair, aset)` delivered on
    /// `aport` can only change the resolution of assumptions
    /// `(formal-of-aport, apair)`, and the only combinations not already
    /// emitted by earlier deliveries are those that use `aset` in such a
    /// slot. Return pairs whose assumption sets don't mention the
    /// assumption are skipped without touching the product at all.
    ///
    /// [`register_callee`]: CsSolver::register_callee
    fn repropagate_new_actual(
        &mut self,
        call: NodeId,
        aport: usize,
        apair: Pair,
        aset: SetId,
        f: VFuncId,
        em: &mut Vec<(OutputId, Pair, SetId)>,
    ) {
        let entry = self.g.func(f).entry;
        let Some(&formal) = self.g.node(entry).outputs.get(aport - 1) else {
            return;
        };
        // If the assumption was never interned, no waiting pair can
        // mention it.
        let Some(&aid) = self.assums.ids.get(&(formal, apair)) else {
            return;
        };
        self.return_scan(call, f, Some((aid, aset)), em);
    }

    /// Walks the stores at `f`'s return inputs in place, selects the
    /// qualified pairs to resolve at `call` (with `new_at = Some((a, _))`
    /// only the sets mentioning assumption `a`), then resolves them in
    /// the order the walk met them. `propagate_return_from` never writes
    /// the stores, so selecting first is order-exact.
    fn return_scan(
        &mut self,
        call: NodeId,
        f: VFuncId,
        new_at: Option<(u32, SetId)>,
        em: &mut Vec<(OutputId, Pair, SetId)>,
    ) {
        let g = self.g;
        let mut selected = std::mem::take(&mut self.scratch.returns);
        selected.clear();
        for &ret in &g.func(f).returns {
            for port in 0..g.node(ret).inputs.len() {
                for (&pair, sets) in &self.p[g.input_src(ret, port).0 as usize] {
                    for &set in sets {
                        let keep = match new_at {
                            Some((aid, _)) => self.assums.elems(set).binary_search(&aid).is_ok(),
                            None => true,
                        };
                        if keep {
                            selected.push((port, pair, set));
                        }
                    }
                }
            }
        }
        for &(port, pair, set) in &selected {
            self.propagate_return_from(call, port, pair, set, f, new_at, em);
        }
        self.scratch.returns = selected;
    }

    /// Resolves the assumptions on a returned qualified pair against the
    /// pairs holding at one call site (paper Fig. 5, `propagate-return`):
    /// the Cartesian product of the satisfying assumption sets yields the
    /// caller-side qualifications.
    ///
    /// With `new_at = Some((a, s))`, only the slice of the product that
    /// uses the newly committed set `s` to satisfy assumption `a` is
    /// emitted — the difference-propagation path taken when a fresh
    /// actual arrives at the call (see [`repropagate_new_actual`]).
    ///
    /// [`repropagate_new_actual`]: CsSolver::repropagate_new_actual
    #[allow(clippy::too_many_arguments)] // mirrors the paper's propagate-return signature
    fn propagate_return_from(
        &mut self,
        call: NodeId,
        ret_port: usize,
        pair: Pair,
        set: SetId,
        f: VFuncId,
        new_at: Option<(u32, SetId)>,
        em: &mut Vec<(OutputId, Pair, SetId)>,
    ) {
        let g = self.g;
        let Some(&out) = g.node(call).outputs.get(ret_port) else {
            return;
        };
        let pair = self.rename_heap(pair, f, call);
        // Collect, per assumption, the antichain under which the assumed
        // pair holds at the corresponding actual of this call. Set
        // elements are sorted and distinct, so at most one slot holds
        // `new_at`'s assumption.
        let mut options = std::mem::take(&mut self.scratch.options);
        let mut start = std::mem::take(&mut self.scratch.option_start);
        options.clear();
        start.clear();
        start.push(0);
        let mut pinned = None;
        let mut satisfied = true;
        for (k, &a) in self.assums.elems(set).iter().enumerate() {
            let (formal, fpair) = self.assums.info(a);
            let port = match self.formal_pos.get(&formal) {
                Some(&idx) if g.has_input(call, idx + 1) => idx + 1,
                _ => {
                    satisfied = false;
                    break;
                }
            };
            let Some(sets) = self.p[g.input_src(call, port).0 as usize].get(&fpair) else {
                satisfied = false; // assumption not satisfied (yet) at this site
                break;
            };
            if let Some((aid, aset)) = new_at {
                if aid == a {
                    pinned = Some((k, aset));
                }
            }
            options.extend_from_slice(sets);
            start.push(options.len());
        }
        if satisfied {
            debug_assert!(
                new_at.is_none() || pinned.is_some(),
                "the return scan selects only sets that hold the new assumption"
            );
            let mut variants = std::mem::take(&mut self.scratch.variants);
            self.cooper_variants(pair, f, &mut variants);
            self.emit_product(out, &variants, &options, &start, pinned, em);
            self.scratch.variants = variants;
        }
        self.scratch.options = options;
        self.scratch.option_start = start;
    }

    /// Walks the Cartesian product of the option slots (slot `k` is
    /// `options[start[k]..start[k + 1]]`, and `fixed` pins one slot to a
    /// single set), unioning each combination and emitting it for every
    /// cooper variant. Each combination counts against the step budget;
    /// the walk stops once it is exhausted, and the run loop errors out.
    fn emit_product(
        &mut self,
        out: OutputId,
        variants: &[Pair],
        options: &[SetId],
        start: &[usize],
        fixed: Option<(usize, SetId)>,
        em: &mut Vec<(OutputId, Pair, SetId)>,
    ) {
        let slots = start.len() - 1;
        let mut combo = std::mem::take(&mut self.scratch.combo);
        combo.clear();
        combo.resize(slots, 0);
        'product: loop {
            self.work += 1;
            if self.flow_ins + self.work > self.cfg.max_steps {
                break;
            }
            let mut u = Assums::EMPTY;
            for (k, &c) in combo.iter().enumerate() {
                let s = match fixed {
                    Some((slot, fs)) if slot == k => fs,
                    _ => options[start[k] + c],
                };
                u = self.assums.union(u, s);
            }
            for &v in variants {
                em.push((out, v, u));
            }
            // Advance the odometer (the pinned slot has length 1).
            let mut k = 0;
            loop {
                if k == slots {
                    break 'product;
                }
                let len = match fixed {
                    Some((slot, _)) if slot == k => 1,
                    _ => start[k + 1] - start[k],
                };
                combo[k] += 1;
                if combo[k] < len {
                    break;
                }
                combo[k] = 0;
                k += 1;
            }
        }
        self.scratch.combo = combo;
    }
}

/// Checks that the stripped CS solution is contained in the CI solution
/// on every output (a structural soundness property both solvers must
/// satisfy, since CS only filters unrealizable propagations).
pub fn cs_subset_of_ci(graph: &Graph, ci: &CiResult, cs: &CsResult) -> bool {
    for o in graph.output_ids() {
        let ci_set: HashSet<Pair> = ci.pairs(o).iter().copied().collect();
        for p in cs.pairs(o) {
            if !ci_set.contains(p) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{analyze_ci, CiConfig};
    use vdg::build::{lower, BuildOptions};

    fn analyze(src: &str) -> (Graph, CiResult, CsResult) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        let cs = analyze_cs(&g, &ci, &CsConfig::default()).expect("within budget");
        (g, ci, cs)
    }

    fn names(r_paths: &PathTable, g: &Graph, refs: &[PathId]) -> Vec<String> {
        let mut v: Vec<String> = refs.iter().map(|&p| r_paths.display(p, g)).collect();
        v.sort();
        v
    }

    #[test]
    fn cs_equals_ci_on_straightline_code() {
        let (g, ci, cs) = analyze("int g; int main(void) { int *p; p = &g; return *p; }");
        assert!(cs_subset_of_ci(&g, &ci, &cs));
        assert_eq!(ci.total_pairs(), cs.total_pairs());
    }

    #[test]
    fn cs_separates_calling_contexts() {
        // The classic case where context-sensitivity wins: `id` is called
        // with &a and &b; CI merges, CS keeps them apart.
        let (g, ci, cs) = analyze(
            "int a; int b;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *x; int *y; x = id(&a); y = id(&b); \
             return *x + *y; }",
        );
        assert!(cs_subset_of_ci(&g, &ci, &cs));
        let ops = g.indirect_mem_ops();
        assert_eq!(ops.len(), 2);
        let (rx, _) = ops[0];
        let ci_refs = names(&ci.paths, &g, &ci.loc_referents(&g, rx));
        let cs_refs = names(&cs.paths, &g, &cs.loc_referents(&g, rx));
        assert_eq!(ci_refs, vec!["a", "b"]);
        assert_eq!(cs_refs, vec!["a"]);
        assert!(cs.total_pairs() < ci.total_pairs());
    }

    #[test]
    fn cs_separates_out_parameter_stores() {
        // Spurious CI pairs land on store outputs (other callers' locals)
        // but never reach dereferences — the paper's §5.2 case 1.
        let (g, ci, cs) = analyze(
            "int buf;\n\
             void put(int **slot) { *slot = &buf; }\n\
             int use_a(void) { int *a; put(&a); return *a; }\n\
             int use_b(void) { int *b; put(&b); return *b; }\n\
             int main(void) { return use_a() + use_b(); }",
        );
        assert!(cs_subset_of_ci(&g, &ci, &cs));
        // CS strips some store pairs (b -> buf inside use_a, etc.).
        assert!(
            cs.total_pairs() < ci.total_pairs(),
            "cs {} !< ci {}",
            cs.total_pairs(),
            ci.total_pairs()
        );
        // But at every indirect memory reference the solutions agree —
        // the paper's headline result.
        for (node, _) in g.indirect_mem_ops() {
            let a = names(&ci.paths, &g, &ci.loc_referents(&g, node));
            let b = names(&cs.paths, &g, &cs.loc_referents(&g, node));
            assert_eq!(a, b, "indirect op differs");
        }
    }

    #[test]
    fn cs_chains_assumptions_through_nested_calls() {
        let (g, ci, cs) = analyze(
            "int a; int b;\n\
             int *inner(int *p) { return p; }\n\
             int *outer(int *q) { return inner(q); }\n\
             int main(void) { int *x; int *y; x = outer(&a); y = outer(&b); \
             return *x + *y; }",
        );
        assert!(cs_subset_of_ci(&g, &ci, &cs));
        let ops = g.indirect_mem_ops();
        let (rx, _) = ops[0];
        let cs_refs = names(&cs.paths, &g, &cs.loc_referents(&g, rx));
        assert_eq!(cs_refs, vec!["a"]);
    }

    #[test]
    fn subsumption_does_not_change_results() {
        let src = "int a; int b;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *x; int *y; x = id(&a); y = id(&b); \
             return *x + *y; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let ci = analyze_ci(&g, &CiConfig::default());
        let with = analyze_cs(&g, &ci, &CsConfig::default()).unwrap();
        let without = analyze_cs(
            &g,
            &ci,
            &CsConfig {
                subsumption: false,
                max_steps: 5_000_000,
                ..CsConfig::default()
            },
        )
        .unwrap();
        for o in g.output_ids() {
            assert_eq!(with.pairs(o), without.pairs(o), "output {o}");
        }
    }

    #[test]
    fn ci_pruning_does_not_change_results() {
        let src = "int buf;\n\
             void put(int **slot) { *slot = &buf; }\n\
             int use_a(void) { int *a; put(&a); return *a; }\n\
             int use_b(void) { int *b; put(&b); return *b; }\n\
             int main(void) { return use_a() + use_b(); }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let ci = analyze_ci(&g, &CiConfig::default());
        let with = analyze_cs(&g, &ci, &CsConfig::default()).unwrap();
        let without = analyze_cs(
            &g,
            &ci,
            &CsConfig {
                ci_pruning: false,
                max_steps: 20_000_000,
                ..CsConfig::default()
            },
        )
        .unwrap();
        for o in g.output_ids() {
            assert_eq!(with.pairs(o), without.pairs(o), "output {o}");
        }
    }

    #[test]
    fn step_limit_reported() {
        let src = "int a; int *id(int *p) { return p; } \
                   int main(void) { int *x; x = id(&a); return *x; }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let ci = analyze_ci(&g, &CiConfig::default());
        let err = analyze_cs(
            &g,
            &ci,
            &CsConfig {
                max_steps: 3,
                ..CsConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.steps, 3);
    }

    #[test]
    fn function_pointer_results_match_ci() {
        // Function values stay context-insensitive (paper §4.1 end).
        let (g, ci, cs) = analyze(
            "int a; int b;\n\
             int *fa(void) { return &a; }\n\
             int *fb(void) { return &b; }\n\
             int main(void) { int *(*fp)(void); int c; c = getchar();\n\
               if (c) { fp = fa; } else { fp = fb; }\n\
               return *(fp()); }",
        );
        assert!(cs_subset_of_ci(&g, &ci, &cs));
        for (node, _) in g.indirect_mem_ops() {
            assert_eq!(
                names(&ci.paths, &g, &ci.loc_referents(&g, node)),
                names(&cs.paths, &g, &cs.loc_referents(&g, node))
            );
        }
    }

    #[test]
    fn recursion_terminates_and_is_sound() {
        let (g, ci, cs) = analyze(
            "struct node { int v; struct node *next; };\n\
             int sum(struct node *l) { if (l == NULL) return 0; \
             return l->v + sum(l->next); }\n\
             int main(void) {\n\
               struct node *h; struct node *n; int i; h = NULL;\n\
               for (i = 0; i < 3; i++) {\n\
                 n = (struct node*)malloc(sizeof(struct node));\n\
                 n->v = i; n->next = h; h = n;\n\
               }\n\
               return sum(h);\n\
             }",
        );
        assert!(cs_subset_of_ci(&g, &ci, &cs));
    }

    #[test]
    fn strong_updates_respected_in_cs() {
        let (g, ci, cs) = analyze(
            "int a; int b; int *p;\n\
             int main(void) { int **q; q = &p; p = &a; *q = &b; return *p; }",
        );
        assert!(cs_subset_of_ci(&g, &ci, &cs));
        let read = g
            .indirect_mem_ops()
            .into_iter()
            .find(|&(_n, w)| !w)
            .map(|(n, _)| n)
            .unwrap();
        assert_eq!(names(&cs.paths, &g, &cs.loc_referents(&g, read)), vec!["b"]);
    }

    #[test]
    fn qualified_pairs_exposed() {
        // Inside `id`, the formal's pair holds under the assumption that
        // it held on entry (paper: "p points to c on this output if ...").
        let (g, _, cs) = analyze(
            "int a;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *x; x = id(&a); return *x; }",
        );
        let id_entry = g.func(vdg::graph::VFuncId(0)).entry;
        let formal = g.node(id_entry).outputs[1]; // [store, p]
        let q: Vec<_> = cs.qualified_pairs(formal).collect();
        assert_eq!(q.len(), 1);
        let (pair, sets) = q[0];
        assert_eq!(sets.len(), 1);
        let set = cs.assumption_set(sets[0]);
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].formal, formal);
        assert_eq!(set[0].pair, pair);
        let txt = cs.display_qualified(&g, pair, sets);
        assert!(txt.contains("if"), "{txt}");
        assert!(txt.contains("a"), "{txt}");
        // Unconditional pairs render without assumptions.
        let (base_pair, base_sets) = g
            .nodes()
            .find_map(|(_, n)| match n.kind {
                vdg::graph::NodeKind::Base(_) => Some(n.outputs[0]),
                _ => None,
            })
            .and_then(|o| cs.qualified_pairs(o).next())
            .unwrap();
        let txt = cs.display_qualified(&g, base_pair, base_sets);
        assert!(!txt.contains("if"), "{txt}");
    }

    #[test]
    fn assumption_stats_populated() {
        let (_, _, cs) = analyze(
            "int a; int b;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *x; x = id(&a); return *x; }",
        );
        assert!(cs.distinct_assumption_sets >= 2);
        assert!(cs.max_assumption_set >= 1);
        assert!(cs.flow_ins > 0 && cs.flow_outs > 0);
    }
}
