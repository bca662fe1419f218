//! The Weihl-style *program-wide* flow-insensitive baseline.
//!
//! The paper's introduction recalls that early pointer analyses
//! (\[Wei80\], \[Cou86\]) computed "a single, global mapping between
//! pointers and their potential referents", and that later work found
//! those approximations overly large. This module implements that
//! baseline over the VDG so the claim is measurable: one store set for
//! the whole program — every `update` feeds it, every `lookup` reads it,
//! and program-point distinctions vanish.
//!
//! Against this baseline the published context-sensitive comparisons
//! were made before Ruf's paper; reproducing it closes the loop on the
//! paper's "how much of the precision is program-point-specificity?"
//! question.
//!
//! It runs on the worklist driver shared with CI and k=1
//! (`worklist.rs`); its slots are the value outputs and the one store.

use crate::ci::WorklistOrder;
use crate::fxhash::{HashMap, HashSet};
use crate::pairset::{PairSet, Propagation};
use crate::path::{AccessOp, Pair, PathId, PathTable};
use crate::worklist::{self, Slots, Worklist};
use vdg::graph::{Graph, InputId, NodeId, NodeKind, OutputId, VFuncId};

/// Result of the program-wide analysis.
#[derive(Debug, Clone)]
pub struct WeihlResult {
    /// The interned path universe.
    pub paths: PathTable,
    /// Per-output value pairs (for non-store outputs).
    values: Vec<Vec<Pair>>,
    /// The single global store relation.
    store: Vec<Pair>,
    /// Outputs of store kind (their pairs live in `store`).
    store_outputs: std::collections::HashSet<u32>,
    /// Transfer-function applications.
    pub flow_ins: u64,
    /// Successful meets (emissions that grew a set); redundant attempts
    /// are counted in [`WeihlResult::dedup_hits`].
    pub flow_outs: u64,
    /// Emission attempts deduplicated by the committed sets.
    pub dedup_hits: u64,
    /// Batched delta deliveries (`None` under [`Propagation::Naive`]).
    pub delta_batches: Option<u64>,
}

impl WeihlResult {
    /// Value pairs on a (non-store) output.
    pub fn value_pairs(&self, o: OutputId) -> &[Pair] {
        &self.values[o.0 as usize]
    }

    /// The global store relation.
    pub fn store_pairs(&self) -> &[Pair] {
        &self.store
    }

    /// The pairs on an output, sorted: a value output's own, and for
    /// every store output the one program-wide store relation.
    pub fn pairs(&self, o: OutputId) -> &[Pair] {
        if self.store_outputs.contains(&o.0) {
            &self.store
        } else {
            self.value_pairs(o)
        }
    }

    /// Distinct referents at a memory operation's location input —
    /// comparable with [`crate::ci::CiResult::loc_referents`].
    pub fn loc_referents(&self, graph: &Graph, node: NodeId) -> Vec<PathId> {
        let loc_out = graph.input_src(node, 0);
        let mut refs: Vec<PathId> = self
            .value_pairs(loc_out)
            .iter()
            .map(|p| p.referent)
            .collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }

    /// Total pairs: global store plus all value sets (for table output).
    pub fn total_pairs(&self) -> usize {
        self.store.len() + self.values.iter().map(|v| v.len()).sum::<usize>()
    }
}

/// Runs the program-wide analysis: flow-insensitive in the store, so no
/// strong updates are possible, and every store-typed output denotes the
/// same relation.
pub fn analyze_weihl(graph: &Graph) -> WeihlResult {
    analyze_weihl_from(graph, PathTable::for_graph(graph))
}

/// Like [`analyze_weihl_from`], with an explicit propagation discipline.
pub fn analyze_weihl_with(
    graph: &Graph,
    paths: PathTable,
    propagation: Propagation,
) -> WeihlResult {
    // Every lookup and copymem in the program may observe a store pair:
    // their store inputs consume the store slot, in node order.
    let store_consumers: Vec<InputId> = graph
        .nodes()
        .filter_map(|(_, n)| match n.kind {
            NodeKind::Lookup { .. } => Some(n.inputs[1]),
            NodeKind::CopyMem => Some(n.inputs[0]),
            _ => None,
        })
        .collect();
    let mut s = Weihl {
        g: graph,
        paths,
        wl: Worklist::new(propagation, WorklistOrder::Fifo),
        values: vec![PairSet::new(); graph.output_count()],
        store: PairSet::new(),
        store_consumers: &store_consumers,
        callees: HashMap::default(),
        callers: HashMap::default(),
    };
    s.seed();
    worklist::run(&mut s);
    s.finish()
}

/// Like [`analyze_weihl`], but starting from an existing path table so
/// that the resulting [`Pair`]s are id-comparable with another solver's
/// (e.g. pass a clone of [`crate::ci::CiResult::paths`]).
pub fn analyze_weihl_from(graph: &Graph, paths: PathTable) -> WeihlResult {
    analyze_weihl_with(graph, paths, Propagation::default())
}

/// A slot of the program-wide analysis: a value output's set, or the
/// one global store.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Value(OutputId),
    Store,
}

/// The slot an emission to `out` commits to: store-typed outputs all
/// denote the global store.
fn slot_of(g: &Graph, out: OutputId) -> Slot {
    if matches!(g.output(out).kind, vdg::graph::ValueKind::Store) {
        Slot::Store
    } else {
        Slot::Value(out)
    }
}

struct Weihl<'g> {
    g: &'g Graph,
    paths: PathTable,
    wl: Worklist<Slot>,
    values: Vec<PairSet>,
    store: PairSet,
    /// Inputs that react to new global-store pairs.
    store_consumers: &'g [InputId],
    callees: HashMap<NodeId, Vec<VFuncId>>,
    callers: HashMap<VFuncId, Vec<NodeId>>,
}

impl<'g> Slots<'g> for Weihl<'g> {
    type Key = Slot;

    fn worklist(&mut self) -> &mut Worklist<Slot> {
        &mut self.wl
    }

    fn slot(&mut self, key: Slot) -> Option<(&mut PairSet, &mut Worklist<Slot>)> {
        let set = match key {
            Slot::Value(o) => &mut self.values[o.0 as usize],
            Slot::Store => &mut self.store,
        };
        Some((set, &mut self.wl))
    }

    fn graph(&self) -> &'g Graph {
        self.g
    }

    fn consumers(&self, key: Slot) -> &'g [InputId] {
        match key {
            Slot::Value(o) => self.g.consumers(o),
            Slot::Store => self.store_consumers,
        }
    }

    fn transfer(
        &mut self,
        node: NodeId,
        port: usize,
        key: Slot,
        pair: Pair,
        em: &mut Vec<(Slot, Pair)>,
    ) {
        match key {
            Slot::Value(_) => self.transfer_value(node, port, pair, em),
            Slot::Store => self.transfer_store(node, pair, em),
        }
    }
}

impl<'g> Weihl<'g> {
    fn seed(&mut self) {
        let mut seeds = Vec::new();
        for (id, n) in self.g.nodes() {
            let base = match n.kind {
                NodeKind::Base(b) | NodeKind::Alloc(b) | NodeKind::FuncConst(b) => b,
                _ => continue,
            };
            let root = self.paths.base_root(base);
            seeds.push((
                self.g.node(id).outputs[0],
                Pair::new(PathTable::EMPTY, root),
            ));
        }
        for (o, p) in seeds {
            worklist::commit(self, slot_of(self.g, o), p);
        }
    }

    fn values_at(&self, node: NodeId, port: usize) -> Vec<Pair> {
        let src = self.g.input_src(node, port);
        self.values[src.0 as usize]
            .iter()
            .map(|id| self.wl.interner.resolve(id))
            .collect()
    }

    fn store_snapshot(&self) -> Vec<Pair> {
        self.store
            .iter()
            .map(|id| self.wl.interner.resolve(id))
            .collect()
    }

    fn transfer_value(
        &mut self,
        node: NodeId,
        port: usize,
        pair: Pair,
        em: &mut Vec<(Slot, Pair)>,
    ) {
        let g = self.g;
        let n = g.node(node);
        let out = |i: usize| slot_of(g, n.outputs[i]);
        match &n.kind {
            NodeKind::Member(f) => {
                let r = self.paths.child(pair.referent, AccessOp::Field(*f));
                em.push((out(0), Pair::new(pair.path, r)));
            }
            NodeKind::IndexElem => {
                let r = self.paths.child(pair.referent, AccessOp::Index);
                em.push((out(0), Pair::new(pair.path, r)));
            }
            NodeKind::ExtractField(f) => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Field(*f)) {
                    em.push((out(0), Pair::new(p, pair.referent)));
                }
            }
            NodeKind::ExtractElem => {
                if let Some(p) = self.paths.strip_first(pair.path, AccessOp::Index) {
                    em.push((out(0), Pair::new(p, pair.referent)));
                }
            }
            NodeKind::PassThrough if port == 0 => {
                em.push((out(0), pair));
            }
            NodeKind::Gamma => em.push((out(0), pair)),
            NodeKind::Lookup { .. } if port == 0 => {
                // New location: read the global store.
                let store = self.store_snapshot();
                for sp in store {
                    if self.paths.dom(pair.referent, sp.path) {
                        let off = self.paths.subtract(sp.path, pair.referent);
                        let p = self.paths.append(pair.path, off);
                        em.push((out(0), Pair::new(p, sp.referent)));
                    }
                }
            }
            // Store arrivals are handled by `transfer_store`.
            NodeKind::Update { .. } => match port {
                0 => {
                    for vp in self.values_at(node, 2) {
                        let path = self.paths.append(pair.referent, vp.path);
                        em.push((Slot::Store, Pair::new(path, vp.referent)));
                    }
                }
                2 => {
                    for lp in self.values_at(node, 0) {
                        let path = self.paths.append(lp.referent, pair.path);
                        em.push((Slot::Store, Pair::new(path, pair.referent)));
                    }
                }
                _ => {}
            },
            NodeKind::CopyMem if (port == 1 || port == 2) => {
                let dsts = self.values_at(node, 1);
                let srcs = self.values_at(node, 2);
                let store = self.store_snapshot();
                for sp in store {
                    for s in &srcs {
                        if self.paths.dom(s.referent, sp.path) {
                            let off = self.paths.subtract(sp.path, s.referent);
                            for d in &dsts {
                                let path = self.paths.append(d.referent, off);
                                em.push((Slot::Store, Pair::new(path, sp.referent)));
                            }
                        }
                    }
                }
            }
            NodeKind::Call => {
                if port == 0 {
                    if let Some(f) = self.paths.func_of(pair.referent) {
                        self.register_callee(node, f, em);
                    }
                } else if port >= 2 {
                    if let Some(callees) = self.callees.get(&node) {
                        for &f in callees {
                            forward_to_formal(g, port, pair, f, em);
                        }
                    }
                }
            }
            NodeKind::Return { func } if port == 1 => {
                if let Some(callers) = self.callers.get(func) {
                    for &call in callers {
                        let outs = &g.node(call).outputs;
                        if outs.len() > 1 {
                            em.push((slot_of(g, outs[1]), pair));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// A new pair entered the global store: rerun the store side of the
    /// lookup/copymem `node`.
    fn transfer_store(&mut self, node: NodeId, pair: Pair, em: &mut Vec<(Slot, Pair)>) {
        let n = self.g.node(node);
        match &n.kind {
            NodeKind::Lookup { .. } => {
                for lp in self.values_at(node, 0) {
                    if self.paths.dom(lp.referent, pair.path) {
                        let off = self.paths.subtract(pair.path, lp.referent);
                        let p = self.paths.append(lp.path, off);
                        em.push((slot_of(self.g, n.outputs[0]), Pair::new(p, pair.referent)));
                    }
                }
            }
            NodeKind::CopyMem => {
                let dsts = self.values_at(node, 1);
                for s in self.values_at(node, 2) {
                    if self.paths.dom(s.referent, pair.path) {
                        let off = self.paths.subtract(pair.path, s.referent);
                        for d in &dsts {
                            let path = self.paths.append(d.referent, off);
                            em.push((Slot::Store, Pair::new(path, pair.referent)));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn register_callee(&mut self, call: NodeId, f: VFuncId, em: &mut Vec<(Slot, Pair)>) {
        let list = self.callees.entry(call).or_default();
        if list.contains(&f) {
            return;
        }
        list.push(f);
        self.callers.entry(f).or_default().push(call);
        let g = self.g;
        let n_inputs = g.node(call).inputs.len();
        for port in 2..n_inputs {
            for pair in self.values_at(call, port) {
                forward_to_formal(g, port, pair, f, em);
            }
        }
        for &ret in &g.func(f).returns {
            if g.has_input(ret, 1) {
                for pair in self.values_at(ret, 1) {
                    let outs = &g.node(call).outputs;
                    if outs.len() > 1 {
                        em.push((slot_of(g, outs[1]), pair));
                    }
                }
            }
        }
    }

    fn finish(self) -> WeihlResult {
        let store_outputs = self
            .g
            .output_ids()
            .filter(|o| matches!(self.g.output(*o).kind, vdg::graph::ValueKind::Store))
            .map(|o| o.0)
            .collect();
        let it = &self.wl.interner;
        let c = self.wl.counters;
        let values = self
            .values
            .iter()
            .map(|s| {
                let mut v: Vec<Pair> = s.iter().map(|id| it.resolve(id)).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut store: Vec<Pair> = self.store.iter().map(|id| it.resolve(id)).collect();
        store.sort_unstable();
        WeihlResult {
            paths: self.paths,
            values,
            store,
            store_outputs,
            // One flow-in per (pair, consumer) delivery, plus one per
            // store pair for its pop from the store slot: `paper cost`
            // and `schedule.tsv` count Weihl's work that way.
            flow_ins: c.flow_ins + self.store.len() as u64,
            flow_outs: c.flow_outs,
            dedup_hits: c.dedup_hits,
            delta_batches: self.wl.delta_batches(),
        }
    }
}

/// Pairs arriving at a call's actual-argument port flow to the matching
/// formal of callee `f`.
fn forward_to_formal(g: &Graph, port: usize, pair: Pair, f: VFuncId, em: &mut Vec<(Slot, Pair)>) {
    let entry = g.func(f).entry;
    let formals = &g.node(entry).outputs;
    let idx = port - 1;
    if idx < formals.len() {
        em.push((slot_of(g, formals[idx]), pair));
    }
}

/// Checks per-output containment: the program-point-specific CI solution
/// must be within the program-wide one (on value outputs; the global
/// store must contain every CI store pair).
pub fn ci_subset_of_weihl(graph: &Graph, ci: &crate::ci::CiResult, w: &WeihlResult) -> bool {
    let store: HashSet<Pair> = w.store_pairs().iter().copied().collect();
    for o in graph.output_ids() {
        if matches!(graph.output(o).kind, vdg::graph::ValueKind::Store) {
            for p in ci.pairs(o) {
                if !store.contains(p) {
                    return false;
                }
            }
        } else {
            let ws: HashSet<Pair> = w.value_pairs(o).iter().copied().collect();
            for p in ci.pairs(o) {
                if !ws.contains(p) {
                    return false;
                }
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

    fn pipeline(src: &str) -> (Graph, crate::ci::CiResult, WeihlResult) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        // Share the CI path table so pairs are id-comparable.
        let w = analyze_weihl_from(&g, ci.paths.clone());
        (g, ci, w)
    }

    #[test]
    fn simple_pointer_resolves() {
        let (g, _, w) = pipeline("int g; int main(void) { int *p; p = &g; return *p; }");
        let (node, _) = g.indirect_mem_ops()[0];
        let refs = w.loc_referents(&g, node);
        assert_eq!(refs.len(), 1);
        assert_eq!(w.paths.display(refs[0], &g), "g");
    }

    #[test]
    fn ci_is_contained_in_weihl() {
        let (g, ci, w) = pipeline(
            "int a; int b; int *p;\n\
             int main(void) { int **q; q = &p; p = &a; *q = &b; return *p; }",
        );
        assert!(ci_subset_of_weihl(&g, &ci, &w));
    }

    #[test]
    fn program_wide_store_loses_point_specificity() {
        // Two phases through a strongly-updateable global: CI separates
        // them; the program-wide store cannot.
        let (g, ci, w) = pipeline(
            "int a; int b; int *p;\n\
             int main(void) { int x; p = &a; x = *p; p = &b; return *p + x; }",
        );
        let reads: Vec<_> = g
            .indirect_mem_ops()
            .into_iter()
            .filter(|&(_, wr)| !wr)
            .collect();
        assert_eq!(reads.len(), 2);
        for (node, _) in reads {
            assert_eq!(ci.loc_referents(&g, node).len(), 1, "CI separates phases");
            assert_eq!(w.loc_referents(&g, node).len(), 2, "Weihl merges phases");
        }
    }

    #[test]
    fn interprocedural_flow_works() {
        let (g, _, w) = pipeline(
            "int g;\n\
             int *id(int *p) { return p; }\n\
             int main(void) { int *q; q = id(&g); return *q; }",
        );
        let (node, _) = g.indirect_mem_ops()[0];
        assert_eq!(w.loc_referents(&g, node).len(), 1);
    }

    #[test]
    fn heap_and_fields_still_distinct() {
        // Program-wideness removes point-specificity, not path precision.
        let (g, _, w) = pipeline(
            "struct s { int *x; int *y; };\n\
             int a; int b;\n\
             int main(void) { struct s v; int *r; v.x = &a; v.y = &b; \
             r = v.x; return *r; }",
        );
        let reads: Vec<_> = g
            .indirect_mem_ops()
            .into_iter()
            .filter(|&(_, wr)| !wr)
            .collect();
        let refs = w.loc_referents(&g, reads[0].0);
        assert_eq!(refs.len(), 1);
        assert_eq!(w.paths.display(refs[0], &g), "a");
    }

    #[test]
    fn counters_and_totals_populate() {
        // `gp` is a global, so the assignment is a real store write.
        let (g, _, w) = pipeline("int g; int *gp; int main(void) { gp = &g; return *gp; }");
        assert!(w.flow_ins > 0);
        assert!(w.total_pairs() > 0);
        assert_eq!(w.store_pairs().len(), 1);
        let pair = w.store_pairs()[0];
        assert_eq!(w.paths.display(pair.path, &g), "gp");
        assert_eq!(w.paths.display(pair.referent, &g), "g");
    }
}
