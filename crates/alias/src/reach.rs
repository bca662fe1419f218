//! The two reachability problems every alias client shares: the backward
//! walk over the interprocedural store graph ([`StoreWalk`]) and the
//! closure of per-function sets over the call graph
//! ([`close_over_calls`]).
//!
//! Def/use (path- and base-granular), mod/ref, and the checkers built on
//! them all ask the same two questions and differ only in what they
//! record along the way. Both are plain, unmatched reachability: a walk
//! that leaves a function through its entry may come back through any
//! call site, not only the one it entered by. That is the
//! context-insensitive data-dependence setting, and it is sound for
//! every client here because each one computes a *may* set.

use crate::fxhash::HashMap;
use vdg::graph::{Graph, NodeId, NodeKind, OutputId, VFuncId, ValueKind};

/// Backward reachability over the store dataflow, built once per
/// (graph, call graph) and reused for any number of walks.
///
/// From a store output the walk steps to the store each producer
/// consumed: an `Update` or `Free` to its store input, a `CopyMem` to
/// its store input, a `Gamma` to every input, a `Call` to the store
/// returned by each callee, and a function's `Entry` to the store input
/// of each of its call sites. The last step reads the callee map
/// inverted once, in [`StoreWalk::new`], rather than scanning it at
/// every entry.
pub struct StoreWalk<'g> {
    graph: &'g Graph,
    callees: &'g HashMap<NodeId, Vec<VFuncId>>,
    /// Per function, the store inputs of its call sites.
    caller_stores: Vec<Vec<OutputId>>,
    /// `seen[o] == epoch` marks the outputs the current walk visited.
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<OutputId>,
}

impl<'g> StoreWalk<'g> {
    /// Prepares walks over `graph`, entering callees and leaving
    /// functions along `callees` (call node to the functions it may
    /// call, as in [`crate::ci::CiResult::callees`]).
    pub fn new(graph: &'g Graph, callees: &'g HashMap<NodeId, Vec<VFuncId>>) -> Self {
        let mut caller_stores = vec![Vec::new(); graph.func_count()];
        for (&call, fs) in callees {
            if graph.has_input(call, 1) {
                for f in fs {
                    caller_stores[f.0 as usize].push(graph.input_src(call, 1));
                }
            }
        }
        StoreWalk {
            graph,
            callees,
            caller_stores,
            seen: vec![0; graph.output_count()],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Walks backwards from `store_out`, visiting each reachable store
    /// output once. Every `Update`, `CopyMem` and `Free` reached is
    /// passed to `visit`, which records what its client needs and
    /// returns whether the walk goes on past that node (`false` is a
    /// kill: it ends this path only, not the paths that reach the
    /// node's predecessors another way).
    pub fn walk(&mut self, store_out: OutputId, mut visit: impl FnMut(NodeId) -> bool) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        let graph = self.graph;
        self.stack.clear();
        self.stack.push(store_out);
        while let Some(o) = self.stack.pop() {
            let seen = &mut self.seen[o.0 as usize];
            if *seen == self.epoch {
                continue;
            }
            *seen = self.epoch;
            debug_assert!(matches!(graph.output(o).kind, ValueKind::Store));
            let node = graph.output(o).node;
            match &graph.node(node).kind {
                NodeKind::Update { .. } | NodeKind::Free => {
                    if visit(node) {
                        self.stack.push(graph.input_src(node, 1));
                    }
                }
                NodeKind::CopyMem => {
                    if visit(node) {
                        self.stack.push(graph.input_src(node, 0));
                    }
                }
                NodeKind::Gamma => {
                    for port in 0..graph.node(node).inputs.len() {
                        self.stack.push(graph.input_src(node, port));
                    }
                }
                NodeKind::Call => {
                    for f in self.callees.get(&node).into_iter().flatten() {
                        for &ret in &graph.func(*f).returns {
                            self.stack.push(graph.input_src(ret, 0));
                        }
                    }
                }
                NodeKind::Entry { func } => {
                    self.stack
                        .extend_from_slice(&self.caller_stores[func.0 as usize]);
                }
                NodeKind::InitStore => {}
                other => {
                    debug_assert!(false, "unexpected store producer {other:?} in store walk");
                }
            }
        }
    }
}

/// Closes per-function sets over the call graph: on return, `sets[f]`
/// has absorbed `sets[g]` for every function `g` that `f` reaches
/// through `callees`, i.e. `sets[f] = own(f) ∪ ⋃ sets[callee]`.
///
/// `owner` maps each node to its function
/// ([`crate::modref::node_owner_map`]) and `sets` is indexed by
/// function. `join(into, from)` unions `from` into `into` and reports
/// whether `into` grew. The result is the least fixpoint, so neither
/// the order of the call edges nor of the sweeps changes it; recursion
/// converges because the sets only grow.
pub fn close_over_calls<S: Default>(
    callees: &HashMap<NodeId, Vec<VFuncId>>,
    owner: &[VFuncId],
    sets: &mut [S],
    mut join: impl FnMut(&mut S, &S) -> bool,
) {
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); sets.len()];
    for (call, fs) in callees {
        let from = owner[call.0 as usize].0 as usize;
        edges[from].extend(fs.iter().map(|f| f.0 as usize).filter(|&g| g != from));
    }
    for e in &mut edges {
        e.sort_unstable();
        e.dedup();
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (f, succs) in edges.iter().enumerate() {
            for &g in succs {
                let mut mine = std::mem::take(&mut sets[f]);
                changed |= join(&mut mine, &sets[g]);
                sets[f] = mine;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{analyze_ci, CiConfig, CiResult};
    use vdg::build::{lower, BuildOptions};

    fn pipeline(src: &str) -> (Graph, CiResult) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        (g, ci)
    }

    /// The store input of the last memory read in function `name`.
    fn read_store_in(g: &Graph, name: &str) -> OutputId {
        let owner = crate::modref::node_owner_map(g);
        let (read, _) = g
            .all_mem_ops()
            .into_iter()
            .rfind(|&(n, w)| !w && g.func(owner[n.0 as usize]).name == name)
            .expect("a read");
        g.input_src(read, 1)
    }

    /// The updates of function `name`, in node order.
    fn updates_in(g: &Graph, name: &str) -> Vec<NodeId> {
        let owner = crate::modref::node_owner_map(g);
        g.all_mem_ops()
            .into_iter()
            .filter(|&(n, w)| w && g.func(owner[n.0 as usize]).name == name)
            .map(|(n, _)| n)
            .collect()
    }

    /// Every store producer reached from `from`, never killing.
    fn reached(g: &Graph, ci: &CiResult, from: OutputId) -> Vec<NodeId> {
        let mut out = Vec::new();
        StoreWalk::new(g, &ci.callees).walk(from, |n| {
            out.push(n);
            true
        });
        out.sort();
        out
    }

    #[test]
    fn recursion_through_entry_and_call_ends_and_reaches_the_caller() {
        let (g, ci) = pipeline(
            "int g;\n\
             int rec(int n) { if (n) return rec(n - 1); return g; }\n\
             int main(void) { g = 1; return rec(3); }",
        );
        // rec's read sees its entry store, which comes from main's call
        // and from rec's own recursive call, whose store comes from
        // rec's entry again: a cycle the walk must leave.
        let seen = reached(&g, &ci, read_store_in(&g, "rec"));
        let main_write = updates_in(&g, "main");
        assert_eq!(main_write.len(), 1);
        assert!(seen.contains(&main_write[0]), "{seen:?}");
    }

    #[test]
    fn every_call_site_is_reached_through_the_inverted_map() {
        let (g, ci) = pipeline(
            "int a; int b; int c;\n\
             int get(void) { return a; }\n\
             int one(void) { a = 1; return get(); }\n\
             int two(void) { b = 2; return get(); }\n\
             int main(void) { c = 3; return one() + two() + get(); }",
        );
        let seen = reached(&g, &ci, read_store_in(&g, "get"));
        for caller in ["one", "two", "main"] {
            let w = updates_in(&g, caller);
            assert_eq!(w.len(), 1, "{caller}");
            assert!(seen.contains(&w[0]), "{caller}'s store not reached");
        }
    }

    #[test]
    fn a_kill_stops_only_its_own_path() {
        let (g, ci) = pipeline(
            "int g; int c;\n\
             int main(void) { g = 1; if (c) { g = 2; } return g; }",
        );
        let w = updates_in(&g, "main");
        assert_eq!(w.len(), 2);
        let (first, second) = (w[0], w[1]);
        // Killing at the branch's write leaves the first write reachable
        // along the path that skips the branch.
        let mut seen = Vec::new();
        StoreWalk::new(&g, &ci.callees).walk(read_store_in(&g, "main"), |n| {
            seen.push(n);
            n != second
        });
        assert!(seen.contains(&second) && seen.contains(&first), "{seen:?}");

        // On a straight line the same kill hides the earlier write.
        let (g, ci) = pipeline("int g; int main(void) { g = 1; g = 2; return g; }");
        let w = updates_in(&g, "main");
        let mut seen = Vec::new();
        StoreWalk::new(&g, &ci.callees).walk(read_store_in(&g, "main"), |n| {
            seen.push(n);
            n != w[1]
        });
        assert_eq!(seen, vec![w[1]]);
    }

    #[test]
    fn a_free_is_visited_and_the_walk_continues_past_it() {
        let (g, ci) = pipeline(
            "int g;\n\
             int main(void) { int *p; g = 1; p = (int *) malloc(sizeof(int)); \
             free(p); return g; }",
        );
        let seen = reached(&g, &ci, read_store_in(&g, "main"));
        let free = g
            .nodes()
            .find(|(_, n)| matches!(n.kind, NodeKind::Free))
            .map(|(n, _)| n)
            .expect("a free");
        let g_write = g
            .all_mem_ops()
            .into_iter()
            .find(|&(n, w)| w && g.node(n).span.start < g.node(free).span.start)
            .map(|(n, _)| n);
        assert!(seen.contains(&free), "{seen:?}");
        assert!(seen.contains(&g_write.expect("g = 1")), "{seen:?}");
    }

    #[test]
    fn closure_reaches_through_recursion_and_skips_unrelated_functions() {
        let (g, ci) = pipeline(
            "int a;\n\
             void leaf(void) { a = 1; }\n\
             void odd(int n);\n\
             void even(int n) { if (n) odd(n - 1); }\n\
             void odd(int n) { if (n) even(n - 1); else leaf(); }\n\
             void alone(void) { }\n\
             int main(void) { even(4); return 0; }",
        );
        let owner = crate::modref::node_owner_map(&g);
        let id = |name: &str| {
            g.func_ids()
                .find(|&f| g.func(f).name == name)
                .expect("function")
        };
        let mut sets: Vec<Vec<VFuncId>> = g.func_ids().map(|f| vec![f]).collect();
        close_over_calls(&ci.callees, &owner, &mut sets, |into, from| {
            let n = into.len();
            for f in from {
                if !into.contains(f) {
                    into.push(*f);
                }
            }
            into.len() != n
        });
        for caller in ["even", "odd", "main"] {
            assert!(
                sets[id(caller).0 as usize].contains(&id("leaf")),
                "{caller}"
            );
        }
        assert!(!sets[id("main").0 as usize].contains(&id("alone")));
        assert_eq!(sets[id("leaf").0 as usize], vec![id("leaf")]);
    }
}
