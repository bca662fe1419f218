//! Mod/ref analysis — the client application the paper uses to motivate
//! points-to precision (§3.2: "we can learn more by considering an
//! application, such as def/use or mod/ref analysis").
//!
//! For every function we compute the set of abstract locations its
//! memory reads may reference and its memory writes may modify, both
//! directly and transitively through callees discovered by the solver
//! ([`crate::reach::close_over_calls`]).

use crate::fxhash::HashMap;
use crate::path::PathId;
use crate::reach::close_over_calls;
use crate::solver::Solution;
use std::collections::BTreeSet;
use vdg::graph::{BaseId, Graph, NodeId, VFuncId};

/// Locations read/written by one function, at the granularity `T`
/// (access paths by default, bases for [`ModRefBases`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModRef<T = PathId> {
    /// Locations possibly referenced by reads (`ref` set).
    pub refs: BTreeSet<T>,
    /// Locations possibly modified by writes (`mod` set).
    pub mods: BTreeSet<T>,
}

impl<T> Default for ModRef<T> {
    fn default() -> Self {
        ModRef {
            refs: BTreeSet::new(),
            mods: BTreeSet::new(),
        }
    }
}

impl<T: Ord + Copy> ModRef<T> {
    /// Adds `other`'s sets to ours; whether either grew.
    fn join(&mut self, other: &Self) -> bool {
        let before = (self.refs.len(), self.mods.len());
        self.refs.extend(&other.refs);
        self.mods.extend(&other.mods);
        (self.refs.len(), self.mods.len()) != before
    }
}

/// Mod/ref summaries for every function.
#[derive(Debug, Clone)]
pub struct ModRefSummary<T = PathId> {
    /// Direct effects (this function's own memory operations).
    pub direct: HashMap<VFuncId, ModRef<T>>,
    /// Transitive effects (including everything reachable through the
    /// call graph discovered by the points-to solver).
    pub transitive: HashMap<VFuncId, ModRef<T>>,
}

/// Base-granular mod/ref sets for one function.
pub type ModRefBases = ModRef<BaseId>;

/// Base-granular mod/ref summaries for every function.
pub type ModRefBasesSummary = ModRefSummary<BaseId>;

/// Computes path-granular mod/ref summaries from a points-to solution;
/// `None` when `sol` has no per-output pairs ([`Solution::pairs_at`]).
///
/// `callees` is the call graph discovered by the solver
/// ([`crate::ci::CiResult::callees`]).
pub fn mod_ref(
    graph: &Graph,
    sol: &dyn Solution,
    callees: &HashMap<NodeId, Vec<VFuncId>>,
) -> Option<ModRefSummary> {
    // A pair-based solution answers `referents_at` at every node.
    sol.path_universe()?;
    Some(summarize(graph, callees, |node| {
        sol.referents_at(graph, node).unwrap_or_default()
    }))
}

/// Maps each node to its owning function (delegates to
/// [`vdg::display::owner_map`], which derives ownership from the
/// builder's contiguous per-function node layout).
pub fn node_owner_map(graph: &Graph) -> Vec<VFuncId> {
    vdg::display::owner_map(graph)
}

/// Computes mod/ref summaries at the *base* granularity any
/// [`Solution`] supports — including the unification baseline, which
/// cannot drive the path-granular [`mod_ref`]. Because base sets grow
/// monotonically with analysis coarseness ([`Solution::covers`]), so do
/// these summaries: CS ⊆ CI ⊆ Weihl per function, the cross-solver
/// property the monotonicity tests check.
pub fn mod_ref_bases(
    graph: &Graph,
    sol: &dyn Solution,
    callees: &HashMap<NodeId, Vec<VFuncId>>,
) -> ModRefBasesSummary {
    summarize(graph, callees, |node| sol.loc_referent_bases(graph, node))
}

/// Direct effects from each memory op's location referents, then their
/// closure over the call graph.
fn summarize<T: Ord + Copy>(
    graph: &Graph,
    callees: &HashMap<NodeId, Vec<VFuncId>>,
    referents: impl Fn(NodeId) -> Vec<T>,
) -> ModRefSummary<T> {
    let owner = node_owner_map(graph);
    let mut direct: Vec<ModRef<T>> = graph.func_ids().map(|_| ModRef::default()).collect();
    for (node, is_write) in graph.all_mem_ops() {
        let entry = &mut direct[owner[node.0 as usize].0 as usize];
        let set = if is_write {
            &mut entry.mods
        } else {
            &mut entry.refs
        };
        set.extend(referents(node));
    }
    let mut transitive = direct.clone();
    close_over_calls(callees, &owner, &mut transitive, ModRef::join);
    let by_func = |sets: Vec<ModRef<T>>| graph.func_ids().zip(sets).collect();
    ModRefSummary {
        direct: by_func(direct),
        transitive: by_func(transitive),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{analyze_ci, CiConfig};
    use vdg::build::{lower, BuildOptions};

    fn summary(src: &str) -> (Graph, crate::ci::CiResult, ModRefSummary) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        let s = mod_ref(&g, &ci, &ci.callees).expect("ci has pairs");
        (g, ci, s)
    }

    fn loc_names(g: &Graph, ci: &crate::ci::CiResult, set: &BTreeSet<PathId>) -> Vec<String> {
        let mut v: Vec<String> = set.iter().map(|&p| ci.paths.display(p, g)).collect();
        v.sort();
        v
    }

    #[test]
    fn direct_effects_are_per_function() {
        let (g, ci, s) = summary(
            "int a; int b;\n\
             void wa(void) { a = 1; }\n\
             int rb(void) { return b; }\n\
             int main(void) { wa(); return rb(); }",
        );
        let wa = VFuncId(0);
        let rb = VFuncId(1);
        assert_eq!(loc_names(&g, &ci, &s.direct[&wa].mods), vec!["a"]);
        assert!(s.direct[&wa].refs.is_empty());
        assert_eq!(loc_names(&g, &ci, &s.direct[&rb].refs), vec!["b"]);
        assert!(s.direct[&rb].mods.is_empty());
    }

    #[test]
    fn transitive_effects_include_callees() {
        let (g, ci, s) = summary(
            "int a;\n\
             void leaf(void) { a = 1; }\n\
             void mid(void) { leaf(); }\n\
             int main(void) { mid(); return 0; }",
        );
        let mid = VFuncId(1);
        let main = VFuncId(2);
        assert_eq!(loc_names(&g, &ci, &s.transitive[&mid].mods), vec!["a"]);
        assert_eq!(loc_names(&g, &ci, &s.transitive[&main].mods), vec!["a"]);
        assert!(s.direct[&mid].mods.is_empty());
    }

    #[test]
    fn indirect_writes_use_points_to() {
        let (g, ci, s) = summary(
            "int x; int y;\n\
             void poke(int *p) { *p = 7; }\n\
             int main(void) { poke(&x); poke(&y); return x + y; }",
        );
        let poke = VFuncId(0);
        assert_eq!(loc_names(&g, &ci, &s.direct[&poke].mods), vec!["x", "y"]);
    }

    #[test]
    fn node_owner_map_covers_all_nodes() {
        let (g, _, _) = summary("int main(void) { return 0; }");
        let owner = node_owner_map(&g);
        assert_eq!(owner.len(), g.node_count());
    }
}
