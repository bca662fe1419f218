//! Def/use analysis — the paper's other motivating client (§3.2: "Such
//! applications are concerned only with the memory locations referenced
//! by each memory read or write").
//!
//! For every `lookup` (a *use*) this module computes the set of `update`
//! nodes (*defs*) whose written locations it may observe, by walking the
//! store dataflow backwards ([`crate::reach::StoreWalk`]: through gammas,
//! into callees at calls, and out to call sites at entries), pruning
//! along the way:
//!
//! - an update is a *may-def* for a use referent if one of its written
//!   paths overlaps the referent (either is a prefix of the other);
//! - the walk past an update stops for a referent the update *definitely*
//!   overwrites (the strong-update condition), mirroring how the solvers
//!   kill store pairs.
//!
//! Because both ends are driven by points-to sets, def/use edge counts
//! are a client-level measure of analysis precision; the headline
//! experiment shows up here as identical edge sets under CI and CS.

use crate::fxhash::HashMap;
use crate::path::{PathId, PathTable};
use crate::reach::StoreWalk;
use crate::solver::Solution;
use std::collections::BTreeSet;
use vdg::graph::{Graph, NodeId, NodeKind, OutputId};

/// Def/use edges: for each lookup node, the update nodes it may observe.
#[derive(Debug, Clone, Default)]
pub struct DefUse {
    /// use (lookup) -> defs (updates), sorted.
    pub uses: HashMap<NodeId, Vec<NodeId>>,
}

impl DefUse {
    /// Total number of def/use edges.
    pub fn edge_count(&self) -> usize {
        self.uses.values().map(|v| v.len()).sum()
    }

    /// Defs of one use.
    pub fn defs_of(&self, lookup: NodeId) -> &[NodeId] {
        self.uses.get(&lookup).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// Whether a read of `a` may observe a write to `b`: overlap in either
/// prefix direction.
fn overlaps(paths: &PathTable, a: PathId, b: PathId) -> bool {
    paths.dom(a, b) || paths.dom(b, a)
}

/// Computes def/use edges for every lookup, using `sol` for the location
/// sets and `callees` (from the CI solver) for the interprocedural store
/// graph; `None` when `sol` has no per-output pairs
/// ([`Solution::pairs_at`]).
pub fn def_use(
    graph: &Graph,
    sol: &dyn Solution,
    callees: &HashMap<NodeId, Vec<vdg::graph::VFuncId>>,
) -> Option<DefUse> {
    let paths = sol.path_universe()?;
    // A pair-based solution has pairs on every output.
    let referents_at = |o: OutputId| {
        sol.pairs_at(o)
            .unwrap_or_default()
            .iter()
            .map(|p| p.referent)
    };
    let mut walk = StoreWalk::new(graph, callees);
    let mut out = DefUse::default();
    for (node, is_write) in graph.all_mem_ops() {
        if is_write {
            continue;
        }
        let mut referents: Vec<PathId> = referents_at(graph.input_src(node, 0)).collect();
        referents.sort_unstable();
        referents.dedup();
        let mut defs = BTreeSet::new();
        for r in referents {
            walk.walk(graph.input_src(node, 1), |def| {
                match graph.node(def).kind {
                    NodeKind::Update { .. } => {
                        let written: Vec<PathId> = referents_at(graph.input_src(def, 0)).collect();
                        if written.iter().any(|&w| overlaps(paths, r, w)) {
                            defs.insert(def);
                        }
                        // Strong kill: a definite overwrite of the
                        // referent ends the walk on this path.
                        !(written.len() == 1 && paths.strong_dom(written[0], r))
                    }
                    NodeKind::CopyMem => {
                        // Conservative: a weak def of everything under
                        // its destinations.
                        if referents_at(graph.input_src(def, 1)).any(|d| overlaps(paths, r, d)) {
                            defs.insert(def);
                        }
                        true
                    }
                    // Deallocation defines nothing.
                    _ => true,
                }
            });
        }
        out.uses.insert(node, defs.into_iter().collect());
    }
    Some(out)
}

/// Computes def/use edges at the *base* granularity any [`Solution`]
/// supports — including the unification baseline, which has no
/// per-program-point pair sets and so cannot drive [`def_use`].
///
/// Two deliberate differences from the path-granular walk keep this
/// variant sound and uniform across all five solvers:
///
/// - overlap is whole-base (a write anywhere in a base may define a
///   read anywhere in it), and
/// - no strong kills: walks never terminate early at an update, since
///   base-level "definitely overwrites" is not a sound kill for
///   interior paths.
///
/// With the kill rule gone, edge sets are monotone in the points-to
/// sets: a coarser solution (larger base sets at every op, in the
/// [`Solution::covers`] sense) can only add def/use edges — the
/// property the cross-solver monotonicity tests check.
pub fn def_use_bases(
    graph: &Graph,
    sol: &dyn Solution,
    callees: &HashMap<NodeId, Vec<vdg::graph::VFuncId>>,
) -> DefUse {
    let mut walk = StoreWalk::new(graph, callees);
    let mut out = DefUse::default();
    for (node, is_write) in graph.all_mem_ops() {
        if is_write {
            continue;
        }
        let referents = sol.loc_referent_bases(graph, node);
        let mut defs = BTreeSet::new();
        if !referents.is_empty() {
            walk.walk(graph.input_src(node, 1), |def| {
                let written = match graph.node(def).kind {
                    NodeKind::Update { .. } => sol.loc_referent_bases(graph, def),
                    NodeKind::CopyMem => sol.output_referent_bases(graph, graph.input_src(def, 1)),
                    _ => return true,
                };
                if written.iter().any(|x| referents.binary_search(x).is_ok()) {
                    defs.insert(def);
                }
                true
            });
        }
        out.uses.insert(node, defs.into_iter().collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{analyze_ci, CiConfig};
    use vdg::build::{lower, BuildOptions};
    use vdg::graph::ValueKind;

    fn pipeline(src: &str) -> (Graph, crate::ci::CiResult, DefUse) {
        let p = cfront::compile(src).expect("compiles");
        let g = lower(&p, &BuildOptions::default()).expect("lowers");
        let ci = analyze_ci(&g, &CiConfig::default());
        let du = def_use(&g, &ci, &ci.callees).expect("ci has pairs");
        (g, ci, du)
    }

    /// The lookup reading through `*p`-style derefs (first indirect read).
    fn first_indirect_read(g: &Graph) -> NodeId {
        g.indirect_mem_ops()
            .into_iter()
            .find(|&(_, w)| !w)
            .map(|(n, _)| n)
            .expect("an indirect read exists")
    }

    #[test]
    fn direct_def_reaches_use() {
        let (g, _, du) = pipeline("int g; int main(void) { int *p; p = &g; g = 5; return *p; }");
        let read = first_indirect_read(&g);
        assert_eq!(du.defs_of(read).len(), 1);
    }

    #[test]
    fn strong_update_kills_earlier_def() {
        let (g, _, du) =
            pipeline("int g; int main(void) { int *p; p = &g; g = 1; g = 2; return *p; }");
        let read = first_indirect_read(&g);
        // Only the second `g = ...` reaches the read.
        assert_eq!(du.defs_of(read).len(), 1);
        let def = du.defs_of(read)[0];
        // It must be the later update (higher node id than the killed one).
        let updates: Vec<NodeId> = g
            .all_mem_ops()
            .into_iter()
            .filter(|&(_, w)| w)
            .map(|(n, _)| n)
            .collect();
        assert_eq!(updates.len(), 2);
        assert_eq!(def, *updates.iter().max().unwrap());
    }

    #[test]
    fn weak_updates_accumulate_defs() {
        let (g, _, du) = pipeline(
            "int arr[4];\n\
             int main(void) { int *p; p = &arr[1]; arr[0] = 1; arr[1] = 2; \
             return *p; }",
        );
        let read = first_indirect_read(&g);
        // Array writes are weak; both may define arr[*].
        assert_eq!(du.defs_of(read).len(), 2);
    }

    #[test]
    fn interprocedural_defs_found() {
        let (g, _, du) = pipeline(
            "int g;\n\
             void set(void) { g = 3; }\n\
             int main(void) { int *p; p = &g; set(); return *p; }",
        );
        let read = first_indirect_read(&g);
        assert_eq!(du.defs_of(read).len(), 1);
    }

    #[test]
    fn unrelated_defs_excluded() {
        let (g, _, du) = pipeline(
            "int a; int b;\n\
             int main(void) { int *p; p = &a; a = 1; b = 2; return *p; }",
        );
        let read = first_indirect_read(&g);
        assert_eq!(du.defs_of(read).len(), 1, "write to b must not reach");
    }

    #[test]
    fn field_writes_overlap_whole_struct_reads() {
        let (g, _, du) = pipeline(
            "struct s { int x; int y; };\n\
             struct s v;\n\
             int take(struct s w) { return w.x; }\n\
             int main(void) { v.x = 1; v.y = 2; return take(v); }",
        );
        // The whole-struct read (aggregate lookup for the by-value arg)
        // observes both field writes.
        let agg_read = g
            .all_mem_ops()
            .into_iter()
            .find(|&(n, w)| {
                !w && matches!(g.output(g.node(n).outputs[0]).kind, ValueKind::Agg { .. })
            })
            .map(|(n, _)| n)
            .expect("aggregate read");
        assert_eq!(du.defs_of(agg_read).len(), 2);
    }

    #[test]
    fn headline_at_the_defuse_level() {
        // CS and CI produce the same def/use edges on a suite-style
        // program (the client-level restatement of §4.3).
        let src = "int buf;\n\
             void put(int **slot) { *slot = &buf; }\n\
             int use_a(void) { int *a; put(&a); buf = 1; return *a; }\n\
             int use_b(void) { int *b; put(&b); buf = 2; return *b; }\n\
             int main(void) { return use_a() + use_b(); }";
        let p = cfront::compile(src).unwrap();
        let g = lower(&p, &BuildOptions::default()).unwrap();
        let ci = analyze_ci(&g, &CiConfig::default());
        let cs = crate::cs::analyze_cs(&g, &ci, &crate::cs::CsConfig::default()).unwrap();
        let du_ci = def_use(&g, &ci, &ci.callees).expect("ci has pairs");
        let du_cs = def_use(&g, &cs, &ci.callees).expect("cs has pairs");
        assert_eq!(du_ci.edge_count(), du_cs.edge_count());
        for (u, defs) in &du_ci.uses {
            assert_eq!(defs, du_cs.uses.get(u).unwrap());
        }
    }
}
