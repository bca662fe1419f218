//! The soundness oracle: checks that every concrete dereference observed
//! by the interpreter is covered by a points-to solution.
//!
//! For each `lookup`/`update` node with a source site, the abstract
//! location actually touched at runtime must appear among the referents
//! the analysis predicts at the node's location input. The paper verified
//! this property by hand; here it is automated and run over the whole
//! benchmark suite and over randomly generated programs.

use crate::exec::Trace;
use crate::memory::{AbsLoc, AbsStep, Origin};
use alias::path::{AccessOp, PathId, PathTable};
use alias::solver::Solution;
use cfront::ast::{ExprId, Program};
use std::collections::{HashMap, HashSet};
use vdg::graph::{BaseId, Graph, NodeId, VFuncId};

/// One uncovered runtime access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The memory operation whose prediction missed.
    pub node: NodeId,
    /// Whether the access was a write.
    pub is_write: bool,
    /// Rendered runtime location.
    pub runtime: String,
    /// Rendered predicted referents at the node.
    pub predicted: Vec<String>,
}

/// Checks a solution against an execution trace.
///
/// Returns all violations (empty = the solution is sound for this run).
/// Pair-based solutions (CI, CS, Weihl, k=1) expose their path table
/// and per-point referents ([`alias::Solution::path_universe`],
/// [`alias::Solution::referents_at`]) and are checked at path
/// granularity. Solutions without per-point pair sets (Steensgaard) are
/// checked at base granularity: the base-location of every runtime
/// access must appear among [`alias::Solution::loc_referent_bases`].
pub fn check_solution_dyn(
    prog: &Program,
    graph: &Graph,
    sol: &dyn Solution,
    trace: &Trace,
) -> Vec<Violation> {
    let mut site_bases: HashMap<ExprId, BaseId> = HashMap::new();
    for b in graph.base_ids() {
        if let Some(e) = graph.base(b).site_expr {
            site_bases.insert(e, b);
        }
    }
    // Path-granular table when the solution has one; a fresh per-graph
    // table otherwise, used only to render bases in violation reports.
    let mut paths = match sol.path_universe() {
        Some(t) => t.clone(),
        None => PathTable::for_graph(graph),
    };
    let mut violations = Vec::new();
    for (node, is_write) in graph.all_mem_ops() {
        let Some(site) = graph.node(node).site else {
            continue;
        };
        let recorded = if is_write {
            trace.writes.get(&site)
        } else {
            trace.reads.get(&site)
        };
        let Some(recorded) = recorded else { continue };
        match sol.referents_at(graph, node) {
            Some(refs) => {
                let referents: HashSet<PathId> = refs
                    .into_iter()
                    .map(|r| paths.collapse_synthetic(r))
                    .collect();
                for abs in recorded {
                    let covered = match abs_to_path(&mut paths, graph, prog, abs, &site_bases) {
                        Some(pid) => {
                            referents.contains(&pid)
                                || match paths.cooper_older_of(pid) {
                                    Some(older) => {
                                        let rebased = paths.rebase(pid, older);
                                        referents.contains(&rebased)
                                    }
                                    None => false,
                                }
                        }
                        None => false,
                    };
                    if !covered {
                        let mut predicted: Vec<String> =
                            referents.iter().map(|&p| paths.display(p, graph)).collect();
                        predicted.sort();
                        violations.push(Violation {
                            node,
                            is_write,
                            runtime: render_abs(prog, abs),
                            predicted,
                        });
                    }
                }
            }
            None => {
                // Base-granular fallback: sorted and deduplicated by the
                // `loc_referent_bases` contract.
                let bases = sol.loc_referent_bases(graph, node);
                for abs in recorded {
                    let covered = abs_base(graph, abs, &site_bases)
                        .map(|b| bases.binary_search(&b).is_ok())
                        .unwrap_or(false);
                    if !covered {
                        let predicted: Vec<String> = bases
                            .iter()
                            .map(|&b| {
                                let root = paths.base_root(b);
                                paths.display(root, graph)
                            })
                            .collect();
                        violations.push(Violation {
                            node,
                            is_write,
                            runtime: render_abs(prog, abs),
                            predicted,
                        });
                    }
                }
            }
        }
    }
    violations
}

/// Maps an abstract runtime location to its base-location only,
/// ignoring field/element structure.
fn abs_base(graph: &Graph, abs: &AbsLoc, site_bases: &HashMap<ExprId, BaseId>) -> Option<BaseId> {
    match abs.origin {
        Origin::Global(g) => Some(graph.global_base(g)),
        Origin::Local { func, slot } => graph.local_base(VFuncId(func), slot),
        Origin::Heap(e) | Origin::Str(e) => site_bases.get(&e).copied(),
    }
}

/// Maps an abstract runtime location into the solution's path table.
/// Returns `None` when no corresponding base or field exists (which is
/// itself a violation: the analysis never modeled that storage).
fn abs_to_path(
    paths: &mut PathTable,
    graph: &Graph,
    prog: &Program,
    abs: &AbsLoc,
    site_bases: &HashMap<ExprId, BaseId>,
) -> Option<PathId> {
    let (base, is_heap) = match abs.origin {
        Origin::Global(g) => (graph.global_base(g), false),
        Origin::Local { func, slot } => (graph.local_base(VFuncId(func), slot)?, false),
        Origin::Heap(e) => (*site_bases.get(&e)?, true),
        Origin::Str(e) => (*site_bases.get(&e)?, false),
    };
    let mut p = paths.base_root(base);
    // Heap objects are unshaped buffers: the leading element step is the
    // pointer arithmetic the analysis folds into the base itself.
    let steps: &[AbsStep] = if is_heap && matches!(abs.steps.first(), Some(AbsStep::Elem)) {
        &abs.steps[1..]
    } else {
        &abs.steps
    };
    for step in steps {
        match *step {
            AbsStep::Field { rec, idx } => {
                let name = &prog.types.record(rec).fields[idx as usize].name;
                let fid = graph.field_id(name)?;
                p = paths.child(p, AccessOp::Field(fid));
            }
            AbsStep::Elem => {
                p = paths.child(p, AccessOp::Index);
            }
        }
    }
    Some(p)
}

fn render_abs(prog: &Program, abs: &AbsLoc) -> String {
    let mut s = match abs.origin {
        Origin::Global(g) => prog.globals[g as usize].name.clone(),
        Origin::Local { func, slot } => format!(
            "{}::{}",
            prog.funcs[func as usize].name, prog.funcs[func as usize].vars[slot as usize].name
        ),
        Origin::Heap(e) => format!("heap@expr{}", e.0),
        Origin::Str(e) => format!("str@expr{}", e.0),
    };
    for step in &abs.steps {
        match *step {
            AbsStep::Field { rec, idx } => {
                s.push('.');
                s.push_str(&prog.types.record(rec).fields[idx as usize].name);
            }
            AbsStep::Elem => s.push_str("[*]"),
        }
    }
    s
}
