//! The checkers. Each is a pure function of the VDG, a
//! [`Solution`], and the solver-discovered call graph, so the same code
//! runs under all five analyses and diagnostic-set differences measure
//! analysis precision alone.
//!
//! Everything is phrased at the *base* granularity
//! ([`Solution::loc_referent_bases`] /
//! [`Solution::output_referent_bases`]) — the coarsest query every
//! solver supports, including the unification baseline. Pair-level
//! detail, where available, only enriches witness text.

use crate::{CheckKind, Diagnostic, Severity};
use alias::defuse::def_use_bases;
use alias::fxhash::HashMap;
use alias::modref::node_owner_map;
use alias::reach::StoreWalk;
use alias::Solution;
use std::collections::{BTreeSet, HashSet};
use vdg::graph::{BaseId, BaseKind, Graph, NodeId, NodeKind, OutputId, VFuncId};

/// Runs every checker over `graph` under `sol`.
///
/// `callees` is the solver-discovered call graph
/// ([`alias::CiResult::callees`]); pass the same one to every solver so
/// the interprocedural store walks are identical and diagnostic-set
/// differences come from points-to sets alone.
///
/// Diagnostics are sorted by source position, then kind, then node.
pub fn run_checks(
    graph: &Graph,
    sol: &dyn Solution,
    callees: &HashMap<NodeId, Vec<VFuncId>>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut walk = StoreWalk::new(graph, callees);
    check_use_after_free(graph, sol, &mut walk, &mut diags);
    check_double_free(graph, sol, &mut walk, &mut diags);
    check_dangling_local(graph, sol, &mut diags);
    check_uninit_and_dead(graph, sol, callees, &mut diags);
    check_null_deref(graph, sol, &mut diags);
    crate::race::check_races(graph, sol, callees, &mut diags);
    diags.sort_by_key(|d| (d.span.start, d.kind, d.node.0));
    diags
}

/// Whether two sorted base sets intersect.
fn intersects(a: &[BaseId], b: &[BaseId]) -> bool {
    a.iter().any(|x| b.binary_search(x).is_ok())
}

/// Display names of the sorted base set, for witness text.
pub(crate) fn base_names(graph: &Graph, bases: &[BaseId]) -> String {
    bases
        .iter()
        .map(|&b| graph.base(b).display())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The heap subset of the referents of `out` (sorted).
fn heap_referents(graph: &Graph, sol: &dyn Solution, out: OutputId) -> Vec<BaseId> {
    sol.output_referent_bases(graph, out)
        .into_iter()
        .filter(|&b| matches!(graph.base(b).kind, BaseKind::Heap { .. }))
        .collect()
}

/// The heap objects some `free` on a store path reaching `node` may
/// have deallocated, intersected with `bases` (sorted): one entry per
/// such `free`, in node order. The walk never stops at a store, since
/// an intervening store does not resurrect a freed object.
fn freed_earlier(
    graph: &Graph,
    sol: &dyn Solution,
    walk: &mut StoreWalk,
    node: NodeId,
    bases: &[BaseId],
) -> Vec<(NodeId, Vec<BaseId>)> {
    let mut frees = BTreeSet::new();
    walk.walk(graph.input_src(node, 1), |n| {
        if matches!(graph.node(n).kind, NodeKind::Free) {
            frees.insert(n);
        }
        true
    });
    frees
        .into_iter()
        .filter_map(|free| {
            let hit: Vec<BaseId> = heap_referents(graph, sol, graph.input_src(free, 0))
                .into_iter()
                .filter(|b| bases.binary_search(b).is_ok())
                .collect();
            (!hit.is_empty()).then_some((free, hit))
        })
        .collect()
}

/// use-after-free: a memory op whose location may name a heap object
/// some store-reaching `free` may have deallocated.
fn check_use_after_free(
    graph: &Graph,
    sol: &dyn Solution,
    walk: &mut StoreWalk,
    diags: &mut Vec<Diagnostic>,
) {
    for (node, is_write) in graph.all_mem_ops() {
        let Some(site) = graph.node(node).site else {
            continue;
        };
        let heap_bases: Vec<BaseId> = sol
            .loc_referent_bases(graph, node)
            .into_iter()
            .filter(|&b| matches!(graph.base(b).kind, BaseKind::Heap { .. }))
            .collect();
        if heap_bases.is_empty() {
            continue;
        }
        let freed = freed_earlier(graph, sol, walk, node, &heap_bases);
        if !freed.is_empty() {
            let verb = if is_write { "write to" } else { "read of" };
            diags.push(Diagnostic {
                kind: CheckKind::UseAfterFree,
                severity: Severity::Error,
                analysis: sol.analysis().to_string(),
                node,
                site,
                span: graph.node(node).span,
                message: format!("{verb} heap object possibly freed earlier"),
                witness: freed
                    .iter()
                    .map(|(_, hit)| format!("may free {}", base_names(graph, hit)))
                    .collect(),
                related_spans: freed.iter().map(|&(f, _)| graph.node(f).span).collect(),
                related_sites: Vec::new(),
            });
        }
    }
}

/// double-free: a `free` whose pointer may name a heap object an
/// earlier store-reaching `free` already deallocated.
fn check_double_free(
    graph: &Graph,
    sol: &dyn Solution,
    walk: &mut StoreWalk,
    diags: &mut Vec<Diagnostic>,
) {
    for (node, n) in graph.nodes() {
        if !matches!(n.kind, NodeKind::Free) {
            continue;
        }
        let Some(site) = n.site else { continue };
        let own = heap_referents(graph, sol, graph.input_src(node, 0));
        if own.is_empty() {
            continue;
        }
        let freed = freed_earlier(graph, sol, walk, node, &own);
        if !freed.is_empty() {
            diags.push(Diagnostic {
                kind: CheckKind::DoubleFree,
                severity: Severity::Error,
                analysis: sol.analysis().to_string(),
                node,
                site,
                span: n.span,
                message: "heap object possibly freed twice".to_string(),
                witness: freed
                    .iter()
                    .map(|(_, hit)| format!("already freed {}", base_names(graph, hit)))
                    .collect(),
                related_spans: freed.iter().map(|&(f, _)| graph.node(f).span).collect(),
                related_sites: Vec::new(),
            });
        }
    }
}

/// dangling-local: the address of a local escaping its frame — returned
/// from its owning function, or stored into memory that outlives the
/// frame (a global, the heap, or another function's local).
fn check_dangling_local(graph: &Graph, sol: &dyn Solution, diags: &mut Vec<Diagnostic>) {
    // (a) Returns whose value may reference a local of the returning
    // function.
    for f in graph.func_ids() {
        for &ret in &graph.func(f).returns {
            if !graph.has_input(ret, 1) {
                continue;
            }
            let Some(site) = graph.node(ret).site else {
                continue;
            };
            let bases = sol.output_referent_bases(graph, graph.input_src(ret, 1));
            let own: Vec<BaseId> = bases
                .into_iter()
                .filter(
                    |&b| matches!(graph.base(b).kind, BaseKind::Local { func, .. } if func == f),
                )
                .collect();
            if own.is_empty() {
                continue;
            }
            diags.push(Diagnostic {
                kind: CheckKind::DanglingLocal,
                severity: Severity::Warning,
                analysis: sol.analysis().to_string(),
                node: ret,
                site,
                span: graph.node(ret).span,
                message: format!(
                    "returning a pointer into the frame of `{}`",
                    graph.func(f).name
                ),
                witness: vec![format!("may point to {}", base_names(graph, &own))],
                related_spans: Vec::new(),
                related_sites: Vec::new(),
            });
        }
    }

    // (b) Stores whose value may reference a local of the storing
    // function, written into memory that outlives the frame.
    let owner = node_owner_map(graph);
    for (node, is_write) in graph.all_mem_ops() {
        if !is_write {
            continue;
        }
        let Some(site) = graph.node(node).site else {
            continue;
        };
        let f = owner[node.0 as usize];
        let val_bases = sol.output_referent_bases(graph, graph.input_src(node, 2));
        let own: Vec<BaseId> = val_bases
            .into_iter()
            .filter(|&b| matches!(graph.base(b).kind, BaseKind::Local { func, .. } if func == f))
            .collect();
        if own.is_empty() {
            continue;
        }
        let loc_bases = sol.loc_referent_bases(graph, node);
        let outlive: Vec<BaseId> = loc_bases
            .into_iter()
            .filter(|&b| {
                !matches!(graph.base(b).kind, BaseKind::Local { func, .. } if func == f)
                    && !matches!(graph.base(b).kind, BaseKind::Func { .. })
            })
            .collect();
        if outlive.is_empty() {
            continue;
        }
        diags.push(Diagnostic {
            kind: CheckKind::DanglingLocal,
            severity: Severity::Warning,
            analysis: sol.analysis().to_string(),
            node,
            site,
            span: graph.node(node).span,
            message: format!(
                "storing a pointer into the frame of `{}` where it outlives the frame",
                graph.func(f).name
            ),
            witness: vec![
                format!("may point to {}", base_names(graph, &own)),
                format!("stored into {}", base_names(graph, &outlive)),
            ],
            related_spans: Vec::new(),
            related_sites: Vec::new(),
        });
    }
}

/// uninit-read and dead-store, both driven by one base-granular def/use
/// computation: a load with no reaching store, and a store no load (or
/// memory copy) observes.
fn check_uninit_and_dead(
    graph: &Graph,
    sol: &dyn Solution,
    callees: &HashMap<NodeId, Vec<VFuncId>>,
    diags: &mut Vec<Diagnostic>,
) {
    let du = def_use_bases(graph, sol, callees);

    for (node, is_write) in graph.all_mem_ops() {
        if is_write {
            continue;
        }
        let Some(site) = graph.node(node).site else {
            continue;
        };
        if sol.loc_referent_bases(graph, node).is_empty() {
            continue; // null-deref territory
        }
        if du.defs_of(node).is_empty() {
            diags.push(Diagnostic {
                kind: CheckKind::UninitRead,
                severity: Severity::Warning,
                analysis: sol.analysis().to_string(),
                node,
                site,
                span: graph.node(node).span,
                message: "read of a location no store may have initialized".to_string(),
                witness: vec![format!(
                    "reads {}",
                    base_names(graph, &sol.loc_referent_bases(graph, node))
                )],
                related_spans: Vec::new(),
                related_sites: Vec::new(),
            });
        }
    }

    // Live stores: every def of some use, plus stores a CopyMem source
    // may observe (string/struct copies read memory without a Lookup).
    let mut live: HashSet<NodeId> = du.uses.values().flatten().copied().collect();
    let copy_srcs: Vec<Vec<BaseId>> = graph
        .nodes()
        .filter(|(_, n)| matches!(n.kind, NodeKind::CopyMem))
        .map(|(n, _)| sol.output_referent_bases(graph, graph.input_src(n, 2)))
        .collect();
    for (node, is_write) in graph.all_mem_ops() {
        if !is_write || live.contains(&node) {
            continue;
        }
        let bases = sol.loc_referent_bases(graph, node);
        if copy_srcs.iter().any(|src| intersects(&bases, src)) {
            live.insert(node);
        }
    }

    for (node, is_write) in graph.all_mem_ops() {
        if !is_write || live.contains(&node) {
            continue;
        }
        let Some(site) = graph.node(node).site else {
            continue;
        };
        let bases = sol.loc_referent_bases(graph, node);
        if bases.is_empty() {
            continue; // null-deref territory
        }
        diags.push(Diagnostic {
            kind: CheckKind::DeadStore,
            severity: Severity::Warning,
            analysis: sol.analysis().to_string(),
            node,
            site,
            span: graph.node(node).span,
            message: "store that no read may observe".to_string(),
            witness: vec![format!("writes {}", base_names(graph, &bases))],
            related_spans: Vec::new(),
            related_sites: Vec::new(),
        });
    }
}

/// null-deref: an indirect access whose referent set is empty. Under a
/// sound analysis an empty set means the pointer can only be null or
/// uninitialized, so the access faults whenever it executes.
fn check_null_deref(graph: &Graph, sol: &dyn Solution, diags: &mut Vec<Diagnostic>) {
    for (node, is_write) in graph.indirect_mem_ops() {
        let Some(site) = graph.node(node).site else {
            continue;
        };
        if !sol.loc_referent_bases(graph, node).is_empty() {
            continue;
        }
        let verb = if is_write { "write" } else { "read" };
        diags.push(Diagnostic {
            kind: CheckKind::NullDeref,
            severity: Severity::Error,
            analysis: sol.analysis().to_string(),
            node,
            site,
            span: graph.node(node).span,
            message: format!("indirect {verb} through a null or uninitialized pointer"),
            witness: vec!["referent set is empty".to_string()],
            related_spans: Vec::new(),
            related_sites: Vec::new(),
        });
    }
}
