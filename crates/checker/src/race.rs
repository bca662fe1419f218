//! data-race: conflicting unsynchronized accesses from threads the
//! VDG's thread model says may run concurrently.
//!
//! The checker is the static half of the paper-style mod/ref pipeline:
//! every thread context — each `spawn` site's entry function, plus the
//! spawning `main` itself — gets a **transitive footprint**, the set of
//! memory accesses reachable from it through the solver-discovered call
//! graph, with each access carrying its referent base set under the
//! driving [`alias::Solution`]. Two contexts that may-happen-in-parallel
//! (spawn × spawn via [`vdg::graph::ThreadModel::spawns_mhp`], spawn ×
//! `main` via the per-expression pending-spawn mask) are then
//! intersected: any cross-context pair of accesses with overlapping
//! bases and at least one write is a candidate race.
//!
//! Two soundness-preserving refinements keep the report honest:
//!
//! - **thread-local frames**: a *direct* access always touches the
//!   accessing thread's own frame, so a common [`BaseKind::Local`] base
//!   only witnesses a race when at least one side is an indirect access
//!   (the local's address escaped to the other thread);
//! - **memory copies**: [`NodeKind::CopyMem`] reads its source and
//!   writes its destination without a `Lookup`/`Update`, so it
//!   contributes one read access and one write access.
//!
//! Like every other checker the pass is monotone in the solution:
//! coarser referent sets can only add intersections, so false-positive
//! counts grow along the paper's precision spectrum (CS ≤ CI ≤
//! {Weihl, Steensgaard}) while the may-race relation stays sound.
//! Diagnostics anchor at the earlier access, carry the partner access
//! in `related_spans`/`related_sites` (the oracle labeler joins the
//! site pair against observed interleaving races), and name the common
//! bases plus the MHP relation in the witness.

use crate::{CheckKind, Diagnostic, Severity};
use alias::fxhash::HashMap;
use alias::modref::node_owner_map;
use alias::reach::close_over_calls;
use alias::Solution;
use cfront::ast::ExprId;
use cfront::source::Span;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use vdg::graph::{BaseId, BaseKind, Graph, NodeId, NodeKind, VFuncId};

/// One memory access in some thread's footprint.
struct Access {
    node: NodeId,
    site: ExprId,
    span: Span,
    is_write: bool,
    /// Whether the access dereferences a pointer (as opposed to naming
    /// a variable directly). Direct accesses can only touch the
    /// accessing thread's own frame.
    indirect: bool,
    /// Sorted referent bases under the driving solution.
    bases: Vec<BaseId>,
}

/// A thread context whose footprint participates in MHP intersection.
#[derive(Clone)]
enum Ctx {
    /// The spawning `main` thread, restricted to the region where a
    /// given spawn is pending.
    Main,
    /// The thread of spawn site `i`.
    Spawn(usize),
}

/// Runs the race checker, appending to `diags`. A program with no
/// `spawn` gets no diagnostics and pays only the `uses_threads` check,
/// keeping sequential reports byte-identical.
pub fn check_races(
    graph: &Graph,
    sol: &dyn Solution,
    callees: &HashMap<NodeId, Vec<VFuncId>>,
    diags: &mut Vec<Diagnostic>,
) {
    let tm = graph.thread_model();
    if !tm.uses_threads() {
        return;
    }

    let accesses = collect_accesses(graph, sol);
    let owner = node_owner_map(graph);
    let footprints = footprints(graph, callees, &accesses, &owner);

    let main_f = match graph.func_ids().find(|&f| graph.func(f).name == "main") {
        Some(f) => f,
        None => return,
    };
    let spawn_nodes: HashSet<NodeId> = tm.spawns.iter().map(|s| s.node).collect();

    // Per spawn site, the indices of accesses `main` (or a function it
    // calls outside any spawn) may perform while that spawn is pending.
    let mut main_pending: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); tm.spawns.len()];
    for (idx, a) in accesses.iter().enumerate() {
        if owner[a.node.0 as usize] != main_f {
            continue;
        }
        let mask = tm.pending(a.site);
        for (i, mp) in main_pending.iter_mut().enumerate() {
            if mask & (1u64 << i) != 0 {
                mp.insert(idx as u32);
            }
        }
    }
    for (node, n) in graph.nodes() {
        if !matches!(n.kind, NodeKind::Call)
            || owner[node.0 as usize] != main_f
            || spawn_nodes.contains(&node)
        {
            continue;
        }
        let Some(site) = n.site else { continue };
        let mask = tm.pending(site);
        if mask == 0 {
            continue;
        }
        if let Some(fs) = callees.get(&node) {
            for (i, mp) in main_pending.iter_mut().enumerate() {
                if mask & (1u64 << i) != 0 {
                    for f in fs {
                        mp.extend(footprints[f.0 as usize].iter().copied());
                    }
                }
            }
        }
    }

    // Candidate pairs, deduplicated on the normalized node pair: the
    // same conflict often arises through several MHP context pairs, and
    // one diagnostic per access pair is what a tool consumer wants.
    let mut seen: BTreeMap<(NodeId, NodeId), Diagnostic> = BTreeMap::new();
    for (i, s) in tm.spawns.iter().enumerate() {
        let fi = &footprints[s.callee.0 as usize];
        pair_contexts(
            graph,
            sol,
            &accesses,
            fi,
            &main_pending[i],
            Ctx::Spawn(i),
            Ctx::Main,
            tm,
            &mut seen,
        );
        for (j, t) in tm.spawns.iter().enumerate().skip(i) {
            if tm.spawns_mhp(i, j) {
                pair_contexts(
                    graph,
                    sol,
                    &accesses,
                    fi,
                    &footprints[t.callee.0 as usize],
                    Ctx::Spawn(i),
                    Ctx::Spawn(j),
                    tm,
                    &mut seen,
                );
            }
        }
    }
    diags.extend(seen.into_values());
}

/// Collects every memory access with its referent bases: all
/// `Lookup`/`Update` nodes, plus one read and one write per `CopyMem`.
fn collect_accesses(graph: &Graph, sol: &dyn Solution) -> Vec<Access> {
    let mut out = Vec::new();
    for (node, n) in graph.nodes() {
        let Some(site) = n.site else { continue };
        match n.kind {
            NodeKind::Lookup { indirect } | NodeKind::Update { indirect } => {
                let bases = sol.loc_referent_bases(graph, node);
                if bases.is_empty() {
                    continue; // null-deref territory, not a race
                }
                out.push(Access {
                    node,
                    site,
                    span: n.span,
                    is_write: matches!(n.kind, NodeKind::Update { .. }),
                    indirect,
                    bases,
                });
            }
            NodeKind::CopyMem => {
                for (port, is_write) in [(2usize, false), (1usize, true)] {
                    let bases = sol.output_referent_bases(graph, graph.input_src(node, port));
                    if bases.is_empty() {
                        continue;
                    }
                    out.push(Access {
                        node,
                        site,
                        span: n.span,
                        is_write,
                        indirect: true,
                        bases,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Per-function transitive access footprints (indices into `accesses`):
/// `footprint(f) = own(f) ∪ ⋃ footprint(callee)` over the
/// solver-discovered call graph ([`alias::reach::close_over_calls`]).
fn footprints(
    graph: &Graph,
    callees: &HashMap<NodeId, Vec<VFuncId>>,
    accesses: &[Access],
    owner: &[VFuncId],
) -> Vec<BTreeSet<u32>> {
    let mut fp: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); graph.func_count()];
    for (idx, a) in accesses.iter().enumerate() {
        fp[owner[a.node.0 as usize].0 as usize].insert(idx as u32);
    }
    close_over_calls(callees, owner, &mut fp, |into, from| {
        let before = into.len();
        into.extend(from);
        into.len() != before
    });
    fp
}

/// Intersects two context footprints, recording one diagnostic per
/// conflicting access pair.
#[allow(clippy::too_many_arguments)]
fn pair_contexts(
    graph: &Graph,
    sol: &dyn Solution,
    accesses: &[Access],
    xs: &BTreeSet<u32>,
    ys: &BTreeSet<u32>,
    cx: Ctx,
    cy: Ctx,
    tm: &vdg::graph::ThreadModel,
    seen: &mut BTreeMap<(NodeId, NodeId), Diagnostic>,
) {
    for &xi in xs {
        let a = &accesses[xi as usize];
        for &yi in ys {
            let b = &accesses[yi as usize];
            // The two contexts are always distinct thread instances
            // (spawn × main, spawn × other spawn, or a self-MHP spawn's
            // two instances), so even the *same* access index pairs —
            // but a shared read racing with itself is no conflict.
            if xi == yi {
                if !a.is_write {
                    continue;
                }
            } else if !a.is_write && !b.is_write {
                continue;
            }
            let common = conflicting_bases(graph, a, b);
            if common.is_empty() {
                continue;
            }
            let a_first = (a.span.start, a.node.0) <= (b.span.start, b.node.0);
            let (first, second) = if a_first { (a, b) } else { (b, a) };
            let (cf, cs) = if a_first { (&cx, &cy) } else { (&cy, &cx) };
            let key = (first.node, second.node);
            if seen.contains_key(&key) {
                continue;
            }
            let names = crate::checks::base_names(graph, &common);
            let verb = |w: bool| if w { "write" } else { "read" };
            let d = Diagnostic {
                kind: CheckKind::DataRace,
                severity: Severity::Warning,
                analysis: sol.analysis().to_string(),
                node: first.node,
                site: first.site,
                span: first.span,
                message: format!(
                    "possible data race: {} may conflict with a concurrent {}",
                    verb(first.is_write),
                    verb(second.is_write),
                ),
                witness: vec![
                    format!("both may touch {names}"),
                    format!(
                        "{} may run in parallel with {}",
                        ctx_name(graph, tm, cf),
                        ctx_name(graph, tm, cs)
                    ),
                ],
                related_spans: vec![second.span],
                related_sites: vec![second.site],
            };
            seen.insert(key, d);
        }
    }
}

/// The base sets' intersection, minus bases that cannot be shared: a
/// function's code is immutable, and a common `Local` base with both
/// accesses direct means two distinct frames, not one location.
fn conflicting_bases(graph: &Graph, a: &Access, b: &Access) -> Vec<BaseId> {
    a.bases
        .iter()
        .copied()
        .filter(|x| b.bases.binary_search(x).is_ok())
        .filter(|&x| match graph.base(x).kind {
            BaseKind::Func { .. } => false,
            BaseKind::Local { .. } => a.indirect || b.indirect,
            _ => true,
        })
        .collect()
}

/// Human-readable context label for witness text.
fn ctx_name(graph: &Graph, tm: &vdg::graph::ThreadModel, c: &Ctx) -> String {
    match c {
        Ctx::Main => "main".to_string(),
        Ctx::Spawn(i) => format!("thread `{}`", graph.func(tm.spawns[*i].callee).name),
    }
}
