//! The worklist driver shared by the CI, Weihl and k=1 solvers.
//!
//! The paper's CI analysis is one worklist algorithm (§3, Figure 1), and
//! Weihl's and the k=1 analyses are the same algorithm over other slots.
//! A solver names its slots with a key — an output (CI), an output or
//! the one program-wide store (Weihl), an (output, context) pair (k=1) —
//! and implements [`Slots`]: the set of a slot, the consumers of a slot
//! (inputs of its graph) and the transfer of one delivered pair. The
//! driver owns everything else: the pair interner, both worklists, the
//! emission buffer, the work counters and the step budget. Every pair a
//! solver derives is committed by [`commit`], and every pair it consumes
//! is delivered by [`deliver`].
//!
//! Under [`Propagation::Delta`] the worklist carries slots whose set has
//! a pending delta; a pop hands the whole batch to every consumer. A
//! set's pending delta is the slot's queued flag: a commit queues the
//! slot only when its delta was empty before, so a slot is never queued
//! twice, even when a transfer emits into the slot whose batch it is
//! consuming. Under [`Propagation::Naive`] the worklist carries single
//! `(consumer, slot, pair)` deliveries.
//!
//! The budget is checked before every pop: once `flow_ins` reaches
//! [`Worklist::step_limit`], [`run`] returns with the worklist non-empty
//! ([`Worklist::exhausted`]). A delta pop delivers its whole batch, so a
//! run may end up to one batch past the limit; a later [`run`] with a
//! larger limit resumes to the same fixpoint.

use crate::ci::WorklistOrder;
use crate::pairset::{PairId, PairInterner, PairSet, Propagation};
use crate::path::Pair;
use std::collections::VecDeque;
use vdg::graph::{Graph, InputId, NodeId};

/// The driver's work counters (the paper's §4.2 cost metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    /// Pair deliveries consumed: one per `(consumer, pair)`, under
    /// either discipline.
    pub(crate) flow_ins: u64,
    /// Commits that grew a slot's set.
    pub(crate) flow_outs: u64,
    /// Emissions the slot's set already held.
    pub(crate) dedup_hits: u64,
    /// Batched deliveries: one per (delta pop, consumer).
    pub(crate) delta_batches: u64,
}

/// The driver state of one solve, keyed by the solver's slot type `K`.
#[derive(Debug, Clone)]
pub(crate) struct Worklist<K> {
    propagation: Propagation,
    order: WorklistOrder,
    /// Hash-conses every committed pair.
    pub(crate) interner: PairInterner,
    naive: VecDeque<(InputId, K, PairId)>,
    delta: VecDeque<K>,
    /// Reused by every delivery (no allocation in the hot loop).
    em: Vec<(K, Pair)>,
    pub(crate) counters: Counters,
    /// [`run`] stops before a pop once `flow_ins` reaches this.
    pub(crate) step_limit: u64,
}

impl<K: Copy> Worklist<K> {
    /// Empty worklists, zero counters and no budget.
    pub(crate) fn new(propagation: Propagation, order: WorklistOrder) -> Self {
        Worklist {
            propagation,
            order,
            interner: PairInterner::new(),
            naive: VecDeque::new(),
            delta: VecDeque::new(),
            em: Vec::new(),
            counters: Counters::default(),
            step_limit: u64::MAX,
        }
    }

    /// Whether the last [`run`] stopped on the budget rather than at
    /// fixpoint.
    pub(crate) fn exhausted(&self) -> bool {
        !self.naive.is_empty() || !self.delta.is_empty()
    }

    /// The batch count, or `None` under [`Propagation::Naive`].
    pub(crate) fn delta_batches(&self) -> Option<u64> {
        match self.propagation {
            Propagation::Naive => None,
            Propagation::Delta => Some(self.counters.delta_batches),
        }
    }
}

fn pop<T>(order: WorklistOrder, q: &mut VecDeque<T>) -> Option<T> {
    match order {
        WorklistOrder::Fifo => q.pop_front(),
        WorklistOrder::Lifo => q.pop_back(),
    }
}

/// What a solver supplies to the driver; `'g` is its graph's lifetime.
pub(crate) trait Slots<'g> {
    /// Names one pair set.
    type Key: Copy;

    /// The driver state.
    fn worklist(&mut self) -> &mut Worklist<Self::Key>;

    /// The set of `key`, beside the driver state. `None` drops an
    /// emission to `key` before its pair is interned (the demand mask).
    fn slot(&mut self, key: Self::Key) -> Option<(&mut PairSet, &mut Worklist<Self::Key>)>;

    /// The graph the consumers are inputs of.
    fn graph(&self) -> &'g Graph;

    /// The inputs that consume the pairs of `key`.
    fn consumers(&self, key: Self::Key) -> &'g [InputId];

    /// The transfer function: `pair`, committed to `key`, arrives on
    /// `port` of `node`; pushes the pairs it derives into `em`.
    fn transfer(
        &mut self,
        node: NodeId,
        port: usize,
        key: Self::Key,
        pair: Pair,
        em: &mut Vec<(Self::Key, Pair)>,
    );
}

/// Commits `pair` to `key` and queues its deliveries.
#[inline]
pub(crate) fn commit<'g, S: Slots<'g>>(s: &mut S, key: S::Key, pair: Pair) {
    let Some((set, wl)) = s.slot(key) else {
        return;
    };
    let id = wl.interner.intern(pair);
    let queued = set.has_delta();
    if !set.insert(id) {
        wl.counters.dedup_hits += 1;
        return;
    }
    wl.counters.flow_outs += 1;
    let naive = wl.propagation == Propagation::Naive;
    if naive {
        // Deliveries ride on the worklist; the delta is unused.
        set.take_delta();
    } else if queued {
        return;
    }
    let consumers = s.consumers(key);
    let wl = s.worklist();
    if naive {
        wl.naive.extend(consumers.iter().map(|&i| (i, key, id)));
    } else if !consumers.is_empty() {
        wl.delta.push_back(key);
    }
}

/// Applies the transfer for one delivered pair and commits what it
/// emits, in emission order.
#[inline]
pub(crate) fn deliver<'g, S: Slots<'g>>(
    s: &mut S,
    node: NodeId,
    port: usize,
    key: S::Key,
    pair: Pair,
) {
    let mut em = std::mem::take(&mut s.worklist().em);
    s.transfer(node, port, key, pair, &mut em);
    for &(k, p) in &em {
        commit(s, k, p);
    }
    em.clear();
    s.worklist().em = em;
}

/// Runs the worklist to fixpoint or until the budget runs out.
pub(crate) fn run<'g, S: Slots<'g>>(s: &mut S) {
    let g = s.graph();
    loop {
        let wl = s.worklist();
        if wl.counters.flow_ins >= wl.step_limit {
            return;
        }
        match wl.propagation {
            Propagation::Naive => {
                let Some((input, key, id)) = pop(wl.order, &mut wl.naive) else {
                    return;
                };
                wl.counters.flow_ins += 1;
                let pair = wl.interner.resolve(id);
                let info = g.input(input);
                deliver(s, info.node, info.port as usize, key, pair);
            }
            Propagation::Delta => {
                let Some(key) = pop(wl.order, &mut wl.delta) else {
                    return;
                };
                let (set, _) = s.slot(key).expect("a queued slot has a set");
                let batch = set.take_delta();
                for &input in s.consumers(key) {
                    let c = &mut s.worklist().counters;
                    c.delta_batches += 1;
                    c.flow_ins += batch.len() as u64;
                    let info = g.input(input);
                    for &id in &batch {
                        let pair = s.worklist().interner.resolve(PairId(id));
                        deliver(s, info.node, info.port as usize, key, pair);
                    }
                }
                if let Some((set, _)) = s.slot(key) {
                    set.recycle(batch);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstring::{analyze_callstring, CallStringConfig};
    use crate::ci::{analyze_ci, CiConfig, Solver};
    use crate::path::PathId;
    use vdg::build::{lower, BuildOptions};
    use vdg::graph::Graph;

    /// Two slots, each consumed by one input of `g` (which input does
    /// not matter). A pair `(0, n)` on a slot emits `(0, n + 1)` and
    /// `(0, n + 2)` back into the same slot and `(0, n)` into the other
    /// one, up to referent 20.
    struct Toy<'a> {
        wl: Worklist<usize>,
        sets: Vec<PairSet>,
        g: &'a Graph,
        inputs: &'a [InputId],
        deliveries: u64,
    }

    impl<'a> Slots<'a> for Toy<'a> {
        type Key = usize;

        fn worklist(&mut self) -> &mut Worklist<usize> {
            &mut self.wl
        }

        fn slot(&mut self, key: usize) -> Option<(&mut PairSet, &mut Worklist<usize>)> {
            Some((&mut self.sets[key], &mut self.wl))
        }

        fn graph(&self) -> &'a Graph {
            self.g
        }

        fn consumers(&self, key: usize) -> &'a [InputId] {
            &self.inputs[key..=key]
        }

        fn transfer(
            &mut self,
            _: NodeId,
            _: usize,
            key: usize,
            pair: Pair,
            em: &mut Vec<(usize, Pair)>,
        ) {
            self.deliveries += 1;
            let mut queued: Vec<usize> = self.wl.delta.iter().copied().collect();
            queued.sort_unstable();
            queued.dedup();
            assert_eq!(queued.len(), self.wl.delta.len(), "a slot queued twice");
            let n = pair.referent.0;
            if n < 20 {
                em.push((key, Pair::new(PathId(0), PathId(n + 1))));
                em.push((key, Pair::new(PathId(0), PathId(n + 2))));
            }
            em.push((1 - key, pair));
        }
    }

    #[test]
    fn a_slot_emitting_into_itself_is_queued_once() {
        let g = graph_of("int g; int main(void) { int *p; p = &g; return *p; }");
        let inputs = [InputId(0), InputId(1)];
        for propagation in [Propagation::Delta, Propagation::Naive] {
            let mut t = Toy {
                wl: Worklist::new(propagation, WorklistOrder::Fifo),
                sets: vec![PairSet::new(); 2],
                g: &g,
                inputs: &inputs,
                deliveries: 0,
            };
            commit(&mut t, 0, Pair::new(PathId(0), PathId(0)));
            run(&mut t);
            assert!(!t.wl.exhausted());
            // Both slots hold referents 0..=21, each delivered once.
            for set in &t.sets {
                assert_eq!(set.len(), 22);
            }
            assert_eq!(t.deliveries, 44);
            assert_eq!(t.wl.counters.flow_ins, 44);
            assert_eq!(t.wl.counters.flow_outs, 44);
        }
    }

    fn graph_of(src: &str) -> Graph {
        let p = cfront::compile(src).expect("compiles");
        lower(&p, &BuildOptions::default()).expect("lowers")
    }

    const LIST: &str = "struct node { int v; struct node *next; };\n\
         struct node *cons(int v, struct node *t) {\n\
           struct node *n; n = (struct node*)malloc(sizeof(struct node));\n\
           n->v = v; n->next = t; return n; }\n\
         int *pick(int *a, int *b, int c) { if (c) return a; return b; }\n\
         int g0; int g1;\n\
         int main(void) { struct node *l; int *p; l = cons(1, cons(2, NULL));\n\
           p = pick(&g0, &g1, getchar());\n\
           while (l != NULL) { l = l->next; } return *p; }";

    #[test]
    fn an_exhausted_run_resumes_to_the_same_fixpoint() {
        let g = graph_of(LIST);
        for propagation in [Propagation::Delta, Propagation::Naive] {
            let cfg = CiConfig {
                propagation,
                ..CiConfig::default()
            };
            let fresh = analyze_ci(&g, &cfg);
            let mut s = Solver::new(&g, cfg);
            s.seed();
            s.wl.step_limit = 5;
            run(&mut s);
            assert!(s.wl.exhausted(), "5 steps cannot reach the fixpoint");
            let stopped_at = s.wl.counters.flow_ins;
            assert!((5..fresh.flow_ins).contains(&stopped_at), "{stopped_at}");
            s.wl.step_limit = u64::MAX;
            run(&mut s);
            assert!(!s.wl.exhausted());
            let resumed = s.finish();
            for o in g.output_ids() {
                assert_eq!(resumed.pairs(o), fresh.pairs(o), "output {o}");
            }
            assert_eq!(resumed.flow_ins, fresh.flow_ins);
            assert_eq!(resumed.flow_outs, fresh.flow_outs);
        }
    }

    #[test]
    fn callstring_runs_out_of_a_tiny_budget() {
        let g = graph_of(LIST);
        for propagation in [Propagation::Delta, Propagation::Naive] {
            let cfg = |max_steps| CallStringConfig {
                max_steps,
                propagation,
                ..CallStringConfig::default()
            };
            let err = analyze_callstring(&g, &cfg(3)).expect_err("3 steps are too few");
            assert_eq!(err.steps, 3);
            // The budget bounds the deliveries the fixpoint needs: all of
            // them succeed, one fewer fails.
            let need = analyze_callstring(&g, &cfg(u64::MAX))
                .expect("no budget")
                .flow_ins;
            assert!(analyze_callstring(&g, &cfg(need)).is_ok());
            assert!(analyze_callstring(&g, &cfg(need - 1)).is_err());
        }
    }
}
