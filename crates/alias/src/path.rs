//! Access paths and points-to pairs (paper §2).
//!
//! An access path is an optional base-location followed by a sequence of
//! access operators (struct member or array element). Paths with a base
//! are *locations* (indirection through the store); paths without are
//! *offsets* (relative addressing into aggregate values). Careful
//! interning guarantees a path is aliased only to its prefixes; union
//! member accesses are identities (handled at VDG construction), which is
//! how static aliasing inside unions is modeled.

use crate::fxhash::HashMap;
use vdg::graph::{BaseId, BaseKind, FieldId, Graph, VFuncId};

/// An interned access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

/// One access operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOp {
    /// Struct member selection. Union members never generate operators.
    Field(FieldId),
    /// Array element access; all subscripts collapse to one operator.
    Index,
}

#[derive(Debug, Clone, PartialEq)]
struct PathNode {
    parent: Option<PathId>,
    op: Option<AccessOp>,
    base: Option<BaseId>,
    depth: u32,
    has_index: bool,
}

/// A points-to pair `(path, referent)`: indirecting through any location
/// (or offset) denoted by `path` may return any location denoted by
/// `referent` (paper §2). Singleton sets double as definite pairs,
/// enabling strong updates with no extra representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pair {
    /// The location (or offset) being indirected through.
    pub path: PathId,
    /// The location (or function) it may yield.
    pub referent: PathId,
}

impl Pair {
    /// Creates a pair.
    pub fn new(path: PathId, referent: PathId) -> Self {
        Pair { path, referent }
    }
}

/// Interning table for access paths over a VDG's base-locations.
///
/// Beyond the graph's own bases, the table can mint *synthetic* clones
/// of heap bases qualified by a call site (paper §2 footnote 3: "naming
/// such base-locations with a call string instead of a single allocation
/// site would be a trivial modification"). Synthetic [`BaseId`]s extend
/// the graph's id space; collapse them with
/// [`PathTable::collapse_synthetic`] before consulting the graph.
#[derive(Debug, Clone)]
pub struct PathTable {
    nodes: Vec<PathNode>,
    children: HashMap<(PathId, AccessOp), PathId>,
    base_roots: Vec<PathId>,
    /// Per base: does it denote at most one runtime location?
    base_single: Vec<bool>,
    /// Per base: the function it names, for function-constant bases.
    base_func: Vec<Option<VFuncId>>,
    /// Per base: the Cooper "older instances" companion, if any.
    base_older: Vec<Option<BaseId>>,
    /// Number of real (graph-backed) bases; ids at and beyond this are
    /// synthetic clones.
    n_real: usize,
    /// Per synthetic base: (original base, qualifying call node id).
    synth_origin: Vec<(BaseId, u32)>,
    synth_map: HashMap<(BaseId, u32), BaseId>,
}

/// Two tables are equal when every path id and base id means the same
/// thing in both. `children` and `synth_map` are lookup indexes over
/// `nodes` and `synth_origin`, so they are left out of the comparison.
impl PartialEq for PathTable {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.base_roots == other.base_roots
            && self.base_single == other.base_single
            && self.base_func == other.base_func
            && self.base_older == other.base_older
            && self.n_real == other.n_real
            && self.synth_origin == other.synth_origin
    }
}

impl PathTable {
    /// The empty offset path `ε`.
    pub const EMPTY: PathId = PathId(0);

    /// Builds a table with one root path per base-location of `graph`.
    pub fn for_graph(graph: &Graph) -> Self {
        let mut t = PathTable {
            nodes: vec![PathNode {
                parent: None,
                op: None,
                base: None,
                depth: 0,
                has_index: false,
            }],
            children: HashMap::default(),
            base_roots: Vec::new(),
            base_single: Vec::new(),
            base_func: Vec::new(),
            base_older: Vec::new(),
            n_real: 0,
            synth_origin: Vec::new(),
            synth_map: HashMap::default(),
        };
        for b in graph.base_ids() {
            let info = graph.base(b);
            let id = PathId(t.nodes.len() as u32);
            t.nodes.push(PathNode {
                parent: None,
                op: None,
                base: Some(b),
                depth: 0,
                has_index: false,
            });
            t.base_roots.push(id);
            t.base_single.push(info.single_instance);
            t.base_func.push(match info.kind {
                BaseKind::Func { func } => Some(func),
                _ => None,
            });
            t.base_older.push(info.cooper_older);
        }
        t.n_real = t.base_roots.len();
        t
    }

    /// Whether `b` is a synthetic (call-string-qualified) base.
    pub fn is_synthetic(&self, b: BaseId) -> bool {
        (b.0 as usize) >= self.n_real
    }

    /// The real base a (possibly synthetic) base denotes storage of.
    pub fn origin_base(&self, b: BaseId) -> BaseId {
        if self.is_synthetic(b) {
            self.synth_origin[b.0 as usize - self.n_real].0
        } else {
            b
        }
    }

    /// Mints (or retrieves) the clone of heap base `b` qualified by call
    /// node `via`. Cloning a synthetic base is the identity (k = 1).
    pub fn heap_clone(&mut self, b: BaseId, via: u32) -> BaseId {
        if self.is_synthetic(b) {
            return b;
        }
        if let Some(&c) = self.synth_map.get(&(b, via)) {
            return c;
        }
        let id = BaseId(self.base_roots.len() as u32);
        let root = PathId(self.nodes.len() as u32);
        self.nodes.push(PathNode {
            parent: None,
            op: None,
            base: Some(id),
            depth: 0,
            has_index: false,
        });
        self.base_roots.push(root);
        self.base_single.push(false); // heap clones stay weak
        self.base_func.push(None);
        self.base_older.push(None);
        self.synth_origin.push((b, via));
        self.synth_map.insert((b, via), id);
        id
    }

    /// Rewrites any synthetic base in `p` back to its origin, producing a
    /// path comparable with site-named results.
    pub fn collapse_synthetic(&mut self, p: PathId) -> PathId {
        match self.base_of(p) {
            Some(b) if self.is_synthetic(b) => {
                let orig = self.origin_base(b);
                self.rebase(p, orig)
            }
            _ => p,
        }
    }

    /// The root path of a base-location.
    pub fn base_root(&self, b: BaseId) -> PathId {
        self.base_roots[b.0 as usize]
    }

    /// Number of interned paths.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table holds only the empty path.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Extends `p` with one access operator.
    pub fn child(&mut self, p: PathId, op: AccessOp) -> PathId {
        if let Some(&c) = self.children.get(&(p, op)) {
            return c;
        }
        let node = &self.nodes[p.0 as usize];
        let new = PathNode {
            parent: Some(p),
            op: Some(op),
            base: node.base,
            depth: node.depth + 1,
            has_index: node.has_index || matches!(op, AccessOp::Index),
        };
        let id = PathId(self.nodes.len() as u32);
        self.nodes.push(new);
        self.children.insert((p, op), id);
        id
    }

    /// The base of a path, if it is a location.
    pub fn base_of(&self, p: PathId) -> Option<BaseId> {
        self.nodes[p.0 as usize].base
    }

    /// Whether `p` is an offset (no base-location).
    pub fn is_offset(&self, p: PathId) -> bool {
        self.base_of(p).is_none()
    }

    /// The function named by a function-constant referent path.
    pub fn func_of(&self, p: PathId) -> Option<VFuncId> {
        let n = &self.nodes[p.0 as usize];
        if n.depth != 0 {
            return None;
        }
        n.base.and_then(|b| self.base_func[b.0 as usize])
    }

    /// Number of access operators on `p`.
    pub fn depth(&self, p: PathId) -> u32 {
        self.nodes[p.0 as usize].depth
    }

    /// The access operators of `p`, outermost-first (root to leaf).
    pub fn ops_of(&self, p: PathId) -> Vec<AccessOp> {
        let mut ops = Vec::with_capacity(self.depth(p) as usize);
        let mut cur = p;
        while let Some(op) = self.nodes[cur.0 as usize].op {
            ops.push(op);
            cur = self.nodes[cur.0 as usize]
                .parent
                .expect("op implies parent");
        }
        ops.reverse();
        ops
    }

    /// Whether `a` may-aliases `b` from above: a read (write) of `a` may
    /// observe (modify) a value written to `b`. True iff `a` is a prefix
    /// of `b` (paper Fig. 1, `dom`).
    pub fn dom(&self, a: PathId, b: PathId) -> bool {
        let da = self.depth(a);
        let db = self.depth(b);
        if da > db {
            return false;
        }
        let mut cur = b;
        for _ in 0..(db - da) {
            cur = self.nodes[cur.0 as usize].parent.expect("depth accounted");
        }
        cur == a
    }

    /// Whether `a` is strongly updateable: its base denotes a single
    /// runtime location and no operator on its spine is an array access.
    pub fn strongly_updateable(&self, a: PathId) -> bool {
        let n = &self.nodes[a.0 as usize];
        match n.base {
            Some(b) => self.base_single[b.0 as usize] && !n.has_index,
            None => false,
        }
    }

    /// Must-alias from above: a write of `a` must modify a value readable
    /// at `b` (paper Fig. 1, `strong-dom`). True iff `a` is strongly
    /// updateable and a prefix of `b`.
    pub fn strong_dom(&self, a: PathId, b: PathId) -> bool {
        self.strongly_updateable(a) && self.dom(a, b)
    }

    /// Appends an offset path to `a` (paper Fig. 1, `+`).
    pub fn append(&mut self, a: PathId, offset: PathId) -> PathId {
        debug_assert!(self.is_offset(offset), "append takes an offset");
        self.graft(a, offset, 0)
    }

    /// Re-interns `p`'s operators below depth `skip` onto `root`, root to
    /// leaf: the `child` calls a walk over `ops_of(p)[skip..]` would make,
    /// without collecting the operators first.
    fn graft(&mut self, root: PathId, p: PathId, skip: u32) -> PathId {
        let node = &self.nodes[p.0 as usize];
        if node.depth <= skip {
            return root;
        }
        let (parent, op) = (node.parent, node.op);
        let above = self.graft(root, parent.expect("op implies parent"), skip);
        self.child(above, op.expect("depth implies op"))
    }

    /// Prefix subtraction `b − a` (paper Fig. 1, `−`): the offset of `b`
    /// relative to its prefix `a`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `a` is not a prefix of `b`.
    pub fn subtract(&mut self, b: PathId, a: PathId) -> PathId {
        debug_assert!(self.dom(a, b), "subtract requires dom(a, b)");
        self.graft(Self::EMPTY, b, self.depth(a))
    }

    /// Strips a leading operator from an offset path, for aggregate value
    /// extraction. Returns `None` if the first operator differs.
    /// The empty path conservatively extracts to itself (whole-value
    /// pointers inside collapsed aggregates).
    pub fn strip_first(&mut self, p: PathId, op: AccessOp) -> Option<PathId> {
        if p == Self::EMPTY {
            return Some(Self::EMPTY);
        }
        if self.depth(p) == 0 {
            return None;
        }
        let mut first = p;
        while self.depth(first) > 1 {
            first = self.nodes[first.0 as usize]
                .parent
                .expect("depth implies parent");
        }
        if self.nodes[first.0 as usize].op != Some(op) {
            return None;
        }
        Some(self.graft(Self::EMPTY, p, 1))
    }

    /// The Cooper "older instances" companion base of `p`'s base, if any.
    pub fn cooper_older_of(&self, p: PathId) -> Option<BaseId> {
        self.base_of(p).and_then(|b| self.base_older[b.0 as usize])
    }

    /// Rebases `p` onto a different base-location, keeping its operators.
    pub fn rebase(&mut self, p: PathId, new_base: BaseId) -> PathId {
        self.graft(self.base_root(new_base), p, 0)
    }

    /// Rebuilds the table in *canonical* order: every real base root is
    /// kept, plus exactly the paths in `used` (with their prefixes) and
    /// the synthetic bases they mention, renumbered by structural
    /// content — synthetic bases by `(origin, call site)`, paths by
    /// `(base, operator sequence)`. Two solver runs that reach the same
    /// final pair sets through different schedules intern paths in
    /// different orders; canonicalizing at finish makes their results
    /// *numerically* identical, not merely identical up to rendering.
    ///
    /// Returns the new table and an old-id → new-id map (`u32::MAX`
    /// for dropped paths). [`PathTable::EMPTY`] always maps to itself.
    pub fn canonicalize(&self, used: &crate::fxhash::HashSet<PathId>) -> (PathTable, Vec<u32>) {
        let n = self.nodes.len();
        let mut keep = vec![false; n];
        keep[0] = true;
        for &r in &self.base_roots[..self.n_real] {
            keep[r.0 as usize] = true;
        }
        for &p in used {
            let mut cur = p;
            loop {
                let i = cur.0 as usize;
                if keep[i] {
                    break;
                }
                keep[i] = true;
                match self.nodes[i].parent {
                    Some(par) => cur = par,
                    None => break,
                }
            }
        }

        // Synthetic bases survive only if one of their paths did; they
        // renumber densely in (origin, call-site) order.
        let mut kept_synth: Vec<(BaseId, u32, BaseId)> = Vec::new();
        for (i, &(orig, via)) in self.synth_origin.iter().enumerate() {
            let old_b = BaseId((self.n_real + i) as u32);
            let root = self.base_roots[old_b.0 as usize];
            if keep[root.0 as usize] {
                kept_synth.push((orig, via, old_b));
            }
        }
        kept_synth.sort_unstable_by_key(|&(o, v, _)| (o.0, v));
        let mut synth_remap: HashMap<BaseId, BaseId> = HashMap::default();
        for (rank, &(_, _, old_b)) in kept_synth.iter().enumerate() {
            synth_remap.insert(old_b, BaseId((self.n_real + rank) as u32));
        }
        let map_base = |b: BaseId| -> BaseId {
            if (b.0 as usize) < self.n_real {
                b
            } else {
                synth_remap[&b]
            }
        };

        // Sort kept paths by structural key; prefixes sort before their
        // extensions, so parents always precede children.
        type Key = (u8, u32, Vec<(u8, u32)>);
        let key_of = |i: usize| -> Key {
            let node = &self.nodes[i];
            let (has_base, base) = match node.base {
                None => (0u8, 0u32),
                Some(b) => (1, map_base(b).0),
            };
            let ops: Vec<(u8, u32)> = self
                .ops_of(PathId(i as u32))
                .into_iter()
                .map(|op| match op {
                    AccessOp::Field(f) => (0u8, f.0),
                    AccessOp::Index => (1, 0),
                })
                .collect();
            (has_base, base, ops)
        };
        let mut order: Vec<(Key, u32)> = (0..n)
            .filter(|&i| keep[i])
            .map(|i| (key_of(i), i as u32))
            .collect();
        order.sort_unstable();

        let mut remap = vec![u32::MAX; n];
        for (new, (_, old)) in order.iter().enumerate() {
            remap[*old as usize] = new as u32;
        }
        debug_assert_eq!(remap[0], 0, "the empty path is minimal");

        let total_bases = self.n_real + kept_synth.len();
        let mut t = PathTable {
            nodes: Vec::with_capacity(order.len()),
            children: HashMap::default(),
            base_roots: vec![PathId(0); total_bases],
            base_single: self.base_single[..self.n_real].to_vec(),
            base_func: self.base_func[..self.n_real].to_vec(),
            base_older: self.base_older[..self.n_real].to_vec(),
            n_real: self.n_real,
            synth_origin: Vec::with_capacity(kept_synth.len()),
            synth_map: HashMap::default(),
        };
        for &(orig, via, old_b) in &kept_synth {
            let new_b = map_base(old_b);
            t.base_single.push(self.base_single[old_b.0 as usize]);
            t.base_func.push(self.base_func[old_b.0 as usize]);
            t.base_older.push(self.base_older[old_b.0 as usize]);
            t.synth_origin.push((orig, via));
            t.synth_map.insert((orig, via), new_b);
        }
        for (new, (_, old)) in order.iter().enumerate() {
            let on = &self.nodes[*old as usize];
            let parent = on.parent.map(|p| PathId(remap[p.0 as usize]));
            let base = on.base.map(map_base);
            t.nodes.push(PathNode {
                parent,
                op: on.op,
                base,
                depth: on.depth,
                has_index: on.has_index,
            });
            let id = PathId(new as u32);
            if let (Some(par), Some(op)) = (parent, on.op) {
                t.children.insert((par, op), id);
            }
            if on.parent.is_none() {
                if let Some(b) = base {
                    t.base_roots[b.0 as usize] = id;
                }
            }
        }
        (t, remap)
    }

    /// Renders a path for diagnostics/tables.
    pub fn display(&self, p: PathId, graph: &Graph) -> String {
        let mut s = match self.base_of(p) {
            Some(b) if self.is_synthetic(b) => {
                let (orig, via) = self.synth_origin[b.0 as usize - self.n_real];
                let info = graph.base(orig);
                format!("{}@call{}", info.display(), via)
            }
            Some(b) => {
                let info = graph.base(b);
                match &info.kind {
                    BaseKind::Func { func } => format!("fn:{}", graph.func(*func).name),
                    _ => info.display(),
                }
            }
            None => "ε".to_string(),
        };
        for op in self.ops_of(p) {
            match op {
                AccessOp::Field(f) => {
                    s.push('.');
                    s.push_str(graph.field_name(f));
                }
                AccessOp::Index => s.push_str("[*]"),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdg::graph::BaseInfo;

    fn table_with_bases(n: usize, single: &[bool]) -> (PathTable, Vec<BaseId>) {
        let mut g = Graph::new();
        let mut ids = Vec::new();
        for i in 0..n {
            ids.push(g.add_base(BaseInfo {
                kind: BaseKind::Global {
                    name: format!("g{i}"),
                },
                single_instance: single.get(i).copied().unwrap_or(true),
                cooper_older: None,
                site_expr: None,
            }));
        }
        (PathTable::for_graph(&g), ids)
    }

    #[test]
    fn interning_is_stable() {
        let (mut t, bs) = table_with_bases(1, &[true]);
        let root = t.base_root(bs[0]);
        let f = AccessOp::Field(FieldId(0));
        let a = t.child(root, f);
        let b = t.child(root, f);
        assert_eq!(a, b);
        let c = t.child(root, AccessOp::Index);
        assert_ne!(a, c);
    }

    #[test]
    fn dom_is_prefix() {
        let (mut t, bs) = table_with_bases(2, &[true, true]);
        let x = t.base_root(bs[0]);
        let y = t.base_root(bs[1]);
        let xf = t.child(x, AccessOp::Field(FieldId(0)));
        let xfg = t.child(xf, AccessOp::Field(FieldId(1)));
        assert!(t.dom(x, x));
        assert!(t.dom(x, xf));
        assert!(t.dom(x, xfg));
        assert!(t.dom(xf, xfg));
        assert!(!t.dom(xf, x));
        assert!(!t.dom(y, xf));
        assert!(!t.dom(xfg, xf));
    }

    #[test]
    fn strong_dom_requires_single_instance_and_no_index() {
        let (mut t, bs) = table_with_bases(2, &[true, false]);
        let strong = t.base_root(bs[0]);
        let weak = t.base_root(bs[1]);
        let strong_f = t.child(strong, AccessOp::Field(FieldId(0)));
        let strong_arr = t.child(strong, AccessOp::Index);
        assert!(t.strong_dom(strong, strong_f));
        assert!(t.strong_dom(strong_f, strong_f));
        assert!(!t.strong_dom(strong_arr, strong_arr));
        assert!(!t.strong_dom(weak, weak));
        // strong_dom implies dom.
        assert!(t.dom(strong_arr, strong_arr));
    }

    #[test]
    fn append_and_subtract_are_inverses() {
        let (mut t, bs) = table_with_bases(1, &[true]);
        let x = t.base_root(bs[0]);
        let off = {
            let f = t.child(PathTable::EMPTY, AccessOp::Field(FieldId(2)));
            t.child(f, AccessOp::Index)
        };
        let joined = t.append(x, off);
        assert_eq!(t.depth(joined), 2);
        let back = t.subtract(joined, x);
        assert_eq!(back, off);
        // Appending ε is the identity.
        assert_eq!(t.append(x, PathTable::EMPTY), x);
        assert_eq!(t.subtract(x, x), PathTable::EMPTY);
    }

    #[test]
    fn strip_first_peels_one_operator() {
        let (mut t, _) = table_with_bases(0, &[]);
        let f0 = AccessOp::Field(FieldId(0));
        let f1 = AccessOp::Field(FieldId(1));
        let p = {
            let a = t.child(PathTable::EMPTY, f0);
            t.child(a, f1)
        };
        let stripped = t.strip_first(p, f0).expect("matches");
        assert_eq!(t.ops_of(stripped), vec![f1]);
        assert_eq!(t.strip_first(p, f1), None);
        // ε extracts to itself (collapsed aggregates).
        assert_eq!(t.strip_first(PathTable::EMPTY, f0), Some(PathTable::EMPTY));
    }

    #[test]
    fn rebase_moves_operators() {
        let (mut t, bs) = table_with_bases(2, &[true, false]);
        let x = t.base_root(bs[0]);
        let xf = t.child(x, AccessOp::Field(FieldId(3)));
        let moved = t.rebase(xf, bs[1]);
        assert_eq!(t.base_of(moved), Some(bs[1]));
        assert_eq!(t.ops_of(moved), t.ops_of(xf));
    }

    #[test]
    fn synthetic_heap_clones() {
        let (mut t, bs) = table_with_bases(2, &[false, false]);
        let h = bs[0];
        let c1 = t.heap_clone(h, 7);
        let c2 = t.heap_clone(h, 7);
        let c3 = t.heap_clone(h, 9);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        assert!(t.is_synthetic(c1));
        assert!(!t.is_synthetic(h));
        assert_eq!(t.origin_base(c1), h);
        assert_eq!(t.origin_base(h), h);
        // Clones of clones are the identity (k = 1).
        assert_eq!(t.heap_clone(c1, 11), c1);
        // Clones are weakly updateable and collapse back to the origin.
        let root = t.base_root(c1);
        assert!(!t.strongly_updateable(root));
        let f = t.child(root, AccessOp::Field(FieldId(2)));
        let collapsed = t.collapse_synthetic(f);
        assert_eq!(t.base_of(collapsed), Some(h));
        assert_eq!(t.ops_of(collapsed), t.ops_of(f));
    }

    #[test]
    fn canonicalize_is_schedule_independent() {
        // Intern the same structural paths in two different orders;
        // canonical tables must agree numerically.
        let build = |flip: bool| {
            let (mut t, bs) = table_with_bases(2, &[true, false]);
            let f0 = AccessOp::Field(FieldId(0));
            let f1 = AccessOp::Field(FieldId(1));
            let mk = |t: &mut PathTable, b: BaseId, ops: &[AccessOp]| {
                let mut cur = t.base_root(b);
                for &op in ops {
                    cur = t.child(cur, op);
                }
                cur
            };
            let mut wanted = Vec::new();
            let specs: Vec<(BaseId, Vec<AccessOp>)> = vec![
                (bs[0], vec![f0]),
                (bs[1], vec![f1, AccessOp::Index]),
                (bs[0], vec![f0, f1]),
                (bs[1], vec![]),
            ];
            let order: Vec<usize> = if flip {
                (0..specs.len()).rev().collect()
            } else {
                (0..specs.len()).collect()
            };
            for i in order {
                let (b, ops) = &specs[i];
                wanted.push(mk(&mut t, *b, ops));
            }
            // A clone qualified by a call site, plus an unused path that
            // pruning must drop.
            let c = t.heap_clone(bs[1], 7);
            wanted.push(mk(&mut t, c, &[f0]));
            let _garbage = mk(&mut t, bs[0], &[AccessOp::Index, AccessOp::Index]);
            let used: crate::fxhash::HashSet<PathId> = wanted.iter().copied().collect();
            let (ct, remap) = t.canonicalize(&used);
            let mapped: Vec<PathId> = wanted.iter().map(|p| PathId(remap[p.0 as usize])).collect();
            (ct, mapped)
        };
        let (ta, ma) = build(false);
        let (tb, mb) = build(true);
        assert_eq!(ta.len(), tb.len());
        // The same structural path gets the same canonical id.
        let mut sa = ma.clone();
        let mut sb = mb.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
        for (&a, &b) in ma
            .iter()
            .zip(&mb[..4].iter().rev().copied().collect::<Vec<_>>())
        {
            // First four specs were interned in reversed order in `b`.
            assert_eq!(ta.ops_of(a), tb.ops_of(b));
        }
        // Structure survives: depth, bases, dom relations, synthetics.
        for &p in &ma {
            assert!(ta.depth(p) <= 2);
        }
        let synth = ma[4];
        let b = ta.base_of(synth).expect("based");
        assert!(ta.is_synthetic(b));
        // Garbage was pruned: ε + three roots (two real, one synthetic)
        // + the six used extensions; the two unused index paths are gone.
        assert_eq!(ta.len(), 9);
    }

    #[test]
    fn offsets_have_no_base() {
        let (mut t, bs) = table_with_bases(1, &[true]);
        assert!(t.is_offset(PathTable::EMPTY));
        let off = t.child(PathTable::EMPTY, AccessOp::Index);
        assert!(t.is_offset(off));
        assert!(!t.is_offset(t.base_root(bs[0])));
        assert!(!t.strongly_updateable(off));
    }
}
