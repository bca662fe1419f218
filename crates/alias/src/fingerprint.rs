//! Content-addressed graph and function fingerprints, and the
//! conservative call targets demand slicing assumes.
//!
//! The incremental layer (`engine::incremental`) replays a cached run
//! whose VDG is unchanged id-for-id. [`GraphIndex`] decides that: a
//! 64-bit content hash per function over the contiguous node slice the
//! function owns — node kinds (with graph-local ids replaced by stable
//! names such as a global's name or `func:local`), output value kinds,
//! and intra-function edge offsets — folded with everything that pins
//! the id layout into one whole-graph fingerprint. Two functions with
//! equal fingerprints lower to isomorphic subgraphs; two graphs with
//! equal fingerprints are identical id-for-id, so a cached solution for
//! one is exact for the other.

use crate::fxhash::{HashMap, HashSet};
use vdg::graph::{BaseKind, Graph, NodeId, NodeKind, OutputId, VFuncId, ValueKind};

/// FNV-1a, 64-bit — the workspace-standard dependency-free hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds one `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed string (self-delimiting).
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write(s.as_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Convenience one-shot digest of a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One-shot digest of several parts, each length-prefixed so the
/// concatenation is unambiguous: `["ab", "c"]` and `["a", "bc"]` hash
/// differently. The campaign runner keys its deduplication maps with
/// this (check kind + source line, property + solver + repro).
pub fn fnv64_parts(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv64::new();
    for p in parts {
        h.write_u32(p.len() as u32);
        h.write(p);
    }
    h.finish()
}

/// Per-graph content fingerprints.
///
/// Built once per lowered graph, by a cached run (to decide a graph
/// replay), the store, campaigns and `ruf95 stats`.
pub struct GraphIndex {
    /// Content fingerprint per function (`VFuncId`-indexed).
    pub func_fps: Vec<u64>,
    /// Whole-graph fingerprint: equal fingerprints mean the two graphs
    /// are isomorphic id-for-id, so a cached solution replays verbatim.
    pub graph_fp: u64,
    /// When `Some`, stable naming is ambiguous (duplicate keys, Cooper
    /// companion bases, non-contiguous id ranges), so equal fingerprints
    /// do not prove two graphs identical and a cached run must not
    /// replay on them.
    pub unsafe_reason: Option<String>,
}

/// The id layout the fingerprints hash: stable base keys and each
/// function's contiguous node and output ranges.
struct Layout {
    /// Stable key per base-location (`BaseId`-indexed).
    base_keys: Vec<String>,
    /// First owned node id per function.
    node_start: Vec<u32>,
    /// One past the last owned node id per function.
    node_end: Vec<u32>,
    /// Smallest owned output id per function.
    out_start: Vec<u32>,
}

/// The stable key of one base-location. Kind-prefixed so keys cannot
/// collide across kinds.
///
/// String literals are keyed here by their program-wide sequence
/// number, which shifts whenever a literal is added or removed earlier
/// in the program. [`GraphIndex::build`] re-keys them as
/// `s:<owner>:<k>` (the k-th literal referenced by function `owner`),
/// so that an edit inside one function leaves every other function's
/// fingerprint alone.
pub fn stable_base_key(g: &Graph, b: vdg::graph::BaseId) -> String {
    match &g.base(b).kind {
        BaseKind::Global { name } => format!("g:{name}"),
        BaseKind::Local { func, name } => format!("l:{}:{name}", g.func(*func).name),
        BaseKind::Heap { site } => format!("h:{site}"),
        BaseKind::StrLit { index } => format!("s:{index}"),
        BaseKind::Func { func } => format!("f:{}", g.func(*func).name),
    }
}

impl GraphIndex {
    /// Builds the index for `graph`.
    pub fn build(graph: &Graph) -> GraphIndex {
        let node_owner = crate::modref::node_owner_map(graph);
        let nf = graph.func_count();
        let mut unsafe_reason = None;

        // A string-literal base's program-wide sequence number shifts
        // whenever a literal appears or disappears earlier in the
        // program, which would let an edit in one function change
        // every later function's fingerprint. Re-key each literal by
        // the function whose node references it plus a per-function
        // counter: edits then only perturb the edited function's own
        // literal keys.
        let mut lit_owner: HashMap<u32, VFuncId> = HashMap::default();
        for id in 0..graph.node_count() as u32 {
            if let NodeKind::Base(b) = graph.node(NodeId(id)).kind {
                if matches!(graph.base(b).kind, BaseKind::StrLit { .. }) {
                    lit_owner.entry(b.0).or_insert(node_owner[id as usize]);
                }
            }
        }
        let mut lit_count: HashMap<u32, u32> = HashMap::default();
        let mut base_keys = Vec::with_capacity(graph.base_count());
        let mut seen_keys = HashSet::default();
        for b in graph.base_ids() {
            if graph.base(b).cooper_older.is_some() {
                unsafe_reason
                    .get_or_insert_with(|| "graph uses Cooper companion bases".to_string());
            }
            let key = match (&graph.base(b).kind, lit_owner.get(&b.0)) {
                (BaseKind::StrLit { .. }, Some(&f)) => {
                    let c = lit_count.entry(f.0).or_insert(0);
                    let k = *c;
                    *c += 1;
                    format!("s:{}:{k}", graph.func(f).name)
                }
                _ => stable_base_key(graph, b),
            };
            if !seen_keys.insert(key.clone()) {
                unsafe_reason.get_or_insert_with(|| format!("duplicate base key `{key}`"));
            }
            base_keys.push(key);
        }

        let mut seen_names = HashSet::default();
        for f in graph.func_ids() {
            let name = &graph.func(f).name;
            if !seen_names.insert(name) {
                unsafe_reason.get_or_insert_with(|| format!("duplicate function name `{name}`"));
            }
        }

        // Node and output ranges per function. Both are contiguous by
        // construction; verify rather than trust.
        let mut node_start = vec![u32::MAX; nf];
        let mut node_end = vec![0u32; nf];
        let mut node_count = vec![0u32; nf];
        for (i, &f) in node_owner.iter().enumerate() {
            let i = i as u32;
            let fi = f.0 as usize;
            node_start[fi] = node_start[fi].min(i);
            node_end[fi] = node_end[fi].max(i + 1);
            node_count[fi] += 1;
        }
        let mut out_start = vec![u32::MAX; nf];
        let mut out_end = vec![0u32; nf];
        let mut out_count = vec![0u32; nf];
        for o in graph.output_ids() {
            let f = node_owner[graph.output(o).node.0 as usize];
            let fi = f.0 as usize;
            out_start[fi] = out_start[fi].min(o.0);
            out_end[fi] = out_end[fi].max(o.0 + 1);
            out_count[fi] += 1;
        }
        for fi in 0..nf {
            if node_start[fi] == u32::MAX {
                node_start[fi] = node_end[fi];
            }
            if out_start[fi] == u32::MAX {
                out_start[fi] = out_end[fi];
            }
            if node_end[fi] - node_start[fi] != node_count[fi]
                || out_end[fi] - out_start[fi] != out_count[fi]
            {
                unsafe_reason.get_or_insert_with(|| {
                    format!(
                        "non-contiguous id range for `{}`",
                        graph.func(VFuncId(fi as u32)).name
                    )
                });
            }
        }

        let layout = Layout {
            base_keys,
            node_start,
            node_end,
            out_start,
        };
        let func_fps: Vec<u64> = (0..nf)
            .map(|fi| layout.func_fingerprint(graph, VFuncId(fi as u32)))
            .collect();
        GraphIndex {
            graph_fp: layout.graph_fingerprint(graph, &func_fps),
            func_fps,
            unsafe_reason,
        }
    }
}

impl Layout {
    /// Content fingerprint of `f`: the function's node slice with every
    /// graph-local id replaced by a stable name or an intra-function
    /// offset. Equal fingerprints ⇒ isomorphic function subgraphs.
    fn func_fingerprint(&self, g: &Graph, f: VFuncId) -> u64 {
        let fi = f.0 as usize;
        let info = g.func(f);
        let mut h = Fnv64::new();
        h.write_str(&info.name);
        h.write_u32(info.address_taken as u32);
        h.write_u32(info.returns.len() as u32);
        h.write_u32((info.entry.0).wrapping_sub(self.node_start[fi]));
        let (ns, ne) = (self.node_start[fi], self.node_end[fi]);
        h.write_u32(ne - ns);
        for id in ns..ne {
            let n = g.node(NodeId(id));
            self.hash_kind(g, &n.kind, &mut h);
            h.write_u32(n.outputs.len() as u32);
            for &o in &n.outputs {
                h.write_u32(match g.output(o).kind {
                    ValueKind::Store => 0,
                    ValueKind::Ptr => 1,
                    ValueKind::Func => 2,
                    ValueKind::Agg { has_ptr: false } => 3,
                    ValueKind::Agg { has_ptr: true } => 4,
                    ValueKind::Scalar => 5,
                });
            }
            h.write_u32(n.inputs.len() as u32);
            for &inp in &n.inputs {
                let src = g.input(inp).src;
                let src_node = g.output(src).node;
                // Intra-function by construction: offset of the source
                // node, plus the port index of the source output.
                h.write_u32((src_node.0).wrapping_sub(ns));
                let port = g
                    .node(src_node)
                    .outputs
                    .iter()
                    .position(|&x| x == src)
                    .unwrap_or(usize::MAX) as u32;
                h.write_u32(port);
            }
        }
        h.finish()
    }

    fn hash_base(&self, g: &Graph, b: vdg::graph::BaseId, h: &mut Fnv64) {
        h.write_str(&self.base_keys[b.0 as usize]);
        h.write_u32(g.base(b).single_instance as u32);
    }

    fn hash_kind(&self, g: &Graph, kind: &NodeKind, h: &mut Fnv64) {
        match kind {
            NodeKind::Base(b) => {
                h.write_u32(0);
                self.hash_base(g, *b, h);
            }
            NodeKind::Alloc(b) => {
                h.write_u32(1);
                self.hash_base(g, *b, h);
            }
            NodeKind::FuncConst(b) => {
                h.write_u32(2);
                self.hash_base(g, *b, h);
            }
            NodeKind::InitStore => h.write_u32(3),
            NodeKind::ScalarConst => h.write_u32(4),
            NodeKind::NullConst => h.write_u32(5),
            NodeKind::Member(fid) => {
                h.write_u32(6);
                h.write_str(g.field_name(*fid));
            }
            NodeKind::IndexElem => h.write_u32(7),
            NodeKind::PassThrough => h.write_u32(8),
            NodeKind::ExtractField(fid) => {
                h.write_u32(9);
                h.write_str(g.field_name(*fid));
            }
            NodeKind::ExtractElem => h.write_u32(10),
            NodeKind::Primop => h.write_u32(11),
            NodeKind::Gamma => h.write_u32(12),
            NodeKind::Lookup { indirect } => {
                h.write_u32(13);
                h.write_u32(*indirect as u32);
            }
            NodeKind::Update { indirect } => {
                h.write_u32(14);
                h.write_u32(*indirect as u32);
            }
            NodeKind::Call => h.write_u32(15),
            NodeKind::Return { func } => {
                h.write_u32(16);
                h.write_str(&g.func(*func).name);
            }
            NodeKind::Entry { func } => {
                h.write_u32(17);
                h.write_str(&g.func(*func).name);
            }
            NodeKind::CopyMem => h.write_u32(18),
            NodeKind::Free => h.write_u32(19),
        }
    }

    /// Whole-graph fingerprint: per-function fingerprints in id order
    /// plus everything that pins the id layout (node/output ranges,
    /// base table, field table, root, call-graph reachability). Equal
    /// graph fingerprints ⇒ graphs identical id-for-id, so a cached
    /// solution for one renders correctly against the other.
    fn graph_fingerprint(&self, g: &Graph, func_fps: &[u64]) -> u64 {
        let mut h = Fnv64::new();
        h.write_u32(g.func_count() as u32);
        for f in g.func_ids() {
            let fi = f.0 as usize;
            h.write_str(&g.func(f).name);
            h.write_u64(func_fps[fi]);
            h.write_u32(self.node_start[fi]);
            h.write_u32(self.out_start[fi]);
        }
        h.write_u32(g.base_count() as u32);
        for b in g.base_ids() {
            h.write_str(&self.base_keys[b.0 as usize]);
            h.write_u32(g.base(b).single_instance as u32);
        }
        h.write_str(&g.func(g.root()).name);
        for a in g.func_ids() {
            for b in g.func_ids() {
                h.write_u32(g.can_reach(a, b) as u32);
            }
        }
        h.finish()
    }
}

/// The conservative set of call targets demand slicing assumes for a
/// call, before any points-to fact is known: a structural backward walk
/// from the call's function input through the value-preserving nodes —
/// `PassThrough` forwards input 0, `Gamma` unions every input —
/// collecting the `FuncConst` feeds, so a function value copied through
/// scalar locals and merged over branches still resolves to the union
/// of named targets instead of every function. Nodes that cannot carry
/// a function value (scalar/null constants, primops) contribute
/// nothing; any other producer (a load from memory, a call result)
/// makes the feed opaque and the answer falls back to every function,
/// as does a walk that finds no target at all.
pub(crate) fn call_targets(g: &Graph, call: NodeId) -> Vec<VFuncId> {
    let mut funcs: Vec<VFuncId> = Vec::new();
    let mut seen: HashSet<OutputId> = HashSet::default();
    let mut wl = vec![g.input_src(call, 0)];
    while let Some(o) = wl.pop() {
        if !seen.insert(o) {
            continue;
        }
        let id = g.output(o).node;
        match &g.node(id).kind {
            NodeKind::FuncConst(b) => match g.base(*b).kind {
                BaseKind::Func { func } => funcs.push(func),
                _ => return g.func_ids().collect(),
            },
            NodeKind::ScalarConst | NodeKind::NullConst | NodeKind::Primop => {}
            NodeKind::PassThrough => wl.push(g.input_src(id, 0)),
            NodeKind::Gamma => {
                for port in 0..g.node(id).inputs.len() {
                    wl.push(g.input_src(id, port));
                }
            }
            _ => return g.func_ids().collect(),
        }
    }
    if funcs.is_empty() {
        return g.func_ids().collect();
    }
    funcs.sort_unstable();
    funcs.dedup();
    funcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdg::build::{lower, BuildOptions};

    fn graph_of(src: &str) -> Graph {
        let p = cfront::compile(src).expect("compiles");
        lower(&p, &BuildOptions::default()).expect("lowers")
    }

    fn only_call(g: &Graph) -> NodeId {
        // The synthetic root's call to `main` is not under test.
        let owner = crate::modref::node_owner_map(g);
        let main = g.func_ids().find(|&f| g.func(f).name == "main").unwrap();
        let calls: Vec<NodeId> = g
            .nodes()
            .filter(|(id, n)| matches!(n.kind, NodeKind::Call) && owner[id.0 as usize] == main)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(
            calls.len(),
            1,
            "fixture should have exactly one call in main"
        );
        calls[0]
    }

    fn target_names(g: &Graph, call: NodeId) -> Vec<String> {
        let mut v: Vec<String> = call_targets(g, call)
            .into_iter()
            .map(|f| g.func(f).name.clone())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn copied_func_const_call_resolves_to_the_union_of_targets() {
        // `p` is set to `f` then conditionally to `g`: the call's
        // function input is a Gamma over two FuncConst feeds, and the
        // walk must answer {f, g} — not every function (`h` and `main`
        // would previously leak in).
        let g = graph_of(
            "int c;\n\
             int f(int x) { return x + 1; }\n\
             int g(int x) { return x + 2; }\n\
             int h(int x) { return x + 3; }\n\
             int main(void) { int (*p)(int); p = f; if (c) { p = g; } return p(1); }",
        );
        assert_eq!(target_names(&g, only_call(&g)), ["f", "g"]);
    }

    #[test]
    fn direct_func_const_call_still_resolves_to_one_target() {
        let g = graph_of(
            "int f(int x) { return x; }\n\
             int h(int x) { return x + 1; }\n\
             int main(void) { return f(2); }",
        );
        assert_eq!(target_names(&g, only_call(&g)), ["f"]);
    }

    #[test]
    fn memory_fed_call_falls_back_to_every_function() {
        // The callee comes out of a global slot (a Lookup): the
        // structural walk cannot see through the store and must keep
        // the conservative every-function answer.
        let g = graph_of(
            "int (*gp)(int);\n\
             int f(int x) { return x; }\n\
             int main(void) { gp = f; return gp(3); }",
        );
        let call = only_call(&g);
        assert_eq!(
            call_targets(&g, call).len(),
            g.func_count(),
            "a load-fed callee stays opaque"
        );
    }
}
