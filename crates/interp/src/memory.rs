//! The interpreter's memory model: a heap of object trees addressed by
//! `(object, path)` locations, plus the abstraction map onto the
//! analysis' base-location/access-path vocabulary.

use alias::fxhash::HashMap;
use cfront::ast::ExprId;
use cfront::types::{RecordId, TypeId, TypeKind, TypeTable};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Where an object came from; the abstraction of its identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// A global variable.
    Global(u32),
    /// A local/parameter slot of some function activation. All
    /// activations share the abstraction (func, slot).
    Local {
        /// The owning function (a `cfront::ast::FuncId` index).
        func: u32,
        /// The variable slot within that function.
        slot: u32,
    },
    /// A heap object; identified by its allocating call expression
    /// (matching the VDG's one-base-per-static-site rule).
    Heap(ExprId),
    /// Storage of a string literal expression.
    Str(ExprId),
}

/// One concrete navigation step inside an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CStep {
    /// Struct field access (unions contribute no step; their members
    /// share storage).
    Field {
        /// The record the field belongs to.
        rec: RecordId,
        /// Field index within the record.
        idx: u32,
    },
    /// Array element access with a concrete index.
    Elem(u32),
}

/// How many steps a [`CPath`] holds without a heap allocation. Mini-C
/// locations are a field or element or two deep, so nearly every
/// pointer value, and every copy of one, stays allocation-free.
const PATH_INLINE: usize = 4;

/// The step list of a [`Loc`]: up to four steps inline, spilled
/// to the heap only beyond that. It behaves as a `[CStep]` slice:
/// equality, hashing and `Debug` see only the steps, never where they are
/// stored, so an inline path and a spilled one with the same steps are
/// the same path.
#[derive(Clone)]
pub struct CPath(PathRepr);

#[derive(Clone)]
enum PathRepr {
    Inline(u8, [CStep; PATH_INLINE]),
    Heap(Vec<CStep>),
}

impl CPath {
    /// The empty path (the whole object).
    pub const fn new() -> CPath {
        CPath(PathRepr::Inline(0, [CStep::Elem(0); PATH_INLINE]))
    }

    /// Appends a step, spilling to the heap past four steps.
    pub fn push(&mut self, step: CStep) {
        match &mut self.0 {
            PathRepr::Inline(len, steps) if (*len as usize) < PATH_INLINE => {
                steps[*len as usize] = step;
                *len += 1;
            }
            PathRepr::Inline(_, steps) => {
                let mut v = Vec::with_capacity(2 * PATH_INLINE);
                v.extend_from_slice(steps);
                v.push(step);
                self.0 = PathRepr::Heap(v);
            }
            PathRepr::Heap(v) => v.push(step),
        }
    }

    /// Removes and returns the last step.
    pub fn pop(&mut self) -> Option<CStep> {
        match &mut self.0 {
            PathRepr::Inline(0, _) => None,
            PathRepr::Inline(len, steps) => {
                *len -= 1;
                Some(steps[*len as usize])
            }
            PathRepr::Heap(v) => v.pop(),
        }
    }
}

impl Default for CPath {
    fn default() -> Self {
        CPath::new()
    }
}

impl Deref for CPath {
    type Target = [CStep];
    fn deref(&self) -> &[CStep] {
        match &self.0 {
            PathRepr::Inline(len, steps) => &steps[..*len as usize],
            PathRepr::Heap(v) => v,
        }
    }
}

impl DerefMut for CPath {
    fn deref_mut(&mut self) -> &mut [CStep] {
        match &mut self.0 {
            PathRepr::Inline(len, steps) => &mut steps[..*len as usize],
            PathRepr::Heap(v) => v,
        }
    }
}

impl PartialEq for CPath {
    fn eq(&self, other: &CPath) -> bool {
        **self == **other
    }
}

impl Eq for CPath {}

impl Hash for CPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for CPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A concrete location: an object plus a path inside it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Loc {
    /// The owning object.
    pub obj: u32,
    /// Steps from the object's root to the addressed slot.
    pub path: CPath,
}

impl Loc {
    /// A whole-object location.
    pub fn of(obj: u32) -> Loc {
        Loc {
            obj,
            path: CPath::new(),
        }
    }

    /// Extends the location with one step.
    pub fn push(&self, step: CStep) -> Loc {
        let mut path = self.path.clone();
        path.push(step);
        Loc {
            obj: self.obj,
            path,
        }
    }

    /// Pointer arithmetic: adjusts the trailing element index.
    /// `offset == 0` on a non-element location is the identity.
    pub fn add(&self, offset: i64) -> Result<Loc, String> {
        if offset == 0 {
            return Ok(self.clone());
        }
        let mut path = self.path.clone();
        match path.last_mut() {
            Some(CStep::Elem(i)) => {
                let ni = *i as i64 + offset;
                if ni < 0 {
                    return Err("pointer arithmetic before start of array".to_string());
                }
                *i = ni as u32;
                Ok(Loc {
                    obj: self.obj,
                    path,
                })
            }
            _ => Err("pointer arithmetic on a non-array pointer".to_string()),
        }
    }
}

/// An abstract step: the analysis-level view of a [`CStep`] (array
/// indices collapse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsStep {
    /// Struct field selection.
    Field {
        /// The record the field belongs to.
        rec: RecordId,
        /// Field index within the record.
        idx: u32,
    },
    /// Array element access (indices collapse).
    Elem,
}

/// The abstraction of a concrete location: origin plus collapsed steps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AbsLoc {
    /// Which abstract object.
    pub origin: Origin,
    /// Collapsed access steps.
    pub steps: Vec<AbsStep>,
}

/// A runtime value.
#[allow(missing_docs)] // variants mirror the C value categories
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Ptr(Loc),
    Null,
    Func(u32),
    /// Struct rvalue (deep copy).
    Record(RecordId, Vec<Value>),
    /// Union rvalue: the most recently written member's value.
    Union(RecordId, Box<Value>),
    /// Array rvalue (appears in whole-aggregate copies).
    Array(Vec<Value>),
    Uninit,
}

impl Value {
    /// C truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Ptr(_) | Value::Func(_) => true,
            Value::Null => false,
            Value::Uninit => false,
            _ => true,
        }
    }

    /// Integer view (uninit reads as 0, the deterministic stand-in).
    pub fn as_int(&self) -> Result<i64, String> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Float(v) => Ok(*v as i64),
            Value::Uninit => Ok(0),
            other => Err(format!("expected integer, found {other:?}")),
        }
    }

    /// Float view.
    pub fn as_float(&self) -> Result<f64, String> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(v) => Ok(*v),
            Value::Uninit => Ok(0.0),
            other => Err(format!("expected number, found {other:?}")),
        }
    }
}

/// One allocated object.
#[derive(Debug, Clone)]
pub struct Object {
    /// The current contents (a tree for aggregates).
    pub value: Value,
    /// The abstraction of this object's identity.
    pub origin: Origin,
    /// Deallocated by `free`; any later access is a dynamic error (the
    /// poisoning that gives the checker harness its runtime ground
    /// truth for use-after-free).
    pub freed: bool,
}

/// The interpreter heap.
#[derive(Debug, Default)]
pub struct Memory {
    objs: Vec<Object>,
    /// Memoized string-literal objects per expression.
    str_objs: HashMap<ExprId, u32>,
}

impl Memory {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates an object with the given initial value.
    pub fn alloc(&mut self, value: Value, origin: Origin) -> u32 {
        let id = self.objs.len() as u32;
        self.objs.push(Object {
            value,
            origin,
            freed: false,
        });
        id
    }

    /// The memoized object for a string literal expression.
    pub fn str_object(&mut self, e: ExprId, text: &str) -> u32 {
        if let Some(&o) = self.str_objs.get(&e) {
            return o;
        }
        let mut elems: Vec<Value> = text.bytes().map(|b| Value::Int(b as i64)).collect();
        elems.push(Value::Int(0));
        let o = self.alloc(Value::Array(elems), Origin::Str(e));
        self.str_objs.insert(e, o);
        o
    }

    /// The origin of an object.
    pub fn origin(&self, obj: u32) -> Origin {
        self.objs[obj as usize].origin
    }

    /// Marks an object deallocated; later accesses through [`Memory::slot_mut`]
    /// fail. Freeing twice is the caller's double-free error to report —
    /// this returns whether the object was still live.
    pub fn free(&mut self, obj: u32) -> bool {
        !std::mem::replace(&mut self.objs[obj as usize].freed, true)
    }

    /// Whether `obj` has been deallocated.
    pub fn is_freed(&self, obj: u32) -> bool {
        self.objs.get(obj as usize).is_some_and(|o| o.freed)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    /// Whether no objects exist.
    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }

    /// Builds a fully materialized object for a type (globals/locals).
    pub fn value_of_type(types: &TypeTable, ty: TypeId) -> Value {
        match types.kind(ty) {
            TypeKind::Record(r) => {
                let rec = types.record(*r);
                if rec.is_union {
                    Value::Union(*r, Box::new(Value::Uninit))
                } else {
                    let fields = rec
                        .fields
                        .iter()
                        .map(|f| Self::value_of_type(types, f.ty))
                        .collect();
                    Value::Record(*r, fields)
                }
            }
            TypeKind::Array(elem, n) => {
                let v = (0..*n.max(&1))
                    .map(|_| Self::value_of_type(types, *elem))
                    .collect();
                Value::Array(v)
            }
            _ => Value::Uninit,
        }
    }

    fn navigate<'v>(
        slot: &'v mut Value,
        step: CStep,
        types: &TypeTable,
    ) -> Result<&'v mut Value, String> {
        // Materialize lazily allocated (heap) storage on first touch.
        // A scalar in the slot means a union member (or untyped heap
        // cell) is being re-shaped by access through another member:
        // writing one union member invalidates the others, so the old
        // contents are discarded.
        if matches!(
            slot,
            Value::Int(_) | Value::Float(_) | Value::Ptr(_) | Value::Null | Value::Func(_)
        ) {
            *slot = Value::Uninit;
        }
        match step {
            CStep::Field { rec, idx } => {
                if matches!(slot, Value::Uninit) {
                    let r = types.record(rec);
                    if r.is_union {
                        *slot = Value::Union(rec, Box::new(Value::Uninit));
                    } else {
                        *slot =
                            Value::Record(rec, r.fields.iter().map(|_| Value::Uninit).collect());
                    }
                }
                match slot {
                    Value::Record(_, fields) => fields
                        .get_mut(idx as usize)
                        .ok_or_else(|| "field index out of range".to_string()),
                    Value::Union(_, inner) => Ok(inner.as_mut()),
                    other => Err(format!("field access on non-record {other:?}")),
                }
            }
            CStep::Elem(i) => {
                if matches!(slot, Value::Uninit) {
                    *slot = Value::Array(Vec::new());
                }
                match slot {
                    Value::Array(elems) => {
                        // Heap arrays grow on demand (malloc'd buffers have
                        // no static length in this model).
                        while elems.len() <= i as usize {
                            elems.push(Value::Uninit);
                        }
                        Ok(&mut elems[i as usize])
                    }
                    other => Err(format!("element access on non-array {other:?}")),
                }
            }
        }
    }

    /// Mutable access to the value slot at `loc`, materializing lazily.
    pub fn slot_mut(&mut self, loc: &Loc, types: &TypeTable) -> Result<&mut Value, String> {
        let obj = self
            .objs
            .get_mut(loc.obj as usize)
            .ok_or_else(|| "dangling object reference".to_string())?;
        if obj.freed {
            return Err("use after free of heap object".to_string());
        }
        let mut slot = &mut obj.value;
        for &step in loc.path.iter() {
            slot = Self::navigate(slot, step, types)?;
        }
        Ok(slot)
    }

    /// Reads the value at `loc` (deep copy for aggregates).
    pub fn read(&mut self, loc: &Loc, types: &TypeTable) -> Result<Value, String> {
        Ok(self.slot_mut(loc, types)?.clone())
    }

    /// Writes `v` at `loc`. Writing into a union records the value as the
    /// active member.
    pub fn write(&mut self, loc: &Loc, v: Value, types: &TypeTable) -> Result<(), String> {
        *self.slot_mut(loc, types)? = v;
        Ok(())
    }

    /// The abstraction of a concrete location: array indices collapse,
    /// object identity collapses to the origin, and union member steps
    /// vanish (union members share one abstract path, paper §2).
    pub fn abstract_loc(&self, loc: &Loc, types: &TypeTable) -> AbsLoc {
        AbsLoc {
            origin: self.origin(loc.obj),
            steps: loc
                .path
                .iter()
                .filter_map(|s| match *s {
                    CStep::Field { rec, idx } => {
                        if types.record(rec).is_union {
                            None
                        } else {
                            Some(AbsStep::Field { rec, idx })
                        }
                    }
                    CStep::Elem(_) => Some(AbsStep::Elem),
                })
                .collect(),
        }
    }
}

/// Marks an object whose abstract root is not interned yet.
const NO_ID: u32 = u32::MAX;

/// One run's interned abstract locations. Every traced access maps its
/// concrete [`Loc`] to a dense id, so the per-step bookkeeping (trace
/// sets, last writers) works on `u32`s and never builds an [`AbsLoc`].
/// The ids form a trie: an object's root id is cached per object, and
/// each abstract step is one `(parent, step)` lookup, so interning a
/// location already seen allocates nothing. Agrees with
/// [`Memory::abstract_loc`]: `get(intern(loc)) == abstract_loc(loc)`.
#[derive(Debug, Default)]
pub(crate) struct AbsTable {
    /// Root id per object, [`NO_ID`] until the object is first traced.
    obj_root: Vec<u32>,
    /// Root id per origin (activations of one local share it).
    roots: HashMap<Origin, u32>,
    /// Child id per (parent id, abstract step).
    children: HashMap<(u32, AbsStep), u32>,
    /// The location of each id.
    locs: Vec<AbsLoc>,
}

impl AbsTable {
    /// The id of `loc`'s abstraction, interning it on first sight.
    pub(crate) fn intern(&mut self, mem: &Memory, loc: &Loc, types: &TypeTable) -> u32 {
        let obj = loc.obj as usize;
        if obj >= self.obj_root.len() {
            self.obj_root.resize(mem.len().max(obj + 1), NO_ID);
        }
        let mut id = self.obj_root[obj];
        if id == NO_ID {
            let origin = mem.origin(loc.obj);
            id = match self.roots.get(&origin) {
                Some(&id) => id,
                None => {
                    let id = self.push(AbsLoc {
                        origin,
                        steps: Vec::new(),
                    });
                    self.roots.insert(origin, id);
                    id
                }
            };
            self.obj_root[obj] = id;
        }
        for &step in loc.path.iter() {
            let step = match step {
                CStep::Field { rec, .. } if types.record(rec).is_union => continue,
                CStep::Field { rec, idx } => AbsStep::Field { rec, idx },
                CStep::Elem(_) => AbsStep::Elem,
            };
            id = match self.children.get(&(id, step)) {
                Some(&child) => child,
                None => {
                    let mut child = self.locs[id as usize].clone();
                    child.steps.push(step);
                    let child = self.push(child);
                    self.children.insert((id, step), child);
                    child
                }
            };
        }
        id
    }

    fn push(&mut self, loc: AbsLoc) -> u32 {
        self.locs.push(loc);
        (self.locs.len() - 1) as u32
    }

    /// The abstract location of an interned id.
    pub(crate) fn get(&self, id: u32) -> &AbsLoc {
        &self.locs[id as usize]
    }

    /// How many distinct abstract locations are interned.
    pub(crate) fn len(&self) -> usize {
        self.locs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn types_with_pair() -> (TypeTable, RecordId) {
        let mut t = TypeTable::new();
        let int = t.int();
        let r = t.declare_record("pair", false);
        t.define_record(
            r,
            vec![
                cfront::types::Field {
                    name: "a".into(),
                    ty: int,
                },
                cfront::types::Field {
                    name: "b".into(),
                    ty: int,
                },
            ],
        );
        (t, r)
    }

    #[test]
    fn read_write_scalar() {
        let (t, _) = types_with_pair();
        let mut m = Memory::new();
        let o = m.alloc(Value::Uninit, Origin::Global(0));
        let loc = Loc::of(o);
        m.write(&loc, Value::Int(42), &t).unwrap();
        assert_eq!(m.read(&loc, &t).unwrap(), Value::Int(42));
    }

    #[test]
    fn lazy_materialization_of_heap_struct() {
        let (t, r) = types_with_pair();
        let mut m = Memory::new();
        let o = m.alloc(Value::Uninit, Origin::Heap(cfront::ast::ExprId(0)));
        let f1 = Loc::of(o).push(CStep::Field { rec: r, idx: 1 });
        m.write(&f1, Value::Int(7), &t).unwrap();
        assert_eq!(m.read(&f1, &t).unwrap(), Value::Int(7));
        let f0 = Loc::of(o).push(CStep::Field { rec: r, idx: 0 });
        assert_eq!(m.read(&f0, &t).unwrap(), Value::Uninit);
    }

    #[test]
    fn arrays_grow_on_demand() {
        let (t, _) = types_with_pair();
        let mut m = Memory::new();
        let o = m.alloc(Value::Uninit, Origin::Heap(cfront::ast::ExprId(1)));
        let e5 = Loc::of(o).push(CStep::Elem(5));
        m.write(&e5, Value::Int(9), &t).unwrap();
        assert_eq!(m.read(&e5, &t).unwrap(), Value::Int(9));
    }

    #[test]
    fn pointer_arithmetic_moves_element_index() {
        let o = Loc::of(3).push(CStep::Elem(2));
        assert_eq!(*o.add(2).unwrap().path, [CStep::Elem(4)]);
        assert_eq!(*o.add(-2).unwrap().path, [CStep::Elem(0)]);
        assert!(o.add(-3).is_err());
        let scalar = Loc::of(3);
        assert!(scalar.add(0).is_ok());
        assert!(scalar.add(1).is_err());
    }

    #[test]
    fn abstraction_collapses_indices() {
        let (t, r) = types_with_pair();
        let mut m = Memory::new();
        let o = m.alloc(Value::Uninit, Origin::Local { func: 1, slot: 2 });
        let loc = Loc::of(o)
            .push(CStep::Elem(7))
            .push(CStep::Field { rec: r, idx: 0 });
        let a = m.abstract_loc(&loc, &t);
        assert_eq!(a.origin, Origin::Local { func: 1, slot: 2 });
        assert_eq!(
            a.steps,
            vec![AbsStep::Elem, AbsStep::Field { rec: r, idx: 0 }]
        );
    }

    #[test]
    fn abstraction_skips_union_members() {
        let mut t = TypeTable::new();
        let int = t.int();
        let u = t.declare_record("u", true);
        t.define_record(
            u,
            vec![cfront::types::Field {
                name: "v".into(),
                ty: int,
            }],
        );
        let mut m = Memory::new();
        let g = m.alloc(Value::Union(u, Box::new(Value::Uninit)), Origin::Global(3));
        let loc = Loc::of(g).push(CStep::Field { rec: u, idx: 0 });
        assert!(m.abstract_loc(&loc, &t).steps.is_empty());
    }

    #[test]
    fn unions_share_storage() {
        let mut t = TypeTable::new();
        let int = t.int();
        let ip = t.ptr(int);
        let u = t.declare_record("u", true);
        t.define_record(
            u,
            vec![
                cfront::types::Field {
                    name: "p".into(),
                    ty: ip,
                },
                cfront::types::Field {
                    name: "v".into(),
                    ty: int,
                },
            ],
        );
        let mut m = Memory::new();
        let g = m.alloc(Value::Union(u, Box::new(Value::Uninit)), Origin::Global(0));
        let via_p = Loc::of(g).push(CStep::Field { rec: u, idx: 0 });
        let via_v = Loc::of(g).push(CStep::Field { rec: u, idx: 1 });
        m.write(&via_p, Value::Int(5), &t).unwrap();
        assert_eq!(m.read(&via_v, &t).unwrap(), Value::Int(5));
    }

    fn elems(n: u32) -> Loc {
        let mut l = Loc::of(0);
        for i in 0..n {
            l.path.push(CStep::Elem(i));
        }
        l
    }

    fn hash_of(l: &Loc) -> u64 {
        use std::hash::BuildHasher;
        std::hash::BuildHasherDefault::<alias::fxhash::FxHasher>::default().hash_one(l)
    }

    #[test]
    fn path_spills_past_inline_capacity_and_pops_back() {
        let mut l = elems(PATH_INLINE as u32);
        assert!(matches!(l.path.0, PathRepr::Inline(..)));
        l.path.push(CStep::Elem(99));
        assert!(
            matches!(l.path.0, PathRepr::Heap(_)),
            "spills past capacity"
        );
        assert_eq!(l.path.len(), PATH_INLINE + 1);
        assert_eq!(l.path.last(), Some(&CStep::Elem(99)));
        assert_eq!(l.path.pop(), Some(CStep::Elem(99)));
        assert_eq!(l, elems(PATH_INLINE as u32));
        for i in (0..PATH_INLINE as u32).rev() {
            assert_eq!(l.path.pop(), Some(CStep::Elem(i)));
        }
        assert_eq!(l.path.pop(), None);
        assert_eq!(l, Loc::of(0));
    }

    #[test]
    fn add_moves_the_last_index_of_a_spilled_path() {
        let l = elems(PATH_INLINE as u32 + 2);
        assert!(matches!(l.path.0, PathRepr::Heap(_)));
        let moved = l.add(3).unwrap();
        assert_eq!(moved.path.len(), l.path.len());
        assert_eq!(moved.path[..PATH_INLINE + 1], l.path[..PATH_INLINE + 1]);
        assert_eq!(
            moved.path.last(),
            Some(&CStep::Elem(PATH_INLINE as u32 + 4))
        );
        assert_eq!(moved.add(-3).unwrap(), l);
        assert!(l.add(-(PATH_INLINE as i64) - 2).is_err());
    }

    #[test]
    fn inline_and_spilled_paths_with_equal_steps_are_equal() {
        let inline = elems(2);
        let mut spilled = elems(PATH_INLINE as u32 + 1);
        for _ in 2..=PATH_INLINE {
            spilled.path.pop();
        }
        assert!(matches!(inline.path.0, PathRepr::Inline(..)));
        assert!(matches!(spilled.path.0, PathRepr::Heap(_)));
        assert_eq!(inline, spilled);
        assert_eq!(hash_of(&inline), hash_of(&spilled));
        assert_eq!(format!("{inline:?}"), format!("{spilled:?}"));
        assert_eq!(
            format!("{:?}", inline.path),
            format!("{:?}", vec![CStep::Elem(0), CStep::Elem(1)])
        );
    }

    #[test]
    fn interning_agrees_with_abstract_loc_and_shares_ids_per_origin() {
        let (t, r) = types_with_pair();
        let mut m = Memory::new();
        // Two activations of one local share an origin, so an id.
        let a = m.alloc(Value::Uninit, Origin::Local { func: 0, slot: 1 });
        let b = m.alloc(Value::Uninit, Origin::Local { func: 0, slot: 1 });
        let g = m.alloc(Value::Uninit, Origin::Global(0));
        let mut abs = AbsTable::default();
        let field = |o, i| {
            Loc::of(o)
                .push(CStep::Elem(i))
                .push(CStep::Field { rec: r, idx: 1 })
        };
        let ia = abs.intern(&m, &field(a, 0), &t);
        assert_eq!(abs.intern(&m, &field(b, 7), &t), ia, "indices collapse");
        assert_ne!(abs.intern(&m, &field(g, 0), &t), ia);
        assert_ne!(abs.intern(&m, &Loc::of(a), &t), ia);
        for loc in [field(a, 3), field(g, 1), Loc::of(b), Loc::of(g)] {
            let id = abs.intern(&m, &loc, &t);
            assert_eq!(abs.get(id), &m.abstract_loc(&loc, &t));
        }
        // Roots and both prefixes of each field path, per origin.
        assert_eq!(abs.len(), 6);
    }

    #[test]
    fn string_objects_are_memoized() {
        let mut m = Memory::new();
        let e = cfront::ast::ExprId(9);
        let a = m.str_object(e, "hi");
        let b = m.str_object(e, "hi");
        assert_eq!(a, b);
        assert_eq!(m.len(), 1);
    }
}
