//! Complex-object instance graphs and the XML loader.
//!
//! A WG-Log database is a directed labelled graph of typed objects with
//! atomic attributes. The loader maps a semi-structured document onto this
//! model the way the paper's city-guide examples assume:
//!
//! * every element with element children or attributes becomes an object
//!   typed by its tag;
//! * a text-only child element (`<name>Roma</name>`) becomes an attribute
//!   of the parent object rather than a separate object;
//! * containment becomes an edge labelled with the child's tag;
//! * resolved ID/IDREF references become edges labelled with the
//!   referencing attribute's name.
//!
//! An [`Instance`] is a shared, frozen base and an owned delta. The base can
//! keep an *answer image* ([`Instance::build_answer_image`]): each base
//! object's attribute children written once, as [`Instance::emit`] writes
//! them, so that a written answer copies them. Every clone shares it, and
//! [`Instance::add_attr`] on a base object drops it.
//!
//! Both layers store objects and edges alike, in pools as a [`Document`]
//! does: an object is one record (its type's name id and a run of the
//! layer's attribute pool), an attribute is a name id and a span of the
//! layer's text pool, and an edge is two object ids, a label id and its
//! chain links. Type and attribute names are interned into one id space per
//! instance, and labels into another (each layer's delta numbers on from
//! the base), so a [`NameKey`] or a [`LabelKey`] is one integer, and type
//! tests and attribute constraints compare integers. Objects are read
//! through a borrowed view, [`ObjRef`], and edges as [`Edge`] values.
//! Adding an edge with an interned label ([`Instance::add_edge_key`]) is a
//! few integer hash probes and a push, and allocates nothing but the
//! doublings of the layer's tables; dropping a loaded instance frees a
//! fixed number of tables, not one allocation per object.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use gql_ssdm::document::NodeKind;
use gql_ssdm::idref::RefTable;
use gql_ssdm::sink::{DocSink, Sink};
use gql_ssdm::value::xml_words;
use gql_ssdm::xml::Image;
use gql_ssdm::{DocIndex, Document, NodeId, Symbol};

/// Index of an object in an [`Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl ObjId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One complex object, owned: what [`Instance::add_object`] takes. An
/// instance keeps its objects pooled and hands them out as [`ObjRef`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    pub ty: String,
    /// Attribute name/value pairs; repeated names allowed (multi-valued).
    pub attrs: Vec<(String, String)>,
}

impl Object {
    pub fn new(ty: impl Into<String>) -> Self {
        Object {
            ty: ty.into(),
            attrs: Vec::new(),
        }
    }

    /// First value of an attribute.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All values of an attribute.
    pub fn attr_values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.attrs
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One labelled edge, as read from an instance: its label borrows the
/// instance's one copy of the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge<'a> {
    pub from: ObjId,
    pub label: &'a str,
    pub to: ObjId,
}

/// The hasher of the maps keyed by object ids and interned ids: a multiply
/// per word and a rotate at the end. Those keys are numbered by the
/// instance itself, never chosen by whoever uploaded the data, so they need
/// none of SipHash's resistance to chosen keys; the maps keyed by names
/// from the document ([`Names`]) keep it.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    // The product's best-mixed bits are its high ones; the table reads its
    // bucket from the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// An edge label's id in one [`Instance`]. The base numbers its labels from
/// 0 and the delta goes on from the base's count, so one id names a label in
/// both layers and stays valid for the instance's lifetime.
/// [`Instance::label_key`] hashes the string once and the `*_key` probes
/// then hash integers only. Its key for a label the instance has not
/// interned matches nothing, even once an edge so labelled is added; to
/// probe for edges still to come, take the key from
/// [`Instance::intern_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelKey(u32);

impl LabelKey {
    /// The key of a label the instance has not interned.
    const ABSENT: LabelKey = LabelKey(u32::MAX);
}

/// A type or attribute name's id in one [`Instance`], numbered like
/// [`LabelKey`]s in a space of its own. [`Instance::name_key`] of a name the
/// instance has not interned matches no object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameKey(u32);

impl NameKey {
    /// The key of a name the instance has not interned.
    const ABSENT: NameKey = NameKey(u32::MAX);
}

/// The end of an edge chain: no edge has this index.
const END: u32 = u32::MAX;

/// The four chains an edge is on, as positions of its `next` links: its
/// source's outgoing edges, its target's incoming ones, and the same two
/// restricted to its label.
const OUT: usize = 0;
const INC: usize = 1;
const SUCC: usize = 2;
const PRED: usize = 3;

/// An edge as a layer stores it: its ends, its label's id, and the next
/// edge of each of its chains.
#[derive(Debug, Clone, Copy)]
struct Stored {
    from: ObjId,
    lid: u32,
    to: ObjId,
    next: [u32; 4],
}

/// One adjacency list as a chain through the layer's edges: its first and
/// last edge, `END` when it has none. Appending links the last edge to the
/// new one, so a list grows without an allocation of its own and is read
/// in insertion order.
#[derive(Debug, Clone, Copy)]
struct Chain {
    first: u32,
    last: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        first: END,
        last: END,
    };
}

/// The edges of one chain, first to last.
struct Walk<'a> {
    edges: &'a [Stored],
    next: u32,
    link: usize,
}

impl<'a> Iterator for Walk<'a> {
    type Item = &'a Stored;

    fn next(&mut self) -> Option<&'a Stored> {
        // `END` is past every edge.
        let stored = self.edges.get(self.next as usize)?;
        self.next = stored.next[self.link];
        Some(stored)
    }
}

/// One layer's names: name → id, and (slot `id - first`) id → name, one
/// allocation shared by both. A delta's table numbers on from its base's.
#[derive(Debug, Clone, Default)]
struct Names {
    first: u32,
    ids: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl Names {
    fn above(base: &Names) -> Names {
        Names {
            first: base.end(),
            ..Names::default()
        }
    }

    /// One past the last id this table numbers.
    fn end(&self) -> u32 {
        self.first + self.names.len() as u32
    }

    fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// `name`'s id, numbered here if it has none yet.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.id(name) {
            return id;
        }
        let id = self.end();
        assert!(id < END, "an instance holds fewer than {END} names");
        let name: Arc<str> = Arc::from(name);
        self.ids.insert(Arc::clone(&name), id);
        self.names.push(name);
        id
    }

    /// The name of id `id`, if this table numbered it.
    fn name(&self, id: u32) -> Option<&str> {
        let slot = id.checked_sub(self.first)?;
        self.names.get(slot as usize).map(|n| &**n)
    }
}

/// Where ids are read back as names: the base's table, then the delta's.
#[derive(Debug, Clone, Copy)]
struct Lookup<'a> {
    base: &'a Names,
    delta: &'a Names,
}

impl<'a> Lookup<'a> {
    fn id(self, name: &str) -> Option<u32> {
        self.base.id(name).or_else(|| self.delta.id(name))
    }

    fn name(self, id: u32) -> &'a str {
        let table = if id < self.delta.first {
            self.base
        } else {
            self.delta
        };
        table.name(id).expect("an id this instance numbered")
    }
}

/// A run of a pool: `len` slots in use from `start`, room for `cap`.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

impl Run {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A byte range of a layer's text pool.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// An object as a layer stores it: its type's name id and its run of the
/// attribute pool.
#[derive(Debug, Clone, Copy)]
struct ObjRec {
    ty: u32,
    attrs: Run,
}

/// An attribute as a layer stores it.
#[derive(Debug, Clone, Copy)]
struct AttrRec {
    name: u32,
    value: Span,
}

/// A pool offset as `u32`, or a panic naming the pool.
fn offset(len: usize, pool: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("an instance's {pool} pool outgrew u32 offsets"))
}

/// Append `item` to `run` of `pool`: in place while the run has room or
/// ends the pool, else the run moves to the pool's tail with room to
/// double, and its old slots are left behind.
fn run_push<T: Copy>(pool: &mut Vec<T>, run: &mut Run, item: T) {
    let (start, len, cap) = (run.start as usize, run.len as usize, run.cap as usize);
    if len < cap {
        pool[start + len] = item;
        run.len += 1;
        return;
    }
    // An empty run has no place yet: it starts at the tail.
    let start = if cap == 0 { pool.len() } else { start };
    let (start, cap) = if start + cap == pool.len() {
        pool.push(item);
        (start, cap + 1)
    } else {
        let tail = pool.len();
        pool.extend_from_within(start..start + len);
        pool.resize(tail + 2 * len, item);
        (tail, 2 * len)
    };
    offset(pool.len(), "attribute");
    *run = Run {
        start: start as u32,
        len: run.len + 1,
        cap: cap as u32,
    };
}

/// One layer of an [`Instance`]: a self-contained graph store whose own
/// objects are numbered from `first_obj`, whose own names and labels are
/// numbered from those of the layer beneath, and whose edges may also touch
/// the objects and use the names and labels numbered beneath those.
///
/// Edge labels are interned to small integers on insertion, and adjacency
/// is kept *label-indexed*: `(object, label) → successors/predecessors`.
/// The fixpoint joins of the Datalog evaluator and the backtracking
/// embedding search probe edges by `(object, label)` on their innermost
/// loops, so those probes are hash lookups of integers instead of linear
/// scans with string compares. Every adjacency list is a [`Chain`] through
/// the edges, so adding an edge allocates nothing but the doublings of the
/// layer's tables.
#[derive(Debug, Clone, Default)]
struct Layer {
    /// Id of this layer's first object: 0 for a base, the base's object
    /// count for a delta.
    first_obj: usize,
    objects: Vec<ObjRec>,
    /// Every object's attributes, as the `attrs` runs of `objects`.
    attrs: Vec<AttrRec>,
    /// Every attribute value, as the `value` spans of `attrs`.
    text: String,
    edges: Vec<Stored>,
    /// Outgoing edges of this layer's own objects (slot `id - first_obj`).
    out: Vec<Chain>,
    /// Incoming edges, likewise.
    inc: Vec<Chain>,
    /// The same two for the objects beneath `first_obj`, sparse because a
    /// run touches few of them. Always empty in a base.
    out_beneath: IntMap<ObjId, Chain>,
    inc_beneath: IntMap<ObjId, Chain>,
    /// Type index: this layer's objects by their type's name id (slot =
    /// id), in insertion order.
    by_type: Vec<Vec<ObjId>>,
    /// Type and attribute names.
    syms: Names,
    /// Edge labels.
    labels: Names,
    /// Labelled adjacency: `(from, label) → edges`, insertion order.
    succ: IntMap<(ObjId, u32), Chain>,
    /// Labelled reverse adjacency: `(to, label) → edges`.
    pred: IntMap<(ObjId, u32), Chain>,
    /// Fast duplicate check for edges, keyed on interned label ids so a
    /// probe allocates nothing.
    edge_set: IntSet<(ObjId, u32, ObjId)>,
    /// The answer image of a base ([`Instance::build_answer_image`]).
    answer: AnswerMemo,
}

/// A layer's answer image, once built. A clone starts without one: the
/// layer clone `Arc::make_mut` makes is about to change an object.
#[derive(Debug, Default)]
struct AnswerMemo(OnceLock<Image>);

impl Clone for AnswerMemo {
    fn clone(&self) -> Self {
        AnswerMemo::default()
    }
}

/// Append edge `idx` to `chain`, through the edges' `link` position.
fn append(edges: &mut [Stored], chain: &mut Chain, link: usize, idx: u32) {
    match chain.last {
        END => chain.first = idx,
        last => edges[last as usize].next[link] = idx,
    }
    chain.last = idx;
}

impl Layer {
    /// The empty layer above `base`.
    fn above(base: &Layer) -> Layer {
        Layer {
            first_obj: base.first_obj + base.objects.len(),
            syms: Names::above(&base.syms),
            labels: Names::above(&base.labels),
            ..Layer::default()
        }
    }

    /// Add an object of type `ty` (a name id), with no attributes yet.
    fn add_object(&mut self, ty: u32) -> ObjId {
        let id = ObjId(offset(self.first_obj + self.objects.len(), "object"));
        let slot = ty as usize;
        if slot >= self.by_type.len() {
            self.by_type.resize_with(slot + 1, Vec::new);
        }
        self.by_type[slot].push(id);
        self.objects.push(ObjRec {
            ty,
            attrs: Run::default(),
        });
        self.out.push(Chain::EMPTY);
        self.inc.push(Chain::EMPTY);
        id
    }

    /// The text pool's span of what `write` appends to it.
    fn write_text(&mut self, write: impl FnOnce(&mut String)) -> Span {
        let start = offset(self.text.len(), "text");
        write(&mut self.text);
        Span {
            start,
            len: offset(self.text.len(), "text") - start,
        }
    }

    /// Append an attribute to this layer's object `slot`.
    fn push_attr(&mut self, slot: usize, name: u32, value: &str) {
        let value = self.write_text(|text| text.push_str(value));
        let run = &mut self.objects[slot].attrs;
        run_push(&mut self.attrs, run, AttrRec { name, value });
    }

    /// Add an edge of one of this layer's own labels unless the layer
    /// already has it.
    fn add_edge(&mut self, from: ObjId, lid: u32, to: ObjId) {
        if self.edge_set.insert((from, lid, to)) {
            self.push(from, lid, to);
        }
    }

    /// Store an edge the duplicate check has let through and append it to
    /// its four chains.
    fn push(&mut self, from: ObjId, lid: u32, to: ObjId) {
        let idx = self.edges.len() as u32;
        assert!(idx < END, "a layer holds fewer than {END} edges");
        self.edges.push(Stored {
            from,
            lid,
            to,
            next: [END; 4],
        });
        let edges = &mut self.edges;
        let out = match from.index().checked_sub(self.first_obj) {
            Some(slot) => &mut self.out[slot],
            None => self.out_beneath.entry(from).or_insert(Chain::EMPTY),
        };
        append(edges, out, OUT, idx);
        let inc = match to.index().checked_sub(self.first_obj) {
            Some(slot) => &mut self.inc[slot],
            None => self.inc_beneath.entry(to).or_insert(Chain::EMPTY),
        };
        append(edges, inc, INC, idx);
        let succ = self.succ.entry((from, lid)).or_insert(Chain::EMPTY);
        append(edges, succ, SUCC, idx);
        let pred = self.pred.entry((to, lid)).or_insert(Chain::EMPTY);
        append(edges, pred, PRED, idx);
    }

    /// The edges of `chain`, if there is one, through the `link` position.
    fn walk(&self, chain: Option<&Chain>, link: usize) -> Walk<'_> {
        Walk {
            edges: &self.edges,
            next: chain.map_or(END, |c| c.first),
            link,
        }
    }

    /// This layer's edges out of (`outgoing`) or into `obj`, in insertion
    /// order. An object of a layer above has none here.
    fn incident(&self, obj: ObjId, outgoing: bool) -> Walk<'_> {
        let (own, beneath, link) = if outgoing {
            (&self.out, &self.out_beneath, OUT)
        } else {
            (&self.inc, &self.inc_beneath, INC)
        };
        let chain = match obj.index().checked_sub(self.first_obj) {
            Some(slot) => own.get(slot),
            None => beneath.get(&obj),
        };
        self.walk(chain, link)
    }

    /// Whether this layer can hold an edge labelled `lid`: its own labels
    /// and those beneath them, never an absent key's.
    fn may_hold(&self, lid: u32) -> bool {
        lid < self.labels.end()
    }

    fn has_edge(&self, from: ObjId, lid: u32, to: ObjId) -> bool {
        self.may_hold(lid) && self.edge_set.contains(&(from, lid, to))
    }

    /// `obj`'s edges labelled `lid` on the labelled chains `link` picks:
    /// `SUCC` out of it, `PRED` into it.
    fn via(&self, obj: ObjId, lid: u32, link: usize) -> Walk<'_> {
        let adjacency = if link == SUCC { &self.succ } else { &self.pred };
        let chain = (self.may_hold(lid))
            .then(|| adjacency.get(&(obj, lid)))
            .flatten();
        self.walk(chain, link)
    }

    fn of_type(&self, ty: NameKey) -> &[ObjId] {
        self.by_type.get(ty.0 as usize).map_or(&[], Vec::as_slice)
    }
}

/// A borrowed view of one object of an [`Instance`]: its type and its
/// attributes, read out of its layer's pools.
#[derive(Clone, Copy)]
pub struct ObjRef<'a> {
    rec: ObjRec,
    layer: &'a Layer,
    syms: Lookup<'a>,
}

impl<'a> ObjRef<'a> {
    /// The type's name.
    pub fn ty(&self) -> &'a str {
        self.syms.name(self.rec.ty)
    }

    /// The type's key: equal to [`Instance::name_key`] of [`ty`](ObjRef::ty).
    pub fn ty_key(&self) -> NameKey {
        NameKey(self.rec.ty)
    }

    fn records(&self) -> &'a [AttrRec] {
        &self.layer.attrs[self.rec.attrs.range()]
    }

    fn value(&self, a: &AttrRec) -> &'a str {
        &self.layer.text[a.value.range()]
    }

    /// Attribute name/value pairs, in the order they were added.
    pub fn attrs(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let this = *self;
        (self.records().iter()).map(move |a| (this.syms.name(a.name), this.value(a)))
    }

    /// How many attribute values the object has.
    pub fn attr_count(&self) -> usize {
        self.rec.attrs.len as usize
    }

    /// All values of the attribute keyed `key`: integer compares only.
    pub fn values(&self, key: NameKey) -> impl Iterator<Item = &'a str> + 'a {
        let this = *self;
        (self.records().iter())
            .filter(move |a| a.name == key.0)
            .map(move |a| this.value(a))
    }

    /// All values of an attribute.
    pub fn attr_values(&self, name: &str) -> impl Iterator<Item = &'a str> + 'a {
        self.values(self.syms.id(name).map_or(NameKey::ABSENT, NameKey))
    }

    /// First value of an attribute.
    pub fn attr(&self, name: &str) -> Option<&'a str> {
        self.attr_values(name).next()
    }

    /// The object as an owned [`Object`].
    pub fn to_object(&self) -> Object {
        Object {
            ty: self.ty().to_string(),
            attrs: (self.attrs())
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// Objects are equal when their types and their attribute lists are.
impl PartialEq for ObjRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.ty() == other.ty() && self.attrs().eq(other.attrs())
    }
}

impl std::fmt::Debug for ObjRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (f.debug_struct("Object"))
            .field("ty", &self.ty())
            .field("attrs", &self.attrs().collect::<Vec<_>>())
            .finish()
    }
}

/// A WG-Log database: typed objects plus labelled edges.
///
/// An instance is two `Layer`s: an immutable *base* shared by reference
/// count, and an owned *delta* that receives every `add_object` and
/// `add_edge`. [`Instance::from_document`] returns its graph as the base
/// (moved there, not copied), so cloning a loaded instance — which every
/// evaluation does to get a database it may extend — costs a pointer bump
/// plus a copy of what was added since, and dropping the clone frees only
/// that.
///
/// Every base object id and every base edge precedes every delta one, and
/// every read consults the base and then the delta, so iteration orders
/// are exactly the insertion orders of a single flat store.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    base: Arc<Layer>,
    delta: Layer,
}

impl Instance {
    pub fn new() -> Self {
        Self::default()
    }

    fn syms(&self) -> Lookup<'_> {
        Lookup {
            base: &self.base.syms,
            delta: &self.delta.syms,
        }
    }

    fn labels(&self) -> Lookup<'_> {
        Lookup {
            base: &self.base.labels,
            delta: &self.delta.labels,
        }
    }

    /// A stored edge as an [`Edge`].
    fn edge(&self, s: &Stored) -> Edge<'_> {
        Edge {
            from: s.from,
            label: self.labels().name(s.lid),
            to: s.to,
        }
    }

    /// `name`'s id as a type or attribute name, numbered in the delta if
    /// neither layer has it yet.
    fn intern_sym(&mut self, name: &str) -> u32 {
        match self.base.syms.id(name) {
            Some(id) => id,
            None => self.delta.syms.intern(name),
        }
    }

    /// Add an object, returning its id.
    pub fn add_object(&mut self, obj: Object) -> ObjId {
        let id = self.add_object_of_type(&obj.ty);
        for (name, value) in &obj.attrs {
            self.add_attr(id, name, value);
        }
        id
    }

    /// Add an object of type `ty` with no attributes yet, returning its id:
    /// [`add_object`](Instance::add_object) without building an [`Object`].
    pub fn add_object_of_type(&mut self, ty: &str) -> ObjId {
        let ty = self.intern_sym(ty);
        self.delta.add_object(ty)
    }

    /// Add an edge if not already present; returns whether it was new.
    pub fn add_edge(&mut self, from: ObjId, label: &str, to: ObjId) -> bool {
        let key = self.intern_label(label);
        self.add_edge_key(from, key, to)
    }

    /// `label`'s key, numbered in the delta if neither layer has it yet.
    /// The key stays valid for the instance's lifetime.
    pub fn intern_label(&mut self, label: &str) -> LabelKey {
        match self.base.labels.id(label) {
            Some(lid) => LabelKey(lid),
            None => LabelKey(self.delta.labels.intern(label)),
        }
    }

    /// [`add_edge`](Instance::add_edge) with the label interned: integer
    /// probes and a push.
    ///
    /// # Panics
    ///
    /// If `key` names no label of this instance: take it from
    /// [`intern_label`](Instance::intern_label).
    pub fn add_edge_key(&mut self, from: ObjId, key: LabelKey, to: ObjId) -> bool {
        let lid = key.0;
        assert!(self.delta.may_hold(lid), "a key from `intern_label`");
        if self.base.has_edge(from, lid, to) || !self.delta.edge_set.insert((from, lid, to)) {
            return false;
        }
        self.delta.push(from, lid, to);
        true
    }

    /// Append an attribute value to an object. The overlay cannot express
    /// a change to a base object, so that case un-shares the base first
    /// (a full copy if another instance still holds it) and no other
    /// holder sees the change; the base it changes has no answer image.
    pub fn add_attr(&mut self, obj: ObjId, name: impl AsRef<str>, value: impl AsRef<str>) {
        // A name new to both layers is numbered in the delta, whichever
        // layer the object is in: the base's ids end where the delta's
        // begin.
        let name = self.intern_sym(name.as_ref());
        match obj.index().checked_sub(self.delta.first_obj) {
            Some(slot) => self.delta.push_attr(slot, name, value.as_ref()),
            None => {
                let base = Arc::make_mut(&mut self.base);
                base.answer.0.take();
                base.push_attr(obj.index(), name, value.as_ref());
            }
        }
    }

    pub fn object(&self, id: ObjId) -> ObjRef<'_> {
        let (layer, slot) = match id.index().checked_sub(self.delta.first_obj) {
            Some(slot) => (&self.delta, slot),
            None => (&*self.base, id.index()),
        };
        ObjRef {
            rec: layer.objects[slot],
            layer,
            syms: self.syms(),
        }
    }

    pub fn object_count(&self) -> usize {
        self.delta.first_obj + self.delta.objects.len()
    }

    pub fn edge_count(&self) -> usize {
        self.base.edges.len() + self.delta.edges.len()
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = Edge<'_>> {
        let stored = self.base.edges.iter().chain(&self.delta.edges);
        stored.map(move |s| self.edge(s))
    }

    pub fn objects(&self) -> impl Iterator<Item = (ObjId, ObjRef<'_>)> {
        (0..self.object_count()).map(move |i| {
            let id = ObjId(i as u32);
            (id, self.object(id))
        })
    }

    /// `name`'s key as a type or attribute name, for
    /// [`ObjRef::values`] and type tests; a name no object has gets a key
    /// that matches nothing.
    pub fn name_key(&self, name: &str) -> NameKey {
        self.syms().id(name).map_or(NameKey::ABSENT, NameKey)
    }

    /// Objects of one type, in insertion order.
    pub fn objects_of_type<'a>(&'a self, ty: &str) -> impl Iterator<Item = ObjId> + 'a {
        let key = self.name_key(ty);
        let (base, delta) = (self.base.of_type(key), self.delta.of_type(key));
        base.iter().chain(delta).copied()
    }

    /// All type names present, sorted.
    pub fn type_names(&self) -> Vec<&str> {
        let types = |layer: &Layer| {
            let ids = (layer.by_type.iter().enumerate()).filter(|(_, objs)| !objs.is_empty());
            ids.map(|(ty, _)| ty as u32).collect::<Vec<_>>()
        };
        let mut v: Vec<&str> = (types(&self.base).into_iter())
            .chain(types(&self.delta))
            .map(|ty| self.syms().name(ty))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Outgoing edges of an object.
    pub fn out_edges(&self, obj: ObjId) -> impl Iterator<Item = Edge<'_>> {
        let walk = (self.base.incident(obj, true)).chain(self.delta.incident(obj, true));
        walk.map(move |s| self.edge(s))
    }

    /// Incoming edges of an object.
    pub fn in_edges(&self, obj: ObjId) -> impl Iterator<Item = Edge<'_>> {
        let walk = (self.base.incident(obj, false)).chain(self.delta.incident(obj, false));
        walk.map(move |s| self.edge(s))
    }

    /// `label`'s key, for the `*_key` probes; a label no edge has yet
    /// gets a key that matches nothing.
    pub fn label_key(&self, label: &str) -> LabelKey {
        self.labels().id(label).map_or(LabelKey::ABSENT, LabelKey)
    }

    /// Whether a specific edge exists: at most one integer set probe per
    /// layer, none in a base that lacks the label — this sits on the
    /// innermost loop of embedding search.
    pub fn has_edge_key(&self, from: ObjId, key: LabelKey, to: ObjId) -> bool {
        self.base.has_edge(from, key.0, to) || self.delta.has_edge(from, key.0, to)
    }

    /// Successors over edges with a given label, in edge-insertion order
    /// (one lookup per layer in the labelled adjacency).
    pub fn successors_key(&self, obj: ObjId, key: LabelKey) -> impl Iterator<Item = ObjId> + '_ {
        let base = self.base.via(obj, key.0, SUCC);
        base.chain(self.delta.via(obj, key.0, SUCC)).map(|e| e.to)
    }

    /// Predecessors over edges with a given label, in edge-insertion order.
    pub fn predecessors_key(&self, obj: ObjId, key: LabelKey) -> impl Iterator<Item = ObjId> + '_ {
        let base = self.base.via(obj, key.0, PRED);
        base.chain(self.delta.via(obj, key.0, PRED)).map(|e| e.from)
    }

    /// How many instances hold this one's base, itself included: 1 when
    /// no clone (no evaluation result) is alive.
    pub fn base_holders(&self) -> usize {
        Arc::strong_count(&self.base)
    }

    /// The objects and edges this instance owns on top of its base — what
    /// a clone copies and a drop frees.
    pub fn delta_counts(&self) -> (usize, usize) {
        (self.delta.objects.len(), self.delta.edges.len())
    }

    /// The base's *answer image*: for each base object, in id order, its
    /// attribute children as [`emit`](Instance::emit) writes them, so that
    /// a written answer copies them instead of escaping them again. Built
    /// on the first call and kept on the base, which every clone shares;
    /// [`add_attr`](Instance::add_attr) on a base object drops it.
    pub fn build_answer_image(&self) -> &Image {
        (self.base.answer.0).get_or_init(|| {
            Image::of_items(self.base.objects.len(), |i, sink| {
                attr_children(self.object(ObjId(i as u32)), sink)
            })
        })
    }

    /// The base's answer image, if one was built since its last change.
    pub fn answer_image(&self) -> Option<&Image> {
        self.base.answer.0.get()
    }

    // ------------------------------------------------------------------
    // XML loader
    // ------------------------------------------------------------------

    /// Load a document into an instance graph (see module docs for the
    /// mapping rules). The whole graph becomes the instance's shared base.
    /// Resolves the document's references in a walk of its own; a caller
    /// holding a [`DocIndex`] for it loads with
    /// [`from_index`](Instance::from_index), which reads the index's.
    pub fn from_document(doc: &Document) -> Instance {
        let elements = (doc.descendants(doc.root())).filter(|&n| doc.kind(n) == NodeKind::Element);
        Self::load(doc, elements, &RefTable::resolve(doc))
    }

    /// [`from_document`](Instance::from_document) over `doc`'s index: its
    /// resolved ID/IDREF table gives the reference edges.
    pub fn from_index(doc: &Document, idx: &DocIndex) -> Instance {
        Self::load(doc, idx.elements().iter().copied(), idx.refs())
    }

    /// The load, given `doc`'s elements in document order and its
    /// resolved references. The base's tables are sized by one counting
    /// pass over the elements, so it allocates per table, type and name,
    /// not per element.
    fn load(doc: &Document, elements: impl Iterator<Item = NodeId>, refs: &RefTable) -> Instance {
        let mut db = Layer::default();
        if let Some(root) = doc.root_element() {
            Loader::new(doc, root, elements, refs, &mut db).load(root);
        }
        Instance {
            delta: Layer::above(&db),
            base: Arc::new(db),
        }
    }

    /// Convert (part of) the instance back to a document: objects of
    /// `root_type` become elements under a `wrapper` root, following edges
    /// up to `depth` levels (cycles stopped by depth).
    pub fn to_document(&self, wrapper: &str, root_type: &str, depth: usize) -> Document {
        let mut doc = Document::new();
        self.emit(wrapper, root_type, depth, &mut DocSink::new(&mut doc));
        doc
    }

    /// The full form of [`to_document`](Instance::to_document): the same
    /// answer as events into `sink`. A loop over the objects whose edges are
    /// still being followed, so no `depth` can exhaust the call stack. A
    /// base object's attribute children come from the answer image when
    /// there is one, as [`Sink::prewritten`] content.
    pub fn emit(&self, wrapper: &str, root_type: &str, depth: usize, sink: &mut impl Sink) {
        sink.start(wrapper);
        let image = self.answer_image();
        // The edges still to follow of each open object, innermost last.
        let mut open = Vec::new();
        for id in self.objects_of_type(root_type) {
            let mut next = Some(id);
            while let Some(id) = next {
                let obj = self.object(id);
                sink.start(obj.ty());
                // A delta object's id is past every item of the image.
                match image.and_then(|image| image.item(id.index())) {
                    Some((xml, nodes)) => {
                        sink.prewritten(xml, nodes, |sink| attr_children(obj, sink));
                    }
                    None => attr_children(obj, sink),
                }
                if open.len() < depth {
                    open.push(self.out_edges(id));
                } else {
                    sink.end();
                }
                // On to the target of the innermost open object's next edge,
                // closing every object that has none left.
                next = loop {
                    let Some(edges) = open.last_mut() else {
                        break None;
                    };
                    match edges.next() {
                        Some(edge) => break Some(edge.to),
                        None => {
                            open.pop();
                            sink.end();
                        }
                    }
                };
            }
        }
        sink.end();
    }
}

/// An object's attributes as the children of its element. Multi-valued
/// attributes become repeated child elements; single-valued ones stay
/// compact as children too (lossless round-trip of the loader's
/// text-only-child rule).
fn attr_children(obj: ObjRef<'_>, sink: &mut impl Sink) {
    for (name, value) in obj.attrs() {
        sink.start(name);
        sink.text(value);
        sink.end();
    }
}

/// Is this element "atomic" (text-only, no attributes, no element children)?
fn is_atomic(doc: &Document, node: NodeId) -> bool {
    doc.attr_count(node) == 0 && doc.child_elements(node).next().is_none()
}

/// The text children of `node`, in order.
fn own_text<'d>(doc: &'d Document, node: NodeId) -> impl Iterator<Item = &'d str> + 'd {
    (doc.children(node).iter())
        .filter(move |&&c| doc.kind(c) == NodeKind::Text)
        .map(move |&c| doc.text(c).unwrap_or(""))
}

/// The one pass that fills a base layer from a document: objects numbered
/// in document order, each with its whole attribute run (the element's
/// attributes, its own text, then its atomic children), containment edges
/// bottom up, then the resolved reference edges.
struct Loader<'d> {
    doc: &'d Document,
    refs: &'d RefTable,
    db: &'d mut Layer,
    /// Document node → object, one slot per arena node.
    node_to_obj: Vec<Option<ObjId>>,
    /// Objects per document tag symbol, an upper bound.
    types: Vec<u32>,
    /// A document symbol's name id and label id, `END` until first used.
    sym_ids: Vec<u32>,
    label_ids: Vec<u32>,
    /// The name ids of `text` (own text) and `object` (an element without
    /// a name), `END` until first used.
    text: u32,
    object: u32,
}

impl<'d> Loader<'d> {
    /// A loader with `db`'s tables sized for the tree under `root`, from a
    /// counting pass over `elements` (every element under `root`, at least).
    fn new(
        doc: &'d Document,
        root: NodeId,
        elements: impl Iterator<Item = NodeId>,
        refs: &'d RefTable,
        db: &'d mut Layer,
    ) -> Loader<'d> {
        // Counting pass, by upper bounds: objects, attributes, text bytes
        // and objects per type, so that the load below never grows a table.
        let (mut objects, mut attrs, mut text) = (0usize, 0usize, 0usize);
        let mut types: Vec<u32> = Vec::new();
        for node in elements {
            if node == root || !is_atomic(doc, node) {
                objects += 1;
                if let Some(sym) = doc.name_sym(node) {
                    if sym.index() >= types.len() {
                        types.resize(sym.index() + 1, 0);
                    }
                    types[sym.index()] += 1;
                }
            }
            attrs += doc.attr_count(node) + 1;
            text += doc.attrs(node).map(|(_, v)| v.len()).sum::<usize>();
            text += own_text(doc, node).map(str::len).sum::<usize>();
        }
        let edges = objects + refs.edges().len();
        db.objects.reserve_exact(objects);
        db.out.reserve_exact(objects);
        db.inc.reserve_exact(objects);
        db.attrs.reserve_exact(attrs);
        db.text.reserve_exact(text);
        db.edges.reserve_exact(edges);
        db.succ.reserve(edges);
        db.pred.reserve(edges);
        db.edge_set.reserve(edges);
        Loader {
            doc,
            refs,
            db,
            node_to_obj: vec![None; doc.node_count()],
            types,
            sym_ids: Vec::new(),
            label_ids: Vec::new(),
            text: END,
            object: END,
        }
    }

    /// The name id of document symbol `sym`.
    fn sym(&mut self, sym: Symbol) -> u32 {
        let slot = sym.index();
        if slot >= self.sym_ids.len() {
            self.sym_ids.resize(slot + 1, END);
        }
        if self.sym_ids[slot] == END {
            self.sym_ids[slot] = self.db.syms.intern(self.doc.resolve_sym(sym));
        }
        self.sym_ids[slot]
    }

    /// The name id of an element's tag, `object` for one without.
    fn tag(&mut self, node: NodeId) -> u32 {
        match self.doc.name_sym(node) {
            Some(sym) => self.sym(sym),
            None => {
                if self.object == END {
                    self.object = self.db.syms.intern("object");
                }
                self.object
            }
        }
    }

    /// The label id of an element's tag: interned when first used, as
    /// every label is, so label ids follow the order edges are added in.
    fn label(&mut self, node: NodeId) -> u32 {
        let Some(sym) = self.doc.name_sym(node) else {
            return self.db.labels.intern("object");
        };
        let slot = sym.index();
        if slot >= self.label_ids.len() {
            self.label_ids.resize(slot + 1, END);
        }
        if self.label_ids[slot] == END {
            self.label_ids[slot] = self.db.labels.intern(self.doc.resolve_sym(sym));
        }
        self.label_ids[slot]
    }

    /// Append `pieces` to the text pool as one value, trimmed; `None` (and
    /// nothing kept) when `keep_blank` is off and the value is blank.
    fn value<'p>(
        &mut self,
        pieces: impl Iterator<Item = &'p str>,
        keep_blank: bool,
    ) -> Option<Span> {
        let start = self.db.text.len();
        pieces.for_each(|p| self.db.text.push_str(p));
        let raw = &self.db.text[start..];
        let trimmed = raw.trim();
        if trimmed.is_empty() && !keep_blank {
            self.db.text.truncate(start);
            return None;
        }
        let lead = raw.len() - raw.trim_start().len();
        Some(Span {
            start: offset(start + lead, "text"),
            len: offset(trimmed.len(), "text"),
        })
    }

    /// Push one attribute of the object being loaded (the last one).
    fn attr(&mut self, name: u32, value: Span) {
        let db = &mut *self.db;
        let run = &mut db.objects.last_mut().expect("an object being loaded").attrs;
        run_push(&mut db.attrs, run, AttrRec { name, value });
    }

    /// The object of one element, with its whole attribute run.
    fn object(&mut self, node: NodeId) -> ObjId {
        let (doc, ty) = (self.doc, self.tag(node));
        // Its type's object list at its final size, when the type is new.
        let slot = ty as usize;
        if slot >= self.db.by_type.len() {
            self.db.by_type.resize_with(slot + 1, Vec::new);
        }
        if self.db.by_type[slot].capacity() == 0 {
            let sym = doc.name_sym(node).map(Symbol::index);
            let count = sym.and_then(|s| self.types.get(s)).copied().unwrap_or(0);
            self.db.by_type[slot].reserve_exact(count as usize);
        }
        let id = self.db.add_object(ty);
        self.node_to_obj[node.index()] = Some(id);
        for (sym, (_, value)) in doc.attr_syms(node).zip(doc.attrs(node)) {
            let name = self.sym(sym);
            let value = self.db.write_text(|text| text.push_str(value));
            self.attr(name, value);
        }
        // Direct text content becomes a `text` attribute when non-blank.
        if let Some(value) = self.value(own_text(doc, node), false) {
            if self.text == END {
                self.text = self.db.syms.intern("text");
            }
            self.attr(self.text, value);
        }
        for child in doc.child_elements(node).filter(|&c| is_atomic(doc, c)) {
            let name = self.tag(child);
            let value = self.value(own_text(doc, child), true).expect("kept");
            self.attr(name, value);
        }
        id
    }

    /// Load the element tree under `root`, in one loop over the open
    /// elements; an element's edge to a child object is added once the
    /// child's own subtree is loaded, so the child's edges come first. Then
    /// the reference edges.
    fn load(mut self, root: NodeId) {
        let doc = self.doc;
        // The open elements, innermost last: each with its object and the
        // element children still to visit.
        let top = self.object(root);
        let mut open = vec![(root, top, doc.child_elements(root))];
        while let Some((_, id, children)) = open.last_mut() {
            let id = *id;
            match children.next() {
                Some(child) if is_atomic(doc, child) => {}
                Some(child) => {
                    let cid = self.object(child);
                    open.push((child, cid, doc.child_elements(child)));
                }
                None => {
                    let (node, ..) = open.pop().expect("an open element");
                    if let Some(&(_, parent, _)) = open.last() {
                        let label = self.label(node);
                        self.db.add_edge(parent, label, id);
                    }
                }
            }
        }
        self.references();
    }

    /// Reference edges, labelled by the referencing attribute name: the
    /// first reference attribute of the source with a token naming the
    /// target. The table holds a node's edges together, so each node's
    /// attributes are split once, not once per edge.
    fn references(&mut self) {
        let (doc, refs) = (self.doc, self.refs);
        let mut labels: Vec<(NodeId, &str)> = Vec::new();
        for group in refs.edges().chunk_by(|a, b| a.from == b.from) {
            let source = group[0].from;
            let Some(from) = self.node_to_obj[source.index()] else {
                continue;
            };
            labels.clear();
            for (name, value) in doc.attrs(source) {
                if !matches!(name, "ref" | "idref" | "refs" | "idrefs") {
                    continue;
                }
                for target in xml_words(value).filter_map(|tok| refs.node_by_id(doc, tok)) {
                    if !labels.iter().any(|&(seen, _)| seen == target) {
                        labels.push((target, name));
                    }
                }
            }
            for edge in group {
                let Some(to) = self.node_to_obj[edge.to.index()] else {
                    continue;
                };
                let label = labels
                    .iter()
                    .find(|&&(target, _)| target == edge.to)
                    .map_or("ref", |&(_, name)| name);
                let lid = self.db.labels.intern(label);
                self.db.add_edge(from, lid, to);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_ssdm::rng::Rng;
    use gql_ssdm::sink::XmlSink;

    fn guide() -> Document {
        Document::parse_str(
            "<guide>\
               <restaurant id='r1' category='italian'>\
                 <name>Roma</name>\
                 <menu><name>lunch</name><price>20</price><dish>risotto</dish><dish>polenta</dish></menu>\
                 <near ref='h1'/>\
               </restaurant>\
               <hotel id='h1' stars='4'><name>Grand</name></hotel>\
             </guide>",
        )
        .unwrap()
    }

    /// Objects are numbered in document order, and a child's subtree edges
    /// come before its parent's edge to it. Both orders reach answer bytes
    /// (invented objects are numbered in the order embeddings are found),
    /// so the loader keeps them.
    #[test]
    fn loader_numbers_objects_in_document_order_and_adds_edges_bottom_up() {
        let doc = Document::parse_str("<a><b><c x='1'/></b><d y='2'/></a>").unwrap();
        let db = Instance::from_document(&doc);
        let types: Vec<&str> = db.objects().map(|(_, o)| o.ty()).collect();
        assert_eq!(types, ["a", "b", "c", "d"]);
        let edges: Vec<(usize, &str, usize)> = (db.edges())
            .map(|e| (e.from.index(), e.label, e.to.index()))
            .collect();
        assert_eq!(edges, [(1, "c", 2), (0, "b", 1), (0, "d", 3)]);
        assert_eq!(db.object(ObjId(2)).attr("x"), Some("1"));
    }

    #[test]
    fn loader_types_and_attrs() {
        let db = Instance::from_document(&guide());
        assert_eq!(db.objects_of_type("restaurant").count(), 1);
        assert_eq!(db.objects_of_type("hotel").count(), 1);
        assert_eq!(db.objects_of_type("menu").count(), 1);
        // Atomic children became attributes, not objects.
        assert!(db.objects_of_type("name").next().is_none());
        let r = db.objects_of_type("restaurant").next().unwrap();
        assert_eq!(db.object(r).attr("name"), Some("Roma"));
        assert_eq!(db.object(r).attr("category"), Some("italian"));
        let m = db.objects_of_type("menu").next().unwrap();
        assert_eq!(db.object(m).attr("price"), Some("20"));
        let dishes: Vec<&str> = db.object(m).attr_values("dish").collect();
        assert_eq!(dishes, vec!["risotto", "polenta"]);
    }

    #[test]
    fn loader_containment_edges() {
        let db = Instance::from_document(&guide());
        let r = db.objects_of_type("restaurant").next().unwrap();
        let m = db.objects_of_type("menu").next().unwrap();
        assert!(db.has_edge_key(r, db.label_key("menu"), m));
        assert_eq!(db.successors_key(r, db.label_key("menu")).count(), 1);
    }

    #[test]
    fn loader_reference_edges() {
        let db = Instance::from_document(&guide());
        let r = db.objects_of_type("restaurant").next().unwrap();
        let h = db.objects_of_type("hotel").next().unwrap();
        let near = db.objects_of_type("near").next().unwrap();
        // <near ref='h1'/> is an object (it carries an attribute) with a
        // reference edge to the hotel.
        assert!(db.has_edge_key(r, db.label_key("near"), near));
        assert!(db.has_edge_key(near, db.label_key("ref"), h));
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut db = Instance::new();
        let a = db.add_object(Object::new("a"));
        let b = db.add_object(Object::new("b"));
        assert!(db.add_edge(a, "x", b));
        assert!(!db.add_edge(a, "x", b));
        assert_eq!(db.edge_count(), 1);
        assert!(db.add_edge(a, "y", b));
    }

    #[test]
    fn adjacency() {
        let mut db = Instance::new();
        let a = db.add_object(Object::new("a"));
        let b = db.add_object(Object::new("b"));
        let c = db.add_object(Object::new("c"));
        db.add_edge(a, "x", b);
        db.add_edge(a, "x", c);
        db.add_edge(b, "y", c);
        assert_eq!(db.out_edges(a).count(), 2);
        assert_eq!(db.in_edges(c).count(), 2);
        let (x, y) = (db.label_key("x"), db.label_key("y"));
        let via: Vec<ObjId> = db.successors_key(a, x).collect();
        assert_eq!(via, vec![b, c]);
        let back: Vec<ObjId> = db.predecessors_key(c, x).collect();
        assert_eq!(back, vec![a]);
        let back: Vec<ObjId> = db.predecessors_key(c, y).collect();
        assert_eq!(back, vec![b]);
        assert_eq!(db.predecessors_key(a, x).count(), 0);
        let unknown = db.label_key("unknown-label");
        assert_eq!(db.successors_key(a, unknown).count(), 0);
    }

    #[test]
    fn to_document_roundtrip_shape() {
        let db = Instance::from_document(&guide());
        let doc = db.to_document("result", "restaurant", 2);
        let xml = doc.to_xml_string();
        assert!(xml.starts_with("<result><restaurant>"), "{xml}");
        assert!(xml.contains("<name>Roma</name>"));
        assert!(xml.contains("<price>20</price>"));
    }

    #[test]
    fn type_names_sorted() {
        let db = Instance::from_document(&guide());
        assert_eq!(
            db.type_names(),
            vec!["guide", "hotel", "menu", "near", "restaurant"]
        );
    }

    #[test]
    fn loaded_graph_is_the_shared_base_and_clones_own_only_their_additions() {
        let db = Instance::from_document(&guide());
        assert_eq!(db.delta_counts(), (0, 0));
        assert_eq!(db.base_holders(), 1);
        let (objects, edges) = (db.object_count(), db.edge_count());

        let mut work = db.clone();
        assert_eq!(db.base_holders(), 2);
        let r = work.objects_of_type("restaurant").next().unwrap();
        let h = work.objects_of_type("hotel").next().unwrap();
        let list = work.add_object(Object::new("list"));
        assert_eq!(list.index(), objects);
        // A base edge is a duplicate in the clone too.
        let m = work.objects_of_type("menu").next().unwrap();
        assert!(!work.add_edge(r, "menu", m));
        assert!(work.add_edge(list, "member", r));
        assert!(work.add_edge(r, "near", h));
        assert!(!work.add_edge(r, "near", h));
        assert_eq!(work.delta_counts(), (1, 2));
        assert_eq!(work.edge_count(), edges + 2);

        // Reads see the base first, then the delta: insertion order.
        let out: Vec<&str> = work.out_edges(r).map(|e| e.label).collect();
        assert_eq!(out, vec!["menu", "near", "near"]);
        let near: Vec<ObjId> = work.successors_key(r, work.label_key("near")).collect();
        assert_eq!(near.len(), 2);
        assert_eq!(near[1], h);
        assert_eq!(
            work.predecessors_key(r, work.label_key("member"))
                .collect::<Vec<_>>(),
            [list]
        );
        assert_eq!(work.in_edges(r).count(), 2); // guide -restaurant->, list -member->
        assert_eq!(work.out_edges(list).count(), 1);
        assert_eq!(work.edges().count(), edges + 2);
        assert_eq!(work.edges().last().unwrap().label, "near");
        assert_eq!(work.objects().count(), objects + 1);
        assert_eq!(work.object(list).ty(), "list");
        assert!(work.type_names().contains(&"list"));

        // The original saw none of it.
        assert_eq!((db.object_count(), db.edge_count()), (objects, edges));
        assert!(!db.has_edge_key(r, db.label_key("near"), h));
        assert_eq!(db.objects_of_type("list").count(), 0);
        drop(work);
        assert_eq!(db.base_holders(), 1);
    }

    /// One id space: a key taken from the base's labels or interned in the
    /// delta answers every probe right while the delta numbers more labels
    /// and adds edges after it, and a clone of the base takes the same ids.
    #[test]
    fn a_label_key_stays_valid_while_the_delta_interns_labels_and_adds_edges() {
        let db = Instance::from_document(&guide());
        let mut work = db.clone();
        let r = work.objects_of_type("restaurant").next().unwrap();
        let m = work.objects_of_type("menu").next().unwrap();
        let h = work.objects_of_type("hotel").next().unwrap();
        let menu = work.label_key("menu");
        let member = work.intern_label("member");
        let absent = work.label_key("zzz");
        assert_eq!(work.successors_key(r, member).count(), 0);

        let list = work.add_object(Object::new("list"));
        for label in ["a", "b", "member", "c", "menu"] {
            assert!(work.add_edge(list, label, r));
        }
        assert!(work.add_edge(r, "menu", h));
        assert!(work.add_edge(h, "member", list));
        assert!(work.add_edge(list, "zzz", h));

        assert!(work.has_edge_key(r, menu, m) && work.has_edge_key(r, menu, h));
        assert!(work.has_edge_key(list, menu, r));
        assert_eq!(work.successors_key(r, menu).collect::<Vec<_>>(), [m, h]);
        assert_eq!(work.predecessors_key(r, menu).collect::<Vec<_>>(), [list]);
        assert!(work.has_edge_key(list, member, r) && !work.has_edge_key(r, member, list));
        assert_eq!(work.successors_key(list, member).collect::<Vec<_>>(), [r]);
        assert_eq!(work.predecessors_key(list, member).collect::<Vec<_>>(), [h]);
        assert_eq!(work.predecessors_key(r, member).collect::<Vec<_>>(), [list]);
        assert_eq!(
            (work.intern_label("member"), work.label_key("menu")),
            (member, menu)
        );
        // The key of a label no edge had matches nothing, and the label's
        // own key does.
        assert!(!work.has_edge_key(list, absent, h));
        assert_eq!(work.successors_key(list, absent).count(), 0);
        assert!(work.has_edge_key(list, work.label_key("zzz"), h));
        // Every edge keeps its label's name.
        let out: Vec<&str> = work.out_edges(list).map(|e| e.label).collect();
        assert_eq!(out, ["a", "b", "member", "c", "menu", "zzz"]);
        // The base's keys are the same in every instance that shares it.
        assert_eq!(db.label_key("menu"), menu);
        assert!(db.has_edge_key(r, menu, m) && !db.has_edge_key(r, menu, h));
    }

    #[test]
    fn add_attr_on_a_shared_base_object_unshares() {
        let db = Instance::from_document(&guide());
        let r = db.objects_of_type("restaurant").next().unwrap();
        let mut other = db.clone();
        other.add_attr(r, "zzz", "1");
        assert_eq!(other.object(r).attr("zzz"), Some("1"));
        assert_eq!(db.object(r).attr("zzz"), None);
        assert_eq!((db.base_holders(), other.base_holders()), (1, 1));
        // An object of the delta is changed in place; the base stays shared.
        let mut third = db.clone();
        let o = third.add_object(Object::new("note"));
        third.add_attr(o, "k", "v");
        assert_eq!(third.object(o).attr("k"), Some("v"));
        assert_eq!(db.base_holders(), 2);
    }

    /// What `emit` writes into an `XmlSink`, and the nodes it counts.
    fn written(db: &Instance, root_type: &str, depth: usize) -> (String, u64) {
        let mut xml = String::new();
        let mut sink = XmlSink::new(&mut xml);
        db.emit("answer", root_type, depth, &mut sink);
        let nodes = sink.nodes();
        (xml, nodes)
    }

    #[test]
    fn the_answer_image_is_shared_by_clones_and_dropped_by_a_base_add_attr() {
        let db = Instance::from_document(&guide());
        assert!(db.answer_image().is_none());
        let image: *const Image = db.build_answer_image();
        let r = db.objects_of_type("restaurant").next().unwrap();
        // An evaluation's result is a clone of its input: it shares the
        // base, and its image.
        let program = crate::dsl::parse(
            "rule { query { $r: restaurant } construct { $l: list $l -member-> $r } } goal list",
        )
        .unwrap();
        let result = crate::eval::run(&program, &db).unwrap();
        assert!(std::ptr::eq(result.answer_image().unwrap(), image));
        assert!(written(&result, "list", 1).0.contains("<name>Roma</name>"));
        let mut work = db.clone();
        let note = work.add_object(Object::new("note"));
        work.add_attr(note, "k", "v");
        assert!(std::ptr::eq(work.answer_image().unwrap(), image));

        // A shared base is copied by `make_mut`; the copy has no image, and
        // the original keeps its own.
        work.add_attr(r, "zzz", "<1>");
        assert_eq!(work.base_holders(), 1);
        assert!(work.answer_image().is_none());
        assert!(std::ptr::eq(db.answer_image().unwrap(), image));
        assert!(written(&work, "restaurant", 0)
            .0
            .contains("<zzz>&lt;1&gt;</zzz>"));
        assert!(!written(&db, "restaurant", 0).0.contains("zzz"));

        // A base held once is changed in place, and its image dropped.
        let mut unique = Instance::from_document(&guide());
        unique.build_answer_image();
        unique.add_attr(r, "zzz", "2");
        assert_eq!(unique.base_holders(), 1);
        assert!(unique.answer_image().is_none());
        let events = written(&unique, "restaurant", 2);
        assert!(events.0.contains("<zzz>2</zzz>"), "{}", events.0);
        // Built again, the image holds the new attribute.
        let (xml, nodes) = unique.build_answer_image().item(r.index()).unwrap();
        assert!(xml.ends_with("<zzz>2</zzz>"), "{xml}");
        assert_eq!(nodes, 2 * unique.object(r).attr_count() as u64);
        assert_eq!(written(&unique, "restaurant", 2), events);
    }

    /// A random document whose load has objects with no attributes,
    /// repeated attribute names, empty values, `<&>"'` and non-ASCII in
    /// values, and ID/IDREF references, cycles among them.
    fn random_document(rng: &mut Rng) -> Document {
        const NAMES: [&str; 4] = ["a", "b", "c", "é"];
        const VALUES: [&str; 6] = ["", "v", "<&>\"'", "é ü", " x y ", "&amp;"];
        let mut doc = Document::new();
        let top = doc.create_element("db");
        doc.append_child(doc.root(), top).unwrap();
        let mut elements = vec![top];
        for _ in 0..rng.gen_range(1..40) {
            let parent = elements[rng.gen_range(0..elements.len())];
            let el = doc.create_element(NAMES[rng.gen_range(0..NAMES.len())]);
            doc.append_child(parent, el).unwrap();
            match rng.gen_range(0..4) {
                // Text-only: an attribute of the parent, unless it gets
                // children later.
                0 => {
                    let text = doc.create_text(VALUES[rng.gen_range(0..VALUES.len())]);
                    doc.append_child(el, text).unwrap();
                }
                1 => {
                    let value = VALUES[rng.gen_range(0..VALUES.len())];
                    doc.set_attr(el, NAMES[rng.gen_range(0..NAMES.len())], value)
                        .unwrap();
                }
                _ => {}
            }
            elements.push(el);
        }
        let ids = elements.len();
        for (i, &el) in elements.iter().enumerate() {
            if rng.gen_bool(0.3) {
                doc.set_attr(el, "id", &format!("i{i}")).unwrap();
            }
        }
        for &el in &elements {
            if rng.gen_bool(0.3) {
                let target = format!("i{} i{}", rng.gen_range(0..ids), rng.gen_range(0..ids));
                doc.set_attr(el, if rng.gen_bool(0.5) { "ref" } else { "refs" }, &target)
                    .unwrap();
            }
        }
        doc
    }

    #[test]
    fn an_emit_from_the_answer_image_is_the_event_emit() {
        let mut held = 0;
        for seed in 0..200 {
            let mut rng = Rng::seed_from_u64(seed);
            let doc = random_document(&mut rng);
            let mut imaged = Instance::from_document(&doc);
            let mut plain = Instance::from_document(&doc);
            let image = imaged.build_answer_image();
            for (id, obj) in plain.objects() {
                let item = image.item(id.index());
                assert_eq!(item.is_some(), obj.attr_count() != 0, "seed {seed}");
                held += usize::from(item.is_some());
            }
            // Invented objects, with and without attributes, with edges
            // into the base, out of it and among themselves.
            let base = plain.object_count();
            for db in [&mut imaged, &mut plain] {
                let mut rng = Rng::seed_from_u64(seed);
                for _ in 0..rng.gen_range(0..6) {
                    let inv = db.add_object(Object::new("inv"));
                    for _ in 0..rng.gen_range(0..3) {
                        db.add_attr(inv, "k", ["", "<&>", "é"][rng.gen_range(0..3)]);
                    }
                    for _ in 0..rng.gen_range(0..4) {
                        let other = ObjId(rng.gen_range(0..db.object_count()) as u32);
                        if rng.gen_bool(0.5) {
                            db.add_edge(inv, "to", other);
                        } else {
                            db.add_edge(other, "from", inv);
                        }
                    }
                }
                let from = ObjId(rng.gen_range(0..base) as u32);
                db.add_edge(from, "back", ObjId(rng.gen_range(0..base) as u32));
            }
            assert!(imaged.answer_image().is_some(), "a delta change keeps it");
            let mut types = plain.type_names();
            types.push("inv");
            for depth in 0..=3 {
                for &ty in &types {
                    let (xml, nodes) = written(&imaged, ty, depth);
                    let events = written(&plain, ty, depth);
                    assert_eq!(
                        (&xml, nodes),
                        (&events.0, events.1),
                        "seed {seed}, {ty}@{depth}"
                    );
                    for db in [&imaged, &plain] {
                        let built = db.to_document("answer", ty, depth);
                        assert_eq!(built.to_xml_string(), xml, "seed {seed}, {ty}@{depth}");
                        assert_eq!(built.node_count() as u64 - 1, nodes);
                    }
                }
            }
        }
        assert!(held > 1000, "the image held {held} objects");
    }

    #[test]
    fn reference_labels_follow_the_first_attribute_naming_the_target() {
        let doc = Document::parse_str(
            "<db><p id='p1'/><p id='p2'/><p id='p3'/>\
             <v k='1' refs='p1 p2' ref='p2' idrefs='p3 p1'/></db>",
        )
        .unwrap();
        let db = Instance::from_document(&doc);
        let v = db.objects_of_type("v").next().unwrap();
        let mut out: Vec<(String, String)> = db
            .out_edges(v)
            .map(|e| {
                let id = db.object(e.to).attr("id").unwrap();
                (e.label.to_string(), id.to_string())
            })
            .collect();
        out.sort();
        let expect = [("idrefs", "p3"), ("refs", "p1"), ("refs", "p2")];
        let expect: Vec<(String, String)> = expect
            .iter()
            .map(|(l, t)| (l.to_string(), t.to_string()))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn mixed_text_becomes_text_attr() {
        let doc = Document::parse_str("<p note='x'>hello <b>world</b></p>").unwrap();
        let db = Instance::from_document(&doc);
        let p = db.objects_of_type("p").next().unwrap();
        assert_eq!(db.object(p).attr("text"), Some("hello"));
        // <b> is atomic → attribute.
        assert_eq!(db.object(p).attr("b"), Some("world"));
    }
}
