//! Runtime collections: one enum dispatching to the Table I
//! implementations, selected from the static type annotation.
//!
//! Storage representation is a pure function of the static type at
//! creation time ([`Collection::new_for`]): a collection whose
//! elements (or keys and payloads) are scalars stores unboxed
//! [`ScalarVal`]s, one whose elements (or map payloads) are tuples of
//! scalars stores them columnar or as packed [`ScalarRow`]s, and the
//! boxed [`Value`] backends are the general fallback. The four backend
//! families shared by the twins — [`ArraySeq`], [`ChainedHashSet`],
//! [`ChainedHashMap`] and [`BitMap`] — have each op written once,
//! generic over the element representation ([`Repr`]).

use std::borrow::Cow;
use std::hash::Hash;
use std::mem::size_of;

use ade_collections::{
    ArraySeq, BitMap, ChainedHashMap, ChainedHashSet, ColumnMap, ColumnSeq, DynamicBitSet,
    FlatSet, SparseBitSet, SwissMap, SwissSet,
};
use ade_ir::{MapSel, SetSel, Type};

use crate::stats::ImplKind;
use crate::trap::{TrapKind, ENC_SENTINEL};
use crate::value::{ScalarRow, ScalarVal, Value};

/// Handle into the interpreter's collection heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollId(pub u32);

/// Defaults used for `Auto` (empty) selections: this knob realizes the
/// evaluation's `memoir` (hash defaults) versus `memoir-abseil` (swiss
/// defaults) configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectionDefaults {
    /// Implementation for `Set{•}`.
    pub set: SetSel,
    /// Implementation for `Map{•}`.
    pub map: MapSel,
}

impl Default for SelectionDefaults {
    fn default() -> Self {
        Self {
            set: SetSel::Hash,
            map: MapSel::Hash,
        }
    }
}

/// A runtime collection.
#[derive(Clone, Debug)]
pub enum Collection {
    /// Resizeable array sequence.
    Seq(ArraySeq<Value>),
    /// Chained hash set.
    HashSet(ChainedHashSet<Value>),
    /// Swiss-table set.
    SwissSet(SwissSet<Value>),
    /// Sorted-array set.
    FlatSet(FlatSet<Value>),
    /// Dense bitset (enumerated keys).
    BitSet(DynamicBitSet),
    /// Roaring-style compressed bitset (enumerated keys).
    SparseBitSet(SparseBitSet),
    /// Chained hash map.
    HashMap(ChainedHashMap<Value, Value>),
    /// Swiss-table map.
    SwissMap(SwissMap<Value, Value>),
    /// Dense bitmap (enumerated keys).
    BitMap(BitMap<Value>),
    /// [`Collection::Seq`] with unboxed scalar elements.
    ///
    /// The unboxed variants are pure physical-representation swaps: the
    /// same backend code instantiated at [`ScalarVal`] instead of
    /// [`Value`], picked by [`Collection::new_for`] when the static
    /// element/key type is scalar. They report the boxed twin's
    /// [`ImplKind`] and byte accounting, so statistics, modeled cost,
    /// and the memory figures cannot tell the difference — only wall
    /// time can.
    UnboxedSeq(ArraySeq<ScalarVal>),
    /// [`Collection::HashSet`] with unboxed scalar elements. Same
    /// hash/eq as the boxed twin (see [`ScalarVal`]), hence the same
    /// bucket order.
    UnboxedHashSet(ChainedHashSet<ScalarVal>),
    /// [`Collection::HashMap`] with unboxed scalar keys and values.
    UnboxedHashMap(ChainedHashMap<ScalarVal, ScalarVal>),
    /// [`Collection::BitMap`] with unboxed scalar values.
    UnboxedBitMap(BitMap<ScalarVal>),
    /// [`Collection::Seq`] with columnar (structure-of-arrays) tuple
    /// storage: one unboxed scalar column per tuple field instead of a
    /// boxed `Arc<[Value]>` row per element, picked when the static
    /// element type is a tuple of scalars. Like the `Unboxed*` family,
    /// a pure physical-representation swap: same [`ImplKind`], same
    /// byte accounting, same iteration order; tuple reads that escape
    /// rematerialize the boxed row lazily.
    SoaSeq(ColumnSeq<ScalarVal>),
    /// [`Collection::HashSet`] with packed unboxed tuple rows
    /// ([`ScalarRow`]) as elements. Same hash/eq as the boxed twin, so
    /// the same bucket order.
    SoaHashSet(ChainedHashSet<ScalarRow>),
    /// [`Collection::HashMap`] with unboxed scalar keys and packed
    /// unboxed tuple rows as payloads.
    SoaHashMap(ChainedHashMap<ScalarVal, ScalarRow>),
    /// [`Collection::BitMap`] with columnar tuple payloads: presence
    /// bits plus one dense unboxed column per tuple field.
    SoaBitMap(ColumnMap<ScalarVal>),
}

/// Whether a static element/key type can be stored unboxed.
fn unboxable(ty: &Type) -> bool {
    matches!(
        ty,
        Type::Bool | Type::U64 | Type::I64 | Type::F64 | Type::Idx
    )
}

/// The column count when a static element/payload type can be stored
/// columnar: a tuple whose every field is an unboxed scalar.
fn soa_arity(ty: &Type) -> Option<usize> {
    match ty {
        Type::Tuple(fields) if !fields.is_empty() && fields.iter().all(unboxable) => {
            Some(fields.len())
        }
        _ => None,
    }
}

/// How an element, key or payload is represented inside one of the
/// backend families shared by the boxed collections and their twins.
/// The family ops below are written once over this trait, so a twin
/// differs from its boxed fallback only in these three conversions.
trait Repr: Clone + Eq + Hash {
    /// Packs a value for a *store* (insert/write). Packing can only
    /// fail on IR the verifier would reject (a mistyped value flowing
    /// into a scalar- or tuple-typed collection), where boxed storage
    /// would silently keep the mistyped value; packed storage traps.
    fn store(value: Value) -> Result<Self, TrapKind>;
    /// The form a lookup key takes: borrowed for boxed storage, so a
    /// lookup never clones a boxed key; packed otherwise. `None` when
    /// the key cannot equal any stored element, so the lookup misses —
    /// the answer boxed storage gives, since only storable values are
    /// ever stored.
    fn probe(key: &Value) -> Option<Cow<'_, Self>>;
    /// Rematerializes the boxed value.
    fn load(&self) -> Value;
}

impl Repr for Value {
    #[inline]
    fn store(value: Value) -> Result<Value, TrapKind> {
        Ok(value)
    }

    #[inline]
    fn probe(key: &Value) -> Option<Cow<'_, Value>> {
        Some(Cow::Borrowed(key))
    }

    #[inline]
    fn load(&self) -> Value {
        self.clone()
    }
}

impl Repr for ScalarVal {
    #[inline]
    fn store(value: Value) -> Result<ScalarVal, TrapKind> {
        ScalarVal::from_value(&value).ok_or_else(|| TrapKind::TypeMismatch {
            expected: "unboxed scalar",
            got: format!("{value:?}"),
        })
    }

    #[inline]
    fn probe(key: &Value) -> Option<Cow<'_, ScalarVal>> {
        ScalarVal::from_value(key).map(Cow::Owned)
    }

    #[inline]
    fn load(&self) -> Value {
        self.to_value()
    }
}

impl Repr for ScalarRow {
    #[inline]
    fn store(value: Value) -> Result<ScalarRow, TrapKind> {
        ScalarRow::from_value(&value).ok_or_else(|| TrapKind::TypeMismatch {
            expected: "scalar tuple row",
            got: format!("{value:?}"),
        })
    }

    #[inline]
    fn probe(key: &Value) -> Option<Cow<'_, ScalarRow>> {
        ScalarRow::from_value(key).map(Cow::Owned)
    }

    #[inline]
    fn load(&self) -> Value {
        self.to_value()
    }
}

/// [`ScalarRow`]'s store for a fixed-arity columnar target: the row
/// must also match the column count.
fn column_store(value: Value, arity: usize) -> Result<ScalarRow, TrapKind> {
    let row = ScalarRow::store(value)?;
    if row.len() == arity {
        Ok(row)
    } else {
        Err(TrapKind::TypeMismatch {
            expected: "scalar tuple row of matching arity",
            got: format!("{:?}", row.to_value()),
        })
    }
}

/// Rematerializes a boxed tuple from gathered column scalars.
fn column_tuple(row: Vec<ScalarVal>) -> Value {
    Value::Tuple(row.into_iter().map(ScalarVal::to_value).collect())
}

/// The in-bounds position `key` names in a sequence of length `len`.
fn seq_index(key: &Value, len: usize) -> Result<usize, TrapKind> {
    let i = key.try_as_u64()?;
    if i as usize >= len {
        return Err(TrapKind::OutOfBounds { index: i, len });
    }
    Ok(i as usize)
}

/// The bounds check of a sequence insertion (appending at `len` is in
/// bounds).
fn seq_insert_index(index: usize, len: usize) -> Result<(), TrapKind> {
    if index > len {
        return Err(TrapKind::OutOfBounds {
            index: index as u64,
            len,
        });
    }
    Ok(())
}

/// A key bound for a dense-implementation *insert* (or upsert): the
/// `enc` sentinel must never materialize as a stored element — the
/// invariant a correct ADE compilation maintains, and the trap a
/// broken one raises.
fn dense_key(key: &Value) -> Result<usize, TrapKind> {
    let i = key.try_as_index()?;
    if i == ENC_SENTINEL {
        return Err(TrapKind::SentinelInsert);
    }
    Ok(i)
}

/// The trap for a keyed read of an absent key.
fn missing(key: &Value) -> TrapKind {
    TrapKind::MissingKey {
        key: key.to_string(),
    }
}

// Byte accounting: every representation is priced at the boxed entry
// width. The figures' memory accounting is calibrated against the
// boxed layouts, and the backends' capacity trajectories are identical
// at every width, so a twin reports its boxed fallback's exact size.
// Columnar backends price per boxed *row entry* the same way: all
// columns share one capacity trajectory. (The boxed per-element
// `Arc<[Value]>` tuple field arrays are value-owned heap data, which
// the fast estimates exclude for every backend.)

/// Boxed width of one sequence slot or dense-map payload slot.
const BOXED_SLOT: usize = size_of::<Value>();
/// Boxed width of one chained-hash-set entry.
const BOXED_SET_ENTRY: usize = size_of::<(Value, ())>();
/// Boxed width of one chained-hash-map entry.
const BOXED_MAP_ENTRY: usize = size_of::<(Value, Value)>();

// Sequences: `ArraySeq<T>`.

fn seq_read<T: Repr>(s: &ArraySeq<T>, key: &Value) -> Result<Value, TrapKind> {
    Ok(s.as_slice()[seq_index(key, s.len())?].load())
}

fn seq_write<T: Repr>(s: &mut ArraySeq<T>, key: &Value, value: Value) -> Result<(), TrapKind> {
    let i = seq_index(key, s.len())?;
    s.set(i, T::store(value)?);
    Ok(())
}

fn seq_insert<T: Repr>(s: &mut ArraySeq<T>, index: usize, value: Value) -> Result<(), TrapKind> {
    seq_insert_index(index, s.len())?;
    let v = T::store(value)?;
    if index == s.len() {
        s.push(v);
    } else {
        s.insert(index, v);
    }
    Ok(())
}

fn seq_remove<T>(s: &mut ArraySeq<T>, key: &Value) -> Result<(), TrapKind> {
    s.remove(seq_index(key, s.len())?);
    Ok(())
}

fn seq_snapshot<T: Repr>(s: &ArraySeq<T>) -> Vec<(Value, Value)> {
    s.iter()
        .enumerate()
        .map(|(i, v)| (Value::U64(i as u64), v.load()))
        .collect()
}

// Chained hash sets: `ChainedHashSet<T>`.

fn set_has<T: Repr>(s: &ChainedHashSet<T>, key: &Value) -> bool {
    T::probe(key).is_some_and(|k| s.contains(&k))
}

fn set_insert<T: Repr>(s: &mut ChainedHashSet<T>, value: Value) -> Result<bool, TrapKind> {
    Ok(s.insert(T::store(value)?))
}

fn set_remove<T: Repr>(s: &mut ChainedHashSet<T>, key: &Value) {
    if let Some(k) = T::probe(key) {
        s.remove(&k);
    }
}

fn set_snapshot<T: Repr>(s: &ChainedHashSet<T>) -> Vec<(Value, Value)> {
    s.iter().map(|v| (v.load(), Value::Void)).collect()
}

// Chained hash maps: `ChainedHashMap<K, V>`.

fn map_has<K: Repr, V>(m: &ChainedHashMap<K, V>, key: &Value) -> bool {
    K::probe(key).is_some_and(|k| m.contains_key(&k))
}

fn map_read<K: Repr, V: Repr>(m: &ChainedHashMap<K, V>, key: &Value) -> Result<Value, TrapKind> {
    K::probe(key)
        .and_then(|k| m.get(&k))
        .map(V::load)
        .ok_or_else(|| missing(key))
}

fn map_write<K: Repr, V: Repr>(
    m: &mut ChainedHashMap<K, V>,
    key: &Value,
    value: Value,
) -> Result<(), TrapKind> {
    m.insert(K::store(key.clone())?, V::store(value)?);
    Ok(())
}

fn map_insert_key_default<K: Repr, V: Repr>(
    m: &mut ChainedHashMap<K, V>,
    key: &Value,
    default: Value,
) -> Result<(), TrapKind> {
    if !map_has(m, key) {
        m.insert(K::store(key.clone())?, V::store(default)?);
    }
    Ok(())
}

fn map_remove<K: Repr, V>(m: &mut ChainedHashMap<K, V>, key: &Value) {
    if let Some(k) = K::probe(key) {
        m.remove(&k);
    }
}

fn map_snapshot<K: Repr, V: Repr>(m: &ChainedHashMap<K, V>) -> Vec<(Value, Value)> {
    m.iter().map(|(k, v)| (k.load(), v.load())).collect()
}

// Dense maps: `BitMap<T>`.

fn dense_read<T: Repr + Default>(m: &BitMap<T>, key: &Value) -> Result<Value, TrapKind> {
    m.get(key.try_as_index()?)
        .map(T::load)
        .ok_or_else(|| missing(key))
}

fn dense_write<T: Repr + Default>(
    m: &mut BitMap<T>,
    key: &Value,
    value: Value,
) -> Result<(), TrapKind> {
    m.insert(dense_key(key)?, T::store(value)?);
    Ok(())
}

fn dense_insert_key_default<T: Repr + Default>(
    m: &mut BitMap<T>,
    key: &Value,
    default: Value,
) -> Result<(), TrapKind> {
    let i = dense_key(key)?;
    if !m.contains_key(i) {
        m.insert(i, T::store(default)?);
    }
    Ok(())
}

fn dense_snapshot<T: Repr + Default>(m: &BitMap<T>) -> Vec<(Value, Value)> {
    m.iter().map(|(k, v)| (Value::Idx(k), v.load())).collect()
}

impl Collection {
    /// Allocates the implementation selected by `ty` (with `defaults`
    /// resolving empty selections). The storage representation follows
    /// from the static type alone: where the element (or map payload)
    /// type is a tuple of scalars, the sequence, chained-hash and
    /// dense-map backends store columns or packed `ScalarRow`s; where
    /// the element/key/value types are scalar, they store packed
    /// [`ScalarVal`]s (a type is scalar or a scalar tuple, never both).
    /// The boxed variants are the general fallback; the swiss, flat and
    /// bit-set backends always use them (the bit sets already store raw
    /// indices).
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a collection type.
    pub fn new_for(ty: &Type, defaults: SelectionDefaults) -> Collection {
        match ty {
            Type::Seq(elem) => match soa_arity(elem) {
                Some(ar) => Collection::SoaSeq(ColumnSeq::new(ar)),
                None if unboxable(elem) => Collection::UnboxedSeq(ArraySeq::new()),
                None => Collection::Seq(ArraySeq::new()),
            },
            Type::Set { elem, sel } => {
                let sel = if *sel == SetSel::Auto {
                    defaults.set
                } else {
                    *sel
                };
                match sel {
                    SetSel::Auto | SetSel::Hash => {
                        if soa_arity(elem).is_some() {
                            Collection::SoaHashSet(ChainedHashSet::new())
                        } else if unboxable(elem) {
                            Collection::UnboxedHashSet(ChainedHashSet::new())
                        } else {
                            Collection::HashSet(ChainedHashSet::new())
                        }
                    }
                    SetSel::Swiss => Collection::SwissSet(SwissSet::new()),
                    SetSel::Flat => Collection::FlatSet(FlatSet::new()),
                    SetSel::Bit => Collection::BitSet(DynamicBitSet::new()),
                    SetSel::SparseBit => Collection::SparseBitSet(SparseBitSet::new()),
                }
            }
            Type::Map { key, val, sel } => {
                let sel = if *sel == MapSel::Auto {
                    defaults.map
                } else {
                    *sel
                };
                match sel {
                    MapSel::Auto | MapSel::Hash => {
                        if unboxable(key) && soa_arity(val).is_some() {
                            Collection::SoaHashMap(ChainedHashMap::new())
                        } else if unboxable(key) && unboxable(val) {
                            Collection::UnboxedHashMap(ChainedHashMap::new())
                        } else {
                            Collection::HashMap(ChainedHashMap::new())
                        }
                    }
                    MapSel::Swiss => Collection::SwissMap(SwissMap::new()),
                    MapSel::Bit => match soa_arity(val) {
                        Some(ar) => Collection::SoaBitMap(ColumnMap::new(ar)),
                        None if unboxable(val) => Collection::UnboxedBitMap(BitMap::new()),
                        None => Collection::BitMap(BitMap::new()),
                    },
                }
            }
            other => panic!("cannot allocate non-collection type {other}"),
        }
    }

    /// The instantiated backend's physical-layout label, for the
    /// `exec_backend_selected_total{kind=…}` metric. Unlike
    /// [`Collection::impl_kind`], this *does* distinguish the unboxed
    /// and columnar twins from their boxed fallbacks — the metric
    /// exists to observe which physical layouts a run instantiated.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Collection::Seq(_) => "seq",
            Collection::HashSet(_) => "hash_set",
            Collection::SwissSet(_) => "swiss_set",
            Collection::FlatSet(_) => "flat_set",
            Collection::BitSet(_) => "bit_set",
            Collection::SparseBitSet(_) => "sparse_bit_set",
            Collection::HashMap(_) => "hash_map",
            Collection::SwissMap(_) => "swiss_map",
            Collection::BitMap(_) => "bit_map",
            Collection::UnboxedSeq(_) => "unboxed_seq",
            Collection::UnboxedHashSet(_) => "unboxed_hash_set",
            Collection::UnboxedHashMap(_) => "unboxed_hash_map",
            Collection::UnboxedBitMap(_) => "unboxed_bit_map",
            Collection::SoaSeq(_) => "soa_seq",
            Collection::SoaHashSet(_) => "soa_hash_set",
            Collection::SoaHashMap(_) => "soa_hash_map",
            Collection::SoaBitMap(_) => "soa_bit_map",
        }
    }

    /// Which implementation this is (for statistics and cost modeling).
    /// Unboxed and columnar storage are physical-representation
    /// choices, not Table I implementations: a twin reports its boxed
    /// fallback's kind, so statistics and modeled cost are keyed
    /// identically.
    pub fn impl_kind(&self) -> ImplKind {
        match self {
            Collection::Seq(_) | Collection::UnboxedSeq(_) | Collection::SoaSeq(_) => ImplKind::Seq,
            Collection::HashSet(_) | Collection::UnboxedHashSet(_) | Collection::SoaHashSet(_) => {
                ImplKind::HashSet
            }
            Collection::SwissSet(_) => ImplKind::SwissSet,
            Collection::FlatSet(_) => ImplKind::FlatSet,
            Collection::BitSet(_) => ImplKind::BitSet,
            Collection::SparseBitSet(_) => ImplKind::SparseBitSet,
            Collection::HashMap(_) | Collection::UnboxedHashMap(_) | Collection::SoaHashMap(_) => {
                ImplKind::HashMap
            }
            Collection::SwissMap(_) => ImplKind::SwissMap,
            Collection::BitMap(_) | Collection::UnboxedBitMap(_) | Collection::SoaBitMap(_) => {
                ImplKind::BitMap
            }
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Collection::Seq(s) => s.len(),
            Collection::HashSet(s) => s.len(),
            Collection::SwissSet(s) => s.len(),
            Collection::FlatSet(s) => s.len(),
            Collection::BitSet(s) => s.len(),
            Collection::SparseBitSet(s) => s.len(),
            Collection::HashMap(m) => m.len(),
            Collection::SwissMap(m) => m.len(),
            Collection::BitMap(m) => m.len(),
            Collection::UnboxedSeq(s) => s.len(),
            Collection::UnboxedHashSet(s) => s.len(),
            Collection::UnboxedHashMap(m) => m.len(),
            Collection::UnboxedBitMap(m) => m.len(),
            Collection::SoaSeq(s) => s.len(),
            Collection::SoaHashSet(s) => s.len(),
            Collection::SoaHashMap(m) => m.len(),
            Collection::SoaBitMap(m) => m.len(),
        }
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Constant-time-ish heap footprint estimate (see the collection
    /// crate's `heap_bytes_fast` methods), priced at the boxed entry
    /// width for every representation.
    pub fn bytes_estimate(&self) -> usize {
        match self {
            Collection::Seq(s) => s.heap_bytes_fast_as(BOXED_SLOT),
            Collection::UnboxedSeq(s) => s.heap_bytes_fast_as(BOXED_SLOT),
            Collection::SoaSeq(s) => s.heap_bytes_fast_as(BOXED_SLOT),
            Collection::HashSet(s) => s.heap_bytes_fast_as(BOXED_SET_ENTRY),
            Collection::UnboxedHashSet(s) => s.heap_bytes_fast_as(BOXED_SET_ENTRY),
            Collection::SoaHashSet(s) => s.heap_bytes_fast_as(BOXED_SET_ENTRY),
            Collection::HashMap(m) => m.heap_bytes_fast_as(BOXED_MAP_ENTRY),
            Collection::UnboxedHashMap(m) => m.heap_bytes_fast_as(BOXED_MAP_ENTRY),
            Collection::SoaHashMap(m) => m.heap_bytes_fast_as(BOXED_MAP_ENTRY),
            Collection::BitMap(m) => m.heap_bytes_fast_as(BOXED_SLOT),
            Collection::UnboxedBitMap(m) => m.heap_bytes_fast_as(BOXED_SLOT),
            Collection::SoaBitMap(m) => m.heap_bytes_fast_as(BOXED_SLOT),
            Collection::SwissSet(s) => s.heap_bytes_fast(),
            Collection::FlatSet(s) => s.heap_bytes_fast(),
            Collection::BitSet(s) => s.heap_bytes_fast(),
            Collection::SparseBitSet(s) => s.heap_bytes_fast(),
            Collection::SwissMap(m) => m.heap_bytes_fast(),
        }
    }

    /// Membership test (sets and maps). The `enc` sentinel is a member
    /// of no collection, so probing for it is well-defined (`false`).
    ///
    /// # Errors
    ///
    /// [`TrapKind::UnsupportedOp`] on sequences; [`TrapKind::TypeMismatch`]
    /// when a dense implementation gets a non-index key.
    pub fn try_has(&self, key: &Value) -> Result<bool, TrapKind> {
        Ok(match self {
            Collection::HashSet(s) => set_has(s, key),
            Collection::UnboxedHashSet(s) => set_has(s, key),
            Collection::SoaHashSet(s) => set_has(s, key),
            Collection::SwissSet(s) => s.contains(key),
            Collection::FlatSet(s) => s.contains(key),
            Collection::BitSet(s) => s.contains(key.try_as_index()?),
            Collection::SparseBitSet(s) => s.contains(key.try_as_index()?),
            Collection::HashMap(m) => map_has(m, key),
            Collection::UnboxedHashMap(m) => map_has(m, key),
            Collection::SoaHashMap(m) => map_has(m, key),
            Collection::SwissMap(m) => m.contains_key(key),
            Collection::BitMap(m) => m.contains_key(key.try_as_index()?),
            Collection::UnboxedBitMap(m) => m.contains_key(key.try_as_index()?),
            Collection::SoaBitMap(m) => m.contains_key(key.try_as_index()?),
            Collection::Seq(_) | Collection::UnboxedSeq(_) | Collection::SoaSeq(_) => {
                return Err(TrapKind::UnsupportedOp {
                    op: "has",
                    on: "a sequence".to_string(),
                })
            }
        })
    }

    /// Keyed/indexed read (maps and sequences).
    ///
    /// # Errors
    ///
    /// [`TrapKind::MissingKey`]/[`TrapKind::OutOfBounds`] when the key is
    /// absent (undefined behavior in the paper's semantics);
    /// [`TrapKind::UnsupportedOp`] on sets.
    pub fn try_read(&self, key: &Value) -> Result<Value, TrapKind> {
        match self {
            Collection::Seq(s) => seq_read(s, key),
            Collection::UnboxedSeq(s) => seq_read(s, key),
            Collection::HashMap(m) => map_read(m, key),
            Collection::UnboxedHashMap(m) => map_read(m, key),
            Collection::SoaHashMap(m) => map_read(m, key),
            Collection::SwissMap(m) => m.get(key).cloned().ok_or_else(|| missing(key)),
            Collection::BitMap(m) => dense_read(m, key),
            Collection::UnboxedBitMap(m) => dense_read(m, key),
            // Escaping reads rematerialize the boxed tuple from the
            // gathered columns lazily.
            Collection::SoaSeq(s) => {
                let i = seq_index(key, s.len())?;
                Ok(column_tuple(s.row(i).expect("in bounds")))
            }
            Collection::SoaBitMap(m) => m
                .row(key.try_as_index()?)
                .map(column_tuple)
                .ok_or_else(|| missing(key)),
            other => Err(TrapKind::UnsupportedOp {
                op: "read",
                on: format!("{:?}", other.impl_kind()),
            }),
        }
    }

    /// Keyed/indexed write (upsert for maps; in-bounds store for
    /// sequences).
    ///
    /// # Errors
    ///
    /// [`TrapKind::UnsupportedOp`] on sets; [`TrapKind::OutOfBounds`] on
    /// out-of-bounds sequence indices; [`TrapKind::SentinelInsert`] when
    /// the `enc` sentinel reaches a dense map.
    pub fn try_write(&mut self, key: &Value, value: Value) -> Result<(), TrapKind> {
        match self {
            Collection::Seq(s) => seq_write(s, key, value),
            Collection::UnboxedSeq(s) => seq_write(s, key, value),
            Collection::HashMap(m) => map_write(m, key, value),
            Collection::UnboxedHashMap(m) => map_write(m, key, value),
            Collection::SoaHashMap(m) => map_write(m, key, value),
            Collection::SwissMap(m) => {
                m.insert(key.clone(), value);
                Ok(())
            }
            Collection::BitMap(m) => dense_write(m, key, value),
            Collection::UnboxedBitMap(m) => dense_write(m, key, value),
            Collection::SoaSeq(s) => {
                let i = seq_index(key, s.len())?;
                s.set_row(i, column_store(value, s.arity())?.fields());
                Ok(())
            }
            Collection::SoaBitMap(m) => {
                let i = dense_key(key)?;
                m.insert(i, column_store(value, m.arity())?.fields());
                Ok(())
            }
            other => Err(TrapKind::UnsupportedOp {
                op: "write",
                on: format!("{:?}", other.impl_kind()),
            }),
        }
    }

    /// Set-element insertion. Returns `true` if newly added.
    ///
    /// # Errors
    ///
    /// [`TrapKind::UnsupportedOp`] on non-sets;
    /// [`TrapKind::SentinelInsert`] when the `enc` sentinel reaches a
    /// dense set.
    pub fn try_insert_elem(&mut self, value: Value) -> Result<bool, TrapKind> {
        match self {
            Collection::HashSet(s) => set_insert(s, value),
            Collection::UnboxedHashSet(s) => set_insert(s, value),
            Collection::SoaHashSet(s) => set_insert(s, value),
            Collection::SwissSet(s) => Ok(s.insert(value)),
            Collection::FlatSet(s) => Ok(s.insert(value)),
            Collection::BitSet(s) => Ok(s.insert(dense_key(&value)?)),
            Collection::SparseBitSet(s) => Ok(s.insert(dense_key(&value)?)),
            other => Err(TrapKind::UnsupportedOp {
                op: "set insert",
                on: format!("{:?}", other.impl_kind()),
            }),
        }
    }

    /// Map-key insertion: default-initializes the slot if absent.
    ///
    /// # Errors
    ///
    /// [`TrapKind::UnsupportedOp`] on non-maps;
    /// [`TrapKind::SentinelInsert`] when the `enc` sentinel reaches a
    /// dense map.
    pub fn try_insert_key_default(&mut self, key: &Value, default: Value) -> Result<(), TrapKind> {
        match self {
            Collection::HashMap(m) => map_insert_key_default(m, key, default),
            Collection::UnboxedHashMap(m) => map_insert_key_default(m, key, default),
            Collection::SoaHashMap(m) => map_insert_key_default(m, key, default),
            Collection::SwissMap(m) => {
                if !m.contains_key(key) {
                    m.insert(key.clone(), default);
                }
                Ok(())
            }
            Collection::BitMap(m) => dense_insert_key_default(m, key, default),
            Collection::UnboxedBitMap(m) => dense_insert_key_default(m, key, default),
            Collection::SoaBitMap(m) => {
                let i = dense_key(key)?;
                if !m.contains_key(i) {
                    m.insert(i, column_store(default, m.arity())?.fields());
                }
                Ok(())
            }
            other => Err(TrapKind::UnsupportedOp {
                op: "map insert",
                on: format!("{:?}", other.impl_kind()),
            }),
        }
    }

    /// Sequence insertion at `index` (appends when `index == len`).
    ///
    /// # Errors
    ///
    /// [`TrapKind::UnsupportedOp`] on non-sequences;
    /// [`TrapKind::OutOfBounds`] past the end.
    pub fn try_insert_seq(&mut self, index: usize, value: Value) -> Result<(), TrapKind> {
        match self {
            Collection::Seq(s) => seq_insert(s, index, value),
            Collection::UnboxedSeq(s) => seq_insert(s, index, value),
            Collection::SoaSeq(s) => {
                seq_insert_index(index, s.len())?;
                let row = column_store(value, s.arity())?;
                if index == s.len() {
                    s.push_row(row.fields());
                } else {
                    s.insert_row(index, row.fields());
                }
                Ok(())
            }
            other => Err(TrapKind::UnsupportedOp {
                op: "seq insert",
                on: format!("{:?}", other.impl_kind()),
            }),
        }
    }

    /// Removes a key/element/index. Like `has`, removal is a membership
    /// probe: the `enc` sentinel may flow here (and removes nothing).
    ///
    /// # Errors
    ///
    /// [`TrapKind::OutOfBounds`] on out-of-bounds sequence removals;
    /// [`TrapKind::TypeMismatch`] when a dense implementation gets a
    /// non-index key.
    pub fn try_remove(&mut self, key: &Value) -> Result<(), TrapKind> {
        match self {
            Collection::Seq(s) => seq_remove(s, key)?,
            Collection::UnboxedSeq(s) => seq_remove(s, key)?,
            Collection::SoaSeq(s) => s.remove_row(seq_index(key, s.len())?),
            Collection::HashSet(s) => set_remove(s, key),
            Collection::UnboxedHashSet(s) => set_remove(s, key),
            Collection::SoaHashSet(s) => set_remove(s, key),
            Collection::SwissSet(s) => {
                s.remove(key);
            }
            Collection::FlatSet(s) => {
                s.remove(key);
            }
            Collection::BitSet(s) => {
                s.remove(key.try_as_index()?);
            }
            Collection::SparseBitSet(s) => {
                s.remove(key.try_as_index()?);
            }
            Collection::HashMap(m) => map_remove(m, key),
            Collection::UnboxedHashMap(m) => map_remove(m, key),
            Collection::SoaHashMap(m) => map_remove(m, key),
            Collection::SwissMap(m) => {
                m.remove(key);
            }
            Collection::BitMap(m) => {
                m.remove(key.try_as_index()?);
            }
            Collection::UnboxedBitMap(m) => {
                m.remove(key.try_as_index()?);
            }
            Collection::SoaBitMap(m) => m.remove(key.try_as_index()?),
        }
        Ok(())
    }

    /// Membership test (sets and maps).
    ///
    /// # Panics
    ///
    /// Panics on sequences; trusted-input callers only — interpretation
    /// paths use [`Collection::try_has`].
    pub fn has(&self, key: &Value) -> bool {
        self.try_has(key).unwrap_or_else(|t| panic!("{t}"))
    }

    /// Keyed/indexed read (maps and sequences).
    ///
    /// # Panics
    ///
    /// Panics if the key is absent (undefined behavior in the paper's
    /// semantics) or on sets; trusted-input callers only —
    /// interpretation paths use [`Collection::try_read`].
    pub fn read(&self, key: &Value) -> Value {
        self.try_read(key).unwrap_or_else(|t| panic!("{t}"))
    }

    /// Keyed/indexed write (upsert for maps; in-bounds store for
    /// sequences).
    ///
    /// # Panics
    ///
    /// Panics on sets or out-of-bounds sequence indices; trusted-input
    /// callers only — interpretation paths use [`Collection::try_write`].
    pub fn write(&mut self, key: &Value, value: Value) {
        self.try_write(key, value).unwrap_or_else(|t| panic!("{t}"));
    }

    /// Set-element insertion. Returns `true` if newly added.
    ///
    /// # Panics
    ///
    /// Panics on non-set collections; trusted-input callers only —
    /// interpretation paths use [`Collection::try_insert_elem`].
    pub fn insert_elem(&mut self, value: Value) -> bool {
        self.try_insert_elem(value)
            .unwrap_or_else(|t| panic!("{t}"))
    }

    /// Map-key insertion: default-initializes the slot if absent.
    ///
    /// # Panics
    ///
    /// Panics on non-map collections; trusted-input callers only —
    /// interpretation paths use [`Collection::try_insert_key_default`].
    pub fn insert_key_default(&mut self, key: &Value, default: Value) {
        self.try_insert_key_default(key, default)
            .unwrap_or_else(|t| panic!("{t}"));
    }

    /// Sequence insertion at `index` (appends when `index == len`).
    ///
    /// # Panics
    ///
    /// Panics on non-sequences or out-of-range indices; trusted-input
    /// callers only — interpretation paths use
    /// [`Collection::try_insert_seq`].
    pub fn insert_seq(&mut self, index: usize, value: Value) {
        self.try_insert_seq(index, value)
            .unwrap_or_else(|t| panic!("{t}"));
    }

    /// Removes a key/element/index.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds sequence removals; trusted-input callers
    /// only — interpretation paths use [`Collection::try_remove`].
    pub fn remove(&mut self, key: &Value) {
        self.try_remove(key).unwrap_or_else(|t| panic!("{t}"));
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        match self {
            Collection::Seq(s) => s.clear(),
            Collection::HashSet(s) => s.clear(),
            Collection::SwissSet(s) => s.clear(),
            Collection::FlatSet(s) => s.clear(),
            Collection::BitSet(s) => s.clear(),
            Collection::SparseBitSet(s) => s.clear(),
            Collection::HashMap(m) => m.clear(),
            Collection::SwissMap(m) => m.clear(),
            Collection::BitMap(m) => m.clear(),
            Collection::UnboxedSeq(s) => s.clear(),
            Collection::UnboxedHashSet(s) => s.clear(),
            Collection::UnboxedHashMap(m) => m.clear(),
            Collection::UnboxedBitMap(m) => m.clear(),
            Collection::SoaSeq(s) => s.clear(),
            Collection::SoaHashSet(s) => s.clear(),
            Collection::SoaHashMap(m) => m.clear(),
            Collection::SoaBitMap(m) => m.clear(),
        }
    }

    /// Snapshot of `(key, value)` pairs for iteration, in the
    /// implementation's order (sets yield `(elem, Void)`; sequences yield
    /// `(index, elem)`).
    pub fn snapshot(&self) -> Vec<(Value, Value)> {
        match self {
            Collection::Seq(s) => seq_snapshot(s),
            Collection::UnboxedSeq(s) => seq_snapshot(s),
            Collection::HashSet(s) => set_snapshot(s),
            Collection::UnboxedHashSet(s) => set_snapshot(s),
            Collection::SoaHashSet(s) => set_snapshot(s),
            Collection::HashMap(m) => map_snapshot(m),
            Collection::UnboxedHashMap(m) => map_snapshot(m),
            Collection::SoaHashMap(m) => map_snapshot(m),
            Collection::BitMap(m) => dense_snapshot(m),
            Collection::UnboxedBitMap(m) => dense_snapshot(m),
            Collection::SwissSet(s) => s.iter().map(|v| (v.clone(), Value::Void)).collect(),
            Collection::FlatSet(s) => s.iter().map(|v| (v.clone(), Value::Void)).collect(),
            Collection::BitSet(s) => s.iter().map(|i| (Value::Idx(i), Value::Void)).collect(),
            Collection::SparseBitSet(s) => s.iter().map(|i| (Value::Idx(i), Value::Void)).collect(),
            Collection::SwissMap(m) => m.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            Collection::SoaSeq(s) => (0..s.len())
                .map(|i| {
                    let row = s.row(i).expect("in bounds");
                    (Value::U64(i as u64), column_tuple(row))
                })
                .collect(),
            Collection::SoaBitMap(m) => m
                .keys()
                .map(|k| (Value::Idx(k), column_tuple(m.row(k).expect("present"))))
                .collect(),
        }
    }

    /// Folds the values of a value-stream source through `f`, in
    /// iteration order: sequences stream their elements (index order),
    /// dense maps their payloads (ascending key order). `None` for every
    /// other backend, which bulk loop kernels leave to the plan
    /// executor.
    pub(crate) fn try_fold_stream<B, E>(
        &self,
        init: B,
        mut f: impl FnMut(B, &Value) -> Result<B, E>,
    ) -> Option<Result<B, E>> {
        Some(match self {
            Collection::Seq(s) => s.try_fold(init, f),
            Collection::UnboxedSeq(s) => s.try_fold(init, |b, v| f(b, &v.to_value())),
            Collection::BitMap(m) => m.try_fold_values(init, f),
            Collection::UnboxedBitMap(m) => m.try_fold_values(init, |b, v| f(b, &v.to_value())),
            _ => return None,
        })
    }

    /// Machine words an iteration must scan beyond the yielded elements
    /// (zero for element-at-a-time implementations; the whole occupancy
    /// structure for bit-array implementations). Charged from the
    /// boxed-width byte estimate, so a twin's IterWord counts (and hence
    /// modeled time) match its boxed fallback's exactly.
    pub fn iter_scan_words(&self) -> u64 {
        match self {
            Collection::BitSet(s) => (s.universe() / 64) as u64,
            Collection::SparseBitSet(_)
            | Collection::BitMap(_)
            | Collection::UnboxedBitMap(_)
            | Collection::SoaBitMap(_) => (self.bytes_estimate() / 8) as u64,
            // Hash/swiss tables scan their slot arrays too; charge words
            // proportional to capacity over 8 slots per word equivalent.
            Collection::HashSet(_)
            | Collection::UnboxedHashSet(_)
            | Collection::SoaHashSet(_)
            | Collection::SwissSet(_)
            | Collection::HashMap(_)
            | Collection::UnboxedHashMap(_)
            | Collection::SoaHashMap(_)
            | Collection::SwissMap(_) => (self.bytes_estimate() / 64) as u64,
            Collection::Seq(_)
            | Collection::UnboxedSeq(_)
            | Collection::SoaSeq(_)
            | Collection::FlatSet(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(sel: SetSel) -> Collection {
        Collection::new_for(
            &Type::set_with(Type::Idx, sel),
            SelectionDefaults::default(),
        )
    }

    fn pair_ty() -> Type {
        Type::Tuple(vec![Type::U64, Type::U64])
    }

    fn pair(a: u64, b: u64) -> Value {
        Value::Tuple(vec![Value::U64(a), Value::U64(b)].into())
    }

    #[test]
    fn selection_drives_implementation() {
        assert_eq!(set_of(SetSel::Hash).impl_kind(), ImplKind::HashSet);
        assert_eq!(set_of(SetSel::Swiss).impl_kind(), ImplKind::SwissSet);
        assert_eq!(set_of(SetSel::Flat).impl_kind(), ImplKind::FlatSet);
        assert_eq!(set_of(SetSel::Bit).impl_kind(), ImplKind::BitSet);
        assert_eq!(
            set_of(SetSel::SparseBit).impl_kind(),
            ImplKind::SparseBitSet
        );
        let m = Collection::new_for(
            &Type::map_with(Type::Idx, Type::U64, MapSel::Bit),
            SelectionDefaults::default(),
        );
        assert_eq!(m.impl_kind(), ImplKind::BitMap);
    }

    #[test]
    fn auto_uses_defaults() {
        let swiss_default = SelectionDefaults {
            set: SetSel::Swiss,
            map: MapSel::Swiss,
        };
        let s = Collection::new_for(&Type::set(Type::U64), swiss_default);
        assert_eq!(s.impl_kind(), ImplKind::SwissSet);
        let m = Collection::new_for(&Type::map(Type::U64, Type::U64), swiss_default);
        assert_eq!(m.impl_kind(), ImplKind::SwissMap);
    }

    #[test]
    fn set_ops_across_impls() {
        for sel in [
            SetSel::Hash,
            SetSel::Swiss,
            SetSel::Flat,
            SetSel::Bit,
            SetSel::SparseBit,
        ] {
            let mut s = set_of(sel);
            assert!(s.insert_elem(Value::Idx(5)));
            assert!(!s.insert_elem(Value::Idx(5)));
            assert!(s.has(&Value::Idx(5)));
            assert!(!s.has(&Value::Idx(6)));
            assert_eq!(s.len(), 1);
            s.remove(&Value::Idx(5));
            assert!(s.is_empty(), "{sel:?}");
        }
    }

    #[test]
    fn map_ops_across_impls() {
        for sel in [MapSel::Hash, MapSel::Swiss, MapSel::Bit] {
            let mut m = Collection::new_for(
                &Type::map_with(Type::Idx, Type::U64, sel),
                SelectionDefaults::default(),
            );
            m.insert_key_default(&Value::Idx(3), Value::U64(0));
            assert_eq!(m.read(&Value::Idx(3)), Value::U64(0));
            m.write(&Value::Idx(3), Value::U64(9));
            assert_eq!(m.read(&Value::Idx(3)), Value::U64(9));
            // insert on existing key must not reset the value
            m.insert_key_default(&Value::Idx(3), Value::U64(0));
            assert_eq!(m.read(&Value::Idx(3)), Value::U64(9), "{sel:?}");
        }
    }

    #[test]
    fn seq_ops() {
        let mut s = Collection::new_for(&Type::seq(Type::U64), SelectionDefaults::default());
        s.insert_seq(0, Value::U64(1));
        s.insert_seq(1, Value::U64(3));
        s.insert_seq(1, Value::U64(2));
        assert_eq!(s.len(), 3);
        assert_eq!(s.read(&Value::U64(1)), Value::U64(2));
        s.write(&Value::U64(0), Value::U64(10));
        assert_eq!(s.read(&Value::U64(0)), Value::U64(10));
        let snap = s.snapshot();
        assert_eq!(snap[2], (Value::U64(2), Value::U64(3)));
    }

    #[test]
    fn bitset_snapshot_ascending() {
        let mut s = set_of(SetSel::Bit);
        s.insert_elem(Value::Idx(9));
        s.insert_elem(Value::Idx(2));
        let keys: Vec<Value> = s.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![Value::Idx(2), Value::Idx(9)]);
        assert!(s.iter_scan_words() >= 1);
    }

    #[test]
    fn bytes_estimate_tracks_growth() {
        let mut s = set_of(SetSel::Bit);
        let before = s.bytes_estimate();
        s.insert_elem(Value::Idx(100_000));
        assert!(s.bytes_estimate() > before);
    }

    /// The boxed backend a twin-selecting type falls back to, built
    /// directly: the reference every twin is compared against.
    fn boxed_reference(ty: &Type) -> Collection {
        match ty {
            Type::Seq(_) => Collection::Seq(ArraySeq::new()),
            Type::Set { .. } => Collection::HashSet(ChainedHashSet::new()),
            Type::Map {
                sel: MapSel::Bit, ..
            } => Collection::BitMap(BitMap::new()),
            Type::Map { .. } => Collection::HashMap(ChainedHashMap::new()),
            other => panic!("no boxed reference for {other}"),
        }
    }

    /// A value of the static element/payload type `ty` (a scalar or the
    /// scalar pair), distinct for distinct `i`.
    fn sample(ty: &Type, i: u64) -> Value {
        match ty {
            Type::Tuple(_) => pair(i, i + 1),
            _ => Value::U64(i),
        }
    }

    /// Runs one deterministic op history on `c` (a collection of type
    /// `ty`) and logs every result, trap text included. The history
    /// covers every mutating op the type's family supports — growth
    /// past several reallocations, mid-sequence inserts, overwrites,
    /// default-initializing inserts on present and absent keys,
    /// removals of present and absent keys, a clear and regrowth — plus
    /// the family's traps: out-of-bounds read/write/insert/remove on
    /// sequences, `MissingKey` on map reads, and `SentinelInsert` on
    /// dense-map inserts (where probes and removals of the sentinel stay
    /// clean).
    fn history(c: &mut Collection, ty: &Type) -> Vec<String> {
        fn log<T: std::fmt::Debug>(out: &mut Vec<String>, r: Result<T, TrapKind>) {
            out.push(match r {
                Ok(v) => format!("{v:?}"),
                Err(t) => format!("trap: {t}"),
            });
        }
        let mut out = Vec::new();
        match ty {
            Type::Seq(elem) => {
                for round in 0..2u64 {
                    for i in 0..100 {
                        log(&mut out, c.try_insert_seq(c.len(), sample(elem, i + round)));
                    }
                    for i in 0..20 {
                        log(
                            &mut out,
                            c.try_insert_seq(i * 3, sample(elem, 500 + i as u64)),
                        );
                    }
                    // Just before the last element: an insert, not an append.
                    log(&mut out, c.try_insert_seq(c.len() - 1, sample(elem, 700)));
                    for i in 0..40 {
                        log(
                            &mut out,
                            c.try_write(&Value::U64(i * 2), sample(elem, 900 + i)),
                        );
                    }
                    for i in 0..15 {
                        log(&mut out, c.try_remove(&Value::U64(i * 5)));
                    }
                    for i in 0..c.len() as u64 {
                        log(&mut out, c.try_read(&Value::U64(i)));
                    }
                    let end = Value::U64(c.len() as u64);
                    log(&mut out, c.try_read(&end));
                    log(&mut out, c.try_write(&end, sample(elem, 1)));
                    log(&mut out, c.try_insert_seq(c.len() + 1, sample(elem, 1)));
                    log(&mut out, c.try_remove(&end));
                    if round == 0 {
                        c.clear();
                    }
                }
            }
            Type::Set { elem, .. } => {
                for round in 0..2u64 {
                    for i in 0..100 {
                        let k = (i * 7) % 64 + round;
                        log(&mut out, c.try_insert_elem(sample(elem, k)));
                    }
                    for k in 0..70 {
                        log(&mut out, c.try_has(&sample(elem, k)));
                    }
                    for k in (0..70).step_by(3) {
                        log(&mut out, c.try_remove(&sample(elem, k)));
                    }
                    log(&mut out, c.try_has(&sample(elem, 7)));
                    if round == 0 {
                        c.clear();
                    }
                }
            }
            Type::Map { key, val, .. } => {
                let key_of = |i: u64| match **key {
                    Type::Idx => Value::Idx(i as usize),
                    _ => Value::U64(i),
                };
                for round in 0..2u64 {
                    for i in 0..100 {
                        let k = key_of((i * 7) % 64 + round);
                        log(&mut out, c.try_write(&k, sample(val, i)));
                    }
                    for k in 50..90 {
                        log(
                            &mut out,
                            c.try_insert_key_default(&key_of(k), sample(val, 0)),
                        );
                    }
                    for k in (0..90).step_by(4) {
                        log(&mut out, c.try_remove(&key_of(k)));
                    }
                    for k in 0..95 {
                        log(&mut out, c.try_has(&key_of(k)));
                        log(&mut out, c.try_read(&key_of(k)));
                    }
                    if round == 0 {
                        c.clear();
                    }
                }
                if **key == Type::Idx {
                    let sentinel = Value::Idx(ENC_SENTINEL);
                    log(&mut out, c.try_write(&sentinel, sample(val, 1)));
                    log(
                        &mut out,
                        c.try_insert_key_default(&sentinel, sample(val, 1)),
                    );
                    log(&mut out, c.try_has(&sentinel));
                    log(&mut out, c.try_remove(&sentinel));
                }
            }
            other => panic!("no history for {other}"),
        }
        out
    }

    /// `ty` selects the twin labeled `label`, and the twin stays
    /// observationally identical to the boxed reference across
    /// [`history`]: the same reported implementation kind, the same
    /// result (or trap text) for every op, and afterwards the same
    /// length, snapshot (iteration order included), byte estimate and
    /// scan words.
    fn assert_twin_matches_boxed(ty: &Type, label: &str) {
        let mut boxed = boxed_reference(ty);
        let mut twin = Collection::new_for(ty, SelectionDefaults::default());
        assert_eq!(twin.kind_label(), label, "{ty:?}");
        assert_eq!(boxed.impl_kind(), twin.impl_kind(), "{ty:?}");
        let boxed_log = history(&mut boxed, ty);
        let twin_log = history(&mut twin, ty);
        assert_eq!(boxed_log, twin_log, "{ty:?} op results");
        assert_eq!(boxed.len(), twin.len(), "{ty:?}");
        assert_eq!(boxed.snapshot(), twin.snapshot(), "{ty:?} iteration order");
        assert_eq!(
            boxed.bytes_estimate(),
            twin.bytes_estimate(),
            "{ty:?} byte accounting"
        );
        assert_eq!(boxed.iter_scan_words(), twin.iter_scan_words(), "{ty:?}");
    }

    /// Every scalar-typed collection flavor selects the unboxed backend,
    /// and each matches its boxed reference op for op.
    #[test]
    fn unboxed_twins_are_observationally_identical() {
        let cases = [
            (Type::seq(Type::U64), "unboxed_seq"),
            (Type::set_with(Type::U64, SetSel::Hash), "unboxed_hash_set"),
            (
                Type::map_with(Type::U64, Type::U64, MapSel::Hash),
                "unboxed_hash_map",
            ),
            (
                Type::map_with(Type::Idx, Type::U64, MapSel::Bit),
                "unboxed_bit_map",
            ),
        ];
        for (ty, label) in cases {
            assert_twin_matches_boxed(&ty, label);
        }
    }

    /// Every tuple-of-scalars collection flavor selects the columnar
    /// backend, and each matches its boxed reference op for op.
    #[test]
    fn soa_twins_are_observationally_identical() {
        let cases = [
            (Type::seq(pair_ty()), "soa_seq"),
            (Type::set_with(pair_ty(), SetSel::Hash), "soa_hash_set"),
            (
                Type::map_with(Type::U64, pair_ty(), MapSel::Hash),
                "soa_hash_map",
            ),
            (
                Type::map_with(Type::Idx, pair_ty(), MapSel::Bit),
                "soa_bit_map",
            ),
        ];
        for (ty, label) in cases {
            assert_twin_matches_boxed(&ty, label);
        }
    }

    /// The `enc` sentinel must never reach a dense insert: the unboxed
    /// dense map traps exactly as its boxed reference does, while
    /// membership probes observe clean absence.
    #[test]
    fn unboxed_dense_backends_keep_the_sentinel_discipline() {
        let ty = Type::map_with(Type::Idx, Type::U64, MapSel::Bit);
        assert_sentinel_discipline(boxed_reference(&ty), Value::U64(1));
        assert_sentinel_discipline(
            Collection::new_for(&ty, SelectionDefaults::default()),
            Value::U64(1),
        );
    }

    /// The same discipline for the columnar dense map.
    #[test]
    fn soa_dense_backend_keeps_the_sentinel_discipline() {
        let ty = Type::map_with(Type::Idx, pair_ty(), MapSel::Bit);
        assert_sentinel_discipline(boxed_reference(&ty), pair(1, 2));
        assert_sentinel_discipline(
            Collection::new_for(&ty, SelectionDefaults::default()),
            pair(1, 2),
        );
    }

    fn assert_sentinel_discipline(mut m: Collection, value: Value) {
        let sentinel = Value::Idx(ENC_SENTINEL);
        let label = m.kind_label();
        assert_eq!(
            m.try_write(&sentinel, value.clone()),
            Err(TrapKind::SentinelInsert),
            "{label}"
        );
        assert_eq!(
            m.try_insert_key_default(&sentinel, value),
            Err(TrapKind::SentinelInsert),
            "{label}"
        );
        assert!(!m.try_has(&sentinel).expect("probe tolerates the sentinel"));
        m.try_remove(&sentinel)
            .expect("removal tolerates the sentinel");
        assert!(m.is_empty(), "{label}");
    }

    /// Storage follows from the static type alone: every
    /// tuple-of-scalars flavor selects a columnar backend reporting the
    /// boxed fallback's [`ImplKind`], scalars select the unboxed
    /// backends, and disqualified types (a non-scalar tuple field,
    /// stringy fields, boxed map keys) stay boxed.
    #[test]
    fn soa_selection_picks_columnar_backends() {
        let defaults = SelectionDefaults::default();
        let cases = [
            (Type::seq(pair_ty()), "soa_seq", ImplKind::Seq),
            (
                Type::set_with(pair_ty(), SetSel::Hash),
                "soa_hash_set",
                ImplKind::HashSet,
            ),
            (
                Type::map_with(Type::U64, pair_ty(), MapSel::Hash),
                "soa_hash_map",
                ImplKind::HashMap,
            ),
            (
                Type::map_with(Type::Idx, pair_ty(), MapSel::Bit),
                "soa_bit_map",
                ImplKind::BitMap,
            ),
            (Type::seq(Type::U64), "unboxed_seq", ImplKind::Seq),
            (
                Type::seq(Type::Tuple(vec![Type::U64, Type::seq(Type::U64)])),
                "seq",
                ImplKind::Seq,
            ),
            (
                Type::seq(Type::Tuple(vec![Type::U64, Type::Str])),
                "seq",
                ImplKind::Seq,
            ),
            (
                Type::map_with(Type::Str, pair_ty(), MapSel::Hash),
                "hash_map",
                ImplKind::HashMap,
            ),
        ];
        for (ty, label, kind) in cases {
            let c = Collection::new_for(&ty, defaults);
            assert_eq!(c.kind_label(), label, "{ty:?}");
            assert_eq!(c.impl_kind(), kind, "{ty:?}");
        }
    }

    /// `Vec`'s growth policy is element-size independent in the small
    /// element class, so an unboxed backend priced via
    /// `heap_bytes_fast_as(boxed width)` reports exactly its boxed
    /// twin's capacity trajectory. This is the assumption behind
    /// `heap_bytes_fast_as` (see `ade_collections::seq`); the twin tests
    /// above exercise it end-to-end, this one isolates the claim.
    #[test]
    fn capacity_trajectories_match_across_element_widths() {
        let mut boxed: ArraySeq<Value> = ArraySeq::new();
        let mut unboxed: ArraySeq<ScalarVal> = ArraySeq::new();
        for i in 0..1000u64 {
            boxed.push(Value::U64(i));
            unboxed.push(ScalarVal::from_value(&Value::U64(i)).expect("scalar"));
            assert_eq!(
                boxed.heap_bytes_fast(),
                unboxed.heap_bytes_fast_as(size_of::<Value>()),
                "capacity diverged at push {i}"
            );
        }
    }
}
