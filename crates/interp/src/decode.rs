//! Pre-decoded instruction stream.
//!
//! The tree-walking interpreter used to re-derive everything about an
//! instruction on every execution: operand structs were pattern-matched
//! for nesting paths, `const` strings re-allocated, insert flavors and
//! foreach binding shapes recomputed from static types inside hot loops.
//! Decoding flattens each [`Function`] once per run into a dense
//! [`DInst`] stream:
//!
//! - operand slots are resolved to frame indices up front ([`DOp::Slot`]
//!   is the overwhelmingly common case; nested paths keep a boxed
//!   side-structure),
//! - constants are pooled as prebuilt [`Value`]s (executing a string
//!   const bumps an `Arc` instead of reallocating),
//! - region targets become contiguous index ranges into the decoded
//!   stream,
//! - statically derivable facts (insert flavor, union element type,
//!   foreach binding shape and key uncoercion) are computed once here
//!   instead of per execution.
//!
//! Decoding is purely structural: it must not change program behavior,
//! instrumentation counts, or fuel accounting. In debug builds it also
//! runs [`ade_ir::verify::verify_module`] so a linearity violation can
//! never hide behind the faster execution path.

use ade_ir::{
    Access, BinOp, CmpOp, ConstVal, FuncId, Function, Inst, InstKind, MapSel, Module, Operand,
    RegionId, Scalar, SetSel, Type, ValueId,
};

use crate::value::Value;

/// A decoded operand path scalar (`s ::= v | n | end`).
#[derive(Clone, Copy, Debug)]
pub enum DScalar {
    /// Dynamic index living in a frame slot.
    Slot(u32),
    /// Constant index.
    Const(u64),
    /// One past the end of the addressed sequence.
    End,
}

/// One decoded nesting-path step.
#[derive(Clone, Copy, Debug)]
pub enum DAccess {
    /// Index into the collection at this nesting level.
    Index(DScalar),
    /// Project a tuple field.
    Field(u32),
}

/// A nested operand: base frame slot plus its access path. Boxed inside
/// [`DOp`] so the common slot-only case stays two words.
#[derive(Clone, Debug)]
pub struct DPath {
    /// Frame slot of the root SSA value.
    pub base: u32,
    /// Accesses applied outermost-first.
    pub path: Box<[DAccess]>,
}

/// A decoded operand.
#[derive(Clone, Debug)]
pub enum DOp {
    /// The value in a frame slot (no nesting path).
    Slot(u32),
    /// A nested access resolved at execution time.
    Path(Box<DPath>),
}

impl DOp {
    /// The frame slot of the operand's root value.
    pub fn base_slot(&self) -> u32 {
        match self {
            DOp::Slot(s) => *s,
            DOp::Path(p) => p.base,
        }
    }
}

/// A decoded instruction. Frame slots are `u32` indices into the
/// per-call frame (SSA value ids are already dense, so the mapping is
/// the identity — the decode's job is removing every other lookup).
#[derive(Clone, Debug)]
pub enum DInst {
    /// Copy a pooled constant into `dst`.
    Const {
        /// Index into [`DFunc::consts`].
        pool: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Allocate a collection (or default scalar/tuple) of a pooled type.
    New {
        /// Index into [`DFunc::types`].
        ty: u32,
        /// Destination slot.
        dst: u32,
    },
    /// `read(c, k)`.
    Read {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// `write(c, k, v) → c'`.
    Write {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Value operand.
        val: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `has(c, k)`.
    Has {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Set-flavored insert (element operand).
    InsertSet {
        /// Collection operand.
        coll: DOp,
        /// Element operand.
        elem: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// Map-flavored insert (key operand; slot default-initialized from
    /// the statically known value type).
    InsertMap {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Pooled value type used for default initialization.
        val_ty: u32,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// Sequence-flavored insert (index + value operands).
    InsertSeq {
        /// Collection operand.
        coll: DOp,
        /// Index operand.
        index: DOp,
        /// Value operand.
        val: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `remove(c, k) → c'`.
    Remove {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `clear(c) → c'`.
    Clear {
        /// Collection operand.
        coll: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `size(c)`.
    Size {
        /// Collection operand.
        coll: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// `union(dst, src) → dst'`.
    UnionInto {
        /// Destination-collection operand.
        dst_coll: DOp,
        /// Source-collection operand.
        src_coll: DOp,
        /// Pooled element type of the destination (drives key
        /// uncoercion on the generic path).
        elem_ty: u32,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// Binary arithmetic/logic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: DOp,
        /// Right operand.
        b: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        a: DOp,
        /// Right operand.
        b: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Logical negation.
    Not {
        /// Operand.
        a: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Numeric conversion to a pooled type.
    Cast {
        /// Pooled target type.
        ty: u32,
        /// Operand.
        a: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Pack operands into a tuple value.
    MkTuple {
        /// Field operands, in order.
        srcs: Box<[DOp]>,
        /// Destination slot.
        dst: u32,
    },
    /// Direct call.
    Call {
        /// Callee.
        callee: FuncId,
        /// Argument operands.
        args: Box<[DOp]>,
        /// Destination slot for the return value, if bound.
        dst: Option<u32>,
    },
    /// Print a record of operands.
    Print {
        /// Printed operands, in order.
        ops: Box<[DOp]>,
    },
    /// `enc(e, v)`.
    Enc {
        /// Enumeration index.
        e: u32,
        /// Key operand.
        v: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// `dec(e, i)`.
    Dec {
        /// Enumeration index.
        e: u32,
        /// Identifier operand.
        v: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// `add(e, v)`.
    EnumAdd {
        /// Enumeration index.
        e: u32,
        /// Key operand.
        v: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Structured if-else.
    If {
        /// Condition operand.
        cond: DOp,
        /// Decoded region index of the then-block.
        then_r: u32,
        /// Decoded region index of the else-block.
        else_r: u32,
        /// Destination slots for the region's yields.
        dsts: Box<[u32]>,
    },
    /// For-each over a collection.
    ForEach {
        /// Collection operand.
        coll: DOp,
        /// Initial carried values.
        carried: Box<[DOp]>,
        /// Decoded body region index.
        body: u32,
        /// Whether the body binds `(key, value)` (sequences and maps)
        /// rather than just the element.
        binds_value: bool,
        /// Whether iterated dense keys must be presented as `u64`
        /// (directive-forced dense collection over a `u64` domain).
        uncoerce_u64: bool,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
    },
    /// Counted loop over `[lo, hi)`.
    ForRange {
        /// Lower bound operand.
        lo: DOp,
        /// Upper bound operand.
        hi: DOp,
        /// Initial carried values.
        carried: Box<[DOp]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
    },
    /// Do-while loop.
    DoWhile {
        /// Initial carried values.
        carried: Box<[DOp]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
    },
    /// Region terminator carrying results to the parent.
    Yield {
        /// Yielded operands.
        ops: Box<[DOp]>,
    },
    /// [`DInst::Yield`] rewritten by the fuse peephole to move its
    /// values straight into the consumer's destination slots — the next
    /// iteration's carried args for a loop body, the branch's dsts for
    /// an if arm — skipping the heap-allocated `Flow::Yield` buffer.
    /// Only built for all-slot yields (no stat bumps to preserve) with
    /// no write-before-read hazard between the copies.
    YieldDirect {
        /// Source slots, copied in order.
        srcs: Box<[u32]>,
        /// Destination slots, `dsts[j] = srcs[j]`.
        dsts: Box<[u32]>,
    },
    /// Function return.
    Ret {
        /// Returned operand, if any.
        op: Option<DOp>,
    },
    /// Region-of-interest marker.
    Roi {
        /// `true` at `roi begin`.
        begin: bool,
    },

    // ── Fused superinstructions ─────────────────────────────────────
    //
    // Built by the decode-time peephole (see [`DecodeOptions::fuse`])
    // from windows of consecutive slot-operand instructions within one
    // region. A fused instruction replaces the *first* instruction of
    // its window; the remaining originals stay in `code` as padding the
    // dispatch loop steps over, so code length, per-site profile
    // indices, and trap-site numbering are unchanged. Execution replays
    // the unfused sequence's fuel ticks, site attribution, statistic
    // bumps, and intermediate destination writes exactly — fusion only
    // removes dispatch and re-resolution overhead, never observable
    // work.
    /// A run of ≥2 consecutive scalar micro-ops (const/arith/cmp/not).
    FusedScalars {
        /// The window's micro-ops, in original order.
        uops: Box<[UScalar]>,
    },
    /// `read` immediately feeding a binary op.
    FusedReadBin {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Read destination slot.
        rdst: u32,
        /// Fused binary operator.
        op: BinOp,
        /// Left operand slot (may equal `rdst`).
        a: u32,
        /// Right operand slot (may equal `rdst`).
        b: u32,
        /// Binary-op destination slot.
        bdst: u32,
    },
    /// Binary op immediately stored through `write`.
    FusedBinWrite {
        /// Fused binary operator.
        op: BinOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// Binary-op destination slot (the written value).
        bdst: u32,
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Write destination slot (receives the collection handle).
        wdst: u32,
    },
    /// The read-modify-write triple: `read`, arith, `write` back to the
    /// same collection.
    FusedReadBinWrite {
        /// Collection slot (shared by the read and the write).
        coll: u32,
        /// Read key slot.
        rkey: u32,
        /// Read destination slot.
        rdst: u32,
        /// Fused binary operator.
        op: BinOp,
        /// Left operand slot (may equal `rdst`).
        a: u32,
        /// Right operand slot (may equal `rdst`).
        b: u32,
        /// Binary-op destination slot (the written value).
        bdst: u32,
        /// Write key slot.
        wkey: u32,
        /// Write destination slot (receives the collection handle).
        wdst: u32,
    },
    /// `has` immediately branching on the membership answer.
    FusedHasIf {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Membership destination slot (the branch condition).
        hdst: u32,
        /// Decoded region index of the then-block.
        then_r: u32,
        /// Decoded region index of the else-block.
        else_r: u32,
        /// Destination slots for the region's yields.
        dsts: Box<[u32]>,
    },
    /// Comparison immediately branching on the answer.
    FusedCmpIf {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// Comparison destination slot (the branch condition).
        cdst: u32,
        /// Decoded region index of the then-block.
        then_r: u32,
        /// Decoded region index of the else-block.
        else_r: u32,
        /// Destination slots for the region's yields.
        dsts: Box<[u32]>,
    },
    /// `enc` immediately keying a membership-class op (`has`/`remove`/
    /// `read`) with the translated identifier.
    FusedEncKey {
        /// Enumeration index.
        e: u32,
        /// Key operand slot of the `enc`.
        v: u32,
        /// `enc` destination slot (the translated identifier).
        edst: u32,
        /// Which keyed op consumes the identifier.
        kind: EncKeyKind,
        /// Collection slot of the keyed op.
        coll: u32,
        /// Destination slot of the keyed op.
        dst2: u32,
    },

    // ── Bulk loop superinstructions ─────────────────────────────────
    //
    // Built by the loop-granular fusion tier (see
    // [`DecodeOptions::loop_fuse`]): a [`DInst::ForEach`] /
    // [`DInst::ForRange`] whose whole body compiled into a [`BulkPlan`]
    // is replaced in place by its bulk twin. The body region's
    // instructions stay in `code` untouched, so code length, per-site
    // profile indices, and trap-site numbering are unchanged, and the
    // interpreter can still run the loop generically (it does so
    // whenever fuel metering, profiling, or a depth limit is active —
    // exactly the configurations where per-iteration accounting is
    // observable).
    /// [`DInst::ForEach`] with a compiled bulk body plan.
    ForEachBulk {
        /// Collection operand.
        coll: DOp,
        /// Initial carried values.
        carried: Box<[DOp]>,
        /// Decoded body region index.
        body: u32,
        /// Whether the body binds `(key, value)` (sequences and maps)
        /// rather than just the element.
        binds_value: bool,
        /// Whether iterated dense keys must be presented as `u64`
        /// (directive-forced dense collection over a `u64` domain).
        uncoerce_u64: bool,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
        /// The compiled body plan.
        plan: Box<BulkPlan>,
    },
    /// [`DInst::ForRange`] with a compiled bulk body plan.
    ForRangeBulk {
        /// Lower bound operand.
        lo: DOp,
        /// Upper bound operand.
        hi: DOp,
        /// Initial carried values.
        carried: Box<[DOp]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
        /// The compiled body plan.
        plan: Box<BulkPlan>,
    },
}

/// One micro-op of a [`DInst::FusedScalars`] run.
#[derive(Clone, Copy, Debug)]
pub enum UScalar {
    /// Copy a pooled constant into `dst`.
    Const {
        /// Index into [`DFunc::consts`].
        pool: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Binary arithmetic/logic over two slots.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Comparison over two slots.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Logical negation of a slot.
    Not {
        /// Operand slot.
        a: u32,
        /// Destination slot.
        dst: u32,
    },
}

/// The membership-class op a [`DInst::FusedEncKey`] performs with the
/// translated identifier. All three tolerate the `enc` sentinel (for
/// `read`, an absent key traps exactly as the unfused sequence would).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncKeyKind {
    /// `has(c, enc(e, v))`.
    Has,
    /// `remove(c, enc(e, v))`.
    Remove,
    /// `read(c, enc(e, v))`.
    Read,
}

/// A compiled loop body: the straight-line component sequence of a
/// single-collection `iter` loop, with every operand resolved to a
/// plain frame slot at decode time.
///
/// The plan is built from the loop body's *components* — peephole
/// windows ([`DInst::FusedScalars`] etc.) are expanded back into their
/// constituent ops with their original code indices — so the same plan
/// is produced whether or not [`DecodeOptions::fuse`] ran, and every
/// [`PlanOp::site`] names the exact code slot the unfused loop would
/// trap at.
#[derive(Clone, Debug)]
pub struct BulkPlan {
    /// Loop-invariant `const` components hoisted out of the body. SSA
    /// single-assignment plus dominance make the hoist sound: the slot
    /// has exactly one writer, every read follows it in program order,
    /// and the written value does not depend on the iteration.
    pub prelude: Box<[PlanOp]>,
    /// The per-iteration component sequence, in original order (hoisted
    /// consts excluded).
    pub ops: Box<[PlanOp]>,
    /// Source slots of the body's terminal yield, copied into the
    /// carried argument slots after each iteration (already checked for
    /// write-before-read hazards, like [`DInst::YieldDirect`]).
    pub yield_srcs: Box<[u32]>,
    /// A recognized streaming shape the interpreter may execute as one
    /// call into the collection backend (`None` runs the plan op by
    /// op, which already skips per-component dispatch and region
    /// machinery).
    pub fast: Option<FastKind>,
    /// When `fast` was classified over a tuple-element loop, the field
    /// projections its roles read (`for t in c { acc += t.k }` and
    /// friends). The kernels then stream single flat columns of a
    /// columnar source; any other runtime representation falls back to
    /// the op-by-op plan, which materializes rows exactly.
    pub fast_proj: Option<FastProj>,
    /// A register-specialized twin of the body (`forrange` plans whose
    /// every slot is statically scalar or a linearly threaded
    /// collection handle) — the tier between the streaming kernels and
    /// the op-by-op plan executor. `None` when any component needs the
    /// general boxed machinery.
    pub spec: Option<Box<SpecPlan>>,
}

/// One component of a [`BulkPlan`] with its trap/profile site.
#[derive(Clone, Debug)]
pub struct PlanOp {
    /// Absolute index into [`DFunc::code`] of the component this op
    /// replays — the site a trap raised here must be attributed to.
    pub site: u32,
    /// The operation.
    pub op: BulkOp,
}

/// A [`BulkPlan`] operation. Mirrors the corresponding [`DInst`] arms
/// with every operand already a plain frame slot.
#[derive(Clone, Debug)]
pub enum BulkOp {
    /// Copy a pooled constant into `dst`.
    Const {
        /// Index into [`DFunc::consts`].
        pool: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Binary arithmetic/logic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Logical negation.
    Not {
        /// Operand slot.
        a: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Numeric conversion to a pooled type.
    Cast {
        /// Pooled target type.
        ty: u32,
        /// Operand slot.
        a: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Project one tuple field into a scratch slot — the decomposition
    /// of a single-`Field` path operand (`t.k`). The scratch slot lives
    /// past the function's SSA slots and is dead outside the plan, and
    /// the op shares its consumer's site: it replays that component's
    /// operand resolution, so a bad projection traps exactly where the
    /// unfused instruction would.
    Proj {
        /// Slot holding the tuple.
        base: u32,
        /// Field index.
        field: u32,
        /// Destination (scratch) slot.
        dst: u32,
    },
    /// `read(c, k)`.
    Read {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Destination slot.
        dst: u32,
    },
    /// `write(c, k, v) → c'`.
    Write {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Value slot.
        val: u32,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `has(c, k)`.
    Has {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Set-flavored insert.
    InsertSet {
        /// Collection slot.
        coll: u32,
        /// Element slot.
        elem: u32,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// Map-flavored insert.
    InsertMap {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Pooled value type used for default initialization.
        val_ty: u32,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// Sequence-flavored insert.
    InsertSeq {
        /// Collection slot.
        coll: u32,
        /// Index slot.
        index: u32,
        /// Value slot.
        val: u32,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `remove(c, k) → c'`.
    Remove {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `size(c)`.
    Size {
        /// Collection slot.
        coll: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Structured if-else over straight-line arms (no nesting).
    If {
        /// Condition slot.
        cond: u32,
        /// Then-arm components.
        then_ops: Box<[PlanOp]>,
        /// Then-arm yield source slots.
        then_srcs: Box<[u32]>,
        /// Else-arm components.
        else_ops: Box<[PlanOp]>,
        /// Else-arm yield source slots.
        else_srcs: Box<[u32]>,
        /// Destination slots receiving the taken arm's yields.
        dsts: Box<[u32]>,
    },
}

/// A streaming loop shape the interpreter can hand to the collection
/// backend as one bulk call. Classified only for [`DInst::ForEachBulk`]
/// with a single carried value; the element slot and the carried
/// (accumulator) slot are implied by the body region's arguments.
/// Whether a shape actually streams is re-checked at run time against
/// the live collection representation — any mismatch falls back to the
/// op-by-op plan, which is always semantically exact.
#[derive(Clone, Copy, Debug)]
pub enum FastKind {
    /// `acc = op(acc, elem)` (sum, min-max, and friends).
    Reduce {
        /// The folded operator.
        op: BinOp,
        /// `true` if the element is the left operand.
        elem_first: bool,
        /// Code site of the `bin` component (division traps).
        site: u32,
    },
    /// `if cmp(elem, rhs) { acc = bin(acc, x) }` — filtered fold
    /// (filter-sum when `x` is the element, conditional count when `x`
    /// is a loop-invariant constant).
    FilterReduce {
        /// The filter comparison.
        cmp: CmpOp,
        /// `true` if the element is the comparison's left operand.
        elem_lhs: bool,
        /// Loop-invariant slot compared against the element.
        rhs: u32,
        /// `true` if the fold happens on the comparison's then-arm.
        acc_on_true: bool,
        /// The folded operator.
        bin: BinOp,
        /// `true` if the accumulator is the fold's left operand.
        acc_lhs: bool,
        /// `true` if the fold's other operand is the element (otherwise
        /// it is the loop-invariant slot `bin_other`).
        bin_elem: bool,
        /// Loop-invariant fold operand when `bin_elem` is `false`.
        bin_other: u32,
        /// Code site of the `bin` component (division traps).
        bin_site: u32,
    },
    /// `acc = acc + (has(set, elem) as u64)` — bulk membership count.
    ProbeCount {
        /// Loop-invariant slot holding the probed set's handle.
        set: u32,
    },
    /// `set = insert(set, elem)` — bulk copy into the carried set.
    CopyInto,
    /// `if cmp(elem, rhs) { set = insert(set, elem) }` — filtered bulk
    /// copy into the carried set.
    FilterInto {
        /// The filter comparison.
        cmp: CmpOp,
        /// `true` if the element is the comparison's left operand.
        elem_lhs: bool,
        /// Loop-invariant slot compared against the element.
        rhs: u32,
        /// `true` if the insert happens on the comparison's then-arm.
        insert_on_true: bool,
    },
}

/// The tuple fields a projected streaming shape reads — the loop binds
/// a tuple element but every use is a single-field projection, so a
/// columnar source can stream one flat column per role instead of
/// materializing a boxed row per iteration.
#[derive(Clone, Copy, Debug)]
pub struct FastProj {
    /// Field standing in for the element in the shape's primary role:
    /// the reduce/fold operand, the filter comparison's element side,
    /// the probed key, or the inserted element.
    pub elem: u32,
    /// Field for the secondary role when a filter shape reads a
    /// *different* field there (`FilterReduce`'s fold operand,
    /// `FilterInto`'s inserted element); `None` reuses `elem`'s
    /// column or the shape's loop-invariant operand.
    pub other: Option<u32>,
}

/// Static scalar kind of a specialized register. Register payloads are
/// raw `u64`s; the tag records how to rebox them (and how inputs must
/// be tagged at loop entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecTag {
    /// [`Value::U64`] — payload is the number itself.
    U64,
    /// [`Value::Idx`] — payload is the index widened to `u64`.
    Idx,
    /// [`Value::Bool`] — payload is 0 or 1.
    Bool,
}

/// The unboxed collection representation a specialized group requires
/// at run time. The decode-time choice is made from the static IR type
/// under the active configuration's selection rules; the live heap cell
/// is re-checked at loop entry, and any mismatch abandons the
/// specialization before its first side effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecBackend {
    /// [`crate::heap::Collection::UnboxedSeq`].
    Seq,
    /// [`crate::heap::Collection::UnboxedHashSet`].
    HashSet,
    /// [`crate::heap::Collection::UnboxedHashMap`].
    HashMap,
    /// [`crate::heap::Collection::UnboxedBitMap`].
    BitMap,
    /// [`crate::heap::Collection::SoaSeq`] — a columnar tuple sequence.
    /// Reads stay abstract ([`SpecVal::Row`]) and field projections
    /// resolve to column base + index, so no row is ever gathered.
    SoaSeq,
}

/// Abstract content of a specialized frame slot at loop exit: either a
/// scalar register (rebox with the tag) or a collection group handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecVal {
    /// Scalar register; the payload lives in the register file.
    Reg(SpecTag),
    /// Collection handle; the group index names the `CollId` resolved
    /// at loop entry.
    Coll(u8),
    /// A tuple row read from a columnar sequence, kept abstract: the
    /// group plus the register holding the row index. Only field
    /// projections may consume it (each fetches one column cell); a
    /// slot abstracted as a row can never be yielded, carried, or
    /// reboxed — the builder rejects those plans.
    Row {
        /// The [`SpecVal::Coll`] group of the columnar sequence.
        grp: u8,
        /// Register holding the row index (bounds-checked by the
        /// [`SpecKind::SoaRead`] that produced this abstraction).
        index: u32,
    },
}

/// One specialized operation with its trap/profile site.
#[derive(Clone, Debug)]
pub struct SpecOp {
    /// Absolute index into [`DFunc::code`] of the component this op
    /// replays — the site a trap raised here must be attributed to.
    pub site: u32,
    /// The operation.
    pub kind: SpecKind,
}

/// A register-specialized [`BulkPlan`] operation. Operands name slots
/// of a flat `u64` register file (tags are static); collections are
/// pre-resolved groups whose [`ImplKind`](crate::stats::ImplKind) is
/// implied by the backend, so every collection op feeds the same stats
/// bump and capacity refresh the generic executor would.
#[derive(Clone, Debug)]
pub enum SpecKind {
    /// Load an immediate payload.
    Const {
        /// The raw payload.
        val: u64,
        /// Destination register.
        dst: u32,
    },
    /// Binary arithmetic on `U64`/`Idx` registers.
    Bin {
        /// Operator.
        op: BinOp,
        /// `true` when the result is an `Idx` and must re-wrap through
        /// `usize` width, matching [`Value::Idx`] arithmetic.
        idx: bool,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
        /// Destination register.
        dst: u32,
    },
    /// Boolean `and`/`or`/`xor` on 0/1 payloads.
    BinBool {
        /// Operator (only `And`/`Or`/`Xor`).
        op: BinOp,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
        /// Destination register.
        dst: u32,
    },
    /// Comparison of two same-tagged registers (payload order matches
    /// [`Value`] order for every scalar tag).
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
        /// Destination register.
        dst: u32,
    },
    /// Boolean negation (`payload ^ 1`).
    Not {
        /// Operand register.
        a: u32,
        /// Destination register.
        dst: u32,
    },
    /// Scalar conversion: payload move, re-wrapped through `usize`
    /// width when the target is `Idx`.
    Cast {
        /// `true` when the target type is `Idx`.
        idx: bool,
        /// Operand register.
        a: u32,
        /// Destination register.
        dst: u32,
    },
    /// `size(c)`.
    Size {
        /// Collection group.
        grp: u8,
        /// Destination register.
        dst: u32,
    },
    /// `read(seq, i)` on an unboxed sequence.
    SeqRead {
        /// Collection group.
        grp: u8,
        /// Index register.
        index: u32,
        /// Static element tag (what the loaded scalar must unpack as).
        vtag: SpecTag,
        /// Destination register.
        dst: u32,
    },
    /// `read(seq, i)` on a columnar tuple sequence: the read's stats
    /// bump and bounds check, with no data movement — the row stays
    /// abstract ([`SpecVal::Row`]) and each consuming projection
    /// fetches its own column cell.
    SoaRead {
        /// Collection group.
        grp: u8,
        /// Index register.
        index: u32,
    },
    /// One field of an abstract row: `cols[field][index]` of the
    /// columnar sequence. In-bounds by the producing [`SpecKind::SoaRead`]
    /// (no columnar mutator exists in the spec tier, so the length
    /// cannot change in between).
    SoaField {
        /// Collection group.
        grp: u8,
        /// Index register (same register the `SoaRead` checked).
        index: u32,
        /// Field / column index.
        field: u32,
        /// Static field tag (what the loaded scalar must unpack as).
        vtag: SpecTag,
        /// Destination register.
        dst: u32,
    },
    /// `write(seq, i, v)` on an unboxed sequence.
    SeqWrite {
        /// Collection group.
        grp: u8,
        /// Index register.
        index: u32,
        /// Value register.
        val: u32,
        /// Value tag.
        vtag: SpecTag,
    },
    /// `insert(seq, i, v)` on an unboxed sequence.
    SeqInsert {
        /// Collection group.
        grp: u8,
        /// Index register.
        index: u32,
        /// Value register.
        val: u32,
        /// Value tag.
        vtag: SpecTag,
    },
    /// `insert(set, e)` on an unboxed hash set.
    SetInsert {
        /// Collection group.
        grp: u8,
        /// Element register.
        elem: u32,
        /// Element tag.
        tag: SpecTag,
    },
    /// `has(set, k)` on an unboxed hash set.
    SetHas {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Key tag.
        tag: SpecTag,
        /// Destination register.
        dst: u32,
    },
    /// `remove(set, k)` on an unboxed hash set.
    SetRemove {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Key tag.
        tag: SpecTag,
    },
    /// `read(map, k)` on an unboxed hash map.
    MapRead {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Key tag.
        ktag: SpecTag,
        /// Static value tag (what the loaded scalar must unpack as).
        vtag: SpecTag,
        /// Destination register.
        dst: u32,
    },
    /// `write(map, k, v)` on an unboxed hash map.
    MapWrite {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Key tag.
        ktag: SpecTag,
        /// Value register.
        val: u32,
        /// Value tag.
        vtag: SpecTag,
    },
    /// `has(map, k)` on an unboxed hash map.
    MapHas {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Key tag.
        ktag: SpecTag,
        /// Destination register.
        dst: u32,
    },
    /// Map-flavored `insert(map, k)` (default-initializing) on an
    /// unboxed hash map.
    MapInsert {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Key tag.
        ktag: SpecTag,
        /// Default value tag (payload 0 of this tag).
        vtag: SpecTag,
    },
    /// `remove(map, k)` on an unboxed hash map.
    MapRemove {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Key tag.
        ktag: SpecTag,
    },
    /// `read(map, k)` on an unboxed bit map (dense keys).
    DenseRead {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Static value tag (what the loaded scalar must unpack as).
        vtag: SpecTag,
        /// Destination register.
        dst: u32,
    },
    /// `write(map, k, v)` on an unboxed bit map (sentinel-checked).
    DenseWrite {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Value register.
        val: u32,
        /// Value tag.
        vtag: SpecTag,
    },
    /// `has(map, k)` on an unboxed bit map (sentinel-tolerant probe).
    DenseHas {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Destination register.
        dst: u32,
    },
    /// Map-flavored `insert(map, k)` on an unboxed bit map
    /// (sentinel-checked, default-initializing).
    DenseInsert {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
        /// Default value tag (payload 0 of this tag).
        vtag: SpecTag,
    },
    /// `remove(map, k)` on an unboxed bit map.
    DenseRemove {
        /// Collection group.
        grp: u8,
        /// Key register.
        key: u32,
    },
    /// Structured if-else over straight-line specialized arms.
    If {
        /// Condition register (0/1).
        cond: u32,
        /// Then-arm operations.
        then_ops: Box<[SpecOp]>,
        /// Then-arm `(dst, src)` register copies for the yield.
        then_copies: Box<[(u32, u32)]>,
        /// Else-arm operations.
        else_ops: Box<[SpecOp]>,
        /// Else-arm `(dst, src)` register copies for the yield.
        else_copies: Box<[(u32, u32)]>,
    },
}

/// A register-specialized `forrange` body: the middle execution tier
/// between the bulk streaming kernels and the op-by-op [`BulkPlan`]
/// executor. Every frame slot the body touches is statically a scalar
/// (`u64`/`idx`/`bool`) or a linearly threaded handle to an unboxed
/// collection, so iterations run over a flat `u64` register file with
/// collections resolved to concrete heap cells once at loop entry —
/// no per-op boxing, handle re-resolution, or `Value` dispatch.
///
/// Observational inertness: every collection op performs the same
/// stats bump and capacity refresh, in the same order, as its
/// [`BulkOp`] twin (the backend fixes the `ImplKind` statically);
/// traps carry the same site and kind; handles are stable across the
/// loop because the IR's linear-update discipline mutates collections
/// in place (`write(c, ..) → c` returns the same `CollId`), which the
/// builder enforces by requiring every yielded handle to be the same
/// group as the carried slot it feeds.
#[derive(Clone, Debug)]
pub struct SpecPlan {
    /// Register of the loop induction variable (`args[0]`).
    pub loop_var: u32,
    /// Scalar frame slots read at loop entry, with the tag each must
    /// carry — a mismatch abandons the specialization.
    pub scalar_inputs: Box<[(u32, SpecTag)]>,
    /// Collection frame slots resolved at loop entry, with the heap
    /// representation each must have — a mismatch abandons the
    /// specialization.
    pub coll_inputs: Box<[(u32, SpecBackend)]>,
    /// The per-iteration operations.
    pub ops: Box<[SpecOp]>,
    /// `(carried slot, yield source)` register copies applied after
    /// each iteration (only pairs whose slots differ).
    pub scalar_yields: Box<[(u32, u32)]>,
    /// Frame writebacks at loop exit: rebox a register or store a
    /// group's handle.
    pub writebacks: Box<[(u32, SpecVal)]>,
}

impl DInst {
    /// How many code slots this instruction occupies: the window length
    /// for fused superinstructions (whose tail slots are skipped-over
    /// padding), 1 for everything else.
    #[inline]
    pub fn advance(&self) -> usize {
        match self {
            DInst::FusedScalars { uops } => uops.len(),
            DInst::FusedReadBinWrite { .. } => 3,
            DInst::FusedReadBin { .. }
            | DInst::FusedBinWrite { .. }
            | DInst::FusedHasIf { .. }
            | DInst::FusedCmpIf { .. }
            | DInst::FusedEncKey { .. } => 2,
            _ => 1,
        }
    }
}

/// A decoded region: argument slots plus a contiguous range of the
/// owning function's instruction stream.
#[derive(Clone, Debug)]
pub struct DRegion {
    /// Frame slots of the region arguments.
    pub args: Box<[u32]>,
    /// First instruction in [`DFunc::code`].
    pub start: u32,
    /// One past the last instruction in [`DFunc::code`].
    pub end: u32,
}

/// A decoded function.
#[derive(Clone, Debug)]
pub struct DFunc {
    /// Function name (without the `@`), copied out of the source IR so
    /// trap sites and profiles can be attributed without keeping the
    /// [`Module`] alive alongside the decoded stream.
    pub name: String,
    /// Number of frame slots (one per SSA value).
    pub frame_size: u32,
    /// Frame slots of the parameters, in order.
    pub params: Box<[u32]>,
    /// Decoded index of the body region.
    pub body: u32,
    /// Regions, indexed identically to the source function's arena.
    pub regions: Box<[DRegion]>,
    /// The flat instruction stream (regions occupy disjoint ranges).
    pub code: Box<[DInst]>,
    /// Prebuilt constant pool.
    pub consts: Box<[Value]>,
    /// Pooled static types (allocation, cast, defaults, union elems).
    pub types: Box<[Type]>,
}

/// A fully decoded module.
///
/// Owns everything execution needs (instruction streams, constant
/// pools, pooled types, function names), so it is `'static`, `Send`
/// and `Sync`: decode a module once, wrap it in an `Arc`, and share it
/// across concurrent [`crate::ExecSession`]s — the serving engine's
/// load-module-once contract.
#[derive(Debug)]
pub struct DecodedModule {
    /// Decoded functions, indexed by [`FuncId`].
    pub funcs: Box<[DFunc]>,
    /// Number of enumeration classes declared by the source module
    /// (the interpreter allocates one runtime `Enum` pair per class).
    pub enum_count: usize,
}

/// Options for [`DecodedModule::decode_with`].
#[derive(Clone, Copy, Debug)]
pub struct DecodeOptions {
    /// Run the superinstruction peephole (see the `Fused*` arms of
    /// [`DInst`]). Defaults to `true`; [`DecodedModule::decode`] stays
    /// purely structural (no fusion) for tests and tools that inspect
    /// the stream one source instruction at a time.
    pub fuse: bool,
    /// Run the loop-granular fusion tier (see [`DInst::ForEachBulk`] /
    /// [`DInst::ForRangeBulk`] and [`BulkPlan`]). Defaults to `true`;
    /// independent of `fuse` — the matcher normalizes peephole windows
    /// back into their components, so the compiled plan is identical
    /// whether or not the peephole ran first.
    pub loop_fuse: bool,
}

impl Default for DecodeOptions {
    fn default() -> DecodeOptions {
        DecodeOptions {
            fuse: true,
            loop_fuse: true,
        }
    }
}

impl DecodedModule {
    /// Decodes every function of `module`.
    ///
    /// In debug builds this first runs the IR verifier: the decoded
    /// stream bakes in static facts (insert flavors, binding shapes)
    /// that are only sound on well-formed, linear IR, so decoding must
    /// never outrun verification.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the module fails verification.
    pub fn decode(module: &Module) -> Self {
        Self::decode_with(
            module,
            &DecodeOptions {
                fuse: false,
                loop_fuse: false,
            },
        )
    }

    /// [`DecodedModule::decode`] with explicit [`DecodeOptions`]
    /// (notably the superinstruction peephole).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the module fails verification.
    pub fn decode_with(module: &Module, options: &DecodeOptions) -> Self {
        #[cfg(debug_assertions)]
        if let Err(e) = ade_ir::verify::verify_module(module) {
            panic!("refusing to decode an unverifiable module: {e}");
        }
        let funcs = module
            .funcs
            .iter()
            .map(|f| {
                let mut d = decode_function(f);
                if options.fuse {
                    fuse_function(&mut d);
                }
                if options.loop_fuse {
                    loop_fuse_function(&mut d, f);
                }
                d
            })
            .collect();
        DecodedModule {
            funcs,
            enum_count: module.enums.len(),
        }
    }

    /// The decoded function behind an id.
    #[inline]
    pub fn func(&self, f: FuncId) -> &DFunc {
        &self.funcs[f.index()]
    }

    /// Looks up a decoded function by name (the entry-point lookup,
    /// mirroring `Module::function_by_name`).
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_index)
    }
}

struct FuncDecoder<'f> {
    func: &'f Function,
    code: Vec<DInst>,
    regions: Vec<DRegion>,
    consts: Vec<Value>,
    types: Vec<Type>,
}

fn decode_function(func: &Function) -> DFunc {
    let mut d = FuncDecoder {
        func,
        code: Vec::with_capacity(func.insts.len()),
        regions: vec![
            DRegion {
                args: Box::new([]),
                start: 0,
                end: 0
            };
            func.regions.len()
        ],
        consts: Vec::new(),
        types: Vec::new(),
    };
    // Decode every region (the body transitively reaches them all, but
    // walking the arena keeps region indices identical to the source).
    for r in 0..func.regions.len() {
        d.decode_region(RegionId::from_index(r));
    }
    DFunc {
        name: func.name.clone(),
        frame_size: u32::try_from(func.values.len()).expect("frame fits u32"),
        params: func.params.iter().map(|p| slot(p.index())).collect(),
        body: u32::try_from(func.body.index()).expect("region fits u32"),
        regions: d.regions.into_boxed_slice(),
        code: d.code.into_boxed_slice(),
        consts: d.consts.into_boxed_slice(),
        types: d.types.into_boxed_slice(),
    }
}

fn slot(index: usize) -> u32 {
    u32::try_from(index).expect("frame slot fits u32")
}

impl FuncDecoder<'_> {
    fn decode_region(&mut self, r: RegionId) {
        let region = self.func.region(r);
        let start = slot(self.code.len());
        // Reserve the range before decoding: nested regions decode via
        // the arena walk in `decode_function`, not recursively here, so
        // this region's instructions stay contiguous.
        let insts: Vec<DInst> = region
            .insts
            .iter()
            .map(|&i| self.decode_inst(self.func.inst(i)))
            .collect();
        self.code.extend(insts);
        let end = slot(self.code.len());
        self.regions[r.index()] = DRegion {
            args: region.args.iter().map(|a| slot(a.index())).collect(),
            start,
            end,
        };
    }

    fn pool_const(&mut self, c: &ConstVal) -> u32 {
        let v = match c {
            ConstVal::Bool(b) => Value::Bool(*b),
            ConstVal::U64(n) => Value::U64(*n),
            ConstVal::I64(n) => Value::I64(*n),
            ConstVal::F64(n) => Value::F64(*n),
            ConstVal::Str(s) => Value::Str(s.as_str().into()),
        };
        self.consts.push(v);
        slot(self.consts.len() - 1)
    }

    fn pool_type(&mut self, ty: &Type) -> u32 {
        if let Some(i) = self.types.iter().position(|t| t == ty) {
            return slot(i);
        }
        self.types.push(ty.clone());
        slot(self.types.len() - 1)
    }

    fn op(&self, operand: &Operand) -> DOp {
        if operand.path.is_empty() {
            return DOp::Slot(slot(operand.base.index()));
        }
        let path = operand
            .path
            .iter()
            .map(|a| match a {
                Access::Index(s) => DAccess::Index(match s {
                    Scalar::Value(v) => DScalar::Slot(slot(v.index())),
                    Scalar::Const(n) => DScalar::Const(*n),
                    Scalar::End => DScalar::End,
                }),
                Access::Field(n) => DAccess::Field(*n),
            })
            .collect();
        DOp::Path(Box::new(DPath {
            base: slot(operand.base.index()),
            path,
        }))
    }

    fn dst(&self, inst: &Inst) -> u32 {
        slot(inst.results[0].index())
    }

    fn dsts(&self, inst: &Inst) -> Box<[u32]> {
        inst.results.iter().map(|r| slot(r.index())).collect()
    }

    /// Static type of the collection an operand addresses.
    fn target_type(&self, operand: &Operand) -> Type {
        ade_ir::builder::operand_type_in(self.func, operand)
    }

    fn decode_inst(&mut self, inst: &Inst) -> DInst {
        match &inst.kind {
            InstKind::Const(c) => DInst::Const {
                pool: self.pool_const(c),
                dst: self.dst(inst),
            },
            InstKind::New(ty) => DInst::New {
                ty: self.pool_type(ty),
                dst: self.dst(inst),
            },
            InstKind::Read => DInst::Read {
                coll: self.op(&inst.operands[0]),
                key: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Write => DInst::Write {
                coll: self.op(&inst.operands[0]),
                key: self.op(&inst.operands[1]),
                val: self.op(&inst.operands[2]),
                dst: self.dst(inst),
            },
            InstKind::Has => DInst::Has {
                coll: self.op(&inst.operands[0]),
                key: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Insert => {
                let coll = self.op(&inst.operands[0]);
                let dst = self.dst(inst);
                match self.target_type(&inst.operands[0]) {
                    Type::Set { .. } => DInst::InsertSet {
                        coll,
                        elem: self.op(&inst.operands[1]),
                        dst,
                    },
                    Type::Map { val, .. } => DInst::InsertMap {
                        coll,
                        key: self.op(&inst.operands[1]),
                        val_ty: self.pool_type(&val),
                        dst,
                    },
                    Type::Seq(_) => DInst::InsertSeq {
                        coll,
                        index: self.op(&inst.operands[1]),
                        val: self.op(&inst.operands[2]),
                        dst,
                    },
                    other => panic!("insert into {other}"),
                }
            }
            InstKind::Remove => DInst::Remove {
                coll: self.op(&inst.operands[0]),
                key: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Clear => DInst::Clear {
                coll: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::Size => DInst::Size {
                coll: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::UnionInto => {
                let elem = self
                    .target_type(&inst.operands[0])
                    .key_type()
                    .cloned()
                    .unwrap_or(Type::Idx);
                DInst::UnionInto {
                    dst_coll: self.op(&inst.operands[0]),
                    src_coll: self.op(&inst.operands[1]),
                    elem_ty: self.pool_type(&elem),
                    dst: self.dst(inst),
                }
            }
            InstKind::Bin(op) => DInst::Bin {
                op: *op,
                a: self.op(&inst.operands[0]),
                b: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Cmp(op) => DInst::Cmp {
                op: *op,
                a: self.op(&inst.operands[0]),
                b: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Not => DInst::Not {
                a: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::Cast(ty) => DInst::Cast {
                ty: self.pool_type(ty),
                a: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::Tuple => DInst::MkTuple {
                srcs: inst.operands.iter().map(|o| self.op(o)).collect(),
                dst: self.dst(inst),
            },
            InstKind::Call(callee) => DInst::Call {
                callee: *callee,
                args: inst.operands.iter().map(|o| self.op(o)).collect(),
                dst: inst.results.first().map(|r| slot(r.index())),
            },
            InstKind::Print => DInst::Print {
                ops: inst.operands.iter().map(|o| self.op(o)).collect(),
            },
            InstKind::Enc(e) => DInst::Enc {
                e: slot(e.index()),
                v: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::Dec(e) => DInst::Dec {
                e: slot(e.index()),
                v: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::EnumAdd(e) => DInst::EnumAdd {
                e: slot(e.index()),
                v: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::If => DInst::If {
                cond: self.op(&inst.operands[0]),
                then_r: slot(inst.regions[0].index()),
                else_r: slot(inst.regions[1].index()),
                dsts: self.dsts(inst),
            },
            InstKind::ForEach => {
                let coll_ty = self.target_type(&inst.operands[0]);
                DInst::ForEach {
                    coll: self.op(&inst.operands[0]),
                    carried: inst.operands[1..].iter().map(|o| self.op(o)).collect(),
                    body: slot(inst.regions[0].index()),
                    binds_value: matches!(coll_ty, Type::Seq(_) | Type::Map { .. }),
                    uncoerce_u64: coll_ty.key_type() == Some(&Type::U64),
                    dsts: self.dsts(inst),
                }
            }
            InstKind::ForRange => DInst::ForRange {
                lo: self.op(&inst.operands[0]),
                hi: self.op(&inst.operands[1]),
                carried: inst.operands[2..].iter().map(|o| self.op(o)).collect(),
                body: slot(inst.regions[0].index()),
                dsts: self.dsts(inst),
            },
            InstKind::DoWhile => DInst::DoWhile {
                carried: inst.operands.iter().map(|o| self.op(o)).collect(),
                body: slot(inst.regions[0].index()),
                dsts: self.dsts(inst),
            },
            InstKind::Yield => DInst::Yield {
                ops: inst.operands.iter().map(|o| self.op(o)).collect(),
            },
            InstKind::Ret => DInst::Ret {
                op: inst.operands.first().map(|o| self.op(o)),
            },
            InstKind::Roi(begin) => DInst::Roi { begin: *begin },
        }
    }
}

/// The frame slot behind a plain-slot operand; `None` for nesting
/// paths, whose resolution bumps per-level read counts and therefore
/// must stay per-instruction (fusing one would merge its counts).
fn sl(op: &DOp) -> Option<u32> {
    match op {
        DOp::Slot(s) => Some(*s),
        DOp::Path(_) => None,
    }
}

/// Runs the superinstruction peephole over every region of `d`.
///
/// Windows never cross region boundaries (regions are disjoint,
/// contiguous code ranges and execute linearly, so nothing can jump
/// into the middle of a window). A matched window's head slot is
/// replaced by the fused instruction; its tail slots keep the original
/// instructions as padding, preserving code length and instruction
/// indices for the profiler and trap sites.
fn fuse_function(d: &mut DFunc) {
    for r in d.regions.iter() {
        let (start, end) = (r.start as usize, r.end as usize);
        let mut i = start;
        while i < end {
            if let Some(fused) = match_window(&d.code[i..end]) {
                let len = fused.advance();
                d.code[i] = fused;
                i += len;
            } else {
                i += 1;
            }
        }
    }
    direct_yields(d);
}

/// Rewrites the terminal [`DInst::Yield`] of loop bodies and branch
/// arms into [`DInst::YieldDirect`] targeting the consumer's slots.
/// Runs after window fusion so branches that became
/// [`DInst::FusedHasIf`]/[`DInst::FusedCmpIf`] are covered too.
///
/// Observables are unchanged: the terminator keeps its code slot (same
/// fuel tick, same profiler site), slot-only yields bump no statistics
/// and cannot trap, and the copies land exactly where the buffered
/// values would have. Yields with a nesting-path operand (whose
/// resolution bumps read counts) or a write-before-read hazard between
/// the copies keep the buffered path.
fn direct_yields(d: &mut DFunc) {
    let mut plans: Vec<(u32, Box<[u32]>)> = Vec::new();
    for inst in d.code.iter() {
        match inst {
            DInst::ForRange { body, .. } => {
                let args = &d.regions[*body as usize].args;
                plans.push((*body, args[1..].into()));
            }
            DInst::ForEach {
                body, binds_value, ..
            } => {
                let skip = 1 + usize::from(*binds_value);
                let args = &d.regions[*body as usize].args;
                plans.push((*body, args[skip..].into()));
            }
            DInst::If {
                then_r,
                else_r,
                dsts,
                ..
            }
            | DInst::FusedHasIf {
                then_r,
                else_r,
                dsts,
                ..
            }
            | DInst::FusedCmpIf {
                then_r,
                else_r,
                dsts,
                ..
            } => {
                plans.push((*then_r, dsts.clone()));
                plans.push((*else_r, dsts.clone()));
            }
            _ => {}
        }
    }
    for (r, dsts) in plans {
        let region = &d.regions[r as usize];
        if region.end == region.start {
            continue;
        }
        let term = region.end as usize - 1;
        let DInst::Yield { ops } = &d.code[term] else {
            continue;
        };
        if ops.len() != dsts.len() {
            continue;
        }
        let Some(srcs) = ops.iter().map(sl).collect::<Option<Vec<u32>>>() else {
            continue;
        };
        if srcs.iter().enumerate().any(|(j, s)| dsts[..j].contains(s)) {
            continue;
        }
        d.code[term] = DInst::YieldDirect {
            srcs: srcs.into(),
            dsts,
        };
    }
}

/// Tries every fusion pattern at the head of `w`, longest/most-specific
/// first. Only all-slot-operand windows fuse (see [`sl`]).
fn match_window(w: &[DInst]) -> Option<DInst> {
    match w {
        // read + arith (+ write back to the same collection).
        [DInst::Read {
            coll,
            key,
            dst: rdst,
        }, DInst::Bin {
            op,
            a,
            b,
            dst: bdst,
        }, rest @ ..] => {
            let (coll, rkey) = (sl(coll)?, sl(key)?);
            let (a, b) = (sl(a)?, sl(b)?);
            if a != *rdst && b != *rdst {
                return None;
            }
            if let [DInst::Write {
                coll: wcoll,
                key: wkey,
                val,
                dst: wdst,
            }, ..] = rest
            {
                if sl(wcoll) == Some(coll) && sl(val) == Some(*bdst) {
                    if let Some(wkey) = sl(wkey) {
                        return Some(DInst::FusedReadBinWrite {
                            coll,
                            rkey,
                            rdst: *rdst,
                            op: *op,
                            a,
                            b,
                            bdst: *bdst,
                            wkey,
                            wdst: *wdst,
                        });
                    }
                }
            }
            Some(DInst::FusedReadBin {
                coll,
                key: rkey,
                rdst: *rdst,
                op: *op,
                a,
                b,
                bdst: *bdst,
            })
        }
        // membership probe + branch.
        [DInst::Has { coll, key, dst }, DInst::If {
            cond,
            then_r,
            else_r,
            dsts,
        }, ..]
            if sl(cond) == Some(*dst) =>
        {
            Some(DInst::FusedHasIf {
                coll: sl(coll)?,
                key: sl(key)?,
                hdst: *dst,
                then_r: *then_r,
                else_r: *else_r,
                dsts: dsts.clone(),
            })
        }
        // comparison + branch.
        [DInst::Cmp { op, a, b, dst }, DInst::If {
            cond,
            then_r,
            else_r,
            dsts,
        }, ..]
            if sl(cond) == Some(*dst) =>
        {
            Some(DInst::FusedCmpIf {
                op: *op,
                a: sl(a)?,
                b: sl(b)?,
                cdst: *dst,
                then_r: *then_r,
                else_r: *else_r,
                dsts: dsts.clone(),
            })
        }
        // enc + keyed membership-class op on the translated id.
        [DInst::Enc { e, v, dst }, second, ..] => {
            let (kind, coll, dst2) = match second {
                DInst::Has { coll, key, dst: d2 } if sl(key) == Some(*dst) => {
                    (EncKeyKind::Has, sl(coll)?, *d2)
                }
                DInst::Remove { coll, key, dst: d2 } if sl(key) == Some(*dst) => {
                    (EncKeyKind::Remove, sl(coll)?, *d2)
                }
                DInst::Read { coll, key, dst: d2 } if sl(key) == Some(*dst) => {
                    (EncKeyKind::Read, sl(coll)?, *d2)
                }
                _ => return None,
            };
            Some(DInst::FusedEncKey {
                e: *e,
                v: sl(v)?,
                edst: *dst,
                kind,
                coll,
                dst2,
            })
        }
        // arith + store of the result.
        [DInst::Bin { op, a, b, dst }, DInst::Write {
            coll,
            key,
            val,
            dst: wdst,
        }, ..]
            if sl(val) == Some(*dst) =>
        {
            Some(DInst::FusedBinWrite {
                op: *op,
                a: sl(a)?,
                b: sl(b)?,
                bdst: *dst,
                coll: sl(coll)?,
                key: sl(key)?,
                wdst: *wdst,
            })
        }
        // a run of pure scalar micro-ops.
        _ => {
            let as_uop = |inst: &DInst| -> Option<UScalar> {
                Some(match inst {
                    DInst::Const { pool, dst } => UScalar::Const {
                        pool: *pool,
                        dst: *dst,
                    },
                    DInst::Bin { op, a, b, dst } => UScalar::Bin {
                        op: *op,
                        a: sl(a)?,
                        b: sl(b)?,
                        dst: *dst,
                    },
                    DInst::Cmp { op, a, b, dst } => UScalar::Cmp {
                        op: *op,
                        a: sl(a)?,
                        b: sl(b)?,
                        dst: *dst,
                    },
                    DInst::Not { a, dst } => UScalar::Not {
                        a: sl(a)?,
                        dst: *dst,
                    },
                    _ => return None,
                })
            };
            let uops: Vec<UScalar> = w.iter().map_while(as_uop).collect();
            if uops.len() < 2 {
                return None;
            }
            Some(DInst::FusedScalars {
                uops: uops.into_boxed_slice(),
            })
        }
    }
}

/// Runs the loop-granular fusion tier over every region of `d`:
/// `foreach`/`forrange` headers whose whole body compiles to a
/// [`BulkPlan`] are replaced in place by [`DInst::ForEachBulk`] /
/// [`DInst::ForRangeBulk`]. The body region's instructions are left
/// untouched (the header occupies one code slot either way), so code
/// length, profile indices, and trap-site numbering are unchanged and
/// the generic loop path can still execute the region when
/// per-iteration accounting is observable.
///
/// Runs after [`fuse_function`] when both tiers are on; the component
/// expansion in [`compile_ops`] makes the result independent of whether
/// the peephole ran.
fn loop_fuse_function(d: &mut DFunc, f: &Function) {
    // Field-projection operands decompose into `BulkOp::Proj` writes to
    // scratch slots past the function's SSA slots. Each loop allocates
    // its own run starting at the original frame size (bulk loops never
    // nest, so runs can overlap); the frame grows to the widest run.
    let ssa_slots = d.frame_size;
    let mut frame_size = d.frame_size;
    for ri in 0..d.regions.len() {
        let (start, end) = (d.regions[ri].start as usize, d.regions[ri].end as usize);
        let mut i = start;
        while i < end {
            let adv = d.code[i].advance();
            let mut scratch = ssa_slots;
            if let Some(bulk) = try_bulk_loop(d, f, i, &mut scratch) {
                d.code[i] = bulk;
                frame_size = frame_size.max(scratch);
            }
            i += adv;
        }
    }
    d.frame_size = frame_size;
}

/// Compiles the loop header at `idx` into its bulk twin, if its body is
/// a straight-line single-level window the plan language can express.
/// `scratch` is the loop's projection-slot allocator, seeded at the
/// function's SSA slot count.
fn try_bulk_loop(d: &DFunc, f: &Function, idx: usize, scratch: &mut u32) -> Option<DInst> {
    match &d.code[idx] {
        DInst::ForEach {
            coll,
            carried,
            body,
            binds_value,
            uncoerce_u64,
            dsts,
        } => {
            let region = &d.regions[*body as usize];
            let skip = 1 + usize::from(*binds_value);
            let carried_args = region.args.get(skip..)?;
            let mut plan = compile_plan(d, region, carried_args, scratch)?;
            if carried.len() == 1 {
                let elem = if *binds_value { region.args[1] } else { region.args[0] };
                (plan.fast, plan.fast_proj) =
                    classify_fast(d, &plan, region.args[0], elem, carried_args[0]);
            }
            Some(DInst::ForEachBulk {
                coll: coll.clone(),
                carried: carried.clone(),
                body: *body,
                binds_value: *binds_value,
                uncoerce_u64: *uncoerce_u64,
                dsts: dsts.clone(),
                plan: Box::new(plan),
            })
        }
        DInst::ForRange {
            lo,
            hi,
            carried,
            body,
            dsts,
        } => {
            let region = &d.regions[*body as usize];
            let carried_args = region.args.get(1..)?;
            let mut plan = compile_plan(d, region, carried_args, scratch)?;
            plan.spec = specialize_forrange(f, d, &plan, &region.args, *scratch);
            Some(DInst::ForRangeBulk {
                lo: lo.clone(),
                hi: hi.clone(),
                carried: carried.clone(),
                body: *body,
                dsts: dsts.clone(),
                plan: Box::new(plan),
            })
        }
        _ => None,
    }
}

/// Compiles a loop body region into a [`BulkPlan`]: every component
/// must be expressible as a [`BulkOp`], the terminator must be an
/// all-slot yield of the carried values, and the copies back into the
/// carried argument slots must be hazard-free (the same rule
/// [`direct_yields`] applies). Top-level `const` components are hoisted
/// into the prelude.
fn compile_plan(
    d: &DFunc,
    region: &DRegion,
    carried_args: &[u32],
    scratch: &mut u32,
) -> Option<BulkPlan> {
    let (start, end) = (region.start as usize, region.end as usize);
    if end == start {
        return None;
    }
    let term = end - 1;
    let body = compile_ops(d, start, term, true, scratch)?;
    let yield_srcs = yield_slots(&d.code[term], carried_args)?;
    let (prelude, ops): (Vec<PlanOp>, Vec<PlanOp>) = body
        .into_iter()
        .partition(|p| matches!(p.op, BulkOp::Const { .. }));
    Some(BulkPlan {
        prelude: prelude.into_boxed_slice(),
        ops: ops.into_boxed_slice(),
        yield_srcs: yield_srcs.into_boxed_slice(),
        fast: None,
        fast_proj: None,
        spec: None,
    })
}

/// The all-slot source list of a region terminator, checked against the
/// consumer's destination slots for length and write-before-read
/// hazards. `None` for anything else (buffered yields with path
/// operands bump read counts and must stay per-instruction).
fn yield_slots(term: &DInst, dsts: &[u32]) -> Option<Vec<u32>> {
    let srcs: Vec<u32> = match term {
        DInst::Yield { ops } => ops.iter().map(sl).collect::<Option<Vec<u32>>>()?,
        DInst::YieldDirect { srcs, .. } => srcs.to_vec(),
        _ => return None,
    };
    if srcs.len() != dsts.len() {
        return None;
    }
    if srcs.iter().enumerate().any(|(j, s)| dsts[..j].contains(s)) {
        return None;
    }
    Some(srcs)
}

/// Compiles the code range `[start, end)` into plan components,
/// expanding peephole windows back into their constituent ops at their
/// original code indices. `allow_if` is `true` only at the top level:
/// branch arms must be straight-line (one nesting level keeps the plan
/// executor non-recursive in spirit and the inertness argument short).
fn compile_ops(
    d: &DFunc,
    start: usize,
    end: usize,
    allow_if: bool,
    scratch: &mut u32,
) -> Option<Vec<PlanOp>> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let inst = &d.code[i];
        let adv = inst.advance();
        if i + adv > end {
            return None;
        }
        push_components(d, i, inst, allow_if, scratch, &mut out)?;
        i += adv;
    }
    Some(out)
}

/// Compiles one branch arm: straight-line components plus a terminal
/// yield of the branch's destination count.
fn compile_arm(
    d: &DFunc,
    r: u32,
    if_dsts: &[u32],
    scratch: &mut u32,
) -> Option<(Box<[PlanOp]>, Box<[u32]>)> {
    let region = &d.regions[r as usize];
    let (start, end) = (region.start as usize, region.end as usize);
    if end == start {
        return None;
    }
    let term = end - 1;
    let ops = compile_ops(d, start, term, false, scratch)?;
    let srcs = yield_slots(&d.code[term], if_dsts)?;
    Some((ops.into_boxed_slice(), srcs.into_boxed_slice()))
}

/// Resolves a scalar-position operand to a plan slot: plain slots pass
/// through; a single-`Field` path (`t.k`) decomposes into a
/// [`BulkOp::Proj`] into a fresh scratch slot, emitted in operand order
/// at the consuming component's site. Deeper paths (any `Index` step
/// touches a collection and bumps read counts) reject the loop.
fn scalar_operand(op: &DOp, site: u32, scratch: &mut u32, out: &mut Vec<PlanOp>) -> Option<u32> {
    match op {
        DOp::Slot(s) => Some(*s),
        DOp::Path(p) => match p.path.as_ref() {
            [DAccess::Field(f)] => {
                let dst = *scratch;
                *scratch = scratch.checked_add(1)?;
                out.push(PlanOp {
                    site,
                    op: BulkOp::Proj {
                        base: p.base,
                        field: *f,
                        dst,
                    },
                });
                Some(dst)
            }
            _ => None,
        },
    }
}

/// Appends the plan components of the instruction (or peephole window)
/// at `idx`. Component `j` of a window gets site `idx + j` — the code
/// slot of the original instruction it replays — so bulk execution
/// traps at exactly the site the unfused loop would. Single-`Field`
/// path operands in scalar positions decompose into projections (see
/// [`scalar_operand`]); anything with a deeper path operand, observable
/// side channel (print, ROI, calls, enumeration ops), allocation, or
/// nested control flow rejects the whole loop.
fn push_components(
    d: &DFunc,
    idx: usize,
    inst: &DInst,
    allow_if: bool,
    scratch: &mut u32,
    out: &mut Vec<PlanOp>,
) -> Option<()> {
    let site = |j: usize| slot(idx + j);
    match inst {
        DInst::Const { pool, dst } => out.push(PlanOp {
            site: site(0),
            op: BulkOp::Const {
                pool: *pool,
                dst: *dst,
            },
        }),
        DInst::Bin { op, a, b, dst } => {
            let a = scalar_operand(a, site(0), scratch, out)?;
            let b = scalar_operand(b, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Bin {
                    op: *op,
                    a,
                    b,
                    dst: *dst,
                },
            });
        }
        DInst::Cmp { op, a, b, dst } => {
            let a = scalar_operand(a, site(0), scratch, out)?;
            let b = scalar_operand(b, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Cmp {
                    op: *op,
                    a,
                    b,
                    dst: *dst,
                },
            });
        }
        DInst::Not { a, dst } => {
            let a = scalar_operand(a, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Not { a, dst: *dst },
            });
        }
        DInst::Cast { ty, a, dst } => {
            let a = scalar_operand(a, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Cast {
                    ty: *ty,
                    a,
                    dst: *dst,
                },
            });
        }
        DInst::Read { coll, key, dst } => {
            let coll = sl(coll)?;
            let key = scalar_operand(key, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Read {
                    coll,
                    key,
                    dst: *dst,
                },
            });
        }
        DInst::Write {
            coll,
            key,
            val,
            dst,
        } => {
            let coll = sl(coll)?;
            let key = scalar_operand(key, site(0), scratch, out)?;
            let val = scalar_operand(val, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Write {
                    coll,
                    key,
                    val,
                    dst: *dst,
                },
            });
        }
        DInst::Has { coll, key, dst } => {
            let coll = sl(coll)?;
            let key = scalar_operand(key, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Has {
                    coll,
                    key,
                    dst: *dst,
                },
            });
        }
        DInst::InsertSet { coll, elem, dst } => {
            let coll = sl(coll)?;
            let elem = scalar_operand(elem, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::InsertSet {
                    coll,
                    elem,
                    dst: *dst,
                },
            });
        }
        DInst::InsertMap {
            coll,
            key,
            val_ty,
            dst,
        } => {
            let coll = sl(coll)?;
            let key = scalar_operand(key, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::InsertMap {
                    coll,
                    key,
                    val_ty: *val_ty,
                    dst: *dst,
                },
            });
        }
        DInst::InsertSeq {
            coll,
            index,
            val,
            dst,
        } => {
            let coll = sl(coll)?;
            let index = scalar_operand(index, site(0), scratch, out)?;
            let val = scalar_operand(val, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::InsertSeq {
                    coll,
                    index,
                    val,
                    dst: *dst,
                },
            });
        }
        DInst::Remove { coll, key, dst } => {
            let coll = sl(coll)?;
            let key = scalar_operand(key, site(0), scratch, out)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Remove {
                    coll,
                    key,
                    dst: *dst,
                },
            });
        }
        DInst::Size { coll, dst } => out.push(PlanOp {
            site: site(0),
            op: BulkOp::Size {
                coll: sl(coll)?,
                dst: *dst,
            },
        }),
        DInst::If {
            cond,
            then_r,
            else_r,
            dsts,
        } if allow_if => {
            let cond = sl(cond)?;
            let (then_ops, then_srcs) = compile_arm(d, *then_r, dsts, scratch)?;
            let (else_ops, else_srcs) = compile_arm(d, *else_r, dsts, scratch)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::If {
                    cond,
                    then_ops,
                    then_srcs,
                    else_ops,
                    else_srcs,
                    dsts: dsts.clone(),
                },
            });
        }
        DInst::FusedScalars { uops } => {
            for (j, u) in uops.iter().enumerate() {
                let op = match u {
                    UScalar::Const { pool, dst } => BulkOp::Const {
                        pool: *pool,
                        dst: *dst,
                    },
                    UScalar::Bin { op, a, b, dst } => BulkOp::Bin {
                        op: *op,
                        a: *a,
                        b: *b,
                        dst: *dst,
                    },
                    UScalar::Cmp { op, a, b, dst } => BulkOp::Cmp {
                        op: *op,
                        a: *a,
                        b: *b,
                        dst: *dst,
                    },
                    UScalar::Not { a, dst } => BulkOp::Not { a: *a, dst: *dst },
                };
                out.push(PlanOp { site: site(j), op });
            }
        }
        DInst::FusedReadBin {
            coll,
            key,
            rdst,
            op,
            a,
            b,
            bdst,
        } => {
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Read {
                    coll: *coll,
                    key: *key,
                    dst: *rdst,
                },
            });
            out.push(PlanOp {
                site: site(1),
                op: BulkOp::Bin {
                    op: *op,
                    a: *a,
                    b: *b,
                    dst: *bdst,
                },
            });
        }
        DInst::FusedBinWrite {
            op,
            a,
            b,
            bdst,
            coll,
            key,
            wdst,
        } => {
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Bin {
                    op: *op,
                    a: *a,
                    b: *b,
                    dst: *bdst,
                },
            });
            out.push(PlanOp {
                site: site(1),
                op: BulkOp::Write {
                    coll: *coll,
                    key: *key,
                    val: *bdst,
                    dst: *wdst,
                },
            });
        }
        DInst::FusedReadBinWrite {
            coll,
            rkey,
            rdst,
            op,
            a,
            b,
            bdst,
            wkey,
            wdst,
        } => {
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Read {
                    coll: *coll,
                    key: *rkey,
                    dst: *rdst,
                },
            });
            out.push(PlanOp {
                site: site(1),
                op: BulkOp::Bin {
                    op: *op,
                    a: *a,
                    b: *b,
                    dst: *bdst,
                },
            });
            out.push(PlanOp {
                site: site(2),
                op: BulkOp::Write {
                    coll: *coll,
                    key: *wkey,
                    val: *bdst,
                    dst: *wdst,
                },
            });
        }
        DInst::FusedHasIf {
            coll,
            key,
            hdst,
            then_r,
            else_r,
            dsts,
        } if allow_if => {
            let (then_ops, then_srcs) = compile_arm(d, *then_r, dsts, scratch)?;
            let (else_ops, else_srcs) = compile_arm(d, *else_r, dsts, scratch)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Has {
                    coll: *coll,
                    key: *key,
                    dst: *hdst,
                },
            });
            out.push(PlanOp {
                site: site(1),
                op: BulkOp::If {
                    cond: *hdst,
                    then_ops,
                    then_srcs,
                    else_ops,
                    else_srcs,
                    dsts: dsts.clone(),
                },
            });
        }
        DInst::FusedCmpIf {
            op,
            a,
            b,
            cdst,
            then_r,
            else_r,
            dsts,
        } if allow_if => {
            let (then_ops, then_srcs) = compile_arm(d, *then_r, dsts, scratch)?;
            let (else_ops, else_srcs) = compile_arm(d, *else_r, dsts, scratch)?;
            out.push(PlanOp {
                site: site(0),
                op: BulkOp::Cmp {
                    op: *op,
                    a: *a,
                    b: *b,
                    dst: *cdst,
                },
            });
            out.push(PlanOp {
                site: site(1),
                op: BulkOp::If {
                    cond: *cdst,
                    then_ops,
                    then_srcs,
                    else_ops,
                    else_srcs,
                    dsts: dsts.clone(),
                },
            });
        }
        _ => return None,
    }
    Some(())
}

/// Pushes every slot the component list writes per iteration
/// (including branch destinations and arm-internal writes).
fn collect_dsts(ops: &[PlanOp], out: &mut Vec<u32>) {
    for p in ops {
        match &p.op {
            BulkOp::Const { dst, .. }
            | BulkOp::Bin { dst, .. }
            | BulkOp::Cmp { dst, .. }
            | BulkOp::Not { dst, .. }
            | BulkOp::Cast { dst, .. }
            | BulkOp::Proj { dst, .. }
            | BulkOp::Read { dst, .. }
            | BulkOp::Write { dst, .. }
            | BulkOp::Has { dst, .. }
            | BulkOp::InsertSet { dst, .. }
            | BulkOp::InsertMap { dst, .. }
            | BulkOp::InsertSeq { dst, .. }
            | BulkOp::Remove { dst, .. }
            | BulkOp::Size { dst, .. } => out.push(*dst),
            BulkOp::If {
                then_ops,
                else_ops,
                dsts,
                ..
            } => {
                out.extend(dsts.iter().copied());
                collect_dsts(then_ops, out);
                collect_dsts(else_ops, out);
            }
        }
    }
}

/// What one branch arm of a candidate filter loop does.
enum ArmShape {
    /// Passes the accumulator through unchanged.
    Pass,
    /// Folds into the accumulator: `bin(acc, x)` in some order.
    Fold {
        bin: BinOp,
        acc_lhs: bool,
        bin_elem: bool,
        bin_other: u32,
        site: u32,
    },
    /// Inserts the element into the carried set.
    Insert,
}

/// Classifies one branch arm against the `(elem, acc)` pair.
fn arm_shape(
    ops: &[PlanOp],
    srcs: &[u32],
    elem: u32,
    acc: u32,
    inv: &dyn Fn(u32) -> bool,
) -> Option<ArmShape> {
    match (ops, srcs) {
        ([], [s]) if *s == acc => Some(ArmShape::Pass),
        ([PlanOp {
            site,
            op: BulkOp::Bin { op, a, b, dst },
        }], [s])
            if *s == *dst =>
        {
            let (acc_lhs, other) = if *a == acc {
                (true, *b)
            } else if *b == acc {
                (false, *a)
            } else {
                return None;
            };
            let (bin_elem, bin_other) = if other == elem {
                (true, 0)
            } else if inv(other) {
                (false, other)
            } else {
                return None;
            };
            Some(ArmShape::Fold {
                bin: *op,
                acc_lhs,
                bin_elem,
                bin_other,
                site: *site,
            })
        }
        ([PlanOp {
            op: BulkOp::InsertSet { coll, elem: e, dst },
            ..
        }], [s])
            if *coll == acc && *e == elem && *s == *dst =>
        {
            Some(ArmShape::Insert)
        }
        _ => None,
    }
}

/// Recognizes the streaming shapes of a single-carry `foreach` plan
/// (see [`FastKind`]). Operands that must be loop-invariant are checked
/// against the set of slots written per iteration; prelude-const slots
/// count as invariant (the prelude runs once, before the loop). A plan
/// opening with a projection of the element routes through the
/// proj-aware matcher, which surfaces the consumed fields as
/// [`FastProj`].
fn classify_fast(
    d: &DFunc,
    plan: &BulkPlan,
    key_slot: u32,
    elem: u32,
    acc: u32,
) -> (Option<FastKind>, Option<FastProj>) {
    let mut variant = vec![key_slot, elem, acc];
    collect_dsts(&plan.ops, &mut variant);
    let inv = |s: u32| !variant.contains(&s);
    if let [PlanOp {
        op: BulkOp::Proj { base, field, dst },
        ..
    }, rest @ ..] = &plan.ops[..]
    {
        if *base != elem {
            return (None, None);
        }
        return match classify_fast_proj(d, plan, rest, elem, *dst, *field, acc, &inv) {
            Some((fast, proj)) => (Some(fast), Some(proj)),
            None => (None, None),
        };
    }
    (classify_fast_scalar(d, plan, elem, acc, &inv), None)
}

/// The scalar-element streaming shapes (the element slot itself fills
/// every element role).
fn classify_fast_scalar(
    d: &DFunc,
    plan: &BulkPlan,
    elem: u32,
    acc: u32,
    inv: &dyn Fn(u32) -> bool,
) -> Option<FastKind> {
    match &plan.ops[..] {
        // acc = op(acc, elem)
        [PlanOp {
            site,
            op: BulkOp::Bin { op, a, b, dst },
        }] if plan.yield_srcs.as_ref() == [*dst] => {
            let elem_first = if *a == elem && *b == acc {
                true
            } else if *a == acc && *b == elem {
                false
            } else {
                return None;
            };
            Some(FastKind::Reduce {
                op: *op,
                elem_first,
                site: *site,
            })
        }
        // set = insert(set, elem)
        [PlanOp {
            op: BulkOp::InsertSet { coll, elem: e, dst },
            ..
        }] if *coll == acc && *e == elem && plan.yield_srcs.as_ref() == [*dst] => {
            Some(FastKind::CopyInto)
        }
        // acc = acc + (has(set, elem) as u64)
        [PlanOp {
            op:
                BulkOp::Has {
                    coll: set,
                    key,
                    dst: hdst,
                },
            ..
        }, PlanOp {
            op:
                BulkOp::Cast {
                    ty,
                    a: cast_a,
                    dst: cdst,
                },
            ..
        }, PlanOp {
            op:
                BulkOp::Bin {
                    op: BinOp::Add,
                    a: ba,
                    b: bb,
                    dst: sum,
                },
            ..
        }] if *key == elem
            && inv(*set)
            && *cast_a == *hdst
            && d.types.get(*ty as usize) == Some(&Type::U64)
            && ((*ba == acc && *bb == *cdst) || (*ba == *cdst && *bb == acc))
            && plan.yield_srcs.as_ref() == [*sum] =>
        {
            Some(FastKind::ProbeCount { set: *set })
        }
        // if cmp(elem, rhs) { fold or insert } else { pass } (either arm)
        [PlanOp {
            op:
                BulkOp::Cmp {
                    op: cmp,
                    a: ca,
                    b: cb,
                    dst: cdst,
                },
            ..
        }, PlanOp {
            op:
                BulkOp::If {
                    cond,
                    then_ops,
                    then_srcs,
                    else_ops,
                    else_srcs,
                    dsts,
                },
            ..
        }] if *cond == *cdst && dsts.len() == 1 && plan.yield_srcs.as_ref() == [dsts[0]] => {
            let (elem_lhs, rhs) = if *ca == elem && inv(*cb) {
                (true, *cb)
            } else if *cb == elem && inv(*ca) {
                (false, *ca)
            } else {
                return None;
            };
            let then_shape = arm_shape(then_ops, then_srcs, elem, acc, &inv)?;
            let else_shape = arm_shape(else_ops, else_srcs, elem, acc, &inv)?;
            match (then_shape, else_shape) {
                (
                    ArmShape::Fold {
                        bin,
                        acc_lhs,
                        bin_elem,
                        bin_other,
                        site,
                    },
                    ArmShape::Pass,
                ) => Some(FastKind::FilterReduce {
                    cmp: *cmp,
                    elem_lhs,
                    rhs,
                    acc_on_true: true,
                    bin,
                    acc_lhs,
                    bin_elem,
                    bin_other,
                    bin_site: site,
                }),
                (
                    ArmShape::Pass,
                    ArmShape::Fold {
                        bin,
                        acc_lhs,
                        bin_elem,
                        bin_other,
                        site,
                    },
                ) => Some(FastKind::FilterReduce {
                    cmp: *cmp,
                    elem_lhs,
                    rhs,
                    acc_on_true: false,
                    bin,
                    acc_lhs,
                    bin_elem,
                    bin_other,
                    bin_site: site,
                }),
                (ArmShape::Insert, ArmShape::Pass) => Some(FastKind::FilterInto {
                    cmp: *cmp,
                    elem_lhs,
                    rhs,
                    insert_on_true: true,
                }),
                (ArmShape::Pass, ArmShape::Insert) => Some(FastKind::FilterInto {
                    cmp: *cmp,
                    elem_lhs,
                    rhs,
                    insert_on_true: false,
                }),
                _ => None,
            }
        }
        _ => None,
    }
}

/// [`arm_shape`] with an optional leading projection of the tuple
/// element: `[Proj(tuple.f -> q), rest]` classifies `rest` with `q` in
/// the element role and surfaces `f`. A projection the matched shape
/// does not consume rejects the arm — dead work stays on the generic
/// path. Without a projection the arm may not touch the element at all
/// (`u32::MAX` never names a real slot).
fn arm_shape_proj(
    ops: &[PlanOp],
    srcs: &[u32],
    tuple: u32,
    acc: u32,
    inv: &dyn Fn(u32) -> bool,
) -> Option<(ArmShape, Option<u32>)> {
    if let [PlanOp {
        op: BulkOp::Proj { base, field, dst },
        ..
    }, tail @ ..] = ops
    {
        if *base != tuple {
            return None;
        }
        let shape = arm_shape(tail, srcs, *dst, acc, inv)?;
        let consumed = match &shape {
            ArmShape::Fold { bin_elem, .. } => *bin_elem,
            ArmShape::Insert => true,
            ArmShape::Pass => false,
        };
        return consumed.then_some((shape, Some(*field)));
    }
    Some((arm_shape(ops, srcs, u32::MAX, acc, inv)?, None))
}

/// The projected-tuple streaming shapes: the element is a tuple and
/// every element role is filled by a single-field projection of it
/// (`rest` is the plan after the leading `tuple.pf -> p`), so the
/// kernels can stream flat columns instead of materializing rows.
#[allow(clippy::too_many_arguments)]
fn classify_fast_proj(
    d: &DFunc,
    plan: &BulkPlan,
    rest: &[PlanOp],
    tuple: u32,
    p: u32,
    pf: u32,
    acc: u32,
    inv: &dyn Fn(u32) -> bool,
) -> Option<(FastKind, FastProj)> {
    let one = FastProj {
        elem: pf,
        other: None,
    };
    match rest {
        // acc = op(acc, t.pf)
        [PlanOp {
            site,
            op: BulkOp::Bin { op, a, b, dst },
        }] if plan.yield_srcs.as_ref() == [*dst] => {
            let elem_first = if *a == p && *b == acc {
                true
            } else if *a == acc && *b == p {
                false
            } else {
                return None;
            };
            Some((
                FastKind::Reduce {
                    op: *op,
                    elem_first,
                    site: *site,
                },
                one,
            ))
        }
        // set = insert(set, t.pf)
        [PlanOp {
            op: BulkOp::InsertSet { coll, elem: e, dst },
            ..
        }] if *coll == acc && *e == p && plan.yield_srcs.as_ref() == [*dst] => {
            Some((FastKind::CopyInto, one))
        }
        // acc = acc + (has(set, t.pf) as u64)
        [PlanOp {
            op:
                BulkOp::Has {
                    coll: set,
                    key,
                    dst: hdst,
                },
            ..
        }, PlanOp {
            op:
                BulkOp::Cast {
                    ty,
                    a: cast_a,
                    dst: cdst,
                },
            ..
        }, PlanOp {
            op:
                BulkOp::Bin {
                    op: BinOp::Add,
                    a: ba,
                    b: bb,
                    dst: sum,
                },
            ..
        }] if *key == p
            && inv(*set)
            && *cast_a == *hdst
            && d.types.get(*ty as usize) == Some(&Type::U64)
            && ((*ba == acc && *bb == *cdst) || (*ba == *cdst && *bb == acc))
            && plan.yield_srcs.as_ref() == [*sum] =>
        {
            Some((FastKind::ProbeCount { set: *set }, one))
        }
        // if cmp(t.pf, rhs) { fold or insert (possibly of t.f2) } else
        // { pass } (either arm)
        [PlanOp {
            op:
                BulkOp::Cmp {
                    op: cmp,
                    a: ca,
                    b: cb,
                    dst: cdst,
                },
            ..
        }, PlanOp {
            op:
                BulkOp::If {
                    cond,
                    then_ops,
                    then_srcs,
                    else_ops,
                    else_srcs,
                    dsts,
                },
            ..
        }] if *cond == *cdst && dsts.len() == 1 && plan.yield_srcs.as_ref() == [dsts[0]] => {
            let (elem_lhs, rhs) = if *ca == p && inv(*cb) {
                (true, *cb)
            } else if *cb == p && inv(*ca) {
                (false, *ca)
            } else {
                return None;
            };
            let then_arm = arm_shape_proj(then_ops, then_srcs, tuple, acc, inv)?;
            let else_arm = arm_shape_proj(else_ops, else_srcs, tuple, acc, inv)?;
            match (then_arm, else_arm) {
                (
                    (
                        ArmShape::Fold {
                            bin,
                            acc_lhs,
                            bin_elem,
                            bin_other,
                            site,
                        },
                        fold_field,
                    ),
                    (ArmShape::Pass, None),
                ) => Some((
                    FastKind::FilterReduce {
                        cmp: *cmp,
                        elem_lhs,
                        rhs,
                        acc_on_true: true,
                        bin,
                        acc_lhs,
                        bin_elem,
                        bin_other,
                        bin_site: site,
                    },
                    FastProj {
                        elem: pf,
                        other: fold_field,
                    },
                )),
                (
                    (ArmShape::Pass, None),
                    (
                        ArmShape::Fold {
                            bin,
                            acc_lhs,
                            bin_elem,
                            bin_other,
                            site,
                        },
                        fold_field,
                    ),
                ) => Some((
                    FastKind::FilterReduce {
                        cmp: *cmp,
                        elem_lhs,
                        rhs,
                        acc_on_true: false,
                        bin,
                        acc_lhs,
                        bin_elem,
                        bin_other,
                        bin_site: site,
                    },
                    FastProj {
                        elem: pf,
                        other: fold_field,
                    },
                )),
                ((ArmShape::Insert, Some(f)), (ArmShape::Pass, None)) => Some((
                    FastKind::FilterInto {
                        cmp: *cmp,
                        elem_lhs,
                        rhs,
                        insert_on_true: true,
                    },
                    FastProj {
                        elem: pf,
                        other: Some(f),
                    },
                )),
                ((ArmShape::Pass, None), (ArmShape::Insert, Some(f))) => Some((
                    FastKind::FilterInto {
                        cmp: *cmp,
                        elem_lhs,
                        rhs,
                        insert_on_true: false,
                    },
                    FastProj {
                        elem: pf,
                        other: Some(f),
                    },
                )),
                _ => None,
            }
        }
        _ => None,
    }
}

/// What a collection group statically is: the required unboxed backend
/// plus the value/element tag its static type prescribes (key tags are
/// taken from the key *operand*'s static type at each use, which is
/// what the generic executor passes through verbatim).
#[derive(Clone, Copy)]
struct GroupInfo {
    backend: SpecBackend,
    vtag: SpecTag,
}

/// The static scalar tag of a type, when the spec tier can register it.
fn spec_tag(ty: &Type) -> Option<SpecTag> {
    match ty {
        Type::U64 => Some(SpecTag::U64),
        Type::Idx => Some(SpecTag::Idx),
        Type::Bool => Some(SpecTag::Bool),
        _ => None,
    }
}

/// The unboxed backend a collection type selects under hash selection
/// defaults (storage follows from the static type; see
/// [`crate::Collection::new_for`]). The live heap cell is re-checked at
/// loop entry, so a run under other defaults simply abandons the
/// specialization there.
fn spec_backend(ty: &Type) -> Option<GroupInfo> {
    match ty {
        Type::Seq(elem) => match spec_tag(elem) {
            Some(vtag) => Some(GroupInfo {
                backend: SpecBackend::Seq,
                vtag,
            }),
            // Tuple-of-scalar elements select the columnar backend; the
            // vtag is unused (projections carry their own field tags).
            None => match elem.as_ref() {
                Type::Tuple(fields)
                    if !fields.is_empty() && fields.iter().all(|t| spec_tag(t).is_some()) =>
                {
                    Some(GroupInfo {
                        backend: SpecBackend::SoaSeq,
                        vtag: SpecTag::U64,
                    })
                }
                _ => None,
            },
        },
        Type::Set {
            elem,
            sel: SetSel::Auto | SetSel::Hash,
        } => Some(GroupInfo {
            backend: SpecBackend::HashSet,
            vtag: spec_tag(elem)?,
        }),
        Type::Map {
            key,
            val,
            sel: MapSel::Auto | MapSel::Hash,
        } => {
            spec_tag(key)?;
            Some(GroupInfo {
                backend: SpecBackend::HashMap,
                vtag: spec_tag(val)?,
            })
        }
        Type::Map {
            key,
            val,
            sel: MapSel::Bit,
        } => {
            if spec_tag(key)? == SpecTag::Bool {
                return None;
            }
            Some(GroupInfo {
                backend: SpecBackend::BitMap,
                vtag: spec_tag(val)?,
            })
        }
        _ => None,
    }
}

/// Abstract interpreter that compiles a [`BulkPlan`] into its
/// [`SpecPlan`] twin. Walks the per-iteration ops tracking, per frame
/// slot, whether it holds a scalar register or a collection group;
/// slots read before any write are loop inputs typed from the static
/// IR (the same `ValueId` index is the frame slot, by construction of
/// [`decode_function`]).
struct SpecBuilder<'a> {
    f: &'a Function,
    abs: Vec<Option<SpecVal>>,
    scalar_inputs: Vec<(u32, SpecTag)>,
    coll_inputs: Vec<(u32, SpecBackend)>,
    groups: Vec<GroupInfo>,
}

impl SpecBuilder<'_> {
    /// The abstract value of a slot, registering it as a loop input on
    /// first read. `None` rejects the specialization (a type the
    /// register file cannot carry).
    fn read(&mut self, slot: u32) -> Option<SpecVal> {
        if let Some(v) = self.abs[slot as usize] {
            return Some(v);
        }
        let ty = self.f.value_ty(ValueId::from_index(slot as usize));
        let v = if let Some(tag) = spec_tag(ty) {
            self.scalar_inputs.push((slot, tag));
            SpecVal::Reg(tag)
        } else {
            let info = spec_backend(ty)?;
            let g = u8::try_from(self.groups.len()).ok()?;
            self.coll_inputs.push((slot, info.backend));
            self.groups.push(info);
            SpecVal::Coll(g)
        };
        self.abs[slot as usize] = Some(v);
        Some(v)
    }

    fn read_reg(&mut self, slot: u32) -> Option<SpecTag> {
        match self.read(slot)? {
            SpecVal::Reg(t) => Some(t),
            SpecVal::Coll(_) | SpecVal::Row { .. } => None,
        }
    }

    fn read_coll(&mut self, slot: u32) -> Option<(u8, GroupInfo)> {
        match self.read(slot)? {
            SpecVal::Coll(g) => Some((g, self.groups[g as usize])),
            SpecVal::Reg(_) | SpecVal::Row { .. } => None,
        }
    }

    /// The register tag of one field of a columnar group's row type,
    /// read off the group slot's static `Seq<Tuple<..>>` type.
    fn soa_field_tag(&self, grp: u8, field: u32) -> Option<SpecTag> {
        let slot = self.coll_inputs.get(grp as usize)?.0;
        let Type::Seq(elem) = self.f.value_ty(ValueId::from_index(slot as usize)) else {
            return None;
        };
        let Type::Tuple(fields) = elem.as_ref() else {
            return None;
        };
        spec_tag(fields.get(field as usize)?)
    }

    fn write(&mut self, slot: u32, v: SpecVal) {
        self.abs[slot as usize] = Some(v);
    }

    /// A key register for a dense (bit-map) backend: `u64` keys are
    /// coerced to `idx` by the executor, `bool` keys never reach a
    /// dense implementation the builder accepts.
    fn dense_key_reg(&mut self, slot: u32) -> Option<u32> {
        match self.read_reg(slot)? {
            SpecTag::U64 | SpecTag::Idx => Some(slot),
            SpecTag::Bool => None,
        }
    }

    /// Compiles one plan op, updating the abstract state. `None`
    /// rejects the whole specialization.
    fn compile(&mut self, d: &DFunc, p: &PlanOp) -> Option<SpecOp> {
        let kind = match &p.op {
            BulkOp::Const { pool, dst } => {
                let (val, tag) = match &d.consts[*pool as usize] {
                    Value::U64(n) => (*n, SpecTag::U64),
                    Value::Idx(i) => (*i as u64, SpecTag::Idx),
                    Value::Bool(b) => (u64::from(*b), SpecTag::Bool),
                    _ => return None,
                };
                self.write(*dst, SpecVal::Reg(tag));
                SpecKind::Const { val, dst: *dst }
            }
            BulkOp::Bin { op, a, b, dst } => {
                let (ta, tb) = (self.read_reg(*a)?, self.read_reg(*b)?);
                if ta != tb {
                    return None;
                }
                match ta {
                    SpecTag::U64 | SpecTag::Idx => {
                        self.write(*dst, SpecVal::Reg(ta));
                        SpecKind::Bin {
                            op: *op,
                            idx: ta == SpecTag::Idx,
                            a: *a,
                            b: *b,
                            dst: *dst,
                        }
                    }
                    SpecTag::Bool => {
                        if !matches!(op, BinOp::And | BinOp::Or | BinOp::Xor) {
                            return None;
                        }
                        self.write(*dst, SpecVal::Reg(SpecTag::Bool));
                        SpecKind::BinBool {
                            op: *op,
                            a: *a,
                            b: *b,
                            dst: *dst,
                        }
                    }
                }
            }
            BulkOp::Cmp { op, a, b, dst } => {
                if self.read_reg(*a)? != self.read_reg(*b)? {
                    return None;
                }
                self.write(*dst, SpecVal::Reg(SpecTag::Bool));
                SpecKind::Cmp {
                    op: *op,
                    a: *a,
                    b: *b,
                    dst: *dst,
                }
            }
            BulkOp::Not { a, dst } => {
                if self.read_reg(*a)? != SpecTag::Bool {
                    return None;
                }
                self.write(*dst, SpecVal::Reg(SpecTag::Bool));
                SpecKind::Not { a: *a, dst: *dst }
            }
            BulkOp::Cast { ty, a, dst } => {
                self.read_reg(*a)?;
                let idx = match &d.types[*ty as usize] {
                    Type::U64 => false,
                    Type::Idx => true,
                    _ => return None,
                };
                let tag = if idx { SpecTag::Idx } else { SpecTag::U64 };
                self.write(*dst, SpecVal::Reg(tag));
                SpecKind::Cast {
                    idx,
                    a: *a,
                    dst: *dst,
                }
            }
            BulkOp::Read { coll, key, dst } => {
                let (grp, info) = self.read_coll(*coll)?;
                if info.backend == SpecBackend::SoaSeq {
                    // The row is never materialized: the abstract value
                    // records where it lives and later projections fetch
                    // single column cells. The key register is SSA-stable
                    // for the rest of the iteration, and no compiled op
                    // mutates a columnar group, so the recorded position
                    // stays valid.
                    let kind = SpecKind::SoaRead {
                        grp,
                        index: self.dense_key_reg(*key)?,
                    };
                    self.write(*dst, SpecVal::Row { grp, index: *key });
                    kind
                } else {
                    let kind = match info.backend {
                        SpecBackend::Seq => SpecKind::SeqRead {
                            grp,
                            index: self.dense_key_reg(*key)?,
                            vtag: info.vtag,
                            dst: *dst,
                        },
                        SpecBackend::HashMap => SpecKind::MapRead {
                            grp,
                            key: *key,
                            ktag: self.read_reg(*key)?,
                            vtag: info.vtag,
                            dst: *dst,
                        },
                        SpecBackend::BitMap => SpecKind::DenseRead {
                            grp,
                            key: self.dense_key_reg(*key)?,
                            vtag: info.vtag,
                            dst: *dst,
                        },
                        SpecBackend::HashSet | SpecBackend::SoaSeq => return None,
                    };
                    self.write(*dst, SpecVal::Reg(info.vtag));
                    kind
                }
            }
            BulkOp::Proj { base, field, dst } => {
                let Some(&Some(SpecVal::Row { grp, index })) = self.abs.get(*base as usize)
                else {
                    return None;
                };
                let vtag = self.soa_field_tag(grp, *field)?;
                self.write(*dst, SpecVal::Reg(vtag));
                SpecKind::SoaField {
                    grp,
                    index,
                    field: *field,
                    vtag,
                    dst: *dst,
                }
            }
            BulkOp::Write {
                coll,
                key,
                val,
                dst,
            } => {
                let (grp, info) = self.read_coll(*coll)?;
                let vtag = self.read_reg(*val)?;
                let kind = match info.backend {
                    SpecBackend::Seq => SpecKind::SeqWrite {
                        grp,
                        index: self.dense_key_reg(*key)?,
                        val: *val,
                        vtag,
                    },
                    SpecBackend::HashMap => SpecKind::MapWrite {
                        grp,
                        key: *key,
                        ktag: self.read_reg(*key)?,
                        val: *val,
                        vtag,
                    },
                    SpecBackend::BitMap => SpecKind::DenseWrite {
                        grp,
                        key: self.dense_key_reg(*key)?,
                        val: *val,
                        vtag,
                    },
                    SpecBackend::HashSet | SpecBackend::SoaSeq => return None,
                };
                self.write(*dst, SpecVal::Coll(grp));
                kind
            }
            BulkOp::Has { coll, key, dst } => {
                let (grp, info) = self.read_coll(*coll)?;
                let kind = match info.backend {
                    SpecBackend::HashSet => SpecKind::SetHas {
                        grp,
                        key: *key,
                        tag: self.read_reg(*key)?,
                        dst: *dst,
                    },
                    SpecBackend::HashMap => SpecKind::MapHas {
                        grp,
                        key: *key,
                        ktag: self.read_reg(*key)?,
                        dst: *dst,
                    },
                    SpecBackend::BitMap => SpecKind::DenseHas {
                        grp,
                        key: self.dense_key_reg(*key)?,
                        dst: *dst,
                    },
                    SpecBackend::Seq | SpecBackend::SoaSeq => return None,
                };
                self.write(*dst, SpecVal::Reg(SpecTag::Bool));
                kind
            }
            BulkOp::InsertSet { coll, elem, dst } => {
                let (grp, info) = self.read_coll(*coll)?;
                if info.backend != SpecBackend::HashSet {
                    return None;
                }
                let tag = self.read_reg(*elem)?;
                self.write(*dst, SpecVal::Coll(grp));
                SpecKind::SetInsert {
                    grp,
                    elem: *elem,
                    tag,
                }
            }
            BulkOp::InsertMap {
                coll,
                key,
                val_ty,
                dst,
            } => {
                let (grp, info) = self.read_coll(*coll)?;
                let vtag = spec_tag(&d.types[*val_ty as usize])?;
                let kind = match info.backend {
                    SpecBackend::HashMap => SpecKind::MapInsert {
                        grp,
                        key: *key,
                        ktag: self.read_reg(*key)?,
                        vtag,
                    },
                    SpecBackend::BitMap => SpecKind::DenseInsert {
                        grp,
                        key: self.dense_key_reg(*key)?,
                        vtag,
                    },
                    _ => return None,
                };
                self.write(*dst, SpecVal::Coll(grp));
                kind
            }
            BulkOp::InsertSeq {
                coll,
                index,
                val,
                dst,
            } => {
                let (grp, info) = self.read_coll(*coll)?;
                if info.backend != SpecBackend::Seq {
                    return None;
                }
                let index = self.dense_key_reg(*index)?;
                let vtag = self.read_reg(*val)?;
                self.write(*dst, SpecVal::Coll(grp));
                SpecKind::SeqInsert {
                    grp,
                    index,
                    val: *val,
                    vtag,
                }
            }
            BulkOp::Remove { coll, key, dst } => {
                let (grp, info) = self.read_coll(*coll)?;
                let kind = match info.backend {
                    SpecBackend::HashSet => SpecKind::SetRemove {
                        grp,
                        key: *key,
                        tag: self.read_reg(*key)?,
                    },
                    SpecBackend::HashMap => SpecKind::MapRemove {
                        grp,
                        key: *key,
                        ktag: self.read_reg(*key)?,
                    },
                    SpecBackend::BitMap => SpecKind::DenseRemove {
                        grp,
                        key: self.dense_key_reg(*key)?,
                    },
                    SpecBackend::Seq | SpecBackend::SoaSeq => return None,
                };
                self.write(*dst, SpecVal::Coll(grp));
                kind
            }
            BulkOp::Size { coll, dst } => {
                let (grp, _) = self.read_coll(*coll)?;
                self.write(*dst, SpecVal::Reg(SpecTag::U64));
                SpecKind::Size { grp, dst: *dst }
            }
            BulkOp::If {
                cond,
                then_ops,
                then_srcs,
                else_ops,
                else_srcs,
                dsts,
            } => {
                if self.read_reg(*cond)? != SpecTag::Bool {
                    return None;
                }
                // SSA single assignment makes the arm-local dsts
                // disjoint between arms, so both arms can be compiled
                // in one shared abstract state.
                let (then_ops, then_copies) = self.compile_arm(d, then_ops, then_srcs, dsts)?;
                let (else_ops, else_copies) = self.compile_arm(d, else_ops, else_srcs, dsts)?;
                // The branch dst takes the taken arm's yield; both
                // arms must agree on what that abstractly is.
                for (j, &dst) in dsts.iter().enumerate() {
                    let tv = self.read(then_srcs[j])?;
                    let ev = self.read(else_srcs[j])?;
                    if tv != ev {
                        return None;
                    }
                    self.write(dst, tv);
                }
                SpecKind::If {
                    cond: *cond,
                    then_ops,
                    then_copies,
                    else_ops,
                    else_copies,
                }
            }
        };
        Some(SpecOp { site: p.site, kind })
    }

    /// Compiles one branch arm plus its `(dst, src)` register copies
    /// (collection yields need no copy — the group already names the
    /// handle).
    fn compile_arm(
        &mut self,
        d: &DFunc,
        ops: &[PlanOp],
        srcs: &[u32],
        dsts: &[u32],
    ) -> Option<(Box<[SpecOp]>, Box<[(u32, u32)]>)> {
        let compiled = ops
            .iter()
            .map(|q| self.compile(d, q))
            .collect::<Option<Vec<_>>>()?;
        let mut copies = Vec::new();
        for (&s, &t) in srcs.iter().zip(dsts.iter()) {
            if let SpecVal::Reg(_) = self.read(s)? {
                if s != t {
                    copies.push((t, s));
                }
            }
        }
        Some((compiled.into_boxed_slice(), copies.into_boxed_slice()))
    }
}

/// Builds the register-specialized twin of a `forrange` plan, or
/// `None` when any component, operand type, or yield shape needs the
/// general boxed machinery. `args` are the body region's argument
/// slots (`args[0]` is the induction variable); `scratch_end` is one
/// past the highest slot the plan touches (projection scratch slots
/// live beyond the function's SSA frame).
fn specialize_forrange(
    f: &Function,
    d: &DFunc,
    plan: &BulkPlan,
    args: &[u32],
    scratch_end: u32,
) -> Option<Box<SpecPlan>> {
    let mut b = SpecBuilder {
        f,
        abs: vec![None; scratch_end.max(d.frame_size) as usize],
        scalar_inputs: Vec::new(),
        coll_inputs: Vec::new(),
        groups: Vec::new(),
    };
    // The induction variable is defined by the loop itself, not loaded
    // from the frame.
    b.abs[args[0] as usize] = Some(SpecVal::Reg(SpecTag::U64));
    let ops = plan
        .ops
        .iter()
        .map(|p| b.compile(d, p))
        .collect::<Option<Box<[SpecOp]>>>()?;
    let mut scalar_yields = Vec::new();
    for (&s, &a) in plan.yield_srcs.iter().zip(args[1..].iter()) {
        let v = b.read(s)?;
        match (v, b.abs[a as usize]) {
            // A carried handle must thread back to itself: yielding a
            // *different* group would rebind the slot to a handle the
            // entry-time resolution never saw.
            (_, Some(prev)) if prev != v => return None,
            // A recorded row position must not outlive the iteration
            // that read it.
            (SpecVal::Row { .. }, _) => return None,
            (SpecVal::Reg(_), _) => {
                if s != a {
                    scalar_yields.push((a, s));
                }
            }
            (SpecVal::Coll(_), _) => {}
        }
        b.abs[a as usize] = Some(v);
    }
    let writebacks = args[1..]
        .iter()
        .map(|&a| Some((a, b.abs[a as usize]?)))
        .collect::<Option<Box<[(u32, SpecVal)]>>>()?;
    Some(Box::new(SpecPlan {
        loop_var: args[0],
        scalar_inputs: b.scalar_inputs.into_boxed_slice(),
        coll_inputs: b.coll_inputs.into_boxed_slice(),
        ops,
        scalar_yields: scalar_yields.into_boxed_slice(),
        writebacks,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;

    #[test]
    fn decode_keeps_region_indices_and_frame_slots() {
        let m = parse_module(
            "fn @main() -> void {\n  %s = new Set<u64>\n  %x = const 1u64\n  %s1 = insert %s, %x\n  %h = has %s1, %x\n  print %h\n  ret\n}\n",
        )
        .expect("parses");
        let d = DecodedModule::decode(&m);
        let f = &d.funcs[0];
        assert_eq!(f.regions.len(), m.funcs[0].regions.len());
        assert_eq!(f.code.len(), m.funcs[0].insts.len());
        assert_eq!(f.frame_size as usize, m.funcs[0].values.len());
        // The insert against a set type decodes to the set flavor.
        assert!(f.code.iter().any(|i| matches!(i, DInst::InsertSet { .. })));
    }

    #[test]
    fn decode_precomputes_foreach_shape() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %zero = const 0u64
  %t = foreach %m carry(%zero) as (%k: u64, %v: u64, %acc: u64) {
    %a = add %acc, %v
    yield %a
  }
  print %t
  ret
}
"#,
        )
        .expect("parses");
        let d = DecodedModule::decode(&m);
        let fe = d.funcs[0]
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForEach {
                    binds_value,
                    uncoerce_u64,
                    ..
                } => Some((*binds_value, *uncoerce_u64)),
                _ => None,
            })
            .expect("foreach decoded");
        assert_eq!(fe, (true, true));
    }

    #[test]
    fn loop_fuse_classifies_projected_tuple_reduce() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %s = new Seq<(u64, u64)>
  %zero = const 0u64
  %sum = foreach %s carry(%zero) as (%i: u64, %t: (u64, u64), %acc: u64) {
    %a = add %acc, %t.1
    yield %a
  }
  print %sum
  ret
}
"#,
        )
        .expect("parses");
        ade_ir::verify::verify_module(&m).expect("verifies");
        let ssa_slots = m.funcs[0].values.len() as u32;
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let f = &d.funcs[0];
        let plan = f
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForEachBulk { plan, .. } => Some(plan),
                _ => None,
            })
            .expect("projected loop still bulk-compiles");
        assert!(matches!(
            plan.fast,
            Some(FastKind::Reduce {
                op: BinOp::Add,
                elem_first: false,
                ..
            })
        ));
        let proj = plan.fast_proj.expect("projection surfaced");
        assert_eq!((proj.elem, proj.other), (1, None));
        // The projection's scratch slot lives past the SSA frame.
        assert!(
            f.frame_size > ssa_slots,
            "scratch slots grow the frame ({} vs {ssa_slots})",
            f.frame_size
        );
    }

    #[test]
    fn loop_fuse_classifies_filter_on_one_field_folding_another() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %s = new Seq<(u64, u64)>
  %zero = const 0u64
  %k = const 10u64
  %sum = foreach %s carry(%zero) as (%i: u64, %t: (u64, u64), %acc: u64) {
    %c = lt %t.0, %k
    %out = if %c then {
      %a = add %acc, %t.1
      yield %a
    } else {
      yield %acc
    }
    yield %out
  }
  print %sum
  ret
}
"#,
        )
        .expect("parses");
        ade_ir::verify::verify_module(&m).expect("verifies");
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let plan = d.funcs[0]
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForEachBulk { plan, .. } => Some(plan),
                _ => None,
            })
            .expect("bulk-compiles");
        assert!(matches!(
            plan.fast,
            Some(FastKind::FilterReduce {
                acc_on_true: true,
                bin_elem: true,
                ..
            })
        ));
        let proj = plan.fast_proj.expect("projection surfaced");
        assert_eq!((proj.elem, proj.other), (0, Some(1)));
    }

    #[test]
    fn forrange_specializes_columnar_reads() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %s = new Seq<(u64, u64)>
  %zero = const 0u64
  %n = size %s
  %sum = forrange %zero, %n carry(%zero) as (%i: u64, %acc: u64) {
    %t = read %s, %i
    %a = add %acc, %t.0
    yield %a
  }
  print %sum
  ret
}
"#,
        )
        .expect("parses");
        ade_ir::verify::verify_module(&m).expect("verifies");
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let plan = d.funcs[0]
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForRangeBulk { plan, .. } => Some(plan),
                _ => None,
            })
            .expect("bulk-compiles");
        let spec = plan.spec.as_ref().expect("tuple reads specialize");
        assert!(matches!(
            spec.coll_inputs.as_ref(),
            [(_, SpecBackend::SoaSeq)]
        ));
        let kinds: Vec<&SpecKind> = spec.ops.iter().map(|o| &o.kind).collect();
        assert!(matches!(kinds[0], SpecKind::SoaRead { .. }));
        assert!(matches!(
            kinds[1],
            SpecKind::SoaField {
                field: 0,
                vtag: SpecTag::U64,
                ..
            }
        ));
    }

    #[test]
    fn string_consts_are_pooled_once() {
        let m =
            parse_module("fn @main() -> void {\n  %a = const \"hello\"\n  print %a\n  ret\n}\n")
                .expect("parses");
        let d = DecodedModule::decode(&m);
        assert_eq!(d.funcs[0].consts.len(), 1);
        assert_eq!(d.funcs[0].consts[0], Value::Str("hello".into()));
    }

    const RMW: &str = r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %k = const 3u64
  %m1 = insert %m, %k
  %one = const 1u64
  %v = read %m1, %k
  %v1 = add %v, %one
  %m2 = write %m1, %k, %v1
  print %v1
  ret
}
"#;

    #[test]
    fn peephole_fuses_rmw_triple_in_place() {
        let m = parse_module(RMW).expect("parses");
        let unfused = DecodedModule::decode(&m);
        let fused = DecodedModule::decode_with(&m, &DecodeOptions { fuse: true, loop_fuse: false });
        let (u, f) = (&unfused.funcs[0], &fused.funcs[0]);
        // Head replacement: code length, region boundaries and the
        // padding slots' original instructions are all preserved.
        assert_eq!(u.code.len(), f.code.len());
        assert!(matches!(u.code[4], DInst::Read { .. }));
        assert!(matches!(f.code[4], DInst::FusedReadBinWrite { .. }));
        assert_eq!(f.code[4].advance(), 3);
        assert!(
            matches!(f.code[5], DInst::Bin { .. }),
            "padding keeps the original"
        );
        assert!(
            matches!(f.code[6], DInst::Write { .. }),
            "padding keeps the original"
        );
        assert!(matches!(f.code[7], DInst::Print { .. }));
    }

    #[test]
    fn peephole_fuses_membership_branch_and_scalar_runs() {
        // The histogram body: `has` feeding `if`, then a const+add run.
        let m = parse_module(
            r#"
fn @main() -> void {
  %h = new Map<u64, u64>
  %k = const 3u64
  %h0 = insert %h, %k
  %cond = has %h0, %k
  %h2, %freq = if %cond then {
    %f = read %h0, %k
    yield %h0, %f
  } else {
    %zero = const 0u64
    yield %h0, %zero
  }
  %one = const 1u64
  %freq1 = add %freq, %one
  %h3 = write %h2, %k, %freq1
  print %freq1
  ret
}
"#,
        )
        .expect("parses");
        let fused = DecodedModule::decode_with(&m, &DecodeOptions { fuse: true, loop_fuse: false });
        let f = &fused.funcs[0];
        assert!(f.code.iter().any(|i| matches!(i, DInst::FusedHasIf { .. })));
        let run = f
            .code
            .iter()
            .find_map(|i| match i {
                DInst::FusedScalars { uops } => Some(uops.len()),
                _ => None,
            })
            .expect("const+add fused as a scalar run");
        assert_eq!(run, 2);
    }

    #[test]
    fn fuse_rewrites_slot_only_loop_yields_to_direct() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %lo = const 0u64
  %hi = const 4u64
  %zero = const 0u64
  %acc = forrange %lo, %hi carry(%zero) as (%i: u64, %a: u64) {
    %n = add %a, %i
    yield %n
  }
  print %acc
  ret
}
"#,
        )
        .expect("parses");
        // Plain decode keeps the buffered yield; the fuse peephole
        // rewrites it to copy straight into the body's carried slot.
        let plain = DecodedModule::decode(&m);
        assert!(plain.funcs[0]
            .code
            .iter()
            .all(|i| !matches!(i, DInst::YieldDirect { .. })));
        let fused = DecodedModule::decode_with(&m, &DecodeOptions { fuse: true, loop_fuse: false });
        let f = &fused.funcs[0];
        let body = f
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForRange { body, .. } => Some(*body),
                _ => None,
            })
            .expect("forrange decoded");
        let region = &f.regions[body as usize];
        let term = region.end as usize - 1;
        let DInst::YieldDirect { srcs, dsts } = &f.code[term] else {
            panic!("loop yield rewritten to YieldDirect");
        };
        assert_eq!(srcs.len(), 1);
        assert_eq!(dsts.as_ref(), &region.args[1..]);
    }

    #[test]
    fn peephole_is_off_for_plain_decode() {
        let m = parse_module(RMW).expect("parses");
        let d = DecodedModule::decode(&m);
        assert!(
            !d.funcs[0].code.iter().any(|i| i.advance() != 1),
            "decode() must stay purely structural"
        );
    }

    const CHURN_LOOP: &str = r#"
fn @main() -> void {
  %s = new Set<u64>
  %lo = const 0u64
  %hi = const 100u64
  %sf = forrange %lo, %hi carry(%s) as (%i: u64, %c: Set<u64>) {
    %seven = const 7u64
    %k = mul %i, %seven
    %c1 = insert %c, %k
    yield %c1
  }
  %n = size %sf
  print %n
  ret
}
"#;

    #[test]
    fn loop_fuse_compiles_forrange_bulk_with_spec_twin() {
        let m = parse_module(CHURN_LOOP).expect("parses");
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let plan = d.funcs[0]
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForRangeBulk { plan, .. } => Some(plan),
                _ => None,
            })
            .expect("scalar forrange body compiles to a bulk header");
        let spec = plan
            .spec
            .as_ref()
            .expect("all-scalar hash-set body register-specializes");
        assert_eq!(spec.coll_inputs.len(), 1);
        assert!(matches!(spec.coll_inputs[0].1, SpecBackend::HashSet));
    }

    #[test]
    fn spec_twin_is_absent_for_non_scalar_payloads() {
        // A `str` element can't live in the u64 register file; the
        // generic bulk plan still applies, the specialized twin must not.
        let m = parse_module(
            r#"
fn @main() -> void {
  %s = new Set<str>
  %lo = const 0u64
  %hi = const 100u64
  %k = const "tag"
  %sf = forrange %lo, %hi carry(%s) as (%i: u64, %c: Set<str>) {
    %c1 = insert %c, %k
    yield %c1
  }
  %n = size %sf
  print %n
  ret
}
"#,
        )
        .expect("parses");
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let plan = d.funcs[0]
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForRangeBulk { plan, .. } => Some(plan),
                _ => None,
            })
            .expect("boxed-payload body still gets the generic bulk plan");
        assert!(plan.spec.is_none(), "str payloads must not specialize");
    }

    #[test]
    fn plain_decode_has_no_bulk_headers() {
        let m = parse_module(CHURN_LOOP).expect("parses");
        let d = DecodedModule::decode(&m);
        assert!(
            d.funcs[0]
                .code
                .iter()
                .all(|i| !matches!(i, DInst::ForRangeBulk { .. } | DInst::ForEachBulk { .. })),
            "decode() must not run the loop-fusion tier"
        );
    }
}
