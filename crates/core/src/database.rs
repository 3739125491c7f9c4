//! The indexed fact database, stored columnar.
//!
//! Relations and lattice keys are stored struct-of-arrays: one `Vec<u64>`
//! of *encoded* slots per column, where a slot packs small values inline
//! (unit, booleans, up-to-61-bit integers, interned string symbols) and
//! spills everything else (tags, tuples, sets, huge integers) into a
//! per-database deduplicated side-table. Encoded equality is value
//! equality, so membership tests, index probes, and join keys compare
//! single machine words instead of walking boxed [`Value`] trees.
//!
//! Alongside the encoded columns each predicate keeps a flat row-major
//! arena of decoded [`Value`]s — the borrowed `&[Value]` view the public
//! iterators, the reference evaluator, and the persistence layer read.
//! Membership is a [`RowSet`]: an open-addressing set of `u32` row ids
//! whose hashes and equality read the encoded columns, so a row is stored
//! once and *referenced* by the set — not duplicated into it.
//!
//! `lat` predicates are stored as *compact* cell maps from key tuples
//! (the first `n-1` columns, §3.2's cell partition) to a single lattice
//! element, so the per-cell least-upper-bound compaction of the immediate
//! consequence operator is a constant-time map update. Cell *values* stay
//! boxed: they are never join keys, and the lattice operations consume
//! `&Value` anyway.

use crate::ast::PredKind;
use crate::fxhash::{hash_slots, FxHashMap};
use crate::ops::OpsPanic;
use crate::program::Program;
use crate::symbol;
use crate::verify::Violation;
use crate::{LatticeOps, PredId, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Why an insert failed: the user's lattice operations either panicked or
/// were caught violating a lattice law by the runtime sentinels (§7).
#[derive(Clone, Debug)]
pub(crate) enum InsertFault {
    /// A `leq`/`lub` closure panicked.
    Panic(OpsPanic),
    /// A runtime safety sentinel tripped.
    Safety(Violation),
}

impl From<OpsPanic> for InsertFault {
    fn from(p: OpsPanic) -> InsertFault {
        InsertFault::Panic(p)
    }
}

/// A materialized tuple, shared. Deltas, ascent telemetry, and the
/// provenance log alias rows without copying; the store itself keeps
/// tuples in flat columns instead.
pub(crate) type Row = Arc<[Value]>;

/// Outcome of inserting one derived fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum InsertOutcome {
    /// The fact was already present (or was a lattice `⊥`): no change.
    Unchanged,
    /// A new relational tuple was added.
    NewRow(Row),
    /// A lattice cell strictly increased; carries the key and the *new*
    /// cell value — exactly the paper's `∆P` element `ga(P', S)` (§3.7).
    LatIncrease(Row, Value),
}

// ---------------------------------------------------------------------------
// Slot encoding
// ---------------------------------------------------------------------------

const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const TAG_UNIT: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_INT: u64 = 2;
const TAG_SYM: u64 = 3;
const TAG_SPILL: u64 = 4;

/// Integers representable inline in a slot: 61 bits, sign-extended on
/// decode. Anything outside spills.
const INT_INLINE_MIN: i64 = -(1 << 60);
const INT_INLINE_MAX: i64 = (1 << 60) - 1;

#[inline]
fn pack(tag: u64, payload: u64) -> u64 {
    (payload << TAG_BITS) | tag
}

/// The per-database side-table for values a slot cannot hold inline.
/// Deduplicated, so spill indices are canonical: two equal values encode
/// to the same slot, which is what makes encoded equality value equality.
#[derive(Clone, Debug, Default)]
pub(crate) struct SpillTable {
    values: Vec<Value>,
    dedup: FxHashMap<Value, u32>,
}

impl SpillTable {
    fn intern(&mut self, v: &Value) -> u32 {
        if let Some(&idx) = self.dedup.get(v) {
            return idx;
        }
        let idx = u32::try_from(self.values.len()).expect("fewer than 2^32 distinct spill values");
        self.values.push(v.clone());
        self.dedup.insert(v.clone(), idx);
        idx
    }

    fn lookup(&self, v: &Value) -> Option<u32> {
        self.dedup.get(v).copied()
    }

    pub(crate) fn get(&self, idx: u32) -> &Value {
        &self.values[idx as usize]
    }
}

/// Encodes `v` into a slot, interning strings and spilling structured
/// values as needed. Insert-path only: mutates the spill table.
pub(crate) fn encode_mut(v: &Value, spill: &mut SpillTable) -> u64 {
    match v {
        Value::Unit => pack(TAG_UNIT, 0),
        Value::Bool(b) => pack(TAG_BOOL, *b as u64),
        Value::Int(n) if (INT_INLINE_MIN..=INT_INLINE_MAX).contains(n) => pack(TAG_INT, *n as u64),
        Value::Str(s) => pack(TAG_SYM, symbol::intern(s).0 as u64),
        other => pack(TAG_SPILL, spill.intern(other) as u64),
    }
}

/// Read-only encoding for probe keys and comparisons during evaluation.
/// `None` means the value is not present in the symbol/spill tables — and
/// therefore cannot equal any *stored* slot, so callers treat it as
/// matching nothing.
pub(crate) fn try_encode(v: &Value, spill: &SpillTable) -> Option<u64> {
    match v {
        Value::Unit => Some(pack(TAG_UNIT, 0)),
        Value::Bool(b) => Some(pack(TAG_BOOL, *b as u64)),
        Value::Int(n) if (INT_INLINE_MIN..=INT_INLINE_MAX).contains(n) => {
            Some(pack(TAG_INT, *n as u64))
        }
        Value::Str(s) => Some(pack(TAG_SYM, symbol::lookup(s)? as u64)),
        other => Some(pack(TAG_SPILL, spill.lookup(other)? as u64)),
    }
}

/// Decodes a slot back into a [`Value`].
pub(crate) fn decode(slot: u64, spill: &SpillTable) -> Value {
    match slot & TAG_MASK {
        TAG_UNIT => Value::Unit,
        TAG_BOOL => Value::Bool(slot >> TAG_BITS != 0),
        TAG_INT => Value::Int((slot as i64) >> TAG_BITS),
        TAG_SYM => Value::Str(symbol::resolve((slot >> TAG_BITS) as u32)),
        TAG_SPILL => spill.get((slot >> TAG_BITS) as u32).clone(),
        _ => unreachable!("unused slot tag"),
    }
}

// ---------------------------------------------------------------------------
// Row-id membership set
// ---------------------------------------------------------------------------

/// An open-addressing hash set of `u32` row ids. It stores *no* row data:
/// hashing and equality read the owning predicate's encoded columns, so
/// membership is an index into the columnar store rather than a second
/// copy of every tuple (the old `HashMap<Row, ()>`).
#[derive(Clone, Debug, Default)]
pub(crate) struct RowSet {
    /// Power-of-two slot array; `u32::MAX` marks an empty slot.
    slots: Vec<u32>,
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl RowSet {
    /// Finds the id of the row with `hash` for which `eq` holds.
    #[inline]
    fn lookup(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let id = self.slots[i];
            if id == EMPTY_SLOT {
                return None;
            }
            if eq(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts an id known to be absent, growing (and rehashing via
    /// `hash_of`) at 7/8 load.
    fn insert_new(&mut self, hash: u64, id: u32, hash_of: impl Fn(u32) -> u64) {
        if self.slots.len() < 8 || self.len + 1 > self.slots.len() / 8 * 7 {
            let cap = (self.slots.len() * 2).max(8);
            let mut grown = vec![EMPTY_SLOT; cap];
            let mask = cap - 1;
            for &old in &self.slots {
                if old == EMPTY_SLOT {
                    continue;
                }
                let mut i = (hash_of(old) as usize) & mask;
                while grown[i] != EMPTY_SLOT {
                    i = (i + 1) & mask;
                }
                grown[i] = old;
            }
            self.slots = grown;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.slots[i] != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
        self.len += 1;
    }
}

/// Hash indexes keyed by column set; values are row ids grouped by the
/// encoded key slots of those columns.
type Indexes = HashMap<Vec<usize>, FxHashMap<Box<[u64]>, Vec<u32>>>;

// ---------------------------------------------------------------------------
// Relations
// ---------------------------------------------------------------------------

/// Storage for one relational predicate.
#[derive(Clone, Debug, Default)]
pub(crate) struct RelationData {
    arity: usize,
    len: usize,
    /// Struct-of-arrays encoded columns: `cols[c][row]`.
    cols: Vec<Vec<u64>>,
    /// Row-major decoded arena: row `i` is `rows_flat[i*arity..][..arity]`.
    /// This is the borrowed `&[Value]` read view; the encoded columns
    /// above are the join kernels' working representation.
    rows_flat: Vec<Value>,
    set: RowSet,
    indexes: Indexes,
    /// Reused encode buffer for the insert path.
    scratch: Vec<u64>,
}

impl RelationData {
    pub(crate) fn new(arity: usize) -> RelationData {
        RelationData {
            arity,
            cols: vec![Vec::new(); arity],
            ..RelationData::default()
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn row(&self, i: u32) -> &[Value] {
        let start = i as usize * self.arity;
        &self.rows_flat[start..start + self.arity]
    }

    /// Iterates the stored tuples in insertion order.
    pub(crate) fn rows(&self) -> RowsIter<'_> {
        RowsIter {
            rel: self,
            range: 0..self.len as u32,
        }
    }

    /// The encoded slots of one column (kernel access).
    #[inline]
    pub(crate) fn col(&self, c: usize) -> &[u64] {
        &self.cols[c]
    }

    #[inline]
    fn row_eq_encoded(&self, id: u32, enc: &[u64]) -> bool {
        self.cols
            .iter()
            .zip(enc)
            .all(|(col, &e)| col[id as usize] == e)
    }

    pub(crate) fn contains(&self, row: &[Value], spill: &SpillTable) -> bool {
        if row.len() != self.arity {
            return false;
        }
        let mut enc = Vec::with_capacity(row.len());
        for v in row {
            match try_encode(v, spill) {
                Some(e) => enc.push(e),
                None => return false,
            }
        }
        self.contains_encoded(&enc)
    }

    pub(crate) fn contains_encoded(&self, enc: &[u64]) -> bool {
        self.set
            .lookup(hash_slots(enc), |id| self.row_eq_encoded(id, enc))
            .is_some()
    }

    /// Inserts a tuple; returns the new row id, or `None` when the tuple
    /// was already stored.
    fn insert(
        &mut self,
        tuple: Vec<Value>,
        spill: &mut SpillTable,
    ) -> Result<Option<u32>, InsertFault> {
        debug_assert_eq!(tuple.len(), self.arity);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for v in &tuple {
            scratch.push(encode_mut(v, spill));
        }
        let hash = hash_slots(&scratch);
        if self
            .set
            .lookup(hash, |id| self.row_eq_encoded(id, &scratch))
            .is_some()
        {
            self.scratch = scratch;
            return Ok(None);
        }
        // `u32::MAX` is the row-set's empty sentinel, so the last usable
        // id is `u32::MAX - 1`: a checked bound instead of the silent
        // `len as u32` truncation that would corrupt every index.
        if self.len >= u32::MAX as usize {
            self.scratch = scratch;
            return Err(InsertFault::Safety(Violation::StoreFull(self.len as u64)));
        }
        let id = self.len as u32;
        for (cols, index) in &mut self.indexes {
            let key: Box<[u64]> = cols.iter().map(|&c| scratch[c]).collect();
            index.entry(key).or_default().push(id);
        }
        for (c, &e) in scratch.iter().enumerate() {
            self.cols[c].push(e);
        }
        self.rows_flat.extend(tuple);
        self.len += 1;
        {
            let cols = &self.cols;
            let arity = self.arity;
            self.set.insert_new(hash, id, |rid| {
                let mut h = crate::fxhash::FxHasher::default();
                use std::hash::Hasher;
                for col in cols {
                    h.write_u64(col[rid as usize]);
                }
                h.write_u64(arity as u64);
                h.finish()
            });
        }
        self.scratch = scratch;
        Ok(Some(id))
    }

    pub(crate) fn register_index(&mut self, cols: Vec<usize>) {
        self.indexes.entry(cols).or_default();
    }

    pub(crate) fn has_index(&self, cols: &[usize]) -> bool {
        self.indexes.contains_key(cols)
    }

    /// Index probe with a pre-encoded key (kernel access).
    pub(crate) fn probe_encoded(&self, cols: &[usize], key: &[u64]) -> Option<&[u32]> {
        self.indexes
            .get(cols)
            .map(|index| index.get(key).map_or(&[][..], |v| &v[..]))
    }
}

/// Iterator over a relation's tuples, in insertion order.
#[derive(Clone, Debug)]
pub(crate) struct RowsIter<'a> {
    rel: &'a RelationData,
    range: std::ops::Range<u32>,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        self.range.next().map(|i| self.rel.row(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

// ---------------------------------------------------------------------------
// Lattices
// ---------------------------------------------------------------------------

/// Per-cell ascent counters, kept only when ascent telemetry is enabled
/// (see [`crate::trace::AscentConfig`]). Keyed by cell (key-row) id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AscentEntry {
    /// Joins absorbed by the cell (including no-change joins).
    pub(crate) joins: u64,
    /// Strict increases: the cell's height in its ascending chain.
    pub(crate) height: u64,
    /// Whether an [`crate::trace::AscentWarning`] already fired for this
    /// cell (each cell warns at most once per solve).
    pub(crate) warned: bool,
}

/// Updates a cell's ascent counters after a join, when telemetry is on.
fn note_ascent(ascent: &mut Option<FxHashMap<u32, AscentEntry>>, id: u32, increased: bool) {
    let Some(map) = ascent else {
        return;
    };
    let entry = map.entry(id).or_default();
    entry.joins += 1;
    if increased {
        entry.height += 1;
    }
}

/// Storage for one lattice predicate: the compact cell map, with the key
/// tuples stored columnar exactly like a relation and the cell elements
/// boxed per key id.
#[derive(Clone, Debug)]
pub(crate) struct LatticeData {
    ops: LatticeOps,
    key_arity: usize,
    len: usize,
    /// Struct-of-arrays encoded key columns: `key_cols[c][id]`.
    key_cols: Vec<Vec<u64>>,
    /// Row-major decoded key arena.
    keys_flat: Vec<Value>,
    /// The cell element per key id; never `⊥` (compactness).
    cells: Vec<Value>,
    set: RowSet,
    indexes: Indexes,
    /// `Some` only when ascent telemetry is enabled for this solve; the
    /// hot path then pays one map update per join, and nothing otherwise.
    ascent: Option<FxHashMap<u32, AscentEntry>>,
    scratch: Vec<u64>,
}

impl LatticeData {
    fn new(ops: LatticeOps, key_arity: usize) -> LatticeData {
        LatticeData {
            ops,
            key_arity,
            len: 0,
            key_cols: vec![Vec::new(); key_arity],
            keys_flat: Vec::new(),
            cells: Vec::new(),
            set: RowSet::default(),
            indexes: Indexes::default(),
            ascent: None,
            scratch: Vec::new(),
        }
    }

    pub(crate) fn ops(&self) -> &LatticeOps {
        &self.ops
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn key(&self, id: u32) -> &[Value] {
        let start = id as usize * self.key_arity;
        &self.keys_flat[start..start + self.key_arity]
    }

    #[inline]
    pub(crate) fn cell(&self, id: u32) -> &Value {
        &self.cells[id as usize]
    }

    /// The encoded slots of one key column (kernel access).
    #[inline]
    pub(crate) fn key_col(&self, c: usize) -> &[u64] {
        &self.key_cols[c]
    }

    #[inline]
    fn key_eq_encoded(&self, id: u32, enc: &[u64]) -> bool {
        self.key_cols
            .iter()
            .zip(enc)
            .all(|(col, &e)| col[id as usize] == e)
    }

    /// The id of an encoded key, if stored (kernel access).
    #[inline]
    pub(crate) fn id_of_encoded(&self, enc: &[u64]) -> Option<u32> {
        self.set
            .lookup(hash_slots(enc), |id| self.key_eq_encoded(id, enc))
    }

    fn key_id(&self, key: &[Value], spill: &SpillTable) -> Option<u32> {
        if key.len() != self.key_arity {
            return None;
        }
        let mut enc = Vec::with_capacity(key.len());
        for v in key {
            enc.push(try_encode(v, spill)?);
        }
        self.id_of_encoded(&enc)
    }

    pub(crate) fn value<'a>(&'a self, key: &[Value], spill: &SpillTable) -> Option<&'a Value> {
        self.key_id(key, spill).map(|id| self.cell(id))
    }

    /// Joins `value` into the cell at `key`. Returns the new cell value on
    /// strict increase.
    ///
    /// This is the one place every lattice element passes through, so the
    /// runtime safety sentinels live here: after each `lub` the result must
    /// be an upper bound of both operands (otherwise the cell could
    /// *decrease*, breaking monotonicity of the fixpoint iteration), and a
    /// fresh cell value must satisfy `leq(v, v)` (reflexivity — a `leq`
    /// that fails it would later mis-classify the cell as increased).
    fn join(
        &mut self,
        key: &[Value],
        value: Value,
        spill: &mut SpillTable,
    ) -> Result<Option<Value>, InsertFault> {
        if self.ops.is_bottom(&value) {
            return Ok(None);
        }
        debug_assert_eq!(key.len(), self.key_arity);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for v in key {
            scratch.push(encode_mut(v, spill));
        }
        let result = self.join_inner(&scratch, value, spill, Some(key));
        self.scratch = scratch;
        result
    }

    /// [`LatticeData::join`] with a pre-encoded key (kernel fast path).
    /// Every slot must be a canonical encoding already present in the
    /// store, so no interning happens; the decoded key columns are
    /// reconstructed from `spill` only when the cell is new.
    pub(crate) fn join_encoded(
        &mut self,
        enc: &[u64],
        value: Value,
        spill: &SpillTable,
    ) -> Result<Option<Value>, InsertFault> {
        if self.ops.is_bottom(&value) {
            return Ok(None);
        }
        debug_assert_eq!(enc.len(), self.key_arity);
        self.join_inner(enc, value, spill, None)
    }

    /// [`LatticeData::join_encoded`] addressed directly at a known cell:
    /// when the kernel already resolved the target row id, the hash
    /// lookup is skipped and the candidate joins `cells[id]` with the
    /// same `leq`/`lub`/sentinel sequence as every other insert.
    pub(crate) fn join_at(&mut self, id: u32, value: Value) -> Result<Option<Value>, InsertFault> {
        if self.ops.is_bottom(&value) {
            return Ok(None);
        }
        self.join_existing(id, value)
    }

    fn join_existing(&mut self, id: u32, value: Value) -> Result<Option<Value>, InsertFault> {
        let ops = &self.ops;
        let cell = &mut self.cells[id as usize];
        if ops.try_leq(&value, cell)? {
            note_ascent(&mut self.ascent, id, false);
            return Ok(None);
        }
        let joined = ops.try_lub(cell, &value)?;
        if !ops.try_leq(cell, &joined)? || !ops.try_leq(&value, &joined)? {
            return Err(InsertFault::Safety(Violation::LubNotUpperBound(
                cell.clone(),
                value,
            )));
        }
        *cell = joined.clone();
        note_ascent(&mut self.ascent, id, true);
        Ok(Some(joined))
    }

    fn join_inner(
        &mut self,
        enc: &[u64],
        value: Value,
        spill: &SpillTable,
        key: Option<&[Value]>,
    ) -> Result<Option<Value>, InsertFault> {
        let hash = hash_slots(enc);
        let existing = self.set.lookup(hash, |id| self.key_eq_encoded(id, enc));
        if let Some(id) = existing {
            return self.join_existing(id, value);
        }
        if !self.ops.try_leq(&value, &value)? {
            return Err(InsertFault::Safety(Violation::NotReflexive(value)));
        }
        if self.len >= u32::MAX as usize {
            return Err(InsertFault::Safety(Violation::StoreFull(self.len as u64)));
        }
        let id = self.len as u32;
        for (cols, index) in &mut self.indexes {
            let ikey: Box<[u64]> = cols.iter().map(|&c| enc[c]).collect();
            index.entry(ikey).or_default().push(id);
        }
        for (c, &e) in enc.iter().enumerate() {
            self.key_cols[c].push(e);
        }
        match key {
            Some(values) => self.keys_flat.extend(values.iter().cloned()),
            None => self.keys_flat.extend(enc.iter().map(|&e| decode(e, spill))),
        }
        self.cells.push(value.clone());
        self.len += 1;
        {
            let key_cols = &self.key_cols;
            let key_arity = self.key_arity;
            self.set.insert_new(hash, id, |rid| {
                let mut h = crate::fxhash::FxHasher::default();
                use std::hash::Hasher;
                for col in key_cols {
                    h.write_u64(col[rid as usize]);
                }
                h.write_u64(key_arity as u64);
                h.finish()
            });
        }
        note_ascent(&mut self.ascent, id, true);
        Ok(Some(value))
    }

    /// Turns on per-cell ascent counting (idempotent; counters that
    /// already exist — e.g. cloned from a prior resume — are kept).
    pub(crate) fn enable_ascent(&mut self) {
        if self.ascent.is_none() {
            self.ascent = Some(FxHashMap::default());
        }
    }

    pub(crate) fn register_index(&mut self, cols: Vec<usize>) {
        self.indexes.entry(cols).or_default();
    }

    pub(crate) fn has_index(&self, cols: &[usize]) -> bool {
        self.indexes.contains_key(cols)
    }

    /// Index probe with a pre-encoded key (kernel access).
    pub(crate) fn probe_encoded(&self, cols: &[usize], key: &[u64]) -> Option<&[u32]> {
        self.indexes
            .get(cols)
            .map(|index| index.get(key).map_or(&[][..], |v| &v[..]))
    }

    /// Iterates `(key, cell)` pairs in first-derived key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[Value], &Value)> {
        (0..self.len as u32).map(move |id| (self.key(id), self.cell(id)))
    }
}

/// Storage for one predicate.
#[derive(Clone, Debug)]
pub(crate) enum PredData {
    Rel(RelationData),
    Lat(LatticeData),
}

/// The fact database: one [`PredData`] per declared predicate, plus the
/// shared [`SpillTable`] all encoded columns reference (shared so slots
/// are comparable *across* predicates — a join key bound from one
/// predicate probes another's index as a plain `u64`).
///
/// Index-probe and scan-fallback counters live with the evaluator (the
/// solver's per-rule profile), not here: each rule evaluation counts its
/// own probes locally, so workers never contend on shared counters.
///
/// `Clone` is the warm-start path of [`crate::incremental`]: resuming a
/// solve clones the prior solution's database instead of re-deriving it.
/// The clone keeps the index configuration it was built with; a resume
/// under a different `use_indexes` setting stays correct because a
/// missing index is always a scan fallback, never a wrong probe.
#[derive(Clone, Debug)]
pub(crate) struct Database {
    preds: Vec<PredData>,
    spill: SpillTable,
}

impl Database {
    /// Creates an empty database for `program`, registering the requested
    /// indexes (unless `use_indexes` is false, the ablation configuration).
    pub(crate) fn for_program(program: &Program, use_indexes: bool) -> Database {
        let mut preds: Vec<PredData> = program
            .preds
            .iter()
            .map(|decl| match &decl.kind {
                PredKind::Relation => PredData::Rel(RelationData::new(decl.arity())),
                PredKind::Lattice(ops) => PredData::Lat(LatticeData::new(
                    ops.clone(),
                    decl.arity().saturating_sub(1),
                )),
            })
            .collect();
        if use_indexes {
            for (pred, col_sets) in &program.index_requests {
                for cols in col_sets {
                    match &mut preds[pred.0 as usize] {
                        PredData::Rel(r) => r.register_index(cols.clone()),
                        PredData::Lat(l) => l.register_index(cols.clone()),
                    }
                }
            }
        }
        Database {
            preds,
            spill: SpillTable::default(),
        }
    }

    pub(crate) fn pred(&self, pred: PredId) -> &PredData {
        &self.preds[pred.0 as usize]
    }

    /// The shared spill side-table (read access for probe encoding).
    pub(crate) fn spill(&self) -> &SpillTable {
        &self.spill
    }

    /// Encodes a literal at kernel-compile time, interning or spilling it
    /// so the encoding stays canonical as the store grows afterwards.
    pub(crate) fn encode_literal(&mut self, v: &Value) -> u64 {
        encode_mut(v, &mut self.spill)
    }

    /// Inserts a derived tuple, interpreting the last column as a lattice
    /// element for `lat` predicates. Fails when the lattice operations
    /// panic or trip a safety sentinel (see [`LatticeData::join`]), or
    /// when the predicate's `u32` row-id space is exhausted.
    pub(crate) fn insert(
        &mut self,
        pred: PredId,
        mut tuple: Vec<Value>,
    ) -> Result<InsertOutcome, InsertFault> {
        let spill = &mut self.spill;
        match &mut self.preds[pred.0 as usize] {
            PredData::Rel(r) => match r.insert(tuple, spill)? {
                Some(id) => Ok(InsertOutcome::NewRow(r.row(id).into())),
                None => Ok(InsertOutcome::Unchanged),
            },
            PredData::Lat(l) => {
                let value = tuple.pop().expect("lattice predicates have arity >= 1");
                match l.join(&tuple, value, spill)? {
                    Some(new_value) => Ok(InsertOutcome::LatIncrease(tuple.into(), new_value)),
                    None => Ok(InsertOutcome::Unchanged),
                }
            }
        }
    }

    /// [`Database::insert`] for a lattice head whose key is already in
    /// encoded form (the kernel fast path). The key slots must be
    /// canonical encodings produced against this database's spill table;
    /// the materialized key row in the outcome is rebuilt by decoding.
    pub(crate) fn insert_lat_encoded(
        &mut self,
        pred: PredId,
        key: &[u64],
        id: u32,
        value: Value,
    ) -> Result<InsertOutcome, InsertFault> {
        let spill = &self.spill;
        match &mut self.preds[pred.0 as usize] {
            PredData::Lat(l) => {
                let changed = if id == crate::kernel::NO_ID {
                    l.join_encoded(key, value, spill)?
                } else {
                    l.join_at(id, value)?
                };
                match changed {
                    Some(new_value) => {
                        let full: Vec<Value> = key.iter().map(|&e| decode(e, spill)).collect();
                        Ok(InsertOutcome::LatIncrease(full.into(), new_value))
                    }
                    None => Ok(InsertOutcome::Unchanged),
                }
            }
            PredData::Rel(_) => unreachable!("encoded inserts target lattice predicates"),
        }
    }

    /// Drops every predicate at or past `keep`, returning the truncated
    /// database. The demand rewrite appends its `demand$` relations after
    /// the original predicates, so truncating to the original count
    /// strips all rewrite machinery while preserving predicate ids.
    pub(crate) fn truncated(mut self, keep: usize) -> Database {
        self.preds.truncate(keep);
        self
    }

    /// Total number of stored facts (rows plus non-bottom lattice cells) —
    /// the database-size proxy reported by the benchmark tables.
    pub(crate) fn total_facts(&self) -> usize {
        self.preds
            .iter()
            .map(|p| match p {
                PredData::Rel(r) => r.len(),
                PredData::Lat(l) => l.len(),
            })
            .sum()
    }

    pub(crate) fn len_of(&self, pred: PredId) -> usize {
        match &self.preds[pred.0 as usize] {
            PredData::Rel(r) => r.len(),
            PredData::Lat(l) => l.len(),
        }
    }

    /// Turns on ascent counting for every lattice predicate.
    pub(crate) fn enable_ascent(&mut self) {
        for p in &mut self.preds {
            if let PredData::Lat(l) = p {
                l.enable_ascent();
            }
        }
    }

    /// Whether any lattice predicate is collecting ascent counters.
    pub(crate) fn ascent_enabled(&self) -> bool {
        self.preds
            .iter()
            .any(|p| matches!(p, PredData::Lat(l) if l.ascent.is_some()))
    }

    /// If the cell at `pred`/`key` has reached `threshold` strict
    /// increases and has not warned yet, marks it warned and returns its
    /// height. The solver turns this into an
    /// [`crate::trace::AscentWarning`].
    pub(crate) fn ascent_crossed(
        &mut self,
        pred: PredId,
        key: &[Value],
        threshold: u64,
    ) -> Option<u64> {
        let spill = &self.spill;
        let PredData::Lat(l) = &mut self.preds[pred.0 as usize] else {
            return None;
        };
        let id = {
            let l: &LatticeData = l;
            l.key_id(key, spill)?
        };
        let entry = l.ascent.as_mut()?.get_mut(&id)?;
        if entry.warned || entry.height < threshold {
            return None;
        }
        entry.warned = true;
        Some(entry.height)
    }

    /// Snapshot of every cell's ascent counters:
    /// `(predicate, key, joins, height, lattice-type name)`.
    pub(crate) fn ascent_cells(&self) -> Vec<(PredId, Row, u64, u64, &str)> {
        let mut out = Vec::new();
        for (i, p) in self.preds.iter().enumerate() {
            let PredData::Lat(l) = p else { continue };
            let Some(map) = &l.ascent else { continue };
            for (&id, e) in map {
                out.push((
                    PredId(i as u32),
                    l.key(id).into(),
                    e.joins,
                    e.height,
                    l.ops.name(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ValueLattice;
    use crate::ProgramBuilder;
    use flix_lattice::Parity;

    fn row(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&n| Value::Int(n)).collect()
    }

    fn rel_insert(r: &mut RelationData, spill: &mut SpillTable, vals: &[i64]) -> bool {
        r.insert(row(vals), spill).expect("no overflow").is_some()
    }

    #[test]
    fn relation_insert_dedups() {
        let mut spill = SpillTable::default();
        let mut r = RelationData::new(2);
        assert!(rel_insert(&mut r, &mut spill, &[1, 2]));
        assert!(!rel_insert(&mut r, &mut spill, &[1, 2]));
        assert!(rel_insert(&mut r, &mut spill, &[1, 3]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Value::Int(1), Value::Int(2)], &spill));
        assert_eq!(r.rows().count(), 2);
        assert_eq!(r.row(1), &[Value::Int(1), Value::Int(3)][..]);
    }

    #[test]
    fn relation_index_tracks_inserts() {
        let mut spill = SpillTable::default();
        let mut r = RelationData::new(2);
        r.register_index(vec![0]);
        rel_insert(&mut r, &mut spill, &[1, 2]);
        rel_insert(&mut r, &mut spill, &[1, 3]);
        rel_insert(&mut r, &mut spill, &[2, 4]);
        let key = |v: i64| [try_encode(&Value::Int(v), &spill).expect("inline int")];
        let hits = r.probe_encoded(&[0], &key(1)).expect("index exists");
        assert_eq!(hits.len(), 2);
        let misses = r.probe_encoded(&[0], &key(9)).expect("index exists");
        assert!(misses.is_empty());
        assert!(r.probe_encoded(&[1], &key(2)).is_none(), "no such index");
    }

    #[test]
    fn insert_refuses_when_row_ids_run_out() {
        let mut spill = SpillTable::default();
        let mut r = RelationData::new(1);
        // Simulate an at-capacity store; the guard fires before any
        // column is touched, so the inconsistent `len` is harmless here.
        r.len = u32::MAX as usize;
        let fault = r.insert(row(&[1]), &mut spill).unwrap_err();
        assert!(
            matches!(fault, InsertFault::Safety(Violation::StoreFull(_))),
            "got {fault:?}"
        );
    }

    #[test]
    fn encoding_round_trips_and_spills() {
        let mut spill = SpillTable::default();
        let values = [
            Value::Unit,
            Value::Bool(true),
            Value::Int(-7),
            Value::Int(i64::MAX), // too wide for an inline slot: spills
            Value::from("encoded-string"),
            Value::tag("Fin", Value::Int(3)),
            Value::tuple([Value::Int(1), Value::from("x")]),
            Value::set([Value::Int(1), Value::Int(2)]),
        ];
        for v in &values {
            let slot = encode_mut(v, &mut spill);
            assert_eq!(&decode(slot, &spill), v, "round trip of {v}");
            assert_eq!(try_encode(v, &spill), Some(slot), "canonical re-encode");
        }
        // Equal values encode to equal slots (dedup), distinct to distinct.
        let a = encode_mut(&Value::tag("Fin", Value::Int(3)), &mut spill);
        let b = encode_mut(&Value::tag("Fin", Value::Int(4)), &mut spill);
        assert_eq!(a, encode_mut(&Value::tag("Fin", Value::Int(3)), &mut spill));
        assert_ne!(a, b);
        // A value never stored is unencodable read-only.
        assert_eq!(
            try_encode(&Value::tag("Nowhere", Value::Unit), &spill),
            None
        );
    }

    fn join_ok(
        l: &mut LatticeData,
        spill: &mut SpillTable,
        key: &[Value],
        value: Value,
    ) -> Option<Value> {
        l.join(key, value, spill).expect("lattice ops are sound")
    }

    #[test]
    fn lattice_join_is_compact() {
        let mut spill = SpillTable::default();
        let mut l = LatticeData::new(crate::LatticeOps::of::<Parity>(), 1);
        let key = row(&[7]);
        assert_eq!(
            join_ok(&mut l, &mut spill, &key, Parity::Even.to_value()),
            Some(Parity::Even.to_value())
        );
        // Re-joining a smaller or equal element changes nothing.
        assert_eq!(
            join_ok(&mut l, &mut spill, &key, Parity::Even.to_value()),
            None
        );
        assert_eq!(
            join_ok(&mut l, &mut spill, &key, Parity::Bot.to_value()),
            None
        );
        // Joining an incomparable element lifts the single cell to Top.
        assert_eq!(
            join_ok(&mut l, &mut spill, &key, Parity::Odd.to_value()),
            Some(Parity::Top.to_value())
        );
        assert_eq!(l.len(), 1, "one cell per key: compactness");
        assert_eq!(l.value(&key, &spill), Some(&Parity::Top.to_value()));
    }

    #[test]
    fn bottom_is_never_stored() {
        let mut spill = SpillTable::default();
        let mut l = LatticeData::new(crate::LatticeOps::of::<Parity>(), 1);
        assert_eq!(
            join_ok(&mut l, &mut spill, &row(&[1]), Parity::Bot.to_value()),
            None
        );
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn join_catches_panicking_ops() {
        let ops = crate::LatticeOps::from_fns(
            "Evil",
            Value::Int(0),
            None,
            |_, _| panic!("leq exploded"),
            |a, _| a.clone(),
            |a, _| a.clone(),
        );
        let mut spill = SpillTable::default();
        let mut l = LatticeData::new(ops, 1);
        let fault = l.join(&row(&[1]), Value::Int(3), &mut spill).unwrap_err();
        match fault {
            InsertFault::Panic(p) => {
                assert_eq!(p.function, "Evil.leq");
                assert_eq!(p.payload, "leq exploded");
            }
            other => panic!("expected panic fault, got {other:?}"),
        }
        assert_eq!(l.len(), 0, "faulted insert leaves no cell behind");
    }

    #[test]
    fn join_detects_lub_not_upper_bound() {
        // A "lub" that always returns its left argument is not an upper
        // bound of an incomparable right argument.
        let ops = crate::LatticeOps::from_fns(
            "BadLub",
            Value::Int(i64::MIN),
            None,
            |a, b| a.as_int() <= b.as_int(),
            |a, _| a.clone(),
            |a, b| {
                if a.as_int() <= b.as_int() {
                    a.clone()
                } else {
                    b.clone()
                }
            },
        );
        let mut spill = SpillTable::default();
        let mut l = LatticeData::new(ops, 1);
        assert!(l
            .join(&row(&[1]), Value::Int(5), &mut spill)
            .expect("first join")
            .is_some());
        let fault = l.join(&row(&[1]), Value::Int(9), &mut spill).unwrap_err();
        assert!(
            matches!(
                fault,
                InsertFault::Safety(Violation::LubNotUpperBound(_, _))
            ),
            "got {fault:?}"
        );
    }

    #[test]
    fn join_detects_irreflexive_leq() {
        let ops = crate::LatticeOps::from_fns(
            "Irreflexive",
            Value::Int(i64::MIN),
            None,
            |a, b| a.as_int() < b.as_int(),
            |a, b| {
                if a.as_int() < b.as_int() {
                    b.clone()
                } else {
                    a.clone()
                }
            },
            |a, b| {
                if a.as_int() < b.as_int() {
                    a.clone()
                } else {
                    b.clone()
                }
            },
        );
        let mut spill = SpillTable::default();
        let mut l = LatticeData::new(ops, 1);
        let fault = l.join(&row(&[1]), Value::Int(5), &mut spill).unwrap_err();
        assert!(
            matches!(fault, InsertFault::Safety(Violation::NotReflexive(_))),
            "got {fault:?}"
        );
    }

    #[test]
    fn ascent_counters_track_joins_and_heights() {
        let mut spill = SpillTable::default();
        let mut l = LatticeData::new(crate::LatticeOps::of::<Parity>(), 1);
        l.enable_ascent();
        let key = row(&[7]);
        join_ok(&mut l, &mut spill, &key, Parity::Even.to_value()); // height 1
        join_ok(&mut l, &mut spill, &key, Parity::Even.to_value()); // no change
        join_ok(&mut l, &mut spill, &key, Parity::Odd.to_value()); // -> Top, height 2
        {
            let id = l.key_id(&key, &spill).expect("stored");
            let map = l.ascent.as_ref().expect("enabled");
            let entry = map.get(&id).expect("tracked");
            assert_eq!(entry.joins, 3);
            assert_eq!(entry.height, 2);
        }
        // Bottom joins are filtered before counting.
        join_ok(&mut l, &mut spill, &key, Parity::Bot.to_value());
        assert_eq!(l.ascent.as_ref().expect("enabled").len(), 1);
    }

    #[test]
    fn ascent_crossed_warns_once_per_cell() {
        let mut b = ProgramBuilder::new();
        let iv = b.lattice("IntVar", 2, crate::LatticeOps::of::<Parity>());
        let prog = b.build().expect("valid");
        let mut db = Database::for_program(&prog, true);
        db.enable_ascent();
        assert!(db.ascent_enabled());
        db.insert(iv, vec![Value::from("x"), Parity::Odd.to_value()])
            .expect("insert");
        db.insert(iv, vec![Value::from("x"), Parity::Even.to_value()])
            .expect("insert");
        let key = [Value::from("x")];
        assert_eq!(db.ascent_crossed(iv, &key, 3), None, "below threshold");
        assert_eq!(db.ascent_crossed(iv, &key, 2), Some(2));
        assert_eq!(db.ascent_crossed(iv, &key, 2), None, "warns once");
        let cells = db.ascent_cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].2, 2, "joins");
        assert_eq!(cells[0].3, 2, "height");
        assert_eq!(cells[0].4, "Parity");
    }

    #[test]
    fn database_insert_dispatches_by_kind() {
        let mut b = ProgramBuilder::new();
        let e = b.relation("E", 2);
        let iv = b.lattice("IntVar", 2, crate::LatticeOps::of::<Parity>());
        let prog = b.build().expect("valid");
        let mut db = Database::for_program(&prog, true);

        assert!(matches!(
            db.insert(e, vec![Value::Int(1), Value::Int(2)]),
            Ok(InsertOutcome::NewRow(_))
        ));
        assert!(matches!(
            db.insert(e, vec![Value::Int(1), Value::Int(2)]),
            Ok(InsertOutcome::Unchanged)
        ));
        assert!(matches!(
            db.insert(iv, vec![Value::from("x"), Parity::Odd.to_value()]),
            Ok(InsertOutcome::LatIncrease(_, _))
        ));
        assert_eq!(db.total_facts(), 2);
        assert_eq!(db.len_of(e), 1);
        assert_eq!(db.len_of(iv), 1);
    }

    #[test]
    fn cross_predicate_encodings_are_comparable() {
        // The same structured value inserted through two predicates must
        // land on the same spill slot, so kernels can join on it.
        let mut b = ProgramBuilder::new();
        let p = b.relation("P", 1);
        let q = b.relation("Q", 1);
        let prog = b.build().expect("valid");
        let mut db = Database::for_program(&prog, true);
        let v = Value::tag("Wrapped", Value::Int(1 << 62));
        db.insert(p, vec![v.clone()]).expect("insert");
        db.insert(q, vec![v.clone()]).expect("insert");
        let (PredData::Rel(rp), PredData::Rel(rq)) = (db.pred(p), db.pred(q)) else {
            unreachable!()
        };
        assert_eq!(rp.col(0)[0], rq.col(0)[0]);
    }
}
