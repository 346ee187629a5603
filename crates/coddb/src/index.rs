//! Physical ordered secondary indexes.
//!
//! [`OrdIndex`] is the B-tree-style structure behind every *bare-column*
//! `CREATE INDEX`: a `BTreeMap` from the composite key (the indexed
//! columns' values, in [`crate::value::Value::total_cmp`] order — NULL
//! first, Int/Real numerically interleaved) to the ascending storage
//! positions of the rows carrying that key. Expression indexes (e.g. the
//! paper's `CREATE INDEX i0 ON t0 (c0 > 0)`) stay metadata-only and keep
//! the legacy ordered-scan path.
//!
//! The maintenance contract: structures are built at CREATE INDEX,
//! updated incrementally by every row write on the base table, dropped
//! with the index/table and cloned with catalog snapshots. The row
//! writes are the three methods of [`crate::catalog::Catalog`] that
//! change rows (`append_rows`, `set_cells`, `remove_rows`); DML and
//! recovery (snapshot load and log replay) both go through them, so
//! nothing rebuilds an index after recovery.
//!
//! Postings are storage positions sorted ascending, so a seek that
//! unions posting lists and sorts the result emits rows in **storage
//! order** — exactly the order a sequential scan would, which is what
//! lets the seek path stay byte-identical to the ScanOnly baseline.
//! Per-key-column tallies ([`KeyColStats`]) record how many indexed
//! values are non-NULL and how many of those are TEXT: the executor's
//! exactness gate refuses to seek when a probe value's TEXT-ness is
//! not uniform with every non-NULL key (dialect coercion / strict-type
//! territory, where dialect rules, not the key order, decide a
//! comparison). A probe value is a literal of the plan or, in a
//! correlated subquery, the current value of an outer column
//! ([`KeyProbes`] holds either once resolved).

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};

use crate::ast::BinaryOp;
use crate::catalog::TableDef;
use crate::value::{OrdValue, Row, Value};

/// The skipped outcome classes of one seek ([`OrdIndex::skip_reps`]):
/// one `(position, key)` representative per non-empty class, sorted by
/// position. There are at most three classes, one per way the consumed
/// conjuncts of a [`KeyProbes::Two`] seek can fail; the keys are
/// borrowed from the index.
pub struct SkipReps<'a> {
    reps: [(usize, &'a [OrdValue]); 3],
    len: usize,
}

impl<'a> std::ops::Deref for SkipReps<'a> {
    type Target = [(usize, &'a [OrdValue])];
    fn deref(&self) -> &Self::Target {
        &self.reps[..self.len]
    }
}

/// The NULL value that bounds the segments of NULL keys.
static NULL: OrdValue = OrdValue(Value::Null);

/// A consumed conjunct's comparison, `key <op> probe`: the five
/// comparisons a seek can consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyCmp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl KeyCmp {
    /// The seek comparison of a binary operator, `None` for any other
    /// operator.
    pub fn of(op: BinaryOp) -> Option<KeyCmp> {
        Some(match op {
            BinaryOp::Eq => KeyCmp::Eq,
            BinaryOp::Lt => KeyCmp::Lt,
            BinaryOp::Le => KeyCmp::Le,
            BinaryOp::Gt => KeyCmp::Gt,
            BinaryOp::Ge => KeyCmp::Ge,
            _ => return None,
        })
    }
}

/// The probe values of one seek, one per consumed key column: a leading
/// run of equality probes and an optional trailing comparison of any
/// kind, over at most two key columns (`plan::MAX_SEEK_KEYS`).
#[derive(Debug, Clone, PartialEq)]
pub enum KeyProbes {
    /// No conjunct consumed: the whole key range (an ordered full seek).
    All,
    /// `key0 <op> v`.
    One(KeyCmp, OrdValue),
    /// `key0 = v0 AND key1 <op> v1`.
    Two(OrdValue, KeyCmp, OrdValue),
}

impl KeyProbes {
    /// Does every consumed conjunct compare by equality (a point seek)?
    fn eq_only(&self) -> bool {
        matches!(
            self,
            KeyProbes::One(KeyCmp::Eq, _) | KeyProbes::Two(_, KeyCmp::Eq, _)
        )
    }
}

/// Per-key-column value-class tallies over every indexed row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyColStats {
    /// Indexed values that are not NULL.
    pub nonnull: usize,
    /// Indexed values that are TEXT (always `<= nonnull`).
    pub text: usize,
}

/// An ordered physical index over one or more bare columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OrdIndex {
    /// Ordinals of the key columns in the table's column list.
    pub cols: Vec<usize>,
    /// Composite key (total order) → ascending row positions.
    pub map: BTreeMap<Vec<OrdValue>, Vec<usize>>,
    /// One tally per key column.
    pub stats: Vec<KeyColStats>,
    /// Total rows indexed (= the table's row count).
    pub rows: usize,
}

impl OrdIndex {
    /// Build the structure over a table's current rows.
    pub fn build(table: &TableDef, cols: Vec<usize>) -> OrdIndex {
        let mut idx = OrdIndex {
            stats: vec![KeyColStats::default(); cols.len()],
            cols,
            map: BTreeMap::new(),
            rows: 0,
        };
        for (pos, row) in table.rows.iter().enumerate() {
            idx.insert_row(pos, row);
        }
        idx
    }

    /// The composite key of a row.
    pub fn key_of(&self, row: &Row) -> Vec<OrdValue> {
        self.cols
            .iter()
            .map(|&c| OrdValue(row[c].clone()))
            .collect()
    }

    fn add_stats(&mut self, key: &[OrdValue]) {
        for (s, v) in self.stats.iter_mut().zip(key) {
            if !v.0.is_null() {
                s.nonnull += 1;
                if matches!(v.0, Value::Text(_)) {
                    s.text += 1;
                }
            }
        }
    }

    fn sub_stats(&mut self, key: &[OrdValue]) {
        for (s, v) in self.stats.iter_mut().zip(key) {
            if !v.0.is_null() {
                s.nonnull -= 1;
                if matches!(v.0, Value::Text(_)) {
                    s.text -= 1;
                }
            }
        }
    }

    /// Index a newly appended row at storage position `pos`.
    pub fn insert_row(&mut self, pos: usize, row: &Row) {
        let key = self.key_of(row);
        self.add_stats(&key);
        let ps = self.map.entry(key).or_default();
        let at = ps.partition_point(|&x| x < pos);
        ps.insert(at, pos);
        self.rows += 1;
    }

    /// Re-key the row at `pos` after an in-place UPDATE.
    pub fn update_row(&mut self, pos: usize, old: &Row, new: &Row) {
        let old_key = self.key_of(old);
        let new_key = self.key_of(new);
        if old_key == new_key {
            // Same key slot (total-order equality unifies e.g. Int 1 and
            // Real 1.0, which also share a TEXT-ness class): nothing moves.
            return;
        }
        if let Some(ps) = self.map.get_mut(&old_key) {
            if let Ok(i) = ps.binary_search(&pos) {
                ps.remove(i);
            }
            if ps.is_empty() {
                self.map.remove(&old_key);
            }
        }
        self.sub_stats(&old_key);
        self.add_stats(&new_key);
        let ps = self.map.entry(new_key).or_default();
        let at = ps.partition_point(|&x| x < pos);
        ps.insert(at, pos);
    }

    /// Range/point seek: fill `emit` with every row **no consumed
    /// conjunct makes FALSE** (NULL keys stay in — the WHERE clause
    /// re-evaluates over the emitted rows and drops them itself), in
    /// emission order: ascending storage order for unordered seeks,
    /// index-key order (optionally reversed key groups) for ordered ones.
    /// The consumed conjuncts are the `probes` on the leading key
    /// columns, compared in the map's total order — callers gate on
    /// [`KeyColStats`] so that total-order outcomes equal SQL comparison
    /// outcomes.
    ///
    /// The kept keys fall into ≤ 4 contiguous key ranges: one per
    /// NULL/matching combination of the consumed positions, enumerated
    /// NULL-side first (NULL sorts first), so concatenation yields global
    /// key order. Skipped keys are grouped into outcome classes (which
    /// conjunct failed, and whether the earlier position was NULL or
    /// matching); [`OrdIndex::skip_reps`] hands the executor one
    /// representative per class to replay the baseline's per-row drop
    /// effects against. The ranges are bounded by keys on the stack, and
    /// the postings go straight into `emit`: a seek allocates nothing
    /// beyond `emit`'s growth, except a list of key groups for a reversed
    /// ordered seek and a copy of each TEXT value in a two-column bound.
    ///
    /// `dedup` is the `EqSeekMissesDuplicates` bug hook: an eq-only seek
    /// emits only the first posting of each key group.
    pub fn seek(
        &self,
        probes: &KeyProbes,
        ordered: bool,
        reverse: bool,
        dedup: bool,
        emit: &mut Vec<usize>,
    ) {
        let dedup = dedup && probes.eq_only();
        let take = |ps: &[usize]| if dedup { 1 } else { ps.len() };
        emit.clear();
        if ordered && reverse {
            // DESC: key groups in reverse, storage order within each group
            // (a stable descending sort leaves ties in input order).
            let mut groups = Vec::new();
            self.kept_groups(probes, &mut |ps| groups.push(ps));
            for ps in groups.iter().rev() {
                emit.extend_from_slice(&ps[..take(ps)]);
            }
        } else {
            self.kept_groups(probes, &mut |ps| emit.extend_from_slice(&ps[..take(ps)]));
            if !ordered {
                emit.sort_unstable();
            }
        }
    }

    /// Hand `out` the postings of every key group [`OrdIndex::seek`]
    /// keeps, in global key order.
    fn kept_groups<'a>(&'a self, probes: &KeyProbes, out: &mut impl FnMut(&'a [usize])) {
        match probes {
            KeyProbes::All => self.map.values().for_each(|ps| out(ps)),
            KeyProbes::One(op, v) => {
                self.null_segment(&[], out);
                self.match_segment(&[], *op, v, out);
            }
            KeyProbes::Two(v0, op, v1) => {
                let n0 = std::slice::from_ref(&NULL);
                let m0 = std::slice::from_ref(v0);
                self.null_segment(n0, out);
                self.match_segment(n0, *op, v1, out);
                self.null_segment(m0, out);
                self.match_segment(m0, *op, v1, out);
            }
        }
    }

    /// Skipped outcome classes for the probes of a [`OrdIndex::seek`]:
    /// one representative per non-empty class. Evaluation is
    /// left-to-right with AND short-circuit at the first FALSE conjunct,
    /// so a class is the failing position plus the NULL/matching pattern
    /// before it.
    ///
    /// `lazy` picks **any** member per class (one bounded probe each)
    /// instead of the class's first row in storage order (a scan of the
    /// whole failing range). The executor replays representatives for
    /// their evaluation effects, which the within-class invariant makes
    /// member-independent; the exact storage position only matters on
    /// the fallible filter path, where replay order against fuel
    /// exhaustion is observable.
    pub fn skip_reps(&self, probes: &KeyProbes, lazy: bool) -> SkipReps<'_> {
        let mut reps = SkipReps {
            reps: [(0, &[]); 3],
            len: 0,
        };
        let classes = match probes {
            KeyProbes::All => [None, None, None],
            KeyProbes::One(op, v) => [self.skip_class(&[], *op, v, lazy), None, None],
            KeyProbes::Two(v0, op, v1) => [
                self.skip_class(&[], KeyCmp::Eq, v0, lazy),
                self.skip_class(std::slice::from_ref(&NULL), *op, v1, lazy),
                self.skip_class(std::slice::from_ref(v0), *op, v1, lazy),
            ],
        };
        for (p, k) in classes.into_iter().flatten() {
            reps.reps[reps.len] = (p, k);
            reps.len += 1;
        }
        reps.reps[..reps.len].sort_by_key(|(p, _)| *p);
        reps
    }

    /// The map's entries from the key `prefix ++ [last]` on, that key
    /// included or not. The bound key is built on the stack: a
    /// one-column bound borrows `last`, and a two-column bound copies its
    /// two values (no allocation unless one is a TEXT).
    fn range_from<'a>(
        &'a self,
        prefix: &[OrdValue],
        last: &OrdValue,
        inclusive: bool,
    ) -> std::collections::btree_map::Range<'a, Vec<OrdValue>, Vec<usize>> {
        let pair: [OrdValue; 2];
        let longer: Vec<OrdValue>;
        let key: &[OrdValue] = match prefix {
            [] => std::slice::from_ref(last),
            [p] => {
                pair = [p.clone(), last.clone()];
                &pair
            }
            _ => {
                longer = prefix.iter().chain([last]).cloned().collect();
                &longer
            }
        };
        let lo = if inclusive {
            Included(key)
        } else {
            Excluded(key)
        };
        self.map.range::<[OrdValue], _>((lo, Unbounded))
    }

    /// Keys whose position `prefix.len()` is NULL under the exact
    /// `prefix` (a contiguous range: NULL sorts first within the group).
    fn null_segment<'a>(&'a self, prefix: &[OrdValue], out: &mut impl FnMut(&'a [usize])) {
        let j = prefix.len();
        for (k, ps) in self.range_from(prefix, &NULL, true) {
            if k[..j] != *prefix || !k[j].0.is_null() {
                break;
            }
            out(ps);
        }
    }

    /// Keys whose position `prefix.len()` is non-NULL and satisfies
    /// `<op> v` under the exact `prefix` (a contiguous range per op).
    fn match_segment<'a>(
        &'a self,
        prefix: &[OrdValue],
        op: KeyCmp,
        v: &OrdValue,
        out: &mut impl FnMut(&'a [usize]),
    ) {
        use std::cmp::Ordering::*;
        let j = prefix.len();
        match op {
            KeyCmp::Eq | KeyCmp::Ge | KeyCmp::Gt => {
                for (k, ps) in self.range_from(prefix, v, op != KeyCmp::Gt) {
                    if k[..j] != *prefix {
                        break;
                    }
                    match (op, k[j].cmp(v)) {
                        (KeyCmp::Eq, Equal) => out(ps),
                        (KeyCmp::Eq, _) => break,
                        // `[v, suffix]` keys sort just above `[v]`: skip
                        // the probe's own group under a strict `>`.
                        (KeyCmp::Gt, Equal) => continue,
                        _ => out(ps),
                    }
                }
            }
            KeyCmp::Lt | KeyCmp::Le => {
                for (k, ps) in self.range_from(prefix, &NULL, false) {
                    if k[..j] != *prefix {
                        break;
                    }
                    if k[j].0.is_null() {
                        // `[prefix, NULL, suffix]` keys sort just above
                        // `[prefix, NULL]`.
                        continue;
                    }
                    match k[j].cmp(v) {
                        Less => out(ps),
                        Equal if op == KeyCmp::Le => out(ps),
                        _ => break,
                    }
                }
            }
        }
    }

    /// Find, among keys with the exact `prefix` whose position
    /// `prefix.len()` is non-NULL and FAILS `<op> v`, the one owning the
    /// smallest storage position — the class's first row in a sequential
    /// scan — with that position. Walks only the failing side(s) of the
    /// probe.
    fn skip_class(
        &self,
        prefix: &[OrdValue],
        op: KeyCmp,
        v: &OrdValue,
        lazy: bool,
    ) -> Option<(usize, &[OrdValue])> {
        use std::cmp::Ordering::*;
        let j = prefix.len();
        let mut best: Option<(usize, &[OrdValue])> = None;
        fn consider<'m>(
            best: &mut Option<(usize, &'m [OrdValue])>,
            k: &'m [OrdValue],
            ps: &[usize],
        ) {
            // Safe: postings are never empty (empty groups are removed).
            let p = ps[0];
            if best.as_ref().is_none_or(|(bp, _)| p < *bp) {
                *best = Some((p, k));
            }
        }
        // Low side: non-NULL keys below the probe (the failing side for
        // Gt/Ge and the below-v half for Eq; empty for Lt/Le).
        if matches!(op, KeyCmp::Eq | KeyCmp::Gt | KeyCmp::Ge) {
            for (k, ps) in self.range_from(prefix, &NULL, false) {
                if k[..j] != *prefix {
                    break;
                }
                if k[j].0.is_null() {
                    continue;
                }
                match (k[j].cmp(v), op) {
                    (Less, _) => consider(&mut best, k, ps),
                    (Equal, KeyCmp::Gt) => consider(&mut best, k, ps),
                    _ => break,
                }
                if lazy {
                    break;
                }
            }
        }
        // High side: keys above the probe (the failing side for Lt/Le
        // and the above-v half for Eq; empty for Gt/Ge).
        if matches!(op, KeyCmp::Eq | KeyCmp::Lt | KeyCmp::Le) && !(lazy && best.is_some()) {
            for (k, ps) in self.range_from(prefix, v, true) {
                if k[..j] != *prefix {
                    break;
                }
                if k[j].cmp(v) == Equal && !matches!(op, KeyCmp::Lt) {
                    // `[v, suffix]` keys: still equal at position j, so
                    // they only fail a strict `<`.
                    continue;
                }
                consider(&mut best, k, ps);
                if lazy {
                    break;
                }
            }
        }
        best
    }

    /// Unindex deleted rows and shift the surviving positions down.
    /// `removed` is sorted ascending; `old_rows` are the removed rows'
    /// pre-delete images (positions shift as the table compacts, so the
    /// whole posting set is rewritten in one pass).
    pub fn delete_rows(&mut self, removed: &[usize], old_rows: &[Row]) {
        if removed.is_empty() {
            return;
        }
        for row in old_rows {
            let key = self.key_of(row);
            self.sub_stats(&key);
        }
        // A surviving position moves down by the number of removed
        // positions below it: the insertion point its failed search finds.
        self.map.retain(|_, ps| {
            ps.retain_mut(|p| match removed.binary_search(p) {
                Ok(_) => false,
                Err(below) => {
                    *p -= below;
                    true
                }
            });
            !ps.is_empty()
        });
        self.rows -= removed.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ColumnDef;
    use crate::value::DataType;

    fn table(rows: Vec<Vec<Value>>) -> TableDef {
        TableDef {
            name: "t".into(),
            columns: vec![
                ColumnDef {
                    name: "a".into(),
                    ty: DataType::Int,
                    not_null: false,
                },
                ColumnDef {
                    name: "b".into(),
                    ty: DataType::Int,
                    not_null: false,
                },
            ],
            rows: rows.into_iter().map(Row::new).collect(),
        }
    }

    fn flat(idx: &OrdIndex) -> Vec<(Vec<Value>, Vec<usize>)> {
        idx.map
            .iter()
            .map(|(k, v)| (k.iter().map(|o| o.0.clone()).collect(), v.clone()))
            .collect()
    }

    #[test]
    fn build_orders_nulls_first_and_postings_ascending() {
        let t = table(vec![
            vec![Value::Int(2), Value::Int(0)],
            vec![Value::Null, Value::Int(0)],
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(2), Value::Int(1)],
        ]);
        let idx = OrdIndex::build(&t, vec![0]);
        assert_eq!(
            flat(&idx),
            vec![
                (vec![Value::Null], vec![1]),
                (vec![Value::Int(1)], vec![2]),
                (vec![Value::Int(2)], vec![0, 3]),
            ]
        );
        assert_eq!(idx.stats[0].nonnull, 3);
        assert_eq!(idx.stats[0].text, 0);
    }

    #[test]
    fn int_and_real_keys_unify_by_total_order() {
        let t = table(vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Real(1.0), Value::Null],
        ]);
        let idx = OrdIndex::build(&t, vec![0]);
        assert_eq!(idx.map.len(), 1);
        assert_eq!(idx.map.values().next().unwrap(), &vec![0, 1]);
    }

    #[test]
    fn update_moves_postings_and_stats() {
        let t = table(vec![
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(2), Value::Int(0)],
        ]);
        let mut idx = OrdIndex::build(&t, vec![0]);
        let old = t.rows[0].clone();
        let new = Row::new(vec![Value::Text("x".into()), Value::Int(0)]);
        idx.update_row(0, &old, &new);
        assert_eq!(
            flat(&idx),
            vec![
                (vec![Value::Int(2)], vec![1]),
                (vec![Value::Text("x".into())], vec![0]),
            ]
        );
        assert_eq!(idx.stats[0].text, 1);
        assert_eq!(idx.stats[0].nonnull, 2);
    }

    #[test]
    fn delete_shifts_surviving_positions() {
        let t = table(vec![
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(2), Value::Int(0)],
            vec![Value::Int(3), Value::Int(0)],
            vec![Value::Int(1), Value::Int(0)],
        ]);
        let mut idx = OrdIndex::build(&t, vec![0, 1]);
        let removed = vec![0, 2];
        let old_rows: Vec<Row> = removed.iter().map(|&i| t.rows[i].clone()).collect();
        idx.delete_rows(&removed, &old_rows);
        assert_eq!(idx.rows, 2);
        assert_eq!(
            flat(&idx),
            vec![
                (vec![Value::Int(1), Value::Int(0)], vec![1]),
                (vec![Value::Int(2), Value::Int(0)], vec![0]),
            ]
        );
    }
}
