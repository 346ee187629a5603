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
//! updated incrementally by every INSERT/UPDATE/DELETE on the base table
//! (see the `index_*` hooks on [`crate::catalog::Catalog`]), dropped
//! with the index/table, cloned with catalog snapshots, and rebuilt
//! wholesale after WAL/snapshot recovery (replay applies row effects
//! physically, bypassing the hooks).
//!
//! Postings are storage positions sorted ascending, so a seek that
//! unions posting lists and sorts the result emits rows in **storage
//! order** — exactly the order a sequential scan would, which is what
//! lets the seek path stay byte-identical to the ScanOnly baseline.
//! Per-key-column tallies ([`KeyColStats`]) record how many indexed
//! values are non-NULL and how many of those are TEXT: the executor's
//! exactness gate refuses to seek when a probe literal's TEXT-ness is
//! not uniform with every non-NULL key (dialect coercion / strict-type
//! territory — the same discipline as the fast filter's fallback).

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};

use crate::ast::BinaryOp;
use crate::catalog::TableDef;
use crate::value::{OrdValue, Row, Value};

/// Output of [`OrdIndex::seek`]: storage positions to emit, already in
/// emission order — ascending storage order for unordered seeks,
/// index-key order (optionally reversed key groups) for ordered ones.
/// Skipped-class representatives are a separate, on-demand computation
/// ([`OrdIndex::skip_reps`]): the executor only needs their exact
/// storage positions on the fallible filter path.
pub struct SeekOut {
    pub emit: Vec<usize>,
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

    /// Range/point seek: emit every row **no consumed conjunct makes
    /// FALSE** (NULL keys stay in — the WHERE clause re-evaluates over
    /// the emitted rows and drops them itself). The consumed conjuncts
    /// are `eq` equality probes on the leading key columns plus an
    /// optional `range` probe on the next one, compared in the map's
    /// total order — callers gate on [`KeyColStats`] so that total-order
    /// outcomes equal SQL comparison outcomes.
    ///
    /// The kept keys fall into ≤ 4 contiguous key ranges: one per
    /// NULL/matching combination of the consumed positions, enumerated
    /// NULL-side first (NULL sorts first), so concatenation yields global
    /// key order. Skipped keys are grouped into outcome classes (which
    /// conjunct failed, and whether the earlier position was NULL or
    /// matching); [`OrdIndex::skip_reps`] hands the executor one
    /// representative per class to replay the baseline's per-row drop
    /// effects against.
    ///
    /// `dedup` is the `EqSeekMissesDuplicates` bug hook: an eq-only seek
    /// emits only the first posting of each key group.
    pub fn seek(
        &self,
        eq: &[Value],
        range: Option<(BinaryOp, Value)>,
        ordered: bool,
        reverse: bool,
        dedup: bool,
    ) -> SeekOut {
        let mut conjs: Vec<(BinaryOp, OrdValue)> = eq
            .iter()
            .map(|v| (BinaryOp::Eq, OrdValue(v.clone())))
            .collect();
        let dedup = dedup && range.is_none() && !eq.is_empty();
        if let Some((op, v)) = range {
            conjs.push((op, OrdValue(v)));
        }

        // Kept key groups, in global key order.
        let mut groups: Vec<(&Vec<OrdValue>, &Vec<usize>)> = Vec::new();
        let null = OrdValue(Value::Null);
        match conjs.len() {
            0 => groups.extend(self.map.iter()),
            1 => {
                self.null_segment(&[], &mut groups);
                self.match_segment(&[], conjs[0].0, &conjs[0].1, &mut groups);
            }
            2 => {
                let n0 = [null.clone()];
                let m0 = [conjs[0].1.clone()];
                self.null_segment(&n0, &mut groups);
                self.match_segment(&n0, conjs[1].0, &conjs[1].1, &mut groups);
                self.null_segment(&m0, &mut groups);
                self.match_segment(&m0, conjs[1].0, &conjs[1].1, &mut groups);
            }
            _ => unreachable!("a seek consumes at most two key columns"),
        }

        // The postings are flattened straight into one buffer: a seek
        // allocates nothing per key group it emits.
        let take = |ps: &[usize]| if dedup { 1 } else { ps.len() };
        let mut emit = Vec::with_capacity(groups.iter().map(|(_, ps)| take(ps)).sum());
        let mut push = |ps: &[usize]| emit.extend_from_slice(&ps[..take(ps)]);
        if ordered && reverse {
            // DESC: key groups in reverse, storage order within each group
            // (a stable descending sort leaves ties in input order).
            groups.iter().rev().for_each(|(_, ps)| push(ps));
        } else {
            groups.iter().for_each(|(_, ps)| push(ps));
        }
        if !ordered {
            emit.sort_unstable();
        }
        SeekOut { emit }
    }

    /// Skipped outcome classes for the probes of a [`OrdIndex::seek`]:
    /// one `(position, key)` entry per non-empty class, sorted by
    /// position. Evaluation is left-to-right with AND short-circuit at
    /// the first FALSE conjunct, so a class is the failing position plus
    /// the NULL/matching pattern before it.
    ///
    /// `lazy` picks **any** member per class (one bounded probe each)
    /// instead of the class's first row in storage order (a scan of the
    /// whole failing range). The executor replays representatives for
    /// their evaluation effects, which the within-class invariant makes
    /// member-independent; the exact storage position only matters on
    /// the fallible filter path, where replay order against fuel
    /// exhaustion is observable.
    pub fn skip_reps(
        &self,
        eq: &[Value],
        range: Option<(BinaryOp, Value)>,
        lazy: bool,
    ) -> Vec<(usize, Vec<OrdValue>)> {
        let mut conjs: Vec<(BinaryOp, OrdValue)> = eq
            .iter()
            .map(|v| (BinaryOp::Eq, OrdValue(v.clone())))
            .collect();
        if let Some((op, v)) = range {
            conjs.push((op, OrdValue(v)));
        }
        let null = OrdValue(Value::Null);
        let mut reps: Vec<(usize, Vec<OrdValue>)> = Vec::new();
        match conjs.len() {
            0 => {}
            1 => self.skip_class(&[], conjs[0].0, &conjs[0].1, lazy, &mut reps),
            2 => {
                self.skip_class(&[], conjs[0].0, &conjs[0].1, lazy, &mut reps);
                self.skip_class(&[null], conjs[1].0, &conjs[1].1, lazy, &mut reps);
                self.skip_class(
                    &[conjs[0].1.clone()],
                    conjs[1].0,
                    &conjs[1].1,
                    lazy,
                    &mut reps,
                );
            }
            _ => unreachable!("a seek consumes at most two key columns"),
        }
        reps.sort_by_key(|(p, _)| *p);
        reps
    }

    /// Keys whose position `prefix.len()` is NULL under the exact
    /// `prefix` (a contiguous range: NULL sorts first within the group).
    fn null_segment<'a>(
        &'a self,
        prefix: &[OrdValue],
        out: &mut Vec<(&'a Vec<OrdValue>, &'a Vec<usize>)>,
    ) {
        let j = prefix.len();
        let mut lo = prefix.to_vec();
        lo.push(OrdValue(Value::Null));
        for (k, ps) in self
            .map
            .range::<[OrdValue], _>((Included(&lo[..]), Unbounded))
        {
            if k[..j] != *prefix || !k[j].0.is_null() {
                break;
            }
            out.push((k, ps));
        }
    }

    /// Keys whose position `prefix.len()` is non-NULL and satisfies
    /// `<op> v` under the exact `prefix` (a contiguous range per op).
    fn match_segment<'a>(
        &'a self,
        prefix: &[OrdValue],
        op: BinaryOp,
        v: &OrdValue,
        out: &mut Vec<(&'a Vec<OrdValue>, &'a Vec<usize>)>,
    ) {
        use std::cmp::Ordering::*;
        let j = prefix.len();
        let mut lo = prefix.to_vec();
        match op {
            BinaryOp::Eq | BinaryOp::Ge | BinaryOp::Gt => {
                lo.push(v.clone());
                let bound = if op == BinaryOp::Gt {
                    Excluded(&lo[..])
                } else {
                    Included(&lo[..])
                };
                for (k, ps) in self.map.range::<[OrdValue], _>((bound, Unbounded)) {
                    if k[..j] != *prefix {
                        break;
                    }
                    match (op, k[j].cmp(v)) {
                        (BinaryOp::Eq, Equal) => out.push((k, ps)),
                        (BinaryOp::Eq, _) => break,
                        // `[v, suffix]` keys sort just above `[v]`: skip
                        // the probe's own group under a strict `>`.
                        (BinaryOp::Gt, Equal) => continue,
                        _ => out.push((k, ps)),
                    }
                }
            }
            BinaryOp::Lt | BinaryOp::Le => {
                lo.push(OrdValue(Value::Null));
                for (k, ps) in self
                    .map
                    .range::<[OrdValue], _>((Excluded(&lo[..]), Unbounded))
                {
                    if k[..j] != *prefix {
                        break;
                    }
                    if k[j].0.is_null() {
                        // `[prefix, NULL, suffix]` keys sort just above
                        // `[prefix, NULL]`.
                        continue;
                    }
                    match k[j].cmp(v) {
                        Less => out.push((k, ps)),
                        Equal if op == BinaryOp::Le => out.push((k, ps)),
                        _ => break,
                    }
                }
            }
            _ => unreachable!("non-comparison op in a seek"),
        }
    }

    /// Find, among keys with the exact `prefix` whose position
    /// `prefix.len()` is non-NULL and FAILS `<op> v`, the one owning the
    /// smallest storage position — the class's first row in a sequential
    /// scan. Walks only the failing side(s) of the probe.
    fn skip_class(
        &self,
        prefix: &[OrdValue],
        op: BinaryOp,
        v: &OrdValue,
        lazy: bool,
        out: &mut Vec<(usize, Vec<OrdValue>)>,
    ) {
        use std::cmp::Ordering::*;
        let j = prefix.len();
        let mut best: Option<(usize, &Vec<OrdValue>)> = None;
        fn consider<'m>(
            best: &mut Option<(usize, &'m Vec<OrdValue>)>,
            k: &'m Vec<OrdValue>,
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
        if matches!(op, BinaryOp::Eq | BinaryOp::Gt | BinaryOp::Ge) {
            let mut lo = prefix.to_vec();
            lo.push(OrdValue(Value::Null));
            for (k, ps) in self
                .map
                .range::<[OrdValue], _>((Excluded(&lo[..]), Unbounded))
            {
                if k[..j] != *prefix {
                    break;
                }
                if k[j].0.is_null() {
                    continue;
                }
                match (k[j].cmp(v), op) {
                    (Less, _) => consider(&mut best, k, ps),
                    (Equal, BinaryOp::Gt) => consider(&mut best, k, ps),
                    _ => break,
                }
                if lazy {
                    break;
                }
            }
        }
        // High side: keys above the probe (the failing side for Lt/Le
        // and the above-v half for Eq; empty for Gt/Ge).
        if matches!(op, BinaryOp::Eq | BinaryOp::Lt | BinaryOp::Le) && !(lazy && best.is_some()) {
            let mut hi = prefix.to_vec();
            hi.push(v.clone());
            for (k, ps) in self
                .map
                .range::<[OrdValue], _>((Included(&hi[..]), Unbounded))
            {
                if k[..j] != *prefix {
                    break;
                }
                if k[j].cmp(v) == Equal && !matches!(op, BinaryOp::Lt) {
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
        if let Some((p, k)) = best {
            out.push((p, k.clone()));
        }
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
        self.map.retain(|_, ps| {
            ps.retain(|p| removed.binary_search(p).is_err());
            for p in ps.iter_mut() {
                *p -= removed.partition_point(|&x| x < *p);
            }
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
