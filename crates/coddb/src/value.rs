//! SQL values, data types and comparison semantics.
//!
//! CoddDB models the storage classes the paper's target systems share:
//! `NULL`, 64-bit integers, doubles, text and booleans. Two comparison
//! regimes coexist:
//!
//! * [`Value::sql_cmp`] — SQL three-valued comparison used by predicates
//!   (`NULL` compares as *unknown*),
//! * [`Value::total_cmp`] — a total order used for sorting, grouping,
//!   `UNION` de-duplication and order-insensitive result comparison
//!   (`NULL` sorts first, like SQLite).

use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;

/// Column / expression data types.
///
/// `Any` is SQLite's untyped-column affinity: the column accepts every
/// storage class. Strict dialects never produce `Any` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Real,
    Text,
    Bool,
    Any,
}

impl DataType {
    /// SQL spelling used by the renderer and `CREATE TABLE`.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Real => "REAL",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOLEAN",
            DataType::Any => "ANY",
        }
    }

    /// Whether a value of type `other` can be stored in a column of `self`
    /// without an explicit cast under a *strict* dialect.
    pub fn accepts(self, other: DataType) -> bool {
        match (self, other) {
            (DataType::Any, _) | (_, DataType::Any) => true,
            (DataType::Real, DataType::Int) => true,
            (a, b) => a == b,
        }
    }

    /// Parse a type name as it appears in SQL. Accepts the common aliases
    /// used by the paper's test cases (`INT4`, `INT8`, `BIGINT`, ...).
    pub fn parse(name: &str) -> Option<DataType> {
        let up = name.to_ascii_uppercase();
        match up.as_str() {
            "INT" | "INTEGER" | "INT4" | "INT8" | "BIGINT" | "SMALLINT" => Some(DataType::Int),
            "REAL" | "FLOAT" | "DOUBLE" | "FLOAT8" => Some(DataType::Real),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" | "CLOB" => Some(DataType::Text),
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "ANY" => Some(DataType::Any),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Real(f64),
    Text(String),
    Bool(bool),
}

/// Storage-class rank used for cross-class comparison (SQLite semantics:
/// `NULL < BOOLEAN < numeric < TEXT`).
fn class_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Real(_) => 2,
        Value::Text(_) => 3,
    }
}

impl Value {
    /// The dynamic type of this value. `NULL` reports `Any`.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Any,
            Value::Int(_) => DataType::Int,
            Value::Real(_) => DataType::Real,
            Value::Text(_) => DataType::Text,
            Value::Bool(_) => DataType::Bool,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one without text coercion.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view without text coercion (`Real` must be integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(if *b { 1 } else { 0 }),
            Value::Real(r) if r.fract() == 0.0 && r.is_finite() => Some(*r as i64),
            _ => None,
        }
    }

    /// SQLite-style numeric coercion of text: parse the longest numeric
    /// prefix, defaulting to 0. Used for flexible-typing dialects only.
    pub fn coerce_f64(&self) -> f64 {
        match self {
            Value::Text(s) => parse_numeric_prefix(s),
            other => other.as_f64().unwrap_or(0.0),
        }
    }

    /// SQL comparison: `None` when either side is `NULL` (unknown).
    ///
    /// Cross-class comparisons follow SQLite: numbers compare with numbers
    /// (ints and reals interoperate), everything else compares by storage
    /// class rank first, then within the class.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.nonnull_cmp(other))
    }

    /// Total order over values, `NULL` first. Safe for sorting keys.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.nonnull_cmp(other),
        }
    }

    fn nonnull_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.total_cmp(b),
            (Int(a), Real(b)) => (*a as f64).total_cmp(b),
            (Real(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => class_rank(self).cmp(&class_rank(other)),
        }
    }

    /// `IS` / `IS NOT DISTINCT FROM` equality: `NULL IS NULL` is true.
    pub fn is_identical(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// Render as a SQL literal that parses back to the same value.
    pub fn to_sql(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 1e15 {
                    format!("{r:.1}")
                } else {
                    format!("{r}")
                }
            }
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Parse the longest numeric prefix of a string, SQLite-style (`"12abc"`
/// coerces to 12, `"x"` to 0).
fn parse_numeric_prefix(s: &str) -> f64 {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0usize;
    let mut seen_digit = false;
    let mut seen_dot = false;
    while end < bytes.len() {
        let c = bytes[end] as char;
        match c {
            '+' | '-' if end == 0 => {}
            '0'..='9' => seen_digit = true,
            '.' if !seen_dot => seen_dot = true,
            _ => break,
        }
        end += 1;
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse::<f64>().unwrap_or(0.0)
}

/// Ordering wrapper so values can key `BTreeMap`s (grouping, dedup).
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}
impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A row in flight: a shared, copy-on-write slice of values.
///
/// Rows are `Rc<[Value]>`-backed so that the operator pipeline is
/// zero-copy for scans: `exec_from` hands out refcount bumps to table
/// storage instead of deep-cloning every row, joins and projections
/// freeze freshly built `Vec<Value>`s into shared slices, and DML writes
/// go through [`Row::set`], which copies only when the storage is still
/// shared (e.g. with a [`crate::Database::snapshot`]). Reads deref to
/// `&[Value]`; there is deliberately no `DerefMut` — every mutation is a
/// copy-on-write [`Row::set`].
#[derive(Debug, Clone)]
pub struct Row(Rc<[Value]>);

impl Row {
    /// Freeze a freshly built value vector into a shareable row.
    pub fn new(values: Vec<Value>) -> Row {
        Row(values.into())
    }

    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }

    pub fn to_vec(&self) -> Vec<Value> {
        self.0.to_vec()
    }

    /// Copy-on-write write: in-place when this row is the sole owner of
    /// its storage, otherwise the slice is copied first (never disturbing
    /// other owners — snapshots, in-flight relations, memoized results).
    pub fn set(&mut self, index: usize, value: Value) {
        match Rc::get_mut(&mut self.0) {
            Some(slice) => slice[index] = value,
            None => {
                let mut buf = self.0.to_vec();
                buf[index] = value;
                self.0 = buf.into();
            }
        }
    }

    /// Do `self` and `other` share the same storage?
    pub fn shares_storage_with(&self, other: &Row) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl std::ops::Deref for Row {
    type Target = [Value];
    #[inline]
    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Row {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Row {
        Row(Rc::from_iter(iter))
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.0 == other.0
    }
}

/// Rows compare against plain value vectors so tests and oracles can
/// state expected results as `vec![vec![...]]` literals.
impl PartialEq<Vec<Value>> for Row {
    fn eq(&self, other: &Vec<Value>) -> bool {
        *self.0 == other[..]
    }
}

impl PartialEq<Row> for Vec<Value> {
    fn eq(&self, other: &Row) -> bool {
        self[..] == *other.0
    }
}

/// Ordering wrapper over whole rows.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdRow(pub Row);

impl Eq for OrdRow {}
impl PartialOrd for OrdRow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdRow {
    fn cmp(&self, other: &Self) -> Ordering {
        row_total_cmp(&self.0, &other.0)
    }
}

/// Lexicographic total order over rows.
pub fn row_total_cmp(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = x.total_cmp(y);
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// A materialized query result: column names plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl Relation {
    pub fn new(columns: Vec<String>) -> Self {
        Relation {
            columns,
            rows: Vec::new(),
        }
    }

    pub fn single(value: Value) -> Self {
        Relation {
            columns: vec!["v".into()],
            rows: vec![Row::new(vec![value])],
        }
    }

    /// Build a relation from plain value vectors (test / oracle helper).
    pub fn from_rows(columns: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        Relation {
            columns,
            rows: rows.into_iter().map(Row::new).collect(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The scalar result: exactly one row, one column. `None` otherwise.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Infer per-column types from the data (`Any` when a column is all
    /// NULL or mixes classes). Used when materializing folded relations.
    pub fn column_types(&self) -> Vec<DataType> {
        (0..self.columns.len())
            .map(|i| {
                let mut ty: Option<DataType> = None;
                for row in &self.rows {
                    let vt = row[i].data_type();
                    if vt == DataType::Any {
                        continue;
                    }
                    ty = match ty {
                        None => Some(vt),
                        Some(t) if t == vt => Some(t),
                        Some(DataType::Real) if vt == DataType::Int => Some(DataType::Real),
                        Some(DataType::Int) if vt == DataType::Real => Some(DataType::Real),
                        Some(_) => Some(DataType::Any),
                    };
                }
                ty.unwrap_or(DataType::Any)
            })
            .collect()
    }

    /// Order-insensitive (multiset) equality — the comparison every oracle
    /// in this repo uses, since SQL results are unordered without a
    /// deterministic `ORDER BY`.
    pub fn multiset_eq(&self, other: &Relation) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        if self.rows.iter().any(|r| r.len() != self.columns.len()) {
            // Degenerate, compare directly.
            return self == other;
        }
        let mut a: Vec<&Row> = self.rows.iter().collect();
        let mut b: Vec<&Row> = other.rows.iter().collect();
        a.sort_by(|x, y| row_total_cmp(x, y));
        b.sort_by(|x, y| row_total_cmp(x, y));
        a.iter()
            .zip(b.iter())
            .all(|(x, y)| row_total_cmp(x, y) == Ordering::Equal)
    }

    /// Canonical display for reports: `col1|col2` header then rows.
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join("|"));
        for row in &self.rows {
            out.push('\n');
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join("|"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn numeric_cross_class_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Real(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Real(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Real(3.5).sql_cmp(&Value::Int(3)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn storage_class_ordering_matches_sqlite() {
        // NULL < BOOL < numeric < TEXT under the total order.
        assert_eq!(Value::Null.total_cmp(&Value::Bool(false)), Ordering::Less);
        assert_eq!(Value::Bool(true).total_cmp(&Value::Int(-5)), Ordering::Less);
        assert_eq!(
            Value::Int(999).total_cmp(&Value::Text("a".into())),
            Ordering::Less
        );
    }

    #[test]
    fn is_identical_treats_nulls_equal() {
        assert!(Value::Null.is_identical(&Value::Null));
        assert!(!Value::Null.is_identical(&Value::Int(0)));
        assert!(Value::Int(7).is_identical(&Value::Int(7)));
    }

    #[test]
    fn sql_literal_round_trip_shapes() {
        assert_eq!(Value::Int(-3).to_sql(), "-3");
        assert_eq!(Value::Real(2.0).to_sql(), "2.0");
        assert_eq!(Value::Text("a'b".into()).to_sql(), "'a''b'");
        assert_eq!(Value::Bool(true).to_sql(), "TRUE");
        assert_eq!(Value::Null.to_sql(), "NULL");
    }

    #[test]
    fn numeric_prefix_coercion() {
        assert_eq!(Value::Text("12abc".into()).coerce_f64(), 12.0);
        assert_eq!(Value::Text("-3.5x".into()).coerce_f64(), -3.5);
        assert_eq!(Value::Text("abc".into()).coerce_f64(), 0.0);
        assert_eq!(Value::Text("  7".into()).coerce_f64(), 7.0);
    }

    #[test]
    fn multiset_equality_ignores_order() {
        let a = Relation::from_rows(
            vec!["c".into()],
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        let b = Relation::from_rows(
            vec!["c".into()],
            vec![vec![Value::Int(2)], vec![Value::Int(1)]],
        );
        assert!(a.multiset_eq(&b));
        let c = Relation::from_rows(vec!["c".into()], vec![vec![Value::Int(2)]]);
        assert!(!a.multiset_eq(&c));
    }

    #[test]
    fn column_type_inference() {
        let r = Relation::from_rows(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                vec![Value::Int(1), Value::Null, Value::Real(1.5)],
                vec![Value::Int(2), Value::Null, Value::Int(2)],
            ],
        );
        assert_eq!(
            r.column_types(),
            vec![DataType::Int, DataType::Any, DataType::Real]
        );
    }

    #[test]
    fn row_copy_on_write_preserves_other_owners() {
        let a = Row::new(vec![Value::Int(1), Value::Int(2)]);
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b));
        b.set(0, Value::Int(9));
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(b, vec![Value::Int(9), Value::Int(2)]);
        // A sole owner writes in place without reallocating.
        let mut c = Row::new(vec![Value::Int(5)]);
        c.set(0, Value::Int(6));
        assert_eq!(c, vec![Value::Int(6)]);
    }

    #[test]
    fn data_type_parsing_aliases() {
        assert_eq!(DataType::parse("int8"), Some(DataType::Int));
        assert_eq!(DataType::parse("BIGINT"), Some(DataType::Int));
        assert_eq!(DataType::parse("varchar"), Some(DataType::Text));
        assert_eq!(DataType::parse("bogus"), None);
    }
}
