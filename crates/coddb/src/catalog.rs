//! Catalog and row storage.
//!
//! CoddDB stores everything in memory: base tables hold materialized rows,
//! views hold their defining query (expanded at plan time), and indexes
//! hold a list of indexed *expressions* (SQLite-style expression indexes —
//! the paper's Listing 1 uses `CREATE INDEX i0 ON t0 (c0 > 0)`), which the
//! planner may choose (or be forced via `INDEXED BY`) for scans. Indexes
//! whose expressions are all bare columns additionally carry a physical
//! ordered structure ([`OrdIndex`]) that the planner's seek path probes.
//! A base table's rows change only through `append_rows`, `set_cells`
//! and `remove_rows`, which DML and recovery both call. Each keeps every
//! [`OrdIndex`] of the table in step and checks its input first: a row
//! of the wrong width, a position or column out of range, or delete
//! positions out of order end in an [`Error`] that changed nothing.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::ast::{ColumnDef, Expr, Select};
use crate::error::{Error, Result};
use crate::index::OrdIndex;
use crate::value::{Row, Value};

/// A base table with its rows.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    pub rows: Vec<Row>,
}

impl TableDef {
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(column))
    }

    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }
}

/// A view definition.
#[derive(Debug, Clone)]
pub struct ViewDef {
    pub name: String,
    /// Optional explicit output column names.
    pub columns: Vec<String>,
    pub query: Select,
}

/// An index definition: one or more key expressions over a table.
#[derive(Debug, Clone)]
pub struct IndexDef {
    pub name: String,
    pub table: String,
    pub exprs: Vec<Expr>,
    pub unique: bool,
    /// Physical ordered structure — present only when every key
    /// expression is a bare column of the table; expression indexes stay
    /// metadata-only and keep the legacy ordered-scan path.
    pub data: Option<OrdIndex>,
}

/// What a FROM-clause name resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationKind {
    Table,
    View,
}

/// The in-memory catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableDef>,
    views: BTreeMap<String, ViewDef>,
    indexes: BTreeMap<String, IndexDef>,
}

/// The catalog key of `name`: its ASCII lowercase form, copied only when
/// `name` has a capital, so a lookup by a lowercase name allocates
/// nothing.
fn key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    // --- tables ---------------------------------------------------------

    pub fn create_table(
        &mut self,
        name: &str,
        columns: Vec<ColumnDef>,
        if_not_exists: bool,
    ) -> Result<()> {
        let k = key(name).into_owned();
        if self.tables.contains_key(&k) || self.views.contains_key(&k) {
            if if_not_exists {
                return Ok(());
            }
            return Err(Error::Catalog(format!("table {name} already exists")));
        }
        if columns.is_empty() {
            return Err(Error::Catalog(format!(
                "table {name} must have at least one column"
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in &columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(Error::Catalog(format!(
                    "duplicate column {} in table {name}",
                    c.name
                )));
            }
        }
        self.tables.insert(
            k,
            TableDef {
                name: name.to_string(),
                columns,
                rows: Vec::new(),
            },
        );
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<()> {
        if self.tables.remove(&*key(name)).is_none() {
            if if_exists {
                return Ok(());
            }
            return Err(Error::Catalog(format!("no such table: {name}")));
        }
        // Indexes on the dropped table disappear with it.
        self.indexes
            .retain(|_, idx| !idx.table.eq_ignore_ascii_case(name));
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<&TableDef> {
        self.tables
            .get(&*key(name))
            .ok_or_else(|| Error::Catalog(format!("no such table: {name}")))
    }

    pub fn table_names(&self) -> Vec<&str> {
        self.tables.values().map(|t| t.name.as_str()).collect()
    }

    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values()
    }

    // --- views ----------------------------------------------------------

    pub fn create_view(&mut self, name: &str, columns: Vec<String>, query: Select) -> Result<()> {
        let k = key(name).into_owned();
        if self.tables.contains_key(&k) || self.views.contains_key(&k) {
            return Err(Error::Catalog(format!("relation {name} already exists")));
        }
        self.views.insert(
            k,
            ViewDef {
                name: name.to_string(),
                columns,
                query,
            },
        );
        Ok(())
    }

    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(&*key(name))
    }

    pub fn view_names(&self) -> Vec<&str> {
        self.views.values().map(|v| v.name.as_str()).collect()
    }

    // --- indexes --------------------------------------------------------

    pub fn create_index(
        &mut self,
        name: &str,
        table: &str,
        exprs: Vec<Expr>,
        unique: bool,
    ) -> Result<()> {
        let k = key(name).into_owned();
        if self.indexes.contains_key(&k) {
            return Err(Error::Catalog(format!("index {name} already exists")));
        }
        if exprs.is_empty() {
            return Err(Error::Catalog(format!(
                "index {name} must have at least one key expression"
            )));
        }
        let t = self.table(table)?;
        let data = bare_key_cols(t, &exprs).map(|cols| OrdIndex::build(t, cols));
        self.indexes.insert(
            k,
            IndexDef {
                name: name.to_string(),
                table: table.to_string(),
                exprs,
                unique,
                data,
            },
        );
        Ok(())
    }

    pub fn index(&self, name: &str) -> Option<&IndexDef> {
        self.indexes.get(&*key(name))
    }

    pub fn indexes_for_table(&self, table: &str) -> Vec<&IndexDef> {
        self.indexes
            .values()
            .filter(|i| i.table.eq_ignore_ascii_case(table))
            .collect()
    }

    pub fn index_names(&self) -> Vec<&str> {
        self.indexes.values().map(|i| i.name.as_str()).collect()
    }

    // --- row writes -----------------------------------------------------

    /// `table`'s definition and the ordered structures of its indexes.
    fn table_and_indexes(&mut self, table: &str) -> Result<(&mut TableDef, Vec<&mut OrdIndex>)> {
        let Some(t) = self.tables.get_mut(&*key(table)) else {
            return Err(Error::Catalog(format!("no such table: {table}")));
        };
        let data = self
            .indexes
            .values_mut()
            .filter(|i| i.table.eq_ignore_ascii_case(table))
            .filter_map(|i| i.data.as_mut());
        Ok((t, data.collect()))
    }

    /// Append `rows` to `table` and index each one.
    pub(crate) fn append_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let (t, data) = self.table_and_indexes(table)?;
        let width = t.columns.len();
        if let Some(r) = rows.iter().find(|r| r.len() != width) {
            let n = r.len();
            return misfit(format!(
                "insert of {n} values but table {table} has {width} columns"
            ));
        }
        let start = t.rows.len();
        t.rows.extend(rows);
        for idx in data {
            for pos in start..t.rows.len() {
                idx.insert_row(pos, &t.rows[pos]);
            }
        }
        Ok(())
    }

    /// Set cells of row `pos` of `table`, each a `(column, value)` pair.
    /// With `rekey` every ordered index of the table moves the row to its
    /// new key; without it they keep the old one (the
    /// `StaleEntryAfterUpdate` mutant).
    pub(crate) fn set_cells(
        &mut self,
        table: &str,
        pos: usize,
        cells: Vec<(usize, Value)>,
        rekey: bool,
    ) -> Result<()> {
        let (t, data) = self.table_and_indexes(table)?;
        let (rows, width) = (t.rows.len(), t.columns.len());
        if pos >= rows {
            return misfit(format!(
                "update of row {pos} but table {table} has {rows} rows"
            ));
        }
        if let Some((c, _)) = cells.iter().find(|(c, _)| *c >= width) {
            return misfit(format!(
                "update of column {c} but table {table} has {width} columns"
            ));
        }
        // Copy-on-write: the clone pins the pre-update image for re-keying,
        // and snapshots or in-flight relations holding the row keep its
        // old values.
        let old = t.rows[pos].clone();
        for (c, v) in cells {
            t.rows[pos].set(c, v);
        }
        if rekey {
            for idx in data {
                idx.update_row(pos, &old, &t.rows[pos]);
            }
        }
        Ok(())
    }

    /// Remove the rows at `positions`, which must strictly ascend, from
    /// `table`: unindex them and shift every later row down.
    pub(crate) fn remove_rows(&mut self, table: &str, positions: &[usize]) -> Result<()> {
        let (t, data) = self.table_and_indexes(table)?;
        if let Some(w) = positions.windows(2).find(|w| w[0] >= w[1]) {
            return misfit(format!(
                "delete of row {} after row {} in table {table}",
                w[1], w[0]
            ));
        }
        if let Some(&last) = positions.last().filter(|&&p| p >= t.rows.len()) {
            let n = t.rows.len();
            return misfit(format!(
                "delete of row {last} but table {table} has {n} rows"
            ));
        }
        let old_rows: Vec<Row> = positions.iter().map(|&p| t.rows[p].clone()).collect();
        for idx in data {
            idx.delete_rows(positions, &old_rows);
        }
        for &p in positions.iter().rev() {
            t.rows.remove(p);
        }
        Ok(())
    }

    // --- resolution -----------------------------------------------------

    /// Resolve a FROM-clause name to a table or view.
    pub fn resolve_relation(&self, name: &str) -> Result<RelationKind> {
        let k = key(name);
        if self.tables.contains_key(&*k) {
            Ok(RelationKind::Table)
        } else if self.views.contains_key(&*k) {
            Ok(RelationKind::View)
        } else {
            Err(Error::Catalog(format!("no such table or view: {name}")))
        }
    }

    /// Total number of stored rows across all base tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }
}

/// A row write whose row, position or column does not fit the table.
fn misfit<T>(msg: String) -> Result<T> {
    Err(Error::Internal(msg))
}

/// If every key expression is a bare (optionally alias-free) column of
/// `table`, the column ordinals in index-key order; otherwise `None`
/// (expression indexes get no physical structure).
fn bare_key_cols(table: &TableDef, exprs: &[Expr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            Expr::Column(c) if c.table.is_none() => table.column_index(&c.column),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn col(name: &str, ty: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            ty,
            not_null: false,
        }
    }

    #[test]
    fn create_and_lookup_table_is_case_insensitive() {
        let mut cat = Catalog::new();
        cat.create_table("T0", vec![col("c0", DataType::Int)], false)
            .unwrap();
        assert!(cat.table("t0").is_ok());
        assert!(cat.table("T0").is_ok());
        assert_eq!(cat.table("t0").unwrap().column_index("C0"), Some(0));
    }

    #[test]
    fn duplicate_table_rejected_unless_if_not_exists() {
        let mut cat = Catalog::new();
        cat.create_table("t", vec![col("c", DataType::Int)], false)
            .unwrap();
        assert!(matches!(
            cat.create_table("t", vec![col("c", DataType::Int)], false),
            Err(Error::Catalog(_))
        ));
        assert!(cat
            .create_table("t", vec![col("c", DataType::Int)], true)
            .is_ok());
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut cat = Catalog::new();
        let res = cat.create_table(
            "t",
            vec![col("c", DataType::Int), col("C", DataType::Text)],
            false,
        );
        assert!(matches!(res, Err(Error::Catalog(_))));
    }

    #[test]
    fn drop_table_removes_its_indexes() {
        let mut cat = Catalog::new();
        cat.create_table("t", vec![col("c", DataType::Int)], false)
            .unwrap();
        cat.create_index("i", "t", vec![Expr::bare_col("c")], false)
            .unwrap();
        assert_eq!(cat.indexes_for_table("t").len(), 1);
        cat.drop_table("t", false).unwrap();
        assert!(cat.index("i").is_none());
        assert!(matches!(cat.drop_table("t", false), Err(Error::Catalog(_))));
        assert!(cat.drop_table("t", true).is_ok());
    }

    #[test]
    fn view_name_conflicts_with_table() {
        let mut cat = Catalog::new();
        cat.create_table("t", vec![col("c", DataType::Int)], false)
            .unwrap();
        let q = Select::scalar_probe(Expr::lit(Value::Int(1)));
        assert!(cat.create_view("t", vec![], q.clone()).is_err());
        cat.create_view("v", vec!["c0".into()], q).unwrap();
        assert_eq!(cat.resolve_relation("v").unwrap(), RelationKind::View);
        assert_eq!(cat.resolve_relation("t").unwrap(), RelationKind::Table);
        assert!(cat.resolve_relation("zzz").is_err());
    }

    #[test]
    fn index_requires_existing_table() {
        let mut cat = Catalog::new();
        assert!(cat
            .create_index("i", "missing", vec![Expr::bare_col("c")], false)
            .is_err());
    }

    #[test]
    fn total_rows_sums_tables() {
        let mut cat = Catalog::new();
        cat.create_table("t", vec![col("c", DataType::Int)], false)
            .unwrap();
        cat.append_rows("t", vec![vec![Value::Int(1)].into()])
            .unwrap();
        cat.append_rows("t", vec![vec![Value::Int(2)].into()])
            .unwrap();
        assert_eq!(cat.total_rows(), 2);
    }
}
