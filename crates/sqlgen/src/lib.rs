//! # sqlgen — random SQL generation for the CODDTest reproduction
//!
//! Plays the role SQLancer's rule-based generators play in the paper:
//!
//! * [`state`] generates a random, *non-empty* database state
//!   (`CREATE TABLE` / `INSERT` / `CREATE INDEX` / `CREATE VIEW`) together
//!   with a [`SchemaInfo`] model of what it created,
//! * [`expr`] generates random typed expressions with a `MaxDepth` knob
//!   (default 3, as in SQLancer) and full subquery support — including the
//!   classification into *independent* and *dependent* expressions the
//!   CODDTest oracle needs (Algorithm 1, line 2),
//! * [`query`] generates FROM contexts (with joins), SELECT queries around
//!   a given predicate, and the DML statements the DQE baseline needs.
//!
//! All generation is deterministic given the caller's RNG.

pub mod expr;
pub mod query;
pub mod state;

use coddb::value::DataType;
use coddb::Dialect;

/// Generation knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Maximum expression depth (the paper's `MaxDepth`, default 3).
    pub max_depth: u32,
    /// Allow subqueries inside generated expressions.
    pub allow_subqueries: bool,
    /// Allow joins in generated FROM clauses.
    pub allow_joins: bool,
    /// Maximum number of tables the state generator creates.
    pub max_tables: usize,
    /// Maximum rows inserted per table (at least one row is guaranteed).
    pub max_rows: usize,
    /// Probability of creating an index per table.
    pub index_probability: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 3,
            allow_subqueries: true,
            allow_joins: true,
            max_tables: 3,
            max_rows: 6,
            index_probability: 0.5,
        }
    }
}

impl GenConfig {
    /// The "CODDTest & Expression" configuration of Table 3 (no
    /// subqueries).
    pub fn expressions_only() -> Self {
        GenConfig {
            allow_subqueries: false,
            ..GenConfig::default()
        }
    }

    /// Configuration with a specific `MaxDepth` (Figures 2 and 3).
    pub fn with_max_depth(max_depth: u32) -> Self {
        GenConfig {
            max_depth,
            ..GenConfig::default()
        }
    }
}

/// One column of a generated table or view.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnInfo {
    /// Alias or table name the column is addressed through.
    pub table: String,
    pub column: String,
    pub ty: DataType,
}

/// A generated table (or view).
#[derive(Debug, Clone)]
pub struct TableInfo {
    pub name: String,
    pub columns: Vec<(String, DataType)>,
    pub is_view: bool,
    pub row_count: usize,
}

impl TableInfo {
    /// Columns qualified by an alias.
    pub fn columns_as(&self, alias: &str) -> Vec<ColumnInfo> {
        self.columns
            .iter()
            .map(|(c, ty)| ColumnInfo {
                table: alias.to_string(),
                column: c.clone(),
                ty: *ty,
            })
            .collect()
    }
}

/// The generator-side model of the database state.
#[derive(Debug, Clone, Default)]
pub struct SchemaInfo {
    pub tables: Vec<TableInfo>,
    /// (index name, table name) pairs.
    pub indexes: Vec<(String, String)>,
    /// (table name, column name) pairs for bare-column index keys — the
    /// columns the planner's ordered seeks can consume probes against.
    pub indexed_columns: Vec<(String, String)>,
    pub dialect: Option<Dialect>,
}

impl SchemaInfo {
    /// Base tables only (DML targets).
    pub fn base_tables(&self) -> Vec<&TableInfo> {
        self.tables.iter().filter(|t| !t.is_view).collect()
    }

    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Names of indexes on the given table.
    pub fn indexes_for(&self, table: &str) -> Vec<&str> {
        self.indexes
            .iter()
            .filter(|(_, t)| t.eq_ignore_ascii_case(table))
            .map(|(i, _)| i.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_defaults() {
        let c = GenConfig::default();
        assert_eq!(c.max_depth, 3, "SQLancer default MaxDepth");
        assert!(c.allow_subqueries);
    }

    #[test]
    fn expressions_only_disables_subqueries() {
        assert!(!GenConfig::expressions_only().allow_subqueries);
        assert_eq!(GenConfig::with_max_depth(9).max_depth, 9);
    }

    #[test]
    fn table_info_qualifies_columns() {
        let t = TableInfo {
            name: "t0".into(),
            columns: vec![("c0".into(), DataType::Int)],
            is_view: false,
            row_count: 1,
        };
        let cols = t.columns_as("x");
        assert_eq!(cols[0].table, "x");
        assert_eq!(cols[0].column, "c0");
    }
}
