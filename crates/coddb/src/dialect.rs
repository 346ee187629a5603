//! Dialect profiles.
//!
//! The paper evaluates five DBMSs whose *semantic* differences matter to the
//! oracles (§3.3 "Implementation details"): strict vs. flexible typing,
//! implicit boolean casts, `ANY`/`ALL` support, division-by-zero behaviour,
//! and integer division. CoddDB encodes each target as a profile of the same
//! engine so that generators and oracles can adapt exactly the way the
//! paper's SQLancer implementation does.

use std::fmt;

/// The five emulated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dialect {
    Sqlite,
    Mysql,
    Cockroach,
    Duckdb,
    Tidb,
}

impl Dialect {
    pub const ALL: [Dialect; 5] = [
        Dialect::Sqlite,
        Dialect::Mysql,
        Dialect::Cockroach,
        Dialect::Duckdb,
        Dialect::Tidb,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Dialect::Sqlite => "SQLite",
            Dialect::Mysql => "MySQL",
            Dialect::Cockroach => "CockroachDB",
            Dialect::Duckdb => "DuckDB",
            Dialect::Tidb => "TiDB",
        }
    }

    /// Strict typing: binary operators demand compatible operand types and
    /// predicates must be boolean-typed (paper: CockroachDB, DuckDB).
    pub fn strict_types(self) -> bool {
        matches!(self, Dialect::Cockroach | Dialect::Duckdb)
    }

    /// `ANY`/`ALL` quantified comparisons (paper: unsupported in SQLite and
    /// DuckDB; MySQL/TiDB accept only subquery operands).
    pub fn supports_quantified(self) -> bool {
        !matches!(self, Dialect::Sqlite | Dialect::Duckdb)
    }

    /// Whether integer division produces a real (MySQL `/`) or truncates.
    pub fn int_div_yields_real(self) -> bool {
        matches!(self, Dialect::Mysql | Dialect::Tidb | Dialect::Duckdb)
    }

    /// Division by zero: SQLite and MySQL yield NULL, the strict systems
    /// raise an (expected) error.
    pub fn div_by_zero_is_null(self) -> bool {
        matches!(self, Dialect::Sqlite | Dialect::Mysql | Dialect::Tidb)
    }

    /// ASCII-case-insensitive `LIKE` (SQLite, MySQL, TiDB).
    pub fn like_case_insensitive(self) -> bool {
        matches!(self, Dialect::Sqlite | Dialect::Mysql | Dialect::Tidb)
    }

    /// `VERSION()` string reported by the engine under this profile.
    pub fn version_string(self) -> &'static str {
        match self {
            Dialect::Sqlite => "3.46.0-codddb",
            Dialect::Mysql => "8.0.39-codddb",
            Dialect::Cockroach => "v24.1.0-codddb",
            Dialect::Duckdb => "v1.0.0-codddb",
            Dialect::Tidb => "8.0.11-TiDB-v8.1.0-codddb",
        }
    }

    /// Whether untyped (`ANY`) columns are allowed in `CREATE TABLE`
    /// (SQLite's `CREATE TABLE t0 (c0)`).
    pub fn allows_untyped_columns(self) -> bool {
        matches!(self, Dialect::Sqlite)
    }

    /// Whether `INDEXED BY` hints are accepted (SQLite only).
    pub fn supports_indexed_by(self) -> bool {
        matches!(self, Dialect::Sqlite)
    }
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strictness_matches_paper_implementation_notes() {
        // §3.3: "Some DBMSs follow strict data type rules ... DuckDB and
        // CockroachDB"; SQLite and MySQL convert automatically.
        assert!(Dialect::Cockroach.strict_types());
        assert!(Dialect::Duckdb.strict_types());
        assert!(!Dialect::Sqlite.strict_types());
        assert!(!Dialect::Mysql.strict_types());
        assert!(!Dialect::Tidb.strict_types());
    }

    #[test]
    fn quantified_support_matches_paper() {
        // §3.3: "ALL and ANY are not supported in SQLite and DuckDB".
        assert!(!Dialect::Sqlite.supports_quantified());
        assert!(!Dialect::Duckdb.supports_quantified());
        assert!(Dialect::Mysql.supports_quantified());
        assert!(Dialect::Tidb.supports_quantified());
        assert!(Dialect::Cockroach.supports_quantified());
    }

    #[test]
    fn all_profile_list_is_complete() {
        assert_eq!(Dialect::ALL.len(), 5);
        for d in Dialect::ALL {
            assert!(!d.name().is_empty());
            assert!(!d.version_string().is_empty());
        }
    }
}
