//! SQL abstract syntax tree.
//!
//! The AST is the lingua franca of the whole reproduction: `sqlgen` builds
//! random statements over it, the CODDTest oracle rewrites it (constant
//! propagation replaces a sub-expression node, exactly like the paper's
//! SQLancer implementation swaps AST child nodes), and CoddDB plans and
//! executes it. [`display`] renders SQL text and [`crate::parser`] parses it
//! back; the two round-trip.

pub mod display;
pub mod visit;

use crate::value::{DataType, Value};

/// A possibly-qualified column reference (`t0.c0` or `c0`).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Binary operators. `Is`/`IsNot` are null-safe equality (SQLite `IS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Is,
    IsNot,
}

impl BinaryOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
        )
    }
}

/// Comparison operator for quantified comparisons (`= ANY`, `> ALL`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompareOp {
    pub fn as_binary(self) -> BinaryOp {
        match self {
            CompareOp::Eq => BinaryOp::Eq,
            CompareOp::Ne => BinaryOp::Ne,
            CompareOp::Lt => BinaryOp::Lt,
            CompareOp::Le => BinaryOp::Le,
            CompareOp::Gt => BinaryOp::Gt,
            CompareOp::Ge => BinaryOp::Ge,
        }
    }
}

/// `ANY` / `ALL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    Any,
    All,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Total,
}

impl AggFunc {
    pub fn sql_name(self) -> &'static str {
        match self {
            AggFunc::CountStar | AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Total => "TOTAL",
        }
    }
}

/// Scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncName {
    Length,
    Abs,
    Upper,
    Lower,
    Coalesce,
    Nullif,
    Iif,
    Typeof,
    Version,
    Round,
    Sign,
    Instr,
    Substr,
}

impl FuncName {
    pub fn sql_name(self) -> &'static str {
        match self {
            FuncName::Length => "LENGTH",
            FuncName::Abs => "ABS",
            FuncName::Upper => "UPPER",
            FuncName::Lower => "LOWER",
            FuncName::Coalesce => "COALESCE",
            FuncName::Nullif => "NULLIF",
            FuncName::Iif => "IIF",
            FuncName::Typeof => "TYPEOF",
            FuncName::Version => "VERSION",
            FuncName::Round => "ROUND",
            FuncName::Sign => "SIGN",
            FuncName::Instr => "INSTR",
            FuncName::Substr => "SUBSTR",
        }
    }

    pub fn parse(name: &str) -> Option<FuncName> {
        match name.to_ascii_uppercase().as_str() {
            "LENGTH" => Some(FuncName::Length),
            "ABS" => Some(FuncName::Abs),
            "UPPER" => Some(FuncName::Upper),
            "LOWER" => Some(FuncName::Lower),
            "COALESCE" => Some(FuncName::Coalesce),
            "NULLIF" => Some(FuncName::Nullif),
            "IIF" => Some(FuncName::Iif),
            "TYPEOF" | "PG_TYPEOF" => Some(FuncName::Typeof),
            "VERSION" => Some(FuncName::Version),
            "ROUND" => Some(FuncName::Round),
            "SIGN" => Some(FuncName::Sign),
            "INSTR" => Some(FuncName::Instr),
            "SUBSTR" | "SUBSTRING" => Some(FuncName::Substr),
            _ => None,
        }
    }
}

/// SQL scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    Column(ColumnRef),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        query: Box<Select>,
        negated: bool,
    },
    Exists {
        query: Box<Select>,
        negated: bool,
    },
    /// Scalar subquery — must return at most one row and exactly one column.
    Scalar(Box<Select>),
    /// `expr op ANY/ALL (subquery)`.
    Quantified {
        op: CompareOp,
        quantifier: Quantifier,
        expr: Box<Expr>,
        query: Box<Select>,
    },
    Case {
        operand: Option<Box<Expr>>,
        whens: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    Func {
        func: FuncName,
        args: Vec<Expr>,
    },
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
    Cast {
        expr: Box<Expr>,
        ty: DataType,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
}

impl Expr {
    // -- ergonomic constructors ------------------------------------------
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }
    pub fn null() -> Expr {
        Expr::Literal(Value::Null)
    }
    pub fn col(table: impl Into<String>, column: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::new(table, column))
    }
    pub fn bare_col(column: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(column))
    }
    pub fn bin(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinaryOp::And, left, right)
    }
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinaryOp::Or, left, right)
    }
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinaryOp::Eq, left, right)
    }
    #[allow(clippy::should_implement_trait)] // SQL NOT, not std::ops::Not
    pub fn not(expr: Expr) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(expr),
        }
    }
    pub fn is_null(expr: Expr) -> Expr {
        Expr::IsNull {
            expr: Box::new(expr),
            negated: false,
        }
    }
    pub fn count_star() -> Expr {
        Expr::Agg {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
        }
    }

    /// Does this expression tree contain an aggregate call (outside of
    /// subqueries, which establish their own aggregation scope)?
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        visit::walk_expr_shallow(self, &mut |e| {
            if matches!(e, Expr::Agg { .. }) {
                found = true;
            }
        });
        found
    }

    /// Does this expression tree contain any subquery (at any depth)?
    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        visit::walk_expr_deep(self, &mut |e| {
            if matches!(
                e,
                Expr::Scalar(_)
                    | Expr::Exists { .. }
                    | Expr::InSubquery { .. }
                    | Expr::Quantified { .. }
            ) {
                found = true;
            }
        });
        found
    }

    /// Is this a constant expression: no column references and no
    /// subqueries anywhere in the tree?
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        visit::walk_expr_deep(self, &mut |e| match e {
            Expr::Column(_) | Expr::Agg { .. } => constant = false,
            Expr::Scalar(_)
            | Expr::Exists { .. }
            | Expr::InSubquery { .. }
            | Expr::Quantified { .. } => constant = false,
            Expr::Func {
                func: FuncName::Version,
                ..
            } => {
                // VERSION() is constant per-session but we treat it as
                // opaque so the planner never folds it (mirrors MySQL
                // marking it non-deterministic for caching purposes).
                constant = false;
            }
            _ => {}
        });
        constant
    }

    /// Collect every column reference in this expression, excluding those
    /// inside subqueries (which may bind to the subquery's own FROM).
    pub fn shallow_column_refs(&self) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        visit::walk_expr_shallow(self, &mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.clone());
            }
        });
        out
    }
}

/// One projection item of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    TableWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// `ASC` / `DESC`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    Asc,
    Desc,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub order: SortOrder,
}

/// Join kinds. `Cross` has no `ON` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

impl JoinKind {
    pub fn sql_name(self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER JOIN",
            JoinKind::Left => "LEFT JOIN",
            JoinKind::Right => "RIGHT JOIN",
            JoinKind::Full => "FULL OUTER JOIN",
            JoinKind::Cross => "CROSS JOIN",
        }
    }
}

/// A table expression in a FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableExpr {
    /// A named table, view or CTE reference.
    Named {
        name: String,
        alias: Option<String>,
        indexed_by: Option<String>,
    },
    /// `(SELECT ...) AS alias`.
    Derived { query: Box<Select>, alias: String },
    /// `(VALUES (...), (...)) AS alias (c0, c1)` — a table value
    /// constructor, the folded-relation shape of §3.4.
    Values {
        rows: Vec<Vec<Expr>>,
        alias: String,
        columns: Vec<String>,
    },
    /// A join of two table expressions.
    Join {
        left: Box<TableExpr>,
        right: Box<TableExpr>,
        kind: JoinKind,
        on: Option<Expr>,
    },
}

impl TableExpr {
    pub fn named(name: impl Into<String>) -> TableExpr {
        TableExpr::Named {
            name: name.into(),
            alias: None,
            indexed_by: None,
        }
    }
    pub fn aliased(name: impl Into<String>, alias: impl Into<String>) -> TableExpr {
        TableExpr::Named {
            name: name.into(),
            alias: Some(alias.into()),
            indexed_by: None,
        }
    }
}

/// A common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    pub columns: Vec<String>,
    pub query: Select,
}

/// Set operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

impl SetOp {
    pub fn sql_name(self) -> &'static str {
        match self {
            SetOp::Union => "UNION",
            SetOp::Intersect => "INTERSECT",
            SetOp::Except => "EXCEPT",
        }
    }
}

/// Body of a select: a plain core, a set operation, or a bare `VALUES`
/// list (usable as a CTE body or derived table).
#[allow(clippy::large_enum_variant)] // Core dominates; bodies are built once
#[derive(Debug, Clone, PartialEq)]
pub enum SelectBody {
    Core(SelectCore),
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<SelectBody>,
        right: Box<SelectBody>,
    },
    Values(Vec<Vec<Expr>>),
}

/// The core of a `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectCore {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Option<TableExpr>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

/// A full `SELECT` statement (CTE prologue + body + ordering + limits).
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub with: Vec<Cte>,
    pub body: SelectBody,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

impl Select {
    /// A bare `SELECT <expr>` — the auxiliary-query shape for independent
    /// expressions (Algorithm 1, line 4).
    pub fn scalar_probe(expr: Expr) -> Select {
        Select::from_core(SelectCore {
            items: vec![SelectItem::Expr { expr, alias: None }],
            ..SelectCore::default()
        })
    }

    pub fn from_core(core: SelectCore) -> Select {
        Select {
            with: Vec::new(),
            body: SelectBody::Core(core),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// Access the outermost core if the body is not a set operation.
    pub fn core(&self) -> Option<&SelectCore> {
        match &self.body {
            SelectBody::Core(c) => Some(c),
            _ => None,
        }
    }

    pub fn core_mut(&mut self) -> Option<&mut SelectCore> {
        match &mut self.body {
            SelectBody::Core(c) => Some(c),
            _ => None,
        }
    }
}

/// Column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub not_null: bool,
}

/// Source of an `INSERT`.
#[allow(clippy::large_enum_variant)] // statements are built once, not stored in bulk
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Select),
}

/// Top-level SQL statements.
#[allow(clippy::large_enum_variant)] // statements are built once, not stored in bulk
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        if_not_exists: bool,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    CreateView {
        name: String,
        columns: Vec<String>,
        query: Select,
    },
    CreateIndex {
        name: String,
        table: String,
        /// One or more key expressions, in index-key order.
        exprs: Vec<Expr>,
        unique: bool,
    },
    Insert {
        table: String,
        columns: Vec<String>,
        source: InsertSource,
    },
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    Select(Select),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subq() -> Select {
        Select::scalar_probe(Expr::lit(1i64))
    }

    #[test]
    fn constructors_build_expected_shapes() {
        let e = Expr::and(
            Expr::eq(Expr::col("t", "c"), Expr::lit(1i64)),
            Expr::lit(true),
        );
        match e {
            Expr::Binary {
                op: BinaryOp::And, ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn contains_subquery_sees_nested() {
        let e = Expr::not(Expr::Exists {
            query: Box::new(subq()),
            negated: false,
        });
        assert!(e.contains_subquery());
        assert!(!Expr::lit(1i64).contains_subquery());
    }

    #[test]
    fn is_constant_rejects_columns_subqueries_and_version() {
        assert!(Expr::bin(BinaryOp::Add, Expr::lit(1i64), Expr::lit(2i64)).is_constant());
        assert!(!Expr::col("t", "c").is_constant());
        assert!(!Expr::Scalar(Box::new(subq())).is_constant());
        assert!(!Expr::Func {
            func: FuncName::Version,
            args: vec![]
        }
        .is_constant());
    }

    #[test]
    fn shallow_column_refs_skip_subqueries() {
        let inner = Select::scalar_probe(Expr::col("inner_t", "x"));
        let e = Expr::and(
            Expr::col("t", "a"),
            Expr::Exists {
                query: Box::new(inner),
                negated: false,
            },
        );
        let refs = e.shallow_column_refs();
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].column, "a");
    }

    #[test]
    fn contains_aggregate_is_shallow() {
        let agg = Expr::count_star();
        assert!(agg.contains_aggregate());
        // An aggregate inside a subquery belongs to the subquery's scope.
        let sub = Select::scalar_probe(Expr::count_star());
        let e = Expr::Scalar(Box::new(sub));
        assert!(!e.contains_aggregate());
    }
}
