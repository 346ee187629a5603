//! Recursive-descent SQL parser.
//!
//! Parses the dialect CoddDB speaks (the SQL surface the paper's test
//! cases exercise: SELECT with joins / grouping / set ops / CTEs /
//! subqueries, DML, and the DDL statements the database generator emits).
//! The parser round-trips [`crate::ast::display`]: `parse(render(ast))`
//! reproduces an equivalent AST (verified by property tests).

mod lexer;

pub use lexer::{lex, Sym, Token};

use crate::ast::{
    AggFunc, BinaryOp, ColumnDef, ColumnRef, CompareOp, Cte, Expr, FuncName, InsertSource,
    JoinKind, OrderItem, Quantifier, Select, SelectBody, SelectCore, SelectItem, SetOp, SortOrder,
    Statement, TableExpr, UnaryOp,
};
use crate::error::{Error, Result};
use crate::value::{DataType, Value};

/// Parse a script of `;`-separated statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat_sym(Sym::Semi) {}
        if p.at_end() {
            break;
        }
        out.push(p.parse_statement()?);
    }
    Ok(out)
}

/// Parse a single expression (useful in tests and the REPL example).
pub fn parse_expr(sql: &str) -> Result<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.parse_expr()?;
    p.expect_end()?;
    Ok(e)
}

/// Parse a single SELECT statement.
pub fn parse_select(sql: &str) -> Result<Select> {
    let mut p = Parser::new(sql)?;
    let s = p.parse_select()?;
    while p.eat_sym(Sym::Semi) {}
    p.expect_end()?;
    Ok(s)
}

/// Deepest nesting of expressions, SELECTs and parenthesised join trees
/// the parser accepts, counting each link of an operator, set-operation
/// or join chain as one level: deeper input is a parse error instead of a
/// stack overflow, which would abort the process. In a debug build the
/// costliest shape (a derived table per level) needs about 1.3 MiB of
/// stack to reach this depth, inside a default 2 MiB thread stack.
const MAX_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered through [`Parser::nested`] plus the links
    /// of the chains being parsed.
    depth: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: lex(sql)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Run `f` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.chain(|p| {
            p.link()?;
            f(p)
        })
    }

    /// Run the loop `f` of a left-associative chain (`a + b + c`, a set
    /// operation or join list), in which each [`Parser::link`] counts one
    /// nesting level until the loop ends: every link wraps the tree built
    /// so far in one more node.
    fn chain<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let depth = self.depth;
        let out = f(self);
        self.depth = depth;
        out
    }

    /// Count one more level, failing past [`MAX_DEPTH`].
    fn link(&mut self) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return Err(Error::Parse(format!(
                "nesting exceeds the maximum depth of {MAX_DEPTH}"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&Token> {
        self.tokens.get(self.pos + off)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "trailing tokens at {:?}",
                self.peek()
            )))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_sym(&self, s: Sym) -> bool {
        matches!(self.peek(), Some(Token::Sym(x)) if *x == s)
    }

    fn expect_sym(&mut self, s: Sym) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn parse_identifier(&mut self) -> Result<String> {
        match self.next()? {
            Token::Word(w) if !is_reserved(&w) => Ok(w),
            other => Err(Error::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    // -- statements -------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.peek_kw("SELECT") || self.peek_kw("WITH") || self.peek_kw("VALUES") {
            return Ok(Statement::Select(self.parse_select()?));
        }
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.parse_create_table();
            }
            if self.eat_kw("VIEW") {
                return self.parse_create_view();
            }
            let unique = self.eat_kw("UNIQUE");
            if self.eat_kw("INDEX") {
                return self.parse_create_index(unique);
            }
            return Err(Error::Parse(
                "expected TABLE, VIEW or INDEX after CREATE".into(),
            ));
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.parse_identifier()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            return self.parse_insert();
        }
        if self.eat_kw("UPDATE") {
            return self.parse_update();
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.parse_identifier()?;
            let where_clause = if self.eat_kw("WHERE") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete {
                table,
                where_clause,
            });
        }
        Err(Error::Parse(format!(
            "unexpected statement start: {:?}",
            self.peek()
        )))
    }

    fn parse_create_table(&mut self) -> Result<Statement> {
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.parse_identifier()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.parse_identifier()?;
            // Optional type name (SQLite allows untyped columns).
            let ty = match self.peek() {
                Some(Token::Word(w)) if DataType::parse(w).is_some() => {
                    let t = DataType::parse(w).unwrap();
                    self.pos += 1;
                    t
                }
                _ => DataType::Any,
            };
            let not_null = if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                true
            } else {
                false
            };
            columns.push(ColumnDef {
                name: col_name,
                ty,
                not_null,
            });
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn parse_create_view(&mut self) -> Result<Statement> {
        let name = self.parse_identifier()?;
        let mut columns = Vec::new();
        if self.eat_sym(Sym::LParen) {
            loop {
                columns.push(self.parse_identifier()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
        }
        self.expect_kw("AS")?;
        let query = self.parse_select()?;
        Ok(Statement::CreateView {
            name,
            columns,
            query,
        })
    }

    fn parse_create_index(&mut self, unique: bool) -> Result<Statement> {
        let name = self.parse_identifier()?;
        self.expect_kw("ON")?;
        let table = self.parse_identifier()?;
        self.expect_sym(Sym::LParen)?;
        let mut exprs = vec![self.parse_expr()?];
        while self.eat_sym(Sym::Comma) {
            exprs.push(self.parse_expr()?);
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            exprs,
            unique,
        })
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        let table = self.parse_identifier()?;
        let mut columns = Vec::new();
        if self.peek_sym(Sym::LParen) {
            // Lookahead: `(` here could also start a subquery source; a
            // column list is `(ident, ...)` followed by VALUES/SELECT.
            let save = self.pos;
            self.pos += 1;
            let mut ok = true;
            let mut cols = Vec::new();
            loop {
                match self.peek() {
                    Some(Token::Word(w)) if !is_reserved(w) => {
                        cols.push(w.clone());
                        self.pos += 1;
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
                if self.eat_sym(Sym::Comma) {
                    continue;
                }
                break;
            }
            if ok && self.eat_sym(Sym::RParen) {
                columns = cols;
            } else {
                self.pos = save;
            }
        }
        if self.eat_kw("VALUES") {
            let rows = self.parse_value_rows()?;
            return Ok(Statement::Insert {
                table,
                columns,
                source: InsertSource::Values(rows),
            });
        }
        let q = self.parse_select()?;
        Ok(Statement::Insert {
            table,
            columns,
            source: InsertSource::Query(q),
        })
    }

    fn parse_value_rows(&mut self) -> Result<Vec<Vec<Expr>>> {
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = Vec::new();
            if !self.peek_sym(Sym::RParen) {
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
            }
            self.expect_sym(Sym::RParen)?;
            rows.push(row);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(rows)
    }

    fn parse_update(&mut self) -> Result<Statement> {
        let table = self.parse_identifier()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.parse_identifier()?;
            self.expect_sym(Sym::Eq)?;
            let e = self.parse_expr()?;
            sets.push((col, e));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_clause,
        })
    }

    // -- SELECT -----------------------------------------------------------

    fn parse_select(&mut self) -> Result<Select> {
        self.nested(Self::parse_query)
    }

    /// A subquery, boxed here so that the recursive callers keep no
    /// `Select` in their own stack frames.
    fn parse_subquery(&mut self) -> Result<Box<Select>> {
        Ok(Box::new(self.parse_select()?))
    }

    fn parse_query(&mut self) -> Result<Select> {
        let mut with = Vec::new();
        if self.eat_kw("WITH") {
            loop {
                let name = self.parse_identifier()?;
                let mut columns = Vec::new();
                if self.eat_sym(Sym::LParen) {
                    loop {
                        columns.push(self.parse_identifier()?);
                        if !self.eat_sym(Sym::Comma) {
                            break;
                        }
                    }
                    self.expect_sym(Sym::RParen)?;
                }
                self.expect_kw("AS")?;
                self.expect_sym(Sym::LParen)?;
                let query = self.parse_select()?;
                self.expect_sym(Sym::RParen)?;
                with.push(Cte {
                    name,
                    columns,
                    query,
                });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }

        let body = self.parse_body()?;

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let order = if self.eat_kw("DESC") {
                    SortOrder::Desc
                } else {
                    self.eat_kw("ASC");
                    SortOrder::Asc
                };
                order_by.push(OrderItem { expr, order });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.parse_expr()?);
            if self.eat_kw("OFFSET") {
                offset = Some(self.parse_expr()?);
            }
        }
        Ok(Select {
            with,
            body,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_body(&mut self) -> Result<SelectBody> {
        self.chain(|p| {
            let mut left = p.parse_body_atom()?;
            loop {
                let (op, all) = if p.eat_kw("UNION") {
                    (SetOp::Union, p.eat_kw("ALL"))
                } else if p.eat_kw("INTERSECT") {
                    (SetOp::Intersect, false)
                } else if p.eat_kw("EXCEPT") {
                    (SetOp::Except, false)
                } else {
                    break;
                };
                p.link()?;
                let right = p.parse_body_atom()?;
                left = SelectBody::SetOp {
                    op,
                    all,
                    left: Box::new(left),
                    right: Box::new(right),
                };
            }
            Ok(left)
        })
    }

    fn parse_body_atom(&mut self) -> Result<SelectBody> {
        if self.eat_kw("VALUES") {
            return Ok(SelectBody::Values(self.parse_value_rows()?));
        }
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("FROM") {
            Some(self.parse_table_expr()?)
        } else {
            None
        };
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(SelectBody::Core(SelectCore {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
        }))
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let (Some(Token::Word(w)), Some(Token::Sym(Sym::Dot)), Some(Token::Sym(Sym::Star))) =
            (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            if !is_reserved(w) {
                let t = w.clone();
                self.pos += 3;
                return Ok(SelectItem::TableWildcard(t));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.parse_identifier()?)
        } else {
            match self.peek() {
                Some(Token::Word(w)) if !is_reserved(w) => {
                    let a = w.clone();
                    self.pos += 1;
                    Some(a)
                }
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    // -- FROM -------------------------------------------------------------

    fn parse_table_expr(&mut self) -> Result<TableExpr> {
        self.chain(|p| {
            let mut left = p.parse_table_primary()?;
            loop {
                let kind = if p.eat_sym(Sym::Comma) {
                    Some(JoinKind::Cross)
                } else if p.eat_kw("CROSS") {
                    p.expect_kw("JOIN")?;
                    Some(JoinKind::Cross)
                } else if p.eat_kw("INNER") {
                    p.expect_kw("JOIN")?;
                    Some(JoinKind::Inner)
                } else if p.eat_kw("LEFT") {
                    p.eat_kw("OUTER");
                    p.expect_kw("JOIN")?;
                    Some(JoinKind::Left)
                } else if p.eat_kw("RIGHT") {
                    p.eat_kw("OUTER");
                    p.expect_kw("JOIN")?;
                    Some(JoinKind::Right)
                } else if p.eat_kw("FULL") {
                    p.eat_kw("OUTER");
                    p.expect_kw("JOIN")?;
                    Some(JoinKind::Full)
                } else if p.eat_kw("JOIN") {
                    Some(JoinKind::Inner)
                } else {
                    None
                };
                let Some(kind) = kind else { break };
                p.link()?;
                let right = p.parse_table_primary()?;
                let on = if p.eat_kw("ON") {
                    Some(p.parse_expr()?)
                } else {
                    None
                };
                if on.is_none() && !matches!(kind, JoinKind::Cross) {
                    return Err(Error::Parse(format!(
                        "{} requires an ON clause",
                        kind.sql_name()
                    )));
                }
                left = TableExpr::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind,
                    on,
                };
            }
            Ok(left)
        })
    }

    fn parse_table_primary(&mut self) -> Result<TableExpr> {
        if self.eat_sym(Sym::LParen) {
            if self.peek_kw("SELECT") || self.peek_kw("WITH") {
                let query = self.parse_subquery()?;
                self.expect_sym(Sym::RParen)?;
                self.eat_kw("AS");
                let alias = self.parse_identifier()?;
                return Ok(TableExpr::Derived { query, alias });
            }
            if self.eat_kw("VALUES") {
                let rows = self.parse_value_rows()?;
                self.expect_sym(Sym::RParen)?;
                self.eat_kw("AS");
                let alias = self.parse_identifier()?;
                let mut columns = Vec::new();
                if self.eat_sym(Sym::LParen) {
                    loop {
                        columns.push(self.parse_identifier()?);
                        if !self.eat_sym(Sym::Comma) {
                            break;
                        }
                    }
                    self.expect_sym(Sym::RParen)?;
                }
                return Ok(TableExpr::Values {
                    rows,
                    alias,
                    columns,
                });
            }
            // Parenthesized join tree.
            let inner = self.nested(Self::parse_table_expr)?;
            self.expect_sym(Sym::RParen)?;
            return Ok(inner);
        }
        let name = self.parse_identifier()?;
        let alias = if self.eat_kw("AS") {
            Some(self.parse_identifier()?)
        } else {
            match self.peek() {
                Some(Token::Word(w)) if !is_reserved(w) => {
                    let a = w.clone();
                    self.pos += 1;
                    Some(a)
                }
                _ => None,
            }
        };
        let indexed_by = if self.eat_kw("INDEXED") {
            self.expect_kw("BY")?;
            Some(self.parse_identifier()?)
        } else {
            None
        };
        Ok(TableExpr::Named {
            name,
            alias,
            indexed_by,
        })
    }

    // -- expressions --------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        self.chain(|p| {
            let mut left = p.parse_and()?;
            while p.eat_kw("OR") {
                p.link()?;
                let right = p.parse_and()?;
                left = Expr::bin(BinaryOp::Or, left, right);
            }
            Ok(left)
        })
    }

    fn parse_and(&mut self) -> Result<Expr> {
        self.chain(|p| {
            let mut left = p.parse_not()?;
            while p.eat_kw("AND") {
                p.link()?;
                let right = p.parse_not()?;
                left = Expr::bin(BinaryOp::And, left, right);
            }
            Ok(left)
        })
    }

    fn parse_not(&mut self) -> Result<Expr> {
        // `NOT EXISTS` binds at the primary level; plain `NOT` here.
        if self.peek_kw("NOT") && !self.peek_at(1).is_some_and(|t| t.is_kw("EXISTS")) {
            self.pos += 1;
            let e = self.nested(Self::parse_not)?;
            return Ok(Expr::not(e));
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr> {
        self.chain(|p| {
            let mut left = p.parse_additive()?;
            loop {
                // IS [NOT] ...
                if p.eat_kw("IS") {
                    p.link()?;
                    let negated = p.eat_kw("NOT");
                    if p.eat_kw("NULL") {
                        left = Expr::IsNull {
                            expr: Box::new(left),
                            negated,
                        };
                    } else {
                        let right = p.parse_additive()?;
                        let op = if negated {
                            BinaryOp::IsNot
                        } else {
                            BinaryOp::Is
                        };
                        left = Expr::bin(op, left, right);
                    }
                    continue;
                }
                let negated = if p.peek_kw("NOT")
                    && p.peek_at(1)
                        .is_some_and(|t| t.is_kw("BETWEEN") || t.is_kw("IN") || t.is_kw("LIKE"))
                {
                    p.pos += 1;
                    true
                } else {
                    false
                };
                if p.eat_kw("BETWEEN") {
                    p.link()?;
                    let low = p.parse_additive()?;
                    p.expect_kw("AND")?;
                    let high = p.parse_additive()?;
                    left = Expr::Between {
                        expr: Box::new(left),
                        low: Box::new(low),
                        high: Box::new(high),
                        negated,
                    };
                    continue;
                }
                if p.eat_kw("IN") {
                    p.link()?;
                    p.expect_sym(Sym::LParen)?;
                    if p.peek_kw("SELECT") || p.peek_kw("WITH") || p.peek_kw("VALUES") {
                        let query = p.parse_subquery()?;
                        p.expect_sym(Sym::RParen)?;
                        left = Expr::InSubquery {
                            expr: Box::new(left),
                            query,
                            negated,
                        };
                    } else {
                        let mut list = Vec::new();
                        if !p.peek_sym(Sym::RParen) {
                            loop {
                                list.push(p.parse_expr()?);
                                if !p.eat_sym(Sym::Comma) {
                                    break;
                                }
                            }
                        }
                        p.expect_sym(Sym::RParen)?;
                        left = Expr::InList {
                            expr: Box::new(left),
                            list,
                            negated,
                        };
                    }
                    continue;
                }
                if p.eat_kw("LIKE") {
                    p.link()?;
                    let pattern = p.parse_additive()?;
                    left = Expr::Like {
                        expr: Box::new(left),
                        pattern: Box::new(pattern),
                        negated,
                    };
                    continue;
                }
                if negated {
                    return Err(Error::Parse(
                        "expected BETWEEN, IN or LIKE after NOT".into(),
                    ));
                }
                // Comparison, possibly quantified.
                let op = match p.peek() {
                    Some(Token::Sym(Sym::Eq)) => Some(CompareOp::Eq),
                    Some(Token::Sym(Sym::Ne)) => Some(CompareOp::Ne),
                    Some(Token::Sym(Sym::Lt)) => Some(CompareOp::Lt),
                    Some(Token::Sym(Sym::Le)) => Some(CompareOp::Le),
                    Some(Token::Sym(Sym::Gt)) => Some(CompareOp::Gt),
                    Some(Token::Sym(Sym::Ge)) => Some(CompareOp::Ge),
                    _ => None,
                };
                let Some(op) = op else { break };
                p.pos += 1;
                p.link()?;
                let quantifier = if p.eat_kw("ANY") {
                    Some(Quantifier::Any)
                } else if p.eat_kw("ALL") {
                    Some(Quantifier::All)
                } else {
                    None
                };
                if let Some(q) = quantifier {
                    p.expect_sym(Sym::LParen)?;
                    let query = p.parse_subquery()?;
                    p.expect_sym(Sym::RParen)?;
                    left = Expr::Quantified {
                        op,
                        quantifier: q,
                        expr: Box::new(left),
                        query,
                    };
                } else {
                    let right = p.parse_additive()?;
                    left = Expr::bin(op.as_binary(), left, right);
                }
            }
            Ok(left)
        })
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        self.chain(|p| {
            let mut left = p.parse_multiplicative()?;
            loop {
                let op = match p.peek() {
                    Some(Token::Sym(Sym::Plus)) => BinaryOp::Add,
                    Some(Token::Sym(Sym::Minus)) => BinaryOp::Sub,
                    Some(Token::Sym(Sym::Concat)) => BinaryOp::Concat,
                    _ => break,
                };
                p.pos += 1;
                p.link()?;
                let right = p.parse_multiplicative()?;
                left = Expr::bin(op, left, right);
            }
            Ok(left)
        })
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        self.chain(|p| {
            let mut left = p.parse_unary()?;
            loop {
                let op = match p.peek() {
                    Some(Token::Sym(Sym::Star)) => BinaryOp::Mul,
                    Some(Token::Sym(Sym::Slash)) => BinaryOp::Div,
                    Some(Token::Sym(Sym::Percent)) => BinaryOp::Mod,
                    _ => break,
                };
                p.pos += 1;
                p.link()?;
                let right = p.parse_unary()?;
                left = Expr::bin(op, left, right);
            }
            Ok(left)
        })
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_sym(Sym::Minus) {
            // Fold a leading minus into numeric literals so that `-3`
            // round-trips as a literal (matching the renderer).
            match self.peek() {
                Some(Token::Int(v)) => {
                    let v = *v;
                    self.pos += 1;
                    return Ok(Expr::lit(-v));
                }
                Some(Token::Real(v)) => {
                    let v = *v;
                    self.pos += 1;
                    return Ok(Expr::lit(-v));
                }
                _ => {
                    let e = self.nested(Self::parse_unary)?;
                    return Ok(Expr::Unary {
                        op: UnaryOp::Neg,
                        expr: Box::new(e),
                    });
                }
            }
        }
        if self.eat_sym(Sym::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(v)) => {
                self.pos += 1;
                Ok(Expr::lit(v))
            }
            Some(Token::Real(v)) => {
                self.pos += 1;
                Ok(Expr::lit(v))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Text(s)))
            }
            Some(Token::Sym(Sym::LParen)) => {
                self.pos += 1;
                if self.peek_kw("SELECT") || self.peek_kw("WITH") || self.peek_kw("VALUES") {
                    let q = self.parse_subquery()?;
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::Scalar(q));
                }
                let e = self.parse_expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Token::Word(w)) => self.parse_word_primary(w),
            other => Err(Error::Parse(format!("unexpected token {other:?}"))),
        }
    }

    fn parse_word_primary(&mut self, w: String) -> Result<Expr> {
        // Literals and keyword-led expressions.
        if w.eq_ignore_ascii_case("NULL") {
            self.pos += 1;
            return Ok(Expr::null());
        }
        if w.eq_ignore_ascii_case("TRUE") {
            self.pos += 1;
            return Ok(Expr::lit(true));
        }
        if w.eq_ignore_ascii_case("FALSE") {
            self.pos += 1;
            return Ok(Expr::lit(false));
        }
        if w.eq_ignore_ascii_case("NOT") {
            // Only NOT EXISTS reaches the primary level.
            self.pos += 1;
            self.expect_kw("EXISTS")?;
            self.expect_sym(Sym::LParen)?;
            let query = self.parse_subquery()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::Exists {
                query,
                negated: true,
            });
        }
        if w.eq_ignore_ascii_case("EXISTS") {
            self.pos += 1;
            self.expect_sym(Sym::LParen)?;
            let query = self.parse_subquery()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::Exists {
                query,
                negated: false,
            });
        }
        if w.eq_ignore_ascii_case("CAST") {
            self.pos += 1;
            self.expect_sym(Sym::LParen)?;
            let e = self.parse_expr()?;
            self.expect_kw("AS")?;
            let ty_word = match self.next()? {
                Token::Word(t) => t,
                other => return Err(Error::Parse(format!("expected type name, got {other:?}"))),
            };
            let ty = DataType::parse(&ty_word)
                .ok_or_else(|| Error::Parse(format!("unknown type {ty_word}")))?;
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::Cast {
                expr: Box::new(e),
                ty,
            });
        }
        if w.eq_ignore_ascii_case("CASE") {
            self.pos += 1;
            let operand = if self.peek_kw("WHEN") {
                None
            } else {
                Some(Box::new(self.parse_expr()?))
            };
            let mut whens = Vec::new();
            while self.eat_kw("WHEN") {
                let cond = self.parse_expr()?;
                self.expect_kw("THEN")?;
                let then = self.parse_expr()?;
                whens.push((cond, then));
            }
            if whens.is_empty() {
                return Err(Error::Parse("CASE requires at least one WHEN arm".into()));
            }
            let else_expr = if self.eat_kw("ELSE") {
                Some(Box::new(self.parse_expr()?))
            } else {
                None
            };
            self.expect_kw("END")?;
            return Ok(Expr::Case {
                operand,
                whens,
                else_expr,
            });
        }

        // Function call or aggregate?
        if self.peek_at(1) == Some(&Token::Sym(Sym::LParen)) && !is_reserved(&w) {
            let upper = w.to_ascii_uppercase();
            self.pos += 2; // name + '('
            match upper.as_str() {
                "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "TOTAL" => {
                    if upper == "COUNT" && self.eat_sym(Sym::Star) {
                        self.expect_sym(Sym::RParen)?;
                        return Ok(Expr::count_star());
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let arg = self.parse_expr()?;
                    self.expect_sym(Sym::RParen)?;
                    let func = match upper.as_str() {
                        "COUNT" => AggFunc::Count,
                        "SUM" => AggFunc::Sum,
                        "AVG" => AggFunc::Avg,
                        "MIN" => AggFunc::Min,
                        "MAX" => AggFunc::Max,
                        _ => AggFunc::Total,
                    };
                    return Ok(Expr::Agg {
                        func,
                        arg: Some(Box::new(arg)),
                        distinct,
                    });
                }
                _ => {
                    let func = FuncName::parse(&upper)
                        .ok_or_else(|| Error::Parse(format!("unknown function {w}")))?;
                    let mut args = Vec::new();
                    if !self.peek_sym(Sym::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_sym(Sym::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::Func { func, args });
                }
            }
        }

        // Column reference.
        if is_reserved(&w) {
            return Err(Error::Parse(format!("unexpected keyword {w}")));
        }
        self.pos += 1;
        if self.eat_sym(Sym::Dot) {
            let col = self.parse_identifier()?;
            return Ok(Expr::Column(ColumnRef {
                table: Some(w),
                column: col,
            }));
        }
        Ok(Expr::Column(ColumnRef {
            table: None,
            column: w,
        }))
    }
}

/// Reserved words that cannot be bare identifiers/aliases.
fn is_reserved(w: &str) -> bool {
    const RESERVED: &[&str] = &[
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "LIMIT",
        "OFFSET",
        "AS",
        "DISTINCT",
        "ALL",
        "ANY",
        "AND",
        "OR",
        "NOT",
        "NULL",
        "TRUE",
        "FALSE",
        "IS",
        "IN",
        "BETWEEN",
        "LIKE",
        "EXISTS",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "CAST",
        "CREATE",
        "TABLE",
        "VIEW",
        "INDEX",
        "UNIQUE",
        "DROP",
        "IF",
        "INSERT",
        "INTO",
        "VALUES",
        "UPDATE",
        "SET",
        "DELETE",
        "JOIN",
        "INNER",
        "LEFT",
        "RIGHT",
        "FULL",
        "OUTER",
        "CROSS",
        "ON",
        "UNION",
        "INTERSECT",
        "EXCEPT",
        "WITH",
        "ASC",
        "DESC",
        "INDEXED",
    ];
    RESERVED.iter().any(|r| w.eq_ignore_ascii_case(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_select(sql: &str) {
        let s1 = parse_select(sql).unwrap();
        let rendered = s1.to_string();
        let s2 = parse_select(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
        assert_eq!(
            s1.to_string(),
            s2.to_string(),
            "render→parse→render not stable for {sql}"
        );
    }

    #[test]
    fn parses_listing1_statements() {
        let script = r#"
            CREATE TABLE t0 ( c0 );
            INSERT INTO t0 ( c0 ) VALUES (1);
            CREATE INDEX i0 ON t0 ( c0 > 0);
            CREATE VIEW v0 ( c0 ) AS SELECT AVG ( t0 . c0 ) FROM t0 GROUP BY 1 > t0 . c0 ;
            SELECT COUNT (*) FROM t0 INDEXED BY i0 WHERE ( SELECT COUNT (*) FROM v0 WHERE
                v0 . c0 BETWEEN 0 AND 0 );
        "#;
        let stmts = parse_statements(script).unwrap();
        assert_eq!(stmts.len(), 5);
        assert!(matches!(stmts[0], Statement::CreateTable { .. }));
        assert!(matches!(stmts[2], Statement::CreateIndex { .. }));
        assert!(matches!(stmts[4], Statement::Select(_)));
    }

    #[test]
    fn parses_listing2_correlated_subquery() {
        let sql = "SELECT x.ID FROM t0 AS x WHERE x.score > \
                   (SELECT AVG(y.score) FROM t0 AS y WHERE x.classID = y.classID)";
        let s = parse_select(sql).unwrap();
        let core = s.core().unwrap();
        assert!(core.where_clause.as_ref().unwrap().contains_subquery());
        round_trip_select(sql);
    }

    #[test]
    fn parses_case_expression() {
        let sql = "SELECT score, CASE WHEN score = 100 THEN 'A' \
                   WHEN score >= 80 AND score < 100 THEN 'B' ELSE 'C' END FROM grade";
        round_trip_select(sql);
    }

    #[test]
    fn parses_joins_and_on() {
        let sql = "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 WHERE t1.c0 IS NULL";
        round_trip_select(sql);
        let sql2 = "SELECT vt0.c2 AS c1 FROM t1 CROSS JOIN v0 ON \
                    (EXISTS (SELECT v0.c0 FROM v0 WHERE FALSE)) FULL OUTER JOIN vt0 ON 1";
        round_trip_select(sql2);
    }

    #[test]
    fn parses_cte_and_values() {
        let sql = "WITH t2 AS (SELECT NULL AS b) SELECT t1.v FROM t1, t2 WHERE t1.v \
                   NOT BETWEEN t1.v AND (CASE WHEN NULL THEN t2.b ELSE t1.v END)";
        round_trip_select(sql);
        let sql2 = "SELECT * FROM (VALUES (1, 'a'), (2, 'b')) AS ft0 (c0, c1)";
        round_trip_select(sql2);
    }

    #[test]
    fn parses_in_variants_and_quantified() {
        round_trip_select("SELECT c FROM t WHERE c IN (0, 862827606027206657)");
        round_trip_select("SELECT c FROM t WHERE c NOT IN (SELECT c FROM u)");
        round_trip_select("SELECT c FROM t WHERE c = ANY (SELECT c FROM u)");
        round_trip_select("SELECT c FROM t WHERE c >= ALL (SELECT 1 UNION SELECT 2)");
    }

    #[test]
    fn parses_aggregates_and_grouping() {
        round_trip_select(
            "SELECT classid, AVG(score), COUNT(*) FROM t0 GROUP BY classid \
             HAVING COUNT(*) > 1 ORDER BY 2 DESC LIMIT 3 OFFSET 1",
        );
        round_trip_select("SELECT COUNT(DISTINCT c0) FROM t0");
    }

    #[test]
    fn parses_dml() {
        let stmts = parse_statements(
            "UPDATE t0 SET c0 = 1, c1 = c1 + 1 WHERE c0 IS NOT NULL; \
             DELETE FROM t0 WHERE c0 IN (1,2); \
             INSERT INTO ot0 SELECT t0.c0 AS c0 FROM t0 WHERE VERSION() >= t0.c0;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(matches!(stmts[0], Statement::Update { .. }));
        assert!(matches!(stmts[1], Statement::Delete { .. }));
        assert!(matches!(
            stmts[2],
            Statement::Insert {
                source: InsertSource::Query(_),
                ..
            }
        ));
    }

    #[test]
    fn double_negative_literals() {
        let e = parse_expr("((-1314689763) + (-1947665992)) <= (FALSE)").unwrap();
        match e {
            Expr::Binary {
                op: BinaryOp::Le, ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn not_precedence() {
        // NOT binds looser than comparison: NOT a = b is NOT(a = b).
        let e = parse_expr("NOT c0 = 1").unwrap();
        assert!(matches!(
            e,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(parse_select("SELECT 1 nonsense extra ,").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_statements("FROB x").is_err());
    }

    /// Every recursive construct and every chain link counts toward
    /// [`MAX_DEPTH`]: input nested or chained far past it is a parse
    /// error, not a stack overflow that aborts the process — on a 2 MiB
    /// thread, in a debug build too — while moderately nested or chained
    /// SQL still parses.
    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // (prefix, opening, innermost, closing) of one nesting level or
        // chain link.
        const SHAPES: &[(&str, &str, &str, &str)] = &[
            ("SELECT ", "1 + ", "1", ""),
            ("SELECT ", "2 * ", "1", ""),
            ("SELECT ", "'a' || ", "'a'", ""),
            ("SELECT ", "1 = ", "1", ""),
            ("SELECT ", "1 IS ", "1", ""),
            ("SELECT ", "0 OR ", "1", ""),
            ("SELECT c0 FROM t WHERE ", "c0 > 1 AND ", "c0 > 1", ""),
            ("", "SELECT 1 UNION ALL ", "SELECT 1", ""),
            ("SELECT * FROM ", "t, ", "t", ""),
            ("SELECT * FROM t", " LEFT JOIN t ON 1", "", ""),
            ("SELECT ", "(", "1", ")"),
            ("SELECT ", "NOT ", "1", ""),
            ("SELECT ", "- ", "c", ""),
            ("SELECT ", "(SELECT ", "1", ")"),
            ("SELECT ", "EXISTS (SELECT ", "1", ")"),
            ("SELECT ", "1 IN (SELECT ", "1", ")"),
            ("SELECT ", "CASE WHEN ", "1", " THEN 1 END"),
            ("SELECT ", "ABS(", "1", ")"),
            ("SELECT * FROM ", "(", "t", ")"),
            ("", "SELECT * FROM (", "SELECT 1", ") AS d"),
            ("", "WITH a AS (", "SELECT 1", ") SELECT 1"),
        ];
        let check = || {
            for (prefix, open, inner, close) in SHAPES {
                let sql =
                    |n: usize| format!("{prefix}{}{inner}{}", open.repeat(n), close.repeat(n));
                parse_statements(&sql(20)).unwrap_or_else(|e| panic!("{}: {e}", sql(20)));
                match parse_statements(&sql(10_000)) {
                    Err(Error::Parse(m)) => assert!(m.contains("maximum depth"), "{m}"),
                    other => panic!("{prefix}{open}...: {other:?}"),
                }
            }
            let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
            assert!(parse_expr(&parens(MAX_DEPTH - 1)).is_ok());
            assert!(matches!(
                parse_expr(&parens(MAX_DEPTH)),
                Err(Error::Parse(_))
            ));
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(check)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn set_ops_are_left_associative() {
        let s = parse_select("SELECT 1 UNION SELECT 2 UNION ALL SELECT 3").unwrap();
        match &s.body {
            SelectBody::SetOp {
                op: SetOp::Union,
                all: true,
                left,
                ..
            } => {
                assert!(matches!(
                    **left,
                    SelectBody::SetOp {
                        op: SetOp::Union,
                        all: false,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
