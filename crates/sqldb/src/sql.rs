//! The SQL-subset lexer and parser.
//!
//! Covers the statements the ShadowDB workloads (bank micro-benchmark and
//! TPC-C) and the recovery machinery need: `CREATE TABLE` with (composite)
//! primary keys, `CREATE INDEX`, multi-row `INSERT`, `SELECT` with `WHERE`
//! conjunctions/disjunctions, `ORDER BY`, `LIMIT`, `FOR UPDATE`, and
//! aggregates (`COUNT(*)`, `COUNT(DISTINCT c)`, `SUM`, `MIN`, `MAX`,
//! `AVG`), plus `UPDATE` and `DELETE`.

use crate::expr::{ArithOp, CmpOp, Expr};
use crate::schema::{Column, DataType, TableSchema};
use crate::value::SqlValue;
use crate::{Result, SqlError};

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Real(f64),
    Str(String),
    Sym(&'static str),
    /// A placeholder of a statement shape (see [`shape`]), numbered in
    /// order of appearance.
    Param(usize),
}

/// One lexeme as the scanner sees it; identifiers borrow the input.
enum Lexeme<'a> {
    Ident(&'a str),
    Int(i64),
    Real(f64),
    Str(String),
    Sym(&'static str),
    Param,
}

/// The one SQL scanner: calls `emit` with each lexeme and its byte span.
/// With `params`, a `?` followed by a type letter (`i`, `r` or `s`, as
/// [`shape`] writes them) scans as a placeholder; otherwise `?` is an
/// error, as in any statement text.
fn scan<'a>(
    input: &'a str,
    params: bool,
    mut emit: impl FnMut(Lexeme<'a>, usize, usize),
) -> Result<()> {
    let b = input.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        let c = b[i] as char;
        let lexeme = match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
                continue;
            }
            '(' | ')' | ',' | '+' | '-' | '*' | '/' | '.' | ';' | '=' => {
                i += 1;
                Lexeme::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    '.' => ".",
                    '=' => "=",
                    _ => ";",
                })
            }
            '<' | '>' | '!' => {
                let sym = match (c, b.get(i + 1)) {
                    ('<', Some(b'=')) => "<=",
                    ('<', Some(b'>')) | ('!', Some(b'=')) => "<>",
                    ('>', Some(b'=')) => ">=",
                    ('<', _) => "<",
                    ('>', _) => ">",
                    _ => return Err(SqlError::Parse("stray '!'".into())),
                };
                i += if sym.len() == 2 { 2 } else { 1 };
                Lexeme::Sym(sym)
            }
            '?' if params && matches!(b.get(i + 1), Some(b'i' | b'r' | b's')) => {
                i += 2;
                Lexeme::Param
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match b.get(i) {
                        Some(b'\'') if b.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch as char);
                            i += 1;
                        }
                        None => return Err(SqlError::Parse("unterminated string".into())),
                    }
                }
                Lexeme::Str(s)
            }
            '0'..='9' => {
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let real =
                    i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit);
                if real {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                let bad = || SqlError::Parse(format!("bad number {text}"));
                if real {
                    Lexeme::Real(text.parse().map_err(|_| bad())?)
                } else {
                    Lexeme::Int(text.parse().map_err(|_| bad())?)
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                Lexeme::Ident(&input[start..i])
            }
            other => return Err(SqlError::Parse(format!("unexpected character {other:?}"))),
        };
        emit(lexeme, start, i);
    }
    Ok(())
}

fn lex(input: &str, params: bool) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let mut n = 0;
    scan(input, params, |l, _, _| {
        out.push(match l {
            Lexeme::Ident(w) => Tok::Ident(w.to_lowercase()),
            Lexeme::Int(v) => Tok::Int(v),
            Lexeme::Real(v) => Tok::Real(v),
            Lexeme::Str(v) => Tok::Str(v),
            Lexeme::Sym(s) => Tok::Sym(s),
            Lexeme::Param => {
                n += 1;
                Tok::Param(n - 1)
            }
        })
    })?;
    Ok(out)
}

/// Splits a statement into its *shape* and its literal values, in one
/// scan: every numeric or string literal in `input` is replaced by a
/// typed placeholder (`?i`, `?r`, `?s`) in the returned key and its value
/// is appended to the returned list. Statements that differ only in
/// their literal values share a key, so the engine parses and plans
/// each shape once and binds the values per execution.
///
/// Structural literals stay in the key: a `LIMIT` count (it sizes the
/// result, not a predicate) and everything in DDL (`CREATE`/`DROP`).
///
/// # Errors
///
/// Returns [`SqlError::Parse`] exactly where [`parse`] would fail to lex.
pub fn shape(input: &str) -> Result<(String, Vec<SqlValue>)> {
    let mut key = String::with_capacity(input.len());
    let mut values = Vec::new();
    let mut copied = 0;
    let mut ddl = None;
    let mut after_limit = false;
    scan(input, false, |l, start, end| {
        let ddl = *ddl.get_or_insert_with(|| {
            matches!(l, Lexeme::Ident(w) if w.eq_ignore_ascii_case("create")
                || w.eq_ignore_ascii_case("drop"))
        });
        let limit_count = std::mem::replace(
            &mut after_limit,
            matches!(l, Lexeme::Ident(w) if w.eq_ignore_ascii_case("limit")),
        );
        if ddl || limit_count {
            return;
        }
        let (marker, v) = match l {
            Lexeme::Int(v) => ("?i", SqlValue::Int(v)),
            Lexeme::Real(v) => ("?r", SqlValue::Real(v)),
            Lexeme::Str(v) => ("?s", SqlValue::Text(v)),
            _ => return,
        };
        key.push_str(&input[copied..start]);
        key.push_str(marker);
        values.push(v);
        copied = end;
    })?;
    key.push_str(&input[copied..]);
    Ok((key, values))
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// An unresolved expression (column names, not indices).
#[derive(Clone, Debug, PartialEq)]
pub enum ExprAst {
    /// Column reference by name.
    Col(String),
    /// Literal value.
    Lit(SqlValue),
    /// The `i`-th literal value of a statement shape, bound per execution.
    Param(usize),
    /// Arithmetic.
    Arith(ArithOp, Box<ExprAst>, Box<ExprAst>),
    /// Comparison.
    Cmp(CmpOp, Box<ExprAst>, Box<ExprAst>),
    /// Conjunction.
    And(Box<ExprAst>, Box<ExprAst>),
    /// Disjunction.
    Or(Box<ExprAst>, Box<ExprAst>),
    /// Negation.
    Not(Box<ExprAst>),
}

impl ExprAst {
    /// Resolves column names against a schema.
    pub fn bind(&self, schema: &TableSchema) -> Result<Expr> {
        self.bind_with(&|name| schema.col(name))
    }

    /// Binds a schema-free expression (literals, parameters and
    /// arithmetic only); a column reference is an unknown column.
    pub fn bind_const(&self) -> Result<Expr> {
        self.bind_with(&|name| Err(SqlError::Unknown(format!("column {name}"))))
    }

    fn bind_with(&self, col: &dyn Fn(&str) -> Result<usize>) -> Result<Expr> {
        let b = |e: &ExprAst| e.bind_with(col).map(Box::new);
        Ok(match self {
            ExprAst::Col(name) => Expr::Col(col(name)?),
            ExprAst::Lit(v) => Expr::Lit(v.clone()),
            ExprAst::Param(i) => Expr::Param(*i),
            ExprAst::Arith(op, x, y) => Expr::Arith(*op, b(x)?, b(y)?),
            ExprAst::Cmp(op, x, y) => Expr::Cmp(*op, b(x)?, b(y)?),
            ExprAst::And(x, y) => Expr::And(b(x)?, b(y)?),
            ExprAst::Or(x, y) => Expr::Or(b(x)?, b(y)?),
            ExprAst::Not(x) => Expr::Not(b(x)?),
        })
    }

    /// Evaluates a schema-free expression (literals and arithmetic only).
    pub fn eval_const(&self) -> Result<SqlValue> {
        self.bind_const()?.eval(&[], &[])
    }
}

/// An aggregate function in a projection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(col)` (non-NULL count)
    Count(String),
    /// `COUNT(DISTINCT col)`
    CountDistinct(String),
    /// `SUM(col)`
    Sum(String),
    /// `MIN(col)`
    Min(String),
    /// `MAX(col)`
    Max(String),
    /// `AVG(col)`
    Avg(String),
}

/// What a `SELECT` projects.
#[derive(Clone, Debug, PartialEq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// A list of columns.
    Cols(Vec<String>),
    /// A list of aggregates.
    Aggregates(Vec<Aggregate>),
}

/// A parsed `SELECT`.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    /// Source table.
    pub table: String,
    /// Projection.
    pub projection: Projection,
    /// Optional filter.
    pub filter: Option<ExprAst>,
    /// Optional `(column, descending)` ordering.
    pub order_by: Option<(String, bool)>,
    /// Optional row limit.
    pub limit: Option<usize>,
    /// Whether `FOR UPDATE` was given (takes exclusive locks).
    pub for_update: bool,
}

/// A parsed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE`.
    CreateTable(TableSchema),
    /// `CREATE INDEX name ON table (cols)`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed columns, in order.
        columns: Vec<String>,
    },
    /// `INSERT INTO table VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Rows of constant expressions.
        rows: Vec<Vec<ExprAst>>,
    },
    /// `SELECT`.
    Select(SelectStmt),
    /// `UPDATE table SET col = expr, … [WHERE …]`.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, ExprAst)>,
        /// Optional filter.
        filter: Option<ExprAst>,
    },
    /// `DELETE FROM table [WHERE …]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        filter: Option<ExprAst>,
    },
    /// `DROP TABLE table`.
    DropTable {
        /// Dropped table.
        table: String,
    },
}

/// Parses one SQL statement.
///
/// # Errors
///
/// Returns [`SqlError::Parse`] on any lexical or grammatical problem.
pub fn parse(input: &str) -> Result<Statement> {
    parse_tokens(lex(input, false)?)
}

/// Parses a statement shape produced by [`shape`]: each placeholder
/// becomes [`ExprAst::Param`], numbered in order of appearance, which is
/// the order of the values [`shape`] returned.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_shape(key: &str) -> Result<Statement> {
    parse_tokens(lex(key, true)?)
}

fn parse_tokens(toks: Vec<Tok>) -> Result<Statement> {
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";").ok();
    if p.pos != p.toks.len() {
        return Err(SqlError::Parse(format!(
            "trailing input at token {}",
            p.pos
        )));
    }
    Ok(stmt)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SqlError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> Result<()> {
        match self.next()? {
            Tok::Ident(w) if w == kw => Ok(()),
            other => Err(SqlError::Parse(format!("expected {kw}, got {other:?}"))),
        }
    }

    fn try_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(w)) if w == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, s: &str) -> Result<()> {
        match self.next()? {
            Tok::Sym(t) if t == s => Ok(()),
            other => Err(SqlError::Parse(format!("expected {s:?}, got {other:?}"))),
        }
    }

    fn try_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(w) => Ok(w),
            other => Err(SqlError::Parse(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.next()? {
            Tok::Ident(w) if w == "create" => self.create(),
            Tok::Ident(w) if w == "insert" => self.insert(),
            Tok::Ident(w) if w == "select" => self.select().map(Statement::Select),
            Tok::Ident(w) if w == "update" => self.update(),
            Tok::Ident(w) if w == "delete" => self.delete(),
            Tok::Ident(w) if w == "drop" => {
                self.eat_kw("table")?;
                Ok(Statement::DropTable {
                    table: self.ident()?,
                })
            }
            other => Err(SqlError::Parse(format!(
                "unknown statement start {other:?}"
            ))),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        if self.try_kw("table") {
            return self.create_table();
        }
        self.eat_kw("index")?;
        let name = self.ident()?;
        self.eat_kw("on")?;
        let table = self.ident()?;
        self.eat_sym("(")?;
        let mut columns = vec![self.ident()?];
        while self.try_sym(",") {
            columns.push(self.ident()?);
        }
        self.eat_sym(")")?;
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
        })
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.eat_sym("(")?;
        let mut columns = Vec::new();
        let mut pk: Vec<String> = Vec::new();
        loop {
            if self.try_kw("primary") {
                self.eat_kw("key")?;
                self.eat_sym("(")?;
                pk.push(self.ident()?);
                while self.try_sym(",") {
                    pk.push(self.ident()?);
                }
                self.eat_sym(")")?;
            } else {
                let col = self.ident()?;
                let dtype = self.data_type()?;
                if self.try_kw("primary") {
                    self.eat_kw("key")?;
                    pk.push(col.clone());
                }
                if self.try_kw("not") {
                    self.eat_kw("null")?;
                }
                columns.push(Column { name: col, dtype });
            }
            if !self.try_sym(",") {
                break;
            }
        }
        self.eat_sym(")")?;
        let pk_idx: Result<Vec<usize>> = pk
            .iter()
            .map(|n| {
                columns
                    .iter()
                    .position(|c| c.name == *n)
                    .ok_or_else(|| SqlError::Parse(format!("primary key column {n} undefined")))
            })
            .collect();
        Ok(Statement::CreateTable(TableSchema::new(
            &name, columns, pk_idx?,
        )?))
    }

    fn data_type(&mut self) -> Result<DataType> {
        let ty = self.ident()?;
        let dtype = match ty.as_str() {
            "int" | "integer" | "bigint" | "smallint" | "tinyint" => DataType::Int,
            "real" | "double" | "float" | "decimal" | "numeric" => DataType::Real,
            "text" | "varchar" | "char" | "clob" => DataType::Text,
            other => return Err(SqlError::Parse(format!("unknown type {other}"))),
        };
        // Optional length/precision arguments: VARCHAR(16), DECIMAL(12, 2).
        if self.try_sym("(") {
            loop {
                match self.next()? {
                    Tok::Int(_) => {}
                    other => return Err(SqlError::Parse(format!("bad type argument {other:?}"))),
                }
                if !self.try_sym(",") {
                    break;
                }
            }
            self.eat_sym(")")?;
        }
        Ok(dtype)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.eat_kw("into")?;
        let table = self.ident()?;
        self.eat_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.eat_sym("(")?;
            let mut row = vec![self.expr()?];
            while self.try_sym(",") {
                row.push(self.expr()?);
            }
            self.eat_sym(")")?;
            rows.push(row);
            if !self.try_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        let projection = self.projection()?;
        self.eat_kw("from")?;
        let table = self.ident()?;
        let filter = if self.try_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.try_kw("order") {
            self.eat_kw("by")?;
            let col = self.ident()?;
            let desc = if self.try_kw("desc") {
                true
            } else {
                self.try_kw("asc");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.try_kw("limit") {
            match self.next()? {
                Tok::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(SqlError::Parse(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        let for_update = if self.try_kw("for") {
            self.eat_kw("update")?;
            true
        } else {
            false
        };
        Ok(SelectStmt {
            table,
            projection,
            filter,
            order_by,
            limit,
            for_update,
        })
    }

    fn projection(&mut self) -> Result<Projection> {
        if self.try_sym("*") {
            return Ok(Projection::Star);
        }
        // Either a list of aggregates or a list of plain columns.
        const AGGS: [&str; 5] = ["count", "sum", "min", "max", "avg"];
        let is_agg = matches!(self.peek(), Some(Tok::Ident(w)) if AGGS.contains(&w.as_str()))
            && matches!(self.toks.get(self.pos + 1), Some(Tok::Sym("(")));
        if is_agg {
            let mut aggs = vec![self.aggregate()?];
            while self.try_sym(",") {
                aggs.push(self.aggregate()?);
            }
            Ok(Projection::Aggregates(aggs))
        } else {
            let mut cols = vec![self.ident()?];
            while self.try_sym(",") {
                cols.push(self.ident()?);
            }
            Ok(Projection::Cols(cols))
        }
    }

    fn aggregate(&mut self) -> Result<Aggregate> {
        let f = self.ident()?;
        self.eat_sym("(")?;
        let agg = match f.as_str() {
            "count" => {
                if self.try_sym("*") {
                    Aggregate::CountStar
                } else if self.try_kw("distinct") {
                    Aggregate::CountDistinct(self.ident()?)
                } else {
                    Aggregate::Count(self.ident()?)
                }
            }
            "sum" => Aggregate::Sum(self.ident()?),
            "min" => Aggregate::Min(self.ident()?),
            "max" => Aggregate::Max(self.ident()?),
            "avg" => Aggregate::Avg(self.ident()?),
            other => return Err(SqlError::Parse(format!("unknown aggregate {other}"))),
        };
        self.eat_sym(")")?;
        Ok(agg)
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.eat_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.eat_sym("=")?;
            sets.push((col, self.expr()?));
            if !self.try_sym(",") {
                break;
            }
        }
        let filter = if self.try_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.eat_kw("from")?;
        let table = self.ident()?;
        let filter = if self.try_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // Expression grammar: or > and > not > cmp > add > mul > primary.
    fn expr(&mut self) -> Result<ExprAst> {
        let mut e = self.and_expr()?;
        while self.try_kw("or") {
            e = ExprAst::Or(Box::new(e), Box::new(self.and_expr()?));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<ExprAst> {
        let mut e = self.not_expr()?;
        while self.try_kw("and") {
            e = ExprAst::And(Box::new(e), Box::new(self.not_expr()?));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<ExprAst> {
        if self.try_kw("not") {
            Ok(ExprAst::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<ExprAst> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Sym("=")) => Some(CmpOp::Eq),
            Some(Tok::Sym("<>")) => Some(CmpOp::Ne),
            Some(Tok::Sym("<")) => Some(CmpOp::Lt),
            Some(Tok::Sym("<=")) => Some(CmpOp::Le),
            Some(Tok::Sym(">")) => Some(CmpOp::Gt),
            Some(Tok::Sym(">=")) => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                Ok(ExprAst::Cmp(op, Box::new(lhs), Box::new(self.add_expr()?)))
            }
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<ExprAst> {
        let mut e = self.mul_expr()?;
        loop {
            if self.try_sym("+") {
                e = ExprAst::Arith(ArithOp::Add, Box::new(e), Box::new(self.mul_expr()?));
            } else if self.try_sym("-") {
                e = ExprAst::Arith(ArithOp::Sub, Box::new(e), Box::new(self.mul_expr()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<ExprAst> {
        let mut e = self.primary()?;
        loop {
            if self.try_sym("*") {
                e = ExprAst::Arith(ArithOp::Mul, Box::new(e), Box::new(self.primary()?));
            } else if self.try_sym("/") {
                e = ExprAst::Arith(ArithOp::Div, Box::new(e), Box::new(self.primary()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<ExprAst> {
        match self.next()? {
            Tok::Int(n) => Ok(ExprAst::Lit(SqlValue::Int(n))),
            Tok::Real(r) => Ok(ExprAst::Lit(SqlValue::Real(r))),
            Tok::Str(s) => Ok(ExprAst::Lit(SqlValue::Text(s))),
            Tok::Param(i) => Ok(ExprAst::Param(i)),
            Tok::Ident(w) if w == "null" => Ok(ExprAst::Lit(SqlValue::Null)),
            Tok::Ident(w) => Ok(ExprAst::Col(w)),
            Tok::Sym("(") => {
                let e = self.expr()?;
                self.eat_sym(")")?;
                Ok(e)
            }
            Tok::Sym("-") => {
                // Unary minus on a numeric literal or expression.
                let e = self.primary()?;
                Ok(ExprAst::Arith(
                    ArithOp::Sub,
                    Box::new(ExprAst::Lit(SqlValue::Int(0))),
                    Box::new(e),
                ))
            }
            other => Err(SqlError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_inline_pk() {
        let s = parse("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(16), bal DECIMAL(12,2))")
            .unwrap();
        match s {
            Statement::CreateTable(schema) => {
                assert_eq!(schema.name, "t");
                assert_eq!(schema.primary_key, vec![0]);
                assert_eq!(schema.columns[1].dtype, DataType::Text);
                assert_eq!(schema.columns[2].dtype, DataType::Real);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_table_composite_pk() {
        let s = parse("CREATE TABLE o (w INT, d INT, id INT, PRIMARY KEY (w, d, id))").unwrap();
        match s {
            Statement::CreateTable(schema) => assert_eq!(schema.primary_key, vec![0, 1, 2]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t VALUES (1, 'a''b', 2.5), (2, 'c', -3)").unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][1], ExprAst::Lit(SqlValue::Text("a'b".into())));
                assert_eq!(rows[1][2].eval_const().unwrap(), SqlValue::Int(-3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_with_everything() {
        let s = parse(
            "SELECT a, b FROM t WHERE a = 1 AND b > 2 OR NOT c <> 3 \
             ORDER BY b DESC LIMIT 10 FOR UPDATE",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.table, "t");
                assert_eq!(
                    sel.projection,
                    Projection::Cols(vec!["a".into(), "b".into()])
                );
                assert!(sel.filter.is_some());
                assert_eq!(sel.order_by, Some(("b".into(), true)));
                assert_eq!(sel.limit, Some(10));
                assert!(sel.for_update);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_aggregates() {
        let s = parse("SELECT COUNT(DISTINCT s_i_id), SUM(amount), MAX(o_id) FROM t").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(
                    sel.projection,
                    Projection::Aggregates(vec![
                        Aggregate::CountDistinct("s_i_id".into()),
                        Aggregate::Sum("amount".into()),
                        Aggregate::Max("o_id".into()),
                    ])
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        let s = parse("UPDATE t SET bal = bal + 10, n = 'x' WHERE id = 3").unwrap();
        match s {
            Statement::Update { sets, filter, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("{other:?}"),
        }
        let s = parse("DELETE FROM t WHERE id >= 5").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
    }

    #[test]
    fn drop_table() {
        let s = parse("DROP TABLE accounts").unwrap();
        assert_eq!(
            s,
            Statement::DropTable {
                table: "accounts".into()
            }
        );
        assert!(matches!(parse("DROP accounts"), Err(SqlError::Parse(_))));
    }

    #[test]
    fn create_index() {
        let s = parse("CREATE INDEX idx_cust ON customer (c_w_id, c_d_id, c_last)").unwrap();
        match s {
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => {
                assert_eq!(name, "idx_cust");
                assert_eq!(table, "customer");
                assert_eq!(columns.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_reported() {
        assert!(matches!(parse("SELEC a FROM t"), Err(SqlError::Parse(_))));
        assert!(matches!(parse("SELECT FROM t"), Err(SqlError::Parse(_))));
        assert!(matches!(
            parse("INSERT INTO t VALUES (1"),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(
            parse("SELECT a FROM t WHERE a = 'unterminated"),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(
            parse("SELECT a FROM t extra junk"),
            Err(SqlError::Parse(_))
        ));
    }

    #[test]
    fn shape_replaces_literals_with_typed_placeholders() {
        let (key, vals) =
            shape("SELECT a FROM t WHERE a = -12 AND b > 2.50 AND c <> 'it''s' LIMIT 7").unwrap();
        assert_eq!(
            key,
            "SELECT a FROM t WHERE a = -?i AND b > ?r AND c <> ?s LIMIT 7"
        );
        assert_eq!(
            vals,
            vec![
                SqlValue::Int(12),
                SqlValue::Real(2.5),
                SqlValue::from("it's")
            ]
        );
        // Statements differing only in their literals share a key…
        let (other, _) =
            shape("SELECT a FROM t WHERE a = -3 AND b > 0.1 AND c <> 'x' LIMIT 7").unwrap();
        assert_eq!(other, key);
        // …but not across literal types, LIMIT counts, or NULL.
        for sql in [
            "SELECT a FROM t WHERE a = -3.0 AND b > 0.1 AND c <> 'x' LIMIT 7",
            "SELECT a FROM t WHERE a = -3 AND b > 0.1 AND c <> 'x' LIMIT 8",
            "SELECT a FROM t WHERE a = -3 AND b > NULL AND c <> 'x' LIMIT 7",
        ] {
            assert_ne!(shape(sql).unwrap().0, key, "{sql}");
        }
    }

    #[test]
    fn shape_keeps_ddl_literal_and_parses_back() {
        let ddl = "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(16))";
        assert_eq!(shape(ddl).unwrap(), (ddl.to_string(), vec![]));
        // Keywords inside string literals never reach the key.
        let sql = "INSERT INTO t VALUES (1, 'select * from t where ?i'), (2+3, 'b')";
        let (key, vals) = shape(sql).unwrap();
        assert_eq!(key, "INSERT INTO t VALUES (?i, ?s), (?i+?i, ?s)");
        assert_eq!(vals.len(), 5);
        let Statement::Insert { rows, .. } = parse_shape(&key).unwrap() else {
            panic!("not an insert")
        };
        assert_eq!(rows[1][0], {
            let p = |i| Box::new(ExprAst::Param(i));
            ExprAst::Arith(ArithOp::Add, p(2), p(3))
        });
    }

    #[test]
    fn shape_fails_where_parse_fails_to_lex() {
        for sql in [
            "SELECT a FROM t WHERE a = ?i",
            "SELECT a FROM t WHERE a = 'open",
            "SELECT a FROM t WHERE a = 99999999999999999999",
            "SELECT a FROM t WHERE a ! 1",
        ] {
            assert!(matches!(shape(sql), Err(SqlError::Parse(_))), "{sql}");
            assert_eq!(shape(sql).unwrap_err(), parse(sql).unwrap_err(), "{sql}");
        }
    }

    #[test]
    fn operator_precedence() {
        // a + b * 2 = 7 parses as (a + (b*2)) = 7.
        let s = parse("SELECT a FROM t WHERE a + b * 2 = 7").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let ExprAst::Cmp(CmpOp::Eq, lhs, _) = sel.filter.unwrap() else {
            panic!()
        };
        assert!(matches!(*lhs, ExprAst::Arith(ArithOp::Add, _, _)));
    }
}
