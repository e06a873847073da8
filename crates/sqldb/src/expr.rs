//! Scalar expressions and predicates.

use crate::value::SqlValue;
use crate::{Result, SqlError};
use std::ops::Bound;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped: `a < b` iff `b > a`.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            op => op,
        }
    }

    /// Applies the comparison (NULL compares false against everything,
    /// as in SQL's three-valued logic collapsed to boolean).
    pub fn apply(self, a: &SqlValue, b: &SqlValue) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A column reference, resolved to an index at bind time.
    Col(usize),
    /// A literal.
    Lit(SqlValue),
    /// The `i`-th bound value of the executing statement.
    Param(usize),
    /// Arithmetic on two sub-expressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Comparison producing a boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Evaluates the expression over a row, with `params` bound to the
    /// statement's [`Expr::Param`] slots.
    pub fn eval(&self, row: &[SqlValue], params: &[SqlValue]) -> Result<SqlValue> {
        Ok(match self {
            Expr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| SqlError::Unknown(format!("column index {i}")))?,
            Expr::Lit(v) => v.clone(),
            Expr::Param(i) => params
                .get(*i)
                .cloned()
                .ok_or_else(|| SqlError::Parse(format!("unbound parameter {i}")))?,
            Expr::Arith(op, a, b) => {
                let a = a.eval(row, params)?;
                let b = b.eval(row, params)?;
                if a.is_null() || b.is_null() {
                    return Ok(SqlValue::Null);
                }
                match (&a, &b) {
                    (SqlValue::Int(x), SqlValue::Int(y)) => match op {
                        ArithOp::Add => SqlValue::Int(x + y),
                        ArithOp::Sub => SqlValue::Int(x - y),
                        ArithOp::Mul => SqlValue::Int(x * y),
                        ArithOp::Div => {
                            if *y == 0 {
                                SqlValue::Null
                            } else {
                                SqlValue::Int(x / y)
                            }
                        }
                    },
                    _ => {
                        let x = a
                            .as_real()
                            .ok_or_else(|| SqlError::Constraint(format!("arithmetic on {a}")))?;
                        let y = b
                            .as_real()
                            .ok_or_else(|| SqlError::Constraint(format!("arithmetic on {b}")))?;
                        match op {
                            ArithOp::Add => SqlValue::Real(x + y),
                            ArithOp::Sub => SqlValue::Real(x - y),
                            ArithOp::Mul => SqlValue::Real(x * y),
                            ArithOp::Div => SqlValue::Real(x / y),
                        }
                    }
                }
            }
            Expr::Cmp(op, a, b) => {
                SqlValue::Int(op.apply(&a.eval(row, params)?, &b.eval(row, params)?) as i64)
            }
            Expr::And(a, b) => SqlValue::Int(
                (truthy(&a.eval(row, params)?) && truthy(&b.eval(row, params)?)) as i64,
            ),
            Expr::Or(a, b) => SqlValue::Int(
                (truthy(&a.eval(row, params)?) || truthy(&b.eval(row, params)?)) as i64,
            ),
            Expr::Not(a) => SqlValue::Int(!truthy(&a.eval(row, params)?) as i64),
        })
    }

    /// Evaluates as a predicate.
    pub fn matches(&self, row: &[SqlValue], params: &[SqlValue]) -> Result<bool> {
        Ok(truthy(&self.eval(row, params)?))
    }

    /// If this predicate pins a prefix of the key columns `key` with
    /// equalities, returns the pinning operands in key order (used for
    /// index lookups). Only conjuncts `col = literal` or `col = parameter`
    /// participate, so the result depends on the statement's shape, never
    /// on the values bound to it.
    pub fn pk_prefix(&self, key: &[usize]) -> Vec<Expr> {
        let mut eqs = Vec::new();
        self.collect_bounds(&mut eqs);
        let mut prefix = Vec::new();
        for &k in key {
            match eqs.iter().find(|(c, op, _)| *c == k && *op == CmpOp::Eq) {
                Some((_, _, v)) => prefix.push((*v).clone()),
                None => break,
            }
        }
        prefix
    }

    /// The first lower and first upper bound this predicate's conjuncts
    /// put on column `col` (`col >= v`, `v < col`, …), as operands. The
    /// other conjuncts still filter, so a bound only needs to be implied
    /// by the predicate, not to be the tightest.
    pub fn key_bounds(&self, col: usize) -> (Bound<Expr>, Bound<Expr>) {
        let mut cmps = Vec::new();
        self.collect_bounds(&mut cmps);
        let mut bounds = (Bound::Unbounded, Bound::Unbounded);
        for (_, op, v) in cmps.into_iter().filter(|(c, ..)| *c == col) {
            let (slot, bound) = match op {
                CmpOp::Ge => (&mut bounds.0, Bound::Included(v.clone())),
                CmpOp::Gt => (&mut bounds.0, Bound::Excluded(v.clone())),
                CmpOp::Le => (&mut bounds.1, Bound::Included(v.clone())),
                CmpOp::Lt => (&mut bounds.1, Bound::Excluded(v.clone())),
                CmpOp::Eq | CmpOp::Ne => continue,
            };
            if matches!(slot, Bound::Unbounded) {
                *slot = bound;
            }
        }
        bounds
    }

    /// Collects the conjuncts comparing a column with an operand (a
    /// literal or a parameter), normalised to `col op operand`.
    fn collect_bounds<'a>(&'a self, out: &mut Vec<(usize, CmpOp, &'a Expr)>) {
        match self {
            Expr::And(a, b) => {
                a.collect_bounds(out);
                b.collect_bounds(out);
            }
            Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), v @ (Expr::Lit(_) | Expr::Param(_))) => out.push((*c, *op, v)),
                (v @ (Expr::Lit(_) | Expr::Param(_)), Expr::Col(c)) => {
                    out.push((*c, op.flipped(), v))
                }
                _ => {}
            },
            _ => {}
        }
    }
}

fn truthy(v: &SqlValue) -> bool {
    match v {
        SqlValue::Null => false,
        SqlValue::Int(i) => *i != 0,
        SqlValue::Real(r) => *r != 0.0,
        SqlValue::Text(s) => !s.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, TableSchema};

    fn lit(i: i64) -> Box<Expr> {
        Box::new(Expr::Lit(SqlValue::Int(i)))
    }
    fn col(i: usize) -> Box<Expr> {
        Box::new(Expr::Col(i))
    }

    #[test]
    fn arithmetic_and_comparison() {
        let row = vec![SqlValue::Int(10), SqlValue::Real(2.5)];
        let e = Expr::Arith(ArithOp::Add, col(0), lit(5));
        assert_eq!(e.eval(&row, &[]).unwrap(), SqlValue::Int(15));
        let e = Expr::Arith(ArithOp::Mul, col(0), col(1));
        assert_eq!(e.eval(&row, &[]).unwrap(), SqlValue::Real(25.0));
        let e = Expr::Cmp(CmpOp::Gt, col(0), lit(3));
        assert!(e.matches(&row, &[]).unwrap());
    }

    #[test]
    fn null_propagates_and_compares_false() {
        let row = vec![SqlValue::Null];
        let e = Expr::Arith(ArithOp::Add, col(0), lit(1));
        assert_eq!(e.eval(&row, &[]).unwrap(), SqlValue::Null);
        let e = Expr::Cmp(CmpOp::Eq, col(0), col(0));
        assert!(!e.matches(&row, &[]).unwrap());
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::Arith(ArithOp::Div, lit(5), lit(0));
        assert_eq!(e.eval(&[], &[]).unwrap(), SqlValue::Null);
    }

    #[test]
    fn boolean_connectives() {
        let t = Expr::Cmp(CmpOp::Eq, lit(1), lit(1));
        let f = Expr::Cmp(CmpOp::Eq, lit(1), lit(2));
        assert!(Expr::And(Box::new(t.clone()), Box::new(t.clone()))
            .matches(&[], &[])
            .unwrap());
        assert!(!Expr::And(Box::new(t.clone()), Box::new(f.clone()))
            .matches(&[], &[])
            .unwrap());
        assert!(Expr::Or(Box::new(f.clone()), Box::new(t.clone()))
            .matches(&[], &[])
            .unwrap());
        assert!(Expr::Not(Box::new(f)).matches(&[], &[]).unwrap());
        let _ = t;
    }

    #[test]
    fn parameters_bind_per_evaluation() {
        let e = Expr::Arith(ArithOp::Add, col(0), Box::new(Expr::Param(1)));
        let row = vec![SqlValue::Int(10)];
        let params = [SqlValue::Null, SqlValue::Int(5)];
        assert_eq!(e.eval(&row, &params).unwrap(), SqlValue::Int(15));
        assert!(matches!(e.eval(&row, &[]), Err(SqlError::Parse(_))));
    }

    #[test]
    fn key_bounds_normalise_operand_side() {
        // 5 < c AND c <= ?0 AND c < 9: first lower and first upper bound.
        let e = Expr::And(
            Box::new(Expr::And(
                Box::new(Expr::Cmp(CmpOp::Lt, lit(5), col(2))),
                Box::new(Expr::Cmp(CmpOp::Le, col(2), Box::new(Expr::Param(0)))),
            )),
            Box::new(Expr::Cmp(CmpOp::Lt, col(2), lit(9))),
        );
        assert_eq!(
            e.key_bounds(2),
            (Bound::Excluded(*lit(5)), Bound::Included(Expr::Param(0)))
        );
        assert_eq!(e.key_bounds(0), (Bound::Unbounded, Bound::Unbounded));
    }

    #[test]
    fn pk_prefix_detection() {
        let schema = TableSchema::new(
            "t",
            vec![
                Column {
                    name: "a".into(),
                    dtype: DataType::Int,
                },
                Column {
                    name: "b".into(),
                    dtype: DataType::Int,
                },
                Column {
                    name: "c".into(),
                    dtype: DataType::Int,
                },
            ],
            vec![0, 1],
        )
        .unwrap();
        // a = 1 AND b = 2 → full key prefix.
        let e = Expr::And(
            Box::new(Expr::Cmp(CmpOp::Eq, col(0), lit(1))),
            Box::new(Expr::Cmp(CmpOp::Eq, col(1), lit(2))),
        );
        assert_eq!(e.pk_prefix(&schema.primary_key), vec![*lit(1), *lit(2)]);
        // b = 2 only → no prefix (a unpinned).
        let e = Expr::Cmp(CmpOp::Eq, col(1), lit(2));
        assert!(e.pk_prefix(&schema.primary_key).is_empty());
        // a = 1 AND c > 0 → prefix of length 1.
        let e = Expr::And(
            Box::new(Expr::Cmp(CmpOp::Eq, col(0), lit(1))),
            Box::new(Expr::Cmp(CmpOp::Gt, col(2), lit(0))),
        );
        assert_eq!(e.pk_prefix(&schema.primary_key), vec![*lit(1)]);
        // …and bounds column c from below, but not from above.
        assert_eq!(
            e.key_bounds(2),
            (Bound::Excluded(*lit(0)), Bound::Unbounded)
        );
    }
}
