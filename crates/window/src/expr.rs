//! A small expression language for function arguments, FILTER predicates and
//! frame bound expressions.
//!
//! SQL allows frame bounds to be arbitrary expressions (§2.2's stock-order
//! example uses `m * mod(l_extendedprice * 7703, 499) PRECEDING`), so bounds,
//! arguments and filters all share this evaluator. Expressions are bound to a
//! table once (resolving column names to indices), then evaluated per row.

use crate::column::Column;
use crate::error::{Error, Result};
use crate::table::Table;
use crate::value::Value;

/// An unbound expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Column reference by name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (Date + Int adds days).
    Add,
    /// Subtraction (Date − Date yields day counts).
    Sub,
    /// Multiplication.
    Mul,
    /// Division (Int / Int truncates and wraps at `i64::MIN / -1`; division
    /// by zero yields NULL).
    Div,
    /// Modulo (the paper's non-monotonic frame generator uses `mod`).
    Mod,
    /// Comparisons, SQL three-valued.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Logical AND (three-valued).
    And,
    /// Logical OR (three-valued).
    Or,
}

/// Shorthand constructor for a column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// Shorthand constructor for a literal.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

macro_rules! binop_method {
    ($name:ident, $op:expr) => {
        /// Builds the corresponding binary expression.
        pub fn $name(self, rhs: Expr) -> Expr {
            Expr::Bin($op, Box::new(self), Box::new(rhs))
        }
    };
}

#[allow(clippy::should_implement_trait)] // builder methods mirror SQL operators
impl Expr {
    binop_method!(add, BinOp::Add);
    binop_method!(sub, BinOp::Sub);
    binop_method!(mul, BinOp::Mul);
    binop_method!(div, BinOp::Div);
    binop_method!(rem, BinOp::Mod);
    binop_method!(lt, BinOp::Lt);
    binop_method!(le, BinOp::Le);
    binop_method!(gt, BinOp::Gt);
    binop_method!(ge, BinOp::Ge);
    binop_method!(eq_, BinOp::Eq);
    binop_method!(ne, BinOp::Ne);
    binop_method!(and, BinOp::And);
    binop_method!(or, BinOp::Or);

    /// Logical NOT.
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Arithmetic negation.
    pub fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }

    /// True when the expression reads any column (i.e. is not constant).
    pub fn references_column(&self) -> bool {
        match self {
            Expr::Col(_) => true,
            Expr::Lit(_) => false,
            Expr::Bin(_, a, b) => a.references_column() || b.references_column(),
            Expr::Not(a) | Expr::Neg(a) => a.references_column(),
        }
    }

    /// Resolves column references against `table`.
    pub fn bind(&self, table: &Table) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(name) => BoundExpr::Col(table.column_index(name)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Bin(op, a, b) => {
                BoundExpr::Bin(*op, Box::new(a.bind(table)?), Box::new(b.bind(table)?))
            }
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(table)?)),
            Expr::Neg(e) => BoundExpr::Neg(Box::new(e.bind(table)?)),
        })
    }
}

/// An expression with column references resolved to indices.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Column by index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<BoundExpr>, Box<BoundExpr>),
    /// Logical NOT.
    Not(Box<BoundExpr>),
    /// Negation.
    Neg(Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluates for row `row` of `table`.
    pub fn eval(&self, table: &Table, row: usize) -> Result<Value> {
        Ok(match self {
            BoundExpr::Col(idx) => table.column_at(*idx).get(row),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Bin(op, a, b) => {
                let va = a.eval(table, row)?;
                let vb = b.eval(table, row)?;
                eval_binop(*op, va, vb)?
            }
            BoundExpr::Not(e) => not_value(e.eval(table, row)?)?,
            BoundExpr::Neg(e) => neg_value(e.eval(table, row)?)?,
        })
    }

    /// Evaluates for every row of `table` into a typed [`Column`], through the
    /// block VM; the error, if any, is the per-row interpreter's first.
    pub fn eval_column(&self, table: &Table) -> Result<Column> {
        Ok(crate::vm::eval(self, table, crate::vm::RowSel::Span(0, table.num_rows()))?.into_owned())
    }

    /// Evaluates a predicate for every row of `table` as a kept-row mask:
    /// `true` exactly where it is TRUE (NULL and non-bool values are falsy).
    /// The error, if any, is the per-row interpreter's first.
    pub fn eval_mask(&self, table: &Table) -> Result<Vec<bool>> {
        crate::vm::mask(self, table, crate::vm::RowSel::Span(0, table.num_rows()))
    }
}

/// Logical NOT over one value (shared by the interpreter and the VM).
pub(crate) fn not_value(v: Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Bool(b) => Ok(Value::Bool(!b)),
        v => Err(Error::TypeMismatch { expected: "bool", got: v.type_name(), context: "NOT" }),
    }
}

/// Arithmetic negation over one value (shared by the interpreter and the VM).
pub(crate) fn neg_value(v: Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(v) => Ok(Value::Int(v.wrapping_neg())),
        Value::Float(v) => Ok(Value::Float(-v)),
        v => Err(Error::TypeMismatch {
            expected: "numeric",
            got: v.type_name(),
            context: "negation",
        }),
    }
}

pub(crate) fn eval_binop(op: BinOp, a: Value, b: Value) -> Result<Value> {
    use BinOp::*;
    // Logical operators have their own three-valued NULL rules.
    if matches!(op, And | Or) {
        let ab = |v: &Value| match v {
            Value::Null => None,
            Value::Bool(x) => Some(*x),
            _ => Some(v.is_truthy()),
        };
        let (x, y) = (ab(&a), ab(&b));
        return Ok(match (op, x, y) {
            (And, Some(false), _) | (And, _, Some(false)) => Value::Bool(false),
            (And, Some(true), Some(true)) => Value::Bool(true),
            (Or, Some(true), _) | (Or, _, Some(true)) => Value::Bool(true),
            (Or, Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        });
    }
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    if matches!(op, Lt | Le | Gt | Ge | Eq | Ne) {
        let ord = a.sql_cmp(&b);
        return Ok(Value::Bool(match op {
            Lt => ord.is_lt(),
            Le => ord.is_le(),
            Gt => ord.is_gt(),
            Ge => ord.is_ge(),
            Eq => ord.is_eq(),
            Ne => ord.is_ne(),
            _ => unreachable!(),
        }));
    }
    // Arithmetic.
    let type_err =
        |got: &'static str| Error::TypeMismatch { expected: "numeric", got, context: "arithmetic" };
    match (&a, &b) {
        (Value::Int(x), Value::Int(y)) => Ok(match op {
            Add => Value::Int(x.wrapping_add(*y)),
            Sub => Value::Int(x.wrapping_sub(*y)),
            Mul => Value::Int(x.wrapping_mul(*y)),
            Div | Mod if *y == 0 => Value::Null,
            Div => Value::Int(x.wrapping_div(*y)),
            Mod => Value::Int(x.wrapping_rem_euclid(*y)),
            _ => unreachable!(),
        }),
        (Value::Date(x), Value::Int(y)) => Ok(match op {
            Add => Value::Date(x.wrapping_add(*y as i32)),
            Sub => Value::Date(x.wrapping_sub(*y as i32)),
            _ => return Err(type_err("date")),
        }),
        (Value::Int(x), Value::Date(y)) if op == Add => {
            Ok(Value::Date((*x as i32).wrapping_add(*y)))
        }
        (Value::Date(x), Value::Date(y)) if op == Sub => Ok(Value::Int((*x as i64) - (*y as i64))),
        _ => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Err(type_err(if a.as_f64().is_none() {
                    a.type_name()
                } else {
                    b.type_name()
                }));
            };
            Ok(match op {
                Add => Value::Float(x + y),
                Sub => Value::Float(x - y),
                Mul => Value::Float(x * y),
                Div => {
                    if y == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(x / y)
                    }
                }
                Mod => {
                    if y == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(x.rem_euclid(y))
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        Table::new(vec![
            ("a", Column::ints(vec![10, 20, 30])),
            ("b", Column::ints_opt(vec![Some(3), None, Some(7)])),
            ("d", Column::dates(vec![100, 200, 300])),
            ("f", Column::floats(vec![1.5, 2.5, 3.5])),
        ])
        .unwrap()
    }

    fn eval(e: Expr, row: usize) -> Value {
        e.bind(&table()).unwrap().eval(&table(), row).unwrap()
    }

    #[test]
    fn arithmetic_and_mod() {
        assert_eq!(eval(col("a").add(lit(5)), 0), Value::Int(15));
        assert_eq!(eval(col("a").mul(lit(7703)).rem(lit(499)), 1), Value::Int(20 * 7703 % 499));
        assert_eq!(eval(col("a").div(lit(0)), 0), Value::Null);
        assert_eq!(eval(col("f").add(col("a")), 0), Value::Float(11.5));
    }

    #[test]
    fn null_propagates() {
        assert_eq!(eval(col("b").add(lit(1)), 1), Value::Null);
        assert_eq!(eval(col("b").gt(lit(1)), 1), Value::Null);
        assert_eq!(eval(col("b").neg(), 1), Value::Null);
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(eval(col("d").add(lit(7)), 0), Value::Date(107));
        assert_eq!(eval(col("d").sub(col("d")), 2), Value::Int(0));
        assert_eq!(eval(col("d").sub(lit(30)), 1), Value::Date(170));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval(col("a").gt(lit(15)), 0), Value::Bool(false));
        assert_eq!(eval(col("a").gt(lit(15)).or(col("a").lt(lit(15))), 0), Value::Bool(true));
        // NULL AND false = false; NULL AND true = NULL (three-valued).
        assert_eq!(eval(col("b").gt(lit(0)).and(lit(false)), 1), Value::Bool(false));
        assert_eq!(eval(col("b").gt(lit(0)).and(lit(true)), 1), Value::Null);
        assert_eq!(eval(col("b").gt(lit(0)).not(), 1), Value::Null);
    }

    #[test]
    fn unknown_column_fails_at_bind() {
        assert!(col("zzz").bind(&table()).is_err());
    }

    #[test]
    fn eval_column_materializes() {
        let c = col("a").add(lit(1)).bind(&table()).unwrap().eval_column(&table()).unwrap();
        assert_eq!(c.to_values(), vec![Value::Int(11), Value::Int(21), Value::Int(31)]);
    }
}
