//! The block expression VM, and the one way a batch of rows becomes
//! values.
//!
//! [`eval`] is that way: it turns a row selection — a span of table rows or
//! a partition's rows in window order — into a typed [`Column`], and [`mask`]
//! reads a predicate's column as a kept-row mask. Sort keys, PARTITION BY
//! keys, call arguments, FILTER masks and the SQL session's WHERE, SELECT
//! and final ORDER BY all evaluate through it. The per-row interpreter,
//! [`BoundExpr::eval`], is its fallback, the reference the comparator keys
//! and the naive oracle are built with, and the evaluator of sites that read
//! one row alone (a LEAD/LAG offset, NTILE's buckets, a percentile's
//! fraction).
//!
//! [`run`] evaluates a bound tree over the whole selection at once: each node
//! consumes and produces *column blocks* (typed vectors with validity
//! masks), so dispatch is paid once per node and block, and the inner loops
//! are monomorphic kernels over `i64`/`f64`/`bool` slices.
//!
//! Semantics are bit-identical to the interpreter by construction: every
//! kernel arm mirrors the corresponding `eval_binop` arm (same wrapping
//! arithmetic, same `total_cmp` float ordering, same three-valued logic,
//! same division-by-zero → NULL rule), and anything the kernels do not cover
//! (dates, strings, type errors) falls through to a per-element path that
//! calls the *interpreter's own* scalar functions. Because the interpreter
//! is strict — both operands of every node are evaluated for every row — an
//! expression errors under the VM if and only if it errors under the
//! interpreter, so on a VM error [`eval`] re-runs the selection row by row
//! for the interpreter's canonical first error.

use crate::column::{Column, Validity};
use crate::error::Result;
use crate::expr::{eval_binop, neg_value, not_value, BinOp, BoundExpr};
use crate::table::Table;
use crate::value::Value;
use std::borrow::Cow;

/// Which rows of the table an evaluation covers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowSel<'a> {
    /// Table rows `a..b`, in order.
    Span(usize, usize),
    /// A partition's rows, in window order.
    Rows(&'a [usize]),
}

impl RowSel<'_> {
    fn len(&self) -> usize {
        match self {
            RowSel::Span(a, b) => b - a,
            RowSel::Rows(r) => r.len(),
        }
    }

    /// The table row at selection position `i`.
    fn row(&self, i: usize) -> usize {
        match self {
            RowSel::Span(a, _) => a + i,
            RowSel::Rows(r) => r[i],
        }
    }
}

/// `valid[i]` with the "empty means all-valid" convention.
#[inline]
fn vld(valid: &[bool], i: usize) -> bool {
    valid.is_empty() || valid[i]
}

/// Drops a validity vector that marks nothing invalid (the canonical
/// all-valid representation is the empty vector).
fn normalize(valid: Validity) -> Validity {
    if valid.iter().all(|&b| b) {
        Vec::new()
    } else {
        valid
    }
}

/// One operand on the VM stack: a typed column block, a broadcast constant,
/// or (for types without a fast kernel) a dynamic value vector. Blocks
/// always cover the full row selection of the run.
#[derive(Debug, Clone)]
pub(crate) enum Block {
    /// The same value at every row.
    Const(Value),
    /// Typed integers with a validity mask (empty = all valid).
    Int(Vec<i64>, Validity),
    /// Typed floats with a validity mask.
    Float(Vec<f64>, Validity),
    /// Typed booleans with a validity mask.
    Bool(Vec<bool>, Validity),
    /// Per-row dynamic values (dates, strings, mixed fallback results).
    Vals(Vec<Value>),
}

impl Block {
    /// The block of `n` positions as a typed column: a typed block keeps its
    /// type, a constant broadcasts (NULL as an all-NULL `Int`), and per-row
    /// values take [`Column::from_values`]' rules.
    fn into_column(self, n: usize) -> Result<Column> {
        Ok(match self {
            Block::Const(Value::Null) => Column::Int(vec![0; n], vec![false; n]),
            Block::Const(Value::Int(x)) => Column::Int(vec![x; n], Vec::new()),
            Block::Const(Value::Float(x)) => Column::Float(vec![x; n], Vec::new()),
            Block::Const(Value::Bool(x)) => Column::Bool(vec![x; n], Vec::new()),
            Block::Const(Value::Date(x)) => Column::Date(vec![x; n], Vec::new()),
            Block::Const(Value::Str(s)) => Column::Str(vec![s; n], Vec::new()),
            Block::Int(d, v) => Column::Int(d, v),
            Block::Float(d, v) => Column::Float(d, v),
            Block::Bool(d, v) => Column::Bool(d, v),
            Block::Vals(vs) => Column::from_values(&vs)?,
        })
    }

    /// The value at block position `i` (not a table row index).
    fn value_at(&self, i: usize) -> Value {
        match self {
            Block::Const(v) => v.clone(),
            Block::Int(d, v) => {
                if vld(v, i) {
                    Value::Int(d[i])
                } else {
                    Value::Null
                }
            }
            Block::Float(d, v) => {
                if vld(v, i) {
                    Value::Float(d[i])
                } else {
                    Value::Null
                }
            }
            Block::Bool(d, v) => {
                if vld(v, i) {
                    Value::Bool(d[i])
                } else {
                    Value::Null
                }
            }
            Block::Vals(vs) => vs[i].clone(),
        }
    }
}

/// Integer operand view for the i64 kernels.
enum IntSrc<'a> {
    S(&'a [i64], &'a [bool]),
    C(Option<i64>),
}

impl IntSrc<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<i64> {
        match self {
            IntSrc::S(d, v) => vld(v, i).then(|| d[i]),
            IntSrc::C(c) => *c,
        }
    }
}

/// Views a block as an integer operand; `None` when the block is not
/// integer-typed (the caller then tries the f64 or fallback path).
fn int_src(b: &Block) -> Option<IntSrc<'_>> {
    match b {
        Block::Int(d, v) => Some(IntSrc::S(d, v)),
        Block::Const(Value::Int(x)) => Some(IntSrc::C(Some(*x))),
        Block::Const(Value::Null) => Some(IntSrc::C(None)),
        _ => None,
    }
}

/// Float operand view for the f64 kernels; integer sources widen exactly as
/// `Value::as_f64` does. Dates are deliberately excluded (date arithmetic
/// has its own `eval_binop` arms and stays on the per-element path).
enum F64Src<'a> {
    F(&'a [f64], &'a [bool]),
    I(&'a [i64], &'a [bool]),
    C(Option<f64>),
}

impl F64Src<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<f64> {
        match self {
            F64Src::F(d, v) => vld(v, i).then(|| d[i]),
            F64Src::I(d, v) => vld(v, i).then(|| d[i] as f64),
            F64Src::C(c) => *c,
        }
    }
}

fn f64_src(b: &Block) -> Option<F64Src<'_>> {
    match b {
        Block::Float(d, v) => Some(F64Src::F(d, v)),
        Block::Int(d, v) => Some(F64Src::I(d, v)),
        Block::Const(Value::Float(x)) => Some(F64Src::C(Some(*x))),
        Block::Const(Value::Int(x)) => Some(F64Src::C(Some(*x as f64))),
        Block::Const(Value::Null) => Some(F64Src::C(None)),
        _ => None,
    }
}

/// Three-valued-logic operand view: `None` = NULL, `Some(b)` = truthiness,
/// mirroring the `ab` closure of the interpreter's AND/OR arm (non-bool
/// non-null values are falsy).
enum TriSrc<'a> {
    B(&'a [bool], &'a [bool]),
    /// A non-bool typed block: valid → `Some(false)`, NULL → `None`.
    NonBool(&'a [bool]),
    V(&'a [Value]),
    C(Option<bool>),
}

impl TriSrc<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<bool> {
        match self {
            TriSrc::B(d, v) => vld(v, i).then(|| d[i]),
            TriSrc::NonBool(v) => vld(v, i).then_some(false),
            TriSrc::V(vs) => match &vs[i] {
                Value::Null => None,
                Value::Bool(x) => Some(*x),
                v => Some(v.is_truthy()),
            },
            TriSrc::C(c) => *c,
        }
    }
}

fn tri_src(b: &Block) -> TriSrc<'_> {
    match b {
        Block::Bool(d, v) => TriSrc::B(d, v),
        Block::Int(_, v) | Block::Float(_, v) => TriSrc::NonBool(v),
        Block::Vals(vs) => TriSrc::V(vs),
        Block::Const(Value::Null) => TriSrc::C(None),
        Block::Const(Value::Bool(x)) => TriSrc::C(Some(*x)),
        Block::Const(v) => TriSrc::C(Some(v.is_truthy())),
    }
}

/// Gathers a table column into a block for the selected rows. Int/Float/Bool
/// columns become typed blocks (one memcpy-like pass); Str/Date columns go
/// through `Vals` so their arithmetic stays on the interpreter-exact path.
fn gather(col: &Column, sel: RowSel<'_>) -> Block {
    fn pick<T: Copy>(d: &[T], v: &[bool], sel: RowSel<'_>) -> (Vec<T>, Validity) {
        let (data, valid) = match sel {
            RowSel::Span(a, b) => {
                let valid = if v.is_empty() { Vec::new() } else { v[a..b].to_vec() };
                (d[a..b].to_vec(), valid)
            }
            RowSel::Rows(rows) => {
                let valid =
                    if v.is_empty() { Vec::new() } else { rows.iter().map(|&r| v[r]).collect() };
                (rows.iter().map(|&r| d[r]).collect(), valid)
            }
        };
        (data, normalize(valid))
    }
    match col {
        Column::Int(d, v) => {
            let (d, v) = pick(d, v, sel);
            Block::Int(d, v)
        }
        Column::Float(d, v) => {
            let (d, v) = pick(d, v, sel);
            Block::Float(d, v)
        }
        Column::Bool(d, v) => {
            let (d, v) = pick(d, v, sel);
            Block::Bool(d, v)
        }
        col => Block::Vals((0..sel.len()).map(|i| col.get(sel.row(i))).collect()),
    }
}

/// Builds a nullable typed result in one pass: `f(i)` yields `Some(x)` for a
/// value and `None` for NULL.
fn build<T: Default>(n: usize, mut f: impl FnMut(usize) -> Option<T>) -> (Vec<T>, Validity) {
    let mut data = Vec::with_capacity(n);
    let mut valid = Vec::with_capacity(n);
    let mut any_null = false;
    for i in 0..n {
        match f(i) {
            Some(x) => {
                data.push(x);
                valid.push(true);
            }
            None => {
                data.push(T::default());
                valid.push(false);
                any_null = true;
            }
        }
    }
    (data, if any_null { valid } else { Vec::new() })
}

/// Element-wise fallback: route every row through the interpreter's scalar
/// `eval_binop`. Covers dates, strings and type errors bit-exactly.
fn bin_fallback(op: BinOp, a: &Block, b: &Block, n: usize) -> Result<Block> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(eval_binop(op, a.value_at(i), b.value_at(i))?);
    }
    Ok(Block::Vals(out))
}

/// One binary operator over two blocks.
fn exec_bin(op: BinOp, a: Block, b: Block, n: usize) -> Result<Block> {
    use BinOp::*;
    // Constant folding: both operands row-independent → evaluate once.
    if let (Block::Const(x), Block::Const(y)) = (&a, &b) {
        return Ok(Block::Const(eval_binop(op, x.clone(), y.clone())?));
    }
    // Three-valued logic accepts every operand shape.
    if matches!(op, And | Or) {
        let (sa, sb) = (tri_src(&a), tri_src(&b));
        let (d, v) = build(n, |i| match (op, sa.get(i), sb.get(i)) {
            (And, Some(false), _) | (And, _, Some(false)) => Some(false),
            (And, Some(true), Some(true)) => Some(true),
            (Or, Some(true), _) | (Or, _, Some(true)) => Some(true),
            (Or, Some(false), Some(false)) => Some(false),
            _ => None,
        });
        return Ok(Block::Bool(d, v));
    }
    if matches!(op, Lt | Le | Gt | Ge | Eq | Ne) {
        // Int × Int must compare as i64 (a cast to f64 would lose precision
        // past 2^53), exactly like `sql_cmp`.
        if let (Some(sa), Some(sb)) = (int_src(&a), int_src(&b)) {
            let (d, v) = build(n, |i| match (sa.get(i), sb.get(i)) {
                (Some(x), Some(y)) => {
                    let ord = x.cmp(&y);
                    Some(match op {
                        Lt => ord.is_lt(),
                        Le => ord.is_le(),
                        Gt => ord.is_gt(),
                        Ge => ord.is_ge(),
                        Eq => ord.is_eq(),
                        Ne => ord.is_ne(),
                        _ => unreachable!(),
                    })
                }
                _ => None,
            });
            return Ok(Block::Bool(d, v));
        }
        if let (Some(sa), Some(sb)) = (f64_src(&a), f64_src(&b)) {
            let (d, v) = build(n, |i| match (sa.get(i), sb.get(i)) {
                (Some(x), Some(y)) => {
                    let ord = x.total_cmp(&y);
                    Some(match op {
                        Lt => ord.is_lt(),
                        Le => ord.is_le(),
                        Gt => ord.is_gt(),
                        Ge => ord.is_ge(),
                        Eq => ord.is_eq(),
                        Ne => ord.is_ne(),
                        _ => unreachable!(),
                    })
                }
                _ => None,
            });
            return Ok(Block::Bool(d, v));
        }
        return bin_fallback(op, &a, &b, n);
    }
    // Arithmetic. Int × Int stays integer (wrapping, like the interpreter);
    // Int/Float mixes widen to f64; dates and errors take the fallback.
    if let (Some(sa), Some(sb)) = (int_src(&a), int_src(&b)) {
        let (d, v) = build(n, |i| match (sa.get(i), sb.get(i)) {
            (Some(_), Some(0)) if matches!(op, Div | Mod) => None,
            (Some(x), Some(y)) => Some(match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => x.wrapping_div(y),
                Mod => x.wrapping_rem_euclid(y),
                _ => unreachable!(),
            }),
            _ => None,
        });
        return Ok(Block::Int(d, v));
    }
    if let (Some(sa), Some(sb)) = (f64_src(&a), f64_src(&b)) {
        let (d, v) = build(n, |i| match (sa.get(i), sb.get(i)) {
            (Some(x), Some(y)) => match op {
                Add => Some(x + y),
                Sub => Some(x - y),
                Mul => Some(x * y),
                Div => {
                    if y == 0.0 {
                        None
                    } else {
                        Some(x / y)
                    }
                }
                Mod => {
                    if y == 0.0 {
                        None
                    } else {
                        Some(x.rem_euclid(y))
                    }
                }
                _ => unreachable!(),
            },
            _ => None,
        });
        return Ok(Block::Float(d, v));
    }
    bin_fallback(op, &a, &b, n)
}

/// Logical NOT over a block.
fn exec_not(a: Block, n: usize) -> Result<Block> {
    match a {
        Block::Const(v) => Ok(Block::Const(not_value(v)?)),
        Block::Bool(d, v) => Ok(Block::Bool(d.iter().map(|&x| !x).collect(), v)),
        a => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(not_value(a.value_at(i))?);
            }
            Ok(Block::Vals(out))
        }
    }
}

/// Arithmetic negation over a block.
fn exec_neg(a: Block, n: usize) -> Result<Block> {
    match a {
        Block::Const(v) => Ok(Block::Const(neg_value(v)?)),
        Block::Int(d, v) => Ok(Block::Int(d.iter().map(|&x| x.wrapping_neg()).collect(), v)),
        Block::Float(d, v) => Ok(Block::Float(d.iter().map(|&x| -x).collect(), v)),
        a => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(neg_value(a.value_at(i))?);
            }
            Ok(Block::Vals(out))
        }
    }
}

/// Runs `bound` over the selected rows as one block. Each node of the tree
/// is one block op — dispatch is paid once per node, not once per row — and
/// the operands of a node are evaluated before it, left to right.
pub(crate) fn run(bound: &BoundExpr, table: &Table, sel: RowSel<'_>) -> Result<Block> {
    fn block(e: &BoundExpr, table: &Table, sel: RowSel<'_>, n: usize) -> Result<Block> {
        match e {
            BoundExpr::Col(idx) => Ok(gather(table.column_at(*idx), sel)),
            BoundExpr::Lit(v) => Ok(Block::Const(v.clone())),
            BoundExpr::Bin(op, a, b) => {
                let a = block(a, table, sel, n)?;
                exec_bin(*op, a, block(b, table, sel, n)?, n)
            }
            BoundExpr::Not(a) => exec_not(block(a, table, sel, n)?, n),
            BoundExpr::Neg(a) => exec_neg(block(a, table, sel, n)?, n),
        }
    }
    let n = sel.len();
    if n == 0 {
        // The interpreter evaluates nothing over zero rows (so it cannot
        // error); neither may the VM — skip even constant folding.
        return Ok(Block::Vals(Vec::new()));
    }
    block(bound, table, sel, n)
}

/// Selections shorter than this are interpreted row by row. Running a tree
/// as blocks has a fixed cost per call, a block allocated per node, that
/// pays off only over several rows — and a query over 50 000 partitions of
/// 1–7 rows pays it 50 000 times. Both evaluators agree bit for bit (the
/// properties below), so the rule moves time only.
const INTERPRET_BELOW: usize = 8;

/// `bound` over the rows `sel` selects, one row per position, as a typed
/// column: the VM's block, typed as the block is (a constant broadcasts, NULL
/// as an all-NULL `Int`), or on the per-row path the interpreter's values
/// under [`Column::from_values`]' rules, which the VM's agree with. A bare
/// column over a span is its rows, read in place when the span is the table.
/// The per-row path takes selections shorter than [`INTERPRET_BELOW`], and a
/// selection the VM failed on, for the interpreter's canonical first error.
/// Values that are all NULL carry no type, so they take the VM's: a result's
/// type never depends on how many rows it has.
pub(crate) fn eval<'t>(
    bound: &BoundExpr,
    table: &'t Table,
    sel: RowSel<'_>,
) -> Result<Cow<'t, Column>> {
    let n = sel.len();
    if let (BoundExpr::Col(idx), RowSel::Span(a, b)) = (bound, sel) {
        let col = table.column_at(*idx);
        return Ok(if n == col.len() { Cow::Borrowed(col) } else { Cow::Owned(col.slice(a, b)) });
    }
    let vm = || run(bound, table, sel).and_then(|block| block.into_column(n));
    if n >= INTERPRET_BELOW {
        if let Ok(col) = vm() {
            return Ok(Cow::Owned(col));
        }
    }
    let values = (0..n).map(|i| bound.eval(table, sel.row(i))).collect::<Result<Vec<_>>>()?;
    if values.iter().all(|v| matches!(v, Value::Null)) {
        if let Ok(col) = vm() {
            return Ok(Cow::Owned(col));
        }
    }
    Column::from_values(&values).map(Cow::Owned)
}

/// A predicate over `sel` as a kept-row mask: `true` exactly where it is
/// TRUE (`Value::is_truthy` — NULL and non-bool values are falsy).
pub(crate) fn mask(bound: &BoundExpr, table: &Table, sel: RowSel<'_>) -> Result<Vec<bool>> {
    Ok(match &*eval(bound, table, sel)? {
        Column::Bool(d, v) => d.iter().enumerate().map(|(i, &b)| b && vld(v, i)).collect(),
        col => vec![false; col.len()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, Expr};
    use crate::value::DataType;
    use proptest::prelude::*;

    /// The VM alone — no size rule, no fallback — over `rows`, as a column.
    fn vm_column(bound: &BoundExpr, t: &Table, rows: &[usize]) -> Result<Column> {
        run(bound, t, RowSel::Rows(rows))?.into_column(rows.len())
    }

    fn interpret(bound: &BoundExpr, t: &Table, rows: &[usize]) -> Result<Vec<Value>> {
        rows.iter().map(|&r| bound.eval(t, r)).collect()
    }

    /// Value equality that also tells types apart (`Value`'s `==` is
    /// `sql_eq`, under which `Int(1)` equals `Float(1.0)`).
    fn bitwise_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => format!("{a:?}") == format!("{b:?}"),
        }
    }

    /// The VM without fallback against the interpreter: both error, or the
    /// VM's column holds the interpreter's values bit for bit.
    fn check_vm(bound: &BoundExpr, t: &Table, rows: &[usize]) -> std::result::Result<(), String> {
        match (interpret(bound, t, rows), vm_column(bound, t, rows)) {
            (Err(_), Err(_)) => Ok(()),
            (Ok(want), Ok(got)) => {
                let got = got.to_values();
                match want.iter().zip(&got).position(|(w, g)| !bitwise_eq(w, g)) {
                    None if got.len() == want.len() => Ok(()),
                    None => Err(format!("{} rows, want {}", got.len(), want.len())),
                    Some(i) => Err(format!("row {i}: vm {:?}, interpreter {:?}", got[i], want[i])),
                }
            }
            (want, got) => Err(format!("interpreter {want:?}, vm {got:?}")),
        }
    }

    /// The entry's column for `rows` against the interpreter's values: both
    /// error, or the column holds them — floats bit for bit — and every
    /// non-NULL one has the column's type.
    fn check_typed_values(
        bound: &BoundExpr,
        t: &Table,
        rows: &[usize],
    ) -> std::result::Result<(), String> {
        match (interpret(bound, t, rows), eval(bound, t, RowSel::Rows(rows))) {
            (Err(_), Err(_)) => Ok(()),
            (Ok(want), Ok(got)) => {
                if got.len() != want.len() {
                    return Err(format!("{} rows, want {}", got.len(), want.len()));
                }
                for (i, w) in want.iter().enumerate() {
                    let g = got.get(i);
                    if !bitwise_eq(w, &g) || w.data_type().is_some_and(|dt| dt != got.data_type()) {
                        return Err(format!(
                            "row {i}: {g:?} in a {:?} column, want {w:?}",
                            got.data_type()
                        ));
                    }
                }
                Ok(())
            }
            (want, got) => Err(format!("interpreter {want:?}, typed {got:?}")),
        }
    }

    fn small_table() -> Table {
        Table::new(vec![
            ("a", Column::ints(vec![10, 20, 30, -5])),
            ("b", Column::ints_opt(vec![Some(3), None, Some(7), Some(0)])),
            ("d", Column::dates(vec![100, 200, 300, 400])),
            ("f", Column::floats(vec![1.5, 2.5, 3.5, -0.0])),
            ("s", Column::strs(vec!["x", "y", "z", "w"])),
            ("t", Column::bools(vec![true, false, true, false])),
        ])
        .unwrap()
    }

    fn check(e: Expr) {
        let t = small_table();
        let bound = e.bind(&t).unwrap();
        let rows: Vec<usize> = (0..t.num_rows()).collect();
        if let Err(msg) = check_vm(&bound, &t, &rows) {
            panic!("{e:?}: {msg}");
        }
    }

    #[test]
    fn kernels_match_interpreter() {
        check(col("a").add(lit(5)));
        check(col("a").mul(lit(7703)).rem(lit(499)));
        check(col("a").div(col("b")));
        check(col("a").rem(col("b")));
        check(col("f").add(col("a")));
        check(col("f").div(lit(0.0)));
        check(col("a").lt(col("b")));
        check(col("f").ge(col("a")));
        check(col("a").eq_(lit(20)));
        check(col("t").and(col("b").gt(lit(1))));
        check(col("t").or(col("b").gt(lit(1))));
        check(col("t").not());
        check(col("a").neg());
        check(col("f").neg());
        check(col("b").neg());
    }

    #[test]
    fn date_and_string_fallbacks_match() {
        check(col("d").add(lit(7)));
        check(col("d").sub(col("d")));
        check(lit(3).add(col("d")));
        check(col("s").eq_(lit(Value::str("y"))));
        check(col("s").lt(col("s")));
        // Type errors: both sides must error.
        check(col("s").add(lit(1)));
        check(col("d").mul(lit(2)));
        check(col("s").not());
        check(col("s").neg());
        check(col("d").neg());
    }

    #[test]
    fn constant_folding_broadcasts() {
        let t = small_table();
        let all: Vec<usize> = (0..t.num_rows()).collect();
        let bound = lit(2).add(lit(3)).bind(&t).unwrap();
        let c = vm_column(&bound, &t, &all).unwrap();
        assert_eq!(c.to_values(), vec![Value::Int(5); 4]);
        // NULL constant → all-null Int column, like Column::from_values.
        let bound = lit(Value::Null).add(lit(3)).bind(&t).unwrap();
        let c = vm_column(&bound, &t, &all).unwrap();
        assert_eq!(c.to_values(), vec![Value::Null; 4]);
        assert!(matches!(c, Column::Int(..)));
    }

    #[test]
    fn row_selection_gathers_in_window_order() {
        let t = small_table();
        let bound = col("a").add(col("b")).bind(&t).unwrap();
        let got = vm_column(&bound, &t, &[2, 0, 1]).unwrap();
        assert_eq!(got.to_values(), vec![Value::Int(37), Value::Int(13), Value::Null]);
    }

    /// An all-NULL result is typed as the VM types it, over a selection short
    /// enough for the per-row interpreter too.
    #[test]
    fn all_null_results_keep_their_type_at_every_size() {
        // `g` is NULL wherever `a` is a multiple of 5.
        let t = table(&[0, 5, 10, 15, 20, 25, 30, 35, 40, 45]);
        let cases =
            [(col("g").mul(lit(2i64)), DataType::Float), (col("g").gt(lit(1i64)), DataType::Bool)];
        for (expr, ty) in cases {
            let bound = expr.bind(&t).unwrap();
            for n in [1, 3, 7, 8, 10] {
                let got = eval(&bound, &t, RowSel::Span(0, n)).unwrap();
                assert_eq!(
                    (got.data_type(), got.to_values()),
                    (ty, vec![Value::Null; n]),
                    "{expr:?}"
                );
            }
        }
    }

    /// A span of a bare column is its rows, the whole table's borrowed in
    /// place; any other span or selection is evaluated.
    #[test]
    fn spans_of_a_bare_column_are_its_rows() {
        let t = small_table();
        let a = col("a").bind(&t).unwrap();
        assert!(matches!(eval(&a, &t, RowSel::Span(0, 4)).unwrap(), Cow::Borrowed(_)));
        let part = eval(&a, &t, RowSel::Span(1, 3)).unwrap();
        assert_eq!(part.to_values(), vec![Value::Int(20), Value::Int(30)]);
        let d = col("d").bind(&t).unwrap();
        assert!(matches!(eval(&d, &t, RowSel::Span(2, 4)).unwrap().as_ref(), Column::Date(..)));
    }

    /// A predicate that is not boolean keeps no row, like `Value::is_truthy`.
    #[test]
    fn non_bool_predicates_keep_nothing() {
        let t = table(&[-6, -1, 0, 1, 2, 3, 60, 9, 15]);
        for e in [col("a"), col("s"), lit(1i64), Expr::Lit(Value::Null)] {
            let bound = e.bind(&t).unwrap();
            assert_eq!(mask(&bound, &t, RowSel::Span(0, 9)).unwrap(), vec![false; 9], "{e:?}");
        }
    }

    /// Builds a deterministic expression tree from a byte genome: each byte
    /// picks a node kind; the genome running dry (or `depth` hitting zero)
    /// forces a leaf. Covers every `BinOp`, `Not`, `Neg`, all leaf kinds.
    fn build_expr(genome: &mut &[u8], depth: u32) -> Expr {
        let Some((&t, rest)) = genome.split_first() else {
            return lit(1i64);
        };
        *genome = rest;
        let leaf = |t: u8| -> Expr {
            match t % 10 {
                0 => col("a"),
                1 => col("b"),
                2 => col("f"),
                3 => col("g"),
                4 => col("d"),
                5 => col("s"),
                6 => lit(i64::from(t) - 128),
                7 => lit(f64::from(t) / 8.0 - 8.0),
                8 => Expr::Lit(Value::Null),
                _ => lit(0i64),
            }
        };
        if depth == 0 {
            return leaf(t);
        }
        let mut sub = || build_expr(genome, depth - 1);
        match t % 18 {
            0 => sub().add(sub()),
            1 => sub().sub(sub()),
            2 => sub().mul(sub()),
            3 => sub().div(sub()),
            4 => sub().rem(sub()),
            5 => sub().lt(sub()),
            6 => sub().le(sub()),
            7 => sub().gt(sub()),
            8 => sub().ge(sub()),
            9 => sub().eq_(sub()),
            10 => sub().ne(sub()),
            11 => sub().and(sub()),
            12 => sub().or(sub()),
            13 => sub().not(),
            14 => sub().neg(),
            _ => leaf(t),
        }
    }

    /// A table exercising every column type the VM gathers: plain ints, ints
    /// with NULLs, floats, floats with NULLs, dates, strings (arithmetic type
    /// errors), with values spanning zero (division), negatives and duplicates.
    fn table(xs: &[i64]) -> Table {
        let n = xs.len();
        let b = xs.iter().map(|&x| if x % 3 == 0 { None } else { Some(x * 7) }).collect();
        let g = xs.iter().map(|&x| if x % 5 == 0 { None } else { Some(x as f64 * 1.5) }).collect();
        Table::new(vec![
            ("a", Column::ints(xs.to_vec())),
            ("b", Column::ints_opt(b)),
            ("f", Column::floats(xs.iter().map(|&x| x as f64 / 4.0).collect())),
            ("g", Column::floats_opt(g)),
            ("d", Column::dates(xs.iter().map(|&x| (x % 1000) as i32).collect())),
            ("s", Column::strs((0..n).map(|i| format!("s{}", i % 4)).collect::<Vec<_>>())),
        ])
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Over random trees and data, the VM without fallback errs exactly
        /// when the interpreter does and otherwise gives its values bit for
        /// bit, over every row and over a strided selection (the shape
        /// partitions present); the entry's typed column holds them too,
        /// through the VM and (short selections) the interpreter.
        #[test]
        fn vm_matches_interpreter_on_random_trees(
            genome in prop::collection::vec(any::<u8>(), 1..40),
            xs in prop::collection::vec(-60i64..60, 1..80),
        ) {
            let t = table(&xs);
            let expr = build_expr(&mut genome.as_slice(), 4);
            let bound = expr.bind(&t).unwrap();
            let all: Vec<usize> = (0..xs.len()).collect();
            let odd: Vec<usize> = (0..xs.len()).filter(|i| i % 2 == 1).collect();
            let short: Vec<usize> = all.iter().copied().rev().take(5).collect();
            for rows in [&all, &odd] {
                let res = check_vm(&bound, &t, rows);
                prop_assert!(res.is_ok(), "expr {:?} over {:?}: {:?}", expr, rows, res);
            }
            for rows in [&all, &odd, &short] {
                let res = check_typed_values(&bound, &t, rows);
                prop_assert!(res.is_ok(), "expr {:?} over {:?}: {:?}", expr, rows, res);
            }
        }

        /// A predicate's kept-row mask is the interpreter's truthiness, over
        /// every row and over a strided selection.
        #[test]
        fn vm_filter_masks_match_interpreter(
            genome in prop::collection::vec(any::<u8>(), 1..24),
            xs in prop::collection::vec(-20i64..20, 1..48),
        ) {
            let t = table(&xs);
            let mut g = genome.as_slice();
            // Root the tree at a comparison so it is predicate-shaped.
            let expr = build_expr(&mut g, 3).gt(build_expr(&mut g, 2));
            let bound = expr.bind(&t).unwrap();
            let odd: Vec<usize> = (0..xs.len()).filter(|i| i % 2 == 1).collect();
            for sel in [RowSel::Span(0, xs.len()), RowSel::Rows(&odd)] {
                let rows: Vec<usize> = (0..sel.len()).map(|i| sel.row(i)).collect();
                let want = interpret(&bound, &t, &rows)
                    .map(|vs| vs.iter().map(Value::is_truthy).collect::<Vec<_>>());
                match (want, mask(&bound, &t, sel)) {
                    (Ok(want), Ok(got)) => prop_assert_eq!(got, want, "expr: {:?}", expr),
                    (Err(_), Err(_)) => {}
                    (want, got) => prop_assert!(false, "{:?}: {:?} against {:?}", expr, got, want),
                }
            }
        }
    }

    /// Known-edge battery: the cases the generators only hit by luck.
    #[test]
    fn vm_edge_cases_match_interpreter() {
        let t = table(&[-6, -1, 0, 1, 2, 3, 60]);
        let all: Vec<usize> = (0..t.num_rows()).collect();
        let min = || col("a").mul(lit(i64::MIN)); // i64::MIN at a = 1
        let i32_max = || lit(i64::from(i32::MAX));
        let cases: Vec<Expr> = vec![
            // Division/modulo by zero → NULL, both Int and Float.
            col("a").div(lit(0i64)),
            col("a").rem(lit(0i64)),
            col("f").div(lit(0.0f64)),
            col("f").rem(lit(0.0f64)),
            col("a").div(col("a")),
            // NULL propagation through every operator.
            col("b").add(Expr::Lit(Value::Null)),
            Expr::Lit(Value::Null).mul(col("g")),
            Expr::Lit(Value::Null).not(),
            Expr::Lit(Value::Null).neg(),
            // Three-valued logic short-circuits.
            col("b").gt(lit(0i64)).and(lit(false)),
            col("b").gt(lit(0i64)).or(lit(true)),
            // Mixed Int/Float widening and comparisons.
            col("a").add(col("f")),
            col("a").lt(col("f")),
            col("f").eq_(col("a")),
            // Date arithmetic.
            col("d").add(lit(7i64)),
            col("d").sub(col("d")),
            // Type errors (string arithmetic, NOT over ints).
            col("s").add(lit(1i64)),
            col("a").not(),
            col("s").neg(),
            // Wrapping integer arithmetic.
            lit(i64::MAX).add(lit(1i64)),
            lit(i64::MAX).add(col("a")),
            lit(i64::MAX).mul(col("a")),
            min().sub(lit(1i64)),
            min().add(lit(-1i64)),
            // The integer edges wrap too: i64::MIN / -1, MOD -1 and negated,
            // in the kernels and constant-folded, and dates past i32.
            min().div(lit(-1i64)),
            min().rem(lit(-1i64)),
            min().neg(),
            lit(i64::MIN).div(lit(-1i64)),
            lit(i64::MIN).rem(lit(-1i64)),
            lit(i64::MIN).neg(),
            col("d").add(i32_max()),
            col("d").sub(i32_max()),
            i32_max().add(col("d")),
        ];
        for expr in cases {
            let bound = expr.bind(&t).unwrap();
            if let Err(msg) = check_vm(&bound, &t, &all) {
                panic!("{expr:?}: {msg}");
            }
            assert_eq!(
                eval(&bound, &t, RowSel::Span(0, all.len())).map(|c| c.to_values()),
                interpret(&bound, &t, &all),
                "expr: {expr:?}"
            );
        }
    }

    /// One expression per block kind the VM hands a call — a constant (value
    /// and NULL), typed Int, Float and Bool blocks, and per-row values holding
    /// strings or dates — over every row, a strided selection and a selection
    /// short enough for the per-row interpreter.
    #[test]
    fn typed_values_match_the_interpreter_for_every_block_kind() {
        let t = table(&[-6, -1, 0, 1, 2, 3, 60, 9, 15, -30, 7]);
        let n = t.num_rows();
        let all: Vec<usize> = (0..n).collect();
        let odd: Vec<usize> = (0..n).filter(|i| i % 2 == 1).collect();
        let short: Vec<usize> = vec![4, 0, 2];
        let cases: Vec<(Expr, &str)> = vec![
            (lit(7i64).add(lit(1i64)), "Const int"),
            (lit(2.5).mul(lit(-0.0)), "Const float"),
            (Expr::Lit(Value::Null).add(lit(1i64)), "Const NULL"),
            (lit(Value::str("k")), "Const str"),
            (col("a"), "Int"),
            (col("b").mul(lit(3i64)), "Int with NULLs"),
            (col("f").neg(), "Float"),
            (col("g").div(col("a")), "Float with NULLs"),
            (col("a").gt(lit(1i64)), "Bool"),
            (col("b").lt(lit(0i64)).not(), "Bool with NULLs"),
            (col("s"), "Vals of Str"),
            (col("d"), "Vals of Date"),
            (col("d").add(lit(7i64)), "Vals of Date arithmetic"),
        ];
        for (expr, kind) in cases {
            let bound = expr.bind(&t).unwrap();
            for rows in [&all, &odd, &short] {
                if let Err(e) = check_typed_values(&bound, &t, rows) {
                    panic!("{kind} ({expr:?}) over {rows:?}: {e}");
                }
            }
        }
    }
}
