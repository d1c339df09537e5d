//! Compiled expression programs: a compile-once stack VM replacing the
//! recursive interpreter on the hot path.
//!
//! Frame-bound and FILTER expressions used to be evaluated by walking the
//! [`BoundExpr`] tree once per row — a pointer chase plus a `Value` enum
//! round-trip per node per row. `ExprCompiler` lowers a bound tree once
//! into a flat [`Program`] (a post-order op vector plus a constant pool,
//! both `Arc`-shared so plans can hand programs to worker threads for free),
//! and a reusable [`ExprVm`] executes the program over a whole partition at
//! a time: each op consumes and produces *column blocks* (typed vectors with
//! validity masks), so the op dispatch cost is paid once per block instead
//! of once per row and the inner loops are tight monomorphic kernels over
//! `i64`/`f64`/`bool` slices.
//!
//! Semantics are bit-identical to the interpreter by construction: every
//! kernel arm mirrors the corresponding `eval_binop` arm (same wrapping
//! arithmetic, same `total_cmp` float ordering, same three-valued logic,
//! same division-by-zero → NULL rule), and anything the kernels do not cover
//! (dates, strings, type errors) falls through to a per-element path that
//! calls the *interpreter's own* scalar functions. Because the interpreter
//! is strict — both operands of every node are evaluated for every row — an
//! expression errors under the VM if and only if it errors under the
//! interpreter, so callers that need the interpreter's canonical first-error
//! simply re-run the per-row path when the VM returns an error.

use crate::column::{Column, Validity};
use crate::error::{Error, Result};
use crate::expr::{eval_binop, neg_value, not_value, BinOp, BoundExpr};
use crate::table::Table;
use crate::value::Value;
use std::sync::Arc;

/// One instruction of a compiled expression program.
///
/// Programs are post-order serializations of the bound tree: operands are
/// pushed before their operator, so execution is a single forward pass over
/// the op vector with an explicit block stack — no recursion, no tree
/// pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push the values of column `.0` for the selected rows.
    Col(u32),
    /// Push constant-pool entry `.0`, broadcast over the block.
    Const(u32),
    /// Pop two blocks, apply the binary operator element-wise, push.
    Bin(BinOp),
    /// Pop one block, three-valued logical NOT, push.
    Not,
    /// Pop one block, arithmetic negation, push.
    Neg,
}

/// A compiled expression: flat op vector + constant pool, cheap to clone and
/// share across threads.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Arc<[Op]>,
    consts: Arc<[Value]>,
    max_stack: usize,
}

impl Program {
    /// Lowers a bound expression tree into a program.
    pub fn compile(expr: &BoundExpr) -> Program {
        let mut c = ExprCompiler { ops: Vec::new(), consts: Vec::new(), depth: 0, max_depth: 0 };
        c.lower(expr);
        debug_assert_eq!(c.depth, 1);
        Program { ops: c.ops.into(), consts: c.consts.into(), max_stack: c.max_depth }
    }

    /// Number of ops in the program.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty program (never produced by [`Program::compile`]).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Peak operand-stack depth during execution.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }
}

/// Post-order lowering of a [`BoundExpr`] into ops + constants, tracking the
/// operand-stack high-water mark.
struct ExprCompiler {
    ops: Vec<Op>,
    consts: Vec<Value>,
    depth: usize,
    max_depth: usize,
}

impl ExprCompiler {
    fn produced(&mut self) {
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
    }

    fn lower(&mut self, e: &BoundExpr) {
        match e {
            BoundExpr::Col(idx) => {
                self.ops.push(Op::Col(*idx as u32));
                self.produced();
            }
            BoundExpr::Lit(v) => {
                let idx = self.consts.len() as u32;
                self.consts.push(v.clone());
                self.ops.push(Op::Const(idx));
                self.produced();
            }
            BoundExpr::Bin(op, a, b) => {
                self.lower(a);
                self.lower(b);
                self.ops.push(Op::Bin(*op));
                self.depth -= 1; // two consumed, one produced
            }
            BoundExpr::Not(a) => {
                self.lower(a);
                self.ops.push(Op::Not);
            }
            BoundExpr::Neg(a) => {
                self.lower(a);
                self.ops.push(Op::Neg);
            }
        }
    }
}

/// Which rows of the table a program run covers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowSel<'a> {
    /// All rows `0..n` in order.
    All(usize),
    /// An explicit row selection (a partition in window order).
    Rows(&'a [usize]),
}

impl RowSel<'_> {
    fn len(&self) -> usize {
        match self {
            RowSel::All(n) => *n,
            RowSel::Rows(r) => r.len(),
        }
    }
}

/// `valid[i]` with the "empty means all-valid" convention.
#[inline]
pub(crate) fn vld(valid: &[bool], i: usize) -> bool {
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
    /// The block of `n` positions as a predicate mask: `true` exactly where
    /// the value is truthy (`Value::is_truthy` — NULL and non-bool values
    /// are falsy), matching the interpreter's mask rule.
    fn truthy_mask(self, n: usize) -> Vec<bool> {
        match self {
            Block::Bool(d, v) => (0..n).map(|i| vld(&v, i) && d[i]).collect(),
            Block::Const(c) => vec![c.is_truthy(); n],
            Block::Int(..) | Block::Float(..) => vec![false; n],
            Block::Vals(vs) => vs.iter().map(|v| v.is_truthy()).collect(),
        }
    }

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
    pub(crate) fn value_at(&self, i: usize) -> Value {
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
        match sel {
            RowSel::All(n) => (d[..n].to_vec(), if v.is_empty() { Vec::new() } else { v.to_vec() }),
            RowSel::Rows(rows) => {
                let data = rows.iter().map(|&r| d[r]).collect();
                let valid = if v.is_empty() {
                    Vec::new()
                } else {
                    normalize(rows.iter().map(|&r| v[r]).collect())
                };
                (data, valid)
            }
        }
    }
    match (col, sel) {
        (Column::Int(d, v), sel) => {
            let (d, v) = pick(d, v, sel);
            Block::Int(d, v)
        }
        (Column::Float(d, v), sel) => {
            let (d, v) = pick(d, v, sel);
            Block::Float(d, v)
        }
        (Column::Bool(d, v), sel) => {
            let (d, v) = pick(d, v, sel);
            Block::Bool(d, v)
        }
        (col, RowSel::All(n)) => Block::Vals((0..n).map(|r| col.get(r)).collect()),
        (col, RowSel::Rows(rows)) => Block::Vals(rows.iter().map(|&r| col.get(r)).collect()),
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

/// Fallible variant of [`build`], for kernels that must bail out to the
/// interpreter mid-block (integer overflow poisons).
fn try_build<T: Default>(
    n: usize,
    mut f: impl FnMut(usize) -> Result<Option<T>>,
) -> Result<(Vec<T>, Validity)> {
    let mut data = Vec::with_capacity(n);
    let mut valid = Vec::with_capacity(n);
    let mut any_null = false;
    for i in 0..n {
        match f(i)? {
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
    Ok((data, if any_null { valid } else { Vec::new() }))
}

/// The interpreter *panics* on `i64::MIN / -1` (always-checked division
/// overflow) and on `-i64::MIN` (debug builds) — but only when it actually
/// reaches that row. The VM evaluates rows the canonical per-row walk might
/// never reach (an earlier row of another operand can error first), so the
/// kernels must not trip those panics eagerly: they surface this error
/// instead, and the caller re-runs the per-row interpreter, which panics or
/// errors in exactly the canonical order.
const POISON: Error = Error::Overflow("i64 overflow deferred to the per-row interpreter");

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
        let (d, v) = try_build(n, |i| {
            Ok(match (sa.get(i), sb.get(i)) {
                (Some(x), Some(y)) => match op {
                    Add => Some(x.wrapping_add(y)),
                    Sub => Some(x.wrapping_sub(y)),
                    Mul => Some(x.wrapping_mul(y)),
                    Div | Mod => {
                        if y == 0 {
                            None
                        } else if x == i64::MIN && y == -1 {
                            return Err(POISON);
                        } else if op == Div {
                            Some(x / y)
                        } else {
                            Some(x.rem_euclid(y))
                        }
                    }
                    _ => unreachable!(),
                },
                _ => None,
            })
        })?;
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
        Block::Int(d, v) => {
            // Only negate valid slots: NULL slots hold unspecified padding.
            let mut out = Vec::with_capacity(d.len());
            for (i, &x) in d.iter().enumerate() {
                if vld(&v, i) {
                    if x == i64::MIN {
                        return Err(POISON);
                    }
                    out.push(-x);
                } else {
                    out.push(0);
                }
            }
            Ok(Block::Int(out, v))
        }
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

/// A reusable expression VM: one per thread (or probe chunk), executing any
/// number of programs without allocation of the operand stack itself.
#[derive(Debug, Default)]
pub struct ExprVm {
    stack: Vec<Block>,
}

impl ExprVm {
    /// A fresh VM with an empty operand stack.
    pub fn new() -> ExprVm {
        ExprVm { stack: Vec::new() }
    }

    /// Executes `prog` over the selected rows and returns the result block.
    pub(crate) fn run_block(
        &mut self,
        prog: &Program,
        table: &Table,
        sel: RowSel<'_>,
    ) -> Result<Block> {
        let n = sel.len();
        if n == 0 {
            // The interpreter evaluates nothing over zero rows (so it cannot
            // error or panic); neither may the VM — skip even constant
            // folding.
            return Ok(Block::Vals(Vec::new()));
        }
        self.stack.clear();
        self.stack.reserve(prog.max_stack);
        for op in prog.ops.iter() {
            match *op {
                Op::Col(idx) => self.stack.push(gather(table.column_at(idx as usize), sel)),
                Op::Const(idx) => self.stack.push(Block::Const(prog.consts[idx as usize].clone())),
                Op::Bin(bin) => {
                    let b = self.stack.pop().expect("vm stack underflow");
                    let a = self.stack.pop().expect("vm stack underflow");
                    let r = exec_bin(bin, a, b, n);
                    self.stack.push(r?);
                }
                Op::Not => {
                    let a = self.stack.pop().expect("vm stack underflow");
                    let r = exec_not(a, n);
                    self.stack.push(r?);
                }
                Op::Neg => {
                    let a = self.stack.pop().expect("vm stack underflow");
                    let r = exec_neg(a, n);
                    self.stack.push(r?);
                }
            }
        }
        debug_assert_eq!(self.stack.len(), 1);
        Ok(self.stack.pop().expect("vm produced no result"))
    }

    /// Evaluates `prog` for every table row into a typed [`Column`], with the
    /// same type-inference rules as [`Column::from_values`] (all-NULL → Int;
    /// per-row Ints under a Float result widen).
    pub fn run_column(&mut self, prog: &Program, table: &Table) -> Result<Column> {
        let n = table.num_rows();
        self.run_block(prog, table, RowSel::All(n))?.into_column(n)
    }

    /// Evaluates `prog` for an explicit row selection (a partition in window
    /// order) into a typed column, one row per position, with
    /// [`ExprVm::run_column`]'s rules.
    pub fn run_rows(&mut self, prog: &Program, table: &Table, rows: &[usize]) -> Result<Column> {
        self.run_block(prog, table, RowSel::Rows(rows))?.into_column(rows.len())
    }

    /// Evaluates `prog` as a predicate for every table row: `true` exactly
    /// when the row's value is truthy (`Value::is_truthy` — NULL and
    /// non-bool values are falsy), matching the interpreter's mask rule.
    pub fn run_filter_mask(&mut self, prog: &Program, table: &Table) -> Result<Vec<bool>> {
        let n = table.num_rows();
        Ok(self.run_block(prog, table, RowSel::All(n))?.truthy_mask(n))
    }
}

/// Selections shorter than this are interpreted row by row. Compiling a
/// program and running its block ops has a fixed cost (150–350 ns measured)
/// that a computed expression repays from about 7 rows on (a bare column
/// reference only past 100, within 1.2× from 32) — and a query over 50 000
/// partitions of 1–7 rows pays it 50 000 times. Both evaluators agree bit
/// for bit (`proptest_vm.rs`), so the rule moves time only.
const INTERPRET_BELOW: usize = 8;

/// The block `bound` evaluates to over `rows`, through the VM. `None` sends
/// the caller to the per-row interpreter: the selection is short
/// ([`INTERPRET_BELOW`]), or the VM failed and the interpreter is asked for
/// the canonical first error.
fn run_rows(bound: &BoundExpr, table: &Table, rows: &[usize]) -> Option<Block> {
    if rows.len() < INTERPRET_BELOW {
        return None;
    }
    ExprVm::new().run_block(&Program::compile(bound), table, RowSel::Rows(rows)).ok()
}

/// Evaluates a bound expression for an explicit row selection (a partition
/// in window order) into a typed column, one row per position — a call's
/// argument values. The VM's column ([`ExprVm::run_rows`]), or on the per-row
/// path the interpreter's values under [`Column::from_values`]' rules, which
/// the VM's agree with.
pub fn eval_rows(bound: &BoundExpr, table: &Table, rows: &[usize]) -> Result<Column> {
    match run_rows(bound, table, rows) {
        Some(block) => block.into_column(rows.len()),
        None => {
            let values: Vec<Value> =
                rows.iter().map(|&r| bound.eval(table, r)).collect::<Result<_>>()?;
            Column::from_values(&values)
        }
    }
}

/// Evaluates a bound predicate for an explicit row selection into a kept-row
/// mask (`is_truthy` per row — NULL and non-bool are falsy). The FILTER half
/// of the mask artifact builds through this.
pub(crate) fn eval_filter_rows(
    bound: &BoundExpr,
    table: &Table,
    rows: &[usize],
) -> Result<Vec<bool>> {
    match run_rows(bound, table, rows) {
        Some(block) => Ok(block.truthy_mask(rows.len())),
        None => rows.iter().map(|&r| Ok(bound.eval(table, r)?.is_truthy())).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, Expr};
    use crate::value::Value;

    fn table() -> Table {
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
        let t = table();
        let bound = e.bind(&t).unwrap();
        let prog = Program::compile(&bound);
        let mut vm = ExprVm::new();
        let interp: Result<Vec<Value>> = (0..t.num_rows()).map(|i| bound.eval(&t, i)).collect();
        let rows: Vec<usize> = (0..t.num_rows()).collect();
        match (interp, vm.run_rows(&prog, &t, &rows).map(|c| c.to_values())) {
            (Ok(want), Ok(got)) => {
                for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert!(bitwise_eq(w, g), "row {i}: interpreter {w:?} != vm {g:?} for {e:?}");
                }
            }
            (Err(_), Err(_)) => {}
            (i, v) => panic!("err-ness mismatch for {e:?}: interp {i:?} vm {v:?}"),
        }
    }

    fn bitwise_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
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
        let t = table();
        let bound = lit(2).add(lit(3)).bind(&t).unwrap();
        let prog = Program::compile(&bound);
        let mut vm = ExprVm::new();
        let c = vm.run_column(&prog, &t).unwrap();
        assert_eq!(c.to_values(), vec![Value::Int(5); 4]);
        // NULL constant → all-null Int column, like Column::from_values.
        let bound = lit(Value::Null).add(lit(3)).bind(&t).unwrap();
        let c = vm.run_column(&Program::compile(&bound), &t).unwrap();
        assert_eq!(c.to_values(), vec![Value::Null; 4]);
        assert!(matches!(c, Column::Int(..)));
    }

    #[test]
    fn filter_mask_matches_is_truthy() {
        let t = table();
        let e = col("t").or(col("b").gt(lit(5)));
        let bound = e.bind(&t).unwrap();
        let mut vm = ExprVm::new();
        let mask = vm.run_filter_mask(&Program::compile(&bound), &t).unwrap();
        let want: Vec<bool> =
            (0..t.num_rows()).map(|i| bound.eval(&t, i).unwrap().is_truthy()).collect();
        assert_eq!(mask, want);
        // Non-bool predicate: everything falsy.
        let bound = col("a").bind(&t).unwrap();
        let mask = vm.run_filter_mask(&Program::compile(&bound), &t).unwrap();
        assert_eq!(mask, vec![false; 4]);
    }

    #[test]
    fn row_selection_gathers_in_window_order() {
        let t = table();
        let bound = col("a").add(col("b")).bind(&t).unwrap();
        let prog = Program::compile(&bound);
        let mut vm = ExprVm::new();
        let got = vm.run_rows(&prog, &t, &[2, 0, 1]).unwrap();
        assert_eq!(got.to_values(), vec![Value::Int(37), Value::Int(13), Value::Null]);
    }

    #[test]
    fn program_shape() {
        let t = table();
        let bound = col("a").add(lit(1)).mul(col("b")).bind(&t).unwrap();
        let prog = Program::compile(&bound);
        assert_eq!(prog.len(), 5);
        assert_eq!(prog.max_stack(), 2);
        assert!(!prog.is_empty());
    }

    #[test]
    fn wrapping_arithmetic_matches() {
        let t = Table::new(vec![("x", Column::ints(vec![i64::MAX, i64::MIN, 1]))]).unwrap();
        let bound = col("x").add(lit(1)).bind(&t).unwrap();
        let mut vm = ExprVm::new();
        let got = vm.run_rows(&Program::compile(&bound), &t, &[0, 1, 2]).unwrap();
        let want: Vec<Value> = (0..3).map(|i| bound.eval(&t, i).unwrap()).collect();
        assert_eq!(got.to_values(), want);
    }
}
