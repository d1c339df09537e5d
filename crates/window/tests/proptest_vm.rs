//! Property tests for the compiled expression VM: over random expression
//! trees and random data — including NULLs, mixed Int/Float arithmetic,
//! three-valued logic, dates, strings (type errors) and division by zero —
//! the stack VM must be bit-identical to the recursive interpreter, both on
//! values and on the error contract (a VM error falls back to the
//! interpreter, whose first-row error is canonical). The typed column a
//! call's argument becomes (`vm::eval_rows`) must hold the interpreter's
//! values, bit for bit, in a column of their type.

use holistic_window::expr::{BoundExpr, Expr};
use holistic_window::vm::eval_rows;
use holistic_window::{col, lit, Column, ExprVm, Program, Table, Value};
use proptest::prelude::*;

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
    match t % 18 {
        0 => build_expr(genome, depth - 1).add(build_expr(genome, depth - 1)),
        1 => build_expr(genome, depth - 1).sub(build_expr(genome, depth - 1)),
        2 => build_expr(genome, depth - 1).mul(build_expr(genome, depth - 1)),
        3 => build_expr(genome, depth - 1).div(build_expr(genome, depth - 1)),
        4 => build_expr(genome, depth - 1).rem(build_expr(genome, depth - 1)),
        5 => build_expr(genome, depth - 1).lt(build_expr(genome, depth - 1)),
        6 => build_expr(genome, depth - 1).le(build_expr(genome, depth - 1)),
        7 => build_expr(genome, depth - 1).gt(build_expr(genome, depth - 1)),
        8 => build_expr(genome, depth - 1).ge(build_expr(genome, depth - 1)),
        9 => build_expr(genome, depth - 1).eq_(build_expr(genome, depth - 1)),
        10 => build_expr(genome, depth - 1).ne(build_expr(genome, depth - 1)),
        11 => build_expr(genome, depth - 1).and(build_expr(genome, depth - 1)),
        12 => build_expr(genome, depth - 1).or(build_expr(genome, depth - 1)),
        13 => build_expr(genome, depth - 1).not(),
        14 => build_expr(genome, depth - 1).neg(),
        _ => leaf(t),
    }
}

/// A table exercising every column type the VM gathers: plain ints, ints
/// with NULLs, floats, floats with NULLs, dates, strings (arithmetic type
/// errors), with values spanning zero (division), negatives and duplicates.
fn table(xs: &[i64]) -> Table {
    let n = xs.len();
    Table::new(vec![
        ("a", Column::ints(xs.to_vec())),
        (
            "b",
            Column::ints_opt(
                xs.iter().map(|&x| if x % 3 == 0 { None } else { Some(x * 7) }).collect(),
            ),
        ),
        ("f", Column::floats(xs.iter().map(|&x| x as f64 / 4.0).collect())),
        (
            "g",
            Column::floats_opt(
                xs.iter().map(|&x| if x % 5 == 0 { None } else { Some(x as f64 * 1.5) }).collect(),
            ),
        ),
        ("d", Column::dates(xs.iter().map(|&x| (x % 1000) as i32).collect())),
        ("s", Column::strs((0..n).map(|i| format!("s{}", i % 4)).collect::<Vec<_>>())),
    ])
    .unwrap()
}

/// The executor's evaluation contract, expressed through the public API: a
/// compiled run that errors defers to the interpreter for the canonical
/// first-row error.
fn vm_with_fallback(
    bound: &BoundExpr,
    t: &Table,
    rows: &[usize],
) -> Result<Vec<Value>, holistic_window::Error> {
    let prog = Program::compile(bound);
    match ExprVm::new().run_rows(&prog, t, rows) {
        Ok(col) => Ok(col.to_values()),
        Err(_) => rows.iter().map(|&r| bound.eval(t, r)).collect(),
    }
}

/// The typed values of `bound` over `rows` against the interpreter's: both
/// error, or the column holds the interpreter's values — floats bit for bit —
/// and every non-NULL one has the column's type.
fn check_typed_values(bound: &BoundExpr, t: &Table, rows: &[usize]) -> Result<(), String> {
    let interp: Result<Vec<Value>, _> = rows.iter().map(|&r| bound.eval(t, r)).collect();
    match (interp, eval_rows(bound, t, rows)) {
        (Err(_), Err(_)) => Ok(()),
        (Ok(want), Ok(got)) => {
            if got.len() != want.len() {
                return Err(format!("{} rows, want {}", got.len(), want.len()));
            }
            for (i, w) in want.iter().enumerate() {
                let g = got.get(i);
                let same = match (w, &g) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    _ => format!("{w:?}") == format!("{g:?}"),
                };
                if !same || w.data_type().is_some_and(|dt| dt != got.data_type()) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn vm_matches_interpreter_on_random_trees(
        genome in prop::collection::vec(any::<u8>(), 1..40),
        xs in prop::collection::vec(-60i64..60, 1..80),
    ) {
        let t = table(&xs);
        let mut g = genome.as_slice();
        let expr = build_expr(&mut g, 4);
        let bound = expr.bind(&t).unwrap();
        let all: Vec<usize> = (0..xs.len()).collect();
        let interp: Result<Vec<Value>, _> = all.iter().map(|&r| bound.eval(&t, r)).collect();
        let vm = vm_with_fallback(&bound, &t, &all);
        prop_assert_eq!(&vm, &interp, "expr: {:?}", expr);

        // A strided row selection (the shape partitions present).
        let odd: Vec<usize> = (0..xs.len()).filter(|i| i % 2 == 1).collect();
        let interp_odd: Result<Vec<Value>, _> = odd.iter().map(|&r| bound.eval(&t, r)).collect();
        let vm_odd = vm_with_fallback(&bound, &t, &odd);
        prop_assert_eq!(&vm_odd, &interp_odd, "expr: {:?}", expr);

        // The typed artifact, through the VM and (short selections) the
        // interpreter.
        let short: Vec<usize> = all.iter().copied().rev().take(5).collect();
        for rows in [&all, &odd, &short] {
            let res = check_typed_values(&bound, &t, rows);
            prop_assert!(res.is_ok(), "expr {:?} over {:?}: {:?}", expr, rows, res);
        }
    }

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
        let prog = Program::compile(&bound);
        if let Ok(mask) = ExprVm::new().run_filter_mask(&prog, &t) {
            let interp: Vec<bool> =
                (0..xs.len()).map(|r| bound.eval(&t, r).unwrap().is_truthy()).collect();
            prop_assert_eq!(mask, interp, "expr: {:?}", expr);
        }
    }
}

/// Known-edge battery: the cases the generators only hit by luck.
#[test]
fn vm_edge_cases_match_interpreter() {
    let t = table(&[-6, -1, 0, 1, 2, 3, 60]);
    let n = t.num_rows();
    let all: Vec<usize> = (0..n).collect();
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
        lit(i64::MAX).mul(col("a")),
    ];
    for expr in cases {
        let bound = expr.bind(&t).unwrap();
        let interp: Result<Vec<Value>, _> = all.iter().map(|&r| bound.eval(&t, r)).collect();
        let vm = vm_with_fallback(&bound, &t, &all);
        assert_eq!(vm, interp, "expr: {expr:?}");
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
