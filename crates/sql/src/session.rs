//! [`SqlSession`]: registered tables + execution options + `query()`.
//!
//! The session is the top of the stack: it parses SQL text, plans it against
//! a registered table, runs the `WHERE` pre-filter, hands each distinct
//! resolved window to the engine as one [`WindowQuery`](crate::WindowQuery)
//! (so same-window
//! calls share sorts, merge sort trees, and every other cached artifact),
//! assembles the `SELECT` list in source order, and applies the final
//! `ORDER BY` with the engine's own sort semantics.

use crate::error::{PlanError, SqlError};
use crate::planner::{self, PlannedItem, SqlPlan};
use holistic_window::executor::{ExecOptions, ExecProfile};
use holistic_window::order::{sort_permutation, KeyColumns};
use holistic_window::{Column, Expr, SortKey, Table};
use std::collections::{HashMap, HashSet};

/// An embedded SQL session over in-memory tables.
///
/// ```
/// use holistic_sql::SqlSession;
/// use holistic_window::{Column, Table, Value};
///
/// let mut session = SqlSession::new();
/// session.register(
///     "t",
///     Table::new(vec![
///         ("g", Column::strs(vec!["a", "a", "b"])),
///         ("v", Column::ints(vec![10, 20, 30])),
///     ])
///     .unwrap(),
/// );
/// let out = session
///     .query("SELECT g, sum(v) OVER (PARTITION BY g) AS s FROM t")
///     .unwrap();
/// assert_eq!(out.column("s").unwrap().to_values(),
///            vec![Value::Int(30), Value::Int(30), Value::Int(30)]);
/// ```
#[derive(Debug, Default)]
pub struct SqlSession {
    tables: HashMap<String, Table>,
    opts: ExecOptions,
}

impl SqlSession {
    /// A session with default (fully adaptive) execution options.
    pub fn new() -> Self {
        SqlSession::default()
    }

    /// A session with explicit execution options.
    pub fn with_options(opts: ExecOptions) -> Self {
        SqlSession { tables: HashMap::new(), opts }
    }

    /// The session's execution options.
    pub fn options(&self) -> ExecOptions {
        self.opts
    }

    /// Registers (or replaces) a table under `name` for `FROM` resolution.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> &mut Self {
        self.tables.insert(name.into(), table);
        self
    }

    /// Parses, plans, and executes `sql`, returning the result table.
    pub fn query(&self, sql: &str) -> Result<Table, SqlError> {
        self.query_profiled(sql).map(|(out, _)| out)
    }

    /// Like [`SqlSession::query`] with a one-off options override.
    pub fn query_with(&self, sql: &str, opts: ExecOptions) -> Result<Table, SqlError> {
        let (out, _) = self.run(sql, opts)?;
        Ok(out)
    }

    /// Executes `sql` and also returns one engine [`ExecProfile`] per
    /// distinct window in the query (artifact-cache hit counters, phase
    /// timings, strategy decisions).
    pub fn query_profiled(&self, sql: &str) -> Result<(Table, Vec<ExecProfile>), SqlError> {
        self.run(sql, self.opts)
    }

    fn run(&self, sql: &str, opts: ExecOptions) -> Result<(Table, Vec<ExecProfile>), SqlError> {
        let query = crate::parser::parse_query(sql)?;
        // Resolve FROM first so column checks in `plan` see the right table.
        let from_name = &query.from.0;
        let Some(table) = self.tables.get(from_name) else {
            return Err(SqlError::Plan(PlanError::new(
                sql,
                query.from.1,
                format!("unknown table `{from_name}`"),
            )));
        };
        let plan = planner::plan(sql, &query, Some(table))?;
        execute_plan(sql, &plan, table, opts)
    }
}

/// Executes a plan against `table` directly (no session registry); `src` is
/// the original SQL text, used to render positional diagnostics.
pub fn execute_plan(
    src: &str,
    plan: &SqlPlan,
    table: &Table,
    opts: ExecOptions,
) -> Result<(Table, Vec<ExecProfile>), SqlError> {
    // 1. WHERE pre-filter (SQL evaluates WHERE before window functions).
    //    Without a WHERE the registered table is used in place.
    let kept;
    let filtered: &Table = match &plan.filter {
        Some(pred) => {
            kept = filter_table(table, pred)?;
            &kept
        }
        None => table,
    };

    // 2. One engine execution per distinct resolved window. Each output
    //    column moves into the result on its last use in the SELECT list, so
    //    `pending` counts the items still to reference it.
    let mut window_outputs: Vec<Vec<(Option<Column>, usize)>> =
        Vec::with_capacity(plan.windows.len());
    let mut profiles: Vec<ExecProfile> = Vec::with_capacity(plan.windows.len());
    for query in &plan.windows {
        let (out, profile) = query.execute_profiled(filtered, opts)?;
        window_outputs
            .push(out.into_columns().into_iter().map(|(_, col)| (Some(col), 0)).collect());
        profiles.push(profile);
    }
    for item in &plan.items {
        if let PlannedItem::Window { group, call, .. } = item {
            window_outputs[*group][*call].1 += 1;
        }
    }

    // 3. Assemble the SELECT list in source order, enforcing unique output
    //    names (the engine's `Table` does not).
    let mut out = Table::empty();
    let mut seen: HashSet<String> = HashSet::new();
    let mut claim = |name: &str, span| {
        if seen.insert(name.to_string()) {
            Ok(())
        } else {
            Err(SqlError::Plan(PlanError::new(
                src,
                span,
                format!("duplicate output column `{name}` (use AS to rename)"),
            )))
        }
    };
    for item in &plan.items {
        match item {
            PlannedItem::AllColumns { span } => {
                for (name, col) in filtered.iter() {
                    claim(name, *span)?;
                    out.add_column(name, col.clone())?;
                }
            }
            PlannedItem::Scalar { expr, name, span } => {
                claim(name, *span)?;
                out.add_column(name.clone(), expr.bind(filtered)?.eval_column(filtered)?)?;
            }
            PlannedItem::Window { group, call, name, span } => {
                claim(name, *span)?;
                let (col, pending) = &mut window_outputs[*group][*call];
                *pending -= 1;
                let col = if *pending == 0 { col.take() } else { col.clone() };
                out.add_column(name.clone(), col.expect("taken only on the last counted use"))?;
            }
        }
    }

    // 4. Final ORDER BY: keys naming an output column (by bare identifier)
    //    sort by that column; everything else evaluates against the filtered
    //    input. Sorting reuses the engine's comparator, so NULL placement and
    //    direction semantics match window-internal ordering exactly.
    if !plan.order_by.is_empty() {
        let mut key_table = Table::empty();
        let mut keys: Vec<SortKey> = Vec::with_capacity(plan.order_by.len());
        for (i, key) in plan.order_by.iter().enumerate() {
            let col = match &key.expr {
                Expr::Col(name) if out.column_index(name).is_ok() => out.column(name)?.clone(),
                other => other.bind(filtered)?.eval_column(filtered)?,
            };
            let kname = format!("__sort_key_{i}");
            key_table.add_column(kname.clone(), col)?;
            keys.push(SortKey {
                expr: Expr::Col(kname),
                desc: key.desc,
                nulls_first: key.nulls_first,
            });
        }
        let key_cols = KeyColumns::evaluate(&key_table, &keys)?;
        let mut perm: Vec<usize> = (0..out.num_rows()).collect();
        sort_permutation(&key_cols, &mut perm, opts.parallel);
        out = permute_table(&out, &perm)?;
    }

    Ok((out, profiles))
}

/// Keeps the rows where `pred` evaluates to TRUE (NULL is falsy, matching
/// the engine's `FILTER` semantics). The mask is computed once; each column
/// is filtered in its own type.
fn filter_table(table: &Table, pred: &Expr) -> Result<Table, SqlError> {
    let keep = pred.bind(table)?.eval_mask(table)?;
    let mut out = Table::empty();
    for (name, col) in table.iter() {
        out.add_column(name, col.filter(&keep))?;
    }
    Ok(out)
}

/// The table's rows in `perm` order, each column gathered in its own type.
fn permute_table(table: &Table, perm: &[usize]) -> Result<Table, SqlError> {
    let mut out = Table::empty();
    for (name, col) in table.iter() {
        out.add_column(name, col.gather(perm.iter().map(|&i| Some(i))))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_window::Value;

    fn session() -> SqlSession {
        let mut s = SqlSession::new();
        s.register(
            "t",
            Table::new(vec![
                ("g", Column::strs(vec!["a", "b", "a", "b"])),
                ("v", Column::ints(vec![4, 3, 2, 1])),
            ])
            .unwrap(),
        );
        s
    }

    #[test]
    fn where_runs_before_windows() {
        let out = session().query("SELECT v, count(*) OVER () AS n FROM t WHERE v > 2").unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("n").unwrap().get(0), Value::Int(2));
    }

    #[test]
    fn final_order_by_alias_and_expression() {
        let out = session()
            .query("SELECT v, row_number() OVER (ORDER BY v) AS r FROM t ORDER BY r DESC")
            .unwrap();
        assert_eq!(
            out.column("v").unwrap().to_values(),
            vec![Value::Int(4), Value::Int(3), Value::Int(2), Value::Int(1)]
        );
        let out = session().query("SELECT g, v FROM t ORDER BY v * -1").unwrap();
        assert_eq!(out.column("v").unwrap().get(0), Value::Int(4));

        // The permutation carries every column in its own type, NULLs and
        // strings included.
        let mut s = SqlSession::new();
        s.register(
            "u",
            Table::new(vec![
                ("name", Column::strs(vec!["c", "a", "d", "b"])),
                ("x", Column::ints_opt(vec![Some(3), Some(1), None, Some(2)])),
            ])
            .unwrap(),
        );
        let out = s.query("SELECT name, x FROM u ORDER BY x NULLS FIRST").unwrap();
        let names = out.column("name").unwrap();
        assert!(matches!(names, Column::Str(..)));
        assert_eq!(names.to_values(), ["d", "a", "b", "c"].map(Value::str));
        let x = out.column("x").unwrap();
        assert!(matches!(x, Column::Int(..)));
        assert_eq!(
            x.to_values(),
            [None, Some(1), Some(2), Some(3)].map(|v| v.map_or(Value::Null, Value::Int))
        );
    }

    /// A computed item that is NULL on every row is typed by its expression,
    /// not by the table's size: short tables take the per-row interpreter.
    #[test]
    fn all_null_computed_items_keep_their_type() {
        for n in [3, 12] {
            let mut s = SqlSession::new();
            s.register("u", Table::new(vec![("f", Column::floats_opt(vec![None; n]))]).unwrap());
            let out = s.query("SELECT f * 2 AS y FROM u ORDER BY f + 1").unwrap();
            let y = out.column("y").unwrap();
            assert!(matches!(y, Column::Float(..)), "{n} rows: {y:?}");
            assert_eq!(y.to_values(), vec![Value::Null; n]);
        }
    }

    #[test]
    fn star_expands_and_duplicates_are_rejected() {
        let out = session().query("SELECT *, count(*) OVER () AS n FROM t").unwrap();
        assert_eq!(out.num_columns(), 3);
        let err = session().query("SELECT v, sum(v) OVER () AS v FROM t").unwrap_err();
        assert!(err.to_string().contains("duplicate output column"), "{err}");
    }

    #[test]
    fn unknown_table_is_positional() {
        let err = session().query("SELECT count(*) OVER () FROM nope").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("unknown table `nope`"), "{text}");
        assert!(text.contains("^^^^"), "{text}");
    }
}
