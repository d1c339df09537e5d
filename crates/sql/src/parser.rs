//! Recursive-descent parser for window queries.
//!
//! Grammar (the normative EBNF lives in `SQL.md` at the repository root):
//!
//! ```text
//! query     := SELECT item ("," item)* FROM ident
//!              [WHERE expr] [WINDOW windef ("," windef)*]
//!              [ORDER BY sortkeys] [";"]
//! item      := "*" | call over [AS ident] | expr [AS ident]
//! call      := name "(" body ")" post*
//! body      := "*" | [DISTINCT] [args] [ORDER BY sortkeys] [nulltreat]
//! post      := nulltreat | WITHIN GROUP "(" ORDER BY sortkeys ")"
//!            | FILTER "(" WHERE expr ")"
//! over      := OVER ident | OVER "(" windowbody ")"
//! windef    := ident AS "(" windowbody ")"
//! ```
//!
//! Errors are always typed and positional ([`ParseError`]); the parser never
//! panics on any input.

use crate::ast::*;
use crate::error::{ParseError, Span};
use crate::lexer::{lex, Tok, Token};
use holistic_window::expr::BinOp;
use holistic_window::frame::{FrameExclusion, FrameMode};
use holistic_window::value::parse_date;
use holistic_window::Value;

/// The window function names the parser recognizes as calls.
pub const FUNCTION_NAMES: &[&str] = &[
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "row_number",
    "rank",
    "dense_rank",
    "percent_rank",
    "cume_dist",
    "ntile",
    "percentile_disc",
    "percentile_cont",
    "median",
    "first_value",
    "last_value",
    "nth_value",
    "lead",
    "lag",
    "mode",
];

/// Parses one window query.
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    let mut p = Parser { src, toks: lex(src)?, pos: 0 };
    p.query()
}

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn peek2(&self) -> &Token {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, expected: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError::new(self.src, t.span, expected, t.describe(self.src))
    }

    /// Current token is the keyword `k` (case-insensitive, unquoted).
    fn at_kw(&self, k: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s.eq_ignore_ascii_case(k))
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(&self.peek().tok, Tok::Punct(q) if *q == p)
    }

    fn eat_kw(&mut self, k: &str) -> bool {
        if self.at_kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, k: &str) -> Result<Token, ParseError> {
        if self.at_kw(k) {
            Ok(self.bump())
        } else {
            Err(self.err_here(format!("`{k}`")))
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<Token, ParseError> {
        if self.at_punct(p) {
            Ok(self.bump())
        } else {
            Err(self.err_here(format!("`{p}`")))
        }
    }

    /// Any identifier (quoted or not).
    fn expect_ident(&mut self, what: &str) -> Result<(String, Span), ParseError> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                let sp = self.bump().span;
                Ok((s, sp))
            }
            Tok::QuotedIdent(s) => {
                let s = s.clone();
                let sp = self.bump().span;
                Ok((s, sp))
            }
            _ => Err(self.err_here(what)),
        }
    }

    // ---- query ----

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("SELECT")?;
        let mut items = vec![self.select_item()?];
        while self.eat_punct(",") {
            items.push(self.select_item()?);
        }
        self.expect_kw("FROM")?;
        let from = self.expect_ident("a table name")?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut windows = Vec::new();
        if self.eat_kw("WINDOW") {
            loop {
                let (name, name_span) = self.expect_ident("a window name")?;
                self.expect_kw("AS")?;
                self.expect_punct("(")?;
                let def = self.window_body()?;
                self.expect_punct(")")?;
                windows.push(WindowDef { name, name_span, def });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            self.sort_keys()?
        } else {
            Vec::new()
        };
        self.eat_punct(";");
        if !matches!(self.peek().tok, Tok::Eof) {
            return Err(self.err_here("end of input"));
        }
        Ok(Query { items, from, where_clause, windows, order_by })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.at_punct("*") {
            let sp = self.bump().span;
            return Ok(SelectItem::Star(sp));
        }
        if let Tok::Ident(name) = &self.peek().tok {
            let lower = name.to_ascii_lowercase();
            if FUNCTION_NAMES.contains(&lower.as_str())
                && matches!(self.peek2().tok, Tok::Punct("("))
            {
                let call = self.call()?;
                let over = self.over_clause()?;
                let alias = self.alias()?;
                return Ok(SelectItem::Window { call: Box::new(call), over, alias });
            }
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(SelectItem::Scalar { expr, alias })
    }

    fn alias(&mut self) -> Result<Option<(String, Span)>, ParseError> {
        if self.eat_kw("AS") {
            Ok(Some(self.expect_ident("an output column name")?))
        } else {
            Ok(None)
        }
    }

    // ---- window calls ----

    fn call(&mut self) -> Result<AstCall, ParseError> {
        let (raw_name, name_span) = self.expect_ident("a function name")?;
        let name = raw_name.to_ascii_lowercase();
        self.expect_punct("(")?;
        let mut call = AstCall {
            name,
            name_span,
            star: false,
            distinct: false,
            args: Vec::new(),
            inner_order: Vec::new(),
            ignore_nulls: false,
            filter: None,
            span: name_span,
        };
        let mut saw_null_treatment = false;
        if self.at_punct("*") {
            self.bump();
            call.star = true;
        } else {
            if self.eat_kw("DISTINCT") {
                call.distinct = true;
            }
            if !self.at_punct(")") && !self.at_kw("ORDER") {
                call.args.push(self.expr()?);
                while self.eat_punct(",") {
                    call.args.push(self.expr()?);
                }
            }
            if self.eat_kw("ORDER") {
                self.expect_kw("BY")?;
                call.inner_order = self.sort_keys()?;
            }
            if self.at_kw("IGNORE") || self.at_kw("RESPECT") {
                call.ignore_nulls = self.null_treatment()?;
                saw_null_treatment = true;
            }
        }
        let close = self.expect_punct(")")?;
        call.span = name_span.to(close.span);
        // Post-parenthesis clauses, each at most once.
        loop {
            if self.at_kw("IGNORE") || self.at_kw("RESPECT") {
                let tok = self.peek().clone();
                if saw_null_treatment {
                    return Err(ParseError::new(
                        self.src,
                        tok.span,
                        "`OVER` (this call already has a null-treatment clause)",
                        tok.describe(self.src),
                    ));
                }
                call.ignore_nulls = self.null_treatment()?;
                saw_null_treatment = true;
            } else if self.at_kw("WITHIN") {
                let within = self.bump();
                self.expect_kw("GROUP")?;
                self.expect_punct("(")?;
                self.expect_kw("ORDER")?;
                self.expect_kw("BY")?;
                let keys = self.sort_keys()?;
                let close = self.expect_punct(")")?;
                if !call.inner_order.is_empty() {
                    return Err(ParseError::new(
                        self.src,
                        within.span,
                        "`OVER` (this call already has a function-level ORDER BY)",
                        "`WITHIN`",
                    ));
                }
                call.inner_order = keys;
                call.span = call.span.to(close.span);
            } else if self.at_kw("FILTER") {
                let filter_tok = self.bump();
                self.expect_punct("(")?;
                self.expect_kw("WHERE")?;
                let pred = self.expr()?;
                let close = self.expect_punct(")")?;
                if call.filter.is_some() {
                    return Err(ParseError::new(
                        self.src,
                        filter_tok.span,
                        "`OVER` (this call already has a FILTER clause)",
                        "`FILTER`",
                    ));
                }
                call.filter = Some(pred);
                call.span = call.span.to(close.span);
            } else {
                break;
            }
        }
        Ok(call)
    }

    /// `IGNORE NULLS` → true, `RESPECT NULLS` → false.
    fn null_treatment(&mut self) -> Result<bool, ParseError> {
        let ignore = self.at_kw("IGNORE");
        self.bump();
        self.expect_kw("NULLS")?;
        Ok(ignore)
    }

    fn over_clause(&mut self) -> Result<OverClause, ParseError> {
        if !self.at_kw("OVER") {
            return Err(self.err_here("`OVER` (window functions require an OVER clause)"));
        }
        self.bump();
        if self.eat_punct("(") {
            let def = self.window_body()?;
            self.expect_punct(")")?;
            Ok(OverClause::Inline(def))
        } else {
            let (name, span) = self.expect_ident("a window name or `(`")?;
            Ok(OverClause::Named(name, span))
        }
    }

    // ---- window definitions ----

    fn window_body(&mut self) -> Result<AstWindowDef, ParseError> {
        let start_span = self.peek().span;
        let mut def = AstWindowDef {
            base: None,
            partition_by: None,
            order_by: None,
            frame: None,
            span: start_span,
        };
        // An optional leading base-window name: any identifier that is not a
        // clause-starting keyword. (A window actually named `partition`,
        // `order`, `rows`, `range` or `groups` must be double-quoted here.)
        match &self.peek().tok {
            Tok::Ident(s)
                if !["PARTITION", "ORDER", "ROWS", "RANGE", "GROUPS"]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
            {
                let s = s.clone();
                let sp = self.bump().span;
                def.base = Some((s, sp));
            }
            Tok::QuotedIdent(s) => {
                let s = s.clone();
                let sp = self.bump().span;
                def.base = Some((s, sp));
            }
            _ => {}
        }
        if self.at_kw("PARTITION") {
            self.bump();
            self.expect_kw("BY")?;
            let mut exprs = vec![self.expr()?];
            while self.eat_punct(",") {
                exprs.push(self.expr()?);
            }
            def.partition_by = Some(exprs);
        }
        if self.at_kw("ORDER") {
            self.bump();
            self.expect_kw("BY")?;
            def.order_by = Some(self.sort_keys()?);
        }
        if self.at_kw("ROWS") || self.at_kw("RANGE") || self.at_kw("GROUPS") {
            def.frame = Some(self.frame()?);
        }
        let end = self.peek().span;
        def.span = Span::new(start_span.start, end.start.max(start_span.start));
        Ok(def)
    }

    fn frame(&mut self) -> Result<AstFrame, ParseError> {
        let mode_tok = self.bump();
        let mode = match &mode_tok.tok {
            Tok::Ident(s) if s.eq_ignore_ascii_case("ROWS") => FrameMode::Rows,
            Tok::Ident(s) if s.eq_ignore_ascii_case("RANGE") => FrameMode::Range,
            _ => FrameMode::Groups,
        };
        let (start, end) = if self.eat_kw("BETWEEN") {
            let start = self.bound()?;
            self.expect_kw("AND")?;
            let end = self.bound()?;
            (start, end)
        } else {
            // Single-bound short form: `ROWS n PRECEDING` means
            // `BETWEEN n PRECEDING AND CURRENT ROW` (SQL standard).
            (self.bound()?, AstBound::CurrentRow)
        };
        let exclusion = if self.eat_kw("EXCLUDE") {
            Some(if self.eat_kw("CURRENT") {
                self.expect_kw("ROW")?;
                FrameExclusion::CurrentRow
            } else if self.eat_kw("GROUP") {
                FrameExclusion::Group
            } else if self.eat_kw("TIES") {
                FrameExclusion::Ties
            } else if self.eat_kw("NO") {
                self.expect_kw("OTHERS")?;
                FrameExclusion::NoOthers
            } else {
                return Err(self.err_here("`CURRENT ROW`, `GROUP`, `TIES` or `NO OTHERS`"));
            })
        } else {
            None
        };
        let span = Span::new(mode_tok.span.start, self.toks[self.pos.saturating_sub(1)].span.end);
        Ok(AstFrame { mode, start, end, exclusion, span })
    }

    fn bound(&mut self) -> Result<AstBound, ParseError> {
        if self.eat_kw("UNBOUNDED") {
            return if self.eat_kw("PRECEDING") {
                Ok(AstBound::UnboundedPreceding)
            } else if self.eat_kw("FOLLOWING") {
                Ok(AstBound::UnboundedFollowing)
            } else {
                Err(self.err_here("`PRECEDING` or `FOLLOWING`"))
            };
        }
        if self.eat_kw("CURRENT") {
            self.expect_kw("ROW")?;
            return Ok(AstBound::CurrentRow);
        }
        // Offset expressions stop below AND/OR/NOT so that `BETWEEN a
        // PRECEDING AND b FOLLOWING` parses unambiguously; parenthesize to
        // use a boolean-typed expression (which would be rejected at
        // evaluation anyway).
        let e = self.cmp_expr()?;
        if self.eat_kw("PRECEDING") {
            Ok(AstBound::Preceding(e))
        } else if self.eat_kw("FOLLOWING") {
            Ok(AstBound::Following(e))
        } else {
            Err(self.err_here("`PRECEDING` or `FOLLOWING`"))
        }
    }

    fn sort_keys(&mut self) -> Result<Vec<AstSortKey>, ParseError> {
        let mut keys = vec![self.sort_key()?];
        while self.eat_punct(",") {
            keys.push(self.sort_key()?);
        }
        Ok(keys)
    }

    fn sort_key(&mut self) -> Result<AstSortKey, ParseError> {
        let expr = self.expr()?;
        let desc = if self.eat_kw("ASC") {
            Some(false)
        } else if self.eat_kw("DESC") {
            Some(true)
        } else {
            None
        };
        let nulls_first = if self.eat_kw("NULLS") {
            if self.eat_kw("FIRST") {
                Some(true)
            } else if self.eat_kw("LAST") {
                Some(false)
            } else {
                return Err(self.err_here("`FIRST` or `LAST`"));
            }
        } else {
            None
        };
        Ok(AstSortKey { expr, desc, nulls_first })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<AstExpr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.at_kw("OR") {
            self.bump();
            let rhs = self.and_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = AstExpr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.at_kw("AND") {
            self.bump();
            let rhs = self.not_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = AstExpr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<AstExpr, ParseError> {
        if self.at_kw("NOT") {
            let not_span = self.bump().span;
            let inner = self.not_expr()?;
            let span = not_span.to(inner.span());
            return Ok(AstExpr::Not(Box::new(inner), span));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<AstExpr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match &self.peek().tok {
            Tok::Punct("<") => Some(BinOp::Lt),
            Tok::Punct("<=") => Some(BinOp::Le),
            Tok::Punct(">") => Some(BinOp::Gt),
            Tok::Punct(">=") => Some(BinOp::Ge),
            Tok::Punct("=") => Some(BinOp::Eq),
            Tok::Punct("<>") => Some(BinOp::Ne),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let rhs = self.add_expr()?;
                let span = lhs.span().to(rhs.span());
                Ok(AstExpr::Bin(op, Box::new(lhs), Box::new(rhs), span))
            }
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match &self.peek().tok {
                Tok::Punct("+") => BinOp::Add,
                Tok::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = AstExpr::Bin(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match &self.peek().tok {
                Tok::Punct("*") => BinOp::Mul,
                Tok::Punct("/") => BinOp::Div,
                Tok::Punct("%") => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = AstExpr::Bin(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<AstExpr, ParseError> {
        if self.at_punct("-") {
            let minus = self.bump();
            // `-123` is a negative literal, not a negation node, so that
            // printed literals (including i64::MIN) round-trip structurally.
            if let Tok::Number(text) = &self.peek().tok {
                let text = text.clone();
                let num = self.bump();
                let span = minus.span.to(num.span);
                return self.number_literal(&text, span, true);
            }
            let inner = self.unary_expr()?;
            let span = minus.span.to(inner.span());
            return Ok(AstExpr::Neg(Box::new(inner), span));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr, ParseError> {
        match &self.peek().tok {
            Tok::Number(text) => {
                let text = text.clone();
                let span = self.bump().span;
                self.number_literal(&text, span, false)
            }
            Tok::Str(s) => {
                let v = Value::str(s.clone());
                let span = self.bump().span;
                Ok(AstExpr::Lit(v, span))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("NULL") => {
                let span = self.bump().span;
                Ok(AstExpr::Lit(Value::Null, span))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("TRUE") => {
                let span = self.bump().span;
                Ok(AstExpr::Lit(Value::Bool(true), span))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("FALSE") => {
                let span = self.bump().span;
                Ok(AstExpr::Lit(Value::Bool(false), span))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("DATE") => {
                let date_span = self.bump().span;
                match &self.peek().tok {
                    Tok::Str(text) => {
                        let text = text.clone();
                        let str_span = self.bump().span;
                        let span = date_span.to(str_span);
                        match parse_date(&text) {
                            Some(days) => Ok(AstExpr::Lit(Value::Date(days), span)),
                            None => Err(ParseError::new(
                                self.src,
                                str_span,
                                "a date in `'YYYY-MM-DD'` form",
                                format!("`'{text}'`"),
                            )),
                        }
                    }
                    _ => Err(self.err_here("a `'YYYY-MM-DD'` string after `DATE`")),
                }
            }
            Tok::Ident(s) => {
                if matches!(self.peek2().tok, Tok::Punct("(")) {
                    let lower = s.to_ascii_lowercase();
                    let what = if FUNCTION_NAMES.contains(&lower.as_str()) {
                        "a scalar expression (window function calls are only \
                         allowed at the top level of the SELECT list)"
                    } else {
                        "a scalar expression (function calls are not supported here)"
                    };
                    return Err(self.err_here(what));
                }
                let s = s.clone();
                let span = self.bump().span;
                Ok(AstExpr::Col(s, span))
            }
            Tok::QuotedIdent(s) => {
                let s = s.clone();
                let span = self.bump().span;
                Ok(AstExpr::Col(s, span))
            }
            Tok::Punct("(") => {
                let open = self.bump().span;
                let inner = self.expr()?;
                let close = self.expect_punct(")")?;
                // Keep the inner node; widen its span to the parentheses.
                Ok(match inner {
                    AstExpr::Col(s, _) => AstExpr::Col(s, open.to(close.span)),
                    AstExpr::Lit(v, _) => AstExpr::Lit(v, open.to(close.span)),
                    AstExpr::Bin(op, a, b, _) => AstExpr::Bin(op, a, b, open.to(close.span)),
                    AstExpr::Not(e, _) => AstExpr::Not(e, open.to(close.span)),
                    AstExpr::Neg(e, _) => AstExpr::Neg(e, open.to(close.span)),
                })
            }
            _ => Err(self.err_here("an expression")),
        }
    }

    fn number_literal(
        &self,
        text: &str,
        span: Span,
        negative: bool,
    ) -> Result<AstExpr, ParseError> {
        let is_float = text.contains(['.', 'e', 'E']);
        if is_float {
            let v: f64 = text.parse().map_err(|_| {
                ParseError::new(self.src, span, "a numeric literal", format!("`{text}`"))
            })?;
            Ok(AstExpr::Lit(Value::Float(if negative { -v } else { v }), span))
        } else {
            let joined = if negative { format!("-{text}") } else { text.to_string() };
            match joined.parse::<i64>() {
                Ok(v) => Ok(AstExpr::Lit(Value::Int(v), span)),
                Err(_) => Err(ParseError::new(
                    self.src,
                    span,
                    "an integer literal that fits in i64",
                    format!("`{joined}`"),
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_query() {
        let q = parse_query("SELECT count(*) OVER () FROM t").unwrap();
        assert_eq!(q.items.len(), 1);
        assert_eq!(q.from.0, "t");
    }

    #[test]
    fn parses_full_surface() {
        let q = parse_query(
            "SELECT day, price * 2 AS p2, \
               sum(DISTINCT v) FILTER (WHERE v > 0) OVER w AS s, \
               percentile_cont(0.5) WITHIN GROUP (ORDER BY price) OVER w AS med, \
               lead(v, 2, -1 ORDER BY day DESC) IGNORE NULLS OVER (w2 ROWS 3 PRECEDING) \
             FROM sales \
             WHERE day >= DATE '1970-01-10' \
             WINDOW w AS (PARTITION BY g ORDER BY day \
                          GROUPS BETWEEN 1 PRECEDING AND 1 FOLLOWING EXCLUDE TIES), \
                    w2 AS (PARTITION BY g) \
             ORDER BY day ASC NULLS FIRST, p2 DESC",
        )
        .unwrap();
        assert_eq!(q.items.len(), 5);
        assert_eq!(q.windows.len(), 2);
        assert_eq!(q.order_by.len(), 2);
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn negative_literals_fold() {
        let q = parse_query("SELECT v + -9223372036854775808 FROM t").unwrap();
        let SelectItem::Scalar { expr, .. } = &q.items[0] else { panic!() };
        let AstExpr::Bin(BinOp::Add, _, rhs, _) = expr else { panic!("{expr:?}") };
        assert!(matches!(**rhs, AstExpr::Lit(Value::Int(i64::MIN), _)));
    }

    #[test]
    fn between_and_does_not_swallow_boolean_and() {
        let q = parse_query(
            "SELECT count(*) OVER (ORDER BY k ROWS BETWEEN v % 3 PRECEDING AND 2 FOLLOWING) FROM t",
        )
        .unwrap();
        assert_eq!(q.items.len(), 1);
    }

    #[test]
    fn errors_are_positional() {
        let e = parse_query("SELECT sum(v) FROM t").unwrap_err();
        assert!(e.expected.contains("OVER"), "{e}");
        let e = parse_query("SELECT count(*) OVER () FROM").unwrap_err();
        assert_eq!(e.found, "end of input");
    }

    #[test]
    fn duplicate_null_treatment_is_rejected() {
        // A second clause must error, not be OR-ed into the first.
        for sql in [
            "SELECT first_value(v) IGNORE NULLS RESPECT NULLS OVER () FROM t",
            "SELECT first_value(v) RESPECT NULLS IGNORE NULLS OVER () FROM t",
            "SELECT first_value(v IGNORE NULLS) RESPECT NULLS OVER () FROM t",
        ] {
            let e = parse_query(sql).unwrap_err();
            assert!(e.expected.contains("null-treatment"), "{sql}: {e}");
        }
        // A single clause in either position still parses.
        assert!(parse_query("SELECT lead(v) IGNORE NULLS OVER () FROM t").is_ok());
        assert!(parse_query("SELECT lead(v IGNORE NULLS) OVER () FROM t").is_ok());
    }
}
