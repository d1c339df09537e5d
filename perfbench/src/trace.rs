//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions; nothing inside the engine is instrumented.
//! A span carries an id, the id of the span that was open when it started
//! (its parent), the id of the operation it belongs to, a name, start and
//! end in nanoseconds since the tracer was created, and numeric attributes
//! (counts and the engine's self-reported phase durations) taken at the same
//! boundary. Everything stays in memory until [`Tracer::to_json`].

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recording (ids are dense, in start order).
    pub id: usize,
    /// The span open when this one started.
    pub parent: Option<usize>,
    /// The operation (traced query iteration, append, replay pass) this span
    /// belongs to; spans of one operation share it.
    pub op: usize,
    /// Layer-qualified name, e.g. `sql.parse` or `mst.build`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Counts and reported durations attached at this boundary.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

/// The recorder. Interior mutability lets nested `span` closures share it.
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recording whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), state: RefCell::new(State::default()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation; later spans carry its id.
    pub fn next_op(&self) -> usize {
        let mut st = self.state.borrow_mut();
        st.op += 1;
        st.op
    }

    /// Runs `f` inside a span named `name`; returns `f`'s result and the
    /// span id (for [`Tracer::attr`]).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let op = st.op;
            st.spans.push(Span { id, parent, op, name, start_ns: 0, end_ns: 0, attrs: Vec::new() });
            st.open.push(id);
            id
        };
        // Clock reads sit innermost so bookkeeping is outside the interval.
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut st = self.state.borrow_mut();
        st.spans[id].start_ns = start;
        st.spans[id].end_ns = end;
        let popped = st.open.pop();
        debug_assert_eq!(popped, Some(id));
        (out, id)
    }

    /// Attaches a numeric attribute to span `id`.
    pub fn attr(&self, id: usize, key: &'static str, value: f64) {
        self.state.borrow_mut().spans[id].attrs.push((key, value));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recording.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Per operation, the summed duration in ms of the spans named `name`
    /// (operations without such a span are omitted), in operation order.
    pub fn ms_by_op(&self, name: &str) -> Vec<f64> {
        self.by_op(name, |s| s.dur_ns() as f64 / 1e6)
    }

    /// Per operation, the sum of attribute `key` over the spans named `name`.
    pub fn attr_by_op(&self, name: &str, key: &str) -> Vec<f64> {
        self.by_op(name, |s| s.attrs.iter().filter(|(k, _)| *k == key).map(|(_, v)| v).sum())
    }

    fn by_op(&self, name: &str, f: impl Fn(&Span) -> f64) -> Vec<f64> {
        let st = self.state.borrow();
        let mut out: Vec<(usize, f64)> = Vec::new();
        for s in st.spans.iter().filter(|s| s.name == name) {
            match out.last_mut() {
                Some((op, acc)) if *op == s.op => *acc += f(s),
                _ => out.push((s.op, f(s))),
            }
        }
        out.into_iter().map(|(_, v)| v).collect()
    }

    /// Self time of every span in ns: its duration minus the part of its
    /// interval covered by its direct children (children never overlap —
    /// the recorder is single-threaded and strictly nested).
    pub fn self_ns(&self) -> Vec<u64> {
        let st = self.state.borrow();
        let mut own: Vec<u64> = st.spans.iter().map(Span::dur_ns).collect();
        for s in &st.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The recording as JSON: one object per span, plus its self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let own = self.self_ns();
        let spans = self
            .spans()
            .into_iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op", Json::Num(s.op as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own[s.id] as f64)),
                    ("attrs", Json::obj(s.attrs.iter().map(|(k, v)| (*k, Json::Num(*v))))),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Cost in ns of recording one empty span, calibrated on a scratch tracer;
/// the traced run multiplies it by its span count to state its own overhead.
pub fn span_cost_ns() -> f64 {
    let t = Tracer::new();
    const REPS: usize = 20_000;
    let start = Instant::now();
    for _ in 0..REPS {
        t.span("calibrate", || std::hint::black_box(0u8));
    }
    start.elapsed().as_nanos() as f64 / REPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_ops_and_self_time() {
        let t = Tracer::new();
        t.next_op();
        let (_, outer) = t.span("outer", || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("inner", || ());
        });
        t.attr(outer, "rows", 7.0);
        t.next_op();
        t.span("inner", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op, spans[3].op), (1, 2));
        assert_eq!(t.ms_by_op("inner").len(), 2);
        assert_eq!(t.attr_by_op("outer", "rows"), vec![7.0]);
        let own = t.self_ns();
        assert!(own[0] <= spans[0].dur_ns() - spans[1].dur_ns());
        assert!(span_cost_ns() > 0.0);
    }
}
