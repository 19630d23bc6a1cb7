//! In-memory span recording around calls into the workspace crates.
//!
//! Spans are opened only by the benchmark's own code, at the boundary
//! of a call into a layer; nothing inside the program is instrumented.
//! They are kept in memory and written out once, when the run ends.

use std::sync::Mutex;

use anneal_obs::{Clock, WallClock};

/// One closed span: `[start_ns, end_ns)` on the tracer's clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// Records nested spans of one thread of control. A disabled tracer
/// runs the closures and records nothing, so the same code path serves
/// the untraced comparison run.
pub struct Tracer {
    clock: WallClock,
    enabled: bool,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(clock: WallClock, enabled: bool) -> Self {
        Tracer {
            clock,
            enabled,
            state: Mutex::new(State::default()),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut st = self.state.lock().expect("tracer lock poisoned");
            let id = st.spans.len();
            let parent = st.open.last().copied();
            st.spans.push(SpanRec {
                id,
                parent,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            st.open.push(id);
            id
        };
        let start = self.clock.now_ns();
        let out = f();
        let end = self.clock.now_ns();
        let mut st = self.state.lock().expect("tracer lock poisoned");
        st.open.pop();
        let rec = &mut st.spans[id];
        rec.start_ns = start;
        rec.end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.state
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone()
    }
}

/// Total nanoseconds covered by the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span (indexed like `spans`): its duration minus
/// the part of its interval that its direct children cover. Children
/// that overlap one another are counted once.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let covered = union_ns(
                spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect(),
            );
            s.duration_ns() - covered
        })
        .collect()
}

/// Summed duration of every span called `name`.
pub fn total_ns(spans: &[SpanRec], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::duration_ns)
        .sum()
}

/// Wall time of a traced section not covered by any top-level span:
/// the layer nobody has modelled yet.
pub fn unattributed_ns(spans: &[SpanRec], wall_ns: u64) -> i64 {
    let top: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(SpanRec::duration_ns)
        .sum();
    wall_ns as i64 - top as i64
}

/// The spans as JSON lines, with each span's self time.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id, parent, s.name, s.start_ns, s.end_ns, self_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(0, None, 0, 100),
            rec(1, Some(0), 10, 40),
            // overlaps child 1: the shared 30..40 counts once
            rec(2, Some(0), 30, 60),
            rec(3, Some(1), 15, 20),
            // a grandchild never reduces the grandparent directly
            rec(4, None, 200, 250),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5, 50]);
        // only the two top-level spans count against the section's wall
        assert_eq!(unattributed_ns(&spans, 300), 300 - 100 - 50);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![rec(0, None, 10, 20), rec(1, Some(0), 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_records_nothing() {
        let t = Tracer::new(WallClock::new(), true);
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(total_ns(&spans, "inner"), spans[1].duration_ns());

        let off = Tracer::new(WallClock::new(), false);
        assert_eq!(off.span("outer", || 3), 3);
        assert!(off.spans().is_empty());
    }
}
