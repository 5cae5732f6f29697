//! Spans recorded from outside the program: each rank thread pushes onto
//! its own `Vec` around the calls it makes into the library, and the
//! vectors are merged and written out when the workload ends. Spans inside
//! the library are a later issue.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// The root's parent id.
pub const NO_PARENT: u64 = 0;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Index of the op (or query) the span belongs to; spans of one op
    /// share it across ranks.
    pub op: u64,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. When disabled every call is a branch on a
/// bool, so the untraced run pays nothing measurable.
pub struct Tracer {
    enabled: bool,
    rank: usize,
    origin: Instant,
    next: u64,
    /// Open spans, innermost last: (index into `spans`).
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is shared by every rank so their timelines line up.
    pub fn new(enabled: bool, rank: usize, origin: Instant) -> Self {
        Self { enabled, rank, origin, next: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause or resume recording. Spans already open stay open; enters
    /// and exits made while paused must pair up, as they always do.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        // rank in the high bits keeps ids unique after the merge
        ((self.rank as u64 + 1) << 40) | self.next
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(NO_PARENT, |&i| self.spans[i].id);
        let id = self.fresh_id();
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span { id, parent, name, op, rank: self.rank, start_ns, end_ns: start_ns });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Record a span whose interval the caller already knows (the serving
    /// workload's event clock). Returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return NO_PARENT;
        }
        let id = self.fresh_id();
        self.spans.push(Span { id, parent, name, op, rank: self.rank, start_ns, end_ns });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// A span's self time: its duration minus the part of its interval its
/// children cover. Overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let by_id = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += by_id[&s.id];
    }
    out
}

/// The trace file of one workload.
pub fn to_json(workload: &str, seed: u64, clock_note: &str, spans: &[Span]) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", num(seed)),
        ("clock", Json::str(clock_note)),
        (
            "self_ns_by_name",
            Json::obj(self_time_by_name(spans).into_iter().map(|(k, v)| (k, num(v)))),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", num(s.id)),
                            ("parent", num(s.parent)),
                            ("name", Json::str(s.name)),
                            ("workload", Json::str(workload)),
                            ("op", num(s.op)),
                            ("rank", num(s.rank as u64)),
                            ("start_ns", num(s.start_ns)),
                            ("end_ns", num(s.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "s", op: 0, rank: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(1, NO_PARENT, 0, 100), // root
            span(2, 1, 10, 40),         // child
            span(3, 1, 50, 70),         // sibling
            span(4, 2, 20, 30),         // grandchild: only its parent pays for it
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 20);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 10);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            span(1, NO_PARENT, 100, 200),
            span(2, 1, 110, 150),
            span(3, 1, 140, 160), // overlaps 2 by 10
            span(4, 1, 190, 250), // sticks out past the parent
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 40 - 10 - 10);
    }

    #[test]
    fn tracer_nests_by_call_order_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, 1, Instant::now());
        t.enter("op", 7);
        t.enter("call", 7);
        t.exit();
        t.enter("validate", 7);
        t.exit();
        t.exit();
        let spans = t.into_spans();
        assert_eq!(spans.iter().map(|s| s.name).collect::<Vec<_>>(), ["op", "call", "validate"]);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.rank == 1 && s.op == 7 && s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false, 0, Instant::now());
        off.enter("op", 0);
        off.exit();
        assert_eq!(off.record("query", NO_PARENT, 0, 1, 2), NO_PARENT);
        assert!(off.into_spans().is_empty());
    }
}
