//! In-memory span tracer for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions; they stay in memory until the run
//! ends. The tracer is thread-local: every span is recorded on the
//! generator thread (the one multi-threaded rung is timed from outside).
//! With tracing off, opening a span costs one thread-local flag test.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `name` is `<layer>.<function>`; the layer is
/// everything before the last dot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The closed-loop iteration (or ladder rung) the span belongs to.
    pub iter: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    iter: u32,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<State> = RefCell::new(State {
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        iter: 0,
    });
}

/// Starts recording, with room for `capacity` spans up front so that
/// recording does not reallocate inside timed regions.
pub fn enable(capacity: usize) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.spans.reserve(capacity);
        s.stack.clear();
    });
    ENABLED.with(|e| e.set(true));
}

/// Stops recording; recorded spans stay until [`take`].
pub fn disable() {
    ENABLED.with(|e| e.set(false));
}

pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Tags subsequent spans with iteration `iter`.
pub fn set_iter(iter: u32) {
    if enabled() {
        STATE.with(|s| s.borrow_mut().iter = iter);
    }
}

/// Spans recorded so far: the index the next span will get. Two marks
/// delimit a phase of the run in the list [`take`] returns.
pub fn mark() -> usize {
    STATE.with(|s| s.borrow().spans.len())
}

/// Removes and returns everything recorded.
pub fn take() -> Vec<Span> {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().spans))
}

/// Closes its span when dropped.
pub struct Guard(u32);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(NO_PARENT);
    }
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let index = s.spans.len() as u32;
        let parent = s.stack.last().copied().unwrap_or(NO_PARENT);
        let iter = s.iter;
        let start_ns = s.origin.elapsed().as_nanos() as u64;
        s.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter,
        });
        s.stack.push(index);
        Guard(index)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0 == NO_PARENT {
            return;
        }
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let end_ns = s.origin.elapsed().as_nanos() as u64;
            s.spans[self.0 as usize].end_ns = end_ns;
            // Guards drop in reverse opening order, so the top is ours.
            s.stack.pop();
        });
    }
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals of the spans in `phase` (indices into `spans`, the
/// whole recording: parents are indices into it). A span's self time
/// is its duration minus the durations of its direct children (children
/// never overlap: they are opened and closed on one thread, in stack
/// order).
pub fn totals(spans: &[Span], phase: Range<usize>) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans[phase.clone()].iter().zip(&child_ns[phase]) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - children;
    }
    out
}

/// The layer of a span name: everything before its last dot.
pub fn layer_of(name: &'static str) -> &'static str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time per layer.
pub fn layer_self_ns(totals: &BTreeMap<&'static str, NameTotals>) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, t) in totals {
        *out.entry(layer_of(name)).or_insert(0) += t.self_ns;
    }
    out
}

/// One JSON line per span, in recording order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"iter\":{}}}\n",
            s.name, s.start_ns, s.end_ns, parent, s.iter
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // a [0,100] has siblings b [10,30] and c [40,90]; c nests d [50,60].
        let spans = [
            sp("x.a", 0, 100, NO_PARENT),
            sp("y.b", 10, 30, 0),
            sp("y.c", 40, 90, 0),
            sp("z.d", 50, 60, 2),
        ];
        let t = totals(&spans, 0..spans.len());
        assert_eq!(t["x.a"].self_ns, 100 - 20 - 50);
        assert_eq!(t["y.b"].self_ns, 20);
        assert_eq!(
            t["y.c"].self_ns,
            50 - 10,
            "a grandchild is charged to its parent only"
        );
        assert_eq!(t["z.d"].self_ns, 10);
        let total_self: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
        assert_eq!(layer_self_ns(&t)["y"], 60);
        // A phase sees its own spans, charged with all their children.
        let phase = totals(&spans, 2..3);
        assert_eq!(phase.len(), 1);
        assert_eq!(phase["y.c"].self_ns, 40);
    }

    #[test]
    fn recording_links_parents_in_stack_order() {
        enable(8);
        set_iter(7);
        {
            let _a = span("l.outer");
            {
                let _b = span("l.first");
            }
            let _c = span("m.second");
        }
        disable();
        let _ignored = span("l.off");
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.iter == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(layer_of("netsim.fleet.process_trace"), "netsim.fleet");
        assert_eq!(to_jsonl(&spans).lines().count(), 3);
    }
}
