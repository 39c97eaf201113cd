//! The benchmark's own spans: one around every call into a layer, kept in
//! memory and written out when the run ends. The library's internal
//! `cadb::common::obs` spans are a separate mechanism; only its *counters*
//! are harvested here (see `Tracer::absorb`).

use cadb::common::json::{JsonArray, JsonObject};
use cadb::common::obs::TraceReport;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Rep the span belongs to: spans of one rep share this identifier.
    pub rep: u32,
}

/// Single-threaded span recorder (the load generator is one closed-loop
/// client). Disabled tracers record nothing, so timed reps pay one branch.
pub struct Tracer {
    enabled: Cell<bool>,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    rep: Cell<u32>,
    /// Library obs counters harvested per phase.
    counters: RefCell<BTreeMap<String, BTreeMap<String, u64>>>,
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.idx {
            let now = self.tracer.t0.elapsed().as_nanos() as u64;
            self.tracer.spans.borrow_mut()[i].end_ns = now;
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            rep: Cell::new(0),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Position in the span list; spans recorded later belong to whatever
    /// runs next (see [`Self::self_times_since`]).
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Start a new rep: spans opened from now on carry the next rep id.
    pub fn next_rep(&self) {
        self.rep.set(self.rep.get() + 1);
    }

    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                tracer: self,
                idx: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: stack.last().copied(),
            rep: self.rep.get(),
        });
        stack.push(idx);
        SpanGuard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Run `f` under a span and return its result with the elapsed seconds.
    /// The end-to-end metrics use the returned time (tracer on or off); the
    /// per-layer metrics use the span.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let _g = self.span(name);
        let t = Instant::now();
        let r = std::hint::black_box(f());
        (r, t.elapsed().as_secs_f64())
    }

    /// Keep the library counters one traced phase published.
    pub fn absorb(&self, phase: &str, report: &TraceReport) {
        self.counters
            .borrow_mut()
            .insert(phase.to_string(), report.counters.clone());
    }

    /// A harvested library counter of `phase` (0 when never bumped).
    pub fn counter(&self, phase: &str, name: &str) -> u64 {
        self.counters
            .borrow()
            .get(phase)
            .and_then(|m| m.get(name))
            .copied()
            .unwrap_or(0)
    }

    /// Total self time (ns) and span count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        self_times(&self.spans.borrow(), 0)
    }

    /// The same, over the spans recorded since `mark` only.
    pub fn self_times_since(&self, mark: usize) -> BTreeMap<&'static str, (u64, u64)> {
        self_times(&self.spans.borrow(), mark)
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut spans = JsonArray::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let mut o = JsonObject::new()
                .int("id", i as i64)
                .str("name", s.name)
                .int("start_ns", s.start_ns as i64)
                .int("end_ns", s.end_ns as i64)
                .int("rep", s.rep as i64);
            o = match s.parent {
                Some(p) => o.int("parent", p as i64),
                None => o.raw("parent", "null"),
            };
            spans.push_raw(&o.finish());
        }
        let mut self_ns = JsonObject::new();
        for (name, (ns, n)) in self.self_times() {
            self_ns = self_ns.raw(
                name,
                &JsonObject::new()
                    .int("self_ns", ns as i64)
                    .int("count", n as i64)
                    .finish(),
            );
        }
        let mut counters = JsonObject::new();
        for (phase, m) in self.counters.borrow().iter() {
            let mut o = JsonObject::new();
            for (k, v) in m {
                o = o.int(k, *v as i64);
            }
            counters = counters.raw(phase, &o.finish());
        }
        JsonObject::new()
            .str("workload", workload)
            .int("seed", seed as i64)
            .raw("spans", &spans.finish())
            .raw("self_time_by_name", &self_ns.finish())
            .raw("obs_counters_by_phase", &counters.finish())
            .finish()
    }
}

/// A span's self time is its duration minus the part of that interval its
/// direct children cover. Children of a single-threaded tracer never
/// overlap each other, so that part is the sum of their durations. Only
/// spans at index `from` and later are reported.
pub fn self_times(spans: &[Span], from: usize) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().skip(from) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.0 += dur.saturating_sub(child_ns[i]);
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("commit", 10, 40, Some(0)),
            span("wal", 15, 25, Some(1)),
            span("commit", 50, 90, Some(0)),
        ];
        let st = self_times(&spans, 0);
        assert_eq!(
            self_times(&spans, 2).keys().copied().collect::<Vec<_>>(),
            ["commit", "wal"]
        );
        assert_eq!(st["rep"], (100 - 30 - 40, 1));
        assert_eq!(st["commit"], ((30 - 10) + 40, 2));
        assert_eq!(st["wal"], (10, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nests_when_enabled() {
        let off = Tracer::new(false);
        {
            let _a = off.span("a");
        }
        assert!(off.self_times().is_empty());

        let on = Tracer::new(true);
        on.next_rep();
        {
            let _a = on.span("a");
            let (v, secs) = on.timed("b", || 7);
            assert_eq!(v, 7);
            assert!(secs >= 0.0);
        }
        let spans = on.spans.borrow();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rep, 1);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
