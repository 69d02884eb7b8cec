//! Bench spans: timers the benchmark puts around its own calls into each
//! layer. Spans are kept in memory and summarised when the run ends.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover, so nested calls are never counted twice.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `planner.compile`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start: u64,
    /// End, nanoseconds since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier of the workload run the span belongs to.
    pub run: u32,
}

/// Per-name totals over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// An in-memory span recorder. Disabled recorders record nothing and
/// cost one branch per call.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    run: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle for an open span (`None` when the recorder is off).
#[must_use = "close the span with Spans::exit"]
pub struct SpanGuard(Option<usize>);

impl Spans {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool, run: u32) -> Spans {
        Spans {
            on,
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanGuard {
        if !self.on {
            return SpanGuard(None);
        }
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
        SpanGuard(Some(self.spans.len() - 1))
    }

    /// Close a span (and any span left open inside it).
    pub fn exit(&mut self, guard: SpanGuard) {
        let Some(idx) = guard.0 else {
            return;
        };
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == idx {
                break;
            }
        }
    }

    /// The spans as CSV: `run,id,parent,name,start_ns,end_ns`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("run,id,parent,name,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            out.push_str(&format!(
                "{},{i},{parent},{},{},{}\n",
                s.run, s.name, s.start, s.end
            ));
        }
        out
    }

    /// Totals per span name, with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end - s.start;
            t.self_ns += self_time((s.start, s.end), &children[i]);
        }
        out
    }
}

/// Duration of `parent` not covered by any of `children` (intervals are
/// clipped to the parent and overlaps are counted once).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = ps;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (pe - ps) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips() {
        // Overlapping children cover [10, 40) once; the child sticking
        // out of the parent only covers up to the parent's end.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40)]), 70);
        assert_eq!(self_time((0, 100), &[(90, 150)]), 90);
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
        assert_eq!(self_time((50, 100), &[(0, 10)]), 50);
    }

    #[test]
    fn totals_split_nested_spans() {
        let mut s = Spans::new(true, 7);
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(inner);
        s.exit(outer);
        let t = s.totals();
        let (o, i) = (t["outer"], t["inner"]);
        assert_eq!((o.count, i.count), (1, 1));
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.spans.iter().all(|sp| sp.run == 7));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false, 0);
        let g = s.enter("x");
        s.exit(g);
        assert!(s.spans.is_empty());
        assert!(s.totals().is_empty());
    }
}
