//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing here reaches inside the program: a span starts before a
//! layer's public function is called and ends when it returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or structural name (`cell`, `batch`, `parse`, `alloc`, …).
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The cell (or request) the span belongs to.
    pub cell: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one cell. Spans nest through an explicit stack:
/// [`Tracer::enter`] / [`Tracer::exit`] for structural spans,
/// [`Tracer::leaf`] around one layer call.
pub struct Tracer {
    origin: Instant,
    cell: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant, cell: u64) -> Tracer {
        Tracer {
            origin,
            cell,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            cell: self.cell,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.stack.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now();
    }

    /// Time `f` as a span named `name` under the innermost open span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// The recorded spans (open spans keep their start as their end).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// All spans of a run, parents resolved to global indices.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every span, in recording order per cell.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Add a root span and return its index.
    pub fn push_root(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        cell: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            cell,
        });
        self.spans.len() - 1
    }

    /// Append one cell's spans; the cell's root spans become children of
    /// `parent`.
    pub fn absorb(&mut self, spans: Vec<Span>, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in spans {
            s.parent = match s.parent {
                Some(p) => Some(base + p),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// Self time per span: duration minus the part of it that its
    /// children's intervals cover (children of a parallel parent may
    /// overlap, so their union is taken).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        _ => {
                            if let Some((ca, cb)) = cur {
                                covered += cb - ca;
                            }
                            cur = Some((a, b));
                        }
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur().saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `cell`), one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.cell
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace {
            spans: vec![
                span("batch", 0, 100, None),
                span("cell", 10, 60, Some(0)),
                span("cell", 40, 90, Some(0)),
                span("alloc", 10, 30, Some(1)),
            ],
        };
        assert_eq!(trace.self_times(), vec![20, 30, 50, 20]);
        let by = trace.self_by_name();
        assert_eq!(by["cell"], 80);
        assert_eq!(by["alloc"], 20);
    }

    #[test]
    fn absorb_reparents_cell_roots() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 3);
        t.enter("cell");
        t.leaf("parse", || ());
        t.exit();
        let mut trace = Trace::default();
        let root = trace.push_root("batch", 0, 1, 0);
        trace.absorb(t.into_spans(), Some(root));
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[2].cell, 3);
    }
}
