//! The span buffer of a traced run: spans are kept in memory and written
//! to `benchmark/out/<workload>.trace.json` when the run ends. A span's
//! parent is the span that was open when it began; a layer's self time is
//! its spans' duration minus their children's.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: usize,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: usize,
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the cell index stamped on subsequent spans.
    pub fn set_cell(&self, cell: usize) {
        self.inner.borrow_mut().cell = cell;
    }

    /// Opens a span that later spans nest under.
    pub fn begin(&self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len();
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: inner.open.last().copied(),
            cell: inner.cell,
        };
        inner.spans.push(span);
        inner.open.push(id);
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn end(&self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.ns(Instant::now());
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        inner.spans[id].end_ns = end_ns;
    }

    /// Records a finished leaf span the caller timed itself.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut inner = self.inner.borrow_mut();
        let span = Span {
            name,
            start_ns,
            end_ns,
            parent: inner.open.last().copied(),
            cell: inner.cell,
        };
        inner.spans.push(span);
    }

    /// `(total ns, self ns)` over every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for span in &inner.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut total = 0;
        let mut own = 0;
        for (id, span) in inner.spans.iter().enumerate() {
            if span.name == name {
                let duration = span.end_ns - span.start_ns;
                total += duration;
                own += duration.saturating_sub(child_ns[id]);
            }
        }
        (total, own)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// The whole buffer as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64, cells: &[String]) -> String {
        let inner = self.inner.borrow();
        let mut out = String::with_capacity(64 + inner.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"cells\":["
        );
        for (i, cell) in cells.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{cell}\"");
        }
        out.push_str("],\"spans\":[\n");
        for (i, span) in inner.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{}}}",
                span.name, span.start_ns, span.end_ns, span.cell
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let outer = t.begin("outer");
        let a = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = Instant::now();
        t.leaf("inner", a, b);
        t.end(outer);
        let (total, own) = t.totals("outer");
        let (inner_total, inner_own) = t.totals("inner");
        assert_eq!(inner_total, inner_own);
        assert_eq!(total - own, inner_total);
        assert!(t.to_json("w", 1, &["c".into()]).contains("\"parent\":0"));
        let off = Tracer::new(false);
        off.end(off.begin("x"));
        assert_eq!(off.len(), 0);
    }
}
