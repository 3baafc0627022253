//! In-memory spans recorded around calls into the library's layers.
//!
//! A span is a name, a start and end (ns since the tracer was made) and
//! the id of the span that caused it. Spans stay in memory and are
//! written out once, when the run ends. The untraced runs carry no
//! tracer at all.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span store.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name` under `parent` (0 = root).
    /// `f` receives the new span's id for its children.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Run `f` in a span when a tracer is present, plainly otherwise.
pub fn maybe<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, f),
        None => f(0),
    }
}

/// Per span name: count, total time and self time (duration minus the
/// part covered by child spans), in ns.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += dur;
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::default();
        t.span("outer", 0, |id| {
            t.span("inner", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let sum = summarize(&t.spans());
        let (n, total, own) = sum["outer"];
        assert_eq!(n, 1);
        assert!(total >= sum["inner"].1);
        assert!(own < sum["inner"].1);
    }
}
