//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files around calls into
//! each layer's public functions. They stay in memory while ops run and
//! are only aggregated once the timed loop has ended.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::{self_time, Interval};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer; 0 is never used.
    pub id: u32,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    /// The op this span belongs to; spans of one op share it.
    pub op: u32,
    /// Layer-qualified name, such as `hlo.partition`.
    pub name: &'static str,
    /// Worker that ran it (0 is the calling thread).
    pub worker: u32,
    /// Interval on the tracer's clock.
    pub at: Interval,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next: AtomicU32,
    op: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next: AtomicU32::new(1),
            op: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Starts the next op: later spans carry its number.
    pub fn begin_op(&self) -> u32 {
        // Relaxed: a plain counter read back on the same thread.
        self.op.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Runs `f` inside a span named `name` under `parent` on `worker`,
    /// handing `f` the new span's id so nested calls can name it as
    /// their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u32,
        worker: u32,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let op = self.op.load(Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking worker")
            .push(Span {
                id,
                parent,
                op,
                name,
                worker,
                at: Interval { start, end },
            });
        out
    }

    /// Every span recorded so far, sorted by id.
    #[must_use]
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list poisoned by a panicking worker"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Runs `f` inside a span when tracing, and plainly otherwise.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u32,
    worker: u32,
    f: impl FnOnce(u32) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, worker, f),
        None => f(0),
    }
}

/// Writes `spans` as tab-separated lines with a header: id, parent, op,
/// worker, name, start and end in nanoseconds on the tracer's clock.
///
/// # Errors
///
/// Any write failure.
pub fn write_tsv(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "id\tparent\top\tworker\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.worker, s.name, s.at.start, s.at.end
        )?;
    }
    Ok(())
}

/// Per-name totals over a set of spans, in seconds.
#[derive(Debug, Default)]
pub struct Totals {
    spans: Vec<Span>,
}

impl Totals {
    /// Wraps finished spans.
    #[must_use]
    pub fn new(spans: Vec<Span>) -> Self {
        Totals { spans }
    }

    /// The spans, sorted by id.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in seconds.
    #[must_use]
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.at.end - s.at.start) as f64 * 1e-9)
            .sum()
    }

    /// Number of spans called `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed self time of every span called `name`, in seconds: each
    /// span's duration minus the union of its children's intervals.
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        let mut total = 0u64;
        for parent in self.spans.iter().filter(|s| s.name == name) {
            let children: Vec<Interval> = self
                .spans
                .iter()
                .filter(|s| s.parent == parent.id)
                .map(|s| s.at)
                .collect();
            total += self_time(parent.at, &children);
        }
        total as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_name_their_parent_and_op() {
        let t = Tracer::default();
        let op = t.begin_op();
        t.span("outer", 0, 0, |outer| {
            t.span("inner", outer, 1, |_| ());
            t.span("inner", outer, 2, |_| ());
        });
        let spans = t.finish();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == outer.id && s.op == op));
        let mut workers: Vec<u32> = spans.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        assert_eq!(workers, [0, 1, 2]);
        let mut out = Vec::new();
        write_tsv(&spans, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
        let totals = Totals::new(spans);
        assert_eq!(totals.count("inner"), 2);
        assert!(totals.self_s("outer") <= totals.busy_s("outer"));
    }
}
