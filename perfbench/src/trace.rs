//! The traced run's spans. Each span covers one call into a layer's public
//! API, timed from the benchmark's side; spans stay in memory and are
//! written out as JSON lines when the run ends. Nothing here reaches into
//! the program.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::report::json_str;

/// One span: `[start_ns, end_ns)` relative to the tracer's origin. `parent`
/// is 0 for a request's root span; spans of one request share `request`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from every thread of a traced phase.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span or request id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span store lock: a recording thread panicked")
            .len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span store lock: a recording thread panicked");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.request,
                json_str(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A thread's local span buffer, flushed into the tracer when the thread
/// finishes so recording takes no lock per request.
pub struct SpanBuf<'a> {
    tracer: Option<&'a Tracer>,
    spans: Vec<Span>,
}

impl<'a> SpanBuf<'a> {
    pub fn new(tracer: Option<&'a Tracer>) -> Self {
        Self {
            tracer,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Starts a request: returns `(request id, root span id)`, both 0 when
    /// tracing is off.
    pub fn request(&self) -> (u64, u64) {
        match self.tracer {
            Some(t) => (t.id(), t.id()),
            None => (0, 0),
        }
    }

    /// Records a span with a given id (for roots whose children were
    /// recorded first); a no-op when tracing is off.
    pub fn record_with_id(
        &mut self,
        id: u64,
        parent: u64,
        request: u64,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        if let Some(t) = self.tracer {
            self.spans.push(Span {
                id,
                parent,
                request,
                name: name.to_string(),
                start_ns: t.ns(start),
                end_ns: t.ns(end),
            });
        }
    }

    /// Records a child span with a fresh id.
    pub fn record(&mut self, parent: u64, request: u64, name: &str, start: Instant, end: Instant) {
        if let Some(t) = self.tracer {
            let id = t.id();
            self.record_with_id(id, parent, request, name, start, end);
        }
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            if let Ok(mut store) = t.spans.lock() {
                store.append(&mut self.spans);
            }
        }
    }
}
