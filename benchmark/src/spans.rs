//! Benchmark-side spans: one per call into a layer's public function.
//!
//! Spans are recorded only in a traced run, stay in memory, and are
//! written as JSON lines when the run ends. The per-layer timing
//! metrics are computed from the same clock readings, so a span file
//! and the printed layer metrics always agree.

use crate::stamped::now_ns;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// One recorded span.
pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    round: usize,
}

/// The span sink of one run.
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
}

/// Handle of an open span (its index; meaningless when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer that records (`on`) or only times.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, round: usize) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        let mut spans = self.spans.lock().expect("no span recorder panicked");
        spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: parent.map(|p| p.0),
            round,
        });
        SpanId(spans.len() - 1)
    }

    /// Close a span.
    pub fn end(&self, id: SpanId) {
        if self.on {
            self.spans.lock().expect("no span recorder panicked")[id.0].end_ns = now_ns();
        }
    }

    /// Run `f` inside a span and return its result with the seconds it
    /// took. Times even when tracing is off — layer metrics need the
    /// duration either way.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        round: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, round);
        let t0 = now_ns();
        let r = f();
        let secs = (now_ns() - t0) as f64 * 1e-9;
        self.end(id);
        (r, secs)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("no span recorder panicked").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self
            .spans
            .lock()
            .expect("no span recorder panicked")
            .iter()
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        out.flush()
    }
}
