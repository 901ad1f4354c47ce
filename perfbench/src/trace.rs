//! In-memory spans recorded around the benchmark's own calls into each
//! crate. A span has a name (`<layer>.<call>`), a start and an end, the
//! span that caused it, and the request it belongs to. Spans stay in
//! memory until the run ends, then [`write_jsonl`] writes them out.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; [`NO_SPAN`] when tracing is off.
pub type SpanId = usize;

/// The id of "no span": returned when tracing is off, and the parent of
/// a root span.
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u64,
}

impl Span {
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's span recorder. All tracers of a run share one origin so
/// their spans merge onto one time axis.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread, with the same switch and origin.
    pub fn sibling(&self) -> Self {
        Self::new(self.on, self.origin)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span from two instants the caller took.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Time `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let r = f();
        self.close(id);
        r
    }

    /// Append another tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// part of it its child spans cover, summed by layer (the name's prefix
/// before the first `.`).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            let p = &spans[s.parent];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            covered[s.parent] += hi.saturating_sub(lo);
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c);
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// Write one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_SPAN {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(true, t0);
        let root = tr.record("store.commit", at(0), at(10), NO_SPAN, 1);
        tr.record("store.ingest", at(0), at(2), root, 1);
        tr.record("serve.refit", at(2), at(9), root, 1);
        let by = self_time_by_layer(tr.spans());
        assert_eq!(by["store"], 3_000_000);
        assert_eq!(by["serve"], 7_000_000);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let id = tr.open("net.query", NO_SPAN, 7);
        tr.close(id);
        assert_eq!(id, NO_SPAN);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut a = Tracer::new(true, t0);
        a.record("net.query", t0, t0, NO_SPAN, 1);
        let mut b = a.sibling();
        let root = b.record("net.ingest", t0, t0, NO_SPAN, 2);
        b.record("net.visible", t0, t0, root, 2);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
    }
}
