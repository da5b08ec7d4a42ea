//! In-memory spans for the traced run, written out as JSON lines when
//! the run ends. A span's self time is its duration minus the part its
//! children cover.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// The request the span belongs to (its `seq`), or the number of
    /// calls a layer-walk span covers.
    pub req: u64,
}

/// Records spans against one origin.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Sets the end of a span opened with a provisional end.
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Writes one JSON object per span: `name, start_ns, end_ns,
    /// parent` (`null` for a root, else the parent's line index) and
    /// `req`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_round_trip_to_json_lines() {
        let mut tracer = Tracer::new();
        let root = tracer.push("client.request", 10, 10, NO_PARENT, 16);
        tracer.push("client.write", 10, 25, root, 16);
        tracer.close(root, 90);
        let path =
            std::env::temp_dir().join(format!("pard-bench-spans-{}.jsonl", std::process::id()));
        tracer.write_jsonl(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text,
            "{\"name\":\"client.request\",\"start_ns\":10,\"end_ns\":90,\"parent\":null,\"req\":16}\n\
             {\"name\":\"client.write\",\"start_ns\":10,\"end_ns\":25,\"parent\":0,\"req\":16}\n"
        );
    }
}
