//! Harness-side spans of a traced run. Spans are recorded around the
//! generator's own calls into the system (encode + send, barrier wait,
//! receive + decode), kept in memory, and written as JSON lines when the
//! run ends — nothing is written while a phase is being timed.

use std::io::Write;
use std::path::Path;

/// One timed interval. Spans of one tick or round share `id`; `parent`
/// names the span (with the same `id`) that caused this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was timed: `tick`, `round`, `gen.encode_send`,
    /// `gen.barrier_wait`, `gen.recv_decode`, or a set-up / micro span.
    pub name: &'static str,
    /// The tick or round number (0 for one-off spans).
    pub id: u64,
    /// Name of the causing span, empty for a root.
    pub parent: &'static str,
    /// Start, ns on the harness clock.
    pub start_ns: u64,
    /// End, ns on the harness clock.
    pub end_ns: u64,
}

/// A per-thread span buffer. Disabled tracers drop spans, so untraced
/// runs (and the untraced blocks of a traced run) pay one branch.
#[derive(Default)]
pub struct Tracer {
    /// Whether spans are currently kept.
    pub enabled: bool,
    /// The spans kept so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Keeps one span when enabled.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled {
            self.spans.push(Span { name, id, parent, start_ns, end_ns });
        }
    }
}

/// Sum of the durations of the spans called `name`, in ns.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
}

/// Writes the spans as JSON lines, sorted by start time.
pub fn write_jsonl(path: &Path, spans: &mut [Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    spans.sort_by_key(|s| (s.start_ns, s.end_ns));
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing_and_totals_add_up() {
        let mut t = Tracer::default();
        t.span("round", "", 1, 0, 10);
        assert!(t.spans.is_empty());
        t.enabled = true;
        t.span("round", "", 1, 0, 100);
        t.span("gen.encode_send", "round", 1, 0, 30);
        t.span("gen.encode_send", "round", 2, 100, 150);
        assert_eq!(total_ns(&t.spans, "gen.encode_send"), 80);
        assert_eq!(total_ns(&t.spans, "round"), 100);
    }
}
