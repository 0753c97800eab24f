//! In-memory spans recorded by the benchmark around its calls into each
//! crate, written out as JSON lines when the run ends.
//!
//! A span is `{id, parent, name, workload, key, start_ns, end_ns}`;
//! `key` is the batch index (jobs) or the request id (serving), so the
//! spans of one batch or one request share it.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of every span carrying one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that starts now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, key: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, key, now, now)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Add a span whose interval is already known (request spans are
    /// rebuilt from the fields of a `Completion`).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        key: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        self.spans.push(Span {
            parent,
            name,
            key,
            start_ns,
            end_ns,
        });
        id
    }

    /// Time `f` as a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        key: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, key);
        let out = f();
        self.end(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of one span in seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        let s = &self.spans[id.0 as usize];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Per-name totals, with self time = a span's duration minus the
    /// part of its interval that its child spans cover (overlapping
    /// children are counted once).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p.0 as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let total = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered(kids, s.start_ns, s.end_ns);
        }
        out
    }

    /// Seconds spent in spans named `name` (0 when there are none).
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.0.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"key\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, self.workload, s.key, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut sum = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            sum += end - start;
            reach = end;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new("test");
        let root = t.record("root", None, 0, 0, 100);
        // Two overlapping children covering [10, 50), one disjoint
        // covering [60, 70), one sticking out past the parent's end.
        t.record("child", Some(root), 0, 10, 40);
        t.record("child", Some(root), 0, 30, 50);
        let c = t.record("child", Some(root), 0, 60, 70);
        t.record("child", Some(root), 0, 90, 120);
        t.record("leaf", Some(c), 0, 62, 65);
        let totals = t.totals();
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["root"].self_ns, 100 - 40 - 10 - 10);
        assert_eq!(totals["child"].count, 4);
        assert_eq!(totals["child"].total_ns, 30 + 20 + 10 + 30);
        assert_eq!(totals["child"].self_ns, 30 + 20 + 7 + 30);
        assert_eq!(totals["leaf"].self_ns, 3);
    }

    #[test]
    fn begin_end_nest_and_measure() {
        let mut t = Tracer::new("test");
        let outer = t.begin("outer", None, 7);
        let x = t.scope("inner", Some(outer), 7, || 41 + 1);
        t.end(outer);
        assert_eq!(x, 42);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!((t.secs(outer) - t.total_secs("outer")).abs() < 1e-12);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new("wl");
        let root = t.record("a", None, 1, 5, 9);
        t.record("b", Some(root), 1, 6, 7);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\": 1, \"parent\": 0, \"name\": \"b\", \"workload\": \"wl\", \
             \"key\": 1, \"start_ns\": 6, \"end_ns\": 7}"
        );
    }
}
