//! Spans recorded around calls into the simulator's layers.
//!
//! A span is `(name, start, end, parent)`, timed from outside the
//! library at the call boundary. Spans stay in memory until the run
//! ends; then the tracer reports each name's self time (duration minus
//! the part covered by its child spans) and writes every span out as
//! JSON lines.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store; shared by reference across worker threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span from `start_ns` to now; returns its duration, ns.
    pub fn record(&self, name: &'static str, parent: Option<u32>, start_ns: u64) -> u64 {
        let end_ns = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        end_ns - start_ns
    }

    /// Opens a span whose children must name it as parent before it
    /// closes: reserves the id now, fills in the end on `close`.
    pub fn open(&self, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: u32) {
        let end_ns = self.now();
        self.spans.lock().expect("span store poisoned")[id as usize].end_ns = end_ns;
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(name, parent, start);
        out
    }

    /// Times `f` as a span named `name`; returns the span's ns.
    pub fn measure(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce()) -> f64 {
        let start = self.now();
        f();
        self.record(name, parent, start) as f64
    }

    /// Total and self time per span name, in ns. Self time subtracts
    /// the union of the children's intervals, clipped to the parent.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, usize)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, usize)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += s.ns();
            e.1 += s.ns() - covered.min(s.ns());
            e.2 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let root = t.open("root", None);
        t.time("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let times = t.self_times();
        let (total, own, count) = times["root"];
        let (child, _, _) = times["child"];
        assert_eq!(count, 1);
        assert_eq!(total, own + child);
    }
}
