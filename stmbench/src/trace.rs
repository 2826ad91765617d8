//! In-memory spans recorded from the benchmark's own code, around the
//! calls it makes into each layer, and written out as JSONL at exit.
//!
//! A span carries its name, start and end (ns since the tracer was
//! created), the id of the span that caused it (0 for a root) and a
//! request id (the serve request id, or the matrix index) so spans of
//! one request can be joined. A disabled tracer records nothing but
//! still times, so the untimed and timed code paths are the same.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// Stage name, e.g. `hism.build`.
    pub name: Cow<'static, str>,
    /// Request id or matrix index the span worked on.
    pub req: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// `end_ns - start_ns`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been opened but not yet closed.
#[must_use = "close the span to record it"]
pub struct Open {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    req: u64,
    start: Instant,
}

impl Open {
    /// The id children of this span name as their parent (0 when the
    /// tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The span sink shared by every thread of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and only times otherwise.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&self, name: impl Into<Cow<'static, str>>, parent: u64, req: u64) -> Open {
        // Relaxed: the id is only a label; no other data is published
        // through it.
        let id = if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name: if self.enabled {
                name.into()
            } else {
                Cow::Borrowed("")
            },
            req,
            start: Instant::now(),
        }
    }

    /// Closes `open`, records it when enabled, and returns its duration.
    pub fn close(&self, open: Open) -> Duration {
        let end = Instant::now();
        let took = end - open.start;
        if self.enabled {
            let since = |t: Instant| (t - self.epoch).as_nanos() as u64;
            self.spans
                .lock()
                .expect("a thread panicked while recording a span")
                .push(Span {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    req: open.req,
                    start_ns: since(open.start),
                    end_ns: since(end),
                });
        }
        took
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration.
    pub fn time<T>(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(name, parent, req);
        let out = f();
        (out, self.close(open))
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Parses a file written by [`write_jsonl`] back into spans.
pub fn read_jsonl(text: &str) -> Result<Vec<Span>, String> {
    use stm_obs::json::Json;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let json = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let num = |k: &str| {
                json.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("line {}: missing number {k:?}", i + 1))
            };
            let name = json
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing name", i + 1))?;
            Ok(Span {
                id: num("id")?,
                parent: num("parent")?,
                name: Cow::Owned(name.to_string()),
                req: num("req")?,
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
            })
        })
        .collect()
}

/// The share of `root`'s duration covered by its direct children, in
/// percent — the conservation check of a serial pass whose top-level
/// stages must account for its wall time.
pub fn coverage_pct(spans: &[Span], root: u64) -> Option<f64> {
    let r = spans.iter().find(|s| s.id == root)?;
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == root)
        .map(Span::duration_ns)
        .sum();
    Some(100.0 * covered as f64 / r.duration_ns().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_round_trip_and_conserve() {
        let t = Tracer::new(true);
        let root = t.open("pass", 0, 0);
        let ((), _) = t.time("a", root.id(), 1, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let ((), _) = t.time("b", root.id(), 2, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let root_id = root.id();
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let pct = coverage_pct(&spans, root_id).unwrap();
        assert!(pct > 90.0 && pct <= 100.0, "{pct}");

        let dir = std::env::temp_dir().join(format!("stmbench-trace-{}", std::process::id()));
        let path = dir.join("t.spans.jsonl");
        write_jsonl(&path, &spans).unwrap();
        let back = read_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, spans);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, took) = t.time("x", 0, 0, || 7);
        assert_eq!(v, 7);
        assert!(took < Duration::from_secs(1));
        assert!(t.spans().is_empty());
    }
}
