//! Crash flight recorder: an always-on bounded ring of recent service
//! events, dumped atomically to a JSONL file when something goes wrong.
//!
//! The ring is deliberately cheap — one mutex-guarded `VecDeque` per
//! shard (admission's, and one per execution permit), instants only, wall-millisecond timestamps relative to
//! server start — so it can stay on in production without perturbing
//! the execution path. A dump:
//!
//! * keeps only the events from the last `window_ms` milliseconds,
//! * merges all shards and sorts by timestamp (so the output passes the
//!   per-lane monotonicity check and loads in `stmprof` / `tracecheck`
//!   like any other trace),
//! * records the trigger as a `flight.reason.<reason>` counter,
//! * is written to a temp file and `rename`d into place, so a reader
//!   never observes a half-written dump — at worst the tail of the
//!   *previous* incomplete attempt, which the JSONL loaders already
//!   tolerate.
//!
//! Triggers (see `server.rs`): a panic on a server thread, a circuit
//! breaker opening, a deadline storm, `SIGTERM` in the `stmserve` bin,
//! and the `--flight-every` test hook.

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use stm_obs::{Category, EventKind, Lane, TraceData, TraceEvent};

/// Default cap on buffered events across all shards.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The always-on ring. Writers pick a shard (1 + permit index for an
/// executing request; shard indexes wrap), so concurrently executing
/// requests never contend with each other.
pub struct FlightRecorder {
    shards: Vec<Mutex<VecDeque<TraceEvent>>>,
    cap_per_shard: usize,
    window_ms: u64,
    /// Dump sequence number, part of the dump filename so repeated
    /// triggers within one millisecond never collide.
    seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with `shards` stripes (clamped to at least 1), a
    /// dump window of `window_ms` milliseconds (clamped to at least 1),
    /// and [`DEFAULT_CAPACITY`] total buffered events.
    pub fn new(shards: usize, window_ms: u64) -> Self {
        let shards = shards.max(1);
        FlightRecorder {
            cap_per_shard: (DEFAULT_CAPACITY / shards).max(64),
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            window_ms: window_ms.max(1),
            seq: AtomicU64::new(0),
        }
    }

    /// Width of the dump window in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    /// Record an instant on `shard` at wall time `now_ms` (milliseconds
    /// since server start), correlated to request `req` (0 = none).
    pub fn record(&self, shard: usize, name: &'static str, now_ms: u64, req: u64) {
        let mut ring = self.shards[shard % self.shards.len()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if ring.len() >= self.cap_per_shard {
            ring.pop_front();
        }
        ring.push_back(TraceEvent {
            ts: now_ms,
            lane: Lane::Serve,
            cat: Category::Serve,
            name,
            req,
            kind: EventKind::Instant,
        });
    }

    /// The last-window view as ordinary trace data: events within
    /// `(now_ms - window_ms, now_ms]` across all shards, sorted by
    /// timestamp, plus a `flight.reason.<reason>` counter naming the
    /// trigger and a `flight.now_ms` counter anchoring the clock.
    pub fn snapshot(&self, reason: &str, now_ms: u64) -> TraceData {
        // Within the first `window_ms` of uptime the window has no lower
        // bound: `now_ms - window` would saturate to 0 and the strict
        // `>` would wrongly drop events stamped at 0.
        let in_window =
            |ts: u64| ts <= now_ms && (now_ms < self.window_ms || ts > now_ms - self.window_ms);
        let mut events: Vec<TraceEvent> = Vec::new();
        for shard in &self.shards {
            let ring = shard.lock().unwrap_or_else(|e| e.into_inner());
            events.extend(ring.iter().filter(|e| in_window(e.ts)).cloned());
        }
        events.sort_by_key(|e| e.ts);
        TraceData {
            events,
            dropped: 0,
            counters: vec![
                (format!("flight.reason.{reason}"), 1),
                ("flight.now_ms".to_string(), now_ms),
            ],
            histograms: Vec::new(),
        }
    }

    /// Dump the last window to `dir/flight-<now_ms>-<seq>.jsonl`,
    /// atomically (temp file + rename). Returns the final path.
    ///
    /// Every line carries a [`stm_obs::journal`] checksum seal — the
    /// `crc` field is ignored by the JSONL loaders but lets `stmscrub`
    /// verify a dump at rest, the same way it verifies checkpoints and
    /// results logs.
    pub fn dump(&self, dir: &Path, reason: &str, now_ms: u64) -> std::io::Result<PathBuf> {
        let data = self.snapshot(reason, now_ms);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flight-{now_ms}-{seq}.jsonl"));
        let tmp = dir.join(format!(".flight-{now_ms}-{seq}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            for line in data.to_jsonl().lines() {
                f.write_all(stm_obs::journal::seal(line).as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_filters_and_sorts_across_shards() {
        let fr = FlightRecorder::new(3, 100);
        fr.record(0, "a", 5, 1);
        fr.record(1, "b", 250, 2);
        fr.record(2, "c", 200, 3);
        let data = fr.snapshot("test", 260);
        // t=5 is outside (160, 260]; the rest sort by timestamp.
        let names: Vec<_> = data.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["c", "b"]);
        assert_eq!(data.counter("flight.reason.test"), 1);
        assert_eq!(data.counter("flight.now_ms"), 260);
    }

    #[test]
    fn a_dump_in_the_first_millisecond_keeps_ts_zero_events() {
        let fr = FlightRecorder::new(1, 10_000);
        fr.record(0, "flight.execute", 0, 1);
        let data = fr.snapshot("early", 0);
        assert_eq!(data.events.len(), 1, "ts=0 must be inside the window");
    }

    #[test]
    fn ring_is_bounded() {
        let fr = FlightRecorder::new(1, u64::MAX);
        for i in 0..(DEFAULT_CAPACITY as u64 + 500) {
            fr.record(0, "e", i, 0);
        }
        let data = fr.snapshot("cap", DEFAULT_CAPACITY as u64 + 500);
        assert_eq!(data.events.len(), DEFAULT_CAPACITY);
        // Oldest events were evicted first.
        assert_eq!(data.events[0].ts, 500);
    }

    #[test]
    fn dump_is_valid_jsonl_and_atomic() {
        let dir = std::env::temp_dir().join(format!("stm-flight-test-{}", std::process::id()));
        let fr = FlightRecorder::new(2, 1000);
        fr.record(0, "flight.execute", 10, 7);
        fr.record(1, "flight.commit.ok", 20, 7);
        let path = fr.dump(&dir, "unit", 25).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(stm_obs::jsonl::validate_jsonl(&text).is_ok());
        assert!(text.contains("flight.reason.unit"));
        // Every dumped line is checksum-sealed and scrubs clean.
        let scrub = stm_obs::journal::scrub_text(&text);
        assert!(scrub.is_clean());
        assert_eq!(scrub.sealed, scrub.lines);
        // A flipped bit at rest is detected by the scrubber.
        let rotten = text.replacen("flight.execute", "flight.exequte", 1);
        assert!(!stm_obs::journal::scrub_text(&rotten).is_clean());
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
