//! # stm-obs — cycle-level observability for the HiSM/STM simulator
//!
//! A first-party tracing and metrics layer, with no dependency outside
//! the workspace (record seals use `stm-sparse`'s FNV-1a hasher):
//!
//! * [`cli`] — the one command-line parser: a binary's flag table
//!   drives parsing, environment fallbacks, `--help` and usage errors;
//! * [`event`] — the event model: [`Lane`]s (logical timelines),
//!   [`Category`]s, and cycle-stamped [`TraceEvent`]s;
//! * [`recorder`] — the cloneable [`Recorder`] handle over a shared
//!   ring buffer plus counters/histograms; disabled recorders are
//!   true no-ops;
//! * [`metrics`] — deterministic named counters and log2 histograms;
//! * [`export`] — byte-deterministic JSONL, CSV, and Chrome
//!   `trace_event` exporters (open in `about:tracing` / Perfetto);
//! * [`check`] — structural invariant validation over a recording
//!   (per-lane monotonicity, LIFO span nesting, closure);
//! * [`profile`] — deterministic per-kernel profiles (phase attribution,
//!   per-FU stall tables, folded-stack export) from a recording or a
//!   JSONL export; the logic behind the `stmprof` bin;
//! * [`jsonl`] — re-validation of exported JSONL text (the logic
//!   behind the `tracecheck` bin);
//! * [`journal`] — durable-file plumbing shared by every line-oriented
//!   on-disk artifact: per-record checksum seals, the one torn-tail-
//!   tolerant reader, and the scrubber behind the `stmscrub` bin;
//! * [`telemetry`] — the live metrics plane: a lock-striped
//!   [`telemetry::MetricsRegistry`] (counters, gauges, sliding-window
//!   histograms) merged deterministically across worker shards, with a
//!   sorted Prometheus-compatible text exposition;
//! * [`json`] — a minimal JSON parser used to re-read exports.
//!
//! # Example
//!
//! ```
//! use stm_obs::{Category, Lane, Recorder};
//!
//! let rec = Recorder::enabled(1024);
//! let run = rec.begin(Lane::Stage, Category::Stage, "run", 0);
//! rec.complete(Lane::Mem(0), Category::Mem, "v_ld", 0, 36, 64);
//! rec.end(Lane::Stage, Category::Stage, "run", 36, run);
//! rec.add("mem.words", 64);
//!
//! let snap = rec.snapshot();
//! assert!(stm_obs::check::validate(&snap).is_ok());
//! let jsonl = stm_obs::export::to_jsonl(&snap);
//! assert!(stm_obs::jsonl::validate_jsonl(&jsonl).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cli;
pub mod event;
pub mod export;
pub mod journal;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod telemetry;

pub use event::{Category, EventKind, Lane, SpanCtx, TraceEvent};
pub use metrics::{Histogram, Metrics};
pub use recorder::{Recorder, TraceData, DEFAULT_CAPACITY};
pub use telemetry::{MetricsRegistry, MetricsSnapshot};
