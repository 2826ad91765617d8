//! The event model: lanes, categories, and cycle-stamped trace events.
//!
//! A [`TraceEvent`] is a point on a **lane** (a logical timeline: a
//! pipeline stage, a memory port, a functional unit). Events on one lane
//! must have monotone non-decreasing timestamps; different lanes are
//! independent. This maps 1:1 onto the Chrome `trace_event` model where
//! each lane becomes a thread (`tid`) inside a single process.

/// A logical timeline that events are attached to.
///
/// Lanes map to Chrome-trace thread ids via [`Lane::tid`], so a trace
/// opened in Perfetto shows one named track per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Kernel lifecycle stages (`prepare`/`run`/`verify`).
    Stage,
    /// Algorithm phases inside a kernel run (e.g. `histogram`, `scatter`).
    Phase,
    /// A vector memory port (the engine may have several).
    Mem(u8),
    /// The vector ALU.
    Alu,
    /// The STM functional unit (instruction issue/retire).
    Stm,
    /// STM transpose sessions (`icm` .. drain) as long spans.
    StmBlock,
    /// Serial/scalar execution charged to the vector engine's clock.
    Scalar,
    /// Memory-fault (out-of-bounds) instants.
    Fault,
    /// Resilience-pipeline events (queue depth samples, circuit-breaker
    /// transitions, retries) — timestamps are commit sequence numbers,
    /// not cycles, since the soak pipeline spans many kernel runs.
    Resil,
    /// Service-layer events (`stm-serve`: request admissions, shed/quota
    /// rejections, degradations, queue-depth samples) — timestamps are a
    /// server-global event sequence number, monotone by construction.
    Serve,
    /// Host-native backend execution (`stm-host`): kernel spans timed in
    /// nominal cycles.
    Host,
}

impl Lane {
    /// Stable Chrome-trace thread id for this lane.
    ///
    /// Memory ports occupy `10 + port` so an arbitrary number of ports
    /// never collides with the fixed lanes.
    pub fn tid(self) -> u32 {
        match self {
            Lane::Stage => 0,
            Lane::Phase => 1,
            Lane::Alu => 2,
            Lane::Stm => 3,
            Lane::StmBlock => 4,
            Lane::Scalar => 5,
            Lane::Fault => 6,
            Lane::Resil => 7,
            Lane::Serve => 8,
            Lane::Host => 9,
            Lane::Mem(p) => 10 + p as u32,
        }
    }

    /// Human-readable lane name (Chrome-trace thread name).
    pub fn label(self) -> String {
        match self {
            Lane::Stage => "stage".to_string(),
            Lane::Phase => "phase".to_string(),
            Lane::Alu => "alu".to_string(),
            Lane::Stm => "stm".to_string(),
            Lane::StmBlock => "stm.block".to_string(),
            Lane::Scalar => "scalar".to_string(),
            Lane::Fault => "fault".to_string(),
            Lane::Resil => "resil".to_string(),
            Lane::Serve => "serve".to_string(),
            Lane::Host => "host".to_string(),
            Lane::Mem(p) => format!("mem.port{p}"),
        }
    }
}

/// Coarse event taxonomy, used for filtering in exporters and viewers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Kernel lifecycle stage spans.
    Stage,
    /// Kernel algorithm phase spans.
    Phase,
    /// Vector memory instructions.
    Mem,
    /// Vector ALU instructions.
    Alu,
    /// STM unit instructions and sessions.
    Stm,
    /// Scalar/serial execution.
    Scalar,
    /// Memory faults.
    Fault,
    /// Sampled values (e.g. buffer utilization).
    Sample,
    /// Resilience-pipeline events (breaker transitions, retries,
    /// degradations).
    Resil,
    /// Service-layer events (admissions, rejections, completions).
    Serve,
    /// Host-native backend execution.
    Host,
}

impl Category {
    /// Stable lowercase name used in export formats.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Stage => "stage",
            Category::Phase => "phase",
            Category::Mem => "mem",
            Category::Alu => "alu",
            Category::Stm => "stm",
            Category::Scalar => "scalar",
            Category::Fault => "fault",
            Category::Sample => "sample",
            Category::Resil => "resil",
            Category::Serve => "serve",
            Category::Host => "host",
        }
    }
}

/// What kind of point this event is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Opens a span on the event's lane. Spans on a lane nest (LIFO).
    Begin {
        /// Span id, unique within a recording; matched by [`EventKind::End`].
        span: u32,
    },
    /// Closes the innermost open span on the event's lane.
    End {
        /// Span id opened by the matching [`EventKind::Begin`].
        span: u32,
    },
    /// A self-contained span (`ts .. ts + dur`), e.g. one vector instruction.
    Complete {
        /// Duration in cycles.
        dur: u64,
        /// Elements processed (vector length), 0 when not applicable.
        elements: u64,
    },
    /// A zero-duration marker (e.g. a memory fault).
    Instant,
    /// A sampled scalar value (e.g. buffer utilization in `[0, 1]`).
    Sample {
        /// The sampled value.
        value: f64,
    },
}

impl EventKind {
    /// Stable lowercase name used in export formats.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Begin { .. } => "begin",
            EventKind::End { .. } => "end",
            EventKind::Complete { .. } => "complete",
            EventKind::Instant => "instant",
            EventKind::Sample { .. } => "sample",
        }
    }
}

/// Request correlation context carried by a [`crate::Recorder`] handle.
///
/// Every event pushed through a handle is stamped with the handle's
/// request id, so a request's events can be reassembled across lanes
/// (serve → resilient → kernel) after the fact. `request_id == 0` is
/// the root context: not request-scoped, the pre-correlation behavior.
///
/// Events from different requests form *independent* timelines: lane
/// monotonicity and span nesting hold per `(lane, request)` pair, and a
/// request's kernel events keep their own cycle clock. See
/// [`crate::jsonl::join_requests`] for the reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanCtx {
    /// Originating request id; 0 means "not request-scoped".
    pub request_id: u64,
}

impl SpanCtx {
    /// The root (non-request) context.
    pub fn root() -> Self {
        SpanCtx { request_id: 0 }
    }

    /// A context correlated to request `id`.
    pub fn request(id: u64) -> Self {
        SpanCtx { request_id: id }
    }
}

/// One cycle-stamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Cycle timestamp (monotone non-decreasing per lane and request).
    pub ts: u64,
    /// The lane (logical timeline) this event belongs to.
    pub lane: Lane,
    /// Coarse category for filtering.
    pub cat: Category,
    /// Event name (instruction mnemonic, phase name, stage name, ...).
    pub name: &'static str,
    /// Originating request id (0 = not request-scoped); exporters omit
    /// the field when 0, so traces without request correlation are
    /// byte-identical to the pre-correlation format.
    pub req: u64,
    /// The event payload.
    pub kind: EventKind,
}
