//! The `stm-serve` wire protocol: length-prefixed binary frames over
//! TCP, little-endian throughout.
//!
//! ## Frame layout
//!
//! ```text
//! +------+----------+---------------------+
//! | STM1 | len: u32 | payload (len bytes) |
//! +------+----------+---------------------+
//! ```
//!
//! A frame whose magic is wrong is a protocol violation
//! ([`FrameError::BadMagic`]); a frame whose declared length exceeds the
//! receiver's limit is rejected *before* any allocation
//! ([`FrameError::TooLarge`]) — both are the server's oversized-frame /
//! garbage-client guards.
//!
//! ## Request payload
//!
//! ```text
//! op: u8 | request_id: u64 | client_id: u64 | body…
//! ```
//!
//! | op | body |
//! |---|---|
//! | `SUBMIT`    | `matrix_id u64, rows u32, cols u32, nnz u32, nnz × (row u32, col u32, value f32-bits u32)` |
//! | `TRANSPOSE` | `matrix_id u64, fault u8 ∈ {0,1} [, class u8, seed u64]` — `class` is the `FaultClass::ALL` index, or `ALL.len()` for the mid-run engine bit-flip |
//! | `SPMV`      | same as `TRANSPOSE` |
//! | `FETCH`     | `target_request_id u64` |
//! | `STATS`     | empty |
//! | `SHUTDOWN`  | empty |
//! | `METRICS`   | empty |
//!
//! `request_id` is the idempotency key: re-sending an id that is already
//! in flight joins the original execution, and re-sending a completed id
//! replays the recorded result — at-most-once kernel execution under
//! at-least-once delivery.
//!
//! ## Response payload
//!
//! ```text
//! status: u8 | flags: u8 | request_id: u64 | body…
//! ```
//!
//! Flag bit 0 is **degraded**: the primary kernel did not produce the
//! verified result, the registry fallback did. `Ok` responses to
//! `TRANSPOSE`/`SPMV`/`FETCH` carry the result digest (`u64`);
//! `RETRY_AFTER` carries a backoff hint in milliseconds (`u32`);
//! `STATS` carries a count-prefixed `u64` list (see
//! [`crate::server::StatsSnapshot`] for the field order); `METRICS`
//! carries a `u32::MAX` marker, a `u32` byte length and that many bytes
//! of Prometheus-format UTF-8 text. The marker keeps the `Ok`-body
//! decode unambiguous: a count-prefixed `STATS` list never starts with
//! `u32::MAX`, and the exposition text is never empty, so a `METRICS`
//! body is never 8 bytes long like a digest.

use stm_hism::FaultClass;

/// Frame magic: every frame starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"STM1";

/// Default cap on a frame payload (1 MiB) — a `SUBMIT` of roughly 87k
/// triplets, far above anything the synthetic suites ship.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Response flag bit 0: the result came from the registry fallback.
pub const FLAG_DEGRADED: u8 = 1;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Upload a matrix under a caller-chosen `matrix_id`.
    Submit = 1,
    /// Transpose a submitted matrix (resilient path, breaker-protected).
    Transpose = 2,
    /// SpMV over a submitted matrix (resilient path, no fallback).
    Spmv = 3,
    /// Replay the recorded result of a completed request id.
    Fetch = 4,
    /// Read the service counters.
    Stats = 5,
    /// Drain in-flight work, checkpoint, and stop the server.
    Shutdown = 6,
    /// Read the live telemetry registry as Prometheus exposition text.
    Metrics = 7,
}

impl Op {
    /// Decodes the wire opcode.
    pub fn from_u8(v: u8) -> Option<Op> {
        match v {
            1 => Some(Op::Submit),
            2 => Some(Op::Transpose),
            3 => Some(Op::Spmv),
            4 => Some(Op::Fetch),
            5 => Some(Op::Stats),
            6 => Some(Op::Shutdown),
            7 => Some(Op::Metrics),
            _ => None,
        }
    }

    /// Stable lowercase name (results log, load-report lines).
    pub fn name(self) -> &'static str {
        match self {
            Op::Submit => "submit",
            Op::Transpose => "transpose",
            Op::Spmv => "spmv",
            Op::Fetch => "fetch",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
            Op::Metrics => "metrics",
        }
    }

    /// Parses [`Op::name`] output.
    pub fn from_name(name: &str) -> Option<Op> {
        match name {
            "submit" => Some(Op::Submit),
            "transpose" => Some(Op::Transpose),
            "spmv" => Some(Op::Spmv),
            "fetch" => Some(Op::Fetch),
            "stats" => Some(Op::Stats),
            "shutdown" => Some(Op::Shutdown),
            "metrics" => Some(Op::Metrics),
            _ => None,
        }
    }
}

/// Typed response status — every failure mode of the resilient pipeline
/// surfaces as one of these, never as a closed connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request completed; an execution response carries the digest.
    Ok = 0,
    /// The frame or payload did not parse.
    BadFrame = 1,
    /// Unknown opcode.
    UnknownOp = 2,
    /// `TRANSPOSE`/`SPMV` named a matrix id that was never submitted.
    UnknownMatrix = 3,
    /// The client exceeded its in-flight request quota.
    QuotaExceeded = 4,
    /// No execution permit is free and the waiting line is full —
    /// retry after the hinted delay (load shedding, not failure).
    RetryAfter = 5,
    /// The kernel and its fallback (if any) both failed.
    KernelFailed = 6,
    /// The per-request cycle budget was exceeded.
    DeadlineExceeded = 7,
    /// The frame exceeded the server's size limit.
    TooLarge = 8,
    /// The server is draining; no new work is admitted.
    ShuttingDown = 9,
    /// `FETCH` named a request id with no recorded result.
    NotFound = 10,
    /// Integrity verification proved the result wrong and no independent
    /// re-execution could recover a trustworthy majority — the server
    /// refuses to serve a digest it cannot vouch for.
    DataCorrupt = 11,
}

impl Status {
    /// Decodes the wire status.
    pub fn from_u8(v: u8) -> Option<Status> {
        match v {
            0 => Some(Status::Ok),
            1 => Some(Status::BadFrame),
            2 => Some(Status::UnknownOp),
            3 => Some(Status::UnknownMatrix),
            4 => Some(Status::QuotaExceeded),
            5 => Some(Status::RetryAfter),
            6 => Some(Status::KernelFailed),
            7 => Some(Status::DeadlineExceeded),
            8 => Some(Status::TooLarge),
            9 => Some(Status::ShuttingDown),
            10 => Some(Status::NotFound),
            11 => Some(Status::DataCorrupt),
            _ => None,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::BadFrame => "bad_frame",
            Status::UnknownOp => "unknown_op",
            Status::UnknownMatrix => "unknown_matrix",
            Status::QuotaExceeded => "quota_exceeded",
            Status::RetryAfter => "retry_after",
            Status::KernelFailed => "kernel_failed",
            Status::DeadlineExceeded => "deadline_exceeded",
            Status::TooLarge => "too_large",
            Status::ShuttingDown => "shutting_down",
            Status::NotFound => "not_found",
            Status::DataCorrupt => "data_corrupt",
        }
    }
}

/// A deterministic fault to inject into the request's primary kernel —
/// the chaos face of the protocol, mirroring the soak pipeline's
/// `FaultSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRequest {
    /// Fault class, encoded on the wire as its index in
    /// [`FaultClass::ALL`].
    pub class: FaultClass,
    /// Seed choosing the exact corruption site.
    pub seed: u64,
}

/// The op-specific part of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Upload a matrix.
    Submit {
        /// Caller-chosen matrix id (re-submitting is idempotent).
        matrix_id: u64,
        /// Row count.
        rows: u32,
        /// Column count.
        cols: u32,
        /// Triplets `(row, col, value)`.
        entries: Vec<(u32, u32, f32)>,
    },
    /// Transpose `matrix_id`, optionally with an injected fault.
    Transpose {
        /// The matrix to transpose.
        matrix_id: u64,
        /// Deterministic fault to inject into the primary kernel.
        fault: Option<FaultRequest>,
    },
    /// SpMV over `matrix_id`, optionally with an injected fault.
    Spmv {
        /// The matrix to multiply.
        matrix_id: u64,
        /// Deterministic fault to inject into the primary kernel.
        fault: Option<FaultRequest>,
    },
    /// Replay the result of completed request `target`.
    Fetch {
        /// The request id to look up.
        target: u64,
    },
    /// Read the service counters.
    Stats,
    /// Drain and stop the server.
    Shutdown,
    /// Read the live telemetry registry (Prometheus text).
    Metrics,
}

impl RequestBody {
    /// The opcode this body encodes under.
    pub fn op(&self) -> Op {
        match self {
            RequestBody::Submit { .. } => Op::Submit,
            RequestBody::Transpose { .. } => Op::Transpose,
            RequestBody::Spmv { .. } => Op::Spmv,
            RequestBody::Fetch { .. } => Op::Fetch,
            RequestBody::Stats => Op::Stats,
            RequestBody::Shutdown => Op::Shutdown,
            RequestBody::Metrics => Op::Metrics,
        }
    }
}

/// One decoded request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Idempotency key; unique per logical request.
    pub request_id: u64,
    /// The submitting client (quota accounting).
    pub client_id: u64,
    /// The op-specific payload.
    pub body: RequestBody,
}

/// The op-specific part of a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// No payload (errors, `SUBMIT`/`SHUTDOWN` acks).
    Empty,
    /// Result digest of an execution or `FETCH`.
    Digest(u64),
    /// Backoff hint in milliseconds (`RETRY_AFTER`).
    RetryAfterMs(u32),
    /// Counter values in [`crate::server::StatsSnapshot`] field order.
    Stats(Vec<u64>),
    /// Prometheus exposition text (`METRICS`); never empty on the wire.
    Metrics(String),
}

/// One decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Terminal status of the request.
    pub status: Status,
    /// The result was produced by the registry fallback, not the
    /// primary kernel.
    pub degraded: bool,
    /// Echo of the request's idempotency key.
    pub request_id: u64,
    /// The status-specific payload.
    pub body: ResponseBody,
}

impl Response {
    /// An empty-bodied response.
    pub fn empty(status: Status, request_id: u64) -> Response {
        Response {
            status,
            degraded: false,
            request_id,
            body: ResponseBody::Empty,
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed (includes read timeouts and EOF).
    Io(std::io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The declared payload length exceeds the receiver's limit; the
    /// payload was *not* read.
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds the limit"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (magic, length, payload) with a single `write_all`
/// and flushes. On an unbuffered `TCP_NODELAY` socket, separate writes
/// of the header and the payload would each leave as their own segment.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("a {}-byte payload does not fit a frame", payload.len()),
        )
    })?;
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, enforcing the magic and the `max_len` payload cap.
///
/// The length check runs before any payload allocation, so a hostile
/// 4 GiB length prefix costs the server eight bytes of reading, not an
/// allocation.
pub fn read_frame(r: &mut impl std::io::Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    let magic: [u8; 4] = head[..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(head[4..].try_into().expect("4-byte slice"));
    if len as usize > max_len {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Little-endian byte cursor for payload decoding.
struct Cur<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, p: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.p.checked_add(n).filter(|&e| e <= self.b.len());
        match end {
            Some(end) => {
                let s = &self.b[self.p..end];
                self.p = end;
                Ok(s)
            }
            None => Err(format!(
                "payload truncated: wanted {n} bytes at offset {} of {}",
                self.p,
                self.b.len()
            )),
        }
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), String> {
        if self.p == self.b.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after the payload",
                self.b.len() - self.p
            ))
        }
    }
}

fn encode_fault(out: &mut Vec<u8>, fault: &Option<FaultRequest>) {
    match fault {
        None => out.push(0),
        Some(f) => {
            out.push(1);
            // Pre-run image classes use their `ALL` index; the mid-run
            // engine flip (outside `ALL` by design) takes the next slot.
            let idx = FaultClass::ALL
                .iter()
                .position(|c| *c == f.class)
                .unwrap_or(FaultClass::ALL.len()) as u8;
            out.push(idx);
            out.extend_from_slice(&f.seed.to_le_bytes());
        }
    }
}

fn decode_fault(c: &mut Cur<'_>) -> Result<Option<FaultRequest>, String> {
    match c.u8()? {
        0 => Ok(None),
        1 => {
            let idx = c.u8()? as usize;
            let class = match FaultClass::ALL.get(idx) {
                Some(class) => *class,
                None if idx == FaultClass::ALL.len() => FaultClass::MidRunBitFlip,
                None => return Err(format!("fault class index {idx} out of range")),
            };
            Ok(Some(FaultRequest {
                class,
                seed: c.u64()?,
            }))
        }
        v => Err(format!("bad fault flag {v}")),
    }
}

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(req.body.op() as u8);
    out.extend_from_slice(&req.request_id.to_le_bytes());
    out.extend_from_slice(&req.client_id.to_le_bytes());
    match &req.body {
        RequestBody::Submit {
            matrix_id,
            rows,
            cols,
            entries,
        } => {
            out.extend_from_slice(&matrix_id.to_le_bytes());
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&cols.to_le_bytes());
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for &(r, c, v) in entries {
                out.extend_from_slice(&r.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        RequestBody::Transpose { matrix_id, fault } | RequestBody::Spmv { matrix_id, fault } => {
            out.extend_from_slice(&matrix_id.to_le_bytes());
            encode_fault(&mut out, fault);
        }
        RequestBody::Fetch { target } => out.extend_from_slice(&target.to_le_bytes()),
        RequestBody::Stats | RequestBody::Shutdown | RequestBody::Metrics => {}
    }
    out
}

/// Decodes a frame payload into a request. `Err(None)` marks an unknown
/// opcode (reply `UNKNOWN_OP`); `Err(Some(_))` a malformed payload
/// (reply `BAD_FRAME`).
#[allow(clippy::result_large_err)]
pub fn decode_request(payload: &[u8]) -> Result<Request, Option<String>> {
    let mut c = Cur::new(payload);
    let op = c.u8().map_err(Some)?;
    let op = Op::from_u8(op).ok_or(None)?;
    let request_id = c.u64().map_err(Some)?;
    let client_id = c.u64().map_err(Some)?;
    let body = match op {
        Op::Submit => {
            let matrix_id = c.u64().map_err(Some)?;
            let rows = c.u32().map_err(Some)?;
            let cols = c.u32().map_err(Some)?;
            let nnz = c.u32().map_err(Some)? as usize;
            // The frame length cap has already bounded nnz; still, refuse
            // counts the remaining payload cannot hold.
            if nnz > payload.len() / 12 + 1 {
                return Err(Some(format!("nnz {nnz} exceeds the payload")));
            }
            let mut entries = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                let r = c.u32().map_err(Some)?;
                let col = c.u32().map_err(Some)?;
                let v = f32::from_bits(c.u32().map_err(Some)?);
                entries.push((r, col, v));
            }
            RequestBody::Submit {
                matrix_id,
                rows,
                cols,
                entries,
            }
        }
        Op::Transpose => RequestBody::Transpose {
            matrix_id: c.u64().map_err(Some)?,
            fault: decode_fault(&mut c).map_err(Some)?,
        },
        Op::Spmv => RequestBody::Spmv {
            matrix_id: c.u64().map_err(Some)?,
            fault: decode_fault(&mut c).map_err(Some)?,
        },
        Op::Fetch => RequestBody::Fetch {
            target: c.u64().map_err(Some)?,
        },
        Op::Stats => RequestBody::Stats,
        Op::Shutdown => RequestBody::Shutdown,
        Op::Metrics => RequestBody::Metrics,
    };
    c.done().map_err(Some)?;
    Ok(Request {
        request_id,
        client_id,
        body,
    })
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.push(resp.status as u8);
    out.push(if resp.degraded { FLAG_DEGRADED } else { 0 });
    out.extend_from_slice(&resp.request_id.to_le_bytes());
    match &resp.body {
        ResponseBody::Empty => {}
        ResponseBody::Digest(d) => out.extend_from_slice(&d.to_le_bytes()),
        ResponseBody::RetryAfterMs(ms) => out.extend_from_slice(&ms.to_le_bytes()),
        ResponseBody::Stats(vals) => {
            out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
            for v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        ResponseBody::Metrics(text) => {
            out.extend_from_slice(&u32::MAX.to_le_bytes());
            out.extend_from_slice(&(text.len() as u32).to_le_bytes());
            out.extend_from_slice(text.as_bytes());
        }
    }
    out
}

/// Decodes a frame payload into a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut c = Cur::new(payload);
    let status = c.u8()?;
    let status = Status::from_u8(status).ok_or_else(|| format!("bad status byte {status}"))?;
    let flags = c.u8()?;
    let request_id = c.u64()?;
    let body = if c.p == payload.len() {
        ResponseBody::Empty
    } else {
        match status {
            Status::RetryAfter => ResponseBody::RetryAfterMs(c.u32()?),
            Status::Ok if payload.len() - c.p > 8 => {
                let n = c.u32()?;
                if n == u32::MAX {
                    let len = c.u32()? as usize;
                    let bytes = c.take(len)?;
                    let text = String::from_utf8(bytes.to_vec())
                        .map_err(|e| format!("metrics payload is not UTF-8: {e}"))?;
                    ResponseBody::Metrics(text)
                } else {
                    let n = n as usize;
                    let mut vals = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        vals.push(c.u64()?);
                    }
                    ResponseBody::Stats(vals)
                }
            }
            _ => ResponseBody::Digest(c.u64()?),
        }
    };
    c.done()?;
    Ok(Response {
        status,
        degraded: flags & FLAG_DEGRADED != 0,
        request_id,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request {
            request_id: 7,
            client_id: 3,
            body: RequestBody::Submit {
                matrix_id: 0xabcd,
                rows: 16,
                cols: 8,
                entries: vec![(0, 1, 1.5), (15, 7, -0.0)],
            },
        });
        round_trip(Request {
            request_id: u64::MAX,
            client_id: 0,
            body: RequestBody::Transpose {
                matrix_id: 1,
                fault: Some(FaultRequest {
                    class: FaultClass::Truncate,
                    seed: 0x5eed,
                }),
            },
        });
        // The mid-run engine flip sits outside `FaultClass::ALL` and
        // rides the wire on the slot after the last image class.
        round_trip(Request {
            request_id: 8,
            client_id: 1,
            body: RequestBody::Transpose {
                matrix_id: 2,
                fault: Some(FaultRequest {
                    class: FaultClass::MidRunBitFlip,
                    seed: 0x5dc,
                }),
            },
        });
        round_trip(Request {
            request_id: 2,
            client_id: 2,
            body: RequestBody::Spmv {
                matrix_id: 1,
                fault: None,
            },
        });
        round_trip(Request {
            request_id: 3,
            client_id: 2,
            body: RequestBody::Fetch { target: 7 },
        });
        round_trip(Request {
            request_id: 4,
            client_id: 2,
            body: RequestBody::Stats,
        });
        round_trip(Request {
            request_id: 5,
            client_id: 2,
            body: RequestBody::Shutdown,
        });
        round_trip(Request {
            request_id: 6,
            client_id: 2,
            body: RequestBody::Metrics,
        });
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::empty(Status::ShuttingDown, 9),
            Response {
                status: Status::Ok,
                degraded: true,
                request_id: 1,
                body: ResponseBody::Digest(0xdead_beef),
            },
            Response {
                status: Status::RetryAfter,
                degraded: false,
                request_id: 2,
                body: ResponseBody::RetryAfterMs(5),
            },
            Response {
                status: Status::Ok,
                degraded: false,
                request_id: 3,
                body: ResponseBody::Stats(vec![1, 2, 3, u64::MAX]),
            },
            Response {
                status: Status::Ok,
                degraded: false,
                request_id: 4,
                body: ResponseBody::Metrics(
                    "# TYPE stm_serve_completed counter\nstm_serve_completed_total 3\n".to_string(),
                ),
            },
        ] {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Unknown opcode → Err(None) → UNKNOWN_OP.
        let mut p = encode_request(&Request {
            request_id: 1,
            client_id: 1,
            body: RequestBody::Stats,
        });
        p[0] = 0x7f;
        assert!(matches!(decode_request(&p), Err(None)));

        // Truncated payload → Err(Some) → BAD_FRAME.
        let p = encode_request(&Request {
            request_id: 1,
            client_id: 1,
            body: RequestBody::Fetch { target: 3 },
        });
        assert!(matches!(decode_request(&p[..p.len() - 2]), Err(Some(_))));

        // Trailing garbage is rejected, not ignored.
        let mut p = encode_request(&Request {
            request_id: 1,
            client_id: 1,
            body: RequestBody::Stats,
        });
        p.push(0);
        assert!(matches!(decode_request(&p), Err(Some(_))));

        // A runaway nnz that the payload cannot hold is refused.
        let mut p = encode_request(&Request {
            request_id: 1,
            client_id: 1,
            body: RequestBody::Submit {
                matrix_id: 0,
                rows: 4,
                cols: 4,
                entries: vec![(0, 0, 1.0)],
            },
        });
        let nnz_at = 1 + 8 + 8 + 8 + 4 + 4;
        p[nnz_at..nnz_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_request(&p), Err(Some(_))));
    }

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One request of each kind, as the sweeps below corrupt them.
    fn one_of_each_request() -> Vec<Request> {
        let fault = Some(FaultRequest {
            class: FaultClass::Truncate,
            seed: 0x5eed,
        });
        [
            RequestBody::Submit {
                matrix_id: 0xabcd,
                rows: 16,
                cols: 8,
                entries: vec![(0, 1, 1.5), (15, 7, -4.0), (3, 3, 2.25)],
            },
            RequestBody::Transpose {
                matrix_id: 1,
                fault,
            },
            RequestBody::Spmv {
                matrix_id: 2,
                fault: None,
            },
            RequestBody::Fetch { target: 7 },
            RequestBody::Stats,
            RequestBody::Metrics,
            RequestBody::Shutdown,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, body)| Request {
            request_id: 100 + i as u64,
            client_id: 3,
            body,
        })
        .collect()
    }

    #[test]
    fn each_frame_leaves_in_one_write_in_the_wire_layout() {
        let payloads: Vec<Vec<u8>> = std::iter::once(Vec::new())
            .chain(one_of_each_request().iter().map(encode_request))
            .collect();
        for payload in &payloads {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "a {}-byte payload", payload.len());
            let mut layout = MAGIC.to_vec();
            layout.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            layout.extend_from_slice(payload);
            assert_eq!(w.bytes, layout);
            assert_eq!(&read_frame(&mut &w.bytes[..], 1 << 20).unwrap(), payload);
        }
    }

    /// Reads `bytes` as a frame and decodes the payload as a request, as
    /// a connection thread does: every outcome is a value, never a panic.
    fn read_request(bytes: &[u8]) -> Option<Request> {
        let payload = read_frame(&mut &bytes[..], DEFAULT_MAX_FRAME).ok()?;
        decode_request(&payload).ok()
    }

    #[test]
    fn truncated_and_bit_flipped_frames_are_typed_errors_or_other_requests() {
        for req in one_of_each_request() {
            let mut frame = Vec::new();
            write_frame(&mut frame, &encode_request(&req)).unwrap();
            assert_eq!(read_request(&frame), Some(req.clone()));
            for n in 0..frame.len() {
                assert_eq!(read_request(&frame[..n]), None, "{req:?} cut to {n} bytes");
            }
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                // Every bit of the frame is significant: a flip never
                // reads back as the request that was sent.
                assert_ne!(
                    read_request(&flipped),
                    Some(req.clone()),
                    "bit {bit} of {req:?}"
                );
            }
        }
    }

    #[test]
    fn frame_guards_fire_before_payload_reads() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(read_frame(&mut &buf[..], 64).unwrap(), b"hello");

        // Oversized: rejected from the 8-byte header alone.
        let r = read_frame(&mut &buf[..], 4);
        assert!(matches!(r, Err(FrameError::TooLarge(5))), "{r:?}");

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bad[..], 64),
            Err(FrameError::BadMagic(_))
        ));

        // Short read (slow-loris torso) is an Io error.
        assert!(matches!(
            read_frame(&mut &buf[..6], 64),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn names_round_trip() {
        for op in [
            Op::Submit,
            Op::Transpose,
            Op::Spmv,
            Op::Fetch,
            Op::Stats,
            Op::Shutdown,
            Op::Metrics,
        ] {
            assert_eq!(Op::from_name(op.name()), Some(op));
            assert_eq!(Op::from_u8(op as u8), Some(op));
        }
        for s in 0..=11 {
            let status = Status::from_u8(s).unwrap();
            assert_eq!(status as u8, s);
        }
        assert_eq!(Status::from_u8(12), None);
    }
}
