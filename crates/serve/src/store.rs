//! The durable results log: what lets a `kill -9`'d server come back
//! and re-serve `FETCH`es for every request it had completed.
//!
//! ## Schema: `stm-serve-results/v2`
//!
//! JSON lines with byte-deterministic layout, one completed request per
//! line, appended and flushed at commit time (never rewritten), every
//! line sealed with a per-record checksum ([`stm_obs::journal::seal`]):
//!
//! ```text
//! {"schema":"stm-serve-results/v2","crc":"0x…"}
//! {"id":"0x0000000000000007","client":"0x0000000000000001","op":"transpose",
//!  "matrix":"0x0000000000000002","status":"ok","degraded":false,
//!  "corrupted":false,"digest":"0x89abcdef01234567","crc":"0x…"}
//! ```
//!
//! All 64-bit values serialize as fixed-width hex strings — the shared
//! JSON parser routes numbers through `f64`, which cannot hold 64 bits
//! (the same rule the soak checkpoint follows for its fingerprint).
//!
//! Because each line is flushed before the response is sent, a `SIGKILL`
//! can lose at most the line being written — and only by tearing it.
//! [`ResultsLog::open`] therefore tolerates exactly one torn **final**
//! line (skipped with a warning, then truncated away so appends stay
//! well-formed); garbage anywhere else — including a line whose seal
//! fails — is corruption and refuses to load. Reading and torn-tail
//! handling go through the shared [`stm_obs::journal`] reader. `v1`
//! files (no seals, no `corrupted` field) still load as legacy.

use crate::protocol::{Op, Status};
use std::io::Write;
use std::path::Path;
use stm_obs::journal;
use stm_obs::json::Json;

/// Schema tag of the header line.
pub const SCHEMA: &str = "stm-serve-results/v2";

/// The previous schema, still accepted on load: no record seals, no
/// `corrupted` field.
pub const SCHEMA_V1: &str = "stm-serve-results/v1";

/// One completed execution request, as recorded durably.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRecord {
    /// The request's idempotency key.
    pub request_id: u64,
    /// The submitting client.
    pub client_id: u64,
    /// `Transpose` or `Spmv`.
    pub op: Op,
    /// The matrix the request ran over.
    pub matrix_id: u64,
    /// Terminal status (`Ok`, `KernelFailed`, `DeadlineExceeded` or
    /// `DataCorrupt`).
    pub status: Status,
    /// The result came from the registry fallback.
    pub degraded: bool,
    /// Integrity verification convicted the primary's output; the
    /// digest, when present, is the recovered majority result.
    pub corrupted: bool,
    /// Canonical result digest (0 when the request failed).
    pub digest: u64,
}

impl ResultRecord {
    /// The canonical (byte-deterministic) serialization — the unit the
    /// log file is built from.
    pub fn canonical_line(&self) -> String {
        format!(
            "{{\"id\":\"0x{:016x}\",\"client\":\"0x{:016x}\",\"op\":\"{}\",\"matrix\":\"0x{:016x}\",\"status\":\"{}\",\"degraded\":{},\"corrupted\":{},\"digest\":\"0x{:016x}\"}}",
            self.request_id,
            self.client_id,
            self.op.name(),
            self.matrix_id,
            self.status.name(),
            self.degraded,
            self.corrupted,
            self.digest,
        )
    }

    fn parse(json: &Json) -> Result<ResultRecord, String> {
        let hex = |k: &str| -> Result<u64, String> {
            json.get(k)
                .and_then(Json::as_str)
                .and_then(|s| s.strip_prefix("0x"))
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("missing hex field {k:?}"))
        };
        let s = |k: &str| -> Result<&str, String> {
            json.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let op = s("op")?;
        let op = Op::from_name(op).ok_or_else(|| format!("bad op {op:?}"))?;
        let status = s("status")?;
        let status = status_from_name(status).ok_or_else(|| format!("bad status {status:?}"))?;
        Ok(ResultRecord {
            request_id: hex("id")?,
            client_id: hex("client")?,
            op,
            matrix_id: hex("matrix")?,
            status,
            degraded: json
                .get("degraded")
                .and_then(Json::as_bool)
                .ok_or("missing bool field \"degraded\"")?,
            // v2 field: absent in v1 logs, defaulting to "not detected".
            corrupted: json
                .get("corrupted")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            digest: hex("digest")?,
        })
    }
}

fn status_from_name(name: &str) -> Option<Status> {
    (0..=u8::MAX)
        .map_while(Status::from_u8)
        .find(|s| s.name() == name)
}

/// The append-only results log, flushed per record.
#[derive(Debug)]
pub struct ResultsLog {
    file: std::fs::File,
}

impl ResultsLog {
    /// Opens (or creates) the log at `path`, returning the writer and
    /// every record the previous incarnation committed.
    ///
    /// A torn final line — the signature of a `kill -9` landing
    /// mid-append — is skipped with a warning and truncated away;
    /// corruption anywhere else is an error.
    pub fn open(path: &Path) -> std::io::Result<(ResultsLog, Vec<ResultRecord>)> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let bad = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let (records, keep_len, fresh) = match std::fs::read(path) {
            Ok(bytes) => {
                let (records, keep_len) = parse_log(&bytes, path).map_err(bad)?;
                (records, keep_len, false)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), 0, true),
            Err(e) => return Err(e),
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        // Drop the torn tail (if any) so the next append starts on a
        // fresh line rather than gluing onto the partial record.
        file.set_len(keep_len as u64)?;
        let mut log = ResultsLog { file };
        if fresh {
            log.write_line(&journal::seal(&format!("{{\"schema\":\"{SCHEMA}\"}}")))?;
        }
        Ok((log, records))
    }

    /// Appends one record (sealed) and flushes it to the OS — after this
    /// returns, a `SIGKILL` cannot lose the record.
    pub fn append(&mut self, rec: &ResultRecord) -> std::io::Result<()> {
        self.write_line(&journal::seal(&rec.canonical_line()))
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }
}

/// Parses the log bytes through the shared journal reader; returns the
/// records and the byte length of the well-formed prefix (everything up
/// to and including the last complete line).
fn parse_log(bytes: &[u8], path: &Path) -> Result<(Vec<ResultRecord>, usize), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    if text.is_empty() {
        return Ok((Vec::new(), 0));
    }
    let read = journal::read_journal(text, |index, body| {
        let json = Json::parse(body).map_err(|e| e.to_string())?;
        if index == 0 {
            let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
            if schema != SCHEMA && schema != SCHEMA_V1 {
                return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
            }
            return Ok(None);
        }
        ResultRecord::parse(&json)
            .map(Some)
            .map_err(|e| format!("record {}: {e}", index - 1))
    })?;
    if let Some(torn) = &read.torn {
        eprintln!(
            "warning: results log {path:?}: skipping torn final line \
             (truncated mid-append record): {torn}"
        );
    }
    Ok((read.records, read.keep_len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ResultRecord> {
        vec![
            ResultRecord {
                request_id: 7,
                client_id: 1,
                op: Op::Transpose,
                matrix_id: 2,
                status: Status::Ok,
                degraded: true,
                corrupted: false,
                digest: 0x89ab_cdef_0123_4567,
            },
            ResultRecord {
                request_id: 8,
                client_id: 1,
                op: Op::Spmv,
                matrix_id: 3,
                status: Status::KernelFailed,
                degraded: false,
                corrupted: false,
                digest: 0,
            },
        ]
    }

    #[test]
    fn v1_lines_load_as_legacy_and_corrupt_seals_refuse() {
        let dir = std::env::temp_dir().join("stm-serve-log-v1");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.log");
        // An unsealed v1 log: no crc fields, no corrupted field.
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"{SCHEMA_V1}\"}}\n\
                 {{\"id\":\"0x0000000000000007\",\"client\":\"0x0000000000000001\",\
                 \"op\":\"transpose\",\"matrix\":\"0x0000000000000002\",\"status\":\"ok\",\
                 \"degraded\":false,\"digest\":\"0x89abcdef01234567\"}}\n"
            ),
        )
        .unwrap();
        let (_, loaded) = ResultsLog::open(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(!loaded[0].corrupted);
        assert_eq!(loaded[0].digest, 0x89ab_cdef_0123_4567);

        // A sealed v2 log with one flipped content bit refuses to load.
        let path2 = dir.join("sealed.log");
        {
            let (mut log, _) = ResultsLog::open(&path2).unwrap();
            for r in &sample() {
                log.append(r).unwrap();
            }
        }
        let text = std::fs::read_to_string(&path2).unwrap();
        let rotten = text.replacen("\"degraded\":true", "\"degraded\":false", 1);
        assert_ne!(rotten, text);
        std::fs::write(&path2, rotten).unwrap();
        let err = ResultsLog::open(&path2).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_reload_round_trips() {
        let dir = std::env::temp_dir().join("stm-serve-log-roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("results.log");
        let records = sample();
        {
            let (mut log, loaded) = ResultsLog::open(&path).unwrap();
            assert!(loaded.is_empty());
            for r in &records {
                log.append(r).unwrap();
            }
        }
        let (_, loaded) = ResultsLog::open(&path).unwrap();
        assert_eq!(loaded, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_final_append_is_dropped_and_truncated() {
        let dir = std::env::temp_dir().join("stm-serve-log-torn");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("results.log");
        let records = sample();
        {
            let (mut log, _) = ResultsLog::open(&path).unwrap();
            for r in &records {
                log.append(r).unwrap();
            }
        }
        // Tear the final record mid-byte, as SIGKILL mid-append would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

        // Reopen: the intact prefix loads, the torn tail is gone, and a
        // fresh append lands on its own line.
        let (mut log, loaded) = ResultsLog::open(&path).unwrap();
        assert_eq!(loaded, records[..1]);
        let extra = ResultRecord {
            request_id: 9,
            ..records[0].clone()
        };
        log.append(&extra).unwrap();
        drop(log);
        let (_, reloaded) = ResultsLog::open(&path).unwrap();
        assert_eq!(reloaded, vec![records[0].clone(), extra]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_and_bit_flipped_records_are_typed_errors_or_torn_tails() {
        let header = journal::seal(&format!("{{\"schema\":\"{SCHEMA}\"}}")) + "\n";
        let rec = sample().remove(0);
        let line = journal::seal(&rec.canonical_line()) + "\n";
        let path = Path::new("results.log");
        let load = |tail: &[u8]| parse_log(&[header.as_bytes(), tail].concat(), path);
        assert_eq!(
            load(line.as_bytes()),
            Ok((vec![rec.clone()], header.len() + line.len()))
        );

        // A cut record is a torn tail: dropped, the header kept. Only the
        // cut that removes just the newline leaves a whole record.
        for n in 0..line.len() {
            let want = if n == line.len() - 1 {
                (vec![rec.clone()], header.len() + n)
            } else {
                (Vec::new(), header.len())
            };
            assert_eq!(load(&line.as_bytes()[..n]), Ok(want), "cut to {n} bytes");
        }
        // A flipped bit is refused, dropped as a torn tail, or (in the
        // seal's own spelling, e.g. a hex digit's case) harmless — it
        // never loads a different record.
        for bit in 0..line.len() * 8 {
            let mut flipped = line.clone().into_bytes();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok((records, _)) = load(&flipped) {
                assert!(
                    records.is_empty() || records == [rec.clone()],
                    "bit {bit}: {records:?}"
                );
            }
        }
    }

    #[test]
    fn mid_file_garbage_refuses_to_load() {
        let dir = std::env::temp_dir().join("stm-serve-log-garbage");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("results.log");
        {
            let (mut log, _) = ResultsLog::open(&path).unwrap();
            for r in &sample() {
                log.append(r).unwrap();
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let garbled = text.replacen("\"op\":\"transpose\"", "\"op\":", 1);
        std::fs::write(&path, garbled).unwrap();
        assert!(ResultsLog::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
