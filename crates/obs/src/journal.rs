//! Durable-file journal plumbing shared by every line-oriented on-disk
//! artifact in the workspace: the soak checkpoint, the serve results
//! log, and flight-recorder dumps.
//!
//! All three formats follow the same discipline — byte-deterministic
//! JSON lines, a header line first, appended (or atomically replaced)
//! whole lines — and all three face the same two failure modes:
//!
//! * **torn tail** — a `kill -9` mid-append truncates the *final* line.
//!   Recoverable: the intact prefix is valid, the partial line is
//!   dropped.
//! * **silent corruption** — a flipped bit at rest (or a buggy writer)
//!   leaves a line that still parses, or garbage mid-file. Not
//!   recoverable; must be *detected*, never silently read back.
//!
//! This module gives each consumer one shared answer to both:
//!
//! * [`seal`] / [`unseal`] — append/strip a per-record FNV-1a checksum
//!   (`"crc"`) as the final field of a JSON object line. Parsers that
//!   ignore unknown fields read sealed lines unchanged, so sealing is
//!   backward compatible; [`read_journal`] verifies seals when present
//!   and accepts unsealed (legacy) lines.
//! * [`read_journal`] — the one torn-tail-tolerant line reader: a final
//!   line that is not newline-terminated and fails its seal or parse is
//!   a torn record (dropped, with the byte length of the intact prefix
//!   reported for truncating repair); the same failure anywhere else is
//!   corruption and errors.
//! * [`scrub_text`] / [`scrub_file`] — format-agnostic verification of
//!   any such file (every line parses as JSON, every seal checks out),
//!   the engine of the `stmscrub` bin.

use std::path::Path;

use crate::json::Json;
use stm_sparse::hash::fnv1a;

/// Seals one JSON-object line: appends `"crc":"0x<16 hex>"` (FNV-1a over
/// the *unsealed* bytes) as the final field, before the closing brace.
///
/// The seal is an ordinary JSON field, so existing parsers that ignore
/// unknown keys read sealed lines unchanged. Writers must not emit a
/// trailing field literally named `crc` themselves — [`unseal`] claims
/// that suffix. Lines that are not JSON objects are returned unchanged.
pub fn seal(line: &str) -> String {
    let body = line.trim_end_matches(['\n', '\r']);
    if !body.starts_with('{') || !body.ends_with('}') {
        return line.to_string();
    }
    let crc = fnv1a(body.as_bytes());
    let head = &body[..body.len() - 1];
    let sep = if head == "{" { "" } else { "," }; // empty object: no comma
    format!("{head}{sep}\"crc\":\"0x{crc:016x}\"}}")
}

/// Verdict of [`unseal`] on one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seal {
    /// No trailing `"crc"` field — an unsealed (legacy) line.
    Absent,
    /// A trailing `"crc"` field was found and stripped.
    Sealed {
        /// Whether `stored == computed`.
        ok: bool,
        /// The checksum the line carried.
        stored: u64,
        /// FNV-1a recomputed over the unsealed bytes.
        computed: u64,
    },
}

impl Seal {
    /// True unless this is a seal that failed verification.
    pub fn is_ok(self) -> bool {
        !matches!(self, Seal::Sealed { ok: false, .. })
    }
}

/// Splits a line into its unsealed body and the seal verdict.
///
/// Only an exactly-shaped trailing `,"crc":"0x<16 hex>"}` (or the
/// whole-object `{"crc":…}` form) counts as a seal; because the
/// canonical writers escape `"` and `\` inside strings, record content
/// can never fake that suffix.
pub fn unseal(line: &str) -> (String, Seal) {
    let body = line.trim_end_matches(['\n', '\r']);
    // ,"crc":"0x<16 hex>"}  →  10 + 16 + 2 bytes.
    let tail_len = 10 + 16 + 2;
    // A cut inside a multi-byte character cannot start the ASCII seal.
    let stored = body
        .len()
        .checked_sub(tail_len)
        .filter(|&cut| body.is_char_boundary(cut))
        .map(|cut| (&body[..cut], &body[cut..]))
        .and_then(|(head, tail)| {
            let hex = tail
                .strip_prefix(",\"crc\":\"0x")
                .or_else(|| {
                    // Whole-object form: {"crc":"0x…"} with no comma.
                    (head.is_empty() || head == "{")
                        .then(|| tail.strip_prefix("{\"crc\":\"0x"))
                        .flatten()
                })?
                .strip_suffix("\"}")?;
            let stored = u64::from_str_radix(hex, 16).ok()?;
            Some((head.to_string(), stored))
        });
    match stored {
        None => (body.to_string(), Seal::Absent),
        Some((head, stored)) => {
            let unsealed = if head.is_empty() || head == "{" {
                "{}".to_string()
            } else {
                format!("{head}}}")
            };
            let computed = fnv1a(unsealed.as_bytes());
            (
                unsealed,
                Seal::Sealed {
                    ok: stored == computed,
                    stored,
                    computed,
                },
            )
        }
    }
}

/// Result of [`read_journal`] over one file's text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRead<T> {
    /// Successfully parsed records, in file order (the header line is
    /// whatever the parse callback made of index 0).
    pub records: Vec<T>,
    /// Count of non-blank lines consumed (including ones the callback
    /// mapped to `None`, excluding a dropped torn tail).
    pub lines: usize,
    /// Byte length of the intact prefix — the whole text unless a torn
    /// tail was dropped, in which case truncating the file to this
    /// length removes the partial record.
    pub keep_len: u64,
    /// Why the final line was dropped, when it was.
    pub torn: Option<String>,
}

/// Reads a line journal with seal verification and torn-tail tolerance.
///
/// `parse` is called once per non-blank line with `(index, unsealed
/// body)` — index 0 is the header — and returns `Ok(Some(record))`,
/// `Ok(None)` to consume a line without producing a record (headers),
/// or `Err(reason)`.
///
/// A line whose seal fails verification, or whose parse errors, is
/// corruption — **unless** it is the final line of a text that does not
/// end in `\n` and is not the header: that is a torn record from an
/// interrupted append, dropped with the intact prefix returned. A torn
/// header is unrecoverable (there is no intact prefix to keep).
pub fn read_journal<T>(
    text: &str,
    mut parse: impl FnMut(usize, &str) -> Result<Option<T>, String>,
) -> Result<JournalRead<T>, String> {
    let complete = text.is_empty() || text.ends_with('\n');
    let mut out = JournalRead {
        records: Vec::new(),
        lines: 0,
        keep_len: text.len() as u64,
        torn: None,
    };
    let mut offset = 0usize;
    let mut lines = text.split_inclusive('\n').peekable();
    while let Some(raw) = lines.next() {
        let start = offset;
        offset += raw.len();
        let line = raw.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        let index = out.lines;
        let last = lines.peek().is_none();
        let (body, seal) = unseal(line);
        let verdict = match seal {
            Seal::Sealed {
                ok: false,
                stored,
                computed,
            } => Err(format!(
                "record checksum mismatch (stored 0x{stored:016x}, computed 0x{computed:016x})"
            )),
            _ => parse(index, &body),
        };
        match verdict {
            Ok(Some(rec)) => out.records.push(rec),
            Ok(None) => {}
            Err(e) if last && !complete && index > 0 => {
                out.torn = Some(format!("line {index}: {e}"));
                out.keep_len = start as u64;
                return Ok(out);
            }
            Err(e) => return Err(format!("line {index}: {e}")),
        }
        out.lines += 1;
    }
    Ok(out)
}

/// One bad line found by a scrub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// Zero-based non-blank line index.
    pub line: usize,
    /// What failed (seal mismatch or JSON parse error).
    pub reason: String,
}

/// Result of scrubbing one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Non-blank lines inspected (torn tail excluded).
    pub lines: usize,
    /// How many of them carried a verified seal.
    pub sealed: usize,
    /// Corrupt lines — non-empty means the file failed the scrub.
    pub bad: Vec<ScrubFinding>,
    /// Torn-tail description, when the final unterminated line failed.
    pub torn: Option<String>,
    /// Byte length of the intact prefix (truncate to this to repair a
    /// torn tail; corruption in `bad` is *not* repaired by truncation).
    pub keep_len: u64,
}

impl ScrubReport {
    /// True when every line checked out (a dropped torn tail is still
    /// clean — it is expected damage with a defined repair).
    pub fn is_clean(&self) -> bool {
        self.bad.is_empty()
    }
}

/// Format-agnostic scrub of journal text: every non-blank line must
/// parse as JSON and any seal it carries must verify. Unlike
/// [`read_journal`] this never hard-errors on a corrupt line — it keeps
/// walking and reports them all.
pub fn scrub_text(text: &str) -> ScrubReport {
    let complete = text.is_empty() || text.ends_with('\n');
    let mut report = ScrubReport {
        lines: 0,
        sealed: 0,
        bad: Vec::new(),
        torn: None,
        keep_len: text.len() as u64,
    };
    let mut offset = 0usize;
    let mut lines = text.split_inclusive('\n').peekable();
    while let Some(raw) = lines.next() {
        let start = offset;
        offset += raw.len();
        let line = raw.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        let last = lines.peek().is_none();
        let (body, seal) = unseal(line);
        let failure = match seal {
            Seal::Sealed {
                ok: false,
                stored,
                computed,
            } => Some(format!(
                "record checksum mismatch (stored 0x{stored:016x}, computed 0x{computed:016x})"
            )),
            s => {
                if matches!(s, Seal::Sealed { .. }) {
                    report.sealed += 1;
                }
                Json::parse(&body).err().map(|e| format!("bad JSON: {e}"))
            }
        };
        match failure {
            None => report.lines += 1,
            Some(reason) if last && !complete && report.lines > 0 => {
                report.torn = Some(reason);
                report.keep_len = start as u64;
            }
            Some(reason) => {
                report.bad.push(ScrubFinding {
                    line: report.lines,
                    reason,
                });
                report.lines += 1;
            }
        }
    }
    report
}

/// Scrubs one file on disk; with `truncate`, repairs a torn tail by
/// truncating to the intact prefix (corrupt interior lines are never
/// repaired — they are evidence).
pub fn scrub_file(path: &Path, truncate: bool) -> Result<ScrubReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let report = scrub_text(&text);
    if truncate && report.torn.is_some() {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("open {path:?} for repair: {e}"))?;
        f.set_len(report.keep_len)
            .map_err(|e| format!("truncate {path:?}: {e}"))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_unseal_round_trips() {
        for line in [
            "{\"a\":1,\"b\":\"x\"}",
            "{}",
            "{\"msg\":\"quote \\\" and backslash \\\\\"}",
        ] {
            let sealed = seal(line);
            assert_ne!(sealed, line);
            let (body, verdict) = unseal(&sealed);
            assert_eq!(body, line);
            assert!(matches!(verdict, Seal::Sealed { ok: true, .. }), "{line}");
            // An unsealed line comes back untouched.
            let (body, verdict) = unseal(line);
            assert_eq!(body, line);
            assert_eq!(verdict, Seal::Absent);
        }
    }

    #[test]
    fn a_seal_sized_tail_that_starts_mid_character_is_no_seal() {
        // 28 two-byte characters and a closing brace: the seal-sized
        // tail would start in the middle of a character.
        let line = format!("{}}}", "é".repeat(28));
        assert_eq!(unseal(&line), (line.clone(), Seal::Absent));
        let read = read_journal(&format!("{{}}\n{line}\n"), |_, _| Ok(Some(())));
        assert_eq!(read.map(|r| r.records.len()), Ok(2));
    }

    #[test]
    fn every_single_bit_flip_of_a_sealed_line_is_caught() {
        let body = "{\"index\":3,\"name\":\"tri64\",\"cycles\":1234}";
        let sealed = seal(body);
        let bytes = sealed.as_bytes();
        let content_len = sealed.len() - (10 + 16 + 2);
        for site in 0..bytes.len() {
            for bit in 0..7 {
                // stay in ASCII so the line remains valid UTF-8
                let mut t = bytes.to_vec();
                t[site] ^= 1 << bit;
                let Ok(s) = String::from_utf8(t) else {
                    continue;
                };
                let (got, verdict) = unseal(&s);
                if site < content_len {
                    // A flipped *content* byte must fail the checksum.
                    assert_eq!(
                        verdict,
                        Seal::Sealed {
                            ok: false,
                            stored: fnv1a(body.as_bytes()),
                            computed: fnv1a(got.as_bytes()),
                        },
                        "flip bit {bit} of content byte {site} slipped through"
                    );
                } else {
                    // A flip inside the seal suffix can only damage the
                    // seal — mismatch, or a no-longer-recognized crc
                    // field. Either way the record *content* is intact:
                    // a verdict of Ok must come with the original body
                    // (hex case changes keep the same stored value).
                    if verdict.is_ok() && verdict != Seal::Absent {
                        assert_eq!(got, body, "flip bit {bit} of byte {site}");
                    }
                }
            }
        }
    }

    #[test]
    fn read_journal_handles_empty_torn_and_corrupt() {
        let parse = |_: usize, body: &str| {
            Json::parse(body)
                .map_err(|e| e.to_string())
                .map(|j| j.get("v").and_then(Json::as_u64))
        };
        // Empty file: no records, no error.
        let r = read_journal("", parse).unwrap();
        assert_eq!((r.records.len(), r.lines, r.keep_len), (0, 0, 0));

        // Sealed lines read back; header (no "v") yields no record.
        let text = format!(
            "{}\n{}\n{}\n",
            seal("{\"schema\":\"t/v1\"}"),
            seal("{\"v\":1}"),
            seal("{\"v\":2}")
        );
        let r = read_journal(&text, parse).unwrap();
        assert_eq!(r.records, [1, 2]);
        assert_eq!(r.lines, 3);
        assert_eq!(r.keep_len, text.len() as u64);
        assert!(r.torn.is_none());

        // Torn tail: final line unterminated and unparseable → dropped,
        // keep_len marks the intact prefix.
        let torn = format!("{text}{{\"v\":3");
        let r = read_journal(&torn, parse).unwrap();
        assert_eq!(r.records, [1, 2]);
        assert_eq!(r.keep_len, text.len() as u64);
        assert!(r.torn.is_some());

        // A checksum-bad record mid-file is corruption, not a torn tail.
        let mut sealed = seal("{\"v\":9}");
        sealed = sealed.replace("\"v\":9", "\"v\":8");
        let bad = format!(
            "{}\n{sealed}\n{}\n",
            seal("{\"schema\":\"t/v1\"}"),
            seal("{\"v\":2}")
        );
        let err = read_journal(&bad, parse).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // …and a checksum-bad *final* record that is newline-terminated
        // is also corruption (the append completed; the bytes rotted).
        let bad_tail = format!("{}\n{sealed}\n", seal("{\"schema\":\"t/v1\"}"));
        assert!(read_journal(&bad_tail, parse).is_err());

        // But unterminated, it is indistinguishable from a torn append
        // and is dropped.
        let torn_tail = format!("{}\n{sealed}", seal("{\"schema\":\"t/v1\"}"));
        let r = read_journal(&torn_tail, parse).unwrap();
        assert!(r.torn.is_some());

        // A torn *header* is unrecoverable.
        assert!(read_journal("{\"schema\":", parse).is_err());
    }

    #[test]
    fn scrub_flags_corruption_and_repairs_torn_tails() {
        let dir = std::env::temp_dir().join("stm-journal-scrub");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");

        let good = format!("{}\n{}\n", seal("{\"a\":1}"), seal("{\"a\":2}"));
        std::fs::write(&path, &good).unwrap();
        let r = scrub_file(&path, false).unwrap();
        assert!(r.is_clean() && r.sealed == 2 && r.lines == 2);

        // Flip one content bit: scrub reports the line, keeps walking.
        let rotten = good.replacen("\"a\":1", "\"a\":5", 1);
        std::fs::write(&path, &rotten).unwrap();
        let r = scrub_file(&path, false).unwrap();
        assert_eq!(r.bad.len(), 1);
        assert_eq!(r.bad[0].line, 0);
        assert!(r.bad[0].reason.contains("checksum"));

        // Torn tail with --truncate repairs the file in place.
        let torn = format!("{good}{{\"a\":3");
        std::fs::write(&path, &torn).unwrap();
        let r = scrub_file(&path, true).unwrap();
        assert!(r.is_clean() && r.torn.is_some());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
        let again = scrub_file(&path, false).unwrap();
        assert!(again.is_clean() && again.torn.is_none());

        // Unsealed legacy lines scrub clean as plain JSON.
        std::fs::write(&path, "{\"legacy\":true}\n").unwrap();
        let r = scrub_file(&path, false).unwrap();
        assert!(r.is_clean() && r.sealed == 0 && r.lines == 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
