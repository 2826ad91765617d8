//! Checkpoint/resume for the soak pipeline.
//!
//! ## Schema: `stm-soak-checkpoint/v2`
//!
//! A checkpoint file is JSON lines with **byte-deterministic** layout —
//! fixed field order, no floats, one record per line, every line sealed
//! with a per-record checksum ([`stm_obs::journal::seal`]):
//!
//! ```text
//! {"schema":"stm-soak-checkpoint/v2","fingerprint":"0x…","crc":"0x…"}
//! {"index":0,"name":"...","status":"ok|degraded|failed|corrupted","slots":[...],"crc":"0x…"}
//! {"index":1, ...}
//! ```
//!
//! Each slot (one per primary kernel, fixed order) carries the breaker
//! decision, the primary outcome, attempt count, cycles, and — flattened
//! to keep the parser simple — the failure stage/error rendering, the
//! served canonical digest with the integrity-verification verdict, and
//! the fallback's result. Absent string fields serialize as `""`.
//!
//! `v1` files (no digest/verify fields, unsealed lines) still load:
//! absent integrity fields default to "not verified", and a line with no
//! seal is accepted as legacy. A line whose seal *fails* is detected
//! corruption and refuses to load — the `stmscrub` bin locates the
//! damage.
//!
//! Because the pipeline commits results strictly in input order, the
//! entries of a checkpoint always form the contiguous prefix `0..k` of
//! the suite; resume replays those `k` outcomes through the breaker
//! logic (rebuilding its exact state and pending-decision window) and
//! continues from item `k`. The `fingerprint` field binds a checkpoint
//! to the soak configuration that produced it — resuming under a
//! different suite, chaos spec, deadline, breaker or retry tuning is
//! refused rather than silently mixing incompatible runs.
//!
//! The **report digest** is FNV-1a over every entry's canonical line
//! (newline-terminated), so an interrupted-and-resumed soak reproducing
//! the uninterrupted digest proves the resumed half re-derived byte-for-
//! byte identical results.
//!
//! Writes are atomic (`<path>.tmp` + rename), so a kill mid-write leaves
//! the previous complete checkpoint in place.

use super::breaker::{Decision, Outcome};
use std::io::Write;
use std::path::Path;
use stm_obs::export::esc;
use stm_obs::journal;
use stm_obs::json::Json;
use stm_sparse::hash::Fnv1a;

/// Schema tag of the checkpoint header line.
pub const SCHEMA: &str = "stm-soak-checkpoint/v2";

/// The previous schema, still accepted by [`load`]: no per-slot
/// digest/verify fields, no record seals.
pub const SCHEMA_V1: &str = "stm-soak-checkpoint/v1";

/// Terminal status of one committed suite entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStatus {
    /// Every primary kernel ran and verified.
    Ok,
    /// At least one primary failed or was skipped, and every such slot
    /// was rescued by its verified fallback.
    Degraded,
    /// At least one slot failed beyond rescue.
    Failed,
    /// At least one slot's output was convicted by integrity
    /// verification — a silent data corruption was detected (and, when a
    /// majority leg or the fallback produced a clean result, recovered).
    /// Outranks the other statuses.
    Corrupted,
}

impl EntryStatus {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            EntryStatus::Ok => "ok",
            EntryStatus::Degraded => "degraded",
            EntryStatus::Failed => "failed",
            EntryStatus::Corrupted => "corrupted",
        }
    }

    /// Parses [`EntryStatus::name`] output.
    pub fn from_name(name: &str) -> Option<EntryStatus> {
        match name {
            "ok" => Some(EntryStatus::Ok),
            "degraded" => Some(EntryStatus::Degraded),
            "failed" => Some(EntryStatus::Failed),
            "corrupted" => Some(EntryStatus::Corrupted),
            _ => None,
        }
    }
}

/// Integrity-verification verdict of one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyRecord {
    /// The [`super::VerifyMode`] name the slot ran under.
    pub mode: String,
    /// Verification legs checked.
    pub legs: u64,
    /// Whether the primary's output was convicted.
    pub corrupted: bool,
    /// The leg adopted in the convicted primary's place (`""` when
    /// recovery came from the fallback or did not happen).
    pub recovered: String,
}

/// Result of the fallback kernel in one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackRecord {
    /// The fallback kernel that ran.
    pub kernel: String,
    /// Whether it completed and verified.
    pub ok: bool,
    /// Its cycle count when it succeeded (0 otherwise).
    pub cycles: u64,
    /// Its failure rendering when it did not.
    pub error: Option<String>,
}

/// One primary-kernel slot of a committed entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotRecord {
    /// The primary kernel name.
    pub kernel: String,
    /// The breaker's dispatch decision for this slot.
    pub decision: Decision,
    /// What the primary actually did.
    pub outcome: Outcome,
    /// Attempts the primary consumed (0 when skipped).
    pub attempts: u64,
    /// The primary's cycle count when it succeeded (0 otherwise).
    pub cycles: u64,
    /// Failure stage rendering (`"prepare"`/`"run"`/`"verify"`) when the
    /// primary failed.
    pub stage: Option<String>,
    /// Failure error rendering when the primary failed.
    pub error: Option<String>,
    /// Format-independent canonical digest of the result this slot
    /// *served* (0 when nothing was served, or the output had no
    /// canonical form). Serialized as a hex string — the JSON number
    /// path routes through `f64`, which cannot hold all 64 bits.
    pub digest: u64,
    /// The integrity-verification verdict, when verification ran.
    pub verify: Option<VerifyRecord>,
    /// The fallback's result, when one was attempted.
    pub fallback: Option<FallbackRecord>,
}

/// One committed suite entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryRecord {
    /// Position in the suite (entries always form the prefix `0..k`).
    pub index: u64,
    /// Matrix name.
    pub name: String,
    /// Terminal status.
    pub status: EntryStatus,
    /// Per-primary-kernel slots, in registry order.
    pub slots: Vec<SlotRecord>,
}

fn opt(s: &Option<String>) -> String {
    esc(s.as_deref().unwrap_or(""))
}

impl EntryRecord {
    /// The canonical (byte-deterministic) serialization of this entry —
    /// the unit both the checkpoint file and the report digest are built
    /// from.
    pub fn canonical_line(&self) -> String {
        let slots: Vec<String> = self
            .slots
            .iter()
            .map(|s| {
                let (fb_kernel, fb_outcome, fb_cycles, fb_error) = match &s.fallback {
                    None => (String::new(), "", 0, String::new()),
                    Some(f) => (
                        esc(&f.kernel),
                        if f.ok { "ok" } else { "failed" },
                        f.cycles,
                        opt(&f.error),
                    ),
                };
                let (v_mode, v_legs, v_corrupted, v_recovered) = match &s.verify {
                    None => (String::new(), 0, 0, String::new()),
                    Some(v) => (
                        esc(&v.mode),
                        v.legs,
                        u64::from(v.corrupted),
                        esc(&v.recovered),
                    ),
                };
                format!(
                    "{{\"kernel\":\"{}\",\"decision\":\"{}\",\"outcome\":\"{}\",\"attempts\":{},\"cycles\":{},\"stage\":\"{}\",\"error\":\"{}\",\"digest\":\"0x{:016x}\",\"verify\":\"{}\",\"verify_legs\":{},\"corrupted\":{},\"recovered\":\"{}\",\"fallback\":\"{}\",\"fallback_outcome\":\"{}\",\"fallback_cycles\":{},\"fallback_error\":\"{}\"}}",
                    esc(&s.kernel),
                    s.decision.name(),
                    s.outcome.name(),
                    s.attempts,
                    s.cycles,
                    opt(&s.stage),
                    opt(&s.error),
                    s.digest,
                    v_mode,
                    v_legs,
                    v_corrupted,
                    v_recovered,
                    fb_kernel,
                    fb_outcome,
                    fb_cycles,
                    fb_error,
                )
            })
            .collect();
        format!(
            "{{\"index\":{},\"name\":\"{}\",\"status\":\"{}\",\"slots\":[{}]}}",
            self.index,
            esc(&self.name),
            self.status.name(),
            slots.join(",")
        )
    }

    fn parse(json: &Json) -> Result<EntryRecord, String> {
        let str_field = |j: &Json, k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let u64_field = |j: &Json, k: &str| -> Result<u64, String> {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {k:?}"))
        };
        let non_empty = |s: String| if s.is_empty() { None } else { Some(s) };
        let mut slots = Vec::new();
        for s in json
            .get("slots")
            .and_then(Json::as_array)
            .ok_or("missing slots array")?
        {
            let decision = str_field(s, "decision")?;
            let decision = Decision::from_name(&decision)
                .ok_or_else(|| format!("bad decision {decision:?}"))?;
            let outcome = str_field(s, "outcome")?;
            let outcome =
                Outcome::from_name(&outcome).ok_or_else(|| format!("bad outcome {outcome:?}"))?;
            // Integrity fields arrived with schema v2 — default them
            // (digest 0, no verification) so v1 files still parse.
            let digest = match s.get("digest").and_then(Json::as_str) {
                None => 0,
                Some(hex) => hex
                    .strip_prefix("0x")
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad digest {hex:?}"))?,
            };
            let verify = match s.get("verify").and_then(Json::as_str) {
                None | Some("") => None,
                Some(mode) => Some(VerifyRecord {
                    mode: mode.to_string(),
                    legs: u64_field(s, "verify_legs")?,
                    corrupted: match u64_field(s, "corrupted")? {
                        0 => false,
                        1 => true,
                        other => return Err(format!("bad corrupted flag {other}")),
                    },
                    recovered: str_field(s, "recovered")?,
                }),
            };
            let fb_kernel = str_field(s, "fallback")?;
            let fallback = if fb_kernel.is_empty() {
                None
            } else {
                let fb_outcome = str_field(s, "fallback_outcome")?;
                Some(FallbackRecord {
                    kernel: fb_kernel,
                    ok: match fb_outcome.as_str() {
                        "ok" => true,
                        "failed" => false,
                        other => return Err(format!("bad fallback_outcome {other:?}")),
                    },
                    cycles: u64_field(s, "fallback_cycles")?,
                    error: non_empty(str_field(s, "fallback_error")?),
                })
            };
            slots.push(SlotRecord {
                kernel: str_field(s, "kernel")?,
                decision,
                outcome,
                attempts: u64_field(s, "attempts")?,
                cycles: u64_field(s, "cycles")?,
                stage: non_empty(str_field(s, "stage")?),
                error: non_empty(str_field(s, "error")?),
                digest,
                verify,
                fallback,
            });
        }
        let status = str_field(json, "status")?;
        Ok(EntryRecord {
            index: u64_field(json, "index")?,
            name: str_field(json, "name")?,
            status: EntryStatus::from_name(&status)
                .ok_or_else(|| format!("bad status {status:?}"))?,
            slots,
        })
    }
}

/// FNV-1a over every entry's canonical line (newline-terminated), in
/// order — the soak report digest.
pub fn digest(entries: &[EntryRecord]) -> u64 {
    let mut h = Fnv1a::new();
    for e in entries {
        h.bytes(e.canonical_line().as_bytes());
        h.byte(b'\n');
    }
    h.finish()
}

/// A loaded checkpoint: the configuration fingerprint it was written
/// under and the committed prefix of entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the soak configuration that wrote the file.
    pub fingerprint: u64,
    /// Committed entries — validated to be the contiguous prefix `0..k`.
    pub entries: Vec<EntryRecord>,
}

/// Atomically writes a checkpoint (`<path>.tmp` then rename). Every
/// line — header included — is sealed with a per-record checksum.
pub fn save(path: &Path, fingerprint: u64, entries: &[EntryRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        // Hex string, not a JSON number: the re-reader parses numbers
        // through f64, which cannot hold all 64 fingerprint bits.
        writeln!(
            f,
            "{}",
            journal::seal(&format!(
                "{{\"schema\":\"{SCHEMA}\",\"fingerprint\":\"0x{fingerprint:016x}\"}}"
            ))
        )?;
        for e in entries {
            writeln!(f, "{}", journal::seal(&e.canonical_line()))?;
        }
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Loads and validates a checkpoint file.
///
/// Checkpoint writes are atomic (tmp + rename), but the same schema is
/// also written append-only by consumers that flush line by line (the
/// `stm-serve` results log follows the pattern) — and a `kill -9` can
/// land mid-write, truncating the **final** line. A final line that
/// fails its seal or parse *and* is not newline-terminated is therefore
/// a torn record from an interrupted write: it is skipped with a
/// warning on stderr, and the intact prefix loads normally
/// ([`stm_obs::journal::read_journal`] is the shared reader). A bad
/// seal or malformed line anywhere else is corruption and errors.
/// Unsealed `v1` files load as legacy.
pub fn load(path: &Path) -> Result<Checkpoint, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    if text.is_empty() {
        return Err("empty checkpoint file".to_string());
    }
    let mut fingerprint: Option<u64> = None;
    let read = journal::read_journal(&text, |index, body| {
        let json = Json::parse(body).map_err(|e| e.to_string())?;
        if index == 0 {
            let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
            if schema != SCHEMA && schema != SCHEMA_V1 {
                return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
            }
            fingerprint = Some(
                json.get("fingerprint")
                    .and_then(Json::as_str)
                    .and_then(|s| s.strip_prefix("0x"))
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or("header missing fingerprint")?,
            );
            return Ok(None);
        }
        EntryRecord::parse(&json)
            .map(Some)
            .map_err(|e| format!("entry {}: {e}", index - 1))
    })
    .map_err(|e| format!("checkpoint {path:?}: {e}"))?;
    if let Some(torn) = &read.torn {
        eprintln!(
            "warning: checkpoint {path:?}: skipping torn final line \
             (truncated mid-write record): {torn}"
        );
    }
    let entries = read.records;
    for (i, entry) in entries.iter().enumerate() {
        if entry.index != i as u64 {
            return Err(format!(
                "entry {i} has index {} — checkpoint is not a contiguous prefix",
                entry.index
            ));
        }
    }
    Ok(Checkpoint {
        fingerprint: fingerprint.ok_or("empty checkpoint file")?,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<EntryRecord> {
        vec![
            EntryRecord {
                index: 0,
                name: "tri64".into(),
                status: EntryStatus::Ok,
                slots: vec![SlotRecord {
                    kernel: "transpose_hism".into(),
                    decision: Decision::Run,
                    outcome: Outcome::Success,
                    attempts: 1,
                    cycles: 1234,
                    stage: None,
                    error: None,
                    digest: 0xdead_beef_0bad_f00d,
                    verify: Some(VerifyRecord {
                        mode: "vote".into(),
                        legs: 2,
                        corrupted: false,
                        recovered: String::new(),
                    }),
                    fallback: None,
                }],
            },
            EntryRecord {
                index: 1,
                name: "weird \"name\"".into(),
                status: EntryStatus::Degraded,
                slots: vec![SlotRecord {
                    kernel: "transpose_hism".into(),
                    decision: Decision::Probe,
                    outcome: Outcome::Failure,
                    attempts: 2,
                    cycles: 0,
                    stage: Some("run".into()),
                    error: Some("corrupt: bad\nimage".into()),
                    digest: 0,
                    verify: None,
                    fallback: Some(FallbackRecord {
                        kernel: "transpose_ref".into(),
                        ok: true,
                        cycles: 999,
                        error: None,
                    }),
                }],
            },
            EntryRecord {
                index: 2,
                name: "sdc-hit".into(),
                status: EntryStatus::Corrupted,
                slots: vec![SlotRecord {
                    kernel: "transpose_hism".into(),
                    decision: Decision::Run,
                    outcome: Outcome::Failure,
                    attempts: 1,
                    cycles: 777,
                    stage: None,
                    error: None,
                    digest: 0x1111_2222_3333_4444,
                    verify: Some(VerifyRecord {
                        mode: "vote".into(),
                        legs: 2,
                        corrupted: true,
                        recovered: "scalar".into(),
                    }),
                    fallback: None,
                }],
            },
        ]
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let dir = std::env::temp_dir().join("stm-ckpt-roundtrip");
        let path = dir.join("soak.ckpt");
        let entries = sample_entries();
        save(&path, 77, &entries).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.fingerprint, 77);
        assert_eq!(loaded.entries, entries);
        // Re-saving the loaded entries reproduces the file byte for byte.
        let first = std::fs::read(&path).unwrap();
        save(&path, 77, &loaded.entries).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let entries = sample_entries();
        let d = digest(&entries);
        assert_eq!(d, digest(&entries));
        let mut reordered = entries.clone();
        reordered.swap(0, 1);
        assert_ne!(d, digest(&reordered));
        let mut tweaked = entries.clone();
        tweaked[0].slots[0].cycles += 1;
        assert_ne!(d, digest(&tweaked));
        assert_ne!(digest(&entries[..1]), d);
    }

    #[test]
    fn load_rejects_bad_schema_and_gaps() {
        let dir = std::env::temp_dir().join("stm-ckpt-reject");
        std::fs::create_dir_all(&dir).unwrap();
        let bad_schema = dir.join("schema.ckpt");
        std::fs::write(&bad_schema, "{\"schema\":\"nope/v0\",\"fingerprint\":1}\n").unwrap();
        assert!(load(&bad_schema)
            .unwrap_err()
            .contains("unsupported schema"));

        let gap = dir.join("gap.ckpt");
        let mut entries = sample_entries();
        entries[1].index = 5;
        let text = format!(
            "{{\"schema\":\"{SCHEMA}\",\"fingerprint\":\"0x0000000000000001\"}}\n{}\n{}\n",
            entries[0].canonical_line(),
            entries[1].canonical_line()
        );
        std::fs::write(&gap, text).unwrap();
        assert!(load(&gap).unwrap_err().contains("contiguous"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_final_line_is_skipped_with_the_prefix_intact() {
        let dir = std::env::temp_dir().join("stm-ckpt-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let entries = sample_entries();
        let full = dir.join("full.ckpt");
        save(&full, 9, &entries).unwrap();
        let bytes = std::fs::read(&full).unwrap();

        // Truncate mid-way through the final record, as a kill -9 during
        // an append-style write would: every cut point that leaves a
        // non-empty partial line must load the intact one-entry prefix.
        let last_line_start = {
            let without_nl = &bytes[..bytes.len() - 1];
            without_nl.iter().rposition(|&b| b == b'\n').unwrap() + 1
        };
        for cut in [last_line_start + 1, last_line_start + 10, bytes.len() - 2] {
            let torn = dir.join("torn.ckpt");
            std::fs::write(&torn, &bytes[..cut]).unwrap();
            let loaded = load(&torn).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(loaded.fingerprint, 9);
            assert_eq!(loaded.entries, entries[..entries.len() - 1], "cut at {cut}");
        }

        // Losing only the trailing newline leaves a complete final
        // record: it parses, so nothing is skipped.
        let whole = dir.join("no-newline.ckpt");
        std::fs::write(&whole, &bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(load(&whole).unwrap().entries, entries);

        // A newline-terminated garbage line is corruption, not a torn
        // write — it must still refuse.
        let bad = dir.join("bad.ckpt");
        let mut garbled = bytes[..last_line_start + 10].to_vec();
        garbled.push(b'\n');
        std::fs::write(&bad, &garbled).unwrap();
        assert!(load(&bad).is_err(), "complete garbage line must error");

        // And a garbage line in the *middle* errors even without a
        // trailing newline on the file.
        let mid = dir.join("mid.ckpt");
        let mut text = String::from_utf8(bytes.clone()).unwrap();
        text = text.replacen("\"status\":\"ok\"", "\"status\":", 1);
        std::fs::write(&mid, text.trim_end_matches('\n')).unwrap();
        assert!(load(&mid).is_err(), "torn tolerance is final-line only");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_names_round_trip() {
        for s in [
            EntryStatus::Ok,
            EntryStatus::Degraded,
            EntryStatus::Failed,
            EntryStatus::Corrupted,
        ] {
            assert_eq!(EntryStatus::from_name(s.name()), Some(s));
        }
        assert_eq!(EntryStatus::from_name("meh"), None);
    }

    #[test]
    fn v1_files_load_with_defaulted_integrity_fields() {
        let dir = std::env::temp_dir().join("stm-ckpt-v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.ckpt");
        // A v1 file: v1 schema tag, no digest/verify fields, no seals.
        let text = format!(
            "{{\"schema\":\"{SCHEMA_V1}\",\"fingerprint\":\"0x000000000000002a\"}}\n\
             {{\"index\":0,\"name\":\"tri64\",\"status\":\"ok\",\"slots\":[\
             {{\"kernel\":\"transpose_hism\",\"decision\":\"run\",\"outcome\":\"success\",\
             \"attempts\":1,\"cycles\":1234,\"stage\":\"\",\"error\":\"\",\"fallback\":\"\",\
             \"fallback_outcome\":\"\",\"fallback_cycles\":0,\"fallback_error\":\"\"}}]}}\n"
        );
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.fingerprint, 42);
        assert_eq!(loaded.entries.len(), 1);
        let slot = &loaded.entries[0].slots[0];
        assert_eq!(slot.digest, 0);
        assert_eq!(slot.verify, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_bit_in_a_sealed_checkpoint_refuses_to_load() {
        let dir = std::env::temp_dir().join("stm-ckpt-sealed");
        let path = dir.join("soak.ckpt");
        save(&path, 7, &sample_entries()).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        assert!(good.lines().all(|l| l.contains("\"crc\":\"0x")));
        // Corrupt one digit of a mid-file record's cycle count: the line
        // still parses as valid JSON, but its seal convicts it.
        let rotten = good.replacen("\"cycles\":1234", "\"cycles\":1235", 1);
        assert_ne!(rotten, good);
        std::fs::write(&path, rotten).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
