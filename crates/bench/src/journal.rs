//! The journaled result manifest: an append-only on-disk record of
//! completed evaluation cells, so an interrupted sweep resumes instead
//! of recomputing.
//!
//! Each line of `journal-v1.jsonl` is one JSON object recording a
//! completed cell: its key (command, benchmark, variant, scale, seed,
//! flush mode, config hash — everything that determines the result),
//! an `attempt` field (always 1: a cell runs once, since a failing
//! cell would fail the same way again; the field stays so every
//! journal-v1 file keeps verifying), an `ok`/`failed` status, the
//! serialized result payload, and a [`hash64`] checksum over all of the
//! above. On `--resume` the journal is replayed: lines whose checksum
//! verifies are served without recomputation, while truncated, torn,
//! or bit-flipped lines surface as typed [`JournalError`]s and their
//! cells recompute — corruption is *never* silently reused. Because
//! every cell is a pure function of its key, a replayed result is
//! byte-identical to a recomputed one, which is what makes
//! interrupted-then-resumed stdout equal to an uninterrupted run's.
//!
//! Appends happen from worker threads in completion order (the file
//! order is scheduling-dependent); determinism lives entirely in the
//! *report*, which is assembled from results in input order. Each line
//! is a single `write_all` on an append-mode handle, so a killed
//! process leaves at most one torn final line — exactly the case the
//! checksum catches.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use spp_pmem::hash64;

use crate::json::{parse, Value};
use crate::schema::JOURNAL;

/// The conventional journal location (relative to the working
/// directory); `repro --journal` accepts any path.
pub const DEFAULT_JOURNAL_PATH: &str = ".specpersist/journal-v1.jsonl";

/// Why a journal (or one of its entries) could not be used. Every
/// variant renders as one line; none is ever silently ignored — the
/// affected cell recomputes and the error is reported.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JournalError {
    /// The journal file could not be created, read, or appended to.
    Io {
        /// The journal path.
        path: String,
        /// The operating-system error.
        detail: String,
    },
    /// A line is not a parseable JSON object (torn write, truncation,
    /// or structural bit damage).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What the parser rejected.
        detail: String,
    },
    /// A line parsed but does not carry the `specpersist/journal-v1`
    /// schema (wrong file, or a damaged schema field).
    BadSchema {
        /// 1-based line number.
        line: usize,
        /// The schema string found (empty if absent).
        found: String,
    },
    /// A line parsed but its checksum does not match its content: the
    /// entry is corrupt and must not be reused.
    HashMismatch {
        /// 1-based line number.
        line: usize,
        /// The entry's cell key.
        key: String,
    },
    /// An entry verified but its payload no longer decodes to the
    /// expected result shape (schema drift or payload damage that
    /// preserved the checksummed bytes' syntax but not their meaning).
    BadPayload {
        /// The entry's cell key.
        key: String,
        /// What the decoder rejected.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, detail } => write!(f, "journal {path:?}: {detail}"),
            JournalError::Malformed { line, detail } => {
                write!(f, "journal line {line}: malformed entry ({detail})")
            }
            JournalError::BadSchema { line, found } => {
                write!(
                    f,
                    "journal line {line}: schema {found:?} is not {JOURNAL:?}"
                )
            }
            JournalError::HashMismatch { line, key } => {
                write!(f, "journal line {line}: checksum mismatch for cell {key:?}")
            }
            JournalError::BadPayload { key, detail } => {
                write!(
                    f,
                    "journal cell {key:?}: payload does not decode ({detail})"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Did the cell produce a result or fail?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell completed; the payload is its serialized result.
    Ok,
    /// The cell panicked or returned a typed error; the payload is its
    /// failure record (reason + diagnostic snapshot).
    Failed,
}

impl CellStatus {
    fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(CellStatus::Ok),
            "failed" => Some(CellStatus::Failed),
            _ => None,
        }
    }
}

/// One verified journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The cell key (command + everything determining the result).
    pub key: String,
    /// The attempt number that produced this record (1-based; the
    /// supervisor always writes 1, and older journals may hold more).
    pub attempt: u32,
    /// Completed or failed.
    pub status: CellStatus,
    /// The serialized result (or failure record).
    pub payload: String,
}

impl Entry {
    /// The checksum preimage: every field the entry's meaning depends
    /// on, joined unambiguously (lengths prefix the variable parts so
    /// no concatenation of different fields collides).
    fn checksum(&self) -> u64 {
        let pre = format!(
            "{}\n{}:{}\n{}\n{}:{}",
            self.key.len(),
            self.key,
            self.attempt,
            self.status.as_str(),
            self.payload.len(),
            self.payload
        );
        hash64(pre.as_bytes())
    }

    /// The entry as one journal line (newline-terminated).
    fn render(&self) -> String {
        let mut line = crate::schema::emit(JOURNAL, |o| {
            o.str("key", &self.key)
                .int("attempt", self.attempt.into())
                .str("status", self.status.as_str())
                .str("hash", &format!("{:016x}", self.checksum()))
                .str("payload", &self.payload);
        });
        line.push('\n');
        line
    }

    /// Parses and verifies one journal line.
    fn from_line(line_no: usize, line: &str) -> Result<Entry, JournalError> {
        let v = parse(line).map_err(|e| JournalError::Malformed {
            line: line_no,
            detail: e.to_string(),
        })?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != JOURNAL {
            return Err(JournalError::BadSchema {
                line: line_no,
                found: schema.to_string(),
            });
        }
        let field = |name: &'static str| {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(JournalError::Malformed {
                    line: line_no,
                    detail: "missing field".to_string(),
                })
        };
        let key = field("key")?;
        let status_s = field("status")?;
        let hash_s = field("hash")?;
        let payload = field("payload")?;
        let attempt = v
            .get("attempt")
            .and_then(Value::as_u64)
            .filter(|&a| a >= 1 && a <= u64::from(u32::MAX))
            .ok_or(JournalError::Malformed {
                line: line_no,
                detail: "bad attempt".to_string(),
            })? as u32;
        let status = CellStatus::parse(&status_s).ok_or(JournalError::Malformed {
            line: line_no,
            detail: "bad status".to_string(),
        })?;
        let entry = Entry {
            key,
            attempt,
            status,
            payload,
        };
        let want = u64::from_str_radix(&hash_s, 16).map_err(|_| JournalError::Malformed {
            line: line_no,
            detail: "bad hash".to_string(),
        })?;
        if want != entry.checksum() {
            return Err(JournalError::HashMismatch {
                line: line_no,
                key: entry.key,
            });
        }
        Ok(entry)
    }
}

/// Splits a physical line that failed to verify at every embedded
/// record-start marker. In a well-formed line the marker cannot occur
/// past position 0 — the payload is a JSON-escaped string, so its
/// quotes are `\"` and never spell the raw marker — which makes any
/// interior occurrence evidence of a swallowed separator newline. A
/// coincidental marker inside already-damaged bytes merely produces
/// fragments that fail verification and report, never a false replay:
/// each fragment must still parse and checksum on its own.
fn split_merged(line: &str) -> Vec<&str> {
    const MARKER: &[u8] = b"{\"schema\":";
    let bytes = line.as_bytes();
    let mut starts = vec![0usize];
    let mut i = 1;
    while i + MARKER.len() <= bytes.len() {
        if &bytes[i..i + MARKER.len()] == MARKER {
            starts.push(i);
            i += MARKER.len();
        } else {
            i += 1;
        }
    }
    starts.push(bytes.len());
    // Every boundary sits on an ASCII `{`, so the slices are UTF-8 safe.
    starts.windows(2).map(|w| &line[w[0]..w[1]]).collect()
}

/// What `Journal::open` found on disk.
#[derive(Debug, Default)]
struct Loaded {
    /// Verified entries by key; the *last* valid record for a key wins
    /// (a resumed run may legitimately re-record a recomputed cell).
    entries: HashMap<String, Entry>,
    /// Every rejected line, in file order.
    corrupt: Vec<JournalError>,
}

/// An open journal: the verified entries loaded at open plus an
/// append handle for newly completed cells. Thread-safe — workers
/// append concurrently; lookups only touch the immutable loaded set.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    loaded: Loaded,
    /// Errors observed after open: payload decode failures reported by
    /// the supervisor, and appends that failed to reach the file.
    late_errors: Mutex<Vec<JournalError>>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, loading and
    /// verifying every existing line. Corrupt lines are collected —
    /// see [`Journal::corrupt`] — never silently dropped, and their
    /// cells will recompute.
    pub fn open(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let io_err = |e: std::io::Error| JournalError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(io_err)?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        let mut text = String::new();
        // Invalid UTF-8 (bit rot in the middle of a multi-byte
        // sequence) reads as an I/O error; fall back to a lossy read so
        // the damage localizes to its line instead of poisoning the
        // whole journal.
        if file.read_to_string(&mut text).is_err() {
            let mut raw = Vec::new();
            let mut f2 = File::open(&path).map_err(io_err)?;
            f2.read_to_end(&mut raw).map_err(io_err)?;
            text = String::from_utf8_lossy(&raw).into_owned();
        }
        let mut loaded = Loaded::default();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            match Entry::from_line(i + 1, line) {
                Ok(e) => {
                    loaded.entries.insert(e.key.clone(), e);
                }
                Err(first) => {
                    // A destroyed separator newline merges neighbouring
                    // records into one physical line, and a single parse
                    // of the merged bytes would report only the first of
                    // them. Split at embedded record-start markers and
                    // verify each fragment independently, so every
                    // damaged record surfaces its own error and an
                    // intact record whose bytes still checksum replays
                    // instead of being collateral damage.
                    let frags = split_merged(line);
                    if frags.len() <= 1 {
                        loaded.corrupt.push(first);
                    } else {
                        for frag in frags {
                            match Entry::from_line(i + 1, frag) {
                                Ok(e) => {
                                    loaded.entries.insert(e.key.clone(), e);
                                }
                                Err(e) => loaded.corrupt.push(e),
                            }
                        }
                    }
                }
            }
        }
        // Seal a torn final line (a kill mid-append leaves no
        // terminator): the append handle writes after it, so without
        // this newline the next recomputed entry would merge into the
        // torn bytes and be lost as well. Sealing confines the damage
        // to its own, already-reported line.
        if !text.is_empty() && !text.ends_with('\n') {
            file.write_all(b"\n").map_err(io_err)?;
            file.flush().map_err(io_err)?;
        }
        Ok(Journal {
            path,
            file: Mutex::new(file),
            loaded,
            late_errors: Mutex::new(Vec::new()),
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Verified entries available for replay.
    pub fn len(&self) -> usize {
        self.loaded.entries.len()
    }

    /// `true` when no verified entries were loaded.
    pub fn is_empty(&self) -> bool {
        self.loaded.entries.is_empty()
    }

    /// The verified entry for `key`, if one was loaded at open.
    pub fn lookup(&self, key: &str) -> Option<&Entry> {
        self.loaded.entries.get(key)
    }

    /// Every error observed so far: corrupt lines found at open plus
    /// decode failures and failed appends recorded during the run.
    pub fn corrupt(&self) -> Vec<JournalError> {
        let mut all = self.loaded.corrupt.clone();
        if let Ok(late) = self.late_errors.lock() {
            all.extend(late.iter().cloned());
        }
        all
    }

    /// Records a payload-decode failure discovered after open (the
    /// entry verified byte-wise but no longer means anything); its cell
    /// recomputes.
    pub fn report_bad_payload(&self, key: &str, detail: impl Into<String>) {
        self.report_late(JournalError::BadPayload {
            key: key.to_string(),
            detail: detail.into(),
        });
    }

    fn report_late(&self, e: JournalError) {
        if let Ok(mut late) = self.late_errors.lock() {
            late.push(e);
        }
    }

    /// Appends one entry, keeping a failed write with the errors
    /// [`Journal::corrupt`] returns instead of handing it back: the run
    /// reports it once, and the unrecorded cell recomputes on resume.
    pub fn record(&self, entry: &Entry) {
        if let Err(e) = self.append(entry) {
            self.report_late(e);
        }
    }

    /// Appends one completed cell. Called from worker threads; each
    /// entry is a single atomic-enough `write_all` of one line.
    pub fn append(&self, entry: &Entry) -> Result<(), JournalError> {
        let line = entry.render();
        let mut file = self.file.lock().map_err(|_| JournalError::Io {
            path: self.path.display().to_string(),
            detail: "append lock poisoned".to_string(),
        })?;
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| JournalError::Io {
                path: self.path.display().to_string(),
                detail: e.to_string(),
            })
    }

    /// Re-reads the file from disk and verifies every line, returning
    /// `(verified entries, corrupt lines)` — the integrity check
    /// `repro soak` runs between iterations.
    pub fn verify(path: impl AsRef<Path>) -> Result<(usize, Vec<JournalError>), JournalError> {
        let j = Journal::open(path)?;
        Ok((j.len(), j.loaded.corrupt))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "spp-journal-test-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn entry(key: &str, payload: &str) -> Entry {
        Entry {
            key: key.to_string(),
            attempt: 1,
            status: CellStatus::Ok,
            payload: payload.to_string(),
        }
    }

    #[test]
    fn round_trips_entries_through_disk() {
        let p = tmp("roundtrip");
        let j = Journal::open(&p).unwrap();
        assert!(j.is_empty());
        j.append(&entry("faultsim/LL/logpsf", r#"{"cycles":42}"#))
            .unwrap();
        j.append(&Entry {
            key: "faultsim/GH/log".into(),
            attempt: 3,
            status: CellStatus::Failed,
            payload: r#"{"reason":"injected"}"#.into(),
        })
        .unwrap();
        drop(j);
        let j = Journal::open(&p).unwrap();
        assert_eq!(j.len(), 2);
        assert!(j.corrupt().is_empty());
        let e = j.lookup("faultsim/LL/logpsf").unwrap();
        assert_eq!(e.payload, r#"{"cycles":42}"#);
        assert_eq!(e.status, CellStatus::Ok);
        let f = j.lookup("faultsim/GH/log").unwrap();
        assert_eq!((f.attempt, f.status), (3, CellStatus::Failed));
        assert!(j.lookup("missing").is_none());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn last_record_for_a_key_wins() {
        let p = tmp("lastwins");
        let j = Journal::open(&p).unwrap();
        j.append(&entry("k", "1")).unwrap();
        j.append(&entry("k", "2")).unwrap();
        drop(j);
        let j = Journal::open(&p).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.lookup("k").unwrap().payload, "2");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn truncated_final_line_is_a_typed_error_not_a_reuse() {
        let p = tmp("truncate");
        let j = Journal::open(&p).unwrap();
        j.append(&entry("a", r#"{"v":1}"#)).unwrap();
        j.append(&entry("b", r#"{"v":2}"#)).unwrap();
        drop(j);
        let full = std::fs::read_to_string(&p).unwrap();
        let cut = full.len() - 7; // tear the middle of the last line
        std::fs::write(&p, &full[..cut]).unwrap();
        let j = Journal::open(&p).unwrap();
        assert_eq!(j.len(), 1, "only the intact line may replay");
        assert!(j.lookup("a").is_some());
        assert!(j.lookup("b").is_none(), "torn entry must not be served");
        let errs = j.corrupt();
        assert_eq!(errs.len(), 1);
        assert!(
            matches!(
                errs[0],
                JournalError::Malformed { line: 2, .. }
                    | JournalError::HashMismatch { line: 2, .. }
            ),
            "{errs:?}"
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn bit_flip_anywhere_in_a_line_is_detected() {
        let p = tmp("bitflip");
        let j = Journal::open(&p).unwrap();
        j.append(&entry("cell/один", r#"{"v":1,"s":"x\"y"}"#))
            .unwrap();
        drop(j);
        let clean = std::fs::read(&p).unwrap();
        // Flip one bit in every byte position of the line (except the
        // final newline, whose loss merely re-splits lines) and require
        // a typed error every time.
        for pos in 0..clean.len() - 1 {
            for bit in [0x01u8, 0x80] {
                let mut damaged = clean.clone();
                damaged[pos] ^= bit;
                std::fs::write(&p, &damaged).unwrap();
                let j = Journal::open(&p).unwrap();
                let errs = j.corrupt();
                assert!(
                    j.is_empty() && !errs.is_empty(),
                    "flip at byte {pos} (bit {bit:#x}) went undetected: \
                     {} entries, errors {errs:?}",
                    j.len()
                );
            }
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn merged_lines_report_every_damaged_record() {
        let p = tmp("merged");
        let j = Journal::open(&p).unwrap();
        j.append(&entry("a", r#"{"v":1}"#)).unwrap();
        j.append(&entry("b", r#"{"v":2}"#)).unwrap();
        j.append(&entry("c", r#"{"v":3}"#)).unwrap();
        drop(j);
        let mut raw = std::fs::read(&p).unwrap();
        // First flip: destroy the newline separating records "a" and
        // "b", merging them into one physical line (the torn-tail shape
        // that used to collapse into a single reported error).
        let nl = raw.iter().position(|&x| x == b'\n').unwrap();
        raw[nl] ^= 0x01;
        // Second flip: damage record "b"'s key field, past the
        // record-start marker so the merged line still splits there.
        let b_key = nl + 1 + find(&raw[nl + 1..], b"\"key\":\"b\"") + 8;
        raw[b_key] ^= 0x01;
        std::fs::write(&p, &raw).unwrap();
        let j = Journal::open(&p).unwrap();
        let errs = j.corrupt();
        assert_eq!(
            errs.len(),
            2,
            "both damaged records must report, not just the first: {errs:?}"
        );
        assert!(errs
            .iter()
            .all(|e| matches!(e, JournalError::Malformed { line: 1, .. })
                || matches!(e, JournalError::HashMismatch { line: 1, .. })));
        assert!(j.lookup("a").is_none(), "junk-tailed record must not serve");
        assert!(j.lookup("b").is_none(), "flipped record must not serve");
        assert!(j.lookup("c").is_some(), "the intact record still replays");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn an_intact_record_merged_behind_a_torn_one_still_replays() {
        let p = tmp("merged-intact");
        let j = Journal::open(&p).unwrap();
        j.append(&entry("a", r#"{"v":1}"#)).unwrap();
        j.append(&entry("b", r#"{"v":2}"#)).unwrap();
        drop(j);
        let mut raw = std::fs::read(&p).unwrap();
        let nl = raw.iter().position(|&x| x == b'\n').unwrap();
        raw[nl] ^= 0x01;
        std::fs::write(&p, &raw).unwrap();
        let j = Journal::open(&p).unwrap();
        assert_eq!(j.corrupt().len(), 1, "only \"a\" is damaged");
        assert!(j.lookup("a").is_none());
        assert_eq!(
            j.lookup("b").unwrap().payload,
            r#"{"v":2}"#,
            "\"b\"'s bytes verify on their own and must not be lost"
        );
        std::fs::remove_file(&p).unwrap();
    }

    fn find(haystack: &[u8], needle: &[u8]) -> usize {
        haystack
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap()
    }

    #[test]
    fn a_failed_append_is_recorded_for_the_report() {
        let p = tmp("readonly");
        let mut j = Journal::open(&p).unwrap();
        // Swap the append handle for a read-only one: every write fails.
        j.file = Mutex::new(File::open(&p).unwrap());
        assert!(j.append(&entry("a", "{}")).is_err());
        assert!(j.corrupt().is_empty(), "append hands its error back");
        j.record(&entry("b", "{}"));
        let errs = j.corrupt();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(matches!(errs[0], JournalError::Io { .. }), "{errs:?}");
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 0);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let p = tmp("schema");
        std::fs::write(
            &p,
            "{\"schema\":\"specpersist/journal-v0\",\"key\":\"k\",\"attempt\":1,\
             \"status\":\"ok\",\"hash\":\"0\",\"payload\":\"{}\"}\n",
        )
        .unwrap();
        let j = Journal::open(&p).unwrap();
        assert_eq!(j.len(), 0);
        assert!(matches!(
            j.corrupt()[0],
            JournalError::BadSchema { line: 1, .. }
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn every_error_renders_as_one_line() {
        let errors = [
            JournalError::Io {
                path: "j".into(),
                detail: "denied".into(),
            },
            JournalError::Malformed {
                line: 3,
                detail: "expected ','".into(),
            },
            JournalError::BadSchema {
                line: 1,
                found: "other".into(),
            },
            JournalError::HashMismatch {
                line: 2,
                key: "k".into(),
            },
            JournalError::BadPayload {
                key: "k".into(),
                detail: "missing field".into(),
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{e:?} renders {s:?}");
        }
    }
}
