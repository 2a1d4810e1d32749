//! The persistent write-ahead job journal.
//!
//! Real quantum cloud services cannot lose submissions: a process
//! restart between "accepted" and "executed" must not silently drop a
//! user's job. This module gives the executor that guarantee with the
//! classic write-ahead-log recipe scaled down to a single append-only
//! file, `jobs.journal`, inside a user-chosen `--journal-dir`.
//!
//! # Record format
//!
//! One record per line, self-checksummed so a torn tail (the process
//! died mid-`write`) is detected and dropped rather than misparsed. A
//! record is whole only with its terminating newline, which the writer
//! emits in the same `write` as the record:
//!
//! ```text
//! QJ1 <crc32-hex> <single-line JSON payload>\n
//! ```
//!
//! The CRC-32 (IEEE polynomial) covers the JSON payload bytes. Two
//! payload kinds exist:
//!
//! - `{"kind":"submitted","job":N,"tenant":T,"priority":P,"backend":B,
//!   "shots":S,"qasm":Q[,"key":K]}` — appended *before* the job enters
//!   the queue; the circuit travels as its OpenQASM 2.0 emission.
//! - `{"kind":"terminal","job":N,"status":ST[,"error":E]
//!   [,"clbits":C,"counts":{...}][,"executed_on":X]}` — appended when
//!   the job reaches a terminal state; `Done` records carry the full
//!   counts histogram so recovery can serve the result without
//!   re-running.
//!
//! # Replay rules
//!
//! On startup the executor reads the journal front to back. A record
//! that fails the checksum, does not parse or lacks its newline ends the
//! scan (everything after a torn write is untrusted); the count of
//! dropped records is reported. [`Journal::reopen`] cuts the dropped
//! bytes off before appending, so the next replay sees the new records.
//! A `submitted` record with no matching `terminal` record is
//! re-enqueued under its original id, tenant, priority, and idempotency
//! key; one *with* a terminal record is reconstructed as a finished
//! handle (exactly-once: it will never re-run). Terminal records
//! without a submitted record are ignored — they can occur when a crash
//! lands between a worker's terminal append and nothing else, and are
//! harmless.

use crate::error::{QukitError, Result};
use crate::scheduler::Priority;
use qukit_aer::counts::Counts;
use qukit_obs::json::{escape, JsonValue};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// File name of the journal inside the journal directory.
pub const JOURNAL_FILE: &str = "jobs.journal";
/// Record magic: bumping the on-disk format bumps this tag.
const MAGIC: &str = "QJ1";

/// A parsed journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job was accepted (written before it entered the queue).
    Submitted {
        /// Executor-unique job id.
        job_id: u64,
        /// Owning tenant.
        tenant: String,
        /// Priority class.
        priority: Priority,
        /// Backend name the job targets.
        backend: String,
        /// Requested shot count.
        shots: usize,
        /// Client idempotency key, if supplied.
        key: Option<String>,
        /// The prepared circuit as OpenQASM 2.0.
        qasm: String,
        /// The job's trace id (0 in pre-tracing journals): replay
        /// reconstructs the job under the same trace, so a waterfall
        /// survives a crash/restart cycle with its identity intact.
        trace: u64,
    },
    /// A job reached a terminal state.
    Terminal {
        /// Executor-unique job id.
        job_id: u64,
        /// Terminal status wire name (`DONE`, `ERROR`, `CANCELLED`,
        /// `TIMED_OUT`, `REJECTED`).
        status: String,
        /// Failure message for non-`DONE` terminals.
        error: Option<String>,
        /// `(num_clbits, outcome histogram)` for `DONE` terminals.
        counts: Option<(usize, Vec<(u64, usize)>)>,
        /// Backend that actually served a `DONE` job.
        executed_on: Option<String>,
    },
}

impl JournalRecord {
    /// The id of the job the record concerns.
    pub fn job_id(&self) -> u64 {
        match self {
            JournalRecord::Submitted { job_id, .. } | JournalRecord::Terminal { job_id, .. } => {
                *job_id
            }
        }
    }
}

/// What a journal scan found.
#[derive(Debug, Default)]
pub struct ReplayLog {
    /// Every record up to the first corruption, in append order.
    pub records: Vec<JournalRecord>,
    /// Lines dropped because of a failed checksum or parse (a torn
    /// tail counts as one).
    pub corrupt_dropped: usize,
    /// Length in bytes of the trusted prefix: the file up to and
    /// including the newline of the last whole record.
    pub trusted_len: u64,
}

/// The append side of the journal. One instance per executor; appends
/// are serialized by an internal mutex and flushed per record so a
/// process crash after `append` returns cannot lose the record.
/// That is the whole durability claim: `flush` reaches the OS, not the
/// disk, so records can be lost on power loss or a kernel crash.
/// Surviving those would need fsync, which this simulator-scale service
/// trades away for throughput.
pub struct Journal {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    sealed: AtomicBool,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Journal({})", self.path.display())
    }
}

impl Journal {
    /// Opens (creating if needed) the journal inside `dir` for append.
    pub fn open(dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| QukitError::Job {
            msg: format!("cannot create journal dir {}: {e}", dir.display()),
        })?;
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path).map_err(|e| {
            QukitError::Job { msg: format!("cannot open journal {}: {e}", path.display()) }
        })?;
        Ok(Self { path, writer: Mutex::new(BufWriter::new(file)), sealed: AtomicBool::new(false) })
    }

    /// Opens the journal inside `dir` for append after [`replay`] read
    /// `log` from it. Bytes past the trusted prefix (a torn tail, or a
    /// corrupt record and everything after it) are cut first, so new
    /// records are never hidden behind them.
    pub fn reopen(dir: &Path, log: &ReplayLog) -> Result<Self> {
        let path = dir.join(JOURNAL_FILE);
        let cut = |e: std::io::Error| QukitError::Job {
            msg: format!("cannot cut journal {} to its trusted prefix: {e}", path.display()),
        };
        match OpenOptions::new().write(true).open(&path) {
            Ok(file) => {
                if file.metadata().map_err(cut)?.len() > log.trusted_len {
                    file.set_len(log.trusted_len).map_err(cut)?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(cut(e)),
        }
        Self::open(dir)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops accepting appends. Used by crash simulation: straggler
    /// writes from detached workers are dropped exactly as a dead
    /// process would drop them.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&self, record: &JournalRecord) -> Result<()> {
        if self.sealed.load(Ordering::SeqCst) {
            return Err(QukitError::Job { msg: "journal is sealed".to_owned() });
        }
        let line = encode_record(record);
        let mut writer = self.writer.lock().expect("journal writer lock");
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| QukitError::Job { msg: format!("journal append failed: {e}") })
    }
}

/// Reads the journal under `dir` (missing file = empty log).
pub fn replay(dir: &Path) -> Result<ReplayLog> {
    let path = dir.join(JOURNAL_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes).map_err(|e| QukitError::Job {
                msg: format!("cannot read journal {}: {e}", path.display()),
            })?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ReplayLog::default()),
        Err(e) => {
            return Err(QukitError::Job {
                msg: format!("cannot open journal {}: {e}", path.display()),
            })
        }
    }
    let mut log = ReplayLog::default();
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    for line in &mut lines {
        // A record is whole only with its newline. A torn write can also
        // split a multi-byte character, so UTF-8 is checked per line.
        let body = line.strip_suffix(b"\n");
        if !body.is_some_and(<[u8]>::is_empty) {
            match body.and_then(|body| std::str::from_utf8(body).ok()).and_then(decode_line) {
                Some(record) => log.records.push(record),
                None => {
                    // First bad line ends the trusted prefix; it and the
                    // rest are dropped.
                    log.corrupt_dropped = 1 + lines.count();
                    break;
                }
            }
        }
        log.trusted_len += line.len() as u64;
    }
    Ok(log)
}

fn encode_record(record: &JournalRecord) -> String {
    let payload = match record {
        JournalRecord::Submitted { job_id, tenant, priority, backend, shots, key, qasm, trace } => {
            let mut out = format!(
                "{{\"kind\":\"submitted\",\"job\":{job_id},\"tenant\":\"{}\",\"priority\":\"{}\",\"backend\":\"{}\",\"shots\":{shots}",
                escape(tenant),
                priority.name(),
                escape(backend),
            );
            if let Some(key) = key {
                out.push_str(&format!(",\"key\":\"{}\"", escape(key)));
            }
            if *trace != 0 {
                out.push_str(&format!(",\"trace\":{trace}"));
            }
            out.push_str(&format!(",\"qasm\":\"{}\"}}", escape(qasm)));
            out
        }
        JournalRecord::Terminal { job_id, status, error, counts, executed_on } => {
            let mut out = format!(
                "{{\"kind\":\"terminal\",\"job\":{job_id},\"status\":\"{}\"",
                escape(status)
            );
            if let Some(error) = error {
                out.push_str(&format!(",\"error\":\"{}\"", escape(error)));
            }
            if let Some(executed_on) = executed_on {
                out.push_str(&format!(",\"executed_on\":\"{}\"", escape(executed_on)));
            }
            if let Some((clbits, histogram)) = counts {
                out.push_str(&format!(",\"clbits\":{clbits},\"counts\":{{"));
                let mut first = true;
                for (outcome, n) in histogram {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!("\"{outcome}\":{n}"));
                }
                out.push_str("}}");
            } else {
                out.push('}');
            }
            out
        }
    };
    format!("{MAGIC} {:08x} {payload}\n", crc32(payload.as_bytes()))
}

fn decode_line(line: &str) -> Option<JournalRecord> {
    let rest = line.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    let (crc_hex, payload) = rest.split_once(' ')?;
    let expected = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc32(payload.as_bytes()) != expected {
        return None;
    }
    let value = JsonValue::parse(payload).ok()?;
    let kind = value.get("kind")?.as_str()?;
    let job_id = value.get("job")?.as_f64()? as u64;
    match kind {
        "submitted" => Some(JournalRecord::Submitted {
            job_id,
            tenant: value.get("tenant")?.as_str()?.to_owned(),
            priority: Priority::parse(value.get("priority")?.as_str()?)?,
            backend: value.get("backend")?.as_str()?.to_owned(),
            shots: value.get("shots")?.as_f64()? as usize,
            key: value.get("key").and_then(|k| k.as_str()).map(str::to_owned),
            qasm: value.get("qasm")?.as_str()?.to_owned(),
            trace: value.get("trace").and_then(JsonValue::as_f64).map_or(0, |t| t as u64),
        }),
        "terminal" => {
            let counts = match value.get("counts") {
                Some(map) => {
                    let clbits = value.get("clbits")?.as_f64()? as usize;
                    let mut histogram = Vec::new();
                    for (outcome, n) in map.as_object()? {
                        histogram.push((outcome.parse().ok()?, n.as_f64()? as usize));
                    }
                    Some((clbits, histogram))
                }
                None => None,
            };
            Some(JournalRecord::Terminal {
                job_id,
                status: value.get("status")?.as_str()?.to_owned(),
                error: value.get("error").and_then(|e| e.as_str()).map(str::to_owned),
                counts,
                executed_on: value.get("executed_on").and_then(|e| e.as_str()).map(str::to_owned),
            })
        }
        _ => None,
    }
}

/// Rebuilds a [`Counts`] histogram from a journaled `(clbits, pairs)`.
pub(crate) fn counts_from_pairs(clbits: usize, pairs: &[(u64, usize)]) -> Counts {
    let mut counts = Counts::new(clbits);
    for &(outcome, n) in pairs {
        counts.record_n(outcome, n);
    }
    counts
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), bitwise — journal records
/// are short and rare enough that a lookup table is not worth the code.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qukit-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn submitted(job_id: u64, key: Option<&str>) -> JournalRecord {
        JournalRecord::Submitted {
            job_id,
            tenant: "default".to_owned(),
            priority: Priority::Normal,
            backend: "qasm_simulator".to_owned(),
            shots: 128,
            key: key.map(str::to_owned),
            qasm: "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n".to_owned(),
            trace: 9_007_199_254_740_991 & (job_id.wrapping_mul(0x9e37) | 1),
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let dir = temp_dir("roundtrip");
        let journal = Journal::open(&dir).unwrap();
        let records = vec![
            submitted(1, Some("key-a")),
            submitted(2, None),
            JournalRecord::Terminal {
                job_id: 1,
                status: "DONE".to_owned(),
                error: None,
                counts: Some((2, vec![(0, 60), (3, 68)])),
                executed_on: Some("qasm_simulator".to_owned()),
            },
            JournalRecord::Terminal {
                job_id: 2,
                status: "ERROR".to_owned(),
                error: Some("injected fault: \"quoted\"\nnewline".to_owned()),
                counts: None,
                executed_on: None,
            },
        ];
        for record in &records {
            journal.append(record).unwrap();
        }
        let log = replay(&dir).unwrap();
        assert_eq!(log.records, records);
        assert_eq!(log.corrupt_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_tracing_submitted_lines_decode_with_zero_trace() {
        // A line written before the `trace` field existed.
        let payload = "{\"kind\":\"submitted\",\"job\":7,\"tenant\":\"default\",\
                       \"priority\":\"normal\",\"backend\":\"qasm_simulator\",\
                       \"shots\":64,\"qasm\":\"OPENQASM 2.0;\"}";
        let line = format!("{MAGIC} {:08x} {payload}", crc32(payload.as_bytes()));
        match decode_line(&line) {
            Some(JournalRecord::Submitted { job_id, trace, .. }) => {
                assert_eq!(job_id, 7);
                assert_eq!(trace, 0, "absent trace decodes as 0");
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn missing_journal_is_an_empty_log() {
        let dir = temp_dir("missing");
        let log = replay(&dir).unwrap();
        assert!(log.records.is_empty());
        assert_eq!(log.corrupt_dropped, 0);
    }

    #[test]
    fn torn_tail_is_dropped_but_the_prefix_survives() {
        let dir = temp_dir("torn");
        let journal = Journal::open(&dir).unwrap();
        journal.append(&submitted(1, None)).unwrap();
        journal.append(&submitted(2, None)).unwrap();
        drop(journal);
        // Simulate a crash mid-write: append half a record.
        let mut file = OpenOptions::new().append(true).open(dir.join(JOURNAL_FILE)).unwrap();
        file.write_all(b"QJ1 0000dead {\"kind\":\"subm").unwrap();
        drop(file);
        let log = replay(&dir).unwrap();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.corrupt_dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_replays_the_whole_records_and_reopens() {
        let dir = temp_dir("truncate");
        let journal = Journal::open(&dir).unwrap();
        let mut records = vec![submitted(1, Some("key-a")), submitted(2, None)];
        // A multi-byte tenant name, so some cuts split a character.
        if let JournalRecord::Submitted { tenant, .. } = &mut records[1] {
            *tenant = "équipe-β".to_owned();
        }
        records.push(JournalRecord::Terminal {
            job_id: 1,
            status: "DONE".to_owned(),
            error: None,
            counts: Some((2, vec![(0, 60), (3, 68)])),
            executed_on: Some("qasm_simulator".to_owned()),
        });
        for record in &records {
            journal.append(record).unwrap();
        }
        drop(journal);
        let path = dir.join(JOURNAL_FILE);
        let full = std::fs::read(&path).unwrap();
        let ends: Vec<usize> =
            full.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1).collect();
        assert_eq!(ends.len(), records.len());
        let marker = submitted(99, None);

        for len in 0..=full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= len).count();
            let log = replay(&dir).unwrap();
            assert_eq!(log.records, records[..whole], "cut at {len}");
            let boundary = whole.checked_sub(1).map_or(0, |i| ends[i]);
            assert_eq!(log.corrupt_dropped, usize::from(len > boundary), "cut at {len}");
            assert_eq!(log.trusted_len, boundary as u64, "cut at {len}");

            let journal = Journal::reopen(&dir, &log).unwrap();
            journal.append(&marker).unwrap();
            drop(journal);
            let after = replay(&dir).unwrap();
            assert_eq!(after.corrupt_dropped, 0, "cut at {len}: reopened journal is clean");
            assert_eq!(after.records.len(), whole + 1, "cut at {len}");
            assert_eq!(after.records[whole], marker, "cut at {len}: the append is visible");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_fails_the_checksum_and_ends_the_scan() {
        let dir = temp_dir("bitflip");
        let journal = Journal::open(&dir).unwrap();
        journal.append(&submitted(1, None)).unwrap();
        journal.append(&submitted(2, None)).unwrap();
        journal.append(&submitted(3, None)).unwrap();
        drop(journal);
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        // Corrupt the *second* line's payload (flip the shots digit).
        let corrupted: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, line)| {
                if i == 1 {
                    line.replace("\"shots\":128", "\"shots\":129")
                } else {
                    line.to_owned()
                }
            })
            .collect();
        std::fs::write(&path, corrupted.join("\n") + "\n").unwrap();
        let log = replay(&dir).unwrap();
        assert_eq!(log.records.len(), 1, "scan stops at the corrupt record");
        assert_eq!(log.corrupt_dropped, 2, "the corrupt line and everything after");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_journal_rejects_appends() {
        let dir = temp_dir("sealed");
        let journal = Journal::open(&dir).unwrap();
        journal.append(&submitted(1, None)).unwrap();
        journal.seal();
        assert!(journal.append(&submitted(2, None)).is_err());
        assert_eq!(replay(&dir).unwrap().records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
