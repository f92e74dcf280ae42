//! The append-only request journal: crash-safe request intake.
//!
//! Reuses the engine's fsync'd [`JournalWriter`] line discipline with
//! a serve-specific header and two line kinds:
//!
//! ```json
//! {"journal":"rmrls-serve","schema_version":1}
//! {"event":"submitted","id":1,"name":"swap","kind":"perm","spec":"1,0"}
//! {"event":"completed","id":1,"cache_hit":false,"record":{...}}
//! ```
//!
//! `submitted` is written *before* the request is enqueued (write
//! ahead), `completed` after its record is final. On restart, replay
//! partitions journaled ids: submitted-without-completed requests are
//! re-enqueued (the crash interrupted them), completed ones are
//! restored read-only so `GET /requests/<id>` keeps answering. A
//! completed record whose circuit no longer realizes its request's spec
//! (re-simulated on replay) is damaged and re-enqueued too. A torn
//! tail — half a line from a crash mid-append — is tolerated and
//! ignored, matching the engine journal's contract.

use std::sync::{Mutex, MutexGuard};

use rmrls_engine::{journaled_record_holds, JournalWriter};
use rmrls_obs::Json;

use crate::request::SynthesisRequest;

/// Schema version of the serve journal.
pub const SERVE_JOURNAL_SCHEMA_VERSION: u64 = 1;

/// First line of every serve journal.
fn header_line() -> String {
    Json::Obj(vec![
        ("journal".to_string(), Json::str("rmrls-serve")),
        (
            "schema_version".to_string(),
            Json::uint(SERVE_JOURNAL_SCHEMA_VERSION),
        ),
    ])
    .to_string()
}

/// What replay recovered from an existing journal.
#[derive(Default, Debug)]
pub struct Replay {
    /// Requests journaled as submitted but never completed — the crash
    /// interrupted them — or completed with a damaged circuit;
    /// re-enqueue in id order.
    pub pending: Vec<(u64, SynthesisRequest)>,
    /// Requests with a final record: `(id, request, cache_hit, record)`.
    pub completed: Vec<(u64, SynthesisRequest, bool, Json)>,
    /// Highest id seen (0 when the journal was empty).
    pub max_id: u64,
}

/// The daemon's shared journal handle. All appends are serialized
/// behind one lock; each is fsync'd by the underlying writer.
pub struct RequestJournal {
    writer: Mutex<JournalWriter>,
}

impl RequestJournal {
    /// Opens `path`, creating it with a fresh header when absent and
    /// replaying it when present. Returns the handle (positioned for
    /// appends) plus whatever replay recovered.
    pub fn open(path: &str) -> Result<(RequestJournal, Replay), String> {
        if !std::path::Path::new(path).exists() {
            let writer = JournalWriter::create_raw(path, &header_line())?;
            return Ok((
                RequestJournal {
                    writer: Mutex::new(writer),
                },
                Replay::default(),
            ));
        }
        let replay = replay_file(path)?;
        let writer = JournalWriter::open_append(path)?;
        Ok((
            RequestJournal {
                writer: Mutex::new(writer),
            },
            replay,
        ))
    }

    fn lock(&self) -> MutexGuard<'_, JournalWriter> {
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Write-ahead record of an accepted request (before enqueue).
    pub fn append_submitted(&self, id: u64, request: &SynthesisRequest) -> Result<(), String> {
        let Json::Obj(request_fields) = request.to_json() else {
            unreachable!("SynthesisRequest::to_json always returns an object");
        };
        let mut fields = vec![
            ("event".to_string(), Json::str("submitted")),
            ("id".to_string(), Json::uint(id)),
        ];
        fields.extend(request_fields);
        self.append_line(&Json::Obj(fields).to_string())
    }

    /// Final record of a finished request.
    pub fn append_completed(&self, id: u64, cache_hit: bool, record: &Json) -> Result<(), String> {
        let line = Json::Obj(vec![
            ("event".to_string(), Json::str("completed")),
            ("id".to_string(), Json::uint(id)),
            ("cache_hit".to_string(), Json::Bool(cache_hit)),
            ("record".to_string(), record.clone()),
        ]);
        self.append_line(&line.to_string())
    }

    fn append_line(&self, line: &str) -> Result<(), String> {
        self.lock().append_at(line, "serve/journal/append")
    }
}

/// Parses an existing journal, tolerating a torn final line.
fn replay_file(path: &str) -> Result<Replay, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read request journal {path}: {e}"))?;
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) => {
            let header =
                Json::parse(first).map_err(|e| format!("{path}:1: bad journal header: {e}"))?;
            if header.get("journal").and_then(Json::as_str) != Some("rmrls-serve") {
                return Err(format!("{path}: not an rmrls-serve request journal"));
            }
        }
        None => return Ok(Replay::default()),
    }
    // (request, completion) per id; BTreeMap keeps replay in id order.
    type Seen = std::collections::BTreeMap<u64, (Option<SynthesisRequest>, Option<(bool, Json)>)>;
    let mut seen: Seen = Seen::new();
    let total = text.lines().count();
    for (index, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let json = match Json::parse(line) {
            Ok(j) => j,
            // A torn tail (crash mid-append) is expected; a malformed
            // line anywhere else means the file is not ours.
            Err(_) if index + 1 == total => break,
            Err(e) => return Err(format!("{path}:{}: bad journal line: {e}", index + 1)),
        };
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}:{}: journal line without id", index + 1))?;
        let slot = seen.entry(id).or_default();
        match json.get("event").and_then(Json::as_str) {
            Some("submitted") => {
                let request = SynthesisRequest::from_json_str(&json.to_string())
                    .map_err(|e| format!("{path}:{}: bad submitted line: {e}", index + 1))?;
                slot.0 = Some(request);
            }
            Some("completed") => {
                let cache_hit = json
                    .get("cache_hit")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                let record = json.get("record").cloned().unwrap_or(Json::Null);
                slot.1 = Some((cache_hit, record));
            }
            other => {
                return Err(format!(
                    "{path}:{}: unknown journal event {other:?}",
                    index + 1
                ))
            }
        }
    }
    let mut replay = Replay::default();
    for (id, (request, completion)) in seen {
        replay.max_id = replay.max_id.max(id);
        let Some(request) = request else {
            // A completed line without its submitted line cannot be
            // restored meaningfully; skip it but keep the id reserved.
            continue;
        };
        match completion {
            Some((cache_hit, record)) if journaled_record_holds(&request.admit(id), &record) => {
                replay.completed.push((id, request, cache_hit, record));
            }
            _ => replay.pending.push((id, request)),
        }
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("rmrls-serve-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("requests.jsonl").to_string_lossy().into_owned()
    }

    fn request(name: &str) -> SynthesisRequest {
        SynthesisRequest {
            name: name.into(),
            kind: "perm".into(),
            spec: "1,0".into(),
            deadline_ms: None,
        }
    }

    #[test]
    fn replay_partitions_pending_from_completed() {
        let path = tmp("partition");
        {
            let (journal, replay) = RequestJournal::open(&path).unwrap();
            assert!(replay.pending.is_empty() && replay.completed.is_empty());
            journal.append_submitted(1, &request("a")).unwrap();
            journal.append_submitted(2, &request("b")).unwrap();
            // The circuit of spec "1,0": a NOT on wire a.
            let record = Json::parse(
                r#"{"status":"solved","width":1,"gates":1,"quantum_cost":1,"circuit":["TOF1(a)"]}"#,
            )
            .unwrap();
            journal.append_completed(1, true, &record).unwrap();
        }
        let (_journal, replay) = RequestJournal::open(&path).unwrap();
        assert_eq!(replay.max_id, 2);
        assert_eq!(replay.completed.len(), 1);
        let (id, req, cache_hit, record) = &replay.completed[0];
        assert_eq!((*id, req.name.as_str(), *cache_hit), (1, "a", true));
        assert_eq!(record.get("status").and_then(Json::as_str), Some("solved"));
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].0, 2);
        assert_eq!(replay.pending[0].1.name, "b");
    }

    #[test]
    fn a_torn_tail_is_tolerated() {
        let path = tmp("torn");
        {
            let (journal, _) = RequestJournal::open(&path).unwrap();
            journal.append_submitted(1, &request("a")).unwrap();
        }
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"event\":\"submitted\",\"id\":2,\"na").unwrap();
        }
        let (_journal, replay) = RequestJournal::open(&path).unwrap();
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].0, 1);
    }

    #[test]
    fn a_foreign_file_is_rejected() {
        let path = tmp("foreign");
        std::fs::write(&path, "{\"journal\":\"other\"}\n").unwrap();
        let err = match RequestJournal::open(&path) {
            Ok(_) => panic!("foreign file accepted"),
            Err(e) => e,
        };
        assert!(err.contains("not an rmrls-serve request journal"), "{err}");
    }

    #[test]
    fn appends_after_reopen_land_after_existing_lines() {
        let path = tmp("reopen");
        {
            let (journal, _) = RequestJournal::open(&path).unwrap();
            journal.append_submitted(1, &request("a")).unwrap();
        }
        {
            let (journal, _) = RequestJournal::open(&path).unwrap();
            journal.append_submitted(2, &request("b")).unwrap();
        }
        let (_journal, replay) = RequestJournal::open(&path).unwrap();
        assert_eq!(replay.pending.len(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "header plus two appends");
    }
}
