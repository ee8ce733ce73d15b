//! Append-only job journal and checkpoint files — the daemon's crash
//! story.
//!
//! Three kinds of state survive a `kill -9`:
//!
//! * `journal.ndjson` — one JSON record per line, appended and synced
//!   before the daemon acts on the event it records:
//!   `{"rec":"defs",…}` (a session's definition update),
//!   `{"rec":"admitted","id",…,"req":…}` (a job entered the system) and
//!   `{"rec":"done","id",…,"resp":…}` (its final response). A torn
//!   trailing line — the tail of a write cut by the crash — is expected
//!   and skipped by the reader.
//! * `ck-<id>.ckpt` — the job's latest parked engine checkpoint,
//!   written to a temp file, synced, then renamed so the visible file
//!   is always a complete document. Decoding still goes through the
//!   hardened codecs: a corrupt checkpoint falls back to rerunning the
//!   job from scratch, which (determinism) yields the same verdict.
//!
//! Recovery replays `defs` records in order, re-serves every `done`
//! verdict from memory, and re-admits `admitted`-but-not-`done` jobs,
//! resuming each from its checkpoint file when one decodes.

use crate::json::{self, Json};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub struct Journal {
    dir: PathBuf,
    file: Mutex<File>,
}

/// Everything the journal knows after scanning a directory.
#[derive(Default)]
pub struct Recovered {
    /// `(session, src)` definition updates, in append order.
    pub defs: Vec<(String, String)>,
    /// Jobs admitted but not completed, in admission order, with the
    /// decoded request and the raw checkpoint text when one was parked.
    pub inflight: Vec<(String, Json, Option<String>)>,
    /// Completed responses by job id.
    pub done: HashMap<String, Json>,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`.
    pub fn open(dir: &Path) -> std::io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("journal.ndjson"))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Appends one record and syncs it to disk before returning — the
    /// write-ahead discipline: nothing is acted on until it is durable.
    pub fn append(&self, rec: &Json) -> std::io::Result<()> {
        let line = format!("{rec}\n");
        let mut f = self.file.lock().unwrap();
        f.write_all(line.as_bytes())?;
        count_bytes(line.len());
        f.sync_data()
    }

    pub fn record_defs(&self, session: &str, src: &str) -> std::io::Result<()> {
        self.append(&Json::obj(vec![
            ("rec", Json::str("defs")),
            ("session", Json::str(session)),
            ("src", Json::str(src)),
        ]))
    }

    pub fn record_admitted(&self, id: &str, req: &Json) -> std::io::Result<()> {
        self.append(&Json::obj(vec![
            ("rec", Json::str("admitted")),
            ("id", Json::str(id)),
            ("req", req.clone()),
        ]))
    }

    pub fn record_done(&self, id: &str, resp: &Json) -> std::io::Result<()> {
        self.append(&Json::obj(vec![
            ("rec", Json::str("done")),
            ("id", Json::str(id)),
            ("resp", resp.clone()),
        ]))
    }

    fn ck_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("ck-{id}.ckpt"))
    }

    /// Persists a parked checkpoint atomically: temp file, sync, rename.
    /// A crash leaves either the previous checkpoint or the new one,
    /// never a torn hybrid.
    pub fn save_checkpoint(&self, id: &str, text: &str) -> std::io::Result<()> {
        let tmp = self.dir.join(format!("ck-{id}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            count_bytes(text.len());
            f.sync_data()?;
        }
        fs::rename(&tmp, self.ck_path(id))
    }

    /// Removes a completed job's checkpoint (best-effort: a leftover
    /// file is ignored at recovery because the job is `done`).
    pub fn remove_checkpoint(&self, id: &str) {
        let _ = fs::remove_file(self.ck_path(id));
    }

    /// Scans an existing journal directory. Unreadable or torn records
    /// degrade gracefully: a torn trailing journal line is skipped, and
    /// a missing/corrupt checkpoint file simply restarts that job.
    pub fn recover(dir: &Path) -> std::io::Result<Recovered> {
        let mut out = Recovered::default();
        let path = dir.join("journal.ndjson");
        let mut text = String::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_string(&mut text)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        }
        let mut admitted: Vec<(String, Json)> = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            // A torn tail parses as a JSON error; every *interior* line
            // was synced before the daemon moved on, so only the final
            // line can legitimately be torn — but skipping any bad line
            // is the safe reading either way.
            let Ok(rec) = json::parse(line) else { continue };
            match rec.str_field("rec") {
                Some("defs") => {
                    if let (Some(s), Some(src)) = (rec.str_field("session"), rec.str_field("src")) {
                        out.defs.push((s.to_string(), src.to_string()));
                    }
                }
                Some("admitted") => {
                    if let (Some(id), Some(req)) = (rec.str_field("id"), rec.get("req")) {
                        admitted.push((id.to_string(), req.clone()));
                    }
                }
                Some("done") => {
                    if let (Some(id), Some(resp)) = (rec.str_field("id"), rec.get("resp")) {
                        out.done.insert(id.to_string(), resp.clone());
                    }
                }
                _ => {}
            }
        }
        for (id, req) in admitted {
            if out.done.contains_key(&id) {
                continue;
            }
            let ck = fs::read_to_string(dir.join(format!("ck-{id}.ckpt"))).ok();
            out.inflight.push((id, req, ck));
        }
        Ok(out)
    }
}

/// `server.journal.bytes`: bytes written by appends and checkpoint
/// saves.
fn count_bytes(n: usize) {
    bpi_obs::counter("server.journal.bytes", bpi_obs::Det::Advisory).add(n as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bpi-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn journal_roundtrips_and_tolerates_torn_tail() {
        let dir = tmpdir("roundtrip");
        let j = Journal::open(&dir).unwrap();
        j.record_defs("s", "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;")
            .unwrap();
        let req = Json::obj(vec![("op", Json::str("check")), ("id", Json::str("j1"))]);
        j.record_admitted("j1", &req).unwrap();
        j.record_admitted("j2", &req).unwrap();
        j.save_checkpoint("j2", "bpi-equiv-checkpoint/v1\nnot-a-real-one")
            .unwrap();
        let resp = Json::obj(vec![("status", Json::str("ok"))]);
        j.record_done("j1", &resp).unwrap();
        // Simulate a crash mid-append: torn trailing bytes.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("journal.ndjson"))
                .unwrap();
            f.write_all(b"{\"rec\":\"done\",\"id\":\"j2\",\"re")
                .unwrap();
        }
        let r = Journal::recover(&dir).unwrap();
        assert_eq!(
            r.defs,
            vec![("s".into(), "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;".into())]
        );
        assert_eq!(r.done.get("j1"), Some(&resp));
        assert_eq!(r.inflight.len(), 1);
        assert_eq!(r.inflight[0].0, "j2");
        assert!(r.inflight[0]
            .2
            .as_deref()
            .unwrap()
            .starts_with("bpi-equiv-checkpoint"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovering_a_missing_dir_is_empty_not_an_error() {
        let r = Journal::recover(Path::new("/nonexistent/bpi-journal")).unwrap();
        assert!(r.defs.is_empty() && r.inflight.is_empty() && r.done.is_empty());
    }
}
