//! The flight-recorder journal: a JSONL writer, one file per run.
//!
//! A [`Journal`] appends one [`Event`] per line to a file (conventionally
//! under `results/journals/`), one write per line. The first line should
//! be an [`Event::RunHeader`] and the last an [`Event::ExperimentFinished`];
//! [`Journal::finish`] writes the terminal record with the running event
//! count. Reading back is [`read_journal`], which fails on the
//! first line that does not parse as an [`Event`] (a torn last line, what
//! a killed writer leaves, is dropped instead, and so is a line of an
//! event kind an older schema had and this one retired).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::event::{Event, SCHEMA_VERSION};
use crate::json::Json;
use crate::probe::Probe;

/// Errors raised while writing or reading a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem or stream failure.
    Io(io::Error),
    /// A line in the file did not parse as an [`Event`].
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Why the line was rejected.
        message: String,
    },
    /// The journal's [`Event::RunHeader`] declares a schema newer than
    /// this binary understands; re-record or rebuild instead of
    /// misreading fields we do not know about.
    Version {
        /// Schema version declared by the journal.
        found: u32,
        /// Highest schema this reader supports ([`SCHEMA_VERSION`]).
        supported: u32,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Parse { line, message } => {
                write!(f, "journal line {line} is not a valid event: {message}")
            }
            JournalError::Version { found, supported } => {
                write!(
                    f,
                    "journal schema v{found} is newer than this binary supports \
                     (v{supported}); rebuild against the current vdx-obs"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Parse { .. } | JournalError::Version { .. } => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A JSONL event writer bound to one file, and the [`Probe`] of a
/// journaled run.
///
/// Each event is one `write_all` of one complete line through `&File`,
/// unbuffered: when [`Probe::emit`] returns, the line is in the kernel,
/// so a killed process leaves every line it wrote.
/// Threads may emit concurrently (the daemon's reader threads journal
/// `conn_closed` and `conn_backpressure` while its round thread journals
/// the round): a line to a regular file is a single `write(2)` on one
/// open file description, which the kernel serializes, so lines never
/// interleave. That holds for a regular file only; a pipe would keep it
/// only for lines up to `PIPE_BUF` bytes.
///
/// The journal counts the events written so the terminal record can
/// report how many lines precede it. [`Probe::emit`] cannot return an
/// error — a probe must never abort the run it observes — so it keeps
/// the first one and [`Journal::finish`] reports it.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    events: AtomicU64,
    first_error: OnceLock<io::Error>,
}

impl Journal {
    /// Creates (truncating) the journal file, creating parent directories
    /// as needed.
    pub fn create(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(&path)?;
        Ok(Journal {
            file,
            path,
            events: AtomicU64::new(0),
            first_error: OnceLock::new(),
        })
    }

    /// The file this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Events written so far.
    pub fn len(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// True when no event has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one event as one JSON line, in one write.
    fn write(&self, event: &Event) -> Result<(), JournalError> {
        let mut line = event.to_json_line();
        line.push('\n');
        (&self.file).write_all(line.as_bytes())?;
        self.events.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Writes the terminal [`Event::ExperimentFinished`] record (with the
    /// count of events already written). Consumes the journal: nothing
    /// may follow the terminal record. A write error [`Probe::emit`]
    /// swallowed comes back here instead, and no terminal record is
    /// written.
    pub fn finish(mut self, experiment: &str, wall_ms: u64) -> Result<(), JournalError> {
        if let Some(e) = self.first_error.take() {
            return Err(JournalError::Io(e));
        }
        let terminal = Event::ExperimentFinished {
            experiment: experiment.to_string(),
            wall_ms,
            events: self.len(),
        };
        self.write(&terminal)
    }
}

impl Probe for Journal {
    fn emit(&self, event: Event) {
        if let Err(JournalError::Io(e)) = self.write(&event) {
            // Only the first error is kept; a later one is dropped.
            let _ = self.first_error.set(e);
        }
    }
}

/// Best-effort extraction of `"schema":N` from a raw journal line, for
/// diagnosing headers written by a *newer* schema that no longer parse
/// as our [`Event`]. Only digits directly after the key count.
fn sniff_schema(line: &str) -> Option<u32> {
    let rest = &line[line.find("\"schema\":")? + "\"schema\":".len()..];
    let rest = rest.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Reads a journal file back into events, failing on the first malformed
/// line. Blank lines are rejected too: a journal is events, nothing else.
/// The one exception is an unparseable final line of a file that does
/// not end in a newline: a writer cut off mid-line (a crash during its
/// last write, or a buffered writer of an older build SIGKILLed) leaves
/// exactly that, and the complete lines before it are what the reader is
/// for.
///
/// Journals whose [`Event::RunHeader`] declares a schema newer than
/// [`SCHEMA_VERSION`] are rejected with [`JournalError::Version`] —
/// including when the header itself no longer parses as an [`Event`]
/// (the schema number is sniffed from the raw first line). Older
/// schemas read fine: new fields default when absent, and lines of a
/// retired event kind (v4–v6's `solver_resolve`) are skipped.
pub fn read_journal(path: impl AsRef<Path>) -> Result<Vec<Event>, JournalError> {
    parse_journal(&fs::read_to_string(path.as_ref())?)
}

/// `ev` tags an older schema wrote and this one no longer has: v4–v6's
/// `solver_resolve` (retired in v7).
const RETIRED_KINDS: &[&str] = &["solver_resolve"];

/// Whether `line` is an event of a [`RETIRED_KINDS`] kind.
fn is_retired(line: &str) -> bool {
    let doc = Json::parse(line).ok();
    let tag = doc
        .as_ref()
        .and_then(|d| d.get("ev"))
        .and_then(Json::as_str);
    tag.is_some_and(|tag| RETIRED_KINDS.contains(&tag))
}

/// [`read_journal`] over text already in memory, under the same rules
/// (`vdx-audit` hashes an artifact's bytes before it parses them).
pub fn parse_journal(text: &str) -> Result<Vec<Event>, JournalError> {
    let torn_tail = !text.ends_with('\n');
    let mut events = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, line)) = lines.next() {
        match Event::from_json(line) {
            Ok(event) => {
                if let Event::RunHeader { schema, .. } = &event {
                    if *schema > SCHEMA_VERSION {
                        return Err(JournalError::Version {
                            found: *schema,
                            supported: SCHEMA_VERSION,
                        });
                    }
                }
                events.push(event);
            }
            Err(_) if is_retired(line) => {}
            Err(e) => {
                if idx == 0 && line.contains("\"ev\":\"run_header\"") {
                    if let Some(found) = sniff_schema(line) {
                        if found > SCHEMA_VERSION {
                            return Err(JournalError::Version {
                                found,
                                supported: SCHEMA_VERSION,
                            });
                        }
                    }
                }
                if torn_tail && lines.peek().is_none() {
                    break;
                }
                return Err(JournalError::Parse {
                    line: idx + 1,
                    message: e,
                });
            }
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vdx-obs-journal-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn write_finish_read_round_trip() {
        let path = temp_path("roundtrip.jsonl");
        let journal = Journal::create(&path).expect("create");
        journal
            .write(&Event::RunHeader {
                schema: SCHEMA_VERSION,
                experiment: "test".into(),
                seed: 1,
                scale: "small".into(),
                started_unix_ms: 0,
                threads: 0,
                git_commit: "unknown".into(),
            })
            .expect("write header");
        journal
            .write(&Event::RoundStarted {
                round: 0,
                design: "Brokered".into(),
                groups: 2,
                cdns: 1,
            })
            .expect("write round");
        assert_eq!(journal.len(), 2);
        journal.finish("test", 5).expect("finish");

        let events = read_journal(&path).expect("read");
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0], Event::RunHeader { .. }));
        assert!(matches!(
            events.last(),
            Some(Event::ExperimentFinished { events: 2, .. })
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_line_reports_position() {
        let path = temp_path("malformed.jsonl");
        fs::write(
            &path,
            "{\"ev\":\"phase_started\",\"phase\":\"ok\"}\nnot json\n",
        )
        .expect("write fixture");
        match read_journal(&path) {
            Err(JournalError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_reads_as_the_complete_lines_before_it() {
        let path = temp_path("torn.jsonl");
        let whole = "{\"ev\":\"phase_started\",\"phase\":\"ok\"}\n\
                     {\"ev\":\"phase_finished\",\"phase\":\"ok\",\"wall_us\":7}\n";
        // What a SIGKILLed writer leaves: the last line cut mid-string,
        // no trailing newline.
        let torn = &whole[..whole.len() - 20];
        fs::write(&path, torn).expect("write fixture");
        let events = read_journal(&path).expect("a torn tail is not an error");
        assert_eq!(
            events,
            vec![Event::PhaseStarted { phase: "ok".into() }],
            "the complete line survives, the torn one is dropped"
        );
        // The same cut line with more after it is garbage, not a tail.
        fs::write(&path, format!("{torn}\n{whole}")).expect("write fixture");
        match read_journal(&path) {
            Err(JournalError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        // And a bad last line that *was* terminated is a writer bug.
        fs::write(&path, format!("{torn}\n")).expect("write fixture");
        assert!(matches!(
            read_journal(&path),
            Err(JournalError::Parse { line: 2, .. })
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn newer_schema_journal_is_rejected() {
        let path = temp_path("future.jsonl");
        // A parseable header from a hypothetical v99 writer: unknown
        // fields are ignored by the reader, so the version check must
        // catch it.
        fs::write(
            &path,
            concat!(
                "{\"ev\":\"run_header\",\"schema\":99,\"experiment\":\"t\",",
                "\"seed\":1,\"scale\":\"small\",\"started_unix_ms\":0,",
                "\"from_the_future\":true}\n"
            ),
        )
        .expect("write fixture");
        match read_journal(&path) {
            Err(JournalError::Version {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, SCHEMA_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn newer_schema_is_sniffed_even_when_the_header_no_longer_parses() {
        let path = temp_path("future-shape.jsonl");
        // A v99 header that dropped the `seed` field entirely: Event
        // deserialization fails, but the raw schema number still tells
        // the real story.
        fs::write(
            &path,
            "{\"ev\":\"run_header\",\"schema\": 99,\"experiment\":\"t\"}\n",
        )
        .expect("write fixture");
        match read_journal(&path) {
            Err(JournalError::Version { found: 99, .. }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn older_v2_journal_still_reads() {
        let path = temp_path("v2.jsonl");
        fs::write(
            &path,
            concat!(
                "{\"ev\":\"run_header\",\"schema\":2,\"experiment\":\"t\",",
                "\"seed\":1,\"scale\":\"small\",\"started_unix_ms\":0}\n",
                "{\"ev\":\"phase_started\",\"phase\":\"ok\"}\n"
            ),
        )
        .expect("write fixture");
        let events = read_journal(&path).expect("v2 reads");
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            Event::RunHeader {
                schema: 2,
                threads: 0,
                ..
            }
        ));
        fs::remove_file(&path).ok();
    }

    /// A v6 journal as `repro table3` wrote it: a `solver_resolve` line
    /// (retired in v7) before a seven-field `solver_stats`, and a
    /// `conn_retry` without a `reason`.
    #[test]
    fn v6_journal_reads_without_its_retired_lines() {
        let path = temp_path("v6.jsonl");
        fs::write(
            &path,
            concat!(
                "{\"ev\":\"run_header\",\"schema\":6,\"experiment\":\"table3\",",
                "\"seed\":2017,\"scale\":\"full\",\"started_unix_ms\":0,",
                "\"threads\":4,\"git_commit\":\"abc123def456\"}\n",
                "{\"ev\":\"solver_resolve\",\"round\":0,\"changed_clients\":2718,",
                "\"changed_buckets\":341,\"warm_eligible\":false}\n",
                "{\"ev\":\"solver_stats\",\"round\":0,\"mode\":\"heuristic\",\"pivots\":0,",
                "\"bnb_nodes\":0,\"optimality_gap\":null,\"objective\":-1.5}\n",
                "{\"ev\":\"conn_retry\",\"at_ms\":3,\"cdn\":1,\"attempt\":1,",
                "\"backoff_ms\":50}\n"
            ),
        )
        .expect("write fixture");
        let events = read_journal(&path).expect("v6 reads");
        assert!(matches!(events[0], Event::RunHeader { schema: 6, .. }));
        assert_eq!(
            events[1..],
            [
                Event::SolverStats {
                    round: 0,
                    objective: -1.5,
                    warm_hit: false,
                },
                Event::ConnRetry {
                    at_ms: 3,
                    cdn: 1,
                    attempt: 1,
                    backoff_ms: 50,
                    reason: String::new(),
                },
            ]
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn create_makes_parent_directories() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("vdx-obs-journal-nested-{}", std::process::id()));
        let path = dir.join("deep").join("run.jsonl");
        let journal = Journal::create(&path).expect("create nested");
        assert!(journal.is_empty());
        drop(journal);
        assert!(path.exists());
        fs::remove_dir_all(&dir).ok();
    }
}
