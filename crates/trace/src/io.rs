//! Trace serialization: JSON for whole traces, CSV for session records.
//!
//! JSON (via serde) is the fidelity format — it round-trips every field.
//! The CSV codec mirrors how such traces are actually shipped between
//! operators: one session per line, switches encoded as a
//! `time@CDN;time@CDN` list. Both directions validate their input and
//! return typed errors rather than panicking on malformed data.

use crate::broker::{BrokerTrace, CdnLabel, SessionId, SessionRecord};
use std::fmt;
use vdx_geo::CityId;

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceIoError {
    /// A CSV line had the wrong number of fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Number of fields found.
        got: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
        /// Offending content.
        content: String,
    },
    /// JSON (de)serialization failed.
    Json(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::FieldCount { line, got } => {
                write!(f, "line {line}: expected 9 fields, got {got}")
            }
            TraceIoError::BadField {
                line,
                field,
                content,
            } => {
                write!(f, "line {line}: bad {field}: {content:?}")
            }
            TraceIoError::Json(msg) => write!(f, "json error: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

/// Serializes a whole trace (config + sessions) to JSON.
pub fn to_json(trace: &BrokerTrace) -> Result<String, TraceIoError> {
    serde_json::to_string(trace).map_err(|e| TraceIoError::Json(e.to_string()))
}

/// Deserializes a trace from JSON produced by [`to_json`].
pub fn from_json(json: &str) -> Result<BrokerTrace, TraceIoError> {
    serde_json::from_str(json).map_err(|e| TraceIoError::Json(e.to_string()))
}

/// CSV header for [`sessions_to_csv`].
pub const CSV_HEADER: &str =
    "id,arrival_s,video,bitrate_kbps,duration_s,city,asn,initial_cdn,switches";

fn label_code(label: CdnLabel) -> &'static str {
    match label {
        CdnLabel::A => "A",
        CdnLabel::B => "B",
        CdnLabel::C => "C",
        CdnLabel::Other => "other",
    }
}

fn parse_label(s: &str) -> Option<CdnLabel> {
    match s {
        "A" => Some(CdnLabel::A),
        "B" => Some(CdnLabel::B),
        "C" => Some(CdnLabel::C),
        "other" => Some(CdnLabel::Other),
        _ => None,
    }
}

/// Encodes session records as CSV (header + one line per session).
pub fn sessions_to_csv(sessions: &[SessionRecord]) -> String {
    let mut out = String::with_capacity(sessions.len() * 64 + CSV_HEADER.len() + 1);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for s in sessions {
        let switches = s
            .switches
            .iter()
            .map(|(t, c)| format!("{t}@{}", label_code(*c)))
            .collect::<Vec<_>>()
            .join(";");
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            s.id.0,
            s.arrival_s,
            s.video,
            s.bitrate_kbps,
            s.duration_s,
            s.city.0,
            s.asn,
            label_code(s.initial_cdn),
            switches
        ));
    }
    out
}

/// Decodes session records from CSV produced by [`sessions_to_csv`].
/// The header line is required.
pub fn sessions_from_csv(csv: &str) -> Result<Vec<SessionRecord>, TraceIoError> {
    let mut sessions = Vec::new();
    for (i, line) in csv.lines().enumerate() {
        if i == 0 {
            // Header; tolerate exact match only.
            if line != CSV_HEADER {
                return Err(TraceIoError::BadField {
                    line: 1,
                    field: "header",
                    content: line.to_string(),
                });
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 9 {
            return Err(TraceIoError::FieldCount {
                line: lineno,
                got: fields.len(),
            });
        }
        let bad = |field: &'static str, content: &str| TraceIoError::BadField {
            line: lineno,
            field,
            content: content.to_string(),
        };
        let id: u32 = fields[0].parse().map_err(|_| bad("id", fields[0]))?;
        let arrival_s: f64 = fields[1].parse().map_err(|_| bad("arrival_s", fields[1]))?;
        let video: u32 = fields[2].parse().map_err(|_| bad("video", fields[2]))?;
        let bitrate_kbps: u32 = fields[3]
            .parse()
            .map_err(|_| bad("bitrate_kbps", fields[3]))?;
        let duration_s: f64 = fields[4]
            .parse()
            .map_err(|_| bad("duration_s", fields[4]))?;
        let city: u32 = fields[5].parse().map_err(|_| bad("city", fields[5]))?;
        let asn: u32 = fields[6].parse().map_err(|_| bad("asn", fields[6]))?;
        let initial_cdn = parse_label(fields[7]).ok_or_else(|| bad("initial_cdn", fields[7]))?;
        let mut switches = Vec::new();
        if !fields[8].is_empty() {
            for part in fields[8].split(';') {
                let (t, c) = part.split_once('@').ok_or_else(|| bad("switches", part))?;
                let time: f64 = t.parse().map_err(|_| bad("switch time", t))?;
                let cdn = parse_label(c).ok_or_else(|| bad("switch cdn", c))?;
                switches.push((time, cdn));
            }
        }
        sessions.push(SessionRecord {
            id: SessionId(id),
            arrival_s,
            video,
            bitrate_kbps,
            duration_s,
            city: CityId(city),
            asn,
            initial_cdn,
            switches,
        });
    }
    Ok(sessions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerTraceConfig;
    use vdx_geo::{World, WorldConfig};

    fn trace() -> BrokerTrace {
        let world = World::generate(&WorldConfig::default(), 2);
        BrokerTrace::generate(&world, &BrokerTraceConfig::small(), 2)
    }

    #[test]
    fn json_roundtrip() {
        let t = trace();
        let json = to_json(&t).expect("serializes");
        let back = from_json(&json).expect("deserializes");
        assert_eq!(t.sessions(), back.sessions());
    }

    #[test]
    fn csv_roundtrip() {
        let t = trace();
        let csv = sessions_to_csv(t.sessions());
        let back = sessions_from_csv(&csv).expect("parses");
        assert_eq!(t.sessions(), &back[..]);
    }

    #[test]
    fn csv_rejects_bad_header() {
        let err = sessions_from_csv("nope\n").unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::BadField {
                field: "header",
                ..
            }
        ));
    }

    #[test]
    fn csv_rejects_short_lines() {
        let csv = format!("{CSV_HEADER}\n1,2,3\n");
        let err = sessions_from_csv(&csv).unwrap_err();
        assert_eq!(err, TraceIoError::FieldCount { line: 2, got: 3 });
    }

    #[test]
    fn csv_rejects_bad_cdn() {
        let csv = format!("{CSV_HEADER}\n0,0.0,1,235,5.0,3,64512,Z,\n");
        let err = sessions_from_csv(&csv).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::BadField {
                field: "initial_cdn",
                ..
            }
        ));
    }

    #[test]
    fn csv_parses_switch_lists() {
        let csv = format!("{CSV_HEADER}\n0,0.5,1,235,100.0,3,64512,A,10.5@B;20@C\n");
        let sessions = sessions_from_csv(&csv).expect("parses");
        assert_eq!(
            sessions[0].switches,
            vec![(10.5, CdnLabel::B), (20.0, CdnLabel::C)]
        );
        assert_eq!(sessions[0].current_cdn(), CdnLabel::C);
    }

    #[test]
    fn error_display_is_informative() {
        let err = TraceIoError::BadField {
            line: 3,
            field: "asn",
            content: "x".into(),
        };
        assert!(err.to_string().contains("line 3"));
        assert!(err.to_string().contains("asn"));
    }
}
