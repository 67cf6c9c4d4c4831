//! Durable write-ahead log of exchange round boundaries.
//!
//! The exchange daemon (`vdx-exchanged`) keeps its round state — the
//! stale-bid cache, per-CDN breaker health, and the round counter — in
//! memory, so a crash mid-campaign would silently fork reality between
//! the daemon and the deterministic reference driver (ARCHITECTURE.md,
//! "two drivers, one core"). This module is the fix: an append-only log
//! of **round-boundary records** the daemon writes as each round runs,
//! from which a restarted daemon reconstructs exactly the state the
//! reference driver would be in.
//!
//! ## Framing
//!
//! The file starts with the 8-byte magic [`WAL_MAGIC`]. Every record is
//! length-prefixed and CRC-framed:
//!
//! ```text
//! [ len: u32 | payload: len bytes | crc32(payload): u32 ]   (big-endian)
//! ```
//!
//! using the same CRC-32 (IEEE; slicing-by-8, see [`vdx_proto::crc32`])
//! as the wire protocol's frames. The payload is one tag byte plus the
//! record's fixed-layout fields; bids are laid out by the wire protocol's
//! own codec ([`vdx_proto::wire::put_bid`]). [`Wal::append`] encodes the
//! record straight into its frame, in one buffer the log keeps. On
//! [`Wal::open`] the file is scanned record by record; the first short,
//! oversized, or checksum-failing record — or a length prefix the rest
//! of the file cannot hold — marks a **torn tail** (the crash
//! interrupted a write) and the file is physically truncated back to the
//! last whole record — a corrupt tail is never replayed. The scan
//! ([`Wal::open`] and [`read_records`] share it) reads through a 1 MiB
//! window: the file is never resident whole beside its decoded records.
//!
//! ## The exactly-once rule
//!
//! A round is **committed** if and only if its [`WalRecord::Settlement`]
//! record is durable (appended and fsynced). The daemon orders each
//! round as: `AnnounceOpen` → collect → `AnnounceClose` → `Bids` /
//! `Breaker` records → `Settlement` → **fsync** → *only then* send
//! Accept messages. Because nothing is externalized before the fsync:
//!
//! * a **committed** round is never re-run — recovery replays its
//!   settlement (and the cache/breaker records staged before it) into
//!   state and reports its [`DriverRound`] as already decided;
//! * an **uncommitted** round (an `AnnounceOpen` with no `Settlement`
//!   after it) is **voided** — every record staged for it is ignored by
//!   [`replay`], and the restarted daemon re-runs the round from the
//!   restored state. Re-running is safe precisely because no Accept for
//!   it was ever sent.
//!
//! So each round's decision is externalized exactly once, and the
//! recovered `DriverRound` sequence equals an uninterrupted run's — the
//! property the chaos harness (`repro chaos`) asserts byte-for-byte.
//!
//! ## Checkpoints
//!
//! A [`WalRecord::Checkpoint`] is an inline, full image of the
//! recoverable state (cache slots, breaker snapshots, next round).
//! Replay state after a checkpoint record depends only on records at or
//! after it, so recovery cost stays bounded as the log grows; the log
//! itself is never compacted (settlement history is what the chaos
//! parity check reads back).

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use vdx_broker::{BreakerSnapshot, HealthState};
use vdx_proto::wire::{get_bid, put_bid, Cursor, BID_LEN};
use vdx_proto::{crc32, Bid};

use crate::exchange::{DriverRound, RoundResolution};

/// File magic: identifies a VDX exchange WAL, version 1 of the format.
pub const WAL_MAGIC: &[u8; 8] = b"VDXWAL1\n";

/// Upper bound on one record's payload; a larger length prefix can only
/// be corruption and is treated as a torn tail.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// How much of the file a scan holds at a time. A log is read through
/// this window, never whole: what stays resident after a restart is the
/// decoded records, not a second copy of them as file bytes.
const SCAN_WINDOW: usize = 1 << 20;

const TAG_ANNOUNCE_OPEN: u8 = 0x01;
const TAG_ANNOUNCE_CLOSE: u8 = 0x02;
const TAG_BIDS: u8 = 0x03;
const TAG_BREAKER: u8 = 0x04;
const TAG_SETTLEMENT: u8 = 0x05;
const TAG_CHECKPOINT: u8 = 0x06;

/// One durable round-boundary record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The Announce window for `round` opened (Shares going out). The
    /// first record of every round attempt; a later attempt of the same
    /// round (after a crash voided the first) re-opens it.
    AnnounceOpen {
        /// The round being attempted.
        round: u64,
    },
    /// The Announce window for `round` closed at the deadline.
    AnnounceClose {
        /// The round.
        round: u64,
        /// CDNs that answered with a fresh Announce in time.
        answered: u32,
    },
    /// Fresh bids the round accepted from one CDN — exactly what enters
    /// the stale-bid cache, logged so recovery can re-`store` it.
    Bids {
        /// Round the bids were accepted in.
        round: u64,
        /// The bidding CDN.
        cdn: u32,
        /// The accepted bids, verbatim.
        bids: Vec<Bid>,
    },
    /// One CDN's breaker state after the round's health observations.
    /// A full snapshot rather than a delta: replay applies the last
    /// committed one, no transition arithmetic required.
    Breaker {
        /// Round the observation belongs to.
        round: u64,
        /// The CDN.
        cdn: u32,
        /// The breaker's complete mutable state.
        snapshot: BreakerSnapshot,
    },
    /// The round's settlement: the full decision fingerprint. Durable
    /// settlement is the commit point of the exactly-once rule.
    Settlement(DriverRound),
    /// Inline full image of the recoverable state; replay after this
    /// record no longer depends on anything before it.
    Checkpoint {
        /// First round not yet run at capture time.
        next_round: u64,
        /// Stale-bid cache slots, verbatim (`entry` view, TTL ignored).
        cache: Vec<Option<(u64, Vec<Bid>)>>,
        /// One breaker snapshot per CDN, in CDN index order.
        breakers: Vec<BreakerSnapshot>,
    },
}

/// Errors opening or appending to a WAL. Torn or corrupt *tails* are
/// not errors — they are truncated, per the module contract.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file exists but does not start with [`WAL_MAGIC`] — it is not
    /// a WAL (or not this version); refusing to touch it.
    BadMagic,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadMagic => write!(f, "not a VDX wal (bad magic)"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// The result of [`Wal::open`]: the append handle plus everything the
/// existing file held.
#[derive(Debug)]
pub struct WalOpen {
    /// The opened log, positioned for appending.
    pub wal: Wal,
    /// Every whole, checksum-valid record, in file order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn/corrupt tail that were truncated away (0 for a
    /// clean file).
    pub truncated_bytes: u64,
}

/// An open, append-only WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// The record being appended, framed in place; kept between appends
    /// so its allocation is made once.
    frame: Vec<u8>,
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path`, validates the
    /// magic, scans every record, and truncates any torn or corrupt
    /// tail so the file ends on a whole record.
    pub fn open(path: impl AsRef<Path>) -> Result<WalOpen, WalError> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        let frame = Vec::new();
        if file_len < WAL_MAGIC.len() as u64 {
            // Empty (or torn before the magic finished): start fresh.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            return Ok(WalOpen {
                wal: Wal { file, path, frame },
                records: Vec::new(),
                truncated_bytes: 0,
            });
        }
        let (records, valid_len) = scan(&file, file_len)?;
        let truncated_bytes = file_len - valid_len;
        if truncated_bytes > 0 {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(WalOpen {
            wal: Wal { file, path, frame },
            records,
            truncated_bytes,
        })
    }

    /// Truncates the WAL at `path` back to an empty (magic-only) log —
    /// the clean-slate start of the OPERATIONS.md runbook.
    pub fn reset(path: impl AsRef<Path>) -> Result<(), WalError> {
        let opened = Wal::open(path)?;
        let file = opened.wal.file;
        file.set_len(WAL_MAGIC.len() as u64)?;
        file.sync_data()?;
        Ok(())
    }

    /// The file this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (buffered by the OS; not yet durable — call
    /// [`sync`](Wal::sync) at commit points). The record is encoded
    /// straight into its frame and written with one call.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0; 4]); // length, patched below
        encode_record(frame, record);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_be_bytes());
        let crc = crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_be_bytes());
        self.file.write_all(frame)?;
        Ok(())
    }

    /// Forces everything appended so far to stable storage. This is the
    /// explicit fsync point of the exactly-once rule: a round is
    /// committed when its `Settlement` has been appended *and* synced.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// Reads the records of the WAL at `path` without modifying the file:
/// `(records, trailing_garbage_bytes)`. The read-only twin of
/// [`Wal::open`] for inspection (the chaos harness polls a live
/// daemon's log with this).
pub fn read_records(path: impl AsRef<Path>) -> Result<(Vec<WalRecord>, u64), WalError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < WAL_MAGIC.len() as u64 {
        return Ok((Vec::new(), file_len));
    }
    let (records, valid_len) = scan(&file, file_len)?;
    Ok((records, file_len - valid_len))
}

/// Scans a log of `file_len` bytes from its first byte: checks the magic,
/// then reads framed records through a [`SCAN_WINDOW`]-sized buffer and
/// one reused payload buffer. Returns the decoded records and the byte
/// length of the valid prefix (magic included); stops at the first torn
/// or corrupt frame. Every record's CRC is verified before it is decoded.
fn scan(reader: impl Read, file_len: u64) -> Result<(Vec<WalRecord>, u64), WalError> {
    let mut reader = BufReader::with_capacity(SCAN_WINDOW, reader);
    let mut magic = [0u8; WAL_MAGIC.len()];
    reader.read_exact(&mut magic)?;
    if &magic != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let mut records = Vec::new();
    let mut payload = Vec::new();
    let mut word = [0u8; 4];
    let mut pos = WAL_MAGIC.len() as u64;
    // A frame is at least its length and CRC words.
    while file_len - pos >= 8 {
        reader.read_exact(&mut word)?;
        let len = u32::from_be_bytes(word);
        // A length the file cannot hold is a torn tail (or corruption),
        // decided before anything is allocated for it.
        if len > MAX_RECORD_LEN || u64::from(len) > file_len - pos - 8 {
            break;
        }
        payload.resize(len as usize, 0);
        reader.read_exact(&mut payload)?;
        reader.read_exact(&mut word)?;
        if u32::from_be_bytes(word) != crc32(&payload) {
            break;
        }
        let Some(record) = decode_record(&payload) else {
            // Checksum-valid but undecodable: a format we do not speak
            // (version skew). Treat like a torn tail — never replay
            // bytes we cannot interpret.
            break;
        };
        records.push(record);
        pos += 8 + u64::from(len);
    }
    Ok((records, pos))
}

// ---------------------------------------------------------------------
// Record encoding (fixed layout, big-endian, tag byte first)
// ---------------------------------------------------------------------

fn resolution_code(r: RoundResolution) -> u8 {
    match r {
        RoundResolution::Fresh => 0,
        RoundResolution::Degraded => 1,
        RoundResolution::Fallback => 2,
    }
}

fn resolution_from_code(code: u8) -> Option<RoundResolution> {
    match code {
        0 => Some(RoundResolution::Fresh),
        1 => Some(RoundResolution::Degraded),
        2 => Some(RoundResolution::Fallback),
        _ => None,
    }
}

fn put_bids(out: &mut Vec<u8>, bids: &[Bid]) {
    out.extend_from_slice(&(bids.len() as u32).to_be_bytes());
    for bid in bids {
        put_bid(out, bid);
    }
}

fn put_snapshot(out: &mut Vec<u8>, snap: &BreakerSnapshot) {
    out.push(snap.state.code());
    out.extend_from_slice(&snap.consecutive_failures.to_be_bytes());
    out.extend_from_slice(&snap.opened_at.to_be_bytes());
}

/// Appends the payload of `record` (tag byte, then its fields) to `out`.
fn encode_record(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::AnnounceOpen { round } => {
            out.push(TAG_ANNOUNCE_OPEN);
            out.extend_from_slice(&round.to_be_bytes());
        }
        WalRecord::AnnounceClose { round, answered } => {
            out.push(TAG_ANNOUNCE_CLOSE);
            out.extend_from_slice(&round.to_be_bytes());
            out.extend_from_slice(&answered.to_be_bytes());
        }
        WalRecord::Bids { round, cdn, bids } => {
            out.push(TAG_BIDS);
            out.extend_from_slice(&round.to_be_bytes());
            out.extend_from_slice(&cdn.to_be_bytes());
            put_bids(out, bids);
        }
        WalRecord::Breaker {
            round,
            cdn,
            snapshot,
        } => {
            out.push(TAG_BREAKER);
            out.extend_from_slice(&round.to_be_bytes());
            out.extend_from_slice(&cdn.to_be_bytes());
            put_snapshot(out, snapshot);
        }
        WalRecord::Settlement(dr) => {
            out.push(TAG_SETTLEMENT);
            out.extend_from_slice(&dr.round.to_be_bytes());
            out.push(resolution_code(dr.resolution));
            out.extend_from_slice(&dr.objective.to_bits().to_be_bytes());
            out.extend_from_slice(&(dr.picks.len() as u32).to_be_bytes());
            for (cdn, cluster) in &dr.picks {
                out.extend_from_slice(&cdn.to_be_bytes());
                out.extend_from_slice(&cluster.to_be_bytes());
            }
        }
        WalRecord::Checkpoint {
            next_round,
            cache,
            breakers,
        } => {
            out.push(TAG_CHECKPOINT);
            out.extend_from_slice(&next_round.to_be_bytes());
            out.extend_from_slice(&(cache.len() as u32).to_be_bytes());
            for slot in cache {
                match slot {
                    None => out.push(0),
                    Some((round, bids)) => {
                        out.push(1);
                        out.extend_from_slice(&round.to_be_bytes());
                        put_bids(out, bids);
                    }
                }
            }
            out.extend_from_slice(&(breakers.len() as u32).to_be_bytes());
            for snap in breakers {
                put_snapshot(out, snap);
            }
        }
    }
}

/// A batch count can at most be the remaining bytes over the per-entry
/// size — reject anything larger before allocating.
fn plausible(count: u32, entry_len: usize, cur: &Cursor<'_>) -> bool {
    (count as usize).saturating_mul(entry_len) <= cur.rest().len()
}

fn get_bids(cur: &mut Cursor<'_>) -> Option<Vec<Bid>> {
    let count = cur.u32()?;
    if !plausible(count, BID_LEN, cur) {
        return None;
    }
    let mut bids = Vec::with_capacity(count as usize);
    for _ in 0..count {
        bids.push(get_bid(cur)?);
    }
    Some(bids)
}

fn get_snapshot(cur: &mut Cursor<'_>) -> Option<BreakerSnapshot> {
    Some(BreakerSnapshot {
        state: HealthState::from_code(cur.u8()?)?,
        consecutive_failures: cur.u32()?,
        opened_at: cur.u64()?,
    })
}

/// Decodes one record payload; every failure — a short read, an unknown
/// tag, trailing bytes — collapses to `None` (= corrupt, never replayed).
fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut cur = Cursor::new(payload);
    let record = match cur.u8()? {
        TAG_ANNOUNCE_OPEN => WalRecord::AnnounceOpen { round: cur.u64()? },
        TAG_ANNOUNCE_CLOSE => WalRecord::AnnounceClose {
            round: cur.u64()?,
            answered: cur.u32()?,
        },
        TAG_BIDS => WalRecord::Bids {
            round: cur.u64()?,
            cdn: cur.u32()?,
            bids: get_bids(&mut cur)?,
        },
        TAG_BREAKER => WalRecord::Breaker {
            round: cur.u64()?,
            cdn: cur.u32()?,
            snapshot: get_snapshot(&mut cur)?,
        },
        TAG_SETTLEMENT => {
            let round = cur.u64()?;
            let resolution = resolution_from_code(cur.u8()?)?;
            let objective = cur.f64()?;
            let count = cur.u32()?;
            if !plausible(count, 8, &cur) {
                return None;
            }
            let mut picks = Vec::with_capacity(count as usize);
            for _ in 0..count {
                picks.push((cur.u32()?, cur.u32()?));
            }
            WalRecord::Settlement(DriverRound {
                round,
                resolution,
                picks,
                objective,
            })
        }
        TAG_CHECKPOINT => {
            let next_round = cur.u64()?;
            let slots = cur.u32()?;
            if !plausible(slots, 1, &cur) {
                return None;
            }
            let mut cache = Vec::with_capacity(slots as usize);
            for _ in 0..slots {
                cache.push(match cur.u8()? {
                    0 => None,
                    1 => Some((cur.u64()?, get_bids(&mut cur)?)),
                    _ => return None,
                });
            }
            let n = cur.u32()?;
            if !plausible(n, 13, &cur) {
                return None;
            }
            let mut breakers = Vec::with_capacity(n as usize);
            for _ in 0..n {
                breakers.push(get_snapshot(&mut cur)?);
            }
            WalRecord::Checkpoint {
                next_round,
                cache,
                breakers,
            }
        }
        _ => return None,
    };
    cur.rest().is_empty().then_some(record)
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What [`replay`] reconstructs from a record sequence: the committed
/// state a restarted daemon resumes from.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Every committed round's decision fingerprint, in round order —
    /// the durable half of the chaos parity check.
    pub rounds: Vec<DriverRound>,
    /// Committed stale-bid cache content, one slot per CDN:
    /// `(stored_round, bids)`.
    pub cache: Vec<Option<(u64, Vec<Bid>)>>,
    /// Committed breaker state, one slot per CDN; `None` means the CDN
    /// never had a committed observation (fresh breaker).
    pub breakers: Vec<Option<BreakerSnapshot>>,
    /// The first round the daemon should run next.
    pub next_round: u64,
    /// An in-flight round that was open but never settled — **voided**:
    /// its staged records were ignored and it must be re-run.
    pub voided: Option<u64>,
}

/// Replays a scanned record sequence into committed state, applying the
/// exactly-once rule: records staged after the last `Settlement` (or
/// `Checkpoint`) belong to a voided round attempt and are discarded.
/// `cdns` sizes the per-CDN vectors; records naming an out-of-range CDN
/// are ignored (they cannot belong to this scenario).
pub fn replay(records: Vec<WalRecord>, cdns: usize) -> Recovery {
    let mut recovery = Recovery {
        rounds: Vec::new(),
        cache: vec![None; cdns],
        breakers: vec![None; cdns],
        next_round: 0,
        voided: None,
    };
    let mut staged_cache: Vec<Option<(u64, Vec<Bid>)>> = vec![None; cdns];
    let mut staged_breakers: Vec<Option<BreakerSnapshot>> = vec![None; cdns];
    let mut open_round: Option<u64> = None;
    for record in records {
        match record {
            WalRecord::AnnounceOpen { round } => {
                open_round = Some(round);
                staged_cache.iter_mut().for_each(|s| *s = None);
                staged_breakers.iter_mut().for_each(|s| *s = None);
            }
            WalRecord::AnnounceClose { .. } => {}
            WalRecord::Bids { round, cdn, bids } => {
                if let Some(slot) = staged_cache.get_mut(cdn as usize) {
                    *slot = Some((round, bids));
                }
            }
            WalRecord::Breaker { cdn, snapshot, .. } => {
                if let Some(slot) = staged_breakers.get_mut(cdn as usize) {
                    *slot = Some(snapshot);
                }
            }
            WalRecord::Settlement(dr) => {
                for (committed, staged) in recovery.cache.iter_mut().zip(staged_cache.iter_mut()) {
                    if let Some(entry) = staged.take() {
                        *committed = Some(entry);
                    }
                }
                for (committed, staged) in
                    recovery.breakers.iter_mut().zip(staged_breakers.iter_mut())
                {
                    if let Some(snap) = staged.take() {
                        *committed = Some(snap);
                    }
                }
                recovery.next_round = dr.round.saturating_add(1);
                recovery.rounds.push(dr);
                open_round = None;
            }
            WalRecord::Checkpoint {
                next_round,
                cache,
                breakers,
            } => {
                recovery.cache = resize_to(cache, cdns);
                recovery.breakers = resize_to(breakers.into_iter().map(Some).collect(), cdns);
                recovery.next_round = next_round;
                staged_cache.iter_mut().for_each(|s| *s = None);
                staged_breakers.iter_mut().for_each(|s| *s = None);
                open_round = None;
            }
        }
    }
    recovery.voided = open_round;
    recovery
}

/// Pads or trims a checkpoint vector to the scenario's CDN count, so a
/// checkpoint from a mismatched scenario cannot panic replay.
fn resize_to<T>(mut v: Vec<Option<T>>, n: usize) -> Vec<Option<T>> {
    v.truncate(n);
    while v.len() < n {
        v.push(None);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdx_broker::{BreakerConfig, CircuitBreaker, StaleBidCache};
    use vdx_rand::prop::{bytes, check};

    fn bid(cluster: u64, share: u64) -> Bid {
        Bid {
            cluster_id: cluster,
            share_id: share,
            performance_estimate: 1.25,
            capacity_kbps: 10_000.0,
            price_per_mb: 0.03,
        }
    }

    fn settlement(round: u64) -> WalRecord {
        WalRecord::Settlement(DriverRound {
            round,
            resolution: RoundResolution::Fresh,
            picks: vec![(0, 1), (1, 2)],
            objective: 17.5 + round as f64,
        })
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::AnnounceOpen { round: 0 },
            WalRecord::AnnounceClose {
                round: 0,
                answered: 2,
            },
            WalRecord::Bids {
                round: 0,
                cdn: 0,
                bids: vec![bid(1, 0), bid(2, 1)],
            },
            WalRecord::Breaker {
                round: 0,
                cdn: 1,
                snapshot: BreakerSnapshot {
                    state: HealthState::Open,
                    consecutive_failures: 3,
                    opened_at: 0,
                },
            },
            settlement(0),
            WalRecord::Checkpoint {
                next_round: 1,
                cache: vec![Some((0, vec![bid(1, 0)])), None],
                breakers: vec![
                    BreakerSnapshot {
                        state: HealthState::Closed,
                        consecutive_failures: 0,
                        opened_at: 0,
                    },
                    BreakerSnapshot {
                        state: HealthState::HalfOpen,
                        consecutive_failures: 2,
                        opened_at: 5,
                    },
                ],
            },
        ]
    }

    fn temp_wal(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("vdx-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn write_all(path: &Path, records: &[WalRecord]) {
        let opened = Wal::open(path).expect("open");
        let mut wal = opened.wal;
        for r in records {
            wal.append(r).expect("append");
        }
        wal.sync().expect("sync");
    }

    #[test]
    fn every_record_kind_round_trips_through_the_file() {
        let path = temp_wal("roundtrip");
        let records = sample_records();
        write_all(&path, &records);
        let reopened = Wal::open(&path).expect("reopen");
        assert_eq!(reopened.records, records);
        assert_eq!(reopened.truncated_bytes, 0);
        let (read, garbage) = read_records(&path).expect("read");
        assert_eq!(read, records);
        assert_eq!(garbage, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let path = temp_wal("torn");
        let records = sample_records();
        let (last, whole) = records.split_last().expect("non-empty sample");
        write_all(&path, whole);
        let whole_len = std::fs::metadata(&path).expect("stat").len() as usize;
        write_all(&path, std::slice::from_ref(last));
        let full = std::fs::read(&path).expect("read file");
        // Tear the file at every byte of the last record: whatever is
        // left of it is the tail, exactly, and the rest is intact.
        for cut in 1..full.len() - whole_len {
            std::fs::write(&path, &full[..full.len() - cut]).expect("tear");
            let torn = (full.len() - cut - whole_len) as u64;
            let (read, garbage) = read_records(&path).expect("read torn");
            assert_eq!((&read[..], garbage), (whole, torn), "cut {cut}");
            let reopened = Wal::open(&path).expect("reopen torn");
            assert_eq!(reopened.records, whole, "cut {cut}");
            assert_eq!(reopened.truncated_bytes, torn, "cut {cut}");
            // The truncation is physical: a second open sees a clean file.
            drop(reopened);
            let again = Wal::open(&path).expect("third open");
            assert_eq!(again.truncated_bytes, 0);
            assert_eq!(again.records.len(), whole.len());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_length_prefix_beyond_the_end_of_the_file_is_a_torn_tail() {
        let path = temp_wal("long-prefix");
        write_all(&path, &[settlement(0)]);
        let good_len = std::fs::metadata(&path).expect("stat").len();
        // A plausible (under MAX_RECORD_LEN) length with no such bytes
        // behind it: the scan must stop on the prefix, not read for it.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&(MAX_RECORD_LEN - 1).to_be_bytes());
        bytes.extend_from_slice(&[0xAB; 100]);
        std::fs::write(&path, &bytes).expect("append junk");
        let (read, garbage) = read_records(&path).expect("read");
        assert_eq!(read, vec![settlement(0)]);
        assert_eq!(garbage, 104);
        let reopened = Wal::open(&path).expect("open");
        assert_eq!(reopened.truncated_bytes, 104);
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), good_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_straddling_the_scan_window_is_read_whole() {
        let path = temp_wal("straddle");
        // ~100 KB records: the eleventh begins inside the first window
        // and ends in the second.
        let records: Vec<WalRecord> = (0..13)
            .map(|round| WalRecord::Bids {
                round,
                cdn: 0,
                bids: (0..2_500).map(|i| bid(i, round)).collect(),
            })
            .collect();
        write_all(&path, &records);
        let file_len = std::fs::metadata(&path).expect("stat").len() as usize;
        let per_record = (file_len - WAL_MAGIC.len()) / records.len();
        assert!(SCAN_WINDOW % per_record != 0 && file_len > SCAN_WINDOW + per_record);
        let (read, garbage) = read_records(&path).expect("read");
        assert_eq!(garbage, 0);
        assert_eq!(read, records);
        assert_eq!(Wal::open(&path).expect("open").records, records);
        let _ = std::fs::remove_file(&path);
    }

    /// One framed `Bids` record exactly as the build before the in-place
    /// `append` wrote it (captured from it, not derived): magic, then
    /// `len 0x61 | tag 3 | round 7 | cdn 1 | count 2 | bid×2 | crc`.
    const GOLDEN_BIDS_LOG: [u8; 113] = [
        0x56, 0x44, 0x58, 0x57, 0x41, 0x4C, 0x31, 0x0A, 0x00, 0x00, 0x00, 0x61, 0x03, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x3F, 0xF4, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0xC3, 0x88, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x3F, 0x9E, 0xB8, 0x51, 0xEB, 0x85, 0x1E, 0xB8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x40, 0x56, 0x20, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x41, 0x2E, 0x84, 0x80, 0x00, 0x00, 0x00, 0x00, 0x3F, 0xF4, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0xE6, 0x8B, 0x2A, 0x9D,
    ];

    #[test]
    fn the_log_bytes_of_a_bids_record_are_unchanged() {
        let record = WalRecord::Bids {
            round: 7,
            cdn: 1,
            bids: vec![
                bid(1, 0),
                Bid {
                    cluster_id: 2,
                    share_id: 1,
                    performance_estimate: 88.5,
                    capacity_kbps: 1e6,
                    price_per_mb: 1.25,
                },
            ],
        };
        // The new encoder reproduces the old bytes...
        let path = temp_wal("golden");
        write_all(&path, std::slice::from_ref(&record));
        assert_eq!(std::fs::read(&path).expect("read"), GOLDEN_BIDS_LOG);
        // ...and the new scanner reads them.
        std::fs::write(&path, GOLDEN_BIDS_LOG).expect("write golden");
        assert_eq!(read_records(&path).expect("read"), (vec![record], 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_crc_marks_the_tail_from_that_record_on() {
        let path = temp_wal("corrupt");
        let records = sample_records();
        write_all(&path, &records);
        let mut bytes = std::fs::read(&path).expect("read file");
        // Flip a byte near the end (inside the last record's payload):
        // its CRC no longer matches, so it and anything after it dies.
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");
        let reopened = Wal::open(&path).expect("reopen corrupt");
        assert!(reopened.records.len() < records.len());
        assert!(reopened.truncated_bytes > 0);
        assert_eq!(reopened.records, records[..reopened.records.len()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appends_after_a_truncated_tail_continue_the_log() {
        let path = temp_wal("continue");
        write_all(
            &path,
            &[WalRecord::AnnounceOpen { round: 0 }, settlement(0)],
        );
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 3]).expect("tear");
        let opened = Wal::open(&path).expect("open");
        assert_eq!(opened.records, vec![WalRecord::AnnounceOpen { round: 0 }]);
        let mut wal = opened.wal;
        wal.append(&settlement(0)).expect("append");
        wal.sync().expect("sync");
        let (read, garbage) = read_records(&path).expect("read back");
        assert_eq!(garbage, 0);
        assert_eq!(
            read,
            vec![WalRecord::AnnounceOpen { round: 0 }, settlement(0)]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_foreign_file_is_refused_not_truncated() {
        let path = temp_wal("foreign");
        std::fs::write(&path, b"definitely not a wal, but 8+ bytes").expect("write");
        assert!(matches!(Wal::open(&path), Err(WalError::BadMagic)));
        assert!(matches!(read_records(&path), Err(WalError::BadMagic)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_leaves_an_empty_log() {
        let path = temp_wal("reset");
        write_all(&path, &sample_records());
        Wal::reset(&path).expect("reset");
        let (read, garbage) = read_records(&path).expect("read");
        assert!(read.is_empty());
        assert_eq!(garbage, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_commits_settled_rounds_and_voids_the_open_one() {
        let records = vec![
            WalRecord::AnnounceOpen { round: 0 },
            WalRecord::Bids {
                round: 0,
                cdn: 0,
                bids: vec![bid(1, 0)],
            },
            settlement(0),
            // Round 1 opened, staged bids and a breaker change, but the
            // crash hit before its settlement: all of it is void.
            WalRecord::AnnounceOpen { round: 1 },
            WalRecord::Bids {
                round: 1,
                cdn: 1,
                bids: vec![bid(9, 9)],
            },
            WalRecord::Breaker {
                round: 1,
                cdn: 1,
                snapshot: BreakerSnapshot {
                    state: HealthState::Open,
                    consecutive_failures: 3,
                    opened_at: 1,
                },
            },
        ];
        let recovery = replay(records, 2);
        assert_eq!(recovery.rounds.len(), 1);
        assert_eq!(recovery.next_round, 1);
        assert_eq!(recovery.voided, Some(1));
        assert_eq!(recovery.cache[0], Some((0, vec![bid(1, 0)])));
        assert_eq!(recovery.cache[1], None, "voided bids never commit");
        assert_eq!(recovery.breakers[1], None, "voided breaker never commits");
    }

    /// A log from a different scenario — records naming CDNs this one
    /// does not have, checkpoints of another width — replays without a
    /// panic, and what it says about the CDNs that do exist still counts.
    #[test]
    fn replay_ignores_cdn_ids_and_checkpoint_widths_of_another_scenario() {
        let snapshot = BreakerSnapshot {
            state: HealthState::Open,
            consecutive_failures: 3,
            opened_at: 0,
        };
        let own = vec![
            WalRecord::AnnounceOpen { round: 0 },
            WalRecord::Bids {
                round: 0,
                cdn: 1,
                bids: vec![bid(1, 0)],
            },
            WalRecord::Breaker {
                round: 0,
                cdn: 0,
                snapshot,
            },
            settlement(0),
        ];
        let mut mixed = own.clone();
        for cdn in [2, u32::MAX] {
            mixed.insert(
                1,
                WalRecord::Bids {
                    round: 0,
                    cdn,
                    bids: vec![bid(9, 9)],
                },
            );
            mixed.insert(
                1,
                WalRecord::Breaker {
                    round: 0,
                    cdn,
                    snapshot,
                },
            );
        }
        assert_eq!(replay(mixed, 2), replay(own.clone(), 2));

        // A checkpoint wider than the scenario is trimmed, a narrower one
        // padded with fresh slots; the slots both have keep their content.
        let checkpoint = |width: usize| WalRecord::Checkpoint {
            next_round: 5,
            cache: (0..width as u64)
                .map(|c| Some((4, vec![bid(c, c)])))
                .collect(),
            breakers: vec![snapshot; width],
        };
        let wide = replay(vec![checkpoint(3)], 2);
        assert_eq!(wide.cache, replay(vec![checkpoint(2)], 2).cache);
        assert_eq!(wide.breakers, vec![Some(snapshot); 2]);
        let narrow = replay(vec![checkpoint(1)], 2);
        assert_eq!(narrow.cache, vec![Some((4, vec![bid(0, 0)])), None]);
        assert_eq!(narrow.breakers, vec![Some(snapshot), None]);
        assert_eq!((wide.next_round, narrow.next_round), (5, 5));
    }

    #[test]
    fn replay_after_a_checkpoint_ignores_history_before_it() {
        let mut records = sample_records();
        let suffix = vec![
            WalRecord::AnnounceOpen { round: 1 },
            WalRecord::Bids {
                round: 1,
                cdn: 1,
                bids: vec![bid(4, 2)],
            },
            settlement(1),
        ];
        records.extend(suffix.clone());
        let full = replay(records, 2);
        // State reconstructed from the checkpoint + suffix alone must
        // match — the checkpoint's reason to exist.
        let mut from_checkpoint = vec![sample_records()[5].clone()];
        from_checkpoint.extend(suffix);
        let short = replay(from_checkpoint, 2);
        assert_eq!(full.cache, short.cache);
        assert_eq!(full.breakers, short.breakers);
        assert_eq!(full.next_round, short.next_round);
        assert_eq!(full.voided, short.voided);
    }

    #[test]
    fn breaker_state_round_trips_through_wal_encode_decode() {
        // Satellite contract: a breaker walked into each reachable
        // state survives WAL encode → decode → restore bit-exactly.
        let config = BreakerConfig {
            trip_after: 2,
            cooldown_rounds: 3,
        };
        let mut walked = CircuitBreaker::new(config);
        walked.on_failure(0);
        walked.on_failure(1); // trips Open at round 1
        walked.begin_round(4); // cooldown elapsed: HalfOpen
        for (case, b) in [("fresh", CircuitBreaker::new(config)), ("walked", walked)] {
            let record = WalRecord::Breaker {
                round: 7,
                cdn: 0,
                snapshot: b.snapshot(),
            };
            let mut payload = Vec::new();
            encode_record(&mut payload, &record);
            let decoded = decode_record(&payload).expect("decode");
            let WalRecord::Breaker { snapshot, .. } = decoded else {
                panic!("wrong record kind for {case}");
            };
            assert_eq!(snapshot, b.snapshot(), "{case}");
            let restored = CircuitBreaker::restore(config, snapshot);
            assert_eq!(restored.state(), b.state(), "{case}");
            assert_eq!(
                restored.consecutive_failures(),
                b.consecutive_failures(),
                "{case}"
            );
        }
    }

    /// Recovery never resurrects an expired bid: whatever round the WAL
    /// says bids were stored in, a post-recovery fetch obeys the same TTL
    /// arithmetic the uninterrupted cache would have — anything older
    /// than the TTL stays dead.
    #[test]
    fn recovery_never_resurrects_an_expired_bid() {
        check(
            256,
            |rng| {
                (
                    rng.gen_range(0u64..1_000),
                    rng.gen_range(0u64..10),
                    rng.gen_range(0u64..40),
                    rng.gen_range(0u64..5),
                )
            },
            |&(stored_round, ttl, age, nbids)| {
                let bids: Vec<Bid> = (0..nbids).map(|i| bid(i, i)).collect();
                let records = vec![
                    WalRecord::AnnounceOpen {
                        round: stored_round,
                    },
                    WalRecord::Bids {
                        round: stored_round,
                        cdn: 0,
                        bids: bids.clone(),
                    },
                    WalRecord::Settlement(DriverRound {
                        round: stored_round,
                        resolution: RoundResolution::Fresh,
                        picks: vec![],
                        objective: 0.0,
                    }),
                ];
                let recovery = replay(records, 1);
                let mut cache: StaleBidCache<Vec<Bid>> = StaleBidCache::new(1, ttl);
                for (cdn, slot) in recovery.cache.into_iter().enumerate() {
                    if let Some((round, bids)) = slot {
                        cache.store(cdn, round, bids);
                    }
                }
                let now = stored_round + age;
                let fetched = cache.fetch(0, now);
                if age <= ttl {
                    assert_eq!(fetched, Some((age, &bids)), "within ttl: reusable");
                } else {
                    assert_eq!(fetched, None, "expired bids must stay dead after recovery");
                }
            },
        );
    }

    /// Framing fuzz: any byte soup after the magic scans without
    /// panicking, and whatever records come back are a prefix property —
    /// scanning is fail-stop, never fail-garble.
    #[test]
    fn scanning_arbitrary_bytes_never_panics() {
        check(
            256,
            |rng| bytes(rng, 0..600),
            |bytes| {
                let mut buf = WAL_MAGIC.to_vec();
                buf.extend_from_slice(bytes);
                let (records, valid_len) = scan(&buf[..], buf.len() as u64).expect("scans");
                assert!(valid_len as usize <= buf.len());
                // Re-scanning the valid prefix reproduces the same records.
                let (again, again_len) =
                    scan(&buf[..valid_len as usize], valid_len).expect("rescans");
                assert_eq!(records, again);
                assert_eq!(valid_len, again_len);
            },
        );
    }
}
