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
//! using the same CRC-32 (IEEE, see [`vdx_proto::crc32`]) as the wire
//! protocol's frames. The payload is one tag byte plus the record's
//! fixed-layout fields; bids are laid out by the wire protocol's own codec
//! ([`vdx_proto::wire::put_bid`], [`vdx_proto::wire::get_bids`]).
//! [`Wal::append`] encodes the record straight into its frame, in one
//! buffer the log keeps. On
//! [`Wal::recover`] (and [`Wal::open`]) the file is scanned record by
//! record; the first short, oversized, or checksum-failing record — or a
//! length prefix the rest of the file cannot hold — marks a **torn tail**
//! (the crash interrupted a write) and the file is physically truncated
//! back to the last whole record — a corrupt tail is never replayed.
//!
//! There is one scan. A reader thread fills two half-window buffers from
//! the file while the scanning thread works through the other, so the
//! reads overlap the CRC; the buffers go back and forth over channels.
//! A record that lies wholly inside a buffer is checked and decoded where
//! it lies; only one that straddles two buffers, or is larger than one, is
//! assembled in a reused buffer first. Each checked record goes to a sink
//! as it is scanned, its bid batches as the sink asks for them: decoded
//! ([`WalRecord`]) for [`Wal::open`] and [`read_records`], which collect;
//! as where each batch lies in the file for [`Wal::recover`], whose sink
//! is [`Replay::apply`]. Every batch is validated either way — its count
//! against the bytes it takes — so both accept the same records and cut
//! the same tail. A restart thus folds the log into state in one pass
//! and decodes only the batches it keeps, at most one per CDN, which it
//! reads back after the scan (their records' CRCs checked once more); a
//! superseded batch is never decoded.
//!
//! ## The exactly-once rule
//!
//! A round is **committed** if and only if its [`Record::Settlement`]
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
//! A [`Record::Checkpoint`] is an inline, full image of the
//! recoverable state (cache slots, breaker snapshots, next round):
//! replay state after a checkpoint record depends only on records at or
//! after it. It does not bound recovery today: the log is one file,
//! never compacted (settlement history is what the chaos parity check
//! reads back), and every restart scans and folds every record. A
//! checkpoint is the image a segmented log (ROADMAP 3(a)) would start
//! recovery from.

#![deny(clippy::indexing_slicing)]

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;

use vdx_broker::{BreakerSnapshot, HealthState};
use vdx_proto::wire::{put_bid, take_bids, BidBatch, Cursor};
use vdx_proto::{crc32, Bid};

use crate::exchange::{DriverRound, RoundResolution};

/// File magic: identifies a VDX exchange WAL, version 1 of the format.
pub const WAL_MAGIC: &[u8; 8] = b"VDXWAL1\n";

/// Upper bound on one record's payload (16 MiB): the largest record the
/// exchange's designs log at the paper's scale — a Marketplace round's
/// `Checkpoint`, 7,520,501 B for 188,003 cached bids — under DESIGN.md
/// §2's headroom rule (the smallest power of two at least twice the
/// measured maximum). [`Wal::append`] refuses a larger record; a larger
/// length prefix on disk can only be corruption and is treated as a torn
/// tail.
pub const MAX_RECORD_LEN: u32 = 16 << 20;

/// How much of the file a scan holds at a time: [`SCAN_BUFFERS`] buffers
/// of an equal share, one being scanned while the reader thread fills
/// the next. A log is read through this window, never whole: besides it,
/// a scan holds only a record that straddles two buffers (or is larger
/// than one), assembled, and what outlives the scan is whatever its sink
/// keeps.
const SCAN_WINDOW: usize = 1 << 20;

/// How many buffers share the [`SCAN_WINDOW`].
const SCAN_BUFFERS: usize = 2;

/// One scan buffer's size.
const SCAN_BUFFER: usize = SCAN_WINDOW / SCAN_BUFFERS;

const TAG_ANNOUNCE_OPEN: u8 = 0x01;
const TAG_ANNOUNCE_CLOSE: u8 = 0x02;
const TAG_BIDS: u8 = 0x03;
const TAG_BREAKER: u8 = 0x04;
const TAG_SETTLEMENT: u8 = 0x05;
const TAG_CHECKPOINT: u8 = 0x06;

/// One durable round-boundary record, its bid batches held as `B`: the
/// bids themselves ([`WalRecord`]) everywhere but inside
/// [`Wal::recover`], whose fold holds only where each batch lies.
#[derive(Debug, Clone, PartialEq)]
pub enum Record<B> {
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
        bids: B,
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
        cache: Vec<Option<(u64, B)>>,
        /// One breaker snapshot per CDN, in CDN index order.
        breakers: Vec<BreakerSnapshot>,
    },
}

/// A record with its bids: what is appended, and what [`Wal::open`] and
/// [`read_records`] return.
pub type WalRecord = Record<Vec<Bid>>;

/// Errors opening or appending to a WAL. Torn or corrupt *tails* are
/// not errors — they are truncated, per the module contract.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file exists but does not start with [`WAL_MAGIC`] — it is not
    /// a WAL (or not this version); refusing to touch it.
    BadMagic,
    /// A record whose payload (this many bytes) exceeds
    /// [`MAX_RECORD_LEN`]: a scan would take it for a torn tail, so it is
    /// never written.
    RecordTooLarge(usize),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadMagic => write!(f, "not a VDX wal (bad magic)"),
            WalError::RecordTooLarge(n) => write!(
                f,
                "wal record of {n} bytes exceeds the {MAX_RECORD_LEN}-byte limit"
            ),
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

/// The result of [`Wal::recover`]: the append handle plus the state the
/// existing file replays to.
#[derive(Debug)]
pub struct WalRecovery {
    /// The opened log, positioned for appending.
    pub wal: Wal,
    /// The committed state every whole, checksum-valid record replays to.
    pub recovery: Recovery,
    /// How many records were replayed.
    pub records: u64,
    /// Bytes of torn/corrupt tail that were truncated away (0 for a
    /// clean file).
    pub truncated_bytes: u64,
}

/// An open, append-only WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// The record being appended, framed in place; kept between appends
    /// so its allocation is made once.
    frame: Vec<u8>,
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path`, validates the magic,
    /// replays every record into the state of a daemon with `cdns` CDNs
    /// as it is scanned, and truncates any torn or corrupt tail so the
    /// file ends on a whole record. A restart's one pass over its log.
    ///
    /// The fold holds where each bid batch lies, not its bids; the batches
    /// the log commits are read back and decoded after the scan.
    pub fn recover(path: impl AsRef<Path>, cdns: usize) -> Result<WalRecovery, WalError> {
        let mut replay = Replay::<BatchAt>::empty(cdns);
        let mut records = 0;
        let (mut wal, truncated_bytes) = Wal::open_with(path.as_ref(), |record| {
            records += 1;
            replay.apply(record);
        })?;
        let recovery = replay.read_back(&mut wal.file)?;
        Ok(WalRecovery {
            wal,
            recovery,
            records,
            truncated_bytes,
        })
    }

    /// [`Wal::recover`]'s opening and truncation, keeping the records
    /// themselves instead of replaying them.
    pub fn open(path: impl AsRef<Path>) -> Result<WalOpen, WalError> {
        let mut records: Vec<WalRecord> = Vec::new();
        let (wal, truncated_bytes) = Wal::open_with(path.as_ref(), |record| records.push(record))?;
        Ok(WalOpen {
            wal,
            records,
            truncated_bytes,
        })
    }

    /// Opens the log at `path`, scans it into `sink`, and truncates the
    /// torn tail; returns the handle, positioned for appending, and the
    /// bytes cut.
    fn open_with<B: Batch>(
        path: &Path,
        sink: impl FnMut(Record<B>),
    ) -> Result<(Wal, u64), WalError> {
        let mut file = create(path)?;
        let file_len = file.metadata()?.len();
        let mut truncated_bytes = 0;
        if file_len < WAL_MAGIC.len() as u64 {
            // Empty (or torn before the magic finished): start fresh.
            write_magic(&mut file)?;
        } else {
            let valid_len = scan_as(&file, file_len, sink)?;
            truncated_bytes = file_len - valid_len;
            if truncated_bytes > 0 {
                file.set_len(valid_len)?;
                file.sync_data()?;
            }
            file.seek(SeekFrom::Start(valid_len))?;
        }
        let frame = Vec::new();
        Ok((Wal { file, frame }, truncated_bytes))
    }

    /// Truncates the WAL at `path` back to an empty (magic-only) log —
    /// the clean-slate start of the OPERATIONS.md runbook. Only the magic
    /// is read: a log about to be discarded is not scanned. A file that
    /// is not a WAL is refused untouched.
    pub fn reset(path: impl AsRef<Path>) -> Result<(), WalError> {
        let mut file = create(path.as_ref())?;
        let mut magic = [0u8; WAL_MAGIC.len()];
        if file.metadata()?.len() >= magic.len() as u64 {
            file.read_exact(&mut magic)?;
            if &magic != WAL_MAGIC {
                return Err(WalError::BadMagic);
            }
        }
        write_magic(&mut file)?;
        Ok(())
    }

    /// Appends one record (buffered by the OS; not yet durable — call
    /// [`sync`](Wal::sync) at commit points). The record is encoded
    /// straight into its frame and written with one call. A record over
    /// [`MAX_RECORD_LEN`] is refused before any byte of it is written.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0; 4]); // length, patched below
        encode_record(frame, record);
        let len = frame.len() - 4;
        if len > MAX_RECORD_LEN as usize {
            return Err(WalError::RecordTooLarge(len));
        }
        if let Some(field) = frame.get_mut(..4) {
            field.copy_from_slice(&(len as u32).to_be_bytes());
        }
        let crc = crc32(frame.get(4..).unwrap_or_default());
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
    let mut records = Vec::new();
    if file_len < WAL_MAGIC.len() as u64 {
        return Ok((records, file_len));
    }
    let valid_len = scan(&file, file_len, |record| records.push(record))?;
    Ok((records, file_len - valid_len))
}

/// Opens (creating if absent, with its directory) the log file at `path`
/// for reading and writing, without truncating it.
fn create(path: &Path) -> io::Result<File> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

/// Makes `file` an empty log, durably: the magic and nothing else.
fn write_magic(file: &mut File) -> io::Result<()> {
    file.set_len(0)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(WAL_MAGIC)?;
    file.sync_data()
}

/// Scans a log of `file_len` bytes from its first byte, decoding every
/// bid batch: [`scan_as`] for the eager readers.
fn scan(
    reader: impl Read + Send,
    file_len: u64,
    sink: impl FnMut(WalRecord),
) -> Result<u64, WalError> {
    scan_as(reader, file_len, sink)
}

/// Scans a log of `file_len` bytes from its first byte: checks the magic,
/// then reads framed records through the [`SCAN_WINDOW`] — filled ahead
/// by a reader thread — and hands each checked record to `sink` in file
/// order, its bid batches as `B`. Returns the byte length of the valid
/// prefix (magic included); stops at the first torn or corrupt frame.
/// Every record's CRC is verified, and its payload validated whole, before
/// the sink sees it.
fn scan_as<B: Batch>(
    reader: impl Read + Send,
    file_len: u64,
    mut sink: impl FnMut(Record<B>),
) -> Result<u64, WalError> {
    thread::scope(|scope| {
        let (filled, full) = sync_channel(SCAN_BUFFERS);
        let (free, emptied) = sync_channel(SCAN_BUFFERS);
        thread::Builder::new()
            .name("vdx-wal-read".into())
            .spawn_scoped(scope, move || {
                read_ahead(reader, file_len, &filled, &emptied)
            })?;
        // Dropped on return, whatever the exit: the reader then stops.
        let mut ahead = ReadAhead {
            full,
            free,
            buf: Vec::new(),
            at: 0,
            stitch: Vec::new(),
        };
        if ahead.take(WAL_MAGIC.len())? != WAL_MAGIC {
            return Err(WalError::BadMagic);
        }
        let mut pos = WAL_MAGIC.len() as u64;
        // A frame is at least its length and CRC words.
        while file_len - pos >= 8 {
            let len = ahead.word()?;
            // A length the file cannot hold is a torn tail (or
            // corruption), decided before anything is read for it.
            if len > MAX_RECORD_LEN || u64::from(len) > file_len - pos - 8 {
                break;
            }
            let frame = ahead.take(len as usize + 4)?;
            let Some((payload, crc)) = frame.split_at_checked(len as usize) else {
                break;
            };
            if crc != crc32(payload).to_be_bytes() {
                break;
            }
            let Some(record) = decode_as::<B>(payload, pos) else {
                // Checksum-valid but undecodable: a format we do not
                // speak (version skew). Treat like a torn tail — never
                // replay bytes we cannot interpret.
                break;
            };
            sink(record);
            pos += 8 + u64::from(len);
        }
        Ok(pos)
    })
}

/// The reader thread of a scan: reads `file_len` bytes from `reader` into
/// buffers of [`SCAN_BUFFER`] bytes (the last one shorter) and sends each
/// one `filled`, making [`SCAN_BUFFERS`] buffers and then reusing those the
/// scan hands back `emptied`. Stops at the end, after sending a read error
/// on, or as soon as the scan hangs up.
fn read_ahead(
    mut reader: impl Read,
    file_len: u64,
    filled: &SyncSender<io::Result<Vec<u8>>>,
    emptied: &Receiver<Vec<u8>>,
) {
    let mut left = file_len;
    let mut made = 0;
    while left > 0 {
        let mut buf = if made < SCAN_BUFFERS {
            made += 1;
            Vec::new()
        } else {
            match emptied.recv() {
                Ok(buf) => buf,
                Err(_) => return,
            }
        };
        let n = left.min(SCAN_BUFFER as u64) as usize;
        buf.resize(n, 0);
        let read = reader.read_exact(&mut buf).map(|()| buf);
        let failed = read.is_err();
        if filled.send(read).is_err() || failed {
            return;
        }
        left -= n as u64;
    }
}

/// The scanning side of a read-ahead: the buffer being scanned, the
/// channels to the reader thread, and the one reused buffer a field that
/// straddles buffers is assembled in.
struct ReadAhead {
    full: Receiver<io::Result<Vec<u8>>>,
    free: SyncSender<Vec<u8>>,
    buf: Vec<u8>,
    /// How much of `buf` has been taken.
    at: usize,
    stitch: Vec<u8>,
}

impl ReadAhead {
    /// The next `n` bytes of the file (`n > 0`): where they lie when the
    /// current buffer holds them all, else assembled from each buffer they
    /// span. Reading past what the reader sends is an `UnexpectedEof`.
    fn take(&mut self, n: usize) -> Result<&[u8], WalError> {
        if self.at == self.buf.len() {
            self.next_buffer()?;
        }
        let (start, end) = (self.at, self.at + n);
        if end <= self.buf.len() {
            self.at = end;
            return Ok(self.buf.get(start..end).unwrap_or_default());
        }
        self.stitch.clear();
        self.stitch.reserve(n);
        self.stitch
            .extend_from_slice(self.buf.get(start..).unwrap_or_default());
        while self.stitch.len() < n {
            self.next_buffer()?;
            let part = (n - self.stitch.len()).min(self.buf.len());
            self.stitch
                .extend_from_slice(self.buf.get(..part).unwrap_or_default());
            self.at = part;
        }
        Ok(&self.stitch)
    }

    /// The next four bytes as a big-endian `u32`.
    fn word(&mut self) -> Result<u32, WalError> {
        let word = self.take(4)?.try_into().unwrap_or_default();
        Ok(u32::from_be_bytes(word))
    }

    /// Swaps in the next buffer the reader filled and hands the scanned
    /// one back for refilling.
    fn next_buffer(&mut self) -> Result<(), WalError> {
        let next = self
            .full
            .recv()
            .map_err(|_| io::Error::from(io::ErrorKind::UnexpectedEof))??;
        let scanned = std::mem::replace(&mut self.buf, next);
        self.at = 0;
        // The scan starts with no buffer; a reader already gone has no use
        // for one.
        if scanned.capacity() > 0 {
            let _ = self.free.send(scanned);
        }
        Ok(())
    }
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

/// What a scan makes of each bid batch it has checked: the bids, or
/// where they lie.
trait Batch: Sized {
    /// The checked `batch`, which lies at `spot`.
    fn keep(batch: BidBatch<'_>, spot: BatchAt) -> Self;
}

impl Batch for Vec<Bid> {
    fn keep(batch: BidBatch<'_>, _: BatchAt) -> Vec<Bid> {
        batch.decode()
    }
}

/// Where a checked bid batch lies in the log: what [`Wal::recover`]'s
/// fold holds in place of the bids, to read back the few it commits.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BatchAt {
    /// File offset of its record's length prefix.
    record: u64,
    /// Its record's payload length.
    len: u32,
    /// Offset of its first bid in the payload.
    at: u32,
    /// How many bids it holds.
    count: u32,
}

impl Batch for BatchAt {
    fn keep(_: BidBatch<'_>, spot: BatchAt) -> BatchAt {
        spot
    }
}

fn get_snapshot(cur: &mut Cursor<'_>) -> Option<BreakerSnapshot> {
    Some(BreakerSnapshot {
        state: HealthState::from_code(cur.u8()?)?,
        consecutive_failures: cur.u32()?,
        opened_at: cur.u64()?,
    })
}

/// Decodes one record payload with its bids.
#[cfg(test)]
fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    decode_as(payload, 0)
}

/// Decodes one record payload, that of the record whose length prefix is
/// at file offset `record`, its bid batches as `B`; every failure — a
/// short read, an unknown tag, a count that misstates its batch, trailing
/// bytes — collapses to `None` (= corrupt, never replayed).
fn decode_as<B: Batch>(payload: &[u8], record: u64) -> Option<Record<B>> {
    // A `u32` count, then that many bids.
    let counted_bids = |cur: &mut Cursor<'_>| {
        let count = cur.u32()?;
        let at = payload.len() - cur.rest().len();
        let batch = take_bids(cur, count)?;
        let spot = BatchAt {
            record,
            len: payload.len() as u32,
            at: at as u32,
            count,
        };
        Some(B::keep(batch, spot))
    };
    let mut cur = Cursor::new(payload);
    let record = match cur.u8()? {
        TAG_ANNOUNCE_OPEN => Record::AnnounceOpen { round: cur.u64()? },
        TAG_ANNOUNCE_CLOSE => Record::AnnounceClose {
            round: cur.u64()?,
            answered: cur.u32()?,
        },
        TAG_BIDS => Record::Bids {
            round: cur.u64()?,
            cdn: cur.u32()?,
            bids: counted_bids(&mut cur)?,
        },
        TAG_BREAKER => Record::Breaker {
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
            Record::Settlement(DriverRound {
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
                    1 => Some((cur.u64()?, counted_bids(&mut cur)?)),
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
            Record::Checkpoint {
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

/// Replays a record sequence into committed state: the fold of
/// [`Replay::apply`] over `records`.
pub fn replay(records: Vec<WalRecord>, cdns: usize) -> Recovery {
    let mut replay = Replay::new(cdns);
    records.into_iter().for_each(|record| replay.apply(record));
    replay.finish()
}

/// Replay as a fold, one record at a time, applying the exactly-once
/// rule: records staged after the last `Settlement` (or `Checkpoint`)
/// belong to a voided round attempt and are discarded. The CDN count
/// sizes the per-CDN vectors; records naming an out-of-range CDN are
/// ignored (they cannot belong to this scenario).
///
/// The fold moves bid batches without looking at them, so it runs on
/// either kind: the bids themselves, or ([`Wal::recover`]) where they lie
/// in the log, decoded afterwards for the batches it commits.
#[derive(Debug)]
pub struct Replay<B = Vec<Bid>> {
    /// Committed state so far; `voided` is [`Replay::finish`]'s.
    rounds: Vec<DriverRound>,
    cache: Vec<Option<(u64, B)>>,
    breakers: Vec<Option<BreakerSnapshot>>,
    next_round: u64,
    staged_cache: Vec<Option<(u64, B)>>,
    staged_breakers: Vec<Option<BreakerSnapshot>>,
    /// The round opened and not yet settled or checkpointed.
    open_round: Option<u64>,
}

impl Replay {
    /// The state of a log with no records, for `cdns` CDNs.
    pub fn new(cdns: usize) -> Replay {
        Replay::empty(cdns)
    }

    /// The committed state after the last record; a round still open is
    /// reported as voided.
    pub fn finish(self) -> Recovery {
        Recovery {
            rounds: self.rounds,
            cache: self.cache,
            breakers: self.breakers,
            next_round: self.next_round,
            voided: self.open_round,
        }
    }
}

impl<B> Replay<B> {
    fn empty(cdns: usize) -> Replay<B> {
        Replay {
            rounds: Vec::new(),
            cache: resize_to(Vec::new(), cdns),
            breakers: vec![None; cdns],
            next_round: 0,
            staged_cache: resize_to(Vec::new(), cdns),
            staged_breakers: vec![None; cdns],
            open_round: None,
        }
    }

    /// Folds the next record of the log into the state.
    pub fn apply(&mut self, record: Record<B>) {
        match record {
            Record::AnnounceOpen { round } => {
                self.open_round = Some(round);
                self.unstage();
            }
            Record::AnnounceClose { .. } => {}
            Record::Bids { round, cdn, bids } => {
                if let Some(slot) = self.staged_cache.get_mut(cdn as usize) {
                    *slot = Some((round, bids));
                }
            }
            Record::Breaker { cdn, snapshot, .. } => {
                if let Some(slot) = self.staged_breakers.get_mut(cdn as usize) {
                    *slot = Some(snapshot);
                }
            }
            Record::Settlement(dr) => {
                let staged = self.staged_cache.iter_mut();
                for (committed, staged) in self.cache.iter_mut().zip(staged) {
                    if let Some(entry) = staged.take() {
                        *committed = Some(entry);
                    }
                }
                let staged = self.staged_breakers.iter_mut();
                for (committed, staged) in self.breakers.iter_mut().zip(staged) {
                    if let Some(snap) = staged.take() {
                        *committed = Some(snap);
                    }
                }
                self.next_round = dr.round.saturating_add(1);
                self.rounds.push(dr);
                self.open_round = None;
            }
            Record::Checkpoint {
                next_round,
                cache,
                breakers,
            } => {
                let cdns = self.staged_cache.len();
                self.cache = resize_to(cache, cdns);
                self.breakers = resize_to(breakers.into_iter().map(Some).collect(), cdns);
                self.next_round = next_round;
                self.open_round = None;
                self.unstage();
            }
        }
    }

    /// Drops everything staged for the current round attempt.
    fn unstage(&mut self) {
        self.staged_cache.iter_mut().for_each(|s| *s = None);
        self.staged_breakers.iter_mut().for_each(|s| *s = None);
    }
}

impl Replay<BatchAt> {
    /// [`Replay::finish`] for a fold of batch locations: reads each
    /// committed batch back from `file` and decodes it, reading each
    /// record that holds one once and checking its length prefix and CRC
    /// again first. The file is left where it was. A record that no
    /// longer reads back as the scan checked it changed under the
    /// restart: an error, not a torn tail.
    fn read_back(self, file: &mut File) -> Result<Recovery, WalError> {
        let mut kept: Vec<(usize, u64, BatchAt)> = (self.cache.iter().enumerate())
            .filter_map(|(cdn, slot)| slot.map(|(round, at)| (cdn, round, at)))
            .collect();
        kept.sort_by_key(|&(_, _, at)| at.record);
        let here = file.stream_position()?;
        let mut cache = resize_to(Vec::new(), self.cache.len());
        let mut frame = Vec::new();
        let mut held = None;
        for (cdn, round, at) in kept {
            if held != Some(at.record) {
                read_frame(file, at, &mut frame)?;
                held = Some(at.record);
            }
            let batch = frame.get(4 + at.at as usize..);
            let bids = batch.and_then(|rest| take_bids(&mut Cursor::new(rest), at.count));
            let bids = bids.ok_or_else(changed_since_scan)?.decode();
            if let Some(slot) = cache.get_mut(cdn) {
                *slot = Some((round, bids));
            }
        }
        file.seek(SeekFrom::Start(here))?;
        Ok(Recovery {
            rounds: self.rounds,
            cache,
            breakers: self.breakers,
            next_round: self.next_round,
            voided: self.open_round,
        })
    }
}

/// Reads the frame of the record holding `at` into `frame` and checks it
/// is the record the scan accepted: the same length prefix and a CRC
/// that matches.
fn read_frame(file: &mut File, at: BatchAt, frame: &mut Vec<u8>) -> Result<(), WalError> {
    let len = at.len as usize;
    frame.resize(8 + len, 0);
    file.seek(SeekFrom::Start(at.record))?;
    file.read_exact(frame)?;
    let prefix = frame.get(..4);
    let payload = frame.get(4..4 + len).unwrap_or_default();
    let crc = frame.get(4 + len..);
    if prefix != Some(&at.len.to_be_bytes()[..]) || crc != Some(&crc32(payload).to_be_bytes()[..]) {
        return Err(changed_since_scan());
    }
    Ok(())
}

/// The error of a read-back that finds a record other than the one the
/// scan checked.
fn changed_since_scan() -> WalError {
    WalError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "a wal record changed between its scan and its read-back",
    ))
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
    use std::path::PathBuf;
    use vdx_broker::{BreakerConfig, CircuitBreaker, StaleBidCache};
    use vdx_proto::wire::BID_LEN;
    use vdx_rand::prop::{bytes, check, vec_of};

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

    /// Three rounds as the daemon logs them: round 0 settled, round 1
    /// settled and checkpointed, round 2 open with bids staged.
    fn multi_round_records() -> Vec<WalRecord> {
        let breaker = |round, cdn, failures| WalRecord::Breaker {
            round,
            cdn,
            snapshot: BreakerSnapshot {
                state: HealthState::Closed,
                consecutive_failures: failures,
                opened_at: 0,
            },
        };
        let mut records = sample_records();
        records.truncate(5); // round 0, settled
        records.extend([
            WalRecord::AnnounceOpen { round: 1 },
            WalRecord::AnnounceClose {
                round: 1,
                answered: 1,
            },
            WalRecord::Bids {
                round: 1,
                cdn: 1,
                bids: vec![bid(3, 1)],
            },
            breaker(1, 0, 1),
            settlement(1),
            WalRecord::Checkpoint {
                next_round: 2,
                cache: vec![
                    Some((0, vec![bid(1, 0), bid(2, 1)])),
                    Some((1, vec![bid(3, 1)])),
                ],
                breakers: vec![BreakerSnapshot {
                    state: HealthState::Closed,
                    consecutive_failures: 1,
                    opened_at: 0,
                }],
            },
            WalRecord::AnnounceOpen { round: 2 },
            WalRecord::Bids {
                round: 2,
                cdn: 0,
                bids: vec![bid(5, 2)],
            },
            breaker(2, 1, 2),
        ]);
        records
    }

    /// Cut a multi-round log at every byte past the magic: whatever is
    /// left of the record the cut falls in is the tail, exactly, the rest
    /// is intact — and the streaming recovery agrees with the batch
    /// reader and `replay` on the state, the record count, the bytes cut
    /// and the file left behind.
    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let path = temp_wal("torn");
        let records = multi_round_records();
        // File length after each whole record, the magic first.
        let mut ends = vec![WAL_MAGIC.len()];
        for record in &records {
            write_all(&path, std::slice::from_ref(record));
            ends.push(std::fs::metadata(&path).expect("stat").len() as usize);
        }
        let full = std::fs::read(&path).expect("read file");
        let file_len = || std::fs::metadata(&path).expect("stat").len();
        for cut in WAL_MAGIC.len()..=full.len() {
            let whole = ends.iter().rposition(|&end| end <= cut).expect("magic");
            let torn = (cut - ends[whole]) as u64;
            std::fs::write(&path, &full[..cut]).expect("tear");
            let (read, garbage) = read_records(&path).expect("read torn");
            assert_eq!((&read[..], garbage), (&records[..whole], torn), "cut {cut}");
            let opened = Wal::open(&path).expect("open torn");
            assert_eq!(opened.records, &records[..whole], "cut {cut}");
            assert_eq!(opened.truncated_bytes, torn, "cut {cut}");
            drop(opened.wal);
            let opened_len = file_len();
            assert_eq!(opened_len, ends[whole] as u64, "cut {cut}");
            let batch = replay(opened.records, 2);

            std::fs::write(&path, &full[..cut]).expect("tear again");
            let recovered = Wal::recover(&path, 2).expect("recover torn");
            assert_eq!(recovered.recovery, batch, "cut {cut}");
            assert_eq!(recovered.records, whole as u64, "cut {cut}");
            assert_eq!(recovered.truncated_bytes, torn, "cut {cut}");
            drop(recovered.wal);
            assert_eq!(file_len(), opened_len, "cut {cut}");
            // The truncation is physical: a second pass sees a clean file.
            let again = Wal::recover(&path, 2).expect("second recover");
            assert_eq!((again.records, again.truncated_bytes), (whole as u64, 0));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A crash can leave a tail of zeros (space allocated, data never
    /// written). Whatever its length, the whole records before it recover
    /// and the zeros are cut. Eight zeros frame a whole record, length 0
    /// and CRC 0, which checks (the CRC-32 of nothing is 0); its empty
    /// payload then fails to decode.
    #[test]
    fn a_zero_filled_tail_is_cut_and_every_whole_record_recovers() {
        let path = temp_wal("zeros");
        let records = multi_round_records();
        write_all(&path, &records);
        let whole = std::fs::read(&path).expect("read file");
        let expected = replay(records.clone(), 2);
        for zeros in [1usize, 7, 8, 9, 4_096] {
            let mut bytes = whole.clone();
            bytes.resize(whole.len() + zeros, 0);
            std::fs::write(&path, &bytes).expect("zero-fill");
            let recovered = Wal::recover(&path, 2).expect("recover");
            assert_eq!(recovered.recovery, expected, "{zeros} zeros");
            assert_eq!(recovered.records, records.len() as u64, "{zeros} zeros");
            assert_eq!(recovered.truncated_bytes, zeros as u64, "{zeros} zeros");
            drop(recovered.wal);
            let len = std::fs::metadata(&path).expect("stat").len();
            assert_eq!(len, whole.len() as u64, "{zeros} zeros");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A random log: records of every kind for rounds 0..4, naming CDNs
    /// 0..3 (the replaying scenario has 2), in any order.
    fn arbitrary_records(rng: &mut vdx_rand::StdRng) -> Vec<WalRecord> {
        vec_of(rng, 0..24, |rng| {
            let round = rng.gen_range(0u64..4);
            let cdn = rng.gen_range(0u32..3);
            let snapshot = BreakerSnapshot {
                state: HealthState::Open,
                consecutive_failures: rng.gen_range(0u32..4),
                opened_at: round,
            };
            let bids = |rng: &mut vdx_rand::StdRng| {
                let n = rng.gen_range(0u64..3);
                (0..n).map(|i| bid(i, round)).collect::<Vec<_>>()
            };
            match rng.gen_range(0u32..6) {
                0 => WalRecord::AnnounceOpen { round },
                1 => WalRecord::AnnounceClose {
                    round,
                    answered: cdn,
                },
                2 => WalRecord::Bids {
                    round,
                    cdn,
                    bids: bids(rng),
                },
                3 => WalRecord::Breaker {
                    round,
                    cdn,
                    snapshot,
                },
                4 => settlement(round),
                _ => WalRecord::Checkpoint {
                    next_round: round + 1,
                    cache: (0..cdn).map(|_| Some((round, bids(rng)))).collect(),
                    breakers: vec![snapshot; cdn as usize],
                },
            }
        })
    }

    /// Folding a log through `Replay::apply`, in memory or as `recover`
    /// scans it off the file, is `replay` of the whole record list.
    #[test]
    fn streaming_replay_equals_batch_replay() {
        let path = temp_wal("streaming");
        check(64, arbitrary_records, |records| {
            let batch = replay(records.clone(), 2);
            let mut fold = Replay::new(2);
            records.iter().cloned().for_each(|r| fold.apply(r));
            assert_eq!(fold.finish(), batch);
            let _ = std::fs::remove_file(&path);
            write_all(&path, records);
            let recovered = Wal::recover(&path, 2).expect("recover");
            assert_eq!(recovered.recovery, batch);
            assert_eq!(recovered.records, records.len() as u64);
            assert_eq!(recovered.truncated_bytes, 0);
        });
        let _ = std::fs::remove_file(&path);
    }

    /// How a property test damages a log it has written.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        None,
        /// Flips every bit of one byte past the magic (the offset is
        /// taken modulo the records' bytes).
        Flip(u64),
        /// Cuts the file at an offset past the magic (modulo as above).
        Cut(u64),
    }

    /// A random log with up to three large records among the small ones:
    /// `(before, cdn, bids, is_checkpoint)`, each 0–22,000 bids, so some
    /// fit one scan buffer, some straddle two and some exceed one.
    #[expect(clippy::type_complexity, reason = "a test's generated input")]
    fn arbitrary_damaged_log(
        rng: &mut vdx_rand::StdRng,
    ) -> (Vec<WalRecord>, Vec<(usize, u32, u64, bool)>, Damage) {
        let records = arbitrary_records(rng);
        let large = vec_of(rng, 0..4, |rng| {
            (
                rng.gen_range(0..records.len() + 1),
                rng.gen_range(0u32..3),
                rng.gen_range(0u64..22_000),
                rng.gen_range(0u32..3) == 0,
            )
        });
        let damage = match rng.gen_range(0u32..3) {
            0 => Damage::None,
            1 => Damage::Flip(rng.next_u64()),
            _ => Damage::Cut(rng.next_u64()),
        };
        (records, large, damage)
    }

    /// Whatever a log holds — records larger than a scan buffer or
    /// straddling two, a flipped byte, a cut — `recover` folds it to what
    /// `replay(read_records(..))` gives, counts the same records, cuts the
    /// same tail and leaves the file at the scan's valid prefix.
    #[test]
    fn recovery_of_a_damaged_log_equals_the_eager_fold() {
        let path = temp_wal("damaged");
        check(40, arbitrary_damaged_log, |(small, large, damage)| {
            let mut records = small.clone();
            for &(before, cdn, n, checkpoint) in large.iter().rev() {
                let round = before as u64 % 4;
                let bids = (0..n).map(|i| bid(i, round)).collect();
                let record = if checkpoint {
                    WalRecord::Checkpoint {
                        next_round: round + 1,
                        cache: vec![None, Some((round, bids))],
                        breakers: Vec::new(),
                    }
                } else {
                    WalRecord::Bids { round, cdn, bids }
                };
                records.insert(before.min(records.len()), record);
            }
            let _ = std::fs::remove_file(&path);
            write_all(&path, &records);
            let mut bytes = std::fs::read(&path).expect("read");
            let body = (bytes.len() - WAL_MAGIC.len()) as u64;
            match *damage {
                Damage::None => {}
                Damage::Flip(at) if body > 0 => {
                    bytes[WAL_MAGIC.len() + (at % body) as usize] ^= 0xFF
                }
                Damage::Cut(at) => bytes.truncate(WAL_MAGIC.len() + (at % (body + 1)) as usize),
                Damage::Flip(_) => {}
            }
            std::fs::write(&path, &bytes).expect("damage");
            let (read, garbage) = read_records(&path).expect("read records");
            let valid_len = bytes.len() as u64 - garbage;
            let count = read.len() as u64;
            let eager = replay(read, 2);
            let recovered = Wal::recover(&path, 2).expect("recover");
            drop(recovered.wal);
            assert_eq!(recovered.recovery, eager);
            assert_eq!(
                (recovered.records, recovered.truncated_bytes),
                (count, garbage)
            );
            assert_eq!(std::fs::metadata(&path).expect("stat").len(), valid_len);
        });
        let _ = std::fs::remove_file(&path);
    }

    /// A `Bids` record with a valid CRC whose count misstates its bids
    /// ends the log even when a later record would replace its batch
    /// unread: every batch is validated, not only the ones recovery keeps.
    #[test]
    fn a_superseded_bids_record_that_misstates_its_count_still_cuts_the_log() {
        let path = temp_wal("superseded-misstated");
        let replaced = WalRecord::Bids {
            round: 0,
            cdn: 0,
            bids: vec![bid(1, 0), bid(2, 0), bid(3, 0)],
        };
        let mut hostile = Vec::new();
        encode_record(&mut hostile, &replaced);
        // tag | round | cdn | count: one bid fewer than the bytes hold.
        hostile[13..17].copy_from_slice(&2u32.to_be_bytes());
        let framed = |log: &mut Vec<u8>, payload: &[u8]| {
            log.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            log.extend_from_slice(payload);
            log.extend_from_slice(&crc32(payload).to_be_bytes());
        };
        let mut log = WAL_MAGIC.to_vec();
        let open = WalRecord::AnnounceOpen { round: 0 };
        let mut payload = Vec::new();
        encode_record(&mut payload, &open);
        framed(&mut log, &payload);
        let valid_len = log.len() as u64;
        framed(&mut log, &hostile);
        for later in [
            WalRecord::Bids {
                round: 0,
                cdn: 0,
                bids: vec![bid(4, 0)],
            },
            settlement(0),
        ] {
            payload.clear();
            encode_record(&mut payload, &later);
            framed(&mut log, &payload);
        }
        let file_len = log.len() as u64;
        std::fs::write(&path, &log).expect("write");
        let recovered = Wal::recover(&path, 1).expect("recover");
        drop(recovered.wal);
        assert_eq!(recovered.recovery, replay(vec![open], 1));
        assert_eq!(recovered.records, 1);
        assert_eq!(recovered.truncated_bytes, file_len - valid_len);
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), valid_len);
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

    /// `Bids` payload length for `n` bids: tag, round, cdn, count, bids.
    fn bids_record_len(n: usize) -> usize {
        1 + 8 + 4 + 4 + n * BID_LEN
    }

    /// A record one bid over `MAX_RECORD_LEN` (≈ 33 MiB resident while
    /// it is encoded) is refused, and the file is byte-identical.
    #[test]
    fn an_over_bound_append_is_refused_and_leaves_the_file_byte_identical() {
        let path = temp_wal("over-bound");
        write_all(&path, &sample_records());
        let before = std::fs::read(&path).expect("read");
        let n = (MAX_RECORD_LEN as usize - bids_record_len(0)) / BID_LEN + 1;
        let record = WalRecord::Bids {
            round: 1,
            cdn: 0,
            bids: vec![bid(1, 0); n],
        };
        let mut wal = Wal::open(&path).expect("open").wal;
        match wal.append(&record) {
            Err(WalError::RecordTooLarge(len)) => assert_eq!(len, bids_record_len(n)),
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
        // The refusal wrote nothing, and the log still takes records.
        assert_eq!(std::fs::read(&path).expect("read"), before);
        wal.append(&settlement(1)).expect("append after refusal");
        drop(wal);
        let mut expected = sample_records();
        expected.push(settlement(1));
        assert_eq!(Wal::open(&path).expect("reopen").records, expected);
        let _ = std::fs::remove_file(&path);
    }

    /// The largest record under `MAX_RECORD_LEN` (≈ 33 MiB resident at
    /// its peak) round-trips through open.
    #[test]
    fn a_record_just_under_the_bound_round_trips_through_open() {
        let path = temp_wal("under-bound");
        let n = (MAX_RECORD_LEN as usize - bids_record_len(0)) / BID_LEN;
        assert!(bids_record_len(n + 1) > MAX_RECORD_LEN as usize);
        let bids = |i: u64| bid(i, i % 7);
        // Written, then dropped: the record is 16 MiB, so only one copy
        // of it is resident at a time.
        write_all(
            &path,
            &[WalRecord::Bids {
                round: 3,
                cdn: 2,
                bids: (0..n as u64).map(bids).collect(),
            }],
        );
        let reopened = Wal::open(&path).expect("reopen");
        assert_eq!(reopened.truncated_bytes, 0);
        let [WalRecord::Bids {
            round: 3,
            cdn: 2,
            bids: read,
        }] = &reopened.records[..]
        else {
            panic!("expected the one Bids record back");
        };
        assert_eq!(read.len(), n);
        assert!((0..n as u64).zip(read).all(|(i, b)| *b == bids(i)));
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
        assert!(!SCAN_WINDOW.is_multiple_of(per_record) && file_len > SCAN_WINDOW + per_record);
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

    /// FNV-1a over `bytes`: a digest of a whole log that does not go
    /// through the CRC under test.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// A `Bids` record of 3,072 bids (122,897 payload bytes, summed by
    /// `crc32`'s carry-less-multiply fold where the CPU has one, by its
    /// table path elsewhere), pinned by three figures captured from a
    /// build whose CRC was the classic table loop: the record's length
    /// prefix, its CRC trailer and a digest of the whole file.
    #[test]
    fn a_large_bids_record_keeps_its_log_bytes_and_crc() {
        const LEN: u32 = 0x0001_E011;
        const CRC: u32 = 0x171B_2A5C;
        const FNV: u64 = 0xA0FA_51B0_E1F5_5517;
        let bids = (0..3_072u64)
            .map(|i| Bid {
                cluster_id: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                share_id: i % 97,
                performance_estimate: 1.0 + i as f64 * 0.37,
                capacity_kbps: 1e6 - i as f64,
                price_per_mb: (i % 13) as f64 / 8.0,
            })
            .collect();
        let record = WalRecord::Bids {
            round: 11,
            cdn: 1,
            bids,
        };
        let path = temp_wal("golden-large");
        write_all(&path, std::slice::from_ref(&record));
        let log = std::fs::read(&path).expect("read");
        let n = log.len();
        assert_eq!(n, WAL_MAGIC.len() + 4 + bids_record_len(3_072) + 4);
        assert_eq!(log[8..12], LEN.to_be_bytes());
        assert_eq!(log[n - 4..], CRC.to_be_bytes());
        assert_eq!(fnv1a(&log), FNV);
        assert_eq!(
            read_records(&path).expect("read"),
            (vec![record.clone()], 0)
        );
        let opened = Wal::open(&path).expect("open");
        assert_eq!((opened.records, opened.truncated_bytes), (vec![record], 0));
        let _ = std::fs::remove_file(&path);
    }

    /// A record whose bid count is one over, one under, or `u32::MAX` is
    /// not decoded; in a log, such a record (however valid its CRC) ends
    /// the scan like a torn tail.
    #[test]
    fn a_record_whose_bid_count_misstates_its_bids_is_not_replayed() {
        let bids = vec![bid(1, 0), bid(2, 1), bid(3, 2)];
        let cases = [
            // tag | round | cdn | count
            (
                WalRecord::Bids {
                    round: 4,
                    cdn: 0,
                    bids: bids.clone(),
                },
                1 + 8 + 4,
            ),
            // tag | next_round | slots | occupied | round | count
            (
                WalRecord::Checkpoint {
                    next_round: 5,
                    cache: vec![Some((4, bids))],
                    breakers: Vec::new(),
                },
                1 + 8 + 4 + 1 + 8,
            ),
        ];
        for (record, at) in cases {
            let mut payload = Vec::new();
            encode_record(&mut payload, &record);
            assert_eq!(decode_record(&payload), Some(record.clone()));
            for count in [2, 4, u32::MAX] {
                let mut hostile = payload.clone();
                hostile[at..at + 4].copy_from_slice(&count.to_be_bytes());
                assert_eq!(decode_record(&hostile), None, "count {count}");
                let mut log = WAL_MAGIC.to_vec();
                log.extend_from_slice(&(hostile.len() as u32).to_be_bytes());
                log.extend_from_slice(&hostile);
                log.extend_from_slice(&crc32(&hostile).to_be_bytes());
                let mut read = Vec::new();
                let valid = scan(&log[..], log.len() as u64, |r| read.push(r)).expect("scans");
                assert_eq!((valid, read), (WAL_MAGIC.len() as u64, Vec::new()));
            }
        }
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
        // A torn log, and one torn inside its magic, reset to the magic.
        write_all(&path, &sample_records());
        let full = std::fs::read(&path).expect("read");
        for cut in [full.len() - 3, 5, 0] {
            std::fs::write(&path, &full[..cut]).expect("tear");
            Wal::reset(&path).expect("reset torn");
            assert_eq!(std::fs::read(&path).expect("read"), WAL_MAGIC, "cut {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_refuses_a_foreign_file_and_leaves_it_byte_identical() {
        let path = temp_wal("reset-foreign");
        let foreign = b"definitely not a wal, but 8+ bytes".to_vec();
        std::fs::write(&path, &foreign).expect("write");
        assert!(matches!(Wal::reset(&path), Err(WalError::BadMagic)));
        assert_eq!(std::fs::read(&path).expect("read"), foreign);
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
                let mut records = Vec::new();
                let valid_len =
                    scan(&buf[..], buf.len() as u64, |r| records.push(r)).expect("scans");
                assert!(valid_len as usize <= buf.len());
                // Re-scanning the valid prefix reproduces the same records.
                let mut again = Vec::new();
                let again_len = scan(&buf[..valid_len as usize], valid_len, |r| again.push(r))
                    .expect("rescans");
                assert_eq!(records, again);
                assert_eq!(valid_len, again_len);
            },
        );
    }
}
