//! Control-plane write-ahead log.
//!
//! Every mutating task-management call ([`FlyMon::deploy`],
//! [`FlyMon::remove`], [`FlyMon::reallocate_memory`],
//! [`FlyMon::reset_task`]) on a switch with an attached log appends an
//! *intent* record **before** touching any state, then marks the record
//! committed or aborted once the transaction resolves. Recovery
//! ([`FlyMon::recover`]) replays the committed suffix after a
//! checkpoint's `wal_seq` onto the restored image; aborted and pending
//! records are skipped — the transactional machinery guarantees they
//! left no state behind.
//!
//! The log is logical, not physical: a committed record carries the
//! *effect* (which task id was retired, which was created and at what
//! rounded geometry) rather than raw register writes, so replay
//! re-executes the operation deterministically and cross-checks the
//! recorded effect. Any disagreement is surfaced as
//! [`crate::FlymonError::RecoveryDivergence`] instead of silently
//! reconverging to a different state.
//!
//! Durability is modeled, not implemented: the log lives in memory and
//! stands in for an append-only file on the controller's disk. What
//! matters for the recovery semantics — append-before-mutate ordering,
//! commit/abort resolution, checkpoint-anchored truncation — is all
//! here.
//!
//! Every record is CRC-framed over an explicit canonical byte encoding
//! (layout below): the checksum is computed at append and continued
//! over the outcome bytes at commit/abort resolution, standing in for
//! the frame checksum an on-disk log would write with each record.
//! Recovery verifies the frames of the replay suffix before trusting it
//! ([`WriteAheadLog::verify_frames_after`]); a torn or corrupted record
//! surfaces as [`crate::FlymonError::RecoveryDivergence`] naming the bad
//! sequence number instead of replaying garbage. Tests inject corruption
//! with [`WriteAheadLog::corrupt_frame`].
//!
//! # Frame layout
//!
//! A frame is `len: u32 | payload | crc: u32`. Every integer is
//! little-endian; `usize` values travel as `u64`. `len` counts the
//! payload bytes; `crc` is the zlib CRC-32 (reflected `0xEDB88320`,
//! initial state and final XOR `0xFFFFFFFF`) of the payload alone. The
//! payload, in field order:
//!
//! ```text
//! seq                u64
//! intent tag         u8    1 Deploy, 2 Remove, 3 Reallocate, 4 Reset
//!   Deploy:          filter   src.net u32, src.bits u8, dst.net u32, dst.bits u8
//!                    key      key spec (3 bytes, below)
//!                    attr     tag u8 (1 Frequency, 2 Distinct, 3 Existence, 4 Max)
//!                             Frequency: 0 packets, 1 bytes (u8)
//!                             Distinct, Existence: key spec
//!                             Max: 0 queue length, 1 queue delay, 2 packet interval (u8)
//!                    memory   u64
//!                    alg      tag u8 (0 none; 1 Cms, 2 SuMaxSum, 3 Mrac, 4 Tower,
//!                             5 CounterBraids, 6 Hll, 7 LinearCounting, 8 BeauCoup,
//!                             9 Bloom, 10 SuMaxMax, 11 OddSketch, 12 MaxInterval),
//!                             then `d` u64 where the variant has one, then
//!                             `bit_optimized` u8 for Bloom
//!                    prob_log2           u8
//!                    distinct_threshold  u64
//!                    name     length u32, then that many UTF-8 bytes
//!   Remove, Reset:   task u32
//!   Reallocate:      task u32, new_buckets u64
//! outcome tag        u8    0 Pending, 1 Aborted, 2 Committed
//!   Committed:       present u8 (bit 0 removed, bit 1 deployed),
//!                    removed u32 if present,
//!                    deployed task u32 + buckets u64 if present
//! key spec           src_ip_prefix u8, dst_ip_prefix u8,
//!                    flags u8 (bit 0 src_port, 1 dst_port, 2 protocol, 3 timestamp)
//! ```
//!
//! [`WalRecord::encode`] writes a frame, [`WalRecord::decode`] reads one
//! back and rejects anything that is not exactly such a frame.
//!
//! [`FlyMon::deploy`]: crate::control::FlyMon::deploy
//! [`FlyMon::remove`]: crate::control::FlyMon::remove
//! [`FlyMon::reallocate_memory`]: crate::control::FlyMon::reallocate_memory
//! [`FlyMon::reset_task`]: crate::control::FlyMon::reset_task
//! [`FlyMon::recover`]: crate::control::FlyMon::recover

use std::sync::Arc;

use flymon_packet::{KeySpec, PrefixFilter, TaskFilter};
use flymon_rmt::hash::{crc32, CRC32_POLYNOMIALS};

use crate::task::{Algorithm, Attribute, FreqParam, MaxParam, TaskDefinition, TaskId};

/// Seed of every WAL frame checksum: with the kernel's pre- and
/// post-inversion this is the zlib CRC-32.
const FRAME_SEED: u32 = 0;

/// Checksum of a frame payload.
fn payload_crc(payload: &[u8]) -> u32 {
    crc32(CRC32_POLYNOMIALS[0], FRAME_SEED, payload)
}

/// The frame checksum of a record whose `seq | intent` bytes hash to
/// `head`: the CRC continued over the outcome bytes alone, framed in
/// `buf` (reused, not grown, once it has held the longest outcome).
fn frame_crc(buf: &mut Vec<u8>, head: u32, outcome: &WalOutcome) -> u32 {
    buf.clear();
    put_outcome(buf, outcome);
    crc32(CRC32_POLYNOMIALS[0], head, buf)
}

/// Why [`WalRecord::decode`] refused a byte string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the length prefix (or the prefix itself) needs.
    Truncated,
    /// The payload does not hash to the stored checksum.
    BadCrc {
        /// Checksum read from the frame.
        stored: u32,
        /// Checksum of the payload as read.
        computed: u32,
    },
    /// The checksum holds but the payload is not a record: an unknown
    /// tag, a field running past the payload, bytes left over.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "WAL frame truncated"),
            FrameError::BadCrc { stored, computed } => write!(
                f,
                "WAL frame checksum mismatch: stored {stored:#010x}, payload hashes to {computed:#010x}"
            ),
            FrameError::Malformed(what) => write!(f, "malformed WAL frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_key(out: &mut Vec<u8>, k: &KeySpec) {
    let flags = u8::from(k.src_port)
        | u8::from(k.dst_port) << 1
        | u8::from(k.protocol) << 2
        | u8::from(k.timestamp) << 3;
    out.extend_from_slice(&[k.src_ip_prefix, k.dst_ip_prefix, flags]);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn put_definition(out: &mut Vec<u8>, def: &TaskDefinition) {
    for f in [&def.filter.src, &def.filter.dst] {
        put_u32(out, f.net);
        out.push(f.bits);
    }
    put_key(out, &def.key);
    match &def.attribute {
        Attribute::Frequency(p) => out.extend_from_slice(&[
            1,
            match p {
                FreqParam::Packets => 0,
                FreqParam::Bytes => 1,
            },
        ]),
        Attribute::Distinct(k) => {
            out.push(2);
            put_key(out, k);
        }
        Attribute::Existence(k) => {
            out.push(3);
            put_key(out, k);
        }
        Attribute::Max(p) => out.extend_from_slice(&[
            4,
            match p {
                MaxParam::QueueLen => 0,
                MaxParam::QueueDelayUs => 1,
                MaxParam::PacketIntervalUs => 2,
            },
        ]),
    }
    put_usize(out, def.memory);
    let (tag, d) = match def.algorithm {
        None => (0, None),
        Some(Algorithm::Cms { d }) => (1, Some(d)),
        Some(Algorithm::SuMaxSum { d }) => (2, Some(d)),
        Some(Algorithm::Mrac) => (3, None),
        Some(Algorithm::Tower { d }) => (4, Some(d)),
        Some(Algorithm::CounterBraids) => (5, None),
        Some(Algorithm::Hll) => (6, None),
        Some(Algorithm::LinearCounting) => (7, None),
        Some(Algorithm::BeauCoup { d }) => (8, Some(d)),
        Some(Algorithm::Bloom { d, .. }) => (9, Some(d)),
        Some(Algorithm::SuMaxMax { d }) => (10, Some(d)),
        Some(Algorithm::OddSketch) => (11, None),
        Some(Algorithm::MaxInterval { d }) => (12, Some(d)),
    };
    out.push(tag);
    if let Some(d) = d {
        put_usize(out, d);
    }
    if let Some(Algorithm::Bloom { bit_optimized, .. }) = def.algorithm {
        out.push(u8::from(bit_optimized));
    }
    out.push(def.prob_log2);
    out.extend_from_slice(&def.distinct_threshold.to_le_bytes());
    put_u32(out, def.name.len() as u32);
    out.extend_from_slice(def.name.as_bytes());
}

/// Appends the canonical payload of a record to `out`.
fn put_payload(out: &mut Vec<u8>, seq: u64, intent: &WalIntent, outcome: &WalOutcome) {
    put_head(out, seq, intent);
    put_outcome(out, outcome);
}

/// Appends the `seq | intent` bytes that open a record's payload.
fn put_head(out: &mut Vec<u8>, seq: u64, intent: &WalIntent) {
    out.extend_from_slice(&seq.to_le_bytes());
    match intent {
        WalIntent::Deploy(def) => {
            out.push(1);
            put_definition(out, def);
        }
        WalIntent::Remove(id) => {
            out.push(2);
            put_u32(out, id.0);
        }
        WalIntent::Reallocate { task, new_buckets } => {
            out.push(3);
            put_u32(out, task.0);
            put_usize(out, *new_buckets);
        }
        WalIntent::Reset(id) => {
            out.push(4);
            put_u32(out, id.0);
        }
    }
}

/// Appends the outcome bytes that close a record's payload.
fn put_outcome(out: &mut Vec<u8>, outcome: &WalOutcome) {
    match outcome {
        WalOutcome::Pending => out.push(0),
        WalOutcome::Aborted => out.push(1),
        WalOutcome::Committed { removed, deployed } => {
            out.push(2);
            out.push(u8::from(removed.is_some()) | u8::from(deployed.is_some()) << 1);
            if let Some(id) = removed {
                put_u32(out, id.0);
            }
            if let Some((id, buckets)) = deployed {
                put_u32(out, id.0);
                put_usize(out, *buckets);
            }
        }
    }
}

/// Cursor over a frame payload; every read is bounds-checked.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if n > self.0.len() {
            return Err(FrameError::Malformed("field runs past the payload"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, FrameError> {
        usize::try_from(self.u64()?).map_err(|_| FrameError::Malformed("count exceeds usize"))
    }

    fn task(&mut self) -> Result<TaskId, FrameError> {
        self.u32().map(TaskId)
    }

    fn key(&mut self) -> Result<KeySpec, FrameError> {
        let b = self.bytes(3)?;
        if b[0] > 32 || b[1] > 32 || b[2] > 0b1111 {
            return Err(FrameError::Malformed("key spec out of range"));
        }
        Ok(KeySpec {
            src_ip_prefix: b[0],
            dst_ip_prefix: b[1],
            src_port: b[2] & 1 != 0,
            dst_port: b[2] & 2 != 0,
            protocol: b[2] & 4 != 0,
            timestamp: b[2] & 8 != 0,
        })
    }

    fn prefix(&mut self) -> Result<PrefixFilter, FrameError> {
        let (net, bits) = (self.u32()?, self.u8()?);
        if bits > 32 || PrefixFilter::new(net, bits).net != net {
            return Err(FrameError::Malformed("prefix filter with host bits or length > 32"));
        }
        Ok(PrefixFilter { net, bits })
    }

    fn definition(&mut self) -> Result<TaskDefinition, FrameError> {
        let filter = TaskFilter {
            src: self.prefix()?,
            dst: self.prefix()?,
        };
        let key = self.key()?;
        let attribute = match self.u8()? {
            1 => Attribute::Frequency(match self.u8()? {
                0 => FreqParam::Packets,
                1 => FreqParam::Bytes,
                _ => return Err(FrameError::Malformed("unknown frequency parameter")),
            }),
            2 => Attribute::Distinct(self.key()?),
            3 => Attribute::Existence(self.key()?),
            4 => Attribute::Max(match self.u8()? {
                0 => MaxParam::QueueLen,
                1 => MaxParam::QueueDelayUs,
                2 => MaxParam::PacketIntervalUs,
                _ => return Err(FrameError::Malformed("unknown max parameter")),
            }),
            _ => return Err(FrameError::Malformed("unknown attribute")),
        };
        let memory = self.usize()?;
        let algorithm = match self.u8()? {
            0 => None,
            1 => Some(Algorithm::Cms { d: self.usize()? }),
            2 => Some(Algorithm::SuMaxSum { d: self.usize()? }),
            3 => Some(Algorithm::Mrac),
            4 => Some(Algorithm::Tower { d: self.usize()? }),
            5 => Some(Algorithm::CounterBraids),
            6 => Some(Algorithm::Hll),
            7 => Some(Algorithm::LinearCounting),
            8 => Some(Algorithm::BeauCoup { d: self.usize()? }),
            9 => Some(Algorithm::Bloom {
                d: self.usize()?,
                bit_optimized: match self.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("bit_optimized is not a bool")),
                },
            }),
            10 => Some(Algorithm::SuMaxMax { d: self.usize()? }),
            11 => Some(Algorithm::OddSketch),
            12 => Some(Algorithm::MaxInterval { d: self.usize()? }),
            _ => return Err(FrameError::Malformed("unknown algorithm")),
        };
        let prob_log2 = self.u8()?;
        let distinct_threshold = self.u64()?;
        let len = self.u32()? as usize;
        let name = std::str::from_utf8(self.bytes(len)?)
            .map_err(|_| FrameError::Malformed("task name is not UTF-8"))?
            .to_owned();
        Ok(TaskDefinition {
            name,
            filter,
            key,
            attribute,
            memory,
            algorithm,
            prob_log2,
            distinct_threshold,
        })
    }
}

/// What a logged operation set out to do, recorded before any mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalIntent {
    /// Deploy this definition — the one the deployed task record
    /// shares.
    Deploy(Arc<TaskDefinition>),
    /// Remove this task.
    Remove(TaskId),
    /// Re-home this task at a new bucket count.
    Reallocate {
        /// The task whose memory is being reallocated.
        task: TaskId,
        /// Requested bucket count (pre-rounding).
        new_buckets: usize,
    },
    /// Clear this task's buckets (epoch boundary).
    Reset(TaskId),
}

/// How a logged operation resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOutcome {
    /// Appended but not yet resolved. A recovery that finds a pending
    /// record treats it as aborted: the transaction either never ran or
    /// rolled back with the crash.
    Pending,
    /// The operation changed no state (rolled back or rejected);
    /// recovery skips it.
    Aborted,
    /// The operation changed state; recovery must reproduce exactly
    /// this effect.
    Committed {
        /// Task retired by the operation, if any.
        removed: Option<TaskId>,
        /// Task created by the operation, with its rounded per-row
        /// bucket count (replay re-deploys at exactly this geometry).
        deployed: Option<(TaskId, usize)>,
    },
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based; 0 means "before any record").
    pub seq: u64,
    /// The intent, appended before the mutation started.
    pub intent: WalIntent,
    /// Resolution, patched in when the transaction finishes.
    pub outcome: WalOutcome,
    /// Frame checksum over the canonical payload, rewritten at append
    /// and at resolution (private so nothing can patch a record without
    /// reframing it — except the explicit corruption hook).
    crc: u32,
    /// Checksum of the payload's `seq | intent` bytes, which resolution
    /// continues over the outcome instead of rehashing the intent.
    head: u32,
}

impl WalRecord {
    /// The stored frame checksum.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// Whether the stored frame checksum matches the record contents.
    pub fn frame_ok(&self) -> bool {
        self.frame_ok_with(&mut Vec::new())
    }

    fn frame_ok_with(&self, buf: &mut Vec<u8>) -> bool {
        buf.clear();
        put_payload(buf, self.seq, &self.intent, &self.outcome);
        self.crc == payload_crc(buf)
    }

    /// Appends this record's frame (`len | payload | crc`, see the
    /// module docs) to `out`. The checksum written is the stored one, so
    /// a record broken by [`WriteAheadLog::corrupt_frame`] encodes to a
    /// frame [`WalRecord::decode`] refuses.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        put_payload(out, self.seq, &self.intent, &self.outcome);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        put_u32(out, self.crc);
    }

    /// Reads one frame off the front of `bytes`, returning the record
    /// and the bytes after it. Never panics, whatever the input.
    pub fn decode(bytes: &[u8]) -> Result<(WalRecord, &[u8]), FrameError> {
        if bytes.len() < 4 {
            return Err(FrameError::Truncated);
        }
        let (len, rest) = bytes.split_at(4);
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        if rest.len() < len || rest.len() - len < 4 {
            return Err(FrameError::Truncated);
        }
        let (payload, rest) = rest.split_at(len);
        let (stored, rest) = rest.split_at(4);
        let stored = u32::from_le_bytes(stored.try_into().expect("4 bytes"));
        let computed = payload_crc(payload);
        if stored != computed {
            return Err(FrameError::BadCrc { stored, computed });
        }
        let mut r = Reader(payload);
        let seq = r.u64()?;
        let intent = match r.u8()? {
            1 => WalIntent::Deploy(Arc::new(r.definition()?)),
            2 => WalIntent::Remove(r.task()?),
            3 => WalIntent::Reallocate {
                task: r.task()?,
                new_buckets: r.usize()?,
            },
            4 => WalIntent::Reset(r.task()?),
            _ => return Err(FrameError::Malformed("unknown intent")),
        };
        let head = payload_crc(&payload[..payload.len() - r.0.len()]);
        let outcome = match r.u8()? {
            0 => WalOutcome::Pending,
            1 => WalOutcome::Aborted,
            2 => {
                let present = r.u8()?;
                if present > 0b11 {
                    return Err(FrameError::Malformed("unknown effect flags"));
                }
                WalOutcome::Committed {
                    removed: if present & 1 != 0 { Some(r.task()?) } else { None },
                    deployed: if present & 2 != 0 {
                        Some((r.task()?, r.usize()?))
                    } else {
                        None
                    },
                }
            }
            _ => return Err(FrameError::Malformed("unknown outcome")),
        };
        if !r.0.is_empty() {
            return Err(FrameError::Malformed("bytes left over after the outcome"));
        }
        Ok((WalRecord { seq, intent, outcome, crc: stored, head }, rest))
    }
}

/// An in-memory write-ahead log (modeled durable storage).
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog {
    /// Held records, oldest first: appends only ever add the highest
    /// sequence number and compaction only ever drops records, so
    /// resolution finds the record it names among the newest.
    records: Vec<WalRecord>,
    next_seq: u64,
    /// Payload buffer every framing reuses.
    frame: Vec<u8>,
}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> Self {
        WriteAheadLog {
            records: Vec::new(),
            next_seq: 1,
            frame: Vec::new(),
        }
    }

    /// Appends an intent record and returns its sequence number. Called
    /// *before* the operation mutates anything.
    pub fn append(&mut self, intent: WalIntent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frame.clear();
        put_head(&mut self.frame, seq, &intent);
        let head = payload_crc(&self.frame);
        let crc = frame_crc(&mut self.frame, head, &WalOutcome::Pending);
        self.records.push(WalRecord {
            seq,
            intent,
            outcome: WalOutcome::Pending,
            crc,
            head,
        });
        seq
    }

    /// Resolves record `seq` as committed with the given effect.
    pub fn commit(&mut self, seq: u64, removed: Option<TaskId>, deployed: Option<(TaskId, usize)>) {
        self.resolve(seq, WalOutcome::Committed { removed, deployed });
    }

    /// Resolves record `seq` as aborted (no state change happened).
    pub fn abort(&mut self, seq: u64) {
        self.resolve(seq, WalOutcome::Aborted);
    }

    fn position(&self, seq: u64) -> Option<usize> {
        self.records.iter().rposition(|r| r.seq == seq)
    }

    fn resolve(&mut self, seq: u64, outcome: WalOutcome) {
        let Some(at) = self.position(seq) else {
            // The control plane detaches the log for the whole
            // transaction, so nothing can compact it in between.
            debug_assert!(false, "resolving record {seq}, which the log no longer holds");
            return;
        };
        let rec = &mut self.records[at];
        debug_assert_eq!(rec.outcome, WalOutcome::Pending, "record resolved twice");
        rec.outcome = outcome;
        rec.crc = frame_crc(&mut self.frame, rec.head, &outcome);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// The highest sequence number appended so far (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Committed records with `seq > after`, oldest first — the replay
    /// suffix for a checkpoint anchored at `after`.
    pub fn committed_after(&self, after: u64) -> impl Iterator<Item = &WalRecord> {
        self.records
            .iter()
            .filter(move |r| r.seq > after && matches!(r.outcome, WalOutcome::Committed { .. }))
    }

    /// Drops records with `seq <= through` — safe once a checkpoint
    /// anchored at `through` is durable, because recovery never reads
    /// below its anchor. Sequence numbers keep rising.
    pub fn compact(&mut self, through: u64) {
        self.records.retain(|r| r.seq > through);
    }

    /// Records currently held (compaction shrinks this; `last_seq` does
    /// not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drops aborted records, returning how many were removed.
    ///
    /// This is the compaction that is safe *between* checkpoint
    /// barriers: recovery replays only committed records
    /// ([`WriteAheadLog::committed_after`]), so an aborted record can
    /// never influence a recovered state no matter where the anchor
    /// sits. Committed records, by contrast, must survive until a
    /// checkpoint anchored past them is durable — only
    /// [`WriteAheadLog::compact`] may drop those.
    ///
    /// Without this, a workload of mostly-rejected reconfigurations (a
    /// fault-heavy chaos schedule, an overloaded controller shedding
    /// deploys) grows the log without bound even though nothing in it
    /// will ever replay.
    pub fn prune_aborted(&mut self) -> usize {
        let before = self.records.len();
        self.records
            .retain(|r| !matches!(r.outcome, WalOutcome::Aborted));
        before - self.records.len()
    }

    /// Verifies the frame checksums of every record with `seq > after`
    /// — the suffix a recovery anchored at `after` would replay.
    /// Returns the sequence number of the first corrupted frame, if
    /// any. Records at or below the anchor are not checked: the
    /// checkpoint image is authoritative there and recovery never reads
    /// them.
    pub fn verify_frames_after(&self, after: u64) -> Result<(), u64> {
        let mut buf = Vec::new();
        match self
            .records
            .iter()
            .find(|r| r.seq > after && !r.frame_ok_with(&mut buf))
        {
            Some(bad) => Err(bad.seq),
            None => Ok(()),
        }
    }

    /// Corruption-injection hook for tests: flips
    /// bits in the stored frame checksum of record `seq`, modeling a
    /// torn write anywhere in the frame (a mangled payload and a
    /// mangled checksum are indistinguishable to verification). Returns
    /// false if no such record is held. This is the *only* way to make
    /// a held record fail [`WalRecord::frame_ok`].
    pub fn corrupt_frame(&mut self, seq: u64) -> bool {
        match self.position(seq) {
            Some(at) => {
                self.records[at].crc ^= 0xDEAD_BEEF;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_commit_abort_lifecycle() {
        let mut wal = WriteAheadLog::new();
        assert_eq!(wal.last_seq(), 0);
        let a = wal.append(WalIntent::Remove(TaskId(1)));
        let b = wal.append(WalIntent::Remove(TaskId(2)));
        assert_eq!((a, b), (1, 2));
        wal.commit(a, Some(TaskId(1)), None);
        wal.abort(b);
        assert_eq!(wal.records()[0].outcome, WalOutcome::Committed {
            removed: Some(TaskId(1)),
            deployed: None,
        });
        assert_eq!(wal.records()[1].outcome, WalOutcome::Aborted);
        // Only the committed record replays.
        assert_eq!(wal.committed_after(0).count(), 1);
        assert_eq!(wal.committed_after(a).count(), 0);
    }

    #[test]
    fn pending_records_do_not_replay() {
        let mut wal = WriteAheadLog::new();
        wal.append(WalIntent::Reset(TaskId(3)));
        assert_eq!(wal.committed_after(0).count(), 0);
    }

    #[test]
    fn prune_aborted_keeps_committed_and_pending() {
        let mut wal = WriteAheadLog::new();
        let a = wal.append(WalIntent::Remove(TaskId(1)));
        wal.commit(a, Some(TaskId(1)), None);
        for i in 0..10 {
            let s = wal.append(WalIntent::Remove(TaskId(100 + i)));
            wal.abort(s);
        }
        let pending = wal.append(WalIntent::Reset(TaskId(2)));
        assert_eq!(wal.len(), 12);
        assert_eq!(wal.prune_aborted(), 10);
        assert_eq!(wal.len(), 2);
        // The replay suffix is unchanged: committed records survive,
        // the pending record still resolves under its original seq.
        assert_eq!(wal.committed_after(0).count(), 1);
        wal.commit(pending, None, None);
        assert_eq!(wal.committed_after(0).count(), 2);
        assert_eq!(wal.last_seq(), 12, "pruning never rewinds sequence numbers");
    }

    /// Every way a record resolves: `None` leaves it pending.
    fn resolutions() -> [Option<WalOutcome>; 6] {
        let committed = |removed, deployed| Some(WalOutcome::Committed { removed, deployed });
        [
            None,
            Some(WalOutcome::Aborted),
            committed(None, None),
            committed(Some(TaskId(4)), None),
            committed(None, Some((TaskId(5), 2048))),
            committed(Some(TaskId(6)), Some((TaskId(7), usize::MAX))),
        ]
    }

    fn resolve_as(wal: &mut WriteAheadLog, seq: u64, outcome: Option<WalOutcome>) {
        match outcome {
            None | Some(WalOutcome::Pending) => {}
            Some(WalOutcome::Aborted) => wal.abort(seq),
            Some(WalOutcome::Committed { removed, deployed }) => wal.commit(seq, removed, deployed),
        }
    }

    #[test]
    fn frames_track_every_resolution_and_catch_corruption() {
        let def = TaskDefinition::builder("hh")
            .key(KeySpec::SRC_IP)
            .memory(512)
            .build();
        let intents = [
            WalIntent::Deploy(Arc::new(def)),
            WalIntent::Remove(TaskId(1)),
            WalIntent::Reallocate {
                task: TaskId(2),
                new_buckets: 4096,
            },
            WalIntent::Reset(TaskId(3)),
        ];
        let mut wal = WriteAheadLog::new();
        for intent in &intents {
            for outcome in resolutions() {
                let seq = wal.append(intent.clone());
                resolve_as(&mut wal, seq, outcome);
            }
        }
        let mut payload = Vec::new();
        for rec in wal.records() {
            // The checksum resolution continued is the whole frame's.
            payload.clear();
            put_payload(&mut payload, rec.seq, &rec.intent, &rec.outcome);
            assert_eq!(rec.crc(), payload_crc(&payload), "{rec:?}");
            assert!(rec.frame_ok(), "{rec:?}");
            let mut bytes = Vec::new();
            rec.encode(&mut bytes);
            let (back, rest) = WalRecord::decode(&bytes).unwrap_or_else(|e| panic!("{rec:?}: {e}"));
            assert_eq!((&back, rest), (rec, &[][..]));
            if rec.outcome != WalOutcome::Pending {
                continue;
            }
            // A pending record read back off its frame resolves into a
            // frame that verifies, whatever the outcome.
            for outcome in resolutions() {
                let mut log = WriteAheadLog {
                    records: vec![back.clone()],
                    next_seq: back.seq + 1,
                    frame: Vec::new(),
                };
                resolve_as(&mut log, back.seq, outcome);
                assert_eq!(
                    log.verify_frames_after(0),
                    Ok(()),
                    "{back:?} as {outcome:?}"
                );
            }
        }
        assert_eq!(wal.verify_frames_after(0), Ok(()));
        let a = wal.records()[1].seq;
        assert!(wal.corrupt_frame(a));
        assert!(!wal.records()[1].frame_ok());
        assert_eq!(wal.verify_frames_after(0), Err(a), "first bad seq is named");
        assert_eq!(
            wal.verify_frames_after(a),
            Ok(()),
            "records at or below the anchor are the checkpoint's problem"
        );
        assert!(!wal.corrupt_frame(99), "unknown seq reports false");
    }

    #[test]
    fn a_scripted_control_sequence_frames_to_pinned_bytes() {
        use crate::control::{FlyMon, FlyMonConfig, TaskHandle};
        // Deploy, reallocate, a refused remove, remove and reset, as the
        // control plane logs them: the frames are a contract, so these
        // bytes stay what they were before resolution continued the
        // intent's checksum instead of rehashing the record.
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 2,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        });
        fm.attach_wal(WriteAheadLog::new());
        let cms = |name: &str| {
            TaskDefinition::builder(name)
                .key(KeySpec::SRC_IP)
                .memory(256)
                .build()
        };
        let a = fm.deploy(&cms("a")).unwrap();
        let b = fm.deploy(&cms("b")).unwrap();
        let a = fm.reallocate_memory(a, 512).unwrap();
        assert!(fm.remove(TaskHandle(TaskId(99))).is_err());
        fm.remove(b).unwrap();
        fm.reset_task(a).unwrap();
        let mut bytes = Vec::new();
        for rec in fm.wal().unwrap().records() {
            rec.encode(&mut bytes);
        }
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_SEQUENCE.concat());
    }

    const PINNED_SEQUENCE: [&str; 11] = [
        // deploy a, committed as task 1
        "3d00000001000000000000000100000000000000000000200000010000010000",
        "0000000000000002000000000000010000006102020100000000010000000000",
        "00a9e6d0a7",
        // deploy b, committed as task 2
        "3d00000002000000000000000100000000000000000000200000010000010000",
        "0000000000000002000000000000010000006202020200000000010000000000",
        "0061896447",
        // reallocate task 1 to 512, committed as 1 -> 3
        "2700000003000000000000000301000000000200000000000002030100000003",
        "0000000002000000000000b27660f4",
        // remove task 99, aborted
        "0e0000000400000000000000026300000001dc6a4a2c",
        // remove task 2, committed
        "1300000005000000000000000202000000020102000000196dba62",
        // reset task 3, committed
        "0f0000000600000000000000040300000002002ae3c4b5",
    ];

    #[test]
    fn distinct_records_have_distinct_frames() {
        let mut wal = WriteAheadLog::new();
        let a = wal.append(WalIntent::Remove(TaskId(1)));
        wal.append(WalIntent::Remove(TaskId(1)));
        // Same intent, different seq: the frame covers the seq too.
        assert_ne!(wal.records()[0].crc(), wal.records()[1].crc());
        let before = wal.records()[0].crc();
        wal.commit(a, Some(TaskId(1)), None);
        assert_ne!(wal.records()[0].crc(), before, "outcome is inside the frame");
    }

    #[test]
    fn compaction_preserves_sequence_numbers() {
        let mut wal = WriteAheadLog::new();
        for i in 0..5 {
            let s = wal.append(WalIntent::Remove(TaskId(i)));
            wal.commit(s, Some(TaskId(i)), None);
        }
        wal.compact(3);
        assert_eq!(wal.records().len(), 2);
        assert_eq!(wal.records()[0].seq, 4);
        let s = wal.append(WalIntent::Remove(TaskId(9)));
        assert_eq!(s, 6, "sequence numbers keep rising after compaction");
    }

    #[test]
    fn compaction_and_pruning_keep_records_seq_sorted() {
        // Resolution and the corruption hook find records by `seq`;
        // both ways of dropping records must leave the survivors sorted
        // and resolvable.
        let mut wal = WriteAheadLog::new();
        for i in 0..40u32 {
            let s = wal.append(WalIntent::Reset(TaskId(i)));
            match i % 3 {
                0 => wal.abort(s),
                1 => wal.commit(s, None, None),
                _ => {} // stays pending
            }
        }
        let sorted = |wal: &WriteAheadLog| wal.records().windows(2).all(|w| w[0].seq < w[1].seq);
        assert_eq!(wal.prune_aborted(), 14);
        assert!(sorted(&wal));
        wal.compact(10);
        assert!(sorted(&wal));
        assert_eq!(wal.records()[0].seq, 11);
        let s = wal.append(WalIntent::Remove(TaskId(99)));
        assert!(sorted(&wal));
        // A pending record from the middle and the newest one both
        // resolve, and only they change.
        wal.commit(12, Some(TaskId(11)), None);
        wal.abort(s);
        let at = |seq: u64| wal.records().iter().find(|r| r.seq == seq).unwrap();
        assert!(matches!(at(12).outcome, WalOutcome::Committed { removed: Some(TaskId(11)), .. }));
        assert_eq!(at(s).outcome, WalOutcome::Aborted);
        assert_eq!(at(15).outcome, WalOutcome::Pending);
        assert_eq!(wal.verify_frames_after(0), Ok(()));
        assert!(wal.corrupt_frame(15));
        assert_eq!(wal.verify_frames_after(0), Err(15));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no longer holds")]
    fn resolving_a_compacted_record_is_a_bug() {
        let mut wal = WriteAheadLog::new();
        let s = wal.append(WalIntent::Reset(TaskId(1)));
        wal.compact(s);
        wal.commit(s, None, None);
    }

    fn definitions() -> Vec<TaskDefinition> {
        let algorithms = [
            Algorithm::Cms { d: 3 },
            Algorithm::SuMaxSum { d: 2 },
            Algorithm::Mrac,
            Algorithm::Tower { d: 3 },
            Algorithm::CounterBraids,
            Algorithm::Hll,
            Algorithm::LinearCounting,
            Algorithm::BeauCoup { d: 3 },
            Algorithm::Bloom { d: 2, bit_optimized: true },
            Algorithm::Bloom { d: 3, bit_optimized: false },
            Algorithm::SuMaxMax { d: 2 },
            Algorithm::OddSketch,
            Algorithm::MaxInterval { d: 1 },
        ];
        let attributes = [
            Attribute::frequency_packets(),
            Attribute::frequency_bytes(),
            Attribute::Distinct(KeySpec::SRC_IP),
            Attribute::Distinct(KeySpec { timestamp: true, ..KeySpec::NONE }),
            Attribute::Existence(KeySpec::FIVE_TUPLE),
            Attribute::Max(MaxParam::QueueLen),
            Attribute::Max(MaxParam::QueueDelayUs),
            Attribute::Max(MaxParam::PacketIntervalUs),
        ];
        let keys = [
            KeySpec::NONE,
            KeySpec::SRC_IP,
            KeySpec::DST_IP,
            KeySpec::IP_PAIR,
            KeySpec::SRC_IP_SRC_PORT,
            KeySpec::FIVE_TUPLE,
            KeySpec { src_ip_prefix: 24, dst_port: true, ..KeySpec::NONE },
        ];
        let filters = [
            TaskFilter::ANY,
            TaskFilter::src(0x0a00_0000, 8),
            TaskFilter::dst(0xc0a8_0100, 24),
            TaskFilter {
                src: PrefixFilter::new(0x0a01_0000, 16),
                dst: PrefixFilter::new(0xffff_ffff, 32),
            },
        ];
        // The codec carries a definition, it does not validate one:
        // every shape must survive, whether or not it would deploy.
        let mut defs = Vec::new();
        for i in 0..algorithms.len().max(attributes.len()) {
            let mut b = TaskDefinition::builder(format!("task-{i}/µ"))
                .filter(filters[i % filters.len()])
                .key(keys[i % keys.len()])
                .attribute(attributes[i % attributes.len()])
                .memory(1 << (i % 17))
                .probability_log2((i % 4) as u8)
                .distinct_threshold(512 + i as u64);
            if i > 0 {
                b = b.algorithm(algorithms[i % algorithms.len()]);
            }
            defs.push(b.build());
        }
        defs.push(TaskDefinition::builder("").build());
        defs
    }

    /// A log holding every intent and outcome variant.
    fn every_variant() -> WriteAheadLog {
        let mut wal = WriteAheadLog::new();
        for (i, def) in definitions().into_iter().enumerate() {
            let s = wal.append(WalIntent::Deploy(Arc::new(def)));
            match i % 3 {
                0 => wal.commit(s, None, Some((TaskId(i as u32 + 1), 1 << (i % 17)))),
                1 => wal.abort(s),
                _ => {}
            }
        }
        let s = wal.append(WalIntent::Remove(TaskId(3)));
        wal.commit(s, Some(TaskId(3)), None);
        let s = wal.append(WalIntent::Reallocate { task: TaskId(4), new_buckets: 4096 });
        wal.commit(s, Some(TaskId(4)), Some((TaskId(u32::MAX), usize::MAX)));
        let s = wal.append(WalIntent::Reallocate { task: TaskId(5), new_buckets: 0 });
        wal.abort(s);
        let s = wal.append(WalIntent::Reset(TaskId(6)));
        wal.commit(s, None, None);
        wal.append(WalIntent::Reset(TaskId(7)));
        wal
    }

    #[test]
    fn every_record_shape_round_trips_through_its_frame() {
        let wal = every_variant();
        let mut bytes = Vec::new();
        for rec in wal.records() {
            rec.encode(&mut bytes);
        }
        let mut rest = bytes.as_slice();
        for rec in wal.records() {
            let (back, after) = WalRecord::decode(rest).unwrap_or_else(|e| panic!("{rec:?}: {e}"));
            assert_eq!(&back, rec);
            assert!(back.frame_ok());
            rest = after;
        }
        assert!(rest.is_empty());
        assert_eq!(WalRecord::decode(rest), Err(FrameError::Truncated));
    }

    #[test]
    fn deploy_frame_bytes_are_pinned() {
        // The format is a contract: these are the bytes, field by field
        // as the module docs lay them out, and the zlib CRC-32 of the
        // 70-byte payload.
        let def = TaskDefinition::builder("hh")
            .filter(TaskFilter::src(0x0a00_0000, 8))
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_bytes())
            .memory(8192)
            .algorithm(Algorithm::Cms { d: 3 })
            .probability_log2(2)
            .build();
        let mut wal = WriteAheadLog::new();
        let s = wal.append(WalIntent::Deploy(Arc::new(def)));
        wal.commit(s, None, Some((TaskId(7), 8192)));
        let mut bytes = Vec::new();
        wal.records()[0].encode(&mut bytes);
        #[rustfmt::skip]
        let golden: [u8; 78] = [
            70, 0, 0, 0,                        // payload length
            1, 0, 0, 0, 0, 0, 0, 0,             // seq 1
            1,                                  // Deploy
            0, 0, 0, 10, 8,                     // src 10.0.0.0/8
            0, 0, 0, 0, 0,                      // dst any
            32, 0, 0,                           // key SRC_IP
            1, 1,                               // Frequency(Bytes)
            0, 32, 0, 0, 0, 0, 0, 0,            // memory 8192
            1, 3, 0, 0, 0, 0, 0, 0, 0,          // Cms { d: 3 }
            2,                                  // prob_log2
            0, 2, 0, 0, 0, 0, 0, 0,             // distinct_threshold 512
            2, 0, 0, 0, b'h', b'h',             // name
            2, 2,                               // Committed, deployed only
            7, 0, 0, 0,                         // task 7
            0, 32, 0, 0, 0, 0, 0, 0,            // at 8192 buckets
            0xdb, 0x06, 0x0f, 0x83,             // crc 0x830f06db
        ];
        assert_eq!(bytes, golden);
        assert_eq!(wal.records()[0].crc(), 0x830f_06db);
    }

    #[test]
    fn mutated_and_truncated_suffixes_are_refused_without_panicking() {
        let wal = every_variant();
        let mut suffix = Vec::new();
        let mut ends = Vec::new();
        for rec in wal.records() {
            rec.encode(&mut suffix);
            ends.push(suffix.len());
        }
        // Decodes frames until the bytes run out or one is refused.
        let read = |mut bytes: &[u8]| -> Result<usize, FrameError> {
            let mut frames = 0;
            while !bytes.is_empty() {
                bytes = WalRecord::decode(bytes)?.1;
                frames += 1;
            }
            Ok(frames)
        };
        assert_eq!(read(&suffix), Ok(ends.len()));
        // Truncation: the whole frames before the cut still read, the
        // cut frame is named truncated — unless the cut fell between two.
        for cut in 0..suffix.len() {
            let expect = if cut == 0 || ends.contains(&cut) {
                Ok(ends.iter().filter(|&&e| e <= cut).count())
            } else {
                Err(FrameError::Truncated)
            };
            assert_eq!(read(&suffix[..cut]), expect, "cut at {cut}");
        }
        // One flipped byte anywhere: a changed length prefix misframes
        // the rest, anything else fails its checksum; never a record.
        let mut bytes = suffix.clone();
        for at in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                bytes[at] ^= flip;
                let got = read(&bytes);
                assert!(
                    matches!(got, Err(FrameError::BadCrc { .. } | FrameError::Truncated)),
                    "byte {at} ^ {flip:#x}: {got:?}"
                );
                bytes[at] ^= flip;
            }
        }
        // Payloads that hash correctly and still are not records.
        let reframed = |payload: &[u8]| {
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(payload);
            f.extend_from_slice(&payload_crc(payload).to_le_bytes());
            f
        };
        let payload = &suffix[4..ends[0] - 4];
        for len in 0..payload.len() {
            let frame = reframed(&payload[..len]);
            let got = WalRecord::decode(&frame);
            assert!(matches!(got, Err(FrameError::Malformed(_))), "payload cut at {len}: {got:?}");
        }
        let mut long = payload.to_vec();
        long.push(0);
        assert!(matches!(WalRecord::decode(&reframed(&long)), Err(FrameError::Malformed(_))));
        for at in 0..payload.len() {
            for v in [0x00u8, 0x7f, 0xff] {
                let mut p = payload.to_vec();
                p[at] = v;
                // Whatever comes back, it comes back.
                let _ = WalRecord::decode(&reframed(&p));
            }
        }
    }
}
