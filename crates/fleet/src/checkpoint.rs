//! Dependency-free binary encoding for kernel checkpoints.
//!
//! The resident kernel (see [`crate::kernel::ResidentKernel`]) can
//! serialise its complete mid-run state to bytes and later resume such
//! that the resumed run is **bit-identical** to the uninterrupted one.
//! This module provides the wire primitives: a little-endian
//! length-checked encoder/decoder pair, the versioned header, and the
//! error type every malformed input is rejected with. There is no
//! `unsafe` anywhere on the decode path and every read is
//! bounds-checked, so corrupted, truncated or wrong-version bytes
//! produce a [`CheckpointError`] — never a panic, UB or a silent
//! misparse.
//!
//! Floats are stored as raw IEEE-754 bit patterns ([`f64::to_bits`]),
//! which is what makes restore exact: no text round-trip, no rounding.

use crate::job::{JobClass, JobOutcome, JobSpec, Taxon};
use crate::state::{DropReason, DroppedJob, QueuedJob};
use astro_core::schedule::StaticSchedule;
use astro_rl::qlearn::PolicySnapshot;
use std::fmt;

/// Magic bytes opening every checkpoint ("Astro Fleet ChecKpoint").
pub const MAGIC: [u8; 4] = *b"AFCK";
/// Current checkpoint format version. Bumped on any layout change.
pub const VERSION: u32 = 3;

/// Why a checkpoint could not be decoded. Every variant is a clean,
/// descriptive rejection — malformed bytes can never partially apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before a read completed.
    Truncated {
        /// Byte offset the failed read started at.
        at: usize,
        /// Bytes the read needed.
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is not [`VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The checkpoint was taken under a different kernel configuration
    /// (cluster, scenario, parameters) than the one resuming it.
    ConfigMismatch {
        /// Configuration fingerprint found in the header.
        found: u64,
        /// Fingerprint of the resuming configuration.
        expected: u64,
    },
    /// A decoded value is structurally impossible (bad enum tag,
    /// count exceeding remaining bytes, inconsistent cross-field state).
    Corrupt(&'static str),
    /// A workload name in the checkpoint is not in this build's
    /// workload registry.
    UnknownWorkload(String),
    /// An architecture key in the checkpoint is not present in the
    /// resuming cluster.
    UnknownArch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { at, need, have } => write!(
                f,
                "truncated checkpoint: read of {need} bytes at offset {at} has only {have} left"
            ),
            CheckpointError::BadMagic => write!(f, "not a fleet checkpoint (bad magic)"),
            CheckpointError::BadVersion { found, expected } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {expected})"
            ),
            CheckpointError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint was taken under a different configuration \
                 (fingerprint {found:#018x}, resuming under {expected:#018x})"
            ),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::UnknownWorkload(name) => {
                write!(f, "checkpoint names unknown workload {name:?}")
            }
            CheckpointError::UnknownArch(name) => {
                write!(
                    f,
                    "checkpoint names architecture {name:?} absent from this cluster"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Little-endian binary encoder. Append-only; the companion [`Dec`]
/// reads fields back in the same order.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
pub(crate) struct Dec<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Dec<'a> {
    pub fn new(b: &'a [u8]) -> Self {
        Dec { b, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let have = self.b.len() - self.off;
        if have < n {
            return Err(CheckpointError::Truncated {
                at: self.off,
                need: n,
                have,
            });
        }
        let s = &self.b[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("boolean byte out of range")),
        }
    }

    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::Corrupt("usize field overflows platform"))
    }

    /// A count that must be satisfiable by the bytes remaining (each
    /// element at least `min_elem_bytes`), so corrupt counts are
    /// rejected before any allocation of that size.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        let remaining = self.b.len() - self.off;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(CheckpointError::Corrupt(
                "element count exceeds remaining checkpoint bytes",
            ));
        }
        Ok(n)
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupt("string field is not UTF-8"))
    }

    /// Fails unless every byte has been consumed — trailing garbage is
    /// treated as corruption, not ignored.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.off == self.b.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt("trailing bytes after checkpoint"))
        }
    }
}

/// FNV-1a over a byte slice — the checkpoint's integrity checksum and
/// the mixer behind the configuration fingerprint.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the integrity checksum over everything encoded so far. The
/// sealed buffer is what [`unseal`] accepts.
pub(crate) fn seal(mut buf: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Verifies the trailing checksum and returns the payload it covers.
/// Any byte flip anywhere in a sealed checkpoint fails here, before
/// structural decoding even starts.
pub(crate) fn unseal(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() < 8 {
        return Err(CheckpointError::Truncated {
            at: 0,
            need: 8,
            have: bytes.len(),
        });
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(CheckpointError::Corrupt("integrity checksum mismatch"));
    }
    Ok(payload)
}

/// Writes the versioned header: magic, format version, and the
/// configuration fingerprint of the run taking the checkpoint.
pub(crate) fn header(enc: &mut Enc, config_fp: u64) {
    enc.buf.extend_from_slice(&MAGIC);
    enc.u32(VERSION);
    enc.u64(config_fp);
}

/// Validates the header against this build and the resuming run's
/// configuration fingerprint.
pub(crate) fn check_header(dec: &mut Dec<'_>, config_fp: u64) -> Result<(), CheckpointError> {
    let magic = dec.take(4)?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = dec.u32()?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion {
            found: version,
            expected: VERSION,
        });
    }
    let found = dec.u64()?;
    if found != config_fp {
        return Err(CheckpointError::ConfigMismatch {
            found,
            expected: config_fp,
        });
    }
    Ok(())
}

/// A saved arrival-cursor position: everything any
/// [`ArrivalCursor`](crate::arrival::ArrivalCursor) implementation
/// needs to resume its exact pull sequence. Fields a given cursor does
/// not use stay at their zero values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CursorState {
    /// Jobs already pulled from the stream.
    pub pos: u64,
    /// Arrival-time generator state (lazy regeneration stream).
    pub rng_t: [u64; 4],
    /// Per-job draw generator state (workload pick, SLO tightness).
    pub rng_j: [u64; 4],
    /// Pending generated-but-not-emitted arrival times (bursty merge
    /// heap), as raw non-negative IEEE bits.
    pub heap_bits: Vec<u64>,
    /// Burst-base frontier (bursty regime), raw IEEE bits.
    pub frontier_bits: u64,
    /// Arrival times drawn from `rng_t` so far.
    pub drawn: u64,
    /// Forward segment pointer of the lazy traffic warp.
    pub warp_seg: u64,
}

impl CursorState {
    pub(crate) fn encode(&self, enc: &mut Enc) {
        enc.u64(self.pos);
        for w in self.rng_t.iter().chain(self.rng_j.iter()) {
            enc.u64(*w);
        }
        enc.usize(self.heap_bits.len());
        for &b in &self.heap_bits {
            enc.u64(b);
        }
        enc.u64(self.frontier_bits);
        enc.u64(self.drawn);
        enc.u64(self.warp_seg);
    }

    pub(crate) fn decode(dec: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let pos = dec.u64()?;
        let mut rng_t = [0u64; 4];
        let mut rng_j = [0u64; 4];
        for w in rng_t.iter_mut() {
            *w = dec.u64()?;
        }
        for w in rng_j.iter_mut() {
            *w = dec.u64()?;
        }
        let n = dec.count(8)?;
        let mut heap_bits = Vec::with_capacity(n);
        for _ in 0..n {
            heap_bits.push(dec.u64()?);
        }
        Ok(CursorState {
            pos,
            rng_t,
            rng_j,
            heap_bits,
            frontier_bits: dec.u64()?,
            drawn: dec.u64()?,
            warp_seg: dec.u64()?,
        })
    }
}

/// Resolve an architecture key from a checkpoint against the resuming
/// cluster's interned keys.
pub(crate) fn resolve_arch(
    keys: &[&'static str],
    name: &str,
) -> Result<&'static str, CheckpointError> {
    keys.iter()
        .find(|&&k| k == name)
        .copied()
        .ok_or_else(|| CheckpointError::UnknownArch(name.to_string()))
}

pub(crate) fn enc_taxon(enc: &mut Enc, t: Taxon) {
    let class = JobClass::ALL
        .iter()
        .position(|&c| c == t.class)
        .expect("JobClass::ALL covers every class");
    enc.u8(class as u8);
    enc.u8(t.signature);
}

pub(crate) fn dec_taxon(dec: &mut Dec<'_>) -> Result<Taxon, CheckpointError> {
    let class = *JobClass::ALL
        .get(dec.u8()? as usize)
        .ok_or(CheckpointError::Corrupt("job class tag out of range"))?;
    let signature = dec.u8()?;
    if signature >= 27 {
        return Err(CheckpointError::Corrupt(
            "taxon signature out of base-3 range",
        ));
    }
    Ok(Taxon { class, signature })
}

pub(crate) fn enc_job_spec(enc: &mut Enc, j: &JobSpec) {
    enc.u32(j.id);
    enc.str(j.workload.name);
    enc_taxon(enc, j.taxon);
    enc.f64(j.arrival_s);
    enc.f64(j.slo_tightness);
    enc.u64(j.seed);
}

pub(crate) fn dec_job_spec(dec: &mut Dec<'_>) -> Result<JobSpec, CheckpointError> {
    let id = dec.u32()?;
    let name = dec.str()?;
    let workload = astro_workloads::by_name(&name).ok_or(CheckpointError::UnknownWorkload(name))?;
    Ok(JobSpec {
        id,
        workload,
        taxon: dec_taxon(dec)?,
        arrival_s: dec.f64()?,
        slo_tightness: dec.f64()?,
        seed: dec.u64()?,
    })
}

pub(crate) fn enc_outcome(enc: &mut Enc, o: &JobOutcome) {
    enc.u32(o.id);
    enc.str(o.workload);
    let class = JobClass::ALL
        .iter()
        .position(|&c| c == o.class)
        .expect("JobClass::ALL covers every class");
    enc.u8(class as u8);
    enc.usize(o.board);
    enc.f64(o.arrival_s);
    enc.f64(o.start_s);
    enc.f64(o.finish_s);
    enc.f64(o.service_s);
    enc.f64(o.energy_j);
    enc.f64(o.slo_s);
    enc.u32(o.migrations);
}

pub(crate) fn dec_outcome(
    dec: &mut Dec<'_>,
    n_boards: usize,
) -> Result<JobOutcome, CheckpointError> {
    let id = dec.u32()?;
    let name = dec.str()?;
    let workload = astro_workloads::by_name(&name)
        .ok_or(CheckpointError::UnknownWorkload(name))?
        .name;
    let class = *JobClass::ALL
        .get(dec.u8()? as usize)
        .ok_or(CheckpointError::Corrupt("job class tag out of range"))?;
    let board = dec.usize()?;
    if board >= n_boards {
        return Err(CheckpointError::Corrupt("outcome board out of range"));
    }
    Ok(JobOutcome {
        id,
        workload,
        class,
        board,
        arrival_s: dec.f64()?,
        start_s: dec.f64()?,
        finish_s: dec.f64()?,
        service_s: dec.f64()?,
        energy_j: dec.f64()?,
        slo_s: dec.f64()?,
        migrations: dec.u32()?,
    })
}

pub(crate) fn enc_schedule(enc: &mut Enc, s: &StaticSchedule) {
    for &c in &s.config_for_phase {
        enc.usize(c);
    }
}

pub(crate) fn dec_schedule(dec: &mut Dec<'_>) -> Result<StaticSchedule, CheckpointError> {
    let mut config_for_phase = [0usize; astro_compiler::ProgramPhase::COUNT];
    for c in config_for_phase.iter_mut() {
        *c = dec.usize()?;
    }
    Ok(StaticSchedule { config_for_phase })
}

pub(crate) fn enc_snapshot(enc: &mut Enc, s: &PolicySnapshot) {
    enc.usize(s.state_dim);
    enc.usize(s.num_actions);
    enc.usize(s.params.len());
    for &p in &s.params {
        enc.f64(p);
    }
}

pub(crate) fn dec_snapshot(dec: &mut Dec<'_>) -> Result<PolicySnapshot, CheckpointError> {
    let state_dim = dec.usize()?;
    let num_actions = dec.usize()?;
    let n = dec.count(8)?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(dec.f64()?);
    }
    Ok(PolicySnapshot {
        state_dim,
        num_actions,
        params,
    })
}

/// Destructured exhaustively, so a field added later cannot be skipped
/// silently.
pub(crate) fn enc_queued_job(enc: &mut Enc, q: &QueuedJob) {
    let QueuedJob {
        job,
        // Interned afresh from the workload name on restore.
        slot: _,
        slo_s,
        schedule,
        sched_arch,
        est_service_s,
        profiled_s,
        penalty_s,
        migrations,
        redispatches,
    } = q;
    enc_job_spec(enc, job);
    enc.f64(*slo_s);
    match schedule {
        None => enc.bool(false),
        Some((st, v)) => {
            enc.bool(true);
            enc_schedule(enc, st);
            enc.u32(*v);
        }
    }
    enc.str(sched_arch);
    enc.f64(*est_service_s);
    enc.f64(*profiled_s);
    enc.f64(*penalty_s);
    enc.u32(*migrations);
    enc.u32(*redispatches);
}

/// `slot_of` interns the job's workload in the resuming kernel; a
/// workload it does not know is an [`CheckpointError::UnknownWorkload`].
pub(crate) fn dec_queued_job(
    dec: &mut Dec<'_>,
    arch_keys: &[&'static str],
    slot_of: &dyn Fn(&str) -> Option<usize>,
) -> Result<QueuedJob, CheckpointError> {
    let job = dec_job_spec(dec)?;
    let slot = slot_of(job.workload.name)
        .ok_or_else(|| CheckpointError::UnknownWorkload(job.workload.name.to_string()))?;
    let slo_s = dec.f64()?;
    let schedule = if dec.bool()? {
        let st = dec_schedule(dec)?;
        Some((st, dec.u32()?))
    } else {
        None
    };
    let arch = dec.str()?;
    Ok(QueuedJob {
        job,
        slot,
        slo_s,
        schedule,
        sched_arch: resolve_arch(arch_keys, &arch)?,
        est_service_s: dec.f64()?,
        profiled_s: dec.f64()?,
        penalty_s: dec.f64()?,
        migrations: dec.u32()?,
        redispatches: dec.u32()?,
    })
}

pub(crate) fn enc_dropped(enc: &mut Enc, d: &DroppedJob) {
    enc.u32(d.id);
    enc.u8(match d.reason {
        DropReason::NoBoardUp => 0,
        DropReason::MigrationCap => 1,
    });
}

pub(crate) fn dec_dropped(dec: &mut Dec<'_>) -> Result<DroppedJob, CheckpointError> {
    let id = dec.u32()?;
    let reason = match dec.u8()? {
        0 => DropReason::NoBoardUp,
        1 => DropReason::MigrationCap,
        _ => return Err(CheckpointError::Corrupt("drop reason tag out of range")),
    };
    Ok(DroppedJob { id, reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.usize(12345);
        e.f64(-0.0);
        e.f64(f64::INFINITY);
        e.str("odroid-xu4");
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.f64().unwrap(), f64::INFINITY);
        assert_eq!(d.str().unwrap(), "odroid-xu4");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let mut e = Enc::new();
        e.u64(42);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes[..5]);
        match d.u64() {
            Err(CheckpointError::Truncated {
                at: 0,
                need: 8,
                have: 5,
            }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // an absurd element count
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.count(8), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut e = Enc::new();
        e.u32(1);
        let mut bytes = e.finish();
        bytes.push(0xFF);
        let mut d = Dec::new(&bytes);
        d.u32().unwrap();
        assert!(matches!(d.finish(), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn header_rejections_are_specific() {
        let mut e = Enc::new();
        header(&mut e, 0x1234);
        let good = e.finish();

        let mut d = Dec::new(&good);
        check_header(&mut d, 0x1234).unwrap();

        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            check_header(&mut Dec::new(&wrong_magic), 0x1234),
            Err(CheckpointError::BadMagic)
        );

        let mut wrong_version = good.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            check_header(&mut Dec::new(&wrong_version), 0x1234),
            Err(CheckpointError::BadVersion { found: 99, .. })
        ));

        assert!(matches!(
            check_header(&mut Dec::new(&good), 0x9999),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn cursor_state_round_trips() {
        let s = CursorState {
            pos: 9,
            rng_t: [1, 2, 3, 4],
            rng_j: [5, 6, 7, 8],
            heap_bits: vec![10, 11, 12],
            frontier_bits: 13,
            drawn: 14,
            warp_seg: 15,
        };
        let mut e = Enc::new();
        s.encode(&mut e);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(CursorState::decode(&mut d).unwrap(), s);
        d.finish().unwrap();
    }
}
