//! Restart-boundary solver checkpoints: capture, serialize, resume.
//!
//! CB-GMRES recomputes the true residual `b − Ax` at every restart
//! boundary and rebuilds the Krylov basis from it, so at a boundary a
//! solve is fully described by its iterate, its [`SolveStats`] record
//! (counters, the explicit residual just measured, the format and
//! s-step trajectories) and its residual history. A [`SolveCheckpoint`]
//! is that record plus the two fields of policy state the adaptive and
//! s-step drivers keep between cycles, frozen at the seam between
//! `boundary_bookkeeping` and the next `run_cycle`. Capture clones the
//! record and resume restores it; resuming replays the residual
//! recomputation and drops straight back into the cycle loop,
//! **bit-identically** to the uninterrupted solve (the same contract
//! every kernel in this workspace honors for thread counts and storage
//! formats).
//!
//! Checkpoints serialize to one compact versioned byte format
//! ([`SolveCheckpoint::encode`]): LEB128 varints and length-prefixed
//! lists, sealed by an FNV-1a checksum that turns torn or corrupted
//! blobs into typed [`CheckpointError`]s instead of silent garbage. The
//! checksum catches accidents, not forgery, so the decoder never sizes
//! an allocation from a length the remaining bytes cannot hold, and
//! [`SolveCheckpoint::check_resume`] refuses state no solve of the
//! plan can have captured.

use crate::basis_format;
use crate::gmres::{HistoryPoint, SolvePlan, SolveStats};
use crate::sstep::gated_width;
use numfmt::ColumnStorage;

/// Which solver driver captured a checkpoint. Resume must go through
/// the same driver: each one carries different auxiliary state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverKind {
    /// The fixed-format scalar driver (`gmres`/`gmres_with`).
    Scalar,
    /// The escalating [`crate::adaptive`] driver.
    Adaptive,
    /// The [`crate::sstep`] matrix-powers driver.
    SStep,
}

impl DriverKind {
    fn to_u8(self) -> u8 {
        match self {
            DriverKind::Scalar => 0,
            DriverKind::Adaptive => 1,
            DriverKind::SStep => 2,
        }
    }

    fn from_u8(v: u8) -> Option<DriverKind> {
        match v {
            0 => Some(DriverKind::Scalar),
            1 => Some(DriverKind::Adaptive),
            2 => Some(DriverKind::SStep),
            _ => None,
        }
    }
}

/// Verdict returned by a boundary control probe: keep solving, or stop
/// here and return the boundary's checkpoint to resume from later.
/// Convergence and terminal states are decided *before* the probe runs,
/// so halting can never preempt a finished solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveControl {
    /// Run the next restart cycle.
    Continue,
    /// Stop before the next cycle; the solve returns the boundary's
    /// checkpoint in [`crate::SolveResult::checkpoint`].
    Halt,
}

/// The complete resumable state of a solve at a restart boundary.
///
/// Captured after the boundary's explicit-residual bookkeeping and the
/// driver's format decision, but before the cycle runs: `stats.format`
/// is the format the *next* cycle will use, `stats.final_rrn` the
/// explicit residual measured at the boundary, the trajectories list
/// only completed cycles, and `history` ends with this boundary's
/// explicit point. `stats.converged`, `stats.wall_time` and
/// `stats.basis_bits_per_value` are never set at a boundary and are not
/// serialized.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveCheckpoint {
    /// Driver that captured this checkpoint (resume must match).
    pub driver: DriverKind,
    /// The iterate at the boundary.
    pub x: Vec<f64>,
    /// The solve's record at the boundary.
    pub stats: SolveStats,
    /// Residual history up to and including this boundary's explicit
    /// point.
    pub history: Vec<HistoryPoint>,
    /// Adaptive driver: consecutive cycles qualifying for
    /// de-escalation.
    pub qualifying_streak: usize,
    /// S-step driver: panel width the next cycle will use.
    pub s_cur: usize,
}

impl Default for SolveCheckpoint {
    /// An empty scalar-driver checkpoint (all counters zero): a
    /// starting point for hand-built checkpoints in tests and tools.
    fn default() -> Self {
        SolveCheckpoint {
            driver: DriverKind::Scalar,
            x: Vec::new(),
            stats: SolveStats::default(),
            history: Vec::new(),
            qualifying_streak: 0,
            s_cur: 1,
        }
    }
}

/// Typed failure modes of [`SolveCheckpoint::decode`] and
/// [`SolveCheckpoint::check_resume`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the `FZCK` magic.
    BadMagic,
    /// The blob's version is newer than this library understands.
    UnsupportedVersion(u16),
    /// The blob ends mid-field.
    Truncated,
    /// The trailing FNV-1a checksum does not match the payload.
    ChecksumMismatch,
    /// A field decoded to an impossible value (context in the payload).
    Malformed(&'static str),
    /// The checkpoint cannot resume the solve it was handed to (see
    /// [`SolveCheckpoint::check_resume`]).
    Mismatch {
        /// What differs: `"dimension"`, `"driver"`, `"format"`,
        /// `"panel width"`, `"outcome"`, or `"counters"`.
        field: &'static str,
        /// What the resuming solve needs.
        expected: String,
        /// What the checkpoint holds.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a solver checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint field: {what}"),
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {field} mismatch: the solve needs {expected}, the checkpoint has {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serialization format version written by [`SolveCheckpoint::encode`].
pub const CHECKPOINT_VERSION: u16 = 2;

const MAGIC: [u8; 4] = *b"FZCK";

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Emit `list` as its length followed by each entry through `put`.
fn put_list<T>(out: &mut Vec<u8>, list: &[T], put: impl Fn(&mut Vec<u8>, &T)) {
    put_varint(out, list.len() as u64);
    for v in list {
        put(out, v);
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, CheckpointError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CheckpointError::Malformed("varint overruns 64 bits"))
    }

    fn len(&mut self) -> Result<usize, CheckpointError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| CheckpointError::Malformed("length exceeds usize"))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        let raw = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(raw.try_into().unwrap())))
    }

    fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.len()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| CheckpointError::Malformed("string is not UTF-8"))
    }

    /// Read a list written by [`put_list`], pushing each entry as it
    /// decodes: a forged length runs out of payload, never memory.
    fn list<T>(
        &mut self,
        read: impl Fn(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let n = self.len()?;
        let mut v = Vec::new();
        for _ in 0..n {
            v.push(read(self)?);
        }
        Ok(v)
    }
}

impl SolveCheckpoint {
    /// Check that this checkpoint can resume `plan` on a `rows`-row
    /// system: same dimension, same driver, and the basis format the
    /// plan runs — for the adaptive driver, which resumes at the
    /// checkpointed rung, any registered format; for the s-step driver
    /// also a panel width the plan admits. Its state must be one a solve
    /// of the plan can capture: no outcome (`converged`) yet,
    /// one format (and, for s-step, one panel width) per completed
    /// cycle, an adaptive streak below its trigger, and every counter
    /// below 2⁶² (no solve streams 4.6 EB, and the resumed solve keeps
    /// 2⁶² of headroom before an overflow).
    /// [`crate::solve`] runs this before any work, so a foreign or
    /// forged checkpoint is a typed [`CheckpointError::Mismatch`]
    /// instead of a panic mid-solve.
    pub fn check_resume(&self, rows: usize, plan: &SolvePlan<'_>) -> Result<(), CheckpointError> {
        let mismatch = |field, expected: String, found: String| {
            Err(CheckpointError::Mismatch {
                field,
                expected,
                found,
            })
        };
        if self.x.len() != rows {
            return mismatch("dimension", rows.to_string(), self.x.len().to_string());
        }
        if self.driver != plan.driver() {
            return mismatch(
                "driver",
                format!("{:?}", plan.driver()),
                format!("{:?}", self.driver),
            );
        }
        let st = &self.stats;
        match *plan {
            SolvePlan::Adaptive(_) if basis_format::by_name(&st.format).is_none() => {
                let expected = "a registered basis format".to_string();
                return mismatch("format", expected, st.format.clone());
            }
            SolvePlan::Adaptive(_) => {}
            SolvePlan::Fixed(format, _) | SolvePlan::SStep(format, _) => {
                // A checkpoint records the live store's name, which for
                // a codec store spells out the codec's parameters; a
                // 1 × 1 store of the plan's format names itself the
                // same way.
                let name = format.create(1, 1).format_name();
                if st.format != name {
                    return mismatch("format", name, st.format.clone());
                }
            }
        }
        if let SolvePlan::SStep(format, sopts) = *plan {
            let gated = gated_width(format, sopts.s);
            if !(1..=gated).contains(&self.s_cur) {
                return mismatch(
                    "panel width",
                    format!("1..={gated}"),
                    self.s_cur.to_string(),
                );
            }
        }
        // A boundary has no outcome yet: the resumed solve would report
        // a claimed one without the explicit residual deciding it.
        if st.converged {
            return mismatch("outcome", "an open solve".into(), "a finished one".into());
        }
        // Every cycle pushes its format (an s-step cycle also its panel
        // width), and decode bounds each list by the payload.
        let (cycles, widths) = (st.format_trajectory.len(), st.s_per_cycle.len());
        if st.restarts != cycles || (matches!(plan, SolvePlan::SStep(..)) && widths != cycles) {
            let found = format!("{} restarts, {widths} panel widths", st.restarts);
            return mismatch("counters", format!("{cycles} restarts"), found);
        }
        if let SolvePlan::Adaptive(opts) = plan {
            // The streak resets on reaching its trigger, so a captured
            // one is always below it.
            if self.qualifying_streak >= opts.de_escalation_cycles {
                let expected = format!("a streak below {}", opts.de_escalation_cycles);
                return mismatch("counters", expected, self.qualifying_streak.to_string());
            }
        }
        match self.counters().into_iter().find(|&v| v >= 1 << 62) {
            Some(v) => mismatch("counters", "counters below 2^62".into(), v.to_string()),
            None => Ok(()),
        }
    }

    /// The counters in their encoded order.
    fn counters(&self) -> [u64; 14] {
        let st = &self.stats;
        [
            st.iterations as u64,
            st.restarts as u64,
            st.reorthogonalizations as u64,
            st.breakdowns as u64,
            st.escalations as u64,
            st.de_escalations as u64,
            st.spmv_count,
            st.basis_bytes_read,
            st.basis_bytes_written,
            st.basis_dot_sweeps,
            st.basis_gemv_sweeps,
            self.qualifying_streak as u64,
            self.s_cur as u64,
            st.loo_breaches as u64,
        ]
    }

    /// Serialize to the compact versioned byte format.
    pub fn encode(&self) -> Vec<u8> {
        let st = &self.stats;
        let mut out = Vec::with_capacity(64 + 9 * self.x.len() / 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.push(self.driver.to_u8());
        put_str(&mut out, &st.format);
        put_f64(&mut out, st.final_rrn);
        for v in self.counters() {
            put_varint(&mut out, v);
        }
        put_list(&mut out, &self.x, |o, x| put_varint(o, x.to_bits()));
        put_list(&mut out, &st.format_trajectory, |o, s| put_str(o, s));
        put_list(&mut out, &self.history, |o, p| {
            put_varint(o, p.iteration as u64);
            put_f64(o, p.rrn);
            o.push(p.explicit as u8);
        });
        put_list(&mut out, &st.s_per_cycle, |o, &s| put_varint(o, s as u64));
        put_list(&mut out, &st.loo_per_cycle, |o, &l| put_f64(o, l));
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode a blob produced by [`SolveCheckpoint::encode`]; the
    /// fields it does not write decode to their defaults. The version
    /// is checked before the checksum, so a blob of another version is
    /// [`CheckpointError::UnsupportedVersion`] whatever its layout.
    pub fn decode(bytes: &[u8]) -> Result<SolveCheckpoint, CheckpointError> {
        if bytes.len() < MAGIC.len() + 2 {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        if bytes.len() < MAGIC.len() + 2 + 8 {
            return Err(CheckpointError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(payload) != sum {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut cur = Cursor {
            bytes: payload,
            pos: 6,
        };
        let driver = DriverKind::from_u8(cur.u8()?)
            .ok_or(CheckpointError::Malformed("unknown driver kind"))?;
        let format = cur.str()?;
        let final_rrn = cur.f64()?;
        let mut counters = [0u64; 14];
        for c in counters.iter_mut() {
            *c = cur.varint()?;
        }
        let n = cur.len()?;
        // Every entry of `x` takes at least one byte, so a count beyond
        // the payload is corrupt or forged and must not size `x`.
        if n > cur.remaining() {
            return Err(CheckpointError::Malformed("dimension exceeds payload"));
        }
        let mut x = Vec::with_capacity(n);
        for _ in 0..n {
            x.push(f64::from_bits(cur.varint()?));
        }
        let format_trajectory = cur.list(Cursor::str)?;
        let history = cur.list(|cur| {
            let iteration = cur.len()?;
            let rrn = cur.f64()?;
            let explicit = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CheckpointError::Malformed("history explicit flag")),
            };
            Ok(HistoryPoint {
                iteration,
                rrn,
                explicit,
            })
        })?;
        let s_per_cycle = cur.list(Cursor::len)?;
        let loo_per_cycle = cur.list(Cursor::f64)?;
        if cur.pos != payload.len() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        Ok(SolveCheckpoint {
            driver,
            x,
            stats: SolveStats {
                iterations: counters[0] as usize,
                restarts: counters[1] as usize,
                reorthogonalizations: counters[2] as usize,
                breakdowns: counters[3] as usize,
                escalations: counters[4] as usize,
                de_escalations: counters[5] as usize,
                spmv_count: counters[6],
                basis_bytes_read: counters[7],
                basis_bytes_written: counters[8],
                basis_dot_sweeps: counters[9],
                basis_gemv_sweeps: counters[10],
                loo_breaches: counters[13] as usize,
                format,
                final_rrn,
                format_trajectory,
                s_per_cycle,
                loo_per_cycle,
                ..SolveStats::default()
            },
            history,
            qualifying_streak: counters[11] as usize,
            s_cur: counters[12] as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(restarts: usize) -> SolveCheckpoint {
        SolveCheckpoint {
            driver: DriverKind::Adaptive,
            x: (0..97).map(|i| (i as f64 * 0.37).sin() * 1e-3).collect(),
            stats: SolveStats {
                format: "frsz2_21".into(),
                final_rrn: 3.25e-5,
                iterations: 40 * restarts,
                restarts,
                reorthogonalizations: 3,
                escalations: 1,
                spmv_count: 41 * restarts as u64,
                basis_bytes_read: 123_456,
                basis_bytes_written: 23_456,
                basis_dot_sweeps: 40,
                basis_gemv_sweeps: 40,
                format_trajectory: (0..restarts).map(|_| "frsz2_21".to_string()).collect(),
                ..SolveStats::default()
            },
            history: (0..=restarts)
                .map(|i| HistoryPoint {
                    iteration: 40 * i,
                    rrn: f64::powi(0.5, i as i32),
                    explicit: true,
                })
                .collect(),
            qualifying_streak: 1,
            s_cur: 1,
        }
    }

    #[test]
    fn full_round_trip_is_exact() {
        let cp = sample(3);
        let blob = cp.encode();
        let back = SolveCheckpoint::decode(&blob).unwrap();
        assert_eq!(cp, back);
    }

    /// The three fields a boundary never sets are not encoded: they
    /// decode to their defaults, and every other field round-trips.
    #[test]
    fn unencoded_fields_decode_to_their_defaults() {
        let mut cp = sample(3);
        cp.stats.s_per_cycle = vec![4, 4, 1];
        cp.stats.loo_per_cycle = vec![1.5e-9, 2.5e-3];
        cp.stats.loo_breaches = 1;
        cp.s_cur = 1;
        let plain = cp.encode();
        let mut set = cp.clone();
        set.stats.converged = true;
        set.stats.wall_time = std::time::Duration::from_millis(7);
        set.stats.basis_bits_per_value = 22.0;
        assert_eq!(set.encode(), plain, "the three fields change no byte");
        assert_eq!(SolveCheckpoint::decode(&set.encode()).unwrap(), cp);
    }

    #[test]
    fn corruption_is_detected_by_the_checksum() {
        let mut blob = sample(2).encode();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        assert_eq!(
            SolveCheckpoint::decode(&blob),
            Err(CheckpointError::ChecksumMismatch)
        );
    }

    #[test]
    fn truncation_magic_and_version_are_typed_errors() {
        let blob = sample(1).encode();
        assert_eq!(
            SolveCheckpoint::decode(&blob[..blob.len() - 3]),
            Err(CheckpointError::ChecksumMismatch),
            "losing tail bytes breaks the checksum"
        );
        assert_eq!(
            SolveCheckpoint::decode(&blob[..3]),
            Err(CheckpointError::Truncated)
        );
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert_eq!(
            SolveCheckpoint::decode(&bad),
            Err(CheckpointError::BadMagic)
        );
        let mut newer = blob.clone();
        newer[4] = 0xff;
        // Version is covered by the checksum, so re-seal the blob the
        // way a future writer would.
        let len = newer.len();
        let sum = super::fnv1a(&newer[..len - 8]);
        newer[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SolveCheckpoint::decode(&newer),
            Err(CheckpointError::UnsupportedVersion(0x00ff))
        );
    }

    #[test]
    fn version_one_blob_is_unsupported_before_its_checksum_is_read() {
        // The version-1 layout carried a delta flag byte, so a blob
        // relabelled as version 1 no longer matches its checksum: the
        // version check must come first.
        let mut old = sample(1).encode();
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            SolveCheckpoint::decode(&old),
            Err(CheckpointError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn oversized_dimension_is_a_typed_error_not_an_allocation() {
        // A hand-built full blob whose `x` length claims 2^61 entries,
        // sealed with a valid checksum the way a forger would.
        let mut forged = MAGIC.to_vec();
        forged.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        forged.push(DriverKind::Scalar.to_u8());
        put_str(&mut forged, "frsz2_21");
        put_f64(&mut forged, 1.0);
        for _ in 0..14 {
            put_varint(&mut forged, 0);
        }
        put_varint(&mut forged, 1 << 61);
        let sum = super::fnv1a(&forged);
        forged.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SolveCheckpoint::decode(&forged),
            Err(CheckpointError::Malformed("dimension exceeds payload"))
        );
    }

    /// Append the checksum of `payload`, the way a writer seals a blob.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut blob = payload.to_vec();
        blob.extend_from_slice(&fnv1a(payload).to_le_bytes());
        blob
    }

    /// Mutation check of the decoder: every single-bit flip of a valid
    /// blob (re-sealed, so field parsing runs past the checksum) and
    /// every truncation (raw and re-sealed) decodes to `Ok` or a typed
    /// error, never a panic. Every accepted mutant re-encodes to bytes
    /// that decode to the same checkpoint.
    #[test]
    fn every_bit_flip_and_truncation_is_ok_or_typed() {
        let blob = sample(3).encode();
        let payload = &blob[..blob.len() - 8];
        let mut accepted = 0usize;
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut mutant = payload.to_vec();
                mutant[byte] ^= 1 << bit;
                match (byte, SolveCheckpoint::decode(&sealed(&mutant))) {
                    (0..=3, outcome) => assert_eq!(outcome, Err(CheckpointError::BadMagic)),
                    (4..=5, outcome) => assert!(
                        matches!(outcome, Err(CheckpointError::UnsupportedVersion(_))),
                        "flip {byte}:{bit}: {outcome:?}"
                    ),
                    (_, Ok(cp)) => {
                        accepted += 1;
                        let again = cp.encode();
                        let back = SolveCheckpoint::decode(&again).expect("re-encoded mutant");
                        assert_eq!(back.encode(), again, "flip {byte}:{bit}");
                    }
                    (
                        _,
                        Err(
                            e @ (CheckpointError::ChecksumMismatch
                            | CheckpointError::Mismatch { .. }),
                        ),
                    ) => {
                        panic!("flip {byte}:{bit}: a re-sealed blob decoded to {e:?}")
                    }
                    (_, Err(_)) => {}
                }
            }
        }
        // Flips inside the iterate's and the residuals' bits still
        // parse; a checkpoint is only as trustworthy as its checksum.
        assert!(accepted > 0, "no single-bit mutant decoded");
        for len in 0..blob.len() {
            assert!(
                SolveCheckpoint::decode(&blob[..len]).is_err(),
                "cut at {len}"
            );
            if len < payload.len() {
                assert!(
                    SolveCheckpoint::decode(&sealed(&payload[..len])).is_err(),
                    "re-sealed cut at {len}"
                );
            }
        }
    }
}
