//! Restart-boundary solver checkpoints: capture, serialize, resume.
//!
//! CB-GMRES recomputes the true residual `b − Ax` at every restart
//! boundary and rebuilds the Krylov basis from it, so the complete
//! resumable state of a solve at a boundary is tiny: the iterate `x`,
//! the explicit residual just measured, the per-cycle bookkeeping
//! (counters, format trajectory, residual history), and — for the
//! adaptive and s-step drivers — their rung/panel state. A
//! [`SolveCheckpoint`] freezes exactly that state at the seam between
//! `boundary_bookkeeping` and the next `run_cycle`; resuming replays
//! the residual recomputation and drops straight back into the cycle
//! loop, **bit-identically** to the uninterrupted solve (the same
//! contract every kernel in this workspace honors for thread counts
//! and storage formats).
//!
//! Checkpoints serialize to a compact versioned byte format
//! ([`SolveCheckpoint::encode`]): consecutive checkpoints of one solve
//! differ mostly in `x`, so encoding against the previous checkpoint
//! XORs the f64 bit patterns (similar doubles share high bits, so the
//! XOR is a small integer) and stores history/trajectory as shared
//! prefix + new suffix, all through LEB128 varints. A trailing FNV-1a
//! checksum turns torn or corrupted blobs into typed
//! [`CheckpointError`]s instead of silent garbage.

use crate::basis_format;
use crate::gmres::{HistoryPoint, SolvePlan};
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
/// here (the caller holds the just-captured checkpoint and can resume
/// later). Convergence and terminal states are decided *before* the
/// probe runs, so halting can never preempt a finished solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveControl {
    /// Run the next restart cycle.
    Continue,
    /// Stop before the next cycle; the driver reports `halted = true`.
    Halt,
}

/// The complete resumable state of a solve at a restart boundary.
///
/// Captured after the boundary's explicit-residual bookkeeping and the
/// driver's format decision, but before the cycle runs: `format` is
/// the format the *next* cycle will use, `format_trajectory` lists
/// only completed cycles, and `history` ends with this boundary's
/// explicit point. The `qualifying_streak` field is meaningful only
/// for [`DriverKind::Adaptive`]; `s_cur`, `loo_breaches`,
/// `s_per_cycle`, and `loo_per_cycle` only for [`DriverKind::SStep`].
#[derive(Clone, Debug, PartialEq)]
pub struct SolveCheckpoint {
    /// Driver that captured this checkpoint (resume must match).
    pub driver: DriverKind,
    /// Basis format the next cycle will run in.
    pub format: String,
    /// The iterate at the boundary.
    pub x: Vec<f64>,
    /// Explicit relative residual norm measured at the boundary.
    pub explicit_rrn: f64,
    /// Arnoldi iterations completed so far.
    pub iterations: usize,
    /// Restart cycles completed so far.
    pub restarts: usize,
    /// DGKS re-orthogonalization passes so far.
    pub reorthogonalizations: usize,
    /// Breakdown events so far.
    pub breakdowns: usize,
    /// Adaptive-ladder escalations so far.
    pub escalations: usize,
    /// Adaptive-ladder de-escalations so far.
    pub de_escalations: usize,
    /// Operator applications so far.
    pub spmv_count: u64,
    /// Compressed-basis bytes decoded so far.
    pub basis_bytes_read: u64,
    /// Compressed-basis bytes written so far.
    pub basis_bytes_written: u64,
    /// Fused dot sweeps over the basis so far.
    pub basis_dot_sweeps: u64,
    /// Fused gemv sweeps over the basis so far.
    pub basis_gemv_sweeps: u64,
    /// Format of every completed cycle.
    pub format_trajectory: Vec<String>,
    /// Residual history up to and including this boundary's explicit
    /// point.
    pub history: Vec<HistoryPoint>,
    /// Adaptive driver: consecutive cycles qualifying for
    /// de-escalation.
    pub qualifying_streak: usize,
    /// S-step driver: panel width the next cycle will use.
    pub s_cur: usize,
    /// S-step driver: loss-of-orthogonality budget breaches so far.
    pub loo_breaches: usize,
    /// S-step driver: panel width of every completed cycle.
    pub s_per_cycle: Vec<usize>,
    /// S-step driver: measured loss of orthogonality per completed
    /// cycle (only cycles with `s > 1` are measured).
    pub loo_per_cycle: Vec<f64>,
}

impl Default for SolveCheckpoint {
    /// An empty scalar-driver checkpoint (all counters zero): a
    /// starting point for hand-built checkpoints in tests and tools.
    fn default() -> Self {
        SolveCheckpoint {
            driver: DriverKind::Scalar,
            format: String::new(),
            x: Vec::new(),
            explicit_rrn: 0.0,
            iterations: 0,
            restarts: 0,
            reorthogonalizations: 0,
            breakdowns: 0,
            escalations: 0,
            de_escalations: 0,
            spmv_count: 0,
            basis_bytes_read: 0,
            basis_bytes_written: 0,
            basis_dot_sweeps: 0,
            basis_gemv_sweeps: 0,
            format_trajectory: Vec::new(),
            history: Vec::new(),
            qualifying_streak: 0,
            s_cur: 1,
            loo_breaches: 0,
            s_per_cycle: Vec::new(),
            loo_per_cycle: Vec::new(),
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
    /// The blob was delta-encoded but no (or a mismatched) previous
    /// checkpoint was supplied.
    MissingPrevious,
    /// The checkpoint cannot resume the solve it was handed to (see
    /// [`SolveCheckpoint::check_resume`]).
    Mismatch {
        /// What differs: `"dimension"`, `"driver"`, `"format"`, or
        /// `"panel width"`.
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
            CheckpointError::MissingPrevious => {
                write!(
                    f,
                    "delta checkpoint needs its previous checkpoint to decode"
                )
            }
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
pub const CHECKPOINT_VERSION: u16 = 1;

const MAGIC: [u8; 4] = *b"FZCK";
const FLAG_DELTA: u8 = 1;

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

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.bytes.len() {
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
}

/// Emit `list` as the length of the prefix it shares with `prev` (the
/// part a delta encoding can reference instead of re-emitting), the
/// count of fresh entries, and the fresh entries through `put`.
fn put_suffix<T: PartialEq>(
    out: &mut Vec<u8>,
    list: &[T],
    prev: Option<&[T]>,
    put: impl Fn(&mut Vec<u8>, &T),
) {
    let shared = prev.map_or(0, |p| {
        list.iter().zip(p).take_while(|(a, b)| a == b).count()
    });
    put_varint(out, shared as u64);
    put_varint(out, (list.len() - shared) as u64);
    for v in &list[shared..] {
        put(out, v);
    }
}

/// Read a list written by [`put_suffix`] against `base` (the previous
/// checkpoint's list; empty for a full blob).
fn suffix<'a, T: Clone>(
    cur: &mut Cursor<'a>,
    base: &[T],
    read: impl Fn(&mut Cursor<'a>) -> Result<T, CheckpointError>,
) -> Result<Vec<T>, CheckpointError> {
    let shared = cur.len()?;
    let fresh = cur.len()?;
    if shared > base.len() {
        return Err(CheckpointError::Malformed("shared prefix beyond previous"));
    }
    let mut v = base[..shared].to_vec();
    for _ in 0..fresh {
        v.push(read(cur)?);
    }
    Ok(v)
}

impl SolveCheckpoint {
    /// Check that this checkpoint can resume `plan` on a `rows`-row
    /// system: same dimension, same driver, and the basis format the
    /// plan runs — for the adaptive driver, which resumes at the
    /// checkpointed rung, any registered format; for the s-step driver
    /// also a panel width the plan admits. [`crate::solve`] runs this
    /// before any work, so a foreign checkpoint is a typed
    /// [`CheckpointError::Mismatch`] instead of a panic mid-solve.
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
        let format = match *plan {
            SolvePlan::Fixed(format, _) | SolvePlan::SStep(format, _) => format,
            SolvePlan::Adaptive(_) if basis_format::by_name(&self.format).is_none() => {
                let expected = "a registered basis format".to_string();
                return mismatch("format", expected, self.format.clone());
            }
            SolvePlan::Adaptive(_) => return Ok(()),
        };
        // A checkpoint records the live store's name, which for a codec
        // store spells out the codec's parameters; a 1 × 1 store of the
        // plan's format names itself the same way.
        let name = format.create(1, 1).format_name();
        if self.format != name {
            return mismatch("format", name, self.format.clone());
        }
        if let SolvePlan::SStep(format, sopts) = *plan {
            let gated = gated_width(format, sopts);
            if !(1..=gated).contains(&self.s_cur) {
                return mismatch(
                    "panel width",
                    format!("1..={gated}"),
                    self.s_cur.to_string(),
                );
            }
        }
        Ok(())
    }

    /// Serialize to the compact versioned byte format.
    ///
    /// Pass the solve's previous checkpoint as `prev` to delta-encode
    /// against it: `x` is stored as XOR of f64 bit patterns (short
    /// varints when the iterate moved little) and history/trajectory
    /// as shared prefix + suffix. `prev` with a different dimension is
    /// ignored (full encoding). Decode with the same `prev`.
    pub fn encode(&self, prev: Option<&SolveCheckpoint>) -> Vec<u8> {
        let prev = prev.filter(|p| p.x.len() == self.x.len());
        let mut out = Vec::with_capacity(64 + 9 * self.x.len() / 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.push(self.driver.to_u8());
        out.push(if prev.is_some() { FLAG_DELTA } else { 0 });
        put_str(&mut out, &self.format);
        put_f64(&mut out, self.explicit_rrn);
        for v in [
            self.iterations as u64,
            self.restarts as u64,
            self.reorthogonalizations as u64,
            self.breakdowns as u64,
            self.escalations as u64,
            self.de_escalations as u64,
            self.spmv_count,
            self.basis_bytes_read,
            self.basis_bytes_written,
            self.basis_dot_sweeps,
            self.basis_gemv_sweeps,
            self.qualifying_streak as u64,
            self.s_cur as u64,
            self.loo_breaches as u64,
        ] {
            put_varint(&mut out, v);
        }
        put_varint(&mut out, self.x.len() as u64);
        for (i, &xi) in self.x.iter().enumerate() {
            let base = prev.map_or(0, |p| p.x[i].to_bits());
            put_varint(&mut out, xi.to_bits() ^ base);
        }
        let trajectory = prev.map(|p| &p.format_trajectory[..]);
        put_suffix(&mut out, &self.format_trajectory, trajectory, |o, s| {
            put_str(o, s)
        });
        put_suffix(
            &mut out,
            &self.history,
            prev.map(|p| &p.history[..]),
            |o, p| {
                put_varint(o, p.iteration as u64);
                put_f64(o, p.rrn);
                o.push(p.explicit as u8);
            },
        );
        put_suffix(
            &mut out,
            &self.s_per_cycle,
            prev.map(|p| &p.s_per_cycle[..]),
            |o, &s| put_varint(o, s as u64),
        );
        put_suffix(
            &mut out,
            &self.loo_per_cycle,
            prev.map(|p| &p.loo_per_cycle[..]),
            |o, &l| put_f64(o, l),
        );
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode a blob produced by [`SolveCheckpoint::encode`].
    ///
    /// A delta-encoded blob needs the same `prev` it was encoded
    /// against; a full blob ignores `prev`.
    pub fn decode(
        bytes: &[u8],
        prev: Option<&SolveCheckpoint>,
    ) -> Result<SolveCheckpoint, CheckpointError> {
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
        let delta = cur.u8()? & FLAG_DELTA != 0;
        let prev = if delta {
            Some(prev.ok_or(CheckpointError::MissingPrevious)?)
        } else {
            None
        };
        let format = cur.str()?;
        let explicit_rrn = cur.f64()?;
        let mut counters = [0u64; 14];
        for c in counters.iter_mut() {
            *c = cur.varint()?;
        }
        let n = cur.len()?;
        if let Some(p) = prev {
            if p.x.len() != n {
                return Err(CheckpointError::MissingPrevious);
            }
        }
        let mut x = Vec::with_capacity(n);
        for i in 0..n {
            let base = prev.map_or(0, |p| p.x[i].to_bits());
            x.push(f64::from_bits(cur.varint()? ^ base));
        }
        let trajectory = prev.map_or(&[][..], |p| &p.format_trajectory);
        let format_trajectory = suffix(&mut cur, trajectory, Cursor::str)?;
        let history = suffix(&mut cur, prev.map_or(&[][..], |p| &p.history), |cur| {
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
        let s_per_cycle = suffix(
            &mut cur,
            prev.map_or(&[][..], |p| &p.s_per_cycle),
            Cursor::len,
        )?;
        let loo_base = prev.map_or(&[][..], |p| &p.loo_per_cycle);
        let loo_per_cycle = suffix(&mut cur, loo_base, Cursor::f64)?;
        if cur.pos != payload.len() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        Ok(SolveCheckpoint {
            driver,
            format,
            x,
            explicit_rrn,
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
            qualifying_streak: counters[11] as usize,
            s_cur: counters[12] as usize,
            loo_breaches: counters[13] as usize,
            format_trajectory,
            history,
            s_per_cycle,
            loo_per_cycle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(restarts: usize) -> SolveCheckpoint {
        SolveCheckpoint {
            driver: DriverKind::Adaptive,
            format: "frsz2_21".into(),
            x: (0..97).map(|i| (i as f64 * 0.37).sin() * 1e-3).collect(),
            explicit_rrn: 3.25e-5,
            iterations: 40 * restarts,
            restarts,
            reorthogonalizations: 3,
            breakdowns: 0,
            escalations: 1,
            de_escalations: 0,
            spmv_count: 41 * restarts as u64,
            basis_bytes_read: 123_456,
            basis_bytes_written: 23_456,
            basis_dot_sweeps: 40,
            basis_gemv_sweeps: 40,
            format_trajectory: (0..restarts).map(|_| "frsz2_21".to_string()).collect(),
            history: (0..=restarts)
                .map(|i| HistoryPoint {
                    iteration: 40 * i,
                    rrn: f64::powi(0.5, i as i32),
                    explicit: true,
                })
                .collect(),
            qualifying_streak: 1,
            s_cur: 1,
            loo_breaches: 0,
            s_per_cycle: Vec::new(),
            loo_per_cycle: Vec::new(),
        }
    }

    #[test]
    fn full_round_trip_is_exact() {
        let cp = sample(3);
        let blob = cp.encode(None);
        let back = SolveCheckpoint::decode(&blob, None).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn delta_round_trip_is_exact_and_smaller() {
        let prev = sample(3);
        let mut next = sample(4);
        // Nudge x the way one more cycle would.
        for (i, xi) in next.x.iter_mut().enumerate() {
            *xi += 1e-9 * (i as f64 + 1.0);
        }
        let full = next.encode(None);
        let delta = next.encode(Some(&prev));
        assert!(
            delta.len() < full.len(),
            "delta {} >= full {}",
            delta.len(),
            full.len()
        );
        let back = SolveCheckpoint::decode(&delta, Some(&prev)).unwrap();
        assert_eq!(next, back);
        // A full blob ignores prev entirely.
        let back_full = SolveCheckpoint::decode(&full, Some(&prev)).unwrap();
        assert_eq!(next, back_full);
    }

    #[test]
    fn delta_without_previous_is_a_typed_error() {
        let prev = sample(2);
        let blob = sample(3).encode(Some(&prev));
        assert_eq!(
            SolveCheckpoint::decode(&blob, None),
            Err(CheckpointError::MissingPrevious)
        );
    }

    #[test]
    fn corruption_is_detected_by_the_checksum() {
        let mut blob = sample(2).encode(None);
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        assert_eq!(
            SolveCheckpoint::decode(&blob, None),
            Err(CheckpointError::ChecksumMismatch)
        );
    }

    #[test]
    fn truncation_magic_and_version_are_typed_errors() {
        let blob = sample(1).encode(None);
        assert_eq!(
            SolveCheckpoint::decode(&blob[..blob.len() - 3], None),
            Err(CheckpointError::ChecksumMismatch),
            "losing tail bytes breaks the checksum"
        );
        assert_eq!(
            SolveCheckpoint::decode(&blob[..3], None),
            Err(CheckpointError::Truncated)
        );
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert_eq!(
            SolveCheckpoint::decode(&bad, None),
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
            SolveCheckpoint::decode(&newer, None),
            Err(CheckpointError::UnsupportedVersion(0x00ff))
        );
    }

    #[test]
    fn mismatched_previous_dimension_falls_back_to_full_encoding() {
        let mut prev = sample(2);
        prev.x.truncate(10);
        let cp = sample(3);
        let blob = cp.encode(Some(&prev));
        // Encoder ignored the mismatched prev, so decode without one.
        let back = SolveCheckpoint::decode(&blob, None).unwrap();
        assert_eq!(cp, back);
    }
}
