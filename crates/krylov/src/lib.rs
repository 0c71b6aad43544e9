//! Restarted GMRES / Compressed-Basis GMRES with pluggable basis storage.
//!
//! The solver ([`gmres::gmres`]) implements the paper's Figure 1. Its
//! Krylov basis is generic over [`numfmt::ColumnStorage`]:
//!
//! | storage type                  | paper label        |
//! |-------------------------------|--------------------|
//! | `DenseStore<f64>`             | `float64`          |
//! | `DenseStore<f32>`             | `float32`          |
//! | `DenseStore<F16>`             | `float16`          |
//! | `DenseStore<BF16>`            | `bfloat16` (ext.)  |
//! | `frsz2::Frsz2Store`           | `frsz2_l`          |
//! | `lossy::RoundTripStore`       | Table II codecs    |
//!
//! Runtime format selection lives in [`basis_format`]: every backend
//! above (including the Table II codecs via `lossy::RoundTripStore`)
//! sits behind one object-safe factory, resolvable by paper name and
//! orderable by storage-accuracy floor. [`adaptive::adaptive_gmres`]
//! builds on it: start the solve in the cheapest format and escalate
//! along `frsz2_16 → frsz2_21 → frsz2_32 → float64` whenever the
//! explicit restart residual shows stagnation or an implicit/explicit
//! gap — one solver, every storage backend, no false convergence.
//!
//! Many right-hand sides against one operator go through [`block`]:
//! [`block::block_gmres_with`] grows **one shared compressed Krylov space**
//! for the whole block — each Arnoldi expansion appends b columns,
//! orthogonalized in a single decode sweep of the basis via the
//! multi-vector fused kernels — and batches every operator touch
//! through `spla`'s `spmm_into`, so one matrix sweep serves the whole
//! block. Convergence, Hessenberg/Givens bookkeeping, and histories
//! stay per-RHS; converged RHS deflate early while the space keeps
//! expanding for the rest. At width 1 the driver delegates to
//! [`gmres::gmres_with`], bit for bit.
//!
//! [`sstep`] amortizes the *per-iteration* decode traffic the same
//! way [`block`] amortizes the per-RHS traffic: each outer step
//! expands the space by `s` directions at once via the matrix-powers
//! kernel (`spla`'s `spmv_powers_into`). A per-restart
//! loss-of-orthogonality monitor gates `s` per basis format
//! ([`basis_format::BasisFormat::max_sstep`]) and shrinks it to 1 on
//! a breach; at a gated `s = 1` it runs the scalar cycle of
//! [`gmres::gmres_with`], bit for bit.
//!
//! Both drivers orthogonalize a new panel in the same two stages, one
//! copy each in the crate-private `panel.rs`: one fused block-CGS
//! sweep pair of the compressed basis (plus a panel-wide DGKS pair
//! when a column lost most of its norm), then an intra-panel
//! factorization — MGS² for block, CholQR with an MGS² fallback for
//! s-step. Seeds, the stage-2 choice, and the Givens updates stay with
//! each driver.
//!
//! The scalar, s-step, and adaptive solvers are one restart loop with
//! three cycle policies, so they share one hooked entry:
//! [`solve`] takes a [`SolvePlan`] (`Fixed`, `SStep`, or `Adaptive`,
//! over the option structs the plain entries already take) and
//! [`SolveHooks`] — a per-cycle telemetry observer, a boundary control
//! probe, a checkpoint to resume — and reports into one record,
//! [`SolveStats`], which checkpoints and cycle events are built from.
//! Fault tolerance lives in
//! [`checkpoint`] and [`faults`]: a probe that halts at a restart
//! boundary gets that boundary's [`checkpoint::SolveCheckpoint`] back
//! in [`SolveResult::checkpoint`], and a later [`solve`] resumes from it
//! **bit-identically** to the uninterrupted solve (a checkpoint from a
//! different solve is a typed [`CheckpointError::Mismatch`]);
//! [`faults`] provides the deterministic fault-injection harness
//! (basis bit-flips, NaN Hessenberg entries) that proves the detection
//! paths fire.

#![warn(missing_docs)]

pub mod adaptive;
pub mod basis;
pub mod basis_format;
pub mod block;
pub mod checkpoint;
pub mod diagnostics;
pub mod faults;
pub mod gmres;
mod panel;
pub mod precond;
pub mod sstep;

pub use adaptive::{adaptive_gmres, AdaptiveOptions};
pub use basis::Basis;
pub use basis_format::{auto_basis, BasisFormat, ESCALATION_LADDER};
pub use block::{block_gmres_dyn, block_gmres_dyn_observed, block_gmres_with, BlockSolveResult};
pub use checkpoint::{CheckpointError, DriverKind, SolveCheckpoint, SolveControl};
pub use diagnostics::{history_summary, HistorySummary};
pub use faults::{BasisBitFlip, FaultInjectingStore, FaultPlan, FaultSpec, FaultyFormat};
pub use gmres::{
    gmres, gmres_with, solve, CycleEvent, GmresOptions, HistoryPoint, SolveHooks, SolvePlan,
    SolveResult, SolveStats,
};
pub use precond::{BlockJacobi, Identity, Jacobi, PrecondError, Preconditioner};
pub use sstep::{loo_budget, sstep_gmres_dyn, SStepOptions, SStepSolveResult};
