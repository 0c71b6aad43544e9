//! Warp-level GPU execution simulator with a roofline cost model.
//!
//! Stand-in for the paper's CUDA kernels (no GPU is attached in this
//! reproduction). The simulated kernels ([`kernels`]) are FRSZ2
//! compression and decompression and the Fig. 4 streaming sweep; the
//! operator's SpMV is not simulated, it runs on the CPU from
//! `spla::Csr`. Kernels are written against a 32-lane warp API
//! ([`warp::WarpCtx`]) providing the primitives the paper's
//! implementation relies on: warp shuffles for the `emax`
//! butterfly reduction, `clz` (the `count_zero` intrinsic of §IV-C),
//! coalesced global-memory accesses, and per-class instruction
//! accounting.
//!
//! Every operation a kernel executes is **counted as it executes** —
//! the instruction mix is measured from the simulated run, not typed in
//! — and [`cost::estimate`] converts the counters into a kernel-time
//! prediction through a multi-resource roofline with H100-PCIe
//! parameters (2000 GB/s, 25.6 TFLOP/s FP64; §V-A). The Fig. 4
//! saturation points and format orderings then follow from the same
//! arithmetic the paper's introduction performs by hand ("an algorithm
//! can execute up to 100 double-precision computations per value
//! retrieved").
//!
//! Functional correctness is cross-checked: the simulated FRSZ2 warp
//! kernels must produce bit-identical output to the CPU codec in
//! `frsz2::codec`. The simulated decode keeps the paper's count-zero
//! sequence (it models the H100 kernel), while the CPU kernels decode
//! by an exact convert-and-scale step and AVX-512 lanes.

pub mod cost;
pub mod counters;
pub mod device;
pub mod kernels;
pub mod launch;
pub mod warp;

pub use cost::{estimate, CostBreakdown};
pub use counters::{Counters, InstrClass};
pub use device::{DeviceSpec, A100_SXM, H100_PCIE};
pub use warp::WarpCtx;
