//! Host-speed normalization of the end-to-end times.
//!
//! The benchmark runs on shared hosts whose speed swings by tens of
//! percent over seconds to minutes as neighbours load the machine (on
//! the reference 2-core Xeon a fixed compute loop's median moved by up
//! to 45% between 15 s windows). Such a swing moves every time a run
//! reports, so raw medians of two runs of the same commit can differ by
//! more than any useful regression bound.
//!
//! Each client therefore times a small fixed kernel — shaped like basis
//! decode: bit-field extraction into f64 and a multiply-add over an
//! L1-resident buffer — on every thread of its pool, before and after
//! its ops. An op's *host speed*
//! is [`REFERENCE_NS`] over the mean of the kernel times around it, and
//! the end-to-end times are reported multiplied by it: what the op
//! would have taken at the reference host's quiet speed. The kernel is
//! the benchmark's own code, identical for every commit measured. Raw
//! times stay in the result record, and the time spent in the kernel
//! is kept out of the throughput.
//!
//! Unverified assumptions: that a slowdown from neighbours hits the
//! kernel and the solver alike (the spread it removes was measured on
//! one host only), and that the code under test does not change the
//! clock the kernel runs at. A change that lowers the core's frequency,
//! as heavy AVX-512 use can, slows the kernel timed after its ops too,
//! so normalization would hide part of that change's cost; the raw
//! times in the record still show it.

use rayon::prelude::*;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Kernel time at the reference host's quiet speed (a 2-core Xeon with
/// AVX-512F; its 10th percentile over 30 s, where the median was
/// 98 µs and the 90th percentile 159 µs).
pub const REFERENCE_NS: f64 = 95_000.0;

/// Ops shorter than this share one calibration per client; longer ones
/// are calibrated before and after.
pub const INTERVAL: Duration = Duration::from_millis(20);

/// Kernel time of the current pool, in ns: the kernel runs on every
/// pool thread at once, and the result is the harmonic mean of their
/// times — the rate at which the pool as a whole gets work done, which
/// is what a parallel op's chunk dealing sees when one core is slowed.
pub fn kernel_ns() -> f64 {
    let threads = rayon::current_num_threads();
    if threads == 1 {
        return thread_kernel_ns();
    }
    // The barrier makes each task wait for the others, so no thread can
    // run two of them: every pool thread is timed once.
    let barrier = Barrier::new(threads);
    let times: Vec<f64> = (0..threads)
        .into_par_iter()
        .map(|_| {
            barrier.wait();
            thread_kernel_ns()
        })
        .collect();
    threads as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// Best of three timings of the calibration kernel on this thread, in ns.
fn thread_kernel_ns() -> f64 {
    static WORDS: OnceLock<Vec<u32>> = OnceLock::new();
    let words = WORDS.get_or_init(|| {
        (0..4096u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(7))
            .collect()
    });
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0.0f64;
            for rep in 0..24u32 {
                let weight = f64::from(rep + 1);
                for (i, &w) in std::hint::black_box(words).iter().enumerate() {
                    let mantissa = u64::from((w >> (i & 7)) & 0x1f_ffff);
                    let exponent = 1023 + u64::from(w & 7);
                    acc += f64::from_bits((exponent << 52) | (mantissa << 31)) * weight;
                }
            }
            std::hint::black_box(acc);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Host speed from the kernel times before and after a measured span
/// (1.0 at the reference speed, below 1 on a slower or busier host).
pub fn host_speed(before_ns: f64, after_ns: f64) -> f64 {
    REFERENCE_NS / ((before_ns + after_ns) / 2.0)
}

/// A client's latest calibration, refreshed when it is due.
pub struct Calibration {
    kernel_ns: f64,
    at: Instant,
    /// Wall time spent timing the kernel so far.
    spent: Duration,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut c = Calibration {
            kernel_ns: 0.0,
            at: Instant::now(),
            spent: Duration::ZERO,
        };
        c.refresh();
        c
    }

    fn refresh(&mut self) {
        let start = Instant::now();
        self.kernel_ns = kernel_ns();
        self.at = Instant::now();
        self.spent += self.at - start;
    }

    /// Wall time this client has spent timing the kernel.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// The current kernel time, re-measured once [`INTERVAL`] has passed.
    pub fn current(&mut self) -> f64 {
        if self.at.elapsed() >= INTERVAL {
            self.refresh();
        }
        self.kernel_ns
    }

    /// Host speed over an op that started with kernel time `before_ns`
    /// and took `latency`: long ops are calibrated again after.
    pub fn speed_over(&mut self, before_ns: f64, latency: Duration) -> f64 {
        let after_ns = if latency >= INTERVAL {
            self.refresh();
            self.kernel_ns
        } else {
            before_ns
        };
        host_speed(before_ns, after_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_reference_over_the_mean_kernel_time() {
        assert_eq!(host_speed(REFERENCE_NS, REFERENCE_NS), 1.0);
        assert_eq!(host_speed(2.0 * REFERENCE_NS, 2.0 * REFERENCE_NS), 0.5);
        assert_eq!(host_speed(REFERENCE_NS, 3.0 * REFERENCE_NS), 0.5);
        assert!(kernel_ns() > 0.0);
        // Every thread of a wider pool runs the kernel once.
        assert!(crate::workload::with_pool(2, kernel_ns) > 0.0);
    }
}
