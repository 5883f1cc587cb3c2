//! Host-speed calibration.
//!
//! On a shared host the same code runs at speed levels up to twice as slow
//! as each other, and a level can hold for seconds or for minutes, longer
//! than one run. A fixed reference kernel that belongs to the benchmark,
//! not to the program under test, is timed in short slices spread over the
//! timed work, so it sees the host at the same levels the work does.
//! Dividing a measured time by the kernel's slowdown against
//! [`REFERENCE_NS`] gives the time the work would have taken at the
//! reference speed. A change to the program moves the workload's times but
//! never the kernel's, so it shows in full.
//!
//! The kernel mimics the mix of the class-core hot loop: a multiply-add
//! recursion with a division per element, then a branchy top-3 scan. Its
//! arrays are small enough to stay in L1/L2, so it measures the core's
//! speed, not how much of its cache the workload evicted. On the 2-core
//! virtual machine the bounds were set on, its time per iteration,
//! averaged over 5 s windows, tracked the time of a `ClassSegmenter::step`
//! with a correlation of 0.97 (d = 10 000) and 0.99 (d = 500) while the
//! host moved between levels twice as slow as each other; the step time
//! divided by the kernel's spread 3–4 % (interquartile range / median)
//! where the step time alone spread 14–32 %. A cold kernel over arrays of
//! the paper's d, or an integer-only one, tracked it far worse.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Elements per kernel iteration.
const N: usize = 1_000;

/// Kernel iterations per slice (about 30 µs).
const SLICE: usize = 20;

/// Least time between two slices taken by [`Calibrator::tick`]: the
/// kernel costs under 1 % of the timed work.
const INTERVAL: Duration = Duration::from_millis(8);

/// Nanoseconds per kernel iteration at the reference speed: about the
/// fast level of the 2-core x86-64 (AVX2) virtual machine the bounds were
/// set on.
pub const REFERENCE_NS: f64 = 1_500.0;

/// Kernel state: a series and the per-offset recursion it maintains.
struct Kernel {
    x: Vec<f64>,
    q: Vec<f64>,
    mu: Vec<f64>,
    sig: Vec<f64>,
    scores: Vec<f64>,
    t: usize,
}

impl Kernel {
    fn new() -> Kernel {
        let x: Vec<f64> = (0..2 * N).map(|i| (i as f64 * 0.37).sin()).collect();
        Kernel {
            q: (0..N).map(|i| x[i] * 8.0).collect(),
            mu: (0..N).map(|i| 0.01 * x[i]).collect(),
            sig: (0..N).map(|i| 1.0 + 0.5 * x[i].abs()).collect(),
            scores: vec![0.0; N],
            x,
            t: 0,
        }
    }

    #[inline(always)]
    fn body(&mut self) -> usize {
        self.t = (self.t + 1) % N;
        let (last, first) = (self.x[self.t + N - 1], self.x[self.t]);
        let (mu_n, sig_n) = (self.mu[self.t], self.sig[self.t]);
        let tail = &self.x[self.t..self.t + N];
        let head = &self.x[N - self.t..2 * N - self.t];
        for i in 0..N {
            let q = self.q[i] + tail[i] * last - head[i] * first;
            self.q[i] = 0.5 * q;
            self.scores[i] = (q - 25.0 * self.mu[i] * mu_n) / (25.0 * self.sig[i] * sig_n);
        }
        let mut best = [(f64::NEG_INFINITY, 0usize); 3];
        for (i, &s) in self.scores.iter().enumerate() {
            if s > best[2].0 {
                best[2] = (s, i);
                if best[2].0 > best[1].0 {
                    best.swap(1, 2);
                    if best[1].0 > best[0].0 {
                        best.swap(0, 1);
                    }
                }
            }
        }
        best[0].1 ^ best[1].1 ^ best[2].1
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn run_avx2(&mut self, iters: usize) -> usize {
        (0..iters).fold(0, |acc, _| acc ^ self.body())
    }

    fn run(&mut self, iters: usize) -> usize {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the CPU supports the features the function enables.
            return unsafe { self.run_avx2(iters) };
        }
        (0..iters).fold(0, |acc, _| acc ^ self.body())
    }
}

/// Slices on each side of a point in the run that [`Calibrator::around`]
/// averages for a single step (about ±130 ms of timed work).
const STEP_WINDOW: usize = 16;

/// The same for an engine pass, which no slice interrupts: about half a
/// second of the oracle rounds on either side of it.
pub const PASS_WINDOW: usize = 64;

/// Times the reference kernel in slices between the workload's own steps,
/// and tells the host's speed at any point of the run from the slices
/// taken around it.
pub struct Calibrator {
    kernel: Kernel,
    last: Instant,
    /// Nanoseconds per kernel iteration of every slice so far, in order.
    slices: Vec<f64>,
    spent: Duration,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut kernel = Kernel::new();
        black_box(kernel.run(SLICE));
        Calibrator {
            kernel,
            last: Instant::now(),
            slices: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Times one slice of the kernel now.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(self.kernel.run(SLICE));
        let took = t0.elapsed();
        self.slices.push(took.as_nanos() as f64 / SLICE as f64);
        self.spent += took;
        self.last = Instant::now();
    }

    /// Times one slice if [`INTERVAL`] has passed since the last one, as
    /// of `now`; returns whether it did, so the caller can restart its
    /// own clock after it.
    pub fn tick(&mut self, now: Instant) -> bool {
        if now - self.last < INTERVAL {
            return false;
        }
        self.sample();
        true
    }

    /// The point in the run reached so far: the number of slices taken.
    pub fn mark(&self) -> u32 {
        self.slices.len() as u32
    }

    /// The host's slowdown against the reference speed at `mark`: the mean
    /// of the `window` slices taken before it and the `window` after it
    /// (as many as exist; one is taken now if there are none).
    pub fn around(&mut self, mark: u32, window: usize) -> f64 {
        let at = mark as usize;
        let hi = (at + window).min(self.slices.len());
        let lo = at.saturating_sub(window).min(hi.saturating_sub(1));
        if lo >= hi {
            self.sample();
            return self.around(mark, window);
        }
        let near = &self.slices[lo..hi];
        near.iter().sum::<f64>() / near.len() as f64 / REFERENCE_NS
    }

    /// Rescales `samples` (nanoseconds) to the reference speed in place;
    /// `marks[i]` is the [`Calibrator::mark`] at which sample `i` was taken.
    pub fn rescale(&mut self, samples: &mut [u64], marks: &[u32]) {
        assert_eq!(samples.len(), marks.len(), "one mark per sample");
        let mut cached = None;
        for (s, &m) in samples.iter_mut().zip(marks) {
            let slowdown = match cached {
                Some((at, f)) if at == m => f,
                _ => {
                    let f = self.around(m, STEP_WINDOW);
                    cached = Some((m, f));
                    f
                }
            };
            *s = (*s as f64 / slowdown).round() as u64;
        }
    }

    /// Time spent in kernel slices over the whole run.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// The mean slowdown over every slice of the run.
    pub fn overall(&mut self) -> f64 {
        self.around(self.mark() / 2, usize::MAX / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn around_averages_the_slices_on_either_side_and_rescale_divides_by_it() {
        let mut cal = Calibrator::new();
        // Two slices at the reference speed, then two at half of it.
        cal.slices = vec![
            REFERENCE_NS,
            REFERENCE_NS,
            2.0 * REFERENCE_NS,
            2.0 * REFERENCE_NS,
        ];
        assert_eq!(cal.around(0, 1), 1.0);
        assert_eq!(cal.around(2, 1), 1.5);
        assert_eq!(cal.around(4, 2), 2.0);
        assert_eq!(cal.overall(), 1.5);
        // Each step's window (16 slices a side) covers all four here.
        let mut samples = vec![150, 300, 450];
        cal.rescale(&mut samples, &[0, 2, 4]);
        assert_eq!(samples, vec![100, 200, 300]);
        // Past every slice taken so far, the nearest ones still count.
        assert_eq!(cal.around(9, 1), 2.0);
        assert_eq!(cal.slices.len(), 4);
    }
}
