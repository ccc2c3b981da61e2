//! Machine-speed correction for host-wall metrics.
//!
//! The sandbox the benchmark is accepted on does not hold its speed: a
//! fixed pure-CPU loop measured 170–300 ms within a minute, in spells of
//! seconds to minutes, and the same `pr-cf` job 0.59 s in one hour and
//! 0.85 s in the next. A run's median job wall follows the machine as
//! much as the code: over 13 back-to-back runs of 15 `pr-cf` jobs it
//! spread 9.4 % (IQR ÷ median) and ranged 1.21×; over another 26, 11.9 %
//! and 1.25×.
//!
//! So every timed stretch of work is bracketed by a fixed kernel from
//! this file — none of the repo's code, so no change to the repo moves it
//! — and its wall is divided by how slow the kernel ran around it. Job by
//! job the kernel tracks the slowness poorly (correlation 0.4–0.6: most
//! job-to-job noise is short); over a run it takes out about half of it:
//! the same two series spread 3.2 % and 7.4 % corrected and ranged 1.11×
//! and 1.19×. Corrected walls are in seconds of a machine on which the
//! kernel takes [`NOMINAL_S`].

use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on the sandbox when it is quiet. A unit, not a
/// measurement: it only fixes what "one second" of corrected wall means.
pub const NOMINAL_S: f64 = 0.032;

const STREAM_WORDS: usize = 2 << 20;
const RECORDS: usize = 1 << 20;
const STEPS: usize = 6_000_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration kernel: the three things the engine's host time goes
/// into, in fixed amounts — streaming copies (16 MiB, twice), a counting
/// scatter of 16-byte records by key (1 Mi records, 256 buckets), and
/// register arithmetic (6 M xorshift steps). About 32 ms a pass.
pub struct Probe {
    /// The kernel's time at the start of the stretch being timed.
    last_s: f64,
    src: Vec<u64>,
    dst: Vec<u64>,
    records: Vec<(u32, u32, u64)>,
    scattered: Vec<(u32, u32, u64)>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let records: Vec<(u32, u32, u64)> = (0..RECORDS as u32)
            .map(|i| {
                let r = xorshift(&mut x);
                ((r >> 40) as u32, i, r)
            })
            .collect();
        let mut probe = Probe {
            last_s: NOMINAL_S,
            src: (0..STREAM_WORDS as u64).collect(),
            dst: vec![0; STREAM_WORDS],
            scattered: records.clone(),
            records,
        };
        probe.pass(); // first touch of every page is not the machine's speed
        probe
    }

    fn pass(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..2 {
            self.dst.copy_from_slice(&self.src);
            black_box(&self.dst);
        }
        let mut starts = [0usize; 257];
        for r in &self.records {
            starts[(r.0 >> 16) as usize + 1] += 1;
        }
        for b in 0..256 {
            starts[b + 1] += starts[b];
        }
        for r in &self.records {
            let b = (r.0 >> 16) as usize;
            self.scattered[starts[b]] = *r;
            starts[b] += 1;
        }
        black_box(&self.scattered);
        let (mut x, mut sum) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for _ in 0..STEPS {
            sum = sum.wrapping_add(xorshift(&mut x));
        }
        black_box(sum);
        t.elapsed().as_secs_f64()
    }

    /// Seconds the kernel takes right now: the faster of two passes, which
    /// drops a blip that hit one of them and keeps a spell that hit both.
    pub fn run(&mut self) -> f64 {
        self.pass().min(self.pass())
    }

    /// Start a timed stretch: the kernel runs now.
    pub fn start(&mut self) {
        self.last_s = self.run();
    }

    /// End the stretch that began at the last `start` or `lap` and begin
    /// the next: the kernel runs again, and the stretch's [`correction`]
    /// comes back.
    pub fn lap(&mut self) -> f64 {
        let after = self.run();
        let before = std::mem::replace(&mut self.last_s, after);
        correction(before, after)
    }
}

/// What to multiply a wall by, given the kernel's time just before and
/// just after it: above 1 on a machine faster than nominal right now,
/// below 1 on a slower one.
pub fn correction(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_walls_to_the_nominal_machine() {
        assert_eq!(correction(NOMINAL_S, NOMINAL_S), 1.0);
        // The kernel ran twice as slow around the work: the work's wall
        // counts half.
        assert_eq!(correction(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        assert!(correction(NOMINAL_S / 2.0, NOMINAL_S) > 1.0);
    }

    #[test]
    fn kernel_does_the_same_work_every_run() {
        let mut p = Probe::new();
        assert!(p.run() > 0.0);
        let first = p.scattered.clone();
        p.run();
        assert_eq!(first, p.scattered);
        assert!(
            first.windows(2).all(|w| w[0].0 >> 16 <= w[1].0 >> 16),
            "scattered by bucket"
        );
        assert_eq!(p.dst, p.src);
    }
}
