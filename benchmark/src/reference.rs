//! The reference burst: a fixed piece of work that calls nothing of the
//! library, run between the pieces of work that are measured, so that a
//! time can be stated against the speed of the host at that moment.
//!
//! This VM's speed moves by 20 to 30 % in phases of seconds to minutes
//! (`README.md`, "Why times are in reference seconds"). A burst that ran just
//! before and one that ran just after a measurement were slowed by much the
//! same phase, so the measurement over their mean moves less than the
//! measurement itself.

use crate::clock::ThreadCpu;
use std::collections::HashMap;
use std::hint::black_box;

/// What a burst takes on this VM at its usual speed. Scaled times are
/// multiples of a burst times this, so they read as seconds at that speed.
pub const REFERENCE_S: f64 = 0.3;

/// A third of the burst: a dependent chain of multiplies, no memory.
fn arithmetic(steps: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..steps {
        x = lcg(x);
        x ^= x >> 29;
    }
    x
}

/// A third of the burst: dependent reads and writes scattered over a table
/// far larger than the caches, as union-find and hashcons lookups are.
fn scattered(table: &mut [u64], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for _ in 0..steps {
        x = lcg(x);
        let i = ((x >> 33) ^ acc) as usize & mask;
        acc = table[i];
        table[i] = acc.wrapping_add(x);
    }
    acc
}

/// A third of the burst: a hash map of small vectors that grow, are summed
/// and are freed, which is hashing plus the allocator.
fn hashed(steps: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for step in 0..steps {
        x = lcg(x);
        let key = (x >> 40) & 0xffff;
        let values = map.entry(key).or_default();
        values.push(step as u32);
        if values.len() > 6 {
            acc += values.iter().map(|&v| u64::from(v)).sum::<u64>();
            map.remove(&key);
        }
    }
    acc + map.len() as u64
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// The bursts of one run, in the order they ran.
pub struct Reference<'a> {
    clock: &'a ThreadCpu,
    table: Vec<u64>,
    /// On-CPU seconds of each burst.
    bursts: Vec<f64>,
}

impl<'a> Reference<'a> {
    /// Runs the first burst.
    pub fn start(clock: &'a ThreadCpu) -> Self {
        let mut reference = Reference {
            clock,
            table: vec![1; 1 << 22],
            bursts: vec![],
        };
        reference.burst();
        reference
    }

    /// Runs one burst. The step counts make each third about 0.1 s here.
    pub fn burst(&mut self) {
        let start = self.clock.ns();
        black_box(arithmetic(black_box(44_000_000)));
        black_box(scattered(&mut self.table, black_box(480_000)));
        black_box(hashed(black_box(1_000_000)));
        self.bursts.push((self.clock.ns() - start) as f64 * 1e-9);
    }

    /// Where in the order of bursts a measurement that starts now lies.
    pub fn mark(&self) -> usize {
        self.bursts.len()
    }

    /// `cpu_s`, measured from `mark` until some later burst, in reference
    /// seconds: over the mean of the burst before it and the burst after it.
    ///
    /// # Panics
    ///
    /// Panics if no burst has run since `mark`.
    pub fn scaled(&self, cpu_s: f64, mark: usize) -> f64 {
        let around = (self.bursts[mark - 1] + self.bursts[mark]) / 2.0;
        cpu_s * REFERENCE_S / around
    }

    pub fn bursts(&self) -> &[f64] {
        &self.bursts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_time_is_scaled_by_the_bursts_around_it() {
        let clock = ThreadCpu::open().unwrap();
        let reference = Reference {
            clock: &clock,
            table: vec![],
            bursts: vec![0.3, 0.5, 0.4],
        };
        // Between a 0.3 s and a 0.5 s burst the host ran at 0.3 / 0.4 of its
        // quiet speed.
        assert!((reference.scaled(2.0, 1) - 1.5).abs() < 1e-12);
        assert!((reference.scaled(0.45, 2) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn the_work_of_a_burst_is_fixed() {
        let mut table = vec![1; 1 << 10];
        let first = (arithmetic(1000), scattered(&mut table, 1000), hashed(1000));
        let mut table = vec![1; 1 << 10];
        let again = (arithmetic(1000), scattered(&mut table, 1000), hashed(1000));
        assert_eq!(first, again);
    }
}
