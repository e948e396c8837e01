//! Reference seconds: times scaled to a fixed machine speed.
//!
//! On a shared VM the same work can take twice as long from one minute
//! to the next (another tenant on the same core). The benchmark times a
//! fixed reference computation next to every timed operation and scales
//! the operation's time by `REFERENCE_S / kernel time`, the machine's
//! speed at that moment relative to a fixed reference. The reference
//! computation belongs to the benchmark, not to the checker, so no
//! change to the checker makes it faster or slower; a checker that gets
//! slower still shows as slower in reference seconds.

use crate::gen::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// The time one kernel run takes at the reference speed — its typical
/// time on the 2-vCPU VM the benchmark was written on — so reference
/// seconds read close to wall seconds there.
pub const REFERENCE_S: f64 = 0.0045;

/// Ordered-map inserts and lookups, sorting, string formatting and
/// allocation: the kinds of work the checker's own layers do. Takes
/// about 4 ms.
fn kernel() -> u64 {
    let mut rng = Rng::new(0x5eed);
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    for _ in 0..12_000 {
        *map.entry(rng.below(40_000)).or_insert(0) += 1;
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_by_key(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut text: Vec<String> = keys.iter().take(4_000).map(|k| format!("v{k:x}")).collect();
    text.sort();
    let hits = keys.iter().filter(|k| map.contains_key(&(**k / 2))).count() as u64;
    hits + text.iter().map(|s| s.len() as u64).sum::<u64>()
}

/// Seconds one kernel run takes now: the median of three runs.
pub fn sample() -> f64 {
    let mut t: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(kernel());
            start.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[1]
}

/// The machine's speed now relative to the reference (2 = twice as fast).
pub fn speed() -> f64 {
    REFERENCE_S / sample()
}

/// Times operations between calibration samples. Consecutive
/// operations share the sample between them.
pub struct Calibrator {
    last: f64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator { last: sample() }
    }

    /// The speed measured by the latest sample.
    pub fn speed(&self) -> f64 {
        REFERENCE_S / self.last
    }

    /// Runs `f`; returns its result, its wall seconds, and the factor
    /// that turns seconds measured during it into reference seconds
    /// (the mean speed of the samples before and after it).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let start = Instant::now();
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        let after = sample();
        let scale = 2.0 * REFERENCE_S / (self.last + after);
        self.last = after;
        (out, wall_s, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_timed() {
        assert_eq!(kernel(), kernel());
        let mut c = Calibrator::new();
        let (v, wall_s, scale) = c.time(|| 7);
        assert_eq!(v, 7);
        assert!(wall_s >= 0.0 && scale > 0.0 && scale.is_finite());
        assert!(c.speed() > 0.0);
    }
}
