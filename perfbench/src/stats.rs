//! Small statistics helpers, the verdict tally and the seeded generator.

use std::time::Duration;

/// Milliseconds in `d`, with sub-millisecond precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `xs` (linear interpolation between closest ranks,
/// as `numpy.quantile` does by default). `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Operations attempted and failed. A failure is any deviation from the
/// expected outcome — an error, a wrong verdict, a reply that is not `ok`,
/// a work counter that did not repeat — and is never dropped.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure (the first few), for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation; `why` describes it when it failed.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why());
            }
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn failures_are_counted_not_dropped() {
        let mut t = Tally::default();
        t.record(true, || unreachable!());
        t.record(false, || "bad".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.notes, ["bad"]);
    }

    #[test]
    fn generator_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix::new(8).next_u64(), a[0]);
    }
}
