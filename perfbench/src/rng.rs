//! The benchmark's own input generator.
//!
//! Every guest command comes from this SplitMix64 stream, seeded from the
//! `--seed` argument, so the inputs stay the same when the program's own
//! random helpers change.

/// SplitMix64: tiny, fast, and good enough for workload shaping.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Derives an independent stream seed from a parent seed and a label.
pub fn derive(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Zipf(θ) weights over `n` ranks, normalized to sum to 1.
pub fn zipf_weights(n: usize, theta: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-theta)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// Bounded-Pareto inter-arrival gaps with a given mean: shape `alpha`,
/// support `[lo, ratio·lo]`, `lo` solved so the mean matches.
#[derive(Clone, Debug)]
pub struct ParetoGaps {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl ParetoGaps {
    pub fn with_mean(mean: f64, alpha: f64, ratio: f64) -> Self {
        // Mean of the bounded Pareto on [L, H] with H = ratio·L is L·k.
        let k = {
            let r = ratio.powf(-alpha);
            alpha / (alpha - 1.0) * (1.0 - ratio.powf(1.0 - alpha)) / (1.0 - r)
        };
        let lo = mean / k;
        ParetoGaps {
            lo,
            hi: lo * ratio,
            alpha,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u = rng.unit();
        let (l, h, a) = (self.lo, self.hi, self.alpha);
        let la = l.powf(a);
        let ha = h.powf(a);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_mean_matches() {
        let g = ParetoGaps::with_mean(1000.0, 1.5, 1000.0);
        let mut rng = Rng::new(3);
        let n = 400_000;
        let mean: f64 = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean / 1000.0 - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zipf_sums_to_one() {
        let w = zipf_weights(1024, 1.1);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w[0] > w[1]);
    }
}
