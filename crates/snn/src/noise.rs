//! Deterministic random-number helpers.
//!
//! The guest programs draw thalamic noise from the MMIO xorshift32 device;
//! the host simulators use the same generator so runs are comparable (the
//! *streams* still differ between host and guest — each core interleaves
//! reads — which matches the paper's statistical, not bit-wise, comparison
//! of Fig. 3).

/// The xorshift32 generator implemented by the MMIO RNG device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift32 {
    state: u32,
}

impl XorShift32 {
    /// Create from a seed (0 is remapped to a fixed non-zero value).
    pub fn new(seed: u32) -> Self {
        XorShift32 {
            state: if seed == 0 { 0x1234_5678 } else { seed },
        }
    }

    /// Next raw 32-bit value.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.state = x;
        x
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u32() >> 8) as f64 / (1u32 << 24) as f64
    }

    /// Standard normal via Box–Muller (uses two uniforms per pair; the
    /// second value of each pair is discarded for simplicity, matching what
    /// a small guest routine would do).
    #[inline]
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (self.next_f64()).max(1e-12);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Advance the generator by a precomputed number of raw draws.
    #[inline]
    pub fn jump(&mut self, jump: &Jump) {
        self.state = jump.apply(self.state);
    }

    /// Sum-of-uniforms approximate gaussian, exactly as the guest assembly
    /// computes it: `(sum of 4 uniform u16 draws - 2*65536) * scale`, which
    /// has mean 0 and variance `4/12 * 65536^2`. Returned normalised to
    /// unit variance. Kept bit-faithful to the guest routine so host-side
    /// verification can reproduce guest noise streams.
    #[inline]
    pub fn next_gaussian4(&mut self) -> f64 {
        let mut acc: i64 = 0;
        for _ in 0..4 {
            acc += (self.next_u32() & 0xFFFF) as i64;
        }
        acc -= 2 * 65536;
        // std of sum = 65536 * sqrt(4/12)
        acc as f64 / (65536.0 * (4.0f64 / 12.0).sqrt())
    }
}

/// A fixed number of raw xorshift32 draws, taken in one step by
/// [`XorShift32::jump`]. Each draw is a linear map of the 32 state bits
/// over GF(2), so any number of them is one such map, found by squaring
/// in O(log draws) and stored as the images of the 32 unit states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jump {
    images: [u32; 32],
}

impl Jump {
    /// The jump over `draws` raw draws.
    pub fn new(mut draws: u64) -> Self {
        let mut step = Jump {
            images: std::array::from_fn(|bit| XorShift32 { state: 1 << bit }.next_u32()),
        };
        let mut jump = Jump {
            images: std::array::from_fn(|bit| 1 << bit),
        };
        while draws != 0 {
            if draws & 1 != 0 {
                jump = jump.then(&step);
            }
            step = step.then(&step);
            draws >>= 1;
        }
        jump
    }

    /// The state `self` maps `state` to.
    fn apply(&self, state: u32) -> u32 {
        let mut out = 0;
        for (bit, image) in self.images.iter().enumerate() {
            out ^= image & 0u32.wrapping_sub(state >> bit & 1);
        }
        out
    }

    /// `self` followed by `next`.
    fn then(&self, next: &Jump) -> Jump {
        Jump {
            images: self.images.map(|image| next.apply(image)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_matches_stepping() {
        for seed in [1, 7, 0xDEAD_BEEF] {
            let mut stepped = XorShift32::new(seed);
            let mut done = 0;
            for draws in [0u64, 1, 2, 3, 31, 32, 33, 1000, 65_537] {
                for _ in done..draws {
                    stepped.next_u32();
                }
                done = draws;
                let mut jumped = XorShift32::new(seed);
                jumped.jump(&Jump::new(draws));
                assert_eq!(jumped, stepped, "seed {seed}, {draws} draws");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift32::new(7);
        let mut b = XorShift32::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn matches_mmio_device_sequence() {
        // Same recurrence as izhi-sim's MMIO RNG.
        let mut x = 42u32;
        let mut rng = XorShift32::new(42);
        for _ in 0..10 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            assert_eq!(rng.next_u32(), x);
        }
    }

    #[test]
    fn uniform_mean_and_range() {
        let mut rng = XorShift32::new(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = XorShift32::new(3);
        let n = 200_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let g = rng.next_gaussian();
            s1 += g;
            s2 += g * g;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian4_moments() {
        let mut rng = XorShift32::new(5);
        let n = 200_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let g = rng.next_gaussian4();
            s1 += g;
            s2 += g * g;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
