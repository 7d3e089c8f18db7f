//! Generator for Izhikevich's 2003 "80-20" cortical network.
//!
//! 800 excitatory neurons with parameters blended from RS towards CH by a
//! squared uniform `r`, 200 inhibitory neurons blended from LTS towards FS,
//! all-to-all connectivity with weights `0.5·U(0,1)` (excitatory rows) and
//! `-U(0,1)` (inhibitory rows), and per-step thalamic noise `5·N(0,1)` /
//! `2·N(0,1)` — exactly the script referenced by the paper's §VI-B.

use izhi_core::params::IzhParams;

use crate::network::Network;
use crate::noise::XorShift32;

/// The 80-20 network plus its noise magnitudes.
#[derive(Debug, Clone)]
pub struct Net8020 {
    /// The connectivity/parameters.
    pub network: Network,
    /// Number of excitatory neurons (first `n_exc` indices).
    pub n_exc: usize,
    /// Thalamic noise std for excitatory cells (5.0).
    pub exc_noise: f64,
    /// Thalamic noise std for inhibitory cells (2.0).
    pub inh_noise: f64,
}

impl Net8020 {
    /// Generate the canonical 1000-neuron network.
    pub fn standard(seed: u32) -> Self {
        Self::with_size(800, 200, seed)
    }

    /// Generate with arbitrary population sizes (keeps the 2003 parameter
    /// recipes; useful for fast tests and scaling sweeps).
    pub fn with_size(n_exc: usize, n_inh: usize, seed: u32) -> Self {
        let n = n_exc + n_inh;
        let mut rng = XorShift32::new(seed);
        let mut params = Vec::with_capacity(n);
        for _ in 0..n_exc {
            params.push(IzhParams::excitatory_8020(rng.next_f64()));
        }
        for _ in 0..n_inh {
            params.push(IzhParams::inhibitory_8020(rng.next_f64()));
        }
        // Dense all-to-all weights, row = presynaptic neuron.
        let mut w = vec![0.0f64; n * n];
        for (pre, row) in w.chunks_mut(n).enumerate() {
            if pre < n_exc {
                for v in row.iter_mut() {
                    *v = 0.5 * rng.next_f64();
                }
            } else {
                for v in row.iter_mut() {
                    *v = -rng.next_f64();
                }
            }
        }
        Net8020 {
            network: Network::from_dense(params, &w),
            n_exc,
            exc_noise: 5.0,
            inh_noise: 2.0,
        }
    }

    /// Targets per presynaptic row at connection `density`:
    /// `⌈density·n⌉`, at least one and at most `n`. A
    /// [`Net8020::sparse_random`] population has exactly `n` times this
    /// many synapses.
    pub fn sparse_row_len(n: usize, density: f64) -> usize {
        ((density * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Generate directly in CSR form at a target connection `density` —
    /// no dense `n²` intermediate, which is what makes 10k+ neuron
    /// populations practical host-side (a dense 10240² f64 matrix is
    /// 800 MB before quantisation). Each presynaptic row samples
    /// `⌈density·n⌉` distinct targets; weights follow the 2003 recipes
    /// (`0.5·U(0,1)` excitatory, `-U(0,1)` inhibitory), boosted by the
    /// canonical network's in-degree ratio `1000/(density·n)` so the
    /// per-neuron recurrent drive stays in the 1000-neuron reference
    /// regime at any size.
    pub fn sparse_random(n_exc: usize, n_inh: usize, density: f64, seed: u32) -> Self {
        let n = n_exc + n_inh;
        let mut rng = XorShift32::new(seed);
        let mut params = Vec::with_capacity(n);
        for _ in 0..n_exc {
            params.push(IzhParams::excitatory_8020(rng.next_f64()));
        }
        for _ in 0..n_inh {
            params.push(IzhParams::inhibitory_8020(rng.next_f64()));
        }
        let keep = Self::sparse_row_len(n, density);
        let boost = (1000.0 / (density * n as f64)).max(1.0);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut targets: Vec<u32> = Vec::with_capacity(keep * n);
        let mut weights = Vec::with_capacity(keep * n);
        row_ptr.push(0u32);
        let mut row = Vec::with_capacity(keep);
        // Membership of the current row's targets, cleared through the
        // row's own entries so each row costs O(keep), not O(n).
        let mut in_row = vec![false; n];
        for pre in 0..n {
            // Rejection-sample `keep` distinct targets; deterministic in
            // the seed, and cheap for the sparse densities this is for.
            for &t in &row {
                in_row[t as usize] = false;
            }
            row.clear();
            while row.len() < keep {
                let t = (rng.next_f64() * n as f64) as u32 % n as u32;
                if !in_row[t as usize] {
                    in_row[t as usize] = true;
                    row.push(t);
                }
            }
            row.sort_unstable();
            for &t in &row {
                let w = if pre < n_exc {
                    0.5 * rng.next_f64()
                } else {
                    -rng.next_f64()
                };
                targets.push(t);
                weights.push(w * boost);
            }
            row_ptr.push(targets.len() as u32);
        }
        Net8020 {
            network: Network {
                params,
                row_ptr,
                targets,
                weights,
            },
            n_exc,
            exc_noise: 5.0,
            inh_noise: 2.0,
        }
    }

    /// Total neuron count.
    pub fn len(&self) -> usize {
        self.network.len()
    }

    /// True if empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.network.is_empty()
    }

    /// Thalamic input vector for one timestep.
    pub fn thalamic(&self, rng: &mut XorShift32) -> Vec<f64> {
        (0..self.len())
            .map(|i| {
                let s = if i < self.n_exc {
                    self.exc_noise
                } else {
                    self.inh_noise
                };
                s * rng.next_gaussian()
            })
            .collect()
    }

    /// Whether neuron `i` is excitatory.
    pub fn is_excitatory(&self, i: usize) -> bool {
        i < self.n_exc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_shape() {
        let net = Net8020::standard(1);
        assert_eq!(net.len(), 1000);
        assert_eq!(net.n_exc, 800);
        // Fully connected: every neuron drives all 1000 (including itself,
        // as in the original dense S matrix).
        assert_eq!(net.network.n_synapses(), 1_000_000);
    }

    #[test]
    fn weight_signs_by_population() {
        let net = Net8020::with_size(8, 2, 3);
        for pre in 0..8 {
            for (_, w) in net.network.out_edges(pre) {
                assert!((0.0..=0.5).contains(&w), "exc weight {w}");
            }
        }
        for pre in 8..10 {
            for (_, w) in net.network.out_edges(pre) {
                assert!((-1.0..=0.0).contains(&w), "inh weight {w}");
            }
        }
    }

    #[test]
    fn parameter_recipes() {
        let net = Net8020::with_size(50, 50, 9);
        for i in 0..50 {
            let p = net.network.params[i];
            assert_eq!(p.a, 0.02);
            assert_eq!(p.b, 0.2);
            assert!((-65.0..=-50.0).contains(&p.c), "c = {}", p.c);
            assert!((2.0..=8.0).contains(&p.d), "d = {}", p.d);
        }
        for i in 50..100 {
            let p = net.network.params[i];
            assert!((0.02..=0.1).contains(&p.a));
            assert!((0.2..=0.25).contains(&p.b));
            assert_eq!(p.c, -65.0);
            assert_eq!(p.d, 2.0);
        }
    }

    #[test]
    fn sparse_random_shape_signs_and_determinism() {
        let a = Net8020::sparse_random(400, 100, 0.1, 7);
        assert_eq!(a.len(), 500);
        for pre in 0..500 {
            assert_eq!(a.network.out_degree(pre), 50, "row {pre}");
            let row: Vec<u32> = a.network.out_edges(pre).map(|(t, _)| t).collect();
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {pre} not sorted/distinct"
            );
            assert!(row.iter().all(|&t| t < 500));
        }
        for pre in 0..400 {
            assert!(a.network.out_edges(pre).all(|(_, w)| w >= 0.0));
        }
        for pre in 400..500 {
            assert!(a.network.out_edges(pre).all(|(_, w)| w <= 0.0));
        }
        let b = Net8020::sparse_random(400, 100, 0.1, 7);
        assert_eq!(a.network.targets, b.network.targets);
        assert_eq!(a.network.weights, b.network.weights);
        let c = Net8020::sparse_random(400, 100, 0.1, 8);
        assert_ne!(a.network.targets, c.network.targets);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Net8020::with_size(10, 3, 77);
        let b = Net8020::with_size(10, 3, 77);
        assert_eq!(a.network.weights, b.network.weights);
        let c = Net8020::with_size(10, 3, 78);
        assert_ne!(a.network.weights, c.network.weights);
    }

    #[test]
    fn thalamic_noise_scales() {
        let net = Net8020::with_size(500, 500, 5);
        let mut rng = XorShift32::new(1);
        let mut var_e = 0.0;
        let mut var_i = 0.0;
        let rounds = 200;
        for _ in 0..rounds {
            let t = net.thalamic(&mut rng);
            var_e += t[..500].iter().map(|x| x * x).sum::<f64>() / 500.0;
            var_i += t[500..].iter().map(|x| x * x).sum::<f64>() / 500.0;
        }
        let std_e = (var_e / rounds as f64).sqrt();
        let std_i = (var_i / rounds as f64).sqrt();
        assert!((std_e - 5.0).abs() < 0.2, "exc std {std_e}");
        assert!((std_i - 2.0).abs() < 0.1, "inh std {std_i}");
    }
}
