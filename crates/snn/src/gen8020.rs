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
    /// Thalamic noise std for excitatory cells ([`Net8020::EXC_NOISE`]).
    pub exc_noise: f64,
    /// Thalamic noise std for inhibitory cells ([`Net8020::INH_NOISE`]).
    pub inh_noise: f64,
}

impl Net8020 {
    /// Thalamic noise std of every generated excitatory cell.
    pub const EXC_NOISE: f64 = 5.0;
    /// Thalamic noise std of every generated inhibitory cell.
    pub const INH_NOISE: f64 = 2.0;

    /// Per-neuron thalamic noise std of an `n_exc + n_inh` population,
    /// excitatory cells first — what a generated network's
    /// [`Net8020::exc_noise`]/[`Net8020::inh_noise`] say, known before
    /// anything is drawn.
    pub fn noise_std(n_exc: usize, n_inh: usize) -> Vec<f64> {
        let mut std = vec![Self::EXC_NOISE; n_exc];
        std.resize(n_exc + n_inh, Self::INH_NOISE);
        std
    }

    /// Generate the canonical 1000-neuron network.
    pub fn standard(seed: u32) -> Self {
        Self::with_size(800, 200, seed)
    }

    /// Generate with arbitrary population sizes (keeps the 2003 parameter
    /// recipes; useful for fast tests and scaling sweeps).
    pub fn with_size(n_exc: usize, n_inh: usize, seed: u32) -> Self {
        let n = n_exc + n_inh;
        let mut rng = XorShift32::new(seed);
        let params = draw_params(n_exc, n_inh, &mut rng);
        // All-to-all weights drawn row by row (row = presynaptic neuron)
        // straight into CSR form; an exact zero draw is no synapse, as in
        // `Network::from_dense`.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(n * n);
        let mut weights = Vec::with_capacity(n * n);
        row_ptr.push(0u32);
        for pre in 0..n {
            for post in 0..n as u32 {
                let w = if pre < n_exc {
                    0.5 * rng.next_f64()
                } else {
                    -rng.next_f64()
                };
                if w != 0.0 {
                    targets.push(post);
                    weights.push(w);
                }
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
            exc_noise: Self::EXC_NOISE,
            inh_noise: Self::INH_NOISE,
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
    ///
    /// Draw order, which fixes the network for a seed: every neuron's
    /// parameter, then row by row the row's rejection draws followed by
    /// one weight per target in ascending target order.
    pub fn sparse_random(n_exc: usize, n_inh: usize, density: f64, seed: u32) -> Self {
        let n = n_exc + n_inh;
        let mut rng = XorShift32::new(seed);
        let params = draw_params(n_exc, n_inh, &mut rng);
        let keep = Self::sparse_row_len(n, density);
        let boost = (1000.0 / (density * n as f64)).max(1.0);
        let mut row_ptr = Vec::with_capacity(n + 1);
        // Two spare slots past the last row: the walk below stores a
        // word's two lowest targets before it knows how many it holds.
        let mut targets = vec![0u32; keep * n + 2];
        let mut weights = vec![0.0; keep * n];
        row_ptr.push(0u32);
        // The current row's targets as a bitset. Walking its n/64 words
        // (no more than `keep` at densities of 1/64 and up) yields them in
        // ascending order without a sort and leaves it empty for the next
        // row.
        let mut in_row = vec![0u64; n.div_ceil(64)];
        for (pre, row) in (0..n).zip((0..).step_by(keep)) {
            // Rejection-sample `keep` distinct targets; deterministic in
            // the seed, and cheap for the sparse densities this is for.
            let mut drawn = 0;
            while drawn < keep {
                let t = (rng.next_f64() * n as f64) as u32 % n as u32;
                let (word, bit) = (t as usize / 64, 1u64 << (t % 64));
                if in_row[word] & bit == 0 {
                    in_row[word] |= bit;
                    drawn += 1;
                }
            }
            // Most words hold at most two targets, so each word stores its
            // two lowest unconditionally (a store past the word's count is
            // overwritten by the next) and loops only over the rest: one
            // rarely taken branch per word instead of a loop exit that
            // mispredicts on about half of them.
            let mut k = row;
            for (base, word) in (0u32..).step_by(64).zip(&mut in_row) {
                let bits = std::mem::take(word);
                let rest = bits & bits.wrapping_sub(1);
                targets[k] = base + bits.trailing_zeros();
                targets[k + 1] = base + rest.trailing_zeros();
                k += usize::from(bits != 0) + usize::from(rest != 0);
                let mut more = rest & rest.wrapping_sub(1);
                while more != 0 {
                    targets[k] = base + more.trailing_zeros();
                    k += 1;
                    more &= more - 1;
                }
            }
            for slot in &mut weights[row..row + keep] {
                let w = if pre < n_exc {
                    0.5 * rng.next_f64()
                } else {
                    -rng.next_f64()
                };
                *slot = w * boost;
            }
            row_ptr.push((row + keep) as u32);
        }
        targets.truncate(keep * n);
        Net8020 {
            network: Network {
                params,
                row_ptr,
                targets,
                weights,
            },
            n_exc,
            exc_noise: Self::EXC_NOISE,
            inh_noise: Self::INH_NOISE,
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

/// The 2003 parameter recipes, one uniform draw per neuron: `n_exc`
/// excitatory neurons, then `n_inh` inhibitory ones.
fn draw_params(n_exc: usize, n_inh: usize, rng: &mut XorShift32) -> Vec<IzhParams> {
    let mut params = Vec::with_capacity(n_exc + n_inh);
    for _ in 0..n_exc {
        params.push(IzhParams::excitatory_8020(rng.next_f64()));
    }
    for _ in 0..n_inh {
        params.push(IzhParams::inhibitory_8020(rng.next_f64()));
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sort-based row sampler [`Net8020::sparse_random`] must match
    /// draw for draw: collect a row's distinct targets in draw order,
    /// sort them, then draw one weight per sorted target.
    fn sorted_rows_reference(n_exc: usize, n_inh: usize, density: f64, seed: u32) -> Network {
        let n = n_exc + n_inh;
        let mut rng = XorShift32::new(seed);
        let params = draw_params(n_exc, n_inh, &mut rng);
        let keep = Net8020::sparse_row_len(n, density);
        let boost = (1000.0 / (density * n as f64)).max(1.0);
        let (mut row_ptr, mut targets, mut weights) = (vec![0u32], Vec::new(), Vec::new());
        let mut row = Vec::with_capacity(keep);
        let mut in_row = vec![false; n];
        for pre in 0..n {
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
        Network {
            params,
            row_ptr,
            targets,
            weights,
        }
    }

    #[test]
    fn with_size_matches_the_dense_matrix_reference() {
        // The dense `n²` draw converted by `Network::from_dense`.
        for (n_exc, n_inh, seed) in [(8, 2, 3), (1, 0, 5), (0, 3, 6), (80, 20, 1001)] {
            let n = n_exc + n_inh;
            let mut rng = XorShift32::new(seed);
            let params = draw_params(n_exc, n_inh, &mut rng);
            let mut w = vec![0.0f64; n * n];
            for (pre, row) in w.chunks_mut(n).enumerate() {
                for v in row.iter_mut() {
                    *v = if pre < n_exc {
                        0.5 * rng.next_f64()
                    } else {
                        -rng.next_f64()
                    };
                }
            }
            let want = Network::from_dense(params, &w);
            let got = Net8020::with_size(n_exc, n_inh, seed).network;
            assert_eq!(got.row_ptr, want.row_ptr);
            assert_eq!(got.targets, want.targets);
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.weights), bits(&want.weights));
        }
    }

    #[test]
    fn sparse_random_matches_the_sorted_reference() {
        // (n_exc, n_inh, density): one-target rows, full rows (`keep ==
        // n`), one-neuron populations of either sign, bitset widths just
        // under, at and over a word, and the sharded default shape.
        let shapes = [
            (1, 0, 0.5),
            (0, 1, 0.02),
            (50, 13, 0.001),
            (50, 13, 1.0),
            (51, 13, 0.3),
            (52, 13, 0.9),
            (64, 0, 0.25),
            (0, 65, 0.25),
            (8192, 2048, 0.02),
        ];
        for (n_exc, n_inh, density) in shapes {
            for seed in [1, 17, 1001] {
                let want = sorted_rows_reference(n_exc, n_inh, density, seed);
                let got = Net8020::sparse_random(n_exc, n_inh, density, seed).network;
                let shape = format!("({n_exc}, {n_inh}, {density}) seed {seed}");
                assert_eq!(got.row_ptr, want.row_ptr, "{shape}");
                assert_eq!(got.targets, want.targets, "{shape}");
                let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.weights), bits(&want.weights), "{shape}");
            }
        }
    }

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
