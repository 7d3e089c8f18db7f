//! Network representation: per-neuron Izhikevich parameters plus a dense or
//! CSR-compressed weight matrix, with a quantised view matching the
//! hardware formats.

use izhi_core::params::{FixedIzhParams, IzhParams};
use izhi_fixed::Q15_16;

/// A spiking network: `n` Izhikevich neurons and directed weighted synapses
/// stored in CSR form by *presynaptic* neuron (row j lists the targets a
/// spike of neuron j drives).
#[derive(Debug, Clone)]
pub struct Network {
    /// Per-neuron parameters.
    pub params: Vec<IzhParams>,
    /// CSR row pointers (len n+1) over [`Network::targets`]/[`Network::weights`].
    pub row_ptr: Vec<u32>,
    /// Postsynaptic indices.
    pub targets: Vec<u32>,
    /// Synaptic weights (current increments, mV-equivalent units).
    pub weights: Vec<f64>,
}

impl Network {
    /// Build from per-neuron parameters and an edge list `(pre, post, w)`.
    pub fn from_edges(params: Vec<IzhParams>, mut edges: Vec<(u32, u32, f64)>) -> Self {
        let n = params.len();
        edges.sort_by_key(|&(pre, post, _)| (pre, post));
        let mut row_ptr = vec![0u32; n + 1];
        for &(pre, _, _) in &edges {
            row_ptr[pre as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let targets = edges.iter().map(|&(_, post, _)| post).collect();
        let weights = edges.iter().map(|&(_, _, w)| w).collect();
        Network {
            params,
            row_ptr,
            targets,
            weights,
        }
    }

    /// Build a fully connected network from a dense row-major weight matrix
    /// (`w[pre * n + post]`), skipping exact zeros.
    pub fn from_dense(params: Vec<IzhParams>, w: &[f64]) -> Self {
        let n = params.len();
        assert_eq!(w.len(), n * n);
        let nonzero = w.iter().filter(|&&wv| wv != 0.0).count();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(nonzero);
        let mut weights = Vec::with_capacity(nonzero);
        row_ptr.push(0u32);
        // Row-major order is already the (pre, post) order CSR wants.
        for row in w.chunks(n.max(1)) {
            for (post, &wv) in row.iter().enumerate() {
                if wv != 0.0 {
                    targets.push(post as u32);
                    weights.push(wv);
                }
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

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the network has no neurons.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Number of synapses.
    pub fn n_synapses(&self) -> usize {
        self.targets.len()
    }

    /// Outgoing synapses of neuron `j` as `(target, weight)` pairs.
    pub fn out_edges(&self, j: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.row_ptr[j] as usize;
        let hi = self.row_ptr[j + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Out-degree of neuron `j`.
    pub fn out_degree(&self, j: usize) -> usize {
        (self.row_ptr[j + 1] - self.row_ptr[j]) as usize
    }

    /// Quantise every neuron's parameters to the hardware formats.
    pub fn quantized_params(&self) -> Vec<FixedIzhParams> {
        self.params.iter().map(IzhParams::quantize).collect()
    }

    /// Quantise the weights to Q15.16 synaptic-current increments.
    pub fn quantized_weights(&self) -> Vec<Q15_16> {
        self.weights.iter().map(|&w| Q15_16::from_f64(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        let p = vec![IzhParams::regular_spiking(); 3];
        Network::from_edges(p, vec![(0, 1, 0.5), (0, 2, -0.25), (2, 0, 1.0)])
    }

    #[test]
    fn csr_layout() {
        let net = tiny();
        assert_eq!(net.len(), 3);
        assert_eq!(net.n_synapses(), 3);
        assert_eq!(net.out_degree(0), 2);
        assert_eq!(net.out_degree(1), 0);
        assert_eq!(net.out_degree(2), 1);
        let e0: Vec<_> = net.out_edges(0).collect();
        assert_eq!(e0, vec![(1, 0.5), (2, -0.25)]);
    }

    #[test]
    fn dense_roundtrip() {
        let p = vec![IzhParams::regular_spiking(); 2];
        #[rustfmt::skip]
        let w = vec![
            0.0, 0.7,
            -0.3, 0.0,
        ];
        let net = Network::from_dense(p, &w);
        assert_eq!(net.n_synapses(), 2);
        assert_eq!(net.out_edges(0).next(), Some((1, 0.7)));
        assert_eq!(net.out_edges(1).next(), Some((0, -0.3)));
    }

    #[test]
    fn unsorted_edges_are_sorted() {
        let p = vec![IzhParams::regular_spiking(); 3];
        let net = Network::from_edges(p, vec![(2, 0, 1.0), (0, 2, 2.0), (0, 1, 3.0)]);
        let e0: Vec<_> = net.out_edges(0).collect();
        assert_eq!(e0, vec![(1, 3.0), (2, 2.0)]);
    }

    #[test]
    fn quantized_views() {
        let net = tiny();
        let qp = net.quantized_params();
        assert_eq!(qp.len(), 3);
        let qw = net.quantized_weights();
        assert!((qw[0].to_f64() - 0.5).abs() < 1e-4);
        assert!((qw[1].to_f64() + 0.25).abs() < 1e-4);
    }
}
