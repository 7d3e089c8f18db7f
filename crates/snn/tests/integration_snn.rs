//! Integration tests across the SNN substrate: network dynamics,
//! analysis pipeline and the Sudoku machinery working together.

use izhi_core::params::IzhParams;
use izhi_snn::analysis::{band_power, IsiHistogram};
use izhi_snn::gen8020::Net8020;
use izhi_snn::network::Network;
use izhi_snn::simulate::{F64Simulator, FixedSimulator};
use izhi_snn::sudoku::{SudokuGrid, WtaNetwork, WtaParams};
use proptest::prelude::*;

/// An inhibition-dominated pair never increases the partner's rate.
#[test]
fn inhibition_lowers_rate() {
    let free = {
        let net = Network::from_edges(vec![IzhParams::regular_spiking(); 2], vec![]);
        let mut sim = F64Simulator::new(&net, 2, 5);
        sim.bias = vec![12.0, 12.0];
        let raster = sim.run(2000);
        raster.neuron_times(1).len()
    };
    let inhibited = {
        let net = Network::from_edges(vec![IzhParams::regular_spiking(); 2], vec![(0, 1, -20.0)]);
        let mut sim = F64Simulator::new(&net, 2, 5);
        sim.bias = vec![12.0, 12.0];
        let raster = sim.run(2000);
        raster.neuron_times(1).len()
    };
    assert!(
        inhibited < free,
        "inhibited neuron fired {inhibited} >= free neuron {free}"
    );
}

/// The full analysis pipeline runs on an 80-20 network and produces
/// finite, internally consistent quantities.
#[test]
fn analysis_pipeline_coherent() {
    let net = Net8020::with_size(80, 20, 11);
    let mut sim = FixedSimulator::new(&net.network, 2, 3);
    sim.noise_std = Net8020::noise_std(80, 20);
    let raster = sim.run(800);
    assert!(!raster.spikes.is_empty());

    let rate = raster.population_rate();
    assert_eq!(rate.len(), 800);
    assert_eq!(
        rate.iter().map(|&r| r as usize).sum::<usize>(),
        raster.spikes.len()
    );

    let hist = IsiHistogram::from_raster(&raster, 5, 200);
    assert!(hist.total() > 0);
    let norm: f64 = hist.normalized().iter().sum();
    assert!((norm - 1.0).abs() < 1e-9);

    let alpha = band_power(&rate, 8, 13);
    let gamma = band_power(&rate, 30, 80);
    assert!(alpha.is_finite() && gamma.is_finite());
    assert!(alpha >= 0.0 && gamma >= 0.0);
}

/// Excitatory-only and balanced networks rank as expected in total
/// activity (E-I balance suppresses runaway excitation).
#[test]
fn ei_balance_controls_activity() {
    let run = |n_exc: usize, n_inh: usize| {
        let net = Net8020::with_size(n_exc, n_inh, 4);
        let mut sim = F64Simulator::new(&net.network, 2, 9);
        sim.noise_std = Net8020::noise_std(n_exc, n_inh);
        sim.run(400).spikes.len() as f64 / net.len() as f64
    };
    let pure_exc = run(100, 0);
    let balanced = run(50, 50);
    assert!(
        pure_exc > balanced,
        "per-neuron activity: pure excitatory {pure_exc:.2} <= balanced {balanced:.2}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated puzzle is uniquely solvable and its solution
    /// extends the givens.
    #[test]
    fn generated_puzzles_well_formed(seed in 1u32..3000, givens in 24usize..50) {
        let p = SudokuGrid::generate(seed, givens);
        prop_assert!(p.is_consistent());
        prop_assert_eq!(p.count_solutions(2), 1);
        let sol = p.solve().unwrap();
        prop_assert!(sol.is_solved());
        prop_assert!(sol.extends(&p));
    }

    /// Conflict sets are symmetric: if a inhibits b, b inhibits a.
    #[test]
    fn wta_conflicts_symmetric(r in 0usize..9, c in 0usize..9, d in 1u8..=9) {
        for idx in WtaNetwork::conflict_set(r, c, d) {
            let (rr, cc, dd) = WtaNetwork::coords(idx);
            let back = WtaNetwork::conflict_set(rr, cc, dd);
            prop_assert!(
                back.contains(&WtaNetwork::neuron(r, c, d)),
                "({r},{c},{d}) -> ({rr},{cc},{dd}) not reciprocated"
            );
        }
    }

    /// WTA network construction is total over all puzzles: biases are
    /// finite, given neurons dominate their rivals.
    #[test]
    fn wta_bias_structure(seed in 1u32..500) {
        let p = SudokuGrid::generate(seed, 40);
        let wta = WtaNetwork::build(&p, WtaParams::default());
        prop_assert_eq!(wta.bias.len(), 729);
        for r in 0..9 {
            for c in 0..9 {
                let g = p.get(r, c);
                if g != 0 {
                    let winner = wta.bias[WtaNetwork::neuron(r, c, g)];
                    for d in 1..=9u8 {
                        if d != g {
                            prop_assert!(wta.bias[WtaNetwork::neuron(r, c, d)] < winner);
                        }
                    }
                }
            }
        }
    }

    /// Fixed and double simulators stay within a factor of each other on
    /// single-neuron firing counts across the parameter space. The f64 arm
    /// runs the *quantised* parameters (what the hardware actually
    /// computes), isolating the state-quantisation error; near-bifurcation
    /// parameter points are excluded (firing onset is chaotic there, and a
    /// half-LSB of state noise legitimately flips the regime).
    #[test]
    fn fixed_vs_double_single_neuron(
        a in 0.01f64..0.12,
        b in 0.15f64..0.25,
        c in -70.0f64..-50.0,
        d in 0.5f64..8.0,
        drive in 6.0f64..15.0,
    ) {
        let params = IzhParams::new(a, b, c, d).quantize().dequantize();
        let net = Network::from_edges(vec![params], vec![]);
        let mut f = F64Simulator::new(&net, 2, 1);
        f.bias[0] = drive;
        let nf = f.run(1500).spikes.len() as f64;
        let mut q = FixedSimulator::new(&net, 2, 1);
        q.bias[0] = drive;
        let nq = q.run(1500).spikes.len() as f64;
        // Skip the bifurcation neighbourhood: regimes where one arm is
        // barely firing.
        prop_assume!(nf >= 10.0 || nq >= 10.0);
        if nf < 10.0 || nq < 10.0 {
            // One arm marginal: the other must still be slow.
            prop_assert!(nf < 120.0 && nq < 120.0, "f64 {} vs fixed {}", nf, nq);
        } else {
            let ratio = (nf / nq).max(nq / nf);
            prop_assert!(ratio < 3.0, "f64 {} vs fixed {}", nf, nq);
        }
    }
}
