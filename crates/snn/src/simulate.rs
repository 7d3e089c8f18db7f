//! Host-side network simulators: double precision and bit-exact fixed
//! point.
//!
//! Both implement the same discretisation the IzhiRISC-V guest program
//! uses, so the three arms of the paper's Fig. 3 comparison differ only in
//! arithmetic:
//!
//! 1. per 1 ms tick, the synaptic current decays once through the DCU rule
//!    (`I -= I/τ · h`, h = 0.5 ms),
//! 2. spikes from the previous tick deposit their weights into the targets'
//!    synaptic currents,
//! 3. thalamic noise is drawn per neuron,
//! 4. the membrane state advances by two 0.5 ms Euler half-steps (the 1 ms
//!    paper timestep mapped onto the hardware's 0.5 ms `h`),
//! 5. a neuron "fires in tick t" when either half-step reports a spike.

use izhi_core::dcu::Dcu;
use izhi_core::nmregs::{HStep, NmRegs};
use izhi_core::npu::NpUnit;
use izhi_core::reference::decay_exact;
use izhi_fixed::{ResizeMode, Q15_16, Q7_8};

use crate::analysis::SpikeRaster;
use crate::network::Network;
use crate::noise::XorShift32;

/// Synaptic decay divisor fed to the DCU (τ selector, 1..9).
pub const DEFAULT_TAU: u32 = 2;

/// Double-precision reference simulator ("MATLAB double" arm).
#[derive(Debug, Clone)]
pub struct F64Simulator<'a> {
    net: &'a Network,
    /// Membrane potentials.
    pub v: Vec<f64>,
    /// Recovery variables.
    pub u: Vec<f64>,
    /// Persistent synaptic currents.
    pub isyn: Vec<f64>,
    fired: Vec<bool>,
    tau: f64,
    rng: XorShift32,
    /// Per-neuron thalamic noise std.
    pub noise_std: Vec<f64>,
    /// Constant per-neuron bias current.
    pub bias: Vec<f64>,
    /// Optional per-tick noise-amplitude schedule, cycled (annealing for
    /// the WTA search). Empty = constant amplitude 1.
    pub noise_schedule: Vec<f64>,
    tick: u32,
}

impl<'a> F64Simulator<'a> {
    /// Initialise at `v = c`, `u = b·c`, zero currents.
    pub fn new(net: &'a Network, tau: u32, seed: u32) -> Self {
        let n = net.len();
        let v: Vec<f64> = net.params.iter().map(|p| p.c).collect();
        let u: Vec<f64> = net.params.iter().map(|p| p.b * p.c).collect();
        F64Simulator {
            net,
            v,
            u,
            isyn: vec![0.0; n],
            fired: vec![false; n],
            tau: tau as f64,
            rng: XorShift32::new(seed),
            noise_std: vec![0.0; n],
            bias: vec![0.0; n],
            noise_schedule: Vec::new(),
            tick: 0,
        }
    }

    /// Noise amplitude multiplier for the current tick.
    fn noise_gain(&self) -> f64 {
        if self.noise_schedule.is_empty() {
            1.0
        } else {
            self.noise_schedule[self.tick as usize % self.noise_schedule.len()]
        }
    }

    /// Advance one 1 ms tick; returns the indices that fired. Allocates a
    /// fresh spike list per call — hot loops should prefer
    /// [`F64Simulator::step_into`] with a reused buffer.
    pub fn step(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        self.step_into(&mut out);
        out
    }

    /// Advance one 1 ms tick, appending the fired indices to the cleared
    /// `out` buffer (no per-tick allocation).
    pub fn step_into(&mut self, out: &mut Vec<u32>) {
        out.clear();
        let n = self.net.len();
        let gain = self.noise_gain();
        self.tick = self.tick.wrapping_add(1);
        // 1. deposit last tick's spikes (guest phase A) — raw CSR slices,
        // no per-row iterator adapters.
        for j in 0..n {
            if self.fired[j] {
                let lo = self.net.row_ptr[j] as usize;
                let hi = self.net.row_ptr[j + 1] as usize;
                for k in lo..hi {
                    self.isyn[self.net.targets[k] as usize] += self.net.weights[k];
                }
            }
        }
        // 2. decay (same call pattern as the guest's single nmdec per tick).
        for i in 0..n {
            self.isyn[i] = decay_exact(self.isyn[i], self.tau, 0.5);
        }
        // 3+4. noise and two half-steps.
        for i in 0..n {
            let drive =
                self.isyn[i] + self.bias[i] + gain * self.noise_std[i] * self.rng.next_gaussian();
            let p = self.net.params[i];
            let mut spike = false;
            for _ in 0..2 {
                let s = self.v[i] >= 30.0;
                if s {
                    self.v[i] = p.c;
                    self.u[i] += p.d;
                }
                spike |= s;
                let dv = 0.04 * self.v[i] * self.v[i] + 5.0 * self.v[i] + 140.0 - self.u[i] + drive;
                let du = p.a * (p.b * self.v[i] - self.u[i]);
                self.v[i] += 0.5 * dv;
                self.u[i] += 0.5 * du;
            }
            self.fired[i] = spike;
            if spike {
                out.push(i as u32);
            }
        }
    }

    /// Run `ms` ticks, collecting a raster (one spike buffer reused across
    /// all ticks).
    pub fn run(&mut self, ms: u32) -> SpikeRaster {
        let mut raster = SpikeRaster::new(self.net.len() as u32, ms);
        let mut fired = Vec::new();
        for t in 0..ms {
            self.step_into(&mut fired);
            for &i in &fired {
                raster.push(t, i);
            }
        }
        raster
    }
}

/// Bit-exact fixed-point simulator sharing the NPU/DCU datapaths
/// ("MATLAB fixed" arm; identical arithmetic to the IzhiRISC-V guest).
#[derive(Debug, Clone)]
pub struct FixedSimulator<'a> {
    net: &'a Network,
    regs: Vec<NmRegs>,
    /// Membrane potentials (Q7.8).
    pub v: Vec<Q7_8>,
    /// Recovery variables (Q7.8).
    pub u: Vec<Q7_8>,
    /// Persistent synaptic currents (Q15.16).
    pub isyn: Vec<Q15_16>,
    qweights: Vec<Q15_16>,
    fired: Vec<bool>,
    tau: u32,
    rng: XorShift32,
    /// Per-neuron thalamic noise std (applied in f64, then quantised).
    pub noise_std: Vec<f64>,
    /// Constant per-neuron bias current (quantised per use).
    pub bias: Vec<f64>,
    /// Pin-voltage bit (the Sudoku solver needs it, §V-B).
    pub pin: bool,
    /// Optional per-tick noise-amplitude schedule, cycled. Empty = 1.
    pub noise_schedule: Vec<f64>,
    tick: u32,
}

impl<'a> FixedSimulator<'a> {
    /// Initialise with quantised parameters and weights.
    pub fn new(net: &'a Network, tau: u32, seed: u32) -> Self {
        let n = net.len();
        let mut regs = Vec::with_capacity(n);
        for p in &net.params {
            let mut r = NmRegs::default();
            r.load_params(p);
            r.set_h(HStep::Half);
            regs.push(r);
        }
        let v: Vec<Q7_8> = net.params.iter().map(|p| Q7_8::from_f64(p.c)).collect();
        let u: Vec<Q7_8> = net
            .params
            .iter()
            .map(|p| Q7_8::from_f64(p.b * p.c))
            .collect();
        FixedSimulator {
            net,
            regs,
            v,
            u,
            isyn: vec![Q15_16::ZERO; n],
            qweights: net.quantized_weights(),
            fired: vec![false; n],
            tau,
            rng: XorShift32::new(seed),
            noise_std: vec![0.0; n],
            bias: vec![0.0; n],
            pin: false,
            noise_schedule: Vec::new(),
            tick: 0,
        }
    }

    /// Noise amplitude multiplier for the current tick.
    fn noise_gain(&self) -> f64 {
        if self.noise_schedule.is_empty() {
            1.0
        } else {
            self.noise_schedule[self.tick as usize % self.noise_schedule.len()]
        }
    }

    /// Advance one 1 ms tick; returns the indices that fired. Allocates a
    /// fresh spike list per call — hot loops should prefer
    /// [`FixedSimulator::step_into`] with a reused buffer.
    pub fn step(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        self.step_into(&mut out);
        out
    }

    /// Advance one 1 ms tick, appending the fired indices to the cleared
    /// `out` buffer (no per-tick allocation).
    pub fn step_into(&mut self, out: &mut Vec<u32>) {
        out.clear();
        let n = self.net.len();
        let gain = self.noise_gain();
        self.tick = self.tick.wrapping_add(1);
        for j in 0..n {
            if self.fired[j] {
                let lo = self.net.row_ptr[j] as usize;
                let hi = self.net.row_ptr[j + 1] as usize;
                for k in lo..hi {
                    let t = self.net.targets[k] as usize;
                    self.isyn[t] = self.isyn[t].saturating_add(self.qweights[k]);
                }
            }
        }
        for i in 0..n {
            self.isyn[i] = Dcu::decay(&self.regs[i], self.isyn[i], self.tau);
        }
        for i in 0..n {
            let noise = self.bias[i] + gain * self.noise_std[i] * self.rng.next_gaussian();
            let drive = self.isyn[i]
                .widen()
                .add(izhi_fixed::Wide::from_f64(noise, 16))
                .to_q15_16(ResizeMode::RoundSaturate);
            let mut regs = self.regs[i];
            regs.set_pin(self.pin);
            let mut spike = false;
            for _ in 0..2 {
                let (v2, u2, s) = NpUnit::update_parts(&regs, self.v[i], self.u[i], drive);
                self.v[i] = v2;
                self.u[i] = u2;
                spike |= s;
            }
            self.fired[i] = spike;
            if spike {
                out.push(i as u32);
            }
        }
    }

    /// Run `ms` ticks, collecting a raster (one spike buffer reused across
    /// all ticks).
    pub fn run(&mut self, ms: u32) -> SpikeRaster {
        let mut raster = SpikeRaster::new(self.net.len() as u32, ms);
        let mut fired = Vec::new();
        for t in 0..ms {
            self.step_into(&mut fired);
            for &i in &fired {
                raster.push(t, i);
            }
        }
        raster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen8020::Net8020;
    use izhi_core::params::IzhParams;

    fn single_neuron_net() -> Network {
        Network::from_edges(vec![IzhParams::regular_spiking()], vec![])
    }

    #[test]
    fn f64_tonic_firing_with_bias() {
        let net = single_neuron_net();
        let mut sim = F64Simulator::new(&net, DEFAULT_TAU, 1);
        sim.bias[0] = 10.0;
        let raster = sim.run(1000);
        let count = raster.spikes.len();
        assert!((2..=100).contains(&count), "spikes = {count}");
    }

    #[test]
    fn fixed_tonic_firing_with_bias() {
        let net = single_neuron_net();
        let mut sim = FixedSimulator::new(&net, DEFAULT_TAU, 1);
        sim.bias[0] = 10.0;
        let raster = sim.run(1000);
        let count = raster.spikes.len();
        assert!((2..=100).contains(&count), "spikes = {count}");
    }

    #[test]
    fn fixed_and_f64_rates_agree_on_deterministic_input() {
        let net = single_neuron_net();
        let mut a = F64Simulator::new(&net, DEFAULT_TAU, 1);
        a.bias[0] = 12.0;
        let ra = a.run(2000).spikes.len() as f64;
        let mut b = FixedSimulator::new(&net, DEFAULT_TAU, 1);
        b.bias[0] = 12.0;
        let rb = b.run(2000).spikes.len() as f64;
        assert!(ra > 0.0 && rb > 0.0);
        assert!((ra - rb).abs() / ra < 0.25, "f64 {ra} vs fixed {rb}");
    }

    #[test]
    fn synapses_propagate_spikes() {
        // Neuron 0 driven hard; neuron 1 only via a strong synapse from 0.
        let net = Network::from_edges(
            vec![IzhParams::regular_spiking(), IzhParams::regular_spiking()],
            vec![(0, 1, 25.0)],
        );
        let mut sim = F64Simulator::new(&net, DEFAULT_TAU, 1);
        sim.bias[0] = 15.0;
        let raster = sim.run(2000);
        let n1: Vec<_> = raster.spikes.iter().filter(|&&(_, n)| n == 1).collect();
        assert!(!n1.is_empty(), "postsynaptic neuron never fired");
        let n0_first = raster.spikes.iter().find(|&&(_, n)| n == 0).unwrap().0;
        assert!(n1[0].0 > n0_first, "effect precedes cause");
    }

    #[test]
    fn no_input_silence() {
        let net8020 = Net8020::with_size(40, 10, 3);
        let mut sim = F64Simulator::new(&net8020.network, DEFAULT_TAU, 1);
        let raster = sim.run(300);
        assert!(
            raster.spikes.is_empty(),
            "network with no drive must stay silent"
        );
    }

    #[test]
    fn small_8020_network_is_active_with_noise() {
        let net8020 = Net8020::with_size(80, 20, 3);
        let mut sim = F64Simulator::new(&net8020.network, DEFAULT_TAU, 1);
        sim.noise_std = Net8020::noise_std(80, 20);
        let raster = sim.run(500);
        // Noisy drive makes a visible fraction of the population fire.
        assert!(
            raster.spikes.len() > 100,
            "only {} spikes",
            raster.spikes.len()
        );
        let mean_rate = raster.spikes.len() as f64 / 0.5 / 100.0; // Hz/neuron
        assert!(mean_rate < 100.0, "implausibly fast: {mean_rate} Hz");
    }

    #[test]
    fn fixed_sim_deterministic() {
        let net8020 = Net8020::with_size(40, 10, 3);
        let run = || {
            let mut sim = FixedSimulator::new(&net8020.network, DEFAULT_TAU, 9);
            for i in 0..50 {
                sim.noise_std[i] = 5.0;
            }
            sim.run(200).spikes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pin_flag_clamps_fixed_sim() {
        let net = single_neuron_net();
        let mut sim = FixedSimulator::new(&net, DEFAULT_TAU, 1);
        sim.pin = true;
        sim.bias[0] = -80.0; // strong hyperpolarising drive
        sim.run(100);
        let c = Q7_8::from_f64(-65.0);
        assert!(sim.v[0] >= c, "v = {} fell below c with pin set", sim.v[0]);
    }
}
