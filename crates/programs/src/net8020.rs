//! The 80-20 cortical-network workload (Table V, Figs. 2-3), plus its
//! scale-out descendants: the CSR-native sharded population, the STDP
//! (plastic) variant and the stimulus-streamed variant.

use izhi_sim::StimPlan;
use izhi_snn::gen8020::Net8020;
use izhi_snn::network::Network;
use izhi_snn::noise::XorShift32;

use crate::engine::{beside_noise, EngineConfig, GuestImage, Variant};
use crate::layout;

/// A prepared 80-20 guest workload.
#[derive(Debug, Clone)]
pub struct Net8020Workload {
    /// The generated network (host view).
    pub net: Net8020,
    /// The guest memory image.
    pub image: GuestImage,
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// Commutative hash of the initial weight table — `Some` for plastic
    /// (STDP) builds; [`Workload::verify`](crate::scenario::Workload)
    /// demands the run's final hash exists and differs from it.
    pub initial_weight_hash: Option<u64>,
    /// Streaming build: all drive comes from injected stimulus, so the
    /// wide cortical-rate verification band does not apply.
    pub stream: bool,
}

impl Net8020Workload {
    /// The paper's configuration: 1000 neurons, `ticks` 1 ms steps.
    pub fn standard(ticks: u32, n_cores: u32, seed: u32) -> Self {
        Self::sized(800, 200, ticks, n_cores, seed, Variant::Npu)
    }

    /// Arbitrary population sizes / variant (for tests and ablations).
    pub fn sized(
        n_exc: usize,
        n_inh: usize,
        ticks: u32,
        n_cores: u32,
        seed: u32,
        variant: Variant,
    ) -> Self {
        let cfg = EngineConfig::new(n_exc + n_inh, ticks, n_cores, variant);
        Self::build(n_exc, n_inh, cfg, seed, || {
            Net8020::with_size(n_exc, n_inh, seed)
        })
    }

    /// A *pruned* 80-20 population on the sparse CSR phase-A walk: each
    /// presynaptic row keeps only its `density` fraction of largest-
    /// magnitude weights, boosted so the row's total delivered charge is
    /// preserved (the population dynamics stay in the dense network's
    /// regime). Pruning is what makes populations beyond the dense
    /// `WEIGHTS` window practical: phase A walks per-core CSR rows, so
    /// the per-tick scatter cost scales with `density * n` instead of
    /// `n`.
    pub fn sized_sparse(
        n_exc: usize,
        n_inh: usize,
        ticks: u32,
        n_cores: u32,
        seed: u32,
        density: f64,
    ) -> Self {
        let mut cfg = EngineConfig::new(n_exc + n_inh, ticks, n_cores, Variant::Npu);
        cfg.sparse = true;
        Self::build(n_exc, n_inh, cfg, seed, || {
            let mut net = Net8020::with_size(n_exc, n_inh, seed);
            let n = net.len();
            let keep = Net8020::sparse_row_len(n, density);
            let mut edges = Vec::with_capacity(keep * n);
            for pre in 0..n {
                let mut row: Vec<(u32, f64)> = net.network.out_edges(pre).collect();
                row.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
                let total: f64 = row.iter().map(|&(_, w)| w).sum();
                row.truncate(keep);
                let kept: f64 = row.iter().map(|&(_, w)| w).sum();
                let boost = if kept.abs() > 1e-12 {
                    total / kept
                } else {
                    1.0
                };
                edges.extend(
                    row.into_iter()
                        .map(|(post, w)| (pre as u32, post, w * boost)),
                );
            }
            net.network = Network::from_edges(std::mem::take(&mut net.network.params), edges);
            net
        })
    }

    /// The dense-image build: `draw` generates the `n_exc + n_inh`
    /// population, which is charge-normalised and quantised while its
    /// thalamic noise table is drawn beside it.
    fn build(
        n_exc: usize,
        n_inh: usize,
        cfg: EngineConfig,
        seed: u32,
        draw: impl FnOnce() -> Net8020,
    ) -> Self {
        let n = cfg.n;
        let ticks = cfg.ticks;
        let rows = layout::noise_period(n, ticks) as usize;
        let ((net, mut image), noise_q) = beside_noise(
            &vec![0.0; n],
            &Net8020::noise_std(n_exc, n_inh),
            &[],
            rows,
            seed ^ 0xABCD,
            || {
                let mut net = draw();
                normalise_charge(&mut net);
                let image = GuestImage::quantised(&net.network, ticks);
                (net, image)
            },
        );
        image.noise_q = noise_q;
        Net8020Workload {
            net,
            image,
            cfg,
            initial_weight_hash: None,
            stream: false,
        }
    }

    /// The scale-out build: a directly-generated sparse 80-20 population
    /// sharded across `n_cores` guest cores (one contiguous neuron chunk
    /// per core, spike exchange through the per-tick barrier). CSR-native
    /// end to end — no dense matrix exists host- or guest-side, which is
    /// what lets this cross the standard memory map's 4096-neuron /
    /// 8-core bounds onto the scaled map.
    pub fn sharded(
        n_exc: usize,
        n_inh: usize,
        density: f64,
        ticks: u32,
        n_cores: u32,
        seed: u32,
    ) -> Self {
        let cfg = EngineConfig::new(n_exc + n_inh, ticks, n_cores, Variant::Npu);
        Self::build_csr(n_exc, n_inh, density, cfg, seed, true)
    }

    /// The plastic (STDP) build: the sharded population with the engine's
    /// delivery-time nearest-neighbour plasticity switched on. Records the
    /// initial weight hash so verification can prove the weights evolved.
    pub fn stdp(
        n_exc: usize,
        n_inh: usize,
        density: f64,
        ticks: u32,
        n_cores: u32,
        seed: u32,
    ) -> Self {
        let mut cfg = EngineConfig::new(n_exc + n_inh, ticks, n_cores, Variant::Npu);
        cfg.plastic = true;
        let mut wl = Self::build_csr(n_exc, n_inh, density, cfg, seed, true);
        wl.initial_weight_hash = Some(wl.image.initial_weight_hash());
        wl
    }

    /// The streaming build: no thalamic noise, no bias — every bit of
    /// drive arrives through the MMIO stimulus port, `stim_rate` injected
    /// events per tick drawn deterministically from the seed. One engine
    /// template serves every seed: the drain code is shape (`cfg.stim`),
    /// the schedule is seed data (`cfg.system.stim`).
    pub fn stream(
        n_exc: usize,
        n_inh: usize,
        density: f64,
        ticks: u32,
        n_cores: u32,
        seed: u32,
        stim_rate: u32,
    ) -> Self {
        let n = n_exc + n_inh;
        let mut cfg = EngineConfig::new(n, ticks, n_cores, Variant::Npu);
        cfg.stim = true;
        let mut wl = Self::build_csr(n_exc, n_inh, density, cfg, seed, false);
        wl.stream = true;
        let chunk = wl.cfg.chunk() as u32;
        let mut rng = XorShift32::new(seed ^ 0x57D1);
        let mut plan = StimPlan::none();
        for t in 0..ticks {
            for _ in 0..stim_rate {
                let neuron = rng.next_u32() % n as u32;
                plan = plan.with(t, neuron / chunk, neuron);
            }
        }
        wl.cfg.system.stim = plan;
        wl
    }

    /// The CSR-native build of a [`Net8020::sparse_random`] population
    /// under `cfg`: the population is drawn, charge-normalised and
    /// quantised while its thalamic noise table is drawn beside it. A
    /// build without the `thalamic` channel gets an all-zero table
    /// (`0 + 1·0·g` is ±0 for every finite Gaussian `g`), so it draws no
    /// Gaussians at all.
    fn build_csr(
        n_exc: usize,
        n_inh: usize,
        density: f64,
        mut cfg: EngineConfig,
        seed: u32,
        thalamic: bool,
    ) -> Self {
        cfg.sparse = true;
        let n = cfg.n;
        let ticks = cfg.ticks;
        let rows = cfg.layout().noise_rows(n, ticks) as usize;
        let draw = || {
            let mut net = Net8020::sparse_random(n_exc, n_inh, density, seed);
            normalise_charge(&mut net);
            let image = GuestImage::quantised_csr(&net.network, ticks);
            (net, image)
        };
        let ((net, mut image), noise_q) = if thalamic {
            beside_noise(
                &vec![0.0; n],
                &Net8020::noise_std(n_exc, n_inh),
                &[],
                rows,
                seed ^ 0xABCD,
                draw,
            )
        } else {
            (draw(), vec![0; rows * n])
        };
        image.noise_q = noise_q;
        cfg.fit_memory(net.network.n_synapses());
        Net8020Workload {
            net,
            image,
            cfg,
            initial_weight_hash: None,
            stream: false,
        }
    }

    // Running lives on the `crate::scenario::Workload` trait impl (the
    // registry's single definition of "run this under the configured
    // scheduling mode"); no inherent duplicate here.
}

/// Charge normalisation: Izhikevich's script delivers each weight for
/// exactly one tick, while the IzhiRISC-V system integrates a
/// *persistent* current with DCU decay (retention r = 1 - h/τ = 0.75 at
/// τ = 2). Scaling weights by (1 - r) makes the total delivered charge
/// per spike match the original network, so the population dynamics stay
/// in the paper's regime.
fn normalise_charge(net: &mut Net8020) {
    for w in &mut net.network.weights {
        *w *= 0.25;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload as _;
    use izhi_snn::analysis::IsiHistogram;
    use izhi_snn::simulate::{F64Simulator, FixedSimulator};

    #[test]
    fn small_8020_runs_and_spikes() {
        let wl = Net8020Workload::sized(80, 20, 300, 1, 5, Variant::Npu);
        let res = wl.run().unwrap();
        assert!(
            res.raster.spikes.len() > 50,
            "only {} spikes",
            res.raster.spikes.len()
        );
        // Mean rate in a plausible cortical range.
        let rate = res.raster.mean_rate_hz();
        assert!((0.5..=200.0).contains(&rate), "rate = {rate} Hz");
    }

    #[test]
    fn guest_and_host_simulators_agree_statistically() {
        // Same network; independent noise streams -> compare rates & ISIs.
        let wl = Net8020Workload::sized(80, 20, 600, 1, 5, Variant::Npu);
        let res = wl.run().unwrap();

        let mut host = FixedSimulator::new(&wl.net.network, 2, 999);
        for i in 0..wl.net.len() {
            host.noise_std[i] = if wl.net.is_excitatory(i) {
                wl.net.exc_noise
            } else {
                wl.net.inh_noise
            };
        }
        let host_raster = host.run(600);

        let mut f64_host = F64Simulator::new(&wl.net.network, 2, 777);
        for i in 0..wl.net.len() {
            f64_host.noise_std[i] = if wl.net.is_excitatory(i) {
                wl.net.exc_noise
            } else {
                wl.net.inh_noise
            };
        }
        let f64_raster = f64_host.run(600);

        let rg = res.raster.mean_rate_hz();
        let rh = host_raster.mean_rate_hz();
        let rf = f64_raster.mean_rate_hz();
        assert!(rg > 0.0 && rh > 0.0 && rf > 0.0);
        assert!((rg - rh).abs() / rh < 0.35, "guest {rg} vs fixed-host {rh}");
        assert!((rg - rf).abs() / rf < 0.45, "guest {rg} vs f64-host {rf}");

        // Fig. 3 criterion: ISI histogram shapes agree.
        let hg = IsiHistogram::from_raster(&res.raster, 10, 300);
        let hh = IsiHistogram::from_raster(&host_raster, 10, 300);
        let hf = IsiHistogram::from_raster(&f64_raster, 10, 300);
        assert!(
            hg.similarity(&hh) > 0.6,
            "guest/fixed = {}",
            hg.similarity(&hh)
        );
        assert!(
            hg.similarity(&hf) > 0.5,
            "guest/f64 = {}",
            hg.similarity(&hf)
        );
    }

    #[test]
    fn relaxed_scheduling_preserves_the_raster() {
        // Barrier-coupled phases: the relaxed scheduler's blocking barrier
        // keeps the tick phases ordered, so the spike raster must be the
        // exact run's raster (order within a tick may differ).
        let exact = Net8020Workload::sized(80, 20, 200, 2, 5, Variant::Npu)
            .run()
            .unwrap();
        let mut wl = Net8020Workload::sized(80, 20, 200, 2, 5, Variant::Npu);
        wl.cfg.system.sched = izhi_sim::SchedMode::relaxed();
        let relaxed = wl.run().unwrap();
        let mut a = exact.raster.spikes.clone();
        let mut b = relaxed.raster.spikes.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn dual_core_speedup_in_expected_band() {
        let one = Net8020Workload::sized(80, 20, 150, 1, 5, Variant::Npu)
            .run()
            .unwrap();
        let two = Net8020Workload::sized(80, 20, 150, 2, 5, Variant::Npu)
            .run()
            .unwrap();
        let speedup = one.exec_time_s() / two.exec_time_s();
        // Paper: 1.643x on the full network.
        assert!((1.2..=2.0).contains(&speedup), "speedup {speedup:.3}");
    }
}
