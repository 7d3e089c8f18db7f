//! Barrier-light multi-population 80-20 sweep workload.
//!
//! The coupled 80-20 workload synchronises its cores once per tick, which
//! is exactly the regime where cycle-exact multi-core interleaving is
//! expensive to simulate. Parameter sweeps have the opposite shape: each
//! core runs an *independent* 80-20 population (here: the same geometry
//! with per-core seeds, as a repetition/seed sweep), so cross-core
//! communication disappears entirely and the engine can drop the per-tick
//! barriers ([`EngineConfig::coupled`]` = false`). That makes the workload
//! the showcase for [`izhi_sim::SchedMode::Relaxed`]: long uninterrupted
//! per-core quanta with nothing to wait on but the single start-up barrier.
//!
//! Construction places population `k` in core `k`'s chunk and keeps the
//! combined weight matrix block-diagonal on the chunk boundaries, so the
//! uncoupled phase A (which only walks the core's own spike list) computes
//! the same dynamics a coupled run would: the cross-block weights it skips
//! are all zero. Tests pin that equivalence.

use izhi_snn::gen8020::Net8020;
use izhi_snn::network::Network;

use crate::engine::{EngineConfig, GuestImage, Variant, WorkloadResult};
use crate::net8020::Net8020Workload;

/// One parameter point of a sweep: the population a core simulates.
///
/// A *seed* sweep varies only `seed` per core (the paper-style repetition
/// run); a *parameter-point* sweep holds the seed fixed and walks a grid
/// through the gain knobs, so every core simulates a different point of
/// parameter space in the same guest run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Network/noise generation seed of this population.
    pub seed: u32,
    /// Multiplier on both thalamic noise amplitudes (exc and inh).
    pub noise_gain: f64,
    /// Multiplier on the excitatory weights (inhibitory stay unscaled).
    pub weight_gain: f64,
}

impl SweepPoint {
    /// The neutral point: the paper's population at the given seed.
    pub fn seeded(seed: u32) -> Self {
        SweepPoint {
            seed,
            noise_gain: 1.0,
            weight_gain: 1.0,
        }
    }
}

/// A prepared multi-population sweep workload (one 80-20 net per core):
/// what a run and its verification read. The host populations are dropped
/// once the image is built.
#[derive(Debug, Clone)]
pub struct Net8020SweepWorkload {
    /// The parameter point each core simulates, one per core, in core
    /// order.
    pub points: Vec<SweepPoint>,
    /// The combined block-diagonal guest image.
    pub image: GuestImage,
    /// Engine configuration (`coupled = false`).
    pub cfg: EngineConfig,
}

impl Net8020SweepWorkload {
    /// Build `n_cores` independent populations of `n_exc + n_inh` neurons
    /// each, seeded `seed, seed+1, …` (a repetition sweep), `ticks` 1 ms
    /// steps.
    pub fn sized(n_exc: usize, n_inh: usize, ticks: u32, n_cores: u32, seed: u32) -> Self {
        let points: Vec<SweepPoint> = (0..n_cores)
            .map(|k| SweepPoint::seeded(seed.wrapping_add(k)))
            .collect();
        Self::with_points(n_exc, n_inh, ticks, &points)
    }

    /// Build one population per entry of `points` (population `k` lands in
    /// core `k`'s chunk). This is the general constructor behind both the
    /// seed sweep and the per-core parameter-point sweep.
    pub fn with_points(n_exc: usize, n_inh: usize, ticks: u32, points: &[SweepPoint]) -> Self {
        let n_cores = points.len() as u32;
        assert!(n_cores >= 1, "a sweep needs at least one point");
        let sub_n = n_exc + n_inh;
        let mut params = Vec::with_capacity(sub_n * points.len());
        let mut edges = Vec::new();
        let mut noise_std = Vec::with_capacity(sub_n * points.len());
        for (k, point) in points.iter().enumerate() {
            // The coupled workload's population, then the point's
            // excitatory gain (excitatory rows come first).
            let mut net = Net8020Workload::population(n_exc, n_inh, point.seed);
            let exc_edges = net.network.row_ptr[n_exc] as usize;
            for w in &mut net.network.weights[..exc_edges] {
                *w *= point.weight_gain;
            }
            let base = k * sub_n;
            params.extend(net.network.params.iter().copied());
            for pre in 0..sub_n {
                for (post, w) in net.network.out_edges(pre) {
                    edges.push(((base + pre) as u32, (base + post as usize) as u32, w));
                }
            }
            noise_std.extend(
                Net8020::noise_std(n_exc, n_inh)
                    .into_iter()
                    .map(|s| point.noise_gain * s),
            );
        }
        let network = Network::from_edges(params, edges);
        let n = network.len();
        let bias = vec![0.0; n];
        let seed = points[0].seed;
        let image = GuestImage::from_network(&network, &bias, &noise_std, ticks, seed ^ 0x5EED);
        let mut cfg = EngineConfig::new(n, ticks, n_cores, Variant::Npu);
        cfg.coupled = false;
        // The block-diagonal construction is only valid when the chunk
        // boundaries coincide with the population boundaries.
        assert_eq!(cfg.chunk(), sub_n, "population does not fill its chunk");
        Net8020SweepWorkload {
            points: points.to_vec(),
            image,
            cfg,
        }
    }

    // Running lives on the `crate::scenario::Workload` trait impl; the
    // scheduling mode comes from `self.cfg.system.sched`.

    /// Spikes of population `k` only, with neuron ids rebased to the
    /// population (for per-sweep-point analysis).
    pub fn population_spikes(&self, res: &WorkloadResult, k: usize) -> Vec<(u32, u32)> {
        let sub_n = self.cfg.chunk() as u32;
        let lo = k as u32 * sub_n;
        res.raster
            .spikes
            .iter()
            .filter(|&&(_, n)| (lo..lo + sub_n).contains(&n))
            .map(|&(t, n)| (t, n - lo))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_workload;
    use crate::scenario::Workload as _;
    use izhi_sim::{SchedMode, TimingModel};

    fn sorted(res: &WorkloadResult) -> Vec<(u32, u32)> {
        let mut s = res.raster.spikes.clone();
        s.sort_unstable();
        s
    }

    #[test]
    fn sweep_populations_are_active_and_disjoint() {
        let wl = Net8020SweepWorkload::sized(40, 10, 200, 2, 9);
        let res = wl.run().unwrap();
        let a = wl.population_spikes(&res, 0);
        let b = wl.population_spikes(&res, 1);
        assert!(!a.is_empty() && !b.is_empty(), "{} / {}", a.len(), b.len());
        assert_eq!(a.len() + b.len(), res.raster.spikes.len());
        // Different seeds ⇒ different rasters.
        assert_ne!(a, b);
    }

    #[test]
    fn relaxed_matches_exact_raster() {
        let base = Net8020SweepWorkload::sized(40, 10, 200, 2, 9);
        let exact = base.run().unwrap();
        for quantum in [1u64, 4096, SchedMode::DEFAULT_QUANTUM] {
            let mut wl = base.clone();
            wl.cfg.system.sched = SchedMode::Relaxed {
                quantum,
                timing: TimingModel::Unit,
            };
            let relaxed = wl.run().unwrap();
            assert_eq!(
                sorted(&exact),
                sorted(&relaxed),
                "quantum {quantum} changed the raster"
            );
        }
    }

    #[test]
    fn relaxed_parallel_is_bit_identical_to_relaxed() {
        // The showcase workload for host-parallel scheduling: zero
        // cross-core traffic after the start-up barrier. At every tested
        // quantum and host-thread count the relaxed scheduler must
        // reproduce its one-thread (`Relaxed`) run exactly — spike log in
        // order, relaxed clock, instret — and therefore also the exact
        // run's raster as a set.
        let base = Net8020SweepWorkload::sized(40, 10, 200, 2, 9);
        let exact = base.run().unwrap();
        for quantum in [7u64, SchedMode::DEFAULT_QUANTUM] {
            let mut rel = base.clone();
            rel.cfg.system.sched = SchedMode::Relaxed {
                quantum,
                timing: TimingModel::Unit,
            };
            let relaxed = rel.run().unwrap();
            for host_threads in [1u32, 2, 4] {
                let mut par = base.clone();
                par.cfg.system.sched = SchedMode::RelaxedParallel {
                    quantum,
                    host_threads,
                    timing: TimingModel::Unit,
                };
                let parallel = par.run().unwrap();
                let tag = format!("quantum {quantum} host_threads {host_threads}");
                assert_eq!(
                    relaxed.raster.spikes, parallel.raster.spikes,
                    "{tag}: spike order"
                );
                assert_eq!(relaxed.cycles, parallel.cycles, "{tag}: cycles");
                assert_eq!(relaxed.instret, parallel.instret, "{tag}: instret");
                assert_eq!(sorted(&exact), sorted(&parallel), "{tag}: raster vs exact");
            }
        }
    }

    #[test]
    fn partitioning_does_not_change_the_dynamics() {
        // The same block-diagonal image run on one core (whole network in
        // one chunk, dense rows include the zero cross-blocks) must produce
        // the identical raster the partitioned 2-core run does.
        let wl = Net8020SweepWorkload::sized(40, 10, 150, 2, 11);
        let two = wl.run().unwrap();
        let mut cfg1 = wl.cfg.clone();
        cfg1.n_cores = 1;
        cfg1.system.n_cores = 1;
        let one = run_workload(&cfg1, &wl.image, 8_000_000_000).unwrap();
        assert_eq!(sorted(&one), sorted(&two));
    }

    /// Barrier generation after running `cfg` on the sweep image.
    fn final_generation(wl: &Net8020SweepWorkload, cfg: &EngineConfig) -> u32 {
        let mut sys_cfg = cfg.system.clone();
        sys_cfg.n_cores = cfg.n_cores;
        let prog = izhi_isa::Assembler::new()
            .assemble(&format!(
                ".equ DECAY_F32, {:#x}\n{}",
                ((1.0 - 0.5 / cfg.tau as f64) as f32).to_bits(),
                crate::engine::build_asm(cfg)
            ))
            .unwrap();
        let mut sys = izhi_sim::System::new(sys_cfg);
        assert!(sys.load_program(&prog));
        wl.image.load_into(&mut sys, cfg);
        sys.run(8_000_000_000).unwrap();
        sys.shared().dev.barrier_generation()
    }

    #[test]
    fn uncoupled_engine_barriers_once() {
        // Only the start-up barrier remains: generation 1 after the run.
        let wl = Net8020SweepWorkload::sized(40, 10, 50, 2, 3);
        assert_eq!(final_generation(&wl, &wl.cfg), 1);
    }

    #[test]
    fn coupled_engine_barriers_once_per_tick() {
        // The start-up barrier plus one per tick (`skeleton_tail`).
        let wl = Net8020SweepWorkload::sized(40, 10, 50, 2, 3);
        let mut cfg = wl.cfg.clone();
        cfg.coupled = true;
        assert_eq!(final_generation(&wl, &cfg), cfg.ticks + 1);
    }
}
