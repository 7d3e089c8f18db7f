//! The Sudoku WTA workload (Table VI, Fig. 4) running on the simulated
//! IzhiRISC-V cores.
//!
//! The 729-neuron network, biases and noise are prepared host-side (as the
//! paper's host would); the guest engine runs the network with the pin bit
//! set (§V-B) and exports spikes; the host decodes sliding windows of the
//! raster into candidate grids until one is a valid solution.

use izhi_sim::SimError;
use izhi_snn::sudoku::{SudokuGrid, WtaNetwork, WtaParams};

use crate::engine::{run_workload, EngineConfig, GuestImage, Variant, WorkloadResult};

/// A prepared Sudoku guest workload: what a run, its decoding and its
/// verification read. The host WTA network is dropped once the image is
/// built.
#[derive(Debug, Clone)]
pub struct SudokuWorkload {
    /// The puzzle being solved.
    pub puzzle: SudokuGrid,
    /// Guest memory image.
    pub image: GuestImage,
    /// Engine configuration.
    pub cfg: EngineConfig,
}

/// Result of a guest Sudoku run.
#[derive(Debug, Clone)]
pub struct SudokuRunResult {
    /// Decoded solution if the network converged.
    pub solution: Option<SudokuGrid>,
    /// Tick at which the solution window ended (= ticks used).
    pub solved_at: Option<u32>,
    /// The raw workload result (metrics, raster).
    pub workload: WorkloadResult,
}

impl SudokuWorkload {
    /// Prepare a workload for `puzzle` with default WTA parameters.
    pub fn new(puzzle: SudokuGrid, ticks: u32, n_cores: u32, seed: u32) -> Self {
        Self::with_params(
            puzzle,
            WtaParams::default(),
            ticks,
            n_cores,
            seed,
            Variant::Npu,
        )
    }

    /// Full control over WTA parameters and kernel variant.
    pub fn with_params(
        puzzle: SudokuGrid,
        params: WtaParams,
        ticks: u32,
        n_cores: u32,
        seed: u32,
        variant: Variant,
    ) -> Self {
        let wta = WtaNetwork::build(&puzzle, params);
        let image = GuestImage::from_network_scheduled(
            &wta.network,
            &wta.bias,
            &wta.noise_std,
            &params.noise_schedule(),
            ticks,
            seed,
        );
        let mut cfg = EngineConfig::new(729, ticks, n_cores, variant);
        cfg.pin = true; // §V-B: pin voltage improves Sudoku convergence
        cfg.sparse = true; // 29 of 729 targets per neuron: walk CSR rows
        cfg.tau = params.tau; // the WTA search needs the long decay
        SudokuWorkload { puzzle, image, cfg }
    }

    /// Run the guest and decode the raster window by window. (Named
    /// `solve` rather than `run` so the registry's parameterless
    /// [`crate::scenario::Workload::run`] stays unambiguous.)
    pub fn solve(&self, window: u32) -> Result<SudokuRunResult, SimError> {
        let workload = run_workload(&self.cfg, &self.image, 2_000_000_000_000)?;
        let (solution, solved_at) = self.decode(&workload, window);
        Ok(SudokuRunResult {
            solution,
            solved_at,
            workload,
        })
    }

    /// Scan consecutive windows of the raster for a valid decoded grid;
    /// returns the solution and the tick its window ended at, if any.
    pub fn decode(
        &self,
        workload: &WorkloadResult,
        window: u32,
    ) -> (Option<SudokuGrid>, Option<u32>) {
        let mut counts = vec![0u32; 729];
        let mut window_end = window;
        // Spikes are per-neuron chronological; bucket them by window.
        let mut events: Vec<(u32, u32)> = workload.raster.spikes.clone();
        events.sort_unstable();
        let mut idx = 0;
        while window_end <= self.cfg.ticks {
            while idx < events.len() && events[idx].0 < window_end {
                counts[events[idx].1 as usize] += 1;
                idx += 1;
            }
            let grid = WtaNetwork::decode(&counts);
            if grid.is_solved() && grid.extends(&self.puzzle) {
                return (Some(grid), Some(window_end));
            }
            counts.iter_mut().for_each(|c| *c = 0);
            window_end += window;
        }
        (None, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn easy_puzzle() -> SudokuGrid {
        let sol = SudokuGrid::canonical_solution();
        let mut p = sol;
        for i in [2, 12, 22, 32, 42, 52, 62, 72] {
            p.0[i] = 0;
        }
        p
    }

    #[test]
    fn guest_wta_solves_easy_puzzle() {
        let wl = SudokuWorkload::new(easy_puzzle(), 3000, 1, 21);
        let res = wl.solve(50).unwrap();
        let sol = res.solution.expect("guest WTA did not converge");
        assert!(sol.is_solved());
        assert!(sol.extends(&wl.puzzle));
        assert_eq!(sol, wl.puzzle.solve().unwrap());
        assert!(res.solved_at.unwrap() <= 3000);
    }

    #[test]
    fn guest_wta_dual_core_solves_and_is_faster_per_tick() {
        let p = easy_puzzle();
        let one = SudokuWorkload::new(p, 1500, 1, 21).solve(50).unwrap();
        let two = SudokuWorkload::new(p, 1500, 2, 21).solve(50).unwrap();
        // Identical image and noise: same raster, so same convergence.
        assert_eq!(one.solution.is_some(), two.solution.is_some());
        let t1 = one.workload.time_per_tick_ms();
        let t2 = two.workload.time_per_tick_ms();
        let speedup = t1 / t2;
        assert!((1.2..=2.0).contains(&speedup), "speedup {speedup:.3}");
    }

    #[test]
    fn guest_and_host_wta_dynamics_agree() {
        // Same puzzle, same parameters: the guest engine and the host
        // FixedSimulator share the NPU/DCU arithmetic, so their activity
        // statistics must match (this guards the parameter plumbing —
        // τ/pin/bias — between the two stacks).
        use izhi_snn::simulate::FixedSimulator;
        use izhi_snn::sudoku::{WtaNetwork, WtaParams};
        let puzzle = easy_puzzle();
        let params = WtaParams::default();
        let ticks = 400;
        let wl = SudokuWorkload::with_params(puzzle, params, ticks, 1, 5, Variant::Npu);
        let guest = wl.solve(100).unwrap();
        let wta = WtaNetwork::build(&puzzle, params);
        let mut host = FixedSimulator::new(&wta.network, params.tau, 99);
        host.pin = true;
        host.bias.copy_from_slice(&wta.bias);
        host.noise_std.copy_from_slice(&wta.noise_std);
        let host_raster = host.run(ticks);
        let g = guest.workload.raster.spikes.len() as f64;
        let h = host_raster.spikes.len() as f64;
        assert!(g > 0.0 && h > 0.0, "guest {g} host {h}");
        assert!(
            (g - h).abs() / h < 0.30,
            "guest {g} vs host {h} spikes — parameter plumbing diverged?"
        );
    }

    #[test]
    fn per_timestep_cost_matches_papers_order_of_magnitude() {
        // Paper Table VI: ~2.06 ms per timestep single-core at 30 MHz.
        let wl = SudokuWorkload::new(easy_puzzle(), 200, 1, 3);
        let res = wl.solve(50).unwrap();
        let per_tick = res.workload.time_per_tick_ms();
        assert!(
            (0.2..=10.0).contains(&per_tick),
            "per-timestep {per_tick:.3} ms implausible"
        );
    }
}
