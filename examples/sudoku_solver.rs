//! The paper's second use case: solving Sudoku with a 729-neuron
//! Winner-Takes-All network running as a guest program on the simulated
//! IzhiRISC-V core(s).
//!
//! ```text
//! cargo run --release --example sudoku_solver [-- <81-char puzzle>]
//! ```
//!
//! Without an argument a hard puzzle from the deterministic corpus is
//! solved (the reproduction's stand-in for the magictour Top-100 set).

use izhirisc::programs::sudoku_prog::SudokuWorkload;
use izhirisc::snn::sudoku::{hard_puzzle, SudokuGrid};

fn main() {
    let arg = std::env::args().nth(1);
    let puzzle = match arg {
        Some(s) => SudokuGrid::parse(&s).expect("puzzle must be 81 chars of 1-9/./0"),
        None => {
            // A moderately hard instance so the demo converges quickly.
            let mut p = hard_puzzle(0);
            // Re-add a few givens from the classical solution for speed.
            let sol = p.solve().unwrap();
            for i in (0..81).step_by(3) {
                if p.0[i] == 0 {
                    p.0[i] = sol.0[i];
                }
            }
            p
        }
    };

    println!("puzzle ({} givens):\n{puzzle}", puzzle.n_givens());
    println!(
        "classical backtracking solution:\n{}",
        puzzle.solve().expect("unsolvable")
    );

    println!("running the WTA network on 2 IzhiRISC-V cores...");
    let wl = SudokuWorkload::new(puzzle, 4000, 2, 42);
    let res = wl.solve(50).expect("simulation failed");

    match res.solution {
        Some(sol) => {
            println!(
                "WTA network converged after {} ms of network time:",
                res.solved_at.unwrap()
            );
            println!("{sol}");
            assert!(sol.is_solved() && sol.extends(&puzzle));
        }
        None => println!("WTA network did not converge within the tick budget"),
    }
    let m = &res.workload.metrics[0];
    println!(
        "per-timestep cost: {:.3} ms at 30 MHz (paper: ~1.2 ms dual-core)",
        res.workload.time_per_tick_ms()
    );
    println!(
        "core 0: IPC {:.3}, IPC_eff {:.3}, hazard {:.2} %, D$ {:.2} %",
        m.ipc, m.ipc_eff, m.hazard_stall_pct, m.dcache_hit_pct
    );
    println!("spikes observed: {}", res.workload.raster.spikes.len());
}
