//! Side-by-side demo of the multi-core scheduling modes on registry
//! scenarios: the same dual-core workload under cycle-exact event-driven
//! interleaving and under relaxed round-robin quanta on one host thread
//! and on several, with identical spike rasters asserted and host wall
//! time printed for each.
//!
//! ```text
//! cargo run --release --example sched_modes
//! ```

use std::time::Instant;

use izhi_programs::scenario::{self, ScenarioParams};
use izhi_sim::SchedMode;

fn main() {
    println!(
        "{:<28} {:>10} {:>14} {:>12}",
        "run", "wall [s]", "sim instret", "Minstr/s"
    );

    for (scenario_name, params) in [
        (
            "net8020",
            ScenarioParams::default()
                .with_n(200)
                .with_ticks(300)
                .with_cores(2)
                .with_seed(5),
        ),
        (
            "sudoku",
            ScenarioParams::default()
                .with_ticks(2500)
                .with_cores(2)
                .with_seed(100),
        ),
    ] {
        let sc = scenario::find(scenario_name).expect("registered scenario");
        let mut sorted_rasters: Vec<Vec<(u32, u32)>> = Vec::new();
        for (label, sched) in [
            ("exact", SchedMode::Exact),
            ("relaxed", SchedMode::relaxed()),
            ("relaxed-est", SchedMode::relaxed_estimated()),
            (
                "relaxed-par2",
                SchedMode::RelaxedParallel {
                    quantum: SchedMode::DEFAULT_QUANTUM,
                    host_threads: 2,
                    timing: izhi_sim::TimingModel::Unit,
                },
            ),
        ] {
            let mut wl = sc.build(&params);
            wl.cfg_mut().system.sched = sched;
            let start = Instant::now();
            let res = wl.run().expect("scenario run");
            let wall = start.elapsed().as_secs_f64();
            wl.verify(&res).expect("scenario verification");
            println!(
                "{:<28} {:>10.3} {:>14} {:>12.1}",
                format!("{scenario_name}_2core_{label}"),
                wall,
                res.instret,
                res.instret as f64 / wall / 1e6
            );
            let mut spikes = res.raster.spikes.clone();
            spikes.sort_unstable();
            sorted_rasters.push(spikes);
        }
        for later in &sorted_rasters[1..] {
            assert_eq!(
                &sorted_rasters[0], later,
                "scheduling changed the {scenario_name} raster"
            );
        }
        println!(
            "{scenario_name} rasters identical across modes ({} spikes)",
            sorted_rasters[0].len()
        );
    }
}
