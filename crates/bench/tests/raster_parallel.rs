//! Workload-level raster identity for the relaxed scheduler at several
//! host threads — the acceptance gate of the `RelaxedParallel` feature:
//! on the 80-20, sweep, sharded and Sudoku scenarios (built through the
//! scenario registry), `RelaxedParallel {quantum}` must produce
//! **bit-identical spike logs, cycles and instret** to `Relaxed
//! {quantum}`, the same scheduler on one host thread, at every tested
//! host-thread count, and therefore the same spike raster *as a set* as
//! the exact scheduler.
//!
//! These run in CI's test job (additionally with `IZHI_HOST_THREADS=2`
//! forced so `host_threads: 0` rows exercise the threaded path even on
//! single-CPU runners).

use izhi_programs::engine::{self, WorkloadResult};
use izhi_programs::scenario::{self, ScenarioParams};
use izhi_sim::{SchedMode, System, TimingModel};
use izhi_snn::analysis::SpikeRaster;

fn sorted(raster: &SpikeRaster) -> Vec<(u32, u32)> {
    let mut s = raster.spikes.clone();
    s.sort_unstable();
    s
}

fn run_mode(sc: &scenario::Scenario, params: &ScenarioParams, sched: SchedMode) -> WorkloadResult {
    let mut wl = sc.build(params);
    wl.cfg_mut().system.sched = sched;
    let res = wl.run().expect("scenario run");
    wl.verify(&res).expect("scenario verification");
    res
}

/// Assert the bit-identity contract between a relaxed reference run and a
/// parallel run, plus set identity against the exact raster.
fn assert_contract(
    exact: &SpikeRaster,
    relaxed: &WorkloadResult,
    parallel: &WorkloadResult,
    tag: &str,
) {
    assert_eq!(
        relaxed.raster.spikes, parallel.raster.spikes,
        "{tag}: spike-log order"
    );
    assert_eq!(relaxed.cycles, parallel.cycles, "{tag}: cycles");
    assert_eq!(relaxed.instret, parallel.instret, "{tag}: instret");
    assert_eq!(sorted(exact), sorted(&parallel.raster), "{tag}: raster set");
}

/// Exercise one scenario across timing models × quanta × host threads
/// (the parallel bit-identity contract holds per timing model).
fn scenario_contract(name: &str, params: ScenarioParams, quanta: &[u64]) {
    let sc = scenario::find(name).expect("registered scenario");
    let exact = run_mode(sc, &params, SchedMode::Exact);
    for timing in [TimingModel::Unit, TimingModel::Estimated] {
        for &quantum in quanta {
            let relaxed = run_mode(sc, &params, SchedMode::Relaxed { quantum, timing });
            for host_threads in [1u32, 2, 4] {
                let parallel = run_mode(
                    sc,
                    &params,
                    SchedMode::RelaxedParallel {
                        quantum,
                        host_threads,
                        timing,
                    },
                );
                assert_contract(
                    &exact.raster,
                    &relaxed,
                    &parallel,
                    &format!("{name} {timing:?} q={quantum} ht={host_threads}"),
                );
            }
        }
    }
}

#[test]
fn net8020_parallel_raster_identity() {
    scenario_contract(
        "net8020",
        ScenarioParams::default()
            .with_n(50)
            .with_ticks(150)
            .with_cores(2)
            .with_seed(5),
        &[7, SchedMode::DEFAULT_QUANTUM],
    );
}

#[test]
fn sweep_parallel_raster_identity() {
    scenario_contract(
        "net8020_sweep",
        ScenarioParams::default()
            .with_n(50)
            .with_ticks(150)
            .with_cores(2)
            .with_seed(5),
        &[64, SchedMode::DEFAULT_QUANTUM],
    );
}

#[test]
fn sudoku_parallel_raster_identity() {
    // One eased hard puzzle, short budget: enough ticks for a busy raster
    // without making the test slow.
    scenario_contract(
        "sudoku",
        ScenarioParams::default()
            .with_ticks(300)
            .with_cores(2)
            .with_seed(100),
        &[SchedMode::DEFAULT_QUANTUM],
    );
}

#[test]
fn sharded_parallel_raster_identity() {
    // The benchmark's host-parallel job class at quick scale: 16 guest
    // cores, one barrier per tick, so the completing arrival's release
    // runs in mid-round waves.
    let quick = scenario::find("net8020_sharded")
        .expect("registered scenario")
        .quick;
    scenario_contract(
        "net8020_sharded",
        quick,
        &[7, 64, 1000, SchedMode::DEFAULT_QUANTUM],
    );
}

#[test]
fn sharded_parallel_retires_in_waves() {
    // Everything but the deferred barrier arrivals must run in waves.
    // The split is a function of the schedule alone, so it is the same
    // at every host-thread count.
    let sc = scenario::find("net8020_sharded").expect("registered scenario");
    let mut wl = sc.build(&sc.quick);
    let mut splits = Vec::new();
    for host_threads in [1u32, 2] {
        wl.cfg_mut().system.sched = SchedMode::RelaxedParallel {
            quantum: SchedMode::DEFAULT_QUANTUM,
            host_threads,
            timing: TimingModel::Unit,
        };
        let cfg = wl.cfg();
        let prep = engine::prepare_run(cfg, wl.image());
        let mut system = cfg.system.clone();
        system.n_cores = cfg.n_cores;
        let mut sys = System::from_snapshot(system, prep.mem, prep.code, prep.entry);
        let res = engine::run_prepared_system(&mut sys, cfg, wl.max_cycles()).expect("run");
        let par = sys.parallel_stats();
        assert_eq!(par.wave_instret + par.commit_instret, res.instret);
        // One arrival per core at the start-up barrier and at each tick.
        assert_eq!(
            par.commit_instret,
            u64::from(cfg.n_cores) * (u64::from(cfg.ticks) + 1)
        );
        assert!(
            par.wave_instret * 100 >= res.instret * 95,
            "ht={host_threads}: {} of {} retired in waves",
            par.wave_instret,
            res.instret
        );
        splits.push(par);
    }
    assert_eq!(splits[0], splits[1]);
}
