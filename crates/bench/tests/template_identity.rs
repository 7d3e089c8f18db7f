//! Template-vs-cold acceptance suite: for **every** scenario in the
//! registry — present and future — a run instantiated from its cached
//! [`izhi_programs::template::RunTemplate`] must be bit-identical
//! (raster hash, cycles, instret, weight hash) to the from-scratch cold
//! build, under every sched × timing combination the battery exercises.
//! Each cell also runs with superblocks off and, on the relaxed clocks
//! (the exact clock never batches), with kernel offload off: both tiers
//! are dispatch optimisations, so switching one off must change nothing
//! but wall time. A scenario added to the registry is picked up here
//! automatically; a template path or execution tier that drifts from the
//! cold path cannot land.

use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::{template, WorkloadResult};
use izhi_sim::{SchedMode, TimingModel};

/// The battery's five sched × timing combinations (2 forced host threads
/// on the parallel rows, so the threaded path runs even on single-CPU
/// machines).
fn modes() -> [(&'static str, SchedMode); 5] {
    [
        ("exact", SchedMode::Exact),
        ("relaxed", SchedMode::relaxed()),
        (
            "relaxed-par",
            SchedMode::RelaxedParallel {
                quantum: SchedMode::DEFAULT_QUANTUM,
                host_threads: 2,
                timing: TimingModel::Unit,
            },
        ),
        ("relaxed-est", SchedMode::relaxed_estimated()),
        (
            "relaxed-par-est",
            SchedMode::RelaxedParallel {
                quantum: SchedMode::DEFAULT_QUANTUM,
                host_threads: 2,
                timing: TimingModel::Estimated,
            },
        ),
    ]
}

fn cold_run(sc: &scenario::Scenario, params: &ScenarioParams, sched: SchedMode) -> WorkloadResult {
    let mut wl = sc.build_quick(params);
    wl.cfg_mut().system.sched = sched;
    wl.run_cold()
        .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", sc.name))
}

/// Assert a run bit-identical to the cold reference.
fn assert_same(cell: &str, cold: &WorkloadResult, res: &WorkloadResult) {
    assert_eq!(
        cold.raster_hash(),
        res.raster_hash(),
        "{cell}: raster drifted from the cold build"
    );
    assert_eq!(
        cold.cycles, res.cycles,
        "{cell}: cycles drifted from the cold build"
    );
    assert_eq!(
        cold.instret, res.instret,
        "{cell}: instret drifted from the cold build"
    );
    assert_eq!(
        cold.weight_hash, res.weight_hash,
        "{cell}: weight state drifted from the cold build"
    );
}

#[test]
fn template_instances_match_cold_runs_for_every_scenario_and_mode() {
    for sc in scenario::registry() {
        let params = ScenarioParams::default().with_seed(sc.battery_seeds[0]);
        for (label, sched) in modes() {
            let cold = cold_run(sc, &params, sched);
            let (mut inst, _) = template::instance(sc, &params, true, sched);
            let run = |inst: &template::RunInstance, cell: &str| {
                let res = inst
                    .run()
                    .unwrap_or_else(|e| panic!("{cell}: template run failed: {e}"));
                assert_same(cell, &cold, &res);
                res
            };
            let res = run(&inst, &format!("{}/{label}", sc.name));
            inst.verify(&res)
                .unwrap_or_else(|e| panic!("{}/{label}: verification failed: {e}", sc.name));
            if sched != SchedMode::Exact {
                inst.cfg_mut().system.kernels = false;
                run(&inst, &format!("{}/{label}/no-kernels", sc.name));
                inst.cfg_mut().system.kernels = true;
            }
            inst.cfg_mut().system.superblocks = false;
            run(&inst, &format!("{}/{label}/no-superblocks", sc.name));
        }
    }
}

#[test]
fn reseeded_instances_match_cold_runs_at_the_new_seed() {
    // Re-seeding an existing template rebuilds only the host-side image
    // (no re-assembly); the result must still match a cold build at that
    // seed exactly. Scenarios with one battery seed get a synthetic
    // second seed — every registry entry takes the re-seed path here.
    for sc in scenario::registry() {
        let built_seed = sc.battery_seeds[0];
        let other = sc
            .battery_seeds
            .get(1)
            .copied()
            .unwrap_or(built_seed.wrapping_add(1));
        let (tpl, _) = template::lookup(
            sc,
            ScenarioParams::default()
                .with_seed(built_seed)
                .merged(sc.quick),
        );
        let cold = cold_run(
            sc,
            &ScenarioParams::default().with_seed(other),
            SchedMode::Exact,
        );
        let res = tpl
            .instantiate(other, SchedMode::Exact)
            .run()
            .unwrap_or_else(|e| panic!("{}: re-seeded template run failed: {e}", sc.name));
        assert_eq!(
            (
                cold.raster_hash(),
                cold.cycles,
                cold.instret,
                cold.weight_hash
            ),
            (res.raster_hash(), res.cycles, res.instret, res.weight_hash),
            "{}: re-seeded template drifted from the cold build at seed {other}",
            sc.name
        );
    }
}
