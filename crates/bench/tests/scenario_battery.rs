//! The scenario-battery acceptance suite: **every** scenario in the
//! registry — present and future — must be deterministic and
//! raster-identical across `Exact`, `Relaxed` and `RelaxedParallel`,
//! under both relaxed clocks (`Unit` and `Estimated` timing), at
//! host_threads {1, 2}, and its estimated clock must stay within the
//! accuracy band of the exact one. A scenario added to the registry is
//! picked up here automatically; one that breaks the cross-mode contract
//! cannot land.

use std::ops::RangeInclusive;

use izhi_bench::battery::{self, BatteryRunner, BatterySpec, SchedSpec};
use izhi_bench::json::{self, Value};
use izhi_programs::scenario::{self, ScenarioParams};
use izhi_sim::{CostTable, OpClass, SchedMode, TimingModel};

/// Estimated-vs-exact simulated cycles: generous until the cost table is
/// calibrated.
const ACCURACY_BAND: RangeInclusive<f64> = 0.5..=2.0;

/// The one scenario outside [`ACCURACY_BAND`], until the relaxed clock
/// charges barrier waits: on the 16-core sharded net the exact clock is
/// mostly simulated barrier spin-wait, which the relaxed schedulers
/// deschedule. Its ratio must stay within [`BAND_EXCEPTION_FACTOR`]× of
/// the committed one (`BENCH_9.json`'s `estimated_accuracy`).
const BAND_EXCEPTION: (&str, f64) = ("net8020_sharded", 0.24);
/// See [`BAND_EXCEPTION`].
const BAND_EXCEPTION_FACTOR: f64 = 2.0;

fn run_quick(sc: &scenario::Scenario, sched: SchedMode) -> izhi_programs::WorkloadResult {
    let mut wl = sc.build_quick(&ScenarioParams::default());
    wl.cfg_mut().system.sched = sched;
    let res = wl
        .run()
        .unwrap_or_else(|e| panic!("{}: run failed: {e}", sc.name));
    wl.verify(&res)
        .unwrap_or_else(|e| panic!("{}: verification failed: {e}", sc.name));
    res
}

#[test]
fn every_scenario_is_deterministic_and_sched_identical() {
    for sc in scenario::registry() {
        // Determinism across independent builds of the same scenario.
        let exact = run_quick(sc, SchedMode::Exact);
        let again = run_quick(sc, SchedMode::Exact);
        assert_eq!(
            exact.raster.spikes, again.raster.spikes,
            "{}: exact rebuild changed the spike log",
            sc.name
        );
        assert_eq!(exact.cycles, again.cycles, "{}: cycles drift", sc.name);

        // Relaxed must reproduce the exact physics (raster as a set).
        let relaxed = run_quick(sc, SchedMode::relaxed());
        assert_eq!(
            exact.raster_hash(),
            relaxed.raster_hash(),
            "{}: relaxed scheduling changed the raster",
            sc.name
        );

        // Estimated timing must reproduce the same physics (it only
        // changes the clock), be deterministic, and actually charge more
        // than one cycle per instruction on these load/branch-heavy
        // guests — otherwise it silently degenerated to Unit.
        let est = run_quick(sc, SchedMode::relaxed_estimated());
        assert_eq!(
            exact.raster_hash(),
            est.raster_hash(),
            "{}: estimated timing changed the raster",
            sc.name
        );
        let est_again = run_quick(sc, SchedMode::relaxed_estimated());
        assert_eq!(
            est.raster.spikes, est_again.raster.spikes,
            "{}: estimated rebuild changed the spike log",
            sc.name
        );
        assert_eq!(
            est.cycles, est_again.cycles,
            "{}: est cycles drift",
            sc.name
        );
        assert_eq!(est.instret, relaxed.instret, "{}: instret drift", sc.name);
        // Each core retires the same instructions under both relaxed
        // clocks, and the estimated table charges loads/branches/NPU ops
        // more than one cycle — so the estimated clock must run ahead of
        // the unit clock (`cycles` is the slowest core, so > survives the
        // per-core comparison).
        assert!(
            est.cycles > relaxed.cycles,
            "{}: estimated clock degenerated to unit ({} <= {})",
            sc.name,
            est.cycles,
            relaxed.cycles
        );
        // The estimated clock tracks the exact one: the ratio of their
        // simulated cycles lies in the band, or near the committed ratio
        // for the one scenario that sits outside it.
        let ratio = est.cycles as f64 / exact.cycles as f64;
        let band = match BAND_EXCEPTION {
            (name, committed) if name == sc.name => {
                committed / BAND_EXCEPTION_FACTOR..=committed * BAND_EXCEPTION_FACTOR
            }
            _ => ACCURACY_BAND,
        };
        assert!(
            band.contains(&ratio),
            "{}: estimated/exact cycles {ratio:.3} outside {band:?}",
            sc.name
        );

        // The relaxed scheduler must be bit-identical at every
        // host-thread count to its one-thread run — per timing model.
        for (timing, reference) in [
            (TimingModel::Unit, &relaxed),
            (TimingModel::Estimated, &est),
        ] {
            for host_threads in [1u32, 2] {
                let parallel = run_quick(
                    sc,
                    SchedMode::RelaxedParallel {
                        quantum: SchedMode::DEFAULT_QUANTUM,
                        host_threads,
                        timing,
                    },
                );
                assert_eq!(
                    reference.raster.spikes, parallel.raster.spikes,
                    "{}: {timing:?} ht={host_threads} spike-log order",
                    sc.name
                );
                assert_eq!(
                    reference.cycles, parallel.cycles,
                    "{}: {timing:?} ht={host_threads} cycles",
                    sc.name
                );
                assert_eq!(
                    reference.instret, parallel.instret,
                    "{}: {timing:?} ht={host_threads} instret",
                    sc.name
                );
            }
        }
    }
}

/// A relaxed clock charges each retired op its class's cost and nothing
/// else, in every tier — single step, superblock, generic and native
/// kernel, and the relaxed scheduler's commit pass. So each core's ROI cycles
/// are the cost table applied to its ROI op-class histogram (every cost
/// is 1 on the Unit clock).
#[test]
fn relaxed_clocks_charge_the_cost_table() {
    for sc in scenario::registry() {
        for timing in [TimingModel::Unit, TimingModel::Estimated] {
            let cost = |class| match timing {
                TimingModel::Unit => 1,
                TimingModel::Estimated => CostTable::DEFAULT.cost(class),
            };
            for sched in [
                SchedMode::Relaxed {
                    quantum: SchedMode::DEFAULT_QUANTUM,
                    timing,
                },
                SchedMode::RelaxedParallel {
                    quantum: SchedMode::DEFAULT_QUANTUM,
                    host_threads: 2,
                    timing,
                },
            ] {
                let res = run_quick(sc, sched);
                for (core, c) in res.counters.iter().enumerate() {
                    let charged: u64 = OpClass::ALL
                        .iter()
                        .zip(c.op_classes())
                        .map(|(&class, n)| cost(class) * n)
                        .sum();
                    assert_eq!(
                        c.cycles, charged,
                        "{}: {sched:?} core {core}: cycles are not the table's charge",
                        sc.name
                    );
                }
            }
        }
    }
}

#[test]
fn stdp_battery_pins_the_golden_weight_hashes() {
    let sc = scenario::find("net8020_stdp").expect("registered");
    let rows = BatteryRunner { host_threads: 2 }
        .run(&[BatterySpec::quick(sc, 2)])
        .expect("battery run");
    battery::check_rows(&rows).expect("battery identity/verification");
    // Golden final-weight-state hashes at the quick shape (n=160,
    // ticks=150, cores=2, density 0.1). Every scheduling mode must land
    // on these exact values; an engine change that alters how STDP
    // evolves the weights must be deliberate enough to re-pin them.
    let golden = [(21u32, 0x281401fe0c8b5c8b_u64), (22, 0x6dc8e5ac94680514)];
    assert_eq!(rows.len(), golden.len() * 5, "seeds x sched modes");
    for row in &rows {
        let expect = golden
            .iter()
            .find(|(s, _)| *s == row.seed)
            .expect("battery seed")
            .1;
        assert_eq!(
            row.weight_hash,
            Some(expect),
            "{}: final weight state drifted from the pinned hash",
            row.key()
        );
    }
}

#[test]
fn sharded_battery_crosses_the_standard_map() {
    // The scale-out acceptance shape: the sharded quick battery runs at
    // >= 8 guest cores (16, on the scaled memory map) and still holds
    // cross-mode raster identity.
    let sc = scenario::find("net8020_sharded").expect("registered");
    let wl = sc.build_quick(&ScenarioParams::default());
    assert!(
        wl.cfg().n_cores >= 8,
        "sharded quick shape must use >= 8 guest cores, got {}",
        wl.cfg().n_cores
    );
    let rows = BatteryRunner { host_threads: 2 }
        .run(&[BatterySpec {
            seeds: vec![sc.battery_seeds[0]],
            ..BatterySpec::quick(sc, 2)
        }])
        .expect("battery run");
    battery::check_rows(&rows).expect("battery identity/verification");
    for row in &rows {
        assert!(
            row.weight_hash.is_none(),
            "{}: not a plastic run",
            row.key()
        );
    }
}

#[test]
fn battery_runner_shards_the_registry_and_checks_identity() {
    // One seed per scenario keeps the suite quick; the runner itself
    // fans (scenario, seed, sched) rows across 2 host worker threads.
    let specs: Vec<BatterySpec> = scenario::registry()
        .iter()
        .map(|s| BatterySpec {
            seeds: vec![s.battery_seeds[0]],
            ..BatterySpec::quick(s, 2)
        })
        .collect();
    let rows = BatteryRunner { host_threads: 2 }
        .run(&specs)
        .expect("battery run");
    assert_eq!(
        rows.len(),
        scenario::registry().len() * 5,
        "one row per scenario x (sched x timing) combination"
    );
    battery::check_rows(&rows).expect("battery identity/verification");
    // Row order is the deterministic work-list order, not completion
    // order: scenario-major, then seed, then sched x timing.
    let labels: Vec<_> = rows.iter().take(5).map(|r| r.sched).collect();
    assert_eq!(
        labels,
        [
            "exact",
            "relaxed",
            "relaxed-par",
            "relaxed-est",
            "relaxed-par-est"
        ]
    );
    let timings: Vec<_> = rows.iter().take(5).map(|r| r.timing).collect();
    assert_eq!(timings, ["exact", "unit", "unit", "estimated", "estimated"]);
}

#[test]
fn battery_keys_are_the_committed_baseline_keys() {
    // Registry x battery seeds x the default mode set, keyed like
    // `BatteryRow::key`, is exactly the key set of the committed
    // baseline's battery rows: no scenario, seed or mode can drop out of
    // the battery (which CI's battery job runs in full) unnoticed.
    let mut keys = Vec::new();
    for sc in scenario::registry() {
        for seed in sc.battery_seeds {
            for spec in SchedSpec::default_set(2) {
                keys.push(format!("{}:{seed}:{}", sc.name, spec.label));
            }
        }
    }
    let bench9 = json::parse(include_str!("../../../BENCH_9.json")).expect("BENCH_9.json parses");
    let Some(Value::Array(rows)) = bench9.get("battery") else {
        panic!("BENCH_9.json has no battery rows");
    };
    let mut committed: Vec<&str> = rows
        .iter()
        .map(|r| r.get("key").and_then(Value::as_str).expect("keyed row"))
        .collect();
    keys.sort_unstable();
    committed.sort_unstable();
    assert_eq!(committed.len(), 110);
    assert_eq!(keys, committed);
}

/// Assembler relaxation soundness, swept over **every** registry
/// scenario: the relaxed build must produce the identical spike raster
/// and final weight state while retiring strictly fewer instructions.
/// The per-scenario reduction floors (per-mille of the unrelaxed
/// instret) pin the measured win at the quick shape, so a peephole
/// regression that silently stops firing cannot land:
///
/// | scenario          | measured reduction |
/// |-------------------|--------------------|
/// | sudoku            | 3.4%               |
/// | net8020_large     | 4.2%               |
/// | net8020_points    | 4.2%               |
/// | net8020_basefixed | 0.6%               |
/// | net8020_softfloat | 6.4%               |
/// | sudoku_batch      | 3.4%               |
/// | net8020_sharded   | 7.4%               |
/// | net8020_stdp      | 4.6%               |
/// | net8020_stream    | 5.3%               |
#[test]
fn assembler_relaxation_is_sound_on_every_scenario() {
    for sc in scenario::registry() {
        let run_with = |relax: bool| {
            let mut wl = sc.build_quick(&ScenarioParams::default());
            wl.cfg_mut().system.asm_relax = relax;
            let res = wl
                .run()
                .unwrap_or_else(|e| panic!("{} relax={relax}: run failed: {e}", sc.name));
            wl.verify(&res)
                .unwrap_or_else(|e| panic!("{} relax={relax}: verification failed: {e}", sc.name));
            res
        };
        let on = run_with(true);
        let off = run_with(false);
        assert_eq!(
            on.raster_hash(),
            off.raster_hash(),
            "{}: relaxation changed the spike raster",
            sc.name
        );
        assert_eq!(
            on.weight_hash, off.weight_hash,
            "{}: relaxation changed the final weight state",
            sc.name
        );
        assert!(
            on.instret < off.instret,
            "{}: relaxation saved no instructions ({} >= {})",
            sc.name,
            on.instret,
            off.instret
        );
        // Floors sit safely under the measured reductions above; a new
        // scenario starts at the >0 guarantee until someone pins it.
        let floor_permille = match sc.name {
            "sudoku" | "sudoku_batch" => 30,
            "net8020_large" | "net8020_points" => 35,
            "net8020_basefixed" => 4,
            "net8020_softfloat" => 55,
            "net8020_sharded" => 65,
            "net8020_stdp" => 40,
            "net8020_stream" => 45,
            _ => 0,
        };
        let permille = (off.instret - on.instret) * 1000 / off.instret;
        assert!(
            permille >= floor_permille,
            "{}: relaxation win regressed to {permille} per-mille (floor {floor_permille})",
            sc.name
        );
    }
}
